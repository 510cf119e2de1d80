//! Experiment MINE-util: end-to-end mining utility on the paper's two
//! motivating applications, plus the Figures 1–3 worked example.

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_hierarchy::heavy_path::HeavyPathDecomposition;
use dpsc_private_count::pipeline::{build_count_trie, CountTrie};
use dpsc_private_count::{
    build_approx, build_qgram_fast, evaluate_mining, BuildParams, CountMode, FastQgramParams,
};
use dpsc_strkit::alphabet::Database;
use dpsc_textindex::CorpusIndex;
use dpsc_workloads::{dna_corpus, transit_corpus};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{mean, run_trials, Table};

/// MINE-util: precision/recall of private frequent-pattern mining across
/// thresholds, on DNA (Theorem 4) and transit logs (Theorem 2).
pub fn mining_utility() -> Vec<Table> {
    let mut dna_table = Table::new(
        "mining_utility_dna",
        "q-gram mining utility on DNA with planted motifs (Theorem 4, ε = 4, δ = 1e-6, n = 5000, ℓ = 80, q = 8, Δ = 1)",
        &["τ", "precision", "recall", "Definition-2 contract"],
    );
    {
        let mut rng = StdRng::seed_from_u64(13_000);
        let corpus = dna_corpus(5000, 80, 8, &[0.9, 0.7, 0.3], &mut rng);
        let idx = CorpusIndex::build(&corpus.db);
        for tau in [2900.0f64, 3400.0, 4200.0] {
            let stats = run_trials(5, 13_100 + tau as u64, |_i, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let params = FastQgramParams {
                    q: 8,
                    mode: CountMode::Document,
                    privacy: PrivacyParams::approx(4.0, 1e-6),
                    beta: 0.1,
                    tau_override: None,
                };
                match build_qgram_fast(&idx, &params, &mut rng) {
                    Ok(s) => {
                        let mined: Vec<Vec<u8>> =
                            s.mine_qgrams(8, tau).into_iter().map(|(g, _)| g).collect();
                        let ev = evaluate_mining(&idx, 1, &mined, tau, s.alpha_counts(), Some(8));
                        (ev.precision, ev.recall, ev.contract_holds())
                    }
                    Err(_) => (0.0, 0.0, false),
                }
            });
            dna_table.row(vec![
                format!("{tau}"),
                format!("{:.2}", mean(&stats.iter().map(|s| s.0).collect::<Vec<_>>())),
                format!("{:.2}", mean(&stats.iter().map(|s| s.1).collect::<Vec<_>>())),
                format!("{}/{}", stats.iter().filter(|s| s.2).count(), stats.len()),
            ]);
        }
        dna_table.note("motifs planted at 90%/70%/30% document frequency; the 30% motif sits below the privacy-clamped publication threshold and is (correctly, per Definition 2) not required to be reported.");
    }

    let mut transit_table = Table::new(
        "mining_utility_transit",
        "Route mining utility on transit logs (Theorem 2, ε = 2, δ = 1e-6, n = 10000, ℓ = 24, Δ = 1); several thresholds on ONE release",
        &["τ", "precision", "recall", "planted routes recovered"],
    );
    {
        let mut rng = StdRng::seed_from_u64(14_000);
        let corpus = transit_corpus(10_000, 24, 10, 3, 4, 0.9, &mut rng);
        let idx = CorpusIndex::build(&corpus.db);
        let build_tau = 1200.0;
        let params = BuildParams::new(CountMode::Document, PrivacyParams::approx(2.0, 1e-6), 0.1)
            .with_thresholds(build_tau, build_tau);
        let s = build_approx(&idx, &params, &mut rng).expect("transit construction");
        for tau in [1500.0f64, 2200.0, 2800.0] {
            let mined: Vec<Vec<u8>> = s.mine_qgrams(4, tau).into_iter().map(|(g, _)| g).collect();
            let ev = evaluate_mining(&idx, 1, &mined, tau, s.alpha_counts(), Some(4));
            let recovered = corpus.routes.iter().filter(|r| mined.iter().any(|m| &m == r)).count();
            transit_table.row(vec![
                format!("{tau}"),
                format!("{:.2}", ev.precision),
                format!("{:.2}", ev.recall),
                format!("{recovered}/{}", corpus.routes.len()),
            ]);
        }
        transit_table
            .note("all three thresholds are answered from one private release — no additional privacy cost (post-processing).");
    }

    vec![dna_table, transit_table]
}

/// FIG-1/2/3: the paper's worked example — suffix trie counts, heavy-path
/// decomposition of the candidate trie, and the difference sequence of the
/// topmost heavy path (Figure 3's table).
pub fn figures() -> Vec<Table> {
    let db = Database::paper_example();
    let idx = CorpusIndex::build(&db);

    // Figure 1: counts along the suffixes of "babe".
    let mut f1 = Table::new(
        "figure1",
        "Figure 1 companion: substring counts of the suffixes of `babe` in D = {aaaa, abe, absab, babe, bee, bees}",
        &["suffix", "count(P, D)", "count_1(P, D)"],
    );
    for suf in ["babe", "abe", "be", "e"] {
        f1.row(vec![
            suf.to_string(),
            idx.count(suf.as_bytes()).to_string(),
            idx.document_count(suf.as_bytes()).to_string(),
        ]);
    }

    // Figure 2: the candidate trie of Examples 2–3 with its heavy paths.
    let candidates: Vec<Vec<u8>> = [
        "a", "b", "e", "s", "aa", "ab", "ba", "be", "bs", "ee", "es", "sa", "aaa", "aab", "aba",
        "abe", "abs", "baa", "bab", "bee", "bsa", "eee", "saa", "sab", "aaaa", "absa", "babe",
        "bees", "bsab", "aaaaa", "absab",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    let trie = build_count_trie(&idx, &candidates, db.max_len());
    let hpd = HeavyPathDecomposition::from_preorder(trie.parents());
    let mut f2 = Table::new(
        "figure2",
        "Figure 2 companion: heavy-path decomposition of the candidate trie T_C (Examples 2–3)",
        &["heavy path (root→leaf)", "counts along path"],
    );
    let mut paths: Vec<(String, String)> = hpd
        .paths()
        .map(|path| {
            let label: Vec<String> = path
                .iter()
                .map(|&v| {
                    let s = trie.string_of(v);
                    if s.is_empty() {
                        "ε".to_string()
                    } else {
                        String::from_utf8_lossy(&s).into_owned()
                    }
                })
                .collect();
            let counts: Vec<String> = path.iter().map(|&v| trie.value(v).to_string()).collect();
            (label.join(" → "), counts.join(", "))
        })
        .collect();
    paths.sort();
    for (label, counts) in paths {
        f2.row(vec![label, counts]);
    }
    f2.note(format!(
        "trie has {} nodes in {} heavy paths; any root-to-leaf path crosses ≤ ⌊log₂ {}⌋ = {} light edges (Lemma 9).",
        trie.len(),
        hpd.num_paths(),
        trie.len(),
        (usize::BITS - 1 - (trie.len()).leading_zeros()),
    ));

    // Figure 3: difference sequence + dyadic partial sums of the heavy path
    // containing the root.
    let root_path = hpd.path(hpd.path_of(CountTrie::ROOT));
    let mut f3 = Table::new(
        "figure3",
        "Figure 3 companion: the root's heavy path, its difference sequence, and exact prefix sums (the binary-tree mechanism adds noise to the dyadic partial sums of the diff row)",
        &["node", "count", "diff", "prefix sum of diffs"],
    );
    let mut prefix = 0i64;
    for (i, &v) in root_path.iter().enumerate() {
        let s = trie.string_of(v);
        let label =
            if s.is_empty() { "ε".to_string() } else { String::from_utf8_lossy(&s).into_owned() };
        let count = trie.value(v) as i64;
        let diff = if i == 0 {
            "—".to_string()
        } else {
            let d = count - trie.value(root_path[i - 1]) as i64;
            prefix += d;
            d.to_string()
        };
        f3.row(vec![label, count.to_string(), diff, prefix.to_string()]);
    }

    vec![f1, f2, f3]
}
