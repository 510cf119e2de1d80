//! Quickstart: exact counts on the paper's Example 1, then real
//! differentially private structures on a corpus large enough for signal to
//! survive the (worst-case-calibrated) noise.
//!
//! Run with: `cargo run --release --example quickstart`

use dp_substring_counting::prelude::*;
use dp_substring_counting::workloads::markov_corpus;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // ---- Part 1: the paper's Example 1, exact -----------------------------
    let db = Database::paper_example();
    let idx = CorpusIndex::build(&db);
    println!("Example 1: D = {{aaaa, abe, absab, babe, bee, bees}}");
    println!(
        "  Document Count(ab) = {}   Substring Count(ab) = {}   (paper: 3 and 4)",
        idx.document_count(b"ab"),
        idx.count(b"ab"),
    );

    // ---- Part 2: private structures on a realistic corpus -----------------
    // DP noise scales with ℓ/ε *regardless of n* (the paper's Ω(ℓ) lower
    // bound), so the corpus must be large for counts to dominate noise.
    let mut rng = StdRng::seed_from_u64(2025);
    let corpus = markov_corpus(2000, 32, 8, 0.75, &mut rng);
    let cidx = CorpusIndex::build(&corpus);
    println!(
        "\ncorpus: n = {} documents, ℓ = {}, |Σ| = {}",
        corpus.n(),
        corpus.max_len(),
        corpus.alphabet().size(),
    );

    // Theorem 1: ε-DP Substring Count. Demo thresholds are post-processing;
    // the ε guarantee is unchanged.
    let eps = 4.0;
    let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(eps), 0.1)
        .with_thresholds(800.0, 800.0);
    let substr = build_pure(&cidx, &params, &mut rng).expect("construction succeeded");
    println!("\nTheorem 1 (ε = {eps}) substring counts   [true → noisy]");
    let printed = [&b"ab"[..], b"abc", b"abcd", b"ba"];
    for pat in printed {
        println!(
            "  count({:4}) = {:6} → {:9.1}",
            String::from_utf8_lossy(pat),
            cidx.count(pat),
            substr.query(pat),
        );
    }
    println!(
        "  structure: {} trie nodes, count error ≤ α = {:.0} w.p. 0.9",
        substr.node_count(),
        substr.alpha_counts(),
    );

    // Theorem 2: (ε,δ)-DP Document Count — the √ℓ-better noise.
    let params = BuildParams::new(CountMode::Document, PrivacyParams::approx(eps, 1e-6), 0.1)
        .with_thresholds(800.0, 800.0);
    let doc = build_approx(&cidx, &params, &mut rng).expect("construction succeeded");
    println!("\nTheorem 2 (ε = {eps}, δ = 1e-6) document counts   [true → noisy]");
    for pat in [&b"ab"[..], b"abcd", b"abcdefgh"] {
        println!(
            "  count_1({:8}) = {:5} → {:9.1}",
            String::from_utf8_lossy(pat),
            cidx.document_count(pat),
            doc.query(pat),
        );
    }
    println!(
        "  Gaussian α = {:.0} vs Laplace α = {:.0}: the √(ℓΔ) improvement at Δ=1",
        doc.alpha_counts(),
        substr.alpha_counts(),
    );

    // Mining at several thresholds: free post-processing of one release.
    println!("\nfrequent substrings from ONE private structure (no extra privacy cost):");
    for tau in [2000.0, 5000.0] {
        let mined = substr.mine(tau);
        println!("  τ = {tau}: {} strings above threshold", mined.len());
    }
    println!("\ntop-5 substrings by noisy count:");
    let top = substr.mine_top_k(5, None);
    for (gram, count) in &top {
        println!("  {:8} → {:9.1}", String::from_utf8_lossy(gram), count);
    }

    // The structure is a publishable artifact: its DPSF snapshot reloads
    // with the same answers (the bytes are already differentially private).
    let bytes = substr.freeze().to_bytes();
    let reloaded = FrozenSynopsis::from_bytes(&bytes).expect("snapshot reloads");
    for pat in printed.into_iter().chain(top.iter().map(|(gram, _)| gram.as_slice())) {
        assert_eq!(reloaded.query(pat).to_bits(), substr.query(pat).to_bits(), "{pat:?}");
    }
    println!("\nsnapshot: {} bytes, reload verified", bytes.len());
}
