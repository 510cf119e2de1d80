//! Serving-throughput experiment: queries/second against a released
//! synopsis through its single, batch and parallel-batch paths.
//!
//! This is an engineering experiment, not a theorem check: it tracks the
//! serving layer's performance trajectory in the recorded results the same
//! way the theorem tables track error shapes.

use std::collections::BTreeMap;
use std::time::Instant;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_private_count::{build_pure, BuildParams, CountMode, PrivateCountStructure};
use dpsc_textindex::CorpusIndex;
use dpsc_workloads::markov_corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Table;

/// Workload mixing prefixes of present strings with absent digit patterns.
fn mixed_workload(present: &[Vec<u8>], rng: &mut StdRng, total: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(total);
    for i in 0..total {
        if i % 2 == 0 && !present.is_empty() {
            let s = &present[rng.gen_range(0..present.len())];
            let len = rng.gen_range(1..=s.len());
            out.push(s[..len].to_vec());
        } else {
            let len = rng.gen_range(2..12usize);
            out.push((0..len).map(|_| rng.gen_range(b'0'..=b'9')).collect());
        }
    }
    out
}

/// Theorem-1 construction at laptop scale (~10⁴ nodes), with a
/// `workload`-query mix. Shared by this experiment and the `serving`
/// criterion bench so both always measure the same fixture.
pub fn dp_built(workload: usize) -> (PrivateCountStructure, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(20);
    let db = markov_corpus(1000, 32, 8, 0.6, &mut rng);
    let idx = CorpusIndex::build(&db);
    let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e6), 0.1)
        .with_thresholds(2.0, 2.0);
    let s = build_pure(&idx, &params, &mut rng).expect("construction succeeded");
    let present: Vec<Vec<u8>> = db.documents().iter().take(512).cloned().collect();
    let workload = mixed_workload(&present, &mut rng, workload);
    (s, workload)
}

/// Serving-scale synopsis (≥ `target` nodes) assembled from Markov strings
/// with noise-shaped counts; serving cost depends only on trie shape, not
/// on how the counts were produced. Shared with the `serving` bench.
pub fn synthetic(target: usize, workload: usize) -> (PrivateCountStructure, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(99);
    // Interior prefixes get their children's maximum; the string set, and
    // so the trie shape, is what serving cost depends on.
    let mut entries: BTreeMap<Vec<u8>, f64> = BTreeMap::from([(Vec::new(), 1e6)]);
    let mut nodes = 1;
    let mut inserted: Vec<Vec<u8>> = Vec::new();
    while nodes < target {
        let len = rng.gen_range(6..24usize);
        let mut s = Vec::with_capacity(len);
        let mut sym = rng.gen_range(0..8u8);
        for _ in 0..len {
            if rng.gen_bool(0.4) {
                sym = rng.gen_range(0..8u8);
            }
            s.push(b'a' + sym);
        }
        // The new nodes are those past the longest prefix `s` shares with
        // a string already in, which is one of its sorted neighbours.
        let before = entries.range(..s.clone()).next_back();
        let after = entries.range(s.clone()..).next();
        let shared = [before, after]
            .into_iter()
            .flatten()
            .map(|(t, _)| t.iter().zip(&s).take_while(|(x, y)| x == y).count())
            .max()
            .unwrap_or(0);
        nodes += s.len() - shared;
        entries.insert(s.clone(), rng.gen_range(0.0..100.0f64));
        inserted.push(s);
    }
    let s = PrivateCountStructure::from_entries(
        entries.into_iter().collect(),
        CountMode::Substring,
        PrivacyParams::pure(1.0),
        50.0,
        50.0,
        10_000,
        24,
    )
    .expect("distinct strings with finite counts");
    let workload = mixed_workload(&inserted, &mut rng, workload);
    (s, workload)
}

/// Times `f` (which answers `queries` queries per call) and returns
/// queries per second over `iters` calls, after one warm-up call.
fn measure_qps(iters: usize, queries: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (iters * queries) as f64 / start.elapsed().as_secs_f64()
}

/// The serving-throughput table.
pub fn serving_throughput() -> Table {
    let mut t = Table::new(
        "serving_throughput",
        "Serving: queries/s of the frozen synopsis by query path",
        &["synopsis", "nodes", "path", "queries/s", "vs single"],
    );
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    for (name, (structure, workload)) in
        [("dp_built", dp_built(2048)), ("synthetic", synthetic(150_000, 2048))]
    {
        let frozen = structure.freeze();
        let pats: Vec<&[u8]> = workload.iter().map(|p| p.as_slice()).collect();
        let nq = pats.len();
        let iters = 200;
        let single_qps = measure_qps(iters, nq, || {
            for p in &pats {
                std::hint::black_box(frozen.query(p));
            }
        });
        let batch_qps = measure_qps(iters, nq, || {
            std::hint::black_box(frozen.query_batch(&pats));
        });
        let par_qps = measure_qps(iters, nq, || {
            std::hint::black_box(frozen.query_batch_parallel(&pats, threads));
        });
        for (path, qps) in [
            ("frozen_single", single_qps),
            ("frozen_batch", batch_qps),
            ("frozen_parallel", par_qps),
        ] {
            t.row(vec![
                name.to_string(),
                frozen.node_count().to_string(),
                path.to_string(),
                format!("{qps:.0}"),
                format!("{:.2}×", qps / single_qps),
            ]);
        }
    }
    t.note(format!(
        "2048-query mixed workload (present prefixes + absent patterns); \
         parallel path uses {threads} thread(s)."
    ));
    t
}
