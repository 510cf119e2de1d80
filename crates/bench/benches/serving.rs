//! Serving benchmark: queries/second against the released synopsis —
//! pointer-trie walk (`PrivateCountStructure::query`) vs the flat frozen
//! index (`FrozenSynopsis`), single-query vs batch vs parallel-batch.
//!
//! Fixtures are shared with the `serving_throughput` experiment
//! (`dpsc_bench::exps::serving`):
//! * `dp_built` — a genuine Theorem-1 construction on a Markov corpus
//!   (~10⁴ nodes; construction cost keeps this size modest);
//! * `synthetic` — a ≥10⁵-node synopsis assembled directly from
//!   Markov-generated strings with noise-shaped counts, sizing the
//!   serving layer like a production release without minutes of DP
//!   construction per bench run.
//!
//! The `serving_step_by_degree` group isolates the per-byte edge-probe
//! cost of the snapshot walk across node fanouts: star tries with root
//! degree 2…256 cover the one-word SWAR probe (≤ 8) and the multi-word
//! scan (up to 32 words), benchmarked against the naive binary-search walk
//! on the same synopsis.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dpsc_bench::exps::serving::{dp_built, synthetic};
use dpsc_dpcore::budget::PrivacyParams;
use dpsc_private_count::{CountMode, PrivateCountStructure};
use dpsc_strkit::trie::Trie;

fn bench_single_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_single_query");
    for (name, (structure, workload)) in
        [("dp_built", dp_built(1024)), ("synthetic", synthetic(150_000, 1024))]
    {
        if name == "synthetic" {
            assert!(structure.node_count() >= 100_000, "bench synopsis must have ≥1e5 nodes");
        }
        let frozen = structure.freeze();
        let nodes = frozen.node_count();
        let pats: Vec<&[u8]> = workload.iter().map(|p| p.as_slice()).collect();
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new(format!("trie_walk/{name}"), nodes),
            &pats,
            |b, pats| {
                b.iter(|| {
                    i = (i + 1) % pats.len();
                    structure.query(black_box(pats[i]))
                });
            },
        );
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new(format!("frozen/{name}"), nodes),
            &pats,
            |b, pats| {
                b.iter(|| {
                    i = (i + 1) % pats.len();
                    frozen.query(black_box(pats[i]))
                });
            },
        );
    }
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let (structure, workload) = synthetic(150_000, 1024);
    let frozen = structure.freeze();
    let pats: Vec<&[u8]> = workload.iter().map(|p| p.as_slice()).collect();
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    let mut group = c.benchmark_group("serving_batch_1024");
    group.bench_function("trie_walk_loop", |b| {
        b.iter(|| {
            let out: Vec<f64> = pats.iter().map(|p| structure.query(black_box(p))).collect();
            out
        });
    });
    group.bench_function("frozen_batch", |b| {
        b.iter(|| frozen.query_batch(black_box(&pats)));
    });
    group.bench_function("frozen_parallel", |b| {
        b.iter(|| frozen.query_batch_parallel(black_box(&pats), threads));
    });
    group.finish();
}

/// Lookup cost by node degree: a two-level star trie whose root has
/// exactly `degree` children (each child carrying a few grandchildren so
/// walks take two steps), probed with an even hit/miss mix of two-byte
/// patterns. Isolates which fast-path tier serves the root step.
fn bench_step_by_degree(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_step_by_degree");
    for degree in [2usize, 8, 16, 32, 64, 128, 256] {
        let mut trie: Trie<f64> = Trie::new(1000.0);
        let step = 256 / degree;
        for i in 0..degree {
            let label = (i * step) as u8;
            let child = trie.insert_path(&[label], |_| 0.0);
            *trie.value_mut(child) = i as f64 + 1.5;
            for g in 0..4u8 {
                let node = trie.insert_path(&[label, g * 61], |_| 0.0);
                *trie.value_mut(node) = f64::from(g) + 0.25;
            }
        }
        let structure = PrivateCountStructure::new(
            trie,
            CountMode::Substring,
            PrivacyParams::pure(1.0),
            1.0,
            1.0,
            64,
            64,
        );
        let frozen = structure.freeze();
        // Every root label hit once, interleaved with guaranteed misses.
        let pats: Vec<[u8; 2]> =
            (0..degree).flat_map(|i| [[(i * step) as u8, 61], [(i * step) as u8, 7]]).collect();
        let pats: Vec<&[u8]> = pats.iter().map(|p| p.as_slice()).collect();
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("swar_walk", degree), &pats, |b, pats| {
            b.iter(|| {
                i = (i + 1) % pats.len();
                frozen.query(black_box(pats[i]))
            });
        });
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("naive", degree), &pats, |b, pats| {
            b.iter(|| {
                i = (i + 1) % pats.len();
                frozen.query_naive(black_box(pats[i]))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_query, bench_batch, bench_step_by_degree);
criterion_main!(benches);
