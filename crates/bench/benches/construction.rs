//! Criterion benchmarks for private-structure construction: the Theorem 1/2
//! pipelines, the fast q-gram algorithm of Theorem 4 (whose
//! `O(nℓ(log q + log|Σ|))` claim is experiment `t4_scaling`), the three
//! build phases in isolation, and the worker-thread sweep of the parallel
//! build path. The groups here are for interactive `cargo bench` work; the
//! tracked build numbers are perfbench's (`build_s`, `pipeline.*_ms`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dpsc_dpcore::budget::PrivacyParams;
use dpsc_private_count::candidates::{build_candidates_pure, CandidateParams};
use dpsc_private_count::pipeline::{build_count_trie, run_pipeline_on_trie, PipelineParams};
use dpsc_private_count::{
    build_approx, build_pure, build_qgram_fast, BuildParams, CountMode, FastQgramParams,
};
use dpsc_textindex::CorpusIndex;
use dpsc_workloads::{dna_corpus, markov_corpus};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_theorem1(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem1_build");
    group.sample_size(10);
    for &n in &[128usize, 512] {
        let mut rng = StdRng::seed_from_u64(10);
        let db = markov_corpus(n, 32, 4, 0.7, &mut rng);
        let idx = CorpusIndex::build(&db);
        let tau = 0.6 * n as f64;
        let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(4.0), 0.1)
            .with_thresholds(tau, tau);
        group.bench_with_input(BenchmarkId::from_parameter(n), &idx, |b, idx| {
            let mut rng = StdRng::seed_from_u64(11);
            b.iter(|| build_pure(black_box(idx), &params, &mut rng));
        });
    }
    group.finish();
}

fn bench_theorem2(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem2_build");
    group.sample_size(10);
    for &n in &[128usize, 512] {
        let mut rng = StdRng::seed_from_u64(12);
        let db = markov_corpus(n, 32, 4, 0.7, &mut rng);
        let idx = CorpusIndex::build(&db);
        let tau = 0.4 * n as f64;
        let params = BuildParams::new(CountMode::Document, PrivacyParams::approx(4.0, 1e-6), 0.1)
            .with_thresholds(tau, tau);
        group.bench_with_input(BenchmarkId::from_parameter(n), &idx, |b, idx| {
            let mut rng = StdRng::seed_from_u64(13);
            b.iter(|| build_approx(black_box(idx), &params, &mut rng));
        });
    }
    group.finish();
}

fn bench_theorem4(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem4_qgram_build");
    group.sample_size(10);
    for &n in &[1000usize, 4000, 16000] {
        let mut rng = StdRng::seed_from_u64(14);
        let corpus = dna_corpus(n, 64, 8, &[0.8], &mut rng);
        let idx = CorpusIndex::build(&corpus.db);
        let params = FastQgramParams {
            q: 8,
            mode: CountMode::Document,
            privacy: PrivacyParams::approx(4.0, 1e-6),
            beta: 0.1,
            tau_override: None,
        };
        group.bench_with_input(BenchmarkId::from_parameter(n * 64), &idx, |b, idx| {
            let mut rng = StdRng::seed_from_u64(15);
            b.iter(|| build_qgram_fast(black_box(idx), &params, &mut rng));
        });
    }
    group.finish();
}

/// The regime of the dna-small build scenario in `tests/common/golden.rs`
/// (its corpus is seeded differently), shared by the phase and
/// thread-sweep groups below.
fn build_bench_setup() -> (CorpusIndex, f64) {
    let mut rng = StdRng::seed_from_u64(0xB11D_BEAC);
    let n = 1024;
    let corpus = dna_corpus(n, 64, 8, &[0.9, 0.8, 0.7, 0.6, 0.5, 0.4], &mut rng);
    (CorpusIndex::build(&corpus.db), 0.45 * n as f64)
}

fn bench_build_phases(c: &mut Criterion) {
    let (idx, tau) = build_bench_setup();
    let privacy = PrivacyParams::pure(20.0);
    let third = privacy.split_even(3);
    let cand_params = CandidateParams {
        delta_clip: 1,
        privacy: third,
        beta: 0.1 / 3.0,
        tau_override: Some(tau),
        level_cap_override: None,
        threads: 1,
    };
    let mut group = c.benchmark_group("build_phases");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("step1_candidates", 1024), &idx, |b, idx| {
        let mut rng = StdRng::seed_from_u64(20);
        // The FAIL branch is part of the output space; timing ignores it
        // like the end-to-end groups above do.
        b.iter(|| build_candidates_pure(black_box(idx), &cand_params, &mut rng));
    });
    // Steps 2 and 3–6 run on one fixed candidate set (first succeeding
    // seed) so every iteration does identical work.
    let cands = (0..32u64)
        .find_map(|s| {
            let mut rng = StdRng::seed_from_u64(21 + s);
            build_candidates_pure(&idx, &cand_params, &mut rng).ok()
        })
        .expect("a candidate build succeeds within 32 seeds");
    let cands: Vec<&[u8]> = cands.strings.iter().collect();
    group.bench_with_input(BenchmarkId::new("step2_count_trie", 1024), &idx, |b, idx| {
        b.iter(|| build_count_trie(black_box(idx), &cands, 1));
    });
    let trie = build_count_trie(&idx, &cands, 1);
    let pipe = PipelineParams {
        delta_clip: 1,
        privacy_roots: third,
        privacy_diffs: third,
        beta: 0.2 / 3.0,
        gaussian: false,
        prune_override: Some(f64::NEG_INFINITY),
        threads: 1,
    };
    group.bench_with_input(BenchmarkId::new("steps3_6_noise", 1024), &trie, |b, trie| {
        let mut rng = StdRng::seed_from_u64(22);
        b.iter(|| run_pipeline_on_trie(black_box(trie), 64, &pipe, &mut rng));
    });
    group.finish();
}

fn bench_build_threads(c: &mut Criterion) {
    let (idx, tau) = build_bench_setup();
    let mut group = c.benchmark_group("build_threads");
    group.sample_size(10);
    for &threads in &[1usize, 4, 8] {
        let params = BuildParams::new(CountMode::Document, PrivacyParams::pure(20.0), 0.1)
            .with_thresholds(tau, f64::NEG_INFINITY)
            .with_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &idx, |b, idx| {
            let mut rng = StdRng::seed_from_u64(23);
            b.iter(|| build_pure(black_box(idx), &params, &mut rng));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_theorem1,
    bench_theorem2,
    bench_theorem4,
    bench_build_phases,
    bench_build_threads
);
criterion_main!(benches);
