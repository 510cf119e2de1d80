//! Shared measurement machinery for the error-scaling experiments.

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_private_count::pipeline::{build_count_trie, run_pipeline_on_trie, PipelineParams};
use dpsc_strkit::trie::Trie;
use dpsc_textindex::CorpusIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{frequent_probe_set, mean, median, run_trials};

/// Error statistics of a mechanism over a fixed probe trie.
#[derive(Debug, Clone, Copy)]
pub struct ErrorStats {
    /// Median over trials of the max absolute error across probes.
    pub median_max: f64,
    /// Mean over trials of the max absolute error.
    pub mean_max: f64,
    /// The analytic high-probability bound `α` the theory promises.
    pub alpha_analytic: f64,
    /// Number of probe nodes measured.
    pub probes: usize,
}

/// Measures the Steps 3–5 release error of the heavy-path pipeline
/// (Theorem 1 when `gaussian = false`, Theorem 2 when `true`) over the
/// `per_length` most frequent substrings at a geometric ladder of lengths.
///
/// Pruning is disabled so every probe is measured; the exact-count trie is
/// built once and shared across trials.
pub fn pipeline_error(
    idx: &CorpusIndex,
    per_length: usize,
    delta_clip: usize,
    privacy: PrivacyParams,
    gaussian: bool,
    trials: usize,
    seed: u64,
) -> ErrorStats {
    let probes = frequent_probe_set(idx, per_length, delta_clip);
    let counts_trie = build_count_trie(idx, &probes, delta_clip);
    let ell = idx.max_len();
    // Steps 3 and 4 each get half of the budget here (the builder's ε/3
    // split reserves the last third for candidates, which this measurement
    // replaces with a fixed probe set).
    let half = privacy.split_even(2);
    let params = PipelineParams {
        delta_clip,
        privacy_roots: half,
        privacy_diffs: half,
        beta: 0.1,
        gaussian,
        prune_override: Some(f64::NEG_INFINITY),
        threads: 1,
    };
    let maxes: Vec<f64> = run_trials(trials, seed, |_i, s| {
        let mut rng = StdRng::seed_from_u64(s);
        let out = run_pipeline_on_trie(&counts_trie, ell, &params, &mut rng);
        max_error_vs(&counts_trie, &out.trie)
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let alpha = run_pipeline_on_trie(&counts_trie, ell, &params, &mut rng).alpha;
    ErrorStats {
        median_max: median(&maxes),
        mean_max: mean(&maxes),
        alpha_analytic: alpha,
        probes: counts_trie.len(),
    }
}

/// Max |noisy − exact| across all nodes shared by the two tries.
fn max_error_vs(exact: &Trie<u64>, noisy: &Trie<f64>) -> f64 {
    let mut worst = 0.0f64;
    for node in exact.dfs() {
        let pat = exact.string_of(node);
        if let Some(n2) = noisy.walk(&pat) {
            worst = worst.max((*noisy.value(n2) - *exact.value(node) as f64).abs());
        }
    }
    worst
}

/// Measures the simple-trie baseline's release error over the same probe
/// set: each probe count is released with `Lap(2ℓ²/ε)` noise (budget `ε/ℓ`
/// per level × per-level sensitivity `2ℓ`, as in prior work).
pub fn baseline_error(
    idx: &CorpusIndex,
    per_length: usize,
    delta_clip: usize,
    epsilon: f64,
    trials: usize,
    seed: u64,
) -> ErrorStats {
    use dpsc_dpcore::mechanism::laplace_sup_error;
    use dpsc_dpcore::noise::Noise;
    let probes = frequent_probe_set(idx, per_length, delta_clip);
    let counts_trie = build_count_trie(idx, &probes, delta_clip);
    let ell = idx.max_len();
    let eps_level = epsilon / ell as f64;
    let noise = Noise::laplace_for(eps_level, 2.0 * ell as f64);
    let n_nodes = counts_trie.len();
    let maxes: Vec<f64> = run_trials(trials, seed, |_i, s| {
        let mut rng = StdRng::seed_from_u64(s);
        (0..n_nodes).map(|_| noise.sample(&mut rng).abs()).fold(0.0f64, f64::max)
    });
    let n = idx.n_docs();
    let k = ((ell * ell) as f64 * (n * n) as f64).max(idx.alphabet_size() as f64);
    ErrorStats {
        median_max: median(&maxes),
        mean_max: mean(&maxes),
        alpha_analytic: laplace_sup_error(eps_level, 2.0 * ell as f64, k.ceil() as usize, 0.1),
        probes: n_nodes,
    }
}
