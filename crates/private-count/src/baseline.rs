//! Prior-work baseline: the "simple approach" of the paper's §1.2.
//!
//! A private trie built top-down (the strategy of \[10, 18, 19, 50, 51, 72\]):
//! expand the frontier one letter at a time, add noise to each frontier
//! count, keep nodes above threshold. Because a single document can touch
//! `Ω(ℓ²)` trie nodes, the per-node noise must scale with `ℓ²/ε` (budget
//! `ε/ℓ` per level × per-level sensitivity `2ℓ`), giving additive error
//! `Ω(ℓ²)` — the bound Theorem 1 improves to `Õ(ℓ)`. Experiment
//! `t1_error_vs_ell` measures exactly this gap.

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::mechanism::laplace_sup_error;
use dpsc_dpcore::noise::Noise;
use dpsc_textindex::CorpusIndex;
use rand::Rng;

use crate::structure::{CountMode, PrivateCountStructure};

/// Parameters for the simple-trie baseline.
#[derive(Debug, Clone, Copy)]
pub struct SimpleTrieParams {
    /// The clip level `Δ`.
    pub mode: CountMode,
    /// Total (pure) privacy budget.
    pub privacy: PrivacyParams,
    /// Failure probability for the error guarantee.
    pub beta: f64,
    /// Expansion threshold override (default: analytic `2α`).
    pub tau_override: Option<f64>,
    /// Maximum depth to expand (default `ℓ`).
    pub max_depth: Option<usize>,
    /// Safety cap on total trie nodes (default `2^20`): the top-down
    /// expansion can blow up when noise swamps the threshold.
    pub node_cap: Option<usize>,
}

/// Builds the simple top-down private trie (ε-DP).
///
/// Privacy argument (as in prior work): level `m` counts have L1
/// sensitivity `2ℓ` (Corollary 3); with `ℓ` levels each getting `ε/ℓ`, per
/// node noise is `Lap(2ℓ²/ε)`. Thresholding noisy counts and expanding is
/// post-processing of each level's release.
///
/// # Panics
/// If the budget is not pure or `tau_override` is not finite.
pub fn build_simple_trie<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &SimpleTrieParams,
    rng: &mut R,
) -> PrivateCountStructure {
    assert!(params.privacy.is_pure(), "baseline is analyzed under pure DP");
    assert!(params.tau_override.is_none_or(f64::is_finite), "tau_override must be finite");
    let ell = idx.max_len();
    let delta_clip = params.mode.delta_clip(ell);
    let max_depth = params.max_depth.unwrap_or(ell).min(ell);
    let node_cap = params.node_cap.unwrap_or(1 << 20);
    let n = idx.n_docs();
    let sigma = idx.alphabet_size();

    // ε/ℓ per level; sensitivity 2ℓ per level → scale 2ℓ²/ε.
    let eps_level = params.privacy.epsilon / max_depth.max(1) as f64;
    let noise = Noise::laplace_for(eps_level, 2.0 * ell as f64);
    // Sup error over all counts ever released (≤ node_cap·|Σ| probes, union
    // bounded like the paper's K).
    let k_counts = ((ell * ell) as f64 * (n * n) as f64).max(sigma as f64);
    let alpha =
        laplace_sup_error(eps_level, 2.0 * ell as f64, k_counts.ceil() as usize, params.beta);
    let tau = params.tau_override.unwrap_or(2.0 * alpha);

    let counts = idx.clipped_counter(delta_clip);
    let mut entries = vec![(Vec::new(), counts.count(b"") as f64)];
    let mut frontier: Vec<Vec<u8>> = vec![Vec::new()];
    'levels: for _depth in 1..=max_depth {
        let mut next = Vec::new();
        for prefix in &frontier {
            for sym in 0..sigma {
                let mut pattern = Vec::with_capacity(prefix.len() + 1);
                pattern.extend_from_slice(prefix);
                pattern.push(idx.alphabet_base() + sym as u8);
                let c = counts.count(&pattern) as f64;
                let noisy = c + noise.sample(rng);
                if noisy >= tau {
                    entries.push((pattern.clone(), noisy));
                    next.push(pattern);
                    if entries.len() >= node_cap {
                        break 'levels;
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }

    PrivateCountStructure::from_entries(
        entries,
        params.mode,
        params.privacy,
        alpha,
        tau + alpha,
        n,
        ell,
    )
    .expect("distinct patterns with finite counts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::alphabet::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_baseline_matches_exact_counts() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(91);
        let params = SimpleTrieParams {
            mode: CountMode::Substring,
            privacy: PrivacyParams::pure(1e9),
            beta: 0.1,
            tau_override: Some(0.9),
            max_depth: None,
            node_cap: None,
        };
        let s = build_simple_trie(&idx, &params, &mut rng);
        assert!((s.query(b"ab") - 4.0).abs() < 1e-3);
        assert!((s.query(b"absab") - 1.0).abs() < 1e-3);
        assert_eq!(s.query(b"zz"), 0.0);
    }

    #[test]
    fn baseline_alpha_scales_quadratically() {
        // The analytic error of the baseline is Θ(ℓ²·polylog) vs Theorem 1's
        // Θ(ℓ·polylog): quadrupling ℓ should grow the baseline's α by ≈ 16×
        // (up to the log factor drift).
        let mk = |ell: usize| {
            let docs = vec![vec![b'a'; ell]; 4];
            let db =
                Database::new(dpsc_strkit::alphabet::Alphabet::lowercase(4), ell, docs).unwrap();
            let idx = CorpusIndex::build(&db);
            let mut rng = StdRng::seed_from_u64(92);
            let params = SimpleTrieParams {
                mode: CountMode::Substring,
                privacy: PrivacyParams::pure(1.0),
                beta: 0.1,
                tau_override: Some(0.9),
                max_depth: None, // full depth ℓ → per-level budget ε/ℓ
                node_cap: Some(64),
            };
            build_simple_trie(&idx, &params, &mut rng).alpha_counts()
        };
        let a8 = mk(8);
        let a32 = mk(32);
        let ratio = a32 / a8;
        assert!(ratio > 12.0 && ratio < 24.0, "quadratic scaling expected, ratio {ratio}");
    }

    #[test]
    fn node_cap_stops_blowup() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(93);
        let params = SimpleTrieParams {
            mode: CountMode::Substring,
            privacy: PrivacyParams::pure(1e9),
            beta: 0.1,
            // Threshold below zero: every probe survives → blowup without cap.
            tau_override: Some(-1.0),
            max_depth: Some(3),
            node_cap: Some(100),
        };
        let s = build_simple_trie(&idx, &params, &mut rng);
        assert!(s.node_count() <= 101);
    }

    #[test]
    #[should_panic(expected = "tau_override must be finite")]
    fn non_finite_tau_override_panics_at_entry() {
        let idx = CorpusIndex::build(&Database::paper_example());
        let params = SimpleTrieParams {
            mode: CountMode::Substring,
            privacy: PrivacyParams::pure(1.0),
            beta: 0.1,
            tau_override: Some(f64::NEG_INFINITY),
            max_depth: None,
            node_cap: None,
        };
        build_simple_trie(&idx, &params, &mut StdRng::seed_from_u64(1));
    }
}
