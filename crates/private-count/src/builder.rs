//! Top-level constructors: Theorem 1 (ε-DP) and Theorem 2 ((ε,δ)-DP)
//! data structures for `count_Δ`.
//!
//! Budget split follows the paper exactly: Steps 1 (candidates), 3 (root
//! counts) and 4 (prefix sums) each get a third of `(ε, δ)` and of `β`;
//! Steps 2, 5 and 6 are noise-free post-processing. A
//! [`BudgetAccountant`] enforces the split at runtime.

use dpsc_dpcore::budget::{BudgetAccountant, PrivacyParams};
use dpsc_textindex::CorpusIndex;
use rand::Rng;

use crate::candidates::{build_candidates_with, CandidateOverflow, CandidateParams, CandidateSet};
use crate::codec_v3::Meta;
use crate::pipeline::{run_pipeline_with, PipelineParams};
use crate::spans::SpanRecorder;
use crate::structure::{CountMode, PrivateCountStructure};

/// Parameters for building a private counting structure.
#[derive(Debug, Clone, Copy)]
pub struct BuildParams {
    /// Which `count_Δ` to privatize.
    pub mode: CountMode,
    /// Total privacy budget of the construction.
    pub privacy: PrivacyParams,
    /// Total failure probability `β` of the accuracy guarantees.
    pub beta: f64,
    /// Candidate-threshold override (see [`CandidateParams::tau_override`]).
    pub candidate_tau_override: Option<f64>,
    /// Pruning-threshold override (see
    /// [`PipelineParams::prune_override`]).
    pub prune_override: Option<f64>,
    /// Per-level candidate cap override (default `nℓ`).
    pub level_cap_override: Option<usize>,
}

impl BuildParams {
    /// Sensible defaults: analytic thresholds everywhere.
    pub fn new(mode: CountMode, privacy: PrivacyParams, beta: f64) -> Self {
        Self {
            mode,
            privacy,
            beta,
            candidate_tau_override: None,
            prune_override: None,
            level_cap_override: None,
        }
    }

    /// Replaces both thresholds with fixed values — useful at laptop scale
    /// where the worst-case analytic `α` exceeds every true count. Privacy
    /// is unchanged (thresholding noisy values is post-processing).
    pub fn with_thresholds(mut self, candidate_tau: f64, prune_tau: f64) -> Self {
        self.candidate_tau_override = Some(candidate_tau);
        self.prune_override = Some(prune_tau);
        self
    }
}

/// Failures of the construction algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The candidate construction aborted (paper's FAIL outcome,
    /// probability ≤ β under the analysis).
    CandidateOverflow(CandidateOverflow),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::CandidateOverflow(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Theorem 1: ε-differentially private structure for `count_Δ` with error
/// `O(ε⁻¹ ℓ log ℓ (log²(nℓ/β) + log|Σ|))`.
pub fn build_pure<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &BuildParams,
    rng: &mut R,
) -> Result<PrivateCountStructure, BuildError> {
    assert!(params.privacy.is_pure(), "Theorem 1 is pure DP; use build_approx for δ > 0");
    build_impl(idx, params, false, rng, None)
}

/// [`build_pure`] with per-phase wall-clock spans (`"candidates"`,
/// `"count_trie"`, `"noise"`, `"prune"`) recorded into `rec`. Pure
/// observation: given the same RNG state the released structure is
/// bit-identical to [`build_pure`]'s.
pub fn build_pure_traced<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &BuildParams,
    rng: &mut R,
    rec: &SpanRecorder,
) -> Result<PrivateCountStructure, BuildError> {
    assert!(params.privacy.is_pure(), "Theorem 1 is pure DP; use build_approx for δ > 0");
    build_impl(idx, params, false, rng, Some(rec))
}

/// Theorem 2: (ε,δ)-differentially private structure for `count_Δ` with
/// error `O(ε⁻¹ √(ℓΔ log(1/δ)) · polylog)`.
pub fn build_approx<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &BuildParams,
    rng: &mut R,
) -> Result<PrivateCountStructure, BuildError> {
    assert!(params.privacy.delta > 0.0, "Theorem 2 requires δ > 0; use build_pure for δ = 0");
    build_impl(idx, params, true, rng, None)
}

fn build_impl<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &BuildParams,
    gaussian: bool,
    rng: &mut R,
    rec: Option<&SpanRecorder>,
) -> Result<PrivateCountStructure, BuildError> {
    let ell = idx.max_len();
    let delta_clip = params.mode.delta_clip(ell);
    let third = params.privacy.split_even(3);
    let beta_third = params.beta / 3.0;
    let mut accountant = BudgetAccountant::new(params.privacy);

    // Step 1: candidates (ε/3, δ/3, β/3).
    let cand_params = CandidateParams {
        delta_clip,
        privacy: third,
        beta: beta_third,
        tau_override: params.candidate_tau_override,
        level_cap_override: params.level_cap_override,
    };
    let cand_started = rec.map(|r| r.mark());
    // Steps 1 and 2 count with one counter, derived here for 1 < Δ < ℓ.
    let counts = idx.clipped_counter(delta_clip);
    let CandidateSet { strings: candidates, alpha: cand_alpha, tau: cand_tau, .. } =
        build_candidates_with(&counts, &cand_params, gaussian, rng)
            .map_err(BuildError::CandidateOverflow)?;
    if let (Some(r), Some(s)) = (rec, cand_started) {
        r.close("candidates", s, candidates.len() as u64);
    }
    accountant.charge(third).expect("step 1 within budget");

    // Steps 2–6: trie pipeline (ε/3 for roots, ε/3 for prefix sums,
    // 2β/3 combined).
    let pipe_params = PipelineParams {
        delta_clip,
        privacy_roots: third,
        privacy_diffs: third,
        beta: 2.0 * beta_third,
        gaussian,
        prune_override: params.prune_override,
    };
    // Absent strings are bounded by the worse of: not selected as candidate
    // (count < τ_cand + α_cand ≤ 3α_cand analytically) or pruned
    // (count < prune_threshold + α). Step 2 frees the candidates; Step 6
    // lays the release out.
    let released = run_pipeline_with(&counts, candidates, &pipe_params, rng, rec, |out| {
        let meta = Meta {
            mode: params.mode,
            privacy: params.privacy,
            alpha_counts: out.alpha,
            alpha_absent: (cand_tau + cand_alpha).max(out.prune_threshold + out.alpha),
            n_docs: idx.n_docs(),
            max_len: ell,
        };
        PrivateCountStructure::from_preorder(out.trie, meta)
    });
    accountant.charge(third).expect("step 3 within budget");
    accountant.charge(third).expect("step 4 within budget");
    Ok(released)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::alphabet::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn theorem1_noiseless_regime_matches_exact_counts() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(61);
        let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e9), 0.1)
            .with_thresholds(0.9, 0.5);
        let s = build_pure(&idx, &params, &mut rng).unwrap();
        // Example 1: count(ab) = 4; count_1(ab) = 3.
        assert!((s.query(b"ab") - 4.0).abs() < 1e-3);
        assert!((s.query(b"absab") - 1.0).abs() < 1e-3);
        assert_eq!(s.query(b"zz"), 0.0);

        let params_doc = BuildParams::new(CountMode::Document, PrivacyParams::pure(1e9), 0.1)
            .with_thresholds(0.9, 0.5);
        let mut rng = StdRng::seed_from_u64(62);
        let sdoc = build_pure(&idx, &params_doc, &mut rng).unwrap();
        assert!((sdoc.query(b"ab") - 3.0).abs() < 1e-3);
    }

    #[test]
    fn theorem2_noiseless_regime_matches_exact_counts() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(63);
        let params = BuildParams::new(CountMode::Document, PrivacyParams::approx(1e9, 1e-9), 0.1)
            .with_thresholds(0.9, 0.5);
        let s = build_approx(&idx, &params, &mut rng).unwrap();
        assert!((s.query(b"ab") - 3.0).abs() < 1e-3);
        // "be" occurs in abe, babe, bee, bees → document count 4.
        assert!((s.query(b"be") - 4.0).abs() < 1e-3);
        assert!(s.query(b"abe") > 0.5);
    }

    #[test]
    fn realistic_noise_error_within_alpha() {
        // A dense database and demo-grade ε so signal exceeds noise: the
        // worst-case noise scale is Θ(ℓ·log/ε) regardless of n, so either n
        // must be large or ε moderate for a unit-test-sized corpus. The
        // bound check itself is ε-independent (α scales with the noise).
        let docs: Vec<Vec<u8>> = (0..64)
            .map(|i| (0..32u8).map(|j| b'a' + ((i + j as usize) % 3) as u8).collect())
            .collect();
        let db = Database::new(dpsc_strkit::alphabet::Alphabet::lowercase(3), 32, docs).unwrap();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(64);
        let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(20.0), 0.1)
            .with_thresholds(100.0, 100.0);
        let s = build_pure(&idx, &params, &mut rng).unwrap();
        // Every stored count must be within α of the truth (w.p. 0.9; one
        // draw, seed fixed).
        let mut checked = 0;
        for (pat, _) in s.mine(f64::NEG_INFINITY) {
            let exact = idx.count_clipped(&pat, db.max_len()) as f64;
            let got = s.query(&pat);
            assert!(
                (got - exact).abs() <= s.alpha_counts(),
                "{:?}: got {got}, exact {exact}, α={}",
                pat,
                s.alpha_counts()
            );
            checked += 1;
        }
        assert!(checked > 0, "structure should be non-trivial");
    }

    #[test]
    fn traced_build_is_bit_identical_and_records_phases() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e9), 0.1)
            .with_thresholds(0.9, 0.5);
        let mut rng = StdRng::seed_from_u64(77);
        let plain = build_pure(&idx, &params, &mut rng).unwrap();
        let rec = SpanRecorder::new();
        let mut rng = StdRng::seed_from_u64(77);
        let traced = build_pure_traced(&idx, &params, &mut rng, &rec).unwrap();
        assert_eq!(plain.freeze(), traced.freeze());
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["candidates", "count_trie", "noise", "prune"]);
        assert!(rec.spans().iter().all(|s| s.items > 0), "phase item counts populated");
    }

    #[test]
    fn wrong_variant_panics() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(65);
        let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1.0), 0.1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = build_approx(&idx, &params, &mut rng);
        }));
        assert!(r.is_err());
    }
}
