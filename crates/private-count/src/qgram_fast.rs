//! Theorem 4: fast (ε,δ)-differentially private q-gram counting
//! (Lemmas 19, 20 and 21).
//!
//! The key idea (Lemma 19): under *approximate* DP the algorithm may skip
//! strings whose true count is zero, because with probability ≥ 1 − γ the
//! noise on a zero count stays below the threshold anyway — the skipping is
//! statistically invisible, and the `δ` budget absorbs the difference.
//! This removes the `|P|²` pair enumeration entirely: each phase only
//! touches substrings that actually occur in `D`.
//!
//! Phases (the paper's `Alg_2`):
//! * Phase 0: every distinct letter of the corpus gets a Gaussian-noised
//!   count; those ≥ `2α` are *marked*.
//! * Phase `k`: every distinct `2^k`-substring whose two halves are marked
//!   gets a noised count; mark if ≥ `2α`.
//! * Final phase: every distinct `q`-gram whose length-`2^{⌊log q⌋}` prefix
//!   and suffix are marked gets a noised count; survivors are published.
//!
//! The paper walks `2^k`-minimal suffix-tree nodes with weighted-ancestor
//! queries \[5, 39\]; we enumerate the same nodes as LCP depth groups
//! ([`dpsc_textindex::depth_groups`]) and replace the ancestor queries by
//! hash-set membership of the half-strings — same marks, different
//! dictionary (DESIGN.md §2). Construction is `O(nℓ(log q + log|Σ|))`-ish:
//! one LCP scan per phase.

use std::collections::HashSet;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::noise::Noise;
use dpsc_strkit::hash::HashValue;
use dpsc_strkit::trie::Trie;
use dpsc_textindex::{depth_groups, CorpusIndex};
use rand::Rng;

use crate::qgram::fixup_interior;
use crate::structure::{CountMode, PrivateCountStructure};

/// Parameters for the Theorem 4 construction.
#[derive(Debug, Clone, Copy)]
pub struct FastQgramParams {
    /// The fixed pattern length `q ≤ ℓ`.
    pub q: usize,
    /// The clip level `Δ`.
    pub mode: CountMode,
    /// Total privacy budget; `δ > 0` required (the zero-skipping of
    /// Lemma 19 is what `δ` buys).
    pub privacy: PrivacyParams,
    /// Total failure probability.
    pub beta: f64,
    /// Threshold override. **Clamped from below to the analytic α**: unlike
    /// the pure-DP algorithms, Theorem 4's privacy argument (Lemma 19)
    /// *requires* the threshold to exceed the zero-count noise tail — the
    /// algorithm never adds noise to absent strings, so a too-low threshold
    /// would make "string absent from output" a distinguishing event. (Our
    /// distinguishing-attack suite catches exactly this if the clamp is
    /// removed.)
    pub tau_override: Option<f64>,
}

/// Error: a phase exceeded the `nℓ` cap (probability ≤ β under the
/// analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseOverflow {
    /// Phase index (string length `2^phase`, or `q` for the final phase).
    pub phase: usize,
    /// Number of marked strings.
    pub size: usize,
    /// The `nℓ` cap.
    pub cap: usize,
}

impl std::fmt::Display for PhaseOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fast q-gram phase {} overflowed: {} > {}", self.phase, self.size, self.cap)
    }
}

impl std::error::Error for PhaseOverflow {}

/// Builds the Theorem 4 (ε,δ)-DP q-gram structure in
/// `O(nℓ(log q + log|Σ|))` time and `O(nℓ)` space.
pub fn build_qgram_fast<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &FastQgramParams,
    rng: &mut R,
) -> Result<PrivateCountStructure, PhaseOverflow> {
    build_qgram_fast_impl(idx, params, true, rng)
}

/// Implementation with an `enforce_clamp` switch. The public entry point
/// always enforces the Lemma 19 threshold clamp; unit tests disable it to
/// check the *mechanics* (exact counts, phase plumbing) at toy scale where
/// the clamp floor exceeds every true count. Never expose `false` publicly.
fn build_qgram_fast_impl<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &FastQgramParams,
    enforce_clamp: bool,
    rng: &mut R,
) -> Result<PrivateCountStructure, PhaseOverflow> {
    assert!(params.privacy.delta > 0.0, "Theorem 4 requires δ > 0 (Lemma 19)");
    let ell = idx.max_len();
    let q = params.q;
    assert!(q >= 1 && q <= ell, "q must be in [1, ℓ]");
    let delta_clip = params.mode.delta_clip(ell);
    let n = idx.n_docs();
    let cap = n * ell;
    let sigma = idx.alphabet_size();

    // Paper's parameterization (Lemma 20): j = ⌊log q⌋, ε₁ = ε/(j+2),
    // β₁ = min(β/(j+2), δ/(3e^ε(j+2))), δ₁ ≤ β₁.
    let j = (q as f64).log2().floor() as usize;
    let phases = j + 2;
    let eps1 = params.privacy.epsilon / phases as f64;
    // Work in log space: β₁ involves e^{-ε}, which overflows f64 for large
    // ε while ln(2/δ₁) stays perfectly representable.
    let log_beta1 = (params.beta / phases as f64)
        .ln()
        .min(params.privacy.delta.ln() - (3.0 * phases as f64).ln() - params.privacy.epsilon);
    let ln_2_over_delta1 = std::f64::consts::LN_2 - log_beta1; // δ₁ = β₁

    // σ = 2ε₁⁻¹√(2ℓΔ·ln(2/δ₁)); α from the Gaussian tail over
    // K = max{ℓ²n², |Σ|} counts.
    let sigma_noise = 2.0 / eps1 * (2.0 * ell as f64 * delta_clip as f64 * ln_2_over_delta1).sqrt();
    let noise = Noise::Gaussian { sigma: sigma_noise };
    let k_counts = ((ell * ell) as f64 * (n * n) as f64).max(sigma as f64);
    let alpha = sigma_noise * (2.0 * ((2.0 * k_counts).ln() - log_beta1)).sqrt();
    // Privacy clamp (Lemma 19): with probability ≥ 1 − β₁ no zero-count
    // string's noise reaches α, so any τ ≥ α keeps the skipped strings
    // statistically invisible within the δ budget. Smaller τ would not.
    let floor = if enforce_clamp { alpha } else { f64::NEG_INFINITY };
    let tau = params.tau_override.unwrap_or(2.0 * alpha).max(floor);

    let counts = idx.clipped_counter(delta_clip);

    // Phase 0: distinct letters present in the corpus (zero-count letters
    // skipped — the Lemma 19 move).
    let mut marked: HashSet<HashValue> = HashSet::new();
    for g in depth_groups(idx, 1) {
        let c = counts.count_in_interval(g.interval, 1) as f64;
        if c + noise.sample(rng) >= tau {
            marked.insert(idx.substring_hash(g.witness_pos as usize, 1));
        }
    }
    if marked.len() > cap {
        return Err(PhaseOverflow { phase: 0, size: marked.len(), cap });
    }

    // Phases k = 1..=j: distinct 2^k-substrings with both halves marked.
    for k in 1..=j {
        let len = 1usize << k;
        if len > ell {
            break;
        }
        let half = len / 2;
        let mut next: HashSet<HashValue> = HashSet::new();
        for g in depth_groups(idx, len) {
            let p = g.witness_pos as usize;
            let left = idx.substring_hash(p, half);
            let right = idx.substring_hash(p + half, half);
            if marked.contains(&left) && marked.contains(&right) {
                let c = counts.count_in_interval(g.interval, len) as f64;
                if c + noise.sample(rng) >= tau {
                    next.insert(idx.substring_hash(p, len));
                }
            }
        }
        if next.len() > cap {
            return Err(PhaseOverflow { phase: k, size: next.len(), cap });
        }
        marked = next;
    }

    // Final phase: distinct q-grams with marked length-2^j prefix and
    // suffix; survivors are published with their noisy counts.
    let pow = 1usize << j;
    let mut trie: Trie<f64> = Trie::new(counts.count(b"") as f64);
    let mut published = 0usize;
    for g in depth_groups(idx, q) {
        let p = g.witness_pos as usize;
        let prefix = idx.substring_hash(p, pow);
        let suffix = idx.substring_hash(p + q - pow, pow);
        if marked.contains(&prefix) && marked.contains(&suffix) {
            let c = counts.count_in_interval(g.interval, q) as f64;
            let noisy = c + noise.sample(rng);
            if noisy >= tau {
                let gram = idx.decode_substring(p, q);
                let node = trie.insert_path(&gram, |_| f64::NAN);
                *trie.value_mut(node) = noisy;
                published += 1;
                if published > cap {
                    return Err(PhaseOverflow { phase: j + 1, size: published, cap });
                }
            }
        }
    }
    fixup_interior(&mut trie);

    Ok(PrivateCountStructure::new(trie, params.mode, params.privacy, alpha, tau + alpha, n, ell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::alphabet::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noiseless(q: usize, mode: CountMode) -> (Database, PrivateCountStructure) {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(81);
        let params = FastQgramParams {
            q,
            mode,
            privacy: PrivacyParams::approx(1e9, 1e-9),
            beta: 0.1,
            tau_override: Some(0.9),
        };
        // Clamp disabled: this checks phase mechanics, not the privacy
        // calibration (which the clamp test below and the attack suite cover).
        (db, build_qgram_fast_impl(&idx, &params, false, &mut rng).unwrap())
    }

    #[test]
    fn counts_match_exact_noiselessly() {
        for q in [1usize, 2, 3, 4, 5] {
            let (db, s) = noiseless(q, CountMode::Substring);
            let idx = CorpusIndex::build(&db);
            for doc in db.documents() {
                if doc.len() < q {
                    continue;
                }
                for w in doc.windows(q) {
                    let exact = idx.count(w) as f64;
                    assert!(
                        (s.query(w) - exact).abs() < 0.05,
                        "q={q} gram {:?}: got {} want {}",
                        std::str::from_utf8(w).unwrap(),
                        s.query(w),
                        exact
                    );
                }
            }
        }
    }

    #[test]
    fn absent_qgrams_are_zero() {
        let (_, s) = noiseless(3, CountMode::Substring);
        assert_eq!(s.query(b"zzz"), 0.0);
        assert_eq!(s.query(b"aez"), 0.0);
    }

    #[test]
    fn document_mode_counts() {
        let (db, s) = noiseless(2, CountMode::Document);
        let idx = CorpusIndex::build(&db);
        assert!((s.query(b"ab") - idx.document_count(b"ab") as f64).abs() < 0.05);
        assert!((s.query(b"ee") - idx.document_count(b"ee") as f64).abs() < 0.05);
    }

    #[test]
    fn threshold_prunes_rare_grams() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(82);
        let params = FastQgramParams {
            q: 2,
            mode: CountMode::Substring,
            privacy: PrivacyParams::approx(1e9, 1e-9),
            beta: 0.1,
            tau_override: Some(3.0),
        };
        let s = build_qgram_fast_impl(&idx, &params, false, &mut rng).unwrap();
        // count(ab) = 4 ≥ 3 kept; count(ba) = 2 < 3 pruned.
        assert!(s.query(b"ab") > 3.0);
        assert_eq!(s.query(b"ba"), 0.0);
    }

    #[test]
    fn alpha_scales_with_sqrt_ell_delta() {
        // The Theorem 4 error is O(√(ℓΔ)·polylog): doubling Δ should grow α
        // by ≈ √2.
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(83);
        let mut mk = |delta_clip: usize| {
            let params = FastQgramParams {
                q: 2,
                mode: CountMode::Clipped(delta_clip),
                privacy: PrivacyParams::approx(1.0, 1e-6),
                beta: 0.1,
                tau_override: Some(0.9),
            };
            build_qgram_fast_impl(&idx, &params, false, &mut rng).unwrap().alpha_counts()
        };
        let a1 = mk(1);
        let a4 = mk(4);
        let ratio = a4 / a1;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio} should be ≈ √4 = 2");
    }

    #[test]
    fn public_api_clamps_unsafe_thresholds() {
        // τ far below the analytic α must be raised to α: on the toy
        // database nothing can clear the clamp, so the structure is empty —
        // the honest worst-case outcome, and the behavior the privacy
        // attack suite depends on.
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(84);
        let params = FastQgramParams {
            q: 2,
            mode: CountMode::Substring,
            privacy: PrivacyParams::approx(1.0, 1e-6),
            beta: 0.1,
            tau_override: Some(0.1),
        };
        let s = build_qgram_fast(&idx, &params, &mut rng).unwrap();
        assert_eq!(s.mine_qgrams(2, f64::NEG_INFINITY).len(), 0);
    }
}
