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
//! rank bitvectors: a phase marks a group by setting the bits of its
//! suffix-array interval, and the half-string at text position `p` is
//! marked iff the bit at its rank ([`CorpusIndex::rank_of`]) is set — same
//! marks, exact (DESIGN.md §2). Construction is `O(nℓ(log q + log|Σ|))`-ish:
//! one LCP scan per phase.

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::noise::Noise;
use dpsc_strkit::search::SaInterval;
use dpsc_textindex::{depth_groups, CorpusIndex};
use rand::Rng;

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

/// The marked groups of one phase: one bit per suffix-array rank, set on
/// the interval of every marked group. Groups of one length have disjoint
/// intervals, so a rank's bit says whether the length-`d` substring of its
/// suffix is marked.
struct Marks {
    bits: Vec<u64>,
    /// Number of marked groups, for the cap check.
    groups: usize,
}

impl Marks {
    fn new(ranks: usize) -> Self {
        Self { bits: vec![0; ranks.div_ceil(64)], groups: 0 }
    }

    fn mark(&mut self, iv: SaInterval) {
        self.groups += 1;
        for r in iv.lo as usize..iv.hi as usize {
            self.bits[r / 64] |= 1 << (r % 64);
        }
    }

    #[inline]
    fn contains(&self, rank: u32) -> bool {
        self.bits[rank as usize / 64] >> (rank % 64) & 1 == 1
    }
}

/// Builds the Theorem 4 (ε,δ)-DP q-gram structure in
/// `O(nℓ(log q + log|Σ|))` time and `O(nℓ)` space.
///
/// # Panics
/// If `δ = 0`, `q` is outside `[1, ℓ]` or `tau_override` is not finite.
pub fn build_qgram_fast<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &FastQgramParams,
    rng: &mut R,
) -> Result<PrivateCountStructure, PhaseOverflow> {
    build_qgram_fast_impl(idx, params, true, rng)
}

/// The Gaussian noise of every phase and the sup error `α` of the noisy
/// counts.
fn phase_noise(idx: &CorpusIndex, params: &FastQgramParams) -> (Noise, f64) {
    let ell = idx.max_len();
    let delta_clip = params.mode.delta_clip(ell);
    let n = idx.n_docs();
    let sigma = idx.alphabet_size();
    // Paper's parameterization (Lemma 20): j = ⌊log q⌋, ε₁ = ε/(j+2),
    // β₁ = min(β/(j+2), δ/(3e^ε(j+2))), δ₁ ≤ β₁.
    let j = (params.q as f64).log2().floor() as usize;
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
    (noise, alpha)
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
    assert!(params.tau_override.is_none_or(f64::is_finite), "tau_override must be finite");
    let ell = idx.max_len();
    let q = params.q;
    assert!(q >= 1 && q <= ell, "q must be in [1, ℓ]");
    let delta_clip = params.mode.delta_clip(ell);
    let n = idx.n_docs();
    let cap = n * ell;
    let j = (q as f64).log2().floor() as usize;
    let (noise, alpha) = phase_noise(idx, params);
    // Privacy clamp (Lemma 19): with probability ≥ 1 − β₁ no zero-count
    // string's noise reaches α, so any τ ≥ α keeps the skipped strings
    // statistically invisible within the δ budget. Smaller τ would not.
    let floor = if enforce_clamp { alpha } else { f64::NEG_INFINITY };
    let tau = params.tau_override.unwrap_or(2.0 * alpha).max(floor);

    let counts = idx.clipped_counter(delta_clip);

    // Phase 0: distinct letters present in the corpus (zero-count letters
    // skipped — the Lemma 19 move).
    let ranks = idx.text_len();
    let mut marked = Marks::new(ranks);
    for g in depth_groups(idx, 1) {
        let c = counts.count_in_interval(g.interval, 1) as f64;
        if c + noise.sample(rng) >= tau {
            marked.mark(g.interval);
        }
    }
    if marked.groups > cap {
        return Err(PhaseOverflow { phase: 0, size: marked.groups, cap });
    }

    // Phases k = 1..=j: distinct 2^k-substrings with both halves marked.
    // A group's left half holds its whole interval, so its first rank
    // stands for it.
    for k in 1..=j {
        let len = 1usize << k;
        if len > ell {
            break;
        }
        let half = len / 2;
        let mut next = Marks::new(ranks);
        for g in depth_groups(idx, len) {
            let right = idx.rank_of(g.witness_pos as usize + half);
            if marked.contains(g.interval.lo) && marked.contains(right) {
                let c = counts.count_in_interval(g.interval, len) as f64;
                if c + noise.sample(rng) >= tau {
                    next.mark(g.interval);
                }
            }
        }
        if next.groups > cap {
            return Err(PhaseOverflow { phase: k, size: next.groups, cap });
        }
        marked = next;
    }

    // Final phase: distinct q-grams with marked length-2^j prefix and
    // suffix; survivors are published with their noisy counts.
    let pow = 1usize << j;
    let mut entries = vec![(Vec::new(), counts.count(b"") as f64)];
    for g in depth_groups(idx, q) {
        let p = g.witness_pos as usize;
        let suffix = idx.rank_of(p + q - pow);
        if marked.contains(g.interval.lo) && marked.contains(suffix) {
            let c = counts.count_in_interval(g.interval, q) as f64;
            let noisy = c + noise.sample(rng);
            if noisy >= tau {
                entries.push((idx.decode_substring(p, q), noisy));
                let published = entries.len() - 1;
                if published > cap {
                    return Err(PhaseOverflow { phase: j + 1, size: published, cap });
                }
            }
        }
    }
    // Depths below q take their children's maximum, as in Theorem 3.
    Ok(PrivateCountStructure::from_entries(
        entries,
        params.mode,
        params.privacy,
        alpha,
        tau + alpha,
        n,
        ell,
    )
    .expect("distinct grams with finite counts"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::tests::small_docs;
    use crate::qgram::{build_qgram_pure, QgramParams};
    use dpsc_strkit::alphabet::{Alphabet, Database};
    use dpsc_strkit::naive_count;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};

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

    /// `count_Δ` at clip level `delta` of every distinct `q`-gram of `docs`.
    fn naive_qgrams(docs: &[Vec<u8>], q: usize, delta: usize) -> BTreeMap<Vec<u8>, f64> {
        let mut grams = BTreeMap::new();
        for doc in docs {
            for w in doc.windows(q) {
                grams.insert(w.to_vec(), 0.0);
            }
        }
        for (gram, count) in grams.iter_mut() {
            *count = docs.iter().map(|d| naive_count(gram, d).min(delta) as f64).sum();
        }
        grams
    }

    /// Checks Theorems 3 and 4 against naive counts on `docs` (alphabet
    /// `a..=d`, so `d` never occurs), in Substring and Document modes:
    /// - noiseless Theorem 3 releases every `C_q` gram's count, and 0 for
    ///   the grams of `C_q` that do not occur;
    /// - noiseless Theorem 4 releases every occurring q-gram's count;
    /// - Theorem 4 at `τ = −∞` publishes exactly the distinct q-grams;
    /// - Theorem 4 with noise near the counts, where the marks decide,
    ///   releases what its phases release over naive tables with the same
    ///   noise stream (both draw in lexicographic order).
    fn check_qgrams_against_naive(docs: Vec<Vec<u8>>, q: usize, seed: u64) -> Result<(), String> {
        let db = Database::from_documents(Alphabet::lowercase(4), docs).unwrap();
        let idx = CorpusIndex::build(&db);
        let ell = db.max_len();
        let q = 1 + q % ell;
        // C_q from the exact P_{2^j}: the overlaps of the distinct 2^j-grams.
        let pow = 1usize << (q as f64).log2().floor() as usize;
        let top: BTreeSet<&[u8]> = db.documents().iter().flat_map(|d| d.windows(pow)).collect();
        let overlap = 2 * pow - q;
        let mut cq = Vec::new();
        for a in &top {
            for b in top.iter().filter(|b| a[pow - overlap..] == b[..overlap]) {
                cq.push([*a, &b[overlap..]].concat());
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for mode in [CountMode::Substring, CountMode::Document] {
            let grams = naive_qgrams(db.documents(), q, mode.delta_clip(ell));
            let pure = build_qgram_pure(
                &idx,
                &QgramParams {
                    q,
                    mode,
                    privacy: PrivacyParams::pure(1e9),
                    beta: 0.1,
                    tau_override: Some(0.9),
                    level_cap_override: None,
                },
                &mut rng,
            )
            .map_err(|e| e.to_string())?;
            for gram in &cq {
                let want = grams.get(gram).copied().unwrap_or(0.0);
                if (pure.query(gram) - want).abs() > 1e-3 {
                    return Err(format!("{mode} q={q} Theorem 3 {gram:?}: {}", pure.query(gram)));
                }
            }
            let params = |privacy, tau| FastQgramParams {
                q,
                mode,
                privacy,
                beta: 0.1,
                tau_override: Some(tau),
            };
            let fast = |params, rng: &mut StdRng| {
                build_qgram_fast_impl(&idx, &params, false, rng).map_err(|e| e.to_string())
            };
            let exact = fast(params(PrivacyParams::approx(1e9, 1e-9), 0.9), &mut rng)?;
            for (gram, &want) in &grams {
                if (exact.query(gram) - want).abs() > 0.05 {
                    return Err(format!("{mode} q={q} Theorem 4 {gram:?}: {}", exact.query(gram)));
                }
            }
            // The lowest finite τ keeps every gram; τ = −∞ would make
            // α_absent = −∞, which no snapshot may carry.
            let all = fast(params(PrivacyParams::approx(1.0, 1e-6), f64::MIN), &mut rng)?;
            let published: Vec<Vec<u8>> =
                all.mine_qgrams(q, f64::NEG_INFINITY).into_iter().map(|(g, _)| g).collect();
            if !published.iter().eq(grams.keys()) {
                return Err(format!("{mode} q={q} τ = f64::MIN published {published:?}"));
            }
            let marking = params(PrivacyParams::approx(5000.0, 1e-6), 2.0);
            let (noise, _) = phase_noise(&idx, &marking);
            let mut twin = rng.clone();
            let got: BTreeMap<Vec<u8>, f64> =
                fast(marking, &mut rng)?.mine_qgrams(q, f64::NEG_INFINITY).into_iter().collect();
            let (mut marked, mut prev, mut want) = (BTreeSet::new(), 0, BTreeMap::new());
            for d in (0..=pow.trailing_zeros()).map(|k| 1usize << k).chain([q]) {
                want = BTreeMap::new();
                for (gram, count) in naive_qgrams(db.documents(), d, mode.delta_clip(ell)) {
                    if prev == 0
                        || marked.contains(&gram[..prev]) && marked.contains(&gram[d - prev..])
                    {
                        let noisy = count + noise.sample(&mut twin);
                        if noisy >= 2.0 {
                            want.insert(gram, noisy);
                        }
                    }
                }
                marked = want.keys().cloned().collect();
                prev = d;
            }
            if got != want {
                return Err(format!("{mode} q={q} marked release {got:?} != {want:?}"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn qgram_releases_match_naive_counts_on_random_corpora(
            docs in small_docs(),
            q in 0usize..12,
            seed in 0u64..1 << 20,
        ) {
            let outcome = check_qgrams_against_naive(docs, q, seed);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
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

    #[test]
    #[should_panic(expected = "tau_override must be finite")]
    fn non_finite_tau_override_panics_at_entry() {
        let idx = CorpusIndex::build(&Database::paper_example());
        let params = FastQgramParams {
            q: 2,
            mode: CountMode::Substring,
            privacy: PrivacyParams::approx(1.0, 1e-6),
            beta: 0.1,
            tau_override: Some(f64::NEG_INFINITY),
        };
        let _ = build_qgram_fast(&idx, &params, &mut StdRng::seed_from_u64(1));
    }
}
