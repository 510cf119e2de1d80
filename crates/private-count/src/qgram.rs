//! Theorem 3: ε-differentially private q-gram counting.
//!
//! For a fixed pattern length `q` the general pipeline simplifies: run the
//! doubling construction only up to `2^{⌊log q⌋}` (half the budget), build
//! the single candidate set `C_q` by suffix/prefix overlap, then release a
//! Laplace-noised count for **every** string in `C_q` (other half) and keep
//! those above threshold. Error `O(ε⁻¹ ℓ log ℓ (log(nℓ/β) + log|Σ|))` —
//! one log factor better than Theorem 1 because no heavy-path machinery is
//! needed at a single depth.

use std::ops::ControlFlow;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::mechanism::laplace_sup_error;
use dpsc_dpcore::noise::Noise;
use dpsc_strkit::search::SaInterval;
use dpsc_textindex::CorpusIndex;
use rand::Rng;

use crate::candidates::{doubling_levels, for_each_overlap, Cand, CandidateOverflow};
use crate::structure::{CountMode, PrivateCountStructure};

/// Parameters for the Theorem 3 construction.
#[derive(Debug, Clone, Copy)]
pub struct QgramParams {
    /// The fixed pattern length `q ≤ ℓ`.
    pub q: usize,
    /// The clip level `Δ`.
    pub mode: CountMode,
    /// Total (pure) privacy budget.
    pub privacy: PrivacyParams,
    /// Total failure probability.
    pub beta: f64,
    /// Candidate/pruning threshold overrides (post-processing only).
    pub tau_override: Option<f64>,
    /// Per-level candidate cap (default `nℓ`).
    pub level_cap_override: Option<usize>,
}

/// Builds the Theorem 3 ε-DP q-gram structure.
///
/// # Panics
/// If the budget is not pure, `q` is outside `[1, ℓ]` or `tau_override` is not finite.
pub fn build_qgram_pure<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &QgramParams,
    rng: &mut R,
) -> Result<PrivateCountStructure, CandidateOverflow> {
    assert!(params.privacy.is_pure(), "Theorem 3 is pure DP");
    assert!(params.tau_override.is_none_or(f64::is_finite), "tau_override must be finite");
    let ell = idx.max_len();
    let q = params.q;
    assert!(q >= 1 && q <= ell, "q must be in [1, ℓ]");
    let delta_clip = params.mode.delta_clip(ell);
    let n = idx.n_docs();
    let cap = params.level_cap_override.unwrap_or(n * ell);
    let half = params.privacy.split_even(2);
    let beta_half = params.beta / 2.0;

    // Phase A (ε/2): doubling levels up to 2^{⌊log q⌋}.
    let j = (q as f64).log2().floor() as usize;
    let counts = idx.clipped_counter(delta_clip);
    let doubling =
        doubling_levels(&counts, half, beta_half, false, params.tau_override, cap, j, rng)?;
    let top: &[Cand] = doubling.levels.last().map(|v| v.as_slice()).unwrap_or(&[]);
    let pow = 1usize << j;

    // C_q: strings of length q whose length-2^j prefix and suffix are both
    // in P_{2^j} (post-processing, by Step 1's bucketed overlap join), each
    // with its interval: a gram extends the pair's first half by the bytes
    // the second half appends.
    let cq: Vec<(Vec<u8>, SaInterval)> = if q == pow {
        top.iter().map(|c| (c.bytes.clone(), c.iv)).collect()
    } else {
        let overlap = 2 * pow - q;
        let mut out = Vec::new();
        for_each_overlap(top, pow, overlap, |q1, q2| {
            let mut s = Vec::with_capacity(q);
            s.extend_from_slice(&q1.bytes);
            s.extend_from_slice(&q2.bytes[overlap..]);
            let iv = (pow..q).fold(q1.iv, |iv, d| idx.extend_interval(iv, d, s[d], iv.lo));
            out.push((s, iv));
            ControlFlow::Continue(())
        });
        out
    };

    // Phase B (ε/2): Laplace-noised counts for every member of C_q
    // (including absent members), threshold at 2α.
    let l1 = 2.0 * ell as f64; // Corollary 3
    let noise = Noise::laplace_for(half.epsilon, l1);
    let k_counts = ((ell * ell) as f64 * (n * n) as f64).max(idx.alphabet_size() as f64);
    let alpha = laplace_sup_error(half.epsilon, l1, k_counts.ceil() as usize, beta_half);
    let tau = params.tau_override.unwrap_or(2.0 * alpha);

    // Depths below q carry no released counts; from_entries gives them
    // their children's maximum (post-processing; queries at depth < q are
    // not part of the Theorem 3 contract but should not return NaN).
    let mut entries = vec![(Vec::new(), counts.count(b"") as f64)];
    for (gram, iv) in cq {
        let noisy = counts.count_in_interval(iv, q) as f64 + noise.sample(rng);
        if noisy >= tau {
            entries.push((gram, noisy));
        }
    }

    let alpha_absent = (doubling.tau + doubling.alpha).max(tau + alpha);
    Ok(PrivateCountStructure::from_entries(
        entries,
        params.mode,
        params.privacy,
        alpha.max(doubling.alpha),
        alpha_absent,
        n,
        ell,
    )
    .expect("distinct grams with finite counts"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::alphabet::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_noiseless(q: usize, mode: CountMode) -> (Database, PrivateCountStructure) {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(71);
        let params = QgramParams {
            q,
            mode,
            privacy: PrivacyParams::pure(1e9),
            beta: 0.1,
            tau_override: Some(0.9),
            level_cap_override: None,
        };
        let s = build_qgram_pure(&idx, &params, &mut rng).unwrap();
        (db, s)
    }

    #[test]
    fn qgram_counts_match_exact_noiselessly() {
        for q in [1usize, 2, 3, 4, 5] {
            let (db, s) = build_noiseless(q, CountMode::Substring);
            let idx = CorpusIndex::build(&db);
            // Every q-gram of the database with count ≥ 1 must be present
            // and ~exact.
            for doc in db.documents() {
                if doc.len() < q {
                    continue;
                }
                for w in doc.windows(q) {
                    let exact = idx.count(w) as f64;
                    assert!(
                        (s.query(w) - exact).abs() < 1e-3,
                        "q={q} gram {:?}: got {} want {}",
                        w,
                        s.query(w),
                        exact
                    );
                }
            }
            assert_eq!(s.query(&vec![b'z'; q]), 0.0);
        }
    }

    #[test]
    fn qgram_document_mode() {
        let (db, s) = build_noiseless(2, CountMode::Document);
        let idx = CorpusIndex::build(&db);
        assert!((s.query(b"ab") - idx.document_count(b"ab") as f64).abs() < 1e-3);
        assert!((s.query(b"ab") - 3.0).abs() < 1e-3);
    }

    #[test]
    fn mining_qgrams_from_structure() {
        let (_, s) = build_noiseless(2, CountMode::Substring);
        let mined = s.mine_qgrams(2, 2.0);
        // Paper example: count(ab)=4, count(be)=3, count(aa)=3, count(ee)=3,
        // count(ba)=2, count(es)=1, count(bs)=1, count(sa)=1.
        let strings: Vec<String> =
            mined.iter().map(|(g, _)| String::from_utf8(g.clone()).unwrap()).collect();
        assert!(strings.contains(&"ab".to_string()));
        assert!(strings.contains(&"aa".to_string()));
        assert!(!strings.contains(&"es".to_string()));
    }

    #[test]
    fn non_power_of_two_q_uses_overlap() {
        // q = 3 exercises the C_q overlap path.
        let (db, s) = build_noiseless(3, CountMode::Substring);
        let idx = CorpusIndex::build(&db);
        assert!((s.query(b"bab") - idx.count(b"bab") as f64).abs() < 1e-3);
        assert!((s.query(b"aaa") - 2.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "tau_override must be finite")]
    fn non_finite_tau_override_panics_at_entry() {
        let idx = CorpusIndex::build(&Database::paper_example());
        let params = QgramParams {
            q: 2,
            mode: CountMode::Substring,
            privacy: PrivacyParams::pure(1.0),
            beta: 0.1,
            tau_override: Some(f64::NEG_INFINITY),
            level_cap_override: None,
        };
        let _ = build_qgram_pure(&idx, &params, &mut StdRng::seed_from_u64(1));
    }
}
