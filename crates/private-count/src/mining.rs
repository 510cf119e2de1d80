//! Mining-utility evaluation against the Definition 2 contract.
//!
//! `α`-Approximate Substring Mining requires: (1) every string with
//! `count_Δ ≥ τ + α` is reported; (2) no string with `count_Δ ≤ τ − α` is.
//! [`evaluate_mining`] audits a mined set against the exact corpus counts
//! and reports the violations of both clauses plus precision/recall at the
//! raw threshold `τ` — the utility statistics experiment `MINE-util`
//! tabulates.

use std::collections::HashSet;

use dpsc_textindex::{depth_groups, ClippedCounter, CorpusIndex};

/// Result of auditing a mined set.
#[derive(Debug, Clone)]
pub struct MiningEvaluation {
    /// Strings with `count_Δ ≥ τ + α` that the miner missed
    /// (clause (1) violations). Empty ⇒ the Definition 2 recall clause
    /// holds.
    pub missed: Vec<Vec<u8>>,
    /// Reported strings with `count_Δ ≤ τ − α` (clause (2) violations).
    pub spurious: Vec<Vec<u8>>,
    /// |reported ∩ {count ≥ τ}| / |reported| (1.0 if nothing reported).
    pub precision: f64,
    /// |reported ∩ {count ≥ τ}| / |{count ≥ τ}| (1.0 if nothing qualifies).
    pub recall: f64,
    /// Number of strings with true `count_Δ ≥ τ`.
    pub true_frequent: usize,
}

impl MiningEvaluation {
    /// Whether the Definition 2 contract holds for this mining output.
    pub fn contract_holds(&self) -> bool {
        self.missed.is_empty() && self.spurious.is_empty()
    }
}

/// Enumerates every distinct substring of the corpus (optionally of one
/// fixed length) with `count_Δ ≥ threshold`, by scanning depth groups at
/// each length.
pub fn frequent_substrings(
    idx: &CorpusIndex,
    delta_clip: usize,
    threshold: f64,
    fixed_len: Option<usize>,
) -> Vec<Vec<u8>> {
    frequent_with(&idx.clipped_counter(delta_clip), threshold, fixed_len)
}

/// [`frequent_substrings`] counting with `counts`.
fn frequent_with(
    counts: &ClippedCounter<'_>,
    threshold: f64,
    fixed_len: Option<usize>,
) -> Vec<Vec<u8>> {
    let idx = counts.index();
    let mut out = Vec::new();
    let lens: Vec<usize> = match fixed_len {
        Some(q) => vec![q],
        None => (1..=idx.max_len()).collect(),
    };
    for d in lens {
        for g in depth_groups(idx, d) {
            let c = counts.count_in_interval(g.interval, d) as f64;
            if c >= threshold {
                out.push(idx.decode_substring(g.witness_pos as usize, d));
            }
        }
    }
    out
}

/// Audits `reported` (the miner's output strings) against Definition 2 with
/// parameters `(τ, α)`, restricted to length `fixed_len` if given.
pub fn evaluate_mining(
    idx: &CorpusIndex,
    delta_clip: usize,
    reported: &[Vec<u8>],
    tau: f64,
    alpha: f64,
    fixed_len: Option<usize>,
) -> MiningEvaluation {
    let counts = idx.clipped_counter(delta_clip);
    let reported_set: HashSet<&[u8]> = reported.iter().map(|s| s.as_slice()).collect();
    // Clause (1): strings with count ≥ τ + α must all be reported.
    let must_report = frequent_with(&counts, tau + alpha, fixed_len);
    let missed: Vec<Vec<u8>> =
        must_report.into_iter().filter(|s| !reported_set.contains(s.as_slice())).collect();
    // Clause (2): reported strings must have count > τ − α.
    let spurious: Vec<Vec<u8>> =
        reported.iter().filter(|s| (counts.count(s) as f64) <= tau - alpha).cloned().collect();
    // Precision/recall at the raw threshold τ.
    let qualifying: HashSet<Vec<u8>> = frequent_with(&counts, tau, fixed_len).into_iter().collect();
    let hit = reported.iter().filter(|s| qualifying.contains(*s)).count();
    let precision = if reported.is_empty() { 1.0 } else { hit as f64 / reported.len() as f64 };
    let recall = if qualifying.is_empty() { 1.0 } else { hit as f64 / qualifying.len() as f64 };
    MiningEvaluation { missed, spurious, precision, recall, true_frequent: qualifying.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_pure, BuildParams};
    use crate::structure::CountMode;
    use dpsc_dpcore::budget::PrivacyParams;
    use dpsc_strkit::alphabet::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn frequent_substrings_exact() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let freq = frequent_substrings(&idx, db.max_len(), 4.0, None);
        // count ≥ 4: "a"(8), "b"(6), "e"(5), "ab"(4), "be"(4).
        let mut strings: Vec<String> =
            freq.iter().map(|s| String::from_utf8(s.clone()).unwrap()).collect();
        strings.sort();
        assert_eq!(strings, vec!["a", "ab", "b", "be", "e"]);
    }

    #[test]
    fn fixed_length_restriction() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let freq = frequent_substrings(&idx, db.max_len(), 3.0, Some(2));
        let mut strings: Vec<String> =
            freq.iter().map(|s| String::from_utf8(s.clone()).unwrap()).collect();
        strings.sort();
        // 2-grams with count ≥ 3: ab(4), be(4), aa(3).
        assert_eq!(strings, vec!["aa", "ab", "be"]);
    }

    #[test]
    fn noiseless_mining_satisfies_contract() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(101);
        let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e9), 0.1)
            .with_thresholds(0.9, 0.5);
        let s = build_pure(&idx, &params, &mut rng).unwrap();
        // Off-integer thresholds: counts are integers; with near-zero noise
        // a count exactly equal to τ is a coin flip on the noise sign.
        for tau in [1.9f64, 2.9, 3.9] {
            let mined: Vec<Vec<u8>> = s.mine(tau).into_iter().map(|(g, _)| g).collect();
            let eval = evaluate_mining(&idx, db.max_len(), &mined, tau, 0.5, None);
            assert!(
                eval.contract_holds(),
                "τ={tau}: missed {:?}, spurious {:?}",
                eval.missed,
                eval.spurious
            );
            assert_eq!(eval.precision, 1.0);
            assert_eq!(eval.recall, 1.0);
        }
    }

    #[test]
    fn contract_detects_violations() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        // Report a rare string and omit a frequent one.
        let reported = vec![b"absab".to_vec()]; // count 1
        let eval = evaluate_mining(&idx, db.max_len(), &reported, 4.0, 1.0, None);
        assert!(!eval.contract_holds());
        assert!(eval.spurious.contains(&b"absab".to_vec()));
        assert!(eval.missed.iter().any(|s| s == b"a"));
        assert!(eval.precision < 1.0e-9);
    }
}
