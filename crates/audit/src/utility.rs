//! Layer 2: utility conformance against the theorem bounds.
//!
//! The pipelines publish an analytic sup-error bound `α` (derived from
//! [`dpsc_dpcore::noise::Noise::tail_bound`] via the Corollary 1/2 and
//! Lemma 11/18 union bounds) that holds with probability ≥ 1−β per release.
//! These audits run the *actual* Steps 3–6 release repeatedly and verify:
//!
//! * **unpruned**: the observed max |noisy − exact| over every probe node
//!   stays within `α` (allowing the β-rate of permitted excursions);
//! * **pruned**: surviving nodes are within `α`, and every pruned string's
//!   *true* count is below `prune_threshold + α` (the absent-string
//!   guarantee the paper's Theorem 1/2 statements rest on);
//! * **recall**: on the DNA workload's exactly-planted motifs, every motif
//!   whose true document count clears `τ + α_obs` margin is recovered by
//!   [`PrivateCountStructure::mine`] — ground truth the generator controls.

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_private_count::pipeline::{build_count_trie, run_pipeline_on_trie, PipelineParams};
use dpsc_private_count::structure::CountMode;
use dpsc_private_count::{build_approx, build_pure, BuildParams, PrivateCountStructure};
use dpsc_textindex::CorpusIndex;
use dpsc_workloads::DnaCorpus;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of a utility conformance audit of one pipeline configuration.
#[derive(Debug, Clone)]
pub struct UtilityCheck {
    /// Observed max |noisy − exact| across probes, worst trial.
    pub observed_max: f64,
    /// Mean over trials of the per-trial max error.
    pub mean_max: f64,
    /// Mean over trials of the per-trial *average* absolute error.
    pub mean_avg: f64,
    /// The analytic bound `α` (holds per trial w.p. ≥ 1−β).
    pub alpha_bound: f64,
    /// Number of trials run.
    pub trials: usize,
    /// Trials whose max error exceeded `α`.
    pub violations: usize,
    /// Binomially-allowed number of exceeding trials at failure rate β.
    pub allowed_violations: usize,
    /// For pruned runs: worst true count among pruned strings (else 0).
    pub worst_pruned_true: f64,
    /// For pruned runs: the bound on pruned strings (`threshold + α`).
    pub pruned_bound: f64,
    /// Probe nodes measured per trial.
    pub probes: usize,
    /// Overall verdict.
    pub pass: bool,
}

/// Normal quantile for the binomial violation allowance (≈ 1e-4 one-sided).
const Z: f64 = 3.89;

/// How many of `trials` independent releases may exceed the 1−β bound
/// before the audit flags a conformance failure.
pub fn allowed_violations(trials: usize, beta: f64) -> usize {
    let t = trials as f64;
    (t * beta + Z * (t * beta * (1.0 - beta)).sqrt()).ceil() as usize
}

/// Audits Steps 3–6 utility on a fixed probe set. `prune = false` keeps
/// every node (measuring raw release error); `prune = true` uses the
/// analytic `2α` threshold and additionally audits the pruned-string
/// guarantee.
#[allow(clippy::too_many_arguments)] // the audit axes are the scenario axes
pub fn audit_pipeline_utility(
    idx: &CorpusIndex,
    probes: &[Vec<u8>],
    delta_clip: usize,
    privacy: PrivacyParams,
    gaussian: bool,
    beta: f64,
    prune: bool,
    trials: usize,
    seed: u64,
) -> UtilityCheck {
    assert!(trials >= 1);
    let delta_clip = delta_clip.clamp(1, idx.max_len());
    let counts_trie = build_count_trie(idx, probes, delta_clip);
    let half = privacy.split_even(2);
    let params = PipelineParams {
        delta_clip,
        privacy_roots: half,
        privacy_diffs: half,
        beta,
        gaussian,
        prune_override: if prune { None } else { Some(f64::NEG_INFINITY) },
    };
    let ell = idx.max_len();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut observed_max = 0.0f64;
    let mut maxes = Vec::with_capacity(trials);
    let mut avgs = Vec::with_capacity(trials);
    let mut violations = 0usize;
    let mut worst_pruned_true = 0.0f64;
    let mut pruned_bound = 0.0f64;
    let mut alpha_bound = 0.0f64;
    for _ in 0..trials {
        let out = run_pipeline_on_trie(&counts_trie, ell, &params, &mut rng);
        alpha_bound = out.alpha;
        let (mut worst, mut sum, mut kept) = (0.0f64, 0.0f64, 0usize);
        for (node, released) in counts_trie.matches(&out.trie).into_iter().enumerate() {
            let exact = counts_trie.value(node as u32) as f64;
            match released {
                Some(n2) => {
                    let err = (out.trie.value(n2) - exact).abs();
                    worst = worst.max(err);
                    sum += err;
                    kept += 1;
                }
                None => {
                    // Pruned: the absent-string guarantee bounds the truth.
                    worst_pruned_true = worst_pruned_true.max(exact);
                }
            }
        }
        pruned_bound = pruned_bound.max(out.prune_threshold + out.alpha);
        observed_max = observed_max.max(worst);
        maxes.push(worst);
        avgs.push(if kept > 0 { sum / kept as f64 } else { 0.0 });
        if worst > out.alpha {
            violations += 1;
        }
    }

    let allowed = allowed_violations(trials, beta);
    let mean_max = maxes.iter().sum::<f64>() / trials as f64;
    let mean_avg = avgs.iter().sum::<f64>() / trials as f64;
    // Per-trial max-error excursions beyond α may happen at rate ≤ β; the
    // *average* error must sit strictly inside the sup bound in every run.
    let pass = violations <= allowed
        && mean_avg <= alpha_bound
        && (!prune || worst_pruned_true <= pruned_bound);
    UtilityCheck {
        observed_max,
        mean_max,
        mean_avg,
        alpha_bound,
        trials,
        violations,
        allowed_violations: allowed,
        worst_pruned_true,
        pruned_bound,
        probes: counts_trie.len(),
        pass,
    }
}

/// Result of the planted-motif recall audit.
#[derive(Debug, Clone)]
pub struct RecallCheck {
    /// Mechanism label.
    pub label: String,
    /// Mining threshold τ used.
    pub tau: f64,
    /// The structure's published count-error bound `α`.
    pub alpha: f64,
    /// Motifs whose exact document count clears `τ + α_margin` (the ones
    /// recall is owed on).
    pub qualifying: usize,
    /// Of those, how many the miner recovered.
    pub recovered: usize,
    /// Total planted motifs.
    pub planted: usize,
    /// FAIL branch taken (legitimate but counts as no recall obligation).
    pub construction_failed: bool,
    /// `recovered == qualifying` (and construction succeeded).
    pub pass: bool,
}

/// Audits end-to-end mining recall on a DNA corpus with exactly-planted
/// motifs: build a Document-count structure, mine at `tau`, and require
/// every motif whose *true* document count is ≥ `tau + margin` to be
/// reported. `margin` should be the expected noise magnitude at the chosen
/// ε (the scenario matrix passes a multiple of the pipeline noise scale);
/// the check is meaningful only when at least one motif qualifies, which
/// the caller's corpus sizing guarantees.
pub fn audit_motif_recall(
    corpus: &DnaCorpus,
    privacy: PrivacyParams,
    gaussian: bool,
    tau: f64,
    margin: f64,
    seed: u64,
) -> RecallCheck {
    let idx = CorpusIndex::build(&corpus.db);
    let mut rng = StdRng::seed_from_u64(seed);
    let label = if gaussian { "gaussian" } else { "laplace" };
    let params = BuildParams::new(CountMode::Document, privacy, 0.1).with_thresholds(tau, tau);
    let built: Result<PrivateCountStructure, _> = if gaussian {
        build_approx(&idx, &params, &mut rng)
    } else {
        build_pure(&idx, &params, &mut rng)
    };
    let s = match built {
        Ok(s) => s,
        Err(_) => {
            return RecallCheck {
                label: label.to_string(),
                tau,
                alpha: f64::NAN,
                qualifying: 0,
                recovered: 0,
                planted: corpus.motifs.len(),
                construction_failed: true,
                pass: false,
            }
        }
    };
    let mined: Vec<Vec<u8>> = s.mine(tau).into_iter().map(|(g, _)| g).collect();
    let mut qualifying = 0usize;
    let mut recovered = 0usize;
    for (motif, _) in &corpus.motifs {
        let exact = idx.document_count(motif) as f64;
        if exact >= tau + margin {
            qualifying += 1;
            if mined.iter().any(|m| m == motif) {
                recovered += 1;
            }
        }
    }
    RecallCheck {
        label: label.to_string(),
        tau,
        alpha: s.alpha_counts(),
        qualifying,
        recovered,
        planted: corpus.motifs.len(),
        construction_failed: false,
        pass: recovered == qualifying,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_private_count::frequent_substrings;
    use dpsc_workloads::markov_corpus;

    #[test]
    fn near_zero_noise_conforms_trivially() {
        let mut rng = StdRng::seed_from_u64(31);
        let db = markov_corpus(24, 16, 4, 0.7, &mut rng);
        let idx = CorpusIndex::build(&db);
        let probes = frequent_substrings(&idx, 16, 2.0, None);
        let check = audit_pipeline_utility(
            &idx,
            &probes,
            16,
            PrivacyParams::pure(1e9),
            false,
            0.1,
            false,
            3,
            32,
        );
        assert!(check.pass);
        assert!(check.observed_max < 1e-3, "near-zero noise ⇒ near-zero error");
        assert!(check.probes > 10);
    }

    #[test]
    fn real_noise_stays_within_alpha() {
        let mut rng = StdRng::seed_from_u64(33);
        let db = markov_corpus(32, 24, 4, 0.7, &mut rng);
        let idx = CorpusIndex::build(&db);
        let probes = frequent_substrings(&idx, 24, 3.0, None);
        for gaussian in [false, true] {
            let privacy =
                if gaussian { PrivacyParams::approx(2.0, 1e-6) } else { PrivacyParams::pure(2.0) };
            let check =
                audit_pipeline_utility(&idx, &probes, 24, privacy, gaussian, 0.1, false, 6, 34);
            assert!(
                check.pass,
                "gaussian={gaussian}: {} violations of α={} (worst {})",
                check.violations, check.alpha_bound, check.observed_max
            );
            assert!(check.mean_avg < check.alpha_bound);
        }
    }

    #[test]
    fn pruned_runs_respect_absent_guarantee() {
        let mut rng = StdRng::seed_from_u64(35);
        let db = markov_corpus(32, 24, 4, 0.7, &mut rng);
        let idx = CorpusIndex::build(&db);
        let probes = frequent_substrings(&idx, 24, 3.0, None);
        let check = audit_pipeline_utility(
            &idx,
            &probes,
            24,
            PrivacyParams::pure(2.0),
            false,
            0.1,
            true,
            4,
            36,
        );
        assert!(
            check.pass,
            "pruned worst true {} vs bound {}",
            check.worst_pruned_true, check.pruned_bound
        );
        // At ε=2 on a tiny corpus the analytic 2α threshold prunes hard.
        assert!(check.pruned_bound > 0.0);
    }

    #[test]
    fn broken_alpha_is_flagged() {
        // Sanity for the audit itself: against an artificially shrunken α
        // the same release statistics must register violations. We emulate
        // by checking that observed error at honest ε exceeds α/1000.
        let mut rng = StdRng::seed_from_u64(37);
        let db = markov_corpus(32, 24, 4, 0.7, &mut rng);
        let idx = CorpusIndex::build(&db);
        let probes = frequent_substrings(&idx, 24, 3.0, None);
        let check = audit_pipeline_utility(
            &idx,
            &probes,
            24,
            PrivacyParams::pure(2.0),
            false,
            0.1,
            false,
            4,
            38,
        );
        assert!(
            check.observed_max > check.alpha_bound / 1000.0,
            "real noise must produce measurable error ({} vs α {})",
            check.observed_max,
            check.alpha_bound
        );
    }
}
