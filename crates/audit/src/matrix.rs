//! Layer 3: the scenario matrix runner.
//!
//! Sweeps {workload × ε × mechanism × pruning} through the utility audits,
//! plus the distribution and adversarial-pair privacy audits per
//! (mechanism, ε), and flattens everything into a [`ConformanceReport`].
//! Two tiers share the code: `fast` (seed-deterministic, < 30 s, runs in
//! tier-1 CI and `tests/audit_matrix.rs`) and `full` (larger corpora and
//! trial counts, gated behind `DPSC_AUDIT_FULL=1` in a non-blocking CI
//! step).

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::noise::Noise;
use dpsc_lowerbounds::theorem6_instance;
use dpsc_private_count::structure::CountMode;
use dpsc_private_count::{build_approx, build_pure, frequent_substrings, BuildParams};
use dpsc_strkit::alphabet::Database;
use dpsc_textindex::CorpusIndex;
use dpsc_workloads::{dna_corpus, markov_corpus, random_corpus, transit_corpus};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dist::audit_noise_distribution;
use crate::privacy::{distinguish, ReleaseOutcome};
use crate::report::{CheckResult, ConformanceReport, ScenarioResult};
use crate::utility::{audit_motif_recall, audit_pipeline_utility};

/// Audit tier: how much statistical power to buy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Small corpora, few trials; runs inside the tier-1 test wall-clock.
    Fast,
    /// Larger corpora and trial counts for tighter estimates; CI runs it in
    /// a separate non-blocking step (`DPSC_AUDIT_FULL=1`).
    Full,
}

impl Tier {
    /// Tier name as it appears in the report.
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Full => "full",
        }
    }
}

/// Configuration of one matrix run.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Statistical power tier.
    pub tier: Tier,
    /// Base seed; every audit derives its streams from it, so two runs with
    /// the same config produce byte-identical reports.
    pub seed: u64,
    /// The ε values swept (≥ 2 per the conformance contract).
    pub epsilons: Vec<f64>,
}

impl AuditConfig {
    /// The fast tier with the default sweep.
    pub fn fast() -> Self {
        Self { tier: Tier::Fast, seed: 0xD5C_A0D1, epsilons: vec![1.0, 4.0] }
    }

    /// The full tier with a wider ε sweep.
    pub fn full() -> Self {
        Self { tier: Tier::Full, seed: 0xD5C_A0D1, epsilons: vec![0.5, 1.0, 2.0, 4.0] }
    }

    /// Reads `DPSC_AUDIT_FULL` from the environment: `1` selects the full
    /// tier, anything else the fast tier.
    pub fn from_env() -> Self {
        match std::env::var("DPSC_AUDIT_FULL") {
            Ok(v) if v == "1" => Self::full(),
            _ => Self::fast(),
        }
    }
}

/// The four audited workload generators.
pub const WORKLOADS: [&str; 4] = ["random", "markov", "dna", "transit"];

/// Per-tier knobs.
struct Knobs {
    n: usize,
    ell: usize,
    utility_trials: usize,
    privacy_trials: usize,
    gof_samples: usize,
    recall_n: usize,
    recall_ell: usize,
}

fn knobs(tier: Tier) -> Knobs {
    match tier {
        Tier::Fast => Knobs {
            n: 48,
            ell: 24,
            utility_trials: 8,
            privacy_trials: 400,
            gof_samples: 50_000,
            recall_n: 1200,
            recall_ell: 32,
        },
        Tier::Full => Knobs {
            n: 160,
            ell: 48,
            utility_trials: 24,
            privacy_trials: 1200,
            gof_samples: 200_000,
            recall_n: 4000,
            recall_ell: 48,
        },
    }
}

/// Turns (base seed, scenario counter) into an independent-looking stream
/// seed, deterministically — the workspace-wide SplitMix64 derivation.
fn derive_seed(base: u64, counter: u64) -> u64 {
    dpsc_dpcore::stream::derive_stream(base, counter)
}

/// Builds the corpus for one workload at the tier's size, plus the clip
/// level its application uses (substring counts for text-like workloads,
/// document counts for the genome/transit applications).
fn corpus_for(name: &str, k: &Knobs, seed: u64) -> (Database, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        "random" => (random_corpus(k.n, k.ell, 4, &mut rng), k.ell),
        "markov" => (markov_corpus(k.n, k.ell, 4, 0.7, &mut rng), k.ell),
        "dna" => (dna_corpus(k.n, k.ell, 8, &[0.8, 0.4], &mut rng).db, 1),
        "transit" => (transit_corpus(k.n, k.ell, 12, 2, 5, 0.5, &mut rng).db, 1),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Privacy params for one (mechanism, ε) point. Gaussian runs at δ = 1e-6.
fn privacy_for(gaussian: bool, epsilon: f64) -> PrivacyParams {
    if gaussian {
        PrivacyParams::approx(epsilon, 1e-6)
    } else {
        PrivacyParams::pure(epsilon)
    }
}

fn mech_name(gaussian: bool) -> &'static str {
    if gaussian {
        "gaussian"
    } else {
        "laplace"
    }
}

/// Runs the whole matrix and returns the conformance report. Deterministic
/// for a given config (all randomness flows from `cfg.seed`).
pub fn run_matrix(cfg: &AuditConfig) -> ConformanceReport {
    let k = knobs(cfg.tier);
    let mut scenarios = Vec::new();
    let mut counter = 0u64;
    let next_seed = |counter: &mut u64| {
        *counter += 1;
        derive_seed(cfg.seed, *counter)
    };

    // ── Layer 1a: sampler goodness-of-fit per (mechanism, ε). ──────────
    // The scales are the ones the pipelines request: Δ/ε for Laplace and
    // the (ε, δ) Gaussian calibration at unit sensitivity (KS is
    // scale-covariant, so unit sensitivity covers all of them).
    for &eps in &cfg.epsilons {
        for gaussian in [false, true] {
            let noise = if gaussian {
                Noise::gaussian_for(eps, 1e-6, 1.0)
            } else {
                Noise::laplace_for(eps, 1.0)
            };
            let g = audit_noise_distribution(noise, k.gof_samples, next_seed(&mut counter));
            scenarios.push(ScenarioResult {
                workload: "noise".to_string(),
                mechanism: mech_name(gaussian).to_string(),
                epsilon: eps,
                pruning: "-".to_string(),
                checks: vec![
                    CheckResult::new(
                        "ks_distance",
                        g.ks,
                        g.ks_crit,
                        g.ks <= g.ks_crit,
                        format!("{} vs closed-form CDF, n={}", g.mechanism, g.n),
                    ),
                    CheckResult::new(
                        "mean_abs",
                        g.mean.abs(),
                        g.mean_tol,
                        g.mean.abs() <= g.mean_tol,
                        "centered distribution".to_string(),
                    ),
                    CheckResult::new(
                        "var_ratio_dev",
                        (g.var_ratio - 1.0).abs(),
                        g.var_tol,
                        (g.var_ratio - 1.0).abs() <= g.var_tol,
                        format!("observed/expected variance = {:.4}", g.var_ratio),
                    ),
                    CheckResult::new(
                        "tail_rate",
                        g.tail_rate,
                        g.tail_allowed,
                        g.tail_rate <= g.tail_allowed,
                        format!("Pr[|Y| > tail_bound(β)] at β = {}", g.tail_beta),
                    ),
                ],
            });
        }
    }

    // ── Layer 1b: end-to-end distinguishers per (mechanism, ε). ────────
    // Pair 1: the Theorem 6 worst case (a^ℓ vs b^ℓ). Pair 2: a Markov
    // corpus with one document replaced by the all-'a' outlier. Both
    // release the full construction's answer for the pattern "a"; the FAIL
    // branch is part of the output space.
    let inst = theorem6_instance(8, 12);
    let markov_db = {
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 0xA11CE));
        markov_corpus(8, 12, 4, 0.7, &mut rng)
    };
    let markov_nb =
        markov_db.neighbor_replacing(0, vec![b'a'; 12]).expect("valid neighbor document");
    let pairs: [(&str, &Database, &Database, &[u8]); 2] = [
        ("adversarial-t6", &inst.db, &inst.neighbor, &inst.pattern),
        ("adversarial-markov", &markov_db, &markov_nb, b"a"),
    ];
    for (label, db, nb, pattern) in pairs {
        let idx_db = CorpusIndex::build(db);
        let idx_nb = CorpusIndex::build(nb);
        for &eps in &cfg.epsilons {
            for gaussian in [false, true] {
                let privacy = privacy_for(gaussian, eps);
                let mode = if gaussian { CountMode::Document } else { CountMode::Substring };
                let params =
                    BuildParams::new(mode, privacy, 0.2).with_thresholds(4.0, f64::NEG_INFINITY);
                let mut rng_db = StdRng::seed_from_u64(next_seed(&mut counter));
                let mut rng_nb = StdRng::seed_from_u64(next_seed(&mut counter));
                let release = |idx: &CorpusIndex, rng: &mut StdRng| {
                    let built = if gaussian {
                        build_approx(idx, &params, rng)
                    } else {
                        build_pure(idx, &params, rng)
                    };
                    match built {
                        Ok(s) => ReleaseOutcome::ok(s.query(pattern)),
                        Err(_) => ReleaseOutcome::fail(),
                    }
                };
                let check = distinguish(
                    label,
                    eps,
                    k.privacy_trials,
                    || release(&idx_db, &mut rng_db),
                    || release(&idx_nb, &mut rng_nb),
                );
                scenarios.push(ScenarioResult {
                    workload: label.to_string(),
                    mechanism: mech_name(gaussian).to_string(),
                    epsilon: eps,
                    pruning: "-".to_string(),
                    checks: vec![CheckResult::new(
                        "privacy_loss_lcb",
                        check.epsilon_lcb,
                        check.epsilon_claimed,
                        check.pass,
                        format!(
                            "ε̂ = {:.3} over {} events, {} trials/side, worst event {}",
                            check.epsilon_hat, check.events, check.trials, check.worst_event
                        ),
                    )],
                });
            }
        }
    }

    // ── Layer 2: utility conformance, the full 4-axis matrix. ──────────
    for (wi, wl) in WORKLOADS.into_iter().enumerate() {
        let (db, delta_clip) = corpus_for(wl, &k, derive_seed(cfg.seed, 0xC0_0501 + wi as u64));
        let idx = CorpusIndex::build(&db);
        let probes = frequent_substrings(&idx, delta_clip, 2.0, None);
        for &eps in &cfg.epsilons {
            for gaussian in [false, true] {
                for prune in [false, true] {
                    let u = audit_pipeline_utility(
                        &idx,
                        &probes,
                        delta_clip,
                        privacy_for(gaussian, eps),
                        gaussian,
                        0.1,
                        prune,
                        k.utility_trials,
                        next_seed(&mut counter),
                    );
                    let mut checks = vec![
                        CheckResult::new(
                            "utility_max_error_violations",
                            u.violations as f64,
                            u.allowed_violations as f64,
                            u.violations <= u.allowed_violations,
                            format!(
                                "max|noisy−exact| ≤ α={:.1} per trial (worst {:.1}, mean {:.1}, {} probes, {} trials)",
                                u.alpha_bound, u.observed_max, u.mean_max, u.probes, u.trials
                            ),
                        ),
                        CheckResult::new(
                            "utility_avg_error",
                            u.mean_avg,
                            u.alpha_bound,
                            u.mean_avg <= u.alpha_bound,
                            "mean absolute error within the sup bound".to_string(),
                        ),
                    ];
                    if prune {
                        checks.push(CheckResult::new(
                            "pruned_true_count",
                            u.worst_pruned_true,
                            u.pruned_bound,
                            u.worst_pruned_true <= u.pruned_bound,
                            "absent-string guarantee: pruned strings have small true counts"
                                .to_string(),
                        ));
                    }
                    scenarios.push(ScenarioResult {
                        workload: wl.to_string(),
                        mechanism: mech_name(gaussian).to_string(),
                        epsilon: eps,
                        pruning: if prune { "analytic" } else { "off" }.to_string(),
                        checks,
                    });
                }
            }
        }
    }

    // ── Layer 2b: planted-motif recall on DNA ground truth. ────────────
    // Runs at utility-regime ε (the noise floor is Θ(ℓ·polylog/ε)
    // regardless of n, so honest small-ε releases on test-sized corpora
    // carry no signal — the privacy of those regimes is covered by layer
    // 1b). Motifs are planted *exactly* by the generator, so qualifying
    // counts are ground truth, not estimates.
    {
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 0xD_4A));
        let corpus = dna_corpus(k.recall_n, k.recall_ell, 12, &[0.9, 0.35], &mut rng);
        let tau = 0.45 * k.recall_n as f64;
        let margin = 0.2 * k.recall_n as f64;
        // Laplace needs a much larger ε than Gaussian for the same
        // document-count recall — that is Theorem 2's √(ℓΔ) separation
        // showing up empirically (at Δ = 1 the Gaussian prefix sums are
        // ~√ℓ· tighter), so the two points are deliberately asymmetric.
        for (gaussian, eps) in [(false, 200.0), (true, 8.0)] {
            let r = audit_motif_recall(
                &corpus,
                privacy_for(gaussian, eps),
                gaussian,
                tau,
                margin,
                next_seed(&mut counter),
            );
            scenarios.push(ScenarioResult {
                workload: "dna".to_string(),
                mechanism: mech_name(gaussian).to_string(),
                epsilon: eps,
                pruning: "mining".to_string(),
                checks: vec![
                    CheckResult::new(
                        "motif_recall",
                        r.recovered as f64,
                        r.qualifying as f64,
                        r.pass,
                        format!(
                            "planted motifs ≥ τ+margin recovered ({}/{} of {} planted, τ={}, utility-regime ε)",
                            r.recovered, r.qualifying, r.planted, r.tau
                        ),
                    ),
                    CheckResult::new(
                        "motif_recall_nonvacuous",
                        r.qualifying as f64,
                        1.0,
                        r.qualifying >= 1 && !r.construction_failed,
                        "at least one motif must clear the recall threshold".to_string(),
                    ),
                ],
            });
        }
    }

    // ── Layer 4: observability-surface privacy cleanliness. ────────────
    scenarios.push(audit_observability_surfaces());

    ConformanceReport { tier: cfg.tier.name().to_string(), seed: cfg.seed, scenarios }
}

/// Counts the occurrences of `needle` anywhere in `hay`.
fn count_occurrences(hay: &[u8], needle: &[u8]) -> usize {
    if needle.is_empty() || hay.len() < needle.len() {
        return 0;
    }
    hay.windows(needle.len()).filter(|w| *w == needle).count()
}

/// The observability layer's privacy contract, audited end to end: a live
/// daemon with tracing and the slow-op log enabled serves distinctive
/// canary patterns, and none of its observability surfaces — the wire-
/// encoded trace events, the slow-op entries inside them, or the text
/// exposition — may contain a single raw pattern byte. The surfaces carry
/// FNV fingerprints and lengths only, and the audit also proves each
/// canary is *findable* by fingerprint, so the leak checks are not
/// vacuously green on an empty trace.
fn audit_observability_surfaces() -> ScenarioResult {
    use std::sync::Arc;
    use std::time::Duration;

    use dpsc_private_count::codec::fnv1a;
    use dpsc_serve::wire::encode_response;
    use dpsc_serve::{Client, Response, Server, ServerConfig, ShardManager, TraceKind};

    // A deterministic small release to serve; the corpus content is
    // irrelevant — the canaries below are what must not leak.
    let mut rng = StdRng::seed_from_u64(0x0B5E_7EA1);
    let db = markov_corpus(24, 12, 4, 0.6, &mut rng);
    let idx = CorpusIndex::build(&db);
    let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e4), 0.1)
        .with_thresholds(1.5, 1.5);
    let frozen = build_pure(&idx, &params, &mut rng).expect("audit release builds").freeze();
    let epsilon = frozen.privacy().epsilon;

    const CANARIES: [&[u8]; 3] = [b"CANARY-ALPHA-0001", b"CANARY-BRAVO-0002", b"CANARY-CHARLIE-3"];

    let manager = Arc::new(ShardManager::new());
    manager.install(0, frozen, 0);
    let config = ServerConfig {
        slow_op_threshold: Some(Duration::from_nanos(1)),
        ..ServerConfig::default()
    };
    let handle = Server::spawn(config, manager).expect("audit daemon binds");
    let mut client = Client::connect(handle.addr()).expect("audit client connects");
    for canary in CANARIES {
        client.query(0, canary).expect("canary query answered");
    }
    let events = client.trace(1024).expect("trace drains");
    let text = client.metrics_text().expect("exposition answered");
    handle.shutdown();

    // Surface 1: the trace ring, exactly as it crosses the wire.
    let trace_bytes = encode_response(&Response::Trace { events: events.clone() });
    let trace_leaks: usize = CANARIES.iter().map(|c| count_occurrences(&trace_bytes, c)).sum();
    let frame_fps: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TraceKind::FrameAnswered)
        .map(|e| e.fingerprint)
        .collect();
    let frames_found = CANARIES.iter().filter(|c| frame_fps.contains(&fnv1a(c))).count();

    // Surface 2: the slow-op log (every op is slow at a 1 ns threshold).
    let slow_fps: Vec<u64> =
        events.iter().filter(|e| e.kind == TraceKind::SlowOp).map(|e| e.fingerprint).collect();
    let slow_found = CANARIES.iter().filter(|c| slow_fps.contains(&fnv1a(c))).count();

    // Surface 3: the Prometheus-style text exposition.
    let expo_leaks: usize = CANARIES.iter().map(|c| count_occurrences(text.as_bytes(), c)).sum();

    let n = CANARIES.len();
    ScenarioResult {
        workload: "serve-trace".to_string(),
        mechanism: "laplace".to_string(),
        epsilon,
        pruning: "-".to_string(),
        checks: vec![
            CheckResult::new(
                "trace_marker_fingerprints",
                frames_found as f64,
                n as f64,
                frames_found == n,
                "every canary query is findable in the trace by FNV fingerprint".to_string(),
            ),
            CheckResult::new(
                "trace_pattern_leak_bytes",
                trace_leaks as f64,
                0.0,
                trace_leaks == 0,
                format!(
                    "canary byte occurrences in {} wire-encoded trace bytes",
                    trace_bytes.len()
                ),
            ),
            CheckResult::new(
                "slow_op_marker_fingerprints",
                slow_found as f64,
                n as f64,
                slow_found == n,
                "slow-op entries identify patterns by fingerprint, never content".to_string(),
            ),
            CheckResult::new(
                "exposition_pattern_leak_bytes",
                expo_leaks as f64,
                0.0,
                expo_leaks == 0 && text.contains("dpsc_slow_ops_total"),
                "canary byte occurrences in the text exposition (and the exposition is live)"
                    .to_string(),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_spread_out() {
        let a = derive_seed(1, 1);
        let b = derive_seed(1, 2);
        let c = derive_seed(2, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_for_covers_all_workloads() {
        let k = knobs(Tier::Fast);
        for wl in WORKLOADS {
            let (db, delta) = corpus_for(wl, &k, 9);
            assert!(db.n() > 0, "{wl}");
            assert!(delta >= 1);
        }
    }

    #[test]
    fn config_from_env_defaults_to_fast() {
        // The test runner does not set DPSC_AUDIT_FULL; default is fast.
        if std::env::var("DPSC_AUDIT_FULL").is_err() {
            assert_eq!(AuditConfig::from_env().tier, Tier::Fast);
        }
    }
}
