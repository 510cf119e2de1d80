//! Thread-count independence of the parallel build path.
//!
//! The construction parallelizes Step 1's pair scans (fixed-size chunks,
//! per-chunk derived RNG streams) and Steps 3–5's heavy-path noise
//! (per-path derived streams). The invariant those derivations buy is that
//! `threads` is *purely* a scheduling knob: for a fixed seed the released
//! structure — candidates kept, noise added, nodes pruned — is bit-for-bit
//! identical at every thread count, for both mechanisms. This test pins
//! that invariant through the strictest equality available: the canonical
//! `FrozenSynopsis::to_bytes()` encoding (checksummed CSR layout), plus
//! seed reproducibility at a fixed thread count.
//!
//! Builds have a legitimate FAIL branch, so each attempt goes through
//! `with_retry_seeds`: a seed where any thread count FAILs is skipped
//! (FAIL must then be unanimous — also asserted), and at least one seed
//! must yield a successful comparison or the harness panics.

mod common;

use dp_substring_counting::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A corpus with planted structure so successful builds have nontrivial
/// tries (multi-level candidates, many heavy paths).
fn test_db() -> Database {
    let mut rng = StdRng::seed_from_u64(0x5EED_D0C5);
    dpsc_workloads::markov_corpus(96, 24, 4, 0.75, &mut rng)
}

fn build_bytes(idx: &CorpusIndex, gaussian: bool, threads: usize, seed: u64) -> Option<Vec<u8>> {
    let n = idx.n_docs() as f64;
    let (mode, privacy) = if gaussian {
        (CountMode::Document, PrivacyParams::approx(8.0, 1e-6))
    } else {
        (CountMode::Substring, PrivacyParams::pure(40.0))
    };
    let params = BuildParams::new(mode, privacy, 0.2)
        .with_thresholds(0.5 * n, f64::NEG_INFINITY)
        .with_threads(threads);
    let mut rng = StdRng::seed_from_u64(seed);
    let built = if gaussian {
        build_approx(idx, &params, &mut rng)
    } else {
        build_pure(idx, &params, &mut rng)
    };
    built.ok().map(|s| s.freeze().to_bytes())
}

fn assert_thread_count_invariant(gaussian: bool, base_seed: u64) {
    let db = test_db();
    let idx = CorpusIndex::build(&db);
    let label = if gaussian { "gaussian" } else { "laplace" };
    common::with_retry_seeds(base_seed, 12, |seed| {
        let outcomes: Vec<Option<Vec<u8>>> =
            [1usize, 4, 8].iter().map(|&t| build_bytes(&idx, gaussian, t, seed)).collect();
        // The FAIL decision itself must be thread-count independent.
        let successes = outcomes.iter().filter(|o| o.is_some()).count();
        assert!(
            successes == 0 || successes == outcomes.len(),
            "{label}: FAIL decision varied with thread count at seed {seed}"
        );
        if successes == 0 {
            return None; // legitimate FAIL branch — retry with the next seed
        }
        let reference = outcomes[0].as_ref().expect("successes == len");
        assert!(!reference.is_empty() && reference.len() > 64, "{label}: degenerate synopsis");
        for (i, other) in outcomes.iter().enumerate().skip(1) {
            assert_eq!(
                reference,
                other.as_ref().expect("successes == len"),
                "{label}: threads=1 vs threads={} bytes differ at seed {seed}",
                [1, 4, 8][i]
            );
        }
        // Same seed, same thread count ⇒ reproducible bytes.
        let again = build_bytes(&idx, gaussian, 8, seed).expect("deterministic FAIL decision");
        assert_eq!(reference, &again, "{label}: rebuild at seed {seed} not reproducible");
        Some(())
    });
}

#[test]
fn laplace_build_is_thread_count_invariant() {
    assert_thread_count_invariant(false, 0xB11D_0001);
}

#[test]
fn gaussian_build_is_thread_count_invariant() {
    assert_thread_count_invariant(true, 0xB11D_0002);
}

/// Different seeds must *not* produce identical bytes (guards against the
/// derivation collapsing to a constant stream, which would render the
/// invariant above vacuous).
#[test]
fn different_seeds_differ() {
    let db = test_db();
    let idx = CorpusIndex::build(&db);
    let a = common::with_retry_seeds(0xB11D_0003, 12, |seed| build_bytes(&idx, false, 4, seed));
    let b = common::with_retry_seeds(0xB11D_1003, 12, |seed| build_bytes(&idx, false, 4, seed));
    assert_ne!(a, b, "independent seeds produced identical synopses");
}
