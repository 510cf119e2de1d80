//! Differential property test for the frozen serving layer: on random
//! corpora and privacy parameters, the SWAR walk of [`FrozenSynopsis`]
//! must agree *bit-for-bit* with the released trie as
//! [`PrivateCountStructure`]'s pre-order walk lists it (`mine` at `−∞`
//! plus the root) — on every substring of every document (present or
//! pruned), on random absent patterns, and through the binary codec — for
//! both the Laplace (Theorem 1) and Gaussian (Theorem 2) constructions.

mod common;

use std::collections::BTreeMap;

use dp_substring_counting::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_docs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 1..14),
        1..12,
    )
}

/// Builds with a large ε (relative to the tiny corpora) and low thresholds
/// so construction usually succeeds and produces a non-trivial trie; the
/// FAIL branch (candidate overflow) is a legitimate mechanism output and
/// simply skips the case.
fn build(
    docs: Vec<Vec<u8>>,
    epsilon: f64,
    gaussian: bool,
    seed: u64,
) -> Option<(PrivateCountStructure, Vec<Vec<u8>>)> {
    let db = Database::from_documents(Alphabet::lowercase(26), docs.clone()).expect("valid docs");
    let idx = CorpusIndex::build(&db);
    let mut rng = StdRng::seed_from_u64(seed);
    let (privacy, mode) = if gaussian {
        (PrivacyParams::approx(epsilon, 1e-6), CountMode::Document)
    } else {
        (PrivacyParams::pure(epsilon), CountMode::Substring)
    };
    let params = BuildParams::new(mode, privacy, 0.1).with_thresholds(1.0, 1.0);
    let built = if gaussian {
        build_approx(&idx, &params, &mut rng)
    } else {
        build_pure(&idx, &params, &mut rng)
    };
    built.ok().map(|s| (s, docs))
}

/// Asserts bit-for-bit agreement between the released strings and the
/// frozen synopsis (and its serialized round-trip) on every substring of
/// every document plus deterministic absent patterns.
fn check_agreement(structure: &PrivateCountStructure, docs: &[Vec<u8>], seed: u64) {
    let mut released: BTreeMap<Vec<u8>, f64> =
        structure.mine(f64::NEG_INFINITY).into_iter().collect();
    released.extend(structure.mine_qgrams(0, f64::NEG_INFINITY));
    let frozen = structure.freeze();
    let decoded = FrozenSynopsis::from_bytes(&frozen.to_bytes()).expect("codec round-trips");
    assert_eq!(frozen, decoded);
    assert_eq!(frozen.node_count(), released.len());

    let check_pattern = |pat: &[u8]| {
        let want = released.get(pat).copied().unwrap_or(0.0);
        for (label, got) in [("frozen", frozen.query(pat)), ("decoded", decoded.query(pat))] {
            assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "{label} disagrees on {pat:?}: {want} vs {got}"
            );
        }
        assert_eq!(released.contains_key(pat), frozen.contains(pat), "contains({pat:?})");
    };

    // Every substring of every document, the empty pattern included.
    check_pattern(b"");
    for doc in docs {
        for i in 0..doc.len() {
            for j in i + 1..=doc.len() {
                check_pattern(&doc[i..j]);
            }
        }
    }
    // Random absent patterns: symbols outside the corpus alphabet subset,
    // plus overlong patterns.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    for _ in 0..50 {
        let len = rng.gen_range(1..20usize);
        let pat: Vec<u8> = (0..len).map(|_| rng.gen_range(b'd'..=b'z')).collect();
        check_pattern(&pat);
    }
    // The batch path agrees with the single-query path.
    let all: Vec<Vec<u8>> = docs
        .iter()
        .flat_map(|d| (0..d.len()).map(|i| d[i..].to_vec()).collect::<Vec<_>>())
        .collect();
    let refs: Vec<&[u8]> = all.iter().map(|p| p.as_slice()).collect();
    let single: Vec<u64> = refs.iter().map(|p| frozen.query(p).to_bits()).collect();
    let batch: Vec<u64> = frozen.query_batch(&refs).iter().map(|v| v.to_bits()).collect();
    assert_eq!(single, batch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ε ≥ 1e3 keeps the (still real, still per-node) noise below the demo
    // thresholds so construction usually succeeds on these tiny corpora;
    // `with_retry_seeds` retries the FAIL branch (a legitimate mechanism
    // output) on derived seeds and panics if *every* attempt fails, so no
    // case can silently skip — the harness is structurally non-vacuous.

    #[test]
    fn frozen_matches_trie_laplace(docs in small_docs(), eps_scale in 0u32..4, seed in 0u64..1 << 40) {
        let epsilon = [1e3, 1e4, 1e5, 1e6][eps_scale as usize];
        let (structure, docs) =
            common::with_retry_seeds(seed, 6, |s| build(docs.clone(), epsilon, false, s));
        check_agreement(&structure, &docs, seed);
    }

    #[test]
    fn frozen_matches_trie_gaussian(docs in small_docs(), eps_scale in 0u32..4, seed in 0u64..1 << 40) {
        let epsilon = [1e3, 1e4, 1e5, 1e6][eps_scale as usize];
        let (structure, docs) =
            common::with_retry_seeds(seed, 6, |s| build(docs.clone(), epsilon, true, s));
        check_agreement(&structure, &docs, seed);
    }
}

/// Deterministic anchor: on a fixed corpus, construction must succeed
/// (within the retry budget) in both noise modes and the frozen synopsis
/// must agree everywhere — a belt-and-suspenders floor under the property
/// tests above.
#[test]
fn fixed_corpus_agrees_in_both_modes() {
    let docs: Vec<Vec<u8>> = ["abcabc", "abca", "cabb", "aab", "bcbc", "ccca"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    for gaussian in [false, true] {
        let (structure, docs) =
            common::with_retry_seeds(7, 4, |s| build(docs.clone(), 1e4, gaussian, s));
        assert!(structure.node_count() > 1, "non-trivial trie (gaussian={gaussian})");
        check_agreement(&structure, &docs, 7);
    }
}
