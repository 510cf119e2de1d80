//! Property tests for the candidate construction and the full pipeline in
//! the noise-free regime: Lemma 6's completeness guarantee must hold
//! exactly when noise is (effectively) disabled.

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_private_count::candidates::{build_candidates_pure, CandidateParams};
use dpsc_private_count::{build_pure, BuildParams, CountMode};
use dpsc_strkit::alphabet::{Alphabet, Database};
use dpsc_strkit::naive_count;
use dpsc_textindex::CorpusIndex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn docs_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 1..14),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 6 completeness (exact regime): with τ below every nonzero
    /// count and noise ≈ 0, the candidate set contains every substring of
    /// the database.
    #[test]
    fn candidates_cover_all_substrings(docs in docs_strategy()) {
        let db = Database::from_documents(Alphabet::lowercase(3), docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let params = CandidateParams {
            delta_clip: db.max_len(),
            privacy: PrivacyParams::pure(1e12),
            beta: 0.1,
            tau_override: Some(0.5),
            level_cap_override: None,
        };
        let set = build_candidates_pure(&idx, &params, &mut rng).unwrap();
        let have: std::collections::HashSet<&[u8]> = set.strings.iter().collect();
        for doc in &docs {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len() {
                    prop_assert!(
                        have.contains(&doc[i..j]),
                        "substring {:?} missing from C",
                        &doc[i..j]
                    );
                }
            }
        }
    }

    /// End-to-end exactness: the full Theorem 1 pipeline at negligible
    /// noise reproduces every count exactly and answers 0 for absent
    /// patterns.
    #[test]
    fn pipeline_exact_in_noiseless_regime(docs in docs_strategy()) {
        let db = Database::from_documents(Alphabet::lowercase(3), docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(2);
        let params = BuildParams::new(
            CountMode::Substring,
            PrivacyParams::pure(1e12),
            0.1,
        )
        .with_thresholds(0.5, 0.5);
        let s = build_pure(&idx, &params, &mut rng).unwrap();
        for doc in &docs {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len().min(i + 8) {
                    let p = &doc[i..j];
                    let exact: usize = docs.iter().map(|d| naive_count(p, d)).sum();
                    prop_assert!(
                        (s.query(p) - exact as f64).abs() < 1e-3,
                        "{:?}: {} vs {}",
                        p,
                        s.query(p),
                        exact
                    );
                }
            }
        }
        prop_assert_eq!(s.query(b"zzz"), 0.0);
        // Structure size bound (paper: O(nℓ²) with count ≥ 1 strings only).
        let (n, ell) = s.db_params();
        prop_assert!(s.node_count() <= n * ell * ell + 1);
    }

    /// Document-count mode agrees with the distinct-document oracle.
    #[test]
    fn pipeline_document_mode_exact(docs in docs_strategy()) {
        let db = Database::from_documents(Alphabet::lowercase(3), docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(3);
        let params =
            BuildParams::new(CountMode::Document, PrivacyParams::pure(1e12), 0.1)
                .with_thresholds(0.5, 0.5);
        let s = build_pure(&idx, &params, &mut rng).unwrap();
        for doc in docs.iter().take(3) {
            for w in doc.windows(2.min(doc.len())) {
                let exact = idx.document_count(w) as f64;
                prop_assert!((s.query(w) - exact).abs() < 1e-3);
            }
        }
    }
}

#[test]
fn edge_case_single_document_single_letter() {
    let db = Database::new(Alphabet::lowercase(1), 4, vec![b"aaaa".to_vec()]).unwrap();
    let idx = CorpusIndex::build(&db);
    let mut rng = StdRng::seed_from_u64(4);
    let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e12), 0.1)
        .with_thresholds(0.5, 0.5);
    let s = build_pure(&idx, &params, &mut rng).unwrap();
    assert!((s.query(b"a") - 4.0).abs() < 1e-3);
    assert!((s.query(b"aa") - 3.0).abs() < 1e-3);
    assert!((s.query(b"aaaa") - 1.0).abs() < 1e-3);
}

#[test]
fn edge_case_length_one_documents() {
    let db =
        Database::new(Alphabet::lowercase(4), 1, vec![b"a".to_vec(), b"b".to_vec(), b"a".to_vec()])
            .unwrap();
    let idx = CorpusIndex::build(&db);
    let mut rng = StdRng::seed_from_u64(5);
    let params = BuildParams::new(CountMode::Document, PrivacyParams::pure(1e12), 0.1)
        .with_thresholds(0.5, 0.5);
    let s = build_pure(&idx, &params, &mut rng).unwrap();
    assert!((s.query(b"a") - 2.0).abs() < 1e-3);
    assert!((s.query(b"b") - 1.0).abs() < 1e-3);
    assert_eq!(s.query(b"c"), 0.0);
    assert_eq!(s.query(b"ab"), 0.0); // longer than ℓ ⇒ absent
}

#[test]
fn edge_case_max_clip_equals_one_on_long_docs() {
    // Δ = 1 clipping with highly repetitive documents: substring counts are
    // huge but the clipped count is the document count.
    let db = Database::new(Alphabet::lowercase(2), 16, vec![vec![b'a'; 16]; 5]).unwrap();
    let idx = CorpusIndex::build(&db);
    assert_eq!(idx.count(b"a"), 80);
    assert_eq!(idx.count_clipped(b"a", 1), 5);
    assert_eq!(idx.count_clipped(b"a", 3), 15);
    assert_eq!(idx.count_clipped(b"aaaa", 1), 5);
}
