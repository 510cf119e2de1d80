//! Property tests for the paper's sensitivity lemmas — the load-bearing
//! claims behind every noise calibration. Each test draws random
//! *neighboring* databases and checks the analytic bound empirically.

use dp_substring_counting::hierarchy::heavy_path::HeavyPathDecomposition;
use dp_substring_counting::private_count::pipeline::{build_count_trie, CountTrie};
use dp_substring_counting::strkit::alphabet::{Alphabet, Database};
use dp_substring_counting::strkit::naive_count;
use dp_substring_counting::textindex::CorpusIndex;
use proptest::prelude::*;

fn docs_strategy() -> impl Strategy<Value = (Vec<Vec<u8>>, Vec<u8>, usize)> {
    // (documents, replacement document, index to replace)
    (
        proptest::collection::vec(
            proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 1..12),
            2..8,
        ),
        proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 1..12),
    )
        .prop_flat_map(|(docs, repl)| {
            let n = docs.len();
            (Just(docs), Just(repl), 0..n)
        })
}

/// All distinct substrings of a byte string.
fn substrings(s: &[u8]) -> std::collections::BTreeSet<Vec<u8>> {
    let mut out = std::collections::BTreeSet::new();
    for i in 0..s.len() {
        for j in i + 1..=s.len() {
            out.insert(s[i..j].to_vec());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Observation 1 / Corollary 3: for any fixed length m, the total count
    /// of length-m substrings of one document is ≤ ℓ, so the L1 sensitivity
    /// of the length-m count vector is ≤ 2ℓ.
    #[test]
    fn corollary3_per_length_sensitivity((docs, repl, i) in docs_strategy()) {
        let ell = docs.iter().map(Vec::len).max().unwrap().max(repl.len());
        let db = Database::new(Alphabet::lowercase(3), ell, docs.clone()).unwrap();
        let nb = db.neighbor_replacing(i, repl.clone()).unwrap();
        for m in 1..=ell {
            // Sum over all patterns of length m of |count(P,D) − count(P,D')|.
            let mut pats = substrings(&docs[i]);
            pats.extend(substrings(&repl));
            let l1: i64 = pats
                .iter()
                .filter(|p| p.len() == m)
                .map(|p| {
                    let a: i64 = db.documents().iter().map(|d| naive_count(p, d) as i64).sum();
                    let b: i64 = nb.documents().iter().map(|d| naive_count(p, d) as i64).sum();
                    (a - b).abs()
                })
                .sum();
            prop_assert!(l1 <= 2 * ell as i64, "length {m}: L1 = {l1} > 2ℓ = {}", 2 * ell);
        }
    }

    /// Observation 2: the count difference of any trie node between
    /// neighbors depends only on the replaced documents.
    #[test]
    fn observation2_node_difference((docs, repl, i) in docs_strategy()) {
        let ell = docs.iter().map(Vec::len).max().unwrap().max(repl.len());
        let db = Database::new(Alphabet::lowercase(3), ell, docs.clone()).unwrap();
        let nb = db.neighbor_replacing(i, repl.clone()).unwrap();
        let mut pats = substrings(&docs[i]);
        pats.extend(substrings(&repl));
        pats.insert(b"ab".to_vec());
        for p in &pats {
            let a: i64 = db.documents().iter().map(|d| naive_count(p, d) as i64).sum();
            let b: i64 = nb.documents().iter().map(|d| naive_count(p, d) as i64).sum();
            let local = naive_count(p, &docs[i]) as i64 - naive_count(p, &repl) as i64;
            prop_assert_eq!((a - b).abs(), local.abs());
        }
    }

    /// Lemma 10: across the heavy-path roots of the candidate trie, the
    /// total count contributed by any single document is at most
    /// ℓ·(⌊log|T_C|⌋ + 1).
    #[test]
    fn lemma10_root_mass((docs, _repl, i) in docs_strategy()) {
        let ell = docs.iter().map(Vec::len).max().unwrap();
        let db = Database::new(Alphabet::lowercase(3), ell, docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        // T_C over all substrings of the database (the worst case).
        let mut cands: Vec<Vec<u8>> = Vec::new();
        for d in db.documents() {
            cands.extend(substrings(d));
        }
        cands.sort();
        cands.dedup();
        let trie = build_count_trie(&idx, &cands, ell);
        let hpd = HeavyPathDecomposition::from_preorder(trie.parents());
        let levels = (usize::BITS - (trie.len() as usize).leading_zeros()) as usize;
        let s = &docs[i];
        let mass: usize = hpd
            .paths()
            .map(|path| {
                let root = path[0];
                if root == CountTrie::ROOT {
                    // The paper's Lemma 10 counts occurrences of str(r); the
                    // trie root is the empty string with count(ε, S) = |S|.
                    s.len()
                } else {
                    naive_count(&trie.string_of(root), s)
                }
            })
            .sum();
        prop_assert!(
            mass <= ell * levels,
            "root mass {mass} > ℓ(⌊log|T_C|⌋+1) = {}",
            ell * levels
        );
    }

    /// Lemma 8: per heavy path, the L1 distance of difference sequences
    /// between neighbors is bounded by count(str(root), S) + count(str(root), S').
    #[test]
    fn lemma8_difference_sequences((docs, repl, i) in docs_strategy()) {
        let ell = docs.iter().map(Vec::len).max().unwrap().max(repl.len());
        let db = Database::new(Alphabet::lowercase(3), ell, docs.clone()).unwrap();
        let nb = db.neighbor_replacing(i, repl.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        let idx_nb = CorpusIndex::build(&nb);
        let mut cands: Vec<Vec<u8>> = Vec::new();
        for d in db.documents().iter().chain(nb.documents()) {
            cands.extend(substrings(d));
        }
        cands.sort();
        cands.dedup();
        // Same trie shape for both databases (the union of candidates).
        let trie = build_count_trie(&idx, &cands, ell);
        let trie_nb = build_count_trie(&idx_nb, &cands, ell);
        prop_assert_eq!(trie.len(), trie_nb.len());
        let hpd = HeavyPathDecomposition::from_preorder(trie.parents());
        for path in hpd.paths() {
            let mut l1 = 0i64;
            for w in path.windows(2) {
                let d_a = trie.value(w[1]) as i64 - trie.value(w[0]) as i64;
                let d_b = trie_nb.value(w[1]) as i64 - trie_nb.value(w[0]) as i64;
                l1 += (d_a - d_b).abs();
            }
            let root = path[0];
            let bound = if root == CountTrie::ROOT {
                (docs[i].len() + repl.len()) as i64
            } else {
                let s = trie.string_of(root);
                (naive_count(&s, &docs[i]) + naive_count(&s, &repl)) as i64
            };
            prop_assert!(l1 <= bound, "path at {:?}: {l1} > {bound}", trie.string_of(root));
        }
    }
}
