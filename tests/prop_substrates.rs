//! Property-based tests for the string and indexing substrates: the exact
//! layers everything else trusts.

use std::collections::BTreeMap;

use dp_substring_counting::dpcore::budget::PrivacyParams;
use dp_substring_counting::private_count::{CountMode, PrivateCountStructure};
use dp_substring_counting::strkit::alphabet::{Alphabet, Database};
use dp_substring_counting::strkit::lcp::{naive_lcp, LcpArray};
use dp_substring_counting::strkit::search::count_occurrences;
use dp_substring_counting::strkit::suffix_array::{naive_suffix_array, SuffixArray};
use dp_substring_counting::strkit::{naive_contains, naive_count};
use dp_substring_counting::textindex::{depth_groups, CorpusIndex, WaveletMatrix};
use proptest::prelude::*;

fn small_text() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 0..60)
}

fn small_docs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 1..16),
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn suffix_array_matches_naive(text in small_text()) {
        let sa = SuffixArray::from_bytes(&text);
        let expected = naive_suffix_array(&text);
        prop_assert_eq!(sa.sa(), expected.as_slice());
    }

    #[test]
    fn lcp_matches_naive(text in small_text()) {
        let sa = SuffixArray::from_bytes(&text);
        let lcp = LcpArray::build(&text, &sa);
        for i in 1..text.len() {
            let a = sa.sa()[i - 1] as usize;
            let b = sa.sa()[i] as usize;
            prop_assert_eq!(lcp.values()[i] as usize, naive_lcp(&text[a..], &text[b..]));
        }
    }

    #[test]
    fn sa_search_counts_match_naive(text in small_text(), pat in small_text()) {
        prop_assume!(!text.is_empty());
        let sa = SuffixArray::from_bytes(&text);
        prop_assert_eq!(count_occurrences(&pat[..], &text, &sa), naive_count(&pat, &text));
    }

    #[test]
    fn corpus_counts_match_brute_force(docs in small_docs(), delta in 1usize..6) {
        let db = Database::from_documents(Alphabet::lowercase(3), docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        // Probe every substring of every document plus an absent pattern.
        let mut pats: Vec<Vec<u8>> = vec![b"zz".to_vec()];
        for doc in &docs {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len().min(i + 6) {
                    pats.push(doc[i..j].to_vec());
                }
            }
        }
        for p in pats {
            let want_count: usize = docs.iter().map(|d| naive_count(&p, d)).sum();
            let want_docs = docs.iter().filter(|d| naive_contains(&p, d)).count();
            let want_clip: u64 =
                docs.iter().map(|d| naive_count(&p, d).min(delta) as u64).sum();
            prop_assert_eq!(idx.count(&p), want_count);
            prop_assert_eq!(idx.document_count(&p), want_docs);
            prop_assert_eq!(idx.count_clipped(&p, delta), want_clip);
        }
    }

    #[test]
    fn depth_groups_partition_distinct_substrings(docs in small_docs(), d in 1usize..8) {
        let db = Database::from_documents(Alphabet::lowercase(3), docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        let groups = depth_groups(&idx, d);
        // Distinct d-substrings by brute force.
        let mut want: std::collections::BTreeMap<Vec<u8>, usize> = Default::default();
        for doc in &docs {
            if doc.len() >= d {
                for w in doc.windows(d) {
                    *want.entry(w.to_vec()).or_insert(0) += 1;
                }
            }
        }
        prop_assert_eq!(groups.len(), want.len());
        for (g, (gram, cnt)) in groups.iter().zip(want.iter()) {
            prop_assert_eq!(&idx.decode_substring(g.witness_pos as usize, d), gram);
            prop_assert_eq!(g.count(), *cnt);
        }
    }

    #[test]
    fn wavelet_matrix_matches_naive(
        values in proptest::collection::vec(0u32..50, 0..50),
        bound in 0u32..70,
        zeros in 0usize..50,
    ) {
        // The random values (max < 50, so at most 6 levels), then `zeros`
        // all-zero values and the empty input, which build no levels.
        for values in [values, vec![0; zeros], Vec::new()] {
            let wm = WaveletMatrix::build(&values);
            let max = values.iter().copied().max().unwrap_or(0);
            let past_top = 1u32 << (u32::BITS - max.leading_zeros());
            for lo in 0..=values.len() {
                for hi in lo..=values.len() {
                    for b in [bound, 0, past_top, u32::MAX] {
                        let want = values[lo..hi].iter().filter(|&&v| v < b).count();
                        prop_assert_eq!(wm.count_less(lo, hi, b), want);
                    }
                }
            }
        }
    }

    #[test]
    fn trie_roundtrip(strings in proptest::collection::vec(
        proptest::collection::vec(proptest::sample::select(vec![b'a', b'b']), 1..8), 1..20)
    ) {
        // A later equal string overwrites the earlier one.
        let entries: BTreeMap<Vec<u8>, f64> =
            strings.iter().enumerate().map(|(i, s)| (s.clone(), i as f64 + 1.0)).collect();
        let (mode, privacy) = (CountMode::Substring, PrivacyParams::pure(1.0));
        let trie = PrivateCountStructure::from_entries(
            entries.clone().into_iter().collect(), mode, privacy, 1.0, 1.0, 1, 8,
        ).expect("distinct strings with finite counts");
        // Every inserted string is found with its count; every prefix is
        // present.
        for (s, &count) in &entries {
            prop_assert_eq!(trie.query(s), count);
            for cut in 0..s.len() {
                prop_assert!(trie.contains(&s[..cut]));
            }
        }
        // The pre-order walk visits every non-root node exactly once.
        let visited = trie.mine(f64::NEG_INFINITY);
        prop_assert_eq!(visited.len() + 1, trie.node_count());
        let set: std::collections::HashSet<&[u8]> = visited.iter().map(|(s, _)| s.as_slice()).collect();
        prop_assert_eq!(set.len(), visited.len());
    }
}
