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

/// The index's text layouts: a 1-letter alphabet, three letters, a base-0
/// alphabet of 200 bytes (one-byte text, letter 0 coded 1) and all 256
/// bytes (two-byte text). Each draws its letters from a few values at
/// both ends of its range, so suffixes share long prefixes.
fn layout_alphabets() -> [(Alphabet, Vec<u8>); 4] {
    [
        (Alphabet::lowercase(1), vec![b'a']),
        (Alphabet::lowercase(3), vec![b'a', b'b', b'c']),
        (Alphabet::new(0, 200), vec![0, 1, 199]),
        (Alphabet::new(0, 256), vec![0, 1, 254, 255]),
    ]
}

/// An alphabet and 1 to 7 documents over it, empty ones included: one
/// document in about every seventh case.
fn layout_corpus() -> impl Strategy<Value = (Alphabet, Vec<Vec<u8>>)> {
    (0..layout_alphabets().len()).prop_flat_map(|k| {
        let (alphabet, letters) = layout_alphabets()[k].clone();
        (
            Just(alphabet),
            proptest::collection::vec(
                proptest::collection::vec(proptest::sample::select(letters), 0..12),
                1..8,
            ),
        )
    })
}

/// The paper's sentinel text `S_1 $_1 … S_n $_n` over `u32`: sentinel `i`
/// is `i`, byte `b` is `n + b`, so the sentinels are distinct and sort
/// below every letter.
fn sentinel_text(docs: &[Vec<u8>]) -> Vec<u32> {
    let n = docs.len() as u32;
    let mut text = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        text.extend(doc.iter().map(|&b| n + u32::from(b)));
        text.push(i as u32);
    }
    text
}

/// The suffix array of `text` by sorting its suffixes.
fn naive_sa(text: &[u32]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

/// Every substring of every document (up to length 6), a pattern one byte
/// below and one above the alphabet where those exist, and a letter
/// followed by such a byte.
fn probe_patterns(alphabet: Alphabet, docs: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut pats = Vec::new();
    let first = alphabet.base();
    let last = (alphabet.base() as usize + alphabet.size() - 1) as u8;
    for outside in [first.checked_sub(1), last.checked_add(1)].into_iter().flatten() {
        pats.push(vec![outside]);
        pats.push(vec![first, outside]);
    }
    for doc in docs {
        for i in 0..doc.len() {
            for j in i + 1..=doc.len().min(i + 6) {
                pats.push(doc[i..j].to_vec());
            }
        }
    }
    pats
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
            prop_assert_eq!(lcp.get(i), naive_lcp(&text[a..], &text[b..]));
        }
    }

    /// SA-IS over the owned sentinel text and Kasai over the one-separator
    /// text (letters `b − base + 1`, separator 0, as the index codes them),
    /// reading a shared inverse, against a naive sort and a naive LCP of
    /// the sentinel text. Empty documents put separators side by side.
    #[test]
    fn separated_text_arrays_match_the_sentinel_text(corpus in layout_corpus()) {
        let (alphabet, docs) = corpus;
        let ints = sentinel_text(&docs);
        let n = docs.len() as u32;
        let separated: Vec<u16> = ints
            .iter()
            .map(|&c| if c < n { 0 } else { (c - n) as u16 - u16::from(alphabet.base()) + 1 })
            .collect();
        let sigma = docs.len() + 256;
        let sa = SuffixArray::from_int_vec(ints.clone(), sigma);
        let want = naive_sa(&ints);
        prop_assert_eq!(sa.sa(), want.as_slice());
        let lcp = LcpArray::build_separated(&separated, &sa, &sa.inverse(), 0);
        prop_assert_eq!(lcp.len(), ints.len());
        for r in 1..want.len() {
            let (a, b) = (want[r - 1] as usize, want[r] as usize);
            prop_assert_eq!(lcp.get(r), naive_lcp(&ints[a..], &ints[b..]), "rank {}", r);
        }
    }

    /// The index over each text layout: its suffix array against a naive
    /// sort of the sentinel text, its LCP at every rank against the naive
    /// LCP, and every substring decoded back from the text.
    #[test]
    fn corpus_index_layout_matches_the_sentinel_text(corpus in layout_corpus()) {
        let (alphabet, mut docs) = corpus;
        docs.retain(|d| !d.is_empty());
        let db = Database::from_documents(alphabet, docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        let ints = sentinel_text(&docs);
        let want = naive_sa(&ints);
        prop_assert_eq!(idx.suffix_array().sa(), want.as_slice());
        for r in 1..want.len() {
            let (a, b) = (want[r - 1] as usize, want[r] as usize);
            prop_assert_eq!(idx.lcp().get(r), naive_lcp(&ints[a..], &ints[b..]), "rank {}", r);
        }
        for (r, &p) in want.iter().enumerate() {
            prop_assert_eq!(idx.rank_of(p as usize), r as u32);
        }
        let mut start = 0;
        for doc in &docs {
            for i in 0..=doc.len() {
                for j in i..=doc.len() {
                    prop_assert_eq!(&idx.decode_substring(start + i, j - i), &doc[i..j]);
                }
            }
            start += doc.len() + 1;
        }
        prop_assert_eq!(start, idx.text_len());
    }

    #[test]
    fn sa_search_counts_match_naive(text in small_text(), pat in small_text()) {
        prop_assume!(!text.is_empty());
        let sa = SuffixArray::from_bytes(&text);
        prop_assert_eq!(count_occurrences(&pat[..], &text, &sa), naive_count(&pat, &text));
    }

    /// `interval`, `count`, `document_count` and `count_clipped` of every
    /// probe pattern over each text layout, against brute force: the
    /// interval holds exactly the ranks whose suffix starts with the
    /// pattern.
    #[test]
    fn corpus_counts_match_brute_force(corpus in layout_corpus(), delta in 1usize..6) {
        let (alphabet, mut docs) = corpus;
        docs.retain(|d| !d.is_empty());
        let db = Database::from_documents(alphabet, docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        let sa = idx.suffix_array().sa();
        for p in probe_patterns(alphabet, &docs) {
            let want_count: usize = docs.iter().map(|d| naive_count(&p, d)).sum();
            let want_docs = docs.iter().filter(|d| naive_contains(&p, d)).count();
            let want_clip: u64 =
                docs.iter().map(|d| naive_count(&p, d).min(delta) as u64).sum();
            let iv = idx.interval(&p);
            prop_assert_eq!(iv.count(), want_count);
            for (r, &pos) in sa.iter().enumerate() {
                let pos = pos as usize;
                let starts = idx.remaining_in_doc(pos) >= p.len()
                    && idx.decode_substring(pos, p.len()) == p;
                prop_assert_eq!((iv.lo..iv.hi).contains(&(r as u32)), starts, "{:?} rank {}", p, r);
            }
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
