//! Edge-case sweep for the exact substrate and the private structures:
//! empty patterns, patterns longer than any document, unary-alphabet
//! corpora, single-document corpora, and the index's text layouts at their
//! edges (all 256 bytes, a base-0 alphabet, common prefixes of 255 symbols
//! and more) — through `SuffixArray::from_ints`, `CorpusIndex`, and
//! `PrivateCountStructure::query`/`mine`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use dp_substring_counting::prelude::*;
use dp_substring_counting::strkit::suffix_array::SuffixArray;
use dp_substring_counting::strkit::{naive_contains, naive_count};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the generalized text `S = S_1 $_1 … S_n $_n` with sentinels below
/// the letters, mirroring the paper's Lemma 7 concatenation, and validates
/// `SuffixArray::from_ints` against a naive sort.
fn check_generalized_sa(docs: &[&[u8]]) {
    let n_docs = docs.len() as u32;
    let mut ints = Vec::new();
    for (i, d) in docs.iter().enumerate() {
        ints.extend(d.iter().map(|&b| b as u32 + n_docs));
        ints.push(i as u32);
    }
    let sa = SuffixArray::from_ints(&ints, 256 + n_docs as usize);
    let mut expected: Vec<u32> = (0..ints.len() as u32).collect();
    expected.sort_by(|&a, &b| ints[a as usize..].cmp(&ints[b as usize..]));
    assert_eq!(sa.sa(), expected.as_slice(), "docs={docs:?}");
    let inverse = sa.inverse();
    for (r, &p) in sa.sa().iter().enumerate() {
        assert_eq!(inverse[p as usize] as usize, r);
    }
}

/// Near-noiseless Theorem-1 build (ε = 10⁶): queries land within 0.5 of the
/// exact clipped counts, so edge semantics are observable through the DP
/// pipeline.
fn build_near_exact(db: &Database, mode: CountMode) -> (CorpusIndex, PrivateCountStructure) {
    let idx = CorpusIndex::build(db);
    let mut rng = StdRng::seed_from_u64(3);
    let params = BuildParams::new(mode, PrivacyParams::pure(1e6), 0.1).with_thresholds(0.9, 0.9);
    let s = build_pure(&idx, &params, &mut rng).expect("construction succeeds");
    (idx, s)
}

#[test]
fn empty_pattern_hits_the_root() {
    let db = Database::paper_example();
    let (idx, s) = build_near_exact(&db, CountMode::Substring);
    // The empty string occurs `Δ`-clipped in every document: its clipped
    // count is Σ_i min(ℓ, |S_i|+1)… the pipeline stores what the root was
    // charged with; the serving contract we pin down here is agreement and
    // finiteness, not a specific value.
    assert!(s.contains(b""));
    assert!(s.query(b"").is_finite());
    let f = s.freeze();
    assert_eq!(f.query(b"").to_bits(), s.query(b"").to_bits());
    // Exact substrate: the empty pattern's interval is the whole text.
    assert_eq!(idx.interval(b"").count(), idx.text_len());
}

#[test]
fn pattern_longer_than_any_document_is_absent() {
    let db = Database::paper_example(); // ℓ = 5
    let (idx, s) = build_near_exact(&db, CountMode::Substring);
    let long = b"aaaaaaaaaa"; // length 10 > ℓ
    assert_eq!(idx.count(long), 0);
    assert_eq!(idx.document_count(long), 0);
    assert!(!s.contains(long));
    assert_eq!(s.query(long), 0.0);
    assert_eq!(s.freeze().query(long), 0.0);
    // Mining can never produce a string longer than ℓ.
    for (m, _) in s.mine(f64::MIN) {
        assert!(m.len() <= db.max_len());
    }
}

#[test]
fn unary_alphabet_corpus() {
    // Documents are runs of a single letter; the suffix tree degenerates to
    // a path, which stresses the heavy-path decomposition (one path) and
    // the per-level candidate logic (one candidate per level).
    let docs: Vec<&[u8]> = vec![b"aaaa", b"aa", b"aaaaaa", b"a"];
    check_generalized_sa(&docs);

    let db = Database::new(Alphabet::new(b'a', 1), 6, docs.iter().map(|d| d.to_vec()).collect())
        .expect("valid unary database");
    let (idx, s) = build_near_exact(&db, CountMode::Substring);
    for k in 1..=6usize {
        let pat = vec![b'a'; k];
        let true_clipped = idx.count_clipped(&pat, db.max_len()) as f64;
        let got = s.query(&pat);
        assert!((got - true_clipped).abs() < 0.5, "a^{k}: noisy {got} vs clipped {true_clipped}");
    }
    // The trie is a single path: mining at a tiny threshold returns nested
    // prefixes a, aa, …, in DFS (here: length) order.
    let mined = s.mine(0.5);
    for (i, (m, _)) in mined.iter().enumerate() {
        assert_eq!(m.as_slice(), vec![b'a'; i + 1].as_slice());
    }
    assert!(!mined.is_empty());
    // Beyond ℓ: absent.
    assert_eq!(s.query(&[b'a'; 7]), 0.0);
}

#[test]
fn single_document_corpus() {
    let docs: Vec<&[u8]> = vec![b"abcab"];
    check_generalized_sa(&docs);

    let db = Database::new(Alphabet::lowercase(26), 5, vec![b"abcab".to_vec()])
        .expect("valid single-document database");
    let (idx, s) = build_near_exact(&db, CountMode::Substring);
    for pat in [&b"a"[..], b"ab", b"abc", b"bcab", b"abcab", b"ca"] {
        let true_clipped = idx.count_clipped(pat, db.max_len()) as f64;
        let got = s.query(pat);
        assert!((got - true_clipped).abs() < 0.5, "{pat:?}: noisy {got} vs clipped {true_clipped}");
    }
    // Absent substrings of valid length are 0 in structure and substrate.
    assert_eq!(idx.count(b"ba"), 0);
    assert_eq!(s.query(b"ba"), 0.0);

    // Document-count mode on one document: every present substring has
    // count 1.
    let (_, sdoc) = build_near_exact(&db, CountMode::Document);
    for pat in [&b"a"[..], b"ab", b"abcab"] {
        let got = sdoc.query(pat);
        assert!((got - 1.0).abs() < 0.5, "{pat:?}: document count {got}");
    }
    // mine(0.5) on document counts returns every stored substring once.
    let mined = sdoc.mine(0.5);
    let mut strings: Vec<Vec<u8>> = mined.into_iter().map(|(m, _)| m).collect();
    strings.sort();
    strings.dedup();
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for i in 0..5usize {
        for j in i + 1..=5usize {
            expected.push(b"abcab"[i..j].to_vec());
        }
    }
    expected.sort();
    expected.dedup();
    assert_eq!(strings, expected);
}

#[test]
fn generalized_sa_more_edge_shapes() {
    // Empty-ish and degenerate shapes through from_ints.
    check_generalized_sa(&[b"a"]);
    check_generalized_sa(&[b"a", b"a", b"a"]);
    check_generalized_sa(&[b"ab", b"ba", b"ab"]);
    check_generalized_sa(&[b"zzzzzzzz"]);
    // from_ints on an empty text.
    let sa = SuffixArray::from_ints(&[], 4);
    assert!(sa.is_empty());
    assert_eq!(sa.len(), 0);
}

/// Builds the index over `docs` on this thread, checks `heap_bytes()`
/// against the bytes the build left allocated, and checks every count of
/// `patterns` against brute force.
fn check_index(alphabet: Alphabet, docs: &[Vec<u8>], patterns: &[Vec<u8>]) -> CorpusIndex {
    let db = Database::from_documents(alphabet, docs.to_vec()).expect("valid database");
    let before = counting_alloc::thread_net();
    let idx = CorpusIndex::build(&db);
    let held = counting_alloc::thread_net() - before;
    assert_eq!(idx.heap_bytes() as isize, held, "heap_bytes() against the allocator");
    for p in patterns {
        let want: usize = docs.iter().map(|d| naive_count(p, d)).sum();
        assert_eq!(idx.count(p), want, "count of {p:?}");
        assert_eq!(idx.interval(p).count(), want, "interval of {p:?}");
        let want_docs = docs.iter().filter(|d| naive_contains(p, d)).count();
        assert_eq!(idx.document_count(p), want_docs, "document count of {p:?}");
        for delta in [2, 7, db.max_len()] {
            let want: u64 = docs.iter().map(|d| naive_count(p, d).min(delta) as u64).sum();
            assert_eq!(idx.count_clipped(p, delta), want, "count_{delta} of {p:?}");
        }
    }
    for (d, doc) in docs.iter().enumerate() {
        let start: usize = docs[..d].iter().map(|x| x.len() + 1).sum();
        assert_eq!(idx.decode_substring(start, doc.len()), *doc);
    }
    idx
}

/// The largest LCP value of the index: 255 or more only through the LCP
/// array's exception table.
fn max_lcp(idx: &CorpusIndex) -> usize {
    (0..idx.text_len()).map(|r| idx.lcp().get(r)).max().unwrap_or(0)
}

/// Documents over `letters` longer than 255 symbols, two of them sharing a
/// 300-symbol run, so common prefixes reach past one byte.
fn long_documents(letters: &[u8]) -> Vec<Vec<u8>> {
    let run = vec![letters[1]; 300];
    let mut spread: Vec<u8> = (0..400).map(|k| letters[(k * k + k / 7) % letters.len()]).collect();
    spread.extend_from_slice(&run[..260]);
    vec![run.clone(), [&letters[..1], run.as_slice()].concat(), spread, letters.to_vec()]
}

/// Patterns at the ends of the letters, across the long run, and absent.
fn edge_patterns(letters: &[u8], absent: &[u8]) -> Vec<Vec<u8>> {
    let (first, last) = (letters[0], letters[letters.len() - 1]);
    let mut pats = vec![
        vec![first],
        vec![last],
        vec![first, letters[1]],
        vec![letters[1]; 255],
        vec![letters[1]; 256],
        vec![letters[1]; 300],
        vec![letters[1]; 301],
        letters.to_vec(),
    ];
    pats.extend(absent.iter().map(|&b| vec![first, b]));
    pats
}

/// All 256 byte values: the text takes two bytes per symbol, since no byte
/// is left for the separator, and the long run escapes LCP values.
#[test]
fn full_byte_alphabet_index_with_long_common_prefixes() {
    let letters = [0u8, 1, 2, 127, 128, 254, 255];
    let docs = long_documents(&letters);
    let idx = check_index(Alphabet::new(0, 256), &docs, &edge_patterns(&letters, &[3, 200]));
    assert!(max_lcp(&idx) >= 300, "the shared run is a common prefix");
    let every_byte: Vec<u8> = (0..=255).collect();
    check_index(Alphabet::new(0, 256), &[every_byte.clone(), every_byte], &[vec![0], vec![255]]);
}

/// A base-0 alphabet short of 256 bytes keeps the one-byte text, with
/// letter 0 coded 1 above the separator; bytes past the alphabet are
/// absent.
#[test]
fn base_zero_alphabet_index_with_long_common_prefixes() {
    let letters = [0u8, 1, 5, 98, 99];
    let docs = long_documents(&letters);
    let idx = check_index(Alphabet::new(0, 100), &docs, &edge_patterns(&letters, &[100, 255]));
    assert!(max_lcp(&idx) >= 300, "the shared run is a common prefix");
    assert!(idx.lcp().heap_bytes() > idx.text_len(), "values past 254 are escaped");
}
