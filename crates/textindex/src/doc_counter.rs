//! Distinct-document counting over suffix-array intervals.
//!
//! Document Count(P) is the number of *distinct* documents among the
//! occurrences of `P`, i.e. the number of distinct colors in the suffix-array
//! interval of `P`. We use the classic reduction (Muthukrishnan \[58\]): let
//! `prev[r]` be one plus the previous rank with the same document as rank `r`
//! (or `0` if there is none). The distinct documents in `[lo, hi)` are
//! exactly the ranks with `prev[r] < lo + 1`, counted with a
//! [`WaveletMatrix`] in `O(log N)` over `N·⌈log₂ N⌉` bits plus its rank
//! directory.

use dpsc_strkit::search::SaInterval;
use dpsc_strkit::suffix_array::SuffixArray;

use crate::range_count::WaveletMatrix;

/// Distinct-color counter over the suffix array's rank sequence.
#[derive(Debug, Clone)]
pub struct DocDistinctCounter {
    matrix: WaveletMatrix,
}

impl DocDistinctCounter {
    /// Builds from the suffix array and the per-text-position document ids.
    pub fn build(sa: &SuffixArray, doc_of: &[u32]) -> Self {
        let n = sa.len();
        assert_eq!(n, doc_of.len());
        assert!(n < u32::MAX as usize, "ranks plus one must fit in u32");
        let n_docs = doc_of.iter().copied().max().map_or(0, |d| d as usize + 1);
        let mut last_rank_of_doc: Vec<u32> = vec![0; n_docs];
        let prev: Vec<u32> = sa
            .sa()
            .iter()
            .enumerate()
            .map(|(r, &pos)| {
                let d = doc_of[pos as usize] as usize;
                std::mem::replace(&mut last_rank_of_doc[d], r as u32 + 1)
            })
            .collect();
        Self { matrix: WaveletMatrix::from_vec(prev) }
    }

    /// Number of distinct documents among ranks `[iv.lo, iv.hi)`.
    pub fn distinct(&self, iv: SaInterval) -> usize {
        if iv.is_empty() {
            return 0;
        }
        self.matrix.count_less(iv.lo as usize, iv.hi as usize, iv.lo + 1)
    }

    /// Heap memory held by the counter, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.matrix.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusIndex;
    use dpsc_strkit::alphabet::Database;
    use dpsc_strkit::search::find_interval;
    use dpsc_workloads::markov_corpus;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn distinct_matches_naive() {
        // Text "abab|baba|aaaa" as three docs concatenated with sentinels.
        let docs: [&[u8]; 3] = [b"abab", b"baba", b"aaaa"];
        let n_docs = docs.len();
        let mut text: Vec<u32> = Vec::new();
        let mut doc_of: Vec<u32> = Vec::new();
        for (i, d) in docs.iter().enumerate() {
            for &b in *d {
                text.push(n_docs as u32 + b as u32);
                doc_of.push(i as u32);
            }
            text.push(i as u32);
            doc_of.push(i as u32);
        }
        let sa = SuffixArray::from_ints(&text, 256 + n_docs);
        let counter = DocDistinctCounter::build(&sa, &doc_of);

        let check = |pat: &[u8], want: usize| {
            let encoded: Vec<u32> = pat.iter().map(|&b| n_docs as u32 + b as u32).collect();
            let iv = find_interval(&encoded, &text, &sa);
            assert_eq!(counter.distinct(iv), want, "pattern {:?}", pat);
        };
        check(b"ab", 2); // abab, baba
        check(b"a", 3);
        check(b"aa", 1); // aaaa only
        check(b"bb", 0);
        check(b"abab", 1);
    }

    #[test]
    fn empty_interval_is_zero() {
        let sa = SuffixArray::from_bytes(b"ab");
        let counter = DocDistinctCounter::build(&sa, &[0, 0]);
        assert_eq!(counter.distinct(SaInterval::EMPTY), 0);
    }

    /// Every interval `[lo, hi)` of texts whose length sits at a 64-bit word
    /// or 512-bit rank-block boundary.
    #[test]
    fn every_interval_at_rank_block_lengths() {
        for n in [63usize, 64, 65, 511, 512, 513] {
            // Documents of lengths 0..=8 (plus their sentinels) over "ab",
            // the last one cut to make the text exactly `n` long.
            let mut text: Vec<u32> = Vec::new();
            let mut doc_of: Vec<u32> = Vec::new();
            let mut doc = 0u32;
            while text.len() < n {
                let len = (doc as usize * 5 % 9).min(n - text.len() - 1);
                for k in 0..len {
                    text.push(1000 + ((doc as usize + k * k) % 2) as u32);
                    doc_of.push(doc);
                }
                text.push(doc);
                doc_of.push(doc);
                doc += 1;
            }
            let sa = SuffixArray::from_ints(&text, 1002);
            let counter = DocDistinctCounter::build(&sa, &doc_of);
            for lo in 0..n {
                let mut seen = vec![false; doc as usize];
                let mut want = 0usize;
                for hi in lo + 1..=n {
                    let d = doc_of[sa.sa()[hi - 1] as usize] as usize;
                    want += usize::from(!std::mem::replace(&mut seen[d], true));
                    let iv = SaInterval { lo: lo as u32, hi: hi as u32 };
                    assert_eq!(counter.distinct(iv), want, "n {n} [{lo},{hi})");
                }
            }
        }
    }

    /// A Markov corpus of `N ≥ 100k` text positions, so ranks span a few
    /// hundred 512-bit rank blocks per level.
    fn large_corpus() -> (Database, CorpusIndex) {
        let db = markov_corpus(1600, 64, 4, 0.6, &mut StdRng::seed_from_u64(15));
        let idx = CorpusIndex::build(&db);
        assert!(idx.text_len() >= 100_000);
        (db, idx)
    }

    #[test]
    fn document_count_matches_naive_across_rank_blocks() {
        let (db, idx) = large_corpus();
        let docs = db.documents();
        let sa = idx.suffix_array().sa();
        let mut rng = StdRng::seed_from_u64(16);
        let mut seen = vec![false; idx.n_docs()];
        for _ in 0..2000 {
            let doc = &docs[rng.gen_range(0..docs.len())];
            let start = rng.gen_range(0..doc.len());
            let len = rng.gen_range(1..=8usize).min(doc.len() - start);
            let iv = idx.interval(&doc[start..start + len]);
            assert!(!iv.is_empty());
            seen.fill(false);
            let want = (iv.lo..iv.hi)
                .filter(|&r| {
                    !std::mem::replace(&mut seen[idx.doc_of(sa[r as usize] as usize)], true)
                })
                .count();
            assert_eq!(idx.document_count_in_interval(iv), want, "interval {iv:?}");
        }
    }

    /// Guards against a return to `O(N log N)` words: the counter must stay
    /// within 1.5× of `N·⌈log₂(N + 1)⌉` bits.
    #[test]
    fn heap_bytes_stay_succinct() {
        let (_, idx) = large_corpus();
        let n = idx.text_len();
        let doc_of: Vec<u32> = (0..n).map(|p| idx.doc_of(p) as u32).collect();
        let counter = DocDistinctCounter::build(idx.suffix_array(), &doc_of);
        let bits_per_value = (usize::BITS - n.leading_zeros()) as usize; // ⌈log₂(n + 1)⌉
        let bound = 3 * n * bits_per_value / 16;
        assert!(counter.heap_bytes() <= bound, "{} > {bound} bytes", counter.heap_bytes());
    }
}
