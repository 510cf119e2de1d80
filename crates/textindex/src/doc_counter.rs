//! Distinct-document and clipped counting over suffix-array intervals.
//!
//! Document Count(P) is the number of *distinct* documents among the
//! occurrences of `P`, i.e. the number of distinct colors in the suffix-array
//! interval of `P`. We use Sadakane's duplicate-at-the-LCA reduction
//! (J. Discrete Algorithms 2007; see also Gagie et al., "Document counting
//! in compressed space", DCC 2017), phrased on the suffix and LCP arrays.
//! For a rank `r` let `p` be the previous rank with the same document. `p`
//! lies in the interval of a pattern `P` containing `r` exactly when
//! `min lcp(p, r] ≥ |P|`. So store
//!
//! > `v(r) = 1 + min(ℓ, min lcp(p, r])`, or `0` when there is no such `p`,
//!
//! and Document Count(P) is `#{r ∈ [lo, hi) : v(r) ≤ |P|}`: a
//! [`WaveletMatrix::count_less`] over values of at most `ℓ + 1`, in
//! `N·⌈log₂(ℓ+2)⌉` bits plus the rank directory and `O(log ℓ)` per query.
//!
//! The same key over the `Δ`-th previous same-document rank gives the
//! clipped count `count_Δ(P) = Σ_S min(Δ, count(P, S))`: a rank of `P`'s
//! interval counts exactly when fewer than `Δ` ranks of its document
//! precede it inside the interval, so each document contributes its first
//! `Δ` occurrences.

use dpsc_strkit::lcp::LcpArray;
use dpsc_strkit::search::SaInterval;
use dpsc_strkit::suffix_array::SuffixArray;

use crate::range_count::WaveletMatrix;
use crate::Narrow;

/// Depth-keyed `count_Δ` counter over the suffix array's rank sequence.
#[derive(Debug, Clone)]
pub struct DocDistinctCounter {
    matrix: WaveletMatrix,
}

/// An empty ring slot, and the ring start of a document with fewer than
/// `Δ` ranks, which needs no ring.
const NO_RANK: u32 = u32::MAX;

impl DocDistinctCounter {
    /// Builds the `count_Δ` counter in one pass over the suffix and LCP
    /// arrays. `doc_of` maps a text position to its document (`< n_docs`);
    /// `max_len` is the declared document length bound `ℓ`. The keys are
    /// at most `ℓ + 1`, so they are collected at the narrowest width that
    /// holds that (one byte for `ℓ < 255`) and handed to the matrix build
    /// as its scratch.
    pub(crate) fn from_lcp(
        sa: &[u32],
        lcp: &LcpArray,
        doc_of: impl Fn(usize) -> usize,
        n_docs: usize,
        max_len: usize,
        delta: usize,
    ) -> Self {
        let clip =
            u32::try_from(max_len).ok().filter(|&l| l < u32::MAX).expect("ℓ + 1 fits in u32");
        let matrix = if clip < u8::MAX.into() {
            keyed::<u8>(sa, lcp, doc_of, n_docs, clip, delta)
        } else if clip < u16::MAX.into() {
            keyed::<u16>(sa, lcp, doc_of, n_docs, clip, delta)
        } else {
            keyed::<u32>(sa, lcp, doc_of, n_docs, clip, delta)
        };
        Self { matrix }
    }

    /// `count_Δ` of the length-`depth` pattern whose suffix-array interval
    /// is `iv`: the ranks of `iv` keyed at most `depth`.
    #[inline]
    pub fn count(&self, iv: SaInterval, depth: usize) -> usize {
        if iv.is_empty() {
            return 0;
        }
        let bound = u32::try_from(depth).map_or(u32::MAX, |d| d.saturating_add(1));
        self.matrix.count_less(iv.lo as usize, iv.hi as usize, bound)
    }

    /// Heap memory held by the counter, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.matrix.heap_bytes()
    }

    /// The matrix of previous-same-document ranks (`prev[r]` = one plus
    /// the previous rank of `r`'s document, or 0), `⌈log₂(N+1)⌉` levels:
    /// the counter's construction before it was keyed by depth. Kept only
    /// so the repository benchmark's `index.doc_counter` replay still
    /// builds; it returns the bare matrix, so nothing queries it with depth
    /// semantics. Remove it with the next change to the benchmark.
    #[doc(hidden)]
    pub fn build(sa: &SuffixArray, doc_of: &[u32]) -> WaveletMatrix {
        assert_eq!(sa.len(), doc_of.len());
        let n_docs = doc_of.iter().copied().max().map_or(0, |d| d as usize + 1);
        let mut last_rank_of_doc: Vec<u32> = vec![0; n_docs];
        let prev: Vec<u32> = (sa.sa().iter().enumerate())
            .map(|(r, &pos)| {
                let d = doc_of[pos as usize] as usize;
                std::mem::replace(&mut last_rank_of_doc[d], r as u32 + 1)
            })
            .collect();
        let max = prev.iter().copied().max().unwrap_or(0);
        WaveletMatrix::from_vec(prev, max)
    }
}

/// The counter's matrix over keys of width `K`, which holds `clip + 1`.
///
/// The pass keeps the suffix minima of `lcp[..=r]` on a stack, their
/// values clipped at `clip = ℓ` and strictly increasing, so at most
/// `ℓ + 1` entries; the minimum over `(p, r]` is the first entry past `p`.
/// Each document with at least `Δ` ranks keeps a ring of its last `Δ`
/// ranks; a shorter one has no `Δ`-th previous rank, so all its keys are 0
/// and the rings hold at most `N` ranks in all.
fn keyed<K: Narrow>(
    sa: &[u32],
    lcp: &LcpArray,
    doc_of: impl Fn(usize) -> usize,
    n_docs: usize,
    clip: u32,
    delta: usize,
) -> WaveletMatrix {
    assert!(delta >= 1, "Δ must be at least 1");
    assert_eq!(sa.len(), lcp.len(), "suffix/LCP array length mismatch");
    assert!(sa.len() < NO_RANK as usize, "ranks must fit below the ring marker");
    assert!(clip < K::MAX, "keys up to ℓ + 1 fit the key width");
    let mut stack: Vec<(u32, u32)> = Vec::with_capacity(clip as usize + 1);
    // Document d's ring starts at ring_at[d] (d itself for Δ = 1).
    let mut ring_at = Vec::new();
    let mut ring_len = n_docs;
    if delta > 1 {
        let mut ranks = vec![0usize; n_docs];
        for pos in 0..sa.len() {
            ranks[doc_of(pos)] += 1;
        }
        ring_len = 0;
        ring_at = (ranks.iter())
            .map(|&k| {
                if k < delta {
                    return NO_RANK;
                }
                ring_len += delta;
                (ring_len - delta) as u32
            })
            .collect();
    }
    let mut ring = vec![NO_RANK; ring_len];
    let mut cursor = vec![0u32; ring_at.len()];
    let mut values: Vec<K> = Vec::with_capacity(sa.len());
    for (r, &pos) in sa.iter().enumerate() {
        let l = (lcp.get(r) as u32).min(clip);
        while stack.last().is_some_and(|&(_, top)| top >= l) {
            stack.pop();
        }
        stack.push((r as u32, l));
        let d = doc_of(pos as usize);
        let slot = if delta == 1 {
            d
        } else if ring_at[d] == NO_RANK {
            values.push(K::narrow(0));
            continue;
        } else {
            let c = &mut cursor[d];
            let slot = ring_at[d] as usize + *c as usize;
            *c = if *c as usize + 1 == delta { 0 } else { *c + 1 };
            slot
        };
        let p = std::mem::replace(&mut ring[slot], r as u32);
        values.push(K::narrow(if p == NO_RANK {
            0
        } else {
            1 + stack[stack.partition_point(|&(q, _)| q <= p)].1
        }));
    }
    drop((stack, ring, cursor, ring_at));
    WaveletMatrix::from_vec(values, clip + 1)
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

    /// A raw corpus text: letters `1000 + b`, document `i`'s sentinel `i`.
    struct RawCorpus {
        text: Vec<u32>,
        doc_of: Vec<u32>,
        n_docs: usize,
        sa: SuffixArray,
        lcp: LcpArray,
    }

    impl RawCorpus {
        fn new(docs: &[Vec<u8>]) -> Self {
            let mut text: Vec<u32> = Vec::new();
            let mut doc_of: Vec<u32> = Vec::new();
            for (i, d) in docs.iter().enumerate() {
                text.extend(d.iter().map(|&b| 1000 + u32::from(b)));
                text.push(i as u32);
                doc_of.extend(std::iter::repeat_n(i as u32, d.len() + 1));
            }
            let sa = SuffixArray::from_ints(&text, 1256);
            let lcp = LcpArray::build(&text, &sa);
            Self { text, doc_of, n_docs: docs.len(), sa, lcp }
        }

        fn counter(&self, max_len: usize, delta: usize) -> DocDistinctCounter {
            let doc_of = |pos: usize| self.doc_of[pos] as usize;
            DocDistinctCounter::from_lcp(
                self.sa.sa(),
                &self.lcp,
                doc_of,
                self.n_docs,
                max_len,
                delta,
            )
        }

        /// Symbols left in `pos`'s document at and after `pos`.
        fn remaining(&self, pos: usize) -> usize {
            self.text[pos..].iter().position(|&c| c < 1000).expect("every document ends")
        }

        /// The depth-`d` groups: maximal runs of ranks with `d` symbols
        /// left in their document and adjacent LCPs of at least `d`.
        fn depth_groups(&self, d: usize) -> Vec<SaInterval> {
            let (sa, lcp) = (self.sa.sa(), &self.lcp);
            let mut out = Vec::new();
            let mut r = 0;
            while r < sa.len() {
                if self.remaining(sa[r] as usize) < d {
                    r += 1;
                    continue;
                }
                let mut end = r + 1;
                while end < sa.len() && lcp.get(end) >= d {
                    end += 1;
                }
                out.push(SaInterval { lo: r as u32, hi: end as u32 });
                r = end;
            }
            out
        }

        /// `Σ_S min(Δ, occurrences of S in iv)`.
        fn naive_clipped(&self, iv: SaInterval, delta: usize) -> usize {
            let mut per_doc = vec![0usize; self.n_docs];
            for r in iv.lo..iv.hi {
                per_doc[self.doc_of[self.sa.sa()[r as usize] as usize] as usize] += 1;
            }
            per_doc.iter().map(|&c| c.min(delta)).sum()
        }
    }

    #[test]
    fn distinct_matches_naive() {
        let docs = [b"abab".to_vec(), b"baba".to_vec(), b"aaaa".to_vec()];
        let raw = RawCorpus::new(&docs);
        let counter = raw.counter(4, 1);
        let check = |pat: &[u8], want: usize| {
            let encoded: Vec<u32> = pat.iter().map(|&b| 1000 + u32::from(b)).collect();
            let iv = find_interval(&encoded, &raw.text, &raw.sa);
            assert_eq!(counter.count(iv, pat.len()), want, "pattern {:?}", pat);
        };
        check(b"ab", 2); // abab, baba
        check(b"a", 3);
        check(b"aa", 1); // aaaa only
        check(b"bb", 0);
        check(b"abab", 1);
    }

    #[test]
    fn empty_interval_is_zero() {
        let raw = RawCorpus::new(&[b"ab".to_vec()]);
        assert_eq!(raw.counter(2, 1).count(SaInterval::EMPTY, 1), 0);
    }

    /// Every depth group at every depth `1..=ℓ` of texts whose length sits
    /// at a 64-bit word or 512-bit rank-block boundary, against a naive
    /// distinct count (`Δ = 1`) and a naive clipped tally (`Δ ∈ {2, 3}`).
    #[test]
    fn every_depth_group_at_rank_block_lengths() {
        const ELL: usize = 8;
        for n in [63usize, 64, 65, 511, 512, 513] {
            // Documents of lengths 0..=8 (plus their sentinels) over "ab",
            // the last one cut to make the text exactly `n` long.
            let mut docs: Vec<Vec<u8>> = Vec::new();
            let mut len_so_far = 0;
            while len_so_far < n {
                let k = docs.len();
                let len = (k * 5 % 9).min(n - len_so_far - 1);
                docs.push((0..len).map(|j| ((k + j * j) % 2) as u8).collect());
                len_so_far += len + 1;
            }
            let raw = RawCorpus::new(&docs);
            assert_eq!(raw.text.len(), n);
            for delta in [1, 2, 3] {
                let counter = raw.counter(ELL, delta);
                for d in 1..=ELL {
                    for iv in raw.depth_groups(d) {
                        let want = raw.naive_clipped(iv, delta);
                        assert_eq!(counter.count(iv, d), want, "n {n} Δ {delta} depth {d} {iv:?}");
                    }
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

    fn index_counter(idx: &CorpusIndex, delta: usize) -> DocDistinctCounter {
        DocDistinctCounter::from_lcp(
            idx.suffix_array().sa(),
            idx.lcp(),
            |pos| idx.doc_of(pos),
            idx.n_docs(),
            idx.max_len(),
            delta,
        )
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
            assert_eq!(idx.document_count_in_interval(iv, len), want, "interval {iv:?}");
        }
    }

    /// The counter has `⌈log₂(ℓ+2)⌉` levels at every clip level, whatever
    /// `N` is.
    #[test]
    fn levels_follow_the_length_bound() {
        let (_, idx) = large_corpus();
        let want = (usize::BITS - (idx.max_len() + 1).leading_zeros()) as usize; // ⌈log₂(ℓ+2)⌉
        assert_eq!(want, 7);
        for delta in [1, 3] {
            assert_eq!(index_counter(&idx, delta).matrix.levels(), want, "Δ = {delta}");
        }
    }

    /// Guards against a return to `O(N log N)` bits: the counter must stay
    /// within 1.5× of `N·⌈log₂(ℓ+2)⌉` bits.
    #[test]
    fn heap_bytes_stay_succinct() {
        let (_, idx) = large_corpus();
        let n = idx.text_len();
        let counter = index_counter(&idx, 1);
        let bits_per_value = (usize::BITS - (idx.max_len() + 1).leading_zeros()) as usize;
        let bound = 3 * n * bits_per_value / 16;
        assert!(counter.heap_bytes() <= bound, "{} > {bound} bytes", counter.heap_bytes());
    }
}
