//! Longest-common-prefix arrays (Kasai's algorithm).
//!
//! `lcp[i]` is the length of the longest common prefix of the suffixes
//! ranked `i-1` and `i` in the suffix array (`lcp\[0\] = 0`). It lets us walk
//! the virtual suffix *tree* (branching nodes = LCP intervals), which is how
//! `dpsc-textindex` implements the paper's suffix-tree traversals (Lemma 7,
//! Lemma 21).
//!
//! Storage is one byte per rank: values below 255 sit in a `Vec<u8>`, and
//! the rest are escaped to 255 there and listed in a table of
//! `(rank, value)` pairs sorted by rank. This is the LCP layout of the
//! enhanced suffix array (Abouelhoda, Kurtz & Ohlebusch, "Replacing suffix
//! trees with enhanced suffix arrays", J. Discrete Algorithms 2004). Over a
//! corpus no common prefix crosses a document's end, so every value is at
//! most the longest document `ℓ`, and the table is empty whenever
//! `ℓ < 255`. Every reader goes through [`LcpArray::get`].

use crate::suffix_array::SuffixArray;

/// The byte that marks a value held in the exception table.
const ESCAPE: u8 = u8::MAX;

/// LCP array companion to a [`SuffixArray`].
#[derive(Debug, Clone)]
pub struct LcpArray {
    /// `lcp[r]`, or [`ESCAPE`] where the value is at least 255.
    small: Vec<u8>,
    /// `(rank, value)` for every escaped rank, sorted by rank.
    large: Vec<(u32, u32)>,
}

impl LcpArray {
    /// Builds the LCP array with Kasai's `O(n)` algorithm.
    ///
    /// Works for any integer text; generic over the symbol type so the same
    /// code serves byte texts and sentinel-augmented integer texts. The
    /// inverse suffix array Kasai walks is built here and freed on return.
    pub fn build<T: PartialEq>(text: &[T], sa: &SuffixArray) -> Self {
        let rank = sa.inverse();
        kasai(text, sa, &rank, |_| false)
    }

    /// Builds the LCP array of a text whose documents each end in the same
    /// separator symbol, reading the caller's inverse suffix array `isa`
    /// (`isa[sa[r]] == r`) instead of building one.
    ///
    /// A common prefix stops at the separator: the values are those of the
    /// same text with a distinct separator per document, whose suffix array
    /// `sa` must be.
    pub fn build_separated<T: PartialEq>(
        text: &[T],
        sa: &SuffixArray,
        isa: &[u32],
        separator: T,
    ) -> Self {
        assert_eq!(isa.len(), sa.len(), "suffix array/inverse length mismatch");
        kasai(text, sa, isa, |c| *c == separator)
    }

    /// `lcp[r]`: the longest common prefix of the suffixes ranked `r - 1`
    /// and `r` (0 for `r = 0`). One byte read, and a binary search of the
    /// exception table for a value of 255 or more.
    #[inline]
    pub fn get(&self, r: usize) -> usize {
        match self.small[r] {
            ESCAPE => self.exception(r),
            v => v as usize,
        }
    }

    #[cold]
    fn exception(&self, r: usize) -> usize {
        let k = self.large.partition_point(|&(q, _)| (q as usize) < r);
        self.large[k].1 as usize
    }

    /// Heap memory held by the array, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.small.capacity() + std::mem::size_of::<(u32, u32)>() * self.large.capacity()
    }

    /// Length.
    #[inline]
    pub fn len(&self) -> usize {
        self.small.len()
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.small.is_empty()
    }
}

/// Kasai's pass over the text in position order: the common prefix of the
/// suffix at `i` and its predecessor in `sa` is at least one less than that
/// of `i - 1`'s, so `h` only grows by the symbols it compares. It stops at
/// the end of the text and at a symbol for which `stop` holds.
fn kasai<T: PartialEq>(
    text: &[T],
    sa: &SuffixArray,
    rank: &[u32],
    stop: impl Fn(&T) -> bool,
) -> LcpArray {
    let n = text.len();
    assert_eq!(n, sa.len(), "text/suffix-array length mismatch");
    let mut small = vec![0u8; n];
    let mut large = Vec::new();
    let sa_arr = sa.sa();
    let mut h = 0usize;
    for i in 0..n {
        let r = rank[i] as usize;
        if r > 0 {
            let j = sa_arr[r - 1] as usize;
            while i + h < n && j + h < n && text[i + h] == text[j + h] && !stop(&text[i + h]) {
                h += 1;
            }
            if h < ESCAPE as usize {
                small[r] = h as u8;
            } else {
                small[r] = ESCAPE;
                large.push((r as u32, h as u32));
            }
            h = h.saturating_sub(1);
        } else {
            h = 0;
        }
    }
    // Kasai visits ranks in text order.
    large.sort_unstable();
    large.shrink_to_fit();
    LcpArray { small, large }
}

/// Naive LCP of two slices, for testing.
pub fn naive_lcp<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(text: &[u8]) {
        let sa = SuffixArray::from_bytes(text);
        let lcp = LcpArray::build(text, &sa);
        for i in 1..text.len() {
            let a = sa.sa()[i - 1] as usize;
            let b = sa.sa()[i] as usize;
            assert_eq!(lcp.get(i), naive_lcp(&text[a..], &text[b..]), "rank {i} of {:?}", text);
        }
        if !text.is_empty() {
            assert_eq!(lcp.get(0), 0);
        }
    }

    #[test]
    fn kasai_matches_naive() {
        check(b"");
        check(b"a");
        check(b"banana");
        check(b"mississippi");
        check(b"aaaaaa");
        check(b"abcabcabc");
        check(b"abaababaabaab");
    }

    /// A unary run has every value from 0 to `n − 1`, so the values from
    /// 255 up all go through the exception table.
    #[test]
    fn long_common_prefixes_escape_to_the_table() {
        let text = vec![b'a'; 600];
        check(&text);
        let sa = SuffixArray::from_bytes(&text);
        let lcp = LcpArray::build(&text, &sa);
        assert_eq!(lcp.large.len(), 600 - 255);
        assert_eq!(lcp.heap_bytes(), 600 + 8 * lcp.large.len());
    }

    /// With a shared separator the values are those of distinct sentinels:
    /// two documents' common prefix ends at the first separator.
    #[test]
    fn separated_values_stop_at_the_separator() {
        // "ab#ab#" with # = 0 sorts as the sentinel text "ab$0ab$1".
        let ints = [2u32, 3, 0, 2, 3, 1];
        let sa = SuffixArray::from_ints(&ints, 4);
        let text = [1u8, 2, 0, 1, 2, 0];
        let lcp = LcpArray::build_separated(&text, &sa, &sa.inverse(), 0);
        let want = LcpArray::build(&ints, &sa);
        for r in 0..text.len() {
            assert_eq!(lcp.get(r), want.get(r), "rank {r}");
        }
    }
}
