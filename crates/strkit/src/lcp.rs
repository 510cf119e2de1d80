//! Longest-common-prefix arrays (Kasai's algorithm).
//!
//! `lcp[i]` is the length of the longest common prefix of the suffixes
//! ranked `i-1` and `i` in the suffix array (`lcp\[0\] = 0`). It lets us walk
//! the virtual suffix *tree* (branching nodes = LCP intervals), which is how
//! `dpsc-textindex` implements the paper's suffix-tree traversals (Lemma 7,
//! Lemma 21).

use crate::suffix_array::SuffixArray;

/// LCP array companion to a [`SuffixArray`].
#[derive(Debug, Clone)]
pub struct LcpArray {
    lcp: Vec<u32>,
}

impl LcpArray {
    /// Builds the LCP array with Kasai's `O(n)` algorithm.
    ///
    /// Works for any integer text; generic over the symbol type so the same
    /// code serves byte texts and sentinel-augmented integer texts. The
    /// inverse suffix array Kasai walks is built here and freed on return.
    pub fn build<T: PartialEq>(text: &[T], sa: &SuffixArray) -> Self {
        let n = text.len();
        assert_eq!(n, sa.len(), "text/suffix-array length mismatch");
        // Output before scratch: the inverse then takes the larger free
        // block and hands it back whole for the caller's next allocation.
        let mut lcp = vec![0u32; n];
        let rank = sa.inverse();
        let sa_arr = sa.sa();
        let mut h = 0usize;
        for i in 0..n {
            let r = rank[i] as usize;
            if r > 0 {
                let j = sa_arr[r - 1] as usize;
                while i + h < n && j + h < n && text[i + h] == text[j + h] {
                    h += 1;
                }
                lcp[r] = h as u32;
                h = h.saturating_sub(1);
            } else {
                h = 0;
            }
        }
        Self { lcp }
    }

    /// The LCP values; `self.values()\[0\] == 0`.
    #[inline]
    pub fn values(&self) -> &[u32] {
        &self.lcp
    }

    /// Heap memory held by the array, in bytes.
    pub fn heap_bytes(&self) -> usize {
        4 * self.lcp.capacity()
    }

    /// Length.
    #[inline]
    pub fn len(&self) -> usize {
        self.lcp.len()
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lcp.is_empty()
    }
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
            assert_eq!(
                lcp.values()[i] as usize,
                naive_lcp(&text[a..], &text[b..]),
                "rank {i} of {:?}",
                text
            );
        }
        if !text.is_empty() {
            assert_eq!(lcp.values()[0], 0);
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
}
