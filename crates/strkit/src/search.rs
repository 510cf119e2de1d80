//! Pattern search over suffix arrays.
//!
//! Finds the *suffix-array interval* of a pattern: the contiguous range of
//! ranks whose suffixes start with the pattern. Its width is exactly
//! `count(P, text)`, which is the quantity all the paper's mechanisms
//! privatize. Binary search costs `O(|P| log n)` per lookup — the paper's
//! fancier `O(log log)` substring-concatenation structure is substituted by
//! this plus exact rank lookups in the inverse suffix array (DESIGN.md §2).

use crate::suffix_array::SuffixArray;

/// Half-open interval `[lo, hi)` of suffix-array ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaInterval {
    /// First rank whose suffix starts with the pattern.
    pub lo: u32,
    /// One past the last such rank.
    pub hi: u32,
}

impl SaInterval {
    /// An empty interval.
    pub const EMPTY: Self = Self { lo: 0, hi: 0 };

    /// Number of occurrences represented by the interval.
    #[inline]
    pub fn count(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the interval is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// Compares `pattern` against the prefix of `text[suffix..]`.
///
/// Returns `Less`/`Greater` like a lexicographic comparison where the suffix
/// is truncated to `pattern.len()` symbols; `Equal` means the suffix starts
/// with the pattern.
#[inline]
fn cmp_prefix<T: Ord>(pattern: &[T], text: &[T], suffix: usize) -> std::cmp::Ordering {
    let avail = &text[suffix..];
    let k = pattern.len().min(avail.len());
    match avail[..k].cmp(&pattern[..k]) {
        std::cmp::Ordering::Equal => {
            if avail.len() >= pattern.len() {
                std::cmp::Ordering::Equal
            } else {
                // The suffix is a proper prefix of the pattern → suffix < P.
                std::cmp::Ordering::Less
            }
        }
        other => other,
    }
}

/// Finds the suffix-array interval of `pattern` in `text` under `sa`.
///
/// `O(|P| log n)` time. Returns [`SaInterval::EMPTY`]-like `lo == hi`
/// intervals when the pattern is absent. The empty pattern matches every
/// suffix, i.e. the full interval `[0, n)`.
pub fn find_interval<T: Ord>(pattern: &[T], text: &[T], sa: &SuffixArray) -> SaInterval {
    let n = sa.len();
    if pattern.is_empty() {
        return SaInterval { lo: 0, hi: n as u32 };
    }
    let sa_arr = sa.sa();
    // Lower bound: first rank with suffix >= P (prefix-truncated ordering).
    let lo = partition_point(n, |r| {
        cmp_prefix(pattern, text, sa_arr[r] as usize) == std::cmp::Ordering::Less
    });
    // Upper bound: first rank with suffix > P, i.e. not (suffix starts with P
    // or suffix < P).
    let hi = partition_point(n, |r| {
        cmp_prefix(pattern, text, sa_arr[r] as usize) != std::cmp::Ordering::Greater
    });
    SaInterval { lo: lo as u32, hi: hi as u32 }
}

/// First index in `[0, n)` where `pred` flips from true to false
/// (`pred` must be monotone).
fn partition_point(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Total number of occurrences of `pattern` in `text` via the suffix array.
pub fn count_occurrences<T: Ord>(pattern: &[T], text: &[T], sa: &SuffixArray) -> usize {
    find_interval(pattern, text, sa).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_count;

    fn check_all_patterns(text: &[u8], max_pat: usize) {
        let sa = SuffixArray::from_bytes(text);
        // Every substring of the text plus some absent patterns.
        let mut pats: Vec<Vec<u8>> = Vec::new();
        for i in 0..text.len() {
            for j in i + 1..=text.len().min(i + max_pat) {
                pats.push(text[i..j].to_vec());
            }
        }
        pats.push(b"zzz".to_vec());
        pats.push(b"".to_vec());
        for p in pats {
            assert_eq!(
                count_occurrences(&p[..], text, &sa),
                naive_count(&p, text),
                "pattern {:?} in {:?}",
                p,
                text
            );
        }
    }

    #[test]
    fn counts_match_naive() {
        check_all_patterns(b"banana", 6);
        check_all_patterns(b"mississippi", 5);
        check_all_patterns(b"aaaaaa", 6);
        check_all_patterns(b"abcabcab", 4);
    }

    #[test]
    fn interval_positions_are_occurrences() {
        let text = b"abracadabra";
        let sa = SuffixArray::from_bytes(text);
        let iv = find_interval(b"abra", text, &sa);
        let mut pos: Vec<u32> = sa.sa()[iv.lo as usize..iv.hi as usize].to_vec();
        pos.sort_unstable();
        assert_eq!(pos, vec![0, 7]);
    }

    #[test]
    fn integer_text_search() {
        let text: Vec<u32> = vec![5, 1, 5, 1, 5, 9, 5, 1];
        let sa = SuffixArray::from_ints(&text, 10);
        assert_eq!(count_occurrences(&[5u32, 1], &text, &sa), 3);
        assert_eq!(count_occurrences(&[5u32, 9], &text, &sa), 1);
        assert_eq!(count_occurrences(&[9u32, 9], &text, &sa), 0);
    }
}
