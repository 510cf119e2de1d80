//! Double polynomial rolling hashes modulo two Mersenne-like primes.
//!
//! No part of the library hashes substrings: the corpus index names a
//! substring exactly by its suffix-array rank (`CorpusIndex::rank_of`).
//! This module stays only for perfbench's `index.hash` replay, which
//! ROADMAP item 12 retires.

const MOD1: u64 = (1 << 61) - 1; // Mersenne prime 2^61 - 1
const MOD2: u64 = (1 << 31) - 1; // Mersenne prime 2^31 - 1
const BASE1: u64 = 0x9E37_79B9; // fixed odd bases
const BASE2: u64 = 0x85EB_CA6B;

#[inline]
fn mul_mod1(a: u64, b: u64) -> u64 {
    // 2^61-1 fits products in u128 with a cheap fold.
    let prod = a as u128 * b as u128;
    let lo = (prod & MOD1 as u128) as u64;
    let hi = (prod >> 61) as u64;
    let mut r = lo + hi;
    if r >= MOD1 {
        r -= MOD1;
    }
    r
}

#[inline]
fn mul_mod2(a: u64, b: u64) -> u64 {
    (a * b) % MOD2
}

/// Precomputed prefix hashes allowing `O(1)` hashes of any substring.
///
/// Holds `12` bytes per text position (the `MOD1` prefixes as `u64`, the
/// `MOD2` prefixes as `u32`) plus `16` bytes per power of the bases.
#[derive(Debug, Clone)]
pub struct RollingHash {
    pre1: Vec<u64>,
    pre2: Vec<u32>,
    /// `BASE1^k` for `k ∈ 0..=text.len()`.
    pow1: Vec<u64>,
    /// `BASE2^k` for `k ∈ 0..=text.len()`.
    pow2: Vec<u64>,
}

/// Hash value of a string: `(h mod p1, h mod p2, length)`. The length is
/// part of the identity, so strings of different lengths never compare
/// equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashValue {
    h1: u64,
    h2: u64,
    len: u32,
}

impl RollingHash {
    /// Preprocesses `text` over any integer alphabet in `O(n)`.
    pub fn new(text: &[u32]) -> Self {
        let mut pre1 = Vec::with_capacity(text.len() + 1);
        let mut pre2 = Vec::with_capacity(text.len() + 1);
        let (mut h1, mut h2) = (0u64, 0u64);
        pre1.push(h1);
        pre2.push(h2 as u32);
        for &c in text {
            // Symbols are shifted by `+1` so the zero symbol does not
            // collide with "absent".
            let c1 = u64::from(c) + 1;
            h1 = (mul_mod1(h1, BASE1) + c1) % MOD1;
            h2 = (mul_mod2(h2, BASE2) + c1) % MOD2;
            pre1.push(h1);
            pre2.push(h2 as u32); // h2 < MOD2 < 2^31
        }
        let mut pow1 = Vec::with_capacity(text.len() + 1);
        let mut pow2 = Vec::with_capacity(text.len() + 1);
        let (mut p1, mut p2) = (1u64, 1u64);
        for _ in 0..=text.len() {
            pow1.push(p1);
            pow2.push(p2);
            p1 = mul_mod1(p1, BASE1);
            p2 = mul_mod2(p2, BASE2);
        }
        Self { pre1, pre2, pow1, pow2 }
    }

    /// Hash of `text[lo..hi)`.
    ///
    /// # Panics
    /// Panics unless `lo <= hi <= text.len()`.
    pub fn substring(&self, lo: usize, hi: usize) -> HashValue {
        assert!(lo <= hi && hi < self.pre1.len(), "substring range out of bounds");
        let len = hi - lo;
        let h1 = (self.pre1[hi] + MOD1 - mul_mod1(self.pre1[lo], self.pow1[len])) % MOD1;
        let h2 = (u64::from(self.pre2[hi]) + MOD2
            - mul_mod2(u64::from(self.pre2[lo]), self.pow2[len]))
            % MOD2;
        HashValue { h1, h2, len: len as u32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbols(text: &[u8]) -> Vec<u32> {
        text.iter().map(|&b| u32::from(b)).collect()
    }

    #[test]
    fn substring_equality() {
        let h = RollingHash::new(&symbols(b"abracadabra"));
        // "abra" at 0 and 7.
        assert_eq!(h.substring(0, 4), h.substring(7, 11));
        // "a" everywhere.
        assert_eq!(h.substring(0, 1), h.substring(3, 4));
        assert_ne!(h.substring(0, 1), h.substring(1, 2));
        // Different lengths never equal even with same prefix.
        assert_ne!(h.substring(0, 1), h.substring(0, 2));
        // Empty substrings are equal wherever they start.
        assert_eq!(h.substring(0, 0), h.substring(11, 11));
    }

    #[test]
    fn equal_substrings_of_two_texts_agree() {
        let a = RollingHash::new(&symbols(b"hello world"));
        let b = RollingHash::new(&symbols(b"say hello"));
        assert_eq!(a.substring(0, 5), b.substring(4, 9));
        assert_ne!(a.substring(6, 11), b.substring(4, 9));
    }

    #[test]
    #[should_panic(expected = "substring range out of bounds")]
    fn out_of_bounds_substring_panics() {
        RollingHash::new(&symbols(b"abracadabra")).substring(2, 12);
    }
}
