//! Double polynomial rolling hashes modulo two Mersenne-like primes.
//!
//! Used as the fast path for substring-concatenation lookups (the paper's
//! substring concatenation queries of \[7, 8\]): given candidate halves `Q_1`,
//! `Q_2`, we can compare `hash(Q_1 · Q_2)` against precomputed substring
//! hashes of the corpus in `O(1)` and fall back to suffix-array binary search
//! to confirm (hashes alone are probabilistic; the SA confirms exactly).
//!
//! Callers that only ever hash short substrings of a long text build the
//! table with [`RollingHash::with_max_len`], which keeps the prefix hashes
//! (12 bytes per position) but only `max_len + 1` powers of each base.

const MOD1: u64 = (1 << 61) - 1; // Mersenne prime 2^61 - 1
const MOD2: u64 = (1 << 31) - 1; // Mersenne prime 2^31 - 1
const BASE1: u64 = 0x9E37_79B9; // fixed odd bases; collision analysis below
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

/// Precomputed prefix hashes allowing `O(1)` hashes of any substring of
/// length at most `max_len`, and `O(1)` hashes of concatenations up to that
/// length.
///
/// Holds `12` bytes per text position (the `MOD1` prefixes as `u64`, the
/// `MOD2` prefixes as `u32`) plus `16` bytes per power up to `max_len`.
///
/// The false-positive probability of a single comparison over a corpus of
/// length `N` is roughly `N / 2^92` (two independent moduli), negligible for
/// every workload in this repository; exact confirmation paths exist where
/// correctness is load-bearing.
#[derive(Debug, Clone)]
pub struct RollingHash {
    pre1: Vec<u64>,
    pre2: Vec<u32>,
    /// `BASE1^k` for `k ∈ 0..=max_len`.
    pow1: Vec<u64>,
    /// `BASE2^k` for `k ∈ 0..=max_len`.
    pow2: Vec<u64>,
}

/// Hash value of a string: `(h mod p1, h mod p2, length)`.
///
/// The length is part of the identity so that concatenation is well defined
/// and strings of different lengths never compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashValue {
    h1: u64,
    h2: u64,
    len: u32,
}

impl HashValue {
    /// Hash of the empty string.
    pub const EMPTY: Self = Self { h1: 0, h2: 0, len: 0 };

    /// Length of the hashed string.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether this hashes the empty string.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// 64-bit fingerprint mixing both residues and the length (SplitMix64
    /// finalizer). Used as the probe key of open-addressed candidate
    /// tables; full [`HashValue`] equality is still checked per slot, so
    /// fingerprint collisions cost a probe, never a wrong answer.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        let mut z = self.h1 ^ self.h2.rotate_left(29) ^ ((self.len as u64) << 1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RollingHash {
    /// Preprocesses `text` over any integer alphabet in `O(n)`; substrings
    /// of any length can be hashed.
    pub fn new(text: &[u32]) -> Self {
        Self::with_max_len(text, text.len())
    }

    /// Preprocesses `text` in `O(n + max_len)` for substrings and
    /// concatenations of length at most `max_len`: only `max_len + 1`
    /// powers of each base are kept.
    pub fn with_max_len(text: &[u32], max_len: usize) -> Self {
        let mut pre1 = Vec::with_capacity(text.len() + 1);
        let mut pre2 = Vec::with_capacity(text.len() + 1);
        let (mut h1, mut h2) = (0u64, 0u64);
        pre1.push(h1);
        pre2.push(h2 as u32);
        for &c in text {
            (h1, h2) = push_symbol(h1, h2, c);
            pre1.push(h1);
            pre2.push(h2 as u32); // h2 < MOD2 < 2^31
        }
        let mut pow1 = Vec::with_capacity(max_len + 1);
        let mut pow2 = Vec::with_capacity(max_len + 1);
        let (mut p1, mut p2) = (1u64, 1u64);
        for _ in 0..=max_len {
            pow1.push(p1);
            pow2.push(p2);
            p1 = mul_mod1(p1, BASE1);
            p2 = mul_mod2(p2, BASE2);
        }
        Self { pre1, pre2, pow1, pow2 }
    }

    /// Preprocesses a byte text.
    pub fn from_bytes(text: &[u8]) -> Self {
        let ints: Vec<u32> = text.iter().map(|&b| b as u32).collect();
        Self::new(&ints)
    }

    /// Longest substring or concatenation this table can hash.
    #[inline]
    fn max_len(&self) -> usize {
        self.pow1.len() - 1
    }

    /// Heap memory held by the prefix and power tables, in bytes.
    pub fn heap_bytes(&self) -> usize {
        8 * (self.pre1.capacity() + self.pow1.capacity() + self.pow2.capacity())
            + 4 * self.pre2.capacity()
    }

    /// Hash of `text[lo..hi)`.
    ///
    /// # Panics
    /// Panics unless `lo <= hi <= text.len()` and `hi - lo <= max_len`.
    pub fn substring(&self, lo: usize, hi: usize) -> HashValue {
        assert!(lo <= hi && hi < self.pre1.len(), "substring range out of bounds");
        let len = hi - lo;
        assert!(len <= self.max_len(), "substring longer than max_len");
        let h1 = (self.pre1[hi] + MOD1 - mul_mod1(self.pre1[lo], self.pow1[len])) % MOD1;
        let h2 = (u64::from(self.pre2[hi]) + MOD2
            - mul_mod2(u64::from(self.pre2[lo]), self.pow2[len]))
            % MOD2;
        HashValue { h1, h2, len: len as u32 }
    }

    /// Hash of the concatenation `a · b` in `O(1)`.
    ///
    /// # Panics
    /// Panics if `a.len() + b.len() > max_len`.
    pub fn concat(&self, a: HashValue, b: HashValue) -> HashValue {
        assert!(a.len() + b.len() <= self.max_len(), "concatenation longer than max_len");
        let h1 = (mul_mod1(a.h1, self.pow1[b.len as usize]) + b.h1) % MOD1;
        let h2 = (mul_mod2(a.h2, self.pow2[b.len as usize]) + b.h2) % MOD2;
        HashValue { h1, h2, len: a.len + b.len }
    }
}

/// Appends symbol `c` to a string with residues `(h1, h2)`. Symbols are
/// shifted by `+1` so the zero symbol does not collide with "absent".
#[inline]
fn push_symbol(h1: u64, h2: u64, c: u32) -> (u64, u64) {
    let c1 = u64::from(c) + 1;
    ((mul_mod1(h1, BASE1) + c1) % MOD1, (mul_mod2(h2, BASE2) + c1) % MOD2)
}

/// Hashes a standalone string of integer symbols with the same parameters,
/// so results are comparable to [`RollingHash::substring`] values over a
/// text in the same symbol space. Allocation-free.
pub fn hash_symbols(symbols: impl IntoIterator<Item = u32>) -> HashValue {
    let (mut h1, mut h2, mut len) = (0u64, 0u64, 0u32);
    for c in symbols {
        (h1, h2) = push_symbol(h1, h2, c);
        len += 1;
    }
    HashValue { h1, h2, len }
}

/// Hashes an arbitrary standalone byte string with the same parameters, so
/// results are comparable to [`RollingHash::substring`] values.
pub fn hash_bytes(s: &[u8]) -> HashValue {
    hash_symbols(s.iter().map(|&b| u32::from(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substring_equality() {
        let text = b"abracadabra";
        let h = RollingHash::from_bytes(text);
        // "abra" at 0 and 7.
        assert_eq!(h.substring(0, 4), h.substring(7, 11));
        // "a" everywhere.
        assert_eq!(h.substring(0, 1), h.substring(3, 4));
        assert_ne!(h.substring(0, 1), h.substring(1, 2));
        // Different lengths never equal even with same prefix.
        assert_ne!(h.substring(0, 1), h.substring(0, 2));
    }

    #[test]
    fn concat_matches_direct() {
        let text = b"abcabcxyz";
        let h = RollingHash::from_bytes(text);
        let ab = h.substring(0, 2);
        let cx = h.substring(5, 7);
        let cat = h.concat(ab, cx);
        assert_eq!(cat, hash_bytes(b"abcx"));
        assert_eq!(h.concat(HashValue::EMPTY, ab), ab);
        assert_eq!(h.concat(ab, HashValue::EMPTY), ab);
    }

    #[test]
    fn standalone_matches_preprocessed() {
        let text = b"hello world";
        let h = RollingHash::from_bytes(text);
        assert_eq!(h.substring(0, 5), hash_bytes(b"hello"));
        assert_eq!(h.substring(6, 11), hash_bytes(b"world"));
        assert_eq!(h.substring(0, 0), HashValue::EMPTY);
    }

    #[test]
    fn max_len_table_agrees_with_full_table() {
        let text: Vec<u32> = b"mississippi banana abracadabra".iter().map(|&b| b as u32).collect();
        let full = RollingHash::new(&text);
        for max_len in [1, 4, 7] {
            let capped = RollingHash::with_max_len(&text, max_len);
            assert_eq!(capped.max_len(), max_len);
            for lo in 0..=text.len() {
                for hi in lo..=text.len().min(lo + max_len) {
                    assert_eq!(capped.substring(lo, hi), full.substring(lo, hi), "[{lo},{hi})");
                }
            }
            let (a, b) =
                (full.substring(0, max_len / 2), full.substring(3, 3 + max_len - max_len / 2));
            assert_eq!(capped.concat(a, b), full.concat(a, b));
        }
    }

    #[test]
    #[should_panic(expected = "substring longer than max_len")]
    fn max_len_table_refuses_longer_substrings() {
        let text: Vec<u32> = b"abracadabra".iter().map(|&b| b as u32).collect();
        RollingHash::with_max_len(&text, 4).substring(2, 7);
    }

    #[test]
    #[should_panic(expected = "concatenation longer than max_len")]
    fn max_len_table_refuses_longer_concatenations() {
        let text: Vec<u32> = b"abracadabra".iter().map(|&b| b as u32).collect();
        let h = RollingHash::with_max_len(&text, 4);
        h.concat(h.substring(0, 3), h.substring(5, 7));
    }
}
