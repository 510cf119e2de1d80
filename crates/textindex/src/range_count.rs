//! Wavelet matrix: static range counting of values below a bound.
//!
//! The wavelet matrix ("The wavelet matrix: An efficient wavelet tree for
//! large alphabets", Information Systems 47, 2015) stores `N` values of `b`
//! bits as `b` bit vectors of length `N`, `N·b` bits plus a 25% rank
//! directory, and answers [`WaveletMatrix::count_less`] with `2b` rank
//! queries. This powers the document and clipped counting of
//! [`crate::doc_counter`], whose values are depths of at most `ℓ + 1`, so
//! `b = ⌈log₂(ℓ+2)⌉`.

use crate::Narrow;

/// Bit vector with a rank9 directory (Vigna, "Broadword implementation of
/// rank/select queries", WEA 2008), interleaved with the bits: each 512-bit
/// block carries the count of ones before it and seven 9-bit counts of the
/// ones before each later word of the block. A rank reads one block.
/// Besides the matrix levels, `CorpusIndex` keeps one over its sentinel
/// positions to map a text position to its document.
#[derive(Debug, Clone)]
pub(crate) struct RankBits {
    /// `len / 512 + 1` blocks, so `rank1(len)` reads a block too.
    blocks: Vec<RankBlock>,
}

#[derive(Debug, Clone, Copy, Default)]
struct RankBlock {
    /// Ones before the block.
    before: u64,
    /// Ones before word `w ∈ 1..8` of the block, at bits `9(w − 1)..9w`.
    in_block: u64,
    words: [u64; 8],
}

impl RankBits {
    /// Takes the bits as little-endian `u64` words.
    pub(crate) fn new(words: &[u64]) -> Self {
        let mut blocks = Vec::with_capacity(words.len() / 8 + 1);
        let mut before = 0u64;
        for k in 0..=words.len() / 8 {
            let chunk = &words[8 * k..(8 * k + 8).min(words.len())];
            let mut block = RankBlock { before, ..RankBlock::default() };
            block.words[..chunk.len()].copy_from_slice(chunk);
            for (w, x) in block.words.iter().enumerate() {
                if w > 0 {
                    block.in_block |= (before - block.before) << (9 * (w - 1));
                }
                before += u64::from(x.count_ones());
            }
            blocks.push(block);
        }
        Self { blocks }
    }

    /// Ones among the first `i` bits.
    #[inline]
    pub(crate) fn rank1(&self, i: usize) -> usize {
        let block = &self.blocks[i / 512];
        let w = (i / 64) % 8;
        // For w = 0 the wrapped shift lands on `in_block`'s always-zero top
        // bit, so the in-block count needs no branch (Vigna's trick).
        let t = (w as u64).wrapping_sub(1);
        let shift = t.wrapping_add((t >> 60) & 8).wrapping_mul(9);
        let sub = (block.in_block >> shift) & 0x1FF;
        let partial = (block.words[w] & ((1u64 << (i % 64)) - 1)).count_ones();
        (block.before + sub) as usize + partial as usize
    }

    /// Heap memory held by the blocks, in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<RankBlock>() * self.blocks.capacity()
    }
}

/// Wavelet matrix over `u32` values: level `k` holds bit `b − 1 − k` of
/// every value, in the order left by stably partitioning on the bits above
/// it (zeros first).
#[derive(Debug, Clone)]
pub struct WaveletMatrix {
    /// Most significant bit first.
    levels: Vec<RankBits>,
    /// Number of zeros at each level.
    zeros: Vec<usize>,
    n: usize,
}

impl WaveletMatrix {
    /// Builds the matrix over `values`, with `⌈log₂(max + 1)⌉` levels.
    pub fn build(values: &[u32]) -> Self {
        Self::from_vec(values.to_vec(), values.iter().copied().max().unwrap_or(0))
    }

    /// The matrix over an owned buffer of values at most `max`, with
    /// `⌈log₂(max + 1)⌉` levels. The buffer becomes the first level's
    /// scratch: the build then allocates one more value of the buffer's
    /// width per value besides the levels themselves, so a caller whose
    /// values fit a byte passes bytes.
    pub(crate) fn from_vec<K: Narrow>(mut cur: Vec<K>, max: u32) -> Self {
        let n = cur.len();
        debug_assert!(cur.iter().all(|&v| v.into() <= max), "a value exceeds the declared maximum");
        let bits = u32::BITS - max.leading_zeros();
        let mut next = vec![K::narrow(0); n];
        let mut levels = Vec::with_capacity(bits as usize);
        let mut zeros = Vec::with_capacity(bits as usize);
        for level in 0..bits {
            let shift = bits - 1 - level;
            let mut words = vec![0u64; n.div_ceil(64)];
            for (word, chunk) in words.iter_mut().zip(cur.chunks(64)) {
                for (k, &v) in chunk.iter().enumerate() {
                    *word |= u64::from((v.into() >> shift) & 1) << k;
                }
            }
            let z = n - words.iter().map(|w| w.count_ones() as usize).sum::<usize>();
            // Branchless stable partition: zeros fill `next[..z]` and ones
            // `next[z..]`, each value written at the cursor its bit selects.
            // No level reads the order after the last one.
            if shift > 0 {
                let (mut zero_at, mut one_at) = (0usize, z);
                for &v in &cur {
                    let bit = ((v.into() >> shift) & 1) as usize;
                    next[if bit == 0 { zero_at } else { one_at }] = v;
                    zero_at += 1 - bit;
                    one_at += bit;
                }
                std::mem::swap(&mut cur, &mut next);
            }
            levels.push(RankBits::new(&words));
            zeros.push(z);
        }
        Self { levels, zeros, n }
    }

    /// Number of indices `i ∈ [lo, hi)` with `values[i] < bound`.
    ///
    /// Walks the levels top down with two ranks per level: where `bound`
    /// has a one bit, every value in the range with a zero there is smaller.
    pub fn count_less(&self, lo: usize, hi: usize, bound: u32) -> usize {
        assert!(lo <= hi && hi <= self.n, "range out of bounds");
        let bits = self.levels.len() as u32;
        if u64::from(bound) >> bits != 0 {
            return hi - lo;
        }
        let (mut l, mut r) = (lo, hi);
        let mut total = 0usize;
        for (k, (bv, &z)) in self.levels.iter().zip(&self.zeros).enumerate() {
            if l == r {
                break;
            }
            let (l1, r1) = (bv.rank1(l), bv.rank1(r));
            if (bound >> (bits - 1 - k as u32)) & 1 == 1 {
                total += (r - r1) - (l - l1);
                l = z + l1;
                r = z + r1;
            } else {
                l -= l1;
                r -= r1;
            }
        }
        total
    }

    /// Number of bit levels, `⌈log₂(max + 1)⌉`.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Heap memory held by the matrix, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.levels.iter().map(RankBits::heap_bytes).sum::<usize>()
            + std::mem::size_of::<RankBits>() * self.levels.capacity()
            + std::mem::size_of::<usize>() * self.zeros.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(values: &[u32], lo: usize, hi: usize, bound: u32) -> usize {
        values[lo..hi].iter().filter(|&&v| v < bound).count()
    }

    #[test]
    fn matches_naive_exhaustive() {
        let values: Vec<u32> = vec![3, 0, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7];
        let wm = WaveletMatrix::build(&values);
        for lo in 0..values.len() {
            for hi in lo..=values.len() {
                for bound in [0, 1, 3, 5, 9, 10, 16, u32::MAX] {
                    assert_eq!(
                        wm.count_less(lo, hi, bound),
                        naive(&values, lo, hi, bound),
                        "[{lo},{hi}) bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_matches_naive_across_block_boundaries() {
        for n in [1usize, 63, 64, 65, 511, 512, 513, 1023, 1024, 1025, 4097] {
            let mut words: Vec<u64> = (0..n.div_ceil(64) as u64)
                .map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(k as u32))
                .collect();
            if n % 64 != 0 {
                words[n / 64] &= (1u64 << (n % 64)) - 1;
            }
            let bits = RankBits::new(&words);
            let mut want = 0usize;
            for i in 0..=n {
                assert_eq!(bits.rank1(i), want, "n {n} i {i}");
                if i < n {
                    want += ((words[i / 64] >> (i % 64)) & 1) as usize;
                }
            }
        }
    }
}
