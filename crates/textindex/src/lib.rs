//! # dpsc-textindex — corpus indexing substrate
//!
//! The generalized suffix index over a database `D = S_1, …, S_n` that every
//! mechanism in this system queries for *true* counts before adding noise:
//!
//! * [`CorpusIndex`] — suffix array + LCP + inverse suffix array over
//!   `S_1 $_1 … S_n $_n` (the construction in the paper's Lemma 7), exposing
//!   `count(P, D)`, the clipped `count_Δ(P, D)`, and `Document Count`
//!   lookups.
//! * [`doc_counter::DocDistinctCounter`] — distinct-document and clipped
//!   counting over suffix-array intervals via Sadakane's depth-keyed
//!   reduction and a wavelet matrix ([`range_count::WaveletMatrix`]),
//!   `O(log ℓ)` per query in `N·⌈log₂(ℓ+2)⌉` bits plus a rank directory;
//!   [`ClippedCounter`] picks the counter for a clip level `Δ`.
//! * [`qgrams::depth_groups`] — enumeration of the distinct length-`d`
//!   substrings (the `d`-minimal suffix-tree nodes of Lemma 21), the engine
//!   of the fast (ε,δ)-DP q-gram construction (Theorem 4).
//!
//! Everything here is *non-private*: it computes exact counts. Privacy lives
//! in `dpsc-dpcore` / `dpsc-private-count`, which consume these counts.

pub mod corpus;
pub mod doc_counter;
pub mod qgrams;
pub mod range_count;

pub use corpus::{ClippedCounter, CorpusIndex};
pub use doc_counter::DocDistinctCounter;
pub use qgrams::{depth_groups, DepthGroup};
pub use range_count::WaveletMatrix;

/// The unsigned widths the index keeps small values in: the corpus text's
/// symbols and the document counter's depth keys. Each is chosen once per
/// build as the narrowest that holds the largest value.
pub(crate) trait Narrow: Copy + Eq + Into<u32> {
    /// The largest value of the width.
    const MAX: u32;
    /// `v`, which the caller has checked is at most [`Self::MAX`].
    fn narrow(v: u32) -> Self;
}

macro_rules! narrow {
    ($($t:ty),*) => {$(
        impl Narrow for $t {
            const MAX: u32 = <$t>::MAX as u32;
            #[inline]
            fn narrow(v: u32) -> Self {
                debug_assert!(v <= <Self as Narrow>::MAX);
                v as $t
            }
        }
    )*};
}
narrow!(u8, u16, u32);
