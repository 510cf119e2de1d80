//! # dpsc-private-count — the paper's core contribution
//!
//! Differentially private data structures for substring and document
//! counting (Bernardini–Bille–Gørtz–Steiner, PODS 2025):
//!
//! * [`builder::build_pure`] — **Theorem 1**: ε-DP structure for `count_Δ`
//!   with additive error `Õ(ℓ/ε)`, built from a private candidate set
//!   ([`candidates`], Lemma 6), a heavy-path-decomposed trie, noisy root
//!   counts, and binary-tree-mechanism prefix sums ([`pipeline`]).
//! * [`builder::build_approx`] — **Theorem 2**: (ε,δ)-DP variant with error
//!   `Õ(√(ℓΔ)/ε)` via Gaussian noise and the Hölder L2 bound.
//! * [`qgram::build_qgram_pure`] — **Theorem 3**: simplified ε-DP pipeline
//!   for fixed-length q-grams.
//! * [`qgram_fast::build_qgram_fast`] — **Theorem 4**: near-linear-time
//!   (ε,δ)-DP q-gram counting using the zero-count-skipping trick
//!   (Lemma 19) over suffix-tree depth groups (Lemma 21).
//! * [`structure::PrivateCountStructure`] — the published artifact:
//!   `O(|P|)` queries, arbitrary-threshold frequent-pattern
//!   [`mining`](structure::PrivateCountStructure::mine) with **no further
//!   privacy loss** (post-processing).
//! * [`synopsis::FrozenSynopsis`] — the serving layer: the published trie
//!   flattened into an immutable CSR index with allocation-free lookups,
//!   batch query paths, and a checksummed binary codec.
//! * [`baseline::build_simple_trie`] — the `Ω(ℓ²)`-error prior-work
//!   baseline the paper improves on (\[10, 18, 19, 50, 51, 72\]).
//! * [`mining::evaluate_mining`] — Definition 2 contract auditing.
//!
//! ## Privacy model
//! Neighboring databases replace one whole document (user-level privacy for
//! one-document users). All noise calibration is against the *declared*
//! maximum document length `ℓ`. Only the construction touches the data;
//! everything answered from the structure afterwards is post-processing.

pub mod baseline;
pub mod builder;
pub mod candidates;
pub mod codec;
mod codec_v3;
pub mod mining;
pub mod pipeline;
pub mod qgram;
pub mod qgram_fast;
pub mod spans;
pub mod structure;
pub mod synopsis;

pub use baseline::{build_simple_trie, SimpleTrieParams};
pub use builder::{build_approx, build_pure, build_pure_traced, BuildError, BuildParams};
pub use candidates::{CandidateOverflow, CandidateParams, CandidateSet, CandidateStrings};
pub use codec::DecodeError;
pub use mining::{evaluate_mining, frequent_substrings, MiningEvaluation};
pub use qgram::{build_qgram_pure, QgramParams};
pub use qgram_fast::{build_qgram_fast, FastQgramParams, PhaseOverflow};
pub use spans::{PhaseSpan, SpanRecorder};
pub use structure::{CountMode, PrivateCountStructure};
pub use synopsis::FrozenSynopsis;
