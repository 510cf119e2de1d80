//! # dpsc-dpcore — differential-privacy substrate
//!
//! The mechanism layer of the system, implementing exactly the tools the
//! paper's Section 2.2 collects plus the binary-tree mechanism its Sections
//! 3–5 build on:
//!
//! * [`Noise`] — Laplace / Gaussian samplers with calibration constructors
//!   (Lemma 3, Lemma 5) and single-draw tail bounds (Lemma 2, Lemma 4).
//! * [`mechanism`] — vector-valued mechanisms and the sup-error corollaries
//!   (Corollary 1, Corollary 2) plus the Hölder `L2 ≤ √(L1·L∞)` conversion
//!   (Lemma 14).
//! * [`PrivacyParams`] / [`BudgetAccountant`] — `(ε, δ)` bookkeeping with
//!   simple composition (Lemma 1) enforced at runtime.
//! * [`BinaryTreeMechanism`] — dyadic prefix-sum release (Dwork et al.
//!   \[27\]) in the multi-sequence calibrations of Lemma 11 (Laplace) and
//!   Lemma 18 (Gaussian), with their exact error-bound formulas.
//!
//! ## Scope note
//! Noise is sampled in `f64`. The paper's model is real-valued noise; we do
//! not implement discretized samplers hardened against floating-point
//! attacks (Mironov 2012) — see DESIGN.md §7.

pub mod budget;
pub mod mechanism;
pub mod noise;
pub mod stream;
pub mod tree_mechanism;

pub use budget::{BudgetAccountant, BudgetExceeded, PrivacyParams};
pub use noise::{Noise, NoiseCut};
pub use stream::derive_stream;
pub use tree_mechanism::BinaryTreeMechanism;
