//! The theorem-validation experiments (one module per theorem group).
//!
//! Each experiment returns [`crate::Table`]s; the `experiments` binary
//! renders them to stdout and into `results/*.json` / EXPERIMENTS.md.

pub mod audit;
pub mod common;
pub mod lower;
pub mod mining;
pub mod qgrams;
pub mod serving;
pub mod t1;
pub mod t2;
pub mod trees;
