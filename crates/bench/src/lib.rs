#![warn(missing_docs)]

//! Experiment harness: one function per table/figure of the paper.
//!
//! Each `figN` function runs the required (workload × system × parameter)
//! grid and renders the same rows/series the paper reports, normalized to
//! the requester-wins baseline exactly as the paper normalizes. The
//! `figures` binary is the command-line front end. The `chats-bench`
//! binary measures the simulator itself: throughput on a fixed mix
//! ([`baseline`]) and the cost of epoch commitments ([`commit`]), both
//! gated against `BENCH_simcore.json`.
//!
//! Absolute numbers will not match gem5 (different substrate — see
//! DESIGN.md); the *shapes* are the reproduction target, recorded in
//! EXPERIMENTS.md.

pub mod baseline;
pub mod commit;
pub mod figures;
pub mod harness;

pub use harness::{Harness, Scale};
