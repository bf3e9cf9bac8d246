#![warn(missing_docs)]

//! Transactional workloads: STAMP-like kernels and the paper's two
//! microbenchmarks, compiled to TxVM bytecode.
//!
//! Each kernel reproduces the *transactional access pattern* the paper's
//! evaluation (§VII) attributes to the corresponding STAMP benchmark — the
//! sharing pattern, transaction footprint and contention level — rather
//! than the benchmark's full application logic (see DESIGN.md for the
//! substitution table):
//!
//! | name | pattern |
//! |---|---|
//! | `genome` | producer-consumer inserts over hashed buckets |
//! | `intruder` | hot FIFO pop with a read-to-write gap + tree inserts with periodic rebalances |
//! | `kmeans-l` / `kmeans-h` | migratory center updates, each line written once per transaction |
//! | `labyrinth` | long transactions with a large read set over a shared grid |
//! | `ssca2` | tiny transactions on a huge array (no contention) |
//! | `vacation-l` / `vacation-h` | read-mostly reservations over large tables |
//! | `yada` | long read-modify-write transactions with migratory locations |
//! | `llb-l` / `llb-h` (µ) | linked-list walk then modify |
//! | `cadd` (µ) | hot shared variable written once early, then long read-only sums |
//! | `evm-transfers` / `evm-token-storm` / `evm-dex` (evm) | smart-contract user-transaction streams compiled to TxVM (see `chats-evm`) |
//!
//! Every workload carries an *invariant checker* run against final memory:
//! committed transactional effects must be exactly serializable (no lost or
//! phantom updates), which turns every benchmark run into a correctness
//! test of the HTM under test.
//!
//! # Example
//!
//! ```
//! use chats_workloads::{registry, run_workload, RunConfig};
//! use chats_core::{HtmSystem, PolicyConfig};
//!
//! let w = registry::by_name("kmeans-h").unwrap();
//! let cfg = RunConfig::quick_test();
//! let stats = run_workload(w.as_ref(), PolicyConfig::for_system(HtmSystem::Chats), &cfg).unwrap();
//! assert!(stats.commits > 0);
//! ```

pub mod kernels;
pub mod registry;
pub mod spec;

// Re-exported so runner/check can attach fault plans without a direct
// `chats-machine` (or `chats-faults`) dependency.
pub use chats_machine::FaultPlan;
pub use spec::{
    finish_run, prepare_run, run_workload, run_workload_traced, Checker, MemRegion, PreparedRun,
    RunConfig, RunFailure, ThreadProgram, Workload, WorkloadSetup,
};
