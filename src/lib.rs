#![warn(missing_docs)]

//! # CHATS — Chaining Transactions for best-effort HTM
//!
//! A full-system reproduction of *"Chaining Transactions for Effective
//! Concurrency Management in Hardware Transactional Memory"* (MICRO 2024):
//! a deterministic timing simulator of a 16-core multicore with MESI
//! directory coherence and six best-effort HTM systems, including the
//! paper's proposal — **CHATS**, a requester-speculates conflict-resolution
//! policy that forwards speculative values between transactions and orders
//! their commits with a 5-bit *Position-in-Chain* register.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! * [`core`] *(chats-core)* — the CHATS mechanism itself: PiC rules, the
//!   Validation State Buffer, conflict policies, power token, LEVC,
//! * [`machine`] *(chats-machine)* — the timing machine (cores, L1s with
//!   HTM support, blocking MESI directory),
//! * [`workloads`] *(chats-workloads)* — STAMP-like kernels with
//!   serializability checkers,
//! * [`tvm`] *(chats-tvm)* — the transactional bytecode VM,
//! * [`obs`] *(chats-obs)* — observability: pluggable trace sinks, timeline
//!   reconstruction with cycle accounting, Perfetto/Chrome-trace export,
//! * [`mem`] / [`noc`] / [`sim`] / [`stats`] — substrates.
//!
//! # Quickstart
//!
//! ```
//! use chats::prelude::*;
//!
//! // Run the high-contention kmeans kernel under the baseline and CHATS.
//! let cfg = RunConfig::quick_test();
//! let w = registry::by_name("kmeans-h").unwrap();
//! let base = run_workload(w.as_ref(), PolicyConfig::for_system(HtmSystem::Baseline), &cfg)
//!     .unwrap();
//! let chats = run_workload(w.as_ref(), PolicyConfig::for_system(HtmSystem::Chats), &cfg)
//!     .unwrap();
//! assert!(chats.forwardings > 0, "CHATS forwards speculative values");
//! assert!(base.forwardings == 0, "the baseline never does");
//! ```

pub use chats_core as core;
pub use chats_machine as machine;
pub use chats_mem as mem;
pub use chats_noc as noc;
pub use chats_obs as obs;
pub use chats_sim as sim;
pub use chats_stats as stats;
pub use chats_tvm as tvm;
pub use chats_workloads as workloads;

/// The most common imports for running experiments.
pub mod prelude {
    pub use chats_core::{
        AbortCause, ForwardSet, HtmSystem, Pic, PicContext, PolicyConfig, ValidationStateBuffer,
    };
    pub use chats_machine::{Machine, RingSink, SimError, TraceEvent, TraceSink, Tuning};
    pub use chats_mem::{Addr, LineAddr};
    pub use chats_sim::{Cycle, SystemConfig};
    pub use chats_stats::RunStats;
    pub use chats_tvm::{Program, ProgramBuilder, Reg, Vm};
    pub use chats_workloads::{registry, run_workload, run_workload_traced, RunConfig, Workload};
}
