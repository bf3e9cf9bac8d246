#![warn(missing_docs)]

//! Parallel experiment runner for the CHATS simulator.
//!
//! The paper's evaluation is hundreds of independent simulation points
//! (workload × system × knob). This crate turns that sweep into a job
//! graph with content-addressed identity and runs it on a worker pool:
//!
//! * [`job::JobSpec`] — one simulation point; its [`job::JobId`] is an
//!   FNV-1a hash of the *full* canonical configuration, so identical
//!   points requested by different figures share one execution.
//! * [`experiments`] — the paper's figure grids as named [`job::JobSet`]s,
//!   with each figure's parameter lists declared once.
//! * [`figures`] — one renderer per table/figure, reading a finished
//!   run's results ([`figures::Cells`]) and never simulating.
//! * [`pool::Runner`] — worker pool sized by `available_parallelism`.
//!   Each job runs once, inline on its worker under `catch_unwind`, so a
//!   panic fails that job alone; the simulation's cycle budget is the
//!   only timeout and nothing is retried. An optional determinism gate
//!   runs each job twice and demands bit-identical statistics.
//! * [`cache::DiskCache`] — results under `target/chats-cache/`, keyed
//!   by job hash and guarded by crate version + canonical config;
//!   corruption degrades to re-execution.
//! * [`manifest`] — per-run JSON manifests under `target/chats-runs/`
//!   with timing, outcomes, cache hit rate and measured speedup.
//! * [`Json`] — the JSON tree entries and manifests are written in: the
//!   workspace's one JSON type, `serde::Value`, re-exported under the
//!   runner's name (sorted keys, exact `u64`/`i64` lanes, strict parser).
//!
//! The `chats-run` binary exposes all of this on the command line: `run`
//! executes the named grids and job labels, then prints and saves each
//! requested figure's table next to the manifest. The `chats-trace`
//! binary records one labelled job's protocol trace and reports or
//! exports it (see `chats-obs`).

pub mod cache;
pub mod checkpoint;
pub mod experiments;
pub mod figures;
pub mod hash;
pub mod job;
pub mod manifest;
pub mod pool;

pub use cache::{default_cache_dir, DiskCache, CACHE_VERSION};
pub use checkpoint::{checkpoint_dir, execute_checkpointed, CheckpointConfig, CommitMeta};
pub use experiments::{contended, Scale, MAIN_SYSTEMS};
pub use job::{JobId, JobSet, JobSpec};
pub use manifest::{default_runs_dir, jobs_table, summary_table, write_manifest, ManifestInfo};
pub use pool::{JobOutcome, JobRecord, RunReport, Runner, RunnerConfig};
pub use serde::Value as Json;
