#![warn(missing_docs)]

//! Observability for the CHATS machine: trace capture, timeline
//! reconstruction, cycle accounting and exporters.
//!
//! The machine emits a flat stream of [`chats_machine::TraceEvent`]s; this
//! crate turns that stream into answers:
//!
//! * **Capture** — [`VecSink`] (unbounded in-memory, into a compact
//!   [`TraceLog`]) and [`JsonlSink`] (streaming JSON-lines writer)
//!   implement [`chats_machine::TraceSink`]; [`read_jsonl`] loads a
//!   written trace back into a [`TraceLog`].
//! * **Reconstruction** — [`Timeline::rebuild`] folds the stream into
//!   per-core transaction attempts, validation-stall and fallback
//!   intervals, and a strict per-core [`CycleBreakdown`] whose buckets sum
//!   exactly to the run's total cycles (see DESIGN.md §12 for the bucket
//!   definitions in the paper's terms).
//! * **Analytics** — chain depth and length histograms plus the
//!   producer→consumer forwarding graph ([`ChainStats`]), and interconnect
//!   usage derived from injection/arrival pairs ([`NocUsage`]).
//! * **Export** — [`chrome_trace`] renders a Chrome-trace/Perfetto JSON
//!   (one track per core, one slice per attempt, flow arrows for
//!   forwardings) and [`text_report`] a compact terminal summary;
//!   [`profile_value`] builds the `profile.json` artifact `chats-run`
//!   attaches to its manifests.
//!
//! The `chats-trace` binary (in `chats-runner`, which names runs by job
//! label) wraps all of this as `record`/`report`/`export` commands (see
//! EXPERIMENTS.md).
//!
//! # Example
//!
//! ```
//! use chats_core::{HtmSystem, PolicyConfig};
//! use chats_obs::{Timeline, VecSink};
//! use chats_workloads::{registry, run_workload_traced, RunConfig};
//!
//! let w = registry::by_name("cadd").unwrap();
//! let cfg = RunConfig::quick_test();
//! let policy = PolicyConfig::for_system(HtmSystem::Chats);
//! let (stats, sink) = run_workload_traced(w.as_ref(), policy, &cfg, Box::new(VecSink::new()))
//!     .unwrap();
//! let events = VecSink::into_events(sink);
//! let tl = Timeline::rebuild(&events, stats.cycles);
//! let agg = tl.aggregate();
//! assert_eq!(agg.total(), stats.cycles * tl.cores.len() as u64);
//! ```

mod chrome;
mod jsonl;
mod log;
mod profile;
mod report;
mod timeline;

pub use chrome::chrome_trace;
pub use jsonl::{read_jsonl, JsonlSink, VecSink};
pub use log::{TraceLog, TraceLogIter};
pub use profile::{profile_value, ProfileMeta};
pub use report::{text_report, text_report_with_regions};
pub use timeline::{
    Attempt, AttemptOutcome, ChainStats, CoreTimeline, CycleBreakdown, Forwarding, Interval,
    NocUsage, Timeline,
};
