#![warn(missing_docs)]

//! Schedule exploration and checking for the CHATS machine (`chats-check`).
//!
//! The simulator is deterministic: one seed, one schedule. This crate
//! turns it into a schedule *explorer*. The machine exposes every point
//! where real hardware could legally have behaved differently — event
//! tie-breaks, conflict resolution, validation pacing, commit release —
//! as decision points (see [`chats_sim::DecisionKind`]); a
//! [`schedule::Schedule`] resolves them from a replayed prefix plus a
//! tail policy (defaults, seeded random walk, or a targeted attack).
//!
//! Checking layers on top:
//!
//! * [`run`] executes one (scenario, schedule) pair with the machine's
//!   oracles armed in record mode and judges the outcome — oracle
//!   violations, the committed-sum serializability invariant, deadlocks
//!   and panics all fail the run,
//! * [`explore`] sweeps schedules per scenario (baseline, attacks,
//!   random walks, single-decision flips) with a fixed budget,
//! * [`shrink`] reduces a failing decision trace to a minimal
//!   mostly-default prefix,
//! * [`repro`] saves failures as self-contained JSON that
//!   `chats-check replay` re-executes bit-exactly,
//! * [`dissect`](mod@dissect) pins the first event at which two jobs diverge
//!   (`chats-dissect`).
//!
//! # Example
//!
//! ```
//! use chats_check::{choices, run_scenario, trace_scenario, Outcome, Schedule, smoke_scenarios};
//!
//! let scenario = &smoke_scenarios()[0];
//! // A run is judged without a trace; the schedule replays it.
//! let baseline = run_scenario(scenario, &Schedule::baseline());
//! assert_eq!(baseline.outcome, Outcome::Pass);
//! // A recorded decision trace replays bit-exactly too.
//! let (walked, trace) = trace_scenario(scenario, &Schedule::random(7));
//! let again = run_scenario(scenario, &Schedule::replay(choices(&trace)));
//! assert_eq!(again.image_digest, walked.image_digest);
//! ```

pub mod dissect;
pub mod explore;
pub mod repro;
pub mod run;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use chats_machine::FaultPlan;
pub use dissect::{
    dissect, DissectOutcome, DissectReport, DissectRequest, Divergence, DivergentEvent,
};
pub use explore::{explore, explore_scenario, ExploreBudget, ExploreReport, ScenarioReport};
pub use repro::{default_failures_dir, Reproducer};
pub use run::{image_digest, run_scenario, trace_scenario, FailureKind, Outcome, RunResult};
pub use scenario::{apply_fault_plan, full_scenarios, smoke_scenarios, ProgramSpec, Scenario};
pub use schedule::{choices, Attack, Schedule, Tail};
pub use shrink::{shrink, ShrinkStats};
