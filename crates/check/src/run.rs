//! Executing one (scenario, schedule) pair and judging the result.

use crate::scenario::Scenario;
use crate::schedule::{Recorder, Schedule};
use chats_core::PolicyConfig;
use chats_machine::{Machine, Oracle, SimError, Tuning};
use chats_mem::Addr;
use chats_runner::hash::fnv1a_64;
use chats_runner::pool::panic_message;
use chats_sim::{DecisionRecord, SystemConfig};
use chats_tvm::Vm;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// What went wrong, when something did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The oracle recorded at least one violation (atomicity at commit or
    /// an inconsistent forwarded read).
    Violation,
    /// The committed counter sum misses the serializability invariant.
    SumMismatch,
    /// The event queue drained with live threads (a protocol bug).
    Deadlock,
    /// The machine panicked on an internal invariant.
    Panic,
}

impl FailureKind {
    /// Stable name (reproducer JSON, manifests).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Violation => "violation",
            FailureKind::SumMismatch => "sum_mismatch",
            FailureKind::Deadlock => "deadlock",
            FailureKind::Panic => "panic",
        }
    }

    /// Inverse of [`FailureKind::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<FailureKind> {
        [
            FailureKind::Violation,
            FailureKind::SumMismatch,
            FailureKind::Deadlock,
            FailureKind::Panic,
        ]
        .into_iter()
        .find(|k| k.as_str() == s)
    }
}

/// Verdict of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// All checks held.
    Pass,
    /// A check failed (the interesting case).
    Fail(FailureKind),
    /// The run hit its cycle budget — hostile schedules can legitimately
    /// starve progress, so this is neither a pass nor a failure.
    Inconclusive(String),
}

/// Everything observed about one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The verdict.
    pub outcome: Outcome,
    /// Oracle violations, rendered (empty on pass/panic).
    pub violations: Vec<String>,
    /// Committed counter sum actually observed.
    pub sum: u64,
    /// The serializability invariant (`threads * kernel.per_thread`).
    pub expected: u64,
    /// FNV-1a digest of the committed memory image (0 after a panic).
    pub image_digest: u64,
    /// Free-form diagnostic (panic message, deadlock dump, …).
    pub detail: String,
}

impl RunResult {
    /// `true` when the outcome is `Fail(kind)`.
    #[must_use]
    pub fn failed_with(&self, kind: FailureKind) -> bool {
        self.outcome == Outcome::Fail(kind)
    }
}

/// Canonical digest of a committed memory image.
#[must_use]
pub fn image_digest(image: &BTreeMap<u64, u64>) -> u64 {
    let mut text = String::new();
    for (addr, value) in image {
        let _ = write!(text, "{addr}:{value};");
    }
    fnv1a_64(text.as_bytes())
}

/// Runs `scenario` under `schedule` and judges the outcome, recording no
/// decision trace: the schedule itself replays the run.
///
/// The machine runs with both oracles armed in *record* mode, so
/// violations accumulate instead of panicking; residual panics (machine
/// invariants) are caught and reported as [`FailureKind::Panic`].
#[must_use]
pub fn run_scenario(scenario: &Scenario, schedule: &Schedule) -> RunResult {
    execute(scenario, schedule, None)
}

/// [`run_scenario`] plus the run's full resolved decision trace, for the
/// callers that read it (flip generation, shrinking). The trace is
/// recorded outside the machine, so it is complete even for a panicked
/// run; replayed via [`Schedule::replay`] it reproduces the run.
#[must_use]
pub fn trace_scenario(
    scenario: &Scenario,
    schedule: &Schedule,
) -> (RunResult, Vec<DecisionRecord>) {
    let recorder = Recorder::default();
    let result = execute(scenario, schedule, Some(Rc::clone(&recorder)));
    let trace = recorder.take();
    (result, trace)
}

/// The one runner behind [`run_scenario`] and [`trace_scenario`].
fn execute(scenario: &Scenario, schedule: &Schedule, recorder: Option<Recorder>) -> RunResult {
    let kernel = scenario.program.build();
    let expected = scenario.threads as u64 * kernel.per_thread;
    let hook = schedule.hook(recorder);

    let outcome = {
        let scenario = scenario.clone();
        let program = kernel.program.clone();
        // The machine panics loudly on internal invariants; silence the
        // default hook for the duration so expected failing runs (shrink
        // probes replay hundreds of them) do not spam stderr.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut sys = SystemConfig::small_test();
            sys.core.cores = scenario.threads;
            let tuning = Tuning {
                oracle: Oracle::Record,
                debug_skip_validation: scenario.skip_validation_bug,
            };
            let mut m = Machine::new(
                sys,
                PolicyConfig::for_system(scenario.system),
                tuning,
                scenario.seed,
            );
            m.set_decision_hook(hook);
            if let Some(plan) = &scenario.faults {
                m.set_fault_plan(plan);
            }
            for t in 0..scenario.threads {
                m.load_thread(
                    t,
                    Vm::new(program.clone(), scenario.seed ^ ((t as u64) << 7)),
                );
            }
            let run = m.run(scenario.max_cycles);
            (m, run)
        }));
        std::panic::set_hook(prev_hook);
        caught
    };

    match outcome {
        Err(payload) => RunResult {
            outcome: Outcome::Fail(FailureKind::Panic),
            violations: Vec::new(),
            sum: 0,
            expected,
            image_digest: 0,
            detail: panic_message(payload.as_ref()),
        },
        Ok((machine, run)) => {
            let violations: Vec<String> = machine
                .violations()
                .iter()
                .map(ToString::to_string)
                .collect();
            let mem = machine.memory_view();
            let sum: u64 = kernel.counters.iter().map(|&a| mem.read(Addr(a))).sum();
            let digest = image_digest(&mem.image());
            let (outcome, detail) = match run {
                Err(SimError::Timeout { at_cycle }) => (
                    Outcome::Inconclusive(format!("cycle budget exhausted at {at_cycle}")),
                    String::new(),
                ),
                Err(SimError::Deadlock { at_cycle, detail }) => (
                    Outcome::Fail(FailureKind::Deadlock),
                    format!("deadlock at cycle {at_cycle}: {detail}"),
                ),
                // A fault schedule may legitimately starve progress (e.g.
                // dropped validation responses); the watchdog converts
                // that hang into a structured diagnosis rather than a
                // protocol failure.
                Err(SimError::WatchdogStall { report }) => {
                    (Outcome::Inconclusive(format!("{report}")), String::new())
                }
                Ok(_) if !violations.is_empty() => {
                    (Outcome::Fail(FailureKind::Violation), violations.join("\n"))
                }
                Ok(_) if sum != expected => (
                    Outcome::Fail(FailureKind::SumMismatch),
                    format!("committed sum {sum}, expected {expected}"),
                ),
                Ok(_) => (Outcome::Pass, String::new()),
            };
            RunResult {
                outcome,
                violations,
                sum,
                expected,
                image_digest: digest,
                detail,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::smoke_scenarios;
    use crate::schedule::choices;

    #[test]
    fn baseline_smoke_runs_pass() {
        for sc in smoke_scenarios() {
            let (r, trace) = trace_scenario(&sc, &Schedule::baseline());
            assert_eq!(r.outcome, Outcome::Pass, "{}: {}", sc.name, r.detail);
            assert_eq!(r.sum, r.expected, "{}", sc.name);
            assert!(!trace.is_empty(), "{}: no decisions recorded", sc.name);
        }
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let sc = &smoke_scenarios()[0];
        let (a, a_trace) = trace_scenario(sc, &Schedule::baseline());
        let (b, b_trace) = trace_scenario(sc, &Schedule::baseline());
        assert_eq!(a.image_digest, b.image_digest);
        assert_eq!(a_trace, b_trace);
    }

    #[test]
    fn full_trace_replay_reproduces_a_random_run() {
        let sc = &smoke_scenarios()[1];
        let (walked, walked_trace) = trace_scenario(sc, &Schedule::random(99));
        let (replayed, replayed_trace) =
            trace_scenario(sc, &Schedule::replay(choices(&walked_trace)));
        assert_eq!(replayed.outcome, walked.outcome);
        assert_eq!(replayed.image_digest, walked.image_digest);
        assert_eq!(choices(&replayed_trace), choices(&walked_trace));
    }

    #[test]
    fn oracles_hold_under_every_shipped_fault_plan() {
        use chats_machine::FaultPlan;
        for plan in FaultPlan::shipped() {
            let mut suite = smoke_scenarios();
            crate::scenario::apply_fault_plan(&mut suite, &plan);
            for sc in &suite {
                let r = run_scenario(sc, &Schedule::baseline());
                match &r.outcome {
                    // A fault schedule may starve progress; what it must
                    // never do is break serializability.
                    Outcome::Pass | Outcome::Inconclusive(_) => {}
                    Outcome::Fail(kind) => {
                        panic!("{}: {} under faults: {}", sc.name, kind.as_str(), r.detail)
                    }
                }
            }
        }
    }

    #[test]
    fn faulted_runs_replay_bit_exactly() {
        let mut suite = smoke_scenarios();
        crate::scenario::apply_fault_plan(&mut suite, &chats_machine::FaultPlan::abort_storm());
        let sc = &suite[0];
        let (walked, trace) = trace_scenario(sc, &Schedule::random(7));
        let replayed = run_scenario(sc, &Schedule::replay(choices(&trace)));
        assert_eq!(replayed.outcome, walked.outcome);
        assert_eq!(replayed.image_digest, walked.image_digest);
    }

    #[test]
    fn failure_kinds_round_trip() {
        for k in [
            FailureKind::Violation,
            FailureKind::SumMismatch,
            FailureKind::Deadlock,
            FailureKind::Panic,
        ] {
            assert_eq!(FailureKind::parse(k.as_str()), Some(k));
        }
    }
}
