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
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Once;

/// No-progress horizon of the progress watchdog every run arms, in
/// cycles: over 80x the longest gap between two progress points of a core
/// in any completed schedule of the shipped suites (11,868 cycles, DESIGN
/// §10). A schedule that starves every core ends here instead of spinning
/// to its cycle budget.
const WATCHDOG_HORIZON: u64 = 1_000_000;

thread_local! {
    /// Set while this thread runs a scenario, whose machine-invariant
    /// panics are caught and judged rather than printed.
    static IN_SCENARIO: Cell<bool> = const { Cell::new(false) };
}

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
    /// The run hit its cycle budget, or the progress watchdog found it
    /// stalled with events still in flight (or, under a fault plan, with
    /// none) — hostile schedules and injected faults can legitimately
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
/// decision trace: the schedule itself replays the run. Nor does it keep
/// protocol history, so a watchdog stall's report lists no recent events:
/// exploration only counts inconclusive runs.
///
/// The machine runs with both oracles armed in *record* mode, so
/// violations accumulate instead of panicking; residual panics (machine
/// invariants) are caught and reported as [`FailureKind::Panic`].
#[must_use]
pub fn run_scenario(scenario: &Scenario, schedule: &Schedule) -> RunResult {
    execute(scenario, schedule, None)
}

/// [`run_scenario`] plus the run's full resolved decision trace, for the
/// callers that read it (flip generation, shrinking, replay). The trace
/// is recorded outside the machine, so it is complete even for a panicked
/// run; replayed via [`Schedule::replay`] it reproduces the run. The
/// machine also keeps its recent protocol history, so a watchdog stall's
/// report ends with the events that led up to it.
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

/// Installs, once per process, a panic hook that is silent inside a
/// scenario run and hands every other panic to the hook it replaced.
/// Swapping hooks around each run instead races: two threads can each
/// restore the other's silent hook and leave it installed for good.
fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_SCENARIO.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// The one runner behind [`run_scenario`] and [`trace_scenario`]. A run
/// with a recorder is one whose result is read closely, so it also keeps
/// report history; the history never changes what the machine does.
fn execute(scenario: &Scenario, schedule: &Schedule, recorder: Option<Recorder>) -> RunResult {
    let kernel = scenario.program.build();
    let expected = scenario.threads as u64 * kernel.per_thread;
    let keep_history = recorder.is_some();
    let hook = schedule.hook(recorder);

    let outcome = {
        let scenario = scenario.clone();
        let program = kernel.program.clone();
        // The machine panics loudly on internal invariants; the hook keeps
        // expected failing runs (shrink probes replay hundreds of them)
        // off stderr.
        install_quiet_panic_hook();
        IN_SCENARIO.with(|f| f.set(true));
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
            m.set_watchdog(WATCHDOG_HORIZON);
            if keep_history {
                m.keep_report_history();
            }
            // After the default watchdog, so a plan's own horizon wins.
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
        IN_SCENARIO.with(|f| f.set(false));
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
            let (outcome, detail) = judge(
                run.as_ref().err(),
                scenario.faults.is_some(),
                &violations,
                sum,
                expected,
                || machine.debug_dump(),
            );
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

/// Judges a finished run (`error` is `None` when every thread halted):
/// its verdict and diagnostic detail. `faulted` says a fault plan was
/// installed; `dump` renders the machine for a deadlock's detail and is
/// called only then.
fn judge(
    error: Option<&SimError>,
    faulted: bool,
    violations: &[String],
    sum: u64,
    expected: u64,
    dump: impl FnOnce() -> String,
) -> (Outcome, String) {
    let deadlock = |at_cycle: u64, detail: String| {
        (
            Outcome::Fail(FailureKind::Deadlock),
            format!("deadlock at cycle {at_cycle}: {detail}"),
        )
    };
    match error {
        Some(SimError::Timeout { at_cycle }) => (
            Outcome::Inconclusive(format!("cycle budget exhausted at {at_cycle}")),
            String::new(),
        ),
        Some(SimError::Deadlock { at_cycle, detail }) => deadlock(*at_cycle, detail.clone()),
        // A drained queue with live threads is a lost wakeup in the
        // protocol, whether or not the watchdog saw it first.
        Some(SimError::WatchdogStall { report }) if report.drained && !faulted => {
            deadlock(report.at_cycle, dump())
        }
        // A hostile schedule may starve progress with events still in
        // flight (NACK-vs-NACK), and a fault schedule may hang outright
        // (e.g. dropped validation responses); the watchdog ends both
        // with a structured diagnosis rather than a protocol failure.
        Some(SimError::WatchdogStall { report }) => {
            (Outcome::Inconclusive(format!("{report}")), String::new())
        }
        None if !violations.is_empty() => {
            (Outcome::Fail(FailureKind::Violation), violations.join("\n"))
        }
        None if sum != expected => (
            Outcome::Fail(FailureKind::SumMismatch),
            format!("committed sum {sum}, expected {expected}"),
        ),
        None => (Outcome::Pass, String::new()),
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

    fn stall(at_cycle: u64, drained: bool) -> SimError {
        SimError::WatchdogStall {
            report: Box::new(chats_machine::FailureReport {
                at_cycle,
                horizon: WATCHDOG_HORIZON,
                stalled_cores: vec![0, 1],
                lock_holder: None,
                fault_injections: 0,
                cores: Vec::new(),
                recent_events: Vec::new(),
                state_commitment: 0,
                drained,
            }),
        }
    }

    fn judged(error: &SimError, faulted: bool) -> (Outcome, String) {
        judge(Some(error), faulted, &[], 0, 0, || "DUMP".to_string())
    }

    fn unreachable_dump() -> String {
        panic!("only a deadlock renders the machine")
    }

    #[test]
    fn a_drained_stall_without_faults_is_a_deadlock() {
        assert_eq!(
            judged(&stall(4_321, true), false),
            (
                Outcome::Fail(FailureKind::Deadlock),
                "deadlock at cycle 4321: DUMP".to_string()
            )
        );
        // The detail has the form an unwatched machine's deadlock gets.
        let bare = SimError::Deadlock {
            at_cycle: 4_321,
            detail: "DUMP".to_string(),
        };
        assert_eq!(judged(&bare, false), judged(&stall(4_321, true), false));
    }

    #[test]
    fn a_horizon_stall_is_inconclusive() {
        let err = stall(1_250_000, false);
        let (outcome, detail) = judge(Some(&err), false, &[], 0, 0, unreachable_dump);
        let Outcome::Inconclusive(why) = outcome else {
            panic!("a horizon stall judged {outcome:?}");
        };
        assert!(why.starts_with("no progress within 1000000 cycles at cycle 1250000"));
        assert_eq!(detail, "");
    }

    #[test]
    fn a_drained_stall_under_a_fault_plan_is_inconclusive() {
        let err = stall(9_000, true);
        let (outcome, _) = judge(Some(&err), true, &[], 0, 0, unreachable_dump);
        assert!(matches!(outcome, Outcome::Inconclusive(_)), "{outcome:?}");
    }

    #[test]
    fn a_timeout_is_inconclusive() {
        let err = SimError::Timeout { at_cycle: 77 };
        assert_eq!(
            judge(Some(&err), false, &[], 0, 0, unreachable_dump),
            (
                Outcome::Inconclusive("cycle budget exhausted at 77".to_string()),
                String::new()
            )
        );
    }

    #[test]
    fn completed_runs_are_judged_by_the_oracles() {
        let violations = ["v1".to_string(), "v2".to_string()];
        let judged = |v: &[String], sum| judge(None, false, v, sum, 6, unreachable_dump);
        assert_eq!(judged(&[], 6), (Outcome::Pass, String::new()));
        assert_eq!(
            judged(&[], 5),
            (
                Outcome::Fail(FailureKind::SumMismatch),
                "committed sum 5, expected 6".to_string()
            )
        );
        assert_eq!(
            judged(&violations, 5),
            (Outcome::Fail(FailureKind::Violation), "v1\nv2".to_string())
        );
    }

    /// `starve-forwards` NACKs every conflict, which stops all progress on
    /// the torture kernel: the watchdog, not the cycle budget, ends it.
    #[test]
    fn starved_forwards_end_at_the_watchdog() {
        let sc = crate::scenario::full_scenarios()
            .into_iter()
            .find(|s| s.name == "torture-chats")
            .expect("the full suite has torture-chats");
        let r = run_scenario(
            &sc,
            &Schedule::attack(crate::schedule::Attack::StarveForwards),
        );
        let Outcome::Inconclusive(why) = &r.outcome else {
            panic!("starve-forwards judged {:?}", r.outcome);
        };
        assert!(why.contains("no progress within"), "{why}");
        let at_cycle: u64 = why
            .split("at cycle ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .expect("the report names its cycle");
        assert!(
            at_cycle <= WATCHDOG_HORIZON + WATCHDOG_HORIZON / 4,
            "stalled at cycle {at_cycle}"
        );
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
