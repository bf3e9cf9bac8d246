//! Exploration strategies: how schedules are generated and failures
//! handled.
//!
//! Per scenario, in order:
//!
//! 1. the **baseline** schedule (all defaults — catches plain bugs and
//!    records the decision stream the flip stage perturbs),
//! 2. the three targeted **attacks** (validation starvation, commit
//!    deferral, forwarding starvation),
//! 3. seeded **random walks**,
//! 4. **single flips**: every decision of the baseline stream is replayed
//!    up to some index and then exactly one non-default choice is taken —
//!    the preemption-bounding move with bound 1. Non-tie-break decisions
//!    are flipped first; they target protocol choices rather than event
//!    delivery order and find divergence faster.
//!
//! The first failure of a scenario is shrunk (see [`crate::shrink`]),
//! optionally saved as a reproducer, and ends that scenario's
//! exploration; other scenarios still run. All schedule generation is
//! seeded from the scenario, so two explorations of the same suite
//! produce identical manifests.

use crate::repro::Reproducer;
use crate::run::{run_scenario, trace_scenario, FailureKind, Outcome, RunResult};
use crate::scenario::Scenario;
use crate::schedule::{choices, Attack, Schedule};
use crate::shrink::{shrink, ShrinkStats};
use chats_runner::Json;
use chats_sim::{DecisionKind, DecisionRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// How much work to spend per scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreBudget {
    /// Random-walk schedules.
    pub walks: usize,
    /// Single-flip schedules (stage 4).
    pub flips: usize,
    /// Run the targeted attacks.
    pub attacks: bool,
}

impl ExploreBudget {
    /// CI-sized budget: finishes the smoke suite in seconds.
    #[must_use]
    pub fn smoke() -> ExploreBudget {
        ExploreBudget {
            walks: 3,
            flips: 16,
            attacks: true,
        }
    }

    /// Default budget for local exploration and CI's full sweep: 17,517
    /// schedules over the full suite, about 9 s on a 2-vCPU host. All but
    /// two full-suite baselines offer fewer than 1024 flips, so there the
    /// flip stage runs every single flip.
    #[must_use]
    pub fn full() -> ExploreBudget {
        ExploreBudget {
            walks: 256,
            flips: 1024,
            attacks: true,
        }
    }
}

/// A failure found (and shrunk) during exploration.
#[derive(Debug, Clone)]
pub struct FoundFailure {
    /// What failed.
    pub kind: FailureKind,
    /// Description of the schedule that first triggered it.
    pub found_by: String,
    /// The shrunk replayable prefix.
    pub shrunk_prefix: Vec<u32>,
    /// Shrink statistics.
    pub stats: ShrinkStats,
    /// Where the reproducer was written, if a directory was given.
    pub repro_path: Option<PathBuf>,
    /// Diagnostic from the failing run (violations, panic message, …).
    pub detail: String,
}

/// Everything exploration learned about one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Schedules executed (excluding shrink probes).
    pub runs: usize,
    /// Runs judged [`Outcome::Inconclusive`]: they hit the cycle budget or
    /// the progress watchdog.
    pub inconclusive: usize,
    /// Image digest of the baseline run (manifest determinism anchor).
    pub base_digest: u64,
    /// Decision-stream length of the baseline run.
    pub base_decisions: usize,
    /// The scenario's failure, if any was found.
    pub failure: Option<FoundFailure>,
}

/// Result of exploring a suite.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Per-scenario results, in suite order.
    pub scenarios: Vec<ScenarioReport>,
}

impl ExploreReport {
    /// Number of scenarios that failed.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.scenarios
            .iter()
            .filter(|s| s.failure.is_some())
            .count()
    }

    /// Total schedules executed.
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.scenarios.iter().map(|s| s.runs).sum()
    }

    /// Deterministic JSON manifest: same suite + budget → identical bytes
    /// (no timestamps, no absolute paths).
    #[must_use]
    pub fn to_json(&self, budget: &ExploreBudget) -> Json {
        let mut root = BTreeMap::new();
        root.insert("version".to_string(), Json::U64(1));
        let mut b = BTreeMap::new();
        b.insert("walks".to_string(), Json::U64(budget.walks as u64));
        b.insert("flips".to_string(), Json::U64(budget.flips as u64));
        b.insert("attacks".to_string(), Json::Bool(budget.attacks));
        root.insert("budget".to_string(), Json::Obj(b));
        let scenarios = self
            .scenarios
            .iter()
            .map(|s| {
                let mut m = BTreeMap::new();
                m.insert("name".to_string(), Json::Str(s.name.clone()));
                m.insert("runs".to_string(), Json::U64(s.runs as u64));
                m.insert("inconclusive".to_string(), Json::U64(s.inconclusive as u64));
                m.insert(
                    "base_digest".to_string(),
                    Json::Str(format!("{:016x}", s.base_digest)),
                );
                m.insert(
                    "base_decisions".to_string(),
                    Json::U64(s.base_decisions as u64),
                );
                let failure = s.failure.as_ref().map_or(Json::Null, |f| {
                    let mut fm = BTreeMap::new();
                    fm.insert("kind".to_string(), Json::Str(f.kind.as_str().to_string()));
                    fm.insert("found_by".to_string(), Json::Str(f.found_by.clone()));
                    fm.insert(
                        "shrunk_len".to_string(),
                        Json::U64(f.stats.shrunk_len as u64),
                    );
                    fm.insert(
                        "non_default".to_string(),
                        Json::U64(f.stats.non_default as u64),
                    );
                    let repro = f.repro_path.as_ref().map_or(Json::Null, |p| {
                        Json::Str(
                            p.file_name()
                                .map(|n| n.to_string_lossy().into_owned())
                                .unwrap_or_default(),
                        )
                    });
                    fm.insert("reproducer".to_string(), repro);
                    Json::Obj(fm)
                });
                m.insert("failure".to_string(), failure);
                Json::Obj(m)
            })
            .collect();
        root.insert("scenarios".to_string(), Json::Arr(scenarios));
        Json::Obj(root)
    }
}

/// Derives the seed of random walk `w` for a scenario (decorrelated from
/// the machine seed by a splitmix-style multiply).
fn walk_seed(scenario: &Scenario, w: usize) -> u64 {
    (scenario.seed ^ 0x5ee0_5ee0_5ee0_5ee0)
        .wrapping_add((w as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The flip schedules derived from a baseline trace, in priority order.
fn flip_schedules(base: &[DecisionRecord], budget: usize) -> Vec<Schedule> {
    let choices = choices(base);
    // Indices with real fan-out, protocol decisions before tie-breaks.
    let mut candidates: Vec<usize> = (0..base.len()).filter(|&i| base[i].choices > 1).collect();
    candidates.sort_by_key(|&i| {
        let protocol = base[i].kind != DecisionKind::TieBreak;
        (if protocol { 0u8 } else { 1u8 }, i)
    });
    let mut out = Vec::new();
    'outer: for i in candidates {
        for alt in 1..base[i].choices {
            if alt == base[i].chosen {
                continue;
            }
            if out.len() >= budget {
                break 'outer;
            }
            let mut prefix: Vec<u32> = choices[..i].to_vec();
            prefix.push(alt);
            out.push(Schedule::replay(prefix));
        }
    }
    out
}

/// Handles a failing run and its decision trace: shrink, save a
/// reproducer, build the report entry.
fn handle_failure(
    scenario: &Scenario,
    schedule: &Schedule,
    result: &RunResult,
    trace: &[DecisionRecord],
    kind: FailureKind,
    failures_dir: Option<&Path>,
) -> FoundFailure {
    let (shrunk, stats) = shrink(scenario, &choices(trace), kind);
    let note = format!(
        "found by {}; shrunk {} -> {} decisions ({} non-default)",
        schedule.describe(),
        stats.original_len,
        stats.shrunk_len,
        stats.non_default
    );
    let repro = Reproducer::new(scenario.clone(), shrunk.clone(), kind, note);
    let repro_path = failures_dir.and_then(|dir| match repro.save(dir) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("chats-check: could not save reproducer: {e}");
            None
        }
    });
    FoundFailure {
        kind,
        found_by: schedule.describe(),
        shrunk_prefix: shrunk,
        stats,
        repro_path,
        detail: result.detail.clone(),
    }
}

/// Explores one scenario under `budget`; stops at its first failure.
#[must_use]
pub fn explore_scenario(
    scenario: &Scenario,
    budget: &ExploreBudget,
    failures_dir: Option<&Path>,
) -> ScenarioReport {
    let mut report = ScenarioReport {
        name: scenario.name.clone(),
        runs: 0,
        inconclusive: 0,
        base_digest: 0,
        base_decisions: 0,
        failure: None,
    };

    // The baseline's trace is kept: the flip stage perturbs it.
    let (base, base_trace) = trace_scenario(scenario, &Schedule::baseline());
    report.runs += 1;
    report.base_digest = base.image_digest;
    report.base_decisions = base_trace.len();
    if let Outcome::Fail(kind) = base.outcome {
        report.failure = Some(handle_failure(
            scenario,
            &Schedule::baseline(),
            &base,
            &base_trace,
            kind,
            failures_dir,
        ));
        return report;
    }

    let mut schedules: Vec<Schedule> = Vec::new();
    if budget.attacks {
        schedules.extend(Attack::ALL.into_iter().map(Schedule::attack));
    }
    schedules.extend((0..budget.walks).map(|w| Schedule::random(walk_seed(scenario, w))));
    schedules.extend(flip_schedules(&base_trace, budget.flips));
    drop(base_trace);

    // Every other schedule is judged without a trace. Runs are
    // deterministic, so a failing one is replayed with a recorder to get
    // the trace shrinking needs.
    for schedule in schedules {
        let result = run_scenario(scenario, &schedule);
        report.runs += 1;
        match result.outcome {
            Outcome::Pass => {}
            Outcome::Inconclusive(_) => report.inconclusive += 1,
            Outcome::Fail(kind) => {
                let (traced, trace) = trace_scenario(scenario, &schedule);
                assert_eq!(
                    traced.outcome,
                    result.outcome,
                    "{}: {} judged differently when replayed with a recorder",
                    scenario.name,
                    schedule.describe()
                );
                report.failure = Some(handle_failure(
                    scenario,
                    &schedule,
                    &traced,
                    &trace,
                    kind,
                    failures_dir,
                ));
                break;
            }
        }
    }
    report
}

/// Explores a suite; every scenario runs even when earlier ones fail.
#[must_use]
pub fn explore(
    scenarios: &[Scenario],
    budget: &ExploreBudget,
    failures_dir: Option<&Path>,
    quiet: bool,
) -> ExploreReport {
    let mut out = Vec::new();
    for scenario in scenarios {
        let report = explore_scenario(scenario, budget, failures_dir);
        if !quiet {
            let status = match &report.failure {
                Some(f) => format!(
                    "FAIL {} via {} (shrunk to {} decisions)",
                    f.kind.as_str(),
                    f.found_by,
                    f.stats.shrunk_len
                ),
                None if report.inconclusive > 0 => format!(
                    "ok ({} runs, {} inconclusive)",
                    report.runs, report.inconclusive
                ),
                None => format!("ok ({} runs)", report.runs),
            };
            eprintln!("chats-check: {:<24} {status}", report.name);
        }
        out.push(report);
    }
    ExploreReport { scenarios: out }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: DecisionKind, choices: u32, chosen: u32) -> DecisionRecord {
        DecisionRecord {
            kind,
            choices,
            chosen,
        }
    }

    #[test]
    fn flip_schedules_prioritize_protocol_decisions() {
        let base = [
            rec(DecisionKind::TieBreak, 3, 0),
            rec(DecisionKind::ConflictAction, 3, 0),
            rec(DecisionKind::CommitRelease, 2, 0),
        ];
        let flips = flip_schedules(&base, 10);
        // conflict (2 alts) + commit (1 alt) + tiebreak (2 alts) = 5
        assert_eq!(flips.len(), 5);
        // First flip perturbs the ConflictAction at index 1, not the tie.
        assert_eq!(flips[0].prefix, vec![0, 1]);
        assert_eq!(flips[2].prefix, vec![0, 0, 1]);
        // Tie-break flips come last and perturb index 0.
        assert_eq!(flips[3].prefix, vec![1]);
    }

    #[test]
    fn flip_budget_is_respected() {
        let base: Vec<DecisionRecord> =
            (0..50).map(|_| rec(DecisionKind::TieBreak, 4, 0)).collect();
        assert_eq!(flip_schedules(&base, 7).len(), 7);
    }

    #[test]
    fn walk_seeds_differ_per_walk_and_scenario() {
        let suite = crate::scenario::smoke_scenarios();
        assert_ne!(walk_seed(&suite[0], 0), walk_seed(&suite[0], 1));
        assert_ne!(walk_seed(&suite[0], 0), walk_seed(&suite[1], 0));
    }
}
