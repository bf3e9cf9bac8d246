//! The simulator-engineering perf baseline behind `chats-bench baseline`.
//!
//! Every figure sweep, schedule exploration and fault campaign funnels
//! through the same single-run hot path (event queue pop/push, dispatch,
//! hot-map lookups), so this module measures exactly that: raw simulator
//! throughput — **events/sec and cycles/sec of simulated work per second
//! of wall clock** — on a fixed workload mix at the paper's 16-core
//! configuration, plus the process peak RSS.
//!
//! The measurements are written to / diffed against `BENCH_simcore.json`
//! at the repository root, giving the repo a recorded perf trajectory:
//! every hot-path change re-runs the mix and either moves the committed
//! numbers forward or trips the CI regression gate (see
//! [`check_against`]).

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{Machine, Tuning};
use chats_runner::Json;
use chats_sim::SystemConfig;
use chats_stats::RunStats;
use chats_tvm::{Program, ProgramBuilder, Reg, Vm};
use chats_workloads::{registry, run_workload, RunConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// The synthetic contended-counter kernel: every thread increments
    /// random words of a small hot region, maximizing queue and directory
    /// pressure per instruction.
    Contended,
    /// A registry workload by name, at paper scale.
    Registry(&'static str),
}

/// One (workload, system) cell of the baseline mix.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Workload half of the cell.
    pub kind: CaseKind,
    /// HTM system half of the cell.
    pub system: HtmSystem,
    /// Back-to-back runs inside one timed measurement. The registry
    /// workloads finish in milliseconds at paper scale, so each cell
    /// repeats its run enough times to push the timed region into the
    /// hundreds of milliseconds, where the wall clock is trustworthy.
    pub inner: u32,
}

impl Case {
    /// Stable `workload/system` label used in JSON and tables.
    #[must_use]
    pub fn name(&self) -> String {
        let w = match self.kind {
            CaseKind::Contended => "contended",
            CaseKind::Registry(n) => n,
        };
        format!("{w}/{}", self.system.name())
    }
}

/// One measured cell: simulated work per second of wall clock.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `workload/system`.
    pub name: String,
    /// Cores simulated.
    pub cores: usize,
    /// Events the run dispatched (deterministic).
    pub events: u64,
    /// Simulated cycles to completion (deterministic).
    pub cycles: u64,
    /// Instructions retired (deterministic).
    pub instructions: u64,
    /// Transactions committed (deterministic). For the evm family each
    /// commit is one user transaction, so `commits_per_sec` is the
    /// end-to-end user-txns/sec figure the bench gate floors.
    pub commits: u64,
    /// Best wall time over the measurement reps.
    pub wall: Duration,
    /// Process peak RSS in kB after the case ran (`VmHWM`; monotone over
    /// the process lifetime, so per-case values are "peak so far").
    pub peak_rss_kb: u64,
}

impl Measurement {
    /// Dispatched events per wall second — the headline metric.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Simulated cycles per wall second.
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Committed transactions per wall second (user-txns/sec for the
    /// evm cases, where one commit is one user transaction).
    #[must_use]
    pub fn commits_per_sec(&self) -> f64 {
        self.commits as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// The `sim_throughput` workload mix at the paper's 16-core
/// configuration. `quick` is the CI-smoke subset (fewer cells, fewer
/// reps); the full mix is what `BENCH_simcore.json` records.
#[must_use]
pub fn workload_mix(quick: bool) -> Vec<Case> {
    let inner = |full: u32| if quick { (full / 4).max(1) } else { full };
    let mut mix = vec![
        Case {
            kind: CaseKind::Contended,
            system: HtmSystem::Chats,
            inner: inner(4),
        },
        Case {
            kind: CaseKind::Registry("cadd"),
            system: HtmSystem::Chats,
            inner: inner(16),
        },
    ];
    if !quick {
        mix.extend([
            Case {
                kind: CaseKind::Contended,
                system: HtmSystem::Baseline,
                inner: 2,
            },
            Case {
                kind: CaseKind::Registry("cadd"),
                system: HtmSystem::Baseline,
                inner: 16,
            },
            Case {
                kind: CaseKind::Registry("genome"),
                system: HtmSystem::Chats,
                inner: 64,
            },
            Case {
                kind: CaseKind::Registry("kmeans-h"),
                system: HtmSystem::Chats,
                inner: 16,
            },
        ]);
    }
    // The smart-contract frontier: one paper-scale run is 104k user
    // transactions (16 threads x 6500) against one hot contract, the
    // heaviest single cell in the mix — `inner: 1` in both modes.
    mix.push(Case {
        kind: CaseKind::Registry("evm-token-storm"),
        system: HtmSystem::Chats,
        inner: 1,
    });
    mix
}

/// The contended kernel: `iters` transactions of read-modify-write on a
/// random word of an 8-line hot region, per thread.
fn contended_program(iters: u64) -> Program {
    let mut b = ProgramBuilder::new();
    let (i, n, addr, v, bound) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
    b.imm(i, 0).imm(n, iters);
    let top = b.label();
    b.bind(top);
    b.tx_begin();
    b.imm(bound, 8);
    b.rand(addr, bound);
    b.shli(addr, addr, 3);
    b.load(v, addr);
    b.addi(v, v, 1);
    b.store(addr, v);
    b.tx_end();
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    b.build()
}

/// Transactions per thread in the contended kernel — sized so one run is
/// tens of milliseconds of simulation on the 16-core paper config.
const CONTENDED_ITERS: u64 = 1000;

/// Runs the case's `inner` back-to-back simulations inside one timed
/// region and returns the summed stats plus the wall time of the whole
/// region. Per-run counters are deterministic, so the sum is too.
///
/// `commit_interval` arms epoch commitments on each contended machine
/// before it runs; the third value is then the last run's commitment-chain
/// length (0 when unarmed). Registry cells are never armed.
fn execute_once(case: &Case, commit_interval: Option<u64>) -> (RunStats, Duration, u64) {
    let mut total = RunStats::default();
    let add = |total: &mut RunStats, s: &RunStats| {
        total.events += s.events;
        total.cycles += s.cycles;
        total.instructions += s.instructions;
        total.commits += s.commits;
    };
    match case.kind {
        CaseKind::Contended => {
            let sys = SystemConfig::default(); // paper Table I, 16 cores
            let prog = contended_program(CONTENDED_ITERS);
            let mut chain_len = 0u64;
            let t0 = Instant::now();
            for _ in 0..case.inner.max(1) {
                let mut m = Machine::new(
                    sys,
                    PolicyConfig::for_system(case.system),
                    Tuning::default(),
                    3,
                );
                for t in 0..sys.core.cores {
                    m.load_thread(t, Vm::new(prog.clone(), t as u64));
                }
                if let Some(interval) = commit_interval {
                    m.set_commit_interval(interval);
                }
                let stats = m.run(2_000_000_000).expect("contended kernel completes");
                chain_len = m.commitment_chain().len() as u64;
                add(&mut total, &stats);
            }
            (total, t0.elapsed(), chain_len)
        }
        CaseKind::Registry(name) => {
            let w = registry::by_name(name).expect("baseline mix names a registered workload");
            let cfg = RunConfig::paper();
            let t0 = Instant::now();
            for _ in 0..case.inner.max(1) {
                let stats = run_workload(w.as_ref(), PolicyConfig::for_system(case.system), &cfg)
                    .expect("paper-config run completes");
                add(&mut total, &stats);
            }
            (total, t0.elapsed(), 0)
        }
    }
}

/// Measures one case: best wall time over `reps` runs (the minimum is the
/// least noisy estimator for a deterministic workload).
#[must_use]
pub fn measure_case(case: &Case, reps: u32) -> Measurement {
    measure_case_armed(case, reps, None).0
}

/// [`measure_case`] with epoch commitments armed at `commit_interval` on
/// the contended kernel (see [`execute_once`]); also returns the
/// commitment-chain length of the last run.
pub(crate) fn measure_case_armed(
    case: &Case,
    reps: u32,
    commit_interval: Option<u64>,
) -> (Measurement, u64) {
    let mut best: Option<(RunStats, Duration, u64)> = None;
    for _ in 0..reps.max(1) {
        let (stats, wall, chain_len) = execute_once(case, commit_interval);
        if let Some((prev, best_wall, _)) = &best {
            debug_assert_eq!(prev.events, stats.events, "baseline runs are deterministic");
            if wall < *best_wall {
                best = Some((stats, wall, chain_len));
            }
        } else {
            best = Some((stats, wall, chain_len));
        }
    }
    let (stats, wall, chain_len) = best.expect("at least one rep");
    let cores = match case.kind {
        CaseKind::Contended => SystemConfig::default().core.cores,
        CaseKind::Registry(_) => RunConfig::paper().threads,
    };
    let m = Measurement {
        name: case.name(),
        cores,
        events: stats.events,
        cycles: stats.cycles,
        instructions: stats.instructions,
        commits: stats.commits,
        wall,
        peak_rss_kb: peak_rss_kb(),
    };
    (m, chain_len)
}

/// Measures the whole mix.
#[must_use]
pub fn measure_mix(quick: bool) -> Vec<Measurement> {
    let reps = if quick { 2 } else { 3 };
    workload_mix(quick)
        .iter()
        .map(|c| measure_case(c, reps))
        .collect()
}

/// `VmHWM` from `/proc/self/status` in kB; 0 where unavailable.
#[must_use]
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Serializes measurements into one labelled baseline section.
#[must_use]
pub fn section_json(label: &str, quick: bool, runs: &[Measurement]) -> Json {
    let mut root = BTreeMap::new();
    root.insert("label".to_string(), Json::Str(label.to_string()));
    root.insert(
        "mix".to_string(),
        Json::Str(format!(
            "sim_throughput {} mix, 16-core paper config",
            if quick { "quick" } else { "full" }
        )),
    );
    root.insert(
        "runs".to_string(),
        Json::Arr(
            runs.iter()
                .map(|m| {
                    let mut r = BTreeMap::new();
                    r.insert("name".to_string(), Json::Str(m.name.clone()));
                    r.insert("cores".to_string(), Json::U64(m.cores as u64));
                    r.insert("events".to_string(), Json::U64(m.events));
                    r.insert("cycles".to_string(), Json::U64(m.cycles));
                    r.insert("instructions".to_string(), Json::U64(m.instructions));
                    r.insert("commits".to_string(), Json::U64(m.commits));
                    r.insert(
                        "wall_ms".to_string(),
                        Json::F64(m.wall.as_secs_f64() * 1000.0),
                    );
                    r.insert("events_per_sec".to_string(), Json::F64(m.events_per_sec()));
                    r.insert("cycles_per_sec".to_string(), Json::F64(m.cycles_per_sec()));
                    r.insert(
                        "commits_per_sec".to_string(),
                        Json::F64(m.commits_per_sec()),
                    );
                    r.insert("peak_rss_kb".to_string(), Json::U64(m.peak_rss_kb));
                    Json::Obj(r)
                })
                .collect(),
        ),
    );
    Json::Obj(root)
}

/// Renders a terminal table of measurements.
#[must_use]
pub fn table(runs: &[Measurement]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<20} {:>8} {:>12} {:>12} {:>10} {:>14} {:>12} {:>12}",
        "workload/system",
        "cores",
        "events",
        "cycles",
        "wall ms",
        "events/sec",
        "commits/sec",
        "peak RSS kB"
    );
    for m in runs {
        let _ = writeln!(
            s,
            "{:<20} {:>8} {:>12} {:>12} {:>10.1} {:>14.0} {:>12.0} {:>12}",
            m.name,
            m.cores,
            m.events,
            m.cycles,
            m.wall.as_secs_f64() * 1000.0,
            m.events_per_sec(),
            m.commits_per_sec(),
            m.peak_rss_kb
        );
    }
    s
}

/// Extracts the section to gate against from a committed
/// `BENCH_simcore.json` document: the `after` section when present
/// (before/after trajectory layout), else the document itself (a plain
/// section as written by `--out`).
fn gate_section(doc: &Json) -> &Json {
    // A dedicated "gate" section holds the regression floors: the "after"
    // numbers are same-conditions A/B evidence (per-case best of several
    // rounds), which host noise alone can undercut by >10%. The gate
    // floors bake in that noise margin so the CI check trips on real
    // regressions, not on a loaded runner.
    doc.get("gate").or_else(|| doc.get("after")).unwrap_or(doc)
}

/// Diffs `measured` against the committed baseline document: every
/// measured case that also appears in the baseline must reach at least
/// `1 - tolerance` of each committed throughput floor — events/sec
/// always, commits/sec (user-txns/sec) where the committed entry records
/// one. Returns a human-readable report; `Err` when any case regresses
/// past the gate.
///
/// # Errors
///
/// Returns the offending cases, with measured vs committed numbers.
pub fn check_against(
    baseline_doc: &Json,
    measured: &[Measurement],
    tolerance: f64,
) -> Result<String, String> {
    let section = gate_section(baseline_doc);
    let Some(Json::Arr(runs)) = section.get("runs") else {
        return Err("baseline document has no 'runs' array".to_string());
    };
    let committed: BTreeMap<String, (Option<f64>, Option<f64>)> = runs
        .iter()
        .filter_map(|r| {
            let name = r.get("name").and_then(Json::as_str)?;
            let eps = r.get("events_per_sec").and_then(Json::as_f64);
            let cps = r.get("commits_per_sec").and_then(Json::as_f64);
            (eps.is_some() || cps.is_some()).then(|| (name.to_string(), (eps, cps)))
        })
        .collect();
    let mut report = String::new();
    let mut failures = String::new();
    use std::fmt::Write as _;
    for m in measured {
        let Some(&(eps, cps)) = committed.get(&m.name) else {
            let _ = writeln!(report, "{}: not in committed baseline, skipped", m.name);
            continue;
        };
        let gates = [
            ("ev/s", m.events_per_sec(), eps),
            ("commits/s", m.commits_per_sec(), cps),
        ];
        for (unit, got, floor) in gates {
            let Some(base) = floor else { continue };
            let ratio = got / base;
            let verdict = if ratio >= 1.0 - tolerance {
                "ok"
            } else {
                "REGRESSION"
            };
            let line = format!(
                "{}: measured {:.0} {unit} vs committed {:.0} {unit} ({:+.1}%) {}",
                m.name,
                got,
                base,
                (ratio - 1.0) * 100.0,
                verdict
            );
            let _ = writeln!(report, "{line}");
            if verdict == "REGRESSION" {
                let _ = writeln!(failures, "{line}");
            }
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!(
            "throughput regressed more than {:.0}% against the committed \
             baseline:\n{failures}\nfull diff:\n{report}",
            tolerance * 100.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &str, events: u64, wall_ms: u64) -> Measurement {
        Measurement {
            name: name.to_string(),
            cores: 16,
            events,
            cycles: events * 4,
            instructions: events,
            commits: events / 2,
            wall: Duration::from_millis(wall_ms),
            peak_rss_kb: 1,
        }
    }

    #[test]
    fn mix_has_quick_subset() {
        let quick = workload_mix(true);
        let full = workload_mix(false);
        assert!(quick.len() < full.len());
        let full_names: Vec<String> = full.iter().map(Case::name).collect();
        for c in &quick {
            assert!(
                full_names.contains(&c.name()),
                "{} not in full mix",
                c.name()
            );
        }
    }

    #[test]
    fn section_json_round_trips() {
        let runs = vec![fake("contended/chats", 10_000, 10)];
        let doc = section_json("test", true, &runs);
        let back = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);
        let arr = back.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].get("events").and_then(Json::as_u64), Some(10_000u64));
    }

    #[test]
    fn gate_accepts_within_tolerance_and_rejects_regressions() {
        let committed = section_json("base", true, &[fake("contended/chats", 1_000_000, 1000)]);
        // 5% slower than committed: inside a 10% gate.
        let ok = check_against(&committed, &[fake("contended/chats", 950_000, 1000)], 0.10);
        assert!(ok.is_ok(), "{ok:?}");
        // 20% slower: outside the gate.
        let bad = check_against(&committed, &[fake("contended/chats", 800_000, 1000)], 0.10);
        let err = bad.unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
        // Unknown cases are skipped, not failed.
        let skip = check_against(&committed, &[fake("novel/chats", 1, 1000)], 0.10);
        assert!(skip.unwrap().contains("skipped"));
    }

    #[test]
    fn commits_floor_gates_independently_of_events() {
        // A hand-written gate entry may carry only the user-txns/sec
        // floor (no events_per_sec): the commits gate must still trip.
        let entry = Json::Obj(
            [
                (
                    "name".to_string(),
                    Json::Str("evm-token-storm/chats".to_string()),
                ),
                ("commits_per_sec".to_string(), Json::F64(100_000.0)),
            ]
            .into_iter()
            .collect(),
        );
        let doc = Json::Obj(
            [("runs".to_string(), Json::Arr(vec![entry]))]
                .into_iter()
                .collect(),
        );
        // fake() commits = events/2, wall 1s: 240k commits/s clears the
        // 100k floor even though no events floor exists.
        let ok = check_against(&doc, &[fake("evm-token-storm/chats", 480_000, 1000)], 0.10);
        assert!(ok.unwrap().contains("commits/s"));
        // 80k commits/s is below floor * (1 - 0.10).
        let bad = check_against(&doc, &[fake("evm-token-storm/chats", 160_000, 1000)], 0.10);
        let err = bad.unwrap_err();
        assert!(
            err.contains("commits/s") && err.contains("REGRESSION"),
            "{err}"
        );
    }

    #[test]
    fn gate_prefers_after_section() {
        let mut root = BTreeMap::new();
        root.insert(
            "before".to_string(),
            section_json("old", true, &[fake("contended/chats", 100, 1000)]),
        );
        root.insert(
            "after".to_string(),
            section_json("new", true, &[fake("contended/chats", 1_000, 1000)]),
        );
        let doc = Json::Obj(root);
        // Measured matches `after`, which would fail against `before`'s
        // stale number if the gate picked the wrong section.
        let res = check_against(&doc, &[fake("contended/chats", 1_000, 1000)], 0.10);
        assert!(res.is_ok(), "{res:?}");
    }

    #[test]
    fn gate_prefers_dedicated_gate_floors() {
        let mut root = BTreeMap::new();
        root.insert(
            "after".to_string(),
            section_json("new", true, &[fake("contended/chats", 1_000, 1000)]),
        );
        root.insert(
            "gate".to_string(),
            section_json("floor", true, &[fake("contended/chats", 700, 1000)]),
        );
        let doc = Json::Obj(root);
        // 75% of the `after` number, but above the explicit gate floor.
        let res = check_against(&doc, &[fake("contended/chats", 750, 1000)], 0.10);
        assert!(res.is_ok(), "{res:?}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }
}
