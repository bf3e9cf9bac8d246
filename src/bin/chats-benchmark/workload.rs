//! The five workloads and the loop body that runs one unit of each.
//!
//! A workload's run is a fixed sequence of units; unit `k` of a run with
//! seed `S` draws every input from the seed `S*1000+k`. Every simulation
//! a unit starts goes through the public API of the crate that owns that
//! step, wrapped in a span named after the crate, and every result passes
//! the correctness gate before it counts.

use crate::host;
use crate::trace::Tracer;
use chats_check::{explore_scenario, full_scenarios, ExploreBudget, Scenario};
use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{RunProgress, DEFAULT_COMMIT_INTERVAL};
use chats_obs::{Timeline, VecSink};
use chats_runner::cache::stats_to_json;
use chats_runner::hash::fnv1a_64;
use chats_runner::{DiskCache, JobSpec, MAIN_SYSTEMS};
use chats_stats::RunStats;
use chats_workloads::kernels::evm::EvmWorkload;
use chats_workloads::{prepare_run, registry, PreparedRun, RunConfig, Workload as _};
use std::path::PathBuf;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 4-7 grid: 12 registry workloads x 5 systems per seed.
    PaperGrid,
    /// `evm-token-storm` under CHATS, then Baseline.
    TokenStorm,
    /// `evm-transfers` under CHATS.
    Transfers,
    /// `chats-check` exploration of one system's seven scenarios.
    Explore,
    /// `evm-token-storm` under CHATS with the snapshot and trace layers
    /// armed beside an unarmed run.
    Instrumented,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperGrid,
        Workload::TokenStorm,
        Workload::Transfers,
        Workload::Explore,
        Workload::Instrumented,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::TokenStorm => "token-storm",
            Workload::Transfers => "transfers",
            Workload::Explore => "explore",
            Workload::Instrumented => "instrumented",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one unit took on the reference host (2-core Intel
    /// Xeon, release build). `--seconds` becomes a unit count through
    /// this constant rather than through a timer, so a run's work depends
    /// only on its arguments and two builds always run identical work.
    fn nominal_unit_s(self) -> f64 {
        match self {
            Workload::PaperGrid => 0.38,
            Workload::TokenStorm => 3.0,
            Workload::Transfers => 0.48,
            Workload::Explore => 3.3,
            Workload::Instrumented => 4.6,
        }
    }

    /// Units a run measures: as many as fill `seconds` on the reference
    /// host.
    pub fn units(self, seconds: u64) -> u32 {
        ((seconds as f64 / self.nominal_unit_s()).round() as u32).max(1)
    }

    /// Host-speed kernel calls timed between two units: about 4% of a
    /// unit's time, so long units are bracketed by more samples.
    pub fn kernel_samples(self) -> u32 {
        ((0.04 * self.nominal_unit_s() / host::REFERENCE_S).round() as u32).max(1)
    }

    /// Set-up passes timed in a run, a multiple of the set-up groups of
    /// `setup_s` (main.rs): about a second of set-up on the reference
    /// host, and at most 45. A set-up takes about 4 ms on paper-grid,
    /// 0.01-0.02 ms on explore, 45 ms on transfers, 60 ms on instrumented
    /// and 110 ms on token-storm.
    pub fn setup_passes(self) -> usize {
        match self {
            Workload::PaperGrid | Workload::Explore => 45,
            Workload::Transfers | Workload::Instrumented => 15,
            Workload::TokenStorm => 9,
        }
    }

    /// Set-ups one pass times back to back; the pass reports their mean.
    /// Explore's set-up takes about 20 us, and a pass that short is
    /// slowed up to 2.5x when other tenants load the host's caches, where
    /// the set-up kernel slows 1.4x; a hundred set-ups in one pass slow
    /// about as much as the kernel does.
    pub fn setup_repeats(self) -> u32 {
        match self {
            Workload::Explore => 100,
            _ => 1,
        }
    }

    /// The runner jobs of unit `unit`; empty for explore, which runs
    /// scenarios instead.
    pub fn unit_jobs(self, seed: u64, unit: u32) -> Vec<JobSpec> {
        let cfg = RunConfig::paper().with_seed(unit_seed(seed, unit));
        let job = |w: &str, s: HtmSystem| JobSpec::new(w, PolicyConfig::for_system(s), cfg.clone());
        match self {
            Workload::PaperGrid => registry::all()
                .iter()
                .flat_map(|w| MAIN_SYSTEMS.map(|s| job(w.name(), s)))
                .collect(),
            Workload::TokenStorm => vec![
                job("evm-token-storm", HtmSystem::Chats),
                job("evm-token-storm", HtmSystem::Baseline),
            ],
            Workload::Transfers => vec![job("evm-transfers", HtmSystem::Chats)],
            Workload::Instrumented => vec![job("evm-token-storm", HtmSystem::Chats)],
            Workload::Explore => Vec::new(),
        }
    }

    /// The explore scenarios of unit `unit`: the `full_scenarios()` of one
    /// HTM system (the systems take turns), with every scenario seed
    /// offset by the unit seed. Every unit then holds the same mix of
    /// kernels, two of which run one schedule into its cycle budget.
    pub fn unit_scenarios(self, seed: u64, unit: u32) -> Vec<Scenario> {
        if self != Workload::Explore {
            return Vec::new();
        }
        let suite = full_scenarios();
        let mut systems: Vec<HtmSystem> = suite.iter().map(|s| s.system).collect();
        systems.dedup();
        let system = systems[unit as usize % systems.len()];
        suite
            .into_iter()
            .filter(|s| s.system == system)
            .map(|mut s| {
                s.seed = s.seed.wrapping_add(unit_seed(seed, unit));
                s
            })
            .collect()
    }

    /// The benchmark's set-up work: building the inputs of unit 0, i.e.
    /// each job's loaded machine and checker (each scenario's kernel for
    /// explore). Returns how many inputs it built.
    pub fn set_up(self, seed: u64) -> usize {
        let mut built = 0;
        for spec in self.unit_jobs(seed, 0) {
            built += usize::from(std::hint::black_box(prepare(&spec)).is_ok());
        }
        for scenario in self.unit_scenarios(seed, 0) {
            std::hint::black_box(scenario.program.build());
            built += 1;
        }
        built
    }
}

/// The seed every input of unit `unit` derives from.
pub fn unit_seed(seed: u64, unit: u32) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(u64::from(unit))
}

/// Counts gathered over the measured units, beside the `RunStats` of the
/// completed jobs. Everything here except `failed` comes from the
/// simulator and repeats exactly for a seed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Simulation runs attempted: jobs, explore schedules, armed runs.
    pub runs: u64,
    /// Runs or checks that failed the correctness gate.
    pub failed: u64,
    pub cache_hits: u64,
    pub schedules: u64,
    pub inconclusive: u64,
    pub decisions: u64,
    pub epochs: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub trace_events: u64,
}

/// One workload's run in progress.
pub struct Bench {
    workload: Workload,
    seed: u64,
    pub tracer: Tracer,
    cache: DiskCache,
    /// Every job that completed (the unarmed run only, on instrumented):
    /// the read-back pass and the per-layer counts use them.
    pub done: Vec<(JobSpec, RunStats)>,
    pub tally: Tally,
    pub failures: Vec<String>,
}

impl Bench {
    /// A run storing its job results in `cache_dir`, which must not hold
    /// entries for these jobs yet.
    pub fn new(workload: Workload, seed: u64, trace: bool, cache_dir: PathBuf) -> Bench {
        Bench {
            workload,
            seed,
            tracer: Tracer::new(trace),
            cache: DiskCache::new(cache_dir),
            done: Vec::new(),
            tally: Tally::default(),
            failures: Vec::new(),
        }
    }

    pub fn fail(&mut self, why: String) {
        self.tally.failed += 1;
        self.failures.push(why);
    }

    /// Runs unit `unit`; returns a digest of each simulation's result (0
    /// for one that failed).
    pub fn run_unit(&mut self, unit: u32) -> Vec<u64> {
        self.tracer.begin_unit(unit);
        let jobs = self.workload.unit_jobs(self.seed, unit);
        let digests = match self.workload {
            Workload::Explore => self
                .workload
                .unit_scenarios(self.seed, unit)
                .iter()
                .map(|s| self.explore(s))
                .collect(),
            Workload::Instrumented => jobs.iter().flat_map(|j| self.instrumented(j)).collect(),
            _ => jobs
                .iter()
                .map(|j| self.job(j).as_ref().map_or(0, digest))
                .collect(),
        };
        self.tracer.end_unit();
        digests
    }

    /// Reads every stored job result back from the cache (the hit path of
    /// `chats-run`); each must come back unchanged. Traced as unit `unit`.
    pub fn read_back(&mut self, unit: u32) {
        self.tracer.begin_unit(unit);
        let done = std::mem::take(&mut self.done);
        for (spec, stats) in &done {
            match self
                .tracer
                .time("runner.cache_hit", || self.cache.load(spec))
            {
                Some(hit) if hit == *stats => self.tally.cache_hits += 1,
                _ => self.fail(format!("{}: cache returned another result", spec.label())),
            }
        }
        self.done = done;
        self.tracer.end_unit();
    }

    /// CHATS's execution-time reduction against Baseline by the `figures
    /// headline` formula (1 - the arithmetic mean over the STAMP
    /// workloads of summed CHATS cycles / summed Baseline cycles), from
    /// the completed jobs; `None` unless both systems ran every STAMP
    /// workload.
    pub fn chats_time_reduction(&self) -> Option<f64> {
        let cycles = |w: &str, s: HtmSystem| -> u64 {
            self.done
                .iter()
                .filter(|(j, _)| j.workload == w && j.policy.system == s)
                .map(|(_, st)| st.cycles)
                .sum()
        };
        let ratios: Vec<f64> = registry::stamp()
            .iter()
            .map(|w| {
                let base = cycles(w.name(), HtmSystem::Baseline);
                (base > 0).then(|| cycles(w.name(), HtmSystem::Chats) as f64 / base as f64)
            })
            .collect::<Option<_>>()?;
        Some(1.0 - ratios.iter().sum::<f64>() / ratios.len() as f64)
    }

    /// One job along the path `chats-run` gives it: id, cache lookup (a
    /// miss), machine construction, run, invariant check, cache store.
    fn job(&mut self, spec: &JobSpec) -> Option<RunStats> {
        self.tally.runs += 1;
        match self.try_job(spec) {
            Ok(stats) => {
                self.done.push((spec.clone(), stats.clone()));
                Some(stats)
            }
            Err(why) => {
                self.fail(format!("{}: {why}", spec.label()));
                None
            }
        }
    }

    fn try_job(&mut self, spec: &JobSpec) -> Result<RunStats, String> {
        let t = &mut self.tracer;
        let _ = t.time("runner.job_id", || spec.id());
        if t.time("runner.cache_load", || self.cache.load(spec))
            .is_some()
        {
            return Err("an empty cache returned a hit".to_string());
        }
        let PreparedRun {
            mut machine,
            checker,
        } = t.time("workloads.prepare", || prepare(spec))?;
        let stats = t
            .time("machine.run", || machine.run(spec.config.max_cycles))
            .map_err(|e| e.to_string())?;
        // The machine and checker move into the span so that freeing them
        // is charged to the layer that built them, not to the benchmark.
        t.time("workloads.check", move || checker(&machine))?;
        check_user_txns(spec, &stats)?;
        t.time("runner.cache_store", || self.cache.store(spec, &stats))
            .map_err(|e| format!("cache store: {e}"))?;
        Ok(stats)
    }

    /// Explores one scenario; its oracles must find no failure.
    fn explore(&mut self, scenario: &Scenario) -> u64 {
        let r = self.tracer.time("check.explore", || {
            explore_scenario(scenario, &ExploreBudget::smoke(), None)
        });
        let t = &mut self.tally;
        t.runs += r.runs as u64;
        t.schedules += r.runs as u64;
        t.inconclusive += r.inconclusive as u64;
        t.decisions += r.base_decisions as u64;
        let failure = r.failure.as_ref().map_or("none", |f| f.kind.as_str());
        if let Some(f) = &r.failure {
            self.fail(format!("{}: {failure} found by {}", r.name, f.found_by));
        }
        fnv1a_64(
            format!(
                "{}|{}|{}|{:016x}|{}|{failure}",
                r.name, r.runs, r.inconclusive, r.base_digest, r.base_decisions
            )
            .as_bytes(),
        )
    }

    /// Three interleaved runs of one seed: unarmed (through the runner
    /// path), with epoch commitments plus a mid-run checkpoint and
    /// restore, and with a `VecSink` trace rebuilt into a `Timeline`.
    /// Both armed runs must reproduce the unarmed run's `RunStats`.
    fn instrumented(&mut self, spec: &JobSpec) -> Vec<u64> {
        let off = self.job(spec);
        let mut digests = vec![off.as_ref().map_or(0, digest)];
        for traced in [false, true] {
            self.tally.runs += 1;
            let Some(off) = &off else {
                digests.push(0);
                continue;
            };
            let arm = if traced {
                self.traced(spec, off)
            } else {
                self.committed(spec, off)
            };
            match arm {
                Ok(d) => digests.push(d),
                Err(why) => {
                    self.fail(format!("{}: {why}", spec.label()));
                    digests.push(0);
                }
            }
        }
        digests
    }

    fn committed(&mut self, spec: &JobSpec, off: &RunStats) -> Result<u64, String> {
        let max = spec.config.max_cycles;
        let t = &mut self.tracer;
        let mut source = t.time("workloads.prepare", || prepare(spec))?.machine;
        source.set_commit_interval(DEFAULT_COMMIT_INTERVAL);
        // Pause on the epoch boundary nearest below the middle of the run.
        let pause = off.cycles / 2 / DEFAULT_COMMIT_INTERVAL * DEFAULT_COMMIT_INTERVAL;
        match t.time("machine.run_committed", || source.run_to(pause, max)) {
            Ok(RunProgress::Paused { .. }) => {}
            Ok(RunProgress::Done(_)) => return Err(format!("finished before cycle {pause}")),
            Err(e) => return Err(e.to_string()),
        }
        let bytes = t.time("snap.checkpoint", || source.checkpoint());
        let at_pause = t.time("snap.commitment", move || source.state_commitment());
        let PreparedRun {
            mut machine,
            checker,
        } = t.time("workloads.prepare", || prepare(spec))?;
        machine.set_commit_interval(DEFAULT_COMMIT_INTERVAL);
        t.time("snap.restore", || machine.restore(&bytes))
            .map_err(|e| format!("restore: {e}"))?;
        if t.time("snap.commitment", || machine.state_commitment()) != at_pause {
            return Err("the restored machine's state commitment differs".to_string());
        }
        let stats = t
            .time("machine.run_committed", || machine.run(max))
            .map_err(|e| e.to_string())?;
        let epochs = machine.commitment_chain().len() as u64;
        t.time("workloads.check", move || checker(&machine))?;
        if stats != *off {
            return Err("arming commitments changed the RunStats".to_string());
        }
        let tally = &mut self.tally;
        tally.epochs += epochs;
        tally.checkpoints += 1;
        tally.checkpoint_bytes += bytes.len() as u64;
        Ok(fnv1a_64(
            format!("{:016x}|{epochs}|{}", digest(&stats), bytes.len()).as_bytes(),
        ))
    }

    fn traced(&mut self, spec: &JobSpec, off: &RunStats) -> Result<u64, String> {
        let t = &mut self.tracer;
        let PreparedRun {
            mut machine,
            checker,
        } = t.time("workloads.prepare", || prepare(spec))?;
        machine.set_trace_sink(Box::new(VecSink::new()));
        let stats = t
            .time("machine.run_traced", || machine.run(spec.config.max_cycles))
            .map_err(|e| e.to_string())?;
        let sink = machine
            .take_trace_sink()
            .ok_or("the machine lost its trace sink")?;
        t.time("workloads.check", move || checker(&machine))?;
        let (events, commits) = t.time("obs.rebuild", || {
            let events = VecSink::into_events(sink);
            let commits = Timeline::rebuild(&events, stats.cycles).commits();
            (events.len() as u64, commits)
        });
        if commits != stats.commits {
            return Err(format!(
                "the timeline holds {commits} commits, RunStats {}",
                stats.commits
            ));
        }
        if stats != *off {
            return Err("installing a trace sink changed the RunStats".to_string());
        }
        self.tally.trace_events += events;
        Ok(fnv1a_64(
            format!("{:016x}|{events}", digest(&stats)).as_bytes(),
        ))
    }
}

/// Builds the machine and checker for `spec`.
fn prepare(spec: &JobSpec) -> Result<PreparedRun, String> {
    let w = registry::by_name(&spec.workload)
        .ok_or_else(|| format!("unknown workload '{}'", spec.workload))?;
    Ok(prepare_run(w.as_ref(), spec.policy, &spec.config))
}

/// A digest of every counter in `stats`.
fn digest(stats: &RunStats) -> u64 {
    fnv1a_64(stats_to_json(stats).to_compact().as_bytes())
}

/// User transactions a run completed: on the power systems every retry
/// is transactional, elsewhere the fallback path completes the rest.
pub fn user_txns(system: HtmSystem, s: &RunStats) -> u64 {
    if system.uses_power_token() {
        s.commits
    } else {
        s.commits + s.fallback_acquisitions
    }
}

/// The evm family's no-lost-update check: every user transaction of the
/// stream completes exactly once.
fn check_user_txns(spec: &JobSpec, stats: &RunStats) -> Result<(), String> {
    let Some(w) = [
        EvmWorkload::transfers(),
        EvmWorkload::token_storm(),
        EvmWorkload::dex(),
    ]
    .into_iter()
    .find(|w| w.name() == spec.workload) else {
        return Ok(());
    };
    let expected = spec.config.threads as u64 * w.txs_per_thread();
    let done = user_txns(spec.policy.system, stats);
    if done == expected {
        Ok(())
    } else {
        Err(format!(
            "{done} user transactions completed, {expected} submitted"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_follow_the_seconds_and_inputs_follow_the_seed() {
        assert_eq!(Workload::PaperGrid.units(10), 26);
        assert_eq!(Workload::TokenStorm.units(1), 1);
        assert_eq!(Workload::Explore.units(10), 3);
        assert_eq!(unit_seed(2, 7), 2007);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        let grid = Workload::PaperGrid.unit_jobs(1, 3);
        assert_eq!(grid.len(), 60);
        assert!(grid.iter().all(|j| j.config.seed == 1003));
        let explore: Vec<Vec<Scenario>> = (0..4)
            .map(|u| Workload::Explore.unit_scenarios(1, u))
            .collect();
        assert!(explore.iter().all(|s| s.len() == 7));
        assert_ne!(explore[0][0].system, explore[1][0].system);
        assert_eq!(explore[0][0].seed, full_scenarios()[0].seed + 1000);
    }

    #[test]
    fn user_transactions_count_fallback_executions_off_the_power_systems() {
        let s = RunStats {
            commits: 10,
            fallback_acquisitions: 3,
            ..RunStats::default()
        };
        assert_eq!(user_txns(HtmSystem::Baseline, &s), 13);
        assert_eq!(user_txns(HtmSystem::Power, &s), 10);
    }
}
