//! The worker pool: parallel job execution with panic isolation and an
//! optional determinism gate.
//!
//! A job is a pure function of its [`JobSpec`], so it runs one way: once,
//! inline on the worker that claimed it, under `catch_unwind`. A panic
//! inside the simulator fails that job alone and the worker moves on; it
//! is not retried, because re-running a deterministic panic repeats it.
//! The simulation's own cycle budget is the only timeout. A simulation
//! *error* (cycle-budget timeout, invariant violation, unknown workload)
//! is recorded as the job's outcome, with partial statistics when the run
//! got that far.

use crate::cache::{default_cache_dir, DiskCache};
use crate::checkpoint::{checkpoint_dir, execute_checkpointed, CheckpointConfig, CommitMeta};
use crate::job::{JobSet, JobSpec};
use chats_stats::RunStats;
use chats_workloads::RunFailure;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads. Defaults to [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Read/write the disk cache. Off means every job executes.
    pub use_cache: bool,
    /// Cache directory (see [`default_cache_dir`]).
    pub cache_dir: std::path::PathBuf,
    /// Execute every cache-missing job twice and demand bit-identical
    /// statistics (the determinism gate). Doubles execution cost.
    pub verify_determinism: bool,
    /// Checkpoint stride in simulated cycles: every executed job pauses
    /// at each multiple, writes a machine snapshot under
    /// `<cache-dir>/checkpoints/`, and records its epoch-commitment
    /// chain in the manifest. `None` (the default) runs jobs straight
    /// through, exactly as before checkpointing existed.
    pub checkpoint_every: Option<u64>,
    /// Restore interrupted jobs from their last checkpoint instead of
    /// starting at cycle 0. Only meaningful with `checkpoint_every`.
    pub resume: bool,
    /// Suppress per-job progress lines on stderr.
    pub quiet: bool,
}

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            jobs: thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            use_cache: true,
            cache_dir: default_cache_dir(),
            verify_determinism: false,
            checkpoint_every: None,
            resume: false,
            quiet: false,
        }
    }
}

/// How a job concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Result served from the in-memory memo or the disk cache.
    Cached,
    /// Executed (and, with the cache enabled, stored).
    Executed,
    /// Simulation error or panic; the message explains.
    Failed(String),
    /// The simulation's cycle budget tripped. The job is deterministic,
    /// so it is not re-run; the statistics gathered up to that point
    /// survive.
    TimedOut {
        /// What ran out and when.
        message: String,
        /// Statistics at the moment the cycle budget tripped. Boxed to
        /// keep the variant small.
        partial: Option<Box<RunStats>>,
    },
    /// The determinism gate saw two runs of the same job disagree; the
    /// message names the first diverging counter.
    DeterminismViolation(String),
}

impl JobOutcome {
    /// Stable manifest label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Cached => "cached",
            JobOutcome::Executed => "executed",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::TimedOut { .. } => "timed-out",
            JobOutcome::DeterminismViolation(_) => "determinism-violation",
        }
    }

    /// `true` when the job produced usable statistics.
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, JobOutcome::Cached | JobOutcome::Executed)
    }

    /// The failure message, if any.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        match self {
            JobOutcome::Failed(e)
            | JobOutcome::DeterminismViolation(e)
            | JobOutcome::TimedOut { message: e, .. } => Some(e),
            _ => None,
        }
    }

    /// Partial statistics recovered from a timed-out job, if any.
    #[must_use]
    pub fn partial_stats(&self) -> Option<&RunStats> {
        match self {
            JobOutcome::TimedOut {
                partial: Some(stats),
                ..
            } => Some(stats),
            _ => None,
        }
    }
}

/// One scheduled job's bookkeeping, in submission order in the manifest.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Content-hash id, 16 hex digits.
    pub id: String,
    /// Human label ([`JobSpec::label`]).
    pub label: String,
    /// How the job concluded.
    pub outcome: JobOutcome,
    /// Executions made: 0 for cache hits, 1 for a run, 2 when the
    /// determinism gate re-ran the job.
    pub attempts: u32,
    /// Wall-clock milliseconds this job occupied its worker.
    pub millis: u64,
    /// Index of the worker that ran the job.
    pub worker: usize,
    /// Commitment bookkeeping, when the job executed under
    /// checkpointing: epoch interval, resume point and the full
    /// commitment chain.
    pub commit: Option<CommitMeta>,
}

/// Everything a [`Runner::run_set`] call produced.
#[derive(Debug)]
pub struct RunReport {
    /// Per-job records in submission order.
    pub records: Vec<JobRecord>,
    /// Statistics for every successful job, keyed by [`crate::job::JobId`] value.
    pub results: HashMap<u64, RunStats>,
    /// Worker threads the pool actually used.
    pub workers: usize,
    /// Wall-clock time of the whole set.
    pub wall: Duration,
}

impl RunReport {
    /// Statistics for one job of the set, if it succeeded.
    #[must_use]
    pub fn stats_for(&self, spec: &JobSpec) -> Option<&RunStats> {
        self.results.get(&spec.id().0)
    }

    /// Aggregate per-job busy time — the serial cost of the set. On a
    /// multi-core host `busy / wall` exceeds 1 when the pool overlaps
    /// jobs; on a single-core host it hovers near 1 regardless of the
    /// worker count.
    #[must_use]
    pub fn busy(&self) -> Duration {
        Duration::from_millis(self.records.iter().map(|r| r.millis).sum())
    }

    /// `busy / wall`: the measured parallel speedup of this run.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.busy().as_secs_f64() / wall
        }
    }

    /// Count of records with a given outcome label.
    #[must_use]
    pub fn count(&self, label: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.label() == label)
            .count()
    }

    /// Re-runs made by the determinism gate (executions beyond each
    /// job's first).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.records
            .iter()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum()
    }

    /// `true` when every job produced statistics.
    #[must_use]
    pub fn all_succeeded(&self) -> bool {
        self.records.iter().all(|r| r.outcome.is_success())
    }
}

/// Why the memo lock cannot be poisoned: jobs run, and may panic, only
/// while it is not held.
const MEMO_LOCK: &str = "the memo lock is never held while a job runs";

/// The experiment runner: a cache-aware parallel executor for [`JobSet`]s.
pub struct Runner {
    cfg: RunnerConfig,
    cache: DiskCache,
    memo: Mutex<HashMap<u64, RunStats>>,
}

impl Runner {
    /// A runner with the given configuration.
    #[must_use]
    pub fn new(cfg: RunnerConfig) -> Runner {
        let cache = DiskCache::new(cfg.cache_dir.clone());
        Runner {
            cfg,
            cache,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Runs every job of the set on the worker pool and reports.
    #[must_use]
    pub fn run_set(&self, set: &JobSet) -> RunReport {
        let start = Instant::now();
        let specs: Vec<&JobSpec> = set.iter().collect();
        let total = specs.len();
        let workers = self.cfg.jobs.clamp(1, total.max(1));
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<JobRecord>>> = (0..total).map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for worker in 0..workers {
                let next = &next;
                let done = &done;
                let slots = &slots;
                let specs = &specs;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let t0 = Instant::now();
                    let (outcome, attempts, commit) = self.resolve(spec);
                    let record = JobRecord {
                        id: spec.id().to_string(),
                        label: spec.label(),
                        outcome,
                        attempts,
                        millis: u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX),
                        worker,
                        commit,
                    };
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if !self.cfg.quiet {
                        eprintln!(
                            "[{finished:>4}/{total}] {:<22} {:<40} {:>8} ms  (worker {worker})",
                            record.outcome.label(),
                            record.label,
                            record.millis,
                        );
                    }
                    *slots[i].lock().unwrap() = Some(record);
                });
            }
        });
        let records: Vec<JobRecord> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("worker records every claimed job")
            })
            .collect();
        let memo = self.memo.lock().expect(MEMO_LOCK);
        let results = specs
            .iter()
            .filter_map(|s| {
                let id = s.id().0;
                memo.get(&id).map(|st| (id, st.clone()))
            })
            .collect();
        RunReport {
            records,
            results,
            workers,
            wall: start.elapsed(),
        }
    }

    /// The checkpoint policy executions run under, if any.
    fn checkpoint_config(&self) -> Option<CheckpointConfig> {
        self.cfg.checkpoint_every.map(|every| CheckpointConfig {
            every,
            resume: self.cfg.resume,
            dir: checkpoint_dir(&self.cfg.cache_dir),
        })
    }

    /// Resolves one job: memo, then disk cache, then one execution on
    /// the calling worker. A successful job's statistics land in the
    /// memo; returns the outcome, the executions made and the job's
    /// commitment bookkeeping.
    fn resolve(&self, spec: &JobSpec) -> (JobOutcome, u32, Option<CommitMeta>) {
        let id = spec.id().0;
        if self.memo.lock().expect(MEMO_LOCK).contains_key(&id) {
            return (JobOutcome::Cached, 0, None);
        }
        if self.cfg.use_cache {
            if let Some(stats) = self.cache.load(spec) {
                self.memo.lock().expect(MEMO_LOCK).insert(id, stats);
                return (JobOutcome::Cached, 0, None);
            }
        }
        let (stats, commit) = match execute_once(spec, self.checkpoint_config().as_ref()) {
            Ok(done) => done,
            Err(fail) if fail.timed_out => {
                let outcome = JobOutcome::TimedOut {
                    message: fail.message,
                    partial: fail.partial,
                };
                return (outcome, 1, None);
            }
            Err(fail) => return (JobOutcome::Failed(fail.message), 1, None),
        };
        let executions = 1 + u32::from(self.cfg.verify_determinism);
        if self.cfg.verify_determinism {
            if let Some(why) = determinism_divergence(spec, &stats) {
                return (JobOutcome::DeterminismViolation(why), executions, None);
            }
        }
        if self.cfg.use_cache {
            if let Err(e) = self.cache.store(spec, &stats) {
                eprintln!(
                    "chats-runner: warning: could not cache {} ({e})",
                    spec.label()
                );
            }
        }
        self.memo.lock().expect(MEMO_LOCK).insert(id, stats);
        (JobOutcome::Executed, executions, commit)
    }
}

/// Re-executes `spec` and describes the divergence from `first`, or
/// `None` when the re-run reproduced it bit-for-bit.
fn determinism_divergence(spec: &JobSpec, first: &RunStats) -> Option<String> {
    // The re-run is deliberately un-checkpointed: a straight-through
    // execution matching a paused-and-snapshotted one is a stronger
    // determinism statement than running the same path twice.
    match execute_once(spec, None) {
        Ok((second, _)) if second == *first => None,
        Ok((second, _)) => Some(first_divergence(first, &second)),
        Err(fail) => Some(format!("re-run failed: {}", fail.message)),
    }
}

/// Names the first counter that differs between two runs of one job.
fn first_divergence(a: &RunStats, b: &RunStats) -> String {
    use crate::cache::stats_to_json;
    let (ja, jb) = (stats_to_json(a), stats_to_json(b));
    if let (crate::Json::Obj(ma), crate::Json::Obj(mb)) = (&ja, &jb) {
        for (key, va) in ma {
            if mb.get(key) != Some(va) {
                return format!(
                    "two runs disagree on '{key}': {} vs {}",
                    va.to_compact(),
                    mb.get(key)
                        .map_or_else(|| "<missing>".into(), crate::Json::to_compact),
                );
            }
        }
    }
    "two runs disagree".to_string()
}

/// Executes `spec` once on the calling thread, paused and snapshotted
/// at every stride when `ckpt` is set. A panic inside the simulator is
/// caught and becomes a `panicked: ...` failure, so it fails this job
/// and never the pool.
fn execute_once(
    spec: &JobSpec,
    ckpt: Option<&CheckpointConfig>,
) -> Result<(RunStats, Option<CommitMeta>), RunFailure> {
    panic::catch_unwind(AssertUnwindSafe(|| match ckpt {
        Some(c) => execute_checkpointed(spec, c).map(|(stats, meta)| (stats, Some(meta))),
        None => spec.execute().map(|stats| (stats, None)),
    }))
    .unwrap_or_else(|payload| {
        Err(RunFailure::from(format!(
            "panicked: {}",
            panic_message(payload.as_ref())
        )))
    })
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// formatted string), for failure records.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chats_core::{HtmSystem, PolicyConfig};
    use chats_workloads::RunConfig;

    fn quiet_runner(dir: &std::path::Path, use_cache: bool) -> Runner {
        Runner::new(RunnerConfig {
            jobs: 2,
            use_cache,
            cache_dir: dir.to_path_buf(),
            quiet: true,
            ..RunnerConfig::default()
        })
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("chats-pool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn unknown_workload_fails_without_retry() {
        let dir = tmp_dir("unknown");
        let r = quiet_runner(&dir, false);
        let spec = JobSpec::new(
            "no-such-workload",
            PolicyConfig::for_system(HtmSystem::Baseline),
            RunConfig::quick_test(),
        );
        let (outcome, attempts, _) = r.resolve(&spec);
        assert_eq!(outcome.label(), "failed");
        assert_eq!(attempts, 1, "a simulation error is not retried");
        assert!(r.memo.lock().unwrap().is_empty());
        assert!(outcome.error().unwrap().contains("unknown workload"));
    }

    #[test]
    fn run_set_records_every_job_and_memoizes() {
        let dir = tmp_dir("memo");
        let r = quiet_runner(&dir, false);
        let mut set = JobSet::new();
        let spec = JobSpec::new(
            "cadd",
            PolicyConfig::for_system(HtmSystem::Baseline),
            RunConfig::quick_test(),
        );
        set.push(spec.clone());
        set.push(JobSpec::new(
            "no-such-workload",
            PolicyConfig::for_system(HtmSystem::Baseline),
            RunConfig::quick_test(),
        ));
        let report = r.run_set(&set);
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.count("executed"), 1);
        assert_eq!(report.count("failed"), 1);
        assert!(!report.all_succeeded());
        assert!(report.stats_for(&spec).is_some());
        // Second resolution of the same job is a memo hit.
        let (outcome, _, _) = r.resolve(&spec);
        assert_eq!(outcome, JobOutcome::Cached);
    }

    #[test]
    fn a_panicking_job_fails_once_and_spares_its_sibling() {
        let dir = tmp_dir("panic");
        let r = quiet_runner(&dir, false);
        let chats = PolicyConfig::for_system(HtmSystem::Chats);
        // `Machine::new` panics on a VSB with no entries.
        let panics = JobSpec::new("cadd", chats.with_vsb_size(0), RunConfig::quick_test());
        let sibling = JobSpec::new("cadd", chats, RunConfig::quick_test());
        let set: JobSet = [panics.clone(), sibling.clone()].into_iter().collect();
        let report = r.run_set(&set);
        let failed = &report.records[0];
        assert_eq!(failed.outcome.label(), "failed");
        assert_eq!(failed.attempts, 1, "a deterministic panic is not retried");
        let why = failed.outcome.error().unwrap();
        assert!(why.starts_with("panicked: "), "{why}");
        assert!(why.contains("VSB needs at least one entry"), "{why}");
        assert!(report.stats_for(&panics).is_none());
        assert_eq!(report.records[1].outcome, JobOutcome::Executed);
        assert_eq!(report.records[1].attempts, 1);
        assert!(report.stats_for(&sibling).is_some());
        assert_eq!(report.retries(), 0);
    }

    #[test]
    fn cycle_budget_timeout_keeps_partial_stats_and_never_retries() {
        let dir = tmp_dir("simtimeout");
        let r = quiet_runner(&dir, false);
        let mut cfg = RunConfig::quick_test();
        cfg.max_cycles = 50; // far too small for any workload to finish
        let spec = JobSpec::new("cadd", PolicyConfig::for_system(HtmSystem::Chats), cfg);
        let (outcome, attempts, _) = r.resolve(&spec);
        assert_eq!(outcome.label(), "timed-out");
        assert_eq!(
            attempts, 1,
            "a cycle-budget timeout is deterministic; retrying only burns time"
        );
        assert!(
            r.memo.lock().unwrap().is_empty(),
            "timeouts never enter the result set"
        );
        let partial = outcome.partial_stats().expect("partial stats survive");
        assert!(partial.cycles >= 50, "cycles records where the run stopped");
        assert!(outcome.error().unwrap().contains("timed out"));
    }

    #[test]
    fn first_divergence_names_the_counter() {
        let a = RunStats {
            cycles: 10,
            ..RunStats::default()
        };
        let b = RunStats {
            cycles: 11,
            ..RunStats::default()
        };
        let why = first_divergence(&a, &b);
        assert!(why.contains("cycles"), "{why}");
        assert!(why.contains("10") && why.contains("11"), "{why}");
    }

    #[test]
    fn report_speedup_is_busy_over_wall() {
        let report = RunReport {
            records: vec![
                JobRecord {
                    id: "0".into(),
                    label: "a".into(),
                    outcome: JobOutcome::Executed,
                    attempts: 1,
                    millis: 300,
                    worker: 0,
                    commit: None,
                },
                JobRecord {
                    id: "1".into(),
                    label: "b".into(),
                    outcome: JobOutcome::Executed,
                    attempts: 1,
                    millis: 300,
                    worker: 1,
                    commit: None,
                },
            ],
            results: HashMap::new(),
            workers: 2,
            wall: Duration::from_millis(300),
        };
        assert!((report.speedup() - 2.0).abs() < 1e-9);
        assert_eq!(report.busy(), Duration::from_millis(600));
        assert_eq!(report.retries(), 0);
    }
}
