//! The workload abstraction and the standard runner.

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{FaultPlan, Machine, Oracle, SimError, TraceSink, Tuning};
use chats_mem::Addr;
use chats_sim::{SimRng, SystemConfig};
use chats_stats::RunStats;
use chats_tvm::{Program, Reg, Vm};

/// Final-memory invariant checker: returns a description of the violation
/// if transactional semantics were broken.
pub type Checker = Box<dyn Fn(&Machine) -> Result<(), String>>;

/// One thread's program plus its initial register file.
#[derive(Debug, Clone)]
pub struct ThreadProgram {
    /// The bytecode to execute.
    pub program: Program,
    /// Registers preset before execution (thread id, base addresses, ...).
    pub presets: Vec<(Reg, u64)>,
    /// Seed for the thread's private random stream.
    pub seed: u64,
}

/// A fully instantiated workload: programs, initial memory, and the
/// invariant checker.
pub struct WorkloadSetup {
    /// One program per thread.
    pub programs: Vec<ThreadProgram>,
    /// Initial memory contents (word address, value).
    pub init: Vec<(Addr, u64)>,
    /// Validates final memory; returns a description of the violation if
    /// transactional semantics were broken.
    pub checker: Checker,
}

/// A named line region of a workload's memory footprint, for hot-line
/// attribution in observability reports (accounts vs contract storage vs
/// read-only parameter tables, say).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRegion {
    /// Region name (e.g. `"token.storage"`).
    pub name: &'static str,
    /// First line of the region.
    pub base_line: u64,
    /// Line count.
    pub lines: u64,
}

impl MemRegion {
    /// `true` if `line` falls inside this region.
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        (self.base_line..self.base_line + self.lines).contains(&line)
    }
}

/// A named transactional kernel.
pub trait Workload {
    /// Registry name (e.g. `"kmeans-h"`).
    fn name(&self) -> &'static str;
    /// `true` for the microbenchmarks excluded from the paper's means.
    fn is_micro(&self) -> bool {
        false
    }
    /// Family tag for registry and CLI filtering: `"stamp"`, `"micro"`,
    /// or `"evm"`. The default derives it from [`Workload::is_micro`];
    /// only new families need to override.
    fn family(&self) -> &'static str {
        if self.is_micro() {
            "micro"
        } else {
            "stamp"
        }
    }
    /// Content key of the workload's generator parameters, joined into
    /// job identities by the runner. `None` (the default) means the name
    /// alone identifies the setup — parameterised generators (the evm
    /// scenarios) return a string covering every knob, so changing a
    /// default scale can never alias a stale cache entry.
    fn spec(&self) -> Option<String> {
        None
    }
    /// Named line regions of the workload's footprint, for per-region
    /// attribution in reports. Empty (the default) means no attribution.
    fn regions(&self) -> Vec<MemRegion> {
        Vec::new()
    }
    /// Builds the programs, memory image and checker for `threads` threads.
    fn setup(&self, threads: usize, seed: u64, rng: &mut SimRng) -> WorkloadSetup;
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Hardware description.
    pub system: SystemConfig,
    /// Machine tuning.
    pub tuning: Tuning,
    /// Number of threads (defaults to the core count).
    pub threads: usize,
    /// Root seed.
    pub seed: u64,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Fault plan installed before the run (`None`, the default, leaves
    /// the machine bit-identical to one that never heard of faults).
    pub faults: Option<FaultPlan>,
}

impl RunConfig {
    /// The paper's 16-core configuration.
    #[must_use]
    pub fn paper() -> RunConfig {
        let system = SystemConfig::default();
        RunConfig {
            threads: system.core.cores,
            system,
            tuning: Tuning::default(),
            seed: 0xC4A75,
            max_cycles: 2_000_000_000,
            faults: None,
        }
    }

    /// A scaled-down 4-core machine for fast unit tests, with the
    /// atomicity oracle armed: every commit in every test run is checked
    /// against the §III-C serializability criterion.
    #[must_use]
    pub fn quick_test() -> RunConfig {
        let system = SystemConfig::small_test();
        RunConfig {
            threads: system.core.cores,
            system,
            tuning: Tuning {
                oracle: Oracle::Panic,
                ..Tuning::default()
            },
            seed: 0xC4A75,
            max_cycles: 500_000_000,
            faults: None,
        }
    }

    /// Builder-style seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> RunConfig {
        self.seed = seed;
        self
    }

    /// Builder-style fault-plan override.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> RunConfig {
        self.faults = Some(plan);
        self
    }
}

/// A failed workload run: the reason, plus whatever statistics the
/// machine had gathered when it stopped — so a timed-out or stalled job
/// can still be reported with its partial progress instead of nothing.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Human-readable cause (workload, system, error).
    pub message: String,
    /// Statistics at the moment of failure (`cycles` is set to the cycle
    /// the run stopped at). Boxed to keep the `Err` variant small.
    pub partial: Option<Box<RunStats>>,
    /// The run exceeded its cycle budget (as opposed to deadlocking,
    /// tripping the watchdog, or violating an invariant).
    pub timed_out: bool,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RunFailure {}

/// A failure before any simulation ran (an unknown workload name, say):
/// no partial statistics, no timeout.
impl From<String> for RunFailure {
    fn from(message: String) -> RunFailure {
        RunFailure {
            message,
            partial: None,
            timed_out: false,
        }
    }
}

/// Instantiates `workload`, runs it under `policy`, checks its invariant
/// and returns the statistics.
///
/// # Errors
///
/// Returns a [`RunFailure`], with the statistics gathered so far, on
/// simulation timeout/deadlock/watchdog stall or invariant violation
/// (an HTM correctness bug).
pub fn run_workload(
    workload: &dyn Workload,
    policy: PolicyConfig,
    cfg: &RunConfig,
) -> Result<RunStats, RunFailure> {
    run_machine(workload, policy, cfg, None).map(|(stats, _)| stats)
}

/// Like [`run_workload`], but routes every protocol trace event into
/// `sink` and hands the sink back with the statistics, so callers can
/// reconstruct the run's timeline (see the `chats-obs` crate).
///
/// # Errors
///
/// Same as [`run_workload`]. The sink is lost on error.
pub fn run_workload_traced(
    workload: &dyn Workload,
    policy: PolicyConfig,
    cfg: &RunConfig,
    sink: Box<dyn TraceSink>,
) -> Result<(RunStats, Box<dyn TraceSink>), RunFailure> {
    run_machine(workload, policy, cfg, Some(sink))
        .map(|(stats, sink)| (stats, sink.expect("machine returns the installed sink")))
}

/// A machine built and loaded for one `(workload, policy, config)` run,
/// plus the workload's invariant checker.
///
/// This is **the** construction path: `run_workload`, the runner's resume
/// machinery and the dissection tool all build machines through here, so
/// an identically parameterised [`prepare_run`] always yields an
/// identically constructed machine — the property `Machine::restore`'s
/// configuration guard relies on.
pub struct PreparedRun {
    /// The loaded machine, ready to run (trace sinks and commit intervals
    /// are installed by the caller).
    pub machine: Machine,
    /// Validates final memory after the run.
    pub checker: Checker,
}

/// Builds the machine for `(workload, policy, cfg)`: deterministic
/// workload setup from the config seed, fault plan installation, initial
/// memory image, and one VM per thread.
///
/// # Panics
///
/// Panics if the workload produces a thread count different from
/// `cfg.threads`.
#[must_use]
pub fn prepare_run(workload: &dyn Workload, policy: PolicyConfig, cfg: &RunConfig) -> PreparedRun {
    let mut sys = cfg.system;
    sys.core.cores = cfg.threads;
    let mut rng = SimRng::seed_from(cfg.seed);
    let setup = workload.setup(cfg.threads, cfg.seed, &mut rng);
    assert_eq!(
        setup.programs.len(),
        cfg.threads,
        "workload produced a wrong thread count"
    );
    let mut m = Machine::new(sys, policy, cfg.tuning, cfg.seed);
    if let Some(plan) = &cfg.faults {
        m.set_fault_plan(plan);
    }
    for (addr, v) in &setup.init {
        m.store_init(*addr, *v);
    }
    for (t, tp) in setup.programs.into_iter().enumerate() {
        let mut vm = Vm::new(tp.program, tp.seed);
        for (r, v) in tp.presets {
            vm.preset_reg(r, v);
        }
        m.load_thread(t, vm);
    }
    PreparedRun {
        machine: m,
        checker: setup.checker,
    }
}

/// Turns how a run of `workload` under `system` ended into its result:
/// a simulation error becomes a [`RunFailure`] carrying the machine's
/// statistics so far (`cycles` set to where it stopped), and a finished
/// run must still pass `checker`. Plain and checkpointed execution both
/// end here, so a failure reads the same whichever path ran the job.
///
/// # Errors
///
/// Returns a [`RunFailure`] on simulation timeout/deadlock/watchdog stall
/// or invariant violation.
pub fn finish_run(
    workload: &str,
    system: HtmSystem,
    m: &Machine,
    checker: &Checker,
    outcome: Result<RunStats, SimError>,
) -> Result<RunStats, RunFailure> {
    let who = format!("{workload} under {}", system.name());
    let stats = outcome.map_err(|e| {
        let (message, stopped_at) = match &e {
            SimError::Timeout { at_cycle } => {
                (format!("{who}: timed out at cycle {at_cycle}"), *at_cycle)
            }
            SimError::Deadlock { at_cycle, .. } => (format!("{who}: {e}"), *at_cycle),
            SimError::WatchdogStall { report } => (format!("{who}: {e}"), report.at_cycle),
        };
        let mut partial = m.stats().clone();
        partial.cycles = stopped_at;
        RunFailure {
            message,
            partial: Some(Box::new(partial)),
            timed_out: matches!(e, SimError::Timeout { .. }),
        }
    })?;
    checker(m).map_err(|e| RunFailure {
        message: format!("{who}: transactional semantics violated: {e}"),
        partial: Some(Box::new(stats.clone())),
        timed_out: false,
    })?;
    Ok(stats)
}

fn run_machine(
    workload: &dyn Workload,
    policy: PolicyConfig,
    cfg: &RunConfig,
    sink: Option<Box<dyn TraceSink>>,
) -> Result<(RunStats, Option<Box<dyn TraceSink>>), RunFailure> {
    let PreparedRun {
        machine: mut m,
        checker,
    } = prepare_run(workload, policy, cfg);
    if let Some(sink) = sink {
        m.set_trace_sink(sink);
    }
    let outcome = m.run(cfg.max_cycles);
    let stats = finish_run(workload.name(), policy.system, &m, &checker, outcome)?;
    Ok((stats, m.take_trace_sink()))
}
