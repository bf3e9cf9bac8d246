//! The [`Machine`]: construction, event loop and messaging fabric.

use crate::core_state::CoreState;
use crate::dir::Directory;
use crate::msg::{CoreMsg, DirMsg, Event, Request};
use crate::trace::{narrow, RingSink, Trace, TraceEvent, TraceSink};
use chats_core::retry::FallbackLock;
use chats_core::{PolicyConfig, PowerToken, TimestampSource};
use chats_mem::{
    Addr, BackingStore, CacheEntry, CoherenceState, FastHashMap, Line, LineAddr, WORDS_PER_LINE,
};
use chats_noc::{Crossbar, MsgClass, NodeId};
use chats_sim::{Cycle, DecisionKind, DecisionPoint, EventQueue, SimRng, SystemConfig};
use chats_stats::RunStats;
use chats_tvm::Vm;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// What the atomicity oracle does with a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Oracle {
    /// No checking (the default).
    #[default]
    Off,
    /// Every commit is checked against the §III-C serializability
    /// criterion (each transactionally read word equals the committed
    /// value at the commit instant); the first violation panics. Used by
    /// the test suite.
    Panic,
    /// Instead of panicking on the first violation, accumulate
    /// [`Violation`]s on the machine (see [`Machine::violations`]) and
    /// keep running. Also arms the online opacity check: every
    /// non-speculative-lineage transactional read is compared against the
    /// committed value at the read instant, so aborted attempts that
    /// observed inconsistent data are flagged even though they never reach
    /// the commit check.
    Record,
}

impl Oracle {
    /// Name in [`Tuning::canonical`].
    fn name(self) -> &'static str {
        match self {
            Oracle::Off => "off",
            Oracle::Panic => "panic",
            Oracle::Record => "record",
        }
    }
}

/// Machine settings outside Table I/II: the checking switches. The
/// pacing the simulator needs beyond the paper's tables (retry backoff,
/// stall and probe delays, compute slice) is fixed, and identical across
/// HTM systems so comparisons stay fair.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tuning {
    /// The atomicity oracle's mode.
    pub oracle: Oracle,
    /// Planted-bug switch for the checking harness: skip the value
    /// comparison on validation responses, silently "validating" every
    /// speculated line. This breaks the protocol's §III-A guarantee on
    /// purpose — `chats-check`'s acceptance test flips it to prove the
    /// oracle catches the resulting atomicity violations. Never set this
    /// outside tests.
    #[doc(hidden)]
    pub debug_skip_validation: bool,
}

impl Tuning {
    /// Every field as `key=value`, comma-separated, in declaration order.
    /// Part of the runner's job ids and the machine's checkpoint guard.
    /// The destructuring names every field, so adding, removing or
    /// renaming one does not compile until this encoding is edited.
    #[must_use]
    pub fn canonical(&self) -> String {
        let Tuning {
            oracle,
            debug_skip_validation,
        } = *self;
        format!(
            "oracle={},debug_skip_validation={debug_skip_validation}",
            oracle.name()
        )
    }
}

/// A serializability/opacity violation detected by the oracle in record
/// mode ([`Oracle::Record`]). Each violation is a protocol bug,
/// never a workload condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A committed transaction's read-only observation did not equal the
    /// committed value at the commit instant (§III-C atomicity).
    AtomicityAtCommit {
        /// Core that committed.
        core: usize,
        /// Word address.
        addr: u64,
        /// Value the transaction observed.
        observed: u64,
        /// Committed value at the commit instant.
        committed: u64,
        /// Cycle of the commit.
        at: u64,
    },
    /// A running transaction observed, through a non-speculative lineage
    /// (no forwarding involved), a value different from the committed one —
    /// an inconsistent snapshot that even an aborted attempt must never see
    /// (opacity).
    InconsistentRead {
        /// Core that read.
        core: usize,
        /// Word address.
        addr: u64,
        /// Value the transaction observed.
        observed: u64,
        /// Committed value at the read instant.
        committed: u64,
        /// Cycle of the read.
        at: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::AtomicityAtCommit {
                core,
                addr,
                observed,
                committed,
                at,
            } => write!(
                f,
                "atomicity violated at commit on core {core} at cycle {at}: \
                 word {addr:#x} was read as {observed} but the committed value is {committed}"
            ),
            Violation::InconsistentRead {
                core,
                addr,
                observed,
                committed,
                at,
            } => write!(
                f,
                "inconsistent read on core {core} at cycle {at}: word {addr:#x} \
                 observed as {observed} while the committed value is {committed}"
            ),
        }
    }
}

/// A schedule hook: given a decision point and its fan-out, returns the
/// choice to take (`0` = default; out-of-range choices clamp). Installed
/// via [`Machine::set_decision_hook`]; with no hook installed the machine
/// takes choice 0 everywhere and behaves bit-identically to builds that
/// predate decision points.
pub type DecisionHook = Box<dyn FnMut(&DecisionPoint, u32) -> u32>;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run exceeded its cycle budget — a livelock or a budget set too
    /// low.
    Timeout {
        /// Cycle at which the simulation gave up.
        at_cycle: u64,
    },
    /// The event queue drained while threads were still running: a lost
    /// wakeup in the protocol (a simulator bug, never a workload issue).
    Deadlock {
        /// Cycle at which events ran out.
        at_cycle: u64,
        /// Diagnostic dump of core states.
        detail: String,
    },
    /// The progress watchdog fired: some core made no progress (commit,
    /// fallback completion or halt) for a full horizon, or the event queue
    /// drained with live threads while the watchdog was armed (the
    /// report's `drained` flag says which). Unlike
    /// [`SimError::Timeout`], this carries a structured diagnosis of what
    /// starved and why. Only possible after [`Machine::set_watchdog`] /
    /// [`Machine::set_fault_plan`].
    WatchdogStall {
        /// The structured diagnosis (boxed: it carries per-core snapshots
        /// and recent trace events).
        report: Box<crate::faults::FailureReport>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout { at_cycle } => {
                write!(
                    f,
                    "simulation exceeded its cycle budget at cycle {at_cycle}"
                )
            }
            SimError::Deadlock { at_cycle, detail } => {
                write!(
                    f,
                    "event queue drained with live threads at cycle {at_cycle}:\n{detail}"
                )
            }
            SimError::WatchdogStall { report } => {
                write!(f, "progress watchdog fired: {report}")
            }
        }
    }
}

impl Error for SimError {}

/// The whole simulated multicore.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Machine {
    pub(crate) cfg: SystemConfig,
    pub(crate) policy: PolicyConfig,
    pub(crate) tuning: Tuning,
    pub(crate) clock: Cycle,
    pub(crate) events: EventQueue<Event>,
    pub(crate) xbar: Crossbar,
    pub(crate) dir: Directory,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) lock: FallbackLock,
    pub(crate) token: PowerToken,
    pub(crate) ts_source: TimestampSource,
    pub(crate) rng: SimRng,
    pub(crate) stats: RunStats,
    pub(crate) halted: usize,
    pub(crate) trace: Trace,
    pub(crate) hook: Option<DecisionHook>,
    /// Decisions resolved so far: the next [`DecisionPoint::index`].
    pub(crate) decisions: u64,
    pub(crate) violations: Vec<Violation>,
    /// Construction seed, kept so [`Machine::set_fault_plan`] can seed the
    /// injector identically for identical `(seed, plan)` pairs.
    pub(crate) seed: u64,
    pub(crate) faults: Option<chats_faults::FaultState>,
    pub(crate) watchdog: Option<crate::faults::Watchdog>,
    /// Initial `CoreStep` events have been seeded (guards re-entry of the
    /// run loop after a pause or a checkpoint restore).
    pub(crate) started: bool,
    /// Epoch-commitment bookkeeping (disarmed by default).
    pub(crate) commit: crate::commit::CommitTracker,
}

/// Final memory as an outside observer reads it, from
/// [`Machine::memory_view`]: the first `Modified`, non-speculative L1
/// copy of a line in core order, else the backing store.
#[derive(Debug)]
pub struct MemoryView<'m> {
    /// The winning L1 copy of every line that has one.
    overlay: FastHashMap<LineAddr, &'m Line>,
    store: &'m BackingStore,
}

impl MemoryView<'_> {
    /// The word at `addr`; equals [`Machine::inspect_word`].
    #[must_use]
    pub fn read(&self, addr: Addr) -> u64 {
        match self.overlay.get(&addr.line()) {
            Some(line) => line.read(addr),
            None => self.store.read_word(addr),
        }
    }

    /// `word address -> value` for every nonzero word of every line the
    /// run touched. Keys are sorted, so equal images compare and hash
    /// identically — the cross-policy differential tests depend on that.
    #[must_use]
    pub fn image(&self) -> BTreeMap<u64, u64> {
        let mut lines: Vec<LineAddr> = self.store.lines().map(|(l, _)| l).collect();
        lines.extend(self.overlay.keys());
        lines.sort_unstable();
        lines.dedup();
        let mut image = BTreeMap::new();
        for l in lines {
            for off in 0..WORDS_PER_LINE {
                let a = l.base_word().offset(off);
                let v = self.read(a);
                if v != 0 {
                    image.insert(a.0, v);
                }
            }
        }
        image
    }
}

/// Outcome of a bounded run segment ([`Machine::run_to`]).
#[derive(Debug)]
pub enum RunProgress {
    /// Every event before `at` was processed; the machine is paused at the
    /// cycle boundary and can be checkpointed or resumed with another
    /// [`Machine::run_to`] / [`Machine::run`] call.
    Paused {
        /// The pause boundary that was reached.
        at: u64,
    },
    /// The run completed (every thread halted); carries the final stats.
    Done(RunStats),
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("system", &self.policy.system)
            .field("cores", &self.cores.len())
            .field("clock", &self.clock)
            .finish()
    }
}

/// Rejects a configuration whose ids or counts would not fit the narrow
/// [`TraceEvent`] fields, before anything is allocated: the NoC node count
/// (cores plus the directory) and both flit counts must fit `u16`. (VSB
/// occupancy is `u32`; a VSB that large could not be allocated.)
fn check_trace_widths(sys: &SystemConfig) {
    let nodes = sys.core.cores.saturating_add(1);
    assert!(
        u16::try_from(nodes).is_ok(),
        "{} cores plus the directory make {nodes} NoC nodes; at most {} fit a trace node id",
        sys.core.cores,
        u16::MAX
    );
    for (name, flits) in [
        ("control_flits", sys.noc.control_flits),
        ("data_flits", sys.noc.data_flits),
    ] {
        assert!(
            u16::try_from(flits).is_ok(),
            "{name} = {flits} does not fit a trace flit count (at most {})",
            u16::MAX
        );
    }
}

impl Machine {
    /// Builds a machine with `sys` hardware, `policy` HTM system and
    /// machine `tuning`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the NoC node count (cores plus the directory) or a flit
    /// count does not fit the `u16` fields of a [`TraceEvent`].
    pub fn new(sys: SystemConfig, policy: PolicyConfig, tuning: Tuning, seed: u64) -> Machine {
        check_trace_widths(&sys);
        let n = sys.core.cores;
        let power_threshold = if policy.system.uses_power_token() {
            Some(policy.power_threshold)
        } else {
            None
        };
        let cores = (0..n)
            .map(|_| {
                let mut c = CoreState::new(
                    sys.mem.l1_sets,
                    sys.mem.l1_ways,
                    policy.vsb_size,
                    policy.naive_counter_bits,
                    policy.retries,
                    power_threshold,
                );
                if tuning.oracle != Oracle::Off {
                    c.oracle.enable();
                }
                c
            })
            .collect();
        Machine {
            cfg: sys,
            policy,
            tuning,
            clock: Cycle::ZERO,
            events: EventQueue::new(),
            xbar: Crossbar::new(sys.noc, n + 1),
            dir: Directory::default(),
            cores,
            lock: FallbackLock::new(),
            token: PowerToken::new(),
            ts_source: TimestampSource::new(),
            rng: SimRng::seed_from(seed),
            stats: RunStats::default(),
            halted: n,
            trace: Trace::default(),
            hook: None,
            decisions: 0,
            violations: Vec::new(),
            seed,
            faults: None,
            watchdog: None,
            started: false,
            commit: crate::commit::CommitTracker::default(),
        }
    }

    /// Installs a schedule hook that resolves every decision point of the
    /// run (see [`DecisionHook`]). The machine keeps no record of the
    /// choices, only their count for [`DecisionPoint::index`]: a hook that
    /// wants the trace records it itself, and replaying that trace as a
    /// prefix reproduces the run. Call before [`Machine::run`].
    pub fn set_decision_hook(&mut self, hook: DecisionHook) {
        self.hook = Some(hook);
    }

    /// `true` while a schedule hook is installed (decision points active).
    #[must_use]
    pub(crate) fn hook_active(&self) -> bool {
        self.hook.is_some()
    }

    /// Resolves one decision point: asks the hook (when installed) and
    /// counts the decision. Without a hook this is never called on hot
    /// paths — call sites guard with [`Machine::hook_active`] — but it
    /// degrades to choice 0 regardless.
    pub(crate) fn decide(&mut self, kind: DecisionKind, core: Option<usize>, choices: u32) -> u32 {
        debug_assert!(choices >= 2, "a decision needs at least two choices");
        let Some(h) = self.hook.as_mut() else {
            return 0;
        };
        let dp = DecisionPoint {
            index: self.decisions,
            kind,
            core,
        };
        self.decisions += 1;
        h(&dp, choices).min(choices - 1)
    }

    /// Violations recorded by the oracle ([`Oracle::Record`]).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Installs a thread on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or already loaded.
    pub fn load_thread(&mut self, core: usize, vm: Vm) {
        let c = &mut self.cores[core];
        assert!(c.vm.is_none(), "core {core} already has a thread");
        c.vm = Some(vm);
        c.halted = false;
        self.halted -= 1;
    }

    /// Writes an initial value into simulated memory before the run
    /// (building the workload's data structures).
    pub fn store_init(&mut self, addr: Addr, value: u64) {
        self.dir.store.write_word(addr, value);
    }

    /// Reads a word of memory as an outside observer would *after* the run:
    /// a `Modified` (non-speculative) copy in some L1 wins over the backing
    /// store. Each call scans one set of every L1; a reader of more than a
    /// handful of words should build one [`Machine::memory_view`] instead.
    #[must_use]
    pub fn inspect_word(&self, addr: Addr) -> u64 {
        let line = addr.line();
        for c in &self.cores {
            if let Some(e) = c.l1.lookup(line) {
                if e.state == CoherenceState::Modified && !e.is_speculative() {
                    return e.data.read(addr);
                }
            }
        }
        self.dir.store.read_word(addr)
    }

    /// Final memory under the [`Machine::inspect_word`] visibility rule,
    /// gathered in one pass over the L1s so that each
    /// [`MemoryView::read`] is one hash probe.
    #[must_use]
    pub fn memory_view(&self) -> MemoryView<'_> {
        let dirty = |e: &&CacheEntry| e.state == CoherenceState::Modified && !e.is_speculative();
        // Sized up front: growing it by rehashing, once per checked run,
        // fragmented the heap enough to raise the benchmark's paper-grid
        // peak RSS by about a quarter.
        let n = self
            .cores
            .iter()
            .map(|c| c.l1.iter().filter(dirty).count())
            .sum();
        let mut overlay = FastHashMap::with_capacity_and_hasher(n, Default::default());
        for c in &self.cores {
            for e in c.l1.iter().filter(dirty) {
                overlay.entry(e.addr).or_insert(&e.data);
            }
        }
        MemoryView {
            overlay,
            store: &self.dir.store,
        }
    }

    /// The committed memory image after a run; see [`MemoryView::image`].
    #[must_use]
    pub fn memory_image(&self) -> BTreeMap<u64, u64> {
        self.memory_view().image()
    }

    /// Oracle entry point for every transactional load: records the
    /// observation and, in record mode, cross-checks reads of
    /// *non-speculative lineage* (no forwarding anywhere between the
    /// committed value and this observation) against the committed value at
    /// the read instant. A mismatch means the transaction is executing on
    /// an inconsistent snapshot — an opacity violation even if it later
    /// aborts. Speculative-lineage reads (`spec_lineage`, or a line still
    /// marked `spec_received`) are legitimately unvalidated and are checked
    /// at commit instead.
    pub(crate) fn oracle_read(&mut self, core: usize, addr: Addr, value: u64, spec_lineage: bool) {
        if !self.cores[core].oracle.is_enabled() {
            return;
        }
        self.cores[core].oracle.note_read(addr, value);
        if self.tuning.oracle != Oracle::Record
            || spec_lineage
            || self.cores[core].oracle.wrote(addr.0)
        {
            return;
        }
        if self.cores[core]
            .l1
            .lookup(addr.line())
            .is_some_and(|e| e.spec_received())
        {
            return;
        }
        let committed = self.inspect_word(addr);
        if committed != value {
            self.violations.push(Violation::InconsistentRead {
                core,
                addr: addr.0,
                observed: value,
                committed,
                at: self.clock.0,
            });
        }
    }

    /// The active policy configuration.
    #[must_use]
    pub fn policy(&self) -> &PolicyConfig {
        &self.policy
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The statistics gathered so far (complete after [`Machine::run`]).
    #[must_use]
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Core `core`'s L1, read-only.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn l1(&self, core: usize) -> &chats_mem::Cache {
        &self.cores[core].l1
    }

    /// Routes all trace events into `sink` (replacing any previous sink).
    /// Call before [`Machine::run`]; retrieve the sink afterwards with
    /// [`Machine::take_trace_sink`]. A boxed [`RingSink`] is folded into
    /// the built-in ring, so [`Machine::trace_events`] and
    /// [`Machine::dropped_events`] read it directly: the ring keeps the
    /// **latest** events and counts the older ones it dropped. See
    /// [`TraceEvent`].
    pub fn set_trace_sink(&mut self, mut sink: Box<dyn TraceSink>) {
        if let Some(ring) = sink.as_any_mut().and_then(|a| a.downcast_mut::<RingSink>()) {
            self.trace = Trace::Ring(std::mem::replace(ring, RingSink::new(1)));
            return;
        }
        self.trace = Trace::Custom(sink);
    }

    /// Detaches and returns the sink installed by
    /// [`Machine::set_trace_sink`], flushing it first. Returns `None` when
    /// tracing is off or using the built-in ring.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        match std::mem::take(&mut self.trace) {
            Trace::Custom(mut s) => {
                s.flush();
                Some(s)
            }
            other => {
                self.trace = other;
                None
            }
        }
    }

    /// The recorded protocol trace, oldest first (empty unless a
    /// [`RingSink`] was installed; other sinks own their events).
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// Events the active sink had to discard (ring overflow, sink
    /// back-pressure). Nonzero means [`Machine::trace_events`] is a
    /// truncated view.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.trace.dropped()
    }

    /// Diagnostic description of one line's global state (directory view
    /// plus every cached copy), for protocol debugging.
    #[doc(hidden)]
    #[must_use]
    pub fn describe_line(&self, line: chats_mem::LineAddr) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "dir[{line}] = {:?}", self.dir.state_of(line));
        let _ = writeln!(s, "store[{line}] = {:?}", self.dir.store.read_line(line));
        for (i, c) in self.cores.iter().enumerate() {
            if let Some(e) = c.l1.lookup(line) {
                let _ = writeln!(
                    s,
                    "core{i}: {:?} sm={} spec={} data={:?} in_sig={} vsb={} mode={:?}",
                    e.state,
                    e.sm(),
                    e.spec_received(),
                    e.data,
                    c.read_sig.contains(line),
                    c.vsb.contains(line),
                    c.mode,
                );
            } else if c.read_sig.contains(line) {
                let _ = writeln!(s, "core{i}: no copy, in read signature, mode={:?}", c.mode);
            }
        }
        s
    }

    /// One-line status per core plus directory summary, for diagnosing
    /// stuck simulations.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "clock={} events={} halted={}",
            self.clock,
            self.events.len(),
            self.halted
        );
        for (i, c) in self.cores.iter().enumerate() {
            let _ = writeln!(
                s,
                "core{i}: halted={} mode={:?} wait={:?} pend={:?} val={:?} vsb={} epoch={} cp={}",
                c.halted,
                c.mode,
                c.waiting,
                c.pending_mem.map(|p| (p.line, p.getx)),
                c.val_req,
                c.vsb.len(),
                c.epoch,
                c.commit_pending,
            );
        }
        s
    }

    /// Runs to completion (every thread halted) or to `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if any thread is still running at
    /// `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, SimError> {
        self.advance(None, max_cycles)?;
        self.finish_run()?;
        // Return the stats by move; `self.stats` is left defaulted. Callers
        // that want post-run access keep the returned value (the error
        // paths above never take this branch, so `Machine::stats` still
        // reflects the failed run for diagnostics).
        Ok(std::mem::take(&mut self.stats))
    }

    /// Runs until every event before the `pause_at` cycle boundary has
    /// been processed (or the run completes first). At a pause the machine
    /// sits exactly at the boundary — [`Machine::checkpoint`] there and a
    /// later restore resumes the run with byte-identical behaviour. The
    /// pause boundary follows the same semantics as an epoch boundary:
    /// when `pause_at` is a multiple of the armed commit interval, that
    /// boundary's commitment is already on the chain when this returns.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Machine::run`].
    pub fn run_to(&mut self, pause_at: u64, max_cycles: u64) -> Result<RunProgress, SimError> {
        if self.advance(Some(pause_at), max_cycles)? {
            self.finish_run()?;
            return Ok(RunProgress::Done(std::mem::take(&mut self.stats)));
        }
        Ok(RunProgress::Paused { at: pause_at })
    }

    /// Dispatches exactly one event: the dissection primitive. Seeds the
    /// initial events on the first call (like [`Machine::run`]), then pops
    /// and dispatches the next event, returning its time and a rendered
    /// description. Returns `Ok(None)` once the queue is empty. Commit
    /// boundaries are *not* recorded — single-stepping callers hash the
    /// state themselves via [`Machine::state_commitment`].
    ///
    /// # Errors
    ///
    /// Propagates a watchdog stall, exactly as the run loop would.
    pub fn step_one(&mut self) -> Result<Option<(u64, String)>, SimError> {
        self.seed_initial_steps();
        let Some((t, ev)) = self.next_event() else {
            return Ok(None);
        };
        let desc = format!("{ev:?}");
        self.step(t, ev)?;
        Ok(Some((t.0, desc)))
    }

    /// One run-loop step, shared by [`Machine::advance`] and
    /// [`Machine::step_one`] so dissection cannot drift from the run it
    /// diagnoses: advance the clock to `t`, count the event, check the
    /// watchdog, dispatch. Forced inline: this is the hot loop's body, and
    /// a plain `#[inline]` leaves it an out-of-line call from `advance`.
    #[inline(always)]
    fn step(&mut self, t: Cycle, ev: Event) -> Result<(), SimError> {
        self.clock = t;
        self.stats.events += 1;
        if self.watchdog.is_some() {
            if let Some(err) = self.watchdog_check() {
                return Err(err);
            }
        }
        self.dispatch(ev);
        Ok(())
    }

    /// Pushes the initial `CoreStep` events, once per machine lifetime.
    fn seed_initial_steps(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for core in 0..self.cores.len() {
            if self.cores[core].vm.is_some() && !self.cores[core].halted {
                let epoch = self.cores[core].epoch;
                // Slight stagger breaks artificial lockstep between threads.
                self.events
                    .push(Cycle(core as u64), Event::CoreStep { core, epoch });
            }
        }
    }

    /// The run loop: processes events until the queue drains, every thread
    /// halts (→ `Ok(true)`), or every event before `pause_at` is done
    /// (→ `Ok(false)`). Epoch-commitment boundaries are recorded before
    /// the pause check, so a pause on a boundary has its commitment on the
    /// chain already.
    fn advance(&mut self, pause_at: Option<u64>, max_cycles: u64) -> Result<bool, SimError> {
        self.seed_initial_steps();
        loop {
            let Some(t) = self.events.peek_time() else {
                return Ok(true);
            };
            if t.0 > max_cycles {
                return Err(SimError::Timeout { at_cycle: t.0 });
            }
            if self.commit.interval.is_some() {
                self.note_commit_boundaries(t.0);
            }
            if pause_at.is_some_and(|p| t.0 >= p) {
                return Ok(false);
            }
            let (t, ev) = self.next_event().expect("peeked event vanished");
            self.step(t, ev)?;
            if self.halted == self.cores.len() {
                return Ok(true);
            }
        }
    }

    /// Post-loop epilogue: deadlock diagnosis and final stat folding.
    fn finish_run(&mut self) -> Result<(), SimError> {
        if self.halted != self.cores.len() {
            if let Some(err) = self.watchdog_drain_report() {
                return Err(err);
            }
            return Err(SimError::Deadlock {
                at_cycle: self.clock.0,
                detail: self.debug_dump(),
            });
        }
        self.finish_stats();
        Ok(())
    }

    /// Pops the next event. With a schedule hook installed, same-cycle ties
    /// become a [`DecisionKind::TieBreak`] point; without one this is a
    /// plain FIFO pop.
    fn next_event(&mut self) -> Option<(Cycle, Event)> {
        if self.hook.is_none() {
            return self.events.pop();
        }
        let width = self.events.tie_width();
        let k = if width > 1 {
            self.decide(DecisionKind::TieBreak, None, width as u32) as usize
        } else {
            0
        };
        self.events.pop_tied(k)
    }

    fn finish_stats(&mut self) {
        self.stats.cycles = self.clock.0;
        self.stats.flits = self.xbar.flits_sent();
        self.stats.control_messages = self.xbar.control_messages();
        self.stats.data_messages = self.xbar.data_messages();
        self.stats.instructions = self
            .cores
            .iter()
            .filter_map(|c| c.vm.as_ref())
            .map(|v| v.retired())
            .sum();
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::CoreStep { core, epoch } => {
                if self.cores[core].epoch == epoch && !self.cores[core].halted {
                    // An armed fault plan may consume the step (freeze,
                    // spurious abort, forced VSB eviction).
                    if self.faults.is_none() || !self.core_fault_step(core) {
                        self.core_step(core);
                    }
                }
            }
            Event::RetryTx { core, epoch } => {
                if self.cores[core].epoch == epoch && !self.cores[core].halted {
                    self.retry_tx(core);
                }
            }
            Event::MemRetry { core, epoch } => {
                if self.cores[core].epoch == epoch {
                    self.mem_retry(core);
                }
            }
            Event::ValidationTick { core, epoch } => {
                if self.cores[core].epoch == epoch {
                    self.validation_tick(core);
                }
            }
            Event::CommitRelease { core, epoch } => {
                if self.cores[core].epoch == epoch
                    && self.cores[core].in_tx()
                    && self.cores[core].commit_pending
                    && self.cores[core].vsb.is_empty()
                    && self.try_commit(core)
                {
                    let ep = self.cores[core].epoch;
                    self.events
                        .push(self.clock + 1, Event::CoreStep { core, epoch: ep });
                }
            }
            Event::DirRecv(msg) => self.dir_recv(msg),
            Event::CoreRecv { core, msg } => self.core_recv(core, msg),
        }
    }

    // ---- messaging fabric ---------------------------------------------

    pub(crate) fn dir_node(&self) -> NodeId {
        NodeId(self.cores.len())
    }

    /// Sends a message from a core to the directory, injecting at
    /// `clock + delay`.
    pub(crate) fn send_to_dir(
        &mut self,
        from_core: usize,
        class: MsgClass,
        msg: DirMsg,
        delay: u64,
    ) {
        let at = self.clock + delay;
        let arrive = self
            .xbar
            .send(at, NodeId(from_core), self.dir_node(), class);
        let arrive = if self.faults.is_some() {
            match self.fault_adjust_dir_send(from_core, arrive, &msg) {
                Some(a) => a,
                None => return, // dropped; a MemRetry is scheduled instead
            }
        } else {
            arrive
        };
        if self.trace.enabled() {
            self.trace.record(TraceEvent::NocSend {
                at,
                src: narrow(from_core),
                dst: narrow(self.dir_node().0),
                flits: narrow(self.xbar.flits_of(class)),
                arrive,
            });
        }
        self.events.push(arrive, Event::DirRecv(msg));
    }

    /// Sends a message from node `src` to core `to`, injecting at
    /// `clock + delay`: directory responses come from
    /// [`Machine::dir_node`], 3-hop data responses, SpecResps and nacks
    /// from another core's cache.
    pub(crate) fn send_to_core(
        &mut self,
        src: NodeId,
        to: usize,
        class: MsgClass,
        msg: CoreMsg,
        delay: u64,
    ) {
        let at = self.clock + delay;
        let arrive = self.xbar.send(at, src, NodeId(to), class);
        let (arrive, dup) = if self.faults.is_some() {
            match self.fault_adjust_core_send(to, arrive, &msg) {
                Some(adjusted) => adjusted,
                None => return, // dropped validation response
            }
        } else {
            (arrive, None)
        };
        if self.trace.enabled() {
            self.trace.record(TraceEvent::NocSend {
                at,
                src: narrow(src.0),
                dst: narrow(to),
                flits: narrow(self.xbar.flits_of(class)),
                arrive,
            });
        }
        if let Some(d) = dup {
            self.events.push(d, Event::CoreRecv { core: to, msg });
        }
        self.events.push(arrive, Event::CoreRecv { core: to, msg });
    }

    /// Issues the demand request described by the core's `pending_mem`.
    pub(crate) fn issue_pending_request(&mut self, core: usize, delay: u64) {
        let c = &self.cores[core];
        let pm = c.pending_mem.expect("no pending memory op to issue");
        let req = Request {
            core,
            line: pm.line,
            getx: pm.getx,
            pic: c.pic.pic,
            power: c.is_power,
            non_tx: !c.in_tx(),
            levc_ts: c.levc_ts,
            levc_consumed: c.levc.has_consumed,
            epoch: c.epoch,
        };
        self.send_to_dir(core, MsgClass::Control, DirMsg::Request(req), delay);
    }
}

#[cfg(test)]
mod tests {
    use super::check_trace_widths;
    use chats_sim::SystemConfig;

    fn widths_ok(edit: impl FnOnce(&mut SystemConfig)) -> bool {
        let mut sys = SystemConfig::small_test();
        edit(&mut sys);
        std::panic::catch_unwind(|| check_trace_widths(&sys)).is_ok()
    }

    #[test]
    fn the_largest_traceable_config_is_accepted() {
        assert!(widths_ok(|_| {}));
        assert!(widths_ok(|sys| {
            sys.core.cores = usize::from(u16::MAX) - 1;
            sys.noc.control_flits = u64::from(u16::MAX);
            sys.noc.data_flits = u64::from(u16::MAX);
        }));
    }

    #[test]
    fn ids_or_counts_past_the_trace_widths_are_rejected() {
        assert!(!widths_ok(|sys| sys.core.cores = usize::from(u16::MAX)));
        assert!(!widths_ok(|sys| sys.core.cores = usize::MAX));
        assert!(!widths_ok(|sys| sys.noc.control_flits = 1 << 16));
        assert!(!widths_ok(|sys| sys.noc.data_flits = u64::MAX));
    }

    #[test]
    fn the_rejection_names_the_offending_field() {
        let mut sys = SystemConfig::small_test();
        sys.noc.data_flits = 70_000;
        let err = std::panic::catch_unwind(|| check_trace_widths(&sys)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("data_flits = 70000"), "{msg}");
    }
}
