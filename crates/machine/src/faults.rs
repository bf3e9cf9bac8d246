//! Machine-side fault injection and the progress watchdog.
//!
//! This module is the timing-machine half of [`chats_faults`]: the pure
//! decision state machine lives there (seeded, serializable, content-
//! hashable), while the code here applies its decisions to the protocol —
//! perturbing interconnect sends, injecting spurious HTM events at core
//! steps, and tracking per-core commit progress so injected hangs surface
//! as a structured [`FailureReport`] instead of a silent timeout.
//!
//! Everything is gated on `Machine::faults` / `Machine::watchdog` being
//! installed: a machine without a fault plan takes exactly one extra
//! branch per interconnect send and per popped event, consumes no extra
//! RNG draws, and is bit-identical to builds that predate fault injection.

use crate::core_state::ExecMode;
use crate::machine::{Machine, SimError};
use crate::msg::{CoreMsg, DirMsg, Event};
use crate::trace::{narrow, RingSink, Trace, TraceEvent};
use chats_core::{AbortCause, Pic};
use chats_faults::{FaultKind, FaultPlan, FaultState};
use chats_mem::LineAddr;
use chats_sim::Cycle;
use std::collections::BTreeMap;
use std::fmt;

/// Trailing trace events embedded in a [`FailureReport`].
const REPORT_EVENTS: usize = 32;

/// Ring capacity [`Machine::keep_report_history`] installs when tracing
/// is off, so a failure report can carry recent protocol history.
const REPORT_RING: usize = 256;

/// Delivery-sequencing node id for the directory (cores use their index).
const DIR_NODE: usize = usize::MAX;

/// Per-core state captured at the instant the progress watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSnapshot {
    /// Core index.
    pub core: usize,
    /// The thread halted (ran to completion).
    pub halted: bool,
    /// Execution mode at capture time.
    pub mode: ExecMode,
    /// Why the core is parked, if it is (debug-formatted `WaitReason`).
    pub waiting: String,
    /// Position-in-Chain register.
    pub pic: Pic,
    /// The `Cons` bit: consuming unvalidated speculative data.
    pub cons: bool,
    /// VSB entries still awaiting validation.
    pub vsb_held: usize,
    /// Outstanding demand miss, if any.
    pub pending_line: Option<LineAddr>,
    /// Validation probe in flight, if any — a stuck one with no matching
    /// response is the classic injected-hang signature.
    pub val_req: Option<LineAddr>,
    /// The core's attempt epoch.
    pub epoch: u64,
    /// Aborted attempts of the current transaction.
    pub attempts: u32,
    /// The current transaction was demoted to requester-wins by the
    /// graceful-degradation ladder.
    pub demoted: bool,
    /// Cycle of the last observed progress (commit, fallback completion
    /// or halt); 0 if none yet.
    pub last_progress: u64,
}

impl fmt::Display for CoreSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core{}: halted={} mode={:?} wait={} pic={:?} cons={} vsb={} pend={:?} val={:?} \
             epoch={} attempts={} demoted={} last_progress={}",
            self.core,
            self.halted,
            self.mode,
            self.waiting,
            self.pic,
            self.cons,
            self.vsb_held,
            self.pending_line,
            self.val_req,
            self.epoch,
            self.attempts,
            self.demoted,
            self.last_progress,
        )
    }
}

/// Structured diagnosis produced when the progress watchdog declares the
/// run stuck: which cores starved, who holds the fallback lock, a full
/// per-core [`CoreSnapshot`] table and the last few trace events.
///
/// Carried by [`SimError::WatchdogStall`]; its [`fmt::Display`] renders
/// the whole report, so `chats-check` and the runner can surface it
/// verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureReport {
    /// Cycle at which the watchdog fired.
    pub at_cycle: u64,
    /// The configured no-progress horizon, in cycles.
    pub horizon: u64,
    /// Cores with no progress for more than a horizon (or, at queue
    /// drain, all live cores).
    pub stalled_cores: Vec<usize>,
    /// Current fallback-lock owner, if any.
    pub lock_holder: Option<usize>,
    /// Faults injected up to this point (0 for a watch-only plan).
    pub fault_injections: u64,
    /// Snapshot of every core.
    pub cores: Vec<CoreSnapshot>,
    /// The most recent trace events, oldest first, pre-formatted.
    pub recent_events: Vec<String>,
    /// Full state commitment of the machine at the instant the watchdog
    /// fired (see `Machine::state_commitment`). Two runs that stall
    /// identically carry identical commitments, so reproducers can assert
    /// the replay reached the very same stuck state.
    pub state_commitment: u64,
    /// The event queue drained with live threads: no event will ever wake
    /// them, so the stall is a deadlock rather than a horizon expiry with
    /// events still in flight. Not rendered by `Display`.
    pub drained: bool,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no progress within {} cycles at cycle {} on core(s) {:?} \
             (lock holder: {}, faults injected: {})",
            self.horizon,
            self.at_cycle,
            self.stalled_cores,
            match self.lock_holder {
                Some(c) => format!("core{c}"),
                None => "none".to_string(),
            },
            self.fault_injections,
        )?;
        writeln!(f, "  state commitment: {:016x}", self.state_commitment)?;
        for c in &self.cores {
            writeln!(f, "  {c}")?;
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "  last {} trace event(s):", self.recent_events.len())?;
            for e in &self.recent_events {
                writeln!(f, "    {e}")?;
            }
        }
        Ok(())
    }
}

/// The progress watchdog: per-core last-progress cycle stamps plus a
/// coarse periodic scan (every quarter horizon), so the per-event cost is
/// a single comparison.
#[derive(Debug, Clone)]
pub(crate) struct Watchdog {
    horizon: u64,
    check_every: u64,
    next_check: u64,
    last_progress: Vec<u64>,
}

impl Watchdog {
    fn new(horizon: u64, cores: usize) -> Watchdog {
        let check_every = (horizon / 4).max(1);
        Watchdog {
            horizon,
            check_every,
            // The earliest possible firing is one full horizon in.
            next_check: horizon,
            last_progress: vec![0; cores],
        }
    }
}

impl chats_snap::Snap for Watchdog {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.horizon);
        w.u64(self.check_every);
        w.u64(self.next_check);
        self.last_progress.save(w);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        let horizon = r.u64()?;
        if horizon == 0 {
            return Err(r.err("watchdog horizon must be nonzero"));
        }
        Ok(Watchdog {
            horizon,
            check_every: r.u64()?,
            next_check: r.u64()?,
            last_progress: chats_snap::Snap::load(r)?,
        })
    }
}

impl Machine {
    /// Installs `plan`: seeds the injection state machine from the
    /// machine's own seed (so identical `(seed, plan)` pairs inject
    /// identically) and arms the progress watchdog when the plan carries a
    /// nonzero horizon. An [empty](FaultPlan::is_empty) plan installs no
    /// injector — a watch-only plan (horizon set, all knobs zero) arms
    /// just the watchdog. A plan's watchdog also
    /// [keeps report history](Machine::keep_report_history), so a fault
    /// run that stalls says what led up to it. Call before
    /// [`Machine::run`].
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.watchdog_horizon > 0 {
            self.set_watchdog(plan.watchdog_horizon);
            self.keep_report_history();
        }
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(FaultState::new(plan.clone(), self.seed))
        };
    }

    /// Arms the progress watchdog: a loaded, unhalted core that records no
    /// progress (commit, fallback-section completion or halt) for more
    /// than `horizon` cycles ends the run in
    /// [`SimError::WatchdogStall`] carrying a [`FailureReport`]. The
    /// watchdog installs no trace sink: the report's `recent_events` come
    /// from whatever sink is installed, and are empty when tracing is off.
    /// A caller that prints the report calls
    /// [`Machine::keep_report_history`] too.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is 0 (use [`FaultPlan::is_empty`] plans to run
    /// unwatched).
    pub fn set_watchdog(&mut self, horizon: u64) {
        assert!(horizon > 0, "a watchdog needs a nonzero horizon");
        self.watchdog = Some(Watchdog::new(horizon, self.cores.len()));
    }

    /// Keeps the latest protocol events in a small bounded ring when
    /// tracing is off, so a watchdog report can show the last 32 of them.
    /// Recording costs a copy per event, so only runs whose report is read
    /// should ask for it. A no-op when a trace sink is already installed.
    pub fn keep_report_history(&mut self) {
        if !self.trace.enabled() {
            self.trace = Trace::Ring(RingSink::new(REPORT_RING));
        }
    }

    /// Total faults injected so far (0 without a plan).
    #[must_use]
    pub fn fault_injections(&self) -> u64 {
        self.faults.as_ref().map_or(0, FaultState::injected_total)
    }

    /// Injected-fault counts keyed by [`FaultKind::label`], zeros omitted
    /// (empty without a plan).
    #[must_use]
    pub fn fault_injection_counts(&self) -> BTreeMap<&'static str, u64> {
        self.faults
            .as_ref()
            .map(FaultState::injection_counts)
            .unwrap_or_default()
    }

    /// Records progress on `core` for the watchdog (no-op when unarmed).
    #[inline]
    pub(crate) fn watchdog_progress(&mut self, core: usize) {
        if let Some(wd) = self.watchdog.as_mut() {
            wd.last_progress[core] = self.clock.0;
        }
    }

    /// Periodic watchdog scan, called once per popped event (cheap: one
    /// comparison until a scan is due). Returns the terminal error when
    /// some core starved past the horizon.
    pub(crate) fn watchdog_check(&mut self) -> Option<SimError> {
        let now = self.clock.0;
        let (horizon, stalled) = {
            let wd = self.watchdog.as_mut()?;
            if now < wd.next_check {
                return None;
            }
            wd.next_check = now + wd.check_every;
            let stalled: Vec<usize> = self
                .cores
                .iter()
                .enumerate()
                .filter(|&(i, c)| {
                    c.vm.is_some()
                        && !c.halted
                        && now.saturating_sub(wd.last_progress[i]) > wd.horizon
                })
                .map(|(i, _)| i)
                .collect();
            (wd.horizon, stalled)
        };
        if stalled.is_empty() {
            return None;
        }
        Some(self.watchdog_fire(horizon, stalled, false))
    }

    /// Drain-time watchdog: if the event queue emptied with live threads
    /// while the watchdog is armed, every live core is by definition
    /// permanently stuck (no event will ever wake it) — report that as a
    /// watchdog failure rather than a bare deadlock, regardless of how
    /// much horizon remained. The report's `drained` flag keeps the
    /// deadlock distinguishable from a horizon expiry.
    pub(crate) fn watchdog_drain_report(&mut self) -> Option<SimError> {
        let horizon = self.watchdog.as_ref()?.horizon;
        let stalled: Vec<usize> = self
            .cores
            .iter()
            .enumerate()
            .filter(|&(_, c)| c.vm.is_some() && !c.halted)
            .map(|(i, _)| i)
            .collect();
        if stalled.is_empty() {
            return None;
        }
        Some(self.watchdog_fire(horizon, stalled, true))
    }

    fn watchdog_fire(&mut self, horizon: u64, stalled: Vec<usize>, drained: bool) -> SimError {
        // Hash before recording WatchdogFired: trace sinks are outside the
        // commitment, but keeping the capture point first makes the value
        // independent of whatever the trace machinery does below.
        let state_commitment = self.state_commitment().full;
        for &core in &stalled {
            self.trace.record(TraceEvent::WatchdogFired {
                at: self.clock,
                core: narrow(core),
            });
        }
        let cores: Vec<CoreSnapshot> = (0..self.cores.len())
            .map(|i| self.core_snapshot(i))
            .collect();
        let events = self.trace.events();
        let skip = events.len().saturating_sub(REPORT_EVENTS);
        let recent_events: Vec<String> = events[skip..].iter().map(ToString::to_string).collect();
        let report = FailureReport {
            at_cycle: self.clock.0,
            horizon,
            stalled_cores: stalled,
            lock_holder: self.lock.holder(),
            fault_injections: self.fault_injections(),
            cores,
            recent_events,
            state_commitment,
            drained,
        };
        SimError::WatchdogStall {
            report: Box::new(report),
        }
    }

    fn core_snapshot(&self, core: usize) -> CoreSnapshot {
        let c = &self.cores[core];
        CoreSnapshot {
            core,
            halted: c.halted,
            mode: c.mode,
            waiting: format!("{:?}", c.waiting),
            pic: c.pic.pic,
            cons: c.pic.cons,
            vsb_held: c.vsb.len(),
            pending_line: c.pending_mem.map(|p| p.line),
            val_req: c.val_req,
            epoch: c.epoch,
            attempts: c.retry.attempts(),
            demoted: c.retry.demoted(),
            last_progress: self.watchdog.as_ref().map_or(0, |w| w.last_progress[core]),
        }
    }

    /// HTM-event injection at a `CoreStep`: freeze/slowdown windows
    /// reschedule the step; spurious aborts and forced VSB evictions kill
    /// the running attempt (feeding the degradation ladder via
    /// `RetryManager::note_fault`). Returns `true` when the step was
    /// consumed by an injection. Only called with a fault state installed.
    pub(crate) fn core_fault_step(&mut self, core: usize) -> bool {
        let now = self.clock.0;
        let in_tx = self.cores[core].in_tx();
        let vsb_loaded = !self.cores[core].vsb.is_empty();
        let epoch = self.cores[core].epoch;
        let f = self.faults.as_mut().expect("core_fault_step without plan");
        if let Some(d) = f.freeze() {
            self.trace.record(TraceEvent::FaultInjected {
                at: self.clock,
                core: narrow(core),
                kind: FaultKind::Freeze,
            });
            self.events
                .push(self.clock + d, Event::CoreStep { core, epoch });
            return true;
        }
        if let Some(d) = f.slowdown() {
            self.trace.record(TraceEvent::FaultInjected {
                at: self.clock,
                core: narrow(core),
                kind: FaultKind::Slowdown,
            });
            self.events
                .push(self.clock + d, Event::CoreStep { core, epoch });
            return true;
        }
        if in_tx && f.spurious_abort(now) {
            self.trace.record(TraceEvent::FaultInjected {
                at: self.clock,
                core: narrow(core),
                kind: FaultKind::SpuriousAbort,
            });
            self.cores[core].retry.note_fault();
            self.do_abort(core, AbortCause::Other);
            return true;
        }
        if in_tx && vsb_loaded && f.vsb_evict() {
            self.trace.record(TraceEvent::FaultInjected {
                at: self.clock,
                core: narrow(core),
                kind: FaultKind::VsbEvict,
            });
            self.cores[core].retry.note_fault();
            // Losing an unvalidated speculative line is a capacity-class
            // abort: the write-set can no longer be contained.
            self.do_abort(core, AbortCause::Capacity);
            return true;
        }
        false
    }

    /// NoC perturbation for a core→directory send. Returns the adjusted
    /// arrival, or `None` when the message was dropped (drop-with-timeout:
    /// a `MemRetry` is scheduled so the requester re-issues).
    ///
    /// Only *retryable demand requests* are droppable: the requester
    /// re-issues iff `pending_mem` still matches. Validation probes have
    /// no retry path — dropping one would hang the core forever, which is
    /// the watchdog's job to diagnose, not the drop knob's job to cause;
    /// lost validation *responses* model that scenario instead.
    pub(crate) fn fault_adjust_dir_send(
        &mut self,
        from_core: usize,
        mut arrive: Cycle,
        msg: &DirMsg,
    ) -> Option<Cycle> {
        let retryable = match msg {
            DirMsg::Request(req) => {
                let c = &self.cores[from_core];
                req.epoch == c.epoch
                    && c.val_req != Some(req.line)
                    && c.pending_mem.is_some_and(|pm| pm.line == req.line)
            }
            _ => false,
        };
        let f = self.faults.as_mut().expect("fault hook without plan");
        if retryable && f.drop_request() {
            let timeout = f.drop_timeout();
            self.trace.record(TraceEvent::FaultInjected {
                at: self.clock,
                core: narrow(from_core),
                kind: FaultKind::Drop,
            });
            let epoch = self.cores[from_core].epoch;
            self.events.push(
                self.clock + timeout,
                Event::MemRetry {
                    core: from_core,
                    epoch,
                },
            );
            return None;
        }
        if let Some(d) = f.delay_jitter() {
            arrive += d;
            self.trace.record(TraceEvent::FaultInjected {
                at: self.clock,
                core: narrow(from_core),
                kind: FaultKind::Delay,
            });
        }
        if let Some(d) = f.reorder_hold() {
            arrive += d;
            self.trace.record(TraceEvent::FaultInjected {
                at: self.clock,
                core: narrow(from_core),
                kind: FaultKind::Reorder,
            });
        }
        Some(Cycle(f.sequence(DIR_NODE, arrive.0)))
    }

    /// NoC perturbation for a core-bound send (from the directory or a
    /// peer core). Returns `(arrival, duplicate_arrival)` — or `None`
    /// when a validation response was dropped outright (the injected-hang
    /// scenario the watchdog exists for).
    ///
    /// Only `Data`/`SpecResp` are duplicable: the receive paths match
    /// duplicates against nothing outstanding and drop them, whereas a
    /// duplicated `Probe`/`Inv`/`Nack` could double-resolve a conflict or
    /// double-issue a request, which no real NoC deduplication layer
    /// would permit either.
    pub(crate) fn fault_adjust_core_send(
        &mut self,
        to: usize,
        mut arrive: Cycle,
        msg: &CoreMsg,
    ) -> Option<(Cycle, Option<Cycle>)> {
        let validation_resp = match msg {
            CoreMsg::Data { line, epoch, .. } | CoreMsg::SpecResp { line, epoch, .. } => {
                *epoch == self.cores[to].epoch && self.cores[to].val_req == Some(*line)
            }
            _ => false,
        };
        let duplicable = matches!(msg, CoreMsg::Data { .. } | CoreMsg::SpecResp { .. });
        let f = self.faults.as_mut().expect("fault hook without plan");
        if validation_resp {
            if f.drop_validation_data() {
                self.trace.record(TraceEvent::FaultInjected {
                    at: self.clock,
                    core: narrow(to),
                    kind: FaultKind::ValidationDrop,
                });
                return None;
            }
            if let Some(d) = f.validation_delay() {
                arrive += d;
                self.trace.record(TraceEvent::FaultInjected {
                    at: self.clock,
                    core: narrow(to),
                    kind: FaultKind::ValidationDelay,
                });
            }
        }
        if let Some(d) = f.delay_jitter() {
            arrive += d;
            self.trace.record(TraceEvent::FaultInjected {
                at: self.clock,
                core: narrow(to),
                kind: FaultKind::Delay,
            });
        }
        if let Some(d) = f.reorder_hold() {
            arrive += d;
            self.trace.record(TraceEvent::FaultInjected {
                at: self.clock,
                core: narrow(to),
                kind: FaultKind::Reorder,
            });
        }
        let arrive = Cycle(f.sequence(to, arrive.0));
        let dup = if duplicable && f.duplicate() {
            self.trace.record(TraceEvent::FaultInjected {
                at: self.clock,
                core: narrow(to),
                kind: FaultKind::Duplicate,
            });
            Some(Cycle(f.sequence(to, arrive.0 + 1)))
        } else {
            None
        };
        Some((arrive, dup))
    }
}
