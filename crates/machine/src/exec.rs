//! Core execution: VM stepping, transaction lifecycle, commit and abort.

use crate::core_state::{ExecMode, PendingMem, WaitReason};
use crate::machine::{Machine, Oracle};
use crate::msg::{DirMsg, Event};
use crate::trace::{narrow, TraceEvent};
use chats_core::{AbortCause, LevcArbiter, RetryVerdict};
use chats_mem::{Addr, CoherenceState, EvictOutcome, LineAddr};
use chats_noc::MsgClass;
use chats_tvm::VmEvent;

/// Upper bound on core-local cycles executed per `CoreStep` event (bounds
/// the timing skew of burst execution).
const COMPUTE_SLICE_MAX: u64 = 256;
/// Base of the randomized backoff applied between transaction retries.
const BACKOFF_BASE: u64 = 16;

impl Machine {
    /// Runs `core`'s VM until it blocks on memory, parks at a transaction
    /// boundary, exhausts its compute slice, or halts.
    pub(crate) fn core_step(&mut self, core: usize) {
        let mut acc: u64 = 0;
        loop {
            if acc >= COMPUTE_SLICE_MAX {
                let epoch = self.cores[core].epoch;
                let at = self.clock + acc;
                self.events.push(at, Event::CoreStep { core, epoch });
                return;
            }
            let ev = self.cores[core].vm.as_mut().expect("no thread").step();
            match ev {
                VmEvent::Compute(n) => {
                    if n > 64 {
                        // Long pauses become their own event so other cores'
                        // probes interleave accurately.
                        let epoch = self.cores[core].epoch;
                        let at = self.clock + acc + n;
                        self.events.push(at, Event::CoreStep { core, epoch });
                        return;
                    }
                    acc += n * self.cfg.core.cycles_per_op;
                }
                VmEvent::Halted => {
                    self.cores[core].halted = true;
                    self.halted += 1;
                    self.watchdog_progress(core);
                    return;
                }
                VmEvent::TxBegin => {
                    if !self.handle_tx_begin(core) {
                        return;
                    }
                }
                VmEvent::TxEnd => {
                    if !self.handle_tx_end(core) {
                        return;
                    }
                }
                VmEvent::Load(addr) => {
                    if !self.access(core, addr, false, 0, &mut acc) {
                        return;
                    }
                }
                VmEvent::Store(addr, v) => {
                    if !self.access(core, addr, true, v, &mut acc) {
                        return;
                    }
                }
            }
        }
    }

    /// Services one memory access. Returns `true` if it completed locally
    /// (the burst continues) or `false` if the core is now waiting.
    fn access(
        &mut self,
        core: usize,
        addr: Addr,
        is_store: bool,
        value: u64,
        acc: &mut u64,
    ) -> bool {
        let line = addr.line();
        let hit_latency = self.cfg.mem.l1_hit_latency;
        let in_tx = self.cores[core].in_tx();

        // Fast path: service from L1 if permissions allow.
        let mut wb: Option<(LineAddr, chats_mem::Line)> = None;
        let mut serviced: Option<u64> = None; // loaded value (or store sentinel)
        let mut spec_src = false; // value descends from an unvalidated SpecResp
        {
            let c = &mut self.cores[core];
            if let Some(mut e) = c.l1.lookup_mut(line) {
                if !is_store && e.state.is_readable() {
                    serviced = Some(e.data.read(addr));
                    spec_src = e.spec_received();
                } else if is_store && e.state.is_writable() {
                    if in_tx {
                        if !e.sm() {
                            // Lazy versioning: push the committed value down
                            // before the first speculative write (§VI-B).
                            if e.state == CoherenceState::Modified {
                                wb = Some((line, e.data));
                            }
                            e.mark_written();
                        }
                    } else {
                        e.set_state(CoherenceState::Modified);
                    }
                    e.data_mut().write(addr, value);
                    serviced = Some(0);
                }
            }
        }
        if let Some((l, data)) = wb {
            // Value lands synchronously (keeps the store committed-only);
            // the message is charged for timing/flits.
            self.dir.store.write_line(l, data);
            self.send_to_dir(core, MsgClass::Data, DirMsg::WbTiming, *acc);
        }
        if let Some(v) = serviced {
            if in_tx {
                if is_store {
                    self.cores[core].oracle.note_write(addr, value);
                } else {
                    self.cores[core].read_sig.insert(line);
                    self.oracle_read(core, addr, v, spec_src);
                }
            }
            *acc += hit_latency;
            let vm = self.cores[core].vm.as_mut().expect("no thread");
            if is_store {
                vm.complete_store();
            } else {
                vm.complete_load(v);
            }
            return true;
        }

        // Miss: one outstanding demand request.
        let getx = is_store;
        self.cores[core].pending_mem = Some(PendingMem {
            addr,
            line,
            getx,
            is_store,
            store_value: value,
        });
        self.issue_pending_request(core, *acc);
        false
    }

    /// Handles a `TxBegin` marker. Returns `true` to continue the burst.
    fn handle_tx_begin(&mut self, core: usize) -> bool {
        assert_eq!(
            self.cores[core].mode,
            ExecMode::Plain,
            "nested transactions are not supported"
        );
        // Capture the rollback point (pc is just past TxBegin).
        let snap = self.cores[core].vm.as_ref().expect("no thread").snapshot();
        let site = snap.pc();
        {
            let c = &mut self.cores[core];
            c.snapshot = Some(snap);
            c.tx_site = site;
            c.retry.reset();
        }
        // Eager lock subscription: while some thread runs the fallback
        // path, speculative execution cannot start (lock-based systems).
        if !self.policy.system.uses_power_token() && self.lock.is_held() {
            self.cores[core].waiting = WaitReason::LockToStart;
            self.cores[core].awaiting_retry = true;
            return false;
        }
        self.begin_attempt(core);
        true
    }

    /// Starts (or restarts) a speculative attempt; VM is positioned right
    /// after `TxBegin`.
    pub(crate) fn begin_attempt(&mut self, core: usize) {
        let needs_ts = self.policy.system == chats_core::HtmSystem::LevcBeIdealized;
        // Timestamps are issued once per transaction and kept across
        // retries so the oldest transaction eventually wins.
        if needs_ts && self.cores[core].levc_ts.is_none() {
            let t = self.ts_source.issue();
            self.cores[core].levc_ts = Some(t);
        }
        let c = &mut self.cores[core];
        c.mode = ExecMode::Tx;
        c.attempt_forwarded = false;
        c.attempt_conflicted = false;
        c.naive.reset();
        if needs_ts {
            let t = c.levc_ts.expect("LEVC timestamp set above");
            c.levc = LevcArbiter::begin(t);
        }
        self.stats.tx_attempts += 1;
        let at = self.clock;
        self.trace.record(TraceEvent::TxBegin {
            at,
            core: narrow(core),
        });
    }

    /// Handles a `TxEnd` marker. Returns `true` to continue the burst.
    fn handle_tx_end(&mut self, core: usize) -> bool {
        match self.cores[core].mode {
            ExecMode::Fallback => {
                self.lock.release(core);
                self.cores[core].mode = ExecMode::Plain;
                self.trace.record(TraceEvent::FallbackRelease {
                    at: self.clock,
                    core: narrow(core),
                });
                self.watchdog_progress(core);
                self.wake_lock_waiters();
                true
            }
            ExecMode::Tx => {
                if self.cores[core].vsb.is_empty() {
                    // `try_commit` may defer under a schedule hook; the
                    // burst then parks until the CommitRelease event.
                    self.try_commit(core)
                } else {
                    self.cores[core].commit_pending = true;
                    self.trace.record(TraceEvent::ValStallBegin {
                        at: self.clock,
                        core: narrow(core),
                    });
                    self.kick_validation(core);
                    false
                }
            }
            ExecMode::Plain => panic!("TxEnd outside a transaction on core {core}"),
        }
    }

    /// Commits `core`'s transaction now, unless a schedule hook defers it
    /// (bounded times) to let other chain links race the commit order.
    /// Returns `true` if the commit happened; on `false` the core keeps
    /// `commit_pending` set and a `CommitRelease` event is scheduled.
    pub(crate) fn try_commit(&mut self, core: usize) -> bool {
        const MAX_COMMIT_DEFERS: u8 = 4;
        if self.hook_active()
            && self.cores[core].commit_defers < MAX_COMMIT_DEFERS
            && self.decide(chats_sim::DecisionKind::CommitRelease, Some(core), 2) == 1
        {
            let at = self.clock + crate::validate::COMMIT_VALIDATION_GAP;
            let c = &mut self.cores[core];
            c.commit_defers += 1;
            let was_pending = c.commit_pending;
            c.commit_pending = true;
            let epoch = c.epoch;
            if !was_pending {
                // A hook-deferred commit stalls the attempt exactly like a
                // draining VSB; account it in the same bucket.
                self.trace.record(TraceEvent::ValStallBegin {
                    at: self.clock,
                    core: narrow(core),
                });
            }
            self.events.push(at, Event::CommitRelease { core, epoch });
            return false;
        }
        self.do_commit(core);
        true
    }

    /// Commits the running transaction (the VSB is empty by construction).
    ///
    /// # Panics
    ///
    /// With the atomicity oracle enabled (and not in record mode), panics
    /// if any transactionally read word does not equal the committed value
    /// at the commit instant — a serializability bug in the protocol,
    /// never a workload condition.
    pub(crate) fn do_commit(&mut self, core: usize) {
        if self.cores[core].commit_pending {
            self.trace.record(TraceEvent::ValStallEnd {
                at: self.clock,
                core: narrow(core),
            });
        }
        self.cores[core].l1.commit_speculative();
        if self.cores[core].oracle.is_enabled() {
            // Compare every read-only observation against the committed
            // value now (our own writes just became committed).
            let verdict = self.cores[core]
                .oracle
                .check_commit(|a| self.inspect_word(a));
            if let Err((a, observed, committed)) = verdict {
                if self.tuning.oracle == Oracle::Record {
                    self.violations.push(crate::Violation::AtomicityAtCommit {
                        core,
                        addr: a,
                        observed,
                        committed,
                        at: self.clock.0,
                    });
                } else {
                    panic!(
                        "atomicity violated at commit on core {core}: word {a:#x} \
                         was read as {observed} but the committed value is {committed}\n{}",
                        self.describe_line(Addr(a).line()),
                    );
                }
            }
            self.cores[core].oracle.reset();
        }
        let was_power = {
            let c = &mut self.cores[core];
            debug_assert!(c.vsb.is_empty(), "commit with unvalidated speculative data");
            c.read_sig.clear();
            c.pic.reset();
            c.levc.reset();
            c.levc_ts = None;
            c.naive.reset();
            c.commit_pending = false;
            c.commit_defers = 0;
            c.mode = ExecMode::Plain;
            c.retry.reset();
            let p = c.is_power;
            c.is_power = false;
            p
        };
        self.stats.commits += 1;
        self.watchdog_progress(core);
        self.trace.record(TraceEvent::Commit {
            at: self.clock,
            core: narrow(core),
        });
        if self.cores[core].attempt_conflicted {
            self.stats.conflicted_outcomes.committed += 1;
        }
        if self.cores[core].attempt_forwarded {
            self.stats.forwarder_outcomes.committed += 1;
        }
        if was_power {
            self.token.release(core);
            self.wake_power_waiter();
        }
    }

    /// Aborts the running transaction attempt with `cause` and schedules
    /// what comes next (retry, power escalation, fallback).
    pub(crate) fn do_abort(&mut self, core: usize, cause: AbortCause) {
        debug_assert!(self.cores[core].in_tx(), "abort outside a transaction");
        self.stats.record_abort(cause);
        if self.cores[core].commit_pending {
            self.trace.record(TraceEvent::ValStallEnd {
                at: self.clock,
                core: narrow(core),
            });
        }
        if self.trace.enabled() {
            // The VSB is discarded wholesale below; trace each entry so the
            // reconstructor sees every unvalidated speculation die.
            let evicted: Vec<LineAddr> = self.cores[core].vsb.iter().map(|e| e.addr).collect();
            for line in evicted {
                self.trace.record(TraceEvent::VsbEvict {
                    at: self.clock,
                    core: narrow(core),
                    line,
                });
            }
        }
        self.trace.record(TraceEvent::Abort {
            at: self.clock,
            core: narrow(core),
            cause,
        });
        if self.cores[core].attempt_conflicted {
            self.stats.conflicted_outcomes.aborted += 1;
        }
        if self.cores[core].attempt_forwarded {
            self.stats.forwarder_outcomes.aborted += 1;
        }
        let verdict = {
            let c = &mut self.cores[core];
            // Train the Rrestrict/W predictor with this attempt's writes.
            c.write_predictor
                .entry(c.tx_site)
                .or_default()
                .extend(c.l1.written_lines());
            c.l1.drop_speculative();
            c.read_sig.clear();
            c.vsb.clear();
            c.pic.reset();
            c.levc.reset();
            c.naive.reset();
            c.commit_pending = false;
            c.commit_defers = 0;
            c.val_req = None;
            c.val_timer_armed = false;
            c.pending_mem = None;
            c.oracle.reset();
            c.epoch += 1;
            c.mode = ExecMode::Plain;
            let snap = c.snapshot.clone().expect("abort without snapshot");
            c.vm.as_mut().expect("no thread").restore(&snap);
            c.retry.on_abort(cause)
        };
        let epoch = self.cores[core].epoch;
        match verdict {
            RetryVerdict::Retry => {
                self.cores[core].awaiting_retry = true;
                let d = self.backoff(core);
                self.events
                    .push(self.clock + d, Event::RetryTx { core, epoch });
            }
            RetryVerdict::RequestPower => {
                self.cores[core].awaiting_retry = true;
                if self.token.try_acquire(core) {
                    self.cores[core].is_power = true;
                    self.stats.power_grants += 1;
                    self.events
                        .push(self.clock + 1, Event::RetryTx { core, epoch });
                } else {
                    let d = self.backoff(core);
                    self.events
                        .push(self.clock + d, Event::RetryTx { core, epoch });
                }
            }
            RetryVerdict::Fallback => {
                if self.policy.system.uses_power_token() {
                    // The power token *is* the fallback path in power-based
                    // systems (§VI-D).
                    if self.token.try_acquire(core) {
                        self.cores[core].is_power = true;
                        self.stats.power_grants += 1;
                        self.stats.fallback_acquisitions += 1;
                        self.cores[core].awaiting_retry = true;
                        self.events
                            .push(self.clock + 1, Event::RetryTx { core, epoch });
                    } else {
                        self.cores[core].waiting = WaitReason::PowerToken;
                        self.cores[core].awaiting_retry = true;
                    }
                } else if self.lock.try_acquire(core) {
                    self.enter_fallback(core);
                } else {
                    self.cores[core].waiting = WaitReason::LockToAcquire;
                    self.cores[core].awaiting_retry = true;
                }
            }
        }
    }

    /// Randomized exponential backoff: doubles the window per failed
    /// attempt (capped), which is what keeps requester-wins out of
    /// livelock long enough to use its retry budget.
    fn backoff(&mut self, core: usize) -> u64 {
        let window = self.cores[core].retry.backoff_window(BACKOFF_BASE);
        BACKOFF_BASE + self.rng.below(window)
    }

    /// Begins non-speculative execution under the global lock; every other
    /// running transaction aborts through its eager lock subscription.
    fn enter_fallback(&mut self, core: usize) {
        self.stats.fallback_acquisitions += 1;
        self.trace.record(TraceEvent::Fallback {
            at: self.clock,
            core: narrow(core),
        });
        for other in 0..self.cores.len() {
            if other != core && self.cores[other].in_tx() {
                self.do_abort(other, AbortCause::FallbackLock);
            }
        }
        let c = &mut self.cores[core];
        c.mode = ExecMode::Fallback;
        let epoch = c.epoch;
        self.events
            .push(self.clock + 1, Event::CoreStep { core, epoch });
    }

    /// Handles a `RetryTx` event: resume whatever the core is waiting for.
    /// Duplicate wakeups (e.g. several lock releases while parked) are
    /// ignored via the `awaiting_retry` latch.
    pub(crate) fn retry_tx(&mut self, core: usize) {
        if !self.cores[core].awaiting_retry {
            return;
        }
        match self.cores[core].waiting {
            WaitReason::LockToAcquire => {
                if self.lock.try_acquire(core) {
                    let c = &mut self.cores[core];
                    c.waiting = WaitReason::None;
                    c.awaiting_retry = false;
                    self.enter_fallback(core);
                }
                // else: keep waiting; the next release wakes us again.
            }
            WaitReason::PowerToken => {
                if self.token.try_acquire(core) {
                    let c = &mut self.cores[core];
                    c.waiting = WaitReason::None;
                    c.is_power = true;
                    self.stats.power_grants += 1;
                    self.stats.fallback_acquisitions += 1;
                    self.start_speculative(core);
                }
            }
            WaitReason::LockToStart | WaitReason::None => {
                if !self.policy.system.uses_power_token() && self.lock.is_held() {
                    self.cores[core].waiting = WaitReason::LockToStart;
                } else {
                    self.cores[core].waiting = WaitReason::None;
                    self.start_speculative(core);
                }
            }
        }
    }

    fn start_speculative(&mut self, core: usize) {
        self.cores[core].awaiting_retry = false;
        self.begin_attempt(core);
        let epoch = self.cores[core].epoch;
        self.events
            .push(self.clock + 1, Event::CoreStep { core, epoch });
    }

    /// Re-issues a nacked demand request.
    pub(crate) fn mem_retry(&mut self, core: usize) {
        if self.cores[core].pending_mem.is_some() {
            self.issue_pending_request(core, 0);
        }
    }

    /// Wakes cores parked on the fallback lock (acquirers first).
    pub(crate) fn wake_lock_waiters(&mut self) {
        let mut delay = 1;
        for core in 0..self.cores.len() {
            if self.cores[core].waiting == WaitReason::LockToAcquire {
                let epoch = self.cores[core].epoch;
                self.events
                    .push(self.clock + delay, Event::RetryTx { core, epoch });
                delay += 1;
            }
        }
        for core in 0..self.cores.len() {
            if self.cores[core].waiting == WaitReason::LockToStart {
                let epoch = self.cores[core].epoch;
                self.events
                    .push(self.clock + delay, Event::RetryTx { core, epoch });
                delay += 1;
            }
        }
    }

    /// Wakes cores parked on the power token.
    pub(crate) fn wake_power_waiter(&mut self) {
        let mut delay = 1;
        for core in 0..self.cores.len() {
            if self.cores[core].waiting == WaitReason::PowerToken {
                let epoch = self.cores[core].epoch;
                self.events
                    .push(self.clock + delay, Event::RetryTx { core, epoch });
                delay += 1;
            }
        }
    }

    /// Inserts a line into a core's L1, handling evictions: dirty
    /// non-speculative victims write back; speculative victims abort the
    /// transaction (capacity). Returns `false` if the insertion aborted the
    /// transaction.
    pub(crate) fn l1_insert(
        &mut self,
        core: usize,
        line: LineAddr,
        state: CoherenceState,
        data: chats_mem::Line,
    ) -> bool {
        let outcome = self.cores[core].l1.insert(line, state, data);
        if let EvictOutcome::Evicted(victim) = outcome {
            if victim.is_speculative() {
                // A write-set or spec-received block left the cache: the
                // transaction cannot survive (§III-A).
                self.do_abort(core, AbortCause::Capacity);
                return false;
            }
            if victim.state == CoherenceState::Modified {
                self.dir.store.write_line(victim.addr, victim.data);
                self.send_to_dir(core, MsgClass::Data, DirMsg::WbTiming, 0);
            }
        }
        true
    }
}
