//! Per-core simulation state: L1, HTM engine registers, VM bookkeeping.

use chats_core::{
    LevcArbiter, NaiveValidationCounter, PicContext, RetryManager, Timestamp, ValidationStateBuffer,
};
use chats_mem::{Addr, Cache, LineAddr, ReadSignature};
use chats_tvm::{Vm, VmSnapshot};

use crate::oracle::Oracle;
use chats_core::fasthash::{FastHashMap, FastHashSet};
use chats_snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Execution mode of a core's current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Outside any transaction.
    Plain,
    /// Inside a speculative (HTM) transaction attempt.
    Tx,
    /// Executing the transaction body non-speculatively while holding the
    /// global fallback lock.
    Fallback,
}

/// Why a core is parked, if it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// Not waiting.
    None,
    /// Waiting for the fallback lock to be released so a speculative
    /// attempt can start (eager subscription).
    LockToStart,
    /// Waiting to *acquire* the fallback lock (fallback verdict).
    LockToAcquire,
    /// Waiting for the power token (power-system fallback path).
    PowerToken,
}

/// An outstanding demand memory operation.
#[derive(Debug, Clone, Copy)]
pub struct PendingMem {
    /// Full word address.
    pub addr: Addr,
    /// Containing line.
    pub line: LineAddr,
    /// Exclusive request.
    pub getx: bool,
    /// The paused VM instruction is a store.
    pub is_store: bool,
    /// Value to store once permissions (or a speculative copy) arrive.
    pub store_value: u64,
}

/// All state of one simulated core.
#[derive(Debug)]
pub struct CoreState {
    /// The thread's interpreter (absent on unloaded cores).
    pub vm: Option<Vm>,
    /// The thread reached `Halt`.
    pub halted: bool,
    /// Monotonic attempt counter; events and responses carry it, so
    /// anything issued before an abort is ignored afterwards.
    pub epoch: u64,
    /// Current execution mode.
    pub mode: ExecMode,
    /// Rollback point captured at `TxBegin`.
    pub snapshot: Option<VmSnapshot>,
    /// Static id of the transaction being executed (the `TxBegin` pc),
    /// used by the Rrestrict/W write predictor.
    pub tx_site: usize,
    /// CHATS chaining context (PiC + Cons).
    pub pic: PicContext,
    /// Validation State Buffer.
    pub vsb: ValidationStateBuffer,
    /// Naive R-S misvalidation counter.
    pub naive: NaiveValidationCounter,
    /// LEVC timestamps / chain flags.
    pub levc: LevcArbiter,
    /// LEVC timestamp for the current transaction (kept across retries).
    pub levc_ts: Option<Timestamp>,
    /// Retry/fallback bookkeeping.
    pub retry: RetryManager,
    /// Private L1 data cache.
    pub l1: Cache,
    /// Perfect read signature.
    pub read_sig: ReadSignature,
    /// Outstanding demand miss.
    pub pending_mem: Option<PendingMem>,
    /// Outstanding validation request (line being validated).
    pub val_req: Option<LineAddr>,
    /// A validation timer event is scheduled.
    pub val_timer_armed: bool,
    /// `TxEnd` reached but the VSB is not yet empty.
    pub commit_pending: bool,
    /// Times the current commit has been deferred by a schedule hook's
    /// `CommitRelease` decision (bounded, so exploration cannot livelock a
    /// commit-ready transaction).
    pub commit_defers: u8,
    /// Park reason.
    pub waiting: WaitReason,
    /// The core is parked between attempts and a `RetryTx` is expected;
    /// duplicate wakeups are ignored unless this is set.
    pub awaiting_retry: bool,
    /// This attempt sent at least one `SpecResp` (Fig. 6).
    pub attempt_forwarded: bool,
    /// This attempt was involved in at least one conflict (Fig. 6).
    pub attempt_conflicted: bool,
    /// Holding the power token.
    pub is_power: bool,
    /// Rrestrict/W heuristic: per static transaction, lines written by
    /// earlier attempts (predicted "in-flight writes").
    pub write_predictor: FastHashMap<usize, FastHashSet<LineAddr>>,
    /// Atomicity oracle (enabled via `Tuning::oracle`).
    pub(crate) oracle: Oracle,
}

impl CoreState {
    /// Fresh core state with the given cache geometry and policy knobs.
    pub fn new(
        l1_sets: usize,
        l1_ways: usize,
        vsb_size: usize,
        naive_bits: u32,
        max_retries: u32,
        power_threshold: Option<u32>,
    ) -> CoreState {
        CoreState {
            vm: None,
            halted: true, // unloaded cores count as done
            epoch: 0,
            mode: ExecMode::Plain,
            snapshot: None,
            tx_site: 0,
            pic: PicContext::new(),
            vsb: ValidationStateBuffer::new(vsb_size),
            naive: NaiveValidationCounter::new(naive_bits),
            levc: LevcArbiter::default(),
            levc_ts: None,
            retry: RetryManager::new(max_retries, power_threshold),
            l1: Cache::new(l1_sets, l1_ways),
            read_sig: ReadSignature::new(),
            pending_mem: None,
            val_req: None,
            val_timer_armed: false,
            commit_pending: false,
            commit_defers: 0,
            waiting: WaitReason::None,
            awaiting_retry: false,
            attempt_forwarded: false,
            attempt_conflicted: false,
            is_power: false,
            write_predictor: FastHashMap::default(),
            oracle: Oracle::default(),
        }
    }

    /// `true` while a speculative transaction attempt is active.
    pub fn in_tx(&self) -> bool {
        self.mode == ExecMode::Tx
    }

    /// Lines predicted to be written soon by the current static
    /// transaction (Rrestrict/W heuristic).
    pub fn predicted_writes(&self) -> Option<&FastHashSet<LineAddr>> {
        self.write_predictor.get(&self.tx_site)
    }

    /// Serializes the complete core state. The VM is written as presence +
    /// dynamic registers only ([`Vm::save_state`]): the immutable program
    /// is rebuilt by the workload-construction path before restoring.
    pub fn save_state(&self, w: &mut SnapWriter) {
        match &self.vm {
            None => w.u8(0),
            Some(vm) => {
                w.u8(1);
                vm.save_state(w);
            }
        }
        self.halted.save(w);
        self.epoch.save(w);
        self.mode.save(w);
        self.snapshot.save(w);
        self.tx_site.save(w);
        self.pic.save(w);
        self.vsb.save(w);
        self.naive.save(w);
        self.levc.save(w);
        self.levc_ts.save(w);
        self.retry.save(w);
        self.l1.save(w);
        self.read_sig.save(w);
        self.pending_mem.save(w);
        self.val_req.save(w);
        self.val_timer_armed.save(w);
        self.commit_pending.save(w);
        self.commit_defers.save(w);
        self.waiting.save(w);
        self.awaiting_retry.save(w);
        self.attempt_forwarded.save(w);
        self.attempt_conflicted.save(w);
        self.is_power.save(w);
        self.write_predictor.save(w);
        self.oracle.save_state(w);
    }

    /// Restores state captured by [`CoreState::save_state`] over this core.
    ///
    /// # Errors
    ///
    /// Fails on a malformed stream, or when VM presence disagrees with the
    /// snapshot (the restored machine must have the same threads loaded).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match (r.u8()?, self.vm.as_mut()) {
            (0, None) => {}
            (1, Some(vm)) => vm.restore_state(r)?,
            (0, Some(_)) => {
                return Err(r.err("snapshot has no thread on a core that has one loaded"));
            }
            (1, None) => {
                return Err(r.err("snapshot has a thread on a core with none loaded"));
            }
            (t, _) => return Err(r.err(format!("vm presence byte must be 0 or 1, got {t}"))),
        }
        self.halted = Snap::load(r)?;
        self.epoch = Snap::load(r)?;
        self.mode = Snap::load(r)?;
        self.snapshot = Snap::load(r)?;
        self.tx_site = Snap::load(r)?;
        self.pic = Snap::load(r)?;
        self.vsb = Snap::load(r)?;
        self.naive = Snap::load(r)?;
        self.levc = Snap::load(r)?;
        self.levc_ts = Snap::load(r)?;
        self.retry = Snap::load(r)?;
        self.l1 = Snap::load(r)?;
        self.read_sig = Snap::load(r)?;
        self.pending_mem = Snap::load(r)?;
        self.val_req = Snap::load(r)?;
        self.val_timer_armed = Snap::load(r)?;
        self.commit_pending = Snap::load(r)?;
        self.commit_defers = Snap::load(r)?;
        self.waiting = Snap::load(r)?;
        self.awaiting_retry = Snap::load(r)?;
        self.attempt_forwarded = Snap::load(r)?;
        self.attempt_conflicted = Snap::load(r)?;
        self.is_power = Snap::load(r)?;
        self.write_predictor = Snap::load(r)?;
        self.oracle.restore_state(r)?;
        Ok(())
    }
}

impl Snap for ExecMode {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            ExecMode::Plain => 0,
            ExecMode::Tx => 1,
            ExecMode::Fallback => 2,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => ExecMode::Plain,
            1 => ExecMode::Tx,
            2 => ExecMode::Fallback,
            t => return Err(r.err(format!("ExecMode tag must be 0..=2, got {t}"))),
        })
    }
}

impl Snap for WaitReason {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            WaitReason::None => 0,
            WaitReason::LockToStart => 1,
            WaitReason::LockToAcquire => 2,
            WaitReason::PowerToken => 3,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => WaitReason::None,
            1 => WaitReason::LockToStart,
            2 => WaitReason::LockToAcquire,
            3 => WaitReason::PowerToken,
            t => return Err(r.err(format!("WaitReason tag must be 0..=3, got {t}"))),
        })
    }
}

impl Snap for PendingMem {
    fn save(&self, w: &mut SnapWriter) {
        self.addr.save(w);
        self.line.save(w);
        self.getx.save(w);
        self.is_store.save(w);
        self.store_value.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(PendingMem {
            addr: Snap::load(r)?,
            line: Snap::load(r)?,
            getx: Snap::load(r)?,
            is_store: Snap::load(r)?,
            store_value: Snap::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreState {
        CoreState::new(8, 2, 4, 4, 6, None)
    }

    #[test]
    fn fresh_core_is_idle() {
        let c = core();
        assert!(c.halted);
        assert!(!c.in_tx());
        assert_eq!(c.waiting, WaitReason::None);
        assert!(c.vsb.is_empty());
    }

    #[test]
    fn predictor_is_per_site() {
        let mut c = core();
        c.write_predictor.entry(10).or_default().insert(LineAddr(5));
        c.tx_site = 10;
        assert!(c.predicted_writes().unwrap().contains(&LineAddr(5)));
        c.tx_site = 20;
        assert!(c.predicted_writes().is_none());
    }
}
