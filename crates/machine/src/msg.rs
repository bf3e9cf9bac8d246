//! Protocol messages and simulation events.

use chats_core::{Pic, Timestamp};
use chats_mem::{Line, LineAddr};
use chats_snap::{Snap, SnapError, SnapReader, SnapWriter};

/// A coherence request as it travels to the directory. Carries the HTM
/// metadata the paper piggybacks on coherence traffic: the requester's PiC,
/// power status, and (for LEVC) its idealized timestamp and consumed flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Requesting core.
    pub core: usize,
    /// Line requested.
    pub line: LineAddr,
    /// `true` for exclusive (GetX), `false` for shared (GetS).
    pub getx: bool,
    /// Requester's PiC at issue time (may be stale on arrival — that race
    /// is part of the design, §IV-C).
    pub pic: Pic,
    /// Requester holds the power token.
    pub power: bool,
    /// Requester is not executing a transaction (fallback or plain code):
    /// conflicts always resolve requester-wins.
    pub non_tx: bool,
    /// LEVC idealized timestamp (set only under LEVC-BE-Idealized).
    pub levc_ts: Option<Timestamp>,
    /// LEVC: requester has consumed speculative data (chain-length check).
    pub levc_consumed: bool,
    /// Requester's transaction epoch, echoed in responses so stale replies
    /// can be discarded after an abort.
    pub epoch: u64,
}

/// Messages delivered to a core's L1 controller.
#[derive(Debug, Clone, Copy)]
pub enum CoreMsg {
    /// A standard coherence response with data and permissions.
    Data {
        /// Line serviced.
        line: LineAddr,
        /// Committed (or owner-current) data.
        data: Line,
        /// Exclusive ownership granted.
        excl: bool,
        /// Echo of the request epoch.
        epoch: u64,
    },
    /// A speculative response: a value hint with no permissions (§IV-A).
    SpecResp {
        /// Line hinted.
        line: LineAddr,
        /// The producer's current speculative value.
        data: Line,
        /// The producer's PiC after the forwarding; `None` when the
        /// producer is a power transaction (PCHATS), a naive forwarder or
        /// a LEVC forwarder (no PiC in those systems).
        pic: Option<Pic>,
        /// Echo of the request epoch.
        epoch: u64,
    },
    /// Negative acknowledgement: retry later, nothing changed.
    Nack {
        /// Line nacked.
        line: LineAddr,
        /// Echo of the request epoch.
        epoch: u64,
    },
    /// Directory-forwarded request probing this core as owner.
    Probe {
        /// The original request.
        req: Request,
    },
    /// Invalidation of a shared copy (on someone's GetX).
    Inv {
        /// The original request (for conflict policy at the sharer).
        req: Request,
    },
}

/// How an owner probe concluded, reported back to the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Owner downgraded to Shared and sent data to the requester.
    Shared {
        /// The (former exclusive) owner that keeps a shared copy.
        owner: usize,
    },
    /// Owner invalidated its copy and transferred ownership to the
    /// requester.
    Transferred,
    /// Owner had no copy (silent eviction) or aborted: the directory must
    /// service the request from the backing store.
    NotServiced,
    /// The request was answered with a `SpecResp` or `Nack` directly by the
    /// owner; coherence state and ownership are unchanged (§IV-A).
    Canceled,
}

/// Messages delivered to the directory.
#[derive(Debug, Clone, Copy)]
pub enum DirMsg {
    /// A new coherence request.
    Request(Request),
    /// Conclusion of an owner probe.
    ProbeDone {
        /// The probed request (identifies the blocked line + requester).
        req: Request,
        /// What the owner did.
        outcome: ProbeOutcome,
    },
    /// A sharer acknowledged (or refused) an invalidation.
    InvAck {
        /// The request that triggered the invalidation.
        req: Request,
        /// Sharer acknowledging.
        core: usize,
        /// `true` when a power transaction refused to invalidate (the
        /// requester will be nacked).
        refused: bool,
    },
    /// Timing/flit-accounting-only writeback notification; the store value
    /// was already updated synchronously (see DESIGN.md §6).
    WbTiming,
}

// Every event queue node carries one `Event`, so its size is the
// queue's footprint per pending event. It is 96 bytes because
// `CoreMsg::Data` and `SpecResp` carry a 64-byte `Line` inline. The
// bytes are not the hot loop's cost: a 48-byte `Event` (line payloads in
// a slab, 16-bit core ids) ran explore only ~3% faster, while handing
// events over without store-forwarding stalls ran it 20-33% faster
// (DESIGN §14). The assertion makes any change to the size a deliberate
// one.
const _: () = assert!(std::mem::size_of::<Event>() == 96);

/// All simulation events.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// Resume executing a core's VM.
    CoreStep {
        /// Core to step.
        core: usize,
        /// Epoch guard: stale events are dropped.
        epoch: u64,
    },
    /// Begin a new transaction attempt after backoff / wakeup.
    RetryTx {
        /// Core retrying.
        core: usize,
        /// Epoch guard.
        epoch: u64,
    },
    /// Re-issue a nacked or stalled demand request.
    MemRetry {
        /// Core retrying its memory operation.
        core: usize,
        /// Epoch guard.
        epoch: u64,
    },
    /// Periodic validation timer fired.
    ValidationTick {
        /// Core whose VSB should be probed.
        core: usize,
        /// Epoch guard.
        epoch: u64,
    },
    /// A deferred commit (schedule exploration's `CommitRelease` decision)
    /// is due: commit now if the transaction is still commit-ready.
    CommitRelease {
        /// Core whose commit was deferred.
        core: usize,
        /// Epoch guard.
        epoch: u64,
    },
    /// A message arrived at the directory.
    DirRecv(DirMsg),
    /// A message arrived at a core.
    CoreRecv {
        /// Destination core.
        core: usize,
        /// The message.
        msg: CoreMsg,
    },
}

// ---- canonical encodings (state commitments and checkpoints) ----------
//
// Every in-flight message and queued event is part of the machine state a
// commitment must cover. Enum variants are tagged with small fixed bytes;
// tags are stable across builds (append-only).

impl Snap for Request {
    fn save(&self, w: &mut SnapWriter) {
        self.core.save(w);
        self.line.save(w);
        self.getx.save(w);
        self.pic.save(w);
        self.power.save(w);
        self.non_tx.save(w);
        self.levc_ts.save(w);
        self.levc_consumed.save(w);
        self.epoch.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Request {
            core: Snap::load(r)?,
            line: Snap::load(r)?,
            getx: Snap::load(r)?,
            pic: Snap::load(r)?,
            power: Snap::load(r)?,
            non_tx: Snap::load(r)?,
            levc_ts: Snap::load(r)?,
            levc_consumed: Snap::load(r)?,
            epoch: Snap::load(r)?,
        })
    }
}

impl Snap for CoreMsg {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            CoreMsg::Data {
                line,
                data,
                excl,
                epoch,
            } => {
                w.u8(0);
                line.save(w);
                data.save(w);
                excl.save(w);
                epoch.save(w);
            }
            CoreMsg::SpecResp {
                line,
                data,
                pic,
                epoch,
            } => {
                w.u8(1);
                line.save(w);
                data.save(w);
                pic.save(w);
                epoch.save(w);
            }
            CoreMsg::Nack { line, epoch } => {
                w.u8(2);
                line.save(w);
                epoch.save(w);
            }
            CoreMsg::Probe { req } => {
                w.u8(3);
                req.save(w);
            }
            CoreMsg::Inv { req } => {
                w.u8(4);
                req.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => CoreMsg::Data {
                line: Snap::load(r)?,
                data: Snap::load(r)?,
                excl: Snap::load(r)?,
                epoch: Snap::load(r)?,
            },
            1 => CoreMsg::SpecResp {
                line: Snap::load(r)?,
                data: Snap::load(r)?,
                pic: Snap::load(r)?,
                epoch: Snap::load(r)?,
            },
            2 => CoreMsg::Nack {
                line: Snap::load(r)?,
                epoch: Snap::load(r)?,
            },
            3 => CoreMsg::Probe {
                req: Snap::load(r)?,
            },
            4 => CoreMsg::Inv {
                req: Snap::load(r)?,
            },
            t => return Err(r.err(format!("CoreMsg tag must be 0..=4, got {t}"))),
        })
    }
}

impl Snap for ProbeOutcome {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            ProbeOutcome::Shared { owner } => {
                w.u8(0);
                owner.save(w);
            }
            ProbeOutcome::Transferred => w.u8(1),
            ProbeOutcome::NotServiced => w.u8(2),
            ProbeOutcome::Canceled => w.u8(3),
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => ProbeOutcome::Shared {
                owner: Snap::load(r)?,
            },
            1 => ProbeOutcome::Transferred,
            2 => ProbeOutcome::NotServiced,
            3 => ProbeOutcome::Canceled,
            t => return Err(r.err(format!("ProbeOutcome tag must be 0..=3, got {t}"))),
        })
    }
}

impl Snap for DirMsg {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            DirMsg::Request(req) => {
                w.u8(0);
                req.save(w);
            }
            DirMsg::ProbeDone { req, outcome } => {
                w.u8(1);
                req.save(w);
                outcome.save(w);
            }
            DirMsg::InvAck { req, core, refused } => {
                w.u8(2);
                req.save(w);
                core.save(w);
                refused.save(w);
            }
            DirMsg::WbTiming => w.u8(3),
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => DirMsg::Request(Snap::load(r)?),
            1 => DirMsg::ProbeDone {
                req: Snap::load(r)?,
                outcome: Snap::load(r)?,
            },
            2 => DirMsg::InvAck {
                req: Snap::load(r)?,
                core: Snap::load(r)?,
                refused: Snap::load(r)?,
            },
            3 => DirMsg::WbTiming,
            t => return Err(r.err(format!("DirMsg tag must be 0..=3, got {t}"))),
        })
    }
}

impl Snap for Event {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Event::CoreStep { core, epoch } => {
                w.u8(0);
                core.save(w);
                epoch.save(w);
            }
            Event::RetryTx { core, epoch } => {
                w.u8(1);
                core.save(w);
                epoch.save(w);
            }
            Event::MemRetry { core, epoch } => {
                w.u8(2);
                core.save(w);
                epoch.save(w);
            }
            Event::ValidationTick { core, epoch } => {
                w.u8(3);
                core.save(w);
                epoch.save(w);
            }
            Event::CommitRelease { core, epoch } => {
                w.u8(4);
                core.save(w);
                epoch.save(w);
            }
            Event::DirRecv(msg) => {
                w.u8(5);
                msg.save(w);
            }
            Event::CoreRecv { core, msg } => {
                w.u8(6);
                core.save(w);
                msg.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Event::CoreStep {
                core: Snap::load(r)?,
                epoch: Snap::load(r)?,
            },
            1 => Event::RetryTx {
                core: Snap::load(r)?,
                epoch: Snap::load(r)?,
            },
            2 => Event::MemRetry {
                core: Snap::load(r)?,
                epoch: Snap::load(r)?,
            },
            3 => Event::ValidationTick {
                core: Snap::load(r)?,
                epoch: Snap::load(r)?,
            },
            4 => Event::CommitRelease {
                core: Snap::load(r)?,
                epoch: Snap::load(r)?,
            },
            5 => Event::DirRecv(Snap::load(r)?),
            6 => Event::CoreRecv {
                core: Snap::load(r)?,
                msg: Snap::load(r)?,
            },
            t => return Err(r.err(format!("Event tag must be 0..=6, got {t}"))),
        })
    }
}
