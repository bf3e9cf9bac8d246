//! Protocol event tracing: the event taxonomy and pluggable sinks.
//!
//! The machine emits one [`TraceEvent`] per interesting protocol action —
//! transaction lifecycle, forwardings, validations, fallback episodes,
//! interconnect injections, validation stalls and VSB movements. Where the
//! events go is decided by the installed [`TraceSink`]:
//!
//! * [`RingSink`] — a bounded in-memory ring that keeps the **latest**
//!   events and counts everything it had to drop
//!   ([`crate::Machine::set_trace_sink`] keeps it built in, so
//!   [`crate::Machine::trace_events`] reads it),
//! * `chats-obs`'s JSONL sink — streams every event to disk,
//! * no sink at all — the default; emission sites check
//!   [`Trace::enabled`] first, so a machine without a sink never even
//!   constructs the events (zero allocations on the hot path).
//!
//! The event stream is ordered by emission, not by timestamp. Each core's
//! own events (those with [`TraceEvent::core`], and a `Forward` on its
//! consumer side too) never step back in time, and same-cycle events
//! appear in protocol order; `chats-obs` relies on that to reconstruct
//! per-core transaction timelines and cycle-accounting breakdowns. Events
//! of different cores interleave, so the stream as a whole steps back by
//! up to a few hundred cycles, and so do `NocSend`s from one source.
//!
//! An event is 24 bytes: timestamps and line addresses stay 64-bit, while
//! core and node ids and flit counts are `u16` and VSB occupancy `u32`.
//! [`crate::Machine::new`] rejects a configuration whose ids or flit
//! counts would not fit, so every emission site narrows through
//! `narrow` without loss.

use chats_core::{AbortCause, Pic};
use chats_mem::LineAddr;
use chats_sim::Cycle;
use std::fmt;

/// One recorded protocol action.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TraceEvent {
    /// A transaction attempt began.
    TxBegin {
        /// When.
        at: Cycle,
        /// Which core.
        core: u16,
    },
    /// A transaction committed.
    Commit {
        /// When.
        at: Cycle,
        /// Which core.
        core: u16,
    },
    /// A transaction attempt aborted.
    Abort {
        /// When.
        at: Cycle,
        /// Which core.
        core: u16,
        /// Why.
        cause: AbortCause,
    },
    /// A producer answered a conflicting request with a `SpecResp`.
    Forward {
        /// When.
        at: Cycle,
        /// Producer core.
        from: u16,
        /// Consumer core.
        to: u16,
        /// Conflicting line.
        line: LineAddr,
        /// The PiC carried by the `SpecResp` (`None` from power/naive/LEVC
        /// producers).
        pic: Option<Pic>,
    },
    /// A speculatively received line validated successfully.
    Validated {
        /// When.
        at: Cycle,
        /// Consumer core.
        core: u16,
        /// The line that is now genuinely owned.
        line: LineAddr,
    },
    /// A thread acquired the fallback path (lock or forced token).
    Fallback {
        /// When.
        at: Cycle,
        /// Which core.
        core: u16,
    },
    /// The fallback path was released (the non-speculative section ended).
    FallbackRelease {
        /// When.
        at: Cycle,
        /// Which core.
        core: u16,
    },
    /// A message was injected into the interconnect. `arrive` is its
    /// (pre-computed, deterministic) arrival time at `dst`; the queueing
    /// delay beyond pure serialization + link latency is egress
    /// contention.
    NocSend {
        /// Injection time.
        at: Cycle,
        /// Source node (cores `0..n`, then the directory).
        src: u16,
        /// Destination node.
        dst: u16,
        /// Message size in flits.
        flits: u16,
        /// Arrival time at `dst`.
        arrive: Cycle,
    },
    /// A transaction reached `TxEnd` but cannot commit until its VSB
    /// drains: the validation stall begins.
    ValStallBegin {
        /// When.
        at: Cycle,
        /// Which core.
        core: u16,
    },
    /// The validation stall ended (the attempt committed or aborted).
    ValStallEnd {
        /// When.
        at: Cycle,
        /// Which core.
        core: u16,
    },
    /// A speculatively received line entered the VSB.
    VsbInsert {
        /// When.
        at: Cycle,
        /// Consumer core.
        core: u16,
        /// The guarded line.
        line: LineAddr,
        /// Entries held after the insertion.
        occupancy: u32,
    },
    /// A VSB entry was discarded unvalidated (its attempt aborted).
    VsbEvict {
        /// When.
        at: Cycle,
        /// Which core.
        core: u16,
        /// The discarded line.
        line: LineAddr,
    },
    /// The fault injector perturbed the machine (see [`chats_faults`]).
    /// Only emitted when a fault plan is installed; a machine without one
    /// never records this variant.
    FaultInjected {
        /// When.
        at: Cycle,
        /// The core the fault acted on (the requester for dropped
        /// requests, the receiver for perturbed responses).
        core: u16,
        /// What was injected.
        kind: chats_faults::FaultKind,
    },
    /// The progress watchdog declared `core` stalled: no commit, fallback
    /// completion or halt for a full horizon. The run ends in a structured
    /// [`crate::FailureReport`] right after this event.
    WatchdogFired {
        /// When.
        at: Cycle,
        /// The stalled core.
        core: u16,
    },
}

/// A full in-memory trace holds millions of events; keep each at 24 bytes.
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 24);

/// Narrows a machine-side id or count to its trace field width.
///
/// # Panics
///
/// Panics if `n` does not fit, which [`crate::Machine::new`]'s
/// configuration bound rules out (and, for VSB occupancy, the VSB's own
/// allocation).
#[inline]
pub(crate) fn narrow<N, T>(n: N) -> T
where
    N: Copy + fmt::Display,
    T: TryFrom<N>,
{
    T::try_from(n).unwrap_or_else(|_| panic!("{n} does not fit its trace field"))
}

impl TraceEvent {
    /// Event timestamp.
    #[must_use]
    pub fn at(&self) -> Cycle {
        match self {
            TraceEvent::TxBegin { at, .. }
            | TraceEvent::Commit { at, .. }
            | TraceEvent::Abort { at, .. }
            | TraceEvent::Forward { at, .. }
            | TraceEvent::Validated { at, .. }
            | TraceEvent::Fallback { at, .. }
            | TraceEvent::FallbackRelease { at, .. }
            | TraceEvent::NocSend { at, .. }
            | TraceEvent::ValStallBegin { at, .. }
            | TraceEvent::ValStallEnd { at, .. }
            | TraceEvent::VsbInsert { at, .. }
            | TraceEvent::VsbEvict { at, .. }
            | TraceEvent::FaultInjected { at, .. }
            | TraceEvent::WatchdogFired { at, .. } => *at,
        }
    }

    /// The core this event belongs to, if it is a per-core event (`None`
    /// for interconnect events, whose endpoints may be the directory).
    #[must_use]
    pub fn core(&self) -> Option<usize> {
        match self {
            TraceEvent::TxBegin { core, .. }
            | TraceEvent::Commit { core, .. }
            | TraceEvent::Abort { core, .. }
            | TraceEvent::Validated { core, .. }
            | TraceEvent::Fallback { core, .. }
            | TraceEvent::FallbackRelease { core, .. }
            | TraceEvent::ValStallBegin { core, .. }
            | TraceEvent::ValStallEnd { core, .. }
            | TraceEvent::VsbInsert { core, .. }
            | TraceEvent::VsbEvict { core, .. }
            | TraceEvent::FaultInjected { core, .. }
            | TraceEvent::WatchdogFired { core, .. } => Some(usize::from(*core)),
            TraceEvent::Forward { from, .. } => Some(usize::from(*from)),
            TraceEvent::NocSend { .. } => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::TxBegin { at, core } => write!(f, "[{at:>8}] core{core} tx-begin"),
            TraceEvent::Commit { at, core } => write!(f, "[{at:>8}] core{core} commit"),
            TraceEvent::Abort { at, core, cause } => {
                write!(f, "[{at:>8}] core{core} abort ({cause})")
            }
            TraceEvent::Forward {
                at,
                from,
                to,
                line,
                pic,
            } => match pic {
                Some(p) => write!(f, "[{at:>8}] core{from} -> core{to} SpecResp {line} {p}"),
                None => write!(
                    f,
                    "[{at:>8}] core{from} -> core{to} SpecResp {line} (no PiC)"
                ),
            },
            TraceEvent::Validated { at, core, line } => {
                write!(f, "[{at:>8}] core{core} validated {line}")
            }
            TraceEvent::Fallback { at, core } => write!(f, "[{at:>8}] core{core} fallback"),
            TraceEvent::FallbackRelease { at, core } => {
                write!(f, "[{at:>8}] core{core} fallback-release")
            }
            TraceEvent::NocSend {
                at,
                src,
                dst,
                flits,
                arrive,
            } => write!(
                f,
                "[{at:>8}] n{src} -> n{dst} {flits} flit(s), arrives {arrive}"
            ),
            TraceEvent::ValStallBegin { at, core } => {
                write!(f, "[{at:>8}] core{core} validation-stall begin")
            }
            TraceEvent::ValStallEnd { at, core } => {
                write!(f, "[{at:>8}] core{core} validation-stall end")
            }
            TraceEvent::VsbInsert {
                at,
                core,
                line,
                occupancy,
            } => write!(
                f,
                "[{at:>8}] core{core} vsb-insert {line} ({occupancy} held)"
            ),
            TraceEvent::VsbEvict { at, core, line } => {
                write!(f, "[{at:>8}] core{core} vsb-evict {line}")
            }
            TraceEvent::FaultInjected { at, core, kind } => {
                write!(f, "[{at:>8}] core{core} fault-injected {kind}")
            }
            TraceEvent::WatchdogFired { at, core } => {
                write!(f, "[{at:>8}] core{core} watchdog-fired")
            }
        }
    }
}

/// Where trace events go. Implementations must be cheap: `record` sits on
/// the protocol hot path whenever tracing is enabled.
pub trait TraceSink {
    /// Accepts one event. Events arrive in emission order: time order per
    /// core, but not across cores (see the module docs).
    fn record(&mut self, ev: TraceEvent);

    /// Events this sink has discarded (capacity, I/O errors, ...).
    fn dropped(&self) -> u64 {
        0
    }

    /// Flushes any buffered output. Called when the sink is detached.
    fn flush(&mut self) {}

    /// Downcasting hook so callers of
    /// [`crate::Machine::take_trace_sink`] can recover their concrete
    /// sink. Implement as `Some(self)` to opt in; the default opts out.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// A bounded in-memory ring: keeps the **latest** `capacity` events and
/// counts every event it had to overwrite, so truncation is always
/// visible (no more silent drops).
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    /// Storage; once full, `head` is the index of the *oldest* event.
    events: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> RingSink {
        assert!(capacity > 0, "a trace ring needs at least one slot");
        RingSink {
            capacity,
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Events overwritten because the ring was full.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The machine's trace dispatcher: `None` (tracing off — the default), a
/// built-in ring, or a caller-provided sink.
#[derive(Default)]
pub(crate) enum Trace {
    /// Tracing disabled; `record` is never called (emission sites guard
    /// with [`Trace::enabled`]).
    #[default]
    Off,
    /// The built-in bounded ring (a [`RingSink`] handed to
    /// [`crate::Machine::set_trace_sink`]).
    Ring(RingSink),
    /// A pluggable sink ([`crate::Machine::set_trace_sink`]).
    Custom(Box<dyn TraceSink>),
}

impl Trace {
    /// `true` when events should be constructed and recorded. Emission
    /// sites check this before building events so disabled tracing costs
    /// one branch and zero allocations.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        !matches!(self, Trace::Off)
    }

    pub(crate) fn record(&mut self, ev: TraceEvent) {
        match self {
            Trace::Off => {}
            Trace::Ring(r) => r.record(ev),
            Trace::Custom(s) => s.record(ev),
        }
    }

    /// Retained events, oldest first (ring only; custom sinks own their
    /// storage and return nothing here).
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        match self {
            Trace::Ring(r) => r.events(),
            _ => Vec::new(),
        }
    }

    pub(crate) fn dropped(&self) -> u64 {
        match self {
            Trace::Off => 0,
            Trace::Ring(r) => r.dropped(),
            Trace::Custom(s) => s.dropped(),
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trace::Off => f.write_str("Trace::Off"),
            Trace::Ring(r) => f
                .debug_struct("Trace::Ring")
                .field("len", &r.events.len())
                .field("dropped", &r.dropped)
                .finish(),
            Trace::Custom(_) => f.write_str("Trace::Custom"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::default();
        assert!(!t.enabled());
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_keeps_latest_and_counts_drops() {
        let mut r = RingSink::new(2);
        for i in 0..5 {
            r.record(TraceEvent::Commit {
                at: Cycle(i),
                core: 0,
            });
        }
        let kept = r.events();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].at(), Cycle(3));
        assert_eq!(kept[1].at(), Cycle(4));
        assert_eq!(r.dropped_events(), 3);
    }

    #[test]
    fn ring_below_capacity_drops_nothing() {
        let mut r = RingSink::new(8);
        for i in 0..3 {
            r.record(TraceEvent::TxBegin {
                at: Cycle(i),
                core: 1,
            });
        }
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.dropped_events(), 0);
    }

    #[test]
    fn display_is_informative() {
        let ev = TraceEvent::Forward {
            at: Cycle(120),
            from: 3,
            to: 5,
            line: LineAddr(0x40),
            pic: Some(Pic::INIT),
        };
        let s = ev.to_string();
        assert!(s.contains("core3"));
        assert!(s.contains("core5"));
        assert!(s.contains("SpecResp"));
        assert_eq!(ev.at(), Cycle(120));
        assert_eq!(ev.core(), Some(3));

        let noc = TraceEvent::NocSend {
            at: Cycle(7),
            src: 0,
            dst: 4,
            flits: 5,
            arrive: Cycle(13),
        };
        assert!(noc.to_string().contains("n0 -> n4"));
        assert_eq!(noc.core(), None);
    }
}
