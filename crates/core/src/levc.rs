//! LEVC-BE-Idealized: the comparison system of §VI-B and Figure 11.
//!
//! A best-effort adaptation of Limited Early Value Communication (Pant &
//! Byrd) with *idealized* timestamps: globally unique, never rolling over,
//! acquired instantly at transaction begin and carried by every coherence
//! message at no cost. Its restrictions, as described by the paper:
//!
//! * a producer may forward speculative data to **one** consumer only,
//! * chains longer than 1 are disallowed — a transaction that has consumed
//!   speculative data cannot itself forward, and a producer cannot consume,
//! * stalling (requester-stall) is the base policy, with timestamp-ordered
//!   deadlock avoidance: an *older* requester never waits on a younger
//!   owner (the owner aborts instead),
//! * the scheme is unaware of forwarding dependencies, which is what makes
//!   it liable to wasted forwardings (§II).

use std::fmt;

/// An idealized transaction timestamp: smaller is older.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub u64);

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

/// Global monotonic timestamp source.
#[derive(Debug, Clone, Default)]
pub struct TimestampSource {
    next: u64,
}

impl TimestampSource {
    /// A source starting at zero.
    #[must_use]
    pub fn new() -> TimestampSource {
        TimestampSource::default()
    }

    /// Issues the next timestamp (at transaction begin).
    pub fn issue(&mut self) -> Timestamp {
        let t = Timestamp(self.next);
        self.next += 1;
        t
    }
}

impl chats_snap::Snap for Timestamp {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.0);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(Timestamp(r.u64()?))
    }
}

impl chats_snap::Snap for TimestampSource {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.next);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(TimestampSource { next: r.u64()? })
    }
}

impl chats_snap::Snap for LevcArbiter {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        self.ts.save(w);
        self.has_forwarded.save(w);
        self.has_consumed.save(w);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(LevcArbiter {
            ts: chats_snap::Snap::load(r)?,
            has_forwarded: chats_snap::Snap::load(r)?,
            has_consumed: chats_snap::Snap::load(r)?,
        })
    }
}

/// Producer-side decision for a conflict under LEVC-BE-Idealized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevcDecision {
    /// Forward speculative data (and remember the consumer).
    Forward,
    /// Nack: the requester stalls and retries later.
    Stall,
    /// The local (owner) transaction aborts (older requester wins).
    AbortLocal,
}

/// Per-transaction LEVC forwarding state for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevcArbiter {
    /// This transaction's timestamp (`None` outside a transaction).
    pub ts: Option<Timestamp>,
    /// Whether we already forwarded to some consumer (limit: one).
    pub has_forwarded: bool,
    /// Whether we consumed speculative data (then we may not forward).
    pub has_consumed: bool,
}

impl LevcArbiter {
    /// Fresh state at transaction begin.
    #[must_use]
    pub fn begin(ts: Timestamp) -> LevcArbiter {
        LevcArbiter {
            ts: Some(ts),
            has_forwarded: false,
            has_consumed: false,
        }
    }

    /// Resolves a conflicting request from a transaction with timestamp
    /// `remote_ts` (consumers must be *younger* than producers so commit
    /// order matches timestamp order).
    #[must_use]
    pub fn resolve(&self, remote_ts: Timestamp, remote_has_consumed: bool) -> LevcDecision {
        let own = match self.ts {
            Some(t) => t,
            None => return LevcDecision::AbortLocal, // not in a tx: nothing to protect
        };
        if remote_ts < own {
            // Older requester must not wait on us: requester wins.
            return LevcDecision::AbortLocal;
        }
        // Younger requester. Forward if all LEVC restrictions hold:
        // single consumer, no chains (neither side already in a chain).
        if !self.has_forwarded && !self.has_consumed && !remote_has_consumed {
            LevcDecision::Forward
        } else {
            LevcDecision::Stall
        }
    }

    /// Marks a forwarding done (producer side).
    pub fn note_forwarded(&mut self) {
        self.has_forwarded = true;
    }

    /// Marks a consumption done (consumer side).
    pub fn note_consumed(&mut self) {
        self.has_consumed = true;
    }

    /// Clears everything (commit or abort).
    pub fn reset(&mut self) {
        *self = LevcArbiter::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_monotonic() {
        let mut src = TimestampSource::new();
        let a = src.issue();
        let b = src.issue();
        assert!(a < b);
    }

    #[test]
    fn older_requester_wins() {
        let owner = LevcArbiter::begin(Timestamp(10));
        assert_eq!(owner.resolve(Timestamp(3), false), LevcDecision::AbortLocal);
    }

    #[test]
    fn younger_requester_gets_forwarded_once() {
        let mut owner = LevcArbiter::begin(Timestamp(3));
        assert_eq!(owner.resolve(Timestamp(10), false), LevcDecision::Forward);
        owner.note_forwarded();
        // Second consumer: the single-consumer restriction stalls it.
        assert_eq!(owner.resolve(Timestamp(11), false), LevcDecision::Stall);
    }

    #[test]
    fn consumers_cannot_forward() {
        let mut owner = LevcArbiter::begin(Timestamp(3));
        owner.note_consumed();
        assert_eq!(owner.resolve(Timestamp(10), false), LevcDecision::Stall);
    }

    #[test]
    fn consumers_cannot_consume_again_via_remote_flag() {
        let owner = LevcArbiter::begin(Timestamp(3));
        // The requester already consumed from someone: chain length would
        // exceed 1, so stall it.
        assert_eq!(owner.resolve(Timestamp(10), true), LevcDecision::Stall);
    }

    #[test]
    fn outside_transaction_never_blocks() {
        let idle = LevcArbiter::default();
        assert_eq!(idle.resolve(Timestamp(0), false), LevcDecision::AbortLocal);
    }

    #[test]
    fn reset_clears_flags() {
        let mut a = LevcArbiter::begin(Timestamp(1));
        a.note_forwarded();
        a.note_consumed();
        a.reset();
        assert_eq!(a, LevcArbiter::default());
    }
}
