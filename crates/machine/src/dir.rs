//! The blocking full-map MESI directory.
//!
//! One request is in flight per line at a time; requests arriving for a
//! busy line queue and are replayed when the line unblocks. This avoids
//! transient protocol states while preserving the conflict and forwarding
//! behaviour CHATS depends on (see DESIGN.md §6, decision 4).

use crate::msg::Request;
use chats_mem::{BackingStore, Line, LineAddr, LineSet, LineTable};
use chats_snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Stable directory state of one line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DirState {
    /// No private copies.
    #[default]
    Uncached,
    /// Read-only copies at the listed cores.
    Shared(Vec<usize>),
    /// Exclusively owned (E or M) by one core.
    Owned(usize),
}

/// Per-line directory bookkeeping.
#[derive(Debug, Default)]
pub struct DirLine {
    /// Coherence state.
    pub state: DirState,
    /// A request is being serviced for this line.
    pub busy: bool,
    /// Requests waiting for the line to unblock.
    pub queue: VecDeque<Request>,
    /// Invalidation acks still expected for the in-flight request.
    pub pending_invs: usize,
    /// Some sharer refused to invalidate (power transaction): nack the
    /// requester when the remaining acks arrive.
    pub inv_refused: bool,
    /// Sharers that acknowledged the in-flight invalidation round.
    pub invalidated: Vec<usize>,
}

/// The directory plus the inclusive backing store behind it.
///
/// Per-line state lives in a [`LineTable`]: `line_mut` — executed once per
/// protocol message — is a bounds check and an index on near lines, no
/// hashing. A slot nobody touched holds `DirState::Uncached`, exactly what
/// an absent line reports.
#[derive(Debug, Default)]
pub struct Directory {
    /// Per-line coherence state and request queue.
    lines: LineTable<DirLine>,
    /// Committed value of every line (the folded L2/L3/DRAM level).
    pub store: BackingStore,
    /// Lines accessed at least once (LLC-warm); cold lines pay the memory
    /// latency.
    warm: LineSet,
}

impl Directory {
    /// Mutable per-line entry, created on demand.
    #[inline]
    pub fn line_mut(&mut self, addr: LineAddr) -> &mut DirLine {
        self.lines.slot(addr)
    }

    /// Immutable per-line state (Uncached if never touched).
    #[inline]
    pub fn state_of(&self, addr: LineAddr) -> DirState {
        self.lines
            .get(addr)
            .map_or(DirState::Uncached, |l| l.state.clone())
    }

    /// Marks a line warm; returns `true` if it was cold (first touch ⇒
    /// memory latency applies).
    #[inline]
    pub fn touch(&mut self, addr: LineAddr) -> bool {
        self.warm.insert(addr)
    }

    /// Committed data of a line.
    pub fn read(&self, addr: LineAddr) -> Line {
        self.store.read_line(addr)
    }
}

impl Snap for DirState {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            DirState::Uncached => w.u8(0),
            DirState::Shared(cores) => {
                w.u8(1);
                cores.save(w);
            }
            DirState::Owned(core) => {
                w.u8(2);
                core.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => DirState::Uncached,
            1 => DirState::Shared(Snap::load(r)?),
            2 => DirState::Owned(Snap::load(r)?),
            t => return Err(r.err(format!("DirState tag must be 0..=2, got {t}"))),
        })
    }
}

impl Snap for DirLine {
    fn save(&self, w: &mut SnapWriter) {
        self.state.save(w);
        self.busy.save(w);
        self.queue.save(w);
        self.pending_invs.save(w);
        self.inv_refused.save(w);
        self.invalidated.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(DirLine {
            state: Snap::load(r)?,
            busy: Snap::load(r)?,
            queue: Snap::load(r)?,
            pending_invs: Snap::load(r)?,
            inv_refused: Snap::load(r)?,
            invalidated: Snap::load(r)?,
        })
    }
}

impl Directory {
    /// Serializes the full directory: per-line state (with the near span's
    /// grown length, so a restored machine snapshots byte for byte like the
    /// uninterrupted one), the backing store and the warm set.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.lines.save(w);
        self.store.save(w);
        self.warm.save(w);
    }

    /// Restores state captured by [`Directory::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on a malformed stream or a line in the wrong section.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = Directory {
            lines: Snap::load(r)?,
            store: Snap::load(r)?,
            warm: Snap::load(r)?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_lines_are_uncached() {
        let d = Directory::default();
        assert_eq!(d.state_of(LineAddr(9)), DirState::Uncached);
        assert_eq!(d.state_of(LineAddr(u64::MAX - 9)), DirState::Uncached);
    }

    #[test]
    fn touch_reports_cold_once() {
        let mut d = Directory::default();
        assert!(d.touch(LineAddr(1)), "first touch is cold");
        assert!(!d.touch(LineAddr(1)), "second touch is warm");
        let far = LineAddr(u64::MAX - 3);
        assert!(d.touch(far), "first far touch is cold");
        assert!(!d.touch(far), "second far touch is warm");
    }

    #[test]
    fn line_mut_creates_and_persists() {
        let mut d = Directory::default();
        d.line_mut(LineAddr(2)).state = DirState::Owned(3);
        assert_eq!(d.state_of(LineAddr(2)), DirState::Owned(3));
    }
}
