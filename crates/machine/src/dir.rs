//! The blocking full-map MESI directory.
//!
//! One request is in flight per line at a time; requests arriving for a
//! busy line queue and are replayed when the line unblocks. This avoids
//! transient protocol states while preserving the conflict and forwarding
//! behaviour CHATS depends on (see DESIGN.md §6, decision 4).

use crate::msg::Request;
use chats_core::fasthash::{FastHashMap, FastHashSet};
use chats_mem::{BackingStore, Line, LineAddr, DENSE_LINES};
use chats_snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Stable directory state of one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No private copies.
    Uncached,
    /// Read-only copies at the listed cores.
    Shared(Vec<usize>),
    /// Exclusively owned (E or M) by one core.
    Owned(usize),
}

/// Per-line directory bookkeeping.
#[derive(Debug)]
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

impl DirLine {
    fn new() -> DirLine {
        DirLine {
            state: DirState::Uncached,
            busy: false,
            queue: VecDeque::new(),
            pending_invs: 0,
            inv_refused: false,
            invalidated: Vec::new(),
        }
    }
}

/// The directory plus the inclusive backing store behind it.
///
/// The per-line state for low line addresses lives in a direct-mapped
/// `Vec<DirLine>` over the first [`DENSE_LINES`] lines, grown on first
/// touch: `line_mut` — executed once per protocol message — is a bounds
/// check and an index, no hashing. An
/// untouched dense slot holds `DirState::Uncached`, which is exactly what
/// the map-based lookup reported for an absent entry, so the two layouts
/// are observationally identical.
#[derive(Debug)]
pub struct Directory {
    /// Lines `0..DENSE_LINES`, grown lazily to the highest touched.
    dense: Vec<DirLine>,
    /// Lines at or above `DENSE_LINES`.
    spill: FastHashMap<LineAddr, DirLine>,
    /// Committed value of every line (the folded L2/L3/DRAM level).
    pub store: BackingStore,
    /// Warm bits for the dense span: one bit per line, set once the line
    /// has been accessed (LLC-warm); cold lines pay the memory latency.
    warm_bits: Vec<u64>,
    /// Warm lines at or above `DENSE_LINES`.
    warm_spill: FastHashSet<LineAddr>,
}

impl Directory {
    /// An empty directory over zeroed memory.
    pub fn new() -> Directory {
        Directory {
            dense: Vec::new(),
            spill: FastHashMap::default(),
            store: BackingStore::new(),
            warm_bits: Vec::new(),
            warm_spill: FastHashSet::default(),
        }
    }

    /// Mutable per-line entry, created on demand.
    #[inline]
    pub fn line_mut(&mut self, addr: LineAddr) -> &mut DirLine {
        let idx = addr.index();
        if (idx as usize) < DENSE_LINES {
            let idx = idx as usize;
            if idx >= self.dense.len() {
                self.dense.resize_with(idx + 1, DirLine::new);
            }
            &mut self.dense[idx]
        } else {
            self.spill.entry(addr).or_insert_with(DirLine::new)
        }
    }

    /// Immutable per-line state (Uncached if never touched).
    #[inline]
    pub fn state_of(&self, addr: LineAddr) -> DirState {
        let idx = addr.index();
        if (idx as usize) < DENSE_LINES {
            match self.dense.get(idx as usize) {
                Some(l) => l.state.clone(),
                None => DirState::Uncached,
            }
        } else {
            self.spill
                .get(&addr)
                .map(|l| l.state.clone())
                .unwrap_or(DirState::Uncached)
        }
    }

    /// Marks a line warm; returns `true` if it was cold (first touch ⇒
    /// memory latency applies).
    #[inline]
    pub fn touch(&mut self, addr: LineAddr) -> bool {
        let idx = addr.index();
        if (idx as usize) < DENSE_LINES {
            let (word, bit) = (idx as usize / 64, idx % 64);
            if word >= self.warm_bits.len() {
                self.warm_bits.resize(word + 1, 0);
            }
            let cold = self.warm_bits[word] & (1u64 << bit) == 0;
            self.warm_bits[word] |= 1u64 << bit;
            cold
        } else {
            self.warm_spill.insert(addr)
        }
    }

    /// Committed data of a line.
    pub fn read(&self, addr: LineAddr) -> Line {
        self.store.read_line(addr)
    }
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
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
    /// Serializes the full directory: per-line state (dense span in index
    /// order, spill in sorted-key order), the backing store, and the warm
    /// bits. The dense span's grown length is part of the stream — restore
    /// reproduces the exact geometry, keeping subsequent snapshots of the
    /// restored machine byte-identical to the uninterrupted run's.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.dense.save(w);
        self.spill.save(w);
        self.store.save(w);
        self.warm_bits.save(w);
        self.warm_spill.save(w);
    }

    /// Restores state captured by [`Directory::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on a malformed stream or spill keys inside the dense span.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let dense: Vec<DirLine> = Snap::load(r)?;
        if dense.len() > DENSE_LINES {
            return Err(r.err(format!(
                "dense directory span {} exceeds the {DENSE_LINES}-line maximum",
                dense.len()
            )));
        }
        let spill: FastHashMap<LineAddr, DirLine> = Snap::load(r)?;
        if let Some(k) = spill.keys().find(|a| (a.index() as usize) < DENSE_LINES) {
            return Err(r.err(format!(
                "spill directory line {k} belongs to the dense span"
            )));
        }
        let store: BackingStore = Snap::load(r)?;
        let warm_bits: Vec<u64> = Snap::load(r)?;
        let warm_spill: FastHashSet<LineAddr> = Snap::load(r)?;
        if let Some(k) = warm_spill
            .iter()
            .find(|a| (a.index() as usize) < DENSE_LINES)
        {
            return Err(r.err(format!("spill warm bit {k} belongs to the dense span")));
        }
        self.dense = dense;
        self.spill = spill;
        self.store = store;
        self.warm_bits = warm_bits;
        self.warm_spill = warm_spill;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_lines_are_uncached() {
        let d = Directory::new();
        assert_eq!(d.state_of(LineAddr(9)), DirState::Uncached);
        assert_eq!(
            d.state_of(LineAddr(DENSE_LINES as u64 + 9)),
            DirState::Uncached
        );
    }

    #[test]
    fn touch_reports_cold_once() {
        let mut d = Directory::new();
        assert!(d.touch(LineAddr(1)), "first touch is cold");
        assert!(!d.touch(LineAddr(1)), "second touch is warm");
        let far = LineAddr(u64::MAX - 3);
        assert!(d.touch(far), "first spill touch is cold");
        assert!(!d.touch(far), "second spill touch is warm");
    }

    #[test]
    fn line_mut_creates_and_persists() {
        let mut d = Directory::new();
        d.line_mut(LineAddr(2)).state = DirState::Owned(3);
        assert_eq!(d.state_of(LineAddr(2)), DirState::Owned(3));
    }

    #[test]
    fn dense_and_spill_lines_are_independent() {
        let mut d = Directory::new();
        let below = LineAddr(DENSE_LINES as u64 - 1);
        let above = LineAddr(DENSE_LINES as u64);
        d.line_mut(below).state = DirState::Owned(1);
        d.line_mut(above).state = DirState::Shared(vec![0, 2]);
        assert_eq!(d.state_of(below), DirState::Owned(1));
        assert_eq!(d.state_of(above), DirState::Shared(vec![0, 2]));
        // Growing the dense span did not invent state for neighbours.
        assert_eq!(d.state_of(LineAddr(5)), DirState::Uncached);
    }
}
