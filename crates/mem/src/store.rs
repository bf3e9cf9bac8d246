//! Backing store: the committed version of every line.
//!
//! Models the folded L2/L3/DRAM level that sits behind the directory. In
//! the paper's lazy-versioning baseline, the non-speculative value of a line
//! is written back here *before* its first speculative modification, so an
//! abort can discard L1 state silently and later requests are serviced with
//! committed data.

use crate::addr::{Addr, LineAddr};
use crate::fasthash::FastHashMap;
use crate::line::Line;
use crate::DENSE_LINES;

/// Sparse word-accurate simulated memory.
///
/// Untouched lines read as zero, like freshly mapped pages.
///
/// Low line addresses — the region every registry workload lives in — are
/// a direct-mapped `Vec<Line>` with a presence bitmap: a committed-line
/// lookup on the simulation hot path is one bounds check and one array
/// index, no hashing. Lines above [`DENSE_LINES`] spill into a
/// deterministic-hash map ([`FastHashMap`]), preserving full 64-bit
/// sparse addressing.
///
/// # Example
///
/// ```
/// use chats_mem::{Addr, BackingStore};
/// let mut m = BackingStore::new();
/// m.write_word(Addr(100), 5);
/// assert_eq!(m.read_word(Addr(100)), 5);
/// assert_eq!(m.read_word(Addr(101)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BackingStore {
    /// Direct-mapped lines `0..DENSE_LINES`; grown on first touch.
    dense: Vec<Line>,
    /// One bit per `dense` slot: has this line ever been written? (A
    /// zeroed slot is indistinguishable from an untouched one by value,
    /// but `touched_lines`/`lines` must not invent entries.)
    present: Vec<u64>,
    /// Count of set bits in `present`.
    dense_touched: usize,
    /// Everything at or above `DENSE_LINES`.
    sparse: FastHashMap<LineAddr, Line>,
}

impl BackingStore {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> BackingStore {
        BackingStore::default()
    }

    #[inline]
    fn is_present(&self, idx: usize) -> bool {
        self.present
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Grows the dense array to cover `idx` and marks it present.
    #[inline]
    fn mark_present(&mut self, idx: usize) {
        if idx >= self.dense.len() {
            self.dense.resize(idx + 1, Line::zeroed());
            self.present.resize(idx / 64 + 1, 0);
        }
        let bit = 1u64 << (idx % 64);
        let w = &mut self.present[idx / 64];
        if *w & bit == 0 {
            *w |= bit;
            self.dense_touched += 1;
        }
    }

    /// Reads a whole line; absent lines are zero.
    #[must_use]
    pub fn read_line(&self, addr: LineAddr) -> Line {
        let idx = addr.index();
        if (idx as usize) < DENSE_LINES {
            // Beyond the grown prefix ⇒ never written ⇒ zero.
            self.dense
                .get(idx as usize)
                .copied()
                .unwrap_or_else(Line::zeroed)
        } else {
            self.sparse.get(&addr).copied().unwrap_or_else(Line::zeroed)
        }
    }

    /// Replaces a whole line (a writeback from a private cache).
    pub fn write_line(&mut self, addr: LineAddr, data: Line) {
        let idx = addr.index();
        if (idx as usize) < DENSE_LINES {
            self.mark_present(idx as usize);
            self.dense[idx as usize] = data;
        } else {
            self.sparse.insert(addr, data);
        }
    }

    /// Reads one word.
    #[must_use]
    pub fn read_word(&self, addr: Addr) -> u64 {
        let idx = addr.line().index();
        if (idx as usize) < DENSE_LINES {
            match self.dense.get(idx as usize) {
                Some(line) => line.read(addr),
                None => 0,
            }
        } else {
            self.read_line(addr.line()).read(addr)
        }
    }

    /// Writes one word (in place; no whole-line read-modify-write).
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        let line = addr.line();
        let idx = line.index();
        if (idx as usize) < DENSE_LINES {
            self.mark_present(idx as usize);
            self.dense[idx as usize].write(addr, value);
        } else {
            self.sparse
                .entry(line)
                .or_insert_with(Line::zeroed)
                .write(addr, value);
        }
    }

    /// Number of lines ever written.
    #[must_use]
    pub fn touched_lines(&self) -> usize {
        self.dense_touched + self.sparse.len()
    }

    /// Every line ever written, in no particular order (callers that need
    /// determinism must sort; see `Machine::memory_image`).
    pub fn lines(&self) -> impl Iterator<Item = (LineAddr, &Line)> {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter(|(i, _)| self.is_present(*i))
            .map(|(i, l)| (LineAddr(i as u64), l));
        dense.chain(self.sparse.iter().map(|(a, l)| (*a, l)))
    }
}

// Canonical form: present dense lines in index order, then the sparse
// map in sorted-key order. Replaying them through `write_line` on load
// regrows the dense array and presence bitmap to exactly the sizes the
// original reached (both depend only on the highest touched line), so a
// restored store is indistinguishable from the original.
impl chats_snap::Snap for BackingStore {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.dense_touched as u64);
        for (i, line) in self.dense.iter().enumerate() {
            if self.is_present(i) {
                w.u64(i as u64);
                line.save(w);
            }
        }
        self.sparse.save(w);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        let n = r.len_prefix(8 + 64)?;
        let mut store = BackingStore::new();
        for _ in 0..n {
            let idx = r.u64()?;
            if idx as usize >= DENSE_LINES {
                return Err(r.err(format!("dense line index {idx} out of range")));
            }
            let line = Line::load(r)?;
            store.write_line(LineAddr(idx), line);
        }
        if store.dense_touched != n {
            return Err(r.err("duplicate dense line index"));
        }
        store.sparse = chats_snap::Snap::load(r)?;
        if store
            .sparse
            .keys()
            .any(|a| (a.index() as usize) < DENSE_LINES)
        {
            return Err(r.err("dense-region line in the sparse map"));
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_reads_zero() {
        let m = BackingStore::new();
        assert_eq!(m.read_word(Addr(12345)), 0);
        assert_eq!(m.read_line(LineAddr(99)), Line::zeroed());
    }

    #[test]
    fn word_write_preserves_neighbours() {
        let mut m = BackingStore::new();
        m.write_word(Addr(8), 1);
        m.write_word(Addr(9), 2);
        assert_eq!(m.read_word(Addr(8)), 1);
        assert_eq!(m.read_word(Addr(9)), 2);
        assert_eq!(m.read_word(Addr(10)), 0);
    }

    #[test]
    fn line_write_replaces_whole_line() {
        let mut m = BackingStore::new();
        m.write_word(Addr(0), 42);
        m.write_line(LineAddr(0), Line::splat(7));
        assert_eq!(m.read_word(Addr(0)), 7);
        assert_eq!(m.read_word(Addr(7)), 7);
    }

    #[test]
    fn lines_iterates_written_lines() {
        let mut m = BackingStore::new();
        m.write_word(Addr(0), 1);
        m.write_word(Addr(16), 2);
        let mut seen: Vec<u64> = m.lines().map(|(a, _)| a.index()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 2]);
    }

    #[test]
    fn touched_lines_counts_distinct() {
        let mut m = BackingStore::new();
        m.write_word(Addr(0), 1);
        m.write_word(Addr(1), 1); // same line
        m.write_word(Addr(8), 1); // next line
        assert_eq!(m.touched_lines(), 2);
    }

    #[test]
    fn dense_and_sparse_regions_agree() {
        let mut m = BackingStore::new();
        let edge = DENSE_LINES as u64; // first sparse line
        let dense_word = Addr((edge - 1) * 8 + 3);
        let sparse_word = Addr(edge * 8 + 3);
        let far_word = Addr(u64::MAX - 7);
        m.write_word(dense_word, 11);
        m.write_word(sparse_word, 22);
        m.write_word(far_word, 33);
        assert_eq!(m.read_word(dense_word), 11);
        assert_eq!(m.read_word(sparse_word), 22);
        assert_eq!(m.read_word(far_word), 33);
        assert_eq!(m.touched_lines(), 3);
        let mut seen: Vec<u64> = m.lines().map(|(a, _)| a.index()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![edge - 1, edge, (u64::MAX - 7) / 8]);
    }

    #[test]
    fn line_writes_at_the_boundary_round_trip() {
        let mut m = BackingStore::new();
        let edge = LineAddr(DENSE_LINES as u64);
        let below = LineAddr(DENSE_LINES as u64 - 1);
        m.write_line(edge, Line::splat(5));
        m.write_line(below, Line::splat(6));
        assert_eq!(m.read_line(edge), Line::splat(5));
        assert_eq!(m.read_line(below), Line::splat(6));
        // Untouched neighbours on both sides still read zero.
        assert_eq!(
            m.read_line(LineAddr(DENSE_LINES as u64 + 1)),
            Line::zeroed()
        );
        assert_eq!(m.read_line(LineAddr(0)), Line::zeroed());
    }

    #[test]
    fn zero_valued_writes_still_count_as_touched() {
        let mut m = BackingStore::new();
        m.write_word(Addr(40), 0); // writes an explicit zero
        assert_eq!(m.touched_lines(), 1);
        assert_eq!(m.lines().count(), 1);
    }
}
