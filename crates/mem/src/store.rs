//! Backing store: the committed version of every line.
//!
//! Models the folded L2/L3/DRAM level that sits behind the directory. In
//! the paper's lazy-versioning baseline, the non-speculative value of a line
//! is written back here *before* its first speculative modification, so an
//! abort can discard L1 state silently and later requests are serviced with
//! committed data.

use crate::addr::{Addr, LineAddr};
use crate::line::Line;
use crate::line_table::LineTable;

/// Sparse word-accurate simulated memory: a `TRACKED` [`LineTable`] of
/// lines, so an explicitly written zero line is told apart from an
/// untouched one, which reads as zero like a freshly mapped page. Its
/// snapshot lists the written lines in ascending order.
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
pub type BackingStore = LineTable<Line, true>;

impl BackingStore {
    /// Reads a whole line; absent lines are zero.
    #[must_use]
    pub fn read_line(&self, addr: LineAddr) -> Line {
        self.get(addr).copied().unwrap_or_else(Line::zeroed)
    }

    /// Replaces a whole line (a writeback from a private cache).
    pub fn write_line(&mut self, addr: LineAddr, data: Line) {
        *self.slot(addr) = data;
    }

    /// Reads one word.
    #[must_use]
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.get(addr.line()).map_or(0, |line| line.read(addr))
    }

    /// Writes one word (in place; no whole-line read-modify-write).
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        self.slot(addr.line()).write(addr, value);
    }

    /// Number of lines ever written.
    #[must_use]
    pub fn touched_lines(&self) -> usize {
        self.iter().count()
    }

    /// Every line ever written, in ascending line order.
    pub fn lines(&self) -> impl Iterator<Item = (LineAddr, &Line)> {
        self.iter()
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
        let seen: Vec<u64> = m.lines().map(|(a, _)| a.index()).collect();
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
    fn zero_valued_writes_still_count_as_touched() {
        let mut m = BackingStore::new();
        m.write_word(Addr(40), 0); // writes an explicit zero
        assert_eq!(m.touched_lines(), 1);
        assert_eq!(m.lines().count(), 1);
    }
}
