//! Cache-line data payloads.

use crate::addr::{Addr, WORDS_PER_LINE};
use std::fmt;

/// The data contents of one 64-byte cache line: eight 64-bit words.
///
/// CHATS validates speculation *by value* (§III-A of the paper), so the
/// simulator carries real data everywhere a real machine would. Two lines
/// compare equal exactly when a hardware word-by-word comparator would say
/// so.
///
/// # Example
///
/// ```
/// use chats_mem::{Addr, Line};
/// let mut l = Line::zeroed();
/// l.write(Addr(3), 42);
/// assert_eq!(l.read(Addr(3)), 42);
/// assert_eq!(l.read(Addr(11)), 42); // offsets wrap within the line
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Line {
    words: [u64; WORDS_PER_LINE as usize],
}

impl Line {
    /// An all-zero line, the initial content of simulated memory.
    #[must_use]
    pub fn zeroed() -> Line {
        Line::default()
    }

    /// A line with every word set to `v`; handy in tests.
    #[must_use]
    pub fn splat(v: u64) -> Line {
        Line {
            words: [v; WORDS_PER_LINE as usize],
        }
    }

    /// Reads the word that `addr` selects within this line (only the offset
    /// bits of `addr` are used).
    #[must_use]
    pub fn read(&self, addr: Addr) -> u64 {
        self.words[addr.offset_in_line()]
    }

    /// Writes the word that `addr` selects within this line.
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.words[addr.offset_in_line()] = value;
    }

    /// All eight words, in order.
    #[must_use]
    pub fn words(&self) -> &[u64; WORDS_PER_LINE as usize] {
        &self.words
    }
}

impl chats_snap::Snap for Line {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        self.words.save(w);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(Line {
            words: chats_snap::Snap::load(r)?,
        })
    }
}

impl fmt::Debug for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Line{:x?}", self.words)
    }
}

impl From<[u64; WORDS_PER_LINE as usize]> for Line {
    fn from(words: [u64; WORDS_PER_LINE as usize]) -> Line {
        Line { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_reads_zero() {
        let l = Line::zeroed();
        for w in 0..8 {
            assert_eq!(l.read(Addr(w)), 0);
        }
    }

    #[test]
    fn write_then_read() {
        let mut l = Line::zeroed();
        for w in 0..8u64 {
            l.write(Addr(w), w * 10);
        }
        for w in 0..8u64 {
            assert_eq!(l.read(Addr(w)), w * 10);
        }
    }

    #[test]
    fn only_offset_bits_matter() {
        let mut l = Line::zeroed();
        l.write(Addr(1000), 7); // offset 1000 % 8 == 0
        assert_eq!(l.read(Addr(0)), 7);
        assert_eq!(l.read(Addr(8)), 7);
    }

    #[test]
    fn equality_is_wordwise() {
        let mut a = Line::splat(5);
        let b = Line::splat(5);
        assert_eq!(a, b);
        a.write(Addr(6), 6);
        assert_ne!(a, b);
    }

    #[test]
    fn from_array() {
        let l = Line::from([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(l.read(Addr(4)), 5);
        assert_eq!(l.words(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
