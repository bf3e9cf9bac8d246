//! Word and cache-line addresses.

use std::fmt;

/// Words per 64-byte cache line (8 × u64).
pub const WORDS_PER_LINE: u64 = 8;

/// A word address: one 8-byte word of simulated memory.
///
/// All workload-visible accesses operate on whole words; the memory system
/// groups them into 64-byte lines ([`LineAddr`]).
///
/// # Example
///
/// ```
/// use chats_mem::{Addr, WORDS_PER_LINE};
/// let a = Addr(19);
/// assert_eq!(a.line().index(), 19 / WORDS_PER_LINE);
/// assert_eq!(a.offset_in_line(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this word.
    #[must_use]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / WORDS_PER_LINE)
    }

    /// Word offset within its cache line, in `0..8`.
    #[must_use]
    pub fn offset_in_line(self) -> usize {
        (self.0 % WORDS_PER_LINE) as usize
    }

    /// The address `n` words after this one.
    #[must_use]
    pub fn offset(self, n: u64) -> Addr {
        Addr(self.0 + n)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{:#x}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-line address (word address divided by 8).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The raw line index.
    #[must_use]
    pub fn index(self) -> u64 {
        self.0
    }

    /// Word address of the first word in this line.
    #[must_use]
    pub fn base_word(self) -> Addr {
        Addr(self.0 * WORDS_PER_LINE)
    }

    /// Cache set this line maps to, for a cache with `sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0`.
    #[must_use]
    pub fn set_index(self, sets: usize) -> usize {
        assert!(sets > 0, "a cache needs at least one set");
        (self.0 % sets as u64) as usize
    }
}

impl chats_snap::Snap for Addr {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.0);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(Addr(r.u64()?))
    }
}

impl chats_snap::Snap for LineAddr {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.0);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(LineAddr(r.u64()?))
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_map_to_lines() {
        for w in 0..64 {
            let a = Addr(w);
            assert_eq!(a.line().index(), w / 8);
            assert_eq!(a.offset_in_line() as u64, w % 8);
        }
    }

    #[test]
    fn base_word_round_trip() {
        let l = LineAddr(5);
        assert_eq!(l.base_word(), Addr(40));
        assert_eq!(l.base_word().line(), l);
    }

    #[test]
    fn set_index_wraps() {
        assert_eq!(LineAddr(0).set_index(16), 0);
        assert_eq!(LineAddr(16).set_index(16), 0);
        assert_eq!(LineAddr(17).set_index(16), 1);
    }

    #[test]
    fn offset_walks_words() {
        assert_eq!(Addr(3).offset(9), Addr(12));
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        let _ = LineAddr(1).set_index(0);
    }
}
