//! Perfect read-set signature.
//!
//! Commercial RTM implementations track read sets that can exceed the
//! private cache with a hardware signature. Following the paper's
//! methodology (§VI-B: "we use a perfect signature to track read sets"),
//! this is a *perfect* — false-positive-free — set of line addresses.

use crate::addr::LineAddr;
use crate::fasthash::FastHashSet;

/// Direct-mapped span of the signature bitmap; lines above this spill
/// into a hash set.
const DENSE_SIG_LINES: u64 = crate::DENSE_LINES as u64;

/// An exact set of lines transactionally read by a core.
///
/// Membership tests and inserts run on the coherence hot path (every
/// load, every incoming exclusive request), so the low-address span is a
/// bitmap plus an insertion log: `contains` is one bit test, `insert`
/// sets a bit and appends, and `clear` — called at every commit and
/// abort — resets only the bits actually set instead of wiping the whole
/// bitmap.
///
/// # Example
///
/// ```
/// use chats_mem::{LineAddr, ReadSignature};
/// let mut sig = ReadSignature::new();
/// sig.insert(LineAddr(7));
/// assert!(sig.contains(LineAddr(7)));
/// sig.clear();
/// assert!(sig.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReadSignature {
    /// One bit per line in the dense span, grown on demand and kept
    /// across `clear` so steady state never reallocates.
    bits: Vec<u64>,
    /// Dense lines in insertion order, for targeted clearing and
    /// iteration.
    log: Vec<LineAddr>,
    /// Lines at or above `DENSE_SIG_LINES`.
    spill: FastHashSet<LineAddr>,
}

impl ReadSignature {
    /// Creates an empty signature.
    pub fn new() -> ReadSignature {
        ReadSignature::default()
    }

    /// Records a transactional read of `line`.
    pub fn insert(&mut self, line: LineAddr) {
        let idx = line.index();
        if idx < DENSE_SIG_LINES {
            let (word, bit) = (idx as usize / 64, idx % 64);
            if word >= self.bits.len() {
                self.bits.resize(word + 1, 0);
            }
            if self.bits[word] & (1u64 << bit) == 0 {
                self.bits[word] |= 1u64 << bit;
                self.log.push(line);
            }
        } else {
            self.spill.insert(line);
        }
    }

    /// Tests membership (conflict check on an incoming exclusive request).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        let idx = line.index();
        if idx < DENSE_SIG_LINES {
            self.bits
                .get(idx as usize / 64)
                .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
        } else {
            self.spill.contains(&line)
        }
    }

    /// Empties the signature (commit or abort).
    pub fn clear(&mut self) {
        for line in self.log.drain(..) {
            self.bits[line.index() as usize / 64] &= !(1u64 << (line.index() % 64));
        }
        self.spill.clear();
    }

    /// Number of distinct lines read.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log.len() + self.spill.len()
    }

    /// `true` when no reads are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the recorded lines (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.log.iter().copied().chain(self.spill.iter().copied())
    }
}

// Canonical form: the insertion log (order is state — `clear` drains it)
// plus the spill set in sorted order. The bitmap is derived, so it is
// rebuilt on load rather than serialized; its grown-but-clear capacity
// never influences behaviour or future encodings.
impl chats_snap::Snap for ReadSignature {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        self.log.save(w);
        self.spill.save(w);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        let log: Vec<LineAddr> = chats_snap::Snap::load(r)?;
        let spill: FastHashSet<LineAddr> = chats_snap::Snap::load(r)?;
        let mut sig = ReadSignature::new();
        for &line in &log {
            if line.index() >= DENSE_SIG_LINES {
                return Err(r.err("spill-region line in the dense log"));
            }
            sig.insert(line);
        }
        if sig.log != log {
            return Err(r.err("duplicate lines in the dense log"));
        }
        sig.spill = spill;
        Ok(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_clear() {
        let mut s = ReadSignature::new();
        assert!(s.is_empty());
        s.insert(LineAddr(1));
        s.insert(LineAddr(2));
        s.insert(LineAddr(1)); // duplicate
        assert_eq!(s.len(), 2);
        assert!(s.contains(LineAddr(1)));
        assert!(!s.contains(LineAddr(3)));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(LineAddr(1)));
    }

    #[test]
    fn iter_yields_all() {
        let mut s = ReadSignature::new();
        for i in 0..10 {
            s.insert(LineAddr(i));
        }
        let mut got: Vec<u64> = s.iter().map(|l| l.index()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dense_and_spill_lines_coexist() {
        let mut s = ReadSignature::new();
        let lo = LineAddr(DENSE_SIG_LINES - 1);
        let hi = LineAddr(DENSE_SIG_LINES);
        let far = LineAddr(u64::MAX);
        s.insert(lo);
        s.insert(hi);
        s.insert(far);
        s.insert(hi); // duplicate in the spill region
        assert_eq!(s.len(), 3);
        assert!(s.contains(lo) && s.contains(hi) && s.contains(far));
        assert!(!s.contains(LineAddr(0)));
        s.clear();
        assert_eq!(s.len(), 0);
        assert!(!s.contains(lo) && !s.contains(hi) && !s.contains(far));
    }

    #[test]
    fn clear_then_reinsert_works() {
        let mut s = ReadSignature::new();
        s.insert(LineAddr(100));
        s.clear();
        s.insert(LineAddr(100));
        assert_eq!(s.len(), 1);
        assert!(s.contains(LineAddr(100)));
    }
}
