//! Perfect read-set signature.
//!
//! Commercial RTM implementations track read sets that can exceed the
//! private cache with a hardware signature. Following the paper's
//! methodology (§VI-B: "we use a perfect signature to track read sets"),
//! this is a *perfect* — false-positive-free — set of line addresses.

use crate::addr::LineAddr;
use crate::line_table::{is_far, load_lines, LineSet};
use chats_snap::{Snap, SnapError, SnapReader, SnapWriter};

/// An exact set of lines transactionally read by a core.
///
/// Membership tests and inserts run on the coherence hot path (every
/// load, every incoming exclusive request), so membership is a
/// [`LineSet`] plus an insertion log: `contains` is one bit test, `insert`
/// sets a bit and appends, and `clear` — called at every commit and abort
/// — resets only the bits actually set. The set keeps its grown span
/// across `clear`, so steady state never reallocates.
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
    member: LineSet,
    /// The set's lines in insertion order, for targeted clearing and
    /// iteration.
    log: Vec<LineAddr>,
}

impl ReadSignature {
    /// Creates an empty signature.
    pub fn new() -> ReadSignature {
        ReadSignature::default()
    }

    /// Records a transactional read of `line`.
    #[inline]
    pub fn insert(&mut self, line: LineAddr) {
        if self.member.insert(line) {
            self.log.push(line);
        }
    }

    /// Tests membership (conflict check on an incoming exclusive request).
    #[inline]
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.member.contains(line)
    }

    /// Empties the signature (commit or abort).
    pub fn clear(&mut self) {
        for line in self.log.drain(..) {
            self.member.remove(line);
        }
    }

    /// Number of distinct lines read.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// `true` when no reads are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Iterates the recorded lines in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.log.iter().copied()
    }
}

// Canonical form: the near lines in insertion order (order is state —
// `clear` drains it), then the far lines in ascending order. The bits are
// derived, so they are rebuilt on load rather than serialized; their
// grown-but-clear span never influences behaviour or future encodings.
impl Snap for ReadSignature {
    fn save(&self, w: &mut SnapWriter) {
        let (mut far, near): (Vec<LineAddr>, Vec<LineAddr>) =
            self.log.iter().partition(|&&l| is_far(l));
        far.sort_unstable();
        near.save(w);
        far.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut sig = ReadSignature::new();
        for far in [false, true] {
            load_lines(r, far, far, |r, line| {
                if !sig.member.insert(line) {
                    return Err(r.err(format!("line {line} repeated")));
                }
                sig.log.push(line);
                Ok(())
            })?;
        }
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
    fn clear_then_reinsert_works() {
        let mut s = ReadSignature::new();
        s.insert(LineAddr(100));
        s.clear();
        s.insert(LineAddr(100));
        assert_eq!(s.len(), 1);
        assert!(s.contains(LineAddr(100)));
    }
}
