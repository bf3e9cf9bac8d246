//! The atomicity oracle.
//!
//! The paper's correctness argument (§III-C) is that every access of a
//! committed transaction behaves *as if performed atomically at commit
//! time* — speculative forwarding is "only value speculation" and the
//! validation machinery guarantees the speculated value equals the value
//! the location holds when the transaction serializes.
//!
//! This instrument checks exactly that, live: while a transaction runs,
//! the oracle records every transactionally loaded word (first observation
//! wins) and every stored word; at commit it compares each *read-only*
//! observation against the globally committed value at that instant. Any
//! mismatch is a serializability violation that value validation failed to
//! catch — a protocol bug, reported immediately.
//!
//! The oracle is enabled via [`crate::Tuning::oracle`] and is used
//! throughout the test suite; it costs a hash-map per core when on and
//! nothing when off.

use chats_core::fasthash::FastHashMap;
use chats_mem::Addr;

/// Per-core observation log for the current transaction attempt.
#[derive(Debug, Default)]
pub(crate) struct Oracle {
    enabled: bool,
    /// word address -> first transactionally loaded value
    reads: FastHashMap<u64, u64>,
    /// word addresses the transaction itself wrote (exempt from the
    /// read check — the transaction is the committer of those values)
    writes: FastHashMap<u64, u64>,
}

impl Oracle {
    pub(crate) fn enable(&mut self) {
        self.enabled = true;
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a transactional load of `addr` observing `value`.
    pub(crate) fn note_read(&mut self, addr: Addr, value: u64) {
        if self.enabled {
            self.reads.entry(addr.0).or_insert(value);
        }
    }

    /// Records a transactional store of `value` to `addr`.
    pub(crate) fn note_write(&mut self, addr: Addr, value: u64) {
        if self.enabled {
            self.writes.insert(addr.0, value);
        }
    }

    /// `true` if the transaction itself wrote `addr` (such reads observe
    /// the transaction's own tentative value, exempt from consistency
    /// checks).
    pub(crate) fn wrote(&self, addr: u64) -> bool {
        self.writes.contains_key(&addr)
    }

    /// Clears the log (abort or commit).
    pub(crate) fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }

    /// At commit: every read-only observation must match the committed
    /// value `lookup` reports *now*. Returns the first violation as
    /// (address, observed, committed).
    pub(crate) fn check_commit(
        &self,
        mut lookup: impl FnMut(Addr) -> u64,
    ) -> Result<(), (u64, u64, u64)> {
        if !self.enabled {
            return Ok(());
        }
        for (&a, &observed) in &self.reads {
            if self.writes.contains_key(&a) {
                continue; // our own write defines this word's value
            }
            let committed = lookup(Addr(a));
            if committed != observed {
                return Err((a, observed, committed));
            }
        }
        Ok(())
    }

    /// The transaction's writes, for diagnostics and tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn writes(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.writes.iter().map(|(a, v)| (*a, *v))
    }

    /// Serializes the observation log (maps spill in sorted-key order).
    pub(crate) fn save_state(&self, w: &mut chats_snap::SnapWriter) {
        use chats_snap::Snap;
        self.enabled.save(w);
        self.reads.save(w);
        self.writes.save(w);
    }

    /// Restores state captured by [`Oracle::save_state`].
    pub(crate) fn restore_state(
        &mut self,
        r: &mut chats_snap::SnapReader<'_>,
    ) -> Result<(), chats_snap::SnapError> {
        use chats_snap::Snap;
        self.enabled = Snap::load(r)?;
        self.reads = Snap::load(r)?;
        self.writes = Snap::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_oracle_accepts_everything() {
        let o = Oracle::default();
        assert!(o.check_commit(|_| 999).is_ok());
    }

    #[test]
    fn matching_reads_pass() {
        let mut o = Oracle::default();
        o.enable();
        o.note_read(Addr(8), 5);
        assert!(o.check_commit(|a| if a.0 == 8 { 5 } else { 0 }).is_ok());
    }

    #[test]
    fn stale_read_is_reported() {
        let mut o = Oracle::default();
        o.enable();
        o.note_read(Addr(8), 5);
        assert_eq!(o.check_commit(|_| 6), Err((8, 5, 6)));
    }

    #[test]
    fn own_writes_are_exempt() {
        let mut o = Oracle::default();
        o.enable();
        o.note_read(Addr(8), 5);
        o.note_write(Addr(8), 7);
        // Committed value is our own 7, not the 5 we first read.
        assert!(o.check_commit(|_| 7).is_ok());
    }

    #[test]
    fn first_observation_wins() {
        let mut o = Oracle::default();
        o.enable();
        o.note_read(Addr(8), 5);
        o.note_read(Addr(8), 6); // later re-read inside the tx is ignored
        assert!(o.check_commit(|_| 5).is_ok());
    }

    #[test]
    fn reset_clears_log() {
        let mut o = Oracle::default();
        o.enable();
        o.note_read(Addr(8), 5);
        o.note_write(Addr(16), 2);
        o.reset();
        assert!(o.check_commit(|_| 0).is_ok());
        assert_eq!(o.writes().count(), 0);
    }
}
