//! Set-associative L1 data cache with HTM support bits.
//!
//! The L1 is the speculative-versioning store of the best-effort HTM (the
//! paper's RTM-like baseline): each line carries
//!
//! * a MESI [`CoherenceState`],
//! * an **SM** (speculatively modified) bit marking write-set lines, and
//! * a **spec-received** bit marking lines obtained through a `SpecResp`
//!   and still pending validation (they also count as write-set lines,
//!   §III-A).
//!
//! Replacement is LRU but *favours* keeping write-set blocks, as the paper
//! notes real RTM replacement does; evicting an SM or spec-received line is
//! reported to the caller, which turns it into a capacity abort.
//!
//! The two HTM bits change only through [`EntryMut`], which logs every line
//! that joins the write set. Commit and abort then visit the logged lines
//! instead of the whole array, so a transaction end costs O(write set), as
//! the hardware's one-step gang clear / gang invalidate does.

use crate::addr::LineAddr;
use crate::line::Line;
use std::fmt;
use std::ops::Deref;

/// MESI stable states as seen by the private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceState {
    /// Not present / no permissions.
    Invalid,
    /// Read permission, possibly other sharers.
    Shared,
    /// Read/write permission, clean, no other copies.
    Exclusive,
    /// Read/write permission, dirty.
    Modified,
}

impl CoherenceState {
    /// `true` when the state grants store permission.
    #[must_use]
    pub fn is_writable(self) -> bool {
        matches!(self, CoherenceState::Exclusive | CoherenceState::Modified)
    }

    /// `true` when the state grants load permission.
    #[must_use]
    pub fn is_readable(self) -> bool {
        !matches!(self, CoherenceState::Invalid)
    }
}

/// One resident cache line.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Which line this is.
    pub addr: LineAddr,
    /// MESI state.
    pub state: CoherenceState,
    /// Current (possibly speculative) data.
    pub data: Line,
    sm: bool,
    spec_received: bool,
    lru: u64,
}

impl CacheEntry {
    /// Speculatively modified inside the running transaction (write set).
    #[must_use]
    pub fn sm(&self) -> bool {
        self.sm
    }

    /// Received via `SpecResp` and not yet validated.
    #[must_use]
    pub fn spec_received(&self) -> bool {
        self.spec_received
    }

    /// Part of the transaction's speculative state: SM or spec-received.
    #[must_use]
    pub fn is_speculative(&self) -> bool {
        self.sm || self.spec_received
    }
}

/// A resident line borrowed through [`Cache::lookup_mut`].
///
/// Reads go through `Deref` to the [`CacheEntry`]; writes go through the
/// methods below, so the SM and spec-received bits can only be set where
/// the cache's speculative-line log sees them.
pub struct EntryMut<'a> {
    entry: &'a mut CacheEntry,
    spec_log: &'a mut Vec<LineAddr>,
}

impl Deref for EntryMut<'_> {
    type Target = CacheEntry;
    fn deref(&self) -> &CacheEntry {
        self.entry
    }
}

impl EntryMut<'_> {
    /// Sets the MESI state.
    pub fn set_state(&mut self, state: CoherenceState) {
        self.entry.state = state;
    }

    /// The line's data, for stores.
    pub fn data_mut(&mut self) -> &mut Line {
        &mut self.entry.data
    }

    /// Sets the SM bit: the line joins the write set.
    pub fn mark_written(&mut self) {
        self.log();
        self.entry.sm = true;
    }

    /// Marks a line received through a `SpecResp`: it joins the write set
    /// (SM) and is pending validation (spec-received).
    pub fn mark_spec_received(&mut self) {
        self.log();
        self.entry.sm = true;
        self.entry.spec_received = true;
    }

    /// Clears the spec-received bit (successful validation). The SM bit
    /// stays, so the line remains in the write set and in the log.
    pub fn clear_spec_received(&mut self) {
        self.entry.spec_received = false;
    }

    /// Logs the line the first time one of its bits is set.
    fn log(&mut self) {
        if !self.entry.is_speculative() {
            self.spec_log.push(self.entry.addr);
        }
    }
}

/// What [`Cache::insert`] displaced, if anything.
#[derive(Debug, Clone)]
pub enum EvictOutcome {
    /// A way was free; nothing was displaced.
    None,
    /// `victim` was evicted to make room. The caller must inspect its `sm`
    /// and `spec_received` bits: displacing transactional state aborts the
    /// transaction, and `Modified` non-transactional data must be written
    /// back.
    Evicted(CacheEntry),
}

/// A set-associative write-back cache.
///
/// # Example
///
/// ```
/// use chats_mem::{Cache, CoherenceState, Line, LineAddr};
/// let mut c = Cache::new(4, 2);
/// c.insert(LineAddr(1), CoherenceState::Shared, Line::zeroed());
/// assert!(c.lookup(LineAddr(1)).is_some());
/// assert!(c.lookup(LineAddr(2)).is_none());
/// ```
pub struct Cache {
    sets: usize,
    ways: usize,
    entries: Vec<Vec<CacheEntry>>,
    lru_clock: u64,
    /// Every line whose SM or spec-received bit was set since the last
    /// commit or abort. A superset of the speculative lines: entries of
    /// evicted, invalidated or re-logged lines are re-checked against the
    /// bits and skipped. Derived state, rebuilt by `load`.
    spec_log: Vec<LineAddr>,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field(
                "resident",
                &self.entries.iter().map(Vec::len).sum::<usize>(),
            )
            .finish()
    }
}

impl Cache {
    /// Creates an empty cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Cache {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Cache {
            sets,
            ways,
            entries: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            lru_clock: 0,
            spec_log: Vec::new(),
        }
    }

    fn set_of(&self, addr: LineAddr) -> usize {
        addr.set_index(self.sets)
    }

    /// Immutable lookup; does not touch LRU order.
    pub fn lookup(&self, addr: LineAddr) -> Option<&CacheEntry> {
        self.entries[self.set_of(addr)]
            .iter()
            .find(|e| e.addr == addr && e.state.is_readable())
    }

    /// Mutable lookup; refreshes LRU order.
    pub fn lookup_mut(&mut self, addr: LineAddr) -> Option<EntryMut<'_>> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let set = self.set_of(addr);
        let entry = self.entries[set]
            .iter_mut()
            .find(|e| e.addr == addr && e.state.is_readable())?;
        entry.lru = clock;
        Some(EntryMut {
            entry,
            spec_log: &mut self.spec_log,
        })
    }

    /// Inserts (or overwrites) a line, choosing a victim if the set is full.
    ///
    /// Victim selection prefers, in order: an invalid way, the LRU line that
    /// is *not* part of the write set, then the LRU line overall. The caller
    /// decides what an eviction means (writeback, capacity abort, ...).
    pub fn insert(&mut self, addr: LineAddr, state: CoherenceState, data: Line) -> EvictOutcome {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let set = self.set_of(addr);
        let ways = self.ways;
        let lines = &mut self.entries[set];

        if let Some(e) = lines.iter_mut().find(|e| e.addr == addr) {
            e.state = state;
            e.data = data;
            e.lru = clock;
            return EvictOutcome::None;
        }

        let fresh = CacheEntry {
            addr,
            state,
            data,
            sm: false,
            spec_received: false,
            lru: clock,
        };

        if lines.len() < ways {
            lines.push(fresh);
            return EvictOutcome::None;
        }

        // Full set: evict. Prefer non-write-set LRU victims.
        let victim_idx = lines
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.sm && !e.spec_received)
            .min_by_key(|(_, e)| e.lru)
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("full set has at least one way")
            });
        let victim = std::mem::replace(&mut lines[victim_idx], fresh);
        EvictOutcome::Evicted(victim)
    }

    /// Drops a line entirely (external invalidation). Returns the removed
    /// entry so the caller can inspect its transactional bits and data.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CacheEntry> {
        let set = self.set_of(addr);
        let lines = &mut self.entries[set];
        let idx = lines.iter().position(|e| e.addr == addr)?;
        Some(lines.swap_remove(idx))
    }

    /// Gang invalidation of all speculative lines (write set and
    /// spec-received), as on transaction abort. Visits only logged lines;
    /// the order-preserving `Vec::remove` keeps each set's surviving way
    /// order, which checkpoints and commitments record.
    pub fn drop_speculative(&mut self) {
        let sets = self.sets;
        for addr in self.spec_log.drain(..) {
            let lines = &mut self.entries[addr.set_index(sets)];
            if let Some(i) = lines.iter().position(|e| e.addr == addr) {
                if lines[i].is_speculative() {
                    lines.remove(i);
                }
            }
        }
    }

    /// Clears the SM and spec-received bits of every line (transaction
    /// commit): speculative data becomes the committed, `Modified` version.
    /// Visits only logged lines.
    pub fn commit_speculative(&mut self) {
        let sets = self.sets;
        for addr in self.spec_log.drain(..) {
            let lines = &mut self.entries[addr.set_index(sets)];
            if let Some(e) = lines.iter_mut().find(|e| e.addr == addr) {
                if e.is_speculative() {
                    e.sm = false;
                    e.spec_received = false;
                    e.state = CoherenceState::Modified;
                }
            }
        }
    }

    /// Lines the running transaction wrote itself (SM and not
    /// spec-received), found through the log; a line may repeat.
    pub fn written_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.spec_log.iter().copied().filter(|&addr| {
            self.entries[self.set_of(addr)]
                .iter()
                .any(|e| e.addr == addr && e.sm && !e.spec_received)
        })
    }

    /// Iterates over all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.iter().flatten()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

impl chats_snap::Snap for CoherenceState {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u8(match self {
            CoherenceState::Invalid => 0,
            CoherenceState::Shared => 1,
            CoherenceState::Exclusive => 2,
            CoherenceState::Modified => 3,
        });
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(match r.u8()? {
            0 => CoherenceState::Invalid,
            1 => CoherenceState::Shared,
            2 => CoherenceState::Exclusive,
            3 => CoherenceState::Modified,
            t => return Err(r.err(format!("bad CoherenceState tag {t}"))),
        })
    }
}

impl chats_snap::Snap for CacheEntry {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        self.addr.save(w);
        self.state.save(w);
        self.data.save(w);
        self.sm.save(w);
        self.spec_received.save(w);
        w.u64(self.lru);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(CacheEntry {
            addr: chats_snap::Snap::load(r)?,
            state: chats_snap::Snap::load(r)?,
            data: chats_snap::Snap::load(r)?,
            sm: chats_snap::Snap::load(r)?,
            spec_received: chats_snap::Snap::load(r)?,
            lru: r.u64()?,
        })
    }
}

// Entries are saved in stored (set, way) order, not sorted: way order
// inside a set is deterministic machine state (`iter` walks it, and
// victims tie-break on it), so it must survive a round-trip exactly. The
// `lru` stamps and `lru_clock` travel verbatim for the same reason. The
// speculative-line log is derived from the bits and rebuilt on load; it
// relies on one entry per line, in the line's own set.
impl chats_snap::Snap for Cache {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.sets as u64);
        w.u64(self.ways as u64);
        self.entries.save(w);
        w.u64(self.lru_clock);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        let sets = usize::load(r)?;
        let ways = usize::load(r)?;
        if sets == 0 || ways == 0 {
            return Err(r.err("cache geometry must be non-zero"));
        }
        let entries: Vec<Vec<CacheEntry>> = chats_snap::Snap::load(r)?;
        if entries.len() != sets || entries.iter().any(|s| s.len() > ways) {
            return Err(r.err("cache entries do not fit the recorded geometry"));
        }
        let mut spec_log = Vec::new();
        for (set, lines) in entries.iter().enumerate() {
            for (i, e) in lines.iter().enumerate() {
                if e.addr.set_index(sets) != set {
                    return Err(r.err(format!("line {} stored in set {set}", e.addr)));
                }
                if lines[..i].iter().any(|o| o.addr == e.addr) {
                    return Err(r.err(format!("line {} held twice in set {set}", e.addr)));
                }
                if e.is_speculative() {
                    spec_log.push(e.addr);
                }
            }
        }
        Ok(Cache {
            sets,
            ways,
            entries,
            lru_clock: r.u64()?,
            spec_log,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;

    fn cache() -> Cache {
        Cache::new(2, 2)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Shared, Line::splat(9));
        let e = c.lookup(LineAddr(0)).unwrap();
        assert_eq!(e.state, CoherenceState::Shared);
        assert_eq!(e.data, Line::splat(9));
    }

    #[test]
    fn miss_is_none() {
        assert!(cache().lookup(LineAddr(3)).is_none());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Shared, Line::splat(1));
        let out = c.insert(LineAddr(0), CoherenceState::Modified, Line::splat(2));
        assert!(matches!(out, EvictOutcome::None));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(LineAddr(0)).unwrap().data, Line::splat(2));
    }

    #[test]
    fn eviction_picks_lru() {
        let mut c = cache();
        // Lines 0, 2, 4 all map to set 0 of a 2-set cache.
        c.insert(LineAddr(0), CoherenceState::Shared, Line::zeroed());
        c.insert(LineAddr(2), CoherenceState::Shared, Line::zeroed());
        c.lookup_mut(LineAddr(0)); // refresh 0, making 2 the LRU
        let out = c.insert(LineAddr(4), CoherenceState::Shared, Line::zeroed());
        match out {
            EvictOutcome::Evicted(v) => assert_eq!(v.addr, LineAddr(2)),
            EvictOutcome::None => panic!("expected an eviction"),
        }
        assert!(c.lookup(LineAddr(0)).is_some());
        assert!(c.lookup(LineAddr(4)).is_some());
    }

    #[test]
    fn replacement_favours_write_set() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Modified, Line::zeroed());
        c.lookup_mut(LineAddr(0)).unwrap().mark_written(); // oldest, but in write set
        c.insert(LineAddr(2), CoherenceState::Shared, Line::zeroed());
        let out = c.insert(LineAddr(4), CoherenceState::Shared, Line::zeroed());
        match out {
            EvictOutcome::Evicted(v) => assert_eq!(v.addr, LineAddr(2), "SM line must survive"),
            EvictOutcome::None => panic!("expected an eviction"),
        }
        assert!(c.lookup(LineAddr(0)).is_some());
    }

    #[test]
    fn full_sm_set_still_evicts_something() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Modified, Line::zeroed());
        c.lookup_mut(LineAddr(0)).unwrap().mark_written();
        c.insert(LineAddr(2), CoherenceState::Modified, Line::zeroed());
        c.lookup_mut(LineAddr(2)).unwrap().mark_written();
        let out = c.insert(LineAddr(4), CoherenceState::Shared, Line::zeroed());
        match out {
            EvictOutcome::Evicted(v) => assert!(v.sm, "victim had to be a write-set line"),
            EvictOutcome::None => panic!("expected an eviction"),
        }
    }

    #[test]
    fn gang_invalidation_drops_only_speculative() {
        let mut c = Cache::new(4, 2);
        c.insert(LineAddr(0), CoherenceState::Modified, Line::zeroed());
        c.lookup_mut(LineAddr(0)).unwrap().mark_written();
        c.insert(LineAddr(1), CoherenceState::Shared, Line::zeroed());
        c.insert(LineAddr(2), CoherenceState::Exclusive, Line::zeroed());
        c.lookup_mut(LineAddr(2)).unwrap().mark_spec_received();
        c.drop_speculative();
        assert!(c.lookup(LineAddr(0)).is_none());
        assert!(c.lookup(LineAddr(2)).is_none());
        assert!(c.lookup(LineAddr(1)).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn commit_clears_bits_and_marks_modified() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Exclusive, Line::splat(3));
        c.lookup_mut(LineAddr(0)).unwrap().mark_spec_received();
        assert!(
            c.written_lines().next().is_none(),
            "spec-received is not a local write"
        );
        c.commit_speculative();
        let e = c.lookup(LineAddr(0)).unwrap();
        assert!(!e.sm() && !e.spec_received());
        assert_eq!(e.state, CoherenceState::Modified);
        assert_eq!(e.data, Line::splat(3), "commit must not change data");
    }

    fn snapshot(c: &Cache) -> Vec<u8> {
        let mut w = chats_snap::SnapWriter::new();
        chats_snap::Snap::save(c, &mut w);
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> Result<Cache, chats_snap::SnapError> {
        let mut r = chats_snap::SnapReader::new(bytes);
        <Cache as chats_snap::Snap>::load(&mut r)
    }

    #[test]
    fn load_rebuilds_the_log() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Exclusive, Line::zeroed());
        c.insert(LineAddr(1), CoherenceState::Exclusive, Line::zeroed());
        c.lookup_mut(LineAddr(1)).unwrap().mark_written();
        let mut back = restore(&snapshot(&c)).unwrap();
        assert_eq!(back.written_lines().collect::<Vec<_>>(), [LineAddr(1)]);
        back.drop_speculative();
        assert!(back.lookup(LineAddr(1)).is_none());
        assert!(back.lookup(LineAddr(0)).is_some());
    }

    /// Hostile bytes: the log needs one entry per line, in the line's own
    /// set, so `load` rejects a duplicate and a line in the wrong set.
    #[test]
    fn load_rejects_duplicate_and_misplaced_lines() {
        // Two sets of two ways; lines 0 and 2 map to set 0, line 1 to set 1.
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Shared, Line::zeroed());
        c.insert(LineAddr(2), CoherenceState::Shared, Line::zeroed());
        let good = snapshot(&c);
        assert!(restore(&good).is_ok());

        // The sets and ways words, then 8-byte lengths of the set list and
        // of set 0, then entries of addr (8) + state (1) + data (64) + sm
        // (1) + spec (1) + lru (8).
        let entry_len = 8 + 1 + 64 + 1 + 1 + 8;
        let first_addr = 8 + 8 + 8 + 8;
        let second_addr = first_addr + entry_len;
        assert_eq!(good[first_addr..first_addr + 8], 0u64.to_le_bytes());
        assert_eq!(good[second_addr..second_addr + 8], 2u64.to_le_bytes());

        let mut dup = good.clone();
        dup[second_addr..second_addr + 8].copy_from_slice(&0u64.to_le_bytes());
        let err = restore(&dup).unwrap_err();
        assert!(err.to_string().contains("held twice"), "{err}");

        let mut misplaced = good.clone();
        misplaced[second_addr..second_addr + 8].copy_from_slice(&1u64.to_le_bytes());
        let err = restore(&misplaced).unwrap_err();
        assert!(err.to_string().contains("stored in set 0"), "{err}");
    }

    #[test]
    fn invalidate_returns_entry() {
        let mut c = cache();
        c.insert(LineAddr(0), CoherenceState::Modified, Line::splat(4));
        let gone = c.invalidate(LineAddr(0)).unwrap();
        assert_eq!(gone.data, Line::splat(4));
        assert!(c.lookup(LineAddr(0)).is_none());
        assert!(c.invalidate(LineAddr(0)).is_none());
    }

    #[test]
    fn state_predicates() {
        assert!(CoherenceState::Modified.is_writable());
        assert!(CoherenceState::Exclusive.is_writable());
        assert!(!CoherenceState::Shared.is_writable());
        assert!(!CoherenceState::Invalid.is_readable());
        assert!(CoherenceState::Shared.is_readable());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        Cache::new(0, 1);
    }
}
