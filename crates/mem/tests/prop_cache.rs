//! Property tests for the L1 model: against a simple reference map, and
//! against [`ReferenceCache`], the full-scan commit and abort the
//! speculative-line log replaced.

use chats_mem::{Addr, Cache, CoherenceState, EvictOutcome, Line, LineAddr};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64), // line, value splat
    Invalidate(u64),
    Lookup(u64),
    MarkSm(u64),
    DropSpeculative,
    Commit,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u64..64, any::<u64>()).prop_map(|(l, v)| Op::Insert(l, v)),
        2 => (0u64..64).prop_map(Op::Invalidate),
        4 => (0u64..64).prop_map(Op::Lookup),
        2 => (0u64..64).prop_map(Op::MarkSm),
        1 => Just(Op::DropSpeculative),
        1 => Just(Op::Commit),
    ]
}

/// One line of [`ReferenceCache`].
#[derive(Clone)]
struct RefEntry {
    addr: LineAddr,
    state: CoherenceState,
    data: Line,
    sm: bool,
    spec_received: bool,
    lru: u64,
}

/// The L1 before the speculative-line log: the same placement and LRU
/// replacement, with commit and abort walking every way of every set
/// (`iter_mut` and `retain`). The executable specification of what the
/// log-driven commit and abort must leave behind.
struct ReferenceCache {
    ways: usize,
    entries: Vec<Vec<RefEntry>>,
    lru_clock: u64,
}

impl ReferenceCache {
    fn new(sets: usize, ways: usize) -> Self {
        ReferenceCache {
            ways,
            entries: vec![Vec::new(); sets],
            lru_clock: 0,
        }
    }

    fn set(&mut self, addr: LineAddr) -> &mut Vec<RefEntry> {
        let sets = self.entries.len();
        &mut self.entries[addr.set_index(sets)]
    }

    fn lookup_mut(&mut self, addr: LineAddr) -> Option<&mut RefEntry> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let e = self
            .set(addr)
            .iter_mut()
            .find(|e| e.addr == addr && e.state.is_readable())?;
        e.lru = clock;
        Some(e)
    }

    /// Returns the evicted line, if any.
    fn insert(&mut self, addr: LineAddr, state: CoherenceState, data: Line) -> Option<RefEntry> {
        self.lru_clock += 1;
        let lru = self.lru_clock;
        let ways = self.ways;
        let lines = self.set(addr);
        if let Some(e) = lines.iter_mut().find(|e| e.addr == addr) {
            e.state = state;
            e.data = data;
            e.lru = lru;
            return None;
        }
        let fresh = RefEntry {
            addr,
            state,
            data,
            sm: false,
            spec_received: false,
            lru,
        };
        if lines.len() < ways {
            lines.push(fresh);
            return None;
        }
        let victim = lines
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.sm && !e.spec_received)
            .min_by_key(|(_, e)| e.lru)
            .or_else(|| lines.iter().enumerate().min_by_key(|(_, e)| e.lru))
            .map(|(i, _)| i)
            .expect("full set has at least one way");
        Some(std::mem::replace(&mut lines[victim], fresh))
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<RefEntry> {
        let lines = self.set(addr);
        let i = lines.iter().position(|e| e.addr == addr)?;
        Some(lines.swap_remove(i))
    }

    fn commit_speculative(&mut self) {
        for set in &mut self.entries {
            for e in set.iter_mut() {
                if e.sm || e.spec_received {
                    e.sm = false;
                    e.spec_received = false;
                    e.state = CoherenceState::Modified;
                }
            }
        }
    }

    fn drop_speculative(&mut self) {
        for set in &mut self.entries {
            set.retain(|e| !e.sm && !e.spec_received);
        }
    }

    fn written_lines(&self) -> BTreeSet<LineAddr> {
        self.entries
            .iter()
            .flatten()
            .filter(|e| e.sm && !e.spec_received)
            .map(|e| e.addr)
            .collect()
    }

    /// Every resident line in (set, way) order, as the cache reports it.
    fn lines(&self) -> Vec<(LineAddr, CoherenceState, Line, bool, bool)> {
        self.entries
            .iter()
            .flatten()
            .map(|e| (e.addr, e.state, e.data, e.sm, e.spec_received))
            .collect()
    }
}

fn cache_lines(c: &Cache) -> Vec<(LineAddr, CoherenceState, Line, bool, bool)> {
    c.iter()
        .map(|e| (e.addr, e.state, e.data, e.sm(), e.spec_received()))
        .collect()
}

#[derive(Debug, Clone)]
enum ModelOp {
    Insert(u64, CoherenceState, u64),
    MarkWritten(u64),
    MarkSpecReceived(u64),
    Validate(u64),
    Invalidate(u64),
    Commit,
    Drop,
}

fn model_op_strategy() -> impl Strategy<Value = ModelOp> {
    let state = prop_oneof![
        Just(CoherenceState::Shared),
        Just(CoherenceState::Exclusive),
        Just(CoherenceState::Modified),
    ];
    // 24 lines over 4 sets of 3 ways: six candidates per set, so inserts
    // evict often, speculative victims included.
    prop_oneof![
        6 => (0u64..24, state, any::<u64>()).prop_map(|(l, s, v)| ModelOp::Insert(l, s, v)),
        4 => (0u64..24).prop_map(ModelOp::MarkWritten),
        2 => (0u64..24).prop_map(ModelOp::MarkSpecReceived),
        2 => (0u64..24).prop_map(ModelOp::Validate),
        2 => (0u64..24).prop_map(ModelOp::Invalidate),
        1 => Just(ModelOp::Commit),
        1 => Just(ModelOp::Drop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cache agrees with a reference map on every lookup: a resident
    /// line always has the last value written for it; a reported eviction
    /// always removes exactly that victim.
    #[test]
    fn cache_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut cache = Cache::new(4, 2);
        // Reference: line -> (value, sm)
        let mut reference: HashMap<u64, (u64, bool)> = HashMap::new();

        for op in ops {
            match op {
                Op::Insert(l, v) => {
                    match cache.insert(LineAddr(l), CoherenceState::Exclusive, Line::splat(v)) {
                        EvictOutcome::Evicted(victim) => {
                            let gone = reference.remove(&victim.addr.index());
                            prop_assert!(gone.is_some(), "evicted a non-resident line");
                        }
                        EvictOutcome::None => {}
                    }
                    reference.insert(l, (v, reference.get(&l).map(|e| e.1).unwrap_or(false)));
                }
                Op::Invalidate(l) => {
                    let got = cache.invalidate(LineAddr(l)).is_some();
                    let expect = reference.remove(&l).is_some();
                    prop_assert_eq!(got, expect);
                }
                Op::Lookup(l) => {
                    match (cache.lookup(LineAddr(l)), reference.get(&l)) {
                        (Some(e), Some((v, _))) => {
                            prop_assert_eq!(e.data.read(Addr(0)), *v);
                        }
                        (None, None) => {}
                        (got, want) => {
                            prop_assert!(false, "residency mismatch on {l}: cache={:?} ref={:?}",
                                got.map(|e| e.addr), want);
                        }
                    }
                }
                Op::MarkSm(l) => {
                    if let Some(mut e) = cache.lookup_mut(LineAddr(l)) {
                        e.mark_written();
                    }
                    if let Some(r) = reference.get_mut(&l) {
                        r.1 = true;
                    }
                }
                Op::DropSpeculative => {
                    cache.drop_speculative();
                    // Exactly the speculative lines leave; the rest stay.
                    reference.retain(|_, (_, sm)| !*sm);
                    for l in 0u64..64 {
                        prop_assert_eq!(
                            cache.lookup(LineAddr(l)).is_some(),
                            reference.contains_key(&l),
                            "residency of line {} after the abort", l
                        );
                    }
                }
                Op::Commit => {
                    cache.commit_speculative();
                    for r in reference.values_mut() {
                        r.1 = false;
                    }
                }
            }
            // Geometry invariant: never more than ways lines per set.
            prop_assert!(cache.len() <= cache.sets() * cache.ways());
            prop_assert_eq!(cache.len(), reference.len());
        }
    }

    /// Speculative lines are never silently lost: as long as every insert
    /// into a set with speculative lines leaves at least one non-SM way,
    /// the SM lines survive all traffic.
    #[test]
    fn write_set_lines_are_sticky(
        sm_line in 0u64..4,
        clean_lines in proptest::collection::vec(0u64..32, 1..40),
    ) {
        let mut cache = Cache::new(4, 2);
        cache.insert(LineAddr(sm_line), CoherenceState::Modified, Line::splat(1));
        cache.lookup_mut(LineAddr(sm_line)).unwrap().mark_written();
        for l in clean_lines {
            // Never collide exactly with the SM line.
            let l = if l == sm_line { l + 32 } else { l };
            cache.insert(LineAddr(l), CoherenceState::Shared, Line::zeroed());
            prop_assert!(
                cache.lookup(LineAddr(sm_line)).is_some(),
                "SM line displaced by a clean fill"
            );
        }
    }

    /// The logged commit and abort leave exactly what the full scans
    /// leave: identical lines, bits and data in identical per-set way
    /// order, identical victims, and the same written-line set for the
    /// Rrestrict/W predictor at every abort.
    #[test]
    fn log_matches_full_scan(ops in proptest::collection::vec(model_op_strategy(), 1..400)) {
        let mut cache = Cache::new(4, 3);
        let mut reference = ReferenceCache::new(4, 3);
        for op in ops {
            match op {
                ModelOp::Insert(l, state, v) => {
                    let got = match cache.insert(LineAddr(l), state, Line::splat(v)) {
                        EvictOutcome::Evicted(victim) => Some(victim.addr),
                        EvictOutcome::None => None,
                    };
                    let want = reference.insert(LineAddr(l), state, Line::splat(v)).map(|e| e.addr);
                    prop_assert_eq!(got, want);
                }
                ModelOp::MarkWritten(l) => {
                    if let Some(mut e) = cache.lookup_mut(LineAddr(l)) {
                        e.mark_written();
                    }
                    if let Some(e) = reference.lookup_mut(LineAddr(l)) {
                        e.sm = true;
                    }
                }
                ModelOp::MarkSpecReceived(l) => {
                    if let Some(mut e) = cache.lookup_mut(LineAddr(l)) {
                        e.mark_spec_received();
                    }
                    if let Some(e) = reference.lookup_mut(LineAddr(l)) {
                        e.sm = true;
                        e.spec_received = true;
                    }
                }
                ModelOp::Validate(l) => {
                    if let Some(mut e) = cache.lookup_mut(LineAddr(l)) {
                        e.clear_spec_received();
                    }
                    if let Some(e) = reference.lookup_mut(LineAddr(l)) {
                        e.spec_received = false;
                    }
                }
                ModelOp::Invalidate(l) => {
                    let got = cache.invalidate(LineAddr(l)).map(|e| e.addr);
                    let want = reference.invalidate(LineAddr(l)).map(|e| e.addr);
                    prop_assert_eq!(got, want);
                }
                ModelOp::Commit => {
                    cache.commit_speculative();
                    reference.commit_speculative();
                }
                ModelOp::Drop => {
                    let written: BTreeSet<LineAddr> = cache.written_lines().collect();
                    prop_assert_eq!(written, reference.written_lines());
                    cache.drop_speculative();
                    reference.drop_speculative();
                }
            }
            prop_assert_eq!(cache_lines(&cache), reference.lines());
        }
    }
}
