//! Simulation time and the deterministic event queue.
//!
//! The queue here is the single hottest data structure in the simulator:
//! every message hop, core step and retry timer goes through one
//! push/pop pair. It is implemented as a *timing wheel* (a bucketed
//! calendar queue): a ring of [`WHEEL_SLOTS`] FIFO buckets covering a
//! sliding window of near-future cycles, with a `BTreeMap` spillover for
//! events beyond the window. Almost every event in this machine is
//! scheduled a handful of cycles ahead (cache hops, NoC latencies,
//! retry backoffs), so the common push and pop are O(1) with no
//! comparisons, no per-entry sequence numbers, and no heap rebalancing.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in core clock cycles.
///
/// `Cycle` is a transparent wrapper over `u64` used everywhere a timestamp or
/// duration is exchanged, so that cycle counts cannot be accidentally mixed
/// with other integers (entry counts, addresses, ...).
///
/// # Example
///
/// ```
/// use chats_sim::Cycle;
/// let start = Cycle(100);
/// assert_eq!(start + 30, Cycle(130));
/// assert_eq!((Cycle(130) - start), 30);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero; the instant simulation starts.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Cycles elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    #[must_use]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Debug for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl chats_snap::Snap for Cycle {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.0);
    }

    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(Cycle(r.u64()?))
    }
}

/// Slots in the wheel window. Power of two, so a timestamp maps to its
/// slot with a mask instead of a modulo. 1024 covers every latency in
/// the Table-I machine (the longest single hop plus backoff is far under
/// a thousand cycles), so spillover is rare.
const WHEEL_SLOTS: usize = 1024;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Empty spillover buckets kept for reuse instead of returning their
/// allocation; bounds the freelist so a burst cannot pin memory forever.
const SPARE_BUCKETS: usize = 32;

/// A discrete-event priority queue with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same [`Cycle`] are delivered in the order they
/// were pushed. This makes whole-machine simulations reproducible: with a
/// fixed seed, every run produces an identical event schedule.
///
/// Internally a timing wheel: a ring of FIFO buckets covering the cycles
/// `[wheel_base, wheel_base + WHEEL_SLOTS)`, plus a sorted spillover map
/// for timestamps outside that window. Same-time events always land in
/// the *same* bucket, so bucket order **is** FIFO order — no sequence
/// numbers needed — and the tie set at the head of the queue is simply
/// the front bucket, which makes [`EventQueue::tie_width`] O(1) and
/// [`EventQueue::pop_tied`] O(tie width) instead of the pop-all-and-push-
/// back scan a heap would force.
///
/// # Example
///
/// ```
/// use chats_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), 'b');
/// q.push(Cycle(1), 'a');
/// q.push(Cycle(3), 'c');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The wheel. `slots[t & WHEEL_MASK]` holds the events for cycle `t`
    /// for every `t` in the window; a slot's events all share one
    /// timestamp because the window is exactly one wheel circumference.
    slots: Vec<VecDeque<E>>,
    /// Events outside the window: pushed beyond `wheel_base +
    /// WHEEL_SLOTS`, or (rare) pushed into the past behind `cursor`.
    overflow: BTreeMap<u64, VecDeque<E>>,
    /// Recycled empty spillover buckets.
    spare: Vec<VecDeque<E>>,
    /// First cycle the wheel window covers.
    wheel_base: u64,
    /// Next cycle to examine; slots for cycles in `[wheel_base, cursor)`
    /// are drained. Always within the window.
    cursor: u64,
    /// Events currently stored in `slots`.
    wheel_len: usize,
    /// Total events (wheel + overflow).
    len: usize,
}

/// Where the head of the queue currently lives.
#[derive(Clone, Copy)]
enum Head {
    /// In the wheel slot for this cycle.
    Slot(u64),
    /// In the overflow bucket keyed by this cycle.
    Spill(u64),
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            overflow: BTreeMap::new(),
            spare: Vec::new(),
            wheel_base: 0,
            cursor: 0,
            wheel_len: 0,
            len: 0,
        }
    }

    /// One past the last cycle the wheel window covers.
    fn wheel_end(&self) -> u64 {
        self.wheel_base.saturating_add(WHEEL_SLOTS as u64)
    }

    /// Schedules `event` for delivery at `at`.
    pub fn push(&mut self, at: Cycle, event: E) {
        let t = at.0;
        self.len += 1;
        if t >= self.cursor && t < self.wheel_end() {
            self.slots[(t & WHEEL_MASK) as usize].push_back(event);
            self.wheel_len += 1;
        } else {
            self.overflow
                .entry(t)
                .or_insert_with(|| self.spare.pop().unwrap_or_default())
                .push_back(event);
        }
    }

    /// Locates the head of the queue without mutating anything.
    ///
    /// Invariant used throughout: overflow keys are either behind the
    /// cursor (late pushes into the past) or at/after the window end —
    /// never inside the un-drained part of the window — so a non-empty
    /// wheel always beats an at-or-after-window spill key.
    fn head(&self) -> Option<Head> {
        if self.len == 0 {
            return None;
        }
        if let Some((&k, _)) = self.overflow.iter().next() {
            if k < self.cursor || self.wheel_len == 0 {
                return Some(Head::Spill(k));
            }
        }
        debug_assert!(self.wheel_len > 0);
        let mut t = self.cursor;
        loop {
            debug_assert!(t < self.wheel_end(), "wheel scan escaped the window");
            if !self.slots[(t & WHEEL_MASK) as usize].is_empty() {
                return Some(Head::Slot(t));
            }
            t += 1;
        }
    }

    /// Rebases the empty wheel onto `base` and migrates every spill
    /// bucket that now falls inside the window into its slot.
    fn rebase(&mut self, base: u64) {
        debug_assert_eq!(self.wheel_len, 0);
        self.wheel_base = base;
        self.cursor = base;
        let rest = self.overflow.split_off(&self.wheel_end());
        let moved = std::mem::replace(&mut self.overflow, rest);
        for (t, mut bucket) in moved {
            self.wheel_len += bucket.len();
            std::mem::swap(&mut self.slots[(t & WHEEL_MASK) as usize], &mut bucket);
            // `bucket` is now the slot's previous (empty) deque.
            if self.spare.len() < SPARE_BUCKETS {
                self.spare.push(bucket);
            }
        }
    }

    /// Pops the front event of the overflow bucket at `k`, recycling the
    /// bucket when it empties.
    fn pop_spill(&mut self, k: u64) -> (Cycle, E) {
        let bucket = self.overflow.get_mut(&k).expect("head bucket exists");
        let e = bucket.pop_front().expect("head bucket non-empty");
        if bucket.is_empty() {
            let bucket = self.overflow.remove(&k).expect("bucket present");
            if self.spare.len() < SPARE_BUCKETS {
                self.spare.push(bucket);
            }
        }
        self.len -= 1;
        (Cycle(k), e)
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties are broken by insertion order.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        match self.head()? {
            Head::Spill(k) => {
                if k >= self.cursor && k != u64::MAX {
                    // The wheel is empty and all spill keys are at or
                    // beyond the window: jump the window forward so this
                    // bucket (and its near successors) pop from slots.
                    self.rebase(k);
                    self.pop_from_slot(k)
                } else {
                    Some(self.pop_spill(k))
                }
            }
            Head::Slot(t) => self.pop_from_slot(t),
        }
    }

    fn pop_from_slot(&mut self, t: u64) -> Option<(Cycle, E)> {
        self.cursor = t;
        let e = self.slots[(t & WHEEL_MASK) as usize]
            .pop_front()
            .expect("head slot non-empty");
        self.wheel_len -= 1;
        self.len -= 1;
        Some((Cycle(t), e))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.head().map(|h| match h {
            Head::Slot(t) | Head::Spill(t) => Cycle(t),
        })
    }

    /// Number of events tied at the earliest timestamp (0 when empty).
    ///
    /// Same-time events always share one bucket, so this is the length
    /// of the head bucket — O(1) after locating the head, which is what
    /// lets schedule exploration probe every dispatch for a tie-break
    /// decision point without slowing the simulation down.
    pub fn tie_width(&self) -> usize {
        match self.head() {
            None => 0,
            Some(Head::Slot(t)) => self.slots[(t & WHEEL_MASK) as usize].len(),
            Some(Head::Spill(k)) => self.overflow[&k].len(),
        }
    }

    /// Removes and returns the `k`-th event (in FIFO order) among those tied
    /// at the earliest timestamp; `k` is clamped to the tie width, and
    /// `pop_tied(0)` is exactly [`EventQueue::pop`].
    ///
    /// The events skipped over stay in place in the head bucket, so the
    /// relative FIFO order of everything left in the queue is unchanged —
    /// a perturbed schedule differs from the default one *only* in the
    /// chosen delivery, never in collateral reordering.
    pub fn pop_tied(&mut self, k: usize) -> Option<(Cycle, E)> {
        if k == 0 {
            return self.pop();
        }
        let (t, in_wheel) = match self.head()? {
            Head::Slot(t) => (t, true),
            Head::Spill(t) => (t, false),
        };
        let bucket = if in_wheel {
            self.cursor = t;
            &mut self.slots[(t & WHEEL_MASK) as usize]
        } else {
            self.overflow.get_mut(&t).expect("head bucket exists")
        };
        let e = bucket
            .remove(k.min(bucket.len() - 1))
            .expect("clamped index in range");
        let emptied = bucket.is_empty();
        if in_wheel {
            self.wheel_len -= 1;
        } else if emptied {
            let bucket = self.overflow.remove(&t).expect("bucket present");
            if self.spare.len() < SPARE_BUCKETS {
                self.spare.push(bucket);
            }
        }
        self.len -= 1;
        Some((Cycle(t), e))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every pending event in exact delivery order — time ascending, FIFO
    /// within a timestamp — without disturbing the queue. Re-pushing the
    /// returned sequence into a fresh queue reproduces the same delivery
    /// order, which is how checkpoints serialize the queue (delivery
    /// order is the queue's only observable state; wheel geometry is
    /// not).
    #[must_use]
    pub fn ordered(&self) -> Vec<(Cycle, &E)> {
        let mut out = Vec::with_capacity(self.len);
        // Spill keys are either behind the cursor (late pushes into the
        // past) or at/after the window end, never inside the un-drained
        // window — so past-spill ++ wheel ++ future-spill is sorted.
        for (&t, bucket) in self.overflow.range(..self.cursor) {
            out.extend(bucket.iter().map(|e| (Cycle(t), e)));
        }
        if self.wheel_len > 0 {
            for t in self.cursor..self.wheel_end() {
                let slot = &self.slots[(t & WHEEL_MASK) as usize];
                out.extend(slot.iter().map(|e| (Cycle(t), e)));
            }
        }
        for (&t, bucket) in self.overflow.range(self.cursor..) {
            out.extend(bucket.iter().map(|e| (Cycle(t), e)));
        }
        debug_assert_eq!(out.len(), self.len, "ordered() missed events");
        out
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle(7);
        assert_eq!(c + 3, Cycle(10));
        assert_eq!(Cycle(10) - c, 3);
        let mut m = Cycle(1);
        m += 4;
        assert_eq!(m, Cycle(5));
    }

    #[test]
    fn cycle_since_saturates() {
        assert_eq!(Cycle(5).since(Cycle(9)), 0);
        assert_eq!(Cycle(9).since(Cycle(5)), 4);
    }

    #[test]
    fn cycle_min_max() {
        assert_eq!(Cycle(3).max(Cycle(8)), Cycle(8));
        assert_eq!(Cycle(3).min(Cycle(8)), Cycle(3));
    }

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(42), i)));
        }
    }

    #[test]
    fn queue_peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle(9), ());
        q.push(Cycle(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle(4)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Cycle(9)));
    }

    #[test]
    fn tie_width_counts_earliest_only() {
        let mut q = EventQueue::new();
        assert_eq!(q.tie_width(), 0);
        q.push(Cycle(5), 'a');
        q.push(Cycle(5), 'b');
        q.push(Cycle(9), 'c');
        assert_eq!(q.tie_width(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.tie_width(), 1);
    }

    #[test]
    fn pop_tied_selects_kth_and_preserves_fifo() {
        let mut q = EventQueue::new();
        for (i, e) in ['a', 'b', 'c', 'd'].into_iter().enumerate() {
            q.push(Cycle(if e == 'd' { 8 } else { 3 }), (i, e));
        }
        // Pick 'c' (k = 2) out of the Cycle(3) tie; 'a' and 'b' keep order.
        assert_eq!(q.pop_tied(2), Some((Cycle(3), (2, 'c'))));
        assert_eq!(q.pop(), Some((Cycle(3), (0, 'a'))));
        assert_eq!(q.pop(), Some((Cycle(3), (1, 'b'))));
        assert_eq!(q.pop(), Some((Cycle(8), (3, 'd'))));
    }

    #[test]
    fn pop_tied_clamps_out_of_range_k() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), 'x');
        q.push(Cycle(1), 'y');
        assert_eq!(q.pop_tied(99), Some((Cycle(1), 'y')));
        assert_eq!(q.pop_tied(99), Some((Cycle(1), 'x')));
        assert_eq!(q.pop_tied(0), None);
    }

    #[test]
    fn pop_tied_zero_matches_pop() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for i in 0..20 {
            a.push(Cycle(i / 3), i);
            b.push(Cycle(i / 3), i);
        }
        while let Some(x) = a.pop() {
            assert_eq!(Some(x), b.pop_tied(0));
        }
        assert_eq!(b.pop_tied(0), None);
    }

    #[test]
    fn queue_interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), "a");
        q.push(Cycle(1), "b");
        assert_eq!(q.pop(), Some((Cycle(1), "b")));
        q.push(Cycle(2), "c");
        q.push(Cycle(5), "d");
        assert_eq!(q.pop(), Some((Cycle(2), "c")));
        assert_eq!(q.pop(), Some((Cycle(5), "a")));
        assert_eq!(q.pop(), Some((Cycle(5), "d")));
    }

    // Timing-wheel specific coverage: window jumps, past pushes, and the
    // window edge — cases a heap never distinguishes but a wheel must.

    #[test]
    fn far_future_events_spill_and_return() {
        let mut q = EventQueue::new();
        let far = WHEEL_SLOTS as u64 * 10;
        q.push(Cycle(far + 1), 'b');
        q.push(Cycle(far), 'a');
        q.push(Cycle(3), 'x');
        assert_eq!(q.pop(), Some((Cycle(3), 'x')));
        // The wheel is now empty; popping rebases the window onto `far`.
        assert_eq!(q.pop(), Some((Cycle(far), 'a')));
        assert_eq!(q.pop(), Some((Cycle(far + 1), 'b')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_ties_stay_fifo_through_rebase() {
        let mut q = EventQueue::new();
        let far = 5 * WHEEL_SLOTS as u64 + 7;
        for i in 0..10 {
            q.push(Cycle(far), i);
        }
        assert_eq!(q.tie_width(), 10);
        for i in 0..10 {
            assert_eq!(q.pop(), Some((Cycle(far), i)));
        }
    }

    #[test]
    fn pushes_into_the_past_are_delivered_first() {
        let mut q = EventQueue::new();
        q.push(Cycle(100), "now");
        assert_eq!(q.pop(), Some((Cycle(100), "now")));
        // Time has advanced to 100; push behind it.
        q.push(Cycle(40), "late-a");
        q.push(Cycle(40), "late-b");
        q.push(Cycle(100), "next");
        assert_eq!(q.tie_width(), 2);
        assert_eq!(q.pop(), Some((Cycle(40), "late-a")));
        assert_eq!(q.pop(), Some((Cycle(40), "late-b")));
        assert_eq!(q.pop(), Some((Cycle(100), "next")));
    }

    #[test]
    fn window_edge_times_are_ordered() {
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        // Straddle the initial window boundary: w-1 in the wheel, w and
        // w+1 in the spillover, all mapping near the same slot indices.
        q.push(Cycle(w + 1), 4);
        q.push(Cycle(w - 1), 1);
        q.push(Cycle(w), 2);
        q.push(Cycle(w), 3);
        assert_eq!(q.pop(), Some((Cycle(w - 1), 1)));
        assert_eq!(q.pop(), Some((Cycle(w), 2)));
        assert_eq!(q.pop(), Some((Cycle(w), 3)));
        assert_eq!(q.pop(), Some((Cycle(w + 1), 4)));
    }

    #[test]
    fn max_timestamp_is_representable() {
        let mut q = EventQueue::new();
        q.push(Cycle(u64::MAX), 'z');
        q.push(Cycle(u64::MAX - 1), 'y');
        q.push(Cycle(0), 'a');
        assert_eq!(q.pop(), Some((Cycle(0), 'a')));
        assert_eq!(q.pop(), Some((Cycle(u64::MAX - 1), 'y')));
        assert_eq!(q.pop(), Some((Cycle(u64::MAX), 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ordered_matches_pop_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(100), 0);
        assert_eq!(q.pop(), Some((Cycle(100), 0)));
        // Past push, window ties, and far-future spill all at once.
        q.push(Cycle(40), 1);
        q.push(Cycle(100), 2);
        q.push(Cycle(100), 3);
        q.push(Cycle(100 + 10 * WHEEL_SLOTS as u64), 4);
        q.push(Cycle(40), 5);
        let snap: Vec<(Cycle, i32)> = q.ordered().into_iter().map(|(t, &e)| (t, e)).collect();
        let mut popped = Vec::new();
        while let Some(x) = q.pop() {
            popped.push(x);
        }
        assert_eq!(snap, popped);
        // Re-pushing the snapshot reproduces the same delivery order.
        let mut fresh = EventQueue::new();
        for &(t, e) in &snap {
            fresh.push(t, e);
        }
        let replay: Vec<(Cycle, i32)> = std::iter::from_fn(|| fresh.pop()).collect();
        assert_eq!(replay, popped);
    }
}
