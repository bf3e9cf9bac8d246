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

use std::cell::Cell;
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
/// Words in the slot-occupancy bitmap, one bit per slot.
const OCCUPANCY_WORDS: usize = WHEEL_SLOTS / 64;
/// Empty spillover buckets kept for reuse instead of returning their
/// allocation; bounds the freelist so a burst cannot pin memory forever.
const SPARE_BUCKETS: usize = 32;
/// The null link of the node slab.
const NIL: u32 = u32::MAX;

/// One wheel slot: a FIFO linked through the node slab.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
    len: 0,
};

/// A slab entry: a queued event and the link to the next one in its slot,
/// or (when free) the next free entry. A free node keeps its stale
/// payload; only nodes linked from a slot are ever read.
#[derive(Debug, Clone)]
struct Node<E> {
    event: E,
    next: u32,
}

/// A discrete-event priority queue with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same [`Cycle`] are delivered in the order they
/// were pushed. This makes whole-machine simulations reproducible: with a
/// fixed seed, every run produces an identical event schedule.
///
/// Internally a timing wheel: a ring of FIFO slots covering the cycles
/// `[wheel_base, wheel_base + WHEEL_SLOTS)`, plus a sorted spillover map
/// for timestamps outside that window. Same-time events always land in
/// the *same* slot, so slot order **is** FIFO order — no sequence
/// numbers needed — and the tie set at the head of the queue is simply
/// the front slot, which makes [`EventQueue::tie_width`] O(1) and
/// [`EventQueue::pop_tied`] O(tie width) instead of the pop-all-and-push-
/// back scan a heap would force.
///
/// Every slot's FIFO is a list linked through one node slab with a free
/// list, so the wheel's events share one allocation that grows only to
/// the peak number of queued events. A bitmap of non-empty slots finds
/// the next occupied one a word at a time, and the head, once located,
/// is cached until a pop moves it or a push lands before it.
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
pub struct EventQueue<E: Copy> {
    /// The wheel. `slots[t & WHEEL_MASK]` holds the events for cycle `t`
    /// for every `t` in the window; a slot's events all share one
    /// timestamp because the window is exactly one wheel circumference.
    slots: Box<[Slot; WHEEL_SLOTS]>,
    /// Bit `s` is set exactly when `slots[s]` is non-empty.
    occupied: [u64; OCCUPANCY_WORDS],
    /// Storage for every event in the wheel.
    nodes: Vec<Node<E>>,
    /// First free entry of `nodes`, or `NIL`.
    free: u32,
    /// Events outside the window: pushed beyond `wheel_base +
    /// WHEEL_SLOTS`, or (rare) pushed into the past behind `cursor`.
    overflow: BTreeMap<u64, VecDeque<E>>,
    /// The smallest key of `overflow`.
    overflow_min: Option<u64>,
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
    /// Where the head is, once located; `None` when not yet known.
    head: Cell<Option<Head>>,
}

/// Where the head of the queue currently lives.
#[derive(Debug, Clone, Copy)]
enum Head {
    /// In the wheel slot for this cycle.
    Slot(u64),
    /// In the overflow bucket keyed by this cycle.
    Spill(u64),
}

impl Head {
    fn time(self) -> u64 {
        match self {
            Head::Slot(t) | Head::Spill(t) => t,
        }
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Box::new([EMPTY_SLOT; WHEEL_SLOTS]),
            occupied: [0; OCCUPANCY_WORDS],
            nodes: Vec::new(),
            free: NIL,
            overflow: BTreeMap::new(),
            overflow_min: None,
            spare: Vec::new(),
            wheel_base: 0,
            cursor: 0,
            wheel_len: 0,
            len: 0,
            head: Cell::new(None),
        }
    }

    /// One past the last cycle the wheel window covers.
    fn wheel_end(&self) -> u64 {
        self.wheel_base.saturating_add(WHEEL_SLOTS as u64)
    }

    /// Schedules `event` for delivery at `at`.
    // Forced inline, as is `slot_push`: out of line, a caller builds the
    // event on its stack and the callee copies it into its node, and that
    // copy reads back the caller's just-written stores with a different
    // split, which stalls store forwarding. Inlined, the event is built
    // straight into the node.
    #[inline(always)]
    pub fn push(&mut self, at: Cycle, event: E) {
        let t = at.0;
        let pushed = if t >= self.cursor && t < self.wheel_end() {
            self.slot_push(t, event);
            Head::Slot(t)
        } else {
            self.overflow
                .entry(t)
                .or_insert_with(|| self.spare.pop().unwrap_or_default())
                .push_back(event);
            if self.overflow_min.is_none_or(|m| t < m) {
                self.overflow_min = Some(t);
            }
            Head::Spill(t)
        };
        // A push at or after the head time lands behind the head (a tie
        // joins the head's own bucket), so the cached head stays right.
        match self.head.get() {
            Some(h) if t < h.time() => self.head.set(Some(pushed)),
            None if self.len == 0 => self.head.set(Some(pushed)),
            _ => {}
        }
        self.len += 1;
    }

    /// Appends `event` to the slot for cycle `t`. Forced inline for the
    /// reason given at [`EventQueue::push`].
    #[inline(always)]
    fn slot_push(&mut self, t: u64, event: E) {
        let n = match self.free {
            NIL => {
                let n = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&n| n != NIL)
                    .expect("event queue holds fewer than 2^32 - 1 wheel events");
                self.nodes.push(Node { event, next: NIL });
                n
            }
            n => {
                let node = &mut self.nodes[n as usize];
                self.free = node.next;
                node.event = event;
                node.next = NIL;
                n
            }
        };
        let s = (t & WHEEL_MASK) as usize;
        let slot = &mut self.slots[s];
        if slot.len == 0 {
            slot.head = n;
            self.occupied[s / 64] |= 1 << (s % 64);
        } else {
            self.nodes[slot.tail as usize].next = n;
        }
        slot.tail = n;
        slot.len += 1;
        self.wheel_len += 1;
    }

    /// Locates the head of the queue, from the cache when it holds one.
    ///
    /// Invariant used throughout: overflow keys are either behind the
    /// cursor (late pushes into the past) or at/after the window end —
    /// never inside the un-drained part of the window — so a non-empty
    /// wheel always beats an at-or-after-window spill key.
    fn head(&self) -> Option<Head> {
        if let Some(h) = self.head.get() {
            return Some(h);
        }
        if self.len == 0 {
            return None;
        }
        let h = match self.overflow_min {
            Some(k) if k < self.cursor || self.wheel_len == 0 => Head::Spill(k),
            _ => Head::Slot(self.first_occupied()),
        };
        self.head.set(Some(h));
        Some(h)
    }

    /// The cycle of the first non-empty slot at or after the cursor. The
    /// search runs a bitmap word at a time and wraps past the ring's end,
    /// where the window's later cycles live.
    fn first_occupied(&self) -> u64 {
        debug_assert!(self.wheel_len > 0, "searched an empty wheel");
        let c = (self.cursor & WHEEL_MASK) as usize;
        let mut w = c / 64;
        let mut bits = self.occupied[w] & (!0u64 << (c % 64));
        while bits == 0 {
            w = (w + 1) % OCCUPANCY_WORDS;
            bits = self.occupied[w];
        }
        let s = (w * 64) as u64 + u64::from(bits.trailing_zeros());
        let t = self.cursor + (s.wrapping_sub(c as u64) & WHEEL_MASK);
        debug_assert!(t < self.wheel_end(), "wheel search escaped the window");
        t
    }

    /// Rebases the empty wheel onto `base` and migrates every spill
    /// bucket that now falls inside the window into its slot.
    #[cold]
    fn rebase(&mut self, base: u64) {
        debug_assert_eq!(self.wheel_len, 0);
        self.wheel_base = base;
        self.cursor = base;
        let rest = self.overflow.split_off(&self.wheel_end());
        let moved = std::mem::replace(&mut self.overflow, rest);
        self.overflow_min = self.overflow.keys().next().copied();
        for (t, mut bucket) in moved {
            for event in bucket.drain(..) {
                self.slot_push(t, event);
            }
            if self.spare.len() < SPARE_BUCKETS {
                self.spare.push(bucket);
            }
        }
    }

    /// Removes the `k`-th event (clamped) of the head slot at cycle `t`
    /// and moves the cursor there.
    fn pop_slot(&mut self, t: u64, k: usize) -> Option<(Cycle, E)> {
        self.cursor = t;
        let s = (t & WHEEL_MASK) as usize;
        let slot = self.slots[s];
        let mut prev = NIL;
        let mut n = slot.head;
        for _ in 0..k.min(slot.len as usize - 1) {
            prev = n;
            n = self.nodes[n as usize].next;
        }
        let next = std::mem::replace(&mut self.nodes[n as usize].next, self.free);
        self.free = n;
        let slot = &mut self.slots[s];
        if prev == NIL {
            slot.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if slot.tail == n {
            slot.tail = prev;
        }
        slot.len -= 1;
        if slot.len == 0 {
            self.occupied[s / 64] &= !(1 << (s % 64));
            self.head.set(None);
        } else {
            self.head.set(Some(Head::Slot(t)));
        }
        self.wheel_len -= 1;
        // A plain copy of the whole payload: the node keeps it (stale,
        // unreachable once freed), so nothing is written back beside it
        // for the caller to stall on when it reads the event.
        Some((Cycle(t), self.nodes[n as usize].event))
    }

    /// Removes the `k`-th event (clamped) of the overflow bucket at `t`,
    /// recycling the bucket when it empties.
    fn pop_spill(&mut self, t: u64, k: usize) -> E {
        let bucket = self.overflow.get_mut(&t).expect("head bucket exists");
        let event = bucket
            .remove(k.min(bucket.len() - 1))
            .expect("clamped index in range");
        if bucket.is_empty() {
            let bucket = self.overflow.remove(&t).expect("bucket present");
            if self.spare.len() < SPARE_BUCKETS {
                self.spare.push(bucket);
            }
            self.overflow_min = self.overflow.keys().next().copied();
            self.head.set(None);
        }
        event
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties are broken by insertion order.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_tied(0)
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.head().map(|h| Cycle(h.time()))
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
            Some(Head::Slot(t)) => self.slots[(t & WHEEL_MASK) as usize].len as usize,
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
        let t = match self.head()? {
            Head::Slot(t) => t,
            Head::Spill(t) if t < self.cursor || t == u64::MAX => {
                self.len -= 1;
                return Some((Cycle(t), self.pop_spill(t, k)));
            }
            Head::Spill(t) => {
                // The wheel is empty and all spill keys are at or beyond
                // the window: jump the window forward so this bucket (and
                // its near successors) pop from slots.
                self.rebase(t);
                t
            }
        };
        self.len -= 1;
        self.pop_slot(t, k)
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
                let mut n = self.slots[(t & WHEEL_MASK) as usize].head;
                while n != NIL {
                    let node = &self.nodes[n as usize];
                    out.push((Cycle(t), &node.event));
                    n = node.next;
                }
            }
        }
        for (&t, bucket) in self.overflow.range(self.cursor..) {
            out.extend(bucket.iter().map(|e| (Cycle(t), e)));
        }
        debug_assert_eq!(out.len(), self.len, "ordered() missed events");
        out
    }
}

impl<E: Copy> Default for EventQueue<E> {
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
    fn node_slab_grows_only_to_the_peak_depth() {
        const DEPTH: u64 = 64;
        let mut q = EventQueue::new();
        for i in 0..DEPTH {
            q.push(Cycle(i % 7), i);
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..100_000u64 {
            let (t, _) = q.pop().expect("queue stays at depth");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(Cycle(t.0 + x % 300), DEPTH + i);
            assert_eq!(q.len(), DEPTH as usize);
        }
        assert!(
            q.nodes.capacity() <= 2 * DEPTH as usize,
            "slab capacity {} for depth {DEPTH}",
            q.nodes.capacity()
        );
    }

    /// A freed node keeps its old payload, and the next push reuses the
    /// node. Nothing but the new payload may come back out of it.
    #[test]
    fn a_freed_nodes_old_payload_never_returns() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), 'a');
        q.push(Cycle(2), 'b');
        assert_eq!(q.pop(), Some((Cycle(1), 'a')));
        q.push(Cycle(3), 'c');
        assert_eq!(q.nodes.len(), 2, "'c' reuses the node 'a' left");
        let listed: Vec<(Cycle, char)> = q.ordered().into_iter().map(|(t, &e)| (t, e)).collect();
        assert_eq!(listed, [(Cycle(2), 'b'), (Cycle(3), 'c')]);
        assert_eq!(q.pop(), Some((Cycle(2), 'b')));
        assert_eq!(q.pop(), Some((Cycle(3), 'c')));
        assert_eq!(q.pop(), None);
        assert!(q.ordered().is_empty());

        // The same through a tie: pop the middle one, reuse its node.
        q.push(Cycle(9), 'x');
        q.push(Cycle(9), 'y');
        q.push(Cycle(9), 'z');
        assert_eq!(q.pop_tied(1), Some((Cycle(9), 'y')));
        q.push(Cycle(9), 'w');
        assert_eq!(q.tie_width(), 3);
        let listed: Vec<char> = q.ordered().into_iter().map(|(_, &e)| e).collect();
        assert_eq!(listed, ['x', 'z', 'w']);
        assert_eq!(q.pop_tied(2), Some((Cycle(9), 'w')));
        assert_eq!(q.pop_tied(1), Some((Cycle(9), 'z')));
        assert_eq!(q.pop_tied(0), Some((Cycle(9), 'x')));
        assert_eq!(q.pop_tied(0), None);
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
