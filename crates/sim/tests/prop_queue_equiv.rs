//! Timing wheel ⇔ reference heap equivalence.
//!
//! The production [`EventQueue`] is a timing wheel; the pre-overhaul
//! binary-heap implementation lives on below as [`ReferenceEventQueue`],
//! the executable specification of delivery order. These properties
//! drive both in lockstep over arbitrary operation sequences — pushes
//! near and far (spillover), into the past, tied, interleaved with plain
//! pops and k-th tied pops — and demand identical observable behaviour
//! at every step. Identical pop order is the exact property the
//! simulator's bit-identical-schedule guarantee rests on.

use chats_sim::{Cycle, EventQueue};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The pre-timing-wheel event queue: a min-heap of `(time, seq, event)`.
/// `seq` is unique, so ties pop in push order and events are never
/// compared.
struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Reverse<(Cycle, u64, E)>>,
    seq: u64,
}

impl<E: Ord> ReferenceEventQueue<E> {
    fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at: Cycle, event: E) {
        self.heap.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|Reverse((at, _, event))| (at, event))
    }

    fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn tie_width(&self) -> usize {
        let Some(at) = self.peek_time() else { return 0 };
        self.heap.iter().filter(|Reverse(e)| e.0 == at).count()
    }

    /// Pops every event tied at the head time, removes the `k`-th
    /// (clamped), and pushes the rest back with their original `seq`.
    fn pop_tied(&mut self, k: usize) -> Option<(Cycle, E)> {
        let at = self.peek_time()?;
        let mut tied = Vec::new();
        while self.peek_time() == Some(at) {
            tied.push(self.heap.pop().expect("peeked entry vanished"));
        }
        let Reverse((at, _, chosen)) = tied.remove(k.min(tied.len() - 1));
        self.heap.extend(tied);
        Some((at, chosen))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// A fixed deterministic workout: a pseudo-random mix of near, far and
/// tied pushes interleaved with pops (an xorshift, so the case never
/// changes with the proptest seed).
#[test]
fn reference_queue_matches_on_a_mixed_workout() {
    let mut wheel = EventQueue::new();
    let mut refq = ReferenceEventQueue::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut t = 0u64;
    for i in 0..5_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let delay = match x % 10 {
            0..=5 => x % 8,          // heavy tie pressure
            6..=8 => x % 200,        // typical latencies
            _ => 2_000 + x % 10_000, // far future (spillover)
        };
        wheel.push(Cycle(t + delay), i);
        refq.push(Cycle(t + delay), i);
        if x.is_multiple_of(3) {
            assert_eq!(wheel.tie_width(), refq.tie_width());
            let a = wheel.pop();
            assert_eq!(a, refq.pop());
            if let Some((at, _)) = a {
                t = at.0;
            }
        }
    }
    loop {
        assert_eq!(wheel.peek_time(), refq.peek_time());
        let a = wheel.pop();
        assert_eq!(a, refq.pop());
        if a.is_none() {
            break;
        }
    }
}

/// One queue operation. Delays are generated in the three regimes that
/// matter to a wheel: inside the current slot window, far beyond it, and
/// (via `PushPast`) behind the drained cursor.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `last_popped_time + delay`.
    Push(u64),
    /// Push at `last_popped_time.saturating_sub(back)` — into the past.
    PushPast(u64),
    /// Plain pop.
    Pop,
    /// Pop the `k`-th tied event (clamped by both implementations).
    PopTied(usize),
    /// Compare the earliest pending time.
    Peek,
    /// Compare the width of the earliest tie.
    TieWidth,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Near-future pushes dominate, as they do in the real machine.
        (0u64..8).prop_map(Op::Push),
        (0u64..300).prop_map(Op::Push),
        // Far enough to guarantee wheel spillover (window is 1024).
        (1_000u64..50_000).prop_map(Op::Push),
        (0u64..200).prop_map(Op::PushPast),
        Just(Op::Pop),
        (0usize..6).prop_map(Op::PopTied),
        Just(Op::Peek),
        Just(Op::TieWidth),
    ]
}

/// Applies `op` to both queues and checks that they agree on what it
/// observes; `now` is the time of the last delivery, like
/// `Machine::clock`.
fn apply(
    op: &Op,
    id: u64,
    now: &mut u64,
    wheel: &mut EventQueue<u64>,
    refq: &mut ReferenceEventQueue<u64>,
) {
    match *op {
        Op::Push(delay) => {
            let at = Cycle(now.saturating_add(delay));
            wheel.push(at, id);
            refq.push(at, id);
        }
        Op::PushPast(back) => {
            let at = Cycle(now.saturating_sub(back));
            wheel.push(at, id);
            refq.push(at, id);
        }
        Op::Pop => {
            let a = wheel.pop();
            let b = refq.pop();
            assert_eq!(a, b);
            if let Some((t, _)) = a {
                *now = t.0;
            }
        }
        Op::PopTied(k) => {
            // The decision point only exists when the hook sees a
            // tie, so compare the width first, then the choice.
            assert_eq!(wheel.tie_width(), refq.tie_width());
            let a = wheel.pop_tied(k);
            let b = refq.pop_tied(k);
            assert_eq!(a, b);
            if let Some((t, _)) = a {
                *now = t.0;
            }
        }
        Op::Peek => assert_eq!(wheel.peek_time(), refq.peek_time()),
        Op::TieWidth => assert_eq!(wheel.tie_width(), refq.tie_width()),
    }
    assert_eq!(wheel.len(), refq.len());
}

/// Drains both queues, checking that the residual order agrees.
fn drain(wheel: &mut EventQueue<u64>, refq: &mut ReferenceEventQueue<u64>) {
    loop {
        assert_eq!(wheel.tie_width(), refq.tie_width());
        let a = wheel.pop();
        assert_eq!(a, refq.pop());
        if a.is_none() {
            return;
        }
    }
}

/// A fixed case where the slot search wraps past the ring's end: the
/// window is rebased so the cursor sits at slot 1010, and events wait on
/// both sides of slot 1023, pushed in between peeks and pops.
#[test]
fn slot_search_wraps_past_the_ring_end() {
    let mut wheel = EventQueue::new();
    let mut refq = ReferenceEventQueue::new();
    let base = 3 * 1024 + 1010;
    let mut now = 0;
    let ops = [
        // Far beyond the first window: popping it rebases onto `base`.
        Op::Push(base),
        Op::Pop,
        Op::Push(20),
        Op::Push(5),
        Op::Peek,
        Op::Push(13),
        Op::Push(14),
        Op::Push(14),
        Op::Push(12),
        Op::TieWidth,
        Op::Pop,
        Op::Push(2),
        Op::Peek,
        Op::Pop,
        Op::Pop,
        Op::Peek,
        Op::Push(0),
        Op::TieWidth,
        Op::PopTied(1),
        Op::Pop,
        Op::PushPast(3),
        Op::Peek,
        Op::Pop,
        Op::Pop,
    ];
    for (i, op) in ops.iter().enumerate() {
        apply(op, i as u64, &mut now, &mut wheel, &mut refq);
    }
    assert!(now > base + 13, "the pops crossed the ring's end");
    drain(&mut wheel, &mut refq);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Lockstep equivalence on arbitrary op sequences: every pop (plain
    /// and tied), every tie width, every peeked time, and every length
    /// agree between the wheel and the reference heap.
    #[test]
    fn wheel_matches_reference_heap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut refq: ReferenceEventQueue<u64> = ReferenceEventQueue::new();
        let mut now = 0u64;
        for (i, op) in ops.iter().enumerate() {
            apply(op, i as u64, &mut now, &mut wheel, &mut refq);
            prop_assert_eq!(wheel.peek_time(), refq.peek_time());
        }
        // Drain: the full residual order must agree too.
        drain(&mut wheel, &mut refq);
    }

    /// The same lockstep without a peek after every step, so pushes and
    /// pops also meet a head that no peek has located yet, and the
    /// `Peek`/`TieWidth` ops find whatever the head cache holds.
    #[test]
    fn head_cache_matches_reference_heap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut refq: ReferenceEventQueue<u64> = ReferenceEventQueue::new();
        let mut now = 0u64;
        for (i, op) in ops.iter().enumerate() {
            apply(op, i as u64, &mut now, &mut wheel, &mut refq);
        }
        drain(&mut wheel, &mut refq);
    }

    /// `pop_tied(k)` removes only the chosen event: the remainder pops in
    /// exactly the order the reference queue (given the same removal)
    /// produces — no collateral reordering.
    #[test]
    fn pop_tied_never_reorders_the_rest(
        times in proptest::collection::vec(0u64..6, 2..60),
        k in 0usize..8,
    ) {
        let mut wheel = EventQueue::new();
        let mut refq = ReferenceEventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.push(Cycle(t), i);
            refq.push(Cycle(t), i);
        }
        prop_assert_eq!(wheel.pop_tied(k), refq.pop_tied(k));
        loop {
            let a = wheel.pop();
            prop_assert_eq!(a, refq.pop());
            if a.is_none() {
                break;
            }
        }
    }
}
