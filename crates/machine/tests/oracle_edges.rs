//! Oracle edge cases around CHATS forwarding (§IV): a forwarded line
//! evicted before validation, the VSB at full capacity, and a chain head
//! aborting after it has forwarded. Each scenario is run with the
//! atomicity oracle armed in record mode; the assertion is that the
//! protocol keeps these corners *benign* — no recorded violations, the
//! counted-increment sum exact — while the stats prove the corner was
//! actually exercised.

use chats_core::{AbortCause, HtmSystem, PolicyConfig};
use chats_machine::{Machine, Oracle, Tuning};
use chats_mem::Addr;
use chats_sim::SystemConfig;
use chats_tvm::{ProgramBuilder, Reg, Vm};

/// `small_test` geometry: 16 sets x 4 ways, 8-word lines.
const SETS: u64 = 16;
const WAYS: u64 = 4;
const LINE_WORDS: u64 = 8;

/// Emits a counted loop: `body` runs `iters` times using `Reg(6)`/`Reg(7)`
/// as loop registers (the body must not clobber them).
fn counted(b: &mut ProgramBuilder, iters: u64, body: impl FnOnce(&mut ProgramBuilder)) {
    let (i, n) = (Reg(6), Reg(7));
    b.imm(i, 0).imm(n, iters);
    let top = b.label();
    b.bind(top);
    body(b);
    b.addi(i, i, 1);
    b.blt(i, n, top);
}

/// Emits `mem[word] += 1` through `Reg(0)`/`Reg(1)`.
fn incr(b: &mut ProgramBuilder, word: u64) {
    let (a, v) = (Reg(0), Reg(1));
    b.imm(a, word);
    b.load(v, a);
    b.addi(v, v, 1);
    b.store(a, v);
}

/// Runs the two programs on a 2-core oracle-armed machine and returns the
/// machine (for memory inspection) plus its run stats.
fn run_pair(
    system: HtmSystem,
    prog0: chats_tvm::Program,
    prog1: chats_tvm::Program,
    seed: u64,
) -> (Machine, chats_stats::RunStats) {
    let mut sys = SystemConfig::small_test();
    sys.core.cores = 2;
    let tuning = Tuning {
        oracle: Oracle::Record,
        ..Tuning::default()
    };
    let mut m = Machine::new(sys, PolicyConfig::for_system(system), tuning, seed);
    m.load_thread(0, Vm::new(prog0, seed));
    m.load_thread(1, Vm::new(prog1, seed ^ 0x80));
    let s = m
        .run(50_000_000)
        .unwrap_or_else(|e| panic!("{system:?}: {e}"));
    assert_eq!(
        m.violations(),
        &[],
        "{system:?}: oracle violations recorded"
    );
    (m, s)
}

/// A forwarded line is pressure-evicted from the consumer's L1 before the
/// consumer validates it. The consumer must not lose the speculative
/// snapshot's isolation: either the eviction aborts it or the validation
/// machinery still covers the line — never a silently committed stale
/// read.
#[test]
fn forwarded_line_evicted_before_validation_is_benign() {
    const PRODUCER_ITERS: u64 = 12;
    const CONSUMER_ITERS: u64 = 12;

    // Producer: hold each increment of line 0 speculative for a long
    // window so the consumer's read is answered by forwarding.
    let mut b = ProgramBuilder::new();
    counted(&mut b, PRODUCER_ITERS, |b| {
        b.tx_begin();
        incr(b, 0);
        b.pause(400);
        b.tx_end();
        b.pause(40);
    });
    b.halt();
    let producer = b.build();

    // Consumer: read line 0 (forwarded while the producer is mid-window),
    // then touch `WAYS + 1` other set-0 lines so the forwarded copy is
    // evicted before the validation probe can run, linger, and commit its
    // own increment of the value it observed.
    let mut b = ProgramBuilder::new();
    let (a, v, t) = (Reg(0), Reg(1), Reg(2));
    b.pause(120);
    counted(&mut b, CONSUMER_ITERS, |b| {
        b.tx_begin();
        b.imm(a, 0);
        b.load(v, a);
        for k in 1..=(WAYS + 1) {
            b.imm(a, k * SETS * LINE_WORDS);
            b.load(t, a);
        }
        b.pause(250);
        b.imm(a, 0);
        b.addi(v, v, 1);
        b.store(a, v);
        b.tx_end();
        b.pause(40);
    });
    b.halt();
    let consumer = b.build();

    let (m, s) = run_pair(HtmSystem::Chats, producer, consumer, 0xE71C);
    assert_eq!(
        m.inspect_word(Addr(0)),
        PRODUCER_ITERS + CONSUMER_ITERS,
        "an increment was lost or duplicated"
    );
    assert!(
        s.forwardings > 0,
        "scenario failed to exercise forwarding (stats: {s:?})"
    );
}

/// The consumer's 4-entry VSB is driven to capacity: a producer holds six
/// lines speculatively modified while the consumer reads all six in one
/// transaction. The overflowing speculative responses must stall/retry
/// (or abort), never drop an unvalidated line.
#[test]
fn vsb_at_full_capacity_stalls_instead_of_dropping() {
    const LINES: u64 = 6; // vsb_size is 4 — two reads must overflow
    const PRODUCER_ITERS: u64 = 10;
    const CONSUMER_ITERS: u64 = 10;

    // Producer: one wide transaction speculatively incrementing all six
    // lines, then a long window before committing.
    let mut b = ProgramBuilder::new();
    counted(&mut b, PRODUCER_ITERS, |b| {
        b.tx_begin();
        for l in 0..LINES {
            incr(b, l * LINE_WORDS);
        }
        b.pause(600);
        b.tx_end();
        b.pause(40);
    });
    b.halt();
    let producer = b.build();

    // Consumer: read every line the producer is holding (each answered
    // speculatively lands in the VSB), plus one counted increment.
    let mut b = ProgramBuilder::new();
    let (a, t) = (Reg(2), Reg(3));
    b.pause(150);
    counted(&mut b, CONSUMER_ITERS, |b| {
        b.tx_begin();
        for l in 1..LINES {
            b.imm(a, l * LINE_WORDS);
            b.load(t, a);
        }
        incr(b, 0);
        b.tx_end();
        b.pause(40);
    });
    b.halt();
    let consumer = b.build();

    let (m, s) = run_pair(HtmSystem::Chats, producer, consumer, 0x5B5B);
    let total: u64 = (0..LINES)
        .map(|l| m.inspect_word(Addr(l * LINE_WORDS)))
        .sum();
    assert_eq!(
        total,
        PRODUCER_ITERS * LINES + CONSUMER_ITERS,
        "an increment was lost or duplicated"
    );
    assert!(
        s.forwardings > 0,
        "scenario failed to exercise forwarding (stats: {s:?})"
    );
}

/// A chain head aborts *after* forwarding: the producer forwards its
/// speculative increment, then deliberately overflows its own L1 set and
/// takes a capacity abort, rolling the increment back. The consumer's
/// forwarded snapshot is now stale; validation must catch it (the
/// consumer aborts and retries) — committing it would corrupt memory,
/// which the sum check and the armed oracle would both expose.
#[test]
fn chain_head_capacity_abort_after_forwarding_squashes_consumer() {
    const PRODUCER_ITERS: u64 = 8;
    const CONSUMER_ITERS: u64 = 16;

    // Producer: increment line 0, linger so the consumer consumes the
    // speculative value, then increment WAYS more set-0 lines — clean
    // read lines evict silently under the read signature, so the filler
    // accesses must be *writes*: five speculatively modified lines in a
    // 4-way set force a capacity abort. The retry manager eventually
    // commits the transaction (retry or fallback lock), so every
    // increment still counts exactly once.
    let mut b = ProgramBuilder::new();
    counted(&mut b, PRODUCER_ITERS, |b| {
        b.tx_begin();
        incr(b, 0);
        b.pause(300);
        for k in 1..=WAYS {
            incr(b, k * SETS * LINE_WORDS);
        }
        b.tx_end();
        b.pause(60);
    });
    b.halt();
    let producer = b.build();

    // Consumer: plain counted increments of line 0, timed to consume the
    // producer's doomed speculative value.
    let mut b = ProgramBuilder::new();
    b.pause(100);
    counted(&mut b, CONSUMER_ITERS, |b| {
        b.tx_begin();
        incr(b, 0);
        b.tx_end();
        b.pause(70);
    });
    b.halt();
    let consumer = b.build();

    let (m, s) = run_pair(HtmSystem::Chats, producer, consumer, 0xC4A1);
    let filler_sum: u64 = (1..=WAYS)
        .map(|k| m.inspect_word(Addr(k * SETS * LINE_WORDS)))
        .sum();
    assert_eq!(
        m.inspect_word(Addr(0)) + filler_sum,
        PRODUCER_ITERS * (WAYS + 1) + CONSUMER_ITERS,
        "a rolled-back forward leaked into committed state"
    );
    assert!(
        s.aborts_by(AbortCause::Capacity) > 0,
        "the chain head never took its capacity abort (stats: {s:?})"
    );
    assert!(
        s.forwardings > 0,
        "scenario failed to exercise forwarding (stats: {s:?})"
    );
}
