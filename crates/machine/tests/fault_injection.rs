//! Fault-injection robustness tests: every shipped fault plan must leave
//! transactional semantics intact on every HTM system, the no-faults path
//! must be bit-identical to a machine without a plan, and injected hangs
//! must surface as structured failure reports instead of raw timeouts.

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{FaultPlan, Machine, Oracle, RingSink, SimError, TraceEvent, Tuning};
use chats_mem::Addr;
use chats_sim::SystemConfig;
use chats_tvm::{ProgramBuilder, Reg, Vm};

/// `iters` transactions per thread, each incrementing `per_tx` counters
/// from a pool of `pool_lines` distinct lines, rotated per thread so
/// threads collide constantly.
fn contended_counters(iters: u64, per_tx: u64, pool_lines: u64) -> chats_tvm::Program {
    assert!(pool_lines.is_power_of_two(), "pool must be a power of two");
    let mut b = ProgramBuilder::new();
    let (i, n, j, k, addr, v, one, tid) = (
        Reg(0),
        Reg(1),
        Reg(2),
        Reg(3),
        Reg(4),
        Reg(5),
        Reg(6),
        Reg(8),
    );
    b.imm(i, 0).imm(n, iters).imm(one, 1);
    let outer = b.label();
    b.bind(outer);
    b.tx_begin();
    b.imm(j, 0);
    let inner = b.label();
    b.bind(inner);
    b.add(k, i, j);
    b.add(k, k, tid);
    b.andi(k, k, pool_lines - 1);
    b.shli(addr, k, 3);
    b.load(v, addr);
    b.add(v, v, one);
    b.store(addr, v);
    b.addi(j, j, 1);
    b.imm(k, per_tx);
    b.blt(j, k, inner);
    b.tx_end();
    b.addi(i, i, 1);
    b.blt(i, n, outer);
    b.halt();
    b.build()
}

const ITERS: u64 = 24;
const PER_TX: u64 = 3;
const POOL: u64 = 8;
const THREADS: usize = 4;

fn build_machine(system: HtmSystem, seed: u64, oracle: bool) -> Machine {
    let prog = contended_counters(ITERS, PER_TX, POOL);
    let mut sys = SystemConfig::small_test();
    sys.core.cores = THREADS;
    let tuning = Tuning {
        oracle: if oracle { Oracle::Panic } else { Oracle::Off },
        ..Tuning::default()
    };
    let mut m = Machine::new(sys, PolicyConfig::for_system(system), tuning, seed);
    for t in 0..THREADS {
        let mut vm = Vm::new(prog.clone(), seed + t as u64);
        vm.preset_reg(Reg(8), t as u64);
        m.load_thread(t, vm);
    }
    m
}

fn pool_sum(m: &Machine) -> u64 {
    (0..POOL).map(|k| m.inspect_word(Addr(k * 8))).sum()
}

const EXPECTED_SUM: u64 = THREADS as u64 * ITERS * PER_TX;

#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    for system in [HtmSystem::Chats, HtmSystem::Baseline] {
        let mut plain = build_machine(system, 42, false);
        let plain_stats = plain.run(20_000_000).expect("plain run failed");

        let mut planned = build_machine(system, 42, false);
        planned.set_fault_plan(&FaultPlan::default());
        let planned_stats = planned.run(20_000_000).expect("empty-plan run failed");

        assert_eq!(plain_stats, planned_stats, "{system:?}: stats diverged");
        assert_eq!(
            plain.memory_image(),
            planned.memory_image(),
            "{system:?}: memory diverged"
        );
        assert_eq!(planned.fault_injections(), 0);
    }
}

#[test]
fn watch_only_plan_observes_without_perturbing() {
    let mut plain = build_machine(HtmSystem::Chats, 7, false);
    let plain_stats = plain.run(20_000_000).expect("plain run failed");

    let mut watched = build_machine(HtmSystem::Chats, 7, false);
    let plan = FaultPlan {
        watchdog_horizon: 2_000_000,
        ..FaultPlan::default()
    };
    watched.set_fault_plan(&plan);
    let watched_stats = watched.run(20_000_000).expect("watched run failed");

    assert_eq!(
        plain_stats, watched_stats,
        "watch-only plan perturbed the run"
    );
    assert_eq!(watched.fault_injections(), 0);
}

#[test]
fn shipped_plans_preserve_serializability_on_every_system() {
    let systems = [
        HtmSystem::Baseline,
        HtmSystem::NaiveRs,
        HtmSystem::Chats,
        HtmSystem::Power,
        HtmSystem::Pchats,
        HtmSystem::LevcBeIdealized,
    ];
    for plan in FaultPlan::shipped() {
        for system in systems {
            // The atomicity oracle panics on any serializability break, so
            // a wrong commit under injected chaos fails loudly here.
            let mut m = build_machine(system, 0xFA17 ^ plan.hash(), true);
            m.set_fault_plan(&plan);
            let stats = m
                .run(40_000_000)
                .unwrap_or_else(|e| panic!("{system:?} under '{}': {e}", plan.name));
            assert!(stats.commits > 0, "{system:?} under '{}'", plan.name);
            assert_eq!(
                pool_sum(&m),
                EXPECTED_SUM,
                "{system:?} under '{}': lost or duplicated increments",
                plan.name
            );
        }
    }
}

#[test]
fn abort_storm_injects_and_traces_faults() {
    let mut m = build_machine(HtmSystem::Chats, 3, false);
    m.set_trace_sink(Box::new(RingSink::new(100_000)));
    m.set_fault_plan(&FaultPlan::abort_storm());
    m.run(40_000_000).expect("abort-storm run failed");
    assert!(
        m.fault_injections() > 0,
        "abort storm injected nothing; counts: {:?}",
        m.fault_injection_counts()
    );
    let injected_in_trace = m
        .trace_events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::FaultInjected { .. }))
        .count() as u64;
    assert!(injected_in_trace > 0, "no FaultInjected events in trace");
    assert_eq!(pool_sum(&m), EXPECTED_SUM);
}

#[test]
fn lossy_noc_drops_are_counted_per_kind() {
    let mut m = build_machine(HtmSystem::Pchats, 11, false);
    m.set_fault_plan(&FaultPlan::lossy_noc());
    m.run(40_000_000).expect("lossy-noc run failed");
    let counts = m.fault_injection_counts();
    assert!(!counts.is_empty(), "lossy NoC plan injected nothing");
    let total: u64 = counts.values().sum();
    assert_eq!(total, m.fault_injections());
    assert_eq!(pool_sum(&m), EXPECTED_SUM);
}

/// The directed hang test: dropping validation responses leaves the
/// consumer's `val_req` outstanding forever — there is no retry path for
/// validation probes. Without the watchdog this would spin (or drain into
/// a bare deadlock); with it, the run must end in a structured
/// [`chats_machine::FailureReport`], not a timeout.
#[test]
fn dropped_validation_response_ends_in_failure_report() {
    let mut plan = FaultPlan {
        name: "drop-validation".to_string(),
        watchdog_horizon: 50_000,
        ..FaultPlan::default()
    };
    plan.protocol.drop_validation_data = u64::MAX;
    let mut m = build_machine(HtmSystem::Chats, 5, false);
    m.set_fault_plan(&plan);
    let err = m
        .run(40_000_000)
        .expect_err("every validation response was dropped; the run cannot finish");
    match err {
        SimError::WatchdogStall { report } => {
            assert!(!report.stalled_cores.is_empty());
            assert_eq!(report.horizon, 50_000);
            assert_eq!(report.cores.len(), THREADS);
            // The signature of the injected hang: a stalled core with its
            // validation probe still outstanding.
            assert!(
                report.cores.iter().any(|c| c.val_req.is_some()),
                "no core shows an outstanding validation probe:\n{report}"
            );
            assert!(report.fault_injections > 0);
            assert!(
                !report.recent_events.is_empty(),
                "report carries no trace history"
            );
            let rendered = report.to_string();
            assert!(rendered.contains("no progress within 50000 cycles"));
            assert!(!report.drained, "events were still in flight:\n{report}");
        }
        other => panic!("expected a watchdog failure report, got: {other}"),
    }
}

/// Two threads that deadlock on the fallback lock: thread 0 overflows
/// one L1 set inside a transaction, falls back, and halts inside its
/// fallback section with the lock held; thread 1 begins a transaction
/// later and parks on that lock with no event left to wake it.
fn lock_orphaning_machine() -> Machine {
    let mut holder = ProgramBuilder::new();
    holder.tx_begin();
    let (addr, one) = (Reg(0), Reg(1));
    holder.imm(one, 1);
    for way in 0..6 {
        // 16 sets x 8 words per line: every line maps to set 0.
        holder.imm(addr, way * 16 * 8).store(addr, one);
    }
    holder.halt();
    let mut waiter = ProgramBuilder::new();
    waiter.pause(50_000).tx_begin();
    waiter.imm(addr, 8).imm(one, 1).store(addr, one);
    waiter.tx_end().halt();

    let mut sys = SystemConfig::small_test();
    sys.core.cores = 2;
    let mut m = Machine::new(
        sys,
        PolicyConfig::for_system(HtmSystem::Chats),
        Tuning::default(),
        1,
    );
    m.load_thread(0, Vm::new(holder.build(), 1));
    m.load_thread(1, Vm::new(waiter.build(), 2));
    m
}

/// A queue that drains with live threads under an armed watchdog ends in
/// a report flagged `drained`, at the cycle and with the machine state an
/// unwatched run reports as a bare deadlock.
#[test]
fn a_drained_queue_is_flagged_in_the_failure_report() {
    let (at_cycle, detail) = match lock_orphaning_machine().run(40_000_000) {
        Err(SimError::Deadlock { at_cycle, detail }) => (at_cycle, detail),
        other => panic!("expected the unwatched run to drain, got: {other:?}"),
    };
    let mut watched = lock_orphaning_machine();
    watched.set_watchdog(1 << 40);
    match watched.run(40_000_000) {
        Err(SimError::WatchdogStall { report }) => {
            assert!(report.drained, "the queue drained:\n{report}");
            assert_eq!(report.at_cycle, at_cycle);
            assert_eq!(report.stalled_cores, vec![1]);
            assert_eq!(watched.debug_dump(), detail);
        }
        other => panic!("expected a drained watchdog report, got: {other:?}"),
    }
}

/// A bare watchdog keeps no protocol history: the run records no trace
/// event and its report lists none. A plan's watchdog keeps the history.
#[test]
fn only_a_fault_plans_watchdog_keeps_report_history() {
    let mut watched = lock_orphaning_machine();
    watched.set_watchdog(1 << 40);
    match watched.run(40_000_000) {
        Err(SimError::WatchdogStall { report }) => {
            assert!(report.recent_events.is_empty(), "{report}");
            assert!(!report.to_string().contains("trace event(s)"));
        }
        other => panic!("expected a watchdog report, got: {other:?}"),
    }
    assert!(watched.trace_events().is_empty());

    let mut planned = lock_orphaning_machine();
    planned.set_fault_plan(&FaultPlan {
        name: "watch-only".to_string(),
        watchdog_horizon: 1 << 40,
        ..FaultPlan::default()
    });
    match planned.run(40_000_000) {
        Err(SimError::WatchdogStall { report }) => {
            assert!(!report.recent_events.is_empty(), "{report}");
            assert!(report.to_string().contains("trace event(s):"));
        }
        other => panic!("expected a watchdog report, got: {other:?}"),
    }
    assert!(!planned.trace_events().is_empty());
}

/// Every cycle knob at the largest value a decoded plan may carry, its
/// fault armed at 1000 permille: cycle arithmetic must not overflow
/// (tests build with overflow checks), so each run ends in statistics or
/// a simulation error, never a panic.
#[test]
fn the_largest_decodable_cycle_knobs_do_not_overflow() {
    const CAP: u64 = chats_faults::MAX_CYCLE_KNOB;
    let arms: [fn(&mut FaultPlan); 8] = [
        |p| (p.noc.delay_permille, p.noc.delay_max) = (1000, CAP),
        |p| (p.noc.reorder_permille, p.noc.reorder_window) = (1000, CAP),
        |p| (p.noc.drop_permille, p.noc.drop_timeout) = (1000, CAP),
        |p| (p.htm.freeze_permille, p.htm.freeze_cycles) = (1000, CAP),
        |p| (p.htm.slowdown_permille, p.htm.slowdown_cycles) = (1000, CAP),
        |p| {
            p.htm.spurious_abort_permille = 1000;
            (p.htm.storm_period, p.htm.storm_len) = (CAP, CAP);
        },
        |p| {
            p.protocol.validation_delay_permille = 1000;
            p.protocol.validation_delay_max = CAP;
        },
        |p| p.watchdog_horizon = CAP,
    ];
    for arm in arms {
        let mut plan = FaultPlan::default();
        arm(&mut plan);
        let plan = FaultPlan::from_value(&plan.to_value()).expect("the cap decodes");
        let mut m = build_machine(HtmSystem::Chats, 5, false);
        m.set_fault_plan(&plan);
        let _ = m.run(20_000_000);
    }
}
