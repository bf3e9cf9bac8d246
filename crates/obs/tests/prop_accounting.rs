//! Randomized cycle-accounting exactness: for arbitrary small contention
//! configurations, seeds, and every HTM system, the per-core breakdown
//! reconstructed from the trace must partition the run — the five buckets
//! sum EXACTLY to the machine's total cycle count on every core, and the
//! timeline's commit count matches the machine's own statistics. Every
//! traced run also keeps each core's events in time order, which the
//! reconstruction relies on.

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{Machine, TraceEvent, Tuning};
use chats_obs::{Timeline, TraceLog, VecSink};
use chats_sim::{Cycle, SystemConfig};
use chats_tvm::{gen, Vm};
use chats_workloads::{registry, run_workload_traced, RunConfig};
use proptest::prelude::*;

/// Each core's own events, and a `Forward` on its consumer side too, never
/// step back in time; the stream as a whole may, since cores interleave.
fn assert_per_core_time_order(events: &TraceLog, what: &str) {
    let mut last: Vec<Cycle> = Vec::new();
    for ev in events {
        let cores = match ev {
            TraceEvent::Forward { from, to, .. } => [Some(from.into()), Some(to.into())],
            ref other => [other.core(), None],
        };
        for core in cores.into_iter().flatten() {
            if core >= last.len() {
                last.resize(core + 1, Cycle(0));
            }
            assert!(
                ev.at() >= last[core],
                "{what}: core {core} steps back from cycle {} to {ev}",
                last[core].0
            );
            last[core] = ev.at();
        }
    }
}

fn run_case(system: HtmSystem, threads: usize, iters: u64, per_tx: u64, pool: u64, seed: u64) {
    let kernel = gen::torture(iters, per_tx, pool);
    let mut sys = SystemConfig::small_test();
    sys.core.cores = threads;
    let mut m = Machine::new(
        sys,
        PolicyConfig::for_system(system),
        Tuning::default(),
        seed,
    );
    m.set_trace_sink(Box::new(VecSink::new()));
    for t in 0..threads {
        m.load_thread(t, Vm::new(kernel.program.clone(), seed ^ (t as u64) << 7));
    }
    let stats = m
        .run(100_000_000)
        .unwrap_or_else(|e| panic!("{system:?} t={threads} seed={seed}: {e}"));
    let events = VecSink::into_events(m.take_trace_sink().expect("sink installed"));
    assert_per_core_time_order(&events, &format!("{system:?} seed={seed}"));
    let tl = Timeline::rebuild(&events, stats.cycles);

    assert_eq!(tl.cores.len(), threads, "one timeline track per core");
    for (core, ct) in tl.cores.iter().enumerate() {
        assert_eq!(
            ct.breakdown.total(),
            stats.cycles,
            "{system:?} seed={seed}: core {core} buckets {:?} do not sum to {}",
            ct.breakdown,
            stats.cycles
        );
    }
    assert_eq!(
        tl.aggregate().total(),
        stats.cycles * threads as u64,
        "{system:?} seed={seed}: aggregate partition"
    );
    assert_eq!(
        tl.commits(),
        stats.commits,
        "{system:?} seed={seed}: Commit events mirror the commit counter"
    );
}

fn system_strategy() -> impl Strategy<Value = HtmSystem> {
    prop_oneof![
        Just(HtmSystem::Baseline),
        Just(HtmSystem::NaiveRs),
        Just(HtmSystem::Chats),
        Just(HtmSystem::Power),
        Just(HtmSystem::Pchats),
        Just(HtmSystem::LevcBeIdealized),
    ]
}

proptest! {
    // Whole-machine cases are comparatively expensive; 32 cases keeps the
    // test snappy while still crossing systems × shapes × seeds.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn breakdowns_partition_every_run(
        system in system_strategy(),
        threads in 2usize..5,
        iters in 5u64..20,
        per_tx in 1u64..4,
        pool_log in 1u32..4,
        seed in any::<u64>(),
    ) {
        run_case(system, threads, iters, per_tx, 1 << pool_log, seed);
    }
}

/// The same invariant through the workload-runner path (`run_workload_traced`),
/// on real registry kernels.
#[test]
fn workload_runs_partition_exactly() {
    for (name, system) in [
        ("cadd", HtmSystem::Chats),
        ("llb-l", HtmSystem::Baseline),
        ("llb-h", HtmSystem::Pchats),
        ("kmeans-h", HtmSystem::Chats),
        ("evm-token-storm", HtmSystem::Chats),
    ] {
        let workload = registry::by_name(name).expect("registered workload");
        let cfg = RunConfig::quick_test();
        let policy = PolicyConfig::for_system(system);
        let (stats, sink) =
            run_workload_traced(workload.as_ref(), policy, &cfg, Box::new(VecSink::new()))
                .expect("workload completes");
        let events = VecSink::into_events(sink);
        assert_per_core_time_order(&events, &format!("{name} under {system:?}"));
        let tl = Timeline::rebuild(&events, stats.cycles);
        assert_eq!(
            tl.aggregate().total(),
            stats.cycles * tl.cores.len() as u64,
            "{name} under {system:?}"
        );
        assert_eq!(tl.commits(), stats.commits, "{name} under {system:?}");
    }
}
