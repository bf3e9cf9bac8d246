//! Randomized whole-machine serializability: arbitrary small contention
//! configurations and seeds, every HTM system — committed increments must
//! always sum exactly.

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{Machine, Oracle, Tuning};
use chats_mem::Addr;
use chats_sim::SystemConfig;
use chats_tvm::{gen, Vm};
use proptest::prelude::*;

fn run_case(system: HtmSystem, threads: usize, iters: u64, per_tx: u64, pool: u64, seed: u64) {
    let kernel = gen::torture(iters, per_tx, pool);
    let mut sys = SystemConfig::small_test();
    sys.core.cores = threads;
    let tuning = Tuning {
        oracle: Oracle::Panic,
        ..Tuning::default()
    };
    let mut m = Machine::new(sys, PolicyConfig::for_system(system), tuning, seed);
    for t in 0..threads {
        m.load_thread(t, Vm::new(kernel.program.clone(), seed ^ (t as u64) << 7));
    }
    m.run(100_000_000)
        .unwrap_or_else(|e| panic!("{system:?} t={threads} seed={seed}: {e}"));
    let total: u64 = kernel
        .counters
        .iter()
        .map(|&w| m.inspect_word(Addr(w)))
        .sum();
    let expect = threads as u64 * kernel.per_thread;
    assert_eq!(
        total, expect,
        "{system:?} threads={threads} iters={iters} per_tx={per_tx} pool={pool} seed={seed}"
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
    // Whole-machine cases are comparatively expensive; 48 cases × ~1 ms
    // keeps this test snappy while covering the space.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_contention_is_serializable(
        system in system_strategy(),
        threads in 2usize..5,
        iters in 5u64..25,
        per_tx in 1u64..4,
        pool_log in 1u32..4,
        seed in any::<u64>(),
    ) {
        run_case(system, threads, iters, per_tx, 1 << pool_log, seed);
    }
}
