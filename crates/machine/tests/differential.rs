//! Cross-policy differential testing: CHATS, requester-wins and naive
//! requester-stalls must be *observationally equivalent* — not just "sums
//! add up", but bit-identical committed memory images.
//!
//! Why this is a legitimate oracle and not an over-constraint: each
//! thread's VM rng is part of its transactional snapshot, so an aborted
//! transaction re-draws the same random addresses on retry. A thread's
//! committed effect is therefore a pure function of `(program, seed)` —
//! a fixed multiset of counter increments — and increments commute, so
//! every serializable policy must converge to the same final image no
//! matter how it ordered, aborted, forwarded or chained the
//! transactions. Any divergence is a lost or duplicated update in one of
//! the policies.

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{Machine, Oracle, Tuning};
use chats_sim::SystemConfig;
use chats_tvm::{gen, Vm};
use std::collections::BTreeMap;

/// The policies under differential comparison. Forwarding-heavy CHATS
/// against the two non-forwarding references: eager requester-wins and
/// naive requester-stalls.
const SYSTEMS: [HtmSystem; 3] = [HtmSystem::Chats, HtmSystem::Baseline, HtmSystem::NaiveRs];

/// Runs `kernel` on `threads` cores under `system` and returns the
/// committed memory image plus total committed increments.
fn run_image(
    system: HtmSystem,
    kernel: &gen::Kernel,
    threads: usize,
    seed: u64,
) -> (BTreeMap<u64, u64>, u64) {
    let mut sys = SystemConfig::small_test();
    sys.core.cores = threads;
    let tuning = Tuning {
        oracle: Oracle::Panic,
        ..Tuning::default()
    };
    let mut m = Machine::new(sys, PolicyConfig::for_system(system), tuning, seed);
    for t in 0..threads {
        m.load_thread(t, Vm::new(kernel.program.clone(), seed ^ ((t as u64) << 7)));
    }
    m.run(100_000_000)
        .unwrap_or_else(|e| panic!("{system:?} threads={threads} seed={seed}: {e}"));
    assert_eq!(
        m.violations(),
        &[],
        "{system:?} seed={seed}: oracle violations"
    );
    let image = m.memory_image();
    let total = kernel
        .counters
        .iter()
        .map(|&w| image.get(&w).copied().unwrap_or(0))
        .sum();
    (image, total)
}

/// All systems must commit the exact sum and converge to the identical
/// memory image.
fn assert_convergence(label: &str, kernel: &gen::Kernel, threads: usize, seed: u64) {
    let expect = threads as u64 * kernel.per_thread;
    let (reference, ref_total) = run_image(SYSTEMS[0], kernel, threads, seed);
    assert_eq!(
        ref_total, expect,
        "{label}: {:?} threads={threads} seed={seed} lost/duplicated increments",
        SYSTEMS[0]
    );
    for &system in &SYSTEMS[1..] {
        let (image, total) = run_image(system, kernel, threads, seed);
        assert_eq!(
            total, expect,
            "{label}: {system:?} threads={threads} seed={seed} lost/duplicated increments"
        );
        assert_eq!(
            image, reference,
            "{label}: {system:?} diverges from {:?} (threads={threads} seed={seed})",
            SYSTEMS[0]
        );
    }
}

#[test]
fn torture_images_converge_across_policies() {
    // A small grid over contention shape: few hot lines (heavy chaining
    // under CHATS) through a spread pool (mostly disjoint commits).
    for &(threads, iters, per_tx, pool, seed) in &[
        (2, 20, 2, 1, 0xD1FF_0001u64),
        (3, 15, 3, 2, 0xD1FF_0002),
        (4, 12, 2, 4, 0xD1FF_0003),
        (4, 10, 4, 8, 0xD1FF_0004),
        (3, 25, 1, 2, 0xD1FF_0005),
    ] {
        let kernel = gen::torture(iters, per_tx, pool);
        assert_convergence("torture", &kernel, threads, seed);
    }
}

#[test]
fn chain_ladder_images_converge_across_policies() {
    // Every thread climbs the same ascending ladder, the worst case for
    // forwarding chains and the best chance for CHATS to diverge from
    // the non-forwarding baselines if validation were ever skipped.
    for &(threads, iters, depth, seed) in &[
        (2, 20, 3, 0xADDE_0001u64),
        (3, 15, 4, 0xADDE_0002),
        (4, 12, 2, 0xADDE_0003),
    ] {
        let kernel = gen::chain_ladder(iters, depth);
        assert_convergence("chain_ladder", &kernel, threads, seed);
    }
}

#[test]
fn observer_images_converge_across_policies() {
    // Read-only scans interleaved with increments: exercises forwarding
    // to pure readers and the atomicity oracle's read-set checks.
    for &(threads, iters, pool, seed) in &[(3, 15, 2, 0x0B5E_0001u64), (4, 10, 4, 0x0B5E_0002)] {
        let kernel = gen::observer(iters, pool);
        assert_convergence("observer", &kernel, threads, seed);
    }
}

#[test]
fn differential_is_deterministic() {
    // The comparison itself must be reproducible: the same (kernel,
    // threads, seed) yields the same image on repeated runs.
    let kernel = gen::torture(10, 2, 4);
    let (a, _) = run_image(HtmSystem::Chats, &kernel, 3, 42);
    let (b, _) = run_image(HtmSystem::Chats, &kernel, 3, 42);
    assert_eq!(a, b);
}
