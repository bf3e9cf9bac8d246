//! Checkpoint/restore round-trip identity and commitment invariance.
//!
//! The robustness contract: a run that pauses, snapshots, restores into a
//! *fresh* machine and continues must be byte-for-byte the run that never
//! paused — clean and under an active fault plan — and the epoch
//! commitment chain a job records must not depend on how many pool
//! workers ran it or whether a trace sink was attached.

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{EpochCommitment, RunProgress};
use chats_obs::VecSink;
use chats_runner::{checkpoint_dir, JobSet, JobSpec, Runner, RunnerConfig};
use chats_workloads::{prepare_run, registry, FaultPlan, PreparedRun, RunConfig};
use proptest::prelude::*;

const STRIDE: u64 = 256;
/// A later boundary where both the golden and the round-tripped machine
/// snapshot for the byte-for-byte comparison.
const MEET: u64 = 1024;

/// Drives `m` to completion in `STRIDE`-sized hops starting at
/// `next_pause`, returning the final statistics.
fn finish(
    m: &mut chats_machine::Machine,
    mut next_pause: u64,
    max_cycles: u64,
) -> chats_stats::RunStats {
    loop {
        match m.run_to(next_pause, max_cycles).expect("run completes") {
            RunProgress::Done(stats) => return stats,
            RunProgress::Paused { at } => next_pause = at + STRIDE,
        }
    }
}

/// One uninterrupted run of `workload` with commitments armed: the
/// snapshot bytes at the `MEET` boundary, the final statistics and the
/// full chain.
fn golden(
    workload: &str,
    cfg: &RunConfig,
) -> (Vec<u8>, chats_stats::RunStats, Vec<EpochCommitment>) {
    let w = registry::by_name(workload).expect("known workload");
    let PreparedRun { mut machine, .. } =
        prepare_run(w.as_ref(), PolicyConfig::for_system(HtmSystem::Chats), cfg);
    machine.set_commit_interval(STRIDE);
    match machine.run_to(MEET, cfg.max_cycles).expect("reaches MEET") {
        RunProgress::Paused { at } => assert_eq!(at, MEET),
        RunProgress::Done(_) => panic!("workload too short to exercise the round trip"),
    }
    let bytes = machine.checkpoint();
    let stats = finish(&mut machine, MEET + STRIDE, cfg.max_cycles);
    (bytes, stats, machine.commitment_chain().to_vec())
}

/// Pause `workload` at the first stride, snapshot, restore into a *fresh*
/// machine, and assert the continued run is byte-for-byte the golden one.
fn round_trip(workload: &str, cfg: &RunConfig, tag: &str) {
    let (golden_bytes, golden_stats, golden_chain) = golden(workload, cfg);

    let w = registry::by_name(workload).expect("known workload");
    let policy = PolicyConfig::for_system(HtmSystem::Chats);
    let PreparedRun { mut machine, .. } = prepare_run(w.as_ref(), policy, cfg);
    machine.set_commit_interval(STRIDE);
    match machine
        .run_to(STRIDE, cfg.max_cycles)
        .expect("reaches STRIDE")
    {
        RunProgress::Paused { at } => assert_eq!(at, STRIDE),
        RunProgress::Done(_) => panic!("workload finished inside one stride"),
    }
    let snapshot = machine.checkpoint();
    drop(machine);

    // A brand-new machine: nothing survives except the snapshot bytes.
    let PreparedRun { mut machine, .. } = prepare_run(w.as_ref(), policy, cfg);
    machine.restore(&snapshot).expect("snapshot restores");
    let state = machine.state_commitment();
    let last = *machine.commitment_chain().last().expect("chain restored");
    assert_eq!(
        state.full, last.full,
        "{tag}: restored state must hash to the chain entry at the boundary"
    );

    match machine.run_to(MEET, cfg.max_cycles).expect("reaches MEET") {
        RunProgress::Paused { at } => assert_eq!(at, MEET),
        RunProgress::Done(_) => panic!("workload finished before MEET"),
    }
    assert_eq!(
        machine.checkpoint(),
        golden_bytes,
        "{tag}: the restored run must be byte-for-byte the uninterrupted run at cycle {MEET}"
    );
    let stats = finish(&mut machine, MEET + STRIDE, cfg.max_cycles);
    assert_eq!(stats, golden_stats, "{tag}: final statistics must match");
    assert_eq!(
        machine.commitment_chain(),
        &golden_chain[..],
        "{tag}: the commitment chain must not notice the interruption"
    );
}

#[test]
fn clean_round_trip_is_byte_identical() {
    round_trip("cadd", &RunConfig::quick_test(), "clean");
}

#[test]
fn round_trip_under_lossy_noc_is_byte_identical() {
    // The fault injector's own state (schedule position, counters) rides
    // in the snapshot's env sections, so restore resumes the *faulted*
    // run bit-exactly — not a clean run from the same cycle.
    let cfg = RunConfig::quick_test().with_faults(FaultPlan::lossy_noc());
    round_trip("cadd", &cfg, "lossy-noc");
}

/// Genome publishes into slot lines from `1 << 16` upward, far above every
/// other workload's heap, so its snapshot carries far-line store,
/// directory and warm-set state.
#[test]
fn genome_round_trip_with_far_lines_is_byte_identical() {
    round_trip("genome", &RunConfig::quick_test(), "genome");
}

/// `true` while some core's L1 holds SM or spec-received lines.
fn holds_speculative_lines(m: &chats_machine::Machine) -> bool {
    (0..m.config().core.cores).any(|c| m.l1(c).iter().any(|e| e.is_speculative()))
}

/// A snapshot taken mid-transaction carries SM and spec-received bits but
/// not the L1's speculative-line log, which `restore` rebuilds from the
/// bits. The restored run's commits and aborts must still clear and drop
/// exactly those lines: same statistics and commitment chain as the run
/// that never paused.
#[test]
fn round_trip_with_speculative_lines_in_flight() {
    let cfg = RunConfig::quick_test();
    let w = registry::by_name("cadd").expect("known workload");
    let policy = PolicyConfig::for_system(HtmSystem::Chats);

    let PreparedRun { mut machine, .. } = prepare_run(w.as_ref(), policy, &cfg);
    machine.set_commit_interval(STRIDE);
    let golden_stats = machine.run(cfg.max_cycles).expect("run completes");
    let golden_chain = machine.commitment_chain().to_vec();

    let PreparedRun { mut machine, .. } = prepare_run(w.as_ref(), policy, &cfg);
    machine.set_commit_interval(STRIDE);
    let mut pause = STRIDE;
    let snapshot = loop {
        match machine.run_to(pause, cfg.max_cycles).expect("run proceeds") {
            RunProgress::Paused { at } if holds_speculative_lines(&machine) => {
                pause = at + STRIDE;
                break machine.checkpoint();
            }
            RunProgress::Paused { at } => pause = at + STRIDE,
            RunProgress::Done(_) => panic!("no boundary found a transaction mid-flight"),
        }
    };
    drop(machine);

    let PreparedRun { mut machine, .. } = prepare_run(w.as_ref(), policy, &cfg);
    machine.restore(&snapshot).expect("snapshot restores");
    assert!(
        holds_speculative_lines(&machine),
        "the restored L1s must hold the snapshot's speculative lines"
    );
    let stats = finish(&mut machine, pause, cfg.max_cycles);
    assert_eq!(stats, golden_stats, "final statistics must match");
    assert_eq!(
        machine.commitment_chain(),
        &golden_chain[..],
        "the commitment chain must not notice the interruption"
    );
}

/// The commitment chain of one machine run, with or without a sink.
fn chain_with_sink(cfg: &RunConfig, traced: bool) -> Vec<EpochCommitment> {
    let w = registry::by_name("cadd").expect("known workload");
    let PreparedRun { mut machine, .. } =
        prepare_run(w.as_ref(), PolicyConfig::for_system(HtmSystem::Chats), cfg);
    machine.set_commit_interval(STRIDE);
    if traced {
        machine.set_trace_sink(Box::new(VecSink::new()));
    }
    machine.run(cfg.max_cycles).expect("run completes");
    machine.commitment_chain().to_vec()
}

/// Commitment chains recorded by the pool at a worker count.
fn pool_chains(
    set: &JobSet,
    jobs: usize,
    dir: &std::path::Path,
) -> Vec<Option<Vec<EpochCommitment>>> {
    let runner = Runner::new(RunnerConfig {
        jobs,
        use_cache: false,
        cache_dir: dir.to_path_buf(),
        checkpoint_every: Some(STRIDE),
        quiet: true,
        ..RunnerConfig::default()
    });
    let report = runner.run_set(set);
    report
        .records
        .iter()
        .map(|r| r.commit.as_ref().map(|c| c.chain.clone()))
        .collect()
}

proptest! {
    // Each case is several full simulations; a few cases per dimension
    // cover the invariance claim.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn commitments_are_invariant_to_workers_and_tracing(
        seed in any::<u64>(),
        faulted in any::<bool>(),
    ) {
        let mut cfg = RunConfig::quick_test();
        cfg.seed = seed;
        if faulted {
            cfg = cfg.with_faults(FaultPlan::lossy_noc());
        }

        // A trace sink must be invisible to the commitment chain.
        let silent = chain_with_sink(&cfg, false);
        let traced = chain_with_sink(&cfg, true);
        prop_assert!(!silent.is_empty(), "armed run must record epochs");
        prop_assert_eq!(&silent, &traced, "trace sink leaked into the state hash");

        // The pool must record the same chain at 1 worker and 4 workers,
        // and it must be the chain the machine computes directly.
        let mut set = JobSet::new();
        for sys in [HtmSystem::Chats, HtmSystem::Baseline] {
            set.push(JobSpec::new("cadd", PolicyConfig::for_system(sys), cfg.clone()));
        }
        let dir = std::env::temp_dir().join(format!(
            "chats-ckpt-prop-{}-{seed:x}",
            std::process::id()
        ));
        let serial = pool_chains(&set, 1, &dir);
        let wide = pool_chains(&set, 4, &dir);
        prop_assert_eq!(&serial, &wide, "worker count leaked into the chain");
        prop_assert_eq!(
            serial[0].as_deref(),
            Some(&silent[..]),
            "pool chain disagrees with a direct machine run"
        );
        // Finished jobs must not leave checkpoint sidecars behind.
        for spec in set.iter() {
            let sidecar = checkpoint_dir(&dir).join(format!("{}.ckpt", spec.id()));
            prop_assert!(!sidecar.exists(), "sidecar left after success");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
