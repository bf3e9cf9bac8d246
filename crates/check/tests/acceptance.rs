//! End-to-end acceptance for the checking subsystem: the planted
//! validation-skip bug is found, shrunk, saved and replayed; exploration
//! of the real protocol is deterministic and clean.

use chats_check::{
    choices, explore, explore_scenario, run_scenario, trace_scenario, ExploreBudget, FailureKind,
    Outcome, ProgramSpec, Reproducer, Scenario, Schedule,
};
use chats_core::HtmSystem;
use std::path::PathBuf;

fn buggy(name: &str, seed: u64, program: ProgramSpec) -> Scenario {
    Scenario {
        name: name.to_string(),
        system: HtmSystem::Chats,
        threads: 3,
        seed,
        program,
        max_cycles: 50_000_000,
        skip_validation_bug: true,
        faults: None,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chats-check-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The headline acceptance path: a hidden validation-skip bug makes a
/// consumer commit a stale forwarded snapshot. The checker flags it (the
/// corrupted value becomes globally committed, so it surfaces through the
/// final-state sum invariant), shrinks the schedule, writes a reproducer,
/// and `replay` re-triggers the same failure bit-exactly.
#[test]
fn planted_validation_skip_bug_is_caught_shrunk_and_replayed() {
    let sc = buggy(
        "planted-late",
        1,
        ProgramSpec::LateCommit {
            iters: 8,
            spin: 150,
        },
    );
    let dir = temp_dir("planted");
    let report = explore_scenario(&sc, &ExploreBudget::smoke(), Some(&dir));

    let failure = report.failure.expect("planted bug not caught");
    assert!(
        matches!(
            failure.kind,
            FailureKind::SumMismatch | FailureKind::Violation
        ),
        "unexpected failure kind {:?}",
        failure.kind
    );
    assert!(
        failure.stats.shrunk_len <= failure.stats.original_len,
        "shrinking must never grow the schedule"
    );

    let path = failure.repro_path.expect("no reproducer written");
    let repro = Reproducer::load(&path).expect("reproducer must load back");
    assert_eq!(repro.scenario, sc);
    assert_eq!(repro.prefix, failure.shrunk_prefix);

    let (result, reproduced) = repro.replay();
    assert!(reproduced, "replay did not reproduce: {:?}", result.outcome);
    assert_eq!(result.outcome, Outcome::Fail(failure.kind));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A buggy configuration that *passes* the default schedule (the stale
/// forwards happen to resolve benignly) must still be caught by the
/// schedule sweep — and then the shrunk prefix provably needs at least
/// one non-default decision, otherwise the baseline run would have
/// failed already.
#[test]
fn schedule_sweep_finds_bug_hidden_from_the_default_schedule() {
    let sc = buggy(
        "planted-hidden",
        3,
        ProgramSpec::Observer { iters: 8, pool: 2 },
    );
    let base = run_scenario(&sc, &Schedule::baseline());
    assert_eq!(
        base.outcome,
        Outcome::Pass,
        "precondition: this seed must pass the default schedule"
    );

    let dir = temp_dir("hidden");
    let report = explore_scenario(&sc, &ExploreBudget::smoke(), Some(&dir));
    let failure = report.failure.expect("sweep missed the hidden bug");
    assert!(
        failure.stats.non_default >= 1,
        "a shrunk all-default prefix contradicts the passing baseline"
    );

    // The shrunk prefix alone (no tail policy) re-triggers the failure.
    let replayed = run_scenario(&sc, &Schedule::replay(failure.shrunk_prefix.clone()));
    assert_eq!(replayed.outcome, Outcome::Fail(failure.kind));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Exploration judges schedules without a trace and records one only
/// for a failure, so both runners must judge a failing schedule alike,
/// and the recorded trace must replay to the same result.
#[test]
fn a_failing_schedule_is_judged_alike_with_and_without_a_trace() {
    let sc = buggy(
        "planted-hidden",
        3,
        ProgramSpec::Observer { iters: 8, pool: 2 },
    );
    let report = explore_scenario(&sc, &ExploreBudget::smoke(), None);
    let failure = report.failure.expect("sweep missed the hidden bug");
    let schedule = Schedule::replay(failure.shrunk_prefix);

    let plain = run_scenario(&sc, &schedule);
    let (traced, trace) = trace_scenario(&sc, &schedule);
    assert_eq!(plain.outcome, Outcome::Fail(failure.kind));
    for r in [
        &traced,
        &run_scenario(&sc, &Schedule::replay(choices(&trace))),
    ] {
        assert_eq!(r.outcome, plain.outcome);
        assert_eq!(r.sum, plain.sum);
        assert_eq!(r.image_digest, plain.image_digest);
        assert_eq!(r.detail, plain.detail);
    }
}

/// Shrinking and reproducers work on fault schedules too: a planted bug
/// explored under a fault plan is caught, shrunk, saved (the plan rides
/// inside the reproducer JSON) and replayed bit-exactly — with the fault
/// machinery active in every probe.
#[test]
fn fault_schedules_shrink_and_replay() {
    let mut sc = buggy(
        "planted-faulted",
        1,
        ProgramSpec::LateCommit {
            iters: 8,
            spin: 150,
        },
    );
    sc.faults = Some(chats_check::FaultPlan::abort_storm());
    let dir = temp_dir("faulted");
    let report = explore_scenario(&sc, &ExploreBudget::smoke(), Some(&dir));

    let failure = report.failure.expect("planted bug not caught under faults");
    let path = failure.repro_path.expect("no reproducer written");
    let repro = Reproducer::load(&path).expect("reproducer must load back");
    assert_eq!(
        repro
            .scenario
            .faults
            .as_ref()
            .map(chats_check::FaultPlan::hash),
        sc.faults.as_ref().map(chats_check::FaultPlan::hash),
        "the fault plan must ride inside the reproducer"
    );
    let (result, reproduced) = repro.replay();
    assert!(reproduced, "replay did not reproduce: {:?}", result.outcome);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The smoke exploration's manifest is pinned across builds, byte for
/// byte, by `fixtures/explore-smoke.json` (what `chats-check explore
/// --smoke` writes). A change to the simulator's hot path must leave it
/// alone; after an intentional change to what the machine does,
/// regenerate it with
///
/// ```text
/// CHATS_UPDATE_GOLDEN=1 cargo test -p chats-check --test acceptance
/// ```
#[test]
fn smoke_exploration_matches_its_golden() {
    let budget = ExploreBudget::smoke();
    let actual = explore(&chats_check::smoke_scenarios(), &budget, None, true)
        .to_json(&budget)
        .to_pretty();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/explore-smoke.json");
    if std::env::var_os("CHATS_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with CHATS_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "the smoke exploration drifted from its golden; if the change is \
         intentional, regenerate with CHATS_UPDATE_GOLDEN=1"
    );
}

/// Two explorations of the same suite produce byte-identical manifests:
/// no timestamps, no ambient randomness, schedules all derived from
/// scenario seeds.
#[test]
fn exploration_is_deterministic() {
    let scenarios = &chats_check::smoke_scenarios()[..2];
    let budget = ExploreBudget {
        walks: 1,
        flips: 4,
        attacks: true,
    };
    let a = explore(scenarios, &budget, None, true);
    let b = explore(scenarios, &budget, None, true);
    assert_eq!(
        a.to_json(&budget).to_pretty(),
        b.to_json(&budget).to_pretty()
    );
    assert_eq!(a.failures(), 0, "clean protocol must explore clean");
}
