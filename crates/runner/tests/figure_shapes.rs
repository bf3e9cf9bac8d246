//! Shape regressions: the qualitative results each figure's story depends
//! on, asserted at quick scale so CI catches a regression in any layer —
//! policy logic, protocol, workloads or renderers. The numbers themselves
//! are pinned too: every table at quick scale must match
//! `goldens/paper_tables_quick.txt` byte for byte.
//!
//! Every cell is simulated here with the disk cache off: a cache entry
//! is keyed by job and crate version, not by build, so reading one could
//! pass a test on results an older simulator wrote.

use chats_core::{ForwardSet, HtmSystem, PolicyConfig};
use chats_runner::experiments::{self, Scale};
use chats_runner::figures::{self, Cells};
use chats_runner::{JobSet, JobSpec, RunReport, Runner, RunnerConfig};
use chats_stats::RunStats;
use std::fs;
use std::path::Path;

fn run(set: &JobSet) -> RunReport {
    let runner = Runner::new(RunnerConfig {
        use_cache: false,
        quiet: true,
        ..RunnerConfig::default()
    });
    let report = runner.run_set(set);
    assert!(report.all_succeeded(), "a quick-scale job failed");
    report
}

/// `workload` under `policy` on the quick-scale machine.
fn cell(workload: &str, policy: PolicyConfig) -> JobSpec {
    JobSpec::new(workload, policy, Scale::Quick.run_config())
}

/// `workload` under `system`'s Table II configuration.
fn sys(workload: &str, system: HtmSystem) -> JobSpec {
    cell(workload, PolicyConfig::for_system(system))
}

/// Simulates `jobs` on the worker pool and returns their statistics in
/// the order given.
fn measure<const N: usize>(jobs: [JobSpec; N]) -> [RunStats; N] {
    let mut set = JobSet::new();
    for j in &jobs {
        set.push(j.clone());
    }
    let report = run(&set);
    jobs.map(|j| report.stats_for(&j).expect("job ran").clone())
}

#[test]
fn chats_beats_baseline_on_contended_benchmarks() {
    for name in ["kmeans-h", "genome", "yada"] {
        let [base, chats] = measure([sys(name, HtmSystem::Baseline), sys(name, HtmSystem::Chats)])
            .map(|s| s.cycles);
        assert!(
            chats < base,
            "{name}: CHATS {chats} must beat baseline {base}"
        );
    }
}

#[test]
fn uncontended_benchmarks_are_flat() {
    for name in ["ssca2", "vacation-l"] {
        let systems = [HtmSystem::Chats, HtmSystem::Pchats, HtmSystem::Power];
        let [base, rest @ ..] = measure([
            sys(name, HtmSystem::Baseline),
            sys(name, systems[0]),
            sys(name, systems[1]),
            sys(name, systems[2]),
        ])
        .map(|s| s.cycles as f64);
        for (sys, cycles) in systems.iter().zip(rest) {
            let v = cycles / base;
            assert!(
                (0.9..=1.1).contains(&v),
                "{name} under {sys:?}: {v:.3} should be ~1.0"
            );
        }
    }
}

#[test]
fn chats_cuts_aborts_on_contention() {
    let [base, chats] = measure([
        sys("kmeans-h", HtmSystem::Baseline),
        sys("kmeans-h", HtmSystem::Chats),
    ])
    .map(|s| s.total_aborts());
    assert!(chats < base, "CHATS aborts {chats} !< baseline {base}");
}

#[test]
fn chats_cuts_network_flits_on_contention() {
    let [base, chats] = measure([
        sys("kmeans-h", HtmSystem::Baseline),
        sys("kmeans-h", HtmSystem::Chats),
    ])
    .map(|s| s.flits);
    assert!(
        chats < base,
        "Fig. 7 shape: CHATS flits {chats} !< baseline {base}"
    );
}

#[test]
fn forwarding_systems_forward_and_others_do_not() {
    let stats = measure(HtmSystem::ALL.map(|s| sys("kmeans-h", s)));
    for (sys, s) in HtmSystem::ALL.iter().zip(&stats) {
        if sys.forwards() {
            assert!(s.forwardings > 0, "{sys:?} should forward on kmeans-h");
        } else {
            assert_eq!(s.forwardings, 0, "{sys:?} must never forward");
        }
    }
    // Fig. 6 shape: under CHATS, forwarding transactions go on to commit.
    let chats = HtmSystem::ALL
        .iter()
        .position(|&s| s == HtmSystem::Chats)
        .unwrap();
    assert!(
        stats[chats].forwarder_outcomes.committed > 0,
        "Fig. 6 shape: no CHATS forwarder committed on kmeans-h"
    );
}

#[test]
fn restricted_forward_set_is_not_worse_than_write_only() {
    let chats = PolicyConfig::for_system(HtmSystem::Chats);
    let [restricted, write_only] = measure([
        cell(
            "llb-h",
            chats.with_forward_set(ForwardSet::RestrictedReadWrite),
        ),
        cell("llb-h", chats.with_forward_set(ForwardSet::WriteOnly)),
    ])
    .map(|s| s.cycles);
    assert!(
        restricted <= write_only,
        "Fig. 8 shape: Rrestrict/W {restricted} should not lose to W {write_only}"
    );
}

#[test]
fn chats_prefers_many_retries() {
    let chats = PolicyConfig::for_system(HtmSystem::Chats);
    let [one, many] = measure([
        cell("kmeans-h", chats.with_retries(1)),
        cell("kmeans-h", chats.with_retries(32)),
    ])
    .map(|s| s.cycles);
    assert!(
        many <= one,
        "Fig. 9 shape: CHATS with 32 retries ({many}) should not lose to 1 retry ({one})"
    );
}

#[test]
fn vsb_four_matches_vsb_thirty_two() {
    let chats = PolicyConfig::for_system(HtmSystem::Chats);
    let [four, thirty_two] = measure([
        cell("kmeans-h", chats.with_vsb_size(4)),
        cell("kmeans-h", chats.with_vsb_size(32)),
    ])
    .map(|s| s.cycles as f64);
    let ratio = four / thirty_two;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "Fig. 10 shape: VSB=4 must be within 10% of VSB=32, ratio {ratio:.3}"
    );
}

#[test]
fn chats_beats_idealized_levc_on_intruder() {
    let [chats, levc] = measure([
        sys("intruder", HtmSystem::Chats),
        sys("intruder", HtmSystem::LevcBeIdealized),
    ])
    .map(|s| s.cycles);
    assert!(
        chats < levc,
        "Fig. 11 shape: PiC context must beat static timestamps on intruder"
    );
}

/// Every table of [`experiments::available`] at quick scale, rendered as
/// `chats-run run all --smoke` prints it. Regenerate after an
/// *intentional* change to a figure with:
///
/// ```text
/// CHATS_UPDATE_GOLDEN=1 cargo test -p chats-runner --test figure_shapes
/// ```
#[test]
fn every_experiment_id_runs_at_quick_scale() {
    let ids = experiments::available();
    let report = run(&experiments::union(ids.iter().copied(), Scale::Quick).unwrap());
    let cells = Cells::new(Scale::Quick, &report.results);
    let mut actual = String::new();
    for id in ids {
        if let Some(table) = figures::render(id, &cells) {
            let table = table.unwrap_or_else(|e| panic!("{id}: {e}"));
            actual.push_str(&format!("=== {id} ===\n{table}\n"));
        }
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/paper_tables_quick.txt");
    if std::env::var_os("CHATS_UPDATE_GOLDEN").is_some() {
        fs::write(&path, &actual).unwrap();
        eprintln!("figure_shapes: golden rewritten at {}", path.display());
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with CHATS_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        golden, actual,
        "a reproduced table moved (an intentional change needs CHATS_UPDATE_GOLDEN=1)"
    );
}
