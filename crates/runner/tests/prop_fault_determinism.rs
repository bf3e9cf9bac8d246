//! Fault-plan determinism: an identical (seed, plan, workload) triple
//! must yield byte-identical trace streams across two runs, and identical
//! per-job results and (canonicalized) manifests whether the worker pool
//! runs with `--jobs 1` or `--jobs N`.

use chats_core::{HtmSystem, PolicyConfig};
use chats_obs::VecSink;
use chats_runner::hash::fnv1a_64;
use chats_runner::{JobSet, JobSpec, RunReport, Runner, RunnerConfig};
use chats_workloads::{registry, run_workload_traced, FaultPlan, RunConfig};
use proptest::prelude::*;

/// FNV-1a over the rendered event stream: equal hashes mean the two runs
/// emitted byte-identical traces.
fn trace_hash(workload: &str, system: HtmSystem, cfg: &RunConfig) -> (u64, u64) {
    let w = registry::by_name(workload).expect("known workload");
    let (stats, sink) = run_workload_traced(
        w.as_ref(),
        PolicyConfig::for_system(system),
        cfg,
        Box::new(VecSink::new()),
    )
    .expect("faulted run must complete");
    let text: String = VecSink::into_events(sink)
        .iter()
        .map(|e| format!("{e}\n"))
        .collect();
    (fnv1a_64(text.as_bytes()), stats.cycles)
}

/// Canonicalized manifest rendering (wall-clock fields stripped), shared
/// with the bit-identity golden test.
fn canonical_manifest(report: &RunReport) -> String {
    chats_runner::manifest::canonical_manifest(report, &["prop".to_string()], "quick")
}

fn run_pool(set: &JobSet, jobs: usize) -> RunReport {
    let runner = Runner::new(RunnerConfig {
        jobs,
        use_cache: false,
        quiet: true,
        ..RunnerConfig::default()
    });
    runner.run_set(set)
}

fn shipped_plan(idx: usize) -> FaultPlan {
    let mut plans = FaultPlan::shipped();
    plans.remove(idx % plans.len())
}

proptest! {
    // Each case runs five full simulations; a handful of cases per plan
    // already covers the determinism claim.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn faulted_runs_are_bit_deterministic(
        seed in any::<u64>(),
        plan_idx in 0usize..3,
        system in prop_oneof![
            Just(HtmSystem::Chats),
            Just(HtmSystem::Pchats),
            Just(HtmSystem::Power),
        ],
    ) {
        let plan = shipped_plan(plan_idx);
        let mut cfg = RunConfig::quick_test().with_faults(plan.clone());
        cfg.seed = seed;

        // Two traced runs emit byte-identical event streams.
        let a = trace_hash("cadd", system, &cfg);
        let b = trace_hash("cadd", system, &cfg);
        prop_assert_eq!(a, b, "plan {} seed {}", plan.name, seed);

        // The pool yields identical per-job results and canonicalized
        // manifests at 1 worker, 1 worker again, and 4 workers.
        let mut set = JobSet::new();
        for sys in [HtmSystem::Chats, HtmSystem::Pchats, HtmSystem::Power] {
            set.push(JobSpec::new("cadd", PolicyConfig::for_system(sys), cfg.clone()));
        }
        let serial = run_pool(&set, 1);
        let again = run_pool(&set, 1);
        let wide = run_pool(&set, 4);
        for spec in set.iter() {
            let s = serial.stats_for(spec).expect("job ran");
            prop_assert_eq!(Some(s), again.stats_for(spec));
            prop_assert_eq!(Some(s), wide.stats_for(spec));
        }
        let canon = canonical_manifest(&serial);
        prop_assert_eq!(&canon, &canonical_manifest(&again));
        prop_assert_eq!(&canon, &canonical_manifest(&wide));
    }
}
