//! Simulation-core bit-identity acceptance test.
//!
//! The hot path of the simulator (event queue, hot-map hashing, dispatch)
//! is fair game for performance work **only** as long as schedules,
//! traces and manifests stay bit-identical. This test pins that down: one
//! paper-config CHATS run and one `--faults lossy-noc` run are traced to
//! JSONL and pushed through the runner pool, and the resulting bytes are
//! hashed against committed goldens. Any engine change that moves a
//! single event is caught here before it can silently skew every figure.
//!
//! Regenerate after an *intentional* timing-model change with:
//!
//! ```text
//! CHATS_UPDATE_GOLDEN=1 cargo test -p chats-runner --test bit_identity
//! ```

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::FaultPlan;
use chats_obs::JsonlSink;
use chats_runner::hash::fnv1a_64;
use chats_runner::manifest::canonical_manifest;
use chats_runner::{JobSet, JobSpec, Runner, RunnerConfig};
use chats_workloads::{registry, run_workload_traced, RunConfig};
use std::fs;
use std::path::PathBuf;

/// The paper's 16-core hardware with a cycle budget generous enough for
/// the faulted run. Everything else (seed, tuning) is the stock paper
/// configuration, so this exercises the exact machine the figures use.
fn paper_cfg() -> RunConfig {
    RunConfig::paper()
}

fn faulted_cfg() -> RunConfig {
    paper_cfg().with_faults(FaultPlan::lossy_noc())
}

/// Runs `cadd` under CHATS with `cfg`, streaming the protocol trace as
/// JSONL into a temp file, and returns (trace-bytes FNV, cycles, events).
fn traced_run(tag: &str, cfg: &RunConfig) -> (u64, u64, u64) {
    let path = std::env::temp_dir().join(format!(
        "chats-bit-identity-{tag}-{}.jsonl",
        std::process::id()
    ));
    let _ = fs::remove_file(&path);
    let sink = JsonlSink::create(&path).expect("create trace file");
    let w = registry::by_name("cadd").expect("cadd registered");
    let (stats, _sink) = run_workload_traced(
        w.as_ref(),
        PolicyConfig::for_system(HtmSystem::Chats),
        cfg,
        Box::new(sink),
    )
    .expect("paper-config cadd run completes");
    let bytes = fs::read(&path).expect("trace file readable");
    let _ = fs::remove_file(&path);
    assert!(!bytes.is_empty(), "trace must not be empty");
    (fnv1a_64(&bytes), stats.cycles, stats.events)
}

/// Runs both jobs through the worker pool (cache off) and canonicalizes
/// the manifest.
fn pooled_manifest() -> String {
    let mut set = JobSet::new();
    set.push(JobSpec::new(
        "cadd",
        PolicyConfig::for_system(HtmSystem::Chats),
        paper_cfg(),
    ));
    set.push(JobSpec::new(
        "cadd",
        PolicyConfig::for_system(HtmSystem::Chats),
        faulted_cfg(),
    ));
    let runner = Runner::new(RunnerConfig {
        jobs: 2,
        use_cache: false,
        quiet: true,
        ..RunnerConfig::default()
    });
    let report = runner.run_set(&set);
    assert!(report.all_succeeded(), "both identity jobs must succeed");
    canonical_manifest(&report, &["simcore-bit-identity".to_string()], "paper")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("simcore_identity.txt")
}

#[test]
fn simcore_traces_and_manifests_match_goldens() {
    let (clean_hash, clean_cycles, clean_events) = traced_run("clean", &paper_cfg());
    let (fault_hash, fault_cycles, fault_events) = traced_run("lossy", &faulted_cfg());
    let manifest = pooled_manifest();
    let manifest_hash = fnv1a_64(manifest.as_bytes());

    let actual = format!(
        "trace_clean_fnv={clean_hash:016x}\n\
         clean_cycles={clean_cycles}\n\
         clean_events={clean_events}\n\
         trace_lossy_noc_fnv={fault_hash:016x}\n\
         lossy_noc_cycles={fault_cycles}\n\
         lossy_noc_events={fault_events}\n\
         manifest_fnv={manifest_hash:016x}\n"
    );

    let path = golden_path();
    if std::env::var_os("CHATS_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &actual).unwrap();
        eprintln!("bit_identity: golden rewritten at {}", path.display());
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
        "simulation-core bytes diverged from the committed goldens — the \
         hot path is no longer schedule-preserving (or an intentional \
         timing change needs CHATS_UPDATE_GOLDEN=1)"
    );
}
