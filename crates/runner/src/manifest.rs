//! Run manifests: one JSON document per `run_set` invocation.
//!
//! Manifests land in `target/chats-runs/<run-id>.json` and record enough
//! to audit a sweep after the fact: which sets were requested, per-job
//! outcome/attempts/timing/worker, cache hit rate, and the measured
//! parallel speedup (aggregate job time over wall time). They are
//! built field by field as a [`crate::Json`] tree, so the format does
//! not follow from any type's derived serialization.

use crate::cache::{default_target_dir, CACHE_VERSION};
use crate::hash::fnv1a_64;
use crate::job::JobSet;
use crate::pool::RunReport;
use crate::Json;
use chats_stats::Table;
use std::collections::BTreeMap;
use std::env;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// `$CHATS_RUNS_DIR`, or `chats-runs` under the cargo target directory.
#[must_use]
pub fn default_runs_dir() -> PathBuf {
    if let Some(dir) = env::var_os("CHATS_RUNS_DIR") {
        return dir.into();
    }
    default_target_dir().join("chats-runs")
}

/// Where a manifest was written and under which id.
#[derive(Debug, Clone)]
pub struct ManifestInfo {
    /// `<runs-dir>/<run-id>.json`.
    pub path: PathBuf,
    /// Timestamp-plus-content id, unique per invocation.
    pub run_id: String,
    /// `<runs-dir>/<run-id>/<name>` for each artifact, in the order given.
    pub artifacts: Vec<PathBuf>,
}

/// The artifact name [`write_manifest`] links from the manifest's
/// `profile` field.
pub const PROFILE_ARTIFACT: &str = "profile.json";

/// Builds the manifest JSON document for a report.
#[must_use]
pub fn manifest_json(report: &RunReport, sets: &[String], scale: &str, run_id: &str) -> Json {
    let created_ms = unix_millis();
    let cached = report.count("cached");
    let total = report.records.len();
    let misses = total - cached;

    let mut jobs = BTreeMap::new();
    jobs.insert("total".to_string(), Json::U64(total as u64));
    jobs.insert(
        "executed".to_string(),
        Json::U64(report.count("executed") as u64),
    );
    jobs.insert("cached".to_string(), Json::U64(cached as u64));
    jobs.insert(
        "failed".to_string(),
        Json::U64(report.count("failed") as u64),
    );
    jobs.insert(
        "timed_out".to_string(),
        Json::U64(report.count("timed-out") as u64),
    );
    jobs.insert(
        "determinism_violations".to_string(),
        Json::U64(report.count("determinism-violation") as u64),
    );
    jobs.insert("retries".to_string(), Json::U64(report.retries()));

    let mut cache = BTreeMap::new();
    cache.insert("hits".to_string(), Json::U64(cached as u64));
    cache.insert("misses".to_string(), Json::U64(misses as u64));
    cache.insert(
        "hit_rate".to_string(),
        Json::F64(if total == 0 {
            0.0
        } else {
            cached as f64 / total as f64
        }),
    );

    let mut events_total: u64 = 0;
    let mut commits_total: u64 = 0;
    let per_job: Vec<Json> = report
        .records
        .iter()
        .map(|r| {
            let mut m = BTreeMap::new();
            m.insert("id".to_string(), Json::Str(r.id.clone()));
            m.insert("label".to_string(), Json::Str(r.label.clone()));
            m.insert(
                "outcome".to_string(),
                Json::Str(r.outcome.label().to_string()),
            );
            m.insert("attempts".to_string(), Json::U64(u64::from(r.attempts)));
            m.insert("millis".to_string(), Json::U64(r.millis));
            m.insert("worker".to_string(), Json::U64(r.worker as u64));
            // Wall-time and simulator throughput per job, so the runner's
            // cache and parallelism wins show up in the same perf
            // trajectory as the single-run numbers (a cache hit "replays"
            // the job's events in ~0 time). `events` is a deterministic
            // counter; `events_per_sec` is wall-clock and is stripped by
            // [`canonical_manifest`].
            if let Some(stats) = u64::from_str_radix(&r.id, 16)
                .ok()
                .and_then(|id| report.results.get(&id))
            {
                events_total += stats.events;
                commits_total += stats.commits;
                m.insert("events".to_string(), Json::U64(stats.events));
                m.insert("commits".to_string(), Json::U64(stats.commits));
                m.insert("cycles".to_string(), Json::U64(stats.cycles));
                let secs = (r.millis as f64 / 1000.0).max(0.000_5);
                m.insert(
                    "events_per_sec".to_string(),
                    Json::F64(stats.events as f64 / secs),
                );
                // Commit throughput, both in simulated time (deterministic
                // SLA figure — for the evm family one commit is exactly
                // one user transaction) and against the host wall clock
                // (stripped by [`canonical_manifest`] with the other
                // wall-time fields).
                m.insert(
                    "commits_per_mcycle".to_string(),
                    Json::F64(stats.commits as f64 * 1.0e6 / (stats.cycles.max(1)) as f64),
                );
                m.insert(
                    "commits_per_sec".to_string(),
                    Json::F64(stats.commits as f64 / secs),
                );
            }
            if let Some(err) = r.outcome.error() {
                m.insert("error".to_string(), Json::Str(err.to_string()));
            }
            // Timed-out jobs are first-class: a status field plus the
            // statistics the simulation had gathered when it stopped.
            if matches!(r.outcome, crate::pool::JobOutcome::TimedOut { .. }) {
                m.insert("status".to_string(), Json::Str("timeout".to_string()));
            }
            if let Some(stats) = r.outcome.partial_stats() {
                m.insert(
                    "partial_stats".to_string(),
                    crate::cache::stats_to_json(stats),
                );
            }
            // A checkpointed execution records its epoch-commitment
            // chain: two manifests for the same job can be diffed
            // epoch-by-epoch (see `chats-dissect`) without re-running
            // anything.
            if let Some(meta) = &r.commit {
                m.insert("commit".to_string(), commit_to_json(meta));
            }
            Json::Obj(m)
        })
        .collect();

    let mut root = BTreeMap::new();
    root.insert("run_id".to_string(), Json::Str(run_id.to_string()));
    root.insert("created_unix_ms".to_string(), Json::U64(created_ms));
    root.insert(
        "crate_version".to_string(),
        Json::Str(CACHE_VERSION.to_string()),
    );
    root.insert("scale".to_string(), Json::Str(scale.to_string()));
    root.insert(
        "sets".to_string(),
        Json::Arr(sets.iter().map(|s| Json::Str(s.clone())).collect()),
    );
    root.insert("workers".to_string(), Json::U64(report.workers as u64));
    root.insert(
        "wall_ms".to_string(),
        Json::U64(u64::try_from(report.wall.as_millis()).unwrap_or(u64::MAX)),
    );
    root.insert(
        "busy_ms".to_string(),
        Json::U64(u64::try_from(report.busy().as_millis()).unwrap_or(u64::MAX)),
    );
    root.insert("speedup".to_string(), Json::F64(report.speedup()));
    root.insert("events_total".to_string(), Json::U64(events_total));
    root.insert(
        "events_per_sec".to_string(),
        Json::F64(events_total as f64 / (report.wall.as_secs_f64().max(0.000_5))),
    );
    root.insert("commits_total".to_string(), Json::U64(commits_total));
    root.insert(
        "commits_per_sec".to_string(),
        Json::F64(commits_total as f64 / (report.wall.as_secs_f64().max(0.000_5))),
    );
    root.insert("jobs".to_string(), Json::Obj(jobs));
    root.insert("cache".to_string(), Json::Obj(cache));
    root.insert("per_job".to_string(), Json::Arr(per_job));
    Json::Obj(root)
}

/// The manifest form of a job's commitment bookkeeping: interval, epoch
/// count, optional resume point, and the chain itself with both hashes
/// rendered as 16 hex digits.
fn commit_to_json(meta: &crate::checkpoint::CommitMeta) -> Json {
    let mut m = BTreeMap::new();
    m.insert("interval".to_string(), Json::U64(meta.interval));
    m.insert("epochs".to_string(), Json::U64(meta.chain.len() as u64));
    if let Some(boundary) = meta.resumed_from {
        m.insert("resumed_from".to_string(), Json::U64(boundary));
    }
    m.insert(
        "chain".to_string(),
        Json::Arr(
            meta.chain
                .iter()
                .map(|e| {
                    let mut c = BTreeMap::new();
                    c.insert("boundary".to_string(), Json::U64(e.boundary));
                    c.insert("full".to_string(), Json::Str(format!("{:016x}", e.full)));
                    c.insert("arch".to_string(), Json::Str(format!("{:016x}", e.arch)));
                    Json::Obj(c)
                })
                .collect(),
        ),
    );
    Json::Obj(m)
}

/// Writes the manifest for a report into `dir`, and each artifact, a
/// `(file name, contents)` pair, to `<dir>/<run-id>/<name>`. A
/// [`PROFILE_ARTIFACT`] is also linked from the manifest's `profile`
/// field, relative to `dir`; without one the field is absent, so
/// consumers of older manifests see no change.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_manifest(
    report: &RunReport,
    sets: &[String],
    scale: &str,
    dir: &Path,
    artifacts: &[(String, String)],
) -> io::Result<ManifestInfo> {
    fs::create_dir_all(dir)?;
    let salt: String = report.records.iter().map(|r| r.id.as_str()).collect();
    let run_id = format!(
        "{:013}-{:08x}",
        unix_millis(),
        fnv1a_64(salt.as_bytes()) ^ u64::from(std::process::id())
    );
    let mut doc = manifest_json(report, sets, scale, &run_id);
    let subdir = dir.join(&run_id);
    let mut written = Vec::new();
    for (name, contents) in artifacts {
        fs::create_dir_all(&subdir)?;
        let p = subdir.join(name);
        fs::write(&p, contents)?;
        written.push(p);
        if name == PROFILE_ARTIFACT {
            if let Json::Obj(root) = &mut doc {
                root.insert(
                    "profile".to_string(),
                    Json::Str(format!("{run_id}/{PROFILE_ARTIFACT}")),
                );
            }
        }
    }
    let path = dir.join(format!("{run_id}.json"));
    fs::write(&path, doc.to_pretty())?;
    Ok(ManifestInfo {
        path,
        run_id,
        artifacts: written,
    })
}

/// Renders `report` as a *canonicalized* manifest: the wall-clock fields a
/// manifest legitimately varies in (timestamps, timing, worker ids,
/// scheduling order, derived throughput) are stripped and per-job records
/// are sorted by id, so what remains must be byte-identical across runs
/// and worker counts for a deterministic job set. The determinism proptest
/// and the simulation-core bit-identity golden both diff this form.
#[must_use]
pub fn canonical_manifest(report: &RunReport, sets: &[String], scale: &str) -> String {
    let mut v = manifest_json(report, sets, scale, "canonical");
    if let Json::Obj(root) = &mut v {
        for key in [
            "created_unix_ms",
            "wall_ms",
            "busy_ms",
            "speedup",
            "workers",
            "events_per_sec",
            "commits_per_sec",
        ] {
            root.remove(key);
        }
        if let Some(Json::Arr(jobs)) = root.get_mut("per_job") {
            for job in jobs.iter_mut() {
                if let Json::Obj(m) = job {
                    m.remove("millis");
                    m.remove("worker");
                    m.remove("events_per_sec");
                    m.remove("commits_per_sec");
                    // Where a run resumed from depends on wall-clock
                    // history (which attempt got interrupted); the chain
                    // itself must not.
                    if let Some(Json::Obj(commit)) = m.get_mut("commit") {
                        commit.remove("resumed_from");
                    }
                }
            }
            jobs.sort_by_key(|j| match j.get("id") {
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            });
        }
    }
    v.to_pretty()
}

/// A two-column summary of a report for terminal display.
#[must_use]
pub fn summary_table(report: &RunReport) -> Table {
    let mut t = Table::new(vec!["metric".into(), "value".into()]);
    let mut kv = |k: &str, v: String| {
        t.row(vec![k.to_string(), v]);
    };
    let total = report.records.len();
    kv("jobs", total.to_string());
    kv("workers", report.workers.to_string());
    kv("executed", report.count("executed").to_string());
    kv("cached", report.count("cached").to_string());
    kv("failed", report.count("failed").to_string());
    kv("timed out", report.count("timed-out").to_string());
    kv(
        "determinism violations",
        report.count("determinism-violation").to_string(),
    );
    kv("retries", report.retries().to_string());
    kv("wall time", format!("{:.2} s", report.wall.as_secs_f64()));
    kv(
        "aggregate job time",
        format!("{:.2} s", report.busy().as_secs_f64()),
    );
    kv("parallel speedup", format!("{:.2}x", report.speedup()));
    let hit_rate = if total == 0 {
        0.0
    } else {
        report.count("cached") as f64 / total as f64
    };
    kv("cache hit rate", format!("{:.0}%", hit_rate * 100.0));
    t
}

/// One row per job of `set` (the set `report` ran), in set order: label,
/// outcome, cycles, commits, aborts, forwardings and flits (`-` for a
/// job that produced no statistics).
#[must_use]
pub fn jobs_table(report: &RunReport, set: &JobSet) -> Table {
    let head = [
        "job",
        "outcome",
        "cycles",
        "commits",
        "aborts",
        "forwardings",
        "flits",
    ];
    let mut t = Table::new(head.map(String::from).to_vec());
    for (spec, record) in set.iter().zip(&report.records) {
        let mut row = vec![record.label.clone(), record.outcome.label().to_string()];
        match report.stats_for(spec) {
            Some(s) => row.extend(
                [
                    s.cycles,
                    s.commits,
                    s.total_aborts(),
                    s.forwardings,
                    s.flits,
                ]
                .map(|v| v.to_string()),
            ),
            None => row.resize(head.len(), "-".to_string()),
        }
        t.row(row);
    }
    t
}

fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{JobOutcome, JobRecord};
    use std::collections::HashMap;
    use std::time::Duration;

    fn sample_report() -> RunReport {
        RunReport {
            records: vec![
                JobRecord {
                    id: "00000000000000aa".into(),
                    label: "cadd/chats".into(),
                    outcome: JobOutcome::Executed,
                    attempts: 1,
                    millis: 120,
                    worker: 0,
                    commit: None,
                },
                JobRecord {
                    id: "00000000000000bb".into(),
                    label: "cadd/power".into(),
                    outcome: JobOutcome::Cached,
                    attempts: 0,
                    millis: 1,
                    worker: 1,
                    commit: None,
                },
                JobRecord {
                    id: "00000000000000cc".into(),
                    label: "genome/chats".into(),
                    outcome: JobOutcome::Failed("boom".into()),
                    attempts: 2,
                    millis: 30,
                    worker: 0,
                    commit: None,
                },
                JobRecord {
                    id: "00000000000000dd".into(),
                    label: "yada/chats".into(),
                    outcome: JobOutcome::TimedOut {
                        message: "yada under Chats: timed out at cycle 1000".into(),
                        partial: Some(Box::new(chats_stats::RunStats {
                            cycles: 1000,
                            commits: 7,
                            ..chats_stats::RunStats::default()
                        })),
                    },
                    attempts: 1,
                    millis: 40,
                    worker: 1,
                    commit: None,
                },
            ],
            results: HashMap::new(),
            workers: 2,
            wall: Duration::from_millis(100),
        }
    }

    #[test]
    fn manifest_counts_and_fields() {
        let report = sample_report();
        let m = manifest_json(&report, &["fig4".into()], "quick", "test-run");
        assert_eq!(m.get("run_id").and_then(Json::as_str), Some("test-run"));
        assert_eq!(m.get("scale").and_then(Json::as_str), Some("quick"));
        let jobs = m.get("jobs").unwrap();
        assert_eq!(jobs.get("total").and_then(Json::as_u64), Some(4));
        assert_eq!(jobs.get("executed").and_then(Json::as_u64), Some(1));
        assert_eq!(jobs.get("cached").and_then(Json::as_u64), Some(1));
        assert_eq!(jobs.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(jobs.get("timed_out").and_then(Json::as_u64), Some(1));
        assert_eq!(jobs.get("retries").and_then(Json::as_u64), Some(1));
        let cache = m.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(3));
        let per_job = m.get("per_job").and_then(Json::as_arr).unwrap();
        assert_eq!(per_job.len(), 4);
        assert_eq!(per_job[2].get("error").and_then(Json::as_str), Some("boom"));
        assert!(per_job[0].get("error").is_none());
        assert!(per_job[0].get("status").is_none());
        // A timed-out job carries a status and its partial statistics.
        assert_eq!(
            per_job[3].get("status").and_then(Json::as_str),
            Some("timeout")
        );
        let partial = per_job[3].get("partial_stats").expect("partial stats");
        assert_eq!(partial.get("cycles").and_then(Json::as_u64), Some(1000));
        assert_eq!(partial.get("commits").and_then(Json::as_u64), Some(7));
        // The document round-trips through the parser.
        assert_eq!(Json::parse(&m.to_pretty()).unwrap(), m);
    }

    #[test]
    fn commit_throughput_is_reported_and_canonicalized() {
        let mut report = sample_report();
        report.results.insert(
            0xaa,
            chats_stats::RunStats {
                cycles: 2_000_000,
                commits: 5000,
                events: 9000,
                ..chats_stats::RunStats::default()
            },
        );
        let m = manifest_json(&report, &["evm".into()], "quick", "r");
        assert_eq!(m.get("commits_total").and_then(Json::as_u64), Some(5000));
        assert!(m.get("commits_per_sec").is_some());
        let per_job = m.get("per_job").and_then(Json::as_arr).unwrap();
        assert_eq!(per_job[0].get("commits").and_then(Json::as_u64), Some(5000));
        assert_eq!(
            per_job[0].get("cycles").and_then(Json::as_u64),
            Some(2_000_000)
        );
        assert_eq!(
            per_job[0].get("commits_per_mcycle").and_then(Json::as_f64),
            Some(2500.0)
        );
        // The wall-clock throughput is stripped from the canonical form;
        // the simulated-time SLA figure survives it.
        let canon = canonical_manifest(&report, &["evm".into()], "quick");
        assert!(!canon.contains("commits_per_sec"), "{canon}");
        assert!(canon.contains("commits_per_mcycle"), "{canon}");
        assert!(canon.contains("commits_total"), "{canon}");
    }

    #[test]
    fn commit_meta_is_recorded_and_resume_point_canonicalized_away() {
        use crate::checkpoint::CommitMeta;
        use chats_machine::EpochCommitment;
        let mut report = sample_report();
        report.records[0].commit = Some(CommitMeta {
            interval: 1024,
            resumed_from: Some(2048),
            chain: vec![
                EpochCommitment {
                    boundary: 0,
                    full: 0xAB,
                    arch: 0xCD,
                },
                EpochCommitment {
                    boundary: 1024,
                    full: 0x12,
                    arch: 0x34,
                },
            ],
        });
        let m = manifest_json(&report, &["fig4".into()], "quick", "r");
        let per_job = m.get("per_job").and_then(Json::as_arr).unwrap();
        let commit = per_job[0].get("commit").expect("commit object");
        assert_eq!(commit.get("interval").and_then(Json::as_u64), Some(1024));
        assert_eq!(commit.get("epochs").and_then(Json::as_u64), Some(2));
        assert_eq!(
            commit.get("resumed_from").and_then(Json::as_u64),
            Some(2048)
        );
        let chain = commit.get("chain").and_then(Json::as_arr).unwrap();
        assert_eq!(
            chain[0].get("full").and_then(Json::as_str),
            Some("00000000000000ab")
        );
        assert_eq!(chain[1].get("boundary").and_then(Json::as_u64), Some(1024));
        assert!(per_job[1].get("commit").is_none(), "uncheckpointed jobs");
        // The chain survives canonicalization; the resume point does not.
        let canon = canonical_manifest(&report, &["fig4".into()], "quick");
        assert!(!canon.contains("resumed_from"), "{canon}");
        assert!(canon.contains("00000000000000ab"), "{canon}");
    }

    #[test]
    fn summary_table_mentions_speedup_and_hit_rate() {
        let text = summary_table(&sample_report()).to_string();
        assert!(text.contains("parallel speedup"), "{text}");
        assert!(text.contains("cache hit rate"), "{text}");
        assert!(text.contains("25%"), "{text}");
    }

    #[test]
    fn profile_field_is_optional_and_relative() {
        let report = sample_report();
        // Absent by default: existing manifests and their consumers see no
        // change at all.
        let bare = manifest_json(&report, &["fig4".into()], "quick", "r");
        assert!(bare.get("profile").is_none());

        let dir = std::env::temp_dir().join(format!("chats-profile-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let artifacts = [
            ("fig4.csv".to_string(), "a,b\n".to_string()),
            (PROFILE_ARTIFACT.to_string(), "{\"useful\": 1}".to_string()),
        ];
        let info = write_manifest(&report, &["fig4".into()], "quick", &dir, &artifacts).unwrap();
        assert_eq!(info.artifacts.len(), 2);
        for ((_, contents), path) in artifacts.iter().zip(&info.artifacts) {
            assert_eq!(&std::fs::read_to_string(path).unwrap(), contents);
        }
        let back = Json::parse(&std::fs::read_to_string(&info.path).unwrap()).unwrap();
        assert_eq!(
            back.get("profile").and_then(Json::as_str),
            Some(format!("{}/profile.json", info.run_id).as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_manifest_creates_file() {
        let dir = std::env::temp_dir().join(format!("chats-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let info = write_manifest(&sample_report(), &["fig4".into()], "quick", &dir, &[]).unwrap();
        let text = std::fs::read_to_string(&info.path).unwrap();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("run_id").and_then(Json::as_str),
            Some(info.run_id.as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
