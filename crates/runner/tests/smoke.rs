//! End-to-end smoke tests of the runner's command lines: `chats-run`
//! submit → execute → cache → manifest, twice, against throwaway
//! cache/manifest directories, and `chats-trace` record → report →
//! export.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chats-run-smoke-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn chats_run(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chats-run"))
        .args(args)
        .args(["--cache-dir"])
        .arg(root.join("cache"))
        .args(["--runs-dir"])
        .arg(root.join("runs"))
        .output()
        .expect("spawn chats-run")
}

/// The one-job smoke sweep CI runs: the cheapest workload under CHATS at
/// quick-test scale, executed, then served from cache, with a manifest
/// and a summary for both invocations.
#[test]
fn smoke_run_executes_then_caches_and_writes_manifests() {
    let root = temp_root("run");
    let args = [
        "run", "chains", "--smoke", "--filter", "cadd/", "--jobs", "2",
    ];

    let first = chats_run(&root, &args);
    let stdout = String::from_utf8_lossy(&first.stdout);
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(
        first.status.success(),
        "first run failed:\n{stdout}\n{stderr}"
    );
    assert!(stdout.contains("manifest:"), "{stdout}");
    assert!(stderr.contains("executed"), "{stderr}");

    let second = chats_run(&root, &args);
    let stdout2 = String::from_utf8_lossy(&second.stdout);
    let stderr2 = String::from_utf8_lossy(&second.stderr);
    assert!(
        second.status.success(),
        "second run failed:\n{stdout2}\n{stderr2}"
    );
    assert!(stderr2.contains("cached"), "{stderr2}");
    assert!(stdout2.contains("cache hit rate"), "{stdout2}");
    assert!(
        stdout2.contains("100%"),
        "second run must be fully cached:\n{stdout2}"
    );

    // Two manifests, each valid JSON with the expected skeleton.
    let manifests: Vec<_> = fs::read_dir(root.join("runs")).unwrap().collect();
    assert_eq!(manifests.len(), 2);
    for entry in manifests {
        let text = fs::read_to_string(entry.unwrap().path()).unwrap();
        let doc = chats_runner::Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("scale").and_then(chats_runner::Json::as_str),
            Some("quick")
        );
        let jobs = doc.get("jobs").expect("jobs section");
        assert_eq!(
            jobs.get("total").and_then(chats_runner::Json::as_u64),
            Some(1)
        );
        assert!(doc
            .get("per_job")
            .and_then(chats_runner::Json::as_arr)
            .is_some());
        assert!(doc
            .get("speedup")
            .and_then(chats_runner::Json::as_f64)
            .is_some());
    }

    // Exactly one cache entry was produced for the one job.
    let entries: Vec<_> = fs::read_dir(root.join("cache")).unwrap().collect();
    assert_eq!(entries.len(), 1);

    let _ = fs::remove_dir_all(&root);
}

/// Job labels address single jobs: two labels run two jobs, and the
/// per-job table lists them in the order given.
#[test]
fn smoke_run_takes_job_labels_in_order() {
    let root = temp_root("labels");
    let out = chats_run(
        &root,
        &[
            "run",
            "cadd/chats:r2",
            "cadd/chats:vsb2",
            "--smoke",
            "--quiet",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let rows: Vec<&str> = stdout.lines().filter(|l| l.starts_with("cadd/")).collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    assert!(rows[0].starts_with("cadd/chats:r2 "), "{stdout}");
    assert!(rows[1].starts_with("cadd/chats:vsb2 "), "{stdout}");
    assert!(rows.iter().all(|r| r.contains("executed")), "{stdout}");
    assert_eq!(fs::read_dir(root.join("cache")).unwrap().count(), 2);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn smoke_list_names_jobs_without_running() {
    let root = temp_root("list");
    let out = chats_run(&root, &["list", "chains", "--smoke", "--filter", "cadd/"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("cadd/chats"), "{stdout}");
    assert!(stdout.contains("1 unique jobs"), "{stdout}");
    // --faults takes a shipped plan name as well as a JSON file.
    let faulted = chats_run(
        &root,
        &[
            "list",
            "chains",
            "--smoke",
            "--filter",
            "cadd/",
            "--faults",
            "lossy-noc",
        ],
    );
    let stdout = String::from_utf8_lossy(&faulted.stdout);
    assert!(faulted.status.success(), "{stdout}");
    assert!(stdout.contains("cadd/chats:faults-lossy-noc"), "{stdout}");
    // Listing must not create cache entries.
    assert!(!root.join("cache").exists());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn smoke_clean_empties_the_cache() {
    let root = temp_root("clean");
    let run = chats_run(
        &root,
        &["run", "chains", "--smoke", "--filter", "cadd/", "--quiet"],
    );
    assert!(run.status.success());
    assert_eq!(fs::read_dir(root.join("cache")).unwrap().count(), 1);

    let clean = chats_run(&root, &["clean"]);
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(clean.status.success(), "{stdout}");
    assert!(stdout.contains("removed 1 cache entries"), "{stdout}");
    assert_eq!(fs::read_dir(root.join("cache")).unwrap().count(), 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn unknown_set_and_empty_filter_fail_cleanly() {
    let root = temp_root("errors");
    let bad_set = chats_run(&root, &["run", "fig2", "--smoke"]);
    assert_eq!(bad_set.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_set.stderr).contains("unknown experiment set"));

    let bad_label = chats_run(&root, &["run", "cadd/chats:rx", "--smoke"]);
    assert_eq!(bad_label.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bad_label.stderr);
    assert!(stderr.contains("'cadd/chats:rx'"), "{stderr}");

    let no_match = chats_run(
        &root,
        &["run", "chains", "--smoke", "--filter", "no-such-workload"],
    );
    assert_eq!(no_match.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&no_match.stderr).contains("no jobs match"));

    // A job runs once and its cycle budget is its only timeout: there is
    // no retry count and no wall-clock budget to set.
    for flag in ["--retries", "--timeout", "--timeout-secs"] {
        let out = chats_run(&root, &["run", "chains", "--smoke", flag, "5"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option '{flag}'")),
            "{stderr}"
        );
    }

    // The usage text printed on a bad command lists every set id.
    let bad_command = chats_run(&root, &["frobnicate"]);
    assert_eq!(bad_command.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&bad_command.stderr);
    let listed: Vec<&str> = usage
        .lines()
        .skip_while(|l| !l.starts_with("sets:"))
        .flat_map(str::split_whitespace)
        .collect();
    for id in chats_runner::experiments::available() {
        assert!(listed.contains(id), "usage omits {id}:\n{usage}");
    }
    let _ = fs::remove_dir_all(&root);
}

/// A named figure is printed after the job rows and saved as a CSV in the
/// run's artifact directory; the configuration tables need no jobs.
#[test]
fn smoke_run_prints_and_saves_figure_tables() {
    let root = temp_root("figures");
    let out = chats_run(&root, &["run", "table1", "chains", "--smoke", "--quiet"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let table1 = stdout.find("=== table1 ===").expect("table1 printed");
    let chains = stdout.find("=== chains ===").expect("chains printed");
    let last_job = stdout.rfind("cadd/chats").expect("job rows printed");
    let summary = stdout.find("cache hit rate").expect("summary printed");
    assert!(
        last_job < table1 && table1 < chains && chains < summary,
        "{stdout}"
    );
    let run_dirs: Vec<PathBuf> = fs::read_dir(root.join("runs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    assert_eq!(run_dirs.len(), 1, "{run_dirs:?}");
    for id in ["table1", "chains"] {
        let csv = fs::read_to_string(run_dirs[0].join(format!("{id}.csv"))).unwrap();
        assert!(csv.lines().count() > 1, "{id}.csv: {csv}");
    }

    // Without all of its cells a figure is skipped with one stderr line,
    // and the exit code still reflects the jobs alone.
    let filtered = chats_run(
        &root,
        &["run", "chains", "--smoke", "--quiet", "--filter", "cadd/"],
    );
    assert!(filtered.status.success());
    assert!(!String::from_utf8_lossy(&filtered.stdout).contains("=== chains ==="));
    let stderr = String::from_utf8_lossy(&filtered.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("chains: table skipped, missing cell"),
        "{stderr}"
    );

    let tables_only = chats_run(&root, &["run", "table2", "--smoke", "--quiet"]);
    assert!(tables_only.status.success());
    assert!(String::from_utf8_lossy(&tables_only.stdout).contains("=== table2 ==="));
    let _ = fs::remove_dir_all(&root);
}

fn chats_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chats-trace"))
        .args(args)
        .output()
        .expect("spawn chats-trace")
}

/// `chats-trace` names its run by a job label: record, report and export
/// one quick-scale job, and check the Perfetto export the way CI does —
/// valid JSON with at least one attempt slice on every core.
#[test]
fn trace_records_reports_and_exports_a_labelled_job() {
    let root = temp_root("trace");
    let trace = root.join("cadd.jsonl");
    let export = root.join("cadd.trace.json");
    let (trace_s, export_s) = (trace.to_str().unwrap(), export.to_str().unwrap());

    let record = chats_trace(&["record", "cadd/chats", "--smoke", "--out", trace_s]);
    assert!(
        record.status.success(),
        "{}",
        String::from_utf8_lossy(&record.stderr)
    );
    assert!(root.join("cadd.jsonl.meta.json").exists());

    let report = chats_trace(&["report", "--trace", trace_s]);
    assert!(report.status.success());
    assert!(String::from_utf8_lossy(&report.stdout).contains("useful"));

    let exported = chats_trace(&["export", "--trace", trace_s, "--out", export_s]);
    assert!(exported.status.success());
    let doc = chats_runner::Json::parse(&fs::read_to_string(&export).unwrap()).unwrap();
    let cores = doc
        .get("otherData")
        .and_then(|o| o.get("cores"))
        .and_then(chats_runner::Json::as_u64)
        .unwrap();
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let tids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("cat").and_then(|c| c.as_str()) == Some("attempt")
        })
        .filter_map(|e| e.get("tid").and_then(chats_runner::Json::as_u64))
        .collect();
    assert!(cores >= 1);
    assert_eq!(tids, (0..cores).collect(), "an attempt slice on every core");

    let bad = chats_trace(&["record", "cadd/chats:rx", "--smoke", "--out", trace_s]);
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("'cadd/chats:rx'"), "{stderr}");
    let _ = fs::remove_dir_all(&root);
}

/// Bad input exits 2, as in every other binary, and writes nothing; a
/// failure past the command line (here a trace file that does not
/// exist) exits 1.
#[test]
fn trace_bad_input_exits_2_and_a_failed_command_exits_1() {
    let root = temp_root("trace-input");
    let missing = root.join("missing.jsonl");
    let m = missing.to_str().unwrap();
    let cases: [(&[&str], &str); 7] = [
        (
            &["record", "--smoke", "--out", m],
            "record needs a job label",
        ),
        (&["record", "cadd/chats", "--smoke"], "record needs --out"),
        (&["report"], "report needs --trace"),
        (&["export", "--out", m], "export needs --trace"),
        (&["export", "--trace", m], "export needs --out"),
        (
            &["report", "cadd/chats", "--trace", m],
            "unknown argument 'cadd/chats'",
        ),
        (&["frobnicate"], "unknown command 'frobnicate'"),
    ];
    for (args, says) in cases {
        let out = chats_trace(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
    }
    assert!(!missing.exists(), "bad input must not write the trace");

    let failed = chats_trace(&["report", "--trace", m]);
    assert_eq!(failed.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(stderr.contains("missing.jsonl"), "{stderr}");
    let _ = fs::remove_dir_all(&root);
}

/// A hostile trace file is bad input: a core id past `u16` and a message
/// arriving before its injection each exit 2 naming the line, where they
/// once aborted on a huge allocation and printed a wrapped transit sum.
#[test]
fn trace_report_rejects_hostile_traces_with_exit_2() {
    let root = temp_root("trace-hostile");
    let cases = [
        (
            "huge-core.jsonl",
            "{\"TxBegin\":{\"at\":1,\"core\":0}}\n{\"Commit\":{\"at\":2,\"core\":1099511627776}}\n",
            "line 2: 1099511627776 out of range for u16",
        ),
        (
            "backward-send.jsonl",
            "{\"TxBegin\":{\"at\":1,\"core\":0}}\n\
             {\"NocSend\":{\"at\":9,\"src\":0,\"dst\":4,\"flits\":1,\"arrive\":5}}\n",
            "line 2: NocSend arrives at cycle 5 before its injection at cycle 9",
        ),
    ];
    for (name, text, says) in cases {
        let path = root.join(name);
        fs::write(&path, text).unwrap();
        let out = chats_trace(&[
            "report",
            "--trace",
            path.to_str().unwrap(),
            "--cycles",
            "10",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(says), "{name}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{name}: no report for a rejected trace"
        );
    }
    let _ = fs::remove_dir_all(&root);
}
