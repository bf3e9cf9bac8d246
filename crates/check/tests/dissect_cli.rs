//! End-to-end tests of the `chats-dissect` command line: both sides are
//! named by job labels, B defaulting to A.

use chats_runner::Json;
use std::process::{Command, Output};

fn chats_dissect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chats-dissect"))
        .args(args)
        .output()
        .expect("spawn chats-dissect")
}

#[test]
fn one_label_dissects_the_identical_pair() {
    let out = chats_dissect(&["cadd/chats", "--smoke", "--interval", "256"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("identical:"), "{stdout}");
}

#[test]
fn a_faulted_side_b_pins_the_first_injection() {
    let report =
        std::env::temp_dir().join(format!("chats-dissect-cli-{}.json", std::process::id()));
    let out = chats_dissect(&[
        "cadd/chats",
        "cadd/chats:faults-lossy-noc",
        "--smoke",
        "--interval",
        "256",
        "--assert-fault-match",
        "--quiet",
        "--report",
        report.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let _ = std::fs::remove_file(&report);
    let event = doc.get("first_divergent_event").expect("event pinned");
    assert_eq!(
        event.get("fault_injected_here").and_then(Json::as_bool),
        Some(true)
    );
    let label = |side: &str| doc.get(side)?.get("label")?.as_str().map(str::to_string);
    assert_eq!(label("a").as_deref(), Some("cadd/chats"));
    assert_eq!(label("b").as_deref(), Some("cadd/chats:faults-lossy-noc"));
}

#[test]
fn a_bad_label_is_a_usage_error() {
    let out = chats_dissect(&["cadd/chats", "cadd/chats:faults-nope", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'cadd/chats:faults-nope'"), "{stderr}");
}
