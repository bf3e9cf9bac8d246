//! `JobSpec::from_label` is the inverse of `JobSpec::label`: every job an
//! experiment set builds comes back from its label with the same id, and
//! no string, however mangled, makes the decoder panic.

use chats_runner::{experiments, JobSpec, Scale};
use chats_workloads::FaultPlan;
use proptest::prelude::*;
use std::sync::OnceLock;

fn assert_round_trips(job: &JobSpec, scale: Scale) {
    let label = job.label();
    let back = JobSpec::from_label(&label, scale).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(back.id(), job.id(), "{label} at {scale:?}");
    assert_eq!(back.label(), label);
}

#[test]
fn every_job_of_all_round_trips_at_both_scales() {
    for scale in [Scale::Paper, Scale::Quick] {
        let all = experiments::set("all", scale).unwrap();
        assert!(all.len() > 100, "{}", all.len());
        for job in all.iter() {
            assert_round_trips(job, scale);
        }
    }
}

#[test]
fn faulted_chains_round_trip() {
    for scale in [Scale::Paper, Scale::Quick] {
        for plan in FaultPlan::shipped() {
            let mut chains = experiments::set("chains", scale).unwrap();
            chains.apply_faults(&plan);
            for job in chains.iter() {
                assert!(job.label().ends_with(&format!(":faults-{}", plan.name)));
                assert_round_trips(job, scale);
            }
        }
    }
}

#[test]
fn a_suffix_restating_a_default_names_the_default_job() {
    let plain = JobSpec::from_label("kmeans-h/chats", Scale::Paper).unwrap();
    for label in ["kmeans-h/chats:r32", "kmeans-h/chats:vsb4:iv50:pic5:t16"] {
        let same = JobSpec::from_label(label, Scale::Paper).unwrap();
        assert_eq!(same.id(), plain.id(), "{label}");
    }
    // Suffix order does not matter either.
    let a = JobSpec::from_label("cadd/chats:r2:vsb8", Scale::Quick).unwrap();
    let b = JobSpec::from_label("cadd/chats:vsb8:r2", Scale::Quick).unwrap();
    assert_eq!(a.id(), b.id());
    assert_eq!(a.label(), "cadd/chats:r2:vsb8");
}

#[test]
fn junk_labels_are_errors_that_name_the_label() {
    for junk in [
        "",
        "cadd",
        "cadd/",
        "cadd/nope",
        "nope/chats",
        "cadd/chats:",
        "cadd/chats:r",
        "cadd/chats:rx",
        "cadd/chats:r-1",
        "cadd/chats:r+1",
        "cadd/chats:r4294967296",
        "cadd/chats:vsb0",
        "cadd/chats:t0",
        "cadd/chats:pic1",
        "cadd/chats:pic8",
        "cadd/chats:fs-nope",
        "cadd/chats:faults-nope",
        "cadd/chats:no-overtakes",
        "cadd/CHATS",
        "cadd/levc-be",
    ] {
        let err = JobSpec::from_label(junk, Scale::Quick).expect_err(junk);
        assert!(err.contains(&format!("'{junk}'")), "{junk}: {err}");
    }
}

/// Characters labels are made of, plus a few that never appear in one.
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz-/:0123456789RW+ .\xc3";

/// Real labels to splice and truncate, built once.
fn real_labels() -> &'static [String] {
    static LABELS: OnceLock<Vec<String>> = OnceLock::new();
    LABELS.get_or_init(|| {
        let mut labels: Vec<String> = experiments::set("all", Scale::Quick)
            .unwrap()
            .iter()
            .map(JobSpec::label)
            .collect();
        labels.push("cadd/chats:faults-lossy-noc".to_string());
        labels
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_strings_never_panic(
        bytes in proptest::collection::vec(0usize..ALPHABET.len(), 0..40),
        raw in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let text: String = bytes.iter().map(|&i| char::from(ALPHABET[i])).collect();
        let _ = JobSpec::from_label(&text, Scale::Quick);
        let _ = JobSpec::from_label(&String::from_utf8_lossy(&raw), Scale::Paper);
    }

    #[test]
    fn spliced_and_truncated_labels_never_panic(
        a in 0usize..10_000,
        b in 0usize..10_000,
        cut_a in 0usize..64,
        cut_b in 0usize..64,
    ) {
        let labels = real_labels();
        let (x, y) = (&labels[a % labels.len()], &labels[b % labels.len()]);
        let head = &x[..cut_a.min(x.len())];
        let tail = &y[cut_b.min(y.len())..];
        for text in [head.to_string(), format!("{head}{tail}"), format!("{head}:{tail}")] {
            if let Ok(job) = JobSpec::from_label(&text, Scale::Quick) {
                // Anything accepted is a well-formed job whose label
                // parses back to the same id.
                let back = JobSpec::from_label(&job.label(), Scale::Quick);
                prop_assert_eq!(back.map(|j| j.id()), Ok(job.id()));
            }
        }
    }
}
