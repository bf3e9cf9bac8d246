//! `read_jsonl` decodes trace files from disk, so it must be total: a
//! recorded `cadd/chats` quick-scale trace with lines swapped, truncated
//! and bytes flipped decodes to `Ok` or `Err` and never panics, every
//! event it accepts re-encodes to an event that decodes to itself, and
//! every trace it accepts folds into a timeline and a report without a
//! panic or a wrapped sum, at any horizon. Every accepted trace also
//! round-trips through a `VecSink`'s compact log, and the timeline
//! rebuilt from the log equals the one rebuilt from the decoded `Vec`.

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{TraceEvent, TraceSink};
use chats_obs::{read_jsonl, text_report, Timeline, VecSink};
use chats_workloads::{registry, run_workload_traced, RunConfig};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The trace `chats-trace record cadd/chats --smoke` writes, one JSON
/// object per line, recorded once per test binary.
fn recorded_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let w = registry::by_name("cadd").unwrap();
        let policy = PolicyConfig::for_system(HtmSystem::Chats);
        let cfg = RunConfig::quick_test();
        let (_, sink) = run_workload_traced(w.as_ref(), policy, &cfg, Box::new(VecSink::new()))
            .expect("cadd/chats completes");
        VecSink::into_events(sink)
            .iter()
            .map(|e| e.to_value().to_compact())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_traces_decode_or_err_and_never_panic(
        start in any::<usize>(),
        len in 1usize..48,
        swaps in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..3),
        cuts in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..3),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        horizon in prop_oneof![0u64..4096, any::<u64>()],
    ) {
        let lines = recorded_lines();
        let start = start % lines.len();
        let mut window: Vec<String> = lines[start..lines.len().min(start + len)].to_vec();
        for (a, b) in swaps {
            let n = window.len();
            window.swap(a % n, b % n);
        }
        for (pick, at) in cuts {
            let n = window.len();
            let line = &mut window[pick % n];
            let mut at = at % (line.len() + 1);
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            line.truncate(at);
        }
        let mut bytes = window.join("\n").into_bytes();
        for (at, mask) in flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
        }
        if let Ok(parsed) = read_jsonl(bytes.as_slice()) {
            let events: Vec<TraceEvent> = parsed.iter().collect();
            let mut sink = VecSink::new();
            for ev in &events {
                sink.record(ev.clone());
            }
            let log = sink.events();
            prop_assert_eq!(log.len(), events.len());
            prop_assert_eq!(log.iter().collect::<Vec<_>>(), events.clone());
            let tl = Timeline::rebuild(&events, horizon);
            prop_assert_eq!(Timeline::rebuild(log, horizon), tl.clone());
            let report = text_report(&tl);
            prop_assert!(report.starts_with(&format!("run: {horizon} cycles")));
            for ev in events {
                prop_assert_eq!(TraceEvent::from_value(&ev.to_value()), Ok(ev));
            }
        }
    }
}

#[test]
fn the_undamaged_trace_decodes_in_full() {
    let lines = recorded_lines();
    assert!(lines.len() > 100, "trace too short: {} events", lines.len());
    let events: Vec<TraceEvent> = read_jsonl(lines.join("\n").as_bytes())
        .unwrap()
        .iter()
        .collect();
    assert_eq!(events.len(), lines.len());
    let mut sink = VecSink::new();
    for ev in &events {
        sink.record(ev.clone());
    }
    assert_eq!(sink.events().iter().collect::<Vec<_>>(), events);
    assert_eq!(
        Timeline::rebuild(sink.events(), u64::MAX),
        Timeline::rebuild(&events, u64::MAX)
    );
    let first = read_jsonl(format!("{}\n{{", lines[0]).as_bytes()).unwrap_err();
    assert!(first.starts_with("line 2: "), "{first}");
}
