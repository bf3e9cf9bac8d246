//! Chrome-trace / Perfetto JSON export.
//!
//! Produces the legacy Chrome `traceEvents` format, which Perfetto loads
//! natively (<https://ui.perfetto.dev>): one thread track per core,
//! one complete (`ph: "X"`) slice per transaction attempt or fallback
//! episode, nested slices for validation stalls, and flow arrows
//! (`ph: "s"`/`"f"`) from producer to consumer for every forwarding whose
//! two endpoints both have a live slice. Timestamps are simulated cycles
//! reported as microseconds (1 cycle = 1 µs), so Perfetto's time axis
//! reads directly in cycles.

use crate::timeline::{AttemptOutcome, CoreTimeline, Forwarding, Timeline};
use serde::Value;
use std::collections::{BTreeMap, HashMap};

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn str_v(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Renders `timeline` as a Chrome-trace JSON value; serialize it with
/// [`Value::to_compact`] and load the result in Perfetto or
/// `chrome://tracing`.
#[must_use]
pub fn chrome_trace(tl: &Timeline) -> Value {
    let mut events: Vec<Value> = Vec::new();
    let pid = Value::U64(0);

    events.push(map(vec![
        ("name", str_v("process_name")),
        ("ph", str_v("M")),
        ("pid", pid.clone()),
        ("args", map(vec![("name", str_v("chats machine"))])),
    ]));

    for (core, ct) in tl.cores.iter().enumerate() {
        events.push(map(vec![
            ("name", str_v("thread_name")),
            ("ph", str_v("M")),
            ("pid", pid.clone()),
            ("tid", Value::U64(core as u64)),
            ("args", map(vec![("name", str_v(format!("core {core}")))])),
        ]));

        for a in ct.attempts() {
            let (name, outcome) = match a.outcome {
                AttemptOutcome::Committed => ("tx".to_string(), "committed".to_string()),
                AttemptOutcome::Aborted(cause) => (
                    format!("tx abort:{}", cause.label()),
                    format!("aborted:{}", cause.label()),
                ),
                AttemptOutcome::Unfinished => ("tx (unfinished)".into(), "unfinished".into()),
            };
            events.push(map(vec![
                ("name", str_v(name)),
                ("cat", str_v("attempt")),
                ("ph", str_v("X")),
                ("pid", pid.clone()),
                ("tid", Value::U64(core as u64)),
                ("ts", Value::U64(a.span.begin.0)),
                ("dur", Value::U64(a.span.len().max(1))),
                (
                    "args",
                    map(vec![
                        ("outcome", str_v(outcome)),
                        ("val_stall", Value::U64(a.val_stall)),
                        ("validations", Value::U64(u64::from(a.validations))),
                        ("evictions", Value::U64(u64::from(a.evictions))),
                        ("vsb_peak", Value::U64(u64::from(a.vsb_peak))),
                    ]),
                ),
            ]));
            if a.val_stall > 0 && a.span.len() >= a.val_stall {
                // Stall time accumulates at TxEnd, i.e. the tail of the
                // attempt: render it as one nested slice ending at the
                // attempt's end.
                events.push(map(vec![
                    ("name", str_v("validation stall")),
                    ("cat", str_v("stall")),
                    ("ph", str_v("X")),
                    ("pid", pid.clone()),
                    ("tid", Value::U64(core as u64)),
                    ("ts", Value::U64(a.span.end.0 - a.val_stall)),
                    ("dur", Value::U64(a.val_stall)),
                ]));
            }
        }

        for f in &ct.fallbacks {
            events.push(map(vec![
                ("name", str_v("fallback")),
                ("cat", str_v("fallback")),
                ("ph", str_v("X")),
                ("pid", pid.clone()),
                ("tid", Value::U64(core as u64)),
                ("ts", Value::U64(f.begin.0)),
                ("dur", Value::U64(f.len().max(1))),
            ]));
        }
    }

    // Flow arrows producer → consumer. A forwarding only gets an arrow
    // when *both* sides were reconstructed inside an attempt (otherwise
    // the arrow would dangle outside any slice, which Perfetto rejects).
    // The consumer side is the first attempt of the consumer core that
    // consumed the same `(when, producer, line)`.
    let consumers: Vec<HashMap<Forwarding, usize>> = tl.cores.iter().map(first_consumers).collect();
    let mut flow_id: u64 = 0;
    for (from_core, ct) in tl.cores.iter().enumerate() {
        for i in 0..ct.attempts().len() {
            for &(at, to_core, line) in ct.forwards_out(i) {
                let Some(&j) = consumers
                    .get(to_core)
                    .and_then(|first| first.get(&(at, from_core, line)))
                else {
                    continue;
                };
                let consumer = &tl.cores[to_core].attempts()[j];
                flow_id += 1;
                let name = str_v(format!("SpecResp {line}"));
                events.push(map(vec![
                    ("name", name.clone()),
                    ("cat", str_v("forward")),
                    ("ph", str_v("s")),
                    ("id", Value::U64(flow_id)),
                    ("pid", pid.clone()),
                    ("tid", Value::U64(from_core as u64)),
                    ("ts", Value::U64(at.0)),
                ]));
                // Bind the arrow head inside the consumer slice even when
                // the forward instant grazes its edge.
                let head_ts = at.0.max(consumer.span.begin.0);
                events.push(map(vec![
                    ("name", name),
                    ("cat", str_v("forward")),
                    ("ph", str_v("f")),
                    ("bp", str_v("e")),
                    ("id", Value::U64(flow_id)),
                    ("pid", pid.clone()),
                    ("tid", Value::U64(to_core as u64)),
                    ("ts", Value::U64(head_ts)),
                ]));
            }
        }
    }

    map(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", str_v("ns")),
        (
            "otherData",
            map(vec![
                ("total_cycles", Value::U64(tl.total_cycles)),
                ("cores", Value::U64(tl.cores.len() as u64)),
                ("forwardings", Value::U64(tl.chains.forwardings)),
            ]),
        ),
    ])
}

/// Each distinct `(when, producer, line)` that core `ct` consumed, mapped
/// to the first of its attempts that consumed it: one pass over the
/// core's forwardings, so matching every arrow costs one lookup each
/// rather than a scan of the consumer core. The entries come from a trace
/// file, so the map keeps std's keyed hasher.
fn first_consumers(ct: &CoreTimeline) -> HashMap<Forwarding, usize> {
    let mut first = HashMap::new();
    for i in 0..ct.attempts().len() {
        for &f in ct.forwards_in(i) {
            first.entry(f).or_insert(i);
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use chats_machine::TraceEvent;
    use chats_mem::LineAddr;
    use chats_sim::Cycle;

    fn forwarded_pair() -> Timeline {
        let events = vec![
            TraceEvent::TxBegin {
                at: Cycle(0),
                core: 0,
            },
            TraceEvent::TxBegin {
                at: Cycle(0),
                core: 1,
            },
            TraceEvent::Forward {
                at: Cycle(5),
                from: 0,
                to: 1,
                line: LineAddr(7),
                pic: Some(chats_core::Pic::INIT),
            },
            TraceEvent::Commit {
                at: Cycle(10),
                core: 0,
            },
            TraceEvent::Commit {
                at: Cycle(20),
                core: 1,
            },
        ];
        Timeline::rebuild(&events, 25)
    }

    fn slices_of<'v>(v: &'v Value, ph: &str) -> Vec<&'v std::collections::BTreeMap<String, Value>> {
        v.as_obj().unwrap()["traceEvents"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.as_obj().unwrap())
            .filter(|m| m["ph"].as_str() == Some(ph))
            .collect()
    }

    #[test]
    fn emits_one_slice_per_attempt_and_metadata_per_core() {
        let v = chrome_trace(&forwarded_pair());
        let x = slices_of(&v, "X");
        assert_eq!(x.len(), 2);
        let meta = slices_of(&v, "M");
        assert_eq!(meta.len(), 3, "process name + 2 thread names");
    }

    #[test]
    fn flow_arrows_bind_inside_existing_slices() {
        let v = chrome_trace(&forwarded_pair());
        let starts = slices_of(&v, "s");
        let finishes = slices_of(&v, "f");
        assert_eq!(starts.len(), 1);
        assert_eq!(finishes.len(), 1);
        let x = slices_of(&v, "X");
        for arrow in starts.iter().chain(&finishes) {
            let tid = arrow["tid"].as_u64().unwrap();
            let ts = arrow["ts"].as_u64().unwrap();
            let enclosing = x.iter().any(|s| {
                s["tid"].as_u64() == Some(tid) && {
                    let b = s["ts"].as_u64().unwrap();
                    let d = s["dur"].as_u64().unwrap();
                    b <= ts && ts <= b + d
                }
            });
            assert!(enclosing, "arrow at tid={tid} ts={ts} dangles");
        }
    }

    #[test]
    fn forward_without_live_consumer_slice_gets_no_arrow() {
        // The consumer aborts before the forward arrives — no TxBegin is
        // open on core 1 at forward time, so no flow pair is emitted.
        let events = vec![
            TraceEvent::TxBegin {
                at: Cycle(0),
                core: 0,
            },
            TraceEvent::Forward {
                at: Cycle(5),
                from: 0,
                to: 1,
                line: LineAddr(7),
                pic: None,
            },
            TraceEvent::Commit {
                at: Cycle(10),
                core: 0,
            },
        ];
        let tl = Timeline::rebuild(&events, 15);
        let v = chrome_trace(&tl);
        assert!(slices_of(&v, "s").is_empty());
        assert!(slices_of(&v, "f").is_empty());
    }

    #[test]
    fn output_is_valid_json() {
        let v = chrome_trace(&forwarded_pair());
        let text = v.to_compact();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
    }
}
