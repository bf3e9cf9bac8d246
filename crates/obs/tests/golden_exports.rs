//! Golden-file and Perfetto-semantics tests on a fixed three-core chain.
//!
//! The scenario is fully deterministic: T0 writes line A and lingers, T1
//! reads A and writes line B and lingers, T2 reads B — under CHATS this
//! builds a three-transaction chain with two forwardings and zero aborts.
//! The exported Chrome trace and text report are compared byte-for-byte
//! against checked-in goldens; regenerate them after an intentional
//! timing-model change with:
//!
//! ```text
//! CHATS_UPDATE_GOLDEN=1 cargo test -p chats-obs --test golden_exports
//! ```

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{Machine, Tuning};
use chats_obs::{chrome_trace, read_jsonl, text_report, JsonlSink, Timeline, TraceLog, VecSink};
use chats_sim::SystemConfig;
use chats_stats::RunStats;
use chats_tvm::{Program, ProgramBuilder, Reg, Vm};
use serde::Value;
use std::path::Path;

const LINE_A: u64 = 0;
const LINE_B: u64 = 512;
const OUT: u64 = 1024;

fn producer() -> Program {
    let (a, v) = (Reg(0), Reg(1));
    let mut b = ProgramBuilder::new();
    b.tx_begin();
    b.imm(a, LINE_A);
    b.imm(v, 42);
    b.store(a, v);
    b.pause(600); // keep the tx open while T1 conflicts
    b.tx_end();
    b.halt();
    b.build()
}

fn middle() -> Program {
    let (a, v) = (Reg(0), Reg(1));
    let mut b = ProgramBuilder::new();
    b.pause(120); // let T0 own line A first
    b.tx_begin();
    b.imm(a, LINE_A);
    b.load(v, a); // forwarded from T0
    b.addi(v, v, 1);
    b.imm(a, LINE_B);
    b.store(a, v);
    b.pause(400); // keep the tx open while T2 conflicts
    b.tx_end();
    b.halt();
    b.build()
}

fn tail() -> Program {
    let (a, v) = (Reg(0), Reg(1));
    let mut b = ProgramBuilder::new();
    b.pause(300); // let T1 own line B first
    b.tx_begin();
    b.imm(a, LINE_B);
    b.load(v, a); // forwarded from T1
    b.addi(v, v, 1);
    b.imm(a, OUT);
    b.store(a, v);
    b.tx_end();
    b.halt();
    b.build()
}

fn run_chain3() -> (TraceLog, RunStats) {
    let mut sys = SystemConfig::default();
    sys.core.cores = 3;
    let mut m = Machine::new(
        sys,
        PolicyConfig::for_system(HtmSystem::Chats),
        Tuning::default(),
        1,
    );
    m.set_trace_sink(Box::new(VecSink::new()));
    m.load_thread(0, Vm::new(producer(), 0));
    m.load_thread(1, Vm::new(middle(), 1));
    m.load_thread(2, Vm::new(tail(), 2));
    let stats = m.run(1_000_000).expect("chain scenario completes");
    let events = VecSink::into_events(m.take_trace_sink().expect("sink installed"));
    (events, stats)
}

fn chain3_timeline() -> (Timeline, RunStats) {
    let (events, stats) = run_chain3();
    (Timeline::rebuild(&events, stats.cycles), stats)
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("CHATS_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
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
        "{name} drifted from its golden; if the timing change is \
         intentional, regenerate with CHATS_UPDATE_GOLDEN=1"
    );
}

#[test]
fn scenario_builds_the_expected_chain() {
    let (tl, stats) = chain3_timeline();
    if std::env::var_os("CHATS_DEBUG_CHAIN3").is_some() {
        let (events, _) = run_chain3();
        for e in &events {
            eprintln!("{e}");
        }
    }
    assert_eq!(stats.commits, 3, "all three transactions commit");
    assert_eq!(stats.total_aborts(), 0, "nobody aborts under CHATS");
    assert!(stats.forwardings >= 2, "A and B both travel in SpecResps");
    assert_eq!(tl.commits(), 3);
    // The lingering producers answer re-requests, so each edge may carry
    // more than one SpecResp; the shape is what matters.
    assert!(tl.chains.graph.get(&(0, 1)).is_some_and(|&n| n >= 1));
    assert!(tl.chains.graph.get(&(1, 2)).is_some_and(|&n| n >= 1));
    assert_eq!(tl.chains.graph.len(), 2, "exactly the two chain edges");
    assert_eq!(
        tl.chains.chain_len_hist.get(&3),
        Some(&1),
        "one chain of three transactions"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    let (tl, _) = chain3_timeline();
    let json = chrome_trace(&tl).to_compact();
    check_golden("chain3.chrome.json", &json);
}

#[test]
fn text_report_matches_golden() {
    let (tl, _) = chain3_timeline();
    check_golden("chain3.report.txt", &text_report(&tl));
}

#[test]
fn chrome_trace_satisfies_perfetto_semantics() {
    let (tl, _) = chain3_timeline();
    let v = chrome_trace(&tl);

    // 1. Valid JSON end to end.
    let text = v.to_compact();
    let reparsed = Value::parse(&text).expect("export is valid JSON");
    assert_eq!(reparsed, v);

    let events: Vec<_> = v.as_obj().unwrap()["traceEvents"]
        .as_arr()
        .unwrap()
        .iter()
        .map(|e| e.as_obj().unwrap())
        .collect();

    // 2. Per track, attempt slices are monotone and non-overlapping.
    for core in 0..tl.cores.len() as u64 {
        let mut slices: Vec<(u64, u64)> = events
            .iter()
            .filter(|m| {
                m["ph"].as_str() == Some("X")
                    && m.get("cat").and_then(Value::as_str) == Some("attempt")
                    && m["tid"].as_u64() == Some(core)
            })
            .map(|m| (m["ts"].as_u64().unwrap(), m["dur"].as_u64().unwrap()))
            .collect();
        assert!(!slices.is_empty(), "core {core} has at least one slice");
        let unsorted = slices.clone();
        slices.sort_unstable();
        assert_eq!(slices, unsorted, "slices emitted in begin order");
        for pair in slices.windows(2) {
            assert!(
                pair[0].0 + pair[0].1 <= pair[1].0,
                "attempt slices overlap on core {core}"
            );
        }
    }

    // 3. Every flow event lands inside an attempt slice on its track,
    //    and every `s` has a matching `f` with the same id.
    let flow_ids = |ph: &str| -> Vec<u64> {
        events
            .iter()
            .filter(|m| m["ph"].as_str() == Some(ph))
            .map(|m| m["id"].as_u64().unwrap())
            .collect()
    };
    let starts = flow_ids("s");
    let finishes = flow_ids("f");
    assert_eq!(starts, finishes, "flow starts and finishes pair up");
    assert!(starts.len() >= 2, "both chain edges produce arrows");
    for m in events
        .iter()
        .filter(|m| matches!(m["ph"].as_str(), Some("s" | "f")))
    {
        let tid = m["tid"].as_u64().unwrap();
        let ts = m["ts"].as_u64().unwrap();
        let enclosed = events.iter().any(|s| {
            s["ph"].as_str() == Some("X")
                && s.get("cat").and_then(Value::as_str) == Some("attempt")
                && s["tid"].as_u64() == Some(tid)
                && s["ts"].as_u64().unwrap() <= ts
                && ts <= s["ts"].as_u64().unwrap() + s["dur"].as_u64().unwrap()
        });
        assert!(
            enclosed,
            "flow event at tid={tid} ts={ts} references no slice"
        );
    }
}

#[test]
fn accounting_buckets_sum_exactly_on_the_fixed_run() {
    let (tl, stats) = chain3_timeline();
    for (core, ct) in tl.cores.iter().enumerate() {
        assert_eq!(
            ct.breakdown.total(),
            stats.cycles,
            "core {core} breakdown must partition the whole run"
        );
    }
    let agg = tl.aggregate();
    assert_eq!(agg.total(), stats.cycles * tl.cores.len() as u64);
    assert!(agg.useful > 0, "committed work shows up as useful cycles");
    assert!(
        agg.validation_stall > 0,
        "consumers stall at TxEnd until their VSB drains"
    );
}

#[test]
fn jsonl_sink_round_trips_the_machine_stream() {
    use chats_machine::TraceSink as _;
    let (events, _) = run_chain3();
    let path = std::env::temp_dir().join(format!("chats-obs-rt-{}.jsonl", std::process::id()));
    {
        let mut sink = JsonlSink::create(&path).expect("create temp trace");
        for ev in &events {
            sink.record(ev);
        }
        assert_eq!(sink.dropped(), 0);
    } // Drop flushes.
    let file = std::fs::File::open(&path).expect("open temp trace");
    let parsed = read_jsonl(std::io::BufReader::new(file)).expect("trace parses");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        parsed.iter().collect::<Vec<_>>(),
        events.iter().collect::<Vec<_>>(),
        "JSONL round-trip is lossless"
    );
}
