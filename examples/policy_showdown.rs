//! Policy showdown: run every workload under all six HTM systems and
//! print the normalized execution-time matrix (the Figure 4 / Figure 11
//! view of the whole design space).
//!
//! ```text
//! cargo run --release --example policy_showdown [--quick]
//! ```

use chats::obs::{Timeline, VecSink};
use chats::prelude::*;
use chats::stats::{gmean, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        RunConfig::quick_test()
    } else {
        RunConfig::paper()
    };

    let systems = HtmSystem::ALL;
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(systems.iter().map(|s| s.label().to_string()));
    let mut table = Table::new(headers);
    let mut per_system: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];

    for w in registry::all() {
        let base = run_workload(
            w.as_ref(),
            PolicyConfig::for_system(HtmSystem::Baseline),
            &cfg,
        )
        .expect("baseline runs")
        .cycles as f64;
        let mut vals = Vec::new();
        for (k, &sys) in systems.iter().enumerate() {
            let s = run_workload(w.as_ref(), PolicyConfig::for_system(sys), &cfg)
                .expect("simulation runs");
            let v = s.cycles as f64 / base;
            if !w.is_micro() {
                per_system[k].push(v);
            }
            vals.push(v);
        }
        table.row_f64(w.name(), &vals);
    }
    let gm: Vec<f64> = per_system.iter().map(|v| gmean(v)).collect();
    table.row_f64("gmean", &gm);

    println!("normalized execution time (lower is better, baseline = 1.0)\n");
    println!("{table}");

    // Where do the cycles of a contended run actually go? Trace one
    // representative workload under every policy and break each core-cycle
    // into the paper's buckets (the five columns partition the run).
    let anatomy = registry::by_name("kmeans-h").expect("registered workload");
    let mut acct = Table::new(
        [
            "system",
            "useful",
            "wasted",
            "val-stall",
            "fallback",
            "other",
        ]
        .map(String::from)
        .to_vec(),
    );
    for &sys in systems.iter() {
        let (stats, sink) = run_workload_traced(
            anatomy.as_ref(),
            PolicyConfig::for_system(sys),
            &cfg,
            Box::new(VecSink::new()),
        )
        .expect("traced run completes");
        let events = VecSink::into_events(sink);
        let tl = Timeline::rebuild(&events, stats.cycles);
        let agg = tl.aggregate();
        let total = agg.total().max(1) as f64;
        let pct = |v: u64| format!("{:.1}%", 100.0 * v as f64 / total);
        acct.row(vec![
            sys.label().to_string(),
            pct(agg.useful),
            pct(agg.wasted),
            pct(agg.validation_stall),
            pct(agg.fallback),
            pct(agg.other),
        ]);
    }
    println!("cycle accounting on kmeans-h (share of all core-cycles)\n");
    println!("{acct}");
    println!("every run passed its workload's serializability checker.");
}
