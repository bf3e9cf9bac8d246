//! Quickstart: run one contended workload under the requester-wins
//! baseline and under CHATS, and compare what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use chats::prelude::*;

fn main() {
    let cfg = RunConfig::paper();
    let workload = registry::by_name("kmeans-h").expect("registered workload");

    println!("workload: kmeans-h ({} threads)\n", cfg.threads);

    let mut rows = Vec::new();
    for system in [HtmSystem::Baseline, HtmSystem::Chats] {
        let policy = PolicyConfig::for_system(system);
        let stats = run_workload(workload.as_ref(), policy, &cfg).expect("simulation runs");
        rows.push((system, stats));
    }

    let base_cycles = rows[0].1.cycles as f64;
    println!(
        "{:<10} {:>10} {:>9} {:>8} {:>12} {:>11} {:>10}",
        "system", "cycles", "norm.time", "commits", "aborts", "forwardings", "validated"
    );
    for (system, s) in &rows {
        println!(
            "{:<10} {:>10} {:>9.3} {:>8} {:>12} {:>11} {:>10}",
            system.label(),
            s.cycles,
            s.cycles as f64 / base_cycles,
            s.commits,
            s.total_aborts(),
            s.forwardings,
            s.validations_ok,
        );
    }

    let speedup = base_cycles / rows[1].1.cycles as f64;
    println!(
        "\nCHATS chained {} speculative forwardings into commits: {:.2}x speedup.",
        rows[1].1.validations_ok, speedup
    );
}
