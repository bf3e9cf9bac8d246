//! CHATS vs the baseline HTM on the evm token-storm scenario: a stream
//! of token mints and transfers, Zipf-skewed onto a handful of hot
//! contract lines, where chaining is the difference between serializing
//! on the hot supply word and forwarding through it.
//!
//! ```text
//! cargo run --release -p chats-runner --example token_storm [txs_per_thread]
//! ```
//!
//! Prints, per system, the commit throughput (in simulated time and in
//! host wall clock), the size of the in-memory protocol trace and the
//! chain-length histogram reconstructed from it.

use chats_core::{HtmSystem, PolicyConfig};
use chats_obs::{Timeline, VecSink};
use chats_stats::Histogram;
use chats_workloads::kernels::evm::EvmWorkload;
use chats_workloads::{run_workload_traced, RunConfig, Workload};

fn main() {
    let txs: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1500);
    let workload = EvmWorkload::token_storm().with_txs_per_thread(txs);
    let cfg = RunConfig::paper();
    println!(
        "{}: {} user transactions ({} threads x {txs}), seed {:#x}",
        workload.name(),
        cfg.threads as u64 * txs,
        cfg.threads,
        cfg.seed
    );

    for system in [HtmSystem::Baseline, HtmSystem::Chats] {
        let t0 = std::time::Instant::now();
        let (s, sink) = run_workload_traced(
            &workload,
            PolicyConfig::for_system(system),
            &cfg,
            Box::new(VecSink::new()),
        )
        .expect("token-storm run completes and conserves balances");
        let wall = t0.elapsed();
        let events = VecSink::into_events(sink);
        let tl = Timeline::rebuild(&events, s.cycles);

        println!();
        println!("== {} ==", system.label());
        println!("  cycles            {}", s.cycles);
        println!(
            "  commits           {} ({} aborts)",
            s.commits,
            s.total_aborts()
        );
        println!(
            "  commits/Mcycle    {:.1}",
            s.commits as f64 * 1.0e6 / s.cycles.max(1) as f64
        );
        println!(
            "  user-txns/sec     {:.0} (host wall clock)",
            s.commits as f64 / wall.as_secs_f64().max(1e-9)
        );
        println!(
            "  trace             {} events, {:.2} B/event in memory",
            events.len(),
            events.encoded_bytes() as f64 / events.len().max(1) as f64
        );
        let chains: Histogram = tl
            .chains
            .chain_len_hist
            .iter()
            .map(|(&l, &n)| (l as u64, n))
            .collect();
        if chains.is_empty() {
            println!("  chain lengths     none (no speculative forwarding)");
        } else {
            println!(
                "  chain lengths     {chains} (mean {:.2}, max {})",
                chains.mean().unwrap_or(0.0),
                chains.max().unwrap_or(0)
            );
        }
    }
}
