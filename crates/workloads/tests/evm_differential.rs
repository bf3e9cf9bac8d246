//! Differential correctness for the evm frontier: every HTM policy,
//! clean and under an unreliable interconnect, must produce a final
//! state the sequential ground truth accepts.
//!
//! The scenario builder replays each user-transaction stream on the
//! reference contract machine and bakes the result into the workload's
//! checker (exact word-for-word agreement for the commutative
//! scenarios, conservation sums for the order-dependent dex flows), so
//! `run_workload` returning `Ok` *is* the differential check; these
//! tests sweep it across the whole policy matrix and add the
//! no-lost-update side: exactly one commit per user transaction.

use chats_core::{HtmSystem, PolicyConfig};
use chats_workloads::kernels::evm::EvmWorkload;
use chats_workloads::{run_workload, FaultPlan, RunConfig, Workload};

/// User transactions per thread — scaled down from the paper's 6500 so
/// the 3 scenarios x 6 policies x {clean, lossy} matrix stays fast.
const TXS: u64 = 40;

fn scenarios() -> [EvmWorkload; 3] {
    [
        EvmWorkload::transfers().with_txs_per_thread(TXS),
        EvmWorkload::token_storm().with_txs_per_thread(TXS),
        EvmWorkload::dex().with_txs_per_thread(TXS),
    ]
}

fn check_matrix(cfg: &RunConfig) {
    for w in scenarios() {
        for s in HtmSystem::ALL {
            let stats = run_workload(&w, PolicyConfig::for_system(s), cfg)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name(), s.label()));
            // No lost and no phantom user transaction: each stream
            // entry completes exactly once — as a commit, or (on the
            // lock-based systems) as a non-speculative fallback
            // execution. Power-token grants retry *transactionally*, so
            // there every completion is a commit.
            let done = if s.uses_power_token() {
                stats.commits
            } else {
                stats.commits + stats.fallback_acquisitions
            };
            assert_eq!(done, cfg.threads as u64 * TXS, "{}/{}", w.name(), s.label());
        }
    }
}

#[test]
fn every_policy_matches_sequential_ground_truth() {
    // quick_test arms the atomicity oracle: each commit is additionally
    // checked against the serializability criterion as it happens.
    check_matrix(&RunConfig::quick_test());
}

#[test]
fn ground_truth_holds_under_a_lossy_interconnect() {
    let plan = FaultPlan::shipped()
        .into_iter()
        .find(|p| p.name == "lossy-noc")
        .expect("lossy-noc ships with chats-faults");
    check_matrix(&RunConfig::quick_test().with_faults(plan));
}
