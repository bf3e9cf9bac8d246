//! The `evm` workload family: smart-contract user-transaction streams
//! (see the `chats-evm` crate) registered as standard workloads.
//!
//! Each wrapper builds one deterministic scenario — per-thread TxVM
//! driver programs over shared account/storage lines, one hardware
//! transaction per user transaction — and turns the scenario's
//! [`StateCheck`](chats_evm::scenario::StateCheck) into the standard
//! final-memory invariant checker: total-balance conservation always,
//! plus word-for-word agreement with the sequential ground truth for the
//! commutative scenarios.

use crate::spec::{MemRegion, ThreadProgram, Workload, WorkloadSetup};
use chats_evm::scenario::{build, ScenarioKind};
use chats_evm::storage::StateLayout;
use chats_sim::SimRng;

/// Default user transactions per thread: at the paper's 16 cores this is
/// 104 000 user transactions per scenario run.
pub const DEFAULT_TXS_PER_THREAD: u64 = 6_500;

/// A scenario from the `chats-evm` frontier, as a registry workload.
#[derive(Debug, Clone)]
pub struct EvmWorkload {
    kind: ScenarioKind,
    txs_per_thread: u64,
}

impl EvmWorkload {
    /// Pairwise native transfers (`evm-transfers`).
    #[must_use]
    pub fn transfers() -> EvmWorkload {
        EvmWorkload {
            kind: ScenarioKind::Transfers,
            txs_per_thread: DEFAULT_TXS_PER_THREAD,
        }
    }

    /// Hot-contract token storm with Zipf-skewed accounts
    /// (`evm-token-storm`).
    #[must_use]
    pub fn token_storm() -> EvmWorkload {
        EvmWorkload {
            kind: ScenarioKind::TokenStorm,
            txs_per_thread: DEFAULT_TXS_PER_THREAD,
        }
    }

    /// Dex swaps with nested calls over background token transfers
    /// (`evm-dex`).
    #[must_use]
    pub fn dex() -> EvmWorkload {
        EvmWorkload {
            kind: ScenarioKind::Dex,
            txs_per_thread: DEFAULT_TXS_PER_THREAD,
        }
    }

    /// Overrides the per-thread user-transaction count (scaling runs up
    /// or down).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_txs_per_thread(mut self, n: u64) -> EvmWorkload {
        assert!(n > 0, "transaction count must be positive");
        self.txs_per_thread = n;
        self
    }

    /// The wrapped scenario kind.
    #[must_use]
    pub fn kind(&self) -> ScenarioKind {
        self.kind
    }

    /// User transactions one thread submits.
    #[must_use]
    pub fn txs_per_thread(&self) -> u64 {
        self.txs_per_thread
    }
}

impl Workload for EvmWorkload {
    fn name(&self) -> &'static str {
        match self.kind {
            ScenarioKind::Transfers => "evm-transfers",
            ScenarioKind::TokenStorm => "evm-token-storm",
            ScenarioKind::Dex => "evm-dex",
        }
    }

    fn family(&self) -> &'static str {
        "evm"
    }

    fn spec(&self) -> Option<String> {
        let l = StateLayout::standard();
        Some(format!(
            "evm:v1:kind={}:txs={}:accounts={}:slots={}",
            self.kind.name(),
            self.txs_per_thread,
            l.accounts,
            l.slots_per_contract
        ))
    }

    fn regions(&self) -> Vec<MemRegion> {
        let l = StateLayout::standard();
        // The parameter tables span from the end of state to wherever
        // the thread count puts them; attribute the whole tail of the
        // line space.
        vec![
            MemRegion {
                name: "accounts",
                base_line: l.account_base_line,
                lines: l.accounts,
            },
            MemRegion {
                name: "token.storage",
                base_line: l.storage_base_line,
                lines: l.slots_per_contract,
            },
            MemRegion {
                name: "dex.storage",
                base_line: l.storage_base_line + l.slots_per_contract,
                lines: l.slots_per_contract,
            },
            MemRegion {
                name: "params",
                base_line: l.end_line(),
                lines: u64::MAX - l.end_line(),
            },
        ]
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let scenario = build(self.kind, threads, self.txs_per_thread, seed);
        let programs = scenario
            .programs
            .into_iter()
            .map(|p| ThreadProgram {
                program: p.program,
                presets: p.presets,
                seed: p.seed,
            })
            .collect();
        let check = scenario.check;
        let checker = Box::new(move |m: &chats_machine::Machine| {
            let mem = m.memory_view();
            check.verify(&mut |a| mem.read(a))
        });
        WorkloadSetup {
            programs,
            init: scenario.init,
            checker,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{smoke, SMOKE_SYSTEMS};
    use crate::spec::{run_workload, RunConfig};
    use chats_core::{HtmSystem, PolicyConfig};

    fn small(w: EvmWorkload) -> EvmWorkload {
        w.with_txs_per_thread(40)
    }

    #[test]
    fn evm_transfers_is_serializable() {
        smoke(&small(EvmWorkload::transfers()), &SMOKE_SYSTEMS);
    }

    #[test]
    fn evm_token_storm_is_serializable() {
        smoke(&small(EvmWorkload::token_storm()), &SMOKE_SYSTEMS);
    }

    #[test]
    fn evm_dex_is_serializable() {
        smoke(&small(EvmWorkload::dex()), &SMOKE_SYSTEMS);
    }

    #[test]
    fn one_commit_per_user_transaction() {
        let w = small(EvmWorkload::token_storm());
        let cfg = RunConfig::quick_test();
        let stats = run_workload(&w, PolicyConfig::for_system(HtmSystem::Chats), &cfg).unwrap();
        assert_eq!(stats.commits, cfg.threads as u64 * w.txs_per_thread());
    }

    #[test]
    fn family_and_spec_are_tagged() {
        let w = EvmWorkload::dex();
        assert_eq!(w.family(), "evm");
        let spec = w.spec().unwrap();
        assert!(spec.contains("kind=dex"), "{spec}");
        assert!(spec.contains("txs=6500"), "{spec}");
        assert_ne!(
            spec,
            EvmWorkload::dex().with_txs_per_thread(7).spec().unwrap()
        );
        assert!(!w.is_micro());
    }

    #[test]
    fn regions_name_the_contract_footprint() {
        let w = EvmWorkload::token_storm();
        let regions = w.regions();
        let names: Vec<_> = regions.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["accounts", "token.storage", "dex.storage", "params"]
        );
        // Regions tile without overlap.
        for pair in regions.windows(2) {
            assert_eq!(pair[0].base_line + pair[0].lines, pair[1].base_line);
        }
    }
}
