//! Checkable scenarios: a workload kernel plus the machine configuration
//! it runs under, serialisable to JSON so reproducers are self-contained.

use chats_core::HtmSystem;
use chats_machine::FaultPlan;
use chats_runner::Json;
use chats_tvm::gen::{self, Kernel};
use std::collections::BTreeMap;

/// Largest value a decoded program field may take (iterations, counts,
/// spins). Shipped scenarios use at most 200.
pub const MAX_PROGRAM_FIELD: u64 = 1 << 16;

/// Most threads a decoded scenario may ask for. Shipped scenarios use
/// 2-4.
pub const MAX_THREADS: u64 = 64;

/// Which attack kernel a scenario runs (see [`chats_tvm::gen`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramSpec {
    /// Randomized contention over a counter pool.
    Torture {
        /// Transactions per thread.
        iters: u64,
        /// Increments per transaction.
        per_tx: u64,
        /// Counter pool size in lines.
        pool: u64,
    },
    /// Fixed-order ladder building producer→consumer chains.
    ChainLadder {
        /// Transactions per thread.
        iters: u64,
        /// Rungs (lines) per transaction.
        depth: u64,
    },
    /// Read-modify-write enough contended lines to saturate the VSB.
    VsbFiller {
        /// Transactions per thread.
        iters: u64,
        /// Contended lines per transaction.
        lines: u64,
    },
    /// Evict the speculatively received line via same-set fills.
    CapacityProber {
        /// Transactions per thread.
        iters: u64,
        /// L1 set count of the target machine.
        sets: u64,
        /// Same-set filler lines swept per transaction.
        span: u64,
    },
    /// Long in-transaction spin after the increment, delaying commit.
    LateCommit {
        /// Transactions per thread.
        iters: u64,
        /// In-transaction spin cycles.
        spin: u64,
    },
    /// Increment one random counter, read the rest read-only (the kernel
    /// that exercises the commit-time atomicity check directly).
    Observer {
        /// Transactions per thread.
        iters: u64,
        /// Counter pool size in lines.
        pool: u64,
    },
    /// Mint 1 token per transaction to a random account through the
    /// compiled token contract (see [`chats_evm::check_kernel`]): a hot
    /// supply word plus `pool` balance words, each transaction the real
    /// contract-compiler output rather than a hand-built attack.
    EvmMintStorm {
        /// Transactions per thread.
        iters: u64,
        /// Account pool size (balance words).
        pool: u64,
    },
}

impl ProgramSpec {
    /// Builds the kernel (program + counters + per-thread invariant).
    #[must_use]
    pub fn build(&self) -> Kernel {
        match *self {
            ProgramSpec::Torture {
                iters,
                per_tx,
                pool,
            } => gen::torture(iters, per_tx, pool),
            ProgramSpec::ChainLadder { iters, depth } => gen::chain_ladder(iters, depth),
            ProgramSpec::VsbFiller { iters, lines } => gen::vsb_filler(iters, lines),
            ProgramSpec::CapacityProber { iters, sets, span } => {
                gen::capacity_prober(iters, sets, span)
            }
            ProgramSpec::LateCommit { iters, spin } => gen::late_commit(iters, spin),
            ProgramSpec::Observer { iters, pool } => gen::observer(iters, pool),
            ProgramSpec::EvmMintStorm { iters, pool } => {
                chats_evm::check_kernel::mint_storm(iters, pool)
            }
        }
    }

    /// JSON object with a `kind` discriminant.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        let mut put = |k: &str, v: u64| {
            m.insert(k.to_string(), Json::U64(v));
        };
        let kind = match *self {
            ProgramSpec::Torture {
                iters,
                per_tx,
                pool,
            } => {
                put("iters", iters);
                put("per_tx", per_tx);
                put("pool", pool);
                "torture"
            }
            ProgramSpec::ChainLadder { iters, depth } => {
                put("iters", iters);
                put("depth", depth);
                "chain_ladder"
            }
            ProgramSpec::VsbFiller { iters, lines } => {
                put("iters", iters);
                put("lines", lines);
                "vsb_filler"
            }
            ProgramSpec::CapacityProber { iters, sets, span } => {
                put("iters", iters);
                put("sets", sets);
                put("span", span);
                "capacity_prober"
            }
            ProgramSpec::LateCommit { iters, spin } => {
                put("iters", iters);
                put("spin", spin);
                "late_commit"
            }
            ProgramSpec::Observer { iters, pool } => {
                put("iters", iters);
                put("pool", pool);
                "observer"
            }
            ProgramSpec::EvmMintStorm { iters, pool } => {
                put("iters", iters);
                put("pool", pool);
                "evm_mint_storm"
            }
        };
        m.insert("kind".to_string(), Json::Str(kind.to_string()));
        Json::Obj(m)
    }

    /// Inverse of [`ProgramSpec::to_json`].
    ///
    /// Every field is a count the kernel builder asserts is positive, so
    /// a field must lie in `1..=`[`MAX_PROGRAM_FIELD`]; an
    /// `evm_mint_storm` pool must also fit the standard account space.
    /// A decoded spec therefore always builds.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing, malformed or out-of-range
    /// field.
    pub fn from_json(v: &Json) -> Result<ProgramSpec, String> {
        let field = |k: &str| {
            let n = v
                .get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("program: missing numeric field '{k}'"))?;
            if (1..=MAX_PROGRAM_FIELD).contains(&n) {
                Ok(n)
            } else {
                Err(format!(
                    "program: '{k}' must be in 1..={MAX_PROGRAM_FIELD}, got {n}"
                ))
            }
        };
        match v.get("kind").and_then(Json::as_str) {
            Some("torture") => Ok(ProgramSpec::Torture {
                iters: field("iters")?,
                per_tx: field("per_tx")?,
                pool: field("pool")?,
            }),
            Some("chain_ladder") => Ok(ProgramSpec::ChainLadder {
                iters: field("iters")?,
                depth: field("depth")?,
            }),
            Some("vsb_filler") => Ok(ProgramSpec::VsbFiller {
                iters: field("iters")?,
                lines: field("lines")?,
            }),
            Some("capacity_prober") => Ok(ProgramSpec::CapacityProber {
                iters: field("iters")?,
                sets: field("sets")?,
                span: field("span")?,
            }),
            Some("late_commit") => Ok(ProgramSpec::LateCommit {
                iters: field("iters")?,
                spin: field("spin")?,
            }),
            Some("observer") => Ok(ProgramSpec::Observer {
                iters: field("iters")?,
                pool: field("pool")?,
            }),
            Some("evm_mint_storm") => {
                let iters = field("iters")?;
                let pool = field("pool")?;
                let accounts = chats_evm::storage::StateLayout::standard().accounts;
                if pool > accounts {
                    return Err(format!(
                        "program: 'pool' must be at most {accounts} accounts, got {pool}"
                    ));
                }
                Ok(ProgramSpec::EvmMintStorm { iters, pool })
            }
            Some(k) => Err(format!("program: unknown kind '{k}'")),
            None => Err("program: missing 'kind'".to_string()),
        }
    }
}

/// Stable machine-readable key for an [`HtmSystem`] (reproducer JSON):
/// its [`HtmSystem::name`], except for two spellings the reproducer
/// format fixed before that name table existed.
#[must_use]
pub fn system_key(system: HtmSystem) -> &'static str {
    match system.name() {
        "naive-rs" => "naive_rs",
        "levc" => "levc_be_id",
        name => name,
    }
}

/// Inverse of [`system_key`].
#[must_use]
pub fn system_from_key(key: &str) -> Option<HtmSystem> {
    HtmSystem::ALL.into_iter().find(|&s| system_key(s) == key)
}

/// One complete checkable configuration: workload, system, machine seed.
///
/// A scenario is everything `chats-check` needs to rebuild a machine; a
/// scenario plus a decision prefix is everything it needs to rebuild a
/// *run* (see [`crate::repro::Reproducer`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Human-readable identifier (also the reproducer filename stem).
    pub name: String,
    /// HTM system under test.
    pub system: HtmSystem,
    /// Thread count (the machine is built with exactly this many cores).
    pub threads: usize,
    /// Machine seed; also salts the per-thread VM seeds.
    pub seed: u64,
    /// Workload kernel.
    pub program: ProgramSpec,
    /// Cycle budget; exceeding it is *inconclusive*, not a failure.
    pub max_cycles: u64,
    /// Arms the planted validation-skip bug (`Tuning::debug_skip_validation`);
    /// only ever set by tests proving the oracle catches it.
    pub skip_validation_bug: bool,
    /// Fault plan installed on the machine (`None` = fault-free). The
    /// plan rides inside reproducers, so a failing fault schedule replays
    /// and shrinks exactly like a failing decision schedule.
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// JSON object (reproducer format).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("name".to_string(), Json::Str(self.name.clone()));
        m.insert(
            "system".to_string(),
            Json::Str(system_key(self.system).to_string()),
        );
        m.insert("threads".to_string(), Json::U64(self.threads as u64));
        m.insert("seed".to_string(), Json::U64(self.seed));
        m.insert("program".to_string(), self.program.to_json());
        m.insert("max_cycles".to_string(), Json::U64(self.max_cycles));
        m.insert(
            "skip_validation_bug".to_string(),
            Json::Bool(self.skip_validation_bug),
        );
        // The key is absent for fault-free scenarios, so their canonical
        // form (and reproducer hash) is unchanged from before fault plans
        // existed.
        if let Some(plan) = &self.faults {
            m.insert("faults".to_string(), plan.to_value());
        }
        Json::Obj(m)
    }

    /// Inverse of [`Scenario::to_json`]. `threads` must lie in
    /// `1..=`[`MAX_THREADS`]; the program decodes by [`ProgramSpec::from_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing, malformed or out-of-range
    /// field.
    pub fn from_json(v: &Json) -> Result<Scenario, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("scenario: missing 'name'")?
            .to_string();
        let system = v
            .get("system")
            .and_then(Json::as_str)
            .and_then(system_from_key)
            .ok_or("scenario: missing or unknown 'system'")?;
        let threads = v
            .get("threads")
            .and_then(Json::as_u64)
            .ok_or("scenario: missing 'threads'")?;
        if !(1..=MAX_THREADS).contains(&threads) {
            return Err(format!(
                "scenario: 'threads' must be in 1..={MAX_THREADS}, got {threads}"
            ));
        }
        let threads = threads as usize;
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("scenario: missing 'seed'")?;
        let program =
            ProgramSpec::from_json(v.get("program").ok_or("scenario: missing 'program'")?)?;
        let max_cycles = v
            .get("max_cycles")
            .and_then(Json::as_u64)
            .ok_or("scenario: missing 'max_cycles'")?;
        let skip_validation_bug = v
            .get("skip_validation_bug")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let faults = match v.get("faults") {
            None => None,
            Some(f) => Some(FaultPlan::from_value(f).map_err(|e| format!("scenario: {e}"))?),
        };
        Ok(Scenario {
            name,
            system,
            threads,
            seed,
            program,
            max_cycles,
            skip_validation_bug,
            faults,
        })
    }

    /// Canonical single-line rendering (hash input for reproducer names).
    #[must_use]
    pub fn canonical(&self) -> String {
        self.to_json().to_compact()
    }
}

fn scenario(
    name: &str,
    system: HtmSystem,
    threads: usize,
    seed: u64,
    program: ProgramSpec,
) -> Scenario {
    Scenario {
        name: name.to_string(),
        system,
        threads,
        seed,
        program,
        max_cycles: 50_000_000,
        skip_validation_bug: false,
        faults: None,
    }
}

/// Installs `plan` on every scenario of a suite, tagging the names so
/// progress lines and reproducers identify the plan at a glance.
pub fn apply_fault_plan(scenarios: &mut [Scenario], plan: &FaultPlan) {
    for s in scenarios.iter_mut() {
        s.name = format!("{}+{}", s.name, plan.name);
        s.faults = Some(plan.clone());
    }
}

/// The quick deterministic suite for CI (`chats-check explore --smoke`):
/// one scenario per kernel shape, forwarding systems only, small budgets.
#[must_use]
pub fn smoke_scenarios() -> Vec<Scenario> {
    use HtmSystem::{Chats, NaiveRs};
    vec![
        scenario(
            "smoke-torture-chats",
            Chats,
            3,
            11,
            ProgramSpec::Torture {
                iters: 8,
                per_tx: 2,
                pool: 2,
            },
        ),
        scenario(
            "smoke-ladder-chats",
            Chats,
            3,
            12,
            ProgramSpec::ChainLadder { iters: 6, depth: 3 },
        ),
        scenario(
            "smoke-vsb-chats",
            Chats,
            3,
            13,
            ProgramSpec::VsbFiller { iters: 4, lines: 6 },
        ),
        scenario(
            "smoke-capacity-chats",
            Chats,
            2,
            14,
            ProgramSpec::CapacityProber {
                iters: 5,
                sets: 16,
                span: 5,
            },
        ),
        scenario(
            "smoke-late-naive",
            NaiveRs,
            3,
            15,
            ProgramSpec::LateCommit {
                iters: 6,
                spin: 120,
            },
        ),
        scenario(
            "smoke-observer-chats",
            Chats,
            3,
            16,
            ProgramSpec::Observer { iters: 8, pool: 2 },
        ),
        scenario(
            "smoke-evm-mint-chats",
            Chats,
            3,
            17,
            ProgramSpec::EvmMintStorm { iters: 6, pool: 2 },
        ),
    ]
}

/// The full suite: every forwarding-relevant system over every kernel
/// shape at moderate contention.
#[must_use]
pub fn full_scenarios() -> Vec<Scenario> {
    let systems = [
        HtmSystem::Baseline,
        HtmSystem::NaiveRs,
        HtmSystem::Chats,
        HtmSystem::Pchats,
    ];
    let programs: [(&str, ProgramSpec); 7] = [
        (
            "torture",
            ProgramSpec::Torture {
                iters: 12,
                per_tx: 3,
                pool: 4,
            },
        ),
        (
            "ladder",
            ProgramSpec::ChainLadder {
                iters: 10,
                depth: 4,
            },
        ),
        ("vsb", ProgramSpec::VsbFiller { iters: 6, lines: 6 }),
        (
            "capacity",
            ProgramSpec::CapacityProber {
                iters: 8,
                sets: 16,
                span: 5,
            },
        ),
        (
            "late",
            ProgramSpec::LateCommit {
                iters: 8,
                spin: 200,
            },
        ),
        ("observer", ProgramSpec::Observer { iters: 10, pool: 2 }),
        ("evm-mint", ProgramSpec::EvmMintStorm { iters: 8, pool: 4 }),
    ];
    let mut out = Vec::new();
    for (si, &system) in systems.iter().enumerate() {
        for (pi, (pname, program)) in programs.iter().enumerate() {
            let name = format!("{pname}-{}", system_key(system));
            let seed = 100 + (si * programs.len() + pi) as u64;
            out.push(scenario(&name, system, 4, seed, *program));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_specs_round_trip() {
        let specs = [
            ProgramSpec::Torture {
                iters: 1,
                per_tx: 2,
                pool: 3,
            },
            ProgramSpec::ChainLadder { iters: 4, depth: 5 },
            ProgramSpec::VsbFiller { iters: 6, lines: 7 },
            ProgramSpec::CapacityProber {
                iters: 8,
                sets: 16,
                span: 9,
            },
            ProgramSpec::LateCommit {
                iters: 10,
                spin: 11,
            },
            ProgramSpec::Observer {
                iters: 12,
                pool: 13,
            },
            ProgramSpec::EvmMintStorm {
                iters: 14,
                pool: 15,
            },
        ];
        for s in specs {
            assert_eq!(ProgramSpec::from_json(&s.to_json()), Ok(s));
        }
    }

    #[test]
    fn scenario_round_trips_through_json_text() {
        for sc in smoke_scenarios() {
            let text = sc.to_json().to_pretty();
            let back = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, sc);
        }
    }

    #[test]
    fn fault_plans_ride_inside_scenario_json() {
        let plain = smoke_scenarios().remove(0);
        assert!(
            !plain.to_json().to_compact().contains("faults"),
            "fault-free scenarios keep the pre-fault canonical form"
        );
        let mut suite = vec![plain.clone()];
        apply_fault_plan(&mut suite, &FaultPlan::lossy_noc());
        let sc = suite.remove(0);
        assert_eq!(sc.name, format!("{}+lossy-noc", plain.name));
        let text = sc.to_json().to_pretty();
        let back = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, sc);
        assert_eq!(
            back.faults.as_ref().map(FaultPlan::hash),
            sc.faults.as_ref().map(FaultPlan::hash)
        );
        assert_ne!(sc.canonical(), plain.canonical());
    }

    #[test]
    fn system_keys_round_trip() {
        for s in HtmSystem::ALL {
            assert_eq!(system_from_key(system_key(s)), Some(s));
        }
        assert_eq!(system_from_key("nope"), None);
    }

    #[test]
    fn suite_names_are_unique() {
        for suite in [smoke_scenarios(), full_scenarios()] {
            let mut names: Vec<_> = suite.iter().map(|s| s.name.clone()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), suite.len());
        }
    }

    #[test]
    fn suites_never_arm_the_planted_bug() {
        for sc in smoke_scenarios().into_iter().chain(full_scenarios()) {
            assert!(!sc.skip_validation_bug, "{}", sc.name);
        }
    }
}
