//! Deterministic scenario generators: user-transaction streams compiled
//! to per-thread TxVM programs.
//!
//! A scenario is a fixed, seed-derived stream of [`Txn`]s per thread.
//! The host packs each transaction's parameters into **one word** of a
//! per-thread parameter table; the emitted driver program loads the next
//! word with a *plain* (non-transactional) load, unpacks it, and then
//! runs the whole user transaction — native transfer or inlined contract
//! call — between one `tx_begin`/`tx_end` pair. Because the parameters
//! come from the table rather than in-transaction randomness, an aborted
//! transaction retries *the same* user transaction, and the committed
//! stream is exactly the table decoded into [`Txn`]s — which is what
//! makes a sequential replay of the decoded table a word-for-word ground
//! truth for the commutative scenarios.
//!
//! The three generators, in increasing contention sophistication:
//!
//! * [`ScenarioKind::Transfers`] — pairwise native transfers, uniform
//!   account draws: classic low-order conflicts.
//! * [`ScenarioKind::TokenStorm`] — token mints and transfers against
//!   one hot contract, account draws Zipf-skewed (rank-1 weighting, so
//!   account 0 is the hottest line): the supply word and the popular
//!   balances become exactly the hot-line chain stress CHATS forwards
//!   through.
//! * [`ScenarioKind::Dex`] — swaps through the dex (nested
//!   `transfer_from` calls, two hot reserve words) mixed with background
//!   token transfers: read-modify-write flows with order-dependent
//!   payouts, checked by conservation sums instead of exact state.

use crate::compile::Lowerer;
use crate::contract::{dex, token, ContractBank, DEX, TOKEN};
use crate::machine::Machine;
use crate::ops::TX_GAS_LIMIT;
use crate::storage::{ImageStorage, StateLayout, Storage};
use crate::txn::{execute_txn, Txn};
use chats_mem::{Addr, WORDS_PER_LINE};
use chats_sim::SimRng;
use chats_tvm::{Program, ProgramBuilder, Reg};

/// The scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Pairwise native balance transfers, uniform accounts.
    Transfers,
    /// Hot-contract token mint/transfer storm, Zipf-skewed accounts.
    TokenStorm,
    /// Dex swaps (nested calls, hot reserves) over background transfers.
    Dex,
}

impl ScenarioKind {
    /// Registry name of the scenario.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Transfers => "transfers",
            ScenarioKind::TokenStorm => "token-storm",
            ScenarioKind::Dex => "dex",
        }
    }

    /// All scenario kinds.
    pub const ALL: [ScenarioKind; 3] = [
        ScenarioKind::Transfers,
        ScenarioKind::TokenStorm,
        ScenarioKind::Dex,
    ];
}

/// One thread's compiled program.
#[derive(Debug, Clone)]
pub struct EvmProgram {
    /// The driver bytecode (identical across threads; presets differ).
    pub program: Program,
    /// Register presets (thread id, parameter-table base).
    pub presets: Vec<(Reg, u64)>,
    /// The thread VM's random seed (unused by the drivers — parameters
    /// come from the table — but kept distinct per thread).
    pub seed: u64,
}

/// A named line region of the scenario's memory footprint, for
/// per-contract attribution in observability reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Region name (`accounts`, `token.storage`, ...).
    pub name: &'static str,
    /// First line.
    pub base_line: u64,
    /// Line count.
    pub lines: u64,
}

impl Region {
    /// `true` if `line` falls in this region.
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        (self.base_line..self.base_line + self.lines).contains(&line)
    }
}

/// A conservation invariant: a signed wrapping sum over state words that
/// every serialization preserves.
#[derive(Debug, Clone)]
pub struct Conserved {
    /// What is conserved (for error messages).
    pub what: &'static str,
    /// Summed words; `false` coefficient means subtract.
    pub terms: Vec<(Addr, bool)>,
    /// The required wrapping sum.
    pub expect: u64,
}

/// The scenario's final-state acceptance check, as data (the `workloads`
/// crate wraps it over the simulator's final memory, the tests over the
/// reference machine's storage).
#[derive(Debug, Clone, Default)]
pub struct StateCheck {
    /// Words whose final value is order-independent and therefore known
    /// exactly from the sequential ground truth.
    pub exact: Vec<(Addr, u64)>,
    /// Conservation sums (hold even where exact values are
    /// order-dependent).
    pub conserved: Vec<Conserved>,
}

impl StateCheck {
    /// Verifies the check against final memory, read through `read`.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn verify(&self, read: &mut dyn FnMut(Addr) -> u64) -> Result<(), String> {
        for &(a, want) in &self.exact {
            let got = read(a);
            if got != want {
                return Err(format!(
                    "word {} = {got}, sequential ground truth says {want}",
                    a.0
                ));
            }
        }
        for c in &self.conserved {
            let mut sum = 0u64;
            for &(a, add) in &c.terms {
                let v = read(a);
                sum = if add {
                    sum.wrapping_add(v)
                } else {
                    sum.wrapping_sub(v)
                };
            }
            if sum != c.expect {
                return Err(format!(
                    "{} not conserved: sum {sum} != {}",
                    c.what, c.expect
                ));
            }
        }
        Ok(())
    }
}

/// A fully built scenario.
pub struct EvmSetup {
    /// One program per thread.
    pub programs: Vec<EvmProgram>,
    /// Initial memory image: the parameter tables, thread by thread and
    /// each in stream order, then the state seeds.
    pub init: Vec<(Addr, u64)>,
    /// Final-state acceptance check.
    pub check: StateCheck,
    /// Named line regions for hot-line attribution.
    pub regions: Vec<Region>,
    /// Total user transactions across all threads (each is exactly one
    /// hardware transaction, so this equals the expected commit count).
    pub user_txs: u64,
    /// Total gas the stream consumes (sequential accounting).
    pub gas_total: u64,
    /// The state layout everything was compiled against.
    pub layout: StateLayout,
}

impl EvmSetup {
    /// The per-thread transaction streams (the ground truth input),
    /// decoded from the parameter tables at the front of
    /// [`EvmSetup::init`].
    #[must_use]
    pub fn txns(&self) -> Vec<Vec<Txn>> {
        let per_thread = self.user_txs as usize / self.programs.len();
        self.init[..self.user_txs as usize]
            .chunks(per_thread)
            .map(|table| table.iter().map(|&(_, packed)| txn_of(packed)).collect())
            .collect()
    }
}

/// Transaction-kind discriminants in the packed parameter word.
const KIND_TRANSFER: u64 = 0;
const KIND_MINT: u64 = 1;
const KIND_TOKEN_TRANSFER: u64 = 2;
const KIND_SWAP: u64 = 3;

/// Initial native balance per account (transfers scenario).
const INIT_NATIVE: u64 = 1_000;
/// Initial token balance per account (dex scenario).
const INIT_TOKEN: u64 = 50_000;
/// Initial dex reserve B (dex scenario; drains by `>> 4` per swap).
const INIT_RESERVE_B: u64 = 1 << 20;
/// Zipf weight scale (rank-1 weights are `SCALE / (rank + 1)`).
const ZIPF_SCALE: u64 = 1 << 16;
/// Post-commit pause, matching the other kernels' pacing.
const INTER_TX_PAUSE: u64 = 20;

/// Integer Zipf(s=1) sampler over ranks `0..n`: rank `r` gets weight
/// `ZIPF_SCALE / (r + 1)`. Rank equals account index, so account 0 is
/// always the hottest line — platform-independent (no floats) and
/// trivially auditable.
struct Zipf {
    cum: Vec<u64>,
}

impl Zipf {
    fn new(n: u64) -> Zipf {
        let mut cum = Vec::with_capacity(n as usize);
        let mut total = 0u64;
        for r in 0..n {
            total += ZIPF_SCALE / (r + 1);
            cum.push(total);
        }
        Zipf { cum }
    }

    fn sample(&self, rng: &mut SimRng) -> u64 {
        let total = *self.cum.last().expect("non-empty zipf");
        let x = rng.below(total);
        self.cum.partition_point(|&c| c <= x) as u64
    }
}

fn pack(kind: u64, from: u64, to: u64, amount: u64) -> u64 {
    debug_assert!(from < 1 << 16 && to < 1 << 16 && amount < 1 << 16 && kind < 1 << 8);
    from | to << 16 | amount << 32 | kind << 56
}

/// Decodes a packed parameter word (see [`pack`]) into its transaction.
fn txn_of(packed: u64) -> Txn {
    let (from, to, amount) = (
        packed & 0xFFFF,
        packed >> 16 & 0xFFFF,
        packed >> 32 & 0xFFFF,
    );
    match packed >> 56 {
        KIND_TRANSFER => Txn::Transfer { from, to, amount },
        KIND_MINT => Txn::Call {
            caller: from,
            contract: TOKEN,
            func: token::MINT,
            args: vec![to, amount],
            gas_limit: TX_GAS_LIMIT,
        },
        KIND_TOKEN_TRANSFER => Txn::Call {
            caller: from,
            contract: TOKEN,
            func: token::TRANSFER,
            args: vec![to, amount],
            gas_limit: TX_GAS_LIMIT,
        },
        KIND_SWAP => Txn::Call {
            caller: from,
            contract: DEX,
            func: dex::SWAP,
            args: vec![amount],
            gas_limit: TX_GAS_LIMIT,
        },
        kind => unreachable!("unknown txn kind {kind}"),
    }
}

/// Draws one transaction of the scenario's mix.
fn draw_txn(kind: ScenarioKind, layout: &StateLayout, zipf: &Zipf, rng: &mut SimRng) -> u64 {
    let amount = rng.range(1, 256);
    match kind {
        ScenarioKind::Transfers => {
            let from = rng.below(layout.accounts);
            // Distinct counterpart: pairwise conflicts, never a self-move.
            let to = (from + 1 + rng.below(layout.accounts - 1)) % layout.accounts;
            pack(KIND_TRANSFER, from, to, amount)
        }
        ScenarioKind::TokenStorm => {
            let to = zipf.sample(rng);
            if rng.chance(15, 100) {
                pack(KIND_MINT, 0, to, amount)
            } else {
                let from = zipf.sample(rng);
                pack(KIND_TOKEN_TRANSFER, from, to, amount)
            }
        }
        ScenarioKind::Dex => {
            // The dex pseudo-account is excluded from draws so the
            // reserve-float invariant stays exact.
            let from = zipf.sample(rng);
            if rng.chance(60, 100) {
                pack(KIND_SWAP, from, 0, amount)
            } else {
                let to = zipf.sample(rng);
                pack(KIND_TOKEN_TRANSFER, from, to, amount)
            }
        }
    }
}

/// Emits the per-thread driver program: table walk, plain parameter
/// load, unpack, dispatch, one hardware transaction per user
/// transaction.
fn emit_driver(kind: ScenarioKind, layout: &StateLayout, txs_per_thread: u64) -> Program {
    let bank = ContractBank::library(layout);
    let low = Lowerer::new(&bank, layout);
    let (i, base, n, packed, from, to, amount, kindr, t8, ret) = (
        Reg(0),
        Reg(1),
        Reg(2),
        Reg(3),
        Reg(4),
        Reg(5),
        Reg(6),
        Reg(7),
        Reg(8),
        Reg(9),
    );
    let mut b = ProgramBuilder::new();
    b.imm(i, 0).imm(n, txs_per_thread);
    let top = b.label();
    b.bind(top);
    // Parameter fetch: outside the transaction, so retries re-run the
    // same user transaction.
    b.add(t8, base, i);
    b.load(packed, t8);
    b.andi(from, packed, 0xFFFF);
    b.shri(to, packed, 16);
    b.andi(to, to, 0xFFFF);
    b.shri(amount, packed, 32);
    b.andi(amount, amount, 0xFFFF);
    b.shri(kindr, packed, 56);
    b.tx_begin();
    let done = b.label();
    match kind {
        ScenarioKind::Transfers => {
            emit_native_transfer(&mut b, layout, from, to, amount, t8, ret);
        }
        ScenarioKind::TokenStorm => {
            let lmint = b.label();
            b.imm(t8, KIND_MINT);
            b.beq(kindr, t8, lmint);
            low.emit_call(
                &mut b,
                (TOKEN, token::TRANSFER),
                from,
                &[to, amount],
                ret,
                TX_GAS_LIMIT,
            )
            .expect("token transfer lowers");
            b.jmp(done);
            b.bind(lmint);
            low.emit_call(
                &mut b,
                (TOKEN, token::MINT),
                from,
                &[to, amount],
                ret,
                TX_GAS_LIMIT,
            )
            .expect("token mint lowers");
        }
        ScenarioKind::Dex => {
            let lswap = b.label();
            b.imm(t8, KIND_SWAP);
            b.beq(kindr, t8, lswap);
            low.emit_call(
                &mut b,
                (TOKEN, token::TRANSFER),
                from,
                &[to, amount],
                ret,
                TX_GAS_LIMIT,
            )
            .expect("token transfer lowers");
            b.jmp(done);
            b.bind(lswap);
            low.emit_call(&mut b, (DEX, dex::SWAP), from, &[amount], ret, TX_GAS_LIMIT)
                .expect("dex swap lowers");
        }
    }
    b.bind(done);
    b.tx_end();
    b.pause(INTER_TX_PAUSE);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    b.build()
}

/// `balance[from] -= amount; balance[to] += amount` on the native
/// account lines, matching [`Machine::transfer`].
fn emit_native_transfer(
    b: &mut ProgramBuilder,
    layout: &StateLayout,
    from: Reg,
    to: Reg,
    amount: Reg,
    addr: Reg,
    val: Reg,
) {
    b.addi(addr, from, layout.account_base_line);
    b.shli(addr, addr, 3);
    b.load(val, addr);
    b.sub(val, val, amount);
    b.store(addr, val);
    b.addi(addr, to, layout.account_base_line);
    b.shli(addr, addr, 3);
    b.load(val, addr);
    b.add(val, val, amount);
    b.store(addr, val);
}

/// Builds a scenario: `threads` streams of `txs_per_thread` user
/// transactions each, drawn deterministically from `seed`.
///
/// # Panics
///
/// Panics if `threads` or `txs_per_thread` is zero.
#[must_use]
pub fn build(kind: ScenarioKind, threads: usize, txs_per_thread: u64, seed: u64) -> EvmSetup {
    assert!(threads > 0 && txs_per_thread > 0, "degenerate scenario");
    let layout = StateLayout::standard();
    let table_base_line = layout.end_line();
    let stride_lines = txs_per_thread.div_ceil(WORDS_PER_LINE);

    let mut rng = SimRng::seed_from(seed ^ (0xE7_0001 * kind.name().len() as u64));
    let zipf_n = match kind {
        ScenarioKind::Dex => layout.accounts - 1,
        _ => layout.accounts,
    };
    let zipf = Zipf::new(zipf_n);

    // Draw the per-thread streams straight into the parameter tables.
    let user_txs = threads as u64 * txs_per_thread;
    let mut init = Vec::with_capacity(user_txs as usize);
    for t in 0..threads {
        let mut trng = rng.fork(t as u64);
        let base_word = (table_base_line + t as u64 * stride_lines) * WORDS_PER_LINE;
        for k in 0..txs_per_thread {
            let packed = draw_txn(kind, &layout, &zipf, &mut trng);
            init.push((Addr(base_word + k), packed));
        }
    }

    // State seeds.
    let supply_addr = layout.slot_addr(TOKEN, token::SUPPLY_SLOT);
    let balance_addr = |a: u64| {
        layout.slot_addr(
            TOKEN,
            token::BALANCE_BASE_SLOT + (a & layout.account_mask()),
        )
    };
    match kind {
        ScenarioKind::Transfers => {
            for a in 0..layout.accounts {
                init.push((layout.account_addr(a), INIT_NATIVE));
            }
        }
        ScenarioKind::TokenStorm => {} // everything starts at zero
        ScenarioKind::Dex => {
            for a in 0..layout.accounts {
                init.push((balance_addr(a), INIT_TOKEN));
            }
            init.push((supply_addr, layout.accounts * INIT_TOKEN));
            init.push((layout.slot_addr(DEX, dex::RESERVE_B_SLOT), INIT_RESERVE_B));
        }
    }

    // Sequential ground truth: replay every stream, decoded from its
    // table, on the reference machine over the same initial image.
    let mut machine = Machine::new(
        ContractBank::library(&layout),
        layout,
        ImageStorage::from_image(&init),
    );
    let mut gas_total = 0u64;
    for &(_, packed) in &init[..user_txs as usize] {
        let r = execute_txn(&mut machine, &txn_of(packed))
            .unwrap_or_else(|e| panic!("ground-truth execution failed: {e}"));
        gas_total += r.gas_used;
    }
    let ground_truth = machine.into_storage();

    // Acceptance check: exact words where every serialization agrees,
    // conservation sums everywhere else.
    let balance_terms = || {
        (0..layout.accounts)
            .map(|a| (balance_addr(a), true))
            .collect::<Vec<_>>()
    };
    let check = match kind {
        // Commutative scenarios: the whole final image is exact
        // (including the parameter tables, which must come back
        // untouched).
        ScenarioKind::Transfers => StateCheck {
            exact: ground_truth.image().collect(),
            conserved: vec![Conserved {
                what: "total native balance",
                terms: (0..layout.accounts)
                    .map(|a| (layout.account_addr(a), true))
                    .collect(),
                expect: layout.accounts.wrapping_mul(INIT_NATIVE),
            }],
        },
        ScenarioKind::TokenStorm => StateCheck {
            exact: ground_truth.image().collect(),
            conserved: vec![Conserved {
                what: "token supply vs balances",
                terms: {
                    let mut t = balance_terms();
                    t.push((supply_addr, false));
                    t
                },
                expect: 0,
            }],
        },
        // Swap payouts are order-dependent; check the order-independent
        // words exactly and the rest by conservation.
        ScenarioKind::Dex => {
            let ra = layout.slot_addr(DEX, dex::RESERVE_A_SLOT);
            let rb = layout.slot_addr(DEX, dex::RESERVE_B_SLOT);
            let dex_bal = balance_addr(ContractBank::dex_account(&layout));
            StateCheck {
                exact: vec![
                    (ra, ground_truth.sload(ra)),
                    (supply_addr, ground_truth.sload(supply_addr)),
                ],
                conserved: vec![
                    Conserved {
                        what: "token supply vs balances",
                        terms: {
                            let mut t = balance_terms();
                            t.push((supply_addr, false));
                            t
                        },
                        expect: 0,
                    },
                    Conserved {
                        what: "dex reserve float",
                        terms: vec![(ra, true), (rb, true), (dex_bal, false)],
                        expect: INIT_RESERVE_B.wrapping_sub(INIT_TOKEN),
                    },
                ],
            }
        }
    };

    let program = emit_driver(kind, &layout, txs_per_thread);
    let programs = (0..threads)
        .map(|t| EvmProgram {
            program: program.clone(),
            presets: vec![
                (Reg(31), t as u64),
                (
                    Reg(1),
                    (table_base_line + t as u64 * stride_lines) * WORDS_PER_LINE,
                ),
            ],
            seed: seed ^ (t as u64).wrapping_mul(0xE7E7_0B0B),
        })
        .collect();

    let regions = vec![
        Region {
            name: "accounts",
            base_line: layout.account_base_line,
            lines: layout.accounts,
        },
        Region {
            name: "token.storage",
            base_line: layout.contract_base_line(TOKEN),
            lines: layout.slots_per_contract,
        },
        Region {
            name: "dex.storage",
            base_line: layout.contract_base_line(DEX),
            lines: layout.slots_per_contract,
        },
        Region {
            name: "params",
            base_line: table_base_line,
            lines: threads as u64 * stride_lines,
        },
    ];

    EvmSetup {
        programs,
        init,
        check,
        regions,
        user_txs,
        gas_total,
        layout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::TRANSFER_GAS;
    use chats_tvm::{Vm, VmEvent};
    use std::collections::HashMap;

    /// Single-threaded functional execution of a whole setup: runs each
    /// thread's program to completion, in turn, over one flat memory.
    fn run_flat(setup: &EvmSetup) -> HashMap<u64, u64> {
        let mut mem: HashMap<u64, u64> = setup.init.iter().map(|&(a, v)| (a.0, v)).collect();
        for tp in &setup.programs {
            let mut vm = Vm::new(tp.program.clone(), tp.seed);
            for &(r, v) in &tp.presets {
                vm.preset_reg(r, v);
            }
            for _ in 0..20_000_000u64 {
                match vm.step() {
                    VmEvent::Compute(_) | VmEvent::TxBegin | VmEvent::TxEnd => {}
                    VmEvent::Load(a) => vm.complete_load(*mem.get(&a.0).unwrap_or(&0)),
                    VmEvent::Store(a, v) => {
                        mem.insert(a.0, v);
                        vm.complete_store();
                    }
                    VmEvent::Halted => break,
                }
            }
            assert!(matches!(vm.step(), VmEvent::Halted), "program did not halt");
        }
        mem
    }

    #[test]
    fn every_scenario_matches_its_own_ground_truth_serially() {
        for kind in ScenarioKind::ALL {
            let setup = build(kind, 3, 40, 0xE7);
            let mem = run_flat(&setup);
            setup
                .check
                .verify(&mut |a| *mem.get(&a.0).unwrap_or(&0))
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for kind in ScenarioKind::ALL {
            let a = build(kind, 2, 16, 9);
            let b = build(kind, 2, 16, 9);
            assert_eq!(a.txns(), b.txns(), "{}", kind.name());
            assert_eq!(a.init, b.init);
            let insts =
                |p: &chats_tvm::Program| (0..p.len()).map(|i| p.fetch(i)).collect::<Vec<_>>();
            assert_eq!(insts(&a.programs[0].program), insts(&b.programs[0].program));
            assert_eq!(a.check.exact, b.check.exact);
        }
    }

    #[test]
    fn seeds_change_the_stream() {
        let a = build(ScenarioKind::TokenStorm, 2, 16, 1);
        let b = build(ScenarioKind::TokenStorm, 2, 16, 2);
        assert_ne!(a.txns(), b.txns());
    }

    #[test]
    fn zipf_is_head_heavy() {
        let zipf = Zipf::new(1024);
        let mut rng = SimRng::seed_from(7);
        let mut head = 0u64;
        const DRAWS: u64 = 10_000;
        for _ in 0..DRAWS {
            if zipf.sample(&mut rng) < 8 {
                head += 1;
            }
        }
        // Ranks 0..8 hold ~36% of the rank-1 mass over 1024 ranks.
        assert!(head > DRAWS / 4, "head draws {head} of {DRAWS}");
    }

    #[test]
    fn transfers_never_self_move() {
        let setup = build(ScenarioKind::Transfers, 4, 64, 3);
        for stream in &setup.txns() {
            for t in stream {
                if let Txn::Transfer { from, to, .. } = t {
                    assert_ne!(from, to);
                }
            }
        }
    }

    #[test]
    fn dex_streams_exclude_the_dex_account() {
        let setup = build(ScenarioKind::Dex, 4, 64, 3);
        let dex_acct = ContractBank::dex_account(&setup.layout);
        for stream in &setup.txns() {
            for t in stream {
                if let Txn::Call {
                    caller,
                    args,
                    func,
                    contract,
                    ..
                } = t
                {
                    assert_ne!(*caller, dex_acct);
                    if *contract == TOKEN && *func == token::TRANSFER {
                        assert_ne!(args[0], dex_acct);
                    }
                }
            }
        }
    }

    #[test]
    fn user_tx_and_gas_accounting() {
        let setup = build(ScenarioKind::Transfers, 2, 10, 5);
        assert_eq!(setup.user_txs, 20);
        assert_eq!(setup.gas_total, 20 * TRANSFER_GAS);
        let storm = build(ScenarioKind::TokenStorm, 2, 10, 5);
        assert!(storm.gas_total > storm.user_txs * TRANSFER_GAS);
    }

    #[test]
    fn regions_cover_every_state_and_param_line() {
        let setup = build(ScenarioKind::TokenStorm, 2, 16, 1);
        for &(a, _) in &setup.init {
            let line = a.line().0;
            assert!(
                setup.regions.iter().any(|r| r.contains(line)),
                "line {line} uncovered"
            );
        }
    }

    #[test]
    fn check_catches_a_lost_update() {
        let setup = build(ScenarioKind::Transfers, 2, 16, 2);
        let mut mem = run_flat(&setup);
        let victim = setup.layout.account_addr(0).0;
        *mem.entry(victim).or_insert(0) += 1;
        assert!(setup
            .check
            .verify(&mut |a| *mem.get(&a.0).unwrap_or(&0))
            .is_err());
    }
}
