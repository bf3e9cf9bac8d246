//! Custom workload: build your own transactional kernel with the TxVM
//! builder DSL, plug it into the `Workload` trait, and run it under any
//! HTM system with a serializability checker.
//!
//! The kernel here is a tiny bank: accounts hold balances, transactions
//! transfer between two random accounts, and the invariant is conservation
//! of money — any lost or duplicated update breaks the final total.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use chats::prelude::*;
use chats::sim::SimRng;
use chats::workloads::{ThreadProgram, WorkloadSetup};

const ACCOUNTS: u64 = 32;
const INITIAL_BALANCE: u64 = 1_000;
const TRANSFERS_PER_THREAD: u64 = 40;

struct Bank;

impl Workload for Bank {
    fn name(&self) -> &'static str {
        "bank-transfer"
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let (i, n, from, to, amt, a, v, bound) = (
            Reg(0),
            Reg(1),
            Reg(2),
            Reg(3),
            Reg(4),
            Reg(5),
            Reg(6),
            Reg(7),
        );
        let mut b = ProgramBuilder::new();
        b.imm(i, 0).imm(n, TRANSFERS_PER_THREAD);
        let top = b.label();
        b.bind(top);
        b.imm(bound, ACCOUNTS);
        b.rand(from, bound);
        b.rand(to, bound);
        b.imm(bound, 10);
        b.rand(amt, bound);
        b.pause(80);
        b.tx_begin();
        // debit `from`
        b.shli(a, from, 3);
        b.load(v, a);
        b.sub(v, v, amt);
        b.store(a, v);
        // credit `to`
        b.shli(a, to, 3);
        b.load(v, a);
        b.add(v, v, amt);
        b.store(a, v);
        b.tx_end();
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        let program = b.build();

        let programs = (0..threads)
            .map(|t| ThreadProgram {
                program: program.clone(),
                presets: vec![],
                seed: seed ^ (t as u64 + 1).wrapping_mul(0xB5),
            })
            .collect();

        let init = (0..ACCOUNTS)
            .map(|acc| (Addr(acc * 8), INITIAL_BALANCE))
            .collect();

        let checker = Box::new(move |m: &Machine| {
            let total: u64 = (0..ACCOUNTS).map(|acc| m.inspect_word(Addr(acc * 8))).sum();
            let expect = ACCOUNTS * INITIAL_BALANCE;
            if total == expect {
                Ok(())
            } else {
                Err(format!("money not conserved: {total} != {expect}"))
            }
        });

        WorkloadSetup {
            programs,
            init,
            checker,
        }
    }
}

fn main() {
    let cfg = RunConfig::paper();
    println!(
        "bank-transfer: {} threads x {} transfers over {} accounts\n",
        cfg.threads, TRANSFERS_PER_THREAD, ACCOUNTS
    );
    println!(
        "{:<12} {:>10} {:>8} {:>8} {:>12}",
        "system", "cycles", "commits", "aborts", "forwardings"
    );
    for system in HtmSystem::ALL {
        let s = run_workload(&Bank, PolicyConfig::for_system(system), &cfg)
            .expect("transfers conserve money under every HTM system");
        println!(
            "{:<12} {:>10} {:>8} {:>8} {:>12}",
            system.label(),
            s.cycles,
            s.commits,
            s.total_aborts(),
            s.forwardings
        );
    }
    println!("\nall six systems conserved the bank's total balance.");
}
