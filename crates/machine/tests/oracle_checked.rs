//! Contended runs with the atomicity oracle armed: every commit is checked
//! against the §III-C criterion (each transactionally read word equals the
//! committed value at the commit instant). Any speculative value that
//! escaped validation panics the run.

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::{Machine, Oracle, Tuning};
use chats_mem::Addr;
use chats_sim::SystemConfig;
use chats_tvm::{ProgramBuilder, Reg, Vm};

fn checked_tuning() -> Tuning {
    Tuning {
        oracle: Oracle::Panic,
        ..Tuning::default()
    }
}

/// Mixed read/write kernel: read three random hot words, sum them, RMW one
/// of them — plenty of forwarded reads to check at commit.
fn kernel(iters: u64) -> chats_tvm::Program {
    let (a, v, sum, i, n, bound) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
    let mut b = ProgramBuilder::new();
    b.imm(i, 0).imm(n, iters);
    let top = b.label();
    b.bind(top);
    b.tx_begin();
    b.imm(sum, 0);
    for _ in 0..3 {
        b.imm(bound, 4);
        b.rand(a, bound);
        b.shli(a, a, 3);
        b.load(v, a);
        b.add(sum, sum, v);
    }
    b.imm(bound, 4);
    b.rand(a, bound);
    b.shli(a, a, 3);
    b.load(v, a);
    b.addi(v, v, 1);
    b.store(a, v);
    b.tx_end();
    b.pause(20);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    b.build()
}

fn run_checked(system: HtmSystem, seed: u64) {
    let mut sys = SystemConfig::small_test();
    sys.core.cores = 4;
    let mut m = Machine::new(
        sys,
        PolicyConfig::for_system(system),
        checked_tuning(),
        seed,
    );
    for t in 0..4 {
        m.load_thread(t, Vm::new(kernel(25), seed ^ (t as u64) << 9));
    }
    m.run(100_000_000)
        .unwrap_or_else(|e| panic!("{system:?}: {e}"));
    let total: u64 = (0..4).map(|l| m.inspect_word(Addr(l * 8))).sum();
    assert_eq!(total, 4 * 25, "{system:?}: committed increments must sum");
}

#[test]
fn baseline_passes_the_oracle() {
    run_checked(HtmSystem::Baseline, 31);
}

#[test]
fn naive_rs_passes_the_oracle() {
    run_checked(HtmSystem::NaiveRs, 32);
}

#[test]
fn chats_passes_the_oracle() {
    run_checked(HtmSystem::Chats, 33);
}

#[test]
fn power_passes_the_oracle() {
    run_checked(HtmSystem::Power, 34);
}

#[test]
fn pchats_passes_the_oracle() {
    run_checked(HtmSystem::Pchats, 35);
}

#[test]
fn levc_passes_the_oracle() {
    run_checked(HtmSystem::LevcBeIdealized, 36);
}

#[test]
fn oracle_survives_many_seeds_under_chats() {
    for seed in 100..110 {
        run_checked(HtmSystem::Chats, seed);
    }
}

/// The paper-scale variant: the full default geometry (16 cores, 64-set
/// x 12-way L1s) instead of `small_test`, every system, heavier kernels.
/// Too slow for the default `cargo test` wall; run via
/// `cargo test -- --ignored` (the CI nightly/ignored step does).
#[test]
#[ignore = "paper-scale (16-core) oracle run; exercised by the CI --ignored step"]
fn paper_config_sixteen_cores_pass_the_oracle() {
    const CORES: usize = 16;
    const ITERS: u64 = 40;
    for (k, &system) in HtmSystem::ALL.iter().enumerate() {
        let seed = 0x9A9E_0000 + k as u64;
        let sys = SystemConfig::default(); // 16 cores, paper geometry
        assert_eq!(sys.core.cores, CORES, "paper config must be 16 cores");
        let mut m = Machine::new(
            sys,
            PolicyConfig::for_system(system),
            checked_tuning(),
            seed,
        );
        for t in 0..CORES {
            m.load_thread(t, Vm::new(kernel(ITERS), seed ^ (t as u64) << 9));
        }
        m.run(500_000_000)
            .unwrap_or_else(|e| panic!("{system:?}: {e}"));
        let total: u64 = (0..4).map(|l| m.inspect_word(Addr(l * 8))).sum();
        assert_eq!(
            total,
            CORES as u64 * ITERS,
            "{system:?}: committed increments must sum at paper scale"
        );
    }
}
