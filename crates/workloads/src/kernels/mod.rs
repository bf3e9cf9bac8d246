//! The kernel collection plus shared bytecode-emission helpers.

pub mod bayes;
pub mod cadd;
pub mod evm;
pub mod genome;
pub mod intruder;
pub mod kmeans;
pub mod labyrinth;
pub mod llb;
pub mod ssca2;
pub mod vacation;
pub mod yada;

use chats_machine::MemoryView;
use chats_mem::Addr;
use chats_tvm::{ProgramBuilder, Reg};

/// Word address of the first word of line `line`.
#[must_use]
pub fn line_word(line: u64) -> u64 {
    line * 8
}

/// Thread id register convention (preset by every kernel).
pub const R_TID: Reg = Reg(31);

/// Emits `dst = (base_line + rand_below(lines)) * 8`, i.e. the word address
/// of a uniformly random line in a region. Clobbers `scratch`.
pub fn emit_rand_line_addr(
    b: &mut ProgramBuilder,
    dst: Reg,
    scratch: Reg,
    base_line: u64,
    lines: u64,
) {
    b.imm(scratch, lines);
    b.rand(dst, scratch);
    b.addi(dst, dst, base_line);
    b.shli(dst, dst, 3);
}

/// Emits an increment-by-one read-modify-write of the word at `addr_reg`.
/// Clobbers `tmp`.
pub fn emit_rmw_inc(b: &mut ProgramBuilder, addr_reg: Reg, tmp: Reg) {
    b.load(tmp, addr_reg);
    b.addi(tmp, tmp, 1);
    b.store(addr_reg, tmp);
}

/// Sums the first words of `lines` consecutive lines starting at
/// `base_line` in final memory.
#[must_use]
pub fn sum_region(mem: &MemoryView, base_line: u64, lines: u64) -> u64 {
    (0..lines)
        .map(|i| mem.read(Addr(line_word(base_line + i))))
        .sum()
}

/// Standard serializability check: the first words of a region must sum to
/// exactly `expect` (each committed transaction contributed exactly its
/// increments — no lost updates, no phantom speculative writes).
pub fn check_region_sum(
    mem: &MemoryView,
    what: &str,
    base_line: u64,
    lines: u64,
    expect: u64,
) -> Result<(), String> {
    let got = sum_region(mem, base_line, lines);
    if got == expect {
        Ok(())
    } else {
        Err(format!("{what}: region sum {got} != expected {expect}"))
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::spec::{run_workload, RunConfig, Workload};
    use chats_core::{HtmSystem, PolicyConfig};

    /// Runs `w` at test scale under the given systems; panics on any
    /// invariant violation.
    pub fn smoke(w: &dyn Workload, systems: &[HtmSystem]) {
        for &s in systems {
            let cfg = RunConfig::quick_test();
            let stats = run_workload(w, PolicyConfig::for_system(s), &cfg)
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(stats.commits > 0, "{} under {s:?}: no commits", w.name());
        }
    }

    pub const SMOKE_SYSTEMS: [HtmSystem; 3] =
        [HtmSystem::Baseline, HtmSystem::Chats, HtmSystem::Pchats];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_word_is_word_address() {
        assert_eq!(line_word(0), 0);
        assert_eq!(line_word(3), 24);
    }
}
