//! The TxVM instruction set.

use std::sync::Arc;

/// A register index. TxVM has 32 general-purpose 64-bit registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// Number of registers per VM.
pub const NUM_REGS: usize = 32;

impl Reg {
    pub(crate) fn idx(self) -> usize {
        let i = self.0 as usize;
        assert!(i < NUM_REGS, "register r{i} out of range");
        i
    }
}

/// One TxVM instruction.
///
/// ALU and control instructions cost one core cycle each; `Load`/`Store`
/// cost whatever the memory hierarchy charges; `Pause` charges an explicit
/// number of cycles (modelling non-memory work between accesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// `dst = imm`
    Imm(Reg, u64),
    /// `dst = src`
    Mov(Reg, Reg),
    /// `dst = a + b` (wrapping)
    Add(Reg, Reg, Reg),
    /// `dst = a + imm` (wrapping)
    AddI(Reg, Reg, u64),
    /// `dst = a - b` (wrapping)
    Sub(Reg, Reg, Reg),
    /// `dst = a * b` (wrapping)
    Mul(Reg, Reg, Reg),
    /// `dst = a * imm` (wrapping)
    MulI(Reg, Reg, u64),
    /// `dst = a / imm` — `imm` must be non-zero (checked at build time)
    DivI(Reg, Reg, u64),
    /// `dst = a % imm` — `imm` must be non-zero (checked at build time)
    RemI(Reg, Reg, u64),
    /// `dst = a & imm`
    AndI(Reg, Reg, u64),
    /// `dst = a ^ b`
    Xor(Reg, Reg, Reg),
    /// `dst = a << imm`
    ShlI(Reg, Reg, u32),
    /// `dst = a >> imm`
    ShrI(Reg, Reg, u32),
    /// `dst = uniform random in [0, bound_reg)` from the VM's own stream
    Rand(Reg, Reg),
    /// Unconditional jump to instruction index
    Jmp(usize),
    /// Jump if `a == b`
    Beq(Reg, Reg, usize),
    /// Jump if `a != b`
    Bne(Reg, Reg, usize),
    /// Jump if `a < b` (unsigned)
    Blt(Reg, Reg, usize),
    /// Jump if `a >= b` (unsigned)
    Bge(Reg, Reg, usize),
    /// `dst = mem[addr_reg]` — pauses the VM at the memory system
    Load(Reg, Reg),
    /// `mem[addr_reg] = val_reg` — pauses the VM at the memory system
    Store(Reg, Reg),
    /// Begin a transaction (handled by the HTM engine)
    TxBegin,
    /// Commit the current transaction (handled by the HTM engine)
    TxEnd,
    /// Spin for `cycles` of non-memory work
    Pause(u64),
    /// Terminate the thread
    Halt,
}

/// An immutable, shareable TxVM program.
///
/// Programs are produced by [`crate::ProgramBuilder`] and shared between
/// the VMs of all threads running the same kernel.
#[derive(Debug, Clone)]
pub struct Program {
    insts: Arc<[Inst]>,
}

impl Program {
    pub(crate) fn from_insts(insts: Vec<Inst>) -> Program {
        Program {
            insts: insts.into(),
        }
    }

    /// Instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is past the end — the builder always terminates
    /// programs with `Halt`, so this indicates a builder bypass.
    #[must_use]
    pub fn fetch(&self, pc: usize) -> Inst {
        self.insts[pc]
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` for a program with no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// All instructions, for inspection.
    #[must_use]
    pub fn instructions(&self) -> &[Inst] {
        &self.insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_index_checked() {
        assert_eq!(Reg(31).idx(), 31);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg(32).idx();
    }

    #[test]
    fn program_fetch() {
        let p = Program::from_insts(vec![Inst::Halt]);
        assert_eq!(p.fetch(0), Inst::Halt);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }
}
