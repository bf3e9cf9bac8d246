#![warn(missing_docs)]

//! The transactional bytecode VM (TxVM).
//!
//! gem5 runs real x86 binaries; this simulator runs workloads compiled to a
//! small deterministic bytecode instead (see DESIGN.md for the substitution
//! argument). Each simulated hardware thread executes one [`Vm`] over a
//! shared [`Program`]; the timing machine drives it step by step:
//!
//! 1. call [`Vm::step`], which either consumes ALU work (returning
//!    [`VmEvent::Compute`]) or *pauses* at a memory access or transaction
//!    boundary,
//! 2. perform the access through the simulated memory hierarchy, charging
//!    real latencies,
//! 3. resume the VM with the loaded value ([`Vm::complete_load`]) or the
//!    store acknowledgement ([`Vm::complete_store`]).
//!
//! Transactions are delimited by `TxBegin` / `TxEnd` instructions. On abort
//! the machine rolls the VM back with the [`VmSnapshot`] captured at
//! `TxBegin` and re-executes.
//!
//! # Example
//!
//! ```
//! use chats_tvm::{ProgramBuilder, Reg, Vm, VmEvent};
//! use chats_mem::Addr;
//!
//! let mut b = ProgramBuilder::new();
//! b.imm(Reg(0), 100);        // address
//! b.imm(Reg(1), 7);          // value
//! b.store(Reg(0), Reg(1));   // mem[100] = 7
//! b.halt();
//! let mut vm = Vm::new(b.build(), 0);
//!
//! assert_eq!(vm.step(), VmEvent::Compute(1)); // imm
//! assert_eq!(vm.step(), VmEvent::Compute(1)); // imm
//! assert_eq!(vm.step(), VmEvent::Store(Addr(100), 7));
//! vm.complete_store();
//! assert_eq!(vm.step(), VmEvent::Halted);
//! ```

pub mod builder;
pub mod gen;
pub mod inst;
pub mod vm;

pub use builder::{Label, ProgramBuilder};
pub use gen::Kernel;
pub use inst::{Inst, Program, Reg};
pub use vm::{Vm, VmEvent, VmSnapshot};
