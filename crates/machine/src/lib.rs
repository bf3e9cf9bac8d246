#![warn(missing_docs)]

//! The full CHATS timing machine.
//!
//! Wires every substrate into one simulated multicore:
//!
//! * TxVM cores ([`chats_tvm`]) execute workload bytecode,
//! * private L1 caches with HTM support bits ([`chats_mem`]),
//! * a blocking full-map MESI directory with an inclusive backing store,
//! * a crossbar interconnect with flit accounting ([`chats_noc`]),
//! * the CHATS conflict-management logic and its five comparison systems
//!   ([`chats_core`]).
//!
//! The machine is a deterministic discrete-event simulator: given the same
//! configuration, programs and seed, two runs produce identical statistics.
//!
//! # Example
//!
//! ```
//! use chats_machine::{Machine, Tuning};
//! use chats_core::{HtmSystem, PolicyConfig};
//! use chats_sim::SystemConfig;
//! use chats_tvm::{ProgramBuilder, Reg, Vm};
//!
//! // Two threads transactionally increment the same counter 10 times each.
//! let mut b = ProgramBuilder::new();
//! let (iters, one, addr, v) = (Reg(0), Reg(1), Reg(2), Reg(3));
//! b.imm(iters, 10).imm(one, 1).imm(addr, 0);
//! let top = b.label();
//! b.bind(top);
//! b.tx_begin();
//! b.load(v, addr);
//! b.add(v, v, one);
//! b.store(addr, v);
//! b.tx_end();
//! b.sub(iters, iters, one);
//! b.bne(iters, one, top); // loops while iters != 1 => 10 iterations... (9)
//! b.halt();
//! let prog = b.build();
//!
//! let mut m = Machine::new(
//!     SystemConfig::small_test(),
//!     PolicyConfig::for_system(HtmSystem::Chats),
//!     Tuning::default(),
//!     7,
//! );
//! m.load_thread(0, Vm::new(prog.clone(), 1));
//! m.load_thread(1, Vm::new(prog, 2));
//! let stats = m.run(1_000_000).unwrap();
//! assert!(stats.commits >= 2);
//! assert_eq!(m.inspect_word(chats_mem::Addr(0)), 18); // 2 threads × 9 increments
//! ```

mod commit;
mod conflict;
mod core_state;
mod dir;
mod exec;
mod faults;
mod machine;
mod msg;
mod oracle;
mod protocol;
mod trace;
mod validate;

pub use commit::{
    build_fingerprint, hash_bytes, EpochCommitment, StateCommitment, DEFAULT_COMMIT_INTERVAL,
};
pub use core_state::ExecMode;
pub use faults::{CoreSnapshot, FailureReport};
pub use machine::{
    DecisionHook, Machine, MemoryView, Oracle, RunProgress, SimError, Tuning, Violation,
};
pub use trace::{RingSink, TraceEvent, TraceSink};

// Re-exported so downstream crates (runner, checker, observability) can
// speak fault plans without depending on `chats-faults` directly.
pub use chats_faults::{FaultKind, FaultPlan};
