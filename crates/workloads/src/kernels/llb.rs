//! `llb` microbenchmark: linked-list traversal then modification.
//!
//! The paper (§VI-C): *"llb emulates several threads traversing a linked
//! list where elements are searched, then modified"*, in low- and
//! high-contention flavours over a 512-element list.
//!
//! The traversal is a real pointer chase: each node's `next` field is read
//! from memory, so under CHATS the chase consumes forwarded speculative
//! values and builds chains. The low-contention flavour modifies elements
//! spread over the whole list; the high-contention flavour hammers a small
//! hot prefix that every walk also traverses.

use crate::kernels::{line_word, R_TID};
use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_mem::Addr;
use chats_sim::SimRng;
use chats_tvm::{ProgramBuilder, Reg};

const LIST_LEN: u64 = 512;
/// Sentinel `next` for the last node.
const NIL: u64 = u64::MAX;

/// The llb kernel.
#[derive(Debug, Clone)]
pub struct Llb {
    name: &'static str,
    /// Targets are drawn uniformly from `0..hot_span`.
    hot_span: u64,
    iterations: u64,
}

impl Llb {
    /// Low-contention flavour: targets spread over the first 64 elements.
    #[must_use]
    pub fn low() -> Llb {
        Llb {
            name: "llb-l",
            hot_span: 64,
            iterations: 24,
        }
    }

    /// High-contention flavour: all threads modify the first 16 elements.
    #[must_use]
    pub fn high() -> Llb {
        Llb {
            name: "llb-h",
            hot_span: 16,
            iterations: 24,
        }
    }
}

impl Llb {
    /// Overrides the number of list operations each thread performs (scaling runs up or down).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_iterations(mut self, n: u64) -> Llb {
        assert!(n > 0, "iteration count must be positive");
        self.iterations = n;
        self
    }
}

impl Workload for Llb {
    fn name(&self) -> &'static str {
        self.name
    }

    fn is_micro(&self) -> bool {
        true
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let iters = self.iterations;
        let span = self.hot_span;
        // Node i lives on line i: word 0 = next node index, word 1 = value.
        let (i, n, cur, target, addr, v, bound, steps, max_steps) = (
            Reg(0),
            Reg(1),
            Reg(2),
            Reg(3),
            Reg(4),
            Reg(5),
            Reg(6),
            Reg(7),
            Reg(8),
        );

        let mut b = ProgramBuilder::new();
        b.imm(i, 0).imm(n, iters).imm(max_steps, LIST_LEN * 2);
        let outer = b.label();
        b.bind(outer);
        b.imm(bound, span);
        b.rand(target, bound);
        b.tx_begin();
        // Chase `next` pointers from the head until we reach the target.
        b.imm(cur, 0);
        b.imm(steps, 0);
        let walk = b.label();
        let found = b.label();
        b.bind(walk);
        b.beq(cur, target, found);
        b.shli(addr, cur, 3);
        b.load(cur, addr); // cur = node.next (a *forwardable* value)
        b.addi(steps, steps, 1);
        b.blt(steps, max_steps, walk);
        // Safety valve: a wrong speculative pointer sent us off the list;
        // fall through and modify whatever node we hold (validation will
        // abort us if the chase consumed a bad value).
        b.bind(found);
        b.shli(addr, target, 3);
        b.addi(addr, addr, 1); // value word (second word of the node line)
        b.load(v, addr);
        b.addi(v, v, 1);
        b.store(addr, v);
        b.tx_end();
        b.pause(100);
        b.addi(i, i, 1);
        b.blt(i, n, outer);
        b.halt();
        let program = b.build();

        let programs = (0..threads)
            .map(|t| ThreadProgram {
                program: program.clone(),
                presets: vec![(R_TID, t as u64)],
                seed: seed ^ (t as u64).wrapping_mul(0x1111_F0F0),
            })
            .collect();

        // Build the list: node i -> i + 1.
        let mut init = Vec::new();
        for node in 0..LIST_LEN {
            let next = if node + 1 == LIST_LEN { NIL } else { node + 1 };
            init.push((Addr(line_word(node)), next));
        }

        let expect = threads as u64 * iters;
        let checker = Box::new(move |m: &chats_machine::Machine| {
            let mem = m.memory_view();
            // Values sum to the number of committed modifications.
            let total: u64 = (0..LIST_LEN)
                .map(|node| mem.read(Addr(line_word(node) + 1)))
                .sum();
            if total != expect {
                return Err(format!("list values sum {total} != {expect}"));
            }
            // The structure itself must be intact: next pointers are never
            // written, so a corrupted pointer means speculation leaked.
            for node in 0..LIST_LEN {
                let next = mem.read(Addr(line_word(node)));
                let want = if node + 1 == LIST_LEN { NIL } else { node + 1 };
                if next != want {
                    return Err(format!("node {node} next pointer corrupted: {next}"));
                }
            }
            Ok(())
        });

        WorkloadSetup {
            programs,
            init,
            checker,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{smoke, SMOKE_SYSTEMS};

    #[test]
    fn llb_low_is_serializable() {
        smoke(&Llb::low(), &SMOKE_SYSTEMS);
    }

    #[test]
    fn llb_high_is_serializable() {
        smoke(&Llb::high(), &SMOKE_SYSTEMS);
    }

    #[test]
    fn llb_is_micro() {
        assert!(Llb::low().is_micro());
    }
}
