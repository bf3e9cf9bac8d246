//! `bayes`: Bayesian network structure learning.
//!
//! The paper **excludes** bayes from its evaluation (§VI-C): *"Due to the
//! inherent randomness exhibited by bayes, whose search algorithm may
//! result in varying amounts of work for the same input, we opted to
//! exclude it."* It is implemented here for completeness — available via
//! [`crate::registry::extended`] but deliberately absent from
//! [`crate::registry::all`], mirroring the paper.
//!
//! The kernel captures the benchmark's hill-climbing shape: long
//! transactions that read a variable-sized neighbourhood of the adjacency
//! structure, then apply an edge flip — and whose *work per transaction
//! depends on the data read*, the property that makes run time vary.

use crate::kernels::{line_word, R_TID};
use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_mem::Addr;
use chats_sim::SimRng;
use chats_tvm::{ProgramBuilder, Reg};

const NODES: u64 = 48;
/// Edge-flip counter per node (word 0 of the node's line).
const GRAPH_BASE: u64 = 0;
/// Global learned-edges counter (line number).
const EDGES_LINE: u64 = 512;

/// The bayes kernel.
#[derive(Debug, Clone)]
pub struct Bayes {
    flips_per_thread: u64,
}

impl Bayes {
    /// Default scale.
    #[must_use]
    pub fn new() -> Bayes {
        Bayes {
            flips_per_thread: 12,
        }
    }

    /// Overrides the number of edge flips each thread attempts.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_iterations(mut self, n: u64) -> Bayes {
        assert!(n > 0, "iteration count must be positive");
        self.flips_per_thread = n;
        self
    }
}

impl Default for Bayes {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for Bayes {
    fn name(&self) -> &'static str {
        "bayes"
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let iters = self.flips_per_thread;
        let (i, n, node, addr, v, bound, deg, k) = (
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
        b.imm(i, 0).imm(n, iters);
        let outer = b.label();
        b.bind(outer);
        b.pause(120); // score computation outside the transaction
        b.imm(bound, NODES);
        b.rand(node, bound);
        b.tx_begin();
        // Read the chosen node's current degree: the amount of further
        // work *depends on the data* (bayes's variable-work property).
        b.shli(addr, node, 3);
        b.load(deg, addr);
        // Scan `4 + deg % 8` neighbour nodes.
        b.remi(k, deg, 8);
        b.addi(k, k, 4);
        b.imm(v, 0);
        let scan = b.label();
        let done = b.label();
        b.bind(scan);
        b.bge(v, k, done);
        b.add(bound, node, v);
        b.remi(bound, bound, NODES);
        b.shli(addr, bound, 3);
        b.load(Reg(8), addr);
        b.pause(15);
        b.addi(v, v, 1);
        b.jmp(scan);
        b.bind(done);
        // Apply the flip: bump the node's degree and the global counter.
        b.shli(addr, node, 3);
        b.load(deg, addr);
        b.addi(deg, deg, 1);
        b.store(addr, deg);
        b.imm(addr, line_word(EDGES_LINE));
        b.load(v, addr);
        b.addi(v, v, 1);
        b.store(addr, v);
        b.tx_end();
        b.addi(i, i, 1);
        b.blt(i, n, outer);
        b.halt();
        let program = b.build();

        let programs = (0..threads)
            .map(|t| ThreadProgram {
                program: program.clone(),
                presets: vec![(R_TID, t as u64)],
                seed: seed ^ (t as u64).wrapping_mul(0xBA1E_5BA1),
            })
            .collect();

        let total = threads as u64 * iters;
        let checker = Box::new(move |m: &chats_machine::Machine| {
            let mem = m.memory_view();
            let degrees: u64 = (0..NODES)
                .map(|nd| mem.read(Addr(line_word(GRAPH_BASE + nd))))
                .sum();
            if degrees != total {
                return Err(format!("degree sum {degrees} != flips {total}"));
            }
            let edges = mem.read(Addr(line_word(EDGES_LINE)));
            if edges != total {
                return Err(format!("edge counter {edges} != flips {total}"));
            }
            Ok(())
        });

        WorkloadSetup {
            programs,
            init: Vec::new(),
            checker,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{smoke, SMOKE_SYSTEMS};

    #[test]
    fn bayes_is_serializable() {
        smoke(&Bayes::new(), &SMOKE_SYSTEMS);
    }

    #[test]
    fn bayes_work_varies_with_data() {
        // The defining property: runtime differs across seeds more than a
        // fixed-work kernel would, because transaction length depends on
        // the degrees read. Just assert both seeds complete and differ.
        use crate::spec::{run_workload, RunConfig};
        use chats_core::{HtmSystem, PolicyConfig};
        let a = run_workload(
            &Bayes::new(),
            PolicyConfig::for_system(HtmSystem::Chats),
            &RunConfig::quick_test().with_seed(1),
        )
        .unwrap()
        .cycles;
        let b = run_workload(
            &Bayes::new(),
            PolicyConfig::for_system(HtmSystem::Chats),
            &RunConfig::quick_test().with_seed(2),
        )
        .unwrap()
        .cycles;
        assert_ne!(a, b, "bayes runs should vary with the seed");
    }
}
