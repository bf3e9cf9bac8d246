//! `intruder`: network-intrusion detection pipeline.
//!
//! The paper (§VII): capture pops from a FIFO queue where *"there is a
//! time gap between reading and modifying the structure pointer, which can
//! be read by multiple transactions simultaneously"* (the starving-writers
//! / false-cycle pathology), and reassembly traverses a tree that is
//! *"occasionally re-balanced"*, causing generalized aborts. A third
//! transaction drains the results queue.

use crate::kernels::{check_region_sum, line_word, R_TID};
use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_mem::Addr;
use chats_sim::SimRng;
use chats_tvm::{ProgramBuilder, Reg};

/// FIFO head counter.
const FIFO_HEAD: u64 = 0;
/// Packet payload region (read-only).
const PACKETS_BASE: u64 = 64;
const PACKETS: u64 = 128;
/// Reassembly tree nodes.
const TREE_BASE: u64 = 1024;
const TREE_NODES: u64 = 64;
/// Results queue counter.
const RESULTS: u64 = 4096;
/// Every `REBALANCE_PERIOD`-th reassembly rewrites several tree nodes.
const REBALANCE_PERIOD: u64 = 8;
const REBALANCE_TOUCHES: u64 = 6;

/// The intruder kernel.
#[derive(Debug, Clone)]
pub struct Intruder {
    flows_per_thread: u64,
}

impl Intruder {
    /// Default scale.
    #[must_use]
    pub fn new() -> Intruder {
        Intruder {
            flows_per_thread: 24,
        }
    }
}

impl Default for Intruder {
    fn default() -> Self {
        Self::new()
    }
}

impl Intruder {
    /// Overrides the number of flows each thread processes (scaling runs up or down).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_iterations(mut self, n: u64) -> Intruder {
        assert!(n > 0, "iteration count must be positive");
        self.flows_per_thread = n;
        self
    }
}

impl Workload for Intruder {
    fn name(&self) -> &'static str {
        "intruder"
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let iters = self.flows_per_thread;
        let (i, n, addr, v, bound, pkt, tmp) =
            (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));

        let mut b = ProgramBuilder::new();
        b.imm(i, 0).imm(n, iters);
        let outer = b.label();
        b.bind(outer);

        // --- capture: pop the FIFO with a read-to-modify gap -------------
        b.tx_begin();
        b.imm(addr, line_word(FIFO_HEAD));
        b.load(v, addr);
        // Read the packet the head points at (time gap before the store).
        b.andi(pkt, v, PACKETS - 1);
        b.addi(pkt, pkt, PACKETS_BASE);
        b.shli(pkt, pkt, 3);
        b.load(tmp, pkt);
        b.pause(60);
        b.addi(v, v, 1);
        b.store(addr, v);
        b.tx_end();

        // --- reassembly: tree walk + insert, periodic rebalance ----------
        b.pause(100);
        b.tx_begin();
        b.andi(tmp, i, REBALANCE_PERIOD - 1);
        b.imm(v, REBALANCE_PERIOD - 1);
        let rebalance = b.label();
        let after = b.label();
        b.beq(tmp, v, rebalance);
        // Normal insert: read a root-to-leaf path, update the leaf.
        for depth in 0..3u64 {
            b.imm(bound, 1 << (depth + 1));
            b.rand(addr, bound);
            b.addi(addr, addr, TREE_BASE + (1 << (depth + 1)) - 2);
            b.shli(addr, addr, 3);
            b.load(v, addr);
        }
        b.imm(bound, TREE_NODES);
        b.rand(addr, bound);
        b.addi(addr, addr, TREE_BASE);
        b.shli(addr, addr, 3);
        b.load(v, addr);
        b.addi(v, v, 1);
        b.store(addr, v);
        b.jmp(after);
        // Rebalance: rewrite several nodes.
        b.bind(rebalance);
        for _ in 0..REBALANCE_TOUCHES {
            b.imm(bound, TREE_NODES);
            b.rand(addr, bound);
            b.addi(addr, addr, TREE_BASE);
            b.shli(addr, addr, 3);
            b.load(v, addr);
            b.addi(v, v, 1);
            b.store(addr, v);
        }
        b.bind(after);
        b.tx_end();

        // --- results: push into the results queue ------------------------
        b.tx_begin();
        b.imm(addr, line_word(RESULTS));
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
                seed: seed ^ (t as u64).wrapping_mul(0xDEAD_BEEF),
            })
            .collect();

        // Packet payloads (read-only).
        let init: Vec<(Addr, u64)> = (0..PACKETS)
            .map(|p| (Addr(line_word(PACKETS_BASE + p)), p + 7))
            .collect();

        let total = threads as u64 * iters;
        // Iterations with i % PERIOD == PERIOD-1 rebalance (6 increments);
        // the rest insert (1 increment).
        let per_thread_rebalances = (0..iters)
            .filter(|i| i % REBALANCE_PERIOD == REBALANCE_PERIOD - 1)
            .count() as u64;
        let tree_expect = threads as u64
            * ((iters - per_thread_rebalances) + per_thread_rebalances * REBALANCE_TOUCHES);
        let checker = Box::new(move |m: &chats_machine::Machine| {
            let mem = m.memory_view();
            let head = mem.read(Addr(line_word(FIFO_HEAD)));
            if head != total {
                return Err(format!("fifo head {head} != {total}"));
            }
            let res = mem.read(Addr(line_word(RESULTS)));
            if res != total {
                return Err(format!("results {res} != {total}"));
            }
            check_region_sum(&mem, "tree updates", TREE_BASE, TREE_NODES, tree_expect)
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
    fn intruder_is_serializable() {
        smoke(&Intruder::new(), &SMOKE_SYSTEMS);
    }
}
