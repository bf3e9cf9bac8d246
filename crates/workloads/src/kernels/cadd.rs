//! `cadd` microbenchmark: cluster sums under a hot shared variable.
//!
//! The paper (§VI-C): *"every thread modifies a shared variable and
//! iterates over all the elements in the cluster calculating the sum of
//! every element plus the modified version of the variable"* — and §VII:
//! *"even if transactions hold a shared modified memory address for a long
//! time, CHATS manages to exploit parallelism by allowing several
//! transactions to have local copies of those locations."*
//!
//! The shared variable is written once at transaction start and then only
//! held, which is the ideal forwarding scenario: consumers receive a value
//! that will not change again before the producer commits.

use crate::kernels::{line_word, R_TID};
use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_mem::Addr;
use chats_sim::SimRng;
use chats_tvm::{ProgramBuilder, Reg};

/// The hot shared variable.
const SHARED_VAR: u64 = 0;
const CLUSTERS_BASE: u64 = 8;
const CLUSTERS: u64 = 32;
const CLUSTER_LEN: u64 = 16;
/// Per-thread result slots.
const RESULTS_BASE: u64 = 1 << 16;

/// The cadd kernel.
#[derive(Debug, Clone)]
pub struct Cadd {
    iterations: u64,
}

impl Cadd {
    /// Default scale.
    #[must_use]
    pub fn new() -> Cadd {
        Cadd { iterations: 20 }
    }
}

impl Default for Cadd {
    fn default() -> Self {
        Self::new()
    }
}

impl Cadd {
    /// Overrides the number of cluster sums each thread computes (scaling runs up or down).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_iterations(mut self, n: u64) -> Cadd {
        assert!(n > 0, "iteration count must be positive");
        self.iterations = n;
        self
    }
}

impl Workload for Cadd {
    fn name(&self) -> &'static str {
        "cadd"
    }

    fn is_micro(&self) -> bool {
        true
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let iters = self.iterations;
        let (i, n, c, addr, v, sum, bound, e, res) = (
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
        b.imm(i, 0).imm(n, iters);
        // Per-thread result slot address.
        b.addi(res, R_TID, RESULTS_BASE / 8);
        b.shli(res, res, 3);
        let outer = b.label();
        b.bind(outer);
        b.imm(bound, CLUSTERS);
        b.rand(c, bound);
        b.tx_begin();
        // Modify the shared variable first (then hold it for the rest of
        // the long transaction).
        b.imm(addr, line_word(SHARED_VAR));
        b.load(v, addr);
        b.addi(v, v, 1);
        b.store(addr, v);
        // Sum the whole cluster plus the modified variable.
        b.mov(sum, v);
        b.imm(e, 0);
        let inner = b.label();
        b.bind(inner);
        b.muli(addr, c, CLUSTER_LEN);
        b.add(addr, addr, e);
        b.addi(addr, addr, CLUSTERS_BASE);
        b.shli(addr, addr, 3);
        b.load(v, addr);
        b.add(sum, sum, v);
        b.addi(e, e, 1);
        b.imm(v, CLUSTER_LEN);
        b.blt(e, v, inner);
        b.store(res, sum);
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
                seed: seed ^ (t as u64).wrapping_mul(0xCADD_CADD),
            })
            .collect();

        // Populate the clusters with ones.
        let mut init = Vec::new();
        for k in 0..CLUSTERS * CLUSTER_LEN {
            init.push((Addr(line_word(CLUSTERS_BASE + k)), 1));
        }

        let total = threads as u64 * iters;
        let n_threads = threads as u64;
        let checker = Box::new(move |m: &chats_machine::Machine| {
            let mem = m.memory_view();
            let var = mem.read(Addr(line_word(SHARED_VAR)));
            if var != total {
                return Err(format!("shared variable {var} != {total}"));
            }
            // Each result is (cluster sum = CLUSTER_LEN) + (some value of
            // the shared variable in 1..=total).
            for t in 0..n_threads {
                let r = mem.read(Addr(RESULTS_BASE + t * 8));
                let base = CLUSTER_LEN;
                if !(base + 1..=base + total).contains(&r) {
                    return Err(format!(
                        "thread {t} result {r} outside [{}, {}]",
                        base + 1,
                        base + total
                    ));
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
    fn cadd_is_serializable() {
        smoke(&Cadd::new(), &SMOKE_SYSTEMS);
    }

    #[test]
    fn cadd_is_micro() {
        assert!(Cadd::new().is_micro());
    }
}
