//! `yada`: long-running retriangulation transactions.
//!
//! The paper (§VII): *"yada implements long-running transactions [...]
//! several random memory locations are accessed in a read-modify-write
//! fashion which CHATS can easily exploit. Whenever a transaction modifies
//! a memory location, it would not modify it again, following a migration
//! pattern."*
//!
//! Each transaction touches `TOUCHES` random mesh cavities: reads, local
//! geometry work (pauses), then one increment per cavity — each line
//! written at most once per transaction.

use crate::kernels::{check_region_sum, R_TID};
use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_sim::SimRng;
use chats_tvm::{ProgramBuilder, Reg};

const MESH_LINES: u64 = 192;
const TOUCHES: u64 = 6;

/// The yada kernel.
#[derive(Debug, Clone)]
pub struct Yada {
    triangles_per_thread: u64,
}

impl Yada {
    /// Default scale.
    #[must_use]
    pub fn new() -> Yada {
        Yada {
            triangles_per_thread: 20,
        }
    }
}

impl Default for Yada {
    fn default() -> Self {
        Self::new()
    }
}

impl Yada {
    /// Overrides the number of triangles each thread retriangulates (scaling runs up or down).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_iterations(mut self, n: u64) -> Yada {
        assert!(n > 0, "iteration count must be positive");
        self.triangles_per_thread = n;
        self
    }
}

impl Workload for Yada {
    fn name(&self) -> &'static str {
        "yada"
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let iters = self.triangles_per_thread;
        let (i, n, addr, v, bound) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));

        let mut b = ProgramBuilder::new();
        b.imm(i, 0).imm(n, iters);
        let outer = b.label();
        b.bind(outer);
        b.tx_begin();
        for _ in 0..TOUCHES {
            // Pick a cavity element, read-modify-write it, then do the
            // geometric work for that element (a long transaction).
            b.imm(bound, MESH_LINES);
            b.rand(addr, bound);
            b.shli(addr, addr, 3);
            b.load(v, addr);
            b.pause(25);
            b.addi(v, v, 1);
            b.store(addr, v);
        }
        b.tx_end();
        // Non-transactional work between retriangulations.
        b.pause(200);
        b.addi(i, i, 1);
        b.blt(i, n, outer);
        b.halt();
        let program = b.build();

        let programs = (0..threads)
            .map(|t| ThreadProgram {
                program: program.clone(),
                presets: vec![(R_TID, t as u64)],
                seed: seed ^ (t as u64).wrapping_mul(0x51ED_270B),
            })
            .collect();

        let expect = threads as u64 * iters * TOUCHES;
        let checker = Box::new(move |m: &chats_machine::Machine| {
            check_region_sum(&m.memory_view(), "mesh updates", 0, MESH_LINES, expect)
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
    fn yada_is_serializable() {
        smoke(&Yada::new(), &SMOKE_SYSTEMS);
    }
}
