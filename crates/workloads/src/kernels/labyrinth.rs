//! `labyrinth`: path routing over a shared grid.
//!
//! The paper (§VII): *"labyrinth shows no improvements given its scarce
//! parallelism when its shared data structure cannot be early released from
//! the read set of its main transaction."* Long transactions keep a large
//! slice of the grid in their read set while carving a path of writes;
//! every committed path invalidates everyone else's read set.

use crate::kernels::{check_region_sum, R_TID};
use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_sim::SimRng;
use chats_tvm::{ProgramBuilder, Reg};

const GRID_LINES: u64 = 192;
const READS_PER_PATH: u64 = 64;
const WRITES_PER_PATH: u64 = 6;

/// The labyrinth kernel.
#[derive(Debug, Clone)]
pub struct Labyrinth {
    paths_per_thread: u64,
}

impl Labyrinth {
    /// Default scale.
    #[must_use]
    pub fn new() -> Labyrinth {
        Labyrinth {
            paths_per_thread: 6,
        }
    }
}

impl Default for Labyrinth {
    fn default() -> Self {
        Self::new()
    }
}

impl Labyrinth {
    /// Overrides the number of paths each thread routes (scaling runs up or down).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_iterations(mut self, n: u64) -> Labyrinth {
        assert!(n > 0, "iteration count must be positive");
        self.paths_per_thread = n;
        self
    }
}

impl Workload for Labyrinth {
    fn name(&self) -> &'static str {
        "labyrinth"
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let iters = self.paths_per_thread;
        let (i, n, addr, v, bound) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));

        let mut b = ProgramBuilder::new();
        b.imm(i, 0).imm(n, iters);
        let outer = b.label();
        b.bind(outer);
        b.tx_begin();
        // Route search: read a large slice of the grid into the read set.
        for _ in 0..READS_PER_PATH {
            b.imm(bound, GRID_LINES);
            b.rand(addr, bound);
            b.shli(addr, addr, 3);
            b.load(v, addr);
        }
        b.pause(80); // path computation
                     // Carve the path: write a handful of cells.
        for _ in 0..WRITES_PER_PATH {
            b.imm(bound, GRID_LINES);
            b.rand(addr, bound);
            b.shli(addr, addr, 3);
            b.load(v, addr);
            b.addi(v, v, 1);
            b.store(addr, v);
        }
        b.tx_end();
        b.pause(200);
        b.addi(i, i, 1);
        b.blt(i, n, outer);
        b.halt();
        let program = b.build();

        let programs = (0..threads)
            .map(|t| ThreadProgram {
                program: program.clone(),
                presets: vec![(R_TID, t as u64)],
                seed: seed ^ (t as u64).wrapping_mul(0x1F2E_3D4C),
            })
            .collect();

        let expect = threads as u64 * iters * WRITES_PER_PATH;
        let checker = Box::new(move |m: &chats_machine::Machine| {
            check_region_sum(&m.memory_view(), "grid paths", 0, GRID_LINES, expect)
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
    fn labyrinth_is_serializable() {
        smoke(&Labyrinth::new(), &SMOKE_SYSTEMS);
    }
}
