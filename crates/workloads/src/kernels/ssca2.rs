//! `ssca2`: graph kernel with near-zero contention.
//!
//! The paper (§VII): *"ssca2 and vacation exhibit very low contention
//! between transactions (the total number of aborts ranges between 0 and
//! 10 for the entire execution) [...] there are no opportunities to forward
//! values between transactions."* Tiny transactions update two cells of a
//! huge adjacency array; collisions are vanishingly rare.

use crate::kernels::{check_region_sum, R_TID};
use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_sim::SimRng;
use chats_tvm::{ProgramBuilder, Reg};

const ARRAY_LINES: u64 = 1 << 14;
const UPDATES_PER_TX: u64 = 2;

/// The ssca2 kernel.
#[derive(Debug, Clone)]
pub struct Ssca2 {
    nodes_per_thread: u64,
}

impl Ssca2 {
    /// Default scale.
    #[must_use]
    pub fn new() -> Ssca2 {
        Ssca2 {
            nodes_per_thread: 64,
        }
    }
}

impl Default for Ssca2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Ssca2 {
    /// Overrides the number of nodes each thread processes (scaling runs up or down).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_iterations(mut self, n: u64) -> Ssca2 {
        assert!(n > 0, "iteration count must be positive");
        self.nodes_per_thread = n;
        self
    }
}

impl Workload for Ssca2 {
    fn name(&self) -> &'static str {
        "ssca2"
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let iters = self.nodes_per_thread;
        let (i, n, addr, v, bound) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));

        let mut b = ProgramBuilder::new();
        b.imm(i, 0).imm(n, iters);
        let outer = b.label();
        b.bind(outer);
        b.pause(60);
        b.tx_begin();
        for _ in 0..UPDATES_PER_TX {
            b.imm(bound, ARRAY_LINES);
            b.rand(addr, bound);
            b.shli(addr, addr, 3);
            b.load(v, addr);
            b.addi(v, v, 1);
            b.store(addr, v);
        }
        b.tx_end();
        b.addi(i, i, 1);
        b.blt(i, n, outer);
        b.halt();
        let program = b.build();

        let programs = (0..threads)
            .map(|t| ThreadProgram {
                program: program.clone(),
                presets: vec![(R_TID, t as u64)],
                seed: seed ^ (t as u64).wrapping_mul(0x0BAD_F00D),
            })
            .collect();

        let expect = threads as u64 * iters * UPDATES_PER_TX;
        let checker = Box::new(move |m: &chats_machine::Machine| {
            check_region_sum(
                &m.memory_view(),
                "adjacency updates",
                0,
                ARRAY_LINES,
                expect,
            )
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
    fn ssca2_is_serializable() {
        smoke(&Ssca2::new(), &SMOKE_SYSTEMS);
    }

    #[test]
    fn ssca2_has_negligible_aborts() {
        use crate::spec::{run_workload, RunConfig};
        use chats_core::{HtmSystem, PolicyConfig};
        let stats = run_workload(
            &Ssca2::new(),
            PolicyConfig::for_system(HtmSystem::Baseline),
            &RunConfig::quick_test(),
        )
        .unwrap();
        assert!(
            stats.total_aborts() <= 10,
            "ssca2 must be almost conflict-free, got {} aborts",
            stats.total_aborts()
        );
    }
}
