//! `vacation`: travel-reservation system.
//!
//! Read-mostly transactions over large reservation tables; contention is
//! very low in both flavours (§VII groups vacation with ssca2). The `-h`
//! flavour issues more queries and updates per reservation over a smaller
//! table, so its (still rare) conflicts are slightly more frequent.

use crate::kernels::{check_region_sum, R_TID};
use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_sim::SimRng;
use chats_tvm::{ProgramBuilder, Reg};

/// The vacation kernel.
#[derive(Debug, Clone)]
pub struct Vacation {
    name: &'static str,
    table_lines: u64,
    queries_per_tx: u64,
    updates_per_tx: u64,
    reservations_per_thread: u64,
}

impl Vacation {
    /// Low-contention flavour.
    #[must_use]
    pub fn low() -> Vacation {
        Vacation {
            name: "vacation-l",
            table_lines: 4096,
            queries_per_tx: 6,
            updates_per_tx: 2,
            reservations_per_thread: 32,
        }
    }

    /// Higher-rate flavour.
    #[must_use]
    pub fn high() -> Vacation {
        Vacation {
            name: "vacation-h",
            table_lines: 2048,
            queries_per_tx: 10,
            updates_per_tx: 3,
            reservations_per_thread: 32,
        }
    }
}

impl Vacation {
    /// Overrides the number of reservations each thread makes (scaling runs up or down).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_iterations(mut self, n: u64) -> Vacation {
        assert!(n > 0, "iteration count must be positive");
        self.reservations_per_thread = n;
        self
    }
}

impl Workload for Vacation {
    fn name(&self) -> &'static str {
        self.name
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let iters = self.reservations_per_thread;
        let table = self.table_lines;
        let queries = self.queries_per_tx;
        let updates = self.updates_per_tx;
        let (i, n, addr, v, bound) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));

        let mut b = ProgramBuilder::new();
        b.imm(i, 0).imm(n, iters);
        let outer = b.label();
        b.bind(outer);
        b.pause(120);
        b.tx_begin();
        for _ in 0..queries {
            b.imm(bound, table);
            b.rand(addr, bound);
            b.shli(addr, addr, 3);
            b.load(v, addr);
        }
        for _ in 0..updates {
            b.imm(bound, table);
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
                seed: seed ^ (t as u64).wrapping_mul(0x7A3B_11C5),
            })
            .collect();

        let expect = threads as u64 * iters * updates;
        let checker = Box::new(move |m: &chats_machine::Machine| {
            check_region_sum(&m.memory_view(), "reservations", 0, table, expect)
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
    fn vacation_low_is_serializable() {
        smoke(&Vacation::low(), &SMOKE_SYSTEMS);
    }

    #[test]
    fn vacation_high_is_serializable() {
        smoke(&Vacation::high(), &SMOKE_SYSTEMS);
    }
}
