//! `kmeans`: migratory center updates.
//!
//! The paper (§VII): *"kmeans is a benchmark that hugely benefits from
//! correct data forwarding as contending threads have the same data access
//! patterns. Once a transaction modifies one of the dimensions for the
//! center, there is no further update, so this data can be safely forwarded
//! to other threads."*
//!
//! Per point, a thread runs three transactions: the contended center
//! update (one increment per dimension, **each dimension on its own cache
//! line** so every line is written exactly once per transaction — the
//! property that makes forwarding profitable) and two global-counter
//! updates. `kmeans-l` spreads updates over 16 centers, `kmeans-h` over 4.

use crate::kernels::{check_region_sum, line_word, R_TID};
use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_mem::Addr;
use chats_sim::SimRng;
use chats_tvm::{ProgramBuilder, Reg};

/// Dimensions per center, one line each.
pub const DIMS: u64 = 4;
/// First line of the two global counters.
const GLOBALS_BASE: u64 = 4096;

/// The kmeans kernel.
#[derive(Debug, Clone)]
pub struct Kmeans {
    name: &'static str,
    centers: u64,
    points_per_thread: u64,
}

impl Kmeans {
    /// Low-contention flavour: 16 centers.
    #[must_use]
    pub fn low() -> Kmeans {
        Kmeans {
            name: "kmeans-l",
            centers: 16,
            points_per_thread: 32,
        }
    }

    /// High-contention flavour: 4 centers.
    #[must_use]
    pub fn high() -> Kmeans {
        Kmeans {
            name: "kmeans-h",
            centers: 4,
            points_per_thread: 32,
        }
    }
}

impl Kmeans {
    /// Overrides the number of points each thread classifies (scaling runs up or down).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_iterations(mut self, n: u64) -> Kmeans {
        assert!(n > 0, "iteration count must be positive");
        self.points_per_thread = n;
        self
    }
}

impl Workload for Kmeans {
    fn name(&self) -> &'static str {
        self.name
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let centers = self.centers;
        let points = self.points_per_thread;
        let (i, n, c, addr, v, bound) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));

        let mut b = ProgramBuilder::new();
        b.imm(i, 0).imm(n, points);
        let outer = b.label();
        b.bind(outer);
        // Pick the center this point belongs to.
        b.imm(bound, centers);
        b.rand(c, bound);
        // Classify the point: some non-transactional work.
        b.pause(150);
        // Transaction 1: update all dimensions of the chosen center.
        b.tx_begin();
        for d in 0..DIMS {
            b.muli(addr, c, DIMS * 8);
            b.addi(addr, addr, d * 8);
            b.load(v, addr);
            b.addi(v, v, 1);
            b.store(addr, v);
        }
        b.tx_end();
        // Transactions 2 and 3: the two global accumulators.
        for g in 0..2u64 {
            b.tx_begin();
            b.imm(addr, line_word(GLOBALS_BASE + g));
            b.load(v, addr);
            b.addi(v, v, 1);
            b.store(addr, v);
            b.tx_end();
        }
        b.addi(i, i, 1);
        b.blt(i, n, outer);
        b.halt();
        let program = b.build();

        let programs = (0..threads)
            .map(|t| ThreadProgram {
                program: program.clone(),
                presets: vec![(R_TID, t as u64)],
                seed: seed ^ (t as u64).wrapping_mul(0x9E37_79B9),
            })
            .collect();

        let total_points = threads as u64 * points;
        let c_lines = centers * DIMS;
        let checker = Box::new(move |m: &chats_machine::Machine| {
            let mem = m.memory_view();
            check_region_sum(&mem, "center updates", 0, c_lines, total_points * DIMS)?;
            for g in 0..2u64 {
                let got = mem.read(Addr(line_word(GLOBALS_BASE + g)));
                if got != total_points {
                    return Err(format!("global {g}: {got} != {total_points}"));
                }
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
    fn kmeans_low_is_serializable() {
        smoke(&Kmeans::low(), &SMOKE_SYSTEMS);
    }

    #[test]
    fn kmeans_high_is_serializable() {
        smoke(&Kmeans::high(), &SMOKE_SYSTEMS);
    }

    #[test]
    fn flavours_differ_in_contention() {
        assert!(Kmeans::high().centers < Kmeans::low().centers);
    }
}
