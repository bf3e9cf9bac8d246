//! `genome`: producer-consumer segment insertion.
//!
//! The paper (§VII): *"In genome, the same behavior [as kmeans] is
//! expected since genome sequencing follows an analogous behavior of
//! producer-consumer dependencies"*, at lower contention.
//!
//! Threads insert segments into hashed buckets: a transaction bumps the
//! bucket's insertion counter (the contended producer-consumer value) and
//! publishes the segment into the slot the old counter selected. Collisions
//! on the counter are exactly the values CHATS forwards.

use crate::kernels::{check_region_sum, line_word, R_TID};
use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_mem::Addr;
use chats_sim::SimRng;
use chats_tvm::{ProgramBuilder, Reg};

const BUCKETS: u64 = 48;
/// Max insertions per bucket the slot region accommodates.
const SLOTS_PER_BUCKET: u64 = 512;
const SLOTS_BASE: u64 = 1 << 16;

/// The genome kernel.
#[derive(Debug, Clone)]
pub struct Genome {
    segments_per_thread: u64,
}

impl Genome {
    /// Default scale.
    #[must_use]
    pub fn new() -> Genome {
        Genome {
            segments_per_thread: 48,
        }
    }
}

impl Default for Genome {
    fn default() -> Self {
        Self::new()
    }
}

impl Genome {
    /// Overrides the number of segments each thread inserts (scaling runs up or down).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_iterations(mut self, n: u64) -> Genome {
        assert!(n > 0, "iteration count must be positive");
        self.segments_per_thread = n;
        self
    }
}

impl Workload for Genome {
    fn name(&self) -> &'static str {
        "genome"
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        let segs = self.segments_per_thread;
        let (i, n, h, cnt, addr, slot, bound, tidv) = (
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
        b.imm(i, 0).imm(n, segs);
        b.addi(tidv, R_TID, 1); // published segment payload: tid + 1
        let outer = b.label();
        b.bind(outer);
        // Hash the segment (local work), pick a bucket.
        b.pause(120);
        b.imm(bound, BUCKETS);
        b.rand(h, bound);
        b.tx_begin();
        // Bump the bucket counter...
        b.shli(addr, h, 3);
        b.load(cnt, addr);
        b.addi(slot, cnt, 1);
        b.store(addr, slot);
        // ...and publish into the slot the old counter picked:
        // slot_line = SLOTS_BASE + h * SLOTS_PER_BUCKET + cnt.
        b.muli(slot, h, SLOTS_PER_BUCKET);
        b.add(slot, slot, cnt);
        b.addi(slot, slot, SLOTS_BASE);
        b.shli(slot, slot, 3);
        b.store(slot, tidv);
        b.tx_end();
        b.addi(i, i, 1);
        b.blt(i, n, outer);
        b.halt();
        let program = b.build();

        let programs = (0..threads)
            .map(|t| ThreadProgram {
                program: program.clone(),
                presets: vec![(R_TID, t as u64)],
                seed: seed ^ (t as u64).wrapping_mul(0xA5A5_5A5A),
            })
            .collect();

        let total = threads as u64 * segs;
        let checker = Box::new(move |m: &chats_machine::Machine| {
            let mem = m.memory_view();
            check_region_sum(&mem, "bucket counters", 0, BUCKETS, total)?;
            // Atomicity of counter-bump + publish: every insertion landed in
            // a distinct slot, so exactly `total` slots are non-zero.
            let mut published = 0u64;
            for bkt in 0..BUCKETS {
                let cnt = mem.read(Addr(line_word(bkt)));
                for s in 0..cnt.min(SLOTS_PER_BUCKET) {
                    let v = mem.read(Addr(line_word(SLOTS_BASE + bkt * SLOTS_PER_BUCKET + s)));
                    if v != 0 {
                        published += 1;
                    } else {
                        return Err(format!("bucket {bkt} slot {s} empty below its counter"));
                    }
                }
            }
            if published != total {
                return Err(format!("published {published} != inserted {total}"));
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
    fn genome_is_serializable() {
        smoke(&Genome::new(), &SMOKE_SYSTEMS);
    }
}
