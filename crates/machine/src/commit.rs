//! State commitments, epoch chains and checkpoint/restore.
//!
//! The machine's complete deterministic state — per-core state, L1 caches,
//! the directory and backing store, policy state (VSB/PiC/LEVC/retry),
//! in-flight interconnect messages and the pending event queue — folds
//! into one flat byte stream via [`chats_snap`], in a canonical order that
//! never leaks hash-map iteration order (DESIGN §16). That stream serves
//! two purposes:
//!
//! * **Commitments** — [`Machine::state_commitment`] hashes it with the
//!   deterministic [`chats_core::fasthash`] hasher. With
//!   [`Machine::set_commit_interval`] armed, the run loop records an
//!   [`EpochCommitment`] at every epoch boundary, producing a chain two
//!   runs can compare epoch-by-epoch (`chats-dissect`).
//! * **Checkpoints** — [`Machine::checkpoint`] wraps the stream with a
//!   header (magic, version, configuration guard, the commitment chain so
//!   far, and a self-check hash); [`Machine::restore`] resumes an
//!   identically-constructed machine from it, bit-for-bit.
//!
//! The commitment distinguishes **architectural** state (everything the
//! simulated hardware holds) from **environment** state (the fault
//! injector's RNG and the watchdog's bookkeeping): the `arch` hash covers
//! only the former, so a clean run and a fault-plan run can be dissected
//! against each other — their arch hashes first diverge at the epoch of
//! the first *actually injected* fault, not at the first consumed RNG
//! draw. Trace sinks, schedule hooks and the hook's decision count are
//! outside both hashes (commitments are invariant to observability).

use crate::machine::{Machine, Tuning, Violation};
use crate::msg::Event;
use chats_sim::{Cycle, EventQueue};
use chats_snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::hash::Hasher;

/// Checkpoint magic ("CHATSCKP" little-endian-ish constant).
const MAGIC: u64 = 0x5043_4B43_5441_4843;
/// Checkpoint format version; bump on any encoding change.
const VERSION: u32 = 2;

/// Names of the environment (non-architectural) sections; they are written
/// last, so the arch hash is the hash of the stream prefix before them.
const ENV_SECTIONS: [&str; 2] = ["env.faults", "env.watchdog"];

/// The default epoch-commitment interval in cycles, shared by the
/// dissection tools and the overhead bench. Each boundary hashes the
/// *complete* machine state (a walk proportional to state size, not to
/// the events in the epoch), so the interval is what amortizes that
/// fixed cost, while an epoch stays small enough that divergence
/// dissection replays at most a few tens of thousands of events to pin
/// the first divergent one. At 64 Ki cycles the throughput loss stays
/// under 5% only on the contended cell `chats-bench commit-overhead`
/// gates. On the paper-scale evm cells the state is larger: commitments
/// take 28% of host time on `evm-token-storm/chats` (1.8 ms each) and 26%
/// on `evm-transfers/chats` (2.1 ms each); DESIGN §16 has the
/// measurement, ROADMAP item 1 the open work.
pub const DEFAULT_COMMIT_INTERVAL: u64 = 65_536;

/// The full/arch commitment pair of one machine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCommitment {
    /// Hash over the complete state stream (arch + environment).
    pub full: u64,
    /// Hash over the architectural prefix only (excludes fault-injector
    /// and watchdog state). Compare *this* across runs under different
    /// fault plans.
    pub arch: u64,
}

/// One entry of a run's commitment chain: the machine state at an epoch
/// boundary, identified by the boundary cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochCommitment {
    /// The boundary cycle `B`: the hashed state reflects every event with
    /// time `< B` and none at or after it.
    pub boundary: u64,
    /// Full state hash at the boundary.
    pub full: u64,
    /// Architectural state hash at the boundary.
    pub arch: u64,
}

impl Snap for EpochCommitment {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.boundary);
        w.u64(self.full);
        w.u64(self.arch);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(EpochCommitment {
            boundary: r.u64()?,
            full: r.u64()?,
            arch: r.u64()?,
        })
    }
}

/// Epoch-commitment bookkeeping carried by the machine. Disarmed (interval
/// `None`) by default: the run loop then costs one branch per event.
#[derive(Debug, Clone, Default)]
pub(crate) struct CommitTracker {
    /// Epoch length in cycles; `None` disables boundary hashing.
    pub(crate) interval: Option<u64>,
    /// Next boundary to record.
    pub(crate) next_at: u64,
    /// Commitments recorded so far, in boundary order.
    pub(crate) chain: Vec<EpochCommitment>,
}

impl Snap for CommitTracker {
    fn save(&self, w: &mut SnapWriter) {
        self.interval.save(w);
        w.u64(self.next_at);
        self.chain.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(CommitTracker {
            interval: Snap::load(r)?,
            next_at: r.u64()?,
            chain: Snap::load(r)?,
        })
    }
}

impl Snap for Violation {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Violation::AtomicityAtCommit {
                core,
                addr,
                observed,
                committed,
                at,
            } => {
                w.u8(0);
                core.save(w);
                w.u64(*addr);
                w.u64(*observed);
                w.u64(*committed);
                w.u64(*at);
            }
            Violation::InconsistentRead {
                core,
                addr,
                observed,
                committed,
                at,
            } => {
                w.u8(1);
                core.save(w);
                w.u64(*addr);
                w.u64(*observed);
                w.u64(*committed);
                w.u64(*at);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let tag = r.u8()?;
        let core = Snap::load(r)?;
        let addr = r.u64()?;
        let observed = r.u64()?;
        let committed = r.u64()?;
        let at = r.u64()?;
        match tag {
            0 => Ok(Violation::AtomicityAtCommit {
                core,
                addr,
                observed,
                committed,
                at,
            }),
            1 => Ok(Violation::InconsistentRead {
                core,
                addr,
                observed,
                committed,
                at,
            }),
            t => Err(r.err(format!("Violation tag must be 0 or 1, got {t}"))),
        }
    }
}

/// Hashes a byte slice with the simulator's deterministic hasher.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = chats_core::fasthash::FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// The commitment pair of a state stream whose architectural prefix is
/// `bytes[..arch_end]`: `hash_bytes(bytes)` and `hash_bytes(&bytes[..arch_end])`
/// in one pass. The hasher consumes whole 8-byte words, so both hashes
/// share the state after the last whole word of the prefix; a copy of it
/// finishes the prefix, the original the rest of the stream.
fn commitment_of(bytes: &[u8], arch_end: usize) -> StateCommitment {
    let shared = arch_end / 8 * 8;
    let mut full = chats_core::fasthash::FxHasher::default();
    full.write(&bytes[..shared]);
    let mut arch = full;
    arch.write(&bytes[shared..arch_end]);
    full.write(&bytes[shared..]);
    StateCommitment {
        full: full.finish(),
        arch: arch.finish(),
    }
}

impl Machine {
    /// Arms epoch commitments: the run loop records an [`EpochCommitment`]
    /// at every multiple of `interval` cycles, starting with the initial
    /// state at boundary 0. Call before [`Machine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `interval` is 0.
    pub fn set_commit_interval(&mut self, interval: u64) {
        assert!(interval > 0, "an epoch needs a nonzero length");
        self.commit.interval = Some(interval);
    }

    /// The epoch length armed by [`Machine::set_commit_interval`], if any.
    #[must_use]
    pub fn commit_interval(&self) -> Option<u64> {
        self.commit.interval
    }

    /// The commitment chain recorded so far, in boundary order (empty
    /// unless [`Machine::set_commit_interval`] armed epoch hashing).
    #[must_use]
    pub fn commitment_chain(&self) -> &[EpochCommitment] {
        &self.commit.chain
    }

    /// Records every boundary at or before `next_time` (the timestamp of
    /// the next event about to be dispatched): the current state reflects
    /// exactly the events *before* each such boundary. Called from the run
    /// loop before the pause check, so a pause at boundary `B` always has
    /// `B`'s commitment on the chain.
    pub(crate) fn note_commit_boundaries(&mut self, next_time: u64) {
        let Some(interval) = self.commit.interval else {
            return;
        };
        while self.commit.next_at <= next_time {
            let boundary = self.commit.next_at;
            let c = self.state_commitment();
            self.commit.chain.push(EpochCommitment {
                boundary,
                full: c.full,
                arch: c.arch,
            });
            self.commit.next_at = boundary + interval;
        }
    }

    /// Serializes the complete deterministic machine state into `w`, in
    /// named sections. Architectural sections come first, the environment
    /// sections ([`ENV_SECTIONS`]) last, so the arch hash is a prefix
    /// hash. Trace sinks, schedule hooks and the hook's decision count are
    /// not state — they observe the run without influencing it.
    ///
    /// **Every new mutable `Machine` field must join this stream** (or be
    /// explicitly argued out as pure observability) — see the DESIGN §16
    /// checklist.
    pub(crate) fn write_state(&self, w: &mut SnapWriter) {
        w.mark("clock");
        self.clock.save(w);
        self.started.save(w);
        self.halted.save(w);
        w.u64(self.seed);

        w.mark("cores");
        w.u64(self.cores.len() as u64);
        for c in &self.cores {
            c.save_state(w);
        }

        w.mark("dir");
        self.dir.save_state(w);

        w.mark("noc");
        self.xbar.save_state(w);

        w.mark("queue");
        // Exact delivery order (time, then FIFO within a tie), independent
        // of the timing wheel's internal layout — a restored queue holds
        // the same events in a different arrangement yet hashes the same.
        let ordered = self.events.ordered();
        w.u64(ordered.len() as u64);
        for (t, ev) in ordered {
            t.save(w);
            ev.save(w);
        }

        w.mark("sched");
        self.lock.save(w);
        self.token.save(w);
        self.ts_source.save(w);
        self.rng.save(w);

        w.mark("stats");
        self.stats.save(w);

        w.mark("diag");
        self.violations.save(w);

        w.mark("env.faults");
        match &self.faults {
            None => w.u8(0),
            Some(f) => {
                w.u8(1);
                f.save_state(w);
            }
        }

        w.mark("env.watchdog");
        self.watchdog.save(w);
    }

    /// Restores state captured by [`Machine::write_state`] over this
    /// machine. The machine must have been constructed identically
    /// (configuration, threads loaded, fault plan installed) — callers go
    /// through [`Machine::restore`], which verifies that first.
    pub(crate) fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clock = Snap::load(r)?;
        self.started = Snap::load(r)?;
        self.halted = Snap::load(r)?;
        let seed = r.u64()?;
        if seed != self.seed {
            return Err(r.err(format!(
                "snapshot was taken under seed {seed}, machine runs {}",
                self.seed
            )));
        }
        let n = r.len_prefix(1)?;
        if n != self.cores.len() {
            return Err(r.err(format!(
                "snapshot has {n} cores, machine has {}",
                self.cores.len()
            )));
        }
        for c in &mut self.cores {
            c.restore_state(r)?;
        }
        self.dir.restore_state(r)?;
        self.xbar.restore_state(r)?;
        let n = r.len_prefix(9)?;
        let mut events = EventQueue::new();
        for _ in 0..n {
            let t: Cycle = Snap::load(r)?;
            let ev: Event = Snap::load(r)?;
            events.push(t, ev);
        }
        self.events = events;
        self.lock = Snap::load(r)?;
        self.token = Snap::load(r)?;
        self.ts_source = Snap::load(r)?;
        self.rng = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        self.violations = Snap::load(r)?;
        match (r.u8()?, self.faults.as_mut()) {
            (0, None) => {}
            (1, Some(f)) => f.restore_state(r)?,
            (0, Some(_)) => {
                return Err(r.err(
                    "snapshot has no fault state but a plan is installed here \
                     (restore on a machine constructed with the original plan)",
                ));
            }
            (1, None) => {
                return Err(r.err(
                    "snapshot carries fault state but no plan is installed here \
                     (restore on a machine constructed with the original plan)",
                ));
            }
            (t, _) => return Err(r.err(format!("fault presence byte must be 0 or 1, got {t}"))),
        }
        self.watchdog = Snap::load(r)?;
        Ok(())
    }

    /// The commitment of the machine's current state. Cost is one linear
    /// serialization of live state — intended for epoch boundaries and
    /// post-run fingerprints, not per-event use.
    #[must_use]
    pub fn state_commitment(&self) -> StateCommitment {
        let mut w = SnapWriter::new();
        self.write_state(&mut w);
        let bytes = w.bytes();
        let arch_end = w
            .sections()
            .iter()
            .find(|(name, _)| ENV_SECTIONS.contains(name))
            .map_or(bytes.len(), |(_, range)| range.start);
        commitment_of(bytes, arch_end)
    }

    /// Per-section subhashes of the current state, in stream order — the
    /// dissection tool's first localization step: two runs with unequal
    /// commitments differ in exactly the sections whose subhashes differ.
    #[must_use]
    pub fn commitment_sections(&self) -> Vec<(&'static str, u64)> {
        let mut w = SnapWriter::new();
        self.write_state(&mut w);
        let bytes = w.bytes();
        w.sections()
            .into_iter()
            .map(|(name, range)| (name, hash_bytes(&bytes[range])))
            .collect()
    }

    /// Hash of the construction parameters (configuration, policy, tuning,
    /// seed), each through its `canonical()` encoding: a checkpoint only
    /// restores onto a machine with a matching guard.
    #[must_use]
    pub fn config_guard(&self) -> u64 {
        hash_bytes(
            format!(
                "machine={}|policy={}|tuning={}|seed={}",
                self.cfg.canonical(),
                self.policy.canonical(),
                self.tuning.canonical(),
                self.seed
            )
            .as_bytes(),
        )
    }

    /// Serializes a complete checkpoint: header (magic, version,
    /// configuration guard), the commitment bookkeeping, and the
    /// self-check-hashed state body. Restore with [`Machine::restore`] on
    /// a machine constructed exactly like this one (same config, policy,
    /// tuning, seed, threads, fault plan).
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut body = SnapWriter::new();
        self.write_state(&mut body);
        let body = body.into_bytes();
        let mut w = SnapWriter::new();
        w.u64(MAGIC);
        w.u32(VERSION);
        w.u64(self.config_guard());
        self.commit.save(&mut w);
        w.u64(hash_bytes(&body));
        w.bytes_prefixed(&body);
        w.into_bytes()
    }

    /// Restores this machine from a [`Machine::checkpoint`] byte stream,
    /// including the commitment chain recorded up to the checkpoint. After
    /// a successful restore the machine continues exactly where the
    /// checkpointed one paused: the rest of the run — trace, stats,
    /// commitments — is byte-identical to the uninterrupted original.
    ///
    /// # Errors
    ///
    /// Fails on a malformed or truncated stream, a version or
    /// configuration-guard mismatch, or when the restored state does not
    /// re-serialize to the checkpointed bytes (the self-check).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        let magic = r.u64()?;
        if magic != MAGIC {
            return Err(r.err(format!("not a checkpoint (magic {magic:#018x})")));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(r.err(format!(
                "checkpoint format v{version}, this build reads v{VERSION}"
            )));
        }
        let guard = r.u64()?;
        if guard != self.config_guard() {
            return Err(r.err(format!(
                "checkpoint was taken under a different machine configuration \
                 (guard {guard:016x}, this machine {:016x})",
                self.config_guard()
            )));
        }
        let commit: CommitTracker = Snap::load(&mut r)?;
        let body_hash = r.u64()?;
        let body = r.bytes_prefixed()?;
        if !r.is_empty() {
            return Err(r.err(format!("{} trailing bytes after checkpoint", r.remaining())));
        }
        if hash_bytes(body) != body_hash {
            return Err(r.err("checkpoint body does not match its recorded hash (corrupt file?)"));
        }
        let mut br = SnapReader::new(body);
        self.read_state(&mut br)?;
        if !br.is_empty() {
            return Err(SnapError {
                at: br.position(),
                what: format!("{} trailing bytes after machine state", br.remaining()),
            });
        }
        self.commit = commit;
        // Self-check: the restored state must re-serialize to the very
        // bytes just read — anything less means a field was dropped on one
        // side and the resumed run would silently diverge.
        let restored = self.state_commitment();
        if restored.full != body_hash {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "restored state re-hashes to {:016x}, checkpoint body was {body_hash:016x} \
                     (state coverage bug)",
                    restored.full
                ),
            });
        }
        Ok(())
    }
}

/// A commitment fingerprint of this build of the simulator: runs the crate
/// doc-example workload (two threads incrementing a shared counter) on a
/// small test machine and returns the final full state commitment. Any
/// change to protocol behaviour, state layout or the hash itself moves the
/// fingerprint, so reproducers can refuse to replay against a build whose
/// semantics drifted.
#[must_use]
pub fn build_fingerprint() -> u64 {
    use chats_tvm::{ProgramBuilder, Reg, Vm};
    let mut b = ProgramBuilder::new();
    let (iters, one, addr, v) = (Reg(0), Reg(1), Reg(2), Reg(3));
    b.imm(iters, 10).imm(one, 1).imm(addr, 0);
    let top = b.label();
    b.bind(top);
    b.tx_begin();
    b.load(v, addr);
    b.add(v, v, one);
    b.store(addr, v);
    b.tx_end();
    b.sub(iters, iters, one);
    b.bne(iters, one, top);
    b.halt();
    let prog = b.build();
    let mut m = Machine::new(
        chats_sim::SystemConfig::small_test(),
        chats_core::PolicyConfig::for_system(chats_core::HtmSystem::Chats),
        Tuning::default(),
        7,
    );
    m.load_thread(0, Vm::new(prog.clone(), 1));
    m.load_thread(1, Vm::new(prog, 2));
    m.run(1_000_000)
        .expect("fingerprint workload must complete");
    m.state_commitment().full
}

#[cfg(test)]
mod tests {
    use super::{commitment_of, hash_bytes, StateCommitment};
    use crate::machine::RunProgress;
    use crate::{Machine, RingSink, Tuning};
    use chats_core::{HtmSystem, PolicyConfig};
    use chats_sim::SystemConfig;
    use chats_snap::SnapWriter;
    use chats_tvm::{ProgramBuilder, Reg, Vm};

    /// Two threads transactionally incrementing a shared counter long
    /// enough to cross several epoch boundaries.
    fn counter_machine(seed: u64) -> Machine {
        let mut b = ProgramBuilder::new();
        let (iters, one, addr, v) = (Reg(0), Reg(1), Reg(2), Reg(3));
        b.imm(iters, 200).imm(one, 1).imm(addr, 0);
        let top = b.label();
        b.bind(top);
        b.tx_begin();
        b.load(v, addr);
        b.add(v, v, one);
        b.store(addr, v);
        b.tx_end();
        b.sub(iters, iters, one);
        b.bne(iters, one, top);
        b.halt();
        let prog = b.build();
        let mut m = Machine::new(
            SystemConfig::small_test(),
            PolicyConfig::for_system(HtmSystem::Chats),
            Tuning::default(),
            seed,
        );
        m.load_thread(0, Vm::new(prog.clone(), 1));
        m.load_thread(1, Vm::new(prog, 2));
        m
    }

    #[test]
    fn commitments_are_deterministic_and_trace_invariant() {
        let mut a = counter_machine(7);
        a.set_commit_interval(256);
        a.set_trace_sink(Box::new(RingSink::new(1 << 14)));
        let stats_a = a.run(1_000_000).unwrap();

        let mut b = counter_machine(7);
        b.set_commit_interval(256);
        // No trace sink at all: the chain must not notice.
        let stats_b = b.run(1_000_000).unwrap();

        assert_eq!(stats_a, stats_b);
        assert!(
            a.commitment_chain().len() > 3,
            "run too short to cross epochs"
        );
        assert_eq!(a.commitment_chain(), b.commitment_chain());
        assert_eq!(a.state_commitment(), b.state_commitment());
        // No fault plan installed: arch and full hashes agree except for
        // the (empty) env sections' encoding, which is identical too.
        let c = a.state_commitment();
        let sections = a.commitment_sections();
        assert!(sections.iter().any(|(n, _)| *n == "queue"));
        assert_ne!(c.full, 0);
    }

    /// `state_commitment` hashes the stream once; it must equal the
    /// two-pass definition, under a fault plan and a watchdog so the
    /// environment sections that trail the arch prefix are non-empty.
    #[test]
    fn one_pass_commitment_matches_the_two_pass_definition() {
        let mut m = counter_machine(7);
        m.set_fault_plan(&crate::FaultPlan::abort_storm());
        m.set_watchdog(1 << 20);
        let mut unaligned_splits = 0;
        for pause in [0, 256, 512, 1024] {
            let RunProgress::Paused { .. } = m.run_to(pause, 1_000_000).unwrap() else {
                panic!("workload finished before cycle {pause}");
            };
            let mut w = SnapWriter::new();
            m.write_state(&mut w);
            let bytes = w.bytes();
            let section = |name: &str| w.sections().into_iter().find(|(n, _)| *n == name);
            let (_, faults) = section("env.faults").expect("a fault section");
            let (_, watchdog) = section("env.watchdog").expect("a watchdog section");
            assert!(!faults.is_empty() && !watchdog.is_empty());
            let arch_end = faults.start;
            assert_eq!(
                m.state_commitment(),
                StateCommitment {
                    full: hash_bytes(bytes),
                    arch: hash_bytes(&bytes[..arch_end]),
                }
            );
            // Every split point near the real one, aligned or not, plus a
            // spread over the whole stream.
            let near = arch_end.saturating_sub(12)..=(arch_end + 12).min(bytes.len());
            let spread = (0..=bytes.len()).step_by(bytes.len() / 64 + 1);
            for end in near.chain(spread) {
                unaligned_splits += usize::from(end % 8 != 0);
                assert_eq!(
                    commitment_of(bytes, end),
                    StateCommitment {
                        full: hash_bytes(bytes),
                        arch: hash_bytes(&bytes[..end]),
                    },
                    "split at {end} of {}",
                    bytes.len()
                );
            }
        }
        assert!(unaligned_splits > 0);
    }

    #[test]
    fn different_seeds_produce_different_commitments() {
        let mut a = counter_machine(7);
        let mut b = counter_machine(8);
        a.run(1_000_000).unwrap();
        b.run(1_000_000).unwrap();
        assert_ne!(a.state_commitment().full, b.state_commitment().full);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        // Golden: one uninterrupted run.
        let mut gold = counter_machine(7);
        gold.set_commit_interval(256);
        gold.set_trace_sink(Box::new(RingSink::new(1 << 14)));
        let gold_stats = gold.run(1_000_000).unwrap();
        let gold_trace = gold.trace_events();
        let gold_chain = gold.commitment_chain().to_vec();
        assert_eq!(gold.dropped_events(), 0, "ring too small for the test");

        // Interrupted: pause on an epoch boundary, checkpoint.
        let mut first = counter_machine(7);
        first.set_commit_interval(256);
        first.set_trace_sink(Box::new(RingSink::new(1 << 14)));
        let RunProgress::Paused { at } = first.run_to(1024, 1_000_000).unwrap() else {
            panic!("workload finished before the pause boundary");
        };
        assert_eq!(at, 1024);
        let ckpt = first.checkpoint();
        let prefix_trace = first.trace_events();

        // Resume on a freshly constructed machine.
        let mut resumed = counter_machine(7);
        resumed.set_trace_sink(Box::new(RingSink::new(1 << 14)));
        resumed.restore(&ckpt).unwrap();
        // Paused exactly on a boundary ⇒ the restored state re-hashes to
        // that boundary's chain entry.
        let entry = resumed
            .commitment_chain()
            .iter()
            .find(|e| e.boundary == 1024)
            .copied()
            .expect("boundary 1024 must be on the restored chain");
        assert_eq!(resumed.state_commitment().full, entry.full);

        let resumed_stats = resumed.run(1_000_000).unwrap();
        assert_eq!(resumed_stats, gold_stats);
        assert_eq!(resumed.commitment_chain(), &gold_chain[..]);
        // The pre-pause trace plus the post-restore trace is the golden
        // trace, event for event.
        let mut stitched = prefix_trace;
        stitched.extend(resumed.trace_events());
        assert_eq!(stitched, gold_trace);
        assert_eq!(
            resumed.inspect_word(chats_mem::Addr(0)),
            gold.inspect_word(chats_mem::Addr(0))
        );
    }

    #[test]
    fn restore_rejects_mismatched_construction() {
        let mut a = counter_machine(7);
        let RunProgress::Paused { .. } = a.run_to(512, 1_000_000).unwrap() else {
            panic!("workload finished before the pause boundary");
        };
        let ckpt = a.checkpoint();
        // Different seed ⇒ different configuration guard.
        let mut wrong = counter_machine(8);
        assert!(wrong.restore(&ckpt).is_err());
        // Corrupt body ⇒ hash mismatch.
        let mut bad = ckpt.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        let mut m = counter_machine(7);
        assert!(m.restore(&bad).is_err());
        // Truncation ⇒ decode error.
        let mut m = counter_machine(7);
        assert!(m.restore(&ckpt[..ckpt.len() - 3]).is_err());
    }

    #[test]
    fn build_fingerprint_is_stable_within_a_build() {
        assert_eq!(super::build_fingerprint(), super::build_fingerprint());
    }
}
