//! Checkpointed job execution: periodic snapshots, commitment-chain
//! bookkeeping, and resume-from-interruption.
//!
//! With `--checkpoint-every N` the runner drives each job through
//! [`chats_machine::Machine::run_to`] in `N`-cycle strides, writing a full
//! machine checkpoint at every pause boundary. The epoch-commitment
//! interval is armed to the same stride, so each checkpoint lands exactly
//! on a commitment boundary: the restored machine's state hash must equal
//! the chain entry recorded at that boundary, which is what lets the
//! cache treat a checkpoint (plus its commitment chain) as *verifiable*
//! partial progress rather than an opaque blob.
//!
//! Checkpoints are sidecar files under `<cache-dir>/checkpoints/`, one
//! per [`JobId`]. A finished job deletes its sidecar (the result cache
//! takes over); an interrupted, timed-out or stalled job leaves it
//! behind, and a later `--resume` run picks the job up from the last
//! boundary instead of cycle 0. Every validation failure — wrong
//! configuration guard, corrupt body, commitment mismatch — degrades to
//! a fresh run, never a wrong result.

use crate::job::JobSpec;
use chats_machine::{EpochCommitment, RunProgress};
use chats_stats::RunStats;
use chats_workloads::{finish_run, PreparedRun, RunFailure};
use std::fs;
use std::path::{Path, PathBuf};

/// How to checkpoint job execution.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint (and epoch-commitment) stride in simulated cycles.
    pub every: u64,
    /// Restore from an existing checkpoint sidecar instead of starting
    /// at cycle 0.
    pub resume: bool,
    /// Sidecar directory (see [`checkpoint_dir`]).
    pub dir: PathBuf,
}

/// The checkpoint sidecar directory for a cache directory.
#[must_use]
pub fn checkpoint_dir(cache_dir: &Path) -> PathBuf {
    cache_dir.join("checkpoints")
}

/// The commitment bookkeeping a checkpointed execution hands back for
/// the run manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitMeta {
    /// Epoch length in cycles.
    pub interval: u64,
    /// The boundary the job resumed from, when it did.
    pub resumed_from: Option<u64>,
    /// The full commitment chain, boundary 0 onward.
    pub chain: Vec<EpochCommitment>,
}

impl CheckpointConfig {
    /// The sidecar path for a job.
    #[must_use]
    pub fn path_for(&self, spec: &JobSpec) -> PathBuf {
        self.dir.join(format!("{}.ckpt", spec.id()))
    }
}

/// Runs `spec` under checkpointing: commitment interval armed at
/// `ckpt.every`, a snapshot written at every boundary, and (with
/// `ckpt.resume`) a restart from the last surviving snapshot. Returns
/// the final statistics plus the commitment chain.
///
/// # Errors
///
/// Same failure modes as plain execution (unknown workload, simulation
/// timeout/deadlock/watchdog stall, invariant violation), with partial
/// statistics preserved. A failed job's last checkpoint is deliberately
/// *kept* so the job can be resumed.
pub fn execute_checkpointed(
    spec: &JobSpec,
    ckpt: &CheckpointConfig,
) -> Result<(RunStats, CommitMeta), RunFailure> {
    let PreparedRun {
        mut machine,
        checker,
    } = spec.prepare()?;
    machine.set_commit_interval(ckpt.every);

    let path = ckpt.path_for(spec);
    let mut resumed_from = None;
    if ckpt.resume {
        match try_restore(&mut machine, &path) {
            Ok(Some(boundary)) => resumed_from = Some(boundary),
            Ok(None) => {}
            Err(why) => {
                eprintln!(
                    "chats-runner: warning: discarding unusable checkpoint {} ({why}); restarting {}",
                    path.display(),
                    spec.label()
                );
                let _ = fs::remove_file(&path);
                // The failed restore may have torn machine state; rebuild.
                machine = spec.prepare()?.machine;
                machine.set_commit_interval(ckpt.every);
            }
        }
    }

    let mut next_pause = resumed_from.unwrap_or(0) + ckpt.every;
    let outcome = loop {
        match machine.run_to(next_pause, spec.config.max_cycles) {
            Ok(RunProgress::Done(stats)) => break Ok(stats),
            Ok(RunProgress::Paused { at }) => {
                if let Err(e) = write_checkpoint(&machine.checkpoint(), &path) {
                    eprintln!(
                        "chats-runner: warning: could not write checkpoint {} ({e})",
                        path.display()
                    );
                }
                next_pause = at + ckpt.every;
            }
            Err(e) => break Err(e),
        }
    };
    let stats = finish_run(
        &spec.workload,
        spec.policy.system,
        &machine,
        &checker,
        outcome,
    )?;
    // The job is complete: the result cache takes over from here, so the
    // in-flight sidecar is no longer progress worth keeping.
    let _ = fs::remove_file(&path);
    let meta = CommitMeta {
        interval: ckpt.every,
        resumed_from,
        chain: machine.commitment_chain().to_vec(),
    };
    Ok((stats, meta))
}

/// Restores `machine` from the sidecar at `path`, if one exists, and
/// verifies the restored state hash against the commitment chain entry
/// at the pause boundary. `Ok(None)` means no sidecar (fresh start);
/// `Err` means the sidecar exists but cannot be trusted.
fn try_restore(machine: &mut chats_machine::Machine, path: &Path) -> Result<Option<u64>, String> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("unreadable: {e}")),
    };
    machine.restore(&bytes).map_err(|e| e.to_string())?;
    let last = machine
        .commitment_chain()
        .last()
        .copied()
        .ok_or("restored checkpoint has an empty commitment chain")?;
    let state = machine.state_commitment();
    if state.full != last.full {
        return Err(format!(
            "restored state hash {:016x} does not match the chain entry {:016x} at boundary {}",
            state.full, last.full, last.boundary
        ));
    }
    Ok(Some(last.boundary))
}

/// Atomic sidecar write (temp file + rename), mirroring the result
/// cache: a concurrent or interrupted writer can never leave a torn
/// checkpoint.
fn write_checkpoint(bytes: &[u8], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chats_core::{HtmSystem, PolicyConfig};
    use chats_workloads::RunConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("chats-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn spec() -> JobSpec {
        JobSpec::new(
            "cadd",
            PolicyConfig::for_system(HtmSystem::Chats),
            RunConfig::quick_test(),
        )
    }

    #[test]
    fn checkpointed_run_matches_plain_execution() {
        let spec = spec();
        let plain = spec.execute().unwrap();
        let ckpt = CheckpointConfig {
            every: 512,
            resume: false,
            dir: tmp_dir("match"),
        };
        let (stats, meta) = execute_checkpointed(&spec, &ckpt).unwrap();
        assert_eq!(stats, plain, "checkpoint pauses must not perturb the run");
        assert_eq!(meta.interval, 512);
        assert!(meta.resumed_from.is_none());
        assert!(!meta.chain.is_empty());
        assert_eq!(
            meta.chain[0].boundary, 0,
            "chain starts at the initial state"
        );
        assert!(
            !ckpt.path_for(&spec).exists(),
            "a finished job cleans up its sidecar"
        );
        let _ = fs::remove_dir_all(&ckpt.dir);
    }

    #[test]
    fn resume_continues_an_interrupted_job_bit_identically() {
        let spec = spec();
        let dir = tmp_dir("resume");
        let ckpt = CheckpointConfig {
            every: 256,
            resume: false,
            dir: dir.clone(),
        };
        // Golden: uninterrupted checkpointed run.
        let (golden_stats, golden_meta) = execute_checkpointed(&spec, &ckpt).unwrap();

        // Interrupt: run the first stride by hand and leave the sidecar
        // behind, exactly as a killed process would.
        let mut prep = spec.prepare().unwrap();
        prep.machine.set_commit_interval(ckpt.every);
        match prep
            .machine
            .run_to(ckpt.every, spec.config.max_cycles)
            .unwrap()
        {
            RunProgress::Paused { at } => assert_eq!(at, ckpt.every),
            RunProgress::Done(_) => panic!("workload finished inside one stride"),
        }
        write_checkpoint(&prep.machine.checkpoint(), &ckpt.path_for(&spec)).unwrap();

        let resumed = CheckpointConfig {
            resume: true,
            ..ckpt.clone()
        };
        let (stats, meta) = execute_checkpointed(&spec, &resumed).unwrap();
        assert_eq!(meta.resumed_from, Some(256));
        assert_eq!(stats, golden_stats, "resume must be bit-identical");
        assert_eq!(
            meta.chain, golden_meta.chain,
            "the commitment chain must not notice the interruption"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_timeout_reads_the_same_on_both_paths() {
        let mut spec = spec();
        spec.config.max_cycles = 1_000;
        let plain = spec.execute().unwrap_err();
        let dir = tmp_dir("timeout");
        let ckpt = CheckpointConfig {
            every: 256,
            resume: false,
            dir: dir.clone(),
        };
        let checkpointed = execute_checkpointed(&spec, &ckpt).unwrap_err();
        assert!(plain.timed_out && checkpointed.timed_out);
        assert!(
            plain
                .message
                .starts_with("cadd under chats: timed out at cycle "),
            "{}",
            plain.message
        );
        assert_eq!(checkpointed.message, plain.message);
        let cycles = |f: &RunFailure| f.partial.as_ref().map(|s| s.cycles);
        assert!(cycles(&plain).is_some_and(|c| c >= 1_000));
        assert_eq!(cycles(&checkpointed), cycles(&plain));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_a_fresh_run() {
        let spec = spec();
        let dir = tmp_dir("corrupt");
        let ckpt = CheckpointConfig {
            every: 256,
            resume: true,
            dir: dir.clone(),
        };
        write_checkpoint(b"not a checkpoint", &ckpt.path_for(&spec)).unwrap();
        let (stats, meta) = execute_checkpointed(&spec, &ckpt).unwrap();
        assert!(meta.resumed_from.is_none(), "corruption restarts from 0");
        assert_eq!(stats, spec.execute().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }
}
