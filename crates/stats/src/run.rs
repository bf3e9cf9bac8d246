//! Per-run counters.

use chats_core::AbortCause;
use std::collections::BTreeMap;

/// Commit/abort split for a class of transactions (Figure 6 bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxOutcomeCounts {
    /// Transactions in this class that eventually committed.
    pub committed: u64,
    /// Transactions in this class whose attempt aborted.
    pub aborted: u64,
}

impl TxOutcomeCounts {
    /// Total transactions in the class.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.committed + self.aborted
    }
}

/// All counters produced by one simulation run.
///
/// # Example
///
/// ```
/// use chats_stats::RunStats;
/// use chats_core::AbortCause;
///
/// let mut s = RunStats::default();
/// s.record_abort(AbortCause::Conflict);
/// s.record_abort(AbortCause::Capacity);
/// assert_eq!(s.total_aborts(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total simulated cycles until every thread halted.
    pub cycles: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Transaction attempts started (commits + aborts).
    pub tx_attempts: u64,
    /// Aborts split by cause.
    pub aborts: BTreeMap<String, u64>,
    /// Conflicts detected at owners (each conflicting probe counts once).
    pub conflicts: u64,
    /// `SpecResp` messages sent (speculative forwardings).
    pub forwardings: u64,
    /// Outcome split of transaction attempts that *forwarded* data.
    pub forwarder_outcomes: TxOutcomeCounts,
    /// Outcome split of transaction attempts that *conflicted* (either side).
    pub conflicted_outcomes: TxOutcomeCounts,
    /// Validation probes issued.
    pub validation_attempts: u64,
    /// Validations that completed successfully (line left the VSB).
    pub validations_ok: u64,
    /// Total flits injected into the interconnect.
    pub flits: u64,
    /// Control messages injected.
    pub control_messages: u64,
    /// Data messages injected.
    pub data_messages: u64,
    /// Fallback-lock (or, in power systems, forced-token) acquisitions.
    pub fallback_acquisitions: u64,
    /// Power-token grants.
    pub power_grants: u64,
    /// Nack/stall responses observed by requesters.
    pub nacks: u64,
    /// Instructions retired across all threads.
    pub instructions: u64,
    /// Discrete events dispatched by the simulator's event loop. A
    /// simulator-engineering metric (events and wall time give the
    /// events/sec throughput the perf baseline tracks), but deterministic
    /// like every other counter: two runs of the same seed dispatch the
    /// same events.
    pub events: u64,
    /// Deepest chain position observed, as the distance of any PiC from
    /// its initial (middle-of-range) value. Evidence for the paper's
    /// claim that a 5-bit PiC register suffices in practice.
    pub max_chain_depth: u32,
    /// Forwardings per chain depth at the moment the edge was created
    /// (depth 0 = chain of two freshly linked transactions).
    pub chain_depth_hist: BTreeMap<u32, u64>,
}

impl chats_snap::Snap for TxOutcomeCounts {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.committed);
        w.u64(self.aborted);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(TxOutcomeCounts {
            committed: r.u64()?,
            aborted: r.u64()?,
        })
    }
}

impl chats_snap::Snap for RunStats {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        w.u64(self.cycles);
        w.u64(self.commits);
        w.u64(self.tx_attempts);
        self.aborts.save(w);
        w.u64(self.conflicts);
        w.u64(self.forwardings);
        self.forwarder_outcomes.save(w);
        self.conflicted_outcomes.save(w);
        w.u64(self.validation_attempts);
        w.u64(self.validations_ok);
        w.u64(self.flits);
        w.u64(self.control_messages);
        w.u64(self.data_messages);
        w.u64(self.fallback_acquisitions);
        w.u64(self.power_grants);
        w.u64(self.nacks);
        w.u64(self.instructions);
        w.u64(self.events);
        self.max_chain_depth.save(w);
        self.chain_depth_hist.save(w);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(RunStats {
            cycles: r.u64()?,
            commits: r.u64()?,
            tx_attempts: r.u64()?,
            aborts: chats_snap::Snap::load(r)?,
            conflicts: r.u64()?,
            forwardings: r.u64()?,
            forwarder_outcomes: chats_snap::Snap::load(r)?,
            conflicted_outcomes: chats_snap::Snap::load(r)?,
            validation_attempts: r.u64()?,
            validations_ok: r.u64()?,
            flits: r.u64()?,
            control_messages: r.u64()?,
            data_messages: r.u64()?,
            fallback_acquisitions: r.u64()?,
            power_grants: r.u64()?,
            nacks: r.u64()?,
            instructions: r.u64()?,
            events: r.u64()?,
            max_chain_depth: chats_snap::Snap::load(r)?,
            chain_depth_hist: chats_snap::Snap::load(r)?,
        })
    }
}

impl RunStats {
    /// Adds one abort with its cause.
    pub fn record_abort(&mut self, cause: AbortCause) {
        *self.aborts.entry(cause.label().to_string()).or_insert(0) += 1;
    }

    /// Records a forwarding whose consumer ended `depth` positions away
    /// from the initial PiC value.
    pub fn record_chain_depth(&mut self, depth: u32) {
        self.max_chain_depth = self.max_chain_depth.max(depth);
        *self.chain_depth_hist.entry(depth).or_insert(0) += 1;
    }

    /// Aborts attributed to `cause` so far.
    #[must_use]
    pub fn aborts_by(&self, cause: AbortCause) -> u64 {
        self.aborts.get(cause.label()).copied().unwrap_or(0)
    }

    /// Total aborts across causes.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.aborts.values().sum()
    }

    /// Commit ratio over all attempts, in `[0, 1]`; `1.0` when no attempts
    /// were made.
    #[must_use]
    pub fn commit_ratio(&self) -> f64 {
        if self.tx_attempts == 0 {
            1.0
        } else {
            self.commits as f64 / self.tx_attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_recording() {
        let mut s = RunStats::default();
        s.record_abort(AbortCause::Conflict);
        s.record_abort(AbortCause::Conflict);
        s.record_abort(AbortCause::ValidationMismatch);
        assert_eq!(s.aborts_by(AbortCause::Conflict), 2);
        assert_eq!(s.aborts_by(AbortCause::ValidationMismatch), 1);
        assert_eq!(s.aborts_by(AbortCause::Capacity), 0);
        assert_eq!(s.total_aborts(), 3);
    }

    #[test]
    fn commit_ratio_bounds() {
        let mut s = RunStats::default();
        assert_eq!(s.commit_ratio(), 1.0);
        s.tx_attempts = 4;
        s.commits = 3;
        assert!((s.commit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn outcome_counts_total() {
        let t = TxOutcomeCounts {
            committed: 3,
            aborted: 2,
        };
        assert_eq!(t.total(), 5);
    }

    #[test]
    fn chain_depth_tracks_max_and_histogram() {
        let mut s = RunStats::default();
        s.record_chain_depth(1);
        s.record_chain_depth(3);
        s.record_chain_depth(1);
        assert_eq!(s.max_chain_depth, 3);
        assert_eq!(s.chain_depth_hist.get(&1), Some(&2));
        assert_eq!(s.chain_depth_hist.get(&3), Some(&1));
        assert_eq!(s.chain_depth_hist.get(&2), None);
    }
}
