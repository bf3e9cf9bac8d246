//! What epoch state commitments cost the simulator.
//!
//! The commitment layer hashes the *complete* machine state at every
//! epoch boundary (see `chats_machine::commit`), so arming it puts a
//! periodic full-state walk on the hot path. This module measures that
//! cost directly: the same workload cell is run with commitments off and
//! with commitments armed at an interval, interleaved rep-for-rep on one
//! host, and the throughput loss is reported as a fraction.
//!
//! The contract the gate enforces: **at the default interval
//! ([`chats_machine::DEFAULT_COMMIT_INTERVAL`]) the overhead stays under
//! 5%** — cheap enough that long-running campaigns can leave commitments
//! armed permanently, which is what makes checkpoint verification and
//! divergence dissection free to deploy.

use crate::baseline::{measure_case_armed, workload_mix, Case, CaseKind, Measurement};
use chats_machine::DEFAULT_COMMIT_INTERVAL;
use chats_runner::Json;
use std::collections::BTreeMap;

/// One cell measured both ways: commitments off vs armed at `interval`.
#[derive(Debug, Clone)]
pub struct OverheadMeasurement {
    /// `workload/system`, matching the baseline mix labels.
    pub name: String,
    /// The armed epoch interval in cycles.
    pub interval: u64,
    /// Epoch commitments recorded by one armed run (sanity: > 0, or the
    /// armed arm never hashed anything and the measurement is vacuous).
    pub epochs: u64,
    /// Throughput with commitments off.
    pub off: Measurement,
    /// Throughput with commitments armed.
    pub on: Measurement,
}

impl OverheadMeasurement {
    /// Fractional throughput loss from arming commitments:
    /// `1 - on.events_per_sec / off.events_per_sec`. Negative values
    /// (armed arm measured faster) are host noise; the gate only bounds
    /// the positive direction.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        1.0 - self.on.events_per_sec() / self.off.events_per_sec().max(1e-9)
    }
}

/// Measures commitment overhead on the contended kernel — the cell with
/// the highest events/sec of the mix, i.e. the *least* simulation work
/// per cycle to amortize the hash against, which makes it the worst case
/// for relative overhead.
///
/// Arms are interleaved (off, on, off, on, ...) over `reps` rounds and
/// each arm keeps its best wall time, so slow-host drift hits both arms
/// alike. Both arms run the same timed loop (`baseline::execute_once`),
/// differing only in the commit interval it arms.
#[must_use]
pub fn measure_overhead(interval: u64, quick: bool) -> OverheadMeasurement {
    // Arms are tens of milliseconds, so host noise is the same order as
    // the effect being measured; more interleaved rounds (best-of each)
    // cost little and tighten both arms.
    let reps = if quick { 3 } else { 5 };
    let case = contended_case(quick);
    let mut off: Option<Measurement> = None;
    let mut on: Option<Measurement> = None;
    let mut epochs = 0u64;
    for _ in 0..reps {
        let (a, _) = measure_case_armed(&case, 1, None);
        let (b, chain_len) = measure_case_armed(&case, 1, Some(interval));
        epochs = chain_len;
        keep_best(&mut off, a);
        keep_best(&mut on, b);
    }
    let off = off.expect("at least one rep");
    let on = on.expect("at least one rep");
    assert_eq!(
        off.events, on.events,
        "arming commitments must not change the simulation"
    );
    OverheadMeasurement {
        name: case.name(),
        interval,
        epochs,
        off,
        on,
    }
}

fn keep_best(slot: &mut Option<Measurement>, candidate: Measurement) {
    match slot {
        Some(best) if best.wall <= candidate.wall => {}
        _ => *slot = Some(candidate),
    }
}

/// The contended cell of the baseline mix, reps matched to `--quick`.
fn contended_case(quick: bool) -> Case {
    workload_mix(quick)
        .into_iter()
        .find(|c| matches!(c.kind, CaseKind::Contended))
        .expect("baseline mix always has the contended cell")
}

/// Serializes the measurement (and the gate it was held to) as the
/// `commit_overhead` section of `BENCH_simcore.json`.
#[must_use]
pub fn overhead_json(m: &OverheadMeasurement, max_overhead: f64) -> Json {
    let mut root = BTreeMap::new();
    root.insert("name".to_string(), Json::Str(m.name.clone()));
    root.insert("interval".to_string(), Json::U64(m.interval));
    root.insert("epochs".to_string(), Json::U64(m.epochs));
    root.insert(
        "events_per_sec_off".to_string(),
        Json::F64(m.off.events_per_sec()),
    );
    root.insert(
        "events_per_sec_on".to_string(),
        Json::F64(m.on.events_per_sec()),
    );
    root.insert("overhead".to_string(), Json::F64(m.overhead()));
    root.insert("max_overhead".to_string(), Json::F64(max_overhead));
    Json::Obj(root)
}

/// Reads the gate ceiling from a committed `BENCH_simcore.json`: the
/// `commit_overhead.max_overhead` field when present, else `fallback`.
#[must_use]
pub fn gate_ceiling(doc: &Json, fallback: f64) -> f64 {
    doc.get("commit_overhead")
        .and_then(|s| s.get("max_overhead"))
        .and_then(Json::as_f64)
        .unwrap_or(fallback)
}

/// Gates a measurement: overhead must stay under `max_overhead`, and the
/// armed arm must actually have hashed at least one epoch. Returns a
/// human-readable report; `Err` with the same report when the gate trips.
///
/// # Errors
///
/// Returns the report when the measured overhead exceeds the ceiling or
/// the armed run recorded no epochs.
pub fn check_overhead(m: &OverheadMeasurement, max_overhead: f64) -> Result<String, String> {
    let report = format!(
        "{}: {:.0} ev/s off vs {:.0} ev/s armed @ interval {} ({} epochs) \
         -> overhead {:+.2}% (ceiling {:.2}%)",
        m.name,
        m.off.events_per_sec(),
        m.on.events_per_sec(),
        m.interval,
        m.epochs,
        m.overhead() * 100.0,
        max_overhead * 100.0
    );
    if m.epochs == 0 {
        return Err(format!(
            "{report}\narmed run recorded no epoch commitments; the measurement is vacuous"
        ));
    }
    if m.overhead() > max_overhead {
        return Err(format!(
            "{report}\ncommitment hashing regressed past the ceiling"
        ));
    }
    Ok(report)
}

/// The default overhead ceiling: 5% at [`DEFAULT_COMMIT_INTERVAL`].
pub const DEFAULT_MAX_OVERHEAD: f64 = 0.05;

/// Re-exported so callers gate at the canonical interval without
/// depending on `chats-machine` directly.
pub const DEFAULT_INTERVAL: u64 = DEFAULT_COMMIT_INTERVAL;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fake(eps: f64) -> Measurement {
        Measurement {
            name: "contended/chats".to_string(),
            cores: 16,
            events: (eps * 0.1) as u64,
            cycles: 0,
            instructions: 0,
            commits: 0,
            wall: Duration::from_millis(100),
            peak_rss_kb: 1,
        }
    }

    fn fake_overhead(off_eps: f64, on_eps: f64, epochs: u64) -> OverheadMeasurement {
        OverheadMeasurement {
            name: "contended/chats".to_string(),
            interval: DEFAULT_INTERVAL,
            epochs,
            off: fake(off_eps),
            on: fake(on_eps),
        }
    }

    #[test]
    fn gate_accepts_small_overhead_and_rejects_large() {
        // 2% loss: under the 5% ceiling.
        let ok = check_overhead(&fake_overhead(1_000_000.0, 980_000.0, 10), 0.05);
        assert!(ok.is_ok(), "{ok:?}");
        // 12% loss: over.
        let bad = check_overhead(&fake_overhead(1_000_000.0, 880_000.0, 10), 0.05);
        assert!(bad.unwrap_err().contains("regressed"));
        // Armed-faster (noise) passes.
        let noise = check_overhead(&fake_overhead(1_000_000.0, 1_010_000.0, 10), 0.05);
        assert!(noise.is_ok(), "{noise:?}");
    }

    #[test]
    fn zero_epochs_is_a_vacuous_measurement() {
        let bad = check_overhead(&fake_overhead(1_000_000.0, 1_000_000.0, 0), 0.05);
        assert!(bad.unwrap_err().contains("vacuous"));
    }

    #[test]
    fn ceiling_comes_from_the_committed_document() {
        let doc = Json::parse(r#"{"commit_overhead": {"max_overhead": 0.07}}"#).unwrap();
        assert!((gate_ceiling(&doc, 0.05) - 0.07).abs() < 1e-12);
        let empty = Json::parse("{}").unwrap();
        assert!((gate_ceiling(&empty, 0.05) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn overhead_json_round_trips() {
        let doc = overhead_json(&fake_overhead(1_000_000.0, 980_000.0, 10), 0.05);
        let back = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("epochs").and_then(Json::as_u64), Some(10));
    }
}
