//! Divergence dissection: bracket, then pin.
//!
//! Two runs that should agree — the same job on two builds, clean vs
//! fault-injected, before vs after a knob change — disagree
//! *somewhere*, and a full-trace diff over millions of events is the
//! wrong instrument for finding out where. Dissection uses the epoch
//! commitment chain (see `chats_machine::commit`) as a pre-computed
//! binary search: chains agree up to some boundary and differ at the
//! next, so the first divergent event lives inside exactly one epoch.
//! Both runs are then re-executed *to the last agreeing boundary only*
//! and single-stepped from there in lockstep, hashing architectural
//! state after every event, until the hashes split — pinning "event N at
//! cycle T on core C: expected X, got Y" with one epoch of re-execution
//! instead of a full trace.
//!
//! Comparisons use the **architectural** hash, which excludes
//! environment state (fault-injection bookkeeping, watchdog), so a clean
//! run and a faulted run of the same workload are comparable: the first
//! divergence is the first *effect* of a fault on the machine, not the
//! fault plan's mere presence.

use chats_machine::Machine;
use chats_runner::{JobSpec, Json};
use std::collections::BTreeMap;

/// What to dissect: two jobs, each run as its own spec says. The sides
/// may differ in any knob — workload, policy, seed, fault plan.
#[derive(Debug, Clone)]
pub struct DissectRequest {
    /// Epoch-commitment interval in cycles (bracketing resolution).
    pub interval: u64,
    /// Side A ("expected").
    pub a: JobSpec,
    /// Side B ("got").
    pub b: JobSpec,
}

/// The exact first divergent event, pinned by lockstep replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergentEvent {
    /// Event ordinal within the replayed epoch (0 = first event after
    /// the last agreeing boundary).
    pub index: u64,
    /// The cycle the event dispatched at on side A.
    pub time: u64,
    /// The core the event addressed, when it names one.
    pub core: Option<usize>,
    /// Side A's rendering of the dispatched event.
    pub desc_a: String,
    /// Side B's rendering of the dispatched event.
    pub desc_b: String,
    /// Side A's architectural state hash after the event ("expected").
    pub hash_a: u64,
    /// Side B's architectural state hash after the event ("got").
    pub hash_b: u64,
    /// Side B's fault-injection counter crossed zero on exactly this
    /// step: the pinned event IS the first injected perturbation.
    pub fault_injected_here: bool,
}

impl std::fmt::Display for DivergentEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {} (cycle {})", self.index, self.time)?;
        if let Some(core) = self.core {
            write!(f, " on core {core}")?;
        }
        write!(
            f,
            ": expected {:016x}, got {:016x} [{}]",
            self.hash_a, self.hash_b, self.desc_a
        )?;
        if self.desc_b != self.desc_a {
            write!(f, " (b dispatched {})", self.desc_b)?;
        }
        Ok(())
    }
}

/// Where two runs first disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Last boundary at which both chains carry the same arch hash.
    pub epoch_start: u64,
    /// First boundary at which they differ (the divergent event is in
    /// `epoch_start..epoch_end`).
    pub epoch_end: u64,
    /// Chain entries that agreed before the split.
    pub agreeing_epochs: u64,
    /// The pinned event; `None` when lockstep replay could not pin one
    /// (the sides disagree only in how far they ran).
    pub event: Option<DivergentEvent>,
    /// Events single-stepped during pinning — the measure of how much
    /// re-execution bracketing saved over a full-trace diff.
    pub events_replayed: u64,
}

/// Outcome of a dissection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DissectOutcome {
    /// Every compared boundary carries the same architectural hash and
    /// both runs covered the same number of epochs.
    Identical {
        /// Boundaries compared.
        epochs: u64,
    },
    /// The runs disagree; here is where.
    Diverged(Divergence),
}

/// A finished dissection: the outcome plus per-side run summaries.
#[derive(Debug, Clone)]
pub struct DissectReport {
    /// The request this report answers.
    pub request: DissectRequest,
    /// How each side's full run ended (`"ok"` or the error message).
    pub status_a: String,
    /// Side B's run status.
    pub status_b: String,
    /// Chain length of side A.
    pub epochs_a: u64,
    /// Chain length of side B.
    pub epochs_b: u64,
    /// The verdict.
    pub outcome: DissectOutcome,
}

/// Runs both sides with the commitment interval armed, compares their
/// chains, and — on divergence — replays the divergent epoch in lockstep
/// to pin the first divergent event.
///
/// # Errors
///
/// Returns a message for an unknown workload on either side or a zero
/// interval. A side's simulation *failing* (timeout, deadlock) is not
/// an error: the chain up to the failure still brackets, and the
/// failure is recorded in the side's status.
pub fn dissect(req: &DissectRequest) -> Result<DissectReport, String> {
    if req.interval == 0 {
        return Err("dissect: interval must be positive".to_string());
    }
    // Phase 1: full runs, chains recorded.
    let chain_of = |spec: &JobSpec| -> Result<_, String> {
        let mut machine = spec.prepare()?.machine;
        machine.set_commit_interval(req.interval);
        let status = match machine.run(spec.config.max_cycles) {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string(),
        };
        Ok((machine.commitment_chain().to_vec(), status))
    };
    let (chain_a, status_a) = chain_of(&req.a)?;
    let (chain_b, status_b) = chain_of(&req.b)?;

    let compared = chain_a.len().min(chain_b.len()) as u64;
    let first_diff = chain_a
        .iter()
        .zip(&chain_b)
        .position(|(a, b)| a.arch != b.arch);
    let outcome = match first_diff {
        None if chain_a.len() == chain_b.len() => DissectOutcome::Identical { epochs: compared },
        // Chains agree as far as they overlap but one side ran further:
        // the shorter side halted (or failed) inside the next epoch.
        None => {
            let epoch_start = chain_a.get(compared as usize - 1).map_or(0, |e| e.boundary);
            let (event, replayed) = pin_event(req, epoch_start)?;
            DissectOutcome::Diverged(Divergence {
                epoch_start,
                epoch_end: epoch_start + req.interval,
                agreeing_epochs: compared,
                event,
                events_replayed: replayed,
            })
        }
        Some(i) => {
            let epoch_start = if i == 0 { 0 } else { chain_a[i - 1].boundary };
            let (event, replayed) = pin_event(req, epoch_start)?;
            DissectOutcome::Diverged(Divergence {
                epoch_start,
                epoch_end: chain_a[i].boundary,
                agreeing_epochs: i as u64,
                event,
                events_replayed: replayed,
            })
        }
    };
    Ok(DissectReport {
        request: req.clone(),
        status_a,
        status_b,
        epochs_a: chain_a.len() as u64,
        epochs_b: chain_b.len() as u64,
        outcome,
    })
}

/// Phase 2: re-runs both sides to `epoch_start` (the last agreeing
/// boundary), then single-steps them in lockstep, hashing architectural
/// state after every event, until the hashes split.
fn pin_event(
    req: &DissectRequest,
    epoch_start: u64,
) -> Result<(Option<DivergentEvent>, u64), String> {
    let rebuild = |spec: &JobSpec| -> Result<Machine, String> {
        let mut machine = spec.prepare()?.machine;
        if epoch_start > 0 {
            if let Err(e) = machine.run_to(epoch_start, spec.config.max_cycles) {
                return Err(format!("replay to boundary {epoch_start}: {e}"));
            }
        }
        Ok(machine)
    };
    let mut ma = rebuild(&req.a)?;
    let mut mb = rebuild(&req.b)?;
    // Both sides are at the same agreed state; step until they split.
    // The divergent boundary guarantees a split within one epoch, but a
    // side may also simply run out of events (it halted mid-epoch) —
    // that too is a pinned divergence. The hard cap is a backstop
    // against a bracketing bug, not a path taken in normal operation.
    let cap = 100_000_000u64;
    for index in 0..cap {
        let injections_before = mb.fault_injections();
        let step_a = ma.step_one().map_err(|e| format!("side a stalled: {e}"))?;
        let step_b = mb.step_one().map_err(|e| format!("side b stalled: {e}"))?;
        let (ha, hb) = (ma.state_commitment().arch, mb.state_commitment().arch);
        match (step_a, step_b) {
            (None, None) => return Ok((None, index)),
            (a, b) => {
                let time = a.as_ref().or(b.as_ref()).map_or(0, |(t, _)| *t);
                let desc_a = a.map_or_else(|| "<run complete>".to_string(), |(_, d)| d);
                let desc_b = b.map_or_else(|| "<run complete>".to_string(), |(_, d)| d);
                if ha != hb || desc_a != desc_b {
                    return Ok((
                        Some(DivergentEvent {
                            index,
                            time,
                            core: parse_core(&desc_a).or_else(|| parse_core(&desc_b)),
                            desc_a,
                            desc_b,
                            hash_a: ha,
                            hash_b: hb,
                            fault_injected_here: injections_before == 0
                                && mb.fault_injections() > 0,
                        }),
                        index + 1,
                    ));
                }
            }
        }
    }
    Ok((None, cap))
}

/// Extracts `core: N` from an event's debug rendering, if present.
fn parse_core(desc: &str) -> Option<usize> {
    let rest = &desc[desc.find("core: ")? + "core: ".len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

impl DissectReport {
    /// The JSON report document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("interval".to_string(), Json::U64(self.request.interval));
        for (key, side, status, epochs) in [
            ("a", &self.request.a, &self.status_a, self.epochs_a),
            ("b", &self.request.b, &self.status_b, self.epochs_b),
        ] {
            let mut s = BTreeMap::new();
            s.insert("label".to_string(), Json::Str(side.label()));
            s.insert("id".to_string(), Json::Str(side.id().to_string()));
            s.insert("status".to_string(), Json::Str(status.clone()));
            s.insert("epochs".to_string(), Json::U64(epochs));
            m.insert(key.to_string(), Json::Obj(s));
        }
        match &self.outcome {
            DissectOutcome::Identical { epochs } => {
                m.insert("verdict".to_string(), Json::Str("identical".to_string()));
                m.insert("epochs_compared".to_string(), Json::U64(*epochs));
            }
            DissectOutcome::Diverged(d) => {
                m.insert("verdict".to_string(), Json::Str("diverged".to_string()));
                m.insert("epoch_start".to_string(), Json::U64(d.epoch_start));
                m.insert("epoch_end".to_string(), Json::U64(d.epoch_end));
                m.insert("agreeing_epochs".to_string(), Json::U64(d.agreeing_epochs));
                m.insert("events_replayed".to_string(), Json::U64(d.events_replayed));
                if let Some(ev) = &d.event {
                    let mut e = BTreeMap::new();
                    e.insert("index".to_string(), Json::U64(ev.index));
                    e.insert("time".to_string(), Json::U64(ev.time));
                    if let Some(core) = ev.core {
                        e.insert("core".to_string(), Json::U64(core as u64));
                    }
                    e.insert("desc_a".to_string(), Json::Str(ev.desc_a.clone()));
                    e.insert("desc_b".to_string(), Json::Str(ev.desc_b.clone()));
                    e.insert(
                        "expected".to_string(),
                        Json::Str(format!("{:016x}", ev.hash_a)),
                    );
                    e.insert("got".to_string(), Json::Str(format!("{:016x}", ev.hash_b)));
                    e.insert(
                        "fault_injected_here".to_string(),
                        Json::Bool(ev.fault_injected_here),
                    );
                    m.insert("first_divergent_event".to_string(), Json::Obj(e));
                }
            }
        }
        Json::Obj(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chats_core::{HtmSystem, PolicyConfig};
    use chats_machine::FaultPlan;
    use chats_workloads::RunConfig;

    fn request(seed_b: u64, faults_b: Option<FaultPlan>) -> DissectRequest {
        let a = JobSpec::new(
            "cadd",
            PolicyConfig::for_system(HtmSystem::Chats),
            RunConfig::quick_test(),
        );
        let mut b = a.clone();
        b.config.seed = seed_b;
        b.config.faults = faults_b;
        DissectRequest {
            interval: 256,
            a,
            b,
        }
    }

    #[test]
    fn identical_sides_are_identical() {
        let seed = RunConfig::quick_test().seed;
        let report = dissect(&request(seed, None)).unwrap();
        assert!(
            matches!(report.outcome, DissectOutcome::Identical { epochs } if epochs > 1),
            "{:?}",
            report.outcome
        );
        assert_eq!(report.status_a, "ok");
        let json = report.to_json();
        assert_eq!(
            json.get("verdict").and_then(Json::as_str),
            Some("identical")
        );
    }

    #[test]
    fn fault_injection_is_pinned_to_the_injecting_event() {
        let seed = RunConfig::quick_test().seed;
        let report = dissect(&request(seed, Some(FaultPlan::lossy_noc()))).unwrap();
        let DissectOutcome::Diverged(d) = &report.outcome else {
            panic!("lossy-noc must diverge from the clean run: {report:?}")
        };
        let ev = d.event.as_ref().expect("event pinned");
        assert!(
            ev.fault_injected_here,
            "the first divergent event must be the first fault injection: {ev}"
        );
        assert!(ev.time >= d.epoch_start, "{ev}");
        assert!(
            d.events_replayed <= d.epoch_end.saturating_sub(d.epoch_start) * 64,
            "pinning must stay within the bracketed epoch's event count"
        );
        // The human rendering carries the expected/got pair.
        let line = ev.to_string();
        assert!(line.contains("expected"), "{line}");
        assert!(line.contains("got"), "{line}");
    }

    #[test]
    fn seed_divergence_brackets_at_the_initial_epoch() {
        let seed = RunConfig::quick_test().seed;
        let report = dissect(&request(seed ^ 1, None)).unwrap();
        let DissectOutcome::Diverged(d) = &report.outcome else {
            panic!("different seeds must diverge: {report:?}")
        };
        assert_eq!(d.epoch_start, 0, "initial states differ");
        assert!(d.event.is_some());
    }
}
