//! Replayable failure reproducers.
//!
//! A reproducer is a self-contained JSON file — scenario, shrunk decision
//! prefix, expected failure kind — written to `target/chats-failures/`
//! when exploration finds a failure. `chats-check replay <file>` rebuilds
//! the machine and re-executes the schedule bit-exactly; the replay
//! *reproduces* iff it fails with the recorded kind.

use crate::run::{trace_scenario, FailureKind, RunResult};
use crate::scenario::Scenario;
use crate::schedule::Schedule;
use chats_runner::hash::fnv1a_64;
use chats_runner::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Format marker so future layout changes can be detected on load.
pub const REPRO_VERSION: u64 = 1;

/// Where reproducers go unless overridden (`target/chats-failures`,
/// honouring `CARGO_TARGET_DIR`).
#[must_use]
pub fn default_failures_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("chats-failures")
}

/// A saved, replayable failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reproducer {
    /// The scenario the failure was found in.
    pub scenario: Scenario,
    /// Shrunk decision prefix (tail is all-default).
    pub prefix: Vec<u32>,
    /// The failure kind the schedule triggers.
    pub kind: FailureKind,
    /// Human-readable context: how the schedule was found, diagnostics.
    pub note: String,
    /// Hash of the scenario's canonical form at save time. A replay
    /// whose scenario canonicalizes differently (the generator changed
    /// underneath the file) is refused unless forced — it would rebuild
    /// a different machine and silently chase a different bug. `None`
    /// on reproducers from before commitments existed.
    pub spec_commitment: Option<u64>,
    /// [`chats_machine::build_fingerprint`] of the simulator build that
    /// found the failure: the final state commitment of a fixed probe
    /// workload, so any behavioural change to the machine moves it.
    /// `None` on reproducers from before commitments existed.
    pub build_commitment: Option<u64>,
}

impl Reproducer {
    /// A reproducer for `scenario`, stamped with the scenario's spec
    /// commitment and the current build's fingerprint.
    #[must_use]
    pub fn new(
        scenario: Scenario,
        prefix: Vec<u32>,
        kind: FailureKind,
        note: String,
    ) -> Reproducer {
        let spec_commitment = Some(fnv1a_64(scenario.canonical().as_bytes()));
        Reproducer {
            scenario,
            prefix,
            kind,
            note,
            spec_commitment,
            build_commitment: Some(chats_machine::build_fingerprint()),
        }
    }

    /// Checks the saved commitments against the current scenario
    /// encoding and simulator build. Unstamped fields (older files) pass.
    ///
    /// # Errors
    ///
    /// Names the stale commitment and both values; replaying anyway
    /// (`--force`) is the caller's decision.
    pub fn verify_commitments(&self) -> Result<(), String> {
        if let Some(saved) = self.spec_commitment {
            let now = fnv1a_64(self.scenario.canonical().as_bytes());
            if saved != now {
                return Err(format!(
                    "scenario spec commitment mismatch: saved {saved:016x}, \
                     current encoding yields {now:016x} — the scenario format \
                     changed since this reproducer was written"
                ));
            }
        }
        if let Some(saved) = self.build_commitment {
            let now = chats_machine::build_fingerprint();
            if saved != now {
                return Err(format!(
                    "build commitment mismatch: saved {saved:016x}, this \
                     simulator build fingerprints as {now:016x} — machine \
                     behaviour changed since the failure was recorded, so the \
                     schedule may no longer reproduce it"
                ));
            }
        }
        Ok(())
    }
    /// JSON document (the on-disk format).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("version".to_string(), Json::U64(REPRO_VERSION));
        m.insert("scenario".to_string(), self.scenario.to_json());
        m.insert(
            "prefix".to_string(),
            Json::Arr(
                self.prefix
                    .iter()
                    .map(|&c| Json::U64(u64::from(c)))
                    .collect(),
            ),
        );
        m.insert(
            "failure".to_string(),
            Json::Str(self.kind.as_str().to_string()),
        );
        m.insert("note".to_string(), Json::Str(self.note.clone()));
        if let Some(c) = self.spec_commitment {
            m.insert(
                "spec_commitment".to_string(),
                Json::Str(format!("{c:016x}")),
            );
        }
        if let Some(c) = self.build_commitment {
            m.insert(
                "build_commitment".to_string(),
                Json::Str(format!("{c:016x}")),
            );
        }
        Json::Obj(m)
    }

    /// Inverse of [`Reproducer::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Reproducer, String> {
        let version = v
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("reproducer: missing 'version'")?;
        if version != REPRO_VERSION {
            return Err(format!("reproducer: unsupported version {version}"));
        }
        let scenario =
            Scenario::from_json(v.get("scenario").ok_or("reproducer: missing 'scenario'")?)?;
        let prefix = v
            .get("prefix")
            .and_then(Json::as_arr)
            .ok_or("reproducer: missing 'prefix'")?
            .iter()
            .map(|c| {
                c.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| "reproducer: non-u32 prefix entry".to_string())
            })
            .collect::<Result<Vec<u32>, String>>()?;
        let kind = v
            .get("failure")
            .and_then(Json::as_str)
            .and_then(FailureKind::parse)
            .ok_or("reproducer: missing or unknown 'failure'")?;
        let note = v
            .get("note")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let hex_field = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(j) => j
                    .as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .map(Some)
                    .ok_or_else(|| format!("reproducer: '{key}' is not a 16-hex-digit hash")),
            }
        };
        Ok(Reproducer {
            scenario,
            prefix,
            kind,
            note,
            spec_commitment: hex_field("spec_commitment")?,
            build_commitment: hex_field("build_commitment")?,
        })
    }

    /// Deterministic filename: scenario name plus a content hash of the
    /// scenario and prefix (so distinct failures never collide and
    /// identical ones overwrite instead of piling up).
    #[must_use]
    pub fn file_name(&self) -> String {
        let mut key = self.scenario.canonical();
        for c in &self.prefix {
            key.push_str(&format!(",{c}"));
        }
        format!(
            "{}-{:016x}.json",
            self.scenario.name,
            fnv1a_64(key.as_bytes())
        )
    }

    /// Writes the reproducer under `dir` (created if needed); returns the
    /// full path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }

    /// Loads a reproducer from disk.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O, JSON or schema problems.
    pub fn load(path: &Path) -> Result<Reproducer, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Reproducer::from_json(&json)
    }

    /// Re-executes the recorded schedule. Returns the run and whether the
    /// recorded failure kind was reproduced. The run is traced, so an
    /// inconclusive replay's watchdog report carries its recent protocol
    /// history.
    #[must_use]
    pub fn replay(&self) -> (RunResult, bool) {
        let (result, _) = trace_scenario(&self.scenario, &Schedule::replay(self.prefix.clone()));
        let reproduced = result.failed_with(self.kind);
        (result, reproduced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_scenario, Outcome};
    use crate::scenario::smoke_scenarios;
    use crate::schedule::{choices, Attack};

    fn sample() -> Reproducer {
        Reproducer::new(
            smoke_scenarios().remove(0),
            vec![0, 3, 0, 1],
            FailureKind::SumMismatch,
            "found by attack(defer-commits)".to_string(),
        )
    }

    /// Exploration counts an inconclusive run without its history, but a
    /// replay of the same schedule prints the events that led to the stall.
    #[test]
    fn an_inconclusive_replay_shows_its_recent_events() {
        let sc = smoke_scenarios()
            .into_iter()
            .find(|s| s.name == "smoke-torture-chats")
            .expect("the smoke suite has smoke-torture-chats");
        let starve = Schedule::attack(Attack::StarveForwards);
        let (explored, trace) = trace_scenario(&sc, &starve);
        let Outcome::Inconclusive(why) = &explored.outcome else {
            panic!("starve-forwards judged {:?}", explored.outcome);
        };
        assert!(why.contains("trace event(s):"), "{why}");
        let Outcome::Inconclusive(counted) = run_scenario(&sc, &starve).outcome else {
            panic!("an untraced run judged differently");
        };
        assert!(counted.starts_with("no progress within"), "{counted}");
        assert!(!counted.contains("trace event(s)"), "{counted}");

        let repro = Reproducer::new(sc, choices(&trace), FailureKind::Deadlock, String::new());
        let (replayed, reproduced) = repro.replay();
        assert!(!reproduced);
        assert_eq!(replayed.outcome, explored.outcome);
        let Outcome::Inconclusive(why) = &replayed.outcome else {
            unreachable!()
        };
        assert!(why.contains("last 32 trace event(s):"), "{why}");
    }

    #[test]
    fn json_round_trip() {
        let r = sample();
        let back = Reproducer::from_json(&Json::parse(&r.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut j = sample().to_json();
        if let Json::Obj(m) = &mut j {
            m.insert("version".to_string(), Json::U64(999));
        }
        assert!(Reproducer::from_json(&j).unwrap_err().contains("version"));
    }

    #[test]
    fn file_name_tracks_content() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.file_name(), b.file_name());
        b.prefix.push(2);
        assert_ne!(a.file_name(), b.file_name());
        assert!(a.file_name().starts_with(&a.scenario.name));
    }

    #[test]
    fn fresh_commitments_verify_and_stale_ones_are_named() {
        let r = sample();
        assert!(r.spec_commitment.is_some() && r.build_commitment.is_some());
        r.verify_commitments().unwrap();

        let mut stale_spec = r.clone();
        stale_spec.scenario.seed ^= 1; // scenario drifted under the file
        let err = stale_spec.verify_commitments().unwrap_err();
        assert!(err.contains("spec commitment"), "{err}");

        let mut stale_build = r.clone();
        stale_build.build_commitment = Some(0xDEAD_BEEF);
        let err = stale_build.verify_commitments().unwrap_err();
        assert!(err.contains("build commitment"), "{err}");

        // Pre-commitment reproducers (both fields absent) still verify.
        let mut old = r;
        old.spec_commitment = None;
        old.build_commitment = None;
        old.verify_commitments().unwrap();
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("chats-repro-test-{}", std::process::id()));
        let r = sample();
        let path = r.save(&dir).unwrap();
        let back = Reproducer::load(&path).unwrap();
        assert_eq!(back, r);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
