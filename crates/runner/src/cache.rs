//! Disk-backed result cache under `target/chats-cache/`.
//!
//! Entries are keyed by the job's content hash ([`crate::job::JobId`])
//! and guarded by two extra fields: the crate version (a new simulator
//! release invalidates every cached result, since any code change may
//! move the numbers) and the full canonical configuration string (so a
//! hash collision or stale key degrades to a re-execution, never a wrong
//! result). Any unreadable, unparsable or mismatching entry is discarded
//! with a warning and the job simply runs again — corruption is a cache
//! miss, not an error.

use crate::job::JobSpec;
use crate::Json;
use chats_stats::{RunStats, TxOutcomeCounts};
use std::collections::BTreeMap;
use std::env;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The simulator release the cache entries were produced by. Part of
/// every entry; a mismatch invalidates the entry.
pub const CACHE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// `$CHATS_CACHE_DIR`, or `chats-cache` under the cargo target
/// directory (`$CARGO_TARGET_DIR`, default `target`, relative to the
/// working directory).
#[must_use]
pub fn default_cache_dir() -> PathBuf {
    if let Some(dir) = env::var_os("CHATS_CACHE_DIR") {
        return dir.into();
    }
    default_target_dir().join("chats-cache")
}

pub(crate) fn default_target_dir() -> PathBuf {
    if let Some(dir) = env::var_os("CARGO_TARGET_DIR") {
        return dir.into();
    }
    // Tests and binaries run with their cwd inside a member crate; prefer
    // the workspace target dir (two levels above this crate's manifest)
    // when it exists, so every entry point shares one cache.
    if let Some(workspace) = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
    {
        let target = workspace.join("target");
        if target.is_dir() {
            return target;
        }
    }
    PathBuf::from("target")
}

/// A directory of one-JSON-file-per-job cached results.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// A cache rooted at `dir` (created lazily on first store).
    #[must_use]
    pub fn new(dir: PathBuf) -> DiskCache {
        DiskCache { dir }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a job.
    #[must_use]
    pub fn path_for(&self, spec: &JobSpec) -> PathBuf {
        self.dir.join(format!("{}.json", spec.id()))
    }

    /// Loads the cached result for `spec`, or `None` on a miss. An entry
    /// that exists but fails validation (corrupt JSON, wrong crate
    /// version, canonical-config mismatch, missing counters) is deleted
    /// and reported as a miss so the job re-executes.
    #[must_use]
    pub fn load(&self, spec: &JobSpec) -> Option<RunStats> {
        let path = self.path_for(spec);
        let text = fs::read_to_string(&path).ok()?;
        match decode_entry(&text, spec) {
            Ok(stats) => Some(stats),
            Err(why) => {
                eprintln!(
                    "chats-runner: warning: discarding unusable cache entry {} ({why}); re-executing",
                    path.display()
                );
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores a result, writing atomically (temp file + rename) so a
    /// concurrent or interrupted run can never leave a torn entry.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store(&self, spec: &JobSpec, stats: &RunStats) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.path_for(spec);
        let mut entry = BTreeMap::new();
        entry.insert("crate_version".to_string(), Json::Str(CACHE_VERSION.into()));
        entry.insert("job_id".to_string(), Json::Str(spec.id().to_string()));
        entry.insert("label".to_string(), Json::Str(spec.label()));
        entry.insert("canonical".to_string(), Json::Str(spec.canonical()));
        entry.insert("stats".to_string(), stats_to_json(stats));
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, Json::Obj(entry).to_pretty())?;
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Deletes every cache entry; returns how many were removed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the directory not
    /// existing (an absent cache is already clean).
    pub fn clean(&self) -> io::Result<usize> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut removed = 0;
        for entry in entries {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json") {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

fn decode_entry(text: &str, spec: &JobSpec) -> Result<RunStats, String> {
    let root = Json::parse(text)?;
    let version = root
        .get("crate_version")
        .and_then(Json::as_str)
        .ok_or("missing crate_version")?;
    if version != CACHE_VERSION {
        return Err(format!(
            "produced by crate version {version}, current is {CACHE_VERSION}"
        ));
    }
    let canonical = root
        .get("canonical")
        .and_then(Json::as_str)
        .ok_or("missing canonical config")?;
    if canonical != spec.canonical() {
        return Err("canonical config mismatch".to_string());
    }
    stats_from_json(root.get("stats").ok_or("missing stats")?)
}

/// Serializes every [`RunStats`] counter into a JSON object.
#[must_use]
pub fn stats_to_json(s: &RunStats) -> Json {
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: u64| {
        m.insert(k.to_string(), Json::U64(v));
    };
    put("cycles", s.cycles);
    put("commits", s.commits);
    put("tx_attempts", s.tx_attempts);
    put("conflicts", s.conflicts);
    put("forwardings", s.forwardings);
    put("validation_attempts", s.validation_attempts);
    put("validations_ok", s.validations_ok);
    put("flits", s.flits);
    put("control_messages", s.control_messages);
    put("data_messages", s.data_messages);
    put("fallback_acquisitions", s.fallback_acquisitions);
    put("power_grants", s.power_grants);
    put("nacks", s.nacks);
    put("instructions", s.instructions);
    put("events", s.events);
    m.insert(
        "max_chain_depth".into(),
        Json::U64(u64::from(s.max_chain_depth)),
    );
    m.insert(
        "aborts".into(),
        Json::Obj(
            s.aborts
                .iter()
                .map(|(k, &v)| (k.clone(), Json::U64(v)))
                .collect(),
        ),
    );
    m.insert(
        "chain_depth_hist".into(),
        Json::Obj(
            s.chain_depth_hist
                .iter()
                .map(|(&d, &n)| (d.to_string(), Json::U64(n)))
                .collect(),
        ),
    );
    m.insert(
        "forwarder_outcomes".into(),
        outcomes_to_json(&s.forwarder_outcomes),
    );
    m.insert(
        "conflicted_outcomes".into(),
        outcomes_to_json(&s.conflicted_outcomes),
    );
    Json::Obj(m)
}

fn outcomes_to_json(o: &TxOutcomeCounts) -> Json {
    let mut m = BTreeMap::new();
    m.insert("committed".to_string(), Json::U64(o.committed));
    m.insert("aborted".to_string(), Json::U64(o.aborted));
    Json::Obj(m)
}

/// Rebuilds [`RunStats`] from [`stats_to_json`] output.
///
/// # Errors
///
/// Strict: every counter must be present with the right type, so an
/// entry from a build whose `RunStats` lacked a field is rejected (and
/// the job re-executes) instead of resurfacing with silent zeros.
pub fn stats_from_json(v: &Json) -> Result<RunStats, String> {
    let field = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats field '{k}' missing or not a u64"))
    };
    let mut s = RunStats {
        cycles: field("cycles")?,
        commits: field("commits")?,
        tx_attempts: field("tx_attempts")?,
        conflicts: field("conflicts")?,
        forwardings: field("forwardings")?,
        validation_attempts: field("validation_attempts")?,
        validations_ok: field("validations_ok")?,
        flits: field("flits")?,
        control_messages: field("control_messages")?,
        data_messages: field("data_messages")?,
        fallback_acquisitions: field("fallback_acquisitions")?,
        power_grants: field("power_grants")?,
        nacks: field("nacks")?,
        instructions: field("instructions")?,
        events: field("events")?,
        max_chain_depth: u32::try_from(field("max_chain_depth")?)
            .map_err(|_| "max_chain_depth out of range".to_string())?,
        ..RunStats::default()
    };
    let aborts = v
        .get("aborts")
        .and_then(Json::as_obj)
        .ok_or("stats field 'aborts' missing or not an object")?;
    for (k, n) in aborts {
        let n = n
            .as_u64()
            .ok_or_else(|| format!("abort count '{k}' not a u64"))?;
        s.aborts.insert(k.clone(), n);
    }
    let hist = v
        .get("chain_depth_hist")
        .and_then(Json::as_obj)
        .ok_or("stats field 'chain_depth_hist' missing or not an object")?;
    for (k, n) in hist {
        let depth: u32 = k
            .parse()
            .map_err(|_| format!("bad chain depth key '{k}'"))?;
        let n = n
            .as_u64()
            .ok_or_else(|| format!("chain depth count '{k}' not a u64"))?;
        s.chain_depth_hist.insert(depth, n);
    }
    s.forwarder_outcomes = outcomes_from_json(v.get("forwarder_outcomes"), "forwarder_outcomes")?;
    s.conflicted_outcomes =
        outcomes_from_json(v.get("conflicted_outcomes"), "conflicted_outcomes")?;
    Ok(s)
}

fn outcomes_from_json(v: Option<&Json>, what: &str) -> Result<TxOutcomeCounts, String> {
    let v = v.ok_or_else(|| format!("stats field '{what}' missing"))?;
    let get = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{what}.{k} missing or not a u64"))
    };
    Ok(TxOutcomeCounts {
        committed: get("committed")?,
        aborted: get("aborted")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chats_core::AbortCause;

    fn sample_stats() -> RunStats {
        let mut s = RunStats {
            cycles: u64::MAX - 7, // exercise the exact-u64 lane
            commits: 2,
            tx_attempts: 5,
            conflicts: 3,
            forwardings: 4,
            validation_attempts: 6,
            validations_ok: 5,
            flits: 100,
            control_messages: 60,
            data_messages: 40,
            fallback_acquisitions: 1,
            power_grants: 0,
            nacks: 9,
            instructions: 12345,
            max_chain_depth: 0,
            ..RunStats::default()
        };
        s.record_abort(AbortCause::Conflict);
        s.record_abort(AbortCause::Capacity);
        s.record_chain_depth(0);
        s.record_chain_depth(3);
        s.forwarder_outcomes = TxOutcomeCounts {
            committed: 2,
            aborted: 1,
        };
        s.conflicted_outcomes = TxOutcomeCounts {
            committed: 1,
            aborted: 2,
        };
        s
    }

    #[test]
    fn stats_roundtrip_is_bit_identical() {
        let s = sample_stats();
        let back = stats_from_json(&stats_to_json(&s)).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn missing_counter_is_rejected() {
        let Json::Obj(mut m) = stats_to_json(&sample_stats()) else {
            panic!("stats_to_json must produce an object")
        };
        m.remove("nacks");
        let err = stats_from_json(&Json::Obj(m)).unwrap_err();
        assert!(err.contains("nacks"), "{err}");
    }

    #[test]
    fn default_dir_honours_env_override() {
        // Read-only check of the fallback path; env overrides are
        // exercised end-to-end by the integration tests.
        let d = default_target_dir();
        assert!(!d.as_os_str().is_empty());
    }
}
