//! Byte-stability of the on-disk JSON formats.
//!
//! `fixtures/` holds a result-cache entry, a run manifest and a reproducer
//! whose scenario carries a fault plan, each written by the 0.1.0 writers
//! before the runner's JSON type became an alias of `serde::Value`. The
//! cache entry was re-recorded when job-id format 2 replaced the `Debug`
//! text of the configuration with explicit encoders; only its `canonical`
//! and `job_id` moved, its `stats` bytes did not. Every
//! file must parse and render back to the same bytes, and the typed
//! loaders must still accept them, so caches and reproducers written
//! before the switch stay valid without a `CACHE_VERSION` bump.

use chats_check::{FaultPlan, Reproducer};
use chats_runner::cache::stats_to_json;
use chats_runner::experiments::{self, Scale};
use chats_runner::{DiskCache, Json};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap();
    (path, text)
}

#[test]
fn fixtures_render_back_to_their_own_bytes() {
    for name in ["cache-entry.json", "manifest.json", "reproducer.json"] {
        let (_, text) = fixture(name);
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(doc.to_pretty(), text, "{name} re-renders differently");
    }
}

#[test]
fn disk_cache_loads_the_fixture_entry() {
    let (_, text) = fixture("cache-entry.json");
    let entry = Json::parse(&text).unwrap();
    let id = entry.get("job_id").and_then(Json::as_str).unwrap();
    let spec = experiments::set("chains", Scale::Quick)
        .unwrap()
        .iter()
        .find(|s| s.id().to_string() == id)
        .cloned()
        .expect("the fixture's job is in the chains set");

    // `load` deletes entries it rejects, so it reads a copy.
    let dir = std::env::temp_dir().join(format!("chats-json-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::new(dir.clone());
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(cache.path_for(&spec), &text).unwrap();
    let stats = cache.load(&spec).expect("the fixture entry is a cache hit");
    assert_eq!(Some(&stats_to_json(&stats)), entry.get("stats"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reproducer_with_faults_loads_and_re_renders() {
    let (path, text) = fixture("reproducer.json");
    let r = Reproducer::load(&path).unwrap();
    assert_eq!(r.scenario.faults, Some(FaultPlan::lossy_noc()));
    assert_eq!(r.prefix, [0, 2, 1, 3]);
    assert_eq!(r.to_json().to_pretty(), text);
}
