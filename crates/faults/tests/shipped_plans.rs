//! The shipped fault plans exist as canned JSON under `plans/` so they
//! can be passed to `chats-run --faults` / `chats-check explore --faults`
//! without building anything. This test keeps the files in sync with the
//! presets; regenerate with `UPDATE_PLANS=1 cargo test -p chats-faults`.

use chats_faults::FaultPlan;
use std::path::Path;

#[test]
fn shipped_plans_match_the_plans_directory() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../plans");
    let plans = FaultPlan::shipped();
    assert!(!plans.is_empty());
    for plan in plans {
        let path = dir.join(format!("{}.json", plan.name));
        if std::env::var_os("UPDATE_PLANS").is_some() {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, plan.to_value().to_compact()).unwrap();
        }
        let loaded = FaultPlan::load(&path).unwrap_or_else(|e| {
            panic!("{e}\nregenerate with UPDATE_PLANS=1 cargo test -p chats-faults")
        });
        assert_eq!(loaded, plan, "{} drifted from its preset", plan.name);
        assert_eq!(loaded.hash(), plan.hash());
    }
}
