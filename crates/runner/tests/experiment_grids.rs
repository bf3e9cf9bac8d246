//! Every experiment set's job grid, pinned: for each id of
//! [`experiments::available`] plus `all`, at quick and paper scale, the
//! golden holds the job count and an FNV-1a of the sorted job ids. A set
//! may list its jobs in any order; it may not gain, lose or change one.
//! Regenerate after an *intentional* change to a grid with:
//!
//! ```text
//! CHATS_UPDATE_GOLDEN=1 cargo test -p chats-runner --test experiment_grids
//! ```

use chats_runner::experiments::{self, Scale};
use chats_runner::hash::fnv1a_64;
use std::fs;
use std::path::Path;

/// One golden line per id and scale, and the sorted labels of each
/// line's grid for the mismatch report.
fn grids() -> Vec<(String, Vec<String>)> {
    let mut ids = experiments::available().to_vec();
    ids.push("all");
    let mut lines = Vec::new();
    for id in ids {
        for scale in [Scale::Quick, Scale::Paper] {
            let set = experiments::set(id, scale).unwrap_or_else(|| panic!("{id} resolves"));
            let mut job_ids: Vec<String> = set.iter().map(|j| j.id().to_string()).collect();
            job_ids.sort();
            let mut labels: Vec<String> = set.iter().map(|j| j.label()).collect();
            labels.sort();
            let line = format!(
                "{id} {} {} {:016x}",
                scale.label(),
                job_ids.len(),
                fnv1a_64(job_ids.join("\n").as_bytes())
            );
            lines.push((line, labels));
        }
    }
    lines
}

#[test]
fn every_grid_matches_its_golden() {
    let grids = grids();
    let actual: String = grids.iter().map(|(line, _)| format!("{line}\n")).collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/experiment_grids.txt");
    if std::env::var_os("CHATS_UPDATE_GOLDEN").is_some() {
        fs::write(&path, &actual).unwrap();
        eprintln!("experiment_grids: golden rewritten at {}", path.display());
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with CHATS_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let moved: Vec<String> = grids
        .iter()
        .filter(|(line, _)| !golden.lines().any(|g| g == line))
        .map(|(line, labels)| format!("{line}\n  {}", labels.join("\n  ")))
        .collect();
    assert!(
        moved.is_empty() && golden == actual,
        "a job grid moved (an intentional change needs CHATS_UPDATE_GOLDEN=1):\n{}",
        moved.join("\n")
    );
}
