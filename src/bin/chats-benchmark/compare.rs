//! `compare DIR_A DIR_B`: judges the result files under `DIR_B` against
//! those under `DIR_A` (the base), metric by metric and workload by
//! workload, with the bounds `BENCHMARK.json` declares.
//!
//! Runs are keyed by (seed, unit count): a run of one key on side A pairs
//! with a run of the same key on side B. The rule for a bounded metric:
//! B improved only when it wins at least nine tenths of the pairs (ties
//! count for neither) and the medians differ by more than the distance
//! between A's quartiles. Otherwise a metric whose run-to-run spread is
//! wider than its bound is unresolved, unless every B run beats every A
//! run; a median worse by more than the bound is a regression; anything
//! else is within bound. Simulated counts repeat exactly for a key, so
//! they compare by equality within each key. Per-layer host metrics carry
//! no bound and are reported without a verdict.

use crate::metrics::{declared, median, quartiles, relative_spread, Better, Declared};
use crate::workload::Workload;
use chats_runner::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    WithinBound,
    Unresolved,
    Identical,
    Changed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Identical => "identical",
            Verdict::Changed => "CHANGED",
        }
    }

    /// Verdicts that make `compare` exit 1.
    fn disagrees(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::Unresolved | Verdict::Changed
        )
    }
}

/// A run's (seed, unit count): runs of one key did identical simulated
/// work.
type Key = (u64, u64);

/// One metric's values on one side, by key, each key's in path order.
type Keyed = BTreeMap<Key, Vec<f64>>;

/// `(a, b)` pairs of runs with the same key: the i-th run of a key on
/// side A with the i-th run of that key on side B.
fn pairs(a: &Keyed, b: &Keyed) -> Vec<(f64, f64)> {
    a.iter()
        .filter_map(|(k, va)| Some(va.iter().copied().zip(b.get(k)?.iter().copied())))
        .flatten()
        .collect()
}

/// Pairs in which the B run reads strictly better.
fn wins(pairs: &[(f64, f64)], better: Better) -> usize {
    pairs.iter().filter(|(x, y)| better.beats(*y, *x)).count()
}

/// The verdict on a bounded metric: all runs `a` and `b` of each side,
/// and the `pairs` of runs with the same key.
pub fn verdict(a: &[f64], b: &[f64], pairs: &[(f64, f64)], better: Better, bound: f64) -> Verdict {
    let [a1, am, a3] = quartiles(a);
    let bm = median(b);
    let won = wins(pairs, better);
    if !pairs.is_empty()
        && won * 10 >= pairs.len() * 9
        && (bm - am).abs() > a3 - a1
        && better.beats(bm, am)
    {
        return Verdict::Improved;
    }
    if relative_spread(a).max(relative_spread(b)) > bound {
        let all_better = a.iter().all(|x| b.iter().all(|y| better.beats(*y, *x)));
        return if all_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    let worse = match better {
        Better::Higher => am - bm,
        Better::Lower => bm - am,
    } / am.abs();
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// The verdict on a simulated count: every run of one key, on either
/// side, must read the same. `None` when the sides share no key, so
/// nothing can be held equal.
pub fn exact_verdict(a: &Keyed, b: &Keyed) -> Option<Verdict> {
    let mut merged: Keyed = a.clone();
    for (k, v) in b {
        merged.entry(*k).or_default().extend(v);
    }
    if merged.values().any(|v| v.iter().any(|x| *x != v[0])) {
        return Some(Verdict::Changed);
    }
    a.keys()
        .any(|k| b.contains_key(k))
        .then_some(Verdict::Identical)
}

/// One result file.
struct Run {
    workload: String,
    key: Key,
    metrics: BTreeMap<String, f64>,
    digests: Vec<String>,
}

fn collect_json(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            collect_json(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "json") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every result file under `dir`, in path order.
fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut paths = Vec::new();
    collect_json(dir, &mut paths)?;
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("benchmark_version").is_none() {
            continue;
        }
        let bad = || format!("{}: not a chats-benchmark result", path.display());
        let number = |k: &str| doc.get(k).and_then(Json::as_u64).ok_or_else(bad);
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(bad)?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        runs.push(Run {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(bad)?
                .to_string(),
            key: (number("seed")?, number("units")?),
            metrics,
            digests: doc
                .get("unit_digests")
                .and_then(Json::as_arr)
                .ok_or_else(bad)?
                .iter()
                .filter_map(|d| d.as_str().map(str::to_string))
                .collect(),
        });
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(runs)
}

/// Metric `name` on workload `w`, by key.
fn keyed(runs: &[Run], w: &str, name: &str) -> Keyed {
    let mut out = Keyed::new();
    for r in runs.iter().filter(|r| r.workload == w) {
        if let Some(v) = r.metrics.get(name) {
            out.entry(r.key).or_default().push(*v);
        }
    }
    out
}

fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

fn summary(values: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(values);
    format!("{} [{}, {}]", num(q2), num(q1), num(q3))
}

/// Compares the metric `d` on workload `w`: the printed row and its
/// verdict, if the metric gets one. `None` when either side lacks it.
fn row(d: &Declared, w: &str, a: &[Run], b: &[Run]) -> Option<(String, Option<Verdict>)> {
    let (ka, kb) = (keyed(a, w, &d.name), keyed(b, w, &d.name));
    let flat = |k: &Keyed| -> Vec<f64> { k.values().flatten().copied().collect() };
    let (va, vb) = (flat(&ka), flat(&kb));
    if va.is_empty() || vb.is_empty() {
        return None;
    }
    let paired = pairs(&ka, &kb);
    let v = if d.exact {
        exact_verdict(&ka, &kb)
    } else {
        d.bound
            .map(|bound| verdict(&va, &vb, &paired, d.better, bound))
    };
    let (ma, mb) = (median(&va), median(&vb));
    let change = if ma == 0.0 {
        String::new()
    } else {
        format!("{:+.2}%", 100.0 * (mb - ma) / ma.abs())
    };
    let label = match (v, d.exact) {
        (Some(v), _) => v.label().to_string(),
        (None, true) => "no shared seed".to_string(),
        (None, false) => "-".to_string(),
    };
    let bound = d
        .bound
        .map_or(String::new(), |b| format!(" (bound {:.0}%)", b * 100.0));
    let line = format!(
        "  {w:<13} {:>28} {:>28} {change:>8} {:>3}/{:<3} {label}{bound}",
        summary(&va),
        summary(&vb),
        wins(&paired, d.better),
        paired.len(),
    );
    Some((line, v))
}

/// `true` when every run of one key, on both sides, produced the same
/// unit digests.
fn digests_agree(w: &str, a: &[Run], b: &[Run]) -> bool {
    let mut by_key: BTreeMap<Key, &Vec<String>> = BTreeMap::new();
    a.iter()
        .chain(b)
        .filter(|r| r.workload == w)
        .all(|r| *by_key.entry(r.key).or_insert(&r.digests) == &r.digests)
}

pub fn cmd(args: &[String]) -> Result<ExitCode, String> {
    let [dir_a, dir_b] = args else {
        return Err("usage: chats-benchmark compare DIR_A DIR_B".to_string());
    };
    let (a, b) = (load(Path::new(dir_a))?, load(Path::new(dir_b))?);
    println!(
        "compare: A = {dir_a} ({} results), B = {dir_b} ({} results); bounds from BENCHMARK.json",
        a.len(),
        b.len()
    );
    println!(
        "  {:<13} {:>28} {:>28} {:>8} {:>7} verdict",
        "workload", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins"
    );
    let mut workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    for r in a.iter().chain(&b) {
        if !workloads.contains(&r.workload) {
            workloads.push(r.workload.clone());
        }
    }
    let mut disagreements = 0;
    for d in declared() {
        let rows: Vec<(String, Option<Verdict>)> = workloads
            .iter()
            .filter_map(|w| row(&d, w, &a, &b))
            .collect();
        if rows.is_empty() {
            continue;
        }
        println!("{} ({})", d.name, d.unit);
        for (line, v) in rows {
            println!("{line}");
            disagreements += usize::from(v.is_some_and(Verdict::disagrees));
        }
    }
    for w in &workloads {
        if a.iter().chain(&b).any(|r| &r.workload == w) {
            let agree = digests_agree(w, &a, &b);
            println!(
                "{w}: unit digests {} for every seed",
                if agree { "identical" } else { "DIFFER" }
            );
            disagreements += usize::from(!agree);
        }
    }
    Ok(if disagreements == 0 {
        ExitCode::SUCCESS
    } else {
        println!("compare: {disagreements} disagreement(s)");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: Better = Better::Higher;

    /// `verdict` with every run paired to the run at the same index.
    fn by_index(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
        let paired: Vec<(f64, f64)> = a.iter().copied().zip(b.iter().copied()).collect();
        verdict(a, b, &paired, better, bound)
    }

    fn run(workload: &str, seed: u64, units: u64, value: f64) -> Run {
        Run {
            workload: workload.to_string(),
            key: (seed, units),
            metrics: BTreeMap::from([("m".to_string(), value)]),
            digests: vec![format!("{seed:016x}")],
        }
    }

    #[test]
    fn runs_pair_and_compare_exactly_by_seed_not_by_path_order() {
        // Each side holds two runs of seeds 1 and 2, listed in different
        // orders; the count differs between the seeds.
        let a = [
            run("w", 1, 3, 10.0),
            run("w", 2, 3, 20.0),
            run("w", 1, 3, 10.0),
            run("w", 2, 3, 20.0),
        ];
        let b = [
            run("w", 2, 3, 20.0),
            run("w", 2, 3, 20.0),
            run("w", 1, 3, 10.0),
            run("w", 1, 3, 10.0),
        ];
        let (ka, kb) = (keyed(&a, "w", "m"), keyed(&b, "w", "m"));
        assert_eq!(exact_verdict(&ka, &kb), Some(Verdict::Identical));
        let paired = pairs(&ka, &kb);
        assert_eq!(paired.len(), 4);
        assert!(paired.iter().all(|(x, y)| x == y));
        assert!(digests_agree("w", &a, &b));

        // One changed count on one seed is a change.
        let mut changed = b;
        changed[3] = run("w", 1, 3, 11.0);
        let kc = keyed(&changed, "w", "m");
        assert_eq!(exact_verdict(&ka, &kc), Some(Verdict::Changed));

        // Another unit count is another key: not a change, and with no
        // key in common there is nothing to hold equal.
        let short = [run("w", 1, 2, 7.0)];
        assert_eq!(exact_verdict(&ka, &keyed(&short, "w", "m")), None);
        assert!(pairs(&ka, &keyed(&short, "w", "m")).is_empty());
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs_and_separated_medians() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 5.0).collect();
        assert_eq!(by_index(&a, &b, H, 0.03), Verdict::Improved);
        // Two ties among ten pairs: 8/10 wins is short of nine tenths.
        let mut tied = b.clone();
        tied[0] = a[0];
        tied[1] = a[1];
        assert_eq!(by_index(&a, &tied, H, 0.03), Verdict::WithinBound);
        // Lower is better: the same shift is a loss, and past the bound.
        assert_eq!(by_index(&a, &b, Better::Lower, 0.03), Verdict::Regressed);
        // Without pairs no gain is claimed.
        assert_eq!(verdict(&a, &b, &[], H, 0.03), Verdict::WithinBound);
    }

    #[test]
    fn within_bound_regressed_and_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slightly = [99.0, 100.0, 98.0, 99.5, 98.5];
        assert_eq!(by_index(&a, &slightly, H, 0.03), Verdict::WithinBound);
        let much = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(by_index(&a, &much, H, 0.03), Verdict::Regressed);
        // Quartile spread of 20% against a 3% bound.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(by_index(&a, &noisy, H, 0.03), Verdict::Unresolved);
        // ...unless every B run beats every A run, even with medians
        // closer than A's quartile distance.
        let noisy_better = [121.0, 125.0, 123.0, 122.0, 124.0];
        assert_eq!(
            by_index(&noisy, &noisy_better, H, 0.03),
            Verdict::WithinBound
        );
        // Identical sides tie every pair.
        assert_eq!(by_index(&a, &a, H, 0.03), Verdict::WithinBound);
    }
}
