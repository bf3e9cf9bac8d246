//! The metric table, how each metric is computed from a run, and the
//! order statistics every report uses.
//!
//! `BENCHMARK.json` at the repository root is the single source of each
//! metric's unit, direction and bound; it is compiled in, and a unit test
//! holds it and [`end_to_end`] / [`per_layer`] to the same set of names.

use crate::trace::Tracer;
use crate::workload::{user_txns, Tally};
use chats_runner::{JobSpec, Json};
use chats_stats::RunStats;
use std::collections::BTreeMap;

/// The benchmark declaration this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// `true` when `x` reads strictly better than `y`.
    pub fn beats(self, x: f64, y: f64) -> bool {
        match self {
            Better::Higher => x > y,
            Better::Lower => x < y,
        }
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base median by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
    /// Simulated counts and ratios: they repeat exactly for a seed, so two
    /// builds compare by equality, not by a bound.
    pub exact: bool,
}

/// Metrics that count simulated work. Everything else is host time,
/// host memory or a ratio of host times.
const SIMULATED: [&str; 24] = [
    "sim.runs",
    "sim.cycles",
    "sim.events",
    "sim.events_per_txn",
    "tvm.instructions",
    "noc.flits",
    "noc.data_msgs",
    "noc.control_msgs",
    "core.user_txns",
    "core.tx_attempts",
    "core.commit_ratio",
    "core.aborts",
    "core.fallbacks",
    "machine.conflicts",
    "machine.forwardings",
    "machine.validation_ok_ratio",
    "machine.nacks",
    "runner.cache_hits",
    "check.schedules",
    "check.inconclusive",
    "check.decisions",
    "snap.epochs",
    "snap.checkpoint_bytes",
    "obs.trace_events",
];

/// Every metric `BENCHMARK.json` declares, end-to-end first.
///
/// # Panics
///
/// Panics if the compiled-in declaration is malformed; the unit tests
/// parse it, so a build that passes them cannot.
pub fn declared() -> Vec<Declared> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let mut out = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in doc
            .get(section)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists its metrics")
        {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("metric field");
            let name = field("name").to_string();
            out.push(Declared {
                exact: SIMULATED.contains(&name.as_str()),
                unit: field("unit").to_string(),
                better: match field("better") {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => panic!("{name}: unknown direction {other}"),
                },
                bound: bounded.then(|| {
                    m.get("bound")
                        .and_then(Json::as_f64)
                        .expect("end-to-end metrics carry a bound")
                }),
                name,
            });
        }
    }
    out
}

/// Each declared metric's unit, by name.
pub fn units() -> BTreeMap<String, String> {
    declared().into_iter().map(|d| (d.name, d.unit)).collect()
}

/// How long one run measures, as `BENCHMARK.json` declares it.
///
/// # Panics
///
/// Panics if the compiled-in declaration lacks `run_seconds`; the unit
/// tests read it.
pub fn run_seconds() -> u64 {
    Json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|doc| doc.get("run_seconds")?.as_u64())
        .expect("BENCHMARK.json declares run_seconds")
}

/// What one run measured.
pub struct Measured<'a> {
    /// Host seconds of each measured unit.
    pub unit_s: &'a [f64],
    /// The host's speed during each unit against the reference host (see
    /// `host`).
    pub unit_speed: &'a [f64],
    /// Simulation runs in each measured unit.
    pub unit_runs: &'a [u64],
    /// Median scaled set-up time (`setup_s` in main.rs).
    pub setup_s: f64,
    /// Process peak resident set.
    pub peak_rss_mb: f64,
    /// The completed jobs and their results.
    pub jobs: &'a [(JobSpec, RunStats)],
    pub tally: &'a Tally,
    pub tracer: &'a Tracer,
}

/// `a / b`, or 0 when nothing was measured.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// End-to-end metrics, in declaration order. Each unit's time is scaled
/// to the reference host's speed before the rate is taken over the whole
/// run: explore's units are different HTM systems, so a median over
/// units would pick one of them.
pub fn end_to_end(m: &Measured<'_>) -> Vec<(&'static str, f64)> {
    let runs = m.unit_runs.iter().sum::<u64>() as f64;
    let scaled_s: f64 = m.unit_s.iter().zip(m.unit_speed).map(|(s, k)| s * k).sum();
    vec![
        ("sim_runs_per_s", per(runs, scaled_s)),
        ("setup_s", m.setup_s),
        ("peak_rss_mb", m.peak_rss_mb),
    ]
}

/// Per-layer metrics, in declaration order: each layer's share of unit
/// time from the spans, then the counters the layers returned.
pub fn per_layer(m: &Measured<'_>) -> Vec<(&'static str, f64)> {
    let tr = m.tracer;
    let t = m.tally;
    let sum = |count: fn(&RunStats) -> u64| -> f64 {
        m.jobs.iter().map(|(_, s)| count(s)).sum::<u64>() as f64
    };
    let txns = m
        .jobs
        .iter()
        .map(|(j, s)| user_txns(j.policy.system, s))
        .sum::<u64>() as f64;
    let events = sum(|s| s.events);
    let attempts = sum(|s| s.tx_attempts);
    let layers = tr.layer_self_ns();
    let unit_ns = tr.unit_ns() as f64;
    let share = |ns: u64| per(100.0 * ns as f64, unit_ns);
    let layer = |name: &str| share(layers.get(name).copied().unwrap_or(0));
    let secs = |name: &str| tr.total_ns(name) as f64 / 1e9;
    let overhead = |armed: &str| {
        let off = secs("machine.run");
        if secs(armed) > 0.0 {
            per(secs(armed), off) - 1.0
        } else {
            0.0
        }
    };
    let mb = t.checkpoint_bytes as f64 / 1e6;
    vec![
        ("machine.share", layer("machine")),
        ("machine.events_per_s", per(events, secs("machine.run"))),
        (
            "workloads.prepare_share",
            share(tr.total_ns("workloads.prepare")),
        ),
        (
            "workloads.check_share",
            share(tr.total_ns("workloads.check")),
        ),
        ("runner.share", layer("runner")),
        ("check.share", layer("check")),
        ("snap.share", layer("snap")),
        ("obs.share", layer("obs")),
        ("bench.self_share", layer("bench")),
        ("bench.host_speed", median(m.unit_speed)),
        ("sim.runs", t.runs as f64),
        ("sim.cycles", sum(|s| s.cycles)),
        ("sim.events", events),
        ("sim.events_per_txn", per(events, txns)),
        ("tvm.instructions", sum(|s| s.instructions)),
        ("noc.flits", sum(|s| s.flits)),
        ("noc.data_msgs", sum(|s| s.data_messages)),
        ("noc.control_msgs", sum(|s| s.control_messages)),
        ("core.user_txns", txns),
        ("core.tx_attempts", attempts),
        ("core.commit_ratio", per(sum(|s| s.commits), attempts)),
        ("core.aborts", sum(RunStats::total_aborts)),
        ("core.fallbacks", sum(|s| s.fallback_acquisitions)),
        ("machine.conflicts", sum(|s| s.conflicts)),
        ("machine.forwardings", sum(|s| s.forwardings)),
        (
            "machine.validation_ok_ratio",
            per(sum(|s| s.validations_ok), sum(|s| s.validation_attempts)),
        ),
        ("machine.nacks", sum(|s| s.nacks)),
        ("runner.cache_hits", t.cache_hits as f64),
        ("check.schedules", t.schedules as f64),
        ("check.inconclusive", t.inconclusive as f64),
        ("check.decisions", t.decisions as f64),
        ("snap.commit_overhead", overhead("machine.run_committed")),
        ("snap.epochs", t.epochs as f64),
        (
            "snap.checkpoint_bytes",
            per(t.checkpoint_bytes as f64, t.checkpoints as f64),
        ),
        ("snap.checkpoint_mb_per_s", per(mb, secs("snap.checkpoint"))),
        ("snap.restore_mb_per_s", per(mb, secs("snap.restore"))),
        ("obs.sink_overhead", overhead("machine.run_traced")),
        ("obs.trace_events", t.trace_events as f64),
        (
            "obs.rebuild_events_per_s",
            per(t.trace_events as f64, secs("obs.rebuild")),
        ),
    ]
}

/// The middle value (mean of the two middle values for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so
/// spreads match what an outside script computes from the same values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        _ => {
            // Signed: with few values the outer quartiles extrapolate.
            let (ld, m) = (ld as i64, ld as i64 + 1);
            [1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            })
        }
    }
}

/// Distance between the quartiles as a share of the median's magnitude.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    per(q3 - q1, q2.abs())
}

/// The highest whole percentile with at least ten samples beyond it, for
/// `n` samples; `None` below twenty samples, where that would sit under
/// the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..100)
        .rev()
        .find(|&p| n.saturating_sub((p as usize * n).div_ceil(100)) >= 10)
}

/// Nearest-rank percentile `p` of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    v.get(rank - 1).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((relative_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 2400 runs: p99 leaves 24 beyond it, p99 is the highest whole one.
        assert_eq!(tail_percentile(2400), Some(99));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(101), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in [20, 37, 100, 641, 2400, 100_000] {
            let p = tail_percentile(n).unwrap() as usize;
            assert!(n - (p * n).div_ceil(100) >= 10, "n={n} p={p}");
            assert!(
                p == 99 || n - ((p + 1) * n).div_ceil(100) < 10,
                "n={n} p={p}"
            );
        }
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 50), 50.0);
    }

    #[test]
    fn every_declared_metric_is_emitted_and_every_emitted_one_declared() {
        let declared = declared();
        let tally = Tally::default();
        let tracer = Tracer::new(true);
        let m = Measured {
            unit_s: &[1.0],
            unit_speed: &[1.0],
            unit_runs: &[1],
            setup_s: 0.1,
            peak_rss_mb: 1.0,
            jobs: &[],
            tally: &tally,
            tracer: &tracer,
        };
        let names = |v: Vec<(&'static str, f64)>| -> Vec<String> {
            v.into_iter().map(|(n, _)| n.to_string()).collect()
        };
        let e2e = names(end_to_end(&m));
        let layer = names(per_layer(&m));
        let want = |bounded: bool| -> Vec<String> {
            declared
                .iter()
                .filter(|d| d.bound.is_some() == bounded)
                .map(|d| d.name.clone())
                .collect()
        };
        assert_eq!(e2e, want(true), "end-to-end metrics");
        assert_eq!(layer, want(false), "per-layer metrics");
        let unique: BTreeSet<&String> = declared.iter().map(|d| &d.name).collect();
        assert_eq!(unique.len(), declared.len(), "names are used once");
        for d in &declared {
            assert!(!d.unit.is_empty(), "{} has a unit", d.name);
            if let Some(b) = d.bound {
                assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
            }
        }
        for name in SIMULATED {
            assert!(unique.contains(&name.to_string()), "{name} is declared");
        }
        let setup = declared.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = declared.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the widest bound");
        assert!((1..=60).contains(&run_seconds()));
    }
}
