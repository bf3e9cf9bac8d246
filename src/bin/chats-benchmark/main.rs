//! `chats-benchmark`: end-to-end and per-layer measurements of the CHATS
//! simulator on five workloads. README.md beside this file lists the
//! workloads, metrics and commands and the reasons for each.
//!
//! One process runs one workload on one host thread, as a closed loop:
//! the next simulation starts when the previous one has returned.

mod compare;
mod host;
mod metrics;
mod trace;
mod workload;

use crate::metrics::Measured;
use crate::workload::{Bench, Workload};
use chats_runner::Json;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Bumped whenever a change to the benchmark changes what its numbers
/// mean; recorded in every result file.
const BENCHMARK_VERSION: u64 = 1;

/// Set-ups a run reports the median of; each is the fastest of its
/// passes (see [`setup_s`]).
const SETUP_GROUPS: usize = 3;

/// The paper's headline result (Fig. 4): CHATS cuts execution time by 22%
/// on average against the requester-wins baseline.
const PAPER_CHATS_TIME_REDUCTION: f64 = 0.22;

const USAGE: &str = "\
usage: chats-benchmark run --workload W --seed S [--seconds T] [--trace 0|1|FILE] [--out FILE]
       chats-benchmark all --seed S [--seconds T] [--trace 0|1|DIR] [--out DIR]
       chats-benchmark compare DIR_A DIR_B
workloads: paper-grid, token-storm, transfers, explore, instrumented
--trace 1 records spans and prints the per-layer metrics; a file (a
directory for all) also receives the spans as JSON lines";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("compare") => compare::cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("chats-benchmark: {e}");
        ExitCode::from(2)
    })
}

/// Parses `--key value` pairs; every key must be one of `allowed`.
fn flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .filter(|k| allowed.contains(k))
            .ok_or_else(|| format!("unexpected argument '{arg}'\n{USAGE}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if out.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(out)
}

/// The options `run` and `all` share.
struct Options {
    seed: u64,
    /// Run length; `run_seconds` of `BENCHMARK.json` unless given.
    seconds: u64,
    /// `--trace`: off for `0` or none, on for `1`, on and written to the
    /// named file (directory for `all`) otherwise.
    trace: Option<Option<PathBuf>>,
}

impl Options {
    fn parse(f: &BTreeMap<String, String>) -> Result<Options, String> {
        let number = |key: &str| {
            f.get(key)
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("--{key}: not a whole number: '{v}'"))
                })
                .transpose()
        };
        let seconds = number("seconds")?.unwrap_or_else(metrics::run_seconds);
        if seconds == 0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Options {
            seed: number("seed")?.ok_or("--seed is required")?,
            seconds,
            trace: match f.get("trace").map(String::as_str) {
                None | Some("0") => None,
                Some("1") => Some(None),
                Some(path) => Some(Some(PathBuf::from(path))),
            },
        })
    }

    fn traced(&self) -> bool {
        self.trace.is_some()
    }
}

/// A private directory under the cargo target directory for the run's
/// result caches; removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let target =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
        let dir = target
            .join("chats-benchmark")
            .join(format!("run-{}", std::process::id()));
        // A crashed run with the same pid may have left entries behind.
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where the kernel
/// does not report it.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The trimmed standard output of a command that succeeded.
fn output_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where a result was measured.
fn provenance() -> Json {
    let text = |v: Option<String>| v.map_or(Json::Null, Json::Str);
    let cpu = fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    // Keep git from searching above the working directory, so a checkout
    // without history reports no commit rather than an enclosing one.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
        .unwrap_or_default();
    let mut m = BTreeMap::new();
    m.insert(
        "nproc".to_string(),
        Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
    );
    m.insert("cpu".to_string(), text(cpu));
    m.insert(
        "rustc".to_string(),
        text(output_of(Command::new(rustc).arg("-V"))),
    );
    m.insert(
        "git_head".to_string(),
        text(output_of(
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", ceiling),
        )),
    );
    Json::Obj(m)
}

/// `{"name": {"value": v, "unit": u}, ...}` with units from
/// `BENCHMARK.json`.
fn metrics_json(values: &[(&'static str, f64)]) -> Json {
    let units = metrics::units();
    Json::Obj(
        values
            .iter()
            .map(|&(name, value)| {
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), Json::F64(value));
                m.insert("unit".to_string(), Json::Str(units[name].clone()));
                (name.to_string(), Json::Obj(m))
            })
            .collect(),
    )
}

fn print_metrics(values: &[(&'static str, f64)]) {
    let units = metrics::units();
    for &(name, value) in values {
        println!("  {name:<28} {value:>18.6} {}", units[name]);
    }
}

/// The traced run's layer table: self time and share of unit time per
/// layer, then each span's sample count, median and tail.
fn print_layers(bench: &Bench) {
    let tr = &bench.tracer;
    let unit_ms = tr.unit_ns() as f64 / 1e6;
    println!("layer self time ({unit_ms:.1} ms of unit time):");
    for (layer, ns) in tr.layer_self_ns() {
        let ms = ns as f64 / 1e6;
        println!("  {layer:<10} {ms:>12.3} ms {:>7.2}%", 100.0 * ms / unit_ms);
    }
    println!("span durations (ms):");
    for (name, ms) in tr.durations_ms() {
        let tail = metrics::tail_percentile(ms.len()).map_or(String::new(), |p| {
            format!("  p{p} {:.4}", metrics::percentile(&ms, p))
        });
        println!(
            "  {name:<24} n={:<6} p50 {:.4}{tail}",
            ms.len(),
            metrics::median(&ms)
        );
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let o = Options::parse(&f)?;
    let name = f.get("workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?;
    let units = workload.units(o.seconds);

    let scratch = Scratch::create()?;
    // One untimed unit first pays for lazy initialisation and cold
    // caches; its results must equal those of the timed unit 0.
    let mut warm = Bench::new(workload, o.seed, false, scratch.0.join("warm-up"));
    let warm_digests = warm.run_unit(0);

    // (seconds per set-up, set-up kernel seconds) of each set-up pass.
    let mut passes = Vec::new();
    let (setup_passes, repeats) = (workload.setup_passes(), workload.setup_repeats());
    // Host-speed samples bracket every unit (see `host`).
    let samples = workload.kernel_samples();
    let mut kernel_s = vec![host::time_kernel(samples)];

    let mut bench = Bench::new(workload, o.seed, o.traced(), scratch.0.join("cache"));
    for why in warm.failures {
        bench.fail(format!("warm-up: {why}"));
    }
    let mut unit_s = Vec::new();
    let mut unit_runs = Vec::new();
    let mut digests: Vec<Vec<u64>> = Vec::new();
    for k in 0..units {
        let runs = bench.tally.runs;
        let t = Instant::now();
        digests.push(bench.run_unit(k));
        unit_s.push(t.elapsed().as_secs_f64());
        unit_runs.push(bench.tally.runs - runs);
        kernel_s.push(host::time_kernel(samples));
        // The set-up passes due by the end of unit k, spread evenly over
        // the run, each followed by its host-speed sample.
        while passes.len() < (k as usize + 1) * setup_passes / units as usize {
            let setup = host::time(|| {
                for _ in 0..repeats {
                    std::hint::black_box(workload.set_up(o.seed));
                }
            });
            passes.push((setup / f64::from(repeats), host::time(host::setup_kernel)));
        }
    }
    if digests.first() != Some(&warm_digests) {
        bench.fail("unit 0 and its warm-up produced different results".to_string());
    }
    bench.read_back(units);
    drop(scratch);

    let unit_speed: Vec<f64> = kernel_s
        .windows(2)
        .map(|w| host::speed(w[0], w[1]))
        .collect();
    let measured = Measured {
        unit_s: &unit_s,
        unit_speed: &unit_speed,
        unit_runs: &unit_runs,
        setup_s: setup_s(&passes),
        peak_rss_mb: peak_rss_mb(),
        jobs: &bench.done,
        tally: &bench.tally,
        tracer: &bench.tracer,
    };
    let e2e = metrics::end_to_end(&measured);
    let layers = if o.traced() {
        metrics::per_layer(&measured)
    } else {
        Vec::new()
    };
    // The warm-up's runs are attempts too: its failures count as failed.
    let (attempted, failed) = (warm.tally.runs + bench.tally.runs, bench.tally.failed);
    let correct = failed == 0;

    let seeds = unit_seed_range(o.seed, units);
    println!(
        "chats-benchmark: {} seed {}, {units} units (unit seeds {seeds}), {} runs in {:.2} s, \
         host speed {:.3} of the reference, trace {}",
        workload.name(),
        o.seed,
        bench.tally.runs,
        unit_s.iter().sum::<f64>(),
        metrics::median(&unit_speed),
        if o.traced() { "on" } else { "off" },
    );
    println!("end-to-end{}:", if o.traced() { " (traced)" } else { "" });
    print_metrics(&e2e);
    if o.traced() {
        println!("per-layer:");
        print_metrics(&layers);
        print_layers(&bench);
    }
    let reference = bench.chats_time_reduction();
    if let Some(r) = reference {
        println!(
            "reference: CHATS execution-time reduction vs Baseline {:.2}% over the STAMP \
             workloads; the paper reports {:.0}% (gap {:.2} pp)",
            100.0 * r,
            100.0 * PAPER_CHATS_TIME_REDUCTION,
            (100.0 * (r - PAPER_CHATS_TIME_REDUCTION)).abs()
        );
    }
    for why in &bench.failures {
        println!("FAILED: {why}");
    }
    println!("correctness: {attempted} runs attempted with the warm-up, {failed} failed");

    if let Some(Some(path)) = &o.trace {
        bench
            .tracer
            .write_jsonl(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = f.get("out") {
        let mut doc = BTreeMap::new();
        let mut put = |k: &str, v: Json| {
            doc.insert(k.to_string(), v);
        };
        let numbers = |v: &[f64]| Json::Arr(v.iter().copied().map(Json::F64).collect());
        put("benchmark_version", Json::U64(BENCHMARK_VERSION));
        put("workload", Json::Str(workload.name().to_string()));
        put("seed", Json::U64(o.seed));
        put("units", Json::U64(u64::from(units)));
        put("seconds", Json::U64(o.seconds));
        put("trace", Json::Bool(o.traced()));
        put("correct", Json::Bool(correct));
        put("attempted", Json::U64(attempted));
        put("failed", Json::U64(failed));
        put(
            "failures",
            Json::Arr(bench.failures.iter().cloned().map(Json::Str).collect()),
        );
        let all: Vec<(&'static str, f64)> = e2e.iter().chain(&layers).copied().collect();
        put("metrics", metrics_json(&all));
        let (pass_s, pass_kernel_s): (Vec<f64>, Vec<f64>) = passes.iter().copied().unzip();
        put("setup_pass_seconds", numbers(&pass_s));
        put("setup_pass_kernel_seconds", numbers(&pass_kernel_s));
        put("unit_seconds", numbers(&unit_s));
        put(
            "unit_runs",
            Json::Arr(unit_runs.iter().copied().map(Json::U64).collect()),
        );
        put("unit_host_speed", numbers(&unit_speed));
        put(
            "unit_digests",
            Json::Arr(
                digests
                    .iter()
                    .map(|d| {
                        let bytes: Vec<u8> = d.iter().flat_map(|x| x.to_le_bytes()).collect();
                        let unit = chats_runner::hash::fnv1a_64(&bytes);
                        Json::Str(format!("{unit:016x}"))
                    })
                    .collect(),
            ),
        );
        if let Some(r) = reference {
            put("chats_time_reduction", Json::F64(r));
            put(
                "paper_chats_time_reduction",
                Json::F64(PAPER_CHATS_TIME_REDUCTION),
            );
        }
        put("provenance", provenance());
        fs::write(path, Json::Obj(doc).to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }

    let mut line = BTreeMap::new();
    line.insert("correct".to_string(), Json::Bool(correct));
    line.insert("attempted".to_string(), Json::U64(attempted));
    line.insert("failed".to_string(), Json::U64(failed));
    line.insert(
        "metrics".to_string(),
        metrics_json(if o.traced() { &layers } else { &e2e }),
    );
    println!("{}", Json::Obj(line).to_compact());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `setup_s` from the run's set-up passes, each a (set-up seconds, set-up
/// kernel seconds) pair: the median of [`SETUP_GROUPS`] set-ups. Set-up
/// `g` takes passes `g`, `g + SETUP_GROUPS`, ..., which span the whole
/// run. It reads its fastest pass, scaled by the fastest kernel sample of
/// those passes against [`host::SETUP_REFERENCE_S`].
///
/// On the reference host other tenants slow set-up 1.5-1.8x, in
/// stretches from a fraction of a second to about a minute. A plain
/// median of nine set-ups moved by 28% between two sets of ten runs. The
/// fastest of many passes still finds the quiet moments inside a loaded
/// stretch. In a minute-long stretch even the fastest pass slows, and the
/// fastest kernel sample slows with it: over four minutes, the fastest
/// set-up of each ten seconds ranged 1.2x, its ratio to the fastest
/// kernel sample 1.07x.
fn setup_s(passes: &[(f64, f64)]) -> f64 {
    let setups: Vec<f64> = (0..SETUP_GROUPS)
        .map(|g| {
            let (setup, kernel) = passes
                .iter()
                .skip(g)
                .step_by(SETUP_GROUPS)
                .fold((f64::INFINITY, f64::INFINITY), |(s, k), &(ps, pk)| {
                    (s.min(ps), k.min(pk))
                });
            setup * host::SETUP_REFERENCE_S / kernel
        })
        .collect();
    metrics::median(&setups)
}

/// `first-last` of the unit seeds a run of `units` units used.
fn unit_seed_range(seed: u64, units: u32) -> String {
    let first = workload::unit_seed(seed, 0);
    let last = workload::unit_seed(seed, units.saturating_sub(1));
    format!("{first}-{last}")
}

fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["seed", "seconds", "trace", "out"])?;
    let o = Options::parse(&f)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = f.get("out").map(PathBuf::from);
    for dir in out.iter().chain(o.trace.iter().flatten()) {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let started = Instant::now();
    let mut failed = Vec::new();
    // One child process per workload, one after another: each gets its
    // own peak RSS, and only one of them loads the host at a time.
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name()])
            .arg("--seed")
            .arg(o.seed.to_string())
            .arg("--seconds")
            .arg(o.seconds.to_string());
        match &o.trace {
            None => {}
            Some(None) => {
                cmd.args(["--trace", "1"]);
            }
            Some(Some(dir)) => {
                cmd.arg("--trace")
                    .arg(dir.join(format!("{}.spans.jsonl", w.name())));
            }
        }
        if let Some(dir) = &out {
            cmd.arg("--out").arg(dir.join(format!("{}.json", w.name())));
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        if !status.success() {
            failed.push(w.name());
        }
    }
    println!(
        "all: {} workloads in {:.1} s; {}",
        Workload::ALL.len(),
        started.elapsed().as_secs_f64(),
        if failed.is_empty() {
            "all correct".to_string()
        } else {
            format!("failed: {}", failed.join(", "))
        }
    );
    Ok(if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_s_is_the_median_of_the_groups_fastest_scaled_passes() {
        let r = host::SETUP_REFERENCE_S;
        // Groups take passes 0, 3, 6 / 1, 4, 7 / 2, 5, 8. The fastest set-up
        // and the fastest kernel sample of a group need not share a pass.
        let passes = [
            (0.010, r),
            (0.050, 2.0 * r),
            (0.030, r),
            (0.020, r),
            (0.040, r),
            (0.060, 2.0 * r),
            (0.015, 0.5 * r),
            (0.090, 4.0 * r),
            (0.080, 2.0 * r),
        ];
        // Group set-ups: 0.010 / 0.5 = 0.020, 0.040 / 1 = 0.040, 0.030 / 1.
        assert!((setup_s(&passes) - 0.030).abs() < 1e-12);
        // A uniformly slower host leaves it unchanged.
        let slow: Vec<(f64, f64)> = passes.iter().map(|&(s, k)| (1.7 * s, 1.7 * k)).collect();
        assert!((setup_s(&slow) - 0.030).abs() < 1e-12);
    }
}
