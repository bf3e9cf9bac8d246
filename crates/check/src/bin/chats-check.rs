//! `chats-check`: the schedule-exploration command line.
//!
//! ```text
//! chats-check list   [--smoke]
//! chats-check explore [--smoke] [--walks N] [--flips N] [--no-attacks]
//!                     [--faults PLAN] [--filter S]
//!                     [--failures-dir D] [--out D] [--quiet]
//! chats-check replay FILE [--force]
//! ```
//!
//! `explore` sweeps adversarial schedules over the scenario suite and
//! writes a deterministic JSON manifest under `target/chats-check/`; it
//! exits nonzero iff a failure was found (each failure also leaves a
//! replayable reproducer under `target/chats-failures/`). `replay`
//! re-executes a saved reproducer and exits zero iff the recorded failure
//! reproduces.

use chats_check::{
    apply_fault_plan, default_failures_dir, explore, full_scenarios, smoke_scenarios,
    ExploreBudget, FaultPlan, Outcome, Reproducer, Scenario,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: chats-check <command> [args]

commands:
  list                      show the scenario suite
  explore                   sweep adversarial schedules over the suite
  replay FILE               re-execute a saved reproducer

options:
  --force                   replay even when the reproducer's spec or
                            build commitment no longer matches
  --smoke                   small suite and CI-sized budget (deterministic)
  --walks N                 random-walk schedules per scenario
  --flips N                 single-decision perturbations per scenario
  --no-attacks              skip the targeted attack schedules
  --faults PLAN             install the fault plan on every scenario (the
                            oracles must hold under faults too): a shipped
                            name (lossy-noc, abort-storm,
                            validation-stress) or a JSON plan file
  --filter S                keep scenarios whose name contains S
  --failures-dir D          reproducer directory (default target/chats-failures)
  --out D                   manifest directory (default target/chats-check)
  --quiet                   no per-scenario progress lines";

struct Args {
    command: String,
    file: Option<PathBuf>,
    smoke: bool,
    walks: Option<usize>,
    flips: Option<usize>,
    no_attacks: bool,
    faults: Option<String>,
    filter: Option<String>,
    failures_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    force: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        file: None,
        smoke: false,
        walks: None,
        flips: None,
        no_attacks: false,
        faults: None,
        filter: None,
        failures_dir: None,
        out: None,
        force: false,
        quiet: false,
    };
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--walks" => args.walks = Some(parse_num(&value("--walks")?, "--walks")?),
            "--flips" => args.flips = Some(parse_num(&value("--flips")?, "--flips")?),
            "--no-attacks" => args.no_attacks = true,
            "--faults" => args.faults = Some(value("--faults")?),
            "--filter" => args.filter = Some(value("--filter")?),
            "--failures-dir" => args.failures_dir = Some(PathBuf::from(value("--failures-dir")?)),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--force" => args.force = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            s if s.starts_with('-') => return Err(format!("unknown option '{s}'")),
            s => {
                if args.file.is_some() {
                    return Err(format!("unexpected argument '{s}'"));
                }
                args.file = Some(PathBuf::from(s));
            }
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: invalid number '{text}'"))
}

/// Builds the scenario suite; returns it with the resolved fault plan,
/// if any, so callers can name outputs after the plan.
fn suite(args: &Args) -> Result<(Vec<Scenario>, Option<FaultPlan>), String> {
    let mut scenarios = if args.smoke {
        smoke_scenarios()
    } else {
        full_scenarios()
    };
    if let Some(needle) = &args.filter {
        scenarios.retain(|s| s.name.contains(needle.as_str()));
    }
    let plan = match &args.faults {
        Some(spec) => {
            let plan = FaultPlan::resolve(spec)?;
            apply_fault_plan(&mut scenarios, &plan);
            Some(plan)
        }
        None => None,
    };
    Ok((scenarios, plan))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chats-check: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "list" => cmd_list(&args),
        "explore" => cmd_explore(&args),
        "replay" => cmd_replay(&args),
        other => {
            eprintln!("chats-check: unknown command '{other}'\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_list(args: &Args) -> ExitCode {
    let (scenarios, _) = match suite(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chats-check: {e}");
            return ExitCode::from(2);
        }
    };
    for s in &scenarios {
        println!(
            "{:<24} {:<10} threads={} seed={} {}",
            s.name,
            chats_check::scenario::system_key(s.system),
            s.threads,
            s.seed,
            s.program.to_json().to_compact()
        );
    }
    println!(
        "{} scenarios in the {} suite",
        scenarios.len(),
        if args.smoke { "smoke" } else { "full" }
    );
    ExitCode::SUCCESS
}

fn cmd_explore(args: &Args) -> ExitCode {
    let (scenarios, plan) = match suite(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chats-check: {e}");
            return ExitCode::from(2);
        }
    };
    if scenarios.is_empty() {
        eprintln!("chats-check: no scenarios match");
        return ExitCode::from(2);
    }
    let defaults = if args.smoke {
        ExploreBudget::smoke()
    } else {
        ExploreBudget::full()
    };
    let budget = ExploreBudget {
        walks: args.walks.unwrap_or(defaults.walks),
        flips: args.flips.unwrap_or(defaults.flips),
        attacks: !args.no_attacks && defaults.attacks,
    };
    let failures_dir = args
        .failures_dir
        .clone()
        .unwrap_or_else(default_failures_dir);
    let report = explore(&scenarios, &budget, Some(&failures_dir), args.quiet);

    let out_dir = args.out.clone().unwrap_or_else(default_out_dir);
    let mut manifest_name = if args.smoke {
        "explore-smoke".to_string()
    } else {
        "explore-full".to_string()
    };
    if let Some(p) = &plan {
        manifest_name.push_str(&format!("-{}", p.name));
    }
    manifest_name.push_str(".json");
    let manifest_path = out_dir.join(&manifest_name);
    let manifest = report.to_json(&budget).to_pretty();
    if let Err(e) =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&manifest_path, &manifest))
    {
        eprintln!("chats-check: could not write manifest: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{} scenarios, {} runs, {} failures",
        report.scenarios.len(),
        report.total_runs(),
        report.failures()
    );
    println!("manifest: {}", manifest_path.display());
    for s in &report.scenarios {
        if let Some(f) = &s.failure {
            match &f.repro_path {
                Some(p) => eprintln!("chats-check: {}: reproducer {}", s.name, p.display()),
                None => eprintln!("chats-check: {}: failure (no reproducer saved)", s.name),
            }
        }
    }
    if report.failures() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_replay(args: &Args) -> ExitCode {
    let Some(path) = &args.file else {
        eprintln!("chats-check: replay needs a reproducer file\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let repro = match Reproducer::load(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chats-check: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = repro.verify_commitments() {
        if args.force {
            eprintln!("chats-check: warning: {e} (replaying anyway under --force)");
        } else {
            eprintln!("chats-check: refusing to replay: {e}");
            eprintln!("chats-check: pass --force to replay against the drifted build/spec anyway");
            return ExitCode::from(2);
        }
    }
    println!(
        "replaying {} ({} decisions, expecting {})",
        repro.scenario.name,
        repro.prefix.len(),
        repro.kind.as_str()
    );
    if !repro.note.is_empty() {
        println!("note: {}", repro.note);
    }
    let (result, reproduced) = repro.replay();
    match &result.outcome {
        Outcome::Pass => println!("outcome: pass"),
        Outcome::Fail(kind) => println!("outcome: {}", kind.as_str()),
        Outcome::Inconclusive(why) => println!("outcome: inconclusive ({why})"),
    }
    if !result.detail.is_empty() {
        println!("{}", result.detail);
    }
    if reproduced {
        println!("reproduced");
        ExitCode::SUCCESS
    } else {
        eprintln!("chats-check: failure did NOT reproduce");
        ExitCode::FAILURE
    }
}

fn default_out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("chats-check")
}
