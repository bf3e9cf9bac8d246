//! `chats-dissect`: the divergence-dissection command line.
//!
//! ```text
//! chats-dissect --workload W --system S [--smoke] [--interval N]
//!               [--threads N] [--seed X] [--max-cycles N]
//!               [--seed-b Y] [--faults-a PLAN] [--faults-b PLAN]
//!               [--report FILE] [--assert-fault-match]
//! ```
//!
//! Runs side A and side B of the named workload with epoch commitments
//! armed, brackets the first divergent epoch by diffing the commitment
//! chains, then replays that one epoch in lockstep to pin the exact
//! first divergent event. Exits 0 when the sides are identical, 1 when
//! they diverge (the expected outcome for a deliberate A/B experiment
//! is selected with `--assert-fault-match`, which instead exits 0 iff
//! the pinned event is the first fault injection on side B).

use chats_check::{dissect, DissectOutcome, DissectRequest, DissectSide, FaultPlan};
use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::DEFAULT_COMMIT_INTERVAL;
use chats_workloads::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: chats-dissect --workload W [options]

options:
  --workload W              registry name of the workload (required)
  --system S                HTM system: baseline, naive-rs, chats, power,
                            pchats, levc (default chats)
  --smoke                   4-core quick-test machine (default: paper scale)
  --interval N              epoch-commitment interval in cycles (default 4096)
  --threads N               thread count override
  --seed X                  side A (and default side B) seed
  --max-cycles N            cycle budget override
  --seed-b Y                side B seed (default: side A's)
  --faults-a PLAN           fault plan on side A (name or JSON path)
  --faults-b PLAN           fault plan on side B (name or JSON path)
  --report FILE             write the JSON dissection report to FILE
  --assert-fault-match      exit 0 iff the pinned first-divergent event is
                            side B's first fault injection (CI mode)
  --quiet                   suppress the human-readable summary

exit status: 0 identical (or asserted match), 1 diverged (or failed
assertion), 2 usage/configuration error";

struct Args {
    workload: Option<String>,
    system: String,
    smoke: bool,
    interval: u64,
    threads: Option<usize>,
    seed: Option<u64>,
    max_cycles: Option<u64>,
    seed_b: Option<u64>,
    faults_a: Option<String>,
    faults_b: Option<String>,
    report: Option<PathBuf>,
    assert_fault_match: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        system: "chats".to_string(),
        smoke: false,
        interval: DEFAULT_COMMIT_INTERVAL,
        threads: None,
        seed: None,
        max_cycles: None,
        seed_b: None,
        faults_a: None,
        faults_b: None,
        report: None,
        assert_fault_match: false,
        quiet: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--system" => args.system = value("--system")?,
            "--smoke" => args.smoke = true,
            "--interval" => args.interval = parse_num(&value("--interval")?, "--interval")?,
            "--threads" => args.threads = Some(parse_num(&value("--threads")?, "--threads")?),
            "--seed" => args.seed = Some(parse_num(&value("--seed")?, "--seed")?),
            "--max-cycles" => {
                args.max_cycles = Some(parse_num(&value("--max-cycles")?, "--max-cycles")?);
            }
            "--seed-b" => args.seed_b = Some(parse_num(&value("--seed-b")?, "--seed-b")?),
            "--faults-a" => args.faults_a = Some(value("--faults-a")?),
            "--faults-b" => args.faults_b = Some(value("--faults-b")?),
            "--report" => args.report = Some(PathBuf::from(value("--report")?)),
            "--assert-fault-match" => args.assert_fault_match = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            s => return Err(format!("unexpected argument '{s}'")),
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: invalid number '{text}'"))
}

/// Resolves a fault-plan spec: a shipped plan name first, else a path.
fn resolve_plan(spec: &str) -> Result<FaultPlan, String> {
    if let Some(plan) = FaultPlan::shipped().into_iter().find(|p| p.name == spec) {
        return Ok(plan);
    }
    FaultPlan::load(std::path::Path::new(spec))
}

fn build_request(args: &Args) -> Result<DissectRequest, String> {
    let workload = args
        .workload
        .clone()
        .ok_or("--workload is required".to_string())?;
    let policy = PolicyConfig::for_system(args.system.parse::<HtmSystem>()?);
    let mut base = if args.smoke {
        RunConfig::quick_test()
    } else {
        RunConfig::paper()
    };
    if let Some(t) = args.threads {
        base.threads = t;
    }
    if let Some(s) = args.seed {
        base.seed = s;
    }
    if let Some(c) = args.max_cycles {
        base.max_cycles = c;
    }
    let mut cfg_a = base.clone();
    if let Some(spec) = &args.faults_a {
        cfg_a.faults = Some(resolve_plan(spec)?);
    }
    let mut cfg_b = base;
    if let Some(s) = args.seed_b {
        cfg_b.seed = s;
    }
    if let Some(spec) = &args.faults_b {
        cfg_b.faults = Some(resolve_plan(spec)?);
    }
    Ok(DissectRequest {
        workload,
        policy,
        interval: args.interval,
        a: DissectSide {
            label: "a".to_string(),
            config: cfg_a,
        },
        b: DissectSide {
            label: "b".to_string(),
            config: cfg_b,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chats-dissect: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let request = match build_request(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chats-dissect: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match dissect(&request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chats-dissect: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.report {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, report.to_json().to_pretty()) {
            eprintln!("chats-dissect: could not write report: {e}");
            return ExitCode::from(2);
        }
        if !args.quiet {
            println!("report: {}", path.display());
        }
    }
    match &report.outcome {
        DissectOutcome::Identical { epochs } => {
            if !args.quiet {
                println!(
                    "identical: {} epochs agree ({} vs {}, status a={} b={})",
                    epochs, report.epochs_a, report.epochs_b, report.status_a, report.status_b
                );
            }
            if args.assert_fault_match {
                eprintln!("chats-dissect: --assert-fault-match expected a divergence, got none");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        DissectOutcome::Diverged(d) => {
            if !args.quiet {
                println!(
                    "diverged: chains agree through {} epoch(s); first divergent epoch is \
                     cycles {}..{}",
                    d.agreeing_epochs, d.epoch_start, d.epoch_end
                );
                match &d.event {
                    Some(ev) => println!(
                        "first divergent event: {ev}\n({} events replayed to pin it)",
                        d.events_replayed
                    ),
                    None => println!(
                        "no single event pinned after {} replayed events (the sides \
                         differ only in run length)",
                        d.events_replayed
                    ),
                }
            }
            if args.assert_fault_match {
                let matched = d.event.as_ref().is_some_and(|ev| ev.fault_injected_here);
                if matched {
                    if !args.quiet {
                        println!("assert-fault-match: pinned event is the first fault injection");
                    }
                    return ExitCode::SUCCESS;
                }
                eprintln!(
                    "chats-dissect: --assert-fault-match: the pinned event is NOT the first \
                     fault injection"
                );
            }
            ExitCode::FAILURE
        }
    }
}
