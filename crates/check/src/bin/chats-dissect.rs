//! `chats-dissect`: the divergence-dissection command line.
//!
//! ```text
//! chats-dissect LABEL_A [LABEL_B] [--smoke] [--interval N]
//!               [--report FILE] [--assert-fault-match] [--quiet]
//! ```
//!
//! Runs the two jobs named by the labels (see `JobSpec::from_label`;
//! B defaults to A) with epoch commitments armed, brackets the first
//! divergent epoch by diffing the commitment chains, then replays that
//! one epoch in lockstep to pin the exact first divergent event. Exits 0
//! when the sides are identical, 1 when they diverge (the expected
//! outcome for a deliberate A/B experiment is selected with
//! `--assert-fault-match`, which instead exits 0 iff the pinned event is
//! the first fault injection on side B).

use chats_check::{dissect, DissectOutcome, DissectRequest};
use chats_machine::DEFAULT_COMMIT_INTERVAL;
use chats_runner::{JobSpec, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: chats-dissect LABEL_A [LABEL_B] [options]

Dissects job A against job B (default: A again, the identical-pair
check). A label is WORKLOAD/SYSTEM with optional :rN :vsbN :ivN :fs-SET
:picN :no-overtake :single-link :tN :faults-NAME suffixes, as
`chats-run list` prints them, e.g. cadd/chats:faults-lossy-noc.

options:
  --smoke                   4-core quick-test machine (default: paper scale)
  --interval N              epoch-commitment interval in cycles (default 4096)
  --report FILE             write the JSON dissection report to FILE
  --assert-fault-match      exit 0 iff the pinned first-divergent event is
                            side B's first fault injection (CI mode)
  --quiet                   suppress the human-readable summary

exit status: 0 identical (or asserted match), 1 diverged (or failed
assertion), 2 usage/configuration error";

struct Args {
    labels: Vec<String>,
    smoke: bool,
    interval: u64,
    report: Option<PathBuf>,
    assert_fault_match: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        labels: Vec::new(),
        smoke: false,
        interval: DEFAULT_COMMIT_INTERVAL,
        report: None,
        assert_fault_match: false,
        quiet: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--interval" => {
                let text = value("--interval")?;
                args.interval = text
                    .parse()
                    .map_err(|_| format!("--interval: invalid number '{text}'"))?;
            }
            "--report" => args.report = Some(PathBuf::from(value("--report")?)),
            "--assert-fault-match" => args.assert_fault_match = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            s if s.starts_with('-') => return Err(format!("unexpected argument '{s}'")),
            s => args.labels.push(s.to_string()),
        }
    }
    Ok(args)
}

fn build_request(args: &Args) -> Result<DissectRequest, String> {
    let scale = if args.smoke {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let (a, b) = match args.labels.as_slice() {
        [a] => (a, a),
        [a, b] => (a, b),
        [] => return Err("missing job label".to_string()),
        _ => return Err("at most two job labels".to_string()),
    };
    Ok(DissectRequest {
        interval: args.interval,
        a: JobSpec::from_label(a, scale)?,
        b: JobSpec::from_label(b, scale)?,
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
