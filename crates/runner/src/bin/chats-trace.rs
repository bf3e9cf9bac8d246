//! `chats-trace`: record, inspect and export protocol traces.
//!
//! ```text
//! chats-trace record LABEL [--smoke] --out trace.jsonl
//! chats-trace report --trace trace.jsonl [--cycles N] [--strict]
//! chats-trace export --trace trace.jsonl --out trace.json [--cycles N]
//! ```
//!
//! `record` runs the job named by a label (see `JobSpec::from_label`)
//! with a streaming JSONL sink and writes a `<out>.meta.json` sidecar
//! carrying the run identity and total cycles. `report` prints the
//! cycle-accounting table; `export` writes a Chrome-trace JSON loadable
//! in Perfetto (see EXPERIMENTS.md).

use chats_obs::{chrome_trace, read_jsonl_file, text_report_with_regions, JsonlSink, Timeline};
use chats_runner::{JobSpec, Scale};
use chats_workloads::registry;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: chats-trace <command> [args]

commands:
  record LABEL   run one job with a streaming trace sink
  report         print the cycle-accounting report for a recorded trace
  export         write a Chrome-trace/Perfetto JSON for a recorded trace

options (record):
  --smoke              4-core quick-test machine (default: paper scale)
  --out PATH           trace output path (JSON lines); required

options (report/export):
  --trace PATH         recorded trace (required)
  --cycles N           total-cycle horizon override (default: the
                       <trace>.meta.json sidecar, else the last event time)
  --strict             (report) exit nonzero when the recording sink
                       dropped events — the trace is incomplete
  --out PATH           export target (required for export)

labels: WORKLOAD/SYSTEM with optional :rN :vsbN :ivN :fs-SET :picN
        :no-overtake :single-link :tN :faults-NAME suffixes, as
        `chats-run list` prints them, e.g. cadd/chats:faults-lossy-noc";

struct Args {
    command: String,
    /// The `record` job, resolved from its label.
    job: Option<JobSpec>,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    cycles: Option<u64>,
    strict: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let (mut label, mut smoke) = (None, false);
    let mut args = Args {
        command,
        job: None,
        out: None,
        trace: None,
        cycles: None,
        strict: false,
    };
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            "--cycles" => {
                let text = value("--cycles")?;
                let n = text
                    .parse()
                    .map_err(|_| format!("--cycles: invalid number '{text}'"))?;
                args.cycles = Some(n);
            }
            "--strict" => args.strict = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            s if s.starts_with('-') || label.is_some() => {
                return Err(format!("unknown argument '{s}'"));
            }
            s => label = Some(s.to_string()),
        }
    }
    let scale = if smoke { Scale::Quick } else { Scale::Paper };
    args.job = label.map(|l| JobSpec::from_label(&l, scale)).transpose()?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chats-trace: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "record" => cmd_record(&args),
        "report" => cmd_report(&args),
        "export" => cmd_export(&args),
        "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("chats-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `<out>.meta.json` next to the trace file.
fn meta_path(trace: &Path) -> PathBuf {
    let mut name = trace.file_name().unwrap_or_default().to_os_string();
    name.push(".meta.json");
    trace.with_file_name(name)
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let job = args.job.as_ref().ok_or("record needs a job label")?;
    let out = args.out.as_deref().ok_or("record needs --out")?;
    let sink =
        JsonlSink::create(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let (run, sink) = job.execute_traced(Box::new(sink))?;
    let dropped = sink.dropped();
    if dropped > 0 {
        eprintln!("chats-trace: warning: {dropped} events dropped (write errors)");
    }

    let meta = job.profile_meta();
    let meta = Value::Obj(
        [
            ("workload".to_string(), Value::Str(meta.workload)),
            ("system".to_string(), Value::Str(meta.system)),
            ("threads".to_string(), Value::U64(meta.threads as u64)),
            ("seed".to_string(), Value::U64(meta.seed)),
            ("cycles".to_string(), Value::U64(run.stats.cycles)),
            ("commits".to_string(), Value::U64(run.stats.commits)),
            ("aborts".to_string(), Value::U64(run.stats.total_aborts())),
            ("dropped_events".to_string(), Value::U64(dropped)),
        ]
        .into_iter()
        .collect(),
    );
    let mp = meta_path(out);
    std::fs::write(&mp, meta.to_compact()).map_err(|e| format!("{}: {e}", mp.display()))?;
    println!(
        "recorded {} for {} cycles ({} commits) -> {} (+ {})",
        job.label(),
        run.stats.cycles,
        run.stats.commits,
        out.display(),
        mp.display()
    );
    Ok(())
}

/// Loads a trace and resolves its total-cycle horizon: explicit flag,
/// then meta sidecar, then the last event timestamp. The sidecar also
/// gives the workload name and the recorder's dropped-event counter
/// (empty and 0 when no sidecar exists).
fn load_timeline(args: &Args) -> Result<(Timeline, String, u64), String> {
    let path = args.trace.as_deref().ok_or("missing --trace")?;
    let events = read_jsonl_file(path)?;
    let mut workload = String::new();
    let mut cycles = args.cycles;
    let mut dropped = 0;
    let mp = meta_path(path);
    if let Ok(text) = std::fs::read_to_string(&mp) {
        let v = Value::parse(&text).map_err(|e| format!("{}: {e}", mp.display()))?;
        if let Some(m) = v.as_obj() {
            if cycles.is_none() {
                cycles = m.get("cycles").and_then(Value::as_u64);
            }
            if let Some(w) = m.get("workload").and_then(Value::as_str) {
                workload = w.to_string();
            }
            dropped = m.get("dropped_events").and_then(Value::as_u64).unwrap_or(0);
        }
    }
    let horizon = cycles.unwrap_or_else(|| {
        events
            .iter()
            .map(|e| {
                // NoC arrivals may postdate the last core event.
                if let chats_machine::TraceEvent::NocSend { arrive, .. } = e {
                    arrive.0
                } else {
                    e.at().0
                }
            })
            .max()
            .unwrap_or(0)
    });
    Ok((Timeline::rebuild(&events, horizon), workload, dropped))
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let (tl, workload, dropped) = load_timeline(args)?;
    // The meta sidecar names the workload; its memory map (when it has
    // one — the evm family does) attributes hot lines to contract
    // regions in the report.
    let regions = registry::by_name(&workload)
        .map(|w| w.regions())
        .unwrap_or_default();
    print!("{}", text_report_with_regions(&tl, &regions));
    if dropped > 0 {
        eprintln!(
            "chats-trace: WARNING: the recording sink dropped {dropped} event(s); \
             this report is built from an INCOMPLETE trace"
        );
        if args.strict {
            return Err(format!("--strict: {dropped} dropped event(s)"));
        }
    }
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), String> {
    let out = args.out.as_deref().ok_or("export needs --out")?;
    let (tl, _, _) = load_timeline(args)?;
    let v = chrome_trace(&tl);
    std::fs::write(out, v.to_compact()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "exported {} slices across {} cores -> {} (load at https://ui.perfetto.dev)",
        tl.cores.iter().map(|c| c.attempts.len()).sum::<usize>(),
        tl.cores.len(),
        out.display()
    );
    Ok(())
}
