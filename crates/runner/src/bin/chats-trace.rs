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

use chats_obs::{chrome_trace, read_jsonl, text_report_with_regions, JsonlSink, Timeline};
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

/// One validated command line: every required input is present, so
/// what fails after parsing is the run or the files, never the input.
enum Command {
    Record {
        job: Box<JobSpec>,
        out: PathBuf,
    },
    Report {
        trace: PathBuf,
        cycles: Option<u64>,
        strict: bool,
    },
    Export {
        trace: PathBuf,
        out: PathBuf,
        cycles: Option<u64>,
    },
}

fn parse_args() -> Result<Command, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let (mut label, mut smoke, mut strict) = (None, false, false);
    let (mut out, mut trace, mut cycles) = (None, None, None);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--cycles" => {
                let text = value("--cycles")?;
                let n = text
                    .parse()
                    .map_err(|_| format!("--cycles: invalid number '{text}'"))?;
                cycles = Some(n);
            }
            "--strict" => strict = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            s if s.starts_with('-') || label.is_some() || command != "record" => {
                return Err(format!("unknown argument '{s}'"));
            }
            s => label = Some(s.to_string()),
        }
    }
    let need =
        |path: Option<PathBuf>, flag: &str| path.ok_or_else(|| format!("{command} needs {flag}"));
    match command.as_str() {
        "record" => {
            let label = label.ok_or("record needs a job label")?;
            let scale = if smoke { Scale::Quick } else { Scale::Paper };
            Ok(Command::Record {
                job: Box::new(JobSpec::from_label(&label, scale)?),
                out: need(out, "--out")?,
            })
        }
        "report" => Ok(Command::Report {
            trace: need(trace, "--trace")?,
            cycles,
            strict,
        }),
        "export" => Ok(Command::Export {
            trace: need(trace, "--trace")?,
            out: need(out, "--out")?,
            cycles,
        }),
        "--help" | "-h" => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// A command that failed past the command line: a malformed trace file
/// is bad input (exit 2), a failed run or unreadable file exits 1.
struct Failure {
    code: u8,
    message: String,
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure { code: 1, message }
    }
}

/// Bad input exits 2 (a bad command line also prints the usage text); a
/// run or file that fails exits 1.
fn main() -> ExitCode {
    let command = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("chats-trace: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::Record { job, out } => cmd_record(&job, &out),
        Command::Report {
            trace,
            cycles,
            strict,
        } => cmd_report(&trace, cycles, strict),
        Command::Export { trace, out, cycles } => cmd_export(&trace, &out, cycles),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure { code, message }) => {
            eprintln!("chats-trace: {message}");
            ExitCode::from(code)
        }
    }
}

/// `<out>.meta.json` next to the trace file.
fn meta_path(trace: &Path) -> PathBuf {
    let mut name = trace.file_name().unwrap_or_default().to_os_string();
    name.push(".meta.json");
    trace.with_file_name(name)
}

fn cmd_record(job: &JobSpec, out: &Path) -> Result<(), Failure> {
    let sink =
        JsonlSink::create(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let (stats, sink) = job
        .execute_traced(Box::new(sink))
        .map_err(|fail| Failure::from(fail.message))?;
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
            ("cycles".to_string(), Value::U64(stats.cycles)),
            ("commits".to_string(), Value::U64(stats.commits)),
            ("aborts".to_string(), Value::U64(stats.total_aborts())),
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
        stats.cycles,
        stats.commits,
        out.display(),
        mp.display()
    );
    Ok(())
}

/// Loads a trace and resolves its total-cycle horizon: explicit flag,
/// then meta sidecar, then the last event timestamp. The sidecar also
/// gives the workload name and the recorder's dropped-event counter
/// (empty and 0 when no sidecar exists).
fn load_timeline(path: &Path, cycles: Option<u64>) -> Result<(Timeline, String, u64), Failure> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let log = read_jsonl(std::io::BufReader::new(file)).map_err(|e| Failure {
        code: 2,
        message: format!("{}: {e}", path.display()),
    })?;
    let mut workload = String::new();
    let mut cycles = cycles;
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
        log.iter()
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
    Ok((Timeline::rebuild(&log, horizon), workload, dropped))
}

fn cmd_report(trace: &Path, cycles: Option<u64>, strict: bool) -> Result<(), Failure> {
    let (tl, workload, dropped) = load_timeline(trace, cycles)?;
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
        if strict {
            return Err(format!("--strict: {dropped} dropped event(s)").into());
        }
    }
    Ok(())
}

fn cmd_export(trace: &Path, out: &Path, cycles: Option<u64>) -> Result<(), Failure> {
    let (tl, _, _) = load_timeline(trace, cycles)?;
    let v = chrome_trace(&tl);
    std::fs::write(out, v.to_compact()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "exported {} slices across {} cores -> {} (load at https://ui.perfetto.dev)",
        tl.cores.iter().map(|c| c.attempts().len()).sum::<usize>(),
        tl.cores.len(),
        out.display()
    );
    Ok(())
}
