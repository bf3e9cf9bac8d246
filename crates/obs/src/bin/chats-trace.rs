//! `chats-trace`: record, inspect and export protocol traces.
//!
//! ```text
//! chats-trace record --workload W [--system S] [--threads N] [--seed N]
//!                    [--paper] [--faults PLAN] --out trace.jsonl
//! chats-trace report --trace trace.jsonl [--cycles N]
//! chats-trace export --trace trace.jsonl --out trace.json [--cycles N]
//! ```
//!
//! `record` runs one workload with a streaming JSONL sink and writes a
//! `<out>.meta.json` sidecar carrying the run identity and total cycles.
//! `report` prints the cycle-accounting table; `export` writes a
//! Chrome-trace JSON loadable in Perfetto (see EXPERIMENTS.md).

use chats_core::{HtmSystem, PolicyConfig};
use chats_obs::{
    chrome_trace, read_jsonl_file, text_report_with_regions, JsonlSink, ProfileMeta, Timeline,
};
use chats_workloads::{registry, run_workload_traced, FaultPlan, RunConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: chats-trace <command> [args]

commands:
  record   run one workload with a streaming trace sink
  report   print the cycle-accounting report for a recorded trace
  export   write a Chrome-trace/Perfetto JSON for a recorded trace

options (record):
  --workload W         registry name (e.g. cadd, kmeans-h); required
  --system S           baseline|naive-rs|chats|power|pchats|levc (default chats)
  --threads N          thread count (default: machine core count)
  --seed N             root seed (default 0xC4A75)
  --paper              16-core paper configuration (default: 4-core quick test)
  --faults PLAN        install a fault plan: a shipped name (lossy-noc,
                       abort-storm, validation-stress) or a JSON file
  --out PATH           trace output path (JSON lines); required

options (report/export):
  --trace PATH         recorded trace (required)
  --cycles N           total-cycle horizon override (default: the
                       <trace>.meta.json sidecar, else the last event time)
  --strict             (report) exit nonzero when the recording sink
                       dropped events — the trace is incomplete
  --out PATH           export target (required for export)";

struct Args {
    command: String,
    workload: Option<String>,
    system: HtmSystem,
    threads: Option<usize>,
    seed: Option<u64>,
    paper: bool,
    faults: Option<String>,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    cycles: Option<u64>,
    strict: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        workload: None,
        system: HtmSystem::Chats,
        threads: None,
        seed: None,
        paper: false,
        faults: None,
        out: None,
        trace: None,
        cycles: None,
        strict: false,
    };
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--system" => args.system = value("--system")?.parse()?,
            "--threads" => args.threads = Some(parse_num(&value("--threads")?, "--threads")?),
            "--seed" => args.seed = Some(parse_num(&value("--seed")?, "--seed")?),
            "--paper" => args.paper = true,
            "--faults" => args.faults = Some(value("--faults")?),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            "--cycles" => args.cycles = Some(parse_num(&value("--cycles")?, "--cycles")?),
            "--strict" => args.strict = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            s => return Err(format!("unknown argument '{s}'")),
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: invalid number '{text}'"))
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
    let name = args.workload.as_deref().ok_or("record needs --workload")?;
    let out = args.out.as_deref().ok_or("record needs --out")?;
    let workload = registry::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let mut cfg = if args.paper {
        RunConfig::paper()
    } else {
        RunConfig::quick_test()
    };
    if let Some(t) = args.threads {
        cfg.threads = t;
    }
    if let Some(s) = args.seed {
        cfg.seed = s;
    }
    if let Some(spec) = &args.faults {
        let plan = FaultPlan::shipped()
            .into_iter()
            .find(|p| &p.name == spec)
            .map_or_else(|| FaultPlan::load(Path::new(spec)), Ok)?;
        cfg = cfg.with_faults(plan);
    }
    let policy = PolicyConfig::for_system(args.system);
    let sink =
        JsonlSink::create(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let (run, sink) = run_workload_traced(workload.as_ref(), policy, &cfg, Box::new(sink))?;
    let dropped = sink.dropped();
    if dropped > 0 {
        eprintln!("chats-trace: warning: {dropped} events dropped (write errors)");
    }

    let meta = Value::Obj(
        [
            ("workload".to_string(), Value::Str(name.to_string())),
            (
                "system".to_string(),
                Value::Str(args.system.label().to_string()),
            ),
            ("threads".to_string(), Value::U64(cfg.threads as u64)),
            ("seed".to_string(), Value::U64(cfg.seed)),
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
        "recorded {name} under {} for {} cycles ({} commits) -> {} (+ {})",
        args.system.label(),
        run.stats.cycles,
        run.stats.commits,
        out.display(),
        mp.display()
    );
    Ok(())
}

/// Loads a trace and resolves its total-cycle horizon: explicit flag,
/// then meta sidecar, then the last event timestamp. The third element
/// is the recorder's dropped-event counter from the sidecar (0 when no
/// sidecar exists).
fn load_timeline(args: &Args) -> Result<(Timeline, ProfileMeta, u64), String> {
    let path = args.trace.as_deref().ok_or("missing --trace")?;
    let events = read_jsonl_file(path)?;
    let mut meta = ProfileMeta::default();
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
                meta.workload = w.to_string();
            }
            if let Some(s) = m.get("system").and_then(Value::as_str) {
                meta.system = s.to_string();
            }
            meta.threads = m.get("threads").and_then(Value::as_u64).unwrap_or(0) as usize;
            meta.seed = m.get("seed").and_then(Value::as_u64).unwrap_or(0);
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
    Ok((Timeline::rebuild(&events, horizon), meta, dropped))
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let (tl, meta, dropped) = load_timeline(args)?;
    // The meta sidecar names the workload; its memory map (when it has
    // one — the evm family does) attributes hot lines to contract
    // regions in the report.
    let regions = registry::by_name(&meta.workload)
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
