//! `chats-run`: the experiment-runner command line.
//!
//! ```text
//! chats-run list [SET|LABEL...] [--smoke] [--filter S] [--family F]
//! chats-run run  [SET|LABEL...] [--jobs N] [--filter S] [--family F] [--no-cache]
//!                [--smoke] [--verify-determinism] [--faults PLAN]
//!                [--checkpoint-every N] [--resume] [--cache-dir D]
//!                [--runs-dir D] [--profile LABEL] [--quiet]
//! chats-run clean [--cache-dir D] [--runs-dir D] [--runs]
//! ```
//!
//! `run` executes the named experiment sets and job labels (default:
//! `fig4 fig5`) on the worker pool, writes a JSON manifest under
//! `target/chats-runs/` and prints one row per job, the table of each
//! named figure (also saved as `<run-id>/<id>.csv` next to the manifest)
//! and a summary. A label such as `kmeans-h/chats:r8` names one job (see
//! `JobSpec::from_label`), so shell brace expansion builds ad-hoc grids:
//! `chats-run run kmeans-h/chats:r{1,2,4,8}`. `--smoke` switches to the
//! 4-core quick-test machine with the atomicity oracle armed.
//!
//! Each job runs once, inline on the pool worker that claims it. Its
//! simulated cycle budget is the only timeout, and a job that panics is
//! recorded as failed without a retry: a simulation is deterministic, so
//! a second run would end the same way.

use chats_obs::{profile_value, Timeline, VecSink};
use chats_runner::figures::{self, Cells};
use chats_runner::manifest::PROFILE_ARTIFACT;
use chats_runner::{
    default_cache_dir, default_runs_dir, experiments, jobs_table, summary_table, write_manifest,
    DiskCache, JobSet, Runner, RunnerConfig, Scale,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: chats-run <command> [args]

commands:
  list  [SET|LABEL...]      show the jobs of the named sets (default: all)
  run   [SET|LABEL...]      execute the named sets (default: fig4 fig5) and
                            print each named figure's table (`all`: every
                            table); a figure whose cells did not all run
                            is skipped
  clean                     delete the result cache (and, with --runs, manifests)

options (run):
  --jobs N                  worker threads (default: available parallelism)
  --filter S                keep only jobs whose label contains S
  --family F                keep only jobs of one workload family
                            (stamp, micro or evm); with no SET named,
                            selects from the union of every set
  --no-cache                ignore and do not write the disk cache
  --smoke                   quick-test scale: 4 cores, atomicity oracle on
  --verify-determinism      run every executed job twice, demand identical stats
  --faults PLAN             install the fault plan on every job (the plan
                            hash joins each job's cache identity): a
                            shipped name (lossy-noc, abort-storm,
                            validation-stress) or a JSON plan file
  --checkpoint-every N      pause every executed job each N simulated
                            cycles, snapshot it under
                            <cache-dir>/checkpoints/, and record its
                            epoch-commitment chain in the manifest
  --resume                  restore interrupted jobs from their last
                            checkpoint instead of restarting at cycle 0
                            (needs --checkpoint-every)
  --cache-dir D             cache directory (default target/chats-cache)
  --runs-dir D              manifest directory (default target/chats-runs)
  --profile LABEL           re-run the job matching LABEL with tracing and
                            attach its cycle-accounting profile to the
                            manifest (target/chats-runs/<id>/profile.json)
  --quiet                   no per-job progress lines

labels: one job each, as `list` prints them: WORKLOAD/SYSTEM with
        optional :rN :vsbN :ivN :fs-SET :picN :no-overtake :single-link
        :tN :faults-NAME suffixes, e.g. kmeans-h/chats:r8:vsb16
        (systems: baseline naive-rs chats power pchats levc)";

/// [`USAGE`] followed by the set ids, taken from the grids themselves.
fn usage() -> String {
    let sets: Vec<String> = experiments::available()
        .chunks(9)
        .map(|ids| ids.join(" "))
        .collect();
    format!("{USAGE}\n\nsets: {} all", sets.join("\n      "))
}

struct Args {
    command: String,
    sets: Vec<String>,
    jobs: Option<usize>,
    filter: Option<String>,
    family: Option<String>,
    no_cache: bool,
    smoke: bool,
    verify_determinism: bool,
    faults: Option<String>,
    checkpoint_every: Option<u64>,
    resume: bool,
    cache_dir: Option<PathBuf>,
    runs_dir: Option<PathBuf>,
    profile: Option<String>,
    quiet: bool,
    clean_runs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        sets: Vec::new(),
        jobs: None,
        filter: None,
        family: None,
        no_cache: false,
        smoke: false,
        verify_determinism: false,
        faults: None,
        checkpoint_every: None,
        resume: false,
        cache_dir: None,
        runs_dir: None,
        profile: None,
        quiet: false,
        clean_runs: false,
    };
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--jobs" => args.jobs = Some(parse_num(&value("--jobs")?, "--jobs")?),
            "--filter" => args.filter = Some(value("--filter")?),
            "--family" => args.family = Some(value("--family")?),
            "--no-cache" => args.no_cache = true,
            "--smoke" => args.smoke = true,
            "--faults" => args.faults = Some(value("--faults")?),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(parse_num(
                    &value("--checkpoint-every")?,
                    "--checkpoint-every",
                )?);
            }
            "--resume" => args.resume = true,
            "--verify-determinism" => args.verify_determinism = true,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--runs-dir" => args.runs_dir = Some(PathBuf::from(value("--runs-dir")?)),
            "--profile" => args.profile = Some(value("--profile")?),
            "--quiet" => args.quiet = true,
            "--runs" => args.clean_runs = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            s if s.starts_with('-') => return Err(format!("unknown option '{s}'")),
            s => args.sets.push(s.to_string()),
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
            eprintln!("chats-run: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke {
        Scale::Quick
    } else {
        Scale::Paper
    };
    match args.command.as_str() {
        "list" => cmd_list(&args, scale),
        "run" => cmd_run(&args, scale),
        "clean" => cmd_clean(&args),
        other => {
            eprintln!("chats-run: unknown command '{other}'\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn build_set(
    args: &Args,
    scale: Scale,
    default_sets: &[&str],
) -> Result<(chats_runner::JobSet, Vec<String>), String> {
    let ids: Vec<String> = if args.sets.is_empty() {
        // A bare `--family F` means "everything of that family", not
        // "that family's slice of fig4+fig5".
        if args.family.is_some() {
            vec!["all".to_string()]
        } else {
            default_sets.iter().map(|s| (*s).to_string()).collect()
        }
    } else {
        args.sets.clone()
    };
    let mut set = experiments::union(ids.iter().map(String::as_str), scale)?;
    if let Some(tag) = &args.family {
        set.retain_family(tag);
    }
    if let Some(needle) = &args.filter {
        set.retain_matching(needle);
    }
    if let Some(spec) = &args.faults {
        let plan = chats_workloads::FaultPlan::resolve(spec)?;
        set.apply_faults(&plan);
    }
    Ok((set, ids))
}

fn cmd_list(args: &Args, scale: Scale) -> ExitCode {
    let (set, ids) = match build_set(args, scale, &["all"]) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("chats-run: {e}");
            return ExitCode::from(2);
        }
    };
    for job in set.iter() {
        println!("{}  {}", job.id(), job.label());
    }
    println!(
        "{} unique jobs in {} at {} scale",
        set.len(),
        ids.join("+"),
        scale.label()
    );
    ExitCode::SUCCESS
}

fn cmd_run(args: &Args, scale: Scale) -> ExitCode {
    let (set, ids) = match build_set(args, scale, &["fig4", "fig5"]) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("chats-run: {e}");
            return ExitCode::from(2);
        }
    };
    // Only the configuration tables may run with no jobs at all.
    let tables_only = ids
        .iter()
        .all(|id| experiments::set(id, scale).is_some_and(|s| s.is_empty()));
    if set.is_empty() && !tables_only {
        eprintln!("chats-run: no jobs match");
        return ExitCode::from(2);
    }
    let cfg = RunnerConfig {
        jobs: args.jobs.unwrap_or_else(|| RunnerConfig::default().jobs),
        use_cache: !args.no_cache,
        cache_dir: args.cache_dir.clone().unwrap_or_else(default_cache_dir),
        verify_determinism: args.verify_determinism,
        checkpoint_every: args.checkpoint_every,
        resume: args.resume,
        quiet: args.quiet,
    };
    if cfg.resume && cfg.checkpoint_every.is_none() {
        eprintln!("chats-run: --resume needs --checkpoint-every");
        return ExitCode::from(2);
    }
    if cfg.checkpoint_every == Some(0) {
        eprintln!("chats-run: --checkpoint-every must be positive");
        return ExitCode::from(2);
    }
    if !cfg.quiet {
        eprintln!(
            "chats-run: {} jobs ({}, {} scale) on {} workers",
            set.len(),
            ids.join("+"),
            scale.label(),
            cfg.jobs.clamp(1, set.len().max(1))
        );
    }
    let runner = Runner::new(cfg);
    let report = runner.run_set(&set);
    println!("{}", jobs_table(&report, &set));
    let mut artifacts = Vec::new();
    let cells = Cells::new(scale, &report.results);
    let shown = ids.iter().flat_map(|id| match id.as_str() {
        "all" => experiments::available(),
        id => vec![id],
    });
    for id in shown {
        match figures::render(id, &cells) {
            Some(Ok(table)) => {
                println!("=== {id} ===");
                println!("{table}");
                artifacts.push((format!("{id}.csv"), table.to_csv()));
            }
            Some(Err(e)) => eprintln!("chats-run: {id}: table skipped, {e}"),
            None => {}
        }
    }
    println!("{}", summary_table(&report));
    if let Some(needle) = &args.profile {
        match build_profile(&set, needle) {
            Ok(json) => artifacts.push((PROFILE_ARTIFACT.to_string(), json)),
            Err(e) => {
                eprintln!("chats-run: profile: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let runs_dir = args.runs_dir.clone().unwrap_or_else(default_runs_dir);
    match write_manifest(&report, &ids, scale.label(), &runs_dir, &artifacts) {
        Ok(info) => {
            println!("manifest: {}", info.path.display());
            if let Some(p) = info
                .artifacts
                .iter()
                .find(|p| p.ends_with(PROFILE_ARTIFACT))
            {
                println!("profile:  {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("chats-run: could not write manifest: {e}");
            return ExitCode::FAILURE;
        }
    }
    for record in &report.records {
        if let Some(err) = record.outcome.error() {
            eprintln!(
                "chats-run: {}: {} ({err})",
                record.label,
                record.outcome.label()
            );
        }
    }
    if report.all_succeeded() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-runs the job whose label matches `needle` (exactly, else by
/// substring) with a trace sink attached and digests the timeline into
/// the `profile.json` document. Profiling reruns outside the worker pool
/// on purpose: the traced execution never touches the result cache, so
/// existing cache entries stay valid.
fn build_profile(set: &JobSet, needle: &str) -> Result<String, String> {
    let job = set
        .iter()
        .find(|j| j.label() == needle)
        .or_else(|| set.iter().find(|j| j.label().contains(needle)))
        .ok_or_else(|| format!("no job matches '{needle}'"))?;
    let (stats, sink) = job
        .execute_traced(Box::new(VecSink::new()))
        .map_err(|fail| fail.message)?;
    let events = VecSink::into_events(sink);
    let tl = Timeline::rebuild(&events, stats.cycles);
    Ok(profile_value(&tl, &job.profile_meta()).to_compact())
}

fn cmd_clean(args: &Args) -> ExitCode {
    let cache = DiskCache::new(args.cache_dir.clone().unwrap_or_else(default_cache_dir));
    match cache.clean() {
        Ok(n) => println!("removed {n} cache entries from {}", cache.dir().display()),
        Err(e) => {
            eprintln!("chats-run: cache clean failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.clean_runs {
        let runs = DiskCache::new(args.runs_dir.clone().unwrap_or_else(default_runs_dir));
        match runs.clean() {
            Ok(n) => println!("removed {n} manifests from {}", runs.dir().display()),
            Err(e) => {
                eprintln!("chats-run: manifest clean failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
