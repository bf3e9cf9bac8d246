//! One renderer per table/figure of the paper (see DESIGN.md §5 for the
//! experiment index), and each renderer is its figure's job grid.
//!
//! A renderer reads its cells through [`Cells`] and never simulates.
//! Over a finished run ([`Cells::new`]) a cell the run does not hold is
//! an `Err` naming the job's label. `grid` renders through a recording
//! view instead: every read is recorded and answered with one strictly
//! positive placeholder, and the recorded jobs are the figure's grid,
//! which [`crate::experiments::set`] returns. So which cells a renderer
//! reads must not depend on the values it reads.

use crate::experiments::{contended, Scale, MAIN_SYSTEMS};
use crate::job::{JobSet, JobSpec};
use chats_core::{Ablation, AbortCause, ForwardSet, HtmSystem, PolicyConfig};
use chats_sim::SystemConfig;
use chats_stats::{amean, gmean, RunStats, Table};
use chats_workloads::registry;
use std::cell::RefCell;
use std::collections::HashMap;

/// Fig. 1: naive requester-speculates against the baseline.
const FIG1_SYSTEMS: [HtmSystem; 2] = [HtmSystem::Baseline, HtmSystem::NaiveRs];

/// Fig. 8: the forwarding systems whose forward set is varied.
const FIG8_SYSTEMS: [HtmSystem; 2] = [HtmSystem::Chats, HtmSystem::Pchats];

/// Fig. 8: which blocks may be forwarded; the first is the normalizer.
const FORWARD_SETS: [ForwardSet; 3] = [
    ForwardSet::ReadWrite,
    ForwardSet::WriteOnly,
    ForwardSet::RestrictedReadWrite,
];

/// Fig. 9 and the headline numbers: each forwarding system next to the
/// system it extends.
const PAIRED_SYSTEMS: [HtmSystem; 4] = [
    HtmSystem::Baseline,
    HtmSystem::Chats,
    HtmSystem::Power,
    HtmSystem::Pchats,
];

/// Fig. 9: retries before the fallback path.
const RETRIES: [u32; 8] = [1u32, 2, 4, 6, 8, 16, 32, 64];

/// Fig. 10: VSB sizes (one table row each); the first is the corner.
const VSB_SIZES: [usize; 6] = [1usize, 2, 4, 8, 16, 32];

/// Fig. 10: validation intervals in cycles; the first is the corner.
const VALIDATION_INTERVALS: [u64; 4] = [50u64, 100, 200, 400];

/// Fig. 11: CHATS and PCHATS against LEVC-BE-Idealized (normalized to
/// the baseline).
const FIG11_SYSTEMS: [HtmSystem; 3] = [
    HtmSystem::Chats,
    HtmSystem::Pchats,
    HtmSystem::LevcBeIdealized,
];

/// Thread scaling: the one workload it runs.
const SCALING_WORKLOAD: &str = "kmeans-h";

/// Thread scaling: the systems compared.
const SCALING_SYSTEMS: [HtmSystem; 2] = [HtmSystem::Baseline, HtmSystem::Chats];

/// PiC register widths swept by `picwidth`.
const PIC_BITS: [u32; 6] = [2u32, 3, 4, 5, 6, 7];

/// The ablation variants with their table labels; the first (no
/// ablation) is the normalizer.
const ABLATIONS: [(&str, Ablation); 4] = [
    (
        "full CHATS",
        Ablation {
            no_pic_overtake: false,
            single_link_chains: false,
        },
    ),
    (
        "no PiC overtake (Fig.3F off)",
        Ablation {
            no_pic_overtake: true,
            single_link_chains: false,
        },
    ),
    (
        "single-link chains (LEVC-like)",
        Ablation {
            no_pic_overtake: false,
            single_link_chains: true,
        },
    ),
    (
        "both ablations",
        Ablation {
            no_pic_overtake: true,
            single_link_chains: true,
        },
    ),
];

/// Thread counts of the scaling study at `scale`.
fn scaling_threads(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Paper => &[1, 2, 4, 8, 16],
        Scale::Quick => &[1, 2, 4],
    }
}

/// One cell of the scaling study: `system` on `SCALING_WORKLOAD` with
/// `threads` threads on the `scale` machine.
fn scaling_job(system: HtmSystem, threads: usize, scale: Scale) -> JobSpec {
    let mut cfg = scale.run_config();
    cfg.threads = threads;
    JobSpec::new(SCALING_WORKLOAD, PolicyConfig::for_system(system), cfg)
}

/// A renderer: one experiment's table from its cells.
type Renderer = fn(&Cells) -> Result<Table, String>;

/// Every experiment with a table, in figure order. `table1` and
/// `table2` describe the configuration and read no cells, so their grids
/// are empty.
pub(crate) const EXPERIMENTS: [(&str, Renderer); 16] = [
    ("table1", |_| Ok(table1())),
    ("table2", |_| Ok(table2())),
    ("fig1", |c| exec_time_table(c, &FIG1_SYSTEMS)),
    ("fig4", |c| exec_time_table(c, &MAIN_SYSTEMS)),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", |c| exec_time_table(c, &FIG11_SYSTEMS)),
    ("scaling", scaling),
    ("picwidth", picwidth),
    ("chains", chains),
    ("ablations", ablations),
    ("headline", headline),
];

/// A run's results as the renderers read them: statistics keyed by
/// [`crate::job::JobId`] value, as in [`crate::RunReport::results`], or
/// the recording view that records a figure's grid.
pub struct Cells<'a> {
    scale: Scale,
    source: Source<'a>,
}

enum Source<'a> {
    Results(&'a HashMap<u64, RunStats>),
    /// Every read job joins the grid and reads the placeholder.
    Recording(&'a RefCell<JobSet>, &'a RunStats),
}

impl<'a> Cells<'a> {
    /// Cells of a run at `scale`.
    #[must_use]
    pub fn new(scale: Scale, results: &'a HashMap<u64, RunStats>) -> Cells<'a> {
        Cells {
            scale,
            source: Source::Results(results),
        }
    }

    /// The statistics of one job.
    ///
    /// # Errors
    ///
    /// Names the job's label when the run holds no result for it.
    pub fn get(&self, spec: &JobSpec) -> Result<&'a RunStats, String> {
        match &self.source {
            Source::Results(results) => results
                .get(&spec.id().0)
                .ok_or_else(|| format!("missing cell {}", spec.label())),
            Source::Recording(grid, placeholder) => {
                grid.borrow_mut().push(spec.clone());
                Ok(*placeholder)
            }
        }
    }

    /// The statistics of `workload` under `policy` on the scale's default
    /// machine.
    fn cell(&self, workload: &str, policy: PolicyConfig) -> Result<&'a RunStats, String> {
        self.get(&JobSpec::new(workload, policy, self.scale.run_config()))
    }

    /// `workload` under `system`'s Table II configuration.
    fn sys(&self, workload: &str, system: HtmSystem) -> Result<&'a RunStats, String> {
        self.cell(workload, PolicyConfig::for_system(system))
    }
}

/// Renders the table of experiment `id` from `cells`; `None` when `id`
/// names no table (`evm`, `all`, a job label).
#[must_use]
pub fn render(id: &str, cells: &Cells) -> Option<Result<Table, String>> {
    EXPERIMENTS
        .iter()
        .find(|&&(name, _)| name == id)
        .map(|(_, renderer)| renderer(cells))
}

/// The job grid of experiment `id` at `scale`: every cell its renderer
/// reads, in reading order; `None` when `id` names no table. The
/// placeholder every read returns is strictly positive, because the
/// renderers divide by cycles and take geometric means.
pub(crate) fn grid(id: &str, scale: Scale) -> Option<JobSet> {
    let grid = RefCell::new(JobSet::new());
    let placeholder = RunStats {
        cycles: 1000,
        flits: 100,
        ..RunStats::default()
    };
    let cells = Cells {
        scale,
        source: Source::Recording(&grid, &placeholder),
    };
    render(id, &cells)?.expect("a recording view holds every cell");
    Some(grid.into_inner())
}

/// Table I: simulated system parameters.
#[must_use]
pub fn table1() -> Table {
    let s = SystemConfig::default();
    let mut t = Table::new(vec!["parameter".into(), "value".into()]);
    t.row(vec!["cores".into(), s.core.cores.to_string()]);
    t.row(vec![
        "L1 D cache".into(),
        format!(
            "private, {} KiB, {}-way, {}-cycle hit",
            s.mem.l1_sets * s.mem.l1_ways * 64 / 1024,
            s.mem.l1_ways,
            s.mem.l1_hit_latency
        ),
    ]);
    t.row(vec![
        "shared LLC/directory".into(),
        format!("{}-cycle access (folded L2/L3)", s.mem.dir_latency),
    ]);
    t.row(vec![
        "memory".into(),
        format!("{}-cycle latency behind the LLC", s.mem.mem_latency),
    ]);
    t.row(vec![
        "protocol".into(),
        "MESI, directory-based (blocking)".into(),
    ]);
    t.row(vec!["topology".into(), "crossbar".into()]);
    t.row(vec![
        "message size".into(),
        format!(
            "{} flits (data), {} flit (control)",
            s.noc.data_flits, s.noc.control_flits
        ),
    ]);
    t.row(vec![
        "link latency / bandwidth".into(),
        format!("{} cycle / 1 flit per cycle", s.noc.link_latency),
    ]);
    t
}

/// Table II: HTM system configurations.
#[must_use]
pub fn table2() -> Table {
    let mut t = Table::new(vec![
        "system".into(),
        "block state".into(),
        "retries".into(),
        "VSB size".into(),
        "cycles valid.".into(),
    ]);
    for sys in HtmSystem::ALL {
        let c = PolicyConfig::for_system(sys);
        let (fs, vsb, val) = if sys.forwards() {
            (
                c.forward_set.label().to_string(),
                c.vsb_size.to_string(),
                c.validation_interval.to_string(),
            )
        } else {
            ("NA".into(), "NA".into(), "NA".into())
        };
        t.row(vec![
            sys.label().into(),
            fs,
            c.retries.to_string(),
            vsb,
            val,
        ]);
    }
    t
}

/// Figs. 1, 4 and 11: normalized execution time of `systems` over the
/// baseline, one row per workload, plus amean/gmean rows over the STAMP
/// subset.
fn exec_time_table(c: &Cells, systems: &[HtmSystem]) -> Result<Table, String> {
    let mut headers = vec!["benchmark".into()];
    headers.extend(systems.iter().map(|s| s.label().to_string()));
    let mut t = Table::new(headers);
    let mut per_system: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    for w in registry::all() {
        let base = c.sys(w.name(), HtmSystem::Baseline)?.cycles as f64;
        let mut vals = Vec::new();
        for (k, &sys) in systems.iter().enumerate() {
            let v = c.sys(w.name(), sys)?.cycles as f64 / base;
            if !w.is_micro() {
                per_system[k].push(v);
            }
            vals.push(v);
        }
        let label = if w.is_micro() {
            format!("{} (u)", w.name())
        } else {
            w.name().to_string()
        };
        t.row_f64(&label, &vals);
    }
    let am: Vec<f64> = per_system.iter().map(|v| amean(v)).collect();
    let gm: Vec<f64> = per_system.iter().map(|v| gmean(v)).collect();
    t.row_f64("amean", &am);
    t.row_f64("gmean", &gm);
    Ok(t)
}

/// Figure 5: aborted transactions split by cause.
fn fig5(c: &Cells) -> Result<Table, String> {
    let mut t = Table::new(vec![
        "benchmark".into(),
        "system".into(),
        "conflict".into(),
        "capacity".into(),
        "val-mismatch".into(),
        "cycle".into(),
        "val-budget".into(),
        "fallback-lock".into(),
        "total".into(),
    ]);
    for w in registry::all() {
        for sys in MAIN_SYSTEMS {
            let s = c.sys(w.name(), sys)?;
            t.row(vec![
                w.name().into(),
                sys.label().into(),
                s.aborts_by(AbortCause::Conflict).to_string(),
                s.aborts_by(AbortCause::Capacity).to_string(),
                s.aborts_by(AbortCause::ValidationMismatch).to_string(),
                s.aborts_by(AbortCause::CycleDetected).to_string(),
                s.aborts_by(AbortCause::ValidationBudgetExhausted)
                    .to_string(),
                s.aborts_by(AbortCause::FallbackLock).to_string(),
                s.total_aborts().to_string(),
            ]);
        }
    }
    Ok(t)
}

/// Figure 6: transactions that conflicted / forwarded data, split by how
/// the attempt finished.
fn fig6(c: &Cells) -> Result<Table, String> {
    let mut t = Table::new(vec![
        "benchmark".into(),
        "system".into(),
        "conflicted-committed".into(),
        "conflicted-aborted".into(),
        "forwarder-committed".into(),
        "forwarder-aborted".into(),
        "forwardings".into(),
    ]);
    for w in registry::all() {
        for sys in MAIN_SYSTEMS {
            let s = c.sys(w.name(), sys)?;
            t.row(vec![
                w.name().into(),
                sys.label().into(),
                s.conflicted_outcomes.committed.to_string(),
                s.conflicted_outcomes.aborted.to_string(),
                s.forwarder_outcomes.committed.to_string(),
                s.forwarder_outcomes.aborted.to_string(),
                s.forwardings.to_string(),
            ]);
        }
    }
    Ok(t)
}

/// Figure 7: normalized network usage in flits.
fn fig7(c: &Cells) -> Result<Table, String> {
    let mut headers = vec!["benchmark".into()];
    headers.extend(MAIN_SYSTEMS.iter().map(|s| s.label().to_string()));
    let mut t = Table::new(headers);
    let mut per_system: Vec<Vec<f64>> = vec![Vec::new(); MAIN_SYSTEMS.len()];
    for w in registry::all() {
        let base = c.sys(w.name(), HtmSystem::Baseline)?.flits as f64;
        let mut vals = Vec::new();
        for (k, &sys) in MAIN_SYSTEMS.iter().enumerate() {
            let v = c.sys(w.name(), sys)?.flits as f64 / base;
            if !w.is_micro() {
                per_system[k].push(v);
            }
            vals.push(v);
        }
        t.row_f64(w.name(), &vals);
    }
    let gm: Vec<f64> = per_system.iter().map(|v| gmean(v)).collect();
    t.row_f64("gmean", &gm);
    Ok(t)
}

/// Figure 8: which blocks may be forwarded (R/W, W, Rrestrict/W),
/// normalized to CHATS with R/W.
fn fig8(c: &Cells) -> Result<Table, String> {
    let mut headers = vec!["benchmark".into()];
    for sys in FIG8_SYSTEMS {
        for fs in FORWARD_SETS {
            headers.push(format!("{} {}", sys.label(), fs.label()));
        }
    }
    let mut t = Table::new(headers);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); FIG8_SYSTEMS.len() * FORWARD_SETS.len()];
    for w in registry::all() {
        let policy = |sys, fs| PolicyConfig::for_system(sys).with_forward_set(fs);
        let norm = c
            .cell(w.name(), policy(FIG8_SYSTEMS[0], FORWARD_SETS[0]))?
            .cycles as f64;
        let mut vals = Vec::new();
        for sys in FIG8_SYSTEMS {
            for fs in FORWARD_SETS {
                let v = c.cell(w.name(), policy(sys, fs))?.cycles as f64 / norm;
                if !w.is_micro() {
                    cols[vals.len()].push(v);
                }
                vals.push(v);
            }
        }
        t.row_f64(w.name(), &vals);
    }
    let gm: Vec<f64> = cols.iter().map(|v| gmean(v)).collect();
    t.row_f64("gmean", &gm);
    Ok(t)
}

/// Figure 9: execution time vs number of retries before the fallback path
/// (gmean over the STAMP subset, normalized to the baseline at its
/// Table II default).
fn fig9(c: &Cells) -> Result<Table, String> {
    let mut headers = vec!["retries".into()];
    headers.extend(PAIRED_SYSTEMS.iter().map(|s| s.label().to_string()));
    let mut t = Table::new(headers);
    for r in RETRIES {
        let mut vals = Vec::new();
        for sys in PAIRED_SYSTEMS {
            let mut per_wl = Vec::new();
            for w in registry::stamp() {
                let base = c.sys(w.name(), HtmSystem::Baseline)?.cycles as f64;
                let s = c.cell(w.name(), PolicyConfig::for_system(sys).with_retries(r))?;
                per_wl.push(s.cycles as f64 / base);
            }
            vals.push(gmean(&per_wl));
        }
        t.row_f64(&r.to_string(), &vals);
    }
    Ok(t)
}

/// Figure 10: VSB size × validation interval, execution time (left) and
/// aborts (right), normalized to the (50-cycle, VSB=1) corner, gmean over
/// the contended subset. One row per VSB size.
fn fig10(c: &Cells) -> Result<Table, String> {
    let mut headers = vec!["VSB \\ interval".into()];
    for iv in VALIDATION_INTERVALS {
        headers.push(format!("time@{iv}"));
    }
    for iv in VALIDATION_INTERVALS {
        headers.push(format!("aborts@{iv}"));
    }
    let mut t = Table::new(headers);
    let cell = |w: &str, vsb, iv| {
        c.cell(
            w,
            PolicyConfig::for_system(HtmSystem::Chats)
                .with_vsb_size(vsb)
                .with_validation_interval(iv),
        )
    };
    let corner = contended()
        .iter()
        .map(|w| {
            let s = cell(w, VSB_SIZES[0], VALIDATION_INTERVALS[0])?;
            Ok((s.cycles as f64, s.total_aborts().max(1) as f64))
        })
        .collect::<Result<Vec<(f64, f64)>, String>>()?;
    for vsb in VSB_SIZES {
        let mut times = Vec::new();
        let mut aborts = Vec::new();
        for iv in VALIDATION_INTERVALS {
            let mut tr = Vec::new();
            let mut ar = Vec::new();
            for (k, w) in contended().iter().enumerate() {
                let s = cell(w, vsb, iv)?;
                tr.push(s.cycles as f64 / corner[k].0);
                ar.push(s.total_aborts().max(1) as f64 / corner[k].1);
            }
            times.push(gmean(&tr));
            aborts.push(gmean(&ar));
        }
        let mut vals = times;
        vals.extend(aborts);
        t.row_f64(&vsb.to_string(), &vals);
    }
    Ok(t)
}

/// Thread-count scaling (extension experiment): throughput speedup over
/// one thread for the baseline and CHATS on kmeans-h. The paper runs 16
/// threads because STAMP scales poorly beyond that; this quantifies how
/// much of the scalability loss CHATS recovers.
fn scaling(c: &Cells) -> Result<Table, String> {
    let mut headers = vec!["threads".into()];
    for sys in SCALING_SYSTEMS {
        headers.push(format!("{} speedup", sys.label()));
    }
    let mut t = Table::new(headers);
    let cycles =
        |sys, n| -> Result<f64, String> { Ok(c.get(&scaling_job(sys, n, c.scale))?.cycles as f64) };
    for &n in scaling_threads(c.scale) {
        let mut vals = Vec::new();
        for sys in SCALING_SYSTEMS {
            // n threads perform n x the single-thread work.
            vals.push(n as f64 * cycles(sys, 1)? / cycles(sys, n)?);
        }
        t.row_f64(&n.to_string(), &vals);
    }
    Ok(t)
}

/// Normalized CHATS time on each contended workload for each variant,
/// plus a gmean column: the shape of `picwidth` and `ablations`.
fn contended_sweep<V: Copy>(
    c: &Cells,
    first_header: &str,
    variants: impl IntoIterator<Item = (String, V)>,
    apply: impl Fn(PolicyConfig, V) -> PolicyConfig,
) -> Result<Table, String> {
    let mut headers = vec![first_header.into()];
    headers.extend(contended().iter().map(|s| s.to_string()));
    headers.push("gmean".into());
    let mut t = Table::new(headers);
    let chats = PolicyConfig::for_system(HtmSystem::Chats);
    let norm = contended()
        .iter()
        .map(|w| Ok(c.cell(w, chats)?.cycles as f64))
        .collect::<Result<Vec<f64>, String>>()?;
    for (label, v) in variants {
        let mut vals = Vec::new();
        for (k, w) in contended().iter().enumerate() {
            vals.push(c.cell(w, apply(chats, v))?.cycles as f64 / norm[k]);
        }
        let g = gmean(&vals);
        vals.push(g);
        t.row_f64(&label, &vals);
    }
    Ok(t)
}

/// PiC register width sensitivity (extension experiment): narrower
/// registers overflow sooner, truncating chains into requester-wins
/// aborts. Normalized time per width, gmean over the contended subset.
fn picwidth(c: &Cells) -> Result<Table, String> {
    contended_sweep(
        c,
        "pic bits",
        PIC_BITS.map(|b| (b.to_string(), b)),
        PolicyConfig::with_pic_bits,
    )
}

/// Ablation study (DESIGN.md §6): what each CHATS design choice buys,
/// measured on the contended subset and normalized to full CHATS.
fn ablations(c: &Cells) -> Result<Table, String> {
    contended_sweep(
        c,
        "variant",
        ABLATIONS.map(|(label, ab)| (label.to_string(), ab)),
        PolicyConfig::with_ablation,
    )
}

/// Chain-depth evidence for the 5-bit PiC sizing claim (§IV-C): how far
/// from the initial value PiCs actually travel under CHATS.
fn chains(c: &Cells) -> Result<Table, String> {
    let mut t = Table::new(vec![
        "benchmark".into(),
        "forwardings".into(),
        "max depth".into(),
        "depth 0".into(),
        "depth 1".into(),
        "depth 2".into(),
        "depth 3+".into(),
    ]);
    for w in registry::all() {
        let s = c.sys(w.name(), HtmSystem::Chats)?;
        let at = |d: u32| s.chain_depth_hist.get(&d).copied().unwrap_or(0);
        let deep: u64 = s
            .chain_depth_hist
            .iter()
            .filter(|(d, _)| **d >= 3)
            .map(|(_, n)| *n)
            .sum();
        t.row(vec![
            w.name().into(),
            s.forwardings.to_string(),
            s.max_chain_depth.to_string(),
            at(0).to_string(),
            at(1).to_string(),
            at(2).to_string(),
            deep.to_string(),
        ]);
    }
    Ok(t)
}

/// Headline numbers quoted in the abstract: mean execution-time reduction
/// of CHATS vs baseline and PCHATS vs Power, and abort reductions.
fn headline(c: &Cells) -> Result<Table, String> {
    let mut chats_t = Vec::new();
    let mut pchats_vs_power = Vec::new();
    let mut chats_ab = (0u64, 0u64);
    let mut pchats_ab = (0u64, 0u64);
    for w in registry::stamp() {
        let [base, chats, power, pchats] = PAIRED_SYSTEMS.map(|s| c.sys(w.name(), s));
        let (base, chats, power, pchats) = (base?, chats?, power?, pchats?);
        chats_t.push(chats.cycles as f64 / base.cycles as f64);
        pchats_vs_power.push(pchats.cycles as f64 / power.cycles as f64);
        chats_ab.0 += chats.total_aborts();
        chats_ab.1 += base.total_aborts();
        pchats_ab.0 += pchats.total_aborts();
        pchats_ab.1 += power.total_aborts();
    }
    let mut t = Table::new(vec!["metric".into(), "value".into(), "paper".into()]);
    t.row(vec![
        "CHATS exec-time reduction vs baseline (amean)".into(),
        format!("{:.1}%", (1.0 - amean(&chats_t)) * 100.0),
        "22%".into(),
    ]);
    t.row(vec![
        "PCHATS exec-time reduction vs Power (amean)".into(),
        format!("{:.1}%", (1.0 - amean(&pchats_vs_power)) * 100.0),
        "16%".into(),
    ]);
    t.row(vec![
        "CHATS abort reduction vs baseline".into(),
        format!(
            "{:.1}%",
            (1.0 - chats_ab.0 as f64 / chats_ab.1.max(1) as f64) * 100.0
        ),
        "34%".into(),
    ]);
    t.row(vec![
        "PCHATS abort reduction vs Power".into(),
        format!(
            "{:.1}%",
            (1.0 - pchats_ab.0 as f64 / pchats_ab.1.max(1) as f64) * 100.0
        ),
        "49%".into(),
    ]);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{available, set};
    use crate::{Runner, RunnerConfig};

    /// Synthetic, strictly positive statistics for exactly the jobs of
    /// `id`'s grid: rendering them needs no simulation. They vary by job
    /// and differ from the recording placeholder, so a renderer whose
    /// reads depend on cell values reads outside its recorded grid.
    fn synthetic(id: &str, scale: Scale) -> HashMap<u64, RunStats> {
        set(id, scale)
            .unwrap()
            .iter()
            .map(|j| {
                let stats = RunStats {
                    cycles: 1001 + j.id().0 % 997,
                    flits: 101 + j.id().0 % 89,
                    ..RunStats::default()
                };
                (j.id().0, stats)
            })
            .collect()
    }

    #[test]
    fn tables_render_without_simulation() {
        assert!(table1().to_string().contains("cores"));
        assert!(table2().to_string().contains("CHATS"));
        assert_eq!(table2().len(), 6);
    }

    #[test]
    fn every_figure_reads_only_its_own_grid() {
        for scale in [Scale::Quick, Scale::Paper] {
            for id in available() {
                let results = synthetic(id, scale);
                match render(id, &Cells::new(scale, &results)) {
                    Some(Ok(t)) => assert!(!t.is_empty(), "{id} rendered no rows"),
                    Some(Err(e)) => panic!("{id} at {scale:?}: {e}"),
                    None => assert_eq!(id, "evm", "{id} has no renderer"),
                }
            }
        }
    }

    #[test]
    fn a_missing_cell_is_an_error_naming_it() {
        for id in available() {
            let Some(last) = set(id, Scale::Quick).unwrap().iter().last().cloned() else {
                continue;
            };
            let mut results = synthetic(id, Scale::Quick);
            results.remove(&last.id().0);
            if let Some(rendered) = render(id, &Cells::new(Scale::Quick, &results)) {
                let err = rendered.expect_err(id);
                assert_eq!(err, format!("missing cell {}", last.label()), "{id}");
            }
        }
    }

    #[test]
    fn fig1_runs_at_quick_scale() {
        let runner = Runner::new(RunnerConfig {
            use_cache: false,
            quiet: true,
            ..RunnerConfig::default()
        });
        let report = runner.run_set(&set("fig1", Scale::Quick).unwrap());
        assert!(report.all_succeeded());
        let t = render("fig1", &Cells::new(Scale::Quick, &report.results))
            .unwrap()
            .unwrap();
        assert_eq!(t.len(), 12 + 2); // workloads + amean + gmean
    }

    #[test]
    fn workload_name_lists_are_consistent() {
        assert_eq!(registry::all().len(), 12);
        assert_eq!(registry::stamp().len(), 9);
    }
}
