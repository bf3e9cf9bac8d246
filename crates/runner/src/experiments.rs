//! Named experiment sets: the paper's figure grids as [`JobSet`]s.
//!
//! Each set enumerates exactly the simulation points its figure reads
//! (including normalization baselines), and [`crate::figures`] renders
//! the figure from those cells alone. The parameter lists below are the
//! one declaration both sides use. Grids overlap heavily — fig4, fig5,
//! fig6 and fig7 read the same points — and the [`JobSet`]
//! deduplication collapses the overlap to one execution per unique
//! point.

use crate::job::{JobSet, JobSpec};
use chats_core::{Ablation, ForwardSet, HtmSystem, PolicyConfig};
use chats_workloads::{registry, RunConfig};

/// The five systems of the paper's main comparison (Figures 4–7).
pub const MAIN_SYSTEMS: [HtmSystem; 5] = [
    HtmSystem::Baseline,
    HtmSystem::NaiveRs,
    HtmSystem::Chats,
    HtmSystem::Power,
    HtmSystem::Pchats,
];

/// Fig. 1: naive requester-speculates against the baseline.
pub const FIG1_SYSTEMS: [HtmSystem; 2] = [HtmSystem::Baseline, HtmSystem::NaiveRs];

/// Fig. 8: the forwarding systems whose forward set is varied.
pub const FIG8_SYSTEMS: [HtmSystem; 2] = [HtmSystem::Chats, HtmSystem::Pchats];

/// Fig. 8: which blocks may be forwarded; the first is the normalizer.
pub const FORWARD_SETS: [ForwardSet; 3] = [
    ForwardSet::ReadWrite,
    ForwardSet::WriteOnly,
    ForwardSet::RestrictedReadWrite,
];

/// Fig. 9 and the headline numbers: each forwarding system next to the
/// system it extends.
pub const PAIRED_SYSTEMS: [HtmSystem; 4] = [
    HtmSystem::Baseline,
    HtmSystem::Chats,
    HtmSystem::Power,
    HtmSystem::Pchats,
];

/// Fig. 9: retries before the fallback path.
pub const RETRIES: [u32; 8] = [1u32, 2, 4, 6, 8, 16, 32, 64];

/// Fig. 10: VSB sizes (one table row each); the first is the corner.
pub const VSB_SIZES: [usize; 6] = [1usize, 2, 4, 8, 16, 32];

/// Fig. 10: validation intervals in cycles; the first is the corner.
pub const VALIDATION_INTERVALS: [u64; 4] = [50u64, 100, 200, 400];

/// Fig. 11: CHATS and PCHATS against LEVC-BE-Idealized (the grid adds
/// the baseline they are normalized to).
pub const FIG11_SYSTEMS: [HtmSystem; 3] = [
    HtmSystem::Chats,
    HtmSystem::Pchats,
    HtmSystem::LevcBeIdealized,
];

/// Thread scaling: the one workload it runs.
const SCALING_WORKLOAD: &str = "kmeans-h";

/// Thread scaling: the systems compared.
pub const SCALING_SYSTEMS: [HtmSystem; 2] = [HtmSystem::Baseline, HtmSystem::Chats];

/// PiC register widths swept by `picwidth`.
pub const PIC_BITS: [u32; 6] = [2u32, 3, 4, 5, 6, 7];

/// The ablation variants with their table labels; the first (no
/// ablation) is the normalizer.
pub const ABLATIONS: [(&str, Ablation); 4] = [
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

/// The contended subset used for the sensitivity studies (Fig. 10,
/// ablations, PiC width).
#[must_use]
pub fn contended() -> [&'static str; 4] {
    ["genome", "intruder", "kmeans-h", "yada"]
}

/// Thread counts of the scaling study at `scale`.
#[must_use]
pub fn scaling_threads(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Paper => &[1, 2, 4, 8, 16],
        Scale::Quick => &[1, 2, 4],
    }
}

/// Machine scale experiments run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// The paper's 16-core configuration.
    Paper,
    /// The scaled-down 4-core test machine with the atomicity oracle
    /// armed; used by `--smoke` and the unit tests.
    Quick,
}

impl Scale {
    /// The machine configuration for this scale.
    #[must_use]
    pub fn run_config(self) -> RunConfig {
        match self {
            Scale::Paper => RunConfig::paper(),
            Scale::Quick => RunConfig::quick_test(),
        }
    }

    /// Manifest label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        }
    }
}

/// Ids accepted by [`set`], in figure order. `all` (the union of every
/// set) is accepted too but not listed. `table1` and `table2` describe
/// the configuration, so their grids are empty.
#[must_use]
pub fn available() -> &'static [&'static str] {
    &[
        "table1",
        "table2",
        "fig1",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "scaling",
        "picwidth",
        "chains",
        "ablations",
        "headline",
        "evm",
    ]
}

/// The job set for one named experiment at `scale`; `None` for an
/// unknown id.
#[must_use]
pub fn set(id: &str, scale: Scale) -> Option<JobSet> {
    let cfg = scale.run_config();
    let job = |wl: &str, policy: PolicyConfig| JobSpec::new(wl, policy, cfg.clone());
    let sys = PolicyConfig::for_system;
    let mut jobs = JobSet::new();
    match id {
        "table1" | "table2" => {}
        "fig1" => {
            for w in registry::all() {
                for s in FIG1_SYSTEMS {
                    jobs.push(job(w.name(), sys(s)));
                }
            }
        }
        // Figures 4–7 all read the same grid: every workload under every
        // main system at Table II defaults.
        "fig4" | "fig5" | "fig6" | "fig7" => {
            for w in registry::all() {
                for s in MAIN_SYSTEMS {
                    jobs.push(job(w.name(), sys(s)));
                }
            }
        }
        "fig8" => {
            for w in registry::all() {
                for s in FIG8_SYSTEMS {
                    for fs in FORWARD_SETS {
                        jobs.push(job(w.name(), sys(s).with_forward_set(fs)));
                    }
                }
            }
        }
        "fig9" => {
            for w in registry::stamp() {
                // Normalization baseline at Table II defaults.
                jobs.push(job(w.name(), sys(HtmSystem::Baseline)));
                for s in PAIRED_SYSTEMS {
                    for r in RETRIES {
                        jobs.push(job(w.name(), sys(s).with_retries(r)));
                    }
                }
            }
        }
        "fig10" => {
            for w in contended() {
                for vsb in VSB_SIZES {
                    for iv in VALIDATION_INTERVALS {
                        jobs.push(job(
                            w,
                            sys(HtmSystem::Chats)
                                .with_vsb_size(vsb)
                                .with_validation_interval(iv),
                        ));
                    }
                }
            }
        }
        "fig11" => {
            for w in registry::all() {
                jobs.push(job(w.name(), sys(HtmSystem::Baseline)));
                for s in FIG11_SYSTEMS {
                    jobs.push(job(w.name(), sys(s)));
                }
            }
        }
        "scaling" => {
            for s in SCALING_SYSTEMS {
                for &n in scaling_threads(scale) {
                    jobs.push(scaling_job(s, n, scale));
                }
            }
        }
        "picwidth" => {
            for w in contended() {
                jobs.push(job(w, sys(HtmSystem::Chats)));
                for bits in PIC_BITS {
                    jobs.push(job(w, sys(HtmSystem::Chats).with_pic_bits(bits)));
                }
            }
        }
        "chains" => {
            for w in registry::all() {
                jobs.push(job(w.name(), sys(HtmSystem::Chats)));
            }
        }
        "ablations" => {
            for w in contended() {
                for (_, ab) in ABLATIONS {
                    jobs.push(job(w, sys(HtmSystem::Chats).with_ablation(ab)));
                }
            }
        }
        "headline" => {
            for w in registry::stamp() {
                for s in PAIRED_SYSTEMS {
                    jobs.push(job(w.name(), sys(s)));
                }
            }
        }
        // The smart-contract frontier: every evm scenario under every
        // system (including LEVC-BE), clean. Fault-plan variants come
        // from `--faults`, which rehashes the whole set.
        "evm" => {
            for w in registry::evm() {
                for s in HtmSystem::ALL {
                    jobs.push(job(w.name(), sys(s)));
                }
            }
        }
        "all" => {
            for id in available() {
                jobs.merge(set(id, scale).expect("available() ids resolve"));
            }
        }
        _ => return None,
    }
    Some(jobs)
}

/// One cell of the scaling study: `system` on `SCALING_WORKLOAD` with
/// `threads` threads on the `scale` machine.
#[must_use]
pub fn scaling_job(system: HtmSystem, threads: usize, scale: Scale) -> JobSpec {
    let mut cfg = scale.run_config();
    cfg.threads = threads;
    JobSpec::new(SCALING_WORKLOAD, PolicyConfig::for_system(system), cfg)
}

/// The union of several named sets and job labels, in the given order.
/// An id containing `/` is a [`JobSpec::label`] and resolves to that one
/// job (see [`JobSpec::from_label`]).
///
/// # Errors
///
/// Returns the first unknown set id or unparsable label.
pub fn union<'a>(ids: impl IntoIterator<Item = &'a str>, scale: Scale) -> Result<JobSet, String> {
    let mut jobs = JobSet::new();
    for id in ids {
        if id.contains('/') {
            jobs.push(JobSpec::from_label(id, scale)?);
        } else {
            jobs.merge(set(id, scale).ok_or_else(|| format!("unknown experiment set '{id}'"))?);
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_advertised_set_resolves() {
        for id in available() {
            let s = set(id, Scale::Quick).unwrap_or_else(|| panic!("{id} missing"));
            let table = id.starts_with("table");
            assert_eq!(
                s.is_empty(),
                table,
                "{id}: only the tables have empty grids"
            );
        }
        assert!(set("all", Scale::Quick).is_some());
        assert!(set("fig2", Scale::Quick).is_none());
    }

    #[test]
    fn fig4_grid_is_workloads_times_main_systems() {
        let s = set("fig4", Scale::Quick).unwrap();
        assert_eq!(s.len(), registry::all().len() * MAIN_SYSTEMS.len());
    }

    #[test]
    fn overlapping_sets_dedup_in_union() {
        let fig4 = set("fig4", Scale::Quick).unwrap().len();
        let both = union(["fig4", "fig5"], Scale::Quick).unwrap();
        // fig5 reads exactly the fig4 grid, so the union adds nothing.
        assert_eq!(both.len(), fig4);
    }

    #[test]
    fn all_covers_every_set() {
        let all = set("all", Scale::Quick).unwrap();
        for id in available() {
            assert!(all.len() >= set(id, Scale::Quick).unwrap().len(), "{id}");
        }
    }

    #[test]
    fn evm_set_is_scenarios_times_all_systems() {
        let s = set("evm", Scale::Quick).unwrap();
        assert_eq!(s.len(), registry::evm().len() * HtmSystem::ALL.len());
        assert!(s.iter().all(|j| j.canonical().contains("|wlspec=evm:v1")));
    }

    #[test]
    fn scales_produce_distinct_jobs() {
        let q: Vec<_> = set("chains", Scale::Quick)
            .unwrap()
            .iter()
            .map(|j| j.id())
            .collect();
        let p: Vec<_> = set("chains", Scale::Paper)
            .unwrap()
            .iter()
            .map(|j| j.id())
            .collect();
        assert!(q.iter().all(|id| !p.contains(id)));
    }

    #[test]
    fn union_reports_unknown_ids() {
        let err = union(["fig4", "bogus"], Scale::Quick).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        let err = union(["cadd/chats:bogus"], Scale::Quick).unwrap_err();
        assert!(err.contains("cadd/chats:bogus"), "{err}");
    }

    #[test]
    fn labels_resolve_to_single_jobs_in_order() {
        let fig9 = set("fig9", Scale::Paper).unwrap();
        let point = fig9
            .iter()
            .find(|j| j.label() == "kmeans-h/chats:r4")
            .unwrap();
        let jobs = union(
            ["kmeans-h/chats:r4", "cadd/power", "kmeans-h/chats:r4"],
            Scale::Paper,
        )
        .unwrap();
        let labels: Vec<String> = jobs.iter().map(JobSpec::label).collect();
        assert_eq!(labels, ["kmeans-h/chats:r4", "cadd/power"]);
        assert_eq!(jobs.iter().next().unwrap().id(), point.id());
    }
}
