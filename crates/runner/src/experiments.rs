//! Named experiment sets: the paper's figure grids as [`JobSet`]s.
//!
//! Each set enumerates exactly the simulation points its figure needs
//! (including normalization baselines), so `chats-run fig9` warms every
//! cache entry the `figures` binary will later read. Grids overlap
//! heavily — fig4, fig5, fig6 and fig7 read the same points — and the
//! [`JobSet`] deduplication collapses the overlap to one execution per
//! unique point.

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

/// The contended subset used for the sensitivity studies (Fig. 10,
/// ablations, PiC width).
#[must_use]
pub fn contended() -> [&'static str; 4] {
    ["genome", "intruder", "kmeans-h", "yada"]
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
/// set) is accepted too but not listed.
#[must_use]
pub fn available() -> &'static [&'static str] {
    &[
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
        "fig1" => {
            for w in registry::all() {
                for s in [HtmSystem::Baseline, HtmSystem::NaiveRs] {
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
            let sets = [
                ForwardSet::ReadWrite,
                ForwardSet::WriteOnly,
                ForwardSet::RestrictedReadWrite,
            ];
            for w in registry::all() {
                for s in [HtmSystem::Chats, HtmSystem::Pchats] {
                    for fs in sets {
                        jobs.push(job(w.name(), sys(s).with_forward_set(fs)));
                    }
                }
            }
        }
        "fig9" => {
            let systems = [
                HtmSystem::Baseline,
                HtmSystem::Chats,
                HtmSystem::Power,
                HtmSystem::Pchats,
            ];
            for w in registry::stamp() {
                // Normalization baseline at Table II defaults.
                jobs.push(job(w.name(), sys(HtmSystem::Baseline)));
                for s in systems {
                    for r in [1u32, 2, 4, 6, 8, 16, 32, 64] {
                        jobs.push(job(w.name(), sys(s).with_retries(r)));
                    }
                }
            }
        }
        "fig10" => {
            for w in contended() {
                for vsb in [1usize, 2, 4, 8, 16, 32] {
                    for iv in [50u64, 100, 200, 400] {
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
                for s in [
                    HtmSystem::Baseline,
                    HtmSystem::Chats,
                    HtmSystem::Pchats,
                    HtmSystem::LevcBeIdealized,
                ] {
                    jobs.push(job(w.name(), sys(s)));
                }
            }
        }
        "scaling" => {
            let threads: &[usize] = match scale {
                Scale::Paper => &[1, 2, 4, 8, 16],
                Scale::Quick => &[1, 2, 4],
            };
            for s in [HtmSystem::Baseline, HtmSystem::Chats] {
                for &n in threads {
                    let mut c = cfg.clone();
                    c.threads = n;
                    jobs.push(JobSpec::new("kmeans-h", sys(s), c));
                }
            }
        }
        "picwidth" => {
            for w in contended() {
                jobs.push(job(w, sys(HtmSystem::Chats)));
                for bits in [2u32, 3, 4, 5, 6, 7] {
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
            let variants = [
                Ablation::default(),
                Ablation {
                    no_pic_overtake: true,
                    single_link_chains: false,
                },
                Ablation {
                    no_pic_overtake: false,
                    single_link_chains: true,
                },
                Ablation {
                    no_pic_overtake: true,
                    single_link_chains: true,
                },
            ];
            for w in contended() {
                for ab in variants {
                    jobs.push(job(w, sys(HtmSystem::Chats).with_ablation(ab)));
                }
            }
        }
        "headline" => {
            for w in registry::stamp() {
                for s in [
                    HtmSystem::Baseline,
                    HtmSystem::Chats,
                    HtmSystem::Power,
                    HtmSystem::Pchats,
                ] {
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
            assert!(!s.is_empty(), "{id} is empty");
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
