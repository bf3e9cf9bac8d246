//! Named experiment sets: the paper's figure grids as [`JobSet`]s.
//!
//! A figure's grid is declared once, by its renderer in
//! [`crate::figures`]: [`set`] renders the figure through a recording
//! view of the cells and returns the jobs it read, normalization
//! baselines included. Only `evm`, which has no table, lists its grid
//! here. Grids overlap heavily — fig4, fig5, fig6 and fig7 read the same
//! points — and the [`JobSet`] deduplication collapses the overlap to
//! one execution per unique point.

use crate::figures;
use crate::job::{JobSet, JobSpec};
use chats_core::{HtmSystem, PolicyConfig};
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

/// Ids accepted by [`set`], in figure order: every experiment of
/// [`crate::figures`] with a table, then `evm`. `all` (the union of every
/// set) is accepted too but not listed.
#[must_use]
pub fn available() -> Vec<&'static str> {
    figures::EXPERIMENTS
        .iter()
        .map(|&(id, _)| id)
        .chain(["evm"])
        .collect()
}

/// The job set for one named experiment at `scale`; `None` for an
/// unknown id. A figure's set is its grid: the cells its renderer reads,
/// in the order it reads them (see [`crate::figures`]).
#[must_use]
pub fn set(id: &str, scale: Scale) -> Option<JobSet> {
    match id {
        // The smart-contract frontier: every evm scenario under every
        // system (including LEVC-BE), clean. It has no table to read its
        // grid from. Fault-plan variants come from `--faults`, which
        // rehashes the whole set.
        "evm" => Some(
            registry::evm()
                .iter()
                .flat_map(|w| {
                    HtmSystem::ALL.map(|s| {
                        JobSpec::new(w.name(), PolicyConfig::for_system(s), scale.run_config())
                    })
                })
                .collect(),
        ),
        "all" => {
            let mut jobs = JobSet::new();
            for id in available() {
                jobs.merge(set(id, scale).expect("available() ids resolve"));
            }
            Some(jobs)
        }
        id => figures::grid(id, scale),
    }
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
