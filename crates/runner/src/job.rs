//! Jobs and job sets: the unit of work the runner schedules.
//!
//! A [`JobSpec`] is one simulation point — workload × policy × machine
//! configuration. Its identity is a content hash of the *full*
//! configuration (canonicalized to a string), so two specs that would
//! produce the same simulation share one [`JobId`], one cache entry and
//! one execution, no matter which experiment asked for them.

use crate::experiments::Scale;
use crate::hash::fnv1a_64;
use chats_core::{ForwardSet, HtmSystem, PolicyConfig};
use chats_machine::TraceSink;
use chats_obs::ProfileMeta;
use chats_stats::RunStats;
use chats_workloads::{
    prepare_run, registry, run_workload, run_workload_traced, FaultPlan, PreparedRun, RunConfig,
    RunFailure, Workload,
};
use std::collections::HashSet;
use std::fmt;

/// Bumped whenever the canonical encoding changes, so stale cache
/// entries from an older encoding can never alias a new job.
pub const FORMAT_VERSION: u32 = 2;

/// Content-hash identity of a job. Formats as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One simulation point: a workload run under a policy on a machine.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Registry name of the workload (e.g. `"kmeans-h"`).
    pub workload: String,
    /// The HTM system configuration under test.
    pub policy: PolicyConfig,
    /// Machine description, thread count, seed and cycle budget.
    pub config: RunConfig,
}

impl JobSpec {
    /// A job for `workload` under `policy` on `config`.
    pub fn new(workload: impl Into<String>, policy: PolicyConfig, config: RunConfig) -> JobSpec {
        JobSpec {
            workload: workload.into(),
            policy,
            config,
        }
    }

    /// The canonical configuration string hashed into the job id and
    /// stored verbatim in cache entries for collision rejection. Every
    /// field that can change the simulation's outcome is included, the
    /// policy, machine and tuning through their own `canonical()`
    /// encoders.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut canon = format!(
            "fmt={FORMAT_VERSION}|wl={}|policy={}|machine={}|tuning={}|threads={}|seed={}|max_cycles={}",
            self.workload,
            self.policy.canonical(),
            self.config.system.canonical(),
            self.config.tuning.canonical(),
            self.config.threads,
            self.config.seed,
            self.config.max_cycles,
        );
        // Appended only when a plan is present, so a fault-free job's
        // encoding does not mention faults at all.
        if let Some(plan) = &self.config.faults {
            canon.push_str(&format!("|faults={:016x}", plan.hash()));
        }
        // Same conditional-append pattern for the workload's own scenario
        // spec (the evm family versions its generators through
        // `Workload::spec`): spec-less workloads keep their existing ids,
        // while a generator change rolls every dependent cache entry.
        if let Some(spec) = registry::by_name(&self.workload).and_then(|w| w.spec()) {
            canon.push_str(&format!("|wlspec={spec}"));
        }
        canon
    }

    /// The content-hash identity of this job.
    #[must_use]
    pub fn id(&self) -> JobId {
        JobId(fnv1a_64(self.canonical().as_bytes()))
    }

    /// A human-readable label, `workload/system` plus a suffix for every
    /// deviation from the system's Table II defaults (retries, VSB size,
    /// validation interval, forward set, PiC width, ablations, threads).
    /// Labels are what `--filter` matches against.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = format!("{}/{}", self.workload, self.policy.system.name());
        let def = PolicyConfig::for_system(self.policy.system);
        if self.policy.retries != def.retries {
            label.push_str(&format!(":r{}", self.policy.retries));
        }
        if self.policy.vsb_size != def.vsb_size {
            label.push_str(&format!(":vsb{}", self.policy.vsb_size));
        }
        if self.policy.validation_interval != def.validation_interval {
            label.push_str(&format!(":iv{}", self.policy.validation_interval));
        }
        if self.policy.forward_set != def.forward_set {
            label.push_str(&format!(":fs-{}", self.policy.forward_set.label()));
        }
        if self.policy.pic_bits != def.pic_bits {
            label.push_str(&format!(":pic{}", self.policy.pic_bits));
        }
        if self.policy.ablation.no_pic_overtake {
            label.push_str(":no-overtake");
        }
        if self.policy.ablation.single_link_chains {
            label.push_str(":single-link");
        }
        if self.config.threads != self.config.system.core.cores {
            label.push_str(&format!(":t{}", self.config.threads));
        }
        if let Some(plan) = &self.config.faults {
            label.push_str(&format!(":faults-{}", plan.name));
        }
        label
    }

    /// The inverse of [`JobSpec::label`] on the `scale` machine: parses
    /// `workload/system` and the `:rN :vsbN :ivN :fs-SET :picN
    /// :no-overtake :single-link :tN :faults-NAME` suffixes, in any
    /// order, where `NAME` is one of [`FaultPlan::shipped`]. A suffix
    /// that restates a default changes nothing, so `kmeans-h/chats:r32`
    /// is the same job as `kmeans-h/chats`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the label and its first bad part.
    pub fn from_label(label: &str, scale: Scale) -> Result<JobSpec, String> {
        let bad = |why: String| format!("bad job label '{label}': {why}");
        let (workload, rest) = label
            .split_once('/')
            .ok_or_else(|| bad("expected WORKLOAD/SYSTEM".to_string()))?;
        if registry::by_name(workload).is_none() {
            return Err(bad(format!("unknown workload '{workload}'")));
        }
        let mut parts = rest.split(':');
        let system: HtmSystem = parts.next().unwrap_or_default().parse().map_err(bad)?;
        let mut policy = PolicyConfig::for_system(system);
        let mut config = scale.run_config();
        for part in parts {
            if part == "no-overtake" {
                policy.ablation.no_pic_overtake = true;
            } else if part == "single-link" {
                policy.ablation.single_link_chains = true;
            } else if let Some(name) = part.strip_prefix("fs-") {
                policy.forward_set = [
                    ForwardSet::ReadWrite,
                    ForwardSet::WriteOnly,
                    ForwardSet::RestrictedReadWrite,
                ]
                .into_iter()
                .find(|fs| fs.label() == name)
                .ok_or_else(|| bad(format!("unknown forward set '{name}'")))?;
            } else if let Some(name) = part.strip_prefix("faults-") {
                let plan = FaultPlan::shipped().into_iter().find(|p| p.name == name);
                config.faults =
                    Some(plan.ok_or_else(|| bad(format!("unknown fault plan '{name}'")))?);
            } else {
                let digits = part
                    .find(|c: char| c.is_ascii_digit())
                    .unwrap_or(part.len());
                let (key, n) = part.split_at(digits);
                let n: u64 = n
                    .parse()
                    .map_err(|_| bad(format!("unknown suffix ':{part}'")))?;
                match (key, u32::try_from(n), usize::try_from(n)) {
                    ("r", Ok(r), _) => policy.retries = r,
                    ("vsb", _, Ok(v)) if v > 0 => policy.vsb_size = v,
                    ("iv", _, _) => policy.validation_interval = n,
                    ("pic", Ok(b @ 2..=7), _) => policy.pic_bits = b,
                    ("t", _, Ok(t)) if t > 0 => config.threads = t,
                    _ => return Err(bad(format!("unknown or out-of-range suffix ':{part}'"))),
                }
            }
        }
        Ok(JobSpec::new(workload, policy, config))
    }

    /// Runs the simulation for this job.
    ///
    /// # Errors
    ///
    /// Returns a [`RunFailure`] for an unknown workload name, a
    /// simulation timeout/deadlock/watchdog stall, or an invariant
    /// violation; a run that started carries its partial statistics.
    pub fn execute(&self) -> Result<RunStats, RunFailure> {
        run_workload(self.resolve_workload()?.as_ref(), self.policy, &self.config)
    }

    /// Runs the job with every protocol trace event routed into `sink`
    /// (see [`run_workload_traced`]) and hands the sink back with the
    /// run's statistics.
    ///
    /// # Errors
    ///
    /// Same as [`JobSpec::execute`].
    pub fn execute_traced(
        &self,
        sink: Box<dyn TraceSink>,
    ) -> Result<(RunStats, Box<dyn TraceSink>), RunFailure> {
        run_workload_traced(
            self.resolve_workload()?.as_ref(),
            self.policy,
            &self.config,
            sink,
        )
    }

    /// The job's machine, built and loaded but not yet run (see
    /// [`prepare_run`]), for callers that drive it themselves.
    ///
    /// # Errors
    ///
    /// Returns an error string for an unknown workload name.
    pub fn prepare(&self) -> Result<PreparedRun, String> {
        Ok(prepare_run(
            self.resolve_workload()?.as_ref(),
            self.policy,
            &self.config,
        ))
    }

    /// The run identity a trace profile records.
    #[must_use]
    pub fn profile_meta(&self) -> ProfileMeta {
        ProfileMeta {
            workload: self.workload.clone(),
            system: self.policy.system.label().to_string(),
            threads: self.config.threads,
            seed: self.config.seed,
        }
    }

    fn resolve_workload(&self) -> Result<Box<dyn Workload>, String> {
        registry::by_name(&self.workload)
            .ok_or_else(|| format!("unknown workload '{}'", self.workload))
    }
}

/// An ordered, deduplicated collection of jobs.
///
/// Insertion order is preserved (it becomes manifest order); duplicates
/// by [`JobId`] are dropped, which is what makes overlapping experiment
/// grids (fig4 and fig5 share every point) cost one execution each.
#[derive(Debug, Default)]
pub struct JobSet {
    jobs: Vec<JobSpec>,
    ids: HashSet<u64>,
}

impl JobSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> JobSet {
        JobSet::default()
    }

    /// Adds a job; returns `false` (and drops it) if an identical job is
    /// already present.
    pub fn push(&mut self, spec: JobSpec) -> bool {
        if self.ids.insert(spec.id().0) {
            self.jobs.push(spec);
            true
        } else {
            false
        }
    }

    /// Moves every job of `other` into `self`, deduplicating.
    pub fn merge(&mut self, other: JobSet) {
        for job in other.jobs {
            self.push(job);
        }
    }

    /// Number of (unique) jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if the set holds no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Iterates jobs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &JobSpec> {
        self.jobs.iter()
    }

    /// Keeps only jobs whose [`JobSpec::label`] contains `needle`.
    pub fn retain_matching(&mut self, needle: &str) {
        self.jobs.retain(|j| j.label().contains(needle));
        self.ids = self.jobs.iter().map(|j| j.id().0).collect();
    }

    /// Keeps only jobs whose workload belongs to the registry family
    /// `tag` (`stamp`, `micro` or `evm`). Jobs naming an unknown
    /// workload are dropped too — they cannot be attributed to a family.
    pub fn retain_family(&mut self, tag: &str) {
        self.jobs
            .retain(|j| registry::by_name(&j.workload).is_some_and(|w| w.family() == tag));
        self.ids = self.jobs.iter().map(|j| j.id().0).collect();
    }

    /// Installs `plan` on every job (replacing any plan already present)
    /// and rehashes the set — faulted jobs have their own identities and
    /// cache entries, disjoint from the fault-free ones.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        for job in &mut self.jobs {
            job.config.faults = Some(plan.clone());
        }
        self.ids = self.jobs.iter().map(|j| j.id().0).collect();
    }
}

impl FromIterator<JobSpec> for JobSet {
    fn from_iter<I: IntoIterator<Item = JobSpec>>(iter: I) -> JobSet {
        let mut set = JobSet::new();
        for job in iter {
            set.push(job);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chats_core::HtmSystem;

    fn spec(wl: &str, sys: HtmSystem) -> JobSpec {
        JobSpec::new(wl, PolicyConfig::for_system(sys), RunConfig::quick_test())
    }

    #[test]
    fn id_is_stable_and_content_addressed() {
        let a = spec("cadd", HtmSystem::Chats);
        let b = spec("cadd", HtmSystem::Chats);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), spec("cadd", HtmSystem::Power).id());
        assert_ne!(a.id(), spec("llb-l", HtmSystem::Chats).id());
    }

    #[test]
    fn id_covers_every_config_axis() {
        let base = spec("cadd", HtmSystem::Chats);
        let mut retries = base.clone();
        retries.policy = retries.policy.with_retries(42);
        assert_ne!(base.id(), retries.id());

        let mut seeded = base.clone();
        seeded.config.seed ^= 1;
        assert_ne!(base.id(), seeded.id());

        let mut threads = base.clone();
        threads.config.threads = 2;
        assert_ne!(base.id(), threads.id());

        let mut budget = base.clone();
        budget.config.max_cycles /= 2;
        assert_ne!(base.id(), budget.id());
    }

    #[test]
    fn canonical_of_the_paper_machine_is_pinned() {
        let job = JobSpec::new(
            "cadd",
            PolicyConfig::for_system(HtmSystem::Chats),
            RunConfig::paper(),
        );
        assert_eq!(
            job.canonical(),
            "fmt=2|wl=cadd\
             |policy=system=chats,forward_set=Rrestrict/W,retries=32,vsb_size=4,\
             validation_interval=50,power_threshold=2,naive_counter_bits=4,\
             no_pic_overtake=false,single_link_chains=false,pic_bits=5\
             |machine=cores=16,cycles_per_op=1,l1_sets=64,l1_ways=12,l1_hit_latency=1,\
             dir_latency=30,mem_latency=100,link_latency=1,control_flits=1,data_flits=5\
             |tuning=oracle=off,debug_skip_validation=false\
             |threads=16|seed=805493|max_cycles=2000000000"
        );
    }

    #[test]
    fn every_configuration_field_moves_the_id_and_the_guard() {
        use chats_core::ForwardSet;
        use chats_machine::{Machine, Oracle};
        let guard = |j: &JobSpec| {
            Machine::new(j.config.system, j.policy, j.config.tuning, j.config.seed).config_guard()
        };
        type Edit = fn(&mut JobSpec);
        let perturb: [(&str, Edit); 22] = [
            ("system", |j| j.policy.system = HtmSystem::Power),
            ("forward_set", |j| {
                j.policy.forward_set = ForwardSet::WriteOnly
            }),
            ("retries", |j| j.policy.retries += 1),
            ("vsb_size", |j| j.policy.vsb_size += 1),
            ("validation_interval", |j| j.policy.validation_interval += 1),
            ("power_threshold", |j| j.policy.power_threshold += 1),
            ("naive_counter_bits", |j| j.policy.naive_counter_bits += 1),
            ("pic_bits", |j| j.policy.pic_bits += 1),
            ("no_pic_overtake", |j| {
                j.policy.ablation.no_pic_overtake ^= true
            }),
            ("single_link_chains", |j| {
                j.policy.ablation.single_link_chains ^= true;
            }),
            ("cores", |j| j.config.system.core.cores += 1),
            ("cycles_per_op", |j| j.config.system.core.cycles_per_op += 1),
            ("l1_sets", |j| j.config.system.mem.l1_sets *= 2),
            ("l1_ways", |j| j.config.system.mem.l1_ways += 1),
            ("l1_hit_latency", |j| {
                j.config.system.mem.l1_hit_latency += 1
            }),
            ("dir_latency", |j| j.config.system.mem.dir_latency += 1),
            ("mem_latency", |j| j.config.system.mem.mem_latency += 1),
            ("link_latency", |j| j.config.system.noc.link_latency += 1),
            ("control_flits", |j| j.config.system.noc.control_flits += 1),
            ("data_flits", |j| j.config.system.noc.data_flits += 1),
            ("oracle", |j| j.config.tuning.oracle = Oracle::Record),
            ("debug_skip_validation", |j| {
                j.config.tuning.debug_skip_validation ^= true;
            }),
        ];
        let base = spec("cadd", HtmSystem::Chats);
        for (field, edit) in perturb {
            let mut job = base.clone();
            edit(&mut job);
            assert_ne!(job.id(), base.id(), "{field} does not move the job id");
            assert_ne!(guard(&job), guard(&base), "{field} does not move the guard");
        }
    }

    #[test]
    fn fault_plan_joins_the_id_without_disturbing_plain_jobs() {
        use chats_workloads::FaultPlan;
        let base = spec("cadd", HtmSystem::Chats);
        assert!(
            !base.canonical().contains("faults"),
            "a fault-free job's encoding names no fault plan"
        );
        let mut faulted = base.clone();
        faulted.config.faults = Some(FaultPlan::lossy_noc());
        assert_ne!(base.id(), faulted.id());
        assert!(faulted.label().ends_with(":faults-lossy-noc"));

        let mut other = base.clone();
        other.config.faults = Some(FaultPlan::abort_storm());
        assert_ne!(faulted.id(), other.id(), "distinct plans, distinct ids");
    }

    #[test]
    fn apply_faults_rehashes_the_set() {
        use chats_workloads::FaultPlan;
        let mut set: JobSet = [
            spec("cadd", HtmSystem::Chats),
            spec("cadd", HtmSystem::Power),
        ]
        .into_iter()
        .collect();
        let plain_ids: Vec<JobId> = set.iter().map(JobSpec::id).collect();
        set.apply_faults(&FaultPlan::lossy_noc());
        assert_eq!(set.len(), 2);
        for (job, plain) in set.iter().zip(plain_ids) {
            assert_ne!(job.id(), plain);
        }
        // The same faulted job is now a duplicate; its plain twin is not.
        let mut faulted = spec("cadd", HtmSystem::Chats);
        faulted.config.faults = Some(FaultPlan::lossy_noc());
        assert!(!set.push(faulted));
        assert!(set.push(spec("cadd", HtmSystem::Chats)));
    }

    #[test]
    fn workload_spec_joins_the_id_without_disturbing_plain_jobs() {
        let plain = spec("cadd", HtmSystem::Chats);
        assert!(
            !plain.canonical().contains("wlspec"),
            "a spec-less workload's encoding names no scenario spec"
        );
        let evm = spec("evm-token-storm", HtmSystem::Chats);
        let canon = evm.canonical();
        assert!(canon.contains("|wlspec=evm:v1:kind=token-storm"), "{canon}");
        assert_ne!(evm.id(), spec("evm-transfers", HtmSystem::Chats).id());
    }

    #[test]
    fn retain_family_selects_by_registry_tag() {
        let mut set: JobSet = [
            spec("cadd", HtmSystem::Chats),
            spec("genome", HtmSystem::Chats),
            spec("evm-dex", HtmSystem::Chats),
            spec("evm-transfers", HtmSystem::Power),
            spec("no-such-workload", HtmSystem::Baseline),
        ]
        .into_iter()
        .collect();
        set.retain_family("evm");
        let labels: Vec<String> = set.iter().map(JobSpec::label).collect();
        assert_eq!(labels, ["evm-dex/chats", "evm-transfers/power"]);
        set.retain_family("stamp");
        assert!(set.is_empty());
    }

    #[test]
    fn label_names_deviations() {
        let mut j = spec("genome", HtmSystem::Chats);
        assert_eq!(j.label(), "genome/chats");
        j.policy = j.policy.with_retries(16).with_vsb_size(2);
        let l = j.label();
        assert!(l.contains(":r16"), "{l}");
        assert!(l.contains(":vsb2"), "{l}");
    }

    #[test]
    fn execute_rejects_unknown_workload() {
        let j = spec("no-such-workload", HtmSystem::Baseline);
        let err = j.execute().unwrap_err();
        assert!(err.message.contains("unknown workload"), "{err}");
    }

    #[test]
    fn set_dedups_and_preserves_order() {
        let mut set = JobSet::new();
        assert!(set.push(spec("cadd", HtmSystem::Chats)));
        assert!(set.push(spec("cadd", HtmSystem::Power)));
        assert!(!set.push(spec("cadd", HtmSystem::Chats)));
        assert_eq!(set.len(), 2);
        let labels: Vec<String> = set.iter().map(JobSpec::label).collect();
        assert_eq!(labels, ["cadd/chats", "cadd/power"]);
    }

    #[test]
    fn filter_retains_matching_labels() {
        let mut set: JobSet = [
            spec("cadd", HtmSystem::Chats),
            spec("genome", HtmSystem::Chats),
            spec("genome", HtmSystem::Power),
        ]
        .into_iter()
        .collect();
        set.retain_matching("genome");
        assert_eq!(set.len(), 2);
        set.retain_matching("power");
        assert_eq!(set.len(), 1);
        // A filtered-out job can be re-added.
        assert!(set.push(spec("cadd", HtmSystem::Chats)));
    }
}
