#![warn(missing_docs)]

//! Deterministic fault injection for the CHATS simulator.
//!
//! CHATS is a *best-effort* HTM: the paper's guarantees assume transactions
//! can spuriously abort at any time and that the fallback path serializes
//! when optimism fails. This crate supplies the adversary that exercises
//! those guarantees: a serializable, content-hashable [`FaultPlan`]
//! scheduling
//!
//! * **NoC perturbations** — per-message delay jitter, bounded reordering
//!   (hold-back windows that let later messages overtake), duplication, and
//!   drop-with-timeout on retryable demand requests;
//! * **HTM best-effort events** — spurious abort storms, per-core freeze and
//!   slowdown windows, forced VSB evictions;
//! * **protocol stress** — validation-response delays (and, for directed
//!   tests, outright validation-response drops) that push chains toward the
//!   retry threshold.
//!
//! The runtime side is [`FaultState`]: the plan plus a dedicated
//! [`chats_sim::SimRng`] stream seeded from `machine seed ^ plan hash`, so
//!
//! 1. identical `(seed, plan)` pairs inject identical faults — runs are
//!    bit-reproducible, and failing schedules shrink and replay;
//! 2. the machine's own RNG stream is never touched — with no plan
//!    installed (or an [empty](FaultPlan::is_empty) one) the simulator is
//!    bit-identical to a build without this crate.
//!
//! Probabilities are integer **permille** (0–1000) so plans serialize
//! exactly and hash stably; no floats anywhere.
//!
//! # Example
//!
//! ```
//! use chats_faults::{FaultKind, FaultPlan, FaultState};
//!
//! let plan = FaultPlan::lossy_noc();
//! let text = plan.to_value().to_compact();
//! let back = FaultPlan::from_value(&serde::Value::parse(&text).unwrap()).unwrap();
//! assert_eq!(back, plan);
//! assert_eq!(back.hash(), plan.hash());
//!
//! let mut st = FaultState::new(plan, 0xC4A75);
//! let mut delayed = 0;
//! for _ in 0..1000 {
//!     if st.delay_jitter().is_some() {
//!         delayed += 1;
//!     }
//! }
//! assert!(delayed > 0);
//! assert_eq!(st.injected(FaultKind::Delay), delayed);
//! ```

use chats_sim::SimRng;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

mod hash;
pub use hash::fnv1a_64;

/// Format marker embedded in serialized plans and their canonical hash
/// text, so layout changes invalidate cache keys instead of aliasing them.
pub const FAULT_FORMAT_VERSION: u64 = 1;

/// The largest cycle count a decoded plan may give a knob (a delay,
/// window, timeout, period or duration): 2^32 cycles, above the paper
/// machine's 2·10⁹-cycle budget, so adding a knob to a cycle count can
/// never overflow.
pub const MAX_CYCLE_KNOB: u64 = 1 << 32;

/// The category of one injected fault, carried on `FaultInjected` trace
/// events and tallied by [`FaultState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FaultKind {
    /// Extra per-message NoC latency (delay jitter).
    Delay,
    /// A message held back within the reorder window, letting later
    /// messages overtake it (bounded reordering).
    Reorder,
    /// A message delivered twice (the protocol's epoch and
    /// matching guards absorb the duplicate).
    Duplicate,
    /// A retryable demand request dropped; the requester re-issues after
    /// its drop timeout.
    Drop,
    /// A spurious (environmental) transaction abort.
    SpuriousAbort,
    /// A core frozen for a window of cycles (interrupt / SMM-style).
    Freeze,
    /// A core slowed for a short window (frequency droop-style).
    Slowdown,
    /// A speculatively received line force-evicted from the VSB, aborting
    /// the consumer.
    VsbEvict,
    /// A validation response held back for extra cycles.
    ValidationDelay,
    /// A validation response dropped outright (directed hang tests — the
    /// protocol has no retry on this path; the watchdog must catch it).
    ValidationDrop,
}

impl FaultKind {
    /// Every kind, in display order.
    pub const ALL: [FaultKind; 10] = [
        FaultKind::Delay,
        FaultKind::Reorder,
        FaultKind::Duplicate,
        FaultKind::Drop,
        FaultKind::SpuriousAbort,
        FaultKind::Freeze,
        FaultKind::Slowdown,
        FaultKind::VsbEvict,
        FaultKind::ValidationDelay,
        FaultKind::ValidationDrop,
    ];

    /// Stable kebab-case label (trace displays, reports, JSON keys).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Delay => "delay",
            FaultKind::Reorder => "reorder",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Drop => "drop",
            FaultKind::SpuriousAbort => "spurious-abort",
            FaultKind::Freeze => "freeze",
            FaultKind::Slowdown => "slowdown",
            FaultKind::VsbEvict => "vsb-evict",
            FaultKind::ValidationDelay => "validation-delay",
            FaultKind::ValidationDrop => "validation-drop",
        }
    }

    fn index(self) -> usize {
        FaultKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL")
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// NoC perturbation schedule: applies to every message injected into the
/// crossbar (drops are restricted to retryable demand requests — see
/// [`FaultKind::Drop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NocFaults {
    /// Permille chance a message gets extra delay.
    pub delay_permille: u32,
    /// Maximum extra delay in cycles (uniform in `1..=delay_max`).
    pub delay_max: u64,
    /// Permille chance a message is held back a full reorder window.
    pub reorder_permille: u32,
    /// Hold-back window in cycles — messages sent up to this much later
    /// can overtake the held message.
    pub reorder_window: u64,
    /// Permille chance a message is delivered twice.
    pub duplicate_permille: u32,
    /// Permille chance a *retryable demand request* is dropped.
    pub drop_permille: u32,
    /// Requester-side retry timeout after a dropped demand request, in
    /// cycles.
    pub drop_timeout: u64,
}

/// Best-effort HTM event schedule: spurious aborts, core freezes and
/// slowdowns, forced VSB evictions. Rolled once per core-step event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HtmFaults {
    /// Permille chance (per core step, inside a storm window) that a
    /// running transaction spuriously aborts.
    pub spurious_abort_permille: u32,
    /// Storm period in cycles; `0` means spurious aborts are eligible at
    /// any time instead of only inside storm windows.
    pub storm_period: u64,
    /// Storm window length in cycles (aborts fire only while
    /// `cycle % storm_period < storm_len` when `storm_period > 0`).
    pub storm_len: u64,
    /// Permille chance (per core step) the core freezes.
    pub freeze_permille: u32,
    /// Freeze duration in cycles.
    pub freeze_cycles: u64,
    /// Permille chance (per core step) the core is briefly slowed.
    pub slowdown_permille: u32,
    /// Slowdown stall in cycles (much shorter than a freeze).
    pub slowdown_cycles: u64,
    /// Permille chance (per core step) a held VSB entry is force-evicted,
    /// aborting the consumer with a capacity cause.
    pub vsb_evict_permille: u32,
}

/// Protocol stress schedule: validation-response perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolFaults {
    /// Permille chance a validation data response is held back.
    pub validation_delay_permille: u32,
    /// Maximum validation-response hold-back in cycles (uniform in
    /// `1..=validation_delay_max`).
    pub validation_delay_max: u64,
    /// Absolute number of validation data responses to *drop* (directed
    /// hang tests; the watchdog converts the resulting livelock into a
    /// structured failure report).
    pub drop_validation_data: u64,
}

/// A complete, serializable fault schedule.
///
/// Plans are content-hashable ([`FaultPlan::hash`]) the same way runner job
/// specs are, so they participate in cache keys; an
/// [empty](FaultPlan::is_empty) plan never perturbs anything and never
/// contributes to a cache key.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Human-readable plan name (manifests, reports, artifact names).
    pub name: String,
    /// Extra salt folded into the fault RNG stream, so two otherwise
    /// identical plans can inject differently.
    pub seed_salt: u64,
    /// Progress-watchdog horizon in cycles: a non-halted core making no
    /// commit progress for this long trips the watchdog. `0` leaves the
    /// watchdog unarmed.
    pub watchdog_horizon: u64,
    /// NoC perturbations.
    pub noc: NocFaults,
    /// HTM best-effort events.
    pub htm: HtmFaults,
    /// Protocol stress.
    pub protocol: ProtocolFaults,
}

/// Reads an integer knob: a missing key is 0, but a present key of any
/// other JSON type (string, negative, fractional, boolean, ...) is an
/// error naming it, so a typo never quietly switches a fault off.
fn get_u64(m: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    m.get(key).map_or(Ok(0), |v| {
        v.as_u64().ok_or_else(|| {
            format!(
                "fault plan: '{key}' = {} is not a non-negative integer",
                v.to_compact()
            )
        })
    })
}

fn get_permille(m: &BTreeMap<String, Value>, key: &str) -> Result<u32, String> {
    let v = get_u64(m, key)?;
    if v > 1000 {
        return Err(format!("fault plan: '{key}' = {v} exceeds 1000 permille"));
    }
    Ok(v as u32)
}

/// Reads a cycle-count knob like [`get_u64`], capped at
/// [`MAX_CYCLE_KNOB`].
fn get_cycles(m: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    let v = get_u64(m, key)?;
    if v > MAX_CYCLE_KNOB {
        return Err(format!(
            "fault plan: '{key}' = {v} exceeds {MAX_CYCLE_KNOB} cycles"
        ));
    }
    Ok(v)
}

fn section<'a>(
    v: &'a Value,
    key: &str,
) -> Result<std::borrow::Cow<'a, BTreeMap<String, Value>>, String> {
    match v.as_obj().and_then(|m| m.get(key)) {
        None => Ok(std::borrow::Cow::Owned(BTreeMap::new())),
        Some(s) => s
            .as_obj()
            .map(std::borrow::Cow::Borrowed)
            .ok_or_else(|| format!("fault plan: '{key}' is not an object")),
    }
}

impl FaultPlan {
    /// `true` when the plan schedules no injection at all (probabilities
    /// and drop counters all zero). Empty plans are guaranteed not to
    /// perturb a run — embedders skip installing fault state entirely.
    /// The watchdog horizon is deliberately *not* part of emptiness: a
    /// watch-only plan observes without perturbing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.noc == NocFaults::default()
            && self.htm == HtmFaults::default()
            && self.protocol == ProtocolFaults::default()
    }

    /// Canonical text form: every knob in a fixed order. Two plans are
    /// behaviorally identical iff their canonical forms are equal, and
    /// [`FaultPlan::hash`] is FNV-1a over this text.
    #[must_use]
    pub fn canonical(&self) -> String {
        let n = &self.noc;
        let h = &self.htm;
        let p = &self.protocol;
        format!(
            "faultplan.v{FAULT_FORMAT_VERSION}|name={}|salt={}|wd={}\
             |noc={},{},{},{},{},{},{}\
             |htm={},{},{},{},{},{},{},{}\
             |proto={},{},{}",
            self.name,
            self.seed_salt,
            self.watchdog_horizon,
            n.delay_permille,
            n.delay_max,
            n.reorder_permille,
            n.reorder_window,
            n.duplicate_permille,
            n.drop_permille,
            n.drop_timeout,
            h.spurious_abort_permille,
            h.storm_period,
            h.storm_len,
            h.freeze_permille,
            h.freeze_cycles,
            h.slowdown_permille,
            h.slowdown_cycles,
            h.vsb_evict_permille,
            p.validation_delay_permille,
            p.validation_delay_max,
            p.drop_validation_data,
        )
    }

    /// Content hash of the plan (cache keys, reproducer filenames).
    #[must_use]
    pub fn hash(&self) -> u64 {
        fnv1a_64(self.canonical().as_bytes())
    }

    /// The plan as a JSON value tree (the `plans/*.json` on-disk format).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let n = &self.noc;
        let h = &self.htm;
        let p = &self.protocol;
        let noc: BTreeMap<String, Value> = [
            ("delay_permille", u64::from(n.delay_permille)),
            ("delay_max", n.delay_max),
            ("reorder_permille", u64::from(n.reorder_permille)),
            ("reorder_window", n.reorder_window),
            ("duplicate_permille", u64::from(n.duplicate_permille)),
            ("drop_permille", u64::from(n.drop_permille)),
            ("drop_timeout", n.drop_timeout),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::U64(v)))
        .collect();
        let htm: BTreeMap<String, Value> = [
            (
                "spurious_abort_permille",
                u64::from(h.spurious_abort_permille),
            ),
            ("storm_period", h.storm_period),
            ("storm_len", h.storm_len),
            ("freeze_permille", u64::from(h.freeze_permille)),
            ("freeze_cycles", h.freeze_cycles),
            ("slowdown_permille", u64::from(h.slowdown_permille)),
            ("slowdown_cycles", h.slowdown_cycles),
            ("vsb_evict_permille", u64::from(h.vsb_evict_permille)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::U64(v)))
        .collect();
        let proto: BTreeMap<String, Value> = [
            (
                "validation_delay_permille",
                u64::from(p.validation_delay_permille),
            ),
            ("validation_delay_max", p.validation_delay_max),
            ("drop_validation_data", p.drop_validation_data),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::U64(v)))
        .collect();
        Value::Obj(
            [
                ("version".to_string(), Value::U64(FAULT_FORMAT_VERSION)),
                ("name".to_string(), Value::Str(self.name.clone())),
                ("seed_salt".to_string(), Value::U64(self.seed_salt)),
                (
                    "watchdog_horizon".to_string(),
                    Value::U64(self.watchdog_horizon),
                ),
                ("noc".to_string(), Value::Obj(noc)),
                ("htm".to_string(), Value::Obj(htm)),
                ("protocol".to_string(), Value::Obj(proto)),
            ]
            .into_iter()
            .collect(),
        )
    }

    /// Inverse of [`FaultPlan::to_value`]. Missing knobs default to zero,
    /// so hand-written plans only need the faults they arm.
    ///
    /// # Errors
    ///
    /// Returns a message for non-object input, an unsupported `version`,
    /// a present key of the wrong JSON type, a permille knob above 1000,
    /// or a cycle-count knob above [`MAX_CYCLE_KNOB`].
    pub fn from_value(v: &Value) -> Result<FaultPlan, String> {
        let top = v.as_obj().ok_or("fault plan: not a JSON object")?;
        let version = match top.get("version") {
            None => FAULT_FORMAT_VERSION,
            Some(_) => get_u64(top, "version")?,
        };
        if version != FAULT_FORMAT_VERSION {
            return Err(format!("fault plan: unsupported version {version}"));
        }
        let n = section(v, "noc")?;
        let h = section(v, "htm")?;
        let p = section(v, "protocol")?;
        Ok(FaultPlan {
            name: match top.get("name") {
                None => "unnamed".to_string(),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| {
                        format!("fault plan: 'name' = {} is not a string", v.to_compact())
                    })?
                    .to_string(),
            },
            seed_salt: get_u64(top, "seed_salt")?,
            watchdog_horizon: get_cycles(top, "watchdog_horizon")?,
            noc: NocFaults {
                delay_permille: get_permille(&n, "delay_permille")?,
                delay_max: get_cycles(&n, "delay_max")?,
                reorder_permille: get_permille(&n, "reorder_permille")?,
                reorder_window: get_cycles(&n, "reorder_window")?,
                duplicate_permille: get_permille(&n, "duplicate_permille")?,
                drop_permille: get_permille(&n, "drop_permille")?,
                drop_timeout: get_cycles(&n, "drop_timeout")?,
            },
            htm: HtmFaults {
                spurious_abort_permille: get_permille(&h, "spurious_abort_permille")?,
                storm_period: get_cycles(&h, "storm_period")?,
                storm_len: get_cycles(&h, "storm_len")?,
                freeze_permille: get_permille(&h, "freeze_permille")?,
                freeze_cycles: get_cycles(&h, "freeze_cycles")?,
                slowdown_permille: get_permille(&h, "slowdown_permille")?,
                slowdown_cycles: get_cycles(&h, "slowdown_cycles")?,
                vsb_evict_permille: get_permille(&h, "vsb_evict_permille")?,
            },
            protocol: ProtocolFaults {
                validation_delay_permille: get_permille(&p, "validation_delay_permille")?,
                validation_delay_max: get_cycles(&p, "validation_delay_max")?,
                drop_validation_data: get_u64(&p, "drop_validation_data")?,
            },
        })
    }

    /// Loads a plan from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path for I/O, JSON or schema problems.
    pub fn load(path: &Path) -> Result<FaultPlan, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Value::parse(&text)
            .and_then(|v| FaultPlan::from_value(&v))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Resolves a command-line plan spec: the name of a
    /// [shipped](FaultPlan::shipped) plan, else the path of a JSON plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming `spec` when it is neither a shipped name
    /// nor a loadable plan file.
    pub fn resolve(spec: &str) -> Result<FaultPlan, String> {
        if let Some(plan) = FaultPlan::shipped().into_iter().find(|p| p.name == spec) {
            return Ok(plan);
        }
        FaultPlan::load(Path::new(spec)).map_err(|e| {
            let names: Vec<String> = FaultPlan::shipped().into_iter().map(|p| p.name).collect();
            format!(
                "fault plan '{spec}' is not a shipped plan ({}) nor a plan file: {e}",
                names.join(", ")
            )
        })
    }

    // ---- shipped plans -------------------------------------------------

    /// Shipped plan: a lossy, jittery interconnect. Delay jitter,
    /// hold-back reordering, duplicates, and demand-request drops with a
    /// requester retry timeout.
    #[must_use]
    pub fn lossy_noc() -> FaultPlan {
        FaultPlan {
            name: "lossy-noc".to_string(),
            seed_salt: 0x10c,
            watchdog_horizon: 1_000_000,
            noc: NocFaults {
                delay_permille: 60,
                delay_max: 40,
                reorder_permille: 25,
                reorder_window: 48,
                duplicate_permille: 15,
                drop_permille: 25,
                drop_timeout: 1_500,
            },
            htm: HtmFaults::default(),
            protocol: ProtocolFaults::default(),
        }
    }

    /// Shipped plan: best-effort HTM weather — periodic spurious-abort
    /// storms, occasional core freezes and slowdowns, forced VSB
    /// evictions.
    #[must_use]
    pub fn abort_storm() -> FaultPlan {
        FaultPlan {
            name: "abort-storm".to_string(),
            seed_salt: 0x5702,
            watchdog_horizon: 1_000_000,
            noc: NocFaults::default(),
            htm: HtmFaults {
                spurious_abort_permille: 8,
                storm_period: 40_000,
                storm_len: 6_000,
                freeze_permille: 2,
                freeze_cycles: 800,
                slowdown_permille: 8,
                slowdown_cycles: 64,
                vsb_evict_permille: 3,
            },
            protocol: ProtocolFaults::default(),
        }
    }

    /// Shipped plan: validation stress — validation responses held back
    /// (plus mild NoC jitter), pushing chains toward the retry threshold.
    #[must_use]
    pub fn validation_stress() -> FaultPlan {
        FaultPlan {
            name: "validation-stress".to_string(),
            seed_salt: 0x7a1,
            watchdog_horizon: 1_000_000,
            noc: NocFaults {
                delay_permille: 10,
                delay_max: 16,
                ..NocFaults::default()
            },
            htm: HtmFaults::default(),
            protocol: ProtocolFaults {
                validation_delay_permille: 120,
                validation_delay_max: 160,
                drop_validation_data: 0,
            },
        }
    }

    /// Every shipped plan (the set CI's `fault-smoke` job explores and
    /// `plans/*.json` mirrors).
    #[must_use]
    pub fn shipped() -> Vec<FaultPlan> {
        vec![
            FaultPlan::lossy_noc(),
            FaultPlan::abort_storm(),
            FaultPlan::validation_stress(),
        ]
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:016x})", self.name, self.hash())
    }
}

/// The per-run injection state machine: the plan, a **dedicated** RNG
/// stream (the machine's own RNG is never consumed), and injection
/// tallies.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
    injected: [u64; FaultKind::ALL.len()],
    val_drops_left: u64,
    dest_floor: BTreeMap<usize, u64>,
}

impl FaultState {
    /// Builds the runtime state for `plan` on a machine seeded with
    /// `machine_seed`. The fault stream is `seed ^ plan hash ^ salt`, so
    /// it is independent of (and does not perturb) the machine stream.
    #[must_use]
    pub fn new(plan: FaultPlan, machine_seed: u64) -> FaultState {
        let rng =
            SimRng::seed_from(machine_seed ^ plan.hash() ^ plan.seed_salt ^ 0xFA17_0000_0000_FA17);
        let val_drops_left = plan.protocol.drop_validation_data;
        FaultState {
            plan,
            rng,
            injected: [0; FaultKind::ALL.len()],
            val_drops_left,
            dest_floor: BTreeMap::new(),
        }
    }

    /// The installed plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injections of `kind` so far.
    #[must_use]
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()]
    }

    /// Total injections across every kind.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Per-kind injection tallies, labelled, zero entries omitted.
    #[must_use]
    pub fn injection_counts(&self) -> BTreeMap<&'static str, u64> {
        FaultKind::ALL
            .into_iter()
            .filter(|&k| self.injected(k) > 0)
            .map(|k| (k.label(), self.injected(k)))
            .collect()
    }

    /// Serializes the dynamic injection state — RNG position, tallies,
    /// the validation-drop budget and per-destination sequencing floors —
    /// prefixed by the plan hash as a guard. The plan itself is not
    /// written: a restored machine reinstalls the same plan through its
    /// run configuration before restoring this state over it.
    pub fn save_state(&self, w: &mut chats_snap::SnapWriter) {
        use chats_snap::Snap;
        w.u64(self.plan.hash());
        self.rng.save(w);
        self.injected.save(w);
        w.u64(self.val_drops_left);
        self.dest_floor.save(w);
    }

    /// Restores state captured by [`FaultState::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on a malformed stream or when the snapshot was taken under a
    /// different fault plan than the one installed here.
    pub fn restore_state(
        &mut self,
        r: &mut chats_snap::SnapReader<'_>,
    ) -> Result<(), chats_snap::SnapError> {
        use chats_snap::Snap;
        let hash = r.u64()?;
        if hash != self.plan.hash() {
            return Err(r.err(format!(
                "snapshot taken under fault plan {hash:016x}, machine runs {:016x}",
                self.plan.hash()
            )));
        }
        self.rng = Snap::load(r)?;
        self.injected = Snap::load(r)?;
        self.val_drops_left = r.u64()?;
        self.dest_floor = Snap::load(r)?;
        Ok(())
    }

    fn note(&mut self, kind: FaultKind) {
        self.injected[kind.index()] += 1;
    }

    /// One permille roll. Zero-probability knobs never touch the RNG, so
    /// plan sections left at zero cost nothing and change nothing.
    fn roll(&mut self, permille: u32) -> bool {
        permille > 0 && self.rng.chance(u64::from(permille.min(1000)), 1000)
    }

    // ---- NoC -----------------------------------------------------------

    /// Extra delay-jitter cycles for the message about to be injected, if
    /// the jitter fault fires.
    pub fn delay_jitter(&mut self) -> Option<u64> {
        if self.roll(self.plan.noc.delay_permille) {
            self.note(FaultKind::Delay);
            Some(1 + self.rng.below(self.plan.noc.delay_max.max(1)))
        } else {
            None
        }
    }

    /// Hold-back cycles for bounded reordering, if the reorder fault
    /// fires: the message is delayed a full window so later traffic can
    /// overtake it.
    pub fn reorder_hold(&mut self) -> Option<u64> {
        if self.roll(self.plan.noc.reorder_permille) {
            self.note(FaultKind::Reorder);
            Some(self.plan.noc.reorder_window.max(1))
        } else {
            None
        }
    }

    /// `true` when the message should be delivered twice.
    pub fn duplicate(&mut self) -> bool {
        let hit = self.roll(self.plan.noc.duplicate_permille);
        if hit {
            self.note(FaultKind::Duplicate);
        }
        hit
    }

    /// `true` when a retryable demand request should be dropped; the
    /// caller schedules the requester's retry after
    /// [`FaultState::drop_timeout`].
    pub fn drop_request(&mut self) -> bool {
        let hit = self.roll(self.plan.noc.drop_permille);
        if hit {
            self.note(FaultKind::Drop);
        }
        hit
    }

    /// Requester-side retry timeout after a dropped demand request.
    #[must_use]
    pub fn drop_timeout(&self) -> u64 {
        self.plan.noc.drop_timeout.max(1)
    }

    // ---- HTM -----------------------------------------------------------

    /// `true` when a running transaction should spuriously abort at
    /// cycle `now` (inside a storm window when storms are configured).
    pub fn spurious_abort(&mut self, now: u64) -> bool {
        let p = &self.plan.htm;
        if p.storm_period > 0 && now % p.storm_period >= p.storm_len {
            return false;
        }
        let hit = self.roll(p.spurious_abort_permille);
        if hit {
            self.note(FaultKind::SpuriousAbort);
        }
        hit
    }

    /// Freeze window length, if the freeze fault fires on this core step.
    pub fn freeze(&mut self) -> Option<u64> {
        if self.roll(self.plan.htm.freeze_permille) {
            self.note(FaultKind::Freeze);
            Some(self.plan.htm.freeze_cycles.max(1))
        } else {
            None
        }
    }

    /// Slowdown stall length, if the slowdown fault fires on this core
    /// step.
    pub fn slowdown(&mut self) -> Option<u64> {
        if self.roll(self.plan.htm.slowdown_permille) {
            self.note(FaultKind::Slowdown);
            Some(self.plan.htm.slowdown_cycles.max(1))
        } else {
            None
        }
    }

    /// `true` when a held VSB entry should be force-evicted on this core
    /// step.
    pub fn vsb_evict(&mut self) -> bool {
        let hit = self.roll(self.plan.htm.vsb_evict_permille);
        if hit {
            self.note(FaultKind::VsbEvict);
        }
        hit
    }

    // ---- protocol ------------------------------------------------------

    /// Extra hold-back cycles for a validation data response, if the
    /// validation-delay fault fires.
    pub fn validation_delay(&mut self) -> Option<u64> {
        if self.roll(self.plan.protocol.validation_delay_permille) {
            self.note(FaultKind::ValidationDelay);
            Some(
                1 + self
                    .rng
                    .below(self.plan.protocol.validation_delay_max.max(1)),
            )
        } else {
            None
        }
    }

    /// `true` when a validation data response should be dropped outright
    /// (consumes one unit of the plan's drop budget).
    pub fn drop_validation_data(&mut self) -> bool {
        if self.val_drops_left == 0 {
            return false;
        }
        self.val_drops_left -= 1;
        self.note(FaultKind::ValidationDrop);
        true
    }

    // ---- delivery sequencing -------------------------------------------

    /// Clamps a perturbed arrival time so messages reach `dest` in send
    /// order. The modeled coherence protocol — like any NoC with
    /// point-to-point ordering — depends on a response sent *before* a
    /// probe/invalidation arriving before it; naively jittering arrival
    /// times would let the later control message overtake the data and
    /// silently break coherence (the injection layer must perturb timing,
    /// not correctness). Delayed messages therefore hold back everything
    /// behind them to the same destination, while traffic to *other*
    /// nodes still overtakes freely — that is the bounded reordering the
    /// reorder knob models.
    pub fn sequence(&mut self, dest: usize, arrive: u64) -> u64 {
        let floor = self.dest_floor.entry(dest).or_insert(0);
        let at = arrive.max(*floor);
        *floor = at;
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_watch_only_plan_too() {
        assert!(FaultPlan::default().is_empty());
        let watch_only = FaultPlan {
            watchdog_horizon: 500,
            ..FaultPlan::default()
        };
        assert!(watch_only.is_empty());
        assert!(!FaultPlan::lossy_noc().is_empty());
    }

    #[test]
    fn resolve_takes_a_shipped_name_or_a_plan_file() {
        assert_eq!(
            FaultPlan::resolve("lossy-noc").unwrap(),
            FaultPlan::lossy_noc()
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../plans/abort-storm.json");
        assert_eq!(FaultPlan::resolve(path).unwrap(), FaultPlan::abort_storm());
        let err = FaultPlan::resolve("no-such-plan").unwrap_err();
        assert!(err.contains("'no-such-plan'"), "{err}");
    }

    #[test]
    fn shipped_plans_round_trip_and_hash_distinctly() {
        let mut hashes = std::collections::HashSet::new();
        for plan in FaultPlan::shipped() {
            let text = plan.to_value().to_compact();
            let back = FaultPlan::from_value(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(back, plan, "{} must round-trip", plan.name);
            assert!(hashes.insert(plan.hash()), "{} hash collides", plan.name);
        }
    }

    #[test]
    fn missing_knobs_default_to_zero() {
        let v = Value::parse(r#"{"name":"tiny","noc":{"drop_permille":5,"drop_timeout":100}}"#)
            .unwrap();
        let p = FaultPlan::from_value(&v).unwrap();
        assert_eq!(p.name, "tiny");
        assert_eq!(p.noc.drop_permille, 5);
        assert_eq!(p.noc.delay_permille, 0);
        assert_eq!(p.htm, HtmFaults::default());
        assert!(!p.is_empty());
    }

    #[test]
    fn out_of_range_or_mistyped_knobs_are_rejected() {
        for (json, key) in [
            (r#"{"noc":{"drop_permille":1001}}"#, "drop_permille"),
            (r#"{"noc":{"drop_permille":"50"}}"#, "drop_permille"),
            (r#"{"noc":{"drop_permille":-3}}"#, "drop_permille"),
            (r#"{"noc":{"drop_permille":1.5}}"#, "drop_permille"),
            (r#"{"noc":{"drop_permille":true}}"#, "drop_permille"),
            (r#"{"htm":{"freeze_cycles":"100"}}"#, "freeze_cycles"),
            (r#"{"seed_salt":"x"}"#, "seed_salt"),
            (r#"{"version":"2"}"#, "version"),
            (r#"{"name":7}"#, "name"),
        ] {
            let v = Value::parse(json).unwrap();
            let err = FaultPlan::from_value(&v).unwrap_err();
            assert!(err.contains(key), "{json}: {err}");
        }
    }

    #[test]
    fn state_is_deterministic_per_seed_and_diverges_across_seeds() {
        let drain = |seed: u64| {
            let mut st = FaultState::new(FaultPlan::lossy_noc(), seed);
            (0..256)
                .map(|_| (st.delay_jitter(), st.duplicate(), st.drop_request()))
                .collect::<Vec<_>>()
        };
        assert_eq!(drain(1), drain(1));
        assert_ne!(drain(1), drain(2));
    }

    #[test]
    fn zero_probability_sections_never_touch_the_rng() {
        // An all-zero plan's helpers must not consume RNG state: two
        // states fed disjoint call sequences stay in lockstep.
        let plan = FaultPlan {
            name: "zero".to_string(),
            ..FaultPlan::default()
        };
        let mut a = FaultState::new(plan.clone(), 9);
        let mut b = FaultState::new(plan, 9);
        for _ in 0..64 {
            assert!(a.delay_jitter().is_none());
            assert!(!a.duplicate());
        }
        assert!(!b.spurious_abort(0));
        assert_eq!(a.injected_total(), 0);
        assert_eq!(b.injected_total(), 0);
    }

    #[test]
    fn storms_gate_spurious_aborts() {
        let plan = FaultPlan {
            htm: HtmFaults {
                spurious_abort_permille: 1000,
                storm_period: 100,
                storm_len: 10,
                ..HtmFaults::default()
            },
            ..FaultPlan::default()
        };
        let mut st = FaultState::new(plan, 3);
        assert!(st.spurious_abort(5), "inside the storm window");
        assert!(!st.spurious_abort(50), "outside the storm window");
        assert!(st.spurious_abort(105), "next storm");
    }

    #[test]
    fn validation_drop_budget_is_finite() {
        let plan = FaultPlan {
            protocol: ProtocolFaults {
                drop_validation_data: 2,
                ..ProtocolFaults::default()
            },
            ..FaultPlan::default()
        };
        let mut st = FaultState::new(plan, 0);
        assert!(st.drop_validation_data());
        assert!(st.drop_validation_data());
        assert!(!st.drop_validation_data());
        assert_eq!(st.injected(FaultKind::ValidationDrop), 2);
    }

    #[test]
    fn injection_counts_are_labelled_and_sparse() {
        let mut st = FaultState::new(FaultPlan::lossy_noc(), 7);
        for _ in 0..2000 {
            let _ = st.delay_jitter();
        }
        let counts = st.injection_counts();
        assert_eq!(counts.get("delay"), Some(&st.injected(FaultKind::Delay)));
        assert!(!counts.contains_key("freeze"));
    }

    #[test]
    fn canonical_tracks_every_knob() {
        let base = FaultPlan::lossy_noc();
        let mut tweaked = base.clone();
        tweaked.htm.storm_len = 1;
        assert_ne!(base.canonical(), tweaked.canonical());
        assert_ne!(base.hash(), tweaked.hash());
    }

    #[test]
    fn kind_labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            FaultKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), FaultKind::ALL.len());
    }
}
