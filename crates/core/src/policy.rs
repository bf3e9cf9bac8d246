//! The six evaluated HTM systems and their configuration (Table II).

use std::fmt;

/// Which transactional blocks are eligible for speculative forwarding
/// (§VI-D "Blocks that can be forwarded").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForwardSet {
    /// `R/W`: read- and write-set blocks may be forwarded.
    ReadWrite,
    /// `W`: only write-set blocks may be forwarded.
    WriteOnly,
    /// `Rrestrict/W`: read- and write-set blocks, but a heuristic skips
    /// blocks with an in-flight local exclusive request (they are about to
    /// be overwritten, so forwarding them would just seed misvalidations).
    RestrictedReadWrite,
}

impl ForwardSet {
    /// `true` if read-set (unmodified) blocks may be forwarded at all.
    #[must_use]
    pub fn forwards_read_set(self) -> bool {
        !matches!(self, ForwardSet::WriteOnly)
    }

    /// `true` if the in-flight-GETX heuristic applies.
    #[must_use]
    pub fn restricts_inflight_writes(self) -> bool {
        matches!(self, ForwardSet::RestrictedReadWrite)
    }

    /// Table/figure label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ForwardSet::ReadWrite => "R/W",
            ForwardSet::WriteOnly => "W",
            ForwardSet::RestrictedReadWrite => "Rrestrict/W",
        }
    }
}

impl fmt::Display for ForwardSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The HTM system under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HtmSystem {
    /// Intel-RTM-like best-effort baseline: requester-wins, lazy
    /// versioning, eager conflict detection.
    Baseline,
    /// Naive requester-speculates: always forward, bounded-misvalidation
    /// escape counter.
    NaiveRs,
    /// CHATS: PiC-guided chaining (the paper's proposal).
    Chats,
    /// PowerTM-style dual priority with nacks, no forwarding.
    Power,
    /// CHATS combined with PowerTM (power transactions produce only).
    Pchats,
    /// Best-effort adaptation of LEVC with idealized timestamps.
    LevcBeIdealized,
}

impl HtmSystem {
    /// All systems in the paper's plotting order.
    pub const ALL: [HtmSystem; 6] = [
        HtmSystem::Baseline,
        HtmSystem::NaiveRs,
        HtmSystem::Chats,
        HtmSystem::Power,
        HtmSystem::Pchats,
        HtmSystem::LevcBeIdealized,
    ];

    /// Figure label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HtmSystem::Baseline => "Baseline",
            HtmSystem::NaiveRs => "Naive R-S",
            HtmSystem::Chats => "CHATS",
            HtmSystem::Power => "Power",
            HtmSystem::Pchats => "PCHATS",
            HtmSystem::LevcBeIdealized => "LEVC-BE-Id",
        }
    }

    /// Command-line name: the system half of a job label
    /// (`kmeans-h/chats`), by which every binary names a run, and the
    /// `chats-bench` case name. `str::parse::<HtmSystem>` is the exact
    /// inverse.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HtmSystem::Baseline => "baseline",
            HtmSystem::NaiveRs => "naive-rs",
            HtmSystem::Chats => "chats",
            HtmSystem::Power => "power",
            HtmSystem::Pchats => "pchats",
            HtmSystem::LevcBeIdealized => "levc",
        }
    }

    /// `true` for systems that can forward speculative values.
    #[must_use]
    pub fn forwards(self) -> bool {
        !matches!(self, HtmSystem::Baseline | HtmSystem::Power)
    }

    /// `true` for systems using the power token.
    #[must_use]
    pub fn uses_power_token(self) -> bool {
        matches!(self, HtmSystem::Power | HtmSystem::Pchats)
    }
}

impl fmt::Display for HtmSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for HtmSystem {
    type Err = String;

    /// Parses a [`HtmSystem::name`], exactly (no aliases, case-sensitive).
    fn from_str(name: &str) -> Result<HtmSystem, String> {
        HtmSystem::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = HtmSystem::ALL.iter().map(|s| s.name()).collect();
                format!("unknown system '{name}' (one of {})", names.join(", "))
            })
    }
}

/// Full per-system configuration: Table II of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// The system being run.
    pub system: HtmSystem,
    /// Forwardable-block selection (meaningless for non-forwarding systems).
    pub forward_set: ForwardSet,
    /// Transactional retries before the fallback path.
    pub retries: u32,
    /// VSB entries (max simultaneously speculated blocks).
    pub vsb_size: usize,
    /// Cycles between validation probes; `0` means validation only happens
    /// when commit is attempted (the LEVC-BE-Idealized setting).
    pub validation_interval: u64,
    /// Conflict-induced aborts before requesting the power token
    /// (power-based systems only).
    pub power_threshold: u32,
    /// Bits of the naive misvalidation counter (Naive R-S only).
    pub naive_counter_bits: u32,
    /// Design-choice ablations (all off in the paper's configurations).
    pub ablation: Ablation,
    /// PiC register width in bits (the paper uses 5); the usable range is
    /// `2^bits - 1` positions plus the reserved PiC∅ encoding.
    pub pic_bits: u32,
}

/// Ablations of individual CHATS design choices, used by the ablation
/// harness to quantify what each mechanism contributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ablation {
    /// Disable the Fig. 3F rule: a transaction whose consumptions are all
    /// validated may NOT raise its PiC past a higher requester; the
    /// conflict resolves requester-wins instead. Quantifies how much of
    /// CHATS's win comes from letting chains re-link after validation.
    pub no_pic_overtake: bool,
    /// Restrict chains to a single link, like prior work (LEVC): a
    /// transaction already in a chain (set PiC) never forwards again.
    /// Quantifies the value of arbitrary-length chains.
    pub single_link_chains: bool,
}

impl PolicyConfig {
    /// The Table II configuration for `system`.
    #[must_use]
    pub fn for_system(system: HtmSystem) -> PolicyConfig {
        let base = PolicyConfig {
            system,
            forward_set: ForwardSet::RestrictedReadWrite,
            retries: 6,
            vsb_size: 4,
            validation_interval: 50,
            power_threshold: 2,
            naive_counter_bits: 4,
            ablation: Ablation::default(),
            pic_bits: 5,
        };
        match system {
            HtmSystem::Baseline => PolicyConfig { retries: 6, ..base },
            HtmSystem::NaiveRs => PolicyConfig { retries: 2, ..base },
            HtmSystem::Chats => PolicyConfig {
                retries: 32,
                ..base
            },
            HtmSystem::Power => PolicyConfig { retries: 2, ..base },
            HtmSystem::Pchats => PolicyConfig { retries: 1, ..base },
            HtmSystem::LevcBeIdealized => PolicyConfig {
                retries: 64,
                validation_interval: 0,
                ..base
            },
        }
    }

    /// Builder-style override of the retry threshold (Fig. 9 sweeps).
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> PolicyConfig {
        self.retries = retries;
        self
    }

    /// Builder-style override of the VSB size (Fig. 10 sweeps).
    #[must_use]
    pub fn with_vsb_size(mut self, vsb_size: usize) -> PolicyConfig {
        self.vsb_size = vsb_size;
        self
    }

    /// Builder-style override of the validation interval (Fig. 10 sweeps).
    #[must_use]
    pub fn with_validation_interval(mut self, interval: u64) -> PolicyConfig {
        self.validation_interval = interval;
        self
    }

    /// Builder-style override of the forwardable-block set (Fig. 8 sweeps).
    #[must_use]
    pub fn with_forward_set(mut self, fs: ForwardSet) -> PolicyConfig {
        self.forward_set = fs;
        self
    }

    /// Builder-style override of the ablation flags.
    #[must_use]
    pub fn with_ablation(mut self, ablation: Ablation) -> PolicyConfig {
        self.ablation = ablation;
        self
    }

    /// Builder-style override of the PiC register width (the PiC-width
    /// sensitivity experiment).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=7`.
    #[must_use]
    pub fn with_pic_bits(mut self, bits: u32) -> PolicyConfig {
        assert!((2..=7).contains(&bits), "PiC width {bits} out of 2..=7");
        self.pic_bits = bits;
        self
    }

    /// Usable PiC positions for the configured register width.
    #[must_use]
    pub fn pic_range(&self) -> u8 {
        ((1u32 << self.pic_bits) - 1) as u8
    }

    /// Every field as `key=value`, comma-separated, in declaration order;
    /// enums by [`HtmSystem::name`] and [`ForwardSet::label`]. Part of the
    /// runner's job ids and the machine's checkpoint guard. The
    /// destructuring names every field, so adding, removing or renaming
    /// one does not compile until this encoding is edited.
    #[must_use]
    pub fn canonical(&self) -> String {
        let PolicyConfig {
            system,
            forward_set,
            retries,
            vsb_size,
            validation_interval,
            power_threshold,
            naive_counter_bits,
            ablation:
                Ablation {
                    no_pic_overtake,
                    single_link_chains,
                },
            pic_bits,
        } = *self;
        format!(
            "system={},forward_set={},retries={retries},vsb_size={vsb_size},\
             validation_interval={validation_interval},power_threshold={power_threshold},\
             naive_counter_bits={naive_counter_bits},no_pic_overtake={no_pic_overtake},\
             single_link_chains={single_link_chains},pic_bits={pic_bits}",
            system.name(),
            forward_set.label(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_two_retries() {
        assert_eq!(PolicyConfig::for_system(HtmSystem::Baseline).retries, 6);
        assert_eq!(PolicyConfig::for_system(HtmSystem::NaiveRs).retries, 2);
        assert_eq!(PolicyConfig::for_system(HtmSystem::Chats).retries, 32);
        assert_eq!(PolicyConfig::for_system(HtmSystem::Power).retries, 2);
        assert_eq!(PolicyConfig::for_system(HtmSystem::Pchats).retries, 1);
        assert_eq!(
            PolicyConfig::for_system(HtmSystem::LevcBeIdealized).retries,
            64
        );
    }

    #[test]
    fn table_two_vsb_and_validation() {
        for s in [HtmSystem::NaiveRs, HtmSystem::Chats, HtmSystem::Pchats] {
            let c = PolicyConfig::for_system(s);
            assert_eq!(c.vsb_size, 4);
            assert_eq!(c.validation_interval, 50);
        }
        let levc = PolicyConfig::for_system(HtmSystem::LevcBeIdealized);
        assert_eq!(levc.vsb_size, 4);
        assert_eq!(levc.validation_interval, 0);
    }

    #[test]
    fn system_names_round_trip() {
        let names: Vec<&str> = HtmSystem::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["baseline", "naive-rs", "chats", "power", "pchats", "levc"]
        );
        for s in HtmSystem::ALL {
            assert_eq!(s.name().parse::<HtmSystem>(), Ok(s));
        }
        for junk in ["", "CHATS", "naive", "naivers", "levc-be", "all"] {
            let err = junk.parse::<HtmSystem>().unwrap_err();
            assert!(err.contains("naive-rs, chats"), "{err}");
        }
    }

    #[test]
    fn forwarding_capability_matches_paper() {
        assert!(!HtmSystem::Baseline.forwards());
        assert!(!HtmSystem::Power.forwards());
        assert!(HtmSystem::Chats.forwards());
        assert!(HtmSystem::Pchats.forwards());
        assert!(HtmSystem::NaiveRs.forwards());
        assert!(HtmSystem::LevcBeIdealized.forwards());
    }

    #[test]
    fn power_token_usage() {
        assert!(HtmSystem::Power.uses_power_token());
        assert!(HtmSystem::Pchats.uses_power_token());
        assert!(!HtmSystem::Chats.uses_power_token());
    }

    #[test]
    fn forward_set_predicates() {
        assert!(ForwardSet::ReadWrite.forwards_read_set());
        assert!(!ForwardSet::WriteOnly.forwards_read_set());
        assert!(ForwardSet::RestrictedReadWrite.forwards_read_set());
        assert!(ForwardSet::RestrictedReadWrite.restricts_inflight_writes());
        assert!(!ForwardSet::ReadWrite.restricts_inflight_writes());
    }

    #[test]
    fn builders_override() {
        let c = PolicyConfig::for_system(HtmSystem::Chats)
            .with_retries(8)
            .with_vsb_size(16)
            .with_validation_interval(200)
            .with_forward_set(ForwardSet::WriteOnly);
        assert_eq!(c.retries, 8);
        assert_eq!(c.vsb_size, 16);
        assert_eq!(c.validation_interval, 200);
        assert_eq!(c.forward_set, ForwardSet::WriteOnly);
    }

    #[test]
    fn pic_width_defaults_to_five_bits() {
        let c = PolicyConfig::for_system(HtmSystem::Chats);
        assert_eq!(c.pic_bits, 5);
        assert_eq!(c.pic_range(), 31);
        assert_eq!(c.with_pic_bits(3).pic_range(), 7);
    }

    #[test]
    #[should_panic(expected = "out of 2..=7")]
    fn pic_width_bounds_enforced() {
        let _ = PolicyConfig::for_system(HtmSystem::Chats).with_pic_bits(8);
    }

    #[test]
    fn ablations_default_off() {
        let c = PolicyConfig::for_system(HtmSystem::Chats);
        assert!(!c.ablation.no_pic_overtake);
        assert!(!c.ablation.single_link_chains);
        let ab = Ablation {
            no_pic_overtake: true,
            single_link_chains: false,
        };
        assert!(c.with_ablation(ab).ablation.no_pic_overtake);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = HtmSystem::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), HtmSystem::ALL.len());
    }
}
