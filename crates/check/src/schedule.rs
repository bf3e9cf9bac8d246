//! Schedules: how the decision stream of a run is resolved.
//!
//! A [`Schedule`] is a replayed `prefix` of explicit choices followed by a
//! [`Tail`] policy for every decision past the prefix. The all-default
//! schedule (`prefix = []`, `Tail::Default`) reproduces the unhooked
//! simulator bit-exactly. The machine is deterministic given its choices,
//! so a schedule is its own reproducer: running it again replays the same
//! run. A [`Recorder`] turns a run's resolved decisions into a trace,
//! which replayed as the prefix reproduces that run under the default tail.

use chats_machine::DecisionHook;
use chats_sim::{DecisionKind, DecisionRecord, SimRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared recorder a schedule hook appends every resolved decision to.
///
/// Lives *outside* the machine so the trace survives a panicking run
/// (the machine is consumed by `catch_unwind`).
pub type Recorder = Rc<RefCell<Vec<DecisionRecord>>>;

/// A recorded trace as a replayable choice vector (the prefix of
/// [`Schedule::replay`]).
#[must_use]
pub fn choices(trace: &[DecisionRecord]) -> Vec<u32> {
    trace.iter().map(|d| d.chosen).collect()
}

/// A targeted adversarial tail: one decision kind is forced to its most
/// hostile non-default choice, everything else stays default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Starve validation: every `ValidationPacing` decision picks the 8×
    /// delay, so forwarded data is validated as late as possible.
    DelayValidation,
    /// Defer every commit-ready transaction (up to the machine's cap), so
    /// chain tails race their head's retirement.
    DeferCommits,
    /// NACK every conflicting request instead of forwarding, collapsing
    /// chains into retry storms.
    StarveForwards,
}

impl Attack {
    /// Every attack, in a stable order.
    pub const ALL: [Attack; 3] = [
        Attack::DelayValidation,
        Attack::DeferCommits,
        Attack::StarveForwards,
    ];

    /// Stable name (manifests and log lines).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Attack::DelayValidation => "delay-validation",
            Attack::DeferCommits => "defer-commits",
            Attack::StarveForwards => "starve-forwards",
        }
    }

    fn choice(self, kind: DecisionKind) -> u32 {
        match (self, kind) {
            (Attack::DelayValidation, DecisionKind::ValidationPacing)
            | (Attack::DeferCommits, DecisionKind::CommitRelease)
            | (Attack::StarveForwards, DecisionKind::ConflictAction) => 1,
            _ => 0,
        }
    }
}

/// Policy for decisions beyond the replayed prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tail {
    /// Choice 0 everywhere — the unhooked machine's behaviour.
    Default,
    /// Seeded random walk, biased 50% toward the default so runs stay
    /// productive instead of livelocking on pure hostility.
    Random {
        /// Walk seed (independent of the machine seed).
        seed: u64,
    },
    /// A targeted [`Attack`].
    Attacked(Attack),
}

/// A complete schedule: explicit prefix plus tail policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Choices for decisions `0..prefix.len()` (clamped to each decision's
    /// fan-out when applied).
    pub prefix: Vec<u32>,
    /// Everything after the prefix.
    pub tail: Tail,
}

impl Schedule {
    /// The baseline schedule: no perturbation anywhere.
    #[must_use]
    pub fn baseline() -> Schedule {
        Schedule {
            prefix: Vec::new(),
            tail: Tail::Default,
        }
    }

    /// Replays `prefix`, then defaults — the reproducer schedule.
    #[must_use]
    pub fn replay(prefix: Vec<u32>) -> Schedule {
        Schedule {
            prefix,
            tail: Tail::Default,
        }
    }

    /// A seeded random walk from decision 0.
    #[must_use]
    pub fn random(seed: u64) -> Schedule {
        Schedule {
            prefix: Vec::new(),
            tail: Tail::Random { seed },
        }
    }

    /// A targeted attack from decision 0.
    #[must_use]
    pub fn attack(a: Attack) -> Schedule {
        Schedule {
            prefix: Vec::new(),
            tail: Tail::Attacked(a),
        }
    }

    /// Short description for manifests and failure reports.
    #[must_use]
    pub fn describe(&self) -> String {
        let tail = match &self.tail {
            Tail::Default => "default".to_string(),
            Tail::Random { seed } => format!("random(seed={seed})"),
            Tail::Attacked(a) => format!("attack({})", a.label()),
        };
        if self.prefix.is_empty() {
            tail
        } else {
            format!("prefix[{}]+{tail}", self.prefix.len())
        }
    }

    /// Builds the machine hook implementing this schedule. With a
    /// `recorder`, every resolved decision (prefix and tail alike) is
    /// appended to it, so the recorded trace replayed via
    /// [`Schedule::replay`] reproduces the run.
    #[must_use]
    pub fn hook(&self, recorder: Option<Recorder>) -> DecisionHook {
        let prefix = self.prefix.clone();
        let tail = self.tail.clone();
        let mut rng = match tail {
            Tail::Random { seed } => Some(SimRng::seed_from(seed)),
            _ => None,
        };
        Box::new(move |point, choices| {
            let idx = usize::try_from(point.index).expect("decision index fits usize");
            let raw = if idx < prefix.len() {
                prefix[idx]
            } else {
                match &tail {
                    Tail::Default => 0,
                    Tail::Random { .. } => {
                        let r = rng.as_mut().expect("rng armed for random tail");
                        if r.chance(1, 2) {
                            0
                        } else {
                            r.below(u64::from(choices)) as u32
                        }
                    }
                    Tail::Attacked(a) => a.choice(point.kind),
                }
            };
            let chosen = raw.min(choices.saturating_sub(1));
            if let Some(recorder) = &recorder {
                recorder.borrow_mut().push(DecisionRecord {
                    kind: point.kind,
                    choices,
                    chosen,
                });
            }
            chosen
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chats_sim::DecisionPoint;

    fn point(index: u64, kind: DecisionKind) -> DecisionPoint {
        DecisionPoint {
            index,
            kind,
            core: None,
        }
    }

    #[test]
    fn prefix_wins_then_tail_takes_over() {
        let rec: Recorder = Recorder::default();
        let mut h = Schedule::replay(vec![2, 9]).hook(Some(Rc::clone(&rec)));
        assert_eq!(h(&point(0, DecisionKind::TieBreak), 4), 2);
        assert_eq!(h(&point(1, DecisionKind::TieBreak), 4), 3); // 9 clamps
        assert_eq!(h(&point(2, DecisionKind::TieBreak), 4), 0); // tail default
        let log = rec.borrow();
        assert_eq!(log.len(), 3);
        assert_eq!(log[1].chosen, 3);
        assert_eq!(log[1].choices, 4);
    }

    #[test]
    fn attacks_only_touch_their_kind() {
        for a in Attack::ALL {
            let mut h = Schedule::attack(a).hook(None);
            let hit: Vec<DecisionKind> = DecisionKind::ALL
                .into_iter()
                .filter(|&k| h(&point(0, k), 3) != 0)
                .collect();
            assert_eq!(hit.len(), 1, "{a:?} must perturb exactly one kind");
        }
    }

    #[test]
    fn random_tail_is_reproducible_and_in_range() {
        let run = |seed| {
            let mut h = Schedule::random(seed).hook(None);
            (0..64)
                .map(|i| h(&point(i, DecisionKind::TieBreak), 3))
                .collect::<Vec<u32>>()
        };
        let a = run(7);
        assert_eq!(a, run(7));
        assert_ne!(a, run(8), "different walk seeds should diverge");
        assert!(a.iter().all(|&c| c < 3));
        assert!(a.iter().any(|&c| c != 0), "walk never perturbs anything");
    }

    #[test]
    fn describe_is_compact() {
        assert_eq!(Schedule::baseline().describe(), "default");
        assert_eq!(Schedule::replay(vec![0, 1]).describe(), "prefix[2]+default");
        assert_eq!(
            Schedule::attack(Attack::DeferCommits).describe(),
            "attack(defer-commits)"
        );
    }
}
