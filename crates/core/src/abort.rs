//! Abort-cause taxonomy.
//!
//! Figure 5 of the paper splits aborted transactions by the reason that
//! caused the abort; this enum is that split, shared by the HTM engine and
//! the statistics layer.

use std::fmt;

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AbortCause {
    /// A conflicting access resolved against this transaction
    /// (requester-wins victim, power-transaction priority, ...).
    Conflict,
    /// A write-set or speculatively received line was evicted from L1.
    Capacity,
    /// Value-based validation found a mismatch: the consumed speculative
    /// value turned out wrong (producer overwrote it, aborted, or a third
    /// writer intervened).
    ValidationMismatch,
    /// The PiC (or, for LEVC, timestamp) cycle check fired during
    /// validation or `SpecResp` reception.
    CycleDetected,
    /// The naive requester-speculates misvalidation counter reached zero.
    ValidationBudgetExhausted,
    /// Another thread acquired the fallback lock this transaction had
    /// eagerly subscribed to.
    FallbackLock,
    /// Explicit user abort or an unmodelled condition.
    Other,
}

impl AbortCause {
    /// All causes, in the display order used by the Figure 5 harness.
    pub const ALL: [AbortCause; 7] = [
        AbortCause::Conflict,
        AbortCause::Capacity,
        AbortCause::ValidationMismatch,
        AbortCause::CycleDetected,
        AbortCause::ValidationBudgetExhausted,
        AbortCause::FallbackLock,
        AbortCause::Other,
    ];

    /// Short label used in tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::Conflict => "conflict",
            AbortCause::Capacity => "capacity",
            AbortCause::ValidationMismatch => "val-mismatch",
            AbortCause::CycleDetected => "cycle",
            AbortCause::ValidationBudgetExhausted => "val-budget",
            AbortCause::FallbackLock => "fallback-lock",
            AbortCause::Other => "other",
        }
    }
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn labels_are_unique() {
        let labels: HashSet<&str> = AbortCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), AbortCause::ALL.len());
    }

    #[test]
    fn display_matches_label() {
        for c in AbortCause::ALL {
            assert_eq!(c.to_string(), c.label());
        }
    }
}
