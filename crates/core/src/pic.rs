//! The *Position in Chain* (PiC) register.
//!
//! Each core carries one 5-bit PiC plus a one-bit `Cons` flag (§IV). The
//! PiC encodes imprecise-but-sufficient information about the transaction's
//! position in a chain of forwardings: if set, it is strictly greater than
//! the PiC of every transaction that has received speculative data from it.
//! One encoding is reserved for "not part of any chain" (PiC∅).

use std::fmt;

/// Number of usable PiC values in the paper's default configuration
/// (5-bit register, one encoding reserved for the unset state).
pub const PIC_RANGE: u8 = 31;

/// Hard encoding ceiling: whatever register width an experiment
/// configures, values must fit one byte with one encoding reserved for
/// PiC∅.
pub const PIC_ENCODING_LIMIT: u8 = u8::MAX;

/// A Position-in-Chain value: either unset (PiC∅) or a number in
/// `0..=PIC_RANGE-1`.
///
/// The initial value [`Pic::INIT`] sits in the middle of the range so chains
/// can grow from either end (§IV-C).
///
/// # Example
///
/// ```
/// use chats_core::Pic;
/// let p = Pic::INIT;
/// assert_eq!(p.decremented(), Some(Pic::new(14)));
/// assert!(Pic::unset().is_unset());
/// assert!(Pic::new(0).decremented().is_none()); // underflow
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub struct Pic(Option<u8>);

impl Pic {
    /// The middle-of-range initial value taken by a fresh producer.
    pub const INIT: Pic = Pic(Some(PIC_RANGE / 2));

    /// The unset value PiC∅: not part of any chain.
    #[must_use]
    pub const fn unset() -> Pic {
        Pic(None)
    }

    /// A set PiC with the given position.
    ///
    /// # Panics
    ///
    /// Panics if `v >= PIC_ENCODING_LIMIT` (reserved for PiC∅).
    #[must_use]
    pub fn new(v: u8) -> Pic {
        assert!(
            v < PIC_ENCODING_LIMIT,
            "PiC value {v} exceeds the encoding limit"
        );
        Pic(Some(v))
    }

    /// The middle-of-range initial value for a register with `range`
    /// usable positions (the width-sensitivity experiments; the default
    /// register uses [`Pic::INIT`]).
    ///
    /// # Panics
    ///
    /// Panics if `range < 3` (chains need at least producer, middle and
    /// consumer positions) or `range >= PIC_ENCODING_LIMIT`.
    #[must_use]
    pub fn init_for(range: u8) -> Pic {
        assert!(
            (3..PIC_ENCODING_LIMIT).contains(&range),
            "unusable PiC range {range}"
        );
        Pic(Some(range / 2))
    }

    /// `true` for PiC∅.
    #[must_use]
    pub fn is_unset(self) -> bool {
        self.0.is_none()
    }

    /// `true` when part of a chain.
    #[must_use]
    pub fn is_set(self) -> bool {
        self.0.is_some()
    }

    /// The numeric position, if set.
    #[must_use]
    pub fn value(self) -> Option<u8> {
        self.0
    }

    /// One position lower (a consumer's PiC), or `None` on underflow —
    /// underflow forces the requester-wins policy (§IV-C).
    #[must_use]
    pub fn decremented(self) -> Option<Pic> {
        match self.0 {
            Some(0) | None => None,
            Some(v) => Some(Pic(Some(v - 1))),
        }
    }

    /// One position higher (a producer overtaking a requester), or `None`
    /// on overflow past the default 5-bit range — overflow forces the
    /// requester-wins policy (§IV-C).
    #[must_use]
    pub fn incremented(self) -> Option<Pic> {
        self.incremented_within(PIC_RANGE)
    }

    /// One position higher within a register of `range` usable positions,
    /// or `None` on overflow.
    #[must_use]
    pub fn incremented_within(self, range: u8) -> Option<Pic> {
        match self.0 {
            None => None,
            Some(v) if v + 1 >= range => None,
            Some(v) => Some(Pic(Some(v + 1))),
        }
    }

    /// Resets to PiC∅ (transaction commit or abort).
    pub fn reset(&mut self) {
        self.0 = None;
    }
}

impl Default for Pic {
    fn default() -> Pic {
        Pic::unset()
    }
}

impl serde::Deserialize for Pic {
    fn from_value(v: &serde::Value) -> Result<Pic, String> {
        match Option::<u8>::from_value(v)? {
            Some(PIC_ENCODING_LIMIT) => {
                Err("PiC value collides with the reserved unset encoding".to_string())
            }
            raw => Ok(Pic(raw)),
        }
    }
}

impl chats_snap::Snap for Pic {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        self.0.save(w);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        let v: Option<u8> = chats_snap::Snap::load(r)?;
        if v == Some(PIC_ENCODING_LIMIT) {
            return Err(r.err("PiC value collides with the reserved unset encoding"));
        }
        Ok(Pic(v))
    }
}

impl chats_snap::Snap for PicContext {
    fn save(&self, w: &mut chats_snap::SnapWriter) {
        self.pic.save(w);
        self.cons.save(w);
    }
    fn load(r: &mut chats_snap::SnapReader<'_>) -> Result<Self, chats_snap::SnapError> {
        Ok(PicContext {
            pic: chats_snap::Snap::load(r)?,
            cons: chats_snap::Snap::load(r)?,
        })
    }
}

impl fmt::Debug for Pic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            None => write!(f, "PiC∅"),
            Some(v) => write!(f, "PiC({v})"),
        }
    }
}

impl fmt::Display for Pic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The per-core chaining context consulted on every conflict: the PiC plus
/// the `Cons` bit, which records whether the transaction is currently
/// consuming speculative data pending validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PicContext {
    /// Position in chain.
    pub pic: Pic,
    /// `true` while any speculatively received block awaits validation.
    pub cons: bool,
}

impl PicContext {
    /// A fresh, unchained context.
    #[must_use]
    pub fn new() -> PicContext {
        PicContext::default()
    }

    /// Resets both fields, as on abort. (On commit the PiC also resets; the
    /// `Cons` bit is already clear because commit requires an empty VSB.)
    pub fn reset(&mut self) {
        self.pic.reset();
        self.cons = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_middle_of_range() {
        assert_eq!(Pic::INIT.value(), Some(15));
    }

    #[test]
    fn unset_round_trip() {
        let p = Pic::unset();
        assert!(p.is_unset());
        assert!(!p.is_set());
        assert_eq!(p.value(), None);
    }

    #[test]
    fn decrement_walks_down_and_underflows() {
        let mut p = Pic::new(2);
        p = p.decremented().unwrap();
        assert_eq!(p, Pic::new(1));
        p = p.decremented().unwrap();
        assert_eq!(p, Pic::new(0));
        assert_eq!(p.decremented(), None);
        assert_eq!(Pic::unset().decremented(), None);
    }

    #[test]
    fn increment_walks_up_and_overflows() {
        let top = Pic::new(PIC_RANGE - 1);
        assert_eq!(top.incremented(), None);
        assert_eq!(Pic::new(PIC_RANGE - 2).incremented(), Some(top));
        assert_eq!(Pic::unset().incremented(), None);
    }

    #[test]
    #[should_panic(expected = "encoding limit")]
    fn new_rejects_encoding_limit() {
        let _ = Pic::new(PIC_ENCODING_LIMIT);
    }

    #[test]
    fn json_rejects_encoding_limit() {
        use serde::{Deserialize, Serialize, Value};
        for p in [Pic::unset(), Pic::new(0), Pic::new(PIC_ENCODING_LIMIT - 1)] {
            assert_eq!(Pic::from_value(&p.to_value()), Ok(p));
        }
        assert!(Pic::from_value(&Value::parse("255").unwrap()).is_err());
    }

    #[test]
    fn init_for_is_middle_of_any_range() {
        assert_eq!(Pic::init_for(7).value(), Some(3));
        assert_eq!(Pic::init_for(31), Pic::INIT);
    }

    #[test]
    fn incremented_within_respects_custom_range() {
        assert_eq!(Pic::new(2).incremented_within(3), None);
        assert_eq!(Pic::new(1).incremented_within(3), Some(Pic::new(2)));
        // Values beyond the default range still move inside a wider one.
        assert_eq!(Pic::new(40).incremented_within(63), Some(Pic::new(41)));
    }

    #[test]
    #[should_panic(expected = "unusable PiC range")]
    fn init_for_rejects_tiny_ranges() {
        let _ = Pic::init_for(2);
    }

    #[test]
    fn reset_clears() {
        let mut ctx = PicContext {
            pic: Pic::new(7),
            cons: true,
        };
        ctx.reset();
        assert!(ctx.pic.is_unset());
        assert!(!ctx.cons);
    }

    #[test]
    fn five_bits_suffice() {
        // The whole usable range plus the unset encoding fits in 5 bits.
        assert!((PIC_RANGE as u32) < 1 << 5);
    }
}
