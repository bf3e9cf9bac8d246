//! Content hashing for stable identities.
//!
//! FNV-1a 64-bit is the one hash behind every content-addressed key in
//! the workspace: [`crate::FaultPlan::hash`] here, and job ids,
//! reproducer commitments and benchmark digests above (the runner
//! re-exports it as `chats_runner::hash::fnv1a_64`). FNV is in-tree,
//! dependency-free, stable across platforms and Rust releases — all
//! properties a disk cache needs from its key. It is *not*
//! collision-resistant against adversaries, which is fine: cache entries
//! additionally store the full canonical string and are rejected on
//! mismatch, so a collision costs a re-execution, never a wrong result.

/// FNV-1a, 64-bit, over a byte string.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        assert_ne!(fnv1a_64(b"chats|genome"), fnv1a_64(b"chats|intruder"));
    }
}
