//! Content hashing for job identity.
//!
//! Jobs are identified by an FNV-1a 64-bit hash of their canonical
//! configuration string (see [`crate::job::JobSpec::canonical`]). The
//! function lives in `chats-faults`, the lowest crate that needs it
//! (fault plans hash into job ids); this path re-exports it.

pub use chats_faults::fnv1a_64;
