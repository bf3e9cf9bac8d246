//! Host-speed references.
//!
//! The benchmark shares its host with other tenants, whose load slows
//! everything this process runs by tens of percent for minutes at a time:
//! on the reference host a fixed loop ran anywhere from 1x to 1.8x its
//! quiet time within seconds, and same-seed runs a minute apart differed
//! by 40%. Two fixed kernels are timed beside the measured work, and the
//! work's host time is scaled by a kernel's speed against its quiet time
//! on the reference host:
//!
//! - [`kernel`] before and after every unit. In ten-run sets of one seed
//!   this cut the quartile spread of raw throughput (5-44%) to 3-19%.
//! - [`setup_kernel`] after every set-up pass. Set-up allocates and fills
//!   many small structures, and the tenants slow it 1.5-1.8x where they
//!   slow [`kernel`]'s integer mixing 1.1-1.5x; this kernel does the same
//!   kind of work and follows set-up closely (see `setup_s` in main.rs).
//!
//! The kernels call no simulator code, so a change to the simulator shows
//! in full. A change to the build as a whole (compiler flags, target CPU,
//! the allocator for `setup_kernel`) reaches a kernel too and is partly
//! divided out: result files keep the raw times for such comparisons.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

type FixedHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// Median seconds one [`kernel`] call took on the reference host (2-core
/// Intel Xeon, release build) while it was quiet. Scaled times read as
/// seconds on that host.
pub const REFERENCE_S: f64 = 0.011;

/// Seconds the fastest [`setup_kernel`] call of a run took on the
/// reference host while it was quiet.
pub const SETUP_REFERENCE_S: f64 = 0.0032;

/// Keys the kernel's table can hold; it is allocated at this size up
/// front, so the timed loop never calls the allocator.
const KEYS: usize = 1 << 17;

/// Integer mixing plus hash-map updates over a table of a few MB: both
/// the arithmetic and the cache behaviour of the simulator's hot loop.
/// The hasher has fixed keys, so every call does identical work.
pub fn kernel() -> u64 {
    let mut map: FixedHashMap<u64, u64> =
        HashMap::with_capacity_and_hasher(KEYS, BuildHasherDefault::default());
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..100_000 {
        for _ in 0..32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        *map.entry(x & (KEYS as u64 - 1)).or_insert(0) += x >> 60;
    }
    map.values().fold(x, |a, &v| a.wrapping_add(v))
}

/// Set-up-like work: growing hash maps of vectors, a B-tree and a vector
/// from scratch, then sorting and walking them, all freed on return.
/// Every call does identical work.
pub fn setup_kernel() -> u64 {
    let mut x: u64 = 0x1234_5678;
    let mut lists: FixedHashMap<u64, Vec<u64>> = HashMap::default();
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut all: Vec<u64> = Vec::new();
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        lists.entry(x % 2048).or_default().push(x);
        *counts.entry(x % 4096).or_insert(0) += 1;
        all.push(x);
    }
    all.sort_unstable();
    let lists = lists
        .iter()
        .fold(0u64, |a, (k, v)| a.wrapping_add(k ^ v.len() as u64));
    let counts = counts.iter().fold(0u64, |a, (k, c)| a.wrapping_add(k * c));
    all[all.len() / 2].wrapping_add(lists).wrapping_add(counts)
}

/// Seconds one call of `f` took.
pub fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64()
}

/// The median time of `samples` [`kernel`] calls, in seconds.
pub fn time_kernel(samples: u32) -> f64 {
    let times: Vec<f64> = (0..samples.max(1)).map(|_| time(kernel)).collect();
    crate::metrics::median(&times)
}

/// The host's speed over an interval bracketed by two kernel timings:
/// below 1 when the host ran slower than the reference.
pub fn speed(before_s: f64, after_s: f64) -> f64 {
    2.0 * REFERENCE_S / (before_s + after_s)
}
