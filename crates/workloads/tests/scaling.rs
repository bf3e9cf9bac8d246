//! Scaling-knob tests: every kernel's `with_iterations` must change the
//! amount of committed work proportionally while keeping the invariant
//! checker satisfied.

use chats_core::{HtmSystem, PolicyConfig};
use chats_workloads::kernels::{
    cadd::Cadd, genome::Genome, intruder::Intruder, kmeans::Kmeans, labyrinth::Labyrinth, llb::Llb,
    ssca2::Ssca2, vacation::Vacation, yada::Yada,
};
use chats_workloads::{run_workload, RunConfig, Workload};

fn commits_of(w: &dyn Workload) -> u64 {
    let cfg = RunConfig::quick_test();
    run_workload(w, PolicyConfig::for_system(HtmSystem::Chats), &cfg)
        .unwrap_or_else(|e| panic!("{e}"))
        .commits
}

/// Doubling the iteration count must (at least) increase committed
/// transactions, with the checker still passing.
fn scales(small: &dyn Workload, large: &dyn Workload) {
    let a = commits_of(small);
    let b = commits_of(large);
    assert!(
        b > a,
        "{}: {b} commits at double scale !> {a} at base scale",
        small.name()
    );
}

#[test]
fn genome_scales() {
    scales(
        &Genome::new().with_iterations(8),
        &Genome::new().with_iterations(16),
    );
}

#[test]
fn intruder_scales() {
    scales(
        &Intruder::new().with_iterations(8),
        &Intruder::new().with_iterations(16),
    );
}

#[test]
fn kmeans_scales() {
    scales(
        &Kmeans::high().with_iterations(8),
        &Kmeans::high().with_iterations(16),
    );
}

#[test]
fn labyrinth_scales() {
    scales(
        &Labyrinth::new().with_iterations(2),
        &Labyrinth::new().with_iterations(4),
    );
}

#[test]
fn ssca2_scales() {
    scales(
        &Ssca2::new().with_iterations(16),
        &Ssca2::new().with_iterations(32),
    );
}

#[test]
fn vacation_scales() {
    scales(
        &Vacation::low().with_iterations(8),
        &Vacation::low().with_iterations(16),
    );
}

#[test]
fn yada_scales() {
    scales(
        &Yada::new().with_iterations(4),
        &Yada::new().with_iterations(8),
    );
}

#[test]
fn llb_scales() {
    scales(
        &Llb::high().with_iterations(8),
        &Llb::high().with_iterations(16),
    );
}

#[test]
fn cadd_scales() {
    scales(
        &Cadd::new().with_iterations(8),
        &Cadd::new().with_iterations(16),
    );
}

#[test]
#[should_panic(expected = "positive")]
fn zero_iterations_rejected() {
    let _ = Genome::new().with_iterations(0);
}
