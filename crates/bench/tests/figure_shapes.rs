//! Shape regressions: the qualitative results each figure's story depends
//! on, asserted at quick scale so CI catches a regression in any layer —
//! policy logic, protocol, workloads or harness.

use chats_bench::{Harness, Scale};
use chats_core::{ForwardSet, HtmSystem, PolicyConfig};
use chats_workloads::registry;

fn harness() -> Harness {
    Harness::new(Scale::Quick)
}

#[test]
fn chats_beats_baseline_on_contended_benchmarks() {
    let h = harness();
    for name in ["kmeans-h", "genome", "yada"] {
        let base = h.measure_named(name, HtmSystem::Baseline).cycles;
        let chats = h.measure_named(name, HtmSystem::Chats).cycles;
        assert!(
            chats < base,
            "{name}: CHATS {chats} must beat baseline {base}"
        );
    }
}

#[test]
fn uncontended_benchmarks_are_flat() {
    let h = harness();
    for name in ["ssca2", "vacation-l"] {
        let base = h.measure_named(name, HtmSystem::Baseline).cycles as f64;
        for sys in [HtmSystem::Chats, HtmSystem::Pchats, HtmSystem::Power] {
            let v = h.measure_named(name, sys).cycles as f64 / base;
            assert!(
                (0.9..=1.1).contains(&v),
                "{name} under {sys:?}: {v:.3} should be ~1.0"
            );
        }
    }
}

#[test]
fn chats_cuts_aborts_on_contention() {
    let h = harness();
    let base = h
        .measure_named("kmeans-h", HtmSystem::Baseline)
        .total_aborts();
    let chats = h.measure_named("kmeans-h", HtmSystem::Chats).total_aborts();
    assert!(chats < base, "CHATS aborts {chats} !< baseline {base}");
}

#[test]
fn chats_cuts_network_flits_on_contention() {
    let h = harness();
    let base = h.measure_named("kmeans-h", HtmSystem::Baseline).flits;
    let chats = h.measure_named("kmeans-h", HtmSystem::Chats).flits;
    assert!(
        chats < base,
        "Fig. 7 shape: CHATS flits {chats} !< baseline {base}"
    );
}

#[test]
fn forwarding_systems_forward_and_others_do_not() {
    let h = harness();
    for sys in HtmSystem::ALL {
        let fwd = h.measure_named("kmeans-h", sys).forwardings;
        if sys.forwards() {
            assert!(fwd > 0, "{sys:?} should forward on kmeans-h");
        } else {
            assert_eq!(fwd, 0, "{sys:?} must never forward");
        }
    }
    // Fig. 6 shape: under CHATS, forwarding transactions go on to commit.
    let forwarders = h
        .measure_named("kmeans-h", HtmSystem::Chats)
        .forwarder_outcomes;
    assert!(
        forwarders.committed > 0,
        "Fig. 6 shape: no CHATS forwarder committed on kmeans-h"
    );
}

#[test]
fn restricted_forward_set_is_not_worse_than_write_only() {
    let h = harness();
    let w = registry::by_name("llb-h").unwrap();
    let restricted = h
        .measure(
            w.as_ref(),
            PolicyConfig::for_system(HtmSystem::Chats)
                .with_forward_set(ForwardSet::RestrictedReadWrite),
        )
        .cycles;
    let write_only = h
        .measure(
            w.as_ref(),
            PolicyConfig::for_system(HtmSystem::Chats).with_forward_set(ForwardSet::WriteOnly),
        )
        .cycles;
    assert!(
        restricted <= write_only,
        "Fig. 8 shape: Rrestrict/W {restricted} should not lose to W {write_only}"
    );
}

#[test]
fn chats_prefers_many_retries() {
    let h = harness();
    let w = registry::by_name("kmeans-h").unwrap();
    let one = h
        .measure(
            w.as_ref(),
            PolicyConfig::for_system(HtmSystem::Chats).with_retries(1),
        )
        .cycles;
    let many = h
        .measure(
            w.as_ref(),
            PolicyConfig::for_system(HtmSystem::Chats).with_retries(32),
        )
        .cycles;
    assert!(
        many <= one,
        "Fig. 9 shape: CHATS with 32 retries ({many}) should not lose to 1 retry ({one})"
    );
}

#[test]
fn vsb_four_matches_vsb_thirty_two() {
    let h = harness();
    let w = registry::by_name("kmeans-h").unwrap();
    let four = h
        .measure(
            w.as_ref(),
            PolicyConfig::for_system(HtmSystem::Chats).with_vsb_size(4),
        )
        .cycles as f64;
    let thirty_two = h
        .measure(
            w.as_ref(),
            PolicyConfig::for_system(HtmSystem::Chats).with_vsb_size(32),
        )
        .cycles as f64;
    let ratio = four / thirty_two;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "Fig. 10 shape: VSB=4 must be within 10% of VSB=32, ratio {ratio:.3}"
    );
}

#[test]
fn chats_beats_idealized_levc_on_intruder() {
    let h = harness();
    let chats = h.measure_named("intruder", HtmSystem::Chats).cycles;
    let levc = h
        .measure_named("intruder", HtmSystem::LevcBeIdealized)
        .cycles;
    assert!(
        chats < levc,
        "Fig. 11 shape: PiC context must beat static timestamps on intruder"
    );
}

#[test]
fn every_experiment_id_runs_at_quick_scale() {
    // Smoke the whole harness surface: most ids share the memoized cells,
    // so this stays fast while covering fig5/6/7 code paths.
    let h = harness();
    for id in [
        "table1",
        "table2",
        "fig5",
        "fig6",
        "chains",
        "ablations",
        "picwidth",
    ] {
        let t = chats_bench::figures::run_by_name(&h, id);
        assert!(!t.is_empty(), "{id} produced an empty table");
    }
}
