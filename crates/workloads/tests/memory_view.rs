//! Final-memory reads through `Machine::memory_view`.
//!
//! Every checker reads final memory through one view built in a single
//! pass over the L1s. The view must read exactly what
//! `Machine::inspect_word` reads, and a corrupted committed word must
//! still reach the checkers: a view that only consulted the L1s, or only
//! the backing store, would pass a wrong final state.

use chats_core::{HtmSystem, PolicyConfig};
use chats_machine::Machine;
use chats_mem::{Addr, CoherenceState, LineAddr, WORDS_PER_LINE};
use chats_workloads::kernels::check_region_sum;
use chats_workloads::{prepare_run, registry, FaultPlan, PreparedRun, RunConfig};
use std::collections::BTreeSet;

/// `name` under CHATS at quick scale with the lossy interconnect, run to
/// completion.
fn finished(name: &str) -> PreparedRun {
    let w = registry::by_name(name).unwrap_or_else(|| panic!("no workload {name}"));
    let cfg = RunConfig::quick_test().with_faults(FaultPlan::lossy_noc());
    let mut run = prepare_run(&*w, PolicyConfig::for_system(HtmSystem::Chats), &cfg);
    run.machine
        .run(cfg.max_cycles)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    run
}

/// Holds some L1 a `Modified` copy of `line`?
fn dirty_in_some_l1(m: &Machine, line: LineAddr) -> bool {
    (0..m.config().core.cores).any(|c| {
        m.l1(c)
            .lookup(line)
            .is_some_and(|e| e.state == CoherenceState::Modified)
    })
}

#[test]
fn the_view_reads_what_inspect_word_reads() {
    for name in ["evm-transfers", "evm-token-storm", "ssca2", "cadd"] {
        let run = finished(name);
        let m = &run.machine;
        // Touched lines: every line with a nonzero final word plus every
        // line resident in some L1, whatever its state.
        let mut lines: BTreeSet<LineAddr> =
            m.memory_image().keys().map(|&a| Addr(a).line()).collect();
        for c in 0..m.config().core.cores {
            lines.extend(m.l1(c).iter().map(|e| e.addr));
        }
        assert!(
            (0..m.config().core.cores)
                .any(|c| m.l1(c).iter().any(|e| e.state == CoherenceState::Modified)),
            "{name}: no dirty L1 line, so the overlay goes untested"
        );
        let view = m.memory_view();
        for line in lines {
            for off in 0..WORDS_PER_LINE {
                let a = line.base_word().offset(off);
                assert_eq!(view.read(a), m.inspect_word(a), "{name}: word {}", a.0);
            }
        }
    }
}

#[test]
fn a_corrupted_committed_word_fails_the_evm_checker() {
    let mut run = finished("evm-transfers");
    assert_eq!((run.checker)(&run.machine), Ok(()));
    // Native balances sit one per line from line 1; corrupt the first one
    // whose committed copy is the backing store's.
    let m = &mut run.machine;
    let line = (1..=1024)
        .map(LineAddr)
        .find(|&l| !dirty_in_some_l1(m, l))
        .expect("some balance line is clean");
    let a = line.base_word();
    m.store_init(a, m.inspect_word(a) ^ 1);
    assert!((run.checker)(&run.machine).is_err());
}

#[test]
fn a_corrupted_committed_word_fails_check_region_sum() {
    let mut run = finished("ssca2");
    assert_eq!((run.checker)(&run.machine), Ok(()));
    let m = &mut run.machine;
    let line = (0..64)
        .map(LineAddr)
        .find(|&l| !dirty_in_some_l1(m, l))
        .expect("some low line is clean");
    let expect = chats_workloads::kernels::sum_region(&m.memory_view(), 0, 64);
    let a = line.base_word();
    m.store_init(a, m.inspect_word(a) + 1);
    assert!(check_region_sum(&m.memory_view(), "low lines", 0, 64, expect).is_err());
    assert!((run.checker)(&run.machine).is_err(), "ssca2's own checker");
}
