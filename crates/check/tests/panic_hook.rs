//! Scenario runs keep the machine's invariant panics off stderr with a
//! process-wide panic hook; runs on several threads must not leave it
//! swallowing panics outside a run. A test binary of its own: the panic
//! hook is process-global, so no other test may run beside this one.

use chats_check::{run_scenario, smoke_scenarios, Schedule};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

static SEEN: AtomicUsize = AtomicUsize::new(0);

#[test]
fn panics_outside_a_run_still_reach_the_previous_hook() {
    std::panic::set_hook(Box::new(|_| {
        SEEN.fetch_add(1, Ordering::SeqCst);
    }));
    let scenario = &smoke_scenarios()[0];
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                for _ in 0..20 {
                    let _ = run_scenario(scenario, &Schedule::baseline());
                }
            });
        }
    });

    let before = SEEN.load(Ordering::SeqCst);
    let caught = std::panic::catch_unwind(|| panic!("outside a scenario"));
    assert!(caught.is_err());
    assert_eq!(
        SEEN.load(Ordering::SeqCst),
        before + 1,
        "a panic outside a scenario run never reached the hook"
    );
}
