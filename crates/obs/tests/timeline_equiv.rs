//! `Timeline` keeps each core's forwardings in two flat lists, with every
//! attempt recording only where its slices end. These tests pin that
//! layout to the plain one it replaced: a reference fold, kept here, gives
//! every attempt its own `Vec`s of produced and consumed forwardings. On
//! random streams (time steps back now and then, so ends before their
//! begins, lost closing events and horizons below open spans all occur)
//! and on hand-built edge cases, the two must hold the same attempts with
//! the same forwardings, and the Chrome export must draw the same flow
//! arrows as a scan of every consumer attempt for a matching entry.

use chats_core::{AbortCause, Pic};
use chats_machine::TraceEvent;
use chats_mem::LineAddr;
use chats_obs::{chrome_trace, AttemptOutcome, Forwarding, Timeline};
use chats_sim::Cycle;
use proptest::prelude::*;

/// One attempt as the reference fold keeps it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefAttempt {
    begin: Cycle,
    end: Cycle,
    outcome: AttemptOutcome,
    val_stall: u64,
    forwards_out: Vec<Forwarding>,
    forwards_in: Vec<Forwarding>,
    validations: u64,
    evictions: u64,
    vsb_peak: u64,
}

#[derive(Default)]
struct RefScan {
    open: Option<RefAttempt>,
    stall_since: Option<Cycle>,
}

/// Ends the open attempt at `at`, unless it began later.
fn ref_close(
    scan: &mut RefScan,
    attempts: &mut Vec<RefAttempt>,
    at: Cycle,
    outcome: AttemptOutcome,
) {
    let Some(mut a) = scan.open.take_if(|a| a.begin <= at) else {
        return;
    };
    if let Some(begin) = scan.stall_since.take() {
        a.val_stall = a.val_stall.saturating_add(at.0.saturating_sub(begin.0));
    }
    a.end = at;
    a.outcome = outcome;
    attempts.push(a);
}

/// The attempts of each core, folded with one `Vec` pair per attempt.
fn reference(events: &[TraceEvent], total_cycles: u64) -> Vec<Vec<RefAttempt>> {
    let mut scans: Vec<RefScan> = Vec::new();
    let mut cores: Vec<Vec<RefAttempt>> = Vec::new();
    for ev in events {
        let n = match ev {
            TraceEvent::NocSend { .. } => 0,
            TraceEvent::Forward { from, to, .. } => usize::from(*from.max(to)) + 1,
            other => other.core().map_or(0, |c| c + 1),
        };
        if n > scans.len() {
            scans.resize_with(n, RefScan::default);
            cores.resize_with(n, Vec::new);
        }
        match *ev {
            TraceEvent::TxBegin { at, core } => {
                let s = &mut scans[usize::from(core)];
                s.open = Some(RefAttempt {
                    begin: at,
                    end: at,
                    outcome: AttemptOutcome::Unfinished,
                    val_stall: 0,
                    forwards_out: Vec::new(),
                    forwards_in: Vec::new(),
                    validations: 0,
                    evictions: 0,
                    vsb_peak: 0,
                });
                s.stall_since = None;
            }
            TraceEvent::Commit { at, core } => {
                let c = usize::from(core);
                ref_close(&mut scans[c], &mut cores[c], at, AttemptOutcome::Committed);
            }
            TraceEvent::Abort { at, core, cause } => {
                let c = usize::from(core);
                ref_close(
                    &mut scans[c],
                    &mut cores[c],
                    at,
                    AttemptOutcome::Aborted(cause),
                );
            }
            TraceEvent::Forward {
                at, from, to, line, ..
            } => {
                let (from, to) = (usize::from(from), usize::from(to));
                if let Some(a) = scans[from].open.as_mut() {
                    a.forwards_out.push((at, to, line));
                }
                if let Some(a) = scans[to].open.as_mut() {
                    a.forwards_in.push((at, from, line));
                }
            }
            TraceEvent::Validated { core, .. } => {
                if let Some(a) = scans[usize::from(core)].open.as_mut() {
                    a.validations += 1;
                }
            }
            TraceEvent::ValStallBegin { at, core } => {
                scans[usize::from(core)].stall_since = Some(at);
            }
            TraceEvent::ValStallEnd { at, core } => {
                let s = &mut scans[usize::from(core)];
                if let Some(begin) = s.stall_since.filter(|b| *b <= at) {
                    s.stall_since = None;
                    if let Some(a) = s.open.as_mut() {
                        a.val_stall = a.val_stall.saturating_add(at.0 - begin.0);
                    }
                }
            }
            TraceEvent::VsbInsert {
                core, occupancy, ..
            } => {
                if let Some(a) = scans[usize::from(core)].open.as_mut() {
                    a.vsb_peak = a.vsb_peak.max(u64::from(occupancy));
                }
            }
            TraceEvent::VsbEvict { core, .. } => {
                if let Some(a) = scans[usize::from(core)].open.as_mut() {
                    a.evictions += 1;
                }
            }
            _ => {}
        }
    }
    let end = Cycle(total_cycles);
    for (s, attempts) in scans.iter_mut().zip(&mut cores) {
        if s.open.as_ref().is_some_and(|a| a.begin > end) {
            s.open = None;
        }
        ref_close(s, attempts, end, AttemptOutcome::Unfinished);
    }
    cores
}

/// One flow arrow: `(id, producer, when, consumer, head ts, name)`.
type Arrow = (u64, u64, u64, u64, u64, String);

/// The arrows of the scan the export used to run: for each produced
/// forwarding, the first consumer attempt holding the same entry.
fn reference_arrows(cores: &[Vec<RefAttempt>]) -> Vec<Arrow> {
    let mut arrows = Vec::new();
    for (from, attempts) in cores.iter().enumerate() {
        for &(at, to, line) in attempts.iter().flat_map(|a| &a.forwards_out) {
            let Some(consumer) = cores.get(to).and_then(|c| {
                c.iter()
                    .find(|ca| ca.forwards_in.contains(&(at, from, line)))
            }) else {
                continue;
            };
            arrows.push((
                arrows.len() as u64 + 1,
                from as u64,
                at.0,
                to as u64,
                at.0.max(consumer.begin.0),
                format!("SpecResp {line}"),
            ));
        }
    }
    arrows
}

/// The arrows of `chrome_trace(tl)`, each start paired with its finish.
fn exported_arrows(tl: &Timeline) -> Vec<Arrow> {
    let v = chrome_trace(tl);
    let events = v.as_obj().unwrap()["traceEvents"].as_arr().unwrap();
    let field = |e: &serde::Value, k: &str| e.as_obj().unwrap()[k].as_u64().unwrap();
    let ph = |e: &serde::Value| e.as_obj().unwrap()["ph"].as_str().unwrap().to_string();
    let flows: Vec<&serde::Value> = events
        .iter()
        .filter(|e| matches!(ph(e).as_str(), "s" | "f"))
        .collect();
    flows
        .chunks(2)
        .map(|pair| {
            let (s, f) = (pair[0], pair[1]);
            assert_eq!((ph(s).as_str(), ph(f).as_str()), ("s", "f"));
            assert_eq!(field(s, "id"), field(f, "id"));
            let name = s.as_obj().unwrap()["name"].as_str().unwrap().to_string();
            assert_eq!(f.as_obj().unwrap()["name"].as_str(), Some(name.as_str()));
            (
                field(s, "id"),
                field(s, "tid"),
                field(s, "ts"),
                field(f, "tid"),
                field(f, "ts"),
                name,
            )
        })
        .collect()
}

/// Rebuilds `events` both ways and checks that they agree.
fn assert_matches_reference(events: &[TraceEvent], total_cycles: u64) -> Timeline {
    let tl = Timeline::rebuild(events, total_cycles);
    let want = reference(events, total_cycles);
    assert_eq!(tl.cores.len(), want.len(), "core count");
    for (core, (ct, want)) in tl.cores.iter().zip(&want).enumerate() {
        let got: Vec<RefAttempt> = ct
            .attempts()
            .iter()
            .enumerate()
            .map(|(i, a)| RefAttempt {
                begin: a.span.begin,
                end: a.span.end,
                outcome: a.outcome,
                val_stall: a.val_stall,
                forwards_out: ct.forwards_out(i).to_vec(),
                forwards_in: ct.forwards_in(i).to_vec(),
                validations: u64::from(a.validations),
                evictions: u64::from(a.evictions),
                vsb_peak: u64::from(a.vsb_peak),
            })
            .collect();
        assert_eq!(&got, want, "core {core} of {events:?}");
    }
    assert_eq!(exported_arrows(&tl), reference_arrows(&want), "{events:?}");
    tl
}

fn begin(at: u64, core: u16) -> TraceEvent {
    TraceEvent::TxBegin {
        at: Cycle(at),
        core,
    }
}

fn commit(at: u64, core: u16) -> TraceEvent {
    TraceEvent::Commit {
        at: Cycle(at),
        core,
    }
}

fn forward(at: u64, from: u16, to: u16, line: u64) -> TraceEvent {
    TraceEvent::Forward {
        at: Cycle(at),
        from,
        to,
        line: LineAddr(line),
        pic: Some(Pic::INIT),
    }
}

/// Builds a stream from drawn `(kind, core, peer, line, step)` tuples.
/// Time moves by `step` from the previous event, so it mostly rises but
/// sometimes falls back (never below zero).
fn stream(draws: &[(u8, u16, u16, u64, i64)]) -> (Vec<TraceEvent>, u64) {
    let mut now: u64 = 0;
    let events = draws
        .iter()
        .map(|&(kind, core, peer, line, step)| {
            now = now.saturating_add_signed(step);
            let at = Cycle(now);
            match kind {
                0..=2 => TraceEvent::TxBegin { at, core },
                3 | 4 => TraceEvent::Commit { at, core },
                5 => TraceEvent::Abort {
                    at,
                    core,
                    cause: AbortCause::Conflict,
                },
                6..=8 => TraceEvent::Forward {
                    at,
                    from: core,
                    to: peer,
                    line: LineAddr(line),
                    pic: (line % 2 == 0).then_some(Pic::INIT),
                },
                9 => TraceEvent::Validated {
                    at,
                    core,
                    line: LineAddr(line),
                },
                10 => TraceEvent::VsbInsert {
                    at,
                    core,
                    line: LineAddr(line),
                    occupancy: line as u32,
                },
                11 => TraceEvent::VsbEvict {
                    at,
                    core,
                    line: LineAddr(line),
                },
                12 => TraceEvent::ValStallBegin { at, core },
                _ => TraceEvent::ValStallEnd { at, core },
            }
        })
        .collect();
    (events, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flat_lists_match_the_per_attempt_fold(
        draws in proptest::collection::vec(
            (0u8..14, 0u16..4, 0u16..4, 0u64..3, -3i64..6),
            0..80,
        ),
        horizon_cut in 0u64..12,
    ) {
        let (events, last) = stream(&draws);
        // Horizons from below the last event to past it.
        let horizon = (last + 5).saturating_sub(horizon_cut);
        assert_matches_reference(&events, horizon);
    }
}

#[test]
fn forwarding_to_a_core_without_an_open_attempt_draws_no_arrow() {
    let events = [
        begin(0, 0),
        forward(3, 0, 1, 7),
        commit(5, 0),
        begin(6, 1),
        commit(9, 1),
    ];
    let tl = assert_matches_reference(&events, 10);
    assert_eq!(tl.cores[0].forwards_out(0), [(Cycle(3), 1, LineAddr(7))]);
    assert!(tl.cores[1].forwards_in(0).is_empty());
    assert!(exported_arrows(&tl).is_empty());
}

#[test]
fn a_dropped_attempt_leaks_no_forwardings_into_the_next() {
    let events = [
        begin(0, 0),
        begin(0, 1),
        forward(2, 0, 1, 7),
        forward(3, 1, 0, 8),
        // Core 0's closing event was lost: this TxBegin drops the
        // attempt that produced line 7 and consumed line 8.
        begin(4, 0),
        forward(5, 0, 1, 9),
        commit(6, 0),
        commit(8, 1),
    ];
    let tl = assert_matches_reference(&events, 10);
    let ct = &tl.cores[0];
    assert_eq!(ct.attempts().len(), 1);
    assert_eq!(ct.attempts()[0].span.begin, Cycle(4));
    assert_eq!(ct.forwards_out(0), [(Cycle(5), 1, LineAddr(9))]);
    assert!(ct.forwards_in(0).is_empty());
    // Core 1 still consumed both lines; only line 9 has a live producer.
    assert_eq!(tl.cores[1].forwards_in(0).len(), 2);
    assert_eq!(exported_arrows(&tl).len(), 1);
}

#[test]
fn a_commit_before_its_begin_leaves_the_attempt_open() {
    let events = [
        begin(10, 0),
        begin(10, 1),
        forward(12, 0, 1, 3),
        commit(5, 0),
        forward(14, 0, 1, 4),
        commit(20, 0),
        commit(21, 1),
    ];
    let tl = assert_matches_reference(&events, 30);
    assert_eq!(tl.cores[0].attempts().len(), 1);
    assert_eq!(tl.cores[0].attempts()[0].span.end, Cycle(20));
    assert_eq!(tl.cores[0].forwards_out(0).len(), 2);
    assert_eq!(exported_arrows(&tl).len(), 2);
}

#[test]
fn a_horizon_below_an_open_span_drops_it_and_its_forwardings() {
    let events = [
        begin(0, 0),
        begin(0, 1),
        forward(2, 0, 1, 5),
        commit(4, 0),
        begin(20, 0),
        forward(22, 0, 1, 6),
    ];
    // Core 1's attempt stays open to the horizon; core 0's second attempt
    // began past it and is dropped with the line-6 forwarding.
    let tl = assert_matches_reference(&events, 10);
    assert_eq!(tl.cores[0].attempts().len(), 1);
    assert_eq!(tl.cores[0].forwards_out(0), [(Cycle(2), 1, LineAddr(5))]);
    assert_eq!(
        tl.cores[1].attempts()[0].outcome,
        AttemptOutcome::Unfinished
    );
    assert_eq!(tl.cores[1].forwards_in(0).len(), 2);
    assert_eq!(exported_arrows(&tl).len(), 1);
}

#[test]
fn arrows_go_to_the_first_consumer_attempt_holding_the_entry() {
    // Core 1 consumes the same (when, producer, line) in two attempts, the
    // second time in a damaged stream that steps back to cycle 5 after a
    // begin at 8. Both arrows bind to the first attempt, as the old scan
    // did, so both heads sit at cycle 5 rather than at the second begin.
    let events = [
        begin(0, 0),
        begin(0, 1),
        forward(5, 0, 1, 2),
        TraceEvent::Abort {
            at: Cycle(6),
            core: 1,
            cause: AbortCause::Conflict,
        },
        begin(8, 1),
        forward(5, 0, 1, 2),
        commit(9, 0),
        commit(9, 1),
    ];
    let tl = assert_matches_reference(&events, 10);
    let heads: Vec<u64> = exported_arrows(&tl).iter().map(|a| a.4).collect();
    assert_eq!(heads, [5, 5]);
}
