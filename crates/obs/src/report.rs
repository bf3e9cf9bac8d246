//! Compact terminal report over a reconstructed timeline.

use crate::timeline::{AttemptOutcome, Timeline};
use chats_stats::{Histogram, Table};
use chats_workloads::MemRegion;
use std::fmt::Write as _;

fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * part as f64 / total as f64)
    }
}

/// [`text_report`] plus contention attribution: when `regions` names the
/// workload's memory map (see `Workload::regions`), the forwarding heat
/// map is rendered per line *and* rolled up per region, so a hot contract
/// slot reads as `token.storage+0` instead of a bare line number.
#[must_use]
pub fn text_report_with_regions(tl: &Timeline, regions: &[MemRegion]) -> String {
    let mut out = text_report(tl);
    if regions.is_empty() || tl.hot_lines.is_empty() {
        return out;
    }
    let attribute = |line: u64| -> String {
        regions.iter().find(|r| r.contains(line)).map_or_else(
            || "(unattributed)".to_string(),
            |r| format!("{}+{}", r.name, line - r.base_line),
        )
    };

    let mut ranked: Vec<(u64, u64)> = tl.hot_lines.iter().map(|(&l, &n)| (l, n)).collect();
    ranked.sort_by_key(|&(l, n)| (std::cmp::Reverse(n), l));
    let total: u64 = ranked.iter().map(|&(_, n)| n).sum();
    const TOP: usize = 8;
    let _ = writeln!(out);
    let _ = writeln!(out, "hot lines (forwardings, top {TOP}):");
    for &(line, n) in ranked.iter().take(TOP) {
        let _ = writeln!(out, "  line {line:<8} {:<24} {n}", attribute(line));
    }
    if ranked.len() > TOP {
        let _ = writeln!(out, "  ... {} more line(s)", ranked.len() - TOP);
    }

    let mut by_region: Vec<(&str, u64)> = regions
        .iter()
        .map(|r| {
            let n = ranked
                .iter()
                .filter(|&&(l, _)| r.contains(l))
                .map(|&(_, n)| n)
                .sum();
            (r.name, n)
        })
        .collect();
    let unattributed: u64 = ranked
        .iter()
        .filter(|&&(l, _)| !regions.iter().any(|r| r.contains(l)))
        .map(|&(_, n)| n)
        .sum();
    if unattributed > 0 {
        by_region.push(("(unattributed)", unattributed));
    }
    by_region.retain(|&(_, n)| n > 0);
    by_region.sort_by_key(|&(name, n)| (std::cmp::Reverse(n), name));
    let _ = writeln!(out, "contention by region:");
    for (name, n) in by_region {
        let _ = writeln!(out, "  {name:<24} {n:>8}  {}", pct(n, total));
    }
    out
}

/// Renders the per-core cycle-accounting table, chain analytics and NoC
/// usage as plain text (the `chats-trace report` output).
#[must_use]
pub fn text_report(tl: &Timeline) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run: {} cycles, {} cores, {} commits, {} aborts",
        tl.total_cycles,
        tl.cores.len(),
        tl.commits(),
        tl.aborts()
    );
    let _ = writeln!(out);

    let mut t = Table::new(
        [
            "core",
            "useful",
            "wasted",
            "val-stall",
            "fallback",
            "other",
            "util",
        ]
        .map(String::from)
        .to_vec(),
    );
    for (core, ct) in tl.cores.iter().enumerate() {
        let b = ct.breakdown;
        t.row(vec![
            core.to_string(),
            b.useful.to_string(),
            b.wasted.to_string(),
            b.validation_stall.to_string(),
            b.fallback.to_string(),
            b.other.to_string(),
            pct(b.useful, tl.total_cycles),
        ]);
    }
    let agg = tl.aggregate();
    t.row(vec![
        "all".to_string(),
        agg.useful.to_string(),
        agg.wasted.to_string(),
        agg.validation_stall.to_string(),
        agg.fallback.to_string(),
        agg.other.to_string(),
        pct(agg.useful, agg.total()),
    ]);
    out.push_str(&t.to_string());
    let _ = writeln!(out);

    let _ = writeln!(out, "chains: {} forwardings", tl.chains.forwardings);
    let pic_hist: Histogram = tl
        .chains
        .pic_depth_hist
        .iter()
        .map(|(&d, &n)| (u64::from(d), n))
        .collect();
    if !pic_hist.is_empty() {
        let _ = writeln!(out, "  pic-depth histogram   {pic_hist}");
    }
    let len_hist: Histogram = tl
        .chains
        .chain_len_hist
        .iter()
        .map(|(&l, &n)| (l as u64, n))
        .collect();
    if !len_hist.is_empty() {
        let _ = writeln!(
            out,
            "  chain-length histogram {len_hist} (mean {:.2}, max {})",
            len_hist.mean().unwrap_or(0.0),
            len_hist.max().unwrap_or(0)
        );
    }
    if !tl.chains.graph.is_empty() {
        let _ = writeln!(out, "  forwarding graph (producer -> consumer : count)");
        for ((from, to), n) in &tl.chains.graph {
            let _ = writeln!(out, "    core{from} -> core{to} : {n}");
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "noc: {} messages, {} flits, {} transit cycles ({} queueing)",
        tl.noc.messages, tl.noc.flits, tl.noc.transit_cycles, tl.noc.queueing_cycles
    );

    if !tl.faults.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "faults: {} injection(s), {} watchdog firing(s)",
            tl.faults.total(),
            tl.faults.watchdog.len()
        );
        for (kind, n) in &tl.faults.injections {
            let _ = writeln!(out, "  {kind:<17} {n}");
        }
        for (at, core) in &tl.faults.watchdog {
            let _ = writeln!(
                out,
                "  watchdog fired at cycle {} (core {core} stalled)",
                at.0
            );
        }
    }

    let aborted_with_forwards = tl
        .cores
        .iter()
        .flat_map(|c| {
            c.attempts().iter().enumerate().filter(|&(i, a)| {
                matches!(a.outcome, AttemptOutcome::Aborted(_)) && !c.forwards_in(i).is_empty()
            })
        })
        .count();
    if aborted_with_forwards > 0 {
        let _ = writeln!(
            out,
            "note: {aborted_with_forwards} aborted attempt(s) had consumed speculative data"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chats_machine::TraceEvent;
    use chats_sim::Cycle;

    #[test]
    fn report_contains_the_accounting_rows() {
        let events = vec![
            TraceEvent::TxBegin {
                at: Cycle(0),
                core: 0,
            },
            TraceEvent::Commit {
                at: Cycle(10),
                core: 0,
            },
        ];
        let tl = Timeline::rebuild(&events, 20);
        let r = text_report(&tl);
        assert!(r.contains("useful"), "{r}");
        assert!(r.contains("run: 20 cycles"), "{r}");
        assert!(r.contains("noc: 0 messages"), "{r}");
        assert!(
            !r.contains("faults:"),
            "fault-free report has no section: {r}"
        );
    }

    #[test]
    fn hot_lines_attribute_to_regions() {
        let events = vec![
            TraceEvent::TxBegin {
                at: Cycle(0),
                core: 0,
            },
            TraceEvent::TxBegin {
                at: Cycle(0),
                core: 1,
            },
            TraceEvent::Forward {
                at: Cycle(3),
                from: 0,
                to: 1,
                line: chats_mem::LineAddr(1025),
                pic: None,
            },
            TraceEvent::Forward {
                at: Cycle(5),
                from: 0,
                to: 1,
                line: chats_mem::LineAddr(1025),
                pic: None,
            },
            TraceEvent::Forward {
                at: Cycle(7),
                from: 1,
                to: 0,
                line: chats_mem::LineAddr(9999),
                pic: None,
            },
            TraceEvent::Commit {
                at: Cycle(10),
                core: 0,
            },
            TraceEvent::Commit {
                at: Cycle(12),
                core: 1,
            },
        ];
        let tl = Timeline::rebuild(&events, 20);
        let regions = [
            MemRegion {
                name: "accounts",
                base_line: 1,
                lines: 1024,
            },
            MemRegion {
                name: "token.storage",
                base_line: 1025,
                lines: 2048,
            },
        ];
        let r = text_report_with_regions(&tl, &regions);
        assert!(r.contains("token.storage+0"), "{r}");
        assert!(r.contains("(unattributed)"), "{r}");
        assert!(r.contains("contention by region:"), "{r}");
        // Without regions the plain report is unchanged.
        assert_eq!(text_report_with_regions(&tl, &[]), text_report(&tl));
        assert!(!text_report(&tl).contains("hot lines"));
    }

    #[test]
    fn report_surfaces_fault_activity() {
        let events = vec![
            TraceEvent::TxBegin {
                at: Cycle(0),
                core: 0,
            },
            TraceEvent::FaultInjected {
                at: Cycle(3),
                core: 0,
                kind: chats_machine::FaultKind::Delay,
            },
            TraceEvent::FaultInjected {
                at: Cycle(5),
                core: 0,
                kind: chats_machine::FaultKind::Delay,
            },
            TraceEvent::WatchdogFired {
                at: Cycle(18),
                core: 0,
            },
        ];
        let tl = Timeline::rebuild(&events, 20);
        let r = text_report(&tl);
        assert!(
            r.contains("faults: 2 injection(s), 1 watchdog firing(s)"),
            "{r}"
        );
        assert!(r.contains("delay"), "{r}");
        assert!(r.contains("watchdog fired at cycle 18"), "{r}");
    }
}
