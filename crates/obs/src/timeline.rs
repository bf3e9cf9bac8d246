//! Folding the flat event stream into per-core timelines with strict
//! cycle accounting and chain analytics.

use chats_core::{AbortCause, Pic};
use chats_machine::TraceEvent;
use chats_mem::LineAddr;
use chats_sim::Cycle;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// A closed `[begin, end]` span on one core's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First cycle of the span.
    pub begin: Cycle,
    /// Last cycle of the span (an instantaneous span has `end == begin`).
    pub end: Cycle,
}

impl Interval {
    /// Span length in cycles.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end.0 - self.begin.0
    }

    /// `true` for zero-length spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end == self.begin
    }
}

/// How a transaction attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Reached commit.
    Committed,
    /// Aborted with the given cause.
    Aborted(AbortCause),
    /// Still running when the trace ended (timeout or truncated stream);
    /// accounted to the `other` bucket, not to useful/wasted work.
    Unfinished,
}

/// One reconstructed transaction attempt: a fixed 48-byte record. Its
/// forwardings live in its core's flat lists, read through
/// [`CoreTimeline::forwards_out`] and [`CoreTimeline::forwards_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// The span from `TxBegin` to commit/abort.
    pub span: Interval,
    /// How it ended.
    pub outcome: AttemptOutcome,
    /// Cycles of this attempt spent stalled at `TxEnd` waiting for the
    /// VSB to drain (or for a deferred commit release).
    pub val_stall: u64,
    /// Successful validations (lines that left the VSB cleanly).
    pub validations: u32,
    /// VSB entries discarded unvalidated at abort.
    pub evictions: u32,
    /// Highest VSB occupancy observed during the attempt.
    pub vsb_peak: u32,
    /// End of this attempt's slice of its core's `forwards_out` list;
    /// the slice starts where the previous attempt's ends.
    out_end: u32,
    /// The same for `forwards_in`.
    in_end: u32,
}

const _: () = assert!(std::mem::size_of::<Attempt>() <= 48);

/// A forwarding as one side of it saw it: `(when, other core, line)`.
pub type Forwarding = (Cycle, usize, LineAddr);

/// The strict per-core cycle partition: every simulated cycle of a core
/// lands in exactly one bucket, so the five fields sum to the run's total
/// cycle count (asserted by this crate's property tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Inside attempts that eventually committed, excluding their
    /// validation stalls — the paper's "useful speculation".
    pub useful: u64,
    /// Inside attempts that eventually aborted, excluding their
    /// validation stalls — wasted speculation, the work CHATS exists to
    /// salvage.
    pub wasted: u64,
    /// Stalled at `TxEnd` with a non-empty VSB (§IV-B commit condition)
    /// or a deferred commit release.
    pub validation_stall: u64,
    /// Holding the fallback path: serialized, non-speculative execution.
    pub fallback: u64,
    /// Everything else: non-transactional instructions, backoff, waiting
    /// for the lock/token, and post-halt idling.
    pub other: u64,
}

impl CycleBreakdown {
    /// Sum of all buckets — the cycles this breakdown accounts for
    /// (saturating, like every sum this module folds from a trace).
    #[must_use]
    pub fn total(&self) -> u64 {
        [
            self.wasted,
            self.validation_stall,
            self.fallback,
            self.other,
        ]
        .into_iter()
        .fold(self.useful, u64::saturating_add)
    }

    /// Adds `rhs` bucket-wise (for aggregating cores).
    pub fn accumulate(&mut self, rhs: &CycleBreakdown) {
        self.useful = self.useful.saturating_add(rhs.useful);
        self.wasted = self.wasted.saturating_add(rhs.wasted);
        self.validation_stall = self.validation_stall.saturating_add(rhs.validation_stall);
        self.fallback = self.fallback.saturating_add(rhs.fallback);
        self.other = self.other.saturating_add(rhs.other);
    }
}

/// One core's reconstructed history.
///
/// A core's attempts run one after another, so the forwardings of each
/// attempt form one contiguous slice of the core's `forwards_out` and
/// `forwards_in` lists, in attempt order; an attempt records only where
/// its slices end. A core keeps at most `u32::MAX` forwardings each way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreTimeline {
    /// Closed attempts, in the order they closed.
    attempts: Vec<Attempt>,
    /// `SpecResp`s produced by the attempts, as `(when, consumer, line)`.
    forwards_out: Vec<Forwarding>,
    /// `SpecResp`s consumed by the attempts, as `(when, producer, line)`.
    forwards_in: Vec<Forwarding>,
    /// Fallback-hold intervals (acquisition to release).
    pub fallbacks: Vec<Interval>,
    /// The core's cycle partition.
    pub breakdown: CycleBreakdown,
}

impl CoreTimeline {
    /// The core's attempts, in the order they closed (begin order for a
    /// stream that keeps each core's events in time order).
    #[must_use]
    pub fn attempts(&self) -> &[Attempt] {
        &self.attempts
    }

    /// The `SpecResp`s attempt `i` produced, as `(when, consumer, line)`.
    ///
    /// # Panics
    ///
    /// If `i` is not an attempt index.
    #[must_use]
    pub fn forwards_out(&self, i: usize) -> &[Forwarding] {
        let start = i.checked_sub(1).map_or(0, |p| self.attempts[p].out_end);
        &self.forwards_out[start as usize..self.attempts[i].out_end as usize]
    }

    /// The `SpecResp`s attempt `i` consumed, as `(when, producer, line)`.
    ///
    /// # Panics
    ///
    /// If `i` is not an attempt index.
    #[must_use]
    pub fn forwards_in(&self, i: usize) -> &[Forwarding] {
        let start = i.checked_sub(1).map_or(0, |p| self.attempts[p].in_end);
        &self.forwards_in[start as usize..self.attempts[i].in_end as usize]
    }

    /// Appends to one of the lists on behalf of the open attempt, unless
    /// the list is full.
    fn push_forward(list: &mut Vec<Forwarding>, f: Forwarding) {
        if list.len() < u32::MAX as usize {
            list.push(f);
        }
    }

    /// Forgets the open attempt's forwardings: they are the entries past
    /// the last closed attempt's slices.
    fn drop_open_forwards(&mut self) {
        let (out_end, in_end) = self
            .attempts
            .last()
            .map_or((0, 0), |a| (a.out_end, a.in_end));
        self.forwards_out.truncate(out_end as usize);
        self.forwards_in.truncate(in_end as usize);
    }
}

/// Chain analytics extracted from `Forward` events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Forwardings per PiC *depth* — the distance of the carried PiC from
    /// its initial middle-of-range value (0 = freshly linked pair).
    /// Forwardings without a PiC (power producers) are excluded.
    pub pic_depth_hist: BTreeMap<u32, u64>,
    /// Distribution of *chain lengths*: for each maximal burst of
    /// forwardings linked by shared endpoints, the number of transactions
    /// involved. Two isolated transactions forwarding once form a chain
    /// of length 2.
    pub chain_len_hist: BTreeMap<usize, u64>,
    /// Producer→consumer forwarding counts (the forwarding graph edges).
    pub graph: BTreeMap<(usize, usize), u64>,
    /// Total forwardings observed.
    pub forwardings: u64,
}

/// Interconnect usage derived from `NocSend` events. Unlike the cycle
/// buckets these cycles *overlap* core execution (messages fly while
/// cores run), so they are reported as an overlay, not a partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocUsage {
    /// Messages injected.
    pub messages: u64,
    /// Flits injected (the paper's Figure 7 metric).
    pub flits: u64,
    /// Total in-flight cycles, summed over messages (arrival − injection).
    pub transit_cycles: u64,
    /// The share of `transit_cycles` beyond pure serialization + link
    /// latency: time spent queued behind other messages at the source
    /// egress port.
    pub queueing_cycles: u64,
}

/// Fault-injection and watchdog activity observed in the stream. Empty
/// for fault-free runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultActivity {
    /// Injection counts keyed by fault-kind label (e.g. `"delay"`,
    /// `"spurious-abort"`).
    pub injections: BTreeMap<&'static str, u64>,
    /// Watchdog firings as `(cycle, starved core)`.
    pub watchdog: Vec<(Cycle, usize)>,
}

impl FaultActivity {
    /// Total injections across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.injections.values().sum()
    }

    /// `true` when the run saw no injections and no watchdog firings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty() && self.watchdog.is_empty()
    }
}

/// The reconstructed run: per-core timelines plus run-wide analytics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Per-core histories, indexed by core id.
    pub cores: Vec<CoreTimeline>,
    /// Chain analytics.
    pub chains: ChainStats,
    /// Interconnect usage.
    pub noc: NocUsage,
    /// Fault-injection activity.
    pub faults: FaultActivity,
    /// Forwardings per conflicting line — the run's contention heat map,
    /// attributable to named memory regions via
    /// [`crate::text_report_with_regions`].
    pub hot_lines: BTreeMap<u64, u64>,
    /// Total simulated cycles (the horizon every core is accounted to).
    pub total_cycles: u64,
}

/// Per-core fold state while scanning the stream.
#[derive(Default)]
struct CoreScan {
    open_attempt: Option<Attempt>,
    stall_since: Option<Cycle>,
    fallback_since: Option<Cycle>,
    /// The [`Chains`] node of the core's current attempt, once a
    /// forwarding has touched it.
    chain_node: Option<usize>,
}

impl Timeline {
    /// Folds an event stream (emission order) into a timeline, in one
    /// pass.
    ///
    /// `events` is anything that yields the events in order: a
    /// [`crate::TraceLog`] (decoded as it is read), a `Vec` or a slice.
    /// The stream must keep each core's events in time order, as the
    /// machine emits them; events of different cores interleave freely.
    ///
    /// `total_cycles` is the run length from `RunStats::cycles`; every
    /// core's breakdown is accounted against this horizon. The stream is
    /// expected to be complete (an unbounded sink); on a truncated ring
    /// stream, unmatched end-events are skipped and the result is a
    /// best-effort view. An end event earlier than its begin (a damaged
    /// stream, or a horizon below an open span's start) is unmatched too,
    /// so no span ever runs backwards, and every sum saturates instead of
    /// wrapping.
    #[must_use]
    pub fn rebuild<I>(events: I, total_cycles: u64) -> Timeline
    where
        I: IntoIterator,
        I::Item: Borrow<TraceEvent>,
    {
        let mut scans: Vec<CoreScan> = Vec::new();
        let mut chains = Chains::default();
        let mut tl = Timeline {
            total_cycles,
            ..Timeline::default()
        };

        for ev in events {
            let ev: &TraceEvent = ev.borrow();
            // NocSend endpoints include the directory node; core events
            // bound the core count exactly.
            let cores = match ev {
                TraceEvent::NocSend { .. } => 0,
                TraceEvent::Forward { from, to, .. } => usize::from(*from.max(to)) + 1,
                other => other.core().map_or(0, |c| c + 1),
            };
            if cores > scans.len() {
                scans.resize_with(cores, CoreScan::default);
                tl.cores.resize_with(cores, CoreTimeline::default);
            }
            match ev {
                TraceEvent::TxBegin { at, core } => {
                    let core = usize::from(*core);
                    let s = &mut scans[core];
                    // A TxBegin while an attempt is open means the stream
                    // lost the closing event; drop the half-seen attempt.
                    if s.open_attempt.is_some() {
                        tl.cores[core].drop_open_forwards();
                    }
                    s.open_attempt = Some(Attempt {
                        span: Interval {
                            begin: *at,
                            end: *at,
                        },
                        outcome: AttemptOutcome::Unfinished,
                        val_stall: 0,
                        validations: 0,
                        evictions: 0,
                        vsb_peak: 0,
                        out_end: 0,
                        in_end: 0,
                    });
                    s.stall_since = None;
                    s.chain_node = None;
                }
                TraceEvent::Commit { at, core } => {
                    let core = usize::from(*core);
                    Timeline::close_attempt(
                        &mut scans[core],
                        &mut tl.cores[core],
                        *at,
                        AttemptOutcome::Committed,
                    );
                }
                TraceEvent::Abort { at, core, cause } => {
                    let core = usize::from(*core);
                    Timeline::close_attempt(
                        &mut scans[core],
                        &mut tl.cores[core],
                        *at,
                        AttemptOutcome::Aborted(*cause),
                    );
                }
                TraceEvent::Forward {
                    at,
                    from,
                    to,
                    line,
                    pic,
                } => {
                    let (from, to) = (usize::from(*from), usize::from(*to));
                    tl.chains.forwardings += 1;
                    *tl.chains.graph.entry((from, to)).or_insert(0) += 1;
                    *tl.hot_lines.entry(line.0).or_insert(0) += 1;
                    if let Some(p) = pic {
                        if let (Some(v), Some(init)) = (p.value(), Pic::INIT.value()) {
                            let depth = u32::from(v.abs_diff(init));
                            *tl.chains.pic_depth_hist.entry(depth).or_insert(0) += 1;
                        }
                    }
                    let producer = chains.node(&mut scans[from].chain_node);
                    let consumer = chains.node(&mut scans[to].chain_node);
                    chains.union(producer, consumer);
                    if scans[from].open_attempt.is_some() {
                        CoreTimeline::push_forward(
                            &mut tl.cores[from].forwards_out,
                            (*at, to, *line),
                        );
                    }
                    if scans[to].open_attempt.is_some() {
                        CoreTimeline::push_forward(
                            &mut tl.cores[to].forwards_in,
                            (*at, from, *line),
                        );
                    }
                }
                TraceEvent::Validated { at: _, core, .. } => {
                    if let Some(a) = scans[usize::from(*core)].open_attempt.as_mut() {
                        a.validations = a.validations.saturating_add(1);
                    }
                }
                TraceEvent::Fallback { at, core } => {
                    scans[usize::from(*core)].fallback_since = Some(*at);
                }
                TraceEvent::FallbackRelease { at, core } => {
                    let core = usize::from(*core);
                    let s = &mut scans[core];
                    if let Some(begin) = s.fallback_since.filter(|begin| begin <= at) {
                        s.fallback_since = None;
                        tl.cores[core].fallbacks.push(Interval { begin, end: *at });
                    }
                }
                TraceEvent::NocSend {
                    at, flits, arrive, ..
                } => {
                    let flits = u64::from(*flits);
                    tl.noc.messages += 1;
                    tl.noc.flits += flits;
                    if let Some(transit) = arrive.0.checked_sub(at.0) {
                        tl.noc.transit_cycles = tl.noc.transit_cycles.saturating_add(transit);
                        // Uncontended cost: serialize `flits` cycles at the
                        // egress port, then one link hop (NocConfig default).
                        tl.noc.queueing_cycles = tl
                            .noc
                            .queueing_cycles
                            .saturating_add(transit.saturating_sub(flits + 1));
                    }
                }
                TraceEvent::ValStallBegin { at, core } => {
                    scans[usize::from(*core)].stall_since = Some(*at);
                }
                TraceEvent::ValStallEnd { at, core } => {
                    let s = &mut scans[usize::from(*core)];
                    if let Some(begin) = s.stall_since.filter(|begin| begin <= at) {
                        s.stall_since = None;
                        if let Some(a) = s.open_attempt.as_mut() {
                            a.val_stall = a.val_stall.saturating_add(at.0 - begin.0);
                        }
                    }
                }
                TraceEvent::VsbInsert {
                    core, occupancy, ..
                } => {
                    if let Some(a) = scans[usize::from(*core)].open_attempt.as_mut() {
                        a.vsb_peak = a.vsb_peak.max(*occupancy);
                    }
                }
                TraceEvent::VsbEvict { core, .. } => {
                    if let Some(a) = scans[usize::from(*core)].open_attempt.as_mut() {
                        a.evictions = a.evictions.saturating_add(1);
                    }
                }
                TraceEvent::FaultInjected { kind, .. } => {
                    *tl.faults.injections.entry(kind.label()).or_insert(0) += 1;
                }
                TraceEvent::WatchdogFired { at, core } => {
                    tl.faults.watchdog.push((*at, usize::from(*core)));
                }
            }
        }

        // Close whatever is still open at the horizon (timeout runs); a
        // span that starts past the horizon has no end and is dropped.
        let end = Cycle(total_cycles);
        for (core, s) in scans.iter_mut().enumerate() {
            if let Some(begin) = s.fallback_since.take().filter(|begin| *begin <= end) {
                tl.cores[core].fallbacks.push(Interval { begin, end });
            }
            match s.open_attempt.take() {
                Some(a) if a.span.begin <= end => Timeline::end_attempt(
                    a,
                    s.stall_since.take(),
                    &mut tl.cores[core],
                    end,
                    AttemptOutcome::Unfinished,
                ),
                Some(_) => tl.cores[core].drop_open_forwards(),
                None => {}
            }
        }

        for ct in &mut tl.cores {
            ct.breakdown = Timeline::account(ct, total_cycles);
        }
        tl.chains.chain_len_hist = chains.histogram();
        tl
    }

    fn close_attempt(
        scan: &mut CoreScan,
        ct: &mut CoreTimeline,
        at: Cycle,
        outcome: AttemptOutcome,
    ) {
        // A lone Commit/Abort (truncated stream), or one earlier than the
        // open attempt's begin, has nothing to close.
        let Some(a) = scan.open_attempt.take_if(|a| a.span.begin <= at) else {
            return;
        };
        Timeline::end_attempt(a, scan.stall_since.take(), ct, at, outcome);
    }

    /// Ends attempt `a` at `at` (not before its begin), charging a stall
    /// still open since `stall_since` up to `at`.
    fn end_attempt(
        mut a: Attempt,
        stall_since: Option<Cycle>,
        ct: &mut CoreTimeline,
        at: Cycle,
        outcome: AttemptOutcome,
    ) {
        if let Some(begin) = stall_since {
            a.val_stall = a.val_stall.saturating_add(at.0.saturating_sub(begin.0));
        }
        a.span.end = at;
        a.outcome = outcome;
        let end = |list: &[Forwarding]| {
            u32::try_from(list.len()).expect("push_forward keeps a list within u32::MAX entries")
        };
        a.out_end = end(&ct.forwards_out);
        a.in_end = end(&ct.forwards_in);
        ct.attempts.push(a);
    }

    /// Builds the strict partition for one core. Attempt and fallback
    /// spans never overlap (fallback runs between attempts), so the
    /// classified cycles are disjoint and `other` is the exact remainder.
    /// Every span is clipped to the horizon, so a `total_cycles` shorter
    /// than the stream still partitions exactly.
    fn account(ct: &CoreTimeline, total_cycles: u64) -> CycleBreakdown {
        // Cycles of `[from, to)` inside the horizon `h`.
        let h = total_cycles;
        let within = |from: u64, to: u64| to.min(h).saturating_sub(from.min(h));
        let mut b = CycleBreakdown::default();
        for a in &ct.attempts {
            let (begin, end) = (a.span.begin.0, a.span.end.0);
            // The validation stall closes the attempt.
            let stall_from = end - a.val_stall.min(end - begin);
            let bucket = match a.outcome {
                AttemptOutcome::Committed => &mut b.useful,
                AttemptOutcome::Aborted(_) => &mut b.wasted,
                // Unfinished work is neither proven useful nor wasted;
                // leave it in `other` (the remainder) rather than guess.
                AttemptOutcome::Unfinished => continue,
            };
            *bucket = bucket.saturating_add(within(begin, stall_from));
            b.validation_stall = b.validation_stall.saturating_add(within(stall_from, end));
        }
        for f in &ct.fallbacks {
            b.fallback = b.fallback.saturating_add(within(f.begin.0, f.end.0));
        }
        b.other = total_cycles.saturating_sub(b.total());
        b
    }

    /// Bucket-wise sum over all cores; its `total()` equals
    /// `total_cycles × cores.len()` for complete streams.
    #[must_use]
    pub fn aggregate(&self) -> CycleBreakdown {
        let mut agg = CycleBreakdown::default();
        for ct in &self.cores {
            agg.accumulate(&ct.breakdown);
        }
        agg
    }

    /// Committed attempts across all cores.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.cores
            .iter()
            .flat_map(|c| &c.attempts)
            .filter(|a| a.outcome == AttemptOutcome::Committed)
            .count() as u64
    }

    /// Aborted attempts across all cores.
    #[must_use]
    pub fn aborts(&self) -> u64 {
        self.cores
            .iter()
            .flat_map(|c| &c.attempts)
            .filter(|a| matches!(a.outcome, AttemptOutcome::Aborted(_)))
            .count() as u64
    }
}

/// Groups forwardings into chains, for their length histogram.
///
/// A *chain instance* is a set of transactions linked by forwardings that
/// are concurrently live; we approximate it by uniting forward edges whose
/// endpoints share a core while that core's attempt is still open, i.e. a
/// union-find over attempts, each a node from the first forwarding that
/// touches it ([`CoreScan::chain_node`]).
#[derive(Default)]
struct Chains {
    parent: Vec<usize>,
}

impl Chains {
    /// The node in `slot`, made on first use.
    fn node(&mut self, slot: &mut Option<usize>) -> usize {
        *slot.get_or_insert_with(|| {
            self.parent.push(self.parent.len());
            self.parent.len() - 1
        })
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Chains per length (transactions linked).
    fn histogram(mut self) -> BTreeMap<usize, u64> {
        let mut sizes = vec![0usize; self.parent.len()];
        for x in 0..self.parent.len() {
            sizes[self.find(x)] += 1;
        }
        let mut hist = BTreeMap::new();
        for size in sizes.into_iter().filter(|&n| n > 0) {
            *hist.entry(size).or_insert(0) += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_begin(at: u64, core: u16) -> TraceEvent {
        TraceEvent::TxBegin {
            at: Cycle(at),
            core,
        }
    }

    fn ev_commit(at: u64, core: u16) -> TraceEvent {
        TraceEvent::Commit {
            at: Cycle(at),
            core,
        }
    }

    fn ev_abort(at: u64, core: u16) -> TraceEvent {
        TraceEvent::Abort {
            at: Cycle(at),
            core,
            cause: AbortCause::Conflict,
        }
    }

    #[test]
    fn buckets_partition_the_run() {
        let events = vec![
            ev_begin(10, 0),
            TraceEvent::ValStallBegin {
                at: Cycle(40),
                core: 0,
            },
            TraceEvent::ValStallEnd {
                at: Cycle(55),
                core: 0,
            },
            ev_commit(55, 0),
            ev_begin(60, 0),
            ev_abort(80, 0),
            TraceEvent::Fallback {
                at: Cycle(85),
                core: 0,
            },
            TraceEvent::FallbackRelease {
                at: Cycle(95),
                core: 0,
            },
        ];
        let tl = Timeline::rebuild(&events, 100);
        let b = tl.cores[0].breakdown;
        assert_eq!(b.useful, 30, "45 committed-span cycles minus 15 stall");
        assert_eq!(b.validation_stall, 15);
        assert_eq!(b.wasted, 20);
        assert_eq!(b.fallback, 10);
        assert_eq!(b.other, 100 - 30 - 15 - 20 - 10);
        assert_eq!(b.total(), 100);
    }

    #[test]
    fn spans_past_the_horizon_are_clipped() {
        let events = vec![ev_begin(0, 0), ev_commit(50, 0)];
        let tl = Timeline::rebuild(&events, 10);
        let b = tl.cores[0].breakdown;
        assert_eq!(b.total(), 10, "buckets sum to the horizon: {b:?}");
        assert_eq!(b.useful, 10, "util is at most 100%");
        assert_eq!(b.other, 0);
    }

    #[test]
    fn unfinished_attempt_lands_in_other() {
        let events = vec![ev_begin(10, 0)];
        let tl = Timeline::rebuild(&events, 50);
        let b = tl.cores[0].breakdown;
        assert_eq!(b.useful + b.wasted + b.validation_stall, 0);
        assert_eq!(b.other, 50);
        assert_eq!(tl.cores[0].attempts().len(), 1);
        assert_eq!(
            tl.cores[0].attempts()[0].outcome,
            AttemptOutcome::Unfinished
        );
    }

    #[test]
    fn forwarding_graph_and_pic_depths() {
        let events = vec![
            ev_begin(0, 0),
            ev_begin(0, 1),
            TraceEvent::Forward {
                at: Cycle(5),
                from: 0,
                to: 1,
                line: LineAddr(1),
                pic: Some(Pic::INIT),
            },
            TraceEvent::Forward {
                at: Cycle(9),
                from: 0,
                to: 1,
                line: LineAddr(2),
                pic: None,
            },
            ev_commit(10, 0),
            ev_commit(20, 1),
        ];
        let tl = Timeline::rebuild(&events, 30);
        assert_eq!(tl.chains.forwardings, 2);
        assert_eq!(tl.chains.graph.get(&(0, 1)), Some(&2));
        assert_eq!(tl.hot_lines.get(&1), Some(&1));
        assert_eq!(tl.hot_lines.get(&2), Some(&1));
        assert_eq!(tl.chains.pic_depth_hist.get(&0), Some(&1), "INIT = depth 0");
        assert_eq!(
            tl.chains.pic_depth_hist.values().sum::<u64>(),
            1,
            "pic-less forward excluded"
        );
        assert_eq!(tl.chains.chain_len_hist.get(&2), Some(&1));
        assert_eq!(tl.cores[0].forwards_out(0).len(), 2);
        assert_eq!(tl.cores[1].forwards_in(0).len(), 2);
    }

    #[test]
    fn three_link_chain_counts_as_one_chain_of_three() {
        let events = vec![
            ev_begin(0, 0),
            ev_begin(0, 1),
            ev_begin(0, 2),
            TraceEvent::Forward {
                at: Cycle(3),
                from: 0,
                to: 1,
                line: LineAddr(1),
                pic: Some(Pic::INIT),
            },
            TraceEvent::Forward {
                at: Cycle(6),
                from: 1,
                to: 2,
                line: LineAddr(2),
                pic: Some(Pic::INIT),
            },
            ev_commit(10, 0),
            ev_commit(12, 1),
            ev_commit(14, 2),
        ];
        let tl = Timeline::rebuild(&events, 20);
        assert_eq!(tl.chains.chain_len_hist.get(&3), Some(&1));
        assert_eq!(tl.chains.chain_len_hist.len(), 1);
    }

    #[test]
    fn noc_usage_sums_transit_and_queueing() {
        let events = vec![
            TraceEvent::NocSend {
                at: Cycle(0),
                src: 0,
                dst: 4,
                flits: 1,
                arrive: Cycle(2), // uncontended: 1 flit + 1 link hop
            },
            TraceEvent::NocSend {
                at: Cycle(0),
                src: 0,
                dst: 4,
                flits: 5,
                arrive: Cycle(7), // queued 1 cycle behind the first
            },
        ];
        let tl = Timeline::rebuild(&events, 10);
        assert_eq!(tl.noc.messages, 2);
        assert_eq!(tl.noc.flits, 6);
        assert_eq!(tl.noc.transit_cycles, 9);
        assert_eq!(tl.noc.queueing_cycles, 1);
    }

    #[test]
    fn ends_before_their_begins_are_unmatched() {
        let events = vec![
            ev_begin(10, 0),
            ev_commit(5, 0),
            TraceEvent::ValStallBegin {
                at: Cycle(30),
                core: 0,
            },
            TraceEvent::ValStallEnd {
                at: Cycle(20),
                core: 0,
            },
            TraceEvent::Fallback {
                at: Cycle(40),
                core: 1,
            },
            TraceEvent::FallbackRelease {
                at: Cycle(35),
                core: 1,
            },
            TraceEvent::NocSend {
                at: Cycle(9),
                src: 0,
                dst: 2,
                flits: 1,
                arrive: Cycle(5),
            },
        ];
        let tl = Timeline::rebuild(&events, 50);
        let a = &tl.cores[0].attempts()[0];
        assert_eq!(tl.cores[0].attempts().len(), 1);
        assert_eq!(a.outcome, AttemptOutcome::Unfinished, "the early commit");
        assert_eq!((a.span.begin, a.span.end), (Cycle(10), Cycle(50)));
        assert_eq!(a.val_stall, 20, "the stall stays open to the horizon");
        assert_eq!(
            tl.cores[1].fallbacks,
            [Interval {
                begin: Cycle(40),
                end: Cycle(50)
            }]
        );
        assert_eq!((tl.noc.messages, tl.noc.transit_cycles), (1, 0));
        assert_eq!(tl.aggregate().total(), 100);

        // A horizon below an open span's begin drops the span.
        let tl = Timeline::rebuild(&events, 8);
        assert!(tl.cores[0].attempts().is_empty());
        assert!(tl.cores[1].fallbacks.is_empty());
        assert_eq!(tl.aggregate().total(), 16);
    }

    #[test]
    fn sums_saturate_instead_of_wrapping() {
        let events = vec![
            ev_begin(0, 0),
            ev_commit(u64::MAX, 0),
            ev_begin(0, 0),
            ev_commit(u64::MAX, 0),
            ev_begin(0, 1),
        ];
        let tl = Timeline::rebuild(&events, u64::MAX);
        assert_eq!(tl.cores[0].breakdown.useful, u64::MAX);
        assert_eq!(tl.aggregate().total(), u64::MAX);
    }

    #[test]
    fn dropped_attempts_leave_no_entries_behind() {
        let fwd = |at: u64, from: u16, to: u16| TraceEvent::Forward {
            at: Cycle(at),
            from,
            to,
            line: LineAddr(1),
            pic: None,
        };
        let events = vec![
            ev_begin(0, 0),
            ev_begin(0, 1),
            fwd(1, 0, 1),
            // Lost closing event: this begin drops core 0's first attempt.
            ev_begin(2, 0),
            fwd(3, 0, 1),
            ev_commit(4, 0),
            ev_commit(4, 1),
            // Both begin past the horizon of 10 and are dropped there.
            ev_begin(20, 0),
            ev_begin(20, 1),
            fwd(21, 1, 0),
        ];
        let tl = Timeline::rebuild(&events, 10);
        let (c0, c1) = (&tl.cores[0], &tl.cores[1]);
        assert_eq!(c0.forwards_out, [(Cycle(3), 1, LineAddr(1))]);
        assert!(c0.forwards_in.is_empty());
        assert_eq!(c1.forwards_in.len(), 2);
        assert!(c1.forwards_out.is_empty());
    }

    #[test]
    fn vsb_occupancy_and_evictions_attach_to_attempts() {
        let events = vec![
            ev_begin(0, 0),
            TraceEvent::VsbInsert {
                at: Cycle(2),
                core: 0,
                line: LineAddr(1),
                occupancy: 1,
            },
            TraceEvent::VsbInsert {
                at: Cycle(3),
                core: 0,
                line: LineAddr(2),
                occupancy: 2,
            },
            TraceEvent::Validated {
                at: Cycle(5),
                core: 0,
                line: LineAddr(1),
            },
            TraceEvent::VsbEvict {
                at: Cycle(8),
                core: 0,
                line: LineAddr(2),
            },
            ev_abort(8, 0),
        ];
        let tl = Timeline::rebuild(&events, 10);
        let a = &tl.cores[0].attempts()[0];
        assert_eq!(a.vsb_peak, 2);
        assert_eq!(a.validations, 1);
        assert_eq!(a.evictions, 1);
    }
}
