//! The compact in-memory trace log behind [`crate::VecSink`].
//!
//! A paper-scale traced run records millions of events, so the log
//! stores each one in a few bytes instead of the 24 of a [`TraceEvent`]:
//!
//! * **Chunks.** Events are appended to fixed-size byte chunks
//!   ([`CHUNK_BYTES`]); a full chunk is closed and a fresh one started,
//!   so the log never doubles or copies what it already holds. An event
//!   never straddles two chunks.
//! * **Events.** One tag byte (the variant in the low nibble; an
//!   `Abort`'s cause or a `FaultInjected`'s kind in the high nibble), then
//!   LEB128 varints: the time as a zigzag delta from the previous event's
//!   `at`, then the variant's fields in declaration order. Events from
//!   different cores interleave, so time steps back by up to a few
//!   hundred cycles and the delta is signed. A `NocSend`'s `arrive` is a
//!   zigzag delta from its own `at`, and a `Forward`'s PiC is `0` for
//!   none, `1` for PiC∅ and `2 + value` otherwise.
//!
//! Every delta is taken with wrapping arithmetic, so any `u64` timestamp
//! sequence round-trips exactly. [`TraceLog::iter`] decodes the stream
//! back to [`TraceEvent`]s one at a time, which is how
//! [`crate::Timeline::rebuild`] reads it without a second copy.

use chats_core::{AbortCause, Pic};
use chats_machine::{FaultKind, TraceEvent};
use chats_mem::LineAddr;
use chats_sim::Cycle;
use std::fmt;

/// Bytes per chunk.
const CHUNK_BYTES: usize = 1 << 16;

/// The longest event encoding: a `NocSend` with a 10-byte time delta,
/// three 3-byte ids and a 10-byte arrival delta.
const MAX_EVENT_BYTES: usize = 1 + 10 + 3 * 3 + 10;

// Tags, in `TraceEvent` declaration order.
const TX_BEGIN: u8 = 0;
const COMMIT: u8 = 1;
const ABORT: u8 = 2;
const FORWARD: u8 = 3;
const VALIDATED: u8 = 4;
const FALLBACK: u8 = 5;
const FALLBACK_RELEASE: u8 = 6;
const NOC_SEND: u8 = 7;
const VAL_STALL_BEGIN: u8 = 8;
const VAL_STALL_END: u8 = 9;
const VSB_INSERT: u8 = 10;
const VSB_EVICT: u8 = 11;
const FAULT_INJECTED: u8 = 12;
const WATCHDOG_FIRED: u8 = 13;

// Both enums index their `ALL` tables by declaration order and fit the
// tag's high nibble.
const _: () = assert!(AbortCause::ALL.len() <= 16 && FaultKind::ALL.len() <= 16);

/// An append-only, chunked, compactly encoded event stream in emission
/// order (see the module docs for the layout).
#[derive(Default)]
pub struct TraceLog {
    /// Closed chunks, each truncated to its encoded bytes, then the open
    /// one: zero-filled to [`CHUNK_BYTES`] and written up to `tail`.
    chunks: Vec<Vec<u8>>,
    tail: usize,
    len: usize,
    /// The previous event's `at`, which the next time delta is taken from.
    last_at: u64,
}

impl TraceLog {
    /// Appends one event.
    #[inline]
    pub(crate) fn push(&mut self, ev: &TraceEvent) {
        if self.chunks.is_empty() || CHUNK_BYTES - self.tail < MAX_EVENT_BYTES {
            if let Some(open) = self.chunks.last_mut() {
                open.truncate(self.tail);
            }
            self.chunks.push(vec![0; CHUNK_BYTES]);
            self.tail = 0;
        }
        let open = self.chunks.last_mut().expect("an open chunk");
        let mut out = Writer {
            bytes: (&mut open[self.tail..self.tail + MAX_EVENT_BYTES])
                .try_into()
                .expect("room for the longest event"),
            len: 0,
        };
        encode(&mut out, &mut self.last_at, ev);
        self.tail += out.len;
        self.len += 1;
    }

    /// Events held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no event has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded bytes held (the unwritten rest of the open chunk
    /// excluded).
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        self.chunks.split_last().map_or(0, |(_, closed)| {
            closed.iter().map(Vec::len).sum::<usize>() + self.tail
        })
    }

    /// Decodes the events, oldest first.
    #[must_use]
    pub fn iter(&self) -> TraceLogIter<'_> {
        TraceLogIter {
            chunks: self.chunks.iter(),
            chunk: &[],
            at: 0,
            left: self.len,
        }
    }
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLog")
            .field("len", &self.len)
            .field("encoded_bytes", &self.encoded_bytes())
            .finish()
    }
}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = TraceEvent;
    type IntoIter = TraceLogIter<'a>;

    fn into_iter(self) -> TraceLogIter<'a> {
        self.iter()
    }
}

/// The decoding iterator of a [`TraceLog`].
///
/// Its methods are `#[inline]` because its main reader,
/// [`crate::Timeline::rebuild`], is generic and so compiled in its
/// caller's crate, where only inline functions can be inlined.
pub struct TraceLogIter<'a> {
    chunks: std::slice::Iter<'a, Vec<u8>>,
    /// The undecoded rest of the current chunk.
    chunk: &'a [u8],
    /// The previous event's `at`.
    at: u64,
    left: usize,
}

impl Iterator for TraceLogIter<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        // The open chunk's unwritten zeros are never reached: the count
        // ends first.
        if self.left == 0 {
            return None;
        }
        while self.chunk.is_empty() {
            self.chunk = self.chunks.next()?;
        }
        self.left -= 1;
        Some(self.decode())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for TraceLogIter<'_> {}

fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Writes one event into the open chunk through a fixed-size window, so
/// the byte stores need no length bookkeeping on the chunk itself.
struct Writer<'a> {
    bytes: &'a mut [u8; MAX_EVENT_BYTES],
    len: usize,
}

impl Writer<'_> {
    /// The tag byte, then the time delta from `*prev`, which becomes `at`.
    #[inline]
    fn head(&mut self, tag: u8, at: Cycle, prev: &mut u64) {
        self.bytes[0] = tag;
        self.len = 1;
        self.put(zigzag(at.0.wrapping_sub(*prev)));
        *prev = at.0;
    }

    #[inline]
    fn put(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes[self.len] = v as u8 | 0x80;
            self.len += 1;
            v >>= 7;
        }
        self.bytes[self.len] = v as u8;
        self.len += 1;
    }
}

fn pic_code(pic: Option<Pic>) -> u64 {
    match pic.map(Pic::value) {
        None => 0,
        Some(None) => 1,
        Some(Some(v)) => 2 + u64::from(v),
    }
}

/// Writes `ev`, its time as a delta from `*prev`, which becomes its `at`.
#[inline]
fn encode(e: &mut Writer<'_>, prev: &mut u64, ev: &TraceEvent) {
    match *ev {
        TraceEvent::TxBegin { at, core } => {
            e.head(TX_BEGIN, at, prev);
            e.put(core.into());
        }
        TraceEvent::Commit { at, core } => {
            e.head(COMMIT, at, prev);
            e.put(core.into());
        }
        TraceEvent::Abort { at, core, cause } => {
            e.head(ABORT | (cause as u8) << 4, at, prev);
            e.put(core.into());
        }
        TraceEvent::Forward {
            at,
            from,
            to,
            line,
            pic,
        } => {
            e.head(FORWARD, at, prev);
            e.put(from.into());
            e.put(to.into());
            e.put(line.0);
            e.put(pic_code(pic));
        }
        TraceEvent::Validated { at, core, line } => {
            e.head(VALIDATED, at, prev);
            e.put(core.into());
            e.put(line.0);
        }
        TraceEvent::Fallback { at, core } => {
            e.head(FALLBACK, at, prev);
            e.put(core.into());
        }
        TraceEvent::FallbackRelease { at, core } => {
            e.head(FALLBACK_RELEASE, at, prev);
            e.put(core.into());
        }
        TraceEvent::NocSend {
            at,
            src,
            dst,
            flits,
            arrive,
        } => {
            e.head(NOC_SEND, at, prev);
            e.put(src.into());
            e.put(dst.into());
            e.put(flits.into());
            e.put(zigzag(arrive.0.wrapping_sub(at.0)));
        }
        TraceEvent::ValStallBegin { at, core } => {
            e.head(VAL_STALL_BEGIN, at, prev);
            e.put(core.into());
        }
        TraceEvent::ValStallEnd { at, core } => {
            e.head(VAL_STALL_END, at, prev);
            e.put(core.into());
        }
        TraceEvent::VsbInsert {
            at,
            core,
            line,
            occupancy,
        } => {
            e.head(VSB_INSERT, at, prev);
            e.put(core.into());
            e.put(line.0);
            e.put(occupancy.into());
        }
        TraceEvent::VsbEvict { at, core, line } => {
            e.head(VSB_EVICT, at, prev);
            e.put(core.into());
            e.put(line.0);
        }
        TraceEvent::FaultInjected { at, core, kind } => {
            e.head(FAULT_INJECTED | (kind as u8) << 4, at, prev);
            e.put(core.into());
        }
        TraceEvent::WatchdogFired { at, core } => {
            e.head(WATCHDOG_FIRED, at, prev);
            e.put(core.into());
        }
    }
}

impl TraceLogIter<'_> {
    #[inline]
    fn byte(&mut self) -> u8 {
        let (&b, rest) = self.chunk.split_first().expect("a whole event");
        self.chunk = rest;
        b
    }

    /// One LEB128 value; the one-byte case comes first, which is most
    /// fields and decodes markedly faster than the general loop.
    #[inline]
    fn varint(&mut self) -> u64 {
        let b = self.byte();
        if b < 0x80 {
            return u64::from(b);
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// A field [`encode`] widened from a narrower type, so the narrowing
    /// is lossless.
    #[inline]
    fn narrow<T: TryFrom<u64>>(&mut self) -> T {
        T::try_from(self.varint())
            .unwrap_or_else(|_| unreachable!("the log holds only what push wrote"))
    }

    fn pic(&mut self) -> Option<Pic> {
        match self.varint() {
            0 => None,
            1 => Some(Pic::unset()),
            code => Some(Pic::new(u8::try_from(code - 2).unwrap_or_else(|_| {
                unreachable!("the log holds only what push wrote")
            }))),
        }
    }

    /// Decodes one event; struct fields evaluate in written order, which
    /// is the encoding order.
    #[inline]
    fn decode(&mut self) -> TraceEvent {
        let tag = self.byte();
        let at = Cycle(self.at.wrapping_add(unzigzag(self.varint())));
        self.at = at.0;
        let high = usize::from(tag >> 4);
        match tag & 0x0f {
            TX_BEGIN => TraceEvent::TxBegin {
                at,
                core: self.narrow(),
            },
            COMMIT => TraceEvent::Commit {
                at,
                core: self.narrow(),
            },
            ABORT => TraceEvent::Abort {
                at,
                core: self.narrow(),
                cause: AbortCause::ALL[high],
            },
            FORWARD => TraceEvent::Forward {
                at,
                from: self.narrow(),
                to: self.narrow(),
                line: LineAddr(self.varint()),
                pic: self.pic(),
            },
            VALIDATED => TraceEvent::Validated {
                at,
                core: self.narrow(),
                line: LineAddr(self.varint()),
            },
            FALLBACK => TraceEvent::Fallback {
                at,
                core: self.narrow(),
            },
            FALLBACK_RELEASE => TraceEvent::FallbackRelease {
                at,
                core: self.narrow(),
            },
            NOC_SEND => TraceEvent::NocSend {
                at,
                src: self.narrow(),
                dst: self.narrow(),
                flits: self.narrow(),
                arrive: Cycle(at.0.wrapping_add(unzigzag(self.varint()))),
            },
            VAL_STALL_BEGIN => TraceEvent::ValStallBegin {
                at,
                core: self.narrow(),
            },
            VAL_STALL_END => TraceEvent::ValStallEnd {
                at,
                core: self.narrow(),
            },
            VSB_INSERT => TraceEvent::VsbInsert {
                at,
                core: self.narrow(),
                line: LineAddr(self.varint()),
                occupancy: self.narrow(),
            },
            VSB_EVICT => TraceEvent::VsbEvict {
                at,
                core: self.narrow(),
                line: LineAddr(self.varint()),
            },
            FAULT_INJECTED => TraceEvent::FaultInjected {
                at,
                core: self.narrow(),
                kind: FaultKind::ALL[high],
            },
            WATCHDOG_FIRED => TraceEvent::WatchdogFired {
                at,
                core: self.narrow(),
            },
            _ => unreachable!("the log holds only what push wrote"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Timestamps, arrivals and lines: the extremes, small steps and the
    /// full domain.
    fn wide() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0), Just(u64::MAX), 0u64..512, any::<u64>()]
    }

    fn id() -> impl Strategy<Value = u16> {
        prop_oneof![Just(0), Just(u16::MAX), 0u16..16, any::<u16>()]
    }

    /// `None`, PiC∅ and every PiC value.
    fn pic(code: u16) -> Option<Pic> {
        match code {
            0 => None,
            1 => Some(Pic::unset()),
            v => Some(Pic::new((v - 2) as u8)),
        }
    }

    /// Any event of any of the 14 variants.
    fn event() -> impl Strategy<Value = TraceEvent> {
        (
            0u8..14,
            wide(),
            (id(), id(), id()),
            (wide(), wide()),
            (0usize..16, 0u16..=256, any::<u32>()),
        )
            .prop_map(|(tag, at, (a, b, c), (x, y), (sub, code, occupancy))| {
                let (at, core, line) = (Cycle(at), a, LineAddr(x));
                match tag {
                    TX_BEGIN => TraceEvent::TxBegin { at, core },
                    COMMIT => TraceEvent::Commit { at, core },
                    ABORT => TraceEvent::Abort {
                        at,
                        core,
                        cause: AbortCause::ALL[sub % AbortCause::ALL.len()],
                    },
                    FORWARD => TraceEvent::Forward {
                        at,
                        from: a,
                        to: b,
                        line,
                        pic: pic(code),
                    },
                    VALIDATED => TraceEvent::Validated { at, core, line },
                    FALLBACK => TraceEvent::Fallback { at, core },
                    FALLBACK_RELEASE => TraceEvent::FallbackRelease { at, core },
                    NOC_SEND => TraceEvent::NocSend {
                        at,
                        src: a,
                        dst: b,
                        flits: c,
                        arrive: Cycle(y),
                    },
                    VAL_STALL_BEGIN => TraceEvent::ValStallBegin { at, core },
                    VAL_STALL_END => TraceEvent::ValStallEnd { at, core },
                    VSB_INSERT => TraceEvent::VsbInsert {
                        at,
                        core,
                        line,
                        occupancy,
                    },
                    VSB_EVICT => TraceEvent::VsbEvict { at, core, line },
                    FAULT_INJECTED => TraceEvent::FaultInjected {
                        at,
                        core,
                        kind: FaultKind::ALL[sub % FaultKind::ALL.len()],
                    },
                    _ => TraceEvent::WatchdogFired { at, core },
                }
            })
    }

    fn round_trip(events: &[TraceEvent]) -> TraceLog {
        let mut log = TraceLog::default();
        for ev in events {
            log.push(ev);
        }
        assert_eq!(log.len(), events.len());
        assert_eq!(log.is_empty(), events.is_empty());
        assert_eq!(log.iter().len(), events.len());
        assert_eq!(log.iter().collect::<Vec<_>>(), events);
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_streams_round_trip(events in proptest::collection::vec(event(), 0..6000)) {
            round_trip(&events);
        }
    }

    #[test]
    fn extremes_round_trip() {
        let mut events = vec![
            TraceEvent::WatchdogFired {
                at: Cycle(u64::MAX),
                core: u16::MAX,
            },
            // u64::MAX -> 0 steps back by the whole domain.
            TraceEvent::TxBegin {
                at: Cycle(0),
                core: 0,
            },
            TraceEvent::NocSend {
                at: Cycle(9),
                src: 0,
                dst: 4,
                flits: 1,
                arrive: Cycle(5),
            },
            TraceEvent::NocSend {
                at: Cycle(u64::MAX),
                src: u16::MAX,
                dst: u16::MAX,
                flits: u16::MAX,
                arrive: Cycle(0),
            },
            TraceEvent::NocSend {
                at: Cycle(0),
                src: 0,
                dst: 0,
                flits: 0,
                arrive: Cycle(u64::MAX),
            },
            TraceEvent::VsbInsert {
                at: Cycle(0),
                core: 0,
                line: LineAddr(u64::MAX),
                occupancy: u32::MAX,
            },
        ];
        for cause in AbortCause::ALL {
            events.push(TraceEvent::Abort {
                at: Cycle(3),
                core: 1,
                cause,
            });
        }
        for kind in FaultKind::ALL {
            events.push(TraceEvent::FaultInjected {
                at: Cycle(2),
                core: 2,
                kind,
            });
        }
        for code in 0..=256 {
            events.push(TraceEvent::Forward {
                at: Cycle(u64::from(code)),
                from: 1,
                to: 2,
                line: LineAddr(0),
                pic: pic(code),
            });
        }
        round_trip(&events);
    }

    #[test]
    fn longest_encodings_fill_many_chunks() {
        // Half the domain away is the longest zigzag delta, both for the
        // time step and for the arrival.
        const FAR: u64 = 1 << 63;
        let widest = |at: u64| TraceEvent::NocSend {
            at: Cycle(at),
            src: u16::MAX,
            dst: u16::MAX,
            flits: u16::MAX,
            arrive: Cycle(at.wrapping_add(FAR)),
        };
        let mut log = TraceLog::default();
        log.push(&widest(FAR));
        assert_eq!(log.encoded_bytes(), MAX_EVENT_BYTES);

        let events: Vec<TraceEvent> = (0..3 * CHUNK_BYTES / MAX_EVENT_BYTES)
            .map(|i| widest(if i % 2 == 0 { FAR } else { 0 }))
            .collect();
        let log = round_trip(&events);
        assert_eq!(log.encoded_bytes(), events.len() * MAX_EVENT_BYTES);
        assert!(log.chunks.len() >= 3, "{} chunks", log.chunks.len());
        assert!(log.chunks.iter().all(|c| c.capacity() == CHUNK_BYTES));
    }
}
