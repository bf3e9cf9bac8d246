//! Unbounded capture sinks: the in-memory log and streaming JSON lines.

use crate::log::TraceLog;
use chats_machine::{TraceEvent, TraceSink};
use serde::{Deserialize, Serialize, Value};
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// An unbounded in-memory sink: keeps every event in emission order in a
/// compact [`TraceLog`] (a few bytes per event).
///
/// Use this when the run is small enough to hold (tests, examples,
/// profiling reruns); for long runs prefer [`JsonlSink`].
#[derive(Debug, Default)]
pub struct VecSink {
    events: TraceLog,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// The captured events, oldest first.
    #[must_use]
    pub fn events(&self) -> &TraceLog {
        &self.events
    }

    /// Recovers the events from the boxed sink
    /// [`chats_machine::Machine::take_trace_sink`] returns.
    ///
    /// # Panics
    ///
    /// Panics if the box holds some other sink type.
    #[must_use]
    pub fn into_events(sink: Box<dyn TraceSink>) -> TraceLog {
        let mut sink = sink;
        std::mem::take(
            &mut sink
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<VecSink>())
                .expect("sink is not a VecSink")
                .events,
        )
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(&ev);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// A streaming sink that writes one JSON object per line (JSON lines),
/// suitable for unbounded runs. Write errors do not abort the simulation:
/// the first error disables the sink and every subsequent event counts as
/// dropped, so truncation is visible in [`TraceSink::dropped`].
pub struct JsonlSink<W: Write> {
    out: Option<BufWriter<W>>,
    written: u64,
    dropped: u64,
}

impl JsonlSink<std::fs::File> {
    /// Creates (truncating) `path` and streams events into it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &Path) -> io::Result<JsonlSink<std::fs::File>> {
        Ok(JsonlSink::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer (buffered internally).
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink {
            out: Some(BufWriter::new(w)),
            written: 0,
            dropped: 0,
        }
    }

    /// Events successfully written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl<W: Write + 'static> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: TraceEvent) {
        let Some(out) = self.out.as_mut() else {
            self.dropped += 1;
            return;
        };
        let mut line = ev.to_value().to_compact();
        line.push('\n');
        if out.write_all(line.as_bytes()).is_ok() {
            self.written += 1;
        } else {
            self.out = None; // fail-stop: a broken writer stays broken
            self.dropped += 1;
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn flush(&mut self) {
        if let Some(out) = self.out.as_mut() {
            if out.flush().is_err() {
                self.out = None;
            }
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

/// Parses a JSON-lines trace back into events (blank lines are skipped).
///
/// A field out of its event's range (a core id past `u16`, say) and a
/// `NocSend` arriving before its injection, which the machine never
/// emits, are shape errors.
///
/// # Errors
///
/// Reports the first I/O, JSON or shape error with its line number.
pub fn read_jsonl<R: BufRead>(reader: R) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", idx + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let value = Value::parse(&line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let ev = TraceEvent::from_value(&value).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if let TraceEvent::NocSend { at, arrive, .. } = ev {
            if arrive < at {
                return Err(format!(
                    "line {}: NocSend arrives at cycle {} before its injection at cycle {}",
                    idx + 1,
                    arrive.0,
                    at.0
                ));
            }
        }
        events.push(ev);
    }
    Ok(events)
}

/// Reads a JSON-lines trace file written by [`JsonlSink`].
///
/// # Errors
///
/// Reports the open failure or the first malformed line.
pub fn read_jsonl_file(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_jsonl(io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chats_core::AbortCause;
    use chats_mem::LineAddr;
    use chats_sim::Cycle;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TxBegin {
                at: Cycle(5),
                core: 0,
            },
            TraceEvent::NocSend {
                at: Cycle(6),
                src: 0,
                dst: 4,
                flits: 1,
                arrive: Cycle(9),
            },
            TraceEvent::Forward {
                at: Cycle(12),
                from: 0,
                to: 1,
                line: LineAddr(3),
                pic: Some(chats_core::Pic::INIT),
            },
            TraceEvent::VsbInsert {
                at: Cycle(14),
                core: 1,
                line: LineAddr(3),
                occupancy: 1,
            },
            TraceEvent::Abort {
                at: Cycle(20),
                core: 1,
                cause: AbortCause::ValidationMismatch,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant_shape() {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in sample_events() {
            sink.record(ev);
        }
        TraceSink::flush(&mut sink);
        assert_eq!(sink.written(), 5);
        assert_eq!(sink.dropped(), 0);
        let bytes = sink.out.take().unwrap().into_inner().unwrap();
        let parsed = read_jsonl(io::BufReader::new(&bytes[..])).unwrap();
        assert_eq!(parsed, sample_events());
    }

    #[test]
    fn vec_sink_keeps_everything_in_order() {
        let mut sink = VecSink::new();
        for ev in sample_events() {
            sink.record(ev);
        }
        assert_eq!(sink.events().iter().collect::<Vec<_>>(), sample_events());
        let boxed: Box<dyn TraceSink> = Box::new(sink);
        let log = VecSink::into_events(boxed);
        assert_eq!(log.len(), 5);
        assert_eq!(log.iter().collect::<Vec<_>>(), sample_events());
    }

    #[test]
    fn malformed_lines_are_located() {
        let text = "{\"TxBegin\":{\"at\":1,\"core\":0}}\nnot json\n";
        let err = read_jsonl(io::BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.starts_with("line 2:"), "got: {err}");
    }

    #[test]
    fn out_of_range_ids_and_backward_arrivals_are_located() {
        let text = "{\"TxBegin\":{\"at\":1,\"core\":0}}\n\
                    {\"Commit\":{\"at\":2,\"core\":1099511627776}}\n";
        let err = read_jsonl(io::BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.starts_with("line 2:"), "got: {err}");
        assert!(err.contains("out of range for u16"), "got: {err}");

        let text = "{\"NocSend\":{\"at\":9,\"src\":0,\"dst\":4,\"flits\":1,\"arrive\":9}}\n\
                    {\"NocSend\":{\"at\":9,\"src\":0,\"dst\":4,\"flits\":1,\"arrive\":5}}\n";
        let err = read_jsonl(io::BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(
            err,
            "line 2: NocSend arrives at cycle 5 before its injection at cycle 9"
        );
    }

    #[test]
    fn write_failure_counts_drops_instead_of_panicking() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        for ev in sample_events() {
            sink.record(ev);
        }
        // BufWriter absorbs the first small writes; force the flush path.
        TraceSink::flush(&mut sink);
        sink.record(sample_events().remove(0));
        assert!(sink.dropped() > 0);
    }
}
