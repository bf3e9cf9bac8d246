//! In-memory spans around the benchmark's calls into each crate.
//!
//! The benchmark times the simulator from outside: every call it makes
//! into a crate's public API is a leaf span whose name starts with that
//! crate's layer (`machine.run`, `runner.cache_store`, ...), and every
//! measured unit is a `bench.unit` span that parents them. A layer's
//! self time is the summed duration of its spans, minus the part child
//! spans cover; the benchmark's own time is what the unit spans leave
//! after their children.

use chats_runner::Json;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit the span belongs to.
    pub unit: u32,
    /// `layer.call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// The crate the span measures: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, [`Tracer::time`] only runs its closure, so an
/// untraced run pays for nothing but a branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open_unit: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open_unit: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, name: &'static str, unit: u32, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            unit,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Opens the `bench.unit` span of unit `unit`; the leaf spans recorded
    /// until [`Tracer::end_unit`] become its children.
    pub fn begin_unit(&mut self, unit: u32) {
        if self.on {
            self.open_unit = Some(self.push("bench.unit", unit, None));
        }
    }

    pub fn end_unit(&mut self) {
        if let Some(id) = self.open_unit.take() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.open_unit;
        let unit = parent.map_or(0, |p| self.spans[p].unit);
        let id = self.push(name, unit, parent);
        let out = f();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time per layer, in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = s.duration_ns().saturating_sub(children[s.id]);
            *out.entry(s.layer()).or_insert(0) += own;
        }
        out
    }

    /// Summed duration of the unit spans, in nanoseconds.
    pub fn unit_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Span durations in milliseconds, grouped by span name.
    pub fn durations_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name)
                .or_default()
                .push(s.duration_ns() as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut m = BTreeMap::new();
            m.insert("id".to_string(), Json::U64(s.id as u64));
            m.insert(
                "parent".to_string(),
                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
            );
            m.insert("unit".to_string(), Json::U64(u64::from(s.unit)));
            m.insert("name".to_string(), Json::Str(s.name.to_string()));
            m.insert("start_ns".to_string(), Json::U64(s.start_ns));
            m.insert("end_ns".to_string(), Json::U64(s.end_ns));
            writeln!(w, "{}", Json::Obj(m).to_compact())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_an_off_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        off.begin_unit(0);
        assert_eq!(off.time("machine.run", || 7), 7);
        off.end_unit();
        assert!(off.spans.is_empty());

        let mut t = Tracer::new(true);
        t.begin_unit(3);
        t.time("machine.run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end_unit();
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].unit, 3);
        let layers = t.layer_self_ns();
        assert!(layers["machine"] >= 2_000_000);
        assert_eq!(layers["machine"] + layers["bench"], t.unit_ns());
    }
}
