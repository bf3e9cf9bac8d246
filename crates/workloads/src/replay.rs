//! Trace replay: run recorded transactional access traces through the
//! simulator.
//!
//! Users who have per-thread memory traces of a transactional application
//! (from instrumentation, a binary translator, or another simulator) can
//! replay them under any HTM system without writing TxVM assembly. A trace
//! is a sequence of [`TraceOp`]s per thread; [`TraceWorkload`] compiles
//! each into a TxVM program and plugs into the normal [`Workload`] runner.
//!
//! A simple line-oriented text format is supported via
//! [`ThreadTrace::parse`]:
//!
//! ```text
//! # comments and blank lines are ignored
//! begin
//! load 0x40
//! compute 25
//! store 0x48 7
//! end
//! ```

use crate::spec::{ThreadProgram, Workload, WorkloadSetup};
use chats_mem::Addr;
use chats_sim::SimRng;
use chats_tvm::{Program, ProgramBuilder, Reg};

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Transaction begin.
    Begin,
    /// Transactional (or plain, if outside begin/end) load of a word.
    Load(u64),
    /// Store of `value` to a word address.
    Store(u64, u64),
    /// Non-memory work in cycles.
    Compute(u64),
    /// Transaction end (commit point).
    End,
}

/// A per-thread operation sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    /// The operations, in program order.
    pub ops: Vec<TraceOp>,
}

/// A parse failure, with the offending line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// Line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl ThreadTrace {
    /// Parses the line-oriented text format (see the [module docs](self)).
    /// Every accepted trace has balanced, unnested `begin`/`end` pairs, so
    /// [`ThreadTrace::compile`] cannot panic on it.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line: a bad op or operand, an `end`
    /// with no `begin`, a nested `begin`, or (at the `begin` line) a
    /// transaction still open when the trace ends.
    pub fn parse(text: &str) -> Result<ThreadTrace, ParseTraceError> {
        let mut ops = Vec::new();
        // Line of the `begin` of the open transaction, if any.
        let mut open: Option<usize> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let l = raw.trim();
            if l.is_empty() || l.starts_with('#') {
                continue;
            }
            let mut parts = l.split_whitespace();
            let op = parts.next().expect("non-empty line has a token");
            let err = |message: String| ParseTraceError { line, message };
            let parsed = match op {
                "begin" => match open.replace(line) {
                    Some(outer) => {
                        return Err(err(format!("nested begin (line {outer} is still open)")))
                    }
                    None => TraceOp::Begin,
                },
                "end" => match open.take() {
                    Some(_) => TraceOp::End,
                    None => return Err(err("end without begin".into())),
                },
                "load" => {
                    let a = parts
                        .next()
                        .and_then(parse_num)
                        .ok_or_else(|| err("load needs an address".into()))?;
                    TraceOp::Load(a)
                }
                "store" => {
                    let a = parts
                        .next()
                        .and_then(parse_num)
                        .ok_or_else(|| err("store needs an address".into()))?;
                    let v = parts
                        .next()
                        .and_then(parse_num)
                        .ok_or_else(|| err("store needs a value".into()))?;
                    TraceOp::Store(a, v)
                }
                "compute" => {
                    let c = parts
                        .next()
                        .and_then(parse_num)
                        .ok_or_else(|| err("compute needs a cycle count".into()))?;
                    TraceOp::Compute(c)
                }
                other => return Err(err(format!("unknown op {other:?}"))),
            };
            if parts.next().is_some() {
                return Err(err("trailing tokens".into()));
            }
            ops.push(parsed);
        }
        match open {
            Some(line) => Err(ParseTraceError {
                line,
                message: "transaction never ends".into(),
            }),
            None => Ok(ThreadTrace { ops }),
        }
    }

    /// Compiles the trace into a TxVM program.
    ///
    /// # Panics
    ///
    /// Panics on unbalanced `begin`/`end` pairs, which only a trace built
    /// by hand (not by [`ThreadTrace::parse`]) can have.
    #[must_use]
    pub fn compile(&self) -> Program {
        let (a, v, dummy) = (Reg(0), Reg(1), Reg(2));
        let mut b = ProgramBuilder::new();
        let mut depth = 0u32;
        for op in &self.ops {
            match *op {
                TraceOp::Begin => {
                    assert_eq!(depth, 0, "nested begin in trace");
                    depth = 1;
                    b.tx_begin();
                }
                TraceOp::End => {
                    assert_eq!(depth, 1, "end without begin in trace");
                    depth = 0;
                    b.tx_end();
                }
                TraceOp::Load(addr) => {
                    b.imm(a, addr);
                    b.load(dummy, a);
                }
                TraceOp::Store(addr, value) => {
                    b.imm(a, addr);
                    b.imm(v, value);
                    b.store(a, v);
                }
                TraceOp::Compute(c) => {
                    b.pause(c.max(1));
                }
            }
        }
        assert_eq!(depth, 0, "trace ends inside a transaction");
        b.halt();
        b.build()
    }
}

/// A workload built from one trace per thread.
pub struct TraceWorkload {
    traces: Vec<ThreadTrace>,
    init: Vec<(Addr, u64)>,
    expect: Vec<(Addr, u64)>,
}

impl TraceWorkload {
    /// A workload replaying `traces` (one per thread).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[must_use]
    pub fn new(traces: Vec<ThreadTrace>) -> TraceWorkload {
        assert!(!traces.is_empty(), "need at least one thread trace");
        TraceWorkload {
            traces,
            init: Vec::new(),
            expect: Vec::new(),
        }
    }

    /// Adds an initial memory word.
    #[must_use]
    pub fn with_init(mut self, addr: u64, value: u64) -> TraceWorkload {
        self.init.push((Addr(addr), value));
        self
    }

    /// Adds an expected final memory word, checked after the run.
    #[must_use]
    pub fn with_expectation(mut self, addr: u64, value: u64) -> TraceWorkload {
        self.expect.push((Addr(addr), value));
        self
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &'static str {
        "trace-replay"
    }

    fn setup(&self, threads: usize, seed: u64, _rng: &mut SimRng) -> WorkloadSetup {
        assert_eq!(
            threads,
            self.traces.len(),
            "trace-replay needs exactly one trace per thread (set RunConfig::threads)"
        );
        let programs = self
            .traces
            .iter()
            .enumerate()
            .map(|(t, tr)| ThreadProgram {
                program: tr.compile(),
                presets: vec![],
                seed: seed ^ t as u64,
            })
            .collect();
        let expect = self.expect.clone();
        let checker = Box::new(move |m: &chats_machine::Machine| {
            let mem = m.memory_view();
            for (addr, want) in &expect {
                let got = mem.read(*addr);
                if got != *want {
                    return Err(format!("word {addr:?}: {got} != expected {want}"));
                }
            }
            Ok(())
        });
        WorkloadSetup {
            programs,
            init: self.init.clone(),
            checker,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{run_workload, RunConfig};
    use chats_core::{HtmSystem, PolicyConfig};

    #[test]
    fn parses_the_text_format() {
        let t = ThreadTrace::parse(
            "# header\n\
             begin\n\
             load 0x40\n\
             compute 25\n\
             store 0x48 7\n\
             end\n",
        )
        .unwrap();
        assert_eq!(
            t.ops,
            vec![
                TraceOp::Begin,
                TraceOp::Load(0x40),
                TraceOp::Compute(25),
                TraceOp::Store(0x48, 7),
                TraceOp::End,
            ]
        );
    }

    #[test]
    fn parse_reports_line_numbers() {
        let e = ThreadTrace::parse("begin\nstore 5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("value"));
    }

    #[test]
    fn parse_rejects_unknown_ops() {
        let e = ThreadTrace::parse("frobnicate 1\n").unwrap_err();
        assert!(e.message.contains("unknown op"));
    }

    #[test]
    fn parse_rejects_end_without_begin() {
        let e = ThreadTrace::parse("begin\nend\n# gap\nend\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("end without begin"), "{e}");
    }

    #[test]
    fn parse_rejects_nested_begin() {
        let e = ThreadTrace::parse("begin\nload 0x0\nbegin\nend\nend\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("nested begin"), "{e}");
        assert!(e.message.contains("line 1"), "{e}");
    }

    #[test]
    fn parse_rejects_a_trace_ending_inside_a_transaction() {
        let e = ThreadTrace::parse("begin\nend\nbegin\nload 0x0\n\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("never ends"), "{e}");
    }

    #[test]
    #[should_panic(expected = "ends inside")]
    fn unbalanced_trace_panics_at_compile() {
        let t = ThreadTrace {
            ops: vec![TraceOp::Begin, TraceOp::Load(0)],
        };
        let _ = t.compile();
    }

    #[test]
    fn replay_runs_under_every_system() {
        // Two threads transactionally store to distinct words of the same
        // line, a classic false-sharing conflict.
        let t0 = ThreadTrace::parse("begin\nload 0x0\nstore 0x0 5\nend\n").unwrap();
        let t1 = ThreadTrace::parse("compute 50\nbegin\nload 0x1\nstore 0x1 6\nend\n").unwrap();
        for sys in [HtmSystem::Baseline, HtmSystem::Chats] {
            let w = TraceWorkload::new(vec![t0.clone(), t1.clone()])
                .with_expectation(0, 5)
                .with_expectation(1, 6);
            let mut cfg = RunConfig::quick_test();
            cfg.threads = 2;
            let stats = run_workload(&w, PolicyConfig::for_system(sys), &cfg)
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(stats.commits, 2, "{sys:?}");
        }
    }

    #[test]
    fn replay_respects_initial_memory() {
        let t = ThreadTrace::parse("begin\nload 0x10\nend\n").unwrap();
        let w = TraceWorkload::new(vec![t])
            .with_init(0x10, 42)
            .with_expectation(0x10, 42);
        let mut cfg = RunConfig::quick_test();
        cfg.threads = 1;
        run_workload(&w, PolicyConfig::for_system(HtmSystem::Chats), &cfg).unwrap();
    }
}
