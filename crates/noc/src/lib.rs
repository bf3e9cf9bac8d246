#![warn(missing_docs)]

//! Crossbar interconnect model.
//!
//! Models the paper's network configuration (Table I): a crossbar with
//! 1-cycle links, 16-byte flits, 1-flit control messages and 5-flit data
//! messages, 1 flit per cycle per link. Every node owns an egress port that
//! serializes outgoing flits, which provides first-order contention; the
//! crossbar itself is non-blocking.
//!
//! The model answers one question — *when does a message injected now
//! arrive?* — and counts flits for the Figure 7 network-usage experiment.
//!
//! # Example
//!
//! ```
//! use chats_noc::{MsgClass, Crossbar, NodeId};
//! use chats_sim::{Cycle, NocConfig};
//!
//! let mut xbar = Crossbar::new(NocConfig::default(), 3);
//! let arrive = xbar.send(Cycle(0), NodeId(0), NodeId(2), MsgClass::Data);
//! // 5 flits serialize over 5 cycles, then 1 cycle of link latency.
//! assert_eq!(arrive, Cycle(6));
//! assert_eq!(xbar.flits_sent(), 5);
//! ```

use chats_sim::{Cycle, NocConfig};
use std::fmt;

/// A network endpoint: core caches `0..n`, then the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Message size class, which determines the flit count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Requests, acks, nacks, unblocks: 1 flit.
    Control,
    /// Anything carrying a 64-byte line (including `SpecResp`): 5 flits.
    Data,
}

/// The crossbar network.
///
/// Deterministic and purely computational: `send` returns the arrival time
/// and updates port-occupancy bookkeeping and flit counters.
#[derive(Debug, Clone)]
pub struct Crossbar {
    cfg: NocConfig,
    egress_free: Vec<Cycle>,
    flits: u64,
    control_msgs: u64,
    data_msgs: u64,
}

impl Crossbar {
    /// Creates a crossbar connecting `nodes` endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(cfg: NocConfig, nodes: usize) -> Crossbar {
        assert!(nodes > 0, "a network needs at least one node");
        Crossbar {
            cfg,
            egress_free: vec![Cycle::ZERO; nodes],
            flits: 0,
            control_msgs: 0,
            data_msgs: 0,
        }
    }

    /// Number of flits in a message of class `class`.
    #[must_use]
    pub fn flits_of(&self, class: MsgClass) -> u64 {
        match class {
            MsgClass::Control => self.cfg.control_flits,
            MsgClass::Data => self.cfg.data_flits,
        }
    }

    /// Injects a message at `now` from `src` to `dst`; returns its arrival
    /// time at `dst`, accounting for egress serialization at `src` and link
    /// latency.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, class: MsgClass) -> Cycle {
        assert!(src.0 < self.egress_free.len(), "src {src} out of range");
        assert!(dst.0 < self.egress_free.len(), "dst {dst} out of range");
        let flits = self.flits_of(class);
        self.flits += flits;
        match class {
            MsgClass::Control => self.control_msgs += 1,
            MsgClass::Data => self.data_msgs += 1,
        }
        let depart = now.max(self.egress_free[src.0]);
        let done = depart + flits; // 1 flit per cycle serialization
        self.egress_free[src.0] = done;
        done + self.cfg.link_latency
    }

    /// Total flits injected so far (the Figure 7 metric).
    #[must_use]
    pub fn flits_sent(&self) -> u64 {
        self.flits
    }

    /// Control messages injected so far.
    #[must_use]
    pub fn control_messages(&self) -> u64 {
        self.control_msgs
    }

    /// Data messages injected so far.
    #[must_use]
    pub fn data_messages(&self) -> u64 {
        self.data_msgs
    }

    /// Resets flit and message counters (port occupancy is preserved).
    pub fn reset_counters(&mut self) {
        self.flits = 0;
        self.control_msgs = 0;
        self.data_msgs = 0;
    }

    /// Serializes the dynamic network state: port occupancy and flit
    /// counters. The configuration is not written — a restored crossbar
    /// is rebuilt from the machine's config first.
    pub fn save_state(&self, w: &mut chats_snap::SnapWriter) {
        use chats_snap::Snap;
        self.egress_free.save(w);
        w.u64(self.flits);
        w.u64(self.control_msgs);
        w.u64(self.data_msgs);
    }

    /// Restores state captured by [`Crossbar::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on a malformed stream or a node count that does not match
    /// this crossbar's geometry.
    pub fn restore_state(
        &mut self,
        r: &mut chats_snap::SnapReader<'_>,
    ) -> Result<(), chats_snap::SnapError> {
        use chats_snap::Snap;
        let egress_free: Vec<Cycle> = Snap::load(r)?;
        if egress_free.len() != self.egress_free.len() {
            return Err(r.err(format!(
                "crossbar has {} nodes, snapshot has {}",
                self.egress_free.len(),
                egress_free.len()
            )));
        }
        self.egress_free = egress_free;
        self.flits = r.u64()?;
        self.control_msgs = r.u64()?;
        self.data_msgs = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar(nodes: usize) -> Crossbar {
        Crossbar::new(NocConfig::default(), nodes)
    }

    #[test]
    fn control_message_latency() {
        let mut x = xbar(2);
        // 1 flit serialization + 1 cycle link.
        assert_eq!(
            x.send(Cycle(0), NodeId(0), NodeId(1), MsgClass::Control),
            Cycle(2)
        );
    }

    #[test]
    fn data_message_latency() {
        let mut x = xbar(2);
        assert_eq!(
            x.send(Cycle(10), NodeId(1), NodeId(0), MsgClass::Data),
            Cycle(16)
        );
    }

    #[test]
    fn egress_port_serializes() {
        let mut x = xbar(3);
        let a = x.send(Cycle(0), NodeId(0), NodeId(1), MsgClass::Data);
        let b = x.send(Cycle(0), NodeId(0), NodeId(2), MsgClass::Control);
        assert_eq!(a, Cycle(6));
        // Second message waits for the port: departs at 5, +1 flit, +1 link.
        assert_eq!(b, Cycle(7));
    }

    #[test]
    fn distinct_sources_do_not_contend() {
        let mut x = xbar(3);
        let a = x.send(Cycle(0), NodeId(0), NodeId(2), MsgClass::Data);
        let b = x.send(Cycle(0), NodeId(1), NodeId(2), MsgClass::Data);
        assert_eq!(a, b, "crossbar is non-blocking across sources");
    }

    #[test]
    fn idle_port_sends_immediately() {
        let mut x = xbar(2);
        x.send(Cycle(0), NodeId(0), NodeId(1), MsgClass::Data);
        // Long after the port drained, no queuing delay remains.
        assert_eq!(
            x.send(Cycle(100), NodeId(0), NodeId(1), MsgClass::Control),
            Cycle(102)
        );
    }

    #[test]
    fn flit_accounting() {
        let mut x = xbar(2);
        x.send(Cycle(0), NodeId(0), NodeId(1), MsgClass::Data);
        x.send(Cycle(0), NodeId(1), NodeId(0), MsgClass::Control);
        x.send(Cycle(0), NodeId(1), NodeId(0), MsgClass::Data);
        assert_eq!(x.flits_sent(), 5 + 1 + 5);
        assert_eq!(x.control_messages(), 1);
        assert_eq!(x.data_messages(), 2);
        x.reset_counters();
        assert_eq!(x.flits_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        xbar(2).send(Cycle(0), NodeId(0), NodeId(5), MsgClass::Control);
    }
}
