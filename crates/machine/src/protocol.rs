//! Coherence protocol: directory request servicing, owner probes, sharer
//! invalidations and response handling at cores.

use crate::conflict::OwnerAction;
use crate::core_state::ExecMode;
use crate::dir::DirState;
use crate::machine::Machine;
use crate::msg::{CoreMsg, DirMsg, Event, ProbeOutcome, Request};
use crate::trace::{narrow, TraceEvent};
use chats_core::AbortCause;
use chats_mem::{CoherenceState, Line, LineAddr};
use chats_noc::{MsgClass, NodeId};

/// Delay before re-issuing a nacked or stalled demand request.
const STALL_DELAY: u64 = 24;

impl Machine {
    /// Entry point for all directory-bound messages.
    pub(crate) fn dir_recv(&mut self, msg: DirMsg) {
        match msg {
            DirMsg::Request(req) => {
                let dl = self.dir.line_mut(req.line);
                if dl.busy {
                    dl.queue.push_back(req);
                } else {
                    self.dir_process(req);
                }
            }
            DirMsg::ProbeDone { req, outcome } => self.dir_probe_done(req, outcome),
            DirMsg::InvAck { req, core, refused } => self.dir_inv_ack(req, core, refused),
            DirMsg::WbTiming => {} // value already applied synchronously
        }
    }

    /// Services a request for a non-busy line.
    fn dir_process(&mut self, req: Request) {
        let dir_latency = self.cfg.mem.dir_latency;
        // Classify the request against the current line state in one
        // borrow, without cloning the sharer list (`state_of` copies the
        // whole `Vec`, and this runs once per directory request). The
        // `others` allocation survives only on the path that actually
        // sends invalidations.
        enum Disposition {
            Uncached,
            SharedRead,
            SharedSolo,
            SharedInv(Vec<usize>),
            OwnedSelf,
            OwnedOther(usize),
        }
        let disp = match &self.dir.line_mut(req.line).state {
            DirState::Uncached => Disposition::Uncached,
            DirState::Shared(sharers) => {
                if !req.getx {
                    Disposition::SharedRead
                } else {
                    let others: Vec<usize> =
                        sharers.iter().copied().filter(|&s| s != req.core).collect();
                    if others.is_empty() {
                        Disposition::SharedSolo
                    } else {
                        Disposition::SharedInv(others)
                    }
                }
            }
            DirState::Owned(owner) if *owner == req.core => Disposition::OwnedSelf,
            DirState::Owned(owner) => Disposition::OwnedOther(*owner),
        };
        match disp {
            Disposition::Uncached => {
                let cold = self.dir.touch(req.line);
                let lat = dir_latency + if cold { self.cfg.mem.mem_latency } else { 0 };
                let data = self.dir.read(req.line);
                // MESI: grant E even on a read when no one else has a copy.
                self.dir.line_mut(req.line).state = DirState::Owned(req.core);
                self.respond_data(req, data, true, lat);
            }
            Disposition::SharedRead => {
                self.dir.touch(req.line);
                let data = self.dir.read(req.line);
                let dl = self.dir.line_mut(req.line);
                if let DirState::Shared(list) = &mut dl.state {
                    if !list.contains(&req.core) {
                        list.push(req.core);
                    }
                }
                self.respond_data(req, data, false, dir_latency);
            }
            Disposition::SharedSolo => {
                self.dir.touch(req.line);
                let data = self.dir.read(req.line);
                self.dir.line_mut(req.line).state = DirState::Owned(req.core);
                self.respond_data(req, data, true, dir_latency);
            }
            Disposition::SharedInv(others) => {
                self.dir.touch(req.line);
                let dl = self.dir.line_mut(req.line);
                dl.busy = true;
                dl.pending_invs = others.len();
                dl.inv_refused = false;
                dl.invalidated.clear();
                for s in others {
                    self.send_to_core(
                        self.dir_node(),
                        s,
                        MsgClass::Control,
                        CoreMsg::Inv { req },
                        dir_latency,
                    );
                }
            }
            Disposition::OwnedSelf => {
                self.dir.touch(req.line);
                // The owner silently dropped its copy and is asking
                // again: service from the store, ownership unchanged.
                let data = self.dir.read(req.line);
                self.respond_data(req, data, true, dir_latency);
            }
            Disposition::OwnedOther(owner) => {
                self.dir.touch(req.line);
                self.dir.line_mut(req.line).busy = true;
                self.send_to_core(
                    self.dir_node(),
                    owner,
                    MsgClass::Control,
                    CoreMsg::Probe { req },
                    dir_latency,
                );
            }
        }
    }

    fn respond_data(&mut self, req: Request, data: Line, excl: bool, delay: u64) {
        self.send_to_core(
            self.dir_node(),
            req.core,
            MsgClass::Data,
            CoreMsg::Data {
                line: req.line,
                data,
                excl,
                epoch: req.epoch,
            },
            delay,
        );
    }

    /// An owner probe concluded; settle directory state and unblock.
    fn dir_probe_done(&mut self, req: Request, outcome: ProbeOutcome) {
        match outcome {
            ProbeOutcome::Shared { owner } => {
                self.dir.line_mut(req.line).state = DirState::Shared(vec![owner, req.core]);
            }
            ProbeOutcome::Transferred => {
                self.dir.line_mut(req.line).state = DirState::Owned(req.core);
            }
            ProbeOutcome::NotServiced => {
                let data = self.dir.read(req.line);
                if req.getx {
                    // Exclusive requests conflict-checked the old owner in
                    // the probe itself (read-signature test), so ownership
                    // may move.
                    self.dir.line_mut(req.line).state = DirState::Owned(req.core);
                    self.respond_data(req, data, true, self.cfg.mem.dir_latency);
                } else {
                    // A shared request to an owner that silently evicted:
                    // the old owner may still hold a *transactional read*
                    // of this line (perfect signatures outlive the cached
                    // copy), so it must stay listed — a future exclusive
                    // request has to probe it or its isolation is lost.
                    let prev_owner = match self.dir.state_of(req.line) {
                        DirState::Owned(o) if o != req.core => Some(o),
                        _ => None,
                    };
                    let mut sharers = vec![req.core];
                    if let Some(o) = prev_owner {
                        sharers.push(o);
                    }
                    self.dir.line_mut(req.line).state = DirState::Shared(sharers);
                    self.respond_data(req, data, false, self.cfg.mem.dir_latency);
                }
            }
            ProbeOutcome::Canceled => {} // speculative forwarding or nack: untouched
        }
        self.dir.line_mut(req.line).busy = false;
        self.dir_unblock(req.line);
    }

    /// A sharer acknowledged (or refused) an invalidation.
    fn dir_inv_ack(&mut self, req: Request, core: usize, refused: bool) {
        let done = {
            let dl = self.dir.line_mut(req.line);
            dl.pending_invs -= 1;
            if refused {
                dl.inv_refused = true;
            } else {
                dl.invalidated.push(core);
            }
            dl.pending_invs == 0
        };
        if !done {
            return;
        }
        let refused_any = {
            let dl = self.dir.line_mut(req.line);
            let invalidated = std::mem::take(&mut dl.invalidated);
            if let DirState::Shared(list) = &mut dl.state {
                list.retain(|c| !invalidated.contains(c));
            }
            dl.busy = false;
            dl.inv_refused
        };
        if refused_any {
            // A power transaction kept its copy: nack the requester.
            self.send_to_core(
                self.dir_node(),
                req.core,
                MsgClass::Control,
                CoreMsg::Nack {
                    line: req.line,
                    epoch: req.epoch,
                },
                self.cfg.mem.dir_latency,
            );
        } else {
            let data = self.dir.read(req.line);
            self.dir.line_mut(req.line).state = DirState::Owned(req.core);
            self.respond_data(req, data, true, self.cfg.mem.dir_latency);
        }
        self.dir_unblock(req.line);
    }

    /// Replays queued requests for an unblocked line until one re-blocks
    /// it (or the queue drains).
    fn dir_unblock(&mut self, line: LineAddr) {
        loop {
            let next = {
                let dl = self.dir.line_mut(line);
                if dl.busy {
                    None
                } else {
                    dl.queue.pop_front()
                }
            };
            match next {
                Some(req) => self.dir_process(req),
                None => return,
            }
        }
    }

    // ---- core side ------------------------------------------------------

    /// Entry point for all core-bound messages.
    pub(crate) fn core_recv(&mut self, core: usize, msg: CoreMsg) {
        match msg {
            CoreMsg::Probe { req } => self.core_probe(core, req),
            CoreMsg::Inv { req } => self.core_inv(core, req),
            CoreMsg::Data {
                line,
                data,
                excl,
                epoch,
            } => {
                if epoch != self.cores[core].epoch {
                    self.stale_data(core, line, data, excl);
                } else if self.cores[core].val_req == Some(line) {
                    self.validation_data(core, line, data);
                } else {
                    self.demand_data(core, line, data, excl);
                }
            }
            CoreMsg::SpecResp {
                line,
                data,
                pic,
                epoch,
            } => {
                if epoch != self.cores[core].epoch {
                    // Stale hint: nothing to undo, ownership never moved.
                } else if self.cores[core].val_req == Some(line) {
                    self.validation_spec(core, line, data, pic);
                } else {
                    self.demand_spec(core, line, data, pic);
                }
            }
            CoreMsg::Nack { line, epoch } => {
                if epoch != self.cores[core].epoch {
                    return;
                }
                self.stats.nacks += 1;
                if self.cores[core].val_req == Some(line) {
                    self.validation_nack(core);
                } else if self.cores[core].pending_mem.is_some() {
                    let d = STALL_DELAY + self.rng.below(STALL_DELAY);
                    let epoch = self.cores[core].epoch;
                    self.events
                        .push(self.clock + d, Event::MemRetry { core, epoch });
                }
            }
        }
    }

    /// Directory-forwarded request arriving at this core as owner.
    fn core_probe(&mut self, core: usize, req: Request) {
        let (has_copy, in_ws) = {
            let c = &self.cores[core];
            match c.l1.lookup(req.line) {
                Some(e) => (true, e.sm()),
                None => (false, false),
            }
        };
        let in_rs = self.cores[core].in_tx() && self.cores[core].read_sig.contains(req.line);
        let conflict = self.cores[core].in_tx() && (in_ws || (req.getx && in_rs));

        if !conflict {
            self.probe_service(core, req);
            return;
        }

        self.stats.conflicts += 1;
        self.cores[core].attempt_conflicted = true;
        // Schedule exploration may substitute either protocol-legal
        // alternative (NACK or requester-wins) for whatever the policy
        // decides. The override is consulted *before* `decide_conflict` so
        // an overridden forwarding never mutates the producer's PiC.
        let action = if self.hook_active() {
            use chats_core::ConflictOverride;
            let choice = self.decide(
                chats_sim::DecisionKind::ConflictAction,
                Some(core),
                ConflictOverride::COUNT,
            );
            match ConflictOverride::from_index(choice) {
                ConflictOverride::FollowPolicy => self.decide_conflict(core, &req, in_ws, has_copy),
                ConflictOverride::ForceNack => OwnerAction::Nack,
                ConflictOverride::ForceRequesterWins => OwnerAction::AbortSelf,
            }
        } else {
            self.decide_conflict(core, &req, in_ws, has_copy)
        };
        match action {
            OwnerAction::Forward(pic) => {
                self.cores[core].attempt_forwarded = true;
                self.stats.forwardings += 1;
                self.trace.record(TraceEvent::Forward {
                    at: self.clock,
                    from: narrow(core),
                    to: narrow(req.core),
                    line: req.line,
                    pic,
                });
                let data = self.cores[core]
                    .l1
                    .lookup(req.line)
                    .expect("forwarding requires a cached copy")
                    .data;
                self.send_to_core(
                    NodeId(core),
                    req.core,
                    MsgClass::Data,
                    CoreMsg::SpecResp {
                        line: req.line,
                        data,
                        pic,
                        epoch: req.epoch,
                    },
                    1,
                );
                self.send_to_dir(
                    core,
                    MsgClass::Control,
                    DirMsg::ProbeDone {
                        req,
                        outcome: ProbeOutcome::Canceled,
                    },
                    1,
                );
            }
            OwnerAction::AbortSelf => {
                self.do_abort(core, AbortCause::Conflict);
                // After the abort the speculative copy is gone; any
                // surviving non-speculative copy is serviced normally.
                self.probe_service(core, req);
            }
            OwnerAction::Nack => {
                self.send_to_core(
                    NodeId(core),
                    req.core,
                    MsgClass::Control,
                    CoreMsg::Nack {
                        line: req.line,
                        epoch: req.epoch,
                    },
                    1,
                );
                self.send_to_dir(
                    core,
                    MsgClass::Control,
                    DirMsg::ProbeDone {
                        req,
                        outcome: ProbeOutcome::Canceled,
                    },
                    1,
                );
            }
        }
    }

    /// Conflict-free probe servicing: downgrade or transfer ownership.
    fn probe_service(&mut self, core: usize, req: Request) {
        let outcome;
        let mut data_to_req: Option<Line> = None;
        {
            let c = &mut self.cores[core];
            if req.getx {
                match c.l1.invalidate(req.line) {
                    Some(e) => {
                        data_to_req = Some(e.data);
                        outcome = ProbeOutcome::Transferred;
                        if e.state == CoherenceState::Modified {
                            self.dir.store.write_line(req.line, e.data);
                        }
                    }
                    None => outcome = ProbeOutcome::NotServiced,
                }
            } else {
                match c.l1.lookup_mut(req.line) {
                    Some(mut e) => {
                        data_to_req = Some(e.data);
                        if e.state == CoherenceState::Modified {
                            self.dir.store.write_line(req.line, e.data);
                        }
                        e.set_state(CoherenceState::Shared);
                        outcome = ProbeOutcome::Shared { owner: core };
                    }
                    None => outcome = ProbeOutcome::NotServiced,
                }
            }
        }
        if let Some(data) = data_to_req {
            self.send_to_core(
                NodeId(core),
                req.core,
                MsgClass::Data,
                CoreMsg::Data {
                    line: req.line,
                    data,
                    excl: req.getx,
                    epoch: req.epoch,
                },
                1,
            );
        }
        self.send_to_dir(
            core,
            MsgClass::Control,
            DirMsg::ProbeDone { req, outcome },
            1,
        );
    }

    /// Invalidation of a shared copy; conflicts resolve requester-wins
    /// unless the sharer holds the power token.
    fn core_inv(&mut self, core: usize, req: Request) {
        let conflicting = self.cores[core].in_tx() && self.cores[core].read_sig.contains(req.line);
        let mut refused = false;
        if conflicting {
            self.stats.conflicts += 1;
            self.cores[core].attempt_conflicted = true;
            if self.cores[core].is_power && !req.power {
                // Power transactions may nack without losing their data.
                refused = true;
            } else {
                self.do_abort(core, AbortCause::Conflict);
            }
        }
        if !refused {
            self.cores[core].l1.invalidate(req.line);
        }
        self.send_to_dir(
            core,
            MsgClass::Control,
            DirMsg::InvAck { req, core, refused },
            1,
        );
    }

    /// Response for a request issued by an attempt that has since aborted.
    /// The directory may have recorded us as owner/sharer, but it may also
    /// have *moved the line on* since (a later probe found no copy here).
    /// Installing the stale line could clobber a newer attempt's
    /// speculative data or claim ownership we no longer have, so the
    /// response is dropped — the protocol already tolerates caches that
    /// silently lack lines the directory attributes to them.
    fn stale_data(&mut self, _core: usize, _line: LineAddr, _data: Line, _excl: bool) {}

    /// Completion of a demand miss.
    fn demand_data(&mut self, core: usize, line: LineAddr, data: Line, excl: bool) {
        let pm = match self.cores[core].pending_mem.take() {
            Some(pm) if pm.line == line => pm,
            other => {
                // A response that matches nothing outstanding: drop it for
                // the same reason stale responses are dropped.
                self.cores[core].pending_mem = other;
                return;
            }
        };
        let state = if excl {
            CoherenceState::Exclusive
        } else {
            CoherenceState::Shared
        };
        if !self.l1_insert(core, line, state, data) {
            return; // capacity abort
        }
        let in_tx = self.cores[core].in_tx();
        let mut loaded: Option<u64> = None;
        {
            let c = &mut self.cores[core];
            if pm.is_store {
                let mut e = c.l1.lookup_mut(line).expect("line just inserted");
                if in_tx {
                    // The received data is the committed version and the
                    // store already has it: mark write-set and overwrite.
                    e.mark_written();
                } else {
                    e.set_state(CoherenceState::Modified);
                }
                e.data_mut().write(pm.addr, pm.store_value);
                if in_tx {
                    c.oracle.note_write(pm.addr, pm.store_value);
                }
                c.vm.as_mut().expect("no thread").complete_store();
            } else {
                if in_tx {
                    c.read_sig.insert(line);
                }
                loaded = Some(
                    c.l1.lookup(line)
                        .expect("line just inserted")
                        .data
                        .read(pm.addr),
                );
            }
        }
        if let Some(v) = loaded {
            if in_tx {
                // Demand data is the committed version by construction.
                self.oracle_read(core, pm.addr, v, false);
            }
            self.cores[core]
                .vm
                .as_mut()
                .expect("no thread")
                .complete_load(v);
        }
        let epoch = self.cores[core].epoch;
        let at = self.clock + self.cfg.mem.l1_hit_latency;
        self.events.push(at, Event::CoreStep { core, epoch });
    }

    /// A speculative response for a demand miss: the consumer side of the
    /// requester-speculates policy (§IV-A).
    fn demand_spec(
        &mut self,
        core: usize,
        line: LineAddr,
        data: Line,
        pic: Option<chats_core::Pic>,
    ) {
        use chats_core::{chats_receive_spec, HtmSystem, SpecRespAction};
        if self.cores[core].mode != ExecMode::Tx {
            return; // non-transactional requesters never consume hints
        }
        // Decide acceptance.
        match self.policy.system {
            HtmSystem::Chats | HtmSystem::Pchats => {
                if let Some(p) = pic {
                    match chats_receive_spec(self.cores[core].pic, p) {
                        SpecRespAction::Accept { new_pic } => {
                            self.cores[core].pic.pic = new_pic;
                            if let Some(v) = new_pic.value() {
                                let init =
                                    chats_core::Pic::INIT.value().expect("INIT is a set PiC");
                                self.stats.record_chain_depth(v.abs_diff(init).into());
                            }
                        }
                        SpecRespAction::AbortSelf => {
                            self.do_abort(core, AbortCause::CycleDetected);
                            return;
                        }
                    }
                }
                // `pic == None` (power producer): consume without touching
                // the PiC; validation alone serializes (§VI-B).
            }
            HtmSystem::NaiveRs | HtmSystem::LevcBeIdealized => {}
            HtmSystem::Baseline | HtmSystem::Power => {
                unreachable!("non-forwarding system received a SpecResp")
            }
        }
        // This response must answer the outstanding demand op; a duplicate
        // (e.g. after a nack-retry) answers nothing and is just a hint we
        // ignore.
        match self.cores[core].pending_mem {
            Some(pm) if pm.line == line => {}
            _ => return,
        }
        // Room in the VSB? If not, treat like a stall and retry the access.
        if self.cores[core].vsb.insert(line, data) {
            self.trace.record(TraceEvent::VsbInsert {
                at: self.clock,
                core: narrow(core),
                line,
                occupancy: narrow(self.cores[core].vsb.len()),
            });
        } else if !self.cores[core].vsb.contains(line) {
            self.stats.nacks += 1;
            let d = STALL_DELAY;
            let epoch = self.cores[core].epoch;
            self.events
                .push(self.clock + d, Event::MemRetry { core, epoch });
            return;
        }
        self.cores[core].pic.cons = true;
        self.cores[core].levc.note_consumed();
        if !self.l1_insert(core, line, CoherenceState::Exclusive, data) {
            return; // capacity abort (VSB cleared by the abort)
        }
        let pm = self.cores[core]
            .pending_mem
            .take()
            .expect("pending op checked above");
        let mut loaded: Option<u64> = None;
        {
            let c = &mut self.cores[core];
            let mut e = c.l1.lookup_mut(line).expect("line just inserted");
            e.mark_spec_received();
            if pm.is_store {
                e.data_mut().write(pm.addr, pm.store_value);
                c.oracle.note_write(pm.addr, pm.store_value);
                c.vm.as_mut().expect("no thread").complete_store();
            } else {
                let v = e.data.read(pm.addr);
                c.read_sig.insert(line);
                loaded = Some(v);
            }
        }
        if let Some(v) = loaded {
            // Speculative lineage: checked by validation + commit oracle.
            self.oracle_read(core, pm.addr, v, true);
            self.cores[core]
                .vm
                .as_mut()
                .expect("no thread")
                .complete_load(v);
        }
        self.arm_validation(core);
        let epoch = self.cores[core].epoch;
        let at = self.clock + self.cfg.mem.l1_hit_latency;
        self.events.push(at, Event::CoreStep { core, epoch });
    }
}
