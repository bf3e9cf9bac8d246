//! The validation engine (§IV-B): periodic probing of VSB entries,
//! value comparison, cycle checks and commit gating.

use crate::machine::Machine;
use crate::msg::{DirMsg, Event, Request};
use crate::trace::{narrow, TraceEvent};
use chats_core::{validation_pic_check, AbortCause, HtmSystem, Pic};
use chats_mem::{Line, LineAddr};
use chats_noc::MsgClass;

/// Gap between successive validation probes while a commit is pending.
pub(crate) const COMMIT_VALIDATION_GAP: u64 = 16;

impl Machine {
    /// Arms the periodic validation timer if the system validates
    /// periodically and the timer is not already pending.
    pub(crate) fn arm_validation(&mut self, core: usize) {
        let interval = self.policy.validation_interval;
        if interval == 0 {
            // LEVC-BE-Idealized: validation happens only at commit.
            return;
        }
        if self.cores[core].val_timer_armed || self.cores[core].vsb.is_empty() {
            return;
        }
        let delay = self.pacing_delay(core, interval);
        let c = &mut self.cores[core];
        c.val_timer_armed = true;
        let epoch = c.epoch;
        self.events
            .push(self.clock + delay, Event::ValidationTick { core, epoch });
    }

    /// The `ValidationPacing` decision: how long until the next validation
    /// action. 0 = the configured `base` (default), 1 = delayed 8×
    /// (validation starved until just before commit), 2 = next cycle
    /// (validation races the forwarding it validates).
    fn pacing_delay(&mut self, core: usize, base: u64) -> u64 {
        if !self.hook_active() {
            return base;
        }
        match self.decide(chats_sim::DecisionKind::ValidationPacing, Some(core), 3) {
            1 => base * 8,
            2 => 1,
            _ => base,
        }
    }

    /// The validation timer fired.
    pub(crate) fn validation_tick(&mut self, core: usize) {
        self.cores[core].val_timer_armed = false;
        if !self.cores[core].in_tx() || self.cores[core].vsb.is_empty() {
            return;
        }
        if self.cores[core].val_req.is_some() {
            // A probe is already in flight; try again next period.
            self.arm_validation(core);
            return;
        }
        self.issue_validation(core);
    }

    /// Starts validating immediately (commit pending).
    pub(crate) fn kick_validation(&mut self, core: usize) {
        if self.cores[core].val_req.is_none() && !self.cores[core].vsb.is_empty() {
            self.issue_validation(core);
        }
    }

    /// Issues an exclusive request for the next VSB entry.
    fn issue_validation(&mut self, core: usize) {
        let line = {
            let c = &mut self.cores[core];
            let entry = c.vsb.next_to_validate().expect("validation on empty VSB");
            let line = entry.addr;
            c.vsb.advance_cursor();
            c.val_req = Some(line);
            line
        };
        self.stats.validation_attempts += 1;
        let c = &self.cores[core];
        let req = Request {
            core,
            line,
            getx: true,
            pic: c.pic.pic,
            power: c.is_power,
            non_tx: false,
            levc_ts: c.levc_ts,
            levc_consumed: c.levc.has_consumed,
            epoch: c.epoch,
        };
        self.send_to_dir(core, MsgClass::Control, DirMsg::Request(req), 0);
    }

    /// A validation probe came back with real data and ownership: compare
    /// against the pristine copy and, on a match, the line is validated.
    pub(crate) fn validation_data(&mut self, core: usize, line: LineAddr, data: Line) {
        self.cores[core].val_req = None;
        let pristine = self.cores[core]
            .vsb
            .get(line)
            .expect("validation response for untracked line")
            .data;
        if data != pristine && !self.tuning.debug_skip_validation {
            // The producer overwrote or aborted, or a third writer
            // intervened: the speculation was wrong (§III-A).
            self.do_abort(core, AbortCause::ValidationMismatch);
            return;
        }
        // Validated: we are now the real owner; the pristine copy is
        // discarded and the (possibly locally modified) cache copy is the
        // current version.
        {
            let c = &mut self.cores[core];
            c.vsb.remove(line);
            if let Some(mut e) = c.l1.lookup_mut(line) {
                e.clear_spec_received();
            }
            c.naive.on_successful_validation();
        }
        self.stats.validations_ok += 1;
        self.trace.record(TraceEvent::Validated {
            at: self.clock,
            core: narrow(core),
            line,
        });
        self.after_validation_step(core);
    }

    /// A validation probe was answered speculatively again: the producer is
    /// still running. Check values and PiCs; retry later.
    pub(crate) fn validation_spec(
        &mut self,
        core: usize,
        line: LineAddr,
        data: Line,
        pic: Option<Pic>,
    ) {
        self.cores[core].val_req = None;
        let pristine = self.cores[core]
            .vsb
            .get(line)
            .expect("validation response for untracked line")
            .data;
        if data != pristine && !self.tuning.debug_skip_validation {
            self.do_abort(core, AbortCause::ValidationMismatch);
            return;
        }
        if let Some(p) = pic {
            // §IV-B: a local PiC at or above the responder's means a cycle
            // slipped through a race; abort to break it.
            if validation_pic_check(self.cores[core].pic.pic, p) {
                self.do_abort(core, AbortCause::CycleDetected);
                return;
            }
        }
        if self.policy.system == HtmSystem::NaiveRs
            && self.cores[core].naive.on_unsuccessful_validation()
        {
            self.do_abort(core, AbortCause::ValidationBudgetExhausted);
            return;
        }
        self.after_validation_step(core);
    }

    /// A validation probe was nacked (power owner): retry later.
    pub(crate) fn validation_nack(&mut self, core: usize) {
        self.cores[core].val_req = None;
        self.after_validation_step(core);
    }

    /// Schedules the next validation action after a probe concluded
    /// without aborting.
    fn after_validation_step(&mut self, core: usize) {
        if self.cores[core].vsb.is_empty() {
            // All consumptions validated: drop the Cons bit; the PiC stays
            // until commit — we may still be a producer (§IV-B).
            self.cores[core].pic.cons = false;
            if self.cores[core].commit_pending && self.try_commit(core) {
                let epoch = self.cores[core].epoch;
                self.events
                    .push(self.clock + 1, Event::CoreStep { core, epoch });
            }
            return;
        }
        if self.cores[core].commit_pending {
            // Commit is blocked on the VSB: keep validating continuously.
            let at = self.clock + self.pacing_delay(core, COMMIT_VALIDATION_GAP);
            let epoch = self.cores[core].epoch;
            self.events.push(at, Event::ValidationTick { core, epoch });
            self.cores[core].val_timer_armed = true;
        } else {
            self.arm_validation(core);
        }
    }
}
