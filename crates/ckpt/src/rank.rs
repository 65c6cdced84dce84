//! `CcRank`: one rank's checkpoint-aware MPI interface — the wrapper layer
//! of the paper's CC algorithm.
//!
//! Applications call MPI-like methods here instead of on [`mpisim::Ctx`].
//! Every collective entry runs the drain gate: sequence numbers are
//! incremented under the shared-mirror lock (the snapshot-race contract of
//! [`mana_core::control`]), overshoots raise targets and push updates
//! (Algorithm 2), and ranks that have met every target park at the wrapper
//! entry until released or quiesced (Algorithm 3). At quiesce the rank
//! completes all initiated non-blocking collectives (§4.3.2), reverts
//! matched-but-uncompleted receives into the mailbox, and publishes a
//! [`RuntimeCapture`]. At restart it attaches the fresh lower half and
//! rebuilds its communicators directly from the captured groups.

use crate::bus::TargetUpdate;
use crate::session::Session;
use bytes::Bytes;
use mana_core::capture::PendingRecv;
use mana_core::{
    ggid_of, CallCounters, CkptPhase, CommOp, DrainEvent, Ggid, Protocol, RankState,
    RuntimeCapture, TargetTable, VComm, VCommTable, VReq, VReqKind, VReqState, VReqTable,
    VCOMM_WORLD,
};
use mpisim::collective::RedSpec;
use mpisim::comm::{create_color, SplitKey};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{
    CollOp, Comm, Completion, Ctx, DType, Group, ReduceOp, Request, SrcSel, Status, TagSel, VTime,
    World,
};
use netmodel::wrapper_cost;
use std::collections::HashMap;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

pub mod step;

/// One rank's checkpoint-aware handle to the simulated MPI library.
pub struct CcRank<'s> {
    ctx: Ctx,
    /// The session, borrowed for the rank's whole life: every wrapper
    /// call reads it, so holding (let alone cloning) a counted handle per
    /// rank would put a world-shared reference count on the hot path.
    sh: &'s Session,
    rank: usize,
    targets: TargetTable,
    /// The `ckpt_epoch` the installed targets belong to. Back-to-back
    /// triggers can open checkpoint N+1 before this rank ever observes
    /// the not-pending gap after N, so a boolean "installed" flag would
    /// leave N's targets in force and park the rank below N+1's — the
    /// epoch makes staleness detectable without relying on the gap.
    targets_epoch: Option<u64>,
    vcomms: VCommTable,
    vreqs: VReqTable,
    counters: CallCounters,
    /// 2PC: the live lower-half request of an in-progress trivial barrier,
    /// kept outside [`VReqTable`] (the app never sees it) so a capture can
    /// park around it and a continue-resume can keep polling it.
    tb_req: Option<Request>,
    /// 2PC: ordinal of the next trivial barrier this rank posts (capture
    /// metadata: identifies *which* entry the rank was parked at).
    tb_ordinal: u64,
    /// Wall-clock microseconds slept per [`CcRank::compute`] call (0 =
    /// none). Virtual time is unaffected; see [`CcRank::set_wall_pace_us`].
    wall_pace_us: u64,
}

impl<'s> CcRank<'s> {
    /// Creates the wrapper for `rank` on the session's current world and
    /// registers `MPI_COMM_WORLD`'s group.
    pub fn new(sh: &'s Session, rank: usize) -> CcRank<'s> {
        let world = sh.current_world();
        let ctx = Ctx::new(world, rank);
        let mut r = CcRank {
            ctx,
            sh,
            rank,
            targets: TargetTable::new(),
            targets_epoch: None,
            vcomms: VCommTable::new(),
            vreqs: VReqTable::new(),
            counters: CallCounters::default(),
            tb_req: None,
            tb_ordinal: 0,
            wall_pace_us: 0,
        };
        let wcomm = r.ctx.comm_world();
        let ggid = ggid_of(wcomm.group());
        r.sh.control.ranks[rank]
            .seq_mirror
            .lock()
            .register_group(ggid, wcomm.group().sorted_members());
        r.vcomms.bind_world(wcomm, ggid);
        r
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// This rank's world rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.ctx.world_size()
    }

    /// Current virtual time.
    pub fn clock(&self) -> VTime {
        self.ctx.clock()
    }

    /// Advances the clock by `secs` of local computation and publishes the
    /// new clock, so trigger scheduling sees compute-bound progress too.
    /// Under a wall pace ([`CcRank::set_wall_pace_us`]) this additionally
    /// sleeps, with the scheduler run slot released for the duration.
    pub fn compute(&mut self, secs: f64) {
        self.ctx.compute(secs);
        if self.wall_pace_us > 0 {
            let us = self.wall_pace_us;
            self.ctx.blocked(|| {
                std::thread::sleep(std::time::Duration::from_micros(us));
            });
        }
        self.publish_clock();
    }

    /// Sets a wall-clock pace: every subsequent [`CcRank::compute`] call
    /// sleeps `us` microseconds of *host* time (virtual time unaffected,
    /// run slot released while sleeping). Harnesses use this so an
    /// asynchronous checkpoint trigger reliably catches the run mid-flight
    /// instead of racing a wall-fast completion.
    pub fn set_wall_pace_us(&mut self, us: u64) {
        self.wall_pace_us = us;
    }

    /// Sleeps `d` of wall-clock time with this rank's scheduler run slot
    /// released; virtual time is unaffected. Rank bodies must use this
    /// instead of `std::thread::sleep`: a plain sleep squats on one of
    /// the `workers` run slots, and on a small host two plainly-sleeping
    /// ranks can starve every other rank for the duration — skewing
    /// exactly the wall-clock interleavings (trigger windows, drain
    /// stalls) such pauses are meant to set up.
    pub fn wall_sleep(&self, d: std::time::Duration) {
        self.ctx.blocked(|| std::thread::sleep(d));
    }

    /// `MPI_COMM_WORLD`'s virtual id.
    pub fn world_vcomm(&self) -> VComm {
        VCOMM_WORLD
    }

    /// The caller's rank in the given communicator.
    pub fn comm_rank(&self, vc: VComm) -> usize {
        self.vcomms.resolve(vc).0.rank()
    }

    /// Number of members of the given communicator.
    pub fn comm_size(&self, vc: VComm) -> usize {
        self.vcomms.resolve(vc).0.size()
    }

    /// Interposition counters so far.
    pub fn counters(&self) -> CallCounters {
        self.counters
    }

    // ------------------------------------------------------------------
    // Control-plane servicing
    // ------------------------------------------------------------------

    /// Cheap per-interposition servicing: publish the clock, pick up
    /// targets and updates when a checkpoint is pending, clean up after a
    /// finished one.
    /// Publishes the rank's virtual clock and collective-call total for
    /// the coordinator's trigger policies.
    fn publish_clock(&self) {
        let ctl = &self.sh.control.ranks[self.rank];
        ctl.clock_ns.store(
            (self.ctx.clock().as_secs() * 1e9) as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        ctl.coll_calls.store(
            self.counters.coll_total(),
            std::sync::atomic::Ordering::Relaxed,
        );
    }

    // ------------------------------------------------------------------
    // Restore-from-image replay
    // ------------------------------------------------------------------

    /// Whether this rank has reached its restore cut: the session is a
    /// restore replay, the cut has not been taken yet, and the rank's
    /// application-visible progress (call counters + `SEQ[]` table) equals
    /// the image's capture exactly. Every interposition call advances a
    /// counter at entry, so the pair identifies the capture site uniquely
    /// along the deterministic re-execution.
    fn restore_cut_due(&self) -> bool {
        let Some(plan) = &self.sh.restore else {
            return false;
        };
        if plan.reached[self.rank].load(SeqCst) {
            return false;
        }
        let spec = &plan.cuts[self.rank];
        if spec.finished() || !spec.counters.same_app_calls(&self.counters) {
            return false;
        }
        *self.sh.control.ranks[self.rank].seq_mirror.lock() == spec.seq_table
    }

    /// Parks this rank at its restore cut: marks the cut reached and runs
    /// the ordinary quiesce/capture/resume machinery — the restore driver
    /// plays the coordinator's role (cross-checks the replayed capture
    /// against the image, installs the restored world, re-deposits the
    /// image's in-flight messages).
    fn park_for_restore(&mut self, state: RankState) {
        self.sh
            .restore
            .as_ref()
            .expect("cut implies restore plan")
            .reached[self.rank]
            .store(true, SeqCst);
        self.quiesce(state);
    }

    fn service_control(&mut self) {
        let sh = self.sh;
        let ctl = &sh.control.ranks[self.rank];
        self.publish_clock();
        if sh.control.is_pending() {
            if ctl.targets_ready.load(SeqCst) {
                self.install_targets_if_new();
                self.apply_updates();
                self.publish_met();
            }
        } else if self.targets_epoch.is_some() {
            self.targets.clear();
            self.targets_epoch = None;
        }
    }

    /// Installs the coordinator's initial targets once per checkpoint.
    /// A cache left over from an earlier epoch is discarded first: its
    /// targets were met, not this checkpoint's.
    fn install_targets_if_new(&mut self) {
        let sh = self.sh;
        let epoch = sh.control.ckpt_epoch.load(SeqCst);
        if self.targets_epoch == Some(epoch) {
            return;
        }
        self.targets.clear();
        let t = sh.control.ranks[self.rank].initial_targets.lock().clone();
        let mut listing: Vec<(Ggid, u64)> = t.iter().map(|(g, v)| (*g, *v)).collect();
        listing.sort();
        self.targets.install(t);
        self.targets_epoch = Some(epoch);
        sh.trace
            .push(DrainEvent::TargetsInstalled(self.rank, listing));
    }

    /// Applies every queued target update (Algorithm 3's receive path).
    fn apply_updates(&mut self) {
        let sh = self.sh;
        for u in sh.bus.drain(self.rank) {
            let changed = self.targets.raise(u.ggid, u.target);
            sh.control.ranks[self.rank]
                .updates_recv
                .fetch_add(1, SeqCst);
            self.counters.drain_updates_recv += 1;
            sh.trace.push(DrainEvent::UpdateReceived(
                self.rank, u.ggid, u.target, changed,
            ));
        }
    }

    /// Publishes whether all local targets are met.
    fn publish_met(&mut self) {
        let sh = self.sh;
        let met = {
            let t = sh.control.ranks[self.rank].seq_mirror.lock();
            self.targets.reached_by(&t)
        };
        sh.control.ranks[self.rank].targets_met.store(met, SeqCst);
    }

    /// Blocks until targets for the pending checkpoint are installed.
    /// Returns `false` if the checkpoint ended while waiting. The wait is
    /// a scheduler yield-point: the run slot is released while parked.
    fn await_targets(&mut self) -> bool {
        let sh = self.sh;
        let ctl = &sh.control.ranks[self.rank];
        let fail = Arc::clone(self.ctx.world().fail_plane());
        self.ctx.blocked(|| {
            ctl.park_until(|| {
                ctl.targets_ready.load(SeqCst) || !sh.control.is_pending() || fail.poisoned()
            });
        });
        fail.die_if_poisoned();
        if !sh.control.is_pending() {
            self.service_control();
            return false;
        }
        self.install_targets_if_new();
        true
    }

    /// Records a collective participation in the execution log. The
    /// member list is passed by reference out of the rank's own mirror:
    /// the log keeps a handle the first time it sees the group, so a
    /// steady-state call touches nothing another rank touches.
    fn record_exec(&mut self, ggid: Ggid, seq: u64) {
        let mirror = self.sh.control.ranks[self.rank].seq_mirror.lock();
        let members = mirror
            .members_shared(ggid)
            .expect("collective on registered group");
        self.sh
            .exec_log
            .record_shared(self.rank, ggid, seq, members);
    }

    // ------------------------------------------------------------------
    // The drain gate (Algorithms 2 & 3)
    // ------------------------------------------------------------------

    /// The collective-wrapper entry: counts the call on the group's
    /// sequence number, subject to the coordination protocol in force.
    /// Returns the group id and the new sequence number. The caller
    /// resolves `vc` itself, by reference and *after* the gate: a restart
    /// while parked here replaces the lower half, and a communicator
    /// handle returned by value would be a reference-count round trip on
    /// a handle every member shares.
    fn coll_gate(&mut self, vc: VComm) -> (Ggid, u64) {
        match self.sh.protocol {
            Protocol::TwoPhase => return self.coll_gate_2pc(vc),
            Protocol::Cc => {
                // The CC steady-state cost: one virtualized-handle lookup
                // plus a `SEQ[ggid]` increment.
                let w = wrapper_cost(self.ctx.world().params());
                self.ctx.compute(w);
            }
            Protocol::Native => {}
        }
        loop {
            // Restore replay: the image captured this rank parked at this
            // wrapper entry (counters include this call, `SEQ[]` does not).
            if self.restore_cut_due() {
                self.park_for_restore(RankState::Quiesced);
                continue; // re-resolve against the restored lower half
            }
            self.service_control();
            let sh = self.sh;
            let ggid = self.vcomms.resolve(vc).1;
            if !sh.control.is_pending() {
                // Fast path, with the snapshot-race contract: increment
                // under the mirror lock, then observe `pending`.
                let seq = sh.control.ranks[self.rank]
                    .seq_mirror
                    .lock()
                    .increment(ggid);
                if sh.control.is_pending() {
                    self.overshoot(ggid, seq);
                }
                self.record_exec(ggid, seq);
                return (ggid, seq);
            }
            // Drain mode (Algorithm 3): a rank with every target met parks
            // at the wrapper entry; a rank with ANY unmet target keeps
            // executing its program toward them — and every collective it
            // runs past a target raises that target and pushes updates,
            // the cascade of Figure 3b.
            if !self.await_targets() {
                continue;
            }
            self.apply_updates();
            let all_met = {
                let t = sh.control.ranks[self.rank].seq_mirror.lock();
                self.targets.reached_by(&t)
            };
            if !all_met {
                let seq = sh.control.ranks[self.rank]
                    .seq_mirror
                    .lock()
                    .increment(ggid);
                sh.trace.push(DrainEvent::DrainStep(self.rank, ggid, seq));
                if seq > self.targets.get(ggid).unwrap_or(0) {
                    self.raise_and_broadcast(ggid, seq);
                }
                self.record_exec(ggid, seq);
                self.publish_met();
                return (ggid, seq);
            }
            self.park_at_entry();
        }
    }

    /// The 2PC gate (MANA 2019, §2.2 of the paper): a *trivial barrier* —
    /// an internal `MPI_Ibarrier` + `MPI_Test` loop — in front of every
    /// collective. The rank may only enter the real collective once the
    /// barrier completes, which proves every member has reached this entry;
    /// a checkpoint intent observed while the barrier cannot complete parks
    /// the rank inside the barrier (captured via `pending_barrier` and
    /// re-issued at restart). This is what de-pipelines non-synchronizing
    /// collectives and amplifies per-rank jitter (Figure 5a).
    fn coll_gate_2pc(&mut self, vc: VComm) -> (Ggid, u64) {
        let sh = self.sh;
        let w = wrapper_cost(self.ctx.world().params());
        self.ctx.compute(w);
        // Stop-the-world cut, phase 1: a rank that observes the intent
        // *before* initiating its trivial barrier stops right here — its
        // peers' barriers then (correctly) cannot complete.
        loop {
            // Restore replay: the image captured this rank stopped at
            // phase 1 (this call counted, its trivial barrier not yet
            // posted).
            if self.restore_cut_due() {
                self.park_for_restore(RankState::Quiesced);
                continue;
            }
            self.service_control();
            if sh.control.is_pending() && sh.control.phase() == CkptPhase::Quiescing {
                self.quiesce(RankState::Quiesced);
                continue;
            }
            break;
        }
        let ordinal = self.tb_ordinal;
        self.tb_ordinal += 1;
        self.counters.trivial_barriers += 1;
        let mut req = self.ctx.ibarrier(&self.vcomms.resolve(vc).0);
        // Test-poll until completion. The first check is a charged
        // `MPI_Test`; afterwards the loop synchronizes to the barrier's
        // exit time directly (`Ctx::try_complete`), which keeps virtual
        // time deterministic while preserving the de-pipelining cost: this
        // rank cannot proceed before every member has arrived.
        let mut polled = false;
        loop {
            let done = if polled {
                self.ctx.try_complete(&mut req).is_some()
            } else {
                polled = true;
                self.counters.completions += 1;
                self.ctx.test(&mut req).is_some()
            };
            if done {
                break;
            }
            // Restore replay: the image captured this rank parked inside
            // this trivial barrier (barrier posted and first Test counted);
            // park the same way — the barrier is re-issued against the
            // restored lower half exactly as an in-process restart does.
            if self.restore_cut_due() {
                *sh.control.ranks[self.rank].pending_barrier.lock() = Some((vc.0, ordinal));
                self.tb_req = Some(req);
                self.park_for_restore(RankState::InTrivialBarrier);
                req = self
                    .tb_req
                    .take()
                    .expect("trivial barrier re-issued at restore");
                *sh.control.ranks[self.rank].pending_barrier.lock() = None;
                continue;
            }
            self.service_control();
            if sh.control.is_pending() && sh.control.phase() == CkptPhase::Quiescing {
                // Intent while the barrier is in flight. Barrier-instance
                // completion is global and monotone, so every member makes
                // the same choice here: if all members have initiated,
                // finish the barrier and enter the real collective;
                // otherwise park *inside* the barrier — it is captured as
                // pending and re-issued at restart.
                if self.ctx.try_complete(&mut req).is_some() {
                    break;
                }
                *sh.control.ranks[self.rank].pending_barrier.lock() = Some((vc.0, ordinal));
                self.tb_req = Some(req);
                sh.trace.push(DrainEvent::TrivialBarrierParked(self.rank));
                self.quiesce(RankState::InTrivialBarrier);
                req = self
                    .tb_req
                    .take()
                    .expect("trivial barrier request survives the capture");
                *sh.control.ranks[self.rank].pending_barrier.lock() = None;
                continue;
            }
            self.ctx.park_briefly();
        }
        // Barrier complete: every member is at this entry. Count the call
        // and let the caller run the real collective.
        let ggid = self.vcomms.resolve(vc).1;
        let seq = sh.control.ranks[self.rank]
            .seq_mirror
            .lock()
            .increment(ggid);
        self.record_exec(ggid, seq);
        (ggid, seq)
    }

    /// Algorithm 2's overshoot path: our increment raced the coordinator's
    /// snapshot. Raise the target to cover it and push updates to the other
    /// members.
    fn overshoot(&mut self, ggid: Ggid, seq: u64) {
        if !self.await_targets() {
            return;
        }
        self.apply_updates();
        if seq > self.targets.get(ggid).unwrap_or(0) {
            self.raise_and_broadcast(ggid, seq);
        }
        self.publish_met();
    }

    /// Raises `TARGET[ggid]` to `seq` locally, records the raise for the
    /// coordinator, and pushes updates to every other member.
    fn raise_and_broadcast(&mut self, ggid: Ggid, seq: u64) {
        self.targets.raise(ggid, seq);
        let sh = self.sh;
        let members = sh.control.ranks[self.rank]
            .seq_mirror
            .lock()
            .members_shared(ggid)
            .cloned()
            .unwrap_or_else(|| Vec::new().into());
        sh.trace
            .push(DrainEvent::TargetRaised(self.rank, ggid, seq));
        sh.bus.record_raise(ggid, seq, Arc::clone(&members));
        for &m in members.iter() {
            if m != self.rank {
                sh.bus.send(
                    &sh.control,
                    self.rank,
                    m,
                    TargetUpdate { ggid, target: seq },
                );
                self.counters.drain_updates_sent += 1;
                sh.trace
                    .push(DrainEvent::UpdateSent(self.rank, m, ggid, seq));
            }
        }
    }

    /// Algorithm 3's parked receive loop: all targets met, wait at the
    /// wrapper entry for a raise, the quiesce signal, or the end of the
    /// checkpoint.
    fn park_at_entry(&mut self) {
        let sh = self.sh;
        let ctl = &sh.control.ranks[self.rank];
        ctl.set_state(RankState::EntryParked);
        sh.trace.push(DrainEvent::Parked(self.rank));
        self.publish_met();
        // The not-pending gap between two checkpoints can be shorter than
        // this park's wake latency: `pending` may read true here for the
        // *next* checkpoint. The epoch is monotone, so comparing against
        // the one we parked under catches that hand-off and sends the
        // rank back through the gate to install the new targets.
        let parked_epoch = sh.control.ckpt_epoch.load(SeqCst);
        loop {
            if !sh.control.is_pending() || sh.control.ckpt_epoch.load(SeqCst) != parked_epoch {
                break;
            }
            if sh.control.phase() == CkptPhase::Quiescing {
                self.quiesce(RankState::Quiesced);
                break;
            }
            if sh.bus.has_pending(self.rank) {
                self.apply_updates();
                self.publish_met();
                sh.trace.push(DrainEvent::Unparked(self.rank));
                break;
            }
            // Parked at the wrapper entry: slotless until a raise, the
            // quiesce signal, the end of the checkpoint, the next
            // checkpoint taking over — or a world kill.
            let rank = self.rank;
            let fail = Arc::clone(self.ctx.world().fail_plane());
            self.ctx.blocked(|| {
                ctl.park_until(|| {
                    !sh.control.is_pending()
                        || sh.control.ckpt_epoch.load(SeqCst) != parked_epoch
                        || sh.control.phase() != CkptPhase::Draining
                        || sh.bus.has_pending(rank)
                        || fail.poisoned()
                });
            });
            fail.die_if_poisoned();
        }
        let ctl = &sh.control.ranks[self.rank];
        ctl.set_state(if sh.control.is_pending() {
            RankState::Draining
        } else {
            RankState::Running
        });
    }

    // ------------------------------------------------------------------
    // Quiesce, capture, restore
    // ------------------------------------------------------------------

    /// Parks for capture: completes every initiated non-blocking
    /// collective (§4.3.2), reverts matched receives, publishes the
    /// [`RuntimeCapture`], and waits for resume — attaching a fresh lower
    /// half first if the coordinator installed one (restart).
    fn quiesce(&mut self, state: RankState) {
        // §4.3.2: every initiated non-blocking collective runs to
        // completion; all participants have initiated (targets met), so
        // these waits terminate.
        for v in self.vreqs.active_collectives() {
            if let Some(VReqState::Active(mut req, _)) = self.vreqs.take(v) {
                let c = self.ctx.wait(&mut req);
                self.vreqs.put_back(v, VReqState::Ready(c));
            }
        }
        // Matched-but-uncompleted receives: the message returns to the
        // mailbox so the capture drain records it as in-flight. This is a
        // revert, not an injection — the sender's flow counter already
        // covers the message, so it must not count as a re-deposit in the
        // drain accounting.
        let world = Arc::clone(self.ctx.world());
        for v in self.vreqs.active_recv_ids() {
            if let Some(VReqState::Active(mut req, kind)) = self.vreqs.take(v) {
                if let Some(msg) = req.unmatch() {
                    let arrival = msg.arrival;
                    world.revert_unmatched(msg, arrival);
                }
                self.vreqs.put_back(v, VReqState::Active(req, kind));
            }
        }
        let sh = self.sh;
        let ctl = &sh.control.ranks[self.rank];
        *ctl.capture_slot.lock() = Some(self.build_capture(state));
        let my_gen = sh.control.resume_gen.load(SeqCst);
        ctl.set_state(state);
        sh.trace.push(DrainEvent::Quiesced(self.rank));
        let mut restarted = false;
        loop {
            // Quiesced park: the rank is captured and slotless; the
            // coordinator (not a rank) does the capture work meanwhile.
            let fail = Arc::clone(self.ctx.world().fail_plane());
            self.ctx.blocked(|| {
                ctl.park_until(|| {
                    sh.control.resume_gen.load(SeqCst) > my_gen
                        || (sh.control.phase() == CkptPhase::Resuming
                            && ctl.new_world.lock().is_some())
                        || fail.poisoned()
                });
            });
            fail.die_if_poisoned();
            let fresh = ctl.new_world.lock().take();
            if let Some(w) = fresh {
                self.restore_into(w);
                restarted = true;
                continue;
            }
            if sh.control.resume_gen.load(SeqCst) > my_gen {
                break;
            }
        }
        if restarted {
            // Restore-from-image: the image's captured clock is
            // authoritative for the restored timeline (replay accounting
            // may drift from a capture taken mid-drain); adopt it before
            // re-posting, so re-issued operations carry the right entry
            // times.
            if let Some(plan) = &sh.restore {
                self.ctx.set_clock(plan.cuts[self.rank].clock);
            }
            self.repost_pending_recvs();
            self.repost_trivial_barrier();
        }
        // Checkpoint-image storage I/O (Lustre write, plus read at
        // restart) is charged to the rank's virtual clock at resume.
        let io_ns = sh.control.ranks[self.rank]
            .io_charge_ns
            .swap(0, std::sync::atomic::Ordering::SeqCst);
        if io_ns > 0 {
            self.ctx.compute(io_ns as f64 * 1e-9);
        }
        self.publish_clock();
        sh.control.ranks[self.rank].set_state(RankState::Running);
    }

    /// Builds this rank's runtime capture, recording the park state it is
    /// being captured in.
    fn build_capture(&self, state: RankState) -> RuntimeCapture {
        let ctl = &self.sh.control.ranks[self.rank];
        let mut pending_recvs: Vec<PendingRecv> = self
            .vreqs
            .pending_recvs()
            .into_iter()
            .map(|(v, vc, src, tag)| PendingRecv {
                vreq: v.0,
                vcomm: vc.0,
                src,
                tag,
            })
            .collect();
        // The request table iterates in hash order; sort so captures (and
        // their serialized images) are deterministic.
        pending_recvs.sort_by_key(|p| p.vreq);
        let (p2p_sent, p2p_delivered) = self.ctx.p2p_flow();
        RuntimeCapture {
            rank: self.rank,
            state,
            clock: self.ctx.clock(),
            seq_table: ctl.seq_mirror.lock().clone(),
            comm_log: self.vcomms.log().to_vec(),
            pending_recvs,
            pending_barrier: *ctl.pending_barrier.lock(),
            counters: self.counters,
            p2p_sent,
            p2p_delivered,
            vcomm_to_lower: self.vcomms.lower_map(),
            vcomm_members: self.vcomms.members_map(),
        }
    }

    /// Restart: attach the fresh lower half and rebuild every virtual
    /// communicator directly from its captured group — no creation
    /// collectives, so replay cannot hang on already-finished members.
    fn restore_into(&mut self, w: Arc<World>) {
        let saved_members = self.vcomms.members_map();
        self.ctx.attach_world(Arc::clone(&w));
        self.vcomms.invalidate_lower();
        let wcomm = self.ctx.comm_world();
        self.vcomms
            .bind_world(wcomm.clone(), ggid_of(wcomm.group()));
        // Per-parent creation ordinals: every member of a parent logged the
        // same creation ops in the same order, so these agree globally and
        // members derive identical registry keys without communicating.
        // Replay keys live at the TOP of the seq space: post-restart
        // creations derive their keys from `Ctx`'s per-comm collective
        // ordinals, which restart from zero, and must never collide with a
        // replayed communicator's key.
        let mut ordinals: HashMap<u64, u64> = HashMap::new();
        for rec in self.vcomms.log().to_vec() {
            let (parent, color) = match &rec.op {
                CommOp::Dup { parent } => (*parent, i64::MIN),
                CommOp::Split { parent, color, .. } => (*parent, *color),
                CommOp::Create { parent, members } => (*parent, create_color(members)),
            };
            let seq = {
                let o = ordinals.entry(parent.0).or_insert(0);
                let s = *o;
                *o += 1;
                u64::MAX - s
            };
            if let Some(v) = rec.result {
                let members = saved_members
                    .get(&v.0)
                    .expect("capture holds members of every live vcomm")
                    .clone();
                let parent_lower = self.vcomms.resolve(parent).0.id();
                let inner = w.restore_comm(
                    SplitKey {
                        parent: parent_lower,
                        seq,
                        color,
                    },
                    Group::from_shared(members),
                );
                let comm = Comm::for_world_rank(inner, self.rank);
                let ggid = ggid_of(comm.group());
                self.vcomms.rebind(v, comm, ggid);
            }
        }
        let sh = self.sh;
        // The image is authoritative across a restart: adopt the counters
        // the coordinator restored from the capture (they would otherwise
        // silently revert to whatever the thread last held).
        if let Some(c) = sh.control.ranks[self.rank].restored_counters.lock().take() {
            self.counters = c;
        }
        *sh.control.ranks[self.rank].replayed_comms.lock() = self.vcomms.lower_map();
        sh.control.replayed_count.fetch_add(1, SeqCst);
    }

    /// Re-issues the trivial barrier this rank was parked in at capture
    /// (2PC, restart path): the coordinator restored `pending_barrier` from
    /// the image; members that had not yet initiated will post theirs on
    /// reaching the same entry, and the per-communicator collective
    /// ordinals of the fresh lower half line both posts up on one instance.
    fn repost_trivial_barrier(&mut self) {
        let pb = *self.sh.control.ranks[self.rank].pending_barrier.lock();
        if let Some((vc, _ordinal)) = pb {
            self.tb_req = Some(self.ctx.ibarrier(&self.vcomms.resolve(VComm(vc)).0));
        }
    }

    /// Re-posts every pending receive against the fresh lower half.
    fn repost_pending_recvs(&mut self) {
        for (v, vc, src, tag) in self.vreqs.pending_recvs() {
            let req = self.ctx.irecv(&self.vcomms.resolve(vc).0, src, tag);
            self.vreqs.replace_request(v, req);
        }
    }

    /// Runner hook: publishes the final capture and the `Finished` state.
    pub(crate) fn finish(&mut self) {
        let sh = self.sh;
        let cap = self.build_capture(RankState::Finished);
        self.publish_clock();
        let ctl = &sh.control.ranks[self.rank];
        *ctl.capture_slot.lock() = Some(cap);
        ctl.targets_met.store(true, SeqCst);
        ctl.set_state(RankState::Finished);
    }

    // ------------------------------------------------------------------
    // Blocking collectives
    // ------------------------------------------------------------------

    /// Blocking collective entry point (all specific calls route here).
    pub fn collective(
        &mut self,
        vc: VComm,
        op: CollOp,
        root: usize,
        payload: Bytes,
        red: Option<RedSpec>,
    ) -> Bytes {
        self.counters.coll_blocking += 1;
        self.coll_gate(vc);
        let sh = self.sh;
        sh.control.ranks[self.rank]
            .in_collective
            .store(true, SeqCst);
        let comm = &self.vcomms.resolve(vc).0;
        let out = self.ctx.collective(comm, op, root, payload, red);
        sh.control.ranks[self.rank]
            .in_collective
            .store(false, SeqCst);
        self.service_control();
        out
    }

    /// `MPI_Barrier`.
    pub fn barrier(&mut self, vc: VComm) {
        let _ = self.collective(vc, CollOp::Barrier, 0, Bytes::new(), None);
    }

    /// `MPI_Bcast`.
    pub fn bcast(&mut self, vc: VComm, root: usize, data: Bytes) -> Bytes {
        self.collective(vc, CollOp::Bcast, root, data, None)
    }

    /// `MPI_Reduce`.
    pub fn reduce(
        &mut self,
        vc: VComm,
        root: usize,
        data: Bytes,
        dtype: DType,
        op: ReduceOp,
    ) -> Bytes {
        self.collective(vc, CollOp::Reduce, root, data, Some(RedSpec { dtype, op }))
    }

    /// `MPI_Allreduce`.
    pub fn allreduce(&mut self, vc: VComm, data: Bytes, dtype: DType, op: ReduceOp) -> Bytes {
        self.collective(vc, CollOp::Allreduce, 0, data, Some(RedSpec { dtype, op }))
    }

    /// `MPI_Allreduce` on `f64` slices (convenience).
    pub fn allreduce_f64(&mut self, vc: VComm, data: &[f64], op: ReduceOp) -> Vec<f64> {
        decode_f64(&self.allreduce(vc, encode_f64(data), DType::F64, op))
    }

    /// `MPI_Gather`.
    pub fn gather(&mut self, vc: VComm, root: usize, data: Bytes) -> Bytes {
        self.collective(vc, CollOp::Gather, root, data, None)
    }

    /// `MPI_Allgather`.
    pub fn allgather(&mut self, vc: VComm, data: Bytes) -> Bytes {
        self.collective(vc, CollOp::Allgather, 0, data, None)
    }

    /// `MPI_Alltoall`.
    pub fn alltoall(&mut self, vc: VComm, data: Bytes) -> Bytes {
        self.collective(vc, CollOp::Alltoall, 0, data, None)
    }

    /// `MPI_Scatter`.
    pub fn scatter(&mut self, vc: VComm, root: usize, data: Bytes) -> Bytes {
        self.collective(vc, CollOp::Scatter, root, data, None)
    }

    /// `MPI_Scan`.
    pub fn scan(&mut self, vc: VComm, data: Bytes, dtype: DType, op: ReduceOp) -> Bytes {
        self.collective(vc, CollOp::Scan, 0, data, Some(RedSpec { dtype, op }))
    }

    /// `MPI_Reduce_scatter_block`.
    pub fn reduce_scatter(&mut self, vc: VComm, data: Bytes, dtype: DType, op: ReduceOp) -> Bytes {
        self.collective(
            vc,
            CollOp::ReduceScatter,
            0,
            data,
            Some(RedSpec { dtype, op }),
        )
    }

    // ------------------------------------------------------------------
    // Non-blocking collectives (initiation counts — §4.3.1)
    // ------------------------------------------------------------------

    /// Non-blocking collective entry point.
    pub fn icollective(
        &mut self,
        vc: VComm,
        op: CollOp,
        root: usize,
        payload: Bytes,
        red: Option<RedSpec>,
    ) -> VReq {
        assert!(
            self.sh.protocol.supports_nonblocking_collectives(),
            "{} does not support non-blocking collectives",
            self.sh.protocol.name()
        );
        self.counters.coll_nonblocking += 1;
        self.coll_gate(vc);
        let sh = self.sh;
        sh.control.ranks[self.rank]
            .in_collective
            .store(true, SeqCst);
        let comm = &self.vcomms.resolve(vc).0;
        let req = self.ctx.icollective(comm, op, root, payload, red);
        sh.control.ranks[self.rank]
            .in_collective
            .store(false, SeqCst);
        self.vreqs.insert(req, VReqKind::Coll { vcomm: vc })
    }

    /// `MPI_Ibarrier`.
    pub fn ibarrier(&mut self, vc: VComm) -> VReq {
        self.icollective(vc, CollOp::Barrier, 0, Bytes::new(), None)
    }

    /// `MPI_Ibcast`.
    pub fn ibcast(&mut self, vc: VComm, root: usize, data: Bytes) -> VReq {
        self.icollective(vc, CollOp::Bcast, root, data, None)
    }

    /// `MPI_Iallreduce`.
    pub fn iallreduce(&mut self, vc: VComm, data: Bytes, dtype: DType, op: ReduceOp) -> VReq {
        self.icollective(vc, CollOp::Allreduce, 0, data, Some(RedSpec { dtype, op }))
    }

    /// `MPI_Iallgather`.
    pub fn iallgather(&mut self, vc: VComm, data: Bytes) -> VReq {
        self.icollective(vc, CollOp::Allgather, 0, data, None)
    }

    /// `MPI_Ialltoall`.
    pub fn ialltoall(&mut self, vc: VComm, data: Bytes) -> VReq {
        self.icollective(vc, CollOp::Alltoall, 0, data, None)
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// `MPI_Isend`.
    pub fn isend(&mut self, vc: VComm, to: usize, tag: u32, payload: impl Into<Bytes>) -> VReq {
        self.service_control();
        self.counters.p2p_sends += 1;
        let comm = &self.vcomms.resolve(vc).0;
        let req = self.ctx.isend(comm, to, tag, payload);
        self.vreqs.insert(req, VReqKind::Send)
    }

    /// `MPI_Send`.
    pub fn send(&mut self, vc: VComm, to: usize, tag: u32, payload: impl Into<Bytes>) {
        let v = self.isend(vc, to, tag, payload);
        self.wait(v);
    }

    /// `MPI_Irecv`.
    pub fn irecv(&mut self, vc: VComm, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> VReq {
        self.service_control();
        self.counters.p2p_recvs += 1;
        let src = src.into();
        let tag = tag.into();
        let comm = &self.vcomms.resolve(vc).0;
        let req = self.ctx.irecv(comm, src, tag);
        self.vreqs.insert(
            req,
            VReqKind::Recv {
                vcomm: vc,
                src,
                tag,
            },
        )
    }

    /// `MPI_Recv`.
    pub fn recv(
        &mut self,
        vc: VComm,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> (Bytes, Status) {
        let v = self.irecv(vc, src, tag);
        let c = self.wait(v);
        (c.data, c.status.expect("recv completion carries status"))
    }

    /// `MPI_Sendrecv`.
    pub fn sendrecv(
        &mut self,
        vc: VComm,
        to: usize,
        send_tag: u32,
        payload: impl Into<Bytes>,
        from: impl Into<SrcSel>,
        recv_tag: impl Into<TagSel>,
    ) -> (Bytes, Status) {
        let s = self.isend(vc, to, send_tag, payload);
        let r = self.irecv(vc, from, recv_tag);
        self.wait(s);
        let c = self.wait(r);
        (c.data, c.status.expect("recv status"))
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// `MPI_Wait`: blocks (cooperatively with the checkpoint engine) until
    /// the request completes.
    pub fn wait(&mut self, v: VReq) -> Completion {
        self.counters.completions += 1;
        loop {
            match self.vreqs.take(v) {
                None => return Completion::empty(),
                Some(VReqState::Ready(c)) => return c,
                Some(VReqState::Active(req, kind)) => {
                    let is_recv = matches!(kind, VReqKind::Recv { .. });
                    // Restore replay: the image captured this rank parked
                    // inside this wait. The check runs *before*
                    // `try_complete` — replay wall-clock interleaving may
                    // have made the operation completable earlier than the
                    // capture did, and the cut must win that race.
                    if self.restore_cut_due() {
                        self.vreqs.put_back(v, VReqState::Active(req, kind));
                        self.park_for_restore(if is_recv {
                            RankState::RecvParked
                        } else {
                            RankState::Quiesced
                        });
                        continue;
                    }
                    let mut req = req;
                    if let Some(c) = self.ctx.try_complete(&mut req) {
                        return c;
                    }
                    self.vreqs.put_back(v, VReqState::Active(req, kind));
                    self.service_control();
                    let sh = self.sh;
                    if sh.control.is_pending() && sh.control.phase() == CkptPhase::Quiescing {
                        self.quiesce(if is_recv {
                            RankState::RecvParked
                        } else {
                            RankState::Quiesced
                        });
                        continue;
                    }
                    self.ctx.park_briefly();
                }
            }
        }
    }

    /// `MPI_Test`: non-blocking completion check (charges one poll), also
    /// cooperating with a quiesce in progress.
    pub fn test(&mut self, v: VReq) -> Option<Completion> {
        self.counters.completions += 1;
        // Restore replay: the image captured this rank quiesced at this
        // test call.
        if self.restore_cut_due() {
            self.park_for_restore(RankState::Quiesced);
        }
        self.service_control();
        let sh = self.sh;
        if sh.control.is_pending() && sh.control.phase() == CkptPhase::Quiescing {
            self.quiesce(RankState::Quiesced);
        }
        match self.vreqs.take(v) {
            None => Some(Completion::empty()),
            Some(VReqState::Ready(c)) => Some(c),
            Some(VReqState::Active(mut req, kind)) => match self.ctx.test(&mut req) {
                Some(c) => Some(c),
                None => {
                    self.vreqs.put_back(v, VReqState::Active(req, kind));
                    None
                }
            },
        }
    }

    /// `MPI_Waitall`.
    pub fn waitall(&mut self, vs: &[VReq]) -> Vec<Completion> {
        vs.iter().map(|&v| self.wait(v)).collect()
    }

    // ------------------------------------------------------------------
    // Communicator management (collective on the parent — counted)
    // ------------------------------------------------------------------

    /// `MPI_Comm_split`.
    pub fn comm_split(&mut self, vc: VComm, color: i64, key: i64) -> Option<VComm> {
        self.counters.comm_mgmt += 1;
        self.coll_gate(vc);
        let sh = self.sh;
        sh.control.ranks[self.rank]
            .in_collective
            .store(true, SeqCst);
        let sub = self.ctx.comm_split(&self.vcomms.resolve(vc).0, color, key);
        sh.control.ranks[self.rank]
            .in_collective
            .store(false, SeqCst);
        let lower = sub.map(|c| {
            let g = ggid_of(c.group());
            sh.control.ranks[self.rank]
                .seq_mirror
                .lock()
                .register_group(g, c.group().sorted_members());
            (c, g)
        });
        self.vcomms.record_creation(
            CommOp::Split {
                parent: vc,
                color,
                key,
            },
            lower,
        )
    }

    /// `MPI_Comm_dup`.
    pub fn comm_dup(&mut self, vc: VComm) -> VComm {
        self.counters.comm_mgmt += 1;
        self.coll_gate(vc);
        let sh = self.sh;
        sh.control.ranks[self.rank]
            .in_collective
            .store(true, SeqCst);
        let dup = self.ctx.comm_dup(&self.vcomms.resolve(vc).0);
        sh.control.ranks[self.rank]
            .in_collective
            .store(false, SeqCst);
        let g = ggid_of(dup.group());
        sh.control.ranks[self.rank]
            .seq_mirror
            .lock()
            .register_group(g, dup.group().sorted_members());
        self.vcomms
            .record_creation(CommOp::Dup { parent: vc }, Some((dup, g)))
            .expect("dup always yields a communicator")
    }

    /// `MPI_Comm_create` with `members` as world ranks in group order.
    pub fn comm_create(&mut self, vc: VComm, members: Vec<usize>) -> Option<VComm> {
        self.counters.comm_mgmt += 1;
        self.coll_gate(vc);
        let group = Group::new(members.clone());
        let sh = self.sh;
        sh.control.ranks[self.rank]
            .in_collective
            .store(true, SeqCst);
        let sub = self.ctx.comm_create(&self.vcomms.resolve(vc).0, &group);
        sh.control.ranks[self.rank]
            .in_collective
            .store(false, SeqCst);
        let lower = sub.map(|c| {
            let g = ggid_of(c.group());
            sh.control.ranks[self.rank]
                .seq_mirror
                .lock()
                .register_group(g, c.group().sorted_members());
            (c, g)
        });
        self.vcomms.record_creation(
            CommOp::Create {
                parent: vc,
                members,
            },
            lower,
        )
    }
}

impl std::fmt::Debug for CcRank<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CcRank")
            .field("rank", &self.rank)
            .field("clock", &self.ctx.clock())
            .finish()
    }
}
