//! `CcRank`: one rank's checkpoint-aware MPI interface — the wrapper layer
//! of the paper's CC algorithm.
//!
//! Applications call MPI-like methods here instead of on [`mpisim::Ctx`].
//! Every collective entry runs the drain gate: sequence numbers are
//! incremented under the shared-mirror lock (the snapshot-race contract of
//! [`mana_core::control`]), overshoots raise the one target table, waking
//! the group's other members (Algorithm 2), and ranks that have met every
//! target park at the wrapper entry until released or quiesced (Algorithm
//! 3). At quiesce the rank completes all initiated non-blocking collectives
//! (§4.3.2), reverts matched-but-uncompleted receives into the mailbox, and
//! publishes a [`RuntimeCapture`]. At restart the parked rank installs that
//! capture, with the drained in-flight messages addressed to it, into the
//! next lower half; restored elsewhere, a fresh rank adopts the upper half,
//! installs the image's capture the same way, and resumes at the captured
//! park (`CcRank::resume_from`).
//!
//! There is one rank type, and its MPI surface is one face. The control
//! flow lives in the poll machines of [`step`], the one protocol engine,
//! which also defines the idempotent-start `poll_*` methods every body
//! calls: a body stepped by the pool ([`crate::StepBody`]) yields when one
//! is pending, and a body on its own thread is run through [`CcRank::run`],
//! the one call that blocks, on the whole body. This file holds the rank's
//! state, the straight-line helpers the machines call, the calls that
//! never wait (`isend`, `irecv`, `compute`) and that one blocking loop.

use crate::coordinator::rebuild_msg;
use crate::runner::step::{BodyStep, StepBody};
use crate::session::Session;
use bytes::Bytes;
use mana_core::capture::PendingRecv;
use mana_core::{
    ggid_of, CallCounters, CommOp, DrainEvent, Ggid, Protocol, RankState, RuntimeCapture,
    UpperHalf, VComm, VCommTable, VReq, VReqKind, VReqState, VReqTable, VCOMM_WORLD,
};
use mpisim::comm::{create_color, SplitKey};
use mpisim::sched::WaitReason;
use mpisim::{Comm, Completion, Ctx, Request, SavedMsg, SrcSel, TagSel, VTime, World};
use std::collections::HashMap;
use std::sync::Arc;
use step::{Op, StepPoll};

pub mod step;

/// One rank's checkpoint-aware handle to the simulated MPI library.
pub struct CcRank<'s> {
    core: RankCore<'s>,
    /// The engine machine of the operation in flight, kept between polls
    /// (the `poll_*` call protocol of [`step`]); `None` between operations.
    /// Apart from [`RankCore`] so a machine can be polled in place: it
    /// works on the whole rest of the rank.
    op: Option<Op>,
}

/// Everything of a rank but its operation in flight: the state the
/// engine's machines read and write, and the straight-line helpers they
/// call.
struct RankCore<'s> {
    ctx: Ctx,
    /// The session, borrowed for the rank's whole life: every wrapper
    /// call reads it, so holding (let alone cloning) a counted handle per
    /// rank would put a world-shared reference count on the hot path.
    sh: &'s Session,
    rank: usize,
    vcomms: VCommTable,
    vreqs: VReqTable,
    counters: CallCounters,
    /// 2PC: the live lower-half request of the trivial barrier in flight
    /// (phase 3 of the gate), kept outside [`VReqTable`] (the app never
    /// sees it) so a capture can park around it, a restart can re-issue
    /// it, and a continue-resume can keep polling it.
    tb_req: Option<Request>,
    /// 2PC: ordinal of the next trivial barrier this rank posts (capture
    /// metadata: identifies *which* entry the rank was parked at).
    tb_ordinal: u64,
    /// 2PC: the trivial barrier `(vcomm, ordinal)` this rank is parked
    /// inside, for its capture; `None` outside such a park.
    pending_barrier: Option<(u64, u64)>,
    /// Wall-clock microseconds slept per [`CcRank::compute`] call (0 =
    /// none). Virtual time is unaffected; see [`CcRank::set_wall_pace_us`].
    wall_pace_us: u64,
    /// The park a rank restored from an image was captured in. The first
    /// operation its body polls is the one it was parked inside, so that
    /// machine takes this and starts past its entry effects (call
    /// counters, wrapper charge, a posted trivial barrier), which the
    /// image already holds.
    resume: Option<RankState>,
    /// A capture park whose capture is published but whose state is not
    /// yet: the body's snapshot joins the capture first, on the yield the
    /// park returns ([`CcRank::complete_park`]).
    parking: Option<RankState>,
}

impl<'s> CcRank<'s> {
    /// Creates the wrapper for `rank` on the session's current world and
    /// registers `MPI_COMM_WORLD`'s group.
    pub fn new(sh: &'s Session, rank: usize) -> CcRank<'s> {
        let world = sh.current_world();
        let ctx = Ctx::new(world, rank);
        let mut core = RankCore {
            ctx,
            sh,
            rank,
            vcomms: VCommTable::new(),
            vreqs: VReqTable::new(),
            counters: CallCounters::default(),
            tb_req: None,
            tb_ordinal: 0,
            pending_barrier: None,
            wall_pace_us: 0,
            resume: None,
            parking: None,
        };
        let wcomm = core.ctx.comm_world();
        let ggid = ggid_of(wcomm.group());
        sh.control.ranks[rank]
            .seq_mirror
            .lock()
            .register_group(ggid, wcomm.group().sorted_members());
        core.vcomms.bind_world(wcomm, ggid);
        CcRank { core, op: None }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// This rank's world rank.
    pub fn rank(&self) -> usize {
        self.core.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.core.ctx.world_size()
    }

    /// Current virtual time.
    pub fn clock(&self) -> VTime {
        self.core.ctx.clock()
    }

    /// Advances the clock by `secs` of local computation and publishes the
    /// new clock, so trigger scheduling sees compute-bound progress too.
    /// Under a wall pace ([`CcRank::set_wall_pace_us`]) this additionally
    /// sleeps (a rank on the step pool sleeps on its pool worker, which
    /// only narrows that worker's throughput).
    pub fn compute(&mut self, secs: f64) {
        self.core.ctx.compute(secs);
        if self.core.wall_pace_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.core.wall_pace_us));
        }
        self.core.publish_clock();
    }

    /// Sets a wall-clock pace: every subsequent [`CcRank::compute`] call
    /// sleeps `us` microseconds of *host* time (virtual time unaffected).
    /// No trigger or fault needs it — the rank that completes a threshold
    /// raises the request itself — and it is kept only because the
    /// benchmark's `ckpt_cycle` workload still spells it; a test may use
    /// it to stretch a drain's wall time.
    pub fn set_wall_pace_us(&mut self, us: u64) {
        self.core.wall_pace_us = us;
    }

    /// `MPI_COMM_WORLD`'s virtual id.
    pub fn world_vcomm(&self) -> VComm {
        VCOMM_WORLD
    }

    /// The caller's rank in the given communicator.
    pub fn comm_rank(&self, vc: VComm) -> usize {
        self.core.vcomms.resolve(vc).0.rank()
    }

    /// Number of members of the given communicator.
    pub fn comm_size(&self, vc: VComm) -> usize {
        self.core.vcomms.resolve(vc).0.size()
    }

    /// Interposition counters so far.
    pub fn counters(&self) -> CallCounters {
        self.core.counters
    }

    /// The coordination protocol in force.
    pub fn protocol(&self) -> Protocol {
        self.core.sh.protocol
    }

    /// The lower half the rank runs on, read-only: what the MPI library
    /// itself has begun ([`Ctx::collectives_begun`]), for a witness that
    /// must not take the wrapper's `SEQ[]` for what ran.
    pub fn lower_half(&self) -> &Ctx {
        &self.core.ctx
    }
}

impl RankCore<'_> {
    // ------------------------------------------------------------------
    // Control-plane servicing
    // ------------------------------------------------------------------

    /// Publishes the rank's virtual clock and collective-call total: the
    /// crossing that completes the armed trigger raises the request here,
    /// and the one that completes the planned fault's time strikes it.
    fn publish_clock(&self) {
        let clock_ns = (self.ctx.clock().as_secs() * 1e9) as u64;
        let control = &self.sh.control;
        if control.publish_progress(self.rank, clock_ns, self.counters.coll_total()) {
            self.sh.strike_if_due();
        }
    }

    /// Entry of every wrapper call but `MPI_Test`: ends a failed test's hold.
    fn enter_call(&self) {
        self.sh.control.ranks[self.rank].clear_failed_test();
    }

    /// Cheap per-interposition servicing: publish the clock and, once a
    /// pending checkpoint's targets are installed, the verdict on them.
    fn service_control(&self) {
        self.publish_clock();
        let control = &self.sh.control;
        if control.is_pending() && control.targets_ready() {
            control.publish_met(self.rank);
        }
    }

    /// Raises `TARGET[ggid]` to `seq` if that passes it (Algorithm 2),
    /// waking the group's other members, then publishes the verdict.
    fn raise_and_publish(&self, ggid: Ggid, seq: u64) {
        let sh = self.sh;
        if let Some(members) = sh.control.raise_target(self.rank, ggid, seq) {
            sh.trace
                .push(DrainEvent::TargetRaised(self.rank, ggid, seq, members));
        }
        sh.control.publish_met(self.rank);
    }

    // ------------------------------------------------------------------
    // Capture and restore (called from the quiesce machine)
    // ------------------------------------------------------------------

    /// Publishes this rank's runtime capture, recording the park state it
    /// is being captured in and the body's snapshot, if any, and beside it
    /// the vcomm → lower-half map the coordinator translates drained
    /// messages by.
    fn publish_capture(&self, state: RankState, body: Option<Vec<u8>>) {
        let ctl = &self.sh.control.ranks[self.rank];
        *ctl.lower_comms.lock() = self.vcomms.lower_map();
        *ctl.capture_slot.lock() = Some(self.build_capture(state, body));
    }

    /// The upper half beside a body snapshot: the request table's state.
    fn upper_half(&self, body: Vec<u8>) -> UpperHalf {
        UpperHalf {
            body,
            next_vreq: self.vreqs.next_id(),
            ready: self.vreqs.ready_results(),
            sends: self.vreqs.held_sends(),
        }
    }

    fn build_capture(&self, state: RankState, body: Option<Vec<u8>>) -> RuntimeCapture {
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
            pending_barrier: self.pending_barrier,
            counters: self.counters,
            p2p_sent,
            p2p_delivered,
            vcomm_members: self.vcomms.members_map(),
            upper: body.map(|b| self.upper_half(b)),
        }
    }

    /// The one installer of a capture into a lower half, for a restore and
    /// a restart alike: attaches `world`, rebinds every communicator of the
    /// creation log from its member list in `cap.vcomm_members` (no
    /// creation collectives, which could hang on finished members),
    /// re-posts the pending receives under their request ids, re-issues a
    /// pending trivial barrier, and puts `msgs` — the drained messages to
    /// this rank, sent before anything of the new generation — at the
    /// front of its mailbox, unless the rank was captured finished.
    fn install(&mut self, world: Arc<World>, cap: &RuntimeCapture, msgs: &[SavedMsg]) {
        self.ctx.attach_world(Arc::clone(&world));
        // Every group's ggid is in the rank's `SEQ[]` table, under its
        // sorted member list — usually the very allocation the rebuilt
        // group sorts to, so a lookup by address spares rehashing a list
        // per communicator.
        let known: HashMap<usize, Ggid> = (self.sh.control.ranks[self.rank].seq_mirror.lock())
            .iter()
            .map(|(g, e)| (Arc::as_ptr(&e.members) as *const usize as usize, *g))
            .collect();
        let ggid_of_comm = |c: &Comm| {
            let sorted = c.group().sorted_members();
            let at = Arc::as_ptr(&sorted) as *const usize as usize;
            known
                .get(&at)
                .copied()
                .unwrap_or_else(|| ggid_of(c.group()))
        };
        self.vcomms.invalidate_lower();
        let wcomm = self.ctx.comm_world();
        self.vcomms
            .bind_world(wcomm.clone(), ggid_of(wcomm.group()));
        // Per-parent creation ordinals: every member of a parent logged the
        // same creation ops in the same order, so these agree globally and
        // members derive identical registry keys without communicating.
        // Rebuild keys live at the TOP of the seq space: later creations
        // derive their keys from `Ctx`'s per-comm collective ordinals,
        // which restart from zero, and must never collide with a rebuilt
        // communicator's key.
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
                let members = cap
                    .vcomm_members
                    .get(&v.0)
                    .expect("capture holds members of every live vcomm")
                    .clone();
                let parent_lower = self.vcomms.resolve(parent).0.id();
                let inner = world.restore_comm(
                    SplitKey {
                        parent: parent_lower,
                        seq,
                        color,
                    },
                    members,
                );
                let comm = Comm::for_world_rank(inner, self.rank);
                let ggid = ggid_of_comm(&comm);
                self.vcomms.rebind(v, comm, ggid);
            }
        }
        for p in &cap.pending_recvs {
            let vcomm = VComm(p.vcomm);
            let req = self.ctx.irecv(&self.vcomms.resolve(vcomm).0, p.src, p.tag);
            let kind = VReqKind::Recv {
                vcomm,
                src: p.src,
                tag: p.tag,
            };
            self.vreqs
                .put_back(VReq(p.vreq), VReqState::Active(req, kind));
        }
        // Members that had not yet initiated post theirs on reaching the
        // same entry; the per-communicator collective ordinals of the
        // fresh lower half line both posts up on one instance.
        if let Some((vc, _)) = cap.pending_barrier {
            self.tb_req = Some(self.ctx.ibarrier(&self.vcomms.resolve(VComm(vc)).0));
        }
        if cap.state != RankState::Finished {
            let vcomms = &self.vcomms;
            let front = (msgs.iter())
                .map(|m| rebuild_msg(m, vcomms.resolve(VComm(m.vcomm)).0.id(), VTime::ZERO))
                .collect();
            world.redeposit_front(self.rank, front);
        }
    }
}

impl CcRank<'_> {
    /// Runner hook: publishes the final capture, with the finished body's
    /// snapshot, and the `Finished` state.
    pub(crate) fn finish(&mut self, body: Option<Vec<u8>>) {
        let core = &self.core;
        core.publish_capture(RankState::Finished, body);
        core.publish_clock();
        if core.sh.control.publish_finished(core.rank) {
            core.sh.strike_if_due();
        }
    }

    /// Completes a capture park the last poll began: the body's snapshot
    /// (`body`, asked for only here) joins the published capture, then the
    /// park state is published — which is what lets the coordinator take
    /// the capture. Every yield and every blocking sleep passes here, so
    /// a park is never left half-published; a yield that parks for no
    /// capture costs one check.
    pub(crate) fn complete_park(&mut self, body: impl FnOnce() -> Option<Vec<u8>>) {
        let Some(state) = self.core.parking.take() else {
            return;
        };
        let core = &self.core;
        let ctl = &core.sh.control.ranks[core.rank];
        if let Some(b) = body() {
            let upper = core.upper_half(b);
            if let Some(c) = ctl.capture_slot.lock().as_mut() {
                c.upper = Some(upper);
            }
        }
        ctl.set_state(state);
        core.sh.trace.push(DrainEvent::Quiesced(core.rank));
    }

    /// Restore elsewhere: adopts the upper half of `cap` — the image's
    /// capture of this rank, with its upper half `upper` — in this freshly
    /// built rank (sequence table, creation log, counters, clock, request
    /// table), installs the capture into the restored world with `msgs`,
    /// the drained messages addressed to the rank, and charges the image
    /// read-back (`read_ns`). A rank captured parked resumes inside the
    /// operation it parked in when its body re-polls it.
    pub(crate) fn resume_from(
        &mut self,
        cap: &RuntimeCapture,
        upper: &UpperHalf,
        msgs: &[SavedMsg],
        read_ns: u64,
    ) {
        let core = &mut self.core;
        *core.sh.control.ranks[core.rank].seq_mirror.lock() = cap.seq_table.clone();
        core.vcomms.restore_log(cap.comm_log.clone());
        core.counters = cap.counters;
        core.tb_ordinal = cap.counters.trivial_barriers;
        core.ctx.set_clock(cap.clock);
        let vreqs = &mut core.vreqs;
        vreqs.set_next_id(upper.next_vreq);
        for (v, data) in &upper.ready {
            let data = data.clone();
            vreqs.put_back(
                VReq(*v),
                VReqState::Ready(Completion { status: None, data }),
            );
        }
        for &(v, at) in &upper.sends {
            vreqs.put_back(
                VReq(v),
                VReqState::Active(Request::send(at), VReqKind::Send),
            );
        }
        // The in-process restart's resume order: install, then the
        // read-back charge.
        let world = Arc::clone(core.ctx.world());
        core.install(world, cap, msgs);
        if read_ns > 0 {
            core.ctx.compute(read_ns as f64 * 1e-9);
        }
        core.publish_clock();
        core.resume = (cap.state != RankState::Finished).then_some(cap.state);
    }

    // ------------------------------------------------------------------
    // Blocking on the engine
    // ------------------------------------------------------------------

    /// Drives `poll` — a whole step body ([`CcRank::run`]) — to completion
    /// on the calling thread: poll it, re-poll at once after a
    /// [`WaitReason::Poll`] yield, and after an `Event` yield sleep on the
    /// rank's one event counter, which every wake, control-plane or
    /// lower-half, advances ([`mana_core::RankCtl::wake`]). The token is
    /// read *before* the poll, so an event landing between "the poll said
    /// `Pending`" and "the thread sleeps" ends the sleep at once; the sleep
    /// is announced on it for the stall rule. A sleep that ran out its
    /// backstop lost a wake only if the poll after it, with no wake since,
    /// goes on — finishes, polls again, or moves the rank's clock, call
    /// counters or published state: a rank that waits out a peer's long
    /// body sleep lost nothing. A world whose ranks block here never dies:
    /// fault campaigns run on the worker pool, where a death retires the
    /// rank between steps.
    ///
    /// # Panics
    /// On the `Pending` path, if the rank is stepped by the worker pool:
    /// lower-half events reach such a rank through its driver, never
    /// through this counter, so the sleep would hold a pool worker until
    /// the backstop — and deadlock the pool once every worker did it.
    fn block_on<T>(&mut self, mut poll: impl FnMut(&mut Self) -> StepPoll<T>) -> T {
        let (control, rank) = (&self.core.sh.control, self.core.rank);
        let ctl = &control.ranks[rank];
        let moved = |r: &Self| (r.core.ctx.clock(), r.core.counters, ctl.state());
        // The token an expired sleep waited since, and the rank then.
        let mut expired = None;
        loop {
            let token = ctl.park.token();
            let polled = poll(self);
            // A park for capture taken inside `run` carries no snapshot:
            // only the rank's own body is its upper half.
            self.complete_park(|| None);
            if let Some((since, before)) = expired.take() {
                let waits = matches!(polled, StepPoll::Pending(WaitReason::Event));
                if since == token && (!waits || moved(self) != before) {
                    ctl.record_lost_wake();
                }
            }
            let why = match polled {
                StepPoll::Ready(t) => return t,
                StepPoll::Pending(why) => why,
            };
            assert!(
                !ctl.pool_driven(),
                "blocking call on a pool-driven rank: use `poll_*` or a closure entry point"
            );
            if why == WaitReason::Poll {
                continue;
            }
            control.publish_asleep(rank, token, false);
            if !ctl.wait_event_since(token) {
                expired = Some((token, moved(self)));
            }
        }
    }

    /// Runs a step body to completion on the calling thread: steps it,
    /// and whenever it yields for an event sleeps (`CcRank::block_on`)
    /// until one can have unblocked it. This is the one call of the rank
    /// that blocks: a closure on the thread-per-object driver runs its
    /// program through it, and it is all that driver does with the body
    /// it is handed.
    ///
    /// # Panics
    /// Panics if an operation is in flight (a `poll_*` call returned
    /// `Pending` and was not re-polled to `Ready`), naming it; and if the
    /// body yields on a pool-driven rank.
    pub fn run<B: StepBody>(&mut self, body: &mut B) -> B::Out {
        self.expect_op("run", false);
        self.block_on(|r| match body.step(r) {
            BodyStep::Done(out) => StepPoll::Ready(out),
            BodyStep::Yield(why) => StepPoll::Pending(why),
        })
    }

    /// One step of the rank's own body — the one its driver holds, whose
    /// snapshot is the upper half: a yield that parks for a capture
    /// publishes the park with that snapshot.
    pub(crate) fn step_body<B: StepBody>(&mut self, body: &mut B) -> BodyStep<B::Out> {
        let out = body.step(self);
        self.complete_park(|| snapshot(body));
        out
    }

    /// [`CcRank::run`] for the rank's own body on the thread-per-object
    /// driver: its capture parks carry the body's snapshot.
    pub(crate) fn run_own<B: StepBody>(&mut self, body: &mut B) -> B::Out {
        self.block_on(|r| match r.step_body(body) {
            BodyStep::Done(out) => StepPoll::Ready(out),
            BodyStep::Yield(why) => StepPoll::Pending(why),
        })
    }

    // ------------------------------------------------------------------
    // Point-to-point initiation (never waits)
    // ------------------------------------------------------------------

    /// `MPI_Isend`.
    pub fn isend(&mut self, vc: VComm, to: usize, tag: u32, payload: impl Into<Bytes>) -> VReq {
        self.expect_op("isend", false);
        let core = &mut self.core;
        core.enter_call();
        core.service_control();
        core.counters.p2p_sends += 1;
        let comm = &core.vcomms.resolve(vc).0;
        let req = core.ctx.isend(comm, to, tag, payload);
        core.vreqs.insert(req, VReqKind::Send)
    }

    /// `MPI_Irecv`.
    pub fn irecv(&mut self, vc: VComm, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> VReq {
        self.expect_op("irecv", false);
        let core = &mut self.core;
        core.enter_call();
        core.service_control();
        core.counters.p2p_recvs += 1;
        let src = src.into();
        let tag = tag.into();
        let comm = &core.vcomms.resolve(vc).0;
        let req = core.ctx.irecv(comm, src, tag);
        core.vreqs.insert(
            req,
            VReqKind::Recv {
                vcomm: vc,
                src,
                tag,
            },
        )
    }
}

/// A body's snapshot ([`StepBody::save`]), or `None` if it has none.
pub(crate) fn snapshot<B: StepBody + ?Sized>(body: &B) -> Option<Vec<u8>> {
    let mut w = Vec::new();
    body.save(&mut w).then_some(w)
}

impl std::fmt::Debug for CcRank<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CcRank")
            .field("rank", &self.core.rank)
            .field("clock", &self.core.ctx.clock())
            .field("op", &self.op.as_ref().map(Op::name))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_core::Protocol;
    use mpisim::WorldConfig;

    /// `run` is an entry point, not a resumption: a body handed to it while
    /// the rank still owes a `poll_*` operation its re-poll would start a
    /// second operation under the first.
    #[test]
    #[should_panic(expected = "rank resumed into `run` with a pending `wait` operation")]
    fn run_with_an_operation_in_flight_names_it() {
        let sh = Session::new(WorldConfig::single_node(2), Protocol::Cc, 0);
        let mut r = CcRank::new(&sh, 0);
        // Nobody ever sends: the wait stays in flight.
        let v = r.irecv(r.world_vcomm(), 1, 7u32);
        assert!(!r.poll_wait(v).is_ready());
        r.run(&mut |_: &mut CcRank| BodyStep::Done(()));
    }
}
