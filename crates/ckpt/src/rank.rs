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
//! [`RuntimeCapture`]. At restart the parked rank installs that capture,
//! with the drained in-flight messages addressed to it, into the next
//! lower half; restored elsewhere, a fresh rank adopts the upper half,
//! installs the image's capture the same way, and resumes at the captured
//! park (`CcRank::resume_from`).
//!
//! There is one rank type. That control flow lives in the poll machines
//! of [`step`], the one protocol engine, which also defines the `poll_*`
//! methods a body stepped by the pool ([`crate::StepBody`]) calls before
//! it yields; this file holds the rank's state, the straight-line helpers
//! the machines call, and the blocking methods a body that owns a thread
//! (a closure on the thread-per-object driver) calls: each builds its
//! operation's machine on the stack and blocks on it (`CcRank::block_on`)
//! — the same object, the same machines — and [`CcRank::run`] blocks on a
//! whole step body the same way.

use crate::bus::TargetUpdate;
use crate::coordinator::rebuild_msg;
use crate::runner::step::{BodyStep, StepBody};
use crate::session::Session;
use bytes::Bytes;
use mana_core::capture::PendingRecv;
use mana_core::{
    ggid_of, CallCounters, CommOp, DrainEvent, Ggid, Protocol, RankState, RuntimeCapture,
    TargetTable, UpperHalf, VComm, VCommTable, VReq, VReqKind, VReqState, VReqTable, VCOMM_WORLD,
};
use mpisim::collective::RedSpec;
use mpisim::comm::{create_color, SplitKey};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{
    CollOp, Comm, Completion, Ctx, DType, ReduceOp, Request, SavedMsg, SrcSel, Status, TagSel,
    VTime, World,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use step::{CollM, CommKind, CommM, ICollM, Op, StepPoll, TestM, WaitM};

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
            targets: TargetTable::new(),
            targets_epoch: None,
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

    /// Cheap per-interposition servicing: publish the clock, pick up
    /// targets and updates when a checkpoint is pending, clean up after a
    /// finished one.
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
        let updates = sh.bus.drain(self.rank);
        if updates.is_empty() {
            return;
        }
        for u in updates {
            let changed = self.targets.raise(u.ggid, u.target);
            sh.control.ranks[self.rank]
                .updates_recv
                .fetch_add(1, SeqCst);
            self.counters.drain_updates_recv += 1;
            sh.trace.push(DrainEvent::UpdateReceived(
                self.rank, u.ggid, u.target, changed,
            ));
        }
        sh.control.events.bump();
    }

    /// Publishes whether all local targets are met.
    fn publish_met(&mut self) {
        let sh = self.sh;
        let met = {
            let t = sh.control.ranks[self.rank].seq_mirror.lock();
            self.targets.reached_by(&t)
        };
        // A drain waits only for the turn to `true`.
        if !sh.control.ranks[self.rank].targets_met.swap(met, SeqCst) && met {
            sh.control.events.bump();
        }
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

    /// Drives `poll` — one engine machine, or a whole step body
    /// ([`CcRank::run`]) — to completion on the calling thread:
    /// poll it, and while it is `Pending` sleep on the rank's one event
    /// counter, which both the control plane ([`mana_core::RankCtl::wake`])
    /// and the lower half (mailbox activity, through the waker the
    /// launcher installs) advance. The token is read *before* the poll, so an
    /// event landing between "the poll said `Pending`" and "the thread
    /// sleeps" ends the sleep at once. This is also a thread's poison
    /// observation point: a killed world wakes every rank, and the rank
    /// unwinds here instead of polling a dead peer forever.
    ///
    /// # Panics
    /// On the `Pending` path, if the rank is stepped by the worker pool:
    /// lower-half events reach such a rank through its driver, never
    /// through this counter, so the sleep would hold a pool worker until
    /// the backstop — and deadlock the pool once every worker did it.
    pub(crate) fn block_on<T>(&mut self, mut poll: impl FnMut(&mut Self) -> StepPoll<T>) -> T {
        let ctl = &self.core.sh.control.ranks[self.core.rank];
        loop {
            let token = ctl.park.token();
            let polled = poll(self);
            // A park for capture taken inside a blocking call carries no
            // snapshot: the body is this thread's stack.
            self.complete_park(|| None);
            if let StepPoll::Ready(t) = polled {
                return t;
            }
            assert!(
                !ctl.pool_driven(),
                "blocking call on a pool-driven rank: use `poll_*` or a closure entry point"
            );
            // Before sleeping as well as after every wake: a kill whose
            // wake preceded the token would otherwise cost the backstop.
            let fail = self.core.ctx.world().fail_plane();
            fail.die_if_poisoned();
            ctl.wait_event_since(token);
            fail.die_if_poisoned();
        }
    }

    /// Runs a step body to completion on the calling thread: steps it,
    /// and whenever it yields sleeps (`CcRank::block_on`) until an event
    /// can have unblocked it. This is how a body that owns its thread —
    /// a closure on the thread-per-object driver — runs a [`StepBody`]
    /// program inline, between its own blocking calls, and it is all the
    /// thread-per-object driver does with the body it is handed.
    ///
    /// # Panics
    /// Panics if an operation is in flight (a `poll_*` call returned
    /// `Pending` and was not re-polled to `Ready`), naming it; and, like
    /// every blocking call, if the body yields on a pool-driven rank.
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
        let mut m = CollM::new(&mut self.core, vc, op, root, payload, red);
        self.block_on(|r| m.poll(&mut r.core))
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

    /// Non-blocking collective entry point. Blocks only while the gate
    /// does (a drain in progress); the operation itself is merely
    /// initiated.
    pub fn icollective(
        &mut self,
        vc: VComm,
        op: CollOp,
        root: usize,
        payload: Bytes,
        red: Option<RedSpec>,
    ) -> VReq {
        let mut m = ICollM::new(&mut self.core, vc, op, root, payload, red);
        self.block_on(|r| m.poll(&mut r.core))
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
        self.expect_op("isend", false);
        let core = &mut self.core;
        core.service_control();
        core.counters.p2p_sends += 1;
        let comm = &core.vcomms.resolve(vc).0;
        let req = core.ctx.isend(comm, to, tag, payload);
        core.vreqs.insert(req, VReqKind::Send)
    }

    /// `MPI_Send`.
    pub fn send(&mut self, vc: VComm, to: usize, tag: u32, payload: impl Into<Bytes>) {
        let v = self.isend(vc, to, tag, payload);
        self.wait(v);
    }

    /// `MPI_Irecv`.
    pub fn irecv(&mut self, vc: VComm, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> VReq {
        self.expect_op("irecv", false);
        let core = &mut self.core;
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
        let mut m = WaitM::new(&mut self.core, v);
        self.block_on(|r| m.poll(&mut r.core))
    }

    /// `MPI_Test`: non-blocking completion check (charges one poll), also
    /// cooperating with a quiesce in progress.
    pub fn test(&mut self, v: VReq) -> Option<Completion> {
        let mut m = TestM::new(&mut self.core, v);
        self.block_on(|r| m.poll(&mut r.core))
    }

    /// `MPI_Waitall`.
    pub fn waitall(&mut self, vs: &[VReq]) -> Vec<Completion> {
        vs.iter().map(|&v| self.wait(v)).collect()
    }

    // ------------------------------------------------------------------
    // Communicator management (collective on the parent — counted)
    // ------------------------------------------------------------------

    fn comm_op(&mut self, vc: VComm, kind: CommKind) -> Option<VComm> {
        let mut m = CommM::new(&mut self.core, vc, kind);
        self.block_on(|r| m.poll(&mut r.core))
    }

    /// `MPI_Comm_split`.
    pub fn comm_split(&mut self, vc: VComm, color: i64, key: i64) -> Option<VComm> {
        self.comm_op(vc, CommKind::Split { color, key })
    }

    /// `MPI_Comm_dup`.
    pub fn comm_dup(&mut self, vc: VComm) -> VComm {
        self.comm_op(vc, CommKind::Dup)
            .expect("dup always yields a communicator")
    }

    /// `MPI_Comm_create` with `members` as world ranks in group order.
    pub fn comm_create(&mut self, vc: VComm, members: Vec<usize>) -> Option<VComm> {
        self.comm_op(vc, CommKind::Create { members })
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
