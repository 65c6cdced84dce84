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
use crate::runner::step::{BodyStep, StepBody};
use crate::session::Session;
use bytes::Bytes;
use mana_core::capture::PendingRecv;
use mana_core::{
    ggid_of, CallCounters, CommOp, DrainEvent, Ggid, RankState, RuntimeCapture, TargetTable, VComm,
    VCommTable, VReq, VReqKind, VReqTable, VCOMM_WORLD,
};
use mpisim::collective::RedSpec;
use mpisim::comm::{create_color, SplitKey};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{
    CollOp, Comm, Completion, Ctx, DType, Group, ReduceOp, Request, SrcSel, Status, TagSel, VTime,
    World,
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
            wall_pace_us: 0,
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
    /// sleeps, with the scheduler run slot released for the duration (a
    /// rank on the step pool holds no run slot: it sleeps on its pool
    /// worker, which only narrows that worker's throughput).
    pub fn compute(&mut self, secs: f64) {
        self.core.ctx.compute(secs);
        if self.core.wall_pace_us > 0 {
            let us = self.core.wall_pace_us;
            self.core.ctx.blocked(|| {
                std::thread::sleep(std::time::Duration::from_micros(us));
            });
        }
        self.core.publish_clock();
    }

    /// Sets a wall-clock pace: every subsequent [`CcRank::compute`] call
    /// sleeps `us` microseconds of *host* time (virtual time unaffected,
    /// run slot released while sleeping). Harnesses use this so an
    /// asynchronous checkpoint trigger reliably catches the run mid-flight
    /// instead of racing a wall-fast completion.
    pub fn set_wall_pace_us(&mut self, us: u64) {
        self.core.wall_pace_us = us;
    }

    /// Sleeps `d` of wall-clock time with this rank's scheduler run slot
    /// released; virtual time is unaffected. Rank bodies must use this
    /// instead of `std::thread::sleep`: a plain sleep squats on one of
    /// the `workers` run slots, and on a small host two plainly-sleeping
    /// ranks can starve every other rank for the duration — skewing
    /// exactly the wall-clock interleavings (trigger windows, drain
    /// stalls) such pauses are meant to set up.
    pub fn wall_sleep(&self, d: std::time::Duration) {
        self.core.ctx.blocked(|| std::thread::sleep(d));
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
}

impl RankCore<'_> {
    // ------------------------------------------------------------------
    // Control-plane servicing
    // ------------------------------------------------------------------

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
}

impl CcRank<'_> {
    /// Runner hook: publishes the final capture and the `Finished` state.
    pub(crate) fn finish(&mut self) {
        let core = &self.core;
        let cap = core.build_capture(RankState::Finished);
        core.publish_clock();
        let ctl = &core.sh.control.ranks[core.rank];
        *ctl.capture_slot.lock() = Some(cap);
        ctl.targets_met.store(true, SeqCst);
        ctl.set_state(RankState::Finished);
    }

    // ------------------------------------------------------------------
    // Blocking on the engine
    // ------------------------------------------------------------------

    /// Drives `poll` — one engine machine, or a whole step body
    /// ([`CcRank::run`]) — to completion on the calling thread:
    /// poll it, and while it is `Pending` sleep
    /// — scheduler run slot released — on the rank's one event counter,
    /// which both the control plane ([`mana_core::RankCtl::wake`]) and the
    /// lower half (mailbox activity, through the waker the launcher
    /// installs) advance. The token is read *before* the poll, so an
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
            let token = ctl.event_token();
            if let StepPoll::Ready(t) = poll(self) {
                return t;
            }
            assert!(
                !ctl.pool_driven(),
                "blocking call on a pool-driven rank: use `poll_*` or a closure entry point"
            );
            // Before sleeping as well as after every wake: a kill whose
            // wake preceded the token would otherwise cost the backstop.
            let ctx = &self.core.ctx;
            ctx.world().fail_plane().die_if_poisoned();
            ctx.blocked(|| ctl.wait_event_since(token));
            ctx.world().fail_plane().die_if_poisoned();
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
        let sh = Session::new(WorldConfig::single_node(2), Protocol::Cc);
        let mut r = CcRank::new(&sh, 0);
        // Nobody ever sends: the wait stays in flight.
        let v = r.irecv(r.world_vcomm(), 1, 7u32);
        assert!(!r.poll_wait(v).is_ready());
        r.run(&mut |_: &mut CcRank| BodyStep::Done(()));
    }
}
