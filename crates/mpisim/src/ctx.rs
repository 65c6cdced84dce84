//! `Ctx`: one rank's handle to the simulated MPI library.
//!
//! A `Ctx` lives on its rank's thread and is the only way that rank talks
//! to the lower half. It owns the rank's virtual clock and its per-
//! communicator collective ordinals. All MPI-like calls are methods here;
//! the checkpointing layers (`mana-core`) interpose by wrapping these
//! methods, never by reaching into the lower half.

use crate::collective::{CollResult, RedSpec};
use crate::comm::{Comm, SplitKey};
use crate::dtype::{decode_f64, encode_f64, DType};
use crate::group::Group;
use crate::mailbox::MatchSpec;
use crate::msg::{InFlightMsg, Status};
use crate::reduce_op::ReduceOp;
use crate::request::{Completion, ReqKind, Request};
use crate::types::{CommId, SrcSel, Tag, TagSel, COMM_WORLD_ID};
use crate::world::World;
use bytes::Bytes;
use netmodel::{CollOp, VTime};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Backstop for the mailbox sleep of [`Ctx::wait`] and [`Ctx::waitany`].
/// *Every* rank of a large world can sit in a blocked receive or
/// collective at once, so the wait is event-driven — the activity token
/// taken before the completion attempt makes deposits and completions
/// race-proof — and the timeout only guards against a pathological lost
/// wakeup. It is deliberately long (a short re-check would turn thousands
/// of sleeping waiters into timed pollers) and every expiry is counted in
/// [`crate::sched::WakeupStats`]: a healthy run never pays it.
const RECV_PARK: Duration = Duration::from_secs(1);

/// One rank's connection to the simulated MPI world.
pub struct Ctx {
    world: Arc<World>,
    world_rank: usize,
    clock: VTime,
    /// Per-communicator collective ordinal (all ranks agree by MPI rules).
    comm_seqs: HashMap<CommId, u64>,
    /// Per-destination send sequence (non-overtaking bookkeeping).
    send_seqs: HashMap<usize, u64>,
    /// Messages this rank deposited into the current lower-half generation
    /// (drain-accounting; reset at [`Ctx::attach_world`]).
    p2p_sent: u64,
    /// Messages this rank completed receiving from the current generation
    /// (drain-accounting; reset at [`Ctx::attach_world`]).
    p2p_delivered: u64,
}

impl Ctx {
    /// Creates the context for `world_rank` on `world`.
    pub fn new(world: Arc<World>, world_rank: usize) -> Self {
        assert!(world_rank < world.n_ranks(), "rank out of range");
        Ctx {
            world,
            world_rank,
            clock: VTime::ZERO,
            comm_seqs: HashMap::new(),
            send_seqs: HashMap::new(),
            p2p_sent: 0,
            p2p_delivered: 0,
        }
    }

    // ------------------------------------------------------------------
    // Introspection & clock
    // ------------------------------------------------------------------

    /// This rank's world rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.world_rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.world.n_ranks()
    }

    /// The current virtual time of this rank.
    #[inline]
    pub fn clock(&self) -> VTime {
        self.clock
    }

    /// Advances the clock by `secs` of local computation.
    #[inline]
    pub fn compute(&mut self, secs: f64) {
        self.clock += secs;
    }

    /// Moves the clock forward to `t` (no-op if already past).
    #[inline]
    pub fn advance_to(&mut self, t: VTime) {
        self.clock.advance_to(t);
    }

    /// **Restore hook.** Overwrites the clock outright. Only the
    /// checkpoint engine may call this — when a rank is rebuilt from a
    /// checkpoint image, the image's captured clock is authoritative and
    /// replaces whatever the replay accumulated.
    #[inline]
    pub fn set_clock(&mut self, t: VTime) {
        self.clock = t;
    }

    /// The world this context is attached to.
    #[inline]
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// **Restart hook.** Attaches a fresh lower half. Per-generation state
    /// (collective ordinals, send sequences) is reset; the clock survives —
    /// the rank keeps existing, only its MPI library is replaced.
    pub fn attach_world(&mut self, world: Arc<World>) {
        assert_eq!(
            world.n_ranks(),
            self.world.n_ranks(),
            "restart must preserve the number of ranks"
        );
        self.world = world;
        self.comm_seqs.clear();
        self.send_seqs.clear();
        self.p2p_sent = 0;
        self.p2p_delivered = 0;
    }

    /// **Checkpoint hook.** This rank's p2p flow against the current
    /// lower-half generation: `(messages deposited, messages delivered)`.
    /// Together with [`World::p2p_accounting`] these close the drain-
    /// completeness identity the coordinator checks at every capture.
    #[inline]
    pub fn p2p_flow(&self) -> (u64, u64) {
        (self.p2p_sent, self.p2p_delivered)
    }

    /// Sleeps until this rank's mailbox sees activity after `token` was
    /// taken: a deposit, a collective completion (completion pokes every
    /// participant's mailbox) or the poison broadcast. A poisoned world
    /// wakes every mailbox and its peers may be dead, so the rank unwinds
    /// here instead of sleeping again. A sleep that outlasts the
    /// [`RECV_PARK`] backstop is counted.
    fn sleep_on_mailbox(&self, token: u64) {
        let world = &self.world;
        world.fail_plane().die_if_poisoned();
        if !world
            .mailbox(self.world_rank)
            .activity
            .wait_since(token, RECV_PARK)
        {
            world.sched.stats().record_backstop_expiry();
        }
    }

    fn check_epoch(&self, comm: &Comm) {
        assert_eq!(
            comm.epoch(),
            self.world.epoch,
            "stale communicator handle from lower-half generation {} used in generation {} \
             (handles must be re-created after restart)",
            comm.epoch(),
            self.world.epoch
        );
    }

    fn bump_comm_seq(&mut self, id: CommId) -> u64 {
        let seq = self.comm_seqs.entry(id).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// `MPI_COMM_WORLD` for this generation.
    pub fn comm_world(&self) -> Comm {
        Comm::for_world_rank(self.world.comm_inner(COMM_WORLD_ID), self.world_rank)
    }

    /// `MPI_Comm_split`: collective over `parent`. Ranks passing the same
    /// non-negative `color` land in the same new communicator, ordered by
    /// `(key, parent rank)`. A negative color (`MPI_UNDEFINED`) yields
    /// `None`.
    pub fn comm_split(&mut self, parent: &Comm, color: i64, key: i64) -> Option<Comm> {
        let (mut req, seq) = self.comm_split_begin(parent, color, key);
        let gathered = self.wait(&mut req).data;
        self.comm_split_finish(parent, seq, color, &gathered)
    }

    /// `MPI_Comm_dup`: duplicates `parent` (same group, fresh context id).
    pub fn comm_dup(&mut self, parent: &Comm) -> Comm {
        let (mut req, seq) = self.comm_dup_begin(parent);
        self.wait(&mut req);
        self.comm_dup_finish(parent, seq)
    }

    /// `MPI_Comm_create`: collective over `parent`; ranks inside `group`
    /// get the new communicator, others get `None`.
    pub fn comm_create(&mut self, parent: &Comm, group: &Group) -> Option<Comm> {
        let (mut req, seq) = self.comm_create_begin(parent);
        self.wait(&mut req);
        self.comm_create_finish(parent, seq, group)
    }

    /// `MPI_Comm_free`.
    pub fn comm_free(&mut self, comm: Comm) {
        self.check_epoch(&comm);
        self.world.free_comm(comm.id());
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// `MPI_Isend` (eager): deposits the message at the destination and
    /// completes locally after the injection overhead.
    pub fn isend(
        &mut self,
        comm: &Comm,
        to: usize,
        tag: Tag,
        payload: impl Into<Bytes>,
    ) -> Request {
        self.check_epoch(comm);
        let payload: Bytes = payload.into();
        let dst_world = comm.world_rank(to);
        let p = self.world.params();
        let send_done = self.clock.plus_secs(p.send_overhead);
        let arrival = send_done.plus_secs(
            p.alpha(self.world.topology(), self.world_rank, dst_world)
                + payload.len() as f64 * p.beta(self.world.topology(), self.world_rank, dst_world),
        );
        let seq = {
            let s = self.send_seqs.entry(dst_world).or_insert(0);
            let v = *s;
            *s += 1;
            v
        };
        self.world.mailbox(dst_world).deposit(InFlightMsg {
            src_world: self.world_rank,
            dst_world,
            comm: comm.id(),
            tag,
            payload,
            sent: send_done,
            arrival,
            seq,
        });
        self.p2p_sent += 1;
        self.clock = send_done;
        Request::send(send_done)
    }

    /// `MPI_Send` (blocking, eager semantics: returns once injected).
    pub fn send(&mut self, comm: &Comm, to: usize, tag: Tag, payload: impl Into<Bytes>) {
        let mut r = self.isend(comm, to, tag, payload);
        self.wait(&mut r);
    }

    /// `MPI_Irecv`: posts a receive. Matching happens at `test`/`wait`.
    pub fn irecv(
        &mut self,
        comm: &Comm,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> Request {
        self.check_epoch(comm);
        Request::recv(comm.clone(), src.into(), tag.into())
    }

    /// `MPI_Recv` (blocking): returns the payload and status.
    pub fn recv(
        &mut self,
        comm: &Comm,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> (Bytes, Status) {
        let mut r = self.irecv(comm, src, tag);
        let c = self.wait(&mut r);
        (c.data, c.status.expect("recv completion carries status"))
    }

    /// `MPI_Sendrecv`: posts both sides, then completes both (deadlock-free
    /// pairwise exchange).
    pub fn sendrecv(
        &mut self,
        comm: &Comm,
        to: usize,
        send_tag: Tag,
        payload: impl Into<Bytes>,
        from: impl Into<SrcSel>,
        recv_tag: impl Into<TagSel>,
    ) -> (Bytes, Status) {
        let mut s = self.isend(comm, to, send_tag, payload);
        let mut r = self.irecv(comm, from, recv_tag);
        self.wait(&mut s);
        let c = self.wait(&mut r);
        (c.data, c.status.expect("recv status"))
    }

    /// `MPI_Iprobe`: non-blocking check for a matching message. Charges one
    /// poll. Returns the status of the first match whose data has arrived
    /// by the current virtual time.
    pub fn iprobe(
        &mut self,
        comm: &Comm,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> Option<Status> {
        self.check_epoch(comm);
        self.clock += self.world.params().poll_overhead;
        let spec = MatchSpec {
            comm: comm.id(),
            group: comm.group(),
            src: src.into(),
            tag: tag.into(),
        };
        let (src_gr, tag, len, arrival) = self.world.mailbox(self.world_rank).peek_match(&spec)?;
        if arrival <= self.clock {
            Some(Status {
                source: src_gr,
                tag,
                len,
            })
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Request completion
    // ------------------------------------------------------------------

    /// `MPI_Wait`: blocks until the request completes; the request becomes
    /// `MPI_REQUEST_NULL`. One wait for sends, receives and collectives
    /// alike: attempt the completion ([`Ctx::try_complete`], which moves
    /// the clock exactly as a blocking wait would), and while it cannot
    /// complete sleep on this rank's mailbox activity token, which
    /// deposits, collective completions and the poison broadcast all
    /// advance. The token is read *before* the attempt, so an event racing
    /// it ends the sleep at once.
    pub fn wait(&mut self, req: &mut Request) -> Completion {
        loop {
            let token = self.world.mailbox(self.world_rank).activity.token();
            if let Some(c) = self.try_complete(req) {
                return c;
            }
            self.sleep_on_mailbox(token);
        }
    }

    /// `MPI_Test`: non-blocking completion check; charges one poll. On
    /// completion the request becomes `MPI_REQUEST_NULL`.
    pub fn test(&mut self, req: &mut Request) -> Option<Completion> {
        match &mut req.kind {
            None => Some(Completion::empty()),
            Some(ReqKind::Send { complete_at }) => {
                self.clock += self.world.params().poll_overhead;
                if *complete_at <= self.clock {
                    req.kind = None;
                    Some(Completion::empty())
                } else {
                    None
                }
            }
            Some(ReqKind::Recv {
                comm,
                src,
                tag,
                matched,
            }) => {
                self.clock += self.world.params().poll_overhead;
                if matched.is_none() {
                    let spec = MatchSpec {
                        comm: comm.id(),
                        group: comm.group(),
                        src: *src,
                        tag: *tag,
                    };
                    *matched = self.world.mailbox(self.world_rank).take_match(&spec);
                }
                let arrived = matches!(matched, Some(m) if m.arrival <= self.clock);
                if arrived {
                    let (comm, msg) = match req.kind.take() {
                        Some(ReqKind::Recv {
                            comm,
                            matched: Some(m),
                            ..
                        }) => (comm, m),
                        _ => unreachable!(),
                    };
                    Some(self.finish_recv(&comm, msg))
                } else {
                    None
                }
            }
            Some(ReqKind::Coll { inst, group_rank }) => {
                self.clock += self.world.params().poll_overhead;
                let done = match inst.exit_of(*group_rank) {
                    Some(exit) => exit <= self.clock,
                    None => false,
                };
                if done {
                    let (inst, group_rank) = match req.kind.take() {
                        Some(ReqKind::Coll { inst, group_rank }) => (inst, group_rank),
                        _ => unreachable!(),
                    };
                    let res = inst.try_take(group_rank).expect("checked complete");
                    Some(self.finish_coll(&inst.key, res))
                } else {
                    None
                }
            }
        }
    }

    /// **Checkpoint-engine hook.** Attempts to complete `req` like
    /// [`Ctx::wait`] would, but returns `None` instead of blocking when the
    /// operation cannot complete yet. Unlike [`Ctx::test`] it charges no
    /// poll overhead and (like `wait`) advances the clock to the
    /// operation's completion time, so a polling loop built on it produces
    /// the same virtual-time trajectory as a blocking wait — the property
    /// the checkpoint layer needs to interleave drain servicing with
    /// request completion without perturbing timing.
    pub fn try_complete(&mut self, req: &mut Request) -> Option<Completion> {
        match &mut req.kind {
            None => Some(Completion::empty()),
            Some(ReqKind::Send { complete_at }) => {
                let t = *complete_at;
                req.kind = None;
                self.clock.advance_to(t);
                Some(Completion::empty())
            }
            Some(ReqKind::Recv {
                comm,
                src,
                tag,
                matched,
            }) => {
                if matched.is_none() {
                    let spec = MatchSpec {
                        comm: comm.id(),
                        group: comm.group(),
                        src: *src,
                        tag: *tag,
                    };
                    *matched = self.world.mailbox(self.world_rank).take_match(&spec);
                }
                if matched.is_some() {
                    let (comm, msg) = match req.kind.take() {
                        Some(ReqKind::Recv {
                            comm,
                            matched: Some(m),
                            ..
                        }) => (comm, m),
                        _ => unreachable!(),
                    };
                    Some(self.finish_recv(&comm, msg))
                } else {
                    None
                }
            }
            Some(ReqKind::Coll { inst, group_rank }) => {
                if inst.is_complete() {
                    let res = inst.try_take(*group_rank).expect("checked complete");
                    let (inst, _) = match req.kind.take() {
                        Some(ReqKind::Coll { inst, group_rank }) => (inst, group_rank),
                        _ => unreachable!(),
                    };
                    Some(self.finish_coll(&inst.key, res))
                } else {
                    None
                }
            }
        }
    }

    /// `MPI_Waitall`.
    pub fn waitall(&mut self, reqs: &mut [Request]) -> Vec<Completion> {
        reqs.iter_mut().map(|r| self.wait(r)).collect()
    }

    /// `MPI_Waitany`: blocks until one non-null request completes; returns
    /// its index. Returns `None` if every request is null. Each round
    /// tests every active request, charging its poll. A round that
    /// completes none sleeps on the mailbox token like [`Ctx::wait`] —
    /// unless some request already knows its completion time, in which
    /// case the next round's poll charges are the progress.
    pub fn waitany(&mut self, reqs: &mut [Request]) -> Option<(usize, Completion)> {
        if reqs.iter().all(Request::is_null) {
            return None;
        }
        loop {
            let token = self.world.mailbox(self.world_rank).activity.token();
            for (i, r) in reqs.iter_mut().enumerate() {
                if r.is_null() {
                    continue;
                }
                if let Some(c) = self.test(r) {
                    return Some((i, c));
                }
            }
            if !reqs.iter().any(Request::completion_known) {
                self.sleep_on_mailbox(token);
            }
        }
    }

    fn finish_recv(&mut self, comm: &Comm, msg: InFlightMsg) -> Completion {
        self.p2p_delivered += 1;
        self.clock.advance_to(msg.arrival);
        let source = comm
            .group()
            .group_rank_of_world(msg.src_world)
            .expect("matched message source is in group");
        Completion {
            status: Some(Status {
                source,
                tag: msg.tag,
                len: msg.payload.len(),
            }),
            data: msg.payload,
        }
    }

    fn finish_coll(&mut self, key: &(CommId, u64), res: CollResult) -> Completion {
        if res.last {
            self.world.coll.retire(*key);
        }
        self.clock.advance_to(res.exit);
        Completion {
            status: None,
            data: res.data,
        }
    }

    // ------------------------------------------------------------------
    // Blocking collectives
    // ------------------------------------------------------------------

    /// Blocking collective entry point (all specific calls route here).
    pub fn collective(
        &mut self,
        comm: &Comm,
        op: CollOp,
        root: usize,
        payload: Bytes,
        red: Option<RedSpec>,
    ) -> Bytes {
        let mut req = self.coll_begin(comm, op, root, payload, red);
        self.wait(&mut req).data
    }

    /// `MPI_Barrier`.
    pub fn barrier(&mut self, comm: &Comm) {
        let _ = self.collective(comm, CollOp::Barrier, 0, Bytes::new(), None);
    }

    /// `MPI_Bcast`: root supplies `data`; everyone receives it.
    pub fn bcast(&mut self, comm: &Comm, root: usize, data: Bytes) -> Bytes {
        self.collective(comm, CollOp::Bcast, root, data, None)
    }

    /// `MPI_Reduce` (root receives the combined payload, others empty).
    pub fn reduce(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Bytes,
        dtype: DType,
        op: ReduceOp,
    ) -> Bytes {
        self.collective(
            comm,
            CollOp::Reduce,
            root,
            data,
            Some(RedSpec { dtype, op }),
        )
    }

    /// `MPI_Allreduce`.
    pub fn allreduce(&mut self, comm: &Comm, data: Bytes, dtype: DType, op: ReduceOp) -> Bytes {
        self.collective(
            comm,
            CollOp::Allreduce,
            0,
            data,
            Some(RedSpec { dtype, op }),
        )
    }

    /// `MPI_Allreduce` on `f64` slices (convenience).
    pub fn allreduce_f64(&mut self, comm: &Comm, data: &[f64], op: ReduceOp) -> Vec<f64> {
        decode_f64(&self.allreduce(comm, encode_f64(data), DType::F64, op))
    }

    /// `MPI_Gather` (root receives concatenation in group order).
    pub fn gather(&mut self, comm: &Comm, root: usize, data: Bytes) -> Bytes {
        self.collective(comm, CollOp::Gather, root, data, None)
    }

    /// `MPI_Allgather`.
    pub fn allgather(&mut self, comm: &Comm, data: Bytes) -> Bytes {
        self.collective(comm, CollOp::Allgather, 0, data, None)
    }

    /// `MPI_Alltoall`: `data` is `size()` equal blocks; block `j` goes to
    /// rank `j`. Returns the blocks received from each rank, concatenated.
    ///
    /// # Panics
    /// Panics if `data` does not divide into `size()` equal blocks.
    pub fn alltoall(&mut self, comm: &Comm, data: Bytes) -> Bytes {
        assert!(
            data.len().is_multiple_of(comm.size()),
            "alltoall payload must be comm.size() equal blocks"
        );
        self.collective(comm, CollOp::Alltoall, 0, data, None)
    }

    /// `MPI_Scatter` (root supplies `size()` blocks).
    pub fn scatter(&mut self, comm: &Comm, root: usize, data: Bytes) -> Bytes {
        if comm.rank() == root {
            assert!(
                data.len().is_multiple_of(comm.size()),
                "scatter payload must be comm.size() equal blocks"
            );
        }
        self.collective(comm, CollOp::Scatter, root, data, None)
    }

    /// `MPI_Scan` (inclusive prefix reduction).
    pub fn scan(&mut self, comm: &Comm, data: Bytes, dtype: DType, op: ReduceOp) -> Bytes {
        self.collective(comm, CollOp::Scan, 0, data, Some(RedSpec { dtype, op }))
    }

    /// `MPI_Reduce_scatter_block`.
    pub fn reduce_scatter(
        &mut self,
        comm: &Comm,
        data: Bytes,
        dtype: DType,
        op: ReduceOp,
    ) -> Bytes {
        assert!(
            data.len().is_multiple_of(comm.size()),
            "reduce_scatter payload must be comm.size() equal blocks"
        );
        self.collective(
            comm,
            CollOp::ReduceScatter,
            0,
            data,
            Some(RedSpec { dtype, op }),
        )
    }

    // ------------------------------------------------------------------
    // Non-blocking collectives
    // ------------------------------------------------------------------

    /// Non-blocking collective entry point: initiates the operation and
    /// returns a request. Once every participant has initiated, the
    /// operation progresses independently (MPI Example 6.36) and completes
    /// at its modelled time.
    pub fn icollective(
        &mut self,
        comm: &Comm,
        op: CollOp,
        root: usize,
        payload: Bytes,
        red: Option<RedSpec>,
    ) -> Request {
        self.check_epoch(comm);
        let seq = self.bump_comm_seq(comm.id());
        // Initiation cost: posting the operation.
        self.clock += self.world.params().send_overhead;
        self.begin_collective(comm, seq, op, root, payload, red)
    }

    /// `MPI_Ibarrier`.
    pub fn ibarrier(&mut self, comm: &Comm) -> Request {
        self.icollective(comm, CollOp::Barrier, 0, Bytes::new(), None)
    }

    /// `MPI_Ibcast`.
    pub fn ibcast(&mut self, comm: &Comm, root: usize, data: Bytes) -> Request {
        self.icollective(comm, CollOp::Bcast, root, data, None)
    }

    /// `MPI_Iallreduce`.
    pub fn iallreduce(&mut self, comm: &Comm, data: Bytes, dtype: DType, op: ReduceOp) -> Request {
        self.icollective(
            comm,
            CollOp::Allreduce,
            0,
            data,
            Some(RedSpec { dtype, op }),
        )
    }

    /// `MPI_Ialltoall`.
    pub fn ialltoall(&mut self, comm: &Comm, data: Bytes) -> Request {
        assert!(
            data.len().is_multiple_of(comm.size()),
            "ialltoall payload must be comm.size() equal blocks"
        );
        self.icollective(comm, CollOp::Alltoall, 0, data, None)
    }

    /// `MPI_Iallgather`.
    pub fn iallgather(&mut self, comm: &Comm, data: Bytes) -> Request {
        self.icollective(comm, CollOp::Allgather, 0, data, None)
    }

    // ------------------------------------------------------------------
    // Poll-driven decompositions
    // ------------------------------------------------------------------
    //
    // Poll-driven halves of the blocking calls above, for the checkpoint
    // layer's protocol engine: it cannot sit in [`Ctx::wait`] — a rank on
    // the step pool has no thread to block, and a rank on its own thread
    // must keep observing the control plane while it waits — so it
    // *begins* the operation here (entering the instance exactly like the
    // blocking path — no initiation charge, unlike `icollective`) and
    // then drives the returned request with [`Ctx::try_complete`], the
    // same completion `wait` loops on. Both forms therefore produce
    // bit-identical virtual-time trajectories.

    fn begin_collective(
        &mut self,
        comm: &Comm,
        seq: u64,
        op: CollOp,
        root: usize,
        payload: Bytes,
        red: Option<RedSpec>,
    ) -> Request {
        let inst = self.world.coll.get_or_create(
            (comm.id(), seq),
            op,
            root,
            red,
            comm.group(),
            || self.world.alloc_instance(),
            || self.world.instance_env(comm.group()),
        );
        inst.enter(comm.rank(), self.clock, payload, op, root, red);
        Request::coll(inst, comm.rank())
    }

    /// Begins a *blocking-semantics* collective without blocking: enters
    /// the instance at the current clock (no initiation charge) and
    /// returns the request to poll with [`Ctx::try_complete`]. The
    /// poll-driven counterpart of [`Ctx::collective`].
    pub fn coll_begin(
        &mut self,
        comm: &Comm,
        op: CollOp,
        root: usize,
        payload: Bytes,
        red: Option<RedSpec>,
    ) -> Request {
        self.check_epoch(comm);
        let seq = self.bump_comm_seq(comm.id());
        self.begin_collective(comm, seq, op, root, payload, red)
    }

    /// Begins the allgather phase of `MPI_Comm_split` (poll-driven half of
    /// [`Ctx::comm_split`]). Returns the request and the parent-comm
    /// ordinal the split will be registered under; pass both, plus the
    /// gathered payload from [`Ctx::try_complete`], to
    /// [`Ctx::comm_split_finish`].
    pub fn comm_split_begin(&mut self, parent: &Comm, color: i64, key: i64) -> (Request, u64) {
        self.check_epoch(parent);
        let seq = self.bump_comm_seq(parent.id());
        // Allgather (color, key) over the parent — this is both the data
        // plane of the split and its (realistic) timing cost.
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&color.to_le_bytes());
        payload.extend_from_slice(&key.to_le_bytes());
        let req = self.begin_collective(
            parent,
            seq,
            CollOp::Allgather,
            0,
            Bytes::from(payload),
            None,
        );
        (req, seq)
    }

    /// Builds the split communicator from the gathered `(color, key)`
    /// pairs. Shared by the blocking [`Ctx::comm_split`] and the
    /// poll-driven begin/finish pair — the decode is the same either way.
    pub fn comm_split_finish(
        &mut self,
        parent: &Comm,
        seq: u64,
        color: i64,
        gathered: &Bytes,
    ) -> Option<Comm> {
        if color < 0 {
            return None;
        }
        // Decode all (color, key) pairs and build my color's member list.
        let mut members: Vec<(i64, usize)> = Vec::new(); // (key, parent rank)
        for (gr, chunk) in gathered.chunks_exact(16).enumerate() {
            let c = i64::from_le_bytes(chunk[0..8].try_into().unwrap());
            let k = i64::from_le_bytes(chunk[8..16].try_into().unwrap());
            if c == color {
                members.push((k, gr));
            }
        }
        members.sort();
        let group = Group::new(
            members
                .iter()
                .map(|&(_, gr)| parent.group().world_rank(gr))
                .collect(),
        );
        let inner = self.world.comm_for_split(
            SplitKey {
                parent: parent.id(),
                seq,
                color,
            },
            group,
        );
        Some(Comm::for_world_rank(inner, self.world_rank))
    }

    /// Begins the synchronization phase of `MPI_Comm_dup` (poll-driven half
    /// of [`Ctx::comm_dup`]). Complete the request with
    /// [`Ctx::try_complete`], then call [`Ctx::comm_dup_finish`].
    pub fn comm_dup_begin(&mut self, parent: &Comm) -> (Request, u64) {
        self.check_epoch(parent);
        let seq = self.bump_comm_seq(parent.id());
        // Synchronize (and charge) like a tiny allgather.
        let req = self.begin_collective(parent, seq, CollOp::Allgather, 0, Bytes::new(), None);
        (req, seq)
    }

    /// Builds the duplicate communicator once the dup synchronization
    /// completed. Shared by [`Ctx::comm_dup`] and the poll-driven pair.
    pub fn comm_dup_finish(&mut self, parent: &Comm, seq: u64) -> Comm {
        let inner = self.world.comm_for_split(
            SplitKey {
                parent: parent.id(),
                seq,
                color: i64::MIN, // reserved for dup
            },
            parent.group().clone(),
        );
        Comm::for_world_rank(inner, self.world_rank)
    }

    /// Begins the synchronization phase of `MPI_Comm_create` (poll-driven
    /// half of [`Ctx::comm_create`]): the same empty allgather a dup
    /// synchronizes on. Complete the request with [`Ctx::try_complete`],
    /// then call [`Ctx::comm_create_finish`].
    pub fn comm_create_begin(&mut self, parent: &Comm) -> (Request, u64) {
        self.comm_dup_begin(parent)
    }

    /// Builds the created communicator once the synchronization completed;
    /// `None` on ranks outside `group`. Shared by [`Ctx::comm_create`] and
    /// the poll-driven pair.
    pub fn comm_create_finish(&mut self, parent: &Comm, seq: u64, group: &Group) -> Option<Comm> {
        if !group.contains_world(self.world_rank) {
            return None;
        }
        let inner = self.world.comm_for_split(
            SplitKey {
                parent: parent.id(),
                seq,
                color: crate::comm::create_color(group.members()),
            },
            group.clone(),
        );
        Some(Comm::for_world_rank(inner, self.world_rank))
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("rank", &self.world_rank)
            .field("clock", &self.clock)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{run_world, WorldConfig};
    use netmodel::NetParams;

    fn cfg(n: usize) -> WorldConfig {
        WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
    }

    #[test]
    fn p2p_ping() {
        run_world(cfg(2), |ctx| {
            let w = ctx.comm_world();
            if ctx.rank() == 0 {
                ctx.send(&w, 1, 7, Bytes::from_static(b"ping"));
            } else {
                let (data, st) = ctx.recv(&w, 0, 7);
                assert_eq!(data.as_ref(), b"ping");
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 7);
                assert!(ctx.clock() > VTime::ZERO, "recv must advance vtime");
            }
        });
    }

    #[test]
    fn p2p_nonovertaking_same_tag() {
        run_world(cfg(2), |ctx| {
            let w = ctx.comm_world();
            if ctx.rank() == 0 {
                for i in 0..10u8 {
                    ctx.send(&w, 1, 3, Bytes::from(vec![i]));
                }
            } else {
                for i in 0..10u8 {
                    let (data, _) = ctx.recv(&w, 0, 3);
                    assert_eq!(data[0], i, "messages must not overtake");
                }
            }
        });
    }

    #[test]
    fn any_source_any_tag() {
        run_world(cfg(3), |ctx| {
            let w = ctx.comm_world();
            if ctx.rank() == 0 {
                let mut seen = [false; 2];
                for _ in 0..2 {
                    let (_, st) = ctx.recv(&w, SrcSel::Any, TagSel::Any);
                    seen[st.source - 1] = true;
                }
                assert!(seen[0] && seen[1]);
            } else {
                ctx.send(&w, 0, ctx.rank() as Tag, Bytes::from_static(b"x"));
            }
        });
    }

    #[test]
    fn sendrecv_exchange() {
        run_world(cfg(2), |ctx| {
            let w = ctx.comm_world();
            let me = ctx.rank();
            let peer = 1 - me;
            let (data, _) = ctx.sendrecv(&w, peer, 1, Bytes::from(vec![me as u8]), peer, 1);
            assert_eq!(data[0], peer as u8);
        });
    }

    #[test]
    fn iprobe_sees_arrivals() {
        run_world(cfg(2), |ctx| {
            let w = ctx.comm_world();
            if ctx.rank() == 0 {
                ctx.send(&w, 1, 9, Bytes::from_static(b"abc"));
            } else {
                // Poll until the message is visible.
                let st = loop {
                    if let Some(st) = ctx.iprobe(&w, SrcSel::Any, TagSel::Any) {
                        break st;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(st.tag, 9);
                assert_eq!(st.len, 3);
                // Probe does not consume.
                let (data, _) = ctx.recv(&w, 0, 9);
                assert_eq!(data.as_ref(), b"abc");
            }
        });
    }

    #[test]
    fn blocking_collectives_data() {
        run_world(cfg(4), |ctx| {
            let w = ctx.comm_world();
            let me = ctx.rank();
            // Bcast.
            let data = if me == 2 {
                Bytes::from_static(b"hello")
            } else {
                Bytes::new()
            };
            let out = ctx.bcast(&w, 2, data);
            assert_eq!(out.as_ref(), b"hello");
            // Allreduce.
            let s = ctx.allreduce_f64(&w, &[me as f64], ReduceOp::Sum);
            assert_eq!(s, vec![6.0]);
            // Alltoall: rank r sends byte r*4+j to rank j.
            let payload: Vec<u8> = (0..4).map(|j| (me * 4 + j) as u8).collect();
            let got = ctx.alltoall(&w, Bytes::from(payload));
            let expect: Vec<u8> = (0..4).map(|r| (r * 4 + me) as u8).collect();
            assert_eq!(got.as_ref(), &expect[..]);
            // Barrier synchronizes clocks upward.
            let before = ctx.clock();
            ctx.barrier(&w);
            assert!(ctx.clock() >= before);
        });
    }

    #[test]
    fn nonblocking_collective_overlap() {
        let rep = run_world(cfg(4), |ctx| {
            let w = ctx.comm_world();
            let mut req = ctx.iallreduce(&w, encode_f64(&[1.0]), DType::F64, ReduceOp::Sum);
            // Overlapped computation.
            ctx.compute(100e-6);
            let c = ctx.wait(&mut req);
            assert_eq!(decode_f64(&c.data), vec![4.0]);
            assert!(req.is_null());
            ctx.clock()
        });
        // With overlap, total time should be close to the compute time, not
        // compute + full collective latency.
        for r in &rep.ranks {
            assert!(r.result.as_secs() < 150e-6, "overlap failed: {}", r.result);
        }
    }

    #[test]
    fn ibarrier_test_loop() {
        // The 2PC "trivial barrier" pattern: Ibarrier + Test loop.
        run_world(cfg(3), |ctx| {
            let w = ctx.comm_world();
            let mut req = ctx.ibarrier(&w);
            while ctx.test(&mut req).is_none() {
                std::thread::yield_now();
            }
            assert!(req.is_null());
        });
    }

    #[test]
    fn comm_split_even_odd() {
        run_world(cfg(6), |ctx| {
            let w = ctx.comm_world();
            let me = ctx.rank();
            let sub = ctx
                .comm_split(&w, (me % 2) as i64, me as i64)
                .expect("color >= 0");
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), me / 2);
            // Sum within my parity class.
            let s = ctx.allreduce_f64(&sub, &[me as f64], ReduceOp::Sum);
            let expect = if me % 2 == 0 {
                0.0 + 2.0 + 4.0
            } else {
                1.0 + 3.0 + 5.0
            };
            assert_eq!(s, vec![expect]);
        });
    }

    #[test]
    fn comm_split_undefined_color() {
        run_world(cfg(4), |ctx| {
            let w = ctx.comm_world();
            let color = if ctx.rank() == 0 { -1 } else { 0 };
            let sub = ctx.comm_split(&w, color, 0);
            if ctx.rank() == 0 {
                assert!(sub.is_none());
            } else {
                assert_eq!(sub.unwrap().size(), 3);
            }
        });
    }

    #[test]
    fn comm_dup_independent_context() {
        run_world(cfg(2), |ctx| {
            let w = ctx.comm_world();
            let d = ctx.comm_dup(&w);
            assert_ne!(d.id(), w.id());
            assert!(d.group().identical(w.group()));
            // Message sent on dup must not match a recv on world.
            if ctx.rank() == 0 {
                ctx.send(&d, 1, 5, Bytes::from_static(b"dup"));
                ctx.send(&w, 1, 5, Bytes::from_static(b"world"));
            } else {
                let (data, _) = ctx.recv(&w, 0, 5);
                assert_eq!(data.as_ref(), b"world");
                let (data, _) = ctx.recv(&d, 0, 5);
                assert_eq!(data.as_ref(), b"dup");
            }
        });
    }

    #[test]
    fn comm_create_subset() {
        run_world(cfg(4), |ctx| {
            let w = ctx.comm_world();
            let g = Group::new(vec![1, 3]);
            let sub = ctx.comm_create(&w, &g);
            match ctx.rank() {
                1 | 3 => {
                    let c = sub.unwrap();
                    assert_eq!(c.size(), 2);
                    let s = ctx.allreduce_f64(&c, &[1.0], ReduceOp::Sum);
                    assert_eq!(s, vec![2.0]);
                }
                _ => assert!(sub.is_none()),
            }
        });
    }

    #[test]
    fn waitall_and_waitany() {
        run_world(cfg(2), |ctx| {
            let w = ctx.comm_world();
            if ctx.rank() == 0 {
                let mut reqs = vec![
                    ctx.isend(&w, 1, 1, Bytes::from_static(b"a")),
                    ctx.isend(&w, 1, 2, Bytes::from_static(b"b")),
                ];
                let cs = ctx.waitall(&mut reqs);
                assert_eq!(cs.len(), 2);
                assert!(reqs.iter().all(Request::is_null));
            } else {
                let mut reqs = vec![ctx.irecv(&w, 0, 1), ctx.irecv(&w, 0, 2)];
                let mut seen = 0;
                while let Some((i, c)) = ctx.waitany(&mut reqs) {
                    assert!(!c.data.is_empty());
                    assert!(reqs[i].is_null());
                    seen += 1;
                    if seen == 2 {
                        break;
                    }
                }
                assert_eq!(seen, 2);
            }
        });
    }

    #[test]
    fn waitany_sleeps_until_a_deposit() {
        // Rank 1's only request waits on a send that rank 0 makes after a
        // wall pause: waitany sleeps on the mailbox token and the deposit
        // ends the sleep, not the backstop.
        let rep = run_world(cfg(2), |ctx| {
            let w = ctx.comm_world();
            if ctx.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                ctx.send(&w, 1, 4, Bytes::from_static(b"late"));
            } else {
                let mut reqs = vec![ctx.irecv(&w, 0, 4)];
                let (i, c) = ctx.waitany(&mut reqs).expect("one active request");
                assert_eq!((i, c.data.as_ref()), (0, &b"late"[..]));
            }
            ctx.world().scheduler().stats().backstop_expiries()
        });
        assert!(rep.results().all(|&e| e == 0), "woken by the deposit");
    }

    #[test]
    fn collective_vtime_is_deterministic() {
        let run = || {
            run_world(cfg(8), |ctx| {
                let w = ctx.comm_world();
                for _ in 0..20 {
                    ctx.allreduce_f64(&w, &[1.0], ReduceOp::Sum);
                }
                ctx.clock()
            })
            .makespan
        };
        assert_eq!(run(), run(), "virtual time must be deterministic");
    }

    #[test]
    fn no_live_collectives_after_completion() {
        let w = std::sync::Arc::new(parking_lot::Mutex::new(None));
        let w2 = w.clone();
        run_world(cfg(4), move |ctx| {
            let world = ctx.world().clone();
            let c = ctx.comm_world();
            ctx.barrier(&c);
            ctx.allreduce_f64(&c, &[1.0], ReduceOp::Sum);
            *w2.lock() = Some(world);
        });
        let world = w.lock().take().unwrap();
        assert_eq!(world.live_collectives(), 0);
    }
}
