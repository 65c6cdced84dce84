//! `Ctx`: one rank's handle to the simulated MPI library.
//!
//! A `Ctx` is the only way a rank talks to the lower half. It owns the
//! rank's virtual clock and its per-communicator collective ordinals. Its
//! MPI face is poll-driven: a call begins an operation and returns a
//! [`Request`], which [`Ctx::test`] or [`Ctx::try_complete`] completes
//! without blocking. The checkpoint layer (`ckpt`) interposes by wrapping
//! these methods, never by reaching into the lower half. Only
//! [`Ctx::bcast`] and [`Ctx::allreduce_f64`] block, for bare `run_world`
//! ranks that own a thread.

use crate::collective::{CollInstance, CollResult, RedSpec};
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

/// Backstop for the mailbox sleep of [`Ctx::wait`], under the two
/// blocking collectives. *Every* rank of a large world can sit in one at
/// once, so the wait is event-driven — the activity token
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
    /// The collectives this rank entered and has not collected, with its
    /// group rank in each: whose node it may have to wake
    /// ([`Ctx::relay_node_wakes`]).
    entered: Vec<(Arc<CollInstance>, usize)>,
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
            entered: Vec::new(),
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
        self.entered.clear();
    }

    /// **Checkpoint hook.** This rank's p2p flow against the current
    /// lower-half generation: `(messages deposited, messages delivered)`.
    /// Together with [`World::p2p_accounting`] these close the drain-
    /// completeness identity the coordinator checks at every capture.
    #[inline]
    pub fn p2p_flow(&self) -> (u64, u64) {
        (self.p2p_sent, self.p2p_delivered)
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

    /// How many collectives this rank has begun on each communicator of
    /// its current lower-half generation — blocking, non-blocking and
    /// communicator creation alike; a restart ([`Ctx::attach_world`])
    /// starts them over. O(communicators), however long the run.
    pub fn collectives_begun(&self) -> impl Iterator<Item = (CommId, u64)> + '_ {
        self.comm_seqs.iter().map(|(&id, &n)| (id, n))
    }

    fn bump_comm_seq(&mut self, id: CommId) -> u64 {
        let seq = self.comm_seqs.entry(id).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    // ------------------------------------------------------------------
    // Communicators
    // ------------------------------------------------------------------

    /// `MPI_COMM_WORLD` for this generation.
    pub fn comm_world(&self) -> Comm {
        Comm::for_world_rank(self.world.comm_inner(COMM_WORLD_ID), self.world_rank)
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

    /// `MPI_Irecv`: posts a receive. Matching happens at `test` or
    /// `try_complete`.
    pub fn irecv(
        &mut self,
        comm: &Comm,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> Request {
        self.check_epoch(comm);
        Request::recv(comm.clone(), src.into(), tag.into())
    }

    // ------------------------------------------------------------------
    // Request completion
    // ------------------------------------------------------------------

    /// `MPI_Wait`, for the two blocking collectives below: attempts the
    /// completion ([`Ctx::try_complete`]) and, while it cannot complete,
    /// sleeps on this rank's mailbox activity token, which deposits and
    /// collective completions (they poke every participant's mailbox)
    /// advance. The token is read *before* the attempt, so an event racing
    /// it ends the sleep at once. A sleep that outlasts the [`RECV_PARK`]
    /// backstop is counted. No world that can die has a rank asleep here:
    /// fault campaigns drive their ranks on the worker pool.
    fn wait(&mut self, req: &mut Request) -> Completion {
        loop {
            let token = self.world.mailbox(self.world_rank).activity.token();
            self.relay_node_wakes();
            if let Some(c) = self.try_complete(req) {
                return c;
            }
            let mailbox = self.world.mailbox(self.world_rank);
            if !mailbox.activity.wait_since(token, RECV_PARK) {
                self.world.sched.stats().record_backstop_expiry();
            }
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
                    Some(self.finish_coll(&inst, res))
                } else {
                    None
                }
            }
        }
    }

    /// **Checkpoint-engine hook.** Completes `req` if it can complete now,
    /// and returns `None` otherwise. Unlike [`Ctx::test`] it charges no
    /// poll overhead and advances the clock to the operation's completion
    /// time, so a polling loop built on it produces the same virtual-time
    /// trajectory as a blocking wait — the property the checkpoint layer
    /// needs to interleave drain servicing with request completion
    /// without perturbing timing.
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
                    Some(self.finish_coll(&inst, res))
                } else {
                    None
                }
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

    fn finish_coll(&mut self, inst: &Arc<CollInstance>, res: CollResult) -> Completion {
        self.entered.retain(|(e, _)| !Arc::ptr_eq(e, inst));
        if res.last {
            self.world.coll.retire_handle(inst);
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
    //
    // The only two blocking calls: a bare `run_world` rank owns a thread
    // to block, and the benchmark's lower-half SCF loop runs on one. Each
    // is `coll_begin` and then `wait`, so it follows the virtual-time
    // trajectory of the poll face below.

    /// `MPI_Bcast`: root supplies `data`; everyone receives it.
    pub fn bcast(&mut self, comm: &Comm, root: usize, data: Bytes) -> Bytes {
        let mut req = self.coll_begin(comm, CollOp::Bcast, root, data, None);
        self.wait(&mut req).data
    }

    /// `MPI_Allreduce` on `f64` slices.
    pub fn allreduce_f64(&mut self, comm: &Comm, data: &[f64], op: ReduceOp) -> Vec<f64> {
        let red = Some(RedSpec {
            dtype: DType::F64,
            op,
        });
        let mut req = self.coll_begin(comm, CollOp::Allreduce, 0, encode_f64(data), red);
        decode_f64(&self.wait(&mut req).data)
    }

    // ------------------------------------------------------------------
    // Collectives and communicator creation, poll-driven
    // ------------------------------------------------------------------
    //
    // The face the checkpoint layer drives: a rank on the step pool has no
    // thread to block, and a rank on its own thread must keep observing
    // the control plane while it waits. So a call *begins* the operation
    // here and returns a request, which the caller drives with
    // [`Ctx::try_complete`] (or [`Ctx::test`]); communicator creation then
    // builds the new communicator in its `_finish` half.

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

    fn begin_collective(
        &mut self,
        comm: &Comm,
        seq: u64,
        op: CollOp,
        root: usize,
        payload: Bytes,
        red: Option<RedSpec>,
    ) -> Request {
        let inst = self.world.coll.get_or_create_on(
            (comm.id(), seq),
            self.world.topo.node_of(self.world_rank),
            op,
            root,
            red,
            comm.group(),
            || self.world.alloc_instance(),
            || self.world.coll_env(&comm.inner),
        );
        inst.enter(comm.rank(), self.clock, payload, op, root, red);
        self.entered.push((Arc::clone(&inst), comm.rank()));
        Request::coll(inst, comm.rank())
    }

    /// Wakes the node peers of every collective this rank entered that
    /// has completed, unless that was done already. A completion wakes one
    /// member per node and leaves the rest of the node to it
    /// ([`crate::collective`]), so every driver of a rank calls this each
    /// time it resumes the rank — before the rank's own program, which
    /// may be waiting on something else entirely.
    pub fn relay_node_wakes(&self) {
        for (inst, group_rank) in &self.entered {
            inst.relay(*group_rank);
        }
    }

    /// Begins a *blocking-semantics* collective without blocking: enters
    /// the instance at the current clock (no initiation charge, unlike
    /// [`Ctx::icollective`]) and returns the request to poll with
    /// [`Ctx::try_complete`].
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

    /// Begins `MPI_Comm_split` over `parent`: an allgather of every rank's
    /// `(color, key)`. Returns the request and the parent-comm ordinal the
    /// split will be registered under; pass both, plus the gathered
    /// payload from [`Ctx::try_complete`], to [`Ctx::comm_split_finish`].
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
    /// pairs. Ranks passing the same non-negative `color` land in the same
    /// new communicator, ordered by `(key, parent rank)`; a negative color
    /// (`MPI_UNDEFINED`) yields `None`.
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

    /// Begins `MPI_Comm_dup` over `parent`: an empty allgather that
    /// synchronizes (and charges) the ranks. Complete the request with
    /// [`Ctx::try_complete`], then call [`Ctx::comm_dup_finish`].
    pub fn comm_dup_begin(&mut self, parent: &Comm) -> (Request, u64) {
        self.check_epoch(parent);
        let seq = self.bump_comm_seq(parent.id());
        let req = self.begin_collective(parent, seq, CollOp::Allgather, 0, Bytes::new(), None);
        (req, seq)
    }

    /// Builds the duplicate communicator (same group, fresh context id)
    /// once the dup synchronization completed.
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

    /// Begins `MPI_Comm_create` over `parent`: the same empty allgather a
    /// dup synchronizes on. Complete the request with
    /// [`Ctx::try_complete`], then call [`Ctx::comm_create_finish`].
    pub fn comm_create_begin(&mut self, parent: &Comm) -> (Request, u64) {
        self.comm_dup_begin(parent)
    }

    /// Builds the created communicator once the synchronization completed;
    /// `None` on ranks outside `group`.
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
    use crate::sched::{RankStep, Step, StepDriver, WaitReason};
    use crate::world::{run_world, WorldConfig};
    use netmodel::NetParams;
    use parking_lot::Mutex;
    use std::panic;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn cfg(n: usize) -> WorldConfig {
        WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
    }

    /// A rank of a [`run_polled`] world: its poll is called until it
    /// returns the rank's result. A poll that moved the clock (a charged
    /// `test`, a send) made progress of its own and yields `Poll`; one
    /// that did not waits for the mailbox event that can complete it.
    /// Once some rank's poll panicked, every rank ends at its next step
    /// (the driver's rescue sweep reaches parked ones), so a failed
    /// assertion fails the test instead of leaving its peers waiting.
    struct Polled<'a, R, P> {
        ctx: Ctx,
        poll: P,
        out: &'a Mutex<Option<R>>,
        failed: &'a AtomicBool,
    }

    impl<R: Send, P: FnMut(&mut Ctx) -> Option<R> + Send> RankStep for Polled<'_, R, P> {
        fn step(&mut self) -> Step {
            if self.failed.load(Ordering::Relaxed) {
                return Step::Done;
            }
            self.ctx.relay_node_wakes();
            let before = self.ctx.clock();
            let polled =
                panic::catch_unwind(panic::AssertUnwindSafe(|| (self.poll)(&mut self.ctx)));
            match polled.unwrap_or_else(|p| {
                self.failed.store(true, Ordering::Relaxed);
                panic::resume_unwind(p)
            }) {
                Some(r) => {
                    *self.out.lock() = Some(r);
                    Step::Done
                }
                None if self.ctx.clock() != before => Step::Yield(WaitReason::Poll),
                None => Step::Yield(WaitReason::Event),
            }
        }
    }

    /// Runs `make(rank)`'s poll for every rank of an `n`-rank world on a
    /// [`StepDriver`], the world's mailboxes waking it through the
    /// scheduler's rank-waker registry, and returns the world and each
    /// rank's result. Every wake must reach its rank: a lost one shows as
    /// a backstop expiry of the driver's rescue sweep.
    fn run_polled<R, P>(n: usize, make: impl Fn(usize) -> P) -> (Arc<World>, Vec<R>)
    where
        R: Send,
        P: FnMut(&mut Ctx) -> Option<R> + Send,
    {
        let world = World::new(cfg(n));
        let sched = world.scheduler();
        let driver = StepDriver::new(n, Arc::clone(sched.stats()));
        let d = Arc::clone(&driver);
        sched.install_rank_waker(Arc::new(move |rank| d.wake(rank)));
        world.install_rank_wakers();
        let outs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let failed = AtomicBool::new(false);
        let objs = (outs.iter().enumerate())
            .map(|(rank, out)| {
                Box::new(Polled {
                    ctx: Ctx::new(Arc::clone(&world), rank),
                    poll: make(rank),
                    out,
                    failed: &failed,
                }) as Box<dyn RankStep + '_>
            })
            .collect();
        driver.run(sched.workers(), objs);
        assert_eq!(sched.stats().backstop_expiries(), 0, "a wake was lost");
        let results = (outs.into_iter())
            .map(|o| o.into_inner().expect("every rank finished"))
            .collect();
        (world, results)
    }

    /// One operation of a polled rank's program, which every poll replays
    /// from the top: the first poll to reach it begins it, the next ones
    /// complete it with `try_complete`, and once complete its completion
    /// (with what `begin` returned beside the request) is kept for the
    /// polls after. A completed request must be `MPI_REQUEST_NULL`, and
    /// polling it again must give an empty completion.
    enum Op<T = ()> {
        Idle,
        Pending(Request, T),
        Done(Completion, T),
    }

    impl<T: Copy> Op<T> {
        fn poll_with(
            &mut self,
            ctx: &mut Ctx,
            begin: impl FnOnce(&mut Ctx) -> (Request, T),
        ) -> Option<(Completion, T)> {
            if let Op::Idle = self {
                let (req, t) = begin(ctx);
                *self = Op::Pending(req, t);
            }
            if let Op::Pending(req, t) = self {
                let c = ctx.try_complete(req)?;
                assert!(req.is_null(), "a completed request is MPI_REQUEST_NULL");
                let again = ctx
                    .try_complete(req)
                    .expect("a null request completes at once");
                assert!(again.status.is_none() && again.data.is_empty());
                let t = *t;
                *self = Op::Done(c, t);
            }
            match self {
                Op::Done(c, t) => Some((c.clone(), *t)),
                _ => unreachable!("begun and completed above"),
            }
        }
    }

    impl Op {
        fn poll(
            &mut self,
            ctx: &mut Ctx,
            begin: impl FnOnce(&mut Ctx) -> Request,
        ) -> Option<Completion> {
            let (c, ()) = self.poll_with(ctx, |ctx| (begin(ctx), ()))?;
            Some(c)
        }
    }

    const SUM: Option<RedSpec> = Some(RedSpec {
        dtype: DType::F64,
        op: ReduceOp::Sum,
    });

    /// Begins a sum allreduce of `x` on `comm`.
    fn sum(ctx: &mut Ctx, comm: &Comm, x: f64) -> Request {
        ctx.coll_begin(comm, CollOp::Allreduce, 0, encode_f64(&[x]), SUM)
    }

    #[test]
    fn p2p_ping() {
        run_polled(2, |me| {
            let (mut op, mut delay) = (Op::Idle, 100);
            move |ctx: &mut Ctx| {
                let w = ctx.comm_world();
                if me == 0 {
                    // Polls that move the clock a little, so that rank 1 is
                    // parked on its receive when the deposit wakes it.
                    if delay > 0 {
                        delay -= 1;
                        ctx.compute(1e-9);
                        return None;
                    }
                    op.poll(ctx, |ctx| ctx.isend(&w, 1, 7, Bytes::from_static(b"ping")))?;
                    return Some(());
                }
                let c = op.poll(ctx, |ctx| ctx.irecv(&w, 0, 7))?;
                let st = c.status.expect("a receive's status");
                assert_eq!(c.data.as_ref(), b"ping");
                assert_eq!((st.source, st.tag), (0, 7));
                assert!(ctx.clock() > VTime::ZERO, "recv must advance vtime");
                Some(())
            }
        });
    }

    #[test]
    fn p2p_nonovertaking_same_tag() {
        // The receiver posts while the sends land: 50 worlds of it.
        for _ in 0..50 {
            run_polled(2, |me| {
                let mut ops: Vec<Op> = (0..10).map(|_| Op::Idle).collect();
                move |ctx: &mut Ctx| {
                    let w = ctx.comm_world();
                    for (i, op) in ops.iter_mut().enumerate() {
                        if me == 0 {
                            op.poll(ctx, |ctx| ctx.isend(&w, 1, 3, vec![i as u8]))?;
                        } else {
                            let c = op.poll(ctx, |ctx| ctx.irecv(&w, 0, 3))?;
                            assert_eq!(c.data[0], i as u8, "messages must not overtake");
                        }
                    }
                    Some(())
                }
            });
        }
    }

    #[test]
    fn any_source_any_tag() {
        run_polled(3, |me| {
            let mut ops = [Op::Idle, Op::Idle];
            move |ctx: &mut Ctx| {
                let w = ctx.comm_world();
                if me != 0 {
                    let tag = me as Tag;
                    ops[0].poll(ctx, |ctx| ctx.isend(&w, 0, tag, Bytes::from_static(b"x")))?;
                    return Some(());
                }
                let mut seen = [false; 2];
                for op in &mut ops {
                    let c = op.poll(ctx, |ctx| ctx.irecv(&w, SrcSel::Any, TagSel::Any))?;
                    let st = c.status.expect("a receive's status");
                    assert_eq!(st.tag as usize, st.source, "the sender's tag");
                    seen[st.source - 1] = true;
                }
                assert!(seen[0] && seen[1]);
                Some(())
            }
        });
    }

    #[test]
    fn alltoall_exchanges_blocks() {
        // Rank r sends byte r*4+j to rank j.
        run_polled(4, |me| {
            let mut op = Op::Idle;
            move |ctx: &mut Ctx| {
                let w = ctx.comm_world();
                let payload: Vec<u8> = (0..4).map(|j| (me * 4 + j) as u8).collect();
                let got = op.poll(ctx, |ctx| {
                    ctx.coll_begin(&w, CollOp::Alltoall, 0, payload.into(), None)
                })?;
                let expect: Vec<u8> = (0..4).map(|r| (r * 4 + me) as u8).collect();
                assert_eq!(got.data.as_ref(), &expect[..]);
                Some(())
            }
        });
    }

    #[test]
    fn nonblocking_collective_overlap() {
        let (_, clocks) = run_polled(4, |_| {
            let mut op = Op::Idle;
            move |ctx: &mut Ctx| {
                let w = ctx.comm_world();
                let c = op.poll(ctx, |ctx| {
                    let req = ctx.icollective(&w, CollOp::Allreduce, 0, encode_f64(&[1.0]), SUM);
                    // Overlapped computation.
                    ctx.compute(100e-6);
                    req
                })?;
                assert_eq!(decode_f64(&c.data), vec![4.0]);
                Some(ctx.clock())
            }
        });
        // With overlap, total time should be close to the compute time, not
        // compute + full collective latency.
        for t in clocks {
            assert!(t.as_secs() < 150e-6, "overlap failed: {t}");
        }
    }

    #[test]
    fn ibarrier_test_loop() {
        // The 2PC "trivial barrier" pattern: Ibarrier + Test loop. Each
        // failed test charges a poll, so the rank polls rather than parks.
        run_polled(3, |_| {
            let mut req = None;
            move |ctx: &mut Ctx| {
                let w = ctx.comm_world();
                let req = req.get_or_insert_with(|| ctx.ibarrier(&w));
                ctx.test(req)?;
                assert!(req.is_null());
                Some(())
            }
        });
    }

    #[test]
    fn comm_split_even_odd() {
        run_polled(6, |me| {
            let (mut split, mut reduce) = (Op::Idle, Op::Idle);
            move |ctx: &mut Ctx| {
                let w = ctx.comm_world();
                let color = (me % 2) as i64;
                let (c, seq) =
                    split.poll_with(ctx, |ctx| ctx.comm_split_begin(&w, color, me as i64))?;
                let sub = (ctx.comm_split_finish(&w, seq, color, &c.data)).expect("color >= 0");
                assert_eq!((sub.size(), sub.rank()), (3, me / 2));
                // Sum within my parity class.
                let s = reduce.poll(ctx, |ctx| sum(ctx, &sub, me as f64))?;
                let expect = if me % 2 == 0 {
                    0.0 + 2.0 + 4.0
                } else {
                    1.0 + 3.0 + 5.0
                };
                assert_eq!(decode_f64(&s.data), vec![expect]);
                Some(())
            }
        });
    }

    #[test]
    fn comm_split_undefined_color() {
        run_polled(4, |me| {
            let mut split = Op::Idle;
            move |ctx: &mut Ctx| {
                let w = ctx.comm_world();
                let color = if me == 0 { -1 } else { 0 };
                let (c, seq) = split.poll_with(ctx, |ctx| ctx.comm_split_begin(&w, color, 0))?;
                let sub = ctx.comm_split_finish(&w, seq, color, &c.data);
                match sub {
                    None => assert_eq!(me, 0),
                    Some(sub) => assert_eq!((me > 0, sub.size()), (true, 3)),
                }
                Some(())
            }
        });
    }

    #[test]
    fn comm_dup_independent_context() {
        run_polled(2, |me| {
            let (mut dup, mut first, mut second) = (Op::Idle, Op::Idle, Op::Idle);
            move |ctx: &mut Ctx| {
                let w = ctx.comm_world();
                let (_, seq) = dup.poll_with(ctx, |ctx| ctx.comm_dup_begin(&w))?;
                let d = ctx.comm_dup_finish(&w, seq);
                assert_ne!(d.id(), w.id());
                assert_eq!(d.group().members(), w.group().members());
                // A message sent on the dup must not match a receive on
                // the world.
                if me == 0 {
                    first.poll(ctx, |ctx| ctx.isend(&d, 1, 5, Bytes::from_static(b"dup")))?;
                    second.poll(ctx, |ctx| ctx.isend(&w, 1, 5, Bytes::from_static(b"world")))?;
                    return Some(());
                }
                let c = first.poll(ctx, |ctx| ctx.irecv(&w, 0, 5))?;
                assert_eq!(c.data.as_ref(), b"world");
                let c = second.poll(ctx, |ctx| ctx.irecv(&d, 0, 5))?;
                assert_eq!(c.data.as_ref(), b"dup");
                Some(())
            }
        });
    }

    #[test]
    fn comm_create_subset() {
        run_polled(4, |me| {
            let (mut create, mut reduce) = (Op::Idle, Op::Idle);
            move |ctx: &mut Ctx| {
                let w = ctx.comm_world();
                let g = Group::new(vec![1, 3]);
                let (_, seq) = create.poll_with(ctx, |ctx| ctx.comm_create_begin(&w))?;
                let Some(sub) = ctx.comm_create_finish(&w, seq, &g) else {
                    assert!(me == 0 || me == 2);
                    return Some(());
                };
                assert_eq!((me % 2, sub.size()), (1, 2));
                let s = reduce.poll(ctx, |ctx| sum(ctx, &sub, 1.0))?;
                assert_eq!(decode_f64(&s.data), vec![2.0]);
                Some(())
            }
        });
    }

    #[test]
    fn no_live_collectives_after_completion() {
        let (world, _) = run_polled(4, |_| {
            let (mut barrier, mut reduce) = (Op::Idle, Op::Idle);
            move |ctx: &mut Ctx| {
                let w = ctx.comm_world();
                barrier.poll(ctx, |ctx| {
                    ctx.coll_begin(&w, CollOp::Barrier, 0, Bytes::new(), None)
                })?;
                reduce.poll(ctx, |ctx| sum(ctx, &w, 1.0))?;
                Some(())
            }
        });
        assert_eq!(world.live_collectives(), 0);
    }

    // The thread path: bare `run_world` ranks block in the two blocking
    // collectives and in `wait`.

    #[test]
    fn blocking_collectives_data() {
        run_world(cfg(4), |ctx| {
            let w = ctx.comm_world();
            let me = ctx.rank();
            let data = if me == 2 {
                Bytes::from_static(b"hello")
            } else {
                Bytes::new()
            };
            let out = ctx.bcast(&w, 2, data);
            assert_eq!(out.as_ref(), b"hello");
            let s = ctx.allreduce_f64(&w, &[me as f64], ReduceOp::Sum);
            assert_eq!(s, vec![6.0]);
        });
    }

    #[test]
    fn wait_sleeps_until_a_deposit() {
        // Rank 1 waits on a receive that rank 0 sends after a wall pause:
        // the wait sleeps on the mailbox token and the deposit ends the
        // sleep, not the backstop.
        let rep = run_world(cfg(2), |ctx| {
            let w = ctx.comm_world();
            if ctx.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                ctx.isend(&w, 1, 4, Bytes::from_static(b"late"));
            } else {
                let mut req = ctx.irecv(&w, 0, 4);
                let c = ctx.wait(&mut req);
                assert_eq!(c.data.as_ref(), b"late");
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
}
