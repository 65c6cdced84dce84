//! The `World`: all shared lower-half state, plus the thread launcher.
//!
//! In split-process terms (paper Figure 1) a `World` **is** the lower half:
//! mailboxes, communicator registry, and in-flight collective instances. At
//! restart the checkpoint engine discards the old `World` and attaches a
//! fresh one to the surviving ranks ([`crate::Ctx::attach_world`]) —
//! nothing in here is ever saved in a checkpoint image.
//!
//! [`run_world`] launches bare ranks — `Ctx` closures as step objects that
//! never yield — on the thread-per-object driver
//! ([`Scheduler::run_threads`]): each rank owns a thread (its
//! continuation) and sleeps only in its event wait — see [`crate::sched`].
//! The scheduler outlives the `World`: restart builds the next generation
//! onto the same scheduler with [`World::with_epoch_attached`].

use crate::collective::{CollEnv, CollRegistry};
use crate::comm::{CommInner, SplitKey};
use crate::ctx::Ctx;
use crate::group::Group;
use crate::mailbox::Mailbox;
use crate::msg::InFlightMsg;
use crate::sched::{RankStep, Scheduler, Step};
use crate::types::{CommId, COMM_WORLD_ID};
use netmodel::{NetParams, Topology, VTime};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Stack size of every rank thread the thread-per-object driver
/// ([`Scheduler::run_threads`]) spawns.
///
/// Rank bodies are shallow — MPI-style call chains plus the wrapper layer,
/// no deep recursion — and a debug build of the full test battery peaks
/// well under 64 KiB of stack per rank, so 128 KiB carries 2× headroom.
/// The old 1 MiB-per-thread default was the scale blocker the ROADMAP
/// called out: stacks are the *only* per-rank footprint that survives
/// parking, and at 4096 parked continuations 1 MiB apiece is 4 GiB of
/// committed-on-touch memory for stacks alone, vs 512 MiB here.
pub const DEFAULT_RANK_STACK: usize = 128 << 10;

/// Configuration for building a [`World`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of MPI ranks.
    pub n_ranks: usize,
    /// Ranks per simulated node (Perlmutter: 128).
    pub ranks_per_node: usize,
    /// Network cost parameters.
    pub params: NetParams,
    /// Worker budget ([`Scheduler::workers`]): the step driver's pool size
    /// and a checkpoint's clone-out and encode fan-out; `None` sizes it to
    /// the host ([`Scheduler::default_workers`]).
    pub workers: Option<usize>,
}

impl WorldConfig {
    /// A config with `n` ranks on one node and the default network.
    pub fn single_node(n: usize) -> Self {
        WorldConfig {
            n_ranks: n,
            ranks_per_node: n.max(1),
            params: NetParams::default(),
            workers: None,
        }
    }

    /// A config with `n` ranks, `rpn` per node.
    pub fn multi_node(n: usize, rpn: usize) -> Self {
        WorldConfig {
            n_ranks: n,
            ranks_per_node: rpn,
            params: NetParams::default(),
            workers: None,
        }
    }

    /// Replaces the network parameters.
    pub fn with_params(mut self, params: NetParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the worker budget.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "worker bound must be positive");
        self.workers = Some(workers);
        self
    }

    /// The resolved worker bound for this config.
    pub fn resolved_workers(&self) -> usize {
        self.workers
            .unwrap_or_else(Scheduler::default_workers)
            .min(self.n_ranks.max(1))
    }
}

/// Shared lower-half state for one generation of the simulated MPI library.
pub struct World {
    pub(crate) n_ranks: usize,
    pub(crate) topo: Topology,
    pub(crate) params: Arc<NetParams>,
    pub(crate) mailboxes: Vec<Arc<Mailbox>>,
    pub(crate) comms: RwLock<HashMap<CommId, Arc<CommInner>>>,
    pub(crate) split_registry: Mutex<HashMap<SplitKey, CommId>>,
    pub(crate) next_comm: AtomicU64,
    pub(crate) coll: CollRegistry,
    pub(crate) next_instance: AtomicU64,
    /// Messages the checkpoint coordinator injected into this generation
    /// from outside any rank's send path (restart seeding, post-capture
    /// continue re-deposits). Part of the p2p drain-accounting identity —
    /// see [`World::p2p_accounting`].
    redeposited: AtomicU64,
    /// Messages removed from mailboxes by checkpoint drains
    /// ([`World::take_unexpected`]) over this generation's lifetime.
    drained: AtomicU64,
    /// The cooperative rank scheduler. Shared across lower-half
    /// generations: restart replaces the `World`, never the scheduler.
    pub(crate) sched: Arc<Scheduler>,
    /// Lower-half generation: 0 for the initial world, incremented by the
    /// checkpoint engine at each restart.
    pub epoch: u64,
}

impl World {
    /// Builds a world (generation 0) with a fresh scheduler.
    pub fn new(cfg: WorldConfig) -> Arc<World> {
        Self::with_epoch(cfg, 0)
    }

    /// Builds a world with an explicit lower-half generation and a fresh
    /// scheduler.
    pub fn with_epoch(cfg: WorldConfig, epoch: u64) -> Arc<World> {
        let sched = Scheduler::new(cfg.n_ranks.max(1), cfg.resolved_workers());
        Self::with_epoch_attached(cfg, epoch, sched)
    }

    /// **Restart hook.** Builds a fresh lower half attached to an existing
    /// scheduler: the surviving ranks wake into the new generation, whose
    /// mailboxes inherit the scheduler's wake routing.
    ///
    /// # Panics
    /// Panics if the scheduler was sized for a different rank count.
    pub fn with_epoch_attached(cfg: WorldConfig, epoch: u64, sched: Arc<Scheduler>) -> Arc<World> {
        assert!(cfg.n_ranks > 0, "world needs at least one rank");
        assert_eq!(
            sched.n_ranks(),
            cfg.n_ranks,
            "scheduler sized for a different world"
        );
        let topo = Topology::new(cfg.n_ranks, cfg.ranks_per_node);
        let n_nodes = topo.n_nodes();
        let mut comms = HashMap::new();
        comms.insert(
            COMM_WORLD_ID,
            Arc::new(CommInner {
                id: COMM_WORLD_ID,
                group: Group::world(cfg.n_ranks),
                epoch,
                mailboxes: OnceLock::new(),
            }),
        );
        let mailboxes: Vec<Arc<Mailbox>> = (0..cfg.n_ranks)
            .map(|rank| {
                let mb = Arc::new(Mailbox::new());
                // Driven worlds route mailbox activity to whoever drives
                // the rank (a step driver, or a thread rank's event
                // wait). The registry is per-scheduler, so restart
                // generations built onto the same scheduler re-wire their
                // fresh mailboxes automatically.
                if let Some(w) = sched.rank_waker_for(rank) {
                    mb.set_waker(w);
                }
                mb
            })
            .collect();
        Arc::new(World {
            n_ranks: cfg.n_ranks,
            topo,
            params: Arc::new(cfg.params),
            mailboxes,
            comms: RwLock::new(comms),
            split_registry: Mutex::new(HashMap::new()),
            next_comm: AtomicU64::new(1),
            coll: CollRegistry::for_nodes(n_nodes),
            next_instance: AtomicU64::new(1),
            redeposited: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            sched,
            epoch,
        })
    }

    /// The environment a [`crate::collective::CollInstance`] on `comm`
    /// needs: cost-model inputs and the participants' mailboxes (poked at
    /// completion), listed once per communicator.
    pub(crate) fn coll_env(&self, comm: &CommInner) -> CollEnv {
        let mailboxes = comm.mailboxes.get_or_init(|| {
            (comm.group.members().iter())
                .map(|&w| Arc::clone(&self.mailboxes[w]))
                .collect()
        });
        CollEnv {
            params: Arc::clone(&self.params),
            topo: self.topo.clone(),
            mailboxes: Arc::clone(mailboxes),
        }
    }

    /// The fault-propagation plane shared by every generation built on
    /// this world's scheduler. See [`crate::fail`].
    #[inline]
    pub fn fail_plane(&self) -> &Arc<crate::fail::FailPlane> {
        self.sched.fail_plane()
    }

    /// The cooperative rank scheduler this world's ranks run under.
    #[inline]
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Number of ranks.
    #[inline]
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Network parameters.
    #[inline]
    pub fn params(&self) -> &Arc<NetParams> {
        &self.params
    }

    /// The mailbox of `rank`.
    #[inline]
    pub(crate) fn mailbox(&self, rank: usize) -> &Mailbox {
        &self.mailboxes[rank]
    }

    /// Wires every mailbox to the scheduler's rank-waker registry.
    ///
    /// Worlds built *after* [`Scheduler::install_rank_waker`] (restart
    /// generations through [`World::with_epoch_attached`]) get this wiring
    /// automatically; a runner calls it on the initial world, which
    /// necessarily predates the routing it installs.
    pub fn install_rank_wakers(&self) {
        for (rank, mb) in self.mailboxes.iter().enumerate() {
            if let Some(w) = self.sched.rank_waker_for(rank) {
                mb.set_waker(w);
            }
        }
    }

    /// Looks up a communicator by id.
    ///
    /// # Panics
    /// Panics if the id is unknown (stale handle from an old generation).
    pub fn comm_inner(&self, id: CommId) -> Arc<CommInner> {
        Arc::clone(
            self.comms
                .read()
                .get(&id)
                .unwrap_or_else(|| panic!("unknown communicator {id:?} (stale handle?)")),
        )
    }

    /// Registers a new communicator for `group`; allocated under `key` so
    /// that all participants of the creating collective agree on the id.
    pub(crate) fn comm_for_split(&self, key: SplitKey, group: Group) -> Arc<CommInner> {
        self.registered_comm(key, || group)
    }

    /// The communicator registered under `key`, made with `group()` by
    /// the first caller.
    fn registered_comm(&self, key: SplitKey, group: impl FnOnce() -> Group) -> Arc<CommInner> {
        let mut reg = self.split_registry.lock();
        let id = *reg
            .entry(key)
            .or_insert_with(|| CommId(self.next_comm.fetch_add(1, Ordering::Relaxed)));
        drop(reg);
        let mut comms = self.comms.write();
        let inner = comms.entry(id).or_insert_with(|| {
            Arc::new(CommInner {
                id,
                group: group(),
                epoch: self.epoch,
                mailboxes: OnceLock::new(),
            })
        });
        Arc::clone(inner)
    }

    /// **Restart hook.** Rebuilds a communicator directly from its saved
    /// group, without running a creation collective. Member ranks replaying
    /// a checkpointed communicator log call this with identical `key`s and
    /// get the same registered communicator — no rendezvous is needed, so
    /// replay also works when some original members have already finished.
    /// Only the first caller builds the group from `members`.
    pub fn restore_comm(&self, key: SplitKey, members: Arc<[usize]>) -> Arc<CommInner> {
        self.registered_comm(key, || Group::from_shared(members))
    }

    /// Allocates a globally unique collective-instance id (jitter key).
    pub(crate) fn alloc_instance(&self) -> u64 {
        self.next_instance.fetch_add(1, Ordering::Relaxed)
    }

    /// **Checkpoint hook.** Drains every unmatched in-flight message from
    /// `rank`'s mailbox. At a safe state these are exactly the sent-but-not-
    /// received point-to-point messages that must be saved in the image.
    pub fn take_unexpected(&self, rank: usize) -> Vec<InFlightMsg> {
        let msgs = self.mailboxes[rank].drain_all();
        self.drained.fetch_add(msgs.len() as u64, Ordering::Relaxed);
        msgs
    }

    /// **Resume hook.** Puts messages a capture drained at the front of
    /// `rank`'s mailbox, in order: they were sent before anything already
    /// queued there (by a new generation's ranks, after a restart).
    /// Counted as external injections for the p2p drain accounting.
    pub fn redeposit_front(&self, rank: usize, msgs: Vec<InFlightMsg>) {
        if msgs.is_empty() {
            return;
        }
        self.redeposited
            .fetch_add(msgs.len() as u64, Ordering::Relaxed);
        self.mailboxes[rank].deposit_front(msgs);
    }

    /// **Quiesce hook.** Returns a matched-but-uncompleted receive's
    /// message to its destination mailbox so the capture drain records it
    /// as in flight. Unlike [`World::redeposit_front`] this is *not* counted
    /// as an external injection: the rank-side send counter already covers
    /// the message, and the revert merely moves it from a request's
    /// matched state back into the queue it came from.
    pub fn revert_unmatched(&self, mut msg: InFlightMsg, now: VTime) {
        msg.arrival = now;
        msg.sent = now;
        let dst = msg.dst_world;
        self.mailboxes[dst].deposit(msg);
    }

    /// The lower-half side of the p2p drain-accounting identity for this
    /// generation: `(redeposited, drained)` — messages the coordinator
    /// injected from outside any rank's send path, and messages checkpoint
    /// drains removed. At any quiesced point with no matched-but-
    /// uncompleted receives outstanding,
    ///
    /// ```text
    /// Σ rank sends + redeposited == Σ rank deliveries + queued + drained
    /// ```
    ///
    /// must hold, where `queued` is what [`World::take_unexpected`] finds.
    /// The checkpoint coordinator enforces exactly this at every capture.
    pub fn p2p_accounting(&self) -> (u64, u64) {
        (
            self.redeposited.load(Ordering::Relaxed),
            self.drained.load(Ordering::Relaxed),
        )
    }

    /// Number of collective instances currently in flight. The paper's
    /// *collective invariant* (§2.2) requires this to be zero at any safe
    /// state; the checkpoint engine asserts it.
    pub fn live_collectives(&self) -> usize {
        self.coll.live_count()
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("n_ranks", &self.n_ranks)
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// Result of one rank's run under [`run_world`].
#[derive(Debug)]
pub struct RankReport<R> {
    /// World rank.
    pub rank: usize,
    /// The closure's return value.
    pub result: R,
    /// The rank's final virtual clock.
    pub final_clock: VTime,
}

/// Result of a whole [`run_world`] execution.
#[derive(Debug)]
pub struct WorldReport<R> {
    /// Per-rank reports, indexed by rank.
    pub ranks: Vec<RankReport<R>>,
    /// The simulated makespan: max of final clocks.
    pub makespan: VTime,
}

impl<R> WorldReport<R> {
    /// Iterates over per-rank results.
    pub fn results(&self) -> impl Iterator<Item = &R> {
        self.ranks.iter().map(|r| &r.result)
    }
}

/// Spawning a rank thread failed (out of memory or a process thread
/// limit). Before any rank runs application code, every rank thread of a
/// world must exist — so the runner aborts the whole launch cleanly: ranks
/// spawned before the failure are released without ever entering `f`, and
/// the typed error reports what was being asked of the host. At 4096
/// ranks this is an expected operational failure mode, not a programmer
/// error, which is why it is not an `expect` panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnError {
    /// Rank whose thread failed to spawn.
    pub rank: usize,
    /// Total ranks the launch asked for.
    pub n_ranks: usize,
    /// The OS error.
    pub reason: String,
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failed to spawn rank thread {}/{} ({} KiB stack each): {}",
            self.rank,
            self.n_ranks,
            DEFAULT_RANK_STACK >> 10,
            self.reason
        )
    }
}

impl std::error::Error for SpawnError {}

/// A bare rank: a `Ctx` closure as a step object that never yields (it
/// blocks inside [`Ctx::bcast`] and [`Ctx::allreduce_f64`] instead — it
/// owns a thread to block).
struct BareRank<'a, R, F> {
    ctx: Ctx,
    f: &'a F,
    out: &'a Mutex<Option<RankReport<R>>>,
}

impl<R: Send, F: Fn(&mut Ctx) -> R + Sync> RankStep for BareRank<'_, R, F> {
    fn step(&mut self) -> Step {
        let result = (self.f)(&mut self.ctx);
        *self.out.lock() = Some(RankReport {
            rank: self.ctx.rank(),
            result,
            final_clock: self.ctx.clock(),
        });
        Step::Done
    }
}

/// Runs `f` on every rank, one thread per rank, and reports results and
/// virtual-time makespan. Panics in any rank propagate once every rank
/// has run down.
///
/// # Panics
/// Panics with the [`SpawnError`] if a rank thread cannot be spawned; no
/// application code has run then — ranks spawned before the failing one
/// are released without entering `f`.
pub fn run_world<R, F>(cfg: WorldConfig, f: F) -> WorldReport<R>
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    let world = World::new(cfg.clone());
    let outs: Vec<Mutex<Option<RankReport<R>>>> =
        (0..cfg.n_ranks).map(|_| Mutex::new(None)).collect();
    let objs = outs
        .iter()
        .enumerate()
        .map(|(rank, out)| {
            Box::new(BareRank {
                ctx: Ctx::new(Arc::clone(&world), rank),
                f: &f,
                out,
            }) as Box<dyn RankStep + '_>
        })
        .collect();
    (world.scheduler().run_threads(objs, || ())).unwrap_or_else(|e| panic!("{e}"));
    let ranks: Vec<RankReport<R>> = outs
        .into_iter()
        .map(|o| o.into_inner().expect("every rank ran to completion"))
        .collect();
    let makespan = VTime::max_of(ranks.iter().map(|r| r.final_clock));
    WorldReport { ranks, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_has_comm_world() {
        let w = World::new(WorldConfig::single_node(4));
        let c = w.comm_inner(COMM_WORLD_ID);
        assert_eq!(c.group.size(), 4);
        assert_eq!(w.live_collectives(), 0);
    }

    #[test]
    fn split_registry_agrees_on_id() {
        let w = World::new(WorldConfig::single_node(4));
        let key = SplitKey {
            parent: COMM_WORLD_ID,
            seq: 0,
            color: 1,
        };
        let g = Group::new(vec![0, 1]);
        let a = w.comm_for_split(key.clone(), g.clone());
        let b = w.comm_for_split(key, g);
        assert_eq!(a.id, b.id);
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// Messages a restart puts back go ahead of what the new generation
    /// already queued, in the order given, and each counts as an injection.
    #[test]
    fn front_redeposit_keeps_order_ahead_of_queued_and_counts() {
        let w = World::new(WorldConfig::single_node(3));
        let msg = |src, seq| InFlightMsg {
            src_world: src,
            dst_world: 0,
            comm: COMM_WORLD_ID,
            tag: 0,
            payload: bytes::Bytes::new(),
            sent: VTime::ZERO,
            arrival: VTime::ZERO,
            seq,
        };
        // A new-generation message lands first (a revert: not counted).
        w.revert_unmatched(msg(2, 0), VTime::ZERO);
        w.redeposit_front(0, vec![msg(1, 5), msg(1, 6)]);
        w.redeposit_front(0, Vec::new());
        let order: Vec<(usize, u64)> = (w.take_unexpected(0).iter())
            .map(|m| (m.src_world, m.seq))
            .collect();
        assert_eq!(order, [(1, 5), (1, 6), (2, 0)]);
        assert_eq!(w.p2p_accounting(), (2, 3), "(redeposited, drained)");
    }

    #[test]
    fn run_world_reports_results() {
        let rep = run_world(WorldConfig::single_node(3), |ctx| ctx.rank() * 10);
        assert_eq!(rep.ranks.len(), 3);
        assert_eq!(rep.ranks[2].result, 20);
    }
}
