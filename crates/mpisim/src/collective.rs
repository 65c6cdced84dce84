//! Collective rendezvous instances: the data plane and timing plane of
//! every blocking or non-blocking collective call.
//!
//! Each collective call on a communicator is identified by `(comm id,
//! per-comm sequence)` — MPI requires all members to issue collectives on a
//! communicator in the same order, so local counters agree globally. The
//! first participant to arrive creates the instance; the last one
//! *completes* it: it computes every participant's exit time with the
//! [`netmodel`] cost model and combines the data contributions.
//!
//! ## Scaling shape: per-node completion
//!
//! At paper scale the rendezvous itself is the serial section, and the
//! step pool's workers own contiguous blocks of ranks — so whole nodes
//! ([`crate::sched`]). An instance is therefore split by node, and what
//! workers share per call is O(nodes), not O(ranks):
//!
//! * **Lookup.** Each node has its own handle ([`CollInstance`]): its own
//!   registry entry under `(comm, seq, node)`, its own `Arc`, and its own
//!   copy of an output every rank receives. Only a node's first arriver
//!   looks further, for the state the nodes share.
//! * **Arrival** writes the rank's own slot and bumps its node's arrival
//!   counter (cache-padded, like all per-node state). The node's last
//!   arriver gathers its members' entry times and contributions into one
//!   contiguous per-node buffer and bumps the instance's node counter.
//! * **Completion** is left with three jobs, run by the last node's last
//!   arriver with no lock held: the reduction fold in group-rank order
//!   over the gathered buffers, [`netmodel::exit_times`], and one wake per
//!   node. It publishes the exits and outputs once; each rank reads its
//!   own from there. Nobody writes per-rank result slots.
//! * **Node wake.** The woken member wakes the rest of its node from its
//!   own worker, at its next resumption ([`crate::Ctx::relay_node_wakes`],
//!   which every driver of a rank calls) or when it collects its result,
//!   whichever comes first; the completer wakes its own node itself.
//!   Every wake is a mailbox poke, so a bare rank blocked in
//!   [`crate::Ctx::bcast`] or [`crate::Ctx::allreduce_f64`] and a driven
//!   rank (through the mailbox waker) learn of a completion the way they
//!   learn of a deposit; the instance itself has nothing to sleep on.
//!
//! Fold order and the cost model's inputs are those of one flat instance,
//! so every virtual value is independent of the split.
//!
//! Every caller holds its node's handle inside an `MPI_Request` and
//! completes it with `test`/`try_complete` — once all participants have
//! *initiated*, the operation completes "in background" at its modelled
//! time, independent of further MPI activity, exactly the progress
//! guarantee of MPI Example 6.36 that the paper's §4.3 relies on.

use crate::dtype::DType;
use crate::fail::FailPlane;
use crate::group::Group;
use crate::mailbox::Mailbox;
use crate::reduce_op::ReduceOp;
use crate::sched::flush_step_wakes;
use crate::types::CommId;
use bytes::Bytes;
use netmodel::collectives::CollCtx;
use netmodel::{CollOp, NetParams, Topology, VTime};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Reduction specification for reducing collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedSpec {
    /// Element type.
    pub dtype: DType,
    /// Operator.
    pub op: ReduceOp,
}

/// What a collective instance needs from the world it runs in. Bundled so
/// the registry can build instances lazily (the environment is only
/// gathered when the first participant actually creates the instance).
pub struct InstanceEnv {
    /// Network cost parameters.
    pub params: Arc<NetParams>,
    /// Topology for the cost model, and the node split of the instance.
    pub topo: Topology,
    /// Participant mailboxes in group order, poked at completion so
    /// activity-token waits observe collective completions.
    pub mailboxes: Vec<Arc<Mailbox>>,
    /// Unused — completion pokes the mailboxes above and that is the
    /// only wake — but the frozen benchmark builds this struct by literal;
    /// goes with ROADMAP item 6(d).
    pub wake_batch: usize,
    /// Unused, like `wake_batch`: a poisoned world's ranks retire in
    /// their driver, never inside a rendezvous.
    pub fail: Arc<FailPlane>,
}

/// What an instance keeps of its world: [`InstanceEnv`] with the
/// mailbox list shared, so that making an instance touches no
/// participant's mailbox.
pub(crate) struct CollEnv {
    pub(crate) params: Arc<NetParams>,
    pub(crate) topo: Topology,
    /// Participant mailboxes in group order.
    pub(crate) mailboxes: Arc<[Arc<Mailbox>]>,
}

impl From<InstanceEnv> for CollEnv {
    fn from(env: InstanceEnv) -> Self {
        CollEnv {
            params: env.params,
            topo: env.topo,
            mailboxes: env.mailboxes.into(),
        }
    }
}

/// One participant's slot: written by its own rank at entry, emptied by
/// its node's last arriver, marked collected by its own rank.
enum Slot {
    /// Not yet entered.
    Empty,
    /// Entered; its node is not yet complete.
    Entered { entry: VTime, contrib: Bytes },
    /// Moved into the node's gathered buffer.
    Gathered,
    /// Result collected.
    Taken,
}

/// What a node's last arriver gathered: its members' entry times and
/// contributions, in node order, back to back.
struct NodeGather {
    entries: Vec<VTime>,
    bytes: Vec<u8>,
    /// Member `i`'s contribution is `bytes[ends[i - 1]..ends[i]]`.
    ends: Vec<usize>,
    /// The longest contribution.
    max_len: usize,
}

impl NodeGather {
    fn contrib(&self, pos: usize) -> &[u8] {
        let start = if pos == 0 { 0 } else { self.ends[pos - 1] };
        &self.bytes[start..self.ends[pos]]
    }
}

/// One node's share of an instance. Aligned so no two nodes' counters
/// share a cache line.
#[repr(align(128))]
struct NodePart {
    /// The topology node.
    node: usize,
    /// Group ranks of the node's members, ascending.
    members: Vec<usize>,
    /// Per member, in `members` order.
    slots: Vec<Mutex<Slot>>,
    arrived: AtomicUsize,
    /// Set by the node's last arriver.
    gathered: OnceLock<NodeGather>,
    /// Whether the node's members were woken for the completion.
    woken: AtomicBool,
    /// Results collected so far.
    taken: AtomicUsize,
}

/// A completed instance: every rank's exit time and output.
struct Done {
    /// By group rank.
    exits: Vec<VTime>,
    outputs: Outputs,
}

/// The outputs of a completed instance.
enum Outputs {
    /// Every rank receives the same bytes (each node reads its own copy).
    Same(Bytes),
    /// The root receives these bytes; every other rank none.
    Root(Bytes),
    /// Per group rank.
    Each(Vec<Bytes>),
}

/// A value on cache lines of its own, so that what one worker writes
/// there never invalidates what another reads nearby.
#[repr(align(128))]
#[derive(Default)]
struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// The state every node's handle of one instance shares.
struct Shared {
    op: CollOp,
    root: usize,
    red: Option<RedSpec>,
    /// The group's interned member list (shared, never copied per call).
    world_ranks: Arc<[usize]>,
    instance_id: u64,
    params: Arc<NetParams>,
    topo: Topology,
    /// Participant mailboxes, in group order.
    mailboxes: Arc<[Arc<Mailbox>]>,
    /// Group rank → (index into `nodes`, position among its members).
    place: Vec<(u32, u32)>,
    /// By ascending topology node.
    nodes: Vec<NodePart>,
    /// Nodes gathered so far; the arriver that brings it to
    /// `nodes.len()` completes the instance.
    nodes_in: Padded<AtomicUsize>,
    /// Node handles made so far (see [`CollRegistry`]).
    handles: Padded<AtomicUsize>,
    /// Published once, by the completer.
    done: OnceLock<Done>,
}

impl Shared {
    fn new(
        op: CollOp,
        root: usize,
        red: Option<RedSpec>,
        group: &Group,
        instance_id: u64,
        env: CollEnv,
    ) -> Shared {
        let world_ranks = group.members_shared();
        let p = world_ranks.len();
        assert_eq!(
            env.mailboxes.len(),
            p,
            "instance environment must carry one mailbox per participant"
        );
        let node_of: Vec<usize> = world_ranks.iter().map(|&w| env.topo.node_of(w)).collect();
        let mut ids = node_of.clone();
        ids.sort_unstable();
        ids.dedup();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
        let mut place = Vec::with_capacity(p);
        let mut last = (usize::MAX, 0);
        for (g, &n) in node_of.iter().enumerate() {
            if n != last.0 {
                last = (n, ids.binary_search(&n).expect("listed above"));
            }
            let part = &mut members[last.1];
            place.push((last.1 as u32, part.len() as u32));
            part.push(g);
        }
        let nodes = (ids.into_iter().zip(members))
            .map(|(node, members)| NodePart {
                node,
                slots: members.iter().map(|_| Mutex::new(Slot::Empty)).collect(),
                members,
                arrived: AtomicUsize::new(0),
                gathered: OnceLock::new(),
                woken: AtomicBool::new(false),
                taken: AtomicUsize::new(0),
            })
            .collect();
        Shared {
            op,
            root,
            red,
            world_ranks,
            instance_id,
            params: env.params,
            topo: env.topo,
            mailboxes: env.mailboxes,
            place,
            nodes,
            nodes_in: Padded::default(),
            handles: Padded::default(),
            done: OnceLock::new(),
        }
    }

    fn size(&self) -> usize {
        self.world_ranks.len()
    }

    /// The index into `nodes` of topology node `node`.
    fn part_of_node(&self, node: usize) -> usize {
        self.nodes
            .binary_search_by_key(&node, |part| part.node)
            .unwrap_or_else(|_| panic!("node {node} has no member in this collective"))
    }

    fn place(&self, group_rank: usize) -> (&NodePart, usize) {
        let (n, pos) = self.place[group_rank];
        (&self.nodes[n as usize], pos as usize)
    }

    fn gathered(&self, group_rank: usize) -> (&NodeGather, usize) {
        let (part, pos) = self.place(group_rank);
        (part.gathered.get().expect("every node gathered"), pos)
    }

    fn contrib(&self, group_rank: usize) -> &[u8] {
        let (g, pos) = self.gathered(group_rank);
        g.contrib(pos)
    }

    /// Moves the node's members' entries into one contiguous buffer; run
    /// once, by the node's last arriver.
    fn gather(part: &NodePart) {
        let m = part.members.len();
        let mut g = NodeGather {
            entries: Vec::with_capacity(m),
            bytes: Vec::new(),
            ends: Vec::with_capacity(m),
            max_len: 0,
        };
        for slot in &part.slots {
            match std::mem::replace(&mut *slot.lock(), Slot::Gathered) {
                Slot::Entered { entry, contrib } => {
                    g.entries.push(entry);
                    g.bytes.extend_from_slice(&contrib);
                    g.ends.push(g.bytes.len());
                    g.max_len = g.max_len.max(contrib.len());
                }
                _ => unreachable!("all node members arrived before the gather"),
            }
        }
        assert!(part.gathered.set(g).is_ok(), "a node is gathered once");
    }

    /// Computes every exit time and output and publishes them, then wakes
    /// one member of every other node and all of `completer`'s node — the
    /// completer too: a step that completes an instance may still test it
    /// before the exit time and park, and must then run again. Run by the
    /// last node's last arriver with **no lock held**.
    fn complete(&self, completer: usize) {
        let entries: Vec<VTime> = (0..self.size())
            .map(|g| {
                let (gathered, pos) = self.gathered(g);
                gathered.entries[pos]
            })
            .collect();
        let ctx = CollCtx {
            params: &self.params,
            topo: &self.topo,
            world_ranks: &self.world_ranks,
            instance: self.instance_id,
        };
        let exits = netmodel::exit_times(self.op, self.root, self.cost_bytes(), &entries, &ctx);
        let outputs = self.combine();
        assert!(
            self.done.set(Done { exits, outputs }).is_ok(),
            "an instance completes once"
        );
        let (own, _) = self.place[completer];
        for (n, part) in self.nodes.iter().enumerate() {
            if n != own as usize {
                self.mailboxes[part.members[0]].notify_activity();
            }
        }
        self.wake_node(&self.nodes[own as usize], None);
        flush_step_wakes();
    }

    /// Wakes every member of `part` but `except`, once per instance.
    fn wake_node(&self, part: &NodePart, except: Option<usize>) {
        if part.woken.load(Ordering::Acquire) || part.woken.swap(true, Ordering::AcqRel) {
            return;
        }
        for &g in &part.members {
            if Some(g) != except {
                self.mailboxes[g].notify_activity();
            }
        }
        flush_step_wakes();
    }

    /// The per-rank message size the cost model should see for this op.
    fn cost_bytes(&self) -> usize {
        let p = self.size();
        let max_len = || {
            self.nodes
                .iter()
                .map(|part| part.gathered.get().map_or(0, |g| g.max_len))
        };
        match self.op {
            CollOp::Barrier => 0,
            CollOp::Bcast => self.contrib(self.root).len(),
            CollOp::Scatter => self.contrib(self.root).len() / p,
            CollOp::Alltoall | CollOp::ReduceScatter => max_len().max().unwrap_or(0) / p,
            _ => max_len().max().unwrap_or(0),
        }
    }

    /// Combines the gathered contributions according to the MPI data
    /// semantics of the op. Reductions fold in group-rank order, so
    /// results are deterministic (MPI guarantees a deterministic reduction
    /// order for a given implementation; we pick canonical order).
    fn combine(&self) -> Outputs {
        let (p, root) = (self.size(), self.root);
        let fold = |mut each: Option<&mut Vec<Bytes>>| {
            let spec = self.red.expect("reduction requires RedSpec");
            let mut acc = self.contrib(0).to_vec();
            if let Some(outs) = each.as_deref_mut() {
                outs.push(Bytes::copy_from_slice(&acc));
            }
            for g in 1..p {
                spec.op.combine(&mut acc, self.contrib(g), spec.dtype);
                if let Some(outs) = each.as_deref_mut() {
                    outs.push(Bytes::copy_from_slice(&acc));
                }
            }
            Bytes::from(acc)
        };
        let blocks = |src: Bytes| {
            let block = src.len() / p;
            (0..p)
                .map(|r| src.slice(r * block..(r + 1) * block))
                .collect()
        };
        match self.op {
            CollOp::Barrier => Outputs::Same(Bytes::new()),
            CollOp::Bcast => Outputs::Same(Bytes::copy_from_slice(self.contrib(root))),
            CollOp::Allreduce => Outputs::Same(fold(None)),
            CollOp::Reduce => Outputs::Root(fold(None)),
            CollOp::Gather | CollOp::Allgather => {
                let mut cat = Vec::new();
                for g in 0..p {
                    cat.extend_from_slice(self.contrib(g));
                }
                let cat = Bytes::from(cat);
                match self.op {
                    CollOp::Allgather => Outputs::Same(cat),
                    _ => Outputs::Root(cat),
                }
            }
            CollOp::Alltoall => {
                // Every contribution is p equal blocks; output r = concat
                // of block r from every rank.
                Outputs::Each(
                    (0..p)
                        .map(|r| {
                            let mut out = Vec::new();
                            for g in 0..p {
                                let c = self.contrib(g);
                                let block = c.len() / p;
                                out.extend_from_slice(&c[r * block..(r + 1) * block]);
                            }
                            Bytes::from(out)
                        })
                        .collect(),
                )
            }
            CollOp::Scatter => Outputs::Each(blocks(Bytes::copy_from_slice(self.contrib(root)))),
            CollOp::Scan => {
                let mut outs = Vec::with_capacity(p);
                fold(Some(&mut outs));
                Outputs::Each(outs)
            }
            CollOp::ReduceScatter => Outputs::Each(blocks(fold(None))),
        }
    }
}

/// One node's handle on a collective call in flight. Any handle serves
/// any participant; a rank uses its node's, so that what a call shares
/// across workers is per node.
pub struct CollInstance {
    /// (comm, per-comm collective ordinal).
    pub key: (CommId, u64),
    /// The registry key's node: the topology node, or [`FIRST_NODE`].
    node_key: usize,
    shared: Arc<Shared>,
    /// This node's copy of an output every rank receives.
    output: OnceLock<Bytes>,
}

/// Result of one rank's participation.
#[derive(Debug, Clone)]
pub struct CollResult {
    /// Virtual time at which this rank exits the collective.
    pub exit: VTime,
    /// This rank's output payload (empty where MPI specifies none).
    pub data: Bytes,
    /// Whether this caller was the last of its node to collect: its
    /// node's handle can be retired from the registry.
    pub last: bool,
}

impl CollInstance {
    /// A fresh instance, seen through the handle of its lowest node.
    fn new(
        key: (CommId, u64),
        op: CollOp,
        root: usize,
        red: Option<RedSpec>,
        group: &Group,
        instance_id: u64,
        env: InstanceEnv,
    ) -> Self {
        let shared = Arc::new(Shared::new(op, root, red, group, instance_id, env.into()));
        CollInstance::handle(key, FIRST_NODE, shared)
    }

    fn handle(key: (CommId, u64), node_key: usize, shared: Arc<Shared>) -> Self {
        CollInstance {
            key,
            node_key,
            shared,
            output: OnceLock::new(),
        }
    }

    /// The operation of this instance.
    pub fn op(&self) -> CollOp {
        self.shared.op
    }

    /// Number of participants.
    pub fn size(&self) -> usize {
        self.shared.size()
    }

    /// Registers participant `group_rank` entering at `entry` with
    /// `contrib`. The node's last arriver gathers the node; the last
    /// node's completes the instance. The other arrivals take only their
    /// own slot's lock and bump their node's counter.
    ///
    /// # Panics
    /// Panics on double entry or on op/root/reduction mismatch across
    /// participants (erroneous MPI programs).
    pub fn enter(
        &self,
        group_rank: usize,
        entry: VTime,
        contrib: Bytes,
        op: CollOp,
        root: usize,
        red: Option<RedSpec>,
    ) {
        let sh = &*self.shared;
        assert_eq!(
            op, sh.op,
            "collective mismatch on {:?}: rank called {:?}, instance is {:?}",
            self.key, op, sh.op
        );
        assert_eq!(root, sh.root, "root mismatch on {:?} ({:?})", self.key, op);
        assert_eq!(
            red, sh.red,
            "reduction spec mismatch on {:?} ({:?})",
            self.key, op
        );
        let (part, pos) = sh.place(group_rank);
        {
            let mut slot = part.slots[pos].lock();
            assert!(
                matches!(*slot, Slot::Empty),
                "rank {group_rank} entered collective {:?} twice",
                self.key
            );
            *slot = Slot::Entered { entry, contrib };
        }
        // The slot write happens-before the increment; the node's last
        // arriver (acquire) sees every member's slot, and the completer
        // every node's gather.
        if part.arrived.fetch_add(1, Ordering::AcqRel) + 1 == part.members.len() {
            Shared::gather(part);
            if sh.nodes_in.fetch_add(1, Ordering::AcqRel) + 1 == sh.nodes.len() {
                sh.complete(group_rank);
            }
        }
    }

    /// Whether all participants have entered (the operation then has a
    /// defined completion time for each rank). One atomic load.
    pub fn is_complete(&self) -> bool {
        self.shared.done.get().is_some()
    }

    /// This rank's exit (completion) time, if the instance is complete.
    pub fn exit_of(&self, group_rank: usize) -> Option<VTime> {
        Some(self.shared.done.get()?.exits[group_rank])
    }

    /// Arrival progress: how many participants have entered so far.
    pub fn arrived(&self) -> usize {
        (self.shared.nodes.iter())
            .map(|part| part.arrived.load(Ordering::Acquire))
            .sum()
    }

    /// If the instance is complete, wakes `group_rank`'s node peers
    /// unless that was done already.
    pub(crate) fn relay(&self, group_rank: usize) {
        if self.is_complete() {
            let (part, _) = self.shared.place(group_rank);
            self.shared.wake_node(part, Some(group_rank));
        }
    }

    /// Non-blocking collection: returns the result if complete, after
    /// waking the caller's node peers if nobody has yet.
    ///
    /// # Panics
    /// Panics if `group_rank` collects twice.
    pub fn try_take(&self, group_rank: usize) -> Option<CollResult> {
        let sh = &*self.shared;
        let done = sh.done.get()?;
        let (part, pos) = sh.place(group_rank);
        {
            let mut slot = part.slots[pos].lock();
            assert!(matches!(*slot, Slot::Gathered), "rank collected twice");
            *slot = Slot::Taken;
        }
        sh.wake_node(part, Some(group_rank));
        let data = match &done.outputs {
            Outputs::Same(b) if b.is_empty() => Bytes::new(),
            Outputs::Same(b) => (self.output)
                .get_or_init(|| Bytes::copy_from_slice(b))
                .clone(),
            Outputs::Root(b) if group_rank == sh.root => b.clone(),
            Outputs::Root(_) => Bytes::new(),
            Outputs::Each(outs) => outs[group_rank].clone(),
        };
        let taken = part.taken.fetch_add(1, Ordering::AcqRel) + 1;
        Some(CollResult {
            exit: done.exits[group_rank],
            data,
            last: taken == part.members.len(),
        })
    }
}

impl std::fmt::Debug for CollInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollInstance")
            .field("key", &self.key)
            .field("op", &self.op())
            .field("p", &self.size())
            .finish()
    }
}

/// The registry node key of the handle [`CollRegistry::get_or_create`]
/// returns, which no topology node has.
const FIRST_NODE: usize = usize::MAX;

/// Number of independently-locked shards a [`CollRegistry`] spreads keys
/// over by hash: its `(comm, seq)` map, and node handles of a registry
/// that knows no topology.
const REGISTRY_SHARDS: usize = 64;

/// Most shards a [`CollRegistry`] gives to topology nodes.
const MAX_NODE_SHARDS: usize = 1024;

/// A one-multiply hasher for the registry's integer keys.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(26) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

fn hash_shard(comm: CommId, seq: u64, node: usize) -> usize {
    let h = (comm.0 ^ seq.rotate_left(17) ^ (node as u64).rotate_left(41))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % REGISTRY_SHARDS
}

type HandleShard = Padded<Mutex<KeyMap<(CommId, u64, usize), Arc<CollInstance>>>>;
type PendingShard = Padded<Mutex<KeyMap<(CommId, u64), Arc<Shared>>>>;

/// Registry of in-flight collective instances. Two sharded maps:
///
/// * node handles by `(comm, seq, node)` — every lookup of a participant
///   lands here, on its own node's entry. A registry made for a topology
///   gives its nodes shards of their own, in contiguous runs
///   (`node · shards / nodes`), as the step pool homes them: the
///   lookups of ranks on different workers never meet on one lock;
/// * the shared state by `(comm, seq)`, kept only until every node has
///   made its handle: a node's first arriver finds it there, or creates
///   it.
///
/// A node's handle is retired by its node's last collector
/// ([`CollRegistry::retire_handle`]).
pub struct CollRegistry {
    /// `node_shards` shards for topology nodes, then [`REGISTRY_SHARDS`]
    /// by hash for every other key.
    handles: Vec<HandleShard>,
    n_nodes: usize,
    node_shards: usize,
    pending: Vec<PendingShard>,
}

impl Default for CollRegistry {
    fn default() -> Self {
        CollRegistry::for_nodes(0)
    }
}

impl CollRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry for a world of `n_nodes` topology nodes.
    pub(crate) fn for_nodes(n_nodes: usize) -> Self {
        let node_shards = n_nodes.min(MAX_NODE_SHARDS);
        CollRegistry {
            handles: (0..node_shards + REGISTRY_SHARDS)
                .map(|_| Padded::default())
                .collect(),
            n_nodes,
            node_shards,
            pending: (0..REGISTRY_SHARDS).map(|_| Padded::default()).collect(),
        }
    }

    fn handle_shard(&self, (comm, seq): (CommId, u64), node: usize) -> &HandleShard {
        let i = match node {
            n if n < self.n_nodes => n * self.node_shards / self.n_nodes,
            n => self.node_shards + hash_shard(comm, seq, n),
        };
        &self.handles[i]
    }

    fn pending_shard(&self, (comm, seq): (CommId, u64)) -> &PendingShard {
        &self.pending[hash_shard(comm, seq, FIRST_NODE)]
    }

    /// Finds or creates the handle of topology node `node` on the
    /// instance for `(comm, seq)`. `env` is only invoked when this call
    /// creates the instance.
    ///
    /// # Panics
    /// Panics if no member of `group` lives on `node`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get_or_create_on(
        &self,
        key: (CommId, u64),
        node: usize,
        op: CollOp,
        root: usize,
        red: Option<RedSpec>,
        group: &Group,
        instance_id_alloc: impl FnOnce() -> u64,
        env: impl FnOnce() -> CollEnv,
    ) -> Arc<CollInstance> {
        let mut map = self.handle_shard(key, node).lock();
        if let Some(h) = map.get(&(key.0, key.1, node)) {
            return Arc::clone(h);
        }
        let shared = {
            let mut pending = self.pending_shard(key).lock();
            let shared = Arc::clone(pending.entry(key).or_insert_with(|| {
                Arc::new(Shared::new(
                    op,
                    root,
                    red,
                    group,
                    instance_id_alloc(),
                    env(),
                ))
            }));
            if shared.handles.fetch_add(1, Ordering::Relaxed) + 1 == shared.nodes.len() {
                pending.remove(&key);
            }
            shared
        };
        shared.part_of_node(node);
        let h = Arc::new(CollInstance::handle(key, node, shared));
        map.insert((key.0, key.1, node), Arc::clone(&h));
        h
    }

    /// Finds or creates the instance for `(comm, seq)`, through one
    /// handle for every caller. `env` is only invoked when this call
    /// creates the instance. Retire it with [`CollRegistry::retire`].
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_create(
        &self,
        key: (CommId, u64),
        op: CollOp,
        root: usize,
        red: Option<RedSpec>,
        group: &Group,
        instance_id_alloc: impl FnOnce() -> u64,
        env: impl FnOnce() -> InstanceEnv,
    ) -> Arc<CollInstance> {
        let mut map = self.handle_shard(key, FIRST_NODE).lock();
        Arc::clone(map.entry((key.0, key.1, FIRST_NODE)).or_insert_with(|| {
            Arc::new(CollInstance::new(
                key,
                op,
                root,
                red,
                group,
                instance_id_alloc(),
                env(),
            ))
        }))
    }

    /// Removes a node's handle, once its node's last member collected.
    pub fn retire_handle(&self, inst: &CollInstance) {
        let (comm, seq) = inst.key;
        (self.handle_shard(inst.key, inst.node_key).lock()).remove(&(comm, seq, inst.node_key));
    }

    /// Removes every entry of `(comm, seq)`.
    pub fn retire(&self, key: (CommId, u64)) {
        let first = (self.handle_shard(key, FIRST_NODE).lock())
            .remove(&(key.0, key.1, FIRST_NODE))
            .map(|h| Arc::clone(&h.shared));
        let pending = self.pending_shard(key).lock().remove(&key);
        if let Some(shared) = first.or(pending) {
            for part in &shared.nodes {
                (self.handle_shard(key, part.node).lock()).remove(&(key.0, key.1, part.node));
            }
        }
    }

    /// Number of live (not yet retired) instances — used by checkpoint
    /// invariant checks: at a safe state this must be zero.
    pub fn live_count(&self) -> usize {
        let mut keys = HashSet::new();
        for shard in &self.handles {
            keys.extend(shard.lock().keys().map(|&(comm, seq, _)| (comm, seq)));
        }
        for shard in &self.pending {
            keys.extend(shard.lock().keys().copied());
        }
        keys.len()
    }

    /// Arrival progress of an instance: `(entered, size)`, or `None` if no
    /// such instance exists (not started, or fully retired).
    pub fn progress(&self, key: (CommId, u64)) -> Option<(usize, usize)> {
        let handle = (self.handles.iter()).find_map(|shard| {
            (shard.lock().iter())
                .find(|(&(comm, seq, _), _)| (comm, seq) == key)
                .map(|(_, h)| Arc::clone(h))
        });
        let shared = match handle {
            Some(h) => Arc::clone(&h.shared),
            None => Arc::clone(self.pending_shard(key).lock().get(&key)?),
        };
        let arrived = (shared.nodes.iter())
            .map(|part| part.arrived.load(Ordering::Acquire))
            .sum();
        Some((arrived, shared.size()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::{decode_f64, encode_f64};

    fn env(p: usize) -> InstanceEnv {
        InstanceEnv {
            params: Arc::new(NetParams::ideal()),
            topo: Topology::single_node(p),
            mailboxes: (0..p).map(|_| Arc::new(Mailbox::new())).collect(),
            wake_batch: 2,
            fail: Arc::new(FailPlane::new()),
        }
    }

    fn inst(op: CollOp, p: usize, root: usize, red: Option<RedSpec>) -> CollInstance {
        CollInstance::new((CommId(0), 0), op, root, red, &Group::world(p), 1, env(p))
    }

    fn run_all(i: &CollInstance, payloads: Vec<Bytes>) -> Vec<Bytes> {
        let p = payloads.len();
        for (r, c) in payloads.into_iter().enumerate() {
            i.enter(r, VTime::ZERO, c, i.op(), i.shared.root, i.shared.red);
        }
        (0..p).map(|r| i.try_take(r).unwrap().data).collect()
    }

    #[test]
    fn bcast_data() {
        let i = inst(CollOp::Bcast, 3, 1, None);
        let outs = run_all(
            &i,
            vec![Bytes::new(), Bytes::from_static(b"abc"), Bytes::new()],
        );
        for o in outs {
            assert_eq!(o.as_ref(), b"abc");
        }
    }

    #[test]
    fn allreduce_sum() {
        let spec = RedSpec {
            dtype: DType::F64,
            op: ReduceOp::Sum,
        };
        let i = inst(CollOp::Allreduce, 4, 0, Some(spec));
        let outs = run_all(&i, (0..4).map(|r| encode_f64(&[r as f64, 1.0])).collect());
        for o in outs {
            assert_eq!(decode_f64(&o), vec![6.0, 4.0]);
        }
    }

    #[test]
    fn reduce_only_root_gets_data() {
        let spec = RedSpec {
            dtype: DType::F64,
            op: ReduceOp::Max,
        };
        let i = inst(CollOp::Reduce, 3, 2, Some(spec));
        let outs = run_all(&i, (0..3).map(|r| encode_f64(&[r as f64])).collect());
        assert!(outs[0].is_empty() && outs[1].is_empty());
        assert_eq!(decode_f64(&outs[2]), vec![2.0]);
    }

    #[test]
    fn alltoall_blocks() {
        // Rank r sends block [r*10 + j] to rank j.
        let i = inst(CollOp::Alltoall, 3, 0, None);
        let payloads: Vec<Bytes> = (0..3u8)
            .map(|r| Bytes::from(vec![r * 10, r * 10 + 1, r * 10 + 2]))
            .collect();
        let outs = run_all(&i, payloads);
        assert_eq!(outs[0].as_ref(), &[0, 10, 20]);
        assert_eq!(outs[1].as_ref(), &[1, 11, 21]);
        assert_eq!(outs[2].as_ref(), &[2, 12, 22]);
    }

    #[test]
    fn gather_allgather_scatter() {
        let i = inst(CollOp::Gather, 2, 0, None);
        let outs = run_all(
            &i,
            vec![Bytes::from_static(b"ab"), Bytes::from_static(b"cd")],
        );
        assert_eq!(outs[0].as_ref(), b"abcd");
        assert!(outs[1].is_empty());

        let i = inst(CollOp::Allgather, 2, 0, None);
        let outs = run_all(
            &i,
            vec![Bytes::from_static(b"ab"), Bytes::from_static(b"cd")],
        );
        assert_eq!(outs[0].as_ref(), b"abcd");
        assert_eq!(outs[1].as_ref(), b"abcd");

        let i = inst(CollOp::Scatter, 2, 0, None);
        let outs = run_all(&i, vec![Bytes::from_static(b"abcd"), Bytes::new()]);
        assert_eq!(outs[0].as_ref(), b"ab");
        assert_eq!(outs[1].as_ref(), b"cd");
    }

    #[test]
    fn scan_prefixes() {
        let spec = RedSpec {
            dtype: DType::F64,
            op: ReduceOp::Sum,
        };
        let i = inst(CollOp::Scan, 3, 0, Some(spec));
        let outs = run_all(&i, (0..3).map(|r| encode_f64(&[(r + 1) as f64])).collect());
        assert_eq!(decode_f64(&outs[0]), vec![1.0]);
        assert_eq!(decode_f64(&outs[1]), vec![3.0]);
        assert_eq!(decode_f64(&outs[2]), vec![6.0]);
    }

    #[test]
    fn reduce_scatter_blocks() {
        let spec = RedSpec {
            dtype: DType::F64,
            op: ReduceOp::Sum,
        };
        let i = inst(CollOp::ReduceScatter, 2, 0, Some(spec));
        let outs = run_all(&i, vec![encode_f64(&[1.0, 2.0]), encode_f64(&[10.0, 20.0])]);
        assert_eq!(decode_f64(&outs[0]), vec![11.0]);
        assert_eq!(decode_f64(&outs[1]), vec![22.0]);
    }

    #[test]
    fn exits_reflect_entries() {
        let i = inst(CollOp::Barrier, 2, 0, None);
        i.enter(
            0,
            VTime::from_micros(5.0),
            Bytes::new(),
            CollOp::Barrier,
            0,
            None,
        );
        assert!(!i.is_complete());
        i.enter(
            1,
            VTime::from_micros(9.0),
            Bytes::new(),
            CollOp::Barrier,
            0,
            None,
        );
        assert!(i.is_complete());
        // Ideal network: exits == max(entries).
        assert_eq!(i.exit_of(0).unwrap(), VTime::from_micros(9.0));
        let r0 = i.try_take(0).unwrap();
        assert!(!r0.last);
        let r1 = i.try_take(1).unwrap();
        assert!(r1.last);
    }

    #[test]
    #[should_panic(expected = "collective mismatch")]
    fn op_mismatch_detected() {
        let i = inst(CollOp::Barrier, 2, 0, None);
        i.enter(0, VTime::ZERO, Bytes::new(), CollOp::Barrier, 0, None);
        i.enter(1, VTime::ZERO, Bytes::new(), CollOp::Bcast, 0, None);
    }

    #[test]
    #[should_panic(expected = "entered collective")]
    fn double_entry_detected() {
        let i = inst(CollOp::Barrier, 2, 0, None);
        i.enter(0, VTime::ZERO, Bytes::new(), CollOp::Barrier, 0, None);
        i.enter(0, VTime::ZERO, Bytes::new(), CollOp::Barrier, 0, None);
    }

    #[test]
    fn registry_lifecycle() {
        let reg = CollRegistry::new();
        let g = Group::world(2);
        let key = (CommId(0), 7);
        let a = reg.get_or_create(key, CollOp::Barrier, 0, None, &g, || 1, || env(2));
        let b = reg.get_or_create(key, CollOp::Barrier, 0, None, &g, || 2, || env(2));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.live_count(), 1);
        reg.retire(key);
        assert_eq!(reg.live_count(), 0);
    }

    #[test]
    fn registry_shards_agree_across_keys() {
        // Keys landing in different shards must still behave like one map.
        let reg = CollRegistry::new();
        let g = Group::world(2);
        let keys: Vec<(CommId, u64)> = (0..64).map(|i| (CommId(i % 5), i)).collect();
        for &key in &keys {
            let _ = reg.get_or_create(key, CollOp::Barrier, 0, None, &g, || key.1, || env(2));
        }
        assert_eq!(reg.live_count(), keys.len());
        for &key in &keys {
            assert_eq!(reg.progress(key), Some((0, 2)));
            reg.retire(key);
        }
        assert_eq!(reg.live_count(), 0);
        assert_eq!(reg.progress(keys[0]), None);
    }

    #[test]
    fn completion_pokes_participant_mailboxes() {
        // Activity-token waits must observe a collective completion the
        // same way they observe a deposit: the completing enter() bumps
        // every participant's mailbox generation.
        let e = env(2);
        let mb0 = Arc::clone(&e.mailboxes[0]);
        let i = CollInstance::new(
            (CommId(0), 0),
            CollOp::Barrier,
            0,
            None,
            &Group::world(2),
            1,
            e,
        );
        let token = mb0.activity.token();
        i.enter(0, VTime::ZERO, Bytes::new(), CollOp::Barrier, 0, None);
        assert_eq!(mb0.activity.token(), token, "no poke before completion");
        i.enter(1, VTime::ZERO, Bytes::new(), CollOp::Barrier, 0, None);
        assert_ne!(
            mb0.activity.token(),
            token,
            "completion must poke mailboxes"
        );
    }

    /// An `n`-rank world on nodes of `rpn`, its mailboxes bare.
    fn env_nodes(n: usize, rpn: usize) -> InstanceEnv {
        InstanceEnv {
            topo: Topology::new(n, rpn),
            ..env(n)
        }
    }

    #[test]
    fn node_handles_share_one_instance_and_retire_per_node() {
        // 8 ranks on 4 nodes of 2: one handle per node, one instance
        // behind them, the sum folded in group-rank order, and every
        // node's handle retired by its last collector.
        let (reg, g, key) = (CollRegistry::new(), Group::world(8), (CommId(3), 1));
        let spec = Some(RedSpec {
            dtype: DType::F64,
            op: ReduceOp::Sum,
        });
        let xs: Vec<f64> = (0..8).map(|r| 0.1 * (r + 1) as f64).collect();
        let handle = |r: usize| {
            reg.get_or_create_on(
                key,
                r / 2,
                CollOp::Allreduce,
                0,
                spec,
                &g,
                || 9,
                || env_nodes(8, 2).into(),
            )
        };
        let handles: Vec<_> = (0..8).map(handle).collect();
        for r in 0..8 {
            assert!(Arc::ptr_eq(&handles[r], &handles[r ^ 1]));
            assert!(!Arc::ptr_eq(&handles[r], &handles[(r + 2) % 8]));
            handles[r].enter(
                r,
                VTime::ZERO,
                encode_f64(&[xs[r]]),
                CollOp::Allreduce,
                0,
                spec,
            );
        }
        assert_eq!(reg.live_count(), 1);
        let flat = xs[1..].iter().fold(xs[0], |acc, x| acc + x);
        for (r, h) in handles.iter().enumerate() {
            let res = h.try_take(r).expect("complete");
            assert_eq!(decode_f64(&res.data)[0].to_bits(), flat.to_bits());
            assert_eq!(
                res.last,
                r % 2 == 1,
                "each node's second collector is its last"
            );
            if res.last {
                reg.retire_handle(h);
            }
        }
        assert_eq!(reg.live_count(), 0);
    }

    #[test]
    fn completion_wakes_one_member_per_node_and_it_wakes_the_rest() {
        // 8 ranks on 4 nodes of 2; rank 0 completes. Its own node is
        // woken whole, itself included; every other node only at its
        // first member, which passes the wake on when it relays or
        // collects.
        let e = env_nodes(8, 2);
        let mbs = e.mailboxes.clone();
        let i = CollInstance::new(
            (CommId(0), 0),
            CollOp::Barrier,
            0,
            None,
            &Group::world(8),
            1,
            e,
        );
        let tokens: Vec<u64> = mbs.iter().map(|mb| mb.activity.token()).collect();
        let woken = |r: usize| mbs[r].activity.token() != tokens[r];
        for r in (0..8).rev() {
            i.enter(r, VTime::ZERO, Bytes::new(), CollOp::Barrier, 0, None);
        }
        assert_eq!(
            (0..8).map(woken).collect::<Vec<_>>(),
            [true, true, true, false, true, false, true, false]
        );
        i.relay(2);
        assert!(woken(3), "the woken member wakes its node");
        assert!(!woken(5));
        let _ = i.try_take(4).expect("complete");
        assert!(woken(5), "a collector wakes its node");
        i.relay(6);
        assert!(woken(7));
    }

    #[test]
    fn concurrent_waiters_all_drain() {
        // Every participant of a wide instance asleep on its own mailbox's
        // activity token is woken by the completion poke and collects its
        // result through `try_take` — the wait `Ctx::wait` performs.
        let p = 32;
        let e = env(p);
        let mailboxes = e.mailboxes.clone();
        let i = Arc::new(CollInstance::new(
            (CommId(0), 0),
            CollOp::Barrier,
            0,
            None,
            &Group::world(p),
            1,
            e,
        ));
        let take_when_poked = |i: &CollInstance, mb: &Mailbox, r: usize| loop {
            let token = mb.activity.token();
            if let Some(res) = i.try_take(r) {
                break res.exit;
            }
            assert!(
                mb.activity
                    .wait_since(token, std::time::Duration::from_secs(10)),
                "completion never poked participant {r}"
            );
        };
        let mut handles = Vec::new();
        for (r, mb) in mailboxes.iter().enumerate().skip(1) {
            let i = Arc::clone(&i);
            let mb = Arc::clone(mb);
            handles.push(std::thread::spawn(move || {
                i.enter(r, VTime::ZERO, Bytes::new(), CollOp::Barrier, 0, None);
                take_when_poked(&i, &mb, r)
            }));
        }
        // Give waiters a moment to park, then complete the instance.
        std::thread::sleep(std::time::Duration::from_millis(20));
        i.enter(0, VTime::ZERO, Bytes::new(), CollOp::Barrier, 0, None);
        let exit0 = take_when_poked(&i, &mailboxes[0], 0);
        for h in handles {
            assert_eq!(h.join().unwrap(), exit0);
        }
    }
}
