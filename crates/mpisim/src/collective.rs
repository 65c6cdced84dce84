//! Collective rendezvous instances: the data plane and timing plane of
//! every blocking or non-blocking collective call.
//!
//! Each collective call on a communicator is identified by `(comm id,
//! per-comm sequence)` — MPI requires all members to issue collectives on a
//! communicator in the same order, so local counters agree globally. The
//! first participant to arrive creates the [`CollInstance`]; the last one
//! *completes* it: it computes every participant's exit time with the
//! [`netmodel`] cost model and combines the data contributions.
//!
//! ## Scaling shape (the 4096-rank rendezvous)
//!
//! At paper scale the rendezvous itself is the serial section, so the
//! instance is built to keep the per-participant critical path O(1):
//!
//! * **Arrival** takes no shared lock: each participant writes its entry
//!   time and contribution into its *own* slot (a per-slot mutex nobody
//!   else touches until completion) and announces itself on an atomic
//!   arrival counter.
//! * **Completion** (the last arriver) extracts the entries, computes
//!   every exit time and combines the data **outside any shared lock** —
//!   with 4095 ranks parked, holding a lock across an O(p) cost-model
//!   evaluation would serialize the whole world behind it — then writes
//!   each rank's result back into that rank's slot.
//! * **Completion is announced one way**: it pokes every participant's
//!   mailbox activity token. Blocking waiters ([`crate::Ctx::wait`]),
//!   slotless pollers (`Test` loops, `park_briefly`) and driven ranks
//!   (through the mailbox waker) all learn about it the way they learn
//!   about a deposit; the instance itself has nothing to sleep on.
//! * **Instance lookup is sharded**: the registry spreads `(comm, seq)`
//!   keys over independently-locked shards instead of funneling every
//!   arrival in the world through one registry mutex.
//!
//! Every caller holds the instance inside an `MPI_Request` and completes
//! it with `test`/`wait` — once all participants have *initiated*, the
//! operation completes "in background" at its modelled time, independent of
//! further MPI activity, exactly the progress guarantee of MPI Example 6.36
//! that the paper's §4.3 relies on.

use crate::dtype::DType;
use crate::fail::FailPlane;
use crate::group::Group;
use crate::mailbox::Mailbox;
use crate::reduce_op::ReduceOp;
use crate::types::CommId;
use bytes::Bytes;
use netmodel::collectives::CollCtx;
use netmodel::{CollOp, NetParams, Topology, VTime};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Reduction specification for reducing collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedSpec {
    /// Element type.
    pub dtype: DType,
    /// Operator.
    pub op: ReduceOp,
}

/// What a [`CollInstance`] needs from the world it runs in. Bundled so the
/// registry can build instances lazily (the environment is only gathered
/// when the first participant actually creates the instance).
pub struct InstanceEnv {
    /// Network cost parameters.
    pub params: Arc<NetParams>,
    /// Topology for the cost model.
    pub topo: Topology,
    /// Participant mailboxes in group order, poked at completion so
    /// activity-token waits observe collective completions.
    pub mailboxes: Vec<Arc<Mailbox>>,
    /// Unused — completion pokes the mailboxes above and that is the
    /// only wake — but the frozen benchmark builds this struct by literal;
    /// goes with ROADMAP item 1(d).
    pub wake_batch: usize,
    /// Unused, like `wake_batch`: a waiter's poison check is in
    /// [`crate::Ctx::wait`].
    pub fail: Arc<FailPlane>,
}

/// One participant's slot: written by its own rank at entry, harvested and
/// rewritten by the completing rank, collected once by its own rank.
enum Slot {
    /// Not yet entered.
    Empty,
    /// Entered; completion has not run.
    Entered { entry: VTime, contrib: Bytes },
    /// Mid-completion marker (entry harvested, result not yet written).
    Completing,
    /// Complete: this rank's exit time and collectable output.
    Done { exit: VTime, data: Option<Bytes> },
}

/// One collective call in flight.
pub struct CollInstance {
    /// (comm, per-comm collective ordinal).
    pub key: (CommId, u64),
    op: CollOp,
    root: usize,
    red: Option<RedSpec>,
    /// The group's interned member list (shared, never copied per call).
    world_ranks: Arc<[usize]>,
    instance_id: u64,
    params: Arc<NetParams>,
    topo: Topology,
    /// Per-participant slots (see [`Slot`]); each mutex is effectively
    /// uncontended — its own rank and the completer are the only lockers.
    slots: Vec<Mutex<Slot>>,
    /// Arrival counter; the participant that brings it to `size()`
    /// completes the instance.
    arrived: AtomicUsize,
    /// Set (release) once every slot holds its `Done` result.
    completed: AtomicBool,
    /// Results collected so far; the collector that brings it to `size()`
    /// is `last` and retires the instance.
    taken: AtomicUsize,
    /// Participant mailboxes, poked at completion.
    mailboxes: Vec<Arc<Mailbox>>,
}

/// Result of one rank's participation.
#[derive(Debug, Clone)]
pub struct CollResult {
    /// Virtual time at which this rank exits the collective.
    pub exit: VTime,
    /// This rank's output payload (empty where MPI specifies none).
    pub data: Bytes,
    /// Whether this caller was the last to collect (instance can be
    /// retired from the registry).
    pub last: bool,
}

impl CollInstance {
    fn new(
        key: (CommId, u64),
        op: CollOp,
        root: usize,
        red: Option<RedSpec>,
        group: &Group,
        instance_id: u64,
        env: InstanceEnv,
    ) -> Self {
        let p = group.size();
        assert_eq!(
            env.mailboxes.len(),
            p,
            "instance environment must carry one mailbox per participant"
        );
        CollInstance {
            key,
            op,
            root,
            red,
            world_ranks: group.members_shared(),
            instance_id,
            params: env.params,
            topo: env.topo,
            slots: (0..p).map(|_| Mutex::new(Slot::Empty)).collect(),
            arrived: AtomicUsize::new(0),
            completed: AtomicBool::new(false),
            taken: AtomicUsize::new(0),
            mailboxes: env.mailboxes,
        }
    }

    /// The operation of this instance.
    pub fn op(&self) -> CollOp {
        self.op
    }

    /// Number of participants.
    pub fn size(&self) -> usize {
        self.world_ranks.len()
    }

    /// Registers participant `group_rank` entering at `entry` with
    /// `contrib`. Completes the instance if this is the last participant.
    /// The non-completing path takes no shared lock: one (private) slot
    /// write plus one atomic increment.
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
        assert_eq!(
            op, self.op,
            "collective mismatch on {:?}: rank called {:?}, instance is {:?}",
            self.key, op, self.op
        );
        assert_eq!(
            root, self.root,
            "root mismatch on {:?} ({:?})",
            self.key, self.op
        );
        assert_eq!(
            red, self.red,
            "reduction spec mismatch on {:?} ({:?})",
            self.key, self.op
        );
        {
            let mut slot = self.slots[group_rank].lock();
            assert!(
                matches!(*slot, Slot::Empty),
                "rank {group_rank} entered collective {:?} twice",
                self.key
            );
            *slot = Slot::Entered { entry, contrib };
        }
        // The slot write happens-before the increment; the completing
        // participant's (acquire) read of `size()` therefore sees every
        // slot populated.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.size() {
            self.complete();
        }
    }

    /// Whether all participants have entered (the operation then has a
    /// defined completion time for each rank). One atomic load.
    pub fn is_complete(&self) -> bool {
        self.completed.load(Ordering::Acquire)
    }

    /// This rank's exit (completion) time, if the instance is complete.
    pub fn exit_of(&self, group_rank: usize) -> Option<VTime> {
        match *self.slots[group_rank].lock() {
            Slot::Done { exit, .. } => Some(exit),
            _ => None,
        }
    }

    /// Arrival progress: how many participants have entered so far.
    pub fn arrived(&self) -> usize {
        self.arrived.load(Ordering::Acquire)
    }

    /// Non-blocking collection: returns the result if complete.
    pub fn try_take(&self, group_rank: usize) -> Option<CollResult> {
        if !self.is_complete() {
            return None;
        }
        Some(self.take_from_slot(group_rank))
    }

    /// Collects this rank's result from its slot. Caller must have
    /// observed [`CollInstance::is_complete`].
    fn take_from_slot(&self, group_rank: usize) -> CollResult {
        let (exit, data) = {
            let mut slot = self.slots[group_rank].lock();
            match &mut *slot {
                Slot::Done { exit, data } => (*exit, data.take().expect("rank collected twice")),
                _ => unreachable!("slot not complete after is_complete()"),
            }
        };
        let t = self.taken.fetch_add(1, Ordering::AcqRel) + 1;
        CollResult {
            exit,
            data,
            last: t == self.size(),
        }
    }

    /// Computes exits and combined outputs. Run by the last-arriving
    /// participant with **no shared lock held**: it is the only thread
    /// that harvests `Entered` slots and the only writer of `Done` slots
    /// until `completed` is published, so the O(p) cost-model evaluation
    /// and data combine never block arrivals, polls, or the registry.
    fn complete(&self) {
        let p = self.size();
        let mut entries = Vec::with_capacity(p);
        let mut contribs = Vec::with_capacity(p);
        for slot in &self.slots {
            match std::mem::replace(&mut *slot.lock(), Slot::Completing) {
                Slot::Entered { entry, contrib } => {
                    entries.push(entry);
                    contribs.push(contrib);
                }
                _ => unreachable!("all participants arrived before completion"),
            }
        }
        let bytes = self.cost_bytes(&contribs);
        let ctx = CollCtx {
            params: &self.params,
            topo: &self.topo,
            world_ranks: &self.world_ranks,
            instance: self.instance_id,
        };
        let exits = netmodel::exit_times(self.op, self.root, bytes, &entries, &ctx);
        let outputs = combine(self.op, self.root, self.red, &contribs);
        for ((slot, exit), output) in self.slots.iter().zip(exits).zip(outputs) {
            *slot.lock() = Slot::Done {
                exit,
                data: Some(output),
            };
        }
        self.completed.store(true, Ordering::Release);
        // Poke every participant's mailbox: the one wake of a completion,
        // whatever the participant is sleeping in.
        for mb in &self.mailboxes {
            mb.notify_activity();
        }
    }

    /// The per-rank message size the cost model should see for this op.
    fn cost_bytes(&self, contribs: &[Bytes]) -> usize {
        let p = contribs.len().max(1);
        match self.op {
            CollOp::Barrier => 0,
            CollOp::Bcast => contribs[self.root].len(),
            CollOp::Scatter => contribs[self.root].len() / p,
            CollOp::Alltoall | CollOp::ReduceScatter => {
                contribs.iter().map(Bytes::len).max().unwrap_or(0) / p
            }
            _ => contribs.iter().map(Bytes::len).max().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for CollInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollInstance")
            .field("key", &self.key)
            .field("op", &self.op)
            .field("p", &self.size())
            .finish()
    }
}

/// Combines contributions into per-rank outputs according to the MPI data
/// semantics of `op`.
///
/// Reductions are applied in group-rank order, so results are deterministic
/// (MPI guarantees a deterministic reduction order for a given
/// implementation; we pick canonical order).
fn combine(op: CollOp, root: usize, red: Option<RedSpec>, contribs: &[Bytes]) -> Vec<Bytes> {
    let p = contribs.len();
    let empty = || Bytes::new();
    match op {
        CollOp::Barrier => vec![empty(); p],
        CollOp::Bcast => vec![contribs[root].clone(); p],
        CollOp::Reduce | CollOp::Allreduce => {
            let spec = red.expect("reduction requires RedSpec");
            let mut acc = contribs[0].to_vec();
            for c in &contribs[1..] {
                spec.op.combine(&mut acc, c, spec.dtype);
            }
            let combined = Bytes::from(acc);
            if op == CollOp::Allreduce {
                vec![combined; p]
            } else {
                (0..p)
                    .map(|r| if r == root { combined.clone() } else { empty() })
                    .collect()
            }
        }
        CollOp::Gather | CollOp::Allgather => {
            let mut cat = Vec::with_capacity(contribs.iter().map(Bytes::len).sum());
            for c in contribs {
                cat.extend_from_slice(c);
            }
            let cat = Bytes::from(cat);
            if op == CollOp::Allgather {
                vec![cat; p]
            } else {
                (0..p)
                    .map(|r| if r == root { cat.clone() } else { empty() })
                    .collect()
            }
        }
        CollOp::Alltoall => {
            // Every contribution is p equal blocks; output r = concat of
            // block r from every rank.
            (0..p)
                .map(|r| {
                    let mut out = Vec::new();
                    for c in contribs {
                        let block = c.len() / p;
                        out.extend_from_slice(&c[r * block..(r + 1) * block]);
                    }
                    Bytes::from(out)
                })
                .collect()
        }
        CollOp::Scatter => {
            let src = &contribs[root];
            let block = src.len() / p;
            (0..p)
                .map(|r| src.slice(r * block..(r + 1) * block))
                .collect()
        }
        CollOp::Scan => {
            let spec = red.expect("scan requires RedSpec");
            let mut acc = contribs[0].to_vec();
            let mut outs = Vec::with_capacity(p);
            outs.push(Bytes::from(acc.clone()));
            for c in &contribs[1..] {
                spec.op.combine(&mut acc, c, spec.dtype);
                outs.push(Bytes::from(acc.clone()));
            }
            outs
        }
        CollOp::ReduceScatter => {
            let spec = red.expect("reduce_scatter requires RedSpec");
            let mut acc = contribs[0].to_vec();
            for c in &contribs[1..] {
                spec.op.combine(&mut acc, c, spec.dtype);
            }
            let combined = Bytes::from(acc);
            let block = combined.len() / p;
            (0..p)
                .map(|r| combined.slice(r * block..(r + 1) * block))
                .collect()
        }
    }
}

/// Number of independently-locked shards in a [`CollRegistry`]. With one
/// global map mutex, every collective arrival in the world (plus every
/// retire) funnels through a single lock — at 4096 ranks that lookup is a
/// serial section in front of the rendezvous itself. Shards spread
/// `(comm, seq)` keys so concurrent collectives on different keys never
/// contend.
const REGISTRY_SHARDS: usize = 16;

/// One independently-locked slice of the registry map.
type RegistryShard = Mutex<HashMap<(CommId, u64), Arc<CollInstance>>>;

/// Registry of in-flight collective instances, keyed by `(comm, seq)` and
/// sharded by key hash.
pub struct CollRegistry {
    shards: Vec<RegistryShard>,
}

impl Default for CollRegistry {
    fn default() -> Self {
        CollRegistry {
            shards: (0..REGISTRY_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }
}

impl CollRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, key: &(CommId, u64)) -> &RegistryShard {
        let h = (key.0 .0 ^ key.1.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize % REGISTRY_SHARDS]
    }

    /// Finds or creates the instance for `(comm, seq)`. `env` is only
    /// invoked when this call actually creates the instance.
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
        let mut map = self.shard(&key).lock();
        Arc::clone(map.entry(key).or_insert_with(|| {
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

    /// Removes a fully collected instance.
    pub fn retire(&self, key: (CommId, u64)) {
        self.shard(&key).lock().remove(&key);
    }

    /// Number of live (not yet retired) instances — used by checkpoint
    /// invariant checks: at a safe state this must be zero.
    pub fn live_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Arrival progress of an instance: `(entered, size)`, or `None` if no
    /// such instance exists. Used by the 2PC coordinator to decide whether
    /// a trivial barrier can still complete.
    pub fn progress(&self, key: (CommId, u64)) -> Option<(usize, usize)> {
        let map = self.shard(&key).lock();
        let inst = map.get(&key)?;
        Some((inst.arrived(), inst.size()))
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
            i.enter(r, VTime::ZERO, c, i.op(), i.root, i.red);
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
        let token = mb0.activity_token();
        i.enter(0, VTime::ZERO, Bytes::new(), CollOp::Barrier, 0, None);
        assert_eq!(mb0.activity_token(), token, "no poke before completion");
        i.enter(1, VTime::ZERO, Bytes::new(), CollOp::Barrier, 0, None);
        assert_ne!(
            mb0.activity_token(),
            token,
            "completion must poke mailboxes"
        );
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
            let token = mb.activity_token();
            if let Some(res) = i.try_take(r) {
                break res.exit;
            }
            assert!(
                mb.wait_activity_since(token, std::time::Duration::from_secs(10)),
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
