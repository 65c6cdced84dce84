//! Per-operation exit-time models for MPI collectives.
//!
//! Given the virtual times at which every participant *entered* a collective
//! call, these models compute the virtual time at which each participant
//! *exits*. The models follow the textbook algorithms the major MPI
//! implementations use (binomial trees, recursive doubling, Bruck, ring,
//! pairwise exchange), parameterized by the hierarchical latency/bandwidth
//! of [`crate::NetParams`] and [`crate::Topology`].
//!
//! ## Why per-operation fidelity matters for this paper
//!
//! The CLUSTER'24 paper's central performance claim (Figure 5a) is that
//! MANA's old 2PC protocol — which inserts a barrier in front of every
//! collective — is catastrophic for **non-synchronizing** collectives like
//! `MPI_Bcast` (the root normally exits long before the leaves, and
//! back-to-back broadcasts pipeline down the tree), yet almost free for
//! **synchronizing** collectives like `MPI_Alltoall` (participants are
//! already forced to meet). These models reproduce both behaviours:
//!
//! * [`CollOp::Bcast`]/[`CollOp::Scatter`]: tree models where the root's
//!   exit does not depend on the leaves' entries.
//! * [`CollOp::Barrier`], [`CollOp::Allreduce`], [`CollOp::Alltoall`],
//!   [`CollOp::Allgather`], [`CollOp::ReduceScatter`]: synchronizing models
//!   whose cost includes `max(entries)` — so per-rank OS jitter is amplified
//!   by the expected maximum over `p` samples (straggler effect).

use crate::time::VTime;
use crate::{NetParams, Topology};

/// The collective operations modelled by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollOp {
    /// `MPI_Barrier` — dissemination algorithm, synchronizing by definition.
    Barrier,
    /// `MPI_Bcast` — binomial tree, *non-synchronizing* (root exits early).
    Bcast,
    /// `MPI_Reduce` — reverse binomial tree; non-roots exit after their send.
    Reduce,
    /// `MPI_Allreduce` — recursive doubling, synchronizing.
    Allreduce,
    /// `MPI_Gather` — reverse binomial tree, sizes grow toward the root.
    Gather,
    /// `MPI_Allgather` — ring, synchronizing.
    Allgather,
    /// `MPI_Alltoall` — Bruck for small payloads, pairwise for large;
    /// effectively synchronizing.
    Alltoall,
    /// `MPI_Scatter` — binomial tree, sizes shrink away from the root.
    Scatter,
    /// `MPI_Scan` — prefix tree; rank `i` waits only on ranks `<= i`.
    Scan,
    /// `MPI_Reduce_scatter` — Rabenseifner-style, synchronizing.
    ReduceScatter,
}

impl CollOp {
    /// Whether the *model* forces every participant to wait for every other
    /// (i.e., exit ≥ max of all entries). Per the MPI standard all
    /// collectives *may* synchronize and portable programs must assume they
    /// do (paper §3); this flag describes the typical implementation used
    /// for performance accounting only — the checkpoint protocols never rely
    /// on it.
    pub fn is_synchronizing(self) -> bool {
        matches!(
            self,
            CollOp::Barrier
                | CollOp::Allreduce
                | CollOp::Allgather
                | CollOp::Alltoall
                | CollOp::ReduceScatter
        )
    }

    /// All modelled operations (used by sweep harnesses and property tests).
    pub const ALL: [CollOp; 10] = [
        CollOp::Barrier,
        CollOp::Bcast,
        CollOp::Reduce,
        CollOp::Allreduce,
        CollOp::Gather,
        CollOp::Allgather,
        CollOp::Alltoall,
        CollOp::Scatter,
        CollOp::Scan,
        CollOp::ReduceScatter,
    ];
}

/// Context for one collective-instance cost evaluation.
pub struct CollCtx<'a> {
    /// Network parameters.
    pub params: &'a NetParams,
    /// Cluster topology.
    pub topo: &'a Topology,
    /// Group rank → world rank.
    pub world_ranks: &'a [usize],
    /// Unique id of this collective instance (jitter key).
    pub instance: u64,
}

impl CollCtx<'_> {
    fn p(&self) -> usize {
        self.world_ranks.len()
    }

    /// Blended one-way latency for this group (intra/inter mix).
    fn alpha_blend(&self) -> f64 {
        let f = self.topo.inter_node_fraction(self.world_ranks);
        f * self.params.alpha_inter + (1.0 - f) * self.params.alpha_intra
    }

    /// Blended per-byte cost for this group.
    fn beta_blend(&self) -> f64 {
        let f = self.topo.inter_node_fraction(self.world_ranks);
        f * self.params.beta_inter + (1.0 - f) * self.params.beta_intra
    }

    fn jitter(&self, group_rank: usize) -> f64 {
        self.params
            .jitter(self.instance, self.world_ranks[group_rank])
    }

    fn rounds(&self) -> usize {
        let p = self.p();
        if p <= 1 {
            0
        } else {
            usize::BITS as usize - (p - 1).leading_zeros() as usize
        }
    }
}

/// Computes per-participant exit times for one collective call.
///
/// * `root` — group rank of the root (ignored by rootless operations).
/// * `bytes` — per-rank payload size in bytes (the "message size" in OSU
///   terms: bcast total size, alltoall per-destination block, …).
/// * `entries[i]` — virtual time at which group rank `i` entered the call.
///
/// Guarantees, checked by tests: `exit[i] >= entries[i]` for every rank, and
/// for synchronizing operations `exit[i] >= max(entries)`.
///
/// # Panics
/// Panics if `entries.len() != ctx.world_ranks.len()` or `root` is out of
/// range.
pub fn exit_times(
    op: CollOp,
    root: usize,
    bytes: usize,
    entries: &[VTime],
    ctx: &CollCtx<'_>,
) -> Vec<VTime> {
    let p = ctx.p();
    assert_eq!(entries.len(), p, "one entry time per participant");
    assert!(root < p, "root {root} out of range for group of {p}");
    if p == 1 {
        // Self-collective: pure local cost.
        let t = entries[0].plus_secs(ctx.params.send_overhead);
        return vec![t];
    }
    let mut exits = match op {
        CollOp::Barrier => barrier_model(entries, ctx),
        CollOp::Bcast => tree_distribute(root, |_sub| bytes, entries, ctx),
        CollOp::Scatter => tree_distribute(root, |sub| sub * bytes, entries, ctx),
        CollOp::Reduce => tree_collect(root, |_sub| bytes, true, entries, ctx),
        CollOp::Gather => tree_collect(root, |sub| sub * bytes, false, entries, ctx),
        CollOp::Allreduce => synchronized(entries, ctx, allreduce_cost(bytes, ctx)),
        CollOp::Allgather => synchronized(entries, ctx, allgather_cost(bytes, ctx)),
        CollOp::Alltoall => synchronized(entries, ctx, alltoall_cost(bytes, ctx)),
        CollOp::ReduceScatter => synchronized(entries, ctx, reduce_scatter_cost(bytes, ctx)),
        CollOp::Scan => scan_model(bytes, entries, ctx),
    };
    // Per-rank OS jitter on exit, plus safety clamp to entry times.
    for (i, e) in exits.iter_mut().enumerate() {
        *e = (*e).max(entries[i]).plus_secs(ctx.jitter(i));
    }
    exits
}

/// Dissemination barrier: ⌈log2 p⌉ rounds; every rank both sends and
/// receives each round, so nobody proceeds past round `k` until everyone
/// finished round `k-1`. Cost ≈ max(entries) + rounds · (overhead + α).
fn barrier_model(entries: &[VTime], ctx: &CollCtx<'_>) -> Vec<VTime> {
    let t = VTime::max_of(entries.iter().copied())
        .plus_secs(ctx.rounds() as f64 * (ctx.params.send_overhead + ctx.alpha_blend()));
    vec![t; entries.len()]
}

/// Synchronizing op with a single completion cost: everyone exits at
/// `max(entries) + cost`.
fn synchronized(entries: &[VTime], _ctx: &CollCtx<'_>, cost: f64) -> Vec<VTime> {
    let t = VTime::max_of(entries.iter().copied()).plus_secs(cost);
    vec![t; entries.len()]
}

/// Recursive doubling: ⌈log2 p⌉ rounds of (exchange + local reduction).
fn allreduce_cost(bytes: usize, ctx: &CollCtx<'_>) -> f64 {
    ctx.rounds() as f64
        * (ctx.params.send_overhead
            + ctx.alpha_blend()
            + bytes as f64 * (ctx.beta_blend() + ctx.params.gamma_reduce))
}

/// Ring allgather: p−1 steps, each forwarding one rank's block.
fn allgather_cost(bytes: usize, ctx: &CollCtx<'_>) -> f64 {
    (ctx.p() - 1) as f64
        * (ctx.params.send_overhead + ctx.alpha_blend() + bytes as f64 * ctx.beta_blend())
}

/// Alltoall: Bruck for small blocks (log rounds moving p/2 blocks each,
/// with per-block pack/unpack CPU cost), pairwise exchange for large blocks.
fn alltoall_cost(bytes: usize, ctx: &CollCtx<'_>) -> f64 {
    let p = ctx.p() as f64;
    let pack = 8e-9 + bytes as f64 * ctx.params.beta_intra; // per-block copy
    if bytes <= 4096 {
        // Bruck: ⌈log2 p⌉ rounds; each round aggregates ~p/2 blocks.
        ctx.rounds() as f64
            * (ctx.params.send_overhead
                + ctx.alpha_blend()
                + (p / 2.0) * (pack + bytes as f64 * ctx.beta_blend() * 0.5))
    } else {
        // Pairwise: p−1 exchanges of one block each.
        (p - 1.0) * (ctx.params.send_overhead + ctx.alpha_blend() + bytes as f64 * ctx.beta_blend())
    }
}

/// Rabenseifner-style reduce_scatter: log α-term plus ~2·(p−1)/p bandwidth
/// and reduction terms over the full vector (`p · bytes`).
fn reduce_scatter_cost(bytes: usize, ctx: &CollCtx<'_>) -> f64 {
    let p = ctx.p() as f64;
    let total = p * bytes as f64;
    ctx.rounds() as f64 * (ctx.params.send_overhead + ctx.alpha_blend())
        + ((p - 1.0) / p) * total * (ctx.beta_blend() + ctx.params.gamma_reduce)
}

/// Scan: rank `i` depends only on ranks `0..=i`; prefix-tree latency grows
/// with log of the prefix length.
fn scan_model(bytes: usize, entries: &[VTime], ctx: &CollCtx<'_>) -> Vec<VTime> {
    let per_round = ctx.params.send_overhead
        + ctx.alpha_blend()
        + bytes as f64 * (ctx.beta_blend() + ctx.params.gamma_reduce);
    let mut prefix_max = VTime::ZERO;
    entries
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            prefix_max = prefix_max.max(e);
            let rounds = usize::BITS as usize - i.leading_zeros() as usize; // ⌈log2(i+1)⌉
            prefix_max.plus_secs(rounds as f64 * per_round)
        })
        .collect()
}

/// `(v + root) mod p` for `v, root < p`, without a division.
#[inline]
fn rotate(v: usize, root: usize, p: usize) -> usize {
    let a = v + root;
    if a >= p {
        a - p
    } else {
        a
    }
}

/// Binomial-tree distribution (bcast/scatter). `size_of(subtree)` gives the
/// bytes sent to a child that roots a subtree of that many ranks.
///
/// The root exits after posting its sends — it never waits for the leaves.
/// Each child's forwarding starts at `max(arrival, its own entry)`, so
/// back-to-back broadcasts pipeline: in steady state every rank pays only
/// its own per-iteration send/receive cost, not the full tree depth.
fn tree_distribute(
    root: usize,
    size_of: impl Fn(usize) -> usize,
    entries: &[VTime],
    ctx: &CollCtx<'_>,
) -> Vec<VTime> {
    let p = ctx.p();
    // Virtual ranks: vrank 0 is the root.
    let to_actual = |v: usize| rotate(v, root, p);
    let mut ready = vec![VTime::ZERO; p]; // data-available time, by vrank
    let mut sends_done = vec![0usize; p];
    let mut exits = vec![VTime::ZERO; p]; // by actual group rank
    ready[0] = entries[root];
    // Round k: vranks < 2^k send to vrank + 2^k. Subtree size of the child
    // is min(2^k, p - child_v).
    let rounds = ctx.rounds();
    for k in 0..rounds {
        let stride = 1usize << k;
        for v in 0..stride.min(p) {
            let child_v = v + stride;
            if child_v >= p {
                continue;
            }
            let parent = to_actual(v);
            let child = to_actual(child_v);
            let sub = stride.min(p - child_v);
            let bytes = size_of(sub);
            // Parent can send once its data is ready, it has entered the
            // call, and its previous sends are posted.
            let send_start = ready[v]
                .max(entries[parent])
                .plus_secs(sends_done[v] as f64 * ctx.params.send_overhead);
            sends_done[v] += 1;
            let arrival = send_start.plus_secs(
                ctx.params.send_overhead
                    + ctx
                        .params
                        .alpha(ctx.topo, ctx.world_ranks[parent], ctx.world_ranks[child])
                    + bytes as f64
                        * ctx.params.beta(
                            ctx.topo,
                            ctx.world_ranks[parent],
                            ctx.world_ranks[child],
                        ),
            );
            ready[child_v] = arrival.max(entries[child]);
        }
    }
    for v in 0..p {
        let a = to_actual(v);
        exits[a] = ready[v]
            .max(entries[a])
            .plus_secs(sends_done[v] as f64 * ctx.params.send_overhead);
    }
    exits
}

/// Reverse binomial tree (reduce/gather). Children send to parents; a
/// non-root exits as soon as its send is posted, the root exits when all
/// subtree contributions arrived (plus reduction CPU time when `reducing`).
fn tree_collect(
    root: usize,
    size_of: impl Fn(usize) -> usize,
    reducing: bool,
    entries: &[VTime],
    ctx: &CollCtx<'_>,
) -> Vec<VTime> {
    let p = ctx.p();
    let to_actual = |v: usize| rotate(v, root, p);
    // ready[v] = time at which vrank v's subtree contribution is assembled.
    let mut ready: Vec<VTime> = (0..p).map(|v| entries[to_actual(v)]).collect();
    let mut exits = vec![VTime::ZERO; p];
    let rounds = ctx.rounds();
    // Round k (ascending): vranks with low bits == 2^k send to v − 2^k, i.e.
    // the mirror of the distribution schedule.
    for k in 0..rounds {
        let stride = 1usize << k;
        for v in (stride..p).step_by(stride * 2) {
            let child_v = v;
            let parent_v = v - stride;
            let child = to_actual(child_v);
            let parent = to_actual(parent_v);
            let sub = stride.min(p - child_v);
            let bytes = size_of(sub);
            let send_start = ready[child_v];
            let arrival = send_start.plus_secs(
                ctx.params.send_overhead
                    + ctx
                        .params
                        .alpha(ctx.topo, ctx.world_ranks[child], ctx.world_ranks[parent])
                    + bytes as f64
                        * ctx.params.beta(
                            ctx.topo,
                            ctx.world_ranks[child],
                            ctx.world_ranks[parent],
                        ),
            );
            let merge = if reducing {
                bytes as f64 * ctx.params.gamma_reduce
            } else {
                0.0
            };
            ready[parent_v] = ready[parent_v].max(arrival).plus_secs(merge);
            exits[child] = send_start.plus_secs(ctx.params.send_overhead);
        }
    }
    exits[to_actual(0)] = ready[0];
    exits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(params: &'a NetParams, topo: &'a Topology, ranks: &'a [usize]) -> CollCtx<'a> {
        CollCtx {
            params,
            topo,
            world_ranks: ranks,
            instance: 1,
        }
    }

    fn world(p: usize) -> Vec<usize> {
        (0..p).collect()
    }

    #[test]
    fn exits_never_before_entries() {
        let params = NetParams::slingshot11();
        let topo = Topology::new(64, 16);
        let ranks = world(64);
        let entries: Vec<VTime> = (0..64)
            .map(|i| VTime::from_micros((i * 7 % 13) as f64))
            .collect();
        for op in CollOp::ALL {
            let exits = exit_times(op, 3, 1024, &entries, &ctx(&params, &topo, &ranks));
            for (i, (&e, &x)) in entries.iter().zip(exits.iter()).enumerate() {
                assert!(x >= e, "{op:?} rank {i}: exit {x} < entry {e}");
            }
        }
    }

    #[test]
    fn synchronizing_ops_wait_for_stragglers() {
        let params = NetParams::slingshot11();
        let topo = Topology::new(32, 8);
        let ranks = world(32);
        let mut entries = vec![VTime::from_micros(1.0); 32];
        entries[17] = VTime::from_micros(500.0); // straggler
        for op in CollOp::ALL.into_iter().filter(|o| o.is_synchronizing()) {
            let exits = exit_times(op, 0, 8, &entries, &ctx(&params, &topo, &ranks));
            for (i, &x) in exits.iter().enumerate() {
                assert!(
                    x >= entries[17],
                    "{op:?} rank {i} exited before straggler entered"
                );
            }
        }
    }

    #[test]
    fn bcast_root_exits_before_leaves_wait() {
        // The non-synchronizing property that the 2PC barrier destroys:
        // a bcast root must not wait for receivers that enter late.
        let params = NetParams::slingshot11().without_jitter();
        let topo = Topology::single_node(16);
        let ranks = world(16);
        let mut entries = vec![VTime::from_micros(1000.0); 16];
        entries[0] = VTime::from_micros(1.0); // root way ahead
        let exits = exit_times(CollOp::Bcast, 0, 4, &entries, &ctx(&params, &topo, &ranks));
        assert!(
            exits[0] < VTime::from_micros(100.0),
            "root should exit early, got {}",
            exits[0]
        );
    }

    #[test]
    fn reduce_nonroot_exits_early_root_waits() {
        let params = NetParams::slingshot11().without_jitter();
        let topo = Topology::single_node(8);
        let ranks = world(8);
        let mut entries = vec![VTime::from_micros(1.0); 8];
        entries[0] = VTime::from_micros(2000.0); // root late
        let exits = exit_times(
            CollOp::Reduce,
            0,
            64,
            &entries,
            &ctx(&params, &topo, &ranks),
        );
        // Leaves sent long ago; they exit near their own entries.
        assert!(
            exits[7] < VTime::from_micros(100.0),
            "leaf held: {}",
            exits[7]
        );
        assert!(exits[0] >= entries[0]);
    }

    #[test]
    fn bcast_pipelines_but_barrier_does_not() {
        // Run 100 back-to-back ops, feeding exits into the next entries.
        // Bcast's marginal per-iteration cost must be much lower than
        // Barrier's — this is the mechanism behind Figure 5a.
        let params = NetParams::slingshot11().without_jitter();
        let topo = Topology::new(128, 128);
        let ranks = world(128);
        let per_iter = |op: CollOp| {
            let mut entries = vec![VTime::ZERO; 128];
            for i in 0..100 {
                let c = CollCtx {
                    params: &params,
                    topo: &topo,
                    world_ranks: &ranks,
                    instance: i,
                };
                entries = exit_times(op, 0, 4, &entries, &c);
            }
            VTime::max_of(entries.iter().copied()).as_secs() / 100.0
        };
        let bcast = per_iter(CollOp::Bcast);
        let barrier = per_iter(CollOp::Barrier);
        assert!(
            barrier > 2.0 * bcast,
            "barrier {barrier} should dwarf pipelined bcast {bcast}"
        );
    }

    #[test]
    fn cost_monotone_in_message_size() {
        let params = NetParams::slingshot11().without_jitter();
        let topo = Topology::new(64, 16);
        let ranks = world(64);
        let entries = vec![VTime::ZERO; 64];
        for op in CollOp::ALL {
            let c = ctx(&params, &topo, &ranks);
            let small = exit_times(op, 0, 8, &entries, &c);
            let big = exit_times(op, 0, 1 << 20, &entries, &c);
            let ms = VTime::max_of(small);
            let mb = VTime::max_of(big);
            assert!(mb >= ms, "{op:?}: 1MB ({mb}) cheaper than 8B ({ms})");
        }
    }

    #[test]
    fn self_collective_is_cheap() {
        let params = NetParams::slingshot11();
        let topo = Topology::single_node(1);
        let ranks = [0usize];
        let entries = [VTime::from_micros(5.0)];
        let exits = exit_times(
            CollOp::Allreduce,
            0,
            1 << 20,
            &entries,
            &ctx(&params, &topo, &ranks),
        );
        assert!(exits[0] - entries[0] < 1e-5);
    }

    #[test]
    fn rootless_root_rotation_consistent() {
        // Bcast from root 5: root exits earliest among equal entries.
        let params = NetParams::slingshot11().without_jitter();
        let topo = Topology::single_node(16);
        let ranks = world(16);
        let entries = vec![VTime::ZERO; 16];
        let exits = exit_times(
            CollOp::Bcast,
            5,
            1024,
            &entries,
            &ctx(&params, &topo, &ranks),
        );
        let min = exits
            .iter()
            .copied()
            .fold(VTime::from_secs(1e9), VTime::min);
        assert_eq!(exits[5], min, "root should have the earliest exit");
    }

    #[test]
    fn jitter_changes_with_instance_only_when_enabled() {
        let params = NetParams::slingshot11();
        let topo = Topology::single_node(4);
        let ranks = world(4);
        let entries = vec![VTime::ZERO; 4];
        let a = exit_times(
            CollOp::Barrier,
            0,
            0,
            &entries,
            &CollCtx {
                params: &params,
                topo: &topo,
                world_ranks: &ranks,
                instance: 1,
            },
        );
        let b = exit_times(
            CollOp::Barrier,
            0,
            0,
            &entries,
            &CollCtx {
                params: &params,
                topo: &topo,
                world_ranks: &ranks,
                instance: 2,
            },
        );
        assert_ne!(a, b, "different instances must see different jitter");
        let nj = params.clone().without_jitter();
        let c = exit_times(
            CollOp::Barrier,
            0,
            0,
            &entries,
            &CollCtx {
                params: &nj,
                topo: &topo,
                world_ranks: &ranks,
                instance: 1,
            },
        );
        let d = exit_times(
            CollOp::Barrier,
            0,
            0,
            &entries,
            &CollCtx {
                params: &nj,
                topo: &topo,
                world_ranks: &ranks,
                instance: 2,
            },
        );
        assert_eq!(c, d, "no jitter → identical instances");
    }

    #[test]
    fn scan_prefix_dependency() {
        // Rank 0's exit must not depend on rank 31's late entry.
        let params = NetParams::slingshot11().without_jitter();
        let topo = Topology::single_node(32);
        let ranks = world(32);
        let mut entries = vec![VTime::from_micros(1.0); 32];
        entries[31] = VTime::from_micros(9999.0);
        let exits = exit_times(CollOp::Scan, 0, 8, &entries, &ctx(&params, &topo, &ranks));
        assert!(exits[0] < VTime::from_micros(100.0));
        assert!(exits[31] >= entries[31]);
    }
}
