//! Deterministic synthetic checkpoint images for encode-pipeline
//! benchmarks and tests.
//!
//! Capturing a *real* 4096-rank image means running a 4096-rank world —
//! minutes of wall time in a release build and unusable in tier-1. The
//! encode pipeline, though, only cares about the bytes: per-rank
//! [`mana_core::RuntimeCapture`] sections of realistic shape (sequence
//! tables, communicator logs, pending receives, vcomm maps) plus drained
//! in-flight messages. [`synthetic_checkpoint`] builds such an image
//! directly — seeded, so the same `(n_ranks, seed)` always yields the
//! same bytes — with **O(1) state per rank** (small neighbor groups, not
//! the world group), so a 4096-rank image is ~4096 × ~1 KiB, not O(n²).
//!
//! These images are *wire-consistent* (they round-trip through
//! `to_bytes`/`from_bytes`) but carry no cut evidence, so they are for
//! serialization benchmarks and determinism tests — not for restore.

use bytes::Bytes;
use ckpt::{CaptureOrigin, Checkpoint, DrainedMsg};
use mana_core::RankState;
use mana_core::{
    ggid_of_sorted, CallCounters, CommOp, CommOpRecord, Cut, CutRun, Ggid, PendingRecv, Protocol,
    RuntimeCapture, SeqTable, VComm,
};
use mpisim::types::CommId;
use mpisim::{NetParams, SavedMsg, SrcSel, TagSel, VTime};
use std::collections::HashMap;
use workloads::SplitMix64;

/// Width of the synthetic neighbor groups. Small and constant: per-rank
/// section size must not grow with the world, or the per-rank flatness
/// the capture sweep asserts would be measuring payload growth instead
/// of pipeline overhead.
const GROUP_SPAN: usize = 8;

/// The sorted member list of the neighbor group covering rank `i`.
fn neighbor_group(n_ranks: usize, i: usize) -> Vec<usize> {
    let base = (i / GROUP_SPAN) * GROUP_SPAN;
    (base..(base + GROUP_SPAN).min(n_ranks)).collect()
}

fn pair_group(n_ranks: usize, i: usize) -> Vec<usize> {
    let mut m = vec![i, (i + 1) % n_ranks];
    m.sort_unstable();
    m.dedup();
    m
}

fn synth_capture(n_ranks: usize, i: usize, rng: &mut SplitMix64) -> RuntimeCapture {
    let neighbors = neighbor_group(n_ranks, i);
    let pair = pair_group(n_ranks, i);
    let g_world = Ggid(0);
    let g_neighbors = ggid_of_sorted(&neighbors);
    let g_pair = ggid_of_sorted(&pair);

    let mut seq_table = SeqTable::new();
    // The world group is registered by ggid only — members are the
    // neighbor window, standing in for the real member list so the
    // section stays O(1) in the world size.
    seq_table.restore(g_world, 40 + rng.next_range(8), neighbors.clone());
    seq_table.restore(g_neighbors, 10 + rng.next_range(4), neighbors.clone());
    seq_table.restore(g_pair, rng.next_range(6), pair.clone());

    // A realistic creation log: a dup, a split, and a batch of small
    // group creations — the bulk of a real section's bytes.
    let mut comm_log = vec![
        CommOpRecord {
            op: CommOp::Dup { parent: VComm(0) },
            result: Some(VComm(1)),
        },
        CommOpRecord {
            op: CommOp::Split {
                parent: VComm(0),
                color: (i / GROUP_SPAN) as i64,
                key: (i % GROUP_SPAN) as i64,
            },
            result: Some(VComm(2)),
        },
    ];
    for k in 0..12 {
        comm_log.push(CommOpRecord {
            op: CommOp::Create {
                parent: VComm(1),
                members: neighbors.clone(),
            },
            result: if k % 5 == 4 {
                None // this rank drew MPI_COMM_NULL
            } else {
                Some(VComm(3 + k))
            },
        });
    }

    let pending_recvs = (0..2 + rng.next_range(3))
        .map(|k| PendingRecv {
            vreq: 100 * i as u64 + k,
            vcomm: k % 3,
            src: if k % 2 == 0 {
                SrcSel::Any
            } else {
                SrcSel::Rank(neighbors[k as usize % neighbors.len()])
            },
            tag: if k % 3 == 0 {
                TagSel::Any
            } else {
                TagSel::Tag(rng.next_range(1 << 16) as u32)
            },
        })
        .collect();

    let counters = CallCounters {
        coll_blocking: 30 + rng.next_range(20),
        coll_nonblocking: rng.next_range(10),
        p2p_sends: 20 + rng.next_range(30),
        p2p_recvs: 20 + rng.next_range(30),
        completions: rng.next_range(40),
        comm_mgmt: 14,
        drain_updates_sent: rng.next_range(5),
        drain_updates_recv: rng.next_range(5),
        trivial_barriers: 0,
    };

    let mut vcomm_to_lower = HashMap::new();
    let mut vcomm_members = HashMap::new();
    for v in 0..3u64 {
        vcomm_to_lower.insert(v, CommId(v * 2 + rng.next_range(2)));
        vcomm_members.insert(
            v,
            if v == 2 {
                pair.clone()
            } else {
                neighbors.clone()
            }
            .into(),
        );
    }

    RuntimeCapture {
        rank: i,
        state: RankState::Quiesced,
        clock: VTime::from_secs(1.0 + i as f64 * 1e-7 + rng.next_f64() * 1e-6),
        seq_table,
        comm_log,
        pending_recvs,
        pending_barrier: None,
        counters,
        p2p_sent: rng.next_range(64),
        p2p_delivered: rng.next_range(64),
        vcomm_to_lower,
        vcomm_members,
    }
}

/// Builds a deterministic `n_ranks`-rank checkpoint image with realistic
/// per-rank section shapes (~1 KiB each) and a sprinkling of drained
/// in-flight messages. Same `(n_ranks, seed)` ⇒ byte-identical image.
///
/// # Panics
/// Panics if `n_ranks == 0`.
pub fn synthetic_checkpoint(n_ranks: usize, seed: u64) -> Checkpoint {
    assert!(n_ranks > 0, "synthetic image needs at least one rank");
    let mut rng = SplitMix64::new(seed ^ 0x5EED_C0DE);

    let captures: Vec<RuntimeCapture> = (0..n_ranks)
        .map(|i| synth_capture(n_ranks, i, &mut rng))
        .collect();

    // Targets over the distinct neighbor groups plus the world ggid.
    let mut final_targets: HashMap<Ggid, u64> = HashMap::new();
    final_targets.insert(Ggid(0), 48);
    for base in (0..n_ranks).step_by(GROUP_SPAN) {
        let g = ggid_of_sorted(&neighbor_group(n_ranks, base));
        final_targets.insert(g, 14);
    }
    let initial_targets = final_targets.clone();
    let achieved = final_targets.clone();

    // One drained message per 4 ranks, ~256 B payloads: suffix weight
    // without dominating the per-rank sections the sweep times.
    let in_flight: Vec<DrainedMsg> = (0..n_ranks / 4)
        .map(|k| {
            let src = (k * 4) % n_ranks;
            let payload: Vec<u8> = (0..256).map(|_| rng.next_range(256) as u8).collect();
            DrainedMsg {
                saved: SavedMsg {
                    src_world: src,
                    dst_world: (src + 1) % n_ranks,
                    vcomm: 0,
                    tag: rng.next_range(1 << 16) as u32,
                    payload: Bytes::from(payload),
                    seq: k as u64,
                },
                arrival: VTime::from_secs(0.9 + k as f64 * 1e-6),
            }
        })
        .collect();

    Checkpoint {
        epoch: 1,
        n_ranks,
        protocol: Protocol::Cc,
        origin: CaptureOrigin {
            ranks_per_node: 128,
            params: NetParams::slingshot11().without_jitter(),
        },
        request_clock: VTime::from_secs(0.5),
        initial_targets,
        final_targets,
        achieved,
        captures,
        in_flight,
        cut_events: Cut::default(),
        io_write_secs: 0.0,
        io_read_secs: 0.0,
    }
}

/// Returns a copy of `base` in which every `every`-th rank has *stable*
/// state changes (call counters and a sequence-table bump) while **all**
/// ranks get fresh volatile clocks. Delta encoding keys dedup on stable
/// state only, so a delta built against `base` must re-serialize exactly
/// `ceil(n_ranks / every)` rank chunks — the volatile churn on the other
/// ranks rides in the per-rank volatile records, not in new chunks.
///
/// # Panics
/// Panics if `every == 0`.
pub fn perturbed_checkpoint(base: &Checkpoint, every: usize) -> Checkpoint {
    assert!(every > 0, "perturbation stride must be positive");
    let mut next = base.clone();
    for (i, c) in next.captures.iter_mut().enumerate() {
        // Volatile churn on every rank: clocks advance between any two
        // checkpoints of a live run.
        c.clock += 0.25 + i as f64 * 1e-7;
        c.p2p_sent += 3;
        c.p2p_delivered += 2;
        if i % every == 0 {
            // Stable churn on the selected ranks only.
            c.counters.p2p_sends += 7;
            c.counters.completions += 7;
            let g_world = Ggid(0);
            let seq = c.seq_table.seq(g_world) + 5;
            let members = c
                .seq_table
                .members_shared(g_world)
                .cloned()
                .expect("synthetic captures register the world ggid");
            c.seq_table.restore(g_world, seq, members);
        }
    }
    next
}

/// Returns a copy of `base`, equal to it, in which every member-list
/// reference owns a fresh allocation — the opposite of a live run, where
/// all references to a group share one. The wire format must not be able
/// to tell the two apart.
pub fn with_unshared_lists(base: &Checkpoint) -> Checkpoint {
    let mut next = base.clone();
    let unshared = |r: &CutRun| CutRun {
        members: r.members.to_vec().into(),
        ..*r
    };
    next.cut_events = Cut::from_runs(base.cut_events.runs().iter().map(unshared).collect());
    for c in &mut next.captures {
        let entries: Vec<(Ggid, u64, Vec<usize>)> = c
            .seq_table
            .iter()
            .map(|(g, e)| (*g, e.seq, e.members.to_vec()))
            .collect();
        for (g, seq, members) in entries {
            c.seq_table.restore(g, seq, members);
        }
        for m in c.vcomm_members.values_mut() {
            *m = m.to_vec().into();
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unsharing_keeps_the_value_and_splits_every_allocation() {
        let base = synthetic_checkpoint(16, 5);
        let next = with_unshared_lists(&base);
        assert_eq!(next, base);
        let refs: Vec<_> = next.member_list_refs().collect();
        assert_eq!(refs.len(), 16 * 6);
        for (i, a) in refs.iter().enumerate() {
            for b in &refs[i + 1..] {
                assert!(!Arc::ptr_eq(a, b));
            }
        }
    }

    #[test]
    fn synthetic_image_is_deterministic_and_round_trips() {
        let a = synthetic_checkpoint(32, 7);
        let b = synthetic_checkpoint(32, 7);
        assert_eq!(a.to_bytes(), b.to_bytes(), "same seed must reproduce");
        let c = synthetic_checkpoint(32, 8);
        assert_ne!(a.to_bytes(), c.to_bytes(), "seed must matter");
        let back = Checkpoint::from_bytes(&a.to_bytes()).expect("round trip");
        assert_eq!(back, a);
    }

    #[test]
    fn perturbation_touches_all_clocks_but_few_stable_sections() {
        let base = synthetic_checkpoint(40, 3);
        let next = perturbed_checkpoint(&base, 10);
        assert_eq!(next.n_ranks, base.n_ranks);
        let mut stable_changed = 0;
        for (a, b) in base.captures.iter().zip(&next.captures) {
            assert!(b.clock > a.clock, "every rank's clock must advance");
            if a.counters != b.counters || a.seq_table != b.seq_table {
                stable_changed += 1;
            }
        }
        assert_eq!(
            stable_changed, 4,
            "stride 10 over 40 ranks must change exactly 4 stable sections"
        );
    }

    #[test]
    fn per_rank_bytes_stay_flat_with_world_size() {
        // The whole point of the synthetic shape: per-rank section size
        // must not grow with n_ranks, or capture-sweep flatness would be
        // measuring payload growth.
        let small = synthetic_checkpoint(64, 1);
        let large = synthetic_checkpoint(512, 1);
        let per_rank_small = small.serialized_len() as f64 / 64.0;
        let per_rank_large = large.serialized_len() as f64 / 512.0;
        assert!(
            per_rank_large < per_rank_small * 1.5,
            "per-rank bytes grew with world size: {per_rank_small} -> {per_rank_large}"
        );
    }
}
