//! The size gate of the image wire format: an image pays for each
//! distinct group member list **once**, a fixed handful of bytes for
//! every reference to it, and nothing for how long the program has run.
//!
//! Before v5 every `seq_table` entry, every `vcomm_members` value and
//! every cut event of a non-contiguous group repeated the group's full
//! member list — 8 bytes × members, per reference — which made a
//! 1024-rank image with split communicators 98 % member lists. Before v6
//! the cut was one event per collective participation since the program
//! started: four fifths of what was left, and larger at every checkpoint.
//! Since v7 a rank's restart-stable state is a content-addressed chunk,
//! written once however many ranks hold the same state: a rank itself
//! costs a fixed record. The bound below has no term in which a list's
//! length multiplies a reference count, none that counts collectives, and
//! none that repeats a stable half per rank holding it.

use ckpt::image::IMAGE_HEADER_LEN;
use ckpt::{
    run_ckpt_world, run_ckpt_world_steps, Checkpoint, CkptOptions, EveryNCollectives, ResumeMode,
};
use mana_core::{CommOp, Cut, CutRun, Protocol, RankState, RuntimeCapture};
use mpisim::{NetParams, VTime, WorldConfig};
use std::collections::HashSet;
use workloads::{scf_loop, RandomWorkloadCfg, RandomWorkloadStep};

const RANKS: usize = 64;

/// One cut of a 64-rank step world running the seeded random schedule,
/// taken once every rank has made 40 collective calls — by then the
/// schedule has split the world several times.
fn split_world_image() -> Checkpoint {
    let cfg = WorldConfig::multi_node(RANKS, 16)
        .with_params(NetParams::slingshot11().without_jitter())
        .with_workers(2);
    let work = RandomWorkloadCfg::new(193, 200).with_pace_us(40);
    let run = run_ckpt_world_steps(
        cfg,
        CkptOptions::native()
            .with_protocol(Protocol::Cc)
            .with_policy(EveryNCollectives::new(40, 1))
            .with_resume(ResumeMode::Continue),
        |_| RandomWorkloadStep::new(work.clone()),
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    run.checkpoints
        .into_iter()
        .next()
        .expect("the cut must commit")
}

fn is_run(members: &[usize]) -> bool {
    members.windows(2).all(|w| w[1] == w[0] + 1)
}

// The wire's fixed costs, written out. A word is 8 bytes.

/// A member-list reference: tag byte plus `(start, len)` at most (a table
/// reference is tag + 8-byte id).
const REF: usize = 1 + 16;
/// A table entry besides its members: content id and length word.
const TABLE_ENTRY: usize = 16;
/// A cut run besides its reference: rank, ggid, first, last.
const RUN: usize = 32;
/// A chunk reference: tag byte, content hash, length.
const CHUNK_REF: usize = 1 + 8 + 8;
/// A rank's record without a pending barrier: rank, state, clock, barrier
/// tag, two flow counts, and the reference to its stable chunk.
const RECORD: usize = 8 + 1 + 8 + 1 + 16 + CHUNK_REF;
/// What a pending barrier adds to a record: two words.
const BARRIER: usize = 16;
/// A stable chunk besides its containers' elements: five container
/// length words and nine call counters.
const STABLE_FIXED: usize = 5 * 8 + 9 * 8;
/// `seq_table` entry besides its reference: ggid, seq.
const SEQ_ENTRY: usize = 16;
/// `vcomm_members` entry besides its reference: the vcomm id.
const VCOMM_ENTRY: usize = 8;
/// `vcomm_to_lower` entry: vcomm id, lower comm id.
const LOWER_ENTRY: usize = 16;
/// A `Dup`/`Split` creation record at most: tag, parent, color, key,
/// result tag, result.
const COMM_OP: usize = 1 + 8 + 8 + 8 + 1 + 8;
/// A pending receive: vreq, vcomm, source selector, tag selector.
const PENDING_RECV: usize = 8 + 8 + 9 + 5;
/// A drained message besides its payload: endpoints, vcomm, tag, length
/// word, channel sequence, arrival.
const DRAINED_MSG: usize = 8 + 8 + 8 + 4 + 8 + 8 + 8;
/// Header; kind, generation, epoch, n_ranks, protocol, packing, ten
/// network parameters, request clock; length words of the three target
/// maps; the two io-seconds words; length words of the table, the records
/// and the cut; the in-flight chunk's reference and its length word.
const IMAGE_FIXED: usize =
    IMAGE_HEADER_LEN + (1 + 8 + 8 + 8 + 1 + 8 + 80 + 8) + 3 * 8 + 16 + 3 * 8 + CHUNK_REF + 8;
/// A target-map entry: ggid, value.
const TARGET: usize = 16;

/// A capture's restart-stable half: the capture with its volatile fields
/// cleared. Two ranks share a chunk exactly when these are equal.
fn stable_half(c: &RuntimeCapture) -> RuntimeCapture {
    RuntimeCapture {
        rank: 0,
        state: RankState::Quiesced,
        clock: VTime::ZERO,
        pending_barrier: None,
        p2p_sent: 0,
        p2p_delivered: 0,
        ..c.clone()
    }
}

/// The distinct stable halves of an image, in rank order of first holder.
fn distinct_stable_halves(image: &Checkpoint) -> Vec<RuntimeCapture> {
    let mut distinct: Vec<RuntimeCapture> = Vec::new();
    for c in image.captures.iter().map(stable_half) {
        if !distinct.contains(&c) {
            distinct.push(c);
        }
    }
    distinct
}

/// Σ distinct list bytes + Σ distinct chunk bytes (c · references each) +
/// a fixed record per rank + the cut runs.
fn size_bound(image: &Checkpoint) -> usize {
    let distinct: HashSet<&[usize]> = image
        .member_list_refs()
        .map(|m| &m[..])
        .filter(|m| !is_run(m))
        .collect();
    let lists: usize = distinct.iter().map(|m| TABLE_ENTRY + 8 * m.len()).sum();
    let chunks: usize = distinct_stable_halves(image)
        .iter()
        .map(|c| {
            assert!(
                (c.comm_log.iter()).all(|r| !matches!(r.op, CommOp::Create { .. })),
                "the schedule only dups and splits"
            );
            STABLE_FIXED
                + c.seq_table.len() * (SEQ_ENTRY + REF)
                + c.vcomm_members.len() * (VCOMM_ENTRY + REF)
                + c.vcomm_to_lower.len() * LOWER_ENTRY
                + c.comm_log.len() * COMM_OP
                + c.pending_recvs.len() * PENDING_RECV
        })
        .sum();
    let records: usize = (image.captures.iter())
        .map(|c| {
            RECORD
                + if c.pending_barrier.is_some() {
                    BARRIER
                } else {
                    0
                }
        })
        .sum();
    let targets = image.initial_targets.len() + image.final_targets.len() + image.achieved.len();
    IMAGE_FIXED
        + targets * TARGET
        + lists
        + chunks
        + records
        + image.in_flight.len() * DRAINED_MSG
        + image.in_flight_bytes()
        + image.cut_events.runs().len() * (RUN + REF)
}

#[test]
fn image_size_is_distinct_lists_plus_a_constant_per_reference() {
    let mut image = split_world_image();
    let refs: Vec<_> = image.member_list_refs().collect();
    let listed = refs.iter().filter(|m| !is_run(m)).count();
    assert!(
        listed > 10 * RANKS,
        "only {listed} references to non-contiguous groups: the world did not split"
    );

    let len = image.serialized_len();
    assert_eq!(len, image.to_bytes().len());
    let bound = size_bound(&image);
    assert!(len <= bound, "{len} B serialized, bound {bound} B");
    // The bound is tight, not generous: within a word per reference (a
    // table reference is that much shorter than a range reference).
    assert!(bound - len <= 8 * refs.len(), "{len} B vs bound {bound} B");

    // Pinned with 25 % headroom over the measured 853 B a rank. Every
    // rank of this cut holds a different stable half, so each pays its
    // chunk's address: v6 wrote 844 B a rank, the v5 wire, with its cut
    // event per collective participation, 2 486 B a rank for this cut, and
    // more for every later one.
    let per_rank = len / RANKS;
    assert!(per_rank <= 1066, "{per_rank} B per rank");

    // One more run on a group that is already in the table costs its
    // fixed words and a 9-byte reference, whatever the group's size and
    // however many collectives the run covers.
    let mut runs = image.cut_events.runs().to_vec();
    let again = runs
        .iter()
        .find(|r| !is_run(&r.members) && r.members.len() >= 8)
        .expect("a cut run on a non-contiguous group of eight or more");
    runs.push(CutRun {
        first: again.last + 2,
        last: again.last + 1_000_000,
        ..again.clone()
    });
    image.cut_events = Cut::from_runs(runs);
    let grown = image.serialized_len() - len;
    assert_eq!(grown, RUN + 1 + 8);
    assert!(grown < 64);
}

/// The image of a program that only ever talks on the world group is the
/// same size at its 40th collective and at its 160th: per rank, `SEQ[]`
/// and one run. (The v5 wire grew by a cut event per rank and collective:
/// ≈ 1.6 kB a rank from each of these images to the next.)
#[test]
fn image_size_does_not_grow_with_run_length() {
    const N: usize = 16;
    let cfg = WorldConfig::multi_node(N, 4).with_params(NetParams::slingshot11().without_jitter());
    let run = run_ckpt_world(
        cfg,
        CkptOptions::native()
            .with_protocol(Protocol::Cc)
            .with_policy(EveryNCollectives::new(40, 4))
            .with_resume(ResumeMode::Continue),
        |r| {
            r.set_wall_pace_us(40);
            scf_loop(r, 120, 8) // two collectives an iteration
        },
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    let images = &run.checkpoints;
    assert_eq!(images.len(), 4, "four cuts must commit");
    for (k, image) in images.iter().enumerate() {
        image.verify().expect("a committed cut is safe");
        // The trigger fires once every rank has made 40·(k+1) calls; the
        // drain may run a call or two past it.
        let calls = image.cut_events.len() / N;
        assert_eq!(image.cut_events.len(), calls * N, "every rank, every call");
        assert!((40 * (k + 1)..40 * (k + 1) + 8).contains(&calls), "{calls}");
        assert_eq!(image.cut_events.runs().len(), N);
        assert_eq!(image.serialized_len(), images[0].serialized_len());
        assert_eq!(image.to_bytes().len(), images[0].serialized_len());
    }
}

/// One cut of an `n`-rank SCF run — a program that only ever talks on the
/// world group, two collectives an iteration — taken at its 40th
/// collective.
fn scf_image(n: usize) -> Checkpoint {
    let cfg = WorldConfig::multi_node(n, 4).with_params(NetParams::slingshot11().without_jitter());
    let run = run_ckpt_world(
        cfg,
        CkptOptions::native()
            .with_protocol(Protocol::Cc)
            .with_policy(EveryNCollectives::new(40, 1))
            .with_resume(ResumeMode::Continue),
        |r| {
            r.set_wall_pace_us(40);
            scf_loop(r, 60, 8)
        },
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    run.checkpoints
        .into_iter()
        .next()
        .expect("the cut must commit")
}

/// Every rank of an SCF cut holds the same restart-stable state, so the
/// image carries that state once: doubling the world adds each new rank's
/// record and cut run, and no chunk.
#[test]
fn ranks_with_identical_stable_halves_share_one_chunk() {
    let (small, large) = (scf_image(16), scf_image(32));
    for image in [&small, &large] {
        assert_eq!(
            distinct_stable_halves(image).len(),
            1,
            "the SCF ranks' stable halves differ"
        );
        assert_eq!(image.cut_events.runs().len(), image.n_ranks);
        assert!(image.captures.iter().all(|c| c.pending_barrier.is_none()));
        let len = image.serialized_len();
        assert_eq!(len, image.to_bytes().len());
        assert!(len <= size_bound(image), "{len} B vs {}", size_bound(image));
    }
    // A run on the world group carries a range reference.
    let per_rank = RECORD + RUN + REF;
    assert_eq!(
        large.serialized_len() - small.serialized_len(),
        16 * per_rank
    );
}
