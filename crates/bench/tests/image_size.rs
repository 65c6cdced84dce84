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
//! costs a fixed record. Since v8 every count, rank, sequence number, id,
//! counter and length is a varint, so each costs the width of its value,
//! not a word. Since v9 a rank's record carries its upper half (the
//! body's snapshot and the request-table state a restore resumes from),
//! and a sequence-table entry or a cut run no longer spends a word on
//! its group id, which is its member list's. Since v10 there are no cut
//! runs and no achieved maxima on the wire: each run was `1..=SEQ[g]` of
//! a table entry and each maximum a maximum over the tables, which is
//! where the cut is read from now. The size below has no term in which a
//! list's length multiplies a reference count, none that counts
//! collectives, and none that repeats a stable half per rank holding it.

use ckpt::image::IMAGE_HEADER_LEN;
use ckpt::wire::var_len;
use ckpt::{
    run_ckpt_world, run_ckpt_world_steps, CaptureOrigin, Checkpoint, CkptOptions,
    EveryNCollectives, ResumeMode,
};
use mana_core::capture::PendingRecv;
use mana_core::{
    ggid_of_sorted, CallCounters, CommOp, CommOpRecord, Cut, CutRun, Ggid, Protocol, RankState,
    RuntimeCapture, SeqTable, UpperHalf, VComm,
};
use mpisim::{NetParams, SrcSel, TagSel, VTime, WorldConfig};
use std::collections::HashMap;
use workloads::{scf_loop, RandomWorkloadCfg, RandomWorkloadStep};

const RANKS: usize = 64;

/// One cut of a 64-rank step world running the seeded random schedule,
/// taken once every rank has made 40 collective calls — by then the
/// schedule has split the world several times.
fn split_world_image() -> Checkpoint {
    let cfg = WorldConfig::multi_node(RANKS, 16)
        .with_params(NetParams::slingshot11().without_jitter())
        .with_workers(2);
    let work = RandomWorkloadCfg::new(193, 200);
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

// The wire's costs, written out. Hashes, group ids, member-list content
// ids and `f64`s are 8-byte words; every other integer is a varint as wide
// as its value.

/// An 8-byte word.
const WORD: usize = 8;
/// A tag byte: a reference's form, a selector, an option, a rank state.
const TAG: usize = 1;

/// Varint width of a `usize`.
fn uvar(v: usize) -> usize {
    var_len(v as u64)
}

/// Zigzag varint width of `v`.
fn ivar(v: i64) -> usize {
    var_len(((v << 1) ^ (v >> 63)) as u64)
}

/// A member-list reference: tag, then `(start, len)` for a contiguous
/// run or the 8-byte content id of a table entry.
fn member_ref(m: &[usize]) -> usize {
    TAG + if is_run(m) {
        uvar(m[0]) + uvar(m.len())
    } else {
        WORD
    }
}

/// A member-table entry: content id, length, members.
fn table_entry(m: &[usize]) -> usize {
    WORD + uvar(m.len()) + m.iter().map(|&r| uvar(r)).sum::<usize>()
}

/// A chunk reference: tag, content hash, length.
fn chunk_ref(len: usize) -> usize {
    TAG + WORD + uvar(len)
}

/// The output table: count, then each distinct drained output (length,
/// bytes) in order of first reference.
fn output_table(image: &Checkpoint) -> (usize, Vec<&[u8]>) {
    let mut outputs: Vec<&[u8]> = Vec::new();
    let uppers = image.captures.iter().filter_map(|c| c.upper.as_ref());
    for (_, d) in uppers.flat_map(|u| &u.ready) {
        if !outputs.contains(&&d[..]) {
            outputs.push(d);
        }
    }
    let entries = outputs.iter().map(|o| uvar(o.len()) + o.len());
    (uvar(outputs.len()) + entries.sum::<usize>(), outputs)
}

/// A rank's upper-half section: a tag; when present, the next request
/// id, the ready results (count; request id, index into the output table
/// `outputs`), the held sends (count; request id, completion-time word)
/// and the body's snapshot (length and bytes).
fn upper_half(u: Option<&UpperHalf>, outputs: &[&[u8]]) -> usize {
    TAG + u.map_or(0, |u| {
        let index = |d: &[u8]| outputs.iter().position(|o| *o == d).unwrap();
        let ready = u.ready.iter().map(|(v, d)| var_len(*v) + uvar(index(d)));
        let sends = u.sends.iter().map(|(v, _)| var_len(*v) + WORD);
        var_len(u.next_vreq)
            + uvar(u.ready.len())
            + ready.sum::<usize>()
            + uvar(u.sends.len())
            + sends.sum::<usize>()
            + uvar(u.body.len())
            + u.body.len()
    })
}

/// A rank's record: rank, state, clock, barrier tag (and the barrier's
/// vcomm and ordinal), two flow counts, its upper half (ready outputs by
/// index into `outputs`), the reference to its stable chunk.
fn record(c: &RuntimeCapture, outputs: &[&[u8]]) -> usize {
    let barrier = c
        .pending_barrier
        .map_or(0, |(vc, ord)| var_len(vc) + var_len(ord));
    uvar(c.rank)
        + TAG
        + WORD
        + TAG
        + barrier
        + var_len(c.p2p_sent)
        + var_len(c.p2p_delivered)
        + upper_half(c.upper.as_ref(), outputs)
        + chunk_ref(stable_chunk(c))
}

/// What a cut run cost the v9 wire: rank, first, last, members (the
/// group id is the list's). The v10 wire writes none.
fn v9_run(r: &CutRun) -> usize {
    uvar(r.rank) + var_len(r.first) + var_len(r.last) + member_ref(&r.members)
}

fn comm_op(r: &CommOpRecord) -> usize {
    let op = match &r.op {
        CommOp::Dup { parent } => var_len(parent.0),
        CommOp::Split { parent, color, key } => var_len(parent.0) + ivar(*color) + ivar(*key),
        CommOp::Create { parent, members } => {
            var_len(parent.0)
                + uvar(members.len())
                + members.iter().map(|&m| uvar(m)).sum::<usize>()
        }
    };
    TAG + op + TAG + r.result.map_or(0, |v| var_len(v.0))
}

fn pending_recv(p: &PendingRecv) -> usize {
    let src = match p.src {
        SrcSel::Any => 0,
        SrcSel::Rank(r) => uvar(r),
    };
    let tag = match p.tag {
        TagSel::Any => 0,
        TagSel::Tag(t) => var_len(u64::from(t)),
    };
    var_len(p.vreq) + var_len(p.vcomm) + TAG + src + TAG + tag
}

fn counters(c: &CallCounters) -> usize {
    [
        c.coll_blocking,
        c.coll_nonblocking,
        c.p2p_sends,
        c.p2p_recvs,
        c.completions,
        c.comm_mgmt,
        c.trivial_barriers,
    ]
    .map(var_len)
    .iter()
    .sum()
}

/// A rank's stable chunk: `seq_table` entries (seq, reference; the group
/// id is the list's), the creation log, pending receives, seven call
/// counters and `vcomm_members` entries (vcomm id, reference), each
/// container behind its length.
fn stable_chunk(c: &RuntimeCapture) -> usize {
    let seq = (c.seq_table.iter()).map(|(_, e)| var_len(e.seq) + member_ref(&e.members));
    let members = (c.vcomm_members.iter()).map(|(v, m)| var_len(*v) + member_ref(m));
    uvar(c.seq_table.len())
        + seq.sum::<usize>()
        + uvar(c.comm_log.len())
        + c.comm_log.iter().map(comm_op).sum::<usize>()
        + uvar(c.pending_recvs.len())
        + c.pending_recvs.iter().map(pending_recv).sum::<usize>()
        + counters(&c.counters)
        + uvar(c.vcomm_members.len())
        + members.sum::<usize>()
}

/// The in-flight chunk: count, then per message its endpoints, vcomm,
/// tag, payload length and bytes, channel sequence and arrival.
fn in_flight_chunk(image: &Checkpoint) -> usize {
    let msg = |m: &ckpt::DrainedMsg| {
        let s = &m.saved;
        uvar(s.src_world)
            + uvar(s.dst_world)
            + var_len(s.vcomm)
            + var_len(u64::from(s.tag))
            + uvar(s.payload.len())
            + s.payload.len()
            + var_len(s.seq)
            + WORD
    };
    uvar(image.in_flight.len()) + image.in_flight.iter().map(msg).sum::<usize>()
}

fn target_map(m: &HashMap<Ggid, u64>) -> usize {
    uvar(m.len()) + m.values().map(|&v| WORD + var_len(v)).sum::<usize>()
}

/// Header; kind, generation, epoch, n_ranks, protocol, packing, ten
/// network parameters and the request clock (words); the two target
/// maps; the two io-seconds words.
fn preamble(image: &Checkpoint) -> usize {
    IMAGE_HEADER_LEN
        + TAG
        + var_len(0)
        + var_len(image.epoch)
        + uvar(image.n_ranks)
        + TAG
        + uvar(image.origin.ranks_per_node)
        + 11 * WORD
        + target_map(&image.initial_targets)
        + target_map(&image.final_targets)
        + 2 * WORD
}

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
        upper: None,
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

/// The serialized size of a full image, term by term: Σ distinct list
/// bytes + Σ distinct drained outputs + Σ distinct chunk bytes (c ·
/// references each) + a record per rank + the in-flight chunk.
fn image_len(image: &Checkpoint) -> usize {
    let mut distinct: Vec<&[usize]> = image
        .member_list_refs()
        .map(|m| &m[..])
        .filter(|m| !is_run(m))
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    let table = uvar(distinct.len()) + distinct.iter().map(|m| table_entry(m)).sum::<usize>();
    let chunks: usize = distinct_stable_halves(image).iter().map(stable_chunk).sum();
    let (outputs_len, outputs) = output_table(image);
    let records: usize = image.captures.iter().map(|c| record(c, &outputs)).sum();
    preamble(image)
        + table
        + outputs_len
        + uvar(image.captures.len())
        + records
        + chunk_ref(in_flight_chunk(image))
        + chunks
        + in_flight_chunk(image)
}

#[test]
fn image_size_is_distinct_lists_plus_a_constant_per_reference() {
    let mut image = split_world_image();
    // The captures' references and the cut's runs (derived from the
    // tables, and no longer on the wire).
    let cut = image.cut();
    let runs = cut.runs().iter().map(|r| &r.members);
    let refs: Vec<_> = image.member_list_refs().chain(runs).collect();
    let listed = refs.iter().filter(|m| !is_run(m)).count();
    assert!(
        listed > 10 * RANKS,
        "only {listed} references to non-contiguous groups: the world did not split"
    );

    let len = image.serialized_len();
    assert_eq!(len, image.to_bytes().len());
    // Exact, term by term: every reference costs its few bytes.
    assert_eq!(len, image_len(&image), "{len} B serialized");

    // Pinned with 25 % headroom over the measured 186 B a rank of v11.
    // Every rank of this cut holds a different stable half, so each pays
    // its chunk's address: v10 wrote 188 B a rank, v9 231 B, v8 270 B,
    // v7 853 B with a word per integer and the lower-half handle map, v6
    // 844 B, and the v5 wire, with its cut event per collective
    // participation, 2 486 B a rank for this cut, and more for every
    // later one. v9 added each
    // rank's upper half and dropped a group-id word from each sequence
    // entry and cut run; v10 drops the cut runs and the achieved map, and
    // v11 the two drain counters from each rank's call counters.
    let per_rank = len / RANKS;
    assert!(per_rank <= 232, "{per_rank} B per rank");
    // Every rank of a step world has an upper half, and it stays small:
    // the random body's generator, accumulator, step, pc, its pending
    // requests and subcommunicators, and the drained iallreduce outputs.
    assert!(image.captures.iter().all(|c| c.upper.is_some()));
    let (outputs_len, outputs) = output_table(&image);
    let sections = image
        .captures
        .iter()
        .map(|c| upper_half(c.upper.as_ref(), &outputs));
    let upper = outputs_len + sections.sum::<usize>();
    assert!(
        upper / RANKS <= 48,
        "{} B of upper half per rank",
        upper / RANKS
    );
    assert!(
        upper / RANKS <= 96,
        "{} B of upper half per rank",
        upper / RANKS
    );
    // What v9 saved, a group-id word per sequence entry (in each
    // distinct chunk) and per cut run, and v10, the runs themselves and
    // the achieved map, outweigh the upper halves v9 added.
    let entries: usize = (distinct_stable_halves(&image).iter())
        .map(|c| c.seq_table.len())
        .sum();
    let cut = image.cut();
    let runs = cut.runs();
    assert_eq!(
        runs.len(),
        (image.captures.iter()).map(|c| c.seq_table.len()).sum()
    );
    let v9_runs = uvar(runs.len()) + runs.iter().map(v9_run).sum::<usize>();
    let saved = WORD * (entries + runs.len()) + v9_runs + target_map(&image.achieved());
    assert!(saved > upper, "{saved} B saved vs {upper} B of upper half");

    // A rank's cut on a group is its `SEQ` in its chunk, however many
    // collectives it covers and whatever the group's size: a million
    // more collectives on a non-contiguous group of eight or more cost
    // the `SEQ`'s wider varint and nothing else (the chunk's length in
    // its address may widen too).
    let rank = (0..RANKS)
        .find(|&r| {
            (image.captures[r].seq_table.iter())
                .any(|(_, e)| e.members.len() >= 8 && !is_run(&e.members))
        })
        .expect("a rank in a non-contiguous group of eight or more");
    let chunk = stable_chunk(&image.captures[rank]);
    let table = &mut image.captures[rank].seq_table;
    let (g, e) = (table.iter())
        .find(|(_, e)| e.members.len() >= 8 && !is_run(&e.members))
        .map(|(g, e)| (*g, e.clone()))
        .unwrap();
    table.restore(g, e.seq + 1_000_000, e.members);
    let grown = image.serialized_len() - len;
    let wider = var_len(e.seq + 1_000_000) - var_len(e.seq);
    let address = uvar(chunk + wider) - uvar(chunk);
    assert_eq!(grown, wider + address);
    assert_eq!(image.serialized_len(), image_len(&image));
    assert!(grown < 64);
}

/// The image of a program that only ever talks on the world group holds,
/// per rank, one `SEQ[]` entry at its 40th collective and at its 160th:
/// it grows only where a count outgrows a varint width — a byte for each
/// of a rank's counts of collectives past 2⁷, not an event per collective.
/// (The v5 wire grew by a cut event per rank and collective: ≈ 1.6 kB a
/// rank from each of these images to the next.)
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
        |r| scf_loop(r, 120, 8), // two collectives an iteration
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    let images = &run.checkpoints;
    assert_eq!(images.len(), 4, "four cuts must commit");
    for (k, image) in images.iter().enumerate() {
        image.verify().expect("a committed cut is safe");
        // The trigger fires once every rank has made 40·(k+1) calls; the
        // drain may run a call or two past it.
        let cut = image.cut();
        let calls = cut.len() / N;
        assert_eq!(cut.len(), calls * N, "every rank, every call");
        assert!((40 * (k + 1)..40 * (k + 1) + 8).contains(&calls), "{calls}");
        assert_eq!(cut.runs().len(), N);
        assert_eq!(image.to_bytes().len(), image.serialized_len());
        assert_eq!(image.serialized_len(), image_len(image));
        // A rank's counts of collectives: its `SEQ[]` entry and its seven
        // call counters, each at most one byte wider at 160 calls than at
        // 40.
        let grown = image.serialized_len() - images[0].serialized_len();
        assert!(grown <= N * (1 + 7), "{grown} B grown by image {k}");
    }
    // Below 2⁷ calls every count is one byte: no growth at all.
    assert_eq!(images[1].serialized_len(), images[0].serialized_len());
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
        |r| scf_loop(r, 60, 8),
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    run.checkpoints
        .into_iter()
        .next()
        .expect("the cut must commit")
}

/// Every rank of an SCF cut holds the same restart-stable state, so the
/// image carries that state once: doubling the world adds each new rank's
/// record, and no chunk.
#[test]
fn ranks_with_identical_stable_halves_share_one_chunk() {
    let (small, large) = (scf_image(16), scf_image(32));
    for image in [&small, &large] {
        assert_eq!(
            distinct_stable_halves(image).len(),
            1,
            "the SCF ranks' stable halves differ"
        );
        assert_eq!(image.cut().runs().len(), image.n_ranks);
        assert!(image.captures.iter().all(|c| c.pending_barrier.is_none()));
        let len = image.serialized_len();
        assert_eq!(len, image.to_bytes().len());
        assert_eq!(len, image_len(image));
    }
    // Each new rank adds its record — every count of this run being
    // below 2⁷, one byte for each varint.
    let added: usize = (16..32).map(|r| record(&large.captures[r], &[])).sum();
    // A closure's rank has no upper half: its section is the tag alone.
    let small_record = 1 + TAG + WORD + TAG + 1 + 1 + TAG + (TAG + WORD + 1);
    assert_eq!(added, 16 * small_record);
    assert_eq!(large.serialized_len() - small.serialized_len(), added);
}

/// A two-rank image built by hand, every integer in it below 2⁷: each
/// count, rank, sequence number, id, counter and length is one byte on
/// the wire, and the image is exactly the sum of the widths below. An
/// integer written as an 8-byte word again — a group id beside its list
/// included — would break the sum.
#[test]
fn small_values_cost_one_byte_each() {
    let g = ggid_of_sorted(&[0, 1]);
    let capture = |rank: usize| {
        let mut seq_table = SeqTable::new();
        seq_table.restore(g, 3, vec![0, 1]);
        RuntimeCapture {
            rank,
            state: RankState::Quiesced,
            clock: VTime::from_micros(1.0),
            seq_table,
            comm_log: vec![CommOpRecord {
                op: CommOp::Split {
                    parent: VComm(0),
                    color: -1,
                    key: 1,
                },
                result: Some(VComm(1)),
            }],
            pending_recvs: vec![PendingRecv {
                vreq: 2,
                vcomm: 1,
                src: SrcSel::Any,
                tag: TagSel::Tag(9),
            }],
            pending_barrier: None,
            counters: CallCounters {
                coll_blocking: 3,
                p2p_recvs: 1,
                ..Default::default()
            },
            p2p_sent: 1,
            p2p_delivered: 1,
            // Rank-private, so the two stable halves differ.
            vcomm_members: [(0u64, vec![0, 1].into()), (1, vec![rank].into())]
                .into_iter()
                .collect(),
            // Rank 0's body saved three bytes beside one drained
            // iallreduce output and one held send; rank 1's has none.
            upper: (rank == 0).then(|| UpperHalf {
                body: vec![1, 2, 3],
                next_vreq: 4,
                ready: vec![(1, bytes::Bytes::from_static(b"ok"))],
                sends: vec![(3, VTime::from_micros(2.0))],
            }),
        }
    };
    let mut image = Checkpoint {
        epoch: 0,
        n_ranks: 2,
        protocol: Protocol::Cc,
        origin: CaptureOrigin {
            ranks_per_node: 2,
            params: NetParams::ideal(),
        },
        request_clock: VTime::ZERO,
        initial_targets: HashMap::new(),
        final_targets: [(g, 3)].into_iter().collect(),
        captures: vec![capture(0), capture(1)],
        in_flight: Vec::new(),
        cut_events: Cut::default(),
        io_write_secs: 0.0,
        io_read_secs: 0.0,
    };
    image.cut_events = image.cut();

    // Kind, generation, epoch, n_ranks, protocol, packing; ten network
    // parameters and the request clock; the empty initial target map and
    // the final map's one entry (ggid word, value); two io words.
    let preamble = 6 + 11 * WORD + 1 + (1 + WORD + 1) + 2 * WORD;
    // Every list is a contiguous run: an empty table. The output table:
    // count, then rank 0's one drained output (length, two bytes).
    let table = 1;
    let outputs = 1 + (1 + 2);
    // Rank, state, clock word, barrier tag, two flow counts, chunk
    // reference (tag, hash word, length).
    let record = 1 + 1 + WORD + 1 + 2 + (1 + WORD + 1);
    // The upper-half sections: rank 0's tag, next id, ready count and one
    // (vreq, output index), send count and one (vreq, time word), body
    // length and three bytes; rank 1's tag alone.
    let uppers = (1 + 1 + 1 + (1 + 1) + 1 + (1 + WORD) + 1 + 3) + 1;
    let in_flight_ref = 1 + WORD + 1;
    let head = preamble + table + outputs + 1 + 2 * record + uppers + in_flight_ref;
    // `seq_table`: count, seq, reference. Creation log: count, op tag,
    // parent, zigzag colour and key, result tag, result. Pending
    // receives: count, vreq, vcomm, source tag, tag selector and value.
    // Seven counters. `vcomm_members`: count, two (id, reference).
    let stable = (1 + 1 + 3) + (1 + 6) + (1 + 5) + 7 + (1 + 2 * (1 + 3));
    // The in-flight chunk: an empty count.
    let chunks = 2 * stable + 1;
    assert_eq!(uppers, 20);
    assert_eq!(stable, 34);
    assert_eq!(head, 203);

    let expected = IMAGE_HEADER_LEN + head + chunks;
    assert_eq!(image.serialized_len(), expected);
    assert_eq!(image_len(&image), expected);
    let bytes = image.to_bytes();
    assert_eq!(bytes.len(), expected);
    assert_eq!(Checkpoint::from_bytes(&bytes).as_ref(), Ok(&image));
}

/// The wire writes a group by its member list alone, so an image whose
/// group id is not its list's would decode to another group: encoding it
/// fails loudly instead.
#[test]
#[should_panic(expected = "is not the group id of its member list")]
fn a_group_id_that_is_not_its_lists_cannot_be_encoded() {
    let mut image = scf_image(4);
    let table = &mut image.captures[0].seq_table;
    let (g, e) = table.iter().map(|(g, e)| (*g, e.clone())).next().unwrap();
    table.restore(Ggid(g.0 ^ 1), e.seq, e.members);
    image.to_bytes();
}
