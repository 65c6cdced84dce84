//! Property-tests the checkpoint-image wire format: corruption can
//! *never* be silently accepted or crash the decoder.
//!
//! A genuine image is captured from a real checkpointed run, then
//! seed-driven mutations are thrown at `Checkpoint::from_bytes`:
//!
//! * **single-byte flips** anywhere in the buffer of a full image or a
//!   delta must yield a typed [`ImageError`] — the head is covered by the
//!   FNV-1a checksum, every chunk by its content address, and every
//!   header field is validated, so no flip may decode;
//! * **truncations** at every prefix length must yield a typed error;
//! * **length-field mutations** (the header's payload-length word and
//!   interior sequence-length words, with the checksum recomputed so the
//!   corruption reaches the structural decoder) must yield a typed error
//!   or a well-formed image — never a panic, hang, or huge allocation;
//! * appended **trailing garbage** must be rejected.
//!
//! The **member-list table** — every distinct non-contiguous group
//! member list written once, referenced by content id everywhere else —
//! is aimed at directly: a repaired flip anywhere in the table, or in the
//! id of any cut-run reference, is a typed error in both
//! `Checkpoint::from_bytes` and `DeltaImage::from_bytes`, for full
//! images and for delta heads.
//!
//! So are the **cut block** and the **chunk lengths**. The cut holds runs
//! `first..=last` where v5 held one event per participation, so a forged
//! run can claim 2⁶⁴ participations in 41 bytes: hostile bounds, ranks,
//! members and orderings are typed errors, and nothing — decode, the
//! oracle, `len()` — does work proportional to what a run claims. The
//! length in a chunk's address is what the decoder tiles the chunk
//! section by: zero, off by one, past the buffer or unrepresentable, it
//! is a typed error to the decoders and to `TieredStore::load`.
//!
//! The **delta image** sections get the same treatment: flips inside
//! content-addressed chunk bodies (where the head checksum does not
//! reach, so they meet the chunk re-hash) are typed
//! [`ImageError::DeltaChain`] rejections, a
//! forged parent-generation word resolves to a typed chain error through
//! [`TieredStore::load`] — dangling, cyclic, or checksum-mismatched,
//! depending on where it points — and a chain whose root was evicted
//! fails with [`ImageError::DanglingParent`]. Never a panic.

use bench::{perturbed_checkpoint, synthetic_checkpoint};
use ckpt::store::delta::full_image_refs;
use ckpt::{
    run_ckpt_world, Checkpoint, ChunkPool, ChunkRef, CkptOptions, CkptTier, DeltaImage, ImageError,
    ResumeMode, StoreError, TieredStore,
};
use mana_core::{Cut, CutRun};
use mpisim::{NetParams, Scheduler, VTime, WorldConfig};
use std::sync::Arc;
use workloads::{random_workload, RandomWorkloadCfg, SplitMix64};

use ckpt::image::{
    IMAGE_CHECKSUM_OFFSET as CHECKSUM_OFFSET, IMAGE_HEADER_LEN as HEADER,
    IMAGE_HEAD_LEN_OFFSET as HEAD_LEN_OFFSET, IMAGE_LEN_OFFSET as LEN_OFFSET,
};

/// Captures one non-trivial image from a real run: eight ranks, so the
/// schedule's communicator splits leave strided groups and the image
/// holds member-table entries (a 4-rank world splits into runs only).
fn capture_image() -> Checkpoint {
    let cfg = WorldConfig::single_node(8).with_params(NetParams::slingshot11().without_jitter());
    let wl = RandomWorkloadCfg::new(13, 25);
    let native = run_ckpt_world(cfg.clone(), CkptOptions::native(), |r| {
        random_workload(&wl, r)
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let paced = wl.clone().with_pace_us(20);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |r| random_workload(&paced, r),
    );
    let image = run
        .checkpoints
        .into_iter()
        .next()
        .expect("harness captured a checkpoint");
    assert!(
        image.member_table_range().len() > 8,
        "the fuzzed image must hold member-table entries"
    );
    image
}

/// Patches the header checksum to match the (mutated) head — the payload
/// up to the header's head length — so a mutation penetrates past the
/// integrity check into the structural decoder.
fn fix_checksum(buf: &mut [u8]) {
    let head_len = word_at(buf, HEAD_LEN_OFFSET) as usize;
    let start = HEADER.min(buf.len());
    let end = HEADER.saturating_add(head_len).min(buf.len()).max(start);
    let sum = ckpt::wire::fnv1a64(&buf[start..end]);
    buf[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Where the head of a serialized image ends and its chunk section
/// begins.
fn head_end(bytes: &[u8]) -> usize {
    HEADER + word_at(bytes, HEAD_LEN_OFFSET) as usize
}

/// Decodes under a panic guard: the decoder must return `Result`, never
/// unwind.
fn decode_no_panic(buf: &[u8], what: &str) -> Result<Checkpoint, ImageError> {
    std::panic::catch_unwind(|| Checkpoint::from_bytes(buf))
        .unwrap_or_else(|_| panic!("decoder panicked on {what}"))
}

/// Flips one bit in every header byte and in a seed-driven sample of
/// payload positions — head and chunk section alike: `rejects` must
/// refuse every one.
fn assert_single_flips_rejected(
    bytes: &[u8],
    rng: &mut SplitMix64,
    rejects: impl Fn(&[u8], &str) -> bool,
) {
    let mut positions: Vec<usize> = (0..HEADER.min(bytes.len())).collect();
    for _ in 0..400 {
        positions.push(HEADER + rng.next_range((bytes.len() - HEADER) as u64) as usize);
    }
    for pos in positions {
        let flip = 1u8 << rng.next_range(8);
        let mut m = bytes.to_vec();
        m[pos] ^= flip;
        assert!(
            rejects(&m, &format!("flip at {pos}")),
            "flipped bit at byte {pos} was silently accepted"
        );
    }
}

#[test]
fn single_byte_flips_are_always_rejected() {
    let image = capture_image();
    let (_store, delta) = delta_chain_store();
    let mut rng = SplitMix64::new(0xF1A7);
    assert_single_flips_rejected(&image.to_bytes(), &mut rng, |m, what| {
        decode_no_panic(m, what).is_err()
    });
    assert_single_flips_rejected(&delta, &mut rng, |m, what| {
        decode_payload_no_panic(m, what).is_err()
    });
}

#[test]
fn truncations_are_always_rejected() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let mut rng = SplitMix64::new(0x7A11);
    // Every length near the header plus a sample across the payload,
    // including cutting exactly at the header edge and at len-1.
    let mut lens: Vec<usize> = (0..HEADER + 16).collect();
    for _ in 0..200 {
        lens.push(rng.next_range(bytes.len() as u64) as usize);
    }
    lens.push(bytes.len() - 1);
    for len in lens {
        let r = decode_no_panic(&bytes[..len], &format!("truncation to {len}"));
        assert!(r.is_err(), "truncation to {len} bytes was accepted");
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let image = capture_image();
    let mut bytes = image.to_bytes();
    bytes.extend_from_slice(b"tail");
    // The header's payload length no longer covers the tail: the decoder
    // must notice rather than quietly ignore the extra bytes.
    let r = decode_no_panic(&bytes, "trailing garbage");
    assert!(r.is_err(), "trailing garbage was accepted");
}

#[test]
fn header_length_field_mutations_are_typed_errors() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let payload_len = bytes.len() - HEADER;
    let candidates: [u64; 7] = [
        0,
        1,
        payload_len as u64 - 1,
        payload_len as u64 + 1,
        u64::MAX,
        u64::MAX / 2,
        1 << 40, // plausible-looking but far beyond the buffer
    ];
    for v in candidates {
        let mut m = bytes.clone();
        m[LEN_OFFSET..LEN_OFFSET + 8].copy_from_slice(&v.to_le_bytes());
        // With and without a recomputed checksum: both must fail typed.
        let r = decode_no_panic(&m, &format!("length={v}"));
        assert!(r.is_err(), "header length {v} was accepted");
        fix_checksum(&mut m);
        let r = decode_no_panic(&m, &format!("length={v} (checksum fixed)"));
        assert!(r.is_err(), "header length {v} with fixed checksum accepted");
    }
}

/// Deep structural fuzz: flip payload bytes *and recompute the checksum*,
/// so corruption reaches the field decoders. The decoder must never
/// panic, hang, or allocate absurdly — it returns a typed error, or (for
/// semantically-plausible flips, e.g. a clock bit) a well-formed image
/// whose world shape still matches.
#[test]
fn checksum_repaired_flips_never_panic() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let mut rng = SplitMix64::new(0xBEEF);
    for _ in 0..600 {
        let pos = HEADER + rng.next_range((bytes.len() - HEADER) as u64) as usize;
        let flip = 1u8 << rng.next_range(8);
        let mut m = bytes.clone();
        m[pos] ^= flip;
        fix_checksum(&mut m);
        if let Ok(decoded) = decode_no_panic(&m, &format!("repaired flip at {pos}")) {
            assert_eq!(
                decoded.n_ranks, image.n_ranks,
                "repaired flip at {pos} changed the world shape undetected"
            );
            assert_eq!(
                decoded.captures.len(),
                image.n_ranks,
                "repaired flip at {pos} broke the capture-per-rank invariant"
            );
        }
    }
}

/// Aims mutations at the **per-rank record boundaries**
/// (`Checkpoint::capture_section_ranges`): the first and last bytes of
/// every record, plus the rank word at each record start. A boundary flip
/// with a repaired checksum lands in the structural decoder exactly where
/// one rank's record ends and the next begins — if the record tiling ever
/// drifted from the decoder's expectations, it would surface here as a
/// panic, a hang, or a silently-shifted decode. The decoder must return a
/// typed error or a shape-consistent image, never unwind.
#[test]
fn section_boundary_mutations_never_panic() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let ranges = image.capture_section_ranges();
    assert_eq!(ranges.len(), image.n_ranks);
    let mut rng = SplitMix64::new(0x5EC7);

    let mut positions: Vec<usize> = Vec::new();
    for r in &ranges {
        // Both edges of the record, and the 8-byte rank word at its
        // start.
        positions.extend([r.start, r.end - 1]);
        positions.extend(r.start..(r.start + 8).min(r.end));
        // A few interior samples per section.
        for _ in 0..4 {
            positions.push(r.start + rng.next_range((r.end - r.start) as u64) as usize);
        }
    }
    for pos in positions {
        let flip = 1u8 << rng.next_range(8);
        let mut m = bytes.clone();
        m[pos] ^= flip;
        fix_checksum(&mut m);
        if let Ok(decoded) = decode_no_panic(&m, &format!("section-boundary flip at {pos}")) {
            assert_eq!(
                decoded.captures.len(),
                image.n_ranks,
                "boundary flip at {pos} broke the capture-per-rank invariant"
            );
        }
    }
}

/// The record ranges advertised for fuzzing must agree with the bytes
/// the encoder actually produces: re-encoding with a single rank's
/// volatile state mutated changes exactly that record (plus the header
/// checksum), for both the serial and the parallel encoder.
#[test]
fn section_ranges_agree_with_parallel_encoder_output() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let ranges = image.capture_section_ranges();

    let mut tweaked = image.clone();
    tweaked.captures[2].p2p_delivered += 1;
    for workers in [1, 2, 8] {
        let b2 = tweaked.to_bytes_parallel(workers);
        assert_eq!(b2.len(), bytes.len());
        for (i, r) in ranges.iter().enumerate() {
            assert_eq!(
                bytes[r.clone()] == b2[r.clone()],
                i != 2,
                "only rank 2's section may change (workers={workers}, section {i})"
            );
        }
        assert_eq!(
            bytes[ranges.last().unwrap().end..],
            b2[ranges.last().unwrap().end..]
        );
    }
}

// ---------------------------------------------------------------------
// member-list table and references
// ---------------------------------------------------------------------

/// Bytes of a cut run ahead of its member-list reference: rank, ggid,
/// first and last words.
const RUN_WORDS: usize = 32;

/// Encoded size of one cut run: its four words, then the member-list
/// reference — tag + `(start, len)` for a contiguous group, tag + content
/// id for a list held in the table.
fn run_len(r: &CutRun) -> usize {
    let contiguous = r.members.windows(2).all(|w| w[1] == w[0] + 1);
    RUN_WORDS + if contiguous { 17 } else { 9 }
}

/// Offset of every run of an encoded cut whose runs start at `at`.
fn run_offsets(cut: &Cut, mut at: usize) -> Vec<usize> {
    let offset_then_advance = |r: &CutRun| {
        at += run_len(r);
        at - run_len(r)
    };
    cut.runs().iter().map(offset_then_advance).collect()
}

/// Offsets of the content-id word of every table reference in an encoded
/// cut whose runs start at `at`.
fn listed_id_offsets(cut: &Cut, at: usize) -> Vec<usize> {
    let listed = |(r, at): (&CutRun, usize)| (run_len(r) == RUN_WORDS + 9).then_some(at);
    let runs = cut.runs().iter().zip(run_offsets(cut, at));
    runs.filter_map(listed)
        .map(|at| at + RUN_WORDS + 1)
        .collect()
}

/// Where the runs of an image's cut start: the cut closes the head.
fn cut_runs_start(cut: &Cut, bytes: &[u8]) -> usize {
    let cut_len: usize = cut.runs().iter().map(run_len).sum();
    head_end(bytes) - cut_len
}

/// A repaired one-bit flip at each of `positions` must be refused by
/// `decode` with a typed error — never accepted, never a panic.
fn assert_flips_rejected<T: std::fmt::Debug>(
    bytes: &[u8],
    positions: impl Iterator<Item = usize>,
    rng: &mut SplitMix64,
    decode: impl Fn(&[u8]) -> Result<T, ImageError> + std::panic::RefUnwindSafe,
    what: &str,
) {
    for pos in positions {
        let mut m = bytes.to_vec();
        m[pos] ^= 1u8 << rng.next_range(8);
        fix_checksum(&mut m);
        let res = std::panic::catch_unwind(|| decode(&m))
            .unwrap_or_else(|_| panic!("decoder panicked on a {what} flip at {pos}"));
        assert!(
            matches!(
                res,
                Err(ImageError::Malformed(_)) | Err(ImageError::DeltaChain(_))
            ),
            "{what} flip at byte {pos} must fail typed, got {res:?}"
        );
    }
}

/// Every byte of a live image's member-list table — count word, ids,
/// length words, members — is load-bearing: the ids are re-derived from
/// the content, ascending order is enforced, and every reference must
/// resolve, so no repaired flip in the table decodes.
#[test]
fn member_table_flips_are_always_rejected() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let table = image.member_table_range();
    let mut rng = SplitMix64::new(0x7AB1);
    assert_flips_rejected(
        &bytes,
        table.clone(),
        &mut rng,
        Checkpoint::from_bytes,
        "member-table",
    );
    assert_flips_rejected(
        &bytes,
        table,
        &mut rng,
        DeltaImage::from_bytes,
        "member-table",
    );
}

/// A flipped content id in a cut-run reference names a list the table
/// does not hold: `Malformed`, in both decoders.
#[test]
fn cut_event_reference_flips_are_unknown_ids() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let ids = listed_id_offsets(&image.cut_events, cut_runs_start(&image.cut_events, &bytes));
    assert!(!ids.is_empty(), "no cut run references the table");
    let mut rng = SplitMix64::new(0x1D5);
    let every_byte = || ids.iter().flat_map(|&at| at..at + 8);
    assert_flips_rejected(
        &bytes,
        every_byte(),
        &mut rng,
        Checkpoint::from_bytes,
        "event-reference",
    );
    assert_flips_rejected(
        &bytes,
        every_byte(),
        &mut rng,
        DeltaImage::from_bytes,
        "event-reference",
    );
}

/// The live image as the child of a parent that had got half as far on
/// every group and had different call counters on every rank: the delta
/// carries the child's cut, every rank's chunk inline, and the
/// member-list table for both.
fn live_delta() -> (Checkpoint, Checkpoint, DeltaImage) {
    let child = capture_image();
    let mut parent = child.clone();
    let halved = |r: &CutRun| CutRun {
        last: r.last.div_ceil(2),
        ..r.clone()
    };
    parent.cut_events = Cut::from_runs(child.cut_events.runs().iter().map(halved).collect());
    for c in &mut parent.captures {
        c.counters.completions += 1;
    }
    let known = full_image_refs(&parent).into_iter().collect();
    let delta = DeltaImage::build(1, 0, 0, &parent, &known, &child);
    assert_eq!(delta.cut, child.cut_events);
    assert_eq!(delta.new_chunks.len(), child.n_ranks);
    assert!(
        !delta.lists.is_empty(),
        "the delta must carry table entries"
    );
    (parent, child, delta)
}

/// The same two attacks on a delta head: its member-list table and the
/// references of its cut.
#[test]
fn delta_member_table_and_reference_flips_are_typed_errors() {
    let (parent, child, delta) = live_delta();
    let bytes = delta.to_bytes();
    match decode_payload_no_panic(&bytes, "pristine live delta") {
        Ok(d) if d.parent.is_some() => {
            assert_eq!(d, delta);
            let mut pool = ChunkPool::new();
            pool.absorb_full(&parent);
            pool.absorb_delta(&d);
            assert_eq!(d.apply(&parent, &pool).as_ref(), Ok(&child));
        }
        other => panic!("expected a delta image, got {other:?}"),
    }

    let table = delta.member_table_range();
    let ids = listed_id_offsets(&delta.cut, cut_runs_start(&delta.cut, &bytes));
    assert!(!ids.is_empty(), "no cut run references the table");
    let mut rng = SplitMix64::new(0xD7AB);
    assert_flips_rejected(
        &bytes,
        table.chain(ids.iter().flat_map(|&at| at..at + 8)),
        &mut rng,
        DeltaImage::from_bytes,
        "delta-head",
    );
}

/// A delta whose table lacks a list its rank chunks reference — the cut
/// does not name it either — cannot resolve the chunk: a typed error out
/// of `apply`, not a panic.
#[test]
fn chunk_reference_missing_from_the_delta_table_is_a_typed_error() {
    let (mut parent, mut child, _) = live_delta();
    parent.cut_events = Cut::default();
    child.cut_events = Cut::default();
    let known = full_image_refs(&parent).into_iter().collect();
    let mut delta = DeltaImage::build(1, 0, 0, &parent, &known, &child);
    let mut pool = ChunkPool::new();
    pool.absorb_full(&parent);
    pool.absorb_delta(&delta);
    assert_eq!(delta.apply(&parent, &pool).as_ref(), Ok(&child));

    delta.lists.clear();
    let res = std::panic::catch_unwind(|| delta.apply(&parent, &pool))
        .unwrap_or_else(|_| panic!("apply panicked on a table-less delta"));
    assert!(
        matches!(res, Err(ImageError::Malformed(_))),
        "an unresolvable chunk reference must fail typed, got {res:?}"
    );
}

// ---------------------------------------------------------------------
// the cut block and the chunk lengths
// ---------------------------------------------------------------------

/// `bytes` with the little-endian word at `at` replaced and the header
/// resealed, so the edit reaches the structural decoder.
fn patched(bytes: &[u8], at: usize, word: u64) -> Vec<u8> {
    let mut m = bytes.to_vec();
    m[at..at + 8].copy_from_slice(&word.to_le_bytes());
    fix_checksum(&mut m);
    m
}

fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Both decoders refuse `bytes` as `Malformed`, without panicking.
fn assert_malformed(bytes: &[u8], what: &str) {
    let full = decode_no_panic(bytes, what).err();
    let either = decode_payload_no_panic(bytes, what).err();
    for got in [full, either] {
        assert!(
            matches!(got, Some(ImageError::Malformed(_))),
            "{what} must be Malformed, got {got:?}"
        );
    }
}

/// Hostile runs, each patched into a live image's cut block and resealed:
/// bounds no wrapper can produce, a rank and a member outside the world,
/// runs out of canonical order, a reference to a list the table lacks.
#[test]
fn hostile_cut_runs_are_typed_errors() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let runs = image.cut_events.runs();
    let at = run_offsets(&image.cut_events, cut_runs_start(&image.cut_events, &bytes));
    // Word offsets within a run: rank, ggid, first, last, then the
    // reference — a tag byte and `(start, len)` or a content id.
    let (rank, first, last, reference) = (0, 16, 24, RUN_WORDS + 1);
    let mid = runs.len() / 2;

    assert_malformed(&patched(&bytes, at[mid] + first, 0), "first = 0");
    let past = word_at(&bytes, at[mid] + last) + 1;
    assert_malformed(&patched(&bytes, at[mid] + first, past), "first > last");
    // On the last run, so that the order check has nothing to say.
    let end = runs.len() - 1;
    let n = image.n_ranks as u64;
    assert_malformed(&patched(&bytes, at[end] + rank, n), "rank out of world");
    let ranged = (0..runs.len()).find(|&i| run_len(&runs[i]) == RUN_WORDS + 17);
    let ranged = ranged.expect("a run on a contiguous group");
    let len_word = at[ranged] + reference + 8;
    assert_malformed(&patched(&bytes, len_word, n + 1), "member out of world");
    let listed = listed_id_offsets(&image.cut_events, at[0])[0];
    let unknown = word_at(&bytes, listed) ^ 1;
    assert_malformed(
        &patched(&bytes, listed, unknown),
        "id missing from the table",
    );
    // Two neighbouring runs of one rank, swapped (whole, so each still
    // parses): the second now sorts before the first.
    let pair = (0..end).find(|&i| runs[i].rank == runs[i + 1].rank);
    let pair = pair.expect("a rank with runs on two groups");
    let (a, b, c) = (
        at[pair],
        at[pair + 1],
        at[pair + 1] + run_len(&runs[pair + 1]),
    );
    let mut swapped = bytes.clone();
    swapped[a..c].rotate_left(b - a);
    fix_checksum(&mut swapped);
    assert_malformed(&swapped, "swapped run order");
}

/// A run is 41 bytes whatever it claims, so a forged one can claim every
/// sequence number there is. Nothing may then do work proportional to the
/// claim: decoding, the oracle and `len()` together stay far below what
/// one pass over 2⁶⁴ — or 2³² — participations would take.
#[test]
fn a_run_claiming_every_sequence_number_costs_nothing() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let at = run_offsets(&image.cut_events, cut_runs_start(&image.cut_events, &bytes));
    let forged = patched(&bytes, at[0] + 24, u64::MAX);

    let t = std::time::Instant::now();
    let decoded = decode_no_panic(&forged, "last = u64::MAX").expect("bounds in order decode");
    let verdict = decoded.verify();
    let len = decoded.cut_events.len();
    let took = t.elapsed();

    assert_eq!(decoded.cut_events.runs()[0].last, u64::MAX);
    assert_eq!(len, usize::MAX, "len saturates");
    let violations = verdict.expect_err("a run beyond every target is no safe cut");
    assert!(violations.len() <= 4 * image.cut_events.runs().len());
    assert!(took.as_millis() < 10, "{took:?} for a 41-byte forgery");
}

/// A store holding a full root (gen 0) and one delta on it (gen 1), with
/// the root's image and stored bytes and the delta's bytes.
fn root_and_delta_store() -> (TieredStore, Checkpoint, Vec<u8>, Vec<u8>) {
    let store = TieredStore::default();
    let workers = Scheduler::default_workers();
    let root = Arc::new(synthetic_checkpoint(24, 0x57AB));
    let leaf = Arc::new(perturbed_checkpoint(&root, 5));
    store.save(CkptTier::Lustre, Arc::clone(&root), false, workers);
    let r1 = store.save(CkptTier::Lustre, leaf, true, workers);
    assert_eq!(r1.delta_parent, Some(0));
    let stored = |gen| store.backend(CkptTier::Lustre).get(gen).unwrap().to_vec();
    let (root_bytes, delta_bytes) = (stored(0), stored(1));
    (store, (*root).clone(), root_bytes, delta_bytes)
}

/// Delta head layout: the parent-checksum word follows the kind byte and
/// the two generation words.
const DELTA_PARENT_CHECKSUM_OFFSET: usize = HEADER + 17;

/// Offset of the hash word of the first reference to chunk `r` in the
/// bytes of `image`: a rank record closes with its chunk reference (tag,
/// hash, len), and the in-flight reference follows the last record.
fn ref_hash_offset(image: &DeltaImage, r: ChunkRef) -> usize {
    let records = image.capture_section_ranges();
    match image.rank_refs.iter().position(|&x| x == r) {
        Some(rank) => records[rank].end - 16,
        None => records.last().unwrap().end + 1,
    }
}

/// The length in a chunk's address is what the decoder tiles the chunk
/// section by. Forged on the first, a middle and the last chunk of a
/// stored root (zero, one off either way, past the buffer,
/// unrepresentable) and resealed, it is a typed error to both decoders
/// and to `TieredStore::load` of a delta on that root, whose parent
/// fingerprint is re-aimed at the forgery so the load gets as far as
/// decoding it. No forged word sizes an allocation: the lengths must
/// tile the chunk section before any chunk is copied.
#[test]
fn forged_chunk_lengths_are_malformed_to_decode_and_to_chain_load() {
    let (store, _root, root_bytes, delta_bytes) = root_and_delta_store();
    store.load(1).expect("the pristine chain resolves");
    let root = DeltaImage::from_bytes(&root_bytes).expect("the stored root decodes");
    let chunks = &root.new_chunks;
    let lustre = store.backend(CkptTier::Lustre);
    let typed = |e: &ImageError| matches!(e, ImageError::Malformed(_) | ImageError::DeltaChain(_));

    for (r, _) in [
        &chunks[0],
        &chunks[chunks.len() / 2],
        &chunks[chunks.len() - 1],
    ] {
        let at = ref_hash_offset(&root, *r) + 8;
        assert_eq!(word_at(&root_bytes, at), r.len, "not the length word");
        let beyond = root_bytes.len() as u64;
        for forged in [0, r.len - 1, r.len + 1, beyond, u64::MAX] {
            let what = format!("chunk length {} -> {forged} at {at}", r.len);
            let bad_root = patched(&root_bytes, at, forged);
            for got in [
                decode_no_panic(&bad_root, &what).err(),
                decode_payload_no_panic(&bad_root, &what).err(),
            ] {
                assert!(got.as_ref().is_some_and(typed), "{what}: got {got:?}");
            }

            let fingerprint = word_at(&bad_root, CHECKSUM_OFFSET);
            let re_aimed = patched(&delta_bytes, DELTA_PARENT_CHECKSUM_OFFSET, fingerprint);
            lustre.put(0, bad_root, 1);
            lustre.put(1, re_aimed, 1);
            let res = std::panic::catch_unwind(|| store.load(1))
                .unwrap_or_else(|_| panic!("store.load panicked on {what}"));
            assert!(
                matches!(&res, Err(StoreError::Image(e)) if typed(e)),
                "{what}: chain load must fail typed, got {res:?}"
            );
        }
    }

    lustre.put(0, root_bytes, 1);
    lustre.put(1, delta_bytes, 1);
    store.load(1).expect("restored pristine bytes load again");
}

// ---------------------------------------------------------------------
// delta / chunk sections
// ---------------------------------------------------------------------

/// Delta head layout: kind byte, then `generation` and the parent's
/// generation as little-endian u64 words (see `DeltaImage::enc_preamble`).
const DELTA_GEN_OFFSET: usize = HEADER + 1;
const DELTA_PARENT_OFFSET: usize = HEADER + 9;

/// A store holding a three-element chain — full root (gen 0) plus two
/// chained deltas (gens 1, 2) over perturbed synthetic images — and the
/// leaf delta's serialized bytes.
fn delta_chain_store() -> (TieredStore, Vec<u8>) {
    let store = TieredStore::default();
    let workers = Scheduler::default_workers();
    let root = Arc::new(synthetic_checkpoint(24, 0xFA22));
    let mid = Arc::new(perturbed_checkpoint(&root, 5));
    let leaf = Arc::new(perturbed_checkpoint(&mid, 7));
    let r0 = store.save(CkptTier::Lustre, root, false, workers);
    let r1 = store.save(CkptTier::Lustre, mid, true, workers);
    let r2 = store.save(CkptTier::Lustre, Arc::clone(&leaf), true, workers);
    assert_eq!((r0.generation, r1.generation, r2.generation), (0, 1, 2));
    assert_eq!(r2.delta_parent, Some(1));
    let bytes = store
        .backend(CkptTier::Lustre)
        .get(2)
        .expect("leaf delta bytes");
    // The store hands out shared bytes; the fuzzers mutate their own copy.
    (store, bytes.to_vec())
}

/// Decodes an either-kind image under a panic guard.
fn decode_payload_no_panic(buf: &[u8], what: &str) -> Result<DeltaImage, ImageError> {
    std::panic::catch_unwind(|| DeltaImage::from_bytes(buf))
        .unwrap_or_else(|_| panic!("payload decoder panicked on {what}"))
}

/// Decodes the stored leaf of [`delta_chain_store`], which must be a delta.
fn pristine_delta(bytes: &[u8]) -> DeltaImage {
    match decode_payload_no_panic(bytes, "pristine delta") {
        Ok(d) if d.parent.is_some() => d,
        other => panic!("expected a delta image, got {other:?}"),
    }
}

/// Flips inside a delta's inline chunk bodies — first, last, and interior
/// bytes of every content window [`ckpt::DeltaImage::chunk_byte_ranges`]
/// advertises, plus the hash word of the chunk's address in the head —
/// with the header checksum repaired, so the corruption reaches the
/// per-chunk re-hash. Every one must be a typed
/// [`ImageError::DeltaChain`], never a panic and never a
/// silently-poisoned chunk.
#[test]
fn delta_chunk_content_flips_are_typed_chain_errors() {
    let (_store, bytes) = delta_chain_store();
    let delta = pristine_delta(&bytes);
    let ranges = delta.chunk_byte_ranges();
    assert!(
        !ranges.is_empty(),
        "a perturbed child must carry inline chunks"
    );
    assert!(ranges
        .iter()
        .all(|r| r.end <= bytes.len() && r.start < r.end));

    let mut rng = SplitMix64::new(0xC41B);
    for (i, (r, (address, _))) in ranges.iter().zip(&delta.new_chunks).enumerate() {
        let mid = r.start + (r.end - r.start) / 2;
        // Flipping the hash word of the chunk's address must mismatch
        // the body.
        for pos in [r.start, mid, r.end - 1, ref_hash_offset(&delta, *address)] {
            let flip = 1u8 << rng.next_range(8);
            let mut m = bytes.clone();
            m[pos] ^= flip;
            fix_checksum(&mut m);
            let res = decode_payload_no_panic(&m, &format!("chunk {i} flip at {pos}"));
            assert!(
                matches!(
                    res,
                    Err(ImageError::DeltaChain(_)) | Err(ImageError::Malformed(_))
                ),
                "chunk {i} flip at byte {pos} must fail typed, got {res:?}"
            );
        }
    }
}

/// Truncations of a delta image at every header-adjacent prefix and a
/// seed-driven sample across the payload are typed errors.
#[test]
fn delta_truncations_are_always_rejected() {
    let (_store, bytes) = delta_chain_store();
    let mut rng = SplitMix64::new(0x7D17);
    let mut lens: Vec<usize> = (0..HEADER + 16).collect();
    for _ in 0..120 {
        lens.push(rng.next_range(bytes.len() as u64) as usize);
    }
    lens.push(bytes.len() - 1);
    for len in lens {
        let r = decode_payload_no_panic(&bytes[..len], &format!("delta truncation to {len}"));
        assert!(r.is_err(), "delta truncated to {len} bytes was accepted");
    }
}

/// Checksum-repaired flips across the delta *head* (everything before the
/// first inline chunk: generation words, origin, target maps, volatile
/// records, chunk refs, cut) never panic — they decode to a typed error
/// or to a shape-consistent delta.
#[test]
fn delta_head_repaired_flips_never_panic() {
    let (_store, bytes) = delta_chain_store();
    let delta = pristine_delta(&bytes);
    let head_end = head_end(&bytes);
    assert_eq!(
        Some(head_end),
        delta.chunk_byte_ranges().first().map(|r| r.start)
    );
    let mut rng = SplitMix64::new(0xD317);
    for _ in 0..400 {
        let pos = HEADER + rng.next_range((head_end - HEADER) as u64) as usize;
        let flip = 1u8 << rng.next_range(8);
        let mut m = bytes.clone();
        m[pos] ^= flip;
        fix_checksum(&mut m);
        if let Ok(d) = decode_payload_no_panic(&m, &format!("delta head flip at {pos}")) {
            assert_eq!(
                d.n_ranks, delta.n_ranks,
                "head flip at {pos} changed the world shape"
            );
            assert_eq!(d.volatile.len(), d.n_ranks);
            assert_eq!(d.rank_refs.len(), d.n_ranks);
        }
    }
}

/// Forged parent-generation words, patched into the stored bytes with the
/// checksum repaired, resolve to typed chain errors through
/// [`TieredStore::load`]: a parent that does not predate the child is a
/// cycle guard rejection, and a ref re-aimed at a *different* real
/// ancestor trips the parent-checksum fingerprint. A patched generation
/// word likewise fails the stored-generation cross-check.
#[test]
fn forged_delta_parent_refs_are_typed_chain_errors() {
    let (store, bytes) = delta_chain_store();
    let patch = |offset: usize, v: u64| {
        let mut m = bytes.clone();
        m[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
        fix_checksum(&mut m);
        store.backend(CkptTier::Lustre).put(2, m, 1);
        let res = std::panic::catch_unwind(|| store.load(2))
            .unwrap_or_else(|_| panic!("store.load panicked on patched word at {offset}"));
        store.backend(CkptTier::Lustre).put(2, bytes.clone(), 1);
        res
    };

    // Parent points at the leaf's own (or a later) generation: the
    // not-older guard refuses before the walk can cycle.
    match patch(DELTA_PARENT_OFFSET, 2) {
        Err(StoreError::Image(ImageError::DeltaChain(what))) => {
            assert_eq!(what, "parent generation not older")
        }
        other => panic!("self-parent must be a typed chain error, got {other:?}"),
    }

    // Parent re-aimed at the full root (a real, older, *wrong* ancestor):
    // the delta's stored parent-checksum fingerprint catches the switch.
    match patch(DELTA_PARENT_OFFSET, 0) {
        Err(StoreError::Image(ImageError::DeltaChain(what))) => {
            assert_eq!(what, "parent checksum mismatch")
        }
        other => panic!("re-aimed parent must be a typed chain error, got {other:?}"),
    }

    // The generation word itself disagreeing with the stored slot.
    match patch(DELTA_GEN_OFFSET, 9) {
        Err(StoreError::Image(ImageError::DeltaChain(what))) => {
            assert_eq!(what, "stored generation mismatch")
        }
        other => panic!("forged generation must be a typed chain error, got {other:?}"),
    }

    // A flip *without* checksum repair never reaches the chain walk: the
    // header integrity check rejects it first.
    let mut m = bytes.clone();
    m[DELTA_PARENT_OFFSET] ^= 0x40;
    store.backend(CkptTier::Lustre).put(2, m, 1);
    match store.load(2) {
        Err(StoreError::Image(ImageError::ChecksumMismatch)) => {}
        other => panic!("unrepaired flip must fail the checksum, got {other:?}"),
    }
    store.backend(CkptTier::Lustre).put(2, bytes, 1);
    store.load(2).expect("restored pristine bytes load again");
}

/// Evicting the chain's *root* truncates every descendant: the leaf's
/// load fails with a typed [`ImageError::DanglingParent`] naming the
/// broken edge (the mid delta's ref to the vanished root), never a panic
/// or a wrong resolution.
#[test]
fn evicted_chain_root_is_a_typed_dangling_parent() {
    let (store, _bytes) = delta_chain_store();
    store.evict(0);
    match store.load(2) {
        Err(StoreError::Image(ImageError::DanglingParent { generation, parent })) => {
            assert_eq!(generation, 1, "the mid delta holds the broken ref");
            assert_eq!(parent, 0, "the evicted root is the missing parent");
        }
        other => panic!("evicted root must dangle the chain, got {other:?}"),
    }
}

/// Version and magic words are validated before anything else.
#[test]
fn bad_magic_and_version_are_typed() {
    let image = capture_image();
    let bytes = image.to_bytes();

    let mut m = bytes.clone();
    m[0] ^= 0xFF;
    assert_eq!(decode_no_panic(&m, "bad magic"), Err(ImageError::BadMagic));

    let mut m = bytes.clone();
    m[8] = 0xEE; // version word
    assert!(matches!(
        decode_no_panic(&m, "bad version"),
        Err(ImageError::UnsupportedVersion(_))
    ));

    assert!(matches!(
        decode_no_panic(&[], "empty buffer"),
        Err(ImageError::BadMagic) | Err(ImageError::Truncated { .. })
    ));
}
