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
//!   interior sequence lengths, with the checksum recomputed so the
//!   corruption reaches the structural decoder) must yield a typed error
//!   or a well-formed image — never a panic, hang, or huge allocation;
//! * appended **trailing garbage** must be rejected;
//! * a head varint rewritten into an **overlong form** — the same value,
//!   one byte longer — must yield a typed error: a chunk has exactly one
//!   byte form, so the decoder accepts no other.
//!
//! The **member-list table** — every distinct non-contiguous group
//! member list written once, referenced by content id everywhere else —
//! is aimed at directly: a repaired flip anywhere in the table is a typed
//! error in both `Checkpoint::from_bytes` and `DeltaImage::from_bytes`,
//! for full images and for delta heads, and a flipped id in any
//! sequence-table reference (its chunk re-addressed) is one to the
//! decoder that reads chunks.
//!
//! So are the **sequence tables** — the cut: each entry states the run
//! `1..=SEQ[g]`, so a forged entry can claim 2⁶⁴ participations in 19
//! bytes. A member outside the world, a list the table lacks and entries
//! out of order are typed errors; a `SEQ` no drain reaches decodes and is
//! refused by the oracle; and nothing — decode, the oracle, `len()` —
//! does work proportional to what an entry claims. So are the **chunk
//! lengths**: the length in a chunk's address is what the decoder tiles the chunk
//! section by: zero, off by one, past the buffer or unrepresentable, it
//! is a typed error to the decoders and to `TieredStore::load`. So is
//! each rank's **upper half** (the body's snapshot and its request-table
//! state): a forged tag, request id, output index or completion time, a
//! snapshot length past the record, or an output-table entry no record
//! names, is `Malformed`.
//! So are **vcomm-member keys** out of order or repeated: a chunk decodes
//! to one canonical capture or to an error.
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
    run_ckpt_world_steps, Checkpoint, ChunkPool, ChunkRef, CkptOptions, CkptTier, DeltaImage,
    ImageError, ResumeMode, StoreError, TieredStore,
};
use mpisim::{NetParams, Scheduler, VTime, WorldConfig};
use std::sync::Arc;
use workloads::{RandomWorkloadCfg, RandomWorkloadStep, SplitMix64};

use ckpt::image::{
    IMAGE_CHECKSUM_OFFSET as CHECKSUM_OFFSET, IMAGE_HEADER_LEN as HEADER,
    IMAGE_HEAD_LEN_OFFSET as HEAD_LEN_OFFSET, IMAGE_LEN_OFFSET as LEN_OFFSET,
};
use ckpt::wire::{fnv1a64, var_len, Dec, Wr};

/// Captures one non-trivial image from a real run of step bodies: eight
/// ranks, so the schedule's communicator splits leave strided groups and
/// the image holds member-table entries (a 4-rank world splits into runs
/// only), and every rank's record carries its upper half.
fn capture_image() -> Checkpoint {
    let cfg = WorldConfig::single_node(8).with_params(NetParams::slingshot11().without_jitter());
    let wl = RandomWorkloadCfg::new(13, 25);
    let native = run_ckpt_world_steps(cfg.clone(), CkptOptions::native(), |_| {
        RandomWorkloadStep::new(wl.clone())
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world_steps(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |_| RandomWorkloadStep::new(wl.clone()),
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
/// every record, plus the first eight bytes of each (rank, state and the
/// start of the clock). A boundary flip
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
        // Both edges of the record, and the eight bytes at its start.
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

/// Rank `rank`'s stable chunk in the full image `bytes`.
fn stable_chunk(bytes: &[u8], rank: usize) -> Vec<u8> {
    let d = DeltaImage::from_bytes(bytes).expect("a pristine image");
    let r = d.rank_refs[rank];
    let inline = d.new_chunks.into_iter().find(|(x, _)| *x == r);
    inline.expect("a full image inlines every chunk").1
}

/// The full image `bytes` with rank `rank`'s stable chunk edited by
/// `edit` and re-addressed — every rank sharing the chunk takes the edit
/// — and the head re-encoded and resealed, so the edit reaches the chunk
/// decoder instead of the content-hash check.
fn rechunked(bytes: &[u8], rank: usize, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut d = DeltaImage::from_bytes(bytes).expect("a pristine image");
    let old = d.rank_refs[rank];
    let (r, chunk) = (d.new_chunks.iter_mut())
        .find(|(r, _)| *r == old)
        .expect("a full image inlines every chunk");
    edit(chunk);
    let new = ChunkRef {
        hash: fnv1a64(chunk),
        len: chunk.len() as u64,
    };
    *r = new;
    for x in d.rank_refs.iter_mut().filter(|x| **x == old) {
        *x = new;
    }
    d.to_bytes()
}

/// `buf` with the varint at `at` replaced by `v`'s canonical form,
/// however much wider or narrower.
fn set_var(buf: &mut Vec<u8>, at: usize, v: u64) {
    let mut with = Vec::new();
    with.var(v);
    buf.splice(at..at + var_at(buf, at).1, with);
}

/// One sequence-table entry of a stable chunk: where its `SEQ` varint
/// starts, where its member-list reference starts — a tag byte, then an
/// 8-byte content id (`listed`) or `(start, len)` — and where it ends.
struct Entry {
    seq: usize,
    reference: usize,
    end: usize,
    listed: bool,
}

/// The sequence-table entries that open a stable chunk, in group-id
/// order.
fn seq_entries(chunk: &[u8]) -> Vec<Entry> {
    let (n, mut at) = var_at(chunk, 0);
    let mut entries = Vec::new();
    for _ in 0..n {
        let seq = at;
        let reference = seq + var_at(chunk, seq).1;
        let listed = chunk[reference] == 0;
        let end = if listed {
            reference + 1 + 8
        } else {
            let len = reference + 1 + var_at(chunk, reference + 1).1;
            len + var_at(chunk, len).1
        };
        entries.push(Entry {
            seq,
            reference,
            end,
            listed,
        });
        at = end;
    }
    entries
}

/// The first rank whose stable chunk satisfies `want`, with its chunk.
fn rank_whose_chunk(bytes: &[u8], want: impl Fn(&[Entry]) -> bool) -> (usize, Vec<u8>) {
    let n = DeltaImage::from_bytes(bytes).unwrap().n_ranks;
    (0..n)
        .map(|rank| (rank, stable_chunk(bytes, rank)))
        .find(|(_, c)| want(&seq_entries(c)))
        .expect("a rank with such a table")
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

/// Every byte of a live image's member-list table — count, ids, lengths,
/// members — is load-bearing: the ids are re-derived from
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

/// A flipped content id in a sequence-table reference — the cut's record
/// of a group — names a list the table does not hold: `Malformed` to the
/// decoder that reads chunks, once the chunk is re-addressed so the flip
/// gets past its content hash.
#[test]
fn cut_event_reference_flips_are_unknown_ids() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let mut rng = SplitMix64::new(0x1D5);
    let mut flipped = 0;
    for rank in 0..image.n_ranks {
        let chunk = stable_chunk(&bytes, rank);
        for e in seq_entries(&chunk).iter().filter(|e| e.listed) {
            for at in e.reference + 1..e.end {
                let bit = 1u8 << rng.next_range(8);
                let m = rechunked(&bytes, rank, |c| c[at] ^= bit);
                assert_eq!(
                    decode_no_panic(&m, "reference flip"),
                    Err(ImageError::Malformed("seq-table members")),
                    "reference flip at chunk byte {at} of rank {rank}"
                );
                flipped += 1;
            }
        }
    }
    assert!(flipped > 0, "no sequence-table entry references the table");
}

/// The live image as the child of a parent that had got half as far on
/// every group and had different call counters on every rank: the delta
/// carries every rank's chunk inline and the member-list table.
fn live_delta() -> (Checkpoint, Checkpoint, DeltaImage) {
    let child = capture_image();
    let mut parent = child.clone();
    for c in &mut parent.captures {
        c.counters.completions += 1;
        let entries: Vec<_> = (c.seq_table.iter())
            .map(|(g, e)| (*g, e.seq.div_ceil(2), Arc::clone(&e.members)))
            .collect();
        for (g, seq, members) in entries {
            c.seq_table.restore(g, seq, members);
        }
    }
    assert_ne!(parent.cut(), child.cut());
    let known = full_image_refs(&parent).into_iter().collect();
    let delta = DeltaImage::build(1, 0, 0, &parent, &known, &child);
    assert_eq!(delta.new_chunks.len(), child.n_ranks);
    assert!(
        !delta.lists.is_empty(),
        "the delta must carry table entries"
    );
    (parent, child, delta)
}

/// The same attack on a delta head: its member-list table (the head
/// names no list outside it).
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
    assert!(table.len() > 8, "no list in the delta's table");
    let mut rng = SplitMix64::new(0xD7AB);
    assert_flips_rejected(
        &bytes,
        table,
        &mut rng,
        DeltaImage::from_bytes,
        "delta-head",
    );
}

/// A delta whose table lacks a list its rank chunks reference cannot
/// resolve the chunk: a typed error out of `apply`, not a panic.
#[test]
fn chunk_reference_missing_from_the_delta_table_is_a_typed_error() {
    let (parent, child, _) = live_delta();
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
// the sequence tables and the chunk lengths
// ---------------------------------------------------------------------

/// `bytes` with the little-endian word at `at` replaced and the header
/// resealed, so the edit reaches the structural decoder.
fn patched(bytes: &[u8], at: usize, word: u64) -> Vec<u8> {
    let mut m = bytes.to_vec();
    m[at..at + 8].copy_from_slice(&word.to_le_bytes());
    fix_checksum(&mut m);
    m
}

/// The varint at `at` in `bytes`: its value and its width.
fn var_at(bytes: &[u8], at: usize) -> (u64, usize) {
    let mut d = Dec::new(&bytes[at..]);
    let v = d.var("varint").expect("a canonical varint");
    (v, bytes.len() - at - d.remaining())
}

/// `bytes` with the head bytes `at..at + width` replaced by `with`, the
/// header's payload and head lengths adjusted to the new size and the
/// header resealed, so the edit reaches the structural decoder.
fn spliced(bytes: &[u8], at: usize, width: usize, with: &[u8]) -> Vec<u8> {
    assert!(at + width <= head_end(bytes), "only head edits are spliced");
    let mut m = [&bytes[..at], with, &bytes[at + width..]].concat();
    for field in [LEN_OFFSET, HEAD_LEN_OFFSET] {
        let len = word_at(&m, field) + with.len() as u64 - width as u64;
        m[field..field + 8].copy_from_slice(&len.to_le_bytes());
    }
    fix_checksum(&mut m);
    m
}

/// `bytes` with the head varint at `at` replaced by `v`'s canonical form,
/// however much wider or narrower.
fn patched_var(bytes: &[u8], at: usize, v: u64) -> Vec<u8> {
    let mut with = Vec::new();
    with.var(v);
    spliced(bytes, at, var_at(bytes, at).1, &with)
}

/// `bytes` with the head varint at `at` rewritten into an overlong form:
/// the same value with one `0x00` continuation byte more.
fn overlong_var(bytes: &[u8], at: usize) -> Vec<u8> {
    let width = var_at(bytes, at).1;
    let mut with = bytes[at..at + width].to_vec();
    *with.last_mut().unwrap() |= 0x80;
    with.push(0x00);
    spliced(bytes, at, width, &with)
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

/// Hostile sequence-table entries — the cut's only record — each written
/// into a live image's stable chunk, re-addressed and resealed: a member
/// outside the world, a list the table lacks and two entries out of order
/// are `Malformed`; a `SEQ` one past its group's decodes, and the oracle
/// refuses it.
#[test]
fn hostile_cut_runs_are_typed_errors() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let malformed = |m: &[u8], what: &'static str| {
        assert_eq!(decode_no_panic(m, what), Err(ImageError::Malformed(what)));
    };
    let n = image.n_ranks as u64;
    let (rank, chunk) = rank_whose_chunk(&bytes, |e| e.iter().any(|e| !e.listed));
    let e = &seq_entries(&chunk).into_iter().find(|e| !e.listed).unwrap();
    let len_at = e.reference + 1 + var_at(&chunk, e.reference + 1).1;
    let past = rechunked(&bytes, rank, |c| set_var(c, len_at, n + 1));
    malformed(&past, "seq-table members");

    let (rank, chunk) = rank_whose_chunk(&bytes, |e| e.iter().any(|e| e.listed));
    let e = &seq_entries(&chunk).into_iter().find(|e| e.listed).unwrap();
    let unknown = rechunked(&bytes, rank, |c| c[e.reference + 1] ^= 1);
    malformed(&unknown, "seq-table members");

    // Two neighbouring entries swapped, whole, so each still parses.
    let (rank, chunk) = rank_whose_chunk(&bytes, |e| e.len() >= 2);
    let entries = seq_entries(&chunk);
    let (a, b, c) = (entries[0].seq, entries[1].seq, entries[1].end);
    let swapped = rechunked(&bytes, rank, |chunk| chunk[a..c].rotate_left(b - a));
    malformed(&swapped, "seq-table order");

    // One past the group: every wire check holds, the cut does not.
    let (rank, chunk) = (0, stable_chunk(&bytes, 0));
    let e = &seq_entries(&chunk)[0];
    let seq = var_at(&chunk, e.seq).0;
    let raised = rechunked(&bytes, rank, |c| set_var(c, e.seq, seq + 1));
    let decoded = decode_no_panic(&raised, "SEQ + 1").expect("any SEQ decodes");
    assert!(
        decoded.verify().is_err(),
        "a SEQ past its group is no safe cut"
    );
}

/// The vcomm-member entries `(key, list reference)` that close rank
/// `rank`'s stable chunk, as `(key start, entry end)` pairs. The section
/// is the chunk's tail, so its length is counted from the capture.
fn vcomm_entries(image: &Checkpoint, chunk: &[u8], rank: usize) -> Vec<(usize, usize)> {
    let members = &image.captures[rank].vcomm_members;
    let reference = |m: &[usize]| match m.windows(2).all(|w| w[1] == w[0] + 1) {
        true => 1 + var_len(m[0] as u64) + var_len(m.len() as u64),
        false => 1 + 8,
    };
    let lens: Vec<usize> = (members.iter())
        .map(|(v, m)| var_len(*v) + reference(m))
        .collect();
    let mut at = chunk.len() - lens.iter().sum::<usize>();
    assert_eq!(
        var_at(chunk, at - var_len(lens.len() as u64)).0,
        lens.len() as u64
    );
    lens.into_iter()
        .map(|n| {
            at += n;
            (at - n, at)
        })
        .collect()
}

/// Vcomm-member entries must be strictly ascending by key, as the encoder
/// writes them, or the chunk decodes to a capture whose re-encode is not
/// its bytes: two neighbouring entries swapped whole, or the second given
/// the first's key (a duplicate a map would silently drop), are
/// `Malformed` once the chunk is re-addressed.
#[test]
fn out_of_order_or_duplicate_vcomm_keys_are_malformed() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let rank = (0..image.n_ranks)
        .find(|&r| image.captures[r].vcomm_members.len() >= 2)
        .expect("a rank with two vcomms");
    let chunk = stable_chunk(&bytes, rank);
    let entries = vcomm_entries(&image, &chunk, rank);
    let ((a, b), (_, c)) = (entries[0], entries[1]);
    let swapped = rechunked(&bytes, rank, |chunk| chunk[a..c].rotate_left(b - a));
    let first_key = var_at(&chunk, a).0;
    let duplicated = rechunked(&bytes, rank, |chunk| set_var(chunk, b, first_key));
    for (m, what) in [(swapped, "swapped"), (duplicated, "duplicated")] {
        assert_eq!(
            decode_no_panic(&m, what),
            Err(ImageError::Malformed("vcomm-member order")),
            "{what} vcomm keys"
        );
    }
}

/// A sequence-table entry is a few bytes whatever it claims, so a forged
/// one can claim every sequence number there is. Nothing may then do work
/// proportional to the claim: decoding, the oracle and `len()` together
/// stay far below what one pass over 2⁶⁴ — or 2³² — participations would
/// take.
#[test]
fn a_run_claiming_every_sequence_number_costs_nothing() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let chunk = stable_chunk(&bytes, 0);
    let e = &seq_entries(&chunk)[0];
    let forged = rechunked(&bytes, 0, |c| set_var(c, e.seq, u64::MAX));

    let t = std::time::Instant::now();
    let decoded = decode_no_panic(&forged, "SEQ = u64::MAX").expect("any SEQ decodes");
    let verdict = decoded.verify();
    let cut = decoded.cut();
    let len = cut.len();
    let took = t.elapsed();

    let runs = cut.runs();
    assert!(runs.iter().any(|r| (r.first, r.last) == (1, u64::MAX)));
    assert_eq!(len, usize::MAX, "len saturates");
    let violations = verdict.expect_err("a run beyond every target is no safe cut");
    assert!(violations.len() <= 4 * runs.len());
    // The forged `SEQ` (ten bytes) and its reference (a tag and an id at
    // most): no bound, no rank, no group id.
    let forgery = var_len(u64::MAX) + (e.end - e.reference);
    assert!(forgery <= 19, "a {forgery}-byte entry");
    assert!(
        took.as_millis() < 10,
        "{took:?} for a {forgery}-byte forgery"
    );
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
    let stored = |gen| store.stored_bytes(gen).unwrap().to_vec();
    let (root_bytes, delta_bytes) = (stored(0), stored(1));
    (store, (*root).clone(), root_bytes, delta_bytes)
}

/// Delta head layout: the kind byte, then the generation and the
/// parent's generation as varints (see `DeltaImage::enc_preamble`): the
/// offsets of the two generations and of the parent-checksum word behind
/// them.
fn delta_head_offsets(bytes: &[u8]) -> (usize, usize, usize) {
    let generation = HEADER + 1;
    let parent = generation + var_at(bytes, generation).1;
    (generation, parent, parent + var_at(bytes, parent).1)
}

/// Offset of the hash word of the first reference to chunk `r` in the
/// bytes of `image`: a rank record closes with its chunk reference (tag,
/// hash word, length varint), and the in-flight reference follows the
/// last record.
fn ref_hash_offset(image: &DeltaImage, r: ChunkRef) -> usize {
    let records = image.capture_section_ranges();
    match image.rank_refs.iter().position(|&x| x == r) {
        Some(rank) => records[rank].end - 8 - var_len(r.len),
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
    let typed = |e: &ImageError| matches!(e, ImageError::Malformed(_) | ImageError::DeltaChain(_));

    for (r, _) in [
        &chunks[0],
        &chunks[chunks.len() / 2],
        &chunks[chunks.len() - 1],
    ] {
        let at = ref_hash_offset(&root, *r) + 8;
        assert_eq!(var_at(&root_bytes, at).0, r.len, "not the length");
        let beyond = root_bytes.len() as u64;
        for forged in [0, r.len - 1, r.len + 1, beyond, u64::MAX] {
            let what = format!("chunk length {} -> {forged} at {at}", r.len);
            let bad_root = patched_var(&root_bytes, at, forged);
            for got in [
                decode_no_panic(&bad_root, &what).err(),
                decode_payload_no_panic(&bad_root, &what).err(),
            ] {
                assert!(got.as_ref().is_some_and(typed), "{what}: got {got:?}");
            }

            let fingerprint = word_at(&bad_root, CHECKSUM_OFFSET);
            let (.., parent_checksum) = delta_head_offsets(&delta_bytes);
            let re_aimed = patched(&delta_bytes, parent_checksum, fingerprint);
            store.replace_bytes(0, bad_root).unwrap();
            store.replace_bytes(1, re_aimed).unwrap();
            let res = std::panic::catch_unwind(|| store.load(1))
                .unwrap_or_else(|_| panic!("store.load panicked on {what}"));
            assert!(
                matches!(&res, Err(StoreError::Image(e)) if typed(e)),
                "{what}: chain load must fail typed, got {res:?}"
            );
        }
    }

    store.replace_bytes(0, root_bytes).unwrap();
    store.replace_bytes(1, delta_bytes).unwrap();
    store.load(1).expect("restored pristine bytes load again");
}

// ---------------------------------------------------------------------
// delta / chunk sections
// ---------------------------------------------------------------------

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
    let bytes = store.stored_bytes(2).expect("leaf delta bytes");
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
/// first inline chunk: generations, origin, target maps, volatile
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

/// Forged parent generations, patched into the stored bytes with the
/// checksum repaired, resolve to typed chain errors through
/// [`TieredStore::load`]: a parent that does not predate the child is a
/// cycle guard rejection, and a ref re-aimed at a *different* real
/// ancestor trips the parent-checksum fingerprint. A patched generation
/// likewise fails the stored-generation cross-check.
#[test]
fn forged_delta_parent_refs_are_typed_chain_errors() {
    let (store, bytes) = delta_chain_store();
    let (generation, parent, _) = delta_head_offsets(&bytes);
    let patch = |offset: usize, v: u64| {
        let m = patched_var(&bytes, offset, v);
        store.replace_bytes(2, m).unwrap();
        let res = std::panic::catch_unwind(|| store.load(2))
            .unwrap_or_else(|_| panic!("store.load panicked on patched varint at {offset}"));
        store.replace_bytes(2, bytes.clone()).unwrap();
        res
    };

    // Parent points at the leaf's own (or a later) generation: the
    // not-older guard refuses before the walk can cycle.
    match patch(parent, 2) {
        Err(StoreError::Image(ImageError::DeltaChain(what))) => {
            assert_eq!(what, "parent generation not older")
        }
        other => panic!("self-parent must be a typed chain error, got {other:?}"),
    }

    // Parent re-aimed at the full root (a real, older, *wrong* ancestor):
    // the delta's stored parent-checksum fingerprint catches the switch.
    match patch(parent, 0) {
        Err(StoreError::Image(ImageError::DeltaChain(what))) => {
            assert_eq!(what, "parent checksum mismatch")
        }
        other => panic!("re-aimed parent must be a typed chain error, got {other:?}"),
    }

    // The generation itself disagreeing with the stored slot.
    match patch(generation, 9) {
        Err(StoreError::Image(ImageError::DeltaChain(what))) => {
            assert_eq!(what, "stored generation mismatch")
        }
        other => panic!("forged generation must be a typed chain error, got {other:?}"),
    }

    // A flip *without* checksum repair never reaches the chain walk: the
    // header integrity check rejects it first.
    let mut m = bytes.clone();
    m[parent] ^= 0x40;
    store.replace_bytes(2, m).unwrap();
    match store.load(2) {
        Err(StoreError::Image(ImageError::ChecksumMismatch)) => {}
        other => panic!("unrepaired flip must fail the checksum, got {other:?}"),
    }
    store.replace_bytes(2, bytes).unwrap();
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

/// A head varint in an overlong form — its value unchanged, one `0x00`
/// continuation byte longer, the header lengths and checksum repaired — is
/// a typed error to both decoders: the world size, the capture count, a
/// rank's chunk length and the in-flight chunk's length (the head's last
/// varint), in a full image and in a delta.
#[test]
fn overlong_head_varints_are_typed_errors() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let full = DeltaImage::from_bytes(&bytes).expect("the image decodes");
    // Kind byte, generation, epoch, then the world size.
    let generation = HEADER + 1;
    let epoch = generation + var_at(&bytes, generation).1;
    let n_ranks = epoch + var_at(&bytes, epoch).1;
    assert_eq!(var_at(&bytes, n_ranks).0, image.n_ranks as u64);
    let capture_count = image.member_table_range().end;
    let chunk_len = ref_hash_offset(&full, full.rank_refs[0]) + 8;
    let in_flight_len = ref_hash_offset(&full, full.in_flight_ref) + 8;
    assert_eq!(
        in_flight_len + var_len(full.in_flight_ref.len),
        head_end(&bytes)
    );
    for (at, what) in [
        (n_ranks, "n_ranks"),
        (capture_count, "capture count"),
        (chunk_len, "chunk length"),
        (in_flight_len, "in-flight chunk length"),
    ] {
        assert_malformed(&overlong_var(&bytes, at), &format!("overlong {what}"));
    }

    let (_store, delta_bytes) = delta_chain_store();
    let delta = pristine_delta(&delta_bytes);
    let (generation, parent, _) = delta_head_offsets(&delta_bytes);
    let chunk_len = ref_hash_offset(&delta, delta.rank_refs[0]) + 8;
    for (at, what) in [
        (generation, "generation"),
        (parent, "parent generation"),
        (chunk_len, "chunk length"),
    ] {
        let m = overlong_var(&delta_bytes, at);
        let got = decode_payload_no_panic(&m, what).err();
        assert!(
            matches!(got, Some(ImageError::Malformed(_))),
            "overlong delta {what} must be Malformed, got {got:?}"
        );
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

    // The v9 wire carried the cut runs and the achieved maxima beside
    // the sequence tables.
    let mut m = bytes.clone();
    m[8] = 9;
    assert_eq!(
        decode_no_panic(&m, "v9"),
        Err(ImageError::UnsupportedVersion(9))
    );

    // The v10 wire counted the drain's target updates among each rank's
    // call counters.
    let mut m = bytes.clone();
    m[8] = 10;
    assert_eq!(
        decode_no_panic(&m, "v10"),
        Err(ImageError::UnsupportedVersion(10))
    );

    assert!(matches!(
        decode_no_panic(&[], "empty buffer"),
        Err(ImageError::BadMagic) | Err(ImageError::Truncated { .. })
    ));
}

// ---------------------------------------------------------------------
// upper halves
// ---------------------------------------------------------------------

/// Offset of rank `rank`'s upper-half section in `bytes`: its record's
/// rank, state, clock word, barrier (tag, then vcomm and ordinal) and two
/// flow counts come first.
fn upper_offset(image: &Checkpoint, bytes: &[u8], rank: usize) -> usize {
    let mut at = image.capture_section_ranges()[rank].start;
    at += var_at(bytes, at).1 + 1 + 8;
    let barrier = bytes[at];
    at += 1;
    if barrier == 1 {
        at += var_at(bytes, at).1;
        at += var_at(bytes, at).1;
    }
    at += var_at(bytes, at).1;
    at + var_at(bytes, at).1
}

/// Both decoders refuse `bytes` as `Malformed(what)`, without panicking.
fn assert_malformed_as(bytes: &[u8], what: &'static str) {
    let full = decode_no_panic(bytes, what).err();
    let either = decode_payload_no_panic(bytes, what).err();
    for got in [full, either] {
        assert_eq!(got, Some(ImageError::Malformed(what)), "{what}");
    }
}

/// A forged upper half is a typed `Malformed` from `from_bytes`: a tag
/// that is neither absent nor present, a snapshot length past its record
/// (a truncated snapshot), and — re-encoded from an edited image, so only
/// the check can catch them — request ids out of order or at or past the
/// next id, and a completion time that is no time.
#[test]
fn forged_upper_halves_are_malformed() {
    let image = capture_image();
    let bytes = image.to_bytes();
    let rank = image.n_ranks / 2;
    let upper = image.captures[rank]
        .upper
        .as_ref()
        .expect("a step rank's upper half");
    let at = upper_offset(&image, &bytes, rank);
    assert_eq!(bytes[at], 1, "the upper half's tag");

    let mut m = bytes.clone();
    m[at] = 2;
    fix_checksum(&mut m);
    assert_malformed_as(&m, "upper-half tag");

    // The snapshot closes the section: its length varint sits just before
    // its bytes. Claiming more than the head holds truncates it.
    let body_len = at + upper_len(upper) - upper.body.len() - var_len(upper.body.len() as u64);
    assert_eq!(var_at(&bytes, body_len).0, upper.body.len() as u64);
    assert_malformed_as(&patched_var(&bytes, body_len, 1 << 40), "upper-half body");

    let forged = |edit: &dyn Fn(&mut mana_core::UpperHalf)| {
        let mut image = image.clone();
        edit(image.captures[rank].upper.as_mut().unwrap());
        image.to_bytes()
    };
    let next = upper.next_vreq;
    assert_malformed_as(
        &forged(&|u| u.sends = vec![(next, VTime::ZERO)]),
        "upper-half send vreq",
    );
    assert_malformed_as(
        &forged(&|u| u.sends = vec![(0, VTime::ZERO), (0, VTime::ZERO)]),
        "upper-half send vreq",
    );
    assert_malformed_as(
        &forged(&|u| u.ready = vec![(next + 5, bytes::Bytes::new())]),
        "upper-half ready vreq",
    );
    // One drained output, the image's only one: the table behind the
    // member table holds it (count, length, byte), the record names it by
    // index after its request id. An index past the table, or a table
    // entry no record names, is malformed.
    let mut edited = image.clone();
    for c in &mut edited.captures {
        if let Some(u) = &mut c.upper {
            u.ready.clear();
        }
    }
    let u = edited.captures[rank].upper.as_mut().unwrap();
    (u.next_vreq, u.ready) = (
        u.next_vreq.max(1),
        vec![(0, bytes::Bytes::from_static(b"x"))],
    );
    let next = u.next_vreq;
    let bytes = edited.to_bytes();
    let table = edited.member_table_range().end;
    assert_eq!(&bytes[table..table + 3], &[1, 1, b'x']);
    let index = upper_offset(&edited, &bytes, rank) + 1 + var_len(next) + 1 + 1;
    assert_eq!(bytes[index], 0);
    assert_malformed_as(&patched_var(&bytes, index, 1), "upper-half ready output");
    // Two entries, the second (empty) named by no record.
    let two = [2u8, 1, b'x', 0];
    assert_malformed_as(&spliced(&bytes, table, 3, &two), "output table entry");

    // One held send and nothing ready: its completion-time word follows
    // the tag, the next id, the ready count (0), the send count and its
    // request id (0). A negative time is no time.
    let mut edited = image.clone();
    let u = edited.captures[rank].upper.as_mut().unwrap();
    (u.ready, u.sends) = (Vec::new(), vec![(0, VTime::from_secs(1.0))]);
    let next = u.next_vreq;
    let bytes = edited.to_bytes();
    let word = upper_offset(&edited, &bytes, rank) + 1 + var_len(next) + 1 + 1 + 1;
    assert_eq!(word_at(&bytes, word), 1.0f64.to_bits());
    assert_malformed_as(
        &patched(&bytes, word, (-1.0f64).to_bits()),
        "upper-half send completion",
    );
}

/// Encoded size of an upper-half section (tag included).
fn upper_len(u: &mana_core::UpperHalf) -> usize {
    let vl = |v: u64| var_len(v);
    let ready: usize = u
        .ready
        .iter()
        .map(|(v, d)| vl(*v) + vl(d.len() as u64) + d.len())
        .sum();
    let sends: usize = u.sends.iter().map(|(v, _)| vl(*v) + 8).sum();
    1 + vl(u.next_vreq)
        + vl(u.ready.len() as u64)
        + ready
        + vl(u.sends.len() as u64)
        + sends
        + vl(u.body.len() as u64)
        + u.body.len()
}
