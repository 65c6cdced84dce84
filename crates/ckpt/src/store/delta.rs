//! The checkpoint image codec: one in-memory form, one wire layout.
//!
//! An image serializes one checkpoint, optionally **relative to a parent
//! generation**. The small volatile record of every rank (rank, state,
//! clock, pending barrier, flow counts, and the upper half a restore
//! elsewhere resumes from) is carried inline, while
//! the restart-stable half — sequence tables, communicator logs, pending
//! receives, call counters, vcomm member lists — is referenced as a
//! **content-addressed chunk** `(fnv1a64(bytes), len)`. Lower-half
//! handles are in neither: they belong to one lower-half generation, and
//! a restart rebuilds them. Every integer but a hash, a group id or a
//! member-list content id is a canonical varint, so a chunk has exactly
//! one byte form (see [`crate::wire`]). The drained in-flight set is one
//! more chunk. The cut is not carried at all: it is the sequence tables
//! in the stable chunks ([`Checkpoint::cut`]).
//!
//! A full image is a delta with no parent: it inlines every distinct
//! chunk once, so ranks whose stable halves are identical share one. A
//! delta inlines only the chunks its ancestor chain lacks, so a
//! checkpoint where few ranks progressed serializes a few kilobytes
//! instead of the full image.
//!
//! A stable chunk names its group member lists by content id instead of
//! spelling them out (see [`crate::image::IMAGE_VERSION`]), so a chunk's
//! bytes — and therefore its address — depend on that rank's state alone.
//! Every image carries the member-list table for what it references: the
//! lists of all its ranks' chunks, inline or inherited. A chunk taken
//! from an ancestor decodes against the leaf's table; no list is looked
//! up along the chain.
//!
//! There is one encoder, and it does each rank's work once: a chunk is
//! encoded in one pass straight into one buffer, noting its member lists
//! as it goes (a shared list is found by address in O(1)), and cut off
//! again unless the image inlines it. Parallel workers fill one buffer
//! each, spliced in rank order. The head is written from the captures
//! where they lie, behind the chunks in the encode's own buffer, and the
//! image is one exact copy of the two. [`DeltaImage`] is the owned form
//! the fuzzers edit: that encoder's bytes, decoded.
//!
//! So an image needs nothing from its ancestors but chunk bytes.
//! Resolution ([`crate::store::TieredStore::load`]) decodes every chain
//! element alike and materializes the leaf reading each chunk where it
//! lies in its element's stored bytes: nothing is copied into a pool.
//! Every failure mode — a missing parent, a chunk whose bytes do not
//! match its address, a chunk nowhere in the chain — is a typed
//! [`ImageError`], never a panic.

use crate::image::{
    self, dec_capture, dec_in_flight, dec_params, dec_target_map, dec_upper, dec_vtime,
    enc_capture_stable, enc_drained, enc_header, enc_params, enc_table, enc_target_map, enc_upper,
    protocol_code, protocol_from_code, reseal, validate_image_header, validate_shape, Checkpoint,
    ImageError, MemberIntern, MemberTable, IMAGE_HEADER_LEN, IMAGE_KIND_DELTA, IMAGE_KIND_FULL,
};
use crate::wire::{fnv1a64, var_len, CountEnc, Dec, FoldMap, FoldSet, Wr};
use mana_core::{CallCounters, Cut, Ggid, Protocol, RankState, RuntimeCapture, SeqTable};
use mpisim::VTime;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Content address of one chunk: FNV-1a over the chunk bytes plus the
/// byte length (the length guards the hash against trivial collisions
/// between different-sized chunks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRef {
    /// FNV-1a 64-bit hash of the chunk bytes.
    pub hash: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

/// The generation an image is relative to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParentRef {
    /// The parent's generation number.
    pub generation: u64,
    /// The parent image's header checksum — the chain-integrity
    /// fingerprint checked at resolution.
    pub checksum: u64,
}

/// A checkpoint image: everything needed to rebuild a [`Checkpoint`]
/// given the chunk bytes its ancestor chain carries (none, for a full
/// image).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaImage {
    /// This image's generation number.
    pub generation: u64,
    /// The generation this image is relative to; `None` for a full image.
    pub parent: Option<ParentRef>,
    /// Lower-half epoch of the checkpoint.
    pub epoch: u64,
    /// World size (a delta's must match its parent's).
    pub n_ranks: usize,
    /// Protocol of the checkpoint.
    pub protocol: Protocol,
    /// Capture origin of the checkpoint.
    pub origin: image::CaptureOrigin,
    /// Request clock of the checkpoint.
    pub request_clock: VTime,
    /// Algorithm 1 initial targets.
    pub initial_targets: HashMap<Ggid, u64>,
    /// Final drain targets.
    pub final_targets: HashMap<Ggid, u64>,
    /// Virtual write seconds charged for this image.
    pub io_write_secs: f64,
    /// Virtual read seconds charged for this image.
    pub io_read_secs: f64,
    /// The member-list table: every non-contiguous group member list the
    /// rank chunks (inline or inherited) reference, by content id.
    pub lists: MemberTable,
    /// Per-rank records, indexed by rank: each rank's capture with its
    /// volatile fields (rank, state, clock, pending barrier, flow counts)
    /// and its upper half; the restart-stable fields are empty, being in
    /// the rank's chunk.
    pub volatile: Vec<RuntimeCapture>,
    /// Per-rank stable-chunk references, indexed by rank.
    pub rank_refs: Vec<ChunkRef>,
    /// Content address of the drained in-flight set.
    pub in_flight_ref: ChunkRef,
    /// The chunks this image carries inline, in order of first
    /// reference (rank refs, then the in-flight ref).
    pub new_chunks: Vec<(ChunkRef, Vec<u8>)>,
}

/// Each chunk reference of an image — every rank's, then the in-flight
/// set's — flagged where the image carries the chunk's bytes.
pub(crate) type Refs = Vec<(ChunkRef, bool)>;

/// Addresses the chunk just written at `out[at..]`, and drops its bytes
/// again unless `fresh` admits the address.
fn seal(
    out: &mut Vec<u8>,
    at: usize,
    fresh: &mut impl FnMut(ChunkRef) -> bool,
) -> (ChunkRef, bool) {
    let r = ChunkRef {
        hash: fnv1a64(&out[at..]),
        len: (out.len() - at) as u64,
    };
    let keep = fresh(r);
    if !keep {
        out.truncate(at);
    }
    (r, keep)
}

/// Appends the stable chunk of each of `captures` to `out` — keeping a
/// chunk's bytes only where `fresh` admits its address — and its flagged
/// reference to `refs`, noting member lists in `lists`.
fn encode_batch(
    lists: &mut MemberIntern,
    captures: &[RuntimeCapture],
    out: &mut Vec<u8>,
    refs: &mut Refs,
    mut fresh: impl FnMut(ChunkRef) -> bool,
) {
    let mut order = Vec::new();
    for c in captures {
        let at = out.len();
        enc_capture_stable(out, lists, c, &mut order);
        refs.push(seal(out, at, &mut fresh));
    }
}

/// Encodes every chunk of `image` — each rank's stable half in rank
/// order, then the in-flight set — once, on up to `workers` threads, into
/// `section`, which ends holding the chunks the image inlines: each
/// whose address `known` (the ancestor chain) lacks, once, at its first
/// reference. The calling thread encodes the first batch of ranks
/// straight into `section`; each other worker encodes its batch into a
/// buffer of its own, keeping the first of each chunk in its batch, and
/// the buffers are spliced in rank order, dropping what an earlier batch
/// holds, so the result is the same for every worker count. Returns
/// every reference, flagged, and the member lists the chunks name.
fn encode_chunks(
    image: &Checkpoint,
    known: &(dyn Fn(&ChunkRef) -> bool + Sync),
    workers: usize,
    section: &mut Vec<u8>,
) -> (Refs, MemberIntern) {
    let (captures, n) = (&image.captures, image.captures.len());
    let mut inlined = FoldSet::with_capacity_and_hasher(n + 1, Default::default());
    let mut fresh = |r: ChunkRef| !known(&r) && inlined.insert(r);
    let mut lists = MemberIntern::new(image.n_ranks);
    let mut refs = Vec::with_capacity(n + 1);
    let mut batches = captures.chunks(n.div_ceil(workers.clamp(1, n.max(1))).max(1));
    let first = batches.next().unwrap_or_default();
    std::thread::scope(|scope| {
        let encoders: Vec<_> = (batches.map(|b| {
            scope.spawn(move || {
                let mut done = (MemberIntern::new(image.n_ranks), vec![], vec![]);
                let mut first = FoldSet::default();
                let fresh = |r| !known(&r) && first.insert(r);
                encode_batch(&mut done.0, b, &mut done.1, &mut done.2, fresh);
                done
            })
        }))
        .collect();
        encode_batch(&mut lists, first, section, &mut refs, &mut fresh);
        for e in encoders {
            let (batch_lists, out, batch) = e.join().expect("chunk encoder panicked");
            lists.absorb(batch_lists);
            let mut at = 0;
            for (r, kept) in batch {
                let keep = kept && {
                    let bytes = &out[at..at + r.len as usize];
                    at += bytes.len();
                    fresh(r) && {
                        section.extend_from_slice(bytes);
                        true
                    }
                };
                refs.push((r, keep));
            }
        }
    });
    let at = section.len();
    enc_in_flight(section, image);
    refs.push(seal(section, at, &mut fresh));
    (refs, lists)
}

/// Appends the in-flight set's chunk to `out`.
fn enc_in_flight(out: &mut Vec<u8>, image: &Checkpoint) {
    out.usize(image.in_flight.len());
    for m in &image.in_flight {
        enc_drained(out, m);
    }
}

/// The byte length of `image`'s full image, nothing assembled: chunks
/// encoded and cut off at once, the head counted (a reference's inline
/// tag is one byte either way). No buffer grows with the image: freeing a
/// large mapped one raises glibc's mmap threshold (`scf_steady`'s RSS).
pub(crate) fn full_len(image: &Checkpoint) -> usize {
    let mut lists = MemberIntern::new(image.n_ranks);
    let (mut buf, mut refs) = (Vec::new(), Vec::with_capacity(image.captures.len() + 1));
    let (mut seen, mut chunks_len) = (FoldSet::default(), 0);
    let mut note = |r: ChunkRef| {
        chunks_len += if seen.insert(r) { r.len as usize } else { 0 };
        false
    };
    encode_batch(&mut lists, &image.captures, &mut buf, &mut refs, &mut note);
    enc_in_flight(&mut buf, image);
    refs.push(seal(&mut buf, 0, &mut note));
    let mut head = CountEnc::new();
    enc_head(&mut head, 0, None, image, lists.table(), &refs);
    IMAGE_HEADER_LEN + head.count() + chunks_len
}

/// The one encoder: `image` as generation `generation` relative to
/// `parent`, chunks `known` holds left to the ancestor chain, encoded on
/// up to `workers` threads into this call's own buffer; with every chunk
/// reference, flagged where it is inline.
///
/// # Panics
/// Panics if a sequence-table entry names a group id that is not its
/// member list's: the wire writes the list alone.
pub(crate) fn encode(
    generation: u64,
    parent: Option<ParentRef>,
    known: &(dyn Fn(&ChunkRef) -> bool + Sync),
    image: &Checkpoint,
    workers: usize,
) -> (Vec<u8>, Refs) {
    let mut buf = Vec::new();
    let (refs, lists) = encode_chunks(image, known, workers, &mut buf);
    let section = buf.len();
    enc_head(&mut buf, generation, parent, image, lists.table(), &refs);
    let (chunks, head) = buf.split_at(section);
    (assemble(head, chunks), refs)
}

/// The serialized image of a head and a chunk section, in one exact
/// buffer (the layout is [`DeltaImage::to_bytes`]'s).
pub(crate) fn assemble(head: &[u8], chunks: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(IMAGE_HEADER_LEN + head.len() + chunks.len());
    enc_header(&mut out, head.len(), chunks.len());
    out.extend_from_slice(head);
    reseal(&mut out);
    out.extend_from_slice(chunks);
    out
}

/// The chunk refs a full image contributes to its descendants' dedup set:
/// one per rank plus the in-flight chunk.
pub fn full_image_refs(image: &Checkpoint) -> Vec<ChunkRef> {
    let (refs, _) = encode_chunks(image, &|_| false, 1, &mut Vec::new());
    refs.into_iter().map(|(r, _)| r).collect()
}

/// Chunk bytes available while resolving a delta chain: every chain
/// element's inline chunks, keyed by content address.
#[derive(Default)]
pub struct ChunkPool {
    map: HashMap<ChunkRef, Vec<u8>>,
}

impl ChunkPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every chunk of a full image.
    pub fn absorb_full(&mut self, image: &Checkpoint) {
        self.absorb_delta(&DeltaImage::full(image));
    }

    /// Adds an image's inline chunks; an address already held keeps its
    /// bytes.
    pub fn absorb_delta(&mut self, d: &DeltaImage) {
        for (r, b) in &d.new_chunks {
            self.map.entry(*r).or_insert_with(|| b.clone());
        }
    }

    /// Looks a chunk up by content address.
    pub fn get(&self, r: ChunkRef) -> Option<&[u8]> {
        self.map.get(&r).map(|b| &b[..])
    }
}

/// What [`DeltaImage::decode`] reads from a buffer: the image without
/// its chunk bytes, the member lists its head resolved, and where each of
/// its inline chunks lies in the buffer.
pub(crate) type Decoded = (DeltaImage, MemberIntern, Vec<(ChunkRef, Range<usize>)>);

/// Writes a chunk reference: tag `1` when the chunk's bytes follow in
/// this image's chunk section, `0` when they are at an earlier reference
/// or in the ancestor chain; then the address: the 8-byte hash and the
/// length as a varint.
fn enc_chunk_ref<W: Wr>(e: &mut W, r: ChunkRef, inline: bool) {
    e.u8(u8::from(inline));
    e.u64(r.hash);
    e.var(r.len);
}

/// The drained collective outputs of an image's upper halves: each
/// distinct output once, in order of first reference (rank order), with
/// its index — every member of a collective drains the same output, so a
/// world-wide one costs its bytes once and an index per rank.
struct Outputs<'a> {
    list: Vec<&'a [u8]>,
    index: FoldMap<&'a [u8], u64>,
}

impl<'a> Outputs<'a> {
    fn of(records: &'a [RuntimeCapture]) -> Outputs<'a> {
        let mut out = Outputs {
            list: Vec::new(),
            index: FoldMap::default(),
        };
        let ready = records.iter().filter_map(|v| v.upper.as_ref());
        for (_, data) in ready.flat_map(|u| &u.ready) {
            out.index.entry(data).or_insert_with(|| {
                out.list.push(data);
                out.list.len() as u64 - 1
            });
        }
        out
    }

    /// Writes the table: count, then each output's bytes.
    fn enc<W: Wr>(&self, e: &mut W) {
        e.usize(self.list.len());
        for o in &self.list {
            e.bytes(o);
        }
    }

    fn len(&self) -> usize {
        let mut n = CountEnc::new();
        self.enc(&mut n);
        n.count()
    }
}

/// Reads an output table written by `Outputs::enc`.
fn dec_outputs(d: &mut Dec) -> Result<Vec<bytes::Bytes>, ImageError> {
    let n = d.seq_len("output table length")?;
    (0..n)
        .map(|_| Ok(bytes::Bytes::from(d.bytes("output table entry")?.to_vec())))
        .collect()
}

/// Writes a rank's record: the volatile fields of its capture and its
/// upper half.
fn enc_volatile<W: Wr>(e: &mut W, v: &RuntimeCapture, outputs: &Outputs) {
    e.usize(v.rank);
    e.u8(v.state as u8);
    e.f64(v.clock.as_secs());
    match v.pending_barrier {
        None => e.u8(0),
        Some((vc, ord)) => {
            e.u8(1);
            e.var(vc);
            e.var(ord);
        }
    }
    e.var(v.p2p_sent);
    e.var(v.p2p_delivered);
    enc_upper(e, v.upper.as_ref(), |data| outputs.index[data]);
}

/// Reads a rank's record into a capture whose restart-stable fields are
/// empty; its ready results resolve through `outputs`, each entry first
/// referenced in table order (`used` counts the entries referenced so
/// far), as the encoder writes them.
fn dec_volatile(
    d: &mut Dec,
    outputs: &[bytes::Bytes],
    used: &mut usize,
) -> Result<RuntimeCapture, ImageError> {
    let rank = d.usize("capture rank")?;
    let state = match d.u8("capture state")? {
        s @ 0..=6 => RankState::from_u8(s),
        _ => return Err(ImageError::Malformed("capture state")),
    };
    let clock = dec_vtime(d, "capture clock")?;
    let pending_barrier = match d.u8("pending-barrier tag")? {
        0 => None,
        1 => Some((
            d.var("pending-barrier vcomm")?,
            d.var("pending-barrier ordinal")?,
        )),
        _ => return Err(ImageError::Malformed("pending-barrier tag")),
    };
    Ok(RuntimeCapture {
        rank,
        state,
        clock,
        seq_table: SeqTable::new(),
        comm_log: Vec::new(),
        pending_recvs: Vec::new(),
        pending_barrier,
        counters: CallCounters::default(),
        p2p_sent: d.var("p2p sent")?,
        p2p_delivered: d.var("p2p delivered")?,
        vcomm_members: HashMap::new(),
        upper: dec_upper(d, |i| {
            let i = usize::try_from(i).ok().filter(|&i| i <= *used)?;
            *used = (*used).max(i + 1);
            outputs.get(i).cloned()
        })?,
    })
}

/// Head fields that precede the member-list table.
fn enc_preamble<W: Wr>(p: &mut W, generation: u64, parent: Option<ParentRef>, image: &Checkpoint) {
    match parent {
        None => {
            p.u8(IMAGE_KIND_FULL);
            p.var(generation);
        }
        Some(parent) => {
            p.u8(IMAGE_KIND_DELTA);
            p.var(generation);
            p.var(parent.generation);
            p.u64(parent.checksum);
        }
    }
    p.var(image.epoch);
    p.usize(image.n_ranks);
    p.u8(protocol_code(image.protocol));
    p.usize(image.origin.ranks_per_node);
    enc_params(p, &image.origin.params);
    p.f64(image.request_clock.as_secs());
    enc_target_map(p, &image.initial_targets);
    enc_target_map(p, &image.final_targets);
    p.f64(image.io_write_secs);
    p.f64(image.io_read_secs);
}

/// The head of `image` as generation `generation` relative to `parent`:
/// everything but the chunk bytes — the preamble, the member-list
/// `table`, the output table, each rank's record with its chunk
/// reference, then the in-flight set's — each reference tagged inline
/// as `refs` flags it.
fn enc_head<W: Wr>(
    p: &mut W,
    generation: u64,
    parent: Option<ParentRef>,
    image: &Checkpoint,
    table: &MemberTable,
    refs: &[(ChunkRef, bool)],
) {
    let outputs = Outputs::of(&image.captures);
    enc_preamble(p, generation, parent, image);
    enc_table(p, table);
    outputs.enc(p);
    let (&(in_flight, inline), ranks) = refs.split_last().expect("the in-flight reference");
    p.usize(image.captures.len());
    for (c, &(r, inline)) in image.captures.iter().zip(ranks) {
        enc_volatile(p, c, &outputs);
        enc_chunk_ref(p, r, inline);
    }
    enc_chunk_ref(p, in_flight, inline);
}

impl DeltaImage {
    /// The image of `current` as generation `generation`: relative to
    /// `parent` when given, inlining every chunk whose address is not in
    /// `known` (the addresses the ancestor chain already holds), each
    /// once — the one encoder's image, decoded into the owned form.
    fn new(
        generation: u64,
        parent: Option<ParentRef>,
        known: &HashSet<ChunkRef>,
        current: &Checkpoint,
    ) -> DeltaImage {
        let known = |r: &ChunkRef| known.contains(r);
        let (bytes, _) = encode(generation, parent, &known, current, 1);
        DeltaImage::from_bytes(&bytes).expect("the encoder's image decodes")
    }

    /// The full image of `current` as generation 0: no parent, every
    /// distinct chunk inline.
    pub(crate) fn full(current: &Checkpoint) -> DeltaImage {
        DeltaImage::new(0, None, &HashSet::new(), current)
    }

    /// Builds a delta for `current` against the parent generation
    /// `(parent_generation, parent_checksum, parent)`. `known` is the set
    /// of chunk addresses already derivable from the ancestor chain; only
    /// chunks outside it are inlined. Of `parent` itself only the world
    /// size is looked at.
    ///
    /// # Panics
    /// Panics if `current` and `parent` disagree on world size — the
    /// caller must fall back to a full image across repacks.
    pub fn build(
        generation: u64,
        parent_generation: u64,
        parent_checksum: u64,
        parent: &Checkpoint,
        known: &HashSet<ChunkRef>,
        current: &Checkpoint,
    ) -> DeltaImage {
        assert_eq!(
            parent.n_ranks, current.n_ranks,
            "delta images require a same-shape parent"
        );
        let parent = ParentRef {
            generation: parent_generation,
            checksum: parent_checksum,
        };
        DeltaImage::new(generation, Some(parent), known, current)
    }

    /// Materializes the checkpoint from this image and a pool holding
    /// every chunk of the ancestor chain; `parent` is the resolved parent
    /// generation, checked for its shape only.
    pub fn apply(&self, parent: &Checkpoint, pool: &ChunkPool) -> Result<Checkpoint, ImageError> {
        if parent.n_ranks != self.n_ranks {
            return Err(ImageError::DeltaChain("parent world size mismatch"));
        }
        // One table for the whole checkpoint, so a list stays one
        // allocation across every rank's decoded chunk.
        let lists = MemberIntern::with_table(self.n_ranks, &self.lists);
        self.rebuild(lists, self.volatile.clone(), |r| pool.get(r))
    }

    /// Rebuilds the checkpoint from `captures` — this image's records,
    /// moved or cloned out of it — and their chunks (looked up by
    /// `chunk`), decoding every chunk against `lists`.
    pub(crate) fn rebuild<'a>(
        &self,
        mut lists: MemberIntern,
        mut captures: Vec<RuntimeCapture>,
        chunk: impl Fn(ChunkRef) -> Option<&'a [u8]>,
    ) -> Result<Checkpoint, ImageError> {
        let n = self.n_ranks;
        if captures.len() != n || self.rank_refs.len() != n {
            return Err(ImageError::DeltaChain("per-rank record count"));
        }
        let in_bytes =
            chunk(self.in_flight_ref).ok_or(ImageError::DeltaChain("missing in-flight chunk"))?;
        let mut d = Dec::new(in_bytes);
        let in_flight = dec_in_flight(&mut d)?;
        if !d.finished() {
            return Err(ImageError::DeltaChain("in-flight chunk length"));
        }

        for (c, r) in captures.iter_mut().zip(&self.rank_refs) {
            let bytes = chunk(*r).ok_or(ImageError::DeltaChain("missing stable chunk"))?;
            let mut d = Dec::new(bytes);
            dec_capture(&mut d, &mut lists, c)?;
            if !d.finished() {
                return Err(ImageError::DeltaChain("stable chunk length"));
            }
        }

        let mut ckpt = self.shell(captures);
        ckpt.in_flight = in_flight;
        validate_shape(&ckpt)?;
        ckpt.cut_events = ckpt.cut();
        Ok(ckpt)
    }

    /// The checkpoint this image's preamble describes, holding `captures`
    /// and no in-flight message.
    fn shell(&self, captures: Vec<RuntimeCapture>) -> Checkpoint {
        Checkpoint {
            epoch: self.epoch,
            n_ranks: self.n_ranks,
            protocol: self.protocol,
            origin: self.origin.clone(),
            request_clock: self.request_clock,
            initial_targets: self.initial_targets.clone(),
            final_targets: self.final_targets.clone(),
            captures,
            in_flight: Vec::new(),
            cut_events: Cut::default(),
            io_write_secs: self.io_write_secs,
            io_read_secs: self.io_read_secs,
        }
    }

    /// The head, as the one encoder writes it: a reference is tagged
    /// inline where it is the next of [`DeltaImage::new_chunks`], which
    /// lists them in order of first reference.
    fn head(&self) -> Vec<u8> {
        let mut next = self.new_chunks.iter().map(|(r, _)| *r).peekable();
        let refs = self.rank_refs.iter().chain([&self.in_flight_ref]);
        let refs: Refs = refs.map(|&r| (r, next.next_if_eq(&r).is_some())).collect();
        let (image, mut head) = (self.shell(self.volatile.clone()), Vec::new());
        enc_head(
            &mut head,
            self.generation,
            self.parent,
            &image,
            &self.lists,
            &refs,
        );
        head
    }

    /// Serializes the image: an 8-byte magic, a `u32` format version, the
    /// `u64` payload length, the `u64` length of the head (everything but
    /// the chunk bytes), a `u64` FNV-1a checksum of the head — fixed-width
    /// words all, read in place — then the head and the inline chunks back
    /// to back. Each chunk's address in the checksummed head authenticates
    /// its bytes. Deterministic: the same image always yields the same
    /// bytes (maps are written sorted by key, the member-list table sorted
    /// by content id), whether equal member lists share one allocation or
    /// not.
    pub fn to_bytes(&self) -> Vec<u8> {
        let chunks: Vec<&[u8]> = self.new_chunks.iter().map(|(_, b)| &b[..]).collect();
        assemble(&self.head(), &chunks.concat())
    }

    /// Byte range of every rank's record — volatile fields and chunk
    /// reference — within [`DeltaImage::to_bytes`] output, in rank order;
    /// fuzzers use this to aim mutations at record boundaries.
    pub fn capture_section_ranges(&self) -> Vec<Range<usize>> {
        let outputs = Outputs::of(&self.volatile);
        let mut at =
            self.member_table_range().end + outputs.len() + var_len(self.volatile.len() as u64);
        (self.volatile.iter().zip(&self.rank_refs))
            .map(|(v, r)| {
                let mut n = CountEnc::new();
                enc_volatile(&mut n, v, &outputs);
                enc_chunk_ref(&mut n, *r, false);
                at += n.count();
                at - n.count()..at
            })
            .collect()
    }

    /// Byte range of every inline chunk's content within
    /// [`DeltaImage::to_bytes`] output, in `new_chunks` order — the
    /// wire-fuzz suite aims mutations at these boundaries.
    pub fn chunk_byte_ranges(&self) -> Vec<Range<usize>> {
        let mut at = IMAGE_HEADER_LEN + self.head().len();
        (self.new_chunks.iter())
            .map(|(_, b)| {
                at += b.len();
                at - b.len()..at
            })
            .collect()
    }

    /// Byte range of the member-list table within
    /// [`DeltaImage::to_bytes`] output (its count varint included), for
    /// the same fuzzers.
    pub fn member_table_range(&self) -> Range<usize> {
        let (mut preamble, mut table) = (CountEnc::new(), CountEnc::new());
        let shell = self.shell(Vec::new());
        enc_preamble(&mut preamble, self.generation, self.parent, &shell);
        enc_table(&mut table, &self.lists);
        let start = IMAGE_HEADER_LEN + preamble.count();
        start..start + table.count()
    }

    /// Parses a serialized image of either kind. The header (magic,
    /// version, lengths, head checksum) is validated before the head is
    /// read; every inline chunk is re-hashed against its authenticated
    /// address before it can poison a [`ChunkPool`].
    pub fn from_bytes(buf: &[u8]) -> Result<DeltaImage, ImageError> {
        let (mut image, _, chunks) = DeltaImage::decode(buf)?;
        image.new_chunks = (chunks.into_iter())
            .map(|(r, at)| (r, buf[at].to_vec()))
            .collect();
        Ok(image)
    }

    /// Decodes a serialized full image straight into its checkpoint,
    /// reading every chunk where it lies in `buf`. A delta is refused: it
    /// must be resolved through its parent chain.
    pub(crate) fn checkpoint_from_bytes(buf: &[u8]) -> Result<Checkpoint, ImageError> {
        let (mut image, lists, chunks) = DeltaImage::decode(buf)?;
        if image.parent.is_some() {
            return Err(ImageError::DeltaChain(
                "standalone decode of a delta image; resolve it through its parent chain",
            ));
        }
        let chunks: HashMap<ChunkRef, Range<usize>> = chunks.into_iter().collect();
        let captures = std::mem::take(&mut image.volatile);
        image.rebuild(lists, captures, |r| Some(&buf[chunks.get(&r)?.clone()]))
    }

    /// The one decoder: the image without its chunk bytes, the member
    /// lists its head resolved, and where each of its authenticated
    /// inline chunks lies in `buf`, in `new_chunks` order.
    pub(crate) fn decode(buf: &[u8]) -> Result<Decoded, ImageError> {
        let (head, chunk_bytes) = validate_image_header(buf)?;
        let mut d = Dec::new(head);
        let kind = d.u8("image kind")?;
        let generation = d.var("generation")?;
        let parent = match kind {
            IMAGE_KIND_FULL => None,
            IMAGE_KIND_DELTA => Some(ParentRef {
                generation: d.var("parent generation")?,
                checksum: d.u64("parent checksum")?,
            }),
            _ => return Err(ImageError::Malformed("image kind")),
        };
        let epoch = d.var("epoch")?;
        let n_ranks = d.usize("n_ranks")?;
        let protocol = protocol_from_code(d.u8("protocol")?)?;
        let origin = image::CaptureOrigin {
            ranks_per_node: d.usize("ranks_per_node")?,
            params: dec_params(&mut d)?,
        };
        let request_clock = dec_vtime(&mut d, "request clock")?;
        let initial_targets = dec_target_map(&mut d, "initial targets")?;
        let final_targets = dec_target_map(&mut d, "final targets")?;
        let io_write_secs = d.f64("io_write_secs")?;
        let io_read_secs = d.f64("io_read_secs")?;
        if n_ranks == 0 || origin.ranks_per_node == 0 {
            return Err(ImageError::Malformed("world shape"));
        }
        let mut lists = MemberIntern::new(n_ranks);
        lists.dec_table(&mut d)?;
        let outputs = dec_outputs(&mut d)?;
        if d.seq_len("capture count")? != n_ranks {
            return Err(ImageError::Malformed("capture count vs n_ranks"));
        }

        // A chunk is inline at its first reference or not at all, and a
        // full image has nowhere else to take one from.
        let mut seen: HashSet<ChunkRef> = HashSet::with_capacity(n_ranks + 1);
        let mut inline: Vec<ChunkRef> = Vec::with_capacity(n_ranks + 1);
        let mut dec_chunk_ref = |d: &mut Dec| -> Result<ChunkRef, ImageError> {
            let tag = d.u8("chunk ref")?;
            let r = ChunkRef {
                hash: d.u64("chunk hash")?,
                len: d.var("chunk len")?,
            };
            let first = seen.insert(r);
            match tag {
                0 if first && parent.is_none() => Err(ImageError::Malformed("chunk ref")),
                0 => Ok(r),
                1 if first => {
                    inline.push(r);
                    Ok(r)
                }
                _ => Err(ImageError::Malformed("chunk ref")),
            }
        };
        let mut volatile = Vec::with_capacity(n_ranks);
        let mut rank_refs = Vec::with_capacity(n_ranks);
        let mut used = 0;
        for _ in 0..n_ranks {
            volatile.push(dec_volatile(&mut d, &outputs, &mut used)?);
            rank_refs.push(dec_chunk_ref(&mut d)?);
        }
        if used != outputs.len() {
            return Err(ImageError::Malformed("output table entry"));
        }
        let in_flight_ref = dec_chunk_ref(&mut d)?;
        if !d.finished() {
            return Err(ImageError::Malformed("trailing bytes"));
        }

        // The chunk section is the inline chunks back to back, each as
        // long as its address says: the lengths must tile it exactly.
        let lens: Option<usize> =
            (inline.iter()).try_fold(0usize, |n, r| n.checked_add(usize::try_from(r.len).ok()?));
        if lens != Some(chunk_bytes.len()) {
            return Err(ImageError::Malformed("chunk section length"));
        }
        let mut at = buf.len() - chunk_bytes.len();
        let mut chunks = Vec::with_capacity(inline.len());
        for r in inline {
            let range = at..at + r.len as usize;
            at = range.end;
            if fnv1a64(&buf[range.clone()]) != r.hash {
                return Err(ImageError::DeltaChain("chunk content hash mismatch"));
            }
            chunks.push((r, range));
        }
        let image = DeltaImage {
            generation,
            parent,
            epoch,
            n_ranks,
            protocol,
            origin,
            request_clock,
            initial_targets,
            final_targets,
            io_write_secs,
            io_read_secs,
            lists: lists.table().clone(),
            volatile,
            rank_refs,
            in_flight_ref,
            new_chunks: Vec::new(),
        };
        Ok((image, lists, chunks))
    }
}
