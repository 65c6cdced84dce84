//! The checkpoint image codec: one in-memory form, one wire layout.
//!
//! A [`DeltaImage`] serializes one checkpoint, optionally **relative to a
//! parent generation**. The small volatile record of every rank (rank,
//! state, clock, pending barrier, flow counts) is carried inline, while
//! the restart-stable half — sequence tables, communicator logs, pending
//! receives, call counters, vcomm maps — is referenced as a
//! **content-addressed chunk** `(fnv1a64(bytes), len)`. The drained
//! in-flight set is one more chunk. The cut is carried whole: it is a few
//! runs per rank ([`mana_core::Cut`]), whatever the run's length.
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
//! lists of all its ranks' chunks, inline or inherited, and of its cut. A
//! chunk taken from an ancestor decodes against the leaf's table; no list
//! is looked up along the chain.
//!
//! So an image needs nothing from its ancestors but chunk bytes.
//! Resolution ([`crate::store::TieredStore::load`]) decodes every chain
//! element alike, gathers their inline chunks in a [`ChunkPool`], and
//! materializes the leaf against it. Every failure mode — a missing
//! parent, a chunk whose bytes do not match its address, a chunk nowhere
//! in the chain — is a typed [`ImageError`], never a panic.

use crate::image::{
    self, dec_capture, dec_cut, dec_in_flight, dec_params, dec_target_map, dec_vtime,
    enc_capture_stable, enc_cut, enc_drained, enc_header, enc_params, enc_target_map,
    protocol_code, protocol_from_code, reseal, validate_image_header, validate_shape, Checkpoint,
    ImageError, MemberIntern, MemberTable, IMAGE_HEADER_LEN, IMAGE_KIND_DELTA, IMAGE_KIND_FULL,
};
use crate::wire::{fnv1a64, CountEnc, Dec, Wr};
use mana_core::{Cut, CutRun, Ggid, Protocol, RankState, RuntimeCapture};
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

/// The inline (per-checkpoint) half of one rank's capture.
#[derive(Debug, Clone, PartialEq)]
pub struct VolatileRecord {
    /// The rank this record belongs to; must equal its position.
    pub rank: usize,
    /// Rank state at capture.
    pub state: RankState,
    /// Virtual clock at capture.
    pub clock: VTime,
    /// Pending trivial barrier, if parked in one.
    pub pending_barrier: Option<(u64, u64)>,
    /// p2p messages sent this generation.
    pub p2p_sent: u64,
    /// p2p messages delivered this generation.
    pub p2p_delivered: u64,
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
    /// Achieved per-group maxima.
    pub achieved: HashMap<Ggid, u64>,
    /// Virtual write seconds charged for this image.
    pub io_write_secs: f64,
    /// Virtual read seconds charged for this image.
    pub io_read_secs: f64,
    /// The member-list table: every non-contiguous group member list the
    /// rank chunks (inline or inherited) and the cut reference, by content
    /// id.
    pub lists: MemberTable,
    /// Per-rank volatile records, indexed by rank.
    pub volatile: Vec<VolatileRecord>,
    /// Per-rank stable-chunk references, indexed by rank.
    pub rank_refs: Vec<ChunkRef>,
    /// Content address of the drained in-flight set.
    pub in_flight_ref: ChunkRef,
    /// The checkpoint's cut.
    pub cut: Cut,
    /// The chunks this image carries inline, in order of first
    /// reference (rank refs, then the in-flight ref).
    pub new_chunks: Vec<(ChunkRef, Vec<u8>)>,
}

/// A chunk with its content address.
fn chunk(bytes: Vec<u8>) -> (ChunkRef, Vec<u8>) {
    let address = ChunkRef {
        hash: fnv1a64(&bytes),
        len: bytes.len() as u64,
    };
    (address, bytes)
}

/// Every chunk of `image` with its address — each rank's stable half in
/// rank order, then the in-flight set — encoded and hashed on up to
/// `workers` threads. A chunk's bytes are a function of its rank's state
/// alone (`lists` only caches which allocations were hashed already), so
/// the result is the same for every worker count.
fn encode_chunks(
    lists: &MemberIntern,
    image: &Checkpoint,
    workers: usize,
) -> Vec<(ChunkRef, Vec<u8>)> {
    let stable = |c: &RuntimeCapture| {
        let mut n = CountEnc::new();
        enc_capture_stable(&mut n, lists, c);
        let mut out: Vec<u8> = Vec::with_capacity(n.count());
        enc_capture_stable(&mut out, lists, c);
        chunk(out)
    };
    let captures = &image.captures;
    let mut chunks = Vec::with_capacity(captures.len() + 1);
    let workers = workers.clamp(1, captures.len().max(1));
    if workers == 1 {
        chunks.extend(captures.iter().map(stable));
    } else {
        let batch = captures.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let encoders: Vec<_> = (captures.chunks(batch))
                .map(|b| scope.spawn(move || b.iter().map(stable).collect::<Vec<_>>()))
                .collect();
            for e in encoders {
                chunks.extend(e.join().expect("chunk encoder panicked"));
            }
        });
    }
    let mut in_flight: Vec<u8> = Vec::new();
    in_flight.usize(image.in_flight.len());
    for m in &image.in_flight {
        enc_drained(&mut in_flight, m);
    }
    chunks.push(chunk(in_flight));
    chunks
}

/// The chunk refs a full image contributes to its descendants' dedup set:
/// one per rank plus the in-flight chunk.
pub fn full_image_refs(image: &Checkpoint) -> Vec<ChunkRef> {
    DeltaImage::full(0, image, 1).refs().collect()
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
        self.absorb(DeltaImage::full(0, image, 1).new_chunks);
    }

    /// Adds an image's inline chunks.
    pub fn absorb_delta(&mut self, d: &DeltaImage) {
        self.absorb(d.new_chunks.iter().cloned());
    }

    /// Moves chunks into the pool; an address already held keeps its
    /// bytes.
    pub(crate) fn absorb(&mut self, chunks: impl IntoIterator<Item = (ChunkRef, Vec<u8>)>) {
        for (r, b) in chunks {
            self.map.entry(r).or_insert(b);
        }
    }

    /// Looks a chunk up by content address.
    pub fn get(&self, r: ChunkRef) -> Option<&[u8]> {
        self.map.get(&r).map(|b| &b[..])
    }
}

/// What [`DeltaImage::decode`] reads from a buffer: the image without
/// its chunk bytes, the member lists its head resolved, and its inline
/// chunks as slices of the buffer.
pub(crate) type Decoded<'a> = (DeltaImage, MemberIntern, Vec<(ChunkRef, &'a [u8])>);

/// Writes a chunk reference: tag `1` when the chunk's bytes follow in
/// this image's chunk section, `0` when they are at an earlier reference
/// or in the ancestor chain; then the address.
fn enc_chunk_ref<W: Wr>(e: &mut W, r: ChunkRef, inline: bool) {
    e.u8(u8::from(inline));
    e.u64(r.hash);
    e.u64(r.len);
}

fn enc_volatile<W: Wr>(e: &mut W, v: &VolatileRecord) {
    e.usize(v.rank);
    e.u8(v.state as u8);
    e.f64(v.clock.as_secs());
    match v.pending_barrier {
        None => e.u8(0),
        Some((vc, ord)) => {
            e.u8(1);
            e.u64(vc);
            e.u64(ord);
        }
    }
    e.u64(v.p2p_sent);
    e.u64(v.p2p_delivered);
}

fn dec_volatile(d: &mut Dec) -> Result<VolatileRecord, ImageError> {
    let rank = d.usize("capture rank")?;
    let state = match d.u8("capture state")? {
        s @ 0..=6 => RankState::from_u8(s),
        _ => return Err(ImageError::Malformed("capture state")),
    };
    let clock = dec_vtime(d, "capture clock")?;
    let pending_barrier = match d.u8("pending-barrier tag")? {
        0 => None,
        1 => Some((
            d.u64("pending-barrier vcomm")?,
            d.u64("pending-barrier ordinal")?,
        )),
        _ => return Err(ImageError::Malformed("pending-barrier tag")),
    };
    Ok(VolatileRecord {
        rank,
        state,
        clock,
        pending_barrier,
        p2p_sent: d.u64("p2p sent")?,
        p2p_delivered: d.u64("p2p delivered")?,
    })
}

impl DeltaImage {
    /// The image of `current` as generation `generation`: relative to
    /// `parent` when given, inlining every chunk whose address is not in
    /// `known` (the addresses the ancestor chain already holds), each
    /// once. Chunks are encoded and hashed on up to `workers` threads.
    pub(crate) fn new(
        generation: u64,
        parent: Option<ParentRef>,
        known: &HashSet<ChunkRef>,
        current: &Checkpoint,
        workers: usize,
    ) -> DeltaImage {
        let lists = current.member_lists();
        let mut new_chunks: Vec<(ChunkRef, Vec<u8>)> = Vec::new();
        let mut inlined: HashSet<ChunkRef> = HashSet::new();
        let mut rank_refs: Vec<ChunkRef> = Vec::with_capacity(current.captures.len() + 1);
        for (r, b) in encode_chunks(&lists, current, workers) {
            if !known.contains(&r) && inlined.insert(r) {
                new_chunks.push((r, b));
            }
            rank_refs.push(r);
        }
        let in_flight_ref = rank_refs
            .pop()
            .expect("the in-flight chunk closes the list");

        let volatile = current
            .captures
            .iter()
            .map(|c| VolatileRecord {
                rank: c.rank,
                state: c.state,
                clock: c.clock,
                pending_barrier: c.pending_barrier,
                p2p_sent: c.p2p_sent,
                p2p_delivered: c.p2p_delivered,
            })
            .collect();

        DeltaImage {
            generation,
            parent,
            epoch: current.epoch,
            n_ranks: current.n_ranks,
            protocol: current.protocol,
            origin: current.origin.clone(),
            request_clock: current.request_clock,
            initial_targets: current.initial_targets.clone(),
            final_targets: current.final_targets.clone(),
            achieved: current.achieved.clone(),
            io_write_secs: current.io_write_secs,
            io_read_secs: current.io_read_secs,
            lists: lists.table().clone(),
            volatile,
            rank_refs,
            in_flight_ref,
            cut: current.cut_events.clone(),
            new_chunks,
        }
    }

    /// The full image of `current` — no parent, every distinct chunk
    /// inline — with its chunks encoded on up to `workers` threads.
    pub(crate) fn full(generation: u64, current: &Checkpoint, workers: usize) -> DeltaImage {
        DeltaImage::new(generation, None, &HashSet::new(), current, workers)
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
        DeltaImage::new(generation, Some(parent), known, current, 1)
    }

    /// Every chunk address the image references: each rank's, then the
    /// in-flight set's.
    pub(crate) fn refs(&self) -> impl Iterator<Item = ChunkRef> + '_ {
        self.rank_refs.iter().chain([&self.in_flight_ref]).copied()
    }

    /// Materializes the checkpoint from this image and a pool holding
    /// every chunk of the ancestor chain; `parent` is the resolved parent
    /// generation, checked for its shape only.
    pub fn apply(&self, parent: &Checkpoint, pool: &ChunkPool) -> Result<Checkpoint, ImageError> {
        if parent.n_ranks != self.n_ranks {
            return Err(ImageError::DeltaChain("parent world size mismatch"));
        }
        // One table for the whole checkpoint: the image's own allocations
        // first, so a list stays one allocation across the cut and every
        // rank's decoded chunk.
        let mut lists = MemberIntern::with_table(self.n_ranks, &self.lists);
        let mut runs = Vec::with_capacity(self.cut.runs().len());
        for r in self.cut.runs() {
            runs.push(CutRun {
                members: lists.shared(&r.members, "cut-run members")?,
                ..*r
            });
        }
        self.rebuild(lists, Cut::from_runs(runs), |r| pool.get(r))
    }

    /// Rebuilds the checkpoint from its cut, its chunks (looked up by
    /// `chunk`) and this image's records, decoding every chunk against
    /// `lists` — which the cut's member lists must already share.
    pub(crate) fn rebuild<'a>(
        &self,
        mut lists: MemberIntern,
        cut_events: Cut,
        chunk: impl Fn(ChunkRef) -> Option<&'a [u8]>,
    ) -> Result<Checkpoint, ImageError> {
        if self.volatile.len() != self.n_ranks || self.rank_refs.len() != self.n_ranks {
            return Err(ImageError::DeltaChain("per-rank record count"));
        }
        let in_bytes =
            chunk(self.in_flight_ref).ok_or(ImageError::DeltaChain("missing in-flight chunk"))?;
        let mut d = Dec::new(in_bytes);
        let in_flight = dec_in_flight(&mut d)?;
        if !d.finished() {
            return Err(ImageError::DeltaChain("in-flight chunk length"));
        }

        let mut captures = Vec::with_capacity(self.n_ranks);
        for (v, r) in self.volatile.iter().zip(&self.rank_refs) {
            let bytes = chunk(*r).ok_or(ImageError::DeltaChain("missing stable chunk"))?;
            let mut d = Dec::new(bytes);
            captures.push(dec_capture(&mut d, &mut lists, v)?);
            if !d.finished() {
                return Err(ImageError::DeltaChain("stable chunk length"));
            }
        }

        let ckpt = Checkpoint {
            epoch: self.epoch,
            n_ranks: self.n_ranks,
            protocol: self.protocol,
            origin: self.origin.clone(),
            request_clock: self.request_clock,
            initial_targets: self.initial_targets.clone(),
            final_targets: self.final_targets.clone(),
            achieved: self.achieved.clone(),
            captures,
            in_flight,
            cut_events,
            io_write_secs: self.io_write_secs,
            io_read_secs: self.io_read_secs,
        };
        validate_shape(&ckpt)?;
        Ok(ckpt)
    }

    /// The encode-side table: the lists the chunks reference plus the
    /// cut's, each allocation hashed at most once.
    fn member_lists(&self) -> MemberIntern {
        let mut lists = MemberIntern::with_table(self.n_ranks, &self.lists);
        for r in self.cut.runs() {
            lists.note(&r.members);
        }
        lists
    }

    /// Head fields that precede the member-list table.
    fn enc_preamble<W: Wr>(&self, p: &mut W) {
        match self.parent {
            None => {
                p.u8(IMAGE_KIND_FULL);
                p.u64(self.generation);
            }
            Some(parent) => {
                p.u8(IMAGE_KIND_DELTA);
                p.u64(self.generation);
                p.u64(parent.generation);
                p.u64(parent.checksum);
            }
        }
        p.u64(self.epoch);
        p.usize(self.n_ranks);
        p.u8(protocol_code(self.protocol));
        p.usize(self.origin.ranks_per_node);
        enc_params(p, &self.origin.params);
        p.f64(self.request_clock.as_secs());
        enc_target_map(p, &self.initial_targets);
        enc_target_map(p, &self.final_targets);
        enc_target_map(p, &self.achieved);
        p.f64(self.io_write_secs);
        p.f64(self.io_read_secs);
    }

    /// The head: everything but the chunk bytes. A reference is tagged
    /// inline where it is the next of [`DeltaImage::new_chunks`], which
    /// lists them in order of first reference.
    fn enc_head<W: Wr>(&self, p: &mut W, lists: &MemberIntern) {
        self.enc_preamble(p);
        lists.enc_table(p);
        let mut next = self.new_chunks.iter().map(|(r, _)| *r).peekable();
        let mut chunk_ref = |p: &mut W, r: ChunkRef| {
            let inline = next.next_if_eq(&r).is_some();
            enc_chunk_ref(p, r, inline);
        };
        p.usize(self.volatile.len());
        for (v, r) in self.volatile.iter().zip(&self.rank_refs) {
            enc_volatile(p, v);
            chunk_ref(p, *r);
        }
        chunk_ref(p, self.in_flight_ref);
        enc_cut(p, lists, &self.cut);
    }

    fn head_len(&self, lists: &MemberIntern) -> usize {
        let mut head = CountEnc::new();
        self.enc_head(&mut head, lists);
        head.count()
    }

    /// Serializes the image: an 8-byte magic, a `u32` format version, the
    /// `u64` payload length, the `u64` length of the head (everything but
    /// the chunk bytes), a `u64` FNV-1a checksum of the head, then the
    /// head and the inline chunks back to back. Each chunk's address in
    /// the checksummed head authenticates its bytes. Deterministic: the
    /// same image always yields the same bytes (maps are written sorted by
    /// key, the member-list table sorted by content id), whether equal
    /// member lists share one allocation or not.
    pub fn to_bytes(&self) -> Vec<u8> {
        let lists = self.member_lists();
        let head_len = self.head_len(&lists);
        let chunks: usize = self.new_chunks.iter().map(|(_, b)| b.len()).sum();
        let mut out: Vec<u8> = Vec::with_capacity(IMAGE_HEADER_LEN + head_len + chunks);
        enc_header(&mut out, head_len, chunks);
        self.enc_head(&mut out, &lists);
        debug_assert_eq!(
            out.len(),
            IMAGE_HEADER_LEN + head_len,
            "head sizing drifted"
        );
        reseal(&mut out);
        for (_, b) in &self.new_chunks {
            out.raw(b);
        }
        out
    }

    /// Size of [`DeltaImage::to_bytes`] output, by a counting pass.
    pub(crate) fn serialized_len(&self) -> usize {
        let chunks: usize = self.new_chunks.iter().map(|(_, b)| b.len()).sum();
        IMAGE_HEADER_LEN + self.head_len(&self.member_lists()) + chunks
    }

    /// Byte range of every rank's record — volatile fields and chunk
    /// reference — within [`DeltaImage::to_bytes`] output, in rank order;
    /// fuzzers use this to aim mutations at record boundaries.
    pub fn capture_section_ranges(&self) -> Vec<Range<usize>> {
        let mut at = self.member_table_range().end + 8;
        (self.volatile.iter().zip(&self.rank_refs))
            .map(|(v, r)| {
                let mut n = CountEnc::new();
                enc_volatile(&mut n, v);
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
        let mut at = IMAGE_HEADER_LEN + self.head_len(&self.member_lists());
        (self.new_chunks.iter())
            .map(|(_, b)| {
                at += b.len();
                at - b.len()..at
            })
            .collect()
    }

    /// Byte range of the member-list table within
    /// [`DeltaImage::to_bytes`] output (its count word included), for the
    /// same fuzzers.
    pub fn member_table_range(&self) -> Range<usize> {
        let mut preamble = CountEnc::new();
        self.enc_preamble(&mut preamble);
        let start = IMAGE_HEADER_LEN + preamble.count();
        start..start + self.member_lists().table_len()
    }

    /// Parses a serialized image of either kind. The header (magic,
    /// version, lengths, head checksum) is validated before the head is
    /// read; every inline chunk is re-hashed against its authenticated
    /// address before it can poison a [`ChunkPool`].
    pub fn from_bytes(buf: &[u8]) -> Result<DeltaImage, ImageError> {
        let (mut image, _, chunks) = DeltaImage::decode(buf)?;
        image.new_chunks = (chunks.into_iter()).map(|(r, b)| (r, b.to_vec())).collect();
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
        let chunks: HashMap<ChunkRef, &[u8]> = chunks.into_iter().collect();
        let cut = std::mem::take(&mut image.cut);
        image.rebuild(lists, cut, |r| chunks.get(&r).copied())
    }

    /// The one decoder: the image without its chunk bytes, the member
    /// lists its head resolved (the cut shares them), and its
    /// authenticated inline chunks as slices of `buf`, in `new_chunks`
    /// order.
    pub(crate) fn decode(buf: &[u8]) -> Result<Decoded<'_>, ImageError> {
        let (head, chunk_bytes) = validate_image_header(buf)?;
        let mut d = Dec::new(head);
        let kind = d.u8("image kind")?;
        let generation = d.u64("generation")?;
        let parent = match kind {
            IMAGE_KIND_FULL => None,
            IMAGE_KIND_DELTA => Some(ParentRef {
                generation: d.u64("parent generation")?,
                checksum: d.u64("parent checksum")?,
            }),
            _ => return Err(ImageError::Malformed("image kind")),
        };
        let epoch = d.u64("epoch")?;
        let n_ranks = d.usize("n_ranks")?;
        let protocol = protocol_from_code(d.u8("protocol")?)?;
        let origin = image::CaptureOrigin {
            ranks_per_node: d.usize("ranks_per_node")?,
            params: dec_params(&mut d)?,
        };
        let request_clock = dec_vtime(&mut d, "request clock")?;
        let initial_targets = dec_target_map(&mut d, "initial targets")?;
        let final_targets = dec_target_map(&mut d, "final targets")?;
        let achieved = dec_target_map(&mut d, "achieved map")?;
        let io_write_secs = d.f64("io_write_secs")?;
        let io_read_secs = d.f64("io_read_secs")?;
        if n_ranks == 0 || origin.ranks_per_node == 0 {
            return Err(ImageError::Malformed("world shape"));
        }
        let mut lists = MemberIntern::new(n_ranks);
        lists.dec_table(&mut d)?;

        // A chunk is inline at its first reference or not at all, and a
        // full image has nowhere else to take one from.
        let mut seen: HashSet<ChunkRef> = HashSet::new();
        let mut inline: Vec<ChunkRef> = Vec::new();
        let mut dec_chunk_ref = |d: &mut Dec| -> Result<ChunkRef, ImageError> {
            let tag = d.u8("chunk ref")?;
            let r = ChunkRef {
                hash: d.u64("chunk hash")?,
                len: d.u64("chunk len")?,
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
        if d.seq_len("capture count")? != n_ranks {
            return Err(ImageError::Malformed("capture count vs n_ranks"));
        }
        let mut volatile = Vec::with_capacity(n_ranks);
        let mut rank_refs = Vec::with_capacity(n_ranks);
        for _ in 0..n_ranks {
            volatile.push(dec_volatile(&mut d)?);
            rank_refs.push(dec_chunk_ref(&mut d)?);
        }
        let in_flight_ref = dec_chunk_ref(&mut d)?;
        let cut = dec_cut(&mut d, &mut lists)?;
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
        let mut at = 0;
        let mut chunks = Vec::with_capacity(inline.len());
        for r in inline {
            let bytes = &chunk_bytes[at..at + r.len as usize];
            at += bytes.len();
            if fnv1a64(bytes) != r.hash {
                return Err(ImageError::DeltaChain("chunk content hash mismatch"));
            }
            chunks.push((r, bytes));
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
            achieved,
            io_write_secs,
            io_read_secs,
            lists: lists.table().clone(),
            volatile,
            rank_refs,
            in_flight_ref,
            cut,
            new_chunks: Vec::new(),
        };
        Ok((image, lists, chunks))
    }
}
