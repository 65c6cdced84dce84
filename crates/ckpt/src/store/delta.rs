//! Incremental (delta) checkpoint images with content-addressed chunks.
//!
//! A delta image serializes one checkpoint **relative to a parent
//! generation**: the small volatile half of every rank (state, clock,
//! pending barrier, flow counts) is carried inline, while the
//! restart-stable half — sequence tables, communicator logs, pending
//! receives, call counters, vcomm maps — is referenced as a
//! **content-addressed chunk** `(fnv1a64(bytes), len)`. Only chunks absent
//! from the ancestor chain are inlined, so a checkpoint where few ranks
//! progressed serializes a few kilobytes instead of the full image. The
//! drained in-flight set is its own chunk. The cut is carried whole: it
//! is a few runs per rank ([`mana_core::Cut`]), whatever the run's length.
//!
//! A stable chunk names its group member lists by content id instead of
//! spelling them out (see [`crate::image::IMAGE_VERSION`]), so a chunk's
//! bytes — and therefore its address — depend on that rank's state alone.
//! Every delta carries the member-list table for what it references: the
//! lists of all its ranks' chunks, inline or inherited, and of its cut. A
//! chunk taken from an ancestor decodes against the leaf's table; no list
//! is looked up along the chain.
//!
//! So a delta needs nothing from its ancestors but chunk bytes, and
//! resolution ([`crate::store::TieredStore::load`]) decodes exactly one
//! image: a [`ChunkPool`] takes each ancestor delta's inline chunks and
//! the full root's stable sections — sliced out of the root's stored
//! bytes, which hold what the deltas hashed — and the leaf materializes
//! against it. Every failure mode — a missing parent, a chunk whose bytes
//! do not match its declared hash, a chunk nowhere in the chain — is a
//! typed [`ImageError`], never a panic.

use crate::image::{
    self, backpatch_header, dec_capture_stable, dec_cut, dec_in_flight, dec_params, dec_target_map,
    dec_vtime, enc_capture_stable, enc_cut, enc_drained, enc_header_placeholder, enc_params,
    enc_target_map, protocol_code, protocol_from_code, validate_image_header, validate_shape,
    Checkpoint, DrainedMsg, ImageError, MemberIntern, IMAGE_HEADER_LEN, IMAGE_KIND_DELTA,
    IMAGE_KIND_FULL,
};
use crate::wire::{fnv1a64, CountEnc, Dec, Wr};
use mana_core::{Cut, CutRun, Ggid, Protocol, RankState, RuntimeCapture};
use mpisim::VTime;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// Content address of one stable chunk: FNV-1a over the chunk bytes plus
/// the byte length (the length guards the hash against trivial
/// collisions between different-sized chunks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRef {
    /// FNV-1a 64-bit hash of the chunk bytes.
    pub hash: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

/// The inline (per-checkpoint) half of one rank's capture.
#[derive(Debug, Clone, PartialEq)]
pub struct VolatileRecord {
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

/// An incremental checkpoint image: everything needed to rebuild a
/// [`Checkpoint`] given its parent generation and the chunk bytes the
/// ancestor chain already carries.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaImage {
    /// This image's generation number.
    pub generation: u64,
    /// The generation this delta is relative to.
    pub parent_generation: u64,
    /// The parent image's header checksum — the chain-integrity
    /// fingerprint checked at resolution.
    pub parent_checksum: u64,
    /// Lower-half epoch of the child checkpoint.
    pub epoch: u64,
    /// World size (must match the parent's).
    pub n_ranks: usize,
    /// Protocol of the child checkpoint.
    pub protocol: Protocol,
    /// Capture origin of the child checkpoint.
    pub origin: image::CaptureOrigin,
    /// Request clock of the child checkpoint.
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
    /// rank chunks (inline or inherited) and the cut reference, in
    /// content-id order.
    pub lists: Vec<Arc<[usize]>>,
    /// The child checkpoint's cut.
    pub cut: Cut,
    /// Content address of the drained in-flight set.
    pub in_flight_ref: ChunkRef,
    /// Per-rank volatile records, indexed by rank.
    pub volatile: Vec<VolatileRecord>,
    /// Per-rank stable-chunk references, indexed by rank.
    pub rank_refs: Vec<ChunkRef>,
    /// Chunks not present anywhere in the ancestor chain, sorted by
    /// `(hash, len)` for deterministic bytes.
    pub new_chunks: Vec<(ChunkRef, Vec<u8>)>,
}

/// A parsed image payload: either a self-contained full checkpoint or a
/// delta that must be resolved against its parent chain.
#[derive(Debug, Clone, PartialEq)]
pub enum ImagePayload {
    /// A self-contained image.
    Full(Checkpoint),
    /// An incremental image.
    Delta(DeltaImage),
}

impl ImagePayload {
    /// Parses a serialized image of either kind, validating the shared
    /// header (magic, version, length, checksum) first — once: either
    /// decoder then works on the authenticated payload.
    pub fn from_bytes(buf: &[u8]) -> Result<ImagePayload, ImageError> {
        let (payload, _checksum) = validate_image_header(buf)?;
        match payload.first().copied() {
            Some(IMAGE_KIND_FULL) => Ok(ImagePayload::Full(Checkpoint::dec_payload(payload)?)),
            Some(IMAGE_KIND_DELTA) => Ok(ImagePayload::Delta(DeltaImage::dec_payload(payload)?)),
            Some(_) => Err(ImageError::Malformed("image kind")),
            None => Err(ImageError::Malformed("empty payload")),
        }
    }
}

/// Encodes one rank's restart-stable half as a standalone chunk, noting
/// the lists it references in `lists`. The bytes are a function of `c`
/// alone: a list is referenced by content, `lists` only remembers which
/// allocations it has hashed already (and, for a delta, what to put in
/// its table).
fn stable_chunk_bytes(lists: &mut MemberIntern, c: &RuntimeCapture) -> Vec<u8> {
    lists.note_capture(c);
    let mut out: Vec<u8> = Vec::new();
    enc_capture_stable(&mut out, lists, c);
    out
}

/// Encodes the drained in-flight set as a standalone chunk.
fn in_flight_chunk_bytes(in_flight: &[DrainedMsg]) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::new();
    out.usize(in_flight.len());
    for m in in_flight {
        enc_drained(&mut out, m);
    }
    out
}

/// Every chunk of a full image: each rank's stable half in rank order,
/// then the in-flight set.
fn image_chunks(image: &Checkpoint) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut lists = MemberIntern::new(image.n_ranks);
    let ranks = (image.captures.iter()).map(move |c| stable_chunk_bytes(&mut lists, c));
    ranks.chain(std::iter::once_with(|| {
        in_flight_chunk_bytes(&image.in_flight)
    }))
}

pub(crate) fn chunk_ref(bytes: &[u8]) -> ChunkRef {
    ChunkRef {
        hash: fnv1a64(bytes),
        len: bytes.len() as u64,
    }
}

/// The chunk refs a full image contributes to its descendants' dedup set:
/// one per rank plus the in-flight chunk.
pub fn full_image_refs(image: &Checkpoint) -> Vec<ChunkRef> {
    image_chunks(image).map(|b| chunk_ref(&b)).collect()
}

/// Chunk bytes available while resolving a delta chain: the root's
/// stable sections plus every delta's inline chunks, keyed by content
/// address.
#[derive(Default)]
pub struct ChunkPool {
    map: HashMap<ChunkRef, Arc<[u8]>>,
}

impl ChunkPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every chunk derivable from a full image: each rank's stable
    /// section and the in-flight set, re-encoded (encoding is
    /// deterministic, so these are byte-identical to what descendants
    /// hashed at build time).
    pub fn absorb_full(&mut self, image: &Checkpoint) {
        for b in image_chunks(image) {
            self.absorb_chunk(&b);
        }
    }

    /// Adds one chunk under the address its bytes hash to.
    pub(crate) fn absorb_chunk(&mut self, bytes: &[u8]) {
        self.map
            .entry(chunk_ref(bytes))
            .or_insert_with(|| bytes.into());
    }

    /// Adds a delta's inline chunks.
    pub fn absorb_delta(&mut self, d: &DeltaImage) {
        for (r, b) in &d.new_chunks {
            self.map.entry(*r).or_insert_with(|| b.as_slice().into());
        }
    }

    /// Looks a chunk up by content address.
    pub fn get(&self, r: ChunkRef) -> Option<&[u8]> {
        self.map.get(&r).map(|b| &b[..])
    }
}

impl DeltaImage {
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
        let mut lists = MemberIntern::new(current.n_ranks);
        let mut new_chunks: Vec<(ChunkRef, Vec<u8>)> = Vec::new();
        let mut inlined: HashSet<ChunkRef> = HashSet::new();
        let mut inline = |b: Vec<u8>| -> ChunkRef {
            let r = chunk_ref(&b);
            if !known.contains(&r) && inlined.insert(r) {
                new_chunks.push((r, b));
            }
            r
        };
        let rank_refs: Vec<ChunkRef> = current
            .captures
            .iter()
            .map(|c| inline(stable_chunk_bytes(&mut lists, c)))
            .collect();
        let in_flight_ref = inline(in_flight_chunk_bytes(&current.in_flight));
        new_chunks.sort_unstable_by_key(|(r, _)| (r.hash, r.len));

        for r in current.cut_events.runs() {
            lists.note(&r.members);
        }

        let volatile = current
            .captures
            .iter()
            .map(|c| VolatileRecord {
                state: c.state,
                clock: c.clock,
                pending_barrier: c.pending_barrier,
                p2p_sent: c.p2p_sent,
                p2p_delivered: c.p2p_delivered,
            })
            .collect();

        DeltaImage {
            generation,
            parent_generation,
            parent_checksum,
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
            lists: lists.table().cloned().collect(),
            cut: current.cut_events.clone(),
            in_flight_ref,
            volatile,
            rank_refs,
            new_chunks,
        }
    }

    /// Materializes the child checkpoint from this delta and a pool
    /// holding every chunk of the ancestor chain; `parent` is the resolved
    /// parent generation, checked for its shape only.
    pub fn apply(&self, parent: &Checkpoint, pool: &ChunkPool) -> Result<Checkpoint, ImageError> {
        if parent.n_ranks != self.n_ranks {
            return Err(ImageError::DeltaChain("parent world size mismatch"));
        }
        self.materialize(pool)
    }

    /// [`DeltaImage::apply`] without the parent: everything the child is
    /// made of is in the delta or in `pool`.
    pub(crate) fn materialize(&self, pool: &ChunkPool) -> Result<Checkpoint, ImageError> {
        if self.volatile.len() != self.n_ranks || self.rank_refs.len() != self.n_ranks {
            return Err(ImageError::DeltaChain("per-rank record count"));
        }
        // One table for the whole child: the delta's own allocations
        // first, so a list stays one allocation across the cut and every
        // rank's decoded chunk.
        let mut lists = MemberIntern::new(self.n_ranks);
        for m in &self.lists {
            lists.try_note(m)?;
        }
        let mut runs = Vec::with_capacity(self.cut.runs().len());
        for r in self.cut.runs() {
            runs.push(CutRun {
                members: lists.shared(&r.members, "cut-run members")?,
                ..*r
            });
        }
        let cut_events = Cut::from_runs(runs);

        let in_bytes = pool
            .get(self.in_flight_ref)
            .ok_or(ImageError::DeltaChain("missing in-flight chunk"))?;
        let mut d = Dec::new(in_bytes);
        let in_flight = dec_in_flight(&mut d)?;
        if !d.finished() {
            return Err(ImageError::DeltaChain("in-flight chunk length"));
        }

        let mut captures = Vec::with_capacity(self.n_ranks);
        for (rank, (v, r)) in self.volatile.iter().zip(&self.rank_refs).enumerate() {
            let bytes = pool
                .get(*r)
                .ok_or(ImageError::DeltaChain("missing stable chunk"))?;
            let mut d = Dec::new(bytes);
            let stable = dec_capture_stable(&mut d, &mut lists)?;
            if !d.finished() {
                return Err(ImageError::DeltaChain("stable chunk length"));
            }
            captures.push(stable.into_capture(
                rank,
                v.state,
                v.clock,
                v.pending_barrier,
                v.p2p_sent,
                v.p2p_delivered,
            ));
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
    /// cut's, each allocation hashed once.
    fn member_lists(&self) -> MemberIntern {
        let mut lists = MemberIntern::new(self.n_ranks);
        for m in (self.lists.iter()).chain(self.cut.runs().iter().map(|r| &r.members)) {
            lists.note(m);
        }
        lists
    }

    /// Head fields that precede the member-list table.
    fn enc_preamble<W: Wr>(&self, p: &mut W) {
        p.u8(IMAGE_KIND_DELTA);
        p.u64(self.generation);
        p.u64(self.parent_generation);
        p.u64(self.parent_checksum);
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

    fn enc_head<W: Wr>(&self, p: &mut W, lists: &MemberIntern) {
        self.enc_preamble(p);
        lists.enc_table(p);
        enc_cut(p, lists, &self.cut);
        p.u64(self.in_flight_ref.hash);
        p.u64(self.in_flight_ref.len);
        p.usize(self.volatile.len());
        for v in &self.volatile {
            p.u8(v.state as u8);
            p.f64(v.clock.as_secs());
            match v.pending_barrier {
                None => p.u8(0),
                Some((vc, ord)) => {
                    p.u8(1);
                    p.u64(vc);
                    p.u64(ord);
                }
            }
            p.u64(v.p2p_sent);
            p.u64(v.p2p_delivered);
        }
        p.usize(self.rank_refs.len());
        for r in &self.rank_refs {
            p.u64(r.hash);
            p.u64(r.len);
        }
        p.usize(self.new_chunks.len());
    }

    /// Serializes the delta under the shared image header (magic,
    /// version, length, FNV-1a checksum), kind byte [`IMAGE_KIND_DELTA`].
    /// Like the full encoder: pre-sized, encoded in place behind a
    /// reserved header, length and checksum back-patched.
    pub fn to_bytes(&self) -> Vec<u8> {
        let lists = self.member_lists();
        let mut head = CountEnc::new();
        self.enc_head(&mut head, &lists);
        let chunks: usize = self.new_chunks.iter().map(|(_, b)| 16 + b.len()).sum();
        let mut out: Vec<u8> = Vec::with_capacity(IMAGE_HEADER_LEN + head.count() + chunks);
        enc_header_placeholder(&mut out);
        self.enc_head(&mut out, &lists);
        for (r, b) in &self.new_chunks {
            out.u64(r.hash);
            out.bytes(b);
        }
        backpatch_header(&mut out);
        out
    }

    /// Byte range of every inline chunk's content within
    /// [`DeltaImage::to_bytes`] output, in `new_chunks` order — the
    /// wire-fuzz suite aims checksum-repaired mutations at these
    /// boundaries.
    pub fn chunk_byte_ranges(&self) -> Vec<Range<usize>> {
        let mut head = CountEnc::new();
        self.enc_head(&mut head, &self.member_lists());
        let mut at = IMAGE_HEADER_LEN + head.count();
        self.new_chunks
            .iter()
            .map(|(_, b)| {
                // Each entry is `u64 hash` + length-prefixed bytes.
                at += 8 + 8;
                let r = at..at + b.len();
                at += b.len();
                r
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

    /// Decodes a delta from an authenticated payload (kind byte
    /// included). Chunk contents are re-hashed here: a chunk whose bytes
    /// disagree with its declared address is rejected before it can
    /// poison the dedup pool.
    pub(crate) fn dec_payload(payload: &[u8]) -> Result<DeltaImage, ImageError> {
        let mut d = Dec::new(payload);
        if d.u8("image kind")? != IMAGE_KIND_DELTA {
            return Err(ImageError::Malformed("image kind"));
        }
        let generation = d.u64("generation")?;
        let parent_generation = d.u64("parent generation")?;
        let parent_checksum = d.u64("parent checksum")?;
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
        let mut lists = MemberIntern::new(n_ranks);
        lists.dec_table(&mut d)?;
        let cut = dec_cut(&mut d, &mut lists)?;
        let in_flight_ref = ChunkRef {
            hash: d.u64("in-flight chunk hash")?,
            len: d.u64("in-flight chunk len")?,
        };
        let n_vol = d.seq_len("volatile count")?;
        if n_vol != n_ranks {
            return Err(ImageError::Malformed("volatile count vs n_ranks"));
        }
        let mut volatile = Vec::with_capacity(n_vol);
        for _ in 0..n_vol {
            let state = match d.u8("capture state")? {
                s @ 0..=6 => RankState::from_u8(s),
                _ => return Err(ImageError::Malformed("capture state")),
            };
            let clock = dec_vtime(&mut d, "capture clock")?;
            let pending_barrier = match d.u8("pending-barrier tag")? {
                0 => None,
                1 => Some((
                    d.u64("pending-barrier vcomm")?,
                    d.u64("pending-barrier ordinal")?,
                )),
                _ => return Err(ImageError::Malformed("pending-barrier tag")),
            };
            volatile.push(VolatileRecord {
                state,
                clock,
                pending_barrier,
                p2p_sent: d.u64("p2p sent")?,
                p2p_delivered: d.u64("p2p delivered")?,
            });
        }
        let n_refs = d.seq_len("rank-ref count")?;
        if n_refs != n_ranks {
            return Err(ImageError::Malformed("rank-ref count vs n_ranks"));
        }
        let mut rank_refs = Vec::with_capacity(n_refs);
        for _ in 0..n_refs {
            rank_refs.push(ChunkRef {
                hash: d.u64("rank chunk hash")?,
                len: d.u64("rank chunk len")?,
            });
        }
        let n_chunks = d.seq_len("new-chunk count")?;
        let mut new_chunks = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            let hash = d.u64("chunk hash")?;
            let bytes = d.bytes("chunk bytes")?.to_vec();
            if fnv1a64(&bytes) != hash {
                return Err(ImageError::DeltaChain("chunk content hash mismatch"));
            }
            new_chunks.push((
                ChunkRef {
                    hash,
                    len: bytes.len() as u64,
                },
                bytes,
            ));
        }
        if !d.finished() {
            return Err(ImageError::Malformed("trailing bytes"));
        }
        if n_ranks == 0 || origin.ranks_per_node == 0 {
            return Err(ImageError::Malformed("world shape"));
        }
        Ok(DeltaImage {
            generation,
            parent_generation,
            parent_checksum,
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
            lists: lists.table().cloned().collect(),
            cut,
            in_flight_ref,
            volatile,
            rank_refs,
            new_chunks,
        })
    }
}
