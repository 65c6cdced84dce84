//! The checkpoint image: everything captured at a safe state, in
//! restart-stable terms, plus the evidence the safe-cut oracle consumes.
//!
//! The image is the unit of the system (as in MANA and the DMTCP proxy
//! line of work): it is a first-class, serializable artifact. An image can
//! be written to disk with [`Checkpoint::save_to`], read back in a
//! different process with [`Checkpoint::load_from`], and restored onto a
//! differently-packed set of nodes with
//! [`crate::restore_ckpt_world`]. The wire format carries a versioned
//! header and an FNV-1a integrity checksum; a flipped bit or a truncated
//! file is rejected with a typed [`ImageError`] instead of producing a
//! silently-wrong restore.

use crate::wire::{fnv1a64, CountEnc, Dec, DecodeError, Fnv1a, SliceEnc, Wr};
use mana_core::capture::PendingRecv;
use mana_core::{
    verify_safe_cut, CallCounters, CommOp, CommOpRecord, Cut, CutRun, Ggid, Protocol, RankState,
    RuntimeCapture, SeqTable, VComm, Violation,
};
use mpisim::types::CommId;
use mpisim::{SavedMsg, SrcSel, TagSel, VTime};
use netmodel::NetParams;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every serialized image.
pub const IMAGE_MAGIC: [u8; 8] = *b"MANACKPT";

/// Current image wire-format version. Version 2 added the per-generation
/// p2p flow counts (`p2p_sent`/`p2p_delivered`) to every rank capture —
/// the drain-accounting evidence the coordinator cross-checks at capture.
/// Version 3 compacted group member lists to a tagged form: a contiguous
/// ascending run (the world group, every identity subrange) is written as
/// `(start, len)` instead of one word per member, which keeps image size
/// O(ranks) instead of O(ranks²) — at 65 536 ranks the explicit form
/// would cost ~0.5 MiB *per rank* for the world list alone.
/// Version 4 opens the payload with a kind byte — [`IMAGE_KIND_FULL`] for
/// a self-contained image, [`IMAGE_KIND_DELTA`] for an incremental image
/// that references a parent generation — and regroups each rank section
/// into a volatile half (state, clock, barrier, flow counts) followed by
/// the restart-stable half that delta images dedup by content hash.
/// Version 5 writes every distinct non-contiguous member list **once**, in
/// a per-image member-list table ahead of the rank sections, and every
/// reference to it (`seq_table` entries, `vcomm_members`, cut events) as
/// an 8-byte content id — FNV-1a over the list's wire form, re-hashed by
/// the decoder. Version 4 repeated the full list at each reference, which
/// was 98 % of a 1024-rank image with split communicators; image size and
/// every pass over an image are now O(references + distinct-list bytes).
/// Version 6 writes the cut as what it is — for every rank and group, the
/// run of sequence numbers the rank executed ([`mana_core::CutRun`]: rank,
/// ggid, first, last, member-list reference) — where version 5 wrote one
/// event per collective participation since the program started, four
/// fifths of an image and growing with the run. Each rank section now
/// opens with the byte length of its restart-stable half, so a delta
/// chain slices its root's chunks out of the stored bytes instead of
/// decoding and re-encoding the root ([`crate::store::TieredStore::load`]).
pub const IMAGE_VERSION: u32 = 6;

/// Payload kind byte of a self-contained (full) image.
pub const IMAGE_KIND_FULL: u8 = 0;

/// Payload kind byte of an incremental (delta) image; see
/// [`crate::store::DeltaImage`].
pub const IMAGE_KIND_DELTA: u8 = 1;

/// Byte offset of the header's `u32` format-version word.
pub const IMAGE_VERSION_OFFSET: usize = IMAGE_MAGIC.len();

/// Byte offset of the header's `u64` payload-length word.
pub const IMAGE_LEN_OFFSET: usize = IMAGE_VERSION_OFFSET + 4;

/// Byte offset of the header's `u64` FNV-1a payload-checksum word.
pub const IMAGE_CHECKSUM_OFFSET: usize = IMAGE_LEN_OFFSET + 8;

/// Total header length; the checksummed payload starts here.
pub const IMAGE_HEADER_LEN: usize = IMAGE_CHECKSUM_OFFSET + 8;

/// Why a serialized image was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The buffer does not start with [`IMAGE_MAGIC`] — not an image.
    BadMagic,
    /// The image was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The buffer is shorter than its header claims.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload checksum does not match — the image was corrupted.
    ChecksumMismatch,
    /// The payload decoded inconsistently; names the field that failed.
    Malformed(&'static str),
    /// A delta image references a parent generation that is not available
    /// — a truncated or mis-retained chain.
    DanglingParent {
        /// Generation of the delta that made the reference.
        generation: u64,
        /// The missing parent generation.
        parent: u64,
    },
    /// A delta chain could not be resolved back to a full image; names the
    /// link that failed.
    DeltaChain(&'static str),
    /// Reading or writing the image file failed; carries the path and the
    /// underlying OS error so the caller can tell *which* file broke.
    Io {
        /// Path of the file that failed.
        path: String,
        /// The underlying I/O error, rendered.
        source: String,
    },
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::BadMagic => write!(f, "not a checkpoint image (bad magic)"),
            ImageError::UnsupportedVersion(v) => {
                write!(f, "unsupported image format version {v}")
            }
            ImageError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated image: header promises {expected} bytes, got {got}"
                )
            }
            ImageError::ChecksumMismatch => write!(f, "image checksum mismatch (corrupted)"),
            ImageError::Malformed(what) => write!(f, "malformed image: bad {what}"),
            ImageError::DanglingParent { generation, parent } => write!(
                f,
                "delta generation {generation} references missing parent generation {parent}"
            ),
            ImageError::DeltaChain(what) => {
                write!(f, "delta chain could not be resolved: {what}")
            }
            ImageError::Io { path, source } => {
                write!(f, "image I/O failed for {path}: {source}")
            }
        }
    }
}

impl std::error::Error for ImageError {}

impl From<DecodeError> for ImageError {
    fn from(what: DecodeError) -> Self {
        ImageError::Malformed(what)
    }
}

/// The world the image was captured from: enough to rebuild an equivalent
/// replay world and to know the packing it ran under. Restoring may choose
/// a *different* `ranks_per_node` — the captured group data is
/// topology-independent — and only the modeled timing changes.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureOrigin {
    /// Ranks per node of the captured run.
    pub ranks_per_node: usize,
    /// Network cost parameters of the captured run.
    pub params: NetParams,
}

/// One drained in-flight message. The restart-stable part is `saved`
/// (virtualized communicator id, payload, channel sequence); `arrival` is
/// kept only so the checkpoint-and-continue path can re-deposit with the
/// original timing.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainedMsg {
    /// The message in restart-stable form.
    pub saved: SavedMsg,
    /// Original arrival virtual time (continue-path fidelity only).
    pub arrival: VTime,
}

/// A captured checkpoint: per-rank runtime state, drained in-flight
/// messages, and the cut evidence for the safe-cut verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Lower-half generation the image was captured from.
    pub epoch: u64,
    /// Number of ranks.
    pub n_ranks: usize,
    /// Coordination protocol the image was captured under.
    pub protocol: Protocol,
    /// The topology and network the capture ran under (restore replays the
    /// pre-cut prefix against an equivalent world, then may re-pack).
    pub origin: CaptureOrigin,
    /// Minimum published virtual clock when the request was issued; the
    /// gap to [`Checkpoint::capture_clock`] is the virtual drain latency
    /// (the paper's Figure 7 measurement).
    pub request_clock: VTime,
    /// Algorithm 1's initial targets (global max of snapshotted `SEQ[]`).
    /// Empty under 2PC, which computes no targets.
    pub initial_targets: HashMap<Ggid, u64>,
    /// Initial targets merged with every overshoot raise: the targets the
    /// drain actually ran to.
    pub final_targets: HashMap<Ggid, u64>,
    /// `max SEQ[g]` over ranks at capture, for every group ever registered.
    /// On every targeted group this must equal `final_targets[g]`.
    pub achieved: HashMap<Ggid, u64>,
    /// Per-rank runtime captures, indexed by rank.
    pub captures: Vec<RuntimeCapture>,
    /// Drained in-flight point-to-point messages, sorted per channel.
    pub in_flight: Vec<DrainedMsg>,
    /// The cut: what every rank had executed on every group at capture,
    /// as the execution log recorded it.
    pub cut_events: Cut,
    /// Virtual seconds charged for writing the image set to storage
    /// (zero when the session has no storage model).
    pub io_write_secs: f64,
    /// Virtual seconds charged for reading the image set back (restart
    /// resumes only; zero for checkpoint-and-continue).
    pub io_read_secs: f64,
}

impl Checkpoint {
    /// Runs the independent safe-cut oracle (paper §4.2.2) over the cut:
    /// every visited node fully visited, nothing beyond the achieved
    /// per-group maxima, no per-rank sequence gaps.
    pub fn verify(&self) -> Result<(), Vec<Violation>> {
        verify_safe_cut(&self.cut_events, Some(&self.achieved))
    }

    /// Checks that the drain ran exactly to its targets: for every group
    /// with a final target, the achieved sequence equals the target.
    pub fn targets_exactly_reached(&self) -> bool {
        self.final_targets
            .iter()
            .all(|(g, &t)| self.achieved.get(g).copied().unwrap_or(0) == t)
    }

    /// Total payload bytes of drained in-flight messages.
    pub fn in_flight_bytes(&self) -> usize {
        self.in_flight.iter().map(|m| m.saved.payload.len()).sum()
    }

    /// Virtual time at capture: the max of per-rank capture clocks.
    pub fn capture_clock(&self) -> VTime {
        VTime::max_of(self.captures.iter().map(|c| c.clock))
    }

    /// Virtual drain latency in seconds: request to capture.
    pub fn drain_latency_secs(&self) -> f64 {
        (self.capture_clock().as_secs() - self.request_clock.as_secs()).max(0.0)
    }

    /// The per-rank state a restart resume must re-install from this image
    /// (the coordinator threads it back through the control plane):
    /// `(pending trivial barrier, call counters)`.
    pub fn rank_restore_state(&self, rank: usize) -> (Option<(u64, u64)>, CallCounters) {
        let c = &self.captures[rank];
        (c.pending_barrier, c.counters)
    }

    // ------------------------------------------------------------------
    // Serialization
    // ------------------------------------------------------------------

    /// Every group member-list reference the image holds — each
    /// `seq_table` entry, each `vcomm_members` value, each cut run. In a
    /// live or a decoded image all references to one list are one
    /// allocation; the wire tests check exactly that.
    pub fn member_list_refs(&self) -> impl Iterator<Item = &Arc<[usize]>> {
        let captured = self.captures.iter().flat_map(capture_member_refs);
        captured.chain(self.cut_events.runs().iter().map(|r| &r.members))
    }

    /// The encode-side table and reference cache: every list the image
    /// references, each shared allocation hashed once.
    fn member_lists(&self) -> MemberIntern {
        let mut lists = MemberIntern::new(self.n_ranks);
        for m in self.member_list_refs() {
            lists.note(m);
        }
        lists
    }

    /// Payload fields that precede the member-list table.
    fn enc_preamble<W: Wr>(&self, p: &mut W) {
        p.u8(IMAGE_KIND_FULL);
        p.u64(self.epoch);
        p.usize(self.n_ranks);
        p.u8(protocol_code(self.protocol));
        p.usize(self.origin.ranks_per_node);
        enc_params(p, &self.origin.params);
        p.f64(self.request_clock.as_secs());
        enc_target_map(p, &self.initial_targets);
        enc_target_map(p, &self.final_targets);
        enc_target_map(p, &self.achieved);
    }

    /// Payload fields that precede the per-rank capture sections, up to and
    /// including the member-list table and the capture count. Shared by
    /// the counting pass (exact pre-sizing) and the write pass, so the two
    /// can never disagree.
    fn enc_payload_prefix<W: Wr>(&self, p: &mut W, lists: &MemberIntern) {
        self.enc_preamble(p);
        lists.enc_table(p);
        p.usize(self.captures.len());
    }

    /// Payload fields that follow the per-rank capture sections.
    fn enc_payload_suffix<W: Wr>(&self, p: &mut W, lists: &MemberIntern) {
        p.usize(self.in_flight.len());
        for m in &self.in_flight {
            enc_drained(p, m);
        }
        enc_cut(p, lists, &self.cut_events);
        p.f64(self.io_write_secs);
        p.f64(self.io_read_secs);
    }

    /// Encoded lengths of the prefix, of every capture section, and of the
    /// suffix — the same encode code run through a byte counter.
    fn layout(&self, lists: &MemberIntern) -> (usize, Vec<SectionLen>, usize) {
        let mut prefix = CountEnc::new();
        self.enc_payload_prefix(&mut prefix, lists);
        let mut suffix = CountEnc::new();
        self.enc_payload_suffix(&mut suffix, lists);
        let sections = self
            .captures
            .iter()
            .map(|c| capture_section_len(lists, c))
            .collect();
        (prefix.count(), sections, suffix.count())
    }

    /// Serializes the image: an 8-byte magic, a `u32` format version, a
    /// `u64` payload length, a `u64` FNV-1a payload checksum, then the
    /// payload. Deterministic: the same image always yields the same bytes
    /// (maps are written sorted by key, the member-list table sorted by
    /// content id), whether equal member lists share one allocation or
    /// not.
    ///
    /// Zero-copy: the header is reserved up front, sections are encoded in
    /// place behind it, and length+checksum are backpatched — no temporary
    /// payload buffer. Equivalent to `to_bytes_parallel(1)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_parallel(1)
    }

    /// Like [`Checkpoint::to_bytes`], but encodes the per-rank capture
    /// sections on up to `workers` threads.
    ///
    /// Every section's size is computed exactly by running the same encode
    /// code through a byte counter, so each worker writes into a disjoint
    /// pre-sized window of the final buffer. Section contents are
    /// position-independent, which makes the output byte-for-byte identical
    /// to the serial encoder for any worker count.
    pub fn to_bytes_parallel(&self, workers: usize) -> Vec<u8> {
        let lists = self.member_lists();
        let (prefix_len, section_lens, suffix_len) = self.layout(&lists);
        let sections_total: usize = section_lens.iter().map(|l| l.section).sum();
        let total = IMAGE_HEADER_LEN + prefix_len + sections_total + suffix_len;

        let mut out: Vec<u8> = Vec::with_capacity(total);
        enc_header_placeholder(&mut out);
        self.enc_payload_prefix(&mut out, &lists);
        let cap_start = out.len();
        out.resize(cap_start + sections_total, 0);
        encode_capture_sections(
            workers,
            &lists,
            &self.captures,
            &section_lens,
            &mut out[cap_start..cap_start + sections_total],
        );
        self.enc_payload_suffix(&mut out, &lists);
        debug_assert_eq!(out.len(), total, "pre-sized encode drifted");
        backpatch_header(&mut out);
        out
    }

    /// Byte range of every rank's capture section within the serialized
    /// image, in rank order. The layout is `[header][prefix][capture
    /// sections…][suffix]`, the member-list table being part of the
    /// prefix; fuzzers use this to aim mutations at section boundaries.
    pub fn capture_section_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let (prefix_len, section_lens, _) = self.layout(&self.member_lists());
        let mut at = IMAGE_HEADER_LEN + prefix_len;
        section_lens
            .into_iter()
            .map(|len| {
                let r = at..at + len.section;
                at += len.section;
                r
            })
            .collect()
    }

    /// Byte range of the member-list table within the serialized image
    /// (its count word included) — the wire-fuzz suite aims
    /// checksum-repaired mutations at it.
    pub fn member_table_range(&self) -> std::ops::Range<usize> {
        let mut preamble = CountEnc::new();
        self.enc_preamble(&mut preamble);
        let start = IMAGE_HEADER_LEN + preamble.count();
        start..start + self.member_lists().table_len()
    }

    /// Parses a serialized image, validating magic, version, length, and
    /// checksum before touching the payload. Only accepts a *full* image;
    /// a delta payload is rejected with [`ImageError::DeltaChain`] — it
    /// must be resolved through its store and parent chain
    /// ([`crate::store::TieredStore::load`]).
    pub fn from_bytes(buf: &[u8]) -> Result<Checkpoint, ImageError> {
        let (payload, _checksum) = validate_image_header(buf)?;
        Checkpoint::dec_payload(payload)
    }

    /// Decodes a full image from an authenticated payload (kind byte
    /// included).
    pub(crate) fn dec_payload(payload: &[u8]) -> Result<Checkpoint, ImageError> {
        let mut d = Dec::new(payload);
        let (mut ckpt, mut lists) = Checkpoint::dec_payload_prefix(&mut d)?;
        for _ in 0..ckpt.n_ranks {
            ckpt.captures.push(dec_capture(&mut d, &mut lists)?);
        }
        ckpt.in_flight = dec_in_flight(&mut d)?;
        (ckpt.cut_events, ckpt.io_write_secs, ckpt.io_read_secs) =
            dec_payload_suffix(&mut d, &mut lists)?;
        validate_shape(&ckpt)?;
        Ok(ckpt)
    }

    /// The chunks a full image contributes to a delta chain — every
    /// rank's restart-stable half in rank order, then the in-flight set —
    /// as spans of its authenticated `payload`, and its world size. The
    /// spans hold the bytes [`crate::store::delta::full_image_refs`]
    /// hashes; nothing inside them is decoded, everything around them is,
    /// to the payload's last byte, so a span can only be what the encoder
    /// wrote there.
    pub(crate) fn payload_chunks(payload: &[u8]) -> Result<(usize, Vec<&[u8]>), ImageError> {
        let mut d = Dec::new(payload);
        let (ckpt, mut lists) = Checkpoint::dec_payload_prefix(&mut d)?;
        let mut chunks = Vec::with_capacity(ckpt.n_ranks + 1);
        for rank in 0..ckpt.n_ranks {
            let (v, stable) = dec_capture_volatile(&mut d)?;
            if v.rank != rank {
                return Err(ImageError::Malformed("capture rank vs position"));
            }
            chunks.push(stable);
        }
        let at = payload.len() - d.remaining();
        dec_in_flight(&mut d)?;
        chunks.push(&payload[at..payload.len() - d.remaining()]);
        dec_payload_suffix(&mut d, &mut lists)?;
        Ok((ckpt.n_ranks, chunks))
    }

    /// Reads what [`Checkpoint::enc_payload_prefix`] wrote: an image with
    /// no captures yet, and its member-list table.
    fn dec_payload_prefix(d: &mut Dec) -> Result<(Checkpoint, MemberIntern), ImageError> {
        match d.u8("image kind")? {
            IMAGE_KIND_FULL => {}
            IMAGE_KIND_DELTA => {
                return Err(ImageError::DeltaChain(
                    "standalone decode of a delta image; resolve it through its parent chain",
                ))
            }
            _ => return Err(ImageError::Malformed("image kind")),
        }
        let epoch = d.u64("epoch")?;
        let n_ranks = d.usize("n_ranks")?;
        let protocol = protocol_from_code(d.u8("protocol")?)?;
        let origin = CaptureOrigin {
            ranks_per_node: d.usize("ranks_per_node")?,
            params: dec_params(d)?,
        };
        let request_clock = dec_vtime(d, "request clock")?;
        let initial_targets = dec_target_map(d, "initial targets")?;
        let final_targets = dec_target_map(d, "final targets")?;
        let achieved = dec_target_map(d, "achieved map")?;
        let mut lists = MemberIntern::new(n_ranks);
        lists.dec_table(d)?;
        let n_caps = d.seq_len("capture count")?;
        if n_caps != n_ranks {
            return Err(ImageError::Malformed("capture count vs n_ranks"));
        }
        let ckpt = Checkpoint {
            epoch,
            n_ranks,
            protocol,
            origin,
            request_clock,
            initial_targets,
            final_targets,
            achieved,
            captures: Vec::with_capacity(n_caps),
            in_flight: Vec::new(),
            cut_events: Cut::default(),
            io_write_secs: 0.0,
            io_read_secs: 0.0,
        };
        Ok((ckpt, lists))
    }

    /// Writes the serialized image to `path`; returns the byte count. An
    /// I/O failure reports the offending path, not just the OS error.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<usize, ImageError> {
        let bytes = self.to_bytes();
        std::fs::write(path.as_ref(), &bytes).map_err(|e| ImageError::Io {
            path: path.as_ref().display().to_string(),
            source: e.to_string(),
        })?;
        Ok(bytes.len())
    }

    /// Reads and parses an image from `path`. An I/O failure reports the
    /// offending path, not just the OS error.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Checkpoint, ImageError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| ImageError::Io {
            path: path.as_ref().display().to_string(),
            source: e.to_string(),
        })?;
        Checkpoint::from_bytes(&bytes)
    }

    /// Size of the serialized runtime state in bytes, computed by a
    /// counting pass — nothing is encoded.
    pub fn serialized_len(&self) -> usize {
        let (prefix_len, section_lens, suffix_len) = self.layout(&self.member_lists());
        let sections: usize = section_lens.iter().map(|l| l.section).sum();
        IMAGE_HEADER_LEN + prefix_len + sections + suffix_len
    }
}

/// Opens `out` with the fixed image header, length and checksum zeroed
/// until [`backpatch_header`] fills them in.
pub(crate) fn enc_header_placeholder(out: &mut Vec<u8>) {
    out.raw(&IMAGE_MAGIC);
    out.u32(IMAGE_VERSION);
    out.usize(0);
    out.u64(0);
}

/// Writes the payload length and its FNV-1a checksum into the header of a
/// fully-assembled image, in place — no second copy of the payload.
pub(crate) fn backpatch_header(out: &mut [u8]) {
    let payload = &out[IMAGE_HEADER_LEN..];
    let (len, sum) = (payload.len() as u64, fnv1a64(payload));
    out[IMAGE_LEN_OFFSET..IMAGE_LEN_OFFSET + 8].copy_from_slice(&len.to_le_bytes());
    out[IMAGE_CHECKSUM_OFFSET..IMAGE_CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Validates the fixed image header — magic, version, length, trailing
/// bytes, FNV-1a checksum — and returns the authenticated payload slice
/// plus the header's checksum word (delta chains use it as the parent
/// fingerprint). Shared by full-image and delta-image decoding.
pub(crate) fn validate_image_header(buf: &[u8]) -> Result<(&[u8], u64), ImageError> {
    const HEADER: usize = IMAGE_HEADER_LEN;
    if buf.len() < HEADER {
        if !buf.starts_with(&IMAGE_MAGIC[..buf.len().min(8)]) {
            return Err(ImageError::BadMagic);
        }
        return Err(ImageError::Truncated {
            expected: HEADER,
            got: buf.len(),
        });
    }
    if buf[..8] != IMAGE_MAGIC {
        return Err(ImageError::BadMagic);
    }
    let mut h = Dec::new(&buf[8..HEADER]);
    let version = h.u32("version").expect("sized above");
    if version != IMAGE_VERSION {
        return Err(ImageError::UnsupportedVersion(version));
    }
    let payload_len = h.usize("payload length").expect("sized above");
    let checksum = h.u64("checksum").expect("sized above");
    // Checked arithmetic: a corrupted length near `usize::MAX` must
    // not wrap past the bounds check and panic in the slice below.
    let total = HEADER
        .checked_add(payload_len)
        .ok_or(ImageError::Malformed("payload length"))?;
    if buf.len() < total {
        return Err(ImageError::Truncated {
            expected: total,
            got: buf.len(),
        });
    }
    if buf.len() > total {
        // Appended junk is corruption too: the image must account for
        // every byte, or a concatenation/truncation bug upstream
        // would round-trip undetected.
        return Err(ImageError::Malformed("trailing bytes"));
    }
    let payload = &buf[HEADER..total];
    if fnv1a64(payload) != checksum {
        return Err(ImageError::ChecksumMismatch);
    }
    Ok((payload, checksum))
}

/// The checksum word of an already-serialized image's header. The caller
/// must have produced or validated `buf`; this only reads the field.
pub(crate) fn header_checksum(buf: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&buf[IMAGE_CHECKSUM_OFFSET..IMAGE_CHECKSUM_OFFSET + 8]);
    u64::from_le_bytes(w)
}

/// Range validation shared by full-image decode and delta-chain
/// resolution: the checksum authenticates accidental corruption, not a
/// hand-edited file, and every rank index in the image is later used to
/// address per-rank control state. Reject out-of-range indices here so a
/// tampered image fails with a typed error instead of an out-of-bounds
/// panic mid-restore.
pub(crate) fn validate_shape(c: &Checkpoint) -> Result<(), ImageError> {
    if c.n_ranks == 0 || c.origin.ranks_per_node == 0 {
        return Err(ImageError::Malformed("world shape"));
    }
    if c.captures.len() != c.n_ranks {
        return Err(ImageError::Malformed("capture count vs n_ranks"));
    }
    for (i, cap) in c.captures.iter().enumerate() {
        if cap.rank != i {
            return Err(ImageError::Malformed("capture rank vs position"));
        }
    }
    for m in &c.in_flight {
        if m.saved.src_world >= c.n_ranks || m.saved.dst_world >= c.n_ranks {
            return Err(ImageError::Malformed("in-flight message endpoint"));
        }
    }
    // Each distinct member-list allocation is walked once, not once per
    // run that shares it.
    let mut checked: HashSet<usize> = HashSet::new();
    for r in c.cut_events.runs() {
        if r.rank >= c.n_ranks
            || (checked.insert(alloc_addr(&r.members)) && r.members.iter().any(|&m| m >= c.n_ranks))
        {
            return Err(ImageError::Malformed("cut-run rank"));
        }
    }
    Ok(())
}

/// Exact encoded size of one rank's capture section, and of the
/// restart-stable half that closes it (the section's first word).
#[derive(Debug, Clone, Copy)]
struct SectionLen {
    section: usize,
    stable: usize,
}

fn capture_section_len(lists: &MemberIntern, c: &RuntimeCapture) -> SectionLen {
    let mut n = CountEnc::new();
    enc_capture_stable(&mut n, lists, c);
    let stable = n.count();
    enc_capture_volatile(&mut n, c, stable);
    SectionLen {
        section: n.count(),
        stable,
    }
}

fn encode_one_section(lists: &MemberIntern, c: &RuntimeCapture, len: SectionLen, buf: &mut [u8]) {
    let mut w = SliceEnc::new(buf);
    enc_capture_volatile(&mut w, c, len.stable);
    enc_capture_stable(&mut w, lists, c);
    w.finish();
}

/// Encodes each capture into its disjoint pre-sized window of `buf`,
/// fanning contiguous batches of sections out across up to `workers`
/// scoped threads.
fn encode_capture_sections(
    workers: usize,
    lists: &MemberIntern,
    captures: &[RuntimeCapture],
    section_lens: &[SectionLen],
    buf: &mut [u8],
) {
    debug_assert_eq!(captures.len(), section_lens.len());
    let mut sections: Vec<(usize, &mut [u8])> = Vec::with_capacity(captures.len());
    let mut rest = buf;
    for (i, len) in section_lens.iter().enumerate() {
        let (head, tail) = rest.split_at_mut(len.section);
        sections.push((i, head));
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "section lengths must cover the buffer");

    let workers = workers.clamp(1, captures.len().max(1));
    if workers <= 1 {
        for (i, s) in sections {
            encode_one_section(lists, &captures[i], section_lens[i], s);
        }
        return;
    }
    let chunk = sections.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let mut remaining = sections;
        while !remaining.is_empty() {
            let tail = remaining.split_off(chunk.min(remaining.len()));
            let batch = std::mem::replace(&mut remaining, tail);
            scope.spawn(move || {
                for (i, s) in batch {
                    encode_one_section(lists, &captures[i], section_lens[i], s);
                }
            });
        }
    });
}

// ----------------------------------------------------------------------
// Field codecs
// ----------------------------------------------------------------------

pub(crate) fn protocol_code(p: Protocol) -> u8 {
    match p {
        Protocol::Native => 0,
        Protocol::Cc => 1,
        Protocol::TwoPhase => 2,
    }
}

pub(crate) fn protocol_from_code(c: u8) -> Result<Protocol, ImageError> {
    match c {
        0 => Ok(Protocol::Native),
        1 => Ok(Protocol::Cc),
        2 => Ok(Protocol::TwoPhase),
        _ => Err(ImageError::Malformed("protocol code")),
    }
}

pub(crate) fn enc_params<W: Wr>(e: &mut W, p: &NetParams) {
    e.f64(p.alpha_intra);
    e.f64(p.alpha_inter);
    e.f64(p.beta_intra);
    e.f64(p.beta_inter);
    e.f64(p.gamma_reduce);
    e.f64(p.send_overhead);
    e.f64(p.jitter_sigma);
    e.f64(p.wrapper_overhead);
    e.f64(p.poll_overhead);
    e.u64(p.jitter_seed);
}

pub(crate) fn dec_params(d: &mut Dec) -> Result<NetParams, ImageError> {
    Ok(NetParams {
        alpha_intra: d.f64("alpha_intra")?,
        alpha_inter: d.f64("alpha_inter")?,
        beta_intra: d.f64("beta_intra")?,
        beta_inter: d.f64("beta_inter")?,
        gamma_reduce: d.f64("gamma_reduce")?,
        send_overhead: d.f64("send_overhead")?,
        jitter_sigma: d.f64("jitter_sigma")?,
        wrapper_overhead: d.f64("wrapper_overhead")?,
        poll_overhead: d.f64("poll_overhead")?,
        jitter_seed: d.u64("jitter_seed")?,
    })
}

pub(crate) fn dec_vtime(d: &mut Dec, what: DecodeError) -> Result<VTime, ImageError> {
    let s = d.f64(what)?;
    if !s.is_finite() || s < 0.0 {
        return Err(ImageError::Malformed(what));
    }
    Ok(VTime::from_secs(s))
}

pub(crate) fn enc_target_map<W: Wr>(e: &mut W, m: &HashMap<Ggid, u64>) {
    let mut entries: Vec<(u64, u64)> = m.iter().map(|(g, v)| (g.0, *v)).collect();
    entries.sort_unstable();
    e.usize(entries.len());
    for (g, v) in entries {
        e.u64(g);
        e.u64(v);
    }
}

pub(crate) fn dec_target_map(
    d: &mut Dec,
    what: DecodeError,
) -> Result<HashMap<Ggid, u64>, ImageError> {
    let n = d.seq_len(what)?;
    let mut m = HashMap::with_capacity(n);
    for _ in 0..n {
        m.insert(Ggid(d.u64(what)?), d.u64(what)?);
    }
    Ok(m)
}

fn enc_usize_list<W: Wr>(e: &mut W, v: &[usize]) {
    e.usize(v.len());
    for &x in v {
        e.usize(x);
    }
}

fn dec_usize_list(d: &mut Dec, what: DecodeError) -> Result<Vec<usize>, ImageError> {
    let n = d.seq_len(what)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.usize(what)?);
    }
    Ok(v)
}

/// Upper bound on the length of a range-form member list. A table entry
/// is implicitly bounded by the buffer (one word per member), but a range
/// is two words regardless of length — without a cap, a corrupted image
/// could demand an arbitrarily large allocation before any member is
/// validated. 2^24 ranks is two orders of magnitude past the largest
/// supported world.
const MAX_RANGE_MEMBERS: usize = 1 << 24;

/// How one reference to a group member list is written. A function of the
/// list's content alone — never of which allocation holds it, or of what
/// else the image contains — so a stable chunk re-encoded at chain
/// resolution reproduces the bytes its descendants hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemberRef {
    /// A contiguous ascending run (the world group, every identity
    /// subrange): tag `1`, then `(start, len)`.
    Range { start: usize, len: usize },
    /// Any other list — strided, or in group order — by content id into
    /// the image's member-list table: tag `0`, then the id. The id is
    /// FNV-1a over the list's wire form (length word, then members); the
    /// same FNV-64 trust the chunk store places in [`crate::ChunkRef`].
    Listed(u64),
}

impl MemberRef {
    /// Order matters (member lists are in group order), so only an exactly
    /// ascending run may take the range form.
    fn of(v: &[usize]) -> MemberRef {
        if !v.is_empty() && v.windows(2).all(|w| w[1] == w[0].wrapping_add(1)) {
            return MemberRef::Range {
                start: v[0],
                len: v.len(),
            };
        }
        let mut h = Fnv1a::new();
        h.update(&(v.len() as u64).to_le_bytes());
        for &m in v {
            h.update(&(m as u64).to_le_bytes());
        }
        MemberRef::Listed(h.digest())
    }
}

/// Every member-list reference the restart-stable half of `c` holds.
fn capture_member_refs(c: &RuntimeCapture) -> impl Iterator<Item = &Arc<[usize]>> {
    let seq = c.seq_table.iter().map(|(_, entry)| &entry.members);
    seq.chain(c.vcomm_members.values())
}

/// Address of a member-list allocation: the identity the encode-side
/// cache and the shape check dedup by. Only meaningful while the
/// allocation is alive.
fn alloc_addr(m: &Arc<[usize]>) -> usize {
    Arc::as_ptr(m) as *const usize as usize
}

/// The member lists of one image, interned by content: range-form lists
/// by `(start, len)`, every other list by content id — the image's
/// member-list table.
///
/// Decoding resolves each reference through it, so all references to one
/// list share one allocation (decode memory stays O(ranks + members) like
/// the live runtime's `Arc<[usize]>` sharing) and every distinct list is
/// range-checked against the world size exactly once. Encoding first
/// [`note`](Self::note)s every allocation the image references — a shared
/// one is scanned and hashed once, however many references share it —
/// and then answers [`reference`](Self::reference) per reference in O(1).
pub(crate) struct MemberIntern {
    n_ranks: usize,
    ranges: HashMap<(usize, usize), Arc<[usize]>>,
    /// The table; `BTreeMap` order is the canonical wire order.
    lists: BTreeMap<u64, Arc<[usize]>>,
    /// Encode-side cache: the verdict on every allocation noted so far,
    /// by address. Holding the allocation keeps the address from being
    /// reused while the cache lives. Never the identity of a list: two
    /// equal lists in separate allocations get the same reference.
    noted: HashMap<usize, (Arc<[usize]>, MemberRef)>,
}

impl MemberIntern {
    /// An empty table for an `n_ranks`-rank image.
    pub(crate) fn new(n_ranks: usize) -> Self {
        MemberIntern {
            n_ranks,
            ranges: HashMap::new(),
            lists: BTreeMap::new(),
            noted: HashMap::new(),
        }
    }

    /// Registers a list an in-memory image references and returns its
    /// reference form; later decodes of that reference hand back this
    /// allocation. `Err` when a *different* list already holds the same
    /// content id.
    pub(crate) fn try_note(&mut self, m: &Arc<[usize]>) -> Result<MemberRef, ImageError> {
        // An allocation nothing else holds has exactly one reference: a
        // cache entry for it would never be hit.
        let shared = Arc::strong_count(m) > 1;
        if shared {
            if let Some((_, r)) = self.noted.get(&alloc_addr(m)) {
                return Ok(*r);
            }
        }
        let r = MemberRef::of(m);
        match r {
            MemberRef::Range { start, len } => {
                self.ranges
                    .entry((start, len))
                    .or_insert_with(|| Arc::clone(m));
            }
            MemberRef::Listed(id) => {
                if self.lists.entry(id).or_insert_with(|| Arc::clone(m)) != m {
                    return Err(ImageError::Malformed("member-list content id collision"));
                }
            }
        }
        if shared {
            self.noted.insert(alloc_addr(m), (Arc::clone(m), r));
        }
        Ok(r)
    }

    /// [`try_note`](Self::try_note) for the encode side, where the lists
    /// are the program's own state, not outside input.
    ///
    /// # Panics
    /// Panics if two different lists of one image share an FNV-64 content
    /// id — the content-address trust model failing, loudly rather than
    /// as an image that decodes to the wrong group.
    pub(crate) fn note(&mut self, m: &Arc<[usize]>) -> MemberRef {
        self.try_note(m)
            .expect("distinct member lists of one image have distinct content ids")
    }

    /// The one allocation every reference to `m`'s content resolves to:
    /// notes `m`, then hands back whichever equal list came first.
    pub(crate) fn shared(
        &mut self,
        m: &Arc<[usize]>,
        what: DecodeError,
    ) -> Result<Arc<[usize]>, ImageError> {
        let r = self.try_note(m)?;
        self.resolve(r, what)
    }

    /// Notes every list the restart-stable half of `c` references.
    pub(crate) fn note_capture(&mut self, c: &RuntimeCapture) {
        for m in capture_member_refs(c) {
            self.note(m);
        }
    }

    /// The reference form of `m`: the cached verdict when the allocation
    /// was noted, computed from the content otherwise.
    fn reference(&self, m: &Arc<[usize]>) -> MemberRef {
        match self.noted.get(&alloc_addr(m)) {
            Some((_, r)) => *r,
            None => MemberRef::of(m),
        }
    }

    /// The table's lists in canonical (content id) order.
    pub(crate) fn table(&self) -> impl Iterator<Item = &Arc<[usize]>> {
        self.lists.values()
    }

    /// Encoded size of the table.
    pub(crate) fn table_len(&self) -> usize {
        let mut n = CountEnc::new();
        self.enc_table(&mut n);
        n.count()
    }

    /// Writes the table: entry count, then `(id, list)` ascending by id.
    pub(crate) fn enc_table<W: Wr>(&self, e: &mut W) {
        e.usize(self.lists.len());
        for (id, m) in &self.lists {
            e.u64(*id);
            enc_usize_list(e, m);
        }
    }

    /// Reads a table written by [`enc_table`](Self::enc_table), checking
    /// what the encoder guarantees: ids strictly ascending (so no id names
    /// two lists), every entry's content hashing to its id and not in
    /// range form, every member inside the world.
    pub(crate) fn dec_table(&mut self, d: &mut Dec) -> Result<(), ImageError> {
        let n = d.seq_len("member table length")?;
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let id = d.u64("member table id")?;
            if prev.is_some_and(|p| id <= p) {
                return Err(ImageError::Malformed("member table order"));
            }
            prev = Some(id);
            let list = dec_usize_list(d, "member table entry")?;
            if MemberRef::of(&list) != MemberRef::Listed(id) {
                return Err(ImageError::Malformed("member table entry vs its id"));
            }
            if list.iter().any(|&r| r >= self.n_ranks) {
                return Err(ImageError::Malformed("member table entry rank"));
            }
            self.lists.insert(id, list.into());
        }
        Ok(())
    }

    /// Resolves a decoded reference to its shared list.
    fn resolve(&mut self, r: MemberRef, what: DecodeError) -> Result<Arc<[usize]>, ImageError> {
        match r {
            MemberRef::Range { start, len } => {
                if len == 0
                    || len > MAX_RANGE_MEMBERS
                    || start.checked_add(len).is_none_or(|end| end > self.n_ranks)
                {
                    return Err(ImageError::Malformed(what));
                }
                Ok(Arc::clone(
                    self.ranges
                        .entry((start, len))
                        .or_insert_with(|| (start..start + len).collect()),
                ))
            }
            MemberRef::Listed(id) => self
                .lists
                .get(&id)
                .cloned()
                .ok_or(ImageError::Malformed(what)),
        }
    }
}

fn enc_members<W: Wr>(e: &mut W, lists: &MemberIntern, m: &Arc<[usize]>) {
    match lists.reference(m) {
        MemberRef::Listed(id) => {
            e.u8(0);
            e.u64(id);
        }
        MemberRef::Range { start, len } => {
            e.u8(1);
            e.usize(start);
            e.usize(len);
        }
    }
}

pub(crate) fn dec_members(
    d: &mut Dec,
    lists: &mut MemberIntern,
    what: DecodeError,
) -> Result<Arc<[usize]>, ImageError> {
    let r = match d.u8(what)? {
        0 => MemberRef::Listed(d.u64(what)?),
        1 => MemberRef::Range {
            start: d.usize(what)?,
            len: d.usize(what)?,
        },
        _ => return Err(ImageError::Malformed(what)),
    };
    lists.resolve(r, what)
}

fn enc_counters<W: Wr>(e: &mut W, c: &CallCounters) {
    e.u64(c.coll_blocking);
    e.u64(c.coll_nonblocking);
    e.u64(c.p2p_sends);
    e.u64(c.p2p_recvs);
    e.u64(c.completions);
    e.u64(c.comm_mgmt);
    e.u64(c.drain_updates_sent);
    e.u64(c.drain_updates_recv);
    e.u64(c.trivial_barriers);
}

fn dec_counters(d: &mut Dec) -> Result<CallCounters, ImageError> {
    Ok(CallCounters {
        coll_blocking: d.u64("coll_blocking")?,
        coll_nonblocking: d.u64("coll_nonblocking")?,
        p2p_sends: d.u64("p2p_sends")?,
        p2p_recvs: d.u64("p2p_recvs")?,
        completions: d.u64("completions")?,
        comm_mgmt: d.u64("comm_mgmt")?,
        drain_updates_sent: d.u64("drain_updates_sent")?,
        drain_updates_recv: d.u64("drain_updates_recv")?,
        trivial_barriers: d.u64("trivial_barriers")?,
    })
}

fn enc_src<W: Wr>(e: &mut W, s: SrcSel) {
    match s {
        SrcSel::Any => e.u8(0),
        SrcSel::Rank(r) => {
            e.u8(1);
            e.usize(r);
        }
    }
}

fn dec_src(d: &mut Dec) -> Result<SrcSel, ImageError> {
    match d.u8("source selector")? {
        0 => Ok(SrcSel::Any),
        1 => Ok(SrcSel::Rank(d.usize("source rank")?)),
        _ => Err(ImageError::Malformed("source selector tag")),
    }
}

fn enc_tag<W: Wr>(e: &mut W, t: TagSel) {
    match t {
        TagSel::Any => e.u8(0),
        TagSel::Tag(v) => {
            e.u8(1);
            e.u32(v);
        }
    }
}

fn dec_tag(d: &mut Dec) -> Result<TagSel, ImageError> {
    match d.u8("tag selector")? {
        0 => Ok(TagSel::Any),
        1 => Ok(TagSel::Tag(d.u32("tag value")?)),
        _ => Err(ImageError::Malformed("tag selector tag")),
    }
}

fn enc_comm_op<W: Wr>(e: &mut W, r: &CommOpRecord) {
    match &r.op {
        CommOp::Dup { parent } => {
            e.u8(0);
            e.u64(parent.0);
        }
        CommOp::Split { parent, color, key } => {
            e.u8(1);
            e.u64(parent.0);
            e.i64(*color);
            e.i64(*key);
        }
        CommOp::Create { parent, members } => {
            e.u8(2);
            e.u64(parent.0);
            enc_usize_list(e, members);
        }
    }
    match r.result {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            e.u64(v.0);
        }
    }
}

fn dec_comm_op(d: &mut Dec) -> Result<CommOpRecord, ImageError> {
    let op = match d.u8("comm-op tag")? {
        0 => CommOp::Dup {
            parent: VComm(d.u64("dup parent")?),
        },
        1 => CommOp::Split {
            parent: VComm(d.u64("split parent")?),
            color: d.i64("split color")?,
            key: d.i64("split key")?,
        },
        2 => CommOp::Create {
            parent: VComm(d.u64("create parent")?),
            members: dec_usize_list(d, "create members")?,
        },
        _ => return Err(ImageError::Malformed("comm-op tag")),
    };
    let result = match d.u8("comm-op result tag")? {
        0 => None,
        1 => Some(VComm(d.u64("comm-op result")?)),
        _ => return Err(ImageError::Malformed("comm-op result tag")),
    };
    Ok(CommOpRecord { op, result })
}

/// Opens a rank section: the byte length of the restart-stable half that
/// follows, then the volatile half — identity, execution position, and
/// the per-generation flow counts. These change at every checkpoint, so
/// delta images always carry them inline.
fn enc_capture_volatile<W: Wr>(e: &mut W, c: &RuntimeCapture, stable_len: usize) {
    e.usize(stable_len);
    e.usize(c.rank);
    e.u8(c.state as u8);
    e.f64(c.clock.as_secs());
    match c.pending_barrier {
        None => e.u8(0),
        Some((vc, ord)) => {
            e.u8(1);
            e.u64(vc);
            e.u64(ord);
        }
    }
    e.u64(c.p2p_sent);
    e.u64(c.p2p_delivered);
}

/// The volatile half of one decoded rank section.
struct VolatileHalf {
    rank: usize,
    state: RankState,
    clock: VTime,
    pending_barrier: Option<(u64, u64)>,
    p2p_sent: u64,
    p2p_delivered: u64,
}

/// Reads one rank section up to its restart-stable half, which it hands
/// back as bytes: exactly the span the section's length word declares, so
/// neither a decode of it nor a slice can run into the next section.
fn dec_capture_volatile<'a>(d: &mut Dec<'a>) -> Result<(VolatileHalf, &'a [u8]), ImageError> {
    let stable_len = d.usize("stable-half length")?;
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
    let volatile = VolatileHalf {
        rank,
        state,
        clock,
        pending_barrier,
        p2p_sent: d.u64("p2p sent")?,
        p2p_delivered: d.u64("p2p delivered")?,
    };
    Ok((volatile, d.take(stable_len, "stable-half length")?))
}

fn dec_capture(d: &mut Dec, lists: &mut MemberIntern) -> Result<RuntimeCapture, ImageError> {
    let (v, stable) = dec_capture_volatile(d)?;
    let mut sd = Dec::new(stable);
    let stable = dec_capture_stable(&mut sd, lists)?;
    if !sd.finished() {
        return Err(ImageError::Malformed("stable-half length"));
    }
    Ok(stable.into_capture(
        v.rank,
        v.state,
        v.clock,
        v.pending_barrier,
        v.p2p_sent,
        v.p2p_delivered,
    ))
}

/// Encodes the restart-stable half of a rank capture: sequence table,
/// communicator creation log, pending receives, call counters, and the
/// vcomm maps. This is exactly the byte span delta images content-address
/// — two ranks whose stable halves encode identically share one chunk.
pub(crate) fn enc_capture_stable<W: Wr>(e: &mut W, lists: &MemberIntern, c: &RuntimeCapture) {
    let mut seq: Vec<(u64, u64, &Arc<[usize]>)> = c
        .seq_table
        .iter()
        .map(|(g, entry)| (g.0, entry.seq, &entry.members))
        .collect();
    seq.sort_unstable_by_key(|&(g, ..)| g);
    e.usize(seq.len());
    for (g, s, members) in seq {
        e.u64(g);
        e.u64(s);
        enc_members(e, lists, members);
    }
    e.usize(c.comm_log.len());
    for r in &c.comm_log {
        enc_comm_op(e, r);
    }
    e.usize(c.pending_recvs.len());
    for p in &c.pending_recvs {
        e.u64(p.vreq);
        e.u64(p.vcomm);
        enc_src(e, p.src);
        enc_tag(e, p.tag);
    }
    enc_counters(e, &c.counters);
    let mut lower: Vec<(u64, u64)> = c.vcomm_to_lower.iter().map(|(v, c)| (*v, c.0)).collect();
    lower.sort_unstable();
    e.usize(lower.len());
    for (v, id) in lower {
        e.u64(v);
        e.u64(id);
    }
    let mut members: Vec<(u64, &Arc<[usize]>)> =
        c.vcomm_members.iter().map(|(v, m)| (*v, m)).collect();
    members.sort_unstable_by_key(|&(v, _)| v);
    e.usize(members.len());
    for (v, m) in members {
        e.u64(v);
        enc_members(e, lists, m);
    }
}

/// The decoded restart-stable half of a rank capture; combined with the
/// volatile fields (carried inline by both full and delta images) it
/// rebuilds the full [`RuntimeCapture`].
pub(crate) struct StableState {
    pub seq_table: SeqTable,
    pub comm_log: Vec<CommOpRecord>,
    pub pending_recvs: Vec<PendingRecv>,
    pub counters: CallCounters,
    pub vcomm_to_lower: HashMap<u64, CommId>,
    pub vcomm_members: HashMap<u64, Arc<[usize]>>,
}

impl StableState {
    pub(crate) fn into_capture(
        self,
        rank: usize,
        state: RankState,
        clock: VTime,
        pending_barrier: Option<(u64, u64)>,
        p2p_sent: u64,
        p2p_delivered: u64,
    ) -> RuntimeCapture {
        RuntimeCapture {
            rank,
            state,
            clock,
            seq_table: self.seq_table,
            comm_log: self.comm_log,
            pending_recvs: self.pending_recvs,
            pending_barrier,
            counters: self.counters,
            p2p_sent,
            p2p_delivered,
            vcomm_to_lower: self.vcomm_to_lower,
            vcomm_members: self.vcomm_members,
        }
    }
}

pub(crate) fn dec_capture_stable(
    d: &mut Dec,
    lists: &mut MemberIntern,
) -> Result<StableState, ImageError> {
    let n_seq = d.seq_len("seq-table length")?;
    let mut seq_table = SeqTable::new();
    for _ in 0..n_seq {
        let g = Ggid(d.u64("seq-table ggid")?);
        let s = d.u64("seq-table seq")?;
        let members = dec_members(d, lists, "seq-table members")?;
        seq_table.restore(g, s, members);
    }
    let n_log = d.seq_len("comm-log length")?;
    let mut comm_log = Vec::with_capacity(n_log);
    for _ in 0..n_log {
        comm_log.push(dec_comm_op(d)?);
    }
    let n_pend = d.seq_len("pending-recv count")?;
    let mut pending_recvs = Vec::with_capacity(n_pend);
    for _ in 0..n_pend {
        pending_recvs.push(PendingRecv {
            vreq: d.u64("pending-recv vreq")?,
            vcomm: d.u64("pending-recv vcomm")?,
            src: dec_src(d)?,
            tag: dec_tag(d)?,
        });
    }
    let counters = dec_counters(d)?;
    let n_lower = d.seq_len("vcomm-lower count")?;
    let mut vcomm_to_lower = HashMap::with_capacity(n_lower);
    for _ in 0..n_lower {
        vcomm_to_lower.insert(d.u64("vcomm id")?, CommId(d.u64("lower comm id")?));
    }
    let n_members = d.seq_len("vcomm-member count")?;
    let mut vcomm_members = HashMap::with_capacity(n_members);
    for _ in 0..n_members {
        let v = d.u64("vcomm member key")?;
        vcomm_members.insert(v, dec_members(d, lists, "vcomm member list")?);
    }
    Ok(StableState {
        seq_table,
        comm_log,
        pending_recvs,
        counters,
        vcomm_to_lower,
        vcomm_members,
    })
}

/// Whether two captures agree on every restart-stable field — the
/// "changed rank" test of the incremental-image path. Volatile fields
/// (state, clock, pending barrier, flow counts) are excluded: they move
/// on every checkpoint and are always carried inline.
pub(crate) fn stable_state_eq(a: &RuntimeCapture, b: &RuntimeCapture) -> bool {
    a.seq_table == b.seq_table
        && a.comm_log == b.comm_log
        && a.pending_recvs == b.pending_recvs
        && a.counters == b.counters
        && a.vcomm_to_lower == b.vcomm_to_lower
        && a.vcomm_members.len() == b.vcomm_members.len()
        && a.vcomm_members.iter().all(|(v, m)| {
            // By allocation first, like `SeqEntry`: consecutive captures
            // of one run share their lists.
            (b.vcomm_members.get(v)).is_some_and(|n| Arc::ptr_eq(m, n) || m == n)
        })
}

pub(crate) fn enc_drained<W: Wr>(e: &mut W, m: &DrainedMsg) {
    e.usize(m.saved.src_world);
    e.usize(m.saved.dst_world);
    e.u64(m.saved.vcomm);
    e.u32(m.saved.tag);
    e.bytes(&m.saved.payload);
    e.u64(m.saved.seq);
    e.f64(m.arrival.as_secs());
}

fn dec_drained(d: &mut Dec) -> Result<DrainedMsg, ImageError> {
    Ok(DrainedMsg {
        saved: SavedMsg {
            src_world: d.usize("msg src")?,
            dst_world: d.usize("msg dst")?,
            vcomm: d.u64("msg vcomm")?,
            tag: d.u32("msg tag")?,
            payload: bytes::Bytes::from(d.bytes("msg payload")?.to_vec()),
            seq: d.u64("msg seq")?,
        },
        arrival: dec_vtime(d, "msg arrival")?,
    })
}

/// Reads a drained in-flight set: count, then messages.
pub(crate) fn dec_in_flight(d: &mut Dec) -> Result<Vec<DrainedMsg>, ImageError> {
    let n_msgs = d.seq_len("in-flight count")?;
    let mut in_flight = Vec::with_capacity(n_msgs);
    for _ in 0..n_msgs {
        in_flight.push(dec_drained(d)?);
    }
    Ok(in_flight)
}

/// Reads what follows a full image's in-flight set, to the payload's
/// last byte: the cut and the io seconds (write, read).
fn dec_payload_suffix(
    d: &mut Dec,
    lists: &mut MemberIntern,
) -> Result<(Cut, f64, f64), ImageError> {
    let cut = dec_cut(d, lists)?;
    let io = (d.f64("io_write_secs")?, d.f64("io_read_secs")?);
    if !d.finished() {
        return Err(ImageError::Malformed("trailing bytes"));
    }
    Ok((cut, io.0, io.1))
}

/// Writes a cut: run count, then `rank, ggid, first, last, members` per
/// run in the cut's canonical order.
pub(crate) fn enc_cut<W: Wr>(e: &mut W, lists: &MemberIntern, cut: &Cut) {
    e.usize(cut.runs().len());
    for r in cut.runs() {
        e.usize(r.rank);
        e.u64(r.ggid.0);
        e.u64(r.first);
        e.u64(r.last);
        enc_members(e, lists, &r.members);
    }
}

/// Reads a cut written by [`enc_cut`], checking what the encoder
/// guarantees: sequence numbers start at 1, a run does not end before it
/// starts, the runs are in canonical order (so none is listed twice).
/// Ranks are range-checked with the rest of the image
/// ([`validate_shape`]), members by the table they resolve through.
pub(crate) fn dec_cut(d: &mut Dec, lists: &mut MemberIntern) -> Result<Cut, ImageError> {
    let n = d.seq_len("cut-run count")?;
    let mut runs: Vec<CutRun> = Vec::with_capacity(n);
    for _ in 0..n {
        let run = CutRun {
            rank: d.usize("run rank")?,
            ggid: Ggid(d.u64("run ggid")?),
            first: d.u64("run first")?,
            last: d.u64("run last")?,
            members: dec_members(d, lists, "run members")?,
        };
        if run.first == 0 || run.first > run.last {
            return Err(ImageError::Malformed("run bounds"));
        }
        let key = |r: &CutRun| (r.rank, r.ggid, r.first);
        if runs.last().is_some_and(|p| key(p) >= key(&run)) {
            return Err(ImageError::Malformed("cut-run order"));
        }
        runs.push(run);
    }
    Ok(Cut::from_runs(runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_core::{ExecEvent, Node};

    fn ev(rank: usize, g: u64, seq: u64, members: &[usize]) -> ExecEvent {
        ExecEvent {
            rank,
            node: Node { ggid: Ggid(g), seq },
            members: members.into(),
        }
    }

    fn ckpt(events: Vec<ExecEvent>, achieved: &[(u64, u64)]) -> Checkpoint {
        Checkpoint {
            epoch: 0,
            n_ranks: 2,
            protocol: Protocol::Cc,
            origin: CaptureOrigin {
                ranks_per_node: 2,
                params: NetParams::ideal(),
            },
            request_clock: VTime::ZERO,
            initial_targets: HashMap::new(),
            final_targets: HashMap::new(),
            achieved: achieved.iter().map(|&(g, s)| (Ggid(g), s)).collect(),
            captures: Vec::new(),
            in_flight: Vec::new(),
            cut_events: Cut::from_events(&events),
            io_write_secs: 0.0,
            io_read_secs: 0.0,
        }
    }

    #[test]
    fn verify_accepts_consistent_cut() {
        let c = ckpt(vec![ev(0, 1, 1, &[0, 1]), ev(1, 1, 1, &[0, 1])], &[(1, 1)]);
        assert!(c.verify().is_ok());
    }

    #[test]
    fn verify_rejects_partial_visit() {
        let c = ckpt(vec![ev(0, 1, 1, &[0, 1])], &[(1, 1)]);
        assert!(matches!(
            c.verify().unwrap_err()[0],
            Violation::PartiallyVisited(..)
        ));
    }

    #[test]
    fn targets_exactly_reached_checks_equality() {
        let mut c = ckpt(vec![], &[(1, 2)]);
        c.final_targets.insert(Ggid(1), 2);
        assert!(c.targets_exactly_reached());
        c.final_targets.insert(Ggid(1), 3);
        assert!(!c.targets_exactly_reached());
    }

    fn rich_ckpt() -> Checkpoint {
        let mut seq_table = SeqTable::new();
        seq_table.restore(Ggid(9), 4, vec![0, 1]);
        seq_table.restore(Ggid(3), 1, vec![0]);
        let mut c = ckpt(
            vec![ev(0, 1, 1, &[0, 1]), ev(1, 1, 1, &[0, 1])],
            &[(1, 1), (9, 4)],
        );
        c.epoch = 2;
        c.initial_targets.insert(Ggid(1), 1);
        c.final_targets.insert(Ggid(9), 4);
        c.request_clock = VTime::from_micros(3.5);
        c.io_write_secs = 1.25;
        c.io_read_secs = 0.75;
        c.origin.params = NetParams::slingshot11();
        for rank in 0..2 {
            c.captures.push(RuntimeCapture {
                rank,
                state: if rank == 0 {
                    RankState::RecvParked
                } else {
                    RankState::InTrivialBarrier
                },
                clock: VTime::from_micros(11.0 + rank as f64),
                seq_table: seq_table.clone(),
                comm_log: vec![
                    CommOpRecord {
                        op: CommOp::Split {
                            parent: VComm(0),
                            color: -1,
                            key: 7,
                        },
                        result: None,
                    },
                    CommOpRecord {
                        op: CommOp::Create {
                            parent: VComm(0),
                            members: vec![1, 0],
                        },
                        result: Some(VComm(2)),
                    },
                    CommOpRecord {
                        op: CommOp::Dup { parent: VComm(0) },
                        result: Some(VComm(3)),
                    },
                ],
                pending_recvs: vec![PendingRecv {
                    vreq: 5,
                    vcomm: 0,
                    src: SrcSel::Any,
                    tag: TagSel::Tag(17),
                }],
                pending_barrier: (rank == 1).then_some((0, 6)),
                counters: CallCounters {
                    coll_blocking: 10,
                    p2p_recvs: 3,
                    drain_updates_sent: 2,
                    ..Default::default()
                },
                p2p_sent: 4 + rank as u64,
                p2p_delivered: 3,
                vcomm_to_lower: [(0u64, CommId(0)), (2, CommId(4))].into_iter().collect(),
                vcomm_members: [(0u64, vec![0, 1].into()), (2, vec![1, 0].into())]
                    .into_iter()
                    .collect(),
            });
        }
        c.in_flight.push(DrainedMsg {
            saved: SavedMsg {
                src_world: 1,
                dst_world: 0,
                vcomm: 2,
                tag: 17,
                payload: bytes::Bytes::from_static(b"drained payload"),
                seq: 3,
            },
            arrival: VTime::from_micros(9.0),
        });
        c
    }

    #[test]
    fn serialization_round_trips_exactly() {
        let c = rich_ckpt();
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, c);
        // Deterministic: re-serializing the decoded image reproduces the
        // exact byte stream.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn parallel_encode_is_byte_identical() {
        let c = rich_ckpt();
        let serial = c.to_bytes();
        for workers in [1, 2, 8, 64] {
            assert_eq!(c.to_bytes_parallel(workers), serial, "workers={workers}");
        }
        // The counting pass agrees with the encode pass.
        assert_eq!(c.serialized_len(), serial.len());
    }

    #[test]
    fn capture_section_ranges_tile_the_capture_block() {
        let c = rich_ckpt();
        let bytes = c.to_bytes();
        let ranges = c.capture_section_ranges();
        assert_eq!(ranges.len(), c.captures.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "sections must be contiguous");
        }
        assert!(ranges[0].start > IMAGE_HEADER_LEN);
        assert!(ranges.last().unwrap().end < bytes.len());
        // Mutating one rank's capture perturbs exactly that rank's section
        // (plus the backpatched header checksum).
        let mut c2 = c.clone();
        c2.captures[1].p2p_sent += 1;
        let bytes2 = c2.to_bytes();
        assert_eq!(bytes2.len(), bytes.len());
        assert_eq!(bytes[ranges[0].clone()], bytes2[ranges[0].clone()]);
        assert_ne!(bytes[ranges[1].clone()], bytes2[ranges[1].clone()]);
        assert_eq!(bytes[ranges[1].end..], bytes2[ranges[1].end..]);
    }

    #[test]
    fn save_and_load_round_trip() {
        let c = rich_ckpt();
        let path = std::env::temp_dir().join(format!("mana_img_test_{}.ckpt", std::process::id()));
        let n = c.save_to(&path).expect("save");
        assert!(n > 0);
        let back = Checkpoint::load_from(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, c);
    }

    #[test]
    fn corrupted_images_are_rejected() {
        let c = rich_ckpt();
        let bytes = c.to_bytes();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(Checkpoint::from_bytes(&bad), Err(ImageError::BadMagic));

        // Unsupported version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert_eq!(
            Checkpoint::from_bytes(&bad),
            Err(ImageError::UnsupportedVersion(99))
        );

        // Truncation.
        let cut = &bytes[..bytes.len() - 7];
        assert!(matches!(
            Checkpoint::from_bytes(cut),
            Err(ImageError::Truncated { .. })
        ));

        // A single flipped payload bit.
        let mut bad = bytes.clone();
        let mid = 28 + (bad.len() - 28) / 2;
        bad[mid] ^= 0x10;
        assert_eq!(
            Checkpoint::from_bytes(&bad),
            Err(ImageError::ChecksumMismatch)
        );

        // Pristine bytes still parse.
        assert!(Checkpoint::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn out_of_range_indices_are_rejected_not_panicked() {
        // A tampered-but-checksummed image (re-encoded after editing) with
        // an out-of-world message endpoint must fail with a typed error.
        let mut c = rich_ckpt();
        c.in_flight[0].saved.dst_world = 99;
        assert_eq!(
            Checkpoint::from_bytes(&c.to_bytes()),
            Err(ImageError::Malformed("in-flight message endpoint"))
        );

        let mut c = rich_ckpt();
        c.cut_events = Cut::from_events(&[ev(7, 1, 1, &[0, 1])]);
        assert_eq!(
            Checkpoint::from_bytes(&c.to_bytes()),
            Err(ImageError::Malformed("cut-run rank"))
        );

        let mut c = rich_ckpt();
        c.captures.swap(0, 1);
        assert_eq!(
            Checkpoint::from_bytes(&c.to_bytes()),
            Err(ImageError::Malformed("capture rank vs position"))
        );

        let mut c = rich_ckpt();
        c.origin.ranks_per_node = 0;
        assert_eq!(
            Checkpoint::from_bytes(&c.to_bytes()),
            Err(ImageError::Malformed("world shape"))
        );
    }

    // ------------------------------------------------------------------
    // The member-list table
    // ------------------------------------------------------------------

    const WORLD: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
    const STRIDED: [usize; 4] = [0, 2, 4, 6];
    const GROUP_ORDER: [usize; 3] = [5, 1, 3];

    /// An 8-rank image whose `seq_table`s, `vcomm_members` and cut all
    /// reference the same three lists: the world (range form), a strided
    /// group and a communicator in group order (unsorted). `alloc` decides
    /// which allocation each reference gets; the `Ggid`s are deliberately
    /// not `ggid_of(members)`.
    fn lists_ckpt(mut alloc: impl FnMut(&[usize]) -> Arc<[usize]>) -> Checkpoint {
        let mut c = ckpt(Vec::new(), &[(1, 2), (7, 1), (8, 1)]);
        c.n_ranks = 8;
        let mut cut = Vec::new();
        for rank in 0..8 {
            let mut seq_table = SeqTable::new();
            seq_table.restore(Ggid(1), 2, alloc(&WORLD));
            seq_table.restore(Ggid(7), 1, alloc(&STRIDED));
            seq_table.restore(Ggid(8), 1, alloc(&GROUP_ORDER));
            c.captures.push(RuntimeCapture {
                rank,
                state: RankState::Quiesced,
                clock: VTime::from_micros(rank as f64),
                seq_table,
                comm_log: Vec::new(),
                pending_recvs: Vec::new(),
                pending_barrier: None,
                counters: CallCounters::default(),
                p2p_sent: 0,
                p2p_delivered: 0,
                vcomm_to_lower: HashMap::new(),
                vcomm_members: [
                    (0u64, alloc(&WORLD)),
                    (1, alloc(&STRIDED)),
                    (2, alloc(&GROUP_ORDER)),
                ]
                .into_iter()
                .collect(),
            });
            for (g, members) in [(1, &WORLD[..]), (7, &STRIDED), (8, &GROUP_ORDER)] {
                if members.contains(&rank) {
                    cut.push(CutRun {
                        rank,
                        ggid: Ggid(g),
                        first: 1,
                        last: 1,
                        members: alloc(members),
                    });
                }
            }
        }
        c.cut_events = Cut::from_runs(cut);
        c
    }

    /// The image as a live run holds it: one allocation per list.
    fn shared_lists_ckpt() -> Checkpoint {
        let mut cache: HashMap<Vec<usize>, Arc<[usize]>> = HashMap::new();
        lists_ckpt(|v| Arc::clone(cache.entry(v.to_vec()).or_insert_with(|| v.into())))
    }

    /// Re-seals a hand-edited image so the edit reaches the structural
    /// decoder instead of the checksum.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        backpatch_header(&mut bytes);
        bytes
    }

    /// Both entry points refuse `bytes` with `Malformed(what)`.
    fn assert_malformed(bytes: &[u8], what: &str) {
        use crate::store::ImagePayload;
        for got in [
            Checkpoint::from_bytes(bytes).err(),
            ImagePayload::from_bytes(bytes).err(),
        ] {
            match got {
                Some(ImageError::Malformed(w)) => assert_eq!(w, what),
                other => panic!("expected Malformed({what:?}), got {other:?}"),
            }
        }
    }

    #[test]
    fn shared_strided_and_group_order_lists_round_trip_exactly() {
        let c = shared_lists_ckpt();
        let bytes = c.to_bytes();
        assert_eq!(c.serialized_len(), bytes.len());
        for workers in [2, 8] {
            assert_eq!(c.to_bytes_parallel(workers), bytes, "workers={workers}");
        }
        let back = Checkpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, c);
        assert_eq!(back.captures[3].vcomm_members[&2][..], GROUP_ORDER);
        assert_eq!(back.to_bytes(), bytes, "re-serialization must be stable");
    }

    #[test]
    fn bytes_are_a_function_of_value_not_of_allocation() {
        let shared = shared_lists_ckpt();
        let unshared = lists_ckpt(|v| v.into());
        assert_eq!(shared, unshared);
        assert_eq!(shared.to_bytes(), unshared.to_bytes());
        assert_eq!(shared.serialized_len(), unshared.serialized_len());
    }

    #[test]
    fn decoded_references_to_one_list_share_one_allocation() {
        // Decoded from the image that shares nothing, so the sharing below
        // is the decoder's doing.
        let bytes = lists_ckpt(|v| v.into()).to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        let refs: Vec<_> = back.member_list_refs().collect();
        assert_eq!(refs.len(), 8 * 6 + 8 + 4 + 3);
        for a in &refs {
            for b in &refs {
                assert_eq!(a == b, Arc::ptr_eq(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn each_list_is_written_once_and_a_reference_is_nine_bytes() {
        let mut c = shared_lists_ckpt();
        // Count word, then `(id, len, members…)` for the two lists that are
        // not a contiguous run; the world stays in range form.
        let table = c.member_table_range();
        assert_eq!(
            table.len(),
            8 + (16 + 8 * STRIDED.len()) + (16 + 8 * GROUP_ORDER.len())
        );
        assert_eq!(
            table.end + 8,
            c.capture_section_ranges()[0].start,
            "only the capture count sits between the table and the sections"
        );
        // One more run on the strided group — rank, ggid, first, last,
        // tag, id — however many collectives it covers.
        let before = c.serialized_len();
        let mut runs = c.cut_events.runs().to_vec();
        let again = runs.iter().find(|r| r.members[..] == STRIDED).unwrap();
        runs.push(CutRun {
            first: 3,
            last: 3_000_000,
            ..again.clone()
        });
        c.cut_events = Cut::from_runs(runs);
        assert_eq!(c.serialized_len(), before + 8 + 8 + 8 + 8 + 1 + 8);
    }

    #[test]
    fn tampered_member_tables_and_references_are_typed_errors() {
        let c = shared_lists_ckpt();
        let bytes = c.to_bytes();
        let t = c.member_table_range();
        // Entry 0 is `id, len, members…` right behind the count word; the
        // order of the two entries follows their ids.
        let first_len = u64::from_le_bytes(bytes[t.start + 16..t.start + 24].try_into().unwrap());
        let second = t.start + 8 + 16 + 8 * first_len as usize;

        // A reference to an id the table does not hold: the last run is
        // rank 7's on the world, the one before is on a listed group.
        let mut m = bytes.clone();
        let last_listed_id = bytes.len() - 16 - (8 + 8 + 8 + 8 + 17) - 8;
        m[last_listed_id] ^= 0x01;
        assert_malformed(&resealed(m), "run members");

        // An entry whose content no longer hashes to its id.
        let mut m = bytes.clone();
        m[t.start + 24] ^= 0x01;
        assert_malformed(&resealed(m), "member table entry vs its id");

        // One id naming two different lists.
        let mut m = bytes.clone();
        m.copy_within(t.start + 8..t.start + 16, second);
        assert_malformed(&resealed(m), "member table order");

        // A table that claims one entry more than it holds runs into the
        // capture sections and fails there, typed.
        let mut m = bytes.clone();
        m[t.start] += 1;
        let m = resealed(m);
        assert!(matches!(
            Checkpoint::from_bytes(&m),
            Err(ImageError::Malformed(_))
        ));

        // A member outside the world inside a (correctly hashed) entry, and
        // a range that runs past it.
        let outside = lists_ckpt(|v| match v {
            [0, 2, 4, 6] => [0, 2, 4, 99][..].into(),
            v => v.into(),
        });
        assert_malformed(&outside.to_bytes(), "member table entry rank");
        let overlong = lists_ckpt(|v| match v.len() {
            8 => (0..9).collect(),
            _ => v.into(),
        });
        assert_malformed(&overlong.to_bytes(), "seq-table members");

        // Pristine bytes still parse.
        assert!(Checkpoint::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn older_wire_versions_are_refused() {
        let mut bytes = rich_ckpt().to_bytes();
        for old in [4, 5] {
            bytes[IMAGE_VERSION_OFFSET] = old;
            assert_eq!(
                Checkpoint::from_bytes(&bytes),
                Err(ImageError::UnsupportedVersion(u32::from(old)))
            );
        }
    }

    #[test]
    fn load_missing_file_is_io_error_with_path() {
        let e = Checkpoint::load_from("/nonexistent/dir/image.ckpt").unwrap_err();
        match &e {
            ImageError::Io { path, source } => {
                assert_eq!(path, "/nonexistent/dir/image.ckpt");
                assert!(!source.is_empty());
            }
            other => panic!("expected Io, got {other:?}"),
        }
        // And the Display form surfaces the path, so a failed restore
        // names the file instead of a bare "I/O error".
        assert!(e.to_string().contains("/nonexistent/dir/image.ckpt"));
    }

    #[test]
    fn load_unreadable_path_reports_the_path() {
        // A directory is open-able metadata-wise but unreadable as an
        // image file; the error must still carry which path failed.
        let dir = std::env::temp_dir().join("ckpt_io_err_dir");
        std::fs::create_dir_all(&dir).unwrap();
        let e = Checkpoint::load_from(&dir).unwrap_err();
        match e {
            ImageError::Io { path, source } => {
                assert_eq!(path, dir.display().to_string());
                assert!(!source.is_empty());
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn save_to_unwritable_path_reports_the_path() {
        let c = rich_ckpt();
        let e = c.save_to("/nonexistent/dir/image.ckpt").unwrap_err();
        match e {
            ImageError::Io { path, .. } => assert_eq!(path, "/nonexistent/dir/image.ckpt"),
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
