//! The checkpoint image: everything captured at a safe state, in
//! restart-stable terms. The ranks' `SEQ[]` tables are both what a restore
//! installs and the cut the safe-cut oracle judges ([`Checkpoint::verify`]).
//!
//! The image is the unit of the system (as in MANA and the DMTCP proxy
//! line of work): it is a first-class, serializable artifact. An image can
//! be written to disk with [`Checkpoint::save_to`], read back in a
//! different process with [`Checkpoint::load_from`], and restored onto a
//! differently-packed set of nodes with
//! [`crate::restore_ckpt_world_steps`]. The wire format carries a versioned
//! header and FNV-1a integrity hashes; a flipped bit or a truncated file
//! is rejected with a typed [`ImageError`] instead of producing a
//! silently-wrong restore. The codec itself is
//! [`crate::store::DeltaImage`]: a full image is a delta with no parent.

use crate::store::delta::{self, DeltaImage};
use crate::wire::{fnv1a64, Dec, DecodeError, Fnv1a, FoldMap, Wr};
use mana_core::capture::PendingRecv;
use mana_core::{
    ggid_of_sorted, verify_safe_cut, CallCounters, CommOp, CommOpRecord, Cut, CutRun, Ggid,
    Protocol, RuntimeCapture, SeqTable, UpperHalf, VComm, VCommMembers, Violation,
};
use mpisim::{SavedMsg, SrcSel, TagSel, VTime};
use netmodel::NetParams;
use std::collections::{BTreeMap, HashMap};
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
/// fifths of an image and growing with the run.
/// Version 7 has one layout for full and delta images: a full image is a
/// delta with no parent ([`crate::store::DeltaImage`]). The head carries
/// the member-list table, one record per rank (rank, state, clock,
/// pending barrier, flow counts, and the content address of the rank's
/// restart-stable chunk), the in-flight chunk's address and the cut; the
/// chunk section behind it holds each chunk the image inlines once, so
/// ranks with identical stable halves share one. The header checksum
/// covers the head; every chunk is authenticated by re-hashing it
/// against its address, so each byte is hashed once on either side and
/// chunks encode in parallel.
/// Version 8 writes every count, rank, sequence number, vcomm id, call
/// counter, flow count, cut-run bound, chunk length, target value and
/// comm-op argument in the head and the chunks as a canonical varint
/// ([`crate::wire::Wr::var`]) where version 7 spent an 8-byte word on
/// each; the fixed header words, hashes, group ids, member-list content
/// ids and `f64`s keep their width. It also drops the lower-half handle
/// map from each rank's chunk: the handles belong to one lower-half
/// generation, and a restart rebuilds them.
/// Version 9 carries each rank's upper half ([`UpperHalf`]: the body's
/// snapshot and the request-table state) in its record, so an image
/// restores without re-executing the program. The drained collective
/// outputs the upper halves hold are written once each, in an output
/// table behind the member-list table — every member of a collective
/// drains the same output — and a rank names its own by index. It
/// drops the group id from every sequence-table entry and cut run: by
/// definition it is [`ggid_of_sorted`] of the member list the entry
/// references, which the decoder derives once per distinct list.
/// Version 10 drops the cut runs and the achieved per-group maxima: both
/// repeated the sequence tables (every run was `1..=SEQ[g]`, every
/// maximum a maximum over the tables), and the safe-cut check judged
/// them instead of the tables a restore installs. The cut and the maxima
/// are derived from the tables ([`Checkpoint::cut`],
/// [`Checkpoint::achieved`]), so the head ends at the in-flight chunk's
/// address and every sequence number is written once.
/// Version 11 drops the drain's target-update counts from each rank's
/// call counters: they counted control-plane traffic, not application
/// calls, so an image taken mid-drain carried counts a native run never
/// has and a restore from it could not add up to one.
pub const IMAGE_VERSION: u32 = 11;

/// Kind byte of an image with no parent (a full image).
pub const IMAGE_KIND_FULL: u8 = 0;

/// Kind byte of an image relative to a parent generation (a delta); see
/// [`crate::store::DeltaImage`].
pub const IMAGE_KIND_DELTA: u8 = 1;

/// Byte offset of the header's `u32` format-version word.
pub const IMAGE_VERSION_OFFSET: usize = IMAGE_MAGIC.len();

/// Byte offset of the header's `u64` payload-length word.
pub const IMAGE_LEN_OFFSET: usize = IMAGE_VERSION_OFFSET + 4;

/// Byte offset of the header's `u64` head-length word: the payload's
/// first bytes, everything but the inline chunks.
pub const IMAGE_HEAD_LEN_OFFSET: usize = IMAGE_LEN_OFFSET + 8;

/// Byte offset of the header's `u64` FNV-1a head-checksum word.
pub const IMAGE_CHECKSUM_OFFSET: usize = IMAGE_HEAD_LEN_OFFSET + 8;

/// Total header length; the payload starts here.
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

/// The world the image was captured from: the packing and network it ran
/// under, which a restore keeps unless told otherwise. Restoring may choose
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

/// A captured checkpoint: per-rank runtime state and drained in-flight
/// messages. Its cut is the ranks' `SEQ[]` tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Lower-half generation the image was captured from.
    pub epoch: u64,
    /// Number of ranks.
    pub n_ranks: usize,
    /// Coordination protocol the image was captured under.
    pub protocol: Protocol,
    /// The topology and network the capture ran under (a restore keeps
    /// them unless it re-packs).
    pub origin: CaptureOrigin,
    /// Minimum published virtual clock when the request was issued; the
    /// gap to [`Checkpoint::capture_clock`] is the virtual drain latency
    /// (the paper's Figure 7 measurement).
    pub request_clock: VTime,
    /// Algorithm 1's initial targets (global max of snapshotted `SEQ[]`).
    /// Empty under 2PC, which computes no targets.
    pub initial_targets: HashMap<Ggid, u64>,
    /// Initial targets merged with every overshoot raise: the targets the
    /// drain actually ran to. Empty under 2PC.
    pub final_targets: HashMap<Ggid, u64>,
    /// Per-rank runtime captures, indexed by rank.
    pub captures: Vec<RuntimeCapture>,
    /// Drained in-flight point-to-point messages, sorted per channel.
    pub in_flight: Vec<DrainedMsg>,
    /// [`Checkpoint::cut`], filled at capture and at decode, kept only
    /// for the frozen benchmark's `.cut_events.len()`; every other reader
    /// calls `cut()`. Nothing decides safety by it: the checks read the
    /// tables. A caller that edits a table leaves it stale, and must
    /// refresh it (`x.cut_events = x.cut()`) before comparing images.
    pub cut_events: Cut,
    /// Virtual seconds charged for writing the image set to storage
    /// (zero when the session has no storage model).
    pub io_write_secs: f64,
    /// Virtual seconds charged for reading the image set back (restart
    /// resumes only; zero for checkpoint-and-continue).
    pub io_read_secs: f64,
}

impl Checkpoint {
    /// Runs the safe-cut oracle (paper §4.2.2) over the ranks' `SEQ[]`
    /// tables — exactly what a restore installs: every member of a group
    /// holds the same `SEQ[g]` (a visited node is visited by all of its
    /// members), and under CC no `SEQ[g]` exceeds `final_targets[g]`. A
    /// group with no final target counts as target 0, so a CC image in
    /// which one has `SEQ > 0` is refused: the drain raises a target for
    /// every collective it runs, so a live CC image never holds one. 2PC
    /// computes no targets, and its check is all-or-none only.
    pub fn verify(&self) -> Result<(), Vec<Violation>> {
        let targets = (self.protocol != Protocol::TwoPhase).then_some(&self.final_targets);
        verify_safe_cut(&self.cut(), targets)
    }

    /// Checks that the drain ran exactly to its targets: for every group
    /// with a final target, the highest `SEQ[g]` in the tables equals it.
    pub fn targets_exactly_reached(&self) -> bool {
        let achieved = self.achieved();
        (self.final_targets.iter()).all(|(g, &t)| achieved.get(g).copied().unwrap_or(0) == t)
    }

    /// `max SEQ[g]` over the ranks' tables, for every group any rank
    /// holds.
    pub fn achieved(&self) -> HashMap<Ggid, u64> {
        let mut achieved = HashMap::new();
        for (g, e) in self.captures.iter().flat_map(|c| c.seq_table.iter()) {
            let a = achieved.entry(*g).or_insert(0);
            *a = e.seq.max(*a);
        }
        achieved
    }

    /// The cut the tables state: for every rank and every group its table
    /// holds with `SEQ[g] > 0`, the run `1..=SEQ[g]`, sharing the entry's
    /// member list.
    pub fn cut(&self) -> Cut {
        let runs = self.captures.iter().enumerate().flat_map(|(rank, c)| {
            (c.seq_table.iter().filter(|(_, e)| e.seq > 0)).map(move |(g, e)| CutRun {
                rank,
                ggid: *g,
                first: 1,
                last: e.seq,
                members: Arc::clone(&e.members),
            })
        });
        Cut::from_runs(runs.collect())
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

    // ------------------------------------------------------------------
    // Serialization
    // ------------------------------------------------------------------

    /// Every group member-list reference the image's captures hold — each
    /// `seq_table` entry, each `vcomm_members` value. In a live or a
    /// decoded image all references to one list are one allocation; the
    /// wire tests check exactly that.
    pub fn member_list_refs(&self) -> impl Iterator<Item = &Arc<[usize]>> {
        self.captures.iter().flat_map(capture_member_refs)
    }

    /// Serializes the image as a full image (see [`DeltaImage::to_bytes`]
    /// for the layout). Deterministic: the same image always yields the
    /// same bytes. Equivalent to `to_bytes_parallel(1)`.
    ///
    /// # Panics
    /// Panics if a sequence-table entry names a group id that is not its
    /// member list's: the wire writes the list alone.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_parallel(1)
    }

    /// Like [`Checkpoint::to_bytes`], but encodes and hashes the per-rank
    /// chunks on up to `workers` threads. A chunk's bytes depend on its
    /// rank's state alone, so the output is byte-for-byte identical to the
    /// serial encoder for any worker count.
    pub fn to_bytes_parallel(&self, workers: usize) -> Vec<u8> {
        delta::encode(0, None, &|_| false, self, workers).0
    }

    /// Byte range of every rank's record within the serialized image, in
    /// rank order (see [`DeltaImage::capture_section_ranges`]); fuzzers
    /// use this to aim mutations at record boundaries.
    pub fn capture_section_ranges(&self) -> Vec<std::ops::Range<usize>> {
        DeltaImage::full(self).capture_section_ranges()
    }

    /// Byte range of the member-list table within the serialized image
    /// (its count included) — the wire-fuzz suite aims
    /// checksum-repaired mutations at it.
    pub fn member_table_range(&self) -> std::ops::Range<usize> {
        DeltaImage::full(self).member_table_range()
    }

    /// Parses a serialized image, validating magic, version, lengths and
    /// checksum before touching the payload. Only accepts a *full* image;
    /// a delta is rejected with [`ImageError::DeltaChain`] — it must be
    /// resolved through its store and parent chain
    /// ([`crate::store::TieredStore::load`]).
    pub fn from_bytes(buf: &[u8]) -> Result<Checkpoint, ImageError> {
        DeltaImage::checkpoint_from_bytes(buf)
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

    /// Size of the serialized image in bytes; nothing is assembled.
    pub fn serialized_len(&self) -> usize {
        delta::full_len(self)
    }
}

/// Opens `out` with the fixed image header of a `head_len`-byte head
/// followed by `chunks_len` bytes of chunks; the checksum stays zero
/// until [`reseal`].
pub(crate) fn enc_header(out: &mut Vec<u8>, head_len: usize, chunks_len: usize) {
    out.raw(&IMAGE_MAGIC);
    out.u32(IMAGE_VERSION);
    out.u64((head_len + chunks_len) as u64);
    out.u64(head_len as u64);
    out.u64(0);
}

/// Writes the FNV-1a checksum of an image's head — as long as its header
/// says, within the buffer — into the header, in place.
pub(crate) fn reseal(out: &mut [u8]) {
    let head_len = u64::from_le_bytes(word(out, IMAGE_HEAD_LEN_OFFSET));
    let start = IMAGE_HEADER_LEN.min(out.len());
    let end =
        usize::try_from(head_len).map_or(out.len(), |n| start.saturating_add(n).min(out.len()));
    let sum = fnv1a64(&out[start..end]);
    out[IMAGE_CHECKSUM_OFFSET..IMAGE_CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
}

fn word(buf: &[u8], at: usize) -> [u8; 8] {
    buf[at..at + 8].try_into().expect("an 8-byte header word")
}

/// Validates the fixed image header — magic, version, lengths, trailing
/// bytes, the FNV-1a checksum of the head — and returns the authenticated
/// head and the chunk section behind it.
pub(crate) fn validate_image_header(buf: &[u8]) -> Result<(&[u8], &[u8]), ImageError> {
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
    let payload_len = usize::try_from(h.u64("payload length").expect("sized above"))
        .map_err(|_| ImageError::Malformed("payload length"))?;
    let head_len = usize::try_from(h.u64("head length").expect("sized above"))
        .map_err(|_| ImageError::Malformed("head length"))?;
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
    if head_len > payload_len {
        return Err(ImageError::Malformed("head length"));
    }
    let (head, chunks) = buf[HEADER..total].split_at(head_len);
    if fnv1a64(head) != checksum {
        return Err(ImageError::ChecksumMismatch);
    }
    Ok((head, chunks))
}

/// The checksum word of an already-serialized image's header. The caller
/// must have produced or validated `buf`; this only reads the field.
pub(crate) fn header_checksum(buf: &[u8]) -> u64 {
    u64::from_le_bytes(word(buf, IMAGE_CHECKSUM_OFFSET))
}

/// Range validation of a materialized image: the checksum authenticates
/// accidental corruption, not a hand-edited file, and every rank index in
/// the image is later used to address per-rank control state. Reject
/// out-of-range indices here so a tampered image fails with a typed error
/// instead of an out-of-bounds panic mid-restore.
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
    Ok(())
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
        e.var(v);
    }
}

pub(crate) fn dec_target_map(
    d: &mut Dec,
    what: DecodeError,
) -> Result<HashMap<Ggid, u64>, ImageError> {
    let n = d.seq_len(what)?;
    let mut m = HashMap::with_capacity(n);
    for _ in 0..n {
        m.insert(Ggid(d.u64(what)?), d.var(what)?);
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
/// is implicitly bounded by the buffer (a byte or more per member), but a
/// range is two varints regardless of length — without a cap, a corrupted
/// image could demand an arbitrarily large allocation before any member is
/// validated. 2^24 ranks is two orders of magnitude past the largest
/// supported world.
const MAX_RANGE_MEMBERS: usize = 1 << 24;

/// How one reference to a group member list is written. A function of the
/// list's content alone — never of which allocation holds it, or of what
/// else the image contains — so equal stable halves encode to one chunk,
/// in any image of any generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MemberRef {
    /// A contiguous ascending run (the world group, every identity
    /// subrange): tag `1`, then `(start, len)`.
    Range { start: usize, len: usize },
    /// Any other list — strided, or in group order — by content id into
    /// the image's member-list table: tag `0`, then the 8-byte id. The id
    /// is FNV-1a over the list's length, then its members, each as a
    /// little-endian 64-bit word — whatever width the wire gives them;
    /// the same FNV-64 trust the chunk store places in
    /// [`crate::ChunkRef`].
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
/// cache and the decode-side group-id cache key by. Only meaningful while
/// the allocation is alive.
fn alloc_addr(m: &Arc<[usize]>) -> usize {
    Arc::as_ptr(m) as *const usize as usize
}

/// An image's member-list table: every non-contiguous list it references,
/// by content id.
pub type MemberTable = BTreeMap<u64, Arc<[usize]>>;

/// Writes a member-list table: entry count, then `(id, list)` ascending
/// by id.
pub(crate) fn enc_table<W: Wr>(e: &mut W, table: &MemberTable) {
    e.usize(table.len());
    for (id, m) in table {
        e.u64(*id);
        enc_usize_list(e, m);
    }
}

/// The member lists of one image, interned by content: range-form lists
/// by `(start, len)`, every other list by content id — the image's
/// member-list table.
///
/// Decoding resolves each reference through it, so all references to one
/// list share one allocation (decode memory stays O(ranks + members) like
/// the live runtime's `Arc<[usize]>` sharing) and every distinct list is
/// range-checked against the world size exactly once. Encoding
/// [`note`](Self::note)s each reference as the chunk that holds it is
/// written: a shared allocation is found by address in O(1), and is
/// scanned and hashed once however many references share it.
pub(crate) struct MemberIntern {
    n_ranks: usize,
    ranges: FoldMap<(usize, usize), Arc<[usize]>>,
    /// The table; `BTreeMap` order is the canonical wire order.
    lists: MemberTable,
    /// Encode-side cache: the verdict on every shared allocation noted so
    /// far, by address, and the group id of a group's list once checked.
    /// Holding the allocation keeps the address from being reused while
    /// the cache lives. Never the identity of a list: two equal lists in
    /// separate allocations get the same reference.
    noted: FoldMap<usize, Noted>,
    /// Decode-side cache: the group id of every group list resolved so
    /// far, by the address of the one allocation its references share
    /// (which the table holds), so each distinct list is hashed once.
    ggids: FoldMap<usize, Ggid>,
    /// The last groups resolved, most recent first: each rank's sequence
    /// entries name the handful of groups the rank before it named, so
    /// most references are found here without hashing.
    recent: Vec<(MemberRef, Arc<[usize]>, Ggid)>,
}

/// An allocation [`MemberIntern`] has noted: held (so its address stays
/// its own), its reference form, and its group id once checked.
type Noted = (Arc<[usize]>, MemberRef, Option<Ggid>);

/// How many groups [`MemberIntern::recent`] remembers.
const RECENT_GROUPS: usize = 8;

impl MemberIntern {
    /// An empty table for an `n_ranks`-rank image.
    pub(crate) fn new(n_ranks: usize) -> Self {
        MemberIntern {
            n_ranks,
            ranges: FoldMap::default(),
            lists: BTreeMap::new(),
            noted: FoldMap::default(),
            ggids: FoldMap::default(),
            recent: Vec::with_capacity(RECENT_GROUPS),
        }
    }

    /// Notes a list the image being encoded references and returns its
    /// reference form. `group` is the group id a sequence-table entry
    /// files the list under, which the wire does not write.
    ///
    /// # Panics
    /// Panics if `group` is not the list's group id (or the list is not
    /// sorted, as every group list is): the image would decode to another
    /// group. Panics if two different lists of one image share an FNV-64
    /// content id — the content-address trust model failing, loudly
    /// rather than as an image that decodes to the wrong group.
    pub(crate) fn note(&mut self, m: &Arc<[usize]>, group: Option<Ggid>) -> MemberRef {
        // An allocation held at most twice — by one chunk's reference and
        // the checkpoint's cut, say — has at most one more reference to
        // hit a cache entry: it is not worth one. A live run's lists are
        // held by every rank of their group.
        let shared = Arc::strong_count(m) > 2;
        let hit = shared.then(|| self.noted.get_mut(&alloc_addr(m))).flatten();
        if let Some((_, r, id)) = hit {
            check_group(group, m, id);
            return *r;
        }
        let r = MemberRef::of(m);
        if let MemberRef::Listed(id) = r {
            self.add_listed(id, m);
        }
        let mut id = None;
        check_group(group, m, &mut id);
        if shared {
            self.noted.insert(alloc_addr(m), (Arc::clone(m), r, id));
        }
        r
    }

    /// Files `m` in the table under `id`.
    ///
    /// # Panics
    /// Panics if a different list already holds `id` (see
    /// [`note`](Self::note)).
    fn add_listed(&mut self, id: u64, m: &Arc<[usize]>) {
        let held = self.lists.entry(id).or_insert_with(|| Arc::clone(m));
        assert!(
            held == m,
            "distinct member lists of one image have distinct content ids"
        );
    }

    /// Adds the table of another encoder of the same image — a parallel
    /// worker's.
    pub(crate) fn absorb(&mut self, other: MemberIntern) {
        for (id, m) in &other.lists {
            self.add_listed(*id, m);
        }
    }

    /// A table holding `table`'s lists under their ids, which the caller
    /// vouches for (the decoder verified them, or an encoder computed
    /// them).
    pub(crate) fn with_table(n_ranks: usize, table: &MemberTable) -> Self {
        let mut lists = MemberIntern::new(n_ranks);
        lists.lists = table.clone();
        lists
    }

    /// The table, in canonical (content id) order.
    pub(crate) fn table(&self) -> &MemberTable {
        &self.lists
    }

    /// Reads a table written by [`enc_table`], checking what the encoder
    /// guarantees: ids strictly ascending (so no id names two lists),
    /// every entry's content hashing to its id and not in range form,
    /// every member inside the world. Unless `keep`, the entries are
    /// checked and not held.
    pub(crate) fn dec_table(&mut self, d: &mut Dec, keep: bool) -> Result<(), ImageError> {
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
            if keep {
                self.lists.insert(id, list.into());
            }
        }
        Ok(())
    }

    /// Resolves a decoded reference to a group's shared list and derives
    /// the group id; `what` names a list that is not a group's.
    fn resolve_group(
        &mut self,
        r: MemberRef,
        what: DecodeError,
    ) -> Result<(Arc<[usize]>, Ggid), ImageError> {
        if let Some(at) = self.recent.iter().position(|(k, ..)| *k == r) {
            let (_, m, g) = &self.recent[at];
            return Ok((Arc::clone(m), *g));
        }
        let m = self.resolve(r, what)?;
        let g = match self.ggids.get(&alloc_addr(&m)) {
            Some(&g) => g,
            None => {
                let g = group_id(&m).ok_or(ImageError::Malformed(what))?;
                *self.ggids.entry(alloc_addr(&m)).or_insert(g)
            }
        };
        self.recent.truncate(RECENT_GROUPS - 1);
        self.recent.insert(0, (r, Arc::clone(&m), g));
        Ok((m, g))
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

/// The group id of a group's member list, which is sorted; a list that is
/// not strictly ascending names no group.
fn group_id(m: &[usize]) -> Option<Ggid> {
    m.windows(2).all(|w| w[0] < w[1]).then(|| ggid_of_sorted(m))
}

/// Checks that `group`, if any, is the group id of `m`, derived once per
/// allocation (`id` caches it); see [`MemberIntern::note`].
fn check_group(group: Option<Ggid>, m: &[usize], id: &mut Option<Ggid>) {
    let Some(g) = group else { return };
    let derived = *id.get_or_insert_with(|| {
        group_id(m).unwrap_or_else(|| {
            panic!("group {g} has an unsorted member list; the wire cannot carry it")
        })
    });
    assert_eq!(
        derived, g,
        "group id {g} is not the group id of its member list; the wire cannot carry it"
    );
}

fn enc_member_ref<W: Wr>(e: &mut W, r: MemberRef) {
    match r {
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

fn dec_member_ref(d: &mut Dec, what: DecodeError) -> Result<MemberRef, ImageError> {
    Ok(match d.u8(what)? {
        0 => MemberRef::Listed(d.u64(what)?),
        1 => MemberRef::Range {
            start: d.usize(what)?,
            len: d.usize(what)?,
        },
        _ => return Err(ImageError::Malformed(what)),
    })
}

pub(crate) fn dec_members(
    d: &mut Dec,
    lists: &mut MemberIntern,
    what: DecodeError,
) -> Result<Arc<[usize]>, ImageError> {
    let r = dec_member_ref(d, what)?;
    lists.resolve(r, what)
}

/// Reads a group's member-list reference: the shared list and the group
/// id derived from it.
fn dec_group(
    d: &mut Dec,
    lists: &mut MemberIntern,
    what: DecodeError,
) -> Result<(Arc<[usize]>, Ggid), ImageError> {
    let r = dec_member_ref(d, what)?;
    lists.resolve_group(r, what)
}

fn enc_counters<W: Wr>(e: &mut W, c: &CallCounters) {
    e.var(c.coll_blocking);
    e.var(c.coll_nonblocking);
    e.var(c.p2p_sends);
    e.var(c.p2p_recvs);
    e.var(c.completions);
    e.var(c.comm_mgmt);
    e.var(c.trivial_barriers);
}

fn dec_counters(d: &mut Dec) -> Result<CallCounters, ImageError> {
    Ok(CallCounters {
        coll_blocking: d.var("coll_blocking")?,
        coll_nonblocking: d.var("coll_nonblocking")?,
        p2p_sends: d.var("p2p_sends")?,
        p2p_recvs: d.var("p2p_recvs")?,
        completions: d.var("completions")?,
        comm_mgmt: d.var("comm_mgmt")?,
        trivial_barriers: d.var("trivial_barriers")?,
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
            e.var(u64::from(v));
        }
    }
}

fn dec_tag(d: &mut Dec) -> Result<TagSel, ImageError> {
    match d.u8("tag selector")? {
        0 => Ok(TagSel::Any),
        1 => Ok(TagSel::Tag(dec_tag_value(d, "tag value")?)),
        _ => Err(ImageError::Malformed("tag selector tag")),
    }
}

/// Reads a message tag written as a varint; a value past `u32` is
/// malformed.
fn dec_tag_value(d: &mut Dec, what: DecodeError) -> Result<u32, ImageError> {
    u32::try_from(d.var(what)?).map_err(|_| ImageError::Malformed(what))
}

fn enc_comm_op<W: Wr>(e: &mut W, r: &CommOpRecord) {
    match &r.op {
        CommOp::Dup { parent } => {
            e.u8(0);
            e.var(parent.0);
        }
        CommOp::Split { parent, color, key } => {
            e.u8(1);
            e.var(parent.0);
            e.ivar(*color);
            e.ivar(*key);
        }
        CommOp::Create { parent, members } => {
            e.u8(2);
            e.var(parent.0);
            enc_usize_list(e, members);
        }
    }
    match r.result {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            e.var(v.0);
        }
    }
}

fn dec_comm_op(d: &mut Dec) -> Result<CommOpRecord, ImageError> {
    let op = match d.u8("comm-op tag")? {
        0 => CommOp::Dup {
            parent: VComm(d.var("dup parent")?),
        },
        1 => CommOp::Split {
            parent: VComm(d.var("split parent")?),
            color: d.ivar("split color")?,
            key: d.ivar("split key")?,
        },
        2 => CommOp::Create {
            parent: VComm(d.var("create parent")?),
            members: dec_usize_list(d, "create members")?,
        },
        _ => return Err(ImageError::Malformed("comm-op tag")),
    };
    let result = match d.u8("comm-op result tag")? {
        0 => None,
        1 => Some(VComm(d.var("comm-op result")?)),
        _ => return Err(ImageError::Malformed("comm-op result tag")),
    };
    Ok(CommOpRecord { op, result })
}

/// Encodes the restart-stable half of a rank capture: sequence table
/// (each entry its sequence number and its group's member list, in group
/// id order — the id is the list's), communicator creation log, pending
/// receives, call counters, and each vcomm's member list. This is exactly
/// the byte span delta images content-address — two ranks whose stable
/// halves encode identically share one chunk. Both maps are written in
/// the order they are kept in, ascending by key. Each list is noted in
/// `lists` as it is written.
pub(crate) fn enc_capture_stable<W: Wr>(e: &mut W, lists: &mut MemberIntern, c: &RuntimeCapture) {
    e.usize(c.seq_table.len());
    for (&g, x) in c.seq_table.iter() {
        e.var(x.seq);
        enc_member_ref(e, lists.note(&x.members, Some(g)));
    }
    e.usize(c.comm_log.len());
    for r in &c.comm_log {
        enc_comm_op(e, r);
    }
    e.usize(c.pending_recvs.len());
    for p in &c.pending_recvs {
        e.var(p.vreq);
        e.var(p.vcomm);
        enc_src(e, p.src);
        enc_tag(e, p.tag);
    }
    enc_counters(e, &c.counters);
    e.usize(c.vcomm_members.len());
    for (&v, m) in c.vcomm_members.iter() {
        e.var(v);
        enc_member_ref(e, lists.note(m, None));
    }
}

/// Fills the restart-stable half of `c` — a rank's decoded record — from
/// its stable chunk, read from `d`. Both maps' keys must be strictly
/// ascending, as the encoder writes them: each entry is checked before it
/// is appended, so a chunk decodes to one canonical capture or to an
/// error.
pub(crate) fn dec_capture(
    d: &mut Dec,
    lists: &mut MemberIntern,
    c: &mut RuntimeCapture,
) -> Result<(), ImageError> {
    let n_seq = d.seq_len("seq-table length")?;
    let mut seq_table = SeqTable::with_capacity(n_seq);
    let mut prev: Option<Ggid> = None;
    for _ in 0..n_seq {
        let s = d.var("seq-table seq")?;
        let (members, g) = dec_group(d, lists, "seq-table members")?;
        if prev.is_some_and(|p| p >= g) {
            return Err(ImageError::Malformed("seq-table order"));
        }
        prev = Some(g);
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
            vreq: d.var("pending-recv vreq")?,
            vcomm: d.var("pending-recv vcomm")?,
            src: dec_src(d)?,
            tag: dec_tag(d)?,
        });
    }
    let counters = dec_counters(d)?;
    let n_members = d.seq_len("vcomm-member count")?;
    let mut vcomm_members = VCommMembers::with_capacity(n_members);
    let mut prev: Option<u64> = None;
    for _ in 0..n_members {
        let v = d.var("vcomm member key")?;
        if prev.is_some_and(|p| p >= v) {
            return Err(ImageError::Malformed("vcomm-member order"));
        }
        prev = Some(v);
        vcomm_members.insert(v, dec_members(d, lists, "vcomm member list")?);
    }
    (c.seq_table, c.comm_log, c.pending_recvs) = (seq_table, comm_log, pending_recvs);
    (c.counters, c.vcomm_members) = (counters, vcomm_members);
    Ok(())
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
        // `Arc`'s equality compares by allocation first, like `SeqEntry`:
        // consecutive captures of one run share their lists.
        && a.vcomm_members == b.vcomm_members
}

/// Writes a rank's upper half: tag `0` for none; else tag `1`, the next
/// request id, the ready results `(vreq, index of the output in the
/// image's output table)`, the held sends `(vreq, completion time)`, then
/// the body's snapshot bytes.
pub(crate) fn enc_upper<W: Wr>(e: &mut W, u: Option<&UpperHalf>, output: impl Fn(&[u8]) -> u64) {
    let Some(u) = u else {
        e.u8(0);
        return;
    };
    e.u8(1);
    e.var(u.next_vreq);
    e.usize(u.ready.len());
    for (v, data) in &u.ready {
        e.var(*v);
        e.var(output(data));
    }
    e.usize(u.sends.len());
    for (v, at) in &u.sends {
        e.var(*v);
        e.f64(at.as_secs());
    }
    e.bytes(&u.body);
}

/// Reads an upper half written by [`enc_upper`], checking what the encoder
/// guarantees: request ids strictly ascending within each list and below
/// the next id, every output index one `output` accepts (it returns the
/// entry's position in the output table). With `kept`, the table's
/// entries, the half is built; without, it is checked only, and `None`
/// comes back.
pub(crate) fn dec_upper(
    d: &mut Dec,
    mut output: impl FnMut(u64) -> Option<usize>,
    kept: Option<&[bytes::Bytes]>,
) -> Result<Option<UpperHalf>, ImageError> {
    match d.u8("upper-half tag")? {
        0 => return Ok(None),
        1 => {}
        _ => return Err(ImageError::Malformed("upper-half tag")),
    }
    let next_vreq = d.var("upper-half next vreq")?;
    let mut ready = Vec::new();
    dec_vreq_list(d, next_vreq, "upper-half ready vreq", |d, v| {
        let at = d.var("upper-half ready output")?;
        let at = output(at).ok_or(ImageError::Malformed("upper-half ready output"))?;
        ready.extend(kept.map(|outputs| (v, outputs[at].clone())));
        Ok(())
    })?;
    let mut sends = Vec::new();
    dec_vreq_list(d, next_vreq, "upper-half send vreq", |d, v| {
        let at = dec_vtime(d, "upper-half send completion")?;
        sends.extend(kept.map(|_| (v, at)));
        Ok(())
    })?;
    let body = d.bytes("upper-half body")?;
    if kept.is_none() {
        return Ok(None);
    }
    let body = body.to_vec();
    Ok(Some(UpperHalf {
        body,
        next_vreq,
        ready,
        sends,
    }))
}

/// Reads a count, then that many items keyed by request id, the ids
/// strictly ascending and below `next`; `item` reads the rest of each.
fn dec_vreq_list(
    d: &mut Dec,
    next: u64,
    what: DecodeError,
    mut item: impl FnMut(&mut Dec, u64) -> Result<(), ImageError>,
) -> Result<(), ImageError> {
    let n = d.seq_len(what)?;
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let v = d.var(what)?;
        if v >= next || prev.is_some_and(|p| p >= v) {
            return Err(ImageError::Malformed(what));
        }
        prev = Some(v);
        item(d, v)?;
    }
    Ok(())
}

pub(crate) fn enc_drained<W: Wr>(e: &mut W, m: &DrainedMsg) {
    e.usize(m.saved.src_world);
    e.usize(m.saved.dst_world);
    e.var(m.saved.vcomm);
    e.var(u64::from(m.saved.tag));
    e.bytes(&m.saved.payload);
    e.var(m.saved.seq);
    e.f64(m.arrival.as_secs());
}

fn dec_drained(d: &mut Dec) -> Result<DrainedMsg, ImageError> {
    Ok(DrainedMsg {
        saved: SavedMsg {
            src_world: d.usize("msg src")?,
            dst_world: d.usize("msg dst")?,
            vcomm: d.var("msg vcomm")?,
            tag: dec_tag_value(d, "msg tag")?,
            payload: bytes::Bytes::from(d.bytes("msg payload")?.to_vec()),
            seq: d.var("msg seq")?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use mana_core::{Node, RankState};

    /// A 2-rank CC image with no captures.
    fn ckpt() -> Checkpoint {
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
            captures: Vec::new(),
            in_flight: Vec::new(),
            cut_events: Cut::default(),
            io_write_secs: 0.0,
            io_read_secs: 0.0,
        }
    }

    /// A quiesced capture of `rank` holding `seq_table` and nothing else.
    fn capture(rank: usize, seq_table: SeqTable) -> RuntimeCapture {
        RuntimeCapture {
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
            vcomm_members: VCommMembers::new(),
            upper: None,
        }
    }

    /// The 2-rank image whose ranks hold `seqs[r]` on the group `{0, 1}`,
    /// drained to a final target of 1 on it.
    fn pair(seqs: [u64; 2]) -> Checkpoint {
        let g = ggid_of_sorted(&[0, 1]);
        let mut c = ckpt();
        for (rank, seq) in seqs.into_iter().enumerate() {
            let mut t = SeqTable::new();
            t.restore(g, seq, vec![0, 1]);
            c.captures.push(capture(rank, t));
        }
        c.final_targets.insert(g, 1);
        c
    }

    /// `cut()` reads the tables in the order they keep, which is the cut's
    /// canonical order whatever order the groups were entered in: tables
    /// filled in descending group id give the cut `Cut::from_runs` sorts
    /// the same runs into, and it passes the oracle.
    #[test]
    fn cut_of_tables_filled_in_any_order_is_canonical() {
        let groups: Vec<(Ggid, Arc<[usize]>)> = [&[0, 1, 2, 3][..], &[0, 2], &[1, 3], &[0, 1]]
            .iter()
            .map(|m| (ggid_of_sorted(m), Arc::from(*m)))
            .collect();
        let mut descending = groups.clone();
        descending.sort_by_key(|(g, _)| std::cmp::Reverse(*g));
        let mut c = ckpt();
        let mut runs = Vec::new();
        for rank in 0..4 {
            let mut t = SeqTable::new();
            for (g, m) in descending.iter().filter(|(_, m)| m.contains(&rank)) {
                let seq = m.len() as u64;
                t.restore(*g, seq, Arc::clone(m));
                runs.push(CutRun {
                    rank,
                    ggid: *g,
                    first: 1,
                    last: seq,
                    members: Arc::clone(m),
                });
            }
            c.captures.push(capture(rank, t));
        }
        for (g, m) in &groups {
            c.final_targets.insert(*g, m.len() as u64);
        }
        runs.reverse();
        assert_eq!(c.cut(), Cut::from_runs(runs));
        assert!(c.verify().is_ok());
    }

    #[test]
    fn verify_accepts_consistent_cut() {
        assert!(pair([1, 1]).verify().is_ok());
        assert!(pair([0, 0]).verify().is_ok(), "an unvisited group");
        let c = pair([1, 1]);
        let cut = c.cut();
        assert_eq!(cut.len(), 2);
        let m = c.captures[1].seq_table.iter().next().unwrap().1;
        assert!(Arc::ptr_eq(&cut.runs()[1].members, &m.members));
    }

    #[test]
    fn verify_rejects_partial_visit() {
        for protocol in [Protocol::Cc, Protocol::TwoPhase] {
            let c = Checkpoint {
                protocol,
                ..pair([1, 0])
            };
            assert!(matches!(
                c.verify().unwrap_err()[0],
                Violation::PartiallyVisited(..)
            ));
        }
    }

    #[test]
    fn verify_reads_final_targets_under_cc_only() {
        let g = ggid_of_sorted(&[0, 1]);
        let beyond = |c: &Checkpoint, target: u64| {
            let err = c.verify().unwrap_err();
            let node = Node {
                ggid: g,
                seq: target + 1,
            };
            err.contains(&Violation::BeyondTarget(0, node, target))
        };
        // Both members past the final target: consistent, but not the
        // state the drain ran to.
        let c = pair([2, 2]);
        assert!(beyond(&c, 1));
        // A group with SEQ > 0 and no final target counts as target 0.
        let mut c = pair([1, 1]);
        c.final_targets.clear();
        assert!(beyond(&c, 0));
        // 2PC has no targets: all-or-none alone.
        for seqs in [[2, 2], [1, 1]] {
            let mut c = pair(seqs);
            c.protocol = Protocol::TwoPhase;
            c.final_targets.clear();
            assert_eq!(c.verify(), Ok(()));
        }
    }

    #[test]
    fn targets_exactly_reached_checks_equality() {
        let mut c = pair([1, 1]);
        assert_eq!(c.achieved(), [(ggid_of_sorted(&[0, 1]), 1)].into());
        assert!(c.targets_exactly_reached());
        c.final_targets.insert(ggid_of_sorted(&[0, 1]), 2);
        assert!(!c.targets_exactly_reached());
    }

    /// The group id of a sorted member list: what every group's entry in
    /// an image must carry.
    fn gid(members: &[usize]) -> u64 {
        ggid_of_sorted(members).0
    }

    fn upper(rank: usize) -> UpperHalf {
        UpperHalf {
            body: vec![7, rank as u8, 0xFF],
            next_vreq: 9,
            ready: vec![(2, bytes::Bytes::from_static(b"iallreduce out"))],
            sends: vec![(4, VTime::from_micros(1.5)), (8, VTime::from_micros(2.0))],
        }
    }

    fn rich_ckpt() -> Checkpoint {
        let (g01, g0) = (gid(&[0, 1]), gid(&[0]));
        let mut seq_table = SeqTable::new();
        seq_table.restore(Ggid(g01), 4, vec![0, 1]);
        seq_table.restore(Ggid(g0), 1, vec![0]);
        let mut c = ckpt();
        c.epoch = 2;
        c.initial_targets.insert(Ggid(g01), 1);
        c.final_targets.insert(Ggid(g01), 4);
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
                    completions: 2,
                    ..Default::default()
                },
                p2p_sent: 4 + rank as u64,
                p2p_delivered: 3,
                vcomm_members: [(0u64, vec![0, 1].into()), (2, vec![1, 0].into())]
                    .into_iter()
                    .collect(),
                upper: (rank == 0).then(|| upper(rank)),
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
        c.cut_events = c.cut();
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
        let outside: Vec<usize> = vec![0, 7];
        c.captures[1]
            .seq_table
            .restore(ggid_of_sorted(&outside), 1, outside);
        assert_eq!(
            Checkpoint::from_bytes(&c.to_bytes()),
            Err(ImageError::Malformed("member table entry rank"))
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

    /// An 8-rank image whose `seq_table`s and `vcomm_members` reference
    /// three lists: the world (range form) and a strided group — each
    /// group's entry under its own group id, as in a live run — and, in
    /// `vcomm_members` only, a communicator in group order (unsorted).
    /// `alloc` decides which allocation each reference gets.
    fn lists_ckpt(mut alloc: impl FnMut(&[usize]) -> Arc<[usize]>) -> Checkpoint {
        let mut c = ckpt();
        c.n_ranks = 8;
        for rank in 0..8 {
            let mut seq_table = SeqTable::new();
            for (members, seq) in [(&WORLD[..], 2), (&STRIDED, 1)] {
                let m = alloc(members);
                seq_table.restore(ggid_of_sorted(&m), seq, m);
            }
            c.captures.push(RuntimeCapture {
                vcomm_members: [
                    (0u64, alloc(&WORLD)),
                    (1, alloc(&STRIDED)),
                    (2, alloc(&GROUP_ORDER)),
                ]
                .into_iter()
                .collect(),
                ..capture(rank, seq_table)
            });
        }
        c.cut_events = c.cut();
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
        reseal(&mut bytes);
        bytes
    }

    /// Both entry points refuse `bytes` with `Malformed(what)`.
    fn assert_malformed(bytes: &[u8], what: &str) {
        for got in [
            Checkpoint::from_bytes(bytes).err(),
            DeltaImage::from_bytes(bytes).err(),
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
        assert_eq!(
            back.captures[3].vcomm_members.get(&2).unwrap()[..],
            GROUP_ORDER
        );
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
        assert_eq!(refs.len(), 8 * 5);
        for a in &refs {
            for b in &refs {
                assert_eq!(a == b, Arc::ptr_eq(a, b), "{a:?} vs {b:?}");
            }
        }
        // The cut derived from the tables holds their allocations.
        let cut = back.cut();
        let runs = cut.runs();
        assert_eq!(runs.len(), 8 * 2);
        assert!((runs.iter()).all(|r| refs.iter().any(|m| Arc::ptr_eq(m, &r.members))));
    }

    #[test]
    fn each_list_is_written_once_and_a_reference_is_nine_bytes() {
        let mut c = shared_lists_ckpt();
        // Count, then `(id, len, members…)` for the two lists that are not
        // a contiguous run; the world stays in range form. Every count,
        // length and member is below 2⁷, a one-byte varint; an id is a
        // word.
        let table = c.member_table_range();
        assert_eq!(
            table.len(),
            1 + (8 + 1 + STRIDED.len()) + (8 + 1 + GROUP_ORDER.len())
        );
        assert_eq!(
            table.end + 2,
            c.capture_section_ranges()[0].start,
            "only the (empty) output table and the capture count sit between \
             the member table and the records"
        );
        // A sequence number is one varint in its rank's chunk, however
        // many collectives it counts, with no run beside it: every rank's
        // `SEQ` on the strided group raised from 1 to 3·10⁶ (four bytes:
        // 3·10⁶ < 2²⁸) grows the one chunk the eight identical stable
        // halves share by three bytes.
        let before = c.serialized_len();
        let strided = ggid_of_sorted(&STRIDED);
        for cap in &mut c.captures {
            let members = Arc::clone(cap.seq_table.members_shared(strided).unwrap());
            cap.seq_table.restore(strided, 3_000_000, members);
        }
        assert_eq!(c.serialized_len(), before + 3);
    }

    #[test]
    fn tampered_member_tables_and_references_are_typed_errors() {
        let c = shared_lists_ckpt();
        let bytes = c.to_bytes();
        let t = c.member_table_range();
        // Entry 0 is `id, len, members…` right behind the one-byte count;
        // the order of the two entries follows their ids. Every length and
        // member is a one-byte varint.
        let first_len = usize::from(bytes[t.start + 1 + 8]);
        let second = t.start + 1 + 8 + 1 + first_len;

        // A reference to an id the table does not hold: the strided list's
        // entry spliced out of the table, its count and both header length
        // words fixed. The head names no list, so it still decodes; the
        // first chunk that names the list is refused.
        let strided_first = usize::from(bytes[t.start + 1 + 8]) == STRIDED.len();
        let entry = if strided_first {
            t.start + 1..second
        } else {
            second..t.end
        };
        let mut m = bytes.clone();
        m.drain(entry.clone());
        m[t.start] -= 1;
        for at in [IMAGE_LEN_OFFSET, IMAGE_HEAD_LEN_OFFSET] {
            let n = u64::from_le_bytes(word(&m, at)) - entry.len() as u64;
            m[at..at + 8].copy_from_slice(&n.to_le_bytes());
        }
        let m = resealed(m);
        assert!(DeltaImage::from_bytes(&m).is_ok());
        assert_eq!(
            Checkpoint::from_bytes(&m),
            Err(ImageError::Malformed("seq-table members"))
        );

        // An entry whose content no longer hashes to its id.
        let mut m = bytes.clone();
        m[t.start + 1 + 8 + 1] ^= 0x01;
        assert_malformed(&resealed(m), "member table entry vs its id");

        // One id naming two different lists.
        let mut m = bytes.clone();
        m.copy_within(t.start + 1..t.start + 9, second);
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

        // A member outside the world inside a (correctly hashed) entry is
        // met in the head's table, by both decoders; a range that runs past
        // the world, inside a rank's chunk, when the image is rebuilt.
        let outside = lists_ckpt(|v| match v {
            [0, 2, 4, 6] => [0, 2, 4, 99][..].into(),
            v => v.into(),
        });
        assert_malformed(&outside.to_bytes(), "member table entry rank");
        let overlong = lists_ckpt(|v| match v.len() {
            8 => (0..9).collect(),
            _ => v.into(),
        });
        assert_eq!(
            Checkpoint::from_bytes(&overlong.to_bytes()),
            Err(ImageError::Malformed("seq-table members"))
        );
        let mut overlong = shared_lists_ckpt();
        let past_the_world: Vec<usize> = (0..9).collect();
        for c in &mut overlong.captures {
            c.seq_table
                .restore(ggid_of_sorted(&past_the_world), 2, past_the_world.clone());
        }
        assert_eq!(
            Checkpoint::from_bytes(&overlong.to_bytes()),
            Err(ImageError::Malformed("seq-table members"))
        );

        // Pristine bytes still parse.
        assert!(Checkpoint::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn older_wire_versions_are_refused() {
        let mut bytes = rich_ckpt().to_bytes();
        for old in [4, 5, 6, 7, 8, 9, 10] {
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
