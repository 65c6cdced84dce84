//! Multi-level checkpoint storage: tiered backends + incremental images.
//!
//! The SCR/FTI multi-level design (MPI-FT-Bench's `cp2m`/`cp2a`/`cp2f`)
//! keeps most checkpoints on the cheapest viable level and escalates only
//! periodically: **memory** (node-local DRAM, fastest, dies with the
//! node), **partner** (each node's image shard mirrored to a buddy node —
//! one inter-node transfer, survives any single node loss), and
//! **Lustre** (the parallel filesystem, slowest, survives anything). The
//! [`CkptStore`] trait abstracts one level; [`TieredStore`] multiplexes
//! the three, tracks which generation landed where, resolves incremental
//! images ([`DeltaImage`]) back to full checkpoints, and simulates node
//! loss for availability tests ([`TieredStore::drop_node`]).
//!
//! Costs are modeled, like all I/O in this crate: each backend charges
//! virtual seconds from its `netmodel` tier model
//! ([`netmodel::MemoryTierModel`], [`netmodel::PartnerTierModel`],
//! [`netmodel::LustreModel`]) against an [`ImageSetLayout`]; the bytes
//! themselves are held in host memory.

pub mod delta;

pub use delta::{ChunkPool, ChunkRef, DeltaImage, ImagePayload, VolatileRecord};

use crate::image::{
    header_checksum, validate_image_header, Checkpoint, ImageError, IMAGE_HEADER_LEN,
    IMAGE_KIND_DELTA,
};
use netmodel::{LustreModel, MemoryTierModel, PartnerTierModel};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One storage level of the multi-level design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CkptTier {
    /// Node-local in-memory copy (SCR/FTI `cp2m`).
    Memory,
    /// Partner-replica: mirrored to a buddy node (`cp2a`).
    Partner,
    /// Parallel filesystem (`cp2f`).
    Lustre,
}

impl CkptTier {
    /// Stable lowercase name, used in bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            CkptTier::Memory => "memory",
            CkptTier::Partner => "partner",
            CkptTier::Lustre => "lustre",
        }
    }
}

/// The per-tier cost models plus the paper's static per-rank image size
/// (the serialized runtime state is a drop in the bucket next to the
/// application's memory image, exactly as in Figure 9's `StorageSpec`).
#[derive(Debug, Clone, PartialEq)]
pub struct TierModels {
    /// Node-local memory tier model.
    pub memory: MemoryTierModel,
    /// Partner-replica tier model.
    pub partner: PartnerTierModel,
    /// Parallel-filesystem tier model.
    pub lustre: LustreModel,
    /// Modeled full image bytes per rank (application memory image).
    pub image_bytes_per_rank: u64,
}

impl TierModels {
    /// Perlmutter-like defaults: DDR memory tier, Slingshot-11 buddy
    /// links, Lustre scratch, 398 MiB per-rank images (the paper's VASP
    /// measurement).
    pub fn perlmutter() -> Self {
        TierModels {
            memory: MemoryTierModel::ddr(),
            partner: PartnerTierModel::slingshot11(),
            lustre: LustreModel::perlmutter_scratch(),
            image_bytes_per_rank: 398 * 1024 * 1024,
        }
    }

    /// Modeled seconds to write one image set to `tier`.
    pub fn write_secs(&self, tier: CkptTier, layout: &ImageSetLayout) -> f64 {
        match tier {
            CkptTier::Memory => self.memory.write_time(layout.bytes_per_node()),
            CkptTier::Partner => self.partner.write_time(layout.bytes_per_node()),
            CkptTier::Lustre => {
                self.lustre
                    .write_time(layout.nodes, layout.files_per_node, layout.bytes_per_file)
            }
        }
    }

    /// Modeled seconds to read the same image set back from `tier`.
    pub fn read_secs(&self, tier: CkptTier, layout: &ImageSetLayout) -> f64 {
        match tier {
            CkptTier::Memory => self.memory.read_time(layout.bytes_per_node()),
            CkptTier::Partner => self.partner.read_time(layout.bytes_per_node()),
            CkptTier::Lustre => {
                self.lustre
                    .read_time(layout.nodes, layout.files_per_node, layout.bytes_per_file)
            }
        }
    }
}

impl Default for TierModels {
    fn default() -> Self {
        Self::perlmutter()
    }
}

/// How one checkpoint's image set is laid out across the machine: how
/// many nodes write, how many files each writes, and how big each file
/// is. The tier cost models consume this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageSetLayout {
    /// Nodes participating in the write.
    pub nodes: usize,
    /// Image files per node (one per resident rank).
    pub files_per_node: usize,
    /// Bytes per image file.
    pub bytes_per_file: u64,
}

impl ImageSetLayout {
    /// The layout of `total_bytes` of image data for an `n_ranks`-rank
    /// world packed `ranks_per_node` to a node: one file per rank, bytes
    /// spread evenly.
    ///
    /// # Panics
    /// Panics on a zero-rank or zero-packing world.
    pub fn packed(n_ranks: usize, ranks_per_node: usize, total_bytes: u64) -> Self {
        assert!(n_ranks > 0 && ranks_per_node > 0, "world shape");
        let nodes = n_ranks.div_ceil(ranks_per_node);
        let files_per_node = ranks_per_node.min(n_ranks);
        let files = (nodes * files_per_node) as u64;
        ImageSetLayout {
            nodes,
            files_per_node,
            bytes_per_file: total_bytes.div_ceil(files),
        }
    }

    /// Bytes one node is responsible for.
    pub fn bytes_per_node(&self) -> u64 {
        self.files_per_node as u64 * self.bytes_per_file
    }
}

/// Why a stored generation could not be produced.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The tier's copy of this generation did not survive the dropped
    /// nodes (memory dies with its node; partner dies only when a buddy
    /// pair is lost together).
    NodeLost {
        /// The tier that lost the data.
        tier: CkptTier,
        /// The dropped node that took the last copy with it.
        node: usize,
    },
    /// No generation with this number was ever stored (or it was evicted).
    UnknownGeneration(u64),
    /// The stored bytes failed image validation or chain resolution.
    Image(ImageError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NodeLost { tier, node } => {
                write!(
                    f,
                    "checkpoint data lost with node {node} on the {} tier",
                    tier.name()
                )
            }
            StoreError::UnknownGeneration(g) => write!(f, "unknown checkpoint generation {g}"),
            StoreError::Image(e) => write!(f, "stored image rejected: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ImageError> for StoreError {
    fn from(e: ImageError) -> Self {
        StoreError::Image(e)
    }
}

/// One storage level: holds serialized generations, models its write and
/// read cost, and knows which generations survive a node loss.
pub trait CkptStore: Send + Sync {
    /// Which level this is.
    fn tier(&self) -> CkptTier;

    /// Modeled virtual seconds to write one image set.
    fn write_secs(&self, layout: &ImageSetLayout) -> f64;

    /// Modeled virtual seconds to read one image set back.
    fn read_secs(&self, layout: &ImageSetLayout) -> f64;

    /// Stores `bytes` as generation `gen`, written by a world spanning
    /// `nodes` nodes (the survivability unit).
    fn put(&self, gen: u64, bytes: Vec<u8>, nodes: usize);

    /// Retrieves generation `gen`, honoring dropped-node survivability.
    /// The bytes are shared with the store, not copied: a stored
    /// generation is immutable until it is evicted or `put` again.
    fn get(&self, gen: u64) -> Result<Arc<Vec<u8>>, StoreError>;

    /// Simulates losing node `node`: every copy resident there is gone.
    fn drop_node(&self, node: usize);
}

struct StoredGen {
    /// `Arc<Vec<u8>>`, not `Arc<[u8]>`: wrapping the encoder's `Vec`
    /// moves it, converting it to a slice would copy the image once more.
    bytes: Arc<Vec<u8>>,
    nodes: usize,
}

impl StoredGen {
    fn new(bytes: Vec<u8>, nodes: usize) -> Self {
        StoredGen {
            bytes: Arc::new(bytes),
            nodes,
        }
    }
}

struct TierState {
    gens: Mutex<HashMap<u64, StoredGen>>,
    dropped: Mutex<HashSet<usize>>,
}

impl TierState {
    fn new() -> Self {
        TierState {
            gens: Mutex::new(HashMap::new()),
            dropped: Mutex::new(HashSet::new()),
        }
    }
}

/// Node-local in-memory backend: a generation survives only if *every*
/// writing node is still alive (each node holds exactly its own shard).
pub struct MemoryStore {
    model: MemoryTierModel,
    state: TierState,
}

impl MemoryStore {
    /// A memory backend with the given cost model.
    pub fn new(model: MemoryTierModel) -> Self {
        MemoryStore {
            model,
            state: TierState::new(),
        }
    }
}

impl CkptStore for MemoryStore {
    fn tier(&self) -> CkptTier {
        CkptTier::Memory
    }

    fn write_secs(&self, layout: &ImageSetLayout) -> f64 {
        self.model.write_time(layout.bytes_per_node())
    }

    fn read_secs(&self, layout: &ImageSetLayout) -> f64 {
        self.model.read_time(layout.bytes_per_node())
    }

    fn put(&self, gen: u64, bytes: Vec<u8>, nodes: usize) {
        self.state
            .gens
            .lock()
            .insert(gen, StoredGen::new(bytes, nodes));
    }

    fn get(&self, gen: u64) -> Result<Arc<Vec<u8>>, StoreError> {
        let gens = self.state.gens.lock();
        let g = gens.get(&gen).ok_or(StoreError::UnknownGeneration(gen))?;
        if let Some(&node) = self.state.dropped.lock().iter().find(|&&d| d < g.nodes) {
            return Err(StoreError::NodeLost {
                tier: CkptTier::Memory,
                node,
            });
        }
        Ok(Arc::clone(&g.bytes))
    }

    fn drop_node(&self, node: usize) {
        self.state.dropped.lock().insert(node);
    }
}

/// Partner-replica backend: node `d`'s shard is mirrored to buddy
/// `(d + 1) % nodes`, so a generation survives any set of losses that
/// leaves, for every node, either the node or its buddy alive. A
/// single-node world has no distinct buddy and cannot survive its loss.
pub struct PartnerStore {
    model: PartnerTierModel,
    state: TierState,
}

impl PartnerStore {
    /// A partner backend with the given cost model.
    pub fn new(model: PartnerTierModel) -> Self {
        PartnerStore {
            model,
            state: TierState::new(),
        }
    }

    /// The buddy holding node `d`'s replica in an `nodes`-node world.
    pub fn buddy(d: usize, nodes: usize) -> usize {
        (d + 1) % nodes
    }
}

impl CkptStore for PartnerStore {
    fn tier(&self) -> CkptTier {
        CkptTier::Partner
    }

    fn write_secs(&self, layout: &ImageSetLayout) -> f64 {
        self.model.write_time(layout.bytes_per_node())
    }

    fn read_secs(&self, layout: &ImageSetLayout) -> f64 {
        self.model.read_time(layout.bytes_per_node())
    }

    fn put(&self, gen: u64, bytes: Vec<u8>, nodes: usize) {
        self.state
            .gens
            .lock()
            .insert(gen, StoredGen::new(bytes, nodes));
    }

    fn get(&self, gen: u64) -> Result<Arc<Vec<u8>>, StoreError> {
        let gens = self.state.gens.lock();
        let g = gens.get(&gen).ok_or(StoreError::UnknownGeneration(gen))?;
        let dropped = self.state.dropped.lock();
        for &d in dropped.iter().filter(|&&d| d < g.nodes) {
            let buddy = Self::buddy(d, g.nodes);
            if buddy == d || dropped.contains(&buddy) {
                // Node d's primary and its replica are both gone.
                return Err(StoreError::NodeLost {
                    tier: CkptTier::Partner,
                    node: d,
                });
            }
        }
        Ok(Arc::clone(&g.bytes))
    }

    fn drop_node(&self, node: usize) {
        self.state.dropped.lock().insert(node);
    }
}

/// Parallel-filesystem backend: survives any node loss.
pub struct LustreStore {
    model: LustreModel,
    gens: Mutex<HashMap<u64, StoredGen>>,
}

impl LustreStore {
    /// A Lustre backend with the given cost model.
    pub fn new(model: LustreModel) -> Self {
        LustreStore {
            model,
            gens: Mutex::new(HashMap::new()),
        }
    }
}

impl CkptStore for LustreStore {
    fn tier(&self) -> CkptTier {
        CkptTier::Lustre
    }

    fn write_secs(&self, layout: &ImageSetLayout) -> f64 {
        self.model
            .write_time(layout.nodes, layout.files_per_node, layout.bytes_per_file)
    }

    fn read_secs(&self, layout: &ImageSetLayout) -> f64 {
        self.model
            .read_time(layout.nodes, layout.files_per_node, layout.bytes_per_file)
    }

    fn put(&self, gen: u64, bytes: Vec<u8>, nodes: usize) {
        self.gens.lock().insert(gen, StoredGen::new(bytes, nodes));
    }

    fn get(&self, gen: u64) -> Result<Arc<Vec<u8>>, StoreError> {
        self.gens
            .lock()
            .get(&gen)
            .map(|g| Arc::clone(&g.bytes))
            .ok_or(StoreError::UnknownGeneration(gen))
    }

    fn drop_node(&self, _node: usize) {}
}

/// Bookkeeping for one stored generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenMeta {
    /// Which tier holds the bytes.
    pub tier: CkptTier,
    /// Parent generation, for delta images.
    pub parent: Option<u64>,
    /// Serialized size in bytes.
    pub bytes: usize,
}

/// The latest stored generation, kept around so the next save can build a
/// delta against it without re-reading any tier.
struct ParentCtx {
    gen: u64,
    checksum: u64,
    image: Arc<Checkpoint>,
    known: Arc<HashSet<ChunkRef>>,
}

impl Clone for ParentCtx {
    fn clone(&self) -> Self {
        ParentCtx {
            gen: self.gen,
            checksum: self.checksum,
            image: Arc::clone(&self.image),
            known: Arc::clone(&self.known),
        }
    }
}

/// What a [`TieredStore::save`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReceipt {
    /// Generation number assigned.
    pub generation: u64,
    /// Tier the bytes landed on.
    pub tier: CkptTier,
    /// Serialized size in bytes.
    pub bytes: usize,
    /// Parent generation if this save produced a delta image.
    pub delta_parent: Option<u64>,
    /// Inline chunks the delta carried (full saves report every rank).
    pub new_chunks: usize,
}

/// The three backends behind one generation-numbered namespace, plus the
/// delta-chain machinery: save full or incremental images to a chosen
/// tier, load any generation back (resolving delta chains), and simulate
/// node loss.
pub struct TieredStore {
    models: TierModels,
    memory: MemoryStore,
    partner: PartnerStore,
    lustre: LustreStore,
    meta: Mutex<HashMap<u64, GenMeta>>,
    latest: Mutex<Option<ParentCtx>>,
    next_gen: AtomicU64,
}

impl TieredStore {
    /// A store with the given cost models and an empty namespace.
    pub fn new(models: TierModels) -> Self {
        TieredStore {
            memory: MemoryStore::new(models.memory.clone()),
            partner: PartnerStore::new(models.partner.clone()),
            lustre: LustreStore::new(models.lustre.clone()),
            models,
            meta: Mutex::new(HashMap::new()),
            latest: Mutex::new(None),
            next_gen: AtomicU64::new(0),
        }
    }

    /// The cost models this store charges.
    pub fn models(&self) -> &TierModels {
        &self.models
    }

    /// The backend for `tier`.
    pub fn backend(&self, tier: CkptTier) -> &dyn CkptStore {
        match tier {
            CkptTier::Memory => &self.memory,
            CkptTier::Partner => &self.partner,
            CkptTier::Lustre => &self.lustre,
        }
    }

    /// The generation number the next save will be assigned.
    pub fn next_generation(&self) -> u64 {
        self.next_gen.load(Ordering::SeqCst)
    }

    /// The latest stored generation and its resolved image, if any.
    pub fn latest(&self) -> Option<(u64, Arc<Checkpoint>)> {
        self.latest
            .lock()
            .as_ref()
            .map(|p| (p.gen, Arc::clone(&p.image)))
    }

    /// Stored generation numbers, ascending.
    pub fn generations(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.meta.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Bookkeeping for one generation.
    pub fn meta(&self, gen: u64) -> Option<GenMeta> {
        self.meta.lock().get(&gen).copied()
    }

    /// Serializes `image` and stores it on `tier` as the next generation.
    /// With `want_delta`, and when a same-shape parent generation exists,
    /// an incremental image is built against it (chunks already derivable
    /// from the ancestor chain are dedup'd away); otherwise a full image
    /// is written, encoded on up to `encode_workers` threads.
    pub fn save(
        &self,
        tier: CkptTier,
        image: Arc<Checkpoint>,
        want_delta: bool,
        encode_workers: usize,
    ) -> SaveReceipt {
        let gen = self.next_gen.fetch_add(1, Ordering::SeqCst);
        let parent = self.latest.lock().clone();
        let nodes = image.n_ranks.div_ceil(image.origin.ranks_per_node);

        let as_delta = parent
            .as_ref()
            .filter(|p| want_delta && p.image.n_ranks == image.n_ranks);
        let (bytes, delta_parent, new_chunk_count, known) = match as_delta {
            Some(p) => {
                let d = DeltaImage::build(gen, p.gen, p.checksum, &p.image, &p.known, &image);
                let mut known: HashSet<ChunkRef> = (*p.known).clone();
                known.extend(d.rank_refs.iter().copied());
                known.insert(d.in_flight_ref);
                (d.to_bytes(), Some(p.gen), d.new_chunks.len(), known)
            }
            None => {
                // The chunks descendants will dedup against, hashed where
                // they already lie in the bytes just written.
                let bytes = image.to_bytes_parallel(encode_workers);
                let (_, chunks) = Checkpoint::payload_chunks(&bytes[IMAGE_HEADER_LEN..])
                    .expect("the encoder's own output has the encoder's layout");
                let refs = chunks.iter().map(|c| delta::chunk_ref(c)).collect();
                let n = chunks.len();
                (bytes, None, n, refs)
            }
        };

        let checksum = header_checksum(&bytes);
        let receipt = SaveReceipt {
            generation: gen,
            tier,
            bytes: bytes.len(),
            delta_parent,
            new_chunks: new_chunk_count,
        };
        self.backend(tier).put(gen, bytes, nodes);
        self.meta.lock().insert(
            gen,
            GenMeta {
                tier,
                parent: delta_parent,
                bytes: receipt.bytes,
            },
        );
        *self.latest.lock() = Some(ParentCtx {
            gen,
            checksum,
            image,
            known: Arc::new(known),
        });
        receipt
    }

    /// Loads generation `gen` back as a full checkpoint, resolving a
    /// delta chain through its ancestors if needed. Survivability is per
    /// chain element: a memory-tier ancestor lost with its node fails the
    /// whole load with [`StoreError::NodeLost`].
    ///
    /// Every element of the chain is authenticated byte for byte; only
    /// the requested generation is decoded. An ancestor is asked for
    /// nothing but its chunks: a delta's are inline, the full root's are
    /// sliced out of its stored bytes.
    pub fn load(&self, gen: u64) -> Result<Checkpoint, StoreError> {
        let mut pool = ChunkPool::new();
        // The requested generation, once it turns out to be a delta, and
        // `(generation, parent checksum)` of the delta whose parent is
        // fetched next.
        let mut leaf: Option<DeltaImage> = None;
        let mut child: Option<(u64, u64)> = None;
        let mut cur = gen;
        loop {
            let meta = self.meta(cur).ok_or(match child {
                None => StoreError::UnknownGeneration(gen),
                Some((generation, _)) => StoreError::Image(ImageError::DanglingParent {
                    generation,
                    parent: cur,
                }),
            })?;
            let bytes = self.backend(meta.tier).get(cur)?;
            let (payload, checksum) = validate_image_header(&bytes)?;
            if child.is_some_and(|(_, parent_checksum)| parent_checksum != checksum) {
                return Err(ImageError::DeltaChain("parent checksum mismatch").into());
            }
            let world_size = |n_ranks: usize| match &leaf {
                Some(l) if l.n_ranks != n_ranks => {
                    Err(ImageError::DeltaChain("parent world size mismatch"))
                }
                _ => Ok(()),
            };
            if payload.first() == Some(&IMAGE_KIND_DELTA) {
                let d = DeltaImage::dec_payload(payload)?;
                if d.generation != cur {
                    return Err(ImageError::DeltaChain("stored generation mismatch").into());
                }
                if d.parent_generation >= cur {
                    // A parent must predate its child; anything else
                    // is a forged ref that could cycle forever.
                    return Err(ImageError::DeltaChain("parent generation not older").into());
                }
                world_size(d.n_ranks)?;
                pool.absorb_delta(&d);
                child = Some((cur, d.parent_checksum));
                cur = d.parent_generation;
                leaf.get_or_insert(d);
                continue;
            }
            // A full image: the one asked for, or the chain's root.
            let Some(leaf) = &leaf else {
                return Ok(Checkpoint::dec_payload(payload)?);
            };
            let (n_ranks, chunks) = Checkpoint::payload_chunks(payload)?;
            world_size(n_ranks)?;
            chunks.into_iter().for_each(|c| pool.absorb_chunk(c));
            return Ok(leaf.materialize(&pool)?);
        }
    }

    /// Modeled seconds to read generation `gen` back from its tier under
    /// `layout` (delta chains also pay each ancestor's share,
    /// proportional to stored bytes).
    pub fn read_secs(&self, gen: u64, layout: &ImageSetLayout) -> f64 {
        let metas = self.meta.lock();
        let Some(leaf) = metas.get(&gen) else {
            return 0.0;
        };
        // Scale the full-layout read by each element's stored fraction.
        let full_bytes: u64 = layout.nodes as u64 * layout.bytes_per_node();
        let mut total = 0.0;
        let mut cur = Some((gen, *leaf));
        while let Some((_, meta)) = cur {
            let frac = if full_bytes == 0 {
                1.0
            } else {
                (meta.bytes as f64 / full_bytes as f64).min(1.0)
            };
            let base = self.backend(meta.tier).read_secs(layout);
            total += base * frac.max(f64::MIN_POSITIVE);
            cur = meta.parent.and_then(|p| metas.get(&p).map(|m| (p, *m)));
        }
        total
    }

    /// Simulates losing `node`: memory-tier copies on it are gone, and
    /// partner-tier generations survive only through buddy replicas.
    pub fn drop_node(&self, node: usize) {
        self.memory.drop_node(node);
        self.partner.drop_node(node);
        self.lustre.drop_node(node);
    }

    /// Evicts generation `gen` from its tier and the namespace — the
    /// retention knob. Descendant deltas that still reference it will
    /// fail to load with [`ImageError::DanglingParent`].
    pub fn evict(&self, gen: u64) {
        if let Some(meta) = self.meta.lock().remove(&gen) {
            match meta.tier {
                CkptTier::Memory => self.memory.state.gens.lock().remove(&gen),
                CkptTier::Partner => self.partner.state.gens.lock().remove(&gen),
                CkptTier::Lustre => self.lustre.gens.lock().remove(&gen),
            };
        }
    }
}

impl Default for TieredStore {
    fn default() -> Self {
        Self::new(TierModels::perlmutter())
    }
}

/// Attaches tiered, optionally incremental, optionally asynchronous
/// storage to a checkpoint run (see
/// [`crate::CkptOptions::with_tiering`]). The store is shared by
/// reference so tests and the recovery path can load generations back
/// after the run.
#[derive(Clone)]
pub struct Tiering {
    /// The shared store.
    pub store: Arc<TieredStore>,
    /// Which tier each committed checkpoint lands on.
    pub schedule: crate::policy::TierSchedule,
    /// When to write incremental images instead of full ones.
    pub delta: crate::policy::DeltaPolicy,
    /// Retire encode+write on a background drain, charging ranks only
    /// the clone-out (plus back-pressure when a trigger outruns the
    /// previous drain). Restart-mode checkpoints always drain
    /// synchronously — the world is down while the image writes.
    pub async_drain: bool,
}

impl Tiering {
    /// Tiering that writes every checkpoint as a full image to `tier` of
    /// a fresh Perlmutter-modeled store, synchronously.
    pub fn fixed(tier: CkptTier) -> Self {
        Tiering {
            store: Arc::new(TieredStore::default()),
            schedule: crate::policy::TierSchedule::Fixed(tier),
            delta: crate::policy::DeltaPolicy::Never,
            async_drain: false,
        }
    }

    /// Tiering over a caller-owned store.
    pub fn with_store(mut self, store: Arc<TieredStore>) -> Self {
        self.store = store;
        self
    }

    /// Sets the tier schedule.
    pub fn with_schedule(mut self, schedule: crate::policy::TierSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the delta policy.
    pub fn with_delta(mut self, delta: crate::policy::DeltaPolicy) -> Self {
        self.delta = delta;
        self
    }

    /// Enables or disables the asynchronous background drain.
    pub fn with_async_drain(mut self, on: bool) -> Self {
        self.async_drain = on;
        self
    }
}

/// Per-checkpoint storage accounting, one per committed checkpoint of a
/// tiered run, in commit order ([`crate::CkptRunReport::store_records`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// Generation number in the run's store.
    pub generation: u64,
    /// Tier the image landed on.
    pub tier: CkptTier,
    /// Parent generation when the image was incremental.
    pub delta_parent: Option<u64>,
    /// Ranks whose restart-stable state changed since the parent
    /// (counts every rank for full images).
    pub changed_ranks: usize,
    /// Serialized image bytes (filled when the drain lands).
    pub serialized_bytes: usize,
    /// Modeled virtual seconds the tier write costs.
    pub modeled_write_s: f64,
    /// Virtual seconds ranks stalled because the previous image had not
    /// landed when this checkpoint committed (the back-pressure rule).
    pub backpressure_s: f64,
    /// Host wall seconds of the blocking bracket: clone-out, drain
    /// bookkeeping, and any wait for the previous background drain.
    pub blocking_wall_s: f64,
    /// Host wall seconds of encode+write retired off the critical path
    /// (zero for synchronous drains).
    pub overlapped_wall_s: f64,
    /// Virtual second this generation becomes durable on its tier: for a
    /// synchronous drain the ranks resume past it, for a background drain
    /// the modeled landing point of the write window. The recovery path
    /// treats a generation whose landing lies *after* an injected death as
    /// never written — the drain was still in flight when the node died.
    pub landing_v_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_packs_files_and_nodes() {
        let l = ImageSetLayout::packed(8, 4, 800);
        assert_eq!(l.nodes, 2);
        assert_eq!(l.files_per_node, 4);
        assert_eq!(l.bytes_per_file, 100);
        assert_eq!(l.bytes_per_node(), 400);
        // A world smaller than one node writes one file per rank.
        let s = ImageSetLayout::packed(3, 8, 300);
        assert_eq!((s.nodes, s.files_per_node, s.bytes_per_file), (1, 3, 100));
    }

    #[test]
    fn tier_write_costs_are_ordered_for_every_layout() {
        let m = TierModels::perlmutter();
        for &(n_ranks, rpn) in &[(8usize, 4usize), (128, 128), (2048, 128)] {
            let total = n_ranks as u64 * m.image_bytes_per_rank;
            let l = ImageSetLayout::packed(n_ranks, rpn, total);
            let mem = m.write_secs(CkptTier::Memory, &l);
            let par = m.write_secs(CkptTier::Partner, &l);
            let lus = m.write_secs(CkptTier::Lustre, &l);
            assert!(mem < par && par < lus, "{n_ranks}x{rpn}: {mem} {par} {lus}");
        }
    }

    #[test]
    fn memory_tier_dies_with_any_node() {
        let s = MemoryStore::new(MemoryTierModel::ddr());
        s.put(0, vec![1, 2, 3], 4);
        assert_eq!(*s.get(0).unwrap(), vec![1, 2, 3]);
        s.drop_node(2);
        assert!(matches!(
            s.get(0),
            Err(StoreError::NodeLost {
                tier: CkptTier::Memory,
                node: 2
            })
        ));
        // A node beyond this generation's span does not affect it.
        let s = MemoryStore::new(MemoryTierModel::ddr());
        s.put(0, vec![9], 2);
        s.drop_node(7);
        assert!(s.get(0).is_ok());
    }

    #[test]
    fn partner_tier_survives_single_loss_not_buddy_pair() {
        let s = PartnerStore::new(PartnerTierModel::slingshot11());
        s.put(0, vec![5], 4);
        s.drop_node(1);
        assert!(s.get(0).is_ok(), "single loss must be survivable");
        s.drop_node(2); // buddy of 1 — node 1's shard is now fully gone
        assert!(matches!(
            s.get(0),
            Err(StoreError::NodeLost {
                tier: CkptTier::Partner,
                node: 1
            })
        ));
        // Single-node worlds have no distinct buddy.
        let s = PartnerStore::new(PartnerTierModel::slingshot11());
        s.put(0, vec![5], 1);
        s.drop_node(0);
        assert!(matches!(s.get(0), Err(StoreError::NodeLost { .. })));
    }

    #[test]
    fn lustre_tier_survives_everything() {
        let s = LustreStore::new(LustreModel::perlmutter_scratch());
        s.put(3, vec![7], 16);
        for n in 0..16 {
            s.drop_node(n);
        }
        assert_eq!(*s.get(3).unwrap(), vec![7]);
        assert!(matches!(s.get(4), Err(StoreError::UnknownGeneration(4))));
    }
}
