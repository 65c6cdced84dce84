//! Multi-level checkpoint storage: one tiered table + incremental images.
//!
//! The SCR/FTI multi-level design (MPI-FT-Bench's `cp2m`/`cp2a`/`cp2f`)
//! keeps most checkpoints on the cheapest viable level and escalates only
//! periodically: **memory** (node-local DRAM, fastest, dies with the
//! node), **partner** (each node's image shard mirrored to a buddy node —
//! one inter-node transfer, survives any single node loss), and
//! **Lustre** (the parallel filesystem, slowest, survives anything). The
//! levels are not three stores but three copy rules over one record:
//! [`TieredStore`] keeps one generation-numbered table whose entries name
//! their tier, and one set of dropped nodes that a single survival rule
//! reads ([`TieredStore::drop_node`]). Each generation is written as a
//! [`DeltaImage`] — full (no parent) or relative to the previous
//! generation — and [`TieredStore::load`] resolves a chain of them back to
//! a checkpoint.
//!
//! Costs are modeled, like all I/O in this crate: [`TierModels`] charges
//! virtual seconds from the `netmodel` tier models
//! ([`netmodel::MemoryTierModel`], [`netmodel::PartnerTierModel`],
//! [`netmodel::LustreModel`]) against an [`ImageSetLayout`]; the bytes
//! themselves are held in host memory.

pub mod delta;

pub use delta::{ChunkPool, ChunkRef, DeltaImage, ParentRef};

use crate::image::{header_checksum, Checkpoint, ImageError, MemberIntern};
use crate::wire::FoldSet;
use delta::Keep;
use netmodel::{LustreModel, MemoryTierModel, PartnerTierModel};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
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

    /// The survival rule: the lowest node in `dropped` whose loss takes
    /// this tier's copy of an image written by a `nodes`-node world, or
    /// `None` while the copy survives. Memory holds each node's own shard
    /// only. Partner also mirrors node `d`'s shard on buddy
    /// `(d + 1) % nodes`, so it is lost with a node *and* its buddy (a
    /// one-node world's buddy is itself). Lustre survives anything.
    fn lost_with(self, nodes: usize, dropped: &BTreeSet<usize>) -> Option<usize> {
        let mut span = dropped.range(..nodes).copied();
        match self {
            CkptTier::Memory => span.next(),
            CkptTier::Partner => span.find(|&d| dropped.contains(&((d + 1) % nodes))),
            CkptTier::Lustre => None,
        }
    }
}

/// The per-tier cost models plus the paper's static per-rank image size
/// (the serialized runtime state is a drop in the bucket next to the
/// application's memory image, as in Figure 9).
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
        /// The lowest dropped node that took the last copy with it.
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

/// One stored generation, the table's only entry type.
struct StoredGen {
    tier: CkptTier,
    /// Parent generation, for delta images.
    parent: Option<u64>,
    /// Nodes of the writing world: the span the survival rule checks.
    nodes: usize,
    /// `Arc<Vec<u8>>`, not `Arc<[u8]>`: wrapping the encoder's `Vec`
    /// moves it, converting it to a slice would copy the image once more.
    bytes: Arc<Vec<u8>>,
}

/// Why generation `gen` is not in the table: unknown when it was asked
/// for, a dangling parent when the delta `child` references it.
fn missing(gen: u64, child: Option<u64>) -> StoreError {
    match child {
        None => StoreError::UnknownGeneration(gen),
        Some(generation) => ImageError::DanglingParent {
            generation,
            parent: gen,
        }
        .into(),
    }
}

/// The latest stored generation, kept around so the next save can build a
/// delta against it without re-reading any tier.
#[derive(Clone)]
struct ParentCtx {
    /// What an image written relative to this one records as its parent.
    link: ParentRef,
    image: Arc<Checkpoint>,
    known: Arc<FoldSet<ChunkRef>>,
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
    /// Chunks the image carried inline (a full save carries every
    /// distinct one).
    pub new_chunks: usize,
}

/// One generation-numbered table of stored images plus the dropped-node
/// set the survival rule reads, and the delta-chain machinery: save full
/// or incremental images to a chosen tier, load any generation back
/// (resolving delta chains), and simulate node loss.
pub struct TieredStore {
    models: TierModels,
    gens: Mutex<HashMap<u64, StoredGen>>,
    dropped: Mutex<BTreeSet<usize>>,
    latest: Mutex<Option<ParentCtx>>,
    next_gen: AtomicU64,
}

impl TieredStore {
    /// A store with the given cost models and an empty namespace.
    pub fn new(models: TierModels) -> Self {
        TieredStore {
            models,
            gens: Mutex::new(HashMap::new()),
            dropped: Mutex::new(BTreeSet::new()),
            latest: Mutex::new(None),
            next_gen: AtomicU64::new(0),
        }
    }

    /// The cost models this store charges.
    pub fn models(&self) -> &TierModels {
        &self.models
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
            .map(|p| (p.link.generation, Arc::clone(&p.image)))
    }

    /// Stored generation numbers, ascending.
    pub fn generations(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.gens.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Serializes `image` and stores it on `tier` as the next generation,
    /// its chunks encoded on up to `encode_workers` threads. With
    /// `want_delta`, and when a same-shape parent generation exists, the
    /// image is written relative to it (chunks already derivable from the
    /// ancestor chain are dedup'd away); otherwise it is a full image.
    pub fn save(
        &self,
        tier: CkptTier,
        image: Arc<Checkpoint>,
        want_delta: bool,
        encode_workers: usize,
    ) -> SaveReceipt {
        let gen = self.next_gen.fetch_add(1, Ordering::SeqCst);
        let nodes = image.n_ranks.div_ceil(image.origin.ranks_per_node);

        let parent =
            (self.latest.lock().clone()).filter(|p| want_delta && p.image.n_ranks == image.n_ranks);
        let mut known = (parent.as_ref()).map_or_else(FoldSet::default, |p| (*p.known).clone());
        let parent = parent.map(|p| p.link);
        let held = |r: &ChunkRef| known.contains(r);
        let (bytes, refs) = delta::encode(gen, parent, &held, &image, encode_workers);
        known.extend(refs.iter().map(|&(r, _)| r));
        let receipt = SaveReceipt {
            generation: gen,
            tier,
            bytes: bytes.len(),
            delta_parent: parent.map(|p| p.generation),
            new_chunks: refs.iter().filter(|&&(_, inline)| inline).count(),
        };
        let link = ParentRef {
            generation: gen,
            checksum: header_checksum(&bytes),
        };
        let stored = StoredGen {
            tier,
            parent: receipt.delta_parent,
            nodes,
            bytes: Arc::new(bytes),
        };
        self.gens.lock().insert(gen, stored);
        *self.latest.lock() = Some(ParentCtx {
            link,
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
    /// Every element of the chain is authenticated byte for byte: each
    /// head field checked, each inline chunk re-hashed against its
    /// address. The requested generation alone is decoded; an ancestor is
    /// only indexed — its parent link, world size and where its inline
    /// chunks lie — and none of its records, upper halves, member lists
    /// or outputs is built. Each chunk is decoded where it lies in its
    /// element's stored bytes.
    pub fn load(&self, gen: u64) -> Result<Checkpoint, StoreError> {
        // Every chain element's stored bytes, leaf first, and where each
        // chunk the chain inlines lies in them (the first holder's).
        let mut elements: Vec<Arc<Vec<u8>>> = Vec::new();
        let mut chunks: HashMap<ChunkRef, (usize, std::ops::Range<usize>)> = HashMap::new();
        // The requested generation with the member lists its head
        // resolved, and `(generation, parent checksum)` of the image whose
        // parent is fetched next.
        let mut leaf: Option<(DeltaImage, MemberIntern)> = None;
        let mut child: Option<(u64, u64)> = None;
        let mut cur = gen;
        loop {
            let bytes = self.fetch(cur, child.map(|(generation, _)| generation))?;
            let keep = if leaf.is_none() {
                Keep::Image
            } else {
                Keep::Index
            };
            let (d, lists, inline) = DeltaImage::decode(&bytes, keep)?;
            if child.is_some_and(|(_, checksum)| checksum != header_checksum(&bytes)) {
                return Err(ImageError::DeltaChain("parent checksum mismatch").into());
            }
            if d.generation != cur {
                return Err(ImageError::DeltaChain("stored generation mismatch").into());
            }
            if leaf.as_ref().is_some_and(|(l, _)| l.n_ranks != d.n_ranks) {
                return Err(ImageError::DeltaChain("parent world size mismatch").into());
            }
            chunks.reserve(inline.len());
            for (r, at) in inline {
                chunks.entry(r).or_insert((elements.len(), at));
            }
            elements.push(bytes);
            let parent = d.parent;
            leaf.get_or_insert((d, lists));
            let Some(parent) = parent else { break };
            if parent.generation >= cur {
                // A parent must predate its child; anything else is a
                // forged ref that could cycle forever.
                return Err(ImageError::DeltaChain("parent generation not older").into());
            }
            child = Some((cur, parent.checksum));
            cur = parent.generation;
        }
        let (mut leaf, lists) = leaf.expect("the requested generation is decoded first");
        let captures = std::mem::take(&mut leaf.volatile);
        let chunk = |r| chunks.get(&r).map(|(i, at)| &elements[*i][at.clone()]);
        Ok(leaf.rebuild(lists, captures, chunk)?)
    }

    /// Generation `gen`'s stored bytes if its tier's copy survives the
    /// dropped nodes; `child` is the delta that asked for `gen` as its
    /// parent, if any.
    fn fetch(&self, gen: u64, child: Option<u64>) -> Result<Arc<Vec<u8>>, StoreError> {
        let gens = self.gens.lock();
        let g = gens.get(&gen).ok_or_else(|| missing(gen, child))?;
        match g.tier.lost_with(g.nodes, &self.dropped.lock()) {
            Some(node) => Err(StoreError::NodeLost { tier: g.tier, node }),
            None => Ok(Arc::clone(&g.bytes)),
        }
    }

    /// Generation `gen`'s bytes as its tier holds them, under the survival
    /// rule — what [`TieredStore::load`] reads per chain element. Shared
    /// with the store, not copied.
    pub fn stored_bytes(&self, gen: u64) -> Result<Arc<Vec<u8>>, StoreError> {
        self.fetch(gen, None)
    }

    /// Overwrites generation `gen`'s stored bytes, keeping its tier,
    /// parent and writer span: simulates on-media corruption the way
    /// [`TieredStore::drop_node`] simulates node loss.
    pub fn replace_bytes(&self, gen: u64, bytes: Vec<u8>) -> Result<(), StoreError> {
        let mut gens = self.gens.lock();
        let g = gens
            .get_mut(&gen)
            .ok_or(StoreError::UnknownGeneration(gen))?;
        g.bytes = Arc::new(bytes);
        Ok(())
    }

    /// Modeled seconds to read generation `gen` back from its tier under
    /// `layout` — every restore's read charge. The chain's root is a full
    /// image and reads in full; each delta above it pays the share of a
    /// full read that its stored bytes make of the root's. A generation
    /// the store does not hold, or whose chain dangles, has no read.
    pub fn read_secs(&self, gen: u64, layout: &ImageSetLayout) -> Result<f64, StoreError> {
        let gens = self.gens.lock();
        let (mut chain, mut cur, mut child) = (Vec::new(), Some(gen), None);
        while let Some(g) = cur {
            let s = gens.get(&g).ok_or_else(|| missing(g, child))?;
            chain.push((s.tier, s.bytes.len()));
            (cur, child) = (s.parent, Some(g));
        }
        let root = chain.last().map_or(1, |&(_, len)| len.max(1)) as f64;
        Ok(chain
            .iter()
            .map(|&(tier, len)| {
                let share = (len as f64 / root).min(1.0);
                self.models.read_secs(tier, layout) * share
            })
            .sum())
    }

    /// Simulates losing `node`: memory-tier copies on it are gone, and
    /// partner-tier generations survive only through buddy replicas.
    pub fn drop_node(&self, node: usize) {
        self.dropped.lock().insert(node);
    }

    /// Evicts generation `gen` — the retention knob. Stored descendants
    /// that still reference it fail to load with
    /// [`ImageError::DanglingParent`]. An eviction inside the latest
    /// generation's chain makes the next save a full image, so every
    /// generation saved after an eviction loads.
    pub fn evict(&self, gen: u64) {
        let mut gens = self.gens.lock();
        if gens.remove(&gen).is_none() {
            return;
        }
        let mut latest = self.latest.lock();
        let mut cur = latest.as_ref().map(|p| p.link.generation);
        while let Some(g) = cur {
            if g == gen {
                *latest = None;
                break;
            }
            cur = gens.get(&g).and_then(|s| s.parent);
        }
    }
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("generations", &self.generations())
            .finish_non_exhaustive()
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

    /// A store holding `bytes` as generation `gen` on `tier`, written by
    /// a `nodes`-node world.
    fn holding(gen: u64, tier: CkptTier, bytes: Vec<u8>, nodes: usize) -> TieredStore {
        let s = TieredStore::default();
        let stored = StoredGen {
            tier,
            parent: None,
            nodes,
            bytes: Arc::new(bytes),
        };
        s.gens.lock().insert(gen, stored);
        s
    }

    #[test]
    fn memory_tier_dies_with_any_node() {
        let s = holding(0, CkptTier::Memory, vec![1, 2, 3], 4);
        assert_eq!(*s.stored_bytes(0).unwrap(), vec![1, 2, 3]);
        s.drop_node(2);
        assert!(matches!(
            s.stored_bytes(0),
            Err(StoreError::NodeLost {
                tier: CkptTier::Memory,
                node: 2
            })
        ));
        // A node beyond this generation's span does not affect it.
        let s = holding(0, CkptTier::Memory, vec![9], 2);
        s.drop_node(7);
        assert!(s.stored_bytes(0).is_ok());
    }

    #[test]
    fn partner_tier_survives_single_loss_not_buddy_pair() {
        let s = holding(0, CkptTier::Partner, vec![5], 4);
        s.drop_node(1);
        assert!(s.stored_bytes(0).is_ok(), "single loss must be survivable");
        s.drop_node(2); // buddy of 1 — node 1's shard is now fully gone
        assert!(matches!(
            s.stored_bytes(0),
            Err(StoreError::NodeLost {
                tier: CkptTier::Partner,
                node: 1
            })
        ));
        // Single-node worlds have no distinct buddy.
        let s = holding(0, CkptTier::Partner, vec![5], 1);
        s.drop_node(0);
        assert!(matches!(
            s.stored_bytes(0),
            Err(StoreError::NodeLost { .. })
        ));
    }

    #[test]
    fn lustre_tier_survives_everything() {
        let s = holding(3, CkptTier::Lustre, vec![7], 16);
        for n in 0..16 {
            s.drop_node(n);
        }
        assert_eq!(*s.stored_bytes(3).unwrap(), vec![7]);
        assert!(matches!(
            s.stored_bytes(4),
            Err(StoreError::UnknownGeneration(4))
        ));
    }

    #[test]
    fn replaced_bytes_keep_the_generation_and_unknown_ones_are_refused() {
        let s = holding(0, CkptTier::Memory, vec![1], 2);
        s.replace_bytes(0, vec![2, 3]).unwrap();
        assert_eq!(*s.stored_bytes(0).unwrap(), vec![2, 3]);
        assert_eq!(
            s.replace_bytes(1, vec![4]),
            Err(StoreError::UnknownGeneration(1))
        );
        assert_eq!(s.generations(), vec![0]);
    }
}
