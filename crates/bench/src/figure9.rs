//! The Figure 9 harness: checkpoint/restart image I/O vs. node count.
//!
//! The paper's Figure 9 measures VASP checkpoint and restart times over
//! 1–16 Perlmutter nodes on Lustre scratch: total bytes grow linearly with
//! node count while the job-visible filesystem bandwidth saturates, so
//! image time *grows* with scale. This harness reproduces that curve two
//! ways:
//!
//! * a **model sweep** through [`netmodel::LustreModel`]: write/read time
//!   for every (node count × per-rank image size) cell under the paper's
//!   128-ranks-per-node packing;
//! * a set of **measured images**: real captures of the random workload at
//!   small world sizes, serialized through the image wire format, so the
//!   sweep also reports how the dynamic runtime state (the part this
//!   system actually stores — drained messages, communicator logs, pending
//!   receives) scales with rank count;
//! * a **capture-pipeline sweep**: host wall time of the parallel
//!   encoder ([`ckpt::Checkpoint::to_bytes_parallel`]) over deterministic
//!   synthetic images at 512–4096 ranks — the `capture_wall_s` column.
//!   The asserted shape ([`assert_figure9_capture_shape`]) is that the
//!   **per-rank** encode wall time stays flat (within 2×) from the
//!   smallest to the largest world: each rank's chunk is encoded and
//!   hashed on its own, so the pipeline has no superlinear component.
//!
//! `figures figure9` asserts [`assert_figure9_shape`] and writes
//! [`Figure9Report::to_json`] to `BENCH_figure9.json`.

use crate::json::obj;
use crate::synth::{perturbed_checkpoint, synthetic_checkpoint};
use crate::Json;
use ckpt::{
    run_ckpt_world_steps, CkptOptions, CkptTier, ImageSetLayout, PeriodicInterval, ResumeMode,
    TierModels, TieredStore, Tiering,
};
use mpisim::{NetParams, Scheduler, VTime, WorldConfig};
use netmodel::LustreModel;
use std::sync::Arc;
use std::time::Instant;
use workloads::{RandomWorkloadCfg, RandomWorkloadStep};

/// One cell of the model sweep.
#[derive(Debug, Clone)]
pub struct Figure9ModelPoint {
    /// Node count.
    pub nodes: usize,
    /// Total ranks (`nodes × ranks_per_node`).
    pub ranks: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Per-rank image size (bytes).
    pub image_bytes_per_rank: u64,
    /// Modeled checkpoint (write) time, seconds.
    pub write_s: f64,
    /// Modeled restart (read) time, seconds.
    pub read_s: f64,
}

/// One actually-captured, actually-serialized image.
#[derive(Debug, Clone)]
pub struct Figure9MeasuredImage {
    /// World size of the capture.
    pub ranks: usize,
    /// Serialized image size in bytes (wire format, header included).
    pub serialized_bytes: usize,
    /// Drained in-flight payload bytes inside the image.
    pub in_flight_bytes: usize,
    /// Participations the image's cut covers (its `SEQ[]` tables).
    pub cut_events: usize,
    /// Virtual capture time, seconds.
    pub capture_clock_s: f64,
    /// Host wall seconds of the committed capture bracket (parallel
    /// clone-out on the scheduler's borrowed workers), from
    /// [`ckpt::CkptRunReport::capture_wall_s`].
    pub capture_wall_s: f64,
}

/// One point of the capture-pipeline sweep: wall time to serialize a
/// synthetic `ranks`-rank image through the parallel zero-copy encoder.
#[derive(Debug, Clone)]
pub struct Figure9CapturePoint {
    /// World size of the synthetic image.
    pub ranks: usize,
    /// Encoder worker threads used.
    pub workers: usize,
    /// Serialized image size in bytes (header included).
    pub serialized_bytes: usize,
    /// Encode wall time, seconds (min over `capture_reps` repetitions —
    /// the repeatable cost, robust to scheduling noise).
    pub capture_wall_s: f64,
}

impl Figure9CapturePoint {
    /// Encode wall time per rank, seconds — the quantity that must stay
    /// flat as worlds grow.
    pub fn per_rank_capture_wall_s(&self) -> f64 {
        self.capture_wall_s / self.ranks.max(1) as f64
    }
}

/// One cell of the storage-tier sweep: modeled write/read time for an
/// image set landing on one [`CkptTier`], at one node count and one
/// changed-rank ratio (the fraction of ranks a delta image would bill).
#[derive(Debug, Clone)]
pub struct Figure9TierPoint {
    /// Tier name ("memory", "partner", "lustre").
    pub tier: &'static str,
    /// Fraction of ranks billed (1.0 = full image, 0.1 = 10%-changed delta).
    pub changed_ratio: f64,
    /// Node count.
    pub nodes: usize,
    /// Total ranks.
    pub ranks: usize,
    /// Total modeled image-set bytes at this ratio.
    pub total_bytes: u64,
    /// Modeled checkpoint (write) time, seconds.
    pub write_s: f64,
    /// Modeled restart (read) time, seconds.
    pub read_s: f64,
}

/// The measured full-vs-delta cell: one synthetic image saved full, then
/// a stable-state-perturbed successor saved as a delta against it, both
/// through [`TieredStore`] — real serialized byte counts, not a model.
#[derive(Debug, Clone)]
pub struct Figure9DeltaPoint {
    /// World size of both images.
    pub ranks: usize,
    /// Ranks whose *stable* state differs between parent and child.
    pub changed_ranks: usize,
    /// Serialized bytes of the full parent image.
    pub full_bytes: usize,
    /// Serialized bytes of the delta child image.
    pub delta_bytes: usize,
    /// `full_bytes / delta_bytes`.
    pub shrink_factor: f64,
    /// Chunks the delta carried inline (the rest deduplicated against
    /// the parent's content-addressed chunk set).
    pub delta_chunks: usize,
}

/// One committed checkpoint of the async-drain run, from
/// [`ckpt::CkptRunReport::store_records`].
#[derive(Debug, Clone)]
pub struct Figure9DrainRecord {
    /// Store generation number.
    pub generation: u64,
    /// Tier name.
    pub tier: &'static str,
    /// Modeled tier write time (virtual seconds).
    pub modeled_write_s: f64,
    /// Virtual back-pressure charged because the previous drain was
    /// still in flight when this checkpoint fired.
    pub backpressure_s: f64,
    /// Host wall seconds of the app-visible blocking bracket.
    pub blocking_wall_s: f64,
    /// Host wall seconds the encode+write spent on the background drain.
    pub overlapped_wall_s: f64,
}

/// The sync-vs-async drain comparison: the same workload and checkpoint
/// schedule run twice against the same tiering, once draining images
/// inside the capture bracket and once on background workers.
#[derive(Debug, Clone)]
pub struct Figure9DrainComparison {
    /// World size.
    pub ranks: usize,
    /// Checkpoints committed in each run.
    pub checkpoints: usize,
    /// Virtual makespan with synchronous drains.
    pub sync_makespan_s: f64,
    /// Virtual makespan with asynchronous drains.
    pub async_makespan_s: f64,
    /// Summed app-visible capture wall time, synchronous run.
    pub sync_blocking_wall_s: f64,
    /// Summed app-visible capture wall time, asynchronous run —
    /// clone-out only, the encode+write having moved to
    /// [`Figure9DrainRecord::overlapped_wall_s`].
    pub async_blocking_wall_s: f64,
    /// Per-checkpoint storage accounting of the asynchronous run.
    pub records: Vec<Figure9DrainRecord>,
}

/// The full Figure 9 result.
#[derive(Debug, Clone)]
pub struct Figure9Report {
    /// Model sweep cells, in (image size, nodes) order.
    pub model: Vec<Figure9ModelPoint>,
    /// Measured serialized images, by world size.
    pub measured: Vec<Figure9MeasuredImage>,
    /// Capture-pipeline wall-time sweep, by world size.
    pub capture: Vec<Figure9CapturePoint>,
    /// Storage-tier sweep cells, in (ratio, nodes, tier) order.
    pub tiers: Vec<Figure9TierPoint>,
    /// The measured full-vs-delta cell (absent when disabled).
    pub delta: Option<Figure9DeltaPoint>,
    /// The sync-vs-async drain comparison (absent when disabled).
    pub drain: Option<Figure9DrainComparison>,
}

impl Figure9Report {
    /// The `BENCH_figure9.json` file: one row per model, measured,
    /// capture and tier cell; the delta cell and the drain comparison on
    /// a line each, the drain's records one row each.
    pub fn to_json(&self) -> Json {
        let model = self.model.iter().map(|p| {
            obj! {
                "nodes" => p.nodes, "ranks" => p.ranks, "ranks_per_node" => p.ranks_per_node,
                "image_bytes_per_rank" => p.image_bytes_per_rank, "write_s" => p.write_s,
                "read_s" => p.read_s,
            }
        });
        let measured = self.measured.iter().map(|m| {
            obj! {
                "ranks" => m.ranks, "serialized_bytes" => m.serialized_bytes,
                "in_flight_bytes" => m.in_flight_bytes, "cut_events" => m.cut_events,
                "capture_clock_s" => m.capture_clock_s, "capture_wall_s" => m.capture_wall_s,
            }
        });
        let capture = self.capture.iter().map(|p| {
            obj! {
                "ranks" => p.ranks, "workers" => p.workers,
                "serialized_bytes" => p.serialized_bytes, "capture_wall_s" => p.capture_wall_s,
                "per_rank_capture_wall_s" => p.per_rank_capture_wall_s(),
            }
        });
        let tiers = self.tiers.iter().map(|t| {
            obj! {
                "tier" => t.tier, "changed_ratio" => t.changed_ratio, "nodes" => t.nodes,
                "ranks" => t.ranks, "total_bytes" => t.total_bytes, "write_s" => t.write_s,
                "read_s" => t.read_s,
            }
        });
        let delta = self.delta.as_ref().map(|d| {
            obj! {
                "ranks" => d.ranks, "changed_ranks" => d.changed_ranks,
                "full_bytes" => d.full_bytes, "delta_bytes" => d.delta_bytes,
                "shrink_factor" => d.shrink_factor, "delta_chunks" => d.delta_chunks,
            }
        });
        let drain = self.drain.as_ref().map(|d| {
            let records = d.records.iter().map(|r| {
                obj! {
                    "generation" => r.generation, "tier" => r.tier,
                    "modeled_write_s" => r.modeled_write_s, "backpressure_s" => r.backpressure_s,
                    "blocking_wall_s" => r.blocking_wall_s,
                    "overlapped_wall_s" => r.overlapped_wall_s,
                }
            });
            obj! {
                "ranks" => d.ranks, "checkpoints" => d.checkpoints,
                "sync_makespan_s" => d.sync_makespan_s, "async_makespan_s" => d.async_makespan_s,
                "sync_blocking_wall_s" => d.sync_blocking_wall_s,
                "async_blocking_wall_s" => d.async_blocking_wall_s,
                "records" => records.collect::<Json>(),
            }
        });
        obj! {
            "model" => model.collect::<Json>(), "measured" => measured.collect::<Json>(),
            "capture" => capture.collect::<Json>(), "tiers" => tiers.collect::<Json>(),
            "delta" => delta, "drain" => drain,
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct Figure9Config {
    /// Node counts to sweep (the paper: 1–16).
    pub node_counts: Vec<usize>,
    /// Ranks per node (the paper: 128).
    pub ranks_per_node: usize,
    /// Per-rank image sizes to sweep (bytes).
    pub image_bytes_per_rank: Vec<u64>,
    /// World sizes for the measured-image captures.
    pub measured_ranks: Vec<usize>,
    /// Random-workload steps for the measured captures.
    pub steps: usize,
    /// World sizes for the capture-pipeline sweep (synthetic images).
    pub capture_ranks: Vec<usize>,
    /// Repetitions per capture-pipeline point; the minimum is reported.
    pub capture_reps: usize,
    /// Changed-rank ratios for the storage-tier sweep (1.0 = full image;
    /// empty disables the sweep).
    pub tier_ratios: Vec<f64>,
    /// World size of the measured full-vs-delta cell (0 disables).
    pub delta_ranks: usize,
    /// Perturbation stride of the delta cell: rank `i` changes stable
    /// state iff `i % stride == 0`, so `ceil(ranks / stride)` ranks bill.
    pub delta_stride: usize,
    /// World size of the drain-comparison run (0 disables).
    pub drain_ranks: usize,
    /// Random-workload steps of the drain-comparison run.
    pub drain_steps: usize,
    /// Checkpoints taken during the drain-comparison run.
    pub drain_ckpts: usize,
    /// The filesystem model.
    pub model: LustreModel,
}

impl Default for Figure9Config {
    fn default() -> Self {
        Figure9Config {
            node_counts: vec![1, 2, 4, 8, 16],
            ranks_per_node: 128,
            // 64 MiB, the paper's 398 MB VASP image, 1 GiB.
            image_bytes_per_rank: vec![64 << 20, 398 * 1024 * 1024, 1 << 30],
            measured_ranks: vec![2, 4, 8],
            steps: 25,
            // The paper's top size through the beyond-paper tier.
            capture_ranks: vec![512, 1024, 2048, 4096],
            capture_reps: 5,
            tier_ratios: vec![1.0, 0.25, 0.1],
            delta_ranks: 4096,
            delta_stride: 10,
            drain_ranks: 8,
            drain_steps: 40,
            drain_ckpts: 2,
            model: LustreModel::perlmutter_scratch(),
        }
    }
}

/// Runs the sweep.
pub fn figure9_report(cfg: &Figure9Config) -> Figure9Report {
    let mut model = Vec::new();
    for &bytes in &cfg.image_bytes_per_rank {
        for &nodes in &cfg.node_counts {
            let files_per_node = cfg.ranks_per_node;
            model.push(Figure9ModelPoint {
                nodes,
                ranks: nodes * cfg.ranks_per_node,
                ranks_per_node: cfg.ranks_per_node,
                image_bytes_per_rank: bytes,
                write_s: cfg.model.write_time(nodes, files_per_node, bytes),
                read_s: cfg.model.read_time(nodes, files_per_node, bytes),
            });
        }
    }

    let mut measured = Vec::new();
    for &n in &cfg.measured_ranks {
        let wcfg =
            WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter());
        let wl = RandomWorkloadCfg::new(0xF19, cfg.steps);
        let body = |_| RandomWorkloadStep::new(wl.clone());
        let native = run_ckpt_world_steps(wcfg.clone(), CkptOptions::native(), body);
        let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
        let run = run_ckpt_world_steps(
            wcfg,
            CkptOptions::one_checkpoint(at, ResumeMode::Continue),
            body,
        );
        let image = run.checkpoints.first().expect("the checkpoint fires");
        measured.push(Figure9MeasuredImage {
            ranks: n,
            serialized_bytes: image.serialized_len(),
            in_flight_bytes: image.in_flight_bytes(),
            cut_events: image.cut().len(),
            capture_clock_s: image.capture_clock().as_secs(),
            capture_wall_s: run.capture_wall_s.first().copied().unwrap_or(0.0),
        });
    }

    let capture = capture_sweep(&cfg.capture_ranks, cfg.capture_reps);
    let tiers = tier_sweep(&cfg.node_counts, cfg.ranks_per_node, &cfg.tier_ratios);
    let delta = (cfg.delta_ranks > 0).then(|| delta_cell(cfg.delta_ranks, cfg.delta_stride));
    let drain = (cfg.drain_ranks > 0)
        .then(|| drain_comparison(cfg.drain_ranks, cfg.drain_steps, cfg.drain_ckpts));

    Figure9Report {
        model,
        measured,
        capture,
        tiers,
        delta,
        drain,
    }
}

/// The storage-tier sweep: for every (changed-rank ratio × node count)
/// cell, the modeled write/read time of the billed image set on each of
/// the three tiers under [`TierModels::perlmutter`]. A ratio below 1.0
/// models a delta image that bills only the changed ranks' chunks.
pub fn tier_sweep(
    node_counts: &[usize],
    ranks_per_node: usize,
    ratios: &[f64],
) -> Vec<Figure9TierPoint> {
    let models = TierModels::perlmutter();
    let mut out = Vec::new();
    for &ratio in ratios {
        for &nodes in node_counts {
            let ranks = nodes * ranks_per_node;
            let billed = ((ranks as f64) * ratio).ceil().max(1.0) as u64;
            let total_bytes = billed * models.image_bytes_per_rank;
            let layout = ImageSetLayout::packed(ranks, ranks_per_node, total_bytes);
            for tier in [CkptTier::Memory, CkptTier::Partner, CkptTier::Lustre] {
                out.push(Figure9TierPoint {
                    tier: tier.name(),
                    changed_ratio: ratio,
                    nodes,
                    ranks,
                    total_bytes,
                    write_s: models.write_secs(tier, &layout),
                    read_s: models.read_secs(tier, &layout),
                });
            }
        }
    }
    out
}

/// The measured full-vs-delta cell: serializes a synthetic `ranks`-rank
/// image as a full generation, perturbs the stable state of every
/// `stride`-th rank (volatile clocks advance on *all* ranks), and saves
/// the successor as a delta against the parent through [`TieredStore`].
///
/// # Panics
/// Panics if the store does not produce a delta chained to the parent.
pub fn delta_cell(ranks: usize, stride: usize) -> Figure9DeltaPoint {
    let workers = Scheduler::default_workers();
    let store = TieredStore::default();
    let parent = Arc::new(synthetic_checkpoint(ranks, 0xD5EED));
    let child = Arc::new(perturbed_checkpoint(&parent, stride));
    let full = store.save(CkptTier::Memory, Arc::clone(&parent), false, workers);
    let delta = store.save(CkptTier::Memory, child, true, workers);
    assert_eq!(
        delta.delta_parent,
        Some(full.generation),
        "delta cell must chain to the full parent"
    );
    Figure9DeltaPoint {
        ranks,
        changed_ranks: ranks.div_ceil(stride),
        full_bytes: full.bytes,
        delta_bytes: delta.bytes,
        shrink_factor: full.bytes as f64 / delta.bytes.max(1) as f64,
        delta_chunks: delta.new_chunks,
    }
}

/// The sync-vs-async drain comparison: the same random workload with the
/// same periodic checkpoint schedule against memory-tier storage, once
/// with synchronous drains (image encode+write inside the capture
/// bracket, modeled write time charged to every rank) and once with the
/// background drain (ranks resume after clone-out; only back-pressure is
/// charged).
pub fn drain_comparison(ranks: usize, steps: usize, ckpts: usize) -> Figure9DrainComparison {
    let wcfg = || {
        WorldConfig::multi_node(ranks, (ranks / 2).max(1))
            .with_params(NetParams::slingshot11().without_jitter())
    };
    let wl = RandomWorkloadCfg::new(0xD8A1, steps);
    let body = |_| RandomWorkloadStep::new(wl.clone());
    let native = run_ckpt_world_steps(wcfg(), CkptOptions::native(), body);
    let interval = VTime::from_secs(native.makespan.as_secs() / (ckpts as f64 + 1.0));
    let run_with = |async_drain: bool| {
        let tiering = Tiering::fixed(CkptTier::Memory).with_async_drain(async_drain);
        let rep = run_ckpt_world_steps(
            wcfg(),
            CkptOptions::native()
                .with_policy(PeriodicInterval::new(interval, ckpts))
                .with_resume(ResumeMode::Continue)
                .with_tiering(tiering),
            body,
        );
        assert!(
            rep.failures.is_empty(),
            "drain-comparison checkpoint aborted: {:?}",
            rep.failures
        );
        rep
    };
    let sync = run_with(false);
    let asyn = run_with(true);
    assert_eq!(
        sync.store_records.len(),
        asyn.store_records.len(),
        "both drain runs must commit the same checkpoints"
    );
    let records = asyn
        .store_records
        .iter()
        .map(|r| Figure9DrainRecord {
            generation: r.generation,
            tier: r.tier.name(),
            modeled_write_s: r.modeled_write_s,
            backpressure_s: r.backpressure_s,
            blocking_wall_s: r.blocking_wall_s,
            overlapped_wall_s: r.overlapped_wall_s,
        })
        .collect();
    Figure9DrainComparison {
        ranks,
        checkpoints: asyn.store_records.len(),
        sync_makespan_s: sync.makespan.as_secs(),
        async_makespan_s: asyn.makespan.as_secs(),
        sync_blocking_wall_s: sync.capture_wall_s.iter().sum(),
        async_blocking_wall_s: asyn.capture_wall_s.iter().sum(),
        records,
    }
}

/// Times the parallel zero-copy encoder over deterministic synthetic
/// images, one point per world size, `reps` repetitions each (minimum
/// reported). Worker count matches what a real capture bracket would
/// borrow on this host ([`Scheduler::default_workers`]).
pub fn capture_sweep(capture_ranks: &[usize], reps: usize) -> Vec<Figure9CapturePoint> {
    let workers = Scheduler::default_workers();
    let mut out = Vec::with_capacity(capture_ranks.len());
    for &n in capture_ranks {
        let image = synthetic_checkpoint(n, 0xF19);
        let mut best = f64::INFINITY;
        let mut serialized_bytes = 0;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let bytes = image.to_bytes_parallel(workers);
            best = best.min(t0.elapsed().as_secs_f64());
            serialized_bytes = bytes.len();
        }
        out.push(Figure9CapturePoint {
            ranks: n,
            workers,
            serialized_bytes,
            capture_wall_s: best,
        });
    }
    out
}

/// Every Figure 9 shape check, and at least one measured image.
///
/// # Panics
/// Panics when a shape is violated or a part of the report is disabled.
pub fn assert_figure9_shape(report: &Figure9Report) {
    assert_figure9_write_shape(&report.model);
    assert!(
        !report.measured.is_empty(),
        "no measured image was captured"
    );
    assert_figure9_capture_shape(&report.capture);
    assert_figure9_tier_order(&report.tiers);
    assert_figure9_delta_shape(report.delta.as_ref().expect("delta cell enabled"));
    assert_figure9_drain_shape(report.drain.as_ref().expect("drain comparison enabled"));
}

/// The Figure 9 curve, a pure model check: for the paper's 398 MB image,
/// checkpoint time never improves with node count (injection-limited and
/// flat at first) and climbs over the whole sweep once the job-visible
/// aggregate bandwidth binds.
///
/// # Panics
/// Panics when the shape is violated or the sweep has no 398 MB cell.
pub fn assert_figure9_write_shape(model: &[Figure9ModelPoint]) {
    let vasp: Vec<f64> = (model.iter())
        .filter(|p| p.image_bytes_per_rank == 398 * 1024 * 1024)
        .map(|p| p.write_s)
        .collect();
    assert!(
        vasp.windows(2).all(|w| w[0] <= w[1]) && vasp.last() > vasp.first(),
        "Figure 9 shape violated: write times over node count: {vasp:?}"
    );
}

/// The capture-pipeline shape check, shared by `figures figure9` and the
/// tier-1 test: every point timed something real, serialized size grows
/// with the world, and the **per-rank** encode wall time stays flat —
/// the largest world's per-rank cost is within `2×` of the smallest
/// world's. Each rank's chunk encodes and hashes on its own, so rank
/// count must not buy superlinear encode time.
///
/// # Panics
/// Panics when the shape is violated.
pub fn assert_figure9_capture_shape(points: &[Figure9CapturePoint]) {
    /// Per-rank growth ceiling across the sweep.
    const FLATNESS_FACTOR: f64 = 2.0;

    assert!(points.len() >= 2, "capture sweep needs at least two sizes");
    for p in points {
        assert!(
            p.capture_wall_s.is_finite() && p.capture_wall_s > 0.0,
            "capture point at {} ranks timed nothing: {}",
            p.ranks,
            p.capture_wall_s
        );
        assert!(p.serialized_bytes > 0, "empty image at {} ranks", p.ranks);
    }
    let mut sorted: Vec<&Figure9CapturePoint> = points.iter().collect();
    sorted.sort_by_key(|p| p.ranks);
    for w in sorted.windows(2) {
        assert!(
            w[0].serialized_bytes < w[1].serialized_bytes,
            "serialized bytes must grow with rank count: {} ranks -> {} B, {} ranks -> {} B",
            w[0].ranks,
            w[0].serialized_bytes,
            w[1].ranks,
            w[1].serialized_bytes
        );
    }
    let (small, large) = (sorted[0], sorted[sorted.len() - 1]);
    let (base, top) = (
        small.per_rank_capture_wall_s(),
        large.per_rank_capture_wall_s(),
    );
    assert!(
        top <= FLATNESS_FACTOR * base,
        "per-rank capture wall time grew with world size: {base:.3e} s/rank at {} ranks \
         vs {top:.3e} s/rank at {} ranks (ceiling {FLATNESS_FACTOR}x)",
        small.ranks,
        large.ranks
    );
}

/// The storage-tier shape check, shared by `figures figure9` and the
/// tier-1 test: in **every** (changed-ratio × node count) cell the three
/// tiers are present and strictly ordered — memory writes (and reads)
/// cheaper than the partner replica, the partner cheaper than Lustre —
/// and within a tier a smaller changed-ratio never costs more.
///
/// # Panics
/// Panics when the shape is violated.
pub fn assert_figure9_tier_order(points: &[Figure9TierPoint]) {
    assert!(
        !points.is_empty() && points.len().is_multiple_of(3),
        "tier sweep must hold whole (memory, partner, lustre) cells, got {}",
        points.len()
    );
    for cell in points.chunks(3) {
        let [m, p, l] = cell else { unreachable!() };
        assert_eq!(
            [m.tier, p.tier, l.tier],
            ["memory", "partner", "lustre"],
            "cell tiers out of order"
        );
        assert!(
            m.changed_ratio == p.changed_ratio
                && p.changed_ratio == l.changed_ratio
                && m.nodes == p.nodes
                && p.nodes == l.nodes,
            "cell mixes ratios or node counts"
        );
        assert!(
            m.write_s < p.write_s && p.write_s < l.write_s,
            "write cost must order memory < partner < lustre at ratio {} x {} nodes: \
             {:.4}s / {:.4}s / {:.4}s",
            m.changed_ratio,
            m.nodes,
            m.write_s,
            p.write_s,
            l.write_s
        );
        assert!(
            m.read_s < p.read_s && p.read_s < l.read_s,
            "read cost must order memory < partner < lustre at ratio {} x {} nodes",
            m.changed_ratio,
            m.nodes
        );
    }
    // Within a tier at fixed node count, billing fewer ranks never
    // costs more.
    for a in points {
        for b in points {
            if a.tier == b.tier && a.nodes == b.nodes && a.changed_ratio < b.changed_ratio {
                assert!(
                    a.write_s <= b.write_s,
                    "smaller delta ratio must not write slower: {} {}x ratio {} vs {}",
                    a.tier,
                    a.nodes,
                    a.changed_ratio,
                    b.changed_ratio
                );
            }
        }
    }
}

/// The incremental-image shape check: the delta cell changed under a
/// quarter of the ranks and its serialized image is at least 5× smaller
/// than the full parent.
///
/// # Panics
/// Panics when the shape is violated.
pub fn assert_figure9_delta_shape(d: &Figure9DeltaPoint) {
    assert!(
        d.changed_ranks * 4 < d.ranks,
        "delta cell must change <25% of ranks: {}/{}",
        d.changed_ranks,
        d.ranks
    );
    assert!(
        d.delta_bytes < d.full_bytes,
        "delta must be smaller than its full parent: {} vs {}",
        d.delta_bytes,
        d.full_bytes
    );
    assert!(
        d.shrink_factor >= 5.0,
        "delta image must be >=5x smaller than the full parent with {}/{} ranks changed, \
         got {:.2}x ({} B vs {} B)",
        d.changed_ranks,
        d.ranks,
        d.shrink_factor,
        d.delta_bytes,
        d.full_bytes
    );
}

/// The async-drain shape check: the background drain moved the image
/// write off the app-visible path — the async run's virtual makespan
/// beats the synchronous run's, and every committed checkpoint retired
/// real encode+write work on the overlapped (background) component
/// while its modeled write cost stayed positive.
///
/// # Panics
/// Panics when the shape is violated.
pub fn assert_figure9_drain_shape(d: &Figure9DrainComparison) {
    assert!(
        d.checkpoints > 0,
        "drain comparison committed no checkpoints"
    );
    assert_eq!(d.records.len(), d.checkpoints);
    assert!(
        d.async_makespan_s < d.sync_makespan_s,
        "async drain must shorten the virtual makespan: {:.4}s vs {:.4}s sync",
        d.async_makespan_s,
        d.sync_makespan_s
    );
    for r in &d.records {
        assert!(
            r.modeled_write_s > 0.0,
            "gen {} stored nothing: modeled write {}",
            r.generation,
            r.modeled_write_s
        );
        assert!(
            r.overlapped_wall_s > 0.0,
            "gen {} drained nothing in the background: overlapped wall {}",
            r.generation,
            r.overlapped_wall_s
        );
        assert!(
            r.backpressure_s >= 0.0 && r.blocking_wall_s >= 0.0,
            "gen {} carries negative accounting",
            r.generation
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_sweep_reproduces_figure9_shape() {
        let cfg = Figure9Config {
            measured_ranks: vec![], // model only; captures are covered below
            capture_ranks: vec![],
            tier_ratios: vec![],
            delta_ranks: 0,
            drain_ranks: 0,
            ..Figure9Config::default()
        };
        let rep = figure9_report(&cfg);
        assert_eq!(rep.model.len(), 15);
        assert!(rep.tiers.is_empty() && rep.delta.is_none() && rep.drain.is_none());
        assert_figure9_write_shape(&rep.model);
        // For each image size, checkpoint time never improves with node
        // count and grows over the full sweep — low node counts are
        // injection-limited (flat), then the shared aggregate bandwidth
        // binds and the curve climbs (the Figure 9 knee).
        for bytes in cfg.image_bytes_per_rank {
            let times: Vec<f64> = rep
                .model
                .iter()
                .filter(|p| p.image_bytes_per_rank == bytes)
                .map(|p| p.write_s)
                .collect();
            assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "write time must not improve with node count: {times:?}"
            );
            assert!(
                times.last().unwrap() > times.first().unwrap(),
                "write time must grow over the sweep: {times:?}"
            );
        }
        // Bigger images cost more at equal node count.
        let at = |bytes: u64, nodes: usize| {
            rep.model
                .iter()
                .find(|p| p.image_bytes_per_rank == bytes && p.nodes == nodes)
                .unwrap()
                .write_s
        };
        assert!(at(64 << 20, 8) < at(1 << 30, 8));
    }

    #[test]
    fn measured_images_scale_with_rank_count_and_serialize() {
        let cfg = Figure9Config {
            node_counts: vec![1, 2],
            image_bytes_per_rank: vec![64 << 20],
            measured_ranks: vec![2, 4],
            steps: 20,
            capture_ranks: vec![16, 32],
            capture_reps: 2,
            tier_ratios: vec![1.0, 0.25],
            delta_ranks: 64,
            delta_stride: 8,
            drain_ranks: 4,
            drain_steps: 20,
            drain_ckpts: 1,
            ..Figure9Config::default()
        };
        let rep = figure9_report(&cfg);
        assert!(!rep.measured.is_empty(), "captures must fire");
        for m in &rep.measured {
            assert!(m.serialized_bytes > 0);
            assert!(m.cut_events > 0);
            // A committed checkpoint must have recorded its capture
            // bracket's wall time.
            assert!(
                m.capture_wall_s.is_finite() && m.capture_wall_s > 0.0,
                "missing capture_wall_s at {} ranks: {}",
                m.ranks,
                m.capture_wall_s
            );
        }
        assert_eq!(rep.capture.len(), 2);
        // 2 ratios x 2 node counts x 3 tiers.
        assert_eq!(rep.tiers.len(), 12);
        assert!(rep.delta.is_some() && rep.drain.is_some());
        let json = rep.to_json().encode();
        assert!(json.contains("\"model\""));
        assert!(json.contains("\"measured\""));
        assert!(json.contains("\"capture\""));
        assert!(json.contains("\"capture_wall_s\""));
        assert!(json.contains("\"tiers\""));
        assert!(json.contains("\"shrink_factor\""));
        assert!(json.contains("\"async_makespan_s\""));
    }

    /// The ISSUE's tier-ordering gate: every (ratio x nodes) cell writes
    /// and reads strictly cheaper on memory than partner, and on partner
    /// than Lustre, across the full default sweep.
    #[test]
    fn tier_sweep_orders_memory_partner_lustre_in_every_cell() {
        let points = tier_sweep(&[1, 2, 4, 8, 16], 128, &[1.0, 0.25, 0.1]);
        assert_eq!(points.len(), 3 * 5 * 3);
        assert_figure9_tier_order(&points);
    }

    /// The ISSUE's incremental-image gate: at 4096 ranks with ~10% of
    /// ranks changed (volatile clocks advancing everywhere), the delta
    /// image is >=5x smaller than its full parent.
    #[test]
    fn delta_cell_at_4096_ranks_shrinks_at_least_5x() {
        let d = delta_cell(4096, 10);
        assert_eq!(d.ranks, 4096);
        assert_eq!(d.changed_ranks, 410);
        assert_figure9_delta_shape(&d);
    }

    /// The ISSUE's async-drain gate: with the background drain the
    /// app-visible stall is the clone-out only — the virtual makespan
    /// drops below the synchronous run's and every checkpoint retires
    /// its encode+write on the overlapped component.
    #[test]
    fn drain_comparison_moves_write_cost_off_the_blocking_path() {
        let d = drain_comparison(8, 30, 2);
        assert_figure9_drain_shape(&d);
    }

    /// The ISSUE's tier-1 flatness gate: per-rank encode wall time of the
    /// parallel capture pipeline within 2× from 512 to 4096 ranks.
    #[test]
    fn capture_pipeline_per_rank_wall_time_stays_flat_512_to_4096() {
        let points = capture_sweep(&[512, 1024, 2048, 4096], 5);
        assert_figure9_capture_shape(&points);
    }
}
