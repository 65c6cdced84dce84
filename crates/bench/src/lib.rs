//! Bench crate: experiment harnesses (this module) plus integration tests
//! under `tests/`.
//!
//! The headline harness is the **protocol comparison** (the paper's
//! Figure 5a): the same workloads run under the CC drain protocol and
//! under MANA 2019's 2PC trivial-barrier protocol, against a `Native`
//! (no-interposition-cost) baseline, across world sizes and with OS jitter
//! on or off. 2PC inserts an `Ibarrier`+`Test` trivial barrier in front of
//! every collective, which de-pipelines non-synchronizing collectives
//! (`MPI_Bcast` pipelines down the tree under CC) and amplifies per-rank
//! jitter through the barrier's `max(entries)`; CC pays only a
//! nanosecond-scale wrapper increment. Each checkpointed run also records
//! the virtual drain latency per checkpoint and the modelled Lustre image
//! write time.
//!
//! `examples/figures.rs` runs each figure as a suite: it asserts the
//! suite's shape through the `assert_*` function of its module, then
//! writes the report's [`Json`].

use crate::json::obj;
use ckpt::wire::{Dec, DecodeError, Wr};
use ckpt::{
    run_ckpt_world, BodyStep, CcRank, CkptOptions, CkptTier, ResumeMode, StepBody, TierModels,
    TieredStore, Tiering, VirtualTimeSchedule,
};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};
use std::sync::Arc;
use workloads::{BcastPipelineStep, HaloStep, ScfStep};

pub mod availability;
pub mod figure7;
pub mod figure9;
pub mod json;
pub mod synth;
pub use availability::{
    assert_availability_shape, availability_report, AvailabilityConfig, AvailabilityPoint,
    AvailabilityReport, POLICY_LADDER,
};
pub use figure7::{
    assert_figure7_shape, figure7_cdf, figure7_json, figure7_report, Figure7CdfBucket,
    Figure7Config, Figure7Record,
};
pub use figure9::{
    assert_figure9_capture_shape, assert_figure9_delta_shape, assert_figure9_drain_shape,
    assert_figure9_shape, assert_figure9_tier_order, assert_figure9_write_shape, capture_sweep,
    delta_cell, drain_comparison, figure9_report, tier_sweep, Figure9CapturePoint, Figure9Config,
    Figure9DeltaPoint, Figure9DrainComparison, Figure9DrainRecord, Figure9Report, Figure9TierPoint,
};
pub use json::Json;
pub use synth::{perturbed_checkpoint, synthetic_checkpoint, with_unshared_lists};

/// A workload in the protocol-comparison matrix. All are 2PC-compatible
/// (no non-blocking collectives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// SCF-style iteration: dense blocking allreduce + bcast per step
    /// (high synchronizing-collective rate).
    Scf,
    /// Non-blocking halo exchange: irecv/isend pairs with overlapped
    /// compute, one barrier per iteration (the non-blocking workload).
    Halo,
    /// Broadcast pipeline: back-to-back non-synchronizing collectives —
    /// the worst case for a per-collective trivial barrier.
    BcastPipeline,
}

impl BenchWorkload {
    /// Stable name used in JSON records.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::Scf => "scf",
            BenchWorkload::Halo => "halo",
            BenchWorkload::BcastPipeline => "bcast_pipeline",
        }
    }

    /// All matrix workloads.
    pub const ALL: [BenchWorkload; 3] = [
        BenchWorkload::Scf,
        BenchWorkload::Halo,
        BenchWorkload::BcastPipeline,
    ];

    /// Runs `iters` iterations of this workload on one wrapped rank that
    /// owns its thread: [`BenchWorkload::step_body`] run to completion.
    pub fn run_iters(self, iters: usize, rank: &mut CcRank) -> f64 {
        rank.run(&mut self.step_body(iters))
    }

    /// `iters` iterations of this workload as a step body — the one
    /// program of a cell, whichever driver steps it.
    pub fn step_body(self, iters: usize) -> BenchStepBody {
        let inner = match self {
            BenchWorkload::Scf => BenchStepKind::Scf(ScfStep::new(iters, 8)),
            BenchWorkload::Halo => BenchStepKind::Halo(HaloStep::new(iters, 8)),
            BenchWorkload::BcastPipeline => {
                BenchStepKind::BcastPipeline(BcastPipelineStep::new(iters, 256))
            }
        };
        BenchStepBody { inner }
    }
}

enum BenchStepKind {
    Scf(ScfStep),
    Halo(HaloStep),
    BcastPipeline(BcastPipelineStep),
}

/// A bench workload as a heap step object.
pub struct BenchStepBody {
    inner: BenchStepKind,
}

impl BenchStepBody {
    /// The kernel's tag in a snapshot.
    fn kind(&self) -> u8 {
        match self.inner {
            BenchStepKind::Scf(_) => 0,
            BenchStepKind::Halo(_) => 1,
            BenchStepKind::BcastPipeline(_) => 2,
        }
    }
}

impl StepBody for BenchStepBody {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        match &mut self.inner {
            BenchStepKind::Scf(b) => b.step(r),
            BenchStepKind::Halo(b) => b.step(r),
            BenchStepKind::BcastPipeline(b) => b.step(r),
        }
    }

    /// The kernel's tag, then the kernel's own snapshot.
    fn save(&self, w: &mut dyn Wr) -> bool {
        w.u8(self.kind());
        match &self.inner {
            BenchStepKind::Scf(b) => b.save(w),
            BenchStepKind::Halo(b) => b.save(w),
            BenchStepKind::BcastPipeline(b) => b.save(w),
        }
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        if d.u8("bench kernel")? != self.kind() {
            return Err("bench kernel");
        }
        match &mut self.inner {
            BenchStepKind::Scf(b) => b.load(d),
            BenchStepKind::Halo(b) => b.load(d),
            BenchStepKind::BcastPipeline(b) => b.load(d),
        }
    }
}

/// One measured cell of the protocol-comparison matrix.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Protocol name ("CC" or "2PC").
    pub protocol: &'static str,
    /// World size.
    pub ranks: usize,
    /// Whether per-operation OS jitter was enabled.
    pub jitter: bool,
    /// Native-baseline makespan (virtual seconds).
    pub native_makespan_s: f64,
    /// Protocol-run makespan (virtual seconds), including any charged
    /// checkpoint image I/O.
    pub makespan_s: f64,
    /// Steady-state runtime overhead vs. the native baseline, percent —
    /// the charged checkpoint image I/O is subtracted first, so this
    /// isolates the interposition cost (Figure 5a's y-axis).
    pub overhead_pct: f64,
    /// Collective calls per rank (from the final interposition counters).
    pub coll_per_rank: f64,
    /// Collective calls per virtual second per rank.
    pub coll_rate_hz: f64,
    /// Trivial barriers posted per rank (zero under CC).
    pub trivial_barriers_per_rank: f64,
    /// Virtual drain latency of each checkpoint taken during the run.
    pub drain_latency_s: Vec<f64>,
    /// Modelled Lustre image write time per checkpoint (virtual seconds).
    pub ckpt_write_s: Vec<f64>,
}

impl BenchRecord {
    /// The record as one row of `BENCH_protocols.json`.
    pub fn to_json(&self) -> Json {
        obj! {
            "workload" => self.workload, "protocol" => self.protocol, "ranks" => self.ranks,
            "jitter" => self.jitter, "native_makespan_s" => self.native_makespan_s,
            "makespan_s" => self.makespan_s, "overhead_pct" => self.overhead_pct,
            "coll_per_rank" => self.coll_per_rank, "coll_rate_hz" => self.coll_rate_hz,
            "trivial_barriers_per_rank" => self.trivial_barriers_per_rank,
            "drain_latency_s" => self.drain_latency_s.as_slice(),
            "ckpt_write_s" => self.ckpt_write_s.as_slice(),
        }
    }
}

/// Matrix configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// World sizes to sweep.
    pub ranks: Vec<usize>,
    /// Workload iterations per run.
    pub iters: usize,
    /// Take one checkpoint-and-continue mid-run (drain latency + image
    /// write measurements) in the protocol runs.
    pub with_checkpoint: bool,
    /// Per-rank image size for the storage model (bytes).
    pub image_bytes_per_rank: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            ranks: vec![2, 4, 8],
            iters: 120,
            with_checkpoint: true,
            image_bytes_per_rank: 64 * 1024 * 1024,
        }
    }
}

fn world_cfg(n: usize, jitter: bool) -> WorldConfig {
    let params = if jitter {
        NetParams::slingshot11()
    } else {
        NetParams::slingshot11().without_jitter()
    };
    // Split across two "nodes" from 4 ranks up so inter-node latency (and
    // the barrier's sensitivity to it) participates.
    let rpn = if n >= 4 { n / 2 } else { n };
    WorldConfig::multi_node(n, rpn).with_params(params)
}

/// The protocol-independent baseline of one cell: data and makespan under
/// `Protocol::Native`.
struct Baseline {
    makespan_s: f64,
    data: Vec<f64>,
}

fn run_baseline(workload: BenchWorkload, n: usize, jitter: bool, iters: usize) -> Baseline {
    let native = run_ckpt_world(
        world_cfg(n, jitter),
        CkptOptions::native().with_protocol(Protocol::Native),
        |r| workload.run_iters(iters, r),
    );
    Baseline {
        makespan_s: native.makespan.as_secs(),
        data: native.results().copied().collect(),
    }
}

/// Runs one cell: a native baseline, then the protocol run (optionally
/// with one checkpoint-and-continue at half the native makespan).
pub fn run_case(
    workload: BenchWorkload,
    n: usize,
    jitter: bool,
    protocol: Protocol,
    cfg: &BenchConfig,
) -> BenchRecord {
    let native = run_baseline(workload, n, jitter, cfg.iters);
    run_case_against(workload, n, jitter, protocol, cfg, &native)
}

/// Runs one (workload, ranks, jitter) cell under both protocols against a
/// single shared native baseline. Returns `(cc, two_pc)`.
pub fn run_protocol_pair(
    workload: BenchWorkload,
    n: usize,
    jitter: bool,
    cfg: &BenchConfig,
) -> (BenchRecord, BenchRecord) {
    let native = run_baseline(workload, n, jitter, cfg.iters);
    (
        run_case_against(workload, n, jitter, Protocol::Cc, cfg, &native),
        run_case_against(workload, n, jitter, Protocol::TwoPhase, cfg, &native),
    )
}

fn run_case_against(
    workload: BenchWorkload,
    n: usize,
    jitter: bool,
    protocol: Protocol,
    cfg: &BenchConfig,
    native: &Baseline,
) -> BenchRecord {
    assert!(
        protocol == Protocol::Cc || protocol == Protocol::TwoPhase,
        "comparison cells are CC or 2PC"
    );
    let iters = cfg.iters;
    let mut opts = CkptOptions::native().with_protocol(protocol);
    if cfg.with_checkpoint {
        opts = opts
            .with_policy(VirtualTimeSchedule::once(VTime::from_secs(
                native.makespan_s * 0.5,
            )))
            .with_resume(ResumeMode::Continue)
            .with_tiering(
                Tiering::fixed(CkptTier::Lustre).with_store(Arc::new(TieredStore::new(
                    TierModels {
                        image_bytes_per_rank: cfg.image_bytes_per_rank,
                        ..TierModels::perlmutter()
                    },
                ))),
            );
    }
    let run = run_ckpt_world(world_cfg(n, jitter), opts, |r| workload.run_iters(iters, r));
    assert!(
        run.failures.is_empty(),
        "bench checkpoint aborted: {:?}",
        run.failures
    );

    // The run's data must match the baseline bit-for-bit: the protocols
    // may only change timing.
    let run_data: Vec<f64> = run.results().copied().collect();
    assert_eq!(
        native.data,
        run_data,
        "{} under {} diverged from the native data",
        workload.name(),
        protocol.name()
    );

    let io_s: f64 = run
        .checkpoints
        .iter()
        .map(|c| c.io_write_secs + c.io_read_secs)
        .sum();
    let drain_latency_s: Vec<f64> = run
        .checkpoints
        .iter()
        .map(ckpt::Checkpoint::drain_latency_secs)
        .collect();
    let ckpt_write_s: Vec<f64> = run.checkpoints.iter().map(|c| c.io_write_secs).collect();
    let native_s = native.makespan_s;
    let makespan_s = run.makespan.as_secs();
    // Overhead isolates the steady-state interposition cost (Figure 5a's
    // y-axis): subtract the charged image I/O from the full makespan.
    // Deliberately unclamped — a negative value is a measurement anomaly
    // worth seeing, not hiding.
    let proto_s = makespan_s - io_s;
    let overhead_pct = if native_s > 0.0 {
        (proto_s - native_s) / native_s * 100.0
    } else {
        0.0
    };
    let coll_per_rank = run
        .final_counters
        .iter()
        .map(|c| c.coll_total() as f64)
        .sum::<f64>()
        / n as f64;
    let tb_per_rank = run
        .final_counters
        .iter()
        .map(|c| c.trivial_barriers as f64)
        .sum::<f64>()
        / n as f64;
    BenchRecord {
        workload: workload.name(),
        protocol: protocol.name(),
        ranks: n,
        jitter,
        native_makespan_s: native_s,
        makespan_s,
        overhead_pct,
        coll_per_rank,
        coll_rate_hz: if proto_s > 0.0 {
            coll_per_rank / proto_s
        } else {
            0.0
        },
        trivial_barriers_per_rank: tb_per_rank,
        drain_latency_s,
        ckpt_write_s,
    }
}

/// The full Figure 5a matrix: workloads × ranks × jitter × {CC, 2PC}.
/// The native baseline of each (workload, ranks, jitter) cell is
/// protocol-independent and run once, shared by both protocol rows.
pub fn figure5a_matrix(cfg: &BenchConfig) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    for workload in BenchWorkload::ALL {
        for &n in &cfg.ranks {
            for jitter in [false, true] {
                let (cc, two_pc) = run_protocol_pair(workload, n, jitter, cfg);
                out.extend([cc, two_pc]);
            }
        }
    }
    out
}

/// The Figure 5a shape: at the largest world with jitter on, 2PC's
/// overhead exceeds CC's on every workload.
///
/// # Panics
/// Panics when the shape is violated or a cell is missing.
pub fn assert_figure5a_shape(records: &[BenchRecord]) {
    let max_ranks = records.iter().map(|r| r.ranks).max().expect("no records");
    let overhead = |wl: &str, proto: &str| {
        let cell = records
            .iter()
            .find(|r| r.workload == wl && r.protocol == proto && r.jitter && r.ranks == max_ranks);
        cell.expect("matrix cell present").overhead_pct
    };
    for wl in BenchWorkload::ALL.map(BenchWorkload::name) {
        let (cc, tp) = (overhead(wl, "CC"), overhead(wl, "2PC"));
        assert!(
            tp > cc,
            "Figure 5a shape violated: {wl}: 2PC {tp:.2}% <= CC {cc:.2}% at {max_ranks} ranks"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_record_row_keeps_its_keys_and_values() {
        let rec = BenchRecord {
            workload: "scf",
            protocol: "CC",
            ranks: 4,
            jitter: true,
            native_makespan_s: 1.0,
            makespan_s: 1.5,
            overhead_pct: 50.0,
            coll_per_rank: 10.0,
            coll_rate_hz: 6.66,
            trivial_barriers_per_rank: 0.0,
            drain_latency_s: vec![0.5e-3],
            ckpt_write_s: vec![1.25],
        };
        let s = [rec.to_json()].into_iter().collect::<Json>().encode();
        assert!(s.starts_with("[\n"));
        assert!(s.contains("\"workload\":\"scf\""));
        assert!(s.contains("\"drain_latency_s\":[0.000500000]"));
    }
}
