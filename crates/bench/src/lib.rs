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

use ckpt::{
    run_ckpt_world, BodyStep, CcRank, CkptOptions, ResumeMode, StepBody, StorageSpec,
    VirtualTimeSchedule,
};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};
use netmodel::LustreModel;
use workloads::{BcastPipelineStep, HaloStep, ScfStep};

pub mod availability;
pub mod figure7;
pub mod figure9;
pub mod synth;
pub use availability::{
    assert_availability_shape, availability_report, availability_to_json, AvailabilityConfig,
    AvailabilityPoint, AvailabilityReport, POLICY_LADDER,
};
pub use figure7::{
    figure7_cdf, figure7_report, figure7_to_json, Figure7CdfBucket, Figure7Config, Figure7Record,
};
pub use figure9::{
    assert_figure9_capture_shape, assert_figure9_delta_shape, assert_figure9_drain_shape,
    assert_figure9_tier_order, capture_sweep, delta_cell, drain_comparison, figure9_report,
    figure9_to_json, tier_sweep, Figure9CapturePoint, Figure9Config, Figure9DeltaPoint,
    Figure9DrainComparison, Figure9DrainRecord, Figure9Report, Figure9TierPoint,
};
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
        BenchStepBody {
            pace_us: None,
            inner,
        }
    }
}

enum BenchStepKind {
    Scf(ScfStep),
    Halo(HaloStep),
    BcastPipeline(BcastPipelineStep),
}

/// A bench workload as a heap step object, optionally wall-paced (the
/// pace is applied once, before the first body step, exactly where the
/// closure cells call `set_wall_pace_us`; virtual time is unaffected).
pub struct BenchStepBody {
    pace_us: Option<u64>,
    inner: BenchStepKind,
}

impl BenchStepBody {
    /// Adds a per-compute wall pace (µs), applied before the first step.
    pub fn with_pace_us(mut self, us: u64) -> Self {
        self.pace_us = Some(us);
        self
    }
}

impl StepBody for BenchStepBody {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        if let Some(us) = self.pace_us.take() {
            r.set_wall_pace_us(us);
        }
        match &mut self.inner {
            BenchStepKind::Scf(b) => b.step(r),
            BenchStepKind::Halo(b) => b.step(r),
            BenchStepKind::BcastPipeline(b) => b.step(r),
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
            .with_storage(StorageSpec {
                model: LustreModel::perlmutter_scratch(),
                image_bytes_per_rank: cfg.image_bytes_per_rank,
            });
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

    // Exclude checkpoint I/O and drain stall from the protocol-overhead
    // number: subtract the charged image time so `overhead_pct` isolates
    // the steady-state interposition cost (Figure 5a's y-axis).
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
                let native = run_baseline(workload, n, jitter, cfg.iters);
                for protocol in [Protocol::Cc, Protocol::TwoPhase] {
                    out.push(run_case_against(
                        workload, n, jitter, protocol, cfg, &native,
                    ));
                }
            }
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

fn json_f64_list(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", items.join(","))
}

/// Serializes records as a JSON array (no external dependencies).
pub fn records_to_json(records: &[BenchRecord]) -> String {
    let mut rows = Vec::with_capacity(records.len());
    for r in records {
        rows.push(format!(
            concat!(
                "  {{\"workload\":\"{}\",\"protocol\":\"{}\",\"ranks\":{},",
                "\"jitter\":{},\"native_makespan_s\":{},\"makespan_s\":{},",
                "\"overhead_pct\":{},\"coll_per_rank\":{},\"coll_rate_hz\":{},",
                "\"trivial_barriers_per_rank\":{},\"drain_latency_s\":{},",
                "\"ckpt_write_s\":{}}}"
            ),
            r.workload,
            r.protocol,
            r.ranks,
            r.jitter,
            json_f64(r.native_makespan_s),
            json_f64(r.makespan_s),
            json_f64(r.overhead_pct),
            json_f64(r.coll_per_rank),
            json_f64(r.coll_rate_hz),
            json_f64(r.trivial_barriers_per_rank),
            json_f64_list(&r.drain_latency_s),
            json_f64_list(&r.ckpt_write_s),
        ));
    }
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_wellformed() {
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
        let s = records_to_json(&[rec]);
        assert!(s.starts_with("[\n"));
        assert!(s.contains("\"workload\":\"scf\""));
        assert!(s.contains("\"drain_latency_s\":[0.000500000]"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
