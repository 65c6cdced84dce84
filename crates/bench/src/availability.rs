//! The availability campaign: MTBF × interval policy × protocol.
//!
//! The question a checkpoint cadence answers is economic: checkpoint too
//! rarely and every failure throws away a long stretch of work;
//! checkpoint too often and the write cost dominates a failure-free run.
//! Young/Daly closes the trade at `sqrt(2·δ·MTBF)` for write cost `δ`.
//! This harness measures the whole curve end-to-end on the real recovery
//! machinery ([`ckpt::run_available_world_steps`]: the SCF kernel as a
//! step body, so each recovery restores its image):
//!
//! * a deterministic, seeded [`FaultPlan`] per MTBF row — exponential
//!   inter-failure gaps, rank- and node-scope deaths — reused verbatim
//!   for every policy and protocol in the row, so cells differ only in
//!   the knob under study;
//! * a three-rung interval ladder per row: fixed periods at 4× and 2×
//!   the Young/Daly optimum, then the self-correcting
//!   [`ckpt::DalyInterval`] at the optimum itself;
//! * both coordination protocols ({CC, 2PC}) over a rotating
//!   memory/partner tier schedule, so node deaths exercise the
//!   tier-fallback path of recovery. Lustre is deliberately absent: its
//!   modeled write time is orders of magnitude above this microscale
//!   workload's makespan, so any fixed interval sits permanently behind
//!   a Lustre charge and fires a checkpoint storm — the Lustre fallback
//!   path is exercised by the chaos suite instead.
//!
//! Each cell reports wasted work (virtual seconds of progress lost
//! between the restored image's capture and the death, as a % of the
//! native makespan), makespan inflation (completed virtual makespan plus
//! the rewound waste, over native), and summed recovery latency (modeled
//! image read-back on the surviving topology). The asserted shape
//! ([`assert_availability_shape`]): every run completes with zero
//! backstop expiries, exactly one recovery per fault and no checkpoint
//! storm, and per protocol the mean wasted-work fraction *decreases* down
//! the ladder toward the Daly optimum.
//!
//! `figures availability` writes [`AvailabilityReport::to_json`] to
//! `BENCH_availability.json`.

use crate::json::obj;
use crate::{BenchWorkload, Json};
use ckpt::{
    run_available_world_steps, run_ckpt_world_steps, young_daly_interval_s, CkptOptions, CkptTier,
    DalyInterval, FaultPlan, ImageSetLayout, PeriodicInterval, TierModels, TierSchedule,
    TieredStore, Tiering,
};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};
use std::sync::Arc;

/// Ladder rung names, in decreasing-interval (increasing-quality) order.
pub const POLICY_LADDER: [&str; 3] = ["periodic4x", "periodic2x", "daly"];

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct AvailabilityPoint {
    /// Protocol name ("cc", "2pc").
    pub protocol: &'static str,
    /// Mean time between failures of this row's fault plan, virtual
    /// seconds.
    pub mtbf_s: f64,
    /// Ladder rung ("periodic4x", "periodic2x", "daly").
    pub policy: &'static str,
    /// The rung's checkpoint interval, virtual seconds (the Daly rung's
    /// initial interval; it self-corrects from measured write costs).
    pub interval_s: f64,
    /// Most checkpoints the cell may take without a storm: the rung's
    /// shortest intervals that fit one failure-free run of its protocol,
    /// plus one per fault, plus one.
    pub checkpoint_budget: usize,
    /// Faults injected (and recovered from).
    pub faults: usize,
    /// World attempts (always `faults + 1`).
    pub attempts: usize,
    /// Checkpoints committed across all attempts.
    pub checkpoints: usize,
    /// Virtual seconds of work lost to deaths.
    pub wasted_work_s: f64,
    /// `wasted_work_s` over the native makespan.
    pub wasted_work_frac: f64,
    /// Summed modeled image read-back cost of every recovery, virtual
    /// seconds.
    pub recovery_latency_s: f64,
    /// Final completed virtual makespan, seconds.
    pub makespan_s: f64,
    /// `(makespan_s + wasted_work_s) / native makespan` — the virtual
    /// clock rewinds at restore, so lost progress is added back to get
    /// the effective elapsed cost.
    pub makespan_inflation: f64,
    /// Backstop-expiry wakeups summed over every attempt (must be 0).
    pub backstop_expiries: u64,
}

/// The full campaign result.
#[derive(Debug, Clone)]
pub struct AvailabilityReport {
    /// World size.
    pub ranks: usize,
    /// Launch packing.
    pub ranks_per_node: usize,
    /// Failure-free native makespan, virtual seconds (the denominator of
    /// every fraction).
    pub native_makespan_s: f64,
    /// Modeled cost of one full image set — encode plus the tier write,
    /// averaged over the memory/partner rotation — in virtual seconds:
    /// the `δ` seeding the Daly rung.
    pub write_cost_s: f64,
    /// Sweep cells, in (protocol, MTBF, ladder) order.
    pub points: Vec<AvailabilityPoint>,
}

impl AvailabilityReport {
    /// The `BENCH_availability.json` file: the campaign's constants, then
    /// one row per cell.
    pub fn to_json(&self) -> Json {
        let points = self.points.iter().map(|p| {
            obj! {
                "protocol" => p.protocol, "mtbf_s" => p.mtbf_s, "policy" => p.policy,
                "interval_s" => p.interval_s, "faults" => p.faults, "attempts" => p.attempts,
                "checkpoints" => p.checkpoints, "checkpoint_budget" => p.checkpoint_budget,
                "wasted_work_s" => p.wasted_work_s, "wasted_work_frac" => p.wasted_work_frac,
                "recovery_latency_s" => p.recovery_latency_s, "makespan_s" => p.makespan_s,
                "makespan_inflation" => p.makespan_inflation,
                "backstop_expiries" => p.backstop_expiries,
            }
        });
        obj! {
            "ranks" => self.ranks, "ranks_per_node" => self.ranks_per_node,
            "native_makespan_s" => self.native_makespan_s, "write_cost_s" => self.write_cost_s,
            "points" => points.collect::<Json>(),
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct AvailabilityConfig {
    /// World size.
    pub ranks: usize,
    /// Ranks per node (node-scope faults kill one node's worth).
    pub ranks_per_node: usize,
    /// SCF iterations of the workload.
    pub iters: usize,
    /// MTBF rows, as fractions of the native makespan.
    pub mtbf_factors: Vec<f64>,
    /// Fault-plan horizon, as a fraction of the native makespan — kept
    /// below 1.0 so every sampled death lands before completion under
    /// every policy.
    pub horizon_factor: f64,
    /// Base seed of the fault plans.
    pub seed: u64,
    /// Modeled full-image bytes per rank. Deliberately small: the write
    /// cost (encode plus tier write) must sit well under the makespan for
    /// the interval ladder to have room between `4×opt` and the optimum.
    pub image_bytes_per_rank: u64,
}

impl Default for AvailabilityConfig {
    fn default() -> Self {
        AvailabilityConfig {
            ranks: 8,
            ranks_per_node: 2,
            iters: 400,
            mtbf_factors: vec![0.25, 0.5, 1.0],
            horizon_factor: 0.8,
            seed: 0xA11A,
            image_bytes_per_rank: 256 << 10,
        }
    }
}

impl AvailabilityConfig {
    fn world(&self) -> WorldConfig {
        WorldConfig::multi_node(self.ranks, self.ranks_per_node)
            .with_params(NetParams::slingshot11().without_jitter())
    }

    fn models(&self) -> TierModels {
        TierModels {
            image_bytes_per_rank: self.image_bytes_per_rank,
            ..TierModels::perlmutter()
        }
    }
}

/// Runs the campaign.
pub fn availability_report(cfg: &AvailabilityConfig) -> AvailabilityReport {
    let iters = cfg.iters;
    let body = move |_| BenchWorkload::Scf.step_body(iters);
    let native = run_ckpt_world_steps(cfg.world(), CkptOptions::native(), body);
    let native_s = native.makespan.as_secs();
    let models = cfg.models();
    let layout = ImageSetLayout::packed(
        cfg.ranks,
        cfg.ranks_per_node,
        models.image_bytes_per_rank * cfg.ranks as u64,
    );
    // The rotation alternates memory and partner writes; Daly's δ is the
    // mean per-generation cost it actually pays: the tier-independent
    // encode plus the tier's write, as the coordinator charges it.
    let encode_s = models
        .lustre
        .encode_time(layout.bytes_per_node(), cfg.world().resolved_workers());
    let memory_s = models.write_secs(CkptTier::Memory, &layout);
    let write_cost_s = encode_s + (memory_s + models.write_secs(CkptTier::Partner, &layout)) / 2.0;

    let mut points = Vec::new();
    for (proto_name, protocol) in [("cc", Protocol::Cc), ("2pc", Protocol::TwoPhase)] {
        let opts = CkptOptions::native().with_protocol(protocol);
        let protocol_makespan_s = run_ckpt_world_steps(cfg.world(), opts, body).makespan;
        for (row, &factor) in cfg.mtbf_factors.iter().enumerate() {
            let mtbf_s = native_s * factor;
            let horizon = native_s * cfg.horizon_factor;
            // Deterministically skip past seeds whose plan is empty — an
            // eventless row says nothing about the ladder.
            let plan = (0..)
                .map(|k| {
                    FaultPlan::sample(
                        cfg.seed + (row as u64) * 1009 + k,
                        mtbf_s,
                        horizon,
                        cfg.ranks,
                        cfg.ranks.div_ceil(cfg.ranks_per_node),
                    )
                })
                .find(|p| !p.events.is_empty())
                .unwrap();
            let opt_s = young_daly_interval_s(write_cost_s, mtbf_s);
            // Each rung's shortest interval bounds its checkpoint count;
            // Daly's is the optimum at the cheapest tier's cost.
            let ladder = [
                ("periodic4x", 4.0 * opt_s, 4.0 * opt_s),
                ("periodic2x", 2.0 * opt_s, 2.0 * opt_s),
                (
                    "daly",
                    opt_s,
                    young_daly_interval_s(encode_s + memory_s, mtbf_s),
                ),
            ];
            for (rung, interval_s, min_interval_s) in ladder {
                let opts = CkptOptions::native().with_protocol(protocol);
                let opts = if rung == "daly" {
                    opts.with_policy(DalyInterval::new(mtbf_s, write_cost_s))
                } else {
                    let interval = VTime::from_secs(interval_s);
                    opts.with_policy(PeriodicInterval::new(interval, usize::MAX))
                };
                // A fresh store per cell: node drops and generations must
                // not leak between runs.
                let tiering = Tiering::fixed(CkptTier::Memory)
                    .with_store(Arc::new(TieredStore::new(models.clone())))
                    .with_schedule(TierSchedule::Rotation {
                        partner_every: 2,
                        lustre_every: 0,
                    });
                let opts = opts.with_tiering(tiering);
                let rep = run_available_world_steps(cfg.world(), opts, plan.clone(), body);
                let makespan_s = rep.makespan.as_secs();
                let fits = (protocol_makespan_s.as_secs() / min_interval_s).ceil() as usize;
                points.push(AvailabilityPoint {
                    protocol: proto_name,
                    mtbf_s,
                    policy: rung,
                    interval_s,
                    checkpoint_budget: fits + rep.faults.len() + 1,
                    faults: rep.faults.len(),
                    attempts: rep.attempts,
                    checkpoints: rep.checkpoints.len(),
                    wasted_work_s: rep.wasted_work_s,
                    wasted_work_frac: rep.wasted_work_s / native_s,
                    recovery_latency_s: rep.recovery_latency_s,
                    makespan_s,
                    makespan_inflation: (makespan_s + rep.wasted_work_s) / native_s,
                    backstop_expiries: rep.backstop_expiries,
                });
            }
        }
    }

    AvailabilityReport {
        ranks: cfg.ranks,
        ranks_per_node: cfg.ranks_per_node,
        native_makespan_s: native_s,
        write_cost_s,
        points,
    }
}

/// Mean wasted-work fraction of one protocol's cells on one ladder rung.
fn mean_wasted(points: &[AvailabilityPoint], protocol: &str, policy: &str) -> f64 {
    let cells: Vec<f64> = points
        .iter()
        .filter(|p| p.protocol == protocol && p.policy == policy)
        .map(|p| p.wasted_work_frac)
        .collect();
    assert!(!cells.is_empty(), "no cells for {protocol}/{policy}");
    cells.iter().sum::<f64>() / cells.len() as f64
}

/// The campaign shape check, asserted by `figures availability` before it
/// writes: the grid is complete, every cell recovered every fault with
/// zero backstop expiries, and per protocol the mean wasted-work
/// fraction decreases down the interval ladder toward the Daly optimum.
///
/// # Panics
/// Panics when the shape is violated.
pub fn assert_availability_shape(rep: &AvailabilityReport, mtbf_rows: usize) {
    assert!(rep.native_makespan_s > 0.0 && rep.write_cost_s > 0.0);
    assert!(
        rep.write_cost_s < rep.native_makespan_s / 4.0,
        "write cost {} too close to the makespan {} for the ladder to resolve",
        rep.write_cost_s,
        rep.native_makespan_s
    );
    assert_eq!(
        rep.points.len(),
        2 * mtbf_rows * POLICY_LADDER.len(),
        "incomplete sweep grid"
    );
    for p in &rep.points {
        assert_eq!(
            p.backstop_expiries, 0,
            "{}/{}/mtbf {}: a wait path timed out instead of being woken",
            p.protocol, p.policy, p.mtbf_s
        );
        assert_eq!(
            p.attempts,
            p.faults + 1,
            "{}/{}: every fault costs exactly one recovery attempt",
            p.protocol,
            p.policy
        );
        assert!(p.faults > 0, "{}/{}: eventless cell", p.protocol, p.policy);
        assert!(
            p.makespan_s.is_finite() && p.makespan_s > 0.0,
            "{}/{}: bad makespan {}",
            p.protocol,
            p.policy,
            p.makespan_s
        );
        assert!(p.wasted_work_s >= 0.0 && p.recovery_latency_s >= 0.0);
        // No checkpoint storm: a policy arms each deadline an interval of
        // application progress past the previous checkpoint's resume.
        assert!(
            p.checkpoints <= p.checkpoint_budget,
            "{}/{}/mtbf {}: {} checkpoints exceed {} (a checkpoint storm)",
            p.protocol,
            p.policy,
            p.mtbf_s,
            p.checkpoints,
            p.checkpoint_budget
        );
        assert!(
            p.makespan_inflation >= 1.0 - 1e-9,
            "{}/{}: effective makespan below native ({})",
            p.protocol,
            p.policy,
            p.makespan_inflation
        );
    }
    for proto in ["cc", "2pc"] {
        let coarse = mean_wasted(&rep.points, proto, "periodic4x");
        let mid = mean_wasted(&rep.points, proto, "periodic2x");
        let daly = mean_wasted(&rep.points, proto, "daly");
        assert!(
            coarse >= mid - 1e-9 && mid >= daly - 1e-9,
            "{proto}: wasted work must decrease down the ladder: \
             4x {coarse:.4} -> 2x {mid:.4} -> daly {daly:.4}"
        );
        assert!(
            coarse > daly,
            "{proto}: the Daly rung must strictly beat the 4x-coarse rung: \
             {coarse:.4} vs {daly:.4}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-1 slice: one MTBF row, full ladder, both protocols —
    /// small enough for a debug run, strong enough to pin the grid,
    /// recovery, and zero-backstop invariants (the full-grid ladder
    /// monotonicity runs in the release CI job).
    #[test]
    fn availability_slice_completes_and_serializes() {
        let cfg = AvailabilityConfig {
            iters: 200,
            mtbf_factors: vec![0.35],
            ..AvailabilityConfig::default()
        };
        let rep = availability_report(&cfg);
        assert_eq!(rep.points.len(), 6);
        for p in &rep.points {
            assert_eq!(p.backstop_expiries, 0);
            assert_eq!(p.attempts, p.faults + 1);
            assert!(p.faults > 0);
        }
        let json = rep.to_json().encode();
        assert!(json.contains("\"wasted_work_frac\""));
        assert!(json.contains("\"daly\""));
    }
}
