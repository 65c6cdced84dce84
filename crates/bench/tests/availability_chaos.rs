//! Chaos harness for the availability subsystem: seeded random fault
//! campaigns and deterministic failure edge cases.
//!
//! The sweep kills ranks and whole nodes at MTBF-sampled virtual times
//! across {CC, 2PC} × storage tiers {memory, partner, rotation with
//! Lustre, async partner} × bodies {without, with} a snapshot, and
//! demands that every run completes with final results bit-identical to
//! an undisturbed native baseline, zero backstop expiries, exactly one
//! recovery per injected fault, and no spurious `P2pStall` — a dead rank
//! must always surface as a typed `RankDeath`. Every campaign steps its
//! ranks on the worker pool. A body with a snapshot recovers from the
//! newest viable image; a closure body has none, so its images carry no
//! upper half and its campaign recovers from scratch, and every cell that
//! asserts *which* image a recovery resumed from runs a body with one.
//!
//! A small slice runs in every (debug) test pass; the full matrix is
//! release-only (`cargo test --release`).

use bench::{BenchStepBody, BenchWorkload};
use ckpt::{
    run_available_world_steps, run_ckpt_world_steps, BodyStep, CcRank, CkptOptions, CkptRunReport,
    CkptTier, DrainError, FaultPlan, FaultScope, FaultTrigger, PeriodicInterval, ResumeMode,
    StepBody, TierModels, TierSchedule, TieredStore, Tiering,
};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};
use netmodel::LustreModel;
use std::sync::Arc;

/// SCF iterations per run.
const ITERS: usize = 40;

fn world(n_ranks: usize, ranks_per_node: usize) -> WorldConfig {
    WorldConfig::multi_node(n_ranks, ranks_per_node)
        .with_params(NetParams::slingshot11().without_jitter())
}

/// Tier cost models scaled to a microsecond-scale workload: tiny images
/// and a Lustre model without the 1 s fixed-overhead floor, so every
/// tier's write charge stays well under the native makespan and a
/// periodic cadence never falls behind a charge (checkpoint storm).
fn micro_models() -> TierModels {
    TierModels {
        lustre: LustreModel {
            fixed_overhead: 2e-6,
            per_file_metadata: 1e-7,
            ..LustreModel::perlmutter_scratch()
        },
        image_bytes_per_rank: 4 * 1024,
        ..TierModels::perlmutter()
    }
}

fn micro_store() -> Arc<TieredStore> {
    Arc::new(TieredStore::new(micro_models()))
}

/// A fixed-interval cadence of at most `limit` checkpoints over `tiering`.
fn periodic(interval_s: f64, limit: usize, tiering: Tiering) -> CkptOptions {
    CkptOptions::native()
        .with_policy(PeriodicInterval::new(VTime::from_secs(interval_s), limit))
        .with_tiering(tiering)
}

fn scf_step(_rank: usize) -> BenchStepBody {
    BenchWorkload::Scf.step_body(ITERS)
}

/// The SCF kernel as a closure body: the same program as [`scf_step`],
/// with no snapshot, so its images restart in-process only.
fn scf_closure(rank: usize) -> impl FnMut(&mut CcRank) -> BodyStep<f64> + Send {
    let mut body = scf_step(rank);
    move |r: &mut CcRank| body.step(r)
}

fn native_baseline(cfg: WorldConfig) -> (Vec<f64>, f64) {
    let rep = run_ckpt_world_steps(cfg, CkptOptions::native(), scf_step);
    let base = rep.ranks.iter().map(|r| r.result).collect();
    (base, rep.makespan.as_secs())
}

/// The chaos invariant: the run recovered — bit-identically — with one
/// recovery per fault, no timed-out wait path, and every failure typed
/// as a death (never a spurious p2p stall).
fn assert_recovered(rep: &CkptRunReport<f64>, base: &[f64], ctx: &str) {
    assert_eq!(
        rep.backstop_expiries, 0,
        "{ctx}: a wait path fell back to its lost-wakeup backstop"
    );
    assert_eq!(
        rep.attempts,
        rep.faults.len() + 1,
        "{ctx}: every injected fault must cost exactly one recovery"
    );
    for e in &rep.failures {
        assert!(
            !matches!(e, DrainError::P2pStall { .. }),
            "{ctx}: dead rank misreported as a p2p stall: {e:?}"
        );
    }
    let got: Vec<f64> = rep.ranks.iter().map(|r| r.result).collect();
    assert_eq!(got, base, "{ctx}: recovered results diverged from baseline");
}

/// Samples the first non-empty seeded campaign at or after `seed` (an
/// exponential plan can legitimately come up empty; a chaos cell wants
/// at least one death).
fn non_empty_plan(
    seed: u64,
    mtbf_s: f64,
    horizon_s: f64,
    n_ranks: usize,
    nodes: usize,
) -> FaultPlan {
    (0..)
        .map(|k| FaultPlan::sample(seed + k, mtbf_s, horizon_s, n_ranks, nodes))
        .find(|p| !p.events.is_empty())
        .expect("exponential sampling yields a non-empty plan eventually")
}

#[derive(Clone, Copy, Debug)]
enum TierCase {
    Memory,
    Partner,
    /// memory / partner / Lustre rotation: node deaths land on every
    /// tier of the hierarchy, including the Lustre fallback.
    Rotation,
    /// Partner tier drained by the background thread: deaths can strike
    /// while an image is in flight.
    AsyncPartner,
}

impl TierCase {
    fn tiering(self) -> Tiering {
        let store = micro_store();
        match self {
            TierCase::Memory => Tiering::fixed(CkptTier::Memory).with_store(store),
            TierCase::Partner => Tiering::fixed(CkptTier::Partner).with_store(store),
            TierCase::Rotation => Tiering::fixed(CkptTier::Memory)
                .with_store(store)
                .with_schedule(TierSchedule::Rotation {
                    partner_every: 2,
                    lustre_every: 3,
                }),
            TierCase::AsyncPartner => Tiering::fixed(CkptTier::Partner)
                .with_store(store)
                .with_async_drain(true),
        }
    }
}

/// Which SCF body a campaign runs: [`scf_closure`] or [`scf_step`].
#[derive(Clone, Copy, Debug)]
enum Rep {
    Closure,
    Step,
}

/// One chaos cell: seeded deaths under one (protocol, tier, rep) combo.
fn chaos_cell(proto: Protocol, tier: TierCase, rep: Rep, seed: u64) {
    let cfg = world(8, 2);
    let (base, makespan) = native_baseline(cfg.clone());
    let plan = non_empty_plan(seed, makespan * 0.6, makespan * 0.8, 8, 4);
    let faults = plan.events.len();
    let opts = periodic(makespan / 5.0, 100, tier.tiering()).with_protocol(proto);
    let ctx = format!("{proto:?}/{tier:?}/{rep:?}/seed {seed}");
    let rep_out = match rep {
        Rep::Closure => run_available_world_steps(cfg, opts, plan, scf_closure),
        Rep::Step => run_available_world_steps(cfg, opts, plan, scf_step),
    };
    assert_eq!(rep_out.faults.len(), faults, "{ctx}: every event must fire");
    assert_recovered(&rep_out, &base, &ctx);
}

/// The always-on CI slice: one cell without a snapshot and one with,
/// covering both protocols, the full tier rotation, and the memory tier.
#[test]
fn chaos_ci_slice() {
    chaos_cell(Protocol::Cc, TierCase::Rotation, Rep::Closure, 11);
    chaos_cell(Protocol::TwoPhase, TierCase::Memory, Rep::Step, 12);
}

/// A campaign takes the plain runner's options, resume mode included:
/// every checkpoint rebuilds the lower half in-process, and one death is
/// still recovered — from the newest image for a body with a snapshot,
/// from scratch for one without, whose images restart in-process only.
#[test]
fn restart_resume_campaign_recovers_under_both_drivers() {
    for rep in [Rep::Closure, Rep::Step] {
        let cfg = world(8, 2);
        let (base, makespan) = native_baseline(cfg.clone());
        let opts = periodic(makespan / 5.0, 100, TierCase::Memory.tiering())
            .with_resume(ResumeMode::Restart);
        let plan = FaultPlan::one(
            FaultTrigger::AtVirtual(VTime::from_secs(makespan * 0.6)),
            FaultScope::Rank(3),
        );
        let ctx = format!("Restart/{rep:?}");
        let out = match rep {
            Rep::Closure => run_available_world_steps(cfg, opts, plan, scf_closure),
            Rep::Step => run_available_world_steps(cfg, opts, plan, scf_step),
        };
        assert_eq!(out.faults.len(), 1, "{ctx}: the death must fire");
        assert!(
            !out.checkpoints.is_empty(),
            "{ctx}: the campaign checkpoints"
        );
        assert_eq!(
            out.faults[0].resumed_generation.is_some(),
            matches!(rep, Rep::Step),
            "{ctx}: a restart-mode checkpoint of a body with a snapshot must \
             be viable, of one without never: {:?}",
            out.faults
        );
        assert_recovered(&out, &base, &ctx);
    }
}

/// The full matrix: {CC, 2PC} × {memory, partner, rotation, async
/// partner} × {closure, step} bodies × two seeds each. Release-only.
#[test]
#[cfg_attr(debug_assertions, ignore = "full chaos matrix is release-only")]
fn chaos_full_matrix() {
    for proto in [Protocol::Cc, Protocol::TwoPhase] {
        for tier in [
            TierCase::Memory,
            TierCase::Partner,
            TierCase::Rotation,
            TierCase::AsyncPartner,
        ] {
            for rep in [Rep::Closure, Rep::Step] {
                for seed in [21, 22] {
                    chaos_cell(proto, tier, rep, seed);
                }
            }
        }
    }
}

/// A non-blocking-collective workload under chaos: halo exchange with
/// irecv/isend pairs, killed mid-run and recovered. Release-only.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only")]
fn chaos_halo_nonblocking() {
    let cfg = world(8, 2);
    let body = |_| BenchWorkload::Halo.step_body(ITERS);
    let native = run_ckpt_world_steps(cfg.clone(), CkptOptions::native(), body);
    let base: Vec<f64> = native.ranks.iter().map(|r| r.result).collect();
    let makespan = native.makespan.as_secs();
    let plan = non_empty_plan(31, makespan * 0.6, makespan * 0.8, 8, 4);
    let opts = periodic(makespan / 5.0, 100, TierCase::Rotation.tiering());
    let rep = run_available_world_steps(cfg, opts, plan, body);
    assert_recovered(&rep, &base, "halo chaos");
    assert!(!rep.faults.is_empty());
}

/// Edge case: a rank dies *mid-drain* — targets installed, ranks
/// draining, nobody quiesced. The drain must abort with a typed
/// [`DrainError::RankDeath`] (never reporting the dead rank as a p2p
/// stall: the stall rule skips dead ranks, and the wait checks for death
/// before it judges), and recovery must still complete bit-identically.
#[test]
fn mid_drain_death_is_typed_and_recovers() {
    let cfg = world(4, 2);
    let (base, makespan) = native_baseline(cfg.clone());
    let opts = periodic(
        makespan / 8.0,
        100,
        Tiering::fixed(CkptTier::Memory).with_store(micro_store()),
    );
    let plan = FaultPlan::one(
        FaultTrigger::MidDrain(VTime::from_secs(0.0)),
        FaultScope::Rank(0),
    );
    let rep = run_available_world_steps(cfg, opts, plan, scf_step);
    assert_eq!(rep.faults.len(), 1, "the mid-drain death must fire");
    assert!(
        rep.failures
            .iter()
            .any(|e| matches!(e, DrainError::RankDeath(_))),
        "the aborted drain must surface as a typed death: {:?}",
        rep.failures
    );
    assert_recovered(&rep, &base, "mid-drain death");
}

/// Edge case: a node dies while the background drain has an image in
/// flight. The in-flight generation's landing post-dates the death, so
/// recovery must discard it and resume from an older, fully-landed
/// partner generation; the back-pressure path must release (no wait
/// path times out) and the run completes bit-identically.
#[test]
fn async_drain_node_death_discards_inflight_image() {
    let cfg = world(4, 2);
    let (base, makespan) = native_baseline(cfg.clone());
    let opts = periodic(
        makespan / 8.0,
        100,
        Tiering::fixed(CkptTier::Partner)
            .with_store(micro_store())
            .with_async_drain(true),
    );
    let plan = FaultPlan::one(
        FaultTrigger::DuringAsyncDrain(VTime::from_secs(makespan * 0.4)),
        FaultScope::Node(0),
    );
    let rep = run_available_world_steps(cfg, opts, plan, scf_step);
    assert_eq!(rep.faults.len(), 1, "the in-flight death must fire");
    let f = &rep.faults[0];
    assert_eq!(
        f.resumed_tier,
        Some(CkptTier::Partner),
        "a single node loss must still be readable from the partner tier"
    );
    let resumed = f
        .resumed_generation
        .expect("an older landed generation must be viable");
    let death_s = f.death.at.as_secs();
    assert!(
        rep.store_records
            .iter()
            .any(|r| r.generation > resumed && r.landing_v_s > death_s),
        "the in-flight image (landing after the death) must exist and be \
         skipped: resumed {resumed}, death at {death_s}, records {:?}",
        rep.store_records
            .iter()
            .map(|r| (r.generation, r.landing_v_s))
            .collect::<Vec<_>>()
    );
    assert_recovered(&rep, &base, "async-drain node death");
}

/// Edge case: losing a buddy *pair* defeats the partner tier. Three
/// checkpoints land on memory (gen 0), Lustre (gen 1), and partner
/// (gen 2). The first node death leaves the partner image readable from
/// the buddy replica — recovery resumes from gen 2 on the partner tier.
/// The second death takes the buddy too, so the partner generation
/// reports `NodeLost` and recovery falls back to the older Lustre
/// generation. The resumed-tier sequence must be [Partner, Lustre].
#[test]
fn buddy_pair_loss_falls_back_partner_then_lustre() {
    let cfg = world(8, 2);
    let (base, makespan) = native_baseline(cfg.clone());
    let opts = periodic(
        makespan / 6.0,
        3,
        Tiering::fixed(CkptTier::Memory)
            .with_store(micro_store())
            // One-based rotation: gen 0 memory, gen 1 Lustre, gen 2 partner.
            .with_schedule(TierSchedule::Rotation {
                partner_every: 3,
                lustre_every: 2,
            }),
    );
    let plan = FaultPlan {
        events: vec![
            ckpt::FaultEvent {
                trigger: FaultTrigger::AtVirtual(VTime::from_secs(makespan * 0.75)),
                scope: FaultScope::Node(1),
            },
            ckpt::FaultEvent {
                trigger: FaultTrigger::AtVirtual(VTime::from_secs(makespan * 0.9)),
                scope: FaultScope::Node(2),
            },
        ],
    };
    let rep = run_available_world_steps(cfg, opts, plan, scf_step);
    assert_eq!(rep.faults.len(), 2, "both node deaths must fire");
    let tiers: Vec<_> = rep.faults.iter().map(|f| f.resumed_tier).collect();
    assert_eq!(
        tiers,
        vec![Some(CkptTier::Partner), Some(CkptTier::Lustre)],
        "first death survives on the buddy replica, the second defeats \
         the pair and falls back to Lustre: {:?}",
        rep.faults
    );
    assert_eq!(rep.faults[0].resumed_generation, Some(2));
    assert_eq!(rep.faults[1].resumed_generation, Some(1));
    assert_recovered(&rep, &base, "buddy-pair loss");
}
