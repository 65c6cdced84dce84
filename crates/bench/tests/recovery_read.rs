//! A recovery is a restore: the campaign's image arm packs the restored
//! world by the same rule as a from-scratch attempt, and charges the
//! image read-back by the same rule as a restore through the public
//! entry points — [`TieredStore::read_secs`] of the generation the image
//! came from, on the restored packing.

use bench::BenchStepBody;
use bench::BenchWorkload;
use ckpt::{
    restore_ckpt_world_steps, run_available_world_steps, run_ckpt_world_steps,
    try_restore_ckpt_world_steps, CkptOptions, CkptTier, FaultPlan, FaultScope, FaultTrigger,
    ImageSetLayout, RestoreConfig, TierModels, TieredStore, Tiering, VirtualTimeSchedule,
};
use mpisim::{NetParams, VTime, WorldConfig};
use netmodel::LustreModel;
use std::sync::Arc;
use workloads::Paced;

const PACE_US: u64 = 300;
const ITERS: usize = 40;

fn world(n_ranks: usize, ranks_per_node: usize) -> WorldConfig {
    WorldConfig::multi_node(n_ranks, ranks_per_node)
        .with_params(NetParams::slingshot11().without_jitter())
}

/// A Lustre tier scaled to the microsecond workload: its per-file
/// metadata term makes the read depend on files per node, so a restore
/// onto a different packing charges a different read.
fn lustre_store() -> Arc<TieredStore> {
    Arc::new(TieredStore::new(TierModels {
        lustre: LustreModel {
            fixed_overhead: 2e-6,
            per_file_metadata: 1e-7,
            ..LustreModel::perlmutter_scratch()
        },
        image_bytes_per_rank: 4 * 1024,
        ..TierModels::perlmutter()
    }))
}

/// The read a restore of `gen` onto `rpn` ranks per node is charged.
fn read_at(store: &TieredStore, gen: u64, n_ranks: usize, rpn: usize) -> f64 {
    let bytes = store.models().image_bytes_per_rank * n_ranks as u64;
    store
        .read_secs(gen, &ImageSetLayout::packed(n_ranks, rpn, bytes))
        .expect("the store holds the generation")
}

fn paced_scf(_rank: usize) -> Paced<BenchStepBody> {
    Paced::new(BenchWorkload::Scf.step_body(ITERS), PACE_US)
}

/// One checkpoint at 30 % of the native makespan over `store`'s Lustre
/// tier, then one death at 70 %.
fn one_checkpoint_one_death(
    store: &Arc<TieredStore>,
    makespan_s: f64,
    scope: FaultScope,
) -> (CkptOptions, FaultPlan) {
    let opts = CkptOptions::native()
        .with_policy(VirtualTimeSchedule::once(VTime::from_secs(
            0.3 * makespan_s,
        )))
        .with_tiering(Tiering::fixed(CkptTier::Lustre).with_store(Arc::clone(store)));
    let death = FaultTrigger::AtVirtual(VTime::from_secs(0.7 * makespan_s));
    (opts, FaultPlan::one(death, scope))
}

/// 9 ranks at 4 per node fill three nodes unevenly. A rank death loses no
/// node, so the recovery keeps the launch packing — as a from-scratch
/// attempt does — instead of spreading the ranks 3 per node, and the
/// modeled read is the one at 4 per node.
#[test]
fn rank_death_recovery_keeps_the_launch_packing() {
    let cfg = world(9, 4);
    let native = run_ckpt_world_steps(cfg.clone(), CkptOptions::native(), paced_scf);
    let base: Vec<f64> = native.results().copied().collect();
    let store = lustre_store();
    let (opts, plan) =
        one_checkpoint_one_death(&store, native.makespan.as_secs(), FaultScope::Rank(5));
    let rep = run_available_world_steps(cfg, opts, plan, paced_scf);
    assert_eq!(rep.backstop_expiries, 0);
    assert_eq!(rep.faults.len(), 1, "the death must fire");
    assert_eq!(rep.results().copied().collect::<Vec<_>>(), base);
    let f = &rep.faults[0];
    let gen = f
        .resumed_generation
        .expect("the checkpoint landed before the death");
    assert_ne!(
        read_at(&store, gen, 9, 4),
        read_at(&store, gen, 9, 3),
        "the packings must be told apart by their read"
    );
    assert_eq!(f.recovery_latency_s, read_at(&store, gen, 9, 4));

    // The recovered attempt ran at 4 per node: restoring the same
    // generation there through the public entry point continues to the
    // same makespan.
    let image = store.load(gen).expect("a Lustre generation survives");
    let restored = restore_ckpt_world_steps(
        &image,
        RestoreConfig::same_packing()
            .with_ranks_per_node(4)
            .with_storage(Arc::clone(&store), gen),
        paced_scf,
    );
    assert_eq!(restored.makespan, rep.makespan);
}

/// A restore through the public entry point and a campaign's recovery
/// charge the same read for the same generation on the same packing: a
/// node death repacks 8 ranks from 2 to 3 per node, and restoring that
/// generation onto 3 per node costs the restored ranks exactly the
/// recovery's `recovery_latency_s`.
#[test]
fn restore_and_recovery_charge_one_read() {
    let cfg = world(8, 2);
    let body = || paced_scf(0);
    let native = run_ckpt_world_steps(cfg.clone(), CkptOptions::native(), |_| body());
    let store = lustre_store();
    let (opts, plan) =
        one_checkpoint_one_death(&store, native.makespan.as_secs(), FaultScope::Node(1));
    let rep = run_available_world_steps(cfg, opts, plan, |_| body());
    assert_eq!(rep.backstop_expiries, 0);
    assert_eq!(rep.faults.len(), 1, "the death must fire");
    let f = &rep.faults[0];
    let gen = f
        .resumed_generation
        .expect("the checkpoint landed before the death");
    assert_eq!(f.recovery_latency_s, read_at(&store, gen, 8, 3));
    assert!(f.recovery_latency_s > 0.0);

    let image = store.load(gen).expect("a Lustre generation survives");
    let repacked = RestoreConfig::same_packing().with_ranks_per_node(3);
    let restore = |rcfg: RestoreConfig| {
        try_restore_ckpt_world_steps(&image, rcfg, |_| body()).expect("restore")
    };
    let free = restore(repacked.clone());
    let charged = restore(repacked.with_storage(Arc::clone(&store), gen));
    assert_eq!(
        charged.makespan, rep.makespan,
        "the recovery is this restore"
    );
    let gap = charged.makespan.as_secs() - free.makespan.as_secs();
    assert!(
        (gap - f.recovery_latency_s).abs() <= 1e-9,
        "restore charged {gap}s, recovery {}s",
        f.recovery_latency_s
    );
}
