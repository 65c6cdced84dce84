//! Multi-level checkpoint storage, end to end: every tier round-trips an
//! image bit-identically, a tiered run's generations reload equal to the
//! committed checkpoints across the SCR-style rotation, the asynchronous
//! drain keeps the app-visible bracket to clone-out while charging
//! back-pressure when triggers outpace the drain, and the partner tier
//! survives a node loss — its replica restoring onto a *smaller*
//! ranks-per-node packing with bit-identical results.

use bench::synthetic_checkpoint;
use ckpt::{
    restore_ckpt_world_steps, run_ckpt_world_steps, CkptOptions, CkptTier, PeriodicInterval,
    RestoreConfig, ResumeMode, StoreError, TierSchedule, TieredStore, Tiering,
};
use mpisim::{NetParams, Scheduler, VTime, WorldConfig};
use std::sync::Arc;
use workloads::{HaloStep, ScfStep, Then};

/// A deterministic, wildcard-free workload (collectives + fixed-neighbor
/// p2p): its data is identical under any packing and any storage charge.
fn workload(_rank: usize) -> Then<ScfStep, HaloStep> {
    Then::new(ScfStep::new(20, 8), HaloStep::new(10, 6))
}

fn two_node_world() -> WorldConfig {
    WorldConfig::multi_node(8, 4).with_params(NetParams::slingshot11().without_jitter())
}

#[test]
fn every_tier_roundtrips_bit_identical() {
    let workers = Scheduler::default_workers();
    let image = synthetic_checkpoint(64, 0x51E9);
    for tier in [CkptTier::Memory, CkptTier::Partner, CkptTier::Lustre] {
        let store = TieredStore::default();
        let receipt = store.save(tier, Arc::new(image.clone()), false, workers);
        assert_eq!(receipt.tier, tier);
        assert_eq!(receipt.delta_parent, None);
        let loaded = store
            .load(receipt.generation)
            .unwrap_or_else(|e| panic!("{} tier failed to load: {e}", tier.name()));
        assert_eq!(loaded, image, "{} tier corrupted the image", tier.name());
        assert_eq!(loaded.to_bytes(), image.to_bytes());
    }
}

#[test]
fn tiered_run_generations_reload_bit_identical_across_the_rotation() {
    let native = run_ckpt_world_steps(two_node_world(), CkptOptions::native(), workload);
    let native_data: Vec<(f64, f64)> = native.results().copied().collect();
    let interval = VTime::from_secs(native.makespan.as_secs() / 5.0);

    let store = Arc::new(TieredStore::default());
    let tiering = Tiering::fixed(CkptTier::Memory)
        .with_store(Arc::clone(&store))
        .with_schedule(TierSchedule::Rotation {
            partner_every: 2,
            lustre_every: 3,
        });
    let run = run_ckpt_world_steps(
        two_node_world(),
        CkptOptions::native()
            .with_policy(PeriodicInterval::new(interval, 4))
            .with_resume(ResumeMode::Continue)
            .with_tiering(tiering),
        workload,
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert_eq!(run.checkpoints.len(), 4, "all four triggers must fire");
    assert_eq!(run.store_records.len(), 4);

    // The one-based rotation: memory, partner, lustre, partner.
    let tiers: Vec<&str> = run.store_records.iter().map(|r| r.tier.name()).collect();
    assert_eq!(tiers, ["memory", "partner", "lustre", "partner"]);

    for (rec, image) in run.store_records.iter().zip(&run.checkpoints) {
        let loaded = store
            .load(rec.generation)
            .unwrap_or_else(|e| panic!("gen {} failed to load: {e}", rec.generation));
        assert_eq!(
            &loaded, image,
            "gen {} diverged from the committed image",
            rec.generation
        );
    }

    // Storage charging may stretch the clock but never the data.
    let run_data: Vec<(f64, f64)> = run.results().copied().collect();
    assert_eq!(run_data, native_data);
}

#[test]
fn async_drain_blocks_only_for_clone_out_and_charges_backpressure() {
    let native = run_ckpt_world_steps(two_node_world(), CkptOptions::native(), workload);
    let interval = VTime::from_secs(native.makespan.as_secs() / 4.0);
    let run_with = |async_drain: bool| {
        let tiering = Tiering::fixed(CkptTier::Lustre).with_async_drain(async_drain);
        let run = run_ckpt_world_steps(
            two_node_world(),
            CkptOptions::native()
                .with_policy(PeriodicInterval::new(interval, 3))
                .with_resume(ResumeMode::Continue)
                .with_tiering(tiering),
            workload,
        );
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert_eq!(run.store_records.len(), 3);
        run
    };
    let sync = run_with(false);
    let asyn = run_with(true);

    // Synchronous drains charge the full modeled write to every rank;
    // the background drain charges only back-pressure, so the virtual
    // makespan must drop.
    assert!(
        asyn.makespan < sync.makespan,
        "async drain must shorten the makespan: {} vs {} sync",
        asyn.makespan,
        sync.makespan
    );

    for (i, rec) in asyn.store_records.iter().enumerate() {
        assert!(
            rec.overlapped_wall_s > 0.0,
            "checkpoint {i} retired no background work"
        );
        // capture_wall_s is the blocking component only: it must agree
        // with the record, not include the overlapped drain.
        assert_eq!(asyn.capture_wall_s[i], rec.blocking_wall_s);
    }
    for rec in &sync.store_records {
        assert_eq!(
            rec.overlapped_wall_s, 0.0,
            "sync drains must not report overlap"
        );
        assert_eq!(rec.backpressure_s, 0.0);
    }

    // The triggers fire far faster (virtually) than a multi-second
    // Lustre drain retires, so every checkpoint after the first finds
    // the drain still busy and pays back-pressure.
    assert!(
        asyn.store_records[1..]
            .iter()
            .all(|r| r.backpressure_s > 0.0),
        "later checkpoints must pay back-pressure: {:?}",
        asyn.store_records
    );
    assert_eq!(
        asyn.store_records[0].backpressure_s, 0.0,
        "the first drain has nothing to wait on"
    );
}

#[test]
fn partner_tier_restores_after_node_loss_onto_smaller_packing() {
    let native = run_ckpt_world_steps(two_node_world(), CkptOptions::native(), workload);
    let native_data: Vec<(f64, f64)> = native.results().copied().collect();
    let at = VTime::from_secs(native.makespan.as_secs() * 0.3);

    let store = Arc::new(TieredStore::default());
    let run = run_ckpt_world_steps(
        two_node_world(),
        CkptOptions::one_checkpoint(at, ResumeMode::Continue)
            .with_tiering(Tiering::fixed(CkptTier::Partner).with_store(Arc::clone(&store))),
        workload,
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert_eq!(run.store_records.len(), 1, "checkpoint must fire");
    let rec = &run.store_records[0];
    assert_eq!(rec.tier, CkptTier::Partner);

    // A memory-tier copy of the same image, for the loss-semantics
    // contrast below.
    let mem = store.save(
        CkptTier::Memory,
        Arc::new(run.checkpoints[0].clone()),
        false,
        Scheduler::default_workers(),
    );

    // Node 0 dies. Node-local memory dies with it; the partner replica
    // of node 0's shard lives on its buddy (node 1) and must survive.
    store.drop_node(0);
    match store.load(mem.generation).err() {
        Some(StoreError::NodeLost { tier, node }) => {
            assert_eq!(tier, CkptTier::Memory);
            assert_eq!(node, 0);
        }
        other => panic!("memory tier must die with its node, got {other:?}"),
    }
    let loaded = store
        .load(rec.generation)
        .expect("partner replica must survive a single node loss");
    assert_eq!(
        loaded, run.checkpoints[0],
        "surviving replica must be bit-identical"
    );

    // The replacement allocation is thinner: restore onto 2 ranks per
    // node (4 nodes) instead of the original 4 (2 nodes).
    assert_eq!(loaded.origin.ranks_per_node, 4);
    let restored = restore_ckpt_world_steps(
        &loaded,
        RestoreConfig::same_packing().with_ranks_per_node(2),
        workload,
    );
    let data: Vec<(f64, f64)> = restored.results().copied().collect();
    assert_eq!(data, native_data, "restore after node loss changed results");

    // Losing the buddy pair is unrecoverable — the typed error says so.
    store.drop_node(1);
    match store.load(rec.generation).err() {
        Some(StoreError::NodeLost { tier, .. }) => assert_eq!(tier, CkptTier::Partner),
        other => panic!("buddy-pair loss must be fatal, got {other:?}"),
    }
}

/// A lost generation names the lowest lost node, whatever order the
/// nodes were dropped in: memory loses a 4-node image with any node of
/// its span, partner with a node and its buddy. Each round uses fresh
/// stores, so a rule that named whichever dropped node a hash set
/// happened to reach first would disagree between rounds.
#[test]
fn node_lost_names_the_lowest_lost_node() {
    let mut image = synthetic_checkpoint(8, 0x1057);
    image.origin.ranks_per_node = 2;
    let image = Arc::new(image);
    let cases: [(CkptTier, &[usize]); 2] =
        [(CkptTier::Memory, &[3, 1]), (CkptTier::Partner, &[3, 2, 1])];
    for round in 0..32 {
        for (tier, dropped) in cases {
            let store = TieredStore::default();
            let gen = store.save(tier, Arc::clone(&image), false, 1).generation;
            for &d in dropped {
                store.drop_node(d);
            }
            match store.load(gen).err() {
                Some(StoreError::NodeLost { tier: t, node }) => assert_eq!(
                    (t, node),
                    (tier, 1),
                    "round {round}: {} tier with nodes {dropped:?} dropped",
                    tier.name()
                ),
                other => panic!("{} tier must be lost, got {other:?}", tier.name()),
            }
        }
    }
}
