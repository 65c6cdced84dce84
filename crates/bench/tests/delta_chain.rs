//! Delta-chain integrity through [`TieredStore`]: a depth-3 incremental
//! chain resolves bit-identical to the in-memory truth, a chain built by
//! a live checkpointed run restores bit-identical to its full image, and
//! retention eviction surfaces typed errors (dangling parent, unknown
//! generation) instead of resolving a wrong ancestor.

use bench::{perturbed_checkpoint, synthetic_checkpoint};
use ckpt::store::delta::full_image_refs;
use ckpt::{
    restore_ckpt_world, run_ckpt_world, run_ckpt_world_steps, CcRank, CkptOptions, CkptTier,
    DeltaImage, DeltaPolicy, EveryNCollectives, ImageError, PeriodicInterval, RestoreConfig,
    ResumeMode, SaveReceipt, StoreError, TieredStore, Tiering,
};
use mana_core::{Cut, CutRun, Protocol};
use mpisim::{NetParams, Scheduler, VTime, WorldConfig};
use std::sync::Arc;
use workloads::{halo_exchange, scf_loop, RandomWorkloadCfg, RandomWorkloadStep};

fn workload(r: &mut CcRank) -> f64 {
    let energy = scf_loop(r, 20, 8);
    let halo = halo_exchange(r, 10, 6);
    energy + halo
}

/// The same program under a wall pace for the checkpointed run, so
/// overdue triggers land before the workload finishes (virtual time and
/// data are untouched).
fn paced_workload(r: &mut CcRank) -> f64 {
    r.set_wall_pace_us(25);
    workload(r)
}

/// Builds a full root plus `depth` chained deltas over perturbed
/// synthetic images; returns the receipts (root first) and the leaf truth.
fn build_chain(
    store: &TieredStore,
    ranks: usize,
    depth: usize,
) -> (Vec<SaveReceipt>, Arc<ckpt::Checkpoint>) {
    let workers = Scheduler::default_workers();
    let mut truth = Arc::new(synthetic_checkpoint(ranks, 0xC4A1));
    let mut receipts = vec![store.save(CkptTier::Lustre, Arc::clone(&truth), false, workers)];
    for step in 0..depth {
        let next = Arc::new(perturbed_checkpoint(&truth, 6 + step));
        let r = store.save(CkptTier::Lustre, Arc::clone(&next), true, workers);
        assert_eq!(
            r.delta_parent,
            Some(receipts.last().unwrap().generation),
            "delta {step} must chain to its predecessor"
        );
        receipts.push(r);
        truth = next;
    }
    (receipts, truth)
}

#[test]
fn depth_three_delta_chain_resolves_bit_identical() {
    let store = TieredStore::default();
    let (receipts, truth) = build_chain(&store, 96, 3);

    for r in &receipts[1..] {
        assert!(
            r.bytes < receipts[0].bytes,
            "a delta ({} B) must undercut the full root ({} B)",
            r.bytes,
            receipts[0].bytes
        );
    }

    let leaf = receipts.last().unwrap().generation;
    let loaded = store.load(leaf).expect("depth-3 chain must resolve");
    assert_eq!(loaded, *truth);
    assert_eq!(
        loaded.to_bytes(),
        truth.to_bytes(),
        "resolved chain must be bit-identical to the truth"
    );

    // Every interior generation stays independently loadable.
    for (i, r) in receipts.iter().enumerate() {
        store
            .load(r.generation)
            .unwrap_or_else(|e| panic!("chain element {i} failed to load: {e}"));
    }
}

#[test]
fn live_run_delta_chain_restores_bit_identical_to_the_full_image() {
    let cfg = WorldConfig::multi_node(8, 4).with_params(NetParams::slingshot11().without_jitter());
    let native = run_ckpt_world(cfg.clone(), CkptOptions::native(), workload);
    let native_data: Vec<f64> = native.results().copied().collect();
    let interval = VTime::from_secs(native.makespan.as_secs() / 5.0);

    let store = Arc::new(TieredStore::default());
    let tiering = Tiering::fixed(CkptTier::Lustre)
        .with_store(Arc::clone(&store))
        .with_delta(DeltaPolicy::FullEvery(4));
    let run = run_ckpt_world(
        cfg,
        CkptOptions::native()
            .with_policy(PeriodicInterval::new(interval, 4))
            .with_resume(ResumeMode::Continue)
            .with_tiering(tiering),
        paced_workload,
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert_eq!(run.store_records.len(), 4);

    // Generation 0 is the full anchor; 1..3 chain as deltas — depth 3.
    assert_eq!(run.store_records[0].delta_parent, None);
    for i in 1..4 {
        assert_eq!(
            run.store_records[i].delta_parent,
            Some(run.store_records[i - 1].generation),
            "checkpoint {i} must be a delta on its predecessor"
        );
    }

    let leaf = run.store_records[3].generation;
    let loaded = store.load(leaf).expect("live chain must resolve");
    let full = &run.checkpoints[3];
    assert_eq!(&loaded, full, "chain-resolved image diverged");

    // Restoring the chain-resolved image and the in-memory full image
    // must produce bit-identical application results.
    let from_chain = restore_ckpt_world(&loaded, RestoreConfig::same_packing(), workload);
    let from_full = restore_ckpt_world(full, RestoreConfig::same_packing(), workload);
    let chain_data: Vec<f64> = from_chain.results().copied().collect();
    let full_data: Vec<f64> = from_full.results().copied().collect();
    assert_eq!(chain_data, full_data, "delta-chain restore diverged");
    assert_eq!(chain_data, native_data);
}

/// `later` covers everything `earlier` does, as the same runs grown: a
/// rank that keeps counting `SEQ[ggid]` up by one never opens a second
/// run on a group, it extends the one it has.
fn assert_extends(later: &Cut, earlier: &Cut, what: &str) {
    for e in earlier.runs() {
        let same_run = |l: &&CutRun| (l.rank, l.ggid, l.first) == (e.rank, e.ggid, e.first);
        let l = later.runs().iter().find(same_run);
        let l = l.unwrap_or_else(|| panic!("{what}: run {e:?} has no successor"));
        assert!(l.last >= e.last, "{what}: {e:?} shrank to {l:?}");
    }
    assert!(later.len() > earlier.len(), "{what}: the cut did not grow");
}

#[test]
fn cut_of_each_generation_extends_the_previous() {
    // The execution log is rank-owned and read at each cut as runs; a
    // delta carries its cut whole, which stays cheap only while a cut's
    // size follows the number of groups and not the program's length.
    // Step ranks on two workers, sub-communicators and non-blocking
    // collectives in the schedule: ranks record on several groups, from
    // both workers.
    let cfg = WorldConfig::multi_node(16, 4)
        .with_params(NetParams::slingshot11().without_jitter())
        .with_workers(2);
    let work = RandomWorkloadCfg::new(193, 200).with_pace_us(40);
    let run = run_ckpt_world_steps(
        cfg,
        CkptOptions::native()
            .with_protocol(Protocol::Cc)
            .with_policy(EveryNCollectives::new(15, 6))
            .with_resume(ResumeMode::Continue),
        |_| RandomWorkloadStep::new(work.clone()),
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    let g = &run.checkpoints;
    assert_eq!(g.len(), 6, "six generations must commit");
    for (i, image) in g.iter().enumerate() {
        image
            .verify()
            .unwrap_or_else(|v| panic!("generation {i} is not a safe cut: {v:?}"));
    }
    for (i, pair) in g.windows(2).enumerate() {
        let (parent, child) = (&pair[0], &pair[1]);
        assert_extends(
            &child.cut_events,
            &parent.cut_events,
            &format!("generation {i} → next"),
        );
        let known = full_image_refs(parent).into_iter().collect();
        let delta = DeltaImage::build(i as u64 + 1, i as u64, 0, parent, &known, child);
        assert_eq!(delta.cut, child.cut_events, "a delta carries its cut whole");
    }
    // More collectives, hardly more runs: a run per rank and group.
    let (first, last) = (&g[0].cut_events, &g[5].cut_events);
    assert!(last.len() >= 3 * first.len());
    assert!(last.runs().len() <= 2 * first.runs().len());
    // The report's full log continues the last cut the same way.
    assert_extends(
        &Cut::from_events(&run.events),
        last,
        "last cut → end of run",
    );
}

#[test]
fn evicting_an_ancestor_dangles_its_descendants() {
    let store = TieredStore::default();
    let (receipts, _truth) = build_chain(&store, 48, 2);
    let (g0, g1, g2) = (
        receipts[0].generation,
        receipts[1].generation,
        receipts[2].generation,
    );

    store.evict(g1);

    // The leaf's parent is gone: a typed dangling-parent error naming
    // the broken edge, not a panic and not a wrong resolution.
    match store.load(g2).err() {
        Some(StoreError::Image(ImageError::DanglingParent { generation, parent })) => {
            assert_eq!(generation, g2);
            assert_eq!(parent, g1);
        }
        other => panic!("expected a dangling parent, got {other:?}"),
    }

    // The evicted generation itself is simply unknown now.
    match store.load(g1).err() {
        Some(StoreError::UnknownGeneration(g)) => assert_eq!(g, g1),
        other => panic!("expected unknown generation, got {other:?}"),
    }

    // The full root predates the hole and still loads.
    store.load(g0).expect("the root must survive the eviction");
}
