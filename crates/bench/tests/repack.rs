//! Topology re-packing coverage (the paper's Perlmutter restart workflow):
//! a checkpoint captured under one `ranks_per_node` packing restores onto
//! a different packing. Application results must be bit-identical — the
//! captured group data is topology-independent — while the modeled
//! makespan differs because `netmodel::Topology` re-derives intra- vs.
//! inter-node costs from the new packing.

use ckpt::{
    restore_ckpt_world_steps, run_ckpt_world_steps, Checkpoint, CkptOptions, CkptTier,
    RestoreConfig, ResumeMode, TierModels, TieredStore,
};
use mpisim::{NetParams, VTime, WorldConfig};
use netmodel::LustreModel;
use std::sync::Arc;
use workloads::{HaloStep, Paced, ScfStep, Then};

/// A deterministic, wildcard-free workload mixing collectives (SCF) with
/// fixed-neighbor point-to-point (halo), so its data is identical under
/// any packing while its timing is topology-sensitive.
fn workload(_rank: usize) -> Then<ScfStep, HaloStep> {
    Then::new(ScfStep::new(20, 8), HaloStep::new(10, 6))
}

type Results = Vec<(f64, f64)>;

/// Captures an 8-rank image under the 4-ranks-per-node packing.
fn capture_8_rank_image() -> (Checkpoint, Results) {
    let cfg = WorldConfig::multi_node(8, 4).with_params(NetParams::slingshot11().without_jitter());
    let native = run_ckpt_world_steps(cfg.clone(), CkptOptions::native(), workload);
    let native_data: Results = native.results().copied().collect();

    // Paced on the wall (virtual time untouched), so the trigger lands
    // mid-run: eight step ranks on the pool otherwise can finish before
    // the supervisor requests the checkpoint.
    let at = VTime::from_secs(native.makespan.as_secs() * 0.3);
    let run = run_ckpt_world_steps(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |rank| Paced::new(workload(rank), 25),
    );
    assert_eq!(run.checkpoints.len(), 1, "checkpoint must fire");
    let run_data: Results = run.results().copied().collect();
    assert_eq!(run_data, native_data);
    let image = run.checkpoints.into_iter().next().unwrap();
    assert_eq!(image.origin.ranks_per_node, 4);
    (image, native_data)
}

#[test]
fn restore_onto_every_packing_is_bit_identical_with_distinct_makespans() {
    let (image, native_data) = capture_8_rank_image();
    // Round-trip through bytes so the re-packed restores consume exactly
    // what a file on disk would hold.
    let image = Checkpoint::from_bytes(&image.to_bytes()).expect("round trip");

    let mut makespans = Vec::new();
    for rpn in [1usize, 2, 4, 8] {
        let restored = restore_ckpt_world_steps(
            &image,
            RestoreConfig::same_packing().with_ranks_per_node(rpn),
            workload,
        );
        let data: Results = restored.results().copied().collect();
        assert_eq!(
            data, native_data,
            "re-packing onto {rpn} ranks/node changed the results"
        );
        makespans.push((rpn, restored.makespan.as_secs()));
    }

    // The packing must be *visible* in the modeled timing: spreading 8
    // ranks across 8 nodes pays inter-node latency on every hop, packing
    // them onto one node pays none — and the four packings cannot all
    // collapse to one makespan.
    let of = |rpn: usize| makespans.iter().find(|(r, _)| *r == rpn).unwrap().1;
    assert!(
        of(1) > of(8),
        "one-rank-per-node restore ({}s) must be slower than fully packed ({}s)",
        of(1),
        of(8)
    );
    let distinct = {
        let mut v: Vec<f64> = makespans.iter().map(|(_, m)| *m).collect();
        v.sort_by(f64::total_cmp);
        v.dedup();
        v.len()
    };
    assert!(
        distinct >= 2,
        "makespan must depend on the packing: {makespans:?}"
    );
}

#[test]
fn repacked_restore_charges_read_io_under_the_new_topology() {
    let (image, native_data) = capture_8_rank_image();
    // The image as generation `gen` of a Lustre-tier store: the read-back
    // is charged from there.
    let model = LustreModel::slow_disk();
    let store = Arc::new(TieredStore::new(TierModels {
        lustre: model.clone(),
        image_bytes_per_rank: 8 * 1024 * 1024,
        ..TierModels::perlmutter()
    }));
    let gen = store
        .save(CkptTier::Lustre, Arc::new(image.clone()), false, 1)
        .generation;

    // Same re-packing with and without a read source: the read-back must
    // land on the restored clocks.
    let free = restore_ckpt_world_steps(
        &image,
        RestoreConfig::same_packing().with_ranks_per_node(2),
        workload,
    );
    let charged = restore_ckpt_world_steps(
        &image,
        RestoreConfig::same_packing()
            .with_ranks_per_node(2)
            .with_storage(store, gen),
        workload,
    );
    let free_data: Results = free.results().copied().collect();
    let charged_data: Results = charged.results().copied().collect();
    assert_eq!(free_data, native_data);
    assert_eq!(
        charged_data, native_data,
        "I/O charging must not touch data"
    );

    // slow_disk's fixed overhead alone is 0.5 virtual seconds; the whole
    // workload runs in well under that, so the charge dominates.
    let gap = charged.makespan.as_secs() - free.makespan.as_secs();
    assert!(
        gap >= model.fixed_overhead,
        "restore read-back must be charged to the clocks (gap {gap}s)"
    );
}
