//! Driver equivalence: one program — the random workload's step body —
//! stepped on a thread per rank (`CcRank::run` inside a closure body)
//! and on the worker pool (`RandomWorkloadStep` handed to the `*_steps`
//! entry points) is *the same execution* — same results, same virtual
//! timing, and the same checkpoint semantics.
//!
//! Two live runs cannot be compared cut-for-cut (the wall-racy trigger
//! lands at different app calls), so each driver's checkpoint is checked
//! against the native reference on its own terms: the cut passes the
//! oracle, the run it was taken from continues to the native results,
//! and the image restores where it can. A pool image carries every
//! rank's upper half and restores elsewhere to the native results; a
//! thread image holds a closure's ranks, whose state is their stacks, so
//! it restarts in-process (its restart run must reach the native
//! results) and a restore elsewhere refuses it, typed. The same body
//! object under both drivers, with a pinned cut, images compared whole
//! and each restored under the other driver, is `ckpt`'s
//! `runner::step` unit suite.
//!
//! Randomization: the same seeded random-workload schedules as the
//! safe-cut harness (collectives, splits/dups, ring + wildcard p2p),
//! cut at a seed-chosen random fraction of the native makespan.

use ckpt::{
    run_ckpt_world, run_ckpt_world_steps, try_restore_ckpt_world_steps, Checkpoint, CkptOptions,
    RestoreConfig, RestoreError, ResumeMode,
};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::{RandomWorkloadCfg, RandomWorkloadStep, SplitMix64};

const STEPS: usize = 25;

fn cfg(n: usize) -> WorldConfig {
    WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
}

/// Native (uncheckpointed) reference results and the seed's trigger time,
/// from a thread run. The pool run must agree on both before any
/// checkpointing enters the picture.
fn native_reference(n: usize, seed: u64, protocol: Protocol) -> (Vec<f64>, VTime) {
    let wl = RandomWorkloadCfg::new(seed, STEPS);
    let t = run_ckpt_world(cfg(n), CkptOptions::native().with_protocol(protocol), |r| {
        r.run(&mut RandomWorkloadStep::new(wl.clone()))
    });
    let swl = wl.clone();
    let s = run_ckpt_world_steps(
        cfg(n),
        CkptOptions::native().with_protocol(protocol),
        move |_rank| RandomWorkloadStep::new(swl.clone()),
    );
    assert_eq!(
        t.results().copied().collect::<Vec<_>>(),
        s.results().copied().collect::<Vec<_>>(),
        "n={n} seed={seed} {protocol:?}: native results diverged across drivers"
    );
    assert_eq!(
        t.makespan, s.makespan,
        "n={n} seed={seed} {protocol:?}: native makespan diverged across drivers"
    );
    let mut rng = SplitMix64::new(seed ^ 0xD1CE_BA5E);
    let frac = 0.15 + 0.6 * rng.next_f64();
    let at = VTime::from_secs(t.makespan.as_secs() * frac);
    (t.results().copied().collect(), at)
}

/// One checkpoint with a thread per rank, restarting in-process; the
/// image and the run's results.
fn capture_threads(
    n: usize,
    seed: u64,
    protocol: Protocol,
    at: VTime,
) -> (Option<Checkpoint>, Vec<f64>) {
    let wl = RandomWorkloadCfg::new(seed, STEPS);
    let run = run_ckpt_world(
        cfg(n),
        CkptOptions::one_checkpoint(at, ResumeMode::Restart).with_protocol(protocol),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
    );
    assert!(run.failures.is_empty(), "seed {seed}: {:?}", run.failures);
    let results = run.results().copied().collect();
    (run.checkpoints.into_iter().next(), results)
}

/// Captures one checkpoint image on the worker pool.
fn capture_pool(n: usize, seed: u64, protocol: Protocol, at: VTime) -> Option<Checkpoint> {
    let wl = RandomWorkloadCfg::new(seed, STEPS);
    let run = run_ckpt_world_steps(
        cfg(n),
        CkptOptions::one_checkpoint(at, ResumeMode::Continue).with_protocol(protocol),
        move |_rank| RandomWorkloadStep::new(wl.clone()),
    );
    assert!(run.failures.is_empty(), "seed {seed}: {:?}", run.failures);
    run.checkpoints.into_iter().next()
}

/// One seed, both drivers: each driver's cut passes the oracle; the
/// thread run restarts in-process to the native results and its image is
/// refused elsewhere; the pool image restores elsewhere to the native
/// results.
fn cross_replay_case(n: usize, seed: u64, protocol: Protocol) -> bool {
    let (native, at) = native_reference(n, seed, protocol);
    let wl = RandomWorkloadCfg::new(seed, STEPS);
    let restore = |image: &Checkpoint| {
        try_restore_ckpt_world_steps(image, RestoreConfig::same_packing(), |_rank| {
            RandomWorkloadStep::new(wl.clone())
        })
    };

    let mut fired = false;
    let (image, restarted) = capture_threads(n, seed, protocol, at);
    assert_eq!(
        restarted, native,
        "n={n} seed={seed} {protocol:?}: thread restart diverged"
    );
    if let Some(image) = image {
        image
            .verify()
            .unwrap_or_else(|v| panic!("thread cut rejected: n={n} seed={seed}: {v:?}"));
        let err = restore(&image).expect_err("a closure image restores in-process only");
        assert!(matches!(err, RestoreError::NoUpperHalf { .. }), "{err:?}");
        fired = true;
    }
    if let Some(image) = capture_pool(n, seed, protocol, at) {
        image
            .verify()
            .unwrap_or_else(|v| panic!("pool cut rejected: n={n} seed={seed}: {v:?}"));
        let restored = restore(&image).unwrap_or_else(|e| {
            panic!("restore of a pool-captured cut failed: n={n} seed={seed}: {e:?}")
        });
        assert_eq!(
            restored.results().copied().collect::<Vec<_>>(),
            native,
            "n={n} seed={seed} {protocol:?}: pool image restore diverged"
        );
        fired = true;
    }
    fired
}

fn sweep(n: usize, protocol: Protocol, seeds: u64) {
    let mut fired = 0u64;
    for seed in 0..seeds {
        if cross_replay_case(n, seed, protocol) {
            fired += 1;
        }
    }
    // The trigger races completion; a rare miss is tolerated, but the
    // sweep must exercise real checkpoints under both drivers.
    assert!(
        fired >= seeds * 7 / 10,
        "only {fired}/{seeds} seeds produced an image at n={n} under {protocol:?}"
    );
}

#[test]
fn cross_driver_replay_cc_4_ranks() {
    sweep(4, Protocol::Cc, 6);
}

#[test]
fn cross_driver_replay_cc_8_ranks() {
    sweep(8, Protocol::Cc, 4);
}

#[test]
fn cross_driver_replay_2pc_4_ranks() {
    sweep(4, Protocol::TwoPhase, 4);
}

#[test]
fn cross_driver_replay_2pc_8_ranks() {
    sweep(8, Protocol::TwoPhase, 3);
}
