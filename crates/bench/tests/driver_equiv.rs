//! Driver equivalence: one program — the random workload's step body —
//! stepped on a thread per rank (`random_workload`, i.e. `CcRank::run`)
//! and on the worker pool (`RandomWorkloadStep` handed to the `*_steps`
//! entry points) is *the same execution* — same results, same virtual
//! timing, and the same checkpoint semantics, cut for cut.
//!
//! The sharp edge is cut-for-cut equality. Two live runs cannot be
//! compared cut-for-cut (the wall-racy trigger lands at different app
//! calls), so the harness pins the cut with an image and replays it under
//! the *other* driver: restore re-executes the program to the captured
//! `CallCounters`/`SEQ[]` cut and the restore driver cross-checks the
//! replayed capture against the image field by field — rank state,
//! app-visible call counters, sequence tables, communicator log, pending
//! receives and trivial barriers, communicator membership. A restore
//! that completes therefore *proves* the replaying driver reproduced the
//! capturing driver's cut bit-identically; a single divergent counter or
//! sequence number panics inside the replay check. Since the body is the
//! same object either way, a divergence here is a driver's: a wait that
//! charged the clock, a wake that reordered a match, a park that moved a
//! counter. Both directions run: thread-captured images replay on the
//! pool, pool-captured images on threads.
//!
//! Randomization: the same seeded random-workload schedules as the
//! safe-cut harness (collectives, splits/dups, ring + wildcard p2p),
//! cut at a seed-chosen random fraction of the native makespan.

use ckpt::{
    run_ckpt_world, run_ckpt_world_steps, try_restore_ckpt_world, try_restore_ckpt_world_steps,
    Checkpoint, CkptOptions, RestoreConfig, ResumeMode,
};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::{random_workload, RandomWorkloadCfg, RandomWorkloadStep, SplitMix64};

const STEPS: usize = 25;

fn cfg(n: usize) -> WorldConfig {
    WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
}

/// The seed's workload: 2PC schedules are blocking-only.
fn workload_cfg(seed: u64, protocol: Protocol) -> RandomWorkloadCfg {
    let wl = RandomWorkloadCfg::new(seed, STEPS);
    if protocol == Protocol::TwoPhase {
        wl.with_blocking_only()
    } else {
        wl
    }
}

/// Native (uncheckpointed) reference results and the seed's trigger time,
/// from a thread run. The pool run must agree on both before any
/// checkpointing enters the picture.
fn native_reference(n: usize, seed: u64, protocol: Protocol) -> (Vec<f64>, VTime) {
    let wl = workload_cfg(seed, protocol);
    let t = run_ckpt_world(cfg(n), CkptOptions::native().with_protocol(protocol), |r| {
        random_workload(&wl, r)
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

/// Captures one checkpoint image with a thread per rank.
fn capture_threads(n: usize, seed: u64, protocol: Protocol, at: VTime) -> Option<Checkpoint> {
    let wl = workload_cfg(seed, protocol).with_pace_us(20);
    let run = run_ckpt_world(
        cfg(n),
        CkptOptions::one_checkpoint(at, ResumeMode::Continue).with_protocol(protocol),
        |r| random_workload(&wl, r),
    );
    assert!(run.failures.is_empty(), "seed {seed}: {:?}", run.failures);
    run.checkpoints.into_iter().next()
}

/// Captures one checkpoint image on the worker pool.
fn capture_pool(n: usize, seed: u64, protocol: Protocol, at: VTime) -> Option<Checkpoint> {
    let wl = workload_cfg(seed, protocol).with_pace_us(20);
    let run = run_ckpt_world_steps(
        cfg(n),
        CkptOptions::one_checkpoint(at, ResumeMode::Continue).with_protocol(protocol),
        move |_rank| RandomWorkloadStep::new(wl.clone()),
    );
    assert!(run.failures.is_empty(), "seed {seed}: {:?}", run.failures);
    run.checkpoints.into_iter().next()
}

/// One seed, both directions: each driver's image replays under the
/// other driver, to completion, with the replay capture cross-check
/// (inside the restore driver) pinning bit-identical cut state, and the
/// continued results matching the native reference.
fn cross_replay_case(n: usize, seed: u64, protocol: Protocol) -> bool {
    let (native, at) = native_reference(n, seed, protocol);
    let wl = workload_cfg(seed, protocol);

    let mut fired = false;
    if let Some(image) = capture_threads(n, seed, protocol, at) {
        image
            .verify()
            .unwrap_or_else(|v| panic!("thread cut rejected: n={n} seed={seed}: {v:?}"));
        // Thread-captured cut replayed on the pool: the restore driver
        // asserts the replay reaches the exact captured CallCounters/SEQ[]
        // state and capture image.
        let swl = wl.clone();
        let restored = try_restore_ckpt_world_steps(&image, RestoreConfig::same_packing(), {
            move |_rank| RandomWorkloadStep::new(swl.clone())
        })
        .unwrap_or_else(|e| {
            panic!("pool replay of a thread-captured cut failed: n={n} seed={seed}: {e:?}")
        });
        assert_eq!(
            restored.results().copied().collect::<Vec<_>>(),
            native,
            "n={n} seed={seed} {protocol:?}: pool restore of a thread image diverged"
        );
        fired = true;
    }
    if let Some(image) = capture_pool(n, seed, protocol, at) {
        image
            .verify()
            .unwrap_or_else(|v| panic!("pool cut rejected: n={n} seed={seed}: {v:?}"));
        // Pool-captured cut replayed with a thread per rank.
        let cwl = wl.clone();
        let restored = try_restore_ckpt_world(&image, RestoreConfig::same_packing(), move |r| {
            random_workload(&cwl, r)
        })
        .unwrap_or_else(|e| {
            panic!("thread replay of a pool-captured cut failed: n={n} seed={seed}: {e:?}")
        });
        assert_eq!(
            restored.results().copied().collect::<Vec<_>>(),
            native,
            "n={n} seed={seed} {protocol:?}: thread restore of a pool image diverged"
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
    // sweep must exercise real cross-driver replays.
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
