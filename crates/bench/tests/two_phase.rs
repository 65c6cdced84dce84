//! End-to-end tests for the 2PC trivial-barrier protocol and its capture
//! state, plus the p2p drain-stall watchdog (ROADMAP item 5).

use ckpt::{
    run_ckpt_world, run_ckpt_world_steps, CkptOptions, CkptRunReport, DrainError,
    EveryNCollectives, ResumeMode, StorageSpec, VirtualTimeSchedule,
};
use mana_core::{DrainEvent, Protocol};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{DType, NetParams, ReduceOp, VTime, WorldConfig};
use netmodel::LustreModel;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;
use workloads::{random_workload, scf_loop, RandomWorkloadCfg, ScfStep};

fn cfg(n: usize) -> WorldConfig {
    WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
}

fn opts_2pc(schedule: Vec<VTime>, resume: ResumeMode) -> CkptOptions {
    CkptOptions::native()
        .with_protocol(Protocol::TwoPhase)
        .with_policy(VirtualTimeSchedule::new(schedule))
        .with_resume(resume)
}

/// 2PC checkpoint + continue and + restart must preserve the data of an
/// uninterrupted 2PC run, and the captured cut must satisfy the safe-cut
/// oracle.
#[test]
fn two_phase_checkpoint_continue_and_restart_bit_identical() {
    for n in [2, 4] {
        for (seed, mode) in [(3u64, ResumeMode::Continue), (4u64, ResumeMode::Restart)] {
            let wl = RandomWorkloadCfg::new(seed, 25).with_blocking_only();
            let native = run_ckpt_world(
                cfg(n),
                CkptOptions::native().with_protocol(Protocol::TwoPhase),
                |r| random_workload(&wl, r),
            );
            let native_data: Vec<f64> = native.results().copied().collect();

            let at = VTime::from_secs(native.makespan.as_secs() * 0.4);
            let paced = RandomWorkloadCfg::new(seed, 25)
                .with_blocking_only()
                .with_pace_us(20);
            let run = run_ckpt_world(cfg(n), opts_2pc(vec![at], mode), |r| {
                random_workload(&paced, r)
            });
            let got: Vec<f64> = run.results().copied().collect();
            assert_eq!(
                got, native_data,
                "2PC divergence: n={n} seed={seed} {mode:?}"
            );
            assert!(run.failures.is_empty());
            for ckpt in &run.checkpoints {
                assert_eq!(ckpt.protocol, Protocol::TwoPhase);
                assert!(ckpt.initial_targets.is_empty(), "2PC computes no targets");
                ckpt.verify()
                    .unwrap_or_else(|v| panic!("2PC cut violated: n={n} seed={seed}: {v:?}"));
            }
        }
    }
}

/// A rank parked *inside* its trivial barrier is captured via
/// `pending_barrier`, survives a restart (the barrier is re-issued against
/// the fresh lower half), and the restored `CallCounters` continue from the
/// image instead of resetting — both asserted by round-tripping through a
/// second checkpoint.
#[test]
fn pending_barrier_and_counters_round_trip_across_restart() {
    let n = 3;
    // Rank 0 posts its trivial barrier just below the trigger threshold and
    // crosses it with the post + first Test, so the checkpoint lands while
    // rank 0 is parked in the barrier; ranks 1–2 are already past the
    // threshold but wall-sleep before their entry, so they stop *before*
    // posting (the stop-the-world phase 1).
    let run = run_ckpt_world(
        cfg(n),
        opts_2pc(
            vec![VTime::from_secs(60.05e-6), VTime::from_secs(150e-6)],
            ResumeMode::Restart,
        ),
        |r| {
            let world = r.world_vcomm();
            if r.rank() == 0 {
                r.compute(60e-6);
            } else {
                r.compute(70e-6);
                r.wall_sleep(Duration::from_millis(400));
            }
            let v = r.allreduce_f64(world, &[r.rank() as f64 + 1.0], ReduceOp::Sum);
            r.compute(200e-6);
            // Give the second trigger a wall-clock window to fire before
            // the final collectives race to completion.
            r.wall_sleep(Duration::from_millis(10));
            let w = r.allreduce_f64(world, &[v[0]], ReduceOp::Max);
            r.barrier(world);
            v[0] + w[0]
        },
    );
    assert!(run.failures.is_empty(), "failures: {:?}", run.failures);
    assert_eq!(run.checkpoints.len(), 2, "both checkpoints must fire");
    let first = &run.checkpoints[0];
    let second = &run.checkpoints[1];

    // Rank 0 was parked in its first trivial barrier on MPI_COMM_WORLD.
    assert_eq!(
        first.captures[0].pending_barrier,
        Some((0, 0)),
        "rank 0's in-progress trivial barrier must be captured"
    );
    for r in 1..n {
        assert_eq!(
            first.captures[r].pending_barrier, None,
            "rank {r} stopped before posting"
        );
    }
    assert!(
        run.trace
            .count(|e| matches!(e, DrainEvent::TrivialBarrierParked(0)))
            >= 1
    );

    // Counters restored from the image continue monotonically across the
    // restart: every field of the later capture dominates the earlier one,
    // and the collectives executed in between are visible.
    for r in 0..n {
        let c1 = first.captures[r].counters;
        let c2 = second.captures[r].counters;
        assert!(
            c2.dominates(&c1),
            "rank {r} counters regressed across restart: {c1:?} -> {c2:?}"
        );
        assert!(
            c2.coll_blocking > c1.coll_blocking,
            "rank {r} blocking-collective count did not advance: {c1:?} -> {c2:?}"
        );
        assert!(
            c2.trivial_barriers >= 1,
            "rank {r} never recorded its trivial barrier"
        );
    }

    // The re-issued barrier completed and the program ran to the correct
    // data on every rank: sum = 1+2+3 = 6, max of sums = 6.
    for res in run.results() {
        assert_eq!(*res, 12.0);
    }
}

/// Runs `run` on a helper thread under a hard 20 s bound: a wedged world
/// fails the test with the representation and run index instead of
/// hanging the suite.
fn run_bounded(
    what: &'static str,
    i: usize,
    run: impl FnOnce() -> CkptRunReport<f64> + Send + 'static,
) -> CkptRunReport<f64> {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(run());
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(report) => {
            helper
                .join()
                .expect("helper thread already sent its report");
            report
        }
        Err(RecvTimeoutError::Timeout) => panic!(
            "{what} run {i} wedged: a 2PC checkpoint did not complete within 20 s \
             (ranks parked in a trivial barrier a late arriver completed?)"
        ),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().expect_err("helper dropped its sender"))
        }
    }
}

/// The 2PC free pass (ROADMAP item 1). A rank that observes the intent
/// with its trivial barrier still incomplete parks *inside* the barrier;
/// the last member — past its phase-1 check a few instructions before the
/// intent became visible — can still post, complete the instance and enter
/// the real collective, where it waits for the parked peers while the
/// coordinator waits for it. Without the free pass this wedges within a
/// few dozen runs at release speed on an oversubscribed worker pool; both
/// drivers run the same gate, so both are exercised.
#[test]
fn two_phase_last_arriver_cannot_strand_parked_peers() {
    const ELEMS: usize = 8;
    let cfg = || {
        WorldConfig::multi_node(16, 128)
            .with_params(NetParams::slingshot11().without_jitter())
            .with_workers(4)
    };
    let opts = || {
        CkptOptions::native()
            .with_protocol(Protocol::TwoPhase)
            .with_policy(EveryNCollectives::new(1, 1))
            .with_resume(ResumeMode::Continue)
    };
    let native = |iters: usize| -> Vec<f64> {
        let native = CkptOptions::native().with_protocol(Protocol::Native);
        run_ckpt_world(cfg(), native, move |r| scf_loop(r, iters, ELEMS))
            .results()
            .copied()
            .collect()
    };
    // Whether the run's checkpoint fired. The trigger is polled from the
    // supervising thread every 200 µs of wall time, so a host that starves
    // that thread for a whole ~10 ms run yields a run without one (seen
    // once in ~5000): such a run proves nothing but is not a failure.
    let check = |what: &str, i: usize, run: CkptRunReport<f64>, want: &[f64]| -> bool {
        assert!(run.checkpoints.len() <= 1, "{what} run {i}: one trigger");
        assert!(
            run.failures.is_empty(),
            "{what} run {i}: {:?}",
            run.failures
        );
        assert_eq!(run.backstop_expiries, 0, "{what} run {i}: timed wakeup");
        let got: Vec<f64> = run.results().copied().collect();
        assert_eq!(got, want, "{what} run {i}: results diverged from Native");
        run.checkpoints.len() == 1
    };
    let enough = |what: &str, fired: usize, runs: usize| {
        assert!(
            fired * 10 >= runs * 9,
            "{what}: only {fired} of {runs} runs took their checkpoint"
        );
    };

    // The body only has to outlast the supervisor's first trigger poll;
    // "red on the parent" is judged at release speed, and a debug build
    // runs the same body several times slower, so it gets a shorter one.
    let step_iters = if cfg!(debug_assertions) { 40 } else { 200 };
    let (step_runs, thread_runs, thread_iters) = (200, 30, 60);
    let want = native(step_iters);
    let fired = (0..step_runs).filter(|&i| {
        let run = run_bounded("step-rank", i, move || {
            run_ckpt_world_steps(cfg(), opts(), |_| ScfStep::new(step_iters, ELEMS))
        });
        check("step-rank", i, run, &want)
    });
    enough("step-rank", fired.count(), step_runs);
    let want = native(thread_iters);
    let fired = (0..thread_runs).filter(|&i| {
        let run = run_bounded("thread-rank", i, move || {
            run_ckpt_world(cfg(), opts(), move |r| scf_loop(r, thread_iters, ELEMS))
        });
        check("thread-rank", i, run, &want)
    });
    enough("thread-rank", fired.count(), thread_runs);
}

/// ROADMAP item 5: a blocking receive fed by a send gated behind a
/// beyond-target collective deadlocks the CC drain. The watchdog must
/// detect the no-progress window, withdraw the request, and surface a
/// typed `DrainError::P2pStall` — and the application must then run to
/// completion.
#[test]
fn p2p_stall_fails_fast_with_typed_error() {
    let n = 3;
    let opts = CkptOptions::one_checkpoint(VTime::from_secs(45e-6), ResumeMode::Continue)
        .with_stall_timeout(Duration::from_millis(400));
    let run = run_ckpt_world(cfg(n), opts, |r| {
        let world = r.world_vcomm();
        let me = r.rank();
        let color = i64::from(me != 0);
        let sub = r.comm_split(world, color, me as i64).expect("color >= 0");
        if me == 0 {
            // Below target at the snapshot (the others initiate one more
            // world collective), blocked in a receive whose matching send
            // sits behind rank 1's beyond-target sub-collective.
            r.compute(50e-6);
            let (data, _) = r.recv(world, 1, 9u32);
            let got = decode_f64(&data)[0];
            let v = r.iallreduce(world, encode_f64(&[1.0]), DType::F64, ReduceOp::Sum);
            r.wait(v);
            got
        } else {
            let v = r.iallreduce(world, encode_f64(&[1.0]), DType::F64, ReduceOp::Sum);
            r.compute(50e-6);
            // Let the trigger fire and the drain wedge while we sleep.
            r.wall_sleep(Duration::from_millis(150));
            // Beyond-target collective: both ranks have met every target,
            // so they park at this entry — and the send below never
            // happens until the coordinator gives up.
            r.allreduce_f64(sub, &[1.0], ReduceOp::Sum);
            if me == 1 {
                r.send(world, 0, 9u32, encode_f64(&[42.5]));
            }
            r.wait(v);
            0.0
        }
    });
    assert_eq!(
        run.failures,
        vec![DrainError::P2pStall { stalled: vec![0] }],
        "the stalled drain must fail fast with the blocked rank identified"
    );
    assert!(
        run.checkpoints.is_empty(),
        "no image may be committed from an aborted drain"
    );
    assert_eq!(run.trace.count(|e| matches!(e, DrainEvent::Aborted)), 1);
    // After the abort the gated send went through and the program finished
    // with the right data.
    assert_eq!(run.ranks[0].result, 42.5);
}

/// Satellite: checkpoint image I/O must be charged against the virtual
/// clocks — a checkpoint is no longer free once a storage model is
/// attached, and a restart additionally pays the read-back.
#[test]
fn checkpoint_io_charges_virtual_time() {
    let n = 4;
    let wl = RandomWorkloadCfg::new(11, 25);
    let native = run_ckpt_world(cfg(n), CkptOptions::native(), |r| random_workload(&wl, r));
    let native_data: Vec<f64> = native.results().copied().collect();

    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let paced = RandomWorkloadCfg::new(11, 25).with_pace_us(40);
    let opts = CkptOptions::one_checkpoint(at, ResumeMode::Restart).with_storage(StorageSpec {
        model: LustreModel::slow_disk(),
        image_bytes_per_rank: 8 * 1024 * 1024,
    });
    let run = run_ckpt_world(cfg(n), opts, |r| random_workload(&paced, r));
    assert_eq!(run.checkpoints.len(), 1, "checkpoint must fire");
    let ckpt = &run.checkpoints[0];
    assert!(ckpt.io_write_secs > 0.0, "image write must cost time");
    assert!(ckpt.io_read_secs > 0.0, "restart read-back must cost time");
    // The charge landed on the clocks: the run is slower than native by at
    // least the full I/O time (drain overhead comes on top).
    assert!(
        run.makespan.as_secs()
            >= native.makespan.as_secs() + ckpt.io_write_secs + ckpt.io_read_secs - 1e-9,
        "makespan {} vs native {} + io {}",
        run.makespan.as_secs(),
        native.makespan.as_secs(),
        ckpt.io_write_secs + ckpt.io_read_secs
    );
    // Data is still bit-identical.
    let got: Vec<f64> = run.results().copied().collect();
    assert_eq!(got, native_data);
}
