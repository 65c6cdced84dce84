//! Adversarial drain schedules (ISSUE satellite): a rank parked in a
//! wildcard (`ANY_SOURCE`) receive while the others drain, a non-blocking
//! collective that is initiated but not completed when the checkpoint
//! request lands (§4.3.1 counts initiation; §4.3.2 drains it), `MPI_Test`
//! loops that a checkpoint lands inside of, a step-body program run
//! inline (`CcRank::run`) between a closure's own blocking calls, and the
//! drain's stall rule from both sides — a body that sleeps through a drain
//! and a healthy 256-rank drain multiplexed onto a small host can both
//! still run, so neither is a p2p stall.

use ckpt::{run_ckpt_world, CcRank, CkptOptions, ResumeMode};
use mana_core::{DrainEvent, Protocol};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{DType, NetParams, ReduceOp, SrcSel, TagSel, VTime, WorldConfig};
use std::time::Duration;
use workloads::{random_workload, RandomWorkloadCfg, ScfStep};

fn cfg(n: usize) -> WorldConfig {
    WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
}

/// Rank 0 blocks in `recv(ANY_SOURCE, ANY_TAG)` whose matching send only
/// happens *after* the checkpoint; ranks 1–2 keep draining collectives on
/// their own sub-communicator. The capture must record rank 0's pending
/// wildcard receive, the restart must re-post it, and the message sent
/// post-restart must still land.
#[test]
fn wildcard_recv_parks_while_others_drain() {
    let run = run_ckpt_world(
        cfg(3),
        CkptOptions::one_checkpoint(VTime::from_micros(50.0), ResumeMode::Restart),
        |r| {
            let world = r.world_vcomm();
            let color = i64::from(r.rank() != 0);
            let sub = r
                .comm_split(world, color, r.rank() as i64)
                .expect("non-negative color");
            if r.rank() == 0 {
                // Push the published clock past the trigger, then block in
                // a wildcard receive with no sender in sight.
                r.compute(200e-6);
                let (data, st) = r.recv(world, SrcSel::Any, TagSel::Any);
                assert_eq!(st.source, 1);
                decode_f64(&data)[0]
            } else {
                for _ in 0..60 {
                    r.allreduce_f64(sub, &[1.0], ReduceOp::Sum);
                    r.compute(5e-6);
                    std::thread::sleep(Duration::from_micros(50));
                }
                if r.rank() == 1 {
                    r.send(world, 0, 7, encode_f64(&[42.5]));
                }
                0.0
            }
        },
    );
    assert_eq!(run.checkpoints.len(), 1, "checkpoint must fire mid-drain");
    let ckpt = &run.checkpoints[0];
    ckpt.verify().expect("cut must satisfy the oracle");
    assert!(ckpt.targets_exactly_reached());
    // Rank 0 quiesced inside the wildcard receive: the image records it.
    let pending = &ckpt.captures[0].pending_recvs;
    assert_eq!(pending.len(), 1, "pending wildcard recv must be captured");
    assert!(matches!(pending[0].src, SrcSel::Any));
    assert!(matches!(pending[0].tag, TagSel::Any));
    // The re-posted receive completed with the post-restart payload.
    assert_eq!(run.ranks[0].result, 42.5);
}

/// Wildcard order across a restart: rank 1's message to rank 0 is drained
/// at the cut, rank 2 sends to rank 0 only after the restart — from a park
/// on a communicator rank 0 is not in, so it may send before rank 0 has
/// even installed the next lower half — and rank 0's two `ANY_SOURCE`
/// receives must still take rank 1's message first: it was sent first.
/// The mirrored roles (rank 2 receives, rank 0 sends late) make the race
/// likely: a release wakes the ranks in rank order.
#[test]
fn drained_message_stays_ahead_of_post_restart_sends() {
    for protocol in [Protocol::Cc, Protocol::TwoPhase] {
        for (rx, late) in [(0, 2), (2, 0)] {
            let opts = CkptOptions::one_checkpoint(VTime::from_micros(50.0), ResumeMode::Restart)
                .with_protocol(protocol);
            let run = run_ckpt_world(cfg(3), opts, move |r| {
                let world = r.world_vcomm();
                let me = r.rank();
                let own = r.comm_split(world, me as i64, 0).expect("own color");
                if me == 1 {
                    r.send(world, rx, 1, encode_f64(&[1.0]));
                }
                // Every rank crosses the trigger, then sleeps for the
                // checkpoint to land before its barrier, where it parks.
                r.compute(100e-6);
                std::thread::sleep(Duration::from_millis(50));
                r.barrier(own);
                if me == late {
                    r.send(world, rx, 2, encode_f64(&[2.0]));
                } else if me == rx {
                    // Both messages are in the mailbox by now.
                    std::thread::sleep(Duration::from_millis(20));
                    let first = r.recv(world, SrcSel::Any, TagSel::Any).1.source;
                    let second = r.recv(world, SrcSel::Any, TagSel::Any).1.source;
                    return (10 * first + second) as f64;
                }
                0.0
            });
            let case = format!("{protocol:?}, rank {rx} receives");
            assert!(run.failures.is_empty(), "{case}: {:?}", run.failures);
            assert_eq!(run.checkpoints.len(), 1, "{case}: the trigger must fire");
            let drained: Vec<(usize, usize)> = (run.checkpoints[0].in_flight.iter())
                .map(|d| (d.saved.src_world, d.saved.dst_world))
                .collect();
            assert_eq!(drained, [(1, rx)], "{case}: only rank 1's message is cut");
            let order = (10 + late) as f64;
            assert_eq!(run.ranks[rx].result, order, "{case}: rank 1 first");
            assert_eq!(run.backstop_expiries, 0, "{case}");
        }
    }
}

/// Every rank initiates an `MPI_Iallreduce` and then sits in wall-clock
/// sleep with the request outstanding while the checkpoint runs. The drain
/// counts the initiation toward the target, completes the collective at
/// quiesce, and the application's later `wait` gets the stored result.
#[test]
fn initiated_nonblocking_collective_drains_at_checkpoint() {
    let run = run_ckpt_world(
        cfg(4),
        CkptOptions::one_checkpoint(VTime::from_micros(20.0), ResumeMode::Continue),
        |r| {
            let world = r.world_vcomm();
            r.compute(25e-6);
            let v = r.iallreduce(
                world,
                encode_f64(&[r.rank() as f64]),
                DType::F64,
                ReduceOp::Sum,
            );
            // Wide wall-clock window with the request outstanding.
            std::thread::sleep(Duration::from_millis(3));
            let c = r.wait(v);
            decode_f64(&c.data)[0]
        },
    );
    assert_eq!(
        run.checkpoints.len(),
        1,
        "checkpoint must fire in the window"
    );
    let ckpt = &run.checkpoints[0];
    ckpt.verify().expect("cut must satisfy the oracle");
    // §4.3.1: the initiation was counted on every rank at request time.
    for cap in &ckpt.captures {
        assert_eq!(cap.counters.coll_nonblocking, 1);
    }
    assert!(ckpt.targets_exactly_reached());
    // §4.3.2: the drained result is correct after resume.
    for r in &run.ranks {
        assert_eq!(r.result, 0.0 + 1.0 + 2.0 + 3.0);
    }
}

/// A relay around the ring in which every wait is an `MPI_Test` loop: each
/// rank posts its receive and initiates an allreduce up front, spins
/// `test` + `compute` until the token from its left neighbour arrives,
/// works, passes the token on, and spins on the allreduce. The result
/// folds only received data, never a poll count.
fn test_loop_relay(r: &mut CcRank) -> f64 {
    const WORK_STEPS: usize = 50;
    let world = r.world_vcomm();
    let (me, n) = (r.rank(), r.size());
    // A loop of tests and computes makes no collective call, so nothing
    // stops it between the raise and the coordinator's quiesce: every
    // poll costs wall time, so the quiesce still finds the loops
    // mid-flight.
    r.set_wall_pace_us(50);
    let token = r.irecv(world, (me + n - 1) % n, 3u32);
    let sum = r.iallreduce(world, encode_f64(&[me as f64]), DType::F64, ReduceOp::Sum);
    let work = |r: &mut CcRank| (0..WORK_STEPS).for_each(|_| r.compute(1e-6));
    let spin = |r: &mut CcRank, v| loop {
        if let Some(c) = r.test(v) {
            break decode_f64(&c.data)[0];
        }
        r.compute(1e-6);
    };
    let received = if me == 0 {
        work(r);
        r.send(world, 1, 3, encode_f64(&[1.0]));
        spin(r, token)
    } else {
        let got = spin(r, token);
        work(r);
        r.send(world, (me + 1) % n, 3, encode_f64(&[got + me as f64]));
        got
    };
    received + 1e-3 * spin(r, sum)
}

/// A checkpoint that lands while ranks sit in `MPI_Test` loops — on a
/// receive whose message has not been sent yet, and on an initiated
/// allreduce — must park them at a `test` call, capture the receive as
/// pending, and (on restart) re-post it, without the loops noticing.
#[test]
fn test_loop_survives_a_checkpoint() {
    let n = 4;
    let native = run_ckpt_world(
        cfg(n),
        CkptOptions::native().with_protocol(Protocol::Native),
        test_loop_relay,
    );
    let reference: Vec<f64> = native.results().copied().collect();
    assert_eq!(reference[0], 1.0 + 1.0 + 2.0 + 3.0 + 1e-3 * 6.0);
    for mode in [ResumeMode::Continue, ResumeMode::Restart] {
        // The token is a third of the way round when the request lands:
        // rank 0, which receives it last, is polling for all of the drain.
        let run = run_ckpt_world(
            cfg(n),
            CkptOptions::one_checkpoint(VTime::from_micros(70.0), mode),
            test_loop_relay,
        );
        assert!(run.failures.is_empty(), "{mode:?}: {:?}", run.failures);
        assert_eq!(run.checkpoints.len(), 1, "{mode:?}: checkpoint must fire");
        let ckpt = &run.checkpoints[0];
        ckpt.verify().expect("cut must satisfy the oracle");
        let cap = &ckpt.captures[0];
        assert_eq!(
            cap.pending_recvs.len(),
            1,
            "{mode:?}: rank 0 must be captured inside its receive loop"
        );
        assert!(
            cap.counters.completions > 1,
            "{mode:?}: mid-loop, not at entry"
        );
        let results: Vec<f64> = run.results().copied().collect();
        assert_eq!(results, reference, "{mode:?}: the loops saw the checkpoint");
        assert_eq!(run.backstop_expiries, 0, "{mode:?}");
    }
}

const INLINE_SCF_ITERS: usize = 80;

/// A closure body that runs a step-body program inline between its own
/// blocking calls: a blocking ring exchange, then [`ScfStep`] under
/// [`CcRank::run`] (poll machines in the rank's in-flight slot), then a
/// blocking allgather (a machine on the stack) over what both produced.
fn ring_then_inline_scf_then_allgather(r: &mut CcRank) -> f64 {
    let world = r.world_vcomm();
    let (me, n) = (r.rank(), r.size());
    let sv = r.isend(world, (me + 1) % n, 9, encode_f64(&[me as f64]));
    let (from_left, _) = r.recv(world, (me + n - 1) % n, 9);
    r.wait(sv);
    let energy = r.run(&mut ScfStep::new(INLINE_SCF_ITERS, 8));
    let mine = energy + decode_f64(&from_left)[0];
    let all = decode_f64(&r.allgather(world, encode_f64(&[mine])));
    all.iter()
        .enumerate()
        .map(|(i, x)| x * (i + 1) as f64)
        .sum()
}

/// A checkpoint + restart that lands while every rank is inside
/// `CcRank::run` must park the inline body at one of its `poll_*` calls,
/// resume it into the fresh lower half, and leave the closure's blocking
/// calls on either side none the wiser — under both protocols.
#[test]
fn inline_step_body_in_a_closure_survives_a_restart() {
    let n = 4;
    let native = run_ckpt_world(
        cfg(n),
        CkptOptions::native().with_protocol(Protocol::Native),
        ring_then_inline_scf_then_allgather,
    );
    let reference: Vec<f64> = native.results().copied().collect();
    // The ring exchange before the `run` and the allgather after it are
    // microseconds of the makespan: halfway is well inside.
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    for protocol in [Protocol::Cc, Protocol::TwoPhase] {
        let run = run_ckpt_world(
            cfg(n),
            CkptOptions::one_checkpoint(at, ResumeMode::Restart).with_protocol(protocol),
            ring_then_inline_scf_then_allgather,
        );
        assert!(run.failures.is_empty(), "{protocol:?}: {:?}", run.failures);
        assert_eq!(run.checkpoints.len(), 1, "{protocol:?}: must fire");
        let ckpt = &run.checkpoints[0];
        ckpt.verify().expect("cut must satisfy the oracle");
        for cap in &ckpt.captures {
            // The SCF loop makes two collectives an iteration; nothing
            // before it makes any, and the allgather is the last call.
            let colls = cap.counters.coll_total();
            assert!(
                0 < colls && colls < 2 * INLINE_SCF_ITERS as u64,
                "{protocol:?}: rank {} captured outside the run ({colls} collectives)",
                cap.rank
            );
        }
        let results: Vec<f64> = run.results().copied().collect();
        assert_eq!(results, reference, "{protocol:?}: the run saw the restart");
        assert_eq!(run.backstop_expiries, 0, "{protocol:?}");
    }
}

/// A body below its target that sleeps through the drain (release-only:
/// it sleeps 11 s). Rank 1 initiates an allreduce before the trigger, so
/// `TARGET[world]` is 1; rank 0 crosses the trigger and sleeps 11 s
/// before its own. A sleeping body is no stall: it sleeps outside the
/// engine, so it can run, and the drain waits for it however long it
/// takes. A wall-clock watchdog misread it: its window for two ranks was
/// about 5.1 s.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: sleeps 11 s")]
fn a_body_sleeping_through_the_drain_commits() {
    let run = |opts, sleeps: bool| {
        run_ckpt_world(cfg(2), opts, move |r| {
            let world = r.world_vcomm();
            let mine = encode_f64(&[r.rank() as f64 + 1.0]);
            let v = if r.rank() == 0 {
                r.compute(30e-6);
                if sleeps {
                    std::thread::sleep(Duration::from_secs(11));
                }
                r.iallreduce(world, mine, DType::F64, ReduceOp::Sum)
            } else {
                let v = r.iallreduce(world, mine, DType::F64, ReduceOp::Sum);
                r.compute(30e-6);
                v
            };
            decode_f64(&r.wait(v).data)[0]
        })
    };
    let native = run(CkptOptions::native(), false);
    let opts = CkptOptions::one_checkpoint(VTime::from_micros(20.0), ResumeMode::Continue);
    let slept = run(opts, true);
    assert!(slept.failures.is_empty(), "{:?}", slept.failures);
    assert_eq!(slept.checkpoints.len(), 1, "the drain commits");
    slept.checkpoints[0].verify().expect("safe cut");
    assert_eq!(
        slept
            .trace
            .count(|e| matches!(e, DrainEvent::DrainStep(0, ..))),
        1,
        "rank 0 was below its target while it slept"
    );
    let results = |r: &ckpt::CkptRunReport<f64>| r.results().copied().collect::<Vec<_>>();
    assert_eq!(results(&slept), results(&native));
}

/// Stall-rule regression at scale (release-only): a healthy 256-rank
/// drain over a p2p-heavy randomized workload, multiplexed onto a handful
/// of cores, completes a checkpoint + restart without tripping
/// `DrainError::P2pStall`: however slowly the host runs it, some rank can
/// always run until the drain ends.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_256_rank_drain_does_not_spuriously_stall() {
    let n = 256;
    let cfg =
        WorldConfig::multi_node(n, 128).with_params(NetParams::slingshot11().without_jitter());
    let wl = RandomWorkloadCfg::new(11, 25);
    let native = run_ckpt_world(cfg.clone(), CkptOptions::native(), |r| {
        random_workload(&wl, r)
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.4);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Restart),
        |r| random_workload(&wl, r),
    );
    assert!(
        run.failures.is_empty(),
        "healthy 256-rank drain declared stalled: {:?}",
        run.failures
    );
    assert_eq!(run.checkpoints.len(), 1, "checkpoint must fire mid-run");
    run.checkpoints[0].verify().expect("safe cut at 256 ranks");
    let native_data: Vec<f64> = native.results().copied().collect();
    let run_data: Vec<f64> = run.results().copied().collect();
    assert_eq!(native_data, run_data, "continuation diverged at 256 ranks");
}

/// A checkpoint that lands when some ranks already finished must still
/// capture a consistent cut and restart the survivors.
#[test]
fn checkpoint_with_finished_ranks() {
    let run = run_ckpt_world(
        cfg(3),
        CkptOptions::one_checkpoint(VTime::from_micros(30.0), ResumeMode::Restart),
        |r| {
            let world = r.world_vcomm();
            r.allreduce_f64(world, &[1.0], ReduceOp::Sum);
            // The split is collective over world, so rank 0 participates
            // (with MPI_UNDEFINED) before it finishes.
            let color = if r.rank() == 0 { -1 } else { 1 };
            let sub = r.comm_split(world, color, r.rank() as i64);
            if r.rank() == 0 {
                // Rank 0 finishes immediately after the collectives.
                r.compute(40e-6);
                return 0.0;
            }
            let sub = sub.expect("ranks 1-2 are members");
            let mut acc = 0.0;
            for _ in 0..40 {
                r.compute(2e-6);
                std::thread::sleep(Duration::from_micros(50));
                acc = r.allreduce_f64(sub, &[acc + 1.0], ReduceOp::Sum)[0];
            }
            acc
        },
    );
    // The checkpoint may land before or after rank 0 finishes; either way
    // every captured cut must verify and the survivors must complete.
    for ckpt in &run.checkpoints {
        ckpt.verify().expect("cut must satisfy the oracle");
    }
    assert_eq!(run.checkpoints.len(), 1);
    assert_eq!(run.ranks[1].result, run.ranks[2].result);
}
