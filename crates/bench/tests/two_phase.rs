//! End-to-end tests for the 2PC trivial-barrier protocol and its capture
//! state, plus the CC drain's p2p stall, judged by the stall rule of
//! `mana_core::control`: `TARGET[]` unmet and no live rank able to run.

use ckpt::{
    run_ckpt_world, run_ckpt_world_steps, BodyStep, CcRank, CkptOptions, CkptRunReport, CkptTier,
    DrainError, EveryNCollectives, ResumeMode, StepBody, StepPoll, TierModels, TieredStore,
    Tiering, VirtualTimeSchedule,
};
use mana_core::{DrainEvent, Protocol, VComm, VReq};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{DType, NetParams, ReduceOp, VTime, WaitReason, WorldConfig};
use netmodel::LustreModel;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;
use workloads::{scf_loop, RandomWorkloadCfg, RandomWorkloadStep, ScfStep};

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
            let wl = RandomWorkloadCfg::new(seed, 25);
            let native = run_ckpt_world(
                cfg(n),
                CkptOptions::native().with_protocol(Protocol::TwoPhase),
                |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
            );
            let native_data: Vec<f64> = native.results().copied().collect();

            let at = VTime::from_secs(native.makespan.as_secs() * 0.4);
            let run = run_ckpt_world(cfg(n), opts_2pc(vec![at], mode), |r| {
                r.run(&mut RandomWorkloadStep::new(wl.clone()))
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

/// Who steps a run's ranks: the pool, or a thread per rank running the
/// body through `CcRank::run`.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Pool,
    Threads,
}

const DRIVERS: [Driver; 2] = [Driver::Pool, Driver::Threads];

/// `make`'s body on every rank under `driver`.
fn run_on<B: StepBody>(
    driver: Driver,
    cfg: WorldConfig,
    opts: CkptOptions,
    make: impl Fn(usize) -> B + Send + Sync,
) -> CkptRunReport<B::Out> {
    match driver {
        Driver::Pool => run_ckpt_world_steps(cfg, opts, make),
        Driver::Threads => run_ckpt_world(cfg, opts, |r| r.run(&mut make(r.rank()))),
    }
}

/// Resolves a poll inside `step`, yielding on `Pending`.
macro_rules! ready {
    ($poll:expr) => {
        match $poll {
            StepPoll::Ready(v) => v,
            StepPoll::Pending(why) => return BodyStep::Yield(why),
        }
    };
}

/// Where a [`BarrierParker`] rank is.
#[derive(Clone, Copy)]
enum ParkerPc {
    Cross,
    Sum,
    Max,
    Barrier,
}

/// Rank 0 computes to just below the first trigger; ranks 1–2 compute
/// past it and wall-sleep. Then every rank runs a world allreduce of
/// `rank + 1`, computes past the second trigger, pauses, allreduces the
/// maximum of the sums and passes a barrier.
struct BarrierParker {
    pc: ParkerPc,
    sum: f64,
    max: f64,
}

impl StepBody for BarrierParker {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let world = r.world_vcomm();
        loop {
            match self.pc {
                ParkerPc::Cross => {
                    if r.rank() == 0 {
                        r.compute(60e-6);
                    } else {
                        r.compute(70e-6);
                        std::thread::sleep(Duration::from_millis(400));
                    }
                    self.pc = ParkerPc::Sum;
                }
                ParkerPc::Sum => {
                    let mine = [r.rank() as f64 + 1.0];
                    self.sum = ready!(r.poll_allreduce_f64(world, &mine, ReduceOp::Sum))[0];
                    r.compute(200e-6);
                    // Give the second trigger a wall-clock window to fire
                    // before the final collectives race to completion.
                    std::thread::sleep(Duration::from_millis(10));
                    self.pc = ParkerPc::Max;
                }
                ParkerPc::Max => {
                    let mine = [self.sum];
                    self.max = ready!(r.poll_allreduce_f64(world, &mine, ReduceOp::Max))[0];
                    self.pc = ParkerPc::Barrier;
                }
                ParkerPc::Barrier => {
                    ready!(r.poll_barrier(world));
                    return BodyStep::Done(self.sum + self.max);
                }
            }
        }
    }
}

/// A rank parked *inside* its trivial barrier is captured via
/// `pending_barrier` and survives a restart: the rank installs the capture
/// it published into the fresh lower half, which re-issues the barrier
/// there, and its `CallCounters` — the ones the capture holds — continue
/// instead of resetting. Both are asserted by round-tripping through a
/// second checkpoint, under both drivers (the pool with a worker per
/// rank: the sleeping ranks hold theirs).
#[test]
fn pending_barrier_and_counters_round_trip_across_restart() {
    let n = 3;
    // Rank 0 posts its trivial barrier just below the trigger threshold and
    // crosses it with the post + first Test, so the checkpoint lands while
    // rank 0 is parked in the barrier; ranks 1–2 are already past the
    // threshold but wall-sleep before their entry, so they stop *before*
    // posting (the stop-the-world phase 1).
    for driver in DRIVERS {
        let opts = opts_2pc(
            vec![VTime::from_secs(60.05e-6), VTime::from_secs(150e-6)],
            ResumeMode::Restart,
        );
        let make = |_| BarrierParker {
            pc: ParkerPc::Cross,
            sum: 0.0,
            max: 0.0,
        };
        let run = run_on(driver, cfg(n).with_workers(n), opts, make);
        assert!(run.failures.is_empty(), "{driver:?}: {:?}", run.failures);
        assert_eq!(run.checkpoints.len(), 2, "{driver:?}: both must fire");
        let first = &run.checkpoints[0];
        let second = &run.checkpoints[1];

        // Rank 0 was parked in its first trivial barrier on MPI_COMM_WORLD.
        assert_eq!(
            first.captures[0].pending_barrier,
            Some((0, 0)),
            "{driver:?}: rank 0's in-progress trivial barrier must be captured"
        );
        for r in 1..n {
            assert_eq!(
                first.captures[r].pending_barrier, None,
                "{driver:?}: rank {r} stopped before posting"
            );
        }
        assert!(
            run.trace
                .count(|e| matches!(e, DrainEvent::TrivialBarrierParked(0)))
                >= 1
        );

        // The captured counters continue monotonically across the restart:
        // every field of the later capture dominates the earlier one, and
        // the collectives executed in between are visible.
        for r in 0..n {
            let c1 = first.captures[r].counters;
            let c2 = second.captures[r].counters;
            assert!(
                c2.dominates(&c1),
                "{driver:?}: rank {r} counters regressed across restart: {c1:?} -> {c2:?}"
            );
            assert!(
                c2.coll_blocking > c1.coll_blocking,
                "{driver:?}: rank {r} blocking-collective count did not advance: \
                 {c1:?} -> {c2:?}"
            );
            assert!(
                c2.trivial_barriers >= 1,
                "{driver:?}: rank {r} never recorded its trivial barrier"
            );
        }

        // The re-issued barrier completed and the program ran to the
        // correct data on every rank: sum = 1+2+3 = 6, max of sums = 6.
        for res in run.results() {
            assert_eq!(*res, 12.0, "{driver:?}");
        }
    }
}

/// Runs `run` on a helper thread under a hard 20 s bound: a wedged world
/// fails the test with what was run and the run index instead of hanging
/// the suite.
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
            "{what} run {i} wedged: the world did not finish within 20 s \
             (a 2PC park a late arriver completed, or an undetected drain stall?)"
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
    // The rank whose first call completes the threshold raises the
    // request itself, so every run takes its checkpoint.
    let check = |what: &str, i: usize, run: CkptRunReport<f64>, want: &[f64]| {
        assert_eq!(run.checkpoints.len(), 1, "{what} run {i}: one checkpoint");
        assert!(
            run.failures.is_empty(),
            "{what} run {i}: {:?}",
            run.failures
        );
        assert_eq!(run.backstop_expiries, 0, "{what} run {i}: timed wakeup");
        let got: Vec<f64> = run.results().copied().collect();
        assert_eq!(got, want, "{what} run {i}: results diverged from Native");
    };

    // "Red on the parent" is judged at release speed, and a debug build
    // runs the same body several times slower, so it gets a shorter one.
    let step_iters = if cfg!(debug_assertions) { 40 } else { 200 };
    let (step_runs, thread_runs, thread_iters) = (200, 30, 60);
    let want = native(step_iters);
    for i in 0..step_runs {
        let run = run_bounded("step-rank", i, move || {
            run_ckpt_world_steps(cfg(), opts(), |_| ScfStep::new(step_iters, ELEMS))
        });
        check("step-rank", i, run, &want);
    }
    let want = native(thread_iters);
    for i in 0..thread_runs {
        let run = run_bounded("thread-rank", i, move || {
            run_ckpt_world(cfg(), opts(), move |r| scf_loop(r, thread_iters, ELEMS))
        });
        check("thread-rank", i, run, &want);
    }
}

/// Where a [`GatedSend`] rank is.
#[derive(Clone, Copy)]
enum GatedPc {
    Split,
    Recv,
    Initiate,
    Sub,
    Wait,
}

/// Rank 0 crosses the trigger below its target (the others initiate one
/// more world collective first) and waits for rank 1's message — in a
/// receive or, with `polls`, an `MPI_Test` + `compute` loop — then
/// allreduces on the world. Ranks 1–2 initiate that allreduce, cross the
/// trigger, sleep outside the engine and run a collective on their
/// sub-communicator, behind which rank 1 sends rank 0 its message.
struct GatedSend {
    polls: bool,
    pc: GatedPc,
    sub: Option<VComm>,
    recv: Option<VReq>,
    sum: Option<VReq>,
    got: f64,
}

impl StepBody for GatedSend {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let (world, me) = (r.world_vcomm(), r.rank());
        let one = || encode_f64(&[1.0]);
        loop {
            match self.pc {
                GatedPc::Split => {
                    let color = i64::from(me != 0);
                    let sub = ready!(r.poll_comm_split(world, color, me as i64));
                    self.sub = Some(sub.expect("color >= 0"));
                    if me == 0 {
                        // Below target at the snapshot, blocked in a
                        // receive whose matching send sits behind rank 1's
                        // beyond-target sub-collective.
                        r.compute(50e-6);
                        self.recv = Some(r.irecv(world, 1, 9u32));
                        self.pc = GatedPc::Recv;
                    } else {
                        self.pc = GatedPc::Initiate;
                    }
                }
                GatedPc::Recv => {
                    let v = self.recv.expect("posted");
                    let data = if self.polls {
                        match ready!(r.poll_test(v)) {
                            Some(c) => c.data,
                            None => {
                                r.compute(1e-6);
                                return BodyStep::Yield(WaitReason::Poll);
                            }
                        }
                    } else {
                        ready!(r.poll_wait(v)).data
                    };
                    self.got = decode_f64(&data)[0];
                    self.pc = GatedPc::Initiate;
                }
                GatedPc::Initiate => {
                    let v = ready!(r.poll_iallreduce(world, &one(), DType::F64, ReduceOp::Sum));
                    self.sum = Some(v);
                    self.pc = if me == 0 {
                        GatedPc::Wait
                    } else {
                        r.compute(50e-6);
                        // The trigger fires while we sleep, outside the
                        // engine: a rank that can run is never part of a
                        // stall.
                        std::thread::sleep(Duration::from_millis(150));
                        GatedPc::Sub
                    };
                }
                GatedPc::Sub => {
                    // Beyond-target collective: both ranks have met every
                    // target, so they park at this entry — and the send
                    // below never happens until the coordinator gives up.
                    let sub = self.sub.expect("split done");
                    ready!(r.poll_allreduce_f64(sub, &[1.0], ReduceOp::Sum));
                    if me == 1 {
                        let v = r.isend(world, 0, 9u32, encode_f64(&[42.5]));
                        assert!(r.poll_wait(v).is_ready(), "an eager send completes at once");
                    }
                    self.pc = GatedPc::Wait;
                }
                GatedPc::Wait => {
                    ready!(r.poll_wait(self.sum.expect("initiated")));
                    return BodyStep::Done(self.got);
                }
            }
        }
    }
}

/// A receive fed by a send gated behind a beyond-target collective
/// deadlocks the CC drain: rank 0 is below its target, waiting for rank
/// 1's message; ranks 1 and 2 have met every target and park at their
/// next collective entry, before the send ([`GatedSend`], under
/// `driver`; the pool has a worker per rank, since the sleeping ranks
/// hold theirs).
fn p2p_stall_run(polls: bool, driver: Driver) -> CkptRunReport<f64> {
    let n = 3;
    let opts = CkptOptions::one_checkpoint(VTime::from_secs(45e-6), ResumeMode::Continue);
    let make = move |_| GatedSend {
        polls,
        pc: GatedPc::Split,
        sub: None,
        recv: None,
        sum: None,
        got: 0.0,
    };
    run_on(driver, cfg(n).with_workers(n), opts, make)
}

/// What a stalled drain must leave behind: the typed error naming the
/// blocked rank, no image, one abort, and the program run to completion
/// with the right data once the request is withdrawn.
fn assert_p2p_stall(run: &CkptRunReport<f64>) {
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

/// A blocking receive fed by a send gated behind a beyond-target
/// collective deadlocks the CC drain. With every rank asleep in the
/// engine and no wake pending, the coordinator must withdraw the request
/// and surface a typed `DrainError::P2pStall` — and the application must
/// then run to completion.
#[test]
fn p2p_stall_fails_fast_with_typed_error() {
    for driver in DRIVERS {
        assert_p2p_stall(&p2p_stall_run(false, driver));
    }
}

/// The same stall with rank 0 polling: every charged `MPI_Test` moves its
/// clock, so a watch for "no progress" never fires, yet nothing another
/// rank does can complete the receive. A failed test on a request only
/// another rank can complete holds the rank like a sleep, so the stall is
/// declared as fast as its blocking sibling's.
#[test]
fn p2p_stall_in_a_test_loop_fails_fast_with_typed_error() {
    for (i, driver) in DRIVERS.into_iter().enumerate() {
        let run = run_bounded("test-loop stall", i, move || p2p_stall_run(true, driver));
        assert_p2p_stall(&run);
    }
}

/// Satellite: checkpoint image I/O must be charged against the virtual
/// clocks — a checkpoint is no longer free once a storage model is
/// attached, and a restart additionally pays the read-back.
#[test]
fn checkpoint_io_charges_virtual_time() {
    let n = 4;
    let wl = RandomWorkloadCfg::new(11, 25);
    let native = run_ckpt_world(cfg(n), CkptOptions::native(), |r| {
        r.run(&mut RandomWorkloadStep::new(wl.clone()))
    });
    let native_data: Vec<f64> = native.results().copied().collect();

    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let store = TieredStore::new(TierModels {
        lustre: LustreModel::slow_disk(),
        image_bytes_per_rank: 8 * 1024 * 1024,
        ..TierModels::perlmutter()
    });
    let opts = CkptOptions::one_checkpoint(at, ResumeMode::Restart)
        .with_tiering(Tiering::fixed(CkptTier::Lustre).with_store(Arc::new(store)));
    let run = run_ckpt_world(cfg(n), opts, |r| {
        r.run(&mut RandomWorkloadStep::new(wl.clone()))
    });
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
