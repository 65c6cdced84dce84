//! Adversarial drain schedules: a rank parked in a wildcard
//! (`ANY_SOURCE`) receive while the others drain, a non-blocking
//! collective that is initiated but not completed when the checkpoint
//! request lands (§4.3.1 counts initiation; §4.3.2 drains it), `MPI_Test`
//! loops that a checkpoint lands inside of, a step-body program run inline
//! inside another, a communicator built by `MPI_Comm_create` across a
//! restart, and the drain's stall rule from both sides — a body that
//! sleeps through a drain and a healthy 256-rank drain multiplexed onto a
//! small host can both still run, so neither is a p2p stall.
//!
//! Every program is a step body, run under both drivers where its
//! assertions do not depend on the driver: on the pool
//! (`run_ckpt_world_steps`), and on a thread per rank through
//! `CcRank::run`. A body that sleeps to order the ranks in wall time
//! holds its pool worker while it sleeps, so those runs give the pool one
//! worker per rank, as the threads have.

use ckpt::wire::{Dec, DecodeError, Wr};
use ckpt::{
    restore_ckpt_world_steps, run_ckpt_world, run_ckpt_world_steps, BodyStep, CcRank, CkptOptions,
    CkptRunReport, RestoreConfig, ResumeMode, StepBody, StepPoll,
};
use mana_core::{CommOp, DrainEvent, Protocol, VComm, VReq};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{
    Completion, DType, NetParams, ReduceOp, SrcSel, TagSel, VTime, WaitReason, WorldConfig,
};
use std::time::Duration;
use workloads::{RandomWorkloadCfg, RandomWorkloadStep, ScfStep};

fn cfg(n: usize) -> WorldConfig {
    WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
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

/// One program under both drivers: on the pool, and on a thread per rank
/// that runs it through `CcRank::run`.
fn on_both_drivers<B: StepBody>(
    cfg: &WorldConfig,
    opts: impl Fn() -> CkptOptions,
    make: impl Fn(usize) -> B + Send + Sync,
) -> [(&'static str, CkptRunReport<B::Out>); 2] {
    let pool = run_ckpt_world_steps(cfg.clone(), opts(), &make);
    let threads = run_ckpt_world(cfg.clone(), opts(), |r| r.run(&mut make(r.rank())));
    [("pool", pool), ("threads", threads)]
}

fn results(run: &CkptRunReport<f64>) -> Vec<f64> {
    run.results().copied().collect()
}

/// An `MPI_Send` of `data`: an eager send, which completes at once.
fn send(r: &mut CcRank, vc: VComm, to: usize, tag: u32, data: &[f64]) {
    let v = r.isend(vc, to, tag, encode_f64(data));
    assert!(r.poll_wait(v).is_ready(), "an eager send completes at once");
}

/// Where a [`WildcardRecv`] rank is.
#[derive(Clone, Copy)]
enum WildPc {
    Split,
    Recv,
    Drain,
    Send,
}

/// Rank 0 pushes its published clock past the trigger, then waits in a
/// wildcard receive with no sender in sight; ranks 1–2 run 60 allreduces
/// on their own sub-communicator, after which rank 1 sends rank 0 its
/// message.
struct WildcardRecv {
    pc: WildPc,
    sub: Option<VComm>,
    it: usize,
    recv: Option<VReq>,
}

impl StepBody for WildcardRecv {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let (world, me) = (r.world_vcomm(), r.rank());
        loop {
            match self.pc {
                WildPc::Split => {
                    let color = i64::from(me != 0);
                    let sub = ready!(r.poll_comm_split(world, color, me as i64));
                    self.sub = Some(sub.expect("non-negative color"));
                    assert_split_shape(r, self.sub, 0);
                    self.pc = match me {
                        0 => {
                            r.compute(200e-6);
                            WildPc::Recv
                        }
                        _ => WildPc::Drain,
                    };
                }
                WildPc::Recv => {
                    let v = *(self.recv)
                        .get_or_insert_with(|| r.irecv(world, SrcSel::Any, TagSel::Any));
                    let c = ready!(r.poll_wait(v));
                    assert_eq!(c.status.expect("a receive's status").source, 1);
                    return BodyStep::Done(decode_f64(&c.data)[0]);
                }
                WildPc::Drain if self.it == 60 => self.pc = WildPc::Send,
                WildPc::Drain => {
                    let sub = self.sub.expect("split done");
                    ready!(r.poll_allreduce_f64(sub, &[1.0], ReduceOp::Sum));
                    r.compute(5e-6);
                    std::thread::sleep(Duration::from_micros(50));
                    self.it += 1;
                }
                WildPc::Send => {
                    // After the restart: resolved through the rebuilt
                    // lower communicator.
                    assert_split_shape(r, self.sub, 1);
                    if me == 1 {
                        send(r, world, 0, 7, &[42.5]);
                    }
                    return BodyStep::Done(0.0);
                }
            }
        }
    }
}

/// [`WildcardRecv`]'s split as the rank sees it in lower-half generation
/// `epoch`: rank 0 alone, ranks 1–2 ranked 0–1 in a pair.
fn assert_split_shape(r: &CcRank, sub: Option<VComm>, epoch: u64) {
    let (me, sub) = (r.rank(), sub.expect("split done"));
    assert_eq!(r.lower_half().world().epoch, epoch, "rank {me}");
    let shape = if me == 0 { (0, 1) } else { (me - 1, 2) };
    assert_eq!((r.comm_rank(sub), r.comm_size(sub)), shape, "rank {me}");
}

/// Rank 0 blocks in `recv(ANY_SOURCE, ANY_TAG)` whose matching send only
/// happens *after* the checkpoint; ranks 1–2 keep draining collectives on
/// their own sub-communicator. The capture must record rank 0's pending
/// wildcard receive, the restart must re-post it, and the message sent
/// post-restart must still land.
#[test]
fn wildcard_recv_parks_while_others_drain() {
    let opts = || CkptOptions::one_checkpoint(VTime::from_micros(50.0), ResumeMode::Restart);
    let make = |_| WildcardRecv {
        pc: WildPc::Split,
        sub: None,
        it: 0,
        recv: None,
    };
    for (driver, run) in on_both_drivers(&cfg(3), opts, make) {
        assert_eq!(run.checkpoints.len(), 1, "{driver}: must fire mid-drain");
        let ckpt = &run.checkpoints[0];
        ckpt.verify().expect("cut must satisfy the oracle");
        assert!(ckpt.targets_exactly_reached(), "{driver}");
        // Rank 0 quiesced inside the wildcard receive: the image records it.
        let pending = &ckpt.captures[0].pending_recvs;
        assert_eq!(pending.len(), 1, "{driver}: pending wildcard recv captured");
        assert!(matches!(pending[0].src, SrcSel::Any));
        assert!(matches!(pending[0].tag, TagSel::Any));
        // The re-posted receive completed with the post-restart payload.
        assert_eq!(run.ranks[0].result, 42.5, "{driver}");
    }
}

/// Where a [`WildcardOrder`] rank is.
#[derive(Clone, Copy)]
enum OrderPc {
    Split,
    Cross,
    Barrier,
    Late,
    Recv,
}

/// Rank 1 sends `rx` a message, every rank crosses the trigger and
/// sleeps for the checkpoint to land before the barrier on its own
/// communicator, where it parks; after it, rank `late` sends `rx` a
/// second message, and `rx` takes both by `ANY_SOURCE` receives.
struct WildcardOrder {
    rx: usize,
    late: usize,
    pc: OrderPc,
    own: Option<VComm>,
    recv: Option<VReq>,
    sources: Vec<usize>,
}

impl StepBody for WildcardOrder {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let (world, me) = (r.world_vcomm(), r.rank());
        loop {
            match self.pc {
                OrderPc::Split => {
                    let own = ready!(r.poll_comm_split(world, me as i64, 0));
                    self.own = Some(own.expect("own color"));
                    self.pc = OrderPc::Cross;
                }
                OrderPc::Cross => {
                    if me == 1 {
                        send(r, world, self.rx, 1, &[1.0]);
                    }
                    r.compute(100e-6);
                    std::thread::sleep(Duration::from_millis(50));
                    self.pc = OrderPc::Barrier;
                }
                OrderPc::Barrier => {
                    ready!(r.poll_barrier(self.own.expect("split done")));
                    if me == self.rx {
                        // Both messages are in the mailbox by now.
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    self.pc = match me {
                        _ if me == self.late => OrderPc::Late,
                        _ if me == self.rx => OrderPc::Recv,
                        _ => return BodyStep::Done(0.0),
                    };
                }
                OrderPc::Late => {
                    send(r, world, self.rx, 2, &[2.0]);
                    return BodyStep::Done(0.0);
                }
                OrderPc::Recv => {
                    let v = *(self.recv)
                        .get_or_insert_with(|| r.irecv(world, SrcSel::Any, TagSel::Any));
                    let c = ready!(r.poll_wait(v));
                    self.recv = None;
                    self.sources
                        .push(c.status.expect("a receive's status").source);
                    if let [first, second] = self.sources[..] {
                        return BodyStep::Done((10 * first + second) as f64);
                    }
                }
            }
        }
    }
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
            let opts = || {
                CkptOptions::one_checkpoint(VTime::from_micros(50.0), ResumeMode::Restart)
                    .with_protocol(protocol)
            };
            let make = |_| WildcardOrder {
                rx,
                late,
                pc: OrderPc::Split,
                own: None,
                recv: None,
                sources: Vec::new(),
            };
            for (driver, run) in on_both_drivers(&cfg(3).with_workers(3), opts, make) {
                let case = format!("{protocol:?}, rank {rx} receives, {driver}");
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
}

/// Where an [`InitiatedAllreduce`] rank is.
#[derive(Clone, Copy)]
enum InitPc {
    Cross,
    Initiate,
    Wait(VReq),
}

/// Every rank crosses the trigger, initiates an `MPI_Iallreduce`, sits in
/// a wall-clock sleep with the request outstanding, then waits on it.
struct InitiatedAllreduce {
    pc: InitPc,
}

impl StepBody for InitiatedAllreduce {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let world = r.world_vcomm();
        loop {
            match self.pc {
                InitPc::Cross => {
                    r.compute(25e-6);
                    self.pc = InitPc::Initiate;
                }
                InitPc::Initiate => {
                    let mine = encode_f64(&[r.rank() as f64]);
                    let v = ready!(r.poll_iallreduce(world, &mine, DType::F64, ReduceOp::Sum));
                    // Wide wall-clock window with the request outstanding.
                    std::thread::sleep(Duration::from_millis(3));
                    self.pc = InitPc::Wait(v);
                }
                InitPc::Wait(v) => {
                    return BodyStep::Done(decode_f64(&ready!(r.poll_wait(v)).data)[0])
                }
            }
        }
    }
}

/// Every rank initiates an `MPI_Iallreduce` and then sits in wall-clock
/// sleep with the request outstanding while the checkpoint runs. The drain
/// counts the initiation toward the target, completes the collective at
/// quiesce, and the application's later `wait` gets the stored result.
#[test]
fn initiated_nonblocking_collective_drains_at_checkpoint() {
    let opts = || CkptOptions::one_checkpoint(VTime::from_micros(20.0), ResumeMode::Continue);
    let make = |_| InitiatedAllreduce { pc: InitPc::Cross };
    for (driver, run) in on_both_drivers(&cfg(4), opts, make) {
        assert_eq!(
            run.checkpoints.len(),
            1,
            "{driver}: must fire in the window"
        );
        let ckpt = &run.checkpoints[0];
        ckpt.verify().expect("cut must satisfy the oracle");
        // §4.3.1: the initiation was counted on every rank at request time.
        for cap in &ckpt.captures {
            assert_eq!(cap.counters.coll_nonblocking, 1, "{driver}");
        }
        assert!(ckpt.targets_exactly_reached(), "{driver}");
        // §4.3.2: the drained result is correct after resume.
        for r in &run.ranks {
            assert_eq!(r.result, 0.0 + 1.0 + 2.0 + 3.0, "{driver}");
        }
    }
}

/// Where a [`TestLoopRelay`] rank is.
#[derive(Clone, Copy)]
enum RelayPc {
    Post,
    Initiate,
    Work,
    Pass,
    SpinToken,
    SpinSum,
}

/// A relay around the ring in which every wait is an `MPI_Test` loop: each
/// rank posts its receive and initiates an allreduce up front, tests +
/// computes until the token from its left neighbour arrives, works,
/// passes the token on, and tests the allreduce the same way; a failed
/// test yields [`WaitReason::Poll`]. The result folds only received
/// data, never a poll count.
struct TestLoopRelay {
    pc: RelayPc,
    token: Option<VReq>,
    sum: Option<VReq>,
    received: f64,
}

impl TestLoopRelay {
    fn new() -> TestLoopRelay {
        TestLoopRelay {
            pc: RelayPc::Post,
            token: None,
            sum: None,
            received: 0.0,
        }
    }
}

/// One `MPI_Test` of a [`TestLoopRelay`] loop: the completion's value,
/// or a unit of compute and a `Poll` yield.
macro_rules! spin {
    ($r:expr, $v:expr) => {
        match ready!($r.poll_test($v.expect("posted up front"))) {
            Some(c) => decode_f64(&c.data)[0],
            None => {
                $r.compute(1e-6);
                return BodyStep::Yield(WaitReason::Poll);
            }
        }
    };
}

impl StepBody for TestLoopRelay {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        const WORK_STEPS: usize = 50;
        let world = r.world_vcomm();
        let (me, n) = (r.rank(), r.size());
        loop {
            match self.pc {
                RelayPc::Post => {
                    // A loop of tests and computes makes no collective
                    // call, so nothing stops it between the raise and the
                    // coordinator's quiesce: every poll costs wall time,
                    // so the quiesce still finds the loops mid-flight.
                    r.set_wall_pace_us(50);
                    self.token = Some(r.irecv(world, (me + n - 1) % n, 3u32));
                    self.pc = RelayPc::Initiate;
                }
                RelayPc::Initiate => {
                    let mine = encode_f64(&[me as f64]);
                    let v = ready!(r.poll_iallreduce(world, &mine, DType::F64, ReduceOp::Sum));
                    self.sum = Some(v);
                    self.pc = if me == 0 {
                        RelayPc::Work
                    } else {
                        RelayPc::SpinToken
                    };
                }
                RelayPc::Work => {
                    (0..WORK_STEPS).for_each(|_| r.compute(1e-6));
                    self.pc = RelayPc::Pass;
                }
                RelayPc::Pass => {
                    let token = if me == 0 {
                        1.0
                    } else {
                        self.received + me as f64
                    };
                    send(r, world, (me + 1) % n, 3, &[token]);
                    self.pc = if me == 0 {
                        RelayPc::SpinToken
                    } else {
                        RelayPc::SpinSum
                    };
                }
                RelayPc::SpinToken => {
                    self.received = spin!(r, self.token);
                    self.pc = if me == 0 {
                        RelayPc::SpinSum
                    } else {
                        RelayPc::Work
                    };
                }
                RelayPc::SpinSum => {
                    let sum = spin!(r, self.sum);
                    return BodyStep::Done(self.received + 1e-3 * sum);
                }
            }
        }
    }
}

/// A checkpoint that lands while ranks sit in `MPI_Test` loops — on a
/// receive whose message has not been sent yet, and on an initiated
/// allreduce — must park them at a `test` call, capture the receive as
/// pending, and (on restart) re-post it, without the loops noticing.
#[test]
fn test_loop_survives_a_checkpoint() {
    let n = 4;
    let native = || CkptOptions::native().with_protocol(Protocol::Native);
    let [(_, pool), (_, threads)] = on_both_drivers(&cfg(n), native, |_| TestLoopRelay::new());
    let reference = results(&pool);
    assert_eq!(results(&threads), reference, "the drivers agree");
    assert_eq!(reference[0], 1.0 + 1.0 + 2.0 + 3.0 + 1e-3 * 6.0);
    for mode in [ResumeMode::Continue, ResumeMode::Restart] {
        // The token is a third of the way round when the request lands:
        // rank 0, which receives it last, is polling for all of the drain.
        let opts = || CkptOptions::one_checkpoint(VTime::from_micros(70.0), mode);
        for (driver, run) in on_both_drivers(&cfg(n), opts, |_| TestLoopRelay::new()) {
            let case = format!("{mode:?}, {driver}");
            assert!(run.failures.is_empty(), "{case}: {:?}", run.failures);
            assert_eq!(run.checkpoints.len(), 1, "{case}: checkpoint must fire");
            let ckpt = &run.checkpoints[0];
            ckpt.verify().expect("cut must satisfy the oracle");
            let cap = &ckpt.captures[0];
            assert_eq!(
                cap.pending_recvs.len(),
                1,
                "{case}: rank 0 must be captured inside its receive loop"
            );
            assert!(
                cap.counters.completions > 1,
                "{case}: mid-loop, not at entry"
            );
            assert_eq!(
                results(&run),
                reference,
                "{case}: the loops saw the checkpoint"
            );
            assert_eq!(run.backstop_expiries, 0, "{case}");
        }
    }
}

const INLINE_SCF_ITERS: usize = 80;

/// Where a [`RingScfAllgather`] rank is.
#[derive(Clone, Copy)]
enum InlinePc {
    RecvLeft,
    SendDone,
    Scf,
    Allgather,
}

/// A ring exchange, then [`ScfStep`] stepped inline as a part of this
/// body (its polls in the rank's in-flight slot), then an allgather over
/// what both produced.
struct RingScfAllgather {
    pc: InlinePc,
    sent: Option<VReq>,
    from_left: Option<VReq>,
    left: f64,
    scf: ScfStep,
    mine: f64,
}

impl RingScfAllgather {
    fn new() -> RingScfAllgather {
        RingScfAllgather {
            pc: InlinePc::RecvLeft,
            sent: None,
            from_left: None,
            left: 0.0,
            scf: ScfStep::new(INLINE_SCF_ITERS, 8),
            mine: 0.0,
        }
    }
}

/// The allgather's fold: each rank's value weighted by its rank + 1.
fn weighted(all: &[f64]) -> f64 {
    (all.iter().enumerate())
        .map(|(i, x)| x * (i + 1) as f64)
        .sum()
}

impl StepBody for RingScfAllgather {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let world = r.world_vcomm();
        let (me, n) = (r.rank(), r.size());
        loop {
            match self.pc {
                InlinePc::RecvLeft => {
                    if self.sent.is_none() {
                        self.sent = Some(r.isend(world, (me + 1) % n, 9, encode_f64(&[me as f64])));
                    }
                    let v = *(self.from_left)
                        .get_or_insert_with(|| r.irecv(world, (me + n - 1) % n, 9u32));
                    self.left = decode_f64(&ready!(r.poll_wait(v)).data)[0];
                    self.pc = InlinePc::SendDone;
                }
                InlinePc::SendDone => {
                    ready!(r.poll_wait(self.sent.expect("sent")));
                    self.pc = InlinePc::Scf;
                }
                InlinePc::Scf => {
                    let energy = match self.scf.step(r) {
                        BodyStep::Done(e) => e,
                        BodyStep::Yield(why) => return BodyStep::Yield(why),
                    };
                    self.mine = energy + self.left;
                    self.pc = InlinePc::Allgather;
                }
                InlinePc::Allgather => {
                    let all = ready!(r.poll_allgather(world, &encode_f64(&[self.mine])));
                    return BodyStep::Done(weighted(&decode_f64(&all)));
                }
            }
        }
    }
}

/// [`RingScfAllgather`]'s program as a closure: each wait is a
/// `CcRank::run` of its own, the SCF loop among them.
fn ring_then_inline_scf_then_allgather(r: &mut CcRank) -> f64 {
    let world = r.world_vcomm();
    let (me, n) = (r.rank(), r.size());
    let wait = |r: &mut CcRank, v: VReq| -> Completion {
        r.run(&mut |r: &mut CcRank| BodyStep::Done(ready!(r.poll_wait(v))))
    };
    let sv = r.isend(world, (me + 1) % n, 9, encode_f64(&[me as f64]));
    let rv = r.irecv(world, (me + n - 1) % n, 9u32);
    let from_left = decode_f64(&wait(r, rv).data)[0];
    wait(r, sv);
    let energy = r.run(&mut ScfStep::new(INLINE_SCF_ITERS, 8));
    let mine = encode_f64(&[energy + from_left]);
    let all = r.run(&mut |r: &mut CcRank| BodyStep::Done(ready!(r.poll_allgather(world, &mine))));
    weighted(&decode_f64(&all))
}

/// A checkpoint + restart that lands while every rank is inside the SCF
/// loop must park it at one of its `poll_*` calls, resume it into the
/// fresh lower half, and leave the exchange on either side none the
/// wiser — under both protocols, with the loop stepped inline by the
/// pool and run by a closure between its other `CcRank::run`s.
#[test]
fn inline_step_body_in_a_closure_survives_a_restart() {
    let n = 4;
    let native = || CkptOptions::native().with_protocol(Protocol::Native);
    let native_pool = run_ckpt_world_steps(cfg(n), native(), |_| RingScfAllgather::new());
    let native_threads = run_ckpt_world(cfg(n), native(), ring_then_inline_scf_then_allgather);
    let reference = results(&native_pool);
    assert_eq!(results(&native_threads), reference, "the drivers agree");
    // The ring exchange before the loop and the allgather after it are
    // microseconds of the makespan: halfway is well inside.
    let at = VTime::from_secs(native_pool.makespan.as_secs() * 0.5);
    for protocol in [Protocol::Cc, Protocol::TwoPhase] {
        let opts = || CkptOptions::one_checkpoint(at, ResumeMode::Restart).with_protocol(protocol);
        let pool = run_ckpt_world_steps(cfg(n), opts(), |_| RingScfAllgather::new());
        let threads = run_ckpt_world(cfg(n), opts(), ring_then_inline_scf_then_allgather);
        for (driver, run) in [("pool", pool), ("threads", threads)] {
            let case = format!("{protocol:?}, {driver}");
            assert!(run.failures.is_empty(), "{case}: {:?}", run.failures);
            assert_eq!(run.checkpoints.len(), 1, "{case}: must fire");
            let ckpt = &run.checkpoints[0];
            ckpt.verify().expect("cut must satisfy the oracle");
            for cap in &ckpt.captures {
                // The SCF loop makes two collectives an iteration; nothing
                // before it makes any, and the allgather is the last call.
                let colls = cap.counters.coll_total();
                assert!(
                    0 < colls && colls < 2 * INLINE_SCF_ITERS as u64,
                    "{case}: rank {} captured outside the loop ({colls} collectives)",
                    cap.rank
                );
            }
            assert_eq!(results(&run), reference, "{case}: the loop saw the restart");
            assert_eq!(run.backstop_expiries, 0, "{case}");
        }
    }
}

/// Where a [`SleepyInitiator`] rank is.
#[derive(Clone, Copy)]
enum SleepPc {
    Cross,
    Initiate,
    Wait(VReq),
}

/// Rank 1 initiates an allreduce and then crosses the trigger; rank 0
/// crosses it, sleeps 11 s if `sleeps`, and only then initiates its own.
struct SleepyInitiator {
    sleeps: bool,
    pc: SleepPc,
}

impl StepBody for SleepyInitiator {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let (world, me) = (r.world_vcomm(), r.rank());
        loop {
            match self.pc {
                SleepPc::Cross if me == 0 => {
                    r.compute(30e-6);
                    if self.sleeps {
                        std::thread::sleep(Duration::from_secs(11));
                    }
                    self.pc = SleepPc::Initiate;
                }
                SleepPc::Cross => self.pc = SleepPc::Initiate,
                SleepPc::Initiate => {
                    let mine = encode_f64(&[me as f64 + 1.0]);
                    let v = ready!(r.poll_iallreduce(world, &mine, DType::F64, ReduceOp::Sum));
                    if me == 1 {
                        r.compute(30e-6);
                    }
                    self.pc = SleepPc::Wait(v);
                }
                SleepPc::Wait(v) => {
                    return BodyStep::Done(decode_f64(&ready!(r.poll_wait(v)).data)[0])
                }
            }
        }
    }
}

/// A body below its target that sleeps through the drain (release-only:
/// it sleeps 11 s under each driver). Rank 1 initiates an allreduce
/// before the trigger, so `TARGET[world]` is 1; rank 0 crosses the
/// trigger and sleeps 11 s before its own. A sleeping body is no stall:
/// it sleeps outside the engine, so it can run, and the drain waits for
/// it however long it takes. A wall-clock watchdog misread it: its window
/// for two ranks was about 5.1 s. Rank 1 waits out the sleep in the
/// engine and loses no wake: under either driver the run counts no
/// backstop expiry (the pool's idle worker does not sweep while rank 0
/// is inside its step).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: sleeps 11 s")]
fn a_body_sleeping_through_the_drain_commits() {
    let make = |sleeps: bool| {
        move |_| SleepyInitiator {
            sleeps,
            pc: SleepPc::Cross,
        }
    };
    let native = results(&run_ckpt_world_steps(
        cfg(2),
        CkptOptions::native(),
        make(false),
    ));
    let opts = || CkptOptions::one_checkpoint(VTime::from_micros(20.0), ResumeMode::Continue);
    for (driver, slept) in on_both_drivers(&cfg(2), opts, make(true)) {
        assert!(slept.failures.is_empty(), "{driver}: {:?}", slept.failures);
        assert_eq!(slept.checkpoints.len(), 1, "{driver}: the drain commits");
        slept.checkpoints[0].verify().expect("safe cut");
        assert_eq!(
            (slept.trace).count(|e| matches!(e, DrainEvent::DrainStep(0, ..))),
            1,
            "{driver}: rank 0 was below its target while it slept"
        );
        assert_eq!(results(&slept), native, "{driver}");
        assert_eq!(
            slept.backstop_expiries, 0,
            "{driver}: a wait through a sleep lost no wake"
        );
    }
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
        r.run(&mut RandomWorkloadStep::new(wl.clone()))
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.4);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Restart),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
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

/// Where a [`FinishEarly`] rank is.
#[derive(Clone, Copy)]
enum EarlyPc {
    World,
    Split,
    Loop,
}

/// Every rank allreduces on the world and splits it (rank 0 with a
/// negative colour, which it joins before it finishes), then rank 0
/// computes and finishes while ranks 1–2 run 40 rounds of compute, a
/// short wall pause and an allreduce on their sub-communicator.
struct FinishEarly {
    pc: EarlyPc,
    sub: Option<VComm>,
    it: usize,
    paused: bool,
    acc: f64,
}

impl StepBody for FinishEarly {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let (world, me) = (r.world_vcomm(), r.rank());
        loop {
            match self.pc {
                EarlyPc::World => {
                    ready!(r.poll_allreduce_f64(world, &[1.0], ReduceOp::Sum));
                    self.pc = EarlyPc::Split;
                }
                EarlyPc::Split => {
                    let color = if me == 0 { -1 } else { 1 };
                    self.sub = ready!(r.poll_comm_split(world, color, me as i64));
                    if me == 0 {
                        // Rank 0 finishes right after the collectives.
                        r.compute(40e-6);
                        return BodyStep::Done(0.0);
                    }
                    self.pc = EarlyPc::Loop;
                }
                EarlyPc::Loop if self.it == 40 => return BodyStep::Done(self.acc),
                EarlyPc::Loop => {
                    if !self.paused {
                        r.compute(2e-6);
                        std::thread::sleep(Duration::from_micros(50));
                        self.paused = true;
                    }
                    let sub = self.sub.expect("ranks 1-2 are members");
                    let mine = [self.acc + 1.0];
                    self.acc = ready!(r.poll_allreduce_f64(sub, &mine, ReduceOp::Sum))[0];
                    (self.paused, self.it) = (false, self.it + 1);
                }
            }
        }
    }
}

/// A checkpoint that lands when some ranks already finished must still
/// capture a consistent cut and restart the survivors.
#[test]
fn checkpoint_with_finished_ranks() {
    let opts = || CkptOptions::one_checkpoint(VTime::from_micros(30.0), ResumeMode::Restart);
    let make = |_| FinishEarly {
        pc: EarlyPc::World,
        sub: None,
        it: 0,
        paused: false,
        acc: 0.0,
    };
    for (driver, run) in on_both_drivers(&cfg(3), opts, make) {
        // The checkpoint may land before or after rank 0 finishes; either
        // way every captured cut must verify and the survivors complete.
        for ckpt in &run.checkpoints {
            ckpt.verify().expect("cut must satisfy the oracle");
        }
        assert_eq!(run.checkpoints.len(), 1, "{driver}");
        assert_eq!(run.ranks[1].result, run.ranks[2].result, "{driver}");
    }
}

/// The members of [`CommCreate`]'s communicator in group order: not
/// contiguous, not sorted, and without ranks 1 and 4.
const CREATED: [usize; 3] = [3, 0, 2];

const CREATE_ITERS: usize = 30;

/// `MPI_Comm_create` of [`CREATED`] from the world, then rounds of
/// compute; on the new communicator an allreduce and a broadcast from its
/// group rank 1 (world rank 0, which a rebuild in sorted order would get
/// wrong); and a world allreduce every rank joins.
struct CommCreate {
    pc: u8,
    comm: Option<VComm>,
    it: usize,
    acc: f64,
}

impl CommCreate {
    const CREATE: u8 = 0;
    const COMPUTE: u8 = 1;
    const SUB: u8 = 2;
    const BCAST: u8 = 3;
    const WORLD: u8 = 4;

    fn new() -> CommCreate {
        CommCreate {
            pc: Self::CREATE,
            comm: None,
            it: 0,
            acc: 0.0,
        }
    }
}

impl StepBody for CommCreate {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let (world, me) = (r.world_vcomm(), r.rank());
        loop {
            match self.pc {
                Self::CREATE => {
                    self.comm = ready!(r.poll_comm_create(world, &CREATED));
                    assert_eq!(self.comm.is_some(), CREATED.contains(&me));
                    self.pc = Self::COMPUTE;
                }
                Self::COMPUTE if self.it == CREATE_ITERS => return BodyStep::Done(self.acc),
                Self::COMPUTE => {
                    r.compute(2e-6 * (me + 1) as f64);
                    self.pc = match self.comm {
                        Some(_) => Self::SUB,
                        None => Self::WORLD,
                    };
                }
                Self::SUB => {
                    let comm = self.comm.expect("a member");
                    let mine = [self.acc + me as f64];
                    self.acc = ready!(r.poll_allreduce_f64(comm, &mine, ReduceOp::Sum))[0];
                    self.pc = Self::BCAST;
                }
                Self::BCAST => {
                    let comm = self.comm.expect("a member");
                    let root = encode_f64(&[self.acc * 0.5 + me as f64]);
                    let got = ready!(r.poll_bcast(comm, 1, &root));
                    self.acc += decode_f64(&got)[0] * 1e-3;
                    self.pc = Self::WORLD;
                }
                _ => {
                    let mine = [self.acc];
                    let max = ready!(r.poll_allreduce_f64(world, &mine, ReduceOp::Max))[0];
                    self.acc = 0.5 * max + me as f64;
                    (self.pc, self.it) = (Self::COMPUTE, self.it + 1);
                }
            }
        }
    }

    fn save(&self, w: &mut dyn Wr) -> bool {
        w.u8(self.pc);
        w.var(self.comm.map_or(0, |v| v.0 + 1));
        w.usize(self.it);
        w.f64(self.acc);
        true
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        self.pc = d.u8("pc")?;
        self.comm = d.var("communicator")?.checked_sub(1).map(VComm);
        self.it = d.usize("iteration")?;
        self.acc = d.f64("accumulator")?;
        Ok(())
    }
}

/// A communicator `MPI_Comm_create` built across a checkpoint: the
/// restart rebuilds it from its member list in group order
/// (`RankCore::install`), and Restart, Continue and a restore of the
/// image elsewhere all end bit-identical to the native run.
#[test]
fn comm_create_survives_a_restart() {
    let n = 5;
    let native = run_ckpt_world_steps(cfg(n), CkptOptions::native(), |_| CommCreate::new());
    let reference = results(&native);
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    for mode in [ResumeMode::Restart, ResumeMode::Continue] {
        let opts = || CkptOptions::one_checkpoint(at, mode);
        for (driver, run) in on_both_drivers(&cfg(n), opts, |_| CommCreate::new()) {
            let case = format!("{mode:?}, {driver}");
            assert!(run.failures.is_empty(), "{case}: {:?}", run.failures);
            assert_eq!(run.checkpoints.len(), 1, "{case}: must fire");
            let ckpt = &run.checkpoints[0];
            ckpt.verify().expect("cut must satisfy the oracle");
            for cap in &ckpt.captures {
                let created = (cap.comm_log.iter())
                    .find(|c| matches!(c.op, CommOp::Create { .. }))
                    .unwrap_or_else(|| panic!("{case}: rank {} logged no create", cap.rank));
                assert_eq!(created.result.is_some(), CREATED.contains(&cap.rank));
            }
            assert_eq!(results(&run), reference, "{case}");
            if driver == "pool" {
                let rcfg = RestoreConfig::same_packing();
                let restored = restore_ckpt_world_steps(ckpt, rcfg, |_| CommCreate::new());
                assert_eq!(results(&restored), reference, "{case}: restored elsewhere");
            }
        }
    }
}
