//! The step-function world runner: rank bodies as heap-allocated
//! resumable step objects instead of one OS thread each.
//!
//! This is the scale counterpart of [`crate::run_ckpt_world`]: the
//! application body implements
//! [`StepBody`] — a hand-lowered state machine over a [`StepRank`] — and
//! every rank's whole continuation is one heap object driven by the
//! [`mpisim::StepDriver`] worker pool. No per-rank kernel thread or stack
//! exists, which is what lets a single host carry 65 536-rank worlds; the
//! thread-per-rank runner remains for closure bodies, at tier-1 sizes.
//!
//! Protocol-wise the two runners are interchangeable because they are two
//! *drivers* of one engine ([`crate::rank::step`]): the machines that run
//! a closure body's blocking calls are the machines a step body polls, so
//! images, `CallCounters`, and virtual-time trajectories are bit-identical
//! across representations — the representation-equivalence tests restore
//! images captured under one representation into the other.

use super::{
    assemble_report, supervise_policy, CkptOptions, CkptRunReport, RunError, SuperviseOut,
};
use crate::rank::step::StepRank;
use crate::session::Session;
use mana_core::RankState;
use mpisim::sched::WaitReason;
use mpisim::world::LaunchGate;
use mpisim::{
    FailPlane, KilledByFault, RankReport, RankStep, SpawnError, Step, StepDriver, WorldConfig,
    DEFAULT_RANK_STACK,
};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use parking_lot::Mutex;

/// What one resumption of a [`StepBody`] produced.
#[derive(Debug)]
pub enum BodyStep<R> {
    /// The body cannot progress (an operation returned
    /// [`crate::StepPoll::Pending`]); resume it after the indicated wait.
    Yield(WaitReason),
    /// The body ran to completion with this result.
    Done(R),
}

/// A rank body lowered to a resumable state machine: `step` runs until the
/// body either finishes or hits a pending operation, exactly the way an
/// async body lowers to a poll function. All rank-local application state
/// lives in `Self` — there is no stack to park.
pub trait StepBody: Send {
    /// The body's result type (the closure return value of the thread
    /// runner).
    type Out: Send;

    /// Advances the body as far as it can go right now.
    fn step(&mut self, r: &mut StepRank) -> BodyStep<Self::Out>;
}

/// Closures `FnMut(&mut StepRank) -> BodyStep<R>` are bodies: keep the
/// machine state captured in the closure.
impl<R, F> StepBody for F
where
    R: Send,
    F: FnMut(&mut StepRank) -> BodyStep<R> + Send,
{
    type Out = R;

    fn step(&mut self, r: &mut StepRank) -> BodyStep<R> {
        self(r)
    }
}

/// One rank's complete continuation: the step engine wrapper plus the
/// application body, adapted to the driver's [`RankStep`] interface with
/// the same panic bookkeeping as a rank thread.
struct CcStepObj<'a, B: StepBody> {
    rank: usize,
    sh: &'a Session,
    /// The session's fault plane, cached once — it lives on the scheduler
    /// and survives every lower-half generation, so the handle never goes
    /// stale across restarts.
    fail: Arc<FailPlane>,
    cc: StepRank<'a>,
    body: B,
    out: &'a Mutex<Option<RankReport<B::Out>>>,
}

impl<B: StepBody> RankStep for CcStepObj<'_, B> {
    fn step(&mut self) -> Step {
        // The step representation's single death point: a body is never
        // resumed once the world is poisoned, so no step-engine state can
        // observe a half-killed world. The rank is retired quietly — no
        // result, counted finished for supervision — mirroring what a
        // rank thread's `KilledByFault` unwind leaves behind.
        if self.fail.poisoned() {
            let ctl = &self.sh.control.ranks[self.rank];
            ctl.targets_met.store(true, SeqCst);
            ctl.set_state(RankState::Finished);
            return Step::Done;
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.body.step(&mut self.cc)
        }));
        match r {
            Ok(BodyStep::Yield(w)) => Step::Yield(w),
            Ok(BodyStep::Done(result)) => {
                let final_clock = self.cc.clock();
                self.cc.finish();
                *self.out.lock() = Some(RankReport {
                    rank: self.rank,
                    result,
                    final_clock,
                });
                Step::Done
            }
            Err(p) => {
                // Same contract as a panicking rank thread: count the dead
                // rank as finished so coordinator supervision terminates,
                // then let the driver stash the payload and re-raise it
                // once the pool drains.
                let ctl = &self.sh.control.ranks[self.rank];
                ctl.targets_met.store(true, SeqCst);
                ctl.set_state(RankState::Finished);
                std::panic::resume_unwind(p);
            }
        }
    }
}

/// [`crate::run_ckpt_world`] for step-function bodies: builds one step object
/// per rank (`make(rank)`) and drives them all on the step driver's
/// worker pool while `opts.policy` is supervised from the calling thread.
///
/// # Panics
/// Panics where [`try_run_ckpt_world_steps`] returns a typed
/// [`SpawnError`], and re-raises rank-body panics after the pool drains.
pub fn run_ckpt_world_steps<B, MK>(
    cfg: WorldConfig,
    opts: CkptOptions,
    make: MK,
) -> CkptRunReport<B::Out>
where
    B: StepBody,
    MK: Fn(usize) -> B + Send + Sync,
{
    try_run_ckpt_world_steps(cfg, opts, make).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_ckpt_world_steps`], with launch failure surfaced as a typed
/// [`SpawnError`]. Two launch-time rejections are specific to step mode:
///
/// * a non-default [`WorldConfig::stack_size`] — step ranks own no stack,
///   so a caller that asked for one is running the wrong runner;
/// * a panicking step-object constructor (the step-mode analogue of a
///   failed thread spawn — e.g. a body factory that refuses a rank).
///
/// Either way the launch is all-or-nothing through the same
/// [`LaunchGate`] as the thread runner: on `Err` no rank has run any
/// application code and no checkpoint supervision has started.
pub fn try_run_ckpt_world_steps<B, MK>(
    cfg: WorldConfig,
    opts: CkptOptions,
    make: MK,
) -> Result<CkptRunReport<B::Out>, SpawnError>
where
    B: StepBody,
    MK: Fn(usize) -> B + Send + Sync,
{
    assert!(
        opts.protocol.supports_checkpoint() || opts.policy.exhausted(),
        "protocol {} cannot checkpoint",
        opts.protocol.name()
    );
    let sh = Session::new(cfg.clone(), opts.protocol);
    let sup = Arc::clone(&sh);
    run_session_steps(sh, cfg.stack_size, make, move || {
        supervise_policy(&sup, opts)
    })
    .map_err(|e| match e {
        RunError::Spawn(s) => s,
        RunError::Died(d) => panic!("rank death without availability supervision: {d}"),
    })
}

/// The step-mode counterpart of `run_session_threads`: build every step
/// object behind an all-or-nothing launch gate, drive them to completion
/// on the step driver, run `supervise` on the calling thread, and
/// assemble the report.
pub(crate) fn run_session_steps<B, MK>(
    sh: Arc<Session>,
    stack_size: usize,
    make: MK,
    supervise: impl FnOnce() -> SuperviseOut,
) -> Result<CkptRunReport<B::Out>, RunError>
where
    B: StepBody,
    MK: Fn(usize) -> B + Send + Sync,
{
    let n = sh.cfg.n_ranks;
    if stack_size != DEFAULT_RANK_STACK {
        // Satisfying the request would be lying about memory: the whole
        // point of the step representation is that no per-rank stack
        // exists. Reject it the way a failed spawn is rejected.
        return Err(RunError::Spawn(SpawnError {
            rank: 0,
            n_ranks: n,
            stack_size,
            reason: "step-function ranks own no per-rank stack; `with_stack_size` applies to \
                     the legacy closure shim only"
                .to_string(),
        }));
    }

    // The driver shares the wait-path stats so its rescue-sweep expiries
    // land in the report's zero-backstop assertion surface, and its waker
    // registry hangs off the scheduler so restart-generation worlds wire
    // their mailboxes automatically.
    let sched = Arc::clone(sh.current_world().scheduler());
    let driver = StepDriver::new(n, Arc::clone(sched.stats()));
    {
        let d = Arc::clone(&driver);
        sched.install_rank_waker(Arc::new(move |rank| d.wake(rank)));
    }
    sh.current_world().install_rank_wakers();
    for rank in 0..n {
        sh.control.ranks[rank].set_waker(driver.waker(rank));
    }

    // Build phase, all-or-nothing: every rank's continuation is fully
    // allocated before any rank runs. The per-rank resident-memory column
    // comes from this bracket.
    let outs: Vec<Mutex<Option<RankReport<B::Out>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let gate = Arc::new(LaunchGate::new());
    let rss_before = resident_bytes();
    let mut objs: Vec<Box<dyn RankStep + '_>> = Vec::with_capacity(n);
    let mut spawn_err = None;
    for (rank, out) in outs.iter().enumerate() {
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cc = StepRank::new(&sh, rank);
            let body = make(rank);
            CcStepObj {
                rank,
                sh: &sh,
                fail: Arc::clone(sh.current_world().fail_plane()),
                cc,
                body,
                out,
            }
        }));
        match built {
            Ok(o) => objs.push(Box::new(o)),
            Err(_) => {
                spawn_err = Some(SpawnError {
                    rank,
                    n_ranks: n,
                    stack_size,
                    reason: "step-object construction panicked; launch aborted with no rank run"
                        .to_string(),
                });
                break;
            }
        }
    }
    let rank_build_rss_bytes = match (rss_before, resident_bytes()) {
        (Some(b), Some(a)) if n > 0 => Some(a.saturating_sub(b) / n as u64),
        _ => None,
    };

    let mut sup_out = SuperviseOut::default();
    let workers = sh.cfg.resolved_workers();
    std::thread::scope(|s| {
        let driver = &driver;
        let gate_rx = Arc::clone(&gate);
        s.spawn(move || {
            if !gate_rx.wait() {
                return; // aborted launch: the objects drop unstepped
            }
            // The driver re-raises the first rank-body panic once the
            // pool drains; a quiet `KilledByFault` unwind is the expected
            // end of a killed world, not a bug.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                driver.run(workers, objs);
            }));
            if let Err(p) = r {
                if !p.is::<KilledByFault>() {
                    std::panic::resume_unwind(p);
                }
            }
        });
        gate.decide(spawn_err.is_none());
        if spawn_err.is_none() {
            sup_out = supervise();
        }
    });
    if let Some(e) = spawn_err {
        return Err(RunError::Spawn(e));
    }

    let reports = outs.into_iter().map(|m| m.into_inner()).collect();
    assemble_report(&sh, reports, sup_out, rank_build_rss_bytes)
}

/// Resident-set size of this process, if the platform exposes it.
#[cfg(target_os = "linux")]
fn resident_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

#[cfg(not(target_os = "linux"))]
fn resident_bytes() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests_support {
    use super::*;
    use crate::rank::step::StepPoll;
    use mpisim::ReduceOp;

    /// `iters` rounds of compute + world allreduce, as an explicit state
    /// machine: the smoke-test body for the step runner.
    pub(crate) struct SumBody {
        iters: usize,
        it: usize,
        in_allreduce: bool,
        acc: f64,
    }

    impl SumBody {
        pub(crate) fn new(iters: usize) -> SumBody {
            SumBody {
                iters,
                it: 0,
                in_allreduce: false,
                acc: 0.0,
            }
        }
    }

    impl StepBody for SumBody {
        type Out = f64;

        fn step(&mut self, r: &mut StepRank) -> BodyStep<f64> {
            // Wall pacing so the wall-clock trigger supervisor can catch
            // the world mid-flight (virtual time is unaffected).
            r.set_wall_pace_us(200);
            let w = r.world_vcomm();
            while self.it < self.iters {
                if !self.in_allreduce {
                    r.compute(1e-6);
                    self.in_allreduce = true;
                }
                match r.poll_allreduce_f64(w, &[r.rank() as f64 + self.acc], ReduceOp::Sum) {
                    StepPoll::Pending(why) => return BodyStep::Yield(why),
                    StepPoll::Ready(v) => {
                        self.acc = v[0] * 1e-3;
                        self.in_allreduce = false;
                        self.it += 1;
                    }
                }
            }
            BodyStep::Done(self.acc)
        }
    }

    pub(crate) fn closure_body(iters: usize) -> impl Fn(&mut crate::CcRank) -> f64 + Send + Sync {
        move |r| {
            r.set_wall_pace_us(200);
            let w = r.world_vcomm();
            let mut acc = 0.0;
            for _ in 0..iters {
                r.compute(1e-6);
                let v = r.allreduce_f64(w, &[r.rank() as f64 + acc], ReduceOp::Sum);
                acc = v[0] * 1e-3;
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::*;
    use super::*;
    use crate::coordinator::ResumeMode;
    use crate::policy::VirtualTimeSchedule;
    use mpisim::VTime;

    #[test]
    fn step_runner_matches_thread_runner_plain() {
        let t = crate::run_ckpt_world(
            WorldConfig::single_node(8),
            CkptOptions::native(),
            closure_body(6),
        );
        let s = run_ckpt_world_steps(
            WorldConfig::single_node(8),
            CkptOptions::native(),
            |_rank| SumBody::new(6),
        );
        assert_eq!(
            t.results().copied().collect::<Vec<_>>(),
            s.results().copied().collect::<Vec<_>>()
        );
        assert_eq!(
            t.makespan, s.makespan,
            "virtual time must not see the representation"
        );
        assert!(s.rank_build_rss_bytes.is_some(), "linux rss column");
    }

    #[test]
    fn step_runner_checkpoint_continue_matches_thread_runner() {
        let opts = || {
            CkptOptions::default()
                .with_policy(VirtualTimeSchedule::once(VTime::from_micros(3.0)))
                .with_resume(ResumeMode::Continue)
        };
        let t = crate::run_ckpt_world(WorldConfig::single_node(8), opts(), closure_body(6));
        let s = run_ckpt_world_steps(WorldConfig::single_node(8), opts(), |_r| SumBody::new(6));
        assert_eq!(t.checkpoints.len(), 1);
        assert_eq!(s.checkpoints.len(), 1, "step run must capture too");
        assert_eq!(
            t.results().copied().collect::<Vec<_>>(),
            s.results().copied().collect::<Vec<_>>()
        );
        assert_eq!(t.makespan, s.makespan);
        assert_eq!(s.backstop_expiries, 0, "step waits must be event-driven");
    }

    #[test]
    fn step_runner_rejects_stack_size() {
        let cfg = WorldConfig::single_node(4).with_stack_size(1 << 20);
        let err = try_run_ckpt_world_steps(cfg, CkptOptions::native(), |_r| SumBody::new(1))
            .expect_err("non-default stack size must be rejected");
        assert!(err.reason.contains("closure shim"), "typed reason: {err}");
    }

    #[test]
    fn step_runner_ctor_panic_aborts_all_or_nothing() {
        let err =
            try_run_ckpt_world_steps(WorldConfig::single_node(4), CkptOptions::native(), |rank| {
                assert!(rank != 2, "rank 2 refuses to build");
                SumBody::new(1)
            })
            .expect_err("constructor panic must abort the launch");
        assert_eq!(err.rank, 2);
        assert!(err.reason.contains("construction panicked"), "{err}");
    }
}

#[cfg(test)]
mod restart_tests {
    use super::tests_support::*;
    use super::*;
    use crate::coordinator::ResumeMode;
    use crate::policy::VirtualTimeSchedule;
    use mana_core::Protocol;
    use mpisim::VTime;

    fn opts(protocol: Protocol) -> CkptOptions {
        CkptOptions::default()
            .with_protocol(protocol)
            .with_policy(VirtualTimeSchedule::once(VTime::from_micros(3.0)))
            .with_resume(ResumeMode::Restart)
    }

    #[test]
    fn step_runner_restart_matches_thread_runner_cc() {
        let t = crate::run_ckpt_world(
            WorldConfig::single_node(8),
            opts(Protocol::Cc),
            closure_body(6),
        );
        let s = run_ckpt_world_steps(WorldConfig::single_node(8), opts(Protocol::Cc), |_r| {
            SumBody::new(6)
        });
        assert_eq!(t.checkpoints.len(), 1);
        assert_eq!(s.checkpoints.len(), 1);
        assert_eq!(
            t.results().copied().collect::<Vec<_>>(),
            s.results().copied().collect::<Vec<_>>()
        );
        // No makespan assertion: restart rebuilds the lower half, so the
        // modeled timing depends on where the wall-clock-racy trigger
        // landed — two *thread* runs differ the same way. Cut-for-cut
        // timing equivalence is covered by the restore-replay tests,
        // which pin the cut via the image.
        assert_eq!(s.backstop_expiries, 0);
    }

    #[test]
    fn step_runner_restart_matches_thread_runner_2pc() {
        let t = crate::run_ckpt_world(
            WorldConfig::single_node(8),
            opts(Protocol::TwoPhase),
            closure_body(6),
        );
        let s = run_ckpt_world_steps(
            WorldConfig::single_node(8),
            opts(Protocol::TwoPhase),
            |_r| SumBody::new(6),
        );
        assert_eq!(t.checkpoints.len(), 1);
        assert_eq!(s.checkpoints.len(), 1);
        assert_eq!(
            t.results().copied().collect::<Vec<_>>(),
            s.results().copied().collect::<Vec<_>>()
        );
        // No makespan assertion, as in the CC restart test above (2PC
        // additionally re-posts and re-charges a trivial barrier the cut
        // landed inside of).
        assert_eq!(s.backstop_expiries, 0);
    }
}
