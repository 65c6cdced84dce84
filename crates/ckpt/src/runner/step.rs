//! The rank continuation and the one launcher.
//!
//! A rank body is a [`StepBody`]: a resumable state machine over a
//! [`CcRank`]. A closure body `Fn(&mut CcRank) -> R` is the degenerate
//! case — a step body that never yields, because its blocking calls sleep
//! on the thread it owns, [`CcRank::run`] among them: the blocking call
//! that runs a whole step body there. Either way the rank's whole
//! continuation is one
//! `CcStepObj` (rank + body + report slot), and `run_session` is the one
//! place such objects are built and stepped — on the
//! [`mpisim::StepDriver`] worker pool (no per-rank thread or stack: the
//! 65 536-rank representation) or one thread each
//! ([`mpisim::Scheduler::run_threads`]: closure bodies, tier-1 sizes),
//! as fixed by the public entry point that was called.
//!
//! The drivers are interchangeable because neither holds protocol logic:
//! the machines of [`crate::rank::step`] that a closure body's blocking
//! calls run are the machines a step body polls, so images,
//! `CallCounters`, and virtual-time trajectories are bit-identical (the
//! unit tests below run one body object under both).

use super::{assemble_report, CkptRunReport, RunError, SuperviseOut};
use crate::rank::CcRank;
use crate::session::Session;
use mana_core::RankState;
use mpisim::sched::WaitReason;
use mpisim::{FailPlane, RankReport, RankStep, SpawnError, Step, StepDriver};
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
    /// The body's result type (the return value of a closure body).
    type Out: Send;

    /// Advances the body as far as it can go right now.
    fn step(&mut self, r: &mut CcRank) -> BodyStep<Self::Out>;
}

/// Closures `FnMut(&mut CcRank) -> BodyStep<R>` are bodies: keep the
/// machine state captured in the closure.
impl<R, F> StepBody for F
where
    R: Send,
    F: FnMut(&mut CcRank) -> BodyStep<R> + Send,
{
    type Out = R;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<R> {
        self(r)
    }
}

/// A closure body `Fn(&mut CcRank) -> R` as a step body: one `step` that
/// runs the closure to its end, never yielding — so it belongs on
/// [`Driver::Threads`], where the closure entry points put it (on the
/// pool its first blocking call that had to wait would panic).
pub(crate) struct Blocking<'f, F>(pub(crate) &'f F);

impl<R, F> StepBody for Blocking<'_, F>
where
    R: Send,
    F: Fn(&mut CcRank) -> R + Sync,
{
    type Out = R;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<R> {
        BodyStep::Done((self.0)(r))
    }
}

/// Who steps a session's rank objects. Chosen by the public entry point
/// (`*_steps` → the pool, closure bodies → threads), never by an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Driver {
    /// The [`StepDriver`] worker pool: a yield returns to the driver.
    Pool,
    /// One thread per object: the body is run to completion on it
    /// ([`CcRank::run`]), a yield sleeping on the thread.
    Threads,
}

/// One rank's complete continuation — the rank, the application body and
/// the slot its report lands in — as the drivers' [`RankStep`].
struct CcStepObj<'a, B: StepBody> {
    rank: usize,
    sh: &'a Session,
    /// The session's fault plane, cached once — it lives on the scheduler
    /// and survives every lower-half generation, so the handle never goes
    /// stale across restarts.
    fail: Arc<FailPlane>,
    driver: Driver,
    cc: CcRank<'a>,
    body: B,
    out: &'a Mutex<Option<RankReport<B::Out>>>,
}

impl<B: StepBody> CcStepObj<'_, B> {
    /// Counts the rank as finished so coordinator supervision terminates:
    /// what a rank that will never publish a result leaves behind.
    fn retire(&self) {
        let ctl = &self.sh.control.ranks[self.rank];
        ctl.targets_met.store(true, SeqCst);
        ctl.set_state(RankState::Finished);
    }
}

impl<B: StepBody> RankStep for CcStepObj<'_, B> {
    fn step(&mut self) -> Step {
        // A body is never resumed once the world is poisoned, so no engine
        // state can observe a half-killed world: the rank is retired
        // quietly, without a result. (A body asleep on its own thread
        // unwinds out of `CcRank::block_on` to the same effect.)
        if self.fail.poisoned() {
            self.retire();
            return Step::Done;
        }
        let (cc, body) = (&mut self.cc, &mut self.body);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match self.driver {
            Driver::Pool => body.step(cc),
            // The thread *is* the continuation: a yield sleeps on it, the
            // way the body's own blocking calls do.
            Driver::Threads => BodyStep::Done(cc.run(body)),
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
                // A dead rank counts as finished; the driver stashes the
                // payload and re-raises it once every rank is done.
                self.retire();
                std::panic::resume_unwind(p);
            }
        }
    }
}

/// The one launcher, shared by the plain runners, restore and the
/// availability supervisor: build every rank's continuation
/// (`make(rank)` is its body) all-or-nothing, step them to completion on
/// `driver` while `supervise` (triggers, or restore driving) runs on the
/// calling thread, and assemble the report. On a launch failure — a
/// panicking constructor, or under [`Driver::Threads`] a failed thread
/// spawn — no rank has run any application code, `supervise` never runs,
/// and the typed [`SpawnError`] is returned.
pub(crate) fn run_session<B, MK>(
    sh: Arc<Session>,
    driver: Driver,
    make: MK,
    supervise: impl FnOnce() -> SuperviseOut,
) -> Result<CkptRunReport<B::Out>, RunError>
where
    B: StepBody,
    MK: Fn(usize) -> B,
{
    let n = sh.cfg.n_ranks;
    // The scheduler outlives every lower-half generation: grab it once,
    // before any restart replaces the world. The wake routing hangs off
    // it, so restart generations wire their fresh mailboxes by themselves;
    // the initial world predates the routing and is wired here.
    let sched = Arc::clone(sh.current_world().scheduler());
    let pool = (driver == Driver::Pool).then(|| {
        // The pool shares the wait-path stats so its rescue-sweep expiries
        // land in the report's zero-backstop assertion surface.
        let pool = StepDriver::new(n, Arc::clone(sched.stats()));
        for rank in 0..n {
            sh.control.ranks[rank].set_waker(pool.waker(rank));
        }
        pool
    });
    // Lower-half events (deposits, collective completions, poison)
    // requeue the rank on the pool, as control-plane wakes do through the
    // hook just set — or advance the event counter the control plane
    // wakes, which is what a rank on its own thread sleeps on.
    sched.install_rank_waker(match &pool {
        Some(pool) => {
            let pool = Arc::clone(pool);
            Arc::new(move |rank| pool.wake(rank))
        }
        None => {
            let control = Arc::clone(&sh.control);
            Arc::new(move |rank| control.ranks[rank].wake())
        }
    });
    sh.current_world().install_rank_wakers();

    // Build phase, all-or-nothing: every rank's continuation is fully
    // allocated before any rank runs. The per-rank resident-memory column
    // comes from this bracket.
    let outs: Vec<Mutex<Option<RankReport<B::Out>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let rss_before = resident_bytes();
    let mut objs: Vec<Box<dyn RankStep + '_>> = Vec::with_capacity(n);
    for (rank, out) in outs.iter().enumerate() {
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| CcStepObj {
            rank,
            sh: &sh,
            fail: Arc::clone(sched.fail_plane()),
            driver,
            cc: CcRank::new(&sh, rank),
            body: make(rank),
            out,
        }));
        match built {
            Ok(o) => objs.push(Box::new(o)),
            Err(_) => {
                return Err(RunError::Spawn(SpawnError {
                    rank,
                    n_ranks: n,
                    reason: "step-object construction panicked; launch aborted with no rank run"
                        .to_string(),
                }))
            }
        }
    }
    // A rank on its own thread costs a whole stack, accounted by the
    // kernel, not the heap: the column is the pool's.
    let rank_build_rss_bytes = match (pool.is_some(), rss_before, resident_bytes()) {
        (true, Some(b), Some(a)) => Some(a.saturating_sub(b) / n as u64),
        _ => None,
    };

    // Either driver re-raises the first rank-body panic once every rank is
    // done, and swallows the quiet unwind of a killed world.
    let sup_out = match &pool {
        Some(pool) => {
            let workers = sh.cfg.resolved_workers();
            std::thread::scope(|s| {
                let ranks = s.spawn(|| pool.run(workers, objs));
                let sup_out = supervise();
                if let Err(p) = ranks.join() {
                    std::panic::resume_unwind(p);
                }
                sup_out
            })
        }
        None => sched
            .run_threads(objs, supervise)
            .map_err(RunError::Spawn)?,
    };

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
    use crate::StepPoll;
    use mpisim::ReduceOp;

    /// `iters` rounds of compute + world allreduce, as an explicit state
    /// machine: the smoke-test body for the launcher.
    pub(crate) struct SumBody {
        iters: usize,
        it: usize,
        in_allreduce: bool,
        acc: f64,
        hold: Option<usize>,
    }

    /// Virtual time no unheld [`SumBody`] run reaches: the trigger time of
    /// a checkpoint pinned by [`SumBody::with_hold`].
    pub(crate) const HOLD_AT_S: f64 = 500e-6;

    impl SumBody {
        pub(crate) fn new(iters: usize) -> SumBody {
            SumBody {
                iters,
                it: 0,
                in_allreduce: false,
                acc: 0.0,
                hold: None,
            }
        }

        /// Pins where a checkpoint triggered at [`HOLD_AT_S`] cuts, which
        /// two live runs otherwise never agree on (the trigger is polled
        /// on the wall clock). Iteration `h` jumps every rank's clock past
        /// the trigger time, so the trigger turns true only once the last
        /// rank is about to enter that iteration's allreduce; iteration
        /// `h + 1` then sleeps long enough on the wall for the supervisor
        /// to request the checkpoint before any rank reaches the next
        /// collective — where every rank therefore parks.
        pub(crate) fn with_hold(mut self, h: usize) -> SumBody {
            self.hold = Some(h);
            self
        }
    }

    impl StepBody for SumBody {
        type Out = f64;

        fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
            let w = r.world_vcomm();
            while self.it < self.iters {
                if !self.in_allreduce {
                    // Wall pacing so the wall-clock trigger supervisor can
                    // catch the world mid-flight (virtual time is
                    // unaffected).
                    let (secs, pace_us) = match self.hold {
                        Some(h) if self.it == h => (2.0 * HOLD_AT_S, 200),
                        Some(h) if self.it == h + 1 => (1e-6, 50_000),
                        _ => (1e-6, 200),
                    };
                    r.set_wall_pace_us(pace_us);
                    r.compute(secs);
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
    use crate::runner::supervise_policy;
    use crate::{run_ckpt_world_steps, try_run_ckpt_world_steps, CkptOptions};
    use mana_core::Protocol;
    use mpisim::{NetParams, VTime, WorldConfig};

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

    /// The two drivers agree: the *same* body type runs under both, with
    /// one mid-run checkpoint restarting in-process — its cut pinned by
    /// the body's hold, so the captured images can be compared whole,
    /// which two live runs of a public entry point never allow.
    #[test]
    fn same_body_object_under_both_drivers() {
        for protocol in [Protocol::Cc, Protocol::TwoPhase] {
            let run = |driver| {
                let cfg = WorldConfig::single_node(8)
                    .with_params(NetParams::slingshot11().without_jitter());
                let at = VTime::from_secs(HOLD_AT_S);
                let opts =
                    CkptOptions::one_checkpoint(at, ResumeMode::Restart).with_protocol(protocol);
                let sh = Session::new(cfg, protocol);
                let sup = Arc::clone(&sh);
                run_session(
                    sh,
                    driver,
                    |_| SumBody::new(8).with_hold(3),
                    move || supervise_policy(&sup, opts),
                )
                .expect("launch")
            };
            let mut pool = run(Driver::Pool);
            let mut threads = run(Driver::Threads);
            for r in [&mut pool, &mut threads] {
                assert_eq!(r.checkpoints.len(), 1, "{protocol:?}: one mid-run capture");
                assert_eq!(r.backstop_expiries, 0, "{protocol:?}: event-driven waits");
                // The one field of an image that records *when* the
                // request landed rather than the cut: the slowest clock
                // published at that instant, and the held ranks publish
                // their post-allreduce clocks in wall order.
                r.checkpoints[0].request_clock = VTime::ZERO;
            }
            let results = |r: &CkptRunReport<f64>| r.results().copied().collect::<Vec<_>>();
            assert_eq!(results(&pool), results(&threads), "{protocol:?}");
            assert_eq!(pool.makespan, threads.makespan, "{protocol:?}");
            assert_eq!(pool.final_counters, threads.final_counters, "{protocol:?}");
            assert!(
                pool.checkpoints == threads.checkpoints,
                "{protocol:?}: the drivers captured different images"
            );
            assert!(pool.rank_build_rss_bytes.is_some() && threads.rank_build_rss_bytes.is_none());
        }
    }

    /// A blocking call in a pool-stepped body would park a pool *worker*
    /// on an event counter no lower-half event advances — a 1 s backstop
    /// per wait, and a deadlock once every worker did it. With one worker
    /// rank 0's barrier cannot complete before rank 1 has run at all, so
    /// it is pending for certain.
    #[test]
    #[should_panic(expected = "blocking call on a pool-driven rank")]
    fn blocking_call_on_a_pool_driven_rank_fails_loudly() {
        run_ckpt_world_steps(
            WorldConfig::single_node(2).with_workers(1),
            CkptOptions::native(),
            |_| {
                |r: &mut CcRank| {
                    r.barrier(r.world_vcomm());
                    BodyStep::Done(())
                }
            },
        );
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
    use crate::coordinator::ResumeMode;
    use crate::policy::VirtualTimeSchedule;
    use crate::{run_ckpt_world_steps, CkptOptions};
    use mana_core::Protocol;
    use mpisim::{VTime, WorldConfig};

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
