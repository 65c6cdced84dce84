//! The rank continuation and the one launcher.
//!
//! A rank body is a [`StepBody`]: a resumable state machine over a
//! [`CcRank`]. A closure body `Fn(&mut CcRank) -> R` is the degenerate
//! case — a step body that never yields, because it waits only inside
//! [`CcRank::run`], which runs a whole step body on the thread the
//! closure owns, sleeping there. Either way the rank's whole
//! continuation is one
//! `CcStepObj` (rank + body + report slot), and `run_session` is the one
//! place such objects are built and stepped, once per attempt of the one
//! run loop (`crate::avail::run_campaign`, which every plain run, restore
//! and fault campaign is) — on the
//! [`mpisim::StepDriver`] worker pool (no per-rank thread or stack: the
//! 65 536-rank representation; every restore and fault campaign) or one
//! thread each ([`mpisim::Scheduler::run_threads`]: the closure form of a
//! plain run, [`crate::run_ckpt_world`]), as fixed by the public entry
//! point that was called.
//!
//! The drivers are interchangeable because neither holds protocol logic:
//! a body polls the machines of [`crate::rank::step`] whichever steps it,
//! so images, `CallCounters`, and virtual-time trajectories are
//! bit-identical (the unit tests below run one body object under both).

use super::{assemble_report, CkptRunReport, RunError, SuperviseOut};
use crate::rank::{snapshot, CcRank};
use crate::restore::Restore;
use crate::session::Session;
use crate::wire::{Dec, DecodeError, Wr};
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
/// lives in `Self` — there is no stack to park — so a body that writes it
/// out ([`StepBody::save`]) has its whole upper half in the checkpoint
/// image, and restores elsewhere from the image alone.
pub trait StepBody: Send {
    /// The body's result type (the return value of a closure body).
    type Out: Send;

    /// Advances the body as far as it can go right now.
    fn step(&mut self, r: &mut CcRank) -> BodyStep<Self::Out>;

    /// Writes the body's mutable state — what `make(rank)` does not
    /// rebuild — into a checkpoint image, and says whether there is one.
    /// Called only on the yield that parks the rank for a capture, and
    /// once when the body finishes, never on the steady path. The default,
    /// which closures keep, has none: such an image restarts in-process
    /// only, and a restore elsewhere refuses it
    /// ([`crate::RestoreError::NoUpperHalf`]).
    ///
    /// A body that saves must also, once done, return the same result from
    /// a further `step` without any MPI call: a rank captured finished is
    /// restored as its finished body.
    fn save(&self, _w: &mut dyn Wr) -> bool {
        false
    }

    /// Loads a state written by [`StepBody::save`] into a body that
    /// `make(rank)` just built for the same rank. An error names what does
    /// not fit — a different program, or bytes this body never wrote —
    /// and refuses the restore before any rank runs.
    fn load(&mut self, _d: &mut Dec<'_>) -> Result<(), DecodeError> {
        Err("body has no snapshot")
    }
}

/// Closures `FnMut(&mut CcRank) -> BodyStep<R>` are bodies: keep the
/// machine state captured in the closure. They have no snapshot.
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
/// [`Driver::Threads`], where the closure entry point puts it (on the
/// pool its first `CcRank::run` that had to wait would panic).
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
/// (`*_steps` → the pool, [`crate::run_ckpt_world`] → threads), never by
/// an option.
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
        // A death is a value: the injector wakes every rank
        // (`RankCtl::wake`), and a body is never resumed once the world is
        // poisoned, so no engine state can observe a half-killed world —
        // the rank is retired quietly, without a result, and the launcher
        // reads the death off the plane. Only pool-driven worlds die: a
        // rank on its own thread runs its whole body in one step.
        if self.fail.poisoned() {
            self.retire();
            return Step::Done;
        }
        let (cc, body, control) = (&mut self.cc, &mut self.body, &self.sh.control);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match self.driver {
            // A yield to wait for an event is the pool's sleep: announced
            // on the token taken before the step, as `CcRank::block_on`
            // announces a thread's.
            Driver::Pool => {
                let token = control.ranks[self.rank].park.token();
                let out = cc.step_body(body);
                if let BodyStep::Yield(WaitReason::Event) = out {
                    control.publish_asleep(self.rank, token, false);
                }
                out
            }
            // The thread *is* the continuation: a yield sleeps on it, as
            // inside a closure's own `CcRank::run`.
            Driver::Threads => BodyStep::Done(cc.run_own(body)),
        }));
        match r {
            Ok(BodyStep::Yield(w)) => Step::Yield(w),
            Ok(BodyStep::Done(result)) => {
                let final_clock = self.cc.clock();
                self.cc.finish(snapshot(&self.body));
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

/// The one launcher, called once per attempt by the run loop
/// (`crate::avail::run_campaign`): build every rank's continuation
/// (`make(rank)` is its body; from `restore`'s image, the body and the
/// rank are loaded from their capture) all-or-nothing, step them to
/// completion on `driver` while `supervise` (the triggers) runs on the
/// calling thread, and assemble the report — or, when an injected death
/// ended the attempt, hand back the death with what `supervise`
/// committed. On a launch failure — a panicking constructor, a body that
/// refuses its snapshot, or under [`Driver::Threads`] a failed thread
/// spawn — no rank has run any application code, `supervise` never runs,
/// and the typed error is returned.
pub(crate) fn run_session<B, MK>(
    sh: Arc<Session>,
    driver: Driver,
    make: MK,
    restore: Option<&Restore>,
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
    // Lower-half events (deposits, collective completions, poison) wake
    // the rank the way control-plane events do: counted on its event
    // counter, which a rank on its own thread sleeps on and the stall
    // rule reads, then passed to the pool through the hook just set.
    let control = Arc::clone(&sh.control);
    sched.install_rank_waker(Arc::new(move |rank| control.ranks[rank].wake()));
    sh.current_world().install_rank_wakers();

    // Build phase, all-or-nothing: every rank's continuation is fully
    // allocated before any rank runs. The per-rank resident-memory column
    // comes from this bracket.
    let outs: Vec<Mutex<Option<RankReport<B::Out>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let rss_before = resident_bytes();
    let mut objs: Vec<Box<dyn RankStep + '_>> = Vec::with_capacity(n);
    for (rank, out) in outs.iter().enumerate() {
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut cc, mut body) = (CcRank::new(&sh, rank), make(rank));
            if let Some(r) = restore {
                r.install(rank, &mut cc, &mut body)?;
            }
            Ok(CcStepObj {
                rank,
                sh: &sh,
                fail: Arc::clone(sched.fail_plane()),
                driver,
                cc,
                body,
                out,
            })
        }));
        match built {
            Ok(Ok(o)) => objs.push(Box::new(o)),
            Ok(Err(e)) => return Err(RunError::Refused(e)),
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
    // done.
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
pub(crate) mod tests_support {
    use super::*;
    use crate::StepPoll;
    use bytes::Bytes;
    use mana_core::VReq;
    use mpisim::ReduceOp;

    /// `iters` rounds of compute + world allreduce, as an explicit state
    /// machine: the smoke-test body for the launcher.
    pub(crate) struct SumBody {
        iters: usize,
        it: usize,
        in_allreduce: bool,
        acc: f64,
        hold: Option<usize>,
        /// The hold's receives still pending, once posted.
        held: Option<Vec<VReq>>,
    }

    /// Virtual time no unheld [`SumBody`] run reaches: the trigger time of
    /// a checkpoint pinned by [`SumBody::with_hold`].
    pub(crate) const HOLD_AT_S: f64 = 500e-6;

    /// Tag of the hold's messages.
    const HOLD_TAG: u32 = 7;

    impl SumBody {
        pub(crate) fn new(iters: usize) -> SumBody {
            SumBody {
                iters,
                it: 0,
                in_allreduce: false,
                acc: 0.0,
                hold: None,
                held: None,
            }
        }

        /// Pins where a checkpoint triggered at [`HOLD_AT_S`] cuts, which
        /// two live runs otherwise need not agree on: how far the other
        /// ranks got when the last one raised the request depends on the
        /// host schedule. Iteration `h` jumps every rank's clock past the
        /// trigger time and orders the jumps: every other rank tells the
        /// last rank, jumps and enters the allreduce in the same step;
        /// the last rank jumps — raising the request — only once told by
        /// all (messages sent below the trigger time, so receiving them
        /// does not carry it past), after a wall pause that lets the
        /// others' steps (on a thread each) reach their allreduce. So the
        /// others are inside it at the raise and the last rank stops at
        /// its entry.
        pub(crate) fn with_hold(mut self, h: usize) -> SumBody {
            self.hold = Some(h);
            self
        }

        /// Iteration `h`'s ordered jump (see [`SumBody::with_hold`]).
        fn hold(&mut self, r: &mut CcRank) -> StepPoll<()> {
            let (w, last) = (r.world_vcomm(), r.size() - 1);
            if r.rank() != last {
                let v = r.isend(w, last, HOLD_TAG, Bytes::new());
                assert!(r.poll_wait(v).is_ready(), "an eager send completes at once");
                r.compute(2.0 * HOLD_AT_S);
                return StepPoll::Ready(());
            }
            let held = (self.held)
                .get_or_insert_with(|| (0..last).map(|o| r.irecv(w, o, HOLD_TAG)).collect());
            while let Some(&v) = held.last() {
                match r.poll_wait(v) {
                    StepPoll::Pending(why) => return StepPoll::Pending(why),
                    StepPoll::Ready(_) => held.pop(),
                };
            }
            self.held = None;
            std::thread::sleep(std::time::Duration::from_millis(20));
            r.compute(2.0 * HOLD_AT_S);
            StepPoll::Ready(())
        }
    }

    impl StepBody for SumBody {
        type Out = f64;

        fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
            let w = r.world_vcomm();
            while self.it < self.iters {
                if !self.in_allreduce {
                    if self.hold == Some(self.it) {
                        if let StepPoll::Pending(why) = self.hold(r) {
                            return BodyStep::Yield(why);
                        }
                    } else {
                        r.compute(1e-6);
                    }
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

        fn save(&self, w: &mut dyn Wr) -> bool {
            w.usize(self.iters);
            w.usize(self.it);
            w.u8(u8::from(self.in_allreduce));
            w.f64(self.acc);
            let held = self.held.as_deref();
            w.usize(held.map_or(0, |h| h.len() + 1));
            for v in held.unwrap_or_default() {
                w.u64(v.0);
            }
            true
        }

        fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
            if d.usize("iters")? != self.iters {
                return Err("a different iteration count");
            }
            self.it = d.usize("iteration")?;
            self.in_allreduce = d.u8("allreduce flag")? != 0;
            self.acc = d.f64("accumulator")?;
            self.held = match d.usize("hold")? {
                0 => None,
                n => Some(
                    (1..n)
                        .map(|_| d.u64("hold request").map(VReq))
                        .collect::<Result<_, _>>()?,
                ),
            };
            Ok(())
        }
    }

    /// [`SumBody`] as a closure body: run on the calling thread.
    pub(crate) fn closure_body(iters: usize) -> impl Fn(&mut crate::CcRank) -> f64 + Send + Sync {
        move |r| r.run(&mut SumBody::new(iters))
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::*;
    use super::*;
    use crate::avail::run_campaign;
    use crate::coordinator::ResumeMode;
    use crate::policy::VirtualTimeSchedule;
    use crate::{run_ckpt_world_steps, try_run_ckpt_world_steps, CkptOptions, FaultPlan, StepPoll};
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
                let body = |_| SumBody::new(8).with_hold(3);
                run_campaign(cfg, opts, FaultPlan::none(), None, driver, body).expect("launch")
            };
            let pool = run(Driver::Pool);
            let threads = run(Driver::Threads);
            for r in [&pool, &threads] {
                assert_eq!(r.checkpoints.len(), 1, "{protocol:?}: one mid-run capture");
                assert_eq!(r.backstop_expiries, 0, "{protocol:?}: event-driven waits");
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

    /// An image restores under either driver whichever captured it: the
    /// body's snapshot and the wrapper state are driver-independent, so
    /// each image resumes on the other driver to the native results.
    #[test]
    fn images_restore_across_drivers() {
        use crate::restore::{Restore, RestoreConfig};
        use std::borrow::Cow;
        let cfg =
            || WorldConfig::single_node(8).with_params(NetParams::slingshot11().without_jitter());
        let body = |_| SumBody::new(8).with_hold(3);
        let native = run_campaign(
            cfg(),
            CkptOptions::native(),
            FaultPlan::none(),
            None,
            Driver::Pool,
            body,
        )
        .expect("launch");
        for protocol in [Protocol::Cc, Protocol::TwoPhase] {
            for (capture, resume) in [
                (Driver::Threads, Driver::Pool),
                (Driver::Pool, Driver::Threads),
            ] {
                let at = VTime::from_secs(HOLD_AT_S);
                let opts =
                    CkptOptions::one_checkpoint(at, ResumeMode::Continue).with_protocol(protocol);
                let run = run_campaign(cfg(), opts, FaultPlan::none(), None, capture, body)
                    .expect("launch");
                let image = run.checkpoints.into_iter().next().expect("one capture");
                let restore = Restore::preflight(Cow::Owned(image), RestoreConfig::same_packing())
                    .expect("pre-flight");
                let opts = CkptOptions::native().with_protocol(protocol);
                let restored =
                    run_campaign(cfg(), opts, FaultPlan::none(), Some(restore), resume, body)
                        .expect("restore");
                let results = |r: &CkptRunReport<f64>| r.results().copied().collect::<Vec<_>>();
                assert_eq!(
                    results(&restored),
                    results(&native),
                    "{protocol:?} {capture:?}"
                );
                assert_eq!(restored.backstop_expiries, 0);
            }
        }
    }

    /// `run` in a pool-stepped body would park a pool *worker* on an event
    /// counter no lower-half event advances — a 1 s backstop per wait, and
    /// a deadlock once every worker did it. With one worker rank 0's
    /// barrier cannot complete before rank 1 has run at all, so it is
    /// pending for certain.
    #[test]
    #[should_panic(expected = "blocking call on a pool-driven rank")]
    fn blocking_call_on_a_pool_driven_rank_fails_loudly() {
        run_ckpt_world_steps(
            WorldConfig::single_node(2).with_workers(1),
            CkptOptions::native(),
            |_| {
                |r: &mut CcRank| {
                    let w = r.world_vcomm();
                    r.run(&mut |r: &mut CcRank| match r.poll_barrier(w) {
                        StepPoll::Ready(()) => BodyStep::Done(()),
                        StepPoll::Pending(why) => BodyStep::Yield(why),
                    });
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
        // modeled timing depends on where the cut landed, which the host
        // schedule still moves — two *thread* runs differ the same way. Cut-for-cut
        // equivalence is covered by the held-cut tests above, which
        // compare the images whole.
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
