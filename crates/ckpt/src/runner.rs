//! The checkpointable world runner's surface: [`CkptOptions`], the plain
//! entry points and the [`CkptRunReport`] every run returns.
//!
//! A plain run is a campaign ([`crate::avail`]) with
//! [`crate::FaultPlan::none`]: one attempt of the one supervised run loop,
//! which launches the session's ranks (closure bodies one thread each,
//! step bodies on the worker pool — one launcher, `step::run_session`,
//! either way) and drives the [`TriggerPolicy`] from the calling thread.
//! The closure form, [`run_ckpt_world`], is the one entry point that puts
//! ranks on threads, and it never injects a fault.
//!
//! Capture no longer implies a resume decision: the policy only says
//! *when* to capture, [`CkptOptions::resume`] says what this in-process
//! run does afterwards (continue on the same lower half, or rebuild it),
//! and the captured [`Checkpoint`] images in the report are first-class
//! artifacts — serialize one with [`Checkpoint::to_bytes`] and, for step
//! bodies, restore it elsewhere (even onto a different node packing) with
//! [`crate::restore_ckpt_world_steps`].

use crate::avail::run_campaign;
use crate::coordinator::{Coordinator, DrainError, ResumeMode};
use crate::image::Checkpoint;
use crate::policy::{NeverTrigger, Threshold, TriggerPolicy, VirtualTimeSchedule};
use crate::rank::CcRank;
use crate::restore::RestoreError;
use crate::session::Session;
use crate::store::{StoreRecord, Tiering};
use crate::FaultPlan;
use mana_core::{CallCounters, DrainTrace, Protocol, RankState};
use mpisim::{RankDeath, RankReport, SpawnError, VTime, WorldConfig};
use std::sync::Arc;
use step::{Blocking, Driver, StepBody};

pub mod step;

/// Options for [`run_ckpt_world`].
pub struct CkptOptions {
    /// Coordination protocol for the wrapper layer.
    pub protocol: Protocol,
    /// When to capture checkpoints (see [`crate::policy`] for the built-in
    /// policies). Defaults to [`NeverTrigger`].
    pub policy: Box<dyn TriggerPolicy>,
    /// What this in-process run does after each capture. Either way the
    /// captured image lands in [`CkptRunReport::checkpoints`]; restoring
    /// elsewhere is [`crate::restore_ckpt_world_steps`]'s job.
    pub resume: ResumeMode,
    /// Tiered, optionally incremental, optionally asynchronous storage
    /// (see [`crate::store`]) — the one image-I/O cost model. Every
    /// committed checkpoint is serialized into the attached
    /// [`crate::store::TieredStore`], its modeled write charged to the
    /// virtual clocks, and can be loaded back from it after the run (a
    /// campaign recovers from it). `None` makes checkpoints free on the
    /// virtual clocks (unit-test arithmetic).
    pub tiering: Option<Tiering>,
}

impl Default for CkptOptions {
    fn default() -> Self {
        CkptOptions {
            protocol: Protocol::Cc,
            policy: Box::new(NeverTrigger),
            resume: ResumeMode::Continue,
            tiering: None,
        }
    }
}

impl CkptOptions {
    /// No checkpointing: the wrapper still interposes, so timing and data
    /// are directly comparable with checkpointed runs.
    pub fn native() -> Self {
        CkptOptions::default()
    }

    /// One checkpoint at virtual time `at`, resuming in-process per `mode`.
    pub fn one_checkpoint(at: VTime, mode: ResumeMode) -> Self {
        CkptOptions::default()
            .with_policy(VirtualTimeSchedule::once(at))
            .with_resume(mode)
    }

    /// Replaces the coordination protocol.
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Replaces the trigger policy.
    pub fn with_policy(mut self, policy: impl TriggerPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Replaces the in-process resume mode applied after each capture.
    pub fn with_resume(mut self, resume: ResumeMode) -> Self {
        self.resume = resume;
        self
    }

    /// Attaches tiered storage for image I/O.
    pub fn with_tiering(mut self, tiering: Tiering) -> Self {
        self.tiering = Some(tiering);
        self
    }
}

impl std::fmt::Debug for CkptOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkptOptions")
            .field("protocol", &self.protocol)
            .field("resume", &self.resume)
            .field("tiering", &self.tiering.is_some())
            .finish_non_exhaustive()
    }
}

/// Why one attempt of the run loop did not produce a report.
pub(crate) enum RunError {
    /// A rank could not be launched (its thread failed to spawn, or its
    /// body's constructor panicked); the launch was aborted before any
    /// application code ran.
    Spawn(SpawnError),
    /// A rank restored from an image refused it (its body, its
    /// snapshot); the launch was aborted before any application code ran.
    Refused(RestoreError),
    /// An injected fault killed ranks and the world retired before the
    /// workload completed; `out` is what the attempt's supervision
    /// committed before the death, for the campaign to recover from.
    Died {
        death: RankDeath,
        out: Box<SuperviseOut>,
    },
}

/// Result of a checkpointed execution.
#[derive(Debug)]
pub struct CkptRunReport<R> {
    /// Per-rank reports, indexed by rank.
    pub ranks: Vec<RankReport<R>>,
    /// Simulated makespan.
    pub makespan: VTime,
    /// Every captured checkpoint, in order.
    pub checkpoints: Vec<Checkpoint>,
    /// Checkpoint attempts that were aborted (e.g. a p2p-induced drain
    /// stall), in trigger order.
    pub failures: Vec<DrainError>,
    /// Final interposition counters per rank (captured at finish).
    pub final_counters: Vec<CallCounters>,
    /// Drain-protocol trace.
    pub trace: DrainTrace,
    /// Backstop-expiry wakeups across every wait path of the run (mailbox
    /// waits, rank parks, the supervisor's waits, the step
    /// driver's rescue sweep), all event-driven with lost-wakeup
    /// backstops: 0 in a healthy run, so a regression back to timed
    /// polling shows here long before it shows as sys time.
    pub backstop_expiries: u64,
    /// Host wall-clock seconds each committed checkpoint spent in the
    /// coordinator's capture bracket (parallel per-rank state clone plus
    /// the in-flight drain), aligned with [`CkptRunReport::checkpoints`].
    /// Wall time, not virtual time — the benchmark's `capture_wall_s`
    /// column. Empty for runs that captured nothing (a restore). Under a tiered **async drain**
    /// this is the *blocking* component only — the clone-out plus any
    /// wait for the previous background drain; the overlapped encode+write
    /// remainder is each record's [`StoreRecord::overlapped_wall_s`].
    pub capture_wall_s: Vec<f64>,
    /// Tiered runs only: per-committed-checkpoint storage accounting
    /// (generation, tier, delta parent, bytes, back-pressure), aligned
    /// with `checkpoints`. Empty without tiering.
    pub store_records: Vec<StoreRecord>,
    /// Worker-pool runs (`*_steps`) only: resident-set growth of this
    /// process across the rank-object build phase, divided by the rank
    /// count — the "bytes of heap one parked rank costs" column of the
    /// Figure 7 benchmark. `None` for thread-per-rank runs (a parked rank
    /// there costs a whole stack, accounted by the kernel, not the heap)
    /// and on platforms without `/proc/self/statm`.
    pub rank_build_rss_bytes: Option<u64>,
    /// World attempts this report covers: the initial launch plus one
    /// per recovery (`1` when no fault struck).
    pub attempts: usize,
    /// Injected faults survived on the way to this result, in injection
    /// order. Empty outside availability runs.
    pub faults: Vec<crate::avail::FaultRecord>,
    /// Virtual seconds of work redone because it post-dated the image
    /// each recovery restored from (summed over faults).
    pub wasted_work_s: f64,
    /// Virtual seconds spent reading images back during recoveries
    /// (summed over faults).
    pub recovery_latency_s: f64,
}

impl<R> CkptRunReport<R> {
    /// Iterates over per-rank results.
    pub fn results(&self) -> impl Iterator<Item = &R> {
        self.ranks.iter().map(|r| &r.result)
    }
}

/// Runs the closure body `f` on every rank under the checkpoint wrapper,
/// one thread per rank, and drives `opts.policy` from the calling thread.
///
/// A panicking rank is marked `Finished` so the coordinator's supervision
/// loops terminate, and its panic is re-raised once every rank has
/// returned. Peers blocked *on the dead rank itself* — inside a collective
/// rendezvous it never enters, or a receive it will never satisfy — cannot
/// be released (as in real MPI, where a dead rank aborts the job), so the
/// re-raise only happens once the remaining ranks run to completion.
///
/// # Panics
/// Panics if a rank thread cannot be spawned (the launch is
/// all-or-nothing: ranks spawned before the failing one never run).
pub fn run_ckpt_world<R, F>(cfg: WorldConfig, opts: CkptOptions, f: F) -> CkptRunReport<R>
where
    R: Send,
    F: Fn(&mut CcRank) -> R + Send + Sync,
{
    run_campaign(cfg, opts, FaultPlan::none(), None, Driver::Threads, |_| {
        Blocking(&f)
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_ckpt_world`] for step bodies: builds one [`StepBody`] per rank
/// (`make(rank)`) and steps them all on the worker pool — no per-rank
/// thread or stack, the scale representation — while `opts.policy` is
/// supervised from the calling thread.
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

/// [`run_ckpt_world_steps`], with launch failure — a panicking body
/// constructor, e.g. a factory that refuses a rank — surfaced as a typed
/// [`SpawnError`]. All-or-nothing: on `Err` no rank has run any
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
    run_campaign(cfg, opts, FaultPlan::none(), None, Driver::Pool, make).map_err(launch_error)
}

/// The launch failure of a run with no image and no fault: the only
/// refusal such a run can meet.
fn launch_error(e: RestoreError) -> SpawnError {
    match e {
        RestoreError::Spawn(e) => e,
        e => unreachable!("a run from scratch restored an image: {e}"),
    }
}

/// What an attempt's supervision hands back to the report assembly: the
/// captured images, aborted attempts, and the coordinator's per-capture
/// wall and storage accounting.
#[derive(Default)]
pub(crate) struct SuperviseOut {
    pub(crate) checkpoints: Vec<Checkpoint>,
    pub(crate) failures: Vec<DrainError>,
    pub(crate) capture_wall_s: Vec<f64>,
    pub(crate) store_records: Vec<StoreRecord>,
}

/// An attempt's trigger supervision (the first threshold armed before the
/// launch): serves each request a rank raises with `coord`, arming the
/// next threshold before the ranks run on, and stops once the policy is
/// exhausted (with no planned fault still armed), every rank has
/// finished, or an injected death poisons the world (the fatal
/// [`DrainError::RankDeath`] also lands in the failures). On return the last background drain has been
/// flushed and the coordinator's histories copied out, so the campaign
/// keeps them even when the attempt dies.
pub(crate) fn supervise_loop(
    sh: &Arc<Session>,
    coord: &Coordinator,
    policy: &mut dyn TriggerPolicy,
    resume: ResumeMode,
) -> SuperviseOut {
    let control = &sh.control;
    let mut out = SuperviseOut::default();
    let mut next = policy.next();
    loop {
        // An armed fault keeps the supervisor waiting past the policy:
        // a drain-phase fault is struck only by its waits.
        if next.is_none() && sh.fault.lock().is_none() {
            break;
        }
        // Finished before pending: a rank whose finish completes the
        // threshold raises the request before it publishes `Finished`.
        let fire = sh.wait_for(|| {
            let done = control
                .ranks
                .iter()
                .all(|r| r.state() == RankState::Finished);
            let pending = control.is_pending();
            (pending || done).then_some(pending)
        });
        if fire != Ok(true) {
            break;
        }
        // A clock threshold is where the checkpoint belongs, wherever the
        // ranks stopped; the run picks up again once the checkpoint's own
        // charge is paid, and the next interval starts there.
        let at = match next {
            Some(Threshold::Clock(t)) => t,
            _ => control.request_clock_ns(),
        };
        let mut rearm = |charge_ns: u64, write_s| {
            policy.fired(at.saturating_add(charge_ns), write_s);
            next = policy.next();
            control.arm(next);
        };
        match coord.checkpoint(resume, &mut rearm) {
            Ok(c) => out.checkpoints.push(c),
            Err(e) => {
                let fatal = matches!(e, DrainError::RankDeath(_));
                out.failures.push(e);
                if fatal {
                    policy.fired(at, 0.0);
                    break;
                }
            }
        }
    }
    // A run must not end with an image still in flight: land the last
    // background drain before reading the histories. (On a poisoned world
    // the drain still lands — the recovery path then discards it by its
    // landing point, not by racing the writer thread.)
    control.arm(None);
    coord.flush_drains();
    out.capture_wall_s = coord.capture_wall_history();
    out.store_records = coord.store_record_history();
    out
}

/// Turns the per-rank outcomes of a finished session into its report —
/// or into the death that ended it, when some rank left no result.
pub(crate) fn assemble_report<R>(
    sh: &Session,
    reports: Vec<Option<RankReport<R>>>,
    sup_out: SuperviseOut,
    rank_build_rss_bytes: Option<u64>,
) -> Result<CkptRunReport<R>, RunError> {
    let Some(ranks) = reports.into_iter().collect::<Option<Vec<RankReport<R>>>>() else {
        // At least one rank was retired by the poisoned plane without a
        // result: the death stands. (If the injection raced completion
        // and every rank still returned, the run is simply complete —
        // nothing was lost.)
        let death = sh
            .death()
            .expect("rank ended without a result or a recorded death");
        let out = Box::new(sup_out);
        return Err(RunError::Died { death, out });
    };
    let makespan = VTime::max_of(ranks.iter().map(|r| r.final_clock));
    let final_counters: Vec<CallCounters> = sh
        .control
        .ranks
        .iter()
        .map(|rc| {
            rc.capture_slot
                .lock()
                .as_ref()
                .map(|c| c.counters)
                .unwrap_or_default()
        })
        .collect();
    Ok(CkptRunReport {
        ranks,
        makespan,
        checkpoints: sup_out.checkpoints,
        failures: sup_out.failures,
        final_counters,
        trace: sh.trace.clone(),
        backstop_expiries: sh.backstop_expiries(),
        capture_wall_s: sup_out.capture_wall_s,
        store_records: sup_out.store_records,
        rank_build_rss_bytes,
        attempts: 1,
        faults: Vec::new(),
        wasted_work_s: 0.0,
        recovery_latency_s: 0.0,
    })
}
