//! The checkpointable world runner: launches a session's ranks (closure
//! bodies one thread each, step bodies on the worker pool — one launcher,
//! `step::run_session`, either way) and supervises a pluggable
//! [`TriggerPolicy`] from the calling thread.
//!
//! Capture no longer implies a resume decision: the policy only says
//! *when* to capture, [`CkptOptions::resume`] says what this in-process
//! run does afterwards (continue on the same lower half, or rebuild it),
//! and the captured [`Checkpoint`] images in the report are first-class
//! artifacts — serialize one with [`Checkpoint::to_bytes`] and restore it
//! elsewhere (even onto a different node packing) with
//! [`crate::restore_ckpt_world`].

use crate::coordinator::{auto_stall_timeout, Coordinator, DrainError, ResumeMode, StorageSpec};
use crate::image::Checkpoint;
use crate::policy::{NeverTrigger, TriggerObservation, TriggerPolicy, VirtualTimeSchedule};
use crate::rank::CcRank;
use crate::session::Session;
use crate::store::{StoreRecord, Tiering};
use mana_core::{CallCounters, DrainTrace, ExecEvent, Protocol, RankState};
use mpisim::{RankDeath, RankReport, SpawnError, VTime, WorldConfig};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;
use step::{run_session, Blocking, Driver, StepBody};

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
    /// elsewhere is [`crate::restore_ckpt_world`]'s job.
    pub resume: ResumeMode,
    /// Storage model for checkpoint-image I/O; `None` makes checkpoints
    /// free on the virtual clocks (unit-test arithmetic).
    pub storage: Option<StorageSpec>,
    /// Tiered, optionally incremental, optionally asynchronous storage
    /// (see [`crate::store`]); takes precedence over `storage`. Every
    /// committed checkpoint is serialized into the attached
    /// [`crate::store::TieredStore`] and can be loaded back from it after
    /// the run.
    pub tiering: Option<Tiering>,
    /// Drain watchdog window before a stalled checkpoint is aborted with
    /// [`DrainError::P2pStall`]. `None` (the default) scales the window
    /// with the world size ([`auto_stall_timeout`]): under the batched
    /// cooperative scheduler a 512-rank drain makes the same total
    /// progress as an 8-rank one but spread over `n_ranks / workers` times
    /// the wall clock, and a fixed window would misread that as a stall.
    /// Wall-clock either way: workloads that deliberately `sleep` longer
    /// than the window during a drain will be misread as stalled.
    pub stall_timeout: Option<Duration>,
}

impl Default for CkptOptions {
    fn default() -> Self {
        CkptOptions {
            protocol: Protocol::Cc,
            policy: Box::new(NeverTrigger),
            resume: ResumeMode::Continue,
            storage: None,
            tiering: None,
            stall_timeout: None,
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

    /// Attaches a storage model for image I/O.
    pub fn with_storage(mut self, storage: StorageSpec) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Attaches tiered storage for image I/O (takes precedence over
    /// [`CkptOptions::with_storage`]).
    pub fn with_tiering(mut self, tiering: Tiering) -> Self {
        self.tiering = Some(tiering);
        self
    }

    /// Pins the drain watchdog window instead of the world-size-scaled
    /// default.
    pub fn with_stall_timeout(mut self, t: Duration) -> Self {
        self.stall_timeout = Some(t);
        self
    }
}

impl std::fmt::Debug for CkptOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkptOptions")
            .field("protocol", &self.protocol)
            .field("resume", &self.resume)
            .field("storage", &self.storage)
            .field("tiering", &self.tiering.is_some())
            .field("stall_timeout", &self.stall_timeout)
            .finish_non_exhaustive()
    }
}

/// Why a supervised run did not produce a report.
#[derive(Debug)]
pub enum RunError {
    /// A rank could not be launched (its thread failed to spawn, or its
    /// body's constructor panicked); the launch was aborted before any
    /// application code ran.
    Spawn(SpawnError),
    /// An injected fault killed ranks and the world unwound before the
    /// workload completed. Only the availability supervisor
    /// ([`crate::run_available_world`]) recovers from this; the plain
    /// runners treat it as fatal.
    Died(RankDeath),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Spawn(e) => write!(f, "{e}"),
            RunError::Died(d) => write!(f, "run killed: {d}"),
        }
    }
}

impl std::error::Error for RunError {}

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
    /// Full execution log (all collective participations).
    pub events: Vec<ExecEvent>,
    /// Backstop-expiry wakeups across every wait path of the run
    /// (scheduler grants, mailbox receive waits, checkpoint parks). All
    /// of those waits are event-driven with long lost-wakeup backstops;
    /// in a healthy run this stays at ~0, and a regression back to timed
    /// polling — invisible in functional results — shows up here long
    /// before it shows up as a sys-time blowup at scale.
    pub backstop_expiries: u64,
    /// Host wall-clock seconds each committed checkpoint spent in the
    /// coordinator's capture bracket (parallel per-rank state clone plus
    /// the in-flight drain), aligned with [`CkptRunReport::checkpoints`].
    /// Wall time, not virtual time — the benchmark's `capture_wall_s`
    /// column. Empty for restored runs. Under a tiered **async drain**
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
    /// World attempts this report covers: always `1` for the plain
    /// runners; the availability supervisor counts the initial launch
    /// plus one per recovery restore.
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
/// Panics if a rank thread cannot be spawned; [`try_run_ckpt_world`]
/// surfaces that case as a typed [`SpawnError`] instead.
pub fn run_ckpt_world<R, F>(cfg: WorldConfig, opts: CkptOptions, f: F) -> CkptRunReport<R>
where
    R: Send,
    F: Fn(&mut CcRank) -> R + Send + Sync,
{
    try_run_ckpt_world(cfg, opts, f).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_ckpt_world`], with thread-spawn failure surfaced as a typed
/// [`SpawnError`]. The launch is all-or-nothing: on a failure no rank has
/// run any application code, no checkpoint supervision has started, and
/// ranks spawned before the failing one were aborted through the launch
/// gate.
pub fn try_run_ckpt_world<R, F>(
    cfg: WorldConfig,
    opts: CkptOptions,
    f: F,
) -> Result<CkptRunReport<R>, SpawnError>
where
    R: Send,
    F: Fn(&mut CcRank) -> R + Send + Sync,
{
    run_policy_session(cfg, opts, Driver::Threads, |_| Blocking(&f))
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
/// [`SpawnError`]. All-or-nothing like the closure form: on `Err` no rank
/// has run any application code and no checkpoint supervision has started.
pub fn try_run_ckpt_world_steps<B, MK>(
    cfg: WorldConfig,
    opts: CkptOptions,
    make: MK,
) -> Result<CkptRunReport<B::Out>, SpawnError>
where
    B: StepBody,
    MK: Fn(usize) -> B + Send + Sync,
{
    run_policy_session(cfg, opts, Driver::Pool, make)
}

/// The body of the four entry points above: a fresh session whose ranks
/// `driver` steps while the trigger policy is supervised.
fn run_policy_session<B: StepBody>(
    cfg: WorldConfig,
    opts: CkptOptions,
    driver: Driver,
    make: impl Fn(usize) -> B,
) -> Result<CkptRunReport<B::Out>, SpawnError> {
    assert!(
        opts.protocol.supports_checkpoint() || opts.policy.exhausted(),
        "protocol {} cannot checkpoint",
        opts.protocol.name()
    );
    let sh = Session::new(cfg, opts.protocol);
    let sup = Arc::clone(&sh);
    run_session(sh, driver, make, move || supervise_policy(&sup, opts)).map_err(|e| match e {
        RunError::Spawn(s) => s,
        // No fault injector exists on this path; a death here means a
        // harness bug, not a survivable failure.
        RunError::Died(d) => panic!("rank death without availability supervision: {d}"),
    })
}

/// What a supervision closure hands back to the report assembly: the
/// captured images, aborted attempts, and the coordinator's per-capture
/// wall and storage accounting. Restore drivers return the default.
#[derive(Default, Clone)]
pub(crate) struct SuperviseOut {
    pub(crate) checkpoints: Vec<Checkpoint>,
    pub(crate) failures: Vec<DrainError>,
    pub(crate) capture_wall_s: Vec<f64>,
    pub(crate) store_records: Vec<StoreRecord>,
}

/// Drives the trigger policy over a running session: polls the published
/// progress, fires the coordinator on policy demand, stops once the policy
/// is exhausted or every rank has finished.
fn supervise_policy(sh: &Arc<Session>, opts: CkptOptions) -> SuperviseOut {
    let mut policy = opts.policy;
    let coord = Coordinator::new(Arc::clone(sh))
        .with_storage(opts.storage.clone())
        .with_tiering(opts.tiering.clone())
        .with_stall_timeout(
            opts.stall_timeout
                .unwrap_or_else(|| auto_stall_timeout(sh.cfg.n_ranks, sh.cfg.resolved_workers())),
        );
    let mut out = SuperviseOut::default();
    supervise_loop(sh, &coord, policy.as_mut(), opts.resume, &mut out);
    out
}

/// The poll-fire core shared by [`supervise_policy`] and the availability
/// supervisor: polls the published progress, fires `coord` on policy
/// demand, and stops once the policy is exhausted, every rank has
/// finished, or an injected death poisons the world (the fatal
/// [`DrainError::RankDeath`] also lands in `out.failures`). On return the
/// last background drain has been flushed and the coordinator's histories
/// copied into `out`, so the caller keeps them even when the run itself
/// dies.
pub(crate) fn supervise_loop(
    sh: &Arc<Session>,
    coord: &Coordinator,
    policy: &mut dyn TriggerPolicy,
    resume: ResumeMode,
    out: &mut SuperviseOut,
) {
    let mut last_write_cost_s = 0.0;
    while !policy.exhausted() && !all_finished(sh) && !sh.poisoned() {
        let obs = TriggerObservation {
            min_clock_ns: min_unfinished_clock_ns(sh),
            min_coll_calls: min_unfinished_coll_calls(sh),
            checkpoints_taken: out.checkpoints.len(),
            last_write_cost_s,
        };
        if policy.should_fire(&obs) {
            match coord.checkpoint(resume) {
                Ok(c) => {
                    last_write_cost_s = c.io_write_secs;
                    out.checkpoints.push(c);
                }
                Err(e) => {
                    let fatal = matches!(e, DrainError::RankDeath(_));
                    out.failures.push(e);
                    if fatal {
                        break;
                    }
                }
            }
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    // A run must not end with an image still in flight: land the last
    // background drain before reading the histories. (On a poisoned world
    // the drain still lands — the recovery path then discards it by its
    // landing point, not by racing the writer thread.)
    coord.flush_drains();
    out.capture_wall_s = coord.capture_wall_history();
    out.store_records = coord.store_record_history();
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
        // At least one rank unwound (or was retired by the poison abort
        // point) without a result: the death stands. (If the injection
        // raced completion and every rank still returned, the run is
        // simply complete — nothing was lost.)
        let death = sh
            .death()
            .expect("rank ended without a result or a recorded death");
        return Err(RunError::Died(death));
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
        events: sh.exec_log.take_events(),
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

pub(crate) fn all_finished(sh: &Session) -> bool {
    sh.control
        .ranks
        .iter()
        .all(|r| r.state() == RankState::Finished)
}

/// Minimum published virtual clock over non-finished ranks, in integer
/// nanoseconds. The published clocks are compared as `u64` all the way to
/// the policy: the old trigger loop converted them to `f64` seconds
/// first, which collapses distinct clock values above ~2^53 ns.
pub(crate) fn min_unfinished_clock_ns(sh: &Session) -> u64 {
    let mut min: Option<u64> = None;
    for r in &sh.control.ranks {
        if r.state() == RankState::Finished {
            continue;
        }
        let c = r.clock_ns.load(Relaxed);
        min = Some(min.map_or(c, |m: u64| m.min(c)));
    }
    min.unwrap_or(0)
}

/// Minimum published collective-call total over non-finished ranks.
fn min_unfinished_coll_calls(sh: &Session) -> u64 {
    let mut min: Option<u64> = None;
    for r in &sh.control.ranks {
        if r.state() == RankState::Finished {
            continue;
        }
        let c = r.coll_calls.load(Relaxed);
        min = Some(min.map_or(c, |m: u64| m.min(c)));
    }
    min.unwrap_or(0)
}
