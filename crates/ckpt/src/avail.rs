//! The availability subsystem: fault injection and supervised recovery.
//!
//! A checkpointing system earns its keep only when things die. This
//! module closes that loop end-to-end, in-process:
//!
//! * a [`FaultPlan`] holds the campaign — deterministic, seeded events
//!   that kill a single rank or a whole node's ranks at an MTBF-sampled
//!   virtual time ([`FaultPlan::sample`]), or at protocol-sensitive
//!   moments (mid-drain, during an asynchronous background drain);
//! * a fault-injector thread watches the running [`Session`] and fires
//!   each event through [`Session::inject_failure`], which poisons the
//!   scheduler's fail plane and wakes every wait path so the whole world
//!   unwinds promptly with a typed [`RankDeath`] instead of timing out a
//!   watchdog;
//! * [`run_available_world`] (and [`run_available_world_steps`])
//!   supervise the workload across deaths: on each one they select the
//!   newest *viable* image from the shared [`TieredStore`] — skipping
//!   generations still in flight when the node died and falling back
//!   past tiers the dead node took with it
//!   ([`crate::StoreError::NodeLost`]) —
//!   restore it onto the surviving topology through the ordinary
//!   repack-at-restore path, re-arm the trigger policy, and repeat until
//!   the workload completes. Wasted work and recovery latency per fault
//!   land on the final [`CkptRunReport`].
//!
//! The death model is whole-world abort: one death poisons the world and
//! *every* rank (victims and survivors alike) unwinds; recovery restores
//! the full rank set from an image. What distinguishes victims is the
//! storage they take with them (a node loss drops its shards from the
//! store) and the stall accounting (a dead rank is never reported as a
//! p2p stall).

use crate::coordinator::{auto_stall_timeout, Coordinator, ResumeMode};
use crate::image::Checkpoint;
use crate::policy::{DalyInterval, NeverTrigger, PeriodicInterval, TriggerPolicy};
use crate::rank::CcRank;
use crate::restore::{drive_restore, restore_preflight, RestoreConfig};
use crate::runner::step::{run_session, Blocking, Driver, StepBody};
use crate::runner::{
    min_unfinished_clock_ns, supervise_loop, CkptRunReport, RunError, SuperviseOut,
};
use crate::session::{RestorePlan, Session};
use crate::store::{CkptTier, ImageSetLayout, StoreRecord, TieredStore, Tiering};
use mana_core::{CkptPhase, Protocol};
use mpisim::{FaultScope, RankDeath, VTime, WorldConfig};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

/// When a planned fault strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// When the slowest live rank's virtual clock reaches this absolute
    /// time. Replays rewind the clock below the previous death point, so
    /// an event sampled *after* an earlier one can never re-fire during
    /// the recovery replay.
    AtVirtual(VTime),
    /// The first moment at or after the given virtual time that a CC
    /// drain is in progress: targets installed, ranks draining toward
    /// them but not yet quiesced. `VTime::ZERO` hits the first drain.
    MidDrain(VTime),
    /// The first moment at or after the given virtual time that an
    /// asynchronous background drain has an image in flight
    /// ([`Session::bg_drain_inflight`]). A non-zero threshold lets a
    /// test land the death on a *later* drain, after earlier
    /// generations have become viable.
    DuringAsyncDrain(VTime),
}

/// One planned fault: when it strikes and what it kills.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When to fire.
    pub trigger: FaultTrigger,
    /// What dies. [`FaultScope::Node`] additionally drops the node from
    /// every store tier at injection time.
    pub scope: FaultScope,
}

/// A deterministic campaign of fault events, consumed in order — one per
/// world attempt (a dead world ends its attempt, so a second event can
/// only strike the next one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Events in firing order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// No faults: the availability runner degenerates to a plain run.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A single planned event.
    pub fn one(trigger: FaultTrigger, scope: FaultScope) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent { trigger, scope }],
        }
    }

    /// Samples a seeded campaign: inter-failure gaps are exponential with
    /// mean `mtbf_s` (the memoryless failure model behind Young/Daly),
    /// event times accumulate until `horizon_s`, and each event kills a
    /// uniformly chosen rank or — with even odds — a uniformly chosen
    /// node. The same `(seed, mtbf, horizon, shape)` always yields the
    /// same plan; no global randomness is consulted.
    pub fn sample(seed: u64, mtbf_s: f64, horizon_s: f64, n_ranks: usize, n_nodes: usize) -> Self {
        assert!(mtbf_s > 0.0 && mtbf_s.is_finite(), "MTBF must be positive");
        let mut state = seed;
        let mut t = 0.0_f64;
        let mut events = Vec::new();
        loop {
            t += -mtbf_s * unit_open(&mut state).ln();
            if t >= horizon_s {
                break;
            }
            let scope = if splitmix64(&mut state) & 1 == 0 {
                FaultScope::Rank(bounded(&mut state, n_ranks))
            } else {
                FaultScope::Node(bounded(&mut state, n_nodes))
            };
            events.push(FaultEvent {
                trigger: FaultTrigger::AtVirtual(VTime::from_secs(t)),
                scope,
            });
        }
        FaultPlan { events }
    }
}

/// The splitmix64 generator — a dependency-free, well-mixed 64-bit PRNG
/// (Steele et al.), plenty for sampling a fault campaign.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw from the half-open unit interval's *open* end, `(0, 1]`
/// — safe to feed `ln()` for exponential sampling.
fn unit_open(state: &mut u64) -> f64 {
    (((splitmix64(state) >> 11) + 1) as f64) * (1.0 / 9_007_199_254_740_992.0)
}

/// A uniform draw from `0..n` (`0` when `n == 0`).
fn bounded(state: &mut u64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (splitmix64(state) % n as u64) as usize
}

/// How a checkpoint cadence is chosen for an availability run. Built
/// fresh once per run (the policy instance then persists across recovery
/// attempts, so a Daly policy keeps its measured write cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CadenceSpec {
    /// Never checkpoint: every death restarts from scratch.
    Never,
    /// Fixed virtual-time interval, up to `limit` checkpoints.
    Periodic {
        /// The interval in virtual seconds.
        interval_s: f64,
        /// Checkpoint budget.
        limit: usize,
    },
    /// The Young/Daly optimum `sqrt(2·δ·MTBF)`, self-correcting from each
    /// generation's measured write cost (see
    /// [`crate::policy::DalyInterval`]).
    Daly {
        /// Mean time between failures, seconds (`f64::INFINITY` degrades
        /// to [`CadenceSpec::Never`]).
        mtbf_s: f64,
        /// Initial write-cost estimate, seconds.
        write_cost_s: f64,
    },
}

impl CadenceSpec {
    /// Builds the trigger policy this spec describes.
    pub fn build(&self) -> Box<dyn TriggerPolicy> {
        match *self {
            CadenceSpec::Never => Box::new(NeverTrigger),
            CadenceSpec::Periodic { interval_s, limit } => {
                Box::new(PeriodicInterval::new(VTime::from_secs(interval_s), limit))
            }
            CadenceSpec::Daly {
                mtbf_s,
                write_cost_s,
            } => Box::new(DalyInterval::new(mtbf_s, write_cost_s)),
        }
    }
}

/// What one survived fault cost, on the final report's
/// [`CkptRunReport::faults`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// The death as injected.
    pub death: RankDeath,
    /// Store generation the recovery restored from; `None` when no
    /// viable image existed and the workload restarted from scratch.
    pub resumed_generation: Option<u64>,
    /// The tier that generation's bytes were read from.
    pub resumed_tier: Option<CkptTier>,
    /// Virtual seconds of work lost: progress between the restored
    /// image's capture request (or zero, from scratch) and the death.
    pub wasted_s: f64,
    /// Virtual seconds the image read-back cost on the surviving
    /// topology (zero from scratch).
    pub recovery_latency_s: f64,
}

/// Options for [`run_available_world`].
pub struct AvailabilityOptions {
    /// Coordination protocol for the wrapper layer.
    pub protocol: Protocol,
    /// Checkpoint cadence (rebuilt once per run; shared across recovery
    /// attempts).
    pub cadence: CadenceSpec,
    /// The tiered store every attempt checkpoints into and every
    /// recovery restores from. Required: recovery without storage is a
    /// restart from scratch every time (use [`CadenceSpec::Never`] to
    /// measure exactly that).
    pub tiering: Tiering,
    /// Drain watchdog override; `None` scales with world size.
    pub stall_timeout: Option<Duration>,
}

impl AvailabilityOptions {
    /// CC protocol, the given cadence, over `tiering`.
    pub fn new(cadence: CadenceSpec, tiering: Tiering) -> Self {
        AvailabilityOptions {
            protocol: Protocol::Cc,
            cadence,
            tiering,
            stall_timeout: None,
        }
    }

    /// Replaces the coordination protocol.
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Pins the drain watchdog window.
    pub fn with_stall_timeout(mut self, t: Duration) -> Self {
        self.stall_timeout = Some(t);
        self
    }
}

impl std::fmt::Debug for AvailabilityOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AvailabilityOptions")
            .field("protocol", &self.protocol)
            .field("cadence", &self.cadence)
            .field("stall_timeout", &self.stall_timeout)
            .finish_non_exhaustive()
    }
}

/// The per-attempt bookkeeping the supervisor threads between deaths.
struct Campaign {
    tiering: Tiering,
    protocol: Protocol,
    stall_timeout: Option<Duration>,
    policy: Arc<Mutex<Box<dyn TriggerPolicy>>>,
    /// Remaining planned events, consumed front-first, one per attempt.
    events: Vec<FaultEvent>,
    next_event: usize,
    /// Hardware nodes lost so far (world-coordinate ids at death time).
    nodes_lost: usize,
    /// Initial node count of the launch topology.
    initial_nodes: usize,
    /// Accumulated report surface from died attempts.
    prior: SuperviseOut,
    faults: Vec<FaultRecord>,
    attempts: usize,
    backstops: u64,
}

impl Campaign {
    fn new(cfg: &WorldConfig, opts: AvailabilityOptions, plan: FaultPlan) -> Campaign {
        let initial_nodes = cfg.n_ranks.div_ceil(cfg.ranks_per_node.max(1)).max(1);
        Campaign {
            tiering: opts.tiering,
            protocol: opts.protocol,
            stall_timeout: opts.stall_timeout,
            policy: Arc::new(Mutex::new(opts.cadence.build())),
            events: plan.events,
            next_event: 0,
            nodes_lost: 0,
            initial_nodes,
            prior: SuperviseOut::default(),
            faults: Vec::new(),
            attempts: 0,
            backstops: 0,
        }
    }

    /// Nodes still alive.
    fn surviving_nodes(&self) -> usize {
        self.initial_nodes.saturating_sub(self.nodes_lost)
    }

    /// The supervision closure of one attempt: (optionally) drive the
    /// restore replay, then run the trigger loop, stashing the outputs in
    /// `save` so they survive a death (the runner discards its return
    /// value on `Err`).
    fn supervise_attempt(
        &self,
        sh: &Arc<Session>,
        restore: Option<(Arc<Checkpoint>, RestoreConfig, WorldConfig, f64)>,
        save: &Arc<Mutex<SuperviseOut>>,
    ) -> impl FnOnce() -> SuperviseOut + use<> {
        let sh = Arc::clone(sh);
        let tiering = self.tiering.clone();
        let stall = self
            .stall_timeout
            .unwrap_or_else(|| auto_stall_timeout(sh.cfg.n_ranks, sh.cfg.resolved_workers()));
        let policy = Arc::clone(&self.policy);
        let save = Arc::clone(save);
        move || {
            if let Some((image, rcfg, restored_cfg, read_secs)) = restore {
                drive_restore(&sh, &image, &rcfg, restored_cfg, Some(read_secs));
            }
            let coord = Coordinator::new(Arc::clone(&sh))
                .with_tiering(Some(tiering))
                .with_stall_timeout(stall);
            let mut out = SuperviseOut::default();
            let mut policy = policy.lock();
            supervise_loop(&sh, &coord, &mut **policy, ResumeMode::Continue, &mut out);
            *save.lock() = out.clone();
            out
        }
    }

    /// Arms the next planned event (if any) as an injector thread over
    /// the running session. Returns the stop flag and join handle.
    fn arm_injector(
        &mut self,
        sh: &Arc<Session>,
        rpn: usize,
    ) -> Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)> {
        let event = *self.events.get(self.next_event)?;
        self.next_event += 1;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sh = Arc::clone(sh);
        let store = Arc::clone(&self.tiering.store);
        let n_ranks = sh.cfg.n_ranks;
        let handle = std::thread::Builder::new()
            .name("fault-injector".into())
            .spawn(move || {
                injector_loop(&sh, &store, event, n_ranks, rpn, &flag);
            })
            .expect("spawn fault injector");
        Some((stop, handle))
    }

    /// Folds a finished attempt's saved supervision output into the
    /// accumulated prior.
    fn absorb(&mut self, out: SuperviseOut) {
        self.prior.checkpoints.extend(out.checkpoints);
        self.prior.failures.extend(out.failures);
        self.prior.capture_wall_s.extend(out.capture_wall_s);
        self.prior.store_records.extend(out.store_records);
    }

    /// Picks the newest viable generation for a recovery after `death`:
    /// commit-order newest first, skipping generations whose modeled
    /// landing post-dates the death (the drain was still in flight) and
    /// generations any tier lost with a dead node — [`TieredStore::load`]
    /// walks delta chains, so a lost *ancestor* disqualifies its
    /// descendants too.
    fn select_viable(&self, death: &RankDeath) -> Option<(StoreRecord, Checkpoint)> {
        let records: Vec<&StoreRecord> = self.prior.store_records.iter().collect();
        for rec in records.into_iter().rev() {
            // 1 ns of slack absorbs ns↔seconds rounding between the
            // record's landing and the injected death clock.
            if rec.landing_v_s > death.at.as_secs() + 1e-9 {
                continue; // still in flight when the node died
            }
            if let Ok(img) = self.tiering.store.load(rec.generation) {
                return Some((rec.clone(), img));
            }
        }
        None
    }

    /// Accounts one survived death and plans the recovery: the image to
    /// restore (if any), the repacked restore config for the surviving
    /// topology, and the modeled read charge.
    fn plan_recovery(
        &mut self,
        death: RankDeath,
        n_ranks: usize,
    ) -> Option<(Arc<Checkpoint>, RestoreConfig, f64)> {
        if death.node.is_some() {
            self.nodes_lost += 1;
        }
        let surviving = self.surviving_nodes();
        assert!(
            surviving > 0,
            "no surviving nodes to restore onto after {death}"
        );
        let rpn = n_ranks.div_ceil(surviving);
        let picked = self.select_viable(&death);
        let (record, wasted_from_s, read_secs, image) = match picked {
            Some((rec, img)) => {
                let layout = ImageSetLayout::packed(
                    n_ranks,
                    rpn,
                    self.tiering.store.models().image_bytes_per_rank * n_ranks as u64,
                );
                let read = self.tiering.store.read_secs(rec.generation, &layout);
                let from = img.request_clock.as_secs();
                (Some(rec), from, read, Some(img))
            }
            None => (None, 0.0, 0.0, None),
        };
        let wasted = (death.at.as_secs() - wasted_from_s).max(0.0);
        self.faults.push(FaultRecord {
            death,
            resumed_generation: record.as_ref().map(|r| r.generation),
            resumed_tier: record.as_ref().map(|r| r.tier),
            wasted_s: wasted,
            recovery_latency_s: read_secs,
        });
        image.map(|img| {
            let rcfg = RestoreConfig::same_packing().with_ranks_per_node(rpn);
            (Arc::new(img), rcfg, read_secs)
        })
    }

    /// Stamps the accumulated campaign surface onto the final attempt's
    /// report.
    fn finish<R>(self, mut report: CkptRunReport<R>) -> CkptRunReport<R> {
        let mut checkpoints = self.prior.checkpoints;
        checkpoints.append(&mut report.checkpoints);
        report.checkpoints = checkpoints;
        let mut failures = self.prior.failures;
        failures.append(&mut report.failures);
        report.failures = failures;
        let mut walls = self.prior.capture_wall_s;
        walls.append(&mut report.capture_wall_s);
        report.capture_wall_s = walls;
        let mut records = self.prior.store_records;
        records.append(&mut report.store_records);
        report.store_records = records;
        report.backstop_expiries += self.backstops;
        report.attempts = self.attempts;
        report.wasted_work_s = self.faults.iter().map(|f| f.wasted_s).sum();
        report.recovery_latency_s = self.faults.iter().map(|f| f.recovery_latency_s).sum();
        report.faults = self.faults;
        report
    }
}

/// The injector thread body: polls the session until the event's trigger
/// condition holds, then injects the death (dropping the node from every
/// store tier for node-scope events) and exits. The stop flag ends the
/// watch when the attempt finishes without the event firing.
fn injector_loop(
    sh: &Arc<Session>,
    store: &Arc<TieredStore>,
    event: FaultEvent,
    n_ranks: usize,
    rpn: usize,
    stop: &AtomicBool,
) {
    while !stop.load(SeqCst) {
        let after = |t: VTime| min_unfinished_clock_ns(sh) >= (t.as_secs() * 1e9) as u64;
        let due = match event.trigger {
            FaultTrigger::AtVirtual(t) => after(t),
            FaultTrigger::MidDrain(t) => {
                after(t) && sh.control.is_pending() && sh.control.phase() == CkptPhase::Draining
            }
            FaultTrigger::DuringAsyncDrain(t) => after(t) && sh.bg_drain_inflight.load(SeqCst),
        };
        if due {
            let at = VTime::from_secs(min_unfinished_clock_ns(sh) as f64 / 1e9);
            let (victims, node) = match event.scope {
                FaultScope::Rank(r) => (vec![r % n_ranks.max(1)], None),
                FaultScope::Node(d) => {
                    let nodes = n_ranks.div_ceil(rpn.max(1)).max(1);
                    let d = d % nodes;
                    let lo = d * rpn;
                    let hi = ((d + 1) * rpn).min(n_ranks);
                    ((lo..hi).collect(), Some(d))
                }
            };
            let death = RankDeath { victims, node, at };
            if sh.inject_failure(death) {
                if let Some(d) = node {
                    store.drop_node(d);
                }
            }
            return;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Runs `f` under the checkpoint wrapper with fault injection and
/// supervised recovery: each planned death unwinds the world, the newest
/// viable image is restored onto the surviving topology, the trigger
/// policy re-arms, and the loop repeats until the workload completes.
/// The report covers the whole campaign — every attempt's checkpoints,
/// every fault's cost, and the summed backstop expiries.
///
/// # Panics
/// Panics if a rank thread cannot be spawned, if a restore image fails
/// its pre-flight (both harness bugs on this path — the images come from
/// this run's own store), or if a death leaves no surviving node.
pub fn run_available_world<R, F>(
    cfg: WorldConfig,
    opts: AvailabilityOptions,
    plan: FaultPlan,
    f: F,
) -> CkptRunReport<R>
where
    R: Send,
    F: Fn(&mut CcRank) -> R + Send + Sync,
{
    run_campaign(&cfg, opts, plan, Driver::Threads, |_| Blocking(&f))
}

/// [`run_available_world`] for step bodies: the same campaign loop with
/// the ranks on the worker pool (`make(rank)` rebuilds each rank's body
/// on every attempt).
pub fn run_available_world_steps<B, MK>(
    cfg: WorldConfig,
    opts: AvailabilityOptions,
    plan: FaultPlan,
    make: MK,
) -> CkptRunReport<B::Out>
where
    B: StepBody,
    MK: Fn(usize) -> B + Send + Sync,
{
    run_campaign(&cfg, opts, plan, Driver::Pool, make)
}

/// The campaign loop: every attempt is one session whose ranks `driver`
/// steps under that attempt's supervision closure.
fn run_campaign<B: StepBody>(
    cfg: &WorldConfig,
    opts: AvailabilityOptions,
    plan: FaultPlan,
    driver: Driver,
    make: impl Fn(usize) -> B,
) -> CkptRunReport<B::Out> {
    let mut campaign = Campaign::new(cfg, opts, plan);
    let mut restore: Option<(Arc<Checkpoint>, RestoreConfig, f64)> = None;
    loop {
        campaign.attempts += 1;
        let (sh, restore_drive, rpn) = attempt_session(cfg, &campaign, &restore);
        let save = Arc::new(Mutex::new(SuperviseOut::default()));
        let supervise = campaign.supervise_attempt(&sh, restore_drive, &save);
        let injector = campaign.arm_injector(&sh, rpn);
        let result = run_session(Arc::clone(&sh), driver, &make, supervise);
        if let Some((stop, handle)) = injector {
            stop.store(true, SeqCst);
            let _ = handle.join();
        }
        match result {
            Ok(report) => return campaign.finish(report),
            Err(RunError::Spawn(e)) => panic!("{e}"),
            Err(RunError::Died(death)) => {
                campaign.backstops += sh.backstop_expiries();
                campaign.absorb(
                    Arc::try_unwrap(save).map_or_else(|arc| arc.lock().clone(), |m| m.into_inner()),
                );
                restore = campaign.plan_recovery(death, cfg.n_ranks);
            }
        }
    }
}

/// Builds one attempt's session: a fresh world for the first (or an
/// image-less restart), a restore replay otherwise. Returns the session,
/// the restore hand-off for the supervisor, and the attempt's packing
/// (for victim mapping).
#[allow(clippy::type_complexity)]
fn attempt_session(
    cfg: &WorldConfig,
    campaign: &Campaign,
    restore: &Option<(Arc<Checkpoint>, RestoreConfig, f64)>,
) -> (
    Arc<Session>,
    Option<(Arc<Checkpoint>, RestoreConfig, WorldConfig, f64)>,
    usize,
) {
    match restore {
        None => {
            // Fresh start — also the no-viable-image recovery: the
            // workload re-runs from scratch on the surviving topology.
            let rpn = cfg
                .n_ranks
                .div_ceil(campaign.surviving_nodes().max(1))
                .max(cfg.ranks_per_node);
            let mut attempt_cfg = cfg.clone();
            attempt_cfg.ranks_per_node = rpn;
            (Session::new(attempt_cfg, campaign.protocol), None, rpn)
        }
        Some((image, rcfg, read_secs)) => {
            let (replay_cfg, restored_cfg) = restore_preflight(image, rcfg)
                .unwrap_or_else(|e| panic!("recovery image failed pre-flight: {e}"));
            let rpn = restored_cfg.ranks_per_node;
            let plan = RestorePlan::from_image(image);
            let sh = Session::for_restore(replay_cfg, campaign.protocol, plan);
            (
                sh,
                Some((Arc::clone(image), rcfg.clone(), restored_cfg, *read_secs)),
                rpn,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_ckpt_world, CkptOptions};
    use mpisim::{NetParams, ReduceOp};

    /// A wall-paced allreduce loop: virtual time comes from `compute`,
    /// wall time from the sleep — slow enough for the injector and the
    /// trigger supervisor to land mid-run.
    fn paced_sum(r: &mut CcRank) -> f64 {
        let w = r.world_vcomm();
        let mut acc = 0.0f64;
        for _ in 0..30 {
            std::thread::sleep(Duration::from_micros(300));
            r.compute(5e-6);
            acc += r.allreduce_f64(w, &[r.rank() as f64 + acc * 1e-3], ReduceOp::Sum)[0];
        }
        acc
    }

    fn cfg() -> WorldConfig {
        WorldConfig::multi_node(4, 2).with_params(NetParams::slingshot11().without_jitter())
    }

    #[test]
    fn rank_death_recovers_from_memory_tier_bit_identical() {
        let native = run_ckpt_world(cfg(), CkptOptions::native(), paced_sum);
        let makespan = native.makespan.as_secs();
        let tiering = Tiering::fixed(CkptTier::Memory);
        let opts = AvailabilityOptions::new(
            CadenceSpec::Periodic {
                interval_s: makespan / 4.0,
                limit: 100,
            },
            tiering,
        );
        let plan = FaultPlan::one(
            FaultTrigger::AtVirtual(VTime::from_secs(makespan * 0.6)),
            FaultScope::Rank(1),
        );
        let rep = run_available_world(cfg(), opts, plan, paced_sum);
        assert_eq!(rep.attempts, 2, "one death must cost one extra attempt");
        assert_eq!(rep.faults.len(), 1);
        let f = &rep.faults[0];
        assert_eq!(f.death.victims, vec![1]);
        assert!(
            f.resumed_generation.is_some(),
            "a checkpoint before the death must be viable: {f:?}"
        );
        assert!(f.wasted_s > 0.0 && f.recovery_latency_s > 0.0);
        assert_eq!(rep.backstop_expiries, 0, "no wait path may time out");
        let base: Vec<f64> = native.ranks.iter().map(|r| r.result).collect();
        let got: Vec<f64> = rep.ranks.iter().map(|r| r.result).collect();
        assert_eq!(base, got, "recovery must be bit-identical");
    }

    #[test]
    fn death_with_no_image_restarts_from_scratch() {
        let native = run_ckpt_world(cfg(), CkptOptions::native(), paced_sum);
        let makespan = native.makespan.as_secs();
        let opts = AvailabilityOptions::new(CadenceSpec::Never, Tiering::fixed(CkptTier::Lustre));
        let plan = FaultPlan::one(
            FaultTrigger::AtVirtual(VTime::from_secs(makespan * 0.5)),
            FaultScope::Rank(0),
        );
        let rep = run_available_world(cfg(), opts, plan, paced_sum);
        assert_eq!(rep.attempts, 2);
        assert_eq!(rep.faults.len(), 1);
        let f = &rep.faults[0];
        assert_eq!(f.resumed_generation, None);
        assert_eq!(f.resumed_tier, None);
        assert!(f.wasted_s > 0.0, "everything up to the death is wasted");
        assert_eq!(f.recovery_latency_s, 0.0);
        let base: Vec<f64> = native.ranks.iter().map(|r| r.result).collect();
        let got: Vec<f64> = rep.ranks.iter().map(|r| r.result).collect();
        assert_eq!(base, got);
    }

    #[test]
    fn sampled_plans_are_deterministic_and_mtbf_scaled() {
        let a = FaultPlan::sample(42, 50.0, 400.0, 16, 4);
        let b = FaultPlan::sample(42, 50.0, 400.0, 16, 4);
        assert_eq!(a, b, "same seed must yield the same campaign");
        let c = FaultPlan::sample(43, 50.0, 400.0, 16, 4);
        assert_ne!(a, c, "different seeds must diverge");
        // Expected counts scale like horizon / MTBF; across many seeds the
        // mean must land near 8 for this shape.
        let total: usize = (0..64)
            .map(|s| FaultPlan::sample(s, 50.0, 400.0, 16, 4).events.len())
            .sum();
        let mean = total as f64 / 64.0;
        assert!((5.0..11.0).contains(&mean), "mean events {mean} off 8");
        // Event times are strictly increasing and in-horizon.
        let mut last = 0.0;
        for e in &a.events {
            let FaultTrigger::AtVirtual(t) = e.trigger else {
                panic!("sampled plans are virtual-time triggered");
            };
            assert!(t.as_secs() > last && t.as_secs() < 400.0);
            last = t.as_secs();
        }
    }

    #[test]
    fn sampled_scopes_stay_in_shape() {
        let p = FaultPlan::sample(7, 5.0, 200.0, 16, 4);
        assert!(!p.events.is_empty());
        for e in &p.events {
            match e.scope {
                FaultScope::Rank(r) => assert!(r < 16),
                FaultScope::Node(d) => assert!(d < 4),
            }
        }
    }
}
