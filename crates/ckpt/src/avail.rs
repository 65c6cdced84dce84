//! The availability subsystem: fault injection and supervised recovery.
//!
//! A checkpointing system earns its keep only when things die. This
//! module closes that loop end-to-end, in-process:
//!
//! * a [`FaultPlan`] holds the campaign — deterministic, seeded events
//!   that kill a single rank or a whole node's ranks at an MTBF-sampled
//!   virtual time ([`FaultPlan::sample`]), or at protocol-sensitive
//!   moments (mid-drain, during an asynchronous background drain);
//! * each attempt arms its planned event on the [`Session`], where the
//!   rank whose progress completes its time (or the supervisor's waits)
//!   fire it through [`Session::inject_failure`], which poisons the
//!   scheduler's fail plane and wakes every rank, so the whole world
//!   retires promptly with a typed [`RankDeath`], never a spurious stall;
//! * [`run_available_world_steps`] supervises step bodies on the worker
//!   pool across deaths: on each one it selects the newest *viable* image
//!   from the [`CkptOptions::tiering`] store — skipping generations still
//!   in flight when the node died and falling back past tiers the dead
//!   node took with it ([`crate::StoreError::NodeLost`]) — restores it
//!   onto the surviving topology through the ordinary repack-at-restore
//!   path, re-arms the trigger policy, and repeats until the workload
//!   completes. Wasted work and recovery latency per fault land on the
//!   final [`CkptRunReport`]. A body without a snapshot
//!   ([`StepBody::save`]) leaves images with no upper half, so its
//!   campaign recovers from scratch, as a campaign with no image does.
//!
//! The loop behind it, `run_campaign`, is the only code that builds
//! sessions and launches ranks: a plain run ([`crate::run_ckpt_world`]) is
//! a campaign with [`FaultPlan::none`], and a restore
//! ([`crate::restore_ckpt_world_steps`]) is a campaign whose first attempt
//! is the image arm a recovery uses. Every attempt, fresh or restored, is
//! packed by one rule: the launch packing while it fits on the surviving
//! nodes, denser once nodes are lost.
//!
//! The death model is whole-world abort: one death poisons the world and
//! *every* rank (victims and survivors alike) retires at its next step
//! without a result — a death is a value, never an unwind; recovery
//! restores the full rank set from an image. What distinguishes victims
//! is the storage they take with them (a node loss drops its shards from
//! the store) and the stall rule (a dead rank is never reported as a p2p
//! stall).

use crate::coordinator::Coordinator;
use crate::image::Checkpoint;
use crate::restore::{Restore, RestoreConfig, RestoreError};
use crate::runner::step::{run_session, Driver, StepBody};
use crate::runner::{supervise_loop, CkptOptions, CkptRunReport, RunError, SuperviseOut};
use crate::session::Session;
use crate::store::{CkptTier, StoreRecord, TieredStore, Tiering};
use mana_core::{CkptPhase, Threshold};
use mpisim::{FaultScope, RankDeath, VTime, WorldConfig};
use std::borrow::Cow;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

/// When a planned fault strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// When the slowest live rank's virtual clock reaches this absolute
    /// time. Each event is armed on one attempt only, so one sampled
    /// *after* an earlier one never strikes the attempt that earlier one
    /// ended.
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

/// The per-attempt bookkeeping the campaign threads between deaths.
struct Campaign {
    /// Planned events, the `k`-th armed on attempt `k + 1`.
    events: Vec<FaultEvent>,
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
    fn new(cfg: &WorldConfig, plan: FaultPlan) -> Campaign {
        Campaign {
            events: plan.events,
            nodes_lost: 0,
            initial_nodes: cfg.n_ranks.div_ceil(cfg.ranks_per_node.max(1)).max(1),
            prior: SuperviseOut::default(),
            faults: Vec::new(),
            attempts: 0,
            backstops: 0,
        }
    }

    /// The packing of every attempt, fresh or restored: the launch packing
    /// while it fits on the surviving nodes, denser once nodes are lost.
    fn packing(&self, cfg: &WorldConfig) -> usize {
        let surviving = self.initial_nodes.saturating_sub(self.nodes_lost);
        assert!(surviving > 0, "no surviving nodes to restart onto");
        cfg.n_ranks.div_ceil(surviving).max(cfg.ranks_per_node)
    }

    /// Folds a died attempt's supervision output into the accumulated
    /// prior.
    fn absorb(&mut self, out: SuperviseOut) {
        self.prior.checkpoints.extend(out.checkpoints);
        self.prior.failures.extend(out.failures);
        self.prior.capture_wall_s.extend(out.capture_wall_s);
        self.prior.store_records.extend(out.store_records);
    }

    /// Picks the newest viable generation for a recovery after `death`:
    /// commit-order newest first, skipping generations whose modeled
    /// landing post-dates the death (the drain was still in flight),
    /// generations any tier lost with a dead node — [`TieredStore::load`]
    /// walks delta chains, so a lost *ancestor* disqualifies its
    /// descendants too — and images with no upper half (bodies without a
    /// snapshot), which cannot be restored.
    fn select_viable(
        &self,
        store: &TieredStore,
        death: &RankDeath,
    ) -> Option<(StoreRecord, Checkpoint)> {
        self.prior.store_records.iter().rev().find_map(|rec| {
            // 1 ns of slack absorbs ns↔seconds rounding between the
            // record's landing and the injected death clock; a later
            // landing was still in flight when the node died.
            let landed = rec.landing_v_s <= death.at.as_secs() + 1e-9;
            let img = landed.then(|| store.load(rec.generation).ok()).flatten()?;
            img.captures
                .iter()
                .all(|c| c.upper.is_some())
                .then(|| (rec.clone(), img))
        })
    }

    /// Accounts one survived death and plans the recovery: the newest
    /// viable image restored onto the surviving topology, read back from
    /// the generation it came from — or `None`, a restart from scratch.
    fn plan_recovery(
        &mut self,
        death: RankDeath,
        cfg: &WorldConfig,
        tiering: Option<&Tiering>,
    ) -> Option<Restore<'static>> {
        if death.node.is_some() {
            self.nodes_lost += 1;
        }
        let mut record = FaultRecord {
            death,
            resumed_generation: None,
            resumed_tier: None,
            wasted_s: 0.0,
            recovery_latency_s: 0.0,
        };
        let restore = tiering.and_then(|t| {
            let (rec, img) = self.select_viable(&t.store, &record.death)?;
            let mut rcfg = RestoreConfig::same_packing()
                .with_ranks_per_node(self.packing(cfg))
                .with_storage(Arc::clone(&t.store), rec.generation);
            rcfg.workers = cfg.workers;
            let restore = Restore::preflight(Cow::Owned(img), rcfg)
                .unwrap_or_else(|e| panic!("recovery image failed pre-flight: {e}"));
            record.resumed_generation = Some(rec.generation);
            record.resumed_tier = Some(rec.tier);
            record.recovery_latency_s = restore.read_s;
            Some(restore)
        });
        let from = restore
            .as_ref()
            .map_or(0.0, |r| r.image.request_clock.as_secs());
        record.wasted_s = (record.death.at.as_secs() - from).max(0.0);
        self.faults.push(record);
        restore
    }

    /// Stamps the accumulated campaign surface onto the final attempt's
    /// report.
    fn finish<R>(self, mut report: CkptRunReport<R>) -> CkptRunReport<R> {
        fn prepend<T>(mut prior: Vec<T>, tail: &mut Vec<T>) -> Vec<T> {
            prior.append(tail);
            prior
        }
        report.checkpoints = prepend(self.prior.checkpoints, &mut report.checkpoints);
        report.failures = prepend(self.prior.failures, &mut report.failures);
        report.capture_wall_s = prepend(self.prior.capture_wall_s, &mut report.capture_wall_s);
        report.store_records = prepend(self.prior.store_records, &mut report.store_records);
        report.backstop_expiries += self.backstops;
        report.attempts = self.attempts;
        report.wasted_work_s = self.faults.iter().map(|f| f.wasted_s).sum();
        report.recovery_latency_s = self.faults.iter().map(|f| f.recovery_latency_s).sum();
        report.faults = self.faults;
        report
    }
}

/// A planned fault armed over one world attempt, struck once its trigger
/// holds (see [`Session::strike_if_due`]): a node-scope death also drops
/// the node (`rpn` ranks each) from `store`.
pub(crate) struct ArmedFault {
    event: FaultEvent,
    store: Option<Arc<TieredStore>>,
    rpn: usize,
}

impl ArmedFault {
    /// The virtual time (ns) before which the event cannot strike.
    pub(crate) fn after_ns(&self) -> u64 {
        let (FaultTrigger::AtVirtual(t)
        | FaultTrigger::MidDrain(t)
        | FaultTrigger::DuringAsyncDrain(t)) = self.event.trigger;
        (t.as_secs() * 1e9) as u64
    }

    /// Whether the trigger holds now: every unfinished rank is past the
    /// event's virtual time and, for the protocol-sensitive triggers, the
    /// moment it waits for is on.
    pub(crate) fn due(&self, sh: &Session) -> bool {
        sh.control.reached(Threshold::Clock(self.after_ns()))
            && match self.event.trigger {
                FaultTrigger::AtVirtual(_) => true,
                FaultTrigger::MidDrain(_) => {
                    let c = &sh.control;
                    c.is_pending() && c.phase() == CkptPhase::Draining && c.targets_ready()
                }
                FaultTrigger::DuringAsyncDrain(_) => sh.bg_drain_inflight.load(SeqCst),
            }
    }

    /// Injects the death, dropping the node from every store tier for a
    /// node-scope event.
    pub(crate) fn strike(self, sh: &Session) {
        let n_ranks = sh.cfg.n_ranks;
        let at = VTime::from_secs(sh.control.min_unfinished_clock_ns() as f64 / 1e9);
        let (victims, node) = match self.event.scope {
            FaultScope::Rank(r) => (vec![r % n_ranks.max(1)], None),
            FaultScope::Node(d) => {
                let rpn = self.rpn.max(1);
                let d = d % n_ranks.div_ceil(rpn).max(1);
                ((d * rpn..((d + 1) * rpn).min(n_ranks)).collect(), Some(d))
            }
        };
        if sh.inject_failure(RankDeath { victims, node, at }) {
            if let (Some(d), Some(store)) = (node, &self.store) {
                store.drop_node(d);
            }
        }
    }
}

/// Runs the step bodies `make(rank)` under the checkpoint wrapper on the
/// worker pool, with fault injection and supervised recovery: each
/// planned death retires the world, and the loop restores the newest
/// viable image in `opts.tiering`'s store onto the surviving topology —
/// `make(rank)` rebuilt and loaded from its snapshot — and re-arms the
/// trigger policy (one instance for the whole campaign, so a Daly policy
/// keeps its measured write cost). Without tiering, before the first
/// checkpoint lands, or for a body without a snapshot
/// ([`StepBody::save`]), a death restarts from scratch. The report covers
/// the whole campaign — every attempt's checkpoints, every fault's cost,
/// and the summed backstop expiries.
///
/// # Panics
/// Panics if a rank cannot be built, if a recovery image fails its
/// pre-flight or a body refuses its snapshot (harness bugs on this path —
/// the images come from this run's own store and program), or if a death
/// leaves no surviving node.
pub fn run_available_world_steps<B, MK>(
    cfg: WorldConfig,
    opts: CkptOptions,
    plan: FaultPlan,
    make: MK,
) -> CkptRunReport<B::Out>
where
    B: StepBody,
    MK: Fn(usize) -> B + Send + Sync,
{
    run_campaign(cfg, opts, plan, None, Driver::Pool, make).unwrap_or_else(|e| panic!("{e}"))
}

/// The one supervised run loop — every entry point's body. Each attempt
/// is one session whose ranks `driver` steps: the first starts from
/// `restore`'s image, or from scratch; each death plans the next attempt
/// from the newest viable image (or from scratch). On a launch failure or
/// a refused snapshot no rank of that attempt ran any application code.
/// A campaign with faults runs on the pool: a death retires a pool rank
/// at its next step, while a rank on its own thread would sleep through
/// it.
pub(crate) fn run_campaign<B: StepBody>(
    cfg: WorldConfig,
    opts: CkptOptions,
    plan: FaultPlan,
    mut restore: Option<Restore<'_>>,
    driver: Driver,
    make: impl Fn(usize) -> B,
) -> Result<CkptRunReport<B::Out>, RestoreError> {
    assert!(
        opts.protocol.supports_checkpoint() || opts.policy.next().is_none(),
        "protocol {} cannot checkpoint",
        opts.protocol.name()
    );
    assert!(
        driver == Driver::Pool || plan.events.is_empty(),
        "a fault campaign runs on the worker pool"
    );
    let CkptOptions {
        protocol,
        mut policy,
        resume,
        tiering,
    } = opts;
    let mut campaign = Campaign::new(&cfg, plan);
    loop {
        campaign.attempts += 1;
        let (sh, rpn) = match &restore {
            None => {
                let mut fresh = cfg.clone();
                fresh.ranks_per_node = campaign.packing(&cfg);
                let rpn = fresh.ranks_per_node;
                (Session::new(fresh, protocol, 0), rpn)
            }
            // The restored world, one lower-half generation past the
            // capture's.
            Some(r) => {
                let sh = Session::new(r.restored_cfg.clone(), protocol, r.image.epoch + 1);
                (sh, r.restored_cfg.ranks_per_node)
            }
        };
        sh.arm_fault(campaign.events.get(campaign.attempts - 1).map(|&event| {
            let store = tiering.as_ref().map(|t| Arc::clone(&t.store));
            ArmedFault { event, store, rpn }
        }));
        sh.control.arm(policy.next());
        let supervise = || {
            let coord = Coordinator::new(Arc::clone(&sh)).with_tiering(tiering.clone());
            supervise_loop(&sh, &coord, policy.as_mut(), resume)
        };
        match run_session(Arc::clone(&sh), driver, &make, restore.as_ref(), supervise) {
            Ok(report) => return Ok(campaign.finish(report)),
            Err(RunError::Spawn(e)) => return Err(e.into()),
            Err(RunError::Refused(e)) => return Err(e),
            Err(RunError::Died { death, out }) => {
                campaign.backstops += sh.backstop_expiries();
                campaign.absorb(*out);
                restore = campaign.plan_recovery(death, &cfg, tiering.as_ref());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PeriodicInterval;
    use crate::rank::CcRank;
    use crate::runner::run_ckpt_world_steps;
    use crate::runner::step::tests_support::SumBody;
    use crate::BodyStep;
    use mpisim::NetParams;

    /// [`SumBody`]'s allreduce loop as a closure body: the same program,
    /// stepped on the pool, with no snapshot.
    fn sum(_rank: usize) -> impl FnMut(&mut CcRank) -> BodyStep<f64> + Send {
        let mut body = SumBody::new(30);
        move |r: &mut CcRank| body.step(r)
    }

    fn cfg() -> WorldConfig {
        WorldConfig::multi_node(4, 2).with_params(NetParams::slingshot11().without_jitter())
    }

    #[test]
    fn rank_death_recovers_from_memory_tier_bit_identical() {
        let body = |_| SumBody::new(30);
        let native = run_ckpt_world_steps(cfg(), CkptOptions::native(), body);
        let makespan = native.makespan.as_secs();
        let opts = CkptOptions::native()
            .with_policy(PeriodicInterval::new(VTime::from_secs(makespan / 4.0), 100))
            .with_tiering(Tiering::fixed(CkptTier::Memory));
        let plan = FaultPlan::one(
            FaultTrigger::AtVirtual(VTime::from_secs(makespan * 0.6)),
            FaultScope::Rank(1),
        );
        let rep = run_available_world_steps(cfg(), opts, plan, body);
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

    /// A closure's images hold no upper half: its campaign checkpoints,
    /// and recovers from scratch all the same.
    #[test]
    fn closure_campaign_recovers_from_scratch() {
        let native = run_ckpt_world_steps(cfg(), CkptOptions::native(), sum);
        let makespan = native.makespan.as_secs();
        let opts = CkptOptions::native()
            .with_policy(PeriodicInterval::new(VTime::from_secs(makespan / 4.0), 100))
            .with_tiering(Tiering::fixed(CkptTier::Memory));
        let plan = FaultPlan::one(
            FaultTrigger::AtVirtual(VTime::from_secs(makespan * 0.6)),
            FaultScope::Rank(1),
        );
        let rep = run_available_world_steps(cfg(), opts, plan, sum);
        assert_eq!(rep.attempts, 2);
        assert!(
            !rep.checkpoints.is_empty(),
            "the campaign still checkpoints"
        );
        assert!(rep
            .checkpoints
            .iter()
            .all(|c| c.captures.iter().all(|c| c.upper.is_none())));
        let f = &rep.faults[0];
        assert_eq!((f.resumed_generation, f.recovery_latency_s), (None, 0.0));
        let base: Vec<f64> = native.ranks.iter().map(|r| r.result).collect();
        let got: Vec<f64> = rep.ranks.iter().map(|r| r.result).collect();
        assert_eq!(base, got);
    }

    /// For a body with a snapshot and one without ([`sum`]) alike.
    #[test]
    fn death_with_no_image_restarts_from_scratch() {
        let native = run_ckpt_world_steps(cfg(), CkptOptions::native(), sum);
        let makespan = native.makespan.as_secs();
        let opts = || CkptOptions::native().with_tiering(Tiering::fixed(CkptTier::Lustre));
        let plan = || {
            FaultPlan::one(
                FaultTrigger::AtVirtual(VTime::from_secs(makespan * 0.5)),
                FaultScope::Rank(0),
            )
        };
        let snapshot = run_available_world_steps(cfg(), opts(), plan(), |_| SumBody::new(30));
        let none = run_available_world_steps(cfg(), opts(), plan(), sum);
        for rep in [snapshot, none] {
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
