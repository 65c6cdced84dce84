//! Shared state of one checkpointable execution: the control plane, the
//! target-update bus, the observability logs, and the current lower-half
//! generation. A session optionally carries a restore plan when the
//! execution is a restore-from-image replay rather than a fresh run.

use crate::avail::ArmedFault;
use crate::bus::UpdateBus;
use crate::image::Checkpoint;
use mana_core::control::OBSERVER_BACKSTOP;
use mana_core::{
    CallCounters, CkptControl, DrainTrace, ExecutionLog, Protocol, RankState, SeqTable, Threshold,
};
use mpisim::{RankDeath, VTime, World, WorldConfig};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where one rank must stop during a restore replay: the exact
/// application-visible progress it had at capture. A deterministic
/// re-execution reaches this point exactly once — every interposition call
/// advances at least one counted field, so the (counters, seq-table) pair
/// uniquely identifies the capture site.
#[derive(Debug, Clone)]
pub(crate) struct CutSpec {
    /// Captured call counters (compared via
    /// [`CallCounters::same_app_calls`]; drain bookkeeping is excluded
    /// because the replay runs without a live drain).
    pub counters: CallCounters,
    /// Captured `SEQ[]` table.
    pub seq_table: SeqTable,
    /// Captured virtual clock — authoritative: the replayed rank adopts it
    /// at the cut, so restore timing continues from the image, not from
    /// replay accounting drift.
    pub clock: VTime,
    /// The park state the rank was captured in.
    pub state: RankState,
}

impl CutSpec {
    /// Whether the rank ran to completion before the capture (no cut; the
    /// replay simply lets it finish).
    pub fn finished(&self) -> bool {
        self.state == RankState::Finished
    }
}

/// Per-rank cut specifications for a restore-from-image replay, derived
/// from the image's captures.
#[derive(Debug)]
pub(crate) struct RestorePlan {
    /// One cut per rank.
    pub cuts: Vec<CutSpec>,
    /// Set once a rank has parked at (or been found past) its cut; cut
    /// checks short-circuit afterwards.
    pub reached: Vec<AtomicBool>,
}

impl RestorePlan {
    /// Builds the plan from an image.
    pub fn from_image(image: &Checkpoint) -> RestorePlan {
        let cuts: Vec<CutSpec> = image
            .captures
            .iter()
            .map(|c| CutSpec {
                counters: c.counters,
                seq_table: c.seq_table.clone(),
                clock: c.clock,
                state: c.state,
            })
            .collect();
        let reached = cuts.iter().map(|_| AtomicBool::new(false)).collect();
        RestorePlan { cuts, reached }
    }
}

/// Everything the ranks and the coordinator share for one execution.
pub struct Session {
    /// The out-of-band control plane (rank states, mirrors, targets).
    pub control: Arc<CkptControl>,
    /// Target-update message bus (the drain's out-of-band p2p channel).
    pub bus: UpdateBus,
    /// Append-only log of collective participations (the safe-cut oracle's
    /// input).
    pub exec_log: ExecutionLog,
    /// Drain-protocol event trace.
    pub trace: DrainTrace,
    /// The current lower-half generation. Replaced on restart.
    pub world: Mutex<Arc<World>>,
    /// Configuration used to build each lower-half generation.
    pub cfg: WorldConfig,
    /// The coordination protocol in force.
    pub protocol: Protocol,
    /// Present when this session is a restore-from-image replay: ranks
    /// re-execute the captured program and park at their recorded cuts.
    pub(crate) restore: Option<RestorePlan>,
    /// True while an asynchronous drain (coordinator handed the image to
    /// the background writer, ranks already resumed) is in flight. An
    /// armed fault reads it to place a `DuringAsyncDrain` death.
    pub bg_drain_inflight: AtomicBool,
    /// This attempt's planned fault until it strikes, checked on every
    /// wake of [`Session::wait_for`].
    pub(crate) fault: Mutex<Option<ArmedFault>>,
}

/// Why an observer wait ended without its condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interrupted {
    /// An injected death poisoned the world.
    Died,
    /// The stall watch saw no progress for its whole window.
    Stalled,
}

impl Session {
    /// Builds the shared state and generation-0 world for `cfg`.
    pub fn new(cfg: WorldConfig, protocol: Protocol) -> Arc<Session> {
        Self::build(cfg, protocol, None)
    }

    /// Builds a restore-replay session: the world is the image-equivalent
    /// replay world and `plan` carries each rank's cut.
    pub(crate) fn for_restore(
        cfg: WorldConfig,
        protocol: Protocol,
        plan: RestorePlan,
    ) -> Arc<Session> {
        Self::build(cfg, protocol, Some(plan))
    }

    fn build(cfg: WorldConfig, protocol: Protocol, restore: Option<RestorePlan>) -> Arc<Session> {
        let world = World::new(cfg.clone());
        // One WakeupStats block per session: the scheduler's. The control
        // plane's park backstops record into the same counter as the
        // scheduler and mailbox backstops, so "timed wakeups across this
        // run" is a single number.
        let stats = Arc::clone(world.scheduler().stats());
        Arc::new(Session {
            control: CkptControl::new_with_stats(cfg.n_ranks, stats),
            bus: UpdateBus::new(cfg.n_ranks),
            exec_log: ExecutionLog::new(),
            trace: DrainTrace::new(),
            world: Mutex::new(world),
            cfg,
            protocol,
            restore,
            bg_drain_inflight: AtomicBool::new(false),
            fault: Mutex::new(None),
        })
    }

    /// The observer's one wait, on [`CkptControl::events`] with `trigger`
    /// and the fault's time armed: each check strikes a due fault, then
    /// ends on death or when `ready` yields (after an expiry with nothing
    /// announced since, a lost announcement: counted); expiries feed the
    /// stall watch.
    pub(crate) fn wait_for<T>(
        &self,
        trigger: Option<Threshold>,
        stall: Option<Duration>,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Result<T, Interrupted> {
        let control = &self.control;
        let timeout = stall.map_or(OBSERVER_BACKSTOP, |w| OBSERVER_BACKSTOP.min(w / 2));
        let (mut last_fp, mut since) = (self.progress_fingerprint(), Instant::now());
        let (mut expired, stats) = (false, Arc::clone(self.current_world().scheduler().stats()));
        let mut last = 0;
        let out = loop {
            self.observe(trigger);
            let token = control.events.token();
            self.strike_if_due();
            let done = match self.poisoned() {
                true => Some(Err(Interrupted::Died)),
                false => ready().map(Ok),
            };
            if let Some(r) = done {
                // Lost only if nothing was announced since the expired
                // wait: an announcement just after it raced the timeout.
                if expired && control.events.token() == last {
                    stats.record_backstop_expiry();
                }
                break r;
            }
            control.acknowledge(token);
            if let (true, Some(window)) = (expired, stall) {
                let fp = self.progress_fingerprint();
                if fp != last_fp {
                    (last_fp, since) = (fp, Instant::now());
                } else if since.elapsed() >= window {
                    break Err(Interrupted::Stalled);
                }
            }
            (expired, last) = (!control.events.wait_since(token, timeout), token);
        };
        self.unobserve();
        out
    }

    /// Arms `trigger` and the planned fault's time (until every rank has
    /// reached it) for ranks to announce.
    pub(crate) fn observe(&self, trigger: Option<Threshold>) {
        let fault = self.fault.lock().as_ref().map(ArmedFault::after);
        let fault = fault.filter(|&t| !self.control.reached(t));
        self.control.arm(trigger.into_iter().chain(fault));
    }

    /// Stops observing: disarms, and releases any held rank.
    pub(crate) fn unobserve(&self) {
        self.control.arm([]);
        self.control.acknowledge(u64::MAX);
    }

    /// Fires the armed fault if its trigger holds now.
    fn strike_if_due(&self) {
        let due = self.fault.lock().take_if(|f| f.due(self));
        if let Some(fault) = due {
            fault.strike(self);
        }
    }

    /// Digest of everything that moves while ranks make progress —
    /// clocks, call counts, states, update counters: equal across a stall
    /// window means wedged.
    fn progress_fingerprint(&self) -> u64 {
        let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for rc in &self.control.ranks {
            let (sent, recv) = (rc.updates_sent.load(SeqCst), rc.updates_recv.load(SeqCst));
            h = mix(mix(h, rc.clock_ns.load(SeqCst)), rc.coll_calls.load(SeqCst));
            h = mix(mix(mix(h, sent), recv), rc.state() as u64);
        }
        h
    }

    /// The current lower-half world.
    pub fn current_world(&self) -> Arc<World> {
        Arc::clone(&self.world.lock())
    }

    /// Backstop-expiry wakeups recorded so far across every wait path of
    /// this session (mailbox receive waits, checkpoint parks, the step
    /// driver's rescue sweep). The scheduler — and with it this counter —
    /// survives restarts, so the count spans lower-half generations.
    pub fn backstop_expiries(&self) -> u64 {
        self.current_world().scheduler().stats().backstop_expiries()
    }

    /// Injects a fault into the running execution: poisons the fail plane
    /// (first injection wins), marks the victim ranks dead so stall
    /// accounting stops expecting them, and wakes every wait path — ranks
    /// asleep on their own thread observe the poison and unwind promptly
    /// with a [`mpisim::KilledByFault`] marker instead of draining a
    /// backstop timeout; ranks on the worker pool are retired at their
    /// next step.
    ///
    /// Returns `false` if the plane was already poisoned (the earlier death
    /// stands and this one is dropped).
    pub fn inject_failure(&self, death: RankDeath) -> bool {
        let world = self.current_world();
        let victims = death.victims.clone();
        if !world.fail_plane().inject(death) {
            return false;
        }
        for &v in &victims {
            if let Some(ctl) = self.control.ranks.get(v) {
                ctl.mark_dead();
            }
        }
        // Wake order: lower-half waits first (mailboxes, collective
        // instances), then the control plane. Every site re-checks the
        // poison flag on wake, so the order only affects latency, not
        // correctness.
        world.poison_wake();
        for ctl in self.control.ranks.iter() {
            ctl.wake();
        }
        self.control.events.bump();
        true
    }

    /// Whether an injected death has poisoned the current execution.
    pub fn poisoned(&self) -> bool {
        self.current_world().fail_plane().poisoned()
    }

    /// The recorded death, if any.
    pub fn death(&self) -> Option<RankDeath> {
        self.current_world().fail_plane().death()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("n_ranks", &self.cfg.n_ranks)
            .field("protocol", &self.protocol)
            .field("restore", &self.restore.is_some())
            .finish()
    }
}
