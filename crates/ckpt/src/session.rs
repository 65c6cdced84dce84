//! Shared state of one checkpointable execution: the control plane, the
//! target-update bus, the observability logs, and the current lower-half
//! generation. A session optionally carries a [`RestorePlan`] when the
//! execution is a restore-from-image replay rather than a fresh run.

use crate::bus::UpdateBus;
use crate::image::Checkpoint;
use mana_core::{
    CallCounters, CkptControl, DrainTrace, ExecutionLog, Protocol, RankState, SeqTable,
};
use mpisim::{RankDeath, VTime, World, WorldConfig};
use parking_lot::Mutex;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Where one rank must stop during a restore replay: the exact
/// application-visible progress it had at capture. A deterministic
/// re-execution reaches this point exactly once — every interposition call
/// advances at least one counted field, so the (counters, seq-table) pair
/// uniquely identifies the capture site.
#[derive(Debug, Clone)]
pub struct CutSpec {
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
pub struct RestorePlan {
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
    pub restore: Option<RestorePlan>,
    /// True while an asynchronous drain (coordinator handed the image to
    /// the background writer, ranks already resumed) is in flight. Fault
    /// injectors read it to place `DuringAsyncDrain` deaths.
    pub bg_drain_inflight: AtomicBool,
}

impl Session {
    /// Builds the shared state and generation-0 world for `cfg`.
    pub fn new(cfg: WorldConfig, protocol: Protocol) -> Arc<Session> {
        Self::build(cfg, protocol, None)
    }

    /// Builds a restore-replay session: the world is the image-equivalent
    /// replay world and `plan` carries each rank's cut.
    pub fn for_restore(cfg: WorldConfig, protocol: Protocol, plan: RestorePlan) -> Arc<Session> {
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
        })
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
