//! The out-of-band control plane shared by ranks and the checkpoint
//! coordinator — the analog of DMTCP's coordinator socket plus the
//! per-process checkpoint thread.
//!
//! In MANA, a checkpoint request arrives asynchronously (a signal); the
//! per-process checkpoint *thread* can read protocol state (sequence
//! tables) without the MPI thread's cooperation, and the MPI thread
//! observes `ckpt_pending` at its next wrapper call. `CkptControl` mirrors
//! that structure: the coordinator reads rank-published state through
//! shared memory; ranks observe flags at interposition points.
//!
//! ## Memory-ordering contract (the snapshot race)
//!
//! A rank increments `SEQ[g]` *inside the shared-table mutex* and only then
//! loads `pending` (SeqCst). The coordinator stores `pending = true`
//! (SeqCst) *before* locking and snapshotting the tables. Consequently, if
//! a rank's load saw `pending == false`, its increment happened before the
//! coordinator's snapshot and is included in the target maximum; if it saw
//! `true`, the rank itself runs the overshoot path (raise + push updates).
//! Either way no collective escapes the target computation — this is the
//! linchpin of Invariant 2.

use crate::ggid::Ggid;
use crate::seq::SeqTable;
use mpisim::WakeupStats;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Lost-wakeup backstop for [`RankCtl::wait_event_since`]. The wait is
/// event-driven — [`RankCtl::wake`] counts the event under the park
/// mutex, so a rank between its poll and its wait can never miss it — and
/// this timeout is defense in depth only. It is deliberately long: every
/// rank of a quiescing world parks here at once, and a short re-check
/// would turn thousands of parked ranks into timed pollers for the whole
/// capture window (the pre-scheduler 200 µs re-check throttled 256-rank
/// captures by an order of magnitude). Every expiry is counted in the
/// world's [`WakeupStats`]; a healthy tier-1-scale run never pays one,
/// and a capture window outlasting the backstop (possible at thousands
/// of parked ranks on a few workers) costs one counted wakeup per rank
/// per second rather than two hundred.
const PARK_BACKSTOP: Duration = Duration::from_secs(1);

/// Rank lifecycle states, published for the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RankState {
    /// Executing normally (no checkpoint, or checkpoint just requested).
    Running = 0,
    /// Checkpoint pending, below some target, executing the drain.
    Draining = 1,
    /// At all targets, parked at a collective-wrapper entry (Algorithm 3's
    /// receive loop).
    EntryParked = 2,
    /// At all targets, blocked in a point-to-point wait, cooperating.
    RecvParked = 3,
    /// Inside the 2PC trivial barrier's test loop.
    InTrivialBarrier = 4,
    /// Parked for the safe-state capture (quiesced).
    Quiesced = 5,
    /// Application function returned.
    Finished = 6,
}

impl RankState {
    /// Decodes a state byte (checkpoint-image wire format and the shared
    /// control plane both store states as `u8`).
    ///
    /// # Panics
    /// Panics on an out-of-range byte; image decoding validates first.
    pub fn from_u8(v: u8) -> RankState {
        match v {
            0 => RankState::Running,
            1 => RankState::Draining,
            2 => RankState::EntryParked,
            3 => RankState::RecvParked,
            4 => RankState::InTrivialBarrier,
            5 => RankState::Quiesced,
            6 => RankState::Finished,
            _ => unreachable!("bad RankState {v}"),
        }
    }

    /// States in which a rank is stably parked for capture.
    pub fn is_parked(self) -> bool {
        matches!(
            self,
            RankState::EntryParked
                | RankState::RecvParked
                | RankState::InTrivialBarrier
                | RankState::Quiesced
                | RankState::Finished
        )
    }
}

/// Per-rank shared control block.
pub struct RankCtl {
    /// Mirror of the rank's local sequence table (rank writes under lock at
    /// every collective; coordinator snapshots for Algorithm 1).
    pub seq_mirror: Mutex<SeqTable>,
    /// Coordinator-computed initial targets for the current checkpoint.
    pub initial_targets: Mutex<HashMap<Ggid, u64>>,
    /// Set once `initial_targets` is valid for the current checkpoint.
    pub targets_ready: AtomicBool,
    /// Published lifecycle state.
    state: AtomicU8,
    /// Whether the rank has met all its targets (kept current by the rank).
    pub targets_met: AtomicBool,
    /// Target-update messages sent / received (termination detection by
    /// double counting: commit only when globally balanced).
    pub updates_sent: AtomicU64,
    /// See `updates_sent`.
    pub updates_recv: AtomicU64,
    /// True while the rank is inside a real collective call (lower half).
    pub in_collective: AtomicBool,
    /// The rank's virtual clock, in nanoseconds (relaxed mirror for
    /// trigger scheduling).
    pub clock_ns: AtomicU64,
    /// Total collective calls (blocking + non-blocking initiations) the
    /// rank has made, published alongside the clock so collective-count
    /// trigger policies can observe progress without touching the mirrors.
    pub coll_calls: AtomicU64,
    /// 2PC: the pending trivial barrier (vcomm, collective ordinal) the
    /// rank was sitting in at capture, to re-issue at restart.
    pub pending_barrier: Mutex<Option<(u64, u64)>>,
    /// Counters restored from a checkpoint image by the coordinator's
    /// restart path; the rank adopts them while attaching the fresh lower
    /// half so the image — not thread-local leftovers — is authoritative.
    pub restored_counters: Mutex<Option<crate::counters::CallCounters>>,
    /// Virtual-time charge (nanoseconds) for checkpoint-image storage I/O
    /// (Lustre write at capture, plus read at restart), installed by the
    /// coordinator before resume and consumed once by the rank.
    pub io_charge_ns: AtomicU64,
    /// Runtime state published by the rank at quiesce, consumed by the
    /// coordinator to build the checkpoint image.
    pub capture_slot: Mutex<Option<crate::capture::RuntimeCapture>>,
    /// A fresh lower half installed by the coordinator before waking the
    /// rank (warm restart); `None` means continue on the current world.
    pub new_world: Mutex<Option<std::sync::Arc<mpisim::World>>>,
    /// After replaying its communicator log into a new lower half, the rank
    /// publishes its vcomm → new lower-CommId mapping here so the
    /// coordinator can re-deposit drained messages.
    pub replayed_comms: Mutex<HashMap<u64, mpisim::types::CommId>>,
    /// Set when a fault injector declares this rank dead. One-way for the
    /// life of a world attempt: a dead rank never meets another target and
    /// never parks, so drain/quiesce accounting must treat it as finished
    /// — otherwise the stall watchdog would report a spurious `P2pStall`
    /// for a death the injector already published as a typed event.
    dead: AtomicBool,
    /// The one wait primitive of a rank on its own thread: every event
    /// that can unblock it — control-plane or lower-half — is counted
    /// here by [`RankCtl::wake`].
    park: Mutex<ParkState>,
    park_cv: Condvar,
    /// The worker pool's wake hook: invoked by every [`RankCtl::wake`] so
    /// a rank parked on the pool learns about the same events through its
    /// driver. Unset for ranks on threads; set at most once, so a wake
    /// reads it without a lock or a reference count.
    waker: OnceLock<Arc<dyn Fn() + Send + Sync>>,
    /// Shared backstop-expiry accounting (the world's [`WakeupStats`]).
    stats: Arc<WakeupStats>,
}

#[derive(Default)]
struct ParkState {
    /// Monotone count of [`RankCtl::wake`] calls: the event token.
    generation: u64,
    /// Threads inside [`RankCtl::wait_event_since`]'s condvar wait. A wake
    /// notifies only when this is non-zero: most wakes (every mailbox
    /// deposit of a thread world, every wake of a step world) find nobody
    /// waiting, and an unconditional `notify_all` is a futex call each.
    waiters: usize,
}

impl RankCtl {
    fn new(stats: Arc<WakeupStats>) -> Self {
        RankCtl {
            seq_mirror: Mutex::new(SeqTable::new()),
            initial_targets: Mutex::new(HashMap::new()),
            targets_ready: AtomicBool::new(false),
            state: AtomicU8::new(RankState::Running as u8),
            targets_met: AtomicBool::new(true),
            updates_sent: AtomicU64::new(0),
            updates_recv: AtomicU64::new(0),
            in_collective: AtomicBool::new(false),
            clock_ns: AtomicU64::new(0),
            coll_calls: AtomicU64::new(0),
            pending_barrier: Mutex::new(None),
            restored_counters: Mutex::new(None),
            io_charge_ns: AtomicU64::new(0),
            capture_slot: Mutex::new(None),
            new_world: Mutex::new(None),
            replayed_comms: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            park: Mutex::new(ParkState::default()),
            park_cv: Condvar::new(),
            waker: OnceLock::new(),
            stats,
        }
    }

    /// Installs the worker pool's waker, invoked on every
    /// [`RankCtl::wake`]. Wired by the launcher for pool-driven sessions;
    /// sessions with a thread per rank never set it.
    ///
    /// # Panics
    /// Panics if a waker is already installed: a control block belongs to
    /// one rank of one session, which has one driver.
    pub fn set_waker(&self, w: Arc<dyn Fn() + Send + Sync>) {
        assert!(self.waker.set(w).is_ok(), "rank waker installed twice");
    }

    /// Whether a worker pool steps this rank (a waker is installed): its
    /// lower-half events go to the pool, not to the event counter a
    /// blocking wait sleeps on.
    #[inline]
    pub fn pool_driven(&self) -> bool {
        self.waker.get().is_some()
    }

    /// Declares this rank dead (fault injection). Not reset by checkpoint
    /// resumes — only a fresh control plane (a recovery attempt's new
    /// session) starts ranks alive again.
    pub fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    /// Whether a fault injector declared this rank dead.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Publishes a state transition.
    pub fn set_state(&self, s: RankState) {
        self.state.store(s as u8, Ordering::SeqCst);
    }

    /// Reads the published state.
    pub fn state(&self) -> RankState {
        RankState::from_u8(self.state.load(Ordering::SeqCst))
    }

    /// Snapshot of the event counter, for race-free waiting: take the
    /// token *before* polling the operation, then pass it to
    /// [`RankCtl::wait_event_since`] — an event landing between the poll
    /// and the wait bumps the counter and the wait returns at once.
    pub fn event_token(&self) -> u64 {
        self.park.lock().generation
    }

    /// Blocks the calling rank thread until a [`RankCtl::wake`] lands after
    /// `token` was taken, or the `PARK_BACKSTOP` lost-wakeup timeout
    /// elapses; the caller then polls again. Every rank of a quiescing
    /// world parks here at once — outside the scheduler's worker pool — so
    /// this wait must be event-driven: a short timed poll multiplied by
    /// thousands of parked ranks would saturate the host exactly when the
    /// coordinator needs it. A wait that expires the backstop with the
    /// counter unchanged is recorded as a backstop-expiry wakeup.
    pub fn wait_event_since(&self, token: u64) {
        let mut p = self.park.lock();
        if p.generation != token {
            return;
        }
        p.waiters += 1;
        let timed_out = self.park_cv.wait_for(&mut p, PARK_BACKSTOP).timed_out();
        p.waiters -= 1;
        if timed_out && p.generation == token {
            self.stats.record_backstop_expiry();
        }
    }

    /// Announces an event to the rank: a phase change, target install, bus
    /// send, resume, fresh world or poison from the control plane, or —
    /// through the waker a runner installs into the lower half — a mailbox
    /// deposit or collective completion. The state the event stands for
    /// is always published *before* `wake` is called. The event is
    /// counted under the park mutex, so a rank between its poll and its
    /// wait cannot miss it; a waiter registers and starts waiting under
    /// the same mutex, so one that is not counted yet will see the new
    /// generation before it waits.
    pub fn wake(&self) {
        let waiting = {
            let mut p = self.park.lock();
            p.generation += 1;
            p.waiters > 0
        };
        if waiting {
            self.park_cv.notify_all();
        }
        if let Some(w) = self.waker.get() {
            w();
        }
    }
}

/// Phases of a checkpoint, coordinator-owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CkptPhase {
    /// No checkpoint in progress.
    Idle = 0,
    /// Request issued; coordinator computing/distributing targets; ranks
    /// draining toward targets.
    Draining = 1,
    /// All targets met globally; ranks must park at their next
    /// interposition point.
    Quiescing = 2,
    /// All ranks parked; coordinator capturing images.
    Capturing = 3,
    /// Images written; ranks resuming (possibly into a new lower half).
    Resuming = 4,
}

impl CkptPhase {
    fn from_u8(v: u8) -> CkptPhase {
        match v {
            0 => CkptPhase::Idle,
            1 => CkptPhase::Draining,
            2 => CkptPhase::Quiescing,
            3 => CkptPhase::Capturing,
            4 => CkptPhase::Resuming,
            _ => unreachable!("bad CkptPhase {v}"),
        }
    }
}

/// The shared control plane.
pub struct CkptControl {
    /// Number of ranks.
    pub n_ranks: usize,
    /// The asynchronous checkpoint-request flag (the "signal").
    pending: AtomicBool,
    phase: AtomicU8,
    /// Count of *retired* checkpoint attempts (committed or aborted).
    /// Ranks key per-checkpoint caches (installed drain targets) on this:
    /// it must advance before the next request opens, even when the
    /// not-pending gap between two attempts is too short to observe.
    pub ckpt_epoch: AtomicU64,
    /// Lower-half generation ranks should be attached to (bumped by warm
    /// restart); ranks compare at resume.
    pub world_epoch: AtomicU64,
    /// Set by the runner at teardown; finished ranks' service loops exit.
    pub shutdown: AtomicBool,
    /// Count of ranks that finished replaying communicator logs into a new
    /// lower half (warm restart barrier, coordinator side).
    pub replayed_count: AtomicU64,
    /// Resume generation: quiesced ranks fully resume only once this
    /// exceeds the value they captured, which lets the coordinator
    /// re-deposit drained messages after replay but before the app runs.
    pub resume_gen: AtomicU64,
    /// Count of ranks that left a capture park *uncaptured* (the 2PC free
    /// pass): the one way a park state goes back to `Running` inside a
    /// quiesce. A rank bumps it *after* publishing `Running`;
    /// [`CkptControl::all_quiesced`] reads it around its scan.
    pub free_passes: AtomicU64,
    /// Per-rank blocks.
    pub ranks: Vec<RankCtl>,
}

impl CkptControl {
    /// Builds the control plane for `n_ranks` with a private
    /// [`WakeupStats`] block (unit tests; sessions share the world's —
    /// see [`CkptControl::new_with_stats`]).
    pub fn new(n_ranks: usize) -> Arc<Self> {
        Self::new_with_stats(n_ranks, Arc::new(WakeupStats::default()))
    }

    /// Builds the control plane for `n_ranks`, recording backstop-expiry
    /// wakeups of the per-rank parks into `stats` — normally the
    /// scheduler's per-world block, so every wait path of one world is
    /// counted in one place.
    pub fn new_with_stats(n_ranks: usize, stats: Arc<WakeupStats>) -> Arc<Self> {
        Arc::new(CkptControl {
            n_ranks,
            pending: AtomicBool::new(false),
            phase: AtomicU8::new(CkptPhase::Idle as u8),
            ckpt_epoch: AtomicU64::new(0),
            world_epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            replayed_count: AtomicU64::new(0),
            resume_gen: AtomicU64::new(0),
            free_passes: AtomicU64::new(0),
            ranks: (0..n_ranks)
                .map(|_| RankCtl::new(Arc::clone(&stats)))
                .collect(),
        })
    }

    /// Whether a checkpoint request is outstanding (the wrapper fast path:
    /// one atomic load).
    #[inline]
    pub fn is_pending(&self) -> bool {
        self.pending.load(Ordering::SeqCst)
    }

    /// Current phase.
    pub fn phase(&self) -> CkptPhase {
        CkptPhase::from_u8(self.phase.load(Ordering::SeqCst))
    }

    /// Coordinator: issues the checkpoint request. Must be followed by
    /// target computation (see [`CkptControl::compute_and_install_targets`]).
    pub fn request_checkpoint(&self) {
        assert_eq!(self.phase(), CkptPhase::Idle, "checkpoint already running");
        // Invalidate stale met-flags before the request becomes visible so
        // the coordinator can never observe a pre-checkpoint `true`.
        for r in &self.ranks {
            r.targets_met.store(false, Ordering::SeqCst);
        }
        self.set_phase(CkptPhase::Draining);
        self.pending.store(true, Ordering::SeqCst);
    }

    /// Coordinator: transitions phase.
    pub fn set_phase(&self, p: CkptPhase) {
        self.phase.store(p as u8, Ordering::SeqCst);
        for r in &self.ranks {
            r.wake();
        }
    }

    /// Coordinator: clears the pending flag at resume.
    pub fn clear_pending(&self) {
        self.pending.store(false, Ordering::SeqCst);
        self.set_phase(CkptPhase::Idle);
        for r in &self.ranks {
            r.wake();
        }
    }

    /// Coordinator (Algorithm 1): snapshots every rank's sequence table and
    /// computes `TARGET[g] = max over ranks of SEQ[g]`, then installs the
    /// result in every *member* rank's `initial_targets` and flips
    /// `targets_ready`.
    ///
    /// Non-members never get a target for a group (their `SEQ` is zero and
    /// they cannot participate), matching §4.1.
    pub fn compute_and_install_targets(&self) -> HashMap<Ggid, u64> {
        debug_assert!(self.is_pending());
        let mut maxes: HashMap<Ggid, (u64, std::sync::Arc<[usize]>)> = HashMap::new();
        for rc in &self.ranks {
            let table = rc.seq_mirror.lock();
            for (g, e) in table.iter() {
                let entry = maxes.entry(*g).or_insert((0, e.members.clone()));
                entry.0 = entry.0.max(e.seq);
            }
        }
        // Install per member.
        for (rank_idx, rc) in self.ranks.iter().enumerate() {
            let mut t = rc.initial_targets.lock();
            t.clear();
            for (g, (target, members)) in &maxes {
                if members.contains(&rank_idx) {
                    t.insert(*g, *target);
                }
            }
        }
        for rc in &self.ranks {
            rc.targets_ready.store(true, Ordering::SeqCst);
            rc.wake();
        }
        maxes.into_iter().map(|(g, (t, _))| (g, t)).collect()
    }

    /// Coordinator: resets per-checkpoint state after resume.
    pub fn reset_after_checkpoint(&self) {
        for rc in &self.ranks {
            rc.targets_ready.store(false, Ordering::SeqCst);
            rc.initial_targets.lock().clear();
            rc.updates_sent.store(0, Ordering::SeqCst);
            rc.updates_recv.store(0, Ordering::SeqCst);
        }
        self.ckpt_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Global balance check: all target-update messages sent have been
    /// received (termination detection for the drain phase).
    pub fn updates_balanced(&self) -> bool {
        let sent: u64 = self
            .ranks
            .iter()
            .map(|r| r.updates_sent.load(Ordering::SeqCst))
            .sum();
        let recv: u64 = self
            .ranks
            .iter()
            .map(|r| r.updates_recv.load(Ordering::SeqCst))
            .sum();
        sent == recv
    }

    /// Whether every rank currently reports all targets met. Finished
    /// ranks count as met: a correct MPI program cannot owe collective
    /// calls after returning (its peers could never complete them). Dead
    /// ranks count as met for the same reason — they will never drain
    /// further, and their death is already a typed event, not a stall.
    pub fn all_targets_met(&self) -> bool {
        self.ranks.iter().all(|r| {
            r.targets_met.load(Ordering::SeqCst) || r.state() == RankState::Finished || r.is_dead()
        })
    }

    /// Whether any rank is inside a real collective call.
    pub fn any_in_collective(&self) -> bool {
        self.ranks
            .iter()
            .any(|r| r.in_collective.load(Ordering::SeqCst))
    }

    /// Whether every rank is stably parked. Dead ranks count as parked
    /// (they are permanently quiet); callers that go on to capture must
    /// check the fail plane first — a poisoned world has no capturable
    /// safe state.
    pub fn all_parked(&self) -> bool {
        self.ranks
            .iter()
            .all(|r| r.state().is_parked() || r.is_dead())
    }

    /// Whether every rank is parked *for capture* (quiesced, cooperating
    /// in a receive wait, inside a trivial barrier, or finished), as one
    /// consistent observation although the scan reads one rank at a
    /// time. A state read here can go stale only through a free pass.
    /// Suppose rank `x`, read as parked, is running when the scan ends
    /// with the count unchanged: `x`'s own count is then still to come,
    /// so the real collective behind its barrier has not finished, so the
    /// member `L` that completed that barrier has been running since it
    /// arrived there — yet `L` too was read as parked, hence earlier, and
    /// un-parked since: by a free pass of its own, whose count (made
    /// before `L` went on to `x`'s barrier) landed inside the scan. So an
    /// unchanged count means every state read still held at the end.
    pub fn all_quiesced(&self) -> bool {
        let passes = self.free_passes.load(Ordering::SeqCst);
        self.ranks.iter().all(|r| {
            matches!(
                r.state(),
                RankState::Quiesced
                    | RankState::RecvParked
                    | RankState::InTrivialBarrier
                    | RankState::Finished
            )
        }) && self.free_passes.load(Ordering::SeqCst) == passes
    }

    /// Whether some live, unfinished rank still shows a park state. No
    /// rank parks between checkpoints, so outside one such a state is
    /// stale: the rank was released (from a capture, or from a restore
    /// cut) and has not run since to publish `Running`.
    pub fn any_stale_park(&self) -> bool {
        self.ranks.iter().any(|r| {
            let s = r.state();
            s != RankState::Finished && s.is_parked() && !r.is_dead()
        })
    }

    /// Minimum published virtual clock across ranks, in seconds.
    pub fn min_clock_secs(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.clock_ns.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0) as f64
            * 1e-9
    }
}

impl std::fmt::Debug for CkptControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkptControl")
            .field("n_ranks", &self.n_ranks)
            .field("pending", &self.is_pending())
            .field("phase", &self.phase())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_phases() {
        let c = CkptControl::new(2);
        assert!(!c.is_pending());
        assert_eq!(c.phase(), CkptPhase::Idle);
        c.request_checkpoint();
        assert!(c.is_pending());
        assert_eq!(c.phase(), CkptPhase::Draining);
        c.clear_pending();
        assert!(!c.is_pending());
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn double_request_panics() {
        let c = CkptControl::new(1);
        c.request_checkpoint();
        c.request_checkpoint();
    }

    #[test]
    fn target_computation_max_and_membership() {
        let c = CkptControl::new(3);
        let g_all = Ggid(1);
        let g_01 = Ggid(2);
        {
            let mut t = c.ranks[0].seq_mirror.lock();
            t.register_group(g_all, vec![0, 1, 2]);
            t.register_group(g_01, vec![0, 1]);
            t.increment(g_all); // rank0: SEQ[all]=1
            t.increment(g_01);
            t.increment(g_01); // rank0: SEQ[01]=2
        }
        {
            let mut t = c.ranks[1].seq_mirror.lock();
            t.register_group(g_all, vec![0, 1, 2]);
            t.increment(g_all);
            t.increment(g_all); // rank1: SEQ[all]=2
        }
        {
            let mut t = c.ranks[2].seq_mirror.lock();
            t.register_group(g_all, vec![0, 1, 2]);
        }
        c.request_checkpoint();
        let maxes = c.compute_and_install_targets();
        assert_eq!(maxes[&g_all], 2);
        assert_eq!(maxes[&g_01], 2);
        // Rank 2 is not in g_01 and must not get a target for it.
        let t2 = c.ranks[2].initial_targets.lock();
        assert_eq!(t2.get(&g_all), Some(&2));
        assert!(!t2.contains_key(&g_01));
        // Rank 1 never used g_01 but IS NOT a member either.
        let t1 = c.ranks[1].initial_targets.lock();
        assert_eq!(t1.get(&g_01), Some(&2), "members get targets even at SEQ=0");
    }

    #[test]
    fn balance_and_met_checks() {
        let c = CkptControl::new(2);
        assert!(c.updates_balanced());
        c.ranks[0].updates_sent.fetch_add(3, Ordering::SeqCst);
        assert!(!c.updates_balanced());
        c.ranks[1].updates_recv.fetch_add(3, Ordering::SeqCst);
        assert!(c.updates_balanced());
        assert!(c.all_targets_met());
        c.ranks[0].targets_met.store(false, Ordering::SeqCst);
        assert!(!c.all_targets_met());
    }

    #[test]
    fn event_token_closes_the_poll_to_wait_window() {
        let c = CkptControl::new(1);
        let ctl = &c.ranks[0];
        // A wake with no waiter still advances the token...
        let token = ctl.event_token();
        ctl.wake();
        assert_ne!(ctl.event_token(), token, "token bumped with nobody waiting");
        // ...so a wake landing between the token and the wait makes the
        // wait return at once, not after the backstop, and records none.
        let t = std::time::Instant::now();
        ctl.wait_event_since(token);
        assert!(
            t.elapsed() < PARK_BACKSTOP / 2,
            "raced wake cost the backstop"
        );
        assert_eq!(ctl.stats.backstop_expiries(), 0);
    }

    #[test]
    fn parked_waiter_is_woken_by_the_gated_notify() {
        let c = CkptControl::new(1);
        let ctl = &c.ranks[0];
        let token = ctl.event_token();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t = std::time::Instant::now();
                ctl.wait_event_since(token);
                t.elapsed()
            });
            // Force the interleaving: the wake must find a registered
            // waiter, which is the only case that notifies.
            while ctl.park.lock().waiters == 0 {
                std::thread::yield_now();
            }
            ctl.wake();
            let waited = waiter.join().unwrap();
            assert!(waited < PARK_BACKSTOP / 2, "woken, not timed out");
        });
        assert_eq!(ctl.park.lock().waiters, 0, "waiter deregistered");
        assert_eq!(ctl.stats.backstop_expiries(), 0);
    }

    #[test]
    fn a_park_left_over_from_a_released_capture_is_stale() {
        // A released rank keeps its park state until it runs again; a
        // finished or dead rank is never waited for.
        let c = CkptControl::new(3);
        for r in &c.ranks {
            r.set_state(RankState::Running);
        }
        assert!(!c.any_stale_park());
        c.ranks[1].set_state(RankState::InTrivialBarrier);
        assert!(c.any_stale_park());
        c.ranks[1].mark_dead();
        assert!(!c.any_stale_park(), "a dead rank never runs again");
        c.ranks[2].set_state(RankState::Finished);
        assert!(!c.any_stale_park());
        c.ranks[0].set_state(RankState::Quiesced);
        assert!(c.any_stale_park());
    }

    #[test]
    fn dead_ranks_satisfy_drain_and_park_checks() {
        // Regression guard for the stall watchdog: a rank the injector
        // declared dead never meets another target and never parks, so
        // the drain/quiesce predicates must count it as satisfied — a
        // live-looking straggler here is what used to surface as a
        // spurious `P2pStall` for an already-published death.
        let c = CkptControl::new(2);
        c.ranks[0].targets_met.store(false, Ordering::SeqCst);
        c.ranks[0].set_state(RankState::Running);
        c.ranks[1].set_state(RankState::Quiesced);
        assert!(!c.all_targets_met());
        assert!(!c.all_parked());
        c.ranks[0].mark_dead();
        assert!(c.ranks[0].is_dead());
        assert!(c.all_targets_met(), "a dead rank can never owe a target");
        assert!(c.all_parked(), "a dead rank is permanently quiet");
    }

    #[test]
    fn states_parked_classification() {
        assert!(!RankState::Running.is_parked());
        assert!(!RankState::Draining.is_parked());
        assert!(RankState::EntryParked.is_parked());
        assert!(RankState::Quiesced.is_parked());
        assert!(RankState::Finished.is_parked());
        assert!(RankState::InTrivialBarrier.is_parked());
    }
}
