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
//!
//! ## Memory-ordering contract (the observer side)
//!
//! Every coordinator-side wait sleeps on [`CkptControl::events`], never on
//! the wall clock. A rank *publishes* what such a predicate reads *before*
//! it bumps the counter; an observer takes its token *before* it checks,
//! so a bump after the check ends the sleep at once. A progress threshold
//! is armed ([`CkptControl::arm`]) before the token; a rank swaps its
//! progress in, then loads the threshold ([`CkptControl::publish_progress`],
//! all `SeqCst`), so its load sees the threshold or the scan sees its swap.

use crate::ggid::Ggid;
use crate::seq::SeqTable;
use mpisim::{EventCount, WakeupStats};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Lost-wakeup backstop for [`RankCtl::wait_event_since`], counted in
/// [`WakeupStats`]. Long: every rank of a quiescing world parks at once,
/// and a short re-check would make thousands of parked ranks pollers.
const PARK_BACKSTOP: Duration = Duration::from_secs(1);

/// Lost-wakeup backstop of an observer's wait on [`CkptControl::events`]
/// (short: one thread observes a world); counted when it finds its
/// condition already true.
pub const OBSERVER_BACKSTOP: Duration = Duration::from_millis(100);

/// A progress threshold every unfinished rank must reach: a trigger
/// policy's next checkpoint, or the time before which a fault cannot strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threshold {
    /// Virtual clock, in integer nanoseconds.
    Clock(u64),
    /// Collective calls (blocking + non-blocking initiations).
    CollCalls(u64),
}

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
    /// The rank's virtual clock, in nanoseconds, published by
    /// [`CkptControl::publish_progress`] for trigger scheduling.
    pub clock_ns: AtomicU64,
    /// Total collective calls (blocking + non-blocking initiations) the
    /// rank has made, published alongside the clock so collective-count
    /// trigger policies can observe progress without touching the mirrors.
    pub coll_calls: AtomicU64,
    /// Virtual-time charge (nanoseconds) for checkpoint-image storage I/O
    /// (Lustre write at capture, plus read at restart), installed by the
    /// coordinator before resume and consumed once by the rank.
    pub io_charge_ns: AtomicU64,
    /// Runtime state published by the rank at quiesce, consumed by the
    /// coordinator to build the checkpoint image.
    pub capture_slot: Mutex<Option<crate::capture::RuntimeCapture>>,
    /// An in-process restart's hand-off, left by the coordinator before it
    /// releases the rank: the next lower half and the drained messages
    /// addressed to this rank, which the rank installs with its own
    /// capture. `None` means continue on the current world.
    pub new_world: Mutex<Option<(Arc<mpisim::World>, Vec<mpisim::SavedMsg>)>>,
    /// The rank's vcomm → lower-half `CommId` map, published with every
    /// capture. The coordinator translates drained messages into vcomm
    /// terms through it, and a continue puts them back through it; the
    /// image never carries it.
    pub lower_comms: Mutex<HashMap<u64, mpisim::types::CommId>>,
    /// Set when a fault injector declares this rank dead. One-way for the
    /// life of a world attempt: a dead rank never meets another target and
    /// never parks, so drain/quiesce accounting must treat it as finished
    /// — otherwise the stall watchdog would report a spurious `P2pStall`
    /// for a death the injector already published as a typed event.
    dead: AtomicBool,
    /// Generation of a crossing announced but not yet handed off (`0`: none).
    crossed: AtomicU64,
    /// The one wait primitive of a rank on its own thread: every event
    /// that can unblock it — control-plane or lower-half — is counted
    /// here by [`RankCtl::wake`]. Take a token *before* polling the
    /// operation and pass it to [`RankCtl::wait_event_since`].
    pub park: EventCount,
    /// [`CkptControl::events`], which a state transition announces to.
    observer: Arc<EventCount>,
    /// The worker pool's wake hook: invoked by every [`RankCtl::wake`] so
    /// a rank parked on the pool learns about the same events through its
    /// driver. Unset for ranks on threads; set at most once, so a wake
    /// reads it without a lock or a reference count.
    waker: OnceLock<Arc<dyn Fn() + Send + Sync>>,
    /// Shared backstop-expiry accounting (the world's [`WakeupStats`]).
    stats: Arc<WakeupStats>,
}

impl RankCtl {
    fn new(stats: Arc<WakeupStats>, observer: Arc<EventCount>) -> Self {
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
            io_charge_ns: AtomicU64::new(0),
            capture_slot: Mutex::new(None),
            new_world: Mutex::new(None),
            lower_comms: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            crossed: AtomicU64::new(0),
            park: EventCount::default(),
            observer,
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

    /// Publishes a state transition and announces it to the observer.
    pub fn set_state(&self, s: RankState) {
        self.state.store(s as u8, Ordering::SeqCst);
        self.observer.bump();
    }

    /// Reads the published state.
    pub fn state(&self) -> RankState {
        RankState::from_u8(self.state.load(Ordering::SeqCst))
    }

    /// Blocks the calling rank thread until a [`RankCtl::wake`] lands after
    /// `token` was taken, or the `PARK_BACKSTOP` lost-wakeup timeout
    /// elapses (counted); the caller then polls again.
    pub fn wait_event_since(&self, token: u64) {
        if !self.park.wait_since(token, PARK_BACKSTOP) {
            self.stats.record_backstop_expiry();
        }
    }

    /// Announces an event to the rank: a phase change, target install, bus
    /// send, resume, fresh world or poison from the control plane, or —
    /// through the waker a runner installs into the lower half — a mailbox
    /// deposit or collective completion. The state the event stands for
    /// is always published *before* `wake` is called. The event is
    /// counted on the rank's [`EventCount`], so a rank between its poll
    /// and its wait cannot miss it.
    pub fn wake(&self) {
        self.park.bump();
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
}

impl CkptPhase {
    fn from_u8(v: u8) -> CkptPhase {
        match v {
            0 => CkptPhase::Idle,
            1 => CkptPhase::Draining,
            2 => CkptPhase::Quiescing,
            3 => CkptPhase::Capturing,
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
    /// Resume generation: quiesced ranks resume only once this exceeds the
    /// value they captured, which lets the coordinator put drained messages
    /// back, or hand out the next lower half, before any of them runs on.
    pub resume_gen: AtomicU64,
    /// Count of ranks that left a capture park *uncaptured* (the 2PC free
    /// pass): the one way a park state goes back to `Running` inside a
    /// quiesce. A rank bumps it *after* publishing `Running`;
    /// [`CkptControl::all_quiesced`] reads it around its scan.
    pub free_passes: AtomicU64,
    /// Per-rank blocks.
    pub ranks: Vec<RankCtl>,
    /// The observer counter every coordinator-side wait sleeps on.
    pub events: Arc<EventCount>,
    /// Armed thresholds (`u64::MAX`: none) whose crossing ranks announce.
    armed_clock_ns: AtomicU64,
    armed_calls: AtomicU64,
    /// The hand-off: the last token the observer checked under
    /// (`u64::MAX` while none observes), announced on `acks`.
    acked: AtomicU64,
    acks: EventCount,
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
        let events = Arc::new(EventCount::default());
        Arc::new(CkptControl {
            n_ranks,
            pending: AtomicBool::new(false),
            phase: AtomicU8::new(CkptPhase::Idle as u8),
            ckpt_epoch: AtomicU64::new(0),
            resume_gen: AtomicU64::new(0),
            free_passes: AtomicU64::new(0),
            ranks: (0..n_ranks)
                .map(|_| RankCtl::new(Arc::clone(&stats), Arc::clone(&events)))
                .collect(),
            events,
            armed_clock_ns: AtomicU64::new(u64::MAX),
            armed_calls: AtomicU64::new(u64::MAX),
            acked: AtomicU64::new(u64::MAX),
            acks: EventCount::default(),
        })
    }

    /// Observer: arms the thresholds ranks announce crossings of — the
    /// lowest of each kind; none of a kind disarms it — and, unless it
    /// already does, starts holding announcing ranks for its checks.
    pub fn arm(&self, thresholds: impl IntoIterator<Item = Threshold>) {
        let (mut clock, mut calls) = (u64::MAX, u64::MAX);
        for t in thresholds {
            match t {
                Threshold::Clock(ns) => clock = clock.min(ns),
                Threshold::CollCalls(n) => calls = calls.min(n),
            }
        }
        self.armed_clock_ns.store(clock, Ordering::SeqCst);
        self.armed_calls.store(calls, Ordering::SeqCst);
        let _ = self
            .acked
            .compare_exchange(u64::MAX, 0, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Rank: publishes its clock and call count, announcing only the
    /// crossing that completes an armed threshold (of two ranks crossing
    /// last together, the later swap sees the other's); the rank then owes
    /// a [`CkptControl::hand_off`].
    pub fn publish_progress(&self, rank: usize, clock_ns: u64, coll_calls: u64) {
        let r = &self.ranks[rank];
        let crossed = |mine: &AtomicU64, now: u64, armed: &AtomicU64| {
            // Only this rank writes it: an unchanged value crosses nothing.
            if mine.load(Ordering::Relaxed) == now {
                return None;
            }
            let prev = mine.swap(now, Ordering::SeqCst);
            let a = armed.load(Ordering::SeqCst);
            (prev < a && now >= a).then_some(a)
        };
        let clock = crossed(&r.clock_ns, clock_ns, &self.armed_clock_ns).map(Threshold::Clock);
        let calls = crossed(&r.coll_calls, coll_calls, &self.armed_calls).map(Threshold::CollCalls);
        if [clock, calls].iter().flatten().any(|&t| self.reached(t)) {
            r.crossed.store(self.events.bump(), Ordering::SeqCst);
        }
    }

    /// Rank: after announcing a crossing, holds at its next stop (before a
    /// sleep, leaving a blocking call or step, at its next compute) until
    /// the observer has checked past it or stops observing — so the run
    /// cannot outrun a slow observer. Bounded by `PARK_BACKSTOP`, counted.
    pub fn hand_off(&self, rank: usize) {
        let r = &self.ranks[rank];
        if r.crossed.load(Ordering::Relaxed) == 0 {
            return;
        }
        let generation = r.crossed.swap(0, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + PARK_BACKSTOP;
        loop {
            let token = self.acks.token();
            if self.acked.load(Ordering::SeqCst) >= generation {
                return;
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if !self.acks.wait_since(token, left) {
                return r.stats.record_backstop_expiry();
            }
        }
    }

    /// Observer: a threshold it arms was passed while nothing was armed —
    /// every rank owes a [`CkptControl::hand_off`], as if it had crossed.
    pub fn hold_all(&self) {
        let generation = self.events.bump();
        for r in &self.ranks {
            r.crossed.store(generation, Ordering::SeqCst);
        }
    }

    /// Observer: announcements up to `token` are checked (`u64::MAX` as it
    /// stops observing), releasing held ranks.
    pub fn acknowledge(&self, token: u64) {
        self.acked.store(token, Ordering::SeqCst);
        self.acks.bump();
    }

    /// Whether every unfinished rank has reached `t` (`false` once all
    /// have finished), stopping at the first rank below.
    pub fn reached(&self, t: Threshold) -> bool {
        let mut live = self
            .ranks
            .iter()
            .filter(|r| r.state() != RankState::Finished);
        let at = |r: &RankCtl| match t {
            Threshold::Clock(ns) => r.clock_ns.load(Ordering::SeqCst) >= ns,
            Threshold::CollCalls(n) => r.coll_calls.load(Ordering::SeqCst) >= n,
        };
        live.next().is_some_and(at) && live.all(at)
    }

    /// Where the run stands in virtual time, ns: the slowest unfinished
    /// rank's clock (a finished rank stopped early), or once every rank
    /// has finished, the last one's.
    pub fn min_unfinished_clock_ns(&self) -> u64 {
        let clock = |r: &RankCtl| r.clock_ns.load(Ordering::SeqCst);
        self.ranks
            .iter()
            .filter(|r| r.state() != RankState::Finished)
            .map(clock)
            .min()
            .unwrap_or_else(|| self.ranks.iter().map(clock).max().unwrap_or(0))
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

    /// Coordinator: resets per-checkpoint state after resume or abort.
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
    /// stale: the rank was released from a capture and has not run since
    /// to publish `Running`.
    pub fn any_stale_park(&self) -> bool {
        self.ranks.iter().any(|r| {
            let s = r.state();
            s != RankState::Finished && s.is_parked() && !r.is_dead()
        })
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
        let token = ctl.park.token();
        ctl.wake();
        assert_ne!(ctl.park.token(), token, "token bumped with nobody waiting");
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
        let token = ctl.park.token();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t = std::time::Instant::now();
                ctl.wait_event_since(token);
                t.elapsed()
            });
            // Force the interleaving: the wake must find a registered
            // waiter, which is the only case that notifies.
            while ctl.park.waiters() == 0 {
                std::thread::yield_now();
            }
            ctl.wake();
            let waited = waiter.join().unwrap();
            assert!(waited < PARK_BACKSTOP / 2, "woken, not timed out");
        });
        assert_eq!(ctl.park.waiters(), 0, "waiter deregistered");
        assert_eq!(ctl.stats.backstop_expiries(), 0);
    }

    #[test]
    fn observer_stress_loses_no_wakeup() {
        // Publishers store their progress, then announce it — through a
        // state transition, a crossing of the armed threshold, or a bare
        // announcement — while one observer takes a token, checks "every
        // rank has reached this round" and sleeps. Each round the observer
        // re-arms the threshold to the round's end; the publishers race
        // it. A lost announcement strands the observer until the backstop
        // with its condition already true: a counted expiry.
        const RANKS: usize = 4;
        const ROUNDS: u64 = 10_000;
        let c = CkptControl::new(RANKS);
        c.arm([Threshold::Clock(0)]);
        std::thread::scope(|s| {
            for rank in 0..RANKS {
                let c = &c;
                s.spawn(move || {
                    for round in 1..=ROUNDS {
                        // Wait (spinning politely) until the observer
                        // opens this round, so the threshold races the
                        // publication instead of trailing it.
                        while c.armed_clock_ns.load(Ordering::SeqCst) < round {
                            std::thread::yield_now();
                        }
                        match round % 3 {
                            0 => c.publish_progress(rank, round, round),
                            1 => {
                                c.ranks[rank].clock_ns.store(round, Ordering::SeqCst);
                                c.ranks[rank].set_state(RankState::Running);
                            }
                            _ => {
                                c.ranks[rank].clock_ns.store(round, Ordering::SeqCst);
                                c.events.bump();
                            }
                        }
                    }
                });
            }
            for round in 1..=ROUNDS {
                c.arm([Threshold::Clock(round)]);
                loop {
                    let token = c.events.token();
                    if c.reached(Threshold::Clock(round)) {
                        break;
                    }
                    if !c.events.wait_since(token, OBSERVER_BACKSTOP)
                        && c.reached(Threshold::Clock(round))
                    {
                        c.ranks[0].stats.record_backstop_expiry();
                    }
                }
            }
        });
        assert_eq!(
            c.ranks[0].stats.backstop_expiries(),
            0,
            "an announcement was lost"
        );
        assert_eq!(c.events.waiters(), 0, "observer deregistered");
    }

    #[test]
    fn thresholds_ignore_finished_ranks_and_stop_at_the_first_below() {
        let c = CkptControl::new(3);
        c.publish_progress(0, 50, 1);
        c.publish_progress(1, 200, 9);
        c.publish_progress(2, 300, 9);
        assert!(!c.reached(Threshold::Clock(100)));
        assert_eq!(c.min_unfinished_clock_ns(), 50);
        // A rank that returned early no longer holds the run back.
        c.ranks[0].set_state(RankState::Finished);
        assert!(c.reached(Threshold::Clock(100)));
        assert!(c.reached(Threshold::CollCalls(9)));
        assert!(!c.reached(Threshold::CollCalls(10)));
        assert_eq!(c.min_unfinished_clock_ns(), 200);
        for r in &c.ranks {
            r.set_state(RankState::Finished);
        }
        assert!(!c.reached(Threshold::Clock(0)), "nobody left to reach it");
        assert_eq!(c.min_unfinished_clock_ns(), 300, "the run ends at the last");
    }

    #[test]
    fn only_the_crossing_that_completes_a_threshold_is_announced() {
        let c = CkptControl::new(2);
        c.arm([Threshold::Clock(100)]);
        let t0 = c.events.token();
        c.publish_progress(0, 150, 0);
        assert_eq!(c.events.token(), t0, "rank 1 is still below");
        c.publish_progress(1, 120, 0);
        assert_ne!(c.events.token(), t0, "the last crossing completes it");
        // One rank: nothing armed, below, crossing, past, call count.
        let c = CkptControl::new(1);
        let step = |clock, calls| {
            c.publish_progress(0, clock, calls);
            c.events.token()
        };
        let t0 = c.events.token();
        assert_eq!(step(10, 1), t0, "nothing armed: no announcement");
        c.arm([Threshold::Clock(100)]);
        assert_eq!(step(99, 2), t0, "below the threshold");
        let t1 = step(100, 3);
        assert_ne!(t1, t0, "the crossing is announced");
        assert_eq!(step(150, 4), t1, "already past: announced once");
        c.arm([Threshold::CollCalls(5)]);
        assert_ne!(step(160, 5), t1, "a call-count crossing too");
    }

    #[test]
    fn a_crossing_rank_is_held_until_the_observer_has_checked() {
        let c = CkptControl::new(1);
        c.hand_off(0);
        c.arm([Threshold::Clock(100)]);
        c.publish_progress(0, 100, 0);
        let token = c.events.token();
        std::thread::scope(|s| {
            let held = s.spawn(|| c.hand_off(0));
            while c.acks.waiters() == 0 {
                std::thread::yield_now();
            }
            c.acknowledge(token - 1);
            assert!(!held.is_finished(), "an older check releases nothing");
            c.acknowledge(token);
            held.join().unwrap();
        });
        c.hand_off(0);
        assert_eq!(c.ranks[0].stats.backstop_expiries(), 0);
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
        c.ranks[0].set_state(RankState::Quiesced);
        assert!(!c.all_targets_met());
        assert!(c.any_stale_park());
        c.ranks[0].mark_dead();
        assert!(c.ranks[0].is_dead());
        assert!(c.all_targets_met(), "a dead rank can never owe a target");
        assert!(!c.any_stale_park(), "a dead rank is permanently quiet");
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
