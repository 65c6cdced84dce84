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
//! ## Memory-ordering contract (the raise)
//!
//! The crossing that completes the armed [`Threshold`] raises the request
//! inside the rank's wrapper call ([`CkptControl::publish_progress`]), so
//! a run cannot outrun its trigger; so does a finish that completes it
//! ([`CkptControl::publish_finished`]), and the arming of a threshold the
//! parked ranks already passed ([`CkptControl::arm`]). A trigger is armed
//! only with no request open, before the ranks it must see run: a rank
//! swaps its progress in and then loads the armed trigger; the arming
//! stores it and then scans the progress (all `SeqCst`), so one of the two
//! sees the other. The claim — a compare-and-swap taking the armed word
//! back — raises each threshold once, and a check made against a
//! threshold served since claims nothing.
//!
//! ## Memory-ordering contract (the observer side)
//!
//! Every coordinator-side wait sleeps on [`CkptControl::events`], never on
//! the wall clock. A rank *publishes* what such a predicate reads *before*
//! it bumps the counter (a raise too); an observer takes its token
//! *before* it checks, so a bump after the check ends the sleep at once.

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

/// The armed-trigger word with nothing armed.
const NONE: u64 = u64::MAX;
/// Marks a call-count threshold in the armed-trigger word.
const CALLS: u64 = 1 << 63;

/// The threshold an armed-trigger word holds.
fn armed(word: u64) -> Option<Threshold> {
    match word {
        NONE => None,
        w if w & CALLS != 0 => Some(Threshold::CollCalls(w & !CALLS)),
        ns => Some(Threshold::Clock(ns)),
    }
}

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
    /// The armed trigger in one word (see [`CkptControl::arm`]): `NONE`,
    /// a clock threshold in ns, or with `CALLS` set a call count.
    armed: AtomicU64,
    /// The planned fault's virtual time (`u64::MAX`: none).
    fault_ns: AtomicU64,
    /// See [`CkptControl::request_clock_ns`].
    request_clock_ns: AtomicU64,
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
            armed: AtomicU64::new(NONE),
            fault_ns: AtomicU64::new(u64::MAX),
            request_clock_ns: AtomicU64::new(0),
        })
    }

    /// Supervisor: arms the next request's threshold (`None` disarms) with
    /// no request open, raising it at once if every unfinished rank is
    /// past it already.
    pub fn arm(&self, trigger: Option<Threshold>) {
        let word = match trigger {
            None => NONE,
            Some(Threshold::Clock(ns)) => ns.min(CALLS - 1),
            Some(Threshold::CollCalls(n)) => CALLS | n.min(CALLS - 2),
        };
        self.armed.store(word, Ordering::SeqCst);
        self.claim_if_reached(word, None);
    }

    /// Arms the planned fault's virtual time (ns) for
    /// [`CkptControl::publish_progress`] to report.
    pub fn arm_fault(&self, ns: u64) {
        self.fault_ns.store(ns, Ordering::SeqCst);
    }

    /// Rank: publishes its clock and call count; the crossing that
    /// completes the armed trigger raises the request (of two ranks
    /// crossing last together, the later swap sees the other's). Returns
    /// whether it completes the fault's time: the caller strikes it.
    pub fn publish_progress(&self, rank: usize, clock_ns: u64, coll_calls: u64) -> bool {
        let r = &self.ranks[rank];
        // Only this rank writes them: an unchanged value crosses nothing.
        let swap = |mine: &AtomicU64, now: u64| {
            (mine.load(Ordering::Relaxed) != now).then(|| mine.swap(now, Ordering::SeqCst))
        };
        let crossed =
            |prev: Option<u64>, now: u64, at: u64| prev.is_some_and(|p| p < at && now >= at);
        let (clock, calls) = (swap(&r.clock_ns, clock_ns), swap(&r.coll_calls, coll_calls));
        let word = self.armed.load(Ordering::SeqCst);
        let trigger = match armed(word) {
            Some(Threshold::Clock(ns)) => crossed(clock, clock_ns, ns),
            Some(Threshold::CollCalls(n)) => crossed(calls, coll_calls, n),
            None => false,
        };
        if trigger {
            self.claim_if_reached(word, None);
        }
        let fault = self.fault_ns.load(Ordering::SeqCst);
        crossed(clock, clock_ns, fault) && self.reached(Threshold::Clock(fault))
    }

    /// Rank: publishes `Finished`, raising the request its finish
    /// completes — checked as if finished before the state is out (so a
    /// supervisor that sees every rank finished sees the request) and
    /// after (so a concurrent crossing and the finish see each other).
    /// Returns whether the fault's time is reached.
    pub fn publish_finished(&self, rank: usize) -> bool {
        let r = &self.ranks[rank];
        r.targets_met.store(true, Ordering::SeqCst);
        self.claim_if_reached(self.armed.load(Ordering::SeqCst), Some(rank));
        r.set_state(RankState::Finished);
        self.claim_if_reached(self.armed.load(Ordering::SeqCst), None);
        let fault = self.fault_ns.load(Ordering::SeqCst);
        fault != NONE && self.reached(Threshold::Clock(fault))
    }

    /// Raises the request if every unfinished rank but `except` reached
    /// `word` and it is still armed: taking it back is the claim.
    fn claim_if_reached(&self, word: u64, except: Option<usize>) {
        let reached = armed(word).is_some_and(|t| self.reached_without(t, except));
        let cas = |w| (self.armed).compare_exchange(w, NONE, Ordering::SeqCst, Ordering::SeqCst);
        if reached && cas(word).is_ok() {
            self.raise(except);
        }
    }

    /// Whether every unfinished rank has reached `t` (`false` once all
    /// have finished), stopping at the first rank below.
    pub fn reached(&self, t: Threshold) -> bool {
        self.reached_without(t, None)
    }

    /// The unfinished ranks, counting rank `except` as finished.
    fn live(&self, except: Option<usize>) -> impl Iterator<Item = &RankCtl> {
        (self.ranks.iter().enumerate())
            .filter(move |&(i, r)| Some(i) != except && r.state() != RankState::Finished)
            .map(|(_, r)| r)
    }

    /// [`CkptControl::reached`], but for rank `except`.
    fn reached_without(&self, t: Threshold, except: Option<usize>) -> bool {
        let mut live = self.live(except);
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
        self.min_clock_without(None)
    }

    /// [`CkptControl::min_unfinished_clock_ns`], but for rank `except`.
    fn min_clock_without(&self, except: Option<usize>) -> u64 {
        let clock = |r: &RankCtl| r.clock_ns.load(Ordering::SeqCst);
        self.live(except)
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

    /// Issues a request with no trigger (a harness's), disarming it.
    ///
    /// # Panics
    /// Panics if a checkpoint is already running.
    pub fn request_checkpoint(&self) {
        assert_eq!(self.phase(), CkptPhase::Idle, "checkpoint already running");
        self.armed.store(NONE, Ordering::SeqCst);
        self.raise(None);
    }

    /// The raise, once claimed: records where the run stands (rank
    /// `except` counted as finished), invalidates stale met-flags and
    /// opens the drain phase — all before `pending` makes the request
    /// visible — and announces it.
    fn raise(&self, except: Option<usize>) {
        let clock = self.min_clock_without(except);
        self.request_clock_ns.store(clock, Ordering::SeqCst);
        for r in &self.ranks {
            r.targets_met.store(false, Ordering::SeqCst);
        }
        self.phase
            .store(CkptPhase::Draining as u8, Ordering::SeqCst);
        self.pending.store(true, Ordering::SeqCst);
        self.events.bump();
    }

    /// [`CkptControl::min_unfinished_clock_ns`] at the last raise.
    pub fn request_clock_ns(&self) -> u64 {
        self.request_clock_ns.load(Ordering::SeqCst)
    }

    /// Coordinator: transitions phase.
    pub fn set_phase(&self, p: CkptPhase) {
        self.phase.store(p as u8, Ordering::SeqCst);
        self.wake_all();
    }

    /// Coordinator: withdraws the request, waking nobody (see
    /// [`CkptControl::release`]); a trigger may be armed from here on.
    pub fn withdraw(&self) {
        self.pending.store(false, Ordering::SeqCst);
        self.phase.store(CkptPhase::Idle as u8, Ordering::SeqCst);
    }

    /// Coordinator: releases every rank parked for capture (their wake
    /// condition is the resume generation) and wakes every rank.
    pub fn release(&self) {
        self.resume_gen.fetch_add(1, Ordering::SeqCst);
        self.wake_all();
    }

    fn wake_all(&self) {
        self.ranks.iter().for_each(RankCtl::wake);
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
        c.withdraw();
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
    fn concurrent_crossings_raise_exactly_once() {
        // Ranks race through the thresholds while the supervisor serves
        // each request: it sleeps until one is raised, releases it, and
        // arms the next threshold, raising it itself if already passed.
        // Thresholds alternate between clock and call count. A second
        // raise of one threshold shows as a request for the next one
        // before it is reached; a lost raise strands the supervisor until
        // the backstop with the request already open (a counted expiry).
        const RANKS: usize = 4;
        const ROUNDS: u64 = 5_000;
        let at = |round: u64| match round % 2 {
            0 => Threshold::Clock(round),
            _ => Threshold::CollCalls(round),
        };
        let c = CkptControl::new(RANKS);
        // The last round the supervisor has seen raised: ranks cross a
        // round's threshold only once the previous one is being served,
        // so each crossing races the arm, the release and the check.
        let serving = AtomicU64::new(0);
        // A failed check must not leave the ranks spinning.
        struct Unblock<'a>(&'a AtomicU64);
        impl Drop for Unblock<'_> {
            fn drop(&mut self) {
                self.0.store(u64::MAX, Ordering::SeqCst);
            }
        }
        c.arm(Some(at(1)));
        std::thread::scope(|s| {
            let _unblock = Unblock(&serving);
            for rank in 0..RANKS {
                let (c, serving) = (&c, &serving);
                s.spawn(move || {
                    for p in 1..=ROUNDS {
                        while serving.load(Ordering::SeqCst).saturating_add(1) < p {
                            std::thread::yield_now();
                        }
                        c.publish_progress(rank, p, p);
                    }
                });
            }
            for round in 1..=ROUNDS {
                loop {
                    let token = c.events.token();
                    if c.is_pending() {
                        break;
                    }
                    if !c.events.wait_since(token, OBSERVER_BACKSTOP) && c.is_pending() {
                        c.ranks[0].stats.record_backstop_expiry();
                    }
                }
                assert!(c.reached(at(round)), "round {round} raised early");
                assert!(c.request_clock_ns() >= round, "round {round}");
                serving.store(round, Ordering::SeqCst);
                c.withdraw();
                c.arm((round < ROUNDS).then(|| at(round + 1)));
            }
        });
        assert_eq!(c.ranks[0].stats.backstop_expiries(), 0, "a raise was lost");
        assert!(!c.is_pending(), "the last threshold raised once");
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
    fn only_the_crossing_that_completes_a_threshold_raises() {
        let c = CkptControl::new(2);
        c.arm(Some(Threshold::Clock(100)));
        c.publish_progress(0, 150, 0);
        assert!(!c.is_pending(), "rank 1 is still below");
        c.publish_progress(1, 120, 0);
        assert!(c.is_pending(), "the last crossing completes it");
        assert_eq!(c.armed.load(Ordering::SeqCst), NONE, "claimed");
        assert_eq!(c.phase(), CkptPhase::Draining);
        assert_eq!(c.request_clock_ns(), 120, "where the run stood");
        assert!(!c.ranks[0].targets_met.load(Ordering::SeqCst), "stale flag");
        c.withdraw();
        c.publish_progress(1, 130, 0);
        assert!(!c.is_pending(), "the raise disarmed the threshold");
        // One rank: nothing armed, below, crossing, past, call count.
        let c = CkptControl::new(1);
        let step = |clock, calls| {
            c.publish_progress(0, clock, calls);
            let raised = c.is_pending();
            if raised {
                c.withdraw();
            }
            raised
        };
        assert!(!step(10, 1), "nothing armed: no raise");
        c.arm(Some(Threshold::Clock(100)));
        assert!(!step(99, 2), "below the threshold");
        assert!(step(100, 3), "the crossing raises");
        assert!(!step(150, 4), "already past: the raise disarmed it");
        c.arm(Some(Threshold::Clock(100)));
        assert!(c.is_pending(), "arming a passed threshold raises it");
        c.withdraw();
        c.arm(Some(Threshold::CollCalls(5)));
        assert!(step(160, 5), "a call-count crossing too");
        // The fault's time is reported to the crossing that completes it.
        let c = CkptControl::new(2);
        c.arm_fault(100);
        assert!(!c.publish_progress(0, 100, 0), "rank 1 is still below");
        assert!(c.publish_progress(1, 100, 0), "the completing crossing");
        assert!(!c.publish_progress(1, 200, 0), "once");
    }

    #[test]
    fn a_crossing_while_a_checkpoint_is_pending_is_raised_after_release() {
        let c = CkptControl::new(2);
        c.arm(Some(Threshold::Clock(100)));
        c.publish_progress(0, 100, 0);
        c.publish_progress(1, 100, 0);
        assert!(c.is_pending());
        // Both ranks drain on past the next threshold while the
        // checkpoint holds the request open: nothing is armed, so
        // neither crossing raises anything.
        c.publish_progress(0, 300, 0);
        c.publish_progress(1, 250, 0);
        assert_eq!(c.request_clock_ns(), 100, "the open request's clock");
        c.withdraw();
        assert!(!c.is_pending(), "no rank crossed since the release");
        c.arm(Some(Threshold::Clock(200)));
        assert!(c.is_pending(), "arming a passed threshold raises it");
        assert_eq!(c.request_clock_ns(), 250);
        c.withdraw();
        c.publish_progress(1, 260, 0);
        assert!(!c.is_pending(), "raised once");
        // A check made before the release against the threshold served
        // since claims nothing once the next one is armed.
        let stale = c.armed.load(Ordering::SeqCst);
        c.arm(Some(Threshold::Clock(1_000)));
        c.claim_if_reached(stale, None);
        assert!(!c.is_pending(), "a stale check claims nothing");
    }

    #[test]
    fn a_finish_that_completes_the_threshold_raises() {
        let c = CkptControl::new(3);
        c.arm(Some(Threshold::Clock(100)));
        c.arm_fault(110);
        c.publish_progress(1, 150, 0);
        c.publish_progress(2, 120, 0);
        c.publish_progress(0, 50, 0);
        assert!(!c.is_pending(), "rank 0 holds the run back");
        assert!(c.publish_finished(0), "the fault's time is reached too");
        assert!(c.is_pending(), "rank 0's finish completes the threshold");
        assert_eq!(c.ranks[0].state(), RankState::Finished);
        assert_eq!(c.request_clock_ns(), 120, "the slowest unfinished rank");
        // The last rank's finish raises nothing: no rank is left to reach
        // a threshold, nor to checkpoint.
        c.withdraw();
        c.arm(Some(Threshold::Clock(1_000)));
        c.arm_fault(u64::MAX);
        assert!(!c.publish_finished(1));
        assert!(!c.publish_finished(2));
        assert!(!c.is_pending());
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
