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
//! ## The one target table
//!
//! `TARGET[]` lives once, here ([`CkptControl::compute_and_install_targets`]
//! writes it whole, [`CkptControl::raise_target`] raises it in place, and
//! every verdict reads it). Lock order: the table, then a `SEQ[]` mirror.
//!
//! * **Snapshot race.** A rank increments `SEQ[g]` *inside its mirror's
//!   mutex* and only then loads `pending`; the request stores `pending`
//!   before Algorithm 1 locks and snapshots the mirrors (all SeqCst). A
//!   rank that saw `false` is in the snapshot's maximum; one that saw
//!   `true` raises the target itself. No collective escapes the table —
//!   the linchpin of Invariant 2.
//! * **Overshooter's flag.** The request resets every `targets_met`; a
//!   draining rank publishes its verdict before its increment, and an
//!   overshooter publishes again only after its raise is in the table. So
//!   a rank past a target it has not raised reads as unmet.
//! * **Late raise.** A raise still in flight when its request is
//!   withdrawn carries an increment made before the release, so before
//!   the next snapshot, which Algorithm 1 takes holding the table: the
//!   raise lands before it and loses to its write, or after it and is a
//!   no-op max. Nothing is wiped at request time.
//! * **Unregistered group.** A member registers a group when its creation
//!   call returns, before it can reach another gate, so a raise made
//!   before then holds the member from its next gate on; until then the
//!   coordinator's check, which walks the table's member lists, holds it.
//! * **Leaving the park.** A rank parked at a wrapper entry re-reads its
//!   verdict on every wake and leaves when it turns unmet; a raise wakes
//!   the group's other members, Algorithm 1 every rank.
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
//!
//! ## The stall rule
//!
//! A CC drain is stalled when `TARGET[]` is unmet and no live rank can run
//! ([`CkptControl::stalled_since`]). A rank cannot run while it sleeps in
//! the engine with no [`RankCtl::wake`] since the token it took before its
//! poll, or after a failed `MPI_Test` on a request only another rank can
//! complete, until a wake or any other call ([`CkptControl::publish_asleep`]).
//! Moving into either state is announced while a request is pending, so a
//! scan whose token did not move holds at its end: a rank read asleep and
//! woken since was woken by a running one, read runnable or announced
//! asleep since. Misread shape: a failed test, local work, then a call no
//! other rank triggers, while all others sleep — it costs the checkpoint.

use crate::ggid::Ggid;
use crate::seq::{SeqTable, TargetTable};
use mpisim::{EventCount, WakeupStats};
use parking_lot::{Mutex, RwLock};
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

/// Marks a failed test's token in a sleep word; `AWAKE` is none announced.
const TESTED: u64 = 1 << 63;
const AWAKE: u64 = TESTED - 1;

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
    /// Published lifecycle state.
    state: AtomicU8,
    /// The rank's last published verdict on `TARGET[]`
    /// ([`CkptControl::publish_met`]).
    pub targets_met: AtomicBool,
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
    /// never parks, so drain/quiesce accounting and the stall rule treat
    /// it as finished — a death the injector already published as a typed
    /// event is never also a `P2pStall`.
    dead: AtomicBool,
    /// The one event count of the rank: every event that can unblock it —
    /// control-plane or lower-half, under either driver — is counted here
    /// by [`RankCtl::wake`]. Take a token *before* polling the operation;
    /// a rank on its own thread passes it to [`RankCtl::wait_event_since`].
    pub park: EventCount,
    /// The `park` token the rank last announced sleeping on (the rank's
    /// write only): [`CkptControl::publish_asleep`].
    asleep: AtomicU64,
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
            state: AtomicU8::new(RankState::Running as u8),
            targets_met: AtomicBool::new(true),
            in_collective: AtomicBool::new(false),
            clock_ns: AtomicU64::new(0),
            coll_calls: AtomicU64::new(0),
            io_charge_ns: AtomicU64::new(0),
            capture_slot: Mutex::new(None),
            new_world: Mutex::new(None),
            lower_comms: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            park: EventCount::default(),
            asleep: AtomicU64::new(AWAKE),
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
    /// `token` was taken (`true`), or the `PARK_BACKSTOP` lost-wakeup
    /// timeout elapses (`false`); the caller then polls again. An expiry
    /// is a lost wake only if that poll goes on with no wake since `token`
    /// ([`RankCtl::record_lost_wake`]): one that finds the rank waiting
    /// where it was — on a peer's long body sleep, say — lost nothing.
    pub fn wait_event_since(&self, token: u64) -> bool {
        self.park.wait_since(token, PARK_BACKSTOP)
    }

    /// Counts a lost wake: a backstop expiry after which the rank found
    /// it could go on although no wake had come.
    pub fn record_lost_wake(&self) {
        self.stats.record_backstop_expiry();
    }

    /// Announces an event to the rank: a phase change, target install or
    /// raise, resume, fresh world or poison from the control plane, or —
    /// through the lower half's wake routing, under either driver — a
    /// mailbox deposit or collective completion. The state the event
    /// stands for is always published *before* `wake` is called. The
    /// event is counted on the rank's [`EventCount`] before the pool
    /// hears it, so neither a rank between its poll and its sleep nor the
    /// stall rule can miss it.
    pub fn wake(&self) {
        self.park.bump();
        if let Some(w) = self.waker.get() {
            w();
        }
    }

    /// Rank: a wrapper call other than a failed test ends that test's hold.
    #[inline]
    pub fn clear_failed_test(&self) {
        if self.asleep.load(Ordering::Relaxed) & TESTED != 0 {
            self.asleep.store(AWAKE, Ordering::SeqCst);
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
    /// `TARGET[]` of the open (or last) checkpoint: see the module doc.
    targets: RwLock<TargetTable>,
    /// Set once Algorithm 1 has written `targets` for the open request.
    targets_ready: AtomicBool,
    /// Count of raises that changed `targets`.
    raises: AtomicU64,
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
            targets: RwLock::new(TargetTable::default()),
            targets_ready: AtomicBool::new(false),
            raises: AtomicU64::new(0),
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

    /// Coordinator: withdraws the request and its targets, waking nobody
    /// (see [`CkptControl::release`]); a trigger may be armed from here on.
    pub fn withdraw(&self) {
        self.pending.store(false, Ordering::SeqCst);
        self.phase.store(CkptPhase::Idle as u8, Ordering::SeqCst);
        self.targets_ready.store(false, Ordering::SeqCst);
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

    /// Coordinator (Algorithm 1): replaces `TARGET[]` whole with the
    /// maximum of every rank's `SEQ[g]`, shows it to `announce`, and only
    /// then marks it ready and wakes every rank. The snapshot is taken
    /// holding the table (the late-raise rule of the module doc).
    pub fn compute_and_install_targets(&self, announce: impl FnOnce(&TargetTable)) {
        debug_assert!(self.is_pending());
        let mut table = self.targets.write();
        *table = TargetTable::snapshot(self.ranks.iter().map(|r| r.seq_mirror.lock()));
        announce(&table);
        self.targets_ready.store(true, Ordering::SeqCst);
        drop(table);
        self.wake_all();
    }

    /// Whether Algorithm 1 has written the open request's targets.
    pub fn targets_ready(&self) -> bool {
        self.targets_ready.load(Ordering::SeqCst)
    }

    /// Rank (Algorithm 2): raises `TARGET[ggid]` to `seq`, a max. If that
    /// changed the table, counts the raise, wakes the group's other
    /// members and returns the members.
    pub fn raise_target(&self, rank: usize, ggid: Ggid, seq: u64) -> Option<Arc<[usize]>> {
        if self.targets.read().get(ggid).is_some_and(|t| t >= seq) {
            return None;
        }
        let members = self.ranks[rank]
            .seq_mirror
            .lock()
            .members_shared(ggid)
            .cloned();
        let members = members.expect("a rank counts only groups it registered");
        if !self.targets.write().raise(ggid, seq, &members) {
            return None;
        }
        self.raises.fetch_add(1, Ordering::SeqCst);
        (members.iter())
            .filter(|&&m| m != rank)
            .for_each(|&m| self.ranks[m].wake());
        self.events.bump();
        Some(members)
    }

    /// Raises that changed `TARGET[]` so far.
    pub fn raises(&self) -> u64 {
        self.raises.load(Ordering::SeqCst)
    }

    /// Rank: publishes and returns its verdict — whether its `SEQ[]` has
    /// reached `TARGET[]` — announcing a turn to met.
    pub fn publish_met(&self, rank: usize) -> bool {
        let r = &self.ranks[rank];
        let met = self.targets.read().reached_by(&r.seq_mirror.lock());
        if !r.targets_met.swap(met, Ordering::SeqCst) && met {
            self.events.bump();
        }
        met
    }

    /// Coordinator: the drain's end, with the targets it ended at. Every
    /// live member of every group is at its target, every rank's verdict
    /// is met and no rank is inside a collective — judged against a table
    /// no raise changed while the check ran (a rank can raise and then
    /// meet every target meanwhile).
    pub fn drain_targets(&self) -> Option<TargetTable> {
        self.drain_targets_with(|| {})
    }

    /// [`CkptControl::drain_targets`], calling `read` once the check has
    /// read the table.
    fn drain_targets_with(&self, mut read: impl FnMut()) -> Option<TargetTable> {
        loop {
            let raises = self.raises();
            let table = self.targets.read().clone();
            read();
            let at = |r: usize, g: &Ggid, t: u64| {
                let rc = &self.ranks[r];
                rc.state() == RankState::Finished
                    || rc.is_dead()
                    || rc.seq_mirror.lock().seq(*g) >= t
            };
            let reached = (table.iter())
                .all(|(g, e)| e.target == 0 || e.members.iter().all(|&r| at(r, g, e.target)));
            if !reached || !self.all_targets_met() || self.any_in_collective() {
                return None;
            }
            if self.raises() == raises {
                return Some(table);
            }
        }
    }

    /// Rank: it sleeps in the engine on `token`, the `park` token taken
    /// before its poll — or a test polled after taking it failed on a
    /// request only another rank can complete. A token other than the last
    /// one announced is a move to not runnable, announced while a request
    /// is pending (the stall rule of the module doc).
    pub fn publish_asleep(&self, rank: usize, token: u64, failed_test: bool) {
        let word = if failed_test { token | TESTED } else { token };
        let last = self.ranks[rank].asleep.swap(word, Ordering::SeqCst);
        if last & !TESTED != token && self.is_pending() {
            self.events.bump();
        }
    }

    /// Coordinator: whether no live rank can run, with nothing announced
    /// since `token`, taken before the drain check (the stall rule).
    pub fn stalled_since(&self, token: u64) -> bool {
        self.stalled_since_with(token, |_| {})
    }

    /// [`CkptControl::stalled_since`], calling `scanned(rank)` after each
    /// rank it reads.
    fn stalled_since_with(&self, token: u64, mut scanned: impl FnMut(usize)) -> bool {
        let none_runnable = self.ranks.iter().enumerate().all(|(i, r)| {
            let slept = r.asleep.load(Ordering::SeqCst);
            let asleep = r.state() == RankState::Finished
                || r.is_dead()
                || (slept != AWAKE && slept & !TESTED == r.park.token());
            scanned(i);
            asleep
        });
        none_runnable && self.events.token() == token
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

    /// `n` ranks, each with the groups `groups` gives it registered at the
    /// counts given: `(ggid, members, seq)`.
    fn control_with(n: usize, groups: &[(usize, Ggid, &[usize], u64)]) -> Arc<CkptControl> {
        let c = CkptControl::new(n);
        for &(rank, g, members, seq) in groups {
            c.ranks[rank]
                .seq_mirror
                .lock()
                .restore(g, seq, members.to_vec());
        }
        c
    }

    #[test]
    fn target_computation_max_and_membership() {
        let (g_all, g_01) = (Ggid(1), Ggid(2));
        let all: &[usize] = &[0, 1, 2];
        let c = control_with(
            3,
            &[
                (0, g_all, all, 1),
                (0, g_01, &[0, 1], 2),
                (1, g_all, all, 2),
                (2, g_all, all, 0),
            ],
        );
        c.request_checkpoint();
        let mut announced = None;
        c.compute_and_install_targets(|t| announced = Some(t.targets()));
        assert!(c.targets_ready());
        let t = announced.expect("the table is announced before it is ready");
        assert_eq!((t[&g_all], t[&g_01]), (2, 2));
        // Rank 2 is no member of g_01: only its own group holds it.
        assert!(!c.publish_met(2));
        c.ranks[2].seq_mirror.lock().restore(g_all, 2, all.to_vec());
        assert!(c.publish_met(2), "g_01 is not rank 2's group");
    }

    #[test]
    fn met_verdict_over_member_groups() {
        let (a, b) = (Ggid(1), Ggid(2));
        let c = control_with(
            3,
            &[
                (0, a, &[0, 1], 1),
                (1, a, &[0, 1], 0),
                (1, b, &[1, 2], 2),
                (2, b, &[1, 2], 1),
            ],
        );
        assert!(c.all_targets_met(), "no request: nothing owed");
        c.request_checkpoint();
        assert!(!c.all_targets_met(), "the request resets every verdict");
        c.compute_and_install_targets(|_| {});
        let verdicts = |c: &CkptControl| [0, 1, 2].map(|r| c.publish_met(r));
        assert_eq!(
            verdicts(&c),
            [true, false, false],
            "rank 1 owes a, rank 2 owes b"
        );
        assert!(!c.all_targets_met());
        c.ranks[1].seq_mirror.lock().increment(a);
        c.ranks[2].seq_mirror.lock().increment(b);
        let token = c.events.token();
        assert_eq!(verdicts(&c), [true; 3]);
        assert_ne!(c.events.token(), token, "a turn to met is announced");
        let token = c.events.token();
        assert!(c.publish_met(1));
        assert_eq!(c.events.token(), token, "an unchanged verdict is not");
        assert!(c.all_targets_met());
        assert_eq!(c.drain_targets().map(|t| t.targets()[&b]), Some(2));
    }

    #[test]
    fn a_raise_is_a_counted_max_that_wakes_the_other_members() {
        let g = Ggid(3);
        let c = control_with(3, &[(0, g, &[0, 1], 2), (1, g, &[0, 1], 2)]);
        c.request_checkpoint();
        c.compute_and_install_targets(|_| {});
        let tokens = |c: &CkptControl| [0, 1, 2].map(|r| c.ranks[r].park.token());
        let (before, observed) = (tokens(&c), c.events.token());
        c.ranks[0].seq_mirror.lock().increment(g);
        let woke = c.raise_target(0, g, 3).expect("3 > 2 changes the table");
        assert_eq!(&woke[..], &[0, 1]);
        let after = tokens(&c);
        assert_eq!(after[0], before[0], "the raiser is not woken");
        assert_ne!(after[1], before[1], "the other member is");
        assert_eq!(after[2], before[2], "a non-member is not");
        assert_ne!(c.events.token(), observed, "the observer hears it");
        assert_eq!(c.raises(), 1);
        assert!(
            c.raise_target(0, g, 3).is_none(),
            "an equal raise is a no-op"
        );
        assert_eq!(
            (c.raises(), tokens(&c)),
            (1, after),
            "uncounted, waking nobody"
        );
        assert!(!c.publish_met(1), "the other member owes the raised target");
    }

    #[test]
    fn a_late_raise_loses_to_the_next_snapshot_or_is_a_no_op() {
        let g = Ggid(4);
        for lands_first in [true, false] {
            let c = control_with(2, &[(0, g, &[0, 1], 2), (1, g, &[0, 1], 2)]);
            c.request_checkpoint();
            c.compute_and_install_targets(|_| {});
            // Rank 1 runs one collective past the target; its raise is
            // still on its way when the request is withdrawn.
            c.ranks[1].seq_mirror.lock().increment(g);
            c.withdraw();
            c.release();
            assert!(!c.targets_ready());
            c.request_checkpoint();
            if lands_first {
                assert!(
                    c.raise_target(1, g, 3).is_some(),
                    "raises the withdrawn table"
                );
            }
            let mut snapshot = 0;
            c.compute_and_install_targets(|t| snapshot = t.get(g).unwrap());
            assert_eq!(snapshot, 3, "the increment precedes the snapshot");
            let raises = c.raises();
            assert!(
                c.raise_target(1, g, 3).is_none(),
                "after the write: a no-op max"
            );
            assert_eq!(c.raises(), raises);
            assert!(!c.publish_met(0), "rank 0 owes the late raise's collective");
            assert!(c.publish_met(1));
        }
    }

    #[test]
    fn a_group_raised_before_a_member_registered_it_holds_that_member() {
        // Rank 0 created g during the drain and ran a collective on it,
        // raising it; rank 1's creation call has not returned, so g is not
        // in its table yet.
        let (w, g) = (Ggid(5), Ggid(6));
        let c = control_with(2, &[(0, w, &[0, 1], 1), (1, w, &[0, 1], 1)]);
        c.request_checkpoint();
        c.compute_and_install_targets(|_| {});
        c.ranks[0].seq_mirror.lock().restore(g, 1, vec![0, 1]);
        let token = c.ranks[1].park.token();
        assert!(
            c.raise_target(0, g, 1).is_some(),
            "a group new to the table"
        );
        assert_ne!(c.ranks[1].park.token(), token, "the raise woke rank 1");
        assert!(c.publish_met(0) && c.publish_met(1));
        assert!(c.drain_targets().is_none(), "the check walks g's members");
        // The creation returns: g is registered before rank 1's next gate,
        // whose verdict now holds it.
        c.ranks[1].seq_mirror.lock().register_group(g, vec![0, 1]);
        assert!(!c.publish_met(1));
        c.ranks[1].seq_mirror.lock().increment(g);
        assert!(c.publish_met(1));
        let t = c.drain_targets().expect("drained");
        assert_eq!((t.targets()[&g], t.initial_targets().get(&g)), (1, None));
    }

    #[test]
    fn a_raise_during_the_completion_check_is_judged_again() {
        // The lost raise: rank 1 initiated a non-blocking collective on g
        // past the snapshot; it raises and so meets every target after the
        // check has read the table, and before the check reads its flag.
        let g = Ggid(7);
        let c = control_with(2, &[(0, g, &[0, 1], 2), (1, g, &[0, 1], 2)]);
        c.request_checkpoint();
        c.compute_and_install_targets(|_| {});
        assert!(c.publish_met(0));
        c.ranks[1].seq_mirror.lock().increment(g);
        assert!(c.drain_targets().is_none(), "rank 1's flag is still reset");
        let mut reads = 0;
        let judged = c.drain_targets_with(|| {
            reads += 1;
            if reads == 1 {
                c.raise_target(1, g, 3).expect("a raise");
                assert!(c.publish_met(1));
            }
        });
        assert_eq!(reads, 2, "the raise sent the check round again");
        assert!(judged.is_none(), "rank 0 is below the raised target");
        c.ranks[0].seq_mirror.lock().increment(g);
        assert!(c.publish_met(0));
        let t = c.drain_targets().expect("drained to the raised target");
        assert_eq!((t.targets()[&g], t.initial_targets()[&g]), (3, 2));
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
        // wait return at once, woken, not after the backstop.
        let t = std::time::Instant::now();
        assert!(ctl.wait_event_since(token), "woken, not expired");
        assert!(
            t.elapsed() < PARK_BACKSTOP / 2,
            "raced wake cost the backstop"
        );
    }

    #[test]
    fn parked_waiter_is_woken_by_the_gated_notify() {
        let c = CkptControl::new(1);
        let ctl = &c.ranks[0];
        let token = ctl.park.token();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t = std::time::Instant::now();
                assert!(ctl.wait_event_since(token), "woken, not expired");
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

    /// Announces rank `r`'s sleep on its current token.
    fn sleeps(c: &CkptControl, r: usize) {
        c.publish_asleep(r, c.ranks[r].park.token(), false);
    }

    #[test]
    fn every_rank_asleep_with_no_wake_is_stalled_and_one_wake_is_not() {
        let c = CkptControl::new(3);
        c.request_checkpoint();
        sleeps(&c, 0);
        sleeps(&c, 1);
        let now = |c: &CkptControl| c.stalled_since(c.events.token());
        assert!(!now(&c), "rank 2 announced no sleep: it can run");
        sleeps(&c, 2);
        assert!(now(&c), "every rank asleep, no wake since");
        c.ranks[1].wake();
        assert!(!now(&c), "a wake pending for rank 1: it can run");
        sleeps(&c, 1);
        assert!(now(&c), "rank 1 polled again and sleeps on the new token");
        c.ranks[2].wake();
        c.ranks[2].set_state(RankState::Finished);
        c.ranks[0].wake();
        c.ranks[0].mark_dead();
        assert!(now(&c), "finished and dead ranks are never waited for");
    }

    #[test]
    fn a_failed_test_holds_the_rank_until_a_wake_or_another_call() {
        let c = CkptControl::new(2);
        c.request_checkpoint();
        sleeps(&c, 1);
        let token = c.ranks[0].park.token();
        c.publish_asleep(0, token, true);
        assert!(c.stalled_since(c.events.token()), "a failed test holds");
        // The next failed test of the loop, with no wake between: no
        // move to announce, so a polling rank wakes no observer.
        let events = c.events.token();
        c.publish_asleep(0, token, true);
        assert_eq!(c.events.token(), events, "a renewed hold is not announced");
        c.ranks[0].clear_failed_test();
        assert!(!c.stalled_since(c.events.token()), "another call ends it");
        c.publish_asleep(0, token, true);
        assert_ne!(c.events.token(), events, "a new hold is announced");
        c.ranks[0].wake();
        assert!(!c.stalled_since(c.events.token()), "so does a wake");
        // A sleep ends no hold it does not replace: clearing it leaves
        // the sleep.
        sleeps(&c, 0);
        c.ranks[0].clear_failed_test();
        assert!(c.stalled_since(c.events.token()));
        // Outside a request, sleeps and holds are not announced.
        c.withdraw();
        let events = c.events.token();
        c.ranks[0].wake();
        sleeps(&c, 0);
        c.publish_asleep(1, c.ranks[1].park.token() + 1, true);
        assert_eq!(
            c.events.token(),
            events,
            "nothing pending: nothing announced"
        );
    }

    #[test]
    fn a_sleep_announced_during_the_scan_is_not_confirmed() {
        // Rank 0 sleeps; rank 1 runs. The scan reads rank 0 asleep, then
        // rank 1 wakes it and falls asleep itself before the scan reads
        // it: every rank read asleep, yet rank 0 can run.
        let c = CkptControl::new(2);
        c.request_checkpoint();
        sleeps(&c, 0);
        let token = c.events.token();
        let judged = c.stalled_since_with(token, |r| {
            if r == 0 {
                let t = c.ranks[1].park.token();
                c.ranks[0].wake();
                c.publish_asleep(1, t, false);
            }
        });
        assert!(!judged, "rank 1's sleep was announced after the token");
        assert!(!c.stalled_since(c.events.token()), "rank 0 can run");
    }

    #[test]
    fn dead_ranks_satisfy_drain_and_park_checks() {
        // A rank the injector declared dead never meets another target
        // and never parks, so the drain/quiesce predicates must count it
        // as satisfied — a live-looking straggler here is what used to
        // surface as a spurious `P2pStall` for an already-published
        // death.
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
