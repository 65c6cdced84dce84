//! The batched cooperative rank scheduler.
//!
//! One OS thread per rank does not survive contact with paper-scale worlds:
//! at 512 ranks the host drowns in runnable threads and timed polling
//! wakeups long before the simulation itself becomes expensive. This
//! module bounds *execution*, not existence: every rank still owns a
//! thread (its stack is the rank's continuation), but only `workers` ranks
//! may be **running** at any instant. All other rank threads are parked —
//! either blocked on an event (a mailbox deposit, a collective completion,
//! a checkpoint-control wake) having released their run slot, or queued
//! FIFO for a slot.
//!
//! With execution bounded, the per-rank *footprint* is the thread stack —
//! the only resource a parked continuation still holds. Rank stacks
//! default to [`crate::world::DEFAULT_RANK_STACK`] (128 KiB, sized to
//! measured rank-body depth with 2× headroom) rather than the platform's
//! 1 MiB-plus, which is what lets 4096 parked continuations fit on a
//! small host; and every wait path shares the per-world [`WakeupStats`]
//! block, so the *absence* of timed wakeups — the scheduler's other
//! scaling contract — is an asserted property rather than a hope.
//!
//! The contract with the rest of the system is small:
//!
//! * [`Scheduler::run_threads`], the **thread-per-object driver**, is
//!   the one place rank threads are spawned: bare `run_world` ranks and
//!   the checkpoint layer's closure bodies both run on it, as step
//!   objects that block instead of yielding.
//! * [`Scheduler::attach`] / [`Scheduler::detach`] bracket a rank body:
//!   attach acquires the rank's first run slot, detach releases whatever
//!   the rank still holds (idempotent, panic-path safe).
//! * [`Scheduler::blocking`] brackets every potentially-blocking wait
//!   ([`crate::Ctx::wait`]'s mailbox-token sleep, the checkpoint
//!   layer's one per-rank event wait): the slot is released for the
//!   duration of the closure and re-acquired FIFO afterwards, so a world
//!   of 512 ranks multiplexes onto ~`num_cpus` active workers and a
//!   *blocked* rank costs nothing.
//! * [`Scheduler::yield_now`] is the cooperative yield-point used by
//!   polling loops (`MPI_Test` loops, `park_briefly`): if any rank is
//!   queued for a slot, the caller hands its slot to the queue head and
//!   requeues itself at the tail — strict round-robin, so every runnable
//!   rank makes progress and no poll loop can starve the world.
//!
//! Nothing here touches virtual time: the scheduler changes only which
//! host thread runs when, never what the simulation computes. Wall-clock
//! interleaving was never deterministic; virtual-clock accounting, message
//! matching order per channel, and collective results are exactly as
//! before — the deterministic-replay contract (`CallCounters` + `SEQ[]`
//! equality locating a restore cut) is preserved by construction.
//!
//! A `Scheduler` deliberately outlives any single [`crate::World`]: the
//! checkpoint engine replaces the lower half at restart while the rank
//! threads (and their slots) live on, so restarted generations are built
//! with [`crate::World::with_epoch_attached`] onto the same scheduler.
//!
//! # Step-function ranks: the heap-allocated continuation
//!
//! The thread-per-rank representation above still pays one OS thread and
//! one stack per rank *for existence*. That is the hard ceiling on world
//! size: at 65 536 ranks the stacks alone cost gigabytes before the first
//! MPI call runs. The second representation in this module removes it.
//!
//! A **step-fn rank** is a heap object implementing [`RankStep`] — the
//! rank's body hand-lowered into an explicit state machine, exactly the
//! way a compiler lowers an `async` body: each [`RankStep::step`] call
//! runs the body forward to its next wait point and returns
//! [`Step::Yield`] (parked, waiting for an event or wanting another
//! poll) or [`Step::Done`]. A parked rank is then *only* its state —
//! typically a few hundred bytes — not a stack, and no OS thread is
//! dedicated to it.
//!
//! The [`StepDriver`] resumes step objects on a bounded worker pool (the
//! same worker budget as the run-slot pool; step ranks never attach to
//! the slot pool itself, so an idle pool remains fully claimable by
//! [`Scheduler::borrow_workers`] during a capture). Wakeups use the one
//! event plumbing every driven rank has: each mailbox deposit and
//! collective completion is routed — through the waker a world wires up
//! from [`Scheduler::rank_waker_for`] — to whoever drives the rank. A
//! step harness installs [`StepDriver::wake`] there; for ranks on the
//! thread-per-object driver the checkpoint layer installs its per-rank
//! event counter, so both drivers hear about exactly the same events.
//!
//! ## The wake protocol
//!
//! A dense collective makes every rank of the world cross the driver
//! twice (park, wake) per call, from every worker at once, so the
//! protocol is built to share nothing per rank that it does not have to:
//!
//! * **Run state is one atomic per rank** — `Parked`, `Queued`,
//!   `Running`, `RunningWake`, `Finished` — and every transition is a
//!   single read-modify-write on it. Only the transitions that put a
//!   rank *into the ready queue* touch the queue lock; a wake of a
//!   queued, running or finished rank, a park, and a finish take no lock
//!   at all. [`StepDriver::wake`] is always a read-modify-write, even
//!   when the state does not change: its release half pairs with the
//!   acquire swap of the worker that next runs the rank, so the coming
//!   step observes whatever the wake announced. (Every event source in
//!   the system publishes its state *before* waking.)
//! * **Lost-wakeup guard.** A wake that lands while the rank is mid-step
//!   moves it `Running → RunningWake`; a step that returns
//!   `Yield(Event)` parks with a compare-exchange from `Running`, which
//!   fails on `RunningWake` and requeues the rank instead. No tokens, no
//!   lock.
//! * **Batch pop.** A worker takes `ceil(ready / workers)` ranks (at most
//!   64) per queue-lock acquisition and runs them from a private batch,
//!   so the lock is amortized over tens of steps while the queue is
//!   still split evenly when it is short.
//! * **Chunked in-step wake flush.** The last arriver of a 4096-rank
//!   collective wakes 4095 peers from inside its own `step()`. Those
//!   ranks become `Queued` at once, but the pushes onto the ready queue
//!   are buffered per worker thread and flushed 32 at a time under one
//!   lock, plus once when the step ends. They are deliberately **not**
//!   deferred to the end of the step: the completion sweep takes about a
//!   millisecond, and holding every wake back until it ends leaves the
//!   other workers idle for all of it — measured 13 % slower end to end
//!   than waking one rank per lock. Chunks feed the peers every few
//!   microseconds at one lock per 32 wakes. Wakes from threads that are
//!   not a worker of the driver (the coordinator, a fault injector) go
//!   straight to the queue.
//! * **Idle-gated notify.** The queue counts the workers parked on its
//!   condvar; a push notifies only when that count is non-zero, so the
//!   steady state — every worker busy — makes no futex call.
//! * `Yield(Poll)` requeues at the FIFO tail, behind every ready rank.
//!
//! As in the thread representation, idle driver workers park event-driven
//! with a long counted backstop (a rescue sweep that requeues every
//! parked rank), so the zero-timed-wakeup contract is asserted for both
//! representations by the same [`WakeupStats`] block.

use crate::fail::{FailPlane, KilledByFault};
use crate::world::{LaunchGate, SpawnError, DEFAULT_RANK_STACK};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Backstop re-check interval for slot waits. Grants are targeted (a
/// waiter can never steal another rank's grant) and notified under the
/// state mutex, so this only defends against a pathological lost wakeup;
/// it is not a scheduling quantum. It is deliberately long: at 4096 ranks
/// a whole world's worth of waiters can be queued behind two run slots
/// for hundreds of milliseconds, and a short re-check would turn every
/// queued rank into a timed poller — the class of hidden cost this
/// scheduler exists to remove. Expiries are counted in [`WakeupStats`]:
/// at tier-1 scales a healthy world never pays one; at extreme
/// multiplexing ratios (4096 ranks on 2 workers) a FIFO queue wait can
/// legitimately outlast even this window, so the counter reads as the
/// residual timed-wakeup load rather than strictly zero.
const GRANT_RECHECK: Duration = Duration::from_secs(1);

/// Counters for the wall-clock wait paths shared by one world's ranks.
///
/// Every unbounded park in the system (slot grants here, mailbox receive
/// waits, the checkpoint layer's control parks) is event-driven with a
/// long *backstop* timeout for defense in depth. A regression back to
/// timed polling is invisible in any functional test — results stay
/// correct, only host sys-time blows up (the pre-scheduler 200 µs
/// re-checks throttled 256-rank captures ~30×). So the backstops are made
/// observable: every wait that expires its backstop without the awaited
/// event having fired bumps [`WakeupStats::backstop_expiries`], and a
/// tier-1 test asserts the count stays at ~0 across a checkpointed run.
#[derive(Debug, Default)]
pub struct WakeupStats {
    /// Wakeups caused by a backstop timeout rather than the awaited event.
    backstop_expiries: AtomicU64,
}

impl WakeupStats {
    /// Records one backstop-expiry wakeup.
    #[inline]
    pub fn record_backstop_expiry(&self) {
        self.backstop_expiries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total backstop-expiry wakeups since construction.
    #[inline]
    pub fn backstop_expiries(&self) -> u64 {
        self.backstop_expiries.load(Ordering::Relaxed)
    }
}

/// Where one rank currently stands with the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Not under scheduler management (never attached, finished, or
    /// voluntarily slotless inside a [`Scheduler::blocking`] section).
    Detached,
    /// Waiting in the FIFO queue for a run slot.
    Queued,
    /// A slot has been assigned to this rank; it has not woken yet.
    Granted,
    /// Holding a run slot and executing.
    Running,
}

struct SchedState {
    /// Unassigned run slots.
    free: usize,
    /// Ranks waiting for a slot, FIFO. Invariant: non-empty only while
    /// `free == 0` (slots hand off directly to the queue head).
    queue: VecDeque<usize>,
    /// Per-rank status.
    status: Vec<Status>,
}

/// Bounded run-slot pool multiplexing `n_ranks` rank threads onto
/// `workers` concurrently-running workers. See the module docs.
pub struct Scheduler {
    workers: usize,
    state: Mutex<SchedState>,
    /// Per-rank grant signal (all share the state mutex).
    cvs: Vec<Condvar>,
    /// Shared backstop-expiry accounting for this world's wait paths.
    stats: Arc<WakeupStats>,
    /// The fault-propagation plane shared by every wait path (and every
    /// lower-half generation) built on this scheduler. Healthy runs never
    /// touch it; a fault injector poisons it to abort the world promptly
    /// with a typed [`crate::fail::RankDeath`].
    fail: Arc<FailPlane>,
    /// Rank-waker registry: installed by the runner that drives the ranks
    /// (a [`StepDriver`] harness, or a per-rank event wait for ranks on
    /// threads) so that every lower-half generation built on this scheduler
    /// — the restart path creates fresh mailboxes mid-run — wires its
    /// event sources back to that driver without the runner's involvement.
    rank_wake: Mutex<Option<RankWakeFn>>,
}

/// The wake routing installed via [`Scheduler::install_rank_waker`]:
/// `f(rank)` tells `rank`'s driver that a lower-half event (mailbox
/// deposit, collective completion, poison) landed for it.
pub type RankWakeFn = Arc<dyn Fn(usize) + Send + Sync>;

impl Scheduler {
    /// A scheduler for `n_ranks` ranks and `workers` run slots.
    ///
    /// # Panics
    /// Panics if either is zero.
    pub fn new(n_ranks: usize, workers: usize) -> Arc<Scheduler> {
        assert!(n_ranks > 0, "scheduler needs at least one rank");
        assert!(workers > 0, "scheduler needs at least one worker slot");
        Arc::new(Scheduler {
            workers,
            state: Mutex::new(SchedState {
                free: workers,
                queue: VecDeque::new(),
                status: vec![Status::Detached; n_ranks],
            }),
            cvs: (0..n_ranks).map(|_| Condvar::new()).collect(),
            stats: Arc::new(WakeupStats::default()),
            fail: Arc::new(FailPlane::new()),
            rank_wake: Mutex::new(None),
        })
    }

    /// The fault-propagation plane shared by every world generation built
    /// on this scheduler. See [`crate::fail`].
    #[inline]
    pub fn fail_plane(&self) -> &Arc<FailPlane> {
        &self.fail
    }

    /// Installs the lower half's wake routing: `f(rank)` must make `rank`
    /// poll again — requeue it on a step driver, or advance a thread
    /// rank's event wait. Every world attached to this scheduler after
    /// the call (including restart generations) wires its mailboxes to
    /// it. Installing replaces any previous routing.
    pub fn install_rank_waker(&self, f: RankWakeFn) {
        *self.rank_wake.lock() = Some(f);
    }

    /// A per-rank waker derived from the installed routing, or `None`
    /// when nothing is installed (bare [`crate::run_world`] ranks, which
    /// block inside `Ctx` and need none).
    pub fn rank_waker_for(&self, rank: usize) -> Option<Arc<dyn Fn() + Send + Sync>> {
        let f = self.rank_wake.lock().clone()?;
        Some(Arc::new(move || f(rank)))
    }

    /// The shared wakeup-statistics block. The scheduler outlives every
    /// lower-half generation, so this is the natural per-world home for
    /// the backstop-expiry counter; the mailbox and checkpoint-control
    /// wait paths share the same block.
    #[inline]
    pub fn stats(&self) -> &Arc<WakeupStats> {
        &self.stats
    }

    /// The default worker count for this host: every available core, but
    /// at least 2 so one slot-holding wall-clock sleep can never serialize
    /// the whole world behind it.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .max(2)
    }

    /// Number of run slots.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of ranks this scheduler manages.
    pub fn n_ranks(&self) -> usize {
        self.cvs.len()
    }

    /// Registers `rank` and acquires its first run slot (FIFO). Call at
    /// the top of the rank's thread body.
    pub fn attach(&self, rank: usize) {
        let mut st = self.state.lock();
        assert_eq!(
            st.status[rank],
            Status::Detached,
            "rank {rank} attached twice"
        );
        self.acquire_locked(&mut st, rank);
    }

    /// Releases whatever `rank` holds and unregisters it. Idempotent; safe
    /// to call from a panic-cleanup path regardless of where the rank
    /// stood.
    pub fn detach(&self, rank: usize) {
        let mut st = self.state.lock();
        match st.status[rank] {
            Status::Running | Status::Granted => self.release_locked(&mut st),
            Status::Queued => st.queue.retain(|&r| r != rank),
            Status::Detached => {}
        }
        st.status[rank] = Status::Detached;
    }

    /// Cooperative yield-point for polling loops. If any rank is queued
    /// for a slot, hands this rank's slot to the queue head, requeues the
    /// caller at the tail, and blocks until re-granted — strict
    /// round-robin. Returns `true` if a rotation happened, `false` on the
    /// fast path (no contention, or the caller is not slot-managed).
    pub fn yield_now(&self, rank: usize) -> bool {
        let mut st = self.state.lock();
        if st.status[rank] != Status::Running || st.queue.is_empty() {
            return false;
        }
        self.release_locked(&mut st);
        self.acquire_locked(&mut st, rank);
        true
    }

    /// Runs `f` — which may block on any condition variable or sleep —
    /// with this rank's run slot released, then re-acquires the slot
    /// (FIFO) before returning. The bracket nests harmlessly: an inner
    /// `blocking` on an already-slotless rank just runs its closure. Ranks
    /// never attached run `f` directly.
    pub fn blocking<T>(&self, rank: usize, f: impl FnOnce() -> T) -> T {
        let held = {
            let mut st = self.state.lock();
            if st.status[rank] == Status::Running {
                self.release_locked(&mut st);
                st.status[rank] = Status::Detached;
                true
            } else {
                false
            }
        };
        let out = f();
        if held {
            let mut st = self.state.lock();
            self.acquire_locked(&mut st, rank);
        }
        out
    }

    /// Borrows every currently-free run slot for a bounded out-of-band
    /// task — the checkpoint coordinator's parallel capture/serialize
    /// bracket.
    ///
    /// At a checkpoint quiesce every rank is parked slotless inside a
    /// [`Scheduler::blocking`] section, so the whole pool is idle. The
    /// coordinator claims it, runs `f` with the claimed slot count (at
    /// least 1: the coordinator's own thread always counts as a worker),
    /// and on return the claimed slots flow back through the normal FIFO
    /// hand-off, so ranks that queued while the pool was borrowed wake in
    /// order.
    pub fn borrow_workers<T>(&self, f: impl FnOnce(usize) -> T) -> T {
        let claimed = {
            let mut st = self.state.lock();
            std::mem::take(&mut st.free)
        };
        let out = f(claimed.max(1));
        if claimed > 0 {
            let mut st = self.state.lock();
            for _ in 0..claimed {
                self.release_locked(&mut st);
            }
        }
        out
    }

    /// The **thread-per-object driver**, [`StepDriver::run`]'s counterpart
    /// for objects that own a stack. `objs[i]` is rank `i`'s continuation;
    /// each gets one OS thread ([`DEFAULT_RANK_STACK`]) which attaches,
    /// steps the object until [`Step::Done`] and detaches — also when it
    /// panicked, so a dead rank cannot starve its peers of run slots. An
    /// object that must wait sleeps *inside* its `step`
    /// ([`Scheduler::blocking`]), so a [`Step::Yield`] is a cooperative
    /// poll: rotate the run slot and step again.
    ///
    /// The launch is all-or-nothing: if a thread fails to spawn, the ranks
    /// spawned before it return unstepped, `launched` never runs and the
    /// typed [`SpawnError`] is returned. Otherwise `launched` runs on the
    /// calling thread while the ranks do, and its value is returned once
    /// every rank is done. The first rank panic is then re-raised — except
    /// the quiet [`KilledByFault`] unwind, which is how a killed world ends.
    pub fn run_threads<'a, T>(
        &self,
        objs: Vec<Box<dyn RankStep + 'a>>,
        launched: impl FnOnce() -> T,
    ) -> Result<T, SpawnError> {
        let n_ranks = objs.len();
        let gate = LaunchGate::new();
        std::thread::scope(|s| {
            let gate = &gate;
            let mut handles = Vec::with_capacity(n_ranks);
            let mut spawn_err = None;
            for (rank, mut obj) in objs.into_iter().enumerate() {
                let spawned = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(DEFAULT_RANK_STACK)
                    .spawn_scoped(s, move || {
                        if !gate.wait() {
                            return Ok(()); // aborted launch: dropped unstepped
                        }
                        self.attach(rank);
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            while let Step::Yield(_) = obj.step() {
                                self.yield_now(rank);
                            }
                        }));
                        self.detach(rank);
                        out
                    });
                match spawned {
                    Ok(h) => handles.push(h),
                    Err(e) => {
                        spawn_err = Some(SpawnError {
                            rank,
                            n_ranks,
                            reason: e.to_string(),
                        });
                        break;
                    }
                }
            }
            gate.decide(spawn_err.is_none());
            let out = match spawn_err {
                None => Ok(launched()),
                Some(e) => Err(e),
            };
            let mut panic = None;
            for h in handles {
                if let Err(p) = h.join().and_then(|stepped| stepped) {
                    if panic.is_none() && !p.is::<KilledByFault>() {
                        panic = Some(p);
                    }
                }
            }
            if let Some(p) = panic {
                std::panic::resume_unwind(p);
            }
            out
        })
    }

    /// Assigns a freed slot: directly to the queue head if anyone waits,
    /// back to the free pool otherwise.
    fn release_locked(&self, st: &mut SchedState) {
        if let Some(next) = st.queue.pop_front() {
            st.status[next] = Status::Granted;
            self.cvs[next].notify_all();
        } else {
            st.free += 1;
        }
    }

    /// Acquires a slot for `rank`, queueing FIFO behind earlier waiters.
    fn acquire_locked(&self, st: &mut parking_lot::MutexGuard<'_, SchedState>, rank: usize) {
        if st.free > 0 && st.queue.is_empty() {
            st.free -= 1;
            st.status[rank] = Status::Running;
            return;
        }
        st.status[rank] = Status::Queued;
        st.queue.push_back(rank);
        while st.status[rank] != Status::Granted {
            let timed_out = self.cvs[rank].wait_for(st, GRANT_RECHECK).timed_out();
            if timed_out && st.status[rank] != Status::Granted {
                // Grants notify under the state mutex, so this can only be
                // a genuinely unproductive wakeup — count it.
                self.stats.record_backstop_expiry();
            }
        }
        st.status[rank] = Status::Running;
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Scheduler")
            .field("workers", &self.workers)
            .field("n_ranks", &self.cvs.len())
            .field("free", &st.free)
            .field("queued", &st.queue.len())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Step-function ranks
// ---------------------------------------------------------------------

/// What a step rank is waiting for when it yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// An external event will arrive (mailbox deposit, collective
    /// completion, checkpoint-control wake) and the event source wakes
    /// this rank through its driver waker. The rank parks until then.
    Event,
    /// The rank is a self-driving poller (its own next step is the
    /// productive path — e.g. a charged `MPI_Test` loop advancing its own
    /// clock). The driver requeues it immediately at the tail, behind
    /// every currently-ready rank.
    Poll,
}

/// One resumption's outcome for a step rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The body reached a wait point; resume it again later.
    Yield(WaitReason),
    /// The body ran to completion; never step this rank again.
    Done,
}

/// A rank body lowered to an explicit resumable state machine. Each
/// [`RankStep::step`] call runs the body forward to its next wait point.
/// The object *is* the rank's continuation: all state that a blocking
/// body would keep on its stack lives in the implementor's fields.
pub trait RankStep: Send {
    /// Resumes the rank; returns how it stopped.
    fn step(&mut self) -> Step;
}

/// Where one step rank currently stands with the driver, held in a
/// per-rank atomic so that only transitions which *queue* a rank ever
/// need the ready-queue lock.
mod run_state {
    /// Waiting for an event; not queued anywhere.
    pub const PARKED: u8 = 0;
    /// Awaiting a worker: in the ready queue, in a worker's popped batch,
    /// or in a worker's not-yet-flushed in-step wake buffer — exactly one
    /// of the three.
    pub const QUEUED: u8 = 1;
    /// A worker is inside this rank's `step()`.
    pub const RUNNING: u8 = 2;
    /// `RUNNING`, and an event arrived mid-step: a `Yield(Event)` return
    /// requeues instead of parking (the lost-wakeup guard).
    pub const RUNNING_WAKE: u8 = 3;
    /// `Done` was returned (or the body panicked); never resumed again.
    pub const FINISHED: u8 = 4;
}
use run_state::{FINISHED, PARKED, QUEUED, RUNNING, RUNNING_WAKE};

struct ReadyQueue {
    ready: VecDeque<usize>,
    /// Workers currently parked on the driver condvar.
    idle: usize,
}

/// Resumes [`RankStep`] objects on a bounded worker pool. See the module
/// docs ("Step-function ranks") for the representation contract and the
/// wake protocol.
///
/// The driver holds only *wake state* (ready queue + per-rank run state);
/// the step objects themselves are owned by [`StepDriver::run`]'s scope,
/// which lets bodies borrow non-`'static` data while wakers installed
/// into long-lived mailboxes stay `'static`.
pub struct StepDriver {
    /// Per-rank run state (see [`run_state`]).
    run: Vec<AtomicU8>,
    /// Ranks not yet `FINISHED`.
    live: AtomicUsize,
    queue: Mutex<ReadyQueue>,
    cv: Condvar,
    stats: Arc<WakeupStats>,
}

/// Idle-worker backstop: how long a driver worker sleeps on an empty
/// ready queue before sweeping every parked rank back into the queue.
/// With complete waker coverage the sweep never finds anything to do —
/// like every other backstop it is defense in depth against a lost
/// wakeup, and a sweep that requeues parked ranks is counted in
/// [`WakeupStats`] so the zero-timed-wakeup assertion covers the step
/// representation too.
const DRIVER_RESCUE: Duration = Duration::from_secs(1);

/// Most ranks a worker takes from the ready queue per lock acquisition:
/// large enough that the queue lock is amortized over tens of steps,
/// small enough that a worker's private batch cannot hide more than a
/// few tens of microseconds of work from an idle peer.
const POP_BATCH: usize = 64;

/// In-step wakes are pushed to the ready queue once this many have
/// accumulated: one lock per chunk instead of one per wake, while a
/// 4095-rank completion sweep still feeds the other workers every few
/// microseconds instead of at the end of the step.
const WAKE_CHUNK: usize = 32;

/// Ranks woken from inside a `step()` on this thread, already `QUEUED`
/// but not yet pushed to the ready queue of the driver whose worker this
/// thread is.
struct StepWakes {
    /// Address of the driver this thread is a worker of; 0 on any other
    /// thread.
    driver: usize,
    ranks: Vec<usize>,
}

thread_local! {
    static STEP_WAKES: RefCell<StepWakes> = const {
        RefCell::new(StepWakes {
            driver: 0,
            ranks: Vec::new(),
        })
    };
}

impl StepDriver {
    /// A driver for `n_ranks` step ranks, sharing `stats` with the wait
    /// paths of the world(s) it will drive. All ranks start ready.
    pub fn new(n_ranks: usize, stats: Arc<WakeupStats>) -> Arc<StepDriver> {
        assert!(n_ranks > 0, "driver needs at least one rank");
        Arc::new(StepDriver {
            run: (0..n_ranks).map(|_| AtomicU8::new(QUEUED)).collect(),
            live: AtomicUsize::new(n_ranks),
            queue: Mutex::new(ReadyQueue {
                ready: (0..n_ranks).collect(),
                idle: 0,
            }),
            cv: Condvar::new(),
            stats,
        })
    }

    /// Number of ranks this driver manages.
    pub fn n_ranks(&self) -> usize {
        self.run.len()
    }

    /// This driver's identity for the per-thread in-step wake buffer.
    fn id(&self) -> usize {
        self as *const StepDriver as usize
    }

    /// Event-source hook: makes `rank` runnable. Parked → queued;
    /// mid-step → wake-pending (requeued when its step yields); queued or
    /// finished → no-op. Always safe, never blocks on rank state, and
    /// takes the ready-queue lock only when a parked rank must be queued
    /// from outside a `step()`.
    pub fn wake(&self, rank: usize) {
        let state = &self.run[rank];
        let mut cur = state.load(Ordering::Relaxed);
        loop {
            let next = match cur {
                PARKED => QUEUED,
                RUNNING => RUNNING_WAKE,
                other => other,
            };
            // Always a read-modify-write, even when the state does not
            // change: its release half orders the event source's
            // published state before the acquire swap of whichever
            // worker next runs this rank, so a wake that finds the rank
            // `QUEUED` still guarantees the coming step observes the
            // event.
            match state.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if cur == PARKED {
            self.enqueue_woken(rank);
        }
    }

    /// Queues a rank this thread just moved `PARKED → QUEUED`. From
    /// inside a `step()` on one of this driver's workers the push is
    /// buffered and flushed a [`WAKE_CHUNK`] at a time (and when the step
    /// ends); from any other thread it goes straight to the ready queue.
    fn enqueue_woken(&self, rank: usize) {
        let me = self.id();
        let buffered = STEP_WAKES
            .try_with(|w| {
                let mut w = w.borrow_mut();
                if w.driver != me {
                    return false;
                }
                w.ranks.push(rank);
                if w.ranks.len() >= WAKE_CHUNK {
                    self.push_ready(w.ranks.drain(..));
                }
                true
            })
            .unwrap_or(false);
        if !buffered {
            self.push_ready(std::iter::once(rank));
        }
    }

    /// Appends `QUEUED` ranks to the ready queue under one lock and
    /// notifies only if a worker is actually parked.
    fn push_ready(&self, ranks: impl ExactSizeIterator<Item = usize>) {
        let n = ranks.len();
        if n == 0 {
            return;
        }
        let mut q = self.queue.lock();
        q.ready.extend(ranks);
        if q.idle > 0 {
            if n == 1 {
                self.cv.notify_one();
            } else {
                self.cv.notify_all();
            }
        }
    }

    /// A `'static` waker for `rank`, suitable for installing into mailbox
    /// and checkpoint-control wake slots.
    pub fn waker(self: &Arc<Self>, rank: usize) -> Arc<dyn Fn() + Send + Sync> {
        let d = Arc::clone(self);
        Arc::new(move || d.wake(rank))
    }

    /// Runs every step object to completion on `workers` pool threads,
    /// blocking the caller until all ranks are finished. `objs[i]` is
    /// rank `i`'s continuation. The first panic from a body is re-raised
    /// on the caller after the pool drains — except, as under
    /// [`Scheduler::run_threads`], the quiet [`KilledByFault`] unwind (the
    /// panicking rank is marked finished; peers blocked on it
    /// indefinitely will only make rescue-sweep progress).
    pub fn run<'a>(&self, workers: usize, objs: Vec<Box<dyn RankStep + 'a>>) {
        assert_eq!(objs.len(), self.n_ranks(), "one step object per rank");
        let workers = workers.max(1);
        // Each slot's lock is private to its rank: the run state admits
        // one worker at a time, so the lock only makes that exclusivity
        // visible to the type system.
        let slots: Vec<Mutex<Box<dyn RankStep + 'a>>> = objs.into_iter().map(Mutex::new).collect();
        let panics: Mutex<Vec<Box<dyn std::any::Any + Send>>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| self.worker_loop(workers, &slots, &panics));
            }
        });
        let loud = |p: &Box<dyn std::any::Any + Send>| !p.is::<KilledByFault>();
        if let Some(p) = panics.into_inner().into_iter().find(loud) {
            std::panic::resume_unwind(p);
        }
    }

    fn worker_loop<'a>(
        &self,
        workers: usize,
        slots: &[Mutex<Box<dyn RankStep + 'a>>],
        panics: &Mutex<Vec<Box<dyn std::any::Any + Send>>>,
    ) {
        // For the life of the thread: `run` spawns its workers afresh.
        STEP_WAKES.with(|w| w.borrow_mut().driver = self.id());
        let mut batch: Vec<usize> = Vec::with_capacity(POP_BATCH);
        while self.pop_batch(workers, &mut batch) {
            for rank in batch.drain(..) {
                self.resume(rank, &slots[rank], panics);
            }
        }
    }

    /// Fills `batch` with this worker's share of the ready queue
    /// (`ceil(ready / workers)`, at most [`POP_BATCH`]), parking until
    /// something is ready. Returns `false` once every rank has finished.
    fn pop_batch(&self, workers: usize, batch: &mut Vec<usize>) -> bool {
        let mut q = self.queue.lock();
        loop {
            if self.live.load(Ordering::Acquire) == 0 {
                return false;
            }
            if !q.ready.is_empty() {
                let take = q.ready.len().div_ceil(workers).min(POP_BATCH);
                batch.extend(q.ready.drain(..take));
                return true;
            }
            q.idle += 1;
            let timed_out = self.cv.wait_for(&mut q, DRIVER_RESCUE).timed_out();
            q.idle -= 1;
            if timed_out && q.ready.is_empty() {
                // Rescue sweep: requeue every parked rank so a lost
                // wakeup degrades to slow instead of hung. One counted
                // expiry per productive sweep.
                for (rank, state) in self.run.iter().enumerate() {
                    let parked = state
                        .compare_exchange(PARKED, QUEUED, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok();
                    if parked {
                        q.ready.push_back(rank);
                    }
                }
                if !q.ready.is_empty() {
                    self.stats.record_backstop_expiry();
                    self.cv.notify_all();
                }
            }
        }
    }

    /// Runs one `step()` of a rank this worker popped and files the
    /// outcome — without the queue lock unless the rank must be requeued
    /// or was the last to finish.
    fn resume<'a>(
        &self,
        rank: usize,
        slot: &Mutex<Box<dyn RankStep + 'a>>,
        panics: &Mutex<Vec<Box<dyn std::any::Any + Send>>>,
    ) {
        let state = &self.run[rank];
        let was = state.swap(RUNNING, Ordering::AcqRel);
        debug_assert_eq!(was, QUEUED, "only queued ranks are resumed");
        let outcome = {
            let mut obj = slot.lock();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| obj.step()))
        };
        // Wakes the step issued and did not fill a chunk with.
        STEP_WAKES.with(|w| self.push_ready(w.borrow_mut().ranks.drain(..)));
        let step = outcome.unwrap_or_else(|payload| {
            panics.lock().push(payload);
            Step::Done
        });
        let requeue = match step {
            Step::Yield(WaitReason::Poll) => true,
            // Park unless a wake landed mid-step.
            Step::Yield(WaitReason::Event) => state
                .compare_exchange(RUNNING, PARKED, Ordering::AcqRel, Ordering::Relaxed)
                .is_err(),
            Step::Done => {
                state.store(FINISHED, Ordering::Release);
                if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Under the queue lock, so a worker between its
                    // `live` check and its wait cannot miss it.
                    let _q = self.queue.lock();
                    self.cv.notify_all();
                }
                false
            }
        };
        if requeue {
            state.store(QUEUED, Ordering::Release);
            self.push_ready(std::iter::once(rank));
        }
    }
}

impl std::fmt::Debug for StepDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepDriver")
            .field("n_ranks", &self.n_ranks())
            .field("live", &self.live.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn uncontended_fast_paths() {
        let s = Scheduler::new(4, 2);
        s.attach(0);
        assert!(!s.yield_now(0), "no contention: yield is a no-op");
        let v = s.blocking(0, || 42);
        assert_eq!(v, 42);
        s.detach(0);
        s.detach(0); // idempotent
    }

    #[test]
    fn unattached_rank_is_unmanaged() {
        let s = Scheduler::new(2, 1);
        // Never attached: blocking runs the closure, yield is a no-op.
        assert_eq!(s.blocking(1, || 7), 7);
        assert!(!s.yield_now(1));
    }

    #[test]
    fn slots_bound_concurrency() {
        // 4 ranks, 1 slot: the concurrently-running count must never
        // exceed 1 even though all 4 threads are alive.
        let s = Scheduler::new(4, 1);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for rank in 0..4 {
            let s = Arc::clone(&s);
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            handles.push(std::thread::spawn(move || {
                s.attach(rank);
                for _ in 0..50 {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(50));
                    running.fetch_sub(1, Ordering::SeqCst);
                    s.yield_now(rank);
                }
                s.detach(rank);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "slot bound violated");
    }

    #[test]
    fn blocking_releases_the_slot() {
        // 2 ranks, 1 slot: rank 0 blocks waiting for rank 1's signal;
        // rank 1 can only run if rank 0's blocking released the slot.
        let s = Scheduler::new(2, 1);
        let flag = Arc::new((Mutex::new(false), Condvar::new()));
        let s0 = Arc::clone(&s);
        let f0 = Arc::clone(&flag);
        let t0 = std::thread::spawn(move || {
            s0.attach(0);
            s0.blocking(0, || {
                let (m, cv) = &*f0;
                let mut done = m.lock();
                while !*done {
                    cv.wait_for(&mut done, Duration::from_millis(50));
                }
            });
            s0.detach(0);
        });
        std::thread::sleep(Duration::from_millis(20));
        let s1 = Arc::clone(&s);
        let f1 = Arc::clone(&flag);
        let t1 = std::thread::spawn(move || {
            s1.attach(1); // must succeed: slot was released by rank 0
            *f1.0.lock() = true;
            f1.1.notify_all();
            s1.detach(1);
        });
        t1.join().unwrap();
        t0.join().unwrap();
    }

    #[test]
    fn fifo_rotation_is_fair() {
        // 3 ranks, 1 slot, every rank yields in a loop: each must complete
        // its fixed iteration budget (no starvation).
        let s = Scheduler::new(3, 1);
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for rank in 0..3 {
            let s = Arc::clone(&s);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                s.attach(rank);
                for _ in 0..200 {
                    s.yield_now(rank);
                }
                done.fetch_add(1, Ordering::SeqCst);
                s.detach(rank);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn nested_blocking_is_harmless() {
        let s = Scheduler::new(1, 1);
        s.attach(0);
        let v = s.blocking(0, || s.blocking(0, || 5));
        assert_eq!(v, 5);
        // Slot was re-acquired exactly once.
        assert!(!s.yield_now(0));
        s.detach(0);
    }

    #[test]
    fn borrow_workers_claims_idle_pool_and_returns_it() {
        let s = Scheduler::new(4, 2);
        // Pool fully idle (mirrors a checkpoint quiesce): both slots lent.
        s.borrow_workers(|k| assert_eq!(k, 2));
        // Slots came back: two ranks attach without blocking.
        s.attach(0);
        s.attach(1);
        // One slot held by each rank, none free: the borrow still runs
        // with at least the caller's own thread.
        s.borrow_workers(|k| assert_eq!(k, 1));
        s.detach(0);
        s.detach(1);
    }

    #[test]
    fn ranks_queued_during_borrow_wake_on_return() {
        let s = Scheduler::new(2, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let s0 = Arc::clone(&s);
        let g0 = Arc::clone(&gate);
        let t = std::thread::spawn(move || {
            // Wait until the borrow is in progress, then try to attach:
            // the slot is lent out, so this queues until the return path
            // releases it.
            let (m, cv) = &*g0;
            let mut started = m.lock();
            while !*started {
                cv.wait(&mut started);
            }
            drop(started);
            s0.attach(0);
            s0.detach(0);
        });
        s.borrow_workers(|k| {
            assert_eq!(k, 1);
            *gate.0.lock() = true;
            gate.1.notify_all();
            // Give the attacher time to queue behind the borrowed slot.
            std::thread::sleep(Duration::from_millis(20));
        });
        t.join().unwrap();
    }

    #[test]
    fn step_driver_runs_every_rank_to_done() {
        struct Counter {
            left: usize,
            total: Arc<AtomicUsize>,
        }
        impl RankStep for Counter {
            fn step(&mut self) -> Step {
                if self.left == 0 {
                    self.total.fetch_add(1, Ordering::SeqCst);
                    Step::Done
                } else {
                    self.left -= 1;
                    Step::Yield(WaitReason::Poll)
                }
            }
        }
        let stats = Arc::new(WakeupStats::default());
        let d = StepDriver::new(8, Arc::clone(&stats));
        let total = Arc::new(AtomicUsize::new(0));
        let objs: Vec<Box<dyn RankStep>> = (0..8)
            .map(|i| {
                Box::new(Counter {
                    left: i,
                    total: Arc::clone(&total),
                }) as Box<dyn RankStep>
            })
            .collect();
        d.run(2, objs);
        assert_eq!(total.load(Ordering::SeqCst), 8);
        assert_eq!(stats.backstop_expiries(), 0, "poll yields never park");
    }

    #[test]
    fn step_driver_event_wake_is_lost_wakeup_proof() {
        // Rank 1 parks until rank 0 publishes a flag and wakes it. The
        // publish-then-wake order is the system-wide contract; whichever
        // side the race lands on (wake before park → wake_pending; wake
        // after park → requeue) the consumer must finish without a
        // rescue-sweep expiry.
        struct Producer {
            flag: Arc<AtomicUsize>,
            wake_peer: Arc<dyn Fn() + Send + Sync>,
        }
        impl RankStep for Producer {
            fn step(&mut self) -> Step {
                self.flag.store(1, Ordering::SeqCst);
                (self.wake_peer)();
                Step::Done
            }
        }
        struct Consumer {
            flag: Arc<AtomicUsize>,
        }
        impl RankStep for Consumer {
            fn step(&mut self) -> Step {
                if self.flag.load(Ordering::SeqCst) == 0 {
                    Step::Yield(WaitReason::Event)
                } else {
                    Step::Done
                }
            }
        }
        for _ in 0..50 {
            let stats = Arc::new(WakeupStats::default());
            let d = StepDriver::new(2, Arc::clone(&stats));
            let flag = Arc::new(AtomicUsize::new(0));
            let objs: Vec<Box<dyn RankStep>> = vec![
                Box::new(Producer {
                    flag: Arc::clone(&flag),
                    wake_peer: d.waker(1),
                }),
                Box::new(Consumer {
                    flag: Arc::clone(&flag),
                }),
            ];
            d.run(2, objs);
            assert_eq!(flag.load(Ordering::SeqCst), 1);
            assert_eq!(stats.backstop_expiries(), 0, "event wake must be direct");
        }
    }

    #[test]
    fn step_driver_stress_loses_no_wakeup() {
        // Token passing with exact totals: every rank must receive
        // `2 * ROUNDS` tokens from two foreign threads plus `FORWARD`
        // from its predecessor before it is done, and every token is
        // published (inbox increment) *then* announced (`wake`). A wake
        // lost anywhere — parked, queued, mid-step, buffered in a
        // worker's in-step chunk — strands a token in a parked rank's
        // inbox after the senders have gone quiet, which only the rescue
        // sweep can recover: a counted expiry.
        const RANKS: usize = 256;
        const ROUNDS: usize = 100;
        const FORWARD: usize = 100;
        const NEED: usize = 2 * ROUNDS + FORWARD;

        struct Shared {
            driver: Arc<StepDriver>,
            inbox: Vec<AtomicUsize>,
            inside: Vec<std::sync::atomic::AtomicBool>,
        }
        impl Shared {
            fn send(&self, to: usize) {
                self.inbox[to].fetch_add(1, Ordering::SeqCst);
                self.driver.wake(to);
            }
        }
        struct Node {
            rank: usize,
            received: usize,
            forwarded: usize,
            rng: u64,
            sh: Arc<Shared>,
        }
        impl RankStep for Node {
            fn step(&mut self) -> Step {
                let sh = Arc::clone(&self.sh);
                assert!(
                    !sh.inside[self.rank].swap(true, Ordering::SeqCst),
                    "rank {} stepped on two workers at once",
                    self.rank
                );
                self.received += sh.inbox[self.rank].swap(0, Ordering::SeqCst);
                let done = self.received >= NEED;
                // Forward one token a step; the remainder all at once
                // when done, so every rank sends exactly `FORWARD`.
                let n = if done { FORWARD - self.forwarded } else { 1 };
                for _ in 0..n.min(FORWARD - self.forwarded) {
                    sh.send((self.rank + 1) % RANKS);
                    self.forwarded += 1;
                }
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                sh.inside[self.rank].store(false, Ordering::SeqCst);
                if done {
                    Step::Done
                } else if self.rng & 3 == 0 {
                    Step::Yield(WaitReason::Poll)
                } else {
                    Step::Yield(WaitReason::Event)
                }
            }
        }
        for workers in [1, 2, 4] {
            let stats = Arc::new(WakeupStats::default());
            let driver = StepDriver::new(RANKS, Arc::clone(&stats));
            let sh = Arc::new(Shared {
                driver: Arc::clone(&driver),
                inbox: (0..RANKS).map(|_| AtomicUsize::new(0)).collect(),
                inside: (0..RANKS).map(|_| Default::default()).collect(),
            });
            let objs: Vec<Box<dyn RankStep>> = (0..RANKS)
                .map(|rank| {
                    Box::new(Node {
                        rank,
                        received: 0,
                        forwarded: 0,
                        rng: 0x9E37_79B9_7F4A_7C15 ^ (rank as u64 + 1),
                        sh: Arc::clone(&sh),
                    }) as Box<dyn RankStep>
                })
                .collect();
            let start = std::sync::Barrier::new(3);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..ROUNDS {
                            (0..RANKS).for_each(|to| sh.send(to));
                        }
                    });
                }
                start.wait();
                driver.run(workers, objs);
            });
            assert!(
                sh.inbox.iter().all(|i| i.load(Ordering::SeqCst) == 0),
                "every token consumed (W={workers})"
            );
            assert_eq!(
                stats.backstop_expiries(),
                0,
                "a wake was lost and rescued by the sweep (W={workers})"
            );
        }
    }

    #[test]
    fn scheduler_step_waker_registry_routes_by_rank() {
        let s = Scheduler::new(4, 2);
        assert!(
            s.rank_waker_for(0).is_none(),
            "nothing installed: no routing"
        );
        let hits = Arc::new(Mutex::new(Vec::new()));
        let h = Arc::clone(&hits);
        s.install_rank_waker(Arc::new(move |r| h.lock().push(r)));
        let w2 = s.rank_waker_for(2).expect("installed");
        let w0 = s.rank_waker_for(0).expect("installed");
        w2();
        w0();
        w2();
        assert_eq!(*hits.lock(), vec![2, 0, 2]);
    }

    #[test]
    fn detach_of_queued_rank_leaves_queue_clean() {
        let s = Scheduler::new(3, 1);
        s.attach(0);
        let s1 = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            s1.attach(1); // queues behind rank 0
            s1.detach(1);
        });
        std::thread::sleep(Duration::from_millis(10));
        s.detach(0); // hands the slot to rank 1
        t.join().unwrap();
        // Slot must be back in the pool: a fresh rank acquires instantly.
        s.attach(2);
        s.detach(2);
    }
}
