//! The rank drivers, and the per-world state they share.
//!
//! A rank is driven one of two ways.
//!
//! * [`Scheduler::run_threads`], the **thread-per-object driver**, is the
//!   one place rank threads are spawned: bare `run_world` ranks and the
//!   checkpoint layer's closure bodies both run on it, as step objects
//!   that block instead of yielding. A thread rank is a plain OS thread
//!   whose only sleep is its one event wait ([`crate::Ctx::wait`]'s
//!   mailbox-token sleep, or the checkpoint layer's per-rank event
//!   counter); there is no admission bound, so a rank that wakes runs at
//!   once and the host's scheduler multiplexes the runnable ones.
//! * [`StepDriver`] resumes heap-allocated step objects on a bounded
//!   worker pool (below).
//!
//! A thread rank's footprint is its stack. Rank stacks default to
//! [`crate::world::DEFAULT_RANK_STACK`] (128 KiB, sized to measured
//! rank-body depth with 2× headroom) rather than the platform's 1 MiB-plus,
//! which is what lets 4096 sleeping continuations fit on a small host; and
//! every wait path shares the per-world [`WakeupStats`] block, so the
//! *absence* of timed wakeups is an asserted property rather than a hope.
//!
//! Nothing here touches virtual time: a driver changes only which host
//! thread runs when, never what the simulation computes. Wall-clock
//! interleaving was never deterministic; virtual-clock accounting, message
//! matching order per channel, and collective results are independent of
//! it — the deterministic-replay contract (`CallCounters` + `SEQ[]`
//! equality locating a restore cut) is preserved by construction.
//!
//! A [`Scheduler`] deliberately outlives any single [`crate::World`]: the
//! checkpoint engine replaces the lower half at restart while the ranks
//! live on, so restarted generations are built with
//! [`crate::World::with_epoch_attached`] onto the same scheduler and
//! inherit its wake routing, fault plane and wakeup statistics.
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
//! The [`StepDriver`] resumes step objects on a bounded worker pool of
//! [`Scheduler::workers`] threads. Wakeups use the one
//! event plumbing every driven rank has: each mailbox deposit and
//! collective completion is routed — through the waker a world wires up
//! from [`Scheduler::rank_waker_for`] — to whoever drives the rank. A
//! step harness installs [`StepDriver::wake`] there; the checkpoint layer
//! installs its per-rank event counter under either driver, which passes
//! the wake on to the pool for a pool-driven rank, so both drivers hear
//! about exactly the same events.
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
//!   not a worker of the driver (the coordinator) go
//!   straight to the queue.
//! * **Idle-gated notify.** The queue counts the workers parked on its
//!   condvar; a push notifies only when that count is non-zero, so the
//!   steady state — every worker busy — makes no futex call.
//! * `Yield(Poll)` requeues at the FIFO tail, behind every ready rank.
//!
//! Like a thread rank's event wait, idle driver workers park event-driven
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
use std::time::{Duration, Instant};

/// An event count — the one wait primitive of a mailbox, a thread rank's
/// park and the checkpoint observer. A waiter takes a token before it
/// checks its condition and sleeps only while the generation still equals
/// it; a publisher stores its state before it bumps, under the mutex a
/// waiter sleeps under, so no bump falls between a check and the sleep.
#[derive(Default)]
pub struct EventCount {
    /// `(generation, threads asleep in wait_since)`: a bump notifies only
    /// when there are sleepers (an idle `notify_all` is still a futex call).
    state: Mutex<(u64, usize)>,
    cv: Condvar,
}

impl EventCount {
    /// The current generation, to pass to [`EventCount::wait_since`].
    pub fn token(&self) -> u64 {
        self.state.lock().0
    }

    /// Blocks until a bump lands after `token` was taken, or `timeout`
    /// elapses; returns whether one landed.
    pub fn wait_since(&self, token: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut s = self.state.lock();
        while s.0 == token {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            s.1 += 1;
            self.cv.wait_for(&mut s, left);
            s.1 -= 1;
        }
        true
    }

    /// Threads asleep in [`EventCount::wait_since`] right now.
    pub fn waiters(&self) -> usize {
        self.state.lock().1
    }

    /// Announces an event, published before the call; returns the new
    /// generation.
    pub fn bump(&self) -> u64 {
        let (generation, waiting) = {
            let mut s = self.state.lock();
            s.0 += 1;
            (s.0, s.1 > 0)
        };
        if waiting {
            self.cv.notify_all();
        }
        generation
    }
}

/// Counters for the wall-clock wait paths shared by one world's ranks.
///
/// Every unbounded park in the system (mailbox receive waits, the
/// checkpoint layer's control parks, idle step-driver workers) is
/// event-driven with a
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

/// The per-world state every driver and every lower-half generation of
/// one world shares: the worker budget, the wake routing, the fault plane
/// and the wakeup statistics. See the module docs.
pub struct Scheduler {
    n_ranks: usize,
    /// Host threads a world may keep busy: the step driver's pool size,
    /// and the fan-out of a checkpoint's clone-out and encode.
    workers: usize,
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
    /// A scheduler for `n_ranks` ranks and a budget of `workers` threads.
    ///
    /// # Panics
    /// Panics if either is zero.
    pub fn new(n_ranks: usize, workers: usize) -> Arc<Scheduler> {
        assert!(n_ranks > 0, "scheduler needs at least one rank");
        assert!(workers > 0, "scheduler needs at least one worker");
        Arc::new(Scheduler {
            n_ranks,
            workers,
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
    /// at least 2 so one pool worker's wall-clock sleep can never
    /// serialize a whole step world behind it.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .max(2)
    }

    /// The worker budget: step-driver pool threads, and the fan-out of a
    /// checkpoint's clone-out and encode.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of ranks this scheduler manages.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// No-op. Thread ranks hold nothing to acquire; kept only because the
    /// frozen benchmark's `scheduler.block_grant_ns` drive spells it
    /// (ROADMAP item 6(d)).
    pub fn attach(&self, _rank: usize) {}

    /// No-op, the counterpart of [`Scheduler::attach`]; kept for the same
    /// benchmark drive.
    pub fn detach(&self, _rank: usize) {}

    /// An OS yield hint ([`std::thread::yield_now`]); kept for the same
    /// benchmark drive, which therefore times a host yield.
    pub fn yield_now(&self, _rank: usize) {
        std::thread::yield_now();
    }

    /// The **thread-per-object driver**, [`StepDriver::run`]'s counterpart
    /// for objects that own a stack. `objs[i]` is rank `i`'s continuation;
    /// each gets one OS thread ([`DEFAULT_RANK_STACK`]) which steps the
    /// object until [`Step::Done`]. An object that must wait sleeps
    /// *inside* its `step`, so a [`Step::Yield`] just steps it again.
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
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            while obj.step() != Step::Done {}
                        }))
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
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers)
            .field("n_ranks", &self.n_ranks)
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

    /// A thread-driver step object: runs `f` once.
    struct Once<F>(Option<F>);

    impl<F: FnOnce() + Send> RankStep for Once<F> {
        fn step(&mut self) -> Step {
            (self.0.take().expect("stepped after Done"))();
            Step::Done
        }
    }

    #[test]
    fn uncontended_fast_paths() {
        // The calls kept for the benchmark's slot drive hold nothing: more
        // attached ranks than workers, on one thread, never block.
        let s = Scheduler::new(4, 1);
        for rank in 0..4 {
            s.attach(rank);
            s.yield_now(rank);
        }
        for rank in 0..4 {
            s.detach(rank);
            s.detach(rank);
        }
    }

    #[test]
    fn unattached_rank_is_unmanaged() {
        // A rank that never attached holds nothing either: its yields and
        // detaches return at once, even while another rank is attached on
        // the only worker.
        let s = Scheduler::new(2, 1);
        s.attach(0);
        for _ in 0..100 {
            s.yield_now(1);
        }
        s.detach(1);
        s.detach(0);
    }

    #[test]
    fn thread_ranks_are_not_admission_bounded() {
        // 4 thread ranks on a 1-worker scheduler meet at a barrier that
        // only opens once all four are inside their bodies at once — and
        // each waits there with a plain blocking call.
        let s = Scheduler::new(4, 1);
        let barrier = std::sync::Barrier::new(4);
        let met = AtomicUsize::new(0);
        let objs: Vec<Box<dyn RankStep + '_>> = (0..4)
            .map(|_| {
                Box::new(Once(Some(|| {
                    barrier.wait();
                    met.fetch_add(1, Ordering::SeqCst);
                }))) as Box<dyn RankStep + '_>
            })
            .collect();
        s.run_threads(objs, || ()).expect("spawned");
        assert_eq!(met.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn blocking_releases_the_slot() {
        // 2 ranks, 1 worker: rank 0 blocks waiting for rank 1's signal
        // in a plain condition-variable wait; rank 1 runs regardless.
        let s = Scheduler::new(2, 1);
        let flag = (Mutex::new(false), Condvar::new());
        let wait = || {
            let mut done = flag.0.lock();
            while !*done {
                flag.1.wait(&mut done);
            }
        };
        let signal = || {
            *flag.0.lock() = true;
            flag.1.notify_all();
        };
        let objs: Vec<Box<dyn RankStep + '_>> =
            vec![Box::new(Once(Some(wait))), Box::new(Once(Some(signal)))];
        s.run_threads(objs, || ()).expect("spawned");
        assert!(*flag.0.lock());
    }

    #[test]
    fn yielding_thread_objects_run_to_done() {
        // 3 ranks, 1 worker, every object yields 200 times before it is
        // done: a yield steps the object again, and each completes.
        struct Yielder<'a> {
            left: usize,
            done: &'a AtomicUsize,
        }
        impl RankStep for Yielder<'_> {
            fn step(&mut self) -> Step {
                if self.left == 0 {
                    self.done.fetch_add(1, Ordering::SeqCst);
                    return Step::Done;
                }
                self.left -= 1;
                Step::Yield(WaitReason::Poll)
            }
        }
        let s = Scheduler::new(3, 1);
        let done = AtomicUsize::new(0);
        let objs: Vec<Box<dyn RankStep + '_>> = (0..3)
            .map(|_| {
                Box::new(Yielder {
                    left: 200,
                    done: &done,
                }) as Box<dyn RankStep + '_>
            })
            .collect();
        s.run_threads(objs, || ()).expect("spawned");
        assert_eq!(done.load(Ordering::SeqCst), 3);
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
}
