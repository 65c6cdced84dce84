//! Shared state of one checkpointable execution: the control plane, the
//! observability logs, and the current lower-half generation. Every attempt of the run loop — from scratch or from an
//! image — is one session.

use crate::avail::ArmedFault;
use mana_core::control::OBSERVER_BACKSTOP;
use mana_core::{CkptControl, DrainTrace, Protocol};
use mpisim::{RankDeath, World, WorldConfig};
use parking_lot::Mutex;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Everything the ranks and the coordinator share for one execution.
pub struct Session {
    /// The out-of-band control plane (rank states, mirrors, targets).
    pub control: Arc<CkptControl>,
    /// Drain-protocol event trace.
    pub trace: DrainTrace,
    /// The current lower-half generation. Replaced on restart.
    pub world: Mutex<Arc<World>>,
    /// Configuration used to build each lower-half generation.
    pub cfg: WorldConfig,
    /// The coordination protocol in force.
    pub protocol: Protocol,
    /// True while an asynchronous drain (coordinator handed the image to
    /// the background writer, ranks already resumed) is in flight. An
    /// armed fault reads it to place a `DuringAsyncDrain` death.
    pub bg_drain_inflight: AtomicBool,
    /// This attempt's planned fault until it strikes, checked on every
    /// wake of [`Session::wait_for`] and by the rank that completes its
    /// time.
    pub(crate) fault: Mutex<Option<ArmedFault>>,
}

/// Why an observer wait ended without its condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interrupted {
    /// An injected death poisoned the world.
    Died,
    /// `TARGET[]` is unmet and no live rank can run (the stall rule of
    /// [`mana_core::control`], which names its one misread shape).
    Stalled,
}

impl Session {
    /// Builds the shared state and a world for `cfg` as lower-half
    /// generation `epoch` (0 from scratch; one past the image's for a
    /// restore). Only the run loop builds sessions.
    pub(crate) fn new(cfg: WorldConfig, protocol: Protocol, epoch: u64) -> Arc<Session> {
        let world = World::with_epoch(cfg.clone(), epoch);
        // One WakeupStats block per session: the scheduler's. The control
        // plane's park backstops record into the same counter as the
        // scheduler and mailbox backstops, so "timed wakeups across this
        // run" is a single number.
        let stats = Arc::clone(world.scheduler().stats());
        Arc::new(Session {
            control: CkptControl::new_with_stats(cfg.n_ranks, stats),
            trace: DrainTrace::new(),
            world: Mutex::new(world),
            cfg,
            protocol,
            bg_drain_inflight: AtomicBool::new(false),
            fault: Mutex::new(None),
        })
    }

    /// The observer's one wait, on [`CkptControl::events`]: each check
    /// strikes a due fault, then ends on death or when `ready` yields
    /// (after an expiry with nothing announced since, a lost
    /// announcement: counted).
    pub(crate) fn wait_for<T>(
        &self,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Result<T, Interrupted> {
        let control = &self.control;
        let (mut expired, stats) = (false, Arc::clone(self.current_world().scheduler().stats()));
        let mut last = 0;
        loop {
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
                return r;
            }
            (expired, last) = (!control.events.wait_since(token, OBSERVER_BACKSTOP), token);
        }
    }

    /// Arms the attempt's planned fault: its time for the crossing that
    /// completes it to report ([`CkptControl::publish_progress`]).
    pub(crate) fn arm_fault(&self, fault: Option<ArmedFault>) {
        if let Some(f) = &fault {
            self.control.arm_fault(f.after_ns());
        }
        *self.fault.lock() = fault;
    }

    /// Fires the armed fault if its trigger holds now: called by the
    /// observer on every check, and by the rank whose progress or finish
    /// completes the fault's time.
    pub(crate) fn strike_if_due(&self) {
        let due = self.fault.lock().take_if(|f| f.due(self));
        if let Some(fault) = due {
            fault.strike(self);
        }
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
    /// accounting stops expecting them, and wakes every rank
    /// ([`mana_core::RankCtl::wake`]) and the observer. A woken rank reads
    /// the poisoned plane before its next step and retires without a
    /// result; the launcher turns the recorded death into a typed error.
    /// Only worlds on the worker pool are ever injected into.
    ///
    /// Returns `false` if the plane was already poisoned (the earlier death
    /// stands and this one is dropped).
    pub fn inject_failure(&self, death: RankDeath) -> bool {
        let victims = death.victims.clone();
        if !self.current_world().fail_plane().inject(death) {
            return false;
        }
        for &v in &victims {
            if let Some(ctl) = self.control.ranks.get(v) {
                ctl.mark_dead();
            }
        }
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
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BodyStep, CcRank, StepPoll};
    use bytes::Bytes;
    use mana_core::{CkptPhase, RankState};
    use mpisim::NetParams;
    use std::time::{Duration, Instant};

    /// Half the park backstop: a wait that ends inside this bound was
    /// ended by its event, not by the timeout.
    const PROMPT: Duration = Duration::from_millis(500);

    fn spin_until(what: &str, cond: impl Fn() -> bool) {
        let t = Instant::now();
        while !cond() {
            assert!(
                t.elapsed() < PROMPT,
                "{what}: the event did not wake the rank"
            );
            std::thread::yield_now();
        }
    }

    /// `CcRank::block_on`'s wait, end to end: a rank blocked in `run` on
    /// an `MPI_Wait` sleeps on one per-rank event that both the control
    /// plane and the lower half advance, so either alone must release it
    /// — promptly, and without a backstop expiry.
    #[test]
    fn blocked_wait_wakes_on_phase_change_alone_and_on_deposit_alone() {
        let cfg =
            WorldConfig::single_node(2).with_params(NetParams::slingshot11().without_jitter());
        let sh = Session::new(cfg, Protocol::TwoPhase, 0);
        // The launcher's wiring for ranks on threads: lower-half events
        // reach the rank's event counter through the scheduler's
        // rank-waker registry.
        let control = Arc::clone(&sh.control);
        let world = sh.current_world();
        world
            .scheduler()
            .install_rank_waker(Arc::new(move |r| control.ranks[r].wake()));
        world.install_rank_wakers();
        let ctl = &sh.control.ranks[1];
        // Either interleaving of "rank falls asleep" and "event lands"
        // must pass (the token closes the window); the pause only makes
        // the asleep-first one — the one that needs the notify — the
        // likely one.
        let settle = || std::thread::sleep(Duration::from_millis(20));
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut r = CcRank::new(&sh, 1);
                let v = r.irecv(r.world_vcomm(), 0, 7u32);
                r.run(&mut |r: &mut CcRank| match r.poll_wait(v) {
                    StepPoll::Ready(c) => BodyStep::Done(c.data),
                    StepPoll::Pending(why) => BodyStep::Yield(why),
                })
            });
            settle();

            // A coordinator phase change and no deposit: the rank leaves
            // its wait and parks for capture, cooperating in the receive.
            sh.control.request_checkpoint();
            sh.control.set_phase(CkptPhase::Quiescing);
            spin_until("phase change", || ctl.state() == RankState::RecvParked);
            // Resume it the way the coordinator does.
            sh.control.withdraw();
            sh.control.release();
            spin_until("resume", || ctl.state() == RankState::Running);
            settle();

            // A deposit and no control-plane event: the wait completes.
            let mut sender = CcRank::new(&sh, 0);
            let t = Instant::now();
            let v = sender.isend(sender.world_vcomm(), 1, 7u32, Bytes::from_static(b"x"));
            assert!(
                sender.poll_wait(v).is_ready(),
                "an eager send completes at once"
            );
            let data = receiver.join().expect("receiver returns its payload");
            assert!(
                t.elapsed() < PROMPT,
                "deposit: the event did not wake the rank"
            );
            assert_eq!(data.as_ref(), b"x");
        });
        assert_eq!(
            sh.backstop_expiries(),
            0,
            "a wait was ended by its backstop"
        );
    }
}
