//! Fault propagation: the per-scheduler **fail plane**.
//!
//! A fault injector kills ranks at a virtual time; the runtime's job is to
//! make everything *currently blocked* on those ranks fail fast with a
//! typed [`RankDeath`] instead of waiting forever. The mechanism is a
//! single poison flag shared by every wait path:
//!
//! * the injector publishes a [`RankDeath`] into the scheduler's
//!   [`FailPlane`] (first death wins; a world dies once);
//! * every sleeper is woken through its normal event channel (mailbox
//!   activity, control parks) — no timed backstop is
//!   ever relied on, so the zero-backstop-expiry invariant holds through a
//!   kill;
//! * each blocking wait checks the plane when it wakes (and at entry) and
//!   unwinds its rank with a [`KilledByFault`] panic payload. The drivers
//!   swallow the payload and the launcher turns the recorded death into
//!   a typed error — the marker never escapes as a user-visible panic.
//!
//! Death is whole-world: as in real MPI, a dead rank aborts the job, and
//! recovery means restoring a checkpoint image onto the survivors (the
//! `ckpt` crate's availability loop). Survivor ranks therefore also unwind
//! — promptly, because the poison wake reaches every park.

use netmodel::VTime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

/// What a fault event kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// One rank dies (process kill).
    Rank(usize),
    /// Every rank packed onto this node dies, and node-local checkpoint
    /// data dies with it.
    Node(usize),
}

/// A typed rank/node death, published through the [`FailPlane`] and
/// surfaced by the runners instead of a panic or a hang.
#[derive(Debug, Clone, PartialEq)]
pub struct RankDeath {
    /// World ranks killed by this event.
    pub victims: Vec<usize>,
    /// The dead node, for node-scope events (node-local checkpoint tiers
    /// lose their shards with it).
    pub node: Option<usize>,
    /// Virtual time of death: the minimum live published clock when the
    /// injector fired.
    pub at: VTime,
}

impl std::fmt::Display for RankDeath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.node {
            Some(n) => write!(
                f,
                "node {n} died at v={:.6}s taking ranks {:?}",
                self.at.as_secs(),
                self.victims
            ),
            None => write!(
                f,
                "rank{} {:?} died at v={:.6}s",
                if self.victims.len() == 1 { "" } else { "s" },
                self.victims,
                self.at.as_secs()
            ),
        }
    }
}

/// The panic payload a rank unwinds with when it observes the poison flag.
/// Runners downcast for this marker and translate it into a typed
/// [`RankDeath`] error; it is never re-raised to the caller.
pub struct KilledByFault;

static QUIET_HOOK: Once = Once::new();

/// Wraps the global panic hook (once per process) so [`KilledByFault`]
/// unwinds stay silent: a 16-rank kill would otherwise print 16 scary
/// "thread panicked" reports for what is a typed, recovered-from event.
/// Every other panic payload still reaches the previous hook untouched.
pub fn install_quiet_death_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KilledByFault>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The poison flag + death record shared by every wait path of one
/// scheduler (and therefore every lower-half generation built on it —
/// restarts replace the `World`, never the scheduler).
#[derive(Default)]
pub struct FailPlane {
    poisoned: AtomicBool,
    death: Mutex<Option<RankDeath>>,
}

impl FailPlane {
    /// A fresh, healthy plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a death. The first event wins — a world dies once; a
    /// second injection while the first is still unwinding is dropped.
    /// Returns whether this call was the killing one. The caller is
    /// responsible for waking sleepers afterwards (see
    /// [`crate::World::poison_wake`]).
    pub fn inject(&self, death: RankDeath) -> bool {
        install_quiet_death_hook();
        let mut d = self.death.lock();
        if d.is_some() {
            return false;
        }
        *d = Some(death);
        // Publish the flag after the record: a waiter that observes
        // `poisoned` will always find the death populated.
        self.poisoned.store(true, Ordering::SeqCst);
        true
    }

    /// Whether a death has been published.
    #[inline]
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// The published death, if any.
    pub fn death(&self) -> Option<RankDeath> {
        self.death.lock().clone()
    }

    /// Unwinds the calling rank with the quiet [`KilledByFault`] marker if
    /// the plane is poisoned. Every blocking wait calls this on wake (and
    /// at entry), which is what turns one injected death into a prompt
    /// whole-world abort instead of a hang.
    #[inline]
    pub fn die_if_poisoned(&self) {
        if self.poisoned() {
            std::panic::panic_any(KilledByFault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_injection_wins() {
        let p = FailPlane::new();
        assert!(!p.poisoned());
        assert!(p.death().is_none());
        let d1 = RankDeath {
            victims: vec![3],
            node: None,
            at: VTime::from_micros(5.0),
        };
        let d2 = RankDeath {
            victims: vec![0, 1],
            node: Some(0),
            at: VTime::from_micros(9.0),
        };
        assert!(p.inject(d1.clone()));
        assert!(!p.inject(d2));
        assert!(p.poisoned());
        assert_eq!(p.death(), Some(d1));
    }

    #[test]
    fn die_if_poisoned_unwinds_with_marker() {
        let p = FailPlane::new();
        p.die_if_poisoned(); // healthy: no-op
        p.inject(RankDeath {
            victims: vec![0],
            node: None,
            at: VTime::ZERO,
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.die_if_poisoned()))
            .unwrap_err();
        assert!(err.downcast_ref::<KilledByFault>().is_some());
    }

    #[test]
    fn death_display_names_scope() {
        let rank = RankDeath {
            victims: vec![7],
            node: None,
            at: VTime::from_micros(1.0),
        };
        assert!(rank.to_string().contains("rank [7] died"));
        let node = RankDeath {
            victims: vec![4, 5, 6, 7],
            node: Some(1),
            at: VTime::from_micros(1.0),
        };
        assert!(node.to_string().contains("node 1 died"));
    }
}
