//! The target-update bus: the out-of-band point-to-point channel ranks use
//! to push `TARGET[]` raises to the other members of a group during a drain
//! (paper Algorithm 2's "send update" step).
//!
//! In MANA these travel over the coordinator socket; here they are
//! in-memory inboxes. Sends and receives are double-counted in the control
//! plane (`updates_sent` / `updates_recv`) so the coordinator can detect
//! drain termination: the phase is stable only when the counters balance
//! *and* every inbox is empty.

use mana_core::{CkptControl, Ggid};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Recorded raise origins: `ggid -> (target, member world ranks)`.
pub type RaiseMap = HashMap<Ggid, (u64, Arc<[usize]>)>;

/// One target-update message: raise `TARGET[ggid]` to at least `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetUpdate {
    /// The group whose target is raised.
    pub ggid: Ggid,
    /// The new (minimum) target.
    pub target: u64,
}

/// Per-rank inboxes plus the coordinator's merged view of all raises.
pub struct UpdateBus {
    inboxes: Vec<Mutex<VecDeque<TargetUpdate>>>,
    /// Global max of every raise origin: `(target, member world ranks)` per
    /// group. The coordinator folds this into the final targets. Member
    /// lists are shared handles into the raising rank's `SeqTable`, not
    /// copies.
    raised: Mutex<RaiseMap>,
}

impl UpdateBus {
    /// Builds the bus for `n` ranks.
    pub fn new(n: usize) -> Self {
        UpdateBus {
            inboxes: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            raised: Mutex::new(HashMap::new()),
        }
    }

    /// Sends an update from `from` to `to`, counting it in the control
    /// plane and waking the destination if parked.
    pub fn send(&self, control: &CkptControl, from: usize, to: usize, u: TargetUpdate) {
        self.inboxes[to].lock().push_back(u);
        control.ranks[from]
            .updates_sent
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        control.ranks[to].wake();
    }

    /// Drains `rank`'s inbox. The caller must count each drained update in
    /// `updates_recv` as it applies it.
    pub fn drain(&self, rank: usize) -> Vec<TargetUpdate> {
        self.inboxes[rank].lock().drain(..).collect()
    }

    /// Whether `rank` has unapplied updates.
    pub fn has_pending(&self, rank: usize) -> bool {
        !self.inboxes[rank].lock().is_empty()
    }

    /// Whether every inbox is empty.
    pub fn all_empty(&self) -> bool {
        self.inboxes.iter().all(|i| i.lock().is_empty())
    }

    /// Records a raise origin (overshoot path) for the coordinator's
    /// final-target computation.
    pub fn record_raise(&self, ggid: Ggid, target: u64, members: impl Into<Arc<[usize]>>) {
        let mut r = self.raised.lock();
        let e = r.entry(ggid).or_insert_with(|| (0, members.into()));
        e.0 = e.0.max(target);
    }

    /// Snapshot of all raises so far: `ggid -> (target, members)`.
    pub fn raises(&self) -> RaiseMap {
        self.raised.lock().clone()
    }

    /// Clears every inbox and all recorded raises: at every release (a
    /// completed drain leaves none queued; an aborted one leaves updates
    /// obsolete the moment the request is withdrawn, which must not leak
    /// into the next drain) and before each request's targets.
    pub fn clear_all(&self) {
        self.raised.lock().clear();
        for i in &self.inboxes {
            i.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_drain_counts() {
        let c = CkptControl::new(2);
        let bus = UpdateBus::new(2);
        let u = TargetUpdate {
            ggid: Ggid(7),
            target: 3,
        };
        bus.send(&c, 0, 1, u);
        assert!(bus.has_pending(1));
        assert!(!bus.all_empty());
        assert!(!c.updates_balanced());
        let got = bus.drain(1);
        assert_eq!(got, vec![u]);
        assert!(bus.all_empty());
    }

    #[test]
    fn raises_merge_max() {
        let bus = UpdateBus::new(1);
        bus.record_raise(Ggid(1), 2, vec![0, 1]);
        bus.record_raise(Ggid(1), 5, vec![0, 1]);
        bus.record_raise(Ggid(1), 3, vec![0, 1]);
        assert_eq!(bus.raises()[&Ggid(1)].0, 5);
        bus.clear_all();
        assert!(bus.raises().is_empty());
    }
}
