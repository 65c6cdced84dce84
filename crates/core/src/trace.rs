//! Drain-protocol event tracing.
//!
//! Records the observable steps of a checkpoint drain — target
//! installation, overshoot raises, update pushes and receives, parks and
//! releases — so tests can assert the Figure 2/3 scenarios of the paper and
//! the `drain_trace` example can narrate a drain as it happens.

use crate::ggid::Ggid;
use parking_lot::Mutex;
use std::sync::Arc;

/// One observable drain event.
#[derive(Debug, Clone, PartialEq)]
pub enum DrainEvent {
    /// Coordinator issued the checkpoint request.
    Requested,
    /// Initial targets installed on a rank: `(rank, targets as (ggid, target))`.
    TargetsInstalled(usize, Vec<(Ggid, u64)>),
    /// Rank raised a target past the installed value (Figure 3b's cascade):
    /// `(rank, ggid, new_target)`.
    TargetRaised(usize, Ggid, u64),
    /// Rank pushed a target update to a peer: `(from, to, ggid, target)`.
    UpdateSent(usize, usize, Ggid, u64),
    /// Rank received and applied a target update: `(rank, ggid, target,
    /// changed)`.
    UpdateReceived(usize, Ggid, u64, bool),
    /// Rank executed a collective during the drain: `(rank, ggid, seq)`.
    DrainStep(usize, Ggid, u64),
    /// Rank reached all its targets and parked: `(rank)`.
    Parked(usize),
    /// Rank left the parked state uncaptured: `(rank)`. Under CC a target
    /// changed; under 2PC the trivial barrier it was parked inside
    /// completed after all (the free pass).
    Unparked(usize),
    /// Rank quiesced for capture: `(rank)`.
    Quiesced(usize),
    /// 2PC: rank parked inside its trivial barrier's test loop because the
    /// barrier cannot complete under a pending checkpoint: `(rank)`.
    TrivialBarrierParked(usize),
    /// Checkpoint committed (images captured).
    Committed,
    /// Ranks resumed (continue or restart).
    Resumed,
    /// Coordinator aborted the checkpoint: the drain watchdog detected a
    /// stall (e.g. a point-to-point dependency the collective DAG cannot
    /// see) and withdrew the request instead of hanging.
    Aborted,
}

/// A shared, append-only drain-event log.
#[derive(Debug, Clone, Default)]
pub struct DrainTrace {
    inner: Arc<Mutex<Vec<DrainEvent>>>,
}

impl DrainTrace {
    /// New empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&self, e: DrainEvent) {
        self.inner.lock().push(e);
    }

    /// Snapshot of all events so far.
    pub fn events(&self) -> Vec<DrainEvent> {
        self.inner.lock().clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counts events matching a predicate.
    pub fn count(&self, pred: impl Fn(&DrainEvent) -> bool) -> usize {
        self.inner.lock().iter().filter(|e| pred(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_filter() {
        let t = DrainTrace::new();
        assert!(t.is_empty());
        t.push(DrainEvent::Requested);
        t.push(DrainEvent::TargetRaised(3, Ggid(7), 5));
        t.push(DrainEvent::Parked(1));
        assert_eq!(t.len(), 3);
        assert_eq!(t.count(|e| matches!(e, DrainEvent::TargetRaised(..))), 1);
        let evs = t.events();
        assert_eq!(evs[0], DrainEvent::Requested);
    }

    #[test]
    fn shared_clone_appends_to_same_log() {
        let t = DrainTrace::new();
        let t2 = t.clone();
        t2.push(DrainEvent::Committed);
        assert_eq!(t.len(), 1);
    }
}
