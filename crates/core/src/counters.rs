//! Per-rank call counters, for Table 1 (collective and point-to-point call
//! rates) and for overhead accounting in the experiment harnesses.

use netmodel::VTime;

/// Counts of interposed MPI calls on one rank: the application's calls
/// only, so a restored run's counts add up to a native run's. A drain's
/// target raises are the control plane's (`CkptControl::raises`) and the
/// trace's (`TargetRaised`), not a call count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallCounters {
    /// Blocking collective calls.
    pub coll_blocking: u64,
    /// Non-blocking collective initiations.
    pub coll_nonblocking: u64,
    /// Point-to-point sends (blocking + non-blocking).
    pub p2p_sends: u64,
    /// Point-to-point receives (blocking + non-blocking).
    pub p2p_recvs: u64,
    /// `MPI_Test`/`MPI_Wait`-family completion calls.
    pub completions: u64,
    /// Communicator-management calls.
    pub comm_mgmt: u64,
    /// 2PC: trivial barriers posted in front of collectives (one per
    /// collective entry under `Protocol::TwoPhase`, zero under CC).
    pub trivial_barriers: u64,
}

impl CallCounters {
    /// Total collective calls (blocking + non-blocking initiations).
    pub fn coll_total(&self) -> u64 {
        self.coll_blocking + self.coll_nonblocking
    }

    /// Total point-to-point calls (sends + receives), the paper's
    /// "point-to-point calls/sec" numerator.
    pub fn p2p_total(&self) -> u64 {
        self.p2p_sends + self.p2p_recvs
    }

    /// Collective calls per second of virtual runtime.
    pub fn coll_rate(&self, runtime: VTime) -> f64 {
        rate(self.coll_total(), runtime)
    }

    /// Element-wise sum (for aggregating across ranks).
    pub fn merge(&mut self, o: &CallCounters) {
        self.coll_blocking += o.coll_blocking;
        self.coll_nonblocking += o.coll_nonblocking;
        self.p2p_sends += o.p2p_sends;
        self.p2p_recvs += o.p2p_recvs;
        self.completions += o.completions;
        self.comm_mgmt += o.comm_mgmt;
        self.trivial_barriers += o.trivial_barriers;
    }

    /// Whether every field of `self` is at least the corresponding field of
    /// `earlier` — the monotonicity a restart-restored counter set must
    /// satisfy relative to the capture it was restored from.
    pub fn dominates(&self, earlier: &CallCounters) -> bool {
        self.coll_blocking >= earlier.coll_blocking
            && self.coll_nonblocking >= earlier.coll_nonblocking
            && self.p2p_sends >= earlier.p2p_sends
            && self.p2p_recvs >= earlier.p2p_recvs
            && self.completions >= earlier.completions
            && self.comm_mgmt >= earlier.comm_mgmt
            && self.trivial_barriers >= earlier.trivial_barriers
    }
}

fn rate(count: u64, runtime: VTime) -> f64 {
    let secs = runtime.as_secs();
    if secs <= 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let c = CallCounters {
            coll_blocking: 10,
            coll_nonblocking: 5,
            p2p_sends: 7,
            p2p_recvs: 3,
            ..Default::default()
        };
        assert_eq!(c.coll_total(), 15);
        assert_eq!(c.p2p_total(), 10);
        assert_eq!(c.coll_rate(VTime::from_secs(3.0)), 5.0);
        assert_eq!(c.coll_rate(VTime::ZERO), 0.0);
    }

    #[test]
    fn merge_adds() {
        let mut a = CallCounters {
            coll_blocking: 1,
            ..Default::default()
        };
        let b = CallCounters {
            coll_blocking: 2,
            p2p_sends: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.coll_blocking, 3);
        assert_eq!(a.p2p_sends, 4);
    }
}
