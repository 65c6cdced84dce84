//! The topological-sort view of collective execution (paper §4.2.2), as an
//! executable verifier.
//!
//! The paper models an MPI run as a DAG: each node is one collective call
//! (a `(ggid, seq)` pair), each edge is an MPI process moving from one
//! collective to the next. A checkpoint is **safe** iff the set of executed
//! nodes is a *consistent cut*: every node that any participant has visited
//! has been visited by all its participants, and nothing beyond the targets
//! was visited. The CC drain is precisely a distributed topological sort
//! toward such a cut; this module checks the result independently, so
//! property tests can catch protocol bugs the drain itself would hide.

use crate::ggid::Ggid;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A node in the execution DAG: the `seq`-th collective on group `ggid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node {
    /// Group id.
    pub ggid: Ggid,
    /// 1-based collective ordinal on that group.
    pub seq: u64,
}

/// One rank's participation in one node.
///
/// `members` is shared storage: every participant of the same group
/// records the same allocation. A log of `calls × ranks` events therefore
/// costs O(events), not O(events × group size) — the difference between
/// megabytes and tens of gigabytes at 65 536 ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecEvent {
    /// World rank.
    pub rank: usize,
    /// The node.
    pub node: Node,
    /// Member world ranks of the group (sorted).
    pub members: Arc<[usize]>,
}

/// One rank's private part of the log: what it executed since the last
/// harvest, 16 bytes an entry.
#[derive(Default)]
struct RankLog {
    /// `(ggid, seq)` in program order.
    entries: Vec<(Ggid, u64)>,
    /// The member list of every group this rank has recorded on,
    /// registered the first time the group is seen (a handful per rank).
    groups: Vec<(Ggid, Arc<[usize]>)>,
}

impl RankLog {
    fn members(&self, ggid: Ggid) -> Option<&Arc<[usize]>> {
        self.groups.iter().find(|(g, _)| *g == ggid).map(|(_, m)| m)
    }
}

struct LogInner {
    /// Rank-owned logs in pages of doubling size: page `k` holds ranks
    /// `2^k - 1 .. 2^(k+1) - 1`, so the table needs no rank count up
    /// front and never moves a log once a rank has found it. A page is
    /// allocated by the first record on it; finding a rank's log is two
    /// loads, and the log's mutex is private to that rank (the harvester
    /// takes it only while the rank is parked or finished).
    pages: [OnceLock<Box<[Mutex<RankLog>]>>; usize::BITS as usize],
    /// Everything harvested so far, in harvest order.
    committed: Mutex<Vec<ExecEvent>>,
}

/// Shared append-only log of executed collective participations.
///
/// Appends are **rank-owned**: [`ExecutionLog::record`] touches only the
/// recording rank's own log, so a dense collective on thousands of ranks
/// appends from every worker at once without sharing a lock or a cache
/// line. Readers *harvest*: they move what each rank recorded since the
/// previous harvest — rank by rank, each rank's events in program order
/// — onto one committed list. The committed list only ever grows at its
/// end, so the events of an earlier harvest are a prefix of every later
/// one: the property delta images rely on to store a cut log as
/// "parent's cut + tail".
#[derive(Clone)]
pub struct ExecutionLog {
    inner: Arc<LogInner>,
}

impl Default for ExecutionLog {
    fn default() -> Self {
        ExecutionLog {
            inner: Arc::new(LogInner {
                pages: std::array::from_fn(|_| OnceLock::new()),
                committed: Mutex::new(Vec::new()),
            }),
        }
    }
}

impl std::fmt::Debug for ExecutionLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionLog")
            .field("len", &self.len())
            .finish()
    }
}

impl ExecutionLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn rank_log(&self, rank: usize) -> &Mutex<RankLog> {
        let k = (rank + 1).ilog2();
        let first = (1usize << k) - 1;
        let page = self.inner.pages[k as usize]
            .get_or_init(|| (0..=first).map(|_| Mutex::default()).collect());
        &page[rank - first]
    }

    /// The logs of every page any rank has recorded on, in rank order.
    fn rank_logs(&self) -> impl Iterator<Item = (usize, &Mutex<RankLog>)> {
        self.inner
            .pages
            .iter()
            .enumerate()
            .filter_map(|(k, page)| Some(((1usize << k) - 1, page.get()?)))
            .flat_map(|(first, page)| {
                page.iter()
                    .enumerate()
                    .map(move |(i, log)| (first + i, log))
            })
    }

    /// Records that `rank` participated in the `seq`-th collective on
    /// `ggid`, whose (sorted) member world ranks are `members`.
    pub fn record(&self, rank: usize, ggid: Ggid, seq: u64, members: Arc<[usize]>) {
        self.record_shared(rank, ggid, seq, &members);
    }

    /// [`ExecutionLog::record`] for callers that hold the member list by
    /// reference: the handle is cloned only the first time `rank` records
    /// on `ggid`, so the per-call path touches no shared reference count.
    pub fn record_shared(&self, rank: usize, ggid: Ggid, seq: u64, members: &Arc<[usize]>) {
        let mut log = self.rank_log(rank).lock();
        if log.members(ggid).is_none() {
            log.groups.push((ggid, Arc::clone(members)));
        }
        log.entries.push((ggid, seq));
    }

    /// Entries recorded since the last harvest.
    fn unharvested(&self) -> usize {
        self.rank_logs().map(|(_, l)| l.lock().entries.len()).sum()
    }

    /// Moves every rank's new entries onto the committed list, rank by
    /// rank. Deterministic whenever the ranks are not recording (parked
    /// at a cut, or finished).
    fn harvest(&self) -> parking_lot::MutexGuard<'_, Vec<ExecEvent>> {
        let mut committed = self.inner.committed.lock();
        // Sized in one step: doubling a list of millions of events would
        // briefly hold it twice.
        committed.reserve_exact(self.unharvested());
        for (rank, log) in self.rank_logs() {
            let mut log = log.lock();
            let entries = std::mem::take(&mut log.entries);
            committed.extend(entries.into_iter().map(|(ggid, seq)| ExecEvent {
                rank,
                node: Node { ggid, seq },
                members: Arc::clone(log.members(ggid).expect("group registered at record")),
            }));
        }
        committed
    }

    /// Snapshot of all events: everything harvested before, then each
    /// rank's events since, in rank order.
    pub fn events(&self) -> Vec<ExecEvent> {
        self.harvest().clone()
    }

    /// All events, moved out — for the end of a run, where a snapshot
    /// would hold a multi-million-event log twice. Later records start a
    /// fresh list.
    pub fn take_events(&self) -> Vec<ExecEvent> {
        std::mem::take(&mut *self.harvest())
    }

    /// Number of recorded participations.
    pub fn len(&self) -> usize {
        self.inner.committed.lock().len() + self.unharvested()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A violation of the safe-state conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A node was visited by a strict subset of its participants:
    /// `(node, visited ranks, member ranks)` — Invariant 2 broken.
    PartiallyVisited(Node, Vec<usize>, Vec<usize>),
    /// A rank visited a node beyond the final target for its group:
    /// `(rank, node, target)` — condition 2 of §4.2.2 broken.
    BeyondTarget(usize, Node, u64),
    /// A rank skipped a sequence number on a group: `(rank, ggid, from,
    /// to)` — impossible in a correct wrapper; indicates log corruption.
    SequenceGap(usize, Ggid, u64, u64),
}

/// Verifies the two safe-cut conditions of §4.2.2 over an execution log,
/// given the final targets (`None` checks only full-visitation):
///
/// 1. every visited node is visited by **all** of its participants;
/// 2. no node beyond `TARGET[ggid]` is visited.
pub fn verify_safe_cut(
    events: &[ExecEvent],
    targets: Option<&HashMap<Ggid, u64>>,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    // node -> (visitors, members)
    let mut nodes: HashMap<Node, (Vec<usize>, Arc<[usize]>)> = HashMap::new();
    // (rank, ggid) -> max seq seen, for gap detection
    let mut per_rank_group: HashMap<(usize, Ggid), Vec<u64>> = HashMap::new();
    for e in events {
        let entry = nodes
            .entry(e.node)
            .or_insert_with(|| (Vec::new(), Arc::clone(&e.members)));
        entry.0.push(e.rank);
        per_rank_group
            .entry((e.rank, e.node.ggid))
            .or_default()
            .push(e.node.seq);
    }
    for (node, (mut visitors, members)) in nodes {
        visitors.sort_unstable();
        visitors.dedup();
        if visitors[..] != members[..] {
            violations.push(Violation::PartiallyVisited(
                node,
                visitors.clone(),
                members.to_vec(),
            ));
        }
        if let Some(t) = targets {
            let target = t.get(&node.ggid).copied().unwrap_or(0);
            if node.seq > target {
                for v in visitors {
                    violations.push(Violation::BeyondTarget(v, node, target));
                }
            }
        }
    }
    for ((rank, ggid), mut seqs) in per_rank_group {
        seqs.sort_unstable();
        let mut prev = 0u64;
        for s in seqs {
            if s != prev + 1 {
                violations.push(Violation::SequenceGap(rank, ggid, prev, s));
            }
            prev = s;
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Topologically sorts a set of nodes given "happens-before" edges,
/// returning a valid visit order or `None` on a cycle. Used by tests to
/// check the Figure 2 examples and by documentation to illustrate the
/// algorithm's namesake.
pub fn topological_sort(nodes: &[Node], edges: &[(Node, Node)]) -> Option<Vec<Node>> {
    let mut indeg: HashMap<Node, usize> = nodes.iter().map(|&n| (n, 0)).collect();
    let mut adj: HashMap<Node, Vec<Node>> = HashMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
        *indeg.entry(b).or_default() += 1;
    }
    let mut ready: Vec<Node> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    ready.sort_unstable(); // determinism
    let mut out = Vec::with_capacity(indeg.len());
    while let Some(n) = ready.pop() {
        out.push(n);
        for &m in adj.get(&n).into_iter().flatten() {
            let d = indeg.get_mut(&m).unwrap();
            *d -= 1;
            if *d == 0 {
                ready.push(m);
                ready.sort_unstable();
            }
        }
    }
    (out.len() == indeg.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: usize, g: u64, seq: u64, members: &[usize]) -> ExecEvent {
        ExecEvent {
            rank,
            node: Node { ggid: Ggid(g), seq },
            members: members.into(),
        }
    }

    #[test]
    fn fully_visited_cut_accepted() {
        let events = vec![
            ev(0, 1, 1, &[0, 1]),
            ev(1, 1, 1, &[0, 1]),
            ev(1, 2, 1, &[1, 2]),
            ev(2, 2, 1, &[1, 2]),
        ];
        assert!(verify_safe_cut(&events, None).is_ok());
    }

    #[test]
    fn partial_visit_rejected() {
        // Figure 2a's unsafe intermediate state: N3 visited by P1 only.
        let events = vec![ev(1, 3, 1, &[1, 2])];
        let err = verify_safe_cut(&events, None).unwrap_err();
        assert!(matches!(err[0], Violation::PartiallyVisited(..)));
    }

    #[test]
    fn beyond_target_rejected() {
        let events = vec![ev(0, 1, 1, &[0]), ev(0, 1, 2, &[0])];
        let targets: HashMap<Ggid, u64> = [(Ggid(1), 1)].into_iter().collect();
        let err = verify_safe_cut(&events, Some(&targets)).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, Violation::BeyondTarget(0, n, 1) if n.seq == 2)));
    }

    #[test]
    fn sequence_gap_detected() {
        let events = vec![ev(0, 1, 1, &[0]), ev(0, 1, 3, &[0])];
        let err = verify_safe_cut(&events, None).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, Violation::SequenceGap(0, _, 1, 3))));
    }

    #[test]
    fn toposort_figure2a() {
        // Figure 2a: N1 -> N2 (P2's edge), N2 -> N3 (P2), N1 -> N3 (P1).
        let n1 = Node {
            ggid: Ggid(1),
            seq: 1,
        };
        let n2 = Node {
            ggid: Ggid(2),
            seq: 1,
        };
        let n3 = Node {
            ggid: Ggid(3),
            seq: 1,
        };
        let order = topological_sort(&[n1, n2, n3], &[(n1, n2), (n2, n3), (n1, n3)]).unwrap();
        let pos = |n: Node| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(n1) < pos(n2));
        assert!(pos(n2) < pos(n3));
    }

    #[test]
    fn toposort_detects_cycle() {
        let a = Node {
            ggid: Ggid(1),
            seq: 1,
        };
        let b = Node {
            ggid: Ggid(2),
            seq: 1,
        };
        assert!(topological_sort(&[a, b], &[(a, b), (b, a)]).is_none());
    }

    #[test]
    fn shared_log_records() {
        let log = ExecutionLog::new();
        let l2 = log.clone();
        l2.record(0, Ggid(1), 1, vec![0].into());
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
    }

    #[test]
    fn harvest_is_rank_major_and_earlier_harvests_stay_a_prefix() {
        let log = ExecutionLog::new();
        let m: Arc<[usize]> = vec![0, 1, 2000].into();
        // Interleaved across ranks (and across three pages of the table).
        log.record_shared(2000, Ggid(1), 1, &m);
        log.record_shared(1, Ggid(1), 1, &m);
        log.record_shared(0, Ggid(1), 1, &m);
        log.record_shared(1, Ggid(1), 2, &m);
        let first = log.events();
        let order = |evs: &[ExecEvent]| -> Vec<(usize, u64)> {
            evs.iter().map(|e| (e.rank, e.node.seq)).collect()
        };
        assert_eq!(order(&first), vec![(0, 1), (1, 1), (1, 2), (2000, 1)]);
        assert!(first.iter().all(|e| Arc::ptr_eq(&e.members, &m)));
        // A later harvest appends the new events, rank-major among
        // themselves, behind everything harvested before.
        log.record_shared(2000, Ggid(1), 2, &m);
        log.record_shared(0, Ggid(1), 2, &m);
        let second = log.events();
        assert_eq!(second[..first.len()], first[..], "prefix preserved");
        assert_eq!(order(&second[first.len()..]), vec![(0, 2), (2000, 2)]);
        assert_eq!(log.len(), 6);
        // Taking the log empties it without losing the group registry.
        assert_eq!(log.take_events(), second);
        assert!(log.is_empty());
        log.record_shared(1, Ggid(1), 3, &m);
        assert_eq!(order(&log.take_events()), vec![(1, 3)]);
    }
}
