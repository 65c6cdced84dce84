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
//!
//! A cut is stored as what it is. A wrapper counts `SEQ[ggid]` up by one,
//! so what a rank has visited on a group is a run of sequence numbers
//! `first..=last` — [`CutRun`] — and a [`Cut`] is a few of those per rank
//! however long the program has run. A checkpoint derives its cut from
//! the ranks' `SEQ[]` tables (each entry is the run `1..=SEQ[g]`), and
//! [`verify_safe_cut`] judges it in O(runs); the event-by-event view
//! ([`ExecEvent`]) remains for building cuts by hand ([`Cut::from_events`]):
//! from a test's own witness of what the ranks ran, which no run keeps
//! for it, or from forged events.

use crate::ggid::Ggid;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
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

/// One rank's gap-free run of collectives on one group: it took part in
/// every node `(ggid, first) ..= (ggid, last)`.
///
/// `members` is shared storage like [`ExecEvent::members`]; two runs
/// compare equal by allocation first and by content only when they hold
/// different allocations.
#[derive(Debug, Clone)]
pub struct CutRun {
    /// World rank.
    pub rank: usize,
    /// Group id.
    pub ggid: Ggid,
    /// Ordinal of the first collective of the run (1-based).
    pub first: u64,
    /// Ordinal of the last collective of the run.
    pub last: u64,
    /// Member world ranks of the group (sorted), as the rank recorded them
    /// at the run's first collective.
    pub members: Arc<[usize]>,
}

impl PartialEq for CutRun {
    fn eq(&self, o: &Self) -> bool {
        (self.rank, self.ggid, self.first, self.last) == (o.rank, o.ggid, o.first, o.last)
            && same_members(&self.members, &o.members)
    }
}

/// `a == b`, settled by allocation identity where the two share their
/// list (the tables of one run, the references of one decoded image).
/// `Arc<[usize]>`'s own `==` always compares contents: std's pointer
/// shortcut needs `T: Sized`.
pub(crate) fn same_members(a: &Arc<[usize]>, b: &Arc<[usize]>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// A cut of the execution DAG: which nodes every rank has visited, as
/// runs — a handful per rank however long the program has run, since a
/// wrapper that counts `SEQ[ggid]` up by one visits each group's nodes in
/// one gap-free run from 1.
///
/// The runs are kept in canonical `(rank, ggid, first)` order, so equal
/// cuts are equal values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cut {
    runs: Vec<CutRun>,
}

impl Cut {
    /// The cut made of `runs`, put in canonical order.
    pub fn from_runs(mut runs: Vec<CutRun>) -> Cut {
        runs.sort_by_key(|r| (r.rank, r.ggid, r.first));
        Cut { runs }
    }

    /// The cut `events` cover, replayed in this order: an event extends
    /// the newest run of its rank it continues, and anything else opens a
    /// run — how tests build, and forge, cuts event by event.
    pub fn from_events(events: &[ExecEvent]) -> Cut {
        let mut by_rank: HashMap<usize, Vec<CutRun>> = HashMap::new();
        for e in events {
            let runs = by_rank.entry(e.rank).or_default();
            let Node { ggid, seq } = e.node;
            let continued = (runs.iter_mut().rev())
                .find(|r| r.ggid == ggid && r.last.checked_add(1) == Some(seq));
            match continued {
                Some(run) => run.last = seq,
                None => runs.push(CutRun {
                    rank: e.rank,
                    ggid,
                    first: seq,
                    last: seq,
                    members: Arc::clone(&e.members),
                }),
            }
        }
        Cut::from_runs(by_rank.into_values().flatten().collect())
    }

    /// The runs, in canonical `(rank, ggid, first)` order.
    pub fn runs(&self) -> &[CutRun] {
        &self.runs
    }

    /// Number of participations the runs cover (saturating: a forged run
    /// can claim more than fit in a `usize`).
    pub fn len(&self) -> usize {
        let covered = |r: &CutRun| (r.last.saturating_sub(r.first)).saturating_add(1);
        let total = (self.runs.iter()).fold(0u64, |n, r| n.saturating_add(covered(r)));
        usize::try_from(total).unwrap_or(usize::MAX)
    }

    /// Whether the cut holds no run.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Every participation the runs cover, one at a time, in canonical
    /// order — lazily: nothing is materialised, so a forged run costs
    /// only what the caller consumes.
    pub fn events(&self) -> impl Iterator<Item = ExecEvent> + '_ {
        self.runs.iter().flat_map(|r| {
            (r.first..=r.last).map(move |seq| ExecEvent {
                rank: r.rank,
                node: Node { ggid: r.ggid, seq },
                members: Arc::clone(&r.members),
            })
        })
    }
}

/// One rank's private part of the log: `(ggid, seq)` in program order.
type RankLog = Mutex<Vec<(Ggid, u64)>>;

struct LogInner {
    /// Rank-owned logs in pages of doubling size: page `k` holds ranks
    /// `2^k - 1 .. 2^(k+1) - 1`, so the table needs no rank count up
    /// front and never moves a log once a rank has found it. A page is
    /// allocated by the first record on it; finding a rank's log is two
    /// loads, and the log's mutex is private to that rank.
    pages: [OnceLock<Box<[RankLog]>>; usize::BITS as usize],
}

/// An append-only record of collective participations, `(ggid, seq)` in
/// each rank's program order. No run keeps one — a record that grows
/// with every call has no place on a run's path — and nothing reads it
/// back: it is kept only for the benchmark's `execlog.*` micro-drive.
/// Appends are **rank-owned**: [`ExecutionLog::record`] touches only the
/// recording rank's own log.
#[derive(Clone)]
pub struct ExecutionLog {
    inner: Arc<LogInner>,
}

impl Default for ExecutionLog {
    fn default() -> Self {
        ExecutionLog {
            inner: Arc::new(LogInner {
                pages: std::array::from_fn(|_| OnceLock::new()),
            }),
        }
    }
}

impl ExecutionLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn rank_log(&self, rank: usize) -> &RankLog {
        let k = (rank + 1).ilog2();
        let first = (1usize << k) - 1;
        let page = self.inner.pages[k as usize]
            .get_or_init(|| (0..=first).map(|_| Mutex::default()).collect());
        &page[rank - first]
    }

    /// Records that `rank` participated in the `seq`-th collective on
    /// `ggid`. The member list is not kept.
    pub fn record(&self, rank: usize, ggid: Ggid, seq: u64, _members: Arc<[usize]>) {
        self.rank_log(rank).lock().push((ggid, seq));
    }

    /// Number of participations recorded.
    pub fn len(&self) -> usize {
        let pages = self.inner.pages.iter().filter_map(OnceLock::get);
        pages.flat_map(|p| p.iter()).map(|l| l.lock().len()).sum()
    }

    /// Whether nothing was recorded.
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

/// The nodes one rank's `runs` on one group cover, as ascending
/// `(first, last)` intervals that neither touch nor overlap.
fn coverage<'a>(runs: &'a [&'a CutRun]) -> impl Iterator<Item = (u64, u64)> + 'a {
    let mut rest = runs.iter().peekable();
    std::iter::from_fn(move || {
        let r = rest.next()?;
        let (first, mut last) = (r.first, r.last);
        while let Some(n) = rest.next_if(|n| n.first <= last.saturating_add(1)) {
            last = last.max(n.last);
        }
        Some((first, last))
    })
}

/// The first node two coverages disagree on, if any.
fn first_difference(
    mut a: impl Iterator<Item = (u64, u64)>,
    mut b: impl Iterator<Item = (u64, u64)>,
) -> Option<u64> {
    loop {
        match (a.next(), b.next()) {
            (None, None) => return None,
            (Some(x), Some(y)) if x == y => {}
            (Some(x), Some(y)) if x.0 != y.0 => return Some(x.0.min(y.0)),
            // Same start, different ends: the shorter one's successor.
            (Some(x), Some(y)) => return Some(x.1.min(y.1) + 1),
            (Some(x), None) | (None, Some(x)) => return Some(x.0),
        }
    }
}

/// Verifies the two safe-cut conditions of §4.2.2 over a cut, given the
/// final targets (`None` checks only full-visitation):
///
/// 1. every visited node is visited by **all** of its participants;
/// 2. no node beyond `TARGET[ggid]` is visited.
///
/// A group missing from `targets` has target 0: any run on it is beyond
/// target. The evidence is whatever cut the caller hands in — a
/// checkpoint's is derived from its ranks' `SEQ[]` tables, a test's from
/// its own witness of what ran ([`Cut::from_events`]). Costs O(runs): no step depends
/// on how many nodes a run covers.
pub fn verify_safe_cut(
    cut: &Cut,
    targets: Option<&HashMap<Ggid, u64>>,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    // ggid -> its runs, still in (rank, first) order
    let mut groups: BTreeMap<Ggid, Vec<&CutRun>> = BTreeMap::new();
    let mut prev: Option<&CutRun> = None;
    for r in cut.runs() {
        // A wrapper's rank visits a group's nodes as one run from 1.
        match prev.filter(|p| (p.rank, p.ggid) == (r.rank, r.ggid)) {
            Some(p) => violations.push(Violation::SequenceGap(r.rank, r.ggid, p.last, r.first)),
            None if r.first != 1 => {
                violations.push(Violation::SequenceGap(r.rank, r.ggid, 0, r.first))
            }
            None => {}
        }
        if let Some(t) = targets {
            let target = t.get(&r.ggid).copied().unwrap_or(0);
            if r.last > target {
                let node = Node {
                    ggid: r.ggid,
                    seq: r.first.max(target + 1),
                };
                violations.push(Violation::BeyondTarget(r.rank, node, target));
            }
        }
        groups.entry(r.ggid).or_default().push(r);
        prev = Some(r);
    }
    for (ggid, runs) in groups {
        let members = &runs[0].members;
        let mut visitors: Vec<usize> = runs.iter().map(|r| r.rank).collect();
        visitors.dedup();
        let partial = |seq: u64, members: &[usize]| {
            let node = Node { ggid, seq };
            Violation::PartiallyVisited(node, visitors.clone(), members.to_vec())
        };
        // Who visited the group at all, against who every visitor says
        // belongs to it.
        if let Some(r) = runs.iter().find(|r| !same_members(&r.members, members)) {
            violations.push(partial(r.first, &r.members));
        } else if visitors[..] != members[..] {
            let first = runs
                .iter()
                .map(|r| r.first)
                .min()
                .expect("a group has a run");
            violations.push(partial(first, members));
        }
        // Every visitor must cover the same nodes.
        let mut by_rank = runs.chunk_by(|a, b| a.rank == b.rank);
        let reference = by_rank.next().expect("a group has a run");
        let differs =
            by_rank.filter_map(|rank| first_difference(coverage(reference), coverage(rank)));
        if let Some(seq) = differs.min() {
            violations.push(partial(seq, members));
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
        assert!(verify_safe_cut(&Cut::from_events(&events), None).is_ok());
    }

    #[test]
    fn partial_visit_rejected() {
        // Figure 2a's unsafe intermediate state: N3 visited by P1 only.
        let events = vec![ev(1, 3, 1, &[1, 2])];
        let err = verify_safe_cut(&Cut::from_events(&events), None).unwrap_err();
        assert!(matches!(err[0], Violation::PartiallyVisited(..)));
    }

    #[test]
    fn beyond_target_rejected() {
        let events = vec![ev(0, 1, 1, &[0]), ev(0, 1, 2, &[0])];
        let targets: HashMap<Ggid, u64> = [(Ggid(1), 1)].into_iter().collect();
        let err = verify_safe_cut(&Cut::from_events(&events), Some(&targets)).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, Violation::BeyondTarget(0, n, 1) if n.seq == 2)));
    }

    #[test]
    fn sequence_gap_detected() {
        let events = vec![ev(0, 1, 1, &[0]), ev(0, 1, 3, &[0])];
        let err = verify_safe_cut(&Cut::from_events(&events), None).unwrap_err();
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
    fn cut_is_one_run_per_rank_and_group_however_long_the_log() {
        let m: Arc<[usize]> = vec![0, 1, 2000].into();
        let at = |rank, seq| ExecEvent {
            rank,
            node: Node { ggid: Ggid(1), seq },
            members: Arc::clone(&m),
        };
        // Interleaved across ranks, each rank in program order.
        let events = [
            at(2000, 1),
            at(1, 1),
            at(0, 1),
            at(1, 2),
            at(2000, 2),
            at(0, 2),
        ];
        // Its cut is one run per rank and group, however many events.
        let cut = Cut::from_events(&events);
        let shape: Vec<(usize, u64, u64)> = cut
            .runs()
            .iter()
            .map(|r| (r.rank, r.first, r.last))
            .collect();
        assert_eq!(shape, vec![(0, 1, 2), (1, 1, 2), (2000, 1, 2)]);
        assert!(cut.runs().iter().all(|r| Arc::ptr_eq(&r.members, &m)));
        assert_eq!(cut.len(), 6);
        assert!(verify_safe_cut(&cut, None).is_ok());
        // Lazily, rank-major, each rank in program order.
        let lazily: Vec<(usize, u64)> = cut.events().map(|e| (e.rank, e.node.seq)).collect();
        assert_eq!(
            lazily,
            [(0, 1), (0, 2), (1, 1), (1, 2), (2000, 1), (2000, 2)]
        );
    }

    #[test]
    fn a_record_that_continues_no_run_opens_one() {
        // A repeat, a gap, a restart at 0, another group in between:
        // nothing asserts, everything is kept.
        let records = [
            (1, 1),
            (1, 2),
            (1, 2),
            (2, 1),
            (1, 3),
            (1, 7),
            (1, 0),
            (1, 1),
        ];
        let events: Vec<ExecEvent> = (records.iter())
            .map(|&(g, seq)| ev(0, g, seq, &[0]))
            .collect();
        let cut = Cut::from_events(&events);
        let shape: Vec<(u64, u64, u64)> = (cut.runs().iter())
            .map(|r| (r.ggid.0, r.first, r.last))
            .collect();
        // The newest run a record continues takes it: `3` extends the
        // repeat's run, `1` the restart's.
        assert_eq!(
            shape,
            [(1, 0, 1), (1, 1, 2), (1, 2, 3), (1, 7, 7), (2, 1, 1)]
        );
        assert_eq!(cut.len(), 8);
        let err = verify_safe_cut(&cut, None).unwrap_err();
        assert!(err
            .iter()
            .all(|v| matches!(v, Violation::SequenceGap(0, Ggid(1), ..))));
    }

    #[test]
    fn runs_sharing_an_allocation_or_not_compare_equal() {
        let shared: Arc<[usize]> = (0..1024).collect();
        let run = |members: &Arc<[usize]>| CutRun {
            rank: 3,
            ggid: Ggid(9),
            first: 1,
            last: 40,
            members: Arc::clone(members),
        };
        let (a, b) = (run(&shared), run(&shared));
        let unshared = run(&shared.to_vec().into());
        assert_eq!(a, b);
        assert_eq!((&a, &unshared), (&unshared, &a));
        let other = run(&(1..1025).collect());
        assert_ne!(a, other);
        assert_ne!(other, a);
        assert!(a != CutRun { last: 41, ..b });
    }

    #[test]
    fn a_forged_run_costs_nothing_to_measure_or_refuse() {
        let m: Arc<[usize]> = vec![0, 1].into();
        let run = |rank, first, last| CutRun {
            rank,
            ggid: Ggid(1),
            first,
            last,
            members: Arc::clone(&m),
        };
        let cut = Cut::from_runs(vec![run(1, 1, 3), run(0, 1, u64::MAX), run(0, 0, u64::MAX)]);
        assert_eq!(cut.runs()[0].first, 0, "canonical order");
        assert_eq!(cut.len(), usize::MAX);
        assert_eq!(cut.events().nth(2).unwrap().node.seq, 2);
        let targets: HashMap<Ggid, u64> = [(Ggid(1), 3)].into_iter().collect();
        let err = verify_safe_cut(&cut, Some(&targets)).unwrap_err();
        let beyond = Node {
            ggid: Ggid(1),
            seq: 4,
        };
        assert!(err.contains(&Violation::BeyondTarget(0, beyond, 3)));
        assert!(err.contains(&Violation::SequenceGap(0, Ggid(1), 0, 0)));
        assert!(err.contains(&Violation::SequenceGap(0, Ggid(1), u64::MAX, 1)));
        assert!(err
            .iter()
            .any(|v| matches!(v, Violation::PartiallyVisited(Node { seq: 0, .. }, ..))));
    }
}
