//! Sequence-number and target tables — paper §4.1.
//!
//! `SEQ[ggid]` is a per-process counter of collective calls on the group
//! `ggid`; `TARGET[ggid]` is the global maximum of `SEQ[ggid]` over all
//! processes at checkpoint-request time. A rank has *reached its targets*
//! when `SEQ[g] == TARGET[g]` for every group it knows (a rank that never
//! used a group has `SEQ = 0` for it and is only assigned a target if it is
//! a member).

use crate::ggid::Ggid;
use crate::topo::same_members;
use std::collections::HashMap;
use std::sync::Arc;

/// One group's entry in a rank's sequence table. Two entries compare
/// their member lists by allocation first: the tables of consecutive
/// checkpoints of one run share them, and a walk over a 1 024-word list
/// per entry is what comparing two such tables would otherwise cost.
#[derive(Debug, Clone, Eq)]
pub struct SeqEntry {
    /// Number of collective calls this rank has made on the group
    /// (blocking calls count at the call; non-blocking at *initiation*,
    /// per §4.3.1).
    pub seq: u64,
    /// Member world ranks (sorted). Needed to push target updates to the
    /// other members — discoverable locally via
    /// `MPI_Group_translate_ranks`, as the paper notes. Shared storage:
    /// every rank registering the same group holds the same allocation,
    /// so a 65 536-rank world costs one member list, not 65 536 copies.
    pub members: Arc<[usize]>,
}

impl PartialEq for SeqEntry {
    fn eq(&self, o: &Self) -> bool {
        self.seq == o.seq && same_members(&self.members, &o.members)
    }
}

/// A rank's local `SEQ[]` table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqTable {
    entries: HashMap<Ggid, SeqEntry>,
}

impl SeqTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a group (on communicator creation). Idempotent; the
    /// sequence number starts at zero, per §4.2.1.
    pub fn register_group(&mut self, ggid: Ggid, members: impl Into<Arc<[usize]>>) {
        self.entries.entry(ggid).or_insert_with(|| SeqEntry {
            seq: 0,
            members: members.into(),
        });
    }

    /// Increments `SEQ[ggid]` and returns the new value.
    ///
    /// # Panics
    /// Panics if the group was never registered (a wrapper bug: every
    /// communicator registers its group at creation).
    pub fn increment(&mut self, ggid: Ggid) -> u64 {
        let e = self
            .entries
            .get_mut(&ggid)
            .unwrap_or_else(|| panic!("increment on unregistered group {ggid}"));
        e.seq += 1;
        e.seq
    }

    /// Current `SEQ[ggid]`, zero if unknown.
    pub fn seq(&self, ggid: Ggid) -> u64 {
        self.entries.get(&ggid).map_or(0, |e| e.seq)
    }

    /// Member world ranks of a registered group.
    pub fn members(&self, ggid: Ggid) -> Option<&[usize]> {
        self.entries.get(&ggid).map(|e| &*e.members)
    }

    /// Shared handle to a registered group's member list, by reference:
    /// per-call consumers (the execution log) look at it without touching
    /// its reference count; consumers that keep it (a target raise's
    /// broadcast) clone it.
    pub fn members_shared(&self, ggid: Ggid) -> Option<&Arc<[usize]>> {
        self.entries.get(&ggid).map(|e| &e.members)
    }

    /// Iterates `(ggid, entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Ggid, &SeqEntry)> {
        self.entries.iter()
    }

    /// Number of known groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no groups are known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Overwrites an entry's sequence (restart restore path).
    pub fn restore(&mut self, ggid: Ggid, seq: u64, members: impl Into<Arc<[usize]>>) {
        self.entries.insert(
            ggid,
            SeqEntry {
                seq,
                members: members.into(),
            },
        );
    }
}

/// A rank's view of the targets assigned for the current checkpoint.
#[derive(Debug, Clone, Default)]
pub struct TargetTable {
    targets: HashMap<Ggid, u64>,
}

impl TargetTable {
    /// Empty table (no checkpoint in progress).
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the coordinator-computed initial targets (Algorithm 1).
    pub fn install(&mut self, targets: HashMap<Ggid, u64>) {
        self.targets = targets;
    }

    /// Clears all targets (checkpoint finished).
    pub fn clear(&mut self) {
        self.targets.clear();
    }

    /// Current target for a group (`None` if the group has no target —
    /// e.g. it was created after the checkpoint request).
    pub fn get(&self, ggid: Ggid) -> Option<u64> {
        self.targets.get(&ggid).copied()
    }

    /// Raises the target for `ggid` to `to` (Algorithm 2's overshoot path
    /// and Algorithm 3's receive path). Returns `true` if the stored value
    /// changed.
    pub fn raise(&mut self, ggid: Ggid, to: u64) -> bool {
        let t = self.targets.entry(ggid).or_insert(0);
        if to > *t {
            *t = to;
            true
        } else {
            false
        }
    }

    /// Whether `seqs` has reached every target: `SEQ[g] >= TARGET[g]` for
    /// all targeted groups. (Equality is the steady state; `>` transiently
    /// occurs in the overshoot window before the raise is applied.)
    pub fn reached_by(&self, seqs: &SeqTable) -> bool {
        self.targets.iter().all(|(g, &t)| seqs.seq(*g) >= t)
    }

    /// Groups with unmet targets, for diagnostics: `(ggid, seq, target)`.
    pub fn unmet<'a>(&'a self, seqs: &'a SeqTable) -> impl Iterator<Item = (Ggid, u64, u64)> + 'a {
        self.targets.iter().filter_map(move |(g, &t)| {
            let s = seqs.seq(*g);
            (s < t).then_some((*g, s, t))
        })
    }

    /// Iterates `(ggid, target)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Ggid, &u64)> {
        self.targets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: u64) -> Ggid {
        Ggid(n)
    }

    #[test]
    fn register_and_increment() {
        let mut t = SeqTable::new();
        t.register_group(g(1), vec![0, 1]);
        assert_eq!(t.seq(g(1)), 0);
        assert_eq!(t.increment(g(1)), 1);
        assert_eq!(t.increment(g(1)), 2);
        // Re-registration does not reset.
        t.register_group(g(1), vec![0, 1]);
        assert_eq!(t.seq(g(1)), 2);
    }

    #[test]
    fn unknown_group_seq_is_zero() {
        let t = SeqTable::new();
        assert_eq!(t.seq(g(9)), 0);
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn increment_unregistered_panics() {
        SeqTable::new().increment(g(5));
    }

    #[test]
    fn targets_reached_logic() {
        let mut s = SeqTable::new();
        s.register_group(g(1), vec![0, 1]);
        s.register_group(g(2), vec![0, 2]);
        s.increment(g(1)); // SEQ[1] = 1

        let mut t = TargetTable::new();
        t.install([(g(1), 1), (g(2), 2)].into_iter().collect());
        assert!(!t.reached_by(&s));
        let unmet: Vec<_> = t.unmet(&s).collect();
        assert_eq!(unmet, vec![(g(2), 0, 2)]);

        s.increment(g(2));
        s.increment(g(2));
        assert!(t.reached_by(&s));
    }

    #[test]
    fn raise_only_upward() {
        let mut t = TargetTable::new();
        t.install([(g(1), 3)].into_iter().collect());
        assert!(!t.raise(g(1), 2));
        assert_eq!(t.get(g(1)), Some(3));
        assert!(t.raise(g(1), 5));
        assert_eq!(t.get(g(1)), Some(5));
        // Unknown group: raise creates it.
        assert!(t.raise(g(7), 1));
        assert_eq!(t.get(g(7)), Some(1));
    }

    #[test]
    fn tables_sharing_their_lists_or_not_compare_equal() {
        let world: Arc<[usize]> = (0..1024).collect();
        let strided: Arc<[usize]> = (0..1024).step_by(2).collect();
        let table = |world: &Arc<[usize]>, strided: &Arc<[usize]>| {
            let mut t = SeqTable::new();
            t.restore(g(1), 40, Arc::clone(world));
            t.restore(g(2), 7, Arc::clone(strided));
            t
        };
        let (a, b) = (table(&world, &strided), table(&world, &strided));
        let unshared = table(&world.to_vec().into(), &strided.to_vec().into());
        assert_eq!(a, b);
        assert_eq!((&a, &unshared), (&unshared, &a));
        // A different list, a different count: unequal either way round.
        let other = table(&world, &(1..1024).step_by(2).collect());
        assert_ne!(a, other);
        assert_ne!(other, a);
        let mut ahead = table(&world, &strided);
        ahead.increment(g(2));
        assert_ne!(a, ahead);
        assert_ne!(ahead, a);
    }

    #[test]
    fn empty_targets_always_reached() {
        let t = TargetTable::new();
        let s = SeqTable::new();
        assert!(t.reached_by(&s));
    }
}
