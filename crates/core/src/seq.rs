//! Sequence-number and target tables — paper §4.1.
//!
//! `SEQ[ggid]` is a per-process counter of collective calls on the group
//! `ggid`; `TARGET[ggid]` is the global maximum of `SEQ[ggid]` over all
//! processes at checkpoint-request time. A rank has *reached its targets*
//! when `SEQ[g] == TARGET[g]` for every group it knows (a rank that never
//! used a group has `SEQ = 0` for it and is only assigned a target if it is
//! a member).

use crate::ggid::Ggid;
use crate::sorted::SortedMap;
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
    /// Member world ranks (sorted). A target raise wakes the other members
    /// through it — discoverable locally via
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

/// A rank's local `SEQ[]` table, ascending by group id: the order the
/// image's wire writes it in, so a capture is encoded and a decoded one
/// filled without sorting, and `SEQ[ggid]` is a binary search over the
/// handful of groups a rank belongs to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqTable {
    entries: SortedMap<Ggid, SeqEntry>,
}

impl SeqTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty table with room for `n` groups.
    pub fn with_capacity(n: usize) -> Self {
        SeqTable {
            entries: SortedMap::with_capacity(n),
        }
    }

    /// Registers a group (on communicator creation). Idempotent; the
    /// sequence number starts at zero, per §4.2.1.
    pub fn register_group(&mut self, ggid: Ggid, members: impl Into<Arc<[usize]>>) {
        if !self.entries.contains_key(&ggid) {
            let members = members.into();
            self.entries.insert(ggid, SeqEntry { seq: 0, members });
        }
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
    /// consumers that keep it (a target raise's broadcast) clone it.
    pub fn members_shared(&self, ggid: Ggid) -> Option<&Arc<[usize]>> {
        self.entries.get(&ggid).map(|e| &e.members)
    }

    /// Iterates `(ggid, entry)`, ascending by group id.
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

/// `TARGET[]`, the drain's one target table: per group, the target its
/// members drain to, the Algorithm 1 value it started from, and the
/// members, whose list is the one their `SEQ[]` entries share.
#[derive(Debug, Clone, Default)]
pub struct TargetTable {
    entries: HashMap<Ggid, TargetEntry>,
}

/// One group's entry in a [`TargetTable`].
#[derive(Debug, Clone)]
pub struct TargetEntry {
    /// `TARGET[g]`: Algorithm 1's value, raised since by every rank that
    /// passed it (Algorithm 2).
    pub target: u64,
    /// Algorithm 1's value; `None` for a group the snapshot did not hold,
    /// created during the drain and first raised by it.
    pub initial: Option<u64>,
    /// Member world ranks (sorted).
    pub members: Arc<[usize]>,
}

impl TargetTable {
    /// Algorithm 1: `TARGET[g]` is the maximum of `SEQ[g]` over `tables`,
    /// for every group any of them registered.
    pub fn snapshot<T: std::ops::Deref<Target = SeqTable>>(
        tables: impl IntoIterator<Item = T>,
    ) -> TargetTable {
        let mut t = TargetTable::default();
        for seqs in tables {
            for (g, e) in seqs.iter() {
                t.raise(*g, e.seq, &e.members);
            }
        }
        for e in t.entries.values_mut() {
            e.initial = Some(e.target);
        }
        t
    }

    /// Current `TARGET[ggid]` (`None` if the group has no target).
    pub fn get(&self, ggid: Ggid) -> Option<u64> {
        self.entries.get(&ggid).map(|e| e.target)
    }

    /// Raises `TARGET[ggid]` to at least `to`, a max (Algorithm 2's
    /// overshoot), entering a group the table lacks with `members`.
    /// Returns whether the target changed.
    pub fn raise(&mut self, ggid: Ggid, to: u64, members: &Arc<[usize]>) -> bool {
        let e = self.entries.entry(ggid).or_insert_with(|| TargetEntry {
            target: 0,
            initial: None,
            members: Arc::clone(members),
        });
        let changed = to > e.target;
        e.target = e.target.max(to);
        changed
    }

    /// The met verdict of a rank whose table is `seqs`: `SEQ[g] >=
    /// TARGET[g]` for every group it registered. (Equality is the steady
    /// state; `>` occurs in the overshoot window before the raise lands.)
    /// Only a member registers a group, so this walks the rank's own
    /// groups, not the members of every target.
    pub fn reached_by(&self, seqs: &SeqTable) -> bool {
        seqs.iter()
            .all(|(g, e)| self.get(*g).is_none_or(|t| e.seq >= t))
    }

    /// Iterates `(ggid, entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Ggid, &TargetEntry)> {
        self.entries.iter()
    }

    /// `ggid -> TARGET[ggid]`.
    pub fn targets(&self) -> HashMap<Ggid, u64> {
        self.iter().map(|(g, e)| (*g, e.target)).collect()
    }

    /// `ggid -> ` Algorithm 1's target, for the groups it set.
    pub fn initial_targets(&self) -> HashMap<Ggid, u64> {
        (self.iter())
            .filter_map(|(g, e)| Some((*g, e.initial?)))
            .collect()
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
        // The verdict walks the rank's own groups: a target on a group it
        // never registered (it is no member) does not hold it back.
        let mut s = SeqTable::new();
        s.register_group(g(1), vec![0, 1]);
        s.register_group(g(2), vec![0, 2]);
        s.increment(g(1)); // SEQ[1] = 1
        let mut other = SeqTable::new();
        other.register_group(g(2), vec![0, 2]);
        other.increment(g(2));
        other.increment(g(2));
        other.register_group(g(3), vec![2, 3]);
        other.increment(g(3));
        let t = TargetTable::snapshot([&s, &other]);
        assert_eq!(
            (t.get(g(1)), t.get(g(2)), t.get(g(3))),
            (Some(1), Some(2), Some(1))
        );
        assert!(!t.reached_by(&s), "SEQ[2] = 0 < 2");
        s.increment(g(2));
        s.increment(g(2));
        assert!(t.reached_by(&s), "g(3) is not the rank's group");
        assert_eq!(t.initial_targets(), t.targets());
    }

    #[test]
    fn raise_only_upward() {
        let members: Arc<[usize]> = vec![0, 1].into();
        let mut s = SeqTable::new();
        s.restore(g(1), 3, Arc::clone(&members));
        let mut t = TargetTable::snapshot([&s]);
        assert!(!t.raise(g(1), 2, &members), "a lower raise changes nothing");
        assert!(!t.raise(g(1), 3, &members), "nor does an equal one");
        assert_eq!(t.get(g(1)), Some(3));
        assert!(t.raise(g(1), 5, &members), "a max that moved");
        assert_eq!(t.get(g(1)), Some(5));
        // A group the snapshot lacked enters with the raiser's members and
        // no Algorithm 1 value.
        assert!(t.raise(g(7), 1, &members));
        assert_eq!(t.get(g(7)), Some(1));
        assert!(Arc::ptr_eq(
            &t.iter().find(|(k, _)| **k == g(7)).unwrap().1.members,
            &members
        ));
        assert_eq!(t.initial_targets(), [(g(1), 3)].into_iter().collect());
        assert_eq!(t.targets(), [(g(1), 5), (g(7), 1)].into_iter().collect());
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

    /// The table is kept in wire order, ascending by group id, whatever
    /// order its groups arrive in; so two tables of the same groups are
    /// equal however they were filled.
    #[test]
    fn tables_iterate_ascending_and_compare_by_content() {
        let ids = [9, 2, 7, 4, 1];
        let mut registered = SeqTable::new();
        let mut restored = SeqTable::new();
        for &n in &ids {
            registered.register_group(g(n), vec![n as usize]);
            restored.restore(g(n), 0, vec![n as usize]);
        }
        let mut ascending = SeqTable::new();
        for n in [1, 2, 4, 7, 9] {
            ascending.restore(g(n), 0, vec![n as usize]);
        }
        let keys = |t: &SeqTable| t.iter().map(|(k, _)| k.0).collect::<Vec<_>>();
        for t in [&registered, &restored, &ascending] {
            assert_eq!(keys(t), [1, 2, 4, 7, 9]);
            for &n in &ids {
                assert_eq!(t.members(g(n)), Some(&[n as usize][..]));
            }
        }
        assert_eq!(registered, ascending);
        assert_eq!(restored, ascending);
    }

    #[test]
    fn restore_overwrites_and_register_is_idempotent() {
        let mut t = SeqTable::new();
        t.restore(g(5), 3, vec![0, 1]);
        t.restore(g(2), 1, vec![0]);
        t.restore(g(5), 8, vec![0, 2]);
        assert_eq!(
            (t.len(), t.seq(g(5)), t.members(g(5))),
            (2, 8, Some(&[0, 2][..]))
        );
        // Registering a held group keeps its count and its members.
        t.register_group(g(5), vec![7]);
        t.register_group(g(2), vec![7]);
        assert_eq!(
            (t.len(), t.seq(g(5)), t.members(g(5))),
            (2, 8, Some(&[0, 2][..]))
        );
        assert_eq!((t.seq(g(2)), t.members(g(2))), (1, Some(&[0][..])));
        assert_eq!(t.increment(g(2)), 2);
        assert_eq!(t.seq(g(3)), 0);
        assert_eq!(t.members(g(3)), None);
    }

    #[test]
    fn empty_targets_always_reached() {
        let t = TargetTable::default();
        let mut s = SeqTable::new();
        s.register_group(g(1), vec![0]);
        s.increment(g(1));
        assert!(t.reached_by(&s));
    }
}
