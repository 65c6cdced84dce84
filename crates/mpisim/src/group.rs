//! MPI groups: ordered sets of world ranks.
//!
//! A group maps *group ranks* `0..p` to *world ranks*. Two groups are
//! `MPI_SIMILAR` when they contain the same member set (possibly in a
//! different order) — the paper's ggid (global group id, §4.1) is defined on
//! exactly that equivalence, so `Group::sorted_members` is the canonical
//! form the ggid hash consumes.

use std::sync::Arc;

/// An ordered set of world ranks, as in `MPI_Group`.
///
/// Member storage is shared (`Arc<[usize]>`): cloning a group — and
/// cloning the communicators built on it, one handle per rank — never
/// copies the member list. At 65 536 ranks a per-rank copy of the world
/// group would cost half a megabyte *per rank*; the shared form costs it
/// once per communicator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Group {
    /// Group rank → world rank, in group order.
    members: Arc<[usize]>,
    /// Members sorted ascending (the canonical `MPI_SIMILAR`
    /// representative the ggid hash consumes). Shares the `members`
    /// allocation when the group is already sorted — true for the world
    /// group and every key-ordered split.
    sorted: Arc<[usize]>,
}

impl Group {
    /// Creates a group from an ordered member list.
    ///
    /// # Panics
    /// Panics if the list contains duplicates (not a set).
    pub fn new(members: Vec<usize>) -> Self {
        Group::from_shared(members.into())
    }

    /// Creates a group that adopts an already-shared member list without
    /// copying it — the restore path hands every rank the image decoder's
    /// interned allocation.
    ///
    /// # Panics
    /// Panics if the list contains duplicates (not a set).
    pub fn from_shared(members: Arc<[usize]>) -> Self {
        let sorted = if members.windows(2).all(|w| w[0] < w[1]) {
            Arc::clone(&members)
        } else {
            let mut s = members.to_vec();
            s.sort_unstable();
            s.into()
        };
        assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "group members must be distinct"
        );
        Group { members, sorted }
    }

    /// The world-communicator group over `n` ranks: identity mapping.
    pub fn world(n: usize) -> Self {
        let members: Arc<[usize]> = (0..n).collect();
        Group {
            sorted: Arc::clone(&members),
            members,
        }
    }

    /// Number of members (`MPI_Group_size`).
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// World rank of group rank `r` (`MPI_Group_translate_ranks` toward the
    /// world group).
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[inline]
    pub fn world_rank(&self, r: usize) -> usize {
        self.members[r]
    }

    /// Group rank of a world rank (`MPI_Group_rank` after translation), or
    /// `None` if not a member — MPI's `MPI_UNDEFINED`.
    pub fn group_rank_of_world(&self, world: usize) -> Option<usize> {
        // Identity fast path: in the world group (and any identity-mapped
        // subgroup prefix) a rank sits at its own index, so the O(p) scan
        // — quadratic across a whole world's worth of handle builds — is
        // skipped.
        if self.members.get(world) == Some(&world) {
            return Some(world);
        }
        // A group in ascending order (every group a split keyed by rank
        // makes) is searched, not scanned.
        if Arc::ptr_eq(&self.members, &self.sorted) {
            return self.members.binary_search(&world).ok();
        }
        self.members.iter().position(|&m| m == world)
    }

    /// Whether `world` is a member.
    pub fn contains_world(&self, world: usize) -> bool {
        self.group_rank_of_world(world).is_some()
    }

    /// Group rank → world rank slice, in group order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Shared handle to the group-order member list (see the type docs:
    /// cloning is reference-count traffic, not a copy).
    pub fn members_shared(&self) -> Arc<[usize]> {
        Arc::clone(&self.members)
    }

    /// Members sorted ascending: the canonical `MPI_SIMILAR` representative
    /// used by the ggid hash. Returns a handle to the group's shared
    /// allocation — cloning it is reference-count traffic, not a copy.
    pub fn sorted_members(&self) -> Arc<[usize]> {
        Arc::clone(&self.sorted)
    }

    /// `MPI_SIMILAR` (or closer): same member set, order ignored.
    pub fn similar(&self, other: &Group) -> bool {
        self.size() == other.size() && self.sorted == other.sorted
    }

    /// `MPI_IDENT`: same members in the same order.
    pub fn identical(&self, other: &Group) -> bool {
        self.members == other.members
    }

    /// `MPI_Group_incl`: sub-group keeping `ranks` (group ranks) in order.
    pub fn incl(&self, ranks: &[usize]) -> Group {
        Group::new(ranks.iter().map(|&r| self.members[r]).collect())
    }

    /// `MPI_Group_excl`: sub-group dropping `ranks` (group ranks).
    pub fn excl(&self, ranks: &[usize]) -> Group {
        let drop: std::collections::HashSet<usize> = ranks.iter().copied().collect();
        Group::new(
            self.members
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop.contains(i))
                .map(|(_, &w)| w)
                .collect(),
        )
    }

    /// `MPI_Group_translate_ranks`: maps this group's ranks into `other`'s
    /// ranks; `None` where a member is absent from `other`.
    pub fn translate_ranks(&self, ranks: &[usize], other: &Group) -> Vec<Option<usize>> {
        ranks
            .iter()
            .map(|&r| other.group_rank_of_world(self.members[r]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group_identity() {
        let g = Group::world(4);
        assert_eq!(g.size(), 4);
        assert_eq!(g.world_rank(2), 2);
        assert_eq!(g.group_rank_of_world(3), Some(3));
    }

    #[test]
    fn reordered_groups_similar_not_identical() {
        let a = Group::new(vec![3, 1, 5]);
        let b = Group::new(vec![1, 3, 5]);
        assert!(a.similar(&b));
        assert!(!a.identical(&b));
        assert!(a.identical(&a));
    }

    #[test]
    fn different_sets_not_similar() {
        let a = Group::new(vec![1, 2]);
        let b = Group::new(vec![1, 3]);
        assert!(!a.similar(&b));
    }

    #[test]
    fn incl_excl() {
        let g = Group::new(vec![10, 20, 30, 40]);
        assert_eq!(g.incl(&[2, 0]).members(), &[30, 10]);
        assert_eq!(g.excl(&[1, 3]).members(), &[10, 30]);
    }

    #[test]
    fn translate() {
        let a = Group::new(vec![10, 20, 30]);
        let b = Group::new(vec![30, 10]);
        assert_eq!(
            a.translate_ranks(&[0, 1, 2], &b),
            vec![Some(1), None, Some(0)]
        );
    }

    #[test]
    #[should_panic]
    fn duplicate_members_rejected() {
        Group::new(vec![1, 1]);
    }
}
