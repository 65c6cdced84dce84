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
        assert_eq!(a.sorted_members(), b.sorted_members());
        assert_ne!(a.members(), b.members());
    }

    #[test]
    fn different_sets_not_similar() {
        let a = Group::new(vec![1, 2]);
        let b = Group::new(vec![1, 3]);
        assert_ne!(a.sorted_members(), b.sorted_members());
    }

    #[test]
    fn translate() {
        // A rank of `a` found in `b` through its world rank: the identity
        // fast path, the search of a sorted group and the scan of an
        // unsorted one.
        let a = Group::new(vec![10, 20, 30]);
        let b = Group::new(vec![30, 10]);
        let into_b = |r| b.group_rank_of_world(a.world_rank(r));
        assert_eq!([0, 1, 2].map(into_b), [Some(1), None, Some(0)]);
        let into_a = |r| a.group_rank_of_world(b.world_rank(r));
        assert_eq!([0, 1].map(into_a), [Some(2), Some(0)]);
        assert_eq!(Group::world(4).group_rank_of_world(3), Some(3));
    }

    #[test]
    #[should_panic]
    fn duplicate_members_rejected() {
        Group::new(vec![1, 1]);
    }
}
