//! Global group ids (ggid) — paper §4.1.
//!
//! Communicator ids generated by the MPI library are local resource
//! handles, so the CC algorithm identifies communicators *globally* by
//! hashing the world ranks of the underlying group's members. By design,
//! communicators that are `MPI_SIMILAR` (same member set, any order) get
//! the same ggid, because sequence numbers and targets are per *group of
//! processes*, not per handle.

use mpisim::Group;

/// A global group id: an order-independent hash of the member world ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ggid(pub u64);

impl std::fmt::Display for Ggid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{:08x}", self.0 & 0xffff_ffff)
    }
}

/// Computes the ggid of a group: FNV-1a over the *sorted* member world
/// ranks, so similar groups (in the `MPI_SIMILAR` sense) hash identically.
pub fn ggid_of(group: &Group) -> Ggid {
    ggid_of_sorted(&group.sorted_members())
}

/// Computes a ggid from an already-sorted member list.
pub fn ggid_of_sorted(sorted_world_ranks: &[usize]) -> Ggid {
    debug_assert!(
        sorted_world_ranks.windows(2).all(|w| w[0] < w[1]),
        "members must be sorted and distinct"
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &r in sorted_world_ranks {
        h ^= r as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        // Extra avalanche: FNV alone is weak on small integer sets.
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    // Never collide with the empty hash for the world group of size 0.
    Ggid(h ^ (sorted_world_ranks.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similar_groups_same_ggid() {
        let a = Group::new(vec![3, 1, 5]);
        let b = Group::new(vec![1, 3, 5]);
        assert_eq!(a.sorted_members(), b.sorted_members());
        assert_eq!(ggid_of(&a), ggid_of(&b));
    }

    #[test]
    fn different_sets_different_ggid() {
        let a = Group::new(vec![1, 3, 5]);
        let b = Group::new(vec![1, 3, 6]);
        assert_ne!(ggid_of(&a), ggid_of(&b));
        let c = Group::new(vec![1, 3]);
        assert_ne!(ggid_of(&a), ggid_of(&c));
    }

    #[test]
    fn subset_prefix_not_colliding() {
        // {0} vs {0,1} vs {1}: classic weak-hash collisions.
        let g0 = ggid_of(&Group::new(vec![0]));
        let g01 = ggid_of(&Group::new(vec![0, 1]));
        let g1 = ggid_of(&Group::new(vec![1]));
        assert_ne!(g0, g01);
        assert_ne!(g1, g01);
        assert_ne!(g0, g1);
    }

    #[test]
    fn dense_world_groups_distinct() {
        // All contiguous sub-ranges of 0..64: no collisions expected.
        let mut seen = std::collections::HashSet::new();
        for lo in 0..64 {
            for hi in (lo + 1)..=64 {
                let g = ggid_of_sorted(&(lo..hi).collect::<Vec<_>>());
                assert!(seen.insert(g), "collision for [{lo},{hi})");
            }
        }
    }
}
