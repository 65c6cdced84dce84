//! Communicators: lower-half handles binding a [`Group`] to a message
//! context.
//!
//! Communicator ids are local resource handles (paper §4.1): they are valid
//! only within one lower-half generation and are *not* stable across
//! restart. The upper half (`mana-core`) identifies communicators globally
//! by the ggid of their group and replays communicator creation into a
//! fresh lower half at restart.

use crate::group::Group;
use crate::mailbox::Mailbox;
use crate::types::CommId;
use std::sync::{Arc, OnceLock};

/// Shared communicator state.
#[derive(Debug)]
pub struct CommInner {
    /// Lower-half handle.
    pub id: CommId,
    /// The member group (group rank → world rank).
    pub group: Group,
    /// Lower-half generation this communicator belongs to.
    pub epoch: u64,
    /// The members' mailboxes in group order, made by the first
    /// collective on the communicator and shared by every later one.
    pub(crate) mailboxes: OnceLock<Arc<[Arc<Mailbox>]>>,
}

/// A cheaply clonable communicator handle, as held by one rank.
///
/// Carries the caller's group rank so the common `comm.rank()` /
/// `comm.size()` calls are free.
#[derive(Debug, Clone)]
pub struct Comm {
    pub(crate) inner: Arc<CommInner>,
    /// The owning rank's position in the group.
    pub(crate) my_group_rank: usize,
}

impl Comm {
    /// Builds a handle for `world_rank`'s view of `inner`.
    ///
    /// # Panics
    /// Panics if `world_rank` is not a member of the communicator's group.
    pub fn for_world_rank(inner: Arc<CommInner>, world_rank: usize) -> Comm {
        let my_group_rank = inner
            .group
            .group_rank_of_world(world_rank)
            .unwrap_or_else(|| {
                panic!(
                    "world rank {world_rank} is not a member of comm {:?}",
                    inner.id
                )
            });
        Comm {
            inner,
            my_group_rank,
        }
    }

    /// This communicator's lower-half id.
    #[inline]
    pub fn id(&self) -> CommId {
        self.inner.id
    }

    /// The caller's rank in this communicator (`MPI_Comm_rank`).
    #[inline]
    pub fn rank(&self) -> usize {
        self.my_group_rank
    }

    /// Number of members (`MPI_Comm_size`).
    #[inline]
    pub fn size(&self) -> usize {
        self.inner.group.size()
    }

    /// The member group.
    #[inline]
    pub fn group(&self) -> &Group {
        &self.inner.group
    }

    /// Lower-half generation.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// World rank of a group rank.
    #[inline]
    pub fn world_rank(&self, group_rank: usize) -> usize {
        self.inner.group.world_rank(group_rank)
    }
}

/// The `SplitKey::color` disambiguator for `MPI_Comm_create`: a hash of
/// the target group's member world ranks (order-insensitive). Shared by
/// live creation (`Ctx::comm_create_finish`) and checkpoint-restart
/// replay so both derive the same registry key; `|1` keeps it clear of
/// `comm_dup_finish`'s reserved `i64::MIN`.
pub fn create_color(members: &[usize]) -> i64 {
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    let mut h: i64 = 0x9E37;
    for w in sorted {
        h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(w as i64);
    }
    h | 1
}

/// Key identifying one communicator-creation collective, so that all
/// participating ranks agree on the new `CommId` without extra messaging:
/// the first rank to reach the registry allocates, the rest look it up.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitKey {
    /// Parent communicator.
    pub parent: CommId,
    /// Ordinal of this creation op among the parent's collective calls.
    pub seq: u64,
    /// Disambiguator: the split color, or a hash of the target group.
    pub color: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(members: Vec<usize>, world_rank: usize) -> Comm {
        Comm::for_world_rank(
            Arc::new(CommInner {
                id: CommId(3),
                group: Group::new(members),
                epoch: 0,
                mailboxes: OnceLock::new(),
            }),
            world_rank,
        )
    }

    #[test]
    fn handle_views() {
        let c = comm(vec![4, 2, 9], 2);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.size(), 3);
        assert_eq!(c.world_rank(2), 9);
        assert_eq!(c.id(), CommId(3));
    }

    #[test]
    #[should_panic]
    fn non_member_rejected() {
        comm(vec![4, 2, 9], 7);
    }
}
