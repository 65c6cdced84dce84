//! Handle virtualization: the upper half's stable ids for communicators
//! and requests.
//!
//! Lower-half handles die at restart (the MPI library is replaced, paper
//! Figure 1), so the wrapper layer hands the application *virtual* ids and
//! keeps translation tables, exactly like MANA's virtual-id subsystem:
//!
//! * [`VCommTable`] maps virtual communicator ids to lower-half [`Comm`]
//!   handles and keeps an ordered **creation log**; at restart the log is
//!   replayed against the fresh lower half to rebuild every communicator.
//! * [`VReqTable`] maps virtual request ids to live lower-half requests or
//!   to already-completed results (requests completed by the checkpoint
//!   drain of §4.3.2 before the app ever tested them).

use crate::capture::VCommMembers;
use crate::ggid::Ggid;
use mpisim::{Comm, Completion, Request, SrcSel, TagSel};
use std::collections::HashMap;

/// Virtual communicator id; stable across checkpoint/restart. Id 0 is
/// always `MPI_COMM_WORLD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VComm(pub u64);

/// `MPI_COMM_WORLD`'s virtual id.
pub const VCOMM_WORLD: VComm = VComm(0);

/// Virtual request id; stable across checkpoint/restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VReq(pub u64);

/// A communicator-management operation, recorded for restart replay.
#[derive(Debug, Clone, PartialEq)]
pub enum CommOp {
    /// `MPI_Comm_dup(parent)`.
    Dup {
        /// Parent virtual id.
        parent: VComm,
    },
    /// `MPI_Comm_split(parent, color, key)`.
    Split {
        /// Parent virtual id.
        parent: VComm,
        /// This rank's color argument.
        color: i64,
        /// This rank's key argument.
        key: i64,
    },
    /// `MPI_Comm_create(parent, group)` with `group` as world ranks.
    Create {
        /// Parent virtual id.
        parent: VComm,
        /// Member world ranks of the target group, in group order.
        members: Vec<usize>,
    },
}

/// One replay-log record.
#[derive(Debug, Clone, PartialEq)]
pub struct CommOpRecord {
    /// The operation and its arguments.
    pub op: CommOp,
    /// The virtual id assigned to the result (`None` when this rank got
    /// `MPI_COMM_NULL`, e.g. a negative split color).
    pub result: Option<VComm>,
}

/// Per-rank communicator virtualization table.
#[derive(Debug, Default)]
pub struct VCommTable {
    map: HashMap<VComm, (Comm, Ggid)>,
    log: Vec<CommOpRecord>,
    next: u64,
}

impl VCommTable {
    /// Empty table; the caller must [`VCommTable::bind_world`] before use.
    pub fn new() -> Self {
        VCommTable {
            map: HashMap::new(),
            log: Vec::new(),
            next: 1,
        }
    }

    /// Binds virtual id 0 to the lower half's `MPI_COMM_WORLD`.
    pub fn bind_world(&mut self, world: Comm, ggid: Ggid) {
        self.map.insert(VCOMM_WORLD, (world, ggid));
    }

    /// Allocates the next virtual id, records the creation op, and binds
    /// the lower-half handle (if this rank is a member).
    pub fn record_creation(&mut self, op: CommOp, lower: Option<(Comm, Ggid)>) -> Option<VComm> {
        let result = lower.map(|(comm, ggid)| {
            let vid = VComm(self.next);
            self.next += 1;
            self.map.insert(vid, (comm, ggid));
            vid
        });
        self.log.push(CommOpRecord { op, result });
        result
    }

    /// Resolves a virtual id to the current lower-half handle and ggid.
    ///
    /// # Panics
    /// Panics on an unknown id (app bug or use-after-free).
    pub fn resolve(&self, v: VComm) -> &(Comm, Ggid) {
        self.map
            .get(&v)
            .unwrap_or_else(|| panic!("unknown virtual communicator {v:?}"))
    }

    /// The creation log, for restart replay and for the checkpoint image.
    pub fn log(&self) -> &[CommOpRecord] {
        &self.log
    }

    /// Drops all lower-half bindings (restart: the old lower half is gone)
    /// but keeps the log. `rebind` must be called for world and then each
    /// log entry replayed.
    pub fn invalidate_lower(&mut self) {
        self.map.clear();
    }

    /// Re-binds a virtual id after replay.
    pub fn rebind(&mut self, v: VComm, comm: Comm, ggid: Ggid) {
        self.map.insert(v, (comm, ggid));
    }

    /// Restores the log from a checkpoint image (cold restart).
    pub fn restore_log(&mut self, log: Vec<CommOpRecord>) {
        self.next = log
            .iter()
            .filter_map(|r| r.result)
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(1);
        self.log = log;
    }

    /// Snapshot of the vcomm → lower-half `CommId` mapping (for the
    /// coordinator's in-flight message translation).
    pub fn lower_map(&self) -> HashMap<u64, mpisim::types::CommId> {
        self.map.iter().map(|(v, (c, _))| (v.0, c.id())).collect()
    }

    /// Snapshot of each live vcomm's member world ranks **in group order**
    /// (for the checkpoint image's direct communicator rebuild at restart).
    /// Member lists are shared handles into the lower-half groups — the
    /// snapshot is O(vcomms), not O(vcomms × members) — sorted by vcomm id
    /// once, here.
    pub fn members_map(&self) -> VCommMembers {
        self.map
            .iter()
            .map(|(v, (c, _))| (v.0, c.group().members_shared()))
            .collect()
    }

    /// Number of live virtual communicators.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether only nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// What kind of operation a virtual request tracks (recorded in images so
/// pending receives can be re-posted at restart).
#[derive(Debug, Clone, PartialEq)]
pub enum VReqKind {
    /// An eager send (always complete by capture time).
    Send,
    /// A receive with its matching criteria.
    Recv {
        /// Virtual communicator.
        vcomm: VComm,
        /// Source selector.
        src: SrcSel,
        /// Tag selector.
        tag: TagSel,
    },
    /// A non-blocking collective (drained to completion before capture,
    /// per §4.3.2).
    Coll {
        /// Virtual communicator.
        vcomm: VComm,
    },
}

/// State of a virtual request.
#[derive(Debug)]
pub enum VReqState {
    /// Backed by a live lower-half request.
    Active(Request, VReqKind),
    /// Completed by the drain; result stored for the app's eventual
    /// `wait`/`test`.
    Ready(Completion),
}

/// Per-rank request virtualization table.
#[derive(Debug, Default)]
pub struct VReqTable {
    map: HashMap<u64, VReqState>,
    next: u64,
}

impl VReqTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a live request; returns its virtual id.
    pub fn insert(&mut self, req: Request, kind: VReqKind) -> VReq {
        let id = self.next;
        self.next += 1;
        self.map.insert(id, VReqState::Active(req, kind));
        VReq(id)
    }

    /// Takes the state out for completion processing (the entry is
    /// removed; re-insert via [`VReqTable::put_back`] if incomplete).
    pub fn take(&mut self, v: VReq) -> Option<VReqState> {
        self.map.remove(&v.0)
    }

    /// Re-inserts an incomplete request under the same id.
    pub fn put_back(&mut self, v: VReq, st: VReqState) {
        self.map.insert(v.0, st);
    }

    /// Ids of all active non-blocking collective requests (the §4.3.2
    /// completion-drain work list).
    pub fn active_collectives(&self) -> Vec<VReq> {
        self.map
            .iter()
            .filter(|(_, s)| matches!(s, VReqState::Active(_, VReqKind::Coll { .. })))
            .map(|(&id, _)| VReq(id))
            .collect()
    }

    /// Ids of all active receive requests, matched or not (the quiesce
    /// step reverts matched-but-uncompleted receives so their messages are
    /// drained with the mailbox).
    pub fn active_recv_ids(&self) -> Vec<VReq> {
        self.map
            .iter()
            .filter(|(_, s)| matches!(s, VReqState::Active(_, VReqKind::Recv { .. })))
            .map(|(&id, _)| VReq(id))
            .collect()
    }

    /// Descriptors of all pending (unmatched) receives, for the image:
    /// `(vreq, vcomm, src, tag)`.
    pub fn pending_recvs(&self) -> Vec<(VReq, VComm, SrcSel, TagSel)> {
        self.map
            .iter()
            .filter_map(|(&id, s)| match s {
                VReqState::Active(req, VReqKind::Recv { vcomm, src, tag }) if !req.is_null() => {
                    Some((VReq(id), *vcomm, *src, *tag))
                }
                _ => None,
            })
            .collect()
    }

    /// The next virtual id [`VReqTable::insert`] hands out.
    pub fn next_id(&self) -> u64 {
        self.next
    }

    /// Restores the next id from an image (restore elsewhere: entries
    /// come back through [`VReqTable::put_back`]).
    pub fn set_next_id(&mut self, next: u64) {
        self.next = next;
    }

    /// Completed results the application has not collected yet, for the
    /// image: `(vreq, output)`, ascending by id.
    pub fn ready_results(&self) -> Vec<(u64, bytes::Bytes)> {
        let mut v: Vec<(u64, bytes::Bytes)> = (self.map.iter())
            .filter_map(|(&id, s)| match s {
                VReqState::Ready(c) => Some((id, c.data.clone())),
                VReqState::Active(..) => None,
            })
            .collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }

    /// Active send requests, for the image: `(vreq, local completion
    /// time)`, ascending by id.
    pub fn held_sends(&self) -> Vec<(u64, mpisim::VTime)> {
        let mut v: Vec<(u64, mpisim::VTime)> = (self.map.iter())
            .filter_map(|(&id, s)| match s {
                VReqState::Active(req, VReqKind::Send) => Some((id, req.send_complete_at()?)),
                _ => None,
            })
            .collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }

    /// Number of tracked requests.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcomm_log_and_resolve() {
        let mut t = VCommTable::new();
        // Simulate bind/record without a real lower half: build via mpisim.
        let world = mpisim::World::new(mpisim::WorldConfig::single_node(2));
        let inner = world.comm_inner(mpisim::types::COMM_WORLD_ID);
        let comm = Comm::for_world_rank(inner, 0);
        let g = Ggid(42);
        t.bind_world(comm.clone(), g);
        assert_eq!(t.resolve(VCOMM_WORLD).1, Ggid(42));

        let v = t
            .record_creation(
                CommOp::Split {
                    parent: VCOMM_WORLD,
                    color: 1,
                    key: 0,
                },
                Some((comm.clone(), Ggid(7))),
            )
            .unwrap();
        assert_eq!(v, VComm(1));
        assert_eq!(t.log().len(), 1);

        // Non-member creation records None but still logs.
        let none = t.record_creation(
            CommOp::Split {
                parent: VCOMM_WORLD,
                color: -1,
                key: 0,
            },
            None,
        );
        assert!(none.is_none());
        assert_eq!(t.log().len(), 2);

        // Invalidate + rebind as a restart would.
        t.invalidate_lower();
        assert!(t.is_empty());
        t.bind_world(comm.clone(), g);
        t.rebind(v, comm, Ggid(7));
        assert_eq!(t.resolve(v).1, Ggid(7));
    }

    #[test]
    fn restore_log_sets_next_id() {
        let mut t = VCommTable::new();
        t.restore_log(vec![CommOpRecord {
            op: CommOp::Dup {
                parent: VCOMM_WORLD,
            },
            result: Some(VComm(5)),
        }]);
        assert_eq!(t.log().len(), 1);
        // Next allocation must not collide with restored id 5.
        let world = mpisim::World::new(mpisim::WorldConfig::single_node(1));
        let comm = Comm::for_world_rank(world.comm_inner(mpisim::types::COMM_WORLD_ID), 0);
        let v = t
            .record_creation(
                CommOp::Dup {
                    parent: VCOMM_WORLD,
                },
                Some((comm, Ggid(1))),
            )
            .unwrap();
        assert_eq!(v, VComm(6));
    }

    #[test]
    fn vreq_lifecycle() {
        let mut t = VReqTable::new();
        let v = t.insert(Request::null(), VReqKind::Send);
        assert_eq!(t.len(), 1);
        let st = t.take(v).unwrap();
        assert!(matches!(st, VReqState::Active(_, VReqKind::Send)));
        t.put_back(v, VReqState::Ready(Completion::empty()));
        match t.take(v).unwrap() {
            VReqState::Ready(c) => assert!(c.data.is_empty()),
            _ => panic!("expected ready"),
        }
        assert!(t.is_empty());
    }

    #[test]
    fn worklists() {
        let mut t = VReqTable::new();
        t.insert(Request::null(), VReqKind::Coll { vcomm: VCOMM_WORLD });
        let colls = t.active_collectives();
        assert_eq!(colls.len(), 1);
        // Null recv requests are not "pending".
        t.insert(
            Request::null(),
            VReqKind::Recv {
                vcomm: VCOMM_WORLD,
                src: SrcSel::Any,
                tag: TagSel::Any,
            },
        );
        assert!(t.pending_recvs().is_empty());
    }
}
