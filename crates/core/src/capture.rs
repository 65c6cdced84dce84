//! The runtime state a rank publishes at quiesce — everything the upper
//! half must carry across a restart besides the application's own data.
//!
//! In MANA this is implicit in the upper-half memory dump; here it is an
//! explicit, inspectable structure, which also lets tests assert exactly
//! what a checkpoint preserves (sequence tables, communicator creation log,
//! pending receives, a 2PC pending barrier) and exactly what it discards:
//! lower-half handles, which belong to one lower-half generation. The
//! rank publishes those beside its capture, in
//! [`crate::control::RankCtl::lower_comms`], for the coordinator alone.
//! A restore and an in-process restart install a capture the same way:
//! communicators rebuilt from `vcomm_members`, pending receives re-posted,
//! a pending trivial barrier re-issued, drained messages put back first.

use crate::control::RankState;
use crate::counters::CallCounters;
use crate::seq::SeqTable;
use crate::sorted::SortedMap;
use crate::virt::CommOpRecord;
use bytes::Bytes;
use mpisim::{SrcSel, TagSel, VTime};
use std::sync::Arc;

/// A pending (unmatched) receive recorded in the image and re-posted at
/// restart.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRecv {
    /// Virtual request id the application holds.
    pub vreq: u64,
    /// Virtual communicator id.
    pub vcomm: u64,
    /// Source selector.
    pub src: SrcSel,
    /// Tag selector.
    pub tag: TagSel,
}

/// The rest of a rank's upper half: the body's own state and the wrapper
/// state a restored rank cannot rebuild from the lower half. A rank
/// restored from an image gets its body back from `body` and its request
/// table from the other fields, and resumes at the captured park; nothing
/// re-executes. Only bodies that snapshot themselves have one (the
/// `StepBody` snapshot of the `ckpt` crate): a closure's state lives on
/// its stack, so its images restart in-process only.
#[derive(Debug, Clone, PartialEq)]
pub struct UpperHalf {
    /// The body's state, as its snapshot wrote it.
    pub body: Vec<u8>,
    /// The next virtual request id the rank would hand out.
    pub next_vreq: u64,
    /// Non-blocking collectives the quiesce completed that the
    /// application has not waited on yet: `(vreq, this rank's output)`,
    /// ascending by `vreq`.
    pub ready: Vec<(u64, Bytes)>,
    /// Send requests the application still holds: `(vreq, local
    /// completion time)`, ascending by `vreq`.
    pub sends: Vec<(u64, VTime)>,
}

/// Per-rank runtime capture, published into
/// [`crate::control::RankCtl::capture_slot`] at quiesce.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCapture {
    /// World rank.
    pub rank: usize,
    /// The park state the rank was captured in: `Quiesced` (at a wrapper
    /// entry or a non-receive wait), `RecvParked` (inside a point-to-point
    /// wait), `InTrivialBarrier` (2PC), or `Finished` (the application
    /// function had already returned). A restore from the image resumes a
    /// parked rank inside the operation it parked in, and restores a
    /// finished one as its finished body.
    pub state: RankState,
    /// Virtual clock at capture.
    pub clock: VTime,
    /// The rank's `SEQ[]` table (survives restart: upper-half state).
    pub seq_table: SeqTable,
    /// Ordered communicator-creation log: the order communicators rebuild in.
    pub comm_log: Vec<CommOpRecord>,
    /// Pending receives to re-post.
    pub pending_recvs: Vec<PendingRecv>,
    /// 2PC: trivial barrier the rank sat in `(vcomm, collective ordinal)`;
    /// re-issued at restart per the paper's §2.2.
    pub pending_barrier: Option<(u64, u64)>,
    /// Interposition counters at capture (diagnostics / Table 1).
    pub counters: CallCounters,
    /// Messages this rank deposited into the **current lower-half
    /// generation** (drain accounting — reset at restart, unlike the
    /// cumulative `counters`). MANA's original 2PC protocol drains
    /// in-flight p2p by comparing send/receive counts; recording them in
    /// the capture lets the coordinator cross-check drain completeness at
    /// every capture: sends + coordinator re-deposits must equal
    /// deliveries + drained in-flight messages, or the capture is refused
    /// with a typed error.
    pub p2p_sent: u64,
    /// Messages this rank finished receiving from the current generation
    /// (see [`RuntimeCapture::p2p_sent`]).
    pub p2p_delivered: u64,
    /// Member world ranks of each live vcomm, **in group order**. A restore
    /// or restart rebuilds communicators directly from these (no creation
    /// collective), so it cannot hang on members that already finished.
    /// Shared storage: every rank capturing the same communicator holds
    /// the same allocation, keeping a world capture O(ranks + members)
    /// instead of O(ranks × members). Kept ascending by vcomm id, the
    /// order the image's wire writes them in.
    pub vcomm_members: VCommMembers,
    /// The body and request-table state a restore elsewhere resumes from;
    /// `None` for a body with no snapshot.
    pub upper: Option<UpperHalf>,
}

/// A rank's vcomm member lists: vcomm id → the communicator's members,
/// ascending by id.
pub type VCommMembers = SortedMap<u64, Arc<[usize]>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_cloneable_and_inspectable() {
        let cap = RuntimeCapture {
            rank: 3,
            state: RankState::Quiesced,
            clock: VTime::from_micros(10.0),
            seq_table: SeqTable::new(),
            comm_log: vec![],
            pending_recvs: vec![PendingRecv {
                vreq: 1,
                vcomm: 0,
                src: SrcSel::Any,
                tag: TagSel::Tag(5),
            }],
            pending_barrier: None,
            counters: CallCounters::default(),
            p2p_sent: 0,
            p2p_delivered: 0,
            vcomm_members: VCommMembers::new(),
            upper: None,
        };
        let c2 = cap.clone();
        assert_eq!(c2.rank, 3);
        assert_eq!(c2.pending_recvs.len(), 1);
    }
}
