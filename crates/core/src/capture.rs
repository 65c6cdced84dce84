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

use crate::control::RankState;
use crate::counters::CallCounters;
use crate::seq::SeqTable;
use crate::virt::CommOpRecord;
use mpisim::{SrcSel, TagSel, VTime};
use std::collections::HashMap;

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

/// Per-rank runtime capture, published into
/// [`crate::control::RankCtl::capture_slot`] at quiesce.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCapture {
    /// World rank.
    pub rank: usize,
    /// The park state the rank was captured in: `Quiesced` (at a wrapper
    /// entry or a non-receive wait), `RecvParked` (inside a point-to-point
    /// wait), `InTrivialBarrier` (2PC), or `Finished` (the application
    /// function had already returned). Restore-from-image uses this to
    /// decide which ranks re-park and which run to completion.
    pub state: RankState,
    /// Virtual clock at capture.
    pub clock: VTime,
    /// The rank's `SEQ[]` table (survives restart: upper-half state).
    pub seq_table: SeqTable,
    /// Ordered communicator-creation log for restart replay.
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
    /// Member world ranks of each live vcomm, **in group order**. Restart
    /// replay rebuilds communicators directly from these (no creation
    /// collective), so replay cannot hang on members that already finished.
    /// Shared storage: every rank capturing the same communicator holds
    /// the same allocation, keeping a world capture O(ranks + members)
    /// instead of O(ranks × members).
    pub vcomm_members: HashMap<u64, std::sync::Arc<[usize]>>,
}

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
            vcomm_members: HashMap::new(),
        };
        let c2 = cap.clone();
        assert_eq!(c2.rank, 3);
        assert_eq!(c2.pending_recvs.len(), 1);
    }
}
