//! Request objects for non-blocking operations (`MPI_Request`).
//!
//! A [`Request`] is owned by the rank that initiated the operation and is
//! completed through [`crate::Ctx::test`] / [`crate::Ctx::wait`] (which need
//! the rank's clock and mailbox). A completed or never-initialized request
//! is `MPI_REQUEST_NULL`: testing it returns an immediate empty completion,
//! as the MPI standard specifies.

use crate::collective::CollInstance;
use crate::comm::Comm;
use crate::msg::{InFlightMsg, Status};
use crate::types::{SrcSel, TagSel};
use bytes::Bytes;
use netmodel::VTime;
use std::sync::Arc;

/// What a completed operation yields.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Receive completions carry the matched message's status.
    pub status: Option<Status>,
    /// Payload: received bytes, or this rank's collective output. Empty for
    /// sends and barriers.
    pub data: Bytes,
}

impl Completion {
    /// An empty completion (sends, barrier, null requests).
    pub fn empty() -> Self {
        Completion {
            status: None,
            data: Bytes::new(),
        }
    }
}

/// The kind-specific state of an active request.
#[derive(Debug)]
pub(crate) enum ReqKind {
    /// Eager send: locally complete at `complete_at`.
    Send {
        /// Local completion time (injection done).
        complete_at: VTime,
    },
    /// Posted receive, not yet matched.
    Recv {
        /// Communicator to match on.
        comm: Comm,
        /// Source selector.
        src: SrcSel,
        /// Tag selector.
        tag: TagSel,
        /// Matched message, once found (held until completion time).
        matched: Option<InFlightMsg>,
    },
    /// Non-blocking collective participation.
    Coll {
        /// The shared instance.
        inst: Arc<CollInstance>,
        /// This rank's group rank in the instance.
        group_rank: usize,
    },
}

/// A non-blocking operation handle. `Request::null()` is `MPI_REQUEST_NULL`.
#[derive(Debug)]
pub struct Request {
    pub(crate) kind: Option<ReqKind>,
}

impl Request {
    /// `MPI_REQUEST_NULL`.
    pub fn null() -> Self {
        Request { kind: None }
    }

    /// Whether this is `MPI_REQUEST_NULL` (completed or never active).
    pub fn is_null(&self) -> bool {
        self.kind.is_none()
    }

    /// An eager send, locally complete at `complete_at`. Public as a
    /// **restore hook**: a send request the application still holds at a
    /// checkpoint is rebuilt from its completion time
    /// ([`Request::send_complete_at`]) in a fresh lower half.
    pub fn send(complete_at: VTime) -> Self {
        Request {
            kind: Some(ReqKind::Send { complete_at }),
        }
    }

    /// **Checkpoint hook.** The local completion time of an active send
    /// request; `None` for every other request.
    pub fn send_complete_at(&self) -> Option<VTime> {
        match self.kind {
            Some(ReqKind::Send { complete_at }) => Some(complete_at),
            _ => None,
        }
    }

    pub(crate) fn recv(comm: Comm, src: SrcSel, tag: TagSel) -> Self {
        Request {
            kind: Some(ReqKind::Recv {
                comm,
                src,
                tag,
                matched: None,
            }),
        }
    }

    pub(crate) fn coll(inst: Arc<CollInstance>, group_rank: usize) -> Self {
        Request {
            kind: Some(ReqKind::Coll { inst, group_rank }),
        }
    }

    /// Describes a pending receive so the checkpoint engine can record it
    /// in the image and re-post it at restart: `(comm, src, tag)`.
    /// Returns `None` for null, send, or collective requests.
    pub fn recv_descriptor(&self) -> Option<(Comm, SrcSel, TagSel)> {
        match &self.kind {
            Some(ReqKind::Recv {
                comm,
                src,
                tag,
                matched: None,
            }) => Some((comm.clone(), *src, *tag)),
            _ => None,
        }
    }

    /// **Checkpoint hook.** Pulls out a message this receive request has
    /// already matched (taken from the mailbox) but not yet completed,
    /// reverting the request to its unmatched state. The checkpoint engine
    /// re-deposits the message so the image's in-flight drain sees it;
    /// without this, a matched-but-unarrived message would be lost.
    /// Returns `None` for non-receive or unmatched requests.
    pub fn unmatch(&mut self) -> Option<InFlightMsg> {
        match &mut self.kind {
            Some(ReqKind::Recv { matched, .. }) => matched.take(),
            _ => None,
        }
    }

    /// Whether the completion time of this active request is already
    /// known — a send, a matched receive, a completed collective — so that
    /// polling it advances the rank's clock toward completion without any
    /// further event. The checkpoint engine's stall rule holds a rank
    /// whose test failed only on a request that is not.
    pub fn completion_known(&self) -> bool {
        match &self.kind {
            None => false,
            Some(ReqKind::Send { .. }) => true,
            Some(ReqKind::Recv { matched, .. }) => matched.is_some(),
            Some(ReqKind::Coll { inst, .. }) => inst.is_complete(),
        }
    }

    /// Whether this request is a non-blocking collective.
    pub fn is_collective(&self) -> bool {
        matches!(self.kind, Some(ReqKind::Coll { .. }))
    }

    /// **Checkpoint-engine hook.** Whether this is a collective request
    /// whose instance has completed (every participant has entered), so
    /// [`crate::Ctx::try_complete`] would succeed. Unlike `try_complete`
    /// it consumes nothing and moves no clock: the 2PC free pass must
    /// *observe* its trivial barrier before deciding whether completing
    /// it is still this park's business.
    pub fn collective_done(&self) -> bool {
        matches!(&self.kind, Some(ReqKind::Coll { inst, .. }) if inst.is_complete())
    }
}

impl Default for Request {
    fn default() -> Self {
        Request::null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_request() {
        let r = Request::null();
        assert!(r.is_null());
        assert!(r.recv_descriptor().is_none());
        assert!(!r.is_collective());
    }

    #[test]
    fn send_request_states() {
        let r = Request::send(VTime::from_micros(1.0));
        assert!(!r.is_null());
        assert!(r.recv_descriptor().is_none());
        assert_eq!(r.send_complete_at(), Some(VTime::from_micros(1.0)));
        assert_eq!(Request::null().send_complete_at(), None);
    }
}
