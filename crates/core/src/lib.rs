//! # mana-core — upper-half checkpoint protocol state
//!
//! Everything a checkpoint must preserve lives here, above the simulated
//! MPI library (`mpisim`): per-group sequence tables (§4.1), the
//! coordinator control plane, virtualized communicator/request handles,
//! the safe-cut verifier (§4.2.2), and the capture structures the
//! orchestrator (`ckpt`) assembles into images.

pub mod capture;
pub mod control;
pub mod counters;
pub mod ggid;
pub mod protocol;
pub mod seq;
pub mod topo;
pub mod trace;
pub mod virt;

pub use capture::{PendingRecv, RuntimeCapture, UpperHalf};
pub use control::{CkptControl, CkptPhase, RankCtl, RankState, Threshold};
pub use counters::CallCounters;
pub use ggid::{ggid_of, ggid_of_sorted, Ggid};
pub use protocol::Protocol;
pub use seq::{SeqEntry, SeqTable, TargetEntry, TargetTable};
pub use topo::{verify_safe_cut, Cut, CutRun, ExecEvent, ExecutionLog, Node, Violation};
pub use trace::{DrainEvent, DrainTrace};
pub use virt::{
    CommOp, CommOpRecord, VComm, VCommTable, VReq, VReqKind, VReqState, VReqTable, VCOMM_WORLD,
};
