//! # mpisim — a thread-based MPI-like runtime with virtual-time accounting
//!
//! `mpisim` is the "MPI library + network" substrate for the `mana-cc`
//! reproduction of *Enabling Practical Transparent Checkpointing for MPI: A
//! Topological Sort Approach* (CLUSTER 2024). A simulated MPI process
//! (**rank**) has two continuation representations:
//!
//! * **Thread ranks** (the original, still the test shim): the rank owns
//!   a plain OS thread whose only sleep is its one event wait; the host's
//!   scheduler multiplexes whichever ranks are runnable ([`sched`]). With
//!   128 KiB rank stacks and the lock-free collective rendezvous this
//!   carries 4096-rank worlds.
//! * **Step ranks** (the scale representation): a parked rank is a heap
//!   object implementing [`sched::RankStep`] — a hand-lowered state
//!   machine, the way async bodies lower — resumed by the
//!   [`sched::StepDriver`]'s worker pool. No per-rank stack or kernel
//!   thread exists, which is what lets a single host carry 65 536-rank
//!   worlds; see the step-driver section of [`sched`] for the wake
//!   protocol.
//!
//! Ranks communicate through in-memory mailboxes
//! and collective rendezvous instances, while a per-rank **virtual clock**
//! (see [`netmodel`]) accounts for the time a real cluster would spend.
//! Neither driver touches virtual time, so timing results are
//! independent of the worker budget — and both continuation
//! representations drive the same uncharged completion paths
//! ([`ctx::Ctx::try_complete`], [`ctx::Ctx::coll_begin`]), so they produce
//! bit-identical virtual-time trajectories.
//!
//! The crate implements the slice of the MPI-4.0 semantics that the paper's
//! checkpointing protocols observe:
//!
//! * groups and communicators ([`group`], [`comm`]): `MPI_COMM_WORLD`,
//!   `comm_split`/`dup`/`create`, `MPI_Group_translate_ranks`, and
//!   `MPI_SIMILAR` comparison;
//! * point-to-point ([`mailbox`], [`ctx`]): eager `send`/`isend`,
//!   `recv`/`irecv`, `iprobe`, wildcard `ANY_SOURCE`/`ANY_TAG` matching with
//!   the MPI non-overtaking rule;
//! * request objects ([`request`]): `test`/`wait`/`waitall`/`waitany`, with
//!   `MPI_REQUEST_NULL` semantics;
//! * blocking **and non-blocking collectives** ([`collective`], [`ctx`]):
//!   barrier, bcast, reduce, allreduce, gather, allgather, alltoall,
//!   scatter, scan, reduce_scatter and their `I*` variants. Per the MPI
//!   standard (paper §3), blocking collectives *may* synchronize, so correct
//!   programs must tolerate a barrier at any collective; non-blocking
//!   collectives progress independently once all participants have initiated
//!   them.
//!
//! ## The split between this crate and `mana-core`
//!
//! In MANA's split-process architecture this crate is the **lower half**:
//! the part that talks to the (simulated) network and is *discarded* at
//! restart. Everything a checkpoint must preserve — sequence numbers,
//! virtualized handles, pending-request descriptors — lives above, in
//! `mana-core`. `mpisim` exposes the hooks that layer needs:
//! [`world::World::take_unexpected`] to drain in-flight messages at a safe
//! state, [`ctx::Ctx::attach_world`] to swap in a fresh lower half at
//! restart, and raw re-deposit/re-post entry points.

pub mod collective;
pub mod comm;
pub mod ctx;
pub mod dtype;
pub mod fail;
pub mod group;
pub mod mailbox;
pub mod msg;
pub mod reduce_op;
pub mod request;
pub mod sched;
pub mod types;
pub mod world;

pub use collective::RedSpec;
pub use comm::Comm;
pub use ctx::Ctx;
pub use dtype::DType;
pub use fail::{FailPlane, FaultScope, KilledByFault, RankDeath};
pub use group::Group;
pub use msg::{SavedMsg, Status};
pub use reduce_op::ReduceOp;
pub use request::{Completion, Request};
pub use sched::{EventCount, RankStep, Scheduler, Step, StepDriver, WaitReason, WakeupStats};
pub use types::{SrcSel, Tag, TagSel};
pub use world::{
    run_world, try_run_world, RankReport, SpawnError, World, WorldConfig, WorldReport,
    DEFAULT_RANK_STACK,
};

pub use netmodel::{CollOp, NetParams, Topology, VTime};
