//! # ckpt — checkpoint/restore orchestration around first-class images
//!
//! The unit of this crate is the **checkpoint image** ([`Checkpoint`]): a
//! serializable, integrity-checked artifact capturing a consistent cut of
//! an MPI-like execution — sequence tables, communicator logs, pending
//! receives and trivial barriers, drained in-flight messages, call
//! counters, and the cut evidence the safe-cut oracle consumes. Capture
//! and restore are decoupled: *when* to capture is a pluggable
//! [`TriggerPolicy`]; *what to do with the image* is the caller's choice —
//! keep running, restart in-process, or serialize the image and restore it
//! later, elsewhere, onto a differently-packed set of nodes.
//!
//! ## Quickstart: capture, save to disk, restore elsewhere
//!
//! ```no_run
//! use ckpt::{
//!     restore_ckpt_world, run_ckpt_world, Checkpoint, CkptOptions, RestoreConfig, ResumeMode,
//! };
//! use mpisim::{VTime, WorldConfig};
//!
//! let cfg = WorldConfig::multi_node(8, 4); // 8 ranks, 4 per node
//! let program = |r: &mut ckpt::CcRank| {
//!     let w = r.world_vcomm();
//!     r.allreduce_f64(w, &[r.rank() as f64], mpisim::ReduceOp::Sum)[0]
//! };
//!
//! // Capture mid-run and keep going; the image lands in the report.
//! let opts = CkptOptions::one_checkpoint(VTime::from_micros(5.0), ResumeMode::Continue);
//! let run = run_ckpt_world(cfg, opts, program);
//!
//! // The image is a first-class artifact: bytes on disk, with a versioned
//! // header and checksum. A flipped bit is rejected at load time.
//! run.checkpoints[0].save_to("job.ckpt").unwrap();
//!
//! // Later / elsewhere: load it back and restore onto a different node
//! // packing (8 ranks spread 1-per-node). Results are bit-identical to an
//! // in-process restart; only the modeled timing changes.
//! let image = Checkpoint::load_from("job.ckpt").unwrap();
//! let restored = restore_ckpt_world(
//!     &image,
//!     RestoreConfig::same_packing().with_ranks_per_node(1),
//!     program,
//! );
//! # let _ = restored;
//! ```
//!
//! ## The pieces
//!
//! * [`rank::CcRank`] — the per-rank wrapper layer: every MPI-like call
//!   interposes on the CC drain protocol (sequence gate, overshoot raises,
//!   entry parking — paper Algorithms 2 and 3) and virtualizes handles so
//!   they survive restart. Under restore it also re-executes the captured
//!   program up to the cut and parks there. The protocol's control flow
//!   is the poll engine of [`rank::step`]; every operation that can wait
//!   has a `poll_*` form and a blocking form over it.
//! * [`policy`] — [`TriggerPolicy`] and the built-in policies: an explicit
//!   [`VirtualTimeSchedule`], a production-style [`PeriodicInterval`], and
//!   [`EveryNCollectives`] driven by the ranks' published call counters.
//!   All virtual-time comparisons run in integer nanoseconds.
//! * [`coordinator::Coordinator`] — issues checkpoint requests through
//!   [`mana_core::CkptControl`], computes `TARGET[]` as the global max of
//!   snapshotted `SEQ[]` tables (Algorithm 1), supervises the drain to
//!   quiescence, captures a [`Checkpoint`], and resumes. Continue,
//!   in-process restart, and restore-from-image all funnel through the
//!   same resume machinery.
//! * [`image`] — the [`Checkpoint`] itself plus its wire format:
//!   [`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`] /
//!   [`Checkpoint::save_to`] / [`Checkpoint::load_from`], versioned and
//!   checksummed ([`image::ImageError`] enumerates the rejections).
//!   There is one codec, [`DeltaImage`]: a full image is a delta with no
//!   parent. Each rank's restart-stable state is a **content-addressed
//!   chunk**, stored once however many ranks share it; the head (member
//!   table, per-rank records with each chunk's address, cut) carries an
//!   FNV-1a checksum, and each chunk is verified by re-hashing it against
//!   its address. Chunks encode and hash **in parallel**
//!   ([`Checkpoint::to_bytes_parallel`] fans them out across worker
//!   threads), and the output is byte-for-byte identical to the serial
//!   encoder's.
//! * [`runner::run_ckpt_world`] — launches the ranks and supervises the
//!   policy, returning every captured image for oracle verification
//!   with [`mana_core::verify_safe_cut`] — over the image's
//!   [`mana_core::Cut`], the runs of sequence numbers every rank executed
//!   on every group, not over the run's full log (the report carries that
//!   too, as `events`). Its report also carries
//!   `capture_wall_s`: host wall seconds per committed capture bracket,
//!   which the coordinator runs **in parallel on the world's worker
//!   budget** ([`mpisim::Scheduler::workers`] scoped threads) while every
//!   rank is asleep at the quiesce.
//! * [`restore::restore_ckpt_world`] — rebuilds a world from an image
//!   (optionally re-packed via [`RestoreConfig`]), replays the program to
//!   the cut, cross-checks the replayed state against the image, and
//!   continues with the image authoritative.
//!   [`restore::try_restore_ckpt_world`] surfaces pre-flight rejections
//!   (a cut that fails the safe-cut oracle, a malformed image, a failed
//!   launch) as a typed [`RestoreError`] instead of panicking.
//!
//! ## Storage tiers and delta chains
//!
//! Where an image *goes* is the [`store`] subsystem's job. A
//! [`TieredStore`] multiplexes three [`CkptStore`] backends in the
//! SCR/FTI multi-level style — node-local **memory** (fastest, dies
//! with the node), **partner** (each node's shard mirrored to a buddy
//! node over the interconnect; survives any single node loss), and
//! **Lustre** (slowest, survives anything) — under one generation-
//! numbered namespace. Attach one to a run with
//! [`CkptOptions::with_tiering`]: a [`TierSchedule`] picks the tier per
//! committed checkpoint (fixed, or an SCR-style rotation like
//! memory/partner/memory/lustre), and the coordinator charges each
//! write's modeled cost from the matching `netmodel` tier model.
//!
//! Images on a tiered run can be **incremental**. Under a
//! [`DeltaPolicy`], a generation is written relative to its parent (the
//! same layout, kind byte [`IMAGE_KIND_DELTA`]): the per-rank volatile
//! records as always, but inline only the chunks the ancestor chain
//! lacks — the restart-stable state of ranks that *changed* since the
//! parent generation. Each delta records its parent's generation number
//! and header checksum; restore ([`TieredStore::load`]) walks the chain
//! leaf→root, decodes and authenticates every element alike, verifies
//! every link, gathers their inline chunks in a [`ChunkPool`], and
//! rebuilds the leaf against it — producing a checkpoint bit-identical to
//! a full image's. Broken chains fail typed: a missing ancestor is
//! [`ImageError::DanglingParent`], a forged link or truncated chunk is
//! [`ImageError::DeltaChain`].
//!
//! Tiered writes can also be **asynchronous**
//! ([`Tiering::with_async_drain`]): after the capture bracket clones
//! the world state out, ranks resume immediately while encode+write
//! retires on a background drain, encoding on the world's worker
//! budget. The app-visible stall shrinks to the clone-out — unless the
//! next trigger fires before the previous image lands, in which case
//! the wait is charged as back-pressure. [`CkptRunReport`] splits the
//! two: `capture_wall_s` keeps the blocking component, and
//! `store_records` carries per-generation tier/bytes/back-pressure
//! accounting plus the overlapped remainder
//! ([`StoreRecord::overlapped_wall_s`]).
//!
//! ## Execution model: one rank type, one launcher, two drivers
//!
//! The rank side of the protocols — the CC drain gate, the 2PC trivial
//! barrier, `MPI_Wait`/`MPI_Test`, communicator creation, the
//! quiesce/capture park — is written once, as the poll machines of
//! [`rank::step`]: each either completes or reports that it is pending
//! an event. Everything around that engine also exists once:
//!
//! * **One rank type.** Each [`CcRank`] operation that can wait has a
//!   `poll_*` form (idempotent-start: the first call builds the machine
//!   into the rank's in-flight slot, later calls resume it, `Ready`
//!   clears it) and a blocking form, which builds the same machine on
//!   the stack and blocks on it: poll, and while pending sleep on the
//!   rank's one event counter
//!   ([`mana_core::RankCtl::wait_event_since`]).
//! * **One body shape.** A rank body is a [`StepBody`]: `step` runs until
//!   the body finishes or an operation is pending, the way an async body
//!   lowers. A closure `Fn(&mut CcRank) -> R` is a step body that never
//!   yields, because its blocking calls sleep on the thread it owns — and
//!   [`CcRank::run`] is the blocking call that runs a whole step body to
//!   completion there, so a program exists once: the `workloads` crate
//!   writes each as a step body, and its closure-shaped entry point
//!   (`scf_loop`, `random_workload`, ...) is `rank.run(body)`.
//! * **One launcher.** `runner::step::run_session` builds every rank's
//!   continuation all-or-nothing, steps them while supervision (trigger
//!   policy, restore driving, fault campaign) runs on the calling
//!   thread, and assembles the report. The plain runners, restore and the
//!   availability supervisor are each one generic body over it.
//!
//! What comes in two is the **driver** that steps those objects, fixed
//! by the entry point — never by an option:
//!
//! * **the worker pool** ([`run_ckpt_world_steps`] and the other `*_steps`
//!   forms): [`mpisim::StepDriver`] resumes the objects on `~num_cpus`
//!   workers; a parked rank is a boxed object, not a stack. No per-rank
//!   OS thread exists, which is what carries 65 536-rank worlds. A body
//!   here must yield, not sleep: a blocking call that would have to wait
//!   panics rather than hold a worker.
//! * **a thread per object** ([`run_ckpt_world`] and the other closure
//!   forms): [`mpisim::Scheduler::run_threads`], the one place rank
//!   threads are spawned. The thread *is* the rank's continuation: a
//!   plain OS thread whose only sleep is its one event wait, with no
//!   admission bound — the host multiplexes the runnable ones. With
//!   128 KiB stacks that carries the paper's 512-rank worlds — and the
//!   beyond-paper 4096-rank tier — on one host. The scheduler outlives
//!   the lower half: restart builds the next [`mpisim::World`]
//!   generation onto the same scheduler and the sleeping threads wake
//!   into it.
//!
//! Under both drivers every wait is *event-driven*: a pending rank is
//! woken by mailbox deposits, collective completions, the update bus,
//! and coordinator phase transitions — all of which reach a sleeping
//! thread through that one event counter, whose token is read before the
//! poll so nothing in between can be lost — never by short timed polls (a
//! 200 µs re-check multiplied by 512 parked ranks would saturate the
//! host exactly during capture).
//!
//! **Driver independence.** The checkpoint semantics cannot see which
//! driver steps a rank: counter increments, drain-gate decisions, clock
//! charges and capture publications all happen in the machines, so the
//! virtual trajectory, the app-visible [`mana_core::CallCounters`], the
//! `SEQ[]` tables, and the captured images are bit-identical for the
//! same program and seed. `runner::step`'s unit tests and the
//! `drivers_agree_on_*` tests of `workloads` run one body under both;
//! `bench/tests/driver_equiv.rs` restores a cut captured under one driver
//! under the other ([`restore_ckpt_world_steps`] /
//! [`restore_ckpt_world`]), where the restore driver cross-checks the
//! replayed capture against the image field by field.
//!
//! ## Availability: faults, recovery, and the Daly cadence
//!
//! The [`avail`] module closes the failure loop the storage tiers exist
//! for. A [`FaultPlan`] is a deterministic, seeded campaign of deaths —
//! a single rank or a whole node's ranks, at an MTBF-sampled virtual
//! time ([`FaultPlan::sample`]) or at a protocol-sensitive moment
//! (mid-drain, during an asynchronous background drain). An injector
//! thread fires each event through [`Session::inject_failure`], which
//! poisons the scheduler's shared fail plane ([`mpisim::FailPlane`]) and
//! wakes every wait site — mailbox parks, sleeping threads' event
//! waits, the pool's poison retire — so the whole world
//! unwinds promptly with a typed [`mpisim::RankDeath`] instead of
//! tripping the drain watchdog as a spurious stall (dead ranks are
//! excluded from stall accounting outright).
//!
//! [`run_available_world`] / [`run_available_world_steps`] supervise a
//! workload across such deaths: each one selects the newest *viable*
//! generation from the [`TieredStore`] — skipping images whose modeled
//! landing post-dates the death (an async drain still in flight is
//! discarded, its back-pressure released) and falling back past tiers
//! lost with the node (memory dies with it; partner survives unless the
//! buddy pair is gone; Lustre survives anything) — restores it onto the
//! surviving topology through the ordinary repack-at-restore path,
//! re-arms the trigger policy, and repeats until the workload completes.
//! Final results are bit-identical to an undisturbed run; the report
//! accounts every fault's wasted work and recovery latency
//! ([`avail::FaultRecord`]).
//!
//! How often to checkpoint under a given failure rate is the classic
//! Young/Daly trade; [`policy::DalyInterval`] derives its cadence from
//! the configured MTBF and the *measured* write cost of the previous
//! generation (`sqrt(2·δ·MTBF)`, re-estimated every generation), and
//! [`CadenceSpec`] names the ladder the availability benchmark sweeps
//! (never / fixed-period / Daly).
//!
//! None of this touches virtual time, so the deterministic-replay
//! contract restore relies on is preserved: app-visible
//! [`mana_core::CallCounters`] and `SEQ[]` equality still locate a
//! captured cut regardless of the worker bound, and `BENCH_*.json`
//! shapes are reproducible across hosts. One knob does scale with the
//! model: the drain-stall watchdog window defaults to
//! [`coordinator::auto_stall_timeout`] (grows with the world size,
//! since wall progress per rank thins out linearly once ranks outnumber
//! workers); [`CkptOptions::with_stall_timeout`] pins it.

pub mod avail;
pub mod bus;
pub mod coordinator;
pub mod image;
pub mod policy;
pub mod rank;
pub mod restore;
pub mod runner;
pub mod session;
pub mod store;
pub mod wire;

pub use avail::{
    run_available_world, run_available_world_steps, AvailabilityOptions, CadenceSpec, FaultEvent,
    FaultPlan, FaultRecord, FaultTrigger,
};
pub use bus::{TargetUpdate, UpdateBus};
pub use coordinator::{
    auto_stall_timeout, Coordinator, DrainError, ResumeMode, StorageSpec, DEFAULT_STALL_TIMEOUT,
    MAX_AUTO_STALL,
};
pub use image::{
    CaptureOrigin, Checkpoint, DrainedMsg, ImageError, IMAGE_HEADER_LEN, IMAGE_KIND_DELTA,
    IMAGE_KIND_FULL, IMAGE_MAGIC, IMAGE_VERSION,
};
pub use mpisim::{FaultScope, RankDeath, SpawnError};
pub use policy::{
    young_daly_interval_s, DalyInterval, DeltaPolicy, EveryNCollectives, NeverTrigger,
    PeriodicInterval, TierSchedule, TriggerObservation, TriggerPolicy, VirtualTimeSchedule,
};
pub use rank::step::{StepPoll, StepRank};
pub use rank::CcRank;
pub use restore::{
    restore_ckpt_world, restore_ckpt_world_steps, try_restore_ckpt_world,
    try_restore_ckpt_world_steps, RestoreConfig, RestoreError,
};
pub use runner::step::{BodyStep, StepBody};
pub use runner::{
    run_ckpt_world, run_ckpt_world_steps, try_run_ckpt_world, try_run_ckpt_world_steps,
    CkptOptions, CkptRunReport,
};
pub use session::Session;
pub use store::{
    ChunkPool, ChunkRef, CkptStore, CkptTier, DeltaImage, ImageSetLayout, ParentRef, SaveReceipt,
    StoreError, StoreRecord, TierModels, TieredStore, Tiering,
};
