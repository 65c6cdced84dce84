//! # ckpt — checkpoint/restore orchestration around first-class images
//!
//! The unit of this crate is the **checkpoint image** ([`Checkpoint`]): a
//! serializable, integrity-checked artifact capturing a consistent cut of
//! an MPI-like execution — sequence tables, communicator logs, pending
//! receives and trivial barriers, drained in-flight messages and call
//! counters; the sequence tables are also the cut the safe-cut oracle
//! judges. Capture
//! and restore are decoupled: *when* to capture is a pluggable
//! [`TriggerPolicy`]; *what to do with the image* is the caller's choice —
//! keep running, restart in-process, or serialize the image and restore it
//! later, elsewhere, onto a differently-packed set of nodes.
//!
//! ## Quickstart: capture, save to disk, restore elsewhere
//!
//! ```no_run
//! use ckpt::wire::{Dec, DecodeError, Wr};
//! use ckpt::{
//!     restore_ckpt_world_steps, run_ckpt_world_steps, BodyStep, CcRank, Checkpoint,
//!     CkptOptions, RestoreConfig, ResumeMode, StepBody, StepPoll,
//! };
//! use mpisim::{ReduceOp, VTime, WorldConfig};
//!
//! /// The program: `iters` allreduces, as a resumable body whose state
//! /// (`it`, `acc`) is all there is to save.
//! struct Sum {
//!     iters: usize,
//!     it: usize,
//!     acc: f64,
//! }
//!
//! impl StepBody for Sum {
//!     type Out = f64;
//!
//!     fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
//!         let w = r.world_vcomm();
//!         while self.it < self.iters {
//!             let mine = [r.rank() as f64 + self.acc];
//!             match r.poll_allreduce_f64(w, &mine, ReduceOp::Sum) {
//!                 StepPoll::Pending(why) => return BodyStep::Yield(why),
//!                 StepPoll::Ready(v) => (self.acc, self.it) = (v[0] * 1e-3, self.it + 1),
//!             }
//!         }
//!         BodyStep::Done(self.acc)
//!     }
//!
//!     fn save(&self, w: &mut dyn Wr) -> bool {
//!         w.usize(self.it);
//!         w.f64(self.acc);
//!         true
//!     }
//!
//!     fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
//!         self.it = d.usize("iteration")?;
//!         self.acc = d.f64("accumulator")?;
//!         Ok(())
//!     }
//! }
//!
//! let cfg = WorldConfig::multi_node(8, 4); // 8 ranks, 4 per node
//! let program = |_rank| Sum { iters: 50, it: 0, acc: 0.0 };
//!
//! // Capture mid-run and keep going; the image lands in the report.
//! let opts = CkptOptions::one_checkpoint(VTime::from_micros(5.0), ResumeMode::Continue);
//! let run = run_ckpt_world_steps(cfg, opts, program);
//!
//! // The image is a first-class artifact: bytes on disk, with a versioned
//! // header and checksum. A flipped bit is rejected at load time.
//! run.checkpoints[0].save_to("job.ckpt").unwrap();
//!
//! // Later / elsewhere: load it back and restore onto a different node
//! // packing (8 ranks spread 1-per-node). Each body comes back from its
//! // snapshot and resumes where it was captured; results are
//! // bit-identical to an in-process restart, only the modeled timing
//! // changes.
//! let image = Checkpoint::load_from("job.ckpt").unwrap();
//! let restored = restore_ckpt_world_steps(
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
//!   they survive restart. Restored from an image, it installs the
//!   captured state and resumes inside the operation it was captured in.
//!   The protocol's control flow
//!   is the poll engine of [`rank::step`]; every operation that can wait
//!   is one idempotent-start `poll_*` method over it, `MPI_Test` included.
//! * [`policy`] — [`TriggerPolicy`] and the built-in policies: an explicit
//!   [`VirtualTimeSchedule`], a production-style [`PeriodicInterval`],
//!   the Young/Daly [`DalyInterval`], and [`EveryNCollectives`] driven by
//!   the ranks' published call counters, each naming its next
//!   [`Threshold`]. All virtual-time comparisons run in integer
//!   nanoseconds.
//! * [`coordinator::Coordinator`] — serves the requests ranks raise
//!   through [`mana_core::CkptControl`], computes `TARGET[]` as the global max of
//!   snapshotted `SEQ[]` tables (Algorithm 1), supervises the drain to
//!   quiescence, captures a [`Checkpoint`], and resumes. Continue puts
//!   the drained messages back on the same lower half; an in-process
//!   restart and a restore from the image both go through one rank-side
//!   installer, each rank installing its capture into the next lower half.
//! * [`image`] — the [`Checkpoint`] itself plus its wire format:
//!   [`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`] /
//!   [`Checkpoint::save_to`] / [`Checkpoint::load_from`], versioned and
//!   checksummed ([`image::ImageError`] enumerates the rejections).
//!   There is one codec, [`DeltaImage`]: a full image is a delta with no
//!   parent. Each rank's restart-stable state is a **content-addressed
//!   chunk**, stored once however many ranks share it; the head (member
//!   table, per-rank records with each chunk's address) carries an
//!   FNV-1a checksum, and each chunk is verified by re-hashing it against
//!   its address. Each chunk is encoded once, straight into one buffer per
//!   encode, **in parallel** if asked ([`Checkpoint::to_bytes_parallel`]
//!   splices worker buffers in rank order), byte-for-byte the serial
//!   encoder's output.
//! * [`runner::run_ckpt_world`] — launches the ranks and supervises the
//!   policy, returning every captured image for oracle verification
//!   with [`mana_core::verify_safe_cut`] — over the image's
//!   [`Checkpoint::cut`], the run `1..=SEQ[g]` every rank's table states
//!   for every group. No run keeps a log of its calls: the suites check
//!   a cut against their own witness of what ran (`workloads::Logged`,
//!   which reads the lower half's counts). Its report also carries
//!   `capture_wall_s`: host wall seconds per committed capture bracket,
//!   which the coordinator runs **in parallel on the world's worker
//!   budget** ([`mpisim::Scheduler::workers`] scoped threads) while every
//!   rank is asleep at the quiesce.
//! * [`restore::restore_ckpt_world_steps`] — rebuilds a world from an
//!   image (optionally re-packed via [`RestoreConfig`]) without
//!   re-executing anything: each rank's body loads its snapshot from the
//!   image's upper half ([`StepBody::save`]), the wrapper installs the
//!   captured state, the read-back from the store generation the image
//!   came from is charged ([`RestoreConfig::with_storage`]), and only the
//!   run's suffix executes.
//!   [`restore::try_restore_ckpt_world_steps`] surfaces the refusals (a cut
//!   that fails the safe-cut oracle, a malformed image, an image with no
//!   upper half — a closure body's —, a body that refuses its snapshot, a
//!   read source whose store lacks the generation, a failed launch) as a
//!   typed [`RestoreError`] before any rank runs.
//!
//! ## Storage tiers and delta chains
//!
//! Where an image *goes* is the [`store`] subsystem's job. A
//! [`TieredStore`] is one generation-numbered table in the SCR/FTI
//! multi-level style: each entry names its tier — node-local **memory**
//! (fastest, dies with the node), **partner** (each node's shard mirrored
//! to buddy node `(d+1) % nodes` over the interconnect; survives any
//! single node loss), or **Lustre** (slowest, survives anything) — and
//! one survival rule over one dropped-node set decides what a node loss
//! ([`TieredStore::drop_node`]) takes; a lost generation names its lowest
//! lost node ([`StoreError::NodeLost`]). Attach one to a run with
//! [`CkptOptions::with_tiering`]: a [`TierSchedule`] picks the tier per
//! committed checkpoint (fixed, or an SCR-style rotation like
//! memory/partner/memory/lustre), and the coordinator plans each write as
//! the [`StoreRecord`] it reports, charging its modeled cost from
//! [`TierModels::write_secs`] — the one cost path, which reads charge
//! through [`TierModels::read_secs`].
//!
//! The store is the **one image-I/O cost model**. A flat parallel-
//! filesystem charge is `Tiering::fixed(CkptTier::Lustre)` over a
//! `TieredStore::new(TierModels { image_bytes_per_rank, .. })`, the
//! per-rank size standing for the application's memory image. Every
//! read-back — a restore's ([`RestoreConfig::with_storage`]: the store and
//! the generation the image came from) and a recovery's alike — is
//! charged by one rule, [`TieredStore::read_secs`] on the restored
//! packing.
//!
//! Images on a tiered run can be **incremental**. Under a
//! [`DeltaPolicy`], a generation is written relative to its parent (the
//! same layout, kind byte [`IMAGE_KIND_DELTA`]): the per-rank volatile
//! records as always, but inline only the chunks the ancestor chain
//! lacks — the restart-stable state of ranks that *changed* since the
//! parent generation. Each delta records its parent's generation number
//! and header checksum; restore ([`TieredStore::load`]) walks the chain
//! leaf→root, decodes and authenticates every element alike, verifies
//! every link, and rebuilds the leaf reading each chunk where it lies in
//! its element's stored bytes — producing a checkpoint bit-identical to a
//! full image's. Broken chains fail typed: a missing ancestor is
//! [`ImageError::DanglingParent`], a forged link or truncated chunk is
//! [`ImageError::DeltaChain`]. Evicting a generation
//! ([`TieredStore::evict`]) dangles its stored descendants, but never a
//! later save: one inside the newest generation's chain makes the next
//! save a full image.
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
//! * **One rank type, one face.** Each [`CcRank`] operation that can
//!   wait is a `poll_*` method (idempotent-start: the first call builds
//!   the machine into the rank's in-flight slot, later calls resume it,
//!   `Ready` clears it); `isend`, `irecv` and `compute` never wait.
//! * **One body shape.** A rank body is a [`StepBody`]: `step` runs until
//!   the body finishes or an operation is pending, the way an async body
//!   lowers. A closure `Fn(&mut CcRank) -> R` on a thread of its own
//!   blocks only through [`CcRank::run`], which steps a whole step body
//!   to completion there, sleeping while it waits for an event on the
//!   rank's one event counter ([`mana_core::RankCtl::wait_event_since`]).
//!   So a program exists once: the `workloads` crate writes each as a
//!   step body, and its closure-shaped entry point (`scf_loop`,
//!   `random_workload`, ...) is `rank.run(body)`.
//! * **One launcher, one run loop.** `runner::step::run_session` builds
//!   every rank's continuation all-or-nothing, steps them while
//!   supervision (restore driving, then the trigger policy) runs on the
//!   calling thread, and assembles the report. Its one caller is the
//!   supervised run loop, `avail::run_campaign`: a plain run is a
//!   campaign with [`FaultPlan::none`], a restore is a campaign whose
//!   first attempt starts from the image, and a fault campaign adds one
//!   attempt per death. [`CkptOptions`] is the one option type of all
//!   three.
//!
//! What comes in two is the **driver** that steps those objects, fixed
//! by the entry point — never by an option:
//!
//! * **the worker pool** ([`run_ckpt_world_steps`] and the other `*_steps`
//!   forms): [`mpisim::StepDriver`] resumes the objects on `~num_cpus`
//!   workers; a parked rank is a boxed object, not a stack. No per-rank
//!   OS thread exists, which is what carries 65 536-rank worlds. A body
//!   here must yield, not sleep: a `CcRank::run` that would have to wait
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
//! Every wait is *event-driven*, never a timed poll: a pending rank is
//! woken through its one event counter (mailbox deposits, collective
//! completions, target installs and raises, phase changes; token read
//! before the poll), and the trigger supervisor, the coordinator and a
//! restore sleep on the control plane's observer counter, which ranks bump
//! after publishing what those waits read ([`mana_core::control`]). Nothing
//! waits *for* the supervisor: the rank whose crossing completes an armed
//! threshold raises the request inside its wrapper call, and every rank
//! stops at its next collective until the targets are installed — so no
//! run, however fast, outruns its trigger.
//!
//! **Driver independence.** The checkpoint semantics cannot see which
//! driver steps a rank: counter increments, drain-gate decisions, clock
//! charges and capture publications all happen in the machines, so the
//! virtual trajectory, the app-visible [`mana_core::CallCounters`], the
//! `SEQ[]` tables, and the captured images are bit-identical for the
//! same program and seed. `runner::step`'s unit tests run one body under
//! both, compare the images whole, and restore each driver's image under
//! the other; the `drivers_agree_on_*` tests of `workloads` and
//! `bench/tests/driver_equiv.rs` run each program under both.
//!
//! ## Availability: faults, recovery, and the Daly cadence
//!
//! The [`avail`] module closes the failure loop the storage tiers exist
//! for. A [`FaultPlan`] is a deterministic, seeded campaign of deaths —
//! a single rank or a whole node's ranks, at an MTBF-sampled virtual
//! time ([`FaultPlan::sample`]) or at a protocol-sensitive moment
//! (mid-drain, during an asynchronous background drain). Each attempt
//! arms its event before any rank runs; the rank whose progress completes
//! its time strikes it (or the supervisor's waits, for a drain-phase
//! event) through [`Session::inject_failure`], which
//! poisons the scheduler's shared fail plane ([`mpisim::FailPlane`]) and
//! wakes every wait site — mailbox parks, sleeping threads' event
//! waits, the pool's poison retire, the observer counter — so the whole
//! world unwinds promptly with a typed [`mpisim::RankDeath`], never a
//! spurious stall (dead ranks are excluded from the stall rule outright).
//!
//! [`run_available_world`] / [`run_available_world_steps`] take the same
//! [`CkptOptions`] as a plain run plus the plan, and supervise a
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
//! generation (`sqrt(2·δ·MTBF)`, re-estimated every generation). A
//! campaign takes its cadence like any run, through
//! [`CkptOptions::with_policy`] ([`NeverTrigger`], [`PeriodicInterval`],
//! [`DalyInterval`]), and keeps one policy instance across its attempts.
//!
//! None of this touches virtual time, so `BENCH_*.json` shapes are
//! reproducible across hosts.
//!
//! A CC drain is stalled ([`DrainError::P2pStall`], the request withdrawn)
//! exactly when `TARGET[]` is unmet and no live rank can run: each sleeps
//! in the engine with no wake since its poll, or holds on a failed
//! `MPI_Test` only another rank can satisfy. No clock is read, so a body
//! sleeping through a drain commits and a test loop that cannot succeed is
//! caught at once; the one misread shape (a failed test, local work, then
//! a call no other rank triggers, while all others sleep) costs the
//! checkpoint, never a result. The rule: [`mana_core::control`].

pub mod avail;
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
    run_available_world, run_available_world_steps, FaultEvent, FaultPlan, FaultRecord,
    FaultTrigger,
};
pub use coordinator::{Coordinator, DrainError, ResumeMode};
pub use image::{
    CaptureOrigin, Checkpoint, DrainedMsg, ImageError, IMAGE_HEADER_LEN, IMAGE_KIND_DELTA,
    IMAGE_KIND_FULL, IMAGE_MAGIC, IMAGE_VERSION,
};
pub use mpisim::{FaultScope, RankDeath, SpawnError};
pub use policy::{
    young_daly_interval_s, DalyInterval, DeltaPolicy, EveryNCollectives, NeverTrigger,
    PeriodicInterval, Threshold, TierSchedule, TriggerPolicy, VirtualTimeSchedule,
};
pub use rank::step::{StepPoll, StepRank};
pub use rank::CcRank;
pub use restore::{
    restore_ckpt_world_steps, try_restore_ckpt_world_steps, RestoreConfig, RestoreError,
};
pub use runner::step::{BodyStep, StepBody};
pub use runner::{
    run_ckpt_world, run_ckpt_world_steps, try_run_ckpt_world, try_run_ckpt_world_steps,
    CkptOptions, CkptRunReport,
};
pub use session::Session;
pub use store::{
    ChunkPool, ChunkRef, CkptTier, DeltaImage, ImageSetLayout, ParentRef, SaveReceipt, StoreError,
    StoreRecord, TierModels, TieredStore, Tiering,
};
