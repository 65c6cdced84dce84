//! The checkpoint coordinator: issues the request, computes and installs
//! targets (Algorithm 1), supervises the drain to quiescence, captures the
//! image, and resumes ranks — either on the same lower half (*continue*)
//! or into a freshly built one (*restart*).
//!
//! Two coordination protocols are supported end-to-end:
//!
//! * **CC** (the paper): Algorithm 1 targets, the Figure 3b drain cascade,
//!   and the §4.3.2 completion drain of non-blocking collectives.
//! * **2PC** (MANA 2019's baseline, §2.2): no targets — a stop-the-world
//!   cut where every rank parks at its next interposition point, with
//!   in-progress trivial barriers captured (not drained) and re-issued at
//!   restart.
//!
//! The drain is supervised by a no-progress watchdog: a point-to-point
//! dependency the collective DAG cannot see (a blocking receive fed by a
//! send gated behind a beyond-target collective) deadlocks the drain, and
//! the coordinator returns a typed [`DrainError::P2pStall`] instead of
//! hanging — the request is withdrawn and the application continues.

use crate::image::{stable_state_eq, CaptureOrigin, Checkpoint, DrainedMsg};
use crate::session::Session;
use crate::store::{CkptTier, ImageSetLayout, StoreRecord, TieredStore, Tiering};
use mana_core::{CkptPhase, DrainEvent, Ggid, Protocol, RankCtl, RankState, RuntimeCapture};
use mpisim::msg::InFlightMsg;
use mpisim::types::CommId;
use mpisim::{RankDeath, SavedMsg, VTime, World, WorldConfig};
use netmodel::LustreModel;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the coordinator sleeps between supervision polls (wall-clock).
const POLL: Duration = Duration::from_micros(100);

/// Default no-progress window before the drain watchdog declares a stall.
///
/// The watchdog is **wall-clock** based: it watches for any change in
/// rank clocks, states, sequence tables, or update traffic. A workload
/// that wall-sleeps (or a rank thread starved by the host scheduler) for
/// longer than the window while a checkpoint is draining is
/// indistinguishable from a genuine p2p deadlock and will be aborted as
/// one — keep the window comfortably above any deliberate pauses.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Ceiling on the world-size-scaled stall window. The watchdog fires on
/// *no observable progress at all* — any rank's clock, state, sequence
/// table, or update counter changing resets it — and even a 4096-rank
/// drain multiplexed onto two workers changes *something* every few
/// scheduling quanta while healthy. Extrapolating the per-round slope all
/// the way up (a 2048:2 ratio would ask for minutes) buys no safety but
/// turns a genuine rendezvous regression into a hung CI job; the cap
/// keeps "wedged" detectable within a bounded budget at every scale.
pub const MAX_AUTO_STALL: Duration = Duration::from_secs(60);

/// The world-size-scaled stall window used when [`crate::CkptOptions`]
/// does not pin one. Under the batched cooperative scheduler a drain's
/// total work grows with the rank count while only `workers` ranks run
/// at once, so per-rank wall progress thins out by the multiplexing
/// ratio `n_ranks / workers`; the window grows by that many scheduling
/// rounds — capped at [`MAX_AUTO_STALL`] — so a healthy 512-rank drain
/// on a small host is never misread as a p2p stall, a wide host keeps a
/// tight watchdog, and a wedged 4096-rank drain still fails fast instead
/// of hanging its CI job.
pub fn auto_stall_timeout(n_ranks: usize, workers: usize) -> Duration {
    let rounds = n_ranks.div_ceil(workers.max(1)) as u64;
    (DEFAULT_STALL_TIMEOUT + Duration::from_millis(rounds * 80)).min(MAX_AUTO_STALL)
}

/// What happens after the image is captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeMode {
    /// Ranks continue on the same lower half; drained messages are
    /// re-deposited with their original timing.
    Continue,
    /// The lower half is discarded and rebuilt: ranks attach a fresh
    /// world, replay their communicator logs, re-post pending receives
    /// (and pending trivial barriers), and drained messages are
    /// re-deposited into the new generation.
    Restart,
}

/// Storage model applied to checkpoint images: capture charges a parallel
/// write of every rank's image, restart additionally charges the read-back.
#[derive(Debug, Clone)]
pub struct StorageSpec {
    /// The parallel-filesystem timing model.
    pub model: LustreModel,
    /// Upper-half image size per rank (application memory dump), on top of
    /// the dynamic runtime state actually captured.
    pub image_bytes_per_rank: u64,
}

impl Default for StorageSpec {
    /// Perlmutter scratch with the paper's 398 MB per-rank VASP image.
    fn default() -> Self {
        StorageSpec {
            model: LustreModel::perlmutter_scratch(),
            image_bytes_per_rank: 398 * 1024 * 1024,
        }
    }
}

/// Why a checkpoint attempt was aborted instead of committed.
#[derive(Debug, Clone, PartialEq)]
pub enum DrainError {
    /// The drain made no observable progress for the watchdog window: some
    /// below-target rank is blocked on a point-to-point dependency (e.g. a
    /// receive whose matching send sits behind a beyond-target collective
    /// on a parked rank). The request was withdrawn and the application
    /// resumed; `stalled` lists the ranks still short of their targets.
    P2pStall {
        /// Ranks that had not met their targets when the stall was declared.
        stalled: Vec<usize>,
    },
    /// The p2p drain-accounting identity failed at capture: the per-rank
    /// send/delivery counts recorded in the captures do not balance
    /// against the drained in-flight messages and coordinator
    /// re-deposits, i.e. the quiesced state silently lost or duplicated a
    /// message (the failure class MANA's 2PC guards against with
    /// send/receive counts). The capture was refused and the application
    /// resumed on its current lower half.
    P2pAccounting {
        /// Σ per-rank messages deposited this generation.
        sent: u64,
        /// Σ per-rank messages delivered this generation.
        delivered: u64,
        /// Messages the coordinator injected from outside rank sends.
        redeposited: u64,
        /// Messages checkpoint drains removed (including this capture's).
        drained: u64,
    },
    /// An injected fault killed one or more ranks while the checkpoint was
    /// in flight. The world is poisoned — every rank is unwinding — so the
    /// attempt is abandoned rather than withdrawn; the availability
    /// supervisor owns what happens next.
    RankDeath(RankDeath),
}

impl std::fmt::Display for DrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrainError::P2pStall { stalled } => {
                write!(
                    f,
                    "checkpoint drain stalled on ranks {stalled:?} (p2p dependency)"
                )
            }
            DrainError::P2pAccounting {
                sent,
                delivered,
                redeposited,
                drained,
            } => {
                write!(
                    f,
                    "p2p drain accounting failed at capture: sent {sent} + redeposited \
                     {redeposited} != delivered {delivered} + drained {drained} \
                     (a message was lost or duplicated across the cut)"
                )
            }
            DrainError::RankDeath(d) => {
                write!(f, "checkpoint abandoned: {d}")
            }
        }
    }
}

impl std::error::Error for DrainError {}

/// Drives checkpoints over a running [`Session`].
pub struct Coordinator {
    sh: Arc<Session>,
    storage: Option<StorageSpec>,
    tiering: Option<Tiering>,
    stall_timeout: Duration,
    /// Wall-clock seconds of each committed capture bracket (capture-phase
    /// entry through in-flight drain and accounting), in commit order.
    capture_walls: Mutex<Vec<f64>>,
    /// Virtual second the in-progress (or last) background drain lands:
    /// the back-pressure clock. A trigger firing before this point charges
    /// the remainder to every rank.
    drain_busy_until: Mutex<f64>,
    /// The in-flight background drain, if any. The next capture bracket
    /// (and [`Coordinator::flush_drains`]) joins it.
    pending_drain: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Per-committed-checkpoint storage accounting of a tiered run, in
    /// commit order; shared with the background drain threads, which fill
    /// the serialized-bytes/overlap fields when their image lands.
    store_records: Arc<Mutex<Vec<StoreRecord>>>,
}

impl Coordinator {
    /// Builds a coordinator with no storage model and the default watchdog.
    pub fn new(sh: Arc<Session>) -> Self {
        Coordinator {
            sh,
            storage: None,
            tiering: None,
            stall_timeout: DEFAULT_STALL_TIMEOUT,
            capture_walls: Mutex::new(Vec::new()),
            drain_busy_until: Mutex::new(0.0),
            pending_drain: Mutex::new(None),
            store_records: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Wall-clock seconds each committed checkpoint spent in the capture
    /// bracket (per-rank state cloned off the borrowed worker pool plus the
    /// in-flight drain), in commit order. Host wall time, not virtual time —
    /// the benchmark's `capture_wall_s` column.
    pub fn capture_wall_history(&self) -> Vec<f64> {
        self.capture_walls.lock().clone()
    }

    /// Per-committed-checkpoint storage records of a tiered run (empty
    /// otherwise), in commit order. Call [`Coordinator::flush_drains`]
    /// first — a still-running background drain has not filled its
    /// record's serialized-bytes and overlap fields yet.
    pub fn store_record_history(&self) -> Vec<StoreRecord> {
        self.store_records.lock().clone()
    }

    /// Joins the in-flight background drain, if any. Supervision calls
    /// this before reading histories; the run must not end with an image
    /// still in flight.
    pub fn flush_drains(&self) {
        self.join_pending_drain();
    }

    fn join_pending_drain(&self) {
        let handle = self.pending_drain.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Attaches a storage model: image I/O is charged to the ranks'
    /// virtual clocks at resume.
    pub fn with_storage(mut self, storage: Option<StorageSpec>) -> Self {
        self.storage = storage;
        self
    }

    /// Attaches tiered storage: every committed checkpoint is serialized
    /// into the [`TieredStore`] per its schedule and delta policy, and the
    /// modeled tier cost (or just the back-pressure, under the async
    /// drain) is charged to the virtual clocks. Takes precedence over
    /// [`Coordinator::with_storage`].
    pub fn with_tiering(mut self, tiering: Option<Tiering>) -> Self {
        self.tiering = tiering;
        self
    }

    /// Overrides the drain watchdog window.
    pub fn with_stall_timeout(mut self, t: Duration) -> Self {
        self.stall_timeout = t;
        self
    }

    /// Runs one full checkpoint: request → target computation → drain →
    /// quiesce → capture → resume (per `mode`). Returns the captured image,
    /// or a typed error if the drain stalled (in which case the request has
    /// been withdrawn and the application keeps running).
    pub fn checkpoint(&self, mode: ResumeMode) -> Result<Checkpoint, DrainError> {
        let sh = &self.sh;
        let control = &sh.control;
        assert!(
            sh.protocol.supports_checkpoint(),
            "protocol {} cannot checkpoint",
            sh.protocol.name()
        );
        let request_clock = VTime::from_secs(control.min_clock_secs());
        // A rank descheduled mid-drain when a previous attempt was aborted
        // can deliver its raise arbitrarily late — even after the abort's
        // teardown. No legitimate update can exist before this request's
        // targets are installed, so wipe the update state here rather than
        // trusting the abort path to have won that race.
        for rc in &control.ranks {
            rc.updates_sent.store(0, SeqCst);
            rc.updates_recv.store(0, SeqCst);
        }
        sh.bus.clear_all();
        sh.trace.push(DrainEvent::Requested);
        control.request_checkpoint();

        let two_phase = sh.protocol == Protocol::TwoPhase;
        let (initial, final_targets) = if two_phase {
            // 2PC stop-the-world cut: no Algorithm 1 targets. Every rank
            // parks at its next interposition point — outside MPI, in a
            // cooperative receive wait, or inside a trivial barrier that
            // cannot complete.
            control.set_phase(CkptPhase::Quiescing);
            (HashMap::new(), HashMap::new())
        } else {
            let initial = control.compute_and_install_targets();
            // Group membership for the drain-completion check, from the
            // same snapshot the targets came from.
            let mut members_of: HashMap<Ggid, Arc<[usize]>> = HashMap::new();
            for rc in &control.ranks {
                let t = rc.seq_mirror.lock();
                for (g, e) in t.iter() {
                    members_of
                        .entry(*g)
                        .or_insert_with(|| Arc::clone(&e.members));
                }
            }

            // Supervise the drain: every member of every targeted group
            // must reach the (possibly raised) target, all update messages
            // must be delivered and applied, and no rank may sit inside a
            // collective. A no-progress watchdog turns a p2p-induced
            // deadlock into a typed error instead of a hang.
            let mut watch = StallWatch::new(self.stall_timeout, self.progress_fingerprint());
            let finals = loop {
                // Death check before the watchdog: a killed world stops
                // making progress by design and must surface as the typed
                // death, never as a spurious `P2pStall`.
                if let Some(e) = self.death_abort() {
                    return Err(e);
                }
                let mut finals = initial.clone();
                let mut mems = members_of.clone();
                for (g, (t, m)) in sh.bus.raises() {
                    let e = finals.entry(g).or_insert(0);
                    *e = (*e).max(t);
                    mems.entry(g).or_insert(m);
                }
                if self.drain_complete(&finals, &mems) {
                    break finals;
                }
                if watch.stalled(self.progress_fingerprint()) {
                    return Err(self.abort_stalled_drain());
                }
                std::thread::sleep(POLL);
            };
            control.set_phase(CkptPhase::Quiescing);
            (initial, finals)
        };

        // Quiesce: every rank parks at its current interposition point and
        // publishes its capture.
        while !control.all_quiesced() {
            if let Some(e) = self.death_abort() {
                return Err(e);
            }
            std::thread::sleep(POLL);
        }
        // A killed rank unwinds instead of parking, and its thread's
        // teardown may leave it looking Finished — letting the loop above
        // exit with no capture published. Re-check before touching the
        // capture slots.
        if let Some(e) = self.death_abort() {
            return Err(e);
        }
        control.set_phase(CkptPhase::Capturing);
        let capture_t0 = Instant::now();

        let world = sh.current_world();
        let tb_parked = control
            .ranks
            .iter()
            .filter(|r| r.state() == RankState::InTrivialBarrier)
            .count();
        if two_phase {
            // Under 2PC the only in-flight collectives at capture are
            // trivial barriers that cannot complete; they are captured as
            // `pending_barrier`, never drained.
            assert!(
                world.live_collectives() <= tb_parked,
                "a real collective was in flight at a 2PC capture"
            );
        } else {
            assert_eq!(
                world.live_collectives(),
                0,
                "collective invariant (§2.2) violated at capture"
            );
        }
        // Every rank is parked slotless at this point, so the scheduler's
        // whole run-slot pool is idle: borrow it and clone the published
        // captures in parallel instead of walking 4096 slots on one core.
        let captures: Vec<RuntimeCapture> = world
            .scheduler()
            .borrow_workers(|k| parallel_capture(k, &control.ranks));

        // Drain in-flight point-to-point messages, translating lower-half
        // communicator ids into the destination's virtual ids. A quiesce
        // may have re-deposited an unmatched message at its queue's tail,
        // so each (src → dst) channel is re-ordered by sequence number —
        // but only within the queue positions that channel already
        // occupies: cross-sender deposit order is what wildcard
        // (`ANY_SOURCE`) matching observes, and must survive the
        // checkpoint unchanged.
        let mut in_flight: Vec<DrainedMsg> = Vec::new();
        for (dst, cap) in captures.iter().enumerate() {
            let reverse: HashMap<CommId, u64> =
                cap.vcomm_to_lower.iter().map(|(v, c)| (*c, *v)).collect();
            let mut queue: Vec<DrainedMsg> = Vec::new();
            for m in world.take_unexpected(dst) {
                let vcomm = *reverse.get(&m.comm).unwrap_or_else(|| {
                    panic!(
                        "in-flight message on a comm unknown to rank {dst}: {:?}",
                        m.comm
                    )
                });
                queue.push(DrainedMsg {
                    arrival: m.arrival,
                    saved: SavedMsg {
                        src_world: m.src_world,
                        dst_world: m.dst_world,
                        vcomm,
                        tag: m.tag,
                        payload: m.payload,
                        seq: m.seq,
                    },
                });
            }
            let mut by_src: HashMap<usize, Vec<usize>> = HashMap::new();
            for (i, d) in queue.iter().enumerate() {
                by_src.entry(d.saved.src_world).or_default().push(i);
            }
            for positions in by_src.values() {
                let mut msgs: Vec<DrainedMsg> =
                    positions.iter().map(|&i| queue[i].clone()).collect();
                msgs.sort_by_key(|d| d.saved.seq);
                for (&i, m) in positions.iter().zip(msgs) {
                    queue[i] = m;
                }
            }
            in_flight.extend(queue);
        }

        // Drain-completeness cross-check (the first step of MANA-style 2PC
        // send/receive-count draining): every message any rank deposited
        // this generation must now be accounted for as delivered or as
        // part of a drain. A quiesce that dropped a matched-but-
        // uncompleted receive, or a restart that double-deposited, shows
        // up here as a typed error instead of a silently-wrong image.
        let (redeposited, drained) = world.p2p_accounting();
        let sent: u64 = captures.iter().map(|c| c.p2p_sent).sum();
        let delivered: u64 = captures.iter().map(|c| c.p2p_delivered).sum();
        if let Err(e) = p2p_accounting_check(sent, delivered, redeposited, drained) {
            // Refuse the capture but leave the application runnable: the
            // drained messages go back where they were and the ranks
            // resume on the current lower half.
            for d in &in_flight {
                let comm = captures[d.saved.dst_world].vcomm_to_lower[&d.saved.vcomm];
                world.deposit_raw(self.rebuild_msg(&d.saved, comm), d.arrival);
            }
            sh.trace.push(DrainEvent::Aborted);
            self.release_quiesced_ranks();
            return Err(e);
        }

        let cut_events = sh.exec_log.cut();
        let mut achieved: HashMap<Ggid, u64> = HashMap::new();
        for c in &captures {
            for (g, e) in c.seq_table.iter() {
                let a = achieved.entry(*g).or_insert(0);
                *a = (*a).max(e.seq);
            }
        }

        // The state-clone half of the bracket ends here. What follows —
        // storage planning, the hand-off to the drain (including any wait
        // for the *previous* background drain), and for synchronous drains
        // the encode+write itself — stays inside the blocking bracket; the
        // wall clock stops only once the drain is handed off.

        // Storage: a checkpoint writes every live rank's image in parallel;
        // a restart reads them back. The modeled cost lands on the virtual
        // clocks at resume. A tiered store plans per generation (tier,
        // full-vs-delta, sync-vs-background); the legacy StorageSpec path
        // charges the flat Lustre pipeline.
        let (io_write_secs, io_read_secs, charge_secs, tier_plan) = match &self.tiering {
            Some(t) => {
                // Back-pressure rule, wall side: if the previous image has
                // not landed when this trigger fires, the world waits for
                // it here, inside the blocking bracket.
                self.join_pending_drain();
                let plan = self.plan_tier_write(t, mode, &in_flight, &captures);
                let r = plan.modeled_read_s;
                (
                    plan.modeled_write_s,
                    r,
                    if plan.sync {
                        plan.modeled_write_s + r
                    } else {
                        // Ranks pay only the virtual back-pressure; the
                        // write itself retires behind their backs.
                        plan.backpressure_s + r
                    },
                    Some(plan),
                )
            }
            None => {
                let (w, r) = self.io_times(mode, control.n_ranks, &in_flight, &captures);
                (w, r, w + r, None)
            }
        };
        let charge_ns = (charge_secs * 1e9) as u64;
        if charge_ns > 0 {
            for rc in &control.ranks {
                if rc.state() != RankState::Finished {
                    rc.io_charge_ns.store(charge_ns, SeqCst);
                }
            }
        }

        let ckpt = Arc::new(Checkpoint {
            epoch: world.epoch,
            n_ranks: control.n_ranks,
            protocol: sh.protocol,
            origin: CaptureOrigin {
                ranks_per_node: sh.cfg.ranks_per_node,
                params: sh.cfg.params.clone(),
            },
            request_clock,
            initial_targets: initial,
            final_targets,
            achieved,
            captures,
            in_flight: in_flight.clone(),
            cut_events,
            io_write_secs,
            io_read_secs,
        });
        sh.trace.push(DrainEvent::Committed);

        // Execute the storage plan. Synchronous drains retire here, while
        // every rank is still parked and the whole worker pool is idle;
        // the background drain spawns its thread and the ranks resume
        // under it, with encode+write stealing only free scheduler slots.
        let record_idx = tier_plan.map(|plan| {
            let idx = {
                let mut rs = self.store_records.lock();
                rs.push(StoreRecord {
                    generation: plan.generation,
                    tier: plan.tier,
                    delta_parent: None,
                    changed_ranks: plan.changed_ranks,
                    serialized_bytes: 0,
                    modeled_write_s: plan.modeled_write_s,
                    backpressure_s: plan.backpressure_s,
                    blocking_wall_s: 0.0,
                    overlapped_wall_s: 0.0,
                    landing_v_s: plan.landing_v_s,
                });
                rs.len() - 1
            };
            let sched = Arc::clone(world.scheduler());
            let records = Arc::clone(&self.store_records);
            let image = Arc::clone(&ckpt);
            let TierPlan {
                store,
                tier,
                want_delta,
                sync,
                ..
            } = plan;
            if sync {
                let receipt =
                    sched.borrow_workers(|k| store.save(tier, Arc::clone(&image), want_delta, k));
                let mut rs = records.lock();
                rs[idx].generation = receipt.generation;
                rs[idx].delta_parent = receipt.delta_parent;
                rs[idx].serialized_bytes = receipt.bytes;
            } else {
                let session = Arc::clone(&self.sh);
                session.bg_drain_inflight.store(true, SeqCst);
                let handle = std::thread::Builder::new()
                    .name("ckpt-drain".into())
                    .spawn(move || {
                        let t0 = Instant::now();
                        let receipt =
                            sched.borrow_workers(|k| store.save(tier, image, want_delta, k));
                        let overlapped = t0.elapsed().as_secs_f64();
                        let mut rs = records.lock();
                        rs[idx].generation = receipt.generation;
                        rs[idx].delta_parent = receipt.delta_parent;
                        rs[idx].serialized_bytes = receipt.bytes;
                        rs[idx].overlapped_wall_s = overlapped;
                        drop(rs);
                        session.bg_drain_inflight.store(false, SeqCst);
                    })
                    .expect("spawn checkpoint drain thread");
                *self.pending_drain.lock() = Some(handle);
            }
            idx
        });

        // The blocking bracket ends here: state cloned, messages drained
        // and accounted, storage handed off.
        let capture_wall_s = capture_t0.elapsed().as_secs_f64();
        self.capture_walls.lock().push(capture_wall_s);
        if let Some(idx) = record_idx {
            self.store_records.lock()[idx].blocking_wall_s = capture_wall_s;
        }

        // Resume.
        match mode {
            ResumeMode::Continue => {
                for d in &in_flight {
                    let comm = ckpt.captures[d.saved.dst_world].vcomm_to_lower[&d.saved.vcomm];
                    world.deposit_raw(self.rebuild_msg(&d.saved, comm), d.arrival);
                }
            }
            ResumeMode::Restart => self.resume_restart(&ckpt, sh.cfg.clone()),
        }
        self.release_quiesced_ranks();
        sh.trace.push(DrainEvent::Resumed);
        Ok(Arc::try_unwrap(ckpt).unwrap_or_else(|arc| (*arc).clone()))
    }

    /// Plans one tiered write while the world is quiesced: the tier and
    /// image kind for this generation, the modeled cost against the tier
    /// models, and the sync-vs-background decision with its virtual
    /// back-pressure charge.
    fn plan_tier_write(
        &self,
        t: &Tiering,
        mode: ResumeMode,
        in_flight: &[DrainedMsg],
        captures: &[RuntimeCapture],
    ) -> TierPlan {
        let n_ranks = captures.len();
        let store = Arc::clone(&t.store);
        let generation = store.next_generation();
        let tier = t.schedule.tier_for(generation);
        let parent = store.latest();
        let same_shape = parent.as_ref().is_some_and(|(_, p)| p.n_ranks == n_ranks);
        let want_delta = t.delta.wants_delta(generation) && same_shape;
        // How many ranks' restart-stable state moved since the parent
        // generation — what a delta image actually has to carry.
        let changed_ranks = match &parent {
            Some((_, p)) if same_shape => captures
                .iter()
                .zip(p.captures.iter())
                .filter(|(a, b)| !stable_state_eq(a, b))
                .count(),
            _ => n_ranks,
        };
        let billed_ranks = if want_delta {
            changed_ranks.max(1)
        } else {
            n_ranks
        };
        let dynamic: u64 = in_flight
            .iter()
            .map(|d| d.saved.payload.len() as u64)
            .sum::<u64>()
            + captures
                .iter()
                .map(|c| 64 * (c.comm_log.len() + c.pending_recvs.len()) as u64)
                .sum::<u64>();
        let models = store.models();
        let total_bytes = models.image_bytes_per_rank * billed_ranks as u64 + dynamic;
        let layout = ImageSetLayout::packed(
            n_ranks.max(1),
            self.sh.cfg.ranks_per_node.max(1),
            total_bytes,
        );
        // Encode is tier-independent: the same memory walk feeds every
        // backend, parallel across the worker pool.
        let encode = models
            .lustre
            .encode_time(layout.bytes_per_node(), self.sh.cfg.resolved_workers());
        let modeled_write_s = encode + models.write_secs(tier, &layout);
        let modeled_read_s = match mode {
            ResumeMode::Restart => models.read_secs(tier, &layout),
            ResumeMode::Continue => 0.0,
        };
        // Restart always drains synchronously: the world is down while the
        // image writes; there is no application to overlap with.
        let sync = !t.async_drain || mode == ResumeMode::Restart;
        let now_v = self.sh.control.min_clock_secs();
        let (backpressure_s, landing_v_s) = if sync {
            // Ranks resume only after the write retires, so the image is
            // durable before any rank makes further progress: it lands at
            // the commit instant (the write charge lands on the ranks'
            // clocks, not on the image's availability).
            (0.0, now_v)
        } else {
            // Back-pressure rule, virtual side: a trigger firing before
            // the previous drain's modeled landing point pays the
            // remainder; then this drain occupies the next write window —
            // and lands when that window closes.
            let mut busy = self.drain_busy_until.lock();
            let bp = (*busy - now_v).max(0.0);
            *busy = busy.max(now_v) + modeled_write_s;
            (bp, *busy)
        };
        TierPlan {
            store,
            tier,
            generation,
            want_delta,
            changed_ranks,
            modeled_write_s,
            modeled_read_s,
            backpressure_s,
            landing_v_s,
            sync,
        }
    }

    /// Releases every quiesced rank back into the application and tears
    /// down the per-checkpoint state: bumps the resume generation (the
    /// quiesce parks' wake condition), withdraws the pending flag, and
    /// resets targets/update counters and the bus. Shared by the normal
    /// resume path and the capture-refusal path (e.g. a failed p2p
    /// accounting check) — the two must stay in lockstep or refused
    /// captures leave the world wedged.
    fn release_quiesced_ranks(&self) {
        let control = &self.sh.control;
        control.resume_gen.fetch_add(1, SeqCst);
        control.clear_pending();
        control.reset_after_checkpoint();
        self.sh.bus.reset();
    }

    /// The restart resume path, shared by in-process
    /// [`ResumeMode::Restart`] and restore-from-image
    /// ([`crate::restore_ckpt_world`]): builds a fresh lower half from
    /// `cfg` (which may carry a *different* `ranks_per_node` — Perlmutter-
    /// style re-packing at restart), installs the image's per-rank restore
    /// state, waits for every live rank to replay its communicator log,
    /// and re-deposits the drained in-flight messages.
    pub(crate) fn resume_restart(&self, ckpt: &Checkpoint, cfg: WorldConfig) {
        let sh = &self.sh;
        let control = &sh.control;
        assert_eq!(
            cfg.n_ranks, ckpt.n_ranks,
            "restart must preserve the number of ranks"
        );
        let live: Vec<usize> = (0..control.n_ranks)
            .filter(|&i| control.ranks[i].state() != RankState::Finished)
            .collect();
        // The fresh lower half is built onto the *same* scheduler: the
        // surviving rank threads keep their (released) run slots and wake
        // into the new generation.
        let sched = Arc::clone(sh.current_world().scheduler());
        let new_world = World::with_epoch_attached(cfg, ckpt.epoch + 1, sched);
        *sh.world.lock() = Arc::clone(&new_world);
        control.world_epoch.fetch_add(1, SeqCst);
        control.replayed_count.store(0, SeqCst);
        for &i in &live {
            // The image is authoritative: restore the captured call
            // counters and the pending trivial barrier before the rank
            // rebuilds itself from the fresh lower half.
            let (pending_barrier, counters) = ckpt.rank_restore_state(i);
            *control.ranks[i].pending_barrier.lock() = pending_barrier;
            *control.ranks[i].restored_counters.lock() = Some(counters);
            *control.ranks[i].new_world.lock() = Some(Arc::clone(&new_world));
        }
        // Finished ranks keep their last published capture, whose p2p flow
        // counts belong to the generation that is being discarded; the new
        // generation owes them nothing. Zero the flow so the next
        // capture's accounting identity sums current-generation traffic
        // only (live ranks reset their own counters when they attach).
        for i in 0..control.n_ranks {
            if control.ranks[i].state() == RankState::Finished {
                if let Some(cap) = control.ranks[i].capture_slot.lock().as_mut() {
                    cap.p2p_sent = 0;
                    cap.p2p_delivered = 0;
                }
            }
        }
        control.set_phase(CkptPhase::Resuming);
        while (control.replayed_count.load(SeqCst) as usize) < live.len() {
            // A death injected mid-restart leaves some ranks unwinding
            // instead of replaying; the new generation is dead on arrival
            // and the supervisor restores from storage instead.
            if new_world.fail_plane().poisoned() {
                return;
            }
            std::thread::sleep(POLL);
        }
        for d in &ckpt.in_flight {
            let dst = d.saved.dst_world;
            if control.ranks[dst].state() == RankState::Finished {
                continue; // a finished rank will never receive it
            }
            let comm = {
                let map = control.ranks[dst].replayed_comms.lock();
                *map.get(&d.saved.vcomm)
                    .unwrap_or_else(|| panic!("rank {dst} replay lost vcomm {}", d.saved.vcomm))
            };
            // The payload is already local after restart: available
            // immediately.
            new_world.deposit_raw(self.rebuild_msg(&d.saved, comm), VTime::ZERO);
        }
    }

    /// Image write/read times for this checkpoint under the configured
    /// storage model (zero when none is attached). The write side charges
    /// the full capture pipeline: serializing each node's images into write
    /// buffers — parallel across the worker pool, per
    /// [`LustreModel::encode_time`] — and then the filesystem transfer.
    fn io_times(
        &self,
        mode: ResumeMode,
        n_ranks: usize,
        in_flight: &[DrainedMsg],
        captures: &[RuntimeCapture],
    ) -> (f64, f64) {
        let Some(st) = &self.storage else {
            return (0.0, 0.0);
        };
        let rpn = self.sh.cfg.ranks_per_node;
        let (nodes, files_per_node, bytes_per_file) =
            image_file_layout(st, n_ranks, rpn, in_flight, captures);
        let enc_workers = self.sh.cfg.resolved_workers();
        let encode = st
            .model
            .encode_time(files_per_node as u64 * bytes_per_file, enc_workers);
        let w = encode + st.model.write_time(nodes, files_per_node, bytes_per_file);
        let r = match mode {
            ResumeMode::Restart => st.model.read_time(nodes, files_per_node, bytes_per_file),
            ResumeMode::Continue => 0.0,
        };
        (w, r)
    }

    fn rebuild_msg(&self, s: &SavedMsg, comm: CommId) -> InFlightMsg {
        InFlightMsg {
            src_world: s.src_world,
            dst_world: s.dst_world,
            comm,
            tag: s.tag,
            payload: s.payload.clone(),
            sent: VTime::ZERO,
            arrival: VTime::ZERO,
            seq: s.seq,
        }
    }

    /// If an injected death has poisoned the world, records the abort in
    /// the trace and returns the typed error. The per-checkpoint state is
    /// deliberately left alone — the world is being abandoned wholesale,
    /// not resumed, so there is nothing to withdraw into.
    fn death_abort(&self) -> Option<DrainError> {
        let d = self.sh.current_world().fail_plane().death()?;
        self.sh.trace.push(DrainEvent::Aborted);
        Some(DrainError::RankDeath(d))
    }

    /// Order-insensitive digest of everything that changes while a drain
    /// makes progress: clocks, states, sequence tables, update counters,
    /// and inbox depths. Two equal digests across the watchdog window mean
    /// the drain is wedged.
    fn progress_fingerprint(&self) -> u64 {
        let control = &self.sh.control;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (i, rc) in control.ranks.iter().enumerate() {
            mix(i as u64);
            mix(rc.clock_ns.load(std::sync::atomic::Ordering::Relaxed));
            mix(rc.state() as u64);
            mix(rc.updates_sent.load(SeqCst));
            mix(rc.updates_recv.load(SeqCst));
            mix(rc.targets_met.load(SeqCst) as u64);
            // Hash-map iteration order is arbitrary: fold entries through
            // an order-independent accumulator first.
            let mut acc: u64 = 0;
            let t = rc.seq_mirror.lock();
            for (g, e) in t.iter() {
                acc = acc.wrapping_add(
                    (g.0 ^ e.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_mul(0xff51_afd7_ed55_8ccd),
                );
            }
            mix(acc);
        }
        h
    }

    /// Withdraws a stalled checkpoint request: targets are torn down, the
    /// bus is cleared, and the pending flag dropped so parked ranks resume
    /// the application. Returns the typed stall error.
    fn abort_stalled_drain(&self) -> DrainError {
        let control = &self.sh.control;
        // Dead ranks are excluded: a declared death is not a p2p stall,
        // and listing the victims here would misattribute the abort.
        let stalled: Vec<usize> = control
            .ranks
            .iter()
            .enumerate()
            .filter(|(_, rc)| {
                rc.state() != RankState::Finished && !rc.is_dead() && !rc.targets_met.load(SeqCst)
            })
            .map(|(i, _)| i)
            .collect();
        self.sh.trace.push(DrainEvent::Aborted);
        // Drop the request first so ranks stop acting on the drain, give
        // in-progress wrapper iterations a beat to observe it, then tear
        // down the per-checkpoint state they might still have been touching.
        control.clear_pending();
        std::thread::sleep(POLL * 10);
        for rc in &control.ranks {
            rc.targets_ready.store(false, SeqCst);
            rc.initial_targets.lock().clear();
            rc.updates_sent.store(0, SeqCst);
            rc.updates_recv.store(0, SeqCst);
        }
        self.sh.bus.clear_all();
        // The aborted attempt consumed this epoch: ranks that installed
        // its targets key their staleness check on the epoch, so the next
        // request must open under a fresh one.
        control.ckpt_epoch.fetch_add(1, SeqCst);
        DrainError::P2pStall { stalled }
    }

    /// Whether the drain has stably terminated for `finals`.
    fn drain_complete(
        &self,
        finals: &HashMap<Ggid, u64>,
        members_of: &HashMap<Ggid, Arc<[usize]>>,
    ) -> bool {
        let control = &self.sh.control;
        for (g, &t) in finals {
            if t == 0 {
                continue;
            }
            for &r in members_of.get(g).map(|m| &m[..]).unwrap_or(&[]) {
                let rc = &control.ranks[r];
                if rc.state() == RankState::Finished || rc.is_dead() {
                    continue;
                }
                if rc.seq_mirror.lock().seq(*g) < t {
                    return false;
                }
            }
        }
        // `all_targets_met` closes the overshoot race: a rank whose
        // increment raced the snapshot is visible in its mirror at once,
        // but its raise reaches the bus only later — until then the rank
        // has not re-published `targets_met` (reset at request time), so
        // the coordinator keeps waiting.
        control.all_targets_met()
            && control.updates_balanced()
            && self.sh.bus.all_empty()
            && !control.any_in_collective()
    }
}

/// One tiered write, planned at the quiesce and executed by the drain
/// (inline while parked, or on the background thread).
struct TierPlan {
    store: Arc<TieredStore>,
    tier: CkptTier,
    generation: u64,
    want_delta: bool,
    changed_ranks: usize,
    modeled_write_s: f64,
    modeled_read_s: f64,
    backpressure_s: f64,
    landing_v_s: f64,
    sync: bool,
}

/// Clones every rank's published capture out of its control slot, fanning
/// contiguous rank batches across up to `workers` scoped threads. The world
/// is quiesced when this runs — every rank parked slotless — so the
/// borrowed scheduler slots are genuinely idle cores, and the slots' own
/// FIFO hand-off resumes queued ranks untouched afterwards.
fn parallel_capture(workers: usize, ranks: &[RankCtl]) -> Vec<RuntimeCapture> {
    fn clone_one(i: usize, rc: &RankCtl) -> RuntimeCapture {
        rc.capture_slot
            .lock()
            .clone()
            .unwrap_or_else(|| panic!("rank {i} parked without publishing a capture"))
    }
    let workers = workers.clamp(1, ranks.len().max(1));
    if workers <= 1 {
        return ranks
            .iter()
            .enumerate()
            .map(|(i, rc)| clone_one(i, rc))
            .collect();
    }
    let mut out: Vec<Option<RuntimeCapture>> = (0..ranks.len()).map(|_| None).collect();
    let chunk = ranks.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, slots) in out.chunks_mut(chunk).enumerate() {
            let base = ci * chunk;
            scope.spawn(move || {
                for (j, slot) in slots.iter_mut().enumerate() {
                    let i = base + j;
                    *slot = Some(clone_one(i, &ranks[i]));
                }
            });
        }
    });
    out.into_iter()
        .map(|c| c.expect("every rank batch filled"))
        .collect()
}

/// The on-storage layout of one image set under a block-packed topology:
/// `(nodes, files_per_node, bytes_per_file)`. The dynamic runtime state
/// (drained payloads, communicator logs, pending receives) rides along
/// with the fixed per-rank memory image. Shared by the capture-side write
/// charge and the restore-side read charge — restore may re-pack onto a
/// different `ranks_per_node`, which changes this layout and therefore the
/// modeled read time (the paper's Figure 9 effect).
pub(crate) fn image_file_layout(
    st: &StorageSpec,
    n_ranks: usize,
    ranks_per_node: usize,
    in_flight: &[DrainedMsg],
    captures: &[RuntimeCapture],
) -> (usize, usize, u64) {
    let rpn = ranks_per_node.max(1);
    let nodes = n_ranks.div_ceil(rpn).max(1);
    let files_per_node = rpn.min(n_ranks).max(1);
    let dynamic: usize = in_flight
        .iter()
        .map(|d| d.saved.payload.len())
        .sum::<usize>()
        + captures
            .iter()
            .map(|c| 64 * (c.comm_log.len() + c.pending_recvs.len()))
            .sum::<usize>();
    let bytes_per_file = st.image_bytes_per_rank + (dynamic / n_ranks.max(1)) as u64;
    (nodes, files_per_node, bytes_per_file)
}

/// The p2p drain-accounting identity checked at every capture:
///
/// ```text
/// Σ rank sends + coordinator re-deposits == Σ rank deliveries + drained
/// ```
///
/// All terms are per-lower-half-generation. At a quiesced capture every
/// matched-but-uncompleted receive has been reverted into its mailbox, so
/// a message is in exactly one of three places — delivered, drained into
/// the image, or injected-and-then-drained — and any imbalance means the
/// cut lost or duplicated one.
pub(crate) fn p2p_accounting_check(
    sent: u64,
    delivered: u64,
    redeposited: u64,
    drained: u64,
) -> Result<(), DrainError> {
    if sent + redeposited == delivered + drained {
        Ok(())
    } else {
        Err(DrainError::P2pAccounting {
            sent,
            delivered,
            redeposited,
            drained,
        })
    }
}

/// Wall-clock no-progress watchdog over an opaque fingerprint.
struct StallWatch {
    window: Duration,
    last_fp: u64,
    last_change: Instant,
}

impl StallWatch {
    fn new(window: Duration, fp: u64) -> Self {
        StallWatch {
            window,
            last_fp: fp,
            last_change: Instant::now(),
        }
    }

    /// Feeds the current fingerprint; true once it has been unchanged for
    /// the full window.
    fn stalled(&mut self, fp: u64) -> bool {
        if fp != self.last_fp {
            self.last_fp = fp;
            self.last_change = Instant::now();
            return false;
        }
        self.last_change.elapsed() >= self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_accounting_balance() {
        // Clean run: everything sent was delivered or drained.
        assert!(p2p_accounting_check(10, 7, 0, 3).is_ok());
        // Restart generation: only coordinator seeds in flight.
        assert!(p2p_accounting_check(0, 3, 4, 1).is_ok());
        // A lost message (drained + delivered short of sends) is typed.
        let e = p2p_accounting_check(10, 7, 0, 2).unwrap_err();
        assert!(matches!(e, DrainError::P2pAccounting { sent: 10, .. }));
        assert!(e.to_string().contains("lost or duplicated"));
        // A duplicated message fails the other way.
        assert!(p2p_accounting_check(10, 11, 0, 0).is_err());
    }

    #[test]
    fn auto_stall_window_is_capped() {
        // Slope still applies at moderate multiplexing ratios…
        assert!(auto_stall_timeout(512, 2) > auto_stall_timeout(64, 2));
        // …but extreme ratios (4096 ranks on a 2-worker host) saturate at
        // the fail-fast ceiling instead of extrapolating to minutes.
        assert_eq!(auto_stall_timeout(4096, 2), MAX_AUTO_STALL);
        assert_eq!(auto_stall_timeout(8192, 2), MAX_AUTO_STALL);
        assert!(auto_stall_timeout(2048, 2) <= MAX_AUTO_STALL);
    }
}
