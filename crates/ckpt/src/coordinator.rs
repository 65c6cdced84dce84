//! The checkpoint coordinator: serves a raised request — computes and
//! installs targets (Algorithm 1), supervises the drain to quiescence,
//! captures the image, and resumes ranks — either on the same lower half
//! (*continue*) or into a freshly built one (*restart*).
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
//! A point-to-point dependency the collective DAG cannot see (a receive
//! fed by a send gated behind a beyond-target collective) deadlocks the
//! drain: `TARGET[]` stays unmet while no live rank can run. The
//! coordinator returns a typed [`DrainError::P2pStall`] the moment that
//! holds — judged from what the ranks publish, never from a clock (the
//! stall rule of [`mana_core::control`], with the one shape it misreads)
//! — and the request is withdrawn and the application continues.

use crate::image::{stable_state_eq, CaptureOrigin, Checkpoint, DrainedMsg};
use crate::session::{Interrupted, Session};
use crate::store::{ImageSetLayout, StoreRecord, Tiering};
use mana_core::{CkptPhase, Cut, DrainEvent, Ggid, Protocol, RankCtl, RankState, RuntimeCapture};
use mpisim::msg::InFlightMsg;
use mpisim::types::CommId;
use mpisim::{RankDeath, SavedMsg, VTime, World};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::Instant;

/// What happens after the image is captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeMode {
    /// Ranks continue on the same lower half; drained messages are
    /// re-deposited with their original timing.
    Continue,
    /// The lower half is discarded and rebuilt: the coordinator builds the
    /// next world and hands it to every live rank with the drained
    /// messages addressed to it, and each rank installs the capture it
    /// published — communicators rebuilt, pending receives and a pending
    /// trivial barrier re-posted, its messages put back at the front of
    /// its mailbox — the way a restore from the image does.
    Restart,
}

/// Why a checkpoint attempt was aborted instead of committed.
#[derive(Debug, Clone, PartialEq)]
pub enum DrainError {
    /// `TARGET[]` was unmet and no live rank could run: some below-target
    /// rank is blocked on a point-to-point dependency (e.g. a receive whose
    /// matching send sits behind a beyond-target collective on a parked
    /// rank). The request was withdrawn and the application resumed;
    /// `stalled` lists the ranks still short of their targets.
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
    tiering: Option<Tiering>,
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
    /// Builds a coordinator with no storage.
    pub fn new(sh: Arc<Session>) -> Self {
        Coordinator {
            sh,
            tiering: None,
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
        let handle = self.pending_drain.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Attaches tiered storage: every committed checkpoint is serialized
    /// into the [`TieredStore`](crate::TieredStore) per its schedule and
    /// delta policy, and the modeled tier cost (or just the back-pressure,
    /// under the async drain) is charged to the virtual clocks. Without it
    /// checkpoints are free on the virtual clocks.
    pub fn with_tiering(mut self, tiering: Option<Tiering>) -> Self {
        self.tiering = tiering;
        self
    }

    /// Serves one raised request: Algorithm 1 writes the control plane's
    /// one `TARGET[]` table, the drain raises it in place, then quiesce →
    /// capture → resume (per `mode`). Returns the captured image, or a
    /// typed error if the drain stalled (the request withdrawn, the
    /// application running on). Before any rank runs on,
    /// `before_release(charge_ns, write_s)` hears the committed image's
    /// clock charge and write cost (`0` if none; not called on a death):
    /// a supervisor arms its next trigger there.
    pub fn checkpoint(
        &self,
        mode: ResumeMode,
        before_release: &mut dyn FnMut(u64, f64),
    ) -> Result<Checkpoint, DrainError> {
        let sh = &self.sh;
        let control = &sh.control;
        assert!(
            sh.protocol.supports_checkpoint(),
            "protocol {} cannot checkpoint",
            sh.protocol.name()
        );
        debug_assert!(control.is_pending(), "no request raised");
        // A rank released from the previous capture publishes `Running`
        // only when it next runs. Until then its old park state would
        // pass this checkpoint's quiesce test — at once under 2PC, which
        // has no targets to drain first — and the capture would find the
        // rank back inside a collective. (No rank parks for this request
        // before its targets or its quiesce phase.)
        sh.wait_for(|| (!control.any_stale_park()).then_some(()))
            .map_err(|i| self.interrupted(i, before_release))?;
        let request_clock = VTime::from_secs(control.request_clock_ns() as f64 * 1e-9);
        sh.trace.push(DrainEvent::Requested);

        let two_phase = sh.protocol == Protocol::TwoPhase;
        let (initial, final_targets) = if two_phase {
            // 2PC stop-the-world cut: no Algorithm 1 targets. Every rank
            // parks at its next interposition point — outside MPI, in a
            // cooperative receive wait, or inside a trivial barrier that
            // cannot complete.
            control.set_phase(CkptPhase::Quiescing);
            (HashMap::new(), HashMap::new())
        } else {
            control.compute_and_install_targets(|t| {
                let mut listing: Vec<(Ggid, u64)> = t.targets().into_iter().collect();
                listing.sort();
                sh.trace.push(DrainEvent::TargetsInstalled(listing));
            });
            // Supervise the drain to its end or its stall (`stalled_since`,
            // on a token taken before the check). The wait checks for death
            // first: a killed world is a typed death, never a `P2pStall`.
            let table = sh
                .wait_for(|| {
                    let token = control.events.token();
                    match control.drain_targets() {
                        Some(table) => Some(Ok(table)),
                        None => control
                            .stalled_since(token)
                            .then_some(Err(Interrupted::Stalled)),
                    }
                })
                .and_then(|judged| judged)
                .map_err(|i| self.interrupted(i, before_release))?;
            control.set_phase(CkptPhase::Quiescing);
            (table.initial_targets(), table.targets())
        };

        // Quiesce: every rank parks at its current interposition point and
        // publishes its capture.
        sh.wait_for(|| control.all_quiesced().then_some(()))
            .map_err(|i| self.interrupted(i, before_release))?;
        // A killed rank unwinds instead of parking, and its thread's
        // teardown may leave it looking Finished — letting the loop above
        // exit with no capture published. Re-check before touching the
        // capture slots.
        if sh.poisoned() {
            return Err(self.interrupted(Interrupted::Died, before_release));
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
        // Every rank is asleep at this point, so the world's workers are
        // idle cores: clone the published captures on that many scoped
        // threads instead of walking 4096 slots on one core.
        let captures = parallel_capture(sh.cfg.resolved_workers(), &control.ranks);

        // Drain in-flight point-to-point messages, translating lower-half
        // communicator ids into the destination's virtual ids through the
        // map it published beside its capture. A quiesce may have
        // re-deposited an unmatched message at its queue's tail,
        // so each (src → dst) channel is re-ordered by sequence number —
        // but only within the queue positions that channel already
        // occupies: cross-sender deposit order is what wildcard
        // (`ANY_SOURCE`) matching observes, and must survive the
        // checkpoint unchanged.
        let mut in_flight: Vec<DrainedMsg> = Vec::new();
        for dst in 0..captures.len() {
            let unexpected = world.take_unexpected(dst);
            if unexpected.is_empty() {
                continue;
            }
            let reverse: HashMap<CommId, u64> = (control.ranks[dst].lower_comms.lock().iter())
                .map(|(v, c)| (*c, *v))
                .collect();
            let mut queue: Vec<DrainedMsg> = Vec::new();
            for m in unexpected {
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
            self.redeposit(&world, &in_flight);
            sh.trace.push(DrainEvent::Aborted);
            self.release_ranks(|| before_release(0, 0.0));
            return Err(e);
        }

        // The state-clone half of the bracket ends here. What follows —
        // storage planning, the hand-off to the drain (including any wait
        // for the *previous* background drain), and for synchronous drains
        // the encode+write itself — stays inside the blocking bracket; the
        // wall clock stops only once the drain is handed off.

        // Storage: a checkpoint writes every live rank's image in parallel;
        // a restart reads them back. The modeled cost lands on the virtual
        // clocks at resume. The tiered store plans per generation (tier,
        // full-vs-delta, sync-vs-background); without one, I/O is free.
        let plan = self.tiering.as_ref().map(|t| {
            // Back-pressure rule, wall side: if the previous image has not
            // landed when this trigger fires, the world waits for it here,
            // inside the blocking bracket.
            self.flush_drains();
            (t, self.plan_tier_write(t, mode, &in_flight, &captures))
        });
        let (io_write_secs, io_read_secs, charge_secs) = match &plan {
            Some((_, (rec, _, sync, r))) => (
                rec.modeled_write_s,
                *r,
                if *sync {
                    rec.modeled_write_s + r
                } else {
                    // Ranks pay only the virtual back-pressure; the write
                    // itself retires behind their backs.
                    rec.backpressure_s + r
                },
            ),
            None => (0.0, 0.0, 0.0),
        };
        let charge_ns = (charge_secs * 1e9) as u64;
        if charge_ns > 0 {
            for rc in &control.ranks {
                if rc.state() != RankState::Finished {
                    rc.io_charge_ns.store(charge_ns, SeqCst);
                }
            }
        }

        let mut ckpt = Checkpoint {
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
            captures,
            in_flight: in_flight.clone(),
            cut_events: Cut::default(),
            io_write_secs,
            io_read_secs,
        };
        ckpt.cut_events = ckpt.cut();
        let ckpt = Arc::new(ckpt);
        sh.trace.push(DrainEvent::Committed);

        // Execute the storage plan. Synchronous drains retire here, while
        // every rank is still parked and the world's workers are idle;
        // the background drain spawns its thread and the ranks resume
        // beside it. Either encodes on the world's worker budget.
        let record_idx = plan.map(|(t, (record, want_delta, sync, _))| {
            let tier = record.tier;
            let idx = {
                let mut rs = self.store_records.lock();
                rs.push(record);
                rs.len() - 1
            };
            let (store, records) = (Arc::clone(&t.store), Arc::clone(&self.store_records));
            let (image, workers) = (Arc::clone(&ckpt), sh.cfg.resolved_workers());
            // The one drain: encode + write, then fill the record's receipt
            // fields (the wall it took counts as overlapped off the
            // critical path only for a background drain).
            let drain = move || {
                let t0 = Instant::now();
                let receipt = store.save(tier, image, want_delta, workers);
                let mut rs = records.lock();
                let rec = &mut rs[idx];
                rec.generation = receipt.generation;
                rec.delta_parent = receipt.delta_parent;
                rec.serialized_bytes = receipt.bytes;
                if !sync {
                    rec.overlapped_wall_s = t0.elapsed().as_secs_f64();
                }
            };
            if sync {
                drain();
            } else {
                let session = Arc::clone(&self.sh);
                session.bg_drain_inflight.store(true, SeqCst);
                // In flight from here: a fault waiting for that strikes.
                sh.strike_if_due();
                let handle = std::thread::Builder::new()
                    .name("ckpt-drain".into())
                    .spawn(move || {
                        drain();
                        session.bg_drain_inflight.store(false, SeqCst);
                        session.control.events.bump();
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
            ResumeMode::Continue => self.redeposit(&world, &in_flight),
            ResumeMode::Restart => self.resume_restart(world.epoch + 1, in_flight),
        }
        self.release_ranks(|| before_release(charge_ns, io_write_secs));
        sh.trace.push(DrainEvent::Resumed);
        Ok(Arc::try_unwrap(ckpt).unwrap_or_else(|arc| (*arc).clone()))
    }

    /// Plans one tiered write while the world is quiesced: the
    /// [`StoreRecord`] the checkpoint reports (tier, modeled write cost,
    /// virtual back-pressure and landing; the drain fills in the receipt
    /// fields), plus what the write itself needs — whether to write a
    /// delta, whether to drain synchronously — and the modeled read-back.
    fn plan_tier_write(
        &self,
        t: &Tiering,
        mode: ResumeMode,
        in_flight: &[DrainedMsg],
        captures: &[RuntimeCapture],
    ) -> (StoreRecord, bool, bool, f64) {
        let n_ranks = captures.len();
        let store = &t.store;
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
        let now_v = self.sh.control.min_unfinished_clock_ns() as f64 * 1e-9;
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
        let record = StoreRecord {
            generation,
            tier,
            delta_parent: None,
            changed_ranks,
            serialized_bytes: 0,
            modeled_write_s,
            backpressure_s,
            blocking_wall_s: 0.0,
            overlapped_wall_s: 0.0,
            landing_v_s,
        };
        (record, want_delta, sync, modeled_read_s)
    }

    /// Releases the ranks: withdraws the request and its targets, runs
    /// `before_release`, and only then releases the quiesce parks. The one
    /// path for a commit, a refused capture and a stalled drain.
    fn release_ranks(&self, before_release: impl FnOnce()) {
        let control = &self.sh.control;
        control.withdraw();
        before_release();
        control.release();
    }

    /// The in-process [`ResumeMode::Restart`] path: builds the next lower
    /// half (generation `epoch`) on the same scheduler and hands it to
    /// every live rank with the drained messages addressed to it, for the
    /// rank to install when it is released. Nothing waits here: a rank
    /// matches nothing before it has installed, and the next checkpoint
    /// waits out a rank not yet run since this release.
    fn resume_restart(&self, epoch: u64, in_flight: Vec<DrainedMsg>) {
        let sh = &self.sh;
        // The surviving ranks wake into the new generation, and its
        // mailboxes inherit the scheduler's wake routing.
        let sched = Arc::clone(sh.current_world().scheduler());
        let world = World::with_epoch_attached(sh.cfg.clone(), epoch, sched);
        *sh.world.lock() = Arc::clone(&world);
        let mut to: Vec<Vec<SavedMsg>> = vec![Vec::new(); sh.cfg.n_ranks];
        for d in in_flight {
            to[d.saved.dst_world].push(d.saved);
        }
        for (rc, msgs) in sh.control.ranks.iter().zip(to) {
            if rc.state() != RankState::Finished {
                *rc.new_world.lock() = Some((Arc::clone(&world), msgs));
            } else if let Some(cap) = rc.capture_slot.lock().as_mut() {
                // A finished rank's capture keeps the p2p flow of the
                // discarded generation, which the new one owes nothing
                // (live ranks reset theirs when they attach); the next
                // capture's accounting sums current traffic only.
                cap.p2p_sent = 0;
                cap.p2p_delivered = 0;
            }
        }
    }

    /// Puts drained messages back into the current lower half with their
    /// original arrival, translating each vcomm through its destination's
    /// published lower-half map (the ranks are still parked in the
    /// generation the messages were drained from, with empty mailboxes).
    /// The drain lists each destination's messages together, in order.
    fn redeposit(&self, world: &World, in_flight: &[DrainedMsg]) {
        for to in in_flight.chunk_by(|a, b| a.saved.dst_world == b.saved.dst_world) {
            let dst = to[0].saved.dst_world;
            let map = self.sh.control.ranks[dst].lower_comms.lock();
            let msgs = (to.iter())
                .map(|d| rebuild_msg(&d.saved, map[&d.saved.vcomm], d.arrival))
                .collect();
            world.redeposit_front(dst, msgs);
        }
    }

    /// The typed error for a checkpoint wait that ended without its
    /// condition. A death leaves the per-checkpoint state alone — the
    /// world is abandoned wholesale, not resumed, so there is nothing to
    /// withdraw into; a stall withdraws the request and releases the ranks.
    fn interrupted(
        &self,
        why: Interrupted,
        before_release: &mut dyn FnMut(u64, f64),
    ) -> DrainError {
        self.sh.trace.push(DrainEvent::Aborted);
        if why == Interrupted::Died {
            return DrainError::RankDeath(self.sh.death().expect("a died wait saw the poison"));
        }
        // Dead ranks are excluded: a declared death is not a p2p stall,
        // and listing the victims here would misattribute the abort.
        let stalled = (self.sh.control.ranks.iter().enumerate())
            .filter(|(_, rc)| {
                rc.state() != RankState::Finished && !rc.is_dead() && !rc.targets_met.load(SeqCst)
            })
            .map(|(i, _)| i)
            .collect();
        // A rank still inside a wrapper iteration may deliver a raise
        // after this: the late-raise rule of `mana_core::control`.
        self.release_ranks(|| before_release(0, 0.0));
        DrainError::P2pStall { stalled }
    }
}

/// A drained message back in lower-half terms, on `comm`, available `at`.
pub(crate) fn rebuild_msg(s: &SavedMsg, comm: CommId, at: VTime) -> InFlightMsg {
    InFlightMsg {
        src_world: s.src_world,
        dst_world: s.dst_world,
        comm,
        tag: s.tag,
        payload: s.payload.clone(),
        sent: at,
        arrival: at,
        seq: s.seq,
    }
}

/// Clones every rank's published capture out of its control slot, fanning
/// contiguous rank batches across up to `workers` scoped threads. The world
/// is quiesced when this runs — every rank asleep in its event wait — so
/// the threads run on otherwise idle cores.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_ckpt_world, run_ckpt_world_steps, CkptOptions};
    use crate::{BodyStep, CcRank, StepBody, StepPoll};
    use mana_core::VComm;
    use mpisim::{ReduceOp, WorldConfig};

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

    /// Resolves a poll inside `step`, yielding on `Pending`.
    macro_rules! ready {
        ($poll:expr) => {
            match $poll {
                StepPoll::Ready(v) => v,
                StepPoll::Pending(why) => return BodyStep::Yield(why),
            }
        };
    }

    /// Rank 0 only joins the split that excludes it and finishes; the
    /// others run 40 rounds of compute and an allreduce on the split.
    #[derive(Default)]
    struct SplitThenSum {
        sub: Option<Option<VComm>>,
        it: usize,
        computed: bool,
        acc: f64,
    }

    impl StepBody for SplitThenSum {
        type Out = f64;

        fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
            let me = r.rank();
            if self.sub.is_none() {
                let color = if me == 0 { -1 } else { 0 };
                self.sub = Some(ready!(r.poll_comm_split(r.world_vcomm(), color, 0)));
            }
            let Some(Some(sub)) = self.sub else {
                return BodyStep::Done(0.0);
            };
            while self.it < 40 {
                if !self.computed {
                    r.compute(10e-6);
                    self.computed = true;
                }
                self.acc += ready!(r.poll_allreduce_f64(sub, &[me as f64], ReduceOp::Sum))[0];
                (self.computed, self.it) = (false, self.it + 1);
            }
            BodyStep::Done(self.acc)
        }
    }

    /// Under either driver: the pool, and threads through `CcRank::run`.
    #[test]
    fn request_clock_ignores_a_rank_that_finished_early() {
        // Rank 0 only joins the split that excludes it, then returns at a
        // clock far below the trigger; the others run on past it. The
        // trigger waits for the slowest *unfinished* rank, and the image's
        // request clock must say where the run stood then — not where
        // the finished rank stopped.
        let at = VTime::from_micros(100.0);
        let opts = || CkptOptions::one_checkpoint(at, ResumeMode::Continue);
        let cfg = || WorldConfig::single_node(3);
        let pool = run_ckpt_world_steps(cfg(), opts(), |_| SplitThenSum::default());
        let threads = run_ckpt_world(cfg(), opts(), |r| r.run(&mut SplitThenSum::default()));
        for run in [pool, threads] {
            assert!(run.failures.is_empty(), "{:?}", run.failures);
            assert_eq!(run.checkpoints.len(), 1, "the trigger must fire");
            let c = &run.checkpoints[0];
            assert!(
                c.request_clock >= at,
                "request clock {} is below the trigger {at}: a finished rank pinned it",
                c.request_clock
            );
        }
    }
}
