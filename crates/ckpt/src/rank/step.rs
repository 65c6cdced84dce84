//! The wrapper layer's protocol engine, and the `poll_*` face of
//! [`CcRank`] that exposes it.
//!
//! Every wrapper-layer wait — the CC drain gate (Algorithms 2–3), the 2PC
//! trivial barrier, `MPI_Wait`/`MPI_Test`, communicator creation, the
//! quiesce/capture park — is written exactly once, here, as an explicit
//! state machine that either *completes* or returns
//! [`StepPoll::Pending`]. What happens on `Pending` is the only thing
//! that depends on who is running the body:
//!
//! * a body stepped by the **pool** ([`mpisim::StepDriver`]) calls
//!   `poll_*`, which keeps the machine in the rank's `op` slot between
//!   calls, and yields back to the driver; a parked rank then occupies
//!   nothing but its own heap object;
//! * a body that **owns a thread** ([`mpisim::Scheduler::run_threads`])
//!   calls the blocking form, which builds the same machine on its stack
//!   and blocks on it (`CcRank::block_on`): poll, and on `Pending` sleep,
//!   run slot released, on the rank's one event counter
//!   ([`mana_core::RankCtl::wait_event_since`]) until something wakes it.
//!
//! Both hear the same events (control-plane wakes and, through the
//! scheduler's rank-waker registry, mailbox deposits and collective
//! completions), and neither adds protocol logic of its own: counter
//! increments, `SEQ[]` mirror updates, trace events, target raises,
//! capture publications and clock charges happen in the machines, so
//! virtual-time trajectories, checkpoint captures, and the
//! `CallCounters`+`SEQ[]` restore-replay contract cannot depend on how a
//! rank waits. Every lower-half wait goes through the *uncharged*
//! completion path ([`mpisim::Ctx::try_complete`] /
//! [`mpisim::Ctx::coll_begin`]), which moves the clock exactly as a
//! blocking wait would.
//!
//! `poll_*` call protocol: each method is *idempotent-start* — the first
//! call constructs the operation's machine (performing its entry effects,
//! e.g. counter increments), subsequent calls resume it, and a `Ready`
//! return clears it. A body must keep re-polling the same operation until
//! `Ready`; starting a different operation while one is in flight is a
//! body bug and panics.

use super::{CcRank, RankCore};
use bytes::Bytes;
use mana_core::{
    ggid_of, CkptPhase, CommOp, DrainEvent, Ggid, Protocol, RankState, VComm, VReq, VReqKind,
    VReqState,
};
use mpisim::collective::RedSpec;
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::sched::WaitReason;
use mpisim::{CollOp, Completion, DType, Group, ReduceOp, Request};
use netmodel::wrapper_cost;
use std::sync::atomic::Ordering::SeqCst;

/// Outcome of polling an engine operation.
#[derive(Debug)]
pub enum StepPoll<T> {
    /// The operation completed with this result.
    Ready(T),
    /// The operation cannot progress until an event wakes the rank: a
    /// body on the pool yields to its driver with this wait reason,
    /// `CcRank::block_on` sleeps on the rank's event counter.
    Pending(WaitReason),
}

impl<T> StepPoll<T> {
    /// `true` if this is `Ready`.
    pub fn is_ready(&self) -> bool {
        matches!(self, StepPoll::Ready(_))
    }

    /// Unwraps the `Ready` value.
    ///
    /// # Panics
    /// Panics if the poll is `Pending`.
    pub fn unwrap(self) -> T {
        match self {
            StepPoll::Ready(t) => t,
            StepPoll::Pending(r) => panic!("unwrapped a pending step poll ({r:?})"),
        }
    }

    /// Transforms the `Ready` value, leaving `Pending` as it is.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> StepPoll<U> {
        match self {
            StepPoll::Ready(t) => StepPoll::Ready(f(t)),
            StepPoll::Pending(r) => StepPoll::Pending(r),
        }
    }
}

/// Whether this rank has just reached its restore cut (see
/// [`CcRank::restore_cut_due`]); marks the cut reached, so this is `true`
/// once. The caller then parks the rank there with a [`QuiesceM`]: the
/// ordinary quiesce/capture/resume machinery, with the restore driver
/// playing the coordinator's role (it cross-checks the replayed capture
/// against the image, installs the restored world, re-deposits the
/// image's in-flight messages).
fn at_restore_cut(cc: &RankCore<'_>) -> bool {
    let due = cc.restore_cut_due();
    if due {
        let plan = cc.sh.restore.as_ref().expect("cut implies restore plan");
        plan.reached[cc.rank].store(true, SeqCst);
    }
    due
}

/// Waits until targets for the pending checkpoint are installed:
/// `Ready(false)` when the checkpoint ended while waiting, `Ready(true)`
/// once they are. Wakes arrive from target installation and
/// `clear_pending`, both of which wake the rank's control slot.
fn try_await_targets(cc: &mut RankCore<'_>) -> StepPoll<bool> {
    let sh = cc.sh;
    let ctl = &sh.control.ranks[cc.rank];
    if !ctl.targets_ready.load(SeqCst) && sh.control.is_pending() {
        return StepPoll::Pending(WaitReason::Event);
    }
    if !sh.control.is_pending() {
        cc.service_control();
        return StepPoll::Ready(false);
    }
    cc.install_targets_if_new();
    StepPoll::Ready(true)
}

// ----------------------------------------------------------------------
// Quiesce machine
// ----------------------------------------------------------------------

/// Parks for capture: completes every initiated non-blocking collective
/// (§4.3.2), reverts matched receives, publishes the [`RuntimeCapture`],
/// parks until resume — attaching a fresh lower half first if the
/// coordinator installed one (restart) — then runs the resume epilogue.
///
/// [`RuntimeCapture`]: mana_core::RuntimeCapture
struct QuiesceM {
    state: RankState,
    stage: QStage,
}

enum QStage {
    /// §4.3.2: run every initiated non-blocking collective to completion.
    /// All participants have initiated (targets met), so these waits
    /// terminate.
    Colls { ids: Vec<VReq>, idx: usize },
    /// Captured and parked; waiting for resume or a fresh lower half.
    Park { my_gen: u64, restarted: bool },
}

impl QuiesceM {
    fn new(cc: &mut RankCore<'_>, state: RankState) -> QuiesceM {
        QuiesceM {
            state,
            stage: QStage::Colls {
                ids: cc.vreqs.active_collectives(),
                idx: 0,
            },
        }
    }

    fn poll(&mut self, cc: &mut RankCore<'_>) -> StepPoll<()> {
        loop {
            match &mut self.stage {
                QStage::Colls { ids, idx } => {
                    while let Some(&v) = ids.get(*idx) {
                        match cc.vreqs.take(v) {
                            Some(VReqState::Active(mut req, kind)) => {
                                if let Some(c) = cc.ctx.try_complete(&mut req) {
                                    cc.vreqs.put_back(v, VReqState::Ready(c));
                                    *idx += 1;
                                } else {
                                    cc.vreqs.put_back(v, VReqState::Active(req, kind));
                                    return StepPoll::Pending(WaitReason::Event);
                                }
                            }
                            Some(other) => {
                                cc.vreqs.put_back(v, other);
                                *idx += 1;
                            }
                            None => *idx += 1,
                        }
                    }
                    // Matched-but-uncompleted receives: the message
                    // returns to the mailbox so the capture drain records
                    // it as in-flight. This is a revert, not an injection
                    // — the sender's flow counter already covers the
                    // message, so it must not count as a re-deposit in
                    // the drain accounting.
                    let world = std::sync::Arc::clone(cc.ctx.world());
                    for v in cc.vreqs.active_recv_ids() {
                        if let Some(VReqState::Active(mut req, kind)) = cc.vreqs.take(v) {
                            if let Some(msg) = req.unmatch() {
                                let arrival = msg.arrival;
                                world.revert_unmatched(msg, arrival);
                            }
                            cc.vreqs.put_back(v, VReqState::Active(req, kind));
                        }
                    }
                    let sh = cc.sh;
                    let ctl = &sh.control.ranks[cc.rank];
                    *ctl.capture_slot.lock() = Some(cc.build_capture(self.state));
                    let my_gen = sh.control.resume_gen.load(SeqCst);
                    ctl.set_state(self.state);
                    sh.trace.push(DrainEvent::Quiesced(cc.rank));
                    self.stage = QStage::Park {
                        my_gen,
                        restarted: false,
                    };
                }
                QStage::Park { my_gen, restarted } => {
                    let sh = cc.sh;
                    let ctl = &sh.control.ranks[cc.rank];
                    loop {
                        let fresh = ctl.new_world.lock().take();
                        if let Some(w) = fresh {
                            cc.restore_into(w);
                            *restarted = true;
                            continue;
                        }
                        if sh.control.resume_gen.load(SeqCst) > *my_gen {
                            break;
                        }
                        return StepPoll::Pending(WaitReason::Event);
                    }
                    if *restarted {
                        // Restore-from-image: the image's captured clock
                        // is authoritative for the restored timeline
                        // (replay accounting may drift from a capture
                        // taken mid-drain); adopt it before re-posting, so
                        // re-issued operations carry the right entry times.
                        if let Some(plan) = &sh.restore {
                            cc.ctx.set_clock(plan.cuts[cc.rank].clock);
                        }
                        cc.repost_pending_recvs();
                        cc.repost_trivial_barrier();
                    }
                    // The park is over: a trivial barrier it was inside is
                    // live again (re-issued just above, after a restart).
                    *ctl.pending_barrier.lock() = None;
                    // Checkpoint-image storage I/O (Lustre write, plus
                    // read at restart) is charged to the rank's virtual
                    // clock at resume.
                    let io_ns = ctl.io_charge_ns.swap(0, SeqCst);
                    if io_ns > 0 {
                        cc.ctx.compute(io_ns as f64 * 1e-9);
                    }
                    cc.publish_clock();
                    ctl.set_state(RankState::Running);
                    return StepPoll::Ready(());
                }
            }
        }
    }

    /// The 2PC **free pass** (MANA's `notifyFreePass`): leaves the park
    /// *uncaptured* if the trivial barrier this rank is parked inside has
    /// completed — `true` means the capture and `pending_barrier` are
    /// withdrawn, `Running` is published, and the caller must take the
    /// completed `tb_req` and go on into the real collective. (A receive
    /// the park un-matched stays in the mailbox and re-matches at its
    /// next completion call.)
    ///
    /// Parking inside the barrier is decided from one failed
    /// `try_complete`; a member that passed its phase-1 check just before
    /// the intent became visible can still post afterwards, complete the
    /// instance and enter the real collective, where it needs every
    /// parked member to follow. Invariant: **no rank is ever captured
    /// `InTrivialBarrier` on a completed instance.** It cannot race the
    /// capture: the member that completed the barrier stays un-parked
    /// from its arrival until the real collective finishes, which needs
    /// every parked member to come through here first, so the
    /// coordinator's all-parked test ([`mana_core::CkptControl::all_quiesced`])
    /// cannot pass in between. The wake is the instance completion
    /// itself, which pokes every participant.
    ///
    /// The barrier is observed *before* the resume generation: completion
    /// seen with the generation still unchanged happened before any
    /// resume, i.e. before the capture this park was published for —
    /// after a resume, finishing the barrier is the resumed gate's job,
    /// behind the resume epilogue's clock charges. A park at a restore
    /// cut never qualifies (no checkpoint is quiescing during a replay):
    /// the cut must win against a replay that completes the barrier
    /// earlier than the capture did.
    fn free_pass(&self, cc: &mut RankCore<'_>) -> bool {
        let QStage::Park {
            my_gen,
            restarted: false,
        } = self.stage
        else {
            return false;
        };
        if !cc.tb_req.as_ref().is_some_and(Request::collective_done) {
            return false;
        }
        let control = &cc.sh.control;
        if control.resume_gen.load(SeqCst) > my_gen || control.phase() != CkptPhase::Quiescing {
            return false;
        }
        let ctl = &control.ranks[cc.rank];
        *ctl.capture_slot.lock() = None;
        *ctl.pending_barrier.lock() = None;
        // `Running` before the count: what `all_quiesced` relies on.
        ctl.set_state(RankState::Running);
        control.free_passes.fetch_add(1, SeqCst);
        cc.sh.trace.push(DrainEvent::Unparked(cc.rank));
        true
    }
}

// ----------------------------------------------------------------------
// The drain gate (Algorithms 2 & 3) and the 2PC gate
// ----------------------------------------------------------------------

/// The collective-wrapper entry: counts the call on the group's sequence
/// number, subject to the coordination protocol in force. Yields the
/// group id and the new sequence number only; the call site resolves
/// `vc` itself, by reference and *after* the gate: a restart while parked
/// here replaces the lower half, and a communicator handle returned by
/// value would be a reference-count round trip on a handle every member
/// shares.
struct GateM {
    vc: VComm,
    /// The capture park in progress, if any. The gate's own state is set
    /// to where it resumes *before* the park starts.
    quiesce: Option<QuiesceM>,
    kind: GateKind,
}

enum GateKind {
    Cc(CcGate),
    TwoPc(TwoPcGate),
}

/// What a gate's state machine needs next.
enum Next {
    /// The gate is open: the call is counted as `(ggid, seq)`.
    Open((Ggid, u64)),
    /// Nothing to do until an event wakes the rank.
    Wait,
    /// Park for capture in this state, then carry on.
    Quiesce(RankState),
}

impl GateM {
    fn new(cc: &mut RankCore<'_>, vc: VComm) -> GateM {
        let protocol = cc.sh.protocol;
        if protocol != Protocol::Native {
            // The steady-state cost of the wrapper under either protocol:
            // one virtualized-handle lookup plus a `SEQ[ggid]` increment.
            let w = wrapper_cost(cc.ctx.world().params());
            cc.ctx.compute(w);
        }
        GateM {
            vc,
            quiesce: None,
            kind: if protocol == Protocol::TwoPhase {
                GateKind::TwoPc(TwoPcGate::P1)
            } else {
                GateKind::Cc(CcGate::Loop)
            },
        }
    }

    fn poll(&mut self, cc: &mut RankCore<'_>) -> StepPoll<(Ggid, u64)> {
        loop {
            if let Some(m) = &mut self.quiesce {
                if m.free_pass(cc) {
                    let req = cc.tb_req.as_mut().expect("free pass holds the barrier");
                    let done = cc.ctx.try_complete(req);
                    debug_assert!(done.is_some(), "free pass saw the barrier complete");
                    return StepPoll::Ready(TwoPcGate::enter(cc, self.vc));
                }
                match m.poll(cc) {
                    StepPoll::Pending(r) => return StepPoll::Pending(r),
                    StepPoll::Ready(()) => self.quiesce = None,
                }
            }
            let next = match &mut self.kind {
                GateKind::Cc(g) => g.step(cc, self.vc),
                GateKind::TwoPc(g) => g.step(cc, self.vc),
            };
            match next {
                Next::Open(counted) => return StepPoll::Ready(counted),
                Next::Wait => return StepPoll::Pending(WaitReason::Event),
                Next::Quiesce(state) => self.quiesce = Some(QuiesceM::new(cc, state)),
            }
        }
    }
}

#[derive(Clone, Copy)]
enum CcGate {
    /// Top of the gate loop: restore check, servicing, fast/drain split.
    Loop,
    /// Algorithm 2's overshoot path: the fast-path increment raced the
    /// coordinator's snapshot; await targets, then raise the target to
    /// cover it and push updates to the other members.
    FastOvershoot { ggid: Ggid, seq: u64 },
    /// Drain mode: waiting for the coordinator's initial targets.
    AwaitTargets { ggid: Ggid },
    /// Algorithm 3's parked receive loop: all targets met, waiting at the
    /// wrapper entry for a raise, the quiesce signal, or the end of the
    /// checkpoint whose `ckpt_epoch` it parked under.
    Parked { epoch: u64 },
    /// Leaving the entry park: restore the Draining/Running state.
    ParkEpilogue,
}

impl CcGate {
    fn step(&mut self, cc: &mut RankCore<'_>, vc: VComm) -> Next {
        let sh = cc.sh;
        let ctl = &sh.control.ranks[cc.rank];
        loop {
            match *self {
                CcGate::Loop => {
                    // Restore replay: the image captured this rank parked
                    // at this wrapper entry (counters include this call,
                    // `SEQ[]` does not). Afterwards the gate re-resolves
                    // against the restored lower half.
                    if at_restore_cut(cc) {
                        return Next::Quiesce(RankState::Quiesced);
                    }
                    cc.service_control();
                    let ggid = cc.vcomms.resolve(vc).1;
                    if !sh.control.is_pending() {
                        // Fast path, with the snapshot-race contract:
                        // increment under the mirror lock, then observe
                        // `pending`.
                        let seq = ctl.seq_mirror.lock().increment(ggid);
                        if sh.control.is_pending() {
                            *self = CcGate::FastOvershoot { ggid, seq };
                            continue;
                        }
                        cc.record_exec(ggid, seq);
                        return Next::Open((ggid, seq));
                    }
                    *self = CcGate::AwaitTargets { ggid };
                }
                CcGate::FastOvershoot { ggid, seq } => {
                    let StepPoll::Ready(installed) = try_await_targets(cc) else {
                        return Next::Wait;
                    };
                    // If the checkpoint ended while waiting, the overshoot
                    // is moot and the call simply proceeds.
                    if installed {
                        cc.apply_updates();
                        if seq > cc.targets.get(ggid).unwrap_or(0) {
                            cc.raise_and_broadcast(ggid, seq);
                        }
                        cc.publish_met();
                    }
                    cc.record_exec(ggid, seq);
                    return Next::Open((ggid, seq));
                }
                CcGate::AwaitTargets { ggid } => match try_await_targets(cc) {
                    StepPoll::Pending(_) => return Next::Wait,
                    // Checkpoint ended: back to the gate top.
                    StepPoll::Ready(false) => *self = CcGate::Loop,
                    // Drain mode (Algorithm 3): a rank with every target
                    // met parks at the wrapper entry; a rank with ANY
                    // unmet target keeps executing its program toward
                    // them — and every collective it runs past a target
                    // raises that target and pushes updates, the cascade
                    // of Figure 3b.
                    StepPoll::Ready(true) => {
                        cc.apply_updates();
                        let all_met = cc.targets.reached_by(&ctl.seq_mirror.lock());
                        if !all_met {
                            let seq = ctl.seq_mirror.lock().increment(ggid);
                            sh.trace.push(DrainEvent::DrainStep(cc.rank, ggid, seq));
                            if seq > cc.targets.get(ggid).unwrap_or(0) {
                                cc.raise_and_broadcast(ggid, seq);
                            }
                            cc.record_exec(ggid, seq);
                            cc.publish_met();
                            return Next::Open((ggid, seq));
                        }
                        ctl.set_state(RankState::EntryParked);
                        sh.trace.push(DrainEvent::Parked(cc.rank));
                        cc.publish_met();
                        *self = CcGate::Parked {
                            epoch: sh.control.ckpt_epoch.load(SeqCst),
                        };
                    }
                },
                CcGate::Parked { epoch } => {
                    // The not-pending gap between two checkpoints can be
                    // shorter than this park's wake latency: `pending` may
                    // read true here for the *next* checkpoint. The epoch
                    // is monotone, so comparing against the one we parked
                    // under catches that hand-off and sends the rank back
                    // through the gate to install the new targets.
                    if !sh.control.is_pending() || sh.control.ckpt_epoch.load(SeqCst) != epoch {
                        *self = CcGate::ParkEpilogue;
                    } else if sh.control.phase() == CkptPhase::Quiescing {
                        *self = CcGate::ParkEpilogue;
                        return Next::Quiesce(RankState::Quiesced);
                    } else if sh.bus.has_pending(cc.rank) {
                        cc.apply_updates();
                        cc.publish_met();
                        sh.trace.push(DrainEvent::Unparked(cc.rank));
                        *self = CcGate::ParkEpilogue;
                    } else {
                        return Next::Wait;
                    }
                }
                CcGate::ParkEpilogue => {
                    ctl.set_state(if sh.control.is_pending() {
                        RankState::Draining
                    } else {
                        RankState::Running
                    });
                    *self = CcGate::Loop;
                }
            }
        }
    }
}

/// The 2PC gate (MANA 2019, §2.2 of the paper): a *trivial barrier* — an
/// internal `MPI_Ibarrier` + `MPI_Test` loop — in front of every
/// collective. The rank may only enter the real collective once the
/// barrier completes, which proves every member has reached this entry; a
/// checkpoint intent observed while the barrier has not completed parks
/// the rank inside the barrier (captured via `pending_barrier` and
/// re-issued at restart). This is what de-pipelines non-synchronizing
/// collectives and amplifies per-rank jitter (Figure 5a).
#[derive(Clone, Copy)]
enum TwoPcGate {
    /// Stop-the-world cut, phase 1: a rank that observes the intent
    /// *before* initiating its trivial barrier stops right here — its
    /// peers' barriers then (correctly) cannot complete.
    P1,
    /// Phase 3: test-poll the trivial barrier, held in `CcRank::tb_req`
    /// (where a restart re-issues it), to completion.
    P3 { ordinal: u64, polled: bool },
}

impl TwoPcGate {
    fn step(&mut self, cc: &mut RankCore<'_>, vc: VComm) -> Next {
        loop {
            match *self {
                TwoPcGate::P1 => {
                    // Restore replay: the image captured this rank stopped
                    // at phase 1 (call counted, barrier not yet posted).
                    if at_restore_cut(cc) {
                        return Next::Quiesce(RankState::Quiesced);
                    }
                    cc.service_control();
                    if quiescing(cc) {
                        return Next::Quiesce(RankState::Quiesced);
                    }
                    let ordinal = cc.tb_ordinal;
                    cc.tb_ordinal += 1;
                    cc.counters.trivial_barriers += 1;
                    cc.tb_req = Some(cc.ctx.ibarrier(&cc.vcomms.resolve(vc).0));
                    *self = TwoPcGate::P3 {
                        ordinal,
                        polled: false,
                    };
                }
                TwoPcGate::P3 { ordinal, polled } => {
                    let req = cc.tb_req.as_mut().expect("phase 3 holds the barrier");
                    // The first check is a charged `MPI_Test`; afterwards
                    // the loop synchronizes to the barrier's exit time
                    // directly (`Ctx::try_complete`), which keeps virtual
                    // time deterministic while preserving the
                    // de-pipelining cost: this rank cannot proceed before
                    // every member has arrived.
                    let done = if polled {
                        cc.ctx.try_complete(req).is_some()
                    } else {
                        *self = TwoPcGate::P3 {
                            ordinal,
                            polled: true,
                        };
                        cc.counters.completions += 1;
                        cc.ctx.test(req).is_some()
                    };
                    if done {
                        return Next::Open(Self::enter(cc, vc));
                    }
                    // Restore replay: the image captured this rank parked
                    // inside this trivial barrier (barrier posted and
                    // first Test counted); park the same way — the barrier
                    // is re-issued against the restored lower half exactly
                    // as an in-process restart does.
                    if !at_restore_cut(cc) {
                        cc.service_control();
                        if !quiescing(cc) {
                            return Next::Wait;
                        }
                        // Intent while the barrier is in flight: finish
                        // it if every member has initiated, else park
                        // *inside* it — captured as pending and re-issued
                        // at restart, unless a late member still completes
                        // it first (`QuiesceM::free_pass`).
                        let req = cc.tb_req.as_mut().expect("phase 3 holds the barrier");
                        if cc.ctx.try_complete(req).is_some() {
                            return Next::Open(Self::enter(cc, vc));
                        }
                        let parked = DrainEvent::TrivialBarrierParked(cc.rank);
                        cc.sh.trace.push(parked);
                    }
                    *cc.sh.control.ranks[cc.rank].pending_barrier.lock() = Some((vc.0, ordinal));
                    return Next::Quiesce(RankState::InTrivialBarrier);
                }
            }
        }
    }

    /// Barrier complete: every member is at this entry. Drops the spent
    /// request and counts the call.
    fn enter(cc: &mut RankCore<'_>, vc: VComm) -> (Ggid, u64) {
        cc.tb_req = None;
        let ggid = cc.vcomms.resolve(vc).1;
        let seq = cc.sh.control.ranks[cc.rank]
            .seq_mirror
            .lock()
            .increment(ggid);
        cc.record_exec(ggid, seq);
        (ggid, seq)
    }
}

// ----------------------------------------------------------------------
// Operation machines
// ----------------------------------------------------------------------

/// Publishes whether the rank is inside a real collective call.
fn set_in_collective(cc: &RankCore<'_>, inside: bool) {
    cc.sh.control.ranks[cc.rank]
        .in_collective
        .store(inside, SeqCst);
}

/// A blocking collective (all specific calls route here).
pub(super) struct CollM {
    vc: VComm,
    op: CollOp,
    root: usize,
    payload: Option<Bytes>,
    red: Option<RedSpec>,
    stage: CollStage,
}

enum CollStage {
    Gate(GateM),
    Run(Request),
}

impl CollM {
    pub(super) fn new(
        cc: &mut RankCore<'_>,
        vc: VComm,
        op: CollOp,
        root: usize,
        payload: Bytes,
        red: Option<RedSpec>,
    ) -> CollM {
        cc.counters.coll_blocking += 1;
        CollM {
            vc,
            op,
            root,
            payload: Some(payload),
            red,
            stage: CollStage::Gate(GateM::new(cc, vc)),
        }
    }

    pub(super) fn poll(&mut self, cc: &mut RankCore<'_>) -> StepPoll<Bytes> {
        loop {
            match &mut self.stage {
                CollStage::Gate(g) => match g.poll(cc) {
                    StepPoll::Pending(r) => return StepPoll::Pending(r),
                    StepPoll::Ready(_) => {
                        set_in_collective(cc, true);
                        let req = cc.ctx.coll_begin(
                            &cc.vcomms.resolve(self.vc).0,
                            self.op,
                            self.root,
                            self.payload.take().expect("payload consumed once"),
                            self.red,
                        );
                        self.stage = CollStage::Run(req);
                    }
                },
                CollStage::Run(req) => {
                    let Some(c) = cc.ctx.try_complete(req) else {
                        return StepPoll::Pending(WaitReason::Event);
                    };
                    set_in_collective(cc, false);
                    cc.service_control();
                    return StepPoll::Ready(c.data);
                }
            }
        }
    }
}

/// A non-blocking collective initiation (initiation counts — §4.3.1). The
/// initiation itself can pend (the gate drains); once `Ready` the request
/// is initiated and progresses independently.
pub(super) struct ICollM {
    vc: VComm,
    op: CollOp,
    root: usize,
    payload: Option<Bytes>,
    red: Option<RedSpec>,
    gate: GateM,
}

impl ICollM {
    pub(super) fn new(
        cc: &mut RankCore<'_>,
        vc: VComm,
        op: CollOp,
        root: usize,
        payload: Bytes,
        red: Option<RedSpec>,
    ) -> ICollM {
        assert!(
            cc.sh.protocol.supports_nonblocking_collectives(),
            "{} does not support non-blocking collectives",
            cc.sh.protocol.name()
        );
        cc.counters.coll_nonblocking += 1;
        ICollM {
            vc,
            op,
            root,
            payload: Some(payload),
            red,
            gate: GateM::new(cc, vc),
        }
    }

    pub(super) fn poll(&mut self, cc: &mut RankCore<'_>) -> StepPoll<VReq> {
        match self.gate.poll(cc) {
            StepPoll::Pending(r) => StepPoll::Pending(r),
            StepPoll::Ready(_) => {
                set_in_collective(cc, true);
                let req = cc.ctx.icollective(
                    &cc.vcomms.resolve(self.vc).0,
                    self.op,
                    self.root,
                    self.payload.take().expect("payload consumed once"),
                    self.red,
                );
                set_in_collective(cc, false);
                StepPoll::Ready(cc.vreqs.insert(req, VReqKind::Coll { vcomm: self.vc }))
            }
        }
    }
}

/// Whether a checkpoint is collecting parks right now: the intent every
/// interposition point outside the CC gate acts on.
fn quiescing(cc: &RankCore<'_>) -> bool {
    cc.sh.control.is_pending() && cc.sh.control.phase() == CkptPhase::Quiescing
}

/// `MPI_Wait`: completes the request, cooperating with the checkpoint
/// engine (servicing the control plane, parking for capture) while it
/// cannot.
pub(super) struct WaitM {
    v: VReq,
    quiesce: Option<QuiesceM>,
}

impl WaitM {
    pub(super) fn new(cc: &mut RankCore<'_>, v: VReq) -> WaitM {
        cc.counters.completions += 1;
        WaitM { v, quiesce: None }
    }

    pub(super) fn poll(&mut self, cc: &mut RankCore<'_>) -> StepPoll<Completion> {
        loop {
            if let Some(m) = &mut self.quiesce {
                match m.poll(cc) {
                    StepPoll::Pending(r) => return StepPoll::Pending(r),
                    StepPoll::Ready(()) => self.quiesce = None,
                }
            }
            match cc.vreqs.take(self.v) {
                None => return StepPoll::Ready(Completion::empty()),
                Some(VReqState::Ready(c)) => return StepPoll::Ready(c),
                Some(VReqState::Active(mut req, kind)) => {
                    let state = if matches!(kind, VReqKind::Recv { .. }) {
                        RankState::RecvParked
                    } else {
                        RankState::Quiesced
                    };
                    // Restore replay: the image captured this rank parked
                    // inside this wait. The check runs *before*
                    // `try_complete` — replay wall-clock interleaving may
                    // have made the operation completable earlier than
                    // the capture did, and the cut must win that race.
                    let at_cut = at_restore_cut(cc);
                    if !at_cut {
                        if let Some(c) = cc.ctx.try_complete(&mut req) {
                            return StepPoll::Ready(c);
                        }
                    }
                    cc.vreqs.put_back(self.v, VReqState::Active(req, kind));
                    if !at_cut {
                        cc.service_control();
                        if !quiescing(cc) {
                            return StepPoll::Pending(WaitReason::Event);
                        }
                    }
                    self.quiesce = Some(QuiesceM::new(cc, state));
                }
            }
        }
    }
}

/// `MPI_Test`: one charged completion check, also cooperating with a
/// quiesce in progress — so unlike the lower half's `test` it can pend.
pub(super) struct TestM {
    v: VReq,
    quiesce: Option<QuiesceM>,
    serviced: bool,
}

impl TestM {
    pub(super) fn new(cc: &mut RankCore<'_>, v: VReq) -> TestM {
        cc.counters.completions += 1;
        // Restore replay: the image captured this rank quiesced at this
        // test call.
        let quiesce = at_restore_cut(cc).then(|| QuiesceM::new(cc, RankState::Quiesced));
        TestM {
            v,
            quiesce,
            serviced: false,
        }
    }

    pub(super) fn poll(&mut self, cc: &mut RankCore<'_>) -> StepPoll<Option<Completion>> {
        loop {
            if let Some(m) = &mut self.quiesce {
                match m.poll(cc) {
                    StepPoll::Pending(r) => return StepPoll::Pending(r),
                    StepPoll::Ready(()) => self.quiesce = None,
                }
            }
            if !self.serviced {
                self.serviced = true;
                cc.service_control();
                if quiescing(cc) {
                    self.quiesce = Some(QuiesceM::new(cc, RankState::Quiesced));
                    continue;
                }
            }
            return StepPoll::Ready(match cc.vreqs.take(self.v) {
                None => Some(Completion::empty()),
                Some(VReqState::Ready(c)) => Some(c),
                Some(VReqState::Active(mut req, kind)) => {
                    let done = cc.ctx.test(&mut req);
                    if done.is_none() {
                        cc.vreqs.put_back(self.v, VReqState::Active(req, kind));
                    }
                    done
                }
            });
        }
    }
}

/// Which communicator-management call a [`CommM`] runs.
pub(super) enum CommKind {
    /// `MPI_Comm_split`.
    Split { color: i64, key: i64 },
    /// `MPI_Comm_dup`.
    Dup,
    /// `MPI_Comm_create` with `members` as world ranks in group order.
    Create { members: Vec<usize> },
}

/// Communicator creation (collective on the parent — counted): gate, begin
/// the creation's synchronizing allgather, complete it, then build and
/// record the new communicator.
pub(super) struct CommM {
    vc: VComm,
    kind: CommKind,
    stage: CommStage,
}

enum CommStage {
    Gate(GateM),
    Run { req: Request, seq: u64 },
}

impl CommM {
    pub(super) fn new(cc: &mut RankCore<'_>, vc: VComm, kind: CommKind) -> CommM {
        cc.counters.comm_mgmt += 1;
        CommM {
            vc,
            kind,
            stage: CommStage::Gate(GateM::new(cc, vc)),
        }
    }

    pub(super) fn poll(&mut self, cc: &mut RankCore<'_>) -> StepPoll<Option<VComm>> {
        loop {
            match &mut self.stage {
                CommStage::Gate(g) => match g.poll(cc) {
                    StepPoll::Pending(r) => return StepPoll::Pending(r),
                    StepPoll::Ready(_) => {
                        set_in_collective(cc, true);
                        let parent = &cc.vcomms.resolve(self.vc).0;
                        let (req, seq) = match self.kind {
                            CommKind::Split { color, key } => {
                                cc.ctx.comm_split_begin(parent, color, key)
                            }
                            CommKind::Dup => cc.ctx.comm_dup_begin(parent),
                            CommKind::Create { .. } => cc.ctx.comm_create_begin(parent),
                        };
                        self.stage = CommStage::Run { req, seq };
                    }
                },
                CommStage::Run { req, seq } => {
                    let Some(c) = cc.ctx.try_complete(req) else {
                        return StepPoll::Pending(WaitReason::Event);
                    };
                    // The rank has not parked since the begin, so no
                    // restart can have replaced the handle it began on.
                    let (parent, seq, vc) = (&cc.vcomms.resolve(self.vc).0, *seq, self.vc);
                    let (sub, op) = match &mut self.kind {
                        &mut CommKind::Split { color, key } => (
                            cc.ctx.comm_split_finish(parent, seq, color, &c.data),
                            CommOp::Split {
                                parent: vc,
                                color,
                                key,
                            },
                        ),
                        CommKind::Dup => (
                            Some(cc.ctx.comm_dup_finish(parent, seq)),
                            CommOp::Dup { parent: vc },
                        ),
                        CommKind::Create { members } => (
                            cc.ctx
                                .comm_create_finish(parent, seq, &Group::new(members.clone())),
                            CommOp::Create {
                                parent: vc,
                                members: std::mem::take(members),
                            },
                        ),
                    };
                    set_in_collective(cc, false);
                    let lower = sub.map(|c| {
                        let g = ggid_of(c.group());
                        cc.sh.control.ranks[cc.rank]
                            .seq_mirror
                            .lock()
                            .register_group(g, c.group().sorted_members());
                        (c, g)
                    });
                    return StepPoll::Ready(cc.vcomms.record_creation(op, lower));
                }
            }
        }
    }
}

/// The machine of a rank's operation in flight (`CcRank::op`).
pub(super) enum Op {
    Coll(CollM),
    IColl(ICollM),
    Wait(WaitM),
    Comm(CommM),
}

impl Op {
    pub(super) fn name(&self) -> &'static str {
        match self {
            Op::Coll(_) => "collective",
            Op::IColl(_) => "icollective",
            Op::Wait(_) => "wait",
            Op::Comm(m) => match m.kind {
                CommKind::Split { .. } => "comm_split",
                CommKind::Dup => "comm_dup",
                CommKind::Create { .. } => "comm_create",
            },
        }
    }
}

// ----------------------------------------------------------------------
// The poll API
// ----------------------------------------------------------------------

/// The name step bodies spell the rank type by. There is one rank type;
/// the alias goes when the frozen benchmark, which names it, is re-based
/// (ROADMAP item 1(d)).
pub type StepRank<'s> = CcRank<'s>;

/// The idempotent-start protocol of every `poll_*` method: the first call
/// builds the operation's machine (`$new`), later calls resume it, and a
/// `Ready` result clears it.
macro_rules! poll_op {
    ($self:ident, $name:literal, $variant:ident, $new:expr) => {{
        $self.expect_op($name, true);
        if $self.op.is_none() {
            $self.op = Some(Op::$variant($new));
        }
        let Some(Op::$variant(m)) = &mut $self.op else {
            unreachable!("expect_op checked the operation in flight")
        };
        let r = m.poll(&mut $self.core);
        if r.is_ready() {
            $self.op = None;
        }
        r
    }};
}

impl CcRank<'_> {
    /// Panics if an operation other than `want` is in flight (`started`:
    /// whether `want` itself may be — it is a poll, not a single-call
    /// entry point).
    pub(super) fn expect_op(&self, want: &'static str, started: bool) {
        if let Some(op) = &self.op {
            let name = op.name();
            assert!(
                started && name == want,
                "rank resumed into `{want}` with a pending `{name}` operation"
            );
        }
    }

    /// Poll form of [`CcRank::collective`]. `payload` is consumed on the
    /// constructing call; re-polls ignore it.
    pub fn poll_collective(
        &mut self,
        vc: VComm,
        op: CollOp,
        root: usize,
        payload: &Bytes,
        red: Option<RedSpec>,
    ) -> StepPoll<Bytes> {
        poll_op!(
            self,
            "collective",
            Coll,
            CollM::new(&mut self.core, vc, op, root, payload.clone(), red)
        )
    }

    /// Poll form of [`CcRank::barrier`].
    pub fn poll_barrier(&mut self, vc: VComm) -> StepPoll<()> {
        self.poll_collective(vc, CollOp::Barrier, 0, &Bytes::new(), None)
            .map(|_| ())
    }

    /// Poll form of [`CcRank::bcast`].
    pub fn poll_bcast(&mut self, vc: VComm, root: usize, data: &Bytes) -> StepPoll<Bytes> {
        self.poll_collective(vc, CollOp::Bcast, root, data, None)
    }

    /// Poll form of [`CcRank::allreduce`].
    pub fn poll_allreduce(
        &mut self,
        vc: VComm,
        data: &Bytes,
        dtype: DType,
        op: ReduceOp,
    ) -> StepPoll<Bytes> {
        self.poll_collective(vc, CollOp::Allreduce, 0, data, Some(RedSpec { dtype, op }))
    }

    /// Poll form of [`CcRank::allreduce_f64`].
    pub fn poll_allreduce_f64(
        &mut self,
        vc: VComm,
        data: &[f64],
        op: ReduceOp,
    ) -> StepPoll<Vec<f64>> {
        self.poll_allreduce(vc, &encode_f64(data), DType::F64, op)
            .map(|b| decode_f64(&b))
    }

    /// Poll form of [`CcRank::allgather`].
    pub fn poll_allgather(&mut self, vc: VComm, data: &Bytes) -> StepPoll<Bytes> {
        self.poll_collective(vc, CollOp::Allgather, 0, data, None)
    }

    /// Poll form of [`CcRank::icollective`].
    pub fn poll_icollective(
        &mut self,
        vc: VComm,
        op: CollOp,
        root: usize,
        payload: &Bytes,
        red: Option<RedSpec>,
    ) -> StepPoll<VReq> {
        poll_op!(
            self,
            "icollective",
            IColl,
            ICollM::new(&mut self.core, vc, op, root, payload.clone(), red)
        )
    }

    /// Poll form of [`CcRank::iallreduce`].
    pub fn poll_iallreduce(
        &mut self,
        vc: VComm,
        data: &Bytes,
        dtype: DType,
        op: ReduceOp,
    ) -> StepPoll<VReq> {
        self.poll_icollective(vc, CollOp::Allreduce, 0, data, Some(RedSpec { dtype, op }))
    }

    /// Poll form of [`CcRank::wait`].
    pub fn poll_wait(&mut self, v: VReq) -> StepPoll<Completion> {
        if let Some(Op::Wait(m)) = &self.op {
            assert_eq!(m.v, v, "rank resumed `wait` with a different request");
        }
        poll_op!(self, "wait", Wait, WaitM::new(&mut self.core, v))
    }

    /// Poll form of [`CcRank::comm_split`].
    pub fn poll_comm_split(&mut self, vc: VComm, color: i64, key: i64) -> StepPoll<Option<VComm>> {
        let kind = CommKind::Split { color, key };
        poll_op!(
            self,
            "comm_split",
            Comm,
            CommM::new(&mut self.core, vc, kind)
        )
    }

    /// Poll form of [`CcRank::comm_dup`].
    pub fn poll_comm_dup(&mut self, vc: VComm) -> StepPoll<VComm> {
        poll_op!(
            self,
            "comm_dup",
            Comm,
            CommM::new(&mut self.core, vc, CommKind::Dup)
        )
        .map(|v| v.expect("dup always yields a communicator"))
    }
}
