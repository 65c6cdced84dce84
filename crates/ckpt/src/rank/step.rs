//! `StepRank`: the checkpoint-aware rank interface for step-function
//! (heap-allocated, resumable) rank bodies.
//!
//! This module is the poll-driven mirror of [`CcRank`]'s blocking paths:
//! every wrapper-layer wait — the CC drain gate, the 2PC trivial barrier,
//! `MPI_Wait`, the quiesce/capture park — is re-expressed as an explicit
//! state machine that either *completes* or returns
//! [`StepPoll::Pending`], at which point the rank body yields back to the
//! [`mpisim::StepDriver`] and occupies nothing but its own heap object.
//!
//! The protocol semantics are untouched by construction: each machine
//! performs the same counter increments, `SEQ[]` mirror updates, trace
//! events, target raises, and capture publications in the same order as
//! the blocking method it mirrors, and every lower-half wait goes through
//! the *uncharged* completion path ([`mpisim::Ctx::try_complete`] /
//! [`mpisim::Ctx::coll_begin`]) that the blocking code's own poll loops
//! already use — so virtual-time trajectories, checkpoint captures, and
//! the `CallCounters`+`SEQ[]` restore-replay contract are bit-identical
//! across the two continuation representations.
//!
//! Call protocol: each `poll_*` method is *idempotent-start* — the first
//! call constructs the operation's machine (performing its entry effects,
//! e.g. counter increments), subsequent calls resume it, and a `Ready`
//! return clears it. A body must keep re-polling the same operation until
//! `Ready`; starting a different operation while one is in flight is a
//! body bug and panics.

use super::CcRank;
use crate::session::Session;
use bytes::Bytes;
use mana_core::{
    ggid_of, CkptPhase, CommOp, DrainEvent, Ggid, Protocol, RankState, VComm, VReq, VReqKind,
    VReqState,
};
use mpisim::collective::RedSpec;
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::sched::WaitReason;
use mpisim::{CollOp, Completion, DType, ReduceOp, Request, SrcSel, TagSel, VTime};
use netmodel::wrapper_cost;
use std::sync::atomic::Ordering::SeqCst;

/// Outcome of polling a step-rank operation.
#[derive(Debug)]
pub enum StepPoll<T> {
    /// The operation completed with this result.
    Ready(T),
    /// The operation cannot progress; yield to the driver with this
    /// wait reason.
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
}

/// Marks this rank's restore cut reached (the first half of the blocking
/// path's `park_for_restore`; the quiesce half is a machine).
fn mark_restore_reached(cc: &CcRank<'_>) {
    cc.sh
        .restore
        .as_ref()
        .expect("cut implies restore plan")
        .reached[cc.rank]
        .store(true, SeqCst);
}

/// The poll form of [`CcRank::await_targets`]: `Ready(false)` when the
/// checkpoint ended while waiting, `Ready(true)` once targets are
/// installed. Wakes arrive from target installation and `clear_pending`,
/// both of which wake the rank's control slot.
fn try_await_targets(cc: &mut CcRank<'_>) -> StepPoll<bool> {
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

/// The poll form of [`CcRank::quiesce`]: complete initiated non-blocking
/// collectives, revert matched receives, publish the capture, park until
/// resume (restoring into a fresh lower half if the coordinator installed
/// one), then run the resume epilogue.
struct QuiesceM {
    state: RankState,
    stage: QStage,
}

enum QStage {
    /// §4.3.2: run every initiated non-blocking collective to completion.
    /// All participants have initiated, so each completes without further
    /// waits in the steady state; the `Pending` arm is defensive.
    Colls { ids: Vec<VReq>, idx: usize },
    /// Captured and parked; waiting for resume or a fresh lower half.
    Park { my_gen: u64, restarted: bool },
}

impl QuiesceM {
    fn new(cc: &mut CcRank<'_>, state: RankState) -> QuiesceM {
        QuiesceM {
            state,
            stage: QStage::Colls {
                ids: cc.vreqs.active_collectives(),
                idx: 0,
            },
        }
    }

    fn poll(&mut self, cc: &mut CcRank<'_>) -> StepPoll<()> {
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
                    // Matched-but-uncompleted receives: revert into the
                    // mailbox (not an injection — see the blocking path).
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
                        if let Some(plan) = &sh.restore {
                            cc.ctx.set_clock(plan.cuts[cc.rank].clock);
                        }
                        cc.repost_pending_recvs();
                        cc.repost_trivial_barrier();
                    }
                    let io_ns = sh.control.ranks[cc.rank].io_charge_ns.swap(0, SeqCst);
                    if io_ns > 0 {
                        cc.ctx.compute(io_ns as f64 * 1e-9);
                    }
                    cc.publish_clock();
                    sh.control.ranks[cc.rank].set_state(RankState::Running);
                    return StepPoll::Ready(());
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The drain gate (poll form of Algorithms 2 & 3)
// ----------------------------------------------------------------------

/// Poll form of [`CcRank::coll_gate`] / [`CcRank::coll_gate_2pc`]. Like
/// them it yields the group id and sequence number only; the call site
/// resolves the communicator by reference once the gate is open.
struct GateM {
    vc: VComm,
    inner: GateKind,
}

enum GateKind {
    Cc(CcGate),
    TwoPc(TwoPcGate),
}

impl GateM {
    fn new(cc: &mut CcRank<'_>, vc: VComm) -> GateM {
        let inner = match cc.sh.protocol {
            Protocol::TwoPhase => {
                let w = wrapper_cost(cc.ctx.world().params());
                cc.ctx.compute(w);
                GateKind::TwoPc(TwoPcGate::P1)
            }
            Protocol::Cc => {
                // The CC steady-state cost: one virtualized-handle lookup
                // plus a `SEQ[ggid]` increment.
                let w = wrapper_cost(cc.ctx.world().params());
                cc.ctx.compute(w);
                GateKind::Cc(CcGate::Loop)
            }
            Protocol::Native => GateKind::Cc(CcGate::Loop),
        };
        GateM { vc, inner }
    }

    fn poll(&mut self, cc: &mut CcRank<'_>) -> StepPoll<(Ggid, u64)> {
        let vc = self.vc;
        match &mut self.inner {
            GateKind::Cc(g) => g.poll(cc, vc),
            GateKind::TwoPc(g) => g.poll(cc, vc),
        }
    }
}

enum CcAfter {
    Loop,
    ParkEpilogue,
}

enum CcGate {
    /// Top of the gate loop: restore check, servicing, fast/drain split.
    Loop,
    /// Fast-path increment raced the coordinator's snapshot; await
    /// targets, then raise-and-broadcast if we overshot (Algorithm 2).
    FastOvershoot { ggid: Ggid, seq: u64 },
    /// Drain mode: waiting for the coordinator's initial targets.
    AwaitTargets { ggid: Ggid },
    /// All targets met: parked at the wrapper entry (Algorithm 3).
    Parked,
    /// Leaving the entry park: restore the Draining/Running state.
    ParkEpilogue,
    /// Quiescing (capture park); `after` resumes the gate.
    Quiesce { m: QuiesceM, after: CcAfter },
}

impl CcGate {
    fn poll(&mut self, cc: &mut CcRank<'_>, vc: VComm) -> StepPoll<(Ggid, u64)> {
        loop {
            match std::mem::replace(self, CcGate::Loop) {
                CcGate::Quiesce { mut m, after } => match m.poll(cc) {
                    StepPoll::Pending(r) => {
                        *self = CcGate::Quiesce { m, after };
                        return StepPoll::Pending(r);
                    }
                    StepPoll::Ready(()) => {
                        *self = match after {
                            CcAfter::Loop => CcGate::Loop,
                            CcAfter::ParkEpilogue => CcGate::ParkEpilogue,
                        };
                    }
                },
                CcGate::Loop => {
                    // Restore replay: the image captured this rank parked
                    // at this wrapper entry.
                    if cc.restore_cut_due() {
                        mark_restore_reached(cc);
                        *self = CcGate::Quiesce {
                            m: QuiesceM::new(cc, RankState::Quiesced),
                            after: CcAfter::Loop,
                        };
                        continue;
                    }
                    cc.service_control();
                    let sh = cc.sh;
                    let ggid = cc.vcomms.resolve(vc).1;
                    if !sh.control.is_pending() {
                        // Fast path, with the snapshot-race contract:
                        // increment under the mirror lock, then observe
                        // `pending`.
                        let seq = sh.control.ranks[cc.rank].seq_mirror.lock().increment(ggid);
                        if sh.control.is_pending() {
                            *self = CcGate::FastOvershoot { ggid, seq };
                            continue;
                        }
                        cc.record_exec(ggid, seq);
                        return StepPoll::Ready((ggid, seq));
                    }
                    *self = CcGate::AwaitTargets { ggid };
                }
                CcGate::FastOvershoot { ggid, seq } => match try_await_targets(cc) {
                    StepPoll::Pending(r) => {
                        *self = CcGate::FastOvershoot { ggid, seq };
                        return StepPoll::Pending(r);
                    }
                    StepPoll::Ready(false) => {
                        // Checkpoint ended while waiting: the overshoot is
                        // moot, the call proceeds.
                        cc.record_exec(ggid, seq);
                        return StepPoll::Ready((ggid, seq));
                    }
                    StepPoll::Ready(true) => {
                        cc.apply_updates();
                        if seq > cc.targets.get(ggid).unwrap_or(0) {
                            cc.raise_and_broadcast(ggid, seq);
                        }
                        cc.publish_met();
                        cc.record_exec(ggid, seq);
                        return StepPoll::Ready((ggid, seq));
                    }
                },
                CcGate::AwaitTargets { ggid } => match try_await_targets(cc) {
                    StepPoll::Pending(r) => {
                        *self = CcGate::AwaitTargets { ggid };
                        return StepPoll::Pending(r);
                    }
                    StepPoll::Ready(false) => {
                        // Checkpoint ended: back to the gate top.
                    }
                    StepPoll::Ready(true) => {
                        cc.apply_updates();
                        let sh = cc.sh;
                        let all_met = {
                            let t = sh.control.ranks[cc.rank].seq_mirror.lock();
                            cc.targets.reached_by(&t)
                        };
                        if !all_met {
                            // Drain step: keep executing toward the unmet
                            // targets, raising past ones (Figure 3b).
                            let seq = sh.control.ranks[cc.rank].seq_mirror.lock().increment(ggid);
                            sh.trace.push(DrainEvent::DrainStep(cc.rank, ggid, seq));
                            if seq > cc.targets.get(ggid).unwrap_or(0) {
                                cc.raise_and_broadcast(ggid, seq);
                            }
                            cc.record_exec(ggid, seq);
                            cc.publish_met();
                            return StepPoll::Ready((ggid, seq));
                        }
                        // Entry effects of the entry park.
                        let ctl = &sh.control.ranks[cc.rank];
                        ctl.set_state(RankState::EntryParked);
                        sh.trace.push(DrainEvent::Parked(cc.rank));
                        cc.publish_met();
                        *self = CcGate::Parked;
                    }
                },
                CcGate::Parked => {
                    let sh = cc.sh;
                    if !sh.control.is_pending() {
                        *self = CcGate::ParkEpilogue;
                    } else if sh.control.phase() == CkptPhase::Quiescing {
                        *self = CcGate::Quiesce {
                            m: QuiesceM::new(cc, RankState::Quiesced),
                            after: CcAfter::ParkEpilogue,
                        };
                    } else if sh.bus.has_pending(cc.rank) {
                        cc.apply_updates();
                        cc.publish_met();
                        sh.trace.push(DrainEvent::Unparked(cc.rank));
                        *self = CcGate::ParkEpilogue;
                    } else {
                        *self = CcGate::Parked;
                        return StepPoll::Pending(WaitReason::Event);
                    }
                }
                CcGate::ParkEpilogue => {
                    let sh = cc.sh;
                    sh.control.ranks[cc.rank].set_state(if sh.control.is_pending() {
                        RankState::Draining
                    } else {
                        RankState::Running
                    });
                }
            }
        }
    }
}

enum TpAfter {
    P1,
    /// Resume the test-poll loop: re-take the (possibly re-issued)
    /// trivial-barrier request from its capture stash.
    P3 {
        ordinal: u64,
        polled: bool,
    },
}

enum TwoPcGate {
    /// Phase 1: a rank that observes the intent before initiating its
    /// trivial barrier stops right here.
    P1,
    /// Phase 3: test-poll the trivial barrier to completion.
    P3 {
        ordinal: u64,
        polled: bool,
        req: Option<Request>,
    },
    Quiesce {
        m: QuiesceM,
        after: TpAfter,
    },
}

impl TwoPcGate {
    fn poll(&mut self, cc: &mut CcRank<'_>, vc: VComm) -> StepPoll<(Ggid, u64)> {
        loop {
            match std::mem::replace(self, TwoPcGate::P1) {
                TwoPcGate::Quiesce { mut m, after } => match m.poll(cc) {
                    StepPoll::Pending(r) => {
                        *self = TwoPcGate::Quiesce { m, after };
                        return StepPoll::Pending(r);
                    }
                    StepPoll::Ready(()) => match after {
                        TpAfter::P1 => *self = TwoPcGate::P1,
                        TpAfter::P3 { ordinal, polled } => {
                            let req = cc
                                .tb_req
                                .take()
                                .expect("trivial barrier request survives the capture");
                            *cc.sh.control.ranks[cc.rank].pending_barrier.lock() = None;
                            *self = TwoPcGate::P3 {
                                ordinal,
                                polled,
                                req: Some(req),
                            };
                        }
                    },
                },
                TwoPcGate::P1 => {
                    // Restore replay: the image captured this rank stopped
                    // at phase 1 (call counted, barrier not yet posted).
                    if cc.restore_cut_due() {
                        mark_restore_reached(cc);
                        *self = TwoPcGate::Quiesce {
                            m: QuiesceM::new(cc, RankState::Quiesced),
                            after: TpAfter::P1,
                        };
                        continue;
                    }
                    cc.service_control();
                    let sh = cc.sh;
                    if sh.control.is_pending() && sh.control.phase() == CkptPhase::Quiescing {
                        *self = TwoPcGate::Quiesce {
                            m: QuiesceM::new(cc, RankState::Quiesced),
                            after: TpAfter::P1,
                        };
                        continue;
                    }
                    let ordinal = cc.tb_ordinal;
                    cc.tb_ordinal += 1;
                    cc.counters.trivial_barriers += 1;
                    let req = cc.ctx.ibarrier(&cc.vcomms.resolve(vc).0);
                    *self = TwoPcGate::P3 {
                        ordinal,
                        polled: false,
                        req: Some(req),
                    };
                }
                TwoPcGate::P3 {
                    ordinal,
                    mut polled,
                    req,
                } => {
                    let mut req = req.expect("live trivial-barrier request");
                    // The first check is a charged `MPI_Test`; afterwards
                    // the loop synchronizes to the barrier's exit time
                    // directly (`Ctx::try_complete`) — see the blocking
                    // path for why this keeps virtual time deterministic.
                    let done = if polled {
                        cc.ctx.try_complete(&mut req).is_some()
                    } else {
                        polled = true;
                        cc.counters.completions += 1;
                        cc.ctx.test(&mut req).is_some()
                    };
                    if done {
                        return StepPoll::Ready(Self::enter(cc, vc));
                    }
                    // Restore replay: the image captured this rank parked
                    // inside this trivial barrier.
                    if cc.restore_cut_due() {
                        *cc.sh.control.ranks[cc.rank].pending_barrier.lock() =
                            Some((vc.0, ordinal));
                        cc.tb_req = Some(req);
                        mark_restore_reached(cc);
                        *self = TwoPcGate::Quiesce {
                            m: QuiesceM::new(cc, RankState::InTrivialBarrier),
                            after: TpAfter::P3 { ordinal, polled },
                        };
                        continue;
                    }
                    cc.service_control();
                    let sh = cc.sh;
                    if sh.control.is_pending() && sh.control.phase() == CkptPhase::Quiescing {
                        // Intent while the barrier is in flight: complete
                        // it if every member has initiated, else park
                        // *inside* it (captured and re-issued at restart).
                        if cc.ctx.try_complete(&mut req).is_some() {
                            return StepPoll::Ready(Self::enter(cc, vc));
                        }
                        *cc.sh.control.ranks[cc.rank].pending_barrier.lock() =
                            Some((vc.0, ordinal));
                        cc.tb_req = Some(req);
                        sh.trace.push(DrainEvent::TrivialBarrierParked(cc.rank));
                        *self = TwoPcGate::Quiesce {
                            m: QuiesceM::new(cc, RankState::InTrivialBarrier),
                            after: TpAfter::P3 { ordinal, polled },
                        };
                        continue;
                    }
                    *self = TwoPcGate::P3 {
                        ordinal,
                        polled,
                        req: Some(req),
                    };
                    return StepPoll::Pending(WaitReason::Event);
                }
            }
        }
    }

    /// Barrier complete: every member is at this entry. Count the call.
    fn enter(cc: &mut CcRank<'_>, vc: VComm) -> (Ggid, u64) {
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

/// Poll form of [`CcRank::collective`].
struct CollM {
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
    fn new(
        cc: &mut CcRank<'_>,
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

    fn poll(&mut self, cc: &mut CcRank<'_>) -> StepPoll<Bytes> {
        loop {
            match &mut self.stage {
                CollStage::Gate(g) => match g.poll(cc) {
                    StepPoll::Pending(r) => return StepPoll::Pending(r),
                    StepPoll::Ready(_) => {
                        cc.sh.control.ranks[cc.rank]
                            .in_collective
                            .store(true, SeqCst);
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
                    cc.sh.control.ranks[cc.rank]
                        .in_collective
                        .store(false, SeqCst);
                    cc.service_control();
                    return StepPoll::Ready(c.data);
                }
            }
        }
    }
}

/// Poll form of [`CcRank::icollective`].
struct ICollM {
    vc: VComm,
    op: CollOp,
    root: usize,
    payload: Option<Bytes>,
    red: Option<RedSpec>,
    gate: GateM,
}

impl ICollM {
    fn new(
        cc: &mut CcRank<'_>,
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

    fn poll(&mut self, cc: &mut CcRank<'_>) -> StepPoll<VReq> {
        match self.gate.poll(cc) {
            StepPoll::Pending(r) => StepPoll::Pending(r),
            StepPoll::Ready(_) => {
                let sh = cc.sh;
                sh.control.ranks[cc.rank].in_collective.store(true, SeqCst);
                let req = cc.ctx.icollective(
                    &cc.vcomms.resolve(self.vc).0,
                    self.op,
                    self.root,
                    self.payload.take().expect("payload consumed once"),
                    self.red,
                );
                sh.control.ranks[cc.rank].in_collective.store(false, SeqCst);
                StepPoll::Ready(cc.vreqs.insert(req, VReqKind::Coll { vcomm: self.vc }))
            }
        }
    }
}

/// Poll form of [`CcRank::wait`].
struct WaitM {
    v: VReq,
    stage: WaitStage,
}

enum WaitStage {
    Poll,
    Quiesce(QuiesceM),
}

impl WaitM {
    fn new(cc: &mut CcRank<'_>, v: VReq) -> WaitM {
        cc.counters.completions += 1;
        WaitM {
            v,
            stage: WaitStage::Poll,
        }
    }

    fn poll(&mut self, cc: &mut CcRank<'_>) -> StepPoll<Completion> {
        loop {
            match &mut self.stage {
                WaitStage::Quiesce(m) => match m.poll(cc) {
                    StepPoll::Pending(r) => return StepPoll::Pending(r),
                    StepPoll::Ready(()) => self.stage = WaitStage::Poll,
                },
                WaitStage::Poll => match cc.vreqs.take(self.v) {
                    None => return StepPoll::Ready(Completion::empty()),
                    Some(VReqState::Ready(c)) => return StepPoll::Ready(c),
                    Some(VReqState::Active(req, kind)) => {
                        let is_recv = matches!(kind, VReqKind::Recv { .. });
                        let state = if is_recv {
                            RankState::RecvParked
                        } else {
                            RankState::Quiesced
                        };
                        // Restore replay: the check runs *before*
                        // `try_complete` — the cut must win the race
                        // against a replay that made the operation
                        // completable earlier than the capture did.
                        if cc.restore_cut_due() {
                            cc.vreqs.put_back(self.v, VReqState::Active(req, kind));
                            mark_restore_reached(cc);
                            self.stage = WaitStage::Quiesce(QuiesceM::new(cc, state));
                            continue;
                        }
                        let mut req = req;
                        if let Some(c) = cc.ctx.try_complete(&mut req) {
                            return StepPoll::Ready(c);
                        }
                        cc.vreqs.put_back(self.v, VReqState::Active(req, kind));
                        cc.service_control();
                        let sh = cc.sh;
                        if sh.control.is_pending() && sh.control.phase() == CkptPhase::Quiescing {
                            self.stage = WaitStage::Quiesce(QuiesceM::new(cc, state));
                            continue;
                        }
                        return StepPoll::Pending(WaitReason::Event);
                    }
                },
            }
        }
    }
}

/// Poll form of [`CcRank::comm_split`].
struct SplitM {
    vc: VComm,
    color: i64,
    key: i64,
    stage: SplitStage,
}

enum SplitStage {
    Gate(GateM),
    Run { req: Request, seq: u64 },
}

impl SplitM {
    fn new(cc: &mut CcRank<'_>, vc: VComm, color: i64, key: i64) -> SplitM {
        cc.counters.comm_mgmt += 1;
        SplitM {
            vc,
            color,
            key,
            stage: SplitStage::Gate(GateM::new(cc, vc)),
        }
    }

    fn poll(&mut self, cc: &mut CcRank<'_>) -> StepPoll<Option<VComm>> {
        loop {
            match &mut self.stage {
                SplitStage::Gate(g) => match g.poll(cc) {
                    StepPoll::Pending(r) => return StepPoll::Pending(r),
                    StepPoll::Ready(_) => {
                        let sh = cc.sh;
                        sh.control.ranks[cc.rank].in_collective.store(true, SeqCst);
                        let parent = &cc.vcomms.resolve(self.vc).0;
                        let (req, seq) = cc.ctx.comm_split_begin(parent, self.color, self.key);
                        self.stage = SplitStage::Run { req, seq };
                    }
                },
                SplitStage::Run { req, seq } => {
                    let Some(c) = cc.ctx.try_complete(req) else {
                        return StepPoll::Pending(WaitReason::Event);
                    };
                    // The rank has not parked since the begin, so no
                    // restart can have replaced the handle it began on.
                    let parent = &cc.vcomms.resolve(self.vc).0;
                    let sub = cc.ctx.comm_split_finish(parent, *seq, self.color, &c.data);
                    let sh = cc.sh;
                    sh.control.ranks[cc.rank].in_collective.store(false, SeqCst);
                    let lower = sub.map(|c| {
                        let g = ggid_of(c.group());
                        sh.control.ranks[cc.rank]
                            .seq_mirror
                            .lock()
                            .register_group(g, c.group().sorted_members());
                        (c, g)
                    });
                    return StepPoll::Ready(cc.vcomms.record_creation(
                        CommOp::Split {
                            parent: self.vc,
                            color: self.color,
                            key: self.key,
                        },
                        lower,
                    ));
                }
            }
        }
    }
}

/// Poll form of [`CcRank::comm_dup`].
struct DupM {
    vc: VComm,
    stage: DupStage,
}

enum DupStage {
    Gate(GateM),
    Run { req: Request, seq: u64 },
}

impl DupM {
    fn new(cc: &mut CcRank<'_>, vc: VComm) -> DupM {
        cc.counters.comm_mgmt += 1;
        DupM {
            vc,
            stage: DupStage::Gate(GateM::new(cc, vc)),
        }
    }

    fn poll(&mut self, cc: &mut CcRank<'_>) -> StepPoll<VComm> {
        loop {
            match &mut self.stage {
                DupStage::Gate(g) => match g.poll(cc) {
                    StepPoll::Pending(r) => return StepPoll::Pending(r),
                    StepPoll::Ready(_) => {
                        let sh = cc.sh;
                        sh.control.ranks[cc.rank].in_collective.store(true, SeqCst);
                        let (req, seq) = cc.ctx.comm_dup_begin(&cc.vcomms.resolve(self.vc).0);
                        self.stage = DupStage::Run { req, seq };
                    }
                },
                DupStage::Run { req, seq } => {
                    if cc.ctx.try_complete(req).is_none() {
                        return StepPoll::Pending(WaitReason::Event);
                    }
                    // As in `SplitM`: still the handle the dup began on.
                    let dup = cc.ctx.comm_dup_finish(&cc.vcomms.resolve(self.vc).0, *seq);
                    let sh = cc.sh;
                    sh.control.ranks[cc.rank].in_collective.store(false, SeqCst);
                    let g = ggid_of(dup.group());
                    sh.control.ranks[cc.rank]
                        .seq_mirror
                        .lock()
                        .register_group(g, dup.group().sorted_members());
                    return StepPoll::Ready(
                        cc.vcomms
                            .record_creation(CommOp::Dup { parent: self.vc }, Some((dup, g)))
                            .expect("dup always yields a communicator"),
                    );
                }
            }
        }
    }
}

enum Op {
    Coll(CollM),
    IColl(ICollM),
    Wait(WaitM),
    Split(SplitM),
    Dup(DupM),
}

impl Op {
    fn name(&self) -> &'static str {
        match self {
            Op::Coll(_) => "collective",
            Op::IColl(_) => "icollective",
            Op::Wait(_) => "wait",
            Op::Split(_) => "comm_split",
            Op::Dup(_) => "comm_dup",
        }
    }
}

// ----------------------------------------------------------------------
// StepRank
// ----------------------------------------------------------------------

/// One rank's checkpoint-aware handle for step-function bodies: wraps a
/// [`CcRank`] and drives its protocol machinery in poll form. See the
/// module docs for the call protocol.
pub struct StepRank<'s> {
    cc: CcRank<'s>,
    op: Option<Op>,
}

impl<'s> StepRank<'s> {
    /// Creates the step wrapper for `rank` on the session's current world.
    pub fn new(sh: &'s Session, rank: usize) -> StepRank<'s> {
        StepRank {
            cc: CcRank::new(sh, rank),
            op: None,
        }
    }

    fn finish_poll<T>(&mut self, r: &StepPoll<T>) {
        if r.is_ready() {
            self.op = None;
        }
    }

    fn expect_op(&mut self, want: &'static str, started: bool) {
        if let Some(op) = &self.op {
            let name = op.name();
            assert!(
                started && name == want,
                "step rank resumed into `{want}` with a pending `{name}` operation"
            );
        }
    }

    // ------------------------------------------------------------------
    // Introspection & compute (direct passthroughs)
    // ------------------------------------------------------------------

    /// This rank's world rank.
    pub fn rank(&self) -> usize {
        self.cc.rank()
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.cc.size()
    }

    /// Current virtual time.
    pub fn clock(&self) -> VTime {
        self.cc.clock()
    }

    /// `MPI_COMM_WORLD`'s virtual id.
    pub fn world_vcomm(&self) -> VComm {
        self.cc.world_vcomm()
    }

    /// The caller's rank in the given communicator.
    pub fn comm_rank(&self, vc: VComm) -> usize {
        self.cc.comm_rank(vc)
    }

    /// Number of members of the given communicator.
    pub fn comm_size(&self, vc: VComm) -> usize {
        self.cc.comm_size(vc)
    }

    /// Interposition counters so far.
    pub fn counters(&self) -> mana_core::CallCounters {
        self.cc.counters()
    }

    /// Advances the clock by `secs` of local computation (see
    /// [`CcRank::compute`]). Under a wall pace this sleeps *on the driver
    /// worker* — step ranks hold no scheduler run slot, so the sleep
    /// cannot starve slot-managed ranks, only narrow this worker's
    /// throughput.
    pub fn compute(&mut self, secs: f64) {
        self.cc.compute(secs);
    }

    /// Sets the wall-clock pace of [`StepRank::compute`] (see
    /// [`CcRank::set_wall_pace_us`]).
    pub fn set_wall_pace_us(&mut self, us: u64) {
        self.cc.set_wall_pace_us(us);
    }

    /// Runner hook: publishes the final capture and the `Finished` state.
    pub(crate) fn finish(&mut self) {
        self.cc.finish();
    }

    // ------------------------------------------------------------------
    // Non-blocking entry points (single-call, like the blocking layer)
    // ------------------------------------------------------------------

    /// `MPI_Isend` (mirror of [`CcRank::isend`]; never pends).
    pub fn isend(&mut self, vc: VComm, to: usize, tag: u32, payload: impl Into<Bytes>) -> VReq {
        self.expect_op("isend", false);
        self.cc.isend(vc, to, tag, payload)
    }

    /// `MPI_Irecv` (mirror of [`CcRank::irecv`]; never pends).
    pub fn irecv(&mut self, vc: VComm, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> VReq {
        self.expect_op("irecv", false);
        self.cc.irecv(vc, src, tag)
    }

    // ------------------------------------------------------------------
    // Pollable operations
    // ------------------------------------------------------------------

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
        self.expect_op("collective", true);
        if self.op.is_none() {
            self.op = Some(Op::Coll(CollM::new(
                &mut self.cc,
                vc,
                op,
                root,
                payload.clone(),
                red,
            )));
        }
        let Some(Op::Coll(m)) = &mut self.op else {
            unreachable!()
        };
        let r = m.poll(&mut self.cc);
        self.finish_poll(&r);
        r
    }

    /// Poll form of [`CcRank::barrier`].
    pub fn poll_barrier(&mut self, vc: VComm) -> StepPoll<()> {
        match self.poll_collective(vc, CollOp::Barrier, 0, &Bytes::new(), None) {
            StepPoll::Ready(_) => StepPoll::Ready(()),
            StepPoll::Pending(r) => StepPoll::Pending(r),
        }
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
        match self.poll_allreduce(vc, &encode_f64(data), DType::F64, op) {
            StepPoll::Ready(b) => StepPoll::Ready(decode_f64(&b)),
            StepPoll::Pending(r) => StepPoll::Pending(r),
        }
    }

    /// Poll form of [`CcRank::allgather`].
    pub fn poll_allgather(&mut self, vc: VComm, data: &Bytes) -> StepPoll<Bytes> {
        self.poll_collective(vc, CollOp::Allgather, 0, data, None)
    }

    /// Poll form of [`CcRank::icollective`]. The initiation itself can
    /// pend (the gate drains), hence pollable; once `Ready` the request
    /// is initiated and progresses independently.
    pub fn poll_icollective(
        &mut self,
        vc: VComm,
        op: CollOp,
        root: usize,
        payload: &Bytes,
        red: Option<RedSpec>,
    ) -> StepPoll<VReq> {
        self.expect_op("icollective", true);
        if self.op.is_none() {
            self.op = Some(Op::IColl(ICollM::new(
                &mut self.cc,
                vc,
                op,
                root,
                payload.clone(),
                red,
            )));
        }
        let Some(Op::IColl(m)) = &mut self.op else {
            unreachable!()
        };
        let r = m.poll(&mut self.cc);
        self.finish_poll(&r);
        r
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
        self.expect_op("wait", true);
        if self.op.is_none() {
            self.op = Some(Op::Wait(WaitM::new(&mut self.cc, v)));
        }
        let Some(Op::Wait(m)) = &mut self.op else {
            unreachable!()
        };
        assert_eq!(m.v, v, "step rank resumed `wait` with a different request");
        let r = m.poll(&mut self.cc);
        self.finish_poll(&r);
        r
    }

    /// Poll form of [`CcRank::comm_split`].
    pub fn poll_comm_split(&mut self, vc: VComm, color: i64, key: i64) -> StepPoll<Option<VComm>> {
        self.expect_op("comm_split", true);
        if self.op.is_none() {
            self.op = Some(Op::Split(SplitM::new(&mut self.cc, vc, color, key)));
        }
        let Some(Op::Split(m)) = &mut self.op else {
            unreachable!()
        };
        let r = m.poll(&mut self.cc);
        self.finish_poll(&r);
        r
    }

    /// Poll form of [`CcRank::comm_dup`].
    pub fn poll_comm_dup(&mut self, vc: VComm) -> StepPoll<VComm> {
        self.expect_op("comm_dup", true);
        if self.op.is_none() {
            self.op = Some(Op::Dup(DupM::new(&mut self.cc, vc)));
        }
        let Some(Op::Dup(m)) = &mut self.op else {
            unreachable!()
        };
        let r = m.poll(&mut self.cc);
        self.finish_poll(&r);
        r
    }
}

impl std::fmt::Debug for StepRank<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepRank")
            .field("rank", &self.cc.rank())
            .field("clock", &self.cc.clock())
            .field("op", &self.op.as_ref().map(Op::name))
            .finish()
    }
}
