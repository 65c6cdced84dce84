//! Figure 3b's cascade, pinned: a rank owes a collective on one group
//! behind a collective on another, so draining to the first group's
//! target carries it past the second's, and that raise must reach the
//! second group's other member before the cut is taken.
//!
//! Three ranks, two overlapping groups: `G1 = {0, 1}` and `G2 = {1, 2}`.
//! In the held iteration rank 0 initiates its `G1` allreduce, while rank
//! 1 has to run a `G2` allreduce before its own. Messages order the
//! ranks' progress, so the request finds every rank where the cascade
//! needs it, whatever the host schedule:
//!
//! * rank 0 initiates on `G1` (its `SEQ[G1]` one ahead of rank 1's) and
//!   only then crosses the trigger time;
//! * ranks 0 and 2 each tell rank 1 once they have crossed it, so the
//!   request is raised before rank 1 goes on (the last crossing raises it
//!   inside its own call);
//! * rank 1 then tells rank 2 to go on, so both enter their `G2`
//!   allreduce with the request open, neither counted in the snapshot.
//!
//! Algorithm 1 then sets `TARGET[G1]` to rank 0's count and `TARGET[G2]`
//! to the count both `G2` members share. Rank 1 is below on `G1`, drains
//! its `G2` allreduce first and so passes `TARGET[G2]`: it raises it, and
//! rank 2, parked at its targets, has to drain that allreduce too.

use bytes::Bytes;
use ckpt::{
    run_ckpt_world, run_ckpt_world_steps, BodyStep, CcRank, CkptOptions, CkptRunReport, ResumeMode,
    StepBody, StepPoll,
};
use mana_core::{ggid_of_sorted, DrainEvent, VComm, VReq};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{DType, NetParams, ReduceOp, VTime, WorldConfig};

const GROUPS: [[usize; 2]; 2] = [[0, 1], [1, 2]];
const ITERS: usize = 6;
/// The held iteration.
const HOLD: usize = 3;
/// The trigger time: no rank reaches it before the held iteration's jump.
const AT_S: f64 = 500e-6;
const TAG: u32 = 9;

/// One step of a rank's program; a group is an index into [`GROUPS`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Compute(f64),
    Allreduce(usize),
    /// Initiates a non-blocking allreduce, completed by the next `Wait`.
    IAllreduce(usize),
    Wait,
    Send(usize),
    Recv(usize),
}

/// Rank `rank`'s program after its two splits: `ITERS` iterations of
/// compute plus an allreduce on each of its groups in order, except the
/// held one (see the module doc).
fn program(rank: usize) -> Vec<Op> {
    use Op::*;
    let jump = Compute(2.0 * AT_S);
    let mut ops = Vec::new();
    for it in 0..ITERS {
        if it == HOLD {
            ops.extend(match rank {
                0 => vec![IAllreduce(0), jump, Send(1), Wait],
                1 => vec![
                    jump,
                    Recv(0),
                    Recv(2),
                    Send(2),
                    Allreduce(1),
                    IAllreduce(0),
                    Wait,
                ],
                _ => vec![jump, Send(1), Recv(1), Allreduce(1)],
            });
            continue;
        }
        ops.push(Compute(1e-6));
        let mine = (0..GROUPS.len()).filter(|&g| GROUPS[g].contains(&rank));
        ops.extend(mine.map(Allreduce));
    }
    ops
}

/// The cascade program as a step body, so one body runs under both
/// drivers.
struct Cascade {
    rank: usize,
    ops: Vec<Op>,
    pc: usize,
    comms: Vec<Option<VComm>>,
    /// The receive or non-blocking allreduce in flight.
    req: Option<VReq>,
    acc: f64,
}

impl Cascade {
    fn new(rank: usize) -> Cascade {
        Cascade {
            rank,
            ops: program(rank),
            pc: 0,
            comms: Vec::new(),
            req: None,
            acc: rank as f64,
        }
    }

    fn comm(&self, g: usize) -> VComm {
        self.comms[g].expect("a member of the group")
    }
}

impl StepBody for Cascade {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        macro_rules! ready {
            ($poll:expr) => {
                match $poll {
                    StepPoll::Ready(v) => v,
                    StepPoll::Pending(why) => return BodyStep::Yield(why),
                }
            };
        }
        let w = r.world_vcomm();
        while self.comms.len() < GROUPS.len() {
            let color = match GROUPS[self.comms.len()].contains(&self.rank) {
                true => 0,
                false => -1,
            };
            let comm = ready!(r.poll_comm_split(w, color, 0));
            self.comms.push(comm);
        }
        while let Some(&op) = self.ops.get(self.pc) {
            let mine = [self.acc + self.rank as f64];
            match op {
                Op::Compute(secs) => r.compute(secs),
                Op::Allreduce(g) => {
                    self.acc = ready!(r.poll_allreduce_f64(self.comm(g), &mine, ReduceOp::Sum))[0];
                }
                Op::IAllreduce(g) => {
                    let data = encode_f64(&mine);
                    let v =
                        ready!(r.poll_iallreduce(self.comm(g), &data, DType::F64, ReduceOp::Sum));
                    self.req = Some(v);
                }
                Op::Wait => {
                    let c = ready!(r.poll_wait(self.req.expect("an initiated allreduce")));
                    self.acc = decode_f64(&c.data)[0];
                    self.req = None;
                }
                Op::Send(to) => {
                    let v = r.isend(w, to, TAG, Bytes::new());
                    assert!(r.poll_wait(v).is_ready(), "an eager send completes at once");
                }
                Op::Recv(from) => {
                    let v = *self.req.get_or_insert_with(|| r.irecv(w, from, TAG));
                    ready!(r.poll_wait(v));
                    self.req = None;
                }
            }
            self.pc += 1;
        }
        BodyStep::Done(self.acc)
    }
}

fn cfg() -> WorldConfig {
    WorldConfig::single_node(3).with_params(NetParams::slingshot11().without_jitter())
}

/// The program on the pool (`steps`) or on a thread per rank.
fn run(steps: bool, opts: CkptOptions) -> CkptRunReport<f64> {
    match steps {
        true => run_ckpt_world_steps(cfg(), opts, Cascade::new),
        false => run_ckpt_world(cfg(), opts, |r| r.run(&mut Cascade::new(r.rank()))),
    }
}

#[test]
fn figure3b_cascade_raises_the_other_groups_target_under_both_drivers() {
    let g2 = ggid_of_sorted(&GROUPS[1]);
    for steps in [true, false] {
        let native = run(steps, CkptOptions::native());
        let native: Vec<f64> = native.results().copied().collect();
        let at = VTime::from_secs(AT_S);
        let run = run(steps, CkptOptions::one_checkpoint(at, ResumeMode::Continue));
        let driver = if steps { "pool" } else { "threads" };
        assert!(run.failures.is_empty(), "{driver}: {:?}", run.failures);
        assert_eq!(run.checkpoints.len(), 1, "{driver}: the checkpoint fired");
        let c = &run.checkpoints[0];
        assert!(
            c.final_targets[&g2] > c.initial_targets[&g2],
            "{driver}: TARGET[G2] not raised: initial {:?} final {:?}",
            c.initial_targets,
            c.final_targets
        );
        let raised = run
            .trace
            .count(|e| matches!(e, DrainEvent::TargetRaised(..)));
        assert!(raised >= 1, "{driver}: no TargetRaised in the trace");
        assert!(
            c.targets_exactly_reached(),
            "{driver}: drain over/under-shot: final {:?} achieved {:?}",
            c.final_targets,
            c.achieved()
        );
        c.verify().expect("safe cut");
        let got: Vec<f64> = run.results().copied().collect();
        assert_eq!(got, native, "{driver}: results differ from the native run");
        assert_eq!(run.backstop_expiries, 0, "{driver}: event-driven waits");
    }
}
