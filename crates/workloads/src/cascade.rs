//! Figure 3b's cascade, pinned: a rank owes a collective on one group
//! behind a collective on another, so draining to the first group's
//! target carries it past the second's, and that raise must reach the
//! second group's other member before the cut is taken.
//!
//! Three ranks, two overlapping groups: `G1 = {0, 1}` and `G2 = {1, 2}`
//! ([`Cascade::GROUPS`]). In the held iteration rank 0 initiates its `G1`
//! allreduce, while rank 1 has to run a `G2` allreduce before its own.
//! Messages order the ranks' progress, so a checkpoint triggered at
//! [`Cascade::TRIGGER_S`] finds every rank where the cascade needs it,
//! whatever the host schedule:
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
use ckpt::{BodyStep, CcRank, StepBody};
use mana_core::{VComm, VReq};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{DType, ReduceOp};

const ITERS: usize = 6;
/// The held iteration.
const HOLD: usize = 3;
const TAG: u32 = 9;

/// One step of a rank's program; a group is an index into
/// [`Cascade::GROUPS`].
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
    let jump = Compute(2.0 * Cascade::TRIGGER_S);
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
        let mine = (0..Cascade::GROUPS.len()).filter(|&g| Cascade::GROUPS[g].contains(&rank));
        ops.extend(mine.map(Allreduce));
    }
    ops
}

/// One rank of the three-rank cascade program (see the module doc). It
/// keeps no snapshot: its images restart in-process only.
#[derive(Debug)]
pub struct Cascade {
    rank: usize,
    ops: Vec<Op>,
    pc: usize,
    comms: Vec<Option<VComm>>,
    /// The receive or non-blocking allreduce in flight.
    req: Option<VReq>,
    acc: f64,
}

impl Cascade {
    /// The two overlapping groups, `G1` and `G2`, as world ranks.
    pub const GROUPS: [[usize; 2]; 2] = [[0, 1], [1, 2]];
    /// The virtual time (s) to trigger the checkpoint at: no rank reaches
    /// it before the held iteration's jump.
    pub const TRIGGER_S: f64 = 500e-6;

    /// Rank `rank`'s body, in a world of three ranks.
    pub fn new(rank: usize) -> Cascade {
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
        let w = r.world_vcomm();
        while self.comms.len() < Self::GROUPS.len() {
            let color = match Self::GROUPS[self.comms.len()].contains(&self.rank) {
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
