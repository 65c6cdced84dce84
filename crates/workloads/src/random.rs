//! The randomized workload generator: every rank derives the *same* op
//! schedule from the seed (as a correct MPI program must — all members
//! issue collectives on a communicator in the same order), mixing blocking
//! and non-blocking collectives, communicator splits/dups, point-to-point
//! traffic (including wildcard receives), and skewed local compute.
//!
//! The returned per-rank checksum folds every byte the rank received, so
//! two runs of the same seed must produce bit-identical results — with or
//! without checkpoints in between. That is the end-to-end property the
//! safe-cut harness leans on.
//!
//! The program is written once, as the [`StepBody`] [`RandomWorkloadStep`]
//! (a program counter enum plus locals over the rank's `poll_*` API),
//! which the worker pool steps directly; [`random_workload`] is that body
//! run to completion on the calling thread.

use crate::rng::SplitMix64;
use crate::snap::check_arg;
use bytes::Bytes;
use ckpt::wire::{Dec, DecodeError, Wr};
use ckpt::{BodyStep, CcRank, StepBody};
use mana_core::{VComm, VReq};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{DType, ReduceOp, SrcSel, TagSel};

/// Configuration of a random workload.
#[derive(Debug, Clone)]
pub struct RandomWorkloadCfg {
    /// Schedule seed (shared by all ranks).
    pub seed: u64,
    /// Number of schedule steps.
    pub steps: usize,
    /// Wall-clock microseconds slept per step (0 = none). Virtual time is
    /// unaffected; harnesses use this so an asynchronous checkpoint
    /// trigger reliably catches the run mid-flight instead of racing a
    /// wall-fast completion.
    pub pace_us: u64,
    /// Remap non-blocking collective steps onto blocking equivalents
    /// (same rng draw sequence as the unrestricted schedule).
    /// Required under `Protocol::TwoPhase`, which refuses non-blocking
    /// collectives.
    pub blocking_only: bool,
}

impl RandomWorkloadCfg {
    /// A workload of `steps` steps from `seed`, unpaced.
    pub fn new(seed: u64, steps: usize) -> Self {
        RandomWorkloadCfg {
            seed,
            steps,
            pace_us: 0,
            blocking_only: false,
        }
    }

    /// Adds a per-step wall-clock pace.
    pub fn with_pace_us(mut self, us: u64) -> Self {
        self.pace_us = us;
        self
    }

    /// Restricts the schedule to blocking collectives (2PC-compatible).
    pub fn with_blocking_only(mut self) -> Self {
        self.blocking_only = true;
        self
    }
}

/// Runs the workload on one rank; returns the rank's checksum.
/// [`RandomWorkloadStep`] run to completion.
pub fn random_workload(cfg: &RandomWorkloadCfg, rank: &mut CcRank) -> f64 {
    rank.run(&mut RandomWorkloadStep::new(cfg.clone()))
}

/// Where the program stands: `StepTop` draws the step's arm, the other
/// states are that arm's (or the tail's) operations in flight.
enum RandPc {
    StepTop,
    Allreduce,
    Barrier,
    Bcast { root: usize },
    BlockingAllreduce2,
    IAllreduce,
    DrainPending { idx: usize },
    RingRecvWait { sv: VReq, rv: VReq },
    RingSendWait { sv: VReq },
    Split { color: i64 },
    SplitAllreduce { sub: VComm },
    SubAllreduce { sub: VComm },
    Allgather,
    Dup,
    DupBarrier { d: VComm },
    PairSendWait { sv: VReq },
    PairRecvWait { rv: VReq },
    TailDrain { idx: usize },
    TailBarrier,
    Done,
}

/// The random program, one rank's share:
///
/// ```text
/// acc = rank + 1;  pending = [];  subcomms = []
/// for step in 0..steps:
///     compute(1 µs + per-(rank, step) skew)      // paced: one wall sleep here
///     one draw from the shared generator picks the step's arm:
///       20 %  acc <- allreduce_sum(world)
///        8 %  barrier(world)
///       10 %  acc <- bcast(world, random root)
///       15 %  pending += iallreduce_sum(world)   // blocking_only: allreduce
///       10 %  acc <- wait(each pending)          // blocking_only: barrier
///       12 %  ring: isend(right); acc <- recv(left); wait(send)
///        7 %  sub = comm_split(world, parity stripe); acc <- allreduce_max(sub)
///        5 %  acc <- allreduce_sum(an earlier sub, if any)
///        6 %  acc <- allgather(world)
///        2 %  d = comm_dup(world); barrier(d)
///        5 %  pair a -> b on a per-step tag: send / acc <- recv(ANY_SOURCE)
/// acc <- wait(each pending);  barrier(world)
/// return acc
/// ```
pub struct RandomWorkloadStep {
    cfg: RandomWorkloadCfg,
    rng: SplitMix64,
    acc: Option<f64>,
    pending: Vec<VReq>,
    subcomms: Vec<VComm>,
    step: usize,
    paced: bool,
    pc: RandPc,
}

impl RandomWorkloadStep {
    /// The workload body for one rank; all ranks share `cfg`.
    pub fn new(cfg: RandomWorkloadCfg) -> RandomWorkloadStep {
        let rng = SplitMix64::new(cfg.seed);
        RandomWorkloadStep {
            cfg,
            rng,
            acc: None,
            pending: Vec::new(),
            subcomms: Vec::new(),
            step: 0,
            paced: false,
            pc: RandPc::StepTop,
        }
    }

    /// Draws the current step's arm and enters it (the p2p arms post their
    /// requests here). Every draw a step makes happens before anything
    /// that depends on the calling rank, so all ranks consume the shared
    /// generator identically whether or not they act on the arm.
    fn draw_arm(&mut self, r: &mut CcRank, acc: f64) -> RandPc {
        let n = r.size();
        let me = r.rank();
        let world = r.world_vcomm();
        let blocking_only = self.cfg.blocking_only;
        match self.rng.next_range(100) {
            0..=19 => RandPc::Allreduce,
            20..=27 => RandPc::Barrier,
            28..=37 => RandPc::Bcast {
                root: self.rng.next_range(n as u64) as usize,
            },
            38..=52 if blocking_only => RandPc::BlockingAllreduce2,
            38..=52 => RandPc::IAllreduce,
            // Blocking-only schedules have nothing pending: a barrier instead.
            53..=62 if blocking_only => RandPc::Barrier,
            53..=62 => RandPc::DrainPending { idx: 0 },
            63..=74 => {
                let to = (me + 1) % n;
                let from = (me + n - 1) % n;
                let sv = r.isend(world, to, 5, encode_f64(&[acc]));
                let rv = r.irecv(world, from, 5u32);
                RandPc::RingRecvWait { sv, rv }
            }
            75..=81 => {
                let stripe = 1 + self.rng.next_range(3) as usize; // 1..=3
                RandPc::Split {
                    color: (me / stripe % 2) as i64,
                }
            }
            82..=86 => {
                let pick = self.rng.next_range(8) as usize;
                match self.subcomms.get(pick % self.subcomms.len().max(1)) {
                    Some(&sub) => RandPc::SubAllreduce { sub },
                    None => self.skip(),
                }
            }
            87..=92 => RandPc::Allgather,
            93..=94 => RandPc::Dup,
            _ => {
                let a = self.rng.next_range(n as u64) as usize;
                let b = if n > 1 {
                    (a + 1 + self.rng.next_range(n as u64 - 1) as usize) % n
                } else {
                    a
                };
                // A per-step tag keeps matching deterministic even when
                // several wildcard messages are in flight at once.
                let tag = 1000 + self.step as u32;
                if a != b && me == a {
                    let sv = r.isend(world, b, tag, encode_f64(&[acc]));
                    RandPc::PairSendWait { sv }
                } else if a != b && me == b {
                    let rv = r.irecv(world, SrcSel::Any, TagSel::Tag(tag));
                    RandPc::PairRecvWait { rv }
                } else {
                    self.skip()
                }
            }
        }
    }

    /// An arm this rank takes no part in: on to the next step.
    fn skip(&mut self) -> RandPc {
        self.step += 1;
        RandPc::StepTop
    }
}

impl StepBody for RandomWorkloadStep {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let n = r.size();
        let me = r.rank();
        let world = r.world_vcomm();
        // The pace rides on `compute` (one call per step): a thread rank
        // sleeps on its own thread, so pacing a 512-rank world does not
        // serialize it.
        if !self.paced {
            r.set_wall_pace_us(self.cfg.pace_us);
            self.paced = true;
        }
        let mut acc = *self.acc.get_or_insert(me as f64 + 1.0);
        loop {
            match self.pc {
                RandPc::StepTop => {
                    if self.step >= self.cfg.steps {
                        self.pc = RandPc::TailDrain { idx: 0 };
                        continue;
                    }
                    // Deterministic per-rank compute skew so drains catch
                    // ranks at genuinely different points.
                    let skew = ((me as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(self.step as u64 * 40503)
                        % 97) as f64;
                    r.compute(1e-6 + skew * 2e-8);
                    self.pc = self.draw_arm(r, acc);
                }
                RandPc::Allreduce => {
                    let v = ready!(r.poll_allreduce_f64(world, &[acc], ReduceOp::Sum));
                    acc = 0.25 * acc + v[0] * 1e-3;
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::Barrier => {
                    ready!(r.poll_barrier(world));
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::Bcast { root } => {
                    let data = if r.comm_rank(world) == root {
                        encode_f64(&[acc])
                    } else {
                        Bytes::new()
                    };
                    let out = ready!(r.poll_bcast(world, root, &data));
                    acc += decode_f64(&out)[0] * 1e-3;
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::BlockingAllreduce2 => {
                    let out = ready!(r.poll_allreduce(
                        world,
                        &encode_f64(&[1.0, acc]),
                        DType::F64,
                        ReduceOp::Sum
                    ));
                    acc += decode_f64(&out)[1] * 1e-4;
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::IAllreduce => {
                    let v = ready!(r.poll_iallreduce(
                        world,
                        &encode_f64(&[1.0, acc]),
                        DType::F64,
                        ReduceOp::Sum
                    ));
                    self.pending.push(v);
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::DrainPending { idx } => {
                    if let Some(&v) = self.pending.get(idx) {
                        let c = ready!(r.poll_wait(v));
                        acc += decode_f64(&c.data)[1] * 1e-4;
                        self.pc = RandPc::DrainPending { idx: idx + 1 };
                    } else {
                        self.pending.clear();
                        self.step += 1;
                        self.pc = RandPc::StepTop;
                    }
                }
                RandPc::RingRecvWait { sv, rv } => {
                    let c = ready!(r.poll_wait(rv));
                    acc += decode_f64(&c.data)[0] * 1e-3;
                    self.pc = RandPc::RingSendWait { sv };
                }
                RandPc::RingSendWait { sv } => {
                    ready!(r.poll_wait(sv));
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::Split { color } => {
                    let sub = ready!(r.poll_comm_split(world, color, me as i64))
                        .expect("non-negative color");
                    self.pc = RandPc::SplitAllreduce { sub };
                }
                RandPc::SplitAllreduce { sub } => {
                    let v = ready!(r.poll_allreduce_f64(sub, &[acc], ReduceOp::Max));
                    acc = 0.5 * acc + 0.5 * v[0];
                    self.subcomms.push(sub);
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::SubAllreduce { sub } => {
                    let v = ready!(r.poll_allreduce_f64(sub, &[acc], ReduceOp::Sum));
                    acc = 0.75 * acc + v[0] * 1e-3;
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::Allgather => {
                    let out = ready!(r.poll_allgather(world, &encode_f64(&[acc])));
                    let s: f64 = decode_f64(&out).iter().sum();
                    acc = 0.9 * acc + s * 1e-3 / n as f64;
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::Dup => {
                    let d = ready!(r.poll_comm_dup(world));
                    self.pc = RandPc::DupBarrier { d };
                }
                RandPc::DupBarrier { d } => {
                    ready!(r.poll_barrier(d));
                    self.subcomms.push(d);
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::PairSendWait { sv } => {
                    ready!(r.poll_wait(sv));
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::PairRecvWait { rv } => {
                    let c = ready!(r.poll_wait(rv));
                    acc += decode_f64(&c.data)[0] * 1e-3;
                    self.step += 1;
                    self.pc = RandPc::StepTop;
                }
                RandPc::TailDrain { idx } => {
                    if let Some(&v) = self.pending.get(idx) {
                        let c = ready!(r.poll_wait(v));
                        acc += decode_f64(&c.data)[1] * 1e-4;
                        self.pc = RandPc::TailDrain { idx: idx + 1 };
                    } else {
                        self.pending.clear();
                        self.pc = RandPc::TailBarrier;
                    }
                }
                RandPc::TailBarrier => {
                    ready!(r.poll_barrier(world));
                    self.pc = RandPc::Done;
                }
                RandPc::Done => return BodyStep::Done(acc),
            }
            self.acc = Some(acc);
        }
    }

    /// The schedule's identity (a fingerprint of the seed, the length and
    /// the blocking-only flag; not the wall pace, which `make` sets anew),
    /// then the generator as its draw count, the accumulator, the pending
    /// requests, the subcommunicators, the step and the pc. Every rank
    /// saves one, so it is kept small: the subcommunicators — every
    /// communicator the rank created, in order — are one count while they
    /// are the ids `1..=count` the wrapper hands out.
    fn save(&self, w: &mut dyn Wr) -> bool {
        w.u32(seed_fingerprint(self.cfg.seed));
        w.usize(self.cfg.steps << 1 | usize::from(self.cfg.blocking_only));
        w.var(self.rng.draws_since(self.cfg.seed));
        match self.acc {
            None => w.u8(0),
            Some(acc) => {
                w.u8(1);
                w.f64(acc);
            }
        }
        w.usize(self.pending.len());
        self.pending.iter().for_each(|v| w.var(v.0));
        let n = self.subcomms.len();
        let in_order = (self.subcomms.iter().enumerate()).all(|(i, c)| c.0 == i as u64 + 1);
        w.usize(n << 1 | usize::from(in_order));
        if !in_order {
            self.subcomms.iter().for_each(|c| w.var(c.0));
        }
        w.usize(self.step);
        self.pc.save(w);
        true
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        if d.u32("schedule seed")? != seed_fingerprint(self.cfg.seed) {
            return Err("schedule seed");
        }
        let shape = self.cfg.steps << 1 | usize::from(self.cfg.blocking_only);
        check_arg(d, shape, "schedule length")?;
        self.rng = SplitMix64::after(self.cfg.seed, d.var("generator draws")?);
        self.acc = match d.u8("accumulator tag")? {
            0 => None,
            1 => Some(d.f64("accumulator")?),
            _ => return Err("accumulator tag"),
        };
        let n = d.seq_len("pending count")?;
        self.pending = (0..n)
            .map(|_| d.var("pending request").map(VReq))
            .collect::<Result<_, _>>()?;
        // A step creates at most one communicator.
        let n = d.usize("subcommunicator count")?;
        let count = n >> 1;
        if count > self.cfg.steps {
            return Err("subcommunicator count");
        }
        self.subcomms = if n & 1 == 1 {
            (1..=count as u64).map(VComm).collect()
        } else {
            (0..count)
                .map(|_| d.var("subcommunicator").map(VComm))
                .collect::<Result<_, _>>()?
        };
        self.step = d.usize("schedule step")?;
        self.pc = RandPc::load(d)?;
        Ok(())
    }
}

/// The seed folded to 32 bits: what a snapshot checks its schedule by.
fn seed_fingerprint(seed: u64) -> u32 {
    (seed ^ seed >> 32) as u32
}

impl RandPc {
    fn save(&self, w: &mut dyn Wr) {
        let (tag, args): (u8, &[u64]) = match *self {
            RandPc::StepTop => (0, &[]),
            RandPc::Allreduce => (1, &[]),
            RandPc::Barrier => (2, &[]),
            RandPc::Bcast { root } => (3, &[root as u64]),
            RandPc::BlockingAllreduce2 => (4, &[]),
            RandPc::IAllreduce => (5, &[]),
            RandPc::DrainPending { idx } => (6, &[idx as u64]),
            RandPc::RingRecvWait { sv, rv } => (7, &[sv.0, rv.0]),
            RandPc::RingSendWait { sv } => (8, &[sv.0]),
            RandPc::Split { color } => {
                w.u8(9);
                w.ivar(color);
                return;
            }
            RandPc::SplitAllreduce { sub } => (10, &[sub.0]),
            RandPc::SubAllreduce { sub } => (11, &[sub.0]),
            RandPc::Allgather => (12, &[]),
            RandPc::Dup => (13, &[]),
            RandPc::DupBarrier { d } => (14, &[d.0]),
            RandPc::PairSendWait { sv } => (15, &[sv.0]),
            RandPc::PairRecvWait { rv } => (16, &[rv.0]),
            RandPc::TailDrain { idx } => (17, &[idx as u64]),
            RandPc::TailBarrier => (18, &[]),
            RandPc::Done => (19, &[]),
        };
        w.u8(tag);
        args.iter().for_each(|&a| w.var(a));
    }

    fn load(d: &mut Dec<'_>) -> Result<RandPc, DecodeError> {
        let arg = |d: &mut Dec<'_>| d.var("pc argument");
        let pc = match d.u8("pc")? {
            0 => RandPc::StepTop,
            1 => RandPc::Allreduce,
            2 => RandPc::Barrier,
            3 => RandPc::Bcast {
                root: arg(d)? as usize,
            },
            4 => RandPc::BlockingAllreduce2,
            5 => RandPc::IAllreduce,
            6 => RandPc::DrainPending {
                idx: arg(d)? as usize,
            },
            7 => RandPc::RingRecvWait {
                sv: VReq(arg(d)?),
                rv: VReq(arg(d)?),
            },
            8 => RandPc::RingSendWait { sv: VReq(arg(d)?) },
            9 => RandPc::Split {
                color: d.ivar("split color")?,
            },
            10 => RandPc::SplitAllreduce {
                sub: VComm(arg(d)?),
            },
            11 => RandPc::SubAllreduce {
                sub: VComm(arg(d)?),
            },
            12 => RandPc::Allgather,
            13 => RandPc::Dup,
            14 => RandPc::DupBarrier { d: VComm(arg(d)?) },
            15 => RandPc::PairSendWait { sv: VReq(arg(d)?) },
            16 => RandPc::PairRecvWait { rv: VReq(arg(d)?) },
            17 => RandPc::TailDrain {
                idx: arg(d)? as usize,
            },
            18 => RandPc::TailBarrier,
            19 => RandPc::Done,
            _ => return Err("pc"),
        };
        Ok(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_drivers_agree, cfg};
    use ckpt::{run_ckpt_world, CkptOptions};

    #[test]
    fn drivers_agree_on_random_workload() {
        let wl = RandomWorkloadCfg::new(11, 25);
        assert_drivers_agree(
            4,
            |r| random_workload(&wl, r),
            |_| RandomWorkloadStep::new(wl.clone()),
        );
    }

    #[test]
    fn drivers_agree_on_random_workload_blocking_only() {
        let wl = RandomWorkloadCfg::new(23, 25).with_blocking_only();
        assert_drivers_agree(
            4,
            |r| random_workload(&wl, r),
            |_| RandomWorkloadStep::new(wl.clone()),
        );
    }

    #[test]
    fn same_seed_same_results() {
        let wl = RandomWorkloadCfg::new(11, 25);
        let run = || {
            run_ckpt_world(cfg(4), CkptOptions::native(), |r| random_workload(&wl, r))
                .ranks
                .into_iter()
                .map(|r| r.result)
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_ckpt_world(cfg(2), CkptOptions::native(), |r| {
            random_workload(&RandomWorkloadCfg::new(1, 25), r)
        });
        let b = run_ckpt_world(cfg(2), CkptOptions::native(), |r| {
            random_workload(&RandomWorkloadCfg::new(2, 25), r)
        });
        let av: Vec<f64> = a.results().copied().collect();
        let bv: Vec<f64> = b.results().copied().collect();
        assert_ne!(av, bv);
    }
}
