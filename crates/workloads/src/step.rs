//! Step-function forms of the workloads: the same programs as
//! [`crate::kernels`] and [`crate::random_workload`], hand-lowered to
//! resumable state machines ([`StepBody`]) that the worker pool can step.
//!
//! Equivalence contract: each machine issues the *identical* sequence of
//! wrapper calls as its closure twin (the random workload's schedule is
//! drawn by the one `random::draw_arm` both forms call), with blocking
//! calls decomposed exactly the way the blocking wrapper itself
//! decomposes them (`recv` = `irecv` + `wait`, `send` = `isend` +
//! `wait`). Same seeds therefore produce bit-identical results, counters,
//! and checkpoint captures under either form; the
//! representation-equivalence tests restore images across the two.
//!
//! Lowering pattern: a program counter enum plus locals, with pollable
//! operations resumed through the engine's idempotent-start `poll_*` API.

use crate::random::{draw_arm, Arm, RandomWorkloadCfg};
use crate::rng::SplitMix64;
use bytes::Bytes;
use ckpt::{BodyStep, CcRank, StepBody, StepPoll};
use mana_core::{VComm, VReq};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::{DType, ReduceOp, SrcSel, TagSel};

/// Resolves a poll: returns `Ready`'s value, or yields out of the
/// enclosing `step` with the pending wait reason.
macro_rules! ready {
    ($poll:expr) => {
        match $poll {
            StepPoll::Ready(v) => v,
            StepPoll::Pending(why) => return BodyStep::Yield(why),
        }
    };
}

// ----------------------------------------------------------------------
// SCF loop
// ----------------------------------------------------------------------

enum ScfPc {
    Mix,
    Allreduce { local_e: f64 },
    Bcast,
}

/// Step form of [`crate::kernels::scf_loop`].
pub struct ScfStep {
    iters: usize,
    elems: usize,
    it: usize,
    energy: f64,
    local: Option<Vec<f64>>,
    pc: ScfPc,
}

impl ScfStep {
    /// An SCF body of `iters` iterations over `elems` local elements.
    pub fn new(iters: usize, elems: usize) -> ScfStep {
        ScfStep {
            iters,
            elems,
            it: 0,
            energy: 0.0,
            local: None,
            pc: ScfPc::Mix,
        }
    }
}

impl StepBody for ScfStep {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let world = r.world_vcomm();
        let n = r.size() as f64;
        let local = self.local.get_or_insert_with(|| {
            (0..self.elems)
                .map(|i| (r.rank() * self.elems + i) as f64 * 1e-3)
                .collect()
        });
        while self.it < self.iters {
            match self.pc {
                ScfPc::Mix => {
                    r.compute(5e-6);
                    for x in local.iter_mut() {
                        *x = (*x * 0.97 + self.energy * 1e-4).sin() * 0.5 + 0.5;
                    }
                    let local_e: f64 = local.iter().sum();
                    self.pc = ScfPc::Allreduce { local_e };
                }
                ScfPc::Allreduce { local_e } => {
                    let summed = ready!(r.poll_allreduce_f64(world, &[local_e], ReduceOp::Sum));
                    self.energy = summed[0] / n;
                    self.pc = ScfPc::Bcast;
                }
                ScfPc::Bcast => {
                    let damp = if r.comm_rank(world) == 0 {
                        encode_f64(&[1.0 / (1.0 + self.it as f64)])
                    } else {
                        Bytes::new()
                    };
                    let out = ready!(r.poll_bcast(world, 0, &damp));
                    let d = decode_f64(&out)[0];
                    self.energy *= 1.0 - 0.1 * d;
                    self.it += 1;
                    self.pc = ScfPc::Mix;
                }
            }
        }
        BodyStep::Done(self.energy)
    }
}

// ----------------------------------------------------------------------
// Broadcast pipeline
// ----------------------------------------------------------------------

enum BcastPc {
    Work,
    Bcast { data: Bytes },
    FinalBarrier,
}

/// Step form of [`crate::kernels::bcast_pipeline`].
pub struct BcastPipelineStep {
    iters: usize,
    bytes: usize,
    it: usize,
    acc: f64,
    pc: BcastPc,
}

impl BcastPipelineStep {
    /// A pipeline of `iters` broadcasts of `bytes` bytes.
    pub fn new(iters: usize, bytes: usize) -> BcastPipelineStep {
        BcastPipelineStep {
            iters,
            bytes,
            it: 0,
            acc: 0.0,
            pc: BcastPc::Work,
        }
    }
}

impl StepBody for BcastPipelineStep {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let world = r.world_vcomm();
        let me = r.rank();
        loop {
            match &self.pc {
                BcastPc::Work => {
                    let it = self.it;
                    let skew = ((me as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(it as u64 * 131)
                        % 29) as f64;
                    r.compute(0.5e-6 + skew * 60e-9);
                    let data = if me == 0 {
                        let mut p: Vec<u8> = (0..self.bytes).map(|i| (i % 251) as u8).collect();
                        p[0] = (it % 251) as u8;
                        Bytes::from(p)
                    } else {
                        Bytes::new()
                    };
                    self.pc = BcastPc::Bcast { data };
                }
                BcastPc::Bcast { data } => {
                    let out = ready!(r.poll_bcast(world, 0, data));
                    self.acc += out.as_ref().iter().map(|&b| f64::from(b)).sum::<f64>() * 1e-6;
                    self.it += 1;
                    self.pc = if self.it < self.iters {
                        BcastPc::Work
                    } else {
                        BcastPc::FinalBarrier
                    };
                }
                BcastPc::FinalBarrier => {
                    ready!(r.poll_barrier(world));
                    return BodyStep::Done(self.acc);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Halo exchange
// ----------------------------------------------------------------------

enum HaloPc {
    Post,
    WaitRecvLeft {
        rl: VReq,
        rr: VReq,
        sl: VReq,
        sr: VReq,
    },
    WaitRecvRight {
        rr: VReq,
        sl: VReq,
        sr: VReq,
        from_left: f64,
    },
    WaitSendLeft {
        sl: VReq,
        sr: VReq,
        from_left: f64,
        from_right: f64,
    },
    WaitSendRight {
        sr: VReq,
        from_left: f64,
        from_right: f64,
    },
    Barrier,
}

/// Step form of [`crate::kernels::halo_exchange`].
pub struct HaloStep {
    iters: usize,
    cells: usize,
    it: usize,
    slab: Option<Vec<f64>>,
    pc: HaloPc,
}

impl HaloStep {
    /// A halo exchange of `iters` sweeps over `cells` cells per rank.
    pub fn new(iters: usize, cells: usize) -> HaloStep {
        HaloStep {
            iters,
            cells,
            it: 0,
            slab: None,
            pc: HaloPc::Post,
        }
    }
}

impl StepBody for HaloStep {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let world = r.world_vcomm();
        let n = r.size();
        let me = r.rank();
        let left = (me + n - 1) % n;
        let right = (me + 1) % n;
        let cells = self.cells;
        let slab = self
            .slab
            .get_or_insert_with(|| (0..cells).map(|i| (me * cells + i) as f64).collect());
        while self.it < self.iters {
            match self.pc {
                HaloPc::Post => {
                    let rl = r.irecv(world, left, 1u32);
                    let rr = r.irecv(world, right, 2u32);
                    let sl = r.isend(world, left, 2u32, encode_f64(&[slab[0]]));
                    let sr = r.isend(world, right, 1u32, encode_f64(&[slab[cells - 1]]));
                    r.compute(2e-6);
                    for i in 1..cells - 1 {
                        slab[i] = 0.25 * slab[i - 1] + 0.5 * slab[i] + 0.25 * slab[i + 1];
                    }
                    self.pc = HaloPc::WaitRecvLeft { rl, rr, sl, sr };
                }
                HaloPc::WaitRecvLeft { rl, rr, sl, sr } => {
                    let c = ready!(r.poll_wait(rl));
                    let from_left = decode_f64(&c.data)[0];
                    self.pc = HaloPc::WaitRecvRight {
                        rr,
                        sl,
                        sr,
                        from_left,
                    };
                }
                HaloPc::WaitRecvRight {
                    rr,
                    sl,
                    sr,
                    from_left,
                } => {
                    let c = ready!(r.poll_wait(rr));
                    let from_right = decode_f64(&c.data)[0];
                    self.pc = HaloPc::WaitSendLeft {
                        sl,
                        sr,
                        from_left,
                        from_right,
                    };
                }
                HaloPc::WaitSendLeft {
                    sl,
                    sr,
                    from_left,
                    from_right,
                } => {
                    ready!(r.poll_wait(sl));
                    self.pc = HaloPc::WaitSendRight {
                        sr,
                        from_left,
                        from_right,
                    };
                }
                HaloPc::WaitSendRight {
                    sr,
                    from_left,
                    from_right,
                } => {
                    ready!(r.poll_wait(sr));
                    slab[0] = 0.5 * slab[0] + 0.25 * from_left + 0.25 * slab[1];
                    slab[cells - 1] =
                        0.5 * slab[cells - 1] + 0.25 * from_right + 0.25 * slab[cells - 2];
                    self.pc = HaloPc::Barrier;
                }
                HaloPc::Barrier => {
                    ready!(r.poll_barrier(world));
                    self.it += 1;
                    self.pc = HaloPc::Post;
                }
            }
        }
        BodyStep::Done(
            slab.iter()
                .enumerate()
                .map(|(i, x)| x * (i + 1) as f64)
                .sum(),
        )
    }
}

// ----------------------------------------------------------------------
// Random workload
// ----------------------------------------------------------------------

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
}

/// Step form of [`crate::random_workload`]: the same schedule lowered to
/// a resumable machine.
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
}

impl StepBody for RandomWorkloadStep {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let n = r.size();
        let me = r.rank();
        let world = r.world_vcomm();
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
                    let step = self.step;
                    let skew = ((me as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(step as u64 * 40503)
                        % 97) as f64;
                    r.compute(1e-6 + skew * 2e-8);
                    self.pc = match draw_arm(&mut self.rng, n, step, self.cfg.blocking_only) {
                        Arm::Allreduce => RandPc::Allreduce,
                        Arm::Barrier => RandPc::Barrier,
                        Arm::Bcast { root } => RandPc::Bcast { root },
                        Arm::Allreduce2 => RandPc::BlockingAllreduce2,
                        Arm::IAllreduce2 => RandPc::IAllreduce,
                        Arm::DrainPending => RandPc::DrainPending { idx: 0 },
                        Arm::Ring => {
                            let to = (me + 1) % n;
                            let from = (me + n - 1) % n;
                            let sv = r.isend(world, to, 5, encode_f64(&[acc]));
                            let rv = r.irecv(world, from, 5u32);
                            RandPc::RingRecvWait { sv, rv }
                        }
                        Arm::Split { stripe } => RandPc::Split {
                            color: (me / stripe % 2) as i64,
                        },
                        Arm::SubAllreduce { pick } => {
                            match self.subcomms.get(pick % self.subcomms.len().max(1)) {
                                Some(&sub) => RandPc::SubAllreduce { sub },
                                None => {
                                    self.step += 1;
                                    RandPc::StepTop
                                }
                            }
                        }
                        Arm::Allgather => RandPc::Allgather,
                        Arm::Dup => RandPc::Dup,
                        Arm::Pair { a, b, tag } if a != b && me == a => {
                            let sv = r.isend(world, b, tag, encode_f64(&[acc]));
                            RandPc::PairSendWait { sv }
                        }
                        Arm::Pair { a, b, tag } if a != b && me == b => {
                            let rv = r.irecv(world, SrcSel::Any, TagSel::Tag(tag));
                            RandPc::PairRecvWait { rv }
                        }
                        Arm::Pair { .. } => {
                            self.step += 1;
                            RandPc::StepTop
                        }
                    };
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
                    return BodyStep::Done(acc);
                }
            }
            self.acc = Some(acc);
        }
    }
}

// ----------------------------------------------------------------------
// Representation equivalence: closure vs step, same program
// ----------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{bcast_pipeline, halo_exchange, scf_loop};
    use crate::random::random_workload;
    use ckpt::{run_ckpt_world, run_ckpt_world_steps, CkptOptions};
    use mpisim::{NetParams, WorldConfig};

    fn cfg(n: usize) -> WorldConfig {
        WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
    }

    /// Runs the closure and step forms of one program natively and
    /// asserts bit-identical results and makespan.
    fn assert_equivalent<R, F, MK, B>(n: usize, closure: F, make: MK)
    where
        R: PartialEq + std::fmt::Debug + Send + Copy,
        F: Fn(&mut ckpt::CcRank) -> R + Send + Sync,
        MK: Fn(usize) -> B + Send + Sync,
        B: ckpt::StepBody<Out = R>,
    {
        let t = run_ckpt_world(cfg(n), CkptOptions::native(), closure);
        let s = run_ckpt_world_steps(cfg(n), CkptOptions::native(), make);
        assert_eq!(
            t.results().copied().collect::<Vec<_>>(),
            s.results().copied().collect::<Vec<_>>(),
            "results must not see the rank representation"
        );
        assert_eq!(
            t.makespan, s.makespan,
            "virtual time must not see the rank representation"
        );
    }

    #[test]
    fn scf_step_matches_closure() {
        assert_equivalent(4, |r| scf_loop(r, 5, 8), |_| ScfStep::new(5, 8));
    }

    #[test]
    fn bcast_pipeline_step_matches_closure() {
        assert_equivalent(
            3,
            |r| bcast_pipeline(r, 4, 64),
            |_| BcastPipelineStep::new(4, 64),
        );
    }

    #[test]
    fn halo_step_matches_closure() {
        assert_equivalent(3, |r| halo_exchange(r, 4, 6), |_| HaloStep::new(4, 6));
    }

    #[test]
    fn random_workload_step_matches_closure() {
        let wl = RandomWorkloadCfg::new(11, 25);
        let wlc = wl.clone();
        assert_equivalent(
            4,
            move |r| random_workload(&wlc, r),
            move |_| RandomWorkloadStep::new(wl.clone()),
        );
    }

    #[test]
    fn random_workload_step_matches_closure_blocking_only() {
        let wl = RandomWorkloadCfg::new(23, 25).with_blocking_only();
        let wlc = wl.clone();
        assert_equivalent(
            4,
            move |r| random_workload(&wlc, r),
            move |_| RandomWorkloadStep::new(wl.clone()),
        );
    }
}
