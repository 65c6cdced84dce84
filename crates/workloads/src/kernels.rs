//! Structured mini-kernels used by the examples and the protocol
//! benchmarks: an SCF-style iteration (VASP-like: dense allreduces
//! between compute phases), a broadcast pipeline, and a non-blocking
//! halo exchange (Poisson-style: irecv/isend + overlapped compute).
//!
//! Each kernel is written once, as a [`StepBody`]: a program counter enum
//! plus locals, with every operation that can wait resumed through the
//! rank's idempotent-start `poll_*` API, the wrapper's only MPI face. The
//! worker pool steps the body directly (`run_ckpt_world_steps(.., |_|
//! ScfStep::new(..))`); a closure on a thread of its own runs it to
//! completion there (`|r| r.run(&mut ScfStep::new(..))`: [`CcRank::run`],
//! the one call that blocks). [`scf_loop`] and [`halo_exchange`] are that
//! closure, kept for the host-time benchmark's thread workloads.
//! Each body's documentation gives the straight-line program it encodes.
//! Each saves its state ([`StepBody::save`]) — what its constructor does
//! not rebuild, behind the constructor's arguments, which `load` checks —
//! so its images restore elsewhere; [`Then`] runs two bodies back to
//! back.

use crate::snap::{check_arg, dec_f64s, enc_f64s};
use bytes::Bytes;
use ckpt::wire::{Dec, DecodeError, Wr};
use ckpt::{BodyStep, CcRank, StepBody};
use mana_core::VReq;
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::ReduceOp;

/// An SCF-like loop: each iteration does local "diagonalization" compute,
/// an energy allreduce, and a convergence broadcast. Returns the final
/// energy (identical on every rank). [`ScfStep`] run to completion.
pub fn scf_loop(rank: &mut CcRank, iters: usize, elems: usize) -> f64 {
    rank.run(&mut ScfStep::new(iters, elems))
}

enum ScfPc {
    Mix,
    Allreduce { local_e: f64 },
    Bcast,
}

/// The SCF program, one rank's share:
///
/// ```text
/// local[i] = (rank * elems + i) * 1e-3;  energy = 0
/// for it in 0..iters:
///     compute(5 µs);  mix energy into every local[i]     // "diagonalization"
///     energy  = allreduce_sum(world, sum(local)) / size
///     damp    = bcast(world, root 0, 1 / (1 + it))       // root's damping factor
///     energy *= 1 - 0.1 * damp
/// return energy
/// ```
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
                    // "Diagonalization": deterministic local mixing.
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
                    // Root broadcasts a damping factor derived from the
                    // iteration.
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

    fn save(&self, w: &mut dyn Wr) -> bool {
        w.usize(self.iters);
        w.usize(self.elems);
        w.usize(self.it);
        w.f64(self.energy);
        enc_f64s(w, self.local.as_deref());
        match self.pc {
            ScfPc::Mix => w.u8(0),
            ScfPc::Allreduce { local_e } => {
                w.u8(1);
                w.f64(local_e);
            }
            ScfPc::Bcast => w.u8(2),
        }
        true
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        check_arg(d, self.iters, "SCF iterations")?;
        check_arg(d, self.elems, "SCF elements")?;
        self.it = d.usize("SCF iteration")?;
        self.energy = d.f64("SCF energy")?;
        self.local = dec_f64s(d, self.elems, "SCF local elements")?;
        self.pc = match d.u8("SCF pc")? {
            0 => ScfPc::Mix,
            1 => ScfPc::Allreduce {
                local_e: d.f64("SCF local energy")?,
            },
            2 => ScfPc::Bcast,
            _ => return Err("SCF pc"),
        };
        Ok(())
    }
}

enum BcastPc {
    Work,
    Bcast { data: Bytes },
    FinalBarrier,
    Done,
}

/// A broadcast pipeline — the paper's worst case for 2PC (Figure 5a).
/// The root streams `iters` broadcasts while every rank does skewed local
/// work between them. `MPI_Bcast` is *non-synchronizing*: the root exits
/// its binomial tree long before the leaves, so back-to-back broadcasts
/// pipeline and per-rank jitter is absorbed in slack. A trivial barrier in
/// front of each call (2PC) forces every rank to meet, de-pipelining the
/// stream and amplifying jitter by the expected max over all ranks.
/// The result is a checksum of everything received (identical on every
/// rank).
///
/// The broadcast-pipeline program, one rank's share:
///
/// ```text
/// acc = 0
/// for it in 0..iters:
///     compute(0.5 µs + up to 1.7 µs of per-(rank, it) skew)   // root lightest
///     out  = bcast(world, root 0, a `bytes`-byte pattern stamped with it)
///     acc += sum(out) * 1e-6
/// barrier(world)
/// return acc
/// ```
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
                    // Skewed local work; the root is lightest so it can
                    // run ahead.
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
                    self.pc = BcastPc::Done;
                }
                BcastPc::Done => return BodyStep::Done(self.acc),
            }
        }
    }

    fn save(&self, w: &mut dyn Wr) -> bool {
        w.usize(self.iters);
        w.usize(self.bytes);
        w.usize(self.it);
        w.f64(self.acc);
        match &self.pc {
            BcastPc::Work => w.u8(0),
            BcastPc::Bcast { data } => {
                w.u8(1);
                w.bytes(data);
            }
            BcastPc::FinalBarrier => w.u8(2),
            BcastPc::Done => w.u8(3),
        }
        true
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        check_arg(d, self.iters, "pipeline iterations")?;
        check_arg(d, self.bytes, "pipeline message size")?;
        self.it = d.usize("pipeline iteration")?;
        self.acc = d.f64("pipeline checksum")?;
        self.pc = match d.u8("pipeline pc")? {
            0 => BcastPc::Work,
            1 => BcastPc::Bcast {
                data: Bytes::from(d.bytes("pipeline payload")?.to_vec()),
            },
            2 => BcastPc::FinalBarrier,
            3 => BcastPc::Done,
            _ => return Err("pipeline pc"),
        };
        Ok(())
    }
}

/// A 1-D non-blocking halo exchange: each rank owns a slab, trades edge
/// cells with both neighbors via irecv/isend, overlaps interior compute,
/// then applies a stencil. Returns a checksum of the final slab.
/// [`HaloStep`] run to completion.
pub fn halo_exchange(rank: &mut CcRank, iters: usize, cells: usize) -> f64 {
    rank.run(&mut HaloStep::new(iters, cells))
}

enum HaloPc {
    Post,
    /// Waiting on `reqs[k]` — both receives, then both sends; `got` holds
    /// the edge cells received so far.
    Wait {
        reqs: [VReq; 4],
        k: usize,
        got: [f64; 2],
    },
    Barrier,
}

/// The halo-exchange program, one rank's share:
///
/// ```text
/// slab[i] = rank * cells + i
/// for _ in 0..iters:
///     rl = irecv(left, tag 1);          rr = irecv(right, tag 2)
///     sl = isend(left, tag 2, slab[0]); sr = isend(right, tag 1, slab[last])
///     compute(2 µs);  1-2-1 stencil over the interior       // overlapped
///     from_left = wait(rl);  from_right = wait(rr);  wait(sl);  wait(sr)
///     fold from_left / from_right into the two edge cells
///     barrier(world)                                        // residual check
/// return sum(slab[i] * (i + 1))
/// ```
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
                    let reqs = [
                        r.irecv(world, left, 1u32),
                        r.irecv(world, right, 2u32),
                        r.isend(world, left, 2u32, encode_f64(&[slab[0]])),
                        r.isend(world, right, 1u32, encode_f64(&[slab[cells - 1]])),
                    ];
                    // Overlapped interior update.
                    r.compute(2e-6);
                    for i in 1..cells - 1 {
                        slab[i] = 0.25 * slab[i - 1] + 0.5 * slab[i] + 0.25 * slab[i + 1];
                    }
                    self.pc = HaloPc::Wait {
                        reqs,
                        k: 0,
                        got: [0.0; 2],
                    };
                }
                HaloPc::Wait { reqs, k, mut got } if k < reqs.len() => {
                    let c = ready!(r.poll_wait(reqs[k]));
                    if k < got.len() {
                        got[k] = decode_f64(&c.data)[0];
                    }
                    self.pc = HaloPc::Wait {
                        reqs,
                        k: k + 1,
                        got,
                    };
                }
                HaloPc::Wait {
                    got: [from_left, from_right],
                    ..
                } => {
                    slab[0] = 0.5 * slab[0] + 0.25 * from_left + 0.25 * slab[1];
                    slab[cells - 1] =
                        0.5 * slab[cells - 1] + 0.25 * from_right + 0.25 * slab[cells - 2];
                    self.pc = HaloPc::Barrier;
                }
                // One collective per sweep (a residual-check barrier), so
                // the kernel carries a realistic collective rate for the
                // protocol comparison.
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

    fn save(&self, w: &mut dyn Wr) -> bool {
        w.usize(self.iters);
        w.usize(self.cells);
        w.usize(self.it);
        enc_f64s(w, self.slab.as_deref());
        match self.pc {
            HaloPc::Post => w.u8(0),
            HaloPc::Wait { reqs, k, got } => {
                w.u8(1);
                for v in reqs {
                    w.var(v.0);
                }
                w.usize(k);
                got.iter().for_each(|&x| w.f64(x));
            }
            HaloPc::Barrier => w.u8(2),
        }
        true
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        check_arg(d, self.iters, "halo sweeps")?;
        check_arg(d, self.cells, "halo cells")?;
        self.it = d.usize("halo sweep")?;
        self.slab = dec_f64s(d, self.cells, "halo slab")?;
        self.pc = match d.u8("halo pc")? {
            0 => HaloPc::Post,
            1 => {
                let mut reqs = [VReq(0); 4];
                for v in &mut reqs {
                    *v = VReq(d.var("halo request")?);
                }
                let k = d.usize("halo wait index")?;
                let got = [d.f64("halo left edge")?, d.f64("halo right edge")?];
                HaloPc::Wait { reqs, k, got }
            }
            2 => HaloPc::Barrier,
            _ => return Err("halo pc"),
        };
        Ok(())
    }
}

/// Two programs back to back on one rank: `first` to completion, then
/// `second`; the result is both results. Once done, `first` is stepped
/// again for its result — which a body that saves returns without an MPI
/// call — so the pair's state is its parts' states.
pub struct Then<A, B> {
    first: A,
    second: B,
}

impl<A: StepBody, B: StepBody> Then<A, B> {
    /// `first`, then `second`.
    pub fn new(first: A, second: B) -> Then<A, B> {
        Then { first, second }
    }
}

impl<A: StepBody, B: StepBody> StepBody for Then<A, B> {
    type Out = (A::Out, B::Out);

    fn step(&mut self, r: &mut CcRank) -> BodyStep<Self::Out> {
        let a = match self.first.step(r) {
            BodyStep::Done(a) => a,
            BodyStep::Yield(why) => return BodyStep::Yield(why),
        };
        match self.second.step(r) {
            BodyStep::Done(b) => BodyStep::Done((a, b)),
            BodyStep::Yield(why) => BodyStep::Yield(why),
        }
    }

    fn save(&self, w: &mut dyn Wr) -> bool {
        self.first.save(w) && self.second.save(w)
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        self.first.load(d)?;
        self.second.load(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_drivers_agree, cfg};
    use ckpt::{run_ckpt_world, CkptOptions};
    use mana_core::Protocol;

    #[test]
    fn drivers_agree_on_scf() {
        assert_drivers_agree(
            Protocol::Cc,
            4,
            |r| scf_loop(r, 5, 8),
            |_| ScfStep::new(5, 8),
        );
    }

    #[test]
    fn drivers_agree_on_bcast_pipeline() {
        assert_drivers_agree(
            Protocol::Cc,
            3,
            |r| r.run(&mut BcastPipelineStep::new(4, 64)),
            |_| BcastPipelineStep::new(4, 64),
        );
    }

    #[test]
    fn drivers_agree_on_halo() {
        assert_drivers_agree(
            Protocol::Cc,
            3,
            |r| halo_exchange(r, 4, 6),
            |_| HaloStep::new(4, 6),
        );
    }

    #[test]
    fn scf_converges_identically_on_all_ranks() {
        let rep = run_ckpt_world(cfg(4), CkptOptions::native(), |r| scf_loop(r, 5, 8));
        let first = rep.ranks[0].result;
        assert!(first.is_finite());
        for r in &rep.ranks {
            assert_eq!(r.result, first, "energy must agree on all ranks");
        }
    }

    #[test]
    fn halo_checksums_are_deterministic() {
        let run = || {
            run_ckpt_world(cfg(3), CkptOptions::native(), |r| halo_exchange(r, 4, 6))
                .ranks
                .into_iter()
                .map(|r| r.result)
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }
}
