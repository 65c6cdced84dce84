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

use crate::rng::SplitMix64;
use bytes::Bytes;
use ckpt::CcRank;
use mana_core::VComm;
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

/// One step of the schedule: what every rank does at it, with the step's
/// random parameters already drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arm {
    /// Blocking allreduce on world.
    Allreduce,
    /// Barrier on world.
    Barrier,
    /// Bcast from a random root.
    Bcast { root: usize },
    /// Allreduce of `[1.0, acc]`, run synchronously (blocking-only
    /// schedules, i.e. 2PC)...
    Allreduce2,
    /// ...or merely initiated, to be completed a few steps later or by
    /// the checkpoint drain.
    IAllreduce2,
    /// Complete all pending non-blocking collectives.
    DrainPending,
    /// Ring exchange: everyone sends to `(r+1)`, receives from `(r-1)`.
    Ring,
    /// Split by parity stripe `stripe` ranks wide; collective inside.
    Split { stripe: usize },
    /// Collective on the `pick`-th previously created subcomm (if any).
    SubAllreduce { pick: usize },
    /// Allgather on world.
    Allgather,
    /// Dup of world, then a barrier on the dup.
    Dup,
    /// Directed pair message `a → b` with a wildcard receive.
    Pair { a: usize, b: usize, tag: u32 },
}

/// Draws step `step`'s arm for an `n`-rank world. Called exactly once per
/// step, by every rank and by both forms of the workload, so the schedule
/// is agreed by construction: every draw a step makes happens in here,
/// whether or not the calling rank acts on the arm.
pub(crate) fn draw_arm(rng: &mut SplitMix64, n: usize, step: usize, blocking_only: bool) -> Arm {
    match rng.next_range(100) {
        0..=19 => Arm::Allreduce,
        20..=27 => Arm::Barrier,
        28..=37 => Arm::Bcast {
            root: rng.next_range(n as u64) as usize,
        },
        38..=52 if blocking_only => Arm::Allreduce2,
        38..=52 => Arm::IAllreduce2,
        // Blocking-only schedules have nothing pending: a barrier instead.
        53..=62 if blocking_only => Arm::Barrier,
        53..=62 => Arm::DrainPending,
        63..=74 => Arm::Ring,
        75..=81 => Arm::Split {
            stripe: 1 + rng.next_range(3) as usize, // 1..=3
        },
        82..=86 => Arm::SubAllreduce {
            pick: rng.next_range(8) as usize,
        },
        87..=92 => Arm::Allgather,
        93..=94 => Arm::Dup,
        _ => {
            let a = rng.next_range(n as u64) as usize;
            let b = if n > 1 {
                (a + 1 + rng.next_range(n as u64 - 1) as usize) % n
            } else {
                a
            };
            // A per-step tag keeps matching deterministic even when
            // several wildcard messages are in flight at once.
            let tag = 1000 + step as u32;
            Arm::Pair { a, b, tag }
        }
    }
}

/// Runs the workload on one rank; returns the rank's checksum.
pub fn random_workload(cfg: &RandomWorkloadCfg, rank: &mut CcRank) -> f64 {
    let n = rank.size();
    let me = rank.rank();
    let world = rank.world_vcomm();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut acc: f64 = me as f64 + 1.0;
    // Non-blocking collectives in flight (completed a few steps later).
    let mut pending: Vec<mana_core::VReq> = Vec::new();
    // Sub-communicators created by earlier split/dup steps.
    let mut subcomms: Vec<VComm> = Vec::new();

    // The pace rides on `compute` (one call per step): the wall sleep
    // happens with the scheduler run slot released, so pacing a 512-rank
    // world does not serialize it through the worker pool.
    rank.set_wall_pace_us(cfg.pace_us);

    for step in 0..cfg.steps {
        // Deterministic per-rank compute skew so drains catch ranks at
        // genuinely different points.
        let skew = ((me as u64)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(step as u64 * 40503)
            % 97) as f64;
        rank.compute(1e-6 + skew * 2e-8);

        match draw_arm(&mut rng, n, step, cfg.blocking_only) {
            Arm::Allreduce => {
                let v = rank.allreduce_f64(world, &[acc], ReduceOp::Sum);
                acc = 0.25 * acc + v[0] * 1e-3;
            }
            Arm::Barrier => rank.barrier(world),
            Arm::Bcast { root } => {
                let data = if rank.comm_rank(world) == root {
                    encode_f64(&[acc])
                } else {
                    Bytes::new()
                };
                let out = rank.bcast(world, root, data);
                acc += decode_f64(&out)[0] * 1e-3;
            }
            Arm::Allreduce2 => {
                let out = rank.allreduce(world, encode_f64(&[1.0, acc]), DType::F64, ReduceOp::Sum);
                acc += decode_f64(&out)[1] * 1e-4;
            }
            Arm::IAllreduce2 => {
                let v = rank.iallreduce(world, encode_f64(&[1.0, acc]), DType::F64, ReduceOp::Sum);
                pending.push(v);
            }
            Arm::DrainPending => {
                for v in pending.drain(..) {
                    let c = rank.wait(v);
                    acc += decode_f64(&c.data)[1] * 1e-4;
                }
            }
            Arm::Ring => {
                let to = (me + 1) % n;
                let from = (me + n - 1) % n;
                let sv = rank.isend(world, to, 5, encode_f64(&[acc]));
                let (data, _st) = rank.recv(world, from, 5);
                acc += decode_f64(&data)[0] * 1e-3;
                rank.wait(sv);
            }
            Arm::Split { stripe } => {
                let color = (me / stripe % 2) as i64;
                let sub = rank
                    .comm_split(world, color, me as i64)
                    .expect("non-negative color");
                let v = rank.allreduce_f64(sub, &[acc], ReduceOp::Max);
                acc = 0.5 * acc + 0.5 * v[0];
                subcomms.push(sub);
            }
            Arm::SubAllreduce { pick } => {
                if let Some(&sub) = subcomms.get(pick % subcomms.len().max(1)) {
                    let v = rank.allreduce_f64(sub, &[acc], ReduceOp::Sum);
                    acc = 0.75 * acc + v[0] * 1e-3;
                }
            }
            Arm::Allgather => {
                let out = rank.allgather(world, encode_f64(&[acc]));
                let s: f64 = decode_f64(&out).iter().sum();
                acc = 0.9 * acc + s * 1e-3 / n as f64;
            }
            Arm::Dup => {
                let d = rank.comm_dup(world);
                rank.barrier(d);
                subcomms.push(d);
            }
            Arm::Pair { a, b, tag } => {
                if a != b {
                    if me == a {
                        rank.send(world, b, tag, encode_f64(&[acc]));
                    } else if me == b {
                        let (data, _st) = rank.recv(world, SrcSel::Any, TagSel::Tag(tag));
                        acc += decode_f64(&data)[0] * 1e-3;
                    }
                }
            }
        }
    }
    // Complete leftovers and synchronize.
    for v in pending.drain(..) {
        let c = rank.wait(v);
        acc += decode_f64(&c.data)[1] * 1e-4;
    }
    rank.barrier(world);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt::{run_ckpt_world, CkptOptions};
    use mpisim::{NetParams, WorldConfig};

    fn cfg(n: usize) -> WorldConfig {
        WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
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
