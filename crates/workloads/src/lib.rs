//! # workloads — synthetic MPI programs for checkpoint testing
//!
//! Every program is written once, as a resumable [`ckpt::StepBody`] the
//! worker pool can step, next to a function of the closure-body shape
//! that runs it to completion on the calling thread
//! ([`ckpt::CcRank::run`]).
//!
//! * [`rng`] — a seeded SplitMix64 generator (no external `rand`).
//! * [`random`] — the randomized workload generator: all ranks derive one
//!   schedule from a seed, mixing blocking/non-blocking collectives,
//!   communicator splits/dups, ring and wildcard point-to-point traffic,
//!   and skewed compute. Deterministic results make it the substrate of
//!   the safe-cut and bit-identical-restart harnesses.
//! * [`kernels`] — SCF-style, broadcast-pipeline and halo-exchange
//!   mini-kernels for the examples and the protocol benchmarks.
//! * [`demo`] — the quickstart checkpoint→restore→verify demonstration.

/// Resolves a poll inside a [`ckpt::StepBody::step`]: evaluates to
/// `Ready`'s value, or yields out of the enclosing `step` with the
/// pending wait reason.
macro_rules! ready {
    ($poll:expr) => {
        match $poll {
            ckpt::StepPoll::Ready(v) => v,
            ckpt::StepPoll::Pending(why) => return ckpt::BodyStep::Yield(why),
        }
    };
}

pub mod demo;
pub mod kernels;
pub mod random;
pub mod rng;

pub use demo::{quickstart, QuickstartOutcome};
pub use kernels::{bcast_pipeline, halo_exchange, scf_loop, BcastPipelineStep, HaloStep, ScfStep};
pub use random::{random_workload, RandomWorkloadCfg, RandomWorkloadStep};
pub use rng::SplitMix64;

#[cfg(test)]
mod testutil {
    use ckpt::{run_ckpt_world, run_ckpt_world_steps, CcRank, CkptOptions, StepBody};
    use mpisim::{NetParams, WorldConfig};

    pub(crate) fn cfg(n: usize) -> WorldConfig {
        WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
    }

    /// Runs one program natively under both drivers — `blocking` on a
    /// thread per rank, `make(rank)` on the worker pool — and asserts
    /// bit-identical results and makespan.
    pub(crate) fn assert_drivers_agree<B: StepBody<Out = f64>>(
        n: usize,
        blocking: impl Fn(&mut CcRank) -> f64 + Send + Sync,
        make: impl Fn(usize) -> B + Send + Sync,
    ) {
        let t = run_ckpt_world(cfg(n), CkptOptions::native(), blocking);
        let s = run_ckpt_world_steps(cfg(n), CkptOptions::native(), make);
        assert_eq!(
            t.results().copied().collect::<Vec<_>>(),
            s.results().copied().collect::<Vec<_>>(),
            "results must not see the driver"
        );
        assert_eq!(
            t.makespan, s.makespan,
            "virtual time must not see the driver"
        );
    }
}
