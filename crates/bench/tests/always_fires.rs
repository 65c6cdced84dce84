//! A wall-fast run cannot outrun its trigger: the rank whose crossing
//! completes a threshold raises the checkpoint request inside its own
//! wrapper call, so every scheduled checkpoint fires however fast the run
//! is on the wall — even in the last tenth of the run, with nothing
//! pacing the ranks — and a planned fault late in the run always strikes
//! (fault campaigns run on the worker pool only).
//! Each cell runs `REPS` times and reports how many runs missed.

use ckpt::{
    run_available_world_steps, run_ckpt_world, run_ckpt_world_steps, CkptOptions, CkptRunReport,
    FaultPlan, FaultScope, FaultTrigger, ResumeMode, VirtualTimeSchedule,
};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::{scf_loop, ScfStep};

const RANKS: usize = 8;
const ITERS: usize = 30;
const ELEMS: usize = 8;
const REPS: usize = 20;
/// Thresholds, as fractions of the native makespan: the run's last tenth.
const LATE: [f64; 3] = [0.91, 0.94, 0.97];

fn cfg() -> WorldConfig {
    WorldConfig::single_node(RANKS).with_params(NetParams::slingshot11().without_jitter())
}

/// One run of the SCF program under `opts`, on step bodies or closures.
fn run(steps: bool, opts: CkptOptions) -> CkptRunReport<f64> {
    match steps {
        true => run_ckpt_world_steps(cfg(), opts, |_| ScfStep::new(ITERS, ELEMS)),
        false => run_ckpt_world(cfg(), opts, |r| scf_loop(r, ITERS, ELEMS)),
    }
}

/// The uncheckpointed run under `protocol`: `(results, makespan s)`.
fn native(steps: bool, protocol: Protocol) -> (Vec<f64>, f64) {
    let r = run(steps, CkptOptions::native().with_protocol(protocol));
    (r.results().copied().collect(), r.makespan.as_secs())
}

#[test]
fn a_wall_fast_run_fires_every_scheduled_checkpoint() {
    for protocol in [Protocol::Cc, Protocol::TwoPhase] {
        for steps in [true, false] {
            let (want, makespan) = native(steps, protocol);
            let times = LATE.map(|f| VTime::from_secs(makespan * f));
            let missed = (0..REPS)
                .filter(|_| {
                    let opts = CkptOptions::native()
                        .with_protocol(protocol)
                        .with_policy(VirtualTimeSchedule::new(times))
                        .with_resume(ResumeMode::Continue);
                    let r = run(steps, opts);
                    assert!(r.failures.is_empty(), "{:?}", r.failures);
                    assert_eq!(r.backstop_expiries, 0, "a wait timed out");
                    assert_eq!(r.results().copied().collect::<Vec<_>>(), want);
                    for c in &r.checkpoints {
                        c.verify().expect("a committed cut is safe");
                    }
                    r.checkpoints.len() != LATE.len()
                })
                .count();
            assert_eq!(
                missed, 0,
                "{protocol:?}, step bodies {steps}: {missed} of {REPS} runs missed a checkpoint"
            );
        }
    }
}

#[test]
fn a_late_fault_always_strikes_a_wall_fast_run() {
    for protocol in [Protocol::Cc, Protocol::TwoPhase] {
        let (want, makespan) = native(true, protocol);
        let missed = (0..REPS)
            .filter(|_| {
                let at = VTime::from_secs(makespan * 0.95);
                let plan = FaultPlan::one(FaultTrigger::AtVirtual(at), FaultScope::Rank(3));
                let opts = CkptOptions::native().with_protocol(protocol);
                let r =
                    run_available_world_steps(cfg(), opts, plan, |_| ScfStep::new(ITERS, ELEMS));
                assert_eq!(r.backstop_expiries, 0, "a wait timed out");
                assert_eq!(r.results().copied().collect::<Vec<_>>(), want);
                r.faults.len() != 1
            })
            .count();
        assert_eq!(
            missed, 0,
            "{protocol:?}: the fault missed {missed} of {REPS} runs"
        );
    }
}
