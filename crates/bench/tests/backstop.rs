//! Backstop-expiry regression tier: every unbounded wait in the system
//! (mailbox receive waits, the checkpoint layer's control parks, idle
//! step-driver workers) is event-driven, with long timeouts kept only as
//! lost-wakeup backstops. A regression back to timed polling is invisible
//! to every functional test — results stay bit-identical, only host
//! sys-time blows up once worlds get big (the exact failure PR 4 fixed:
//! 200 µs re-checks throttling 256-rank captures ~30×). These tests pin
//! the property directly: across full checkpointed runs — drain, quiesce,
//! capture, restart, resume — the per-world counter of backstop-expiry
//! wakeups stays at zero, because every wake arrives from the event that
//! was being waited on.

use ckpt::{run_ckpt_world, run_ckpt_world_steps, CkptOptions, ResumeMode};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::{RandomWorkloadCfg, RandomWorkloadStep};

fn cfg(n: usize) -> WorldConfig {
    WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
}

/// One checkpointed run; returns the expiry count after asserting the
/// checkpoint actually fired (an idle run would trivially count zero).
fn expiries_of(seed: u64, mode: ResumeMode, protocol: Protocol) -> u64 {
    let wl = RandomWorkloadCfg::new(seed, 25);
    let native = run_ckpt_world(cfg(8), CkptOptions::native().with_protocol(protocol), |r| {
        r.run(&mut RandomWorkloadStep::new(wl.clone()))
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.4);
    let run = run_ckpt_world(
        cfg(8),
        CkptOptions::one_checkpoint(at, mode).with_protocol(protocol),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
    );
    assert_eq!(
        run.checkpoints.len(),
        1,
        "seed {seed}: the checkpoint must fire for the run to exercise \
         the drain/quiesce/resume wait paths"
    );
    assert!(run.failures.is_empty(), "seed {seed}: {:?}", run.failures);
    run.backstop_expiries
}

/// The steady-state property: full CC checkpoint + restart and + continue
/// runs complete without a single backstop-expiry wakeup — every park in
/// the system was woken by its event, never by its timeout.
#[test]
fn checkpointed_runs_pay_no_backstop_expiries() {
    for seed in 0..4 {
        let mode = if seed % 2 == 0 {
            ResumeMode::Restart
        } else {
            ResumeMode::Continue
        };
        let expiries = expiries_of(seed, mode, Protocol::Cc);
        assert_eq!(
            expiries, 0,
            "seed {seed} ({mode:?}): a backstop timeout fired — some wait \
             regressed from event-driven to timed polling"
        );
    }
}

/// Same property under 2PC, whose capture parks ranks *inside* trivial
/// barriers (a different park path than the CC drain gate).
#[test]
fn two_phase_runs_pay_no_backstop_expiries() {
    for seed in 0..2 {
        let mode = if seed % 2 == 0 {
            ResumeMode::Restart
        } else {
            ResumeMode::Continue
        };
        let expiries = expiries_of(seed, mode, Protocol::TwoPhase);
        assert_eq!(
            expiries, 0,
            "seed {seed} ({mode:?}, 2PC): a backstop timeout fired — some \
             wait regressed from event-driven to timed polling"
        );
    }
}

/// [`expiries_of`] with rank bodies as heap step objects on the step
/// driver: the parks it must keep event-driven are the driver's own
/// worker waits plus every `Pending` yield-point in the step engine. The
/// driver's 1 s rescue sweep counts into the same expiry counter, so a
/// step-engine wait that loses its wakeup (and survives only via the
/// sweep) fails these assertions.
fn expiries_of_steps(seed: u64, mode: ResumeMode, protocol: Protocol, n: usize) -> u64 {
    let wl = RandomWorkloadCfg::new(seed, 25);
    let timing = wl.clone();
    let native = run_ckpt_world_steps(
        cfg(n),
        CkptOptions::native().with_protocol(protocol),
        move |_rank| RandomWorkloadStep::new(timing.clone()),
    );
    let at = VTime::from_secs(native.makespan.as_secs() * 0.4);
    let run = run_ckpt_world_steps(
        cfg(n),
        CkptOptions::one_checkpoint(at, mode).with_protocol(protocol),
        move |_rank| RandomWorkloadStep::new(wl.clone()),
    );
    assert_eq!(
        run.checkpoints.len(),
        1,
        "seed {seed}: the checkpoint must fire for the run to exercise \
         the step driver's drain/quiesce/resume wait paths"
    );
    assert!(run.failures.is_empty(), "seed {seed}: {:?}", run.failures);
    run.backstop_expiries
}

/// The step-driver steady state: CC checkpoint + restart and + continue
/// runs on heap step objects complete without one backstop expiry.
#[test]
fn step_driver_checkpointed_runs_pay_no_backstop_expiries() {
    for seed in 0..4 {
        let mode = if seed % 2 == 0 {
            ResumeMode::Restart
        } else {
            ResumeMode::Continue
        };
        let expiries = expiries_of_steps(seed, mode, Protocol::Cc, 8);
        assert_eq!(
            expiries, 0,
            "seed {seed} ({mode:?}, step driver): a backstop timeout fired \
             — some wait regressed from event-driven to timed polling"
        );
    }
}

/// Same property under 2PC on the step driver (trivial-barrier parks run
/// through the step engine's 2PC gate machine).
#[test]
fn step_driver_two_phase_runs_pay_no_backstop_expiries() {
    for seed in 0..2 {
        let mode = if seed % 2 == 0 {
            ResumeMode::Restart
        } else {
            ResumeMode::Continue
        };
        let expiries = expiries_of_steps(seed, mode, Protocol::TwoPhase, 8);
        assert_eq!(
            expiries, 0,
            "seed {seed} ({mode:?}, 2PC, step driver): a backstop timeout \
             fired — some wait regressed from event-driven to timed polling"
        );
    }
}

/// The 1024-rank step-mode sweep: CC and 2PC, checkpoint/restart and
/// checkpoint/continue, all backstop-free. This is the scale where a
/// timed-poll regression turns into host saturation (1024 parked ranks
/// re-checking), so the zero-expiry property is pinned exactly here.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_step_driver_1024_rank_runs_pay_no_backstop_expiries() {
    for (protocol, seed, mode) in [
        (Protocol::Cc, 1, ResumeMode::Continue),
        (Protocol::Cc, 2, ResumeMode::Restart),
        (Protocol::TwoPhase, 3, ResumeMode::Continue),
        (Protocol::TwoPhase, 4, ResumeMode::Restart),
    ] {
        let expiries = expiries_of_steps(seed, mode, protocol, 1024);
        assert_eq!(
            expiries, 0,
            "seed {seed} ({mode:?}, {protocol:?}, 1024-rank step driver): \
             a backstop timeout fired"
        );
    }
}
