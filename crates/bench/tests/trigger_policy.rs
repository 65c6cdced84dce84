//! End-to-end coverage of the pluggable trigger policies: virtual-time
//! schedules (the old trigger list's successor), periodic intervals, and
//! collective-count strides. Every policy must fire the advertised number
//! of checkpoints at the advertised progress points, every captured cut
//! must satisfy the safe-cut oracle, and the data must stay bit-identical
//! to an uncheckpointed run.

use ckpt::{
    run_ckpt_world, CkptOptions, EveryNCollectives, PeriodicInterval, ResumeMode,
    VirtualTimeSchedule,
};
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::{RandomWorkloadCfg, RandomWorkloadStep};

const SEED: u64 = 77;
const STEPS: usize = 25;

fn cfg(n: usize) -> WorldConfig {
    WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
}

/// Native reference: `(per-rank data, makespan seconds)`.
fn native(n: usize) -> (Vec<f64>, f64) {
    let wl = RandomWorkloadCfg::new(SEED, STEPS);
    let run = run_ckpt_world(cfg(n), CkptOptions::native(), |r| {
        r.run(&mut RandomWorkloadStep::new(wl.clone()))
    });
    (run.results().copied().collect(), run.makespan.as_secs())
}

#[test]
fn virtual_time_schedule_fires_each_threshold_in_order() {
    let n = 4;
    let (native_data, makespan) = native(n);
    let t1 = VTime::from_secs(makespan * 0.3);
    let t2 = VTime::from_secs(makespan * 0.6);
    let wl = RandomWorkloadCfg::new(SEED, STEPS);
    let run = run_ckpt_world(
        cfg(n),
        CkptOptions::native()
            .with_policy(VirtualTimeSchedule::new([t1, t2]))
            .with_resume(ResumeMode::Continue),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert_eq!(run.checkpoints.len(), 2, "both thresholds must fire");
    for (i, c) in run.checkpoints.iter().enumerate() {
        c.verify()
            .unwrap_or_else(|v| panic!("cut {i} violated: {v:?}"));
    }
    assert!(
        run.checkpoints[0].request_clock < run.checkpoints[1].request_clock,
        "checkpoints must fire in schedule order"
    );
    assert!(run.checkpoints[0].request_clock >= t1.plus_secs(-1e-9));
    assert!(run.checkpoints[1].request_clock >= t2.plus_secs(-1e-9));
    let got: Vec<f64> = run.results().copied().collect();
    assert_eq!(got, native_data);
}

#[test]
fn periodic_interval_fires_at_multiples() {
    let n = 4;
    let (native_data, makespan) = native(n);
    let interval = VTime::from_secs(makespan * 0.25);
    let wl = RandomWorkloadCfg::new(SEED, STEPS);
    let run = run_ckpt_world(
        cfg(n),
        CkptOptions::native()
            .with_policy(PeriodicInterval::new(interval, 2))
            .with_resume(ResumeMode::Continue),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert_eq!(run.checkpoints.len(), 2, "limit bounds the fire count");
    for (i, c) in run.checkpoints.iter().enumerate() {
        c.verify().unwrap();
        // The k-th fire happens once the slowest rank passes k·interval.
        let due = interval.as_secs() * (i + 1) as f64;
        assert!(
            c.request_clock.as_secs() >= due - 1e-9,
            "checkpoint {i} fired at {} before its period {due}",
            c.request_clock
        );
    }
    let got: Vec<f64> = run.results().copied().collect();
    assert_eq!(got, native_data);
}

#[test]
fn every_n_collectives_fires_on_call_count_strides() {
    let n = 4;
    let stride = 5;
    let (native_data, _) = native(n);
    let wl = RandomWorkloadCfg::new(SEED, STEPS);
    let run = run_ckpt_world(
        cfg(n),
        CkptOptions::native()
            .with_policy(EveryNCollectives::new(stride, 2))
            .with_resume(ResumeMode::Continue),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert_eq!(run.checkpoints.len(), 2);
    for (i, c) in run.checkpoints.iter().enumerate() {
        c.verify().unwrap();
        // At fire k every rank had made at least k·stride collective
        // calls; captures only add drain progress on top.
        let min_colls = c
            .captures
            .iter()
            .map(|cap| cap.counters.coll_total())
            .min()
            .unwrap();
        assert!(
            min_colls >= stride * (i + 1) as u64,
            "checkpoint {i} fired at {min_colls} collective calls, \
             before its stride {}",
            stride * (i + 1) as u64
        );
    }
    let got: Vec<f64> = run.results().copied().collect();
    assert_eq!(got, native_data);
}

/// A restart resume composes with a policy: the second capture of a
/// schedule lands after the world was already rebuilt once.
#[test]
fn schedule_with_restart_resume_survives_both_captures() {
    let n = 4;
    let (native_data, makespan) = native(n);
    let wl = RandomWorkloadCfg::new(SEED, STEPS);
    let run = run_ckpt_world(
        cfg(n),
        CkptOptions::native()
            .with_policy(VirtualTimeSchedule::new([
                VTime::from_secs(makespan * 0.3),
                VTime::from_secs(makespan * 0.65),
            ]))
            .with_resume(ResumeMode::Restart),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert_eq!(run.checkpoints.len(), 2);
    assert_eq!(run.checkpoints[0].epoch, 0);
    assert_eq!(
        run.checkpoints[1].epoch, 1,
        "second capture must come from the rebuilt lower half"
    );
    let got: Vec<f64> = run.results().copied().collect();
    assert_eq!(got, native_data);
}
