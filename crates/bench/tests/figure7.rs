//! The Figure 7 sweep as a test: drain latency vs. collective rate across
//! workloads and world sizes, asserting the paper's distribution shape —
//! the CC drain completes within a bounded number of collective intervals,
//! and the bound does not grow with the rank count.
//!
//! Tier-1 runs a small sweep on every `cargo test`; the `large_scale`
//! variant sweeps the paper's {64, 128, 256, 512} operating points and is
//! release-only (`cargo test --release -p bench -- large_scale`).

use bench::figure7::{assert_figure7_shape, figure7_cell};
use bench::{figure7_report, BenchWorkload, Figure7Config};
use ckpt::{run_ckpt_world, CkptOptions, ResumeMode, VirtualTimeSchedule};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};

/// The small sweep: the shape holds.
#[test]
fn figure7_shape_small_worlds() {
    let cfg = Figure7Config {
        ranks: vec![4, 8, 16],
        iters: 40,
        ..Figure7Config::default()
    };
    let report = figure7_report(&cfg);
    assert_eq!(report.len(), 3 * cfg.ranks.len());
    assert_figure7_shape(&report, cfg.checkpoints);
}

/// A sweep at two other world sizes, whose ranks are step bodies on the
/// worker pool: the shape holds, and every cell reports the per-rank
/// resident-memory column that only the step representation can measure.
#[test]
fn figure7_shape_small_worlds_step_bodies() {
    let cfg = Figure7Config {
        ranks: vec![2, 32],
        iters: 40,
        ..Figure7Config::default()
    };
    let report = figure7_report(&cfg);
    assert_eq!(report.len(), 3 * cfg.ranks.len());
    assert_figure7_shape(&report, cfg.checkpoints);
    if cfg!(target_os = "linux") {
        for r in &report {
            assert!(
                r.rank_mem_bytes.is_some(),
                "cell ({}, {}) is missing the per-rank memory column",
                r.workload,
                r.ranks
            );
        }
    }
}

/// A Figure 7 cell, whose ranks are step objects on the worker pool,
/// measures the same collective rate as the same cell run directly with
/// one thread per rank (`run_ckpt_world`): the virtual trajectory — and
/// so the makespan and counters the rate derives from — must not see the
/// rank representation (checkpoint-and-continue charges nothing).
#[test]
fn figure7_cell_collective_rate_is_representation_independent() {
    let cfg = Figure7Config {
        ranks: vec![8],
        iters: 40,
        ..Figure7Config::default()
    };
    let s = figure7_cell(&cfg, BenchWorkload::Scf, 8);
    let world = || {
        WorldConfig::multi_node(8, cfg.ranks_per_node)
            .with_params(NetParams::slingshot11().without_jitter())
    };
    let run = |opts| {
        run_ckpt_world(world(), opts, |r| {
            r.run(&mut BenchWorkload::Scf.step_body(cfg.iters))
        })
    };
    let native_s = run(CkptOptions::native().with_protocol(Protocol::Native))
        .makespan
        .as_secs();
    // The cell's schedule: the centers of `k` equal slices of
    // [0.15, 0.75] of the native makespan.
    let k = cfg.checkpoints;
    let times =
        (1..=k).map(|i| VTime::from_secs(native_s * (0.15 + 0.6 * (i as f64 - 0.5) / k as f64)));
    let t = run(CkptOptions::default()
        .with_policy(VirtualTimeSchedule::new(times))
        .with_resume(ResumeMode::Continue));
    let t_rate = t
        .final_counters
        .iter()
        .map(|c| c.coll_rate(t.makespan))
        .sum::<f64>()
        / 8.0;
    assert_eq!(
        t_rate, s.coll_rate_hz,
        "collective rate must be bit-identical across rank representations"
    );
    assert_eq!(t.checkpoints.len(), s.drain_latency_s.len());
}

/// The paper-scale sweep: CC drain latency stays bounded from 64 up to 512
/// thread ranks.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_figure7_shape_to_512_ranks() {
    let cfg = Figure7Config::paper_scale();
    let report = figure7_report(&cfg);
    assert_eq!(report.len(), 3 * cfg.ranks.len());
    assert_figure7_shape(&report, cfg.checkpoints);

    // The latency distribution must cover genuinely different collective
    // rates (the x-axis of Figure 7 is a sweep, not a point).
    let mut rates: Vec<f64> = report.iter().map(|r| r.coll_rate_hz).collect();
    rates.sort_by(f64::total_cmp);
    assert!(
        rates.last().unwrap() / rates.first().unwrap() > 2.0,
        "figure7 sweep collapsed to a single collective rate: {rates:?}"
    );
}

/// Beyond the paper: the {1024, 2048, 4096}-rank sweep. The headline
/// claim — drain-latency percentiles flat in collective-interval units as
/// ranks grow — must survive three more doublings past Figure 7's top
/// operating point. Behind the `large_scale` tier filter but skipped by
/// the CI job (`--skip 4096`): this is the most expensive case in the
/// repo and runs locally.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_xl_figure7_shape_to_4096_ranks() {
    let cfg = Figure7Config::xl_scale();
    let report = figure7_report(&cfg);
    assert_eq!(report.len(), 3 * cfg.ranks.len());
    assert_figure7_shape(&report, cfg.checkpoints);
}

/// The 16 384-rank step smoke: one SCF cell past the thread-per-rank
/// ceiling, CI's budget-friendly slice of the huge tier. Runs in the
/// `large_scale` CI job (it is not skipped there) and asserts the
/// per-rank memory column the step representation adds.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_step_figure7_16384_rank_smoke() {
    let cfg = Figure7Config {
        ranks: vec![16_384],
        ..Figure7Config::huge_scale()
    };
    let report = figure7_report(&cfg);
    assert_eq!(report.len(), 1);
    assert_figure7_shape(&report, cfg.checkpoints);
    if cfg!(target_os = "linux") {
        let mem = report[0].rank_mem_bytes.expect("per-rank memory column");
        // A parked rank is a heap object, not a stack: the build-phase
        // cost per rank must stay far below even one page-faulted OS
        // thread stack guard page's worth of memory per rank would allow
        // at this scale.
        assert!(
            mem < 64 * 1024,
            "step-object build cost {mem} B/rank at 16384 ranks"
        );
    }
}

/// The 65 536-rank world — the tentpole scale. Behind the `large_scale`
/// tier filter but local-only: CI skips it by name (`--skip 65536`).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_step_figure7_65536_rank_world() {
    let cfg = Figure7Config {
        ranks: vec![65_536],
        ..Figure7Config::huge_scale()
    };
    let report = figure7_report(&cfg);
    assert_eq!(report.len(), 1);
    assert_figure7_shape(&report, cfg.checkpoints);
    if cfg!(target_os = "linux") {
        assert!(report[0].rank_mem_bytes.is_some());
    }
}
