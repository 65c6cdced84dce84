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

/// The same sweep with rank bodies as heap step objects: the shape holds,
/// and every cell reports the per-rank resident-memory column that only
/// the step representation can measure.
#[test]
fn figure7_shape_small_worlds_step_bodies() {
    let cfg = Figure7Config {
        ranks: vec![4, 8, 16],
        iters: 40,
        step_bodies: true,
        ..Figure7Config::default()
    };
    let report = figure7_report(&cfg);
    assert_eq!(report.len(), 3 * cfg.ranks.len());
    assert_figure7_shape(&report, cfg.checkpoints);
    if cfg!(target_os = "linux") {
        for r in &report {
            assert!(
                r.rank_mem_bytes.is_some(),
                "step cell ({}, {}) is missing the per-rank memory column",
                r.workload,
                r.ranks
            );
        }
    }
}

/// A thread cell and a step cell of the same (workload, ranks) operating
/// point agree on the measured collective rate: the virtual trajectory —
/// and so the makespan and counters the rate derives from — must not see
/// the rank representation (checkpoint-and-continue charges nothing).
#[test]
fn figure7_cell_collective_rate_is_representation_independent() {
    let thread_cfg = Figure7Config {
        ranks: vec![8],
        iters: 40,
        ..Figure7Config::default()
    };
    let step_cfg = Figure7Config {
        step_bodies: true,
        ..thread_cfg.clone()
    };
    let t = figure7_cell(&thread_cfg, BenchWorkload::Scf, 8);
    let s = figure7_cell(&step_cfg, BenchWorkload::Scf, 8);
    assert_eq!(
        t.coll_rate_hz, s.coll_rate_hz,
        "collective rate must be bit-identical across rank representations"
    );
    assert_eq!(t.drain_latency_s.len(), s.drain_latency_s.len());
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
