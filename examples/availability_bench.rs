//! The availability bench: MTBF × interval policy × protocol under fault
//! injection and supervised recovery. Each cell runs the SCF workload
//! under a deterministic seeded fault plan (rank and node deaths at
//! exponential virtual times), checkpoints into a rotating
//! memory/partner/Lustre tier schedule, and recovers from its images
//! through [`ckpt::run_available_world_steps`] until the workload
//! completes —
//! reporting wasted work, makespan inflation, and recovery latency per
//! (MTBF row × {4× Daly, 2× Daly, Daly} ladder rung × {CC, 2PC}). The
//! shape is asserted before anything is written: a complete grid, one
//! recovery per fault, zero backstop expiries, no checkpoint storm (per
//! cell, at most ⌈native makespan ÷ interval⌉ + faults + 1 checkpoints),
//! and per-protocol mean wasted work decreasing down the ladder toward
//! the Daly optimum.
//! Writes `BENCH_availability.json` into the current directory.
//!
//! ```sh
//! cargo run --release --example availability_bench
//! ```

use bench::{
    assert_availability_shape, availability_report, availability_to_json, AvailabilityConfig,
};

fn main() {
    let cfg = AvailabilityConfig::default();
    let report = availability_report(&cfg);

    println!(
        "native makespan {:.6}s, mean write cost {:.6}s",
        report.native_makespan_s, report.write_cost_s
    );
    println!(
        "{:<5} {:>10} {:<11} {:>11} {:>7} {:>6} {:>10} {:>11} {:>11} {:>10}",
        "proto",
        "mtbf(s)",
        "policy",
        "interval(s)",
        "faults",
        "ckpts",
        "wasted(%)",
        "recovery(s)",
        "makespan(s)",
        "inflation"
    );
    for p in &report.points {
        println!(
            "{:<5} {:>10.6} {:<11} {:>11.6} {:>7} {:>6} {:>10.2} {:>11.6} {:>11.6} {:>10.4}",
            p.protocol,
            p.mtbf_s,
            p.policy,
            p.interval_s,
            p.faults,
            p.checkpoints,
            p.wasted_work_frac * 100.0,
            p.recovery_latency_s,
            p.makespan_s,
            p.makespan_inflation,
        );
    }

    assert_availability_shape(&report, cfg.mtbf_factors.len());
    let json = availability_to_json(&report);
    std::fs::write("BENCH_availability.json", &json).expect("write BENCH_availability.json");
    println!(
        "\nwrote BENCH_availability.json ({} points)",
        report.points.len()
    );
}
