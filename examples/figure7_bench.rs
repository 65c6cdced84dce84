//! The Figure 7 bench: CC drain latency vs. collective rate across
//! workloads and world sizes.
//! Writes `BENCH_figure7.json` into the current directory, next to the
//! other bench artifacts; the step-representation sweeps (`huge`,
//! `ci-huge`) write `BENCH_figure7_huge.json` instead, so the huge-tier
//! artifact (with its per-rank memory column) never clobbers the
//! thread-tier one.
//!
//! ```sh
//! cargo run --release --example figure7_bench
//! # paper-scale sweep (64..512 ranks; release build strongly advised):
//! FIGURE7_SCALE=paper cargo run --release --example figure7_bench
//! # beyond-paper sweep (1024..4096 ranks; minutes of wall time):
//! FIGURE7_SCALE=xl cargo run --release --example figure7_bench
//! # step-object sweep past the thread ceiling (16384..65536 ranks):
//! FIGURE7_SCALE=huge cargo run --release --example figure7_bench
//! ```

use bench::{figure7_report, figure7_to_json, Figure7Config};

fn main() {
    let scale = std::env::var("FIGURE7_SCALE").unwrap_or_default();
    let cfg = match scale.as_str() {
        "paper" => Figure7Config::paper_scale(),
        "xl" => Figure7Config::xl_scale(),
        // CI's time-budgeted variant of the xl sweep: same schedule, top
        // size capped at 2048 (the 4096 cells run locally).
        "ci-xl" => {
            let mut c = Figure7Config::xl_scale();
            c.ranks.retain(|&n| n <= 2048);
            c
        }
        // The step-representation tier: rank bodies are heap objects, so
        // the sweep crosses the OS thread ceiling. `ci-huge` is CI's
        // budgeted slice (16384 only; 65536 runs locally).
        "huge" => Figure7Config::huge_scale(),
        "ci-huge" => {
            let mut c = Figure7Config::huge_scale();
            c.ranks.retain(|&n| n <= 16_384);
            c
        }
        _ => Figure7Config::default(),
    };
    let report = figure7_report(&cfg);

    println!(
        "{:<16} {:>6} {:>14} {:>12} {:>12} {:>12} {:>18} {:>12}",
        "workload",
        "ranks",
        "coll rate(Hz)",
        "p50(s)",
        "p90(s)",
        "p99(s)",
        "p99(intervals)",
        "mem(B/rank)"
    );
    for r in &report {
        println!(
            "{:<16} {:>6} {:>14.1} {:>12.4e} {:>12.4e} {:>12.4e} {:>18.2} {:>12}",
            r.workload,
            r.ranks,
            r.coll_rate_hz,
            r.latency_percentile_s(0.5),
            r.latency_percentile_s(0.9),
            r.latency_percentile_s(0.99),
            r.latency_percentile_intervals(0.99),
            r.rank_mem_bytes
                .map_or_else(|| "-".to_string(), |b| b.to_string()),
        );
    }

    // The Figure 7 shape, asserted so CI catches a regression: every cell
    // fired all its checkpoints with finite latency, and the CC drain
    // stays bounded as worlds grow — the largest world's worst drain is
    // within a small factor of the smallest world's worst drain measured
    // in collective intervals.
    bench::figure7::assert_figure7_shape(&report, cfg.checkpoints);

    let out = if cfg.step_bodies {
        "BENCH_figure7_huge.json"
    } else {
        "BENCH_figure7.json"
    };
    let json = figure7_to_json(&report);
    std::fs::write(out, &json).expect("write figure7 bench json");
    println!(
        "\nwrote {out} ({} cells, {} bytes)",
        report.len(),
        json.len()
    );
}
