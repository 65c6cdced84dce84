//! The paper's figures, one suite each: `protocols` (Figure 5a),
//! `figure7` and `figure7_huge` (Figure 7 to 4096 and to 65 536 ranks),
//! `figure9` and `availability`. A suite runs its sweep, asserts
//! its shape through the lib's `assert_*` check, prints the rows it
//! writes and writes `BENCH_<suite>.json`: at the configuration of its
//! checked-in file into the current directory, or with `--ci` at the
//! slice CI runs (`protocols` at 40 iterations, `figure7` to 2048 ranks,
//! `figure7_huge` at 16384) into `target/figures/`, so that it never
//! overwrites a checked-in file.
//!
//! ```sh
//! cargo run --release --example figures -- protocols figure9 availability
//! cargo run --release --example figures -- --ci figure7 figure7_huge
//! ```

use bench::{
    assert_availability_shape, assert_figure5a_shape, assert_figure7_shape, assert_figure9_shape,
    availability_report, figure5a_matrix, figure7_json, figure7_report, figure9_report,
    AvailabilityConfig, BenchConfig, BenchRecord, Figure7Config, Figure9Config, Json,
};
use std::path::Path;
use std::process::ExitCode;

const SUITES: &str = "protocols figure7 figure7_huge figure9 availability";

/// Runs `suite` (its CI slice if `ci`), asserts its shape and returns the
/// file it writes.
fn run(suite: &str, ci: bool) -> Json {
    match suite {
        "protocols" => {
            let iters = if ci { 40 } else { 120 };
            let records = figure5a_matrix(&BenchConfig {
                iters,
                ..BenchConfig::default()
            });
            assert_figure5a_shape(&records);
            records.iter().map(BenchRecord::to_json).collect()
        }
        "figure7" | "figure7_huge" => {
            let (mut cfg, ci_cap) = match suite {
                "figure7" => (Figure7Config::xl_scale(), 2048),
                _ => (Figure7Config::huge_scale(), 16_384),
            };
            if ci {
                cfg.ranks.retain(|&n| n <= ci_cap);
            }
            let cells = figure7_report(&cfg);
            assert_figure7_shape(&cells, cfg.checkpoints);
            figure7_json(&cells)
        }
        "figure9" => {
            let report = figure9_report(&Figure9Config::default());
            assert_figure9_shape(&report);
            report.to_json()
        }
        "availability" => {
            let cfg = AvailabilityConfig::default();
            let report = availability_report(&cfg);
            assert_availability_shape(&report, cfg.mtbf_factors.len());
            report.to_json()
        }
        _ => unreachable!("suite names are checked before any runs"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ci = args.iter().any(|a| a == "--ci");
    let suites: Vec<&str> = (args.iter().map(String::as_str))
        .filter(|a| *a != "--ci")
        .collect();
    let known = |s: &&str| SUITES.split(' ').any(|k| k == *s);
    if suites.is_empty() || !suites.iter().all(known) {
        eprintln!("usage: figures <suite>... [--ci]; suites: {SUITES}");
        return ExitCode::FAILURE;
    }
    let dir = Path::new(if ci { "target/figures" } else { "." });
    std::fs::create_dir_all(dir).expect("create the output directory");
    for suite in suites {
        let text = run(suite, ci).encode();
        let path = dir.join(format!("BENCH_{suite}.json"));
        std::fs::write(&path, &text).expect("write the suite's file");
        print!("{text}");
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
