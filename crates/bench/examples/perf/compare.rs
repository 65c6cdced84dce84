//! `--compare A.json B.json`: for every (end-to-end metric, workload) of
//! two `result.json` files, median and quartiles over each file's runs and
//! one verdict against the bounds in `BENCHMARK.json`.

use crate::harness::quartiles;
use crate::json::Json;

/// What each run of one workload reported for `metric` (the median of its
/// timed reps).
pub fn run_values(runs: &[Json], metric: &str) -> Vec<f64> {
    let value = |run: &Json| run.get("metrics")?.get(metric)?.get("value")?.as_f64();
    runs.iter().filter_map(value).collect()
}

fn runs_of<'a>(result: &'a Json, workload: &str) -> &'a [Json] {
    let runs = result.get("workloads").and_then(|w| w.get(workload));
    runs.map_or(&[][..], Json::as_arr)
}

/// Prints one row per pair; `Ok(false)` if any pair regressed. `B` is
/// judged against `A` on the medians of their runs:
///
/// * `unresolved` — either side's runs spread (q3 − q1) ÷ median wider than
///   the bound, so they cannot tell a change of that size from noise;
/// * `regressed` — B's median is worse than A's by more than the bound;
/// * `same` — otherwise.
///
/// One run a side has no spread to judge by: take ten (`--runs 10`).
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (Json::read(a_path)?, Json::read(b_path)?);
    if a.get("config") != b.get("config") {
        return Err(format!(
            "refusing to compare: the files differ in workers, seed, runs or sizes\n  {a_path}: {}\n  {b_path}: {}",
            a.get("config").map_or_else(|| "null".into(), Json::encode),
            b.get("config").map_or_else(|| "null".into(), Json::encode),
        ));
    }
    let bench = Json::read("BENCHMARK.json")?;
    let mut all_ok = true;
    println!(
        "{:<15} {:<20} {:>13} {:>24} {:>13} {:>24} {:>8}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "change"
    );
    for (workload, _) in a.get("workloads").map_or(&[][..], Json::as_obj) {
        let (ra, rb) = (runs_of(&a, workload), runs_of(&b, workload));
        for m in bench.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            let (name, higher) = (field("name"), field("better") == "higher");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (run_values(ra, name), run_values(rb, name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{name}: missing from one of the files"));
            }
            let (a1, am, a3) = quartiles(&va);
            let (b1, bm, b3) = quartiles(&vb);
            let sign = if higher { -1.0 } else { 1.0 };
            let worse_by = sign * (bm - am) / am;
            let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
            let verdict = if spread > bound {
                "unresolved"
            } else if worse_by > bound {
                all_ok = false;
                "regressed"
            } else {
                "same"
            };
            println!(
                "{workload:<15} {name:<20} {am:>13.4} {:>24} {bm:>13.4} {:>24} {:>+7.1}%  {verdict}",
                format!("{a1:.4}..{a3:.4}"),
                format!("{b1:.4}..{b3:.4}"),
                (bm - am) / am * 100.0,
            );
        }
        // Simulated values must not move at all between two host-time runs.
        let checks = |runs: &[Json]| -> Vec<Option<Json>> {
            runs.iter().map(|r| r.get("checks").cloned()).collect()
        };
        if checks(ra) != checks(rb) {
            println!("{workload}: simulated check values differ between the two files");
            all_ok = false;
        }
    }
    Ok(all_ok)
}
