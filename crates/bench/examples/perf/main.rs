//! The host-time benchmark of the simulator and the checkpoint data path.
//!
//! ```text
//! perf [--runs N]                   all four workloads N times (seeds S..S+N-1) + the
//!                                    traced run, each in its own child process; writes
//!                                    target/perf/result.json
//! perf --workload W --seed S --seconds T --trace 0|1
//!                                    one run; last stdout line is the result object
//! perf --smoke                       the same plumbing at 16 ranks x 1 rep, and checks
//!                                    every metric name against BENCHMARK.json
//! perf --compare A.json B.json       medians, quartiles and a verdict per
//!                                    (end-to-end metric, workload) over each file's runs
//! perf --screen LO HI                the image sizes of raw schedule seeds LO..=HI
//! ```
//!
//! See README.md beside this file for what each number means.

mod compare;
mod harness;
mod json;
mod layers;
mod spec;
mod workloads;

use ckpt::CkptOptions;
use harness::{cpu_times, peak_rss_mb, quartiles, timer_cost_ns, Tracer};
use json::Json;
use layers::LayerTable;
use mana_core::Protocol;
use spec::{Sizes, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{CkptCycle, Env, ImagePipeline, RepOut, Steady, Workload};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u64,
    compare: Option<(String, String)>,
    screen: Option<(u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 1,
        compare: None,
        screen: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        let mut whole = || -> Result<u64, String> {
            let v = value("a whole number")?;
            v.parse().map_err(|e| format!("{flag} {v}: {e}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = whole()?,
            "--runs" => a.runs = whole()?.max(1),
            "--screen" => a.screen = Some((whole()?, whole()?)),
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

fn env_of(a: &Args) -> Env {
    Env {
        sizes: if a.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
        seed: a.seed,
    }
}

/// Where result files go: under the build directory, which a checkout
/// ignores.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perf")
}

fn run_file(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

fn write_file(path: &Path, body: &Json) -> Result<(), String> {
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(path, body.encode() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, args.screen, &args.workload) {
        (Some((a, b)), _, _) => compare::compare(a, b),
        (None, Some((lo, hi)), _) => workloads::screen(&env_of(&args), lo, hi).map(|()| true),
        (None, None, Some(w)) if args.trace => traced_run(&args, w),
        (None, None, Some(w)) => timed_run(&args, w, t0),
        (None, None, None) => suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            println!("perf: {e}");
            ExitCode::from(1)
        }
    }
}

// ----------------------------------------------------------------------
// One timed run
// ----------------------------------------------------------------------

/// One timed rep with the process CPU it used.
struct Rep {
    out: RepOut,
    wall_s: f64,
    user_s: f64,
    sys_s: f64,
}

fn run_rep(w: &mut dyn Workload, env: &Env, t: &mut Tracer) -> Rep {
    let (u0, s0) = cpu_times();
    let (out, wall_s) = t.timed("rep", |t| w.rep(env, t));
    let (u1, s1) = cpu_times();
    Rep {
        out,
        wall_s,
        user_s: u1 - u0,
        sys_s: s1 - s0,
    }
}

impl Rep {
    fn ops_per_s(&self) -> f64 {
        self.out.ops as f64 / self.out.ops_wall_s
    }

    fn cpu_us_per_op(&self) -> f64 {
        (self.user_s + self.sys_s) * 1e6 / self.out.ops as f64
    }
}

fn report_failures(workload: &str, stage: &str, failures: &[String]) {
    for f in failures {
        println!("FAILED {workload} {stage}: {f}");
    }
}

fn sizes_json(env: &Env) -> Json {
    let sizes = env.sizes.describe();
    Json::obj(sizes.into_iter().map(|(k, v)| (k, Json::Num(v))))
}

fn config_json(a: &Args, env: &Env) -> Json {
    Json::obj([
        ("workers", Json::Num(env.workers as f64)),
        ("seed", Json::Num(a.seed as f64)),
        (
            "schedule_seed",
            Json::Num(workloads::schedule_seed(a.seed) as f64),
        ),
        ("smoke", Json::Bool(a.smoke)),
        ("sizes", sizes_json(env)),
    ])
}

/// The contract's result object: exactly these four keys.
fn result_line(attempted: usize, failed: usize, metrics: &[(String, f64, &str)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })),
        ),
    ])
}

/// Set-up, warm-up rep, then timed reps for `--seconds`; prints every
/// end-to-end metric and ends with the result object.
fn timed_run(a: &Args, name: &str, t0: Instant) -> Result<bool, String> {
    let env = env_of(a);
    let seconds = if a.smoke { 0.0 } else { a.seconds };
    let mut t = Tracer::new();
    let mut w = workloads::setup(name, &env, &mut t)?;
    // The first rep after launch runs 2-3x slower (cold allocator, page
    // faults, thread-pool start): it belongs to set-up, not to the sample.
    let warm = w.rep(&env, &mut t);
    report_failures(name, "warm-up", &warm.failures);
    let setup_s = t0.elapsed().as_secs_f64();

    // A rep starts while the window is open: a run measures for at least
    // `--seconds` and overshoots by less than one rep.
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let rep = run_rep(w.as_mut(), &env, &mut t);
        report_failures(name, &format!("rep {}", reps.len() + 1), &rep.out.failures);
        reps.push(rep);
    }
    let good: Vec<&Rep> = reps.iter().filter(|r| r.out.failures.is_empty()).collect();
    // A failed warm-up counts as one more failed rep.
    let attempted = reps.len() + usize::from(!warm.failures.is_empty());
    let failed = attempted - good.len();
    if good.is_empty() {
        return Err(format!("{name}: no rep passed its checks"));
    }

    let col = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { good.iter().map(|r| f(r)).collect() };
    let samples: Vec<Vec<f64>> = vec![
        col(&|r| r.ops_per_s()),
        col(&|r| r.cpu_us_per_op()),
        col(&|r| r.out.image_bytes_per_rank),
        vec![peak_rss_mb()],
        vec![setup_s],
    ];
    println!(
        "workload {name}: W={} seed={} reps={} failed={failed} (set-up {setup_s:.2} s, reps {:.2} s)",
        env.workers,
        a.seed,
        reps.len(),
        start.elapsed().as_secs_f64(),
    );
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    for (m, s) in END_TO_END.iter().zip(&samples) {
        let (q1, value, q3) = quartiles(s);
        println!(
            "  {:<20} = {value:>14.4} {:<6} (median; q1 {q1:.4}, q3 {q3:.4}, n={})",
            m.name,
            m.unit,
            s.len()
        );
        metrics.push((m.name.to_string(), value, m.unit));
        detail.push((
            m.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.into())),
                ("samples", Json::nums(s)),
            ]),
        ));
    }
    let checks = w.checks();
    for (k, v) in &checks {
        println!("  check {k} = {}", v.encode());
    }
    let file = Json::obj([
        ("workload", Json::Str(name.into())),
        ("config", config_json(a, &env)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(detail)),
        ("checks", Json::obj(checks)),
        // Every timed rep with its side measurements, for reading noise.
        (
            "reps",
            Json::Arr(
                reps.iter()
                    .map(|r| {
                        let own = [
                            ("wall_s", r.wall_s),
                            ("user_s", r.user_s),
                            ("sys_s", r.sys_s),
                        ];
                        let all = own.iter().chain(&r.out.detail);
                        Json::obj(all.map(|(k, v)| (*k, Json::Num(*v))))
                    })
                    .collect(),
            ),
        ),
    ]);
    write_file(&run_file(name, false), &file)?;
    println!("{}", result_line(attempted, failed, &metrics).encode());
    Ok(true)
}

// ----------------------------------------------------------------------
// The traced run
// ----------------------------------------------------------------------

/// One workload's part of the traced run: the warm-up rep as in a timed
/// run, then one rep with the recorder on. Fills the per-workload rows of
/// the table and returns the traced rep.
fn traced_workload(
    name: &'static str,
    w: &mut dyn Workload,
    env: &Env,
    t: &mut Tracer,
    span_ns: f64,
    out: &mut LayerTable,
) -> Option<Rep> {
    let warm = w.rep(env, t);
    report_failures(name, "warm-up", &warm.failures);
    let rep_id = t.start_rep(name);
    let rep = run_rep(w, env, t);
    t.stop();
    out.attempted += 1;
    report_failures(name, "traced rep", &rep.out.failures);
    out.failures.extend(warm.failures);
    if !rep.out.failures.is_empty() {
        out.failures.extend(rep.out.failures);
        return None;
    }
    // What the recorder itself cost this rep: its spans at the measured
    // price of one. (A traced rep against an untraced one would be the
    // difference of two reps that differ by 10-20 % on their own.)
    let spans = t.spans_in(rep_id);
    out.put(
        format!("harness.trace_overhead_pct.{name}"),
        spans as f64 * span_ns / (rep.wall_s * 1e9) * 100.0,
    );
    out.put(
        format!("sched.sys_cpu_share.{name}"),
        rep.sys_s / (rep.user_s + rep.sys_s).max(f64::MIN_POSITIVE),
    );
    let selfs = t.self_times(rep_id);
    // The root span's own time is what the harness spends between calls
    // (checks, summaries, drops); the rest is inside the layers.
    let in_layers: f64 = selfs
        .iter()
        .filter(|(n, _)| *n != "rep")
        .map(|(_, s)| s)
        .sum();
    println!(
        "  traced rep of {name}: {spans} spans, layer self times cover {:.1} % of the rep's {:.3} s wall",
        100.0 * in_layers / rep.wall_s,
        rep.wall_s
    );
    for (span, secs) in selfs {
        let span = if span == "rep" { "harness" } else { span };
        out.put(format!("self_ms.{name}.{span}"), secs * 1e3);
    }
    Some(rep)
}

/// `--trace 1`: one traced rep of every workload plus all micro-drives;
/// prints the per-layer table, writes the Chrome trace. `ckpt_cycle` goes
/// last: the heap it leaves behind slows whatever runs after it.
fn traced_run(a: &Args, selected: &str) -> Result<bool, String> {
    let env = env_of(a);
    let mut t = Tracer::new();
    let mut out = LayerTable::default();
    println!("traced run (requested for {selected}; every workload is traced)");
    let timer = timer_cost_ns();
    let span = harness::span_cost_ns();

    {
        let mut w = Steady::setup(true, &env, &mut t)?;
        if let Some(rep) = traced_workload("scf_steady", &mut w, &env, &mut t, span.p50, &mut out) {
            out.put("virt.overhead_pct.scf_steady", w.virt_overhead_pct());
            out.put(
                "steps.build_bytes_per_rank",
                w.build_bytes_per_rank.unwrap_or(0) as f64,
            );
            // The same run on one worker: how much of W the driver uses.
            let cc = CkptOptions::native().with_protocol(Protocol::Cc);
            let (one, wall) = w.run(&env, &mut t, cc, 1, 0)?;
            let at_one = workloads::summarize(&one).ops as f64 / wall;
            out.put(
                "sched.parallel_efficiency",
                rep.ops_per_s() / (env.workers as f64 * at_one),
            );
        }
    }
    {
        let mut w = Steady::setup(false, &env, &mut t)?;
        if traced_workload("halo_threads", &mut w, &env, &mut t, span.p50, &mut out).is_some() {
            out.put("virt.overhead_pct.halo_threads", w.virt_overhead_pct());
        }
    }
    {
        let mut w = ImagePipeline::setup(&env, &mut t)?;
        if let Some(rep) =
            traced_workload("image_pipeline", &mut w, &env, &mut t, span.p50, &mut out)
        {
            let get = |key| rep.out.get(key).unwrap_or(f64::NAN);
            let full_mb = get("full_bytes") / 1e6;
            out.put("image.encode_mb_s", full_mb / get("encode_s"));
            out.put("image.decode_mb_s", full_mb / get("decode_s"));
            out.put(
                "image.encode_par_speedup",
                get("encode_s") / get("encode_par_s"),
            );
            out.put("image.pipeline_mb_s", get("moved_mb") / rep.out.ops_wall_s);
            out.put("image.write_side_ms", get("write_side_s") * 1e3);
            out.put("image.read_side_ms", get("read_side_s") * 1e3);
            out.put("store.save_full_ms", get("save_full_s") * 1e3);
            out.put("store.save_delta_ms", get("save_delta_s") * 1e3);
            out.put("store.load_chain_ms", get("load_chain_s") * 1e3);
            out.put("store.delta_ratio", get("delta_bytes") / get("full_bytes"));
            out.put("store.new_chunks", get("new_chunks"));
        }
        t.start_rep("layers");
        layers::image_drives(&env, &mut t, &w.images[1], &w.images[2], &mut out);
    }
    t.start_rep("layers");
    layers::events_image_drive(&env, &mut t, &mut out);
    out.put_dist("harness.span_ns", span);
    layers::micro_drives(&env, &mut t, timer, &mut out);
    t.stop();
    {
        let mut w = CkptCycle::setup(&env, &mut t)?;
        if let Some(rep) = traced_workload("ckpt_cycle", &mut w, &env, &mut t, span.p50, &mut out) {
            let get = |key| rep.out.get(key).unwrap_or(f64::NAN);
            out.put("coordinator.run_wall_ms", get("run_wall_s") * 1e3);
            out.put("coordinator.capture_bracket_ms", get("capture_bracket_ms"));
            out.put(
                "coordinator.ckpt_cost_ms",
                (get("run_wall_s") - get("ref_wall_s")) * 1e3 / spec::CKPT_GENERATIONS as f64,
            );
            out.put("coordinator.backstop_expiries", get("backstops"));
            out.put("restore.wall_ms", get("restore_wall_s") * 1e3);
            out.put(
                "restore.replay_ratio",
                get("restore_run_s") / get("ref_wall_s"),
            );
        }
    }

    report_failures("traced run", "check", &out.failures);
    println!("per-layer table ({} rows):", out.values.len());
    let mut metrics = Vec::new();
    for (name, value) in &out.values {
        let (unit, _) = spec::per_layer_unit(name);
        match out.dists.iter().find(|(n, _)| n == name) {
            Some((_, d)) => println!(
                "  {name:<44} = {value:>14.3} {unit:<6} (min {:.3}, p99 {:.3}, n={})",
                d.min, d.p99, d.n
            ),
            None => println!("  {name:<44} = {value:>14.3} {unit}"),
        }
        metrics.push((name.clone(), *value, unit));
    }
    let attempted = out.attempted;
    let failed = out.failures.len().min(attempted);
    let file = Json::obj([
        ("workload", Json::Str(selected.into())),
        ("config", config_json(a, &env)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "per_layer",
            Json::obj(out.values.iter().map(|(k, v)| {
                let (unit, higher) = spec::per_layer_unit(k);
                let better = if higher { "higher" } else { "lower" };
                (
                    k.clone(),
                    Json::obj([
                        ("value", Json::Num(*v)),
                        ("unit", Json::Str(unit.into())),
                        ("better", Json::Str(better.into())),
                    ]),
                )
            })),
        ),
        (
            "dists",
            Json::obj(out.dists.iter().map(|(k, d)| {
                (
                    k.clone(),
                    Json::obj([
                        ("min", Json::Num(d.min)),
                        ("p50", Json::Num(d.p50)),
                        ("p99", Json::Num(d.p99)),
                        ("n", Json::Num(d.n as f64)),
                    ]),
                )
            })),
        ),
    ]);
    write_file(&run_file(selected, true), &file)?;
    let trace_path = out_dir().join("trace.json");
    write_file(&trace_path, &t.chrome_trace())?;
    println!("wrote {} ({} spans)", trace_path.display(), t.spans.len());
    println!("{}", result_line(attempted, failed, &metrics).encode());
    Ok(true)
}

// ----------------------------------------------------------------------
// The whole suite
// ----------------------------------------------------------------------

/// Runs every workload `--runs` times (run `i` on seed `--seed + i`), then
/// the traced run, one child process at a time (each gets a cold allocator
/// and its own peak RSS), and merges their result files into `result.json`.
fn suite(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut child = |workload: &str, trace: bool, seed: u64| -> Result<Json, String> {
        let path = run_file(workload, trace);
        // A stale file must not stand in for a child that died.
        let _ = std::fs::remove_file(&path);
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()]);
        if a.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
        if !status.success() {
            println!("FAILED {workload}: child exited with {status}");
            ok = false;
        }
        let run = Json::read(&path)?;
        ok &= run.get("failed").and_then(Json::as_f64) == Some(0.0);
        Ok(run)
    };
    // Workloads alternate inside a round, so a slow spell of the host
    // lands on every workload's sample and not on one workload's alone.
    let mut runs: Vec<(&str, Vec<Json>)> = WORKLOADS.iter().map(|w| (*w, Vec::new())).collect();
    for i in 0..a.runs {
        for (w, of_w) in &mut runs {
            of_w.push(child(w, false, a.seed + i)?);
        }
    }
    let traced = child(WORKLOADS[0], true, a.seed)?;

    println!(
        "\nsummary: median [q1 .. q3] of {} run(s) per workload; spread = (q3 - q1) / median",
        a.runs
    );
    for (w, of_w) in &runs {
        for m in &END_TO_END {
            let (q1, med, q3) = quartiles(&compare::run_values(of_w, m.name));
            println!(
                "  {w:<15} {:<20} {med:>14.4} {:<6} [{q1:.4} .. {q3:.4}]  spread {:.1} %",
                m.name,
                m.unit,
                (q3 - q1) / med * 100.0
            );
        }
    }
    let env = env_of(a);
    let result = Json::obj([
        (
            "config",
            Json::obj([
                ("workers", Json::Num(env.workers as f64)),
                ("seed", Json::Num(a.seed as f64)),
                ("runs", Json::Num(a.runs as f64)),
                ("smoke", Json::Bool(a.smoke)),
                ("sizes", sizes_json(&env)),
            ]),
        ),
        (
            "workloads",
            Json::obj(runs.into_iter().map(|(w, of_w)| (w, Json::Arr(of_w)))),
        ),
        (
            "per_layer",
            traced.get("per_layer").cloned().unwrap_or(Json::Null),
        ),
        ("dists", traced.get("dists").cloned().unwrap_or(Json::Null)),
    ]);
    let path = out_dir().join("result.json");
    write_file(&path, &result)?;
    println!("wrote {}", path.display());
    if a.smoke {
        ok &= names_match_benchmark_json(&result)?;
    }
    println!("{}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// `--smoke`: every workload and every metric — name, unit, direction,
/// bound — in `BENCHMARK.json` must be what the program prints, and the
/// other way round.
fn names_match_benchmark_json(result: &Json) -> Result<bool, String> {
    let bench = Json::read("BENCHMARK.json")?;
    // One line per listed entry: its fields, in the order asked for.
    let listed = |key: &str, fields: &[&str]| -> Vec<String> {
        let line = |m: &Json| -> Vec<String> {
            fields
                .iter()
                .map(|f| match m.get(f) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::Num(x)) => x.to_string(),
                    _ => "?".into(),
                })
                .collect()
        };
        let entries = bench.get(key).map_or(&[][..], Json::as_arr);
        entries.iter().map(|m| line(m).join(" ")).collect()
    };
    let mut ok = true;
    let mut same = |what: &str, mut listed: Vec<String>, mut printed: Vec<String>| {
        listed.sort();
        printed.sort();
        if listed != printed {
            println!("FAILED BENCHMARK.json {what}:\n  listed  {listed:?}\n  printed {printed:?}");
            ok = false;
        }
    };
    let direction = |higher| if higher { "higher" } else { "lower" };
    same(
        "workloads",
        listed("workloads", &["name"]),
        WORKLOADS.iter().map(|w| w.to_string()).collect(),
    );
    same(
        "end_to_end",
        listed("end_to_end", &["name", "unit", "better", "bound"]),
        END_TO_END
            .iter()
            .map(|m| {
                let better = direction(m.higher_better);
                format!("{} {} {better} {}", m.name, m.unit, m.bound)
            })
            .collect(),
    );
    for (w, of_w) in result.get("workloads").map_or(&[][..], Json::as_obj) {
        for run in of_w.as_arr() {
            let metrics = run.get("metrics").map_or(&[][..], Json::as_obj);
            same(
                &format!("end_to_end names printed by {w}"),
                listed("end_to_end", &["name"]),
                metrics.iter().map(|(k, _)| k.clone()).collect(),
            );
        }
    }
    let layers = result.get("per_layer").map_or(&[][..], Json::as_obj);
    same(
        "per_layer",
        listed("per_layer", &["name", "unit", "better"]),
        layers
            .iter()
            .map(|(name, _)| {
                let (unit, higher) = spec::per_layer_unit(name);
                format!("{name} {unit} {}", direction(higher))
            })
            .collect(),
    );
    Ok(ok)
}
