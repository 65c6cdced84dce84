//! Measurement plumbing: the span recorder, process CPU/RSS readings, the
//! call watchdog, order statistics and the micro-drive sampler.

use crate::json::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Wall deadline of every world run and restore (the satellite watchdog).
pub const CALL_DEADLINE: Duration = Duration::from_secs(120);

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

/// One recorded call into a layer.
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    /// Spans of one rep share this id.
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
}

/// The benchmark's in-memory span recorder. Every call into a layer goes
/// through [`Tracer::timed`], which always returns the call's wall seconds
/// and records a span only while recording is on — end-to-end metrics are
/// taken with it off.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    workload: &'static str,
    rep: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording: false,
            workload: "",
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts recording spans under a fresh rep id for `workload`.
    pub fn start_rep(&mut self, workload: &'static str) -> u32 {
        self.recording = true;
        self.workload = workload;
        self.rep += 1;
        self.rep
    }

    pub fn stop(&mut self) {
        self.recording = false;
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let idx = self.recording.then(|| {
            self.spans.push(Span {
                name,
                workload: self.workload,
                rep: self.rep,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let t = Instant::now();
        let out = f(self);
        let secs = t.elapsed().as_secs_f64();
        if let Some(i) = idx {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
            self.stack.pop();
        }
        (out, secs)
    }

    /// Self time per span name within one rep: a span's duration minus the
    /// part its child spans cover. Returns `(name, seconds)` in first-seen
    /// order; the values sum to the rep's root span.
    pub fn self_times(&self, rep: u32) -> Vec<(&'static str, f64)> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as f64 * 1e-9;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, secs) in self.spans.iter().zip(own) {
            if s.rep != rep {
                continue;
            }
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, acc)) => *acc += secs,
                None => out.push((s.name, secs)),
            }
        }
        out
    }

    pub fn spans_in(&self, rep: u32) -> usize {
        self.spans.iter().filter(|s| s.rep == rep).count()
    }

    /// Chrome trace format (`chrome://tracing`, Perfetto): one complete
    /// event per span, one track per workload.
    pub fn chrome_trace(&self) -> Json {
        let mut tracks: Vec<&'static str> = Vec::new();
        let events = self
            .spans
            .iter()
            .map(|s| {
                let tid = match tracks.iter().position(|w| *w == s.workload) {
                    Some(i) => i,
                    None => {
                        tracks.push(s.workload);
                        tracks.len() - 1
                    }
                };
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("cat", Json::Str(s.workload.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(tid as f64 + 1.0)),
                    (
                        "args",
                        Json::obj([
                            ("rep", Json::Num(f64::from(s.rep))),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

// ----------------------------------------------------------------------
// Watchdog
// ----------------------------------------------------------------------

/// Runs `f` on a helper thread under [`CALL_DEADLINE`]. A panic inside `f`
/// comes back as `Err(message)` so the rep is counted as failed and the
/// run goes on. A call that outlives the deadline cannot be unwound — its
/// rank threads are wedged — so the watchdog names it and ends the process
/// with a non-zero code.
pub fn guarded<T: Send>(what: &str, f: impl FnOnce() -> T + Send) -> Result<T, String> {
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        s.spawn(move || {
            // A closed channel means the watchdog already gave up on us.
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        match rx.recv_timeout(CALL_DEADLINE) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(p)) => {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic".into());
                Err(format!("{what} panicked: {msg}"))
            }
            Err(_) => {
                println!(
                    "WATCHDOG: {what} did not return within {} s; giving up",
                    CALL_DEADLINE.as_secs()
                );
                std::process::exit(3);
            }
        }
    })
}

// ----------------------------------------------------------------------
// Process readings
// ----------------------------------------------------------------------

/// `(user, sys)` CPU seconds of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; Linux fixes `USER_HZ` at 100).
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields count from after ")".
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut f = rest.split_whitespace().skip(11);
    let mut tick = || f.next().and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0) / 100.0;
    let user = tick();
    (user, tick())
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ----------------------------------------------------------------------
// Order statistics
// ----------------------------------------------------------------------

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(v, n=4)` gives them
/// (the exclusive method), so the spreads printed here are the ones the
/// acceptance procedure computes. A single sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// Distribution of one micro-drive: per-operation nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    pub min: f64,
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Dist {
    pub fn of(samples: &[f64]) -> Dist {
        let s = sorted(samples);
        let n = s.len();
        Dist {
            min: s[0],
            p50: median(&s),
            p99: s[((n * 99).div_ceil(100)).clamp(1, n) - 1],
            n,
        }
    }
}

/// Cost of one `Instant::now()` / `elapsed()` pair in nanoseconds (median
/// of 1000 batches of 100), subtracted from every micro-drive sample.
pub fn timer_cost_ns() -> Dist {
    let samples: Vec<f64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..100 {
                std::hint::black_box(Instant::now().elapsed());
            }
            t.elapsed().as_nanos() as f64 / 100.0
        })
        .collect();
    Dist::of(&samples)
}

/// Cost of one recorded span in nanoseconds: `Tracer::timed` around an
/// empty call with the recorder on (1000 batches of 100).
pub fn span_cost_ns() -> Dist {
    let mut t = Tracer::new();
    t.start_rep("harness");
    sample_ns(1000, 100, 0.0, || {
        t.spans.clear();
        for _ in 0..100 {
            std::hint::black_box(t.timed("span", |_| ()));
        }
    })
}

/// Nanoseconds per operation since `start`, net of the timer's own cost.
pub fn per_op_ns(start: Instant, timer_ns: f64, ops: usize) -> f64 {
    (start.elapsed().as_nanos() as f64 - timer_ns).max(0.0) / ops as f64
}

/// Takes `samples` timings of `batch()`, each covering `ops` operations,
/// and returns per-operation nanoseconds net of the timer's own cost.
pub fn sample_ns(samples: usize, ops: usize, timer_ns: f64, mut batch: impl FnMut()) -> Dist {
    let v: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            batch();
            per_op_ns(t, timer_ns, ops)
        })
        .collect();
    Dist::of(&v)
}
