//! The Figure 7 sweep: virtual checkpoint **drain latency** against the
//! workload's **collective rate**, across workloads and world sizes.
//!
//! The paper's Figure 7 plots the distribution — full CDFs per
//! collective-rate bucket — of the CC protocol's drain latency (request →
//! capture, virtual time) at up to 512 ranks and shows it stays small — a
//! handful of collective intervals — because the drain only has to run
//! every group to the maximum already-started sequence number, never to a
//! global barrier. This harness reproduces that shape: each (workload ×
//! world size) cell runs under CC with several checkpoints spread over
//! the run, records every per-checkpoint
//! [`ckpt::Checkpoint::drain_latency_secs`], summarizes the sample as
//! p50/p90/p99 percentiles, and pairs it with the per-rank collective
//! rate derived from the final [`mana_core::CallCounters`] (`coll_rate`).
//! [`figure7_json`] is the file: `figures figure7` writes the
//! {1024, 2048, 4096}-rank sweep to `BENCH_figure7.json` and
//! `figures figure7_huge` the {16 384, 65 536}-rank sweep to
//! `BENCH_figure7_huge.json`.
//!
//! Shape expectations (asserted by `tests/figure7.rs` and the release-only
//! `large_scale` tier):
//!
//! * drain latency is finite and non-negative everywhere;
//! * within a cell, the latency distribution's **p99** is bounded by a
//!   small multiple of the mean collective interval (`1 / coll_rate`) —
//!   the drain completes within the round of collectives already in
//!   flight, and not just on a lucky sample;
//! * across world sizes, the bound does **not** grow with the rank count:
//!   CC drain latency stays flat as worlds grow (the paper's headline,
//!   validated here up to 4096 ranks), in contrast to stop-the-world
//!   approaches.

use crate::json::obj;
use crate::{BenchWorkload, Json};
use ckpt::{run_ckpt_world_steps, CkptOptions, ResumeMode, VirtualTimeSchedule};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};

/// Configuration of the Figure 7 sweep.
#[derive(Debug, Clone)]
pub struct Figure7Config {
    /// World sizes to sweep.
    pub ranks: Vec<usize>,
    /// Ranks per simulated node (Perlmutter: 128).
    pub ranks_per_node: usize,
    /// Workload iterations per run.
    pub iters: usize,
    /// Checkpoints per run (drain-latency samples), spread evenly over the
    /// native makespan.
    pub checkpoints: usize,
    /// Workloads to sweep (the full matrix by default; the huge tier
    /// narrows this to keep a cell's wall time bounded).
    pub workloads: Vec<BenchWorkload>,
}

impl Default for Figure7Config {
    fn default() -> Self {
        Figure7Config {
            ranks: vec![8, 16, 32, 64],
            ranks_per_node: 128,
            iters: 60,
            checkpoints: 6,
            workloads: BenchWorkload::ALL.to_vec(),
        }
    }
}

impl Figure7Config {
    /// The paper-scale sweep ({64, 128, 256, 512} ranks). Release builds
    /// only — this is minutes of work in a debug build.
    pub fn paper_scale() -> Self {
        Figure7Config {
            ranks: vec![64, 128, 256, 512],
            ..Figure7Config::default()
        }
    }

    /// The beyond-paper sweep ({1024, 2048, 4096} ranks): the scales the
    /// ROADMAP's "scale beyond 512" item targets, runnable on one host by
    /// the small rank stacks + lock-free rendezvous arrival. Release
    /// builds only; fewer iterations than the smaller sweeps so a cell
    /// stays minutes, not hours, on a 2-worker host.
    pub fn xl_scale() -> Self {
        Figure7Config {
            ranks: vec![1024, 2048, 4096],
            iters: 24,
            checkpoints: 5,
            ..Figure7Config::default()
        }
    }

    /// The huge sweep ({16 384, 65 536} ranks): past the OS thread
    /// ceiling entirely, runnable only because a parked rank is a heap
    /// object on the worker pool. Narrowed to the SCF workload (the dense
    /// synchronizing-collective cell, the paper's hardest case for a
    /// drain) and fewer iterations so the 65 536-rank cell stays tens of
    /// minutes. Release builds only.
    pub fn huge_scale() -> Self {
        Figure7Config {
            ranks: vec![16_384, 65_536],
            iters: 6,
            checkpoints: 3,
            workloads: vec![BenchWorkload::Scf],
            ..Figure7Config::default()
        }
    }
}

/// One measured cell of the Figure 7 matrix.
#[derive(Debug, Clone)]
pub struct Figure7Record {
    /// Workload name.
    pub workload: &'static str,
    /// World size.
    pub ranks: usize,
    /// Mean per-rank collective rate (calls per virtual second), from the
    /// final interposition counters over the run makespan.
    pub coll_rate_hz: f64,
    /// Mean collective interval (`1 / coll_rate_hz`), the natural unit of
    /// drain latency.
    pub coll_interval_s: f64,
    /// Virtual drain latency of every checkpoint taken, in run order.
    pub drain_latency_s: Vec<f64>,
    /// Resident memory per rank (bytes): host RSS growth across the
    /// step-object build phase divided by the rank count, from the
    /// checkpointed run. `None` only off Linux, where the process's
    /// resident set is not read.
    pub rank_mem_bytes: Option<u64>,
}

impl Figure7Record {
    /// The `q`-quantile (0 ≤ q ≤ 1) of the cell's drain-latency samples,
    /// nearest-rank method (0 if no checkpoint fired). `0.5`/`0.9`/`0.99`
    /// are the summary points emitted into `BENCH_figure7.json`.
    pub fn latency_percentile_s(&self, q: f64) -> f64 {
        let mut sorted = self.drain_latency_s.clone();
        if sorted.is_empty() {
            return 0.0;
        }
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// [`Figure7Record::latency_percentile_s`] in units of the mean
    /// collective interval — the natural axis of the paper's CDFs.
    pub fn latency_percentile_intervals(&self, q: f64) -> f64 {
        self.to_intervals(self.latency_percentile_s(q))
    }

    fn to_intervals(&self, latency_s: f64) -> f64 {
        if self.coll_interval_s > 0.0 {
            latency_s / self.coll_interval_s
        } else {
            0.0
        }
    }

    /// The cell as one row of `"cells"`: raw samples plus p50/p90/p99
    /// summaries (seconds).
    pub fn to_json(&self) -> Json {
        obj! {
            "workload" => self.workload, "ranks" => self.ranks,
            "coll_rate_hz" => self.coll_rate_hz, "coll_interval_s" => self.coll_interval_s,
            "drain_latency_s" => self.drain_latency_s.as_slice(),
            "p50_s" => self.latency_percentile_s(0.5), "p90_s" => self.latency_percentile_s(0.9),
            "p99_s" => self.latency_percentile_s(0.99), "rank_mem_bytes" => self.rank_mem_bytes,
        }
    }
}

/// One collective-rate bucket of the full Figure 7 CDF. The paper plots
/// one CDF curve per collective-rate band; the summary percentiles in
/// each [`Figure7Record`] are points on these curves, and this is the
/// whole curve: every drain-latency sample of every cell in the band,
/// sorted ascending, so the empirical CDF at the `k`-th sample (0-based)
/// is `(k + 1) / len`.
#[derive(Debug, Clone)]
pub struct Figure7CdfBucket {
    /// The bucket's decade: cells with
    /// `floor(log10(coll_rate_hz)) == rate_decade` pool here.
    pub rate_decade: i32,
    /// Inclusive lower collective-rate bound, `10^rate_decade` Hz.
    pub rate_lo_hz: f64,
    /// Exclusive upper collective-rate bound, `10^(rate_decade+1)` Hz.
    pub rate_hi_hz: f64,
    /// Number of (workload × world size) cells pooled into the bucket.
    pub cells: usize,
    /// Every drain-latency sample in the bucket, seconds, sorted
    /// ascending.
    pub samples_s: Vec<f64>,
    /// The same samples in units of each source cell's mean collective
    /// interval (the paper's x-axis), sorted ascending.
    pub samples_intervals: Vec<f64>,
}

impl Figure7CdfBucket {
    /// The bucket as one row of `"cdf"`.
    pub fn to_json(&self) -> Json {
        obj! {
            "rate_decade" => self.rate_decade, "rate_lo_hz" => self.rate_lo_hz,
            "rate_hi_hz" => self.rate_hi_hz, "cells" => self.cells,
            "samples_s" => self.samples_s.as_slice(),
            "samples_intervals" => self.samples_intervals.as_slice(),
        }
    }
}

/// Pools per-cell drain-latency samples into collective-rate decade
/// buckets and sorts them — the full per-bucket CDFs the paper plots.
/// Cells that measured no collectives are skipped (they have no rate to
/// bucket by).
pub fn figure7_cdf(records: &[Figure7Record]) -> Vec<Figure7CdfBucket> {
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<i32, Figure7CdfBucket> = BTreeMap::new();
    for r in records {
        if r.coll_rate_hz <= 0.0 || !r.coll_rate_hz.is_finite() {
            continue;
        }
        let decade = r.coll_rate_hz.log10().floor() as i32;
        let b = buckets.entry(decade).or_insert_with(|| Figure7CdfBucket {
            rate_decade: decade,
            rate_lo_hz: 10f64.powi(decade),
            rate_hi_hz: 10f64.powi(decade + 1),
            cells: 0,
            samples_s: Vec::new(),
            samples_intervals: Vec::new(),
        });
        b.cells += 1;
        b.samples_s.extend_from_slice(&r.drain_latency_s);
        b.samples_intervals
            .extend(r.drain_latency_s.iter().map(|&l| r.to_intervals(l)));
    }
    let mut out: Vec<Figure7CdfBucket> = buckets.into_values().collect();
    for b in &mut out {
        b.samples_s.sort_by(f64::total_cmp);
        b.samples_intervals.sort_by(f64::total_cmp);
    }
    out
}

fn world_cfg(cfg: &Figure7Config, n: usize) -> WorldConfig {
    WorldConfig::multi_node(n, cfg.ranks_per_node)
        .with_params(NetParams::slingshot11().without_jitter())
}

/// Runs one (workload, ranks) cell: a native timing run to place the
/// checkpoint schedule, then a CC run capturing `cfg.checkpoints`
/// checkpoints. Both step the rank bodies as heap objects on the worker
/// pool, so a 65 536-rank world fits on one host and the cell measures
/// per-rank resident memory.
pub fn figure7_cell(cfg: &Figure7Config, workload: BenchWorkload, n: usize) -> Figure7Record {
    let iters = cfg.iters;
    let run_world =
        |opts| run_ckpt_world_steps(world_cfg(cfg, n), opts, |_| workload.step_body(iters));
    let native_s = run_world(CkptOptions::native().with_protocol(Protocol::Native))
        .makespan
        .as_secs();

    // Spread the checkpoints over the middle band of the run: the centers
    // of `k` equal slices of [0.15, 0.75] of the native makespan. Every
    // threshold fires wherever it lies (the rank whose crossing completes
    // it raises the request), but the band ends well short of completion
    // so that each sample is a drain of the whole world in steady state:
    // near the end, ranks that have finished no longer drain and a sample
    // shrinks to the stragglers. The band is also the one every checked-in
    // Figure 7 file was measured over.
    let k = cfg.checkpoints.max(1);
    let times =
        (1..=k).map(|i| VTime::from_secs(native_s * (0.15 + 0.6 * (i as f64 - 0.5) / k as f64)));
    let opts = CkptOptions::default()
        .with_protocol(Protocol::Cc)
        .with_policy(VirtualTimeSchedule::new(times))
        .with_resume(ResumeMode::Continue);
    let run = run_world(opts);
    assert!(
        run.failures.is_empty(),
        "figure7 cell ({}, {n}) aborted a checkpoint: {:?}",
        workload.name(),
        run.failures
    );
    let makespan_s = run.makespan.as_secs();
    let coll_rate_hz = if makespan_s > 0.0 {
        run.final_counters
            .iter()
            .map(|c| c.coll_rate(run.makespan))
            .sum::<f64>()
            / n as f64
    } else {
        0.0
    };
    Figure7Record {
        workload: workload.name(),
        ranks: n,
        coll_rate_hz,
        coll_interval_s: if coll_rate_hz > 0.0 {
            1.0 / coll_rate_hz
        } else {
            0.0
        },
        drain_latency_s: run
            .checkpoints
            .iter()
            .map(ckpt::Checkpoint::drain_latency_secs)
            .collect(),
        rank_mem_bytes: run.rank_build_rss_bytes,
    }
}

/// The full sweep: workloads × world sizes.
pub fn figure7_report(cfg: &Figure7Config) -> Vec<Figure7Record> {
    let mut out = Vec::new();
    for &workload in &cfg.workloads {
        for &n in &cfg.ranks {
            out.push(figure7_cell(cfg, workload, n));
        }
    }
    out
}

/// The Figure 7 distribution-shape check, shared by `figures figure7`
/// and the test tiers. Asserts that every cell fired all `expected_ckpts`
/// checkpoints with finite non-negative drain latency at a positive
/// collective rate, and that — per workload — the CC drain-latency
/// *distribution* stays bounded as the world grows: every cell's p99,
/// measured in mean collective intervals, is below a loose absolute
/// ceiling, and the largest world's p90 is within a constant factor of
/// the smallest world's p90. Asserting the tight growth bound on p90
/// rather than a worst sample makes the check a statement about the CDF
/// the paper plots, and keeps one unlucky pre-request clock skew from
/// deciding the verdict.
///
/// The ceilings are deliberately loose (the claim is "stays bounded",
/// not a point estimate): the drain runs every group to the maximum
/// already-started sequence number, so a healthy CC drain costs a few
/// rounds of collectives regardless of rank count, plus the pre-request
/// clock skew between the fastest and slowest rank.
///
/// # Panics
/// Panics when the shape is violated.
pub fn assert_figure7_shape(records: &[Figure7Record], expected_ckpts: usize) {
    /// Absolute ceiling on the p99 drain latency, in mean collective
    /// intervals.
    const MAX_INTERVALS: f64 = 64.0;
    /// Largest-vs-smallest world growth ceiling, in interval units.
    const GROWTH_FACTOR: f64 = 8.0;

    assert!(!records.is_empty(), "figure7 report is empty");
    for r in records {
        assert_eq!(
            r.drain_latency_s.len(),
            expected_ckpts,
            "cell ({}, {}) fired {}/{expected_ckpts} checkpoints",
            r.workload,
            r.ranks,
            r.drain_latency_s.len()
        );
        for &l in &r.drain_latency_s {
            assert!(
                l.is_finite() && l >= 0.0,
                "cell ({}, {}) has a bad drain latency: {l}",
                r.workload,
                r.ranks
            );
        }
        assert!(
            r.coll_rate_hz > 0.0,
            "cell ({}, {}) measured no collectives",
            r.workload,
            r.ranks
        );
        // Percentiles must be monotone and the tail bounded.
        let (p50, p90, p99) = (
            r.latency_percentile_intervals(0.5),
            r.latency_percentile_intervals(0.9),
            r.latency_percentile_intervals(0.99),
        );
        assert!(
            p50 <= p90 && p90 <= p99,
            "cell ({}, {}): percentiles are not monotone: p50={p50} p90={p90} p99={p99}",
            r.workload,
            r.ranks
        );
        assert!(
            p99 <= MAX_INTERVALS,
            "cell ({}, {}): p99 drain latency {p99} intervals exceeds the CC bound \
             {MAX_INTERVALS}",
            r.workload,
            r.ranks
        );
    }
    let mut workloads: Vec<&'static str> = records.iter().map(|r| r.workload).collect();
    workloads.dedup();
    for wl in workloads {
        let mut cells: Vec<&Figure7Record> = records.iter().filter(|r| r.workload == wl).collect();
        cells.sort_by_key(|r| r.ranks);
        let (Some(small), Some(large)) = (cells.first(), cells.last()) else {
            continue;
        };
        if small.ranks == large.ranks {
            continue;
        }
        // "Stays bounded as rank count grows": in interval units, the
        // biggest world's p90 is within a constant factor of the smallest
        // world's p90 (floored at one interval so a near-zero small-world
        // drain cannot manufacture a huge ratio). p90 on both sides: with
        // a handful of samples per cell, nearest-rank p99 degenerates to
        // the max — and the tight growth factor must not be decidable by
        // one unlucky pre-request clock-skew sample. The loose absolute
        // ceiling above still covers the tail.
        let base = small.latency_percentile_intervals(0.9).max(1.0);
        let top = large.latency_percentile_intervals(0.9);
        assert!(
            top <= GROWTH_FACTOR * base,
            "{wl}: drain latency grew with world size: \
             p90 {} intervals at {} ranks vs p90 {} intervals at {} ranks",
            top,
            large.ranks,
            small.latency_percentile_intervals(0.9),
            small.ranks
        );
    }
}

/// The Figure 7 file: `"cells"`, one row per (workload × ranks) cell, and
/// `"cdf"`, one row per collective-rate bucket of [`figure7_cdf`].
pub fn figure7_json(cells: &[Figure7Record]) -> Json {
    let cdf = figure7_cdf(cells);
    obj! {
        "cells" => cells.iter().map(Figure7Record::to_json).collect::<Json>(),
        "cdf" => cdf.iter().map(Figure7CdfBucket::to_json).collect::<Json>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_rows_keep_their_keys_and_values() {
        let rec = Figure7Record {
            workload: "scf",
            ranks: 8,
            coll_rate_hz: 1000.0,
            coll_interval_s: 1e-3,
            drain_latency_s: vec![0.5e-3, 0.7e-3],
            rank_mem_bytes: Some(4096),
        };
        let s = figure7_json(&[rec]).encode();
        assert!(s.contains("\"cells\""));
        assert!(s.contains("\"cdf\""));
        assert!(s.contains("\"workload\":\"scf\""));
        assert!(s.contains("\"drain_latency_s\":[0.000500000,0.000700000]"));
        assert!(s.contains("\"p50_s\":0.000500000"));
        assert!(s.contains("\"p99_s\":0.000700000"));
        assert!(s.contains("\"rank_mem_bytes\":4096"));
        assert!(s.contains("\"rate_decade\":3"));
        assert!(s.contains("\"samples_s\":[0.000500000,0.000700000]"));
    }

    #[test]
    fn cdf_buckets_pool_and_sort_samples_by_rate_decade() {
        let cell = |rate: f64, lats: Vec<f64>| Figure7Record {
            workload: "scf",
            ranks: 8,
            coll_rate_hz: rate,
            coll_interval_s: 1.0 / rate,
            drain_latency_s: lats,
            rank_mem_bytes: None,
        };
        let records = vec![
            cell(150.0, vec![0.03, 0.01]),      // decade 2
            cell(900.0, vec![0.002]),           // decade 2
            cell(2000.0, vec![0.0007, 0.0002]), // decade 3
            cell(0.0, vec![1.0]),               // no rate: skipped
        ];
        let cdf = figure7_cdf(&records);
        assert_eq!(cdf.len(), 2);
        let b2 = &cdf[0];
        assert_eq!(b2.rate_decade, 2);
        assert_eq!((b2.rate_lo_hz, b2.rate_hi_hz), (100.0, 1000.0));
        assert_eq!(b2.cells, 2);
        assert_eq!(b2.samples_s, vec![0.002, 0.01, 0.03], "sorted ascending");
        // Interval units use each *source cell's* interval: 0.002 s at
        // 900 Hz is 1.8 intervals; 0.01/0.03 s at 150 Hz are 1.5 and 4.5.
        let expect = [1.5, 1.8, 4.5];
        for (got, want) in b2.samples_intervals.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        let b3 = &cdf[1];
        assert_eq!(b3.rate_decade, 3);
        assert_eq!(b3.cells, 1);
        assert_eq!(b3.samples_s, vec![0.0002, 0.0007]);
    }

    #[test]
    fn latency_interval_helpers() {
        let rec = Figure7Record {
            workload: "halo",
            ranks: 4,
            coll_rate_hz: 100.0,
            coll_interval_s: 0.01,
            drain_latency_s: vec![0.02, 0.05],
            rank_mem_bytes: None,
        };
        // The largest sample is the 1-quantile.
        assert_eq!(rec.latency_percentile_s(1.0), 0.05);
        assert!((rec.latency_percentile_intervals(1.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let rec = Figure7Record {
            workload: "scf",
            ranks: 4,
            coll_rate_hz: 100.0,
            coll_interval_s: 0.01,
            // Unsorted on purpose: percentile sorts a copy.
            drain_latency_s: vec![0.05, 0.01, 0.04, 0.02, 0.03],
            rank_mem_bytes: None,
        };
        assert_eq!(rec.latency_percentile_s(0.5), 0.03);
        assert_eq!(rec.latency_percentile_s(0.9), 0.05);
        assert_eq!(rec.latency_percentile_s(0.99), 0.05);
        assert!((rec.latency_percentile_intervals(0.5) - 3.0).abs() < 1e-12);
        // Degenerate inputs.
        let empty = Figure7Record {
            drain_latency_s: vec![],
            ..rec.clone()
        };
        assert_eq!(empty.latency_percentile_s(0.5), 0.0);
        let one = Figure7Record {
            drain_latency_s: vec![0.07],
            ..rec
        };
        assert_eq!(one.latency_percentile_s(0.0), 0.07);
        assert_eq!(one.latency_percentile_s(1.0), 0.07);
    }
}
