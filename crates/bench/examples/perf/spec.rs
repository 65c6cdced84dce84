//! What the benchmark measures: workload names, sizes, and the metric
//! tables. `BENCHMARK.json` at the repository root lists the same names;
//! `--smoke` checks the two against each other.

pub const WORKLOADS: [&str; 4] = ["scf_steady", "halo_threads", "ckpt_cycle", "image_pipeline"];

/// Default `--seconds`: the same as `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 17.0;
/// Default `--seed`. 12345 is held out for later claims (see README).
pub const DEFAULT_SEED: u64 = 7;

/// One metric: name, unit, whether higher is better, and (end-to-end only)
/// the share of the parent's median it may worsen by.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_better,
        bound,
    }
}

/// The end-to-end metrics: the ones with a definition of their own on
/// every workload (README gives them). The timings carry the largest bound
/// `BENCHMARK.json` allows because the reference host's speed wanders by
/// 20-30 % over seconds (README, "Known noise"); image bytes repeat for a
/// schedule, so their bound only has to clear the schedules' size band.
pub const END_TO_END: [Metric; 5] = [
    e2e("rank_ops_per_s", "ops/s", true, 0.25),
    e2e("cpu_us_per_op", "us", false, 0.25),
    e2e("image_bytes_per_rank", "B", false, 0.1),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// Problem sizes. `full` is the benchmark; `smoke` is the 16-rank plumbing
/// check and never produces a number worth keeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    pub scf_ranks: usize,
    pub scf_iters: usize,
    pub halo_ranks: usize,
    pub halo_iters: usize,
    /// Ranks of the seeded random-workload world `image_pipeline` takes
    /// its images from, and `--screen` sizes schedules on.
    pub ckpt_ranks: usize,
    /// Ranks of the same world as `ckpt_cycle` runs it. ISSUE 14 asked for
    /// 1024 here too; on the reference VM a 1024-rank cycle (1.9 GB peak,
    /// 8 s a rep) keeps re-faulting pages the hypervisor has taken back:
    /// kernel time swings 1-10 s a rep and ten runs spread 33-48 %. At 512
    /// ranks (0.6 GB, 2 s) it stays at 0.3 s and the spread under 10 %.
    pub cycle_ranks: usize,
    pub ckpt_steps: usize,
    /// `EveryNCollectives` period of `ckpt_cycle` and `image_pipeline`.
    pub ckpt_every: u64,
    /// Wall pace per random-workload step. Zero in the benchmark; the
    /// smoke world is so small that an unpaced run outruns its triggers.
    pub ckpt_pace_us: u64,
    /// Members of the collective micro-drives.
    pub coll_members: usize,
    /// Ranks of the bare-vs-wrapped SCF loops and of the spawn drive.
    pub wrapper_ranks: usize,
    pub wrapper_iters: usize,
    /// Ranks of the event-dominated image's SCF run.
    pub events_ranks: usize,
    /// Samples per cheap micro-drive.
    pub micro_samples: usize,
    /// Samples per macro-drive (each covers thousands of items).
    pub macro_samples: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            scf_ranks: 4096,
            scf_iters: 200,
            halo_ranks: 512,
            halo_iters: 120,
            ckpt_ranks: 1024,
            cycle_ranks: 512,
            ckpt_steps: 400,
            ckpt_every: 40,
            ckpt_pace_us: 0,
            coll_members: 4096,
            wrapper_ranks: 512,
            wrapper_iters: 50,
            events_ranks: 2048,
            micro_samples: 1000,
            macro_samples: 20,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            scf_ranks: 16,
            scf_iters: 200,
            halo_ranks: 16,
            halo_iters: 120,
            ckpt_ranks: 16,
            cycle_ranks: 16,
            ckpt_steps: 400,
            ckpt_every: 40,
            ckpt_pace_us: 40,
            coll_members: 64,
            wrapper_ranks: 16,
            wrapper_iters: 20,
            events_ranks: 16,
            micro_samples: 50,
            macro_samples: 3,
        }
    }

    pub fn describe(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("scf_ranks", self.scf_ranks as f64),
            ("scf_iters", self.scf_iters as f64),
            ("halo_ranks", self.halo_ranks as f64),
            ("halo_iters", self.halo_iters as f64),
            ("ckpt_ranks", self.ckpt_ranks as f64),
            ("cycle_ranks", self.cycle_ranks as f64),
            ("ckpt_steps", self.ckpt_steps as f64),
            ("ckpt_every", self.ckpt_every as f64),
            ("coll_members", self.coll_members as f64),
            ("wrapper_ranks", self.wrapper_ranks as f64),
            ("wrapper_iters", self.wrapper_iters as f64),
            ("events_ranks", self.events_ranks as f64),
        ]
    }
}

/// Generations `ckpt_cycle` commits per run.
pub const CKPT_GENERATIONS: usize = 6;
/// Images `image_pipeline` captures in set-up.
pub const PIPELINE_IMAGES: usize = 3;

/// Unit and direction of a per-layer metric, by name. Names carry the
/// workload as a suffix where one number exists per workload.
pub fn per_layer_unit(name: &str) -> (&'static str, bool) {
    let higher = |unit| (unit, true);
    let lower = |unit| (unit, false);
    if name.starts_with("self_ms.") || name.ends_with("_ms") {
        lower("ms")
    } else if name.ends_with("_mb_s") {
        higher("MB/s")
    } else if name.ends_with("_ns") || name.ends_with("_ns_per_event") {
        lower("ns")
    } else if name.ends_with("_us_per_rank") {
        lower("us")
    } else if name.contains("_pct") {
        lower("%")
    } else if name.contains("bytes_per_rank") {
        lower("B")
    } else if name == "sched.parallel_efficiency" || name == "image.encode_par_speedup" {
        higher("ratio")
    } else if name == "coordinator.backstop_expiries" || name == "store.new_chunks" {
        lower("count")
    } else {
        lower("ratio")
    }
}
