//! The four workloads. Each is a closed loop in one process: a rep starts
//! when the previous one has returned. Set-up builds the reference the
//! reps are checked against; a rep returns its timings, its operation
//! count and every check it failed.

use crate::harness::{guarded, Tracer};
use crate::json::Json;
use crate::spec::{Sizes, CKPT_GENERATIONS, PIPELINE_IMAGES};
use ckpt::wire::Fnv1a;
use ckpt::{
    run_ckpt_world, run_ckpt_world_steps, try_restore_ckpt_world_steps, BodyStep, Checkpoint,
    CkptOptions, CkptRunReport, CkptTier, DeltaPolicy, EveryNCollectives, RestoreConfig,
    ResumeMode, StepBody, StepRank, TierSchedule, TieredStore, Tiering,
};
use mana_core::Protocol;
use mpisim::{NetParams, WorldConfig};
use std::sync::Arc;
use workloads::{halo_exchange, RandomWorkloadCfg, RandomWorkloadStep, ScfStep};

/// Elements per rank of the SCF body / cells per rank of the halo body:
/// small on purpose, the workloads measure the simulator, not the kernels.
const SCF_ELEMS: usize = 8;
const HALO_CELLS: usize = 16;

/// What every workload shares: sizes, the worker bound and the input seed.
pub struct Env {
    pub sizes: Sizes,
    /// `W = min(nproc, 4)`: scheduler run slots, step-driver workers and
    /// encode threads everywhere.
    pub workers: usize,
    pub seed: u64,
}

impl Env {
    /// Perlmutter packing, Slingshot-11 costs, no jitter, `W` workers, no
    /// wall pacing: virtual results repeat exactly from run to run.
    pub fn world(&self, ranks: usize) -> WorldConfig {
        WorldConfig::multi_node(ranks, 128)
            .with_params(NetParams::slingshot11().without_jitter())
            .with_workers(self.workers)
    }
}

/// One rep's outcome.
#[derive(Default)]
pub struct RepOut {
    /// Every check this rep failed; empty for a good rep.
    pub failures: Vec<String>,
    /// Rank-level operations executed, and the wall of the calls that
    /// executed them (`rank_ops_per_s` is their ratio).
    pub ops: u64,
    pub ops_wall_s: f64,
    /// Mean serialized bytes of one checkpoint image of this workload's
    /// world ÷ ranks. The steady workloads take theirs once, in set-up,
    /// and repeat it in every rep.
    pub image_bytes_per_rank: f64,
    /// Named side measurements feeding the per-layer table.
    pub detail: Vec<(&'static str, f64)>,
}

impl RepOut {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.detail.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

pub trait Workload {
    fn rep(&mut self, env: &Env, t: &mut Tracer) -> RepOut;
    /// Simulated values that must be identical between two runs of the
    /// same inputs, on any commit that claims only a host-time change.
    fn checks(&self) -> Vec<(&'static str, Json)>;
}

/// Builds `name`'s inputs and reference (everything before the warm-up rep).
pub fn setup(name: &str, env: &Env, t: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "scf_steady" => Box::new(Steady::setup(true, env, t)?),
        "halo_threads" => Box::new(Steady::setup(false, env, t)?),
        "ckpt_cycle" => Box::new(CkptCycle::setup(env, t)?),
        "image_pipeline" => Box::new(ImagePipeline::setup(env, t)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// What the checks and metrics need from a finished world run; the report
/// itself (with its full event log) is dropped outside any timed call.
pub struct RunSummary {
    pub bits: Vec<u64>,
    pub makespan_s: f64,
    pub ops: u64,
    pub backstops: u64,
    pub build_bytes_per_rank: Option<u64>,
}

pub fn summarize(run: &CkptRunReport<f64>) -> RunSummary {
    RunSummary {
        bits: run.results().map(|x| x.to_bits()).collect(),
        makespan_s: run.makespan.as_secs(),
        ops: run
            .final_counters
            .iter()
            .map(|c| c.coll_total() + c.p2p_total())
            .sum(),
        backstops: run.backstop_expiries,
        build_bytes_per_rank: run.rank_build_rss_bytes,
    }
}

fn checksum(bits: &[u64]) -> Json {
    let mut h = Fnv1a::new();
    for b in bits {
        h.update(&b.to_le_bytes());
    }
    Json::Str(format!("{:016x}", h.digest()))
}

// ----------------------------------------------------------------------
// scf_steady, halo_threads
// ----------------------------------------------------------------------

/// An `ScfStep` body that first sets its rank's wall pace. Only the runs
/// that must catch a checkpoint mid-flight use it, and the pace is zero at
/// the benchmark's sizes: a 16-rank smoke world outruns its trigger unpaced.
pub fn paced_scf(iters: usize, pace_us: u64) -> impl StepBody<Out = f64> {
    let mut body = ScfStep::new(iters, SCF_ELEMS);
    let mut paced = false;
    move |r: &mut StepRank| -> BodyStep<f64> {
        if !paced {
            r.set_wall_pace_us(pace_us);
            paced = true;
        }
        body.step(r)
    }
}

/// `Protocol::Cc` with one checkpoint once every rank has made `after`
/// collective calls; the run then continues to completion.
pub fn one_capture(after: u64) -> CkptOptions {
    CkptOptions::native()
        .with_protocol(Protocol::Cc)
        .with_policy(EveryNCollectives::new(after, 1))
        .with_resume(ResumeMode::Continue)
}

/// The two steady workloads: the same `mpisim` + `ckpt::rank` layers, once
/// as 4096 heap step ranks doing dense collectives, once as 512 thread
/// ranks doing mostly point-to-point. No checkpoint is requested in a rep.
pub struct Steady {
    scf: bool,
    reference: Vec<u64>,
    native_makespan_s: f64,
    /// Virtual makespan under `Protocol::Cc`, fixed by the first run.
    cc_makespan_s: Option<f64>,
    /// `rank_build_rss_bytes` of the reference run — the process's first
    /// world, so the step objects are built on a cold heap (later builds
    /// reuse freed memory and read zero). `None` for thread ranks.
    pub build_bytes_per_rank: Option<u64>,
    /// Serialized bytes ÷ ranks of the one image set-up takes half-way
    /// through a run: what a checkpoint of this application costs to keep.
    image_bytes_per_rank: f64,
}

impl Steady {
    pub fn setup(scf: bool, env: &Env, t: &mut Tracer) -> Result<Steady, String> {
        let mut w = Steady {
            scf,
            reference: Vec::new(),
            native_makespan_s: 0.0,
            cc_makespan_s: None,
            build_bytes_per_rank: None,
            image_bytes_per_rank: 0.0,
        };
        let native = CkptOptions::native().with_protocol(Protocol::Native);
        let (run, _) = w.run(env, t, native, env.workers, 0)?;
        let native = summarize(&run);
        drop(run);
        w.reference = native.bits;
        w.native_makespan_s = native.makespan_s;
        w.build_bytes_per_rank = native.build_bytes_per_rank;

        let s = &env.sizes;
        let opts = one_capture(s.ckpt_every);
        let (run, _) = w.run(env, t, opts, env.workers, s.ckpt_pace_us)?;
        let [image] = &run.checkpoints[..] else {
            return Err(format!(
                "{}: the capture run committed {} images, not 1",
                w.name(),
                run.checkpoints.len()
            ));
        };
        if summarize(&run).bits != w.reference {
            return Err(format!(
                "{}: results of the run with a checkpoint differ from the Native reference",
                w.name()
            ));
        }
        w.image_bytes_per_rank = image.serialized_len() as f64 / image.n_ranks as f64;
        Ok(w)
    }

    fn name(&self) -> &'static str {
        if self.scf {
            "scf_steady"
        } else {
            "halo_threads"
        }
    }

    /// One world run; returns its report and the wall seconds of the
    /// `run_ckpt_world{,_steps}` call alone.
    pub fn run(
        &self,
        env: &Env,
        t: &mut Tracer,
        opts: CkptOptions,
        workers: usize,
        pace_us: u64,
    ) -> Result<(CkptRunReport<f64>, f64), String> {
        let s = &env.sizes;
        let what = format!("{} world run ({})", self.name(), opts.protocol.name());
        let (run, wall) = if self.scf {
            let cfg = env.world(s.scf_ranks).with_workers(workers);
            t.timed("world.run", |_| {
                guarded(&what, || {
                    run_ckpt_world_steps(cfg, opts, |_| paced_scf(s.scf_iters, pace_us))
                })
            })
        } else {
            let cfg = env.world(s.halo_ranks).with_workers(workers);
            t.timed("world.run", |_| {
                guarded(&what, || {
                    run_ckpt_world(cfg, opts, |r| {
                        r.set_wall_pace_us(pace_us);
                        halo_exchange(r, s.halo_iters, HALO_CELLS)
                    })
                })
            })
        };
        Ok((run?, wall))
    }

    pub fn virt_overhead_pct(&self) -> f64 {
        let cc = self.cc_makespan_s.unwrap_or(self.native_makespan_s);
        (cc / self.native_makespan_s - 1.0) * 100.0
    }
}

impl Workload for Steady {
    fn rep(&mut self, env: &Env, t: &mut Tracer) -> RepOut {
        let mut out = RepOut {
            image_bytes_per_rank: self.image_bytes_per_rank,
            ..RepOut::default()
        };
        let cc = CkptOptions::native().with_protocol(Protocol::Cc);
        match self.run(env, t, cc, env.workers, 0) {
            Err(e) => out.failures.push(e),
            Ok((run, wall)) => {
                let run = summarize(&run);
                out.check(run.bits == self.reference, || {
                    "results differ from the Native reference".into()
                });
                let first = *self.cc_makespan_s.get_or_insert(run.makespan_s);
                out.check(run.makespan_s.to_bits() == first.to_bits(), || {
                    format!("virtual makespan {} != first rep's {first}", run.makespan_s)
                });
                out.ops = run.ops;
                out.ops_wall_s = wall;
            }
        }
        out
    }

    fn checks(&self) -> Vec<(&'static str, Json)> {
        vec![
            (
                "virt_makespan_s",
                Json::Num(self.cc_makespan_s.unwrap_or(0.0)),
            ),
            ("virt_overhead_pct", Json::Num(self.virt_overhead_pct())),
            ("result_checksum", checksum(&self.reference)),
        ]
    }
}

// ----------------------------------------------------------------------
// ckpt_cycle
// ----------------------------------------------------------------------

/// Checkpointed run → load the newest generation → restore to completion.
/// The only workload with the coordinator, the codec, the tiered delta
/// store, the oracle and restore replay on the blocking path.
pub struct CkptCycle {
    cfg: RandomWorkloadCfg,
    ranks: usize,
    reference: Vec<u64>,
    native_makespan_s: f64,
}

/// Random-workload schedule seeds of one size class, ascending. Image
/// bytes follow the number and timing of communicator splits in a
/// schedule, and over raw seeds 1..=400 the six generations of the
/// checkpointed run total 325-1135 MB on the 1024-rank world: `--seed` fed
/// straight to `RandomWorkloadCfg` would measure the inputs, not the code.
/// These are all the raw seeds in 1..=400 that pass [`in_size_class`];
/// `perf --screen 1 400` prints the numbers they were chosen by, so the
/// list can be made again when `workloads::random` changes its draws.
/// Nothing but size decides membership: a third of all schedules counted
/// one or more `DRIVER_RESCUE` backstops when screened, four of these
/// among them.
const SCHEDULES: [u64; 16] = [
    6, 27, 64, 97, 101, 125, 138, 193, 194, 209, 219, 238, 290, 358, 368, 395,
];
/// `(all six generations, the first three, the newest chain)` of that run
/// in MB — the centre that the most schedules lie around — and how far from
/// each a schedule may lie.
const SIZE_CLASS: [f64; 3] = [727.0, 233.0, 378.0];
const SIZE_BAND: f64 = 0.03;
/// The seed kept back for confirming a claim. It alone selects the last
/// schedule of the list; every other seed selects among the rest.
const HELD_OUT_SEED: u64 = 12345;

/// The schedule `--seed` selects.
pub fn schedule_seed(seed: u64) -> u64 {
    let open = SCHEDULES.len() - 1;
    if seed == HELD_OUT_SEED {
        SCHEDULES[open]
    } else {
        SCHEDULES[(seed % open as u64) as usize]
    }
}

fn in_size_class(mb: [f64; 3]) -> bool {
    (mb.iter().zip(SIZE_CLASS)).all(|(x, c)| (x / c - 1.0).abs() <= SIZE_BAND)
}

pub fn random_cfg(env: &Env) -> RandomWorkloadCfg {
    RandomWorkloadCfg::new(schedule_seed(env.seed), env.sizes.ckpt_steps)
        .with_pace_us(env.sizes.ckpt_pace_us)
}

/// `--screen LO HI`: `ckpt_cycle`'s checkpointed run on the `ckpt_ranks`
/// world once per raw seed, and the three byte totals that decide whether
/// the seed joins `SCHEDULES`.
pub fn screen(env: &Env, lo: u64, hi: u64) -> Result<(), String> {
    let mut t = Tracer::new();
    println!("seed  all_six_mb  first_three_mb  newest_chain_mb  backstops  in_class");
    for raw in lo..=hi {
        let w = CkptCycle {
            cfg: RandomWorkloadCfg::new(raw, env.sizes.ckpt_steps)
                .with_pace_us(env.sizes.ckpt_pace_us),
            ranks: env.sizes.ckpt_ranks,
            reference: Vec::new(),
            native_makespan_s: 0.0,
        };
        let (run, _, _) = w.checkpointed_run(env, &mut t);
        let run = run?;
        let mb: Vec<f64> = run
            .store_records
            .iter()
            .map(|r| r.serialized_bytes as f64 / 1e6)
            .collect();
        if mb.len() != CKPT_GENERATIONS {
            println!("{raw:>4}  committed {} generations", mb.len());
            continue;
        }
        // `FullEvery(4)`: generations 1 and 5 are full, so the newest
        // image resolves through the last two records.
        let sizes = [mb.iter().sum(), mb[..3].iter().sum(), mb[4..].iter().sum()];
        println!(
            "{raw:>4}  {:>10.1}  {:>14.1}  {:>15.1}  {:>9}  {}",
            sizes[0],
            sizes[1],
            sizes[2],
            run.backstop_expiries,
            in_size_class(sizes)
        );
    }
    Ok(())
}

impl CkptCycle {
    pub fn setup(env: &Env, t: &mut Tracer) -> Result<CkptCycle, String> {
        let mut w = CkptCycle {
            cfg: random_cfg(env),
            ranks: env.sizes.cycle_ranks,
            reference: Vec::new(),
            native_makespan_s: 0.0,
        };
        let (native, _) = w.reference_run(env, t)?;
        w.reference = native.bits;
        w.native_makespan_s = native.makespan_s;
        Ok(w)
    }

    /// The un-checkpointed `Native` run of the same program.
    pub fn reference_run(&self, env: &Env, t: &mut Tracer) -> Result<(RunSummary, f64), String> {
        let cfg = self.cfg.clone();
        let world = env.world(self.ranks);
        let (run, wall) = t.timed("world.ref", |_| {
            guarded("ckpt_cycle reference run", || {
                run_ckpt_world_steps(
                    world,
                    CkptOptions::native().with_protocol(Protocol::Native),
                    move |_| RandomWorkloadStep::new(cfg.clone()),
                )
            })
        });
        Ok((summarize(&run?), wall))
    }

    /// The run under `Protocol::Cc` that commits six generations into a
    /// fresh tiered delta store; returns the report, the wall seconds of
    /// the `run_ckpt_world_steps` call and the store.
    fn checkpointed_run(
        &self,
        env: &Env,
        t: &mut Tracer,
    ) -> (Result<CkptRunReport<f64>, String>, f64, Arc<TieredStore>) {
        let s = &env.sizes;
        let store = Arc::new(TieredStore::default());
        let tiering = Tiering::fixed(CkptTier::Memory)
            .with_store(Arc::clone(&store))
            .with_schedule(TierSchedule::Rotation {
                partner_every: 2,
                lustre_every: 4,
            })
            .with_delta(DeltaPolicy::FullEvery(4));
        let opts = CkptOptions::native()
            .with_protocol(Protocol::Cc)
            .with_policy(EveryNCollectives::new(s.ckpt_every, CKPT_GENERATIONS))
            .with_resume(ResumeMode::Continue)
            .with_tiering(tiering);
        let cfg = self.cfg.clone();
        let world = env.world(self.ranks);
        let (run, run_s) = t.timed("world.run", |_| {
            guarded("ckpt_cycle checkpointed run", || {
                run_ckpt_world_steps(world, opts, move |_| RandomWorkloadStep::new(cfg.clone()))
            })
        });
        (run, run_s, store)
    }
}

impl Workload for CkptCycle {
    fn rep(&mut self, env: &Env, t: &mut Tracer) -> RepOut {
        let mut out = RepOut::default();

        // In the traced rep only: the same-rep reference that prices one
        // checkpoint (`coordinator.ckpt_cost_ms`); its wall is no part of
        // the rep's `ops_wall_s`.
        if t.recording() {
            match self.reference_run(env, t) {
                Ok((_, wall)) => out.detail.push(("ref_wall_s", wall)),
                Err(e) => out.failures.push(e),
            }
        }

        let (run, run_s, store) = self.checkpointed_run(env, t);
        let run = match run {
            Ok(r) => r,
            Err(e) => {
                out.failures.push(e);
                return out;
            }
        };
        let sum = summarize(&run);
        out.check(run.checkpoints.len() == CKPT_GENERATIONS, || {
            format!("{} generations committed", run.checkpoints.len())
        });
        out.check(run.failures.is_empty(), || {
            format!("aborted checkpoint attempts: {:?}", run.failures)
        });
        out.check(sum.bits == self.reference, || {
            "checkpointed results differ from the Native reference".into()
        });
        let bytes: usize = run.store_records.iter().map(|r| r.serialized_bytes).sum();
        out.image_bytes_per_rank = bytes as f64 / CKPT_GENERATIONS as f64 / self.ranks as f64;
        let mut brackets = run.capture_wall_s.clone();
        brackets.sort_by(f64::total_cmp);
        out.detail.extend([
            ("run_wall_s", run_s),
            (
                "capture_bracket_ms",
                brackets.get(brackets.len() / 2).map_or(0.0, |s| s * 1e3),
            ),
        ]);
        drop(run);

        let Some(newest) = store.generations().last().copied() else {
            out.failures.push("store holds no generation".into());
            return out;
        };
        let (image, load_s) = t.timed("store.load", |_| store.load(newest));
        let image = match image {
            Ok(i) => i,
            Err(e) => {
                out.failures.push(format!("store.load({newest}): {e}"));
                return out;
            }
        };
        let cfg = self.cfg.clone();
        let rcfg = RestoreConfig::same_packing().with_workers(env.workers);
        let (restored, restore_s) = t.timed("restore.run", |_| {
            guarded("ckpt_cycle restore", || {
                try_restore_ckpt_world_steps(&image, rcfg, move |_| {
                    RandomWorkloadStep::new(cfg.clone())
                })
                .map_err(|e| format!("restore refused: {e}"))
            })
        });
        let mut backstops = sum.backstops;
        match restored.and_then(|r| r) {
            Err(e) => out.failures.push(e),
            Ok(r) => {
                let rs = summarize(&r);
                out.check(rs.bits == self.reference, || {
                    "restored results differ from the Native reference".into()
                });
                out.ops = sum.ops + rs.ops;
                backstops += rs.backstops;
            }
        }
        out.ops_wall_s = run_s + load_s + restore_s;
        out.detail.extend([
            ("restore_wall_s", load_s + restore_s),
            ("restore_run_s", restore_s),
            ("backstops", backstops as f64),
        ]);
        out
    }

    fn checks(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("virt_makespan_native_s", Json::Num(self.native_makespan_s)),
            ("result_checksum", checksum(&self.reference)),
        ]
    }
}

// ----------------------------------------------------------------------
// image_pipeline
// ----------------------------------------------------------------------

/// The pure data path: three consecutive real images of the `ckpt_cycle`
/// world are captured in set-up; a rep encodes, decodes, verifies, and
/// pushes them through a fresh tiered store as a depth-3 delta chain. No
/// world runs inside a rep.
pub struct ImagePipeline {
    pub images: Vec<Arc<Checkpoint>>,
}

impl ImagePipeline {
    pub fn setup(env: &Env, t: &mut Tracer) -> Result<ImagePipeline, String> {
        let s = &env.sizes;
        let cfg = random_cfg(env);
        let opts = CkptOptions::native()
            .with_protocol(Protocol::Cc)
            .with_policy(EveryNCollectives::new(s.ckpt_every, PIPELINE_IMAGES))
            .with_resume(ResumeMode::Continue);
        let world = env.world(s.ckpt_ranks);
        let (run, _) = t.timed("world.capture", |_| {
            guarded("image_pipeline capture run", || {
                run_ckpt_world_steps(world, opts, move |_| RandomWorkloadStep::new(cfg.clone()))
            })
        });
        let run = run?;
        if run.checkpoints.len() != PIPELINE_IMAGES || !run.failures.is_empty() {
            return Err(format!(
                "capture run committed {} images, {} attempts aborted",
                run.checkpoints.len(),
                run.failures.len()
            ));
        }
        Ok(ImagePipeline {
            images: run.checkpoints.into_iter().map(Arc::new).collect(),
        })
    }

    /// Rank capture sections pushed through a pipeline stage per rep: two
    /// encodes, decode, verify, three saves, and a three-image chain load.
    const STAGES: u64 = 10;
}

impl Workload for ImagePipeline {
    fn rep(&mut self, env: &Env, t: &mut Tracer) -> RepOut {
        let mut out = RepOut::default();
        let w = env.workers;
        let [g0, g1, g2] = &self.images[..] else {
            out.failures
                .push("set-up did not leave three images".into());
            return out;
        };

        let (bytes, encode_s) = t.timed("image.encode", |_| g2.to_bytes());
        let (par, encode_par_s) = t.timed("image.encode_par", |_| g2.to_bytes_parallel(w));
        out.check(par == bytes, || "parallel bytes != serial bytes".into());
        drop(par);
        let (decoded, decode_s) = t.timed("image.decode", |_| Checkpoint::from_bytes(&bytes));
        let mut verify_s = 0.0;
        match decoded {
            Err(e) => out.failures.push(format!("from_bytes: {e}")),
            Ok(d) => {
                out.check(d == **g2, || "from_bytes(to_bytes(g2)) != g2".into());
                let (verdict, s) = t.timed("oracle.verify", |_| d.verify());
                verify_s = s;
                out.check(verdict.is_ok(), || "decoded image fails the oracle".into());
            }
        }

        let store = TieredStore::default();
        let (r0, save_full_s) = t.timed("store.save_full", |_| {
            store.save(CkptTier::Lustre, Arc::clone(g0), false, w)
        });
        let (r1, save_d1_s) = t.timed("store.save_delta", |_| {
            store.save(CkptTier::Partner, Arc::clone(g1), true, w)
        });
        let (r2, save_d2_s) = t.timed("store.save_delta", |_| {
            store.save(CkptTier::Memory, Arc::clone(g2), true, w)
        });
        out.check(
            r1.delta_parent == Some(r0.generation) && r2.delta_parent == Some(r1.generation),
            || "saves did not form a depth-3 delta chain".into(),
        );
        let (loaded, load_s) = t.timed("store.load", |_| store.load(r2.generation));
        match loaded {
            Err(e) => out.failures.push(format!("store.load: {e}")),
            Ok(l) => out.check(l == **g2, || "load(g2) != g2".into()),
        }

        let write_s = encode_s + encode_par_s + save_full_s + save_d1_s + save_d2_s;
        let read_s = decode_s + verify_s + load_s;
        out.ops = g2.n_ranks as u64 * Self::STAGES;
        out.ops_wall_s = write_s + read_s;
        let stored = r0.bytes + r1.bytes + r2.bytes;
        out.image_bytes_per_rank = stored as f64 / PIPELINE_IMAGES as f64 / g2.n_ranks as f64;
        out.detail.extend([
            ("write_side_s", write_s),
            ("read_side_s", read_s),
            ("full_bytes", bytes.len() as f64),
            // Written: two encodes and three saves. Read back: one decode
            // and the three-element chain.
            ("moved_mb", (3 * bytes.len() + 2 * stored) as f64 / 1e6),
            ("encode_s", encode_s),
            ("encode_par_s", encode_par_s),
            ("decode_s", decode_s),
            ("verify_s", verify_s),
            ("save_full_s", save_full_s),
            ("save_delta_s", 0.5 * (save_d1_s + save_d2_s)),
            ("load_chain_s", load_s),
            ("delta_bytes", r2.bytes as f64),
            ("new_chunks", r2.new_chunks as f64),
        ]);
        out
    }

    fn checks(&self) -> Vec<(&'static str, Json)> {
        Vec::new()
    }
}
