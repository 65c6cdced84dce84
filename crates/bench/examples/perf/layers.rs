//! Per-layer micro-drives: each times calls into one module's public
//! functions from outside, in isolation. Cheap drives take
//! `micro_samples` batched samples; macro-drives (a world launch, an
//! oracle pass, a codec pass) take `macro_samples`, each covering thousands
//! of items. Every drive reports min / p50 / p99 / n; the p50 is the
//! per-layer metric.

use crate::harness::{guarded, median, per_op_ns, sample_ns, Dist, Tracer};
use crate::workloads::{one_capture, paced_scf, Env};
use bytes::Bytes;
use ckpt::store::delta::full_image_refs;
use ckpt::{
    run_ckpt_world, run_ckpt_world_steps, Checkpoint, ChunkPool, ChunkRef, CkptOptions, DeltaImage,
};
use mana_core::{ggid_of, ExecutionLog, Ggid, Protocol, SeqTable};
use mpisim::collective::{CollRegistry, InstanceEnv};
use mpisim::dtype::{decode_f64, encode_f64};
use mpisim::mailbox::{Mailbox, MatchSpec};
use mpisim::msg::InFlightMsg;
use mpisim::types::COMM_WORLD_ID;
use mpisim::{
    run_world, CollOp, Ctx, DType, FailPlane, Group, NetParams, RankStep, RedSpec, ReduceOp,
    Scheduler, SrcSel, Step, StepDriver, TagSel, Topology, VTime, WaitReason, WakeupStats,
};
use netmodel::collectives::{exit_times, CollCtx};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use workloads::{scf_loop, ScfStep};

/// The per-layer table under construction: every value by name, plus the
/// full distribution of the drives that have one.
#[derive(Default)]
pub struct LayerTable {
    pub values: Vec<(String, f64)>,
    pub dists: Vec<(String, Dist)>,
    /// Traced reps run, and every check they or the drives failed.
    pub attempted: usize,
    pub failures: Vec<String>,
}

impl LayerTable {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    pub fn put_dist(&mut self, name: &str, d: Dist) {
        self.put(name, d.p50);
        self.dists.push((name.to_string(), d));
    }
}

/// One micro-drive: a span around it, its distribution into the table.
/// Returns the table value (the p50).
fn drive(
    t: &mut Tracer,
    out: &mut LayerTable,
    name: &'static str,
    f: impl FnOnce() -> Dist,
) -> f64 {
    let (d, _) = t.timed(name, |_| f());
    out.put_dist(name, d);
    d.p50
}

/// Wall seconds of each of `n` calls of `f`.
fn time_n(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Runs every micro-drive that needs no captured image.
pub fn micro_drives(env: &Env, t: &mut Tracer, timer: Dist, out: &mut LayerTable) {
    let tn = timer.p50;
    let w = env.workers;
    out.put_dist("harness.timer_ns", timer);
    drive(t, out, "netmodel.coll_cost_ns", || coll_cost(env, tn));
    drive(t, out, "mailbox.deposit_match_ns", || mailbox(env, tn, 0));
    drive(t, out, "mailbox.match_depth64_ns", || mailbox(env, tn, 64));
    drive(t, out, "collective.arrive_complete_ns", || {
        rendezvous(env, tn, 1)
    });
    drive(t, out, "collective.arrive_contended_ns", || {
        rendezvous(env, tn, w)
    });
    drive(t, out, "stepdriver.wake_resume_ns", || wake_resume(env, tn));
    drive(t, out, "scheduler.block_grant_ns", || block_grant(env, tn));
    drive(t, out, "threads.spawn_us_per_rank", || spawn_per_rank(env));
    drive(t, out, "seq.increment_ns", || seq_increment(env, tn));
    drive(t, out, "execlog.record_ns", || execlog(env, tn, 1));
    drive(t, out, "execlog.record_contended_ns", || {
        execlog(env, tn, w)
    });
    wrapper_tax(env, t, out);
}

/// `netmodel`: one `exit_times` evaluation of an allreduce.
fn coll_cost(env: &Env, timer_ns: f64) -> Dist {
    let m = env.sizes.coll_members;
    let params = NetParams::slingshot11().without_jitter();
    let topo = Topology::new(m, 128);
    let ranks: Vec<usize> = (0..m).collect();
    let entries: Vec<VTime> = (0..m).map(|i| VTime::from_secs(i as f64 * 1e-9)).collect();
    let mut instance = 0;
    sample_ns(env.sizes.micro_samples, 1, timer_ns, || {
        instance += 1;
        let ctx = CollCtx {
            params: &params,
            topo: &topo,
            world_ranks: &ranks,
            instance,
        };
        black_box(exit_times(CollOp::Allreduce, 0, 8, &entries, &ctx));
    })
}

/// `mpisim::mailbox`: deposit + `take_match` behind `depth` unexpected
/// messages that do not match.
fn mailbox(env: &Env, timer_ns: f64, depth: u32) -> Dist {
    const BATCH: usize = 100;
    let mb = Mailbox::new();
    let group = Group::world(2);
    let msg = |tag| InFlightMsg {
        src_world: 1,
        dst_world: 0,
        comm: COMM_WORLD_ID,
        tag,
        payload: Bytes::from_static(b"8 bytes."),
        sent: VTime::ZERO,
        arrival: VTime::ZERO,
        seq: 0,
    };
    for _ in 0..depth {
        mb.deposit(msg(1));
    }
    let spec = MatchSpec {
        comm: COMM_WORLD_ID,
        group: &group,
        src: SrcSel::Rank(1),
        tag: TagSel::Tag(7),
    };
    sample_ns(env.sizes.micro_samples, BATCH, timer_ns, || {
        for _ in 0..BATCH {
            mb.deposit(msg(7));
            black_box(mb.take_match(&spec));
        }
    })
}

/// `mpisim::collective`: per arrival, `get_or_create` → `enter` →
/// `try_take` → `retire`, with `threads` driving threads sharing the
/// members of every instance. One sample is one whole instance.
fn rendezvous(env: &Env, timer_ns: f64, threads: usize) -> Dist {
    let m = env.sizes.coll_members;
    let samples = env.sizes.micro_samples as u64;
    let reg = CollRegistry::new();
    let group = Group::world(m);
    let mailboxes: Vec<Arc<Mailbox>> = (0..m).map(|_| Arc::new(Mailbox::new())).collect();
    let params = Arc::new(NetParams::slingshot11().without_jitter());
    let topo = Topology::new(m, 128);
    let fail = Arc::new(FailPlane::new());
    let red = Some(RedSpec {
        dtype: DType::F64,
        op: ReduceOp::Sum,
    });
    let contrib = encode_f64(&[1.0]);
    // What thread `me` does for instance `seq`: arrive for its members,
    // wait for the last arrival, collect.
    let one_instance = |seq: u64, me: usize| {
        let key = (COMM_WORLD_ID, seq);
        let mut held = None;
        for r in (me..m).step_by(threads) {
            let inst = reg.get_or_create(
                key,
                CollOp::Allreduce,
                0,
                red,
                &group,
                || seq,
                || InstanceEnv {
                    params: Arc::clone(&params),
                    topo: topo.clone(),
                    mailboxes: mailboxes.clone(),
                    wake_batch: threads,
                    fail: Arc::clone(&fail),
                },
            );
            inst.enter(r, VTime::ZERO, contrib.clone(), CollOp::Allreduce, 0, red);
            held = Some(inst);
        }
        let inst = held.expect("every thread owns at least one member");
        while !inst.is_complete() {
            std::thread::yield_now();
        }
        for r in (me..m).step_by(threads) {
            let res = inst.try_take(r).expect("instance is complete");
            if res.last {
                reg.retire(key);
            }
        }
    };
    let mut v = Vec::with_capacity(samples as usize);
    std::thread::scope(|s| {
        for me in 1..threads {
            let one_instance = &one_instance;
            s.spawn(move || (0..samples).for_each(|seq| one_instance(seq, me)));
        }
        for seq in 0..samples {
            let t = Instant::now();
            one_instance(seq, 0);
            v.push(per_op_ns(t, timer_ns, m));
        }
    });
    Dist::of(&v)
}

/// A step rank that wakes itself and yields: every resumption is one
/// driver wake → queue → worker pick-up → `step()` round trip.
struct SelfWaker {
    driver: Arc<StepDriver>,
    rank: usize,
    left: usize,
}

impl RankStep for SelfWaker {
    fn step(&mut self) -> Step {
        if self.left == 0 {
            return Step::Done;
        }
        self.left -= 1;
        self.driver.wake(self.rank);
        Step::Yield(WaitReason::Event)
    }
}

/// `mpisim::sched::StepDriver`: wake → resume, per resumption.
fn wake_resume(env: &Env, timer_ns: f64) -> Dist {
    const RANKS: usize = 64;
    const RESUMES: usize = 32;
    let v: Vec<f64> = (0..env.sizes.micro_samples)
        .map(|_| {
            let driver = StepDriver::new(RANKS, Arc::new(WakeupStats::default()));
            let objs: Vec<Box<dyn RankStep>> = (0..RANKS)
                .map(|rank| {
                    Box::new(SelfWaker {
                        driver: Arc::clone(&driver),
                        rank,
                        left: RESUMES,
                    }) as Box<dyn RankStep>
                })
                .collect();
            let t = Instant::now();
            driver.run(env.workers, objs);
            per_op_ns(t, timer_ns, RANKS * (RESUMES + 1))
        })
        .collect();
    Dist::of(&v)
}

/// `mpisim::sched::Scheduler`: `4·W` threads rotating `W` run slots through
/// `yield_now`; wall per rotation, sampled on thread 0.
fn block_grant(env: &Env, timer_ns: f64) -> Dist {
    const BATCH: usize = 10;
    let threads = 4 * env.workers;
    let samples = env.sizes.micro_samples;
    let sched = Scheduler::new(threads, env.workers);
    // Without a common start the first thread would finish its rotations
    // uncontended before the second is even spawned.
    let start = std::sync::Barrier::new(threads);
    let mut v = Vec::with_capacity(samples);
    std::thread::scope(|s| {
        let rotate = |rank: usize, mut record: Option<&mut Vec<f64>>| {
            start.wait();
            sched.attach(rank);
            for _ in 0..samples {
                let t = Instant::now();
                for _ in 0..BATCH {
                    sched.yield_now(rank);
                }
                if let Some(v) = record.as_deref_mut() {
                    // Every thread completes a batch in the time thread 0
                    // completes one.
                    v.push(per_op_ns(t, timer_ns, BATCH * threads));
                }
            }
            sched.detach(rank);
        };
        for rank in 1..threads {
            s.spawn(move || rotate(rank, None));
        }
        rotate(0, Some(&mut v));
    });
    Dist::of(&v)
}

/// Rank-thread launch: `run_world` of empty bodies, microseconds per rank.
fn spawn_per_rank(env: &Env) -> Dist {
    let ranks = env.sizes.wrapper_ranks;
    let v: Vec<f64> = (0..env.sizes.macro_samples)
        .map(|_| {
            let t = Instant::now();
            black_box(run_world(env.world(ranks), |_| ()));
            t.elapsed().as_secs_f64() * 1e6 / ranks as f64
        })
        .collect();
    Dist::of(&v)
}

fn one_group(members: usize) -> (Ggid, Arc<[usize]>) {
    let group = Group::world(members);
    (ggid_of(&group), group.members_shared())
}

/// `mana_core::seq`: one `SEQ[ggid]` increment.
fn seq_increment(env: &Env, timer_ns: f64) -> Dist {
    const BATCH: usize = 1000;
    let (ggid, members) = one_group(env.sizes.coll_members);
    let mut table = SeqTable::new();
    table.register_group(ggid, members);
    sample_ns(env.sizes.micro_samples, BATCH, timer_ns, || {
        for _ in 0..BATCH {
            black_box(table.increment(ggid));
        }
    })
}

/// `mana_core::ExecutionLog::record` with `threads` threads appending to
/// one log; sampled on thread 0. The log is replaced every 100 samples so
/// it grows to a run-like size without exhausting memory.
fn execlog(env: &Env, timer_ns: f64, threads: usize) -> Dist {
    const BATCH: usize = 1000;
    const SAMPLES_PER_LOG: usize = 100;
    let (ggid, members) = one_group(env.sizes.coll_members);
    let rounds = env.sizes.micro_samples.div_ceil(SAMPLES_PER_LOG);
    let mut v = Vec::new();
    for _ in 0..rounds {
        let log = ExecutionLog::new();
        let append = |rank: usize| {
            for seq in 0..BATCH as u64 {
                log.record(rank, ggid, seq, Arc::clone(&members));
            }
        };
        std::thread::scope(|s| {
            for rank in 1..threads {
                let append = &append;
                s.spawn(move || (0..SAMPLES_PER_LOG).for_each(|_| append(rank)));
            }
            for _ in 0..SAMPLES_PER_LOG {
                let t = Instant::now();
                append(0);
                v.push(per_op_ns(t, timer_ns, BATCH));
            }
        });
    }
    Dist::of(&v)
}

/// The SCF loop of [`workloads::scf_loop`] written directly on the lower
/// half: the same calls with no checkpoint wrapper in between.
fn scf_bare(ctx: &mut Ctx, iters: usize, elems: usize) -> f64 {
    let world = ctx.comm_world();
    let n = ctx.world_size() as f64;
    let mut energy = 0.0f64;
    let mut local: Vec<f64> = (0..elems)
        .map(|i| (ctx.rank() * elems + i) as f64 * 1e-3)
        .collect();
    for it in 0..iters {
        ctx.compute(5e-6);
        for x in local.iter_mut() {
            *x = (*x * 0.97 + energy * 1e-4).sin() * 0.5 + 0.5;
        }
        let local_e: f64 = local.iter().sum();
        energy = ctx.allreduce_f64(&world, &[local_e], ReduceOp::Sum)[0] / n;
        let damp = if world.rank() == 0 {
            encode_f64(&[1.0 / (1.0 + it as f64)])
        } else {
            Bytes::new()
        };
        let d = decode_f64(&ctx.bcast(&world, 0, damp))[0];
        energy *= 1.0 - 0.1 * d;
    }
    energy
}

/// Bare `mpisim` vs `ckpt::rank`: the same SCF loop on `Ctx` under
/// `run_world`, through `CcRank`, and through `StepRank`; wall nanoseconds
/// per rank·collective (median of three runs each), and the thread-side
/// interposition tax.
fn wrapper_tax(env: &Env, t: &mut Tracer, out: &mut LayerTable) {
    const ELEMS: usize = 8;
    const RUNS: usize = 3;
    let s = &env.sizes;
    let (ranks, iters) = (s.wrapper_ranks, s.wrapper_iters);
    let mut results: Vec<Vec<u64>> = Vec::new();
    let mut scf = |name: &'static str, run: &dyn Fn() -> Vec<u64>| {
        drive(t, out, name, || {
            let secs = time_n(RUNS, || results.push(run()));
            let per_coll = |s: &f64| s * 1e9 / (ranks * iters * 2) as f64;
            Dist::of(&secs.iter().map(per_coll).collect::<Vec<_>>())
        })
    };
    let opts = || CkptOptions::native().with_protocol(Protocol::Cc);
    let bare = scf("mpisim.bare_coll_ns", &|| {
        result_bits(run_world(env.world(ranks), |c| scf_bare(c, iters, ELEMS)).results())
    });
    let cc = scf("wrapper.cc_coll_ns", &|| {
        result_bits(
            run_ckpt_world(env.world(ranks), opts(), |r| scf_loop(r, iters, ELEMS)).results(),
        )
    });
    scf("wrapper.step_coll_ns", &|| {
        result_bits(
            run_ckpt_world_steps(env.world(ranks), opts(), |_| ScfStep::new(iters, ELEMS))
                .results(),
        )
    });
    out.put("wrapper.tax_pct", (cc / bare - 1.0) * 100.0);
    if results.windows(2).any(|w| w[0] != w[1]) {
        out.failures
            .push("bare, CcRank and StepRank SCF loops disagree on results".into());
    }
}

fn result_bits<'a>(results: impl Iterator<Item = &'a f64>) -> Vec<u64> {
    results.map(|x| x.to_bits()).collect()
}

/// Drives that need the images `image_pipeline` captured: the oracle, the
/// delta builder/applier, and the cut-log share of the serialized bytes.
pub fn image_drives(
    env: &Env,
    t: &mut Tracer,
    g1: &Checkpoint,
    g2: &Checkpoint,
    out: &mut LayerTable,
) {
    let n = env.sizes.macro_samples;
    let full_bytes = g2.serialized_len();
    let mb_s = |secs: f64| full_bytes as f64 / 1e6 / secs;

    drive(t, out, "oracle.verify_ns_per_event", || {
        let events = g2.cut_events.len().max(1) as f64;
        let secs = time_n(n, || {
            black_box(g2.verify()).expect("a committed cut passes the oracle");
        });
        Dist::of(&secs.iter().map(|s| s * 1e9 / events).collect::<Vec<_>>())
    });

    let known: HashSet<ChunkRef> = full_image_refs(g1).into_iter().collect();
    let (build_s, _) = t.timed("store.delta_build_mb_s", |_| {
        time_n(n, || {
            black_box(DeltaImage::build(2, 1, 0, g1, &known, g2));
        })
    });
    out.put("store.delta_build_mb_s", mb_s(median(&build_s)));

    let delta = DeltaImage::build(2, 1, 0, g1, &known, g2);
    let mut pool = ChunkPool::new();
    pool.absorb_full(g1);
    pool.absorb_delta(&delta);
    let (apply_s, _) = t.timed("store.delta_apply_mb_s", |_| {
        time_n(n, || {
            black_box(delta.apply(g1, &pool)).expect("delta applies to its parent");
        })
    });
    out.put("store.delta_apply_mb_s", mb_s(median(&apply_s)));
    if delta.apply(g1, &pool).ok().as_ref() != Some(g2) {
        out.failures.push("delta.apply(g1) != g2".into());
    }

    let capture_bytes: usize = g2.capture_section_ranges().iter().map(|r| r.len()).sum();
    out.put(
        "image.noncapture_bytes_share",
        1.0 - capture_bytes as f64 / full_bytes as f64,
    );
}

/// `ckpt::image` on an event-dominated image: one mid-run capture of an
/// SCF step world (its cut log dwarfs the per-rank state), serial encode
/// MB/s, median of three.
pub fn events_image_drive(env: &Env, t: &mut Tracer, out: &mut LayerTable) {
    let s = &env.sizes;
    let world = env.world(s.events_ranks);
    let (run, _) = t.timed("world.capture", |_| {
        guarded("events-image SCF capture run", || {
            run_ckpt_world_steps(world, one_capture(s.scf_iters as u64), |_| {
                paced_scf(s.scf_iters, s.ckpt_pace_us)
            })
        })
    });
    let image = run.and_then(|r| {
        let first = r.checkpoints.into_iter().next();
        first.ok_or_else(|| "events-image SCF run committed no checkpoint".to_string())
    });
    let mb_s = match image {
        Ok(image) => {
            let (secs, _) = t.timed("image.encode_events_mb_s", |_| {
                time_n(3, || {
                    black_box(image.to_bytes());
                })
            });
            image.serialized_len() as f64 / 1e6 / median(&secs)
        }
        Err(e) => {
            out.failures.push(e);
            0.0
        }
    };
    out.put("image.encode_events_mb_s", mb_s);
}
