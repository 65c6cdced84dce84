//! The Figure 5a acceptance property, as a tier-1 test: on the non-blocking
//! (halo-exchange) workload and on the non-synchronizing broadcast
//! pipeline, at 8 ranks with OS jitter enabled, 2PC's virtual-time
//! overhead must be strictly above CC's — and CC must stay near-flat.

use bench::{run_case, run_protocol_pair, BenchConfig, BenchWorkload};
use ckpt::{run_ckpt_world_steps, CkptOptions, EveryNCollectives, ResumeMode};
use mana_core::Protocol;
use mpisim::{NetParams, WorldConfig};
use workloads::ScfStep;

fn small_cfg() -> BenchConfig {
    BenchConfig {
        ranks: vec![8],
        iters: 60,
        with_checkpoint: true,
        image_bytes_per_rank: 8 * 1024 * 1024,
    }
}

#[test]
fn two_pc_overhead_strictly_above_cc_on_nonblocking_workload() {
    let cfg = small_cfg();
    let (cc, tp) = run_protocol_pair(BenchWorkload::Halo, 8, true, &cfg);
    assert!(
        tp.overhead_pct > cc.overhead_pct,
        "halo @ 8 ranks, jitter on: 2PC {:.3}% must exceed CC {:.3}%",
        tp.overhead_pct,
        cc.overhead_pct
    );
    assert!(
        tp.trivial_barriers_per_rank > 0.0 && cc.trivial_barriers_per_rank == 0.0,
        "2PC must pay a trivial barrier per collective, CC none"
    );
}

#[test]
fn two_pc_depipelines_bcast_and_cc_stays_flat() {
    let cfg = small_cfg();
    let (cc, tp) = run_protocol_pair(BenchWorkload::BcastPipeline, 8, true, &cfg);
    // The non-synchronizing pipeline is 2PC's worst case: a large gap, not
    // a marginal one.
    assert!(
        tp.overhead_pct > cc.overhead_pct + 20.0,
        "bcast pipeline @ 8 ranks: 2PC {:.2}% vs CC {:.2}%",
        tp.overhead_pct,
        cc.overhead_pct
    );
    assert!(
        cc.overhead_pct < 10.0,
        "CC must stay near-flat on the pipeline, got {:.2}%",
        cc.overhead_pct
    );
}

#[test]
fn two_pc_overhead_grows_with_jitter() {
    let cfg = small_cfg();
    let quiet = run_case(BenchWorkload::Scf, 8, false, Protocol::TwoPhase, &cfg);
    let noisy = run_case(BenchWorkload::Scf, 8, true, Protocol::TwoPhase, &cfg);
    // The trivial barrier synchronizes every collective, so per-rank
    // jitter is amplified by the expected max over all ranks.
    assert!(
        noisy.overhead_pct > quiet.overhead_pct,
        "scf @ 8 ranks: 2PC with jitter {:.2}% must exceed without {:.2}%",
        noisy.overhead_pct,
        quiet.overhead_pct
    );
}

/// The paper's headline comparison at the scale only step ranks reach:
/// Native, CC and 2PC on 4096 ranks of the SCF kernel, one mid-run
/// checkpoint each. 2PC pays a trivial barrier in front of every
/// collective; CC pays a counter increment.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_two_phase_4096_step_ranks() {
    const ITERS: usize = 100;
    let run = |protocol: Protocol| {
        let cfg = WorldConfig::multi_node(4096, 128)
            .with_params(NetParams::slingshot11().without_jitter())
            .with_workers(2);
        let mut opts = CkptOptions::native().with_protocol(protocol);
        if protocol.supports_checkpoint() {
            // Half-way: the body makes two collective calls per iteration.
            opts = opts
                .with_policy(EveryNCollectives::new(ITERS as u64, 1))
                .with_resume(ResumeMode::Continue);
        }
        let run = run_ckpt_world_steps(cfg, opts, |_| ScfStep::new(ITERS, 8));
        assert!(run.failures.is_empty(), "{protocol:?}: {:?}", run.failures);
        assert_eq!(run.backstop_expiries, 0, "{protocol:?}: timed wakeup");
        run
    };
    let native = run(Protocol::Native);
    let overhead_pct = |protocol: Protocol| {
        let r = run(protocol);
        assert_eq!(r.checkpoints.len(), 1, "{protocol:?}: one image");
        let same = r.results().zip(native.results()).all(|(a, b)| a == b);
        assert!(same, "{protocol:?}: results diverged from Native");
        (r.makespan.as_secs() / native.makespan.as_secs() - 1.0) * 100.0
    };
    let (cc, tp) = (overhead_pct(Protocol::Cc), overhead_pct(Protocol::TwoPhase));
    println!("scf @ 4096 step ranks, virtual overhead: CC {cc:.3} %, 2PC {tp:.1} %");
    assert!(tp > cc, "2PC {tp:.3} % must exceed CC {cc:.3} %");
}
