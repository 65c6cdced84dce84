//! Narrates a checkpoint drain: runs a small skewed workload, checkpoints
//! it, and prints the observable protocol steps (target installation,
//! drain steps, parks, quiesce, commit, resume).
//!
//! ```sh
//! cargo run --release --example drain_trace
//! ```

use ckpt::{run_ckpt_world, CkptOptions, ResumeMode};
use mana_core::DrainEvent;
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::{random_workload, RandomWorkloadCfg};

fn main() {
    let cfg = WorldConfig::single_node(4).with_params(NetParams::slingshot11().without_jitter());
    let wl = RandomWorkloadCfg::new(7, 30);
    let native = run_ckpt_world(cfg.clone(), CkptOptions::native(), |r| {
        random_workload(&wl, r)
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.4);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |r| random_workload(&wl, r),
    );

    println!("== drain trace (checkpoint requested at {at}) ==");
    for e in run.trace.events() {
        match e {
            DrainEvent::Requested => println!("* coordinator: checkpoint requested"),
            DrainEvent::TargetsInstalled(r, t) => {
                println!("  rank {r}: targets installed: {t:?}")
            }
            DrainEvent::TargetRaised(r, g, t) => {
                println!("  rank {r}: OVERSHOOT — raised TARGET[{g}] to {t}")
            }
            DrainEvent::UpdateSent(f, t, g, v) => {
                println!("  rank {f} -> rank {t}: raise TARGET[{g}] to {v}")
            }
            DrainEvent::UpdateReceived(r, g, v, ch) => {
                println!("  rank {r}: applied TARGET[{g}]={v} (changed: {ch})")
            }
            DrainEvent::DrainStep(r, g, s) => println!("  rank {r}: drain step {g}#{s}"),
            DrainEvent::Parked(r) => println!("  rank {r}: parked at wrapper entry"),
            DrainEvent::Unparked(r) => println!("  rank {r}: released (target raised)"),
            DrainEvent::Quiesced(r) => println!("  rank {r}: quiesced for capture"),
            DrainEvent::TrivialBarrierParked(r) => {
                println!("  rank {r}: parked in a 2PC trivial barrier")
            }
            DrainEvent::Committed => println!("* coordinator: image committed"),
            DrainEvent::Resumed => println!("* coordinator: ranks resumed"),
            DrainEvent::Aborted => println!("* coordinator: checkpoint aborted (drain stall)"),
        }
    }
    for ckpt in &run.checkpoints {
        println!(
            "checkpoint at epoch {}: {} cut events, safe cut: {}",
            ckpt.epoch,
            ckpt.cut().len(),
            if ckpt.verify().is_ok() {
                "OK"
            } else {
                "VIOLATED"
            }
        );
    }
}
