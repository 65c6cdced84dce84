//! Narrates a checkpoint drain: runs Figure 3b's cascade
//! ([`workloads::Cascade`]: three ranks, two overlapping groups) on the
//! worker pool, checkpoints it, and prints the observable protocol steps
//! (the target table, drain steps, raises and the members they wake,
//! parks, quiesce, commit, resume). The cascade raises a target on every
//! run; the example exits non-zero if none was raised.
//!
//! ```sh
//! cargo run --release --example drain_trace
//! ```

use ckpt::{run_ckpt_world_steps, CkptOptions, ResumeMode};
use mana_core::DrainEvent;
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::Cascade;

fn main() {
    let cfg = WorldConfig::single_node(3).with_params(NetParams::slingshot11().without_jitter());
    let at = VTime::from_secs(Cascade::TRIGGER_S);
    let run = run_ckpt_world_steps(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        Cascade::new,
    );

    println!("== drain trace (checkpoint requested at {at}) ==");
    for e in run.trace.events() {
        match e {
            DrainEvent::Requested => println!("* coordinator: checkpoint requested"),
            DrainEvent::TargetsInstalled(t) => {
                let t: Vec<String> = t.iter().map(|(g, v)| format!("{g}={v}")).collect();
                println!("* coordinator: TARGET[] installed: {}", t.join(" "))
            }
            DrainEvent::TargetRaised(r, g, t, members) => {
                let woke: Vec<usize> = members.iter().copied().filter(|&m| m != r).collect();
                println!("  rank {r}: OVERSHOOT — raised TARGET[{g}] to {t}, woke ranks {woke:?}")
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
        let raised = (ckpt.final_targets.iter())
            .filter(|(g, t)| ckpt.initial_targets.get(g) != Some(t))
            .count();
        println!(
            "checkpoint at epoch {}: {} of {} targets raised, {} cut events, safe cut: {}",
            ckpt.epoch,
            raised,
            ckpt.final_targets.len(),
            ckpt.cut().len(),
            if ckpt.verify().is_ok() {
                "OK"
            } else {
                "VIOLATED"
            }
        );
    }
    if run
        .trace
        .count(|e| matches!(e, DrainEvent::TargetRaised(..)))
        == 0
    {
        eprintln!("no TargetRaised in the trace: the cascade did not run");
        std::process::exit(1);
    }
}
