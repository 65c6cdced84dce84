//! A Poisson-style non-blocking halo exchange checkpointed mid-iteration
//! with the *continue* path (capture without restart), compared against an
//! uninterrupted run.
//!
//! ```sh
//! cargo run --release --example poisson_nonblocking
//! ```

use ckpt::{run_ckpt_world_steps, CkptOptions, ResumeMode};
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::HaloStep;

fn main() {
    let cfg = WorldConfig::single_node(4).with_params(NetParams::slingshot11().without_jitter());
    let iters = 200;
    let cells = 16;

    let native = run_ckpt_world_steps(cfg.clone(), CkptOptions::native(), |_| {
        HaloStep::new(iters, cells)
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world_steps(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |_| HaloStep::new(iters, cells),
    );

    println!("== poisson_nonblocking: halo exchange with mid-flight checkpoint ==");
    println!(
        "native makespan {}   ckpt makespan {}",
        native.makespan, run.makespan
    );
    for (a, b) in native.ranks.iter().zip(&run.ranks) {
        println!(
            "rank {}: native {:>14.6}  ckpt {:>14.6}  {}",
            a.rank,
            a.result,
            b.result,
            if a.result == b.result {
                "identical"
            } else {
                "DIVERGED"
            }
        );
        assert_eq!(a.result, b.result, "continuation diverged");
    }
    match run.checkpoints.first() {
        Some(ckpt) => {
            ckpt.verify().expect("safe-cut oracle");
            println!(
                "checkpoint fired at {} with {} in-flight msgs — safe cut OK",
                ckpt.capture_clock(),
                ckpt.in_flight.len()
            );
        }
        None => println!("checkpoint did not fire (workload outran the trigger)"),
    }
}
