//! A VASP-like SCF loop (dense allreduces between compute phases)
//! checkpointed with a full restart into a fresh lower half; the converged
//! energy must match an uninterrupted run exactly.
//!
//! ```sh
//! cargo run --release --example vasp_scf
//! ```

use ckpt::{run_ckpt_world_steps, CkptOptions, ResumeMode};
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::ScfStep;

fn main() {
    let cfg = WorldConfig::single_node(8).with_params(NetParams::slingshot11().without_jitter());
    let iters = 150;
    let elems = 32;

    let native = run_ckpt_world_steps(cfg.clone(), CkptOptions::native(), |_| {
        ScfStep::new(iters, elems)
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world_steps(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Restart),
        |_| ScfStep::new(iters, elems),
    );

    println!("== vasp_scf: SCF loop with mid-flight checkpoint + restart ==");
    println!(
        "native makespan {}   ckpt makespan {}",
        native.makespan, run.makespan
    );
    let e_native = native.ranks[0].result;
    let e_ckpt = run.ranks[0].result;
    println!("final energy: native {e_native:.12}  restarted {e_ckpt:.12}");
    assert_eq!(e_native, e_ckpt, "restart changed the converged energy");
    for r in &run.ranks {
        assert_eq!(r.result, e_ckpt, "ranks disagree on the energy");
    }
    match run.checkpoints.first() {
        Some(ckpt) => {
            ckpt.verify().expect("safe-cut oracle");
            println!(
                "checkpoint fired at {} (epoch {} -> restart) — safe cut OK",
                ckpt.capture_clock(),
                ckpt.epoch
            );
        }
        None => println!("checkpoint did not fire (workload outran the trigger)"),
    }
}
