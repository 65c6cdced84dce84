//! Quickstart: run a 4-rank random MPI workload (its step body, on the
//! worker pool), checkpoint it mid-flight with the CC drain, restart
//! in-process, then round-trip the image through serialized bytes and
//! restore it into a fresh world, every body loaded from its snapshot —
//! verifying every continuation is bit-identical to an uninterrupted run.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use workloads::quickstart;

fn main() {
    let out = quickstart(4, 2024, 40);
    let ckpt = &out.checkpoint;
    println!("== quickstart: checkpoint → image → restore → bit-identical continuation ==");
    println!(
        "native run:     makespan {}  results {:?}",
        out.native_makespan, out.native_results
    );
    println!(
        "ckpt+restart:   makespan {}  results {:?}",
        out.ckpt_makespan, out.ckpt_results
    );
    println!(
        "image restore:  makespan {}  results {:?}",
        out.restored_makespan, out.restored_results
    );
    println!(
        "checkpoint:     epoch {} captured at {} | {} groups targeted, {} raises folded",
        ckpt.epoch,
        ckpt.capture_clock(),
        ckpt.initial_targets.len(),
        ckpt.final_targets.len() - ckpt.initial_targets.len()
    );
    println!(
        "                {} in-flight msgs ({} B) drained, {} cut events verified",
        ckpt.in_flight.len(),
        ckpt.in_flight_bytes(),
        ckpt.cut().len()
    );
    println!(
        "image:          {} B serialized (versioned header + FNV-1a checksum)",
        out.image_bytes
    );
    println!(
        "safe cut:       {}",
        if ckpt.verify().is_ok() {
            "OK"
        } else {
            "VIOLATED"
        }
    );
    assert!(out.bit_identical(), "a continuation diverged");
    println!("bit-identical:  OK (in-process restart AND restore-from-image)");
}
