//! The parallel encoder's determinism contract: for any worker count,
//! `Checkpoint::to_bytes_parallel(workers)` is **byte-for-byte** identical
//! to the serial `to_bytes()` — worker count is a wall-time knob, never a
//! format knob. Workers encode and hash ranks' chunks in batches; the
//! chunks are deduplicated and laid out in rank order afterwards, so
//! which worker produced a chunk cannot show in the bytes. Validated over
//! deterministic synthetic images at the paper's 256/1024-rank operating
//! points and over a real captured image, plus the round-trip back
//! through `from_bytes`.
//!
//! Since wire v5 interns member lists the contract has a second half:
//! bytes are a function of the image's **value**. The same image with
//! every member list in an allocation of its own — no sharing for the
//! encoder's per-allocation cache to find — encodes to the same bytes.

use bench::{synthetic_checkpoint, with_unshared_lists};
use ckpt::{run_ckpt_world, Checkpoint, CkptOptions, ResumeMode};
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::{random_workload, RandomWorkloadCfg};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn parallel_encode_is_bit_identical_across_worker_counts() {
    for n_ranks in [256, 1024] {
        let image = synthetic_checkpoint(n_ranks, 0xD0_0D + n_ranks as u64);
        let serial = image.to_bytes();
        assert_eq!(serial.len(), image.serialized_len(), "sizing pass drifted");
        for workers in WORKER_COUNTS {
            let parallel = image.to_bytes_parallel(workers);
            assert_eq!(
                serial, parallel,
                "{workers}-worker encode of a {n_ranks}-rank image diverged from serial"
            );
        }
        // Oversubscribed far beyond the section count per worker batch.
        assert_eq!(serial, image.to_bytes_parallel(4096));
        let decoded = Checkpoint::from_bytes(&serial).expect("round trip");
        assert_eq!(decoded, image, "decode must invert the parallel encode");
    }
}

#[test]
fn parallel_encode_matches_serial_on_a_real_captured_image() {
    let cfg = WorldConfig::single_node(4).with_params(NetParams::slingshot11().without_jitter());
    let wl = RandomWorkloadCfg::new(42, 25);
    let native = run_ckpt_world(cfg.clone(), CkptOptions::native(), |r| {
        random_workload(&wl, r)
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |r| random_workload(&wl, r),
    );
    let image = run.checkpoints.first().expect("capture fired");
    let serial = image.to_bytes();
    for workers in WORKER_COUNTS {
        assert_eq!(serial, image.to_bytes_parallel(workers));
    }
}

#[test]
fn bytes_do_not_depend_on_how_member_lists_are_allocated() {
    // Eight ranks: the schedule's splits leave strided sub-communicators,
    // so the member-list table is not empty.
    let cfg = WorldConfig::single_node(8).with_params(NetParams::slingshot11().without_jitter());
    let wl = RandomWorkloadCfg::new(13, 25);
    let native = run_ckpt_world(cfg.clone(), CkptOptions::native(), |r| {
        random_workload(&wl, r)
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |r| random_workload(&wl, r),
    );
    let image = run.checkpoints.first().expect("capture fired");
    assert!(
        image.member_table_range().len() > 8,
        "the image must reference at least one non-contiguous group"
    );

    let unshared = with_unshared_lists(image);
    assert_eq!(&unshared, image);
    let serial = image.to_bytes();
    assert_eq!(unshared.serialized_len(), serial.len());
    for workers in WORKER_COUNTS {
        assert_eq!(
            unshared.to_bytes_parallel(workers),
            serial,
            "{workers}-worker encode of the unshared image diverged"
        );
    }
    // A decoded image shares every list again; same bytes once more.
    let decoded = Checkpoint::from_bytes(&serial).expect("round trip");
    assert_eq!(decoded.to_bytes(), serial);
}

#[test]
fn committed_captures_report_positive_wall_time() {
    let cfg = WorldConfig::single_node(4).with_params(NetParams::slingshot11().without_jitter());
    let wl = RandomWorkloadCfg::new(9, 25);
    let native = run_ckpt_world(cfg.clone(), CkptOptions::native(), |r| {
        random_workload(&wl, r)
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |r| random_workload(&wl, r),
    );
    assert_eq!(
        run.capture_wall_s.len(),
        run.checkpoints.len(),
        "one wall sample per committed checkpoint"
    );
    for &w in &run.capture_wall_s {
        assert!(w.is_finite() && w > 0.0, "bad capture wall time: {w}");
    }
}
