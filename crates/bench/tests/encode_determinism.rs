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
//! Workers splice their batches in rank order, so a chunk that several
//! batches encode is inlined once, at its first reference, whichever
//! batch that falls in.
//!
//! Since wire v5 interns member lists the contract has a second half:
//! bytes are a function of the image's **value**. The same image with
//! every member list in an allocation of its own — no sharing for the
//! encoder's per-allocation cache to find — encodes to the same bytes.

use bench::{synthetic_checkpoint, with_unshared_lists};
use ckpt::wire::var_len;
use ckpt::{run_ckpt_world, Checkpoint, CkptOptions, DeltaImage, ResumeMode};
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::{RandomWorkloadCfg, RandomWorkloadStep};

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

/// Ranks `SHARED` hold one stable half. With 21 ranks, the workers'
/// batches break at 11 (two workers), at 7 and 14 (three), every third
/// rank (seven) and at every rank (22, one rank a batch): the run
/// straddles a boundary at every worker count but one.
const SHARED: std::ops::RangeInclusive<usize> = 5..=15;

#[test]
fn a_chunk_shared_across_worker_batches_is_inlined_once_at_its_first_reference() {
    let mut image = synthetic_checkpoint(21, 0x5B11CE);
    let first = image.captures[*SHARED.start()].clone();
    for c in &mut image.captures[SHARED] {
        c.seq_table = first.seq_table.clone();
        c.comm_log = first.comm_log.clone();
        c.pending_recvs = first.pending_recvs.clone();
        c.counters = first.counters;
        c.vcomm_members = first.vcomm_members.clone();
    }
    image.cut_events = image.cut();
    let serial = image.to_bytes();
    for workers in [1, 2, 3, 7, image.n_ranks + 1] {
        assert_eq!(
            image.to_bytes_parallel(workers),
            serial,
            "{workers}-worker encode diverged from serial"
        );
    }
    assert_eq!(Checkpoint::from_bytes(&serial).as_ref(), Ok(&image));

    let d = DeltaImage::from_bytes(&serial).expect("the image decodes");
    let shared = d.rank_refs[*SHARED.start()];
    assert!(SHARED.clone().all(|r| d.rank_refs[r] == shared));
    let inline: Vec<_> = d.new_chunks.iter().map(|(r, _)| *r).collect();
    assert_eq!(
        inline.iter().position(|&r| r == shared),
        Some(*SHARED.start()),
        "one chunk per rank before the run, then the run's"
    );
    assert_eq!(inline.iter().filter(|&&r| r == shared).count(), 1);
    assert_eq!(inline.len(), image.n_ranks - SHARED.count() + 2);
    // A record ends in its chunk reference: the inline tag, the 8-byte
    // hash and the length. Only the run's first record says inline.
    let tag_len = 1 + 8 + var_len(shared.len);
    for (rank, record) in image.capture_section_ranges().into_iter().enumerate() {
        let inline = serial[record.end - tag_len] == 1;
        assert_eq!(
            inline,
            !SHARED.contains(&rank) || rank == *SHARED.start(),
            "rank {rank}"
        );
    }
}

#[test]
fn parallel_encode_matches_serial_on_a_real_captured_image() {
    let cfg = WorldConfig::single_node(4).with_params(NetParams::slingshot11().without_jitter());
    let wl = RandomWorkloadCfg::new(42, 25);
    let native = run_ckpt_world(cfg.clone(), CkptOptions::native(), |r| {
        r.run(&mut RandomWorkloadStep::new(wl.clone()))
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
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
        r.run(&mut RandomWorkloadStep::new(wl.clone()))
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
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
        r.run(&mut RandomWorkloadStep::new(wl.clone()))
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
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
