//! Image round-trip coverage: a checkpoint serialized to bytes, written to
//! disk, read back, and restored into a fresh world must continue
//! *bit-identically* to the in-process `ResumeMode::Restart` path — under
//! both the CC drain protocol and the 2PC trivial-barrier baseline — and
//! tampered or truncated bytes must be rejected, never restored.
//!
//! Wire v5 writes each group member list once and a content reference
//! everywhere else; what comes back must be indistinguishable from what
//! went in — strided and group-order lists included — and hold every
//! list in **one** allocation, whether the image was decoded from its own
//! bytes or resolved through a delta chain.

use ckpt::{
    restore_ckpt_world, run_ckpt_world, run_ckpt_world_steps, Checkpoint, CkptOptions, CkptTier,
    EveryNCollectives, ImageError, RestoreConfig, ResumeMode, TieredStore,
};
use mana_core::Protocol;
use mpisim::{NetParams, VTime, WorldConfig};
use std::sync::Arc;
use workloads::{random_workload, RandomWorkloadCfg, RandomWorkloadStep};

fn cfg(n: usize) -> WorldConfig {
    WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
}

fn wl(seed: u64, protocol: Protocol) -> RandomWorkloadCfg {
    let wl = RandomWorkloadCfg::new(seed, 25);
    if protocol == Protocol::TwoPhase {
        wl.with_blocking_only()
    } else {
        wl
    }
}

/// Captures one image mid-run (with an in-process restart, so the run
/// itself exercises the reference restart path), returns the image and
/// both result vectors: `(image, native, in_process_restart)`.
fn capture(protocol: Protocol, n: usize, seed: u64) -> (Checkpoint, Vec<f64>, Vec<f64>) {
    let base = wl(seed, protocol);
    let native = run_ckpt_world(cfg(n), CkptOptions::native().with_protocol(protocol), |r| {
        random_workload(&base, r)
    });
    let native_data: Vec<f64> = native.results().copied().collect();

    let at = VTime::from_secs(native.makespan.as_secs() * 0.45);
    let paced = base.clone().with_pace_us(20);
    let run = run_ckpt_world(
        cfg(n),
        CkptOptions::one_checkpoint(at, ResumeMode::Restart).with_protocol(protocol),
        |r| random_workload(&paced, r),
    );
    assert!(
        run.failures.is_empty(),
        "capture aborted: {:?}",
        run.failures
    );
    assert_eq!(run.checkpoints.len(), 1, "checkpoint must fire mid-run");
    let restarted: Vec<f64> = run.results().copied().collect();
    assert_eq!(
        restarted, native_data,
        "in-process restart diverged before the image was even restored"
    );
    let image = run.checkpoints.into_iter().next().unwrap();
    image
        .verify()
        .expect("captured cut must satisfy the oracle");
    (image, native_data, restarted)
}

/// All references to one member list share one allocation.
fn assert_lists_are_shared(image: &Checkpoint, what: &str) {
    let refs: Vec<_> = image.member_list_refs().collect();
    for a in &refs {
        for b in &refs {
            assert_eq!(a == b, Arc::ptr_eq(a, b), "{what}: {a:?} vs {b:?}");
        }
    }
}

fn roundtrip_case(protocol: Protocol, n: usize, seed: u64) {
    let (image, native_data, restarted) = capture(protocol, n, seed);

    // serialize → deserialize: field-exact and byte-deterministic.
    let bytes = image.to_bytes();
    let decoded = Checkpoint::from_bytes(&bytes).expect("decode");
    assert_eq!(decoded, image, "decoded image differs from the capture");
    assert_eq!(decoded.to_bytes(), bytes, "re-serialization must be stable");
    assert_lists_are_shared(&decoded, "from_bytes");

    // disk round trip.
    let path = std::env::temp_dir().join(format!(
        "mana_roundtrip_{}_{}_{}.ckpt",
        protocol.name(),
        seed,
        std::process::id()
    ));
    image.save_to(&path).expect("save");
    let loaded = Checkpoint::load_from(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, image);

    // restore: bit-identical continuation versus the in-process restart.
    let base = wl(seed, protocol);
    let restored = restore_ckpt_world(&loaded, RestoreConfig::same_packing(), |r| {
        random_workload(&base, r)
    });
    let restored_data: Vec<f64> = restored.results().copied().collect();
    assert_eq!(
        restored_data,
        restarted,
        "{}: restore-from-image diverged from in-process restart",
        protocol.name()
    );
    assert_eq!(restored_data, native_data);
}

#[test]
fn cc_image_roundtrip_restores_bit_identically() {
    for seed in [7, 40] {
        roundtrip_case(Protocol::Cc, 4, seed);
    }
}

#[test]
fn cc_image_roundtrip_8_ranks() {
    roundtrip_case(Protocol::Cc, 8, 13);
}

#[test]
fn two_phase_image_roundtrip_restores_bit_identically() {
    for seed in [3, 8] {
        roundtrip_case(Protocol::TwoPhase, 4, seed);
    }
}

/// Three consecutive cuts of a 16-rank step world with split
/// communicators, stored as full + delta + delta: the chain resolves to
/// the newest image exactly, and the lists of the result — the root's cut
/// prefix, both deltas' tails, every rank's chunk, inherited or inline —
/// are each one allocation.
#[test]
fn depth_three_chain_of_a_split_world_resolves_with_shared_lists() {
    let cfg = WorldConfig::multi_node(16, 4)
        .with_params(NetParams::slingshot11().without_jitter())
        .with_workers(2);
    let work = RandomWorkloadCfg::new(193, 200).with_pace_us(40);
    let run = run_ckpt_world_steps(
        cfg,
        CkptOptions::native()
            .with_protocol(Protocol::Cc)
            .with_policy(EveryNCollectives::new(25, 3))
            .with_resume(ResumeMode::Continue),
        |_| RandomWorkloadStep::new(work.clone()),
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert_eq!(run.checkpoints.len(), 3, "three cuts must commit");

    let store = TieredStore::default();
    let mut leaf = 0;
    for (i, image) in run.checkpoints.iter().enumerate() {
        let r = store.save(CkptTier::Lustre, Arc::new(image.clone()), i > 0, 2);
        assert_eq!(r.delta_parent.is_some(), i > 0, "save {i}");
        leaf = r.generation;
    }
    let newest = &run.checkpoints[2];
    assert!(
        newest.member_table_range().len() > 8,
        "the world must have split into non-contiguous groups"
    );
    let loaded = store.load(leaf).expect("depth-3 chain must resolve");
    assert_eq!(&loaded, newest);
    assert_eq!(loaded.to_bytes(), newest.to_bytes());
    assert_lists_are_shared(&loaded, "TieredStore::load");
    loaded.verify().expect("the resolved cut is safe");
}

/// A corrupted or truncated image must be rejected at parse time with a
/// typed error; restore never sees it.
#[test]
fn corrupted_and_truncated_images_are_rejected() {
    let (image, ..) = capture(Protocol::Cc, 4, 5);
    let bytes = image.to_bytes();
    assert!(Checkpoint::from_bytes(&bytes).is_ok());

    // Flip one payload bit at a time across a spread of offsets: every
    // tampering attempt must fail the checksum (or the magic/header
    // checks for the first bytes).
    for offset in (0..bytes.len()).step_by(bytes.len() / 13 + 1) {
        let mut bad = bytes.clone();
        bad[offset] ^= 0x04;
        assert!(
            Checkpoint::from_bytes(&bad).is_err(),
            "flipped bit at offset {offset} went undetected"
        );
    }

    // Truncation at any boundary is detected.
    for keep in [0, 7, 19, bytes.len() / 2, bytes.len() - 1] {
        let err = Checkpoint::from_bytes(&bytes[..keep]).unwrap_err();
        assert!(
            matches!(err, ImageError::Truncated { .. } | ImageError::BadMagic),
            "truncation to {keep} bytes produced {err:?}"
        );
    }

    // An image from a future format version is refused, not misparsed —
    // and so is one from before the member-list table (v4): there is one
    // decoder.
    for version in [0xFE, 4] {
        let mut other = bytes.clone();
        other[8] = version;
        assert_eq!(
            Checkpoint::from_bytes(&other),
            Err(ImageError::UnsupportedVersion(version as u32))
        );
    }
}
