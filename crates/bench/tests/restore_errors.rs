//! Regression tier for the typed restore refusals: a deliberately
//! inconsistent image, an image with no upper half, or a body that
//! refuses its snapshot must be **refused** by
//! `try_restore_ckpt_world_steps` with a typed [`RestoreError`] — before
//! any rank runs — and never `expect`-panic inside the restore path.

use bytes::Bytes;
use ckpt::{
    run_ckpt_world, run_ckpt_world_steps, try_restore_ckpt_world_steps, Checkpoint, CkptOptions,
    CkptTier, DrainedMsg, ImageError, RestoreConfig, RestoreError, ResumeMode, StoreError,
    TieredStore,
};
use mana_core::{ggid_of_sorted, Ggid, Protocol, Violation};
use mpisim::{NetParams, SavedMsg, VTime, WorldConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use workloads::{RandomWorkloadCfg, RandomWorkloadStep, ScfStep};

fn cfg() -> WorldConfig {
    WorldConfig::single_node(4).with_params(NetParams::slingshot11().without_jitter())
}

/// Restores `image` with the random workload `wl`, flagging in `ran` any
/// body built for it.
fn try_restore(
    image: &Checkpoint,
    rcfg: RestoreConfig,
    wl: &RandomWorkloadCfg,
) -> Result<Vec<f64>, RestoreError> {
    try_restore_ckpt_world_steps(image, rcfg, |_| RandomWorkloadStep::new(wl.clone()))
        .map(|r| r.results().copied().collect())
}

/// The lowest group id of more than one member that rank `rank` has
/// collectives on: where a one-rank forgery of the cut is visible.
fn shared_group(image: &Checkpoint, rank: usize) -> Ggid {
    let table = &image.captures[rank].seq_table;
    let shared = table
        .iter()
        .filter(|(_, e)| e.members.len() > 1 && e.seq > 0);
    let g = shared.map(|(g, _)| *g).min();
    g.expect("a real run has multi-member collectives")
}

/// Moves rank `rank`'s `SEQ[g]` by `by` — the table a restore installs —
/// and nothing else: the image's stale `cut_events` copy keeps the old
/// cut, and `Checkpoint::cut` derives the new one.
fn move_seq(image: &mut Checkpoint, rank: usize, g: Ggid, by: i64) {
    let table = &mut image.captures[rank].seq_table;
    let members = table.members_shared(g).cloned().expect("a held group");
    let seq = table.seq(g).checked_add_signed(by).expect("a SEQ in range");
    table.restore(g, seq, members);
}

/// A genuine, consistent image from a real 4-rank checkpointed run of
/// the random workload's step body.
fn capture_image() -> (Checkpoint, RandomWorkloadCfg) {
    capture_image_under(Protocol::Cc)
}

/// [`capture_image`] under `protocol` (under 2PC the schedule maps its
/// non-blocking collectives onto blocking ones).
fn capture_image_under(protocol: Protocol) -> (Checkpoint, RandomWorkloadCfg) {
    let wl = RandomWorkloadCfg::new(0xCC, 25);
    let body = |_| RandomWorkloadStep::new(wl.clone());
    let opts = CkptOptions::native().with_protocol(protocol);
    let native = run_ckpt_world_steps(cfg(), opts, body);
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world_steps(
        cfg(),
        CkptOptions::one_checkpoint(at, ResumeMode::Continue).with_protocol(protocol),
        |_| RandomWorkloadStep::new(wl.clone()),
    );
    let image = run
        .checkpoints
        .into_iter()
        .next()
        .expect("harness captured a checkpoint");
    assert_eq!(image.protocol, protocol);
    assert!(image.verify().is_ok(), "the pristine image must be safe");
    assert!(!image.cut().is_empty(), "cut evidence must exist");
    (image, wl)
}

#[test]
fn unsafe_cut_is_refused_with_a_typed_error() {
    let (mut image, wl) = capture_image();
    // Zero the final targets: every group's `SEQ[]` now sits beyond the
    // target the drain ran to, so the §4.2.2 oracle must reject the cut
    // (BeyondTarget violations).
    for t in image.final_targets.values_mut() {
        *t = 0;
    }
    let err = try_restore(&image, RestoreConfig::same_packing(), &wl)
        .expect_err("an unsafe cut must be refused");
    match &err {
        RestoreError::UnsafeCut(violations) => {
            assert!(!violations.is_empty(), "violations must be carried")
        }
        other => panic!("expected UnsafeCut, got {other:?}"),
    }
    // The error is displayable and names the oracle.
    let msg = format!("{err}");
    assert!(msg.contains("safe-cut"), "unhelpful message: {msg}");
}

#[test]
fn partially_visited_node_is_refused() {
    let (mut image, wl) = capture_image();
    // Take one rank's last collective on a shared group back: the node is
    // now visited by a strict subset of its members — Invariant 2 of the
    // oracle.
    let g = shared_group(&image, 0);
    move_seq(&mut image, 0, g, -1);
    let err = try_restore(&image, RestoreConfig::same_packing(), &wl)
        .expect_err("a partially-visited cut must be refused");
    assert!(matches!(err, RestoreError::UnsafeCut(_)), "got {err:?}");
}

/// One member's `SEQ[g]` one past the rest of its group — the tables a
/// restore would install, and nothing else changed — is refused as an
/// unsafe cut under CC (partially visited, and beyond the final target)
/// and under 2PC (partially visited: 2PC has no targets), from the image
/// in memory and from its bytes alike.
#[test]
fn a_seq_raised_on_one_member_is_refused_in_memory_and_through_bytes() {
    for protocol in [Protocol::Cc, Protocol::TwoPhase] {
        let (mut image, wl) = capture_image_under(protocol);
        let g = shared_group(&image, 0);
        move_seq(&mut image, 0, g, 1);
        let decoded = Checkpoint::from_bytes(&image.to_bytes()).expect("a well-formed image");
        assert_eq!(decoded.captures, image.captures);
        for forged in [&image, &decoded] {
            let err = try_restore(forged, RestoreConfig::same_packing(), &wl)
                .expect_err("a raised SEQ must be refused");
            let RestoreError::UnsafeCut(violations) = &err else {
                panic!("{protocol:?}: expected UnsafeCut, got {err:?}");
            };
            let partial =
                |v: &Violation| matches!(v, Violation::PartiallyVisited(n, ..) if n.ggid == g);
            let beyond =
                |v: &Violation| matches!(v, Violation::BeyondTarget(0, n, _) if n.ggid == g);
            assert!(
                violations.iter().any(partial),
                "{protocol:?}: {violations:?}"
            );
            assert_eq!(
                violations.iter().any(beyond),
                protocol == Protocol::Cc,
                "{protocol:?}: {violations:?}"
            );
        }
    }
}

/// A member list naming a rank outside the world would index past the
/// per-rank control state mid-restore. The wire refuses it where it
/// enters: the list is range-checked once, in the member-list table, and
/// the image never reaches `try_restore_ckpt_world_steps`.
#[test]
fn member_outside_the_world_is_refused_at_decode() {
    let (mut image, _) = capture_image();
    let n = image.n_ranks;
    let g = shared_group(&image, 0);
    let table = &mut image.captures[0].seq_table;
    let mut members = table.members(g).unwrap().to_vec();
    *members.last_mut().unwrap() = n + 3;
    // The wire writes a group by its list alone: the edited list is its
    // own group.
    table.restore(ggid_of_sorted(&members), table.seq(g), members);
    let res = std::panic::catch_unwind(|| Checkpoint::from_bytes(&image.to_bytes()))
        .expect("the decoder must not panic");
    assert_eq!(
        res,
        Err(ImageError::Malformed("member table entry rank")),
        "an out-of-world member must be a typed decode error"
    );
}

/// A vcomm a capture names but its rank does not rebuild would fail the
/// install mid-launch. Pre-flight refuses it instead: an in-flight message
/// `1 → 0` on a vcomm rank 0 does not hold, through the wire, and a
/// pending barrier on one, in memory.
#[test]
fn unknown_vcomm_is_refused_as_malformed() {
    let (image, wl) = capture_image();
    let mut sent = image.clone();
    sent.in_flight.push(DrainedMsg {
        saved: SavedMsg {
            src_world: 1,
            dst_world: 0,
            vcomm: 999,
            tag: 0,
            payload: Bytes::from_static(b"forged"),
            seq: 0,
        },
        arrival: VTime::ZERO,
    });
    let sent = Checkpoint::from_bytes(&sent.to_bytes()).expect("the wire carries any vcomm id");
    let mut barrier = image;
    barrier.captures[0].pending_barrier = Some((999, 0));
    for forged in [sent, barrier] {
        let err = try_restore(&forged, RestoreConfig::same_packing(), &wl)
            .expect_err("an unknown vcomm must be refused");
        assert_eq!(
            err,
            RestoreError::MalformedImage("vcomm (unknown to its rank)")
        );
    }
}

#[test]
fn capture_count_mismatch_is_refused_as_malformed() {
    let (mut image, wl) = capture_image();
    image.captures.pop();
    let err = try_restore(&image, RestoreConfig::same_packing(), &wl)
        .expect_err("a capture/n_ranks mismatch must be refused");
    assert!(
        matches!(err, RestoreError::MalformedImage(_)),
        "got {err:?}"
    );
}

/// A read source naming a generation its store does not hold has no
/// read to charge: refused before any rank runs, not restored for free.
#[test]
fn unknown_read_source_generation_is_refused() {
    let (image, wl) = capture_image();
    let store = Arc::new(TieredStore::default());
    let held = store
        .save(CkptTier::Lustre, Arc::new(image.clone()), false, 1)
        .generation;
    let ran = AtomicBool::new(false);
    let rcfg = RestoreConfig::same_packing().with_storage(Arc::clone(&store), held + 1);
    let err = try_restore_ckpt_world_steps(&image, rcfg, |_| {
        ran.store(true, Ordering::SeqCst);
        RandomWorkloadStep::new(wl.clone())
    })
    .expect_err("an unknown read source generation must be refused");
    assert_eq!(
        err,
        RestoreError::ReadSource(StoreError::UnknownGeneration(held + 1))
    );
    assert!(!ran.load(Ordering::SeqCst), "no rank may be built");
    assert!(format!("{err}").contains("unknown checkpoint generation"));
}

#[test]
fn pristine_image_still_restores_through_the_try_api() {
    let (image, wl) = capture_image();
    let report = try_restore_ckpt_world_steps(&image, RestoreConfig::same_packing(), |_| {
        RandomWorkloadStep::new(wl.clone())
    })
    .expect("a consistent image restores");
    assert_eq!(report.results().count(), image.n_ranks);
    // Restored runs re-captured nothing: the wall-time column is empty.
    assert!(report.capture_wall_s.is_empty());
}

/// A closure body's state is its stack: its images carry no upper half
/// and restart in-process only. Restoring one elsewhere is refused at
/// pre-flight, naming the first rank without one, before any body is
/// built.
#[test]
fn closure_image_without_an_upper_half_is_refused() {
    let wl = RandomWorkloadCfg::new(0xCC, 25);
    let native = run_ckpt_world(cfg(), CkptOptions::native(), |r| {
        r.run(&mut RandomWorkloadStep::new(wl.clone()))
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let run = run_ckpt_world(
        cfg(),
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |r| r.run(&mut RandomWorkloadStep::new(wl.clone())),
    );
    let image = run.checkpoints.into_iter().next().expect("captured");
    assert!(image.captures.iter().all(|c| c.upper.is_none()));
    let image = Checkpoint::from_bytes(&image.to_bytes()).expect("a closure image decodes");
    let ran = AtomicBool::new(false);
    let err = try_restore_ckpt_world_steps(&image, RestoreConfig::same_packing(), |_| {
        ran.store(true, Ordering::SeqCst);
        RandomWorkloadStep::new(wl.clone())
    })
    .expect_err("an image with no upper half must be refused");
    assert_eq!(err, RestoreError::NoUpperHalf { rank: 0 });
    assert!(!ran.load(Ordering::SeqCst), "no rank may be built");
    assert!(format!("{err}").contains("in-process only"));
}

/// A body that is not the program the image was captured from refuses
/// its snapshot: a typed error naming the rank, not a panic, and no rank
/// runs.
#[test]
fn a_body_of_another_program_refuses_its_snapshot() {
    let (image, wl) = capture_image();
    // Another seed: the same body type, another schedule.
    let other = RandomWorkloadCfg::new(0xCD, 25);
    let err = try_restore(&image, RestoreConfig::same_packing(), &other)
        .expect_err("another schedule must be refused");
    assert_eq!(
        err,
        RestoreError::BodySnapshot {
            rank: 0,
            what: "schedule seed"
        }
    );
    assert!(format!("{err}").contains("refused its snapshot"));
    // Another body type altogether.
    let err = try_restore_ckpt_world_steps(&image, RestoreConfig::same_packing(), |_| {
        ScfStep::new(25, 8)
    })
    .expect_err("another body must be refused");
    assert!(
        matches!(err, RestoreError::BodySnapshot { rank: 0, .. }),
        "got {err:?}"
    );
    // And the right program still restores from the same image.
    assert!(try_restore(&image, RestoreConfig::same_packing(), &wl).is_ok());
}
