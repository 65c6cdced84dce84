//! Regression tier for the typed restore pre-flight: a deliberately
//! inconsistent image must be **refused** by `try_restore_ckpt_world`
//! with a typed [`RestoreError`] — before any rank thread spawns — and
//! never `expect`-panic inside the restore path (the bug this PR fixes:
//! the safe-cut oracle's failure used to panic mid-restore).

use ckpt::{
    run_ckpt_world, try_restore_ckpt_world, Checkpoint, CkptOptions, ImageError, RestoreConfig,
    RestoreError, ResumeMode,
};
use mana_core::{Cut, ExecEvent};
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::{random_workload, RandomWorkloadCfg};

/// Rewrites the image's cut one participation at a time: `edit` gets the
/// first multi-member participation's position in the cut's event list.
fn edit_cut(image: &mut Checkpoint, edit: impl FnOnce(&mut Vec<ExecEvent>, usize)) {
    let mut events: Vec<ExecEvent> = image.cut_events.events().collect();
    let victim = events
        .iter()
        .position(|e| e.members.len() > 1)
        .expect("a real run has multi-member collectives");
    edit(&mut events, victim);
    image.cut_events = Cut::from_events(&events);
}

/// A genuine, consistent image from a real 4-rank checkpointed run.
fn capture_image() -> (Checkpoint, RandomWorkloadCfg) {
    let cfg = WorldConfig::single_node(4).with_params(NetParams::slingshot11().without_jitter());
    let wl = RandomWorkloadCfg::new(0xCC, 25);
    let native = run_ckpt_world(cfg.clone(), CkptOptions::native(), |r| {
        random_workload(&wl, r)
    });
    let at = VTime::from_secs(native.makespan.as_secs() * 0.5);
    let paced = wl.clone().with_pace_us(20);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, ResumeMode::Continue),
        |r| random_workload(&paced, r),
    );
    let image = run
        .checkpoints
        .into_iter()
        .next()
        .expect("harness captured a checkpoint");
    assert!(image.verify().is_ok(), "the pristine image must be safe");
    assert!(!image.cut_events.is_empty(), "cut evidence must exist");
    (image, paced)
}

#[test]
fn unsafe_cut_is_refused_with_a_typed_error() {
    let (mut image, wl) = capture_image();
    // Zero the achieved per-group maxima: every recorded cut event now
    // sits beyond its group's achieved sequence, so the §4.2.2 oracle
    // must reject the cut (BeyondTarget violations).
    for v in image.achieved.values_mut() {
        *v = 0;
    }
    let err = try_restore_ckpt_world(&image, RestoreConfig::same_packing(), |r| {
        random_workload(&wl, r)
    })
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
    // Drop one rank's visit to a collective node: the node is now visited
    // by a strict subset of its members — Invariant 2 of the oracle.
    edit_cut(&mut image, |events, victim| drop(events.remove(victim)));
    let err = try_restore_ckpt_world(&image, RestoreConfig::same_packing(), |r| {
        random_workload(&wl, r)
    })
    .expect_err("a partially-visited cut must be refused");
    assert!(matches!(err, RestoreError::UnsafeCut(_)), "got {err:?}");
}

/// A member list naming a rank outside the world would index past the
/// per-rank control state mid-restore. The wire refuses it where it
/// enters: the list is range-checked once, in the member-list table, and
/// the image never reaches `try_restore_ckpt_world`.
#[test]
fn member_outside_the_world_is_refused_at_decode() {
    let (mut image, _) = capture_image();
    let n = image.n_ranks;
    edit_cut(&mut image, |events, victim| {
        let mut members = events[victim].members.to_vec();
        *members.last_mut().unwrap() = n + 3;
        events[victim].members = members.into();
    });
    let res = std::panic::catch_unwind(|| Checkpoint::from_bytes(&image.to_bytes()))
        .expect("the decoder must not panic");
    assert_eq!(
        res,
        Err(ImageError::Malformed("member table entry rank")),
        "an out-of-world member must be a typed decode error"
    );
}

#[test]
fn capture_count_mismatch_is_refused_as_malformed() {
    let (mut image, wl) = capture_image();
    image.captures.pop();
    let err = try_restore_ckpt_world(&image, RestoreConfig::same_packing(), |r| {
        random_workload(&wl, r)
    })
    .expect_err("a capture/n_ranks mismatch must be refused");
    assert!(
        matches!(err, RestoreError::MalformedImage(_)),
        "got {err:?}"
    );
}

#[test]
fn pristine_image_still_restores_through_the_try_api() {
    let (image, wl) = capture_image();
    let report = try_restore_ckpt_world(&image, RestoreConfig::same_packing(), |r| {
        random_workload(&wl, r)
    })
    .expect("a consistent image restores");
    assert_eq!(report.results().count(), image.n_ranks);
    // Restored runs re-captured nothing: the wall-time column is empty.
    assert!(report.capture_wall_s.is_empty());
}
