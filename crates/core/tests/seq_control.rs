//! Satellite test coverage: `SeqTable`/`TargetTable` target-update edge
//! cases and `RankState` round-tripping through the control plane.

use mana_core::{CkptControl, CkptPhase, Ggid, RankState, SeqTable, TargetTable};

#[test]
#[should_panic(expected = "unregistered group")]
fn increment_on_unregistered_group_panics() {
    let mut t = SeqTable::new();
    t.register_group(Ggid(1), vec![0, 1]);
    t.increment(Ggid(2)); // never registered
}

#[test]
fn register_group_is_idempotent_and_preserves_seq() {
    let mut t = SeqTable::new();
    t.register_group(Ggid(5), vec![0, 1, 2]);
    t.increment(Ggid(5));
    t.increment(Ggid(5));
    // Re-registration (e.g. a second MPI_SIMILAR communicator on the same
    // member set) must not reset the counter or the member list.
    t.register_group(Ggid(5), vec![9, 9, 9]);
    assert_eq!(t.seq(Ggid(5)), 2);
    assert_eq!(t.members(Ggid(5)), Some(&[0usize, 1, 2][..]));
}

#[test]
fn overshoot_raise_semantics() {
    // A rank that ran past the installed target (Algorithm 2): the raise
    // must move the target up to the overshot sequence, never down, and
    // `reached_by` must accept transient overshoot (`SEQ > TARGET`).
    let mut s = SeqTable::new();
    s.register_group(Ggid(1), vec![0, 1]);
    for _ in 0..5 {
        s.increment(Ggid(1));
    }
    let mut t = TargetTable::new();
    t.install([(Ggid(1), 3)].into_iter().collect());
    assert!(
        t.reached_by(&s),
        "SEQ=5 >= TARGET=3 is (transiently) reached"
    );
    assert!(t.raise(Ggid(1), 5), "overshoot raises 3 -> 5");
    assert!(!t.raise(Ggid(1), 4), "raises are monotone");
    assert_eq!(t.get(Ggid(1)), Some(5));
    // A raise for a group with no installed target creates one.
    assert!(t.raise(Ggid(9), 2));
    assert!(!t.reached_by(&s), "new target on unseen group is unmet");
}

#[test]
fn unmet_reports_exact_deficits() {
    let mut s = SeqTable::new();
    s.register_group(Ggid(1), vec![0]);
    s.increment(Ggid(1));
    let mut t = TargetTable::new();
    t.install([(Ggid(1), 4), (Ggid(2), 0)].into_iter().collect());
    let mut unmet: Vec<_> = t.unmet(&s).collect();
    unmet.sort();
    assert_eq!(unmet, vec![(Ggid(1), 1, 4)]);
    t.clear();
    assert!(t.reached_by(&s), "cleared targets are trivially reached");
}

#[test]
fn rank_state_round_trips_through_control_plane() {
    let c = CkptControl::new(1);
    let states = [
        RankState::Running,
        RankState::Draining,
        RankState::EntryParked,
        RankState::RecvParked,
        RankState::InTrivialBarrier,
        RankState::Quiesced,
        RankState::Finished,
    ];
    for s in states {
        c.ranks[0].set_state(s);
        assert_eq!(c.ranks[0].state(), s, "state {s:?} must round-trip");
        assert_eq!(
            c.ranks[0].state().is_parked(),
            matches!(
                s,
                RankState::EntryParked
                    | RankState::RecvParked
                    | RankState::InTrivialBarrier
                    | RankState::Quiesced
                    | RankState::Finished
            )
        );
    }
}

#[test]
fn checkpoint_lifecycle_resets_per_round_state() {
    let c = CkptControl::new(2);
    {
        let mut t = c.ranks[0].seq_mirror.lock();
        t.register_group(Ggid(1), vec![0, 1]);
        t.increment(Ggid(1));
    }
    c.request_checkpoint();
    let targets = c.compute_and_install_targets();
    assert_eq!(targets[&Ggid(1)], 1);
    assert!(c.ranks[1]
        .targets_ready
        .load(std::sync::atomic::Ordering::SeqCst));
    c.ranks[0]
        .updates_sent
        .fetch_add(2, std::sync::atomic::Ordering::SeqCst);
    c.withdraw();
    c.reset_after_checkpoint();
    assert_eq!(c.phase(), CkptPhase::Idle);
    assert!(!c.ranks[1]
        .targets_ready
        .load(std::sync::atomic::Ordering::SeqCst));
    assert!(c.ranks[0].initial_targets.lock().is_empty());
    assert!(c.updates_balanced(), "counters must reset to balanced");
    assert_eq!(c.ckpt_epoch.load(std::sync::atomic::Ordering::SeqCst), 1);
    // A second checkpoint can start cleanly.
    c.request_checkpoint();
    assert_eq!(c.phase(), CkptPhase::Draining);
}
