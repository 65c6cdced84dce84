//! Satellite test coverage: `SeqTable`/`TargetTable` raise edge cases and
//! `RankState` round-tripping through the control plane.

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
    for _ in 0..3 {
        s.increment(Ggid(1));
    }
    let mut t = TargetTable::snapshot([&s]);
    for _ in 0..2 {
        s.increment(Ggid(1));
    }
    let members = s.members_shared(Ggid(1)).unwrap().clone();
    assert!(
        t.reached_by(&s),
        "SEQ=5 >= TARGET=3 is (transiently) reached"
    );
    assert!(t.raise(Ggid(1), 5, &members), "overshoot raises 3 -> 5");
    assert!(!t.raise(Ggid(1), 4, &members), "raises are monotone");
    assert_eq!(t.get(Ggid(1)), Some(5));
    // A raise for a group with no installed target creates one, which
    // holds a rank that registered the group.
    assert!(t.raise(Ggid(9), 2, &members));
    assert!(t.reached_by(&s), "the rank has not registered group 9");
    s.register_group(Ggid(9), vec![0, 1]);
    assert!(
        !t.reached_by(&s),
        "new target on a registered group is unmet"
    );
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
    for r in &c.ranks {
        r.seq_mirror.lock().register_group(Ggid(1), vec![0, 1]);
    }
    c.ranks[0].seq_mirror.lock().increment(Ggid(1));
    c.request_checkpoint();
    let mut targets = None;
    c.compute_and_install_targets(|t| targets = Some(t.targets()));
    assert_eq!(targets.unwrap()[&Ggid(1)], 1);
    assert!(c.targets_ready());
    assert!(!c.publish_met(1), "rank 1 owes one collective");
    c.withdraw();
    c.release();
    assert_eq!(c.phase(), CkptPhase::Idle);
    assert!(!c.targets_ready(), "the withdrawal retires the targets");
    // A second checkpoint can start cleanly, and its snapshot replaces
    // the first one's table whole.
    c.ranks[1].seq_mirror.lock().increment(Ggid(1));
    c.ranks[1].seq_mirror.lock().increment(Ggid(1));
    c.request_checkpoint();
    assert_eq!(c.phase(), CkptPhase::Draining);
    assert!(!c.targets_ready(), "not before Algorithm 1 runs");
    c.compute_and_install_targets(|_| {});
    assert!(c.publish_met(1));
    assert!(!c.publish_met(0), "rank 0 owes the second table's target");
}
