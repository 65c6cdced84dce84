//! `CcRank::block_on`'s wait, end to end: a rank blocked in `wait()` sleeps
//! on one per-rank event that both the control plane and the lower half
//! advance, so either alone must release it — promptly, and without a
//! backstop expiry.

use bytes::Bytes;
use ckpt::{CcRank, Session};
use mana_core::{CkptPhase, Protocol, RankState};
use mpisim::{NetParams, WorldConfig};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Half the park backstop: a wait that ends inside this bound was ended
/// by its event, not by the timeout.
const PROMPT: Duration = Duration::from_millis(500);

fn spin_until(what: &str, cond: impl Fn() -> bool) {
    let t = Instant::now();
    while !cond() {
        assert!(
            t.elapsed() < PROMPT,
            "{what}: the event did not wake the rank"
        );
        std::thread::yield_now();
    }
}

#[test]
fn blocked_wait_wakes_on_phase_change_alone_and_on_deposit_alone() {
    let cfg = WorldConfig::single_node(2).with_params(NetParams::slingshot11().without_jitter());
    let sh = Session::new(cfg, Protocol::TwoPhase);
    // The launcher's wiring for ranks on threads: lower-half events reach
    // the rank's event counter through the scheduler's rank-waker registry.
    let control = Arc::clone(&sh.control);
    let world = sh.current_world();
    world
        .scheduler()
        .install_rank_waker(Arc::new(move |r| control.ranks[r].wake()));
    world.install_rank_wakers();
    let ctl = &sh.control.ranks[1];
    // Either interleaving of "rank falls asleep" and "event lands" must
    // pass (the token closes the window); the pause only makes the
    // asleep-first one — the one that needs the notify — the likely one.
    let settle = || std::thread::sleep(Duration::from_millis(20));
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut r = CcRank::new(&sh, 1);
            let v = r.irecv(r.world_vcomm(), 0, 7u32);
            r.wait(v).data
        });
        settle();

        // A coordinator phase change and no deposit: the rank leaves its
        // wait and parks for capture, cooperating in the receive.
        sh.control.request_checkpoint();
        sh.control.set_phase(CkptPhase::Quiescing);
        spin_until("phase change", || ctl.state() == RankState::RecvParked);
        // Resume it the way the coordinator does.
        sh.control.resume_gen.fetch_add(1, SeqCst);
        sh.control.clear_pending();
        sh.control.reset_after_checkpoint();
        spin_until("resume", || ctl.state() == RankState::Running);
        settle();

        // A deposit and no control-plane event: the wait completes.
        let mut sender = CcRank::new(&sh, 0);
        let t = Instant::now();
        let v = sender.isend(sender.world_vcomm(), 1, 7u32, Bytes::from_static(b"x"));
        sender.wait(v);
        let data = receiver.join().expect("receiver returns its payload");
        assert!(
            t.elapsed() < PROMPT,
            "deposit: the event did not wake the rank"
        );
        assert_eq!(data.as_ref(), b"x");
    });
    assert_eq!(
        sh.backstop_expiries(),
        0,
        "a wait was ended by its backstop"
    );
}
