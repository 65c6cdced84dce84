//! Per-rank mailbox: the unexpected-message queue and its matching rules.
//!
//! Senders deposit messages directly into the destination's mailbox (eager
//! protocol); receivers scan for matches. MPI's **non-overtaking rule** —
//! messages between the same (sender, communicator) pair with matching tags
//! must be received in send order — is guaranteed by matching in deposit
//! order per sender: each sender thread deposits its own sends in program
//! order, so a front-to-back scan that picks the *first* match can never
//! reorder a sender's stream.

use crate::group::Group;
use crate::msg::InFlightMsg;
use crate::sched::EventCount;
use crate::types::{CommId, SrcSel, TagSel};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// The matching criteria of a receive.
#[derive(Debug, Clone, Copy)]
pub struct MatchSpec<'a> {
    /// Communicator to match on.
    pub comm: CommId,
    /// The communicator's group (to translate world→group ranks).
    pub group: &'a Group,
    /// Source selector (group ranks).
    pub src: SrcSel,
    /// Tag selector.
    pub tag: TagSel,
}

impl MatchSpec<'_> {
    /// Whether `msg` satisfies this spec; returns the source group rank.
    pub fn matches(&self, msg: &InFlightMsg) -> Option<usize> {
        if msg.comm != self.comm {
            return None;
        }
        let src_group = self.group.group_rank_of_world(msg.src_world)?;
        if self.src.matches(src_group) && self.tag.matches(msg.tag) {
            Some(src_group)
        } else {
            None
        }
    }
}

/// A rank's mailbox: arrival-ordered unexpected queue plus an event count
/// of deposits and pokes for blocking receivers.
#[derive(Default)]
pub struct Mailbox {
    inner: Mutex<Vec<InFlightMsg>>,
    /// Counts deposits and pokes: take a token *before* scanning the
    /// queue and wait on it, so activity racing the scan ends the wait.
    pub activity: EventCount,
    /// The rank driver's wake hook: invoked on every
    /// [`Mailbox::notify_activity`] so a rank parked by the checkpoint
    /// layer — a step object, or a thread in its per-rank event wait —
    /// learns about deposits and collective completions through its
    /// driver instead of this mailbox's condition variable. Unset for
    /// bare `run_world` ranks; set at most once, so a poke reads it
    /// without a lock or a reference count.
    waker: OnceLock<Arc<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox")
            .field("queued", &self.len())
            .field("has_waker", &self.waker.get().is_some())
            .finish()
    }
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposits a message (called by the *sender's* thread) and wakes any
    /// blocked receiver.
    pub fn deposit(&self, msg: InFlightMsg) {
        {
            let mut q = self.inner.lock();
            q.push(msg);
        }
        self.notify_activity();
    }

    /// Puts `msgs`, in order, ahead of every queued message and wakes any
    /// blocked receiver.
    pub fn deposit_front(&self, msgs: Vec<InFlightMsg>) {
        self.inner.lock().splice(0..0, msgs);
        self.notify_activity();
    }

    /// Records mailbox-visible activity without depositing a message and
    /// wakes the rank. Used by the collective engine at instance
    /// completion: a bare rank blocked in [`crate::Ctx::bcast`] or
    /// [`crate::Ctx::allreduce_f64`], and a driven rank through its waker,
    /// learn about collective completions the same way they learn about
    /// deposits, so those waits stay event-driven instead of timing out.
    ///
    /// A driven rank hears its mailbox only through the waker, so the
    /// activity count — whose one sleeper is a bare rank's private wait —
    /// moves only when no waker is installed.
    pub fn notify_activity(&self) {
        match self.waker.get() {
            Some(w) => w(),
            None => {
                self.activity.bump();
            }
        }
    }

    /// Installs the driver's waker invoked on every activity
    /// notification. Wired by the world from the scheduler's rank-waker
    /// registry; bare `run_world` worlds never set it.
    ///
    /// # Panics
    /// Panics if a waker is already installed: a mailbox belongs to one
    /// rank of one lower-half generation, which has one driver.
    pub fn set_waker(&self, w: Arc<dyn Fn() + Send + Sync>) {
        assert!(self.waker.set(w).is_ok(), "mailbox waker installed twice");
    }

    /// Removes and returns the first message matching `spec`, if any.
    pub fn take_match(&self, spec: &MatchSpec<'_>) -> Option<InFlightMsg> {
        let mut q = self.inner.lock();
        let idx = q.iter().position(|m| spec.matches(m).is_some())?;
        Some(q.remove(idx))
    }

    /// Number of queued (unmatched) messages.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns **all** queued messages. Used by the checkpoint
    /// engine at a safe state: anything still unmatched is an in-flight
    /// message that must be saved in the image and re-deposited at restart.
    pub fn drain_all(&self) -> Vec<InFlightMsg> {
        std::mem::take(&mut *self.inner.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netmodel::VTime;
    use std::time::Duration;

    fn msg(src: usize, comm: u64, tag: u32, seq: u64) -> InFlightMsg {
        InFlightMsg {
            src_world: src,
            dst_world: 0,
            comm: CommId(comm),
            tag,
            payload: Bytes::from(vec![seq as u8]),
            sent: VTime::ZERO,
            arrival: VTime::from_micros(seq as f64),
            seq,
        }
    }

    fn spec(group: &Group, comm: u64, src: SrcSel, tag: TagSel) -> MatchSpec<'_> {
        MatchSpec {
            comm: CommId(comm),
            group,
            src,
            tag,
        }
    }

    #[test]
    fn fifo_per_sender_and_tag() {
        let g = Group::world(4);
        let mb = Mailbox::new();
        mb.deposit(msg(1, 0, 7, 0));
        mb.deposit(msg(1, 0, 7, 1));
        let s = spec(&g, 0, SrcSel::Rank(1), TagSel::Tag(7));
        assert_eq!(mb.take_match(&s).unwrap().seq, 0);
        assert_eq!(mb.take_match(&s).unwrap().seq, 1);
        assert!(mb.take_match(&s).is_none());
    }

    #[test]
    fn wildcard_source_takes_earliest_deposit() {
        let g = Group::world(4);
        let mb = Mailbox::new();
        mb.deposit(msg(2, 0, 7, 10));
        mb.deposit(msg(1, 0, 7, 11));
        let s = spec(&g, 0, SrcSel::Any, TagSel::Tag(7));
        assert_eq!(mb.take_match(&s).unwrap().src_world, 2);
    }

    #[test]
    fn tag_and_comm_filtering() {
        let g = Group::world(4);
        let mb = Mailbox::new();
        mb.deposit(msg(1, 0, 7, 0));
        mb.deposit(msg(1, 1, 8, 1));
        // Wrong tag: no match.
        assert!(mb
            .take_match(&spec(&g, 0, SrcSel::Any, TagSel::Tag(9)))
            .is_none());
        // Wrong comm: no match.
        assert!(mb
            .take_match(&spec(&g, 2, SrcSel::Any, TagSel::Any))
            .is_none());
        // Comm 1, any tag: the tag-8 message.
        assert_eq!(
            mb.take_match(&spec(&g, 1, SrcSel::Any, TagSel::Any))
                .unwrap()
                .tag,
            8
        );
    }

    #[test]
    fn sender_outside_group_never_matches() {
        // A message from world rank 3 on a comm whose group is {0,1}:
        // matching must skip it even under ANY_SOURCE (different comm ids
        // prevent this in practice, but the matcher must be robust).
        let g = Group::new(vec![0, 1]);
        let mb = Mailbox::new();
        mb.deposit(msg(3, 0, 7, 0));
        assert!(mb
            .take_match(&spec(&g, 0, SrcSel::Any, TagSel::Any))
            .is_none());
    }

    #[test]
    fn drain_all_empties() {
        let g = Group::world(2);
        let mb = Mailbox::new();
        mb.deposit(msg(1, 0, 1, 0));
        mb.deposit(msg(1, 0, 2, 1));
        let drained = mb.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(mb.is_empty());
        let _ = g;
    }

    #[test]
    fn wait_since_token_sees_raced_deposit() {
        // A deposit landing between the token snapshot and the wait must
        // make the wait return immediately, not after the timeout.
        let mb = Mailbox::new();
        let token = mb.activity.token();
        mb.deposit(msg(1, 0, 1, 0));
        let t = std::time::Instant::now();
        mb.activity.wait_since(token, Duration::from_secs(5));
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "raced deposit must not cost the timeout"
        );
    }

    /// Spins until a thread is parked on the mailbox's activity count.
    fn await_waiter(mb: &Mailbox) {
        while mb.activity.waiters() == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn parked_waiter_wakes_on_poke_and_on_deposit() {
        // The waiter-gated `notify_all` must still reach a thread that is
        // really parked: both event kinds end a 5 s wait at once, with
        // `true` (activity seen, not a backstop expiry).
        let pokes: [fn(&Mailbox); 2] = [Mailbox::notify_activity, |mb| mb.deposit(msg(1, 0, 1, 0))];
        for poke in pokes {
            let mb = Mailbox::new();
            let token = mb.activity.token();
            std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    let t = std::time::Instant::now();
                    let seen = mb.activity.wait_since(token, Duration::from_secs(5));
                    (seen, t.elapsed())
                });
                await_waiter(&mb);
                poke(&mb);
                let (seen, waited) = waiter.join().unwrap();
                assert!(seen, "the poke is activity, not a timeout");
                assert!(waited < Duration::from_secs(1), "woken, not timed out");
            });
            assert_eq!(mb.activity.waiters(), 0, "waiter deregistered");
        }
    }

    #[test]
    fn poke_goes_to_the_waker_else_to_the_count() {
        // A driven rank hears its mailbox through the waker alone: the
        // count stays put. Without a waker the count moves with nobody
        // waiting, and that bump is what a later waiter keys on.
        let mb = Mailbox::new();
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        mb.set_waker(Arc::new(move || {
            h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        let token = mb.activity.token();
        mb.notify_activity();
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(mb.activity.token(), token, "the waker is the only wake");

        let bare = Mailbox::new();
        let token = bare.activity.token();
        bare.notify_activity();
        assert_ne!(bare.activity.token(), token, "counted with nobody waiting");
        assert!(bare.activity.wait_since(token, Duration::from_secs(5)));
    }

    #[test]
    fn bumps_racing_waits_never_time_out() {
        // One thread bumps 10^5 times, then flags the end and bumps once
        // more; the other keeps taking a token and waiting on it. Every
        // wait must end on a bump: one that sleeps through its 5 s
        // timeout lost the race between its registration and a bump.
        let ec = EventCount::default();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..100_000 {
                    ec.bump();
                }
                done.store(true, std::sync::atomic::Ordering::SeqCst);
                ec.bump();
            });
            loop {
                let token = ec.token();
                if done.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                assert!(
                    ec.wait_since(token, Duration::from_secs(5)),
                    "a wait timed out"
                );
            }
        });
        assert_eq!(ec.waiters(), 0);
    }

    #[test]
    fn wait_activity_wakes_on_deposit() {
        use std::sync::Arc;
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || {
            mb2.activity
                .wait_since(mb2.activity.token(), Duration::from_secs(5));
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.deposit(msg(1, 0, 1, 0));
        t.join().unwrap(); // returns promptly, not after 5s
    }
}
