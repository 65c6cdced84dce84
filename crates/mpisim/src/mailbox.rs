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
use crate::types::{CommId, SrcSel, TagSel};
use parking_lot::{Condvar, Mutex};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The matching criteria of a receive or probe.
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

/// A rank's mailbox: arrival-ordered unexpected queue plus a condition
/// variable for blocking receivers.
#[derive(Default)]
pub struct Mailbox {
    inner: Mutex<Vec<InFlightMsg>>,
    cv: Condvar,
    activity: Mutex<Activity>,
    /// The rank driver's wake hook: invoked on every
    /// [`Mailbox::notify_activity`] so a rank parked by the checkpoint
    /// layer — a step object, or a thread in its per-rank event wait —
    /// learns about deposits and collective completions through its
    /// driver instead of this mailbox's condition variable. Unset for
    /// bare `run_world` ranks; set at most once, so a poke reads it
    /// without a lock or a reference count.
    waker: OnceLock<Arc<dyn Fn() + Send + Sync>>,
}

#[derive(Default)]
struct Activity {
    /// Monotone count of deposits and pokes, for "did anything change"
    /// polling.
    generation: u64,
    /// Threads currently inside [`Mailbox::wait_activity_since`]'s
    /// condvar wait. A poke notifies the condvar only when this is
    /// non-zero: a world driven through the waker never waits here, and
    /// an unconditional `notify_all` is a futex call per poke.
    waiters: usize,
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

    /// Records mailbox-visible activity without depositing a message and
    /// wakes every waiter. Used by the collective engine at instance
    /// completion: pollers blocked in activity waits (`park_briefly`, the
    /// checkpoint layer's `Test` loops) learn about collective completions
    /// the same way they learn about deposits, so those waits stay
    /// event-driven instead of timing out.
    pub fn notify_activity(&self) {
        let waiting = {
            let mut a = self.activity.lock();
            a.generation += 1;
            a.waiters > 0
        };
        // A waiter registers and starts waiting under the activity lock,
        // so one that is not counted yet will see the new generation
        // before it waits.
        if waiting {
            self.cv.notify_all();
        }
        if let Some(w) = self.waker.get() {
            w();
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

    /// Peeks at the first match without removing it (for `MPI_Iprobe`):
    /// returns `(source group rank, tag, len, arrival)`.
    pub fn peek_match(
        &self,
        spec: &MatchSpec<'_>,
    ) -> Option<(usize, crate::types::Tag, usize, netmodel::VTime)> {
        let q = self.inner.lock();
        q.iter().find_map(|m| {
            spec.matches(m)
                .map(|src| (src, m.tag, m.payload.len(), m.arrival))
        })
    }

    /// Snapshot of the deposit counter, for race-free waiting: take the
    /// token *before* scanning the queue, then pass it to
    /// [`Mailbox::wait_activity_since`] — a deposit landing between the
    /// scan and the wait bumps the counter and the wait returns at once.
    pub fn activity_token(&self) -> u64 {
        self.activity.lock().generation
    }

    /// Blocks the calling thread until activity lands after `token` was
    /// taken, or `timeout` elapses. Event-driven: activity that raced the
    /// caller's queue scan is detected through the token and never costs
    /// the timeout. Returns `true` if activity was observed (before or
    /// during the wait), `false` if the wait expired with the generation
    /// unchanged — callers treating `timeout` as a lost-wakeup backstop
    /// use the `false` case to record a backstop-expiry wakeup.
    pub fn wait_activity_since(&self, token: u64, timeout: Duration) -> bool {
        let mut a = self.activity.lock();
        if a.generation != token {
            return true;
        }
        a.waiters += 1;
        self.cv.wait_for(&mut a, timeout);
        a.waiters -= 1;
        a.generation != token
    }

    /// Blocks until the mailbox changes or `timeout` elapses. Activity
    /// arriving between the caller's last queue scan and this call is
    /// *not* detected (take a token first for that — see
    /// [`Mailbox::activity_token`]); use only for idle naps where an
    /// extra `timeout` of latency is acceptable.
    pub fn wait_activity(&self, timeout: Duration) {
        let token = self.activity_token();
        self.wait_activity_since(token, timeout);
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

    /// Clones **all** queued messages without removing them (checkpoint
    /// *continue* path).
    pub fn snapshot_all(&self) -> Vec<InFlightMsg> {
        self.inner.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netmodel::VTime;

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
    fn peek_does_not_remove() {
        let g = Group::world(2);
        let mb = Mailbox::new();
        mb.deposit(msg(1, 0, 3, 5));
        let s = spec(&g, 0, SrcSel::Any, TagSel::Any);
        let (src, tag, len, _) = mb.peek_match(&s).unwrap();
        assert_eq!((src, tag, len), (1, 3, 1));
        assert_eq!(mb.len(), 1);
        assert!(mb.take_match(&s).is_some());
        assert!(mb.is_empty());
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
        let token = mb.activity_token();
        mb.deposit(msg(1, 0, 1, 0));
        let t = std::time::Instant::now();
        mb.wait_activity_since(token, Duration::from_secs(5));
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "raced deposit must not cost the timeout"
        );
    }

    /// Spins until a thread is parked in `wait_activity_since`.
    fn await_waiter(mb: &Mailbox) {
        while mb.activity.lock().waiters == 0 {
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
            let token = mb.activity_token();
            std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    let t = std::time::Instant::now();
                    let seen = mb.wait_activity_since(token, Duration::from_secs(5));
                    (seen, t.elapsed())
                });
                await_waiter(&mb);
                poke(&mb);
                let (seen, waited) = waiter.join().unwrap();
                assert!(seen, "the poke is activity, not a timeout");
                assert!(waited < Duration::from_secs(1), "woken, not timed out");
            });
            assert_eq!(mb.activity.lock().waiters, 0, "waiter deregistered");
        }
    }

    #[test]
    fn poke_without_waiter_still_counts_and_calls_the_waker() {
        let mb = Mailbox::new();
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        mb.set_waker(Arc::new(move || {
            h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        let token = mb.activity_token();
        mb.notify_activity();
        assert_ne!(
            mb.activity_token(),
            token,
            "token bumped with nobody waiting"
        );
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 1);
        // The bump is what a later waiter keys on: no wait at all.
        assert!(mb.wait_activity_since(token, Duration::from_secs(5)));
    }

    #[test]
    fn wait_activity_wakes_on_deposit() {
        use std::sync::Arc;
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || {
            mb2.wait_activity(Duration::from_secs(5));
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.deposit(msg(1, 0, 1, 0));
        t.join().unwrap(); // returns promptly, not after 5s
    }
}
