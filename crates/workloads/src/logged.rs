//! A test-side witness of what each rank ran, independent of the
//! checkpoint wrapper. [`Logged`] wraps a body and, after every step,
//! reads how many collectives the rank's *lower half* has begun on each
//! communicator ([`mpisim::Ctx::collectives_begun`]) — never the
//! wrapper's `SEQ[]` — and appends the new ones to the rank's
//! [`CallLog`]. Suites check a checkpoint's cut, or a restore's suffix,
//! against it; a run's own path keeps no such record.

use ckpt::wire::{Dec, DecodeError, Wr};
use ckpt::{BodyStep, CcRank, StepBody};
use mana_core::{ggid_of, ExecEvent, Ggid, Node, Protocol};
use mpisim::types::CommId;
use std::collections::HashMap;
use std::sync::Arc;

/// One rank's collectives as its lower half began them, in program order
/// at the granularity of the body's steps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallLog {
    /// World rank.
    pub rank: usize,
    /// The collectives the rank began, one entry per step that began any,
    /// in program order. Within a step the nodes are in `(ggid, seq)`
    /// order: nothing the witness reads orders two groups inside one
    /// step. A capture parks a rank only between two steps.
    pub steps: Vec<Vec<Node>>,
    /// Each group's sorted member world ranks, as the lower half holds
    /// them.
    pub members: HashMap<Ggid, Arc<[usize]>>,
}

impl CallLog {
    /// Collectives begun per group.
    pub fn calls(&self) -> HashMap<Ggid, u64> {
        let mut calls = HashMap::new();
        for n in self.steps.iter().flatten() {
            *calls.entry(n.ggid).or_insert(0) += 1;
        }
        calls
    }

    /// Number of collectives begun.
    pub fn len(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }

    /// Whether the rank began no collective.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Every participation, in program order.
    pub fn events(&self) -> impl Iterator<Item = ExecEvent> + '_ {
        self.steps.iter().flatten().map(|&node| ExecEvent {
            rank: self.rank,
            node,
            members: Arc::clone(&self.members[&node.ggid]),
        })
    }
}

/// A body whose result carries its rank's [`CallLog`]. Its snapshot is
/// the body's alone: a restored `Logged` witnesses the restored run only.
pub struct Logged<B> {
    body: B,
    log: CallLog,
    /// The lower-half generation `seen` counts in.
    epoch: Option<u64>,
    /// Calls witnessed per communicator of that generation.
    seen: HashMap<CommId, u64>,
    /// Calls witnessed per group across generations: the last `seq`.
    total: HashMap<Ggid, u64>,
}

impl<B: StepBody> Logged<B> {
    /// `body`, witnessed.
    pub fn new(body: B) -> Logged<B> {
        Logged {
            body,
            log: CallLog::default(),
            epoch: None,
            seen: HashMap::new(),
            total: HashMap::new(),
        }
    }

    /// Appends what the lower half began since the last step.
    fn observe(&mut self, r: &CcRank) {
        let lower = r.lower_half();
        let world = lower.world();
        if self.epoch != Some(world.epoch) {
            // A restart attached a fresh lower half: its counts start over.
            self.epoch = Some(world.epoch);
            self.seen.clear();
        }
        // Under 2PC every call first begins its trivial barrier on the
        // same communicator (a restart re-begins one its rank parked
        // inside): a call is two begun collectives, and an odd one out is
        // a barrier whose call has not begun.
        let per_call = if r.protocol() == Protocol::TwoPhase {
            2
        } else {
            1
        };
        let mut step = Vec::new();
        for (id, begun) in lower.collectives_begun() {
            let seen = self.seen.entry(id).or_insert(0);
            let new = begun / per_call - *seen;
            if new == 0 {
                continue;
            }
            *seen += new;
            let comm = world.comm_inner(id);
            let ggid = ggid_of(&comm.group);
            (self.log.members)
                .entry(ggid)
                .or_insert_with(|| comm.group.sorted_members());
            let last = self.total.entry(ggid).or_insert(0);
            step.extend((*last + 1..=*last + new).map(|seq| Node { ggid, seq }));
            *last += new;
        }
        if !step.is_empty() {
            step.sort_unstable();
            self.log.steps.push(step);
        }
    }
}

impl<B: StepBody> StepBody for Logged<B> {
    type Out = (B::Out, CallLog);

    fn step(&mut self, r: &mut CcRank) -> BodyStep<Self::Out> {
        self.log.rank = r.rank();
        let out = self.body.step(r);
        self.observe(r);
        match out {
            BodyStep::Done(out) => BodyStep::Done((out, self.log.clone())),
            BodyStep::Yield(why) => BodyStep::Yield(why),
        }
    }

    fn save(&self, w: &mut dyn Wr) -> bool {
        self.body.save(w)
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        self.body.load(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cfg;
    use crate::{RandomWorkloadCfg, RandomWorkloadStep, ScfStep};
    use ckpt::{run_ckpt_world, run_ckpt_world_steps, CkptOptions};

    /// Under either protocol the witness counts the program's calls: the
    /// SCF loop's `iters` allreduce + bcast pairs on the world.
    #[test]
    fn witness_counts_each_call_once_under_either_protocol() {
        for protocol in [Protocol::Cc, Protocol::TwoPhase] {
            let run = run_ckpt_world(cfg(3), CkptOptions::native().with_protocol(protocol), |r| {
                r.run(&mut Logged::new(ScfStep::new(5, 4))).1
            });
            for (rank, log) in run.results().enumerate() {
                assert_eq!(log.rank, rank);
                let calls: Vec<u64> = log.calls().into_values().collect();
                assert_eq!(calls, [10], "{protocol:?}: one group, 5 x 2 calls");
                let seqs: Vec<u64> = log.events().map(|e| e.node.seq).collect();
                assert_eq!(seqs, (1..=10).collect::<Vec<_>>(), "program order");
                assert!(log.events().all(|e| *e.members == [0, 1, 2]));
            }
        }
    }

    /// Sub-communicators and non-blocking collectives on the step pool:
    /// every rank's groups are numbered from 1 without a gap, and the
    /// members of each group agree on its count.
    #[test]
    fn every_member_of_a_group_counts_it_alike() {
        let work = RandomWorkloadCfg::new(11, 30);
        let run = run_ckpt_world_steps(cfg(4).with_workers(2), CkptOptions::native(), |_| {
            Logged::new(RandomWorkloadStep::new(work.clone()))
        });
        let logs: Vec<&CallLog> = run.results().map(|(_, log)| log).collect();
        let mut by_group: HashMap<Ggid, Vec<u64>> = HashMap::new();
        for log in &logs {
            for (g, n) in log.calls() {
                let members = &log.members[&g];
                assert!(members.contains(&log.rank));
                by_group.entry(g).or_default().push(n);
                let seqs: Vec<u64> = (log.events())
                    .filter(|e| e.node.ggid == g)
                    .map(|e| e.node.seq)
                    .collect();
                assert_eq!(seqs, (1..=n).collect::<Vec<_>>());
            }
        }
        assert!(by_group.len() > 1, "the schedule splits the world");
        for (g, counts) in by_group {
            let members = logs.iter().find_map(|l| l.members.get(&g)).unwrap();
            assert_eq!(counts.len(), members.len(), "every member began on {g}");
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "{g}: {counts:?}");
        }
    }
}
