//! The run-form safe-cut oracle against the event-form one it replaced.
//!
//! `reference_verify` below is the body `mana_core::verify_safe_cut` had
//! while a cut was a list of events, verbatim: it rebuilds every node's
//! visitor set and every rank's sorted sequence list, in time and memory
//! proportional to the log. The oracle in the crate reads the same
//! evidence as runs and never looks at a sequence number twice. Over
//! seeded random logs — safe ones, and each broken seven ways — the two must
//! return the same `Ok`/`Err` and name the same *kinds* of violation.

use mana_core::{verify_safe_cut, Cut, ExecEvent, Ggid, Node, Violation};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The event-form oracle, kept as the reference.
fn reference_verify(
    events: &[ExecEvent],
    targets: Option<&HashMap<Ggid, u64>>,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    // node -> (visitors, members)
    let mut nodes: HashMap<Node, (Vec<usize>, Arc<[usize]>)> = HashMap::new();
    // (rank, ggid) -> max seq seen, for gap detection
    let mut per_rank_group: HashMap<(usize, Ggid), Vec<u64>> = HashMap::new();
    for e in events {
        let entry = nodes
            .entry(e.node)
            .or_insert_with(|| (Vec::new(), Arc::clone(&e.members)));
        entry.0.push(e.rank);
        per_rank_group
            .entry((e.rank, e.node.ggid))
            .or_default()
            .push(e.node.seq);
    }
    for (node, (mut visitors, members)) in nodes {
        visitors.sort_unstable();
        visitors.dedup();
        if visitors[..] != members[..] {
            violations.push(Violation::PartiallyVisited(
                node,
                visitors.clone(),
                members.to_vec(),
            ));
        }
        if let Some(t) = targets {
            let target = t.get(&node.ggid).copied().unwrap_or(0);
            if node.seq > target {
                for v in visitors {
                    violations.push(Violation::BeyondTarget(v, node, target));
                }
            }
        }
    }
    for ((rank, ggid), mut seqs) in per_rank_group {
        seqs.sort_unstable();
        let mut prev = 0u64;
        for s in seqs {
            if s != prev + 1 {
                violations.push(Violation::SequenceGap(rank, ggid, prev, s));
            }
            prev = s;
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A safe cut of a random program: 2–16 ranks, the world group plus 1–5
/// random (overlapping) subgroups, 8–40 collective calls each entered by
/// every member. Events are listed rank by rank, each rank's in program
/// order — what a run reports — or, for odd seeds, call by call in rank
/// order; either way a node's first-listed event is its lowest member's.
fn safe_log(rng: &mut SplitMix64, by_call: bool) -> (Vec<ExecEvent>, HashMap<Ggid, u64>) {
    let n = 2 + rng.below(15);
    let mut groups: Vec<Arc<[usize]>> = vec![(0..n).collect()];
    for _ in 0..1 + rng.below(5) {
        let members: BTreeSet<usize> = (0..1 + rng.below(n)).map(|_| rng.below(n)).collect();
        let members: Arc<[usize]> = members.into_iter().collect();
        if !groups.contains(&members) {
            groups.push(members);
        }
    }
    let mut achieved: HashMap<Ggid, u64> = HashMap::new();
    let mut calls: Vec<ExecEvent> = Vec::new();
    for _ in 0..8 + rng.below(33) {
        let g = rng.below(groups.len());
        let ggid = Ggid(100 + g as u64);
        let seq = achieved.entry(ggid).or_insert(0);
        *seq += 1;
        calls.extend(groups[g].iter().map(|&rank| ExecEvent {
            rank,
            node: Node { ggid, seq: *seq },
            members: Arc::clone(&groups[g]),
        }));
    }
    if !by_call {
        calls.sort_by_key(|e| e.rank); // stable: program order survives
    }
    (calls, achieved)
}

const MUTATIONS: [&str; 7] = [
    "drop",
    "duplicate",
    "forge-extra",
    "shift-seq",
    "wrong-members",
    "visitor-outside-group",
    "ragged-prefix",
];

/// Breaks `log` one way. `None` when this log has nowhere to apply the
/// mutation (e.g. no group with a non-member).
fn mutate(
    what: &str,
    log: &[ExecEvent],
    achieved: &HashMap<Ggid, u64>,
    rng: &mut SplitMix64,
) -> Option<Vec<ExecEvent>> {
    let mut out = log.to_vec();
    let at = rng.below(log.len());
    let n_ranks = 1 + log.iter().map(|e| e.rank).max().unwrap();
    match what {
        "drop" => {
            out.remove(at);
        }
        "duplicate" => {
            let to = rng.below(log.len() + 1);
            out.insert(to, log[at].clone());
        }
        "forge-extra" => {
            let mut e = log[at].clone();
            e.node.seq = achieved[&e.node.ggid] + 1 + rng.below(5) as u64;
            out.push(e);
        }
        "shift-seq" => out[at].node.seq += 1 + rng.below(3) as u64,
        "wrong-members" => {
            // The event form reads a node's member list off its
            // first-listed event only, so the wrong list goes where both
            // forms look: on every event of the group's lowest rank.
            let (ggid, lowest) = (log[at].node.ggid, log[at].members[0]);
            let mut wrong = log[at].members.to_vec();
            if wrong.len() > 1 && rng.below(2) == 0 {
                wrong.pop();
            } else {
                wrong.push(n_ranks + 1);
            }
            let wrong: Arc<[usize]> = wrong.into();
            for e in out.iter_mut().filter(|e| e.node.ggid == ggid) {
                if e.rank == lowest {
                    e.members = Arc::clone(&wrong);
                }
            }
        }
        "visitor-outside-group" => {
            let outsider = (0..n_ranks).find(|r| !log[at].members.contains(r))?;
            out.push(ExecEvent {
                rank: outsider,
                ..log[at].clone()
            });
        }
        "ragged-prefix" => {
            // One rank stops early: everything it did after `at` is gone.
            let rank = log[at].rank;
            let kept = (log.iter().enumerate()).filter(|(i, e)| e.rank != rank || *i < at);
            out = kept.map(|(_, e)| e.clone()).collect();
        }
        other => unreachable!("unknown mutation {other}"),
    }
    Some(out)
}

fn kinds(v: &Result<(), Vec<Violation>>) -> BTreeSet<&'static str> {
    let of = |v: &Violation| match v {
        Violation::PartiallyVisited(..) => "PartiallyVisited",
        Violation::BeyondTarget(..) => "BeyondTarget",
        Violation::SequenceGap(..) => "SequenceGap",
    };
    v.as_ref().err().into_iter().flatten().map(of).collect()
}

#[test]
fn run_form_oracle_agrees_with_the_event_form_reference() {
    let mut rejected = [0usize; MUTATIONS.len()];
    for seed in 0..600u64 {
        let mut rng = SplitMix64(seed);
        let (log, achieved) = safe_log(&mut rng, seed % 2 == 1);
        // Every third log is checked for full visitation only.
        let targets = (seed % 3 != 0).then_some(&achieved);
        let agree = |events: &[ExecEvent], what: &str| {
            let want = reference_verify(events, targets);
            let got = verify_safe_cut(&Cut::from_events(events), targets);
            assert_eq!(
                (got.is_ok(), kinds(&got)),
                (want.is_ok(), kinds(&want)),
                "seed {seed}, {what}:\n run form {got:?}\n event form {want:?}"
            );
            got.is_err()
        };
        assert!(!agree(&log, "the safe log"), "seed {seed}: a safe log");
        for (m, what) in MUTATIONS.iter().enumerate() {
            if let Some(broken) = mutate(what, &log, &achieved, &mut rng) {
                rejected[m] += agree(&broken, what) as usize;
            }
        }
    }
    // Every mutation bites on most logs (dropping the last call of a
    // one-rank group, say, leaves a smaller safe cut).
    for (what, n) in MUTATIONS.iter().zip(rejected) {
        assert!(n >= 300, "{what} was rejected on only {n} of 600 logs");
    }
}

/// Where the run form is *stricter*: it holds every rank's claim about a
/// group's members against the others', the event form only the claim of
/// whoever is listed first.
#[test]
fn a_wrong_member_list_on_any_rank_is_refused() {
    let members: Arc<[usize]> = vec![0, 1, 2].into();
    let mut log: Vec<ExecEvent> = (0..3)
        .map(|rank| ExecEvent {
            rank,
            node: Node {
                ggid: Ggid(1),
                seq: 1,
            },
            members: Arc::clone(&members),
        })
        .collect();
    log[2].members = vec![0, 1, 2, 3].into();
    assert!(reference_verify(&log, None).is_ok());
    let err = verify_safe_cut(&Cut::from_events(&log), None).unwrap_err();
    assert!(matches!(err[..], [Violation::PartiallyVisited(..)]));
}
