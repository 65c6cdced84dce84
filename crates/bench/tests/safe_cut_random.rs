//! The randomized safe-cut harness — the paper's correctness claim as a
//! property test.
//!
//! For many seeds and several world sizes, run a random workload (mixed
//! blocking/non-blocking collectives, communicator splits/dups, ring and
//! wildcard point-to-point), trigger a checkpoint at a seed-chosen random
//! point, and check every captured cut with `verify_safe_cut` — an oracle
//! *independent* of the drain implementation: it judges the cut against
//! the two §4.2.2 safe-state conditions. Each cut is also checked by the
//! argument the paper itself makes, against a witness that does not take
//! the wrapper's word for what ran (`workloads::Logged`: each rank's
//! collectives as its lower half began them): the run's collective DAG
//! has a topological order, and the cut is a prefix of every rank's path
//! in it. Restart runs additionally assert bit-identical continuation
//! against an uninterrupted run.
//!
//! Two tiers:
//!
//! * the 2–8-rank tier runs on every `cargo test` (tier-1), many seeds per
//!   size;
//! * the **large-scale tier** ({64, 128, 256, 512, 1024, 2048, 4096}
//!   ranks, Perlmutter-style 128-ranks-per-node packing, fewer seeds and
//!   shorter schedules at the top sizes) exercises thousands of rank
//!   threads and the lock-free collective rendezvous at —
//!   and well beyond — the paper's Figure 5a/7 operating points. It is
//!   release-only — debug builds would spend minutes per seed — and runs
//!   in CI as `cargo test --release -p bench -- large_scale --skip 4096`
//!   (the 4096-rank cases sit behind the same tier filter but are local-
//!   only: run `cargo test --release -p bench -- large_scale` to include
//!   them).

use ckpt::{run_ckpt_world, Checkpoint, CkptOptions, ResumeMode};
use mana_core::topo::{topological_sort, Node};
use mana_core::{Cut, Ggid, Protocol};
use mpisim::{NetParams, VTime, WorldConfig};
use std::collections::{BTreeMap, HashMap, HashSet};
use workloads::{
    random_workload, CallLog, Logged, RandomWorkloadCfg, RandomWorkloadStep, SplitMix64,
};

const SEEDS_PER_SIZE: u64 = 50;
const SEEDS_PER_SIZE_2PC: u64 = 15;
const STEPS: usize = 25;
/// Shorter random schedules for the ≥1024-rank worlds: per-step work
/// grows with the rank count (wider collectives, longer rings), so the
/// step count shrinks to keep a seed's wall time bounded on a 2-worker
/// host while still crossing enough collective/p2p mixture for the
/// trigger to land mid-flight.
const XL_STEPS: usize = 10;

fn cfg(n: usize) -> WorldConfig {
    WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
}

/// Large-scale tier worlds use the paper's Perlmutter packing: 128 ranks
/// per node, so 512 ranks span 4 nodes and inter-node costs participate.
fn large_cfg(n: usize) -> WorldConfig {
    WorldConfig::multi_node(n, 128).with_params(NetParams::slingshot11().without_jitter())
}

/// The paper's §4.2.2 argument, executably. `logs` are the ranks'
/// witnessed paths ([`CallLog`]: the collectives each rank's lower half
/// began, step by step in program order). The nodes are the collectives
/// `(ggid, seq)`; every rank contributes an edge from each collective it
/// began to each one it began in its next step that began any, and along
/// a group's own sequence inside a step (nothing orders two groups inside
/// one step). The run must have *a* topological order — no two ranks
/// entered two collectives in opposite orders — and `cut` must be, for
/// every rank, exactly a prefix of its path: what it had begun at the end
/// of one of its steps, where a capture parks it. That per-rank prefix
/// property is what `verify_safe_cut`'s set invariants cannot see.
fn check_cut_against_dag(logs: &[CallLog], cut: &Cut) -> Result<(), String> {
    let mut nodes: HashSet<Node> = HashSet::new();
    let mut edges: Vec<(Node, Node)> = Vec::new();
    for log in logs {
        let mut prev: &[Node] = &[];
        for step in &log.steps {
            nodes.extend(step);
            edges.extend(prev.iter().flat_map(|&a| step.iter().map(move |&b| (a, b))));
            let same_group = step.windows(2).filter(|w| w[0].ggid == w[1].ggid);
            edges.extend(same_group.map(|w| (w[0], w[1])));
            prev = step;
        }
    }
    let nodes: Vec<Node> = nodes.into_iter().collect();
    topological_sort(&nodes, &edges).ok_or("the execution DAG has a cycle")?;

    let in_log: HashSet<(usize, Node)> = (logs.iter())
        .flat_map(|log| log.steps.iter().flatten().map(|&n| (log.rank, n)))
        .collect();
    let mut in_cut: BTreeMap<usize, HashSet<Node>> = BTreeMap::new();
    for e in cut.events() {
        if !in_log.contains(&(e.rank, e.node)) {
            return Err(format!(
                "the cut holds {:?}, which the run never logged",
                (e.rank, e.node)
            ));
        }
        in_cut.entry(e.rank).or_default().insert(e.node);
    }
    for log in logs {
        let inside = in_cut.remove(&log.rank).unwrap_or_default();
        let mut steps = log.steps.iter();
        let mut prefix = 0;
        while prefix < inside.len() {
            let step = steps.next().expect("every node of the cut was logged");
            if let Some(n) = step.iter().find(|n| !inside.contains(n)) {
                return Err(format!(
                    "rank {}: {n:?} is outside the cut, though the cut holds a \
                     collective the rank began no earlier",
                    log.rank
                ));
            }
            prefix += step.len();
        }
    }
    Ok(())
}

/// One seed: native run for reference, then a checkpointed run with the
/// trigger at a random fraction of the native makespan. Returns the
/// checkpoint if one fired, with the checkpointed run's witness.
fn one_case(n: usize, seed: u64) -> Option<(Checkpoint, Vec<CallLog>)> {
    one_case_sized(cfg(n), seed, Protocol::Cc, STEPS)
}

fn one_case_proto(n: usize, seed: u64, protocol: Protocol) -> Option<(Checkpoint, Vec<CallLog>)> {
    one_case_sized(cfg(n), seed, protocol, STEPS)
}

/// The shared seed driver, parameterized over the world configuration and
/// the coordination protocol. 2PC runs use the blocking-only schedule (it
/// refuses non-blocking collectives) and compare against a 2PC run without
/// checkpoints, so the only difference is the checkpoint itself.
fn one_case_sized(
    cfg: WorldConfig,
    seed: u64,
    protocol: Protocol,
    steps: usize,
) -> Option<(Checkpoint, Vec<CallLog>)> {
    let n = cfg.n_ranks;
    let mut wl = RandomWorkloadCfg::new(seed, steps);
    if protocol == Protocol::TwoPhase {
        wl = wl.with_blocking_only();
    }
    let native = run_ckpt_world(
        cfg.clone(),
        CkptOptions::native().with_protocol(protocol),
        |r| random_workload(&wl, r),
    );
    let native_results: Vec<f64> = native.results().copied().collect();

    let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00);
    let frac = 0.15 + 0.6 * rng.next_f64();
    let at = VTime::from_secs(native.makespan.as_secs() * frac);
    let mode = if seed.is_multiple_of(2) {
        ResumeMode::Restart
    } else {
        ResumeMode::Continue
    };

    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, mode).with_protocol(protocol),
        |r| r.run(&mut Logged::new(RandomWorkloadStep::new(wl.clone()))),
    );

    // Data must continue bit-identically whether or not (and however) a
    // checkpoint intervened.
    let got: Vec<f64> = run.results().map(|(v, _)| *v).collect();
    let logs: Vec<CallLog> = run.results().map(|(_, log)| log.clone()).collect();
    assert_eq!(
        got, native_results,
        "divergent continuation: n={n} seed={seed} mode={mode:?} proto={protocol:?}"
    );
    assert!(
        run.failures.is_empty(),
        "n={n} seed={seed}: {:?}",
        run.failures
    );

    let mut out = None;
    for ckpt in run.checkpoints {
        ckpt.verify().unwrap_or_else(|v| {
            panic!("safe-cut violated: n={n} seed={seed} mode={mode:?}: {v:?}")
        });
        check_cut_against_dag(&logs, &ckpt.cut()).unwrap_or_else(|why| {
            panic!("cut is no prefix of the execution DAG: n={n} seed={seed} mode={mode:?}: {why}")
        });
        let achieved = ckpt.achieved();
        assert!(
            ckpt.targets_exactly_reached(),
            "drain over/under-shot its targets: n={n} seed={seed}: \
             final={:?} achieved={achieved:?}",
            ckpt.final_targets,
        );
        // The drain must reach at least the initial (Algorithm 1) targets.
        for (g, t) in &ckpt.initial_targets {
            assert!(
                achieved.get(g).copied().unwrap_or(0) >= *t,
                "initial target unmet: n={n} seed={seed} group {g} target {t}"
            );
        }
        out = Some(ckpt);
    }
    out.map(|ckpt| (ckpt, logs))
}

fn sweep(n: usize) {
    sweep_proto(n, Protocol::Cc, SEEDS_PER_SIZE);
}

fn sweep_proto(n: usize, protocol: Protocol, seeds: u64) {
    let mut fired = 0u64;
    for seed in 0..seeds {
        if one_case_proto(n, seed, protocol).is_some() {
            fired += 1;
        }
    }
    // The rank whose crossing completes the trigger raises the request
    // inside its own wrapper call, so no run can finish first: every seed
    // takes its checkpoint.
    assert!(
        fired == seeds,
        "only {fired}/{seeds} checkpoints fired at n={n} under {protocol:?}"
    );
}

#[test]
fn safe_cut_random_2_ranks() {
    sweep(2);
}

#[test]
fn safe_cut_random_4_ranks() {
    sweep(4);
}

#[test]
fn safe_cut_random_8_ranks() {
    sweep(8);
}

// The same property holds for the 2PC stop-the-world cut: the oracle
// accepts every captured 2PC cut and continuation stays bit-identical
// (blocking-only schedules — 2PC refuses non-blocking collectives).

#[test]
fn safe_cut_random_2pc_2_ranks() {
    sweep_proto(2, Protocol::TwoPhase, SEEDS_PER_SIZE_2PC);
}

#[test]
fn safe_cut_random_2pc_4_ranks() {
    sweep_proto(4, Protocol::TwoPhase, SEEDS_PER_SIZE_2PC);
}

#[test]
fn safe_cut_random_2pc_8_ranks() {
    sweep_proto(8, Protocol::TwoPhase, SEEDS_PER_SIZE_2PC);
}

// ---------------------------------------------------------------------
// Large-scale tier (release-only): the paper's operating points on rank
// threads. Every seed must fire its checkpoint and
// pass the full oracle + bit-identical-continuation battery; even seeds
// restart (fresh lower half at 512 ranks), odd seeds continue.
// ---------------------------------------------------------------------

fn large_sweep(n: usize, seeds: u64) {
    large_sweep_steps(n, seeds, STEPS);
}

fn large_sweep_steps(n: usize, seeds: u64, steps: usize) {
    let mut fired = 0u64;
    for seed in 0..seeds {
        if one_case_sized(large_cfg(n), seed, Protocol::Cc, steps).is_some() {
            fired += 1;
        }
    }
    assert!(
        fired == seeds,
        "only {fired}/{seeds} checkpoints fired at n={n} (large-scale tier)"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_safe_cut_64_ranks() {
    large_sweep(64, 4);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_safe_cut_128_ranks() {
    large_sweep(128, 3);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_safe_cut_256_ranks() {
    large_sweep(256, 2);
}

/// A 512-rank world runs checkpoint + restart (seed 0) and checkpoint +
/// continue (seed 1) end-to-end under the batched scheduler, with
/// `verify_safe_cut` passing and bit-identical continuation against the
/// uninterrupted run.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_safe_cut_512_ranks() {
    large_sweep(512, 2);
}

// Beyond the paper's 512: the scales the small rank stacks + lock-free
// rendezvous unlock. Shorter random schedules (XL_STEPS) keep per-seed
// wall time bounded; seed 0 restarts (fresh lower half), seed 1 continues,
// so both resume modes run end-to-end at every size.

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_safe_cut_1024_ranks() {
    large_sweep_steps(1024, 2, XL_STEPS);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_safe_cut_2048_ranks() {
    large_sweep_steps(2048, 2, XL_STEPS);
}

/// The acceptance-criterion case: a 4096-rank world runs checkpoint +
/// restart (seed 0) and checkpoint + continue (seed 1) end-to-end —
/// bit-identical continuation, the independent safe-cut oracle, and exact
/// target attainment. Behind the same `large_scale` tier filter as the
/// rest, but skipped by the CI job (`--skip 4096`): at CI's 2-worker
/// hosts this case alone is several minutes of wall time.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-scale tier is release-only: cargo test --release -p bench -- large_scale"
)]
fn large_scale_xl_safe_cut_4096_ranks() {
    large_sweep_steps(4096, 2, XL_STEPS);
}

/// `ckpt` with each `(rank, group, by)` of `moves` applied to the rank's
/// `SEQ[group]` — the tables a restore installs — and its cut re-derived.
fn moved(ckpt: &Checkpoint, moves: &[(usize, Ggid, i64)]) -> Checkpoint {
    let mut image = ckpt.clone();
    for &(rank, g, by) in moves {
        let table = &mut image.captures[rank].seq_table;
        let members = table.members_shared(g).cloned().expect("a held group");
        let seq = table.seq(g).checked_add_signed(by).expect("a SEQ in range");
        table.restore(g, seq, members);
    }
    image
}

/// `rank`'s last collective inside `cut`, per group.
fn last_inside(cut: &Cut, rank: usize) -> HashMap<Ggid, u64> {
    (cut.runs().iter())
        .filter(|r| r.rank == rank)
        .map(|r| (r.ggid, r.last))
        .collect()
}

/// How many of `log`'s steps lie inside `cut` — the prefix of the rank's
/// path the cut ends on.
fn steps_inside(log: &CallLog, cut: &Cut) -> usize {
    let last = last_inside(cut, log.rank);
    let inside = |n: &Node| last.get(&n.ggid).is_some_and(|&l| n.seq <= l);
    (log.steps.iter())
        .take_while(|step| step.iter().all(inside))
        .count()
}

/// The oracle itself must still reject: corrupt a genuinely captured cut
/// — the ranks' `SEQ[]` tables — and check each corruption is caught.
#[test]
fn corrupted_cut_is_rejected() {
    // Find a seed whose checkpoint has a reasonably rich cut, and a rank
    // whose last participation on some group inside it came a step before
    // the cut's end.
    let holeable = |(ckpt, logs): &(Checkpoint, Vec<CallLog>)| {
        let cut = ckpt.cut();
        if cut.len() < 8 {
            return None;
        }
        logs.iter().find_map(|log| {
            let last = last_inside(&cut, log.rank);
            let before_end = steps_inside(log, &cut).checked_sub(1)?;
            (log.steps[..before_end].iter().flatten())
                .find(|n| last.get(&n.ggid) == Some(&n.seq))
                .map(|n| (log.rank, n.ggid))
        })
    };
    let (ckpt, logs, (rank, group)) = (0..20)
        .filter_map(|seed| one_case(4, seed))
        .find_map(|c| holeable(&c).map(|h| (c.0, c.1, h)))
        .expect("a checkpoint with a non-trivial cut");
    assert!(ckpt.verify().is_ok());
    let cut = ckpt.cut();
    // A visited group of two or more members, and two of its members.
    let run = (cut.runs().iter())
        .find(|r| r.members.len() > 1)
        .expect("a multi-member group in the cut");
    let (g, a, b) = (run.ggid, run.members[0], run.members[1]);

    // Corruption 1: take one participation back — the node becomes
    // partially visited.
    let dropped = moved(&ckpt, &[(a, g, -1)]);
    assert!(
        dropped.verify().is_err(),
        "oracle accepted a cut with a missing participation"
    );

    // Corruption 2: forge participations beyond the final target on every
    // member — a consistent cut, but not the one the drain ran to.
    let members: Vec<_> = run.members.iter().map(|&m| (m, g, 5)).collect();
    let forged = moved(&ckpt, &members);
    assert!(
        forged.verify().is_err(),
        "oracle accepted a forged beyond-target participation"
    );

    // Corruption 3: shift one participation onto another member — double
    // visit on one rank, missing visit on another.
    let shifted = moved(&ckpt, &[(a, g, -1), (b, g, 1)]);
    assert!(
        shifted.verify().is_err(),
        "oracle accepted a cut with a misattributed participation"
    );

    // Corruption 4: take back a rank's last participation on a group
    // whose last collective inside the cut the rank entered before the
    // cut's end — the rank then sits past a collective whose predecessor
    // it never entered, which no rank prefix of the run can produce. The
    // DAG check rejects it against the run's witness.
    assert_eq!(check_cut_against_dag(&logs, &cut), Ok(()));
    let holed = moved(&ckpt, &[(rank, group, -1)]);
    let why = check_cut_against_dag(&logs, &holed.cut()).unwrap_err();
    assert!(why.contains("outside the cut"), "rank {rank}'s path: {why}");
}

/// The witness catches a cut that is no prefix of a rank's path when the
/// path says so: fed a record in which a rank began the last step inside
/// the genuine cut together with its next step, the cut splits one step
/// and is refused — no edge is added, so the refusal is the prefix's.
#[test]
fn a_witness_that_splits_the_cut_inside_a_step_refuses_it() {
    // A checkpoint with a rank that has steps on both sides of its cut.
    let split = |(ckpt, logs): (Checkpoint, Vec<CallLog>)| {
        let cut = ckpt.cut();
        let (r, k) = (logs.iter().enumerate())
            .map(|(r, log)| (r, steps_inside(log, &cut)))
            .find(|&(r, k)| k > 0 && k < logs[r].steps.len())?;
        Some((cut, logs, r, k))
    };
    let (cut, logs, r, k) = (0..20)
        .filter_map(|seed| one_case(4, seed))
        .find_map(split)
        .expect("a rank with steps on both sides of the cut");
    assert_eq!(check_cut_against_dag(&logs, &cut), Ok(()));
    let mut merged = logs.clone();
    let next = merged[r].steps.remove(k);
    merged[r].steps[k - 1].extend(next);
    merged[r].steps[k - 1].sort_unstable();
    let why = check_cut_against_dag(&merged, &cut).unwrap_err();
    assert!(why.contains("outside the cut"), "rank {r}: {why}");
}
