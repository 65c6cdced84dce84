//! The randomized safe-cut harness — the paper's correctness claim as a
//! property test.
//!
//! For many seeds and several world sizes, run a random workload (mixed
//! blocking/non-blocking collectives, communicator splits/dups, ring and
//! wildcard point-to-point), trigger a checkpoint at a seed-chosen random
//! point, and check every captured cut with `verify_safe_cut` — an oracle
//! *independent* of the drain implementation: it replays the execution log
//! against the two §4.2.2 safe-state conditions. Each cut is also checked
//! by the argument the paper itself makes: the run's collective DAG has a
//! topological order, and the cut is downward-closed in it. Restart runs
//! additionally assert bit-identical continuation against an
//! uninterrupted run.
//!
//! Two tiers:
//!
//! * the 2–8-rank tier runs on every `cargo test` (tier-1), many seeds per
//!   size;
//! * the **large-scale tier** ({64, 128, 256, 512, 1024, 2048, 4096}
//!   ranks, Perlmutter-style 128-ranks-per-node packing, fewer seeds and
//!   shorter schedules at the top sizes) exercises the batched
//!   cooperative scheduler and the lock-free collective rendezvous at —
//!   and well beyond — the paper's Figure 5a/7 operating points. It is
//!   release-only — debug builds would spend minutes per seed — and runs
//!   in CI as `cargo test --release -p bench -- large_scale --skip 4096`
//!   (the 4096-rank cases sit behind the same tier filter but are local-
//!   only: run `cargo test --release -p bench -- large_scale` to include
//!   them).

use ckpt::{run_ckpt_world, Checkpoint, CkptOptions, ResumeMode};
use mana_core::topo::{topological_sort, ExecEvent, Node};
use mana_core::{Cut, Protocol};
use mpisim::{NetParams, VTime, WorldConfig};
use std::collections::{BTreeMap, HashSet};
use workloads::{random_workload, RandomWorkloadCfg, SplitMix64};

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

/// The paper's §4.2.2 argument, executably. `log` is a run's execution
/// log: its nodes are the collectives `(ggid, seq)`, and every rank
/// contributes an edge from each collective it entered to the next one it
/// entered (the log lists a rank's events in program order, so filtering
/// by rank recovers it). The run must have *a* topological order — no two
/// ranks entered two collectives in opposite orders — and `cut` must be
/// downward-closed: a rank's participation in a node is in the cut only if
/// its participation in the node's predecessor is. That per-rank prefix
/// property is what `verify_safe_cut`'s set invariants cannot see.
fn check_cut_against_dag(log: &[ExecEvent], cut: &Cut) -> Result<(), String> {
    let mut paths: BTreeMap<usize, Vec<Node>> = BTreeMap::new();
    for e in log {
        paths.entry(e.rank).or_default().push(e.node);
    }
    let nodes: Vec<Node> = log
        .iter()
        .map(|e| e.node)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    let edges: Vec<(Node, Node)> = paths
        .values()
        .flat_map(|path| path.windows(2).map(|w| (w[0], w[1])))
        .collect();
    topological_sort(&nodes, &edges).ok_or("the execution DAG has a cycle")?;

    let in_log: HashSet<(usize, Node)> = log.iter().map(|e| (e.rank, e.node)).collect();
    let in_cut: HashSet<(usize, Node)> = cut.events().map(|e| (e.rank, e.node)).collect();
    if let Some(v) = in_cut.difference(&in_log).next() {
        return Err(format!("the cut holds {v:?}, which the run never logged"));
    }
    for (&rank, path) in &paths {
        for w in path.windows(2) {
            if in_cut.contains(&(rank, w[1])) && !in_cut.contains(&(rank, w[0])) {
                return Err(format!(
                    "rank {rank}: {:?} is inside the cut, its predecessor {:?} outside",
                    w[1], w[0]
                ));
            }
        }
    }
    Ok(())
}

/// One seed: native run for reference, then a checkpointed run with the
/// trigger at a random fraction of the native makespan. Returns the
/// checkpoint if one fired.
fn one_case(n: usize, seed: u64) -> Option<Checkpoint> {
    one_case_sized(cfg(n), seed, Protocol::Cc, STEPS)
}

fn one_case_proto(n: usize, seed: u64, protocol: Protocol) -> Option<Checkpoint> {
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
) -> Option<Checkpoint> {
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

    let paced = wl.clone().with_pace_us(20);
    let run = run_ckpt_world(
        cfg,
        CkptOptions::one_checkpoint(at, mode).with_protocol(protocol),
        |r| random_workload(&paced, r),
    );

    // Data must continue bit-identically whether or not (and however) a
    // checkpoint intervened.
    let got: Vec<f64> = run.results().copied().collect();
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
        check_cut_against_dag(&run.events, &ckpt.cut_events).unwrap_or_else(|why| {
            panic!("cut is no prefix of the execution DAG: n={n} seed={seed} mode={mode:?}: {why}")
        });
        assert!(
            ckpt.targets_exactly_reached(),
            "drain over/under-shot its targets: n={n} seed={seed}: \
             final={:?} achieved={:?}",
            ckpt.final_targets,
            ckpt.achieved
        );
        // The drain must reach at least the initial (Algorithm 1) targets.
        for (g, t) in &ckpt.initial_targets {
            assert!(
                ckpt.achieved.get(g).copied().unwrap_or(0) >= *t,
                "initial target unmet: n={n} seed={seed} group {g} target {t}"
            );
        }
        out = Some(ckpt);
    }
    out
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
    // The trigger races workload completion; a rare miss is tolerated but
    // the harness must exercise real checkpoints for nearly every seed.
    assert!(
        fired >= seeds * 9 / 10,
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
// Large-scale tier (release-only): the paper's operating points under the
// batched cooperative scheduler. Every seed must fire its checkpoint and
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

/// The oracle itself must still reject: corrupt a genuinely captured log
/// and check each corruption is caught.
#[test]
fn corrupted_cut_is_rejected() {
    // Find a seed whose checkpoint has a reasonably rich cut.
    let ckpt = (0..20)
        .find_map(|seed| one_case(4, seed).filter(|c| c.cut_events.len() >= 8))
        .expect("a checkpoint with a non-trivial cut");
    assert!(ckpt.verify().is_ok());

    // The cut, one participation at a time; `corrupt` rebuilds a cut from
    // an edited copy the way a log that recorded it would have.
    let events: Vec<ExecEvent> = ckpt.cut_events.events().collect();
    let corrupt = |edit: &dyn Fn(&mut Vec<ExecEvent>)| {
        let mut events = events.clone();
        edit(&mut events);
        let mut image = ckpt.clone();
        image.cut_events = Cut::from_events(&events);
        image
    };

    // Corruption 1: drop one participation — some node becomes partially
    // visited (or its rank's sequence gains a gap).
    let dropped = corrupt(&|evs| drop(evs.remove(evs.len() / 2)));
    assert!(
        dropped.verify().is_err(),
        "oracle accepted a cut with a missing participation"
    );

    // Corruption 2: forge an extra participation beyond the achieved
    // target for its group.
    let forged = corrupt(&|evs| {
        let mut extra = evs[0].clone();
        extra.node.seq = ckpt.achieved[&extra.node.ggid] + 5;
        evs.push(extra);
    });
    assert!(
        forged.verify().is_err(),
        "oracle accepted a forged beyond-target participation"
    );

    // Corruption 3: shift one event onto another rank — double visit on
    // one rank, missing visit on another.
    let shifted = corrupt(&|evs| evs[0].rank = (evs[0].rank + 1) % ckpt.n_ranks);
    assert!(
        shifted.verify().is_err(),
        "oracle accepted a cut with a misattributed participation"
    );

    // Corruption 4: remove one rank's last-but-one participation — the
    // rank then sits inside a collective whose predecessor it never
    // entered, which no rank prefix of the run can produce. The DAG check
    // rejects it against the intact cut's own events as the log (in which
    // the intact cut is trivially closed).
    assert_eq!(check_cut_against_dag(&events, &ckpt.cut_events), Ok(()));
    let rank = events[0].rank;
    let of_rank: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].rank == rank)
        .collect();
    let holed = corrupt(&|evs| drop(evs.remove(of_rank[of_rank.len() - 2])));
    assert!(
        check_cut_against_dag(&events, &holed.cut_events).is_err(),
        "DAG check accepted a cut that is not a prefix of rank {rank}'s path"
    );
}
