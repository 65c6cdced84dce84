//! Worker invariance: virtual time must not learn which worker ran a
//! rank. The step pool homes contiguous rank blocks on its workers, steals
//! across them and completes a collective node by node; none of that may
//! reach a result or a clock. Each world here runs without a checkpoint on
//! 1, 2, 3 and 4 workers and must give bit-identical per-rank results and
//! virtual makespan every time, with no backstop expiry (a wake lost
//! between homes, or a node never woken, would show as one).

use ckpt::{run_ckpt_world_steps, CkptOptions, CkptRunReport, StepBody};
use mana_core::Protocol;
use mpisim::{NetParams, WorldConfig};
use workloads::{RandomWorkloadCfg, RandomWorkloadStep, ScfStep};

const WORKERS: [usize; 4] = [1, 2, 3, 4];

/// `n` ranks on nodes of `rpn`, on `workers` pool threads.
fn cfg(n: usize, rpn: usize, workers: usize) -> WorldConfig {
    WorldConfig::multi_node(n, rpn)
        .with_params(NetParams::slingshot11().without_jitter())
        .with_workers(workers)
}

/// Per-rank result bits and the makespan's bits of one run, which must
/// have paid no backstop expiry.
fn outcome(run: CkptRunReport<f64>, what: &str) -> (Vec<u64>, u64) {
    assert_eq!(run.backstop_expiries, 0, "{what}: a wake was lost");
    let bits = run.results().map(|x| x.to_bits()).collect();
    (bits, run.makespan.as_secs().to_bits())
}

/// Runs `make`'s world at every worker count and asserts all agree.
fn invariant<B: StepBody<Out = f64>>(
    n: usize,
    rpn: usize,
    what: &str,
    make: impl Fn(usize) -> B + Clone + Send + Sync,
) {
    let runs: Vec<(Vec<u64>, u64)> = WORKERS
        .iter()
        .map(|&w| {
            let opts = CkptOptions::native().with_protocol(Protocol::Cc);
            let run = run_ckpt_world_steps(cfg(n, rpn, w), opts, make.clone());
            outcome(run, &format!("{what} W={w}"))
        })
        .collect();
    for (w, run) in WORKERS.iter().zip(&runs).skip(1) {
        assert_eq!(
            run.0, runs[0].0,
            "{what}: results on {w} workers differ from 1"
        );
        assert_eq!(
            run.1, runs[0].1,
            "{what}: makespan on {w} workers differs from 1"
        );
    }
}

#[test]
fn scf_world_is_worker_invariant() {
    // 512 ranks on 4 nodes: every collective completes node by node.
    invariant(512, 128, "512-rank ScfStep", |_| ScfStep::new(12, 64));
}

#[test]
fn random_cc_world_is_worker_invariant() {
    // Point-to-point, splits and non-blocking collectives on 4 nodes.
    for seed in [3, 11] {
        let wl = RandomWorkloadCfg::new(seed, 25);
        invariant(64, 16, &format!("64-rank random seed {seed}"), move |_| {
            RandomWorkloadStep::new(wl.clone())
        });
    }
}
