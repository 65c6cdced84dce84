//! Figure 3b's cascade, pinned ([`workloads::Cascade`], whose module doc
//! walks through it): a rank owes a collective on one group behind a
//! collective on another, so draining to the first group's target carries
//! it past the second's, and that raise must reach the second group's
//! other member before the cut is taken.

use ckpt::{run_ckpt_world, run_ckpt_world_steps, CkptOptions, CkptRunReport, ResumeMode};
use mana_core::{ggid_of_sorted, DrainEvent};
use mpisim::{NetParams, VTime, WorldConfig};
use workloads::Cascade;

fn cfg() -> WorldConfig {
    WorldConfig::single_node(3).with_params(NetParams::slingshot11().without_jitter())
}

/// The program on the pool (`steps`) or on a thread per rank.
fn run(steps: bool, opts: CkptOptions) -> CkptRunReport<f64> {
    match steps {
        true => run_ckpt_world_steps(cfg(), opts, Cascade::new),
        false => run_ckpt_world(cfg(), opts, |r| r.run(&mut Cascade::new(r.rank()))),
    }
}

#[test]
fn figure3b_cascade_raises_the_other_groups_target_under_both_drivers() {
    let g2 = ggid_of_sorted(&Cascade::GROUPS[1]);
    for steps in [true, false] {
        let native = run(steps, CkptOptions::native());
        let native: Vec<f64> = native.results().copied().collect();
        let at = VTime::from_secs(Cascade::TRIGGER_S);
        let run = run(steps, CkptOptions::one_checkpoint(at, ResumeMode::Continue));
        let driver = if steps { "pool" } else { "threads" };
        assert!(run.failures.is_empty(), "{driver}: {:?}", run.failures);
        assert_eq!(run.checkpoints.len(), 1, "{driver}: the checkpoint fired");
        let c = &run.checkpoints[0];
        assert!(
            c.final_targets[&g2] > c.initial_targets[&g2],
            "{driver}: TARGET[G2] not raised: initial {:?} final {:?}",
            c.initial_targets,
            c.final_targets
        );
        let raised = run
            .trace
            .count(|e| matches!(e, DrainEvent::TargetRaised(..)));
        assert!(raised >= 1, "{driver}: no TargetRaised in the trace");
        assert!(
            c.targets_exactly_reached(),
            "{driver}: drain over/under-shot: final {:?} achieved {:?}",
            c.final_targets,
            c.achieved()
        );
        c.verify().expect("safe cut");
        let got: Vec<f64> = run.results().copied().collect();
        assert_eq!(got, native, "{driver}: results differ from the native run");
        assert_eq!(run.backstop_expiries, 0, "{driver}: event-driven waits");
    }
}
