//! A restore resumes from the image: each rank's body comes back from its
//! snapshot and the wrapper from its capture, so only the run's suffix
//! executes. The check is by count, not by wall time, against a witness
//! that does not take the wrapper's word for what ran
//! (`workloads::Logged`: the collectives each rank's lower half began):
//! for every rank and group, what the restored run began added to the
//! image's `SEQ[g]` is exactly what the native run began — so no
//! collective at or below the image's `SEQ[]` runs again, and the image
//! and the suffix account for every collective of the native run.

use ckpt::wire::{Dec, DecodeError, Wr};
use ckpt::{
    restore_ckpt_world_steps, run_ckpt_world_steps, BodyStep, CcRank, Checkpoint, CkptOptions,
    CkptRunReport, EveryNCollectives, RestoreConfig, ResumeMode, StepBody, StepPoll,
    VirtualTimeSchedule,
};
use mana_core::{Ggid, Node, Protocol, RankState, VComm};
use mpisim::{NetParams, ReduceOp, VTime, WorldConfig};
use std::collections::BTreeSet;
use workloads::{CallLog, Logged, RandomWorkloadCfg, RandomWorkloadStep};

fn cfg(n: usize) -> WorldConfig {
    WorldConfig::single_node(n).with_params(NetParams::slingshot11().without_jitter())
}

/// Each rank's witness, from a run of [`Logged`] bodies.
fn logs<R>(run: &CkptRunReport<(R, CallLog)>) -> Vec<CallLog> {
    run.results().map(|(_, log)| log.clone()).collect()
}

/// Whether the restored run began exactly the suffix of `native` past
/// `image`'s cut: for every rank and group, the collectives its lower
/// half began after the restore plus the image's `SEQ[g]` are the native
/// run's. One collective at or below `SEQ[g]` run again would count once
/// too often.
fn suffix_only(image: &Checkpoint, restored: &[CallLog], native: &[CallLog]) -> Result<(), String> {
    for (rank, (after, whole)) in restored.iter().zip(native).enumerate() {
        let table = &image.captures[rank].seq_table;
        let (after, whole) = (after.calls(), whole.calls());
        let groups: BTreeSet<Ggid> = (table.iter().map(|(&g, _)| g))
            .chain(after.keys().copied())
            .chain(whole.keys().copied())
            .collect();
        for g in groups {
            let (at_cut, ran) = (table.seq(g), after.get(&g).copied().unwrap_or(0));
            let native = whole.get(&g).copied().unwrap_or(0);
            if at_cut + ran != native {
                return Err(format!(
                    "rank {rank}, group {g}: SEQ {at_cut} in the image + {ran} restored \
                     != {native} native"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn restore_from_the_first_and_the_sixth_generation_runs_only_the_suffix() {
    let work = RandomWorkloadCfg::new(193, 200);
    let body = |_| Logged::new(RandomWorkloadStep::new(work.clone()));
    let native = run_ckpt_world_steps(
        cfg(16),
        CkptOptions::native().with_protocol(Protocol::Cc),
        body,
    );
    let native_results: Vec<f64> = native.results().map(|(v, _)| *v).collect();
    let run = run_ckpt_world_steps(
        cfg(16).with_workers(2),
        CkptOptions::native()
            .with_protocol(Protocol::Cc)
            .with_policy(EveryNCollectives::new(15, 6))
            .with_resume(ResumeMode::Continue),
        |_| RandomWorkloadStep::new(work.clone()),
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert_eq!(run.checkpoints.len(), 6, "six generations must commit");
    let (first, sixth) = (&run.checkpoints[0], &run.checkpoints[5]);
    let mut suffixes = Vec::new();
    for image in [first, sixth] {
        let image = Checkpoint::from_bytes(&image.to_bytes()).expect("round trip");
        let restored = restore_ckpt_world_steps(&image, RestoreConfig::same_packing(), body);
        assert_eq!(
            restored.results().map(|(v, _)| *v).collect::<Vec<_>>(),
            native_results,
            "restore diverged from native"
        );
        assert_eq!(restored.final_counters, native.final_counters);
        let after = logs(&restored);
        suffix_only(&image, &after, &logs(&native)).unwrap();
        suffixes.push(after.iter().map(CallLog::len).sum::<usize>());
    }
    assert!(
        suffixes[1] < suffixes[0],
        "a later image leaves less to run: {suffixes:?}"
    );
}

/// Resolves a poll inside `step`, yielding on `Pending`.
macro_rules! ready {
    ($poll:expr) => {
        match $poll {
            StepPoll::Ready(v) => v,
            StepPoll::Pending(why) => return BodyStep::Yield(why),
        }
    };
}

/// `drain_adversarial`'s finished-ranks program as a step body: every
/// rank allreduces on the world and splits it (rank 0 with a negative
/// colour), then rank 0 computes and finishes while ranks 1-2 run 40
/// allreduces on their subcommunicator.
struct FinishEarly {
    pc: u8,
    sub: Option<VComm>,
    it: usize,
    acc: f64,
}

impl FinishEarly {
    fn new() -> FinishEarly {
        FinishEarly {
            pc: 0,
            sub: None,
            it: 0,
            acc: 0.0,
        }
    }
}

impl StepBody for FinishEarly {
    type Out = f64;

    fn step(&mut self, r: &mut CcRank) -> BodyStep<f64> {
        let (world, me) = (r.world_vcomm(), r.rank());
        loop {
            match self.pc {
                0 => {
                    ready!(r.poll_allreduce_f64(world, &[1.0], ReduceOp::Sum));
                    self.pc = 1;
                }
                1 => {
                    let color = if me == 0 { -1 } else { 1 };
                    self.sub = ready!(r.poll_comm_split(world, color, me as i64));
                    self.pc = if me == 0 { 2 } else { 3 };
                }
                2 => {
                    r.compute(40e-6);
                    self.pc = 5;
                }
                3 if self.it == 40 => self.pc = 5,
                3 => {
                    r.compute(2e-6);
                    self.pc = 4;
                }
                4 => {
                    let sub = self.sub.expect("ranks 1-2 are members");
                    self.acc =
                        ready!(r.poll_allreduce_f64(sub, &[self.acc + 1.0], ReduceOp::Sum))[0];
                    self.it += 1;
                    self.pc = 3;
                }
                _ => return BodyStep::Done(self.acc),
            }
        }
    }

    fn save(&self, w: &mut dyn Wr) -> bool {
        w.u8(self.pc);
        w.var(self.sub.map_or(0, |v| v.0 + 1));
        w.usize(self.it);
        w.f64(self.acc);
        true
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        self.pc = d.u8("pc")?;
        self.sub = d.var("subcommunicator")?.checked_sub(1).map(VComm);
        self.it = d.usize("iteration")?;
        self.acc = d.f64("accumulator")?;
        Ok(())
    }
}

/// A rank captured finished restores as its finished body: it returns
/// its result without an MPI call — its counters stay the image's and
/// the restored log holds nothing of it — while the others run on.
#[test]
fn a_rank_captured_finished_returns_its_result_without_an_mpi_call() {
    let body = |_| Logged::new(FinishEarly::new());
    let native = run_ckpt_world_steps(cfg(3), CkptOptions::native(), body);
    let native_results: Vec<f64> = native.results().map(|(v, _)| *v).collect();
    let run = run_ckpt_world_steps(
        cfg(3),
        CkptOptions::native()
            .with_policy(VirtualTimeSchedule::once(VTime::from_micros(80.0)))
            .with_resume(ResumeMode::Continue),
        |_| FinishEarly::new(),
    );
    assert_eq!(run.checkpoints.len(), 1, "the checkpoint must fire");
    let image = &run.checkpoints[0];
    image.verify().expect("cut must satisfy the oracle");
    assert_eq!(image.captures[0].state, RankState::Finished);
    assert!(image.captures[1..]
        .iter()
        .all(|c| c.state != RankState::Finished));

    let restored = restore_ckpt_world_steps(image, RestoreConfig::same_packing(), body);
    assert_eq!(
        restored.results().map(|(v, _)| *v).collect::<Vec<_>>(),
        native_results
    );
    assert_eq!(restored.final_counters[0], image.captures[0].counters);
    assert_eq!(restored.ranks[0].final_clock, image.captures[0].clock);
    let (after, native) = (logs(&restored), logs(&native));
    assert!(after[0].is_empty());
    assert!(!after[1].is_empty());
    suffix_only(image, &after, &native).unwrap();

    // Fed a restored record in which rank 1 ran its first collective past
    // the cut on a group twice — once at or below its `SEQ` — the witness
    // refuses the suffix.
    let mut again = after.clone();
    let first = again[1].steps[0][0];
    let below = Node {
        seq: image.captures[1].seq_table.seq(first.ggid),
        ..first
    };
    again[1].steps.insert(0, vec![below]);
    let why = suffix_only(image, &again, &native).unwrap_err();
    assert!(why.starts_with("rank 1,"), "{why}");
}
