//! The quickstart demonstration: run a multi-rank random workload, as
//! its step body on the worker pool, three ways — straight through;
//! checkpointing mid-flight with a full in-process restart; and capturing
//! an image, round-tripping it through serialized bytes, and restoring it
//! via [`ckpt::restore_ckpt_world_steps`], each body loaded from its
//! snapshot — then check every continuation is bit-identical. Shared by
//! `examples/quickstart.rs` and the test suite so CI exercises exactly
//! what the example shows.

use crate::random::{RandomWorkloadCfg, RandomWorkloadStep};
use ckpt::{
    restore_ckpt_world_steps, run_ckpt_world_steps, Checkpoint, CkptOptions, RestoreConfig,
    ResumeMode,
};
use mpisim::{NetParams, VTime, WorldConfig};

/// Everything the quickstart run produced.
#[derive(Debug)]
pub struct QuickstartOutcome {
    /// Per-rank results of the uninterrupted run.
    pub native_results: Vec<f64>,
    /// Per-rank results of the checkpoint + in-process-restart run.
    pub ckpt_results: Vec<f64>,
    /// Per-rank results of the serialize → deserialize → restore run.
    pub restored_results: Vec<f64>,
    /// The captured checkpoint (as deserialized from its own bytes).
    pub checkpoint: Checkpoint,
    /// Size of the serialized image in bytes.
    pub image_bytes: usize,
    /// Makespans of the three runs.
    pub native_makespan: VTime,
    /// See `native_makespan`.
    pub ckpt_makespan: VTime,
    /// See `native_makespan`.
    pub restored_makespan: VTime,
}

impl QuickstartOutcome {
    /// Whether both the in-process restart and the restored-from-bytes run
    /// continued bit-identically.
    pub fn bit_identical(&self) -> bool {
        self.native_results == self.ckpt_results && self.native_results == self.restored_results
    }
}

/// Runs the demonstration: `n_ranks` ranks, a seeded random workload, one
/// checkpoint + in-process restart at roughly half the native makespan,
/// then a restore of the same image from its serialized bytes.
///
/// # Panics
/// Panics if the checkpoint never fires, its cut fails the safe-cut
/// oracle, or the image does not survive its byte round trip — the demo
/// *is* the assertion.
pub fn quickstart(n_ranks: usize, seed: u64, steps: usize) -> QuickstartOutcome {
    let cfg =
        WorldConfig::single_node(n_ranks).with_params(NetParams::slingshot11().without_jitter());
    let wl = RandomWorkloadCfg::new(seed, steps).with_pace_us(30);

    let body = |_rank| RandomWorkloadStep::new(wl.clone());
    let native = run_ckpt_world_steps(cfg.clone(), CkptOptions::native(), body);
    let trigger = VTime::from_secs(native.makespan.as_secs() * 0.5);

    let ckpt_run = run_ckpt_world_steps(
        cfg,
        CkptOptions::one_checkpoint(trigger, ResumeMode::Restart),
        body,
    );
    assert_eq!(
        ckpt_run.checkpoints.len(),
        1,
        "checkpoint did not fire before the workload ended"
    );
    let captured = ckpt_run.checkpoints.into_iter().next().unwrap();
    captured
        .verify()
        .expect("captured cut must satisfy the safe-cut oracle");
    assert!(
        captured.targets_exactly_reached(),
        "drain must stop exactly at its targets"
    );

    // The image is a first-class artifact: round-trip it through its own
    // serialized bytes, then restore the decoded copy into a fresh world.
    let bytes = captured.to_bytes();
    let checkpoint =
        Checkpoint::from_bytes(&bytes).expect("image must survive its byte round trip");
    assert_eq!(checkpoint, captured, "decoded image must equal the capture");
    let restored = restore_ckpt_world_steps(&checkpoint, RestoreConfig::same_packing(), |_| {
        RandomWorkloadStep::new(RandomWorkloadCfg::new(seed, steps))
    });

    QuickstartOutcome {
        native_results: native.ranks.iter().map(|r| r.result).collect(),
        ckpt_results: ckpt_run.ranks.iter().map(|r| r.result).collect(),
        restored_results: restored.ranks.iter().map(|r| r.result).collect(),
        checkpoint,
        image_bytes: bytes.len(),
        native_makespan: native.makespan,
        ckpt_makespan: ckpt_run.makespan,
        restored_makespan: restored.makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_roundtrip_is_bit_identical() {
        let out = quickstart(4, 2024, 30);
        assert!(
            out.bit_identical(),
            "restart diverged: native {:?} vs ckpt {:?} vs restored {:?}",
            out.native_results,
            out.ckpt_results,
            out.restored_results
        );
        assert_eq!(out.checkpoint.epoch, 0);
        assert_eq!(out.checkpoint.n_ranks, 4);
        assert!(out.image_bytes > 0);
    }
}
