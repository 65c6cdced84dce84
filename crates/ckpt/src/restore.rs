//! Restore a serialized [`Checkpoint`] image into a fresh world — the
//! "restart elsewhere" half of the capture/restore API.
//!
//! A real MANA restart restores the upper half from a memory dump and
//! replays runtime state from the image. This simulation has no memory
//! dump: application state lives inside the rank bodies, so the
//! upper half is rebuilt by **deterministically re-executing** the same
//! program (`f`) up to the captured cut — the stand-in for loading the
//! dump. The replay runs against a world equivalent to the capture's
//! ([`crate::image::CaptureOrigin`]), each rank parks exactly where the
//! image says it was captured (located by its application-visible call
//! counters and `SEQ[]` table — see [`crate::session::CutSpec`]), and the
//! replayed runtime state is cross-checked against the image field by
//! field. From the cut onward the image is authoritative: the restored
//! lower half is built from the *restore* configuration (which may pack
//! ranks onto nodes differently — the paper's Perlmutter re-packing),
//! communicators are rebuilt from the image's captured groups, the
//! image's drained in-flight messages are re-deposited, pending receives
//! and trivial barriers are re-posted, the image's counters and clocks are
//! adopted, and the modeled image read-back is charged under the *new*
//! topology.
//!
//! Continuation is bit-identical to an in-process
//! [`crate::ResumeMode::Restart`]; only the modeled timing changes with
//! the packing.

use crate::coordinator::{image_file_layout, Coordinator, StorageSpec};
use crate::image::Checkpoint;
use crate::rank::CcRank;
use crate::runner::step::{run_session, Blocking, Driver, StepBody};
use crate::runner::{CkptRunReport, RunError, SuperviseOut};
use crate::session::{RestorePlan, Session};
use mana_core::{RankState, RuntimeCapture, Violation};
use mpisim::{SpawnError, WorldConfig};
use netmodel::NetParams;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a checkpoint image is restored: the (possibly re-packed) target
/// topology, the storage model charging the image read-back, and the
/// scheduler's worker bound.
#[derive(Debug, Clone, Default)]
pub struct RestoreConfig {
    /// Ranks per node of the restored world; `None` keeps the capture's
    /// packing. The rank count always comes from the image.
    pub ranks_per_node: Option<usize>,
    /// Network parameters of the restored world; `None` keeps the
    /// capture's.
    pub params: Option<NetParams>,
    /// Storage model for the image read-back, charged to every restored
    /// rank's virtual clock under the **restored** packing (fewer ranks
    /// per node → more nodes → the paper's Figure 9 scaling). `None` makes
    /// the read free.
    pub storage: Option<StorageSpec>,
    /// Cooperative-scheduler worker bound for the replay and restored
    /// worlds; `None` sizes it to the host (the same knob as
    /// [`mpisim::WorldConfig::with_workers`] on the capture side).
    pub workers: Option<usize>,
}

/// Wall-clock budget for the pre-cut replay to go quiet. A program that
/// does not match the image never reaches its cut; the restore driver
/// panics instead of waiting forever.
const REPLAY_TIMEOUT: Duration = Duration::from_secs(30);

impl RestoreConfig {
    /// Restore with the capture's own packing and parameters.
    pub fn same_packing() -> Self {
        RestoreConfig::default()
    }

    /// Re-packs the restored world onto `rpn` ranks per node.
    pub fn with_ranks_per_node(mut self, rpn: usize) -> Self {
        assert!(rpn > 0, "ranks_per_node must be positive");
        self.ranks_per_node = Some(rpn);
        self
    }

    /// Replaces the restored world's network parameters.
    pub fn with_params(mut self, params: NetParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Attaches a storage model charging the image read-back.
    pub fn with_storage(mut self, storage: StorageSpec) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Pins the scheduler worker bound of the restored execution.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "worker bound must be positive");
        self.workers = Some(workers);
        self
    }
}

/// Why a restore was refused before any rank ran.
///
/// These are the *pre-flight* rejections of [`try_restore_ckpt_world`]:
/// the image or the environment is unfit, and the caller can handle it —
/// fall back to an older image, re-fetch the file, report and continue.
/// (A replay that diverges from the image mid-restore still panics: at
/// that point rank threads hold partially-restored state and there is no
/// clean unwind.)
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The image failed the independent safe-cut oracle (paper §4.2.2):
    /// the cut it carries is not a consistent state, and restoring it
    /// would resurrect a world that never existed. Carries the oracle's
    /// violations.
    UnsafeCut(Vec<Violation>),
    /// The image is structurally unusable for restore; names the check
    /// that failed. ([`Checkpoint::from_bytes`] rejects malformed *bytes*
    /// already, so this only fires on images built or edited in memory.)
    MalformedImage(&'static str),
    /// A replay rank could not be launched; no application code ran.
    Spawn(SpawnError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::UnsafeCut(v) => write!(
                f,
                "image failed the safe-cut oracle ({} violation{}); refusing to restore \
                 an inconsistent cut",
                v.len(),
                if v.len() == 1 { "" } else { "s" }
            ),
            RestoreError::MalformedImage(what) => {
                write!(f, "image unusable for restore: bad {what}")
            }
            RestoreError::Spawn(e) => write!(f, "restore launch failed: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<SpawnError> for RestoreError {
    fn from(e: SpawnError) -> Self {
        RestoreError::Spawn(e)
    }
}

/// Restores `image` into a fresh world and runs it to completion.
///
/// `f` must be the same program the image was captured from (byte-for-byte
/// deterministic given the image's origin world); the driver cross-checks
/// the replayed runtime state against the image at the cut and panics on
/// any divergence rather than continuing from inconsistent state. Tampered
/// or truncated image *bytes* never get this far —
/// [`Checkpoint::from_bytes`] rejects them by checksum.
///
/// # Panics
/// Panics on any [`RestoreError`] — use [`try_restore_ckpt_world`] to
/// handle an unsafe or unusable image instead — and if the replay goes
/// quiet for 30 s of wall clock without reaching the captured cut, or the
/// replayed state disagrees with the image.
pub fn restore_ckpt_world<R, F>(image: &Checkpoint, rcfg: RestoreConfig, f: F) -> CkptRunReport<R>
where
    R: Send,
    F: Fn(&mut CcRank) -> R + Send + Sync,
{
    try_restore_ckpt_world(image, rcfg, f).unwrap_or_else(|e| panic!("{e}"))
}

/// [`restore_ckpt_world`], with pre-flight rejections surfaced as a typed
/// [`RestoreError`] instead of a panic. On an `Err` no application code
/// has run: the safe-cut oracle and the image shape are checked before any
/// rank thread is spawned.
pub fn try_restore_ckpt_world<R, F>(
    image: &Checkpoint,
    rcfg: RestoreConfig,
    f: F,
) -> Result<CkptRunReport<R>, RestoreError>
where
    R: Send,
    F: Fn(&mut CcRank) -> R + Send + Sync,
{
    restore_session(image, rcfg, Driver::Threads, |_| Blocking(&f))
}

/// [`restore_ckpt_world`] for step bodies: the replay ranks are
/// [`StepBody`] objects stepped by the worker pool instead of closures on
/// threads. `make(rank)` must build the same program the image was
/// captured from — as either kind of body: the one engine parks at the
/// identical cut with identical captured state, so images are portable
/// between closure and step bodies in both directions.
///
/// # Panics
/// Panics where [`try_restore_ckpt_world_steps`] returns a typed
/// [`RestoreError`].
pub fn restore_ckpt_world_steps<B, MK>(
    image: &Checkpoint,
    rcfg: RestoreConfig,
    make: MK,
) -> CkptRunReport<B::Out>
where
    B: StepBody,
    MK: Fn(usize) -> B + Send + Sync,
{
    try_restore_ckpt_world_steps(image, rcfg, make).unwrap_or_else(|e| panic!("{e}"))
}

/// [`restore_ckpt_world_steps`], with pre-flight rejections surfaced as a
/// typed [`RestoreError`].
pub fn try_restore_ckpt_world_steps<B, MK>(
    image: &Checkpoint,
    rcfg: RestoreConfig,
    make: MK,
) -> Result<CkptRunReport<B::Out>, RestoreError>
where
    B: StepBody,
    MK: Fn(usize) -> B + Send + Sync,
{
    restore_session(image, rcfg, Driver::Pool, make)
}

/// The body of the restore entry points: pre-flight, a replay session
/// whose ranks `driver` steps, and the restore driver as its supervision.
fn restore_session<B: StepBody>(
    image: &Checkpoint,
    rcfg: RestoreConfig,
    driver: Driver,
    make: impl Fn(usize) -> B,
) -> Result<CkptRunReport<B::Out>, RestoreError> {
    let (replay_cfg, restored_cfg) = restore_preflight(image, &rcfg)?;
    let plan = RestorePlan::from_image(image);
    let sh = Session::for_restore(replay_cfg, image.protocol, plan);
    let sup = Arc::clone(&sh);
    run_session(sh, driver, make, move || {
        drive_restore(&sup, image, &rcfg, restored_cfg, None);
        SuperviseOut::default()
    })
    .map_err(|e| match e {
        RunError::Spawn(s) => RestoreError::Spawn(s),
        // No fault injector exists on the public restore paths; the
        // availability supervisor uses its own restore driving.
        RunError::Died(d) => panic!("rank death without availability supervision: {d}"),
    })
}

/// The pre-flight of every restore (plain and availability): image shape and
/// safe-cut checks, then the replay and restored world configurations.
pub(crate) fn restore_preflight(
    image: &Checkpoint,
    rcfg: &RestoreConfig,
) -> Result<(WorldConfig, WorldConfig), RestoreError> {
    if image.captures.len() != image.n_ranks {
        return Err(RestoreError::MalformedImage("capture count vs n_ranks"));
    }
    if let Err(violations) = image.verify() {
        return Err(RestoreError::UnsafeCut(violations));
    }

    let replay_cfg = WorldConfig {
        n_ranks: image.n_ranks,
        ranks_per_node: image.origin.ranks_per_node,
        params: image.origin.params.clone(),
        workers: rcfg.workers,
    };
    let restored_cfg = WorldConfig {
        ranks_per_node: rcfg.ranks_per_node.unwrap_or(image.origin.ranks_per_node),
        params: rcfg
            .params
            .clone()
            .unwrap_or_else(|| image.origin.params.clone()),
        ..replay_cfg.clone()
    };
    Ok((replay_cfg, restored_cfg))
}

/// The restore driver: waits for the replay to park at the image's cut,
/// cross-checks it, then plays the coordinator's restart-resume role.
/// `read_charge_override` replaces the flat [`RestoreConfig::storage`]
/// read charge with an explicit virtual-seconds cost — the availability
/// supervisor computes it from the tier the image actually survives on.
pub(crate) fn drive_restore(
    sh: &Arc<Session>,
    image: &Checkpoint,
    rcfg: &RestoreConfig,
    restored_cfg: WorldConfig,
    read_charge_override: Option<f64>,
) {
    let control = &sh.control;

    // Wait for every rank to park at its cut (or finish, for ranks the
    // image captured as finished), under a no-progress watchdog.
    let mut last_fp = replay_fingerprint(sh);
    let mut last_change = Instant::now();
    while !control.all_parked() {
        // A death injected mid-replay abandons the restore outright; the
        // supervisor owns the retry.
        if sh.poisoned() {
            return;
        }
        let fp = replay_fingerprint(sh);
        if fp != last_fp {
            last_fp = fp;
            last_change = Instant::now();
        } else if last_change.elapsed() >= REPLAY_TIMEOUT {
            let stuck: Vec<usize> = control
                .ranks
                .iter()
                .enumerate()
                .filter(|(_, rc)| !rc.state().is_parked())
                .map(|(i, _)| i)
                .collect();
            panic!(
                "restore replay stalled: ranks {stuck:?} never reached the captured cut \
                 (is `f` the program this image was captured from?)"
            );
        }
        std::thread::sleep(Duration::from_micros(500));
    }

    if sh.poisoned() {
        return;
    }
    // The replayed runtime state must agree with the image before the
    // image is allowed to overwrite it.
    for (rank, expected) in image.captures.iter().enumerate() {
        let replayed = control.ranks[rank]
            .capture_slot
            .lock()
            .clone()
            .unwrap_or_else(|| panic!("rank {rank} parked without publishing a capture"));
        check_replay_capture(rank, &replayed, expected);
    }

    // Charge the image read-back against the restored packing: re-packing
    // onto fewer ranks per node spreads the same files over more nodes,
    // which is exactly the Figure 9 topology effect. An explicit override
    // (the availability path's tier-accurate cost) wins over the flat
    // storage model.
    let read_secs = read_charge_override.or_else(|| {
        rcfg.storage.as_ref().map(|st| {
            let (nodes, files_per_node, bytes_per_file) = image_file_layout(
                st,
                image.n_ranks,
                restored_cfg.ranks_per_node,
                &image.in_flight,
                &image.captures,
            );
            st.model.read_time(nodes, files_per_node, bytes_per_file)
        })
    });
    let read_ns = (read_secs.unwrap_or(0.0) * 1e9) as u64;
    if read_ns > 0 {
        for rc in control.ranks.iter() {
            if rc.state() != RankState::Finished {
                rc.io_charge_ns.store(read_ns, SeqCst);
            }
        }
    }

    // From here the image is authoritative: the shared restart-resume path
    // builds the restored world from the *restore* configuration, installs
    // the image's per-rank state, and re-deposits its in-flight messages.
    let coord = Coordinator::new(Arc::clone(sh));
    coord.resume_restart(image, restored_cfg);
    control.resume_gen.fetch_add(1, SeqCst);
    control.clear_pending();
}

/// Order-insensitive digest of replay progress for the stall watchdog.
fn replay_fingerprint(sh: &Session) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for rc in &sh.control.ranks {
        mix(rc.state() as u64);
        mix(rc.clock_ns.load(std::sync::atomic::Ordering::Relaxed));
        mix(rc.coll_calls.load(std::sync::atomic::Ordering::Relaxed));
    }
    h
}

/// Panics unless the replayed capture matches the image capture on every
/// restart-relevant field. Clocks and lower-half handle maps are excluded
/// (the image's clock is adopted outright; handles are generation-local),
/// and counters are compared on their application-visible fields (the
/// replay runs without a live drain).
fn check_replay_capture(rank: usize, replayed: &RuntimeCapture, expected: &RuntimeCapture) {
    let mismatch = |what: &str| -> ! {
        panic!(
            "restore replay diverged from the image at rank {rank}: {what} differs \
             (is `f` the program this image was captured from?)"
        )
    };
    if replayed.state != expected.state {
        mismatch("park state");
    }
    if !replayed.counters.same_app_calls(&expected.counters) {
        mismatch("call counters");
    }
    if replayed.seq_table != expected.seq_table {
        mismatch("sequence table");
    }
    if replayed.comm_log != expected.comm_log {
        mismatch("communicator log");
    }
    if replayed.pending_recvs != expected.pending_recvs {
        mismatch("pending receives");
    }
    if replayed.pending_barrier != expected.pending_barrier {
        mismatch("pending trivial barrier");
    }
    if replayed.vcomm_members != expected.vcomm_members {
        mismatch("communicator membership");
    }
}
