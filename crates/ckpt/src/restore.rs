//! Restore a serialized [`Checkpoint`] image into a fresh world — the
//! "restart elsewhere" half of the capture/restore API.
//!
//! A restore is a campaign ([`crate::avail`]) whose first attempt starts
//! from the image instead of from scratch: the same loop, launcher and
//! supervision as a plain run, with [`crate::NeverTrigger`] and no
//! planned faults. A recovery after an injected death is the same arm.
//!
//! This is MANA's split process: the upper half comes back from the
//! image, the lower half is rebuilt. A step body *is* its state, and the
//! image carries it ([`StepBody::save`]) beside each rank's
//! [`mana_core::RuntimeCapture`], with the request-table state the wrapper
//! holds ([`mana_core::UpperHalf`]). So a restore re-executes nothing:
//! it builds one session on the *restore* configuration (which may pack
//! ranks onto nodes differently — the paper's Perlmutter re-packing),
//! and each rank is `make(rank)` with its snapshot loaded, on a wrapper
//! that adopts the upper half (sequence table, counters, clock, request
//! table) and installs the capture with the rank installer an in-process
//! restart uses: communicators rebuilt from the image's groups, pending
//! receives and trivial barriers re-posted, and the image's drained
//! in-flight messages addressed to the rank put at the front of its
//! mailbox, before any rank runs. The read-back is charged under the *new*
//! topology by the one read rule, [`TieredStore::read_secs`], and every
//! rank resumes inside the operation it was captured parked in: only the
//! run's suffix executes.
//!
//! A closure body's state is its stack, which no image holds: its images
//! restart in-process only ([`crate::ResumeMode::Restart`]), and a
//! restore elsewhere refuses them before any rank runs
//! ([`RestoreError::NoUpperHalf`]).
//!
//! Continuation is bit-identical to an in-process
//! [`crate::ResumeMode::Restart`]; only the modeled timing changes with
//! the packing.

use crate::avail::run_campaign;
use crate::image::Checkpoint;
use crate::rank::CcRank;
use crate::runner::step::{Driver, StepBody};
use crate::runner::{CkptOptions, CkptRunReport};
use crate::store::{ImageSetLayout, StoreError, TieredStore};
use crate::wire::{Dec, DecodeError};
use crate::FaultPlan;
use mana_core::{CommOp, Violation, VCOMM_WORLD};
use mpisim::{SavedMsg, SpawnError, WorldConfig};
use netmodel::NetParams;
use std::borrow::Cow;
use std::sync::Arc;

/// How a checkpoint image is restored: the (possibly re-packed) target
/// topology, the store generation whose read-back is charged, and the
/// scheduler's worker bound.
#[derive(Debug, Clone, Default)]
pub struct RestoreConfig {
    /// Ranks per node of the restored world; `None` keeps the capture's
    /// packing. The rank count always comes from the image.
    pub ranks_per_node: Option<usize>,
    /// Network parameters of the restored world; `None` keeps the
    /// capture's.
    pub params: Option<NetParams>,
    /// Where the image is read from: a store and the generation the image
    /// came from. Its [`TieredStore::read_secs`] is charged to every
    /// restored rank's virtual clock under the **restored** packing (fewer
    /// ranks per node → more nodes → the paper's Figure 9 scaling).
    /// `None` makes the read free; a generation the store does not hold
    /// is refused at pre-flight ([`RestoreError::ReadSource`]).
    pub storage: Option<(Arc<TieredStore>, u64)>,
    /// Worker bound of the restored world; `None` sizes it to the host
    /// (the same knob as [`mpisim::WorldConfig::with_workers`] on the
    /// capture side).
    pub workers: Option<usize>,
}

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

    /// Charges the read-back of `generation` from `store`.
    pub fn with_storage(mut self, store: Arc<TieredStore>, generation: u64) -> Self {
        self.storage = Some((store, generation));
        self
    }

    /// Pins the worker bound of the restored execution.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "worker bound must be positive");
        self.workers = Some(workers);
        self
    }
}

/// Why a restore was refused before any rank ran.
///
/// These are the rejections of [`try_restore_ckpt_world_steps`]: the image
/// or the environment is unfit, and the caller can handle it — fall back
/// to an older image, re-fetch the file, report and continue. Each is
/// found before any rank runs.
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
    /// The image carries no upper half for this rank (the first such): it
    /// was captured from closure bodies, whose state is their stack. It
    /// restarts in-process only.
    NoUpperHalf {
        /// The rank without one.
        rank: usize,
    },
    /// This rank's body refused its snapshot: `make` is not the program
    /// the image was captured from, or the snapshot bytes are not its.
    BodySnapshot {
        /// The rank whose body refused.
        rank: usize,
        /// What did not fit.
        what: DecodeError,
    },
    /// A rank could not be launched; no application code ran.
    Spawn(SpawnError),
    /// The read source ([`RestoreConfig::with_storage`]) has no read for
    /// its generation: the store does not hold it, or its chain dangles.
    ReadSource(StoreError),
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
            RestoreError::NoUpperHalf { rank } => write!(
                f,
                "image has no upper half for rank {rank} (captured from a closure body); \
                 it restarts in-process only"
            ),
            RestoreError::BodySnapshot { rank, what } => write!(
                f,
                "rank {rank}'s body refused its snapshot ({what}): is `make` the program \
                 this image was captured from?"
            ),
            RestoreError::Spawn(e) => write!(f, "restore launch failed: {e}"),
            RestoreError::ReadSource(e) => write!(f, "restore read source unusable: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<SpawnError> for RestoreError {
    fn from(e: SpawnError) -> Self {
        RestoreError::Spawn(e)
    }
}

/// Restores `image` into a fresh world and runs it to completion:
/// `make(rank)` builds each rank's body, which loads its snapshot from
/// the image and resumes where it was captured. `make` must build the
/// program the image was captured from; a body that refuses its snapshot
/// refuses the restore. Tampered or truncated image *bytes* never get
/// this far — [`Checkpoint::from_bytes`] rejects them by checksum.
///
/// # Panics
/// Panics on any [`RestoreError`] — use [`try_restore_ckpt_world_steps`]
/// to handle an unsafe or unusable image instead — and re-raises a rank
/// body's panic.
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

/// [`restore_ckpt_world_steps`], with refusals surfaced as a typed
/// [`RestoreError`]. On an `Err` no application code has run: the image
/// shape, its upper halves, the safe-cut oracle and the read source are
/// checked before any rank is built, and every body's snapshot loads
/// before any rank runs.
pub fn try_restore_ckpt_world_steps<B, MK>(
    image: &Checkpoint,
    rcfg: RestoreConfig,
    make: MK,
) -> Result<CkptRunReport<B::Out>, RestoreError>
where
    B: StepBody,
    MK: Fn(usize) -> B + Send + Sync,
{
    let restore = Restore::preflight(Cow::Borrowed(image), rcfg)?;
    let cfg = restore.restored_cfg.clone();
    let opts = CkptOptions::native().with_protocol(image.protocol);
    run_campaign(
        cfg,
        opts,
        FaultPlan::none(),
        Some(restore),
        Driver::Pool,
        make,
    )
}

/// An attempt's image arm: an image that passed its pre-flight, and the
/// restored world it resumes in.
pub(crate) struct Restore<'a> {
    pub(crate) image: Cow<'a, Checkpoint>,
    /// Modeled seconds of the image read-back on the restored packing:
    /// the read source's [`TieredStore::read_secs`], zero without one.
    pub(crate) read_s: f64,
    /// The world the run continues in.
    pub(crate) restored_cfg: WorldConfig,
    /// The image's drained in-flight messages, by destination rank.
    msgs_to: Vec<Vec<SavedMsg>>,
}

impl<'a> Restore<'a> {
    /// The pre-flight of every restore (plain and recovery): image shape,
    /// upper halves, vcomm references and safe-cut checks, the restored
    /// world configuration, then the read-back charge.
    pub(crate) fn preflight(
        image: Cow<'a, Checkpoint>,
        rcfg: RestoreConfig,
    ) -> Result<Restore<'a>, RestoreError> {
        if image.captures.len() != image.n_ranks {
            return Err(RestoreError::MalformedImage("capture count vs n_ranks"));
        }
        if let Some(rank) = image.captures.iter().position(|c| c.upper.is_none()) {
            return Err(RestoreError::NoUpperHalf { rank });
        }
        // Every vcomm a capture names — a pending receive's, the pending
        // barrier's, a creation's parent and result, an in-flight
        // message's at its destination — must be one its rank rebuilds.
        let named = image.captures.iter().enumerate().flat_map(|(rank, c)| {
            let created = c.comm_log.iter().flat_map(|r| {
                let (CommOp::Dup { parent }
                | CommOp::Split { parent, .. }
                | CommOp::Create { parent, .. }) = &r.op;
                [Some(parent.0), r.result.map(|v| v.0)]
            });
            (c.pending_recvs.iter().map(|p| Some(p.vcomm)))
                .chain([c.pending_barrier.map(|(v, _)| v)])
                .chain(created)
                .flatten()
                .map(move |v| (rank, v))
        });
        let sent = (image.in_flight.iter()).map(|d| (d.saved.dst_world, d.saved.vcomm));
        let holds = |(rank, v): (usize, u64)| {
            (image.captures.get(rank))
                .is_some_and(|c| v == VCOMM_WORLD.0 || c.vcomm_members.contains_key(&v))
        };
        if !named.chain(sent).all(holds) {
            return Err(RestoreError::MalformedImage("vcomm (unknown to its rank)"));
        }
        if let Err(violations) = image.verify() {
            return Err(RestoreError::UnsafeCut(violations));
        }
        let restored_cfg = WorldConfig {
            n_ranks: image.n_ranks,
            ranks_per_node: rcfg.ranks_per_node.unwrap_or(image.origin.ranks_per_node),
            params: rcfg
                .params
                .clone()
                .unwrap_or_else(|| image.origin.params.clone()),
            workers: rcfg.workers,
        };
        let read_s = match &rcfg.storage {
            Some((store, generation)) => {
                let n = image.n_ranks;
                let bytes = store.models().image_bytes_per_rank * n as u64;
                let layout = ImageSetLayout::packed(n, restored_cfg.ranks_per_node, bytes);
                store
                    .read_secs(*generation, &layout)
                    .map_err(RestoreError::ReadSource)?
            }
            None => 0.0,
        };
        let mut msgs_to = vec![Vec::new(); image.n_ranks];
        for d in &image.in_flight {
            msgs_to[d.saved.dst_world].push(d.saved.clone());
        }
        Ok(Restore {
            image,
            read_s,
            restored_cfg,
            msgs_to,
        })
    }

    /// Loads `rank`'s body from its snapshot and installs its capture, with
    /// the in-flight messages addressed to it, into the freshly built `cc`,
    /// charging the read-back (re-packing onto fewer ranks per node spreads
    /// the same files over more nodes: the Figure 9 topology effect).
    pub(crate) fn install<B: StepBody>(
        &self,
        rank: usize,
        cc: &mut CcRank,
        body: &mut B,
    ) -> Result<(), RestoreError> {
        let cap = &self.image.captures[rank];
        let upper = cap
            .upper
            .as_ref()
            .expect("pre-flight checked every upper half");
        let mut d = Dec::new(&upper.body);
        body.load(&mut d)
            .and_then(|()| d.finished().then_some(()).ok_or("trailing snapshot bytes"))
            .map_err(|what| RestoreError::BodySnapshot { rank, what })?;
        cc.resume_from(cap, upper, &self.msgs_to[rank], (self.read_s * 1e9) as u64);
        Ok(())
    }
}
