//! Pluggable checkpoint trigger policies.
//!
//! A [`TriggerPolicy`] names the [`Threshold`] (virtual clock or
//! collective-call count) at which the next checkpoint is due. The
//! supervisor arms it before any rank can pass it, and the rank whose
//! published progress (or finish) completes it raises the request itself,
//! inside its wrapper call ([`mana_core::CkptControl::publish_progress`]):
//! nothing polls, and no run finishes before its trigger fires.
//! The policies: an explicit virtual-time schedule, a periodic interval,
//! the Young/Daly optimum, and every-N-collectives.
//!
//! All progress comparisons are made in **integer nanoseconds** against the
//! clocks the ranks publish ([`mana_core::RankCtl::clock_ns`]): the
//! published `u64` clock is never round-tripped through `f64` seconds on
//! its way to a comparison (doing so silently collapses distinct clock
//! values above ~2^53 ns, about 104 days of virtual time). Thresholds
//! supplied as [`VTime`] are converted to nanoseconds once at policy
//! construction; their granularity is bounded by `VTime`'s own `f64`
//! representation.

pub use mana_core::Threshold;
use mpisim::VTime;

/// Decides when a checkpoint is requested.
///
/// `next` is asked for each threshold armed; the request is raised once
/// every unfinished rank has reached it, and `fired` is called once the
/// attempt is over. `None` ends supervision: it will never fire again.
pub trait TriggerPolicy: Send {
    /// The progress at which the next checkpoint is due; `None` once the
    /// policy is exhausted.
    fn next(&self) -> Option<Threshold>;

    /// The supervisor fired at [`TriggerPolicy::next`]'s threshold; the
    /// run picks up again at `clock_ns` (a clock threshold, or the clock at
    /// the fire, plus the checkpoint's own clock charge), and the image
    /// cost `write_cost_s` virtual seconds to write (`0.0` if aborted).
    fn fired(&mut self, clock_ns: u64, write_cost_s: f64);
}

/// Converts a virtual time to the integer-nanosecond domain the rank
/// clocks are published in.
fn vtime_to_ns(t: VTime) -> u64 {
    (t.as_secs() * 1e9) as u64
}

/// Never checkpoints (the native / measurement-baseline policy).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverTrigger;

impl TriggerPolicy for NeverTrigger {
    fn next(&self) -> Option<Threshold> {
        None
    }

    fn fired(&mut self, _clock_ns: u64, _write_cost_s: f64) {}
}

/// Fires once at each virtual-time threshold, in order.
#[derive(Debug, Clone)]
pub struct VirtualTimeSchedule {
    thresholds_ns: Vec<u64>,
    next: usize,
}

impl VirtualTimeSchedule {
    /// A schedule firing at each of `times` (converted once to integer
    /// nanoseconds; the comparisons never round-trip through `f64`).
    pub fn new(times: impl IntoIterator<Item = VTime>) -> Self {
        VirtualTimeSchedule {
            thresholds_ns: times.into_iter().map(vtime_to_ns).collect(),
            next: 0,
        }
    }

    /// A single checkpoint at `at`.
    pub fn once(at: VTime) -> Self {
        Self::new([at])
    }
}

impl TriggerPolicy for VirtualTimeSchedule {
    fn next(&self) -> Option<Threshold> {
        self.thresholds_ns
            .get(self.next)
            .map(|&t| Threshold::Clock(t))
    }

    fn fired(&mut self, _clock_ns: u64, _write_cost_s: f64) {
        self.next += 1;
    }
}

/// Fires every `interval` of virtual time, up to `limit` checkpoints —
/// the production "periodic checkpointing" policy. Each deadline is armed
/// `interval` past the previous checkpoint's resume, so a write charge as
/// long as the interval cannot turn the run into a checkpoint storm.
#[derive(Debug, Clone)]
pub struct PeriodicInterval {
    interval_ns: u64,
    limit: usize,
    fired: usize,
    next_due_ns: u64,
}

impl PeriodicInterval {
    /// Fire first at `interval`, then `interval` past each resume, up to
    /// `limit` times.
    ///
    /// # Panics
    /// Panics on a zero interval (the supervisor would fire continuously).
    pub fn new(interval: VTime, limit: usize) -> Self {
        let interval_ns = vtime_to_ns(interval);
        assert!(interval_ns > 0, "periodic interval must be positive");
        PeriodicInterval {
            interval_ns,
            limit,
            fired: 0,
            next_due_ns: interval_ns,
        }
    }
}

impl TriggerPolicy for PeriodicInterval {
    fn next(&self) -> Option<Threshold> {
        (self.fired < self.limit).then_some(Threshold::Clock(self.next_due_ns))
    }

    fn fired(&mut self, clock_ns: u64, _write_cost_s: f64) {
        self.fired += 1;
        self.next_due_ns = clock_ns.saturating_add(self.interval_ns);
    }
}

/// Fires once every `n` collective calls (per the slowest rank's published
/// [`mana_core::CallCounters`] total), up to `limit` checkpoints — the
/// "checkpoint every N iterations" policy of collective-dominated codes.
#[derive(Debug, Clone)]
pub struct EveryNCollectives {
    n: u64,
    limit: usize,
    fired: usize,
}

impl EveryNCollectives {
    /// Fire when every rank has made `n`, `2·n`, … collective calls, at
    /// most `limit` times.
    ///
    /// # Panics
    /// Panics on `n == 0`.
    pub fn new(n: u64, limit: usize) -> Self {
        assert!(n > 0, "collective-count stride must be positive");
        EveryNCollectives { n, limit, fired: 0 }
    }
}

impl TriggerPolicy for EveryNCollectives {
    fn next(&self) -> Option<Threshold> {
        // Saturating: `fired` is bounded by `limit`, and a pathological
        // (n, limit) pair must not wrap into an early fire.
        (self.fired < self.limit)
            .then(|| Threshold::CollCalls(self.n.saturating_mul(self.fired as u64 + 1)))
    }

    fn fired(&mut self, _clock_ns: u64, _write_cost_s: f64) {
        self.fired += 1;
    }
}

/// The closed-form Young/Daly checkpoint interval `sqrt(2 · δ · MTBF)`
/// in seconds, where `δ` is the cost of writing one checkpoint and MTBF
/// the mean time between failures (both in seconds). Returns `+∞` — i.e.
/// "never checkpoint" — when the MTBF is infinite or either input is
/// non-positive.
pub fn young_daly_interval_s(write_cost_s: f64, mtbf_s: f64) -> f64 {
    if !mtbf_s.is_finite() || mtbf_s <= 0.0 || write_cost_s <= 0.0 {
        return f64::INFINITY;
    }
    (2.0 * write_cost_s * mtbf_s).sqrt()
}

/// Fires on the Young/Daly optimum cadence `sqrt(2 · δ · MTBF)`, where
/// `δ` starts at a configured estimate and is replaced by the *measured*
/// write cost of each committed generation: every fire re-arms the next
/// deadline past the resume from the freshest measurement, so the cadence
/// converges onto what checkpoints actually cost on the tiers they land
/// on. An infinite MTBF degenerates to [`NeverTrigger`]: exhausted from
/// birth.
#[derive(Debug, Clone)]
pub struct DalyInterval {
    mtbf_s: f64,
    delta_s: f64,
    /// Next fire deadline in clock nanoseconds; `None` once (or from
    /// birth, for infinite MTBF) the policy will never fire again.
    next_due_ns: Option<u64>,
}

impl DalyInterval {
    /// A Daly policy for the given MTBF and an initial write-cost
    /// estimate, both in seconds. `f64::INFINITY` MTBF means "failures
    /// never happen": the policy never fires.
    ///
    /// # Panics
    /// Panics when a finite MTBF is paired with a non-positive MTBF or
    /// write-cost estimate (the optimum would be zero and the supervisor
    /// would fire continuously).
    pub fn new(mtbf_s: f64, initial_write_cost_s: f64) -> Self {
        if mtbf_s.is_finite() {
            assert!(mtbf_s > 0.0, "MTBF must be positive");
            assert!(
                initial_write_cost_s > 0.0,
                "initial write-cost estimate must be positive"
            );
        }
        let mut p = DalyInterval {
            mtbf_s,
            delta_s: initial_write_cost_s,
            next_due_ns: None,
        };
        p.next_due_ns = p.arm_from(0);
        p
    }

    /// The interval currently in force, in seconds.
    pub fn interval_s(&self) -> f64 {
        young_daly_interval_s(self.delta_s, self.mtbf_s)
    }

    /// The deadline `interval` past `now_ns`, or `None` for a
    /// never-again interval.
    fn arm_from(&self, now_ns: u64) -> Option<u64> {
        let s = self.interval_s();
        if !s.is_finite() {
            return None;
        }
        // At least one nanosecond forward: a degenerate measured cost
        // must not collapse the cadence into a continuous fire.
        Some(now_ns.saturating_add(((s * 1e9) as u64).max(1)))
    }
}

impl TriggerPolicy for DalyInterval {
    fn next(&self) -> Option<Threshold> {
        self.next_due_ns.map(Threshold::Clock)
    }

    fn fired(&mut self, clock_ns: u64, write_cost_s: f64) {
        // An aborted attempt measured nothing: keep the last δ.
        if write_cost_s > 0.0 {
            self.delta_s = write_cost_s;
        }
        self.next_due_ns = self.arm_from(clock_ns);
    }
}

/// Which storage tier each committed checkpoint lands on, indexed by the
/// store's generation number — so a run that resumes into an existing
/// [`crate::store::TieredStore`] continues the rotation where it left off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierSchedule {
    /// Every checkpoint lands on the same tier.
    Fixed(crate::store::CkptTier),
    /// SCR-style rotation: every `lustre_every`-th checkpoint goes to
    /// Lustre, every `partner_every`-th (otherwise) to the partner tier,
    /// and the rest stay in node-local memory. Counting is one-based:
    /// with `partner_every = 2, lustre_every = 4` the sequence is
    /// memory, partner, memory, lustre, memory, partner, …
    Rotation {
        /// Partner-tier stride (0 disables the partner level).
        partner_every: u64,
        /// Lustre stride (0 disables the Lustre level).
        lustre_every: u64,
    },
}

impl TierSchedule {
    /// The tier for generation `index` (zero-based).
    pub fn tier_for(&self, index: u64) -> crate::store::CkptTier {
        use crate::store::CkptTier;
        match *self {
            TierSchedule::Fixed(t) => t,
            TierSchedule::Rotation {
                partner_every,
                lustre_every,
            } => {
                let nth = index + 1;
                if lustre_every > 0 && nth.is_multiple_of(lustre_every) {
                    CkptTier::Lustre
                } else if partner_every > 0 && nth.is_multiple_of(partner_every) {
                    CkptTier::Partner
                } else {
                    CkptTier::Memory
                }
            }
        }
    }
}

/// When a tiered run writes an incremental image instead of a full one,
/// again indexed by generation number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaPolicy {
    /// Every image is full.
    Never,
    /// Generation `0, k, 2k, …` are full anchors; everything in between
    /// is a delta against its predecessor, so no chain grows longer than
    /// `k - 1` links.
    FullEvery(u64),
}

impl DeltaPolicy {
    /// Whether generation `index` should be written as a delta (the
    /// store still falls back to a full image when no usable parent
    /// exists).
    pub fn wants_delta(&self, index: u64) -> bool {
        match *self {
            DeltaPolicy::Never => false,
            DeltaPolicy::FullEvery(k) => k > 0 && !index.is_multiple_of(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CkptTier;

    /// Drives `p` the way the supervisor does: fires once the progress
    /// has reached the next threshold, and resumes (free of charge) at
    /// the same clock.
    fn fires(p: &mut dyn TriggerPolicy, clock_ns: u64, calls: u64) -> bool {
        let due = match p.next() {
            Some(Threshold::Clock(t)) => clock_ns >= t,
            Some(Threshold::CollCalls(n)) => calls >= n,
            None => false,
        };
        if due {
            p.fired(clock_ns, 0.0);
        }
        due
    }

    #[test]
    fn never_is_exhausted_immediately() {
        let mut p = NeverTrigger;
        assert_eq!(p.next(), None);
        assert!(!fires(&mut p, u64::MAX, u64::MAX));
    }

    #[test]
    fn schedule_fires_in_order_once_each() {
        let mut p = VirtualTimeSchedule::new([VTime::from_micros(1.0), VTime::from_micros(5.0)]);
        assert_eq!(p.next(), Some(Threshold::Clock(1_000)));
        assert!(!fires(&mut p, 500, 0));
        assert!(fires(&mut p, 1_000, 0));
        // Second threshold not yet due, even though the first has passed.
        assert!(!fires(&mut p, 1_200, 0));
        assert!(fires(&mut p, 6_000, 0));
        assert_eq!(p.next(), None);
        assert!(!fires(&mut p, u64::MAX, 0));
    }

    #[test]
    fn clock_comparison_never_round_trips_through_f64() {
        // 2^53 + 1 ns is not representable as f64 nanoseconds; converting
        // the published u64 clock to f64 seconds before comparing
        // collapses clock values in this range. The threshold must
        // distinguish one nanosecond below itself. (Thresholds *supplied*
        // as VTime are still f64-granular; this pins the clock side only.)
        let big = (1u64 << 53) + 2;
        let mut p = VirtualTimeSchedule {
            thresholds_ns: vec![big],
            next: 0,
        };
        assert_eq!(p.next(), Some(Threshold::Clock(big)));
        assert!(!fires(&mut p, big - 1, 0));
        assert!(fires(&mut p, big, 0));
    }

    #[test]
    fn periodic_fires_every_interval() {
        let mut p = PeriodicInterval::new(VTime::from_micros(10.0), 3);
        assert!(!fires(&mut p, 9_999, 0));
        assert!(fires(&mut p, 10_000, 0));
        assert!(!fires(&mut p, 15_000, 0));
        // The run resumes late (a write charge carried the clocks past
        // 20 µs and 30 µs): the next deadline counts from the resume, not
        // from the missed multiples, so nothing fires back to back.
        assert!(fires(&mut p, 34_000, 0));
        assert_eq!(p.next(), Some(Threshold::Clock(44_000)));
        assert!(!fires(&mut p, 43_999, 0));
        assert!(fires(&mut p, 44_000, 0));
        assert_eq!(p.next(), None, "limit reached");
        assert!(!fires(&mut p, u64::MAX, 0));
    }

    #[test]
    fn every_n_collectives_counts_strides() {
        let mut p = EveryNCollectives::new(25, 2);
        assert!(!fires(&mut p, 0, 24));
        assert!(fires(&mut p, 0, 25));
        assert!(!fires(&mut p, 0, 49));
        assert!(fires(&mut p, 0, 50));
        assert_eq!(p.next(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = PeriodicInterval::new(VTime::ZERO, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stride_rejected() {
        let _ = EveryNCollectives::new(0, 1);
    }

    #[test]
    fn daly_first_fire_matches_closed_form_over_grid() {
        // The first deadline must sit exactly at sqrt(2·δ·MTBF) for a
        // grid of write-cost / MTBF pairs spanning the bench sweep.
        for &delta in &[0.5f64, 13.0, 120.0, 398.0] {
            for &mtbf in &[60.0f64, 3_600.0, 86_400.0, 1.0e7] {
                let opt_s = (2.0 * delta * mtbf).sqrt();
                assert_eq!(young_daly_interval_s(delta, mtbf), opt_s);
                let due_ns = (opt_s * 1e9) as u64;
                let mut p = DalyInterval::new(mtbf, delta);
                assert_eq!(p.next(), Some(Threshold::Clock(due_ns)));
                assert!(
                    !fires(&mut p, due_ns - 1, 0),
                    "fired early at δ={delta} MTBF={mtbf}"
                );
                assert!(
                    fires(&mut p, due_ns, 0),
                    "missed the optimum at δ={delta} MTBF={mtbf}"
                );
            }
        }
    }

    #[test]
    fn daly_rearms_from_measured_write_cost() {
        // δ starts at 2 s; the first generation is then measured at 8 s,
        // so the second interval must be sqrt(2·8·MTBF) — twice the
        // first — counted from the fire point.
        let mtbf = 10_000.0;
        let first = (2.0f64 * 2.0 * mtbf).sqrt();
        let second = (2.0f64 * 8.0 * mtbf).sqrt();
        assert_eq!(second, 2.0 * first);
        let mut p = DalyInterval::new(mtbf, 2.0);
        let t1 = (first * 1e9) as u64;
        assert_eq!(p.next(), Some(Threshold::Clock(t1)));
        p.fired(t1, 8.0);
        assert_eq!(p.interval_s(), second);
        let due2 = t1 + (second * 1e9) as u64;
        assert!(!fires(&mut p, due2 - 1, 0));
        assert!(fires(&mut p, due2, 0));
    }

    #[test]
    fn daly_infinite_mtbf_never_fires() {
        // MTBF = ∞ degenerates to the NeverTrigger contract: exhausted
        // from birth, never fires, even at the end of time.
        let mut p = DalyInterval::new(f64::INFINITY, 13.0);
        assert_eq!(p.next(), None);
        assert!(!fires(&mut p, u64::MAX, u64::MAX));
        assert_eq!(p.interval_s(), f64::INFINITY);
        // A zero cost estimate is fine when failures never happen…
        assert_eq!(DalyInterval::new(f64::INFINITY, 0.0).next(), None);
    }

    #[test]
    #[should_panic(expected = "write-cost estimate must be positive")]
    fn daly_rejects_zero_cost_with_finite_mtbf() {
        let _ = DalyInterval::new(3_600.0, 0.0);
    }

    #[test]
    fn rotation_visits_all_levels() {
        let s = TierSchedule::Rotation {
            partner_every: 2,
            lustre_every: 4,
        };
        let tiers: Vec<CkptTier> = (0..8).map(|i| s.tier_for(i)).collect();
        assert_eq!(
            tiers,
            vec![
                CkptTier::Memory,
                CkptTier::Partner,
                CkptTier::Memory,
                CkptTier::Lustre,
                CkptTier::Memory,
                CkptTier::Partner,
                CkptTier::Memory,
                CkptTier::Lustre,
            ]
        );
        // Zero strides disable a level rather than dividing by zero.
        let mem_only = TierSchedule::Rotation {
            partner_every: 0,
            lustre_every: 0,
        };
        assert!((0..16).all(|i| mem_only.tier_for(i) == CkptTier::Memory));
        assert_eq!(
            TierSchedule::Fixed(CkptTier::Partner).tier_for(7),
            CkptTier::Partner
        );
    }

    #[test]
    fn delta_policy_anchors_every_k() {
        let p = DeltaPolicy::FullEvery(4);
        let wants: Vec<bool> = (0..8).map(|i| p.wants_delta(i)).collect();
        assert_eq!(
            wants,
            vec![false, true, true, true, false, true, true, true]
        );
        assert!(!DeltaPolicy::Never.wants_delta(3));
        // FullEvery(0) is treated as "always full", not a modulo panic.
        assert!(!DeltaPolicy::FullEvery(0).wants_delta(5));
    }
}
