//! A tiny deterministic PRNG (SplitMix64) so workloads need no external
//! `rand` dependency and every schedule is reproducible from a seed.

/// SplitMix64's increment: each draw adds it to the state.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// `GAMMA`'s inverse modulo 2⁶⁴ (it is odd, so it has one): an odd
/// number is its own inverse to three bits, and each Newton step doubles
/// the correct bits.
const GAMMA_INV: u64 = {
    let mut x = GAMMA;
    let mut i = 0;
    while i < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(GAMMA.wrapping_mul(x)));
        i += 1;
    }
    x
};

/// SplitMix64: fast, well-distributed, and trivially seedable.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// How many values the generator seeded with `seed` has drawn to be
    /// here: its whole state, given the seed, in a small number (how a
    /// checkpointed body saves its generator).
    pub fn draws_since(&self, seed: u64) -> u64 {
        self.state.wrapping_sub(seed).wrapping_mul(GAMMA_INV)
    }

    /// The generator seeded with `seed` after `draws` values.
    pub fn after(seed: u64, draws: u64) -> Self {
        SplitMix64 {
            state: seed.wrapping_add(draws.wrapping_mul(GAMMA)),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn next_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // small ranges workload schedules use.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn a_generator_is_its_seed_and_its_draw_count() {
        assert_eq!(GAMMA.wrapping_mul(GAMMA_INV), 1);
        let mut a = SplitMix64::new(42);
        for _ in 0..37 {
            a.next_u64();
        }
        assert_eq!(a.draws_since(42), 37);
        let mut b = SplitMix64::after(42, 37);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.next_range(13) < 13);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_values() {
        let mut r = SplitMix64::new(1);
        let mut seen = [false; 8];
        for _ in 0..200 {
            seen[r.next_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
    }
}
