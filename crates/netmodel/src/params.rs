//! Network and interposition cost parameters.
//!
//! The parameters are calibrated so that the *shape* of the paper's results
//! reproduces: latency-bound collectives on a Slingshot-11-class network run
//! at hundreds of thousands of operations per second (Table 1's OSU entry),
//! so any per-operation synchronization penalty (2PC's inserted barrier) is
//! catastrophic, while a local counter increment (the CC algorithm) is free.
//!
//! Jitter deserves a note: real HPC nodes experience OS noise of a few
//! microseconds per scheduling quantum. A *synchronizing* operation takes the
//! max over all participants' arrival times, so its cost grows with the
//! expected maximum of `p` jitter samples — stragglers are amplified. A
//! *pipelined* operation absorbs jitter in slack. This asymmetry is why the
//! paper measures >100% overhead for 2PC on `MPI_Bcast` at 2048 ranks and
//! near-zero for CC. Jitter here is deterministic: sampled by hashing
//! `(seed, instance, rank)` through a SplitMix64 generator.

/// Cost parameters for the simulated network and the interposition layer.
#[derive(Debug, Clone, PartialEq)]
pub struct NetParams {
    /// One-way latency between ranks on the same node (seconds).
    pub alpha_intra: f64,
    /// One-way latency between ranks on different nodes (seconds).
    pub alpha_inter: f64,
    /// Seconds per byte on-node (shared-memory copy).
    pub beta_intra: f64,
    /// Seconds per byte across the network.
    pub beta_inter: f64,
    /// CPU cost to reduce one byte (used by reduction collectives).
    pub gamma_reduce: f64,
    /// Per-message send/injection overhead charged to the sender (seconds).
    pub send_overhead: f64,
    /// Scale of per-operation OS jitter (seconds); exponential distribution.
    pub jitter_sigma: f64,
    /// Cost of one interposed wrapper call in the upper half: a virtualized
    /// handle lookup plus a `SEQ[ggid]` increment (the CC fast path).
    pub wrapper_overhead: f64,
    /// Cost of one `MPI_Test`/`MPI_Iprobe` poll through the wrapper.
    pub poll_overhead: f64,
    /// RNG seed for jitter.
    pub jitter_seed: u64,
}

/// Named presets for `NetParams`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetPreset {
    /// HPE Slingshot-11-class: ~2 µs inter-node latency, 25 GB/s NIC,
    /// sub-microsecond on-node. The paper's Perlmutter testbed.
    Slingshot11,
    /// OFED InfiniBand-class (the 2000s-era target of BLCR-based efforts).
    InfiniBand,
    /// Commodity Ethernet-class.
    Ethernet,
    /// Zero-latency, zero-jitter network for unit tests: all costs collapse
    /// so virtual-time assertions become exact.
    Ideal,
}

impl NetParams {
    /// Builds the parameter set for a preset.
    pub fn preset(p: NetPreset) -> Self {
        match p {
            NetPreset::Slingshot11 => NetParams {
                alpha_intra: 0.25e-6,
                alpha_inter: 1.8e-6,
                beta_intra: 1.0 / 60e9,
                beta_inter: 1.0 / 22e9,
                gamma_reduce: 1.0 / 8e9,
                send_overhead: 0.15e-6,
                jitter_sigma: 0.8e-6,
                wrapper_overhead: 45e-9,
                poll_overhead: 60e-9,
                jitter_seed: 0x0005_1176_5107,
            },
            NetPreset::InfiniBand => NetParams {
                alpha_intra: 0.4e-6,
                alpha_inter: 4.0e-6,
                beta_intra: 1.0 / 20e9,
                beta_inter: 1.0 / 6e9,
                gamma_reduce: 1.0 / 4e9,
                send_overhead: 0.3e-6,
                jitter_sigma: 1.5e-6,
                wrapper_overhead: 45e-9,
                poll_overhead: 60e-9,
                jitter_seed: 0x1B,
            },
            NetPreset::Ethernet => NetParams {
                alpha_intra: 0.5e-6,
                alpha_inter: 25e-6,
                beta_intra: 1.0 / 10e9,
                beta_inter: 1.0 / 1.2e9,
                gamma_reduce: 1.0 / 4e9,
                send_overhead: 1.0e-6,
                jitter_sigma: 4e-6,
                wrapper_overhead: 45e-9,
                poll_overhead: 60e-9,
                jitter_seed: 0xE7E7,
            },
            NetPreset::Ideal => NetParams {
                alpha_intra: 0.0,
                alpha_inter: 0.0,
                beta_intra: 0.0,
                beta_inter: 0.0,
                gamma_reduce: 0.0,
                send_overhead: 0.0,
                jitter_sigma: 0.0,
                wrapper_overhead: 0.0,
                poll_overhead: 0.0,
                jitter_seed: 0,
            },
        }
    }

    /// Default parameters: the paper's testbed class.
    pub fn slingshot11() -> Self {
        Self::preset(NetPreset::Slingshot11)
    }

    /// Zero-cost network for exact unit-test arithmetic.
    pub fn ideal() -> Self {
        Self::preset(NetPreset::Ideal)
    }

    /// Returns a copy with jitter disabled (ablation: "noiseless network").
    pub fn without_jitter(mut self) -> Self {
        self.jitter_sigma = 0.0;
        self
    }

    /// One-way latency between two world ranks under `topo`.
    #[inline]
    pub fn alpha(&self, topo: &crate::Topology, a: usize, b: usize) -> f64 {
        if topo.same_node(a, b) {
            self.alpha_intra
        } else {
            self.alpha_inter
        }
    }

    /// Per-byte cost between two world ranks under `topo`.
    #[inline]
    pub fn beta(&self, topo: &crate::Topology, a: usize, b: usize) -> f64 {
        if topo.same_node(a, b) {
            self.beta_intra
        } else {
            self.beta_inter
        }
    }

    /// Deterministic exponential jitter sample for `(instance, rank)`.
    ///
    /// Mean = `jitter_sigma`. Uses SplitMix64 over the combined key, so the
    /// sample is independent of thread-scheduling order.
    #[inline]
    pub fn jitter(&self, instance: u64, rank: usize) -> f64 {
        if self.jitter_sigma == 0.0 {
            return 0.0;
        }
        let mut x = self
            .jitter_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(instance)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(rank as u64);
        // SplitMix64 finalizer.
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // Map to (0,1], then exponential with mean sigma.
        let u = ((x >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        -self.jitter_sigma * u.ln()
    }
}

impl Default for NetParams {
    fn default() -> Self {
        Self::slingshot11()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn presets_sane() {
        for p in [
            NetPreset::Slingshot11,
            NetPreset::InfiniBand,
            NetPreset::Ethernet,
        ] {
            let n = NetParams::preset(p);
            assert!(n.alpha_inter > n.alpha_intra, "{p:?}");
            assert!(n.beta_inter > n.beta_intra, "{p:?}");
            assert!(n.jitter_sigma > 0.0);
        }
        let ideal = NetParams::ideal();
        assert_eq!(ideal.alpha_inter, 0.0);
        assert_eq!(ideal.jitter(42, 3), 0.0);
    }

    #[test]
    fn alpha_beta_respect_topology() {
        let p = NetParams::slingshot11();
        let t = Topology::new(256, 128);
        assert_eq!(p.alpha(&t, 0, 1), p.alpha_intra);
        assert_eq!(p.alpha(&t, 0, 200), p.alpha_inter);
        assert_eq!(p.beta(&t, 5, 6), p.beta_intra);
        assert_eq!(p.beta(&t, 5, 129), p.beta_inter);
    }

    #[test]
    fn jitter_deterministic_and_positive() {
        let p = NetParams::slingshot11();
        let a = p.jitter(7, 3);
        let b = p.jitter(7, 3);
        assert_eq!(a, b);
        assert!(a > 0.0);
        // Different keys give different samples (overwhelmingly).
        assert_ne!(p.jitter(7, 3), p.jitter(7, 4));
        assert_ne!(p.jitter(7, 3), p.jitter(8, 3));
    }

    #[test]
    fn jitter_mean_close_to_sigma() {
        let p = NetParams::slingshot11();
        let n = 20_000;
        let sum: f64 = (0..n).map(|i| p.jitter(i, 0)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - p.jitter_sigma).abs() < 0.05 * p.jitter_sigma,
            "mean {mean} vs sigma {}",
            p.jitter_sigma
        );
    }

    #[test]
    fn without_jitter_zeroes_sigma() {
        let p = NetParams::slingshot11().without_jitter();
        assert_eq!(p.jitter(1, 1), 0.0);
    }
}
