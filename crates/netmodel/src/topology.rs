//! Cluster topology: the mapping from world ranks to physical nodes.
//!
//! The paper's experiments run on Perlmutter CPU nodes with 128 MPI
//! processes per node; runtime overhead depends on whether communication
//! crosses a node boundary (Figure 8's dip at 256 processes is explained by
//! exactly this). `Topology` captures the rank→node mapping used by every
//! cost function in this crate.

/// Block mapping of world ranks onto nodes: ranks `[0, rpn)` on node 0,
/// `[rpn, 2·rpn)` on node 1, and so on (the standard SLURM block layout the
/// paper uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n_ranks: usize,
    ranks_per_node: usize,
    /// `⌈2⁶⁴ / ranks_per_node⌉`, so that [`Topology::node_of`] is one
    /// multiply-high instead of a division: exact for every rank and
    /// node size below 2³² (Lemire, Kaser and Kurz, "Faster remainder by
    /// direct computation", 2019). 0 when a node holds one rank.
    recip: u64,
}

impl Topology {
    /// Creates a topology with `n_ranks` total ranks and `ranks_per_node`
    /// ranks packed per node.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(n_ranks: usize, ranks_per_node: usize) -> Self {
        assert!(n_ranks > 0, "topology needs at least one rank");
        assert!(ranks_per_node > 0, "ranks_per_node must be positive");
        let recip = match ranks_per_node {
            1 => 0,
            d => u64::MAX / d as u64 + 1,
        };
        Topology {
            n_ranks,
            ranks_per_node,
            recip,
        }
    }

    /// A single-node topology (everything is intra-node).
    pub fn single_node(n_ranks: usize) -> Self {
        Self::new(n_ranks, n_ranks.max(1))
    }

    /// Perlmutter-style topology: 128 ranks per CPU node.
    pub fn perlmutter(n_ranks: usize) -> Self {
        Self::new(n_ranks, 128)
    }

    /// Total number of ranks.
    #[inline]
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Ranks per node.
    #[inline]
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Number of nodes occupied (ceiling division).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_ranks.div_ceil(self.ranks_per_node)
    }

    /// The node hosting `rank`.
    ///
    /// # Panics
    /// Debug-panics if `rank` is out of range.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.n_ranks, "rank {rank} out of range");
        match (
            self.recip,
            u32::try_from(rank),
            u32::try_from(self.ranks_per_node),
        ) {
            (0, ..) => rank,
            (m, Ok(r), Ok(_)) => ((u128::from(m) * u128::from(r)) >> 64) as usize,
            _ => rank / self.ranks_per_node,
        }
    }

    /// Whether two ranks share a physical node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Fraction of *ordered* rank pairs in `ranks` that cross a node
    /// boundary; 0.0 for a single rank. Used to blend intra/inter costs for
    /// dense collectives such as `MPI_Alltoall`.
    ///
    /// Same-node pairs are counted per node as `c·(c−1)`. A list whose
    /// nodes never decrease (every block-mapped group in group order) is
    /// counted in one run-length pass; any other order is counted the same
    /// way over a sorted copy of its node ids. The counts are integers, so
    /// the result does not depend on which pass ran.
    pub fn inter_node_fraction(&self, ranks: &[usize]) -> f64 {
        let p = ranks.len();
        if p < 2 {
            return 0.0;
        }
        let nodes = ranks.iter().map(|&r| self.node_of(r));
        let same_pairs = same_node_pairs(nodes.clone()).unwrap_or_else(|| {
            let mut sorted: Vec<usize> = nodes.collect();
            sorted.sort_unstable();
            same_node_pairs(sorted.into_iter()).expect("sorted node ids never decrease")
        });
        let total_pairs = p * (p - 1);
        let cross = total_pairs - same_pairs;
        cross as f64 / total_pairs as f64
    }
}

/// Ordered same-node pairs of a node-id sequence that never decreases
/// (`Σ c·(c−1)` over its runs); `None` at the first decrease.
fn same_node_pairs(mut nodes: impl Iterator<Item = usize>) -> Option<usize> {
    let Some(mut node) = nodes.next() else {
        return Some(0);
    };
    let (mut run, mut pairs) = (1usize, 0usize);
    for n in nodes {
        if n == node {
            run += 1;
            continue;
        }
        if n < node {
            return None;
        }
        pairs += run * (run - 1);
        (node, run) = (n, 1);
    }
    Some(pairs + run * (run - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping() {
        let t = Topology::new(256, 128);
        assert_eq!(t.n_nodes(), 2);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(127), 0);
        assert_eq!(t.node_of(128), 1);
        assert!(t.same_node(0, 127));
        assert!(!t.same_node(127, 128));
    }

    #[test]
    fn node_of_is_the_quotient() {
        for rpn in [1, 2, 3, 7, 64, 100, 128, 1000, 4096, 65_537] {
            let t = Topology::new(1 << 20, rpn);
            let probes = (0..5000).chain((1 << 20) - 5000..1 << 20);
            for r in probes.chain((0..1 << 20).step_by(997)) {
                assert_eq!(t.node_of(r), r / rpn, "rank {r}, {rpn} per node");
            }
        }
        let big = Topology::new(usize::MAX, 3);
        assert_eq!(
            big.node_of(u32::MAX as usize + 7),
            (u32::MAX as usize + 7) / 3
        );
    }

    #[test]
    fn uneven_last_node() {
        let t = Topology::new(200, 128);
        assert_eq!(t.n_nodes(), 2);
        assert_eq!(t.node_of(199), 1);
    }

    #[test]
    fn single_node_everything_local() {
        let t = Topology::single_node(64);
        assert_eq!(t.n_nodes(), 1);
        assert!(t.same_node(0, 63));
        assert_eq!(t.inter_node_fraction(&(0..64).collect::<Vec<_>>()), 0.0);
    }

    #[test]
    fn inter_node_fraction_two_nodes() {
        let t = Topology::new(4, 2);
        // ranks 0,1 on node 0; 2,3 on node 1. Ordered pairs: 12 total,
        // same-node: (0,1),(1,0),(2,3),(3,2) = 4 → cross = 8/12.
        let f = t.inter_node_fraction(&[0, 1, 2, 3]);
        assert!((f - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn inter_node_fraction_degenerate() {
        let t = Topology::new(8, 4);
        assert_eq!(t.inter_node_fraction(&[3]), 0.0);
        assert_eq!(t.inter_node_fraction(&[]), 0.0);
    }

    #[test]
    fn inter_node_fraction_matches_brute_force_pair_count() {
        // Every member-list shape a caller can pass: contiguous, strided,
        // reordered (nodes interleaved and decreasing) and one per node.
        let t = Topology::new(64, 8);
        let brute = |ranks: &[usize]| {
            let p = ranks.len();
            if p < 2 {
                return 0.0;
            }
            let mut cross = 0usize;
            for (i, &a) in ranks.iter().enumerate() {
                for (j, &b) in ranks.iter().enumerate() {
                    cross += usize::from(i != j && !t.same_node(a, b));
                }
            }
            cross as f64 / (p * (p - 1)) as f64
        };
        let mut reordered: Vec<usize> = (0..64).rev().collect();
        reordered.swap(3, 40);
        let lists: Vec<Vec<usize>> = vec![
            (0..64).collect(),
            (5..29).collect(),
            (0..64).step_by(3).collect(),
            (1..64).step_by(8).collect(),
            (0..64).step_by(8).collect(),
            reordered,
            vec![9, 0, 10, 1, 63],
            vec![17, 16],
            vec![40],
        ];
        for ranks in &lists {
            let f = t.inter_node_fraction(ranks);
            assert_eq!(f.to_bits(), brute(ranks).to_bits(), "{ranks:?}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        let _ = Topology::new(0, 4);
    }
}
