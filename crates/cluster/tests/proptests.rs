//! Property-based tests of the cluster substrate.

use proptest::prelude::*;
use sketchml_cluster::worker::partition;
use sketchml_cluster::NetworkModel;

proptest! {
    /// Partition covers every index exactly once, in order, with balanced
    /// slice sizes (max - min <= 1).
    #[test]
    fn partition_is_a_balanced_cover(n in 0usize..500, workers in 1usize..64) {
        let idx: Vec<usize> = (0..n).collect();
        let parts = partition(&idx, workers);
        prop_assert_eq!(parts.len(), workers);
        let flat: Vec<usize> = parts.concat();
        prop_assert_eq!(flat, idx);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        let max = sizes.iter().copied().max().unwrap_or(0);
        let min = sizes.iter().copied().min().unwrap_or(0);
        prop_assert!(max - min <= 1, "unbalanced: {sizes:?}");
    }

    /// Transfer time is monotone in bytes and bounded below by latency.
    #[test]
    fn transfer_time_monotone(a in 0usize..10_000_000, b in 0usize..10_000_000) {
        let net = NetworkModel::cluster1();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(net.transfer_time(lo) <= net.transfer_time(hi));
        prop_assert!(net.transfer_time(lo) >= net.latency);
    }
}
