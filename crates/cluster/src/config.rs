//! Simulated-cluster configuration (paper §4.1 "Clusters" and "Protocol").

use crate::network::CostModel;
use serde::{Deserialize, Serialize};
use sketchml_collectives::Topology;
use sketchml_core::CompressError;

/// Configuration of one simulated training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of workers (executors) `W`.
    pub workers: usize,
    /// Cost model (network + compute).
    pub cost: CostModel,
    /// Mini-batch size as a fraction of the training set (§4.1: 10%).
    pub batch_ratio: f64,
    /// How worker gradients are aggregated by [`crate::train_allreduce`]:
    /// the default [`Topology::Star`] funnels everything through the
    /// driver, [`Topology::Ring`] and [`Topology::Tree`] merge compressed
    /// payloads peer-to-peer. Only the collective reads it
    /// ([`crate::train_allreduce`], or [`crate::train_glm`] with
    /// [`crate::Aggregation::Collective`]), but every run validates it: a
    /// [`crate::train_distributed`] run on fewer workers than the topology
    /// needs is an [`sketchml_core::CompressError::InvalidConfig`] too.
    pub topology: Topology,
}

impl ClusterConfig {
    /// §4.2's setting: Cluster-1 with ten executors.
    pub fn cluster1(workers: usize) -> Self {
        ClusterConfig {
            workers: workers.max(1),
            cost: CostModel::cluster1(),
            batch_ratio: 0.1,
            topology: Topology::Star,
        }
    }

    /// §4.3's setting: Cluster-2 (production, congested).
    pub fn cluster2(workers: usize) -> Self {
        ClusterConfig {
            workers: workers.max(1),
            cost: CostModel::cluster2(),
            batch_ratio: 0.1,
            topology: Topology::Star,
        }
    }

    /// Single-node execution (Figure 12's SkLearn stand-in): one worker,
    /// zero network cost.
    pub fn single_node() -> Self {
        let mut cost = CostModel::cluster1();
        cost.network.bandwidth = f64::INFINITY;
        cost.network.latency = 0.0;
        ClusterConfig {
            workers: 1,
            cost,
            batch_ratio: 0.1,
            topology: Topology::Star,
        }
    }

    /// Overrides the batch ratio (Figure 8(d) sweeps 0.1 → 0.01).
    pub fn with_batch_ratio(mut self, ratio: f64) -> Self {
        self.batch_ratio = ratio;
        self
    }

    /// Selects the aggregation topology used by [`crate::train_allreduce`].
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Validates the configuration, returning a typed error instead of
    /// letting bad values surface as panics deep inside a training loop.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] naming the offending field: zero
    /// workers, too few workers for the chosen topology, a batch ratio
    /// outside `(0, 1]`, a non-positive bandwidth, a negative or non-finite
    /// latency or compute constant in the cost model.
    pub fn validate(&self) -> Result<(), CompressError> {
        if self.workers == 0 {
            return Err(CompressError::InvalidConfig(
                "cluster: workers must be at least 1".into(),
            ));
        }
        if self.workers < self.topology.min_workers() {
            return Err(CompressError::InvalidConfig(format!(
                "cluster: {} topology needs at least {} workers, got {}",
                self.topology.name(),
                self.topology.min_workers(),
                self.workers
            )));
        }
        if !self.batch_ratio.is_finite() || self.batch_ratio <= 0.0 || self.batch_ratio > 1.0 {
            return Err(CompressError::InvalidConfig(format!(
                "cluster: batch_ratio {} must be in (0, 1]",
                self.batch_ratio
            )));
        }
        let net = &self.cost.network;
        if net.bandwidth <= 0.0 || net.bandwidth.is_nan() {
            return Err(CompressError::InvalidConfig(format!(
                "cluster: bandwidth {} must be positive",
                net.bandwidth
            )));
        }
        if !net.latency.is_finite() || net.latency < 0.0 {
            return Err(CompressError::InvalidConfig(format!(
                "cluster: latency {} must be finite and non-negative",
                net.latency
            )));
        }
        for (name, v) in [
            ("sec_per_feature_op", self.cost.sec_per_feature_op),
            ("sec_per_codec_pair", self.cost.sec_per_codec_pair),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(CompressError::InvalidConfig(format!(
                    "cluster: {name} {v} must be finite and non-negative"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let c1 = ClusterConfig::cluster1(10);
        assert_eq!(c1.workers, 10);
        assert_eq!(c1.batch_ratio, 0.1);
        let c2 = ClusterConfig::cluster2(50);
        assert_eq!(c2.workers, 50);
        let single = ClusterConfig::single_node();
        assert_eq!(single.workers, 1);
        assert_eq!(single.cost.network.transfer_time(1_000_000), 0.0);
    }

    #[test]
    fn topology_needs_enough_workers() {
        for t in [Topology::Ring, Topology::Tree] {
            assert!(ClusterConfig::cluster1(1)
                .with_topology(t)
                .validate()
                .is_err());
            assert!(ClusterConfig::cluster1(2)
                .with_topology(t)
                .validate()
                .is_ok());
        }
        assert!(ClusterConfig::cluster1(1).validate().is_ok());
    }

    #[test]
    fn zero_workers_clamped() {
        assert_eq!(ClusterConfig::cluster1(0).workers, 1);
    }

    #[test]
    fn batch_ratio_override() {
        let c = ClusterConfig::cluster1(10).with_batch_ratio(0.01);
        assert_eq!(c.batch_ratio, 0.01);
    }

    #[test]
    fn validate_catches_bad_fields() {
        assert!(ClusterConfig::cluster1(4).validate().is_ok());
        assert!(ClusterConfig::single_node().validate().is_ok());
        let mut c = ClusterConfig::cluster1(4);
        c.workers = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::cluster1(4);
        c.batch_ratio = 0.0;
        assert!(c.validate().is_err());
        c.batch_ratio = 1.5;
        assert!(c.validate().is_err());
        c.batch_ratio = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::cluster1(4);
        c.cost.network.bandwidth = 0.0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::cluster1(4);
        c.cost.network.latency = -1.0;
        assert!(c.validate().is_err());
        for bad in [f64::NAN, f64::INFINITY, -1e-9] {
            let mut c = ClusterConfig::cluster1(4);
            c.cost.sec_per_feature_op = bad;
            let err = c.validate().unwrap_err().to_string();
            assert!(err.contains("sec_per_feature_op"), "{err}");
            let mut c = ClusterConfig::cluster1(4);
            c.cost.sec_per_codec_pair = bad;
            let err = c.validate().unwrap_err().to_string();
            assert!(err.contains("sec_per_codec_pair"), "{err}");
        }
    }
}
