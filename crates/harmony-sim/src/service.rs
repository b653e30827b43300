//! Per-node service-time models for the replica processing stages.
//!
//! The paper's saturation behaviour (Figures 5(c)/(d)) is driven by the write
//! stage of individual replicas running out of service capacity. Reproducing
//! it in-sim needs more than a single cluster-wide mean: each node has its own
//! mean service time (heterogeneous hardware, noisy neighbours on EC2) and
//! the service-time *distribution* shape controls how bursty the queueing is
//! (the M/G/1 wait scales with `1 + c²`, the squared coefficient of
//! variation).
//!
//! [`ServiceModel`] captures both: an Erlang-`k` distribution per node —
//! `k = 1` is the exponential service the store always modelled, larger `k`
//! approaches deterministic service (`c² = 1/k`) — with optional per-node
//! mean multipliers. Sampling draws from the caller's RNG only, so the same
//! seed reproduces the same service times event for event.

use crate::clock::SimTime;
use crate::topology::NodeId;
use rand::Rng;

/// A per-node Erlang service-time model.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceModel {
    /// Baseline mean service time in milliseconds.
    pub mean_ms: f64,
    /// Erlang shape `k ≥ 1`: the sample is the sum of `k` exponentials with
    /// mean `mean/k`, so the squared coefficient of variation is `1/k`.
    /// `k = 1` is exponential service.
    pub shape: u32,
    /// Per-node multiplicative factors on the mean; nodes beyond the vector's
    /// length (or an empty vector) use factor 1.0. A factor above 1 models a
    /// straggler node, below 1 a faster one.
    pub node_factors: Vec<f64>,
}

impl ServiceModel {
    /// Exponential service with the given mean (the store's historical
    /// behaviour).
    pub fn exponential_ms(mean_ms: f64) -> Self {
        ServiceModel {
            mean_ms: mean_ms.max(0.0),
            shape: 1,
            node_factors: Vec::new(),
        }
    }

    /// Erlang-`k` service: mean `mean_ms`, squared coefficient of variation
    /// `1/k`. A shape of zero is clamped to 1.
    pub fn erlang_ms(mean_ms: f64, shape: u32) -> Self {
        ServiceModel {
            mean_ms: mean_ms.max(0.0),
            shape: shape.max(1),
            node_factors: Vec::new(),
        }
    }

    /// Attaches per-node mean multipliers (negative factors are clamped to 0).
    pub fn with_node_factors(mut self, factors: Vec<f64>) -> Self {
        self.node_factors = factors.into_iter().map(|f| f.max(0.0)).collect();
        self
    }

    /// The squared coefficient of variation `c² = 1/k` of the distribution.
    pub fn scv(&self) -> f64 {
        1.0 / self.shape.max(1) as f64
    }

    /// The mean service time for a specific node (ms), after its factor.
    pub fn mean_ms_for(&self, node: NodeId) -> f64 {
        let factor = self
            .node_factors
            .get(node.index())
            .copied()
            .unwrap_or(1.0)
            .max(0.0);
        self.mean_ms * factor
    }

    /// Samples one service time for `node`. Draws exactly `shape` uniforms
    /// from `rng` (zero when the node's mean is zero would still draw, so the
    /// event trace stays aligned across configurations with equal shapes).
    pub fn sample<R: Rng>(&self, node: NodeId, rng: &mut R) -> SimTime {
        let shape = self.shape.max(1);
        let mean = self.mean_ms_for(node);
        let stage_mean = mean / shape as f64;
        let mut total_ms = 0.0;
        for _ in 0..shape {
            let u: f64 = rng.gen();
            total_ms += -(1.0 - u).ln() * stage_mean;
        }
        if total_ms <= 0.0 {
            SimTime::ZERO
        } else {
            SimTime::from_millis_f64(total_ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_model_matches_legacy_parameters() {
        let m = ServiceModel::exponential_ms(0.4);
        assert_eq!(m.shape, 1);
        assert_eq!(m.scv(), 1.0);
        assert_eq!(m.mean_ms_for(NodeId(3)), 0.4);
    }

    #[test]
    fn erlang_shape_reduces_variability() {
        assert_eq!(ServiceModel::erlang_ms(1.0, 4).scv(), 0.25);
        assert_eq!(ServiceModel::erlang_ms(1.0, 0).shape, 1);
    }

    #[test]
    fn node_factors_scale_per_node_means() {
        let m = ServiceModel::exponential_ms(1.0).with_node_factors(vec![1.0, 2.0, -3.0]);
        assert_eq!(m.mean_ms_for(NodeId(0)), 1.0);
        assert_eq!(m.mean_ms_for(NodeId(1)), 2.0);
        assert_eq!(m.mean_ms_for(NodeId(2)), 0.0); // clamped
        assert_eq!(m.mean_ms_for(NodeId(9)), 1.0); // beyond the vector
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = ServiceModel::erlang_ms(0.5, 3).with_node_factors(vec![1.0, 1.5]);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for node in [NodeId(0), NodeId(1), NodeId(0)] {
            assert_eq!(m.sample(node, &mut a), m.sample(node, &mut b));
        }
    }

    #[test]
    fn sample_means_converge() {
        let m = ServiceModel::erlang_ms(2.0, 4).with_node_factors(vec![1.0, 0.5]);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mean_of = |node: NodeId, rng: &mut StdRng| {
            (0..n)
                .map(|_| m.sample(node, rng).as_millis_f64())
                .sum::<f64>()
                / n as f64
        };
        let m0 = mean_of(NodeId(0), &mut rng);
        let m1 = mean_of(NodeId(1), &mut rng);
        assert!((m0 - 2.0).abs() < 0.05, "m0={m0}");
        assert!((m1 - 1.0).abs() < 0.05, "m1={m1}");
    }

    #[test]
    fn erlang_concentrates_around_the_mean() {
        // Larger shape ⇒ smaller sample variance at the same mean.
        let mut rng = StdRng::seed_from_u64(7);
        let var_of = |shape: u32, rng: &mut StdRng| {
            let m = ServiceModel::erlang_ms(1.0, shape);
            let samples: Vec<f64> = (0..20_000)
                .map(|_| m.sample(NodeId(0), rng).as_millis_f64())
                .collect();
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64
        };
        let v1 = var_of(1, &mut rng);
        let v8 = var_of(8, &mut rng);
        assert!(v8 < v1 / 4.0, "v1={v1} v8={v8}");
    }

    #[test]
    fn zero_mean_yields_zero_service() {
        let m = ServiceModel::exponential_ms(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample(NodeId(0), &mut rng), SimTime::ZERO);
    }
}
