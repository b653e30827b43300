//! Consistency policies: the Harmony adaptive policy and the static baselines
//! the paper compares against.

use harmony_model::decision::{decide_with_estimate, ConsistencyDecision};
use harmony_model::queueing::StalenessEstimate;
use harmony_model::staleness::StaleReadModel;
use harmony_store::consistency::ConsistencyLevel;

/// The run-time information a policy may consult when picking a read level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyContext {
    /// Monitored read rate (operations/second).
    pub read_rate: f64,
    /// Monitored write/update rate (operations/second).
    pub write_rate: f64,
    /// Mean of the estimated update propagation time `Tp` in seconds (kept in
    /// sync with `staleness.tp_mean_secs()`).
    pub tp_secs: f64,
    /// The full propagation-time distribution plus write-stage queue health;
    /// policies that model staleness should consume this rather than the
    /// scalar `tp_secs`.
    pub staleness: StalenessEstimate,
    /// Replication factor of the store.
    pub replication_factor: usize,
}

impl PolicyContext {
    /// A context describing an idle system.
    pub fn idle(replication_factor: usize) -> Self {
        PolicyContext::from_rates(0.0, 0.0, 0.0, replication_factor)
    }

    /// A context with a point-mass (zero-spread) propagation time — the
    /// scalar model's view of the world.
    pub fn from_rates(
        read_rate: f64,
        write_rate: f64,
        tp_secs: f64,
        replication_factor: usize,
    ) -> Self {
        PolicyContext {
            read_rate,
            write_rate,
            tp_secs,
            staleness: StalenessEstimate::deterministic(tp_secs),
            replication_factor,
        }
    }
}

/// A strategy that picks the consistency level for upcoming read operations.
pub trait ConsistencyPolicy: Send {
    /// A short, stable name used in experiment reports (e.g. `"harmony-20"`).
    fn name(&self) -> String;

    /// The consistency level reads should use given the current context.
    fn read_level(&mut self, ctx: &PolicyContext) -> ConsistencyLevel;

    /// The consistency level writes should use. The paper leaves writes at
    /// level `ONE` and adapts only reads; policies may override this.
    fn write_level(&mut self, _ctx: &PolicyContext) -> ConsistencyLevel {
        ConsistencyLevel::One
    }

    /// The estimated stale-read probability the policy last computed, if it
    /// computes one (used to reproduce Figure 4).
    fn last_estimate(&self) -> Option<f64> {
        None
    }

    /// The application-tolerated stale-read rate the policy enforces, if it
    /// enforces one. Policies exposing a tolerance opt into the controller's
    /// per-key split decisions: hot keys are escalated individually against
    /// this tolerance while the policy's own decision becomes the cheap
    /// default for the cold tail. Static baselines return `None` and are
    /// never split.
    fn tolerated_stale_rate(&self) -> Option<f64> {
        None
    }
}

/// The paper's adaptive policy: estimate the stale-read rate, compare with the
/// application-tolerated rate, and pick `ONE` or the computed `Xn`.
#[derive(Debug, Clone)]
pub struct HarmonyPolicy {
    app_stale_rate: f64,
    model: StaleReadModel,
    last_estimate: f64,
}

impl HarmonyPolicy {
    /// Creates a Harmony policy for a store with the given replication factor
    /// and an application-tolerated stale-read rate (`app_stale_rate`,
    /// a fraction in `[0, 1]`; e.g. 0.2 for the paper's "Harmony-20%").
    ///
    /// # Panics
    ///
    /// With the error [`HarmonyPolicy::try_new`] returns for these inputs.
    pub fn new(replication_factor: usize, app_stale_rate: f64) -> Self {
        Self::try_new(replication_factor, app_stale_rate)
            .unwrap_or_else(|e| panic!("invalid Harmony policy: {e}"))
    }

    /// [`HarmonyPolicy::new`], rejecting a replication factor of 0 and a
    /// tolerance that is not a finite fraction in `[0, 1]` (NaN included)
    /// instead of panicking.
    pub fn try_new(replication_factor: usize, app_stale_rate: f64) -> Result<Self, String> {
        if replication_factor == 0 {
            return Err("replication factor must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&app_stale_rate) {
            return Err(format!(
                "tolerated stale-read rate must be a fraction in [0, 1], got {app_stale_rate}"
            ));
        }
        Ok(HarmonyPolicy {
            app_stale_rate,
            model: StaleReadModel::new(replication_factor),
            last_estimate: 0.0,
        })
    }

    /// The tolerated stale-read rate.
    pub fn app_stale_rate(&self) -> f64 {
        self.app_stale_rate
    }
}

impl ConsistencyPolicy for HarmonyPolicy {
    fn name(&self) -> String {
        format!("harmony-{:.0}", self.app_stale_rate * 100.0)
    }

    fn read_level(&mut self, ctx: &PolicyContext) -> ConsistencyLevel {
        // The queueing-aware estimate: integrates the closed form over the
        // propagation-time distribution, distinguishing a high-but-stable
        // backlog (narrow spread — stay eventual or raise a few replicas)
        // from a diverging queue (go strong).
        self.last_estimate =
            self.model
                .stale_probability_estimate(ctx.read_rate, ctx.write_rate, &ctx.staleness);
        // On a diverging queue the decision scheme escalates to all N
        // replicas (the propagation window is effectively unbounded) unless
        // the tolerance already covers the ceiling estimate.
        match decide_with_estimate(
            &self.model,
            self.app_stale_rate,
            ctx.read_rate,
            ctx.write_rate,
            &ctx.staleness,
        ) {
            ConsistencyDecision::Eventual => ConsistencyLevel::One,
            ConsistencyDecision::Replicas(x) => {
                ConsistencyLevel::from_replica_count(x, ctx.replication_factor)
            }
        }
    }

    fn last_estimate(&self) -> Option<f64> {
        Some(self.last_estimate)
    }

    fn tolerated_stale_rate(&self) -> Option<f64> {
        Some(self.app_stale_rate)
    }
}

/// The static baselines of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticPolicy {
    /// Always read at `ONE` (Cassandra's static eventual consistency).
    Eventual,
    /// Always read at `ALL` (strong consistency).
    Strong,
    /// Always read at `QUORUM`.
    Quorum,
    /// Always read at an explicit replica count.
    Fixed(usize),
}

impl ConsistencyPolicy for StaticPolicy {
    fn name(&self) -> String {
        match self {
            StaticPolicy::Eventual => "eventual".to_string(),
            StaticPolicy::Strong => "strong".to_string(),
            StaticPolicy::Quorum => "quorum".to_string(),
            StaticPolicy::Fixed(x) => format!("fixed-{x}"),
        }
    }

    fn read_level(&mut self, ctx: &PolicyContext) -> ConsistencyLevel {
        match self {
            StaticPolicy::Eventual => ConsistencyLevel::One,
            StaticPolicy::Strong => ConsistencyLevel::All,
            StaticPolicy::Quorum => ConsistencyLevel::Quorum,
            StaticPolicy::Fixed(x) => {
                ConsistencyLevel::from_replica_count(*x, ctx.replication_factor)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(read_rate: f64, write_rate: f64, tp_secs: f64) -> PolicyContext {
        PolicyContext::from_rates(read_rate, write_rate, tp_secs, 5)
    }

    #[test]
    fn harmony_names_follow_paper_convention() {
        assert_eq!(HarmonyPolicy::new(5, 0.2).name(), "harmony-20");
        assert_eq!(HarmonyPolicy::new(5, 0.4).name(), "harmony-40");
        assert_eq!(HarmonyPolicy::new(5, 0.6).name(), "harmony-60");
    }

    #[test]
    fn harmony_idle_system_reads_at_one() {
        let mut p = HarmonyPolicy::new(5, 0.2);
        assert_eq!(p.read_level(&PolicyContext::idle(5)), ConsistencyLevel::One);
        assert_eq!(p.last_estimate(), Some(0.0));
    }

    #[test]
    fn harmony_under_heavy_updates_raises_the_level() {
        let mut p = HarmonyPolicy::new(5, 0.2);
        let level = p.read_level(&ctx(3000.0, 2500.0, 0.002));
        assert_ne!(level, ConsistencyLevel::One);
        assert!(p.last_estimate().unwrap() > 0.2);
        assert!(level.required_acks(5) > 1);
    }

    #[test]
    fn harmony_zero_tolerance_reads_all_under_load() {
        let mut p = HarmonyPolicy::new(5, 0.0);
        let level = p.read_level(&ctx(3000.0, 2500.0, 0.002));
        assert_eq!(level.required_acks(5), 5);
    }

    #[test]
    fn higher_tolerance_never_needs_more_replicas() {
        let context = ctx(2000.0, 1600.0, 0.0015);
        let mut prev = usize::MAX;
        for asr in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let mut p = HarmonyPolicy::new(5, asr);
            let acks = p.read_level(&context).required_acks(5);
            assert!(acks <= prev, "asr={asr}");
            prev = acks;
        }
    }

    #[test]
    fn harmony_distinguishes_stable_backlog_from_diverging_queue() {
        // Same rates and network Tp; the only difference is the queue state.
        let base = ctx(3000.0, 2500.0, 0.00002);
        let mut stable = base;
        stable.staleness.queue_wait_secs = 0.05; // 50 ms of uniform backlog
        stable.staleness.utilization = 0.99;
        let mut diverging = stable;
        diverging.staleness.diverging = true;

        let mut p = HarmonyPolicy::new(5, 0.4);
        let stable_level = p.read_level(&stable);
        let stable_estimate = p.last_estimate().unwrap();
        let diverging_level = p.read_level(&diverging);
        let diverging_estimate = p.last_estimate().unwrap();

        // A high but perfectly uniform backlog does not widen the window:
        // the policy keeps cheap reads instead of collapsing to ALL.
        assert!(
            stable_level.required_acks(5) < 5,
            "stable backlog escalated to {stable_level}"
        );
        // A diverging queue pins the estimate at its ceiling and goes strong.
        assert_eq!(diverging_level.required_acks(5), 5);
        assert!(diverging_estimate >= stable_estimate);
    }

    #[test]
    fn queue_spread_raises_the_level() {
        let calm = ctx(3000.0, 2500.0, 0.00002);
        let mut spread = calm;
        spread.staleness.spread_mean_secs = 0.0005;
        spread.staleness.spread_variance_secs2 = 0.0005f64.powi(2) / 2.0;
        let mut p = HarmonyPolicy::new(5, 0.4);
        let calm_acks = p.read_level(&calm).required_acks(5);
        let calm_estimate = p.last_estimate().unwrap();
        let spread_acks = p.read_level(&spread).required_acks(5);
        let spread_estimate = p.last_estimate().unwrap();
        assert!(spread_estimate > calm_estimate);
        assert!(spread_acks >= calm_acks);
        assert!(spread_acks > 1);
    }

    #[test]
    fn harmony_writes_default_to_one() {
        let mut p = HarmonyPolicy::new(5, 0.2);
        assert_eq!(p.write_level(&ctx(1.0, 1.0, 0.001)), ConsistencyLevel::One);
    }

    #[test]
    fn tolerance_outside_the_unit_interval_is_rejected() {
        for asr in [f64::NAN, -0.1, 1.5, f64::INFINITY, f64::NEG_INFINITY, 7.0] {
            let err = HarmonyPolicy::try_new(5, asr).expect_err("out of range");
            assert!(err.contains("[0, 1]"), "asr={asr}: {err}");
        }
        for asr in [0.0, 0.2, 1.0] {
            let p = HarmonyPolicy::try_new(5, asr).expect("in range");
            assert_eq!(p.app_stale_rate(), asr);
            assert_eq!(HarmonyPolicy::new(5, asr).app_stale_rate(), asr);
        }
        assert!(HarmonyPolicy::try_new(0, 0.2).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid Harmony policy")]
    fn new_panics_on_a_nan_tolerance() {
        let _ = HarmonyPolicy::new(5, f64::NAN);
    }

    #[test]
    fn static_policies_ignore_context() {
        let busy = ctx(10_000.0, 10_000.0, 0.05);
        assert_eq!(
            StaticPolicy::Eventual.read_level(&busy),
            ConsistencyLevel::One
        );
        assert_eq!(
            StaticPolicy::Strong.read_level(&busy),
            ConsistencyLevel::All
        );
        assert_eq!(
            StaticPolicy::Quorum.read_level(&busy),
            ConsistencyLevel::Quorum
        );
        assert_eq!(
            StaticPolicy::Fixed(4).read_level(&busy),
            ConsistencyLevel::Replicas(4)
        );
        assert_eq!(
            StaticPolicy::Fixed(1).read_level(&busy),
            ConsistencyLevel::One
        );
    }

    #[test]
    fn static_policy_names() {
        assert_eq!(StaticPolicy::Eventual.name(), "eventual");
        assert_eq!(StaticPolicy::Strong.name(), "strong");
        assert_eq!(StaticPolicy::Quorum.name(), "quorum");
        assert_eq!(StaticPolicy::Fixed(2).name(), "fixed-2");
        assert_eq!(StaticPolicy::Eventual.last_estimate(), None);
    }

    #[test]
    fn only_tolerance_policies_opt_into_splitting() {
        assert_eq!(HarmonyPolicy::new(5, 0.2).tolerated_stale_rate(), Some(0.2));
        assert_eq!(StaticPolicy::Eventual.tolerated_stale_rate(), None);
        assert_eq!(StaticPolicy::Strong.tolerated_stale_rate(), None);
    }
}
