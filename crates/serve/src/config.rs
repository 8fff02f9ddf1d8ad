//! Builder-style engine configuration: a scenario plus the two knobs that
//! never change a result, validated in one place.

use crate::engine::{ShardedEngine, DEFAULT_DRAIN_THRESHOLD};
use crate::error::ServeError;
use satn_exec::Parallelism;
use satn_sim::ShardedScenario;

/// Builder for [`ShardedEngine`]: every engine is built from a
/// [`ShardedScenario`] — its partition, trees and reshard schedule — so
/// [`ShardedScenario::epoch_replay`] is always its
/// byte-exact reference. The builder adds only the worker budget and the
/// drain threshold, neither of which changes any result, and validates it
/// all at once in [`ShardedEngineConfig::build`]: invalid configurations
/// surface as [`ServeError::InvalidConfig`] values, never as panics.
///
/// ```
/// use satn_serve::{Parallelism, ShardedEngineConfig};
/// use satn_sim::{AlgorithmKind, ShardedScenario, WorkloadSpec};
///
/// let scenario = ShardedScenario::new(
///     AlgorithmKind::RotorPush,
///     WorkloadSpec::Zipf { a: 1.8 },
///     4, 5, 2_000, 42,
/// );
/// let mut engine = ShardedEngineConfig::from_scenario(&scenario)
///     .parallelism(Parallelism::Threads(2))
///     .drain_threshold(1_024)
///     .build()?;
/// for request in scenario.stream() {
///     engine.submit(request)?;
/// }
/// assert_eq!(engine.finish()?.merged.requests(), 2_000);
/// # Ok::<(), satn_serve::ServeError>(())
/// ```
#[derive(Debug)]
pub struct ShardedEngineConfig {
    scenario: ShardedScenario,
    parallelism: Parallelism,
    drain_threshold: usize,
}

impl ShardedEngineConfig {
    /// Configures an engine built from a [`ShardedScenario`]: the
    /// scenario's epoch-0 partition, per-shard trees instantiated exactly
    /// as its standalone reference scenarios build theirs (what makes the
    /// serial replay a byte-exact oracle), and its reshard schedule
    /// applied online.
    pub fn from_scenario(scenario: &ShardedScenario) -> Self {
        ShardedEngineConfig {
            scenario: scenario.clone(),
            parallelism: Parallelism::default(),
            drain_threshold: DEFAULT_DRAIN_THRESHOLD,
        }
    }

    /// Sets the worker budget used for drains (default
    /// [`Parallelism::Auto`]). Every setting produces bit-identical
    /// results; the knob only trades wall-clock time for CPU usage.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the automatic-drain threshold (default
    /// [`crate::DEFAULT_DRAIN_THRESHOLD`]). The cadence never changes any
    /// result — only how much is buffered between drains. Zero is rejected
    /// at [`ShardedEngineConfig::build`].
    #[must_use]
    pub fn drain_threshold(mut self, threshold: usize) -> Self {
        self.drain_threshold = threshold;
        self
    }

    /// Validates the collected configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero drain threshold or a
    /// scenario geometry no engine can hold (see
    /// [`ShardedScenario::checked_universe`]); [`ServeError::Tree`] if a
    /// shard's algorithm cannot be instantiated;
    /// [`ServeError::ReshardUnsupported`] for a scenario pairing a reshard
    /// schedule with an offline algorithm.
    pub fn build(self) -> Result<ShardedEngine, ServeError> {
        if self.drain_threshold == 0 {
            return Err(ServeError::InvalidConfig(
                "the drain threshold must be positive".to_owned(),
            ));
        }
        self.scenario
            .checked_universe()
            .map_err(ServeError::InvalidConfig)?;
        ShardedEngine::build_from_scenario(&self.scenario, self.parallelism, self.drain_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_sim::{AlgorithmKind, WorkloadSpec};

    fn scenario(shards: u32, shard_levels: u32) -> ShardedScenario {
        ShardedScenario::new(
            AlgorithmKind::RotorPush,
            WorkloadSpec::Zipf { a: 1.7 },
            shards,
            shard_levels,
            600,
            7,
        )
    }

    fn rejection(scenario: &ShardedScenario) -> String {
        match ShardedEngineConfig::from_scenario(scenario).build() {
            Err(ServeError::InvalidConfig(reason)) => reason,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn zero_drain_thresholds_are_invalid_config() {
        let err = ShardedEngineConfig::from_scenario(&scenario(3, 5))
            .drain_threshold(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
        assert!(err.to_string().contains("must be positive"));
    }

    #[test]
    fn zero_shards_are_invalid_config() {
        assert!(rejection(&scenario(0, 5)).contains("at least one shard"));
    }

    #[test]
    fn levels_beyond_a_u32_tree_are_invalid_config() {
        // Release builds mask the shift amount: 40 levels would silently
        // build 255-element shards.
        assert!(rejection(&scenario(4, 40)).contains("1..=31"));
        // 32 levels wrap the per-shard capacity to zero, an empty universe
        // `Partition::new` panics on.
        assert!(rejection(&scenario(3, 32)).contains("1..=31"));
        assert!(rejection(&scenario(4, 0)).contains("1..=31"));
    }

    #[test]
    fn universes_overflowing_u32_are_invalid_config() {
        // 4 × (2^31 − 1) wraps to a universe whose per-shard trees no
        // longer fit it, and the process aborts on a 17 GB allocation.
        assert!(rejection(&scenario(4, 31)).contains("overflows"));
    }

    #[test]
    fn debug_output_names_the_scenario() {
        let config = ShardedEngineConfig::from_scenario(&scenario(3, 5)).drain_threshold(64);
        let rendered = format!("{config:?}");
        assert!(rendered.contains("scenario"));
        assert!(rendered.contains("drain_threshold"));
    }
}
