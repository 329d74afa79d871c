//! Per-round reward/benchmark scoring.
//!
//! A round is scored by two numbers: the realised reward collected under the
//! scenario's reward model, and the expected per-round reward of the played
//! action (for pseudo regret). These helpers are the single source of truth
//! for those numbers and for the benchmarks regret is charged against. Their
//! callers are the [`Session`](crate::session::Session), which plays every
//! simulated round and every served decision (and alone uses the `_with`
//! variants), and the coupled driver
//! [`run_single_coupled`](crate::runner::run_single_coupled). The golden-trace
//! suite pins the exact float expressions, summation order included.

use netband_env::{CombinatorialFeedback, NetworkedBandit, SinglePlayFeedback};

use crate::runner::{CombinatorialScenario, SingleScenario};

/// Scores one single-play pull: returns `(reward, mean)` where `reward` is the
/// realised reward charged under `scenario` and `mean` is the expected
/// per-round reward of the pulled arm.
///
/// # Panics
///
/// Panics if the feedback's arm is out of range for `bandit`.
pub fn score_single(
    bandit: &NetworkedBandit,
    scenario: SingleScenario,
    feedback: &SinglePlayFeedback,
) -> (f64, f64) {
    match scenario {
        SingleScenario::SideObservation => (feedback.direct_reward, bandit.means()[feedback.arm]),
        SingleScenario::SideReward => (feedback.side_reward, bandit.side_reward_mean(feedback.arm)),
    }
}

/// Scores one combinatorial pull: returns `(reward, mean)` where `reward` is
/// the realised reward charged under `scenario` and `mean` is the expected
/// per-round reward of the played strategy.
///
/// The feedback already carries the normalised strategy and its observation
/// set `Y_x` (both sorted), so the means are summed straight off them — the
/// same terms in the same order as
/// [`NetworkedBandit::strategy_direct_mean`] /
/// [`NetworkedBandit::strategy_side_mean`], without rebuilding the
/// neighbourhood union.
///
/// # Panics
///
/// Panics if the feedback references an arm out of range for `bandit`.
pub fn score_combinatorial(
    bandit: &NetworkedBandit,
    scenario: CombinatorialScenario,
    feedback: &CombinatorialFeedback,
) -> (f64, f64) {
    let means = bandit.means();
    match scenario {
        CombinatorialScenario::SideObservation => (
            feedback.direct_reward,
            feedback.strategy.iter().map(|&i| means[i]).sum::<f64>(),
        ),
        CombinatorialScenario::SideReward => (
            feedback.side_reward,
            feedback
                .observation_set
                .iter()
                .map(|&i| means[i])
                .sum::<f64>(),
        ),
    }
}

/// [`score_single`] against an explicit mean vector — the drifting-world
/// variant, where the round's means come from a
/// `netband_env::DriftSchedule` instead of the arm bank. With
/// `means == bandit.means()` the two are bit-identical (same expressions,
/// same summation order).
///
/// # Panics
///
/// Panics if the feedback's arm is out of range for `means`.
pub fn score_single_with(
    bandit: &NetworkedBandit,
    means: &[f64],
    scenario: SingleScenario,
    feedback: &SinglePlayFeedback,
) -> (f64, f64) {
    match scenario {
        SingleScenario::SideObservation => (feedback.direct_reward, means[feedback.arm]),
        SingleScenario::SideReward => (
            feedback.side_reward,
            bandit.side_reward_mean_with(feedback.arm, means),
        ),
    }
}

/// [`score_combinatorial`] against an explicit mean vector; see
/// [`score_single_with`].
///
/// # Panics
///
/// Panics if the feedback references an arm out of range for `means`.
pub fn score_combinatorial_with(
    means: &[f64],
    scenario: CombinatorialScenario,
    feedback: &CombinatorialFeedback,
) -> (f64, f64) {
    match scenario {
        CombinatorialScenario::SideObservation => (
            feedback.direct_reward,
            feedback.strategy.iter().map(|&i| means[i]).sum::<f64>(),
        ),
        CombinatorialScenario::SideReward => (
            feedback.side_reward,
            feedback
                .observation_set
                .iter()
                .map(|&i| means[i])
                .sum::<f64>(),
        ),
    }
}

/// The benchmark (optimal expected per-round reward) a single-play run under
/// `scenario` charges regret against.
pub fn single_benchmark(bandit: &NetworkedBandit, scenario: SingleScenario) -> f64 {
    match scenario {
        SingleScenario::SideObservation => bandit.best_single_direct_mean(),
        SingleScenario::SideReward => bandit.best_single_side_mean(),
    }
}

/// The benchmark a combinatorial run under `scenario` charges regret against.
pub fn combinatorial_benchmark(
    bandit: &NetworkedBandit,
    family: &netband_env::StrategyFamily,
    scenario: CombinatorialScenario,
) -> f64 {
    match scenario {
        CombinatorialScenario::SideObservation => bandit.best_strategy_direct_mean(family),
        CombinatorialScenario::SideReward => bandit.best_strategy_side_mean(family),
    }
}

/// [`single_benchmark`] against an explicit mean vector — the per-round
/// benchmark of a drifting world (the dynamic-oracle regret notion of the
/// nonstationary-bandit literature).
pub fn single_benchmark_with(
    bandit: &NetworkedBandit,
    means: &[f64],
    scenario: SingleScenario,
) -> f64 {
    match scenario {
        SingleScenario::SideObservation => bandit.best_single_direct_mean_with(means),
        SingleScenario::SideReward => bandit.best_single_side_mean_with(means),
    }
}

/// [`combinatorial_benchmark`] against an explicit mean vector; see
/// [`single_benchmark_with`].
pub fn combinatorial_benchmark_with(
    bandit: &NetworkedBandit,
    family: &netband_env::StrategyFamily,
    means: &[f64],
    scenario: CombinatorialScenario,
) -> f64 {
    match scenario {
        CombinatorialScenario::SideObservation => {
            bandit.best_strategy_direct_mean_with(family, means)
        }
        CombinatorialScenario::SideReward => bandit.best_strategy_side_mean_with(family, means),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netband_env::{ArmSet, StrategyFamily};
    use netband_graph::generators;

    fn small_instance() -> NetworkedBandit {
        let graph = generators::path(4);
        NetworkedBandit::new(graph, ArmSet::bernoulli(&[0.2, 0.9, 0.4, 0.6])).unwrap()
    }

    #[test]
    fn single_scores_match_definitions() {
        let env = small_instance();
        let samples = vec![1.0, 0.0, 1.0, 0.0];
        let fb = env.feedback_single_from_samples(1, &samples);
        let (reward, mean) = score_single(&env, SingleScenario::SideObservation, &fb);
        assert_eq!(reward, 0.0);
        assert!((mean - 0.9).abs() < 1e-12);
        let (reward, mean) = score_single(&env, SingleScenario::SideReward, &fb);
        assert_eq!(reward, 2.0); // arms 0,1,2 revealed: 1 + 0 + 1
        assert!((mean - 1.5).abs() < 1e-12); // 0.2 + 0.9 + 0.4
    }

    #[test]
    fn combinatorial_scores_match_definitions() {
        let env = small_instance();
        let samples = vec![1.0, 0.0, 1.0, 0.0];
        let fb = env
            .feedback_strategy_from_samples(&[0, 3], &samples)
            .unwrap();
        let (reward, mean) = score_combinatorial(&env, CombinatorialScenario::SideObservation, &fb);
        assert_eq!(reward, 1.0);
        assert!((mean - 0.8).abs() < 1e-12); // 0.2 + 0.6
        let (reward, mean) = score_combinatorial(&env, CombinatorialScenario::SideReward, &fb);
        assert_eq!(reward, 2.0); // Y = {0,1,2,3}
        assert!((mean - 2.1).abs() < 1e-12);
    }

    #[test]
    fn benchmarks_match_bandit_optima() {
        let env = small_instance();
        assert_eq!(
            single_benchmark(&env, SingleScenario::SideObservation),
            env.best_single_direct_mean()
        );
        assert_eq!(
            single_benchmark(&env, SingleScenario::SideReward),
            env.best_single_side_mean()
        );
        let family = StrategyFamily::at_most_m(4, 2);
        assert_eq!(
            combinatorial_benchmark(&env, &family, CombinatorialScenario::SideObservation),
            env.best_strategy_direct_mean(&family)
        );
        assert_eq!(
            combinatorial_benchmark(&env, &family, CombinatorialScenario::SideReward),
            env.best_strategy_side_mean(&family)
        );
    }
}
