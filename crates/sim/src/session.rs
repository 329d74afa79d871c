//! The one round loop: select → pull → score → record.
//!
//! Every scenario of the paper plays the same time-slot protocol — the policy
//! selects an arm or strategy, the environment realises its rewards and side
//! observations, the reward is scored under the scenario's reward model
//! (Equations 1–4) and the round's regret is recorded. A [`Session`] is the
//! only code that plays such a round. It owns everything a round touches
//! besides the environment and the policy, which the caller holds: the seeded
//! RNG, the reused pull buffers, the round counter, the optional drift
//! schedule and the regret accounting. The closed-loop runners
//! ([`crate::runner`], [`crate::spec`]) and the serving engine's tenants
//! (`netband-serve`) both play through it, which is what keeps a served
//! tenant bit-identical to a simulated run.
//!
//! In a drifting world the arm means of round `t` are
//! `drift.means_at(base, t)` for the bandit's stationary `base` means:
//! rewards are Bernoulli draws of those means and regret is charged against
//! the per-round optimum (the dynamic oracle). Drift is a pure function of the
//! round number and consumes no randomness, so `(bandit, drift, seed)` pins the
//! whole sample path, and a session restored at round `t` continues it
//! bit-exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;

use netband_core::{CombinatorialPolicy, SinglePlayPolicy};
use netband_env::feasible::FeasibleSet;
use netband_env::{
    ArmId, CombinatorialFeedback, DriftSchedule, EnvError, NetworkedBandit, PullBuffer,
    SinglePlayFeedback, StrategyFamily,
};

use crate::regret::RegretTrace;
use crate::runner::{CombinatorialScenario, RunResult, SingleScenario};
use crate::step;

/// A boundary inside a played round, reported to the caller's lap callback
/// (the serving engine times the stages of sampled decides with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundStage {
    /// The policy has selected its arm or strategy.
    Select,
    /// The environment has realised the round's rewards.
    Pull,
    /// The round is scored, recorded and (if asked) fed back to the policy.
    Score,
}

/// One played round, borrowing the session's pull buffer.
#[derive(Debug)]
pub struct Played<'s, F> {
    /// The 1-based round just played.
    pub round: u64,
    /// The realised reward charged under the scenario's reward model.
    pub reward: f64,
    /// The round's feedback: the play and everything it revealed.
    pub feedback: &'s F,
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Single(SingleScenario),
    Combinatorial(CombinatorialScenario),
}

#[derive(Debug, Clone)]
struct Drift {
    schedule: DriftSchedule,
    /// The bandit's stationary means, which the schedule perturbs.
    base: Vec<f64>,
    /// The current round's drifted means.
    means: Vec<f64>,
}

/// The state of one run of the round protocol; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Session {
    mode: Mode,
    rng: StdRng,
    buf: PullBuffer,
    strategy: Vec<ArmId>,
    /// Rounds played so far; the next round is `round + 1`.
    round: u64,
    /// The stationary optimum of the scenario's benchmark.
    optimal: f64,
    drift: Option<Drift>,
    /// Sum of the per-round optima charged so far.
    optimal_sum: f64,
    total_reward: f64,
    trace: RegretTrace,
}

impl Session {
    /// A single-play session on `bandit` under `scenario`, drawing rewards
    /// from an RNG seeded by `seed`, with trace capacity for `horizon` rounds.
    /// A trivial drift schedule is dropped, so it plays (and scores) exactly
    /// like no drift at all.
    pub fn single(
        bandit: &NetworkedBandit,
        scenario: SingleScenario,
        drift: Option<DriftSchedule>,
        seed: u64,
        horizon: usize,
    ) -> Session {
        let optimal = step::single_benchmark(bandit, scenario);
        Session::new(
            bandit,
            Mode::Single(scenario),
            optimal,
            drift,
            seed,
            horizon,
        )
    }

    /// A combinatorial session on `bandit` over the strategies of `family`;
    /// see [`Session::single`].
    pub fn combinatorial(
        bandit: &NetworkedBandit,
        family: &StrategyFamily,
        scenario: CombinatorialScenario,
        drift: Option<DriftSchedule>,
        seed: u64,
        horizon: usize,
    ) -> Session {
        let optimal = step::combinatorial_benchmark(bandit, family, scenario);
        let mode = Mode::Combinatorial(scenario);
        Session::new(bandit, mode, optimal, drift, seed, horizon)
    }

    fn new(
        bandit: &NetworkedBandit,
        mode: Mode,
        optimal: f64,
        drift: Option<DriftSchedule>,
        seed: u64,
        horizon: usize,
    ) -> Session {
        let drift = drift.filter(|d| !d.is_trivial()).map(|schedule| Drift {
            schedule,
            base: bandit.means().to_vec(),
            means: vec![0.0; bandit.num_arms()],
        });
        Session {
            mode,
            rng: StdRng::seed_from_u64(seed),
            buf: PullBuffer::new(),
            strategy: Vec::new(),
            round: 0,
            optimal,
            drift,
            optimal_sum: 0.0,
            total_reward: 0.0,
            trace: RegretTrace::with_capacity(horizon),
        }
    }

    /// Plays the next round of a single-play session: `policy` selects an
    /// arm, the arm is pulled, and the round is scored and recorded. With
    /// `update` the feedback is also applied to the policy. `lap` is called
    /// at each [`RoundStage`] boundary.
    ///
    /// # Panics
    ///
    /// Panics if the session is combinatorial, or the policy selects an arm
    /// out of range.
    pub fn play_single<P: SinglePlayPolicy + ?Sized>(
        &mut self,
        bandit: &NetworkedBandit,
        policy: &mut P,
        update: bool,
        mut lap: impl FnMut(RoundStage),
    ) -> Played<'_, SinglePlayFeedback> {
        let Mode::Single(scenario) = self.mode else {
            panic!("play_single on a combinatorial session");
        };
        let t = self.round + 1;
        let drifted = self.drift.as_mut().map(|d| d.advance(t));
        let optimal = match drifted {
            Some(means) => step::single_benchmark_with(bandit, means, scenario),
            None => self.optimal,
        };
        let arm = policy.select_arm(t as usize);
        lap(RoundStage::Select);
        let feedback = match drifted {
            Some(means) => self
                .buf
                .pull_single_drifted(bandit, means, arm, &mut self.rng),
            None => self.buf.pull_single(bandit, arm, &mut self.rng),
        };
        lap(RoundStage::Pull);
        // The stationary and drifted scores are the same expressions over
        // different mean vectors.
        let means = drifted.unwrap_or(bandit.means());
        let (reward, mean) = step::score_single_with(bandit, means, scenario, feedback);
        self.round = t;
        self.optimal_sum += optimal;
        self.total_reward += reward;
        self.trace.record(optimal - reward, optimal - mean);
        if update {
            policy.update(t as usize, feedback);
        }
        lap(RoundStage::Score);
        Played {
            round: t,
            reward,
            feedback,
        }
    }

    /// Plays the next round of a combinatorial session; see
    /// [`Session::play_single`].
    ///
    /// # Errors
    ///
    /// Returns an [`EnvError`] if the policy proposes an invalid strategy
    /// (empty or referencing a non-existent arm). The round is then not
    /// played: the round counter and the accounting are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the session is single-play.
    pub fn play_combinatorial<P: CombinatorialPolicy + ?Sized>(
        &mut self,
        bandit: &NetworkedBandit,
        family: &StrategyFamily,
        policy: &mut P,
        update: bool,
        mut lap: impl FnMut(RoundStage),
    ) -> Result<Played<'_, CombinatorialFeedback>, EnvError> {
        let Mode::Combinatorial(scenario) = self.mode else {
            panic!("play_combinatorial on a single-play session");
        };
        let t = self.round + 1;
        let drifted = self.drift.as_mut().map(|d| d.advance(t));
        let optimal = match drifted {
            Some(means) => step::combinatorial_benchmark_with(bandit, family, means, scenario),
            None => self.optimal,
        };
        policy.select_strategy_into(t as usize, &mut self.strategy);
        lap(RoundStage::Select);
        debug_assert!(
            family.contains(&self.strategy, bandit.graph()),
            "policy {} proposed an infeasible strategy {:?}",
            policy.name(),
            self.strategy
        );
        let feedback = match drifted {
            Some(means) => {
                self.buf
                    .pull_strategy_drifted(bandit, means, &self.strategy, &mut self.rng)
            }
            None => self
                .buf
                .pull_strategy(bandit, &self.strategy, &mut self.rng),
        }?;
        lap(RoundStage::Pull);
        let means = drifted.unwrap_or(bandit.means());
        let (reward, mean) = step::score_combinatorial_with(means, scenario, feedback);
        self.round = t;
        self.optimal_sum += optimal;
        self.total_reward += reward;
        self.trace.record(optimal - reward, optimal - mean);
        if update {
            policy.update(t as usize, feedback);
        }
        lap(RoundStage::Score);
        Ok(Played {
            round: t,
            reward,
            feedback,
        })
    }

    /// Rounds played so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Sum of the per-round optima charged so far (the stationary optimum
    /// times the round count, unless the world drifts).
    pub fn optimal_sum(&self) -> f64 {
        self.optimal_sum
    }

    /// Total realised reward collected so far.
    pub fn total_reward(&self) -> f64 {
        self.total_reward
    }

    /// The per-round regret records so far.
    pub fn trace(&self) -> &RegretTrace {
        &self.trace
    }

    /// The reward stream's RNG.
    pub fn rng(&self) -> &StdRng {
        &self.rng
    }

    /// `true` when the session plays a (non-trivial) drifting world.
    pub fn is_drifting(&self) -> bool {
        self.drift.is_some()
    }

    /// Resumes a persisted run: replaces the RNG and the accounting with
    /// those the run had after `round` rounds. `trace` must hold `round`
    /// records.
    pub fn resume(
        &mut self,
        rng: StdRng,
        round: u64,
        optimal_sum: f64,
        total_reward: f64,
        trace: RegretTrace,
    ) {
        self.rng = rng;
        self.round = round;
        self.optimal_sum = optimal_sum;
        self.total_reward = total_reward;
        self.trace = trace;
    }

    /// The run as a [`RunResult`] of `policy`.
    pub fn into_result(self, policy: &str) -> RunResult {
        RunResult {
            policy: policy.to_owned(),
            horizon: self.round as usize,
            optimal_mean: self.optimal_mean(),
            total_reward: self.total_reward,
            trace: self.trace,
        }
    }

    /// The benchmark the run was charged against: the stationary optimum, or
    /// in a drifting world the average of the per-round optima.
    fn optimal_mean(&self) -> f64 {
        match (&self.drift, self.round) {
            (None, _) => self.optimal,
            (Some(_), 0) => 0.0,
            (Some(_), rounds) => self.optimal_sum / rounds as f64,
        }
    }
}

impl Drift {
    /// Moves the drifted means to round `t` and returns them.
    fn advance(&mut self, t: u64) -> &[f64] {
        self.schedule.means_at(&self.base, t, &mut self.means);
        &self.means
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netband_core::{DflCsr, DflSso};
    use netband_env::{ArmSet, ChangePoint, GradualDrift};
    use netband_graph::generators;

    fn bandit(k: usize, p: f64, seed: u64) -> NetworkedBandit {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::erdos_renyi(k, p, &mut rng);
        let arms = ArmSet::random_bernoulli(k, &mut rng);
        NetworkedBandit::new(graph, arms).unwrap()
    }

    fn play_single_run(
        env: &NetworkedBandit,
        drift: Option<DriftSchedule>,
        scenario: SingleScenario,
        horizon: usize,
        seed: u64,
    ) -> RunResult {
        let mut policy = DflSso::new(env.graph().clone());
        let session = Session::single(env, scenario, drift, seed, horizon);
        crate::runner::play_single(session, env, &mut policy, horizon)
    }

    #[test]
    fn drifted_run_charges_regret_against_the_dynamic_oracle() {
        let env = bandit(6, 0.4, 21);
        let drift = DriftSchedule {
            change_points: vec![ChangePoint {
                round: 100,
                rotation: 3,
            }],
            ..DriftSchedule::default()
        };
        let result = play_single_run(&env, Some(drift), SingleScenario::SideObservation, 200, 22);
        assert_eq!(result.trace.len(), 200);
        // The dynamic oracle dominates every played arm round by round.
        assert!(result.trace.pseudo().iter().all(|&r| r >= -1e-12));
        // The reported benchmark is the average per-round optimum, which for a
        // pure rotation equals the stationary optimum (the mean set is only
        // permuted, never changed).
        assert!((result.optimal_mean - env.best_single_direct_mean()).abs() < 1e-12);
    }

    #[test]
    fn drifted_runs_are_deterministic_under_the_same_seed() {
        let env = bandit(6, 0.4, 23);
        let drift = DriftSchedule {
            gradual: Some(GradualDrift {
                amplitude: 0.2,
                period: 50,
            }),
            ..DriftSchedule::default()
        };
        let family = StrategyFamily::at_most_m(6, 2);
        let run = || {
            let mut policy = DflCsr::new(env.graph().clone(), family.clone());
            let scenario = CombinatorialScenario::SideReward;
            let session =
                Session::combinatorial(&env, &family, scenario, Some(drift.clone()), 24, 150);
            crate::runner::play_combinatorial(session, &env, &family, &mut policy, 150).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_rejected_strategy_leaves_the_session_unchanged() {
        // A policy whose strategy references an arm outside the instance.
        struct OutOfRange;
        impl CombinatorialPolicy for OutOfRange {
            fn name(&self) -> &'static str {
                "out-of-range"
            }
            fn select_strategy(&mut self, _t: usize) -> Vec<ArmId> {
                vec![99]
            }
            fn update(&mut self, _t: usize, _feedback: &CombinatorialFeedback) {}
            fn reset(&mut self) {}
        }
        let env = bandit(6, 0.4, 27);
        let family = StrategyFamily::at_most_m(6, 2);
        let mut session = Session::combinatorial(
            &env,
            &family,
            CombinatorialScenario::SideObservation,
            None,
            28,
            0,
        );
        let mut good = DflCsr::new(env.graph().clone(), family.clone());
        session
            .play_combinatorial(&env, &family, &mut good, true, |_| {})
            .unwrap();
        let before = session.clone().into_result("p");
        // Arm 99 is feasible in a family wider than the instance, so only the
        // environment rejects it.
        let wide = StrategyFamily::at_most_m(100, 1);
        let mut bad = OutOfRange;
        assert!(session
            .play_combinatorial(&env, &wide, &mut bad, true, |_| {})
            .is_err());
        assert_eq!(session.round(), 1);
        assert_eq!(session.into_result("p"), before);
    }

    #[test]
    fn laps_mark_the_three_stage_boundaries_in_order() {
        let env = bandit(6, 0.4, 29);
        let mut session = Session::single(&env, SingleScenario::SideObservation, None, 30, 0);
        let mut policy = DflSso::new(env.graph().clone());
        let mut stages = Vec::new();
        let played = session.play_single(&env, &mut policy, true, |s| stages.push(s));
        assert_eq!(played.round, 1);
        assert_eq!(
            stages,
            [RoundStage::Select, RoundStage::Pull, RoundStage::Score]
        );
    }
}
