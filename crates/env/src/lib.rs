//! Stochastic networked-bandit environments.
//!
//! This crate is the "machine" side of the reproduction of *Networked Stochastic
//! Multi-Armed Bandits with Combinatorial Strategies* (Tang & Zhou, ICDCS 2017):
//! bounded reward distributions, arm sets, the four feedback models
//! (single/combinatorial play × side observation/side reward), feasible strategy
//! families, and the combinatorial oracles the learning policies call.
//!
//! * [`distributions`] — reward distributions with support in `[0, 1]`
//!   (Bernoulli, uniform, Beta, truncated Gaussian, point mass, discrete),
//!   implemented from scratch on top of `rand`.
//! * [`arms`] — arm sets: a vector of distributions plus convenience
//!   constructors for the workloads used in the paper's simulations.
//! * [`bandit`] — [`NetworkedBandit`], the environment that couples an arm set
//!   with a relation graph and produces the side-observation / side-reward
//!   feedback of Section II.
//! * [`feasible`] — feasible strategy families (`F`) and combinatorial oracles
//!   (exact and greedy) for combinatorial play.
//! * [`batch`] — [`FeedbackBatch`], the queue for delayed, out-of-order
//!   feedback that drains in round order (the serving engine's flush path).
//! * [`drift`] — [`DriftSchedule`], deterministic nonstationarity: gradual
//!   mean drift, abrupt change points, and arm churn as a pure function of
//!   the round number.
//! * [`served`] — [`Decision`], [`FeedbackEvent`], [`DecideReply`] and
//!   [`TenantMetrics`]: the values a served tenant exchanges with its
//!   callers, shared by the serving engine, the wire protocol and the store.
//!
//! # Example
//!
//! ```
//! use netband_env::arms::ArmSet;
//! use netband_env::bandit::NetworkedBandit;
//! use netband_graph::generators;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let graph = generators::erdos_renyi(10, 0.3, &mut rng);
//! let arms = ArmSet::bernoulli(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]);
//! let bandit = NetworkedBandit::new(graph, arms).unwrap();
//!
//! let feedback = bandit.pull_single(3, &mut rng);
//! assert_eq!(feedback.arm, 3);
//! // Side observation: the sample of every neighbour of arm 3 is revealed.
//! assert!(feedback.observations.iter().any(|&(arm, _)| arm == 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arms;
pub mod bandit;
pub mod batch;
pub mod distributions;
pub mod drift;
pub mod feasible;
pub mod served;
pub mod workloads;

pub use arms::ArmSet;
pub use bandit::{
    CombinatorialFeedback, EnvError, NetworkedBandit, PullBuffer, SinglePlayFeedback,
};
pub use batch::{FeedbackBatch, MAX_WARM_SLOTS};
pub use distributions::RewardDistribution;
pub use drift::{ChangePoint, ChurnWindow, DriftSchedule, GradualDrift};
pub use feasible::{FeasibleSet, StrategyBank, StrategyFamily};
pub use served::{DecideReply, Decision, FeedbackEvent, TenantMetrics};
pub use workloads::Workload;

/// Identifier of an arm; re-exported from `netband-graph` so downstream code
/// needs only one import.
pub type ArmId = netband_graph::ArmId;
