//! # netband — networked stochastic multi-armed bandits with combinatorial strategies
//!
//! A from-scratch Rust reproduction of *Networked Stochastic Multi-Armed Bandits
//! with Combinatorial Strategies* (Shaojie Tang & Yaqin Zhou, ICDCS 2017,
//! arXiv:1503.06169).
//!
//! The paper studies a decision maker facing `K` arms whose correlation is
//! captured by an undirected **relation graph**: pulling an arm also yields a
//! *side bonus* (an observation, or an actual reward) for the arm's neighbours.
//! Crossing the play mode (single arm / combinatorial strategy) with the bonus
//! type (observation / reward) gives four scenarios, each solved by a
//! distribution-free zero-regret policy: **DFL-SSO**, **DFL-CSO**, **DFL-SSR**
//! and **DFL-CSR**.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — relation graphs, generators, clique covers, strategy relation
//!   graphs (`netband-graph`).
//! * [`mod@env`] — reward distributions, arm sets, the networked environment and
//!   the combinatorial oracles (`netband-env`).
//! * [`core`] — the four DFL policies, the policy traits, and the Theorem 1–4
//!   bounds (`netband-core`).
//! * [`baselines`] — MOSS, UCB1, UCB-Tuned, ε-greedy, Thompson sampling, EXP3,
//!   CUCB, LLR and friends (`netband-baselines`).
//! * [`sim`] — the simulation engine: runners, regret traces, replication,
//!   statistics and export (`netband-sim`).
//! * [`spec`] — the declarative ScenarioSpec API: typed, versioned, JSON-
//!   serializable scenario documents with build factories (`netband-spec`).
//! * [`serve`] — the sharded multi-tenant serving engine with batched
//!   delayed-feedback ingestion (`netband-serve`).
//! * [`net`] — the framed TCP wire protocol over the serving engine: server,
//!   client, and load-generator binaries (`netband-net`).
//! * [`obs`] — observability: the metrics registry with Prometheus-style text
//!   exposition, latency histograms, per-stage decide timings, and the
//!   structured trace ring (`netband-obs`).
//! * [`experiments`] — the harness that regenerates every figure of the paper's
//!   evaluation section (`netband-experiments`).
//!
//! # Quickstart
//!
//! ```
//! use netband::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // 1. A relation graph over 20 arms (an online social network, say) and
//! //    Bernoulli arms with unknown means.
//! let mut rng = StdRng::seed_from_u64(7);
//! let graph = netband::graph::generators::erdos_renyi(20, 0.3, &mut rng);
//! let arms = ArmSet::random_bernoulli(20, &mut rng);
//! let bandit = NetworkedBandit::new(graph.clone(), arms)?;
//!
//! // 2. The paper's Algorithm 1: single play with side observation.
//! let mut policy = DflSso::new(graph);
//!
//! // 3. Run it and measure regret with the simulation engine.
//! let result = run_single(&bandit, &mut policy, SingleScenario::SideObservation, 2_000, 42);
//! assert!(result.average_regret() < 0.5);
//! # Ok::<(), netband::env::EnvError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use netband_baselines as baselines;
pub use netband_core as core;
pub use netband_env as env;
pub use netband_experiments as experiments;
pub use netband_graph as graph;
pub use netband_net as net;
pub use netband_obs as obs;
pub use netband_serve as serve;
pub use netband_sim as sim;
pub use netband_spec as spec;

/// One-stop import for examples and downstream applications.
pub mod prelude {
    pub use netband_baselines::{
        Cucb, EpsilonGreedy, Exp3, KlUcb, Llr, Moss, Softmax, ThompsonBernoulli, Ucb1,
    };
    pub use netband_core::prelude::*;
    pub use netband_env::workloads::Workload;
    pub use netband_env::{
        ArmSet, CombinatorialFeedback, FeasibleSet, NetworkedBandit, PullBuffer,
        SinglePlayFeedback, StrategyFamily,
    };
    pub use netband_graph::{
        generators, greedy_clique_cover, metrics, CsrGraph, GraphMetrics, RelationGraph,
        StrategyBank, StrategyRelationGraph,
    };
    pub use netband_net::{NetClient, NetError, NetServer, NetStats, ObsServer, ServerConfig};
    pub use netband_obs::{parse_exposition, LatencyHistogram, Registry, TraceRing};
    pub use netband_serve::{
        DecideReply, Decision, EngineConfig, FeedbackEvent, FlushPolicy, MetricsReport,
        RegisterTenantSpec, ServeClient, ServeEngine, ServeError, StoreConfig, StoreMetrics,
        TenantSnapshot, TenantSpec, TenantTelemetry, TraceReport,
    };
    pub use netband_sim::{
        replicate, replicate_spec, run_built, run_combinatorial, run_single, run_single_coupled,
        run_spec, AveragedRun, CombinatorialScenario, ReplicationConfig, RunResult, SingleScenario,
    };
    pub use netband_spec::{
        AnyPolicy, ArmsSpec, ChangePointSpec, ChurnWindowSpec, DriftSpec, EstimatorSpec,
        FamilySpec, FeedbackSpec, FleetSpec, FleetTenant, GradualDriftSpec, GraphSpec, PolicySpec,
        ScenarioSpec, SideBonus, SpecError, WireErrorCode, WireFeedback, WireLatency, WireMetrics,
        WireRequest, WireResponse, WorkloadSpec, SPEC_VERSION,
    };
}
