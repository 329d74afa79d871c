//! # netband-spec — one declarative ScenarioSpec API for the whole workspace
//!
//! The paper's evaluation (Section VII) and its motivating applications
//! (Section I: advertising, social promotion, channel access) are all points
//! in one configuration space — *graph model × arm distributions × strategy
//! family × policy × horizon/feedback schedule*. This crate makes that space
//! a typed, versioned, serializable value: a [`ScenarioSpec`] is **data**, so
//! new scenarios need a JSON document, not new code.
//!
//! ```text
//!   JSON document ──ScenarioSpec::from_json_text──► ScenarioSpec (typed, versioned)
//!                                                        │ build()
//!                                                        ▼
//!                            BuiltScenario { NetworkedBandit, StrategyFamily?, AnyPolicy }
//!                          ┌─────────────────────────────┼───────────────────────────┐
//!                          ▼                             ▼                           ▼
//!               netband_sim::run_spec          netband_serve fleet boot     experiment grids
//!               (golden-trace–equal to         (RegisterTenantSpec /        (fig3–fig6 and the
//!                the hand-wired runners)        register_fleet)              ablations)
//! ```
//!
//! ## The pieces
//!
//! * [`GraphSpec`] — Erdős–Rényi, preferential attachment, planted
//!   partition, random geometric, or an explicit edge list.
//! * [`ArmsSpec`] — Bernoulli / Beta / uniform arm banks, explicit or
//!   randomly parameterised.
//! * [`FamilySpec`] — at-most-`M`, exactly-`M`, bounded independent sets, or
//!   an explicit feasible set.
//! * [`PolicySpec`] — all four DFL algorithms, the Section IX heuristics,
//!   and every `netband-baselines` policy, with their hyperparameters.
//! * [`ScenarioSpec`] — workload + policy + side bonus + horizon /
//!   replications / seeds + a [`FeedbackSpec`] flush schedule.
//! * [`FleetSpec`] — a whole multi-tenant serving fleet in one document.
//! * [`AnyPolicy`] — the unified build product over both policy traits.
//!
//! Determinism is part of the contract: a spec plus its seeds pins the built
//! instance and the sample path bit for bit, which is what lets the golden
//! equivalence suite hold spec-built runs to the committed DFL traces.
//!
//! ## Example
//!
//! ```
//! use netband_spec::{ScenarioSpec, SpecError};
//!
//! let text = r#"{
//!   "version": 1,
//!   "name": "demo",
//!   "workload": {
//!     "graph": {"type": "erdos_renyi", "num_arms": 10, "edge_prob": 0.3},
//!     "arms": {"type": "uniform_mean_bernoulli", "num_arms": 10},
//!     "family": null,
//!     "seed": 42
//!   },
//!   "policy": {"type": "dfl_sso"},
//!   "side_bonus": "observation",
//!   "horizon": 200,
//!   "replications": 1,
//!   "seed": 7,
//!   "feedback": {"type": "immediate"}
//! }"#;
//! let spec = ScenarioSpec::from_json_text(text)?;
//! let built = spec.build()?;
//! assert_eq!(built.policy.name(), "DFL-SSO");
//! assert_eq!(built.bandit.num_arms(), 10);
//! // Round trip: re-encoding and re-decoding is the identity.
//! assert_eq!(ScenarioSpec::from_json_text(&spec.to_json_text())?, spec);
//! # Ok::<(), SpecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod json;
pub mod model;
pub mod policy;
pub mod presets;
pub mod store;
pub mod wire;

pub use error::SpecError;
pub use model::{
    ArmsSpec, BuiltScenario, ChangePointSpec, ChurnWindowSpec, DriftSpec, EstimatorSpec,
    FamilySpec, FeedbackSpec, FleetSpec, FleetTenant, GradualDriftSpec, GraphSpec, PolicySpec,
    ScenarioSpec, SideBonus, WorkloadSpec, SPEC_VERSION,
};
pub use policy::AnyPolicy;
pub use store::{ShardSnapshot, StoredTenantSnapshot, WalRecord, STORE_VERSION};
pub use wire::{
    WireArmStat, WireErrorCode, WireFeedback, WireLatency, WireMetrics, WireRequest, WireResponse,
    WireTelemetry,
};

/// Identifier of an arm; re-exported from `netband-graph`.
pub type ArmId = netband_graph::ArmId;
