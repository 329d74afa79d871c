//! Public request/response types of the serving engine.

use std::fmt;

use netband_env::EnvError;
use netband_spec::{FeedbackSpec, ScenarioSpec, SpecError};

/// The decide and feedback values, defined in `netband-env` so the wire and
/// store documents can name them too.
pub use netband_env::{DecideReply, Decision, FeedbackEvent};

/// Identifier of a tenant (an experiment id). Tenants are routed to shards by
/// a stable hash of this id.
pub type TenantId = String;

/// When a tenant folds its queued feedback into the policy estimators.
///
/// Each flush applies its queued events in round order (stable for ties), so
/// applying a given batch is deterministic. The *partition* of events into
/// flushes follows delivery timing: events that arrive after a flush boundary
/// are ordered only relative to their own batch, and incremental-mean updates
/// are float-order-sensitive. Clients that need a bit-reproducible trajectory
/// must therefore deliver feedback on a fixed schedule — the golden
/// equivalence suite does exactly that with [`FlushPolicy::immediate`] and
/// in-order delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush as soon as this many events are pending. Must be at least 1:
    /// the constructors enforce it ([`FlushPolicy::batched`] clamps,
    /// [`FlushPolicy::try_batched`] rejects), and tenant registration rejects
    /// a literal-built zero with [`ServeError::InvalidFlushPolicy`].
    pub max_pending: usize,
    /// Additionally flush at the start of every decide, so a decision never
    /// runs on estimators that are missing already-delivered feedback. This is
    /// the setting under which a single-shard engine reproduces the batch
    /// simulation bit for bit.
    pub flush_before_decide: bool,
}

impl FlushPolicy {
    /// Apply every feedback event as soon as it arrives.
    pub fn immediate() -> Self {
        FlushPolicy {
            max_pending: 1,
            flush_before_decide: true,
        }
    }

    /// Let feedback accumulate and apply it in batches of (up to)
    /// `max_pending` events; decides may run on stale estimators in between
    /// (the delayed-feedback regime).
    ///
    /// A `max_pending` of 0 is **clamped to 1** — this constructor is the one
    /// documented place where the coercion happens; everywhere else
    /// ([`FlushPolicy::try_batched`], tenant registration) a zero is rejected
    /// with [`ServeError::InvalidFlushPolicy`].
    pub fn batched(max_pending: usize) -> Self {
        FlushPolicy {
            max_pending: max_pending.max(1),
            flush_before_decide: false,
        }
    }

    /// Like [`FlushPolicy::batched`], but rejects a zero batch size instead
    /// of clamping it.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidFlushPolicy`] when `max_pending == 0`.
    pub fn try_batched(max_pending: usize) -> Result<Self, ServeError> {
        if max_pending == 0 {
            return Err(ServeError::InvalidFlushPolicy { max_pending });
        }
        Ok(FlushPolicy {
            max_pending,
            flush_before_decide: false,
        })
    }

    /// Validates a policy built by hand (struct literal): `max_pending` must
    /// be at least 1. Tenant registration calls this, so an invalid policy
    /// never reaches a shard.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_pending == 0 {
            return Err(ServeError::InvalidFlushPolicy {
                max_pending: self.max_pending,
            });
        }
        Ok(())
    }
}

impl From<FeedbackSpec> for FlushPolicy {
    /// Maps the serializable schedule onto the engine's flush policy.
    /// `FeedbackSpec` documents reject `max_pending == 0` at decode time, and
    /// [`FlushPolicy::batched`] clamps as a second line of defence.
    fn from(spec: FeedbackSpec) -> Self {
        match spec {
            FeedbackSpec::Immediate => FlushPolicy::immediate(),
            FeedbackSpec::Batched { max_pending } => FlushPolicy::batched(max_pending),
        }
    }
}

/// A request to register a tenant from a declarative scenario document: the
/// spec-driven counterpart of hand-constructing a
/// [`TenantSpec`](crate::TenantSpec). The scenario's workload, policy, and
/// feedback schedule are built by `netband-spec`; the tenant's RNG is seeded
/// with the scenario's run seed, so a spec-registered tenant under
/// [`FlushPolicy::immediate`] serves the same trajectory as
/// `netband_sim::run_spec` of the same document.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterTenantSpec {
    /// The tenant id to register under (routes the tenant to a shard).
    pub id: TenantId,
    /// The scenario to host.
    pub scenario: ScenarioSpec,
}

impl RegisterTenantSpec {
    /// Convenience constructor.
    pub fn new(id: impl Into<TenantId>, scenario: ScenarioSpec) -> Self {
        RegisterTenantSpec {
            id: id.into(),
            scenario,
        }
    }
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy::immediate()
    }
}

/// Errors surfaced by the serving engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No tenant with this id exists on the shard the id routes to.
    UnknownTenant(TenantId),
    /// A tenant with this id already exists.
    DuplicateTenant(TenantId),
    /// The environment rejected the tenant's decision or restore state.
    Env(EnvError),
    /// A feedback event's variant does not match the tenant's play mode.
    FeedbackKindMismatch(TenantId),
    /// A feedback event quoted a round the tenant never served (0, or beyond
    /// the last decide).
    InvalidRound {
        /// The tenant the event was addressed to.
        tenant: TenantId,
        /// The round the event quoted.
        round: u64,
        /// Rounds the tenant had served when the event arrived.
        served: u64,
    },
    /// A flush policy with `max_pending == 0` was submitted (a tenant with
    /// such a policy could never hold feedback, so the value is always a
    /// configuration mistake).
    InvalidFlushPolicy {
        /// The rejected threshold.
        max_pending: usize,
    },
    /// A spec-driven registration failed to validate or build its scenario.
    Spec(SpecError),
    /// The target shard has already admitted its queue capacity of calls and
    /// the caller asked not to wait (the `try_*` admission-control paths used
    /// by the network front end). The request was **not** applied; retry
    /// after backoff.
    Overloaded,
    /// The engine has shut down, or the target shard is down because a call
    /// panicked while running on it (a store failure is fatal to its shard).
    EngineDown,
    /// The durable store failed: recovery found corrupt files, or a disk
    /// operation failed. Carries the rendered [`netband_store::StoreError`]
    /// (the structured error is not `Clone`/`PartialEq`, which this enum is).
    Store(String),
    /// A tenant cannot live on a store-enabled engine: it was not built from
    /// a scenario document (so its policy structure cannot be rebuilt on
    /// recovery), or its policy does not support durable state capture.
    NotPersistable(TenantId),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(id) => write!(f, "unknown tenant {id:?}"),
            ServeError::DuplicateTenant(id) => write!(f, "tenant {id:?} already exists"),
            ServeError::Env(e) => write!(f, "environment error: {e}"),
            ServeError::FeedbackKindMismatch(id) => {
                write!(f, "feedback kind does not match tenant {id:?}'s play mode")
            }
            ServeError::InvalidRound {
                tenant,
                round,
                served,
            } => {
                write!(
                    f,
                    "feedback for tenant {tenant:?} quotes round {round}, but only {served} \
                     rounds have been served"
                )
            }
            ServeError::InvalidFlushPolicy { max_pending } => {
                write!(
                    f,
                    "invalid flush policy: max_pending must be at least 1 (got {max_pending})"
                )
            }
            ServeError::Spec(e) => write!(f, "scenario spec error: {e}"),
            ServeError::Overloaded => {
                write!(f, "shard command queue is full (overloaded); retry later")
            }
            ServeError::EngineDown => write!(f, "serving engine has shut down"),
            ServeError::Store(message) => write!(f, "durable store error: {message}"),
            ServeError::NotPersistable(id) => write!(
                f,
                "tenant {id:?} cannot be persisted: register it from a scenario document \
                 with a state-capturing policy, or start the engine without a store"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EnvError> for ServeError {
    fn from(e: EnvError) -> Self {
        ServeError::Env(e)
    }
}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> Self {
        ServeError::Spec(e)
    }
}

impl From<netband_store::StoreError> for ServeError {
    fn from(e: netband_store::StoreError) -> Self {
        ServeError::Store(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_policy_constructors() {
        let imm = FlushPolicy::immediate();
        assert_eq!(imm.max_pending, 1);
        assert!(imm.flush_before_decide);
        assert_eq!(FlushPolicy::default(), imm);
        let batched = FlushPolicy::batched(32);
        assert_eq!(batched.max_pending, 32);
        assert!(!batched.flush_before_decide);
    }

    /// The two documented zero-batch paths: `batched` clamps (in exactly one
    /// place), `try_batched` and `validate` reject.
    #[test]
    fn zero_max_pending_is_clamped_or_rejected() {
        // The clamping path.
        assert_eq!(FlushPolicy::batched(0), FlushPolicy::batched(1));
        assert_eq!(FlushPolicy::batched(0).max_pending, 1);
        // The rejecting paths.
        assert_eq!(
            FlushPolicy::try_batched(0),
            Err(ServeError::InvalidFlushPolicy { max_pending: 0 })
        );
        assert_eq!(FlushPolicy::try_batched(8), Ok(FlushPolicy::batched(8)));
        let literal = FlushPolicy {
            max_pending: 0,
            flush_before_decide: false,
        };
        assert_eq!(
            literal.validate(),
            Err(ServeError::InvalidFlushPolicy { max_pending: 0 })
        );
        assert!(FlushPolicy::immediate().validate().is_ok());
        let err = ServeError::InvalidFlushPolicy { max_pending: 0 }.to_string();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn feedback_spec_maps_onto_flush_policy() {
        assert_eq!(
            FlushPolicy::from(FeedbackSpec::Immediate),
            FlushPolicy::immediate()
        );
        assert_eq!(
            FlushPolicy::from(FeedbackSpec::Batched { max_pending: 16 }),
            FlushPolicy::batched(16)
        );
    }

    #[test]
    fn errors_render_their_context() {
        assert!(ServeError::UnknownTenant("exp-1".into())
            .to_string()
            .contains("exp-1"));
        assert!(ServeError::DuplicateTenant("exp-2".into())
            .to_string()
            .contains("already exists"));
        let env: ServeError = EnvError::InvalidStrategy {
            reason: "empty".into(),
        }
        .into();
        assert!(env.to_string().contains("empty"));
        let invalid = ServeError::InvalidRound {
            tenant: "exp-3".into(),
            round: 9,
            served: 4,
        }
        .to_string();
        assert!(invalid.contains("exp-3") && invalid.contains('9') && invalid.contains('4'));
        assert!(ServeError::EngineDown.to_string().contains("shut down"));
    }
}
