//! Durable-state documents for the `netband-store` persistence layer.
//!
//! `netband-store` keeps a per-shard write-ahead log plus compacted snapshot
//! files on disk; the documents it frames are defined **here**, next to the
//! [`ScenarioSpec`] codec they embed, for the same reason the wire protocol
//! lives in this crate: the durable format inherits every property of the
//! spec codec —
//!
//! * **strict decoding** — unknown fields, unknown `"type"` tags, duplicate
//!   keys, and unsupported `version` numbers are hard errors, so a corrupted
//!   or future-format file fails loudly instead of half-restoring a tenant;
//! * **numeric exactness** — every `f64` (estimator means, window rings,
//!   regret traces, reward sums) travels as a shortest round-trip lexeme
//!   ([`Json::from_f64`](crate::json::Json::from_f64)'s bytes) and
//!   re-parses bit-identically, which is what lets crash recovery resume the
//!   exact learning trajectory;
//! * **no new dependencies** — the hand-rolled [`crate::json`] codec over
//!   `std` only.
//!
//! Like the wire documents, these are written and read by the streaming
//! codec, without a tree: a `feedback` record is one wire event body behind
//! a tenant and a round, written and read by the same event codec as a
//! `feedback_many` window. Only the embedded [`ScenarioSpec`] is read as a
//! tree.
//!
//! Framing (length prefixes, CRCs, fsync batching, torn-tail handling) is
//! storage business and lives in `netband-store`; this module is just the
//! payload model:
//!
//! | document                 | role                                         |
//! |--------------------------|----------------------------------------------|
//! | [`WalRecord`]            | one logged engine mutation (append-only log) |
//! | [`StoredTenantSnapshot`] | one tenant's complete durable state          |
//! | [`ShardSnapshot`]        | a compacted checkpoint of one shard          |
//!
//! The **structure/state split**: a snapshot never serializes policy
//! structure (graphs, enumerated feasible sets, oracle scratch). It stores
//! the originating [`ScenarioSpec`] — from which the structure is rebuilt
//! deterministically — plus the learned [`PolicyState`] arrays, the tenant
//! RNG words, and the serving counters. Restore = build from scenario, then
//! load the state on top.

use netband_core::PolicyState;
use netband_env::{FeedbackEvent, TenantMetrics};

use crate::codec::{scenario_from_json, scenario_to_json};
use crate::error::SpecError;
use crate::json::{required, write_array, write_bool, write_f64, write_string, write_u64, Reader};
use crate::model::ScenarioSpec;
use crate::wire::{read_event, read_round_event, write_event, write_round_event};

/// Version stamp of the durable-state document format. Bump when a field
/// changes meaning; decoding any other version is a hard error
/// ([`SpecError::UnsupportedVersion`]), never a silent best-effort read.
pub const STORE_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// model types
// ---------------------------------------------------------------------------

/// One tenant's complete durable state: everything needed to resume the
/// tenant bit-exactly that is not derivable from its scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTenantSnapshot {
    /// Document format version; must equal [`STORE_VERSION`].
    pub version: u64,
    /// Tenant id.
    pub id: String,
    /// The originating scenario. The bandit environment, policy structure,
    /// drift schedule, and benchmark optimum are all rebuilt from this
    /// document on restore; only learned/served state is stored explicitly.
    pub scenario: Box<ScenarioSpec>,
    /// Rounds served so far.
    pub round: u64,
    /// Running sum of per-round optima (the regret baseline).
    pub optimal_sum: f64,
    /// Cumulative realised reward.
    pub total_reward: f64,
    /// Flush trigger: apply pending feedback once this many events queue up.
    pub flush_max_pending: u64,
    /// Whether every decide flushes pending feedback first.
    pub flush_before_decide: bool,
    /// Whether each decide applies its own feedback immediately.
    pub auto_feedback: bool,
    /// Whether decide replies echo the revealed feedback event.
    pub echo_feedback: bool,
    /// The tenant RNG's raw xoshiro256++ state words.
    pub rng: [u64; 4],
    /// The hosted policy's learned state (estimator arrays, policy RNG, …).
    pub policy: PolicyState,
    /// Per-round realised regret, one entry per served round.
    pub realised: Vec<f64>,
    /// Per-round pseudo-regret, one entry per served round.
    pub pseudo: Vec<f64>,
    /// Feedback events queued but not yet flushed, in **arrival order** (the
    /// order that, re-queued on restore, reproduces the eventual flush's
    /// stable sort exactly).
    pub pending: Vec<(u64, FeedbackEvent)>,
    /// Serving counters, persisted so a recovered engine reports the same
    /// metrics it would have reported without the crash.
    pub metrics: TenantMetrics,
}

/// A compacted checkpoint of one shard: every resident (and evicted) tenant
/// at a single logical point, superseding the WAL prefix it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Document format version; must equal [`STORE_VERSION`].
    pub version: u64,
    /// Compaction epoch. Snapshot epoch `E` pairs with WAL epoch `E`: the
    /// snapshot captures everything up to the rotation point, the matching
    /// WAL holds only mutations after it.
    pub epoch: u64,
    /// All tenants of the shard, in stable (registration) order.
    pub tenants: Vec<StoredTenantSnapshot>,
}

/// One logged engine mutation. A shard's WAL replays, in order, on top of
/// the latest [`ShardSnapshot`] to reconstruct the exact pre-crash state.
///
/// Only **successful** mutations are logged, after they execute; commands
/// the shard rejected never reach the log, so replay cannot fail where the
/// original run succeeded.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A tenant was registered from a scenario document. The serving knobs a
    /// caller may customise *after* building the spec from its document
    /// (flush policy, auto-feedback, echo) are logged alongside, so replay
    /// reproduces the tenant exactly as registered.
    Register {
        /// Tenant id.
        id: String,
        /// The full scenario. Boxed so the rare registration record doesn't
        /// inflate every hot-path `WalRecord`.
        scenario: Box<ScenarioSpec>,
        /// Flush trigger: apply pending feedback once this many events queue.
        flush_max_pending: u64,
        /// Whether every decide flushes pending feedback first.
        flush_before_decide: bool,
        /// Whether each decide applies its own feedback immediately.
        auto_feedback: bool,
        /// Whether decide replies echo the revealed feedback event.
        echo_feedback: bool,
    },
    /// A tenant was restored from an in-memory snapshot (the engine's
    /// `restore_tenant` path). The full durable state is logged because the
    /// restored tenant's history is not reachable from this shard's log.
    Restore {
        /// The restored tenant's complete durable state.
        snapshot: Box<StoredTenantSnapshot>,
    },
    /// `count` consecutive decisions were served to a tenant. The decisions
    /// themselves are not logged: the tenant's RNG and policy state
    /// regenerate them bit-exactly on replay.
    Decide {
        /// Tenant id.
        tenant: String,
        /// Number of decisions served.
        count: u64,
    },
    /// One feedback event was accepted into a tenant's pending queue.
    Feedback {
        /// Tenant id.
        tenant: String,
        /// The round the event answers.
        round: u64,
        /// The event body.
        event: FeedbackEvent,
    },
    /// A tenant's pending feedback was explicitly flushed into its policy.
    /// (Threshold-triggered flushes are implied by the `Feedback` records
    /// that caused them and are not logged separately.)
    Flush {
        /// Tenant id.
        tenant: String,
    },
    /// A tenant was removed from the engine (`evict_tenant`): its state left
    /// the serving fleet entirely, so replay drops it too.
    Removed {
        /// Tenant id.
        tenant: String,
    },
    /// Every tenant's pending feedback was flushed (`drain`).
    Drain,
}

// ---------------------------------------------------------------------------
// scalar helpers
// ---------------------------------------------------------------------------

fn write_u64s(out: &mut String, values: &[u64]) {
    write_array(out, values, |out, &v| write_u64(out, v));
}

fn write_f64s(out: &mut String, values: &[f64]) {
    write_array(out, values, |out, &v| write_f64(out, v));
}

fn read_u64s(r: &mut Reader<'_>, ctx: &'static str) -> Result<Vec<u64>, SpecError> {
    r.array(ctx, |r| r.u64(ctx))
}

fn read_f64s(r: &mut Reader<'_>, ctx: &'static str) -> Result<Vec<f64>, SpecError> {
    r.array(ctx, |r| r.f64(ctx))
}

fn read_rng(r: &mut Reader<'_>, ctx: &'static str) -> Result<[u64; 4], SpecError> {
    let words = read_u64s(r, ctx)?;
    <[u64; 4]>::try_from(words).map_err(|words| SpecError::Invalid {
        context: ctx,
        message: format!("rng state must be 4 words, got {}", words.len()),
    })
}

/// Reads a document's `version` and rejects any but [`STORE_VERSION`] on
/// the spot, before the rest of the document is looked at.
fn read_version(r: &mut Reader<'_>, ctx: &'static str) -> Result<u64, SpecError> {
    let found = r.u64(ctx)?;
    if found != STORE_VERSION {
        return Err(SpecError::UnsupportedVersion {
            found,
            supported: STORE_VERSION,
        });
    }
    Ok(found)
}

// ---------------------------------------------------------------------------
// PolicyState
// ---------------------------------------------------------------------------

/// Appends a policy's learned-state bag. The `rng` key is omitted entirely
/// (not emitted as `null`) when the policy keeps no generator, so re-encoding
/// a decoded document is byte-identical.
fn write_policy_state(out: &mut String, state: &PolicyState) {
    out.push_str(r#"{"counts":"#);
    write_array(out, &state.counts, |out, row| write_u64s(out, row));
    out.push_str(r#","floats":"#);
    write_array(out, &state.floats, |out, row| write_f64s(out, row));
    out.push_str(r#","windows":"#);
    write_array(out, &state.windows, |out, row| write_f64s(out, row));
    if let Some(rng) = &state.rng {
        out.push_str(r#","rng":"#);
        write_u64s(out, rng);
    }
    out.push('}');
}

/// Decodes a policy's learned-state bag (strict).
fn read_policy_state(r: &mut Reader<'_>) -> Result<PolicyState, SpecError> {
    const CTX: &str = "PolicyState";
    let (mut counts, mut floats, mut windows, mut rng) = (None, None, None, None);
    r.object(CTX, |r, key| match key {
        "counts" => r.field(key, &mut counts, |r| r.array(CTX, |r| read_u64s(r, CTX))),
        "floats" => r.field(key, &mut floats, |r| r.array(CTX, |r| read_f64s(r, CTX))),
        "windows" => r.field(key, &mut windows, |r| r.array(CTX, |r| read_f64s(r, CTX))),
        "rng" => r.field(key, &mut rng, |r| r.nullable(|r| read_rng(r, CTX))),
        _ => Ok(false),
    })?;
    Ok(PolicyState {
        counts: required(counts, CTX, "counts")?,
        floats: required(floats, CTX, "floats")?,
        windows: required(windows, CTX, "windows")?,
        rng: rng.flatten(),
    })
}

// ---------------------------------------------------------------------------
// TenantMetrics
// ---------------------------------------------------------------------------

fn write_metrics(out: &mut String, metrics: &TenantMetrics) {
    out.push_str(r#"{"decides":"#);
    write_u64(out, metrics.decides);
    out.push_str(r#","feedback_events":"#);
    write_u64(out, metrics.feedback_events);
    out.push_str(r#","batches_flushed":"#);
    write_u64(out, metrics.batches_flushed);
    out.push_str(r#","events_applied":"#);
    write_u64(out, metrics.events_applied);
    out.push_str(r#","max_batch":"#);
    write_u64(out, metrics.max_batch);
    out.push('}');
}

fn read_metrics(r: &mut Reader<'_>) -> Result<TenantMetrics, SpecError> {
    const CTX: &str = "TenantMetrics";
    let (mut decides, mut feedback_events, mut batches_flushed) = (None, None, None);
    let (mut events_applied, mut max_batch) = (None, None);
    r.object(CTX, |r, key| match key {
        "decides" => r.field(key, &mut decides, |r| r.u64(CTX)),
        "feedback_events" => r.field(key, &mut feedback_events, |r| r.u64(CTX)),
        "batches_flushed" => r.field(key, &mut batches_flushed, |r| r.u64(CTX)),
        "events_applied" => r.field(key, &mut events_applied, |r| r.u64(CTX)),
        "max_batch" => r.field(key, &mut max_batch, |r| r.u64(CTX)),
        _ => Ok(false),
    })?;
    Ok(TenantMetrics {
        decides: required(decides, CTX, "decides")?,
        feedback_events: required(feedback_events, CTX, "feedback_events")?,
        batches_flushed: required(batches_flushed, CTX, "batches_flushed")?,
        events_applied: required(events_applied, CTX, "events_applied")?,
        max_batch: required(max_batch, CTX, "max_batch")?,
    })
}

// ---------------------------------------------------------------------------
// StoredTenantSnapshot
// ---------------------------------------------------------------------------

/// Appends one tenant's durable state.
fn write_snapshot(out: &mut String, snapshot: &StoredTenantSnapshot) {
    out.push_str(r#"{"version":"#);
    write_u64(out, snapshot.version);
    out.push_str(r#","id":"#);
    write_string(&snapshot.id, out);
    out.push_str(r#","scenario":"#);
    scenario_to_json(&snapshot.scenario).write(out);
    out.push_str(r#","round":"#);
    write_u64(out, snapshot.round);
    out.push_str(r#","optimal_sum":"#);
    write_f64(out, snapshot.optimal_sum);
    out.push_str(r#","total_reward":"#);
    write_f64(out, snapshot.total_reward);
    out.push_str(r#","flush_max_pending":"#);
    write_u64(out, snapshot.flush_max_pending);
    out.push_str(r#","flush_before_decide":"#);
    write_bool(out, snapshot.flush_before_decide);
    out.push_str(r#","auto_feedback":"#);
    write_bool(out, snapshot.auto_feedback);
    out.push_str(r#","echo_feedback":"#);
    write_bool(out, snapshot.echo_feedback);
    out.push_str(r#","rng":"#);
    write_u64s(out, &snapshot.rng);
    out.push_str(r#","policy":"#);
    write_policy_state(out, &snapshot.policy);
    out.push_str(r#","realised":"#);
    write_f64s(out, &snapshot.realised);
    out.push_str(r#","pseudo":"#);
    write_f64s(out, &snapshot.pseudo);
    out.push_str(r#","pending":"#);
    write_array(out, &snapshot.pending, |out, (round, event)| {
        write_round_event(out, *round, event)
    });
    out.push_str(r#","metrics":"#);
    write_metrics(out, &snapshot.metrics);
    out.push('}');
}

/// Decodes one tenant's durable state (strict). Beyond schema checks, the
/// cross-field invariants a well-formed snapshot always satisfies are
/// enforced here, so silent corruption that survives the CRC (e.g. a
/// truncated trace array inside an otherwise valid document) still fails
/// loudly: the regret trace must hold exactly one entry per served round,
/// and every pending event must quote a served round.
fn read_snapshot(r: &mut Reader<'_>) -> Result<StoredTenantSnapshot, SpecError> {
    const CTX: &str = "StoredTenantSnapshot";
    let (mut version, mut id, mut scenario, mut round) = (None, None, None, None);
    let (mut optimal_sum, mut total_reward, mut flush_max_pending) = (None, None, None);
    let (mut flush_before_decide, mut auto_feedback, mut echo_feedback) = (None, None, None);
    let (mut rng, mut policy, mut realised, mut pseudo) = (None, None, None, None);
    let (mut pending, mut metrics) = (None, None);
    r.object(CTX, |r, key| match key {
        // The canonical encoding leads with the version, so a document from
        // a future schema fails with `UnsupportedVersion` before any stricter
        // field check confuses the matter.
        "version" => r.field(key, &mut version, |r| read_version(r, CTX)),
        "id" => r.field(key, &mut id, |r| r.string_owned(CTX)),
        "scenario" => r.field(key, &mut scenario, |r| {
            scenario_from_json(&r.tree()?).map(Box::new)
        }),
        "round" => r.field(key, &mut round, |r| r.u64(CTX)),
        "optimal_sum" => r.field(key, &mut optimal_sum, |r| r.f64(CTX)),
        "total_reward" => r.field(key, &mut total_reward, |r| r.f64(CTX)),
        "flush_max_pending" => r.field(key, &mut flush_max_pending, |r| r.u64(CTX)),
        "flush_before_decide" => r.field(key, &mut flush_before_decide, |r| r.bool(CTX)),
        "auto_feedback" => r.field(key, &mut auto_feedback, |r| r.bool(CTX)),
        "echo_feedback" => r.field(key, &mut echo_feedback, |r| r.bool(CTX)),
        "rng" => r.field(key, &mut rng, |r| read_rng(r, CTX)),
        "policy" => r.field(key, &mut policy, read_policy_state),
        "realised" => r.field(key, &mut realised, |r| read_f64s(r, CTX)),
        "pseudo" => r.field(key, &mut pseudo, |r| read_f64s(r, CTX)),
        "pending" => r.field(key, &mut pending, |r| {
            r.array(CTX, |r| read_round_event(r, "stored pending entry"))
        }),
        "metrics" => r.field(key, &mut metrics, read_metrics),
        _ => Ok(false),
    })?;
    let snapshot = StoredTenantSnapshot {
        version: required(version, CTX, "version")?,
        id: required(id, CTX, "id")?,
        scenario: required(scenario, CTX, "scenario")?,
        round: required(round, CTX, "round")?,
        optimal_sum: required(optimal_sum, CTX, "optimal_sum")?,
        total_reward: required(total_reward, CTX, "total_reward")?,
        flush_max_pending: required(flush_max_pending, CTX, "flush_max_pending")?,
        flush_before_decide: required(flush_before_decide, CTX, "flush_before_decide")?,
        auto_feedback: required(auto_feedback, CTX, "auto_feedback")?,
        echo_feedback: required(echo_feedback, CTX, "echo_feedback")?,
        rng: required(rng, CTX, "rng")?,
        policy: required(policy, CTX, "policy")?,
        realised: required(realised, CTX, "realised")?,
        pseudo: required(pseudo, CTX, "pseudo")?,
        pending: required(pending, CTX, "pending")?,
        metrics: required(metrics, CTX, "metrics")?,
    };
    let served = usize::try_from(snapshot.round).map_err(|_| SpecError::Invalid {
        context: CTX,
        message: format!("round {} exceeds the platform's usize", snapshot.round),
    })?;
    if snapshot.realised.len() != served || snapshot.pseudo.len() != served {
        return Err(SpecError::Invalid {
            context: CTX,
            message: format!(
                "regret trace holds {} realised / {} pseudo entries for {} served rounds",
                snapshot.realised.len(),
                snapshot.pseudo.len(),
                snapshot.round
            ),
        });
    }
    for &(round, _) in &snapshot.pending {
        if round == 0 || round > snapshot.round {
            return Err(SpecError::Invalid {
                context: CTX,
                message: format!(
                    "pending feedback quotes round {round}, but only {} rounds were served",
                    snapshot.round
                ),
            });
        }
    }
    Ok(snapshot)
}

// ---------------------------------------------------------------------------
// ShardSnapshot
// ---------------------------------------------------------------------------

fn write_shard_snapshot(out: &mut String, snapshot: &ShardSnapshot) {
    out.push_str(r#"{"version":"#);
    write_u64(out, snapshot.version);
    out.push_str(r#","epoch":"#);
    write_u64(out, snapshot.epoch);
    out.push_str(r#","tenants":"#);
    write_array(out, &snapshot.tenants, write_snapshot);
    out.push('}');
}

fn read_shard_snapshot(r: &mut Reader<'_>) -> Result<ShardSnapshot, SpecError> {
    const CTX: &str = "ShardSnapshot";
    let (mut version, mut epoch, mut tenants) = (None, None, None);
    r.object(CTX, |r, key| match key {
        "version" => r.field(key, &mut version, |r| read_version(r, CTX)),
        "epoch" => r.field(key, &mut epoch, |r| r.u64(CTX)),
        "tenants" => r.field(key, &mut tenants, |r| r.array(CTX, read_snapshot)),
        _ => Ok(false),
    })?;
    Ok(ShardSnapshot {
        version: required(version, CTX, "version")?,
        epoch: required(epoch, CTX, "epoch")?,
        tenants: required(tenants, CTX, "tenants")?,
    })
}

// ---------------------------------------------------------------------------
// WalRecord
// ---------------------------------------------------------------------------

fn write_wal_record(out: &mut String, record: &WalRecord) {
    match record {
        WalRecord::Register {
            id,
            scenario,
            flush_max_pending,
            flush_before_decide,
            auto_feedback,
            echo_feedback,
        } => {
            out.push_str(r#"{"type":"register","id":"#);
            write_string(id, out);
            out.push_str(r#","scenario":"#);
            scenario_to_json(scenario).write(out);
            out.push_str(r#","flush_max_pending":"#);
            write_u64(out, *flush_max_pending);
            out.push_str(r#","flush_before_decide":"#);
            write_bool(out, *flush_before_decide);
            out.push_str(r#","auto_feedback":"#);
            write_bool(out, *auto_feedback);
            out.push_str(r#","echo_feedback":"#);
            write_bool(out, *echo_feedback);
        }
        WalRecord::Restore { snapshot } => {
            out.push_str(r#"{"type":"restore","snapshot":"#);
            write_snapshot(out, snapshot);
        }
        WalRecord::Decide { tenant, count } => {
            out.push_str(r#"{"type":"decide","tenant":"#);
            write_string(tenant, out);
            out.push_str(r#","count":"#);
            write_u64(out, *count);
        }
        WalRecord::Feedback {
            tenant,
            round,
            event,
        } => {
            out.push_str(r#"{"type":"feedback","tenant":"#);
            write_string(tenant, out);
            out.push_str(r#","round":"#);
            write_u64(out, *round);
            out.push_str(r#","event":"#);
            write_event(out, event);
        }
        WalRecord::Flush { tenant } => {
            out.push_str(r#"{"type":"flush","tenant":"#);
            write_string(tenant, out);
        }
        WalRecord::Removed { tenant } => {
            out.push_str(r#"{"type":"removed","tenant":"#);
            write_string(tenant, out);
        }
        WalRecord::Drain => out.push_str(r#"{"type":"drain""#),
    }
    out.push('}');
}

fn read_wal_record(r: &mut Reader<'_>) -> Result<WalRecord, SpecError> {
    const CTX: &str = "WalRecord";
    let tag = r.tag(CTX)?;
    let (mut id, mut scenario, mut flush_max_pending) = (None, None, None);
    let (mut flush_before_decide, mut auto_feedback, mut echo_feedback) = (None, None, None);
    let (mut snapshot, mut tenant, mut count, mut round, mut event) =
        (None, None, None, None, None);
    let record = match &*tag {
        "register" => {
            r.tagged_object(CTX, |r, key| match key {
                "id" => r.field(key, &mut id, |r| r.string_owned(CTX)),
                "scenario" => r.field(key, &mut scenario, |r| {
                    scenario_from_json(&r.tree()?).map(Box::new)
                }),
                "flush_max_pending" => r.field(key, &mut flush_max_pending, |r| r.u64(CTX)),
                "flush_before_decide" => r.field(key, &mut flush_before_decide, |r| r.bool(CTX)),
                "auto_feedback" => r.field(key, &mut auto_feedback, |r| r.bool(CTX)),
                "echo_feedback" => r.field(key, &mut echo_feedback, |r| r.bool(CTX)),
                _ => Ok(false),
            })?;
            WalRecord::Register {
                id: required(id, CTX, "id")?,
                scenario: required(scenario, CTX, "scenario")?,
                flush_max_pending: required(flush_max_pending, CTX, "flush_max_pending")?,
                flush_before_decide: required(flush_before_decide, CTX, "flush_before_decide")?,
                auto_feedback: required(auto_feedback, CTX, "auto_feedback")?,
                echo_feedback: required(echo_feedback, CTX, "echo_feedback")?,
            }
        }
        "restore" => {
            r.tagged_object(CTX, |r, key| match key {
                "snapshot" => r.field(key, &mut snapshot, |r| read_snapshot(r).map(Box::new)),
                _ => Ok(false),
            })?;
            WalRecord::Restore {
                snapshot: required(snapshot, CTX, "snapshot")?,
            }
        }
        "decide" => {
            r.tagged_object(CTX, |r, key| match key {
                "tenant" => r.field(key, &mut tenant, |r| r.string_owned(CTX)),
                "count" => r.field(key, &mut count, |r| r.u64(CTX)),
                _ => Ok(false),
            })?;
            WalRecord::Decide {
                tenant: required(tenant, CTX, "tenant")?,
                count: required(count, CTX, "count")?,
            }
        }
        "feedback" => {
            r.tagged_object(CTX, |r, key| match key {
                "tenant" => r.field(key, &mut tenant, |r| r.string_owned(CTX)),
                "round" => r.field(key, &mut round, |r| r.u64(CTX)),
                "event" => r.field(key, &mut event, read_event),
                _ => Ok(false),
            })?;
            WalRecord::Feedback {
                tenant: required(tenant, CTX, "tenant")?,
                round: required(round, CTX, "round")?,
                event: required(event, CTX, "event")?,
            }
        }
        "flush" | "removed" => {
            r.tagged_object(CTX, |r, key| match key {
                "tenant" => r.field(key, &mut tenant, |r| r.string_owned(CTX)),
                _ => Ok(false),
            })?;
            let tenant = required(tenant, CTX, "tenant")?;
            if &*tag == "flush" {
                WalRecord::Flush { tenant }
            } else {
                WalRecord::Removed { tenant }
            }
        }
        "drain" => {
            r.tagged_object(CTX, |_, _| Ok(false))?;
            WalRecord::Drain
        }
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    Ok(record)
}

// ---------------------------------------------------------------------------
// text entry points
// ---------------------------------------------------------------------------

/// Encodes `value` with `write` into a fresh string.
fn encode<T: ?Sized>(value: &T, write: fn(&mut String, &T)) -> String {
    let mut out = String::new();
    write(&mut out, value);
    out
}

/// Decodes a whole document with `read`; trailing characters are an error.
fn decode<T>(
    text: &str,
    read: fn(&mut Reader<'_>) -> Result<T, SpecError>,
) -> Result<T, SpecError> {
    let mut reader = Reader::new(text);
    let value = read(&mut reader)?;
    reader.end()?;
    Ok(value)
}

impl StoredTenantSnapshot {
    /// Encodes the snapshot to a compact JSON document.
    pub fn to_json_text(&self) -> String {
        encode(self, write_snapshot)
    }

    /// Decodes a snapshot from JSON text (strict).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        decode(text, read_snapshot)
    }
}

impl ShardSnapshot {
    /// Encodes the checkpoint to a compact JSON document.
    pub fn to_json_text(&self) -> String {
        encode(self, write_shard_snapshot)
    }

    /// Decodes a checkpoint from JSON text (strict).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        decode(text, read_shard_snapshot)
    }
}

impl WalRecord {
    /// Encodes the record to a compact JSON document.
    pub fn to_json_text(&self) -> String {
        encode(self, write_wal_record)
    }

    /// Decodes a record from JSON text (strict).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        decode(text, read_wal_record)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::model::{
        ArmsSpec, FeedbackSpec, GraphSpec, PolicySpec, SideBonus, WorkloadSpec, SPEC_VERSION,
    };
    use netband_env::SinglePlayFeedback;

    fn sample_scenario() -> ScenarioSpec {
        ScenarioSpec {
            version: SPEC_VERSION,
            name: "store-demo".into(),
            workload: WorkloadSpec {
                graph: GraphSpec::ErdosRenyi {
                    num_arms: 6,
                    edge_prob: 0.3,
                },
                arms: ArmsSpec::UniformMeanBernoulli { num_arms: 6 },
                family: None,
                drift: None,
                seed: 42,
            },
            policy: PolicySpec::DflSso,
            side_bonus: SideBonus::Observation,
            horizon: 50,
            replications: 1,
            seed: 7,
            feedback: FeedbackSpec::Immediate,
        }
    }

    fn sample_event(arm: usize, reward: f64) -> FeedbackEvent {
        FeedbackEvent::Single(SinglePlayFeedback {
            arm,
            direct_reward: reward,
            side_reward: reward + 0.5,
            observations: vec![(arm, reward)],
        })
    }

    fn sample_snapshot() -> StoredTenantSnapshot {
        let mut policy = PolicyState::new();
        policy.counts.push(vec![3, 0, 7]);
        policy.floats.push(vec![0.1 + 0.2, 1.0 / 3.0, 0.0]);
        policy.windows.push(vec![0.25, 1.0]);
        policy.rng = Some([1, 2, 3, u64::MAX]);
        StoredTenantSnapshot {
            version: STORE_VERSION,
            id: "exp-0".into(),
            scenario: Box::new(sample_scenario()),
            round: 4,
            optimal_sum: 2.75,
            total_reward: 0.1 + 0.2,
            flush_max_pending: 1,
            flush_before_decide: true,
            auto_feedback: false,
            echo_feedback: true,
            rng: [9, 8, 7, 6],
            policy,
            realised: vec![0.5, -0.25, 0.0, 1.0 / 3.0],
            pseudo: vec![0.5, 0.5, 0.0, 0.0],
            pending: vec![(3, sample_event(1, 1.0)), (1, sample_event(0, 0.0))],
            metrics: TenantMetrics {
                decides: 4,
                feedback_events: 2,
                batches_flushed: 1,
                events_applied: 2,
                max_batch: 2,
            },
        }
    }

    #[test]
    fn tenant_snapshots_round_trip_byte_stably() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_json_text();
        let back = StoredTenantSnapshot::from_json_text(&text).unwrap();
        assert_eq!(back, snapshot);
        // Byte stability: decode → re-encode is the identity on the text.
        assert_eq!(back.to_json_text(), text);
        // The floats survive bit-for-bit, not just approximately.
        assert_eq!(back.total_reward.to_bits(), snapshot.total_reward.to_bits());
        assert_eq!(back.realised[3].to_bits(), snapshot.realised[3].to_bits());
        assert_eq!(
            back.policy.floats[0][0].to_bits(),
            snapshot.policy.floats[0][0].to_bits()
        );
    }

    #[test]
    fn shard_snapshots_round_trip() {
        let shard = ShardSnapshot {
            version: STORE_VERSION,
            epoch: 12,
            tenants: vec![sample_snapshot()],
        };
        let text = shard.to_json_text();
        let back = ShardSnapshot::from_json_text(&text).unwrap();
        assert_eq!(back, shard);
        assert_eq!(back.to_json_text(), text);
    }

    #[test]
    fn wal_records_round_trip() {
        let records = [
            WalRecord::Register {
                id: "exp-0".into(),
                scenario: Box::new(sample_scenario()),
                flush_max_pending: 32,
                flush_before_decide: false,
                auto_feedback: true,
                echo_feedback: false,
            },
            WalRecord::Restore {
                snapshot: Box::new(sample_snapshot()),
            },
            WalRecord::Decide {
                tenant: "exp-0".into(),
                count: 32,
            },
            WalRecord::Feedback {
                tenant: "exp-0".into(),
                round: 2,
                event: sample_event(4, 0.1 + 0.2),
            },
            WalRecord::Flush {
                tenant: "exp-0".into(),
            },
            WalRecord::Removed {
                tenant: "exp-0".into(),
            },
            WalRecord::Drain,
        ];
        for record in records {
            let text = record.to_json_text();
            let back = WalRecord::from_json_text(&text).unwrap();
            assert_eq!(back, record, "{text}");
            assert_eq!(back.to_json_text(), text);
        }
    }

    #[test]
    fn policy_state_without_rng_omits_the_key() {
        let state = PolicyState {
            counts: vec![vec![1]],
            floats: vec![],
            windows: vec![],
            rng: None,
        };
        let mut text = String::new();
        write_policy_state(&mut text, &state);
        assert!(!text.contains("rng"), "{text}");
        assert_eq!(decode(&text, read_policy_state).unwrap(), state);
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let mut snapshot = sample_snapshot();
        snapshot.version = STORE_VERSION + 1;
        let err = StoredTenantSnapshot::from_json_text(&snapshot.to_json_text()).unwrap_err();
        assert!(
            matches!(err, SpecError::UnsupportedVersion { found, .. } if found == STORE_VERSION + 1),
            "{err}"
        );
        let shard = ShardSnapshot {
            version: 99,
            epoch: 0,
            tenants: vec![],
        };
        assert!(matches!(
            ShardSnapshot::from_json_text(&shard.to_json_text()).unwrap_err(),
            SpecError::UnsupportedVersion { found: 99, .. }
        ));
    }

    #[test]
    fn unknown_fields_and_tags_are_rejected() {
        for bad in [
            r#"{"type":"decide","tenant":"t","count":1,"extra":0}"#,
            r#"{"type":"decide_quickly","tenant":"t","count":1}"#,
            r#"{"type":"decide","tenant":"t"}"#,
            r#"{"type":"drain","hard":true}"#,
            r#"{"type":"flush"}"#,
        ] {
            assert!(WalRecord::from_json_text(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn trace_length_mismatches_are_rejected() {
        // A trace array shorter than the served-round counter is corruption
        // even when the document is schema-valid.
        let mut snapshot = sample_snapshot();
        snapshot.realised.pop();
        let err = StoredTenantSnapshot::from_json_text(&snapshot.to_json_text()).unwrap_err();
        assert!(err.to_string().contains("regret trace"), "{err}");
        let mut snapshot = sample_snapshot();
        snapshot.pseudo.push(0.0);
        assert!(StoredTenantSnapshot::from_json_text(&snapshot.to_json_text()).is_err());
    }

    #[test]
    fn pending_rounds_beyond_the_served_counter_are_rejected() {
        for bogus in [0, 5, 99] {
            let mut snapshot = sample_snapshot();
            snapshot.pending.push((bogus, sample_event(0, 1.0)));
            let err = StoredTenantSnapshot::from_json_text(&snapshot.to_json_text()).unwrap_err();
            assert!(err.to_string().contains("pending feedback"), "{err}");
        }
    }

    #[test]
    fn malformed_rng_states_are_rejected() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_json_text();
        let bad = text.replace("\"rng\":[9,8,7,6]", "\"rng\":[9,8,7]");
        assert_ne!(bad, text, "fixture rng words changed; update the test");
        let err = StoredTenantSnapshot::from_json_text(&bad).unwrap_err();
        assert!(err.to_string().contains("4 words"), "{err}");
    }

    #[test]
    fn truncated_documents_are_rejected() {
        let text = sample_snapshot().to_json_text();
        // Chop the document at a few byte offsets; every prefix must fail to
        // decode (this is the payload-level half of torn-tail handling — the
        // framing CRC in netband-store is the other half).
        for cut in [1, text.len() / 4, text.len() / 2, text.len() - 1] {
            let truncated = &text[..cut];
            assert!(
                StoredTenantSnapshot::from_json_text(truncated).is_err(),
                "accepted a {cut}-byte prefix"
            );
        }
    }

    /// Finite `f64` bit patterns (the codec refuses NaN/infinities by
    /// contract, so those draws fall back to the raw bits as a value —
    /// still an "awkward" float, just a finite one).
    fn arb_finite_f64() -> impl Strategy<Value = f64> {
        (0u64..=u64::MAX).prop_map(|bits| {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                bits as f64
            }
        })
    }

    /// Arbitrary xoshiro256++ state words.
    fn arb_rng_words() -> impl Strategy<Value = [u64; 4]> {
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
        )
            .prop_map(|(a, b, c, d)| [a, b, c, d])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The satellite contract: snapshot → bytes → snapshot → bytes is
        /// byte-stable and bit-exact for arbitrary finite float payloads and
        /// RNG words.
        #[test]
        fn arbitrary_snapshots_round_trip_byte_stably(
            rng_words in arb_rng_words(),
            policy_rng in arb_rng_words(),
            counts in proptest::collection::vec(0u64..=u64::MAX, 0..8),
            floats in proptest::collection::vec(arb_finite_f64(), 0..8),
            trace in proptest::collection::vec((arb_finite_f64(), arb_finite_f64()), 0..8),
            totals in (arb_finite_f64(), arb_finite_f64()),
        ) {
            let mut policy = PolicyState::new();
            policy.counts.push(counts);
            policy.floats.push(floats);
            policy.rng = Some(policy_rng);
            let snapshot = StoredTenantSnapshot {
                version: STORE_VERSION,
                id: "prop".into(),
                scenario: Box::new(sample_scenario()),
                round: trace.len() as u64,
                optimal_sum: totals.0,
                total_reward: totals.1,
                flush_max_pending: 1,
                flush_before_decide: true,
                auto_feedback: false,
                echo_feedback: true,
                rng: rng_words,
                policy,
                realised: trace.iter().map(|&(r, _)| r).collect(),
                pseudo: trace.iter().map(|&(_, p)| p).collect(),
                pending: Vec::new(),
                metrics: TenantMetrics::default(),
            };
            let text = snapshot.to_json_text();
            let back = StoredTenantSnapshot::from_json_text(&text).unwrap();
            prop_assert_eq!(&back, &snapshot);
            prop_assert_eq!(back.to_json_text(), text);
        }
    }
}
