//! Request/response model for the framed TCP wire protocol.
//!
//! `netband-net` puts a server in front of `netband-serve`; the documents it
//! exchanges are defined **here**, next to the [`ScenarioSpec`] codec they
//! embed, so the wire format inherits every property of the spec codec:
//!
//! * **strict decoding** — unknown fields, unknown `"type"` tags, and
//!   duplicate keys are hard errors (a typo'd request fails loudly instead of
//!   silently decoding to something else);
//! * **numeric exactness** — `f64` rewards travel as shortest round-trip
//!   lexemes ([`Json::from_f64`](crate::json::Json::from_f64)'s bytes) and
//!   therefore arrive bit-identical, which is what lets
//!   `tests/net_equivalence.rs` hold a TCP client to the golden DFL traces
//!   bit for bit;
//! * **no new dependencies** — the same hand-rolled [`crate::json`] codec,
//!   over `std` only.
//!
//! The served values inside the documents — [`DecideReply`], [`Decision`]
//! and [`FeedbackEvent`] — are the engine's own types from `netband-env`, so
//! a decoded reply needs no conversion on either side of the socket.
//!
//! These are the hot documents — every served decision crosses the codec
//! twice — so they never become a [`Json`](crate::json::Json) tree. The
//! writer appends each document straight into a caller-owned `String`
//! ([`WireRequest::write_json`], [`WireResponse::write_json`]); the reader
//! is schema-driven over borrowed lexemes: it reads each number once and
//! copies a string only when it holds escapes. Only a `register_tenant`'s
//! `scenario` value is read as a tree and handed to the spec decoder.
//!
//! The decode contract: keys may come in any order (the `"type"` tag
//! included), whitespace may sit between any two tokens, keys may be
//! escaped (`"\u0074ype"`), and `"feedback": null` reads like an omitted
//! `feedback`. Duplicate keys at any level, unknown fields and tags,
//! non-finite numbers (`1e400`), integer fields given as `1.0` or `-0`, a
//! `count` above `u32`, and bytes after the document are all errors.
//!
//! One request document maps to exactly one response document. Framing
//! (length prefixes, size limits, connection lifecycle) is transport business
//! and lives in `netband-net`; this module is just the payload model:
//!
//! | request                        | success response                  |
//! |--------------------------------|-----------------------------------|
//! | [`WireRequest::DecideMany`]    | [`WireResponse::Decisions`]       |
//! | [`WireRequest::FeedbackMany`]  | [`WireResponse::Accepted`]        |
//! | [`WireRequest::RegisterTenant`]| [`WireResponse::Ok`]              |
//! | [`WireRequest::Metrics`]       | [`WireResponse::Metrics`]         |
//! | [`WireRequest::Telemetry`]     | [`WireResponse::Telemetry`]       |
//!
//! Any request can instead draw [`WireResponse::Error`]; an
//! [`WireErrorCode::Overloaded`] error means the engine's bounded shard queue
//! was full and the request was **not** enqueued — the client should back off
//! and retry, exactly like an HTTP 503.

use netband_env::{
    CombinatorialFeedback, DecideReply, Decision, FeedbackEvent, SinglePlayFeedback,
};

use crate::codec::{scenario_from_json, scenario_to_json};
use crate::error::SpecError;
use crate::json::{required, write_array, write_bool, write_f64, write_string, write_u64, Reader};
use crate::model::ScenarioSpec;
use crate::ArmId;

// ---------------------------------------------------------------------------
// model types
// ---------------------------------------------------------------------------

/// A client → server document.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Serve `count` consecutive decisions for one tenant (one batched
    /// `decide_many` on the engine — never `count` per-call round trips).
    DecideMany {
        /// Tenant id.
        tenant: String,
        /// Number of decisions to serve (must be ≥ 1; servers may cap it).
        count: u32,
    },
    /// Ingest a window of feedback events for one tenant, possibly delayed
    /// and out of round order.
    FeedbackMany {
        /// Tenant id.
        tenant: String,
        /// The events, each quoting the round of the decision it answers.
        events: Vec<WireFeedback>,
    },
    /// Create a tenant from a declarative scenario document.
    RegisterTenant {
        /// Tenant id (must not collide with a live tenant).
        id: String,
        /// The full scenario (workload, policy, seeds, flush schedule).
        /// Boxed so the rare registration document doesn't inflate every
        /// hot-path `WireRequest` by the size of a `ScenarioSpec`.
        scenario: Box<ScenarioSpec>,
    },
    /// Ask for an engine-wide metrics snapshot.
    Metrics,
    /// Ask for one tenant's learning-telemetry snapshot (per-arm pulls and
    /// means, cumulative realised/oracle reward, pending feedback). Read-only:
    /// the server must not flush the tenant to answer this.
    Telemetry {
        /// Tenant id.
        tenant: String,
    },
}

/// One feedback event in a [`WireRequest::FeedbackMany`] window.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFeedback {
    /// The tenant-local round (1-based) of the decision this answers.
    pub round: u64,
    /// The revealed observations.
    pub event: FeedbackEvent,
}

/// A server → client document.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Reply to [`WireRequest::DecideMany`].
    Decisions {
        /// Tenant id, echoed.
        tenant: String,
        /// One entry per served decision, in round order.
        replies: Vec<DecideReply>,
    },
    /// Reply to [`WireRequest::RegisterTenant`].
    Ok,
    /// Reply to [`WireRequest::FeedbackMany`]: the window was enqueued.
    Accepted {
        /// Number of events accepted.
        count: u64,
    },
    /// Reply to [`WireRequest::Metrics`].
    Metrics(WireMetrics),
    /// Reply to [`WireRequest::Telemetry`]. Boxed: the snapshot is by far
    /// the largest response body and would otherwise dominate the enum size.
    Telemetry(Box<WireTelemetry>),
    /// Any request may fail; the code is machine-readable, the message is
    /// for humans.
    Error {
        /// What went wrong.
        code: WireErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A latency quantile summary read off the engine's fixed-bucket histograms.
///
/// `*_exact` is the exactness flag from `LatencyHistogram::quantile_bound`:
/// `true` means the quantile lies inside a closed bucket and `*_ns` is its
/// upper bound ("p99 ≤ 16µs"); `false` means the quantile fell in the final
/// open-ended bucket and `*_ns` is only a lower bound ("p99 > 512µs").
#[derive(Debug, Clone, PartialEq)]
pub struct WireLatency {
    /// Upper (or, if `!p50_exact`, lower) bound on the median, nanoseconds.
    pub p50_ns: u64,
    /// Whether `p50_ns` is a closed-bucket upper bound.
    pub p50_exact: bool,
    /// Upper (or, if `!p99_exact`, lower) bound on the 99th percentile.
    pub p99_ns: u64,
    /// Whether `p99_ns` is a closed-bucket upper bound.
    pub p99_exact: bool,
}

/// Engine-wide metrics snapshot, flattened for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMetrics {
    /// Number of shards in the engine.
    pub shards: u64,
    /// Number of live tenants.
    pub tenants: u64,
    /// Total decisions served since boot.
    pub total_decides: u64,
    /// Total feedback events ingested since boot.
    pub total_feedback_events: u64,
    /// Total commands the shards rejected (unknown tenant, bad feedback, …).
    pub rejected: u64,
    /// Commands refused engine-side because a shard queue was full (the
    /// requests that drew an `overloaded` error frame). Counted where the
    /// rejection happens — no shard ever saw these.
    pub overload_rejections: u64,
    /// Decide-path service latency (merged across shards).
    pub decide_latency: WireLatency,
    /// Feedback-ingestion service latency (merged across shards).
    pub feedback_latency: WireLatency,
}

/// One arm's learning statistics in a [`WireTelemetry`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WireArmStat {
    /// Dense arm id (for DFL-CSO, a dense *strategy* id).
    pub arm: ArmId,
    /// Number of times the estimator has been updated for this arm.
    pub pulls: u64,
    /// Empirical mean reward of this arm, bit-exact across the wire.
    pub mean: f64,
}

/// One tenant's learning-telemetry snapshot, flattened for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTelemetry {
    /// Tenant id, echoed.
    pub tenant: String,
    /// Name of the hosted policy (e.g. `"DFL-SSO"`).
    pub policy: String,
    /// Rounds served so far.
    pub round: u64,
    /// Feedback events queued but not yet flushed into the policy.
    pub pending_feedback: u64,
    /// Decisions served (the tenant's serving counter).
    pub decides: u64,
    /// Feedback events accepted (the tenant's serving counter).
    pub feedback_events: u64,
    /// Cumulative realised reward, bit-exact across the wire.
    pub total_reward: f64,
    /// Cumulative dynamic-oracle reward, bit-exact across the wire.
    pub optimal_reward: f64,
    /// Dynamic-oracle regret proxy (`optimal_reward - total_reward`).
    pub regret: f64,
    /// Per-arm statistics (empty when the policy keeps no per-arm
    /// estimators, e.g. EXP3).
    pub arms: Vec<WireArmStat>,
}

/// Machine-readable error codes for [`WireResponse::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorCode {
    /// A bounded shard queue was full; the request was **not** enqueued.
    /// Back off and retry — nothing was lost and nothing was applied.
    Overloaded,
    /// The request frame exceeded the server's size or batch limits.
    TooLarge,
    /// The tenant id names no live tenant.
    UnknownTenant,
    /// [`WireRequest::RegisterTenant`] with an id that is already live.
    DuplicateTenant,
    /// The embedded [`ScenarioSpec`] failed to decode or build.
    Spec,
    /// The request decoded but is semantically invalid (e.g. `count` 0).
    Invalid,
    /// The engine is shutting down; the connection is about to close.
    EngineDown,
    /// The frame was not a valid request document.
    Protocol,
}

impl WireErrorCode {
    /// The wire token for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            WireErrorCode::Overloaded => "overloaded",
            WireErrorCode::TooLarge => "too_large",
            WireErrorCode::UnknownTenant => "unknown_tenant",
            WireErrorCode::DuplicateTenant => "duplicate_tenant",
            WireErrorCode::Spec => "spec",
            WireErrorCode::Invalid => "invalid",
            WireErrorCode::EngineDown => "engine_down",
            WireErrorCode::Protocol => "protocol",
        }
    }

    fn from_str(token: &str) -> Result<Self, SpecError> {
        Ok(match token {
            "overloaded" => WireErrorCode::Overloaded,
            "too_large" => WireErrorCode::TooLarge,
            "unknown_tenant" => WireErrorCode::UnknownTenant,
            "duplicate_tenant" => WireErrorCode::DuplicateTenant,
            "spec" => WireErrorCode::Spec,
            "invalid" => WireErrorCode::Invalid,
            "engine_down" => WireErrorCode::EngineDown,
            "protocol" => WireErrorCode::Protocol,
            other => {
                return Err(SpecError::UnknownVariant {
                    context: "wire error code",
                    variant: other.to_owned(),
                })
            }
        })
    }
}

impl std::fmt::Display for WireErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// text entry points
// ---------------------------------------------------------------------------

impl WireRequest {
    /// Encodes the request to a compact JSON document.
    pub fn to_json_text(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the request's compact JSON document to `out` — the same bytes
    /// as [`WireRequest::to_json_text`], into a buffer the caller reuses.
    pub fn write_json(&self, out: &mut String) {
        write_request(out, self);
    }

    /// Decodes a request from JSON text (strict: unknown fields are errors).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        let mut reader = Reader::new(text);
        let request = read_request(&mut reader)?;
        reader.end()?;
        Ok(request)
    }
}

impl WireResponse {
    /// Encodes the response to a compact JSON document.
    pub fn to_json_text(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the response's compact JSON document to `out` — the same
    /// bytes as [`WireResponse::to_json_text`], into a buffer the caller
    /// reuses.
    pub fn write_json(&self, out: &mut String) {
        write_response(out, self);
    }

    /// Appends a `decisions` document for `tenant` to `out`, straight from
    /// the engine's replies: the same bytes as [`WireResponse::write_json`]
    /// of a [`WireResponse::Decisions`] holding them, without collecting
    /// them into one.
    pub fn write_decisions<'a>(
        out: &mut String,
        tenant: &str,
        replies: impl IntoIterator<Item = &'a DecideReply>,
    ) {
        out.push_str(r#"{"type":"decisions","tenant":"#);
        write_string(tenant, out);
        out.push_str(r#","replies":"#);
        write_array(out, replies, write_reply);
        out.push('}');
    }

    /// Decodes a response from JSON text (strict: unknown fields are errors).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        let mut reader = Reader::new(text);
        let response = read_response(&mut reader)?;
        reader.end()?;
        Ok(response)
    }
}

fn unknown_variant(context: &'static str, variant: &str) -> SpecError {
    SpecError::UnknownVariant {
        context,
        variant: variant.to_owned(),
    }
}

// ---------------------------------------------------------------------------
// events
// ---------------------------------------------------------------------------

fn write_arms(out: &mut String, arms: &[ArmId]) {
    write_array(out, arms, |out, &arm| write_u64(out, arm as u64));
}

fn read_arms(r: &mut Reader<'_>, ctx: &'static str) -> Result<Vec<ArmId>, SpecError> {
    r.array(ctx, |r| r.usize(ctx))
}

fn write_observations(out: &mut String, observations: &[(ArmId, f64)]) {
    write_array(out, observations, |out, &(arm, x)| {
        out.push('[');
        write_u64(out, arm as u64);
        out.push(',');
        write_f64(out, x);
        out.push(']');
    });
}

fn read_observations(
    r: &mut Reader<'_>,
    ctx: &'static str,
) -> Result<Vec<(ArmId, f64)>, SpecError> {
    r.array(ctx, |r| r.pair(ctx, |r| r.usize(ctx), |r| r.f64(ctx)))
}

/// Appends one feedback event body (shared with the WAL's `feedback`
/// records and the snapshots' pending queues).
pub(crate) fn write_event(out: &mut String, event: &FeedbackEvent) {
    match event {
        FeedbackEvent::Single(f) => {
            out.push_str(r#"{"type":"single","arm":"#);
            write_u64(out, f.arm as u64);
            out.push_str(r#","direct_reward":"#);
            write_f64(out, f.direct_reward);
            out.push_str(r#","side_reward":"#);
            write_f64(out, f.side_reward);
            out.push_str(r#","observations":"#);
            write_observations(out, &f.observations);
        }
        FeedbackEvent::Combinatorial(f) => {
            out.push_str(r#"{"type":"combinatorial","strategy":"#);
            write_arms(out, &f.strategy);
            out.push_str(r#","observation_set":"#);
            write_arms(out, &f.observation_set);
            out.push_str(r#","direct_reward":"#);
            write_f64(out, f.direct_reward);
            out.push_str(r#","side_reward":"#);
            write_f64(out, f.side_reward);
            out.push_str(r#","observations":"#);
            write_observations(out, &f.observations);
        }
    }
    out.push('}');
}

/// Decodes one feedback event body (strict).
pub(crate) fn read_event(r: &mut Reader<'_>) -> Result<FeedbackEvent, SpecError> {
    const CTX: &str = "wire feedback event";
    let (mut arm, mut strategy, mut observation_set) = (None, None, None);
    let (mut direct_reward, mut side_reward, mut observations) = (None, None, None);
    let tag = r.tag(CTX)?;
    let single = match &*tag {
        "single" => true,
        "combinatorial" => false,
        other => return Err(unknown_variant(CTX, other)),
    };
    r.tagged_object(CTX, |r, key| match key {
        "arm" if single => r.field(key, &mut arm, |r| r.usize(CTX)),
        "strategy" if !single => r.field(key, &mut strategy, |r| read_arms(r, CTX)),
        "observation_set" if !single => r.field(key, &mut observation_set, |r| read_arms(r, CTX)),
        "direct_reward" => r.field(key, &mut direct_reward, |r| r.f64(CTX)),
        "side_reward" => r.field(key, &mut side_reward, |r| r.f64(CTX)),
        "observations" => r.field(key, &mut observations, |r| read_observations(r, CTX)),
        _ => Ok(false),
    })?;
    Ok(if single {
        FeedbackEvent::Single(SinglePlayFeedback {
            arm: required(arm, CTX, "arm")?,
            direct_reward: required(direct_reward, CTX, "direct_reward")?,
            side_reward: required(side_reward, CTX, "side_reward")?,
            observations: required(observations, CTX, "observations")?,
        })
    } else {
        FeedbackEvent::Combinatorial(CombinatorialFeedback {
            strategy: required(strategy, CTX, "strategy")?,
            observation_set: required(observation_set, CTX, "observation_set")?,
            direct_reward: required(direct_reward, CTX, "direct_reward")?,
            side_reward: required(side_reward, CTX, "side_reward")?,
            observations: required(observations, CTX, "observations")?,
        })
    })
}

/// Appends a `{"round":…,"event":…}` entry, the element of a feedback window
/// and of a snapshot's pending queue.
pub(crate) fn write_round_event(out: &mut String, round: u64, event: &FeedbackEvent) {
    out.push_str(r#"{"round":"#);
    write_u64(out, round);
    out.push_str(r#","event":"#);
    write_event(out, event);
    out.push('}');
}

/// Decodes a `{"round":…,"event":…}` entry (strict).
pub(crate) fn read_round_event(
    r: &mut Reader<'_>,
    ctx: &'static str,
) -> Result<(u64, FeedbackEvent), SpecError> {
    let (mut round, mut event) = (None, None);
    r.object(ctx, |r, key| match key {
        "round" => r.field(key, &mut round, |r| r.u64(ctx)),
        "event" => r.field(key, &mut event, read_event),
        _ => Ok(false),
    })?;
    Ok((
        required(round, ctx, "round")?,
        required(event, ctx, "event")?,
    ))
}

// ---------------------------------------------------------------------------
// requests
// ---------------------------------------------------------------------------

fn write_request(out: &mut String, request: &WireRequest) {
    match request {
        WireRequest::DecideMany { tenant, count } => {
            out.push_str(r#"{"type":"decide_many","tenant":"#);
            write_string(tenant, out);
            out.push_str(r#","count":"#);
            write_u64(out, u64::from(*count));
        }
        WireRequest::FeedbackMany { tenant, events } => {
            out.push_str(r#"{"type":"feedback_many","tenant":"#);
            write_string(tenant, out);
            out.push_str(r#","events":"#);
            write_array(out, events, |out, e| {
                write_round_event(out, e.round, &e.event)
            });
        }
        WireRequest::RegisterTenant { id, scenario } => {
            out.push_str(r#"{"type":"register_tenant","id":"#);
            write_string(id, out);
            out.push_str(r#","scenario":"#);
            scenario_to_json(scenario).write(out);
        }
        WireRequest::Metrics => out.push_str(r#"{"type":"metrics""#),
        WireRequest::Telemetry { tenant } => {
            out.push_str(r#"{"type":"telemetry","tenant":"#);
            write_string(tenant, out);
        }
    }
    out.push('}');
}

fn read_request(r: &mut Reader<'_>) -> Result<WireRequest, SpecError> {
    const CTX: &str = "wire request";
    const ENTRY: &str = "wire feedback entry";
    let tag = r.tag(CTX)?;
    let (mut tenant, mut count, mut events, mut id, mut scenario) = (None, None, None, None, None);
    let request = match &*tag {
        "decide_many" => {
            r.tagged_object(CTX, |r, key| match key {
                "tenant" => r.field(key, &mut tenant, |r| r.string_owned(CTX)),
                "count" => r.field(key, &mut count, |r| r.u32(CTX)),
                _ => Ok(false),
            })?;
            WireRequest::DecideMany {
                tenant: required(tenant, CTX, "tenant")?,
                count: required(count, CTX, "count")?,
            }
        }
        "feedback_many" => {
            r.tagged_object(CTX, |r, key| match key {
                "tenant" => r.field(key, &mut tenant, |r| r.string_owned(CTX)),
                "events" => r.field(key, &mut events, |r| {
                    r.array(CTX, |r| {
                        let (round, event) = read_round_event(r, ENTRY)?;
                        Ok(WireFeedback { round, event })
                    })
                }),
                _ => Ok(false),
            })?;
            WireRequest::FeedbackMany {
                tenant: required(tenant, CTX, "tenant")?,
                events: required(events, CTX, "events")?,
            }
        }
        "register_tenant" => {
            r.tagged_object(CTX, |r, key| match key {
                "id" => r.field(key, &mut id, |r| r.string_owned(CTX)),
                // The scenario stays a tree document: its byte span goes
                // through `parse`'s tree reader and the spec decoder.
                "scenario" => r.field(key, &mut scenario, |r| {
                    scenario_from_json(&r.tree()?).map(Box::new)
                }),
                _ => Ok(false),
            })?;
            WireRequest::RegisterTenant {
                id: required(id, CTX, "id")?,
                scenario: required(scenario, CTX, "scenario")?,
            }
        }
        "metrics" => {
            r.tagged_object(CTX, |_, _| Ok(false))?;
            WireRequest::Metrics
        }
        "telemetry" => {
            r.tagged_object(CTX, |r, key| match key {
                "tenant" => r.field(key, &mut tenant, |r| r.string_owned(CTX)),
                _ => Ok(false),
            })?;
            WireRequest::Telemetry {
                tenant: required(tenant, CTX, "tenant")?,
            }
        }
        other => return Err(unknown_variant(CTX, other)),
    };
    Ok(request)
}

// ---------------------------------------------------------------------------
// responses
// ---------------------------------------------------------------------------

fn write_latency(out: &mut String, latency: &WireLatency) {
    out.push_str(r#"{"p50_ns":"#);
    write_u64(out, latency.p50_ns);
    out.push_str(r#","p50_exact":"#);
    write_bool(out, latency.p50_exact);
    out.push_str(r#","p99_ns":"#);
    write_u64(out, latency.p99_ns);
    out.push_str(r#","p99_exact":"#);
    write_bool(out, latency.p99_exact);
    out.push('}');
}

fn read_latency(r: &mut Reader<'_>) -> Result<WireLatency, SpecError> {
    const CTX: &str = "wire latency";
    let (mut p50_ns, mut p50_exact, mut p99_ns, mut p99_exact) = (None, None, None, None);
    r.object(CTX, |r, key| match key {
        "p50_ns" => r.field(key, &mut p50_ns, |r| r.u64(CTX)),
        "p50_exact" => r.field(key, &mut p50_exact, |r| r.bool(CTX)),
        "p99_ns" => r.field(key, &mut p99_ns, |r| r.u64(CTX)),
        "p99_exact" => r.field(key, &mut p99_exact, |r| r.bool(CTX)),
        _ => Ok(false),
    })?;
    Ok(WireLatency {
        p50_ns: required(p50_ns, CTX, "p50_ns")?,
        p50_exact: required(p50_exact, CTX, "p50_exact")?,
        p99_ns: required(p99_ns, CTX, "p99_ns")?,
        p99_exact: required(p99_exact, CTX, "p99_exact")?,
    })
}

fn write_decision(out: &mut String, decision: &Decision) {
    match decision {
        Decision::Arm(arm) => {
            out.push_str(r#"{"type":"arm","arm":"#);
            write_u64(out, *arm as u64);
        }
        Decision::Strategy(arms) => {
            out.push_str(r#"{"type":"strategy","arms":"#);
            write_arms(out, arms);
        }
    }
    out.push('}');
}

fn read_decision(r: &mut Reader<'_>) -> Result<Decision, SpecError> {
    const CTX: &str = "wire decision";
    let tag = r.tag(CTX)?;
    let (mut arm, mut arms) = (None, None);
    match &*tag {
        "arm" => {
            r.tagged_object(CTX, |r, key| match key {
                "arm" => r.field(key, &mut arm, |r| r.usize(CTX)),
                _ => Ok(false),
            })?;
            Ok(Decision::Arm(required(arm, CTX, "arm")?))
        }
        "strategy" => {
            r.tagged_object(CTX, |r, key| match key {
                "arms" => r.field(key, &mut arms, |r| read_arms(r, CTX)),
                _ => Ok(false),
            })?;
            Ok(Decision::Strategy(required(arms, CTX, "arms")?))
        }
        other => Err(unknown_variant(CTX, other)),
    }
}

fn write_reply(out: &mut String, reply: &DecideReply) {
    out.push_str(r#"{"round":"#);
    write_u64(out, reply.round);
    out.push_str(r#","decision":"#);
    write_decision(out, &reply.decision);
    out.push_str(r#","reward":"#);
    write_f64(out, reply.reward);
    out.push_str(r#","feedback":"#);
    match &reply.feedback {
        Some(event) => write_event(out, event),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn read_reply(r: &mut Reader<'_>) -> Result<DecideReply, SpecError> {
    const CTX: &str = "wire decide reply";
    let (mut round, mut decision, mut reward, mut feedback) = (None, None, None, None);
    r.object(CTX, |r, key| match key {
        "round" => r.field(key, &mut round, |r| r.u64(CTX)),
        "decision" => r.field(key, &mut decision, read_decision),
        "reward" => r.field(key, &mut reward, |r| r.f64(CTX)),
        // `null` and an omitted key both mean "no feedback echoed".
        "feedback" => r.field(key, &mut feedback, |r| r.nullable(read_event)),
        _ => Ok(false),
    })?;
    Ok(DecideReply {
        round: required(round, CTX, "round")?,
        decision: required(decision, CTX, "decision")?,
        reward: required(reward, CTX, "reward")?,
        feedback: feedback.flatten(),
    })
}

fn write_response(out: &mut String, response: &WireResponse) {
    match response {
        WireResponse::Decisions { tenant, replies } => {
            return WireResponse::write_decisions(out, tenant, replies);
        }
        WireResponse::Ok => out.push_str(r#"{"type":"ok""#),
        WireResponse::Accepted { count } => {
            out.push_str(r#"{"type":"accepted","count":"#);
            write_u64(out, *count);
        }
        WireResponse::Metrics(m) => {
            out.push_str(r#"{"type":"metrics","shards":"#);
            write_u64(out, m.shards);
            out.push_str(r#","tenants":"#);
            write_u64(out, m.tenants);
            out.push_str(r#","total_decides":"#);
            write_u64(out, m.total_decides);
            out.push_str(r#","total_feedback_events":"#);
            write_u64(out, m.total_feedback_events);
            out.push_str(r#","rejected":"#);
            write_u64(out, m.rejected);
            out.push_str(r#","overload_rejections":"#);
            write_u64(out, m.overload_rejections);
            out.push_str(r#","decide_latency":"#);
            write_latency(out, &m.decide_latency);
            out.push_str(r#","feedback_latency":"#);
            write_latency(out, &m.feedback_latency);
        }
        WireResponse::Telemetry(t) => {
            out.push_str(r#"{"type":"telemetry","tenant":"#);
            write_string(&t.tenant, out);
            out.push_str(r#","policy":"#);
            write_string(&t.policy, out);
            out.push_str(r#","round":"#);
            write_u64(out, t.round);
            out.push_str(r#","pending_feedback":"#);
            write_u64(out, t.pending_feedback);
            out.push_str(r#","decides":"#);
            write_u64(out, t.decides);
            out.push_str(r#","feedback_events":"#);
            write_u64(out, t.feedback_events);
            out.push_str(r#","total_reward":"#);
            write_f64(out, t.total_reward);
            out.push_str(r#","optimal_reward":"#);
            write_f64(out, t.optimal_reward);
            out.push_str(r#","regret":"#);
            write_f64(out, t.regret);
            out.push_str(r#","arms":"#);
            write_array(out, &t.arms, |out, a| {
                out.push_str(r#"{"arm":"#);
                write_u64(out, a.arm as u64);
                out.push_str(r#","pulls":"#);
                write_u64(out, a.pulls);
                out.push_str(r#","mean":"#);
                write_f64(out, a.mean);
                out.push('}');
            });
        }
        WireResponse::Error { code, message } => {
            out.push_str(r#"{"type":"error","code":"#);
            write_string(code.as_str(), out);
            out.push_str(r#","message":"#);
            write_string(message, out);
        }
    }
    out.push('}');
}

fn read_arm_stat(r: &mut Reader<'_>) -> Result<WireArmStat, SpecError> {
    const CTX: &str = "wire arm stat";
    let (mut arm, mut pulls, mut mean) = (None, None, None);
    r.object(CTX, |r, key| match key {
        "arm" => r.field(key, &mut arm, |r| r.usize(CTX)),
        "pulls" => r.field(key, &mut pulls, |r| r.u64(CTX)),
        "mean" => r.field(key, &mut mean, |r| r.f64(CTX)),
        _ => Ok(false),
    })?;
    Ok(WireArmStat {
        arm: required(arm, CTX, "arm")?,
        pulls: required(pulls, CTX, "pulls")?,
        mean: required(mean, CTX, "mean")?,
    })
}

fn read_metrics(r: &mut Reader<'_>, ctx: &'static str) -> Result<WireMetrics, SpecError> {
    let (mut shards, mut tenants, mut total_decides) = (None, None, None);
    let (mut total_feedback_events, mut rejected, mut overload_rejections) = (None, None, None);
    let (mut decide_latency, mut feedback_latency) = (None, None);
    r.tagged_object(ctx, |r, key| match key {
        "shards" => r.field(key, &mut shards, |r| r.u64(ctx)),
        "tenants" => r.field(key, &mut tenants, |r| r.u64(ctx)),
        "total_decides" => r.field(key, &mut total_decides, |r| r.u64(ctx)),
        "total_feedback_events" => r.field(key, &mut total_feedback_events, |r| r.u64(ctx)),
        "rejected" => r.field(key, &mut rejected, |r| r.u64(ctx)),
        "overload_rejections" => r.field(key, &mut overload_rejections, |r| r.u64(ctx)),
        "decide_latency" => r.field(key, &mut decide_latency, read_latency),
        "feedback_latency" => r.field(key, &mut feedback_latency, read_latency),
        _ => Ok(false),
    })?;
    Ok(WireMetrics {
        shards: required(shards, ctx, "shards")?,
        tenants: required(tenants, ctx, "tenants")?,
        total_decides: required(total_decides, ctx, "total_decides")?,
        total_feedback_events: required(total_feedback_events, ctx, "total_feedback_events")?,
        rejected: required(rejected, ctx, "rejected")?,
        overload_rejections: required(overload_rejections, ctx, "overload_rejections")?,
        decide_latency: required(decide_latency, ctx, "decide_latency")?,
        feedback_latency: required(feedback_latency, ctx, "feedback_latency")?,
    })
}

fn read_telemetry(r: &mut Reader<'_>, ctx: &'static str) -> Result<WireTelemetry, SpecError> {
    let (mut tenant, mut policy, mut round, mut pending_feedback) = (None, None, None, None);
    let (mut decides, mut feedback_events, mut total_reward) = (None, None, None);
    let (mut optimal_reward, mut regret, mut arms) = (None, None, None);
    r.tagged_object(ctx, |r, key| match key {
        "tenant" => r.field(key, &mut tenant, |r| r.string_owned(ctx)),
        "policy" => r.field(key, &mut policy, |r| r.string_owned(ctx)),
        "round" => r.field(key, &mut round, |r| r.u64(ctx)),
        "pending_feedback" => r.field(key, &mut pending_feedback, |r| r.u64(ctx)),
        "decides" => r.field(key, &mut decides, |r| r.u64(ctx)),
        "feedback_events" => r.field(key, &mut feedback_events, |r| r.u64(ctx)),
        "total_reward" => r.field(key, &mut total_reward, |r| r.f64(ctx)),
        "optimal_reward" => r.field(key, &mut optimal_reward, |r| r.f64(ctx)),
        "regret" => r.field(key, &mut regret, |r| r.f64(ctx)),
        "arms" => r.field(key, &mut arms, |r| r.array(ctx, read_arm_stat)),
        _ => Ok(false),
    })?;
    Ok(WireTelemetry {
        tenant: required(tenant, ctx, "tenant")?,
        policy: required(policy, ctx, "policy")?,
        round: required(round, ctx, "round")?,
        pending_feedback: required(pending_feedback, ctx, "pending_feedback")?,
        decides: required(decides, ctx, "decides")?,
        feedback_events: required(feedback_events, ctx, "feedback_events")?,
        total_reward: required(total_reward, ctx, "total_reward")?,
        optimal_reward: required(optimal_reward, ctx, "optimal_reward")?,
        regret: required(regret, ctx, "regret")?,
        arms: required(arms, ctx, "arms")?,
    })
}

fn read_response(r: &mut Reader<'_>) -> Result<WireResponse, SpecError> {
    const CTX: &str = "wire response";
    let tag = r.tag(CTX)?;
    let (mut tenant, mut replies, mut count) = (None, None, None);
    let (mut code, mut message) = (None, None);
    let response = match &*tag {
        "decisions" => {
            r.tagged_object(CTX, |r, key| match key {
                "tenant" => r.field(key, &mut tenant, |r| r.string_owned(CTX)),
                "replies" => r.field(key, &mut replies, |r| r.array(CTX, read_reply)),
                _ => Ok(false),
            })?;
            WireResponse::Decisions {
                tenant: required(tenant, CTX, "tenant")?,
                replies: required(replies, CTX, "replies")?,
            }
        }
        "ok" => {
            r.tagged_object(CTX, |_, _| Ok(false))?;
            WireResponse::Ok
        }
        "accepted" => {
            r.tagged_object(CTX, |r, key| match key {
                "count" => r.field(key, &mut count, |r| r.u64(CTX)),
                _ => Ok(false),
            })?;
            WireResponse::Accepted {
                count: required(count, CTX, "count")?,
            }
        }
        "metrics" => WireResponse::Metrics(read_metrics(r, CTX)?),
        "telemetry" => WireResponse::Telemetry(Box::new(read_telemetry(r, CTX)?)),
        "error" => {
            r.tagged_object(CTX, |r, key| match key {
                "code" => r.field(key, &mut code, |r| WireErrorCode::from_str(&r.str(CTX)?)),
                "message" => r.field(key, &mut message, |r| r.string_owned(CTX)),
                _ => Ok(false),
            })?;
            WireResponse::Error {
                code: required(code, CTX, "code")?,
                message: required(message, CTX, "message")?,
            }
        }
        other => return Err(unknown_variant(CTX, other)),
    };
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        ArmsSpec, FeedbackSpec, GraphSpec, PolicySpec, SideBonus, WorkloadSpec, SPEC_VERSION,
    };

    fn sample_scenario() -> ScenarioSpec {
        ScenarioSpec {
            version: SPEC_VERSION,
            name: "wire-demo".into(),
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

    fn single_event() -> FeedbackEvent {
        FeedbackEvent::Single(SinglePlayFeedback {
            arm: 3,
            direct_reward: 1.0,
            side_reward: 0.25 + 0.5,
            observations: vec![(1, 0.0), (3, 1.0), (4, 1.0 / 3.0)],
        })
    }

    fn combinatorial_event() -> FeedbackEvent {
        FeedbackEvent::Combinatorial(CombinatorialFeedback {
            strategy: vec![0, 2],
            observation_set: vec![0, 1, 2, 5],
            direct_reward: 2.0,
            side_reward: 3.0,
            observations: vec![(0, 1.0), (1, 0.0), (2, 1.0), (5, 0.1 + 0.2)],
        })
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            WireRequest::DecideMany {
                tenant: "exp-0".into(),
                count: 32,
            },
            WireRequest::FeedbackMany {
                tenant: "exp-0".into(),
                events: vec![
                    WireFeedback {
                        round: 2,
                        event: single_event(),
                    },
                    WireFeedback {
                        round: 1,
                        event: combinatorial_event(),
                    },
                ],
            },
            WireRequest::RegisterTenant {
                id: "exp-1".into(),
                scenario: Box::new(sample_scenario()),
            },
            WireRequest::Metrics,
            WireRequest::Telemetry {
                tenant: "exp-0".into(),
            },
        ];
        for request in requests {
            let text = request.to_json_text();
            assert_eq!(
                WireRequest::from_json_text(&text).unwrap(),
                request,
                "{text}"
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            WireResponse::Decisions {
                tenant: "exp-0".into(),
                replies: vec![
                    DecideReply {
                        round: 1,
                        decision: Decision::Arm(4),
                        reward: 0.1 + 0.2, // not representable exactly; must survive bit-for-bit
                        feedback: Some(single_event()),
                    },
                    DecideReply {
                        round: 2,
                        decision: Decision::Strategy(vec![0, 3]),
                        reward: 2.0,
                        feedback: None,
                    },
                ],
            },
            WireResponse::Ok,
            WireResponse::Accepted { count: 17 },
            WireResponse::Metrics(WireMetrics {
                shards: 4,
                tenants: 9,
                total_decides: 123_456,
                total_feedback_events: 123_000,
                rejected: 3,
                overload_rejections: 2,
                decide_latency: WireLatency {
                    p50_ns: 4_000,
                    p50_exact: true,
                    p99_ns: 524_288_000,
                    p99_exact: false,
                },
                feedback_latency: WireLatency {
                    p50_ns: 2_000,
                    p50_exact: true,
                    p99_ns: 16_000,
                    p99_exact: true,
                },
            }),
            WireResponse::Telemetry(Box::new(WireTelemetry {
                tenant: "exp-0".into(),
                policy: "DFL-SSO".into(),
                round: 300,
                pending_feedback: 4,
                decides: 300,
                feedback_events: 296,
                total_reward: 123.5,
                optimal_reward: 150.25,
                regret: 150.25 - 123.5,
                arms: vec![
                    WireArmStat {
                        arm: 0,
                        pulls: 250,
                        mean: 0.1 + 0.2, // must survive bit-for-bit
                    },
                    WireArmStat {
                        arm: 1,
                        pulls: 46,
                        mean: 0.0,
                    },
                ],
            })),
            WireResponse::Error {
                code: WireErrorCode::Overloaded,
                message: "shard 2 queue full".into(),
            },
        ];
        for response in responses {
            let text = response.to_json_text();
            assert_eq!(
                WireResponse::from_json_text(&text).unwrap(),
                response,
                "{text}"
            );
        }
    }

    #[test]
    fn rewards_survive_bit_exactly() {
        let reward = 0.30000000000000004; // 0.1 + 0.2
        let response = WireResponse::Decisions {
            tenant: "t".into(),
            replies: vec![DecideReply {
                round: 1,
                decision: Decision::Arm(0),
                reward,
                feedback: None,
            }],
        };
        let text = response.to_json_text();
        match WireResponse::from_json_text(&text).unwrap() {
            WireResponse::Decisions { replies, .. } => {
                assert_eq!(replies[0].reward.to_bits(), reward.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_and_tags_are_rejected() {
        for bad in [
            r#"{"type":"decide_many","tenant":"t","count":1,"extra":0}"#,
            r#"{"type":"decide_quickly","tenant":"t","count":1}"#,
            r#"{"type":"decide_many","tenant":"t"}"#,
            r#"{"type":"metrics","verbose":true}"#,
            r#"{"type":"telemetry"}"#,
            r#"{"type":"telemetry","tenant":"t","flush":true}"#,
        ] {
            assert!(WireRequest::from_json_text(bad).is_err(), "accepted {bad}");
        }
        for bad in [
            r#"{"type":"accepted"}"#,
            r#"{"type":"error","code":"not_a_code","message":"m"}"#,
            r#"{"type":"ok","status":200}"#,
        ] {
            assert!(WireResponse::from_json_text(bad).is_err(), "accepted {bad}");
        }
    }

    fn decide(tenant: &str, count: u32) -> WireRequest {
        WireRequest::DecideMany {
            tenant: tenant.into(),
            count,
        }
    }

    /// The documents the reader accepts beyond the canonical encoding, each
    /// with the value it must decode to.
    #[test]
    fn accepts_every_spelling_the_contract_allows() {
        let single = |arm, x| {
            FeedbackEvent::Single(SinglePlayFeedback {
                arm,
                direct_reward: x,
                side_reward: x,
                observations: vec![(arm, x)],
            })
        };
        let requests = [
            // Any key order, including the tag last.
            (
                r#"{"tenant":"t","count":3,"type":"decide_many"}"#,
                decide("t", 3),
            ),
            (
                r#"{"count":3,"type":"decide_many","tenant":"t"}"#,
                decide("t", 3),
            ),
            // Whitespace between any two tokens.
            (
                " {\n\t\"type\" : \"decide_many\" ,\r\n \"tenant\" :\"t\", \"count\" : 3 } \n",
                decide("t", 3),
            ),
            // Escaped keys and escaped tag values.
            (
                r#"{"\u0074ype":"decide\u005fmany","tenant":"\u0074","coun\u0074":3}"#,
                decide("t", 3),
            ),
            // Leading zeros in an integer lexeme.
            (
                r#"{"type":"decide_many","tenant":"t","count":007}"#,
                decide("t", 7),
            ),
            (r#"{"type":"metrics"}"#, WireRequest::Metrics),
            (
                r#"{"events":[ {"event":{"observations":[ [ 2 , 0.5 ] ],
                    "side_reward":5e-1,"direct_reward":0.5,"arm":2,"type":"single"},
                    "round":4} ],"tenant":"t","type":"feedback_many"}"#,
                WireRequest::FeedbackMany {
                    tenant: "t".into(),
                    events: vec![WireFeedback {
                        round: 4,
                        event: single(2, 0.5),
                    }],
                },
            ),
        ];
        for (text, expected) in requests {
            assert_eq!(
                WireRequest::from_json_text(text).unwrap(),
                expected,
                "{text}"
            );
        }
        // `"feedback": null` reads the same as an omitted `feedback`.
        let reply = |feedback: &str| {
            format!(
                r#"{{"type":"decisions","tenant":"t","replies":[{{"round":1,
                "decision":{{"arm":0,"type":"arm"}},"reward":-0{feedback}}}]}}"#
            )
        };
        let expected = WireResponse::Decisions {
            tenant: "t".into(),
            replies: vec![DecideReply {
                round: 1,
                decision: Decision::Arm(0),
                reward: -0.0,
                feedback: None,
            }],
        };
        for feedback in ["", r#","feedback":null"#, r#", "feedback" : null "#] {
            let text = reply(feedback);
            let decoded = WireResponse::from_json_text(&text).unwrap();
            assert_eq!(decoded, expected, "{text}");
            match decoded {
                WireResponse::Decisions { replies, .. } => {
                    assert!(replies[0].reward.is_sign_negative(), "-0 keeps its sign")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_every_document_the_contract_forbids() {
        let scenario = sample_scenario().to_json_text();
        let bad_requests = [
            // Duplicate keys, at every level and however spelled.
            r#"{"type":"decide_many","tenant":"t","tenant":"u","count":1}"#.to_owned(),
            r#"{"type":"decide_many","type":"decide_many","tenant":"t","count":1}"#.to_owned(),
            r#"{"type":"decide_many","\u0074ype":"decide_many","tenant":"t","count":1}"#.to_owned(),
            r#"{"tenant":"t","type":"decide_many","count":1,"type":"metrics"}"#.to_owned(),
            r#"{"type":"feedback_many","tenant":"t","events":[{"round":1,"round":1,
                "event":{"type":"single","arm":0,"direct_reward":0,"side_reward":0,
                "observations":[]}}]}"#
                .to_owned(),
            r#"{"type":"feedback_many","tenant":"t","events":[{"round":1,
                "event":{"type":"single","arm":0,"arm":1,"direct_reward":0,"side_reward":0,
                "observations":[]}}]}"#
                .to_owned(),
            format!(
                r#"{{"type":"register_tenant","id":"x","scenario":{}}}"#,
                scenario.replacen("\"seed\":7", "\"seed\":7,\"seed\":7", 1)
            ),
            // Unknown fields and unknown tags, at every level.
            r#"{"type":"decide_many","tenant":"t","count":1,"extra":0}"#.to_owned(),
            r#"{"type":"decide_quickly","tenant":"t","count":1}"#.to_owned(),
            r#"{"type":"metrics","verbose":true}"#.to_owned(),
            r#"{"type":"feedback_many","tenant":"t","events":[{"round":1,
                "event":{"type":"single","arm":0,"direct_reward":0,"side_reward":0,
                "observations":[],"strategy":[0]}}]}"#
                .to_owned(),
            r#"{"type":"feedback_many","tenant":"t","events":[{"round":1,
                "event":{"type":"double","arm":0}}]}"#
                .to_owned(),
            format!(
                r#"{{"type":"register_tenant","id":"x","scenario":{},"extra":1}}"#,
                scenario
            ),
            // Missing fields, and `null` for a required field.
            r#"{"type":"decide_many","tenant":"t"}"#.to_owned(),
            r#"{"tenant":"t","count":1}"#.to_owned(),
            r#"{"type":"decide_many","tenant":null,"count":1}"#.to_owned(),
            // Non-finite numbers, wherever they sit.
            r#"{"type":"decide_many","tenant":"t","count":1e400}"#.to_owned(),
            r#"{"type":"feedback_many","tenant":"t","events":[{"round":1,
                "event":{"type":"single","arm":0,"direct_reward":1e400,"side_reward":0,
                "observations":[]}}]}"#
                .to_owned(),
            r#"{"type":"feedback_many","tenant":"t","events":[{"round":1,
                "event":{"type":"single","arm":0,"direct_reward":0,"side_reward":0,
                "observations":[[0,-1e400]]}}]}"#
                .to_owned(),
            // Integer fields given a fraction, an exponent, a sign, or too
            // large a value.
            r#"{"type":"decide_many","tenant":"t","count":1.0}"#.to_owned(),
            r#"{"type":"decide_many","tenant":"t","count":1e0}"#.to_owned(),
            r#"{"type":"decide_many","tenant":"t","count":-0}"#.to_owned(),
            r#"{"type":"decide_many","tenant":"t","count":4294967296}"#.to_owned(),
            r#"{"type":"feedback_many","tenant":"t","events":[{"round":18446744073709551616,
                "event":{"type":"single","arm":0,"direct_reward":0,"side_reward":0,
                "observations":[]}}]}"#
                .to_owned(),
            r#"{"type":"feedback_many","tenant":"t","events":[{"round":1,
                "event":{"type":"single","arm":0,"direct_reward":0,"side_reward":0,
                "observations":[[0,1,2]]}}]}"#
                .to_owned(),
            // Malformed JSON and bytes after the document.
            r#"{"type":"decide_many","tenant":"t","count":1} x"#.to_owned(),
            r#"{"type":"metrics"}{"type":"metrics"}"#.to_owned(),
            r#"{"type":"metrics",}"#.to_owned(),
            r#"{"type":"decide_many","tenant":"t\q","count":1}"#.to_owned(),
            "{\"type\":\"decide_many\",\"tenant\":\"t\u{1}\",\"count\":1}".to_owned(),
            format!(
                r#"{{"type":"register_tenant","id":"x","scenario":{}}}"#,
                "[".repeat(50_000)
            ),
            "[".repeat(50_000),
            String::new(),
        ];
        for bad in &bad_requests {
            assert!(
                WireRequest::from_json_text(bad).is_err(),
                "accepted {}",
                &bad[..bad.len().min(200)]
            );
        }
        let bad_responses = [
            r#"{"type":"accepted"}"#,
            r#"{"type":"accepted","count":1,"count":1}"#,
            r#"{"type":"error","code":"not_a_code","message":"m"}"#,
            r#"{"type":"ok","status":200}"#,
            r#"{"type":"decisions","tenant":"t","replies":[{"round":1,"decision":
                {"type":"arm","arm":0},"reward":1,"feedback":null,"feedback":null}]}"#,
            r#"{"type":"decisions","tenant":"t","replies":[{"round":1,"decision":
                {"type":"arm","arm":0,"arms":[0]},"reward":1}]}"#,
            r#"{"type":"decisions","tenant":"t","replies":[{"round":1,"decision":
                {"type":"arm","arm":-1},"reward":1}]}"#,
            r#"{"type":"decisions","tenant":"t","replies":[{"round":1,"decision":
                {"type":"arm","arm":0},"reward":1e999}]}"#,
            r#"{"type":"metrics","shards":1,"tenants":1,"total_decides":1,
                "total_feedback_events":1,"rejected":0,"overload_rejections":0,
                "decide_latency":{"p50_ns":1,"p50_exact":true,"p99_ns":1,"p99_exact":1},
                "feedback_latency":{"p50_ns":1,"p50_exact":true,"p99_ns":1,"p99_exact":true}}"#,
            r#"{"type":"ok"} {"#,
        ];
        for bad in bad_responses {
            assert!(WireResponse::from_json_text(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn all_error_codes_round_trip_through_their_tokens() {
        for code in [
            WireErrorCode::Overloaded,
            WireErrorCode::TooLarge,
            WireErrorCode::UnknownTenant,
            WireErrorCode::DuplicateTenant,
            WireErrorCode::Spec,
            WireErrorCode::Invalid,
            WireErrorCode::EngineDown,
            WireErrorCode::Protocol,
        ] {
            assert_eq!(WireErrorCode::from_str(code.as_str()).unwrap(), code);
        }
    }
}
