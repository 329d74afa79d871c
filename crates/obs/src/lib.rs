//! Observability primitives for the netband serving stack.
//!
//! This crate is deliberately `std`-only and dependency-free: it is the
//! lowest layer of the workspace (even `netband-serve` depends on it), so it
//! cannot pull in the engine, the wire codec, or any vendored shim. Four
//! modules:
//!
//! * [`hist`] — the fixed-bucket [`LatencyHistogram`] shared by the serving
//!   metrics and the registry (moved here from `netband-serve` so both layers
//!   use one implementation).
//! * [`registry`] — a [`Registry`] of named counters, gauges, and histograms
//!   with Prometheus-style text exposition ([`Registry::render_text`]) and a
//!   strict parser ([`parse_exposition`]) used by CI to validate scrapes.
//! * [`trace`] — the fixed-capacity [`TraceRing`] of structured serving
//!   events with monotonic sequence numbers; `Copy` events, no allocation on
//!   record.
//! * [`stages`] — per-stage decide timings ([`DecideStage`],
//!   [`StageTimings`], [`StageClock`]) for the route → select → pull →
//!   score → reply pipeline.
//!
//! ## Ownership discipline
//!
//! Nothing here is synchronised. Histograms, rings, and stage timers are
//! plain values owned by one `netband-serve` shard, exactly like its
//! metrics: they live inside the shard, behind the shard's lock, so only the
//! thread currently running a command on that shard touches them, and a
//! scrape *gathers* them by taking each shard's lock in turn. The
//! [`Registry`] is a cold-path aggregation
//! target: callers build one at scrape time from gathered reports, render it,
//! and throw it away — it never sits on a hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod registry;
pub mod stages;
pub mod trace;

pub use hist::{LatencyHistogram, LATENCY_BUCKETS};
pub use registry::{parse_exposition, ExpositionError, ExpositionLine, Registry};
pub use stages::{DecideStage, StageClock, StageTimings, DECIDE_STAGES};
pub use trace::{TagStr, TraceEvent, TraceKind, TraceRing};
