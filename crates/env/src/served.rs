//! The values a served tenant exchanges with its callers.
//!
//! A decision, the feedback event it reveals, the reply that carries both,
//! and a tenant's serving counters. The serving engine produces and consumes
//! them, the wire protocol and the durable store encode them, and all three
//! name these same types: there is one type per served value, not a copy per
//! layer.

use crate::bandit::{CombinatorialFeedback, SinglePlayFeedback};
use crate::ArmId;

/// The action a tenant chose for one round.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A single-play tenant pulled one arm.
    Arm(ArmId),
    /// A combinatorial tenant pulled a super-arm (sorted, deduplicated).
    Strategy(Vec<ArmId>),
}

impl Decision {
    /// Overwrites `self` with a single-arm decision. A warm
    /// `Decision::Strategy` keeps its vector allocation parked in place only
    /// when the variant already matches; flipping the variant drops it —
    /// tenants never flip play modes, so batched reply slots stay warm.
    pub fn set_arm(&mut self, arm: ArmId) {
        match self {
            Decision::Arm(a) => *a = arm,
            other => *other = Decision::Arm(arm),
        }
    }

    /// Overwrites `self` with a strategy decision, reusing the slot's vector
    /// when the variant already matches.
    pub fn set_strategy(&mut self, arms: &[ArmId]) {
        match self {
            Decision::Strategy(s) => {
                s.clear();
                s.extend_from_slice(arms);
            }
            other => *other = Decision::Strategy(arms.to_vec()),
        }
    }
}

/// One reward observation travelling back into the engine.
///
/// The variant must match the tenant's play mode; the serving engine rejects
/// a mismatch.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedbackEvent {
    /// Feedback for a single-play decision.
    Single(SinglePlayFeedback),
    /// Feedback for a combinatorial decision.
    Combinatorial(CombinatorialFeedback),
}

/// The default event is an empty single-play observation. It exists so batch
/// ingestion can `mem::take` events out of reusable request buffers without
/// allocating; a default-built event is never a valid observation on its own.
impl Default for FeedbackEvent {
    fn default() -> Self {
        FeedbackEvent::Single(SinglePlayFeedback::default())
    }
}

/// The answer to one decide.
///
/// Replies are plain data; the serving engine's batched client recycles them
/// as warm slots, so a steady-state batch is filled entirely in place.
#[derive(Debug, Clone, PartialEq)]
pub struct DecideReply {
    /// The tenant-local round this decision belongs to (1-based). Feedback
    /// for the decision must quote this round.
    pub round: u64,
    /// The chosen arm or super-arm.
    pub decision: Decision,
    /// The realised reward the environment charged for the decision, under
    /// the tenant's scenario reward model.
    pub reward: f64,
    /// The feedback event revealed by the pull, for the caller to route back
    /// via feedback ingestion (possibly delayed and out of order). `None`
    /// when the tenant was configured without feedback echo.
    pub feedback: Option<FeedbackEvent>,
}

impl DecideReply {
    /// A blank reply used as the seed for in-place filling (every field is
    /// overwritten before the reply is handed out).
    pub fn blank() -> Self {
        DecideReply {
            round: 0,
            decision: Decision::Arm(0),
            reward: 0.0,
            feedback: None,
        }
    }
}

/// Counters of one tenant's serving activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Decisions served.
    pub decides: u64,
    /// Feedback events accepted into the pending queue.
    pub feedback_events: u64,
    /// Feedback batches flushed into the policy.
    pub batches_flushed: u64,
    /// Feedback events applied by those flushes.
    pub events_applied: u64,
    /// Largest batch applied by a single flush.
    pub max_batch: u64,
}

impl TenantMetrics {
    /// Mean flushed-batch size (0 when nothing has been flushed).
    pub fn mean_batch(&self) -> f64 {
        if self.batches_flushed == 0 {
            0.0
        } else {
            self.events_applied as f64 / self.batches_flushed as f64
        }
    }

    /// Records one flush of `batch` events.
    pub fn record_flush(&mut self, batch: u64) {
        self.batches_flushed += 1;
        self.events_applied += batch;
        self.max_batch = self.max_batch.max(batch);
    }
}
