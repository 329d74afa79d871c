//! The batched client handle: many decisions or feedback events per shard
//! call, into reused reply buffers.
//!
//! A [`ServeClient`] runs its calls on the calling thread, like the per-call
//! engine API: each call takes the lock of the shard its tenant routes to,
//! serves the whole batch, and returns. What the client adds is batching:
//!
//! * [`ServeClient::decide_many`] serves `n` decisions under one lock
//!   acquisition, refilling the caller's reply vector **in place** — its warm
//!   [`DecideReply`] slots (decision vectors, echoed feedback buffers) are
//!   reused, so a steady-state loop that keeps passing the same `out`
//!   allocates nothing.
//! * [`ServeClient::decide_many_mixed`] serves a mixed-tenant batch, taking
//!   each addressed shard's lock once and serving that shard's share of the
//!   batch before moving to the next shard.
//! * [`ServeClient::feedback_many`] ingests a whole window of feedback under
//!   one lock acquisition.
//!
//! The `try_*` variants are the admission-control path of the network front
//! end: a shard that already admitted its capacity answers
//! [`ServeError::Overloaded`] at once instead of making the caller wait.
//!
//! Batching changes how often a shard lock is taken, not semantics: a
//! `decide_many(t, n, ..)` is bit-identical to `n` consecutive `decide(t)`
//! calls, a `decide_many_mixed` is bit-identical to the per-tenant
//! `decide_many` calls it replaces, and `feedback_many` applies its events
//! through the same per-event ingestion (including flush thresholds) as
//! per-call feedback. `tests/serve_equivalence.rs` pins this with a
//! randomly-chunked interleaving proptest.
//!
//! # Example
//!
//! ```
//! use netband_core::DflSso;
//! use netband_env::{ArmSet, NetworkedBandit};
//! use netband_graph::generators;
//! use netband_serve::{FlushPolicy, ServeEngine, TenantSpec};
//! use netband_sim::SingleScenario;
//!
//! let engine = ServeEngine::with_shards(1);
//! let graph = generators::path(6);
//! let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(6)).unwrap();
//! let spec = TenantSpec::single("exp-0", bandit, DflSso::new(graph),
//!     SingleScenario::SideObservation, 7)
//!     .with_flush(FlushPolicy::batched(8));
//! engine.create_tenant(spec).unwrap();
//!
//! let mut client = engine.client();
//! let mut replies = Vec::new();
//! client.decide_many("exp-0", 16, &mut replies).unwrap();
//! let feedback: Vec<_> = replies
//!     .iter_mut()
//!     .map(|r| {
//!         let r = r.as_mut().unwrap();
//!         (r.round, r.feedback.take().unwrap())
//!     })
//!     .collect();
//! client.feedback_many("exp-0", feedback).unwrap();
//! engine.drain().unwrap();
//! assert_eq!(engine.metrics().unwrap().total_decides(), 16);
//! engine.shutdown();
//! ```

use crate::api::{DecideReply, FeedbackEvent, ServeError};
use crate::engine::{Admission, ServeEngine};

/// A client handle over a [`ServeEngine`]: the batched counterpart of the
/// engine's per-call methods. Cheap to create; intended usage is one client
/// per driving thread. See the [module docs](self).
pub struct ServeClient<'e> {
    engine: &'e ServeEngine,
    /// The feedback window being ingested. Events are collected here before
    /// the shard lock is taken, so the caller's iterator never runs under it.
    window: Vec<(u64, FeedbackEvent)>,
}

impl<'e> ServeClient<'e> {
    pub(crate) fn new(engine: &'e ServeEngine) -> Self {
        ServeClient {
            engine,
            window: Vec::new(),
        }
    }

    /// Serves `n` consecutive decisions for `tenant` under one shard lock,
    /// writing the results into `out` in round order.
    ///
    /// `out` is cleared of stale *meaning* but not of storage: its existing
    /// entries are refilled in place, so a loop that keeps reusing the same
    /// vector performs no allocation once sizes have stabilised. The
    /// produced decisions, rewards, regret accounting, and tenant metrics
    /// are bit-identical to `n` consecutive [`ServeEngine::decide`] calls.
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineDown`] when the engine (or the tenant's shard) is
    /// down; per-decision failures (e.g. [`ServeError::UnknownTenant`]) land
    /// in the corresponding `out` entry.
    pub fn decide_many(
        &mut self,
        tenant: &str,
        n: usize,
        out: &mut Vec<Result<DecideReply, ServeError>>,
    ) -> Result<(), ServeError> {
        self.decide_many_inner(tenant, n, out, Admission::Block)
    }

    /// Non-blocking admission variant of [`ServeClient::decide_many`]: when
    /// the tenant's shard has already admitted its queue capacity, nothing is
    /// served and [`ServeError::Overloaded`] is returned immediately instead
    /// of waiting; `out`'s *contents* are unspecified after an error. This is
    /// the admission-control path of the network front end — an overloaded
    /// shard turns into an overload frame on the wire rather than a blocked
    /// connection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the shard is at capacity,
    /// [`ServeError::EngineDown`] when it is down; per-decision failures land
    /// in the corresponding `out` entry exactly like
    /// [`ServeClient::decide_many`].
    pub fn try_decide_many(
        &mut self,
        tenant: &str,
        n: usize,
        out: &mut Vec<Result<DecideReply, ServeError>>,
    ) -> Result<(), ServeError> {
        self.decide_many_inner(tenant, n, out, Admission::Try)
    }

    fn decide_many_inner(
        &mut self,
        tenant: &str,
        n: usize,
        out: &mut Vec<Result<DecideReply, ServeError>>,
        admission: Admission,
    ) -> Result<(), ServeError> {
        if n == 0 {
            out.clear();
            return Ok(());
        }
        // Stale slots beyond `n` are dropped; fresh ones start as errors and
        // become blank replies as they are served.
        out.truncate(n);
        out.resize_with(n, || Err(ServeError::EngineDown));
        let shard = self.engine.shard_of(tenant);
        self.engine
            .run(shard, admission, |s| s.decide_many(tenant, out))
    }

    /// Serves a mixed-tenant batch — `(tenant, count)` pairs in caller order —
    /// writing the replies into `out` in that order. Each addressed shard's
    /// lock is taken once, in first-touch order, and that shard serves every
    /// pair routed to it; results are bit-identical to issuing one
    /// [`ServeClient::decide_many`] per `(tenant, count)` pair in order
    /// (tenants are shard-pinned, so the order in which shards are visited
    /// cannot affect any tenant's round sequence).
    ///
    /// `out`'s warm slots are refilled in place. Zero-count pairs are
    /// skipped; an empty batch clears `out`.
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineDown`] when the engine or an addressed shard is
    /// down; per-decision failures land in the corresponding `out` entry.
    /// `out`'s contents are unspecified after an error.
    pub fn decide_many_mixed<'a, I>(
        &mut self,
        requests: I,
        out: &mut Vec<Result<DecideReply, ServeError>>,
    ) -> Result<(), ServeError>
    where
        I: IntoIterator<Item = (&'a str, usize)>,
    {
        let plan: Vec<(&str, usize, usize)> = requests
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(tenant, n)| (tenant, n, self.engine.shard_of(tenant)))
            .collect();
        let total = plan.iter().map(|&(_, n, _)| n).sum();
        out.truncate(total);
        out.resize_with(total, || Err(ServeError::EngineDown));
        let mut visited = vec![false; self.engine.num_shards()];
        for &(_, _, shard) in &plan {
            if std::mem::replace(&mut visited[shard], true) {
                continue;
            }
            self.engine.run(shard, Admission::Block, |s| {
                let mut at = 0;
                for &(tenant, n, owner) in &plan {
                    if owner == shard {
                        s.decide_many(tenant, &mut out[at..at + n]);
                    }
                    at += n;
                }
            })?;
        }
        Ok(())
    }

    /// Serves one decision; same as [`ServeEngine::decide`].
    pub fn decide(&mut self, tenant: &str) -> Result<DecideReply, ServeError> {
        self.engine.decide(tenant)
    }

    /// Ingests a window of feedback events for `tenant` under one shard
    /// lock, returning how many events were delivered.
    ///
    /// Events are applied strictly in the order given, with the same
    /// per-event semantics (round validation, flush thresholds, rejected
    /// accounting) as per-call [`ServeEngine::feedback`]. The window is
    /// collected before the lock is taken, so `events` may do anything,
    /// including calling the engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineDown`] when the engine (or the tenant's shard) is
    /// down. Per-event failures (unknown tenant, kind mismatch, invalid
    /// round) are counted in [`crate::ShardMetrics::rejected`], exactly like
    /// per-call feedback.
    pub fn feedback_many(
        &mut self,
        tenant: &str,
        events: impl IntoIterator<Item = (u64, FeedbackEvent)>,
    ) -> Result<usize, ServeError> {
        self.feedback_many_inner(tenant, events, Admission::Block)
    }

    /// Non-blocking admission variant of [`ServeClient::feedback_many`]: a
    /// shard at capacity returns [`ServeError::Overloaded`] immediately and
    /// the window is dropped, not applied. Callers that must not lose
    /// feedback should retry delivery after backoff; the network front end
    /// surfaces the rejection as an overload frame so the *remote* client
    /// owns that retry.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the shard is at capacity,
    /// [`ServeError::EngineDown`] when it is down.
    pub fn try_feedback_many(
        &mut self,
        tenant: &str,
        events: impl IntoIterator<Item = (u64, FeedbackEvent)>,
    ) -> Result<usize, ServeError> {
        self.feedback_many_inner(tenant, events, Admission::Try)
    }

    fn feedback_many_inner(
        &mut self,
        tenant: &str,
        events: impl IntoIterator<Item = (u64, FeedbackEvent)>,
        admission: Admission,
    ) -> Result<usize, ServeError> {
        let mut window = std::mem::take(&mut self.window);
        window.extend(events);
        let count = window.len();
        let result = if count == 0 {
            Ok(count)
        } else {
            let shard = self.engine.shard_of(tenant);
            self.engine.run(shard, admission, |s| {
                for (round, event) in window.drain(..) {
                    s.feedback(tenant, round, event);
                }
                count
            })
        };
        // A refused window is dropped; the buffer is kept for the next one.
        window.clear();
        self.window = window;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlushPolicy, TenantSpec};
    use netband_core::DflSso;
    use netband_env::{ArmSet, NetworkedBandit};
    use netband_graph::generators;
    use netband_sim::SingleScenario;

    fn engine_with_tenant(id: &str, batch: usize) -> ServeEngine {
        let engine = ServeEngine::with_shards(2);
        let graph = generators::path(5);
        let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(5)).unwrap();
        let spec = TenantSpec::single(
            id,
            bandit,
            DflSso::new(graph),
            SingleScenario::SideObservation,
            11,
        )
        .with_flush(FlushPolicy::batched(batch));
        engine.create_tenant(spec).unwrap();
        engine
    }

    #[test]
    fn batched_decides_match_per_call_decides() {
        let a = engine_with_tenant("t", 4);
        let b = engine_with_tenant("t", 4);
        let mut client = a.client();
        let mut out = Vec::new();
        client.decide_many("t", 10, &mut out).unwrap();
        assert_eq!(out.len(), 10);
        for (i, reply) in out.iter().enumerate() {
            let expected = b.decide("t").unwrap();
            assert_eq!(reply.as_ref().unwrap(), &expected, "round {}", i + 1);
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn reply_buffers_are_recycled_in_place() {
        let engine = engine_with_tenant("t", 1);
        let mut client = engine.client();
        let mut out = Vec::new();
        client.decide_many("t", 8, &mut out).unwrap();
        let first_round: Vec<u64> = out.iter().map(|r| r.as_ref().unwrap().round).collect();
        assert_eq!(first_round, (1..=8).collect::<Vec<_>>());
        // Reuse the same vector: slots are refilled, rounds advance.
        client.decide_many("t", 8, &mut out).unwrap();
        let second_round: Vec<u64> = out.iter().map(|r| r.as_ref().unwrap().round).collect();
        assert_eq!(second_round, (9..=16).collect::<Vec<_>>());
        // A shorter batch truncates the buffer.
        client.decide_many("t", 3, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        engine.shutdown();
    }

    #[test]
    fn unknown_tenants_error_per_slot() {
        let engine = engine_with_tenant("t", 1);
        let mut client = engine.client();
        let mut out = Vec::new();
        client.decide_many("ghost", 3, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        for slot in &out {
            assert_eq!(
                slot.as_ref().unwrap_err(),
                &ServeError::UnknownTenant("ghost".into())
            );
        }
        // Slots recover to Ok when the next batch targets a real tenant.
        client.decide_many("t", 3, &mut out).unwrap();
        assert!(out.iter().all(Result::is_ok));
        assert!(matches!(
            client.decide("ghost"),
            Err(ServeError::UnknownTenant(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn feedback_many_applies_like_per_call_feedback() {
        let batched = engine_with_tenant("t", 3);
        let per_call = engine_with_tenant("t", 3);
        let mut client = batched.client();
        let mut out = Vec::new();
        client.decide_many("t", 9, &mut out).unwrap();
        let window: Vec<(u64, FeedbackEvent)> = out
            .iter_mut()
            .map(|r| {
                let r = r.as_mut().unwrap();
                (r.round, r.feedback.take().unwrap())
            })
            .collect();
        assert_eq!(client.feedback_many("t", window.clone()).unwrap(), 9);
        for _ in 0..9 {
            let reply = per_call.decide("t").unwrap();
            per_call
                .feedback("t", reply.round, reply.feedback.unwrap())
                .unwrap();
        }
        batched.drain().unwrap();
        per_call.drain().unwrap();
        let (m_batched, m_per_call) = (
            batched.metrics().unwrap().tenants,
            per_call.metrics().unwrap().tenants,
        );
        assert_eq!(m_batched, m_per_call);
        // Empty windows are a no-op.
        assert_eq!(client.feedback_many("t", Vec::new()).unwrap(), 0);
        batched.shutdown();
        per_call.shutdown();
    }

    #[test]
    fn zero_decides_is_a_no_op_that_clears_out() {
        let engine = engine_with_tenant("t", 1);
        let mut client = engine.client();
        let mut out = Vec::new();
        client.decide_many("t", 2, &mut out).unwrap();
        client.decide_many("t", 0, &mut out).unwrap();
        assert!(out.is_empty());
        engine.shutdown();
    }

    /// Deterministic overload: wedge the single shard (lock held, admission
    /// count full) and the `try_*` paths must return
    /// [`ServeError::Overloaded`] immediately instead of blocking, with
    /// nothing served; once the shard is released the client works normally.
    #[test]
    fn try_paths_reject_with_overloaded_when_the_shard_queue_is_full() {
        let engine = ServeEngine::start(crate::EngineConfig::new(1).with_queue_capacity(1));
        let graph = generators::path(5);
        let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(5)).unwrap();
        let spec = TenantSpec::single(
            "t",
            bandit,
            DflSso::new(graph),
            SingleScenario::SideObservation,
            11,
        );
        engine.create_tenant(spec).unwrap();

        let wedge = engine.wedge_shard(0);
        let mut client = engine.client();
        let mut out = Vec::new();
        assert_eq!(
            client.try_decide_many("t", 4, &mut out),
            Err(ServeError::Overloaded)
        );
        let event = (3u64, FeedbackEvent::default());
        assert_eq!(
            client.try_feedback_many("t", [event]),
            Err(ServeError::Overloaded)
        );

        // Release the shard; the try paths now succeed.
        drop(wedge);
        client.try_decide_many("t", 4, &mut out).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(Result::is_ok));
        engine.drain().unwrap();
        let report = engine.metrics().unwrap();
        assert_eq!(report.total_decides(), 4);
        assert_eq!(report.overload_rejections, 2);
        // The rejected feedback window never reached the shard.
        assert_eq!(report.shards[0].rejected, 0);
        engine.shutdown();
    }

    #[test]
    fn batch_1_fast_path_matches_per_call_decide_and_feedback() {
        let fast = engine_with_tenant("t", 3);
        let per_call = engine_with_tenant("t", 3);
        let mut client = fast.client();
        let mut out = Vec::new();
        for _ in 0..9 {
            client.decide_many("t", 1, &mut out).unwrap();
            assert_eq!(out.len(), 1);
            let mine = out[0].as_mut().unwrap();
            let theirs = per_call.decide("t").unwrap();
            assert_eq!(&*mine, &theirs);
            let event = mine.feedback.take().unwrap();
            let round = mine.round;
            assert_eq!(client.feedback_many("t", [(round, event)]).unwrap(), 1);
            per_call
                .feedback("t", theirs.round, theirs.feedback.unwrap())
                .unwrap();
        }
        fast.drain().unwrap();
        per_call.drain().unwrap();
        // One shard command per decide and per event on both sides: metrics
        // agree exactly.
        let (m_fast, m_per_call) = (fast.metrics().unwrap(), per_call.metrics().unwrap());
        assert_eq!(m_fast.tenants, m_per_call.tenants);
        assert_eq!(m_fast.total_decides(), m_per_call.total_decides());
        fast.shutdown();
        per_call.shutdown();
    }

    fn engine_with_tenants(ids: &[&str], shards: usize) -> ServeEngine {
        let engine = ServeEngine::with_shards(shards);
        for (i, id) in ids.iter().enumerate() {
            let graph = generators::path(5);
            let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(5)).unwrap();
            let spec = TenantSpec::single(
                *id,
                bandit,
                DflSso::new(graph),
                SingleScenario::SideObservation,
                11 + i as u64,
            )
            .with_flush(FlushPolicy::batched(4));
            engine.create_tenant(spec).unwrap();
        }
        engine
    }

    #[test]
    fn mixed_batches_match_sequential_per_tenant_batches() {
        let ids = ["t0", "t1", "t2", "t3"];
        let mixed = engine_with_tenants(&ids, 3);
        let sequential = engine_with_tenants(&ids, 3);
        // Repeated tenants, a zero-count entry, an unknown tenant, and an
        // order that interleaves shards.
        let requests: &[(&str, usize)] = &[
            ("t2", 3),
            ("t0", 2),
            ("t2", 1),
            ("t1", 0),
            ("ghost", 2),
            ("t3", 4),
            ("t0", 1),
        ];
        let mut client = mixed.client();
        let mut out = Vec::new();
        client
            .decide_many_mixed(requests.iter().copied(), &mut out)
            .unwrap();

        let mut expected = Vec::new();
        let mut seq_client = sequential.client();
        let mut scratch = Vec::new();
        for &(tenant, n) in requests {
            seq_client.decide_many(tenant, n, &mut scratch).unwrap();
            expected.append(&mut scratch);
        }
        assert_eq!(out.len(), expected.len());
        for (i, (got, want)) in out.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "slot {i}");
        }
        // Steady state: a second mixed batch reuses the per-shard buffers and
        // still reassembles in caller order.
        client
            .decide_many_mixed(requests.iter().copied(), &mut out)
            .unwrap();
        for &(tenant, n) in requests {
            seq_client.decide_many(tenant, n, &mut scratch).unwrap();
            expected.append(&mut scratch);
        }
        for (i, (got, want)) in out.iter().zip(&expected[13..]).enumerate() {
            assert_eq!(got, want, "second batch slot {i}");
        }
        mixed.drain().unwrap();
        sequential.drain().unwrap();
        assert_eq!(
            mixed.metrics().unwrap().tenants,
            sequential.metrics().unwrap().tenants
        );
        mixed.shutdown();
        sequential.shutdown();
    }

    #[test]
    fn empty_mixed_batch_clears_out_and_is_a_no_op() {
        let engine = engine_with_tenant("t", 1);
        let mut client = engine.client();
        let mut out = Vec::new();
        client.decide_many("t", 2, &mut out).unwrap();
        client.decide_many_mixed([("t", 0usize)], &mut out).unwrap();
        assert!(out.is_empty());
        client
            .decide_many_mixed(std::iter::empty::<(&str, usize)>(), &mut out)
            .unwrap();
        assert!(out.is_empty());
        engine.shutdown();
    }
}
