//! Serving-engine golden equivalence suite.
//!
//! The correctness anchor of `netband-serve`: a single-shard engine with
//! immediate per-decide feedback must reproduce the committed
//! `tests/fixtures/golden_*.json` per-round regret traces of all four DFL
//! policies **f64-bit-exactly**. The engine decomposes a simulated round into
//! decide (select + pull + regret record) and feedback ingestion (queue +
//! in-round-order flush into the policy); with [`FlushPolicy::immediate`] that
//! decomposition must be the very same math as the batch runner — summation
//! order, RNG stream consumption and argmax tie-breaking included. These tests
//! never regenerate fixtures; they only compare.

mod common;

use common::{
    assert_golden, cso_family, csr_family, drift_reward_specs, drift_scenario, fixture_instance,
    GoldenTrace, COMB_HORIZON, DRIFT_CHANGE_ROUND, DRIFT_HORIZON, RUN_SEED, SINGLE_HORIZON,
};
use netband::prelude::*;
use proptest::prelude::*;

/// Builds the four golden tenants, configured exactly like the batch runs:
/// same instance, same policies, same scenarios, same reward-stream seed,
/// immediate feedback application.
fn golden_specs() -> Vec<(&'static str, usize, TenantSpec)> {
    let bandit = fixture_instance();

    let sso = TenantSpec::single(
        "dfl_sso",
        bandit.clone(),
        DflSso::new(bandit.graph().clone()),
        SingleScenario::SideObservation,
        RUN_SEED,
    );

    let ssr = TenantSpec::single(
        "dfl_ssr",
        bandit.clone(),
        DflSsr::new(bandit.graph().clone()),
        SingleScenario::SideReward,
        RUN_SEED,
    );

    let family = cso_family();
    let strategies = family
        .enumerate(bandit.graph())
        .expect("fixture family is enumerable");
    let cso = TenantSpec::combinatorial(
        "dfl_cso",
        bandit.clone(),
        DflCso::from_strategies(bandit.graph(), strategies),
        family,
        CombinatorialScenario::SideObservation,
        RUN_SEED,
    );

    let family = csr_family();
    let csr = TenantSpec::combinatorial(
        "dfl_csr",
        bandit.clone(),
        DflCsr::new(bandit.graph().clone(), family.clone()),
        family,
        CombinatorialScenario::SideReward,
        RUN_SEED,
    );

    vec![
        ("dfl_sso", SINGLE_HORIZON, sso),
        ("dfl_ssr", SINGLE_HORIZON, ssr),
        ("dfl_cso", COMB_HORIZON, cso),
        ("dfl_csr", COMB_HORIZON, csr),
    ]
    .into_iter()
    .map(|(name, horizon, spec)| (name, horizon, spec.with_flush(FlushPolicy::immediate())))
    .collect()
}

/// Serves `horizon` closed-loop rounds for `tenant`: every decide's revealed
/// feedback is routed straight back into the engine.
fn serve_closed_loop(engine: &ServeEngine, tenant: &str, horizon: usize) {
    for _ in 0..horizon {
        let reply = engine.decide(tenant).expect("decide");
        let event = reply.feedback.expect("golden tenants echo their feedback");
        engine
            .feedback(tenant, reply.round, event)
            .expect("feedback");
    }
}

/// One tenant at a time on a single-shard engine: each run must be
/// bit-identical to its committed fixture.
#[test]
fn single_shard_engine_reproduces_all_golden_traces() {
    for (name, horizon, spec) in golden_specs() {
        let engine = ServeEngine::with_shards(1);
        engine.create_tenant(spec).expect("create tenant");
        serve_closed_loop(&engine, name, horizon);
        let snapshot = engine.evict_tenant(name).expect("evict tenant");
        assert_eq!(snapshot.round(), horizon as u64, "{name}");
        assert_golden(name, &snapshot.run_result());
        engine.shutdown();
    }
}

/// All four golden tenants hosted on the *same* single-shard engine, decides
/// interleaved round-robin: tenant state is fully independent, so the
/// interleaving must not perturb a single bit of any trace.
#[test]
fn interleaved_tenants_on_one_shard_stay_bit_exact() {
    let engine = ServeEngine::with_shards(1);
    let specs = golden_specs();
    let schedule: Vec<(&str, usize)> = specs
        .iter()
        .map(|(name, horizon, _)| (*name, *horizon))
        .collect();
    for (_, _, spec) in specs {
        engine.create_tenant(spec).expect("create tenant");
    }
    let max_horizon = schedule.iter().map(|&(_, h)| h).max().unwrap();
    for round in 0..max_horizon {
        for &(name, horizon) in &schedule {
            if round < horizon {
                let reply = engine.decide(name).expect("decide");
                let event = reply.feedback.expect("echoed feedback");
                engine.feedback(name, reply.round, event).expect("feedback");
            }
        }
    }
    for (name, horizon) in schedule {
        let snapshot = engine.evict_tenant(name).expect("evict tenant");
        assert_eq!(snapshot.round(), horizon as u64, "{name}");
        assert_golden(name, &snapshot.run_result());
    }
    engine.shutdown();
}

/// The batched client transport must be the same math as per-call serving:
/// at chunk size 1 with immediate flushing, `decide_many`/`feedback_many`
/// reproduce every committed fixture bit for bit.
#[test]
fn batched_client_reproduces_all_golden_traces_at_chunk_one() {
    for (name, horizon, spec) in golden_specs() {
        let engine = ServeEngine::with_shards(1);
        engine.create_tenant(spec).expect("create tenant");
        let mut client = engine.client();
        let mut replies = Vec::new();
        for _ in 0..horizon {
            client.decide_many(name, 1, &mut replies).expect("decide");
            let reply = replies[0].as_mut().expect("golden decide succeeds");
            let event = reply.feedback.take().expect("golden tenants echo");
            let round = reply.round;
            client
                .feedback_many(name, [(round, event)])
                .expect("feedback");
        }
        drop(client);
        let snapshot = engine.evict_tenant(name).expect("evict tenant");
        assert_eq!(snapshot.round(), horizon as u64, "{name}");
        assert_golden(name, &snapshot.run_result());
        engine.shutdown();
    }
}

/// Builds one delayed-feedback tenant (flush threshold `flush`) on a fresh
/// single-shard engine; `combinatorial` picks DFL-CSR over DFL-SSO so both
/// reply shapes (arm and strategy decisions) are exercised.
fn delayed_tenant_engine(combinatorial: bool, flush: usize) -> ServeEngine {
    let bandit = fixture_instance();
    let spec = if combinatorial {
        let family = csr_family();
        TenantSpec::combinatorial(
            "t",
            bandit.clone(),
            DflCsr::new(bandit.graph().clone(), family.clone()),
            family,
            CombinatorialScenario::SideReward,
            RUN_SEED,
        )
    } else {
        TenantSpec::single(
            "t",
            bandit.clone(),
            DflSso::new(bandit.graph().clone()),
            SingleScenario::SideObservation,
            RUN_SEED,
        )
    }
    .with_flush(FlushPolicy::batched(flush));
    let engine = ServeEngine::with_shards(1);
    engine.create_tenant(spec).expect("create tenant");
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A randomly chunked `decide_many`/`feedback_many` interleaving (chunk
    /// sizes 1..=8, each window optionally delivered in reverse round order)
    /// must produce f64-bit-identical decisions, regret traces, and tenant
    /// metrics to the equivalent per-call `decide`/`feedback` sequence —
    /// batching is transport, not semantics.
    #[test]
    fn chunked_batches_match_per_call_sequences(
        // (chunk size, reverse-delivery flag) per window; the vendored
        // proptest shim has no bool strategy, so flags travel as 0/1.
        plan in proptest::collection::vec((1usize..=8, 0usize..=1), 1..=10),
        flush in 1usize..=6,
        combinatorial in 0usize..=1,
    ) {
        let per_call = delayed_tenant_engine(combinatorial == 1, flush);
        let batched = delayed_tenant_engine(combinatorial == 1, flush);
        let mut client = batched.client();
        let mut replies = Vec::new();
        for &(chunk, reversed) in &plan {
            client.decide_many("t", chunk, &mut replies).expect("decide_many");
            prop_assert_eq!(replies.len(), chunk);
            for slot in &replies {
                let got = slot.as_ref().expect("batched decide succeeds");
                let want = per_call.decide("t").expect("per-call decide succeeds");
                prop_assert_eq!(got, &want);
                prop_assert_eq!(got.reward.to_bits(), want.reward.to_bits());
            }
            let mut window: Vec<(u64, FeedbackEvent)> = replies
                .iter_mut()
                .map(|slot| {
                    let reply = slot.as_mut().expect("batched decide succeeds");
                    (reply.round, reply.feedback.take().expect("echoed feedback"))
                })
                .collect();
            if reversed == 1 {
                window.reverse();
            }
            for (round, event) in &window {
                per_call.feedback("t", *round, event.clone()).expect("feedback");
            }
            let sent = client.feedback_many("t", window).expect("feedback_many");
            prop_assert_eq!(sent, chunk);
        }
        batched.drain().expect("drain");
        per_call.drain().expect("drain");
        prop_assert_eq!(
            batched.metrics().expect("metrics").tenants,
            per_call.metrics().expect("metrics").tenants
        );
        drop(client);
        let a = batched.evict_tenant("t").expect("evict");
        let b = per_call.evict_tenant("t").expect("evict");
        prop_assert_eq!(
            GoldenTrace::from_result(&a.run_result()),
            GoldenTrace::from_result(&b.run_result())
        );
        batched.shutdown();
        per_call.shutdown();
    }
}

/// A tenant registered **from the drifting scenario document** serves the
/// same trajectory as the drifted simulation runner: the engine recomputes
/// the per-round drifted means and the dynamic-oracle benchmark bit-exactly.
#[test]
fn spec_registered_drifting_tenant_reproduces_the_drift_fixture() {
    let spec = drift_scenario();
    let engine = ServeEngine::with_shards(1);
    engine
        .register_tenant_spec(&RegisterTenantSpec::new("drift_cts", spec))
        .expect("register drifting tenant from spec");
    serve_closed_loop(&engine, "drift_cts", DRIFT_HORIZON);
    let snapshot = engine.evict_tenant("drift_cts").expect("evict tenant");
    assert_eq!(snapshot.round(), DRIFT_HORIZON as u64);
    assert_golden("drift_cts", &snapshot.run_result());
    engine.shutdown();
}

/// Serves a spec-registered tenant for its whole horizon on a single-shard
/// engine and compares the run with the committed fixture `golden_<name>`.
fn assert_spec_tenant_reproduces(name: &str, spec: ScenarioSpec) {
    let horizon = spec.horizon;
    let engine = ServeEngine::with_shards(1);
    engine
        .register_tenant_spec(&RegisterTenantSpec::new(name, spec))
        .expect("register drifting tenant from spec");
    serve_closed_loop(&engine, name, horizon);
    let snapshot = engine.evict_tenant(name).expect("evict tenant");
    assert_eq!(snapshot.round(), horizon as u64, "{name}");
    assert_golden(name, &snapshot.run_result());
    engine.shutdown();
}

/// The drifting DFL-SSR document served as a tenant: the single-play drifted
/// pull, side-reward scoring and drifted side-reward oracle of the engine
/// match the simulation's fixture.
#[test]
fn spec_registered_drifting_dfl_ssr_tenant_reproduces_its_fixture() {
    let (name, spec) = drift_reward_specs().swap_remove(0);
    assert_spec_tenant_reproduces(name, spec);
}

/// The drifting DFL-CSR document served as a tenant: the engine's drifted
/// coverage scoring and oracle match the simulation's fixture.
#[test]
fn spec_registered_drifting_dfl_csr_tenant_reproduces_its_fixture() {
    let (name, spec) = drift_reward_specs().swap_remove(1);
    assert_spec_tenant_reproduces(name, spec);
}

/// Restart survival for nonstationary worlds: snapshot *before* the change
/// point, shut the engine down, restore onto a fresh engine, and let the
/// restored tenant cross the change point itself. Drift is a pure function of
/// the checkpointed round counter, so the stitched trace must still match the
/// fixture bit for bit.
#[test]
fn drifting_tenant_restart_across_the_change_point_stays_bit_exact() {
    let spec = drift_scenario();
    let first = ServeEngine::with_shards(1);
    first
        .register_tenant_spec(&RegisterTenantSpec::new("drift_cts", spec))
        .expect("register drifting tenant from spec");
    let before_change = (DRIFT_CHANGE_ROUND - 50) as usize;
    serve_closed_loop(&first, "drift_cts", before_change);
    let snapshot = first.snapshot_tenant("drift_cts").expect("snapshot tenant");
    assert!(
        snapshot.round() < DRIFT_CHANGE_ROUND,
        "snapshot must land before the change point"
    );
    first.shutdown();

    let second = ServeEngine::with_shards(1);
    second.restore_tenant(snapshot).expect("restore tenant");
    serve_closed_loop(&second, "drift_cts", DRIFT_HORIZON - before_change);
    let snapshot = second.evict_tenant("drift_cts").expect("evict tenant");
    assert_eq!(snapshot.round(), DRIFT_HORIZON as u64);
    assert_golden("drift_cts", &snapshot.run_result());
    second.shutdown();
}

/// Snapshot half-way, shut the engine down, restore onto a fresh engine, and
/// finish the run there: the stitched trace must still match the fixture bit
/// for bit (the restart-survival guarantee of tenant checkpoints).
#[test]
fn snapshot_restore_across_engine_restart_stays_bit_exact() {
    for (name, horizon, spec) in golden_specs() {
        let first = ServeEngine::with_shards(1);
        first.create_tenant(spec).expect("create tenant");
        let half = horizon / 2;
        serve_closed_loop(&first, name, half);
        let snapshot = first.snapshot_tenant(name).expect("snapshot tenant");
        first.shutdown();

        let second = ServeEngine::with_shards(1);
        second.restore_tenant(snapshot).expect("restore tenant");
        serve_closed_loop(&second, name, horizon - half);
        let snapshot = second.evict_tenant(name).expect("evict tenant");
        assert_eq!(snapshot.round(), horizon as u64, "{name}");
        assert_golden(name, &snapshot.run_result());
        second.shutdown();
    }
}
