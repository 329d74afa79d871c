//! Network-equivalence suite: the framed TCP wire path must be a
//! **transparent window** onto the serving engine.
//!
//! `tests/spec_golden.rs` pins the spec pipeline and the in-process engine to
//! the committed golden DFL traces; this suite pins the network front end to
//! the same fixtures. A real `NetClient` over a real loopback socket —
//! length-prefixed frames, strict JSON documents, the batched
//! `try_decide_many` server path — must reproduce the golden trajectories
//! **f64 bit for bit**, in lockstep with an in-process reference engine.
//!
//! Also covered: chunked wire batches against the in-process batched client,
//! the error-frame surface (unknown tenant, oversized batches, invalid
//! rounds, duplicate registration), and the admission-control contract — a
//! wedged shard answers with a retryable `overloaded` error frame instead of
//! parking the connection.

mod common;

use std::sync::Arc;

use common::{assert_golden, golden_specs, test_shards};
use netband::prelude::*;

/// An engine fronted by a loopback server, plus one connected client. The
/// served engines default to a single shard but honour `NETBAND_TEST_SHARDS`
/// (tenants are shard-pinned, so the golden comparisons — always against a
/// 1-shard reference — must hold at any shard count, above or below the
/// machine's core count).
fn loopback(engine: ServeEngine, config: ServerConfig) -> (NetServer, NetClient) {
    let server =
        NetServer::bind(Arc::new(engine), "127.0.0.1:0", config).expect("bind loopback server");
    let client = NetClient::connect(server.local_addr()).expect("connect loopback client");
    (server, client)
}

fn placeholder_event() -> FeedbackEvent {
    FeedbackEvent::Single(SinglePlayFeedback {
        arm: 0,
        direct_reward: 0.0,
        side_reward: 0.0,
        observations: vec![],
    })
}

// ----- golden traces over a real socket ------------------------------------

/// The flagship equivalence: each golden scenario is registered **over the
/// wire from its spec document** and served decision by decision through a
/// real TCP client, in lockstep with an in-process reference engine. Every
/// reply must match the reference bit for bit, and the evicted tenant must
/// reproduce the committed golden fixture.
#[test]
fn tcp_round_trip_reproduces_all_four_golden_traces() {
    let (server, mut client) = loopback(
        ServeEngine::with_shards(test_shards(1)),
        ServerConfig::default(),
    );
    for (fixture, spec) in golden_specs() {
        let reference = ServeEngine::with_shards(1);
        reference
            .register_tenant_spec(&RegisterTenantSpec::new(fixture, spec.clone()))
            .expect("register reference tenant");
        client
            .register_tenant(fixture, spec.clone())
            .expect("register tenant over the wire");

        for round in 0..spec.horizon {
            let expected = reference.decide(fixture).expect("reference decide");
            let mut replies = client.decide_many(fixture, 1).expect("wire decide");
            assert_eq!(replies.len(), 1, "{fixture}: one decision per request");
            let reply = replies.pop().unwrap();

            assert_eq!(reply.round, expected.round, "{fixture} round {round}");
            assert_eq!(
                reply.decision, expected.decision,
                "{fixture} round {round}: decision diverged over the wire"
            );
            assert_eq!(
                reply.reward.to_bits(),
                expected.reward.to_bits(),
                "{fixture} round {round}: reward not bit-exact over the wire"
            );
            let event = reply.feedback.expect("wire reply echoes feedback");
            let expected_event = expected.feedback.expect("reference echoes feedback");
            assert_eq!(
                event, expected_event,
                "{fixture} round {round}: echoed feedback diverged"
            );

            // Close the loop on both sides with the *wire* event, so the
            // feedback path is exercised end to end too.
            reference
                .feedback(fixture, expected.round, event.clone())
                .expect("reference feedback");
            let accepted = client
                .feedback_many(
                    fixture,
                    vec![WireFeedback {
                        round: reply.round,
                        event,
                    }],
                )
                .expect("wire feedback");
            assert_eq!(accepted, 1, "{fixture} round {round}");
        }

        let served = server
            .engine()
            .evict_tenant(fixture)
            .expect("evict wire tenant")
            .run_result();
        let expected = reference
            .evict_tenant(fixture)
            .expect("evict reference tenant")
            .run_result();
        reference.shutdown();

        // The TCP-served trajectory IS the committed golden fixture...
        assert_golden(fixture, &served);
        // ...and agrees with the in-process engine on every field.
        assert_eq!(served.trace, expected.trace, "{fixture}: trace drifted");
        assert_eq!(
            served.total_reward.to_bits(),
            expected.total_reward.to_bits(),
            "{fixture}: total reward drifted"
        );
    }
    server.shutdown();
}

// ----- chunked wire batches ≡ the in-process batched client ----------------

/// Serving in chunks over the wire (one `decide_many` frame per chunk, one
/// `feedback_many` frame per window) equals the in-process [`ServeClient`]
/// running the identical chunk sequence — batching and transport change
/// nothing about the trajectory, even under a batched flush policy.
#[test]
fn chunked_wire_batches_match_the_in_process_batched_client() {
    let (_, mut spec) = golden_specs().remove(2); // dfl_cso
    spec.feedback = FeedbackSpec::Batched { max_pending: 8 };
    const CHUNK: usize = 16;

    let (server, mut client) = loopback(
        ServeEngine::with_shards(test_shards(1)),
        ServerConfig::default(),
    );
    client
        .register_tenant("wire", spec.clone())
        .expect("register wire tenant");

    let reference = ServeEngine::with_shards(1);
    reference
        .register_tenant_spec(&RegisterTenantSpec::new("ref", spec.clone()))
        .expect("register reference tenant");
    let mut ref_client = reference.client();
    let mut out: Vec<Result<DecideReply, ServeError>> = Vec::new();

    let mut served = 0;
    while served < spec.horizon {
        let n = CHUNK.min(spec.horizon - served);
        let replies = client.decide_many("wire", n as u32).expect("wire chunk");
        ref_client
            .decide_many("ref", n, &mut out)
            .expect("reference chunk");
        assert_eq!(replies.len(), n);
        assert_eq!(out.len(), n);

        let mut wire_window = Vec::with_capacity(n);
        let mut ref_window = Vec::with_capacity(n);
        for (reply, expected) in replies.into_iter().zip(&out) {
            let expected = expected.as_ref().expect("reference decision");
            assert_eq!(reply.round, expected.round);
            assert_eq!(reply.decision, expected.decision);
            assert_eq!(reply.reward.to_bits(), expected.reward.to_bits());
            let event = reply.feedback.expect("echoed feedback");
            ref_window.push((reply.round, event.clone()));
            wire_window.push(WireFeedback {
                round: reply.round,
                event,
            });
        }
        let accepted = client
            .feedback_many("wire", wire_window)
            .expect("wire feedback window");
        assert_eq!(accepted, n as u64);
        ref_client
            .feedback_many("ref", ref_window)
            .expect("reference feedback window");
        served += n;
    }

    let wire_result = server
        .engine()
        .evict_tenant("wire")
        .expect("evict wire tenant")
        .run_result();
    let ref_result = reference
        .evict_tenant("ref")
        .expect("evict reference tenant")
        .run_result();
    reference.shutdown();
    server.shutdown();

    assert_eq!(wire_result.trace, ref_result.trace, "trace drifted");
    assert_eq!(
        wire_result.total_reward.to_bits(),
        ref_result.total_reward.to_bits(),
        "total reward drifted"
    );
}

// ----- the error-frame surface ---------------------------------------------

/// Protocol misuse draws typed error frames and leaves the connection
/// serviceable (only oversized *frames* close it).
#[test]
fn misuse_draws_typed_error_frames_and_keeps_the_connection_open() {
    let config = ServerConfig {
        max_batch: 4,
        ..ServerConfig::default()
    };
    let (server, mut client) = loopback(ServeEngine::with_shards(1), config);
    let (fixture, spec) = golden_specs().remove(0);

    fn expect_code(err: &NetError, want: WireErrorCode) {
        match err {
            NetError::Server { code, .. } => assert_eq!(*code, want),
            other => panic!("expected {want} error frame, got {other}"),
        }
    }

    // Unknown tenant.
    let err = client.decide_many("nobody", 1).unwrap_err();
    expect_code(&err, WireErrorCode::UnknownTenant);

    // Zero-decision batches are meaningless.
    client.register_tenant(fixture, spec.clone()).unwrap();
    let err = client.decide_many(fixture, 0).unwrap_err();
    expect_code(&err, WireErrorCode::Invalid);

    // Batches above the server's cap.
    let err = client.decide_many(fixture, 5).unwrap_err();
    expect_code(&err, WireErrorCode::TooLarge);
    let window: Vec<WireFeedback> = (0..5)
        .map(|round| WireFeedback {
            round,
            event: placeholder_event(),
        })
        .collect();
    let err = client.feedback_many(fixture, window).unwrap_err();
    expect_code(&err, WireErrorCode::TooLarge);

    // Feedback ingestion reports no per-event errors: an event quoting a
    // round the tenant never served is *accepted* on the wire, dropped by the shard,
    // and surfaces in the metrics frame's rejected counter.
    let accepted = client
        .feedback_many(
            fixture,
            vec![WireFeedback {
                round: 999,
                event: placeholder_event(),
            }],
        )
        .expect("window is enqueued");
    assert_eq!(accepted, 1);
    server.engine().drain().expect("barrier");
    let metrics = client.metrics().expect("metrics frame");
    assert_eq!(metrics.rejected, 1, "dropped event not counted");

    // Double registration.
    let err = client.register_tenant(fixture, spec).unwrap_err();
    expect_code(&err, WireErrorCode::DuplicateTenant);

    // After all of that the connection still serves normally.
    let replies = client.decide_many(fixture, 2).expect("connection survives");
    assert_eq!(replies.len(), 2);
    server.shutdown();
}

/// A frame nesting 50,000 levels deep — a few hundred kilobytes, far under
/// the frame cap — draws a `protocol` error frame. Without the parser's
/// depth cap it would overflow the connection thread's stack, which aborts
/// the whole process. Afterwards the server still answers on a new
/// connection.
#[test]
fn deeply_nested_frames_draw_a_protocol_error_and_the_server_keeps_serving() {
    use netband::net::{read_frame, write_frame, MAX_FRAME_BYTES};
    use std::io::{BufReader, BufWriter};
    use std::net::TcpStream;

    let (server, _client) = loopback(ServeEngine::with_shards(1), ServerConfig::default());
    let bomb = "[".repeat(50_000);
    let hostile = [
        bomb.clone(),
        format!(r#"{{"type":"register_tenant","id":"x","scenario":{bomb}}}"#),
        format!(r#"{{"tenant":{bomb},"type":"decide_many"}}"#),
    ];
    let stream = TcpStream::connect(server.local_addr()).expect("connect raw socket");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = BufWriter::new(stream);
    for frame in &hostile {
        write_frame(&mut writer, frame).expect("send hostile frame");
        let reply = read_frame(&mut reader, MAX_FRAME_BYTES)
            .expect("server answers")
            .expect("connection stays open");
        match WireResponse::from_json_text(&reply).expect("error frame decodes") {
            WireResponse::Error {
                code: WireErrorCode::Protocol,
                ..
            } => {}
            other => panic!("expected a protocol error frame, got {other:?}"),
        }
    }
    let mut fresh = NetClient::connect(server.local_addr()).expect("connect after the attack");
    fresh.metrics().expect("server still answers");
    assert_eq!(
        server
            .stats()
            .decode_errors
            .load(std::sync::atomic::Ordering::Relaxed),
        hostile.len() as u64
    );
    server.shutdown();
}

/// The server encodes every response into one buffer per connection. An
/// oversized frame after earlier replies must still draw exactly one clean
/// `too_large` document, not one appended to the previous reply.
#[test]
fn an_oversized_frame_after_replies_draws_one_clean_too_large_frame() {
    use netband::net::{read_frame, write_frame, MAX_FRAME_BYTES};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    let config = ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    };
    let (server, _client) = loopback(ServeEngine::with_shards(1), config);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw socket");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    write_frame(&mut stream, &WireRequest::Metrics.to_json_text()).expect("send metrics");
    let reply = read_frame(&mut reader, MAX_FRAME_BYTES)
        .expect("metrics reply")
        .expect("connection open");
    assert!(matches!(
        WireResponse::from_json_text(&reply),
        Ok(WireResponse::Metrics(_))
    ));
    stream
        .write_all(&2048u32.to_be_bytes())
        .expect("announce an oversized frame");
    let reply = read_frame(&mut reader, MAX_FRAME_BYTES)
        .expect("too_large reply")
        .expect("the error frame arrives before the close");
    match WireResponse::from_json_text(&reply).expect("one clean document") {
        WireResponse::Error {
            code: WireErrorCode::TooLarge,
            ..
        } => {}
        other => panic!("expected a too_large error frame, got {other:?}"),
    }
    server.shutdown();
}

/// The admission-control contract of the front end: a full shard queue
/// surfaces as a **retryable `overloaded` error frame** — the server answers
/// immediately instead of parking the connection, and the same request
/// succeeds once the shard drains.
#[test]
fn overloaded_shards_answer_with_a_retryable_error_frame() {
    let engine = ServeEngine::start(EngineConfig::new(1).with_queue_capacity(1));
    let (server, mut client) = loopback(engine, ServerConfig::default());
    let (fixture, spec) = golden_specs().remove(0);
    client.register_tenant(fixture, spec).expect("register");

    // Wedge the only shard: its lock is held and its admission count is
    // full, so the server's try_* admission paths must reject
    // deterministically.
    let wedge = server.engine().wedge_shard(0);

    let err = client.decide_many(fixture, 4).unwrap_err();
    assert!(
        err.is_overloaded(),
        "expected an overloaded error frame, got {err}"
    );
    let err = client
        .feedback_many(
            fixture,
            vec![WireFeedback {
                round: 0,
                event: placeholder_event(),
            }],
        )
        .unwrap_err();
    assert!(
        err.is_overloaded(),
        "expected an overloaded error frame, got {err}"
    );

    // Release the shard: the retried request goes straight through.
    drop(wedge);
    let replies = client.decide_many(fixture, 4).expect("retry after release");
    assert_eq!(replies.len(), 4);
    for reply in &replies {
        let event = reply.feedback.clone().expect("echoed feedback");
        // A call leaves the shard's admission count before its response
        // frame is written, so back-to-back windows are never refused.
        let accepted = client
            .feedback_many(
                fixture,
                vec![WireFeedback {
                    round: reply.round,
                    event,
                }],
            )
            .expect("feedback after release");
        assert_eq!(accepted, 1);
    }
    server.shutdown();
}

/// A shard whose store fails is down, and says so on the wire: the request
/// that hit the failure and every later one for that shard draw an
/// `engine_down` error frame, while the same connection keeps serving the
/// other shard. The failure is real: the shard's directory is deleted, so
/// its next compaction cannot write a snapshot.
#[test]
fn a_failed_shard_answers_engine_down_frames_and_the_connection_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("netband_net_down_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = ServeEngine::start(
        EngineConfig::new(2).with_store(StoreConfig::new(&dir).with_compact_every(8)),
    );
    let ids: Vec<String> = (0..16).map(|i| format!("tenant-{i}")).collect();
    let on = |shard| {
        ids.iter()
            .find(|id| engine.shard_of(id) == shard)
            .expect("16 ids cover both shards")
            .clone()
    };
    let (doomed, survivor) = (on(0), on(1));
    let (server, mut client) = loopback(engine, ServerConfig::default());
    let (_, spec) = golden_specs().remove(0);
    for id in [&doomed, &survivor] {
        client
            .register_tenant(id.as_str(), spec.clone())
            .expect("register");
    }

    std::fs::remove_dir_all(dir.join("shard-0")).expect("delete shard dir");
    let is_engine_down = |e: &NetError| {
        matches!(
            e,
            NetError::Server {
                code: WireErrorCode::EngineDown,
                ..
            }
        )
    };
    let mut failed = None;
    for _ in 0..16 {
        if let Err(e) = client.decide_many(&doomed, 1) {
            failed = Some(e);
            break;
        }
    }
    let err = failed.expect("the compaction failed within 16 decides");
    assert!(is_engine_down(&err), "expected engine_down, got {err}");
    let err = client.decide_many(&doomed, 4).unwrap_err();
    assert!(is_engine_down(&err), "expected engine_down, got {err}");

    // Same connection, other shard: still served.
    let replies = client
        .decide_many(&survivor, 4)
        .expect("other shard serves");
    assert_eq!(replies.len(), 4);
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ----- wire documents carry env payloads losslessly ------------------------

/// Feedback events survive the wire document round trip bit for bit
/// (serve → JSON → serve).
#[test]
fn feedback_events_round_trip_bit_exactly_through_the_wire_documents() {
    let events = vec![
        FeedbackEvent::Single(SinglePlayFeedback {
            arm: 3,
            direct_reward: 0.1 + 0.2, // not representable exactly — the acid test
            side_reward: f64::MIN_POSITIVE,
            observations: vec![(0, 1.0e-300), (7, 0.30000000000000004)],
        }),
        FeedbackEvent::Combinatorial(CombinatorialFeedback {
            strategy: vec![1, 4, 9],
            observation_set: vec![1, 2, 4, 8, 9],
            direct_reward: 1.0 / 3.0,
            side_reward: -0.0,
            observations: vec![(2, 2.0f64.sqrt())],
        }),
    ];
    for event in events {
        let text = WireRequest::FeedbackMany {
            tenant: "t".into(),
            events: vec![WireFeedback {
                round: 0,
                event: event.clone(),
            }],
        }
        .to_json_text();
        let back = match WireRequest::from_json_text(&text).expect("reparse") {
            WireRequest::FeedbackMany { mut events, .. } => events.pop().unwrap().event,
            other => panic!("wrong request kind: {other:?}"),
        };
        assert_eq!(back, event, "JSON round trip changed the event");
        match (back, event) {
            (FeedbackEvent::Single(a), FeedbackEvent::Single(b)) => {
                assert_eq!(a.direct_reward.to_bits(), b.direct_reward.to_bits());
                assert_eq!(a.side_reward.to_bits(), b.side_reward.to_bits());
                assert_eq!(a.observations, b.observations);
            }
            (FeedbackEvent::Combinatorial(a), FeedbackEvent::Combinatorial(b)) => {
                assert_eq!(a.direct_reward.to_bits(), b.direct_reward.to_bits());
                assert_eq!(a.side_reward.to_bits(), b.side_reward.to_bits());
                assert_eq!(a.observations, b.observations);
            }
            (a, b) => panic!("event kind flipped: {a:?} vs {b:?}"),
        }
    }
}
