//! Golden wire corpus: byte-exact documents of every request and response
//! variant, committed under `tests/fixtures/wire_corpus/`.
//!
//! The corpus was generated once, by [`corpus`] below, with the tree-based
//! codec that preceded the streaming writer and schema reader, and is never
//! regenerated. It pins three things:
//!
//! * decode → encode reproduces every committed document byte for byte;
//! * encoding the same values today still produces the committed bytes;
//! * no byte sequence — arbitrary, or a mutated corpus or WAL document —
//!   makes a wire, store or scenario decoder panic, and no byte stream makes
//!   the frame reader panic or allocate past the frame cap.
//!
//! The `decisions` / `feedback_many` windows come from the four DFL presets
//! at the sizes of `examples/fleet.json`, served by an in-process engine, so
//! the corpus holds the real mix of arm, super-arm, single and combinatorial
//! feedback payloads that crosses the wire.

use std::fs;
use std::path::PathBuf;

use netband::core::PolicyState;
use netband::env::TenantMetrics;
use netband::net::proto::telemetry_to_wire;
use netband::net::{read_frame, FrameError, MAX_FRAME_BYTES};
use netband::prelude::*;
use netband::spec::presets;
use netband::spec::{ShardSnapshot, StoredTenantSnapshot, WalRecord, STORE_VERSION};
use netband::spec::{WireArmStat, WireTelemetry};
use proptest::prelude::*;

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wire_corpus")
        .join(name)
}

/// The committed documents of one corpus file, one per line.
fn committed(name: &str) -> Vec<String> {
    let path = corpus_path(name);
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read corpus file {}: {e}", path.display()));
    text.lines().map(str::to_owned).collect()
}

/// The committed drifting scenario, the deepest spec document.
fn drift_scenario() -> String {
    fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/drift_scenario.json"),
    )
    .expect("read drift scenario")
}

/// The four DFL presets at the sizes of `examples/fleet.json`.
fn presets_fleet() -> Vec<(String, ScenarioSpec)> {
    let mut fleet = vec![
        ("sso".to_owned(), presets::paper_simulation(12, 0.35, 301)),
        ("ssr".to_owned(), presets::social_promotion(16, 3, 302)),
        ("cso".to_owned(), presets::online_advertising(12, 3, 303)),
        ("csr".to_owned(), presets::channel_access(12, 3, 0.35, 304)),
    ];
    for (i, (_, spec)) in fleet.iter_mut().enumerate() {
        spec.seed = 1_000 + i as u64;
        spec.horizon = 150;
        spec.replications = 1;
        spec.feedback = FeedbackSpec::Batched { max_pending: 32 };
    }
    fleet
}

fn error(code: WireErrorCode, message: &str) -> WireResponse {
    WireResponse::Error {
        code,
        message: message.to_owned(),
    }
}

/// Every request and response document of the corpus, in file order.
fn corpus() -> (Vec<WireRequest>, Vec<WireResponse>) {
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    let engine = ServeEngine::with_shards(1);
    let mut client = engine.client();
    let mut out = Vec::new();
    for (id, spec) in presets_fleet() {
        requests.push(WireRequest::RegisterTenant {
            id: id.clone(),
            scenario: Box::new(spec.clone()),
        });
        engine
            .register_tenant_spec(&RegisterTenantSpec::new(id.clone(), spec))
            .expect("register preset tenant");
        responses.push(WireResponse::Ok);
        for count in [32, 1, 32] {
            requests.push(WireRequest::DecideMany {
                tenant: id.clone(),
                count,
            });
            client
                .decide_many(&id, count as usize, &mut out)
                .expect("decide_many");
            let replies: Vec<DecideReply> =
                out.iter().map(|r| r.clone().expect("decide")).collect();
            // Deliver the window newest-first: the wire allows any order.
            let events: Vec<WireFeedback> = replies
                .iter()
                .rev()
                .map(|r| WireFeedback {
                    round: r.round,
                    event: r.feedback.clone().expect("presets echo feedback"),
                })
                .collect();
            responses.push(WireResponse::Decisions {
                tenant: id.clone(),
                replies,
            });
            requests.push(WireRequest::FeedbackMany {
                tenant: id.clone(),
                events: events.clone(),
            });
            let accepted = client
                .feedback_many(&id, events.into_iter().map(|f| (f.round, f.event)))
                .expect("feedback_many");
            responses.push(WireResponse::Accepted {
                count: accepted as u64,
            });
        }
        requests.push(WireRequest::Telemetry { tenant: id.clone() });
        responses.push(WireResponse::Telemetry(Box::new(telemetry_to_wire(
            &engine.telemetry(&id).expect("telemetry"),
        ))));
    }

    // A drifting scenario embeds the deepest spec document.
    requests.push(WireRequest::RegisterTenant {
        id: "drift".into(),
        scenario: Box::new(
            ScenarioSpec::from_json_text(&drift_scenario()).expect("drift scenario"),
        ),
    });
    requests.push(WireRequest::Metrics);

    // Edge cases of the lexemes: escapes in strings, signed zero, the
    // smallest subnormal, the largest finite value, empty windows.
    let awkward = "t\"\\/\u{8}\u{c}\n\r\t\u{1}\u{1f} é 😀";
    requests.push(WireRequest::DecideMany {
        tenant: awkward.into(),
        count: u32::MAX,
    });
    requests.push(WireRequest::FeedbackMany {
        tenant: awkward.into(),
        events: Vec::new(),
    });
    requests.push(WireRequest::FeedbackMany {
        tenant: "edge".into(),
        events: vec![
            WireFeedback {
                round: u64::MAX,
                event: FeedbackEvent::Single(SinglePlayFeedback {
                    arm: 0,
                    direct_reward: -0.0,
                    side_reward: f64::MIN_POSITIVE,
                    observations: Vec::new(),
                }),
            },
            WireFeedback {
                round: 1,
                event: FeedbackEvent::Combinatorial(CombinatorialFeedback {
                    strategy: Vec::new(),
                    observation_set: Vec::new(),
                    direct_reward: f64::MAX,
                    side_reward: 5e-324,
                    observations: vec![(7, 0.1 + 0.2), (8, -1e-7)],
                }),
            },
        ],
    });
    requests.push(WireRequest::Telemetry {
        tenant: awkward.into(),
    });
    responses.push(WireResponse::Decisions {
        tenant: awkward.into(),
        replies: vec![
            DecideReply {
                round: u64::MAX,
                decision: Decision::Arm(usize::MAX),
                reward: -0.0,
                feedback: None,
            },
            DecideReply {
                round: 2,
                decision: Decision::Strategy(Vec::new()),
                reward: 1e21,
                feedback: None,
            },
        ],
    });
    responses.push(WireResponse::Decisions {
        tenant: "edge".into(),
        replies: Vec::new(),
    });
    responses.push(WireResponse::Accepted { count: 0 });
    responses.push(WireResponse::Metrics(WireMetrics {
        shards: 2,
        tenants: 16,
        total_decides: 1_234_567,
        total_feedback_events: 1_234_000,
        rejected: 3,
        overload_rejections: u64::MAX,
        decide_latency: WireLatency {
            p50_ns: 4_096,
            p50_exact: true,
            p99_ns: 524_288_000,
            p99_exact: false,
        },
        feedback_latency: WireLatency {
            p50_ns: 0,
            p50_exact: false,
            p99_ns: 16_384,
            p99_exact: true,
        },
    }));
    responses.push(WireResponse::Telemetry(Box::new(WireTelemetry {
        tenant: awkward.into(),
        policy: "EXP3".into(),
        round: 0,
        pending_feedback: 0,
        decides: 0,
        feedback_events: 0,
        total_reward: 0.0,
        optimal_reward: -0.0,
        regret: 1e-300,
        arms: Vec::new(),
    })));
    responses.push(WireResponse::Telemetry(Box::new(WireTelemetry {
        tenant: "edge".into(),
        policy: "DFL-SSO".into(),
        round: 3,
        pending_feedback: 1,
        decides: 3,
        feedback_events: 2,
        total_reward: 1.5,
        optimal_reward: 2.25,
        regret: 0.75,
        arms: vec![
            WireArmStat {
                arm: 0,
                pulls: 2,
                mean: 0.1 + 0.2,
            },
            WireArmStat {
                arm: 1,
                pulls: 0,
                mean: 0.0,
            },
        ],
    })));
    for (code, message) in [
        (WireErrorCode::Overloaded, "shard 1 queue full"),
        (
            WireErrorCode::TooLarge,
            "frame of 9000000 bytes exceeds the 8388608-byte cap",
        ),
        (WireErrorCode::UnknownTenant, "unknown tenant \"ghost\""),
        (
            WireErrorCode::DuplicateTenant,
            "tenant \"sso\" already exists",
        ),
        (
            WireErrorCode::Spec,
            "spec error: ScenarioSpec: missing required field \"seed\"",
        ),
        (
            WireErrorCode::Invalid,
            "decide_many count must be at least 1",
        ),
        (WireErrorCode::EngineDown, ""),
        (WireErrorCode::Protocol, awkward),
    ] {
        responses.push(error(code, message));
    }
    (requests, responses)
}

/// WAL records of every variant. The `feedback` records carry the preset
/// windows' events, as the durable engine logs them one event per record.
fn wal_corpus(requests: &[WireRequest]) -> Vec<WalRecord> {
    let mut records = Vec::new();
    for request in requests {
        match request {
            WireRequest::RegisterTenant { id, scenario } => records.push(WalRecord::Register {
                id: id.clone(),
                scenario: scenario.clone(),
                flush_max_pending: 32,
                flush_before_decide: false,
                auto_feedback: false,
                echo_feedback: true,
            }),
            WireRequest::DecideMany { tenant, count } => records.push(WalRecord::Decide {
                tenant: tenant.clone(),
                count: u64::from(*count),
            }),
            WireRequest::FeedbackMany { tenant, events } => {
                records.extend(events.iter().map(|f| WalRecord::Feedback {
                    tenant: tenant.clone(),
                    round: f.round,
                    event: f.event.clone(),
                }))
            }
            WireRequest::Telemetry { tenant } => records.push(WalRecord::Flush {
                tenant: tenant.clone(),
            }),
            WireRequest::Metrics => records.push(WalRecord::Drain),
        }
    }
    let pending: Vec<(u64, FeedbackEvent)> = requests
        .iter()
        .filter_map(|r| match r {
            WireRequest::FeedbackMany { events, .. } => events.first(),
            _ => None,
        })
        .map(|f| (1, f.event.clone()))
        .collect();
    let (_, scenario) = presets_fleet().swap_remove(0);
    for rng in [Some([1, 2, 3, u64::MAX]), None] {
        let mut policy = PolicyState::new();
        policy.counts.push(vec![3, 0, 7]);
        policy.floats.push(vec![0.1 + 0.2, 1.0 / 3.0, -0.0]);
        policy.windows.push(vec![0.25, 1.0]);
        policy.windows.push(Vec::new());
        policy.rng = rng;
        records.push(WalRecord::Restore {
            snapshot: Box::new(StoredTenantSnapshot {
                version: STORE_VERSION,
                id: "restored".into(),
                scenario: Box::new(scenario.clone()),
                round: 4,
                optimal_sum: 2.75,
                total_reward: 0.1 + 0.2,
                flush_max_pending: 32,
                flush_before_decide: true,
                auto_feedback: false,
                echo_feedback: true,
                rng: [9, 8, 7, u64::MAX],
                policy,
                realised: vec![0.5, -0.25, 0.0, 1.0 / 3.0],
                pseudo: vec![0.5, 0.5, 0.0, 1e-300],
                pending: pending.clone(),
                metrics: TenantMetrics {
                    decides: 4,
                    feedback_events: 2,
                    batches_flushed: 1,
                    events_applied: 2,
                    max_batch: 2,
                },
            }),
        });
    }
    records.push(WalRecord::Removed {
        tenant: "sso".into(),
    });
    records
}

#[test]
fn corpus_documents_reencode_byte_for_byte() {
    let requests = committed("requests.jsonl");
    let responses = committed("responses.jsonl");
    assert!(
        requests.len() >= 38 && responses.len() >= 46,
        "corpus is too small"
    );
    for line in &requests {
        let decoded = WireRequest::from_json_text(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(&decoded.to_json_text(), line);
    }
    for line in &responses {
        let decoded = WireResponse::from_json_text(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(&decoded.to_json_text(), line);
    }
}

#[test]
fn encoding_the_corpus_values_reproduces_the_committed_bytes() {
    let (requests, responses) = corpus();
    let encoded: Vec<String> = requests.iter().map(WireRequest::to_json_text).collect();
    assert_eq!(encoded, committed("requests.jsonl"));
    let encoded: Vec<String> = responses.iter().map(WireResponse::to_json_text).collect();
    assert_eq!(encoded, committed("responses.jsonl"));
    let encoded: Vec<String> = wal_corpus(&requests)
        .iter()
        .map(WalRecord::to_json_text)
        .collect();
    assert_eq!(encoded, committed("wal.jsonl"));
}

#[test]
fn wal_records_reencode_byte_for_byte() {
    for line in committed("wal.jsonl") {
        let decoded = WalRecord::from_json_text(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(decoded.to_json_text(), line);
    }
}

// ----- hostile input ---------------------------------------------------------

/// Feeds `text` to `decode`. It may not panic; whatever decodes must
/// re-encode to a document that decodes to the same value.
fn decode_one<T: PartialEq + std::fmt::Debug, E>(
    text: &str,
    decode: fn(&str) -> Result<T, E>,
    encode: fn(&T) -> String,
) {
    if let Ok(value) = decode(text) {
        let again = decode(&encode(&value)).unwrap_or_else(|_| panic!("re-decode {text}"));
        assert_eq!(again, value, "{text}");
    }
}

/// Feeds `text` to every decoder of a document that crosses a socket or
/// sits on disk: the two wire documents, the three store documents and the
/// scenario spec.
fn decode_all(text: &str) {
    decode_one(text, WireRequest::from_json_text, WireRequest::to_json_text);
    decode_one(
        text,
        WireResponse::from_json_text,
        WireResponse::to_json_text,
    );
    decode_one(text, WalRecord::from_json_text, WalRecord::to_json_text);
    decode_one(
        text,
        StoredTenantSnapshot::from_json_text,
        StoredTenantSnapshot::to_json_text,
    );
    decode_one(
        text,
        ShardSnapshot::from_json_text,
        ShardSnapshot::to_json_text,
    );
    decode_one(
        text,
        ScenarioSpec::from_json_text,
        ScenarioSpec::to_json_text,
    );
}

/// Fragments spliced into corpus documents: structural tokens, lexemes on
/// the edge of the grammar, escapes, and a nesting bomb.
fn splices() -> Vec<String> {
    let mut splices: Vec<String> = [
        "",
        "{",
        "}",
        "[",
        "]",
        "\"",
        "\\",
        ",",
        ":",
        " ",
        "null",
        "true",
        "-",
        "-0",
        "1.0",
        "1e400",
        "-1e400",
        "18446744073709551616",
        "4294967296",
        "0.5",
        "\\u0074",
        "\\ud83d",
        "\"type\":\"ok\",",
        "\"type\":",
        "\"extra\":0,",
        "\u{1}",
        "😀",
        "é",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    splices.push("[".repeat(50_000));
    splices.push("{\"a\":".repeat(10_000));
    splices
}

/// `doc` with `cut` bytes at `at` replaced by `insert`, both positions
/// snapped back to char boundaries.
fn splice(doc: &str, at: usize, cut: usize, insert: &str) -> String {
    let boundary = |mut i: usize| {
        i = i.min(doc.len());
        while !doc.is_char_boundary(i) {
            i -= 1;
        }
        i
    };
    let start = boundary(at);
    let end = boundary(start + cut).max(start);
    format!("{}{insert}{}", &doc[..start], &doc[end..])
}

/// A string over the characters JSON documents are made of, so random draws
/// get past the first token.
fn json_alphabet(codes: Vec<usize>) -> String {
    const ALPHABET: &[u8] = b"{}[]\":, \n\t\\-+.0123456789eEtruefalsnl_typdecimao";
    codes
        .into_iter()
        .map(|c| ALPHABET[c % ALPHABET.len()] as char)
        .collect()
}

/// A reader over `bytes` that hands out at most `chunk` bytes per read and
/// records the widest buffer it was asked to fill. `read_frame` reads a
/// payload straight into the buffer it allocated for it, so `widest` is the
/// largest payload allocation the input caused.
struct Trickle<'a> {
    bytes: &'a [u8],
    chunk: usize,
    widest: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.widest = self.widest.max(buf.len());
        let n = buf.len().min(self.chunk).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Reads frames from `bytes` with the server's cap until the stream ends or
/// a frame is refused, feeding every frame to every decoder. Returns the
/// widest payload buffer the reads asked for.
fn read_frames(bytes: &[u8], chunk: usize) -> usize {
    let mut reader = Trickle {
        bytes,
        chunk: chunk.max(1),
        widest: 0,
    };
    while let Ok(Some(text)) = read_frame(&mut reader, MAX_FRAME_BYTES) {
        decode_all(&text);
    }
    reader.widest
}

/// A length prefix claiming ~4 GiB is refused from the prefix alone: no
/// payload buffer is allocated, and the error names the claimed length.
#[test]
fn a_four_gib_length_prefix_is_refused_before_allocating() {
    for claimed in [u32::MAX, u32::MAX - 1, (MAX_FRAME_BYTES + 1) as u32] {
        let mut bytes = claimed.to_be_bytes().to_vec();
        bytes.extend_from_slice(br#"{"type":"metrics"}"#);
        let mut reader = Trickle {
            bytes: &bytes,
            chunk: 3,
            widest: 0,
        };
        match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!((len, max), (claimed as usize, MAX_FRAME_BYTES));
            }
            other => panic!("expected too_large for {claimed}, got {other:?}"),
        }
        assert_eq!(reader.widest, 4, "only the prefix was read");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in collection::vec(0u32..256, 0..96)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        decode_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_shaped_noise_never_panics_a_decoder(codes in collection::vec(0usize..64, 0..96)) {
        decode_all(&json_alphabet(codes));
    }

    #[test]
    fn mutated_corpus_documents_never_panic_a_decoder(
        pick in (0usize..1_000, 0usize..1 << 16),
        cut in 0usize..24,
        insert in 0usize..64,
        twice in proptest::bool::ANY,
    ) {
        let docs: Vec<String> = committed("requests.jsonl")
            .into_iter()
            .chain(committed("responses.jsonl"))
            .chain(committed("wal.jsonl"))
            .chain([drift_scenario()])
            .collect();
        let splices = splices();
        let doc = &docs[pick.0 % docs.len()];
        let at = pick.1 % (doc.len() + 1);
        let mut mutated = splice(doc, at, cut, &splices[insert % splices.len()]);
        if twice {
            let at = (at * 7 + 13) % (mutated.len() + 1);
            mutated = splice(&mutated, at, cut / 2, &splices[(insert + 5) % splices.len()]);
        }
        decode_all(&mutated);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_frame_reader(
        bytes in collection::vec(0u32..256, 0..96),
        chunk in 1usize..9,
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        prop_assert!(read_frames(&bytes, chunk) <= MAX_FRAME_BYTES);
    }

    #[test]
    fn framed_noise_never_panics_the_frame_reader(
        frames in collection::vec((0u32..80, collection::vec(0usize..64, 0..64)), 0..4),
        chunk in 1usize..9,
    ) {
        // Length prefixes near the payload sizes, so reads land on short,
        // exact and overlong frames, over JSON-shaped payloads.
        let mut bytes = Vec::new();
        for (claimed, codes) in frames {
            bytes.extend_from_slice(&claimed.to_be_bytes());
            bytes.extend_from_slice(json_alphabet(codes).as_bytes());
        }
        prop_assert!(read_frames(&bytes, chunk) <= MAX_FRAME_BYTES);
    }

    #[test]
    fn framed_corpus_documents_never_panic_the_frame_reader(
        pick in 0usize..1_000,
        slack in 0u32..8,
        longer in proptest::bool::ANY,
        chunk in 1usize..64,
    ) {
        // A committed document behind a prefix a few bytes off its length.
        let docs: Vec<String> = committed("requests.jsonl")
            .into_iter()
            .chain(committed("responses.jsonl"))
            .collect();
        let doc = docs[pick % docs.len()].as_bytes();
        let len = doc.len() as u32;
        let claimed = if longer { len + slack } else { len.saturating_sub(slack) };
        let mut bytes = claimed.to_be_bytes().to_vec();
        bytes.extend_from_slice(doc);
        prop_assert!(read_frames(&bytes, chunk) <= MAX_FRAME_BYTES);
    }
}
