//! Wire-codec micro-bench: ns per reply to encode and decode the two hot
//! wire documents, a 32-reply `decisions` frame and a 32-event
//! `feedback_many` frame.
//!
//! The frames are real: the four DFL fleet presets (at the sizes of
//! `examples/fleet.json`) are served by an in-process engine, and each
//! tenant's 32-decision window and its echoed feedback become one frame
//! apiece, so arm and super-arm decisions, single and combinatorial feedback
//! payloads all appear in the mix. Each row is the mean over the four
//! tenants' frames.
//!
//! Hand-rolled harness (`harness = false`) like the other `BENCH_*` benches:
//! a full run prints the table and writes `BENCH_codec.json` at the
//! workspace root with the machine fingerprint. `NETBAND_BENCH_FAST=1` is the
//! CI smoke run: it skips the JSON write and fails on a pathological
//! regression (generous absolute ns/reply ceilings).

use std::time::{Duration, Instant};

use netband_bench::{machine_fingerprint_json, workspace_root};
use netband_serve::{RegisterTenantSpec, ServeEngine};
use netband_spec::wire::{WireFeedback, WireRequest, WireResponse};
use netband_spec::{presets, FeedbackSpec, ScenarioSpec};

/// Replies per `decisions` frame and events per `feedback_many` frame.
const WINDOW: usize = 32;

/// Smoke-mode ceilings, ns per reply (or event). The streaming codec runs
/// the preset frames at well under a microsecond per reply; a ceiling trip
/// means an accidental per-value allocation or re-parse, not machine noise.
const CEILING_ENCODE_NS: f64 = 2_500.0;
const CEILING_DECODE_NS: f64 = 4_000.0;

/// Wall-clock ns per call of `f`, over a loop long enough to trust (smoke
/// mode trims the sample to keep CI fast). Best of three samples.
fn measure(fast: bool, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let budget = Duration::from_millis(if fast { 5 } else { 100 });
    let mut iters = 4u64;
    let elapsed = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= budget || iters >= 1 << 20 {
            break elapsed;
        }
        iters *= 2;
    };
    let mut best = elapsed.as_nanos() as f64 / iters as f64;
    for _ in 0..2 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// The four DFL presets at the sizes of `examples/fleet.json`.
fn fleet() -> Vec<(&'static str, ScenarioSpec)> {
    let mut fleet = vec![
        ("dfl_sso", presets::paper_simulation(12, 0.35, 11)),
        ("dfl_ssr", presets::social_promotion(16, 3, 12)),
        ("dfl_cso", presets::online_advertising(12, 3, 13)),
        ("dfl_csr", presets::channel_access(12, 3, 0.35, 14)),
    ];
    for (i, (_, spec)) in fleet.iter_mut().enumerate() {
        spec.seed = 100 + i as u64;
        spec.feedback = FeedbackSpec::Batched {
            max_pending: WINDOW,
        };
    }
    fleet
}

/// One `decisions` frame and one `feedback_many` frame per preset tenant,
/// each holding a warmed-up tenant's 32-decision window.
fn frames() -> (Vec<String>, Vec<String>) {
    let engine = ServeEngine::with_shards(1);
    let mut client = engine.client();
    let mut out = Vec::new();
    let (mut decisions, mut feedback) = (Vec::new(), Vec::new());
    for (id, spec) in fleet() {
        engine
            .register_tenant_spec(&RegisterTenantSpec::new(id, spec))
            .expect("register preset tenant");
        // Warm the tenant past its first rounds so the window is typical.
        for _ in 0..4 {
            client
                .decide_many(id, WINDOW, &mut out)
                .expect("decide_many");
            let window = out.drain(..).map(|r| {
                let r = r.expect("decide");
                (r.round, r.feedback.expect("presets echo feedback"))
            });
            client.feedback_many(id, window).expect("feedback_many");
        }
        client
            .decide_many(id, WINDOW, &mut out)
            .expect("decide_many");
        let replies: Vec<_> = out.drain(..).map(|r| r.expect("decide")).collect();
        let events = replies
            .iter()
            .map(|r| WireFeedback {
                round: r.round,
                event: r.feedback.clone().expect("echo"),
            })
            .collect();
        decisions.push(
            WireResponse::Decisions {
                tenant: id.into(),
                replies,
            }
            .to_json_text(),
        );
        feedback.push(
            WireRequest::FeedbackMany {
                tenant: id.into(),
                events,
            }
            .to_json_text(),
        );
    }
    (decisions, feedback)
}

struct Row {
    frame: &'static str,
    op: &'static str,
    ns_per_reply: f64,
    frame_bytes: f64,
}

fn run(fast: bool) -> Vec<Row> {
    let (decisions, feedback) = frames();
    let mean_bytes = |frames: &[String]| {
        frames.iter().map(String::len).sum::<usize>() as f64 / frames.len() as f64
    };
    let per_reply = |total_ns: f64, frames: usize| total_ns / (frames * WINDOW) as f64;

    let responses: Vec<WireResponse> = decisions
        .iter()
        .map(|t| WireResponse::from_json_text(t).expect("decisions frame decodes"))
        .collect();
    let requests: Vec<WireRequest> = feedback
        .iter()
        .map(|t| WireRequest::from_json_text(t).expect("feedback frame decodes"))
        .collect();
    for (value, text) in responses.iter().zip(&decisions) {
        assert_eq!(&value.to_json_text(), text, "decisions frame re-encodes");
    }
    for (value, text) in requests.iter().zip(&feedback) {
        assert_eq!(&value.to_json_text(), text, "feedback frame re-encodes");
    }

    let decisions_encode = measure(fast, || {
        for r in &responses {
            std::hint::black_box(r.to_json_text());
        }
    });
    let decisions_decode = measure(fast, || {
        for t in &decisions {
            std::hint::black_box(WireResponse::from_json_text(t).expect("decode"));
        }
    });
    let feedback_encode = measure(fast, || {
        for r in &requests {
            std::hint::black_box(r.to_json_text());
        }
    });
    let feedback_decode = measure(fast, || {
        for t in &feedback {
            std::hint::black_box(WireRequest::from_json_text(t).expect("decode"));
        }
    });
    vec![
        Row {
            frame: "decisions",
            op: "encode",
            ns_per_reply: per_reply(decisions_encode, decisions.len()),
            frame_bytes: mean_bytes(&decisions),
        },
        Row {
            frame: "decisions",
            op: "decode",
            ns_per_reply: per_reply(decisions_decode, decisions.len()),
            frame_bytes: mean_bytes(&decisions),
        },
        Row {
            frame: "feedback_many",
            op: "encode",
            ns_per_reply: per_reply(feedback_encode, feedback.len()),
            frame_bytes: mean_bytes(&feedback),
        },
        Row {
            frame: "feedback_many",
            op: "decode",
            ns_per_reply: per_reply(feedback_decode, feedback.len()),
            frame_bytes: mean_bytes(&feedback),
        },
    ]
}

fn write_json(rows: &[Row]) {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"frame\": \"{}\", \"op\": \"{}\", \"ns_per_reply\": {:.1}, \
                 \"frame_bytes\": {:.0} }}",
                r.frame, r.op, r.ns_per_reply, r.frame_bytes
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"wire_codec\",\n  \"window\": {WINDOW},\n{}  \"rows\": [\n{}\n  ]\n}}\n",
        machine_fingerprint_json(),
        rows.join(",\n")
    );
    let path = workspace_root().join("BENCH_codec.json");
    std::fs::write(&path, json).expect("write BENCH_codec.json");
    println!("wrote {}", path.display());
}

fn main() {
    let fast = std::env::var_os("NETBAND_BENCH_FAST").is_some();
    println!(
        "wire codec: {WINDOW}-reply frames of the four DFL presets{}",
        if fast { " (fast smoke)" } else { "" }
    );
    let rows = run(fast);
    println!(
        "{:>14} {:>7} {:>12} {:>12}",
        "frame", "op", "ns/reply", "frame bytes"
    );
    for r in &rows {
        println!(
            "{:>14} {:>7} {:>12.1} {:>12.0}",
            r.frame, r.op, r.ns_per_reply, r.frame_bytes
        );
    }
    if fast {
        for r in &rows {
            let ceiling = if r.op == "encode" {
                CEILING_ENCODE_NS
            } else {
                CEILING_DECODE_NS
            };
            assert!(
                r.ns_per_reply <= ceiling,
                "codec regression: {} {} ran at {:.0} ns/reply, above the {ceiling} ns ceiling",
                r.frame,
                r.op,
                r.ns_per_reply
            );
        }
        println!("smoke ceilings ok");
    } else {
        write_json(&rows);
    }
}
