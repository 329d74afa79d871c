//! Multi-connection load generator for the netband wire protocol.
//!
//! ```text
//! netband_loadgen [--addr HOST:PORT] [--connections 1,2,4,8] [--batches 1,8,32,128]
//!                 [--tenants 8] [--decides-per-cell 32768] [--shards N] [--out PATH]
//! ```
//!
//! Without `--addr` an in-process server is spawned on an ephemeral loopback
//! port, so the binary doubles as a self-contained benchmark. For every
//! (connections × batch) cell it drives the target number of decisions
//! through real TCP connections — each `decide_many` answered with a
//! `feedback_many` window, overload frames retried after a backoff — and
//! reports throughput plus exact p50/p99 request latencies (measured
//! client-side, sorted, not bucketed).
//!
//! `NETBAND_BENCH_FAST=1` shrinks the matrix to one small cell and turns the
//! run into a smoke test: it asserts a minimum decides/sec floor and zero
//! protocol errors, exiting non-zero on violation (the CI hook). The full
//! run writes `BENCH_net.json` (or `--out`).

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netband_net::{NetClient, NetServer, ServerConfig};
use netband_serve::{EngineConfig, ServeEngine};
use netband_spec::json::Json;
use netband_spec::wire::{WireRequest, WireResponse};
use netband_spec::{
    ArmsSpec, FeedbackSpec, GraphSpec, PolicySpec, ScenarioSpec, SideBonus, WireFeedback,
    WorkloadSpec, SPEC_VERSION,
};

/// Throughput floor asserted in fast (CI smoke) mode, decides per second.
/// Loopback batched serving runs orders of magnitude above this; the floor
/// only exists to catch a protocol-level stall, not to benchmark CI hosts.
const FAST_MODE_FLOOR: f64 = 5_000.0;

struct Args {
    addr: Option<String>,
    connections: Vec<usize>,
    batches: Vec<u32>,
    tenants: usize,
    decides_per_cell: usize,
    shards: usize,
    out: String,
}

const USAGE: &str = "usage: netband_loadgen [--addr HOST:PORT] [--connections LIST] \
                     [--batches LIST] [--tenants N] [--decides-per-cell N] [--shards N] [--out PATH]";

fn parse_list<T: std::str::FromStr>(text: &str, flag: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    text.split(',')
        .map(|part| {
            part.trim()
                .parse::<T>()
                .map_err(|e| format!("{flag}: bad entry {part:?}: {e}"))
        })
        .collect()
}

fn parse_args(fast: bool) -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        connections: if fast { vec![2] } else { vec![1, 2, 4, 8] },
        batches: if fast { vec![16] } else { vec![1, 8, 32, 128] },
        tenants: 8,
        decides_per_cell: if fast { 4_096 } else { 32_768 },
        shards: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(4),
        out: "BENCH_net.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--connections" => {
                args.connections = parse_list(&value("--connections")?, "--connections")?
            }
            "--batches" => args.batches = parse_list(&value("--batches")?, "--batches")?,
            "--tenants" => {
                args.tenants = value("--tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?
            }
            "--decides-per-cell" => {
                args.decides_per_cell = value("--decides-per-cell")?
                    .parse()
                    .map_err(|e| format!("--decides-per-cell: {e}"))?
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.tenants == 0 || args.connections.is_empty() || args.batches.is_empty() {
        return Err("need at least one tenant, connection count, and batch size".into());
    }
    Ok(args)
}

/// The scenario every load-generator tenant hosts: a 10-arm Erdős–Rényi
/// side-observation workload under DFL-SSO — small enough that the engine,
/// not the policy, dominates the cost being measured.
fn loadgen_scenario(index: usize) -> ScenarioSpec {
    ScenarioSpec {
        version: SPEC_VERSION,
        name: format!("loadgen-{index}"),
        workload: WorkloadSpec {
            graph: GraphSpec::ErdosRenyi {
                num_arms: 10,
                edge_prob: 0.3,
            },
            arms: ArmsSpec::UniformMeanBernoulli { num_arms: 10 },
            family: None,
            drift: None,
            seed: 9_000 + index as u64,
        },
        policy: PolicySpec::DflSso,
        side_bonus: SideBonus::Observation,
        horizon: 1_000,
        replications: 1,
        seed: 100 + index as u64,
        feedback: FeedbackSpec::Batched { max_pending: 256 },
    }
}

/// Per-cell counters aggregated across a cell's worker threads.
#[derive(Default)]
struct CellStats {
    decides: usize,
    latencies_ns: Vec<u64>,
    overload_rejections: u64,
    protocol_errors: u64,
}

fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One worker: a real TCP connection serving its disjoint tenant slice.
fn run_worker(
    addr: SocketAddr,
    tenants: Vec<String>,
    target: usize,
    batch: u32,
) -> Result<CellStats, String> {
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut stats = CellStats::default();
    let mut tenant_cursor = 0usize;
    while stats.decides < target {
        let tenant = &tenants[tenant_cursor % tenants.len()];
        tenant_cursor += 1;
        let n = (target - stats.decides).min(batch as usize) as u32;
        // Decide: retry overload frames after a backoff; anything else is a
        // protocol error and aborts the worker (the smoke floor catches it).
        let replies = loop {
            let start = Instant::now();
            match client.decide_many(tenant, n) {
                Ok(replies) => {
                    stats.latencies_ns.push(start.elapsed().as_nanos() as u64);
                    break replies;
                }
                Err(e) if e.is_overloaded() => {
                    stats.overload_rejections += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => {
                    stats.protocol_errors += 1;
                    return Err(format!("decide_many({tenant}, {n}): {e}"));
                }
            }
        };
        stats.decides += replies.len();
        // Route the echoed feedback back in one window, also with overload
        // retry. Built as a raw request so a rejected window can be resent
        // without cloning the events.
        let events: Vec<WireFeedback> = replies
            .into_iter()
            .filter_map(|r| {
                r.feedback.map(|event| WireFeedback {
                    round: r.round,
                    event,
                })
            })
            .collect();
        if events.is_empty() {
            continue;
        }
        let request = WireRequest::FeedbackMany {
            tenant: tenant.clone(),
            events,
        };
        loop {
            match client.call(&request) {
                Ok(WireResponse::Accepted { .. }) => break,
                Ok(WireResponse::Error {
                    code: netband_spec::WireErrorCode::Overloaded,
                    ..
                }) => {
                    stats.overload_rejections += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(other) => {
                    stats.protocol_errors += 1;
                    return Err(format!(
                        "feedback_many({tenant}): unexpected {}",
                        other.to_json_text()
                    ));
                }
                Err(e) => {
                    stats.protocol_errors += 1;
                    return Err(format!("feedback_many({tenant}): {e}"));
                }
            }
        }
    }
    Ok(stats)
}

struct CellResult {
    connections: usize,
    batch: u32,
    decides: usize,
    elapsed_secs: f64,
    decides_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    overload_rejections: u64,
    protocol_errors: u64,
}

fn run_cell(
    addr: SocketAddr,
    tenant_ids: &[String],
    connections: usize,
    batch: u32,
    decides_per_cell: usize,
) -> CellResult {
    let per_conn = decides_per_cell.div_ceil(connections);
    let start = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            // Disjoint tenant ownership: no two connections interleave
            // rounds of the same tenant, so feedback windows stay valid.
            let owned: Vec<String> = tenant_ids
                .iter()
                .enumerate()
                .filter(|(t, _)| t % connections == c)
                .map(|(_, id)| id.clone())
                .collect();
            let owned = if owned.is_empty() {
                vec![tenant_ids[c % tenant_ids.len()].clone()]
            } else {
                owned
            };
            std::thread::spawn(move || run_worker(addr, owned, per_conn, batch))
        })
        .collect();
    let mut stats = CellStats::default();
    for worker in workers {
        match worker.join().expect("worker thread panicked") {
            Ok(s) => {
                stats.decides += s.decides;
                stats.latencies_ns.extend(s.latencies_ns);
                stats.overload_rejections += s.overload_rejections;
                stats.protocol_errors += s.protocol_errors;
            }
            Err(message) => {
                eprintln!("netband_loadgen: worker failed: {message}");
                stats.protocol_errors += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    stats.latencies_ns.sort_unstable();
    CellResult {
        connections,
        batch,
        decides: stats.decides,
        elapsed_secs: elapsed,
        decides_per_sec: stats.decides as f64 / elapsed.max(1e-9),
        p50_us: quantile_ns(&stats.latencies_ns, 0.50) as f64 / 1_000.0,
        p99_us: quantile_ns(&stats.latencies_ns, 0.99) as f64 / 1_000.0,
        overload_rejections: stats.overload_rejections,
        protocol_errors: stats.protocol_errors,
    }
}

fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

/// First line of `program args`' output, or `unknown` — for the machine
/// fingerprint recorded next to the numbers.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_owned()))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn report_json(args: &Args, results: &[CellResult]) -> Json {
    Json::Object(vec![
        ("bench".into(), Json::String("net_loadgen".into())),
        ("protocol".into(), Json::String("framed-json/tcp".into())),
        ("tenants".into(), Json::from_u64(args.tenants as u64)),
        ("shards".into(), Json::from_u64(args.shards as u64)),
        (
            "decides_per_cell".into(),
            Json::from_u64(args.decides_per_cell as u64),
        ),
        (
            "available_parallelism".into(),
            Json::from_u64(
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(1),
            ),
        ),
        ("cpu_model".into(), Json::String(cpu_model())),
        ("rustc".into(), Json::String(command_line("rustc", &["-V"]))),
        (
            "git_rev".into(),
            Json::String(command_line("git", &["describe", "--always", "--dirty"])),
        ),
        (
            "results".into(),
            Json::Array(
                results
                    .iter()
                    .map(|r| {
                        Json::Object(vec![
                            ("connections".into(), Json::from_u64(r.connections as u64)),
                            ("batch".into(), Json::from_u64(u64::from(r.batch))),
                            ("decides".into(), Json::from_u64(r.decides as u64)),
                            (
                                "elapsed_secs".into(),
                                Json::from_f64(round4(r.elapsed_secs)),
                            ),
                            (
                                "decides_per_sec".into(),
                                Json::from_u64(r.decides_per_sec as u64),
                            ),
                            ("decide_p50_us".into(), Json::from_f64(round4(r.p50_us))),
                            ("decide_p99_us".into(), Json::from_f64(round4(r.p99_us))),
                            (
                                "overload_rejections".into(),
                                Json::from_u64(r.overload_rejections),
                            ),
                            ("protocol_errors".into(), Json::from_u64(r.protocol_errors)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run(args: &Args, fast: bool) -> Result<(), String> {
    // In-process server unless pointed at a live one.
    let local = if args.addr.is_none() {
        let engine = Arc::new(ServeEngine::start(
            EngineConfig::new(args.shards).with_queue_capacity(1024),
        ));
        let server = NetServer::bind(engine, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind in-process server: {e}"))?;
        Some(server)
    } else {
        None
    };
    let addr: SocketAddr = match (&args.addr, &local) {
        (Some(text), _) => text.parse().map_err(|e| format!("--addr {text}: {e}"))?,
        (None, Some(server)) => server.local_addr(),
        (None, None) => unreachable!(),
    };

    // Register the tenant fleet over the wire (idempotence not needed: a
    // duplicate registration on an external server is a hard error we want
    // to see).
    let tenant_ids: Vec<String> = (0..args.tenants).map(|t| format!("lg-{t}")).collect();
    let mut setup = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for (index, id) in tenant_ids.iter().enumerate() {
        setup
            .register_tenant(id.clone(), loadgen_scenario(index))
            .map_err(|e| format!("register {id}: {e}"))?;
    }

    let mut results = Vec::new();
    for &connections in &args.connections {
        for &batch in &args.batches {
            let cell = run_cell(addr, &tenant_ids, connections, batch, args.decides_per_cell);
            println!(
                "connections={:2} batch={:4}  {:>8} decides in {:6.3}s  {:>9.0}/s  p50={:7.1}us p99={:7.1}us  overloads={} protocol_errors={}",
                cell.connections,
                cell.batch,
                cell.decides,
                cell.elapsed_secs,
                cell.decides_per_sec,
                cell.p50_us,
                cell.p99_us,
                cell.overload_rejections,
                cell.protocol_errors,
            );
            results.push(cell);
        }
    }

    // Cross-check against the server's own accounting.
    let expected: u64 = results.iter().map(|r| r.decides as u64).sum();
    let metrics = setup.metrics().map_err(|e| format!("metrics: {e}"))?;
    if metrics.total_decides < expected {
        return Err(format!(
            "server reports {} decides, loadgen counted {expected}",
            metrics.total_decides
        ));
    }
    println!(
        "server metrics: {} decides, {} feedback events, p99 decide {}{}us",
        metrics.total_decides,
        metrics.total_feedback_events,
        if metrics.decide_latency.p99_exact {
            "<="
        } else {
            ">"
        },
        metrics.decide_latency.p99_ns / 1_000,
    );

    if fast {
        for cell in &results {
            if cell.protocol_errors > 0 {
                return Err(format!(
                    "smoke: {} protocol errors at connections={} batch={}",
                    cell.protocol_errors, cell.connections, cell.batch
                ));
            }
            if cell.decides_per_sec < FAST_MODE_FLOOR {
                return Err(format!(
                    "smoke: {:.0} decides/s below the {FAST_MODE_FLOOR:.0}/s floor at connections={} batch={}",
                    cell.decides_per_sec, cell.connections, cell.batch
                ));
            }
        }
        println!("smoke: all cells above {FAST_MODE_FLOOR:.0} decides/s with zero protocol errors");
    } else {
        let text = report_json(args, &results).to_text_pretty();
        std::fs::write(&args.out, text).map_err(|e| format!("write {}: {e}", args.out))?;
        println!("wrote {}", args.out);
    }
    if let Some(server) = local {
        server.shutdown();
    }
    Ok(())
}

fn main() -> ExitCode {
    let fast = std::env::var("NETBAND_BENCH_FAST").is_ok_and(|v| v == "1");
    let args = match parse_args(fast) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args, fast) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("netband_loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
