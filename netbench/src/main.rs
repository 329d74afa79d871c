//! The netband repo benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path netbench/Cargo.toml -- \
//!     --workload wire-b1|wire-b32|sim-paper \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. The wire workloads build and boot the
//! real `netband_server` as a child process and load it over TCP from this
//! one process; `sim-paper` runs the paper's simulations in-process. With
//! `--trace 0` the run reports the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a separate traced run. Every run checks its outputs.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. See `netbench/README.md`.

mod fleet;
mod host;
mod report;
mod served;
mod server;
mod sim;
mod stats;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use netband_spec::json::Json;
use netband_spec::FeedbackSpec;

use crate::fleet::{paper_scenarios, wire_fleet, Variant};
use crate::host::HostSpeed;
use crate::report::Outcome;
use crate::served::{wire_layers, Ctx, Served};
use crate::trace::Tracer;

/// Rounds of each fleet scenario in the traced stepped loop.
const FLEET_STEP_ROUNDS: usize = 4_000;

/// Offset of the confirmation seed recorded next to every result.
const CONFIRM_SEED_OFFSET: u64 = 1_000;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WireB1,
    WireB32,
    SimPaper,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::WireB1, Workload::WireB32, Workload::SimPaper];

    fn name(self) -> &'static str {
        match self {
            Workload::WireB1 => "wire-b1",
            Workload::WireB32 => "wire-b32",
            Workload::SimPaper => "sim-paper",
        }
    }

    /// The served fleet: the 16-tenant fleet for the wire workloads, the
    /// four paper scenarios as tenants for `sim-paper`'s traced wire session.
    fn served(self, seed: u64) -> Served {
        let window = match self {
            Workload::WireB1 => 1,
            Workload::WireB32 | Workload::SimPaper => 32,
        };
        let tenants = match self {
            Workload::SimPaper => paper_scenarios(seed)
                .into_iter()
                .enumerate()
                .map(|(i, (variant, mut spec))| {
                    spec.feedback = FeedbackSpec::Batched { max_pending: 32 };
                    (format!("p{i}"), variant, spec)
                })
                .collect(),
            _ => wire_fleet(seed),
        };
        Served {
            window,
            durable: false,
            tenants,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: netbench --workload wire-b1|wire-b32|sim-paper \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds: seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?,
        trace: trace.ok_or_else(|| format!("--trace is required\n{USAGE}"))?,
    })
}

/// First line of a command's stdout, or `fallback`.
fn command_line(program: &str, args: &[&str], root: &Path, fallback: &str) -> String {
    Command::new(program)
        .args(args)
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| fallback.to_owned())
}

/// The machine and source fingerprint printed with every result.
fn fingerprint(args: &Args, root: &Path, nproc: usize) -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let git_rev = if root.join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"], root, "unknown")
    } else {
        "not a git checkout".into()
    };
    Json::Object(vec![
        ("workload".into(), Json::String(args.workload.name().into())),
        ("seed".into(), Json::from_u64(args.seed)),
        (
            "confirm_seed".into(),
            Json::from_u64(args.seed.wrapping_add(CONFIRM_SEED_OFFSET)),
        ),
        ("seconds".into(), Json::from_f64(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("available_parallelism".into(), Json::from_u64(nproc as u64)),
        ("cpu_model".into(), Json::String(cpu_model)),
        (
            "rustc".into(),
            Json::String(command_line("rustc", &["-V"], root, "unknown")),
        ),
        ("git_rev".into(), Json::String(git_rev)),
    ])
    .to_text()
}

/// The traced run: per-layer metrics of every layer, on this workload's
/// inputs, plus the tracing overhead on the workload's own load.
fn run_traced(ctx: &Ctx, workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now());
    let served = workload.served(seed);
    // One scenario per DFL variant for the stepped loop: the fleet's first
    // instance of each preset, or the paper scenarios at their horizon.
    let stepped: Vec<_> = match workload {
        Workload::SimPaper => paper_scenarios(seed),
        _ => Variant::ALL
            .iter()
            .map(|v| {
                let (_, _, spec) = served
                    .tenants
                    .iter()
                    .find(|(_, variant, _)| variant == v)
                    .expect("the fleet hosts every variant");
                let mut spec = spec.clone();
                spec.horizon = FLEET_STEP_ROUNDS;
                (*v, spec)
            })
            .collect(),
    };
    // The wire session is the workload's load, except on sim-paper, where
    // it only measures the serving layers on the paper scenarios.
    let share = if workload == Workload::SimPaper {
        0.2
    } else {
        0.4
    };
    let half = Duration::from_secs_f64(seconds * share);
    // Per-layer figures are raw; the host's speed around them is reported
    // alongside, to read them against (see `host`).
    let mut host = HostSpeed::new();
    host.sample();
    let wire = wire_layers(ctx, &served, half, &mut tracer, &mut out.checks)?;
    host.sample();
    let steps = sim::stepped_layers(&stepped, &mut tracer, &mut out.checks)?;
    host.sample();

    for (name, value, unit) in &wire.metrics {
        out.push(*name, *value, unit);
    }
    for (variant, select_ns, update_ns, pull_ns, build_ms) in &steps.per_variant {
        let v = variant.name();
        out.push(format!("core.select_ns.{v}"), *select_ns, "ns");
        out.push(format!("core.update_ns.{v}"), *update_ns, "ns");
        out.push(format!("env.pull_ns.{v}"), *pull_ns, "ns");
        out.push(format!("graph.build_ms.{v}"), *build_ms, "ms");
    }
    let (untraced, traced) = match workload {
        Workload::SimPaper => (steps.untraced_rounds_per_s, steps.traced_rounds_per_s),
        _ => (wire.untraced_per_s, wire.traced_per_s),
    };
    out.push("host.reference_ms", host.median_s() * 1e3, "ms");
    out.push(
        "trace.overhead_pct",
        (untraced - traced) / untraced * 100.0,
        "%",
    );

    let dump = ctx
        .scratch
        .with_file_name(format!("spans-{}-seed{seed}.tsv", workload.name()));
    tracer
        .write_tsv(&dump)
        .map_err(|e| format!("write {}: {e}", dump.display()))?;
    println!("spans: {} written to {}", tracer.len(), dump.display());
    for (name, (count, total, own)) in tracer.summary() {
        println!(
            "span {name:<24} n={count:<8} mean={:>10.1} ns  self={:>10.1} ns",
            total as f64 / count as f64,
            own as f64 / count as f64
        );
    }
    Ok(out)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    if !root.join("crates/net/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not a netband checkout (no crates/net); run from the repo root",
            root.display()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("fingerprint {}", fingerprint(args, &root, nproc));

    let server_bin = server::build_server(&root)?;
    let scratch: PathBuf = server::target_dir(&root)
        .join("netbench")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let ctx = Ctx {
        server_bin,
        scratch,
        nproc,
    };
    let outcome = match (args.workload, args.trace) {
        (w, true) => run_traced(&ctx, w, args.seed, args.seconds),
        (Workload::SimPaper, false) => sim::run_end_to_end(args.seed, args.seconds),
        (w, false) => served::run_end_to_end(&ctx, &w.served(args.seed), args.seconds),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("metric {:<30} {:>16.4} {}", m.name, m.value, m.unit);
            }
            for message in &outcome.checks.messages {
                println!("check failed: {message}");
            }
            println!(
                "failed_share = {} / {}",
                outcome.checks.failed, outcome.checks.attempted
            );
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("netbench: {message}");
            ExitCode::FAILURE
        }
    }
}
