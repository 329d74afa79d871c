//! The wire workloads: a fleet served by the real `netband_server` over TCP,
//! optionally on a durable store, driven by closed-loop callers.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use netband_net::NetClient;
use netband_serve::{EngineConfig, RegisterTenantSpec, ServeEngine};
use netband_spec::wire::{WireRequest, WireResponse};
use netband_spec::{ScenarioSpec, WalRecord};
use netband_store::Wal;

use crate::fleet::Variant;
use crate::host::{slowdown, HostSpeed};
use crate::report::{Checks, Outcome};
use crate::server::{cpu_s, Server};
use crate::stats::{mean_ns, median, quantile};
use crate::trace::Tracer;
use crate::wire::{connect_callers, run_phase, Captured, Phase, PhaseStats};

/// Concurrent connections: one per core of the 2-core reference machine.
const CONNECTIONS: usize = 2;

/// The load generator's own CPU account.
const SELF_STAT: &str = "/proc/self/stat";

/// Set-ups timed before the load (the last one serves it); one more is
/// timed after each session, and the median of all is reported.
const SETUP_REPEATS: usize = 4;

/// Sessions the timed window is split into, each bracketed by host-speed
/// samples. The reported figures are medians over sessions.
const SESSIONS: usize = 20;

/// Decides each caller is served before the timed window, so connections,
/// allocators and caches settle. A fixed count, not a time, so the server's
/// peak resident set, read after it, does not depend on the host's speed:
/// every tenant keeps a per-round regret trace that grows as it is served.
const WARM_UP_DECIDES: usize = 16_384;

/// Bound on the warm-up's time on a stalled server.
const WARM_UP_LIMIT: Duration = Duration::from_secs(60);

/// Exchanges each caller keeps for the offline replays of a traced run.
const CAPTURE_PER_CALLER: usize = 2_000;

/// Untraced/traced phase pairs of a traced run.
const TRACE_ALTERNATIONS: usize = 4;

/// Records written by the WAL replay: 1,024 fsyncs at `--sync-every 64`.
const STORE_RECORDS: usize = SYNC_EVERY * 1_024;

/// The fsync batching of the durable probe (the CI recovery canary's).
const SYNC_EVERY: usize = 64;

/// One served workload.
pub struct Served {
    /// `decide_many` count and feedback window size.
    pub window: u32,
    /// Serve from `--data-dir` with `--sync-every 64`.
    pub durable: bool,
    /// `(tenant id, variant, scenario)`.
    pub tenants: Vec<(String, Variant, ScenarioSpec)>,
}

/// Paths a run works with, all inside the checkout.
pub struct Ctx {
    /// The built `netband_server`.
    pub server_bin: PathBuf,
    /// Per-run scratch directory (data dirs, WAL replay); span dumps go next
    /// to it.
    pub scratch: PathBuf,
    /// Cores available to the run.
    pub nproc: usize,
}

impl Served {
    fn ids(&self) -> Vec<String> {
        self.tenants.iter().map(|(id, _, _)| id.clone()).collect()
    }

    fn flags(&self, data_dir: &Path) -> Vec<String> {
        if !self.durable {
            return Vec::new();
        }
        vec![
            "--data-dir".into(),
            data_dir.display().to_string(),
            "--sync-every".into(),
            SYNC_EVERY.to_string(),
        ]
    }

    /// Spawns a server on a fresh data directory and registers the fleet
    /// over the wire; returns it with the spawn → registered time.
    fn boot(&self, ctx: &Ctx, data_dir: &Path) -> Result<(Server, f64), String> {
        let _ = std::fs::remove_dir_all(data_dir);
        let start = Instant::now();
        let server = Server::spawn(&ctx.server_bin, &self.flags(data_dir))?;
        let mut client =
            NetClient::connect(server.addr).map_err(|e| format!("connect for set-up: {e}"))?;
        for (id, _, scenario) in &self.tenants {
            client
                .register_tenant(id.clone(), scenario.clone())
                .map_err(|e| format!("register {id}: {e}"))?;
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// `kill -9`, then a reboot with the same flags on the same directory;
    /// returns the new server and the kill → answers-`metrics` time. Every
    /// tenant's rounds must survive, so the server must be durable.
    fn crash_and_reboot(
        &self,
        ctx: &Ctx,
        server: Server,
        data_dir: &Path,
        checks: &mut Checks,
    ) -> Result<(Server, f64), String> {
        let before = server.scrape()?.sum_family("netband_tenant_rounds_total");
        let start = Instant::now();
        server.kill();
        let rebooted = Server::spawn(&ctx.server_bin, &self.flags(data_dir))?;
        rebooted.wait_answering(Duration::from_secs(60))?;
        let restart_s = start.elapsed().as_secs_f64();
        let after = rebooted.scrape()?.sum_family("netband_tenant_rounds_total");
        checks.attempted += 1;
        checks.check(after == before, || {
            format!("after kill -9 the reboot serves {after} tenant rounds, not {before}")
        });
        Ok((rebooted, restart_s))
    }
}

/// The server's `total_decides` and `total_feedback_events` must equal what
/// the callers were served and had accepted.
fn check_totals(
    server: &Server,
    decides: u64,
    events: u64,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut client = NetClient::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let metrics = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    checks.attempted += 1;
    checks.check(metrics.total_decides == decides, || {
        format!(
            "server counts {} decides, the callers {decides}",
            metrics.total_decides
        )
    });
    checks.attempted += 1;
    checks.check(metrics.total_feedback_events == events, || {
        format!(
            "server counts {} feedback events, the callers {events}",
            metrics.total_feedback_events
        )
    });
    Ok(())
}

fn phase(length: Duration, trace_epoch: Option<Instant>, capture: usize) -> Phase {
    Phase {
        deadline: Instant::now() + length,
        windows: usize::MAX,
        trace_epoch,
        capture,
    }
}

/// The warm-up: [`WARM_UP_DECIDES`] per caller.
fn warm_up(window: u32) -> Phase {
    Phase {
        windows: WARM_UP_DECIDES / window as usize,
        ..phase(WARM_UP_LIMIT, None, 0)
    }
}

/// The end-to-end run of a wire workload (tracing off).
///
/// `cpu_us_per_decide` is the CPU time the server and the load generator
/// spend per decide served with its feedback; unlike a wall-clock rate it
/// leaves out the time threads wait for a vCPU to wake. `decide_p50_us` is
/// the client-timed latency of one `decide_many`. Each session's figures
/// are scaled by the host's slowdown around it (see `host`) and the medians
/// over sessions reported; set-up times are scaled by the run's slowdown.
/// The server's peak resident set is read after the fixed-count warm-up.
pub fn run_end_to_end(ctx: &Ctx, w: &Served, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut host = HostSpeed::new();
    let data_dir = ctx.scratch.join("data");
    let spare_dir = ctx.scratch.join("data-spare");
    let mut setups = Vec::with_capacity(SETUP_REPEATS + SESSIONS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        // Each set-up replaces the previous server; the last one serves.
        drop(server.take());
        let (booted, setup_s) = w.boot(ctx, &data_dir)?;
        setups.push(setup_s);
        server = Some(booted);
    }
    let server = server.expect("at least one set-up");

    let mut callers = connect_callers(server.addr, &w.ids(), CONNECTIONS, w.window)?;
    let (warm, _) = run_phase(&mut callers, warm_up(w.window));
    let peak_rss = server.peak_rss_mb()?;
    let mut timed = PhaseStats::default();
    let (mut rates, mut costs, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut scaled_costs, mut scaled_p50s) = (Vec::new(), Vec::new());
    for session in 0..SESSIONS {
        let k0 = host.sample();
        let (server_cpu0, self_cpu0) = (server.cpu_s()?, cpu_s(SELF_STAT)?);
        let (mut part, part_s) = run_phase(
            &mut callers,
            phase(Duration::from_secs_f64(seconds / SESSIONS as f64), None, 0),
        );
        let cpu = server.cpu_s()? - server_cpu0 + cpu_s(SELF_STAT)? - self_cpu0;
        let k1 = host.sample();
        part.decide_latencies_ns.sort_unstable();
        rates.push(part.decides as f64 / part_s);
        costs.push(cpu / part.decides as f64 * 1e6);
        p50s.push(quantile(&part.decide_latencies_ns, 0.50) as f64 / 1e3);
        let slow = slowdown((k0 + k1) / 2.0);
        scaled_costs.push(costs[session] / slow);
        scaled_p50s.push(p50s[session] / slow);
        println!(
            "session {session}: {:.0} decides/s, {:.2} CPU us each, p50 {:.1} us over {} decide_many samples",
            rates[session],
            costs[session],
            p50s[session],
            part.decide_latencies_ns.len()
        );
        timed.absorb(part);
        // A spare set-up between sessions, so set-up times sample the whole
        // run and not only its start.
        let (spare, setup_s) = w.boot(ctx, &spare_dir)?;
        setups.push(setup_s);
        spare.kill();
    }
    let _ = std::fs::remove_dir_all(&spare_dir);
    drop(callers);
    check_totals(
        &server,
        warm.decides + timed.decides,
        warm.feedback_events + timed.feedback_events,
        &mut out.checks,
    )?;
    server.kill();
    let _ = std::fs::remove_dir_all(&data_dir);

    out.checks.absorb(warm.checks);
    out.checks.absorb(timed.checks);
    let setup = median(&setups);
    println!("{}", host.describe());
    println!(
        "raw: {:.0} decides/s, {:.3} CPU us per decide, p50 {:.1} us, set-up {setup:.4} s",
        median(&rates),
        median(&costs),
        median(&p50s)
    );
    out.push("cpu_us_per_decide", median(&scaled_costs), "us");
    out.push("decide_p50_us", median(&scaled_p50s), "us");
    out.push("setup_s", setup / slowdown(host.median_s()), "s");
    out.push("peak_rss_mb", peak_rss, "MiB");
    Ok(out)
}

/// Per-layer figures of one traced wire session.
pub struct WireLayers {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Untraced and traced decides per second.
    pub untraced_per_s: f64,
    /// Traced decides per second.
    pub traced_per_s: f64,
}

/// One traced wire session: untraced phases for the process figures,
/// traced phases with spans and captured exchanges, a durable probe with a
/// crash/reboot, and the offline replays of the captured exchanges through
/// the `spec`, `serve` and `store` layers.
pub fn wire_layers(
    ctx: &Ctx,
    w: &Served,
    half: Duration,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<WireLayers, String> {
    let data_dir = ctx.scratch.join("data");
    let (server, _) = w.boot(ctx, &data_dir)?;
    let mut callers = connect_callers(server.addr, &w.ids(), CONNECTIONS, w.window)?;
    let (warm, _) = run_phase(&mut callers, warm_up(w.window));

    // Untraced and traced phases alternate, so drifting outside load falls
    // on both alike; CPU is accounted over the untraced ones, and the
    // exchanges for the replays are captured in the first traced one.
    let scrape0 = server.scrape()?;
    let (mut plain, mut plain_s) = (PhaseStats::default(), 0.0);
    let (mut traced, mut traced_s) = (PhaseStats::default(), 0.0);
    let (mut server_cpu, mut self_cpu) = (0.0, 0.0);
    let slice = half / TRACE_ALTERNATIONS as u32;
    for round in 0..TRACE_ALTERNATIONS {
        let (server_cpu0, self_cpu0) = (server.cpu_s()?, cpu_s(SELF_STAT)?);
        let (part, part_s) = run_phase(&mut callers, phase(slice, None, 0));
        server_cpu += server.cpu_s()? - server_cpu0;
        self_cpu += cpu_s(SELF_STAT)? - self_cpu0;
        plain.absorb(part);
        plain_s += part_s;
        let capture = if round == 0 { CAPTURE_PER_CALLER } else { 0 };
        let (part, part_s) = run_phase(&mut callers, phase(slice, Some(tracer.epoch()), capture));
        traced.absorb(part);
        traced_s += part_s;
    }
    let kdecides = plain.decides as f64 / 1e3;
    let scrape1 = server.scrape()?;
    drop(callers);
    check_totals(
        &server,
        warm.decides + plain.decides + traced.decides,
        warm.feedback_events + plain.feedback_events + traced.feedback_events,
        checks,
    )?;
    server.kill();
    let _ = std::fs::remove_dir_all(&data_dir);
    let durable = durable_probe(ctx, w, half / 4, checks)?;

    let PhaseStats {
        decides: traced_decides,
        frame_bytes,
        checks: traced_checks,
        tracer: traced_spans,
        captured,
        ..
    } = traced;
    checks.absorb(warm.checks);
    checks.absorb(plain.checks);
    checks.absorb(traced_checks);
    if let Some(spans) = traced_spans {
        tracer.absorb(spans);
    }
    checks.check(!captured.is_empty(), || {
        "the traced half captured nothing".into()
    });

    let codec = replay_codec(&captured, tracer, checks)?;
    let engine = replay_engine(w, &captured, tracer, checks)?;
    let store = replay_store(&ctx.scratch, &captured, tracer, checks)?;

    let delta = |key: &str| scrape1.get(key) - scrape0.get(key);
    let stage_us = |stage: &str| {
        let count = delta(&format!(
            "netband_stage_latency_seconds_count{{stage=\"{stage}\"}}"
        ));
        let sum = delta(&format!(
            "netband_stage_latency_seconds_sum{{stage=\"{stage}\"}}"
        ));
        sum / count * 1e6
    };
    let mean_span_us = |name: &str| mean_ns(&tracer.durations(name)) / 1e3;
    let rtt_us = mean_span_us("net.rtt");
    let engine_us = engine.total_ns / captured.len() as f64 / 1e3;
    let residual_us = rtt_us - codec.decode_us - codec.encode_us - engine_us;

    let busy = (server_cpu + self_cpu) / (plain_s * ctx.nproc as f64) * 100.0;
    let metrics = vec![
        ("net.rtt_us", rtt_us, "us"),
        (
            "net.frame_bytes_per_decide",
            frame_bytes as f64 / traced_decides as f64,
            "B",
        ),
        ("net.residual_us", residual_us, "us"),
        (
            "net.decode_errors",
            delta("netband_net_decode_errors_total"),
            "count",
        ),
        (
            "spec.client_encode_us",
            mean_span_us("spec.client_encode"),
            "us",
        ),
        (
            "spec.client_decode_us",
            mean_span_us("spec.client_decode"),
            "us",
        ),
        ("spec.server_decode_us", codec.decode_us, "us"),
        ("spec.server_encode_us", codec.encode_us, "us"),
        ("serve.decide_many_us", engine.decide_us, "us"),
        ("serve.feedback_many_us", engine.feedback_us, "us"),
        ("serve.stage_route_us", stage_us("route"), "us"),
        ("serve.stage_select_us", stage_us("select"), "us"),
        ("serve.stage_pull_us", stage_us("pull"), "us"),
        ("serve.stage_score_us", stage_us("score"), "us"),
        ("serve.stage_reply_us", stage_us("reply"), "us"),
        (
            "serve.overloaded",
            scrape1.get("netband_overload_rejections_total"),
            "count",
        ),
        ("store.append_us", store.append_us, "us"),
        ("store.fsync_p50_us", store.fsync_p50_us, "us"),
        ("store.fsync_p99_us", store.fsync_p99_us, "us"),
        (
            "store.records_per_decide",
            durable.records_per_decide,
            "count",
        ),
        ("store.wal_bytes_per_decide", store.bytes_per_decide, "B"),
        ("store.replay_records_per_s", store.replay_per_s, "1/s"),
        ("store.recovery_s", durable.recovery_s, "s"),
        (
            "loadgen.decides_per_s",
            plain.decides as f64 / plain_s,
            "1/s",
        ),
        (
            "server.cpu_s_per_kdecide",
            server_cpu / kdecides,
            "s/kdecide",
        ),
        (
            "loadgen.cpu_s_per_kdecide",
            self_cpu / kdecides,
            "s/kdecide",
        ),
        ("cpu.busy_pct", busy, "%"),
    ];
    Ok(WireLayers {
        metrics,
        untraced_per_s: plain.decides as f64 / plain_s,
        traced_per_s: traced_decides as f64 / traced_s,
    })
}

struct DurableProbe {
    records_per_decide: f64,
    recovery_s: f64,
}

/// A short session on a durable copy of the fleet (`--data-dir`,
/// `--sync-every 64`), then `kill -9` and a reboot on the same directory:
/// the WAL records logged per decide, from the scrape, and the kill →
/// answering recovery time. Every tenant's rounds must survive the crash.
fn durable_probe(
    ctx: &Ctx,
    w: &Served,
    length: Duration,
    checks: &mut Checks,
) -> Result<DurableProbe, String> {
    let durable = Served {
        window: w.window,
        durable: true,
        tenants: w.tenants.clone(),
    };
    let data_dir = ctx.scratch.join("data-durable");
    let (server, _) = durable.boot(ctx, &data_dir)?;
    let scrape0 = server.scrape()?;
    let mut callers = connect_callers(server.addr, &durable.ids(), CONNECTIONS, w.window)?;
    let (load, _) = run_phase(&mut callers, phase(length, None, 0));
    drop(callers);
    let scrape1 = server.scrape()?;
    check_totals(&server, load.decides, load.feedback_events, checks)?;
    checks.absorb(load.checks);
    let delta = |key: &str| scrape1.get(key) - scrape0.get(key);
    let records_per_decide =
        delta("netband_store_wal_appends_total") / delta("netband_decides_total");
    let (rebooted, recovery_s) = durable.crash_and_reboot(ctx, server, &data_dir, checks)?;
    rebooted.kill();
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(DurableProbe {
        records_per_decide,
        recovery_s,
    })
}

struct CodecReplay {
    decode_us: f64,
    encode_us: f64,
}

/// Replays the captured documents through the server's codec calls:
/// request decode and response encode. The re-encoded response must be
/// byte-identical to the one received.
fn replay_codec(
    captured: &[Captured],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<CodecReplay, String> {
    let (mut decode_ns, mut encode_ns) = (Vec::new(), Vec::new());
    for (i, c) in captured.iter().enumerate() {
        let t0 = Instant::now();
        let request = WireRequest::from_json_text(&c.request);
        let t1 = Instant::now();
        request.map_err(|e| format!("replay decode: {e}"))?;
        let response = WireResponse::from_json_text(&c.response)
            .map_err(|e| format!("replay response: {e}"))?;
        let t2 = Instant::now();
        let text = response.to_json_text();
        let t3 = Instant::now();
        tracer.record("spec.server_decode", t0, t1, 0, i as u64);
        tracer.record("spec.server_encode", t2, t3, 0, i as u64);
        decode_ns.push((t1 - t0).as_nanos() as u64);
        encode_ns.push((t3 - t2).as_nanos() as u64);
        checks.attempted += 1;
        checks.check(text == c.response, || {
            "a response re-encodes to different bytes".into()
        });
    }
    Ok(CodecReplay {
        decode_us: mean_ns(&decode_ns) / 1e3,
        encode_us: mean_ns(&encode_ns) / 1e3,
    })
}

struct EngineReplay {
    decide_us: f64,
    feedback_us: f64,
    total_ns: f64,
}

/// Replays the captured windows on an in-process engine hosting the same
/// fleet on the same shard count, through the public `ServeClient`.
fn replay_engine(
    w: &Served,
    captured: &[Captured],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<EngineReplay, String> {
    let engine = ServeEngine::start(EngineConfig::new(2));
    for (id, _, scenario) in &w.tenants {
        engine
            .register_tenant_spec(&RegisterTenantSpec::new(id.clone(), scenario.clone()))
            .map_err(|e| format!("in-process register {id}: {e}"))?;
    }
    let mut client = engine.client();
    let mut replies = Vec::new();
    let (mut decide_ns, mut feedback_ns) = (Vec::new(), Vec::new());
    for (i, c) in captured.iter().enumerate() {
        let Some(events) = &c.events else { continue };
        let t0 = Instant::now();
        client
            .decide_many(&c.tenant, events.len(), &mut replies)
            .map_err(|e| format!("in-process decide_many: {e}"))?;
        let t1 = Instant::now();
        let mut window = Vec::with_capacity(replies.len());
        for reply in replies.drain(..) {
            let reply = reply.map_err(|e| format!("in-process decide: {e}"))?;
            if let Some(event) = reply.feedback {
                window.push((reply.round, event));
            }
        }
        let sent = window.len();
        let t2 = Instant::now();
        let accepted = client
            .feedback_many(&c.tenant, window)
            .map_err(|e| format!("in-process feedback_many: {e}"))?;
        let t3 = Instant::now();
        checks.attempted += 1;
        checks.check(accepted == sent && sent == events.len(), || {
            format!(
                "in-process window of {}: {accepted} of {sent} accepted",
                events.len()
            )
        });
        tracer.record("serve.decide_many", t0, t1, 0, i as u64);
        tracer.record("serve.feedback_many", t2, t3, 0, i as u64);
        decide_ns.push((t1 - t0).as_nanos() as u64);
        feedback_ns.push((t3 - t2).as_nanos() as u64);
    }
    drop(client);
    engine.shutdown();
    let total: u64 = decide_ns.iter().chain(&feedback_ns).sum();
    Ok(EngineReplay {
        decide_us: mean_ns(&decide_ns) / 1e3,
        feedback_us: mean_ns(&feedback_ns) / 1e3,
        total_ns: total as f64,
    })
}

struct StoreReplay {
    append_us: f64,
    fsync_p50_us: f64,
    fsync_p99_us: f64,
    bytes_per_decide: f64,
    replay_per_s: f64,
}

/// Writes the run's record stream — what a durable shard logs for the
/// captured windows: one `decide` record per window and one `feedback`
/// record per event — into a scratch WAL with an fsync every 64 appends,
/// then reopens it. The reopened log must hold exactly the records written.
fn replay_store(
    scratch: &Path,
    captured: &[Captured],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<StoreReplay, String> {
    let mut stream = Vec::new();
    for c in captured {
        let Some(events) = &c.events else { continue };
        stream.push(WalRecord::Decide {
            tenant: c.tenant.clone(),
            count: events.len() as u64,
        });
        stream.extend(events.iter().map(|e| WalRecord::Feedback {
            tenant: c.tenant.clone(),
            round: e.round,
            event: e.event.clone(),
        }));
    }
    if stream.is_empty() {
        return Err("no captured windows to log".into());
    }
    let dir = scratch.join("wal-replay");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("replay.wal");
    let mut wal = Wal::create(&path).map_err(|e| e.to_string())?;
    let (mut append_ns, mut fsync_ns) = (Vec::new(), Vec::new());
    let mut decides = 0usize;
    for i in 0..STORE_RECORDS {
        let record = &stream[i % stream.len()];
        if let WalRecord::Decide { count, .. } = record {
            decides += *count as usize;
        }
        let t0 = Instant::now();
        wal.append(record).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        tracer.record("store.append", t0, t1, 0, i as u64);
        append_ns.push((t1 - t0).as_nanos() as u64);
        if (i + 1) % SYNC_EVERY == 0 {
            let t2 = Instant::now();
            wal.sync().map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            tracer.record("store.fsync", t2, t3, 0, i as u64);
            fsync_ns.push((t3 - t2).as_nanos() as u64);
        }
    }
    wal.sync().map_err(|e| e.to_string())?;
    let bytes = wal.bytes();
    drop(wal);
    let t0 = Instant::now();
    let (reopened, replay) = Wal::open(&path).map_err(|e| e.to_string())?;
    let replay_s = t0.elapsed().as_secs_f64();
    checks.attempted += 1;
    checks.check(
        replay.records.len() == STORE_RECORDS
            && replay
                .records
                .iter()
                .enumerate()
                .all(|(i, r)| *r == stream[i % stream.len()]),
        || "the reopened WAL differs from the records written".into(),
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    fsync_ns.sort_unstable();
    Ok(StoreReplay {
        append_us: mean_ns(&append_ns) / 1e3,
        fsync_p50_us: quantile(&fsync_ns, 0.50) as f64 / 1e3,
        fsync_p99_us: quantile(&fsync_ns, 0.99) as f64 / 1e3,
        bytes_per_decide: bytes as f64 / decides as f64,
        replay_per_s: STORE_RECORDS as f64 / replay_s,
    })
}
