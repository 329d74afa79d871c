//! Closed-loop callers over the framed wire protocol.
//!
//! The protocol has no pipelining, so each connection is one caller that
//! waits for its reply: `decide_many(count = window)`, then the echoed events
//! routed back in one `feedback_many`. Callers own disjoint tenant slices, so
//! every tenant's rounds must come back consecutive.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use netband_net::{read_frame, write_frame, MAX_FRAME_BYTES};
use netband_spec::wire::{WireErrorCode, WireRequest, WireResponse};
use netband_spec::WireFeedback;

use crate::report::Checks;
use crate::trace::Tracer;

/// Backoff before retrying a request the server refused as overloaded.
const OVERLOAD_BACKOFF: Duration = Duration::from_micros(200);

/// One request/response exchange kept for the offline replays.
#[derive(Debug, Clone)]
pub struct Captured {
    /// Tenant the request addressed.
    pub tenant: String,
    /// The request document as sent.
    pub request: String,
    /// The response document as received.
    pub response: String,
    /// For a `decide_many`: the events its replies echoed.
    pub events: Option<Vec<WireFeedback>>,
}

/// What one caller did during one phase.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Decisions served.
    pub decides: u64,
    /// Feedback events accepted.
    pub feedback_events: u64,
    /// Client-timed `decide_many` latencies, ns (encode → decoded reply).
    pub decide_latencies_ns: Vec<u64>,
    /// Frame bytes sent and received, length prefixes included.
    pub frame_bytes: u64,
    /// Requests attempted and failures (error frames, refusals, checks).
    pub checks: Checks,
    /// Spans, in traced phases.
    pub tracer: Option<Tracer>,
    /// Exchanges kept for replay, in traced phases.
    pub captured: Vec<Captured>,
}

impl PhaseStats {
    /// Folds another caller's stats into these.
    pub fn absorb(&mut self, other: PhaseStats) {
        self.decides += other.decides;
        self.feedback_events += other.feedback_events;
        self.decide_latencies_ns.extend(other.decide_latencies_ns);
        self.frame_bytes += other.frame_bytes;
        self.checks.absorb(other.checks);
        match (&mut self.tracer, other.tracer) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
        self.captured.extend(other.captured);
    }
}

/// How a phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// When the callers stop issuing new windows.
    pub deadline: Instant,
    /// Windows each caller runs at most.
    pub windows: usize,
    /// Record spans against this epoch.
    pub trace_epoch: Option<Instant>,
    /// Exchanges each caller keeps for replay.
    pub capture: usize,
}

/// One connection and the tenants it owns.
pub struct Caller {
    index: u64,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    tenants: Vec<String>,
    next_round: Vec<u64>,
    cursor: usize,
    window: u32,
    requests: u64,
}

/// The outcome of one exchange.
struct Exchange {
    response: WireResponse,
    latency_ns: u64,
}

impl Caller {
    /// Connects caller `index`, owning `tenants` (all at round 1).
    pub fn connect(
        index: u64,
        addr: SocketAddr,
        tenants: Vec<String>,
        window: u32,
    ) -> Result<Caller, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let next_round = vec![1; tenants.len()];
        Ok(Caller {
            index,
            reader,
            writer: BufWriter::new(stream),
            tenants,
            next_round,
            cursor: 0,
            window,
            requests: 0,
        })
    }

    /// Sends one request and reads its response. Untraced, only the whole
    /// exchange is timed; traced, each step gets a span under one root.
    fn exchange(
        &mut self,
        request: &WireRequest,
        stats: &mut PhaseStats,
        keep: bool,
    ) -> Result<(Exchange, Option<(String, String)>), String> {
        self.requests += 1;
        let id = (self.index << 40) | self.requests;
        stats.checks.attempted += 1;
        let t0 = Instant::now();
        let text = request.to_json_text();
        let t1 = stats.tracer.is_some().then(Instant::now);
        write_frame(&mut self.writer, &text).map_err(|e| format!("write frame: {e}"))?;
        let reply = read_frame(&mut self.reader, MAX_FRAME_BYTES)
            .map_err(|e| format!("read frame: {e}"))?
            .ok_or("server closed the connection")?;
        let t2 = stats.tracer.is_some().then(Instant::now);
        let response =
            WireResponse::from_json_text(&reply).map_err(|e| format!("decode response: {e}"))?;
        let t3 = Instant::now();
        stats.frame_bytes += (text.len() + reply.len() + 8) as u64;
        let mut kept = None;
        if let (Some(tracer), Some(t1), Some(t2)) = (&mut stats.tracer, t1, t2) {
            let root = tracer.record("wire.request", t0, t3, 0, id);
            tracer.record("spec.client_encode", t0, t1, root, id);
            tracer.record("net.rtt", t1, t2, root, id);
            tracer.record("spec.client_decode", t2, t3, root, id);
            if keep {
                kept = Some((text, reply));
            }
        }
        Ok((
            Exchange {
                response,
                latency_ns: (t3 - t0).as_nanos() as u64,
            },
            kept,
        ))
    }

    /// Runs decide/feedback windows until the phase deadline or its window
    /// count.
    pub fn run(&mut self, phase: Phase) -> PhaseStats {
        let mut stats = PhaseStats {
            tracer: phase.trace_epoch.map(Tracer::new),
            ..PhaseStats::default()
        };
        for _ in 0..phase.windows {
            if Instant::now() >= phase.deadline {
                break;
            }
            if let Err(message) = self.window(&mut stats, phase.capture) {
                // A transport failure ends this caller's phase.
                stats.checks.fail(message);
                break;
            }
        }
        stats
    }

    /// Sends a request, retrying overload refusals (each one counted).
    fn send(
        &mut self,
        request: &WireRequest,
        stats: &mut PhaseStats,
        keep: bool,
    ) -> Result<(Exchange, Option<(String, String)>), String> {
        loop {
            let (exchange, kept) = self.exchange(request, stats, keep)?;
            match &exchange.response {
                WireResponse::Error {
                    code: WireErrorCode::Overloaded,
                    ..
                } => {
                    stats.checks.fail("overload refusal".into());
                    std::thread::sleep(OVERLOAD_BACKOFF);
                }
                _ => return Ok((exchange, kept)),
            }
        }
    }

    /// One decide window for the next owned tenant and its feedback.
    fn window(&mut self, stats: &mut PhaseStats, capture: usize) -> Result<(), String> {
        let slot = self.cursor % self.tenants.len();
        self.cursor += 1;
        let tenant = self.tenants[slot].clone();
        let keep = stats.captured.len() + 2 <= capture;
        let decide = WireRequest::DecideMany {
            tenant: tenant.clone(),
            count: self.window,
        };
        let (exchange, kept) = self.send(&decide, stats, keep)?;
        let replies = match exchange.response {
            WireResponse::Decisions {
                tenant: echoed,
                replies,
            } => {
                stats.checks.check(echoed == tenant, || {
                    format!("decide for {tenant} echoed {echoed}")
                });
                replies
            }
            other => {
                stats.checks.fail(format!(
                    "decide_many({tenant}) answered {}",
                    other.to_json_text()
                ));
                return Ok(());
            }
        };
        stats.decide_latencies_ns.push(exchange.latency_ns);
        stats
            .checks
            .check(replies.len() == self.window as usize, || {
                format!(
                    "decide_many({tenant}) served {} of {}",
                    replies.len(),
                    self.window
                )
            });
        stats.decides += replies.len() as u64;
        let mut events = Vec::with_capacity(replies.len());
        for reply in replies {
            let expected = self.next_round[slot];
            stats.checks.check(reply.round == expected, || {
                format!("{tenant}: round {} where {expected} was next", reply.round)
            });
            self.next_round[slot] = reply.round + 1;
            match reply.feedback {
                Some(event) => events.push(WireFeedback {
                    round: reply.round,
                    event,
                }),
                None => stats.checks.fail(format!(
                    "{tenant}: round {} echoed no feedback",
                    reply.round
                )),
            }
        }
        if let Some((request, response)) = kept {
            stats.captured.push(Captured {
                tenant: tenant.clone(),
                request,
                response,
                events: Some(events.clone()),
            });
        }
        if events.is_empty() {
            return Ok(());
        }
        let sent = events.len() as u64;
        let feedback = WireRequest::FeedbackMany {
            tenant: tenant.clone(),
            events,
        };
        let (exchange, kept) = self.send(&feedback, stats, keep)?;
        match exchange.response {
            WireResponse::Accepted { count } => {
                stats.checks.check(count == sent, || {
                    format!("feedback_many({tenant}) accepted {count} of {sent}")
                });
                stats.feedback_events += count;
            }
            other => stats.checks.fail(format!(
                "feedback_many({tenant}) answered {}",
                other.to_json_text()
            )),
        }
        if let Some((request, response)) = kept {
            stats.captured.push(Captured {
                tenant,
                request,
                response,
                events: None,
            });
        }
        Ok(())
    }
}

/// Connects `connections` callers with disjoint round-robin tenant slices.
pub fn connect_callers(
    addr: SocketAddr,
    tenants: &[String],
    connections: usize,
    window: u32,
) -> Result<Vec<Caller>, String> {
    (0..connections)
        .map(|c| {
            let owned = tenants
                .iter()
                .enumerate()
                .filter(|(t, _)| t % connections == c)
                .map(|(_, id)| id.clone())
                .collect();
            Caller::connect(c as u64, addr, owned, window)
        })
        .collect()
}

/// Runs every caller on its own thread until `phase.deadline`; returns the
/// merged stats and the wall time from start to the last caller's finish.
pub fn run_phase(callers: &mut [Caller], phase: Phase) -> (PhaseStats, f64) {
    let start = Instant::now();
    let parts: Vec<PhaseStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| scope.spawn(move || caller.run(phase)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut merged = PhaseStats::default();
    for part in parts {
        merged.absorb(part);
    }
    (merged, elapsed)
}
