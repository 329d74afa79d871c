//! The TCP server: accept loop, per-connection handler threads, admission
//! control.
//!
//! One connection = one OS thread running a strict request/response loop (no
//! pipelining: the `n`-th response answers the `n`-th request). The handler
//! owns a [`ServeClient`], so every [`WireRequest::DecideMany`] frame is
//! **one** batched `decide_many` on the engine — the zero-allocation
//! steady-state path — never `count` per-call round trips.
//!
//! ## Overload semantics
//!
//! The handler uses the client's *non-blocking* admission paths
//! (`try_decide_many` / `try_feedback_many`). When the tenant's shard has
//! already admitted its queue capacity of calls the engine returns
//! [`ServeError::Overloaded`] without applying anything, and the connection
//! answers with an [`WireErrorCode::Overloaded`] error frame instead of
//! waiting for the shard lock. A slow engine therefore degrades into
//! explicit, bounded rejections the remote client can retry — not into an
//! unbounded pile of blocked connections. Because each connection handles one frame at a time,
//! per-connection inflight is structurally bounded at one request.

use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
// Relaxed counter bumps only — ordering is irrelevant for monotonic stats.
use std::sync::atomic::Ordering::Relaxed;
use std::thread;
use std::time::Duration;

use netband_serve::api::RegisterTenantSpec;
use netband_serve::api::{DecideReply, ServeError};
use netband_serve::{ServeClient, ServeEngine};
use netband_spec::wire::{WireErrorCode, WireRequest, WireResponse};

use crate::frame::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
use crate::obs::NetStats;
use crate::proto::{error_to_wire, metrics_to_wire, telemetry_to_wire};

/// Server knobs. The defaults are deliberate: frames are capped well below
/// anything that could exhaust memory, batches well below anything that could
/// monopolise a shard.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum frame payload size in bytes (default [`MAX_FRAME_BYTES`]).
    /// Oversized frames draw a `too_large` error and close the connection
    /// (the stream is out of sync once a frame is refused unread).
    pub max_frame_bytes: usize,
    /// Maximum `count` of a decide batch and maximum events per feedback
    /// window (default 4096). Larger requests draw a `too_large` error but
    /// keep the connection open — the frame itself was well-formed.
    pub max_batch: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame_bytes: MAX_FRAME_BYTES,
            max_batch: 4096,
        }
    }
}

/// A running TCP front end over a shared [`ServeEngine`].
///
/// Dropping the server (or calling [`NetServer::shutdown`]) stops the accept
/// loop and closes live connections; the engine itself is left running —
/// it belongs to whoever holds the other `Arc` clones.
pub struct NetServer {
    engine: Arc<ServeEngine>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The accept thread; it hands back its live connections when it stops.
    accept_handle: Option<thread::JoinHandle<Vec<Connection>>>,
    stats: Arc<NetStats>,
}

/// A live connection as the accept loop tracks it: a clone of the stream so
/// shutdown can unblock the handler's read, and the handler so shutdown can
/// join it.
struct Connection {
    stream: TcpStream,
    handler: thread::JoinHandle<()>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections against `engine`.
    pub fn bind(
        engine: Arc<ServeEngine>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept polled on a coarse tick: shutdown needs to stop
        // the loop without a self-connect trick, and accept latency in the
        // tens of milliseconds is irrelevant next to connection lifetimes.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NetStats::new());
        let accept_handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            thread::Builder::new()
                .name("netband-net-accept".into())
                .spawn(move || accept_loop(listener, engine, config, stop, stats))?
        };
        Ok(NetServer {
            engine,
            local_addr,
            stop,
            accept_handle: Some(accept_handle),
            stats,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// The server's transport counters (shared with the scrape endpoint).
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Stops accepting, closes live connections, joins all handler threads.
    /// The engine keeps running.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop sees `stop` within one tick, so once it is joined
        // no connection can be added behind the kicks below.
        let connections = match self.accept_handle.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => return,
        };
        for connection in &connections {
            let _ = connection.stream.shutdown(Shutdown::Both);
        }
        for connection in connections {
            let _ = connection.handler.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(
    listener: TcpListener,
    engine: Arc<ServeEngine>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<NetStats>,
) -> Vec<Connection> {
    let mut connections: Vec<Connection> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                stats.connections_accepted.fetch_add(1, Relaxed);
                // Connections that have closed since the last accept give
                // back their stream clone and thread here, so the server
                // holds resources for live connections only.
                let (finished, live) = std::mem::take(&mut connections)
                    .into_iter()
                    .partition(|c| c.handler.is_finished());
                connections = live;
                for connection in finished {
                    let _ = connection.handler.join();
                }
                // Without a clone shutdown could not kick the handler, and
                // without a thread nothing would serve it: either failure
                // (fd or thread exhaustion) closes this connection, and the
                // loop carries on.
                let Ok(kick) = stream.try_clone() else {
                    continue;
                };
                let engine = Arc::clone(&engine);
                let config = config.clone();
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                let spawned = thread::Builder::new()
                    .name("netband-net-conn".into())
                    .spawn(move || connection_loop(stream, &engine, &config, &stop, &stats));
                match spawned {
                    Ok(handler) => connections.push(Connection {
                        stream: kick,
                        handler,
                    }),
                    Err(_) => {
                        let _ = kick.shutdown(Shutdown::Both);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    connections
}

fn connection_loop(
    stream: TcpStream,
    engine: &ServeEngine,
    config: &ServerConfig,
    stop: &AtomicBool,
    stats: &NetStats,
) {
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    stats.connections_active.fetch_add(1, Relaxed);
    // Decrement on every exit path, including panics in the handler.
    let _active = DecrementOnDrop(&stats.connections_active);
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    let mut client = engine.client();
    let mut scratch: Vec<Result<DecideReply, ServeError>> = Vec::new();
    // Every response is encoded into this one buffer, reused frame to frame.
    let mut out = String::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let text = match read_frame(&mut reader, config.max_frame_bytes) {
            Ok(Some(text)) => text,
            Ok(None) => return, // peer closed cleanly
            Err(FrameError::TooLarge { len, max }) => {
                // The refused payload is still in the pipe — the stream is
                // unrecoverable. Explain, then close.
                out.clear();
                let message = format!("frame of {len} bytes exceeds the {max}-byte cap");
                error(&mut out, WireErrorCode::TooLarge, message);
                let _ = write_frame(&mut writer, &out);
                return;
            }
            Err(_) => return, // reset, truncated frame, or shutdown kick
        };
        stats.frames_in.fetch_add(1, Relaxed);
        stats.bytes_in.fetch_add(text.len() as u64, Relaxed);
        out.clear();
        match handle_request(engine, &mut client, &mut scratch, config, &text, &mut out) {
            Some(WireErrorCode::Protocol) => {
                stats.decode_errors.fetch_add(1, Relaxed);
            }
            Some(WireErrorCode::Overloaded) => {
                stats.overload_rejections.fetch_add(1, Relaxed);
            }
            _ => {}
        }
        if write_frame(&mut writer, &out).is_err() {
            return;
        }
        stats.frames_out.fetch_add(1, Relaxed);
        stats.bytes_out.fetch_add(out.len() as u64, Relaxed);
    }
}

/// Decrements the wrapped gauge when dropped (connection-active tracking).
struct DecrementOnDrop<'a>(&'a std::sync::atomic::AtomicU64);

impl Drop for DecrementOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Relaxed);
    }
}

/// Appends an error response document to `out` and returns its code.
fn error(out: &mut String, code: WireErrorCode, message: String) -> Option<WireErrorCode> {
    WireResponse::Error { code, message }.write_json(out);
    Some(code)
}

/// Appends the error response document for an engine error.
fn serve_error(out: &mut String, e: &ServeError) -> Option<WireErrorCode> {
    let (code, message) = error_to_wire(e);
    error(out, code, message)
}

/// Serves one request document, appending its response document to `out`.
/// Infallible by construction: every failure mode becomes an error
/// response, whose code is returned.
///
/// A `decisions` response is written straight from the engine's replies in
/// `scratch`, so no reply or feedback payload is copied on the way out.
fn handle_request(
    engine: &ServeEngine,
    client: &mut ServeClient<'_>,
    scratch: &mut Vec<Result<DecideReply, ServeError>>,
    config: &ServerConfig,
    text: &str,
    out: &mut String,
) -> Option<WireErrorCode> {
    let request = match WireRequest::from_json_text(text) {
        Ok(request) => request,
        Err(e) => {
            let message = format!("invalid request document: {e}");
            return error(out, WireErrorCode::Protocol, message);
        }
    };
    let response = match request {
        WireRequest::DecideMany { tenant, count } => {
            if count == 0 {
                let message = "decide_many count must be at least 1".into();
                return error(out, WireErrorCode::Invalid, message);
            }
            if count > config.max_batch {
                let message = format!(
                    "decide_many count {count} exceeds the server's max_batch {}",
                    config.max_batch
                );
                return error(out, WireErrorCode::TooLarge, message);
            }
            if let Err(e) = client.try_decide_many(&tenant, count as usize, scratch) {
                return serve_error(out, &e);
            }
            if let Some(e) = scratch.iter().find_map(|entry| entry.as_ref().err()) {
                return serve_error(out, e);
            }
            WireResponse::write_decisions(out, &tenant, scratch.iter().flatten());
            return None;
        }
        WireRequest::FeedbackMany { tenant, events } => {
            if events.len() as u64 > u64::from(config.max_batch) {
                let message = format!(
                    "feedback window of {} events exceeds the server's max_batch {}",
                    events.len(),
                    config.max_batch
                );
                return error(out, WireErrorCode::TooLarge, message);
            }
            let window = events.into_iter().map(|f| (f.round, f.event));
            match client.try_feedback_many(&tenant, window) {
                Ok(count) => WireResponse::Accepted {
                    count: count as u64,
                },
                Err(e) => return serve_error(out, &e),
            }
        }
        WireRequest::RegisterTenant { id, scenario } => {
            match engine.register_tenant_spec(&RegisterTenantSpec::new(id, *scenario)) {
                Ok(()) => WireResponse::Ok,
                Err(e) => return serve_error(out, &e),
            }
        }
        WireRequest::Metrics => match engine.metrics() {
            Ok(report) => WireResponse::Metrics(metrics_to_wire(&report)),
            Err(e) => return serve_error(out, &e),
        },
        WireRequest::Telemetry { tenant } => match engine.telemetry(&tenant) {
            Ok(telemetry) => WireResponse::Telemetry(Box::new(telemetry_to_wire(&telemetry))),
            Err(e) => return serve_error(out, &e),
        },
    };
    response.write_json(out);
    None
}
