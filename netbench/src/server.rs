//! The server under test: the real `netband_server` binary, run as a child
//! process, plus the `/proc` and scrape read-outs taken from it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netband_net::NetClient;

/// How long a booting server may take to print its addresses.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Linux reports `/proc/<pid>/stat` CPU times in clock ticks of `USER_HZ`,
/// which is 100 on every mainstream kernel configuration.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Builds `netband_server` from the checkout with cargo and returns the
/// binary's path. Honours `CARGO_TARGET_DIR` (relative to the checkout).
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "netband-net",
            "--bin",
            "netband_server",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of netband_server failed: {status}"));
    }
    let binary = target_dir(root).join("release").join("netband_server");
    if !binary.is_file() {
        return Err(format!("built server not found at {}", binary.display()));
    }
    Ok(binary)
}

/// The cargo target directory for builds run from `root`.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// A running `netband_server` child with its wire and scrape addresses.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// Wire-protocol address.
    pub addr: SocketAddr,
    /// HTTP scrape address.
    pub obs: SocketAddr,
}

impl Server {
    /// Boots the binary on ephemeral loopback ports with 2 shards plus
    /// `extra` flags, and waits for both of its address lines.
    pub fn spawn(binary: &Path, extra: &[String]) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--obs-addr",
                "127.0.0.1:0",
                "--shards",
                "2",
            ])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel::<String>();
        // Keep draining stdout for the child's lifetime so it never blocks
        // on a full pipe; the thread ends when the child dies.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            obs: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + BOOT_TIMEOUT;
        let (mut addr, mut obs) = (None, None);
        while addr.is_none() || obs.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| "server exited or timed out before printing its addresses")?;
            let parse = |rest: &str| rest.trim().parse::<SocketAddr>().map_err(|e| e.to_string());
            if let Some(rest) = line.strip_prefix("listening on ") {
                addr = Some(parse(rest)?);
            } else if let Some(rest) = line.strip_prefix("observability on ") {
                obs = Some(parse(rest)?);
            }
        }
        server.addr = addr.expect("set above");
        server.obs = obs.expect("set above");
        Ok(server)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends SIGKILL and waits for the process (and its stdout drain) to end.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// User plus system CPU seconds consumed so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        cpu_s(&format!("/proc/{}/stat", self.pid()))
    }

    /// One scrape of the Prometheus-style exposition.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let mut stream =
            TcpStream::connect(self.obs).map_err(|e| format!("connect scrape: {e}"))?;
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
            .map_err(|e| format!("scrape request: {e}"))?;
        let mut text = String::new();
        stream
            .read_to_string(&mut text)
            .map_err(|e| format!("scrape read: {e}"))?;
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, body)| body)
            .ok_or("scrape reply has no body")?;
        Ok(Scrape::parse(body))
    }

    /// Opens a client connection, retrying until the server accepts and
    /// answers a `metrics` request; returns when it did.
    pub fn wait_answering(&self, timeout: Duration) -> Result<NetClient, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match NetClient::connect(self.addr).map(|mut c| c.metrics().map(|_| c)) {
                Ok(Ok(client)) => return Ok(client),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                Ok(Err(e)) => return Err(format!("metrics after boot: {e}")),
                Err(e) => return Err(format!("connect after boot: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kb / 1024.0)
}

/// User plus system CPU seconds of a `/proc/<pid>/stat` file.
pub fn cpu_s(stat_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(stat_path).map_err(|e| format!("read {stat_path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed stat field {i}"))
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S)
}

/// The samples of one scrape, by metric name with labels, e.g.
/// `netband_stage_latency_seconds_sum{stage="route"}`.
#[derive(Debug, Default)]
pub struct Scrape {
    samples: Vec<(String, f64)>,
}

impl Scrape {
    fn parse(body: &str) -> Scrape {
        let samples = body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_owned(), value.parse().ok()?))
            })
            .collect();
        Scrape { samples }
    }

    /// The value of an exact series key, 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.samples
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Sum over every series of a metric family (all label sets).
    pub fn sum_family(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(k, _)| k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
            .map(|(_, v)| v)
            .sum()
    }
}
