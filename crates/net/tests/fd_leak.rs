//! The server holds resources for live connections only: a peer that
//! connects and hangs up over and over must not grow the process's open file
//! descriptors, or it would eventually exhaust the fd limit and the server
//! would stop accepting.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use netband_net::{NetClient, NetServer, ServerConfig};
use netband_serve::ServeEngine;

const CYCLES: usize = 200;

/// Growth allowed after all cycles: the last few connections may still be
/// tracked until the next accept notices their handlers have finished.
const SLACK: usize = 16;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn closed_connections_release_their_file_descriptors() {
    let engine = Arc::new(ServeEngine::with_shards(1));
    let server =
        NetServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let addr = server.local_addr();
    // One answered request per connection proves the server accepted it
    // before the client hangs up.
    let cycle = || {
        let mut client = NetClient::connect(addr).expect("connect");
        client.metrics().expect("metrics");
    };
    cycle();
    let before = open_fds();
    for _ in 0..CYCLES {
        cycle();
    }
    // Handlers see their hang-ups asynchronously; give them a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = open_fds();
    while after > before + SLACK && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= before + SLACK,
        "{CYCLES} connect/close cycles grew the open fds from {before} to {after}"
    );
    server.shutdown();
}
