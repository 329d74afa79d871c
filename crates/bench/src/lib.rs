//! Shared helpers for the Criterion benchmarks.
//!
//! Each bench regenerates one of the paper's figures at a reduced scale (so a
//! full `cargo bench` stays in the minutes range) and reports the wall-clock
//! cost of the corresponding simulation; the figure-quality runs are produced by
//! the `netband-experiments` binaries instead.
//!
//! The harnesses that write a `BENCH_*.json` file share
//! [`machine_fingerprint_json`], so every file names the machine its numbers
//! came from.

use std::path::PathBuf;

use netband_experiments::Scale;

/// The scale used by the figure benches: large enough for the regret trends to
/// be visible, small enough for Criterion's repeated sampling.
pub fn bench_scale() -> Scale {
    Scale {
        horizon: 300,
        replications: 1,
    }
}

/// The workspace root, where the `BENCH_*.json` files live.
pub fn workspace_root() -> PathBuf {
    // crates/bench → workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// First line of `program args` run from the workspace root, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(workspace_root())
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

/// The machine a bench ran on, as JSON object members at two-space indent,
/// each ending in `,\n`: `available_parallelism`, `cpu_model`, `rustc` and
/// `git_rev`. Absolute numbers are only comparable between runs whose
/// fingerprints match.
pub fn machine_fingerprint_json() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "  \"available_parallelism\": {cores},\n  \"cpu_model\": {:?},\n  \
         \"rustc\": {:?},\n  \"git_rev\": {:?},\n",
        cpu_model(),
        command_line("rustc", &["-V"]),
        command_line("git", &["describe", "--always", "--dirty"]),
    )
}
