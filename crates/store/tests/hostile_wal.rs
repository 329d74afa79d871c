//! Hostile input for the WAL frame scanner: whatever bytes sit in a log file,
//! [`Wal::open`] returns `Ok` or `Err` — it never panics, and it allocates
//! nothing beyond the file it read (a length field is checked against the
//! frame cap and the bytes actually present before any payload is touched).
//!
//! Inputs come from a seeded generator, so every run feeds the same cases:
//! files of arbitrary bytes, and real logs built from the committed golden
//! WAL corpus (`tests/fixtures/wire_corpus/wal.jsonl`) that are then
//! truncated, bit-flipped, overwritten, or spliced.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use netband_spec::WalRecord;
use netband_store::{Wal, FRAME_OVERHEAD};

/// Cases per property.
const CASES: u64 = 256;

/// SplitMix64: a tiny deterministic generator for the cases.
struct Cases(u64);

impl Cases {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// A per-case log path in the system temp directory, removed on drop.
struct LogFile(PathBuf);

impl LogFile {
    fn with(bytes: &[u8]) -> LogFile {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "netband_hostile_wal_{}_{}.log",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).expect("write case log");
        LogFile(path)
    }
}

impl Drop for LogFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Opens `bytes` as a log. Must not panic; a successful open accounts for
/// every byte of the file as either replayed frames or a truncated tail.
fn open(bytes: &[u8]) -> Option<Vec<WalRecord>> {
    let file = LogFile::with(bytes);
    let (wal, replay) = Wal::open(&file.0).ok()?;
    assert_eq!(wal.bytes() + replay.truncated_bytes, bytes.len() as u64);
    Some(replay.records)
}

/// The committed golden WAL corpus, one record per line.
fn corpus() -> Vec<WalRecord> {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/wire_corpus/wal.jsonl");
    std::fs::read_to_string(&path)
        .expect("read the committed WAL corpus")
        .lines()
        .map(|line| WalRecord::from_json_text(line).expect("corpus line decodes"))
        .collect()
}

/// The bytes of a log holding `records`, written through [`Wal::append`].
fn log_bytes(records: &[WalRecord]) -> Vec<u8> {
    let file = LogFile::with(b"");
    std::fs::remove_file(&file.0).expect("clear the case path");
    let mut wal = Wal::create(&file.0).expect("create case log");
    for record in records {
        wal.append(record).expect("append corpus record");
    }
    drop(wal);
    std::fs::read(&file.0).expect("read case log")
}

#[test]
fn arbitrary_bytes_never_panic_the_wal_scanner() {
    let mut cases = Cases(0x5eed_0001);
    for _ in 0..CASES {
        let len = cases.below(160);
        let mut bytes = cases.bytes(len);
        // Half the cases start with a small length prefix, so the scanner
        // gets past the cap check into the checksum and decode paths.
        if len >= 4 && cases.below(2) == 0 {
            let claimed = cases.below(len) as u32;
            bytes[..4].copy_from_slice(&claimed.to_be_bytes());
        }
        open(&bytes);
    }
    // Length fields at and past the cap, with nothing behind them.
    for claimed in [u32::MAX, u32::MAX - 7, 1 << 28, (1 << 28) + 1] {
        open(&claimed.to_be_bytes());
    }
}

#[test]
fn mutated_golden_logs_never_panic_the_wal_scanner() {
    let records = corpus();
    let mut cases = Cases(0x5eed_0002);
    for _ in 0..CASES {
        let start = cases.below(records.len());
        let window = &records[start..(start + 1 + cases.below(12)).min(records.len())];
        let mut bytes = log_bytes(window);
        match cases.below(4) {
            0 => {
                let at = cases.below(bytes.len());
                bytes[at] ^= 1 << cases.below(8);
            }
            1 => {
                let at = cases.below(bytes.len());
                let n = (1 + cases.below(8)).min(bytes.len() - at);
                let noise = cases.bytes(n);
                bytes[at..at + n].copy_from_slice(&noise);
            }
            2 => {
                let at = cases.below(bytes.len() + 1);
                let n = 1 + cases.below(16);
                let noise = cases.bytes(n);
                bytes.splice(at..at, noise);
            }
            _ => {
                let at = cases.below(bytes.len());
                let cut = (1 + cases.below(64)).min(bytes.len() - at);
                bytes.drain(at..at + cut);
            }
        }
        open(&bytes);
    }
}

/// A log cut short anywhere is a torn tail: it opens, and replays exactly
/// the records whose frames survived whole.
#[test]
fn truncated_golden_logs_replay_their_whole_frames() {
    let records = corpus();
    let mut cases = Cases(0x5eed_0003);
    for _ in 0..CASES {
        let start = cases.below(records.len());
        let window = &records[start..(start + 1 + cases.below(8)).min(records.len())];
        let bytes = log_bytes(window);
        let keep = cases.below(bytes.len() + 1);
        let replayed = open(&bytes[..keep]).expect("a torn tail is not corruption");
        let mut whole = 0;
        let mut end = 0u64;
        for record in window {
            end += record.to_json_text().len() as u64 + FRAME_OVERHEAD;
            if end > keep as u64 {
                break;
            }
            whole += 1;
        }
        assert_eq!(replayed, window[..whole], "cut at byte {keep}");
    }
}
