//! A fixed-capacity ring of structured serving events.
//!
//! Each shard owns one [`TraceRing`] (same ownership discipline as the
//! serving metrics: it lives behind the shard's lock, is written by whichever
//! thread runs a command on the shard, and is drained under that lock).
//! Recording is `Copy`-only — the tenant id is truncated into an inline
//! [`TagStr`], so the hot path never allocates — and the ring overwrites its
//! oldest events when full, counting what it dropped. Sequence numbers are
//! monotonic per ring, so a drained history shows both the order of events
//! and any gaps.

use std::fmt;

/// Maximum bytes of a [`TagStr`] (longer tags are truncated on a UTF-8
/// boundary).
pub const TAG_BYTES: usize = 32;

/// A fixed-capacity, inline, `Copy` string used for tenant ids in trace
/// events. Truncation keeps the longest UTF-8-valid prefix that fits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TagStr {
    bytes: [u8; TAG_BYTES],
    len: u8,
}

impl TagStr {
    /// An empty tag.
    pub const fn empty() -> Self {
        TagStr {
            bytes: [0; TAG_BYTES],
            len: 0,
        }
    }

    /// Builds a tag from `s`, truncating to the longest UTF-8-valid prefix
    /// that fits in [`TAG_BYTES`] bytes. Never allocates.
    pub fn truncate_from(s: &str) -> Self {
        let mut end = s.len().min(TAG_BYTES);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0; TAG_BYTES];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        TagStr {
            bytes,
            len: end as u8,
        }
    }

    /// The tag's text.
    pub fn as_str(&self) -> &str {
        // The constructor only ever copies a prefix ending on a char
        // boundary, so this cannot fail.
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("")
    }
}

impl fmt::Debug for TagStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for TagStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happened. Payload-carrying variants stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A tenant was created from a spec.
    TenantRegistered,
    /// A tenant was restored from a snapshot.
    TenantRestored,
    /// A snapshot of a live tenant was taken (tenant keeps running).
    SnapshotTaken,
    /// A tenant was evicted (final snapshot taken, tenant removed).
    TenantEvicted,
    /// A pending-feedback flush applied `events` events to the policy.
    FlushApplied {
        /// Events applied by this flush.
        events: u64,
    },
    /// A feedback event was rejected (unknown tenant or invalid round).
    FeedbackRejected,
    /// A command was rejected at the engine because the shard's queue was
    /// full.
    ShardOverloaded {
        /// Index of the overloaded shard.
        shard: u32,
    },
    /// A mutation was appended to the shard's write-ahead log (durable
    /// engines only).
    WalAppended {
        /// WAL size in bytes after the append.
        bytes: u64,
    },
    /// The shard's WAL was compacted into a fresh epoch snapshot.
    SnapshotCompacted {
        /// Tenants captured by the snapshot (resident plus disk tier).
        tenants: u32,
    },
    /// An evicted tenant was read back from the disk tier into RAM.
    TenantRehydrated,
}

impl TraceKind {
    /// Stable, lowercase event name (used in docs, tests, and rendering).
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::TenantRegistered => "tenant_registered",
            TraceKind::TenantRestored => "tenant_restored",
            TraceKind::SnapshotTaken => "snapshot_taken",
            TraceKind::TenantEvicted => "tenant_evicted",
            TraceKind::FlushApplied { .. } => "flush_applied",
            TraceKind::FeedbackRejected => "feedback_rejected",
            TraceKind::ShardOverloaded { .. } => "shard_overloaded",
            TraceKind::WalAppended { .. } => "wal_appended",
            TraceKind::SnapshotCompacted { .. } => "snapshot_compacted",
            TraceKind::TenantRehydrated => "tenant_rehydrated",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic per-ring sequence number, starting at 0.
    pub seq: u64,
    /// What happened.
    pub kind: TraceKind,
    /// The tenant involved (empty for events without one).
    pub tenant: TagStr,
}

/// A fixed-capacity ring of [`TraceEvent`]s. When full, recording overwrites
/// the oldest event and bumps [`TraceRing::dropped`].
#[derive(Debug, Clone)]
pub struct TraceRing {
    slots: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest live event.
    head: usize,
    len: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (clamped to at least 1). The
    /// backing store is allocated (and filled with placeholder slots) up
    /// front; recording never allocates.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let placeholder = TraceEvent {
            seq: 0,
            kind: TraceKind::TenantRegistered,
            tenant: TagStr::empty(),
        };
        TraceRing {
            slots: vec![placeholder; capacity],
            capacity,
            head: 0,
            len: 0,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Capacity the ring was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live (undrained, unoverwritten) events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no live events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events overwritten before ever being drained.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (equals the next sequence number).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Records one event. Constant-time, allocation-free (the backing store
    /// was sized at construction); overwrites the oldest event when full.
    pub fn record(&mut self, kind: TraceKind, tenant: &str) {
        let event = TraceEvent {
            seq: self.next_seq,
            kind,
            tenant: TagStr::truncate_from(tenant),
        };
        self.next_seq += 1;
        let slot = (self.head + self.len) % self.capacity;
        self.slots[slot] = event;
        if self.len == self.capacity {
            // Full: the write just clobbered the oldest event.
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        } else {
            self.len += 1;
        }
    }

    /// Moves all live events into `out` (oldest first) and empties the ring.
    /// Sequence numbers keep counting across drains.
    pub fn drain_into(&mut self, out: &mut Vec<TraceEvent>) {
        out.reserve(self.len);
        for i in 0..self.len {
            out.push(self.slots[(self.head + i) % self.capacity]);
        }
        self.head = 0;
        self.len = 0;
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_truncates_on_char_boundary() {
        assert_eq!(TagStr::truncate_from("abc").as_str(), "abc");
        let long = "x".repeat(40);
        assert_eq!(TagStr::truncate_from(&long).as_str().len(), TAG_BYTES);
        // 31 ASCII bytes then a 2-byte char straddling the 32-byte limit:
        // the multibyte char must be dropped whole.
        let tricky = format!("{}é", "a".repeat(31));
        assert_eq!(TagStr::truncate_from(&tricky).as_str(), "a".repeat(31));
        assert_eq!(TagStr::empty().as_str(), "");
    }

    #[test]
    fn ring_records_in_order_with_monotonic_seq() {
        let mut ring = TraceRing::new(8);
        ring.record(TraceKind::TenantRegistered, "t1");
        ring.record(TraceKind::FlushApplied { events: 3 }, "t1");
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seq, 0);
        assert_eq!(out[0].kind, TraceKind::TenantRegistered);
        assert_eq!(out[1].seq, 1);
        assert_eq!(out[1].tenant.as_str(), "t1");
        assert!(ring.is_empty());
        // Sequence numbers continue across drains.
        ring.record(TraceKind::FeedbackRejected, "t2");
        out.clear();
        ring.drain_into(&mut out);
        assert_eq!(out[0].seq, 2);
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let mut ring = TraceRing::new(3);
        for i in 0..5 {
            ring.record(TraceKind::FlushApplied { events: i }, "t");
        }
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.recorded(), 5);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn drain_after_partial_refill_keeps_order() {
        let mut ring = TraceRing::new(2);
        ring.record(TraceKind::TenantRegistered, "a");
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        ring.record(TraceKind::SnapshotTaken, "a");
        ring.record(TraceKind::TenantEvicted, "a");
        ring.record(TraceKind::TenantRegistered, "b");
        out.clear();
        ring.drain_into(&mut out);
        let kinds: Vec<&str> = out.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["tenant_evicted", "tenant_registered"]);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(TraceKind::FeedbackRejected, "t");
        ring.record(TraceKind::FeedbackRejected, "t");
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }
}
