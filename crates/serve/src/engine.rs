//! The multi-tenant serving engine: routing, admission, and the synchronous
//! per-call API. Every call runs on the caller's thread, under the lock of
//! the shard its tenant routes to.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use netband_obs::{TraceKind, TraceRing};
use netband_spec::FleetSpec;
use netband_store::{StoreConfig, StoreMetrics};

use crate::api::{DecideReply, FeedbackEvent, RegisterTenantSpec, ServeError};
use crate::durable;
use crate::metrics::{MetricsReport, TenantTelemetry, TraceReport};
use crate::shard::{Shard, ShardBoot};
use crate::snapshot::TenantSnapshot;
use crate::tenant::TenantSpec;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The stable tenant-routing hash: 64-bit FNV-1a over the id's UTF-8 bytes.
///
/// The algorithm is spelled out here (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`, xor-then-multiply per byte) precisely so the
/// tenant → shard assignment is a **documented constant of the system**, not
/// an artifact of the standard library: `std::hash::DefaultHasher` makes no
/// cross-release stability promise, and any persistence or eviction tier
/// keyed on shard assignment would silently scramble on a toolchain bump.
/// `tests/serve_engine.rs` and the unit fixture below pin known assignments.
pub fn stable_tenant_hash(id: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in id.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Engine sizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of shards. Tenants are assigned to shards by
    /// [`stable_tenant_hash`] (an explicitly specified FNV-1a, stable across
    /// toolchains and releases), so the same id always routes to the same
    /// shard for a given shard count.
    pub shards: usize,
    /// How many calls each shard admits while it is busy: beyond the one
    /// running under the shard lock, up to this many may wait for it. The
    /// non-blocking `try_*` paths answer [`ServeError::Overloaded`] past that
    /// point; the blocking paths always wait for the lock (backpressure).
    pub queue_capacity: usize,
    /// Capacity of each shard's (and the engine's) structured trace ring.
    /// When a ring is full the oldest events are overwritten; the number of
    /// overwritten events is reported by the drained ring's `dropped` count.
    pub trace_capacity: usize,
    /// Durable store configuration. `None` (the default) keeps the engine
    /// purely in-memory — no files are touched and behaviour is byte-for-byte
    /// identical to pre-store releases. `Some` gives every shard a write-ahead
    /// log plus snapshot store under `store.dir` and (optionally) a resident
    /// cap backed by the disk eviction tier; see
    /// [`ServeEngine::try_start`].
    pub store: Option<StoreConfig>,
}

impl EngineConfig {
    /// A config with `shards` shards and the default queue capacity.
    pub fn new(shards: usize) -> Self {
        EngineConfig {
            shards: shards.max(1),
            queue_capacity: 1024,
            trace_capacity: 256,
            store: None,
        }
    }

    /// Overrides the per-shard admission capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Overrides the trace-ring capacity (per shard and for the engine ring).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity.max(1);
        self
    }

    /// Enables the durable store: per-shard write-ahead logs, compacted
    /// snapshots, and (when `store` carries a resident cap) the disk
    /// eviction tier, all under `store`'s directory. Start the engine with
    /// [`ServeEngine::try_start`] to surface recovery errors instead of
    /// panicking.
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = Some(store);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new(1)
    }
}

/// Whether a call may be refused when its shard is busy.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Wait for the shard lock however many calls are ahead.
    Block,
    /// Answer [`ServeError::Overloaded`] when the shard already admitted its
    /// capacity.
    Try,
}

/// One shard plus its admission count, which callers read before taking the
/// lock.
struct ShardSlot {
    /// `None` once the shard is down: after shutdown, or after a command
    /// panicked under the lock.
    shard: Mutex<Option<Shard>>,
    /// Calls admitted and not yet finished: the one holding the lock plus
    /// those waiting for it. It publishes no other data, so `Relaxed`.
    in_flight: AtomicUsize,
}

/// Decrements an in-flight count when dropped, on every exit path.
struct Admitted<'a>(&'a AtomicUsize);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Holds a shard wedged — its lock taken and its admission count full —
/// until dropped. Returned by [`ServeEngine::wedge_shard`] (test support).
#[doc(hidden)]
pub struct ShardWedge<'e> {
    _lock: MutexGuard<'e, Option<Shard>>,
    in_flight: &'e AtomicUsize,
    held: usize,
}

impl Drop for ShardWedge<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(self.held, Ordering::Relaxed);
    }
}

/// A sharded multi-tenant serving engine.
///
/// The engine hosts independent bandit *tenants* (experiment id → policy +
/// environment), distributed across shards by tenant id. All methods take
/// `&self` and the engine is [`Sync`], so any number of client threads can
/// drive it concurrently (e.g. through [`std::thread::scope`]). Each call
/// runs on the calling thread under its shard's lock, so calls for the same
/// tenant are serialised and calls for tenants on different shards run in
/// parallel.
///
/// See the [crate docs](crate) for a full walkthrough and the
/// delayed-feedback semantics.
pub struct ServeEngine {
    shards: Vec<ShardSlot>,
    queue_capacity: usize,
    /// Overload rejections happen before a shard is touched, so the engine —
    /// not a shard — keeps the count and the trace events. Cold path only:
    /// the atomic and the mutex are touched exclusively when a call is
    /// rejected or when observability is scraped.
    overload_rejections: AtomicU64,
    trace: Mutex<TraceRing>,
}

impl ServeEngine {
    /// Starts the engine.
    ///
    /// A literal-built config with `shards == 0` is treated as 1 (the
    /// constructors already clamp; this keeps a hand-built
    /// `EngineConfig { shards: 0, .. }` from producing an engine whose
    /// routing divides by zero).
    ///
    /// # Panics
    ///
    /// When the config carries a store and opening or recovering it fails
    /// (unreadable directory, corrupt snapshot/WAL, a log written by a
    /// different shard count). Use [`ServeEngine::try_start`] to handle
    /// those as errors.
    pub fn start(config: EngineConfig) -> Self {
        ServeEngine::try_start(config).expect("open and recover the engine's durable store")
    }

    /// Starts the engine, recovering each shard's durable state first when
    /// the config carries a store.
    ///
    /// Recovery runs serially on the calling thread: each shard's latest
    /// valid snapshot set is loaded and its WAL tail replayed through the
    /// ordinary decide/feedback paths, so a `kill -9` at any round resumes
    /// bit-exactly. Store-less configs never fail.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the store cannot be opened, a complete WAL
    /// record fails its CRC or decode (torn *tails* are truncated silently —
    /// that is the crash contract — but corruption mid-log is loud), or
    /// replay references state the log cannot reproduce.
    pub fn try_start(config: EngineConfig) -> Result<Self, ServeError> {
        let trace_capacity = config.trace_capacity.max(1);
        let mut shards = Vec::with_capacity(config.shards.max(1));
        for shard in 0..config.shards.max(1) {
            let boot = match &config.store {
                Some(store) => durable::recover_shard(store, shard)?,
                None => ShardBoot::in_memory(),
            };
            shards.push(ShardSlot {
                shard: Mutex::new(Some(Shard::new(trace_capacity, boot))),
                in_flight: AtomicUsize::new(0),
            });
        }
        Ok(ServeEngine {
            shards,
            queue_capacity: config.queue_capacity.max(1),
            overload_rejections: AtomicU64::new(0),
            trace: Mutex::new(TraceRing::new(trace_capacity)),
        })
    }

    /// Starts an engine with `shards` shards and default sizing.
    pub fn with_shards(shards: usize) -> Self {
        ServeEngine::start(EngineConfig::new(shards))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// How many calls each shard admits while busy; see
    /// [`EngineConfig::queue_capacity`].
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Test support: wedges `shard` — takes its lock and fills its admission
    /// count — returning a guard that releases the shard when dropped. While
    /// wedged, the `try_*` admission paths return [`ServeError::Overloaded`]
    /// deterministically and blocking calls wait; the wire-protocol suite
    /// uses this to exercise the overload error frame end to end.
    ///
    /// # Panics
    ///
    /// When the shard is down.
    #[doc(hidden)]
    pub fn wedge_shard(&self, shard: usize) -> ShardWedge<'_> {
        let slot = &self.shards[shard];
        let lock = slot.shard.lock().expect("wedge a live shard");
        assert!(lock.is_some(), "wedge a live shard");
        // The wedge is the running call plus a full wait line.
        let held = self.queue_capacity + 1;
        slot.in_flight.fetch_add(held, Ordering::Relaxed);
        ShardWedge {
            _lock: lock,
            in_flight: &slot.in_flight,
            held,
        }
    }

    /// The shard a tenant id routes to: [`stable_tenant_hash`] reduced modulo
    /// the shard count. Stable across processes, toolchains, and releases.
    pub fn shard_of(&self, tenant: &str) -> usize {
        (stable_tenant_hash(tenant) % self.shards.len() as u64) as usize
    }

    /// Creates a batched client handle over this engine; see
    /// [`ServeClient`](crate::ServeClient). Cheap — intended usage is one
    /// client per driving thread.
    pub fn client(&self) -> crate::ServeClient<'_> {
        crate::ServeClient::new(self)
    }

    /// Runs one command on `shard`, on the calling thread, under the shard's
    /// lock.
    ///
    /// Admission comes first and takes no lock: a [`Admission::Try`] call
    /// that finds the shard's in-flight count past the queue capacity is
    /// refused with [`ServeError::Overloaded`]. A command that panics (a
    /// store failure is fatal to its shard) marks the shard down; it and
    /// every later call for that shard answer [`ServeError::EngineDown`],
    /// while the other shards keep serving.
    pub(crate) fn run<T>(
        &self,
        shard: usize,
        admission: Admission,
        command: impl FnOnce(&mut Shard) -> T,
    ) -> Result<T, ServeError> {
        let slot = &self.shards[shard];
        let ahead = slot.in_flight.fetch_add(1, Ordering::Relaxed);
        let _admitted = Admitted(&slot.in_flight);
        if admission == Admission::Try && ahead > self.queue_capacity {
            self.record_overload(shard);
            return Err(ServeError::Overloaded);
        }
        let mut guard = slot.shard.lock().map_err(|_| ServeError::EngineDown)?;
        let live = guard.as_mut().ok_or(ServeError::EngineDown)?;
        let outcome = catch_unwind(AssertUnwindSafe(|| live.execute(command)));
        outcome.map_err(|_| {
            *guard = None;
            ServeError::EngineDown
        })
    }

    /// Counts and traces one overload rejection. The shard never saw the
    /// call, so it is accounted here at the engine level.
    fn record_overload(&self, shard: usize) {
        self.overload_rejections.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut ring) = self.trace.lock() {
            ring.record(
                TraceKind::ShardOverloaded {
                    shard: shard as u32,
                },
                "",
            );
        }
    }

    /// Runs one blocking command on the shard `tenant` routes to.
    fn run_for<T>(
        &self,
        tenant: &str,
        command: impl FnOnce(&mut Shard) -> T,
    ) -> Result<T, ServeError> {
        self.run(self.shard_of(tenant), Admission::Block, command)
    }

    /// Runs one blocking command on every shard in turn, collecting the
    /// answers in shard order.
    fn run_all<T>(&self, mut command: impl FnMut(&mut Shard) -> T) -> Result<Vec<T>, ServeError> {
        (0..self.shards.len())
            .map(|shard| self.run(shard, Admission::Block, &mut command))
            .collect()
    }

    /// Registers a new tenant on the shard its id routes to.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateTenant`] if the id is taken,
    /// [`ServeError::EngineDown`] after shutdown.
    pub fn create_tenant(&self, spec: TenantSpec) -> Result<(), ServeError> {
        let shard = self.shard_of(spec.id());
        self.run(shard, Admission::Block, |s| s.create(spec))?
    }

    /// Registers a tenant from a declarative scenario document (the
    /// [`RegisterTenantSpec`] command): the scenario is validated and built
    /// via `netband-spec`, then registered like any hand-constructed tenant.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] when the scenario fails to validate or build,
    /// plus everything [`ServeEngine::create_tenant`] can return.
    pub fn register_tenant_spec(&self, request: &RegisterTenantSpec) -> Result<(), ServeError> {
        let spec = TenantSpec::from_scenario(request.id.clone(), &request.scenario)?;
        self.create_tenant(spec)
    }

    /// Boots a whole multi-tenant fleet from one declarative document:
    /// validates the fleet first (version, per-scenario validity, unique
    /// ids), then registers every tenant. Fails fast on the first
    /// registration error; previously registered tenants of the same call
    /// stay registered.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] for an invalid fleet document, plus everything
    /// [`ServeEngine::register_tenant_spec`] can return.
    pub fn register_fleet(&self, fleet: &FleetSpec) -> Result<(), ServeError> {
        fleet.validate()?;
        for tenant in &fleet.tenants {
            let spec = TenantSpec::from_scenario(tenant.id.clone(), &tenant.scenario)?;
            self.create_tenant(spec)?;
        }
        Ok(())
    }

    /// Recreates a tenant from a checkpoint (same routing as
    /// [`ServeEngine::create_tenant`]). The environment's derived CSR state
    /// is rebuilt on restore, so snapshots taken before a shutdown resume
    /// bit-identically on a fresh engine.
    pub fn restore_tenant(&self, snapshot: TenantSnapshot) -> Result<(), ServeError> {
        let shard = self.shard_of(snapshot.id());
        self.run(shard, Admission::Block, |s| s.restore(snapshot))?
    }

    /// Serves one decision for `tenant`.
    pub fn decide(&self, tenant: &str) -> Result<DecideReply, ServeError> {
        let mut slot = [Err(ServeError::EngineDown)];
        self.run_for(tenant, |s| s.decide_many(tenant, &mut slot))?;
        let [reply] = slot;
        reply
    }

    /// Ingests one feedback event for `tenant`'s round `round`. Events may
    /// arrive delayed, in batches, and out of round order; each tenant queues
    /// them and applies its queue in round order at flush points (see
    /// [`crate::FlushPolicy`]). The event is queued (and any flush it
    /// triggers applied) before the call returns.
    ///
    /// Feedback for an unknown tenant, of the wrong kind, or quoting a round
    /// the tenant never served is dropped and counted in
    /// [`crate::ShardMetrics::rejected`] rather than returned as an error.
    /// Duplicate delivery of a served round is *not* detected — at-most-once
    /// delivery is the caller's responsibility.
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineDown`] after shutdown, or when the tenant's shard
    /// is down.
    pub fn feedback(
        &self,
        tenant: &str,
        round: u64,
        event: FeedbackEvent,
    ) -> Result<(), ServeError> {
        self.run_for(tenant, |s| s.feedback(tenant, round, event))
    }

    /// Asks `tenant` to apply its pending feedback now. An unknown tenant is
    /// counted in [`crate::ShardMetrics::rejected`].
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineDown`] after shutdown.
    pub fn flush(&self, tenant: &str) -> Result<(), ServeError> {
        self.run_for(tenant, |s| s.flush(tenant))
    }

    /// Checkpoints `tenant` (flushing its pending feedback first) without
    /// removing it.
    pub fn snapshot_tenant(&self, tenant: &str) -> Result<TenantSnapshot, ServeError> {
        self.run_for(tenant, |s| s.snapshot(tenant))?
    }

    /// Removes `tenant` from the engine, returning its final checkpoint.
    pub fn evict_tenant(&self, tenant: &str) -> Result<TenantSnapshot, ServeError> {
        self.run_for(tenant, |s| s.evict(tenant))?
    }

    /// Flushes every tenant's pending feedback on every shard (on a durable
    /// engine, also forcing every WAL to disk).
    pub fn drain(&self) -> Result<(), ServeError> {
        self.run_all(Shard::drain)?;
        Ok(())
    }

    /// Gathers a point-in-time metrics report from every shard.
    pub fn metrics(&self) -> Result<MetricsReport, ServeError> {
        let mut report = MetricsReport::default();
        for shard in self.run_all(Shard::report)? {
            report.shards.push(shard.metrics);
            report.tenants.extend(shard.tenants);
        }
        report.tenants.sort_by(|a, b| a.0.cmp(&b.0));
        report.overload_rejections = self.overload_rejections.load(Ordering::Relaxed);
        Ok(report)
    }

    /// A point-in-time learning-telemetry snapshot of one tenant: per-arm
    /// pull counts and empirical means, cumulative realised and oracle
    /// reward, and serving counters. Read-only — no flush is triggered, so
    /// the estimators reflect only feedback already applied at flush points
    /// (events still queued are counted in
    /// [`TenantTelemetry::pending_feedback`]).
    pub fn telemetry(&self, tenant: &str) -> Result<TenantTelemetry, ServeError> {
        self.run_for(tenant, |s| s.telemetry(tenant))?
    }

    /// Telemetry snapshots for every tenant on every shard, sorted by tenant
    /// id.
    pub fn telemetry_all(&self) -> Result<Vec<TenantTelemetry>, ServeError> {
        let mut all: Vec<TenantTelemetry> = self
            .run_all(Shard::telemetry_all)?
            .into_iter()
            .flatten()
            .collect();
        all.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(all)
    }

    /// The durable store's counters summed across every shard — WAL appends
    /// and fsyncs, the live WAL-size gauge, compactions, evictions and
    /// rehydrations, and what recovery replayed at boot. `Ok(None)` when the
    /// engine runs without a store.
    pub fn store_metrics(&self) -> Result<Option<StoreMetrics>, ServeError> {
        let mut total: Option<StoreMetrics> = None;
        for shard in self.run_all(|s| s.store_metrics())?.into_iter().flatten() {
            total
                .get_or_insert_with(StoreMetrics::default)
                .absorb(&shard);
        }
        Ok(total)
    }

    /// Drains every trace ring — one per shard plus the engine-level ring
    /// that records caller-side overload rejections — into a
    /// [`TraceReport`]. Draining resets the rings (events are returned once);
    /// sequence numbers keep counting across drains.
    pub fn trace(&self) -> Result<TraceReport, ServeError> {
        let mut report = TraceReport {
            shards: self.run_all(Shard::drain_trace)?,
            engine: Vec::new(),
        };
        if let Ok(mut ring) = self.trace.lock() {
            ring.drain_into(&mut report.engine);
        }
        Ok(report)
    }

    /// Stops every shard: waits for each shard's running call, forces its
    /// WAL to disk, and marks it down, so later calls answer
    /// [`ServeError::EngineDown`]. Dropping the engine does the same
    /// implicitly.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        for slot in &self.shards {
            // A poisoned or already-down shard has nothing left to sync.
            if let Some(mut shard) = slot.shard.lock().ok().and_then(|mut s| s.take()) {
                // A failed final sync is fatal to the shard, which is going
                // down anyway; there is no caller left to tell.
                let _ = catch_unwind(AssertUnwindSafe(|| shard.execute(Shard::sync)));
            }
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_zero_shard_configs_still_route() {
        // Bypassing the constructors must not produce a divide-by-zero router.
        let engine = ServeEngine::start(EngineConfig {
            shards: 0,
            queue_capacity: 4,
            trace_capacity: 0,
            store: None,
        });
        assert_eq!(engine.num_shards(), 1);
        assert_eq!(engine.shard_of("any"), 0);
        engine.shutdown();
    }

    #[test]
    fn config_clamps_degenerate_sizes() {
        assert_eq!(EngineConfig::new(0).shards, 1);
        assert_eq!(EngineConfig::new(4).shards, 4);
        assert_eq!(
            EngineConfig::new(1).with_queue_capacity(0).queue_capacity,
            1
        );
        assert_eq!(
            EngineConfig::new(1).with_trace_capacity(0).trace_capacity,
            1
        );
        assert_eq!(EngineConfig::default(), EngineConfig::new(1));
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let engine = ServeEngine::with_shards(4);
        assert_eq!(engine.num_shards(), 4);
        for id in ["a", "b", "exp-42", ""] {
            let shard = engine.shard_of(id);
            assert!(shard < 4);
            assert_eq!(shard, engine.shard_of(id), "routing must be stable");
        }
        engine.shutdown();
    }

    /// The routing hash is a documented constant of the system: these are the
    /// standard FNV-1a 64-bit test vectors plus this workspace's own ids. If
    /// this test ever fails, shard routing changed — which silently scrambles
    /// any persistence or eviction tier keyed on shard assignment. Do not
    /// update the constants; fix the hash.
    #[test]
    fn tenant_hash_matches_the_pinned_fnv1a_vectors() {
        assert_eq!(stable_tenant_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_tenant_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_tenant_hash("foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(stable_tenant_hash("exp-0"), 0xdb82_9312_96b1_d41d);
        assert_eq!(stable_tenant_hash("tenant-0"), 0xc2ef_b028_e3eb_eed8);
    }

    /// Known tenant → shard assignments on a 4-shard engine. Pinned so a
    /// refactor (or a toolchain bump) can never silently re-route tenants.
    #[test]
    fn tenant_to_shard_assignments_are_pinned() {
        let engine = ServeEngine::with_shards(4);
        let expected: &[(&str, usize)] = &[
            ("", 1),
            ("a", 0),
            ("exp-0", 1),
            ("tenant-0", 0),
            ("tenant-1", 3),
            ("tenant-2", 2),
            ("tenant-3", 1),
            ("tenant-4", 0),
            ("tenant-5", 3),
            ("tenant-6", 2),
            ("tenant-7", 1),
        ];
        for &(id, shard) in expected {
            assert_eq!(engine.shard_of(id), shard, "tenant {id:?} re-routed");
        }
        engine.shutdown();
    }

    #[test]
    fn tenants_register_from_scenario_specs() {
        use netband_spec::{presets, FleetSpec, FleetTenant, SPEC_VERSION};

        let engine = ServeEngine::with_shards(2);
        let mut scenario = presets::paper_simulation(10, 0.4, 11);
        scenario.horizon = 50;
        engine
            .register_tenant_spec(&RegisterTenantSpec::new("spec-0", scenario.clone()))
            .unwrap();
        // Same id twice: the duplicate is rejected by the shard, not the spec.
        assert_eq!(
            engine.register_tenant_spec(&RegisterTenantSpec::new("spec-0", scenario.clone())),
            Err(ServeError::DuplicateTenant("spec-0".into()))
        );
        let reply = engine.decide("spec-0").unwrap();
        assert_eq!(reply.round, 1);

        // A whole fleet from one document, including a combinatorial tenant.
        let mut comb = presets::channel_access(10, 2, 0.35, 4);
        comb.horizon = 50;
        let fleet = FleetSpec {
            version: SPEC_VERSION,
            name: "test-fleet".into(),
            tenants: vec![
                FleetTenant {
                    id: "fleet-a".into(),
                    scenario,
                },
                FleetTenant {
                    id: "fleet-b".into(),
                    scenario: comb,
                },
            ],
        };
        engine.register_fleet(&fleet).unwrap();
        for id in ["fleet-a", "fleet-b"] {
            assert_eq!(engine.decide(id).unwrap().round, 1, "{id}");
        }
        // An invalid fleet (duplicate ids) is rejected before registration.
        let mut bad = fleet.clone();
        bad.tenants[1].id = "fleet-a".into();
        assert!(matches!(
            engine.register_fleet(&bad),
            Err(ServeError::Spec(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn zero_flush_policies_are_rejected_at_registration() {
        use netband_core::DflSso;
        use netband_env::{ArmSet, NetworkedBandit};
        use netband_sim::SingleScenario;

        let engine = ServeEngine::with_shards(1);
        let graph = netband_graph::generators::path(4);
        let bandit = NetworkedBandit::new(graph.clone(), ArmSet::linear_bernoulli(4)).unwrap();
        let spec = crate::TenantSpec::single(
            "zero",
            bandit,
            DflSso::new(graph),
            SingleScenario::SideObservation,
            1,
        )
        .with_flush(crate::FlushPolicy {
            max_pending: 0,
            flush_before_decide: false,
        });
        assert_eq!(
            engine.create_tenant(spec),
            Err(ServeError::InvalidFlushPolicy { max_pending: 0 })
        );
        // The rejected tenant never registered.
        assert!(matches!(
            engine.decide("zero"),
            Err(ServeError::UnknownTenant(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn requests_after_shutdown_report_engine_down() {
        let engine = ServeEngine::with_shards(2);
        let mut engine = engine;
        engine.shutdown_in_place();
        assert_eq!(engine.decide("x").unwrap_err(), ServeError::EngineDown);
        assert_eq!(engine.drain().unwrap_err(), ServeError::EngineDown);
    }
}
