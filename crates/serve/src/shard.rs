//! A shard: a disjoint set of tenants behind one lock, run by its callers.
//!
//! A shard owns no thread. The engine keeps each [`Shard`] behind its own
//! `Mutex`, and whichever thread has a command for it — a network
//! connection, a [`ServeClient`](crate::ServeClient), a per-call engine
//! method — takes the lock and runs the command to completion inline
//! ([`Shard::execute`]). Tenants never leave their shard, so commands for
//! one tenant are serialised by the lock, and shards never wait on each
//! other: no command holds two shard locks.
//!
//! # Durability (optional)
//!
//! A shard booted with a [`ShardDurability`] WAL-logs every successful
//! mutation *after* it executes (rejected commands never reach the log, so
//! replay cannot fail where the original run succeeded) and keeps at most
//! `resident_cap` tenants in RAM, moving the least-recently-used ones to the
//! disk eviction tier and reading them back transparently when traffic
//! returns. Post-boot store failures are **fatal to the shard**: once the
//! log can no longer be written the durability contract cannot be honoured,
//! and dying loudly beats silently diverging from the on-disk state
//! (crash-only design — the next boot recovers from the last durable point).
//! The failure panics; the engine catches the panic and marks the shard
//! down, so that shard answers [`ServeError::EngineDown`] from then on
//! while the others keep serving.

use std::collections::HashMap;
use std::time::Instant;

use netband_obs::{DecideStage, StageClock, TraceEvent, TraceKind, TraceRing};
use netband_spec::WalRecord;
use netband_store::StoreMetrics;

use crate::api::{DecideReply, FeedbackEvent, ServeError, TenantId};
use crate::durable::{self, ShardDurability};
use crate::metrics::{ShardMetrics, TenantMetrics, TenantTelemetry, STAGE_SAMPLE_EVERY};
use crate::snapshot::TenantSnapshot;
use crate::tenant::{Tenant, TenantSpec};

/// One shard's contribution to a [`crate::MetricsReport`].
pub(crate) struct ShardReport {
    pub(crate) metrics: ShardMetrics,
    pub(crate) tenants: Vec<(TenantId, TenantMetrics)>,
}

/// What a shard starts from: its recovered tenants plus durability state
/// (both empty/absent for a plain in-memory shard).
pub(crate) struct ShardBoot {
    pub(crate) tenants: HashMap<TenantId, Tenant>,
    pub(crate) durable: Option<ShardDurability>,
}

impl ShardBoot {
    /// An empty, store-less boot (the default engine).
    pub(crate) fn in_memory() -> Self {
        ShardBoot {
            tenants: HashMap::new(),
            durable: None,
        }
    }
}

/// One shard's tenants, counters, trace ring and (optionally) durable store.
pub(crate) struct Shard {
    tenants: HashMap<TenantId, Tenant>,
    durable: Option<ShardDurability>,
    metrics: ShardMetrics,
    trace: TraceRing,
    /// Decides served by this shard, counted across all tenants and callers;
    /// every [`STAGE_SAMPLE_EVERY`]-th one records its stage split.
    decides: u64,
}

impl Shard {
    /// A shard over its recovered state. Recovery brings every tenant back
    /// resident, so the disk tier is re-formed before the first command.
    pub(crate) fn new(trace_capacity: usize, boot: ShardBoot) -> Self {
        let mut shard = Shard {
            tenants: boot.tenants,
            durable: boot.durable,
            metrics: ShardMetrics::default(),
            trace: TraceRing::new(trace_capacity),
            decides: 0,
        };
        shard.enforce_cap();
        shard
    }

    /// Runs one command: counts it in [`ShardMetrics::commands`], executes
    /// it, then re-forms the disk tier.
    pub(crate) fn execute<T>(&mut self, command: impl FnOnce(&mut Shard) -> T) -> T {
        self.metrics.commands += 1;
        let out = command(self);
        self.enforce_cap();
        out
    }

    /// Serves `slots.len()` consecutive decisions for `tenant`, filling the
    /// slots **in place** — a warm `Ok` slot is refilled without allocating,
    /// an `Err` slot is reset to a blank reply first. An unknown tenant (or a
    /// failed rehydration) fills every slot with the error. One
    /// `WalRecord::Decide` covers all the decisions served.
    pub(crate) fn decide_many(
        &mut self,
        tenant: &str,
        slots: &mut [Result<DecideReply, ServeError>],
    ) {
        // The sampled decide's Route lap covers the tenant lookup when it is
        // the first of the call; later decisions reuse the lookup, so their
        // Route lap is ~zero — which is honest: batching amortises routing.
        let mut route_clock =
            ((self.decides + 1) % STAGE_SAMPLE_EVERY == 0).then(StageClock::start);
        let found = self.ensure_resident(tenant).and_then(|()| {
            self.tenants
                .get_mut(tenant)
                .ok_or_else(|| ServeError::UnknownTenant(tenant.to_owned()))
        });
        let metrics = &mut self.metrics;
        let mut served: u64 = 0;
        match found {
            Ok(t) => {
                for slot in slots.iter_mut() {
                    let start = Instant::now();
                    self.decides += 1;
                    if self.decides % STAGE_SAMPLE_EVERY == 0 {
                        let mut clock = route_clock.take().unwrap_or_else(StageClock::start);
                        clock.lap(DecideStage::Route, &mut metrics.stages);
                        decide_into_slot(t, slot, Some((&mut clock, &mut metrics.stages)));
                    } else {
                        decide_into_slot(t, slot, None);
                    }
                    if slot.is_ok() {
                        served += 1;
                    }
                    metrics.decide_latency.record(start.elapsed());
                }
            }
            Err(err) => {
                for slot in slots.iter_mut() {
                    // Failed decides record a latency too, so every decide
                    // attempt shows in the histogram.
                    let start = Instant::now();
                    *slot = Err(err.clone());
                    metrics.decide_latency.record(start.elapsed());
                }
            }
        }
        if served > 0 && self.durable.is_some() {
            self.log(&WalRecord::Decide {
                tenant: tenant.to_owned(),
                count: served,
            });
        }
    }

    /// Ingests one feedback event for `tenant`'s round `round`. Feedback for
    /// an unknown tenant, of the wrong kind, or for an unserved round is
    /// dropped and counted in [`ShardMetrics::rejected`].
    pub(crate) fn feedback(&mut self, tenant: &str, round: u64, event: FeedbackEvent) {
        let start = Instant::now();
        let resident = self.ensure_resident(tenant);
        // Clone for the log before the tenant consumes the event; only taken
        // on durable shards.
        let logged = self.durable.as_ref().map(|_| event.clone());
        let outcome = match (resident, self.tenants.get_mut(tenant)) {
            (Ok(()), Some(t)) => t.feedback(round, event).ok(),
            _ => None,
        };
        match outcome {
            Some(flushed) => {
                if flushed > 0 {
                    self.trace
                        .record(TraceKind::FlushApplied { events: flushed }, tenant);
                }
                if let Some(event) = logged {
                    self.log(&WalRecord::Feedback {
                        tenant: tenant.to_owned(),
                        round,
                        event,
                    });
                }
            }
            None => {
                self.metrics.rejected += 1;
                self.trace.record(TraceKind::FeedbackRejected, tenant);
            }
        }
        self.metrics.feedback_latency.record(start.elapsed());
    }

    /// Applies `tenant`'s pending feedback now.
    pub(crate) fn flush(&mut self, tenant: &str) {
        let resident = self.ensure_resident(tenant);
        let applied = match (resident, self.tenants.get_mut(tenant)) {
            (Ok(()), Some(t)) => t.flush_pending(),
            _ => {
                self.metrics.rejected += 1;
                return;
            }
        };
        if applied > 0 {
            self.trace
                .record(TraceKind::FlushApplied { events: applied }, tenant);
        }
        if self.durable.is_some() {
            self.log(&WalRecord::Flush {
                tenant: tenant.to_owned(),
            });
        }
    }

    /// Whether `id` is taken on this shard, resident or on disk.
    fn hosts(&self, id: &str) -> bool {
        self.tenants.contains_key(id) || self.durable.as_ref().is_some_and(|d| d.knows(id))
    }

    /// Registers a new tenant.
    pub(crate) fn create(&mut self, spec: TenantSpec) -> Result<(), ServeError> {
        if self.hosts(spec.id()) {
            return Err(ServeError::DuplicateTenant(spec.id().to_owned()));
        }
        let tenant = Tenant::new(spec)?;
        let record = match &self.durable {
            Some(_) => {
                // Admission check: a durable shard only hosts tenants it can
                // capture later (eviction and compaction must be infallible
                // once a tenant is in). Errors as NotPersistable.
                durable::capture_tenant(&tenant)?;
                Some(WalRecord::Register {
                    id: tenant.id.clone(),
                    scenario: tenant.origin.clone().expect("capture checked origin"),
                    flush_max_pending: tenant.flush.max_pending as u64,
                    flush_before_decide: tenant.flush.flush_before_decide,
                    auto_feedback: tenant.auto_feedback,
                    echo_feedback: tenant.echo_feedback,
                })
            }
            None => None,
        };
        self.trace.record(TraceKind::TenantRegistered, &tenant.id);
        self.admit(tenant, record);
        Ok(())
    }

    /// Recreates a tenant from a checkpoint.
    pub(crate) fn restore(&mut self, snapshot: TenantSnapshot) -> Result<(), ServeError> {
        if self.hosts(snapshot.id()) {
            return Err(ServeError::DuplicateTenant(snapshot.id().to_owned()));
        }
        let tenant = Tenant::from_snapshot(snapshot)?;
        let record = match &self.durable {
            // The restored tenant's history is not reachable from this
            // shard's log, so its complete durable state is logged (and the
            // same admission check as `create` applies).
            Some(_) => Some(WalRecord::Restore {
                snapshot: Box::new(durable::capture_tenant(&tenant)?),
            }),
            None => None,
        };
        self.trace.record(TraceKind::TenantRestored, &tenant.id);
        self.admit(tenant, record);
        Ok(())
    }

    /// Makes a new tenant resident and logs its registration record.
    fn admit(&mut self, tenant: Tenant, record: Option<WalRecord>) {
        if let Some(dur) = &mut self.durable {
            dur.touch(&tenant.id);
        }
        self.tenants.insert(tenant.id.clone(), tenant);
        if let Some(record) = record {
            self.log(&record);
        }
    }

    /// Checkpoints `tenant` (flushing its pending feedback) without removing
    /// it.
    pub(crate) fn snapshot(&mut self, tenant: &str) -> Result<TenantSnapshot, ServeError> {
        self.ensure_resident(tenant)?;
        let t = self
            .tenants
            .get_mut(tenant)
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_owned()))?;
        let snapshot = t.snapshot();
        self.trace.record(TraceKind::SnapshotTaken, tenant);
        // `Tenant::snapshot` flushed pending feedback; mirror that mutation
        // in the log so replay flushes too.
        if self.durable.is_some() {
            self.log(&WalRecord::Flush {
                tenant: tenant.to_owned(),
            });
        }
        Ok(snapshot)
    }

    /// Removes `tenant`, returning its final checkpoint.
    pub(crate) fn evict(&mut self, tenant: &str) -> Result<TenantSnapshot, ServeError> {
        self.ensure_resident(tenant)?;
        let mut t = self
            .tenants
            .remove(tenant)
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_owned()))?;
        self.trace.record(TraceKind::TenantEvicted, tenant);
        let snapshot = t.snapshot();
        if let Some(dur) = &mut self.durable {
            dur.forget(tenant);
            self.log(&WalRecord::Removed {
                tenant: tenant.to_owned(),
            });
        }
        Ok(snapshot)
    }

    /// The shard's counters plus every tenant's, sorted by id. Shard-wide
    /// reads cover the disk tier too: it is rehydrated first so a capped
    /// engine reports exactly what an uncapped one would (the cap is
    /// re-enforced after the command).
    pub(crate) fn report(&mut self) -> ShardReport {
        self.rehydrate_all();
        let mut tenants: Vec<(TenantId, TenantMetrics)> = self
            .tenants
            .iter()
            .map(|(id, t)| (id.clone(), t.metrics.clone()))
            .collect();
        tenants.sort_by(|a, b| a.0.cmp(&b.0));
        ShardReport {
            metrics: self.metrics.clone(),
            tenants,
        }
    }

    /// One tenant's learning snapshot (read-only: never flushes).
    pub(crate) fn telemetry(&mut self, tenant: &str) -> Result<TenantTelemetry, ServeError> {
        self.ensure_resident(tenant)?;
        self.tenants
            .get(tenant)
            .map(Tenant::telemetry)
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_owned()))
    }

    /// Learning snapshots of every hosted tenant, sorted by id.
    pub(crate) fn telemetry_all(&mut self) -> Vec<TenantTelemetry> {
        self.rehydrate_all();
        let mut list: Vec<TenantTelemetry> = self.tenants.values().map(Tenant::telemetry).collect();
        list.sort_by(|a, b| a.id.cmp(&b.id));
        list
    }

    /// Drains the shard's trace ring (oldest event first).
    pub(crate) fn drain_trace(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        self.trace.drain_into(&mut out);
        out
    }

    /// The shard store's counters (`None` when the shard has no store).
    pub(crate) fn store_metrics(&self) -> Option<StoreMetrics> {
        self.durable.as_ref().map(|d| *d.store.metrics())
    }

    /// Flushes every tenant's pending feedback, disk tier included, so a
    /// capped engine's policies end up bit-exact with an uncapped one's. On a
    /// durable shard the drain is also a durability point, regardless of the
    /// fsync batching schedule.
    pub(crate) fn drain(&mut self) {
        self.rehydrate_all();
        // Flush in sorted id order so any traced flush events land in a
        // deterministic order (HashMap iteration order is not).
        let mut ids: Vec<TenantId> = self.tenants.keys().cloned().collect();
        ids.sort();
        for id in ids {
            if let Some(tenant) = self.tenants.get_mut(&id) {
                let applied = tenant.flush_pending();
                if applied > 0 {
                    self.trace
                        .record(TraceKind::FlushApplied { events: applied }, &id);
                }
            }
        }
        if self.durable.is_some() {
            self.log(&WalRecord::Drain);
            self.sync();
        }
    }

    /// Forces the shard's WAL to disk (a no-op without a store).
    pub(crate) fn sync(&mut self) {
        if let Some(dur) = &mut self.durable {
            dur.store
                .sync()
                .unwrap_or_else(|e| panic!("wal sync failed: {e}"));
        }
    }

    /// Rehydrates `id` from the disk tier if it lives there, and marks it
    /// most-recently-used if it is (now) resident. Returns `Ok(())` even when
    /// the tenant is simply unknown — the caller's own lookup reports that —
    /// and `Err` only for store/restore failures.
    fn ensure_resident(&mut self, id: &str) -> Result<(), ServeError> {
        let Some(dur) = &mut self.durable else {
            return Ok(());
        };
        if self.tenants.contains_key(id) {
            dur.touch(id);
        } else if dur.evicted.contains(id) {
            let stored = dur.store.read_evicted(id)?;
            let tenant = durable::restore_tenant(stored)?;
            dur.note_rehydrated(id);
            self.trace.record(TraceKind::TenantRehydrated, id);
            self.tenants.insert(tenant.id.clone(), tenant);
        }
        Ok(())
    }

    /// Rehydrates every disk-tier tenant (sorted by id, deterministically)
    /// ahead of a shard-wide command — metrics, telemetry, and drain cover
    /// *all* tenants, exactly like a store-less engine.
    fn rehydrate_all(&mut self) {
        let mut ids: Vec<TenantId> = match &self.durable {
            Some(dur) if !dur.evicted.is_empty() => dur.evicted.iter().cloned().collect(),
            _ => return,
        };
        ids.sort();
        for id in ids {
            self.ensure_resident(&id)
                .unwrap_or_else(|e| panic!("rehydrating tenant {id:?}: {e}"));
        }
    }

    /// Re-forms the disk tier: while the resident set exceeds the cap, the
    /// least-recently-used tenant is captured to its evict file and dropped
    /// from RAM. Capture never flushes, so a capped engine's tenants stay
    /// bit-exact with an uncapped one's.
    fn enforce_cap(&mut self) {
        let Some(dur) = &mut self.durable else {
            return;
        };
        while dur.over_cap(self.tenants.len()) {
            let Some(victim) = dur.lru_victim() else {
                break;
            };
            let tenant = self.tenants.get(&victim).expect("LRU victim is resident");
            let stored = durable::capture_tenant(tenant)
                .unwrap_or_else(|e| panic!("evicting tenant {victim:?}: {e}"));
            dur.store
                .write_evicted(&stored)
                .unwrap_or_else(|e| panic!("evicting tenant {victim:?}: {e}"));
            self.tenants.remove(&victim);
            dur.note_evicted(&victim);
            self.trace.record(TraceKind::TenantEvicted, &victim);
        }
    }

    /// Appends one record to the shard's WAL (tracing it) and compacts when
    /// the schedule says so; a no-op without a store. See the module docs for
    /// why store failures panic here.
    fn log(&mut self, record: &WalRecord) {
        let Some(dur) = &mut self.durable else {
            return;
        };
        dur.store
            .append(record)
            .unwrap_or_else(|e| panic!("wal append failed: {e}"));
        self.trace.record(
            TraceKind::WalAppended {
                bytes: dur.store.wal_bytes(),
            },
            durable::record_tenant(record),
        );
        if dur.store.compaction_due() {
            let mut ids: Vec<&TenantId> = self.tenants.keys().collect();
            ids.sort();
            let resident: Vec<_> = ids
                .into_iter()
                .map(|id| {
                    durable::capture_tenant(&self.tenants[id])
                        .unwrap_or_else(|e| panic!("capturing tenant {id:?} for compaction: {e}"))
                })
                .collect();
            let captured = (self.tenants.len() + dur.evicted.len()) as u32;
            dur.store
                .compact(resident)
                .unwrap_or_else(|e| panic!("wal compaction failed: {e}"));
            self.trace
                .record(TraceKind::SnapshotCompacted { tenants: captured }, "");
        }
    }
}

/// Serves one decision into `slot`. A warm `Ok` slot is filled strictly in
/// place (no allocation when its buffers fit); an `Err` slot is reset to a
/// blank reply first.
fn decide_into_slot(
    tenant: &mut Tenant,
    slot: &mut Result<DecideReply, ServeError>,
    stages: Option<(&mut StageClock, &mut netband_obs::StageTimings)>,
) {
    if slot.is_err() {
        *slot = Ok(DecideReply::blank());
    }
    let Ok(reply) = slot else {
        unreachable!("slot was just reset to Ok");
    };
    if let Err(e) = tenant.decide_into(reply, stages) {
        *slot = Err(e);
    }
}
