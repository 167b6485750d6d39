//! How everything reports to MonALISA: one batch per round, under one
//! store lock. Every grid tick [`Grid::publish_metrics`] samples each
//! site's farm and nodes into series interned at construction
//! (`publish_ids`); every service poll [`ServiceStack::metrics`] asks
//! each [`MetricSource`] in a fixed order for one [`MetricBatch`]
//! (`publish_batch`; DESIGN.md §17). The impls live here, not beside the types
//! they describe, so that gae-gate, gae-xfer, gae-obs, gae-hist and
//! gae-repl keep no dependency on the monitoring crate.

use super::{Grid, ServiceStack};
use crate::estimator::EstimatorService;
use gae_exec::ExecutionService;
use gae_gate::{Gate, GateClass};
use gae_monitor::{MetricBatch, MetricKey, MonAlisaRepository, SeriesId};
use gae_types::SiteId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Interns every per-tick publication series up front, in the order
/// [`Grid::publish_metrics`] samples them: per site (ascending id)
/// farm load, queue length, then per node in `nodes()` order
/// `cpu_load`, `busy_slots`. The tick then publishes by handle — no
/// key is built, hashed or cloned again.
pub(super) fn intern_site_series(
    sites: &BTreeMap<SiteId, Arc<Mutex<ExecutionService>>>,
    monitor: &MonAlisaRepository,
) -> Vec<SeriesId> {
    let cpu_load: Arc<str> = Arc::from("cpu_load");
    let busy_slots: Arc<str> = Arc::from("busy_slots");
    let mut ids = Vec::new();
    for (id, site) in sites {
        ids.push(monitor.intern(MetricKey::site_wide(*id, cpu_load.clone())));
        ids.push(monitor.intern(MetricKey::site_wide(*id, "queue_length")));
        for node in site.lock().nodes() {
            let entity: Arc<str> = Arc::from(node.id.to_string());
            ids.push(monitor.intern(MetricKey::new(*id, entity.clone(), cpu_load.clone())));
            ids.push(monitor.intern(MetricKey::new(*id, entity, busy_slots.clone())));
        }
    }
    ids
}

impl Grid {
    /// Publishes per-site load and queue length to MonALISA (§6.1d's
    /// "status of load at execution sites"), plus per-node load and
    /// slot occupancy (MonALISA's Farm/Node hierarchy).
    ///
    /// All of a tick's samples go to the repository as one
    /// [`gae_monitor::MonAlisaRepository::publish_ids`] call — one
    /// store-lock acquisition per tick instead of one per metric —
    /// through the handles interned at construction, in site order:
    /// farm load, queue length, then per-node load and slot occupancy.
    pub fn publish_metrics(&self) {
        let now = self.now();
        let mut values = Vec::with_capacity(self.metric_ids.len());
        for site in self.sites.values() {
            let site = site.lock();
            values.push(site.current_load());
            values.push(site.queue_length() as f64);
            for node in site.nodes() {
                values.push(node.load_at(now));
                values.push(f64::from(node.busy_slots()));
            }
        }
        self.monitor.publish_ids(now, &self.metric_ids, &values);
    }
}

/// A subsystem that reports its counters and gauges to MonALISA.
///
/// The one way a service-level subsystem publishes: it adds its
/// samples to the poll round's batch, under its own entity name, in an
/// order that is a pure function of its state (so two runs of one
/// workload publish byte-identical series).
pub trait MetricSource {
    /// Adds this source's current samples to `batch`.
    fn report(&self, batch: &mut MetricBatch);
}

/// Entity `estimator`: the memo-cache hit/miss counters, so dashboards
/// and the `monalisa.*` RPC facade can watch hit rates.
impl MetricSource for EstimatorService {
    fn report(&self, batch: &mut MetricBatch) {
        let (hits, misses) = self.memo_stats();
        batch.gauges(
            "estimator",
            [("memo_hits", hits as f64), ("memo_misses", misses as f64)],
        );
    }
}

/// Entity `gate`: admitted / rate-limited / shed / expired /
/// breaker-denied per class (`<counter>_<class>`, counter-major), the
/// queue depth gauges, and one `breaker_<key>` state sample per
/// materialised breaker (closed=0, open=1, half-open=2).
impl MetricSource for Gate {
    fn report(&self, batch: &mut MetricBatch) {
        let stats = self.stats();
        let entity: Arc<str> = Arc::from("gate");
        for (counter, per_class) in [
            ("admitted", stats.admitted),
            ("rate_limited", stats.rate_limited),
            ("shed", stats.shed),
            ("expired", stats.expired),
            ("breaker_denied", stats.breaker_denied),
        ] {
            batch.gauges(
                entity.clone(),
                GateClass::ALL
                    .iter()
                    .zip(per_class)
                    .map(|(class, n)| (format!("{counter}_{}", class.name()), n as f64)),
            );
        }
        batch.gauges(
            entity.clone(),
            [
                ("queue_depth", stats.queue_depth as f64),
                ("peak_queue_depth", stats.peak_queue_depth as f64),
            ],
        );
        batch.gauges(
            entity,
            self.breaker_states()
                .into_iter()
                .map(|(key, state)| (format!("breaker_{key}"), state.as_metric())),
        );
    }
}

/// Entity `xfer`: monotonic counters and queue gauges grid-wide,
/// storage used/pinned per site, active drains per directed link —
/// all key-sorted by construction (the snapshot's vectors are).
impl MetricSource for gae_xfer::XferMetrics {
    fn report(&self, batch: &mut MetricBatch) {
        let entity: Arc<str> = Arc::from("xfer");
        batch.gauges(
            entity.clone(),
            [
                ("completed", self.counters.completed as f64),
                ("failed", self.counters.failed as f64),
                ("retried", self.counters.retried as f64),
                ("evicted", self.counters.evicted as f64),
                ("history_dropped", self.counters.history_dropped as f64),
                ("in_flight", self.in_flight as f64),
                ("waiting", self.waiting as f64),
            ],
        );
        for (site, used, pinned) in &self.sites {
            batch.gauge(*site, entity.clone(), "storage_used_bytes", *used as f64);
            batch.gauge(*site, entity.clone(), "storage_pinned", *pinned as f64);
        }
        batch.gauges(
            entity,
            self.links.iter().map(|(from, to, active)| {
                (
                    format!("link_{}_{}_active", from.raw(), to.raw()),
                    *active as f64,
                )
            }),
        );
    }
}

/// Entity `obs`: count + p50/p95/p99 per RPC method, gate disposition,
/// link, replication op and history method (`<family><name>_<stat>`),
/// each family name-sorted so the batch order is deterministic; then
/// `trace_evictions`, once the trace ring has dropped anything (the
/// `repl` precedent: a stack that never fills the ring publishes the
/// series it always did).
impl MetricSource for gae_obs::ObsHub {
    fn report(&self, batch: &mut MetricBatch) {
        let entity: Arc<str> = Arc::from("obs");
        for (family, distributions) in [
            ("", self.rpc_snapshot()),
            ("gate_", self.gate_snapshot()),
            ("xfer_", self.xfer_snapshot()),
            ("repl_", self.repl_snapshot()),
            ("hist_", self.hist_snapshot()),
        ] {
            for (name, s) in distributions {
                batch.gauges(
                    entity.clone(),
                    [
                        ("count", s.count),
                        ("p50_us", s.p50_us),
                        ("p95_us", s.p95_us),
                        ("p99_us", s.p99_us),
                    ]
                    .map(|(stat, v)| (format!("{family}{name}_{stat}"), v as f64)),
                );
            }
        }
        let evicted = self.traces().evicted();
        if evicted > 0 {
            batch.gauges(entity, [("trace_evictions", evicted as f64)]);
        }
    }
}

/// Entity `hist`: the history store's shape — pure functions of its
/// contents (scan, op and runtime-view counters deliberately stay
/// out: they reset across recovery and would fork the metric streams
/// of otherwise-identical runs).
impl MetricSource for gae_hist::HistStats {
    fn report(&self, batch: &mut MetricBatch) {
        batch.gauges(
            "hist",
            [
                ("rows", self.rows as f64),
                ("sealed_segments", self.sealed_segments as f64),
                ("tail_rows", self.tail_rows as f64),
                ("dict_words", self.dict_words as f64),
            ],
        );
    }
}

/// Entity `repl`: quorum/leader commit indexes, follower liveness,
/// stream/ack/stall/install/election totals of the armed sink.
impl MetricSource for gae_repl::ReplStats {
    fn report(&self, batch: &mut MetricBatch) {
        batch.gauges(
            "repl",
            [
                ("commit_index", self.commit_index as f64),
                ("leader_commit", self.leader_commit as f64),
                ("followers_total", self.followers_total as f64),
                ("followers_alive", self.followers_alive as f64),
                ("streamed_records", self.streamed_records as f64),
                ("acks", self.acks as f64),
                ("quorum_stalls", self.quorum_stalls as f64),
                ("snapshot_installs", self.snapshot_installs as f64),
                ("elections", self.elections as f64),
            ],
        );
    }
}

impl ServiceStack {
    /// One poll round's samples: every source, always in the order
    /// memo, gate, xfer, obs, hist, repl (the last only while a sink is
    /// armed), stamped with the grid clock.
    pub(super) fn metrics(&self) -> MetricBatch {
        let mut batch = MetricBatch::at(self.grid.now());
        let sources: [&dyn MetricSource; 5] = [
            &*self.estimators,
            &*self.gate,
            &self.grid.xfer_metrics(),
            &*self.obs,
            &self.hist.store().stats(),
        ];
        for source in sources {
            source.report(&mut batch);
        }
        if let Some(sink) = self.replication() {
            sink.stats().report(&mut batch);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{two_site_grid, GridBuilder};
    use crate::persist::PersistenceConfig;
    use gae_types::{
        FileRef, JobId, JobSpec, SimDuration, SimTime, SiteDescription, TaskId, TaskSpec, UserId,
    };
    use std::collections::BTreeSet;

    /// The service-level `(entity, param)` names in the repository,
    /// per entity (the per-tick `farm` / `node-*` series left out).
    fn published(stack: &ServiceStack) -> BTreeMap<String, BTreeSet<String>> {
        let mut names: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (key, _) in stack.grid.monitor().metrics_snapshot().0 {
            if &*key.entity != "farm" && !key.entity.starts_with("node-") {
                names
                    .entry(key.entity.to_string())
                    .or_default()
                    .insert(key.param.to_string());
            }
        }
        names
    }

    /// The publication surface, source by source: a renamed, dropped
    /// or added key fails here with its name (the golden state CRC in
    /// `tests/golden_state.rs` would only say "different").
    #[test]
    fn every_source_publishes_exactly_its_keys() {
        let dir = gae_durable::fault::unique_temp_dir("metric-surface");
        // A 10 s transfer over a slow link, so a poll sees it draining.
        let slow = gae_sim::NetworkModel::new(gae_sim::Link::new(1e6, SimDuration::ZERO));
        let grid = GridBuilder::new()
            .network(slow)
            .persist(PersistenceConfig::new(&dir).fsync(false))
            .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 2, 1), 3.0)
            .site(SiteDescription::new(SiteId::new(2), "free", 2, 1))
            .build();
        let stack = ServiceStack::over(grid);
        let followers = gae_repl::ReplicatedLog::attached(
            &dir.join("repl"),
            gae_repl::ReplConfig {
                followers: 2,
                fsync: false,
            },
        )
        .unwrap();
        stack.attach_replication(followers).unwrap();

        let mut job = JobSpec::new(JobId::new(1), "surface", UserId::new(1));
        job.add_task(
            TaskSpec::new(TaskId::new(1), "t", "reco")
                .with_cpu_demand(SimDuration::from_secs(20))
                .with_inputs(vec![
                    FileRef::new("raw.root", 10_000_000).with_replicas(vec![SiteId::new(1)])
                ]),
        );
        stack.submit_job(job).unwrap();
        stack.gate.breaker_record("exec-site-1", false);
        stack.obs.record_rpc("jobmon.job_status", SimDuration::ZERO);
        stack.obs.record_hist("history.query", SimDuration::ZERO);
        // Two horizons: commit spacing needs two commits.
        stack.run_until(SimTime::from_secs(30));
        stack.run_until(SimTime::from_secs(60));
        std::fs::remove_dir_all(&dir).ok();

        let stats = |names: &[&str]| -> Vec<String> {
            names
                .iter()
                .flat_map(|n| ["count", "p50_us", "p95_us", "p99_us"].map(|s| format!("{n}_{s}")))
                .collect()
        };
        let per_class = |counters: &[&str]| -> Vec<String> {
            counters
                .iter()
                .flat_map(|c| {
                    ["interactive", "production", "scavenger"].map(|k| format!("{c}_{k}"))
                })
                .collect()
        };
        let owned = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let expected: BTreeMap<String, BTreeSet<String>> = [
            ("estimator", owned(&["memo_hits", "memo_misses"])),
            (
                "gate",
                [
                    per_class(&[
                        "admitted",
                        "rate_limited",
                        "shed",
                        "expired",
                        "breaker_denied",
                    ]),
                    owned(&[
                        "queue_depth",
                        "peak_queue_depth",
                        "breaker_exec-site-1",
                        "breaker_exec-site-2",
                    ]),
                ]
                .concat(),
            ),
            (
                "xfer",
                owned(&[
                    "completed",
                    "failed",
                    "retried",
                    "evicted",
                    "history_dropped",
                    "in_flight",
                    "waiting",
                    "storage_used_bytes",
                    "storage_pinned",
                    "link_1_2_active",
                ]),
            ),
            (
                "obs",
                stats(&[
                    "jobmon.job_status",
                    "gate_admit",
                    "xfer_1->2",
                    "repl_commit",
                    "hist_history.query",
                ]),
            ),
            (
                "hist",
                owned(&["rows", "sealed_segments", "tail_rows", "dict_words"]),
            ),
            (
                "repl",
                owned(&[
                    "commit_index",
                    "leader_commit",
                    "followers_total",
                    "followers_alive",
                    "streamed_records",
                    "acks",
                    "quorum_stalls",
                    "snapshot_installs",
                    "elections",
                ]),
            ),
        ]
        .into_iter()
        .map(|(entity, params)| (entity.to_string(), params.into_iter().collect()))
        .collect();
        assert_eq!(published(&stack), expected);
    }

    #[test]
    fn unarmed_replication_contributes_nothing() {
        let stack = ServiceStack::over(two_site_grid());
        stack.poll();
        let names = published(&stack);
        assert!(!names.contains_key("repl"), "{names:?}");
        assert!(
            names.values().flatten().all(|p| !p.starts_with("repl_")),
            "{names:?}"
        );
        assert_eq!(names["hist"].len(), 4, "the armed sources still report");
    }

    #[test]
    fn metrics_published_at_build_and_advance() {
        let grid = two_site_grid();
        assert_eq!(grid.monitor().site_load(SiteId::new(1)), Some(3.0));
        assert_eq!(grid.monitor().site_load(SiteId::new(2)), Some(0.0));
        grid.advance_to(SimTime::from_secs(10));
        assert_eq!(grid.now(), SimTime::from_secs(10));
        assert_eq!(grid.monitor().queue_length(SiteId::new(2)), Some(0.0));
    }
}
