//! The deployable Estimator Service: runtime estimates over the
//! columnar history's views, queue-time estimates over each site's
//! execution service, the transfer estimator, and the XML-RPC facade.

use crate::estimator::queue_time::{estimate_queue_time, queue_time_for_new};
use crate::estimator::runtime::{EstimateNote, RuntimeEstimate, TierPolicy};
use crate::estimator::transfer::TransferEstimator;
use crate::grid::Grid;
use crate::hist::HistFunnel;
use gae_rpc::{Method, Methods};
use gae_trace::{ParagonRecord, TaskMeta};
use gae_types::{CondorId, FileRef, GaeError, GaeResult, SimDuration, SiteId, TaskSpec};
use gae_wire::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The Estimator Service (§6), one instance per GAE deployment.
pub struct EstimatorService {
    grid: Arc<Grid>,
    /// Runtime estimates read its store's views.
    hist: Arc<HistFunnel>,
    policy: TierPolicy,
    transfer: TransferEstimator,
    /// Memoised [`Self::estimate_runtime`] results. A runtime estimate
    /// is a pure function of the site's task history and the task's
    /// metadata tuple, so it stays valid until that site's history (or
    /// estimator) changes — the steering/flocking poll asks for the
    /// same `(site, meta)` estimate many times between changes. Keyed
    /// by site first so a lookup borrows the caller's `TaskMeta` and
    /// invalidating a site is one `remove`.
    memo: RwLock<HashMap<SiteId, HashMap<TaskMeta, RuntimeEstimate>>>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

impl EstimatorService {
    /// Estimates runtimes over `hist`'s views and transfers over the
    /// grid's network model.
    pub(crate) fn new(grid: Arc<Grid>, hist: Arc<HistFunnel>) -> Self {
        let transfer = TransferEstimator::new(grid.network().clone(), 2005);
        transfer.attach_live_links(Arc::new(crate::grid::GridLinkView(grid.clone())));
        EstimatorService {
            grid,
            hist,
            policy: TierPolicy::default(),
            transfer,
            memo: RwLock::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
        }
    }

    /// Drops every memoised estimate for `site`; called whenever the
    /// inputs an estimate depends on may have changed.
    pub(crate) fn invalidate_site(&self, site: SiteId) {
        self.memo.write().remove(&site);
    }

    /// `(hits, misses)` of the estimate memo cache since start-up.
    pub fn memo_stats(&self) -> (u64, u64) {
        (
            self.memo_hits.load(Ordering::Relaxed),
            self.memo_misses.load(Ordering::Relaxed),
        )
    }

    /// `NotFound` unless the grid has `site`.
    fn known(&self, site: SiteId) -> GaeResult<()> {
        let missing = || GaeError::NotFound(format!("runtime estimator at {site}"));
        self.grid.description(site).map(drop).map_err(|_| missing())
    }

    /// Seeds a site's history from an accounting trace; returns its
    /// successful records' count.
    pub fn seed_history(&self, site: SiteId, records: &[ParagonRecord]) -> GaeResult<usize> {
        self.known(site)?;
        // The columnar store takes every record — failures too, flagged
        // on the success column — with the same Paragon field quirks
        // `TaskMeta::from_record` applies (the trace has no executable
        // column; the account stands in).
        for r in records {
            self.hist.ingest(gae_hist::HistRecord {
                task: 0,
                site: site.raw(),
                nodes: r.nodes as u64,
                submit_us: r.submitted.as_micros(),
                start_us: r.started.as_micros(),
                finish_us: r.completed.as_micros(),
                runtime_us: r.runtime().as_micros(),
                success: r.success,
                account: r.account.clone(),
                login: r.login.clone(),
                executable: r.account.clone(),
                queue: r.queue.clone(),
                partition: r.partition.clone(),
                job_type: r.job_type.to_string(),
            });
        }
        self.invalidate_site(site);
        Ok(records.iter().filter(|r| r.success).count())
    }

    /// Drops `site`'s memoised estimates after a completion there.
    /// `meta` and `runtime` are unused (the completion reaches the
    /// history as a funnel row); `perf history_estimate` passes them.
    pub fn observe_completion(&self, site: SiteId, _meta: TaskMeta, _runtime: SimDuration) {
        self.invalidate_site(site);
    }

    /// §6.1: predicted runtime of `spec` at `site`.
    pub fn estimate_runtime(&self, site: SiteId, spec: &TaskSpec) -> GaeResult<RuntimeEstimate> {
        self.estimate_meta(site, &TaskMeta::from_spec(spec))
    }

    /// Memoised estimate for an already-extracted metadata tuple.
    fn estimate_meta(&self, site: SiteId, meta: &TaskMeta) -> GaeResult<RuntimeEstimate> {
        let cached = self
            .memo
            .read()
            .get(&site)
            .and_then(|m| m.get(meta).copied());
        if let Some(cached) = cached {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(cached);
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        self.known(site)?;
        let estimate = self.policy.views(self.hist.store(), site, meta)?;
        self.memo
            .write()
            .entry(site)
            .or_default()
            .insert(meta.clone(), estimate);
        Ok(estimate)
    }

    /// [`Self::estimate_meta`]'s runtime for each of `metas` at one
    /// site, into `out` (cleared first; `None` where the site cannot
    /// estimate). A site the grid lacks or with no successful history,
    /// and nothing memoised, fails every lookup, counted as misses in
    /// one step; any other site goes task by task. Either way
    /// `memo_stats` moves as per-task calls would move it.
    pub(crate) fn estimate_metas(
        &self,
        site: SiteId,
        metas: &[TaskMeta],
        out: &mut Vec<Option<SimDuration>>,
    ) {
        out.clear();
        let no_history =
            self.known(site).is_err() || self.hist.store().site_successes(site.raw()) == 0;
        if no_history && !self.memo.read().contains_key(&site) {
            self.memo_misses
                .fetch_add(metas.len() as u64, Ordering::Relaxed);
            out.resize(metas.len(), None);
            return;
        }
        out.extend(
            metas
                .iter()
                .map(|meta| self.estimate_meta(site, meta).ok().map(|e| e.runtime)),
        );
    }

    /// Records the runtime "estimated at the time of task submission"
    /// (§6.2c) on the task's record at the site's execution service.
    pub fn record_submission(&self, site: SiteId, condor: CondorId, estimate: SimDuration) {
        let Ok(exec) = self.grid.exec(site) else {
            return;
        };
        if exec.lock().set_estimate(condor, Some(estimate)).is_ok() {
            // A new live task changes what subsequent estimates should
            // see at this site (conservative; keeps the cache honest
            // even if an estimator starts consulting live state).
            self.invalidate_site(site);
        }
    }

    /// The stored submission-time estimate, if any.
    pub fn submission_estimate(&self, site: SiteId, condor: CondorId) -> Option<SimDuration> {
        let exec = self.grid.exec(site).ok()?;
        let exec = exec.lock();
        exec.record(condor).ok()?.estimated
    }

    /// Clears a finished task's submission-time estimate (§6.2 only
    /// consults live tasks, so one kept on a collected/killed task's
    /// record is dead weight). Called from the steering collect path
    /// and from exec completion replay; a miss is fine — flocked tasks
    /// may have their estimate recorded under the destination site
    /// only.
    pub fn evict_submission(&self, site: SiteId, condor: CondorId) {
        let Ok(exec) = self.grid.exec(site) else {
            return;
        };
        let evicted = exec.lock().set_estimate(condor, None);
        if matches!(evicted, Ok(Some(_))) {
            self.invalidate_site(site);
        }
    }

    /// Number of live submission-time estimates across every site
    /// (boundedness diagnostics for tests and monitoring).
    pub fn submission_estimate_count(&self) -> usize {
        self.grid
            .sites()
            .map(|(_, exec)| exec.lock().estimate_count())
            .sum()
    }

    /// §6.2: queue time of an already-submitted task, by Condor id.
    pub fn estimate_queue_time(&self, site: SiteId, condor: CondorId) -> GaeResult<SimDuration> {
        let exec = self.grid.exec(site)?;
        let exec = exec.lock();
        estimate_queue_time(&exec, condor)
    }

    /// Queue time a *new* task would face at `site` (used by the
    /// scheduler before submission): the sum of estimated-remaining
    /// runtimes of live tasks with priority above the spec's.
    pub fn estimate_queue_time_for_spec(
        &self,
        site: SiteId,
        spec: &TaskSpec,
    ) -> GaeResult<SimDuration> {
        let exec = self.grid.exec(site)?;
        let exec = exec.lock();
        Ok(queue_time_for_new(&exec, spec.priority))
    }

    /// §6.3: staging time for a task's input set to `site`.
    pub fn estimate_transfer(&self, files: &[FileRef], to: SiteId) -> GaeResult<SimDuration> {
        self.transfer.estimate_inputs(files, to)
    }

    /// The transfer estimator itself.
    pub fn transfer(&self) -> &TransferEstimator {
        &self.transfer
    }
}

/// XML-RPC facade, registered as the `estimator` service.
pub struct EstimatorRpc {
    service: Arc<EstimatorService>,
}

impl EstimatorRpc {
    /// Wraps the service for RPC registration.
    pub fn new(service: Arc<EstimatorService>) -> Self {
        EstimatorRpc { service }
    }
}

impl Methods for EstimatorRpc {
    const NAME: &'static str = "estimator";
    const METHODS: &'static [Method<Self>] = &[
        // estimate_runtime(site, login, executable, queue, partition,
        // nodes, job_type). A hash probe once warm, but the first query
        // of a column set builds its runtime view in one pass over
        // every history row under the store's write lock — unbounded
        // in the history, so it keeps to the pool.
        Method {
            name: "estimate_runtime",
            help: "history-based runtime prediction for a task at a site",
            inline: false,
            handler: |s, _, p| {
                let [site, login, executable, queue, partition, nodes, job_type] = p.exact(
                    "estimate_runtime(site, login, executable, queue, partition, nodes, job_type)",
                )?;
                let site = SiteId::new(site.as_u64()?);
                let meta = TaskMeta {
                    account: String::new(),
                    login: login.as_str()?.to_string(),
                    executable: executable.as_str()?.to_string(),
                    queue: queue.as_str()?.to_string(),
                    partition: partition.as_str()?.to_string(),
                    nodes: u32::try_from(nodes.as_u64()?)
                        .map_err(|_| GaeError::Parse("nodes out of range".into()))?,
                    job_type: job_type.as_str()?.parse()?,
                };
                let est = s.service.estimate_meta(site, &meta)?;
                let mut members = vec![
                    ("runtime_s", Value::from(est.runtime.as_secs_f64())),
                    ("template_tier", Value::Int64(est.template_tier as i64)),
                    ("samples", Value::Int64(est.samples as i64)),
                    ("used_regression", Value::Bool(est.used_regression)),
                    ("std_dev_s", Value::from(est.std_dev_s)),
                ];
                if let Some(EstimateNote::MomentsSaturated) = est.note {
                    members.push(("note", Value::from("moments_saturated")));
                }
                Ok(Value::struct_of(members))
            },
        },
        // One site lock and a read of the backlog index,
        // O(priorities + slots).
        Method {
            name: "queue_time",
            help: "estimated queue wait of a submitted task (by Condor id)",
            inline: true,
            handler: |s, _, p| {
                let [site, condor] = p.exact("queue_time(site, condor)")?;
                let site = SiteId::new(site.as_u64()?);
                let d = s
                    .service
                    .estimate_queue_time(site, CondorId::new(condor.as_u64()?))?;
                Ok(Value::from(d.as_secs_f64()))
            },
        },
        Method {
            name: "transfer_time",
            help: "estimated seconds to move N bytes between two sites",
            inline: false,
            handler: |s, _, p| {
                let [from, to, bytes] = p.exact("transfer_time(from, to, bytes)")?;
                let (from, to) = (SiteId::new(from.as_u64()?), SiteId::new(to.as_u64()?));
                let d = s
                    .service
                    .transfer
                    .estimate_bytes(from, to, bytes.as_u64()?)?;
                Ok(Value::from(d.as_secs_f64()))
            },
        },
        Method {
            name: "measured_bandwidth",
            help: "iperf-measured bandwidth between two sites (bytes/s)",
            inline: false,
            handler: |s, _, p| {
                let [from, to] = p.exact("measured_bandwidth(from, to)")?;
                let (from, to) = (SiteId::new(from.as_u64()?), SiteId::new(to.as_u64()?));
                Ok(Value::from(s.service.transfer.measured_bandwidth(from, to)))
            },
        },
    ];
}
