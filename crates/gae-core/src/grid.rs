//! The grid fabric and the service composition root.
//!
//! [`Grid`] binds the per-site execution services, the MonALISA
//! repository and the network model into one object with a single
//! virtual clock. [`ServiceStack`] wires the paper's full
//! architecture over a grid — scheduler, estimators, job monitoring,
//! steering, quota — and drives it forward in time, interleaving
//! execution-service events with the services' polling loops exactly
//! the way Figure 1's deployment would.

use crate::estimator::EstimatorService;
use crate::jobmon::JobMonitoringService;
use crate::persist::{self, Persistence, PersistenceConfig, RecoveryReport};
use crate::provider::GridSiteInfo;
use crate::quota::QuotaService;
use crate::steering::{SteeringPolicy, SteeringService};
use gae_durable::DurableStore;
use gae_exec::{Checkpoint, ExecEvent, ExecutionService, SiteConfig};
use gae_gate::{Gate, GateClass, GateConfig, Principal};
use gae_monitor::{MetricKey, MonAlisaRepository, Sample};
use gae_sched::Scheduler;
use gae_sim::{LoadTrace, NetworkModel};
use gae_types::{
    Clock, ConcretePlan, CondorId, GaeError, GaeResult, JobSpec, SimDuration, SimTime,
    SiteDescription, SiteId, TaskSpec,
};
use gae_xfer::{XferConfig, XferScheduler, XferUpdate};
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// How [`Grid::advance_to`] fans work across the sites.
///
/// Sites are independent state machines between service polls, so the
/// sharded driver produces *bit-identical* results to the sequential
/// one — see DESIGN.md ("Sharded driver determinism contract"). The
/// mode is therefore purely a throughput knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DriverMode {
    /// Advance sites one after another on the calling thread.
    #[default]
    Sequential,
    /// Fan site advancement, metric collection and event draining
    /// across a fixed pool of scoped worker threads.
    Sharded {
        /// Worker count (clamped to at least 1 and at most the number
        /// of sites when applied).
        threads: usize,
    },
}

impl DriverMode {
    /// Sharded mode with `threads` workers (at least 1).
    pub fn sharded(threads: usize) -> Self {
        DriverMode::Sharded {
            threads: threads.max(1),
        }
    }

    /// Sharded mode sized to the machine's available parallelism.
    pub fn sharded_auto() -> Self {
        Self::sharded(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

/// Interned metric keys for one site, built once at grid construction
/// so the per-tick publication loop performs no string allocation.
struct SiteMetricKeys {
    /// Farm-wide CPU load.
    site_load: MetricKey,
    /// Farm-wide queue length.
    queue_length: MetricKey,
    /// Per node, in `nodes()` order: (`cpu_load`, `busy_slots`).
    node_keys: Vec<(MetricKey, MetricKey)>,
}

/// Cross-site next-event index. Every execution service pushes its
/// cached next-event instant here through a notifier installed at
/// build time, so the driver's [`Grid::next_event_time`] costs one
/// heap peek instead of locking and scanning every site per loop
/// iteration. Same lazy-invalidation discipline as the per-service
/// heaps: `current` is authoritative, heap entries are live only
/// while they still match it (DESIGN.md §15).
#[derive(Default)]
struct NextEventIndex {
    /// Authoritative per-site next event (absent = site is idle).
    current: BTreeMap<SiteId, SimTime>,
    /// Lazy min-heap over `current`, keyed `(instant, site)` so ties
    /// resolve by site id — deterministic in both driver modes.
    heap: BinaryHeap<Reverse<(SimTime, SiteId)>>,
    /// Memoised combined (sites + transfer plane) answer; cleared by
    /// any site notification and by every transfer-plane mutation.
    cached: Option<Option<SimTime>>,
}

impl NextEventIndex {
    /// Records a site's new next-event instant (or its draining).
    fn note(&mut self, site: SiteId, next: Option<SimTime>) {
        match next {
            Some(t) => {
                self.current.insert(site, t);
                self.heap.push(Reverse((t, site)));
            }
            None => {
                self.current.remove(&site);
            }
        }
        self.cached = None;
    }

    /// Earliest live site event, pruning entries whose site has since
    /// re-notified with a different instant or gone idle.
    fn site_min(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, site))) = self.heap.peek() {
            if self.current.get(&site) == Some(&t) {
                return Some(t);
            }
            self.heap.pop();
        }
        None
    }
}

/// The execution fabric: sites + monitoring + network, one clock.
pub struct Grid {
    sites: BTreeMap<SiteId, Arc<Mutex<ExecutionService>>>,
    descriptions: BTreeMap<SiteId, SiteDescription>,
    monitor: Arc<MonAlisaRepository>,
    network: NetworkModel,
    now: RwLock<SimTime>,
    /// Directed flocking partnerships: queued work at the key site
    /// may overflow to the listed partners (Condor flocking, §7).
    flock_partners: RwLock<BTreeMap<SiteId, Vec<SiteId>>>,
    /// Pre-interned publication keys, one entry per site.
    metric_keys: BTreeMap<SiteId, SiteMetricKeys>,
    /// The managed data plane: every inter-site byte moves through it.
    xfer: Mutex<XferScheduler>,
    /// Cached cross-site next-event minimum, fed by per-site
    /// notifiers; shared (`Arc`) because those notifier closures
    /// capture it without holding the grid itself.
    next_index: Arc<Mutex<NextEventIndex>>,
    /// Sequential or sharded advancement (fixed at build time).
    driver: DriverMode,
    /// Where a service stack over this grid should persist itself.
    persist_config: Option<PersistenceConfig>,
    /// Admission-control policy for service stacks over this grid.
    gate_config: Option<GateConfig>,
}

/// Builder for [`Grid`].
pub struct GridBuilder {
    configs: Vec<SiteConfig>,
    network: NetworkModel,
    monitor: Option<Arc<MonAlisaRepository>>,
    driver: DriverMode,
    persist: Option<PersistenceConfig>,
    gate: Option<GateConfig>,
    xfer: Option<XferConfig>,
}

impl GridBuilder {
    /// Starts an empty grid over the default 2005-era WAN.
    pub fn new() -> Self {
        GridBuilder {
            configs: Vec::new(),
            network: NetworkModel::wan_2005(),
            monitor: None,
            driver: DriverMode::Sequential,
            persist: None,
            gate: None,
            xfer: None,
        }
    }

    /// Configures the transfer scheduler (retry policy, storage
    /// budgets, history depth). Without it the data plane runs with
    /// [`XferConfig::with_defaults`].
    pub fn xfer(mut self, config: XferConfig) -> Self {
        self.xfer = Some(config);
        self
    }

    /// Sets the admission-control policy for service stacks built
    /// over this grid: per-principal rate limits, the bounded
    /// priority admission queue, and downstream circuit breakers.
    /// Without it the gate runs with [`GateConfig::default`].
    pub fn gate(mut self, config: GateConfig) -> Self {
        self.gate = Some(config);
        self
    }

    /// Selects the advancement driver (sequential by default).
    pub fn driver(mut self, driver: DriverMode) -> Self {
        self.driver = driver;
        self
    }

    /// Asks any [`ServiceStack`] built over this grid to persist its
    /// state (WAL + snapshots) in `config.dir`. Creating a stack over
    /// a directory that already holds a store fails — recover it with
    /// [`ServiceStack::recover_from_disk`] instead.
    pub fn persist(mut self, config: PersistenceConfig) -> Self {
        self.persist = Some(config);
        self
    }

    /// Adds a site whose nodes are free.
    pub fn site(mut self, description: SiteDescription) -> Self {
        self.configs.push(SiteConfig::free(description));
        self
    }

    /// Adds a site with constant external load on every node.
    pub fn site_with_load(mut self, description: SiteDescription, load: f64) -> Self {
        self.configs.push(SiteConfig::uniform_load(
            description,
            LoadTrace::constant(load),
        ));
        self
    }

    /// Adds a site with an explicit per-node trace configuration.
    pub fn site_with_config(mut self, config: SiteConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Replaces the network model.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Uses an existing monitoring repository (sharing with an
    /// external dashboard).
    pub fn monitor(mut self, monitor: Arc<MonAlisaRepository>) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Builds the grid.
    pub fn build(self) -> Arc<Grid> {
        let monitor = self
            .monitor
            .unwrap_or_else(MonAlisaRepository::with_defaults);
        let mut sites = BTreeMap::new();
        let mut descriptions = BTreeMap::new();
        for config in self.configs {
            let id = config.description.id;
            descriptions.insert(id, config.description.clone());
            sites.insert(id, Arc::new(Mutex::new(ExecutionService::new(config))));
        }
        // Intern every publication key up front: two shared parameter
        // names, one entity name per node. The hot loop then only
        // clones `Arc`s.
        let cpu_load: Arc<str> = Arc::from("cpu_load");
        let busy_slots: Arc<str> = Arc::from("busy_slots");
        let mut metric_keys = BTreeMap::new();
        for (id, site) in &sites {
            let exec = site.lock();
            let node_keys = exec
                .nodes()
                .iter()
                .map(|node| {
                    let entity: Arc<str> = Arc::from(node.id.to_string());
                    (
                        MetricKey::new(*id, entity.clone(), cpu_load.clone()),
                        MetricKey::new(*id, entity, busy_slots.clone()),
                    )
                })
                .collect();
            metric_keys.insert(
                *id,
                SiteMetricKeys {
                    site_load: MetricKey::site_wide(*id, cpu_load.clone()),
                    queue_length: MetricKey::site_wide(*id, "queue_length"),
                    node_keys,
                },
            );
        }
        let xfer = XferScheduler::new(
            self.network.clone(),
            sites.keys().copied(),
            self.xfer.unwrap_or_else(XferConfig::with_defaults),
        );
        // Wire every site's next-event notifier into the shared index
        // before the grid goes live; installation synchronously
        // reports the service's current answer, so the index starts
        // consistent even for sites built with queued state.
        let next_index = Arc::new(Mutex::new(NextEventIndex::default()));
        for (id, site) in &sites {
            let idx = next_index.clone();
            let sid = *id;
            site.lock()
                .set_event_notifier(Box::new(move |next| idx.lock().note(sid, next)));
        }
        let grid = Arc::new(Grid {
            sites,
            descriptions,
            monitor,
            network: self.network,
            now: RwLock::new(SimTime::ZERO),
            flock_partners: RwLock::new(BTreeMap::new()),
            metric_keys,
            xfer: Mutex::new(xfer),
            next_index,
            driver: self.driver,
            persist_config: self.persist,
            gate_config: self.gate,
        });
        grid.publish_metrics();
        grid
    }
}

impl Default for GridBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// [`gae_xfer::LinkView`] over a grid: the transfer estimator reads
/// live link state (injected faults, active drain counts) straight
/// from the transfer scheduler, so dead links surface as typed
/// unreachable errors and contended links degrade to their fair
/// share.
pub struct GridLinkView(pub Arc<Grid>);

impl gae_xfer::LinkView for GridLinkView {
    fn blocked(&self, from: SiteId, to: SiteId) -> bool {
        self.0.xfer.lock().link_blocked(from, to)
    }

    fn active(&self, from: SiteId, to: SiteId) -> usize {
        self.0.xfer.lock().active_on(from, to)
    }
}

impl Grid {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        *self.now.read()
    }

    /// All site ids, sorted.
    pub fn site_ids(&self) -> Vec<SiteId> {
        self.sites.keys().copied().collect()
    }

    /// Every site's execution service, in site-id order.
    pub fn sites(&self) -> impl Iterator<Item = (SiteId, &Arc<Mutex<ExecutionService>>)> {
        self.sites.iter().map(|(id, exec)| (*id, exec))
    }

    /// A site's static description.
    pub fn description(&self, site: SiteId) -> GaeResult<&SiteDescription> {
        self.descriptions
            .get(&site)
            .ok_or_else(|| GaeError::NotFound(site.to_string()))
    }

    /// The execution service of a site.
    pub fn exec(&self, site: SiteId) -> GaeResult<Arc<Mutex<ExecutionService>>> {
        self.sites
            .get(&site)
            .cloned()
            .ok_or_else(|| GaeError::NotFound(site.to_string()))
    }

    /// The shared monitoring repository.
    pub fn monitor(&self) -> &Arc<MonAlisaRepository> {
        &self.monitor
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Submits a task to a site's execution service. Input files not
    /// replicated at the site are staged through the transfer
    /// scheduler first: the task spends the *contended* transfer time
    /// of its input chain in `Pending` before it can queue, and the
    /// release instant is corrected as link load changes.
    pub fn submit(
        &self,
        site: SiteId,
        spec: TaskSpec,
        checkpoint: Option<Checkpoint>,
    ) -> GaeResult<CondorId> {
        let exec = self.exec(site)?;
        let plan = self.with_xfer(|x| x.plan_stage(site, &spec.input_files));
        match plan {
            None => exec
                .lock()
                .submit_staged(spec, checkpoint, SimDuration::ZERO),
            Some((token, projection)) => {
                let stage_in = projection.saturating_since(self.now());
                let admitted = exec.lock().submit_staged(spec, checkpoint, stage_in);
                match admitted {
                    Ok(condor) => {
                        self.with_xfer(|x| x.bind_chain(token, condor.raw()));
                        Ok(condor)
                    }
                    Err(e) => {
                        self.with_xfer(|x| x.cancel_chain(token));
                        Err(e)
                    }
                }
            }
        }
    }

    /// Runs a closure against the transfer scheduler, then applies
    /// whatever staging corrections it produced to the execution
    /// services. The xfer lock is released before any exec lock is
    /// taken, so the two subsystems never deadlock.
    pub fn with_xfer<R>(&self, f: impl FnOnce(&mut XferScheduler) -> R) -> R {
        let (result, updates) = {
            let mut xfer = self.xfer.lock();
            let result = f(&mut xfer);
            (result, xfer.drain_updates())
        };
        // The closure may have moved transfer-plane events; the memo
        // over the combined minimum is no longer trustworthy. (Site
        // notifiers fired by the updates below clear it again, but
        // pins-only mutations produce no updates.)
        self.next_index.lock().cached = None;
        self.apply_xfer_updates(updates);
        result
    }

    fn apply_xfer_updates(&self, updates: Vec<XferUpdate>) {
        for update in updates {
            match update {
                XferUpdate::Restage {
                    site,
                    condor,
                    until,
                } => {
                    // NotFound here means the chain was pins-only and
                    // the task queued immediately — nothing to move.
                    if let Ok(exec) = self.exec(site) {
                        let _ = exec.lock().restage(CondorId::new(condor), until);
                    }
                }
                XferUpdate::StagingFailed {
                    site,
                    condor,
                    reason,
                } => {
                    if let Ok(exec) = self.exec(site) {
                        let _ = exec.lock().fail_staging(CondorId::new(condor), &reason);
                    }
                }
            }
        }
    }

    /// Releases a task's data-plane footprint (staged-input pins,
    /// unfinished chain transfers). Steering calls this whenever a
    /// task leaves a site for good: completion, permanent failure,
    /// kill, or migration.
    pub fn release_task_data(&self, site: SiteId, condor: CondorId) {
        self.with_xfer(|x| x.release_task(site, condor.raw()));
    }

    /// A point-in-time transfer-plane metrics snapshot.
    pub fn xfer_metrics(&self) -> gae_xfer::XferMetrics {
        self.xfer.lock().metrics()
    }

    /// Ground-truth input staging time at a site: sequential transfer
    /// of every missing input from its nearest *reachable* replica.
    /// Files with no replica anywhere are produced by the job itself
    /// and cost nothing; replicas behind dead or zero-bandwidth links
    /// are skipped, and a file whose every replica is unreachable is
    /// the estimator's typed error — not a finite time over a link
    /// that cannot carry the bytes.
    pub fn staging_time(&self, site: SiteId, spec: &TaskSpec) -> GaeResult<SimDuration> {
        let xfer = self.xfer.lock();
        let mut total = SimDuration::ZERO;
        for f in spec
            .input_files
            .iter()
            .filter(|f| !f.available_at(site) && !f.replicas.is_empty())
        {
            let best = f
                .replicas
                .iter()
                .filter(|src| !xfer.link_blocked(**src, site))
                .map(|src| self.network.transfer_time(*src, site, f.size_bytes))
                .min();
            match best {
                Some(t) => total += t,
                None => {
                    return Err(GaeError::Estimator(format!(
                        "{} has no reachable replica to stage to {site} (of {})",
                        f.logical_name,
                        f.replicas.len()
                    )))
                }
            }
        }
        Ok(total)
    }

    /// Whether a site's execution service answers.
    pub fn is_alive(&self, site: SiteId) -> bool {
        self.sites
            .get(&site)
            .map(|s| s.lock().is_alive())
            .unwrap_or(false)
    }

    /// The earliest pending completion across all sites and the
    /// transfer plane.
    ///
    /// O(1) when nothing changed since the last call: the combined
    /// minimum is memoised and invalidated only by mutation (site
    /// notifiers, [`Grid::with_xfer`]), so the driver's idle loop no
    /// longer re-locks every site. Lock order is index → xfer; site
    /// notifiers take exec → index; nothing takes xfer → exec or
    /// xfer → index, so the three pairs cannot cycle.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut idx = self.next_index.lock();
        if let Some(memo) = idx.cached {
            return memo;
        }
        let site_event = idx.site_min();
        let xfer_event = self.xfer.lock().next_event_time();
        let next = match (site_event, xfer_event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        idx.cached = Some(next);
        next
    }

    /// The same answer by brute force — lock and scan every site plus
    /// the transfer plane. Retained as the differential oracle for the
    /// cached index and as the bench baseline; not for the hot path.
    #[doc(hidden)]
    pub fn next_event_time_uncached(&self) -> Option<SimTime> {
        let site_event = self
            .sites
            .values()
            .filter_map(|s| s.lock().next_event_time())
            .min();
        let xfer_event = self.xfer.lock().next_event_time();
        match (site_event, xfer_event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The configured advancement driver.
    pub fn driver_mode(&self) -> DriverMode {
        self.driver
    }

    /// The persistence configuration the builder attached, if any.
    pub fn persistence_config(&self) -> Option<&PersistenceConfig> {
        self.persist_config.as_ref()
    }

    /// The admission-control policy the builder attached, if any.
    pub fn gate_config(&self) -> Option<GateConfig> {
        self.gate_config
    }

    /// The sites partitioned into at most `threads` contiguous chunks
    /// of id-sorted order. Contiguity is what makes shard-wise
    /// concatenation reproduce the sequential site iteration order.
    fn site_chunks(&self, threads: usize) -> Vec<Vec<(SiteId, Arc<Mutex<ExecutionService>>)>> {
        let entries: Vec<(SiteId, Arc<Mutex<ExecutionService>>)> = self
            .sites
            .iter()
            .map(|(id, site)| (*id, site.clone()))
            .collect();
        if entries.is_empty() {
            return Vec::new();
        }
        let threads = threads.clamp(1, entries.len());
        entries
            .chunks(entries.len().div_ceil(threads))
            .map(<[_]>::to_vec)
            .collect()
    }

    /// Applies `work` to every shard and returns the per-shard results
    /// in shard (= site) order. The first chunk runs on the calling
    /// thread; additional chunks get scoped worker threads. A single
    /// chunk therefore costs no thread spawn at all, which keeps
    /// `DriverMode::sharded(1)` within noise of sequential.
    fn run_sharded<T: Send>(
        &self,
        threads: usize,
        work: impl Fn(&[(SiteId, Arc<Mutex<ExecutionService>>)]) -> T + Sync,
    ) -> Vec<T> {
        let chunks = self.site_chunks(threads);
        if chunks.len() <= 1 {
            return chunks.iter().map(|chunk| work(chunk)).collect();
        }
        let work = &work;
        crossbeam::thread::scope(|scope| {
            let (first, rest) = chunks.split_first().expect("checked non-empty");
            let handles: Vec<_> = rest
                .iter()
                .map(|chunk| scope.spawn(move |_| work(chunk)))
                .collect();
            let mut results = vec![work(first)];
            results.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard panicked")),
            );
            results
        })
        .expect("shard scope panicked")
    }

    /// Advances every site to `t` and publishes fresh metrics.
    ///
    /// The transfer plane advances first, on the calling thread:
    /// landings re-project contended chains and the resulting
    /// `Restage`/`StagingFailed` corrections reach the execution
    /// services *before* the sites themselves advance, in both driver
    /// modes — part of the sharded-determinism contract.
    pub fn advance_to(&self, t: SimTime) {
        {
            let mut now = self.now.write();
            assert!(t >= *now, "grid cannot advance backwards");
            *now = t;
        }
        self.with_xfer(|x| x.advance_to(t));
        match self.driver {
            DriverMode::Sequential => {
                for site in self.sites.values() {
                    site.lock().advance_to(t);
                }
            }
            DriverMode::Sharded { threads } => {
                // Sites are independent between polls: no cross-site
                // state is touched while advancing, so shard order
                // cannot influence the result.
                self.run_sharded(threads, |chunk| {
                    for (_, site) in chunk {
                        site.lock().advance_to(t);
                    }
                });
            }
        }
        self.publish_metrics();
    }

    /// Collects one tick's samples for a run of sites, in site order:
    /// farm load, queue length, then per-node load and slot occupancy.
    fn collect_samples(
        &self,
        sites: &[(SiteId, Arc<Mutex<ExecutionService>>)],
        now: SimTime,
    ) -> Vec<(MetricKey, Sample)> {
        let mut out = Vec::new();
        for (id, site) in sites {
            let site = site.lock();
            let keys = &self.metric_keys[id];
            out.push((
                keys.site_load.clone(),
                Sample {
                    at: now,
                    value: site.current_load(),
                },
            ));
            out.push((
                keys.queue_length.clone(),
                Sample {
                    at: now,
                    value: site.queue_length() as f64,
                },
            ));
            for (node, (load_key, slots_key)) in site.nodes().iter().zip(&keys.node_keys) {
                out.push((
                    load_key.clone(),
                    Sample {
                        at: now,
                        value: node.load_at(now),
                    },
                ));
                out.push((
                    slots_key.clone(),
                    Sample {
                        at: now,
                        value: f64::from(node.busy_slots()),
                    },
                ));
            }
        }
        out
    }

    /// Publishes per-site load and queue length to MonALISA (§6.1d's
    /// "status of load at execution sites"), plus per-node load and
    /// slot occupancy (MonALISA's Farm/Node hierarchy).
    ///
    /// All of a tick's samples go to the repository as one
    /// [`MonAlisaRepository::publish_batch`] call — one store-lock
    /// acquisition per tick instead of one per metric — using the keys
    /// interned at construction. Sample order is site order regardless
    /// of driver mode.
    pub fn publish_metrics(&self) {
        let now = self.now();
        let samples = match self.driver {
            DriverMode::Sequential => {
                let entries: Vec<(SiteId, Arc<Mutex<ExecutionService>>)> = self
                    .sites
                    .iter()
                    .map(|(id, site)| (*id, site.clone()))
                    .collect();
                self.collect_samples(&entries, now)
            }
            DriverMode::Sharded { threads } => {
                // Chunks are contiguous in site order, so in-order
                // concatenation equals the sequential sample order.
                self.run_sharded(threads, |chunk| self.collect_samples(chunk, now))
                    .into_iter()
                    .flatten()
                    .collect()
            }
        };
        self.monitor.publish_batch(samples);
    }

    /// Enables directed flocking: queued work at `from` may overflow
    /// to `to` when `to` has free slots ("flocking is enabled between
    /// site A and Site B", §7).
    pub fn enable_flocking(&self, from: SiteId, to: SiteId) {
        let mut partners = self.flock_partners.write();
        let list = partners.entry(from).or_default();
        if !list.contains(&to) {
            list.push(to);
        }
    }

    /// The flocking partners of a site.
    pub fn flock_partners(&self, from: SiteId) -> Vec<SiteId> {
        self.flock_partners
            .read()
            .get(&from)
            .cloned()
            .unwrap_or_default()
    }

    /// One flocking round: for every site with queued work and a
    /// partner with a free slot, migrate the head of the queue
    /// (carrying a checkpoint when the task supports it). Returns the
    /// moves so the steering layer can update its bookkeeping.
    pub fn flock_pass(&self) -> Vec<FlockMove> {
        let partnerships: Vec<(SiteId, Vec<SiteId>)> = self
            .flock_partners
            .read()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let mut moves = Vec::new();
        for (from, partners) in partnerships {
            loop {
                // Head of the queue at `from`, if any.
                let head = {
                    let Ok(exec) = self.exec(from) else { break };
                    let exec = exec.lock();
                    if !exec.is_alive() {
                        break;
                    }
                    exec.queue_snapshot().first().map(|e| e.condor)
                };
                let Some(condor) = head else { break };
                // A live partner with a free slot right now.
                let target = partners.iter().copied().find(|p| {
                    self.exec(*p)
                        .map(|e| {
                            let e = e.lock();
                            e.is_alive() && e.running_count() < e.site().total_slots() as usize
                        })
                        .unwrap_or(false)
                });
                let Some(to) = target else { break };
                let Ok((spec, checkpoint)) = ({
                    let exec = self.exec(from).expect("listed site");
                    let mut exec = exec.lock();
                    exec.remove_for_migration(condor)
                }) else {
                    break;
                };
                // The task is leaving `from`: drop its staged-input
                // pins there so the replicas become evictable again.
                self.release_task_data(from, condor);
                let task = spec.id;
                match self.submit(to, spec.clone(), checkpoint) {
                    Ok(new_condor) => {
                        moves.push(FlockMove {
                            task,
                            spec,
                            from,
                            to,
                            condor: new_condor,
                        });
                    }
                    Err(_) => break,
                }
            }
        }
        moves
    }

    /// Drains execution events from every site, tagged with the site,
    /// in `(site, seq)` order — ascending site id, then per-site
    /// emission order. Under the sharded driver each shard drains its
    /// own sites into a private buffer and the buffers are merged by
    /// that same key, so consumers (the job monitoring collector, the
    /// steering service) see a stream independent of driver mode.
    pub fn drain_events(&self) -> Vec<(SiteId, ExecEvent)> {
        let mut out: Vec<(SiteId, ExecEvent)> = match self.driver {
            DriverMode::Sequential => {
                let mut out = Vec::new();
                for (id, site) in &self.sites {
                    for e in site.lock().drain_events() {
                        out.push((*id, e));
                    }
                }
                out
            }
            DriverMode::Sharded { threads } => self
                .run_sharded(threads, |chunk| {
                    let mut buf = Vec::new();
                    for (id, site) in chunk {
                        for e in site.lock().drain_events() {
                            buf.push((*id, e));
                        }
                    }
                    buf
                })
                .into_iter()
                .flatten()
                .collect(),
        };
        // Make the contract explicit whatever the chunking did; the
        // buffers arrive already ordered, so this is a linear check
        // for a stable sort.
        out.sort_by_key(|(site, e)| (*site, e.seq));
        out
    }
}

/// A flocking migration performed by [`Grid::flock_pass`].
#[derive(Clone, Debug)]
pub struct FlockMove {
    /// The task that flocked.
    pub task: gae_types::TaskId,
    /// Its specification (for estimate re-registration).
    pub spec: TaskSpec,
    /// Overloaded source site.
    pub from: SiteId,
    /// Receiving partner site.
    pub to: SiteId,
    /// The Condor id assigned by the receiving site.
    pub condor: CondorId,
}

/// The grid's virtual time as a [`Clock`], shared by the gate and the
/// observability hub: admission decisions replay deterministically
/// inside simulations, and spans, histograms and lifecycle timelines
/// are deterministic functions of the workload — two runs of the same
/// seed produce byte-identical trace trees in both driver modes. (A
/// gate fronting a real TCP server wants `gae_types::WallClock`
/// instead — virtual time only advances when something drives the
/// grid.)
struct GridClock(Arc<Grid>);

impl Clock for GridClock {
    fn now(&self) -> SimTime {
        self.0.now()
    }
}

/// Interned publication keys for the gate counters, in the flattened
/// order [`gate_stat_values`] produces.
struct GateMetricKeys {
    counters: Vec<MetricKey>,
    queue_depth: MetricKey,
    peak_queue_depth: MetricKey,
}

/// The gate counter parameter names, metric-major; class suffixes
/// come from [`GateClass::ALL`] (e.g. `admitted_production`).
const GATE_COUNTER_STEMS: [&str; 5] = [
    "admitted",
    "rate_limited",
    "shed",
    "expired",
    "breaker_denied",
];

impl GateMetricKeys {
    /// Interns `(site 0, "gate", "<stem>_<class>")` for every counter
    /// plus the two queue-depth gauges.
    fn intern() -> GateMetricKeys {
        let zero = SiteId::new(0);
        let entity: Arc<str> = Arc::from("gate");
        let mut counters = Vec::with_capacity(GATE_COUNTER_STEMS.len() * GateClass::ALL.len());
        for stem in GATE_COUNTER_STEMS {
            for class in GateClass::ALL {
                counters.push(MetricKey::new(
                    zero,
                    entity.clone(),
                    format!("{stem}_{}", class.name()),
                ));
            }
        }
        GateMetricKeys {
            counters,
            queue_depth: MetricKey::new(zero, entity.clone(), "queue_depth"),
            peak_queue_depth: MetricKey::new(zero, entity, "peak_queue_depth"),
        }
    }
}

/// Flattens a [`gae_gate::GateStats`] snapshot in the same
/// metric-major, class-minor order as [`GateMetricKeys::intern`].
fn gate_stat_values(stats: &gae_gate::GateStats) -> Vec<f64> {
    [
        stats.admitted,
        stats.rate_limited,
        stats.shed,
        stats.expired,
        stats.breaker_denied,
    ]
    .iter()
    .flat_map(|arr| arr.iter().map(|v| *v as f64))
    .collect()
}

/// The full Figure 1 deployment wired over one grid.
pub struct ServiceStack {
    /// The fabric.
    pub grid: Arc<Grid>,
    /// Quota and Accounting Service (§4.2.2).
    pub quota: Arc<QuotaService>,
    /// Estimator Service (§6).
    pub estimators: Arc<EstimatorService>,
    /// Job Monitoring Service (§5).
    pub jobmon: Arc<JobMonitoringService>,
    /// Sphinx-substitute scheduler.
    pub scheduler: Arc<Scheduler>,
    /// Steering Service (§4).
    pub steering: Arc<SteeringService>,
    /// Admission control & overload protection for the front door.
    pub gate: Arc<Gate>,
    /// Columnar job-history funnel: journals every terminal task
    /// outcome into the append-only [`gae_hist::HistStore`] the
    /// estimators scan.
    pub hist: Arc<crate::hist::HistFunnel>,
    /// Observability: request traces, latency histograms, per-CondorId
    /// lifecycle timelines — all on the grid's virtual clock.
    obs: Arc<gae_obs::ObsHub>,
    /// How often the polling services run (collector + steering).
    poll_period: SimDuration,
    next_poll: Mutex<SimTime>,
    /// The durable store, when the grid was built with
    /// [`GridBuilder::persist`] or recovered from disk.
    persistence: RwLock<Option<Arc<Persistence>>>,
    /// The replication tee, when [`ServiceStack::attach_replication`]
    /// armed one (wrapped in `repl.*` instrumentation).
    replication: RwLock<Option<Arc<dyn gae_repl::ReplicationSink>>>,
    /// Interned keys for the estimator memo-cache counters published
    /// each poll (`(site 0, "estimator", "memo_hits"/"memo_misses")`).
    memo_keys: (MetricKey, MetricKey),
    /// Interned keys for the gate counters published each poll
    /// (`(site 0, "gate", ...)`).
    gate_keys: GateMetricKeys,
}

impl ServiceStack {
    /// Wires the whole architecture with default policies.
    ///
    /// Panics if the grid carries a persistence configuration whose
    /// directory cannot be initialised; use
    /// [`ServiceStack::try_with_policy`] to handle that as an error.
    pub fn over(grid: Arc<Grid>) -> Arc<ServiceStack> {
        Self::with_policy(grid, SteeringPolicy::default(), SimDuration::from_secs(5))
    }

    /// Wires the architecture with an explicit steering policy and
    /// polling period. Panics under the same conditions as
    /// [`ServiceStack::over`]; infallible for non-persistent grids.
    pub fn with_policy(
        grid: Arc<Grid>,
        policy: SteeringPolicy,
        poll_period: SimDuration,
    ) -> Arc<ServiceStack> {
        Self::try_with_policy(grid, policy, poll_period).expect("persistence initialisation failed")
    }

    /// Wires the architecture, initialising the durable store when the
    /// grid was built with [`GridBuilder::persist`]. Fails if the
    /// persistence directory already holds a store (recover it with
    /// [`ServiceStack::recover_from_disk`] instead) or cannot be
    /// written.
    pub fn try_with_policy(
        grid: Arc<Grid>,
        policy: SteeringPolicy,
        poll_period: SimDuration,
    ) -> GaeResult<Arc<ServiceStack>> {
        let stack = Self::assemble(grid, policy, poll_period);
        if let Some(config) = stack.grid.persistence_config().cloned() {
            stack.attach_persistence(Persistence::create(&config)?);
        }
        Ok(stack)
    }

    /// Wires the services without touching any persistence.
    fn assemble(
        grid: Arc<Grid>,
        policy: SteeringPolicy,
        poll_period: SimDuration,
    ) -> Arc<ServiceStack> {
        let quota = Arc::new(QuotaService::new());
        for site in grid.site_ids() {
            quota.register_site(grid.description(site).expect("listed site"));
        }
        let estimators = Arc::new(EstimatorService::new(grid.clone()));
        let jobmon = Arc::new(JobMonitoringService::new(grid.clone(), estimators.clone()));
        let info = Arc::new(GridSiteInfo::new(
            grid.clone(),
            estimators.clone(),
            quota.clone(),
        ));
        let scheduler = Arc::new(Scheduler::new(info));
        let steering = Arc::new(SteeringService::new(
            grid.clone(),
            scheduler.clone(),
            jobmon.clone(),
            estimators.clone(),
            quota.clone(),
            policy,
        ));
        // The gate reads the grid's virtual clock and classifies by
        // quota standing: a principal billed into the red (grids bill
        // after the fact) drops to Scavenger — first shed, last run.
        let clock: Arc<dyn Clock> = Arc::new(GridClock(grid.clone()));
        let gate = Gate::new(grid.gate_config().unwrap_or_default(), clock.clone());
        {
            let quota = quota.clone();
            gate.set_class_resolver(move |principal: &Principal| match principal.user {
                Some(user) if quota.balance(user) < 0.0 => GateClass::Scavenger,
                _ => GateClass::Production,
            });
        }
        steering.attach_gate(gate.clone());
        // The observability hub shares the grid's virtual clock and is
        // threaded into every layer that emits spans or instants. The
        // gate reports admission dispositions through its callback so
        // gae-gate never depends on the obs crate.
        let obs = gae_obs::ObsHub::new(clock);
        steering.attach_obs(obs.clone());
        jobmon.attach_obs(obs.clone());
        // The history funnel sits behind jobmon's DBManager: every
        // terminal task state the collector stores is also appended to
        // the columnar store, and the estimators retarget their
        // similar-task search onto its pushdown scans.
        let hist = crate::hist::HistFunnel::new(gae_hist::HistConfig::default());
        jobmon.attach_history(hist.clone());
        estimators.attach_history(hist.clone());
        {
            let hub = obs.clone();
            gate.set_disposition_observer(move |disposition, latency| {
                hub.record_gate(disposition, latency);
            });
        }
        // The transfer scheduler reports its lifecycle through a
        // callback so gae-xfer never depends on the obs crate. Every
        // event carries its own instant (the observer runs under the
        // xfer lock and must not read the grid clock).
        {
            let hub = obs.clone();
            grid.with_xfer(|x| {
                x.set_observer(Box::new(move |ev| {
                    use gae_xfer::XferEvent;
                    match ev {
                        XferEvent::Started {
                            id,
                            lfn,
                            from,
                            to,
                            at,
                        } => {
                            let ctx = hub.xfer_trace(*id, &format!("xfer {lfn} {from}->{to}"), *at);
                            hub.span_at(ctx, "xfer.start", *at);
                        }
                        XferEvent::Retried {
                            id, attempt, at, ..
                        } => {
                            let ctx = hub.xfer_trace(*id, "xfer", *at);
                            hub.span_at(ctx, &format!("xfer.retry#{attempt}"), *at);
                        }
                        XferEvent::Resourced { id, from, at } => {
                            let ctx = hub.xfer_trace(*id, "xfer", *at);
                            hub.span_at(ctx, &format!("xfer.resource {from}"), *at);
                        }
                        XferEvent::Landed {
                            id,
                            from,
                            to,
                            requested,
                            at,
                            ..
                        } => {
                            let ctx = hub.xfer_trace(*id, "xfer", *at);
                            hub.span_at(ctx, "xfer.land", *at);
                            hub.record_xfer(
                                &format!("{}->{}", from.raw(), to.raw()),
                                at.saturating_since(*requested),
                            );
                        }
                        XferEvent::Failed { id, reason, at, .. } => {
                            let ctx = hub.xfer_trace(*id, "xfer", *at);
                            hub.span_at(ctx, &format!("xfer.fail: {reason}"), *at);
                        }
                        XferEvent::Evicted { .. } => {}
                    }
                }));
            });
        }
        let memo_keys = (
            MetricKey::new(SiteId::new(0), "estimator", "memo_hits"),
            MetricKey::new(SiteId::new(0), "estimator", "memo_misses"),
        );
        Arc::new(ServiceStack {
            grid,
            quota,
            estimators,
            jobmon,
            scheduler,
            steering,
            gate,
            hist,
            obs,
            poll_period,
            next_poll: Mutex::new(SimTime::ZERO + poll_period),
            persistence: RwLock::new(None),
            replication: RwLock::new(None),
            memo_keys,
            gate_keys: GateMetricKeys::intern(),
        })
    }

    /// Routes every future state transition of the job repository and
    /// the steering tracker through the WAL.
    fn attach_persistence(&self, persistence: Arc<Persistence>) {
        self.jobmon.attach_persistence(persistence.clone());
        self.steering.attach_persistence(persistence.clone());
        self.hist.attach_persistence(persistence.clone());
        {
            let p = persistence.clone();
            self.grid.with_xfer(|x| {
                x.set_journal(Box::new(move |op| {
                    p.append("xfer", persist::xfer_to_record(op));
                }));
            });
        }
        *self.persistence.write() = Some(persistence);
    }

    /// The durable store, when one is attached.
    pub fn persistence(&self) -> Option<Arc<Persistence>> {
        self.persistence.read().clone()
    }

    /// Arms replication: every WAL append/commit/rotate this stack
    /// performs is teed to `sink` (typically a
    /// [`gae_repl::ReplicatedLog`] in attached mode), wrapped in
    /// `repl.*` span and commit-latency instrumentation. Requires an
    /// attached durable store whose commit index matches the sink's
    /// leader commit — replication must observe every commit from the
    /// point it is armed.
    pub fn attach_replication(&self, sink: Arc<dyn gae_repl::ReplicationSink>) -> GaeResult<()> {
        let Some(p) = self.persistence() else {
            return Err(GaeError::InvalidTransition {
                entity: "replication".to_string(),
                from: "no durable store attached".to_string(),
                attempted: "attach_replication".to_string(),
            });
        };
        let leader_commit = sink.stats().leader_commit;
        if p.commit_index() != leader_commit {
            return Err(GaeError::InvalidTransition {
                entity: "replication".to_string(),
                from: format!(
                    "store at commit {}, sink at {}",
                    p.commit_index(),
                    leader_commit
                ),
                attempted: "attach_replication".to_string(),
            });
        }
        let wrapped: Arc<dyn gae_repl::ReplicationSink> =
            Arc::new(crate::replication::ObsSink::new(sink, self.obs.clone()));
        p.set_replication_sink(wrapped.clone());
        *self.replication.write() = Some(wrapped);
        Ok(())
    }

    /// The instrumented replication sink, when one is armed.
    pub fn replication(&self) -> Option<Arc<dyn gae_repl::ReplicationSink>> {
        self.replication.read().clone()
    }

    /// The observability hub: request traces, latency histograms, and
    /// per-CondorId lifecycle timelines, all on the grid's virtual
    /// clock. Attach it to an RPC host
    /// ([`gae_rpc::ServiceHost::attach_obs`]) to time every dispatched
    /// method into it.
    pub fn obs(&self) -> Arc<gae_obs::ObsHub> {
        self.obs.clone()
    }

    /// Schedules a job and registers the concrete plan with the
    /// steering service (the scheduler "sends a concrete job plan to
    /// the Steering Service", §4.2.1). Ready tasks are submitted
    /// immediately; successors follow as prerequisites complete.
    pub fn submit_job(&self, job: JobSpec) -> GaeResult<ConcretePlan> {
        let plan = self
            .scheduler
            .schedule(&gae_types::AbstractPlan::new(job))?;
        self.steering.subscribe_plan(plan.clone())?;
        Ok(plan)
    }

    /// Variant of [`ServiceStack::submit_job`] with an explicit
    /// abstract plan (preferences, site restrictions).
    pub fn submit_plan(&self, plan: &gae_types::AbstractPlan) -> GaeResult<ConcretePlan> {
        let concrete = self.scheduler.schedule(plan)?;
        self.steering.subscribe_plan(concrete.clone())?;
        Ok(concrete)
    }

    /// Runs one service polling round at the current grid time:
    /// flocking first (it changes placements), then monitoring, then
    /// steering.
    pub fn poll(&self) {
        for mv in self.grid.flock_pass() {
            let estimate = self
                .estimators
                .estimate_runtime(mv.to, &mv.spec)
                .map(|e| e.runtime)
                .unwrap_or_else(|_| {
                    SimDuration::from_secs_f64(mv.spec.requested_cpu_hours * 3600.0)
                });
            self.estimators
                .record_submission(mv.to, mv.condor, estimate);
            self.steering
                .note_external_move(mv.task, mv.from, mv.to, mv.condor);
        }
        self.jobmon.poll();
        self.steering.poll();
        // History maintenance rides the poll loop: seal a lingering
        // tail and compact undersized segments on the virtual clock,
        // each decision journaled before it is applied.
        self.hist.maintain(self.grid.now());
        // Publish the estimator memo-cache counters (PR-1 perf work)
        // so dashboards and the `monalisa.*` RPC facade can watch hit
        // rates; keys are interned at construction.
        let (hits, misses) = self.estimators.memo_stats();
        let at = self.grid.now();
        let mut samples = vec![
            (
                self.memo_keys.0.clone(),
                Sample {
                    at,
                    value: hits as f64,
                },
            ),
            (
                self.memo_keys.1.clone(),
                Sample {
                    at,
                    value: misses as f64,
                },
            ),
        ];
        // Gate counters ride the same batch: admitted/shed/expired/
        // rate-limited/breaker-denied per class, queue depth gauges,
        // and one `breaker_<key>` state sample per materialised
        // breaker (closed=0, open=1, half-open=2).
        let stats = self.gate.stats();
        samples.extend(
            self.gate_keys
                .counters
                .iter()
                .zip(gate_stat_values(&stats))
                .map(|(key, value)| (key.clone(), Sample { at, value })),
        );
        samples.push((
            self.gate_keys.queue_depth.clone(),
            Sample {
                at,
                value: stats.queue_depth as f64,
            },
        ));
        samples.push((
            self.gate_keys.peak_queue_depth.clone(),
            Sample {
                at,
                value: stats.peak_queue_depth as f64,
            },
        ));
        for (key, state) in self.gate.breaker_states() {
            samples.push((
                MetricKey::new(SiteId::new(0), "gate", format!("breaker_{key}")),
                Sample {
                    at,
                    value: state.as_metric(),
                },
            ));
        }
        // Transfer-plane metrics under entity "xfer": monotonic
        // counters and queue gauges grid-wide (site 0), storage used/
        // pinned per site, active drains per directed link — all
        // key-sorted by construction (the snapshot's vectors are).
        let xm = self.grid.xfer_metrics();
        let xfer_entity: Arc<str> = Arc::from("xfer");
        for (param, value) in [
            ("completed", xm.counters.completed as f64),
            ("failed", xm.counters.failed as f64),
            ("retried", xm.counters.retried as f64),
            ("evicted", xm.counters.evicted as f64),
            ("history_dropped", xm.counters.history_dropped as f64),
            ("in_flight", xm.in_flight as f64),
            ("waiting", xm.waiting as f64),
        ] {
            samples.push((
                MetricKey::new(SiteId::new(0), xfer_entity.clone(), param),
                Sample { at, value },
            ));
        }
        for (site, used, pinned) in &xm.sites {
            samples.push((
                MetricKey::new(*site, xfer_entity.clone(), "storage_used_bytes"),
                Sample {
                    at,
                    value: *used as f64,
                },
            ));
            samples.push((
                MetricKey::new(*site, xfer_entity.clone(), "storage_pinned"),
                Sample {
                    at,
                    value: *pinned as f64,
                },
            ));
        }
        for (from, to, active) in &xm.links {
            samples.push((
                MetricKey::new(
                    SiteId::new(0),
                    xfer_entity.clone(),
                    format!("link_{}_{}_active", from.raw(), to.raw()),
                ),
                Sample {
                    at,
                    value: *active as f64,
                },
            ));
        }
        // Latency distributions under entity "obs": per-RPC-method and
        // per-gate-disposition count + p50/p95/p99, key-sorted so the
        // batch order is deterministic. The method set is dynamic, so
        // these keys cannot be interned up front.
        let obs_entity: Arc<str> = Arc::from("obs");
        let mut push_dist = |prefix: &str, name: &str, s: gae_obs::HistogramSnapshot| {
            for (suffix, value) in [
                ("count", s.count as f64),
                ("p50_us", s.p50_us as f64),
                ("p95_us", s.p95_us as f64),
                ("p99_us", s.p99_us as f64),
            ] {
                samples.push((
                    MetricKey::new(
                        SiteId::new(0),
                        obs_entity.clone(),
                        format!("{prefix}{name}_{suffix}"),
                    ),
                    Sample { at, value },
                ));
            }
        };
        for (method, snap) in self.obs.rpc_snapshot() {
            push_dist("", &method, snap);
        }
        for (disposition, snap) in self.obs.gate_snapshot() {
            push_dist("gate_", &disposition, snap);
        }
        for (link, snap) in self.obs.xfer_snapshot() {
            push_dist("xfer_", &link, snap);
        }
        for (op, snap) in self.obs.repl_snapshot() {
            push_dist("repl_", &op, snap);
        }
        for (method, snap) in self.obs.hist_snapshot() {
            push_dist("hist_", &method, snap);
        }
        // History-store shape under entity "hist": pure functions of
        // the store's contents (scan and op counters deliberately stay
        // out — they reset across recovery and would fork the metric
        // streams of otherwise-identical runs).
        {
            let hs = self.hist.store().stats();
            let hist_entity: Arc<str> = Arc::from("hist");
            for (param, value) in [
                ("rows", hs.rows as f64),
                ("sealed_segments", hs.sealed_segments as f64),
                ("tail_rows", hs.tail_rows as f64),
                ("dict_words", hs.dict_words as f64),
            ] {
                samples.push((
                    MetricKey::new(SiteId::new(0), hist_entity.clone(), param),
                    Sample { at, value },
                ));
            }
        }
        // Replication counters under entity "repl" whenever a sink is
        // armed: quorum/leader commit indexes, follower liveness,
        // stream/ack/stall/install/election totals.
        if let Some(repl) = self.replication.read().clone() {
            let rs = repl.stats();
            let repl_entity: Arc<str> = Arc::from("repl");
            for (param, value) in [
                ("commit_index", rs.commit_index as f64),
                ("leader_commit", rs.leader_commit as f64),
                ("followers_total", rs.followers_total as f64),
                ("followers_alive", rs.followers_alive as f64),
                ("streamed_records", rs.streamed_records as f64),
                ("acks", rs.acks as f64),
                ("quorum_stalls", rs.quorum_stalls as f64),
                ("snapshot_installs", rs.snapshot_installs as f64),
                ("elections", rs.elections as f64),
            ] {
                samples.push((
                    MetricKey::new(SiteId::new(0), repl_entity.clone(), param),
                    Sample { at, value },
                ));
            }
        }
        self.grid.monitor().publish_batch(samples);
    }

    /// A full, deterministic image of every persisted service.
    pub(crate) fn snapshot_state(&self) -> persist::SnapshotState {
        let (metrics, metrics_published) = self.grid.monitor().metrics_snapshot();
        persist::SnapshotState {
            events: self.grid.monitor().events_snapshot(),
            evicted: self.grid.monitor().evicted_count(),
            metrics,
            metrics_published,
            jobmon: self.jobmon.db_snapshot(),
            steering: self.steering.export_jobs(),
            balances: self.quota.balances_snapshot(),
            ledger: self.quota.ledger(),
            xfer: self.grid.with_xfer(|x| x.export()),
            hist: self.hist.store().encode(),
        }
    }

    /// Durably commits everything logged since the last checkpoint
    /// (one group-commit batch), rotating to a fresh snapshot
    /// generation when the snapshot cadence has elapsed. Returns the
    /// new commit index; a no-op `Ok(0)` when no store is attached.
    ///
    /// [`ServiceStack::run_until`] checkpoints automatically at its
    /// horizon, so every `run_until` call is a recovery point.
    pub fn checkpoint(&self) -> GaeResult<u64> {
        let Some(p) = self.persistence() else {
            return Ok(0);
        };
        let index = p.commit()?;
        let now = self.grid.now();
        if p.snapshot_due(now) {
            let snapshot = persist::encode_snapshot(&self.snapshot_state());
            p.rotate(now, &snapshot)?;
        }
        Ok(index)
    }

    /// Drives the grid and the polling services to `t`.
    ///
    /// Interleaving: execution-service completions happen at exact
    /// instants; the collector and steering service poll every
    /// `poll_period`, which is how the paper's services actually
    /// observed the grid ("periodically monitor the performance of
    /// the job", §7).
    pub fn run_until(&self, t: SimTime) {
        loop {
            let now = self.grid.now();
            if now >= t {
                break;
            }
            // Events sitting exactly at `now` (zero-length tasks,
            // just-submitted work) are consumed without moving time.
            if self
                .grid
                .next_event_time()
                .map(|ev| ev <= now)
                .unwrap_or(false)
            {
                self.grid.advance_to(now);
                continue;
            }
            let next_poll = *self.next_poll.lock();
            if next_poll <= now {
                // The clock moved past one or more due polls (e.g.
                // the caller advanced the grid directly); catch up
                // once, then realign to the original cadence: the
                // next poll stays on the `poll_period` grid anchored
                // at stack construction, so the same workload polls
                // at the same instants no matter who moved the clock.
                self.poll();
                let period = self.poll_period.as_micros().max(1);
                let missed = now.saturating_since(next_poll).as_micros() / period + 1;
                *self.next_poll.lock() = next_poll + SimDuration::from_micros(missed * period);
                continue;
            }
            let mut target = t.min(next_poll);
            if let Some(ev) = self.grid.next_event_time() {
                target = target.min(ev);
            }
            self.grid.advance_to(target);
            if target >= next_poll {
                self.poll();
                *self.next_poll.lock() = next_poll + self.poll_period;
            }
        }
        // Final poll at the horizon so callers observe fresh state.
        self.poll();
        // Every run_until horizon is a durable commit point.
        self.checkpoint().expect("durable checkpoint failed");
    }

    /// Rebuilds a crashed stack from `config.dir`: recovers the
    /// newest intact snapshot plus the longest committed WAL prefix
    /// (falling back one generation if the newest snapshot is
    /// corrupt), replays every committed record, re-arms exactly-once
    /// resubmission of the tasks that were in flight, and resumes
    /// logging into a fresh generation.
    ///
    /// The rebuilt state is exactly the state at the reported
    /// [`RecoveryReport::commit_index`] — uncommitted work (anything
    /// after the last [`ServiceStack::checkpoint`]) is lost, never
    /// half-applied. The virtual clock restarts at zero; resubmitted
    /// tasks restart from scratch (their checkpoints died with the
    /// process in this model).
    pub fn recover_from_disk(
        grid: Arc<Grid>,
        policy: SteeringPolicy,
        poll_period: SimDuration,
        config: &PersistenceConfig,
    ) -> GaeResult<(Arc<ServiceStack>, RecoveryReport)> {
        use gae_repl::StateMachine;

        let recovered = DurableStore::recover(&config.dir)?;
        let stack = Self::assemble(grid, policy, poll_period);
        let mut report = RecoveryReport::from_recovered(&recovered);

        // 1–2. Snapshot restore plus committed-WAL replay, in log
        //    order — both through the [`gae_repl::StateMachine`]
        //    contract, the same path a replication follower applies
        //    mutations through.
        stack.restore(&recovered.snapshot)?;
        for record in &recovered.records {
            stack.apply_mutation(&gae_repl::frame::decode_envelope(record)?)?;
        }

        // 3. Resume the store in a new generation anchored at a fresh
        //    snapshot of the rebuilt state, and re-attach logging.
        let snapshot = persist::encode_snapshot(&stack.snapshot_state());
        let persistence = Persistence::resume(config, &recovered, &snapshot, stack.grid.now())?;
        stack.attach_persistence(persistence);

        // 4. Re-arm, exactly once. First the explicit replications the
        //    log says were requested but never landed or failed — they
        //    restart from zero bytes. Then the in-flight tasks, whose
        //    resubmission rebuilds their input-staging chains through
        //    `Grid::submit` (staged inputs re-arm with the task, never
        //    through the transfer journal, so nothing runs twice).
        stack.grid.with_xfer(|x| x.rearm_pending());
        report.resubmitted = stack.steering.rearm_submitted()?;
        stack.checkpoint()?;
        Ok((stack, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::{JobId, TaskId, TaskStatus, UserId};

    fn two_site_grid() -> Arc<Grid> {
        GridBuilder::new()
            .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 2, 1), 3.0)
            .site(SiteDescription::new(SiteId::new(2), "free", 2, 1))
            .build()
    }

    #[test]
    fn builder_registers_sites() {
        let grid = two_site_grid();
        assert_eq!(grid.site_ids(), vec![SiteId::new(1), SiteId::new(2)]);
        assert!(grid.is_alive(SiteId::new(1)));
        assert!(!grid.is_alive(SiteId::new(9)));
        assert!(grid.description(SiteId::new(2)).is_ok());
        assert!(grid.description(SiteId::new(9)).is_err());
        assert!(grid.exec(SiteId::new(9)).is_err());
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

    #[test]
    fn grid_submit_and_events() {
        let grid = two_site_grid();
        let spec =
            TaskSpec::new(TaskId::new(1), "t", "x").with_cpu_demand(SimDuration::from_secs(10));
        grid.submit(SiteId::new(2), spec, None).unwrap();
        assert_eq!(grid.next_event_time(), Some(SimTime::from_secs(10)));
        grid.advance_to(SimTime::from_secs(10));
        let events = grid.drain_events();
        assert_eq!(events.len(), 3, "queued, running, completed");
        assert!(events.iter().all(|(s, _)| *s == SiteId::new(2)));
    }

    #[test]
    fn stack_runs_simple_job_to_completion() {
        let stack = ServiceStack::over(two_site_grid());
        let mut job = JobSpec::new(JobId::new(1), "demo", UserId::new(1));
        job.add_task(
            TaskSpec::new(TaskId::new(1), "t", "prime").with_cpu_demand(SimDuration::from_secs(60)),
        );
        let plan = stack.submit_job(job).unwrap();
        // The scheduler must have preferred the free site.
        assert_eq!(plan.site_of(TaskId::new(1)), Some(SiteId::new(2)));
        stack.run_until(SimTime::from_secs(120));
        let info = stack.jobmon.job_info(TaskId::new(1)).unwrap();
        assert_eq!(info.status, TaskStatus::Completed);
    }

    #[test]
    fn stack_executes_dag_in_order() {
        let stack = ServiceStack::over(two_site_grid());
        let mut job = JobSpec::new(JobId::new(1), "dag", UserId::new(1));
        for i in 1..=3 {
            job.add_task(
                TaskSpec::new(TaskId::new(i), format!("t{i}"), "step")
                    .with_cpu_demand(SimDuration::from_secs(20)),
            );
        }
        job.add_dependency(TaskId::new(1), TaskId::new(2));
        job.add_dependency(TaskId::new(2), TaskId::new(3));
        stack.submit_job(job).unwrap();
        stack.run_until(SimTime::from_secs(30));
        // Task 2 must not have finished before task 1.
        let t1 = stack.jobmon.job_info(TaskId::new(1)).unwrap();
        assert_eq!(t1.status, TaskStatus::Completed);
        // Task 3 is blocked on task 2: either not yet submitted
        // anywhere (unknown to monitoring) or not completed.
        match stack.jobmon.job_info(TaskId::new(3)) {
            Ok(info) => assert_ne!(info.status, TaskStatus::Completed),
            Err(e) => assert!(e.to_string().contains("not found"), "{e}"),
        }
        stack.run_until(SimTime::from_secs(200));
        let t3 = stack.jobmon.job_info(TaskId::new(3)).unwrap();
        assert_eq!(t3.status, TaskStatus::Completed);
    }

    #[test]
    fn run_until_is_idempotent_at_horizon() {
        let stack = ServiceStack::over(two_site_grid());
        stack.run_until(SimTime::from_secs(50));
        stack.run_until(SimTime::from_secs(50));
        assert_eq!(stack.grid.now(), SimTime::from_secs(50));
    }

    /// Builds an 8-site grid (mixed loads) with tasks on every site,
    /// using the given driver.
    fn loaded_grid(driver: DriverMode) -> Arc<Grid> {
        let mut builder = GridBuilder::new().driver(driver);
        for i in 1..=8u64 {
            let desc = SiteDescription::new(SiteId::new(i), format!("s{i}"), 2, 2);
            builder = if i % 2 == 0 {
                builder.site_with_load(desc, 0.25 * i as f64)
            } else {
                builder.site(desc)
            };
        }
        let grid = builder.build();
        for i in 1..=8u64 {
            for j in 0..3u64 {
                let spec = TaskSpec::new(TaskId::new(i * 10 + j), format!("t{i}-{j}"), "app")
                    .with_cpu_demand(SimDuration::from_secs(7 * (j + 1)));
                grid.submit(SiteId::new(i), spec, None).unwrap();
            }
        }
        grid
    }

    #[test]
    fn sharded_driver_is_bit_identical_to_sequential() {
        let sequential = loaded_grid(DriverMode::Sequential);
        let sharded = loaded_grid(DriverMode::sharded(3));
        assert_eq!(sharded.driver_mode(), DriverMode::Sharded { threads: 3 });
        for step in 1..=6u64 {
            let t = SimTime::from_secs(step * 5);
            sequential.advance_to(t);
            sharded.advance_to(t);
            assert_eq!(sequential.drain_events(), sharded.drain_events(), "at {t}");
            for site in sequential.site_ids() {
                assert_eq!(
                    sequential.monitor().site_load(site),
                    sharded.monitor().site_load(site)
                );
                assert_eq!(
                    sequential.monitor().queue_length(site),
                    sharded.monitor().queue_length(site)
                );
            }
        }
    }

    #[test]
    fn drain_order_is_site_then_seq() {
        let grid = loaded_grid(DriverMode::sharded(4));
        grid.advance_to(SimTime::from_secs(60));
        let events = grid.drain_events();
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            let a = (pair[0].0, pair[0].1.seq);
            let b = (pair[1].0, pair[1].1.seq);
            assert!(a < b, "events out of (site, seq) order: {a:?} !< {b:?}");
        }
    }

    #[test]
    fn stack_over_sharded_grid_completes_jobs() {
        let grid = GridBuilder::new()
            .driver(DriverMode::sharded(2))
            .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 2, 1), 3.0)
            .site(SiteDescription::new(SiteId::new(2), "free", 2, 1))
            .build();
        let stack = ServiceStack::over(grid);
        let mut job = JobSpec::new(JobId::new(1), "demo", UserId::new(1));
        job.add_task(
            TaskSpec::new(TaskId::new(1), "t", "prime").with_cpu_demand(SimDuration::from_secs(60)),
        );
        stack.submit_job(job).unwrap();
        stack.run_until(SimTime::from_secs(120));
        let info = stack.jobmon.job_info(TaskId::new(1)).unwrap();
        assert_eq!(info.status, TaskStatus::Completed);
    }

    /// Three-site grid where site 3 has a deliberately fast link to
    /// site 1 (so the buggy raw-minimum would prefer it) and site 2 a
    /// slow one.
    fn staging_grid() -> Arc<Grid> {
        let mut network = gae_sim::NetworkModel::new(gae_sim::Link::new(1e6, SimDuration::ZERO));
        network.set_link(
            SiteId::new(3),
            SiteId::new(1),
            gae_sim::Link::new(1e8, SimDuration::ZERO),
        );
        GridBuilder::new()
            .network(network)
            .site(SiteDescription::new(SiteId::new(1), "dest", 2, 1))
            .site(SiteDescription::new(SiteId::new(2), "slow-src", 2, 1))
            .site(SiteDescription::new(SiteId::new(3), "fast-src", 2, 1))
            .build()
    }

    fn staged_spec() -> TaskSpec {
        TaskSpec::new(TaskId::new(1), "t", "x").with_inputs(vec![gae_types::FileRef::new(
            "data.root",
            100_000_000,
        )
        .with_replicas(vec![SiteId::new(2), SiteId::new(3)])])
    }

    #[test]
    fn staging_time_skips_dead_links() {
        let grid = staging_grid();
        let spec = staged_spec();
        // Both sources live: the fast 3→1 link (1 s) wins.
        assert_eq!(
            grid.staging_time(SiteId::new(1), &spec).unwrap(),
            SimDuration::from_secs(1)
        );
        // Kill the fast link: the oracle must fall back to the live
        // slow source (100 s), not keep quoting the dead fast one.
        grid.with_xfer(|x| x.fail_link(SiteId::new(3), SiteId::new(1)));
        assert_eq!(
            grid.staging_time(SiteId::new(1), &spec).unwrap(),
            SimDuration::from_secs(100)
        );
    }

    #[test]
    fn staging_time_with_no_reachable_replica_is_typed_error() {
        let grid = staging_grid();
        let spec = staged_spec();
        grid.with_xfer(|x| {
            x.fail_link(SiteId::new(2), SiteId::new(1));
            x.fail_link(SiteId::new(3), SiteId::new(1));
        });
        let err = grid.staging_time(SiteId::new(1), &spec).unwrap_err();
        assert!(
            matches!(err, GaeError::Estimator(_)),
            "want the estimator's typed unreachable convention, got {err}"
        );
        // A file already resident at the destination costs nothing
        // even when every link is down.
        let local =
            TaskSpec::new(TaskId::new(2), "t2", "x").with_inputs(vec![gae_types::FileRef::new(
                "local.root",
                1,
            )
            .with_replicas(vec![SiteId::new(1)])]);
        assert_eq!(
            grid.staging_time(SiteId::new(1), &local).unwrap(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn staging_time_skips_zero_bandwidth_links() {
        // The fast source sits behind a hand-built zero-bandwidth
        // link: reachable per the replica catalogue, useless per the
        // fabric. The oracle must quote the slow-but-live source.
        let mut network = gae_sim::NetworkModel::new(gae_sim::Link::new(1e6, SimDuration::ZERO));
        network.set_link(
            SiteId::new(3),
            SiteId::new(1),
            gae_sim::Link {
                bandwidth_bps: 0.0,
                latency: SimDuration::ZERO,
            },
        );
        let grid = GridBuilder::new()
            .network(network)
            .site(SiteDescription::new(SiteId::new(1), "dest", 2, 1))
            .site(SiteDescription::new(SiteId::new(2), "slow-src", 2, 1))
            .site(SiteDescription::new(SiteId::new(3), "zero-src", 2, 1))
            .build();
        assert_eq!(
            grid.staging_time(SiteId::new(1), &staged_spec()).unwrap(),
            SimDuration::from_secs(100)
        );
    }

    #[test]
    fn cached_next_event_matches_uncached_scan() {
        let grid = loaded_grid(DriverMode::Sequential);
        assert_eq!(grid.next_event_time(), grid.next_event_time_uncached());
        for step in 1..=8u64 {
            grid.advance_to(SimTime::from_secs(step * 3));
            assert_eq!(
                grid.next_event_time(),
                grid.next_event_time_uncached(),
                "at step {step}"
            );
        }
        // Settled: both agree there is nothing left.
        grid.advance_to(SimTime::from_secs(300));
        assert_eq!(grid.next_event_time(), None);
        assert_eq!(grid.next_event_time_uncached(), None);
    }

    #[test]
    fn estimator_memo_caches_until_invalidated() {
        let stack = ServiceStack::over(two_site_grid());
        let site = SiteId::new(2);
        let spec =
            TaskSpec::new(TaskId::new(1), "t", "app").with_cpu_demand(SimDuration::from_secs(30));
        let meta = gae_trace::TaskMeta::from_spec(&spec);
        // Seed enough history for estimation to succeed. Stack-level
        // estimates read the columnar store, so the seed rows go
        // through the funnel; observe_completion still drives the
        // ring and the memo invalidation.
        let row = |m: &gae_trace::TaskMeta, secs: u64| gae_hist::HistRecord {
            task: 0,
            site: site.raw(),
            nodes: m.nodes as u64,
            submit_us: 0,
            start_us: 0,
            finish_us: 0,
            runtime_us: secs * 1_000_000,
            success: true,
            account: m.account.clone(),
            login: m.login.clone(),
            executable: m.executable.clone(),
            queue: m.queue.clone(),
            partition: m.partition.clone(),
            job_type: m.job_type.to_string(),
        };
        for secs in [20u64, 25, 30, 35] {
            stack
                .estimators
                .observe_completion(site, meta.clone(), SimDuration::from_secs(secs));
            stack.hist.ingest(row(&meta, secs));
        }
        let first = stack.estimators.estimate_runtime(site, &spec).unwrap();
        let (h0, m0) = stack.estimators.memo_stats();
        let second = stack.estimators.estimate_runtime(site, &spec).unwrap();
        let (h1, m1) = stack.estimators.memo_stats();
        assert_eq!(first, second);
        assert_eq!(h1, h0 + 1, "second identical estimate must hit the memo");
        assert_eq!(m1, m0);
        // A completion observation at the site invalidates its entries.
        stack.hist.ingest(row(&meta, 90));
        stack
            .estimators
            .observe_completion(site, meta, SimDuration::from_secs(90));
        let third = stack.estimators.estimate_runtime(site, &spec).unwrap();
        let (_, m2) = stack.estimators.memo_stats();
        assert_eq!(m2, m1 + 1, "post-invalidation estimate must recompute");
        // The recomputed estimate now reflects the observed history.
        assert_ne!(first, third);
    }
}
