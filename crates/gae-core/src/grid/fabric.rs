//! The fabric: sites + monitoring + network under one clock, the
//! builder that assembles it, its binding to the managed data plane,
//! and Condor-style flocking between partner sites.

use super::driver::{DriverMode, NextEventIndex};
use super::metrics::intern_site_series;
use crate::persist::PersistenceConfig;
use gae_exec::{Checkpoint, ExecutionService, SiteConfig, TaskProbe};
use gae_gate::GateConfig;
use gae_monitor::{MonAlisaRepository, SeriesId};
use gae_sim::{LoadTrace, NetworkModel};
use gae_types::{
    CondorId, GaeError, GaeResult, SimDuration, SimTime, SiteDescription, SiteId, TaskId, TaskSpec,
};
use gae_xfer::{XferConfig, XferScheduler, XferUpdate};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The execution fabric: sites + monitoring + network, one clock.
pub struct Grid {
    pub(super) sites: BTreeMap<SiteId, Arc<Mutex<ExecutionService>>>,
    descriptions: BTreeMap<SiteId, SiteDescription>,
    pub(super) monitor: Arc<MonAlisaRepository>,
    network: NetworkModel,
    pub(super) now: RwLock<SimTime>,
    /// Directed flocking partnerships: queued work at the key site
    /// may overflow to the listed partners (Condor flocking, §7).
    flock_partners: RwLock<BTreeMap<SiteId, Vec<SiteId>>>,
    /// The monitor's handles of the per-tick series, in publication
    /// order.
    pub(super) metric_ids: Vec<SeriesId>,
    /// The managed data plane: every inter-site byte moves through it.
    pub(super) xfer: Mutex<XferScheduler>,
    /// Cached cross-site next-event minimum, fed by per-site
    /// notifiers; shared (`Arc`) because those notifier closures
    /// capture it without holding the grid itself.
    pub(super) next_index: Arc<Mutex<NextEventIndex>>,
    /// Every site's transition epoch, readable without the site's
    /// lock (see [`Grid::site_epoch`]).
    epochs: BTreeMap<SiteId, Arc<AtomicU64>>,
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

    // A no-op `perf grid_tick` still calls; a benchmark-only PR drops
    // that call and then this goes, with `DriverMode`.
    #[doc(hidden)]
    pub fn driver(self, _: DriverMode) -> Self {
        self
    }

    /// Asks any [`ServiceStack`](super::ServiceStack) built over this
    /// grid to persist its state (WAL + snapshots) in `config.dir`.
    /// Creating a stack over a directory that already holds a store
    /// fails — recover it with
    /// [`ServiceStack::recover_from_disk`](super::ServiceStack::recover_from_disk)
    /// instead.
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
        let metric_ids = intern_site_series(&sites, &monitor);
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
        let mut epochs = BTreeMap::new();
        for (id, site) in &sites {
            let idx = next_index.clone();
            let sid = *id;
            let mut site = site.lock();
            site.set_event_notifier(Box::new(move |next| idx.lock().note(sid, next)));
            epochs.insert(sid, site.transition_epoch().clone());
        }
        let grid = Arc::new(Grid {
            sites,
            descriptions,
            monitor,
            network: self.network,
            now: RwLock::new(SimTime::ZERO),
            flock_partners: RwLock::new(BTreeMap::new()),
            metric_ids,
            xfer: Mutex::new(xfer),
            next_index,
            epochs,
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

    /// Whether a site's execution service answers.
    pub fn is_alive(&self, site: SiteId) -> bool {
        self.sites
            .get(&site)
            .map(|s| s.lock().is_alive())
            .unwrap_or(false)
    }

    /// A site's transition epoch, read without its lock: the count of
    /// status transitions, failures and recoveries its execution
    /// service has been through. While it stands still, whatever a
    /// [`Grid::probe`] there answered [`TaskProbe::Parked`] for is
    /// still parked, and the site still up.
    pub fn site_epoch(&self, site: SiteId) -> Option<u64> {
        self.epochs.get(&site).map(|e| e.load(Ordering::Acquire))
    }

    /// Probes the task tracked at `(site, condor)` under that one
    /// site's lock — liveness included; an unknown site reads as down.
    /// `None` when the location is stale (see
    /// [`ExecutionService::probe`]).
    pub fn probe(&self, site: SiteId, task: TaskId, condor: CondorId) -> Option<TaskProbe> {
        match self.sites.get(&site) {
            Some(exec) => exec.lock().probe(task, condor),
            None => Some(TaskProbe::SiteDown),
        }
    }

    /// The persistence configuration the builder attached, if any.
    pub fn persistence_config(&self) -> Option<&PersistenceConfig> {
        self.persist_config.as_ref()
    }

    /// The admission-control policy the builder attached, if any.
    pub fn gate_config(&self) -> Option<GateConfig> {
        self.gate_config
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
        let partnerships = self.flock_partners.read();
        let mut moves = Vec::new();
        for (&from, partners) in partnerships.iter() {
            let Some(source) = self.sites.get(&from) else {
                continue;
            };
            loop {
                // Head of the queue at `from`, if any.
                let head = {
                    let exec = source.lock();
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
                let Ok((spec, checkpoint)) = source.lock().remove_for_migration(condor) else {
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
}

/// A flocking migration performed by [`Grid::flock_pass`].
#[derive(Clone, Debug)]
pub struct FlockMove {
    /// The task that flocked.
    pub task: TaskId,
    /// Its specification (for estimate re-registration).
    pub spec: TaskSpec,
    /// Overloaded source site.
    pub from: SiteId,
    /// Receiving partner site.
    pub to: SiteId,
    /// The Condor id assigned by the receiving site.
    pub condor: CondorId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::two_site_grid;

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
}
