//! The transfer scheduler: a deterministic fluid model of every
//! byte moving between sites.
//!
//! Concurrent transfers draining over the same directed link split
//! its bandwidth equally; the scheduler advances by firing internal
//! events (drain completions, latency-tail landings, backoff
//! expiries) in `(time, transfer-id)` order and re-integrating the
//! fluid state between them. All containers are ordered and no wall
//! clock or RNG is consulted, so the same workload produces
//! byte-identical schedules in both driver modes.

use crate::storage::SiteStore;
use crate::{
    JournalOp, TransferRecord, XferConfig, XferCounters, XferEvent, XferExport, XferMetrics,
    XferUpdate,
};
use gae_sim::NetworkModel;
use gae_types::{FileRef, GaeError, GaeResult, SimDuration, SimTime, SiteId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

/// One logical file: its size and the sites holding a replica.
struct FileEntry {
    size: u64,
    replicas: BTreeSet<SiteId>,
}

#[derive(Clone, Debug, PartialEq)]
enum TState {
    /// Chained behind another transfer; not yet attempted.
    Waiting,
    /// Draining its `remaining` bytes over its link (shares
    /// bandwidth); every entry restarts from the whole file.
    Active { remaining: f64 },
    /// Bytes fully drained; fixed latency tail until landing. The
    /// tail does not occupy link bandwidth.
    Latency { until: SimTime },
    /// Hit a dead link; retries when the backoff expires.
    Backoff { until: SimTime },
}

/// The event heap: `(due, transfer-id, generation)`, earliest first.
type EventHeap = BinaryHeap<Reverse<(SimTime, u64, u64)>>;

struct Transfer {
    lfn: String,
    size: u64,
    from: SiteId,
    to: SiteId,
    requested: SimTime,
    started: SimTime,
    attempts: u32,
    state: TState,
    chain: Option<u64>,
    /// Generation stamp: a heap entry for this transfer is live only
    /// while its recorded generation matches. Every reschedule bumps
    /// the stamp, lazily invalidating older entries.
    gen: u64,
}

impl Transfer {
    /// A transfer pins its source replica exactly while it drains or
    /// sits in its latency tail.
    fn pinned(&self) -> bool {
        matches!(self.state, TState::Active { .. } | TState::Latency { .. })
    }

    /// Bumps the generation, killing older heap entries, and pushes
    /// the one live entry at `due`.
    fn restamp(&mut self, id: u64, due: SimTime, events: &mut EventHeap) {
        self.gen += 1;
        events.push(Reverse((due, id, self.gen)));
    }
}

/// One task's input-staging chain: transfers run sequentially, every
/// landed (or already-local) input is pinned at the site until the
/// task releases it.
struct Chain {
    site: SiteId,
    condor: Option<u64>,
    live: Option<u64>,
    queue: VecDeque<u64>,
    pins: Vec<String>,
    done: bool,
    failed: Option<String>,
}

/// Lifecycle-event observer callback (obs wiring).
pub type EventSink = Box<dyn Fn(&XferEvent) + Send + Sync>;
/// Durable journal sink callback (WAL wiring).
pub type JournalSink = Box<dyn Fn(&JournalOp) + Send + Sync>;

/// The managed transfer scheduler. See the crate docs for the model;
/// the owning grid must drain [`XferScheduler::drain_updates`] after
/// every call that can move time or fail a chain.
pub struct XferScheduler {
    network: NetworkModel,
    sites: BTreeSet<SiteId>,
    config: XferConfig,
    now: SimTime,
    files: BTreeMap<String, FileEntry>,
    stores: BTreeMap<SiteId, SiteStore>,
    transfers: BTreeMap<u64, Transfer>,
    /// Min-heap of `(due, transfer-id, generation)` over every
    /// scheduled internal event, with lazy invalidation: an entry is
    /// live only while the transfer exists, is not `Waiting`, and its
    /// generation matches. Active-transfer due times are *absolute*
    /// and stay valid across fluid integration while the link's
    /// membership is unchanged (all members drain at the same rate),
    /// so only membership changes force a link-wide reschedule.
    events: EventHeap,
    /// Active transfers indexed by directed link — the fair-share
    /// denominator, maintained instead of recounted per query.
    active: BTreeMap<(SiteId, SiteId), BTreeSet<u64>>,
    next_id: u64,
    chains: BTreeMap<u64, Chain>,
    chain_of: BTreeMap<(SiteId, u64), u64>,
    next_token: u64,
    pending: BTreeSet<(String, SiteId)>,
    blocked: BTreeSet<(SiteId, SiteId)>,
    lru_seq: u64,
    history: VecDeque<TransferRecord>,
    counters: XferCounters,
    landed_total: u64,
    updates: Vec<XferUpdate>,
    observer: Option<EventSink>,
    journal: Option<JournalSink>,
}

impl XferScheduler {
    /// A scheduler over `network` managing the given sites.
    pub fn new(
        network: NetworkModel,
        sites: impl IntoIterator<Item = SiteId>,
        config: XferConfig,
    ) -> Self {
        XferScheduler {
            network,
            sites: sites.into_iter().collect(),
            config,
            now: SimTime::ZERO,
            files: BTreeMap::new(),
            stores: BTreeMap::new(),
            transfers: BTreeMap::new(),
            events: BinaryHeap::new(),
            active: BTreeMap::new(),
            next_id: 1,
            chains: BTreeMap::new(),
            chain_of: BTreeMap::new(),
            next_token: 1,
            pending: BTreeSet::new(),
            blocked: BTreeSet::new(),
            lru_seq: 0,
            history: VecDeque::new(),
            counters: XferCounters::default(),
            landed_total: 0,
            updates: Vec::new(),
            observer: None,
            journal: None,
        }
    }

    /// Installs the lifecycle-event observer (obs wiring). The
    /// callback runs under the scheduler lock: it must only touch
    /// independent sinks (the obs hub), never the grid.
    pub fn set_observer(&mut self, observer: EventSink) {
        self.observer = Some(observer);
    }

    /// Installs the durable journal sink (WAL wiring). Same
    /// constraint as [`XferScheduler::set_observer`].
    pub fn set_journal(&mut self, journal: JournalSink) {
        self.journal = Some(journal);
    }

    /// The scheduler's internal clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn emit(&self, ev: XferEvent) {
        if let Some(o) = &self.observer {
            o(&ev);
        }
    }

    fn emit_journal(&self, op: JournalOp) {
        if let Some(j) = &self.journal {
            j(&op);
        }
    }

    fn next_lru(&mut self) -> u64 {
        self.lru_seq += 1;
        self.lru_seq
    }

    fn store_mut(&mut self, site: SiteId) -> &mut SiteStore {
        let budget = self.config.site_budgets.get(&site).copied();
        self.stores
            .entry(site)
            .or_insert_with(|| SiteStore::new(budget))
    }

    fn link_down(&self, from: SiteId, to: SiteId) -> bool {
        self.blocked.contains(&(from, to))
    }

    // ---- event heap ----

    /// Reschedules every active transfer on a directed link — the
    /// fair-share denominator changed, so every member's absolute
    /// due time moved.
    fn reschedule_link(&mut self, from: SiteId, to: SiteId) {
        let Some(ids) = self.active.get(&(from, to)) else {
            return;
        };
        let link = self.network.link(from, to);
        let n = ids.len() as f64;
        for id in ids {
            if let Some(t) = self.transfers.get_mut(id) {
                if let TState::Active { remaining } = t.state {
                    let due =
                        self.now + SimDuration::from_secs_f64(remaining * n / link.bandwidth_bps());
                    t.restamp(*id, due, &mut self.events);
                }
            }
        }
    }

    /// Adds a freshly activated transfer to its link's active set and
    /// reschedules the whole link (itself included).
    fn mark_active(&mut self, id: u64, from: SiteId, to: SiteId) {
        self.active.entry((from, to)).or_default().insert(id);
        self.reschedule_link(from, to);
    }

    /// Removes a transfer from its link's active set (if present) and
    /// reschedules the members left behind.
    fn unmark_active(&mut self, id: u64, from: SiteId, to: SiteId) {
        let Some(set) = self.active.get_mut(&(from, to)) else {
            return;
        };
        if !set.remove(&id) {
            return;
        }
        if set.is_empty() {
            self.active.remove(&(from, to));
        }
        self.reschedule_link(from, to);
    }

    /// Drops the source pin a transfer leaving its pinned states holds.
    fn unpin_source(&mut self, t: &Transfer) {
        if t.pinned() {
            self.store_mut(t.from).unpin(&t.lfn);
        }
    }

    // ---- catalog surface ----

    /// (Re-)registers a file; the replica list replaces any previous
    /// one and registration is authoritative (budgets may overshoot).
    pub fn register(&mut self, f: &FileRef) {
        self.emit_journal(JournalOp::Register {
            lfn: f.logical_name.clone(),
            size: f.size_bytes,
            replicas: f.replicas.clone(),
        });
        self.apply_register(&f.logical_name, f.size_bytes, &f.replicas);
    }

    fn apply_register(&mut self, lfn: &str, size: u64, replicas: &[SiteId]) {
        if let Some(old) = self.files.remove(lfn) {
            for s in &old.replicas {
                if let Some(store) = self.stores.get_mut(s) {
                    store.remove(lfn, old.size);
                }
            }
        }
        self.files.insert(
            lfn.to_string(),
            FileEntry {
                size,
                replicas: BTreeSet::new(),
            },
        );
        let set: BTreeSet<SiteId> = replicas.iter().copied().collect();
        for s in set {
            self.add_replica(lfn, s);
        }
    }

    /// The file's current view, if registered.
    pub fn lookup(&self, lfn: &str) -> Option<FileRef> {
        self.files.get(lfn).map(|e| FileRef {
            logical_name: lfn.to_string(),
            size_bytes: e.size,
            replicas: e.replicas.iter().copied().collect(),
        })
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when no files are registered.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Fills sizes and replica lists on inputs the catalog knows.
    pub fn resolve_inputs(&self, inputs: &mut [FileRef]) {
        for f in inputs.iter_mut() {
            if let Some(e) = self.files.get(&f.logical_name) {
                f.size_bytes = e.size;
                f.replicas = e.replicas.iter().copied().collect();
            }
        }
    }

    /// Requests a replica of `lfn` at `to`, returning the projected
    /// arrival under current link load. Already-present replicas
    /// return `now`; identical outstanding requests coalesce.
    pub fn replicate(&mut self, lfn: &str, to: SiteId) -> GaeResult<SimTime> {
        if !self.sites.contains(&to) {
            return Err(GaeError::NotFound(format!(
                "site {to} is not part of this grid"
            )));
        }
        let entry = self
            .files
            .get(lfn)
            .ok_or_else(|| GaeError::NotFound(format!("file {lfn}")))?;
        if entry.replicas.contains(&to) {
            let seq = self.next_lru();
            self.store_mut(to).touch(lfn, seq);
            return Ok(self.now);
        }
        if entry.replicas.is_empty() {
            return Err(GaeError::NotFound(format!(
                "no replica of {lfn} exists to copy from"
            )));
        }
        let size = entry.size;
        if let Some(t) = self
            .transfers
            .values()
            .find(|t| t.chain.is_none() && t.lfn == lfn && t.to == to)
        {
            return Ok(self.projected_arrival(t));
        }
        let from = self
            .pick_source(lfn, to)
            .ok_or_else(|| GaeError::Transfer(format!("no usable source replica for {lfn}")))?;
        let id = self.create_transfer(lfn.to_string(), size, from, to, None);
        self.pending.insert((lfn.to_string(), to));
        self.emit_journal(JournalOp::Requested {
            lfn: lfn.to_string(),
            to,
        });
        self.activate(id);
        if let Some(t) = self.transfers.get(&id) {
            Ok(self.projected_arrival(t))
        } else if self
            .files
            .get(lfn)
            .is_some_and(|f| f.replicas.contains(&to))
        {
            Ok(self.now)
        } else {
            Err(GaeError::Transfer(format!(
                "replication of {lfn} to {to} failed immediately"
            )))
        }
    }

    /// Deletes the replica of `lfn` at `site`. In-flight transfers
    /// sourced from it are re-pointed at another replica (restarting
    /// their drain) or failed typed — they never materialize data
    /// from the deleted source. Transfers already in their latency
    /// tail have fully drained and complete normally.
    pub fn delete_replica(&mut self, lfn: &str, site: SiteId) -> GaeResult<()> {
        let Some(entry) = self.files.get_mut(lfn) else {
            return Err(GaeError::NotFound(format!("file {lfn}")));
        };
        if entry.replicas.remove(&site) {
            let size = entry.size;
            if let Some(store) = self.stores.get_mut(&site) {
                store.remove(lfn, size);
            }
            self.emit_journal(JournalOp::Deleted {
                lfn: lfn.to_string(),
                site,
            });
        }
        let ids: Vec<u64> = self
            .transfers
            .iter()
            .filter(|(_, t)| {
                t.lfn == lfn && t.from == site && matches!(t.state, TState::Active { .. })
            })
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let Some(mut t) = self.transfers.remove(&id) else {
                continue;
            };
            // Leaving the old link changes its fair share either way.
            self.unmark_active(id, site, t.to);
            let Some(from) = self.pick_source(lfn, t.to) else {
                self.finish_failed(
                    id,
                    t,
                    format!(
                        "source replica of {lfn} at {site} was deleted mid-transfer \
                         and no other replica exists"
                    ),
                );
                continue;
            };
            self.unpin_source(&t);
            t.from = from;
            self.drain(id, t);
            self.emit(XferEvent::Resourced {
                id,
                from,
                at: self.now,
            });
        }
        Ok(())
    }

    // ---- staging chains ----

    /// Plans the input-staging chain for a task placed at `site`:
    /// already-local inputs are pinned, missing replicated inputs
    /// become a sequential transfer chain (spec order), inputs with
    /// no replica anywhere (produced upstream) cost nothing. Returns
    /// the chain token and the projected completion, or `None` when
    /// the task needs no data plane at all.
    pub fn plan_stage(&mut self, site: SiteId, inputs: &[FileRef]) -> Option<(u64, SimTime)> {
        let token = self.next_token;
        self.next_token += 1;
        let mut pins: Vec<String> = Vec::new();
        let mut queue: VecDeque<u64> = VecDeque::new();
        for f in inputs {
            let lfn = f.logical_name.clone();
            let (size, local) = match self.files.get(&lfn) {
                Some(e) if e.replicas.is_empty() => continue,
                Some(e) => (e.size, e.replicas.contains(&site)),
                None if f.replicas.is_empty() => continue,
                // Registration makes the entry from `f` itself.
                None => {
                    self.register(f);
                    (f.size_bytes, f.replicas.contains(&site))
                }
            };
            if local {
                let seq = self.next_lru();
                self.store_mut(site).touch(&lfn, seq);
                self.store_mut(site).pin(&lfn);
                pins.push(lfn);
                continue;
            }
            let Some(from) = self.pick_source(&lfn, site) else {
                continue;
            };
            let id = self.create_transfer(lfn, size, from, site, Some(token));
            queue.push_back(id);
        }
        if pins.is_empty() && queue.is_empty() {
            return None;
        }
        let live = queue.pop_front();
        self.chains.insert(
            token,
            Chain {
                site,
                condor: None,
                live,
                queue,
                pins,
                done: live.is_none(),
                failed: None,
            },
        );
        if let Some(first) = live {
            self.activate(first);
        }
        let projection = self
            .chains
            .get(&token)
            .map_or(self.now, |c| self.projection(c));
        Some((token, projection))
    }

    /// Binds a planned chain to the CondorId the task was admitted
    /// under, enabling `Restage`/`StagingFailed` updates for it.
    pub fn bind_chain(&mut self, token: u64, condor: u64) {
        let Some(chain) = self.chains.get_mut(&token) else {
            return;
        };
        chain.condor = Some(condor);
        let site = chain.site;
        let failed = chain.failed.clone();
        let done = chain.done;
        self.chain_of.insert((site, condor), token);
        if let Some(reason) = failed {
            self.updates.push(XferUpdate::StagingFailed {
                site,
                condor,
                reason,
            });
            self.chain_of.remove(&(site, condor));
            self.chains.remove(&token);
        } else if done {
            self.updates.push(XferUpdate::Restage {
                site,
                condor,
                until: self.now,
            });
        }
    }

    /// Abandons a chain whose task submission failed: cancels its
    /// unfinished transfers and drops its pins.
    pub fn cancel_chain(&mut self, token: u64) {
        if let Some(chain) = self.chains.get(&token) {
            if let Some(c) = chain.condor {
                self.chain_of.remove(&(chain.site, c));
            }
        }
        self.release_chain(token);
    }

    /// Releases a task's data-plane footprint: unpins its staged
    /// inputs and cancels any unfinished chain transfers. Called when
    /// the task completes, fails, is killed, or migrates away.
    pub fn release_task(&mut self, site: SiteId, condor: u64) {
        let Some(token) = self.chain_of.remove(&(site, condor)) else {
            return;
        };
        self.release_chain(token);
    }

    fn release_chain(&mut self, token: u64) {
        let Some(mut chain) = self.chains.remove(&token) else {
            return;
        };
        let ids: Vec<u64> = chain
            .live
            .into_iter()
            .chain(chain.queue.drain(..))
            .collect();
        for id in ids {
            if let Some(t) = self.transfers.remove(&id) {
                self.unmark_active(id, t.from, t.to);
                self.unpin_source(&t);
            }
        }
        for lfn in chain.pins {
            self.store_mut(chain.site).unpin(&lfn);
        }
    }

    /// When `chain`'s last input is projected to land.
    fn projection(&self, chain: &Chain) -> SimTime {
        if chain.failed.is_some() {
            return self.now + SimDuration::from_micros(1);
        }
        if chain.done {
            return self.now;
        }
        let live = chain.live.and_then(|id| self.transfers.get(&id));
        let mut acc = live.map_or(self.now, |t| self.projected_arrival(t));
        for t in chain.queue.iter().filter_map(|q| self.transfers.get(q)) {
            acc += self.network.transfer_time(t.from, t.to, t.size);
        }
        acc
    }

    // ---- fault injection ----

    /// Marks a directed link dead. Transfers currently on it lose
    /// their progress and enter backoff (or fail if out of
    /// attempts); new activations back off immediately.
    pub fn fail_link(&mut self, from: SiteId, to: SiteId) {
        self.blocked.insert((from, to));
        let ids: Vec<u64> = self
            .transfers
            .iter()
            // Draining or in its latency tail: on the link.
            .filter(|(_, t)| t.from == from && t.to == to && t.pinned())
            .map(|(id, _)| *id)
            .collect();
        // Every active transfer on the link is a victim, so the whole
        // active set empties at once — no per-victim fair-share
        // reschedule churn.
        self.active.remove(&(from, to));
        for id in ids {
            if let Some(t) = self.transfers.remove(&id) {
                self.retry(id, t, "failed mid-transfer");
            }
        }
    }

    /// Heals a previously failed directed link. Backed-off transfers
    /// retry at their scheduled expiry.
    pub fn heal_link(&mut self, from: SiteId, to: SiteId) {
        self.blocked.remove(&(from, to));
    }

    /// True when the directed link is faulted or has no usable
    /// bandwidth (the estimator's unreachable path reads this).
    pub fn link_blocked(&self, from: SiteId, to: SiteId) -> bool {
        self.link_down(from, to)
    }

    /// Transfers currently draining over the directed link.
    pub fn active_on(&self, from: SiteId, to: SiteId) -> usize {
        self.active.get(&(from, to)).map_or(0, |s| s.len())
    }

    // ---- transfer engine ----

    fn create_transfer(
        &mut self,
        lfn: String,
        size: u64,
        from: SiteId,
        to: SiteId,
        chain: Option<u64>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.transfers.insert(
            id,
            Transfer {
                lfn,
                size,
                from,
                to,
                requested: self.now,
                started: self.now,
                attempts: 0,
                state: TState::Waiting,
                chain,
                gen: 0,
            },
        );
        id
    }

    fn pick_source(&self, lfn: &str, to: SiteId) -> Option<SiteId> {
        let entry = self.files.get(lfn)?;
        let mut best: Option<(bool, f64, SiteId)> = None;
        for &s in &entry.replicas {
            if s == to {
                continue;
            }
            let link = self.network.link(s, to);
            let down = self.link_down(s, to);
            let n = (self.active_on(s, to) + 1) as f64;
            let secs = entry.size as f64 * n / link.bandwidth_bps() + link.latency().as_secs_f64();
            let better = match best {
                None => true,
                Some((bd, bs, _)) => {
                    if down != bd {
                        bd && !down
                    } else {
                        secs < bs
                    }
                }
            };
            if better {
                best = Some((down, secs, s));
            }
        }
        best.map(|(_, _, s)| s)
    }

    fn activate(&mut self, id: u64) {
        if let Some(t) = self.transfers.remove(&id) {
            self.attempt(id, t);
        }
    }

    /// Attempts a transfer taken out of the table: lands it if the
    /// file reached the destination meanwhile, else drains it from the
    /// best source or backs it off a dead link.
    fn attempt(&mut self, id: u64, mut t: Transfer) {
        t.attempts += 1;
        let first = t.attempts == 1;
        // The file may have landed at the destination while this
        // transfer waited in a chain or backoff: nothing to move.
        if self
            .files
            .get(&t.lfn)
            .is_some_and(|f| f.replicas.contains(&t.to))
        {
            if first {
                t.started = self.now;
            }
            return self.land(id, t);
        }
        // Re-pick the best source under current load and faults.
        let Some(from) = self.pick_source(&t.lfn, t.to) else {
            let reason = format!("no replica of {} remains to copy to {}", t.lfn, t.to);
            return self.finish_failed(id, t, reason);
        };
        if from != t.from {
            t.from = from;
            self.emit(XferEvent::Resourced {
                id,
                from,
                at: self.now,
            });
        }
        if self.link_down(from, t.to) {
            return self.retry(id, t, "dead");
        }
        if first {
            t.started = self.now;
        }
        let (lfn, to) = (t.lfn.clone(), t.to);
        self.drain(id, t);
        if first {
            self.emit(XferEvent::Started {
                id,
                lfn,
                from,
                to,
                at: self.now,
            });
        }
    }

    /// Puts `t` back in the table draining the whole file from its
    /// source, pinned there, and reschedules its link.
    fn drain(&mut self, id: u64, mut t: Transfer) {
        t.state = TState::Active {
            remaining: t.size as f64,
        };
        self.store_mut(t.from).pin(&t.lfn);
        let (from, to) = (t.from, t.to);
        self.transfers.insert(id, t);
        self.mark_active(id, from, to);
    }

    /// After an attempt on a dead link (`what` says how it died):
    /// backs `t` off exponentially and puts it back in the table, or
    /// fails it once its attempts are spent.
    fn retry(&mut self, id: u64, mut t: Transfer, what: &str) {
        let attempt = t.attempts;
        if attempt >= self.config.retry.max_attempts {
            let reason = format!(
                "link {}->{} {what} after {attempt} attempts for {}",
                t.from, t.to, t.lfn
            );
            return self.finish_failed(id, t, reason);
        }
        self.unpin_source(&t);
        let backoff = self
            .config
            .retry
            .backoff_base
            .mul_f64((1u64 << (attempt.clamp(1, 20) - 1)) as f64);
        let until = self.now + backoff;
        t.state = TState::Backoff { until };
        t.restamp(id, until, &mut self.events);
        self.transfers.insert(id, t);
        self.counters.retried += 1;
        self.emit(XferEvent::Retried {
            id,
            attempt,
            until,
            at: self.now,
        });
    }

    /// Lands a transfer already out of the table and off its link.
    fn land(&mut self, id: u64, t: Transfer) {
        let already = self
            .files
            .get(&t.lfn)
            .is_some_and(|f| f.replicas.contains(&t.to));
        if already {
            let seq = self.next_lru();
            self.store_mut(t.to).touch(&t.lfn, seq);
        } else {
            if let Err(reason) = self.make_room(t.to, t.size, &t.lfn) {
                self.finish_failed(id, t, reason);
                return;
            }
            self.add_replica(&t.lfn, t.to);
        }
        self.unpin_source(&t);
        self.emit_journal(JournalOp::Landed {
            lfn: t.lfn.clone(),
            to: t.to,
        });
        self.pending.remove(&(t.lfn.clone(), t.to));
        self.counters.completed += 1;
        self.landed_total += 1;
        self.push_history(TransferRecord {
            lfn: t.lfn.clone(),
            from: t.from,
            to: t.to,
            started: t.started,
            arrives: self.now,
            attempts: t.attempts,
        });
        self.emit(XferEvent::Landed {
            id,
            lfn: t.lfn.clone(),
            from: t.from,
            to: t.to,
            requested: t.requested,
            at: self.now,
        });
        if let Some(token) = t.chain {
            self.chain_landed(token, &t.lfn);
        }
    }

    /// Fails a transfer already out of the table and off its link.
    fn finish_failed(&mut self, id: u64, t: Transfer, reason: String) {
        self.unpin_source(&t);
        self.pending.remove(&(t.lfn.clone(), t.to));
        self.counters.failed += 1;
        self.emit_journal(JournalOp::Failed {
            lfn: t.lfn.clone(),
            to: t.to,
        });
        self.emit(XferEvent::Failed {
            id,
            lfn: t.lfn.clone(),
            to: t.to,
            reason: reason.clone(),
            at: self.now,
        });
        if let Some(token) = t.chain {
            self.chain_failed(token, reason);
        }
    }

    fn chain_landed(&mut self, token: u64, lfn: &str) {
        let Some(chain) = self.chains.get_mut(&token) else {
            return;
        };
        chain.live = None;
        chain.pins.push(lfn.to_string());
        let next = chain.queue.pop_front();
        let site = chain.site;
        let done_condor = if let Some(n) = next {
            chain.live = Some(n);
            None
        } else {
            chain.done = true;
            chain.condor
        };
        self.store_mut(site).pin(lfn);
        if let Some(n) = next {
            self.activate(n);
        } else if let Some(c) = done_condor {
            self.updates.push(XferUpdate::Restage {
                site,
                condor: c,
                until: self.now,
            });
        }
    }

    fn chain_failed(&mut self, token: u64, reason: String) {
        let Some(chain) = self.chains.get_mut(&token) else {
            return;
        };
        chain.live = None;
        chain.done = true;
        chain.failed = Some(reason.clone());
        let site = chain.site;
        let condor = chain.condor;
        let queued: Vec<u64> = chain.queue.drain(..).collect();
        let pins = std::mem::take(&mut chain.pins);
        for id in queued {
            self.transfers.remove(&id);
        }
        for l in pins {
            self.store_mut(site).unpin(&l);
        }
        if let Some(c) = condor {
            self.updates.push(XferUpdate::StagingFailed {
                site,
                condor: c,
                reason,
            });
            self.chain_of.remove(&(site, c));
            self.chains.remove(&token);
        }
    }

    // ---- storage ----

    fn add_replica(&mut self, lfn: &str, site: SiteId) {
        let size = match self.files.get_mut(lfn) {
            Some(e) => {
                e.replicas.insert(site);
                e.size
            }
            None => return,
        };
        let seq = self.next_lru();
        self.store_mut(site).admit(lfn, size, seq);
    }

    fn remove_replica(&mut self, lfn: &str, site: SiteId) {
        let size = match self.files.get_mut(lfn) {
            Some(e) => {
                e.replicas.remove(&site);
                e.size
            }
            None => return,
        };
        if let Some(store) = self.stores.get_mut(&site) {
            store.remove(lfn, size);
        }
    }

    /// Evicts unpinned replicas coldest-first until `size` bytes fit
    /// at `site`. Pinned replicas and last replicas are never
    /// evicted; failure to make room is a typed transfer failure.
    fn make_room(&mut self, site: SiteId, size: u64, protect: &str) -> Result<(), String> {
        if self.store_mut(site).headroom() >= size {
            return Ok(());
        }
        let order = self
            .stores
            .get(&site)
            .map(|s| s.coldest_first())
            .unwrap_or_default();
        for lfn in order {
            if self.store_mut(site).headroom() >= size {
                break;
            }
            if lfn == protect {
                continue;
            }
            if self.stores.get(&site).is_some_and(|s| s.pinned(&lfn)) {
                continue;
            }
            if self.files.get(&lfn).is_none_or(|f| f.replicas.len() <= 1) {
                continue;
            }
            self.remove_replica(&lfn, site);
            self.counters.evicted += 1;
            self.emit_journal(JournalOp::Evicted {
                lfn: lfn.clone(),
                site,
            });
            self.emit(XferEvent::Evicted {
                lfn,
                site,
                at: self.now,
            });
        }
        if self.store_mut(site).headroom() >= size {
            Ok(())
        } else {
            Err(format!(
                "storage budget exceeded at site {site}: cannot admit {protect} ({size} B)"
            ))
        }
    }

    // ---- time ----

    fn active_counts(&self) -> BTreeMap<(SiteId, SiteId), usize> {
        self.active
            .iter()
            .map(|(link, ids)| (*link, ids.len()))
            .collect()
    }

    /// Peeks the earliest live heap entry, discarding stale ones
    /// (dead transfer, generation mismatch, or back in `Waiting`) on
    /// the way. O(log K) amortised versus the old O(K) scan.
    fn next_internal_event(&mut self) -> Option<(SimTime, u64)> {
        while let Some(&Reverse((due, id, gen))) = self.events.peek() {
            match self.transfers.get(&id) {
                Some(t) if t.gen == gen && t.state != TState::Waiting => {
                    return Some((due, id));
                }
                _ => {
                    self.events.pop();
                }
            }
        }
        None
    }

    /// The original O(K) linear scan over every transfer, retained as
    /// the differential oracle for the event heap. Recomputes each
    /// active due time from `remaining` instead of trusting the heap.
    #[cfg(test)]
    fn naive_next_event(&self) -> Option<(SimTime, u64)> {
        let mut counts: BTreeMap<(SiteId, SiteId), usize> = BTreeMap::new();
        for t in self.transfers.values() {
            if let TState::Active { .. } = t.state {
                *counts.entry((t.from, t.to)).or_insert(0usize) += 1;
            }
        }
        let mut best: Option<(SimTime, u64)> = None;
        for (id, t) in &self.transfers {
            let te = match t.state {
                TState::Active { remaining } => {
                    let link = self.network.link(t.from, t.to);
                    let n = counts.get(&(t.from, t.to)).copied().unwrap_or(1) as f64;
                    self.now + SimDuration::from_secs_f64(remaining * n / link.bandwidth_bps())
                }
                TState::Latency { until } | TState::Backoff { until } => until,
                TState::Waiting => continue,
            };
            if best.is_none_or(|b| (te, *id) < b) {
                best = Some((te, *id));
            }
        }
        best
    }

    /// The next instant at which transfer-plane state changes, if
    /// any work is outstanding. Needs `&mut self` to prune stale
    /// heap entries in place.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.next_internal_event().map(|(t, _)| t)
    }

    fn integrate(&mut self, te: SimTime) {
        let dt = te.saturating_since(self.now).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        let XferScheduler {
            active,
            transfers,
            network,
            ..
        } = self;
        for ((from, to), ids) in active.iter() {
            let link = network.link(*from, *to);
            let drain = link.bandwidth_bps() * dt / ids.len() as f64;
            for id in ids {
                if let Some(TState::Active { remaining }) =
                    transfers.get_mut(id).map(|t| &mut t.state)
                {
                    *remaining = (*remaining - drain).max(0.0);
                }
            }
        }
    }

    fn fire(&mut self, id: u64) {
        let Some(mut t) = self.transfers.remove(&id) else {
            return;
        };
        match t.state {
            TState::Active { .. } => {
                // Off the link either way: the drain is complete.
                self.unmark_active(id, t.from, t.to);
                let latency = self.network.link(t.from, t.to).latency();
                if latency == SimDuration::ZERO {
                    return self.land(id, t);
                }
                // The latency tail does not occupy the link.
                let until = self.now + latency;
                t.state = TState::Latency { until };
                t.restamp(id, until, &mut self.events);
                self.transfers.insert(id, t);
            }
            TState::Latency { .. } => self.land(id, t),
            TState::Backoff { .. } => self.attempt(id, t),
            // No live heap entry names a waiting transfer.
            TState::Waiting => {
                self.transfers.insert(id, t);
            }
        }
    }

    /// Advances the transfer plane to `t`, firing every internal
    /// event due by then in `(time, transfer-id)` order, then
    /// refreshes the staging projections of all live chains so the
    /// owning grid can correct its `Pending` release instants.
    pub fn advance_to(&mut self, t: SimTime) {
        if t < self.now {
            return;
        }
        while let Some((te, id)) = self.next_internal_event() {
            if te > t {
                break;
            }
            // Consume the entry we are about to fire; every state
            // transition below re-establishes its own scheduling.
            self.events.pop();
            let te = te.max(self.now);
            self.integrate(te);
            self.now = te;
            self.fire(id);
        }
        self.integrate(t);
        self.now = t;
        self.refresh_projections();
    }

    fn refresh_projections(&mut self) {
        // Unfinished chains must never release early: clamp the
        // projection strictly past now.
        let floor = self.now + SimDuration::from_micros(1);
        let ups: Vec<XferUpdate> = self
            .chains
            .values()
            .filter(|c| !c.done)
            .filter_map(|c| {
                Some(XferUpdate::Restage {
                    site: c.site,
                    condor: c.condor?,
                    until: self.projection(c).max(floor),
                })
            })
            .collect();
        self.updates.extend(ups);
    }

    fn projected_arrival(&self, t: &Transfer) -> SimTime {
        match t.state {
            TState::Active { remaining } => {
                let link = self.network.link(t.from, t.to);
                let n = self.active_on(t.from, t.to).max(1) as f64;
                self.now
                    + SimDuration::from_secs_f64(remaining * n / link.bandwidth_bps())
                    + link.latency()
            }
            TState::Latency { until } => until,
            TState::Backoff { until } => until + self.network.transfer_time(t.from, t.to, t.size),
            TState::Waiting => self.now + self.network.transfer_time(t.from, t.to, t.size),
        }
    }

    /// Drains the staging updates accumulated since the last drain.
    pub fn drain_updates(&mut self) -> Vec<XferUpdate> {
        std::mem::take(&mut self.updates)
    }

    // ---- views ----

    /// Every live transfer with its projected arrival, id-ordered.
    pub fn in_flight(&self) -> Vec<TransferRecord> {
        self.transfers
            .values()
            .map(|t| TransferRecord {
                lfn: t.lfn.clone(),
                from: t.from,
                to: t.to,
                started: if t.attempts == 0 {
                    t.requested
                } else {
                    t.started
                },
                arrives: self.projected_arrival(t),
                attempts: t.attempts,
            })
            .collect()
    }

    /// The bounded ring of completed transfers, oldest first.
    pub fn history(&self) -> Vec<TransferRecord> {
        self.history.iter().cloned().collect()
    }

    /// Monotonic transfer-plane counters.
    pub fn counters(&self) -> XferCounters {
        self.counters.clone()
    }

    /// Monotonic count of landed transfers (catalog polls diff
    /// against this).
    pub fn landed_total(&self) -> u64 {
        self.landed_total
    }

    /// Point-in-time metrics for the MonALISA `"xfer"` entity.
    pub fn metrics(&self) -> XferMetrics {
        let links = self
            .active_counts()
            .into_iter()
            .map(|((f, t), n)| (f, t, n))
            .collect();
        let mut in_flight = 0;
        let mut waiting = 0;
        for t in self.transfers.values() {
            match t.state {
                TState::Active { .. } | TState::Latency { .. } => in_flight += 1,
                TState::Waiting | TState::Backoff { .. } => waiting += 1,
            }
        }
        XferMetrics {
            counters: self.counters.clone(),
            in_flight,
            waiting,
            links,
            sites: self
                .stores
                .iter()
                .map(|(s, st)| (*s, st.used, st.pins.len() as u64))
                .collect(),
        }
    }

    fn push_history(&mut self, rec: TransferRecord) {
        if self.config.history_capacity == 0 {
            self.counters.history_dropped += 1;
            return;
        }
        if self.history.len() >= self.config.history_capacity {
            self.history.pop_front();
            self.counters.history_dropped += 1;
        }
        self.history.push_back(rec);
    }

    // ---- durability ----

    /// Snapshot of the durable scheduler state (see
    /// [`XferExport`] for what is and is not captured).
    pub fn export(&self) -> XferExport {
        XferExport {
            files: self
                .files
                .iter()
                .map(|(l, e)| (l.clone(), e.size, e.replicas.iter().copied().collect()))
                .collect(),
            pending: self.pending.iter().cloned().collect(),
            counters: self.counters.clone(),
        }
    }

    /// Restores a snapshot, replacing the replica map, outstanding
    /// replications, and counters. Call before WAL replay.
    pub fn restore(&mut self, ex: &XferExport) {
        self.files.clear();
        self.stores.clear();
        for (lfn, size, replicas) in &ex.files {
            self.apply_register(lfn, *size, replicas);
        }
        self.pending = ex.pending.iter().cloned().collect();
        self.counters = ex.counters.clone();
        self.landed_total = ex.counters.completed;
    }

    /// Replays one journaled operation (WAL recovery). Never
    /// re-journals.
    pub fn apply_journal(&mut self, op: &JournalOp) {
        match op {
            JournalOp::Register {
                lfn,
                size,
                replicas,
            } => self.apply_register(lfn, *size, replicas),
            JournalOp::Requested { lfn, to } => {
                self.pending.insert((lfn.clone(), *to));
            }
            JournalOp::Landed { lfn, to } => {
                self.pending.remove(&(lfn.clone(), *to));
                if self
                    .files
                    .get(lfn)
                    .is_some_and(|f| !f.replicas.contains(to))
                {
                    self.add_replica(lfn, *to);
                }
                self.counters.completed += 1;
                self.landed_total += 1;
            }
            JournalOp::Failed { lfn, to } => {
                self.pending.remove(&(lfn.clone(), *to));
                self.counters.failed += 1;
            }
            JournalOp::Deleted { lfn, site } => self.remove_replica(lfn, *site),
            JournalOp::Evicted { lfn, site } => {
                self.remove_replica(lfn, *site);
                self.counters.evicted += 1;
            }
        }
    }

    /// Re-issues every outstanding replication exactly once after
    /// recovery (snapshot restore + WAL replay rebuild the pending
    /// set; transfers restart from zero bytes). Staged task inputs
    /// re-arm separately through task resubmission. Returns how many
    /// transfers were re-armed.
    pub fn rearm_pending(&mut self) -> usize {
        let pend: Vec<(String, SiteId)> = self.pending.iter().cloned().collect();
        self.pending.clear();
        let mut n = 0;
        for (lfn, to) in pend {
            let _ = self.replicate(&lfn, to);
            if self.pending.contains(&(lfn, to)) {
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_sim::Link;

    fn s(n: u64) -> SiteId {
        SiteId::new(n)
    }

    /// Two sites, 1 MB/s, zero latency.
    fn sched() -> XferScheduler {
        let net = NetworkModel::new(Link::new(1e6, SimDuration::ZERO));
        XferScheduler::new(net, [s(1), s(2), s(3)], XferConfig::with_defaults())
    }

    fn file(lfn: &str, mb: u64, at: &[u64]) -> FileRef {
        FileRef::new(lfn, mb * 1_000_000).with_replicas(at.iter().map(|n| s(*n)).collect())
    }

    #[test]
    fn solo_transfer_matches_network_transfer_time() {
        let mut x = sched();
        x.register(&file("f", 10, &[1]));
        let arrives = x.replicate("f", s(2)).unwrap();
        assert_eq!(arrives, SimTime::from_secs(10));
        x.advance_to(SimTime::from_secs(5));
        assert!(!x.lookup("f").unwrap().available_at(s(2)));
        x.advance_to(SimTime::from_secs(10));
        assert!(x.lookup("f").unwrap().available_at(s(2)));
        assert_eq!(x.landed_total(), 1);
        assert_eq!(x.history()[0].arrives, SimTime::from_secs(10));
    }

    #[test]
    fn fair_share_halves_bandwidth() {
        let mut x = sched();
        x.register(&file("a", 10, &[1]));
        x.register(&file("b", 10, &[1]));
        x.replicate("a", s(2)).unwrap();
        x.replicate("b", s(2)).unwrap();
        // Two equal drains sharing one 1 MB/s link: both land at 20 s,
        // ~2x the 10 s solo time.
        x.advance_to(SimTime::from_secs(19));
        assert_eq!(x.landed_total(), 0);
        x.advance_to(SimTime::from_secs(20));
        assert_eq!(x.landed_total(), 2);
        for r in x.history() {
            assert_eq!(r.arrives, SimTime::from_secs(20));
        }
    }

    #[test]
    fn staggered_transfers_reintegrate() {
        let mut x = sched();
        x.register(&file("a", 10, &[1]));
        x.register(&file("b", 10, &[1]));
        x.replicate("a", s(2)).unwrap();
        x.advance_to(SimTime::from_secs(5));
        x.replicate("b", s(2)).unwrap();
        // a: 5 MB left at t=5, rate halves -> lands at 15.
        // b: 5 MB drained by t=15, then full rate -> lands at 20.
        x.advance_to(SimTime::from_secs(25));
        let hist = x.history();
        assert_eq!(hist[0].lfn, "a");
        assert_eq!(hist[0].arrives, SimTime::from_secs(15));
        assert_eq!(hist[1].lfn, "b");
        assert_eq!(hist[1].arrives, SimTime::from_secs(20));
    }

    #[test]
    fn duplicate_replication_coalesces() {
        let mut x = sched();
        x.register(&file("f", 10, &[1]));
        let a = x.replicate("f", s(2)).unwrap();
        let b = x.replicate("f", s(2)).unwrap();
        assert_eq!(a, b);
        assert_eq!(x.in_flight().len(), 1);
        // Replicating to a holder is a no-op at now.
        assert_eq!(x.replicate("f", s(1)).unwrap(), SimTime::ZERO);
    }

    #[test]
    fn replication_needs_a_source_and_known_site() {
        let mut x = sched();
        x.register(&FileRef::new("empty", 1));
        assert!(matches!(
            x.replicate("empty", s(2)),
            Err(GaeError::NotFound(_))
        ));
        assert!(matches!(
            x.replicate("missing", s(2)),
            Err(GaeError::NotFound(_))
        ));
        x.register(&file("f", 1, &[1]));
        assert!(matches!(
            x.replicate("f", s(99)),
            Err(GaeError::NotFound(_))
        ));
    }

    #[test]
    fn dead_link_backs_off_then_lands_after_heal() {
        let mut x = sched();
        x.register(&file("f", 10, &[1]));
        x.fail_link(s(1), s(2));
        x.replicate("f", s(2)).unwrap();
        assert_eq!(x.counters().retried, 1);
        x.heal_link(s(1), s(2));
        // Backoff expires at 5 s, then a clean 10 s drain.
        x.advance_to(SimTime::from_secs(15));
        assert!(x.lookup("f").unwrap().available_at(s(2)));
        assert_eq!(x.history()[0].attempts, 2);
    }

    #[test]
    fn dead_link_exhausts_attempts_with_typed_failure() {
        let mut x = sched();
        x.register(&file("f", 10, &[1]));
        x.fail_link(s(1), s(2));
        x.replicate("f", s(2)).unwrap();
        // Backoffs: 5, 10, 20, 40 s -> exhausted on the 5th attempt.
        x.advance_to(SimTime::from_secs(100));
        assert_eq!(x.counters().failed, 1);
        assert_eq!(x.counters().retried, 4);
        assert!(x.in_flight().is_empty());
        assert!(!x.lookup("f").unwrap().available_at(s(2)));
    }

    #[test]
    fn mid_flight_fault_loses_progress() {
        let mut x = sched();
        x.register(&file("f", 10, &[1]));
        x.replicate("f", s(2)).unwrap();
        x.advance_to(SimTime::from_secs(9));
        x.fail_link(s(1), s(2));
        x.heal_link(s(1), s(2));
        // Backoff 5 s from t=9, then a fresh 10 s drain.
        x.advance_to(SimTime::from_secs(24));
        assert!(x.lookup("f").unwrap().available_at(s(2)));
        assert_eq!(x.history()[0].arrives, SimTime::from_secs(24));
    }

    #[test]
    fn deleted_source_resources_or_fails() {
        let mut x = sched();
        x.register(&file("two", 10, &[1, 3]));
        x.register(&file("one", 10, &[1]));
        x.replicate("two", s(2)).unwrap();
        x.replicate("one", s(2)).unwrap();
        x.advance_to(SimTime::from_secs(5));
        x.delete_replica("two", s(1)).unwrap();
        x.delete_replica("one", s(1)).unwrap();
        // "two" restarts from site 3; "one" had no other replica.
        assert_eq!(x.counters().failed, 1);
        x.advance_to(SimTime::from_secs(40));
        assert!(x.lookup("two").unwrap().available_at(s(2)));
        assert!(!x.lookup("one").unwrap().available_at(s(2)));
    }

    #[test]
    fn lru_eviction_respects_pins_and_last_replica() {
        let net = NetworkModel::new(Link::new(1e6, SimDuration::ZERO));
        let cfg = XferConfig::with_defaults().with_budget(s(2), 2_000_000);
        let mut x = XferScheduler::new(net, [s(1), s(2)], cfg);
        // "only" exists solely at site 2: never evicted.
        x.register(&FileRef::new("only", 1_000_000).with_replicas(vec![s(2)]));
        x.register(&file("a", 1, &[1]));
        x.register(&file("b", 1, &[1]));
        x.replicate("a", s(2)).unwrap();
        x.advance_to(SimTime::from_secs(1));
        assert!(x.lookup("a").unwrap().available_at(s(2)));
        // Site 2 is now full (only + a). Landing b must evict a (the
        // only unpinned, non-last replica).
        x.replicate("b", s(2)).unwrap();
        x.advance_to(SimTime::from_secs(2));
        assert!(x.lookup("b").unwrap().available_at(s(2)));
        assert!(!x.lookup("a").unwrap().available_at(s(2)), "a evicted");
        assert!(
            x.lookup("only").unwrap().available_at(s(2)),
            "last replica kept"
        );
        assert_eq!(x.counters().evicted, 1);
    }

    #[test]
    fn overfull_budget_fails_landing_typed() {
        let net = NetworkModel::new(Link::new(1e6, SimDuration::ZERO));
        let cfg = XferConfig::with_defaults().with_budget(s(2), 500_000);
        let mut x = XferScheduler::new(net, [s(1), s(2)], cfg);
        x.register(&file("big", 1, &[1]));
        x.replicate("big", s(2)).unwrap();
        x.advance_to(SimTime::from_secs(1));
        assert_eq!(x.counters().failed, 1);
        assert!(!x.lookup("big").unwrap().available_at(s(2)));
    }

    #[test]
    fn staging_chain_runs_sequentially_and_pins() {
        let mut x = sched();
        x.register(&file("in1", 5, &[1]));
        x.register(&file("in2", 5, &[1]));
        x.register(&file("local", 1, &[2]));
        let inputs = [
            x.lookup("in1").unwrap(),
            x.lookup("in2").unwrap(),
            x.lookup("local").unwrap(),
            FileRef::new("produced-upstream", 7),
        ];
        let (token, projection) = x.plan_stage(s(2), &inputs).unwrap();
        // Sequential: 5 s + 5 s.
        assert_eq!(projection, SimTime::from_secs(10));
        x.bind_chain(token, 42);
        x.advance_to(SimTime::from_secs(10));
        let ups = x.drain_updates();
        assert!(ups.contains(&XferUpdate::Restage {
            site: s(2),
            condor: 42,
            until: SimTime::from_secs(10)
        }));
        // All three staged/local inputs pinned at site 2.
        let m = x.metrics();
        assert_eq!(m.sites.iter().find(|(st, ..)| *st == s(2)).unwrap().2, 3);
        x.release_task(s(2), 42);
        let m = x.metrics();
        assert_eq!(m.sites.iter().find(|(st, ..)| *st == s(2)).unwrap().2, 0);
    }

    #[test]
    fn chain_failure_surfaces_as_staging_failed() {
        let mut x = sched();
        x.register(&file("in", 5, &[1]));
        x.fail_link(s(1), s(2));
        let (token, _) = x.plan_stage(s(2), &[x.lookup("in").unwrap()]).unwrap();
        x.bind_chain(token, 7);
        x.advance_to(SimTime::from_secs(1000));
        let ups = x.drain_updates();
        assert!(ups.iter().any(|u| matches!(
            u,
            XferUpdate::StagingFailed { site, condor: 7, .. } if *site == s(2)
        )));
    }

    #[test]
    fn journal_replay_rebuilds_state_and_rearms_once() {
        use std::sync::{Arc, Mutex};
        let journal: Arc<Mutex<Vec<JournalOp>>> = Arc::new(Mutex::new(Vec::new()));
        let mut x = sched();
        let sink = journal.clone();
        x.set_journal(Box::new(move |op| sink.lock().unwrap().push(op.clone())));
        x.register(&file("done", 10, &[1]));
        x.register(&file("mid", 10, &[1]));
        x.replicate("done", s(2)).unwrap();
        x.advance_to(SimTime::from_secs(10));
        x.replicate("mid", s(3)).unwrap();
        x.advance_to(SimTime::from_secs(12)); // mid still in flight
        assert_eq!(x.in_flight().len(), 1);

        // Crash: rebuild a fresh scheduler purely from the journal.
        let mut y = sched();
        for op in journal.lock().unwrap().iter() {
            y.apply_journal(op);
        }
        assert!(y.lookup("done").unwrap().available_at(s(2)));
        assert!(!y.lookup("mid").unwrap().available_at(s(3)));
        assert_eq!(y.rearm_pending(), 1, "exactly the one outstanding transfer");
        assert_eq!(y.rearm_pending(), 0, "second rearm is a no-op");
        y.advance_to(SimTime::from_secs(10));
        assert!(y.lookup("mid").unwrap().available_at(s(3)));
        assert_eq!(y.counters().completed, 2);
    }

    #[test]
    fn snapshot_roundtrip_preserves_pending() {
        let mut x = sched();
        x.register(&file("f", 10, &[1]));
        x.replicate("f", s(2)).unwrap();
        x.advance_to(SimTime::from_secs(3));
        let ex = x.export();
        let mut y = sched();
        y.restore(&ex);
        assert_eq!(y.export(), ex);
        assert_eq!(y.rearm_pending(), 1);
    }

    /// One mutation against a scheduler under differential test.
    #[derive(Clone, Debug)]
    enum Op {
        Register { file: u8 },
        Replicate { file: u8, to: u8 },
        Advance { secs: u8 },
        FailLink { to: u8 },
        HealLink { to: u8 },
        DeleteSource { file: u8 },
        PlanStage { file: u8, to: u8 },
    }

    fn arb_op() -> impl proptest::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            (0u8..6).prop_map(|file| Op::Register { file }),
            (0u8..6, 2u8..6).prop_map(|(file, to)| Op::Replicate { file, to }),
            (1u8..9).prop_map(|secs| Op::Advance { secs }),
            (2u8..6).prop_map(|to| Op::FailLink { to }),
            (2u8..6).prop_map(|to| Op::HealLink { to }),
            (0u8..6).prop_map(|file| Op::DeleteSource { file }),
            (0u8..6, 2u8..6).prop_map(|(file, to)| Op::PlanStage { file, to }),
        ]
    }

    proptest::proptest! {
        /// The heap and the retained naive scan must agree on every
        /// next internal event across arbitrary mutation sequences.
        /// Times may differ by at most 1 µs: the heap stores absolute
        /// due instants at (re)schedule time while the oracle
        /// recomputes them from the integrated `remaining`, and the
        /// two float paths can round a µs apart at exact boundaries
        /// (in which case the chosen ids may legitimately differ too).
        #[test]
        fn heap_agrees_with_naive_scan(ops in proptest::collection::vec(arb_op(), 1..48)) {
            let net = NetworkModel::new(Link::new(1e6, SimDuration::ZERO));
            let sites: Vec<SiteId> = (1..=6).map(s).collect();
            let mut x = XferScheduler::new(net, sites, XferConfig::with_defaults());
            for op in ops {
                match op {
                    Op::Register { file } => {
                        x.register(&file_ref_mb(file, 1 + file as u64, &[1]));
                    }
                    Op::Replicate { file, to } => {
                        let _ = x.replicate(&format!("f{file}"), s(to as u64));
                    }
                    Op::Advance { secs } => {
                        x.advance_to(x.now() + SimDuration::from_secs(secs as u64));
                    }
                    Op::FailLink { to } => x.fail_link(s(1), s(to as u64)),
                    Op::HealLink { to } => x.heal_link(s(1), s(to as u64)),
                    Op::DeleteSource { file } => {
                        let _ = x.delete_replica(&format!("f{file}"), s(1));
                    }
                    Op::PlanStage { file, to } => {
                        if let Some(f) = x.lookup(&format!("f{file}")) {
                            if let Some((token, _)) = x.plan_stage(s(to as u64), &[f]) {
                                x.bind_chain(token, 1000 + file as u64);
                            }
                        }
                    }
                }
                let naive = x.naive_next_event();
                let heap = x.next_internal_event();
                match (naive, heap) {
                    (None, None) => {}
                    (Some((tn, idn)), Some((th, idh))) => {
                        let gap = tn.max(th).saturating_since(tn.min(th));
                        proptest::prop_assert!(
                            gap <= SimDuration::from_micros(1),
                            "heap due {th:?} (id {idh}) vs naive {tn:?} (id {idn})"
                        );
                        if gap == SimDuration::ZERO {
                            proptest::prop_assert_eq!(idn, idh);
                        }
                    }
                    (n, h) => proptest::prop_assert!(false, "naive {n:?} vs heap {h:?}"),
                }
            }
        }
    }

    fn file_ref_mb(file: u8, mb: u64, at: &[u64]) -> FileRef {
        FileRef::new(format!("f{file}"), mb * 1_000_000)
            .with_replicas(at.iter().map(|n| s(*n)).collect())
    }

    #[test]
    fn history_ring_is_bounded_with_dropped_count() {
        let net = NetworkModel::new(Link::new(1e6, SimDuration::ZERO));
        let mut cfg = XferConfig::with_defaults();
        cfg.history_capacity = 2;
        let mut x = XferScheduler::new(net, [s(1), s(2), s(3)], cfg);
        for i in 0..5 {
            let lfn = format!("f{i}");
            x.register(&file(&lfn, 1, &[1]));
            x.replicate(&lfn, s(2)).unwrap();
        }
        x.advance_to(SimTime::from_secs(60));
        assert_eq!(x.history().len(), 2);
        assert_eq!(x.counters().history_dropped, 3);
        assert_eq!(x.counters().completed, 5);
    }
}
