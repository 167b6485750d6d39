//! The transfer scheduler: a deterministic fluid model of every
//! byte moving between sites.
//!
//! Concurrent transfers draining over the same directed link split
//! its bandwidth equally. Each busy link holds an anchor: the instant
//! its membership last changed, at which every member's bytes left
//! were stamped. Bytes left later are one closed-form read, so the
//! anchor moves only when a transfer joins or leaves the link (per-link
//! virtual time, as in GPS fair queueing). The scheduler advances by
//! firing internal events (drain completions, latency-tail landings,
//! backoff expiries) in `(time, transfer-id)` order and touches nothing
//! between them: one `advance_to(t)` leaves the state any chain of
//! intermediate advances to `t` leaves. All containers are ordered and
//! no wall clock or RNG is consulted, so the same workload produces
//! byte-identical schedules run to run.

use crate::storage::SiteStore;
use crate::{
    JournalOp, TransferRecord, XferConfig, XferCounters, XferEvent, XferExport, XferMetrics,
    XferUpdate,
};
use gae_sim::{Link, NetworkModel};
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
    /// Draining over its link (shares bandwidth): `left` bytes
    /// remained at the link's [`Share::since`]. Every entry restarts
    /// from the whole file.
    Active { left: f64 },
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
    /// the one live entry at `due`. A chain's projection reads only
    /// its live transfer's stamp, so this marks the chain dirty.
    fn restamp(&mut self, id: u64, due: SimTime, heap: &mut EventHeap, dirty: &mut BTreeSet<u64>) {
        self.gen += 1;
        heap.push(Reverse((due, id, self.gen)));
        dirty.extend(self.chain);
    }
}

/// A busy link's fair-share anchor: every member drains at
/// `bandwidth / members.len()`, and its `TState::Active { left }` is
/// the bytes it had left at `since`.
struct Share {
    since: SimTime,
    members: BTreeSet<u64>,
}

impl Share {
    /// Moves the anchor to `now`: each member's `left` becomes the
    /// bytes it has left then, clamped at zero.
    fn settle(&mut self, now: SimTime, link: Link, transfers: &mut BTreeMap<u64, Transfer>) {
        let dt = now.saturating_since(self.since).as_secs_f64();
        if dt > 0.0 {
            let drain = link.bandwidth_bps() * dt / self.members.len() as f64;
            for id in &self.members {
                if let Some(TState::Active { left }) = transfers.get_mut(id).map(|t| &mut t.state) {
                    *left = (*left - drain).max(0.0);
                }
            }
        }
        self.since = now;
    }
}

/// Seconds to drain `bytes` as one of `n` equal shares of `link`.
fn drain_secs(bytes: f64, n: usize, link: Link) -> f64 {
    bytes * n as f64 / link.bandwidth_bps()
}

/// When a transfer with `left` bytes at `since`, one of `n` members
/// of `link`, finishes draining: the heap's due time, the projection
/// and the naive oracle all read this one closed form.
fn due(since: SimTime, left: f64, n: usize, link: Link) -> SimTime {
    since + SimDuration::from_secs_f64(drain_secs(left, n, link))
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
    /// generation matches. An active transfer's due time is read from
    /// its link's anchor, which only a membership change moves, so
    /// only a membership change forces a link-wide reschedule.
    events: EventHeap,
    /// Active transfers indexed by directed link, with the link's
    /// anchor — the fair-share denominator, maintained instead of
    /// recounted per query.
    active: BTreeMap<(SiteId, SiteId), Share>,
    next_id: u64,
    chains: BTreeMap<u64, Chain>,
    /// Tokens of chains whose projection may have moved since the
    /// last [`XferScheduler::advance_to`]: restamped or bound.
    dirty: BTreeSet<u64>,
    chain_of: BTreeMap<(SiteId, u64), u64>,
    next_token: u64,
    pending: BTreeSet<(String, SiteId)>,
    blocked: BTreeSet<(SiteId, SiteId)>,
    lru_seq: u64,
    history: VecDeque<TransferRecord>,
    counters: XferCounters,
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
            dirty: BTreeSet::new(),
            chain_of: BTreeMap::new(),
            next_token: 1,
            pending: BTreeSet::new(),
            blocked: BTreeSet::new(),
            lru_seq: 0,
            history: VecDeque::new(),
            counters: XferCounters::default(),
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

    // ---- event heap ----

    /// Reschedules every active transfer on a directed link — its
    /// anchor moved, so every member's absolute due time moved.
    fn reschedule_link(&mut self, from: SiteId, to: SiteId) {
        let Some(share) = self.active.get(&(from, to)) else {
            return;
        };
        let link = self.network.link(from, to);
        let n = share.members.len();
        for id in &share.members {
            if let Some(t) = self.transfers.get_mut(id) {
                if let TState::Active { left } = t.state {
                    let due = due(share.since, left, n, link);
                    t.restamp(*id, due, &mut self.events, &mut self.dirty);
                }
            }
        }
    }

    /// Adds a freshly activated transfer (whose `left` is counted from
    /// now) to its link: settles the members under the old share, then
    /// reschedules the whole link (itself included).
    fn mark_active(&mut self, id: u64, from: SiteId, to: SiteId) {
        let now = self.now;
        let share = self.active.entry((from, to)).or_insert_with(|| Share {
            since: now,
            members: BTreeSet::new(),
        });
        share.settle(now, self.network.link(from, to), &mut self.transfers);
        share.members.insert(id);
        self.reschedule_link(from, to);
    }

    /// Removes a transfer from its link (if a member): settles the
    /// members under the old share, then reschedules those left.
    fn unmark_active(&mut self, id: u64, from: SiteId, to: SiteId) {
        let Some(share) = self.active.get_mut(&(from, to)) else {
            return;
        };
        if !share.members.contains(&id) {
            return;
        }
        share.settle(self.now, self.network.link(from, to), &mut self.transfers);
        share.members.remove(&id);
        if share.members.is_empty() {
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
        let Some(entry) = self.files.get(lfn) else {
            return Err(GaeError::NotFound(format!("file {lfn}")));
        };
        if entry.replicas.contains(&site) {
            self.remove_replica(lfn, site);
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
        } else {
            self.dirty.insert(token);
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
        self.blocked.contains(&(from, to))
    }

    /// Transfers currently draining over the directed link.
    pub fn active_on(&self, from: SiteId, to: SiteId) -> usize {
        self.active.get(&(from, to)).map_or(0, |s| s.members.len())
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
            let down = self.link_blocked(s, to);
            let n = self.active_on(s, to) + 1;
            let secs = drain_secs(entry.size as f64, n, link) + link.latency().as_secs_f64();
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
        if self.link_blocked(from, t.to) {
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
            left: t.size as f64,
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
        t.restamp(id, until, &mut self.events, &mut self.dirty);
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
        chain.pins.push(lfn.to_string());
        chain.live = chain.queue.pop_front();
        chain.done = chain.live.is_none();
        let (site, next, condor) = (chain.site, chain.live, chain.condor);
        self.store_mut(site).pin(lfn);
        if let Some(n) = next {
            self.activate(n);
        } else if let Some(condor) = condor {
            self.updates.push(XferUpdate::Restage {
                site,
                condor,
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
    /// the differential oracle for the event heap. Recounts each link's
    /// members and recomputes each active due time from its anchor
    /// instead of trusting the heap.
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
                TState::Active { left } => {
                    let n = counts.get(&(t.from, t.to)).copied().unwrap_or(1);
                    let since = self
                        .active
                        .get(&(t.from, t.to))
                        .map_or(self.now, |s| s.since);
                    due(since, left, n, self.network.link(t.from, t.to))
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
                t.restamp(id, until, &mut self.events, &mut self.dirty);
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
    /// refreshes the staging projections of the chains whose
    /// projection may have moved, so the owning grid can correct its
    /// `Pending` release instants. Nothing else is visited: an
    /// advance with nothing due only moves the clock.
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
            self.now = te.max(self.now);
            self.fire(id);
        }
        self.now = t;
        self.refresh_projections();
    }

    /// Queues a `Restage` for every dirty chain that is still live,
    /// bound and unfinished, in token order.
    fn refresh_projections(&mut self) {
        // Unfinished chains must never release early: clamp the
        // projection strictly past now.
        let floor = self.now + SimDuration::from_micros(1);
        let ups: Vec<XferUpdate> = std::mem::take(&mut self.dirty)
            .iter()
            .filter_map(|token| self.chains.get(token))
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
            TState::Active { left } => {
                let link = self.network.link(t.from, t.to);
                let (since, n) = self
                    .active
                    .get(&(t.from, t.to))
                    .map_or((self.now, 1), |s| (s.since, s.members.len()));
                due(since, left, n, link) + link.latency()
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
                started: t.started,
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
        self.counters.completed
    }

    /// Point-in-time metrics for the MonALISA `"xfer"` entity.
    pub fn metrics(&self) -> XferMetrics {
        let links = self
            .active
            .iter()
            .map(|(&(f, t), share)| (f, t, share.members.len()))
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

    /// Applies one op other than `Advance`; a planned chain is bound
    /// under `condor`, and file `f{n}` holds `size(n)` bytes at site 1.
    fn apply(x: &mut XferScheduler, op: &Op, size: fn(u8) -> u64, condor: u64) {
        match *op {
            Op::Register { file } => {
                x.register(&FileRef::new(format!("f{file}"), size(file)).with_replicas(vec![s(1)]));
            }
            Op::Replicate { file, to } => {
                let _ = x.replicate(&format!("f{file}"), s(to as u64));
            }
            Op::Advance { .. } => {}
            Op::FailLink { to } => x.fail_link(s(1), s(to as u64)),
            Op::HealLink { to } => x.heal_link(s(1), s(to as u64)),
            Op::DeleteSource { file } => {
                let _ = x.delete_replica(&format!("f{file}"), s(1));
            }
            Op::PlanStage { file, to } => {
                if let Some(f) = x.lookup(&format!("f{file}")) {
                    if let Some((token, _)) = x.plan_stage(s(to as u64), &[f]) {
                        x.bind_chain(token, condor);
                    }
                }
            }
        }
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
        /// The heap and the retained naive scan agree exactly on every
        /// next internal event across arbitrary mutation sequences:
        /// both read each active due time from the link's anchor
        /// through the one closed form.
        #[test]
        fn heap_agrees_with_naive_scan(ops in proptest::collection::vec(arb_op(), 1..48)) {
            let net = NetworkModel::new(Link::new(1e6, SimDuration::ZERO));
            let sites: Vec<SiteId> = (1..=6).map(s).collect();
            let mut x = XferScheduler::new(net, sites, XferConfig::with_defaults());
            for op in ops {
                match op {
                    Op::Advance { secs } => {
                        x.advance_to(x.now() + SimDuration::from_secs(secs as u64));
                    }
                    Op::PlanStage { file, .. } => {
                        apply(&mut x, &op, |f| (1 + f as u64) * 1_000_000, 1000 + file as u64);
                    }
                    _ => apply(&mut x, &op, |f| (1 + f as u64) * 1_000_000, 0),
                }
                proptest::prop_assert_eq!(x.naive_next_event(), x.next_internal_event());
            }
        }

        /// One `advance_to(t)` leaves the state any chain of
        /// intermediate advances to `t` leaves: bytes left are read from
        /// each link's anchor, so where the clock stops on the way moves
        /// no due time, projection, landing or counter. The last update
        /// drained for each bound chain agrees too, and after every
        /// advance each unfinished bound chain's last `Restage` is its
        /// projection: the dirty set misses no chain whose projection
        /// moved.
        #[test]
        fn one_advance_equals_any_chain_of_advances(
            ops in proptest::collection::vec(arb_op(), 1..48),
            cuts in proptest::collection::vec(proptest::collection::vec(0u64..9_000_000, 0..4), 48),
        ) {
            // Uneven bandwidths, latencies and sizes: due times off the
            // whole second.
            let mut net = NetworkModel::new(Link::new(1e6, SimDuration::ZERO));
            net.set_link(s(1), s(3), Link::new(3.3e6, SimDuration::from_millis(7)));
            net.set_link(s(1), s(4), Link::new(0.77e6, SimDuration::from_millis(250)));
            net.set_link(s(1), s(5), Link::new(1.9e6, SimDuration::from_micros(1_500)));
            let twin = || XferScheduler::new(net.clone(), (1..=6).map(s), XferConfig::with_defaults());
            let size = |f: u8| 1_000_000 + f as u64 * 737_311;
            let (mut one, mut chain) = (twin(), twin());
            let (mut last_one, mut last_chain) = (BTreeMap::new(), BTreeMap::new());
            let drain = |x: &mut XferScheduler, last: &mut BTreeMap<(SiteId, u64), XferUpdate>| {
                for u in x.drain_updates() {
                    let (XferUpdate::Restage { site, condor, .. }
                    | XferUpdate::StagingFailed { site, condor, .. }) = &u;
                    last.insert((*site, *condor), u);
                }
            };
            for (n, op) in ops.iter().enumerate() {
                if let Op::Advance { secs } = *op {
                    let from = one.now();
                    let span = secs as u64 * 1_000_000;
                    one.advance_to(from + SimDuration::from_micros(span));
                    let mut stops: Vec<u64> = cuts[n].iter().map(|c| c % (span + 1)).collect();
                    stops.sort_unstable();
                    for stop in stops {
                        chain.advance_to(from + SimDuration::from_micros(stop));
                        drain(&mut chain, &mut last_chain);
                    }
                    chain.advance_to(from + SimDuration::from_micros(span));
                } else {
                    apply(&mut one, op, size, n as u64);
                    apply(&mut chain, op, size, n as u64);
                }
                drain(&mut one, &mut last_one);
                drain(&mut chain, &mut last_chain);
                proptest::prop_assert_eq!(one.in_flight(), chain.in_flight());
                proptest::prop_assert_eq!(one.history(), chain.history());
                proptest::prop_assert_eq!(one.counters(), chain.counters());
                proptest::prop_assert_eq!(format!("{:?}", one.metrics()), format!("{:?}", chain.metrics()));
                proptest::prop_assert_eq!(one.export(), chain.export());
                proptest::prop_assert_eq!(one.next_event_time(), chain.next_event_time());
                proptest::prop_assert_eq!(&last_one, &last_chain);
                if matches!(op, Op::Advance { .. }) {
                    for c in one.chains.values().filter(|c| !c.done) {
                        if let Some(condor) = c.condor {
                            let until = one.projection(c);
                            let want = XferUpdate::Restage { site: c.site, condor, until };
                            proptest::prop_assert_eq!(last_one.get(&(c.site, condor)), Some(&want));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_advance_with_nothing_due_restages_nothing() {
        let mut x = sched();
        x.register(&file("a", 10, &[1]));
        x.register(&file("b", 10, &[1]));
        let (a, _) = x.plan_stage(s(2), &[x.lookup("a").unwrap()]).unwrap();
        let (b, _) = x.plan_stage(s(2), &[x.lookup("b").unwrap()]).unwrap();
        x.bind_chain(a, 1);
        x.bind_chain(b, 2);
        // Binding queues each chain's projection once: two equal drains
        // sharing the 1 MB/s link both land at 20 s.
        x.advance_to(SimTime::from_secs(1));
        let until = SimTime::from_secs(20);
        let restage = |condor| XferUpdate::Restage {
            site: s(2),
            condor,
            until,
        };
        assert_eq!(x.drain_updates(), vec![restage(1), restage(2)]);
        // Nothing is due before 20 s, so no projection moved.
        x.advance_to(SimTime::from_secs(5));
        assert_eq!(x.drain_updates(), vec![]);
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
