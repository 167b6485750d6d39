//! The execution service proper.
//!
//! A passive, deterministic state machine over [`Node`]s, a
//! [`PriorityQueue`] and per-task [`TaskRecord`]s. All mutation
//! happens "at `self.now`": callers advance time explicitly with
//! [`ExecutionService::advance_to`], and every query returns state
//! consistent with the current virtual instant.
//!
//! Completion times are *planned analytically*: when a task starts
//! (or resumes, or its remaining work changes) we compute the exact
//! finish instant from the node's load trace and store it. Advancing
//! time replays planned completions in order, starting queued tasks
//! in freed slots at the exact completion instants — no ticks, no
//! accumulation error. A running task's accrual is read the same way
//! ([`ExecutionService::usage`]), so advancing costs the events due.

use crate::backlog::BacklogIndex;
use crate::events::ExecEvent;
use crate::node::Node;
use crate::queue::PriorityQueue;
use crate::task::{Checkpoint, Phase, TaskRecord, Usage};
use gae_sim::LoadTrace;
use gae_types::{
    CondorId, GaeError, GaeResult, NodeId, Priority, SimDuration, SimTime, SiteDescription, TaskId,
    TaskSpec, TaskStatus,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Event kinds ordering pending-event heap entries at equal instants:
/// completions run before staging arrivals so a freshly staged task
/// can dispatch into the just-freed slot.
const KIND_COMPLETION: u8 = 0;
const KIND_STAGING: u8 = 1;

/// Callback invoked whenever the site's next-event time changes; the
/// grid uses it to maintain its cross-site minimum without re-locking
/// every site per driver iteration.
pub type NextEventNotifier = Box<dyn Fn(Option<SimTime>) + Send + Sync>;

/// Configuration of one execution site.
#[derive(Clone, Debug)]
pub struct SiteConfig {
    /// Static site description (capacity, speed, charge rates).
    pub description: SiteDescription,
    /// Load trace per node; shorter lists are cycled, an empty list
    /// means all nodes are free.
    pub node_traces: Vec<LoadTrace>,
}

impl SiteConfig {
    /// A site whose nodes are all free (no external load).
    pub fn free(description: SiteDescription) -> Self {
        SiteConfig {
            description,
            node_traces: vec![LoadTrace::free()],
        }
    }

    /// A site with one shared load trace on every node.
    pub fn uniform_load(description: SiteDescription, trace: LoadTrace) -> Self {
        SiteConfig {
            description,
            node_traces: vec![trace],
        }
    }
}

/// A running task's progress as the Optimizer reads it — the three
/// numbers of the monitoring snapshot it decides on, `Copy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Progress {
    /// Wall time since the task first started.
    pub elapsed: SimDuration,
    /// CPU time accrued across incarnations.
    pub cpu_time: SimDuration,
    /// Submission-time estimate less `cpu_time`, if one was recorded.
    pub remaining_time: Option<SimDuration>,
}

/// The answer of [`ExecutionService::probe`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskProbe {
    /// The execution service is down.
    SiteDown,
    /// Pending, queued or suspended: nothing for a steering round to
    /// do, and nothing will be until the site's transition epoch
    /// moves past `epoch`.
    Parked {
        /// The site's transition epoch at the probe.
        epoch: u64,
    },
    /// Running, with its progress.
    Running(Progress),
    /// Completed, failed or killed.
    Settled,
}

/// What a status change writes or reads besides the record itself,
/// kept in a field of its own so that [`Ledger::transition`] can take
/// a record its caller holds out of `ExecutionService::records`.
struct Ledger {
    /// The nodes, in id order, whose traces running tasks accrue on.
    nodes: Vec<Node>,
    /// Running set and per-priority queued backlog, kept in step with
    /// the records by [`Ledger::transition`] and by the service's
    /// `set_priority` and `set_estimate`.
    backlog: BacklogIndex,
    /// Bumped by every status transition and by the site failing or
    /// recovering — always under the service's lock, while readers
    /// (the steering round) load it without: an unchanged epoch means
    /// no record here changed status, no task was (re)submitted and
    /// the site's liveness is what it was.
    epoch: Arc<AtomicU64>,
    events: Vec<ExecEvent>,
    /// Monotone per-site event sequence; stamps [`ExecEvent::seq`].
    next_event_seq: u64,
}

impl Ledger {
    /// Moves `rec` into `phase` and emits the matching event. Every
    /// status change goes through here — that is what keeps the
    /// backlog index equal to a scan of the records, and the
    /// transition epoch a witness of "nothing changed status".
    fn transition(&mut self, rec: &mut TaskRecord, phase: Phase, now: SimTime, detail: &str) {
        self.backlog
            .update(rec, |rec| rec.enter(phase, now, &self.nodes));
        self.epoch.fetch_add(1, Ordering::Release);
        self.events.push(ExecEvent {
            seq: self.next_event_seq,
            at: now,
            condor: rec.condor,
            task: rec.spec.id,
            status: rec.status(),
            node: rec.node(),
            detail: detail.to_string(),
        });
        self.next_event_seq += 1;
    }

    /// Ends `rec` with `status`, keeping the node it holds (or, ending
    /// a husk again, the one it ended on).
    fn end(&mut self, rec: &mut TaskRecord, status: TaskStatus, at: SimTime, detail: &str) {
        let slot = rec.phase.node_slot();
        self.transition(rec, Phase::Ended { status, slot, at }, at, detail);
    }
}

/// The Condor-substitute execution engine for one site.
pub struct ExecutionService {
    site: SiteDescription,
    queue: PriorityQueue,
    records: HashMap<CondorId, TaskRecord>,
    by_task: HashMap<TaskId, CondorId>,
    ledger: Ledger,
    /// Min-heap of pending events keyed `(time, kind, condor)`, with
    /// lazy invalidation: an entry is live only while the task's phase
    /// still holds exactly that instant (`Running { finish }` for a
    /// completion, `Pending { until }` for a staging arrival).
    event_heap: BinaryHeap<Reverse<(SimTime, u8, CondorId)>>,
    /// Cached `next_event_time` answer, kept fresh by `refresh_next`
    /// at the end of every mutating public entry point.
    last_next: Option<SimTime>,
    /// Fires on every `last_next` change (grid next-event index).
    notifier: Option<NextEventNotifier>,
    next_condor: u64,
    now: SimTime,
    alive: bool,
    /// Condor-style preemption: when enabled, a queued task of
    /// strictly higher priority vacates the lowest-priority running
    /// task (which loses its progress unless checkpointable).
    preemptive: bool,
}

impl ExecutionService {
    /// Builds the service at time zero.
    pub fn new(config: SiteConfig) -> Self {
        let SiteConfig {
            description,
            node_traces,
        } = config;
        let mut nodes = Vec::with_capacity(description.nodes as usize);
        for i in 0..description.nodes {
            let trace = if node_traces.is_empty() {
                LoadTrace::free()
            } else {
                node_traces[i as usize % node_traces.len()].clone()
            };
            nodes.push(Node::new(
                NodeId::new(u64::from(i) + 1),
                description.speed_factor,
                description.slots_per_node,
                trace,
            ));
        }
        ExecutionService {
            site: description,
            queue: PriorityQueue::new(),
            records: HashMap::new(),
            by_task: HashMap::new(),
            ledger: Ledger {
                nodes,
                backlog: BacklogIndex::default(),
                epoch: Arc::new(AtomicU64::new(0)),
                events: Vec::new(),
                next_event_seq: 0,
            },
            event_heap: BinaryHeap::new(),
            last_next: None,
            notifier: None,
            next_condor: 1,
            now: SimTime::ZERO,
            alive: true,
            preemptive: false,
        }
    }

    /// Enables or disables priority preemption (off by default).
    pub fn set_preemptive(&mut self, enabled: bool) {
        self.preemptive = enabled;
    }

    // ---- identity & time ----

    /// The static site description.
    pub fn site(&self) -> &SiteDescription {
        &self.site
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// False after [`ExecutionService::fail_site`].
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// The site's transition epoch, shared so a holder can read it
    /// without this service's lock (the grid takes its clone at build
    /// time, beside the next-event notifier).
    pub fn transition_epoch(&self) -> &Arc<AtomicU64> {
        &self.ledger.epoch
    }

    /// The record a caller tracks as `task`'s here at `condor`. `None`
    /// when that is no longer the site's current, resident record for
    /// `task` (superseded, or a `Migrating` husk): the caller's hint is
    /// stale.
    pub fn hinted(&self, task: TaskId, condor: CondorId) -> Option<&TaskRecord> {
        let rec = self.records.get(&condor)?;
        let current = self.condor_of(task) == Some(condor);
        (current && rec.status() != TaskStatus::Migrating).then_some(rec)
    }

    /// What the steering round asks about the task it tracks here as
    /// `condor`, read under this one lock and building nothing. `None`
    /// when the hint is stale ([`Self::hinted`]).
    pub fn probe(&self, task: TaskId, condor: CondorId) -> Option<TaskProbe> {
        if !self.alive {
            return Some(TaskProbe::SiteDown);
        }
        let rec = self.hinted(task, condor)?;
        match rec.status() {
            TaskStatus::Pending | TaskStatus::Queued | TaskStatus::Suspended => {
                Some(TaskProbe::Parked {
                    epoch: self.ledger.epoch.load(Ordering::Acquire),
                })
            }
            TaskStatus::Running => {
                let cpu_time = self.usage(rec).total_accrued();
                Some(TaskProbe::Running(Progress {
                    elapsed: rec.elapsed(self.now),
                    cpu_time,
                    remaining_time: rec.estimated.map(|e| e.saturating_sub(cpu_time)),
                }))
            }
            _ => Some(TaskProbe::Settled),
        }
    }

    // ---- submission & dispatch ----

    /// Accepts a task into the queue, returning its Condor id.
    pub fn submit(
        &mut self,
        spec: Arc<TaskSpec>,
        carried: Option<Checkpoint>,
    ) -> GaeResult<CondorId> {
        self.submit_staged(spec, carried, SimDuration::ZERO)
    }

    /// Accepts a task whose input files need `stage_in` of transfer
    /// time first: the task is `Pending` while its inputs move, then
    /// enters the queue automatically (the caller — the grid fabric —
    /// computes the transfer time from its network model).
    pub fn submit_staged(
        &mut self,
        spec: Arc<TaskSpec>,
        carried: Option<Checkpoint>,
        stage_in: SimDuration,
    ) -> GaeResult<CondorId> {
        if !self.alive {
            return Err(GaeError::ExecutionFailure(format!(
                "site {} is down",
                self.site.name
            )));
        }
        let condor = CondorId::new(self.next_condor);
        self.next_condor += 1;
        let rec = self
            .records
            .entry(condor)
            .or_insert(TaskRecord::new(condor, spec, self.now, carried));
        self.by_task.insert(rec.spec.id, condor);
        if stage_in == SimDuration::ZERO {
            self.queue.push(condor, rec.priority);
            self.ledger
                .transition(rec, Phase::Queued, self.now, "submitted");
            self.dispatch();
        } else {
            let until = self.now + stage_in;
            let phase = Phase::Pending { until };
            self.ledger
                .transition(rec, phase, self.now, "staging input files");
            self.schedule(until, KIND_STAGING, condor);
        }
        self.refresh_next();
        Ok(condor)
    }

    /// Corrects the staging-release instant of a `Pending` task. The
    /// grid's transfer scheduler calls this whenever link contention
    /// moves the projected completion of the task's input chain; an
    /// instant at or before the clock releases the task on the next
    /// `advance_to`, at the clock (the clock never runs backwards). The
    /// instant the task already holds changes nothing: its heap entry
    /// is queued.
    pub fn restage(&mut self, condor: CondorId, until: SimTime) -> GaeResult<()> {
        let until = until.max(self.now);
        let rec = Self::staging_record(&mut self.records, condor)?;
        if rec.phase == (Phase::Pending { until }) {
            return Ok(());
        }
        rec.phase = Phase::Pending { until };
        self.schedule(until, KIND_STAGING, condor);
        self.refresh_next();
        Ok(())
    }

    /// The record of `condor` while it stages, or `NotFound`.
    fn staging_record(
        records: &mut HashMap<CondorId, TaskRecord>,
        condor: CondorId,
    ) -> GaeResult<&mut TaskRecord> {
        match records.get_mut(&condor) {
            Some(rec) if matches!(rec.phase, Phase::Pending { .. }) => Ok(rec),
            _ => Err(GaeError::NotFound(format!("{condor} is not staging"))),
        }
    }

    /// Fails a `Pending` task whose input-staging chain failed
    /// permanently, so steering's Backup & Recovery can reschedule it.
    pub fn fail_staging(&mut self, condor: CondorId, reason: &str) -> GaeResult<()> {
        let rec = Self::staging_record(&mut self.records, condor)?;
        let detail = format!("input staging failed: {reason}");
        self.ledger.end(rec, TaskStatus::Failed, self.now, &detail);
        self.refresh_next();
        Ok(())
    }

    /// Starts queued tasks while free slots exist; with preemption
    /// enabled, vacates lower-priority running tasks for queued
    /// higher-priority ones.
    fn dispatch(&mut self) {
        while let Some(&head) = self.queue.peek() {
            // Best free node = highest effective rate right now.
            let best = self
                .ledger
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.has_free_slot())
                .max_by(|(_, a), (_, b)| a.rate_at(self.now).total_cmp(&b.rate_at(self.now)))
                .map(|(i, _)| i);
            let slot = match best {
                Some(slot) => slot,
                // A slot just freed: re-evaluate.
                None if self.preemptive && self.vacate_for(head.priority) => continue,
                None => return,
            };
            self.queue.pop();
            let Some(rec) = self.records.get_mut(&head.condor) else {
                continue;
            };
            let node = &mut self.ledger.nodes[slot];
            node.occupy();
            let finish = node.finish_time(self.now, rec.demand.saturating_sub(rec.accrued));
            let phase = Phase::Running {
                slot: slot as u32,
                finish,
                since: self.now,
            };
            self.ledger.transition(rec, phase, self.now, "dispatched");
            self.schedule(finish, KIND_COMPLETION, head.condor);
        }
    }

    /// Vacates the lowest-priority running task if it is strictly
    /// below `incoming`; returns true if a slot was freed. The victim
    /// re-queues: checkpointable tasks keep their progress, others
    /// restart from zero (Condor vacate semantics, applied by `TaskRecord::enter`).
    fn vacate_for(&mut self, incoming: Priority) -> bool {
        let victim = self
            .ledger
            .backlog
            .running()
            .iter()
            .filter_map(|c| self.records.get(c))
            .min_by(|a, b| a.priority.cmp(&b.priority).then(a.condor.cmp(&b.condor)))
            .filter(|r| incoming.beats(r.priority))
            .map(|r| r.condor);
        let Some(rec) = victim.and_then(|c| self.records.get_mut(&c)) else {
            return false;
        };
        let was = rec.phase;
        let condor = rec.condor;
        self.queue.push(condor, rec.priority);
        let detail = "vacated by higher-priority task";
        self.ledger.transition(rec, Phase::Queued, self.now, detail);
        self.free(condor, was);
        true
    }

    // ---- time advancement ----

    /// Installs the next-event-change notifier and immediately syncs
    /// it with the current value. The callback runs under the
    /// service's lock: it must only touch independent state (the
    /// grid's next-event index), never this service or the grid.
    pub fn set_event_notifier(&mut self, notifier: NextEventNotifier) {
        notifier(self.last_next);
        self.notifier = Some(notifier);
    }

    /// The next instant something happens: a running task completes
    /// or a staging transfer finishes. O(1): the answer is cached and
    /// refreshed on every mutation.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.last_next
    }

    /// Pushes a pending-event heap entry.
    fn schedule(&mut self, at: SimTime, kind: u8, condor: CondorId) {
        self.event_heap.push(Reverse((at, kind, condor)));
    }

    /// Peeks the earliest live heap entry, discarding stale ones (the
    /// task's phase no longer holds that instant).
    fn peek_event(&mut self) -> Option<(SimTime, u8, CondorId)> {
        while let Some(&Reverse((te, kind, condor))) = self.event_heap.peek() {
            let live = match self.records.get(&condor).map(|r| r.phase) {
                Some(Phase::Running { finish, .. }) => kind == KIND_COMPLETION && finish == te,
                Some(Phase::Pending { until }) => kind == KIND_STAGING && until == te,
                _ => false,
            };
            if live {
                return Some((te, kind, condor));
            }
            self.event_heap.pop();
        }
        None
    }

    /// Recomputes the cached next-event answer and tells the notifier
    /// when it moved. Every mutating public entry point ends here.
    fn refresh_next(&mut self) {
        let next = self.peek_event().map(|(te, ..)| te);
        if next != self.last_next {
            self.last_next = next;
            if let Some(notify) = &self.notifier {
                notify(next);
            }
        }
    }

    /// Advances virtual time to `t`, processing completions and
    /// staging arrivals (and the queue starts they trigger) in exact
    /// order. The heap key `(time, kind, condor)` reproduces the
    /// historical selection rule: ties at the same instant break
    /// completion-first (so a freshly staged task can dispatch into
    /// the freed slot), then by Condor id — never by HashMap
    /// iteration order, since the completion sequence feeds the event
    /// log and the estimator histories.
    ///
    /// Running tasks are not visited: their accrual is read in closed
    /// form, so a site with nothing due by `t` only sets its clock, and
    /// one call to `t` leaves exactly the state any chain of calls to
    /// `t` does. An instant before the clock leaves it where it is.
    pub fn advance_to(&mut self, t: SimTime) {
        if self.last_next.is_some_and(|next| next <= t) {
            while let Some((te, kind, condor)) = self.peek_event().filter(|(te, ..)| *te <= t) {
                self.event_heap.pop();
                self.now = te;
                // The heap entry was live: the record finishes, or
                // stops staging, now.
                let Some(rec) = self.records.get_mut(&condor) else {
                    continue;
                };
                let was = rec.phase;
                if kind == KIND_COMPLETION {
                    self.ledger.end(rec, TaskStatus::Completed, te, "finished");
                    self.free(condor, was);
                } else {
                    self.queue.push(condor, rec.priority);
                    let detail = "input staging complete";
                    self.ledger.transition(rec, Phase::Queued, te, detail);
                }
                self.dispatch();
            }
            self.refresh_next();
        }
        self.now = self.now.max(t);
    }

    /// Frees what a task held in phase `was`: its node slot or its
    /// place in the queue.
    fn free(&mut self, condor: CondorId, was: Phase) {
        if was == Phase::Queued {
            self.queue.remove(condor);
        } else if let Some(slot) = was.slot() {
            self.ledger.nodes[slot].release();
        }
    }

    // ---- steering commands (kill / pause / resume / priority) ----

    fn live_record_mut(
        records: &mut HashMap<CondorId, TaskRecord>,
        condor: CondorId,
    ) -> GaeResult<&mut TaskRecord> {
        match records.get_mut(&condor) {
            Some(r) if r.status().is_live() => Ok(r),
            Some(r) => Err(GaeError::InvalidTransition {
                entity: condor.to_string(),
                from: r.status().to_string(),
                attempted: "control".into(),
            }),
            None => Err(GaeError::NotFound(condor.to_string())),
        }
    }

    /// Suspends a running or queued task (keeps its slot if running,
    /// like a SIGSTOPped Condor job).
    pub fn suspend(&mut self, condor: CondorId) -> GaeResult<()> {
        let rec = Self::live_record_mut(&mut self.records, condor)?;
        let slot = match rec.phase {
            Phase::Running { slot, .. } => Some(slot),
            Phase::Queued => {
                self.queue.remove(condor);
                None
            }
            _ => {
                return Err(GaeError::InvalidTransition {
                    entity: condor.to_string(),
                    from: rec.status().to_string(),
                    attempted: "suspend".into(),
                })
            }
        };
        self.ledger
            .transition(rec, Phase::Suspended { slot }, self.now, "suspended");
        self.refresh_next();
        Ok(())
    }

    /// Resumes a suspended task: running tasks continue in place,
    /// queue-suspended tasks re-enter the queue.
    pub fn resume(&mut self, condor: CondorId) -> GaeResult<()> {
        let rec = Self::live_record_mut(&mut self.records, condor)?;
        let Phase::Suspended { slot } = rec.phase else {
            return Err(GaeError::InvalidTransition {
                entity: condor.to_string(),
                from: rec.status().to_string(),
                attempted: "resume".into(),
            });
        };
        match slot {
            Some(slot) => {
                let node = &self.ledger.nodes[slot as usize];
                let finish = node.finish_time(self.now, rec.demand.saturating_sub(rec.accrued));
                let phase = Phase::Running {
                    slot,
                    finish,
                    since: self.now,
                };
                self.ledger.transition(rec, phase, self.now, "resumed");
                self.schedule(finish, KIND_COMPLETION, condor);
            }
            None => {
                self.queue.push(condor, rec.priority);
                let detail = "re-queued after resume";
                self.ledger.transition(rec, Phase::Queued, self.now, detail);
                self.dispatch();
            }
        }
        self.refresh_next();
        Ok(())
    }

    /// Kills a task (any live state).
    pub fn kill(&mut self, condor: CondorId) -> GaeResult<()> {
        let rec = Self::live_record_mut(&mut self.records, condor)?;
        let was = rec.phase;
        let detail = "killed by steering command";
        self.ledger.end(rec, TaskStatus::Killed, self.now, detail);
        self.free(condor, was);
        self.dispatch();
        self.refresh_next();
        Ok(())
    }

    /// Changes a task's priority; queued tasks are re-ordered.
    pub fn set_priority(&mut self, condor: CondorId, priority: Priority) -> GaeResult<()> {
        let rec = Self::live_record_mut(&mut self.records, condor)?;
        self.ledger
            .backlog
            .update(rec, |rec| rec.priority = priority);
        if rec.phase == Phase::Queued {
            self.queue.reprioritize(condor, priority);
        }
        Ok(())
    }

    /// Removes a task for migration to another site. Returns the spec
    /// and, if the task is checkpointable, the work completed so far.
    pub fn remove_for_migration(
        &mut self,
        condor: CondorId,
    ) -> GaeResult<(Arc<TaskSpec>, Option<Checkpoint>)> {
        let rec = Self::live_record_mut(&mut self.records, condor)?;
        let was = rec.phase;
        let spec = rec.spec.clone();
        // Work completed across all sites so far, never more than the
        // task needs.
        let done = rec.usage(&self.ledger.nodes, self.now).total_accrued();
        let done = done.min(rec.full_demand());
        let checkpoint = spec.checkpointable.then_some(Checkpoint { accrued: done });
        let detail = "removed for migration";
        self.ledger
            .end(rec, TaskStatus::Migrating, self.now, detail);
        self.free(condor, was);
        self.dispatch();
        self.refresh_next();
        Ok((spec, checkpoint))
    }

    // ---- failure injection ----

    /// Fails one node: its tasks fail, the node goes down.
    pub fn fail_node(&mut self, node_id: NodeId) -> GaeResult<()> {
        let idx = self.node_index(node_id)?;
        let detail = format!("{node_id} failed");
        self.fail_where(|r| r.phase.slot() == Some(idx), &detail);
        self.ledger.nodes[idx].fail();
        self.dispatch();
        self.refresh_next();
        Ok(())
    }

    /// Brings a failed node back (empty). Recovering a node that is
    /// already up is a no-op — resetting a live node's slot counter
    /// would orphan the tasks holding its slots.
    pub fn recover_node(&mut self, node_id: NodeId) -> GaeResult<()> {
        let idx = self.node_index(node_id)?;
        let node = &mut self.ledger.nodes[idx];
        if !node.is_alive() {
            node.recover();
            self.dispatch();
            self.refresh_next();
        }
        Ok(())
    }

    /// Takes the whole site down: every live task fails, the queue
    /// empties, and further submissions are refused until recovery.
    pub fn fail_site(&mut self) {
        self.alive = false;
        self.ledger.epoch.fetch_add(1, Ordering::Release);
        self.fail_where(|r| r.status().is_live(), "execution service failed");
        for node in &mut self.ledger.nodes {
            node.fail();
        }
        self.refresh_next();
    }

    /// Fails the records `hit` picks, freeing what each held, in
    /// Condor-id order: `records` is a HashMap, and the event stream
    /// (and everything journaled from it) must be reproducible.
    fn fail_where(&mut self, hit: impl Fn(&TaskRecord) -> bool, detail: &str) {
        let mut victims: Vec<CondorId> = self
            .records
            .values()
            .filter(|r| hit(r))
            .map(|r| r.condor)
            .collect();
        victims.sort_unstable();
        for condor in victims {
            let Some(rec) = self.records.get_mut(&condor) else {
                continue;
            };
            let was = rec.phase;
            self.ledger.end(rec, TaskStatus::Failed, self.now, detail);
            self.free(condor, was);
        }
    }

    /// Brings the site back up; only downed nodes are reset.
    pub fn recover_site(&mut self) {
        self.alive = true;
        self.ledger.epoch.fetch_add(1, Ordering::Release);
        for node in &mut self.ledger.nodes {
            if !node.is_alive() {
                node.recover();
            }
        }
        self.dispatch();
        self.refresh_next();
    }

    // ---- queries ----

    /// `rec`'s work as of the clock: `cpu_time`, progress and the I/O
    /// counters of the monitoring surface read it.
    pub fn usage<'a>(&self, rec: &'a TaskRecord) -> Usage<'a> {
        rec.usage(&self.ledger.nodes, self.now)
    }

    /// The record for a Condor id.
    pub fn record(&self, condor: CondorId) -> GaeResult<&TaskRecord> {
        self.records
            .get(&condor)
            .ok_or_else(|| GaeError::NotFound(condor.to_string()))
    }

    /// Looks up the Condor id assigned to a global task id.
    pub fn condor_of(&self, task: TaskId) -> Option<CondorId> {
        self.by_task.get(&task).copied()
    }

    /// Current status of a task.
    pub fn status(&self, condor: CondorId) -> GaeResult<TaskStatus> {
        self.record(condor).map(TaskRecord::status)
    }

    /// Queue snapshot in dispatch order.
    pub fn queue_snapshot(&self) -> Vec<crate::queue::QueueEntry> {
        self.queue.snapshot()
    }

    /// Number of waiting tasks.
    pub fn queue_length(&self) -> usize {
        self.queue.len()
    }

    /// Zero-based queue position of a task, `None` if not queued. Only
    /// a `Queued` record sits in the queue, so no other is looked for.
    pub fn queue_position(&self, condor: CondorId) -> Option<usize> {
        self.records
            .get(&condor)
            .filter(|r| r.phase == Phase::Queued)?;
        self.queue.position(condor)
    }

    /// Number of running tasks.
    pub fn running_count(&self) -> usize {
        self.ledger.backlog.running().len()
    }

    /// §6.2's queue time for priority `p`: the summed remaining
    /// estimated runtimes of the running and queued tasks whose
    /// priority is strictly above `p`. Tasks without a submission-time
    /// estimate contribute nothing, and one that has outrun its
    /// estimate contributes zero. O(priorities + slots): the queued
    /// part is a range over the backlog index, the running part one
    /// pass over at most a slot's worth of records.
    pub fn backlog_above(&self, p: Priority) -> SimDuration {
        let running: SimDuration = self
            .ledger
            .backlog
            .running()
            .iter()
            .filter_map(|c| self.records.get(c))
            .filter(|r| r.priority.beats(p))
            .filter_map(|r| r.estimated_remaining(self.usage(r).accrued()))
            .sum();
        self.ledger.backlog.queued_above(p) + running
    }

    /// Records (or with `None` clears) the runtime estimated for a
    /// task at submission, returning the estimate it replaces.
    pub fn set_estimate(
        &mut self,
        condor: CondorId,
        estimate: Option<SimDuration>,
    ) -> GaeResult<Option<SimDuration>> {
        let rec = self
            .records
            .get_mut(&condor)
            .ok_or_else(|| GaeError::NotFound(condor.to_string()))?;
        Ok(self
            .ledger
            .backlog
            .update(rec, |rec| std::mem::replace(&mut rec.estimated, estimate)))
    }

    /// The backlog index itself, for the differential suite.
    #[cfg(test)]
    pub(crate) fn backlog_index(&self) -> &BacklogIndex {
        &self.ledger.backlog
    }

    /// The record walk [`Self::backlog_above`] replaced, kept as its
    /// differential oracle: Condor ids and accrued runtimes of all
    /// running or queued tasks with priority strictly above `p`.
    #[cfg(test)]
    pub(crate) fn tasks_above_priority(&self, p: Priority) -> Vec<(CondorId, TaskId, SimDuration)> {
        let mut out: Vec<(CondorId, TaskId, SimDuration)> = self
            .records
            .values()
            .filter(|r| {
                matches!(r.status(), TaskStatus::Running | TaskStatus::Queued)
                    && r.priority.beats(p)
            })
            .map(|r| (r.condor, r.spec.id, self.usage(r).accrued()))
            .collect();
        out.sort_by_key(|(c, _, _)| *c);
        out
    }

    /// Mean external load over the site's nodes right now (published
    /// to MonALISA as the farm's `cpu_load`).
    pub fn current_load(&self) -> f64 {
        let nodes = &self.ledger.nodes;
        if nodes.is_empty() {
            return 0.0;
        }
        nodes.iter().map(|n| n.load_at(self.now)).sum::<f64>() / nodes.len() as f64
    }

    /// Node accessor (diagnostics).
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.node_index(id).ok().map(|i| &self.ledger.nodes[i])
    }

    /// `id`'s slot in `nodes` (node ids count from 1), or `NotFound`.
    fn node_index(&self, id: NodeId) -> GaeResult<usize> {
        (id.raw().checked_sub(1).map(|i| i as usize))
            .filter(|&i| i < self.ledger.nodes.len())
            .ok_or_else(|| GaeError::NotFound(id.to_string()))
    }

    /// All nodes, in id order (monitoring sweep).
    pub fn nodes(&self) -> &[Node] {
        &self.ledger.nodes
    }

    /// All records, unordered (monitoring sweep).
    pub fn records(&self) -> impl Iterator<Item = &TaskRecord> {
        self.records.values()
    }

    /// The pre-heap min-scan over the records' pending instants,
    /// retained as the differential oracle for the cached heap answer.
    #[cfg(test)]
    pub(crate) fn naive_next_event_time(&self) -> Option<SimTime> {
        self.records
            .values()
            .filter_map(|r| match r.phase {
                Phase::Running { finish, .. } => Some(finish),
                Phase::Pending { until } => Some(until),
                _ => None,
            })
            .min()
    }

    /// Removes and returns all events emitted since the last drain.
    pub fn drain_events(&mut self) -> Vec<ExecEvent> {
        std::mem::take(&mut self.ledger.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::{SiteId, TaskId};

    fn site(id: u64, nodes: u32, slots: u32) -> SiteDescription {
        SiteDescription::new(SiteId::new(id), format!("site-{id}"), nodes, slots)
    }

    fn task(id: u64, demand_s: u64) -> TaskSpec {
        TaskSpec::new(TaskId::new(id), format!("t{id}"), "prime")
            .with_cpu_demand(SimDuration::from_secs(demand_s))
    }

    fn free_service() -> ExecutionService {
        ExecutionService::new(SiteConfig::free(site(1, 1, 1)))
    }

    #[test]
    fn submit_runs_and_completes_on_free_cpu() {
        let mut svc = free_service();
        let c = svc.submit(task(1, 283).into(), None).unwrap();
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Running);
        assert_eq!(svc.next_event_time(), Some(SimTime::from_secs(283)));
        svc.advance_to(SimTime::from_secs(283));
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Completed);
        let rec = svc.record(c).unwrap();
        assert_eq!(rec.finished_at(), Some(SimTime::from_secs(283)));
        assert_eq!(svc.usage(rec).accrued(), SimDuration::from_secs(283));
        assert_eq!(svc.usage(rec).progress(), 1.0);
    }

    #[test]
    fn loaded_node_slows_accrual() {
        // Load 3.67 -> rate ~0.214: the Figure 7 site-A scenario.
        let cfg = SiteConfig::uniform_load(site(1, 1, 1), LoadTrace::constant(3.67));
        let mut svc = ExecutionService::new(cfg);
        let c = svc.submit(task(1, 283).into(), None).unwrap();
        svc.advance_to(SimTime::from_secs(141));
        let rec = svc.record(c).unwrap();
        // ~141 * 1/4.67 = ~30.2 s accrued.
        let accrued = svc.usage(rec).accrued().as_secs_f64();
        assert!((accrued - 30.19).abs() < 0.1, "accrued {accrued}");
        assert_eq!(rec.status(), TaskStatus::Running);
        // Full completion takes 283 * 4.67 = ~1321.6 s.
        let finish = svc.next_event_time().unwrap().as_secs_f64();
        assert!((finish - 1321.6).abs() < 0.2, "finish {finish}");
    }

    #[test]
    fn queueing_fifo_on_single_slot() {
        let mut svc = free_service();
        let a = svc.submit(task(1, 100).into(), None).unwrap();
        let b = svc.submit(task(2, 50).into(), None).unwrap();
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Running);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Queued);
        assert_eq!(svc.queue_position(b), Some(0));
        assert_eq!(svc.queue_length(), 1);
        svc.advance_to(SimTime::from_secs(100));
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Completed);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Running);
        // b starts exactly at a's completion.
        svc.advance_to(SimTime::from_secs(150));
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Completed);
        assert_eq!(
            svc.record(b).unwrap().finished_at(),
            Some(SimTime::from_secs(150))
        );
    }

    #[test]
    fn priority_reorders_queue() {
        let mut svc = free_service();
        let _running = svc.submit(task(1, 100).into(), None).unwrap();
        let low = svc.submit(task(2, 10).into(), None).unwrap();
        let high = svc
            .submit(task(3, 10).with_priority(Priority::HIGH).into(), None)
            .unwrap();
        assert_eq!(svc.queue_position(high), Some(0));
        assert_eq!(svc.queue_position(low), Some(1));
        svc.advance_to(SimTime::from_secs(100));
        assert_eq!(svc.status(high).unwrap(), TaskStatus::Running);
        assert_eq!(svc.status(low).unwrap(), TaskStatus::Queued);
    }

    #[test]
    fn multi_slot_parallelism() {
        let mut svc = ExecutionService::new(SiteConfig::free(site(1, 2, 2)));
        let ids: Vec<CondorId> = (1..=4)
            .map(|i| svc.submit(task(i, 100).into(), None).unwrap())
            .collect();
        assert_eq!(svc.running_count(), 4);
        svc.advance_to(SimTime::from_secs(100));
        for c in ids {
            assert_eq!(svc.status(c).unwrap(), TaskStatus::Completed);
        }
    }

    #[test]
    fn suspend_stops_accrual_resume_continues() {
        let mut svc = free_service();
        let c = svc.submit(task(1, 100).into(), None).unwrap();
        svc.advance_to(SimTime::from_secs(30));
        svc.suspend(c).unwrap();
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Suspended);
        svc.advance_to(SimTime::from_secs(80));
        let rec = svc.record(c).unwrap();
        assert_eq!(
            svc.usage(rec).accrued(),
            SimDuration::from_secs(30),
            "no accrual while suspended"
        );
        svc.resume(c).unwrap();
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Running);
        // 70 s remaining from t=80 -> completes at 150.
        assert_eq!(svc.next_event_time(), Some(SimTime::from_secs(150)));
        svc.advance_to(SimTime::from_secs(150));
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Completed);
    }

    #[test]
    fn suspended_running_task_keeps_its_slot() {
        let mut svc = free_service();
        let a = svc.submit(task(1, 100).into(), None).unwrap();
        let b = svc.submit(task(2, 10).into(), None).unwrap();
        svc.suspend(a).unwrap();
        // The slot is held, so b stays queued (Condor SIGSTOP model).
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Queued);
    }

    #[test]
    fn suspend_queued_task_leaves_queue() {
        let mut svc = free_service();
        let _a = svc.submit(task(1, 100).into(), None).unwrap();
        let b = svc.submit(task(2, 10).into(), None).unwrap();
        svc.suspend(b).unwrap();
        assert_eq!(svc.queue_length(), 0);
        svc.resume(b).unwrap();
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Queued);
        assert_eq!(svc.queue_length(), 1);
    }

    #[test]
    fn kill_releases_slot_and_starts_next() {
        let mut svc = free_service();
        let a = svc.submit(task(1, 100).into(), None).unwrap();
        let b = svc.submit(task(2, 50).into(), None).unwrap();
        svc.advance_to(SimTime::from_secs(10));
        svc.kill(a).unwrap();
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Killed);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Running);
        // Killing again is an invalid transition.
        assert!(matches!(
            svc.kill(a),
            Err(GaeError::InvalidTransition { .. })
        ));
        svc.advance_to(SimTime::from_secs(60));
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Completed);
    }

    #[test]
    fn kill_queued_task() {
        let mut svc = free_service();
        let _a = svc.submit(task(1, 100).into(), None).unwrap();
        let b = svc.submit(task(2, 50).into(), None).unwrap();
        svc.kill(b).unwrap();
        assert_eq!(svc.queue_length(), 0);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Killed);
    }

    #[test]
    fn set_priority_on_queued_task_reorders() {
        let mut svc = free_service();
        let _running = svc.submit(task(1, 100).into(), None).unwrap();
        let b = svc.submit(task(2, 10).into(), None).unwrap();
        let c = svc.submit(task(3, 10).into(), None).unwrap();
        assert_eq!(svc.queue_position(c), Some(1));
        svc.set_priority(c, Priority::HIGH).unwrap();
        assert_eq!(svc.queue_position(c), Some(0));
        assert_eq!(svc.queue_position(b), Some(1));
    }

    #[test]
    fn migration_without_checkpoint_restarts() {
        let mut svc_a = free_service();
        let c = svc_a.submit(task(1, 283).into(), None).unwrap();
        svc_a.advance_to(SimTime::from_secs(86));
        let (spec, ck) = svc_a.remove_for_migration(c).unwrap();
        assert!(ck.is_none(), "non-checkpointable task carries nothing");
        assert_eq!(svc_a.status(c).unwrap(), TaskStatus::Migrating);
        // Restart from scratch at a free site B.
        let mut svc_b = ExecutionService::new(SiteConfig::free(site(2, 1, 1)));
        svc_b.advance_to(SimTime::from_secs(86));
        let c2 = svc_b.submit(spec, ck).unwrap();
        assert_eq!(svc_b.next_event_time(), Some(SimTime::from_secs(86 + 283)));
        let _ = c2;
    }

    #[test]
    fn migration_with_checkpoint_carries_work() {
        let mut svc_a = free_service();
        let c = svc_a
            .submit(task(1, 283).with_checkpointable(true).into(), None)
            .unwrap();
        svc_a.advance_to(SimTime::from_secs(100));
        let (spec, ck) = svc_a.remove_for_migration(c).unwrap();
        assert_eq!(ck.unwrap().accrued, SimDuration::from_secs(100));
        let mut svc_b = ExecutionService::new(SiteConfig::free(site(2, 1, 1)));
        svc_b.advance_to(SimTime::from_secs(100));
        let c2 = svc_b.submit(spec, ck).unwrap();
        // Only 183 s remain.
        assert_eq!(svc_b.next_event_time(), Some(SimTime::from_secs(283)));
        svc_b.advance_to(SimTime::from_secs(283));
        assert_eq!(svc_b.status(c2).unwrap(), TaskStatus::Completed);
    }

    /// A checkpoint carried across two hops: each site's checkpoint is
    /// the work done at every site so far, so the third site runs only
    /// what is left of the full demand.
    #[test]
    fn checkpoint_migration_carries_work_across_two_hops() {
        let spec: Arc<TaskSpec> = task(1, 300).with_checkpointable(true).into();
        let mut svc_a = free_service();
        let a = svc_a.submit(spec, None).unwrap();
        svc_a.advance_to(SimTime::from_secs(100));
        let (spec, ck) = svc_a.remove_for_migration(a).unwrap();
        assert_eq!(ck.unwrap().accrued, SimDuration::from_secs(100));

        let mut svc_b = ExecutionService::new(SiteConfig::free(site(2, 1, 1)));
        svc_b.advance_to(SimTime::from_secs(100));
        let b = svc_b.submit(spec, ck).unwrap();
        assert_eq!(svc_b.record(b).unwrap().demand, SimDuration::from_secs(200));
        svc_b.advance_to(SimTime::from_secs(150));
        let rec = svc_b.record(b).unwrap();
        assert_eq!(rec.full_demand(), SimDuration::from_secs(300));
        assert!((svc_b.usage(rec).progress() - 0.5).abs() < 1e-9);
        let (spec, ck) = svc_b.remove_for_migration(b).unwrap();
        assert_eq!(ck.unwrap().accrued, SimDuration::from_secs(150));

        let mut svc_c = ExecutionService::new(SiteConfig::free(site(3, 1, 1)));
        svc_c.advance_to(SimTime::from_secs(150));
        let c = svc_c.submit(spec, ck).unwrap();
        assert_eq!(svc_c.next_event_time(), Some(SimTime::from_secs(300)));
        svc_c.advance_to(SimTime::from_secs(300));
        let rec = svc_c.record(c).unwrap();
        assert_eq!(svc_c.status(c).unwrap(), TaskStatus::Completed);
        assert_eq!(
            svc_c.usage(rec).total_accrued(),
            SimDuration::from_secs(300)
        );
        assert_eq!(rec.carried, SimDuration::from_secs(150));
    }

    #[test]
    fn node_failure_fails_its_tasks() {
        let mut svc = ExecutionService::new(SiteConfig::free(site(1, 2, 1)));
        let a = svc.submit(task(1, 100).into(), None).unwrap();
        let b = svc.submit(task(2, 100).into(), None).unwrap();
        let node_a = svc.record(a).unwrap().node().unwrap();
        svc.fail_node(node_a).unwrap();
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Failed);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Running);
        assert!(svc.fail_node(NodeId::new(99)).is_err());
        svc.recover_node(node_a).unwrap();
        assert!(svc.node(node_a).unwrap().is_alive());
    }

    #[test]
    fn site_failure_and_recovery() {
        let mut svc = free_service();
        let a = svc.submit(task(1, 100).into(), None).unwrap();
        let b = svc.submit(task(2, 100).into(), None).unwrap();
        svc.fail_site();
        assert!(!svc.is_alive());
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Failed);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Failed);
        assert_eq!(svc.queue_length(), 0);
        assert!(svc.submit(task(3, 10).into(), None).is_err());
        svc.recover_site();
        assert!(svc.is_alive());
        assert!(svc.submit(task(3, 10).into(), None).is_ok());
    }

    /// `records` is a HashMap; a site outage with several live tasks
    /// must still emit its failures in Condor-id order, or everything
    /// journaled from the stream differs run to run.
    #[test]
    fn site_failure_emits_in_condor_order() {
        let mut svc = free_service();
        let submitted: Vec<CondorId> = (1..=8)
            .map(|i| svc.submit(task(i, 100).into(), None).unwrap())
            .collect();
        svc.drain_events();
        svc.fail_site();
        let failed: Vec<CondorId> = svc.drain_events().iter().map(|e| e.condor).collect();
        assert_eq!(failed, submitted);
    }

    #[test]
    fn tasks_above_priority_for_estimator() {
        let mut svc = ExecutionService::new(SiteConfig::free(site(1, 1, 1)));
        let a = svc
            .submit(task(1, 100).with_priority(Priority::new(5)).into(), None)
            .unwrap();
        let _b = svc
            .submit(task(2, 100).with_priority(Priority::new(3)).into(), None)
            .unwrap();
        let _c = svc
            .submit(task(3, 100).with_priority(Priority::new(0)).into(), None)
            .unwrap();
        svc.advance_to(SimTime::from_secs(10));
        let above = svc.tasks_above_priority(Priority::new(0));
        assert_eq!(above.len(), 2);
        // The running high-priority task reports its accrued time.
        let (condor, _, accrued) = above[0];
        assert_eq!(condor, a);
        assert_eq!(accrued, SimDuration::from_secs(10));
        // Queued task reports zero accrued.
        assert_eq!(above[1].2, SimDuration::ZERO);
    }

    #[test]
    fn events_stream_covers_lifecycle() {
        let mut svc = free_service();
        let c = svc.submit(task(1, 10).into(), None).unwrap();
        svc.advance_to(SimTime::from_secs(10));
        let events = svc.drain_events();
        let statuses: Vec<TaskStatus> = events.iter().map(|e| e.status).collect();
        assert_eq!(
            statuses,
            vec![
                TaskStatus::Queued,
                TaskStatus::Running,
                TaskStatus::Completed
            ]
        );
        assert!(events.iter().all(|e| e.condor == c));
        // Drain empties the buffer.
        assert!(svc.drain_events().is_empty());
    }

    #[test]
    fn condor_of_maps_task_ids() {
        let mut svc = free_service();
        let c = svc.submit(task(7, 10).into(), None).unwrap();
        assert_eq!(svc.condor_of(TaskId::new(7)), Some(c));
        assert_eq!(svc.condor_of(TaskId::new(8)), None);
    }

    #[test]
    fn unknown_condor_is_not_found() {
        let svc = free_service();
        assert!(matches!(
            svc.status(CondorId::new(42)),
            Err(GaeError::NotFound(_))
        ));
    }

    #[test]
    fn node_ids_outside_the_site_are_not_found() {
        // Node ids count from 1: node 0 must not wrap to `u64::MAX`.
        let mut svc = free_service();
        for id in [0, 2] {
            let node = NodeId::new(id);
            assert!(matches!(svc.fail_node(node), Err(GaeError::NotFound(_))));
            assert!(matches!(svc.recover_node(node), Err(GaeError::NotFound(_))));
            assert!(svc.node(node).is_none());
        }
        assert!(svc.fail_node(NodeId::new(1)).is_ok());
        assert!(svc.recover_node(NodeId::new(1)).is_ok());
    }

    #[test]
    fn dispatch_prefers_faster_node() {
        // Node 1 loaded, node 2 free: the task must land on node 2.
        let desc = site(1, 2, 1);
        let cfg = SiteConfig {
            description: desc,
            node_traces: vec![LoadTrace::constant(4.0), LoadTrace::free()],
        };
        let mut svc = ExecutionService::new(cfg);
        let c = svc.submit(task(1, 100).into(), None).unwrap();
        assert_eq!(svc.record(c).unwrap().node(), Some(NodeId::new(2)));
        assert_eq!(svc.next_event_time(), Some(SimTime::from_secs(100)));
    }

    #[test]
    fn current_load_averages_nodes() {
        let cfg = SiteConfig {
            description: site(1, 2, 1),
            node_traces: vec![LoadTrace::constant(2.0), LoadTrace::constant(4.0)],
        };
        let svc = ExecutionService::new(cfg);
        assert_eq!(svc.current_load(), 3.0);
    }

    #[test]
    fn zero_demand_completes_at_submission_instant() {
        let mut svc = free_service();
        let c = svc
            .submit(task(1, 0).with_cpu_demand(SimDuration::ZERO).into(), None)
            .unwrap();
        assert_eq!(svc.next_event_time(), Some(SimTime::ZERO));
        svc.advance_to(SimTime::ZERO);
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Completed);
    }

    #[test]
    fn elapsed_includes_queue_gaps_accrued_does_not() {
        let mut svc = free_service();
        let _a = svc.submit(task(1, 50).into(), None).unwrap();
        let b = svc.submit(task(2, 50).into(), None).unwrap();
        svc.advance_to(SimTime::from_secs(120));
        let rec = svc.record(b).unwrap();
        // b started at 50, so elapsed 70 but accrued 50 (completed).
        assert_eq!(rec.started_at, Some(SimTime::from_secs(50)));
        assert_eq!(rec.status(), TaskStatus::Completed);
        assert_eq!(svc.usage(rec).accrued(), SimDuration::from_secs(50));
        assert_eq!(
            rec.elapsed(SimTime::from_secs(120)),
            SimDuration::from_secs(70)
        );
    }

    #[test]
    fn preemption_vacates_lower_priority_work() {
        let mut svc = free_service();
        svc.set_preemptive(true);
        let low = svc
            .submit(task(1, 100).with_priority(Priority::LOW).into(), None)
            .unwrap();
        svc.advance_to(SimTime::from_secs(30));
        let high = svc
            .submit(task(2, 50).with_priority(Priority::HIGH).into(), None)
            .unwrap();
        // The high-priority task takes the slot immediately.
        assert_eq!(svc.status(high).unwrap(), TaskStatus::Running);
        assert_eq!(svc.status(low).unwrap(), TaskStatus::Queued);
        // Non-checkpointable: the 30 s of progress are lost.
        let rec = svc.record(low).unwrap();
        assert_eq!(svc.usage(rec).accrued(), SimDuration::ZERO);
        // After the high task finishes, the low one restarts and
        // needs its full 100 s again.
        svc.advance_to(SimTime::from_secs(80));
        assert_eq!(svc.status(low).unwrap(), TaskStatus::Running);
        svc.advance_to(SimTime::from_secs(180));
        assert_eq!(svc.status(low).unwrap(), TaskStatus::Completed);
    }

    #[test]
    fn preemption_preserves_checkpointed_progress() {
        let mut svc = free_service();
        svc.set_preemptive(true);
        let low = svc
            .submit(
                task(1, 100)
                    .with_priority(Priority::LOW)
                    .with_checkpointable(true)
                    .into(),
                None,
            )
            .unwrap();
        svc.advance_to(SimTime::from_secs(40));
        let high = svc
            .submit(task(2, 50).with_priority(Priority::HIGH).into(), None)
            .unwrap();
        assert_eq!(svc.status(high).unwrap(), TaskStatus::Running);
        let rec = svc.record(low).unwrap();
        assert_eq!(rec.carried, SimDuration::from_secs(40), "checkpoint kept");
        assert!((svc.usage(rec).progress() - 0.4).abs() < 1e-9);
        // 50 s of high task, then 60 s remaining: done at 90 + 60.
        svc.advance_to(SimTime::from_secs(150));
        assert_eq!(svc.status(low).unwrap(), TaskStatus::Completed);
        assert_eq!(
            svc.record(low).unwrap().finished_at(),
            Some(SimTime::from_secs(150))
        );
    }

    /// A vacate folds the closed-form read at its instant into the
    /// carried work, never more than the demand: a task vacated a
    /// microsecond before its finish carries what it accrued,
    /// `full_demand` stays the spec's, and a migration then
    /// checkpoints exactly that.
    #[test]
    fn vacated_over_accrual_carries_no_more_than_the_demand() {
        let cfg = SiteConfig::uniform_load(site(1, 1, 1), LoadTrace::constant(3.67));
        let mut svc = ExecutionService::new(cfg);
        svc.set_preemptive(true);
        let demand = SimDuration::from_micros(100);
        let low = TaskSpec::new(TaskId::new(1), "low", "prime")
            .with_cpu_demand(demand)
            .with_priority(Priority::LOW)
            .with_checkpointable(true);
        let low = svc.submit(low.into(), None).unwrap();
        let finish = svc.next_event_time().unwrap();
        svc.advance_to(SimTime::from_micros(finish.as_micros() - 1));
        let done = svc.usage(svc.record(low).unwrap()).accrued();
        assert_eq!(svc.status(low).unwrap(), TaskStatus::Running);
        assert!(done > SimDuration::ZERO && done <= demand, "{done}");
        let high = svc
            .submit(task(2, 10).with_priority(Priority::HIGH).into(), None)
            .unwrap();
        assert_eq!(svc.status(high).unwrap(), TaskStatus::Running);
        let rec = svc.record(low).unwrap();
        assert_eq!((rec.carried, rec.full_demand()), (done, demand));
        let (_, ck) = svc.remove_for_migration(low).unwrap();
        assert_eq!(ck, Some(Checkpoint { accrued: done }));
    }

    #[test]
    fn preemption_never_vacates_equal_priority() {
        let mut svc = free_service();
        svc.set_preemptive(true);
        let a = svc.submit(task(1, 100).into(), None).unwrap();
        let b = svc.submit(task(2, 100).into(), None).unwrap();
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Running);
        assert_eq!(
            svc.status(b).unwrap(),
            TaskStatus::Queued,
            "no equal-priority preemption"
        );
    }

    #[test]
    fn preemption_off_by_default() {
        let mut svc = free_service();
        let low = svc
            .submit(task(1, 100).with_priority(Priority::LOW).into(), None)
            .unwrap();
        let high = svc
            .submit(task(2, 50).with_priority(Priority::HIGH).into(), None)
            .unwrap();
        assert_eq!(svc.status(low).unwrap(), TaskStatus::Running);
        assert_eq!(svc.status(high).unwrap(), TaskStatus::Queued);
    }

    #[test]
    fn staged_submission_waits_before_queueing() {
        let mut svc = free_service();
        let c = svc
            .submit_staged(task(1, 100).into(), None, SimDuration::from_secs(40))
            .unwrap();
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Pending);
        assert_eq!(svc.next_event_time(), Some(SimTime::from_secs(40)));
        svc.advance_to(SimTime::from_secs(39));
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Pending);
        svc.advance_to(SimTime::from_secs(40));
        assert_eq!(
            svc.status(c).unwrap(),
            TaskStatus::Running,
            "staged then dispatched"
        );
        // Runs 100 s after the 40 s staging.
        svc.advance_to(SimTime::from_secs(140));
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Completed);
        assert_eq!(
            svc.record(c).unwrap().started_at,
            Some(SimTime::from_secs(40))
        );
    }

    #[test]
    fn staging_task_can_be_killed_and_migrated() {
        let mut svc = free_service();
        let a = svc
            .submit_staged(task(1, 100).into(), None, SimDuration::from_secs(50))
            .unwrap();
        svc.kill(a).unwrap();
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Killed);
        // The staging event must not resurrect it.
        svc.advance_to(SimTime::from_secs(60));
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Killed);

        let b = svc
            .submit_staged(task(2, 100).into(), None, SimDuration::from_secs(50))
            .unwrap();
        let (spec, ck) = svc.remove_for_migration(b).unwrap();
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Migrating);
        assert!(ck.is_none());
        assert_eq!(spec.id, TaskId::new(2));
        svc.advance_to(SimTime::from_secs(200));
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Migrating);
    }

    #[test]
    fn staging_interleaves_with_completions() {
        // One slot: a 30 s task running; a staged task arrives at 20 s
        // and must wait for the slot at 30 s.
        let mut svc = free_service();
        let a = svc.submit(task(1, 30).into(), None).unwrap();
        let b = svc
            .submit_staged(task(2, 10).into(), None, SimDuration::from_secs(20))
            .unwrap();
        svc.advance_to(SimTime::from_secs(25));
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Running);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Queued);
        svc.advance_to(SimTime::from_secs(40));
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Completed);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Completed);
        assert_eq!(
            svc.record(b).unwrap().started_at,
            Some(SimTime::from_secs(30))
        );
    }

    /// A correction to an instant the clock has passed releases the
    /// task at the clock; stepping back to it would accrue the running
    /// task over a backward interval.
    #[test]
    fn restage_into_the_past_releases_at_the_clock() {
        let mut svc = ExecutionService::new(SiteConfig::free(site(1, 2, 1)));
        let running = svc.submit(task(1, 100).into(), None).unwrap();
        let staged = svc
            .submit_staged(task(2, 10).into(), None, SimDuration::from_secs(50))
            .unwrap();
        svc.advance_to(SimTime::from_secs(20));
        svc.restage(staged, SimTime::from_secs(10)).unwrap();
        assert_eq!(svc.next_event_time(), Some(SimTime::from_secs(20)));
        svc.advance_to(SimTime::from_secs(30));
        assert_eq!(svc.now(), SimTime::from_secs(30));
        assert_eq!(
            svc.record(staged).unwrap().started_at,
            Some(SimTime::from_secs(20))
        );
        let rec = svc.record(running).unwrap();
        assert_eq!(svc.usage(rec).accrued(), SimDuration::from_secs(30));
    }

    /// A restage to the instant a staging task already holds pushes no
    /// second heap entry for it.
    #[test]
    fn restage_to_the_held_instant_pushes_nothing() {
        let mut svc = free_service();
        let stage = SimDuration::from_secs(50);
        let staged = svc.submit_staged(task(1, 10).into(), None, stage);
        let staged = staged.unwrap();
        let queued = svc.event_heap.len();
        svc.restage(staged, SimTime::from_secs(50)).unwrap();
        assert_eq!(svc.event_heap.len(), queued);
        assert_eq!(svc.next_event_time(), Some(SimTime::from_secs(50)));
    }

    #[test]
    fn site_failure_kills_staging_tasks() {
        let mut svc = free_service();
        let c = svc
            .submit_staged(task(1, 100).into(), None, SimDuration::from_secs(50))
            .unwrap();
        svc.fail_site();
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Failed);
        svc.recover_site();
        svc.advance_to(SimTime::from_secs(100));
        assert_eq!(
            svc.status(c).unwrap(),
            TaskStatus::Failed,
            "no resurrection"
        );
    }

    #[test]
    fn completion_beats_staging_at_same_instant() {
        // One slot: a 20 s task runs while another stages until
        // exactly 20 s. The completion must fire first so the staged
        // task queues into the freed slot at the same instant.
        let mut svc = free_service();
        let a = svc.submit(task(1, 20).into(), None).unwrap();
        let b = svc
            .submit_staged(task(2, 5).into(), None, SimDuration::from_secs(20))
            .unwrap();
        svc.advance_to(SimTime::from_secs(20));
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Completed);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Running);
        assert_eq!(
            svc.record(b).unwrap().started_at,
            Some(SimTime::from_secs(20))
        );
        let events = svc.drain_events();
        let completed_a = events
            .iter()
            .position(|e| e.condor == a && e.status == TaskStatus::Completed)
            .unwrap();
        let queued_b = events
            .iter()
            .position(|e| e.condor == b && e.status == TaskStatus::Queued)
            .unwrap();
        assert!(completed_a < queued_b, "completion processed first");
    }

    #[test]
    fn cached_next_event_matches_naive_scan_across_mutations() {
        let mut svc = ExecutionService::new(SiteConfig::free(site(1, 2, 2)));
        macro_rules! check {
            () => {
                assert_eq!(svc.next_event_time(), svc.naive_next_event_time())
            };
        }
        check!();
        let a = svc.submit(task(1, 40).into(), None).unwrap();
        check!();
        let b = svc
            .submit_staged(task(2, 10).into(), None, SimDuration::from_secs(7))
            .unwrap();
        check!();
        let c = svc.submit(task(3, 25).into(), None).unwrap();
        check!();
        svc.advance_to(SimTime::from_secs(5));
        check!();
        svc.restage(b, SimTime::from_secs(12)).unwrap();
        check!();
        svc.suspend(a).unwrap();
        check!();
        svc.advance_to(SimTime::from_secs(13));
        check!();
        svc.resume(a).unwrap();
        check!();
        svc.kill(c).unwrap();
        check!();
        let d = svc
            .submit_staged(task(4, 10).into(), None, SimDuration::from_secs(30))
            .unwrap();
        check!();
        let _ = svc.remove_for_migration(d).unwrap();
        check!();
        svc.fail_node(NodeId::new(1)).unwrap();
        check!();
        svc.recover_node(NodeId::new(1)).unwrap();
        check!();
        svc.advance_to(SimTime::from_secs(200));
        check!();
        assert_eq!(svc.next_event_time(), None, "all work settled");
        svc.fail_site();
        check!();
        svc.recover_site();
        check!();
    }

    #[test]
    fn event_notifier_fires_on_next_event_changes() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<Option<SimTime>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut svc = free_service();
        let sink = seen.clone();
        svc.set_event_notifier(Box::new(move |next| sink.lock().unwrap().push(next)));
        let _a = svc.submit(task(1, 30).into(), None).unwrap();
        svc.advance_to(SimTime::from_secs(30));
        svc.advance_to(SimTime::from_secs(40)); // no change: no callback
        let seen = seen.lock().unwrap();
        assert_eq!(
            *seen,
            vec![
                None,                         // sync at install
                Some(SimTime::from_secs(30)), // dispatch planned the finish
                None,                         // completion drained the heap
            ]
        );
    }

    /// The epoch moves exactly when a status, the task→record map or
    /// the site's liveness does — and the probe's answers are the
    /// ones whose persistence an unmoved epoch vouches for.
    #[test]
    fn transition_epoch_witnesses_every_status_change() {
        let mut svc = free_service();
        let epoch = svc.transition_epoch().clone();
        let read = || epoch.load(Ordering::Acquire);
        let running = svc.submit(task(1, 100).into(), None).unwrap();
        let queued = svc.submit(task(2, 50).into(), None).unwrap();
        let staging = svc
            .submit_staged(task(3, 50).into(), None, SimDuration::from_secs(500))
            .unwrap();
        let e = read();
        assert_eq!(e, 4, "queued+running, queued, pending");
        let parked = Some(TaskProbe::Parked { epoch: e });
        assert_eq!(svc.probe(TaskId::new(2), queued), parked);
        assert_eq!(svc.probe(TaskId::new(3), staging), parked);
        assert_eq!(
            svc.probe(TaskId::new(2), running),
            None,
            "not task 2's record"
        );
        assert_eq!(svc.probe(TaskId::new(9), queued), None);

        // Time, priorities, estimates and staging corrections are not
        // transitions.
        svc.advance_to(SimTime::from_secs(10));
        svc.set_priority(queued, Priority::HIGH).unwrap();
        svc.set_estimate(queued, Some(SimDuration::from_secs(5)))
            .unwrap();
        svc.restage(staging, SimTime::from_secs(400)).unwrap();
        assert_eq!(read(), e);
        assert_eq!(svc.probe(TaskId::new(2), queued), parked);
        let Some(TaskProbe::Running(progress)) = svc.probe(TaskId::new(1), running) else {
            panic!("task 1 runs");
        };
        assert_eq!(progress.elapsed, SimDuration::from_secs(10));
        assert_eq!(progress.cpu_time, SimDuration::from_secs(10));
        assert_eq!(progress.remaining_time, None);

        svc.suspend(queued).unwrap();
        assert_eq!(read(), e + 1);
        svc.resume(queued).unwrap();
        assert_eq!(read(), e + 2);
        svc.advance_to(SimTime::from_secs(100));
        assert_eq!(read(), e + 4, "completed, and the queued task dispatched");
        assert_eq!(svc.probe(TaskId::new(1), running), Some(TaskProbe::Settled));
        svc.remove_for_migration(queued).unwrap();
        assert_eq!(svc.probe(TaskId::new(2), queued), None, "a husk");

        let before = read();
        svc.fail_site();
        assert_eq!(read(), before + 3, "the outage, the staging task, the husk");
        assert_eq!(
            svc.probe(TaskId::new(3), staging),
            Some(TaskProbe::SiteDown)
        );
        svc.recover_site();
        assert_eq!(read(), before + 4);
        assert_eq!(svc.probe(TaskId::new(3), staging), Some(TaskProbe::Settled));
    }

    #[test]
    fn load_step_changes_are_exact() {
        // Free for 100 s, then load 1 (rate 1/2): 150 s of work
        // finishes at 100 + 2*50 = 200.
        let trace =
            LoadTrace::from_steps(vec![(SimTime::ZERO, 0.0), (SimTime::from_secs(100), 1.0)]);
        let mut svc = ExecutionService::new(SiteConfig::uniform_load(site(1, 1, 1), trace));
        let c = svc.submit(task(1, 150).into(), None).unwrap();
        assert_eq!(svc.next_event_time(), Some(SimTime::from_secs(200)));
        svc.advance_to(SimTime::from_secs(200));
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Completed);
    }
}
