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
//! accumulation error.

use crate::backlog::BacklogIndex;
use crate::events::ExecEvent;
use crate::node::Node;
use crate::queue::PriorityQueue;
use crate::task::{Checkpoint, TaskRecord};
use gae_sim::LoadTrace;
use gae_types::{
    CondorId, GaeError, GaeResult, NodeId, Priority, SimDuration, SimTime, SiteDescription, SiteId,
    TaskId, TaskSpec, TaskStatus,
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

/// The Condor-substitute execution engine for one site.
pub struct ExecutionService {
    site: SiteDescription,
    nodes: Vec<Node>,
    queue: PriorityQueue,
    records: HashMap<CondorId, TaskRecord>,
    by_task: HashMap<TaskId, CondorId>,
    /// Running set and per-priority queued backlog, kept in step with
    /// `records` by [`Self::transition`], [`Self::set_priority`] and
    /// [`Self::set_estimate`].
    backlog: BacklogIndex,
    planned_finish: HashMap<CondorId, SimTime>,
    /// Tasks still staging their input files: Condor id → instant the
    /// transfer completes and the task enters the queue.
    staging_until: HashMap<CondorId, SimTime>,
    /// Min-heap of pending events keyed `(time, kind, condor)`, with
    /// lazy invalidation: an entry is live only while the matching map
    /// (`planned_finish` / `staging_until`) still holds exactly that
    /// instant for that task. Replaces the per-iteration min-scan of
    /// both maps.
    event_heap: BinaryHeap<Reverse<(SimTime, u8, CondorId)>>,
    /// Cached `next_event_time` answer, kept fresh by `refresh_next`
    /// at the end of every mutating public entry point.
    last_next: Option<SimTime>,
    /// Fires on every `last_next` change (grid next-event index).
    notifier: Option<NextEventNotifier>,
    /// Bumped by every status transition and by the site failing or
    /// recovering — always under the service's lock, while readers
    /// (the steering round) load it without: an unchanged epoch means
    /// no record here changed status, no task was (re)submitted and
    /// the site's liveness is what it was.
    epoch: Arc<AtomicU64>,
    /// Per node, the last `(from, to, work)` [`Self::accrue_all_to`]
    /// computed: tasks sharing a node share the step.
    accrual_memo: Vec<(SimTime, SimTime, SimDuration)>,
    next_condor: u64,
    now: SimTime,
    alive: bool,
    events: Vec<ExecEvent>,
    /// Monotone per-site event sequence; stamps [`ExecEvent::seq`].
    next_event_seq: u64,
    /// Condor-style fair share: when enabled, ties between queued
    /// tasks of equal priority are broken by the owners' accumulated
    /// CPU usage at this site (lighter users first) instead of FIFO.
    fair_share: bool,
    /// Condor-style preemption: when enabled, a queued task of
    /// strictly higher priority vacates the lowest-priority running
    /// task (which loses its progress unless checkpointable).
    preemptive: bool,
    /// CPU-seconds completed per owner at this site (fair-share input
    /// and accounting aid).
    usage: HashMap<gae_types::UserId, f64>,
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
        let accrual_memo = vec![(SimTime::ZERO, SimTime::ZERO, SimDuration::ZERO); nodes.len()];
        ExecutionService {
            site: description,
            nodes,
            queue: PriorityQueue::new(),
            records: HashMap::new(),
            by_task: HashMap::new(),
            backlog: BacklogIndex::default(),
            planned_finish: HashMap::new(),
            staging_until: HashMap::new(),
            event_heap: BinaryHeap::new(),
            last_next: None,
            notifier: None,
            epoch: Arc::new(AtomicU64::new(0)),
            accrual_memo,
            next_condor: 1,
            now: SimTime::ZERO,
            alive: true,
            events: Vec::new(),
            next_event_seq: 0,
            fair_share: false,
            preemptive: false,
            usage: HashMap::new(),
        }
    }

    /// Enables or disables priority preemption (off by default).
    pub fn set_preemptive(&mut self, enabled: bool) {
        self.preemptive = enabled;
    }

    /// Enables or disables fair-share tie-breaking (off by default;
    /// the paper's testbed ran plain priority FIFO).
    pub fn set_fair_share(&mut self, enabled: bool) {
        self.fair_share = enabled;
    }

    /// CPU-seconds completed by `owner` at this site.
    pub fn usage_of(&self, owner: gae_types::UserId) -> f64 {
        self.usage.get(&owner).copied().unwrap_or(0.0)
    }

    // ---- identity & time ----

    /// The site this service runs.
    pub fn site_id(&self) -> SiteId {
        self.site.id
    }

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
        &self.epoch
    }

    /// What the steering round asks about the task it tracks here as
    /// `condor`, read under this one lock and building nothing. `None`
    /// when that is no longer the site's current, resident record for
    /// `task` (superseded, or a `Migrating` husk): the caller's hint is
    /// stale.
    pub fn probe(&self, task: TaskId, condor: CondorId) -> Option<TaskProbe> {
        if !self.alive {
            return Some(TaskProbe::SiteDown);
        }
        if self.condor_of(task) != Some(condor) {
            return None;
        }
        let rec = self.records.get(&condor)?;
        match rec.status {
            TaskStatus::Migrating => None,
            TaskStatus::Pending | TaskStatus::Queued | TaskStatus::Suspended => {
                Some(TaskProbe::Parked {
                    epoch: self.epoch.load(Ordering::Acquire),
                })
            }
            TaskStatus::Running => Some(TaskProbe::Running(Progress {
                elapsed: rec.elapsed(self.now),
                cpu_time: rec.total_accrued(),
                remaining_time: rec.estimated.map(|e| e.saturating_sub(rec.total_accrued())),
            })),
            _ => Some(TaskProbe::Settled),
        }
    }

    // ---- submission & dispatch ----

    /// Accepts a task into the queue, returning its Condor id.
    pub fn submit(&mut self, spec: TaskSpec, carried: Option<Checkpoint>) -> GaeResult<CondorId> {
        self.submit_staged(spec, carried, SimDuration::ZERO)
    }

    /// Accepts a task whose input files need `stage_in` of transfer
    /// time first: the task is `Pending` while its inputs move, then
    /// enters the queue automatically (the caller — the grid fabric —
    /// computes the transfer time from its network model).
    pub fn submit_staged(
        &mut self,
        spec: TaskSpec,
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
        let record = TaskRecord::new(condor, spec, self.now, carried);
        let priority = record.priority;
        self.by_task.insert(record.spec.id, condor);
        self.records.insert(condor, record);
        if stage_in == SimDuration::ZERO {
            self.queue.push(condor, priority);
            self.transition(condor, TaskStatus::Queued, "submitted");
            self.dispatch();
        } else {
            let until = self.now + stage_in;
            self.staging_until.insert(condor, until);
            self.schedule(until, KIND_STAGING, condor);
            self.transition(condor, TaskStatus::Pending, "staging input files");
        }
        self.refresh_next();
        Ok(condor)
    }

    /// Moves a task whose staging finished into the queue.
    fn finish_staging(&mut self, condor: CondorId) {
        self.staging_until.remove(&condor);
        let Some(rec) = self.records.get(&condor) else {
            return;
        };
        if rec.status != TaskStatus::Pending {
            return; // killed or failed while staging
        }
        self.queue.push(condor, rec.priority);
        self.transition(condor, TaskStatus::Queued, "input staging complete");
        self.dispatch();
    }

    /// Corrects the staging-release instant of a `Pending` task. The
    /// grid's transfer scheduler calls this whenever link contention
    /// moves the projected completion of the task's input chain; an
    /// instant at or before the clock releases the task on the next
    /// `advance_to`.
    pub fn restage(&mut self, condor: CondorId, until: SimTime) -> GaeResult<()> {
        match self.staging_until.get_mut(&condor) {
            Some(slot) => {
                *slot = until;
                self.schedule(until, KIND_STAGING, condor);
                self.refresh_next();
                Ok(())
            }
            None => Err(GaeError::NotFound(format!("{condor} is not staging"))),
        }
    }

    /// Fails a `Pending` task whose input-staging chain failed
    /// permanently, so steering's Backup & Recovery can reschedule it.
    pub fn fail_staging(&mut self, condor: CondorId, reason: &str) -> GaeResult<()> {
        if self.staging_until.remove(&condor).is_none() {
            return Err(GaeError::NotFound(format!("{condor} is not staging")));
        }
        let now = self.now;
        let rec = self
            .records
            .get_mut(&condor)
            .ok_or_else(|| GaeError::NotFound(condor.to_string()))?;
        rec.finished_at = Some(now);
        self.transition(
            condor,
            TaskStatus::Failed,
            &format!("input staging failed: {reason}"),
        );
        self.refresh_next();
        Ok(())
    }

    /// Starts queued tasks while free slots exist; with preemption
    /// enabled, vacates lower-priority running tasks for queued
    /// higher-priority ones.
    fn dispatch(&mut self) {
        loop {
            if self.queue.peek().is_none() {
                return;
            }
            // Best free node = highest effective rate right now.
            let best = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.has_free_slot())
                .max_by(|(_, a), (_, b)| {
                    a.rate_at(self.now)
                        .partial_cmp(&b.rate_at(self.now))
                        .expect("rates are finite")
                })
                .map(|(i, _)| i);
            let best = match best {
                Some(i) => Some(i),
                None if self.preemptive => {
                    if self.vacate_for(self.queue.peek().expect("peeked").priority) {
                        continue; // a slot just freed; re-evaluate
                    }
                    None
                }
                None => None,
            };
            let Some(node_idx) = best else { return };
            let entry = if self.fair_share {
                // Among the head priority class, pick the owner with
                // the least completed CPU at this site.
                let snapshot = self.queue.snapshot();
                let head_priority = snapshot.first().expect("peeked non-empty").priority;
                let chosen = snapshot
                    .iter()
                    .take_while(|e| e.priority == head_priority)
                    .min_by(|a, b| {
                        let ua = self
                            .records
                            .get(&a.condor)
                            .map(|r| self.usage_of(r.spec.owner))
                            .unwrap_or(0.0);
                        let ub = self
                            .records
                            .get(&b.condor)
                            .map(|r| self.usage_of(r.spec.owner))
                            .unwrap_or(0.0);
                        ua.partial_cmp(&ub)
                            .expect("usage is finite")
                            .then(a.condor.cmp(&b.condor))
                    })
                    .expect("non-empty class")
                    .to_owned();
                self.queue.remove(chosen.condor);
                chosen
            } else {
                self.queue.pop().expect("peeked non-empty")
            };
            let node_id = self.nodes[node_idx].id;
            self.nodes[node_idx].occupy();
            let finish;
            {
                let rec = self.records.get_mut(&entry.condor).expect("queued record");
                rec.node = Some(node_id);
                if rec.started_at.is_none() {
                    rec.started_at = Some(self.now);
                }
                rec.accrued_as_of = self.now;
                finish = self.nodes[node_idx].finish_time(self.now, rec.remaining());
            }
            self.planned_finish.insert(entry.condor, finish);
            self.schedule(finish, KIND_COMPLETION, entry.condor);
            self.transition(entry.condor, TaskStatus::Running, "dispatched");
        }
    }

    /// Vacates the lowest-priority running task if it is strictly
    /// below `incoming`; returns true if a slot was freed. The victim
    /// re-queues: checkpointable tasks keep their progress, others
    /// restart from zero (Condor vacate semantics).
    fn vacate_for(&mut self, incoming: Priority) -> bool {
        let victim = self
            .backlog
            .running()
            .iter()
            .map(|c| &self.records[c])
            .min_by(|a, b| a.priority.cmp(&b.priority).then(a.condor.cmp(&b.condor)))
            .filter(|r| incoming.beats(r.priority))
            .map(|r| r.condor);
        let Some(condor) = victim else { return false };
        self.planned_finish.remove(&condor);
        let rec = self.records.get_mut(&condor).expect("victim record");
        let node = rec.node.take().expect("running task has a node");
        if rec.spec.checkpointable {
            // Progress survives: fold it into the carried work.
            rec.carried += rec.accrued;
            rec.demand = rec.demand.saturating_sub(rec.accrued);
        }
        rec.accrued = SimDuration::ZERO;
        rec.accrued_as_of = self.now;
        let priority = rec.priority;
        self.nodes[(node.raw() - 1) as usize].release();
        self.queue.push(condor, priority);
        self.transition(
            condor,
            TaskStatus::Queued,
            "vacated by higher-priority task",
        );
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
    /// matching map no longer holds that instant for that task).
    fn peek_event(&mut self) -> Option<(SimTime, u8, CondorId)> {
        while let Some(&Reverse((te, kind, condor))) = self.event_heap.peek() {
            let live = if kind == KIND_COMPLETION {
                self.planned_finish.get(&condor) == Some(&te)
            } else {
                self.staging_until.get(&condor) == Some(&te)
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
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance backwards");
        while let Some((te, kind, condor)) = self.peek_event() {
            if te > t {
                break;
            }
            self.event_heap.pop();
            self.accrue_all_to(te);
            self.now = te;
            if kind == KIND_COMPLETION {
                self.complete(condor);
                self.dispatch();
            } else {
                self.finish_staging(condor);
            }
        }
        self.accrue_all_to(t);
        self.now = t;
        self.refresh_next();
    }

    /// Brings every running task's accrual up to `t`. The step a
    /// node's trace yields over `[from, t]` is computed once per
    /// `(node, from)` and shared by the tasks running there. Each
    /// instant is still stepped to: a step is rounded to the
    /// microsecond, so skipping one would move `accrued`.
    fn accrue_all_to(&mut self, t: SimTime) {
        for condor in self.backlog.running() {
            let rec = self.records.get_mut(condor).expect("running record");
            let node = rec.node.expect("running task has a node");
            let idx = (node.raw() - 1) as usize;
            let memo = &mut self.accrual_memo[idx];
            if (memo.0, memo.1) != (rec.accrued_as_of, t) {
                *memo = (
                    rec.accrued_as_of,
                    t,
                    self.nodes[idx].accrued_between(rec.accrued_as_of, t),
                );
            }
            rec.accrued += memo.2;
            rec.accrued_as_of = t;
            rec.update_io();
        }
    }

    fn complete(&mut self, condor: CondorId) {
        self.planned_finish.remove(&condor);
        let rec = self.records.get_mut(&condor).expect("completing record");
        // The planned finish is analytic; snap accrual to the demand
        // to avoid 1-microsecond float residue.
        rec.accrued = rec.demand;
        rec.finished_at = Some(self.now);
        rec.update_io();
        let owner = rec.spec.owner;
        let used = rec.accrued.as_secs_f64();
        let node = rec.node.expect("running task has a node");
        *self.usage.entry(owner).or_insert(0.0) += used;
        self.nodes[(node.raw() - 1) as usize].release();
        self.transition(condor, TaskStatus::Completed, "finished");
    }

    // ---- steering commands (kill / pause / resume / priority) ----

    fn live_record_mut(
        records: &mut HashMap<CondorId, TaskRecord>,
        condor: CondorId,
    ) -> GaeResult<&mut TaskRecord> {
        match records.get_mut(&condor) {
            Some(r) if r.status.is_live() => Ok(r),
            Some(r) => Err(GaeError::InvalidTransition {
                entity: condor.to_string(),
                from: r.status.to_string(),
                attempted: "control".into(),
            }),
            None => Err(GaeError::NotFound(condor.to_string())),
        }
    }

    /// Suspends a running or queued task (keeps its slot if running,
    /// like a SIGSTOPped Condor job).
    pub fn suspend(&mut self, condor: CondorId) -> GaeResult<()> {
        let rec = Self::live_record_mut(&mut self.records, condor)?;
        match rec.status {
            TaskStatus::Running => {
                self.planned_finish.remove(&condor);
            }
            TaskStatus::Queued => {
                rec.node = None;
                self.queue.remove(condor);
            }
            other => {
                return Err(GaeError::InvalidTransition {
                    entity: condor.to_string(),
                    from: other.to_string(),
                    attempted: "suspend".into(),
                })
            }
        }
        self.transition(condor, TaskStatus::Suspended, "suspended");
        self.refresh_next();
        Ok(())
    }

    /// Resumes a suspended task: running tasks continue in place,
    /// queue-suspended tasks re-enter the queue.
    pub fn resume(&mut self, condor: CondorId) -> GaeResult<()> {
        let now = self.now;
        let rec = Self::live_record_mut(&mut self.records, condor)?;
        if rec.status != TaskStatus::Suspended {
            return Err(GaeError::InvalidTransition {
                entity: condor.to_string(),
                from: rec.status.to_string(),
                attempted: "resume".into(),
            });
        }
        match rec.node {
            Some(node_id) => {
                rec.accrued_as_of = now;
                let remaining = rec.remaining();
                let finish = self.nodes[(node_id.raw() - 1) as usize].finish_time(now, remaining);
                self.planned_finish.insert(condor, finish);
                self.schedule(finish, KIND_COMPLETION, condor);
                self.transition(condor, TaskStatus::Running, "resumed");
            }
            None => {
                let prio = rec.priority;
                self.queue.push(condor, prio);
                self.transition(condor, TaskStatus::Queued, "re-queued after resume");
                self.dispatch();
            }
        }
        self.refresh_next();
        Ok(())
    }

    /// Kills a task (any live state).
    pub fn kill(&mut self, condor: CondorId) -> GaeResult<()> {
        let now = self.now;
        let rec = Self::live_record_mut(&mut self.records, condor)?;
        let was = rec.status;
        rec.finished_at = Some(now);
        let node = rec.node;
        match was {
            TaskStatus::Running | TaskStatus::Suspended => {
                if let Some(node_id) = node {
                    self.nodes[(node_id.raw() - 1) as usize].release();
                }
                self.planned_finish.remove(&condor);
            }
            TaskStatus::Queued => {
                self.queue.remove(condor);
            }
            TaskStatus::Pending => {
                self.staging_until.remove(&condor);
            }
            _ => {}
        }
        self.transition(condor, TaskStatus::Killed, "killed by steering command");
        self.dispatch();
        self.refresh_next();
        Ok(())
    }

    /// Changes a task's priority; queued tasks are re-ordered.
    pub fn set_priority(&mut self, condor: CondorId, priority: Priority) -> GaeResult<()> {
        let rec = Self::live_record_mut(&mut self.records, condor)?;
        self.backlog.update(rec, |rec| rec.priority = priority);
        if rec.status == TaskStatus::Queued {
            self.queue.reprioritize(condor, priority);
        }
        Ok(())
    }

    /// Removes a task for migration to another site. Returns the spec
    /// and, if the task is checkpointable, the work completed so far.
    pub fn remove_for_migration(
        &mut self,
        condor: CondorId,
    ) -> GaeResult<(TaskSpec, Option<Checkpoint>)> {
        let now = self.now;
        let rec = Self::live_record_mut(&mut self.records, condor)?;
        let was = rec.status;
        rec.finished_at = Some(now);
        let node = rec.node;
        let spec = rec.spec.clone();
        // Work completed across all sites so far = full demand minus
        // what is still missing here.
        let full = spec
            .true_cpu_demand
            .unwrap_or_else(|| SimDuration::from_secs_f64(spec.requested_cpu_hours * 3600.0));
        let done = full.saturating_sub(rec.remaining());
        let checkpoint = if spec.checkpointable {
            Some(Checkpoint { accrued: done })
        } else {
            None
        };
        match was {
            TaskStatus::Running | TaskStatus::Suspended => {
                if let Some(node_id) = node {
                    self.nodes[(node_id.raw() - 1) as usize].release();
                }
                self.planned_finish.remove(&condor);
            }
            TaskStatus::Queued => {
                self.queue.remove(condor);
            }
            TaskStatus::Pending => {
                self.staging_until.remove(&condor);
            }
            _ => {}
        }
        self.transition(condor, TaskStatus::Migrating, "removed for migration");
        self.dispatch();
        self.refresh_next();
        Ok((spec, checkpoint))
    }

    // ---- failure injection ----

    /// Fails one node: its tasks fail, the node goes down.
    pub fn fail_node(&mut self, node_id: NodeId) -> GaeResult<()> {
        let idx = (node_id.raw() - 1) as usize;
        if idx >= self.nodes.len() {
            return Err(GaeError::NotFound(node_id.to_string()));
        }
        let mut victims: Vec<CondorId> = self
            .records
            .values()
            .filter(|r| {
                r.node == Some(node_id)
                    && matches!(r.status, TaskStatus::Running | TaskStatus::Suspended)
            })
            .map(|r| r.condor)
            .collect();
        // `records` is a HashMap: emit in Condor-id order so the event
        // stream (and everything journaled from it) is reproducible.
        victims.sort_unstable();
        for condor in victims {
            self.planned_finish.remove(&condor);
            let now = self.now;
            let rec = self.records.get_mut(&condor).expect("victim record");
            rec.finished_at = Some(now);
            self.transition(condor, TaskStatus::Failed, &format!("{node_id} failed"));
        }
        self.nodes[idx].fail();
        self.dispatch();
        self.refresh_next();
        Ok(())
    }

    /// Brings a failed node back (empty). Recovering a node that is
    /// already up is a no-op — resetting a live node's slot counter
    /// would orphan the tasks holding its slots.
    pub fn recover_node(&mut self, node_id: NodeId) -> GaeResult<()> {
        let idx = (node_id.raw() - 1) as usize;
        if idx >= self.nodes.len() {
            return Err(GaeError::NotFound(node_id.to_string()));
        }
        if !self.nodes[idx].is_alive() {
            self.nodes[idx].recover();
            self.dispatch();
            self.refresh_next();
        }
        Ok(())
    }

    /// Takes the whole site down: every live task fails, the queue
    /// empties, and further submissions are refused until recovery.
    pub fn fail_site(&mut self) {
        self.alive = false;
        self.epoch.fetch_add(1, Ordering::Release);
        let mut victims: Vec<CondorId> = self
            .records
            .values()
            .filter(|r| r.status.is_live())
            .map(|r| r.condor)
            .collect();
        // Condor-id order, for the same reason as in `fail_node`.
        victims.sort_unstable();
        for condor in victims {
            self.planned_finish.remove(&condor);
            self.staging_until.remove(&condor);
            self.queue.remove(condor);
            let now = self.now;
            let rec = self.records.get_mut(&condor).expect("victim record");
            rec.finished_at = Some(now);
            self.transition(condor, TaskStatus::Failed, "execution service failed");
        }
        for node in &mut self.nodes {
            node.fail();
        }
        self.refresh_next();
    }

    /// Brings the site back up; only downed nodes are reset.
    pub fn recover_site(&mut self) {
        self.alive = true;
        self.epoch.fetch_add(1, Ordering::Release);
        for node in &mut self.nodes {
            if !node.is_alive() {
                node.recover();
            }
        }
        self.dispatch();
        self.refresh_next();
    }

    // ---- queries ----

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
        self.record(condor).map(|r| r.status)
    }

    /// Queue snapshot in dispatch order.
    pub fn queue_snapshot(&self) -> Vec<crate::queue::QueueEntry> {
        self.queue.snapshot()
    }

    /// Number of waiting tasks.
    pub fn queue_length(&self) -> usize {
        self.queue.len()
    }

    /// Zero-based queue position of a task, `None` if not queued.
    pub fn queue_position(&self, condor: CondorId) -> Option<usize> {
        self.queue.position(condor)
    }

    /// Number of running tasks.
    pub fn running_count(&self) -> usize {
        self.backlog.running().len()
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
            .backlog
            .running()
            .iter()
            .map(|c| &self.records[c])
            .filter(|r| r.priority.beats(p))
            .filter_map(TaskRecord::estimated_remaining)
            .sum();
        self.backlog.queued_above(p) + running
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
            .backlog
            .update(rec, |rec| std::mem::replace(&mut rec.estimated, estimate)))
    }

    /// Number of records carrying a submission-time estimate (a
    /// boundedness diagnostic: it walks the records).
    pub fn estimate_count(&self) -> usize {
        self.records
            .values()
            .filter(|r| r.estimated.is_some())
            .count()
    }

    /// The backlog index itself, for the differential suite.
    #[cfg(test)]
    pub(crate) fn backlog_index(&self) -> &BacklogIndex {
        &self.backlog
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
                matches!(r.status, TaskStatus::Running | TaskStatus::Queued) && r.priority.beats(p)
            })
            .map(|r| (r.condor, r.spec.id, r.accrued))
            .collect();
        out.sort_by_key(|(c, _, _)| *c);
        out
    }

    /// Mean external load over the site's nodes right now (published
    /// to MonALISA as the farm's `cpu_load`).
    pub fn current_load(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.load_at(self.now)).sum::<f64>() / self.nodes.len() as f64
    }

    /// Node accessor (diagnostics).
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get((id.raw() - 1) as usize)
    }

    /// All nodes, in id order (monitoring sweep).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All records, unordered (monitoring sweep).
    pub fn records(&self) -> impl Iterator<Item = &TaskRecord> {
        self.records.values()
    }

    /// The pre-heap min-scan over both pending maps, retained as the
    /// differential oracle for the cached heap answer.
    #[cfg(test)]
    fn naive_next_event_time(&self) -> Option<SimTime> {
        let finish = self.planned_finish.values().min().copied();
        let staged = self.staging_until.values().min().copied();
        match (finish, staged) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes and returns all events emitted since the last drain.
    pub fn drain_events(&mut self) -> Vec<ExecEvent> {
        std::mem::take(&mut self.events)
    }

    /// Moves a task to `status` and emits the matching event. Every
    /// status change goes through here — that is what keeps the
    /// backlog index equal to a scan of the records, and the
    /// transition epoch a witness of "nothing changed status".
    fn transition(&mut self, condor: CondorId, status: TaskStatus, detail: &str) {
        let rec = self.records.get_mut(&condor).expect("transitioning record");
        self.backlog.update(rec, |rec| rec.status = status);
        self.epoch.fetch_add(1, Ordering::Release);
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        self.events.push(ExecEvent {
            seq,
            at: self.now,
            condor,
            task: rec.spec.id,
            status,
            node: rec.node,
            detail: detail.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::TaskId;

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
        let c = svc.submit(task(1, 283), None).unwrap();
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Running);
        assert_eq!(svc.next_event_time(), Some(SimTime::from_secs(283)));
        svc.advance_to(SimTime::from_secs(283));
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Completed);
        let rec = svc.record(c).unwrap();
        assert_eq!(rec.finished_at, Some(SimTime::from_secs(283)));
        assert_eq!(rec.accrued, SimDuration::from_secs(283));
        assert_eq!(rec.progress(), 1.0);
    }

    #[test]
    fn loaded_node_slows_accrual() {
        // Load 3.67 -> rate ~0.214: the Figure 7 site-A scenario.
        let cfg = SiteConfig::uniform_load(site(1, 1, 1), LoadTrace::constant(3.67));
        let mut svc = ExecutionService::new(cfg);
        let c = svc.submit(task(1, 283), None).unwrap();
        svc.advance_to(SimTime::from_secs(141));
        let rec = svc.record(c).unwrap();
        // ~141 * 1/4.67 = ~30.2 s accrued.
        let accrued = rec.accrued.as_secs_f64();
        assert!((accrued - 30.19).abs() < 0.1, "accrued {accrued}");
        assert_eq!(rec.status, TaskStatus::Running);
        // Full completion takes 283 * 4.67 = ~1321.6 s.
        let finish = svc.next_event_time().unwrap().as_secs_f64();
        assert!((finish - 1321.6).abs() < 0.2, "finish {finish}");
    }

    #[test]
    fn queueing_fifo_on_single_slot() {
        let mut svc = free_service();
        let a = svc.submit(task(1, 100), None).unwrap();
        let b = svc.submit(task(2, 50), None).unwrap();
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
            svc.record(b).unwrap().finished_at,
            Some(SimTime::from_secs(150))
        );
    }

    #[test]
    fn priority_reorders_queue() {
        let mut svc = free_service();
        let _running = svc.submit(task(1, 100), None).unwrap();
        let low = svc.submit(task(2, 10), None).unwrap();
        let high = svc
            .submit(task(3, 10).with_priority(Priority::HIGH), None)
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
            .map(|i| svc.submit(task(i, 100), None).unwrap())
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
        let c = svc.submit(task(1, 100), None).unwrap();
        svc.advance_to(SimTime::from_secs(30));
        svc.suspend(c).unwrap();
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Suspended);
        svc.advance_to(SimTime::from_secs(80));
        let rec = svc.record(c).unwrap();
        assert_eq!(
            rec.accrued,
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
        let a = svc.submit(task(1, 100), None).unwrap();
        let b = svc.submit(task(2, 10), None).unwrap();
        svc.suspend(a).unwrap();
        // The slot is held, so b stays queued (Condor SIGSTOP model).
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Queued);
    }

    #[test]
    fn suspend_queued_task_leaves_queue() {
        let mut svc = free_service();
        let _a = svc.submit(task(1, 100), None).unwrap();
        let b = svc.submit(task(2, 10), None).unwrap();
        svc.suspend(b).unwrap();
        assert_eq!(svc.queue_length(), 0);
        svc.resume(b).unwrap();
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Queued);
        assert_eq!(svc.queue_length(), 1);
    }

    #[test]
    fn kill_releases_slot_and_starts_next() {
        let mut svc = free_service();
        let a = svc.submit(task(1, 100), None).unwrap();
        let b = svc.submit(task(2, 50), None).unwrap();
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
        let _a = svc.submit(task(1, 100), None).unwrap();
        let b = svc.submit(task(2, 50), None).unwrap();
        svc.kill(b).unwrap();
        assert_eq!(svc.queue_length(), 0);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Killed);
    }

    #[test]
    fn set_priority_on_queued_task_reorders() {
        let mut svc = free_service();
        let _running = svc.submit(task(1, 100), None).unwrap();
        let b = svc.submit(task(2, 10), None).unwrap();
        let c = svc.submit(task(3, 10), None).unwrap();
        assert_eq!(svc.queue_position(c), Some(1));
        svc.set_priority(c, Priority::HIGH).unwrap();
        assert_eq!(svc.queue_position(c), Some(0));
        assert_eq!(svc.queue_position(b), Some(1));
    }

    #[test]
    fn migration_without_checkpoint_restarts() {
        let mut svc_a = free_service();
        let c = svc_a.submit(task(1, 283), None).unwrap();
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
            .submit(task(1, 283).with_checkpointable(true), None)
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

    #[test]
    fn node_failure_fails_its_tasks() {
        let mut svc = ExecutionService::new(SiteConfig::free(site(1, 2, 1)));
        let a = svc.submit(task(1, 100), None).unwrap();
        let b = svc.submit(task(2, 100), None).unwrap();
        let node_a = svc.record(a).unwrap().node.unwrap();
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
        let a = svc.submit(task(1, 100), None).unwrap();
        let b = svc.submit(task(2, 100), None).unwrap();
        svc.fail_site();
        assert!(!svc.is_alive());
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Failed);
        assert_eq!(svc.status(b).unwrap(), TaskStatus::Failed);
        assert_eq!(svc.queue_length(), 0);
        assert!(svc.submit(task(3, 10), None).is_err());
        svc.recover_site();
        assert!(svc.is_alive());
        assert!(svc.submit(task(3, 10), None).is_ok());
    }

    /// `records` is a HashMap; a site outage with several live tasks
    /// must still emit its failures in Condor-id order, or everything
    /// journaled from the stream differs run to run.
    #[test]
    fn site_failure_emits_in_condor_order() {
        let mut svc = free_service();
        let submitted: Vec<CondorId> = (1..=8)
            .map(|i| svc.submit(task(i, 100), None).unwrap())
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
            .submit(task(1, 100).with_priority(Priority::new(5)), None)
            .unwrap();
        let _b = svc
            .submit(task(2, 100).with_priority(Priority::new(3)), None)
            .unwrap();
        let _c = svc
            .submit(task(3, 100).with_priority(Priority::new(0)), None)
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
        let c = svc.submit(task(1, 10), None).unwrap();
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
        let c = svc.submit(task(7, 10), None).unwrap();
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
    fn dispatch_prefers_faster_node() {
        // Node 1 loaded, node 2 free: the task must land on node 2.
        let desc = site(1, 2, 1);
        let cfg = SiteConfig {
            description: desc,
            node_traces: vec![LoadTrace::constant(4.0), LoadTrace::free()],
        };
        let mut svc = ExecutionService::new(cfg);
        let c = svc.submit(task(1, 100), None).unwrap();
        assert_eq!(svc.record(c).unwrap().node, Some(NodeId::new(2)));
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
            .submit(task(1, 0).with_cpu_demand(SimDuration::ZERO), None)
            .unwrap();
        assert_eq!(svc.next_event_time(), Some(SimTime::ZERO));
        svc.advance_to(SimTime::ZERO);
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Completed);
    }

    #[test]
    fn elapsed_includes_queue_gaps_accrued_does_not() {
        let mut svc = free_service();
        let _a = svc.submit(task(1, 50), None).unwrap();
        let b = svc.submit(task(2, 50), None).unwrap();
        svc.advance_to(SimTime::from_secs(120));
        let rec = svc.record(b).unwrap();
        // b started at 50, so elapsed 70 but accrued 50 (completed).
        assert_eq!(rec.started_at, Some(SimTime::from_secs(50)));
        assert_eq!(rec.status, TaskStatus::Completed);
        assert_eq!(rec.accrued, SimDuration::from_secs(50));
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
            .submit(task(1, 100).with_priority(Priority::LOW), None)
            .unwrap();
        svc.advance_to(SimTime::from_secs(30));
        let high = svc
            .submit(task(2, 50).with_priority(Priority::HIGH), None)
            .unwrap();
        // The high-priority task takes the slot immediately.
        assert_eq!(svc.status(high).unwrap(), TaskStatus::Running);
        assert_eq!(svc.status(low).unwrap(), TaskStatus::Queued);
        // Non-checkpointable: the 30 s of progress are lost.
        assert_eq!(svc.record(low).unwrap().accrued, SimDuration::ZERO);
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
                    .with_checkpointable(true),
                None,
            )
            .unwrap();
        svc.advance_to(SimTime::from_secs(40));
        let high = svc
            .submit(task(2, 50).with_priority(Priority::HIGH), None)
            .unwrap();
        assert_eq!(svc.status(high).unwrap(), TaskStatus::Running);
        let rec = svc.record(low).unwrap();
        assert_eq!(rec.carried, SimDuration::from_secs(40), "checkpoint kept");
        assert!((rec.progress() - 0.4).abs() < 1e-9);
        // 50 s of high task, then 60 s remaining: done at 90 + 60.
        svc.advance_to(SimTime::from_secs(150));
        assert_eq!(svc.status(low).unwrap(), TaskStatus::Completed);
        assert_eq!(
            svc.record(low).unwrap().finished_at,
            Some(SimTime::from_secs(150))
        );
    }

    #[test]
    fn preemption_never_vacates_equal_priority() {
        let mut svc = free_service();
        svc.set_preemptive(true);
        let a = svc.submit(task(1, 100), None).unwrap();
        let b = svc.submit(task(2, 100), None).unwrap();
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
            .submit(task(1, 100).with_priority(Priority::LOW), None)
            .unwrap();
        let high = svc
            .submit(task(2, 50).with_priority(Priority::HIGH), None)
            .unwrap();
        assert_eq!(svc.status(low).unwrap(), TaskStatus::Running);
        assert_eq!(svc.status(high).unwrap(), TaskStatus::Queued);
    }

    #[test]
    fn fair_share_prefers_light_users() {
        use gae_types::UserId;
        let mut svc = free_service();
        svc.set_fair_share(true);
        let hog = UserId::new(1);
        let light = UserId::new(2);
        // The hog completes a long task, building up usage.
        let first = svc.submit(task(1, 1_000).with_owner(hog), None).unwrap();
        svc.advance_to(SimTime::from_secs(1_000));
        assert_eq!(svc.status(first).unwrap(), TaskStatus::Completed);
        assert_eq!(svc.usage_of(hog), 1_000.0);
        assert_eq!(svc.usage_of(light), 0.0);
        // A blocker, then one queued task per user (hog submits
        // first, so FIFO would pick the hog).
        let _blocker = svc.submit(task(2, 100).with_owner(hog), None).unwrap();
        let hog_task = svc.submit(task(3, 100).with_owner(hog), None).unwrap();
        let light_task = svc.submit(task(4, 100).with_owner(light), None).unwrap();
        svc.advance_to(SimTime::from_secs(1_100));
        assert_eq!(
            svc.status(light_task).unwrap(),
            TaskStatus::Running,
            "light user first"
        );
        assert_eq!(svc.status(hog_task).unwrap(), TaskStatus::Queued);
    }

    #[test]
    fn fair_share_never_overrides_priority() {
        use gae_types::UserId;
        let mut svc = free_service();
        svc.set_fair_share(true);
        let hog = UserId::new(1);
        let light = UserId::new(2);
        let first = svc.submit(task(1, 500).with_owner(hog), None).unwrap();
        svc.advance_to(SimTime::from_secs(500));
        let _ = first;
        let _blocker = svc.submit(task(2, 100).with_owner(light), None).unwrap();
        // The hog's HIGH-priority task beats the light user's normal
        // one despite the usage gap.
        let hog_high = svc
            .submit(
                task(3, 100).with_owner(hog).with_priority(Priority::HIGH),
                None,
            )
            .unwrap();
        let light_normal = svc.submit(task(4, 100).with_owner(light), None).unwrap();
        svc.advance_to(SimTime::from_secs(600));
        assert_eq!(svc.status(hog_high).unwrap(), TaskStatus::Running);
        assert_eq!(svc.status(light_normal).unwrap(), TaskStatus::Queued);
    }

    #[test]
    fn fifo_by_default_even_with_usage_gap() {
        use gae_types::UserId;
        let mut svc = free_service();
        let hog = UserId::new(1);
        let light = UserId::new(2);
        let first = svc.submit(task(1, 500).with_owner(hog), None).unwrap();
        svc.advance_to(SimTime::from_secs(500));
        let _ = first;
        let _blocker = svc.submit(task(2, 100).with_owner(hog), None).unwrap();
        let hog_task = svc.submit(task(3, 100).with_owner(hog), None).unwrap();
        let light_task = svc.submit(task(4, 100).with_owner(light), None).unwrap();
        svc.advance_to(SimTime::from_secs(600));
        assert_eq!(
            svc.status(hog_task).unwrap(),
            TaskStatus::Running,
            "plain FIFO"
        );
        assert_eq!(svc.status(light_task).unwrap(), TaskStatus::Queued);
    }

    #[test]
    fn staged_submission_waits_before_queueing() {
        let mut svc = free_service();
        let c = svc
            .submit_staged(task(1, 100), None, SimDuration::from_secs(40))
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
            .submit_staged(task(1, 100), None, SimDuration::from_secs(50))
            .unwrap();
        svc.kill(a).unwrap();
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Killed);
        // The staging event must not resurrect it.
        svc.advance_to(SimTime::from_secs(60));
        assert_eq!(svc.status(a).unwrap(), TaskStatus::Killed);

        let b = svc
            .submit_staged(task(2, 100), None, SimDuration::from_secs(50))
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
        let a = svc.submit(task(1, 30), None).unwrap();
        let b = svc
            .submit_staged(task(2, 10), None, SimDuration::from_secs(20))
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

    #[test]
    fn site_failure_kills_staging_tasks() {
        let mut svc = free_service();
        let c = svc
            .submit_staged(task(1, 100), None, SimDuration::from_secs(50))
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
        let a = svc.submit(task(1, 20), None).unwrap();
        let b = svc
            .submit_staged(task(2, 5), None, SimDuration::from_secs(20))
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
        let a = svc.submit(task(1, 40), None).unwrap();
        check!();
        let b = svc
            .submit_staged(task(2, 10), None, SimDuration::from_secs(7))
            .unwrap();
        check!();
        let c = svc.submit(task(3, 25), None).unwrap();
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
            .submit_staged(task(4, 10), None, SimDuration::from_secs(30))
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
        let _a = svc.submit(task(1, 30), None).unwrap();
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
        let running = svc.submit(task(1, 100), None).unwrap();
        let queued = svc.submit(task(2, 50), None).unwrap();
        let staging = svc
            .submit_staged(task(3, 50), None, SimDuration::from_secs(500))
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

    /// The accrual memo shares a node's step between its tasks; each
    /// task still accrues what its own per-step sum gives, including
    /// one dispatched between steps (another `from`).
    #[test]
    fn shared_accrual_step_equals_per_task_accrual() {
        let trace = LoadTrace::from_steps(vec![
            (SimTime::ZERO, 0.37),
            (SimTime::from_secs(7), 2.11),
            (SimTime::from_secs(19), 0.0),
        ]);
        let cfg = SiteConfig::uniform_load(site(1, 1, 3), trace);
        let node = Node::new(NodeId::new(1), 1.0, 3, cfg.node_traces[0].clone());
        let mut svc = ExecutionService::new(cfg);
        let a = svc.submit(task(1, 10_000), None).unwrap();
        let b = svc.submit(task(2, 10_000), None).unwrap();
        let mut expected = [SimDuration::ZERO; 3];
        let mut late = None;
        let mut from = SimTime::ZERO;
        for (i, at_us) in [1_000_001u64, 3_333_333, 7_000_000, 7_000_001, 30_123_457]
            .into_iter()
            .enumerate()
        {
            let to = SimTime::from_micros(at_us);
            svc.advance_to(to);
            let step = node.accrued_between(from, to);
            expected[0] += step;
            expected[1] += step;
            if late.is_some() {
                expected[2] += step;
            }
            if i == 1 {
                late = Some(svc.submit(task(3, 10_000), None).unwrap());
            }
            from = to;
        }
        for (condor, expected) in [a, b, late.unwrap()].into_iter().zip(expected) {
            assert_eq!(svc.record(condor).unwrap().accrued, expected);
        }
    }

    #[test]
    fn load_step_changes_are_exact() {
        // Free for 100 s, then load 1 (rate 1/2): 150 s of work
        // finishes at 100 + 2*50 = 200.
        let trace =
            LoadTrace::from_steps(vec![(SimTime::ZERO, 0.0), (SimTime::from_secs(100), 1.0)]);
        let mut svc = ExecutionService::new(SiteConfig::uniform_load(site(1, 1, 1), trace));
        let c = svc.submit(task(1, 150), None).unwrap();
        assert_eq!(svc.next_event_time(), Some(SimTime::from_secs(200)));
        svc.advance_to(SimTime::from_secs(200));
        assert_eq!(svc.status(c).unwrap(), TaskStatus::Completed);
    }
}
