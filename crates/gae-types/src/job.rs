//! Jobs and tasks: the unit of work the GAE manages.
//!
//! A [`JobSpec`] is a DAG of [`TaskSpec`]s (the paper's "job plan
//! arranged to follow a directed acyclic graph structure", §2). Task
//! attributes deliberately mirror the SDSC Paragon accounting schema
//! used in §7 — requested nodes, CPU hours, queue, partition, job type
//! — because those are exactly the features the history-based runtime
//! estimator matches on.

use crate::error::{GaeError, GaeResult};
use crate::ids::{JobId, TaskId, UserId};
use crate::priority::Priority;
use crate::site::FileRef;
use crate::time::SimDuration;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Batch vs. interactive, straight from the Paragon accounting data.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum JobType {
    /// Batch job: queued, no user at the terminal.
    #[default]
    Batch,
    /// Interactive job: a user analysis session.
    Interactive,
}

impl fmt::Display for JobType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobType::Batch => "batch",
            JobType::Interactive => "interactive",
        })
    }
}

impl std::str::FromStr for JobType {
    type Err = GaeError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "batch" => Ok(JobType::Batch),
            "interactive" => Ok(JobType::Interactive),
            other => Err(GaeError::Parse(format!("unknown job type {other:?}"))),
        }
    }
}

/// The atomic component of a job (§6.1): one schedulable executable.
#[derive(Clone, PartialEq, Debug)]
pub struct TaskSpec {
    /// Unique id within the GAE.
    pub id: TaskId,
    /// The job this task belongs to (set by [`JobSpec::add_task`];
    /// zero for free-standing tasks).
    pub job: JobId,
    /// Human-readable name ("reco-step-2").
    pub name: String,
    /// Executable path or logical application name; the runtime
    /// estimator treats this as the strongest similarity feature.
    pub executable: String,
    /// Command-line arguments.
    pub args: Vec<String>,
    /// Owner of the task (used by the Session Manager for
    /// authorization and by the estimator as a similarity feature).
    pub owner: UserId,
    /// Scheduling priority.
    pub priority: Priority,
    /// Number of nodes requested (Paragon schema).
    pub requested_nodes: u32,
    /// Requested CPU hours (Paragon schema).
    pub requested_cpu_hours: f64,
    /// Queue name the task targets (Paragon schema).
    pub queue: String,
    /// Partition the task targets (Paragon schema).
    pub partition: String,
    /// Batch or interactive (Paragon schema).
    pub job_type: JobType,
    /// Input files that must be present at the execution site.
    pub input_files: Vec<FileRef>,
    /// Output files the task produces.
    pub output_files: Vec<FileRef>,
    /// Environment variables (the job monitoring service reports
    /// these, §5).
    pub env: Vec<(String, String)>,
    /// True service demand in CPU-seconds on a free reference CPU.
    ///
    /// In a real grid this is unknown; the simulator uses it as ground
    /// truth while the estimators only ever see history. `None` means
    /// "unknown" (live mode).
    pub true_cpu_demand: Option<SimDuration>,
    /// Whether the task writes checkpoints, enabling warm migration
    /// (the paper notes the Fig 7 job "can complete even quicker if it
    /// is checkpoint-able").
    pub checkpointable: bool,
}

impl TaskSpec {
    /// Creates a task with sensible defaults for tests and examples.
    pub fn new(id: TaskId, name: impl Into<String>, executable: impl Into<String>) -> Self {
        TaskSpec {
            id,
            job: JobId::new(0),
            name: name.into(),
            executable: executable.into(),
            args: Vec::new(),
            owner: UserId::new(0),
            priority: Priority::NORMAL,
            requested_nodes: 1,
            requested_cpu_hours: 1.0,
            queue: "default".to_string(),
            partition: "compute".to_string(),
            job_type: JobType::Batch,
            input_files: Vec::new(),
            output_files: Vec::new(),
            env: Vec::new(),
            true_cpu_demand: None,
            checkpointable: false,
        }
    }

    /// Builder-style owner assignment.
    pub fn with_owner(mut self, owner: UserId) -> Self {
        self.owner = owner;
        self
    }

    /// Builder-style priority assignment.
    pub fn with_priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Builder-style ground-truth CPU demand (simulation only).
    pub fn with_cpu_demand(mut self, d: SimDuration) -> Self {
        self.true_cpu_demand = Some(d);
        self
    }

    /// Builder-style node request.
    pub fn with_nodes(mut self, n: u32) -> Self {
        self.requested_nodes = n;
        self
    }

    /// Builder-style queue assignment.
    pub fn with_queue(mut self, q: impl Into<String>) -> Self {
        self.queue = q.into();
        self
    }

    /// Builder-style input file list.
    pub fn with_inputs(mut self, files: Vec<FileRef>) -> Self {
        self.input_files = files;
        self
    }

    /// Builder-style checkpointability flag.
    pub fn with_checkpointable(mut self, c: bool) -> Self {
        self.checkpointable = c;
        self
    }

    /// The requested CPU hours as a runtime.
    pub fn requested_runtime(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.requested_cpu_hours * 3600.0)
    }

    /// Total bytes of input the task must stage in.
    pub fn input_bytes(&self) -> u64 {
        self.input_files.iter().map(|f| f.size_bytes).sum()
    }
}

/// A job: a set of tasks plus precedence edges forming a DAG.
#[derive(Clone, PartialEq, Debug)]
pub struct JobSpec {
    /// Unique id within the GAE.
    pub id: JobId,
    /// Human-readable name.
    pub name: String,
    /// Owner (all tasks must share it; enforced by [`JobSpec::validate`]).
    pub owner: UserId,
    /// The tasks, in submission order, each shared by whoever holds it.
    pub tasks: Vec<Arc<TaskSpec>>,
    /// Precedence edges `(before, after)`: `after` may only start once
    /// `before` completed.
    pub dependencies: Vec<(TaskId, TaskId)>,
}

impl JobSpec {
    /// Creates an empty job.
    pub fn new(id: JobId, name: impl Into<String>, owner: UserId) -> Self {
        JobSpec {
            id,
            name: name.into(),
            owner,
            tasks: Vec::new(),
            dependencies: Vec::new(),
        }
    }

    /// Adds a task, forcing its owner and job id to the job's; the spec
    /// is immutable from here on (an edit goes through `Arc::make_mut`).
    pub fn add_task(&mut self, mut task: TaskSpec) -> TaskId {
        task.owner = self.owner;
        task.job = self.id;
        let id = task.id;
        self.tasks.push(Arc::new(task));
        id
    }

    /// Adds a precedence edge.
    pub fn add_dependency(&mut self, before: TaskId, after: TaskId) {
        self.dependencies.push((before, after));
    }

    /// Looks up a task by id.
    pub fn task(&self, id: TaskId) -> Option<&Arc<TaskSpec>> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Ids of all tasks, in submission order.
    pub fn task_ids(&self) -> Vec<TaskId> {
        self.tasks.iter().map(|t| t.id).collect()
    }

    /// Validates the job: non-empty, unique task ids, edges reference
    /// known tasks, owner consistency, and acyclicity.
    pub fn validate(&self) -> GaeResult<()> {
        if self.tasks.is_empty() {
            return Err(GaeError::InvalidPlan(format!("{} has no tasks", self.id)));
        }
        let mut ids = HashSet::new();
        for t in &self.tasks {
            if !ids.insert(t.id) {
                return Err(GaeError::InvalidPlan(format!("duplicate task id {}", t.id)));
            }
            if t.owner != self.owner {
                return Err(GaeError::InvalidPlan(format!(
                    "task {} owned by {} but job {} owned by {}",
                    t.id, t.owner, self.id, self.owner
                )));
            }
        }
        for (a, b) in &self.dependencies {
            if !ids.contains(a) || !ids.contains(b) {
                return Err(GaeError::InvalidPlan(format!(
                    "dependency {a} -> {b} references unknown task"
                )));
            }
            if a == b {
                return Err(GaeError::InvalidPlan(format!("self-dependency on {a}")));
            }
        }
        self.topological_order().map(|_| ())
    }

    /// Kahn's algorithm; returns tasks in a valid execution order or
    /// an error if the dependency graph has a cycle.
    pub fn topological_order(&self) -> GaeResult<Vec<TaskId>> {
        let mut indegree: HashMap<TaskId, usize> = self.tasks.iter().map(|t| (t.id, 0)).collect();
        let mut successors: HashMap<TaskId, Vec<TaskId>> = HashMap::new();
        for (a, b) in &self.dependencies {
            *indegree.entry(*b).or_insert(0) += 1;
            successors.entry(*a).or_default().push(*b);
        }
        // Seed with zero-indegree tasks in submission order for
        // determinism.
        let mut ready: VecDeque<TaskId> = self
            .tasks
            .iter()
            .map(|t| t.id)
            .filter(|id| indegree.get(id).copied().unwrap_or(0) == 0)
            .collect();
        let mut order = Vec::with_capacity(self.tasks.len());
        while let Some(id) = ready.pop_front() {
            order.push(id);
            for succ in successors.get(&id).into_iter().flatten() {
                // Every successor is counted: the loop above inserted it.
                if let Some(d) = indegree.get_mut(succ) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push_back(*succ);
                    }
                }
            }
        }
        if order.len() == self.tasks.len() {
            Ok(order)
        } else {
            Err(GaeError::InvalidPlan(format!(
                "{} dependency graph has a cycle",
                self.id
            )))
        }
    }

    /// Direct prerequisites of `task`.
    pub fn prerequisites(&self, task: TaskId) -> Vec<TaskId> {
        self.dependencies
            .iter()
            .filter(|(_, b)| *b == task)
            .map(|(a, _)| *a)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_with_chain(n: u64) -> JobSpec {
        let mut job = JobSpec::new(JobId::new(1), "chain", UserId::new(7));
        for i in 0..n {
            job.add_task(TaskSpec::new(TaskId::new(i + 1), format!("t{i}"), "prime"));
        }
        for i in 1..n {
            job.add_dependency(TaskId::new(i), TaskId::new(i + 1));
        }
        job
    }

    #[test]
    fn builder_defaults() {
        let t = TaskSpec::new(TaskId::new(1), "t", "/bin/analyze")
            .with_priority(Priority::HIGH)
            .with_nodes(4)
            .with_queue("short");
        assert_eq!(t.requested_nodes, 4);
        assert_eq!(t.queue, "short");
        assert_eq!(t.priority, Priority::HIGH);
        assert_eq!(t.job_type, JobType::Batch);
        assert!(t.true_cpu_demand.is_none());
    }

    #[test]
    fn add_task_forces_owner() {
        let mut job = JobSpec::new(JobId::new(1), "j", UserId::new(3));
        job.add_task(TaskSpec::new(TaskId::new(1), "t", "x").with_owner(UserId::new(99)));
        assert_eq!(job.tasks[0].owner, UserId::new(3));
        assert!(job.validate().is_ok());
    }

    #[test]
    fn empty_job_is_invalid() {
        let job = JobSpec::new(JobId::new(1), "empty", UserId::new(1));
        assert!(matches!(job.validate(), Err(GaeError::InvalidPlan(_))));
    }

    #[test]
    fn duplicate_task_ids_rejected() {
        let mut job = JobSpec::new(JobId::new(1), "dup", UserId::new(1));
        job.add_task(TaskSpec::new(TaskId::new(1), "a", "x"));
        job.add_task(TaskSpec::new(TaskId::new(1), "b", "x"));
        assert!(job.validate().is_err());
    }

    #[test]
    fn unknown_dependency_rejected() {
        let mut job = JobSpec::new(JobId::new(1), "j", UserId::new(1));
        job.add_task(TaskSpec::new(TaskId::new(1), "a", "x"));
        job.add_dependency(TaskId::new(1), TaskId::new(42));
        assert!(job.validate().is_err());
    }

    #[test]
    fn self_dependency_rejected() {
        let mut job = JobSpec::new(JobId::new(1), "j", UserId::new(1));
        job.add_task(TaskSpec::new(TaskId::new(1), "a", "x"));
        job.add_dependency(TaskId::new(1), TaskId::new(1));
        assert!(job.validate().is_err());
    }

    #[test]
    fn chain_topological_order() {
        let job = job_with_chain(5);
        assert!(job.validate().is_ok());
        let order = job.topological_order().unwrap();
        assert_eq!(order, (1..=5).map(TaskId::new).collect::<Vec<_>>());
    }

    #[test]
    fn cycle_detected() {
        let mut job = job_with_chain(3);
        job.add_dependency(TaskId::new(3), TaskId::new(1));
        let err = job.topological_order().unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
        assert!(job.validate().is_err());
    }

    #[test]
    fn diamond_order_respects_edges() {
        // 1 -> {2,3} -> 4
        let mut job = JobSpec::new(JobId::new(1), "diamond", UserId::new(1));
        for i in 1..=4 {
            job.add_task(TaskSpec::new(TaskId::new(i), format!("t{i}"), "x"));
        }
        job.add_dependency(TaskId::new(1), TaskId::new(2));
        job.add_dependency(TaskId::new(1), TaskId::new(3));
        job.add_dependency(TaskId::new(2), TaskId::new(4));
        job.add_dependency(TaskId::new(3), TaskId::new(4));
        let order = job.topological_order().unwrap();
        let pos = |id: u64| order.iter().position(|t| *t == TaskId::new(id)).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(4));
        assert!(pos(3) < pos(4));
    }

    #[test]
    fn prerequisites_lookup() {
        let mut job = job_with_chain(3);
        job.add_dependency(TaskId::new(1), TaskId::new(3));
        let mut pre = job.prerequisites(TaskId::new(3));
        pre.sort();
        assert_eq!(pre, vec![TaskId::new(1), TaskId::new(2)]);
        assert!(job.prerequisites(TaskId::new(1)).is_empty());
    }

    #[test]
    fn input_bytes_sums_files() {
        let t = TaskSpec::new(TaskId::new(1), "t", "x")
            .with_inputs(vec![FileRef::new("a", 100), FileRef::new("b", 250)]);
        assert_eq!(t.input_bytes(), 350);
    }

    #[test]
    fn job_type_roundtrip() {
        use std::str::FromStr;
        assert_eq!(JobType::from_str("batch").unwrap(), JobType::Batch);
        assert_eq!(
            JobType::from_str("interactive").unwrap(),
            JobType::Interactive
        );
        assert!(JobType::from_str("weird").is_err());
        assert_eq!(JobType::Interactive.to_string(), "interactive");
    }
}
