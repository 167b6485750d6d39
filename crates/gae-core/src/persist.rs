//! Service-level persistence over [`gae_durable`]: what gets logged,
//! how snapshots are encoded, and how a crashed stack is rebuilt.
//!
//! The paper's Steering Service keeps a Backup & Recovery module that
//! must "recollect" job state after a service failure (§4), and the
//! Job Monitoring Service "stores the job information in a repository"
//! (§5). This module is that repository's durable form. See DESIGN.md
//! §8 for the full durability contract.
//!
//! Record payloads and snapshots are XML-RPC `Value` documents — the
//! same wire codecs (`submit.rs`, `jobmon/info.rs`) the RPC layer
//! uses, so everything that crosses the wire can also cross a crash.
//! Rust's shortest-roundtrip `f64` formatting makes the encoding
//! bit-exact, which the crash-equivalence tests rely on.
//!
//! Seven record kinds exist:
//!
//! | kind       | payload                            | written by            |
//! |------------|------------------------------------|-----------------------|
//! | `jobmon`   | full [`JobMonitoringInfo`]         | DBManager store       |
//! | `plan`     | full plan (job spec + assignments) | subscribe/reschedule  |
//! | `task`     | one [`TrackedTask`]                | every phase change    |
//! | `notified` | job id                             | completion notice     |
//! | `charge`   | one [`ChargeRecord`]               | accounting on settle  |
//! | `xfer`     | one [`gae_xfer::JournalOp`]        | transfer scheduler    |
//! | `hist`     | one [`gae_hist::HistOp`]           | history funnel        |

use crate::jobmon::info::JobMonitoringInfo;
use crate::quota::ChargeRecord;
use crate::steering::state::{TaskPhase, TrackedJob, TrackedTask};
use crate::submit::{job_from_value, job_to_value};
use gae_durable::{DurableStore, Recovered, TailState};
use gae_hist::{HistOp, HistRecord};
use gae_monitor::{JobEvent, MetricKey, Sample};
use gae_repl::frame;
use gae_repl::ReplicationSink;
use gae_types::{
    ConcretePlan, CondorId, GaeError, GaeResult, JobId, PlanId, SimDuration, SimTime, SiteId,
    TaskAssignment, TaskId, TaskStatus, UserId,
};
use gae_wire::{parse_value_document, write_value_document, Value};
use gae_xfer::{JournalOp, XferCounters, XferExport};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

/// Where and how a grid persists itself.
#[derive(Clone, Debug)]
pub struct PersistenceConfig {
    /// Directory holding the WAL segments and snapshots.
    pub dir: PathBuf,
    /// Virtual-time cadence between compacting snapshots (rotation
    /// happens at the first checkpoint at or past the cadence).
    pub snapshot_every: SimDuration,
    /// Whether commits fsync (group commit always batches the write;
    /// this controls only the durability barrier).
    pub fsync: bool,
}

impl PersistenceConfig {
    /// Defaults: snapshot every 10 virtual minutes, fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistenceConfig {
            dir: dir.into(),
            snapshot_every: SimDuration::from_secs(600),
            fsync: true,
        }
    }

    /// Sets the snapshot cadence.
    pub fn snapshot_every(mut self, every: SimDuration) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Enables or disables fsync on commit.
    pub fn fsync(mut self, on: bool) -> Self {
        self.fsync = on;
        self
    }
}

/// Shared handle the services log through. One per grid.
pub struct Persistence {
    store: Mutex<DurableStore>,
    snapshot_every: SimDuration,
    last_snapshot: Mutex<SimTime>,
    /// Optional replication tee: every append/commit/rotate this
    /// handle performs is mirrored to the sink, making this store the
    /// leader of a replicated log without the services knowing.
    repl: Mutex<Option<Arc<dyn ReplicationSink>>>,
}

impl Persistence {
    /// Opens a fresh store (fails if `config.dir` already holds one —
    /// recover it instead of overwriting history).
    pub fn create(config: &PersistenceConfig) -> GaeResult<Arc<Self>> {
        let store = DurableStore::create(&config.dir, config.fsync)?;
        Ok(Arc::new(Persistence {
            store: Mutex::new(store),
            snapshot_every: config.snapshot_every,
            last_snapshot: Mutex::new(SimTime::ZERO),
            repl: Mutex::new(None),
        }))
    }

    /// Continues a recovered store in a new generation anchored at a
    /// fresh snapshot of the rebuilt state.
    pub(crate) fn resume(
        config: &PersistenceConfig,
        recovered: &Recovered,
        snapshot: &[u8],
        now: SimTime,
    ) -> GaeResult<Arc<Self>> {
        let store = DurableStore::resume(&config.dir, recovered, snapshot, config.fsync)?;
        Ok(Arc::new(Persistence {
            store: Mutex::new(store),
            snapshot_every: config.snapshot_every,
            last_snapshot: Mutex::new(now),
            repl: Mutex::new(None),
        }))
    }

    /// Arms the replication tee. The sink must be attached before any
    /// records it is expected to mirror.
    pub(crate) fn set_replication_sink(&self, sink: Arc<dyn ReplicationSink>) {
        *self.repl.lock() = Some(sink);
    }

    fn replication_sink(&self) -> Option<Arc<dyn ReplicationSink>> {
        self.repl.lock().clone()
    }

    /// Appends one typed record to the group-commit buffer.
    pub(crate) fn append(&self, kind: &str, body: Value) {
        if let Some(sink) = self.replication_sink() {
            sink.on_append(kind, &body);
        }
        let doc = frame::encode_envelope(kind, &body);
        self.store.lock().append(doc.into_bytes());
    }

    /// Commits the buffered records (one batched write + marker).
    pub(crate) fn commit(&self) -> GaeResult<u64> {
        let index = self.store.lock().commit()?;
        // The sink streams outside the store lock: follower replay
        // must never extend the leader's commit critical section.
        if let Some(sink) = self.replication_sink() {
            sink.on_commit(index);
        }
        Ok(index)
    }

    /// True when the snapshot cadence has elapsed since the last
    /// rotation.
    pub(crate) fn snapshot_due(&self, now: SimTime) -> bool {
        now.saturating_since(*self.last_snapshot.lock()) >= self.snapshot_every
    }

    /// Rotates to a new generation anchored at `snapshot`. Callers
    /// commit before rotating (checkpoint does), so the tee never
    /// observes an implicit rotation-time commit.
    pub(crate) fn rotate(&self, now: SimTime, snapshot: &[u8]) -> GaeResult<()> {
        let (commit_index, record_seq) = {
            let mut store = self.store.lock();
            store.rotate(snapshot)?;
            (store.commit_index(), store.record_seq())
        };
        if let Some(sink) = self.replication_sink() {
            sink.on_rotate(commit_index, record_seq, snapshot);
        }
        *self.last_snapshot.lock() = now;
        Ok(())
    }

    /// The current commit index.
    pub fn commit_index(&self) -> u64 {
        self.store.lock().commit_index()
    }

    /// The on-disk generation currently being written.
    pub fn generation(&self) -> u64 {
        self.store.lock().generation()
    }

    /// Cumulative I/O statistics (benches).
    pub fn stats(&self) -> gae_durable::StoreStats {
        self.store.lock().stats()
    }
}

/// What [`crate::grid::ServiceStack::recover_from_disk`] found and did.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Generation whose snapshot anchored the recovery.
    pub generation: u64,
    /// Commit point the rebuilt state corresponds to.
    pub commit_index: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: usize,
    /// Whether the newest WAL segment had a torn tail.
    pub tail_was_torn: bool,
    /// Whether the newest snapshot was unusable and recovery fell back
    /// to the previous generation.
    pub used_fallback: bool,
    /// Tasks that were in-flight at the crash and were resubmitted to
    /// their planned sites (exactly-once re-arm).
    pub resubmitted: Vec<TaskId>,
}

impl RecoveryReport {
    pub(crate) fn from_recovered(rec: &Recovered) -> Self {
        RecoveryReport {
            generation: rec.generation,
            commit_index: rec.commit_index,
            replayed_records: rec.records.len(),
            tail_was_torn: !matches!(rec.tail, TailState::Clean),
            used_fallback: rec.used_fallback,
            resubmitted: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------- records

/// Full plan record: unlike the RPC `plan_to_value`, this embeds the
/// job spec and owner so a plan is reconstructible from the log alone.
pub(crate) fn plan_to_record(plan: &ConcretePlan) -> Value {
    Value::struct_of([
        ("id", Value::from(plan.id.raw())),
        ("revision", Value::from(u64::from(plan.revision))),
        ("owner", Value::from(plan.job.owner.raw())),
        ("job", job_to_value(&plan.job)),
        (
            "assignments",
            Value::Array(
                plan.assignments
                    .iter()
                    .map(|a| {
                        Value::struct_of([
                            ("task", Value::from(a.task.raw())),
                            ("site", Value::from(a.site.raw())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn plan_from_record(v: &Value) -> GaeResult<ConcretePlan> {
    let owner = UserId::new(v.member("owner")?.as_u64()?);
    let job = job_from_value(v.member("job")?, owner)?;
    let assignments = v
        .member("assignments")?
        .as_array()?
        .iter()
        .map(|a| {
            Ok(TaskAssignment {
                task: TaskId::new(a.member("task")?.as_u64()?),
                site: SiteId::new(a.member("site")?.as_u64()?),
            })
        })
        .collect::<GaeResult<Vec<_>>>()?;
    let mut plan = ConcretePlan::new(PlanId::new(v.member("id")?.as_u64()?), job, assignments)?;
    plan.revision = u32::try_from(v.member("revision")?.as_u64()?)
        .map_err(|_| GaeError::Parse("plan revision out of range".into()))?;
    Ok(plan)
}

fn phase_to_value(phase: TaskPhase) -> Value {
    match phase {
        TaskPhase::WaitingPrereqs => Value::struct_of([("kind", Value::from("waiting"))]),
        TaskPhase::Submitted { site, condor } => Value::struct_of([
            ("kind", Value::from("submitted")),
            ("site", Value::from(site.raw())),
            ("condor", Value::from(condor.raw())),
        ]),
        TaskPhase::Done { site } => Value::struct_of([
            ("kind", Value::from("done")),
            ("site", Value::from(site.raw())),
        ]),
        TaskPhase::Failed => Value::struct_of([("kind", Value::from("failed"))]),
        TaskPhase::Killed => Value::struct_of([("kind", Value::from("killed"))]),
    }
}

fn phase_from_value(v: &Value) -> GaeResult<TaskPhase> {
    Ok(match v.member("kind")?.as_str()? {
        "waiting" => TaskPhase::WaitingPrereqs,
        "submitted" => TaskPhase::Submitted {
            site: SiteId::new(v.member("site")?.as_u64()?),
            condor: CondorId::new(v.member("condor")?.as_u64()?),
        },
        "done" => TaskPhase::Done {
            site: SiteId::new(v.member("site")?.as_u64()?),
        },
        "failed" => TaskPhase::Failed,
        "killed" => TaskPhase::Killed,
        other => return Err(GaeError::Parse(format!("unknown task phase {other:?}"))),
    })
}

pub(crate) fn task_to_record(job: JobId, t: &TrackedTask) -> Value {
    Value::struct_of([
        ("job", Value::from(job.raw())),
        ("task", Value::from(t.task.raw())),
        ("phase", phase_to_value(t.phase)),
        (
            "recovery_attempts",
            Value::from(u64::from(t.recovery_attempts)),
        ),
        ("moves", Value::from(u64::from(t.moves))),
    ])
}

pub(crate) fn task_from_record(v: &Value) -> GaeResult<(JobId, TrackedTask)> {
    let job = JobId::new(v.member("job")?.as_u64()?);
    let task = TaskId::new(v.member("task")?.as_u64()?);
    Ok((
        job,
        TrackedTask {
            task,
            phase: phase_from_value(v.member("phase")?)?,
            recovery_attempts: v.member("recovery_attempts")?.as_u64()? as u32,
            moves: v.member("moves")?.as_u64()? as u32,
        },
    ))
}

pub(crate) fn charge_to_record(c: &ChargeRecord) -> Value {
    Value::struct_of([
        ("user", Value::from(c.user.raw())),
        ("site", Value::from(c.site.raw())),
        ("cpu_us", Value::from(c.cpu_time.as_micros())),
        ("amount", Value::Double(c.amount)),
    ])
}

pub(crate) fn charge_from_record(v: &Value) -> GaeResult<ChargeRecord> {
    Ok(ChargeRecord {
        user: UserId::new(v.member("user")?.as_u64()?),
        site: SiteId::new(v.member("site")?.as_u64()?),
        cpu_time: SimDuration::from_micros(v.member("cpu_us")?.as_u64()?),
        amount: v.member("amount")?.as_f64()?,
    })
}

fn replicas_to_value(replicas: &[SiteId]) -> Value {
    Value::Array(replicas.iter().map(|s| Value::from(s.raw())).collect())
}

fn replicas_from_value(v: &Value) -> GaeResult<Vec<SiteId>> {
    v.as_array()?
        .iter()
        .map(|s| Ok(SiteId::new(s.as_u64()?)))
        .collect()
}

pub(crate) fn xfer_to_record(op: &JournalOp) -> Value {
    let simple = |kind: &str, lfn: &str, site: SiteId| {
        Value::struct_of([
            ("op", Value::from(kind)),
            ("lfn", Value::from(lfn)),
            ("site", Value::from(site.raw())),
        ])
    };
    match op {
        JournalOp::Register {
            lfn,
            size,
            replicas,
        } => Value::struct_of([
            ("op", Value::from(op.kind())),
            ("lfn", Value::from(lfn.as_str())),
            ("size", Value::from(*size)),
            ("replicas", replicas_to_value(replicas)),
        ]),
        JournalOp::Requested { lfn, to } => simple(op.kind(), lfn, *to),
        JournalOp::Landed { lfn, to } => simple(op.kind(), lfn, *to),
        JournalOp::Failed { lfn, to } => simple(op.kind(), lfn, *to),
        JournalOp::Deleted { lfn, site } => simple(op.kind(), lfn, *site),
        JournalOp::Evicted { lfn, site } => simple(op.kind(), lfn, *site),
    }
}

pub(crate) fn xfer_from_record(v: &Value) -> GaeResult<JournalOp> {
    let lfn = v.member("lfn")?.as_str()?.to_string();
    Ok(match v.member("op")?.as_str()? {
        "register" => JournalOp::Register {
            lfn,
            size: v.member("size")?.as_u64()?,
            replicas: replicas_from_value(v.member("replicas")?)?,
        },
        kind => {
            let site = SiteId::new(v.member("site")?.as_u64()?);
            match kind {
                "requested" => JournalOp::Requested { lfn, to: site },
                "landed" => JournalOp::Landed { lfn, to: site },
                "failed" => JournalOp::Failed { lfn, to: site },
                "deleted" => JournalOp::Deleted { lfn, site },
                "evicted" => JournalOp::Evicted { lfn, site },
                other => {
                    return Err(GaeError::Parse(format!("unknown xfer op {other:?}")));
                }
            }
        }
    })
}

fn xfer_export_to_value(x: &XferExport) -> Value {
    Value::struct_of([
        (
            "files",
            Value::Array(
                x.files
                    .iter()
                    .map(|(lfn, size, replicas)| {
                        Value::struct_of([
                            ("lfn", Value::from(lfn.as_str())),
                            ("size", Value::from(*size)),
                            ("replicas", replicas_to_value(replicas)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "pending",
            Value::Array(
                x.pending
                    .iter()
                    .map(|(lfn, to)| {
                        Value::struct_of([
                            ("lfn", Value::from(lfn.as_str())),
                            ("to", Value::from(to.raw())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Value::struct_of([
                ("completed", Value::from(x.counters.completed)),
                ("failed", Value::from(x.counters.failed)),
                ("retried", Value::from(x.counters.retried)),
                ("evicted", Value::from(x.counters.evicted)),
                ("history_dropped", Value::from(x.counters.history_dropped)),
            ]),
        ),
    ])
}

fn xfer_export_from_value(v: &Value) -> GaeResult<XferExport> {
    let counters = v.member("counters")?;
    Ok(XferExport {
        files: v
            .member("files")?
            .as_array()?
            .iter()
            .map(|f| {
                Ok((
                    f.member("lfn")?.as_str()?.to_string(),
                    f.member("size")?.as_u64()?,
                    replicas_from_value(f.member("replicas")?)?,
                ))
            })
            .collect::<GaeResult<Vec<_>>>()?,
        pending: v
            .member("pending")?
            .as_array()?
            .iter()
            .map(|p| {
                Ok((
                    p.member("lfn")?.as_str()?.to_string(),
                    SiteId::new(p.member("to")?.as_u64()?),
                ))
            })
            .collect::<GaeResult<Vec<_>>>()?,
        counters: XferCounters {
            completed: counters.member("completed")?.as_u64()?,
            failed: counters.member("failed")?.as_u64()?,
            retried: counters.member("retried")?.as_u64()?,
            evicted: counters.member("evicted")?.as_u64()?,
            history_dropped: counters.member("history_dropped")?.as_u64()?,
        },
    })
}

/// One history-store op as a WAL record. `append` carries the full
/// row; `seal` and `compact` are bare markers — the store derives the
/// resulting layout deterministically, so the marker alone replays to
/// identical segments.
pub(crate) fn hist_to_record(op: &HistOp) -> Value {
    match op {
        HistOp::Append(r) => Value::struct_of([
            ("op", Value::from("append")),
            ("task", Value::from(r.task)),
            ("site", Value::from(r.site)),
            ("nodes", Value::from(r.nodes)),
            ("submit_us", Value::from(r.submit_us)),
            ("start_us", Value::from(r.start_us)),
            ("finish_us", Value::from(r.finish_us)),
            ("runtime_us", Value::from(r.runtime_us)),
            ("success", Value::Bool(r.success)),
            ("account", Value::from(r.account.as_str())),
            ("login", Value::from(r.login.as_str())),
            ("executable", Value::from(r.executable.as_str())),
            ("queue", Value::from(r.queue.as_str())),
            ("partition", Value::from(r.partition.as_str())),
            ("job_type", Value::from(r.job_type.as_str())),
        ]),
        HistOp::Seal => Value::struct_of([("op", Value::from("seal"))]),
        HistOp::Compact => Value::struct_of([("op", Value::from("compact"))]),
    }
}

pub(crate) fn hist_from_record(v: &Value) -> GaeResult<HistOp> {
    Ok(match v.member("op")?.as_str()? {
        "append" => HistOp::Append(HistRecord {
            task: v.member("task")?.as_u64()?,
            site: v.member("site")?.as_u64()?,
            nodes: v.member("nodes")?.as_u64()?,
            submit_us: v.member("submit_us")?.as_u64()?,
            start_us: v.member("start_us")?.as_u64()?,
            finish_us: v.member("finish_us")?.as_u64()?,
            runtime_us: v.member("runtime_us")?.as_u64()?,
            success: v.member("success")?.as_bool()?,
            account: v.member("account")?.as_str()?.to_string(),
            login: v.member("login")?.as_str()?.to_string(),
            executable: v.member("executable")?.as_str()?.to_string(),
            queue: v.member("queue")?.as_str()?.to_string(),
            partition: v.member("partition")?.as_str()?.to_string(),
            job_type: v.member("job_type")?.as_str()?.to_string(),
        }),
        "seal" => HistOp::Seal,
        "compact" => HistOp::Compact,
        other => return Err(GaeError::Parse(format!("unknown hist op {other:?}"))),
    })
}

fn event_to_value(e: &JobEvent) -> Value {
    Value::struct_of([
        ("at_us", Value::from(e.at.as_micros())),
        ("job", Value::from(e.job.raw())),
        ("task", Value::from(e.task.raw())),
        ("site", Value::from(e.site.raw())),
        ("status", Value::from(e.status.to_string())),
    ])
}

fn event_from_value(v: &Value) -> GaeResult<JobEvent> {
    Ok(JobEvent {
        at: SimTime::from_micros(v.member("at_us")?.as_u64()?),
        job: JobId::new(v.member("job")?.as_u64()?),
        task: TaskId::new(v.member("task")?.as_u64()?),
        site: SiteId::new(v.member("site")?.as_u64()?),
        status: TaskStatus::from_str(v.member("status")?.as_str()?)?,
    })
}

fn series_to_value(series: &[(MetricKey, Vec<Sample>)]) -> Value {
    Value::Array(
        series
            .iter()
            .map(|(k, samples)| {
                Value::struct_of([
                    ("site", Value::from(k.site.raw())),
                    ("entity", Value::from(&*k.entity)),
                    ("param", Value::from(&*k.param)),
                    (
                        "samples",
                        Value::Array(
                            samples
                                .iter()
                                .map(|s| {
                                    Value::struct_of([
                                        ("at_us", Value::from(s.at.as_micros())),
                                        ("value", Value::Double(s.value)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn series_from_value(v: &Value) -> GaeResult<Vec<(MetricKey, Vec<Sample>)>> {
    v.as_array()?
        .iter()
        .map(|entry| {
            let key = MetricKey::new(
                SiteId::new(entry.member("site")?.as_u64()?),
                entry.member("entity")?.as_str()?.to_string(),
                entry.member("param")?.as_str()?.to_string(),
            );
            let samples = entry
                .member("samples")?
                .as_array()?
                .iter()
                .map(|s| {
                    Ok(Sample {
                        at: SimTime::from_micros(s.member("at_us")?.as_u64()?),
                        value: s.member("value")?.as_f64()?,
                    })
                })
                .collect::<GaeResult<Vec<_>>>()?;
            Ok((key, samples))
        })
        .collect()
}

// ---------------------------------------------------------------- snapshot

/// Decoded snapshot payload: full state of every persisted service.
#[derive(Debug, Default)]
pub(crate) struct SnapshotState {
    pub events: Vec<JobEvent>,
    pub evicted: u64,
    pub metrics: Vec<(MetricKey, Vec<Sample>)>,
    pub metrics_published: u64,
    pub jobmon: Vec<JobMonitoringInfo>,
    pub steering: Vec<TrackedJob>,
    pub balances: Vec<(UserId, f64)>,
    pub ledger: Vec<ChargeRecord>,
    pub xfer: XferExport,
    /// The history store's own binary encoding (it has a canonical
    /// columnar codec; re-encoding it as XML would lose the layout).
    pub hist: Vec<u8>,
}

fn tracked_job_to_value(j: &TrackedJob) -> Value {
    let mut task_ids: Vec<&TaskId> = j.tasks.keys().collect();
    task_ids.sort();
    Value::struct_of([
        ("plan", plan_to_record(&j.plan)),
        ("notified", Value::Bool(j.completion_notified)),
        (
            "tasks",
            Value::Array(
                task_ids
                    .into_iter()
                    .map(|t| task_to_record(j.plan.job_id(), &j.tasks[t]))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes one tracked job. The steering round indexes `tasks` by
/// every id of the plan, so a snapshot whose records do not cover the
/// plan exactly (missing, extra or duplicate ids) is refused here
/// instead of panicking on the next poll.
fn tracked_job_from_value(v: &Value) -> GaeResult<TrackedJob> {
    let plan = plan_from_record(v.member("plan")?)?;
    let mut tasks = HashMap::new();
    for t in v.member("tasks")?.as_array()? {
        let (_, tracked) = task_from_record(t)?;
        if let Some(twice) = tasks.insert(tracked.task, tracked) {
            return Err(GaeError::Parse(format!(
                "snapshot of {} tracks {} twice",
                plan.job_id(),
                twice.task
            )));
        }
    }
    let planned = plan.job.task_ids();
    if tasks.len() != planned.len() || !planned.iter().all(|t| tasks.contains_key(t)) {
        return Err(GaeError::Parse(format!(
            "snapshot of {} tracks {} task records, not exactly its plan's {} tasks",
            plan.job_id(),
            tasks.len(),
            planned.len()
        )));
    }
    Ok(TrackedJob {
        plan,
        tasks,
        completion_notified: v.member("notified")?.as_bool()?,
    })
}

pub(crate) fn encode_snapshot(state: &SnapshotState) -> Vec<u8> {
    let doc = Value::struct_of([
        (
            "events",
            Value::Array(state.events.iter().map(event_to_value).collect()),
        ),
        ("evicted", Value::from(state.evicted)),
        ("metrics", series_to_value(&state.metrics)),
        ("metrics_published", Value::from(state.metrics_published)),
        (
            "jobmon",
            Value::Array(state.jobmon.iter().map(|i| i.to_value()).collect()),
        ),
        (
            "steering",
            Value::Array(state.steering.iter().map(tracked_job_to_value).collect()),
        ),
        (
            "balances",
            Value::Array(
                state
                    .balances
                    .iter()
                    .map(|(u, b)| {
                        Value::struct_of([
                            ("user", Value::from(u.raw())),
                            ("amount", Value::Double(*b)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "ledger",
            Value::Array(state.ledger.iter().map(charge_to_record).collect()),
        ),
        ("xfer", xfer_export_to_value(&state.xfer)),
        ("hist", Value::Base64(state.hist.clone())),
    ]);
    write_value_document(&doc).into_bytes()
}

pub(crate) fn decode_snapshot(bytes: &[u8]) -> GaeResult<SnapshotState> {
    if bytes.is_empty() {
        // Generation-0 snapshots are the empty state.
        return Ok(SnapshotState::default());
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|e| GaeError::Parse(format!("snapshot is not UTF-8: {e}")))?;
    let v = parse_value_document(text)?;
    Ok(SnapshotState {
        events: v
            .member("events")?
            .as_array()?
            .iter()
            .map(event_from_value)
            .collect::<GaeResult<Vec<_>>>()?,
        evicted: v.member("evicted")?.as_u64()?,
        metrics: series_from_value(v.member("metrics")?)?,
        metrics_published: v.member("metrics_published")?.as_u64()?,
        jobmon: v
            .member("jobmon")?
            .as_array()?
            .iter()
            .map(JobMonitoringInfo::from_value)
            .collect::<GaeResult<Vec<_>>>()?,
        steering: v
            .member("steering")?
            .as_array()?
            .iter()
            .map(tracked_job_from_value)
            .collect::<GaeResult<Vec<_>>>()?,
        balances: v
            .member("balances")?
            .as_array()?
            .iter()
            .map(|b| {
                Ok((
                    UserId::new(b.member("user")?.as_u64()?),
                    b.member("amount")?.as_f64()?,
                ))
            })
            .collect::<GaeResult<Vec<_>>>()?,
        ledger: v
            .member("ledger")?
            .as_array()?
            .iter()
            .map(charge_from_record)
            .collect::<GaeResult<Vec<_>>>()?,
        // Snapshots from before the data plane existed carry no
        // transfer state; start it empty.
        xfer: match v.member("xfer") {
            Ok(x) => xfer_export_from_value(x)?,
            Err(_) => XferExport::default(),
        },
        // Likewise for snapshots predating the columnar history.
        hist: match v.member("hist") {
            Ok(h) => h.as_bytes()?.to_vec(),
            Err(_) => Vec::new(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::{JobSpec, TaskSpec};

    fn sample_plan() -> ConcretePlan {
        let mut job = JobSpec::new(JobId::new(7), "j7", UserId::new(3));
        job.add_task(
            TaskSpec::new(TaskId::new(70), "t0", "app").with_cpu_demand(SimDuration::from_secs(30)),
        );
        job.add_task(TaskSpec::new(TaskId::new(71), "t1", "app"));
        job.add_dependency(TaskId::new(70), TaskId::new(71));
        let mut plan = ConcretePlan::new(
            PlanId::new(1),
            job,
            vec![
                TaskAssignment {
                    task: TaskId::new(70),
                    site: SiteId::new(1),
                },
                TaskAssignment {
                    task: TaskId::new(71),
                    site: SiteId::new(2),
                },
            ],
        )
        .unwrap();
        plan.revision = 4;
        plan
    }

    #[test]
    fn plan_record_roundtrip() {
        let plan = sample_plan();
        let decoded = plan_from_record(&plan_to_record(&plan)).unwrap();
        assert_eq!(decoded.id, plan.id);
        assert_eq!(decoded.revision, 4);
        assert_eq!(decoded.job.owner, UserId::new(3));
        assert_eq!(decoded.job.task_ids(), plan.job.task_ids());
        assert_eq!(decoded.assignments, plan.assignments);
    }

    #[test]
    fn task_record_roundtrip_all_phases() {
        for phase in [
            TaskPhase::WaitingPrereqs,
            TaskPhase::Submitted {
                site: SiteId::new(2),
                condor: CondorId::new(19),
            },
            TaskPhase::Done {
                site: SiteId::new(5),
            },
            TaskPhase::Failed,
            TaskPhase::Killed,
        ] {
            let t = TrackedTask {
                task: TaskId::new(9),
                phase,
                recovery_attempts: 2,
                moves: 1,
            };
            let (job, decoded) = task_from_record(&task_to_record(JobId::new(4), &t)).unwrap();
            assert_eq!(job, JobId::new(4));
            assert_eq!(decoded.task, t.task);
            assert_eq!(decoded.phase, t.phase);
            assert_eq!(decoded.recovery_attempts, 2);
            assert_eq!(decoded.moves, 1);
        }
    }

    #[test]
    fn charge_record_roundtrip_is_bit_exact() {
        let c = ChargeRecord {
            user: UserId::new(1),
            site: SiteId::new(2),
            cpu_time: SimDuration::from_secs(12345),
            // Deliberately awkward float: must survive bit-for-bit.
            amount: 0.1 + 0.2,
        };
        let decoded = charge_from_record(&charge_to_record(&c)).unwrap();
        assert_eq!(decoded, c);
        assert_eq!(decoded.amount.to_bits(), c.amount.to_bits());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut tracked = TrackedJob::subscribe(sample_plan()).unwrap();
        tracked.tasks.get_mut(&TaskId::new(70)).unwrap().phase = TaskPhase::Submitted {
            site: SiteId::new(1),
            condor: CondorId::new(40),
        };
        tracked.completion_notified = false;
        let state = SnapshotState {
            events: vec![JobEvent {
                at: SimTime::from_secs(9),
                job: JobId::new(7),
                task: TaskId::new(70),
                site: SiteId::new(1),
                status: TaskStatus::Completed,
            }],
            evicted: 3,
            metrics: vec![(
                MetricKey::site_wide(SiteId::new(1), "cpu_load"),
                vec![Sample {
                    at: SimTime::from_secs(5),
                    value: 0.75,
                }],
            )],
            metrics_published: 11,
            jobmon: Vec::new(),
            steering: vec![tracked],
            balances: vec![(UserId::new(3), 41.5)],
            ledger: vec![ChargeRecord {
                user: UserId::new(3),
                site: SiteId::new(1),
                cpu_time: SimDuration::from_secs(30),
                amount: 0.25,
            }],
            xfer: XferExport {
                files: vec![(
                    "hits.root".to_string(),
                    5_000_000,
                    vec![SiteId::new(1), SiteId::new(2)],
                )],
                pending: vec![("hits.root".to_string(), SiteId::new(3))],
                counters: XferCounters {
                    completed: 4,
                    failed: 1,
                    retried: 2,
                    evicted: 0,
                    history_dropped: 7,
                },
            },
            hist: gae_hist::HistStore::new(gae_hist::HistConfig::default()).encode(),
        };
        let decoded = decode_snapshot(&encode_snapshot(&state)).unwrap();
        assert_eq!(decoded.events, state.events);
        assert_eq!(decoded.evicted, 3);
        assert_eq!(decoded.metrics, state.metrics);
        assert_eq!(decoded.metrics_published, 11);
        assert_eq!(decoded.balances, state.balances);
        assert_eq!(decoded.ledger, state.ledger);
        assert_eq!(decoded.steering.len(), 1);
        let j = &decoded.steering[0];
        assert_eq!(j.plan.revision, 4);
        assert_eq!(
            j.tasks[&TaskId::new(70)].phase,
            TaskPhase::Submitted {
                site: SiteId::new(1),
                condor: CondorId::new(40),
            }
        );
        assert!(!j.completion_notified);
        assert_eq!(decoded.xfer, state.xfer);
        assert_eq!(decoded.hist, state.hist);
    }

    /// A snapshot whose task records do not cover the plan must fail
    /// `restore` with a typed error — `TrackedJob::ready_tasks` indexes
    /// `tasks[t]` for every planned id on the next steering round.
    #[test]
    fn restore_rejects_task_records_that_do_not_cover_the_plan() {
        use crate::grid::{GridBuilder, ServiceStack};
        use gae_repl::StateMachine;
        use gae_types::SiteDescription;

        let fresh = || {
            ServiceStack::over(
                GridBuilder::new()
                    .site(SiteDescription::new(SiteId::new(1), "only", 2, 1))
                    .build(),
            )
        };
        let stack = fresh();
        stack.submit_job(sample_plan().job).unwrap();
        let valid = stack.snapshot();
        fresh()
            .restore(&valid)
            .expect("untouched snapshot restores");

        let tampered = |edit: fn(&mut Vec<Value>)| {
            let mut doc = parse_value_document(std::str::from_utf8(&valid).unwrap()).unwrap();
            let Value::Struct(top) = &mut doc else {
                panic!("snapshot is a struct")
            };
            let Some(Value::Array(jobs)) = top.get_mut("steering") else {
                panic!("steering is an array")
            };
            let Value::Struct(job) = &mut jobs[0] else {
                panic!("tracked job is a struct")
            };
            let Some(Value::Array(records)) = job.get_mut("tasks") else {
                panic!("tasks is an array")
            };
            assert_eq!(records.len(), 2);
            edit(records);
            write_value_document(&doc).into_bytes()
        };
        for (what, edit) in [
            ("missing", (|r| drop(r.pop())) as fn(&mut Vec<Value>)),
            ("duplicate", |r| r.push(r[0].clone())),
            ("extra", |r| {
                let Value::Struct(stray) = &mut r[1] else {
                    panic!("task record is a struct")
                };
                stray.insert("task".into(), Value::from(99u64));
            }),
        ] {
            let err = fresh().restore(&tampered(edit)).unwrap_err();
            assert!(matches!(err, GaeError::Parse(_)), "{what}: {err}");
        }
    }

    #[test]
    fn empty_snapshot_decodes_to_default() {
        let s = decode_snapshot(&[]).unwrap();
        assert!(s.events.is_empty());
        assert!(s.steering.is_empty());
        assert_eq!(s.evicted, 0);
        assert_eq!(s.xfer, XferExport::default());
    }

    #[test]
    fn xfer_record_roundtrip_all_ops() {
        for op in [
            JournalOp::Register {
                lfn: "a".into(),
                size: 42,
                replicas: vec![SiteId::new(1), SiteId::new(9)],
            },
            JournalOp::Requested {
                lfn: "a".into(),
                to: SiteId::new(2),
            },
            JournalOp::Landed {
                lfn: "a".into(),
                to: SiteId::new(2),
            },
            JournalOp::Failed {
                lfn: "a".into(),
                to: SiteId::new(2),
            },
            JournalOp::Deleted {
                lfn: "a".into(),
                site: SiteId::new(1),
            },
            JournalOp::Evicted {
                lfn: "a".into(),
                site: SiteId::new(1),
            },
        ] {
            let decoded = xfer_from_record(&xfer_to_record(&op)).unwrap();
            assert_eq!(decoded, op);
        }
        // Unknown ops decode to typed parse errors, never panics.
        let bogus = Value::struct_of([
            ("op", Value::from("compress")),
            ("lfn", Value::from("a")),
            ("site", Value::from(1u64)),
        ]);
        assert!(xfer_from_record(&bogus).is_err());
    }

    #[test]
    fn hist_record_roundtrip_all_ops() {
        let append = HistOp::Append(HistRecord {
            task: 9,
            site: 2,
            nodes: 4,
            submit_us: 1_000_000,
            start_us: 2_000_000,
            finish_us: 5_000_000,
            runtime_us: 3_000_000,
            success: true,
            account: "cms".into(),
            login: "alice".into(),
            executable: "reco".into(),
            queue: "prod".into(),
            partition: "batch".into(),
            job_type: "analysis".into(),
        });
        for op in [append, HistOp::Seal, HistOp::Compact] {
            let decoded = hist_from_record(&hist_to_record(&op)).unwrap();
            assert_eq!(decoded, op);
        }
        let bogus = Value::struct_of([("op", Value::from("truncate"))]);
        assert!(hist_from_record(&bogus).is_err());
    }

    #[test]
    fn record_envelope_roundtrip_and_faults() {
        let plan = sample_plan();
        let doc = frame::encode_envelope("plan", &plan_to_record(&plan));
        let m = frame::decode_envelope(doc.as_bytes()).unwrap();
        assert_eq!(m.kind, "plan");
        assert!(plan_from_record(&m.body).is_ok());
        // The envelope codec now lives in gae-repl (leader and
        // followers must agree on bytes); this pins the on-disk format
        // to what [`Persistence::append`] actually writes.
        let legacy = write_value_document(&Value::struct_of([
            ("kind", Value::from("plan")),
            ("body", plan_to_record(&plan)),
        ]));
        assert_eq!(doc, legacy);
        // Corrupted records yield typed parse errors, never panics.
        assert!(frame::decode_envelope(&[0xff, 0xfe, 0x00]).is_err());
        assert!(frame::decode_envelope(b"<value><int>3</int></value>").is_err());
        assert!(frame::decode_envelope(&doc.as_bytes()[..doc.len() / 2]).is_err());
    }
}
