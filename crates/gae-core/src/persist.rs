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
use gae_durable::{DurableStore, RecoveryPoint};
use gae_hist::{HistOp, HistRecord};
use gae_monitor::{JobEvent, MetricKey, Sample};
use gae_repl::frame;
use gae_repl::ReplicationSink;
use gae_types::{
    ConcretePlan, CondorId, GaeError, GaeResult, JobId, PlanId, SimDuration, SimTime, SiteId,
    TaskAssignment, TaskId, TaskStatus, UserId,
};
use gae_wire::writer::write_value;
use gae_wire::{parse_value_document, Value};
use gae_xfer::{JournalOp, XferCounters, XferExport};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
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
    /// Records appended since the last commit took its batch. Its lock
    /// is a leaf — taken alone by appenders, and inside `store`'s only
    /// for the swap that moves the batch out — and is never held
    /// across I/O, so an appender never waits for a write or an fsync.
    buffer: Mutex<Vec<Vec<u8>>>,
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
            buffer: Mutex::new(Vec::new()),
            snapshot_every: config.snapshot_every,
            last_snapshot: Mutex::new(SimTime::ZERO),
            repl: Mutex::new(None),
        }))
    }

    /// Continues a recovered store in a new generation anchored at a
    /// fresh snapshot of the rebuilt state, which `encode` streams
    /// into the snapshot file.
    pub(crate) fn resume(
        config: &PersistenceConfig,
        at: &RecoveryPoint,
        now: SimTime,
        encode: impl FnOnce(&mut dyn io::Write) -> io::Result<()>,
    ) -> GaeResult<Arc<Self>> {
        let store = DurableStore::resume_with(&config.dir, at, config.fsync, |w| encode(w))?;
        Ok(Arc::new(Persistence {
            store: Mutex::new(store),
            buffer: Mutex::new(Vec::new()),
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
        self.buffer.lock().push(doc.into_bytes());
    }

    /// Hands the store everything appended so far, in append order.
    /// Under the store lock, so two committers cannot interleave their
    /// batches; a record appended after the swap is the next batch's.
    fn drain_buffer_into(&self, store: &mut DurableStore) {
        let batch = std::mem::take(&mut *self.buffer.lock());
        for record in batch {
            store.append(record);
        }
    }

    /// Commits the buffered records (one batched write + marker).
    pub(crate) fn commit(&self) -> GaeResult<u64> {
        let index = {
            let mut store = self.store.lock();
            self.drain_buffer_into(&mut store);
            store.commit()?
        };
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

    /// Rotates to a new generation anchored at the snapshot `encode`
    /// writes. Callers commit before rotating (checkpoint does), so
    /// the tee never observes an implicit rotation-time commit.
    ///
    /// The store is not locked while `encode` runs: services append
    /// under their own locks, and the encoder takes those same locks
    /// to export them.
    pub(crate) fn rotate(
        &self,
        now: SimTime,
        encode: impl FnOnce(&mut dyn io::Write) -> io::Result<()>,
    ) -> GaeResult<()> {
        let sink = self.replication_sink();
        let mut next = self.store.lock().begin_rotation()?;
        // The sink needs the bytes too: copy them only while one is
        // armed.
        let mut snapshot = Vec::new();
        encode(&mut Tee {
            file: &mut next,
            copy: sink.is_some().then_some(&mut snapshot),
        })
        .map_err(|e| GaeError::Io(format!("encode snapshot: {e}")))?;
        let (commit_index, record_seq) = {
            let mut store = self.store.lock();
            self.drain_buffer_into(&mut store);
            store.rotate_onto(next)?;
            (store.commit_index(), store.record_seq())
        };
        if let Some(sink) = sink {
            sink.on_rotate(commit_index, record_seq, &snapshot);
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

/// Streams a snapshot into its file, copying the bytes for the
/// replication sink when there is one.
struct Tee<'a> {
    file: &'a mut gae_durable::SnapshotWriter,
    copy: Option<&'a mut Vec<u8>>,
}

impl io::Write for Tee<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        if let Some(copy) = &mut self.copy {
            copy.extend_from_slice(&buf[..n]);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
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
    pub(crate) fn new(at: &RecoveryPoint, replayed_records: usize) -> Self {
        RecoveryReport {
            generation: at.generation,
            commit_index: at.commit_index,
            replayed_records,
            tail_was_torn: !at.tail.is_clean(),
            used_fallback: at.used_fallback,
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

fn xfer_file_to_value((lfn, size, replicas): &(String, u64, Vec<SiteId>)) -> Value {
    Value::struct_of([
        ("lfn", Value::from(lfn.as_str())),
        ("size", Value::from(*size)),
        ("replicas", replicas_to_value(replicas)),
    ])
}

fn xfer_pending_to_value((lfn, to): &(String, SiteId)) -> Value {
    Value::struct_of([
        ("lfn", Value::from(lfn.as_str())),
        ("to", Value::from(to.raw())),
    ])
}

fn xfer_counters_to_value(c: &XferCounters) -> Value {
    Value::struct_of([
        ("completed", Value::from(c.completed)),
        ("failed", Value::from(c.failed)),
        ("retried", Value::from(c.retried)),
        ("evicted", Value::from(c.evicted)),
        ("history_dropped", Value::from(c.history_dropped)),
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

fn series_to_value((k, samples): &(MetricKey, Vec<Sample>)) -> Value {
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
}

fn balance_to_value((user, amount): &(UserId, f64)) -> Value {
    Value::struct_of([
        ("user", Value::from(user.raw())),
        ("amount", Value::Double(*amount)),
    ])
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

/// Where [`encode_snapshot`] gets the state from: one persisted
/// service per call, asked for only when its section is due, so the
/// exports are alive one at a time.
pub(crate) trait SnapshotSource {
    fn balances(&self) -> Vec<(UserId, f64)>;
    /// The job-event log and its eviction count.
    fn events(&self) -> (Vec<JobEvent>, u64);
    /// The history store's own binary encoding (it has a canonical
    /// columnar codec; re-encoding it as XML would lose the layout).
    fn hist(&self) -> Vec<u8>;
    fn jobmon(&self) -> Vec<JobMonitoringInfo>;
    fn ledger(&self) -> Vec<ChargeRecord>;
    /// Every metric series and the published-sample total.
    fn metrics(&self) -> (Vec<(MetricKey, Vec<Sample>)>, u64);
    fn steering(&self) -> Vec<TrackedJob>;
    fn xfer(&self) -> XferExport;
}

/// Bytes of history-store encoding turned to base64 per write: a
/// multiple of three, so the pieces concatenate to the encoding of
/// the whole.
const BASE64_CHUNK: usize = 3 * 16 * 1024;

/// Writes struct members one at a time, in the byte form
/// `write_value` gives a `Value::Struct` holding them.
struct MemberWriter<'a, W: io::Write + ?Sized> {
    out: &'a mut W,
    /// One element's XML, reused.
    chunk: String,
}

impl<W: io::Write + ?Sized> MemberWriter<'_, W> {
    fn raw(&mut self, xml: &str) -> io::Result<()> {
        self.out.write_all(xml.as_bytes())
    }

    fn value(&mut self, v: &Value) -> io::Result<()> {
        self.chunk.clear();
        write_value(v, &mut self.chunk);
        self.out.write_all(self.chunk.as_bytes())
    }

    /// `name` must need no XML escaping.
    fn open(&mut self, name: &str, value_open: &str) -> io::Result<()> {
        self.raw("<member><name>")?;
        self.raw(name)?;
        self.raw("</name>")?;
        self.raw(value_open)
    }

    fn member(&mut self, name: &str, v: &Value) -> io::Result<()> {
        self.open(name, "")?;
        self.value(v)?;
        self.raw("</member>")
    }

    fn array(&mut self, name: &str, items: impl Iterator<Item = Value>) -> io::Result<()> {
        self.open(name, "<value><array><data>")?;
        for item in items {
            self.value(&item)?;
        }
        self.raw("</data></array></value></member>")
    }

    fn base64(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.open(name, "<value><base64>")?;
        for piece in bytes.chunks(BASE64_CHUNK) {
            self.raw(&gae_wire::base64::encode(piece))?;
        }
        self.raw("</base64></value></member>")
    }
}

/// Writes the snapshot document of `src` into `out`, section by
/// section and element by element: at any moment one service's export,
/// one element's `Value` and its XML exist — never the whole state,
/// its `Value` tree or its document. The bytes are exactly
/// `write_value_document` of the struct of all sections; members go
/// out in the order that struct's `BTreeMap` would give them.
pub(crate) fn encode_snapshot<W: io::Write + ?Sized>(
    src: &impl SnapshotSource,
    out: &mut W,
) -> io::Result<()> {
    let mut doc = MemberWriter {
        out,
        chunk: String::new(),
    };
    doc.raw("<?xml version=\"1.0\"?>\n<value><struct>")?;
    doc.array("balances", src.balances().iter().map(balance_to_value))?;
    {
        let (events, evicted) = src.events();
        doc.array("events", events.iter().map(event_to_value))?;
        doc.member("evicted", &Value::from(evicted))?;
    }
    doc.base64("hist", &src.hist())?;
    doc.array("jobmon", src.jobmon().iter().map(|i| i.to_value()))?;
    doc.array("ledger", src.ledger().iter().map(charge_to_record))?;
    {
        let (metrics, published) = src.metrics();
        doc.array("metrics", metrics.iter().map(series_to_value))?;
        doc.member("metrics_published", &Value::from(published))?;
    }
    doc.array("steering", src.steering().iter().map(tracked_job_to_value))?;
    {
        let xfer = src.xfer();
        doc.open("xfer", "<value><struct>")?;
        doc.member("counters", &xfer_counters_to_value(&xfer.counters))?;
        doc.array("files", xfer.files.iter().map(xfer_file_to_value))?;
        doc.array("pending", xfer.pending.iter().map(xfer_pending_to_value))?;
        doc.raw("</struct></value></member>")?;
    }
    doc.raw("</struct></value>")
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
    use gae_types::{JobSpec, Priority, TaskSpec};
    use gae_wire::write_value_document;
    use proptest::prelude::*;

    /// A decoded snapshot is a source too: what the differential
    /// tests feed both encoders.
    impl SnapshotSource for SnapshotState {
        fn balances(&self) -> Vec<(UserId, f64)> {
            self.balances.clone()
        }
        fn events(&self) -> (Vec<JobEvent>, u64) {
            (self.events.clone(), self.evicted)
        }
        fn hist(&self) -> Vec<u8> {
            self.hist.clone()
        }
        fn jobmon(&self) -> Vec<JobMonitoringInfo> {
            self.jobmon.clone()
        }
        fn ledger(&self) -> Vec<ChargeRecord> {
            self.ledger.clone()
        }
        fn metrics(&self) -> (Vec<(MetricKey, Vec<Sample>)>, u64) {
            (self.metrics.clone(), self.metrics_published)
        }
        fn steering(&self) -> Vec<TrackedJob> {
            self.steering.clone()
        }
        fn xfer(&self) -> XferExport {
            self.xfer.clone()
        }
    }

    /// Every section of `src` held at once — the whole-state image the
    /// tree encoder needs and the streaming encoder exists to avoid.
    fn collect(src: &impl SnapshotSource) -> SnapshotState {
        let (events, evicted) = src.events();
        let (metrics, metrics_published) = src.metrics();
        SnapshotState {
            events,
            evicted,
            metrics,
            metrics_published,
            jobmon: src.jobmon(),
            steering: src.steering(),
            balances: src.balances(),
            ledger: src.ledger(),
            xfer: src.xfer(),
            hist: src.hist(),
        }
    }

    /// The encoder this module shipped before the streaming one: one
    /// `Value` tree of the whole state, written as one document. Kept
    /// as the oracle [`encode_snapshot`] is compared against.
    fn encode_snapshot_tree(state: &SnapshotState) -> Vec<u8> {
        let array = |items: Vec<Value>| Value::Array(items);
        let doc = Value::struct_of([
            (
                "events",
                array(state.events.iter().map(event_to_value).collect()),
            ),
            ("evicted", Value::from(state.evicted)),
            (
                "metrics",
                array(state.metrics.iter().map(series_to_value).collect()),
            ),
            ("metrics_published", Value::from(state.metrics_published)),
            (
                "jobmon",
                array(state.jobmon.iter().map(|i| i.to_value()).collect()),
            ),
            (
                "steering",
                array(state.steering.iter().map(tracked_job_to_value).collect()),
            ),
            (
                "balances",
                array(state.balances.iter().map(balance_to_value).collect()),
            ),
            (
                "ledger",
                array(state.ledger.iter().map(charge_to_record).collect()),
            ),
            (
                "xfer",
                Value::struct_of([
                    (
                        "files",
                        array(state.xfer.files.iter().map(xfer_file_to_value).collect()),
                    ),
                    (
                        "pending",
                        array(
                            state
                                .xfer
                                .pending
                                .iter()
                                .map(xfer_pending_to_value)
                                .collect(),
                        ),
                    ),
                    ("counters", xfer_counters_to_value(&state.xfer.counters)),
                ]),
            ),
            ("hist", Value::Base64(state.hist.clone())),
        ]);
        write_value_document(&doc).into_bytes()
    }

    fn encoded(src: &impl SnapshotSource) -> Vec<u8> {
        let mut out = Vec::new();
        encode_snapshot(src, &mut out).unwrap();
        out
    }

    /// Streaming ≡ tree, byte for byte; and the two other sinks — the
    /// running checksum and the snapshot file — see those same bytes.
    fn assert_streams_like_the_tree(src: &impl SnapshotSource) -> Vec<u8> {
        let streamed = encoded(src);
        let tree = encode_snapshot_tree(&collect(src));
        assert!(
            streamed == tree,
            "streamed snapshot differs from the tree encoder's:\n{}\n-- vs --\n{}",
            String::from_utf8_lossy(&streamed),
            String::from_utf8_lossy(&tree)
        );
        let mut crc = gae_durable::crc32::Crc32::new();
        encode_snapshot(src, &mut crc).unwrap();
        assert_eq!(crc.finish(), gae_durable::crc32::crc32(&tree));
        streamed
    }

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
        let decoded = decode_snapshot(&assert_streams_like_the_tree(&state)).unwrap();
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
    /// Strings that need XML escaping, or none, or are empty.
    fn arb_text() -> impl Strategy<Value = String> {
        prop_oneof![
            Just(String::new()),
            "[a-z0-9_.-]{1,12}",
            "[a-z<>&\"' ]{1,16}",
        ]
    }

    fn arb_time() -> impl Strategy<Value = SimTime> {
        (0u64..1 << 40).prop_map(SimTime::from_micros)
    }

    fn arb_span() -> impl Strategy<Value = SimDuration> {
        (0u64..1 << 40).prop_map(SimDuration::from_micros)
    }

    fn arb_amount() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(0.1 + 0.2),
            prop::num::f64::NORMAL,
            (0u32..1_000_000).prop_map(|n| f64::from(n) / 64.0),
        ]
    }

    fn arb_status() -> impl Strategy<Value = TaskStatus> {
        (0usize..3).prop_map(|i| {
            [
                TaskStatus::Running,
                TaskStatus::Completed,
                TaskStatus::Failed,
            ][i]
        })
    }

    fn arb_info() -> impl Strategy<Value = JobMonitoringInfo> {
        (
            (0u64..50, 0u64..500, 0u64..500, 1u64..9),
            arb_status(),
            (any::<bool>(), arb_span(), arb_span(), arb_span()),
            (any::<bool>(), 0usize..40, arb_time(), arb_time()),
            (0u64..1 << 40, 0u64..1 << 40, 0u64..9),
            (
                prop::collection::vec((arb_text(), arb_text()), 0..3),
                (0u32..=64).prop_map(|n| f64::from(n) / 64.0),
            ),
        )
            .prop_map(|(ids, status, spans, times, io, (env, progress))| {
                let (job, task, condor, site) = ids;
                let (some, estimated, elapsed, cpu_time) = spans;
                let (queued, position, submitted_at, later) = times;
                JobMonitoringInfo {
                    job: JobId::new(job),
                    task: TaskId::new(task),
                    condor: CondorId::new(condor),
                    site: SiteId::new(site),
                    status,
                    estimated_runtime: some.then_some(estimated),
                    remaining_time: some.then_some(elapsed),
                    elapsed,
                    queue_position: queued.then_some(position),
                    priority: Priority::default(),
                    submitted_at,
                    started_at: some.then_some(later),
                    completed_at: queued.then_some(later),
                    cpu_time,
                    input_io: io.0,
                    output_io: io.1,
                    owner: UserId::new(io.2),
                    env,
                    progress,
                }
            })
    }

    /// A tracked job of 1–4 chained tasks with assorted phases.
    fn arb_tracked() -> impl Strategy<Value = TrackedJob> {
        (
            1u64..1000,
            arb_text(),
            prop::collection::vec((0usize..5, 1u64..9, 0u32..4), 1..5),
            any::<bool>(),
        )
            .prop_map(|(id, name, tasks, notified)| {
                let mut job = JobSpec::new(JobId::new(id), name, UserId::new(id % 7));
                let task_id = |i: usize| TaskId::new(id * 10 + i as u64);
                for (i, _) in tasks.iter().enumerate() {
                    job.add_task(
                        TaskSpec::new(task_id(i), format!("t<{i}>"), "app & co")
                            .with_cpu_demand(SimDuration::from_secs(10 + i as u64)),
                    );
                    if i > 0 {
                        job.add_dependency(task_id(i - 1), task_id(i));
                    }
                }
                let assignments = tasks
                    .iter()
                    .enumerate()
                    .map(|(i, (_, site, _))| TaskAssignment {
                        task: task_id(i),
                        site: SiteId::new(*site),
                    })
                    .collect();
                let plan = ConcretePlan::new(PlanId::new(id), job, assignments).unwrap();
                let mut tracked = TrackedJob::subscribe(plan).unwrap();
                for (i, (phase, site, n)) in tasks.into_iter().enumerate() {
                    let site = SiteId::new(site);
                    let t = tracked.tasks.get_mut(&task_id(i)).unwrap();
                    t.phase = [
                        TaskPhase::WaitingPrereqs,
                        TaskPhase::Submitted {
                            site,
                            condor: CondorId::new(u64::from(n) + 40),
                        },
                        TaskPhase::Done { site },
                        TaskPhase::Failed,
                        TaskPhase::Killed,
                    ][phase];
                    t.recovery_attempts = n;
                    t.moves = n / 2;
                }
                tracked.completion_notified = notified;
                tracked
            })
    }

    fn arb_charge() -> impl Strategy<Value = ChargeRecord> {
        (0u64..9, 1u64..9, arb_span(), arb_amount()).prop_map(|(user, site, cpu_time, amount)| {
            ChargeRecord {
                user: UserId::new(user),
                site: SiteId::new(site),
                cpu_time,
                amount,
            }
        })
    }

    fn arb_xfer() -> impl Strategy<Value = XferExport> {
        let sites = || prop::collection::vec((1u64..9).prop_map(SiteId::new), 0..3);
        (
            prop::collection::vec((arb_text(), 0u64..1 << 40, sites()), 0..4),
            prop::collection::vec((arb_text(), (1u64..9).prop_map(SiteId::new)), 0..3),
            prop::collection::vec(0u64..1000, 5..6),
        )
            .prop_map(|(files, pending, c)| XferExport {
                files,
                pending,
                counters: XferCounters {
                    completed: c[0],
                    failed: c[1],
                    retried: c[2],
                    evicted: c[3],
                    history_dropped: c[4],
                },
            })
    }

    fn arb_state() -> impl Strategy<Value = SnapshotState> {
        let event = (arb_time(), 0u64..50, 0u64..500, 1u64..9, arb_status()).prop_map(
            |(at, job, task, site, status)| JobEvent {
                at,
                job: JobId::new(job),
                task: TaskId::new(task),
                site: SiteId::new(site),
                status,
            },
        );
        let sample = (arb_time(), arb_amount()).prop_map(|(at, value)| Sample { at, value });
        let series = (
            (0u64..9, arb_text(), arb_text()),
            prop::collection::vec(sample, 0..5),
        )
            .prop_map(|((site, entity, param), samples)| {
                (MetricKey::new(SiteId::new(site), entity, param), samples)
            });
        (
            (prop::collection::vec(event, 0..5), 0u64..100),
            (prop::collection::vec(series, 0..4), 0u64..10_000),
            (
                prop::collection::vec(arb_info(), 0..4),
                prop::collection::vec(arb_tracked(), 0..3),
            ),
            (
                prop::collection::vec(((0u64..9).prop_map(UserId::new), arb_amount()), 0..4),
                prop::collection::vec(arb_charge(), 0..4),
            ),
            arb_xfer(),
            // Around the base64 piece size and its 3-byte groups.
            prop_oneof![
                prop::collection::vec(any::<u8>(), 0..8),
                (0usize..5).prop_map(|extra| vec![0x5A; 2 * BASE64_CHUNK - 2 + extra]),
            ],
        )
            .prop_map(
                |(
                    (events, evicted),
                    (metrics, metrics_published),
                    (jobmon, steering),
                    (balances, ledger),
                    xfer,
                    hist,
                )| SnapshotState {
                    events,
                    evicted,
                    metrics,
                    metrics_published,
                    jobmon,
                    steering,
                    balances,
                    ledger,
                    xfer,
                    hist,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Streaming encoder ≡ tree encoder on arbitrary states —
        /// empty sections, escaped strings, awkward floats, history
        /// blobs straddling a base64 piece — and the bytes decode.
        #[test]
        fn streamed_snapshot_is_the_tree_snapshot(state in arb_state()) {
            let bytes = assert_streams_like_the_tree(&state);
            let back = decode_snapshot(&bytes).unwrap();
            prop_assert_eq!(encoded(&back), bytes);
        }
    }

    #[test]
    fn empty_state_streams_like_the_tree() {
        assert_streams_like_the_tree(&SnapshotState::default());
    }

    /// The same differential over live stacks, every section
    /// populated by the services themselves: a persisted two-site grid
    /// with staged inputs, jobs at every stage of their life, charges,
    /// history rows and metric rings — checked at several instants,
    /// across a rotation, and after crash recovery (whose resume
    /// snapshot goes through the file sink).
    #[test]
    fn live_stacks_stream_like_the_tree() {
        use crate::grid::{GridBuilder, ServiceStack};
        use crate::steering::SteeringPolicy;
        use gae_repl::StateMachine;
        use gae_types::{FileRef, SiteDescription};

        let dir = gae_durable::fault::unique_temp_dir("persist-stream");
        let config = PersistenceConfig::new(&dir)
            .fsync(false)
            .snapshot_every(SimDuration::from_secs(90));
        let grid = |persist: bool| {
            let b = GridBuilder::new()
                .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 2, 1), 2.0)
                .site(SiteDescription::new(SiteId::new(2), "free", 2, 2));
            if persist {
                b.persist(config.clone())
            } else {
                b
            }
            .build()
        };
        let stack = ServiceStack::over(grid(true));
        assert_streams_like_the_tree(&*stack);
        for j in 1..=4u64 {
            let mut job = JobSpec::new(JobId::new(j), format!("job <{j}>"), UserId::new(j % 2 + 1));
            for i in 0..3u64 {
                let task = TaskId::new(j * 10 + i);
                job.add_task(
                    TaskSpec::new(task, format!("t{i}"), "reco")
                        .with_cpu_demand(SimDuration::from_secs(20 * (i + 1)))
                        .with_inputs(vec![FileRef::new(format!("raw-{j}-{i}.root"), 30_000_000)
                            .with_replicas(vec![SiteId::new(1)])]),
                );
                if i > 0 {
                    job.add_dependency(TaskId::new(j * 10 + i - 1), task);
                }
            }
            stack.submit_job(job).unwrap();
            stack.run_until(SimTime::from_secs(40 * j));
            let bytes = assert_streams_like_the_tree(&*stack);
            assert_eq!(stack.snapshot(), bytes);
            assert_eq!(
                stack.query_state(),
                format!("{:08x}", gae_durable::crc32::crc32(&bytes))
            );
        }
        let generation = stack.persistence().unwrap().generation();
        assert!(generation >= 1, "the cadence rotated at least once");
        let before = encoded(&*stack);
        drop(stack);

        // The rotation wrote its snapshot through the file sink: the
        // payload on disk is a document the decoder takes whole.
        let on_disk = gae_durable::DurableStore::recover(&dir).unwrap();
        assert_eq!(on_disk.generation, generation);
        assert_streams_like_the_tree(&decode_snapshot(&on_disk.snapshot).unwrap());

        let (recovered, report) = ServiceStack::recover_from_disk(
            grid(false),
            SteeringPolicy::default(),
            SimDuration::from_secs(5),
            &config,
        )
        .unwrap();
        assert_eq!(report.replayed_records, on_disk.records.len());
        assert_eq!(report.generation, generation);
        // The resume snapshot went through the file sink too; it holds
        // the replayed job repository (metric rings restart from the
        // last rotation — only snapshots carry them).
        let resumed = gae_durable::DurableStore::recover(&dir).unwrap();
        assert_eq!(resumed.generation, generation + 1);
        let resumed = decode_snapshot(&resumed.snapshot).unwrap();
        assert_streams_like_the_tree(&resumed);
        let crashed = decode_snapshot(&before).unwrap();
        for (section, len) in [
            ("events", crashed.events.len()),
            ("metrics", crashed.metrics.len()),
            ("jobmon", crashed.jobmon.len()),
            ("steering", crashed.steering.len()),
            ("balances", crashed.balances.len()),
            ("ledger", crashed.ledger.len()),
            ("xfer files", crashed.xfer.files.len()),
            ("hist", crashed.hist.len()),
        ] {
            assert!(
                len > 0,
                "the {section} section is empty: the differential is vacuous"
            );
        }
        assert_eq!(resumed.jobmon, crashed.jobmon);
        assert_eq!(resumed.ledger, crashed.ledger);
        assert_eq!(resumed.hist, crashed.hist);
        assert_streams_like_the_tree(&*recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn numbered(n: u64) -> Value {
        Value::struct_of([("n", Value::from(n))])
    }

    /// The `n`s of every record in `dir`'s log, oldest first — read
    /// through the fallback path (the newest snapshot dropped), which
    /// replays both retained WAL generations.
    fn logged_numbers(dir: &std::path::Path) -> (Vec<u64>, u64) {
        let newest = gae_durable::fault::snapshot_files(dir)
            .unwrap()
            .pop()
            .unwrap();
        if !newest.ends_with("snapshot.000000") {
            std::fs::remove_file(newest).unwrap();
        }
        let at = DurableStore::recover(dir).unwrap();
        let numbers = at
            .records
            .iter()
            .map(|r| {
                let record = frame::decode_envelope(r).unwrap();
                assert_eq!(record.kind, "n");
                record.body.member("n").unwrap().as_u64().unwrap()
            })
            .collect();
        (numbers, at.commit_index)
    }

    /// The append buffer changes who waits, not what is written: a
    /// scripted append/commit/rotate sequence leaves the files a bare
    /// [`DurableStore`] fed the same records at the same points leaves
    /// (which is how this handle wrote before it buffered).
    #[test]
    fn buffered_appends_write_the_bytes_a_bare_store_writes() {
        enum Step {
            Append(u64),
            Commit,
            Rotate,
        }
        use Step::*;
        let script = [
            Append(1),
            Append(2),
            Commit,
            Commit,
            Append(3),
            Commit,
            Append(4),
            Rotate, // commits 4 into the old generation first
            Append(5),
            Append(6),
            Commit,
            Rotate,
            Append(7),
        ];
        let (ours, bare) = (
            gae_durable::fault::unique_temp_dir("persist-bytes"),
            gae_durable::fault::unique_temp_dir("persist-bytes-bare"),
        );
        std::fs::remove_dir(&bare).unwrap();
        let p = Persistence::create(&PersistenceConfig::new(&ours)).unwrap();
        let mut store = DurableStore::create(&bare, true).unwrap();
        for step in script {
            match step {
                Append(n) => {
                    p.append("n", numbered(n));
                    store.append(frame::encode_envelope("n", &numbered(n)).into_bytes());
                }
                Commit => assert_eq!(p.commit().unwrap(), store.commit().unwrap()),
                Rotate => {
                    p.rotate(SimTime::ZERO, |w| w.write_all(b"state")).unwrap();
                    store.rotate(b"state").unwrap();
                }
            }
            let files = |dir| gae_durable::fault::store_files(dir).unwrap();
            assert_eq!(files(&ours).len(), files(&bare).len());
            for (a, b) in files(&ours).iter().zip(files(&bare)) {
                assert_eq!(a.file_name(), b.file_name());
                assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
            }
        }
        std::fs::remove_dir_all(&ours).unwrap();
        std::fs::remove_dir_all(&bare).unwrap();
    }

    /// An append returns while a commit sits in its write + fsync (the
    /// test holds the store lock in the commit's stead), and the record
    /// is in the next commit.
    #[test]
    fn appenders_never_wait_for_a_commit() {
        let dir = gae_durable::fault::unique_temp_dir("persist-nowait");
        let p = Persistence::create(&PersistenceConfig::new(&dir)).unwrap();
        p.append("n", numbered(1));
        assert_eq!(p.commit().unwrap(), 1);
        let (done, appended) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let in_commit = p.store.lock();
            s.spawn(|| {
                p.append("n", numbered(2));
                done.send(()).unwrap();
            });
            let returned = appended.recv_timeout(std::time::Duration::from_secs(20));
            drop(in_commit);
            returned.expect("append blocked behind the store lock");
        });
        assert_eq!(logged_numbers(&dir), (vec![1], 1));
        assert_eq!(p.commit().unwrap(), 2);
        assert_eq!(logged_numbers(&dir), (vec![1, 2], 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One thread appends numbered records while another commits
    /// (fsync on) and rotates once; each may run only so far ahead of
    /// the other, so every commit swaps a batch out while more records
    /// arrive. A crash image taken after every commit holds exactly
    /// `1..=k`: nothing lost, doubled or reordered across the buffer
    /// swaps, and `k` covers every record whose append had returned
    /// when that commit began.
    #[test]
    fn concurrent_appends_commit_in_order_without_loss() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const COMMITS: u64 = 24;
        const PER_COMMIT: u64 = 50;
        const AHEAD: u64 = 200;
        const RECORDS: u64 = COMMITS * PER_COMMIT + AHEAD;
        let dir = gae_durable::fault::unique_temp_dir("persist-concurrent");
        let p = Persistence::create(&PersistenceConfig::new(&dir)).unwrap();
        let (appended, begun) = (AtomicU64::new(0), AtomicU64::new(0));
        // (image dir, records appended before the commit began, its index)
        let mut images: Vec<(PathBuf, u64, u64)> = Vec::new();
        let mut commit_and_image = || {
            let floor = appended.load(Ordering::SeqCst);
            begun.fetch_add(1, Ordering::SeqCst);
            let index = p.commit().unwrap();
            let image = gae_durable::fault::unique_temp_dir("persist-concurrent-image");
            for file in gae_durable::fault::store_files(&dir).unwrap() {
                std::fs::copy(&file, image.join(file.file_name().unwrap())).unwrap();
            }
            images.push((image, floor, index));
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                for n in 1..=RECORDS {
                    while n > begun.load(Ordering::SeqCst) * PER_COMMIT + AHEAD {
                        std::thread::yield_now();
                    }
                    p.append("n", numbered(n));
                    appended.store(n, Ordering::SeqCst);
                }
            });
            for commit in 1..=COMMITS {
                while appended.load(Ordering::SeqCst) < commit * PER_COMMIT {
                    std::thread::yield_now();
                }
                commit_and_image();
                if commit == COMMITS / 2 {
                    p.rotate(SimTime::ZERO, |w| w.write_all(b"state")).unwrap();
                }
            }
        });
        commit_and_image();
        assert_eq!(p.generation(), 1);
        let mut last = 0;
        for (image, floor, index) in images {
            let (numbers, commit_index) = logged_numbers(&image);
            let k = numbers.len() as u64;
            assert_eq!(numbers, (1..=k).collect::<Vec<_>>(), "commit {index}");
            assert!(k >= floor, "commit {index} holds {k} of {floor} appended");
            assert!(k >= last);
            assert_eq!(commit_index, index);
            last = k;
            std::fs::remove_dir_all(&image).unwrap();
        }
        assert_eq!(last, RECORDS, "the final commit holds every record");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record that cannot be replayed names itself: sequence number
    /// and kind, not a bare parse message.
    #[test]
    fn a_bad_wal_record_is_reported_with_its_sequence_and_kind() {
        use crate::grid::{GridBuilder, ServiceStack};
        use crate::steering::SteeringPolicy;
        use gae_types::SiteDescription;

        let grid = || {
            GridBuilder::new()
                .site(SiteDescription::new(SiteId::new(1), "only", 2, 1))
                .build()
        };
        let recover = |dir: &std::path::Path| {
            ServiceStack::recover_from_disk(
                grid(),
                SteeringPolicy::default(),
                SimDuration::from_secs(5),
                &PersistenceConfig::new(dir).fsync(false),
            )
            .map(|(_, report)| report)
        };
        for (record, expected) in [
            (
                frame::encode_envelope("task", &Value::struct_of([("job", Value::from(1u64))])),
                "wal record 2 (kind \"task\")",
            ),
            (
                frame::encode_envelope("mystery", &Value::from(1u64)),
                "wal record 2 (kind \"mystery\")",
            ),
            (
                "<not-a-document".to_string(),
                "wal record 2 (undecodable envelope)",
            ),
        ] {
            let dir = gae_durable::fault::unique_temp_dir("persist-bad-record");
            let mut store = DurableStore::create(&dir, false).unwrap();
            store.append(
                frame::encode_envelope("notified", &Value::struct_of([("job", Value::from(9u64))]))
                    .into_bytes(),
            );
            store.commit().unwrap();
            drop(store);
            assert_eq!(recover(&dir).unwrap().replayed_records, 1);
            // `recover` resumed into generation 1; the bad record
            // lands there as record 2.
            let at = DurableStore::recover(&dir).unwrap();
            let mut store = DurableStore::resume(&dir, &at, &at.snapshot, false).unwrap();
            store.append(record.into_bytes());
            store.commit().unwrap();
            drop(store);
            let err = recover(&dir).unwrap_err();
            assert!(
                matches!(&err, GaeError::Parse(m) if m.starts_with(expected)),
                "{err}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
