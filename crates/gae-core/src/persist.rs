//! Service-level persistence over [`gae_durable`]: the journal contract
//! every persisted subsystem implements, the handle it logs through,
//! and the snapshot document it streams into.
//!
//! The paper's Steering Service keeps a Backup & Recovery module that
//! must "recollect" job state after a service failure (§4), and the
//! Job Monitoring Service "stores the job information in a repository"
//! (§5). This module is that repository's durable form. See DESIGN.md
//! §8 for the full durability contract, and its "How a subsystem
//! journals" for which subsystem owns which record kind and snapshot
//! member.
//!
//! Record payloads and snapshots are XML-RPC `Value` documents — the
//! same wire codecs the RPC layer uses, so everything that crosses the
//! wire can also cross a crash. Rust's shortest-roundtrip `f64`
//! formatting makes the encoding bit-exact, which the crash-equivalence
//! tests rely on.
//!
//! A journaled subsystem is a [`Machine`]: its [`Journal`] mutation
//! type owns some record kinds and carries their codec, and the machine
//! owns some members of the snapshot document. The codecs live in the
//! subsystems' own modules, next to the types they encode; this module
//! holds the traits, [`Persistence`], and the snapshot loop
//! [`encode_snapshot`] over [`ServiceStack::machines`] — replay and
//! restore are the loops of `replication.rs`.
//!
//! [`ServiceStack::machines`]: crate::grid::ServiceStack

use gae_durable::{DurableStore, RecoveryPoint};
use gae_repl::frame;
use gae_repl::ReplicationSink;
use gae_types::{GaeError, GaeResult, SimDuration, SimTime, TaskId};
use gae_wire::writer::write_value;
use gae_wire::{parse_value_document, Value};
use parking_lot::Mutex;
use std::io;
use std::path::PathBuf;
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
    /// Optional replication tee: every commit and rotation this handle
    /// performs is mirrored to the sink, records as the bytes the store
    /// took, making this store the leader of a replicated log without
    /// the services knowing.
    repl: Mutex<Option<Arc<dyn ReplicationSink>>>,
}

impl Persistence {
    /// Opens a fresh store (fails if `config.dir` already holds one —
    /// recover it instead of overwriting history).
    pub fn create(config: &PersistenceConfig) -> GaeResult<Arc<Self>> {
        let store = DurableStore::create(&config.dir, config.fsync)?;
        Ok(Self::over(store, config, SimTime::ZERO))
    }

    fn over(store: DurableStore, config: &PersistenceConfig, last_snapshot: SimTime) -> Arc<Self> {
        Arc::new(Persistence {
            store: Mutex::new(store),
            buffer: Mutex::new(Vec::new()),
            snapshot_every: config.snapshot_every,
            last_snapshot: Mutex::new(last_snapshot),
            repl: Mutex::new(None),
        })
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
        Ok(Self::over(store, config, now))
    }

    /// Arms the replication tee. The sink must be attached before any
    /// records it is expected to mirror.
    pub(crate) fn set_replication_sink(&self, sink: Arc<dyn ReplicationSink>) {
        *self.repl.lock() = Some(sink);
    }

    /// The armed replication sink, if any.
    pub(crate) fn replication_sink(&self) -> Option<Arc<dyn ReplicationSink>> {
        self.repl.lock().clone()
    }

    /// Appends one mutation to the group-commit buffer, under the kind
    /// its own type gives it.
    pub(crate) fn log(&self, op: &impl Journal) {
        let doc = frame::encode_envelope(op.kind(), &op.encode());
        self.buffer.lock().push(doc.into_bytes());
    }

    /// Commits everything appended so far, in append order (one batched
    /// write + marker). Under the store lock, so two committers cannot
    /// interleave their batches; a record appended after the swap is
    /// the next batch's. Returns the commit index and — only when
    /// `copy`, for an armed sink — the records the store took.
    fn commit_buffer(
        &self,
        store: &mut DurableStore,
        copy: bool,
    ) -> GaeResult<(u64, Vec<Vec<u8>>)> {
        let batch = std::mem::take(&mut *self.buffer.lock());
        let records = if copy { batch.clone() } else { Vec::new() };
        for record in batch {
            store.append(record);
        }
        Ok((store.commit()?, records))
    }

    /// Commits the buffered records (one batched write + marker).
    pub(crate) fn commit(&self) -> GaeResult<u64> {
        let sink = self.replication_sink();
        let (index, records) = self.commit_buffer(&mut self.store.lock(), sink.is_some())?;
        // The sink streams outside the store lock: follower replay
        // must never extend the leader's commit critical section.
        if let Some(sink) = sink {
            sink.on_commit(index, &records);
        }
        Ok(index)
    }

    /// True when the snapshot cadence has elapsed since the last
    /// rotation.
    pub(crate) fn snapshot_due(&self, now: SimTime) -> bool {
        now.saturating_since(*self.last_snapshot.lock()) >= self.snapshot_every
    }

    /// Rotates to a new generation anchored at the snapshot `encode`
    /// writes. Callers commit before rotating (checkpoint does); a
    /// record logged while `encode` runs is committed here, into the
    /// old generation, and streamed as a commit of its own before the
    /// rotation, so followers rotate at the leader's commit point
    /// (ROADMAP defect 1(viii)).
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
        let (committed, commit_index, record_seq) = {
            let mut store = self.store.lock();
            // (An `if`, not a `match`: the buffer's guard must drop
            // before `commit_buffer` takes it again.)
            let committed = if self.buffer.lock().is_empty() {
                None
            } else {
                Some(self.commit_buffer(&mut store, sink.is_some())?)
            };
            store.rotate_onto(next)?;
            (committed, store.commit_index(), store.record_seq())
        };
        if let Some(sink) = sink {
            if let Some((index, records)) = committed {
                sink.on_commit(index, &records);
            }
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

// ---------------------------------------------------------------- contract

/// A journaled mutation: the record kinds it is written under, and its
/// codec. [`Persistence::log`] takes a record's kind and its body from
/// the same value, so the two cannot disagree.
pub(crate) trait Journal: Sized {
    /// Every kind this type is written under. Its owner is the only
    /// machine that replays them.
    const KINDS: &'static [&'static str];

    /// The kind this mutation is written under (the one kind, for a
    /// type that has one).
    fn kind(&self) -> &'static str {
        Self::KINDS[0]
    }

    /// The record body.
    fn encode(&self) -> Value;

    /// A record body of one of [`Self::KINDS`], decoded.
    fn decode(kind: &str, body: &Value) -> GaeResult<Self>;
}

/// `(record kinds, snapshot members)` a [`Machine`] owns.
pub(crate) type Owns = (&'static [&'static str], &'static [&'static str]);

/// Installs what [`Machine::decode`] decoded.
pub(crate) type Install<'a> = Box<dyn FnOnce() -> GaeResult<()> + 'a>;

/// One journaled subsystem: the record kinds it replays and the
/// snapshot members it owns. Every durability path is one loop over
/// `ServiceStack::machines`; a new subsystem is its own `impl Machine`
/// plus one entry in that list.
pub(crate) trait Machine {
    /// Routes its future mutations through `persistence` (nothing to
    /// route, for the monitor and quota — steering logs the charges).
    fn attach(&self, _persistence: &Arc<Persistence>) {}

    /// What it owns: the record kinds it replays — its [`Journal`]
    /// type's `KINDS`, none for the monitor, whose state is
    /// snapshot-only — and the snapshot members it streams and
    /// restores.
    fn owns(&self) -> Owns;

    /// Replays one committed record of a kind it owns, decoded
    /// through its [`Journal`] type — WAL replay, never logging.
    fn apply(&self, kind: &str, _body: &Value) -> GaeResult<()> {
        Err(GaeError::Parse(format!("unknown wal record kind {kind:?}")))
    }

    /// Streams member `name`, one it owns, from the live state.
    fn write_member(&self, name: &str, doc: &mut MemberWriter<'_>) -> io::Result<()>;

    /// Decodes its members out of a snapshot document, changing
    /// nothing, into the step that installs them. Only the machine
    /// listed first may fail to install (the history store, whose
    /// columnar blob its own `restore` decodes): the restore loop
    /// decodes every member before it installs any.
    fn decode<'a>(&'a self, doc: &'a Value) -> GaeResult<Install<'a>>;
}

/// Bytes of history-store encoding turned to base64 per write: a
/// multiple of three, so the pieces concatenate to the encoding of
/// the whole.
const BASE64_CHUNK: usize = 3 * 16 * 1024;

/// Writes struct members one at a time, in the byte form
/// `write_value` gives a `Value::Struct` holding them.
pub(crate) struct MemberWriter<'a> {
    out: &'a mut dyn io::Write,
    /// One element's XML, reused.
    chunk: String,
}

impl MemberWriter<'_> {
    pub(crate) fn raw(&mut self, xml: &str) -> io::Result<()> {
        self.out.write_all(xml.as_bytes())
    }

    fn value(&mut self, v: &Value) -> io::Result<()> {
        self.chunk.clear();
        write_value(v, &mut self.chunk);
        self.out.write_all(self.chunk.as_bytes())
    }

    /// `name` must need no XML escaping.
    pub(crate) fn open(&mut self, name: &str, value_open: &str) -> io::Result<()> {
        self.raw("<member><name>")?;
        self.raw(name)?;
        self.raw("</name>")?;
        self.raw(value_open)
    }

    pub(crate) fn member(&mut self, name: &str, v: &Value) -> io::Result<()> {
        self.open(name, "")?;
        self.value(v)?;
        self.raw("</member>")
    }

    pub(crate) fn array(
        &mut self,
        name: &str,
        items: impl Iterator<Item = Value>,
    ) -> io::Result<()> {
        self.open(name, "<value><array><data>")?;
        for item in items {
            self.value(&item)?;
        }
        self.raw("</data></array></value></member>")
    }

    pub(crate) fn base64(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.open(name, "<value><base64>")?;
        for piece in bytes.chunks(BASE64_CHUNK) {
            self.raw(&gae_wire::base64::encode(piece))?;
        }
        self.raw("</base64></value></member>")
    }
}

// ---------------------------------------------------------------- snapshot

/// Writes the snapshot document of `machines` into `out`: members in
/// name order — the order the document's `BTreeMap` gives them,
/// whichever machine owns each — and element by element. At any moment
/// one member's export, one element's `Value` and its XML exist, never
/// the whole state, its `Value` tree or its document; the bytes are
/// exactly `write_value_document` of the struct of all members.
pub(crate) fn encode_snapshot(
    machines: &[&dyn Machine],
    out: &mut dyn io::Write,
) -> io::Result<()> {
    let mut owned: Vec<(&str, &dyn Machine)> = machines
        .iter()
        .flat_map(|m| m.owns().1.iter().map(move |name| (*name, *m)))
        .collect();
    owned.sort_by_key(|(name, _)| *name);
    let mut doc = MemberWriter {
        out,
        chunk: String::new(),
    };
    doc.raw("<?xml version=\"1.0\"?>\n<value><struct>")?;
    for (name, machine) in owned {
        machine.write_member(name, &mut doc)?;
    }
    doc.raw("</struct></value>")
}

/// Parses a snapshot payload into the document the machines decode
/// their members from. Generation-0 snapshots are empty bytes: the
/// empty state, whose document has no members.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> GaeResult<Value> {
    if bytes.is_empty() {
        return Ok(Value::empty_struct());
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|e| GaeError::Parse(format!("snapshot is not UTF-8: {e}")))?;
    parse_value_document(text)
}

/// Decodes snapshot member `name` of `doc`, naming the member in any
/// error. In the empty document every member is its empty default.
pub(crate) fn section<'a, T: Default>(
    doc: &'a Value,
    name: &str,
    decode: impl FnOnce(&'a Value) -> GaeResult<T>,
) -> GaeResult<T> {
    let members = doc.as_struct()?;
    match members.get(name) {
        Some(v) => decode(v).map_err(|e| in_member(name, e)),
        None if members.is_empty() => Ok(T::default()),
        None => Err(GaeError::Parse(format!("missing struct member {name:?}"))),
    }
}

/// [`section`] for a member older snapshots predate: absent, it is its
/// empty default.
pub(crate) fn optional_section<'a, T: Default>(
    doc: &'a Value,
    name: &str,
    decode: impl FnOnce(&'a Value) -> GaeResult<T>,
) -> GaeResult<T> {
    if doc.as_struct()?.contains_key(name) {
        section(doc, name, decode)
    } else {
        Ok(T::default())
    }
}

/// `body`, a struct, with member `op` set to `tag` — how a journal
/// whose type has several variants names the variant.
pub(crate) fn tagged(tag: &str, mut body: Value) -> Value {
    if let Value::Struct(members) = &mut body {
        members.insert("op".into(), Value::from(tag));
    }
    body
}

/// `e`, raised while decoding or installing snapshot member `name`.
pub(crate) fn in_member(name: &str, e: GaeError) -> GaeError {
    GaeError::Parse(format!("snapshot member {name:?}: {e}"))
}

/// Every element of an array value, decoded.
pub(crate) fn array_of<T>(
    v: &Value,
    decode: impl FnMut(&Value) -> GaeResult<T>,
) -> GaeResult<Vec<T>> {
    v.as_array()?.iter().map(decode).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridBuilder, ServiceStack};
    use crate::jobmon::JobMonitoringInfo;
    use crate::monalisa::series_to_value;
    use crate::quota::{balance_to_value, ChargeRecord};
    use crate::replica::{counters_to_value, file_to_value, pending_to_value};
    use crate::steering::state::{plan_to_record, tracked_job_to_value, TaskPhase, TrackedJob};
    use crate::steering::SteeringPolicy;
    use gae_durable::crc32::crc32;
    use gae_hist::{HistConfig, HistOp, HistRecord, HistStore};
    use gae_monitor::{MetricKey, Sample};
    use gae_repl::Mutation;
    use gae_types::{
        ConcretePlan, CondorId, JobId, JobSpec, PlanId, Priority, SiteDescription, SiteId,
        TaskAssignment, TaskSpec, TaskStatus, UserId,
    };
    use gae_wire::write_value_document;
    use gae_xfer::{XferCounters, XferExport};
    use proptest::prelude::*;

    /// Every member of a snapshot, held at once: the whole-state image
    /// the tree encoder takes and the streaming encoder exists to
    /// avoid.
    #[derive(Debug, Default)]
    struct SnapshotState {
        metrics: Vec<(MetricKey, Vec<Sample>)>,
        metrics_published: u64,
        jobmon: Vec<JobMonitoringInfo>,
        steering: Vec<TrackedJob>,
        balances: Vec<(UserId, f64)>,
        ledger: Vec<ChargeRecord>,
        xfer: XferExport,
        hist: Vec<u8>,
    }

    /// What each machine of `stack` exports for its members — the
    /// tree encoder's input, taken through the services' own export
    /// calls rather than through the machines.
    fn collect(stack: &ServiceStack) -> SnapshotState {
        let monitor = stack.grid.monitor();
        let (metrics, metrics_published) = monitor.metrics_snapshot();
        SnapshotState {
            metrics,
            metrics_published,
            jobmon: stack.jobmon.db_snapshot(),
            steering: stack.steering.export_jobs(),
            balances: stack.quota.balances_snapshot(),
            ledger: stack.quota.ledger(),
            xfer: stack.grid.with_xfer(|x| x.export()),
            hist: stack.hist.store().encode(),
        }
    }

    /// The encoder this module shipped before the streaming one: one
    /// `Value` tree of the whole state, written as one document. Kept
    /// as the oracle [`encode_snapshot`] is compared against.
    fn encode_snapshot_tree(state: &SnapshotState) -> Vec<u8> {
        fn array<T>(items: &[T], f: impl Fn(&T) -> Value) -> Value {
            Value::Array(items.iter().map(f).collect())
        }
        let xfer = &state.xfer;
        let doc = Value::struct_of([
            ("metrics", array(&state.metrics, series_to_value)),
            ("metrics_published", Value::from(state.metrics_published)),
            ("jobmon", array(&state.jobmon, JobMonitoringInfo::to_value)),
            ("steering", array(&state.steering, tracked_job_to_value)),
            ("balances", array(&state.balances, balance_to_value)),
            ("ledger", array(&state.ledger, Journal::encode)),
            (
                "xfer",
                Value::struct_of([
                    (
                        "files",
                        array(&xfer.files, |(l, size, r)| file_to_value(l, *size, r)),
                    ),
                    ("pending", array(&xfer.pending, pending_to_value)),
                    ("counters", counters_to_value(&xfer.counters)),
                ]),
            ),
            ("hist", Value::Base64(state.hist.clone())),
        ]);
        write_value_document(&doc).into_bytes()
    }

    /// Streaming ≡ tree, byte for byte, for the state `stack` holds;
    /// the checksum sink sees those same bytes.
    fn assert_streams_like_the_tree(stack: &ServiceStack) -> Vec<u8> {
        let streamed = stack.snapshot();
        let tree = encode_snapshot_tree(&collect(stack));
        assert!(
            streamed == tree,
            "streamed snapshot differs from the tree encoder's:\n{}\n-- vs --\n{}",
            String::from_utf8_lossy(&streamed),
            String::from_utf8_lossy(&tree)
        );
        assert_eq!(stack.query_state(), format!("{:08x}", crc32(&tree)));
        streamed
    }

    fn fresh() -> Arc<ServiceStack> {
        ServiceStack::over(
            GridBuilder::new()
                .site(SiteDescription::new(SiteId::new(1), "only", 2, 1))
                .build(),
        )
    }

    /// A fresh stack restored from `bytes`.
    fn restored(bytes: &[u8]) -> Arc<ServiceStack> {
        let stack = fresh();
        stack.restore(bytes).expect("the snapshot restores");
        stack
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

    fn hist_row(task: u64, job_type: &str) -> HistRecord {
        HistRecord {
            task,
            site: 2,
            nodes: 4,
            submit_us: 1_000_000,
            start_us: 2_000_000,
            finish_us: 5_000_000,
            runtime_us: 3_000_000,
            success: task.is_multiple_of(2),
            account: "cms".into(),
            login: "alice".into(),
            executable: "reco <&>".into(),
            queue: "prod".into(),
            partition: "batch".into(),
            job_type: job_type.into(),
        }
    }

    /// The columnar encoding of a store that took `rows`, sealed after
    /// the first `sealed` of them.
    fn hist_blob(rows: &[HistRecord], sealed: usize) -> Vec<u8> {
        let store = HistStore::new(HistConfig::default());
        for (i, row) in rows.iter().enumerate() {
            if i == sealed {
                store.apply(&HistOp::Seal);
            }
            store.apply(&HistOp::Append(row.clone()));
        }
        store.encode()
    }

    /// A hand-built state with every member populated survives tree
    /// encoding, restore into a fresh stack and re-streaming, and the
    /// services hold what it says.
    #[test]
    fn snapshot_roundtrip() {
        let mut tracked = TrackedJob::subscribe(sample_plan()).unwrap();
        tracked.tasks.get_mut(&TaskId::new(70)).unwrap().phase = TaskPhase::Submitted {
            site: SiteId::new(1),
            condor: CondorId::new(40),
        };
        let state = SnapshotState {
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
            hist: hist_blob(&[hist_row(9, "analysis")], 1),
        };
        let tree = encode_snapshot_tree(&state);
        let stack = restored(&tree);
        assert_eq!(assert_streams_like_the_tree(&stack), tree);
        let back = collect(&stack);
        assert_eq!(back.metrics, state.metrics);
        assert_eq!(back.metrics_published, 11);
        assert_eq!(back.balances, state.balances);
        assert_eq!(back.ledger, state.ledger);
        assert_eq!(back.xfer, state.xfer);
        assert_eq!(back.hist, state.hist);
        let j = &back.steering[0];
        assert_eq!(j.plan.revision, 4);
        assert_eq!(
            j.tasks[&TaskId::new(70)].phase,
            TaskPhase::Submitted {
                site: SiteId::new(1),
                condor: CondorId::new(40),
            }
        );
        assert!(!j.completion_notified);
    }

    /// A snapshot whose task records do not cover the plan must fail
    /// `restore` with a typed error — `TrackedJob::ready_tasks` indexes
    /// `tasks[t]` for every planned id on the next steering round.
    #[test]
    fn restore_rejects_task_records_that_do_not_cover_the_plan() {
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

    /// An empty payload (a generation-0 snapshot) is the empty state:
    /// every member empty — the grid's build-time metric samples
    /// dropped — and the history store the empty store.
    #[test]
    fn empty_snapshot_restores_the_empty_state() {
        let empty = SnapshotState {
            hist: hist_blob(&[], 0),
            ..SnapshotState::default()
        };
        let stack = restored(&[]);
        assert_eq!(
            assert_streams_like_the_tree(&stack),
            encode_snapshot_tree(&empty)
        );
        assert_streams_like_the_tree(&fresh());
    }

    #[test]
    fn record_envelope_roundtrip_and_faults() {
        let plan = sample_plan();
        let doc = frame::encode_envelope("plan", &plan_to_record(&plan));
        let m = frame::decode_envelope(doc.as_bytes()).unwrap();
        assert_eq!(m.kind, "plan");
        assert!(crate::steering::state::plan_from_record(&m.body).is_ok());
        // The envelope codec now lives in gae-repl (leader and
        // followers must agree on bytes); this pins the on-disk format
        // to what [`Persistence::log`] actually writes.
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

    /// The snapshot members: the format's original ten, less the
    /// job-event log and its eviction count.
    const MEMBERS: [&str; 8] = [
        "balances",
        "hist",
        "jobmon",
        "ledger",
        "metrics",
        "metrics_published",
        "steering",
        "xfer",
    ];

    /// Every record kind has exactly one owning machine, every member
    /// exactly one owner, and together they are the seven kinds and ten
    /// members the format has always had.
    #[test]
    fn every_kind_and_member_has_exactly_one_owner() {
        let stack = fresh();
        let machines = stack.machines();
        let mut kinds: Vec<&str> = machines
            .iter()
            .flat_map(|m| m.owns().0.iter().copied())
            .collect();
        kinds.sort_unstable();
        assert_eq!(
            kinds,
            ["charge", "hist", "jobmon", "notified", "plan", "task", "xfer"],
            "each kind once, owned"
        );
        let mut members: Vec<&str> = machines
            .iter()
            .flat_map(|m| m.owns().1.iter().copied())
            .collect();
        members.sort_unstable();
        assert_eq!(members, MEMBERS, "each member once, owned");
    }

    /// A record no machine owns is the typed error it always was.
    #[test]
    fn an_unknown_kind_is_a_typed_parse_error() {
        let err = fresh()
            .apply_mutation(&Mutation {
                kind: "mystery".into(),
                body: Value::from(1u64),
            })
            .unwrap_err();
        assert!(
            matches!(&err, GaeError::Parse(m) if m == "unknown wal record kind \"mystery\""),
            "{err}"
        );
    }

    /// `doc` with member `name` replaced by `with`.
    fn with_member(doc: &[u8], name: &str, with: Value) -> Vec<u8> {
        let mut doc = parse_value_document(std::str::from_utf8(doc).unwrap()).unwrap();
        let Value::Struct(members) = &mut doc else {
            panic!("snapshot is a struct")
        };
        assert!(members.insert(name.into(), with).is_some(), "{name}");
        write_value_document(&doc).into_bytes()
    }

    /// A snapshot written before the job-event log left MonALISA
    /// carries `events` and `evicted` members, which nothing owns now:
    /// it still decodes and installs, and every owned member — the
    /// metric rings among them — restores as written. This is the path
    /// a server restarted on an older store takes.
    #[test]
    fn a_snapshot_with_the_retired_event_members_restores() {
        let stack = fresh();
        stack.submit_job(sample_plan().job).unwrap();
        stack.run_until(SimTime::from_secs(200));
        let current = stack.snapshot();
        let mut doc = parse_value_document(std::str::from_utf8(&current).unwrap()).unwrap();
        let Value::Struct(members) = &mut doc else {
            panic!("snapshot is a struct")
        };
        let event = Value::struct_of([
            ("at_us", Value::from(9_000_000u64)),
            ("job", Value::from(7u64)),
            ("task", Value::from(70u64)),
            ("site", Value::from(1u64)),
            ("status", Value::from("completed")),
        ]);
        assert!(members
            .insert("events".into(), Value::Array(vec![event]))
            .is_none());
        assert!(members
            .insert("evicted".into(), Value::from(3u64))
            .is_none());
        let older = write_value_document(&doc).into_bytes();

        let back = restored(&older);
        let (metrics, published) = stack.grid.monitor().metrics_snapshot();
        assert!(!metrics.is_empty(), "the rings are populated");
        assert_eq!(
            back.grid.monitor().metrics_snapshot(),
            (metrics, published),
            "metric rings restore unchanged"
        );
        assert!(back.snapshot() == current, "the retired members drop out");
    }

    /// A snapshot with a right checksum and one member that does not
    /// decode (or, for the history blob, install) is refused with a
    /// typed error naming the member. A live stack asked to restore it
    /// keeps exactly what it held — nothing half-installed, though the
    /// snapshot's other members all differ from the live state — and
    /// recovery from a store anchored at it returns the error and no
    /// stack.
    #[test]
    fn a_corrupt_member_names_itself_and_installs_nothing() {
        let stack = fresh();
        stack.submit_job(sample_plan().job).unwrap();
        stack.run_until(SimTime::from_secs(20));
        let earlier = stack.snapshot();
        stack.run_until(SimTime::from_secs(200));
        let live = stack.snapshot();
        assert_ne!(earlier, live);
        for (member, corrupt) in [
            ("metrics", Value::from("not an array")),
            ("ledger", Value::Array(vec![Value::from(1u64)])),
            ("xfer", Value::empty_struct()),
            ("hist", Value::Base64(b"not a history store".to_vec())),
        ] {
            let bad = with_member(&earlier, member, corrupt);
            let named = |err: &GaeError| {
                matches!(err, GaeError::Parse(m)
                    if m.starts_with(&format!("snapshot member {member:?}: ")))
            };
            let err = stack.restore(&bad).unwrap_err();
            assert!(named(&err), "{member}: {err}");
            assert!(
                stack.snapshot() == live,
                "{member}: restore changed the stack"
            );

            let dir = gae_durable::fault::unique_temp_dir("persist-corrupt-member");
            let mut store = DurableStore::create(&dir, false).unwrap();
            store.rotate(&bad).unwrap();
            drop(store);
            let recovered = ServiceStack::recover_from_disk(
                fresh().grid.clone(),
                SteeringPolicy::default(),
                SimDuration::from_secs(5),
                &PersistenceConfig::new(&dir).fsync(false),
            );
            match recovered {
                Err(err) => assert!(named(&err), "{member}: {err}"),
                Ok(_) => panic!("{member}: recovered from a corrupt snapshot"),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Streams base64 around the piece size and its 3-byte groups:
    /// the pieces concatenate to the encoding of the whole.
    #[test]
    fn base64_members_stream_like_the_tree() {
        for len in 2 * BASE64_CHUNK - 2..2 * BASE64_CHUNK + 3 {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut out = Vec::new();
            MemberWriter {
                out: &mut out,
                chunk: String::new(),
            }
            .base64("hist", &bytes)
            .unwrap();
            let mut tree = String::new();
            write_value(&Value::Base64(bytes), &mut tree);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                format!("<member><name>hist</name>{tree}</member>"),
                "{len} bytes"
            );
        }
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
        /// Up to two distinct items, sorted.
        fn set<S: Strategy>(items: S) -> impl Strategy<Value = Vec<S::Value>>
        where
            S::Value: Ord,
        {
            prop::collection::btree_map(items, Just(()), 0..3).prop_map(|m| m.into_keys().collect())
        }
        let site = || (1u64..9).prop_map(SiteId::new);
        (
            prop::collection::btree_map(arb_text(), (0u64..1 << 40, set(site())), 0..4),
            set((arb_text(), site())),
            prop::collection::vec(0u64..1000, 5..6),
        )
            .prop_map(|(files, pending, c)| XferExport {
                files: files
                    .into_iter()
                    .map(|(lfn, (size, sites))| (lfn, size, sites))
                    .collect(),
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

    /// A random snapshot state *a live stack can export*: restoring
    /// normalises its input, so the generator does it first. Metric
    /// series are key-unique, `(site, entity, param)`-sorted and hold
    /// at least one sample (the store exports no empty ring); job
    /// reports are task-unique and task-sorted, tracked jobs job-unique
    /// and job-sorted, balances user-unique and user-sorted (each store
    /// is keyed, and exports in key order); transfer files are
    /// lfn-unique and lfn-sorted with sorted, distinct replicas, and
    /// pending requests sorted and distinct (the scheduler holds sets);
    /// the history member is a real columnar encoding (it is decoded,
    /// not carried). Lengths stay under the event-log and ring
    /// capacities, which would truncate.
    fn arb_state() -> impl Strategy<Value = SnapshotState> {
        let sample = (arb_time(), arb_amount()).prop_map(|(at, value)| Sample { at, value });
        let metrics = prop::collection::btree_map(
            (0u64..9, arb_text(), arb_text()),
            prop::collection::vec(sample, 1..5),
            0..4,
        )
        .prop_map(|series| {
            series
                .into_iter()
                .map(|((site, entity, param), samples)| {
                    (MetricKey::new(SiteId::new(site), entity, param), samples)
                })
                .collect::<Vec<_>>()
        });
        fn by_key<T>(mut items: Vec<T>, key: impl Fn(&T) -> u64) -> Vec<T> {
            items.sort_by_key(&key);
            items.dedup_by_key(|i| key(i));
            items
        }
        let jobmon = prop::collection::vec(arb_info(), 0..4)
            .prop_map(|infos| by_key(infos, |i| i.task.raw()));
        let steering = prop::collection::vec(arb_tracked(), 0..3)
            .prop_map(|jobs| by_key(jobs, |j| j.plan.job_id().raw()));
        let balances =
            prop::collection::btree_map((0u64..9).prop_map(UserId::new), arb_amount(), 0..4)
                .prop_map(|b| b.into_iter().collect::<Vec<_>>());
        let hist = (
            prop::collection::vec((0u64..1000, arb_text()), 0..6),
            0usize..6,
        )
            .prop_map(|(rows, sealed)| {
                let rows: Vec<HistRecord> = rows
                    .iter()
                    .map(|(task, kind)| hist_row(*task, kind))
                    .collect();
                hist_blob(&rows, sealed)
            });
        (
            (metrics, 0u64..10_000),
            (jobmon, steering),
            (balances, prop::collection::vec(arb_charge(), 0..4)),
            arb_xfer(),
            hist,
        )
            .prop_map(
                |(
                    (metrics, metrics_published),
                    (jobmon, steering),
                    (balances, ledger),
                    xfer,
                    hist,
                )| SnapshotState {
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

        /// A tree-encoded random state restored into a fresh stack
        /// re-streams to the same bytes — decode, restore, export and
        /// the streaming encoder held to the tree encoder at once, over
        /// empty members, escaped strings and awkward floats.
        #[test]
        fn restored_random_states_restream_like_the_tree(state in arb_state()) {
            let tree = encode_snapshot_tree(&state);
            let stack = restored(&tree);
            prop_assert!(stack.snapshot() == tree);
            prop_assert_eq!(stack.query_state(), format!("{:08x}", crc32(&tree)));
        }
    }

    /// The same differential over live stacks, every section
    /// populated by the services themselves: a persisted two-site grid
    /// with staged inputs, jobs at every stage of their life, charges,
    /// history rows and metric rings — checked at several instants,
    /// across a rotation, and after crash recovery (whose resume
    /// snapshot goes through the file sink).
    #[test]
    fn live_stacks_stream_like_the_tree() {
        use gae_types::FileRef;

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
        assert_streams_like_the_tree(&stack);
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
            assert_streams_like_the_tree(&stack);
        }
        let generation = stack.persistence().unwrap().generation();
        assert!(generation >= 1, "the cadence rotated at least once");
        let crashed = collect(&stack);
        drop(stack);

        // The rotation wrote its snapshot through the file sink: the
        // payload on disk restores whole and re-streams to itself.
        let on_disk = DurableStore::recover(&dir).unwrap();
        assert_eq!(on_disk.generation, generation);
        let at_rotation = restored(&on_disk.snapshot);
        assert_eq!(assert_streams_like_the_tree(&at_rotation), on_disk.snapshot);

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
        let resumed = DurableStore::recover(&dir).unwrap();
        assert_eq!(resumed.generation, generation + 1);
        let resumed_stack = restored(&resumed.snapshot);
        assert_eq!(
            assert_streams_like_the_tree(&resumed_stack),
            resumed.snapshot
        );
        for (section, len) in [
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
        let resumed = collect(&resumed_stack);
        assert_eq!(resumed.jobmon, crashed.jobmon);
        assert_eq!(resumed.ledger, crashed.ledger);
        assert_eq!(resumed.hist, crashed.hist);
        assert_streams_like_the_tree(&recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn numbered(n: u64) -> Value {
        Value::struct_of([("n", Value::from(n))])
    }

    /// A record of kind `n` carrying its number.
    struct Numbered(u64);

    impl Journal for Numbered {
        const KINDS: &'static [&'static str] = &["n"];

        fn encode(&self) -> Value {
            numbered(self.0)
        }

        fn decode(_: &str, body: &Value) -> GaeResult<Self> {
            Ok(Numbered(body.member("n")?.as_u64()?))
        }
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
                    p.log(&Numbered(n));
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
        p.log(&Numbered(1));
        assert_eq!(p.commit().unwrap(), 1);
        let (done, appended) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let in_commit = p.store.lock();
            s.spawn(|| {
                p.log(&Numbered(2));
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
                    p.log(&Numbered(n));
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

    /// Defect 1(viii): a record logged while a rotation encodes its
    /// snapshot is committed by the rotation, and the followers must
    /// hear of that commit before the rotation. When they did not, they
    /// rotated at the old commit point and streamed the record under
    /// the next index: a debug build panicked, a release follower ran
    /// one commit behind.
    #[test]
    fn a_record_logged_during_a_rotation_keeps_followers_in_lockstep() {
        use gae_repl::{ReplConfig, ReplicatedLog};
        let dir = gae_durable::fault::unique_temp_dir("persist-rotate-repl");
        let leader = dir.join("node-0");
        let p = Persistence::create(&PersistenceConfig::new(&leader).fsync(false)).unwrap();
        let config = ReplConfig {
            followers: 2,
            fsync: false,
        };
        let cluster = ReplicatedLog::attached(&dir, config).unwrap();
        p.set_replication_sink(cluster.clone());
        p.log(&Numbered(1));
        p.commit().unwrap();
        p.rotate(SimTime::ZERO, |w| {
            p.log(&Numbered(2));
            w.write_all(b"state")
        })
        .unwrap();
        p.log(&Numbered(3));
        let index = p.commit().unwrap();
        assert_eq!(index, 3, "the rotation committed record 2 on its own");

        let files = |dir: &std::path::Path| {
            let files = gae_durable::fault::store_files(dir).unwrap();
            let name = |f: &PathBuf| f.file_name().unwrap().to_owned();
            let bytes = |f: &PathBuf| std::fs::read(f).unwrap();
            files
                .iter()
                .map(|f| (name(f), bytes(f)))
                .collect::<Vec<_>>()
        };
        for node in cluster.follower_ids() {
            assert_eq!(cluster.follower_commit(node).unwrap(), index, "{node}");
            assert!(
                files(&dir.join(node.to_string())) == files(&leader),
                "{node}'s store files differ from the leader's"
            );
        }
        assert_eq!(cluster.quorum_commit(), index);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record that cannot be replayed names itself: sequence number
    /// and kind, not a bare parse message.
    #[test]
    fn a_bad_wal_record_is_reported_with_its_sequence_and_kind() {
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
