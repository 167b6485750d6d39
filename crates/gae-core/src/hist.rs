//! The columnar job-history subsystem's service-side wiring: the
//! [`HistFunnel`] that journals every store mutation through the WAL,
//! and the [`HistoryRpc`] facade exposing `history.query` /
//! `history.export` / `history.stats`.
//!
//! The funnel is the *only* writer of the [`gae_hist::HistStore`].
//! Every op it applies is first appended as a `"hist"` WAL record
//! (when persistence is attached), so the store's contents — segment
//! boundaries included — are a pure function of the journal. Crash
//! recovery and replication followers replay the same ops through the
//! funnel's [`Machine`] impl and rebuild byte-identical segments; see
//! DESIGN.md §14.

use crate::persist::{self, Install, Journal, Machine, MemberWriter, Owns, Persistence};
use gae_hist::{CmpOp, ColumnPredicate, HistConfig, HistOp, HistRecord, HistStore, PredValue};
use gae_obs::ObsHub;
use gae_rpc::{Method, Methods, Params};
use gae_types::{GaeError, GaeResult, SimDuration, SimTime};
use gae_wire::Value;
use parking_lot::{Mutex, RwLock};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default cadence between maintenance sweeps (early tail seals and
/// compaction), on the grid's virtual clock.
const MAINTAIN_EVERY: SimDuration = SimDuration::from_secs(120);

/// Default row cap for `history.query` replies without an explicit
/// `limit` (scans still report the full match cardinality).
const DEFAULT_QUERY_LIMIT: usize = 1000;

/// Journal-fronted writer of the columnar history store.
pub struct HistFunnel {
    store: Arc<HistStore>,
    persist: RwLock<Option<Arc<Persistence>>>,
    maintain_every: SimDuration,
    last_maintain: Mutex<SimTime>,
}

impl HistFunnel {
    /// A funnel over a fresh, empty store.
    pub fn new(config: HistConfig) -> Arc<Self> {
        Arc::new(HistFunnel {
            store: Arc::new(HistStore::new(config)),
            persist: RwLock::new(None),
            maintain_every: MAINTAIN_EVERY,
            last_maintain: Mutex::new(SimTime::ZERO),
        })
    }

    /// The store (read-only access: scans, stats, digests).
    pub fn store(&self) -> &Arc<HistStore> {
        &self.store
    }

    /// Journals `op` (when persistence is attached) and applies it.
    fn log_apply(&self, op: HistOp) {
        if let Some(p) = self.persist.read().as_ref() {
            p.log(&op);
        }
        self.store.apply(&op);
    }

    /// Appends one terminal task outcome (the jobmon funnel's feed).
    pub fn ingest(&self, record: HistRecord) {
        self.log_apply(HistOp::Append(record));
    }

    /// The grid-clock maintenance sweep, called from the service
    /// stack's poll: every `maintain_every` of virtual time, seal a
    /// non-empty tail early and compact undersized sealed segments.
    /// Both decisions become explicit journaled ops *before* they are
    /// applied, so replay reproduces the exact segment layout without
    /// re-deriving any clock state.
    pub(crate) fn maintain(&self, now: SimTime) {
        {
            let mut last = self.last_maintain.lock();
            if now.saturating_since(*last) < self.maintain_every {
                return;
            }
            *last = now;
        }
        if self.store.tail_rows() > 0 {
            self.log_apply(HistOp::Seal);
        }
        if self.store.compactable() {
            self.log_apply(HistOp::Compact);
        }
    }
}

/// One history-store op as a WAL record. `append` carries the full
/// row; `seal` and `compact` are bare markers — the store derives the
/// resulting layout deterministically, so the marker alone replays to
/// identical segments.
impl Journal for HistOp {
    const KINDS: &'static [&'static str] = &["hist"];

    fn encode(&self) -> Value {
        match self {
            HistOp::Append(r) => persist::tagged("append", record_to_value(r)),
            HistOp::Seal => persist::tagged("seal", Value::empty_struct()),
            HistOp::Compact => persist::tagged("compact", Value::empty_struct()),
        }
    }

    fn decode(_: &str, v: &Value) -> GaeResult<Self> {
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
}

/// The store's snapshot member is its own binary encoding: it has a
/// canonical columnar codec, and re-encoding it as XML would lose the
/// layout.
impl Machine for HistFunnel {
    fn attach(&self, persistence: &Arc<Persistence>) {
        *self.persist.write() = Some(persistence.clone());
    }

    fn owns(&self) -> Owns {
        (HistOp::KINDS, &["hist"])
    }

    fn apply(&self, kind: &str, body: &Value) -> GaeResult<()> {
        self.store.apply(&HistOp::decode(kind, body)?);
        Ok(())
    }

    fn write_member(&self, name: &str, doc: &mut MemberWriter<'_>) -> io::Result<()> {
        doc.base64(name, &self.store.encode())
    }

    /// The blob is decoded by the store's own `restore`, which leaves
    /// the store as it was when the blob is corrupt.
    fn decode<'a>(&'a self, doc: &'a Value) -> GaeResult<Install<'a>> {
        // Snapshots predating the columnar history carry none: start
        // it empty.
        let bytes = persist::optional_section(doc, "hist", Value::as_bytes)?;
        Ok(Box::new(move || {
            self.store
                .restore(bytes)
                .map_err(|e| persist::in_member("hist", e))
        }))
    }
}

/// XML-RPC facade over the history store, registered as the `history`
/// service. Queries are read-only; mutation stays with the funnel.
pub struct HistoryRpc {
    funnel: Arc<HistFunnel>,
    hub: Arc<ObsHub>,
    /// Sequential query counter: the deterministic `hist.*` trace ids.
    next_query: AtomicU64,
}

impl HistoryRpc {
    /// Wraps the funnel for RPC registration.
    pub fn new(funnel: Arc<HistFunnel>, hub: Arc<ObsHub>) -> Self {
        HistoryRpc {
            funnel,
            hub,
            next_query: AtomicU64::new(1),
        }
    }

    /// Runs one call body, timed into the hub's `hist:*` histograms.
    /// Latencies are wall-clock: the point of those histograms is real
    /// scan cost, which the virtual clock cannot see. The
    /// determinism-equivalence suites never call this facade, so the
    /// nondeterministic numbers never enter compared state.
    fn timed(&self, method: &str, body: impl FnOnce() -> GaeResult<Value>) -> GaeResult<Value> {
        let started = std::time::Instant::now();
        let out = body();
        self.hub.record_hist(
            method,
            SimDuration::from_micros(started.elapsed().as_micros() as u64),
        );
        out
    }

    fn query(&self, p: Params<'_>) -> GaeResult<Value> {
        let spec = p.get(0, "query({predicates, limit?})")?;
        let preds = parse_predicates(spec.member("predicates")?)?;
        let limit = match spec.member("limit") {
            Ok(v) => usize::try_from(v.as_u64()?)
                .map_err(|_| GaeError::Parse("limit out of range".into()))?,
            Err(_) => DEFAULT_QUERY_LIMIT,
        };
        let qid = self.next_query.fetch_add(1, Ordering::Relaxed);
        let now = self.hub.now();
        let (rows, stats) = self.funnel.store().query(&preds, limit)?;
        // Span the scan's shape under a deterministic hist.* trace:
        // how many segments the zone maps pruned, how many rows the
        // scan actually visited, how many matched.
        let ctx = self.hub.hist_trace(qid, "hist.query", now);
        self.hub
            .span_at(ctx, &format!("hist.prune#{}", stats.segments_pruned), now);
        self.hub
            .span_at(ctx, &format!("hist.scan#{}", stats.rows_scanned), now);
        self.hub
            .span_at(ctx, &format!("hist.match#{}", stats.rows_matched), now);
        Ok(Value::struct_of([
            (
                "rows",
                Value::Array(rows.iter().map(record_to_value).collect()),
            ),
            ("matched", Value::from(stats.rows_matched)),
            ("segments", Value::from(stats.segments)),
            ("segments_pruned", Value::from(stats.segments_pruned)),
            ("rows_scanned", Value::from(stats.rows_scanned)),
        ]))
    }

    fn export(&self) -> Value {
        let store = self.funnel.store();
        Value::struct_of([
            ("bytes", Value::Base64(store.encode())),
            ("digest", Value::from(store.digest())),
            (
                "segments",
                Value::Array(
                    store
                        .segment_digests()
                        .into_iter()
                        .map(Value::from)
                        .collect(),
                ),
            ),
            ("tail_digest", Value::from(store.tail_digest())),
        ])
    }

    fn stats(&self) -> Value {
        let store = self.funnel.store();
        let s = store.stats();
        Value::struct_of([
            ("rows", Value::from(s.rows)),
            ("sealed_segments", Value::from(s.sealed_segments)),
            ("tail_rows", Value::from(s.tail_rows)),
            ("appends", Value::from(s.appends)),
            ("seals", Value::from(s.seals)),
            ("compactions", Value::from(s.compactions)),
            ("scans", Value::from(s.scans)),
            ("segments_pruned", Value::from(s.segments_pruned)),
            ("rows_scanned", Value::from(s.rows_scanned)),
            ("dict_words", Value::from(s.dict_words)),
            ("views", Value::from(s.views)),
            ("view_keys", Value::from(s.view_keys)),
            ("view_builds", Value::from(s.view_builds)),
            ("view_lookups", Value::from(s.view_lookups)),
            ("digest", Value::from(store.digest())),
        ])
    }
}

impl Methods for HistoryRpc {
    const NAME: &'static str = "history";
    const METHODS: &'static [Method<Self>] = &[
        Method {
            name: "query",
            help: "predicate-pushdown scan over the columnar job history",
            inline: false,
            handler: |s, _, p| s.timed("query", || s.query(p)),
        },
        Method {
            name: "export",
            help: "canonical binary encoding of the store, with segment digests",
            inline: false,
            handler: |s, _, p| {
                p.exact::<0>("export()")?;
                s.timed("export", || Ok(s.export()))
            },
        },
        Method {
            name: "stats",
            help: "row/segment/scan/runtime-view counters and the store digest",
            inline: false,
            handler: |s, _, p| {
                p.exact::<0>("stats()")?;
                s.timed("stats", || Ok(s.stats()))
            },
        },
    ];
}

/// Parses the wire shape of a predicate list: an array of
/// `{column, op, value}` structs, string values for dictionary
/// columns and integers for numeric ones.
fn parse_predicates(v: &Value) -> GaeResult<Vec<ColumnPredicate>> {
    v.as_array()?
        .iter()
        .map(|p| {
            let column = p.member("column")?.as_str()?.to_string();
            let op = CmpOp::parse(p.member("op")?.as_str()?)?;
            let raw = p.member("value")?;
            let value = match raw.as_str() {
                Ok(s) => PredValue::Str(s.to_string()),
                Err(_) => PredValue::Num(raw.as_u64()?),
            };
            Ok(ColumnPredicate { column, op, value })
        })
        .collect()
}

fn record_to_value(r: &HistRecord) -> Value {
    Value::struct_of([
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
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(task: u64, site: u64) -> HistRecord {
        HistRecord {
            task,
            site,
            nodes: 1,
            submit_us: 0,
            start_us: 0,
            finish_us: 0,
            runtime_us: 1_000_000,
            success: true,
            account: "a".into(),
            login: "u".into(),
            executable: "x".into(),
            queue: "q".into(),
            partition: "p".into(),
            job_type: "batch".into(),
        }
    }

    #[test]
    fn hist_record_roundtrip_all_ops() {
        for op in [HistOp::Append(rec(9, 2)), HistOp::Seal, HistOp::Compact] {
            assert_eq!(op.kind(), "hist");
            let decoded = HistOp::decode("hist", &op.encode()).unwrap();
            assert_eq!(decoded, op);
        }
        let bogus = Value::struct_of([("op", Value::from("truncate"))]);
        assert!(HistOp::decode("hist", &bogus).is_err());
    }

    #[test]
    fn maintain_is_cadence_gated_and_journal_free_ops_apply() {
        let funnel = HistFunnel::new(HistConfig { segment_rows: 4 });
        funnel.ingest(rec(1, 1));
        funnel.ingest(rec(2, 1));
        // Before the cadence elapses nothing seals.
        funnel.maintain(SimTime::from_secs(1));
        assert_eq!(funnel.store().stats().sealed_segments, 0);
        funnel.maintain(SimTime::from_secs(300));
        assert_eq!(funnel.store().stats().sealed_segments, 1);
        assert_eq!(funnel.store().tail_rows(), 0);
        // Within the same cadence window a second sweep is a no-op.
        funnel.ingest(rec(3, 1));
        funnel.maintain(SimTime::from_secs(310));
        assert_eq!(funnel.store().stats().sealed_segments, 1);
    }

    #[test]
    fn predicate_wire_parse_rejects_malformed_shapes() {
        let ok = Value::Array(vec![Value::struct_of([
            ("column", Value::from("site")),
            ("op", Value::from("eq")),
            ("value", Value::from(3u64)),
        ])]);
        assert_eq!(parse_predicates(&ok).unwrap().len(), 1);
        let bad_op = Value::Array(vec![Value::struct_of([
            ("column", Value::from("site")),
            ("op", Value::from("gt")),
            ("value", Value::from(3u64)),
        ])]);
        assert!(matches!(parse_predicates(&bad_op), Err(GaeError::Parse(_))));
        let missing = Value::Array(vec![Value::struct_of([("column", Value::from("site"))])]);
        assert!(parse_predicates(&missing).is_err());
    }
}
