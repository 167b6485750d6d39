//! Replica catalog: the data-grid half of the GAE's world.
//!
//! The paper's setting is a data grid — "large amounts of data ...
//! have to be stored and replicated to several geographically
//! distributed sites" and the middleware must identify "where the
//! requested data is located" (§2) and manage "the locations from
//! where the jobs access their required data" (§9). The catalog maps
//! logical file names to replica locations, resolves task input lists
//! before scheduling, and requests managed replication.
//!
//! Since the data plane moved into `gae-xfer`, the catalog is a thin
//! facade over the grid's transfer scheduler: every byte still moves
//! through one place, so catalog-initiated replications contend for
//! links with task input staging, are retried against link faults,
//! and respect site storage budgets. Replicas become visible when the
//! grid clock passes their *contended* arrival time — the scheduler
//! lands them during [`Grid::advance_to`], no catalog poll needed.

use crate::grid::Grid;
use crate::persist::{self, array_of, Install, Journal, Machine, MemberWriter, Owns};
use gae_rpc::{Method, Methods};
use gae_types::{FileRef, GaeError, GaeResult, SimTime, SiteId, TaskSpec};
use gae_wire::Value;
use gae_xfer::{JournalOp, XferCounters, XferExport};
use parking_lot::Mutex;
use std::io;
use std::sync::Arc;

pub use gae_xfer::TransferRecord;

/// The replica catalog service.
pub struct ReplicaCatalog {
    grid: Arc<Grid>,
    /// Landings this catalog has already reported through
    /// [`ReplicaCatalog::poll`].
    seen_landings: Mutex<u64>,
}

impl ReplicaCatalog {
    /// A catalog facade over the grid's transfer scheduler.
    pub fn new(grid: Arc<Grid>) -> Arc<Self> {
        Arc::new(ReplicaCatalog {
            grid,
            seen_landings: Mutex::new(0),
        })
    }

    /// Registers (or replaces) a logical file and its replicas.
    pub fn register(&self, file: FileRef) {
        self.grid.with_xfer(|x| x.register(&file));
    }

    /// Looks up a logical file.
    pub fn lookup(&self, lfn: &str) -> Option<FileRef> {
        self.grid.with_xfer(|x| x.lookup(lfn))
    }

    /// Number of catalogued files.
    pub fn len(&self) -> usize {
        self.grid.with_xfer(|x| x.len())
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops one replica; the file stays catalogued even with no
    /// replicas left (it can be re-produced). In-flight transfers
    /// reading the deleted replica are re-pointed at another replica
    /// (restarting from zero bytes) or failed with a typed
    /// [`GaeError::Transfer`] — they never silently materialize data
    /// from the deleted source.
    pub fn delete_replica(&self, lfn: &str, site: SiteId) -> GaeResult<()> {
        self.grid.with_xfer(|x| x.delete_replica(lfn, site))
    }

    /// Starts a managed replication of `lfn` to `site` from the best
    /// source replica. Returns the projected arrival time under
    /// current link load; the replica becomes visible once the grid
    /// clock passes the (possibly later, if contention grows) actual
    /// arrival. Identical outstanding requests coalesce.
    pub fn replicate(&self, lfn: &str, to: SiteId) -> GaeResult<SimTime> {
        self.grid.with_xfer(|x| x.replicate(lfn, to))
    }

    /// Reports how many replicas landed since the last poll. Landings
    /// happen inside [`Grid::advance_to`]; this is bookkeeping for
    /// callers that want a delta, not a visibility barrier.
    pub fn poll(&self) -> usize {
        let total = self.grid.with_xfer(|x| x.landed_total());
        let mut seen = self.seen_landings.lock();
        let landed = total.saturating_sub(*seen);
        *seen = total;
        landed as usize
    }

    /// Transfers still in flight, with projected arrivals.
    pub fn in_flight(&self) -> Vec<TransferRecord> {
        self.grid.with_xfer(|x| x.in_flight())
    }

    /// Completed transfers, oldest first — a bounded ring of the last
    /// `history_capacity` landings. [`ReplicaCatalog::history_dropped`]
    /// counts what fell off the ring.
    pub fn transfer_history(&self) -> Vec<TransferRecord> {
        self.grid.with_xfer(|x| x.history())
    }

    /// Monotonic count of history records dropped off the bounded
    /// ring (published to MonALISA as `xfer.history_dropped`).
    pub fn history_dropped(&self) -> u64 {
        self.grid.with_xfer(|x| x.counters().history_dropped)
    }

    /// Fills the replica lists of a task's inputs from the catalog
    /// (by logical name) so the scheduler sees current data locality.
    /// Unknown files pass through unchanged.
    pub fn resolve_inputs(&self, mut spec: TaskSpec) -> TaskSpec {
        self.grid
            .with_xfer(|x| x.resolve_inputs(&mut spec.input_files));
        spec
    }
}

/// XML-RPC facade, registered as the `replica` service.
pub struct ReplicaRpc {
    catalog: Arc<ReplicaCatalog>,
}

impl ReplicaRpc {
    /// Wraps the catalog for RPC registration.
    pub fn new(catalog: Arc<ReplicaCatalog>) -> Self {
        ReplicaRpc { catalog }
    }
}

impl Methods for ReplicaRpc {
    const NAME: &'static str = "replica";
    const METHODS: &'static [Method<Self>] = &[
        Method {
            name: "register",
            help: "catalogue a logical file with replicas",
            inline: false,
            handler: |s, _, p| {
                let [lfn, size, sites] = p.exact("register(lfn, size, sites)")?;
                let mut file = FileRef::new(lfn.as_str()?, size.as_u64()?);
                for site in sites.as_array()? {
                    file.replicas.push(SiteId::new(site.as_u64()?));
                }
                s.catalog.register(file);
                Ok(Value::Bool(true))
            },
        },
        Method {
            name: "lookup",
            help: "replicas and size of a logical file",
            inline: false,
            handler: |s, _, p| {
                Ok(match s.catalog.lookup(p.str(0, "lookup(lfn)")?) {
                    Some(f) => file_to_value(&f.logical_name, f.size_bytes, &f.replicas),
                    None => Value::Nil,
                })
            },
        },
        Method {
            name: "replicate",
            help: "start a managed replication; returns the projected arrival time (µs)",
            inline: false,
            handler: |s, _, p| {
                let [lfn, to] = p.exact("replicate(lfn, to_site)")?;
                let arrives = s
                    .catalog
                    .replicate(lfn.as_str()?, SiteId::new(to.as_u64()?))?;
                Ok(Value::from(arrives.as_micros()))
            },
        },
        Method {
            name: "delete_replica",
            help: "drop one replica of a file",
            inline: false,
            handler: |s, _, p| {
                let [lfn, site] = p.exact("delete_replica(lfn, site)")?;
                s.catalog
                    .delete_replica(lfn.as_str()?, SiteId::new(site.as_u64()?))?;
                Ok(Value::Bool(true))
            },
        },
    ];
}

/// The transfer journal: one record per op, its own tag under `op`.
impl Journal for JournalOp {
    const KINDS: &'static [&'static str] = &["xfer"];

    fn encode(&self) -> Value {
        let body = match self {
            JournalOp::Register {
                lfn,
                size,
                replicas,
            } => file_to_value(lfn, *size, replicas),
            JournalOp::Requested { lfn, to }
            | JournalOp::Landed { lfn, to }
            | JournalOp::Failed { lfn, to }
            | JournalOp::Deleted { lfn, site: to }
            | JournalOp::Evicted { lfn, site: to } => Value::struct_of([
                ("lfn", Value::from(lfn.as_str())),
                ("site", Value::from(to.raw())),
            ]),
        };
        // `JournalOp::kind` is the op's own tag (inherent), not the
        // record kind.
        persist::tagged(JournalOp::kind(self), body)
    }

    fn decode(_: &str, v: &Value) -> GaeResult<Self> {
        let op = v.member("op")?.as_str()?;
        if op == "register" {
            let (lfn, size, replicas) = file_from_value(v)?;
            return Ok(JournalOp::Register {
                lfn,
                size,
                replicas,
            });
        }
        let lfn = v.member("lfn")?.as_str()?.to_string();
        let site = SiteId::new(v.member("site")?.as_u64()?);
        Ok(match op {
            "requested" => JournalOp::Requested { lfn, to: site },
            "landed" => JournalOp::Landed { lfn, to: site },
            "failed" => JournalOp::Failed { lfn, to: site },
            "deleted" => JournalOp::Deleted { lfn, site },
            "evicted" => JournalOp::Evicted { lfn, site },
            other => return Err(GaeError::Parse(format!("unknown xfer op {other:?}"))),
        })
    }
}

/// The grid is the transfer scheduler's machine: it owns the
/// scheduler's lock, and every call through it drains the
/// scheduler's updates into the execution services. The scheduler
/// journals through a callback over the stack's journal slot,
/// installed once by `ServiceStack::assemble`: gae-xfer knows nothing
/// of the WAL.
impl Machine for Grid {
    fn owns(&self) -> Owns {
        (JournalOp::KINDS, &["xfer"])
    }

    fn apply(&self, kind: &str, body: &Value) -> GaeResult<()> {
        let op = JournalOp::decode(kind, body)?;
        self.with_xfer(|x| x.apply_journal(&op));
        Ok(())
    }

    fn write_member(&self, name: &str, doc: &mut MemberWriter<'_>) -> io::Result<()> {
        let xfer = self.with_xfer(|x| x.export());
        doc.open(name, "<value><struct>")?;
        doc.member("counters", &counters_to_value(&xfer.counters))?;
        doc.array(
            "files",
            xfer.files
                .iter()
                .map(|(l, size, r)| file_to_value(l, *size, r)),
        )?;
        doc.array("pending", xfer.pending.iter().map(pending_to_value))?;
        doc.raw("</struct></value></member>")
    }

    fn decode<'a>(&'a self, doc: &'a Value) -> GaeResult<Install<'a>> {
        // Snapshots from before the data plane existed carry no
        // transfer state; start it empty.
        let export = persist::optional_section(doc, "xfer", export_from_value)?;
        Ok(Box::new(move || {
            self.with_xfer(|x| x.restore(&export));
            Ok(())
        }))
    }
}

fn replicas_to_value(replicas: &[SiteId]) -> Value {
    Value::Array(replicas.iter().map(|s| Value::from(s.raw())).collect())
}

fn replicas_from_value(v: &Value) -> GaeResult<Vec<SiteId>> {
    array_of(v, |s| Ok(SiteId::new(s.as_u64()?)))
}

pub(crate) fn file_to_value(lfn: &str, size: u64, replicas: &[SiteId]) -> Value {
    Value::struct_of([
        ("lfn", Value::from(lfn)),
        ("size", Value::from(size)),
        ("replicas", replicas_to_value(replicas)),
    ])
}

pub(crate) fn file_from_value(v: &Value) -> GaeResult<(String, u64, Vec<SiteId>)> {
    Ok((
        v.member("lfn")?.as_str()?.to_string(),
        v.member("size")?.as_u64()?,
        replicas_from_value(v.member("replicas")?)?,
    ))
}

pub(crate) fn counters_to_value(c: &XferCounters) -> Value {
    Value::struct_of([
        ("completed", Value::from(c.completed)),
        ("failed", Value::from(c.failed)),
        ("retried", Value::from(c.retried)),
        ("evicted", Value::from(c.evicted)),
        ("history_dropped", Value::from(c.history_dropped)),
    ])
}

pub(crate) fn pending_to_value((lfn, to): &(String, SiteId)) -> Value {
    Value::struct_of([
        ("lfn", Value::from(lfn.as_str())),
        ("to", Value::from(to.raw())),
    ])
}

fn export_from_value(v: &Value) -> GaeResult<XferExport> {
    let counters = v.member("counters")?;
    Ok(XferExport {
        files: array_of(v.member("files")?, file_from_value)?,
        pending: array_of(v.member("pending")?, |p| {
            Ok((
                p.member("lfn")?.as_str()?.to_string(),
                SiteId::new(p.member("to")?.as_u64()?),
            ))
        })?,
        counters: XferCounters {
            completed: counters.member("completed")?.as_u64()?,
            failed: counters.member("failed")?.as_u64()?,
            retried: counters.member("retried")?.as_u64()?,
            evicted: counters.member("evicted")?.as_u64()?,
            history_dropped: counters.member("history_dropped")?.as_u64()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridBuilder;
    use gae_rpc::{CallContext, Service};
    use gae_sim::{Link, NetworkModel};
    use gae_types::{SimDuration, SiteDescription};

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
            assert_eq!(Journal::kind(&op), "xfer");
            let decoded = JournalOp::decode("xfer", &op.encode()).unwrap();
            assert_eq!(decoded, op);
        }
        // Unknown ops decode to typed parse errors, never panics.
        let bogus = Value::struct_of([
            ("op", Value::from("compress")),
            ("lfn", Value::from("a")),
            ("site", Value::from(1u64)),
        ]);
        assert!(JournalOp::decode("xfer", &bogus).is_err());
    }

    fn grid() -> Arc<Grid> {
        let mut net = NetworkModel::new(Link::new(1e6, SimDuration::ZERO));
        net.set_symmetric(
            SiteId::new(1),
            SiteId::new(2),
            Link::new(1e6, SimDuration::ZERO),
        );
        GridBuilder::new()
            .site(SiteDescription::new(SiteId::new(1), "a", 1, 1))
            .site(SiteDescription::new(SiteId::new(2), "b", 1, 1))
            .network(net)
            .build()
    }

    #[test]
    fn register_lookup_delete() {
        let catalog = ReplicaCatalog::new(grid());
        assert!(catalog.is_empty());
        catalog.register(FileRef::new("lfn:/a", 100).with_replicas(vec![SiteId::new(1)]));
        assert_eq!(catalog.len(), 1);
        let f = catalog.lookup("lfn:/a").unwrap();
        assert!(f.available_at(SiteId::new(1)));
        catalog.delete_replica("lfn:/a", SiteId::new(1)).unwrap();
        assert!(!catalog
            .lookup("lfn:/a")
            .unwrap()
            .available_at(SiteId::new(1)));
        assert!(catalog.delete_replica("lfn:/zzz", SiteId::new(1)).is_err());
        assert!(catalog.lookup("lfn:/zzz").is_none());
    }

    #[test]
    fn replication_takes_network_time() {
        let g = grid();
        let catalog = ReplicaCatalog::new(g.clone());
        // 10 MB at 1 MB/s = 10 s.
        catalog.register(FileRef::new("lfn:/d", 10_000_000).with_replicas(vec![SiteId::new(1)]));
        let arrives = catalog.replicate("lfn:/d", SiteId::new(2)).unwrap();
        assert_eq!(arrives, SimTime::from_secs(10));
        assert_eq!(catalog.in_flight().len(), 1);
        // Not there yet.
        g.advance_to(SimTime::from_secs(5));
        assert_eq!(catalog.poll(), 0);
        assert!(!catalog
            .lookup("lfn:/d")
            .unwrap()
            .available_at(SiteId::new(2)));
        // Arrived: the scheduler lands it as the clock passes 10 s.
        g.advance_to(SimTime::from_secs(10));
        assert_eq!(catalog.poll(), 1);
        assert!(catalog
            .lookup("lfn:/d")
            .unwrap()
            .available_at(SiteId::new(2)));
        assert_eq!(catalog.transfer_history().len(), 1);
        assert!(catalog.in_flight().is_empty());
    }

    #[test]
    fn duplicate_replication_coalesces() {
        let g = grid();
        let catalog = ReplicaCatalog::new(g.clone());
        catalog.register(FileRef::new("lfn:/d", 10_000_000).with_replicas(vec![SiteId::new(1)]));
        let a = catalog.replicate("lfn:/d", SiteId::new(2)).unwrap();
        let b = catalog.replicate("lfn:/d", SiteId::new(2)).unwrap();
        assert_eq!(a, b, "second request joins the first transfer");
        assert_eq!(catalog.in_flight().len(), 1);
        // Replicating to a site that already holds it is instant.
        let c = catalog.replicate("lfn:/d", SiteId::new(1)).unwrap();
        assert_eq!(c, g.now());
    }

    #[test]
    fn replication_needs_a_source_and_a_known_site() {
        let catalog = ReplicaCatalog::new(grid());
        catalog.register(FileRef::new("lfn:/orphan", 1));
        assert!(catalog.replicate("lfn:/orphan", SiteId::new(2)).is_err());
        assert!(catalog.replicate("lfn:/missing", SiteId::new(2)).is_err());
        // Replicating to a site outside the grid is a typed NotFound.
        catalog.register(FileRef::new("lfn:/ok", 1).with_replicas(vec![SiteId::new(1)]));
        assert!(matches!(
            catalog.replicate("lfn:/ok", SiteId::new(99)),
            Err(GaeError::NotFound(_))
        ));
    }

    #[test]
    fn resolve_inputs_fills_replicas() {
        let catalog = ReplicaCatalog::new(grid());
        catalog.register(FileRef::new("lfn:/known", 5_000).with_replicas(vec![SiteId::new(2)]));
        let spec = gae_types::TaskSpec::new(gae_types::TaskId::new(1), "t", "x").with_inputs(vec![
            FileRef::new("lfn:/known", 0),
            FileRef::new("lfn:/unknown", 7),
        ]);
        let resolved = catalog.resolve_inputs(spec);
        assert_eq!(resolved.input_files[0].size_bytes, 5_000);
        assert!(resolved.input_files[0].available_at(SiteId::new(2)));
        assert_eq!(resolved.input_files[1].size_bytes, 7, "unknown untouched");
    }

    #[test]
    fn history_ring_is_bounded_and_counts_drops() {
        let mut net = NetworkModel::new(Link::new(1e9, SimDuration::ZERO));
        net.set_symmetric(
            SiteId::new(1),
            SiteId::new(2),
            Link::new(1e9, SimDuration::ZERO),
        );
        let g = GridBuilder::new()
            .site(SiteDescription::new(SiteId::new(1), "a", 1, 1))
            .site(SiteDescription::new(SiteId::new(2), "b", 1, 1))
            .network(net)
            .xfer(gae_xfer::XferConfig {
                history_capacity: 2,
                ..gae_xfer::XferConfig::with_defaults()
            })
            .build();
        let catalog = ReplicaCatalog::new(g.clone());
        for i in 0..5 {
            let lfn = format!("lfn:/f{i}");
            catalog.register(FileRef::new(&lfn, 1000).with_replicas(vec![SiteId::new(1)]));
            catalog.replicate(&lfn, SiteId::new(2)).unwrap();
            let next = g.next_event_time().expect("transfer in flight");
            g.advance_to(next);
        }
        assert_eq!(catalog.poll(), 5, "all five landed");
        assert_eq!(catalog.transfer_history().len(), 2, "ring keeps last 2");
        assert_eq!(catalog.history_dropped(), 3, "three fell off");
    }

    #[test]
    fn rpc_facade_roundtrip() {
        let catalog = ReplicaCatalog::new(grid());
        let svc = ReplicaRpc::new(catalog.clone());
        let ctx = CallContext::anonymous("t");
        svc.call(
            &ctx,
            "register",
            &[
                Value::from("lfn:/x"),
                Value::from(1_000_000u64),
                Value::Array(vec![Value::from(1u64)]),
            ],
        )
        .unwrap();
        let f = svc.call(&ctx, "lookup", &[Value::from("lfn:/x")]).unwrap();
        assert_eq!(f.member("size").unwrap().as_u64().unwrap(), 1_000_000);
        let arrives = svc
            .call(
                &ctx,
                "replicate",
                &[Value::from("lfn:/x"), Value::from(2u64)],
            )
            .unwrap();
        assert_eq!(arrives.as_u64().unwrap(), 1_000_000, "1 s in µs");
        svc.call(
            &ctx,
            "delete_replica",
            &[Value::from("lfn:/x"), Value::from(1u64)],
        )
        .unwrap();
        assert!(svc
            .call(&ctx, "lookup", &[Value::from("lfn:/nope")])
            .unwrap()
            .is_nil());
        assert!(svc.call(&ctx, "bogus", &[]).is_err());
    }
}
