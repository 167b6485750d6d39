//! The observability RPC facades (DESIGN.md §10).
//!
//! Two thin services over the deployment's [`ObsHub`]:
//!
//! * `trace` — per-job causal trees and lifecycle timelines, keyed by
//!   CondorId: `trace.get`, `trace.timeline`, `trace.render`;
//! * `stats` — latency histogram snapshots: `stats.histogram`,
//!   `stats.methods`, `stats.render`.

use gae_obs::{HistogramSnapshot, ObsHub, TimelineEvent};
use gae_rpc::{Method, Methods};
use gae_types::GaeError;
use gae_wire::Value;
use std::sync::Arc;

/// The `trace` service: one job's causal tree, over the wire.
pub struct TraceRpc {
    hub: Arc<ObsHub>,
}

impl TraceRpc {
    /// Wraps the hub for RPC registration.
    pub fn new(hub: Arc<ObsHub>) -> Self {
        TraceRpc { hub }
    }
}

fn micros(at: gae_types::SimTime) -> Value {
    Value::Int64(at.as_micros() as i64)
}

impl Methods for TraceRpc {
    const NAME: &'static str = "trace";
    const METHODS: &'static [Method<Self>] =
        &[
            // The causal tree of one CondorId as a struct: the trace id
            // (hex, as on the wire header) plus every span in span-id
            // order.
            Method {
                name: "get",
                help: "causal tree of a CondorId: trace id + spans",
                inline: false,
                handler: |s, _, p| {
                    let condor = p.u64(0, "missing CondorId parameter")?;
                    let trace =
                        s.hub.traces().trace_for_condor(condor).ok_or_else(|| {
                            GaeError::NotFound(format!("trace for condor {condor}"))
                        })?;
                    let spans = s
                        .hub
                        .traces()
                        .spans(trace)
                        .ok_or_else(|| GaeError::NotFound(format!("spans of trace {trace}")))?;
                    let spans = spans.iter().map(|span| {
                        Value::struct_of([
                            ("span", Value::Int64(span.span.raw() as i64)),
                            (
                                "parent",
                                span.parent
                                    .map(|parent| Value::Int64(parent.raw() as i64))
                                    .unwrap_or(Value::Nil),
                            ),
                            ("name", Value::from(span.name.as_str())),
                            ("start_us", micros(span.start)),
                            ("end_us", micros(span.end)),
                        ])
                    });
                    Ok(Value::struct_of([
                        ("trace", Value::from(format!("{trace}"))),
                        ("spans", Value::Array(spans.collect())),
                    ]))
                },
            },
            // The lifecycle timeline of one CondorId: recorded events
            // mapped to their µs instants, unrecorded events absent.
            Method {
                name: "timeline",
                help: "lifecycle instants of a CondorId (µs)",
                inline: false,
                handler: |s, _, p| {
                    let condor = p.u64(0, "missing CondorId parameter")?;
                    let tl = s.hub.timeline(condor).ok_or_else(|| {
                        GaeError::NotFound(format!("timeline for condor {condor}"))
                    })?;
                    Ok(Value::struct_of(TimelineEvent::ALL.iter().filter_map(
                        |ev| {
                            tl.instant(*ev)
                                .map(|at| (format!("{}_us", ev.name()), micros(at)))
                        },
                    )))
                },
            },
            // The human-readable dump bench bins print.
            Method {
                name: "render",
                help: "human-readable trace + timeline dump",
                inline: false,
                handler: |s, _, p| {
                    let condor = p.u64(0, "missing CondorId parameter")?;
                    s.hub
                        .render_condor(condor)
                        .map(Value::from)
                        .ok_or_else(|| GaeError::NotFound(format!("trace for condor {condor}")))
                },
            },
        ];
}

/// The `stats` service: latency distributions, over the wire.
pub struct StatsRpc {
    hub: Arc<ObsHub>,
}

impl StatsRpc {
    /// Wraps the hub for RPC registration.
    pub fn new(hub: Arc<ObsHub>) -> Self {
        StatsRpc { hub }
    }

    /// RPC-method histograms answer plain names; gate-disposition
    /// histograms answer under a `gate:` prefix.
    fn lookup(&self, name: &str) -> Option<HistogramSnapshot> {
        if let Some(disposition) = name.strip_prefix("gate:") {
            return self
                .hub
                .gate_snapshot()
                .into_iter()
                .find(|(k, _)| k == disposition)
                .map(|(_, s)| s);
        }
        self.hub
            .rpc_snapshot()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, s)| s)
    }
}

fn snapshot_value(s: HistogramSnapshot) -> Value {
    Value::struct_of([
        ("count", Value::Int64(s.count as i64)),
        ("p50_us", Value::Int64(s.p50_us as i64)),
        ("p95_us", Value::Int64(s.p95_us as i64)),
        ("p99_us", Value::Int64(s.p99_us as i64)),
        ("max_us", Value::Int64(s.max_us as i64)),
        ("mean_us", Value::Double(s.mean_us())),
    ])
}

impl Methods for StatsRpc {
    const NAME: &'static str = "stats";
    const METHODS: &'static [Method<Self>] = &[
        Method {
            name: "histogram",
            help: "latency snapshot of one method (or gate:<disposition>)",
            inline: false,
            handler: |s, _, p| {
                let name = p.str(0, "missing histogram name")?;
                s.lookup(name)
                    .map(snapshot_value)
                    .ok_or_else(|| GaeError::NotFound(format!("histogram {name}")))
            },
        },
        Method {
            name: "methods",
            help: "every histogram name with samples",
            inline: false,
            handler: |s, _, _| {
                let rpc = s
                    .hub
                    .rpc_snapshot()
                    .into_iter()
                    .map(|(k, _)| Value::from(k));
                let gate = s.hub.gate_snapshot().into_iter();
                let gate = gate.map(|(k, _)| Value::from(format!("gate:{k}")));
                Ok(Value::Array(rpc.chain(gate).collect()))
            },
        },
        Method {
            name: "render",
            help: "human-readable latency table",
            inline: false,
            handler: |s, _, _| Ok(Value::from(s.hub.render_histograms())),
        },
    ];
}
