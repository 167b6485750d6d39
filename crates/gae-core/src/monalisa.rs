//! XML-RPC facade over the MonALISA-substitute repository, registered
//! as the `monalisa` service.
//!
//! The paper's services publish into MonALISA (§5.4) and read site
//! load from it (§6.1d); this facade also lets external dashboards —
//! the "Grid weather" view the introduction motivates — query the
//! same repository over the wire.
//!
//! The repository is also a journaled subsystem's state: its metric
//! rings are snapshot members it owns ([`Machine`]), though it
//! journals no records of its own. A job's state-change history is
//! not kept here: `jobmon.job_tasks` answers it from the DBManager.

use crate::persist::{array_of, section, Install, Machine, MemberWriter, Owns};
use gae_monitor::{MetricKey, MonAlisaRepository, Sample};
use gae_rpc::{Method, Methods, Params};
use gae_types::{GaeError, GaeResult, SimTime, SiteId};
use gae_wire::Value;
use std::io;
use std::sync::Arc;

/// The `monalisa` RPC service.
pub struct MonAlisaRpc {
    repo: Arc<MonAlisaRepository>,
}

impl MonAlisaRpc {
    /// Wraps a repository for RPC registration.
    pub fn new(repo: Arc<MonAlisaRepository>) -> Self {
        MonAlisaRpc { repo }
    }
}

/// The metric a call names in its first three parameters.
fn metric_key(p: Params<'_>) -> GaeResult<MetricKey> {
    let [site, entity, param] =
        p.0.first_chunk()
            .ok_or_else(|| GaeError::Parse("expected (site, entity, param, ...)".into()))?;
    Ok(MetricKey::new(
        SiteId::new(site.as_u64()?),
        entity.as_str()?.to_string(),
        param.as_str()?.to_string(),
    ))
}

impl Methods for MonAlisaRpc {
    const NAME: &'static str = "monalisa";
    const METHODS: &'static [Method<Self>] = &[
        Method {
            name: "site_load",
            help: "latest farm-wide cpu load of a site",
            inline: false,
            handler: |s, _, p| {
                let site = SiteId::new(p.u64(0, "site_load(site)")?);
                Ok(s.repo.site_load(site).into())
            },
        },
        Method {
            name: "queue_length",
            help: "latest queue length of a site",
            inline: false,
            handler: |s, _, p| {
                let site = SiteId::new(p.u64(0, "queue_length(site)")?);
                Ok(s.repo.queue_length(site).into())
            },
        },
        Method {
            name: "publish",
            help: "publish one metric sample",
            inline: false,
            handler: |s, _, p| {
                let [_, _, _, at, value] = p.exact("publish(site, entity, param, at_us, value)")?;
                let key = metric_key(p)?;
                let at = SimTime::from_micros(at.as_u64()?);
                s.repo.publish_metric(key, at, value.as_f64()?);
                Ok(Value::Bool(true))
            },
        },
        // publish_batch([{site, entity, param, at_us, value}, ...])
        Method {
            name: "publish_batch",
            help: "publish many metric samples in one call",
            inline: false,
            handler: |s, _, p| {
                let samples = array_of(p.get(0, "publish_batch(samples)")?, |entry| {
                    Ok((key_from_value(entry)?, sample_from_value(entry)?))
                })?;
                Ok(Value::from(s.repo.publish_batch(samples) as u64))
            },
        },
        Method {
            name: "latest",
            help: "latest sample of (site, entity, param)",
            inline: false,
            handler: |s, _, p| {
                Ok(match s.repo.latest(&metric_key(p)?) {
                    Some(sample) => sample_to_value(&sample),
                    None => Value::Nil,
                })
            },
        },
        Method {
            name: "range",
            help: "samples of a metric within a time window",
            inline: false,
            handler: |s, _, p| {
                let [_, _, _, from, to] = p.exact("range(site, entity, param, from_us, to_us)")?;
                let key = metric_key(p)?;
                let from = SimTime::from_micros(from.as_u64()?);
                let to = SimTime::from_micros(to.as_u64()?);
                let samples = s.repo.range(&key, from, to);
                Ok(Value::Array(samples.iter().map(sample_to_value).collect()))
            },
        },
    ];
}

/// Only the metric series are snapshot members. A snapshot written
/// before the job-event log left also carries `events` and `evicted`
/// members; nothing owns them, so they are skipped unread.
impl Machine for MonAlisaRepository {
    fn owns(&self) -> Owns {
        (&[], &["metrics", "metrics_published"])
    }

    fn write_member(&self, name: &str, doc: &mut MemberWriter<'_>) -> io::Result<()> {
        match name {
            "metrics" => doc.array(name, self.metrics_snapshot().0.iter().map(series_to_value)),
            _ => doc.member(name, &Value::from(self.total_published())),
        }
    }

    fn decode<'a>(&'a self, doc: &'a Value) -> GaeResult<Install<'a>> {
        let metrics = section(doc, "metrics", |v| array_of(v, series_from_value))?;
        let published = section(doc, "metrics_published", Value::as_u64)?;
        Ok(Box::new(move || {
            self.restore_metrics(metrics, published);
            Ok(())
        }))
    }
}

fn sample_to_value(s: &Sample) -> Value {
    Value::struct_of([
        ("at_us", Value::from(s.at.as_micros())),
        ("value", Value::Double(s.value)),
    ])
}

pub(crate) fn series_to_value((k, samples): &(MetricKey, Vec<Sample>)) -> Value {
    Value::struct_of([
        ("site", Value::from(k.site.raw())),
        ("entity", Value::from(&*k.entity)),
        ("param", Value::from(&*k.param)),
        (
            "samples",
            Value::Array(samples.iter().map(sample_to_value).collect()),
        ),
    ])
}

fn series_from_value(v: &Value) -> GaeResult<(MetricKey, Vec<Sample>)> {
    let samples = array_of(v.member("samples")?, sample_from_value)?;
    Ok((key_from_value(v)?, samples))
}

/// The `(site, entity, param)` members of `v`.
fn key_from_value(v: &Value) -> GaeResult<MetricKey> {
    Ok(MetricKey::new(
        SiteId::new(v.member("site")?.as_u64()?),
        v.member("entity")?.as_str()?.to_string(),
        v.member("param")?.as_str()?.to_string(),
    ))
}

/// The `(at_us, value)` members of `v`.
fn sample_from_value(v: &Value) -> GaeResult<Sample> {
    Ok(Sample {
        at: SimTime::from_micros(v.member("at_us")?.as_u64()?),
        value: v.member("value")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_rpc::{CallContext, Service};

    fn ctx() -> CallContext {
        CallContext::anonymous("test")
    }

    #[test]
    fn publish_then_query() {
        let repo = MonAlisaRepository::with_defaults();
        let svc = MonAlisaRpc::new(repo.clone());
        svc.call(
            &ctx(),
            "publish",
            &[
                Value::from(1u64),
                Value::from("farm"),
                Value::from("cpu_load"),
                Value::from(5_000_000u64),
                Value::Double(2.5),
            ],
        )
        .unwrap();
        let load = svc.call(&ctx(), "site_load", &[Value::from(1u64)]).unwrap();
        assert_eq!(load.as_f64().unwrap(), 2.5);
        let latest = svc
            .call(
                &ctx(),
                "latest",
                &[
                    Value::from(1u64),
                    Value::from("farm"),
                    Value::from("cpu_load"),
                ],
            )
            .unwrap();
        assert_eq!(latest.member("value").unwrap().as_f64().unwrap(), 2.5);
    }

    #[test]
    fn missing_metrics_are_nil() {
        let svc = MonAlisaRpc::new(MonAlisaRepository::with_defaults());
        assert!(svc
            .call(&ctx(), "site_load", &[Value::from(9u64)])
            .unwrap()
            .is_nil());
        assert!(svc
            .call(
                &ctx(),
                "latest",
                &[Value::from(9u64), Value::from("x"), Value::from("y")]
            )
            .unwrap()
            .is_nil());
    }

    #[test]
    fn range_query_over_rpc() {
        let repo = MonAlisaRepository::with_defaults();
        let svc = MonAlisaRpc::new(repo.clone());
        for t in 1..=5u64 {
            repo.publish_site_load(SiteId::new(1), SimTime::from_secs(t), t as f64);
        }
        let r = svc
            .call(
                &ctx(),
                "range",
                &[
                    Value::from(1u64),
                    Value::from("farm"),
                    Value::from("cpu_load"),
                    Value::from(2_000_000u64),
                    Value::from(4_000_000u64),
                ],
            )
            .unwrap();
        assert_eq!(r.as_array().unwrap().len(), 3);
    }

    #[test]
    fn malformed_calls_fault() {
        let svc = MonAlisaRpc::new(MonAlisaRepository::with_defaults());
        assert!(svc.call(&ctx(), "publish", &[Value::from(1u64)]).is_err());
        assert!(svc.call(&ctx(), "range", &[Value::from(1u64)]).is_err());
        assert!(svc.call(&ctx(), "nope", &[]).is_err());
        assert!(svc.call(&ctx(), "site_load", &[]).is_err());
        assert!(svc.call(&ctx(), "publish_batch", &[]).is_err());
        // A sample missing a field faults the whole batch.
        let incomplete = Value::Array(vec![Value::struct_of([
            ("site", Value::from(1u64)),
            ("entity", Value::from("farm")),
        ])]);
        assert!(svc.call(&ctx(), "publish_batch", &[incomplete]).is_err());
    }

    #[test]
    fn batch_publish_over_rpc() {
        let repo = MonAlisaRepository::with_defaults();
        let svc = MonAlisaRpc::new(repo.clone());
        let sample = |site: u64, param: &str, at_us: u64, value: f64| {
            Value::struct_of([
                ("site", Value::from(site)),
                ("entity", Value::from("farm")),
                ("param", Value::from(param)),
                ("at_us", Value::from(at_us)),
                ("value", Value::Double(value)),
            ])
        };
        let batch = Value::Array(vec![
            sample(1, "cpu_load", 1_000_000, 0.25),
            sample(1, "queue_length", 1_000_000, 4.0),
            sample(2, "cpu_load", 1_000_000, 0.75),
        ]);
        let in_order = svc.call(&ctx(), "publish_batch", &[batch]).unwrap();
        assert_eq!(in_order.as_u64().unwrap(), 3);
        assert_eq!(repo.site_load(SiteId::new(1)), Some(0.25));
        assert_eq!(repo.queue_length(SiteId::new(1)), Some(4.0));
        assert_eq!(repo.site_load(SiteId::new(2)), Some(0.75));
    }
}
