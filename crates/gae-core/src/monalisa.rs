//! XML-RPC facade over the MonALISA-substitute repository, registered
//! as the `monalisa` service.
//!
//! The paper's services publish into MonALISA (§5.4) and read site
//! load from it (§6.1d); this facade also lets external dashboards —
//! the "Grid weather" view the introduction motivates — query the
//! same repository over the wire.
//!
//! The repository is also a journaled subsystem's state: its job-event
//! log and metric rings are snapshot members it owns ([`Machine`]),
//! though it journals no records of its own.

use crate::persist::{array_of, section, Install, Machine, MemberWriter, Owns};
use gae_monitor::{JobEvent, MetricKey, MonAlisaRepository, Sample};
use gae_rpc::{CallContext, MethodInfo, Service};
use gae_types::{GaeError, GaeResult, JobId, SimTime, SiteId, TaskId};
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

    fn key_from(params: &[Value]) -> GaeResult<MetricKey> {
        if params.len() < 3 {
            return Err(GaeError::Parse(
                "expected (site, entity, param, ...)".into(),
            ));
        }
        Ok(MetricKey::new(
            SiteId::new(params[0].as_u64()?),
            params[1].as_str()?.to_string(),
            params[2].as_str()?.to_string(),
        ))
    }
}

impl Service for MonAlisaRpc {
    fn name(&self) -> &'static str {
        "monalisa"
    }

    fn call(&self, _ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        match method {
            "site_load" => {
                let site = SiteId::new(
                    params
                        .first()
                        .ok_or_else(|| GaeError::Parse("site_load(site)".into()))?
                        .as_u64()?,
                );
                Ok(self.repo.site_load(site).into())
            }
            "queue_length" => {
                let site = SiteId::new(
                    params
                        .first()
                        .ok_or_else(|| GaeError::Parse("queue_length(site)".into()))?
                        .as_u64()?,
                );
                Ok(self.repo.queue_length(site).into())
            }
            "publish" => {
                // publish(site, entity, param, at_us, value)
                if params.len() != 5 {
                    return Err(GaeError::Parse(
                        "publish(site, entity, param, at_us, value)".into(),
                    ));
                }
                let key = Self::key_from(params)?;
                let at = SimTime::from_micros(params[3].as_u64()?);
                self.repo.publish_metric(key, at, params[4].as_f64()?);
                Ok(Value::Bool(true))
            }
            "publish_batch" => {
                // publish_batch([{site, entity, param, at_us, value}, ...])
                let batch = params
                    .first()
                    .ok_or_else(|| GaeError::Parse("publish_batch(samples)".into()))?;
                let samples = array_of(batch, |entry| {
                    Ok((key_from_value(entry)?, sample_from_value(entry)?))
                })?;
                let in_order = self.repo.publish_batch(samples);
                Ok(Value::from(in_order as u64))
            }
            "latest" => {
                let key = Self::key_from(params)?;
                Ok(match self.repo.latest(&key) {
                    Some(s) => sample_to_value(&s),
                    None => Value::Nil,
                })
            }
            "range" => {
                // range(site, entity, param, from_us, to_us)
                if params.len() != 5 {
                    return Err(GaeError::Parse(
                        "range(site, entity, param, from_us, to_us)".into(),
                    ));
                }
                let key = Self::key_from(params)?;
                let from = SimTime::from_micros(params[3].as_u64()?);
                let to = SimTime::from_micros(params[4].as_u64()?);
                Ok(Value::Array(
                    self.repo
                        .range(&key, from, to)
                        .iter()
                        .map(sample_to_value)
                        .collect(),
                ))
            }
            "job_history" => {
                let job = JobId::new(
                    params
                        .first()
                        .ok_or_else(|| GaeError::Parse("job_history(job)".into()))?
                        .as_u64()?,
                );
                Ok(Value::Array(
                    self.repo
                        .job_history(job)
                        .into_iter()
                        .map(|e| {
                            Value::struct_of([
                                ("at_us", Value::from(e.at.as_micros())),
                                ("task", Value::from(e.task.raw())),
                                ("site", Value::from(e.site.raw())),
                                ("status", Value::from(e.status.to_string())),
                            ])
                        })
                        .collect(),
                ))
            }
            other => Err(gae_rpc::service::unknown_method("monalisa", other)),
        }
    }

    fn methods(&self) -> Vec<MethodInfo> {
        vec![
            MethodInfo {
                name: "site_load",
                help: "latest farm-wide cpu load of a site",
            },
            MethodInfo {
                name: "queue_length",
                help: "latest queue length of a site",
            },
            MethodInfo {
                name: "publish",
                help: "publish one metric sample",
            },
            MethodInfo {
                name: "publish_batch",
                help: "publish many metric samples in one call",
            },
            MethodInfo {
                name: "latest",
                help: "latest sample of (site, entity, param)",
            },
            MethodInfo {
                name: "range",
                help: "samples of a metric within a time window",
            },
            MethodInfo {
                name: "job_history",
                help: "state-change events of a job",
            },
        ]
    }
}

impl Machine for MonAlisaRepository {
    fn owns(&self) -> Owns {
        (&[], &["events", "evicted", "metrics", "metrics_published"])
    }

    fn write_member(&self, name: &str, doc: &mut MemberWriter<'_>) -> io::Result<()> {
        match name {
            "events" => doc.array(name, self.events_snapshot().iter().map(event_to_value)),
            "evicted" => doc.member(name, &Value::from(self.evicted_count())),
            "metrics" => doc.array(name, self.metrics_snapshot().0.iter().map(series_to_value)),
            _ => doc.member(name, &Value::from(self.total_published())),
        }
    }

    fn decode<'a>(&'a self, doc: &'a Value) -> GaeResult<Install<'a>> {
        let events = section(doc, "events", |v| array_of(v, event_from_value))?;
        let evicted = section(doc, "evicted", Value::as_u64)?;
        let metrics = section(doc, "metrics", |v| array_of(v, series_from_value))?;
        let published = section(doc, "metrics_published", Value::as_u64)?;
        Ok(Box::new(move || {
            self.restore_events(events, evicted);
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

pub(crate) fn event_to_value(e: &JobEvent) -> Value {
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
        status: v.member("status")?.as_str()?.parse()?,
    })
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
    fn job_history_over_rpc() {
        use gae_monitor::JobEvent;
        use gae_types::{TaskId, TaskStatus};
        let repo = MonAlisaRepository::with_defaults();
        let svc = MonAlisaRpc::new(repo.clone());
        repo.publish_job_event(JobEvent {
            at: SimTime::from_secs(1),
            job: JobId::new(3),
            task: TaskId::new(1),
            site: SiteId::new(1),
            status: TaskStatus::Completed,
        });
        let h = svc
            .call(&ctx(), "job_history", &[Value::from(3u64)])
            .unwrap();
        let h = h.as_array().unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(
            h[0].member("status").unwrap().as_str().unwrap(),
            "completed"
        );
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
