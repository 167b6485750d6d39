//! Seeded input generators. The program under test receives only
//! what these produce; every draw comes from the `--seed`.

use crate::stats::Digest;
use gae_hist::HistRecord;
use gae_types::{JobId, JobSpec, SimDuration, TaskId, TaskSpec, UserId};
use gae_wire::{write_call, MethodCall, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tasks per generated job, on every workload that submits jobs.
pub const TASKS_PER_JOB: u64 = 4;

/// One generator stream per purpose, so adding draws to one does not
/// shift another.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Task ids of job number `job_no` (1-based): `job_no*10 + 1..=4`.
pub fn task_id(job_no: u64, index: u64) -> TaskId {
    TaskId::new(job_no * 10 + index + 1)
}

/// `submit_persist`'s job: a 4-task chain with arguments, environment
/// and 3–9 s CPU demands — a multi-KB XML-RPC body.
pub fn chain_job(rng: &mut StdRng, job_no: u64, owner: UserId) -> JobSpec {
    let mut job = JobSpec::new(JobId::new(job_no), format!("analysis-{job_no}"), owner);
    for i in 0..TASKS_PER_JOB {
        let demand_ms = rng.gen_range(3_000u64..9_000);
        let mut task = TaskSpec::new(task_id(job_no, i), format!("step-{i}"), "reco")
            .with_cpu_demand(SimDuration::from_millis(demand_ms));
        task.args = vec![
            format!("--run={}", rng.gen_range(100_000u32..999_999)),
            format!("--events={}", rng.gen_range(1_000u32..50_000)),
            "--config=/cms/conf/reco_v7.py".to_string(),
        ];
        task.env = vec![
            ("CMS_PATH".to_string(), "/opt/cms/sw".to_string()),
            ("SCRAM_ARCH".to_string(), "slc3_ia32_gcc323".to_string()),
            ("JOB_SEED".to_string(), rng.gen::<u32>().to_string()),
        ];
        job.add_task(task);
    }
    for i in 1..TASKS_PER_JOB {
        job.add_dependency(task_id(job_no, i - 1), task_id(job_no, i));
    }
    job
}

/// `grid_tick`'s job: four independent tasks of 1–10 minutes, short
/// enough that tasks finish, and queued ones start, inside the few
/// hundred virtual seconds a run covers.
pub fn batch_job(rng: &mut StdRng, job_no: u64, owner: UserId) -> JobSpec {
    let mut job = JobSpec::new(JobId::new(job_no), format!("batch-{job_no}"), owner);
    for i in 0..TASKS_PER_JOB {
        let demand_s = rng.gen_range(60u64..600);
        job.add_task(
            TaskSpec::new(task_id(job_no, i), format!("t{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(demand_s)),
        );
    }
    job
}

/// The axes `history_estimate` draws history rows and queries from.
pub const HIST_SITES: u64 = 4;
pub const HIST_LOGINS: [&str; 4] = ["amy", "bob", "cal", "dee"];
pub const HIST_NODES: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// One `estimator.estimate_runtime` query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EstimateQuery {
    pub site: u64,
    pub login: &'static str,
    pub nodes: u64,
}

impl EstimateQuery {
    pub fn draw(rng: &mut StdRng) -> EstimateQuery {
        EstimateQuery {
            site: rng.gen_range(1..=HIST_SITES),
            login: HIST_LOGINS[rng.gen_range(0..HIST_LOGINS.len())],
            nodes: HIST_NODES[rng.gen_range(0..HIST_NODES.len())],
        }
    }

    /// `estimate_runtime(site, login, executable, queue, partition,
    /// nodes, job_type)`.
    pub fn params(&self) -> Vec<Value> {
        vec![
            Value::from(self.site),
            Value::from(self.login),
            Value::from("reco"),
            Value::from("prod"),
            Value::from("compute"),
            Value::from(self.nodes),
            Value::from("batch"),
        ]
    }
}

/// One finished task for the history store, number `t` on the time
/// line; about one in ten failed.
pub fn hist_row(rng: &mut StdRng, t: u64) -> HistRecord {
    let q = EstimateQuery::draw(rng);
    let runtime_us = q.nodes * 1_000_000 + rng.gen_range(0u64..900_000_000);
    HistRecord {
        task: t,
        site: q.site,
        nodes: q.nodes,
        submit_us: t * 1_000,
        start_us: t * 1_000 + 40,
        finish_us: t * 1_000 + 40 + runtime_us,
        runtime_us,
        success: rng.gen_range(0u32..10) != 0,
        account: "cms".into(),
        login: q.login.into(),
        executable: "reco".into(),
        queue: "prod".into(),
        partition: "compute".into(),
        job_type: "batch".into(),
    }
}

/// Which workload's request stream to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Requests {
    /// `jobmon.job_info(task)`, task drawn from `live` tasks.
    JobInfo { live: u64 },
    /// `scheduler.submit_job(chain_job)`.
    Submit,
    /// `estimator.estimate_runtime(..)`.
    Estimate,
}

/// The `index`-th request of a stream. Streams are consumed in order;
/// `rng` carries the position.
pub fn request(kind: Requests, rng: &mut StdRng, index: u64) -> MethodCall {
    match kind {
        Requests::JobInfo { live } => MethodCall::new(
            "jobmon.job_info",
            vec![Value::from(rng.gen_range(1..=live))],
        ),
        Requests::Submit => MethodCall::new(
            "scheduler.submit_job",
            // The door assigns the session's user as owner.
            vec![gae_core::submit::job_to_value(&chain_job(
                rng,
                index + 1,
                UserId::new(0),
            ))],
        ),
        Requests::Estimate => MethodCall::new(
            "estimator.estimate_runtime",
            EstimateQuery::draw(rng).params(),
        ),
    }
}

/// The request as the XML-RPC body a client sends.
pub fn request_body(kind: Requests, rng: &mut StdRng, index: u64) -> Vec<u8> {
    write_call(&request(kind, rng, index)).into_bytes()
}

/// Hash of the first `n` request bodies of a stream: two runs with
/// the same seed send byte-identical requests.
pub fn request_hash(kind: Requests, seed: u64, n: u64) -> Digest {
    let mut rng = rng(seed, 1);
    let mut digest = Digest::new();
    for i in 0..n {
        digest.bytes(&request_body(kind, &mut rng, i));
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [Requests; 3] = [
        Requests::JobInfo { live: 50 },
        Requests::Submit,
        Requests::Estimate,
    ];

    #[test]
    fn same_seed_same_request_bytes() {
        for kind in KINDS {
            assert_eq!(request_hash(kind, 2005, 64), request_hash(kind, 2005, 64));
        }
    }

    #[test]
    fn different_seed_different_request_bytes() {
        for kind in KINDS {
            assert_ne!(request_hash(kind, 2005, 64), request_hash(kind, 2006, 64));
        }
    }

    #[test]
    fn submit_bodies_are_multi_kilobyte_chains() {
        let mut r = rng(2005, 1);
        let job = chain_job(&mut r, 3, UserId::new(1));
        assert_eq!(job.tasks.len(), 4);
        assert_eq!(job.dependencies.len(), 3);
        job.validate().expect("a valid DAG");
        let body = request_body(Requests::Submit, &mut r, 0);
        assert!(body.len() > 2_000, "body is {} bytes", body.len());
    }
}
