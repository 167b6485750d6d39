//! The host `gae-ctl serve` assembles (`src/bin/gae-ctl.rs`), plus the
//! `sessionstore` facade that `serve` leaves out: every production
//! service behind one `ServiceHost`. Included with `mod served;`.

use gae::core::estimator::service::EstimatorRpc;
use gae::core::jobmon::JobMonitoringRpc;
use gae::core::steering::SteeringRpc;
use gae::core::{
    AnalysisSessionRpc, AnalysisSessionStore, HistoryRpc, MonAlisaRpc, ReplicaCatalog, ReplicaRpc,
    SchedulerRpc, StatsRpc, TraceRpc,
};
use gae::prelude::*;
use gae::rpc::{CallContext, Credentials, ServiceHost};
use std::sync::Arc;

/// The demo user `serve` registers.
pub const USER: &str = "alice";
const PASSWORD: &str = "analysis";

/// `serve`'s two-site grid, stack and host, with its demo job
/// submitted; virtual time is not advanced.
pub fn served_host() -> (Arc<ServiceStack>, Arc<ServiceHost>) {
    let grid = GridBuilder::new()
        .site_with_load(
            SiteDescription::new(SiteId::new(1), "busy-cluster", 4, 1),
            3.0,
        )
        .site(SiteDescription::new(SiteId::new(2), "free-tier2", 4, 2))
        .build();
    let stack = ServiceStack::over(grid.clone());

    let host = ServiceHost::open();
    host.sessions()
        .register(&Credentials::new(USER, PASSWORD))
        .expect("fresh session manager");
    let alice = host.sessions().user_id(USER).expect("registered");
    host.register(Arc::new(JobMonitoringRpc::new(stack.jobmon.clone())));
    host.register(Arc::new(SteeringRpc::new(stack.steering.clone())));
    host.register(Arc::new(MonAlisaRpc::new(grid.monitor().clone())));
    host.register(Arc::new(EstimatorRpc::new(stack.estimators.clone())));
    host.register(Arc::new(SchedulerRpc::new(&stack)));
    host.attach_obs(stack.obs());
    host.register(Arc::new(TraceRpc::new(stack.obs())));
    host.register(Arc::new(StatsRpc::new(stack.obs())));
    host.register(Arc::new(HistoryRpc::new(stack.hist.clone(), stack.obs())));
    let catalog = ReplicaCatalog::new(grid.clone());
    catalog.register(
        FileRef::new("lfn:/cms/demo-dataset.root", 250_000_000).with_replicas(vec![SiteId::new(2)]),
    );
    host.register(Arc::new(ReplicaRpc::new(catalog)));
    host.register(Arc::new(AnalysisSessionRpc::new(
        AnalysisSessionStore::new(grid),
    )));
    host.register_web(stack.steering.web_handler());

    let mut job = JobSpec::new(JobId::new(1), "demo-analysis", alice);
    for i in 1..=3u64 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("step-{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(1_800 * i)),
        );
    }
    stack.submit_job(job).expect("schedulable");
    (stack, host)
}

/// A fresh session of [`USER`] on `host`.
pub fn logged_in(host: &ServiceHost) -> CallContext {
    let sid = host
        .sessions()
        .login(&Credentials::new(USER, PASSWORD))
        .expect("registered user");
    host.resolve_session(Some(sid), "served")
        .expect("live session")
}
