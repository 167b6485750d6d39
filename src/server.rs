//! The served host: the one assembly of the production deployment.
//!
//! [`host`] registers every production service over a stack, and
//! [`Server`] runs the demo deployment behind the reactor door — what
//! `gae-ctl serve` runs, and what the tests that pin the served surface
//! (`method_surface`, `method_table`, `stack_lifetime`) build.
//!
//! A [`Server`] with a store recovers it before the socket is bound, so
//! no request ever sees a half-recovered stack. [`Server::stop`] stops
//! the door (its workers finish what they admitted), joins the pump and
//! takes one final checkpoint, so a stopped server has committed every
//! request it acknowledged.

use gae_aio::ReactorRpcServer;
use gae_core::{
    estimator::service::EstimatorRpc, jobmon::JobMonitoringRpc, steering::SteeringRpc,
    AnalysisSessionRpc, AnalysisSessionStore, HistoryRpc, MonAlisaRpc, ReplicaCatalog, ReplicaRpc,
    SchedulerRpc, StatsRpc, TraceRpc,
};
use gae_rpc::{Credentials, ServiceHost};
use std::path::Path;
use std::sync::{mpsc, mpsc::RecvTimeoutError, Arc};
use std::time::{Duration, Instant};

use crate::prelude::*;

/// The demo user every served host registers.
pub const USER: &str = "alice";
/// [`USER`]'s password.
pub const PASSWORD: &str = "analysis";

/// Request processors behind the door.
const WORKERS: usize = 16;
/// How often the pump brings virtual time up to the wall clock.
const PUMP_PERIOD: Duration = Duration::from_millis(200);
/// How often the collector and the steering service poll.
const POLL: SimDuration = SimDuration::from_secs(5);

/// A host serving every production service over `stack`, with [`USER`]
/// registered and §4.2.4's web interface (`GET /` for the index,
/// `/state/<task>` for execution-state downloads) attached.
pub fn host(stack: &Arc<ServiceStack>) -> Arc<ServiceHost> {
    let host = ServiceHost::open();
    host.sessions()
        .register(&Credentials::new(USER, PASSWORD))
        .expect("invariant: a fresh host has no users");
    host.register(Arc::new(JobMonitoringRpc::new(stack.jobmon.clone())));
    host.register(Arc::new(SteeringRpc::new(stack.steering.clone())));
    host.register(Arc::new(MonAlisaRpc::new(stack.grid.monitor().clone())));
    host.register(Arc::new(EstimatorRpc::new(stack.estimators.clone())));
    host.register(Arc::new(SchedulerRpc::new(stack)));
    host.attach_obs(stack.obs());
    host.register(Arc::new(TraceRpc::new(stack.obs())));
    host.register(Arc::new(StatsRpc::new(stack.obs())));
    host.register(Arc::new(HistoryRpc::new(stack.hist.clone(), stack.obs())));
    let catalog = ReplicaCatalog::new(stack.grid.clone());
    catalog.register(
        FileRef::new("lfn:/cms/demo-dataset.root", 250_000_000).with_replicas(vec![SiteId::new(2)]),
    );
    host.register(Arc::new(ReplicaRpc::new(catalog)));
    let sessions = AnalysisSessionStore::new(stack.grid.clone());
    host.register(Arc::new(AnalysisSessionRpc::new(sessions)));
    host.register_web(stack.steering.web_handler());
    host
}

/// The demo deployment, unserved: a two-site grid (site 1 busy), its
/// stack and [`host`]. With a `store` directory that already holds a
/// store the stack is recovered from it; otherwise the stack is fresh
/// (persisted into `store` when given) and [`USER`]'s three-task demo
/// job 1 is submitted. Virtual time is not advanced.
pub fn demo(store: Option<&Path>) -> GaeResult<(Arc<ServiceStack>, Arc<ServiceHost>)> {
    let busy = SiteDescription::new(SiteId::new(1), "busy-cluster", 4, 1);
    let free = SiteDescription::new(SiteId::new(2), "free-tier2", 4, 2);
    let grid = GridBuilder::new().site_with_load(busy, 3.0).site(free);
    let recover = store.is_some_and(|dir| dir.read_dir().is_ok_and(|mut d| d.next().is_some()));
    let policy = SteeringPolicy::default();
    let stack = match store.map(PersistenceConfig::new) {
        Some(c) if recover => ServiceStack::recover_from_disk(grid.build(), policy, POLL, &c)?.0,
        Some(c) => ServiceStack::try_with_policy(grid.persist(c).build(), policy, POLL)?,
        None => ServiceStack::try_with_policy(grid.build(), policy, POLL)?,
    };
    let host = host(&stack);
    if !recover {
        // `host` registered USER before any service.
        let alice = host.sessions().user_id(USER).expect("invariant: host adds");
        let mut job = JobSpec::new(JobId::new(1), "demo-analysis", alice);
        for i in 1..=3u64 {
            job.add_task(
                TaskSpec::new(TaskId::new(i), format!("step-{i}"), "reco")
                    .with_cpu_demand(SimDuration::from_secs(1_800 * i)),
            );
        }
        stack.submit_job(job)?;
    }
    Ok((stack, host))
}

/// A running [`demo`] deployment: the door on the stack's own gate (so
/// the quota-derived classes and the published `gate` entity are about
/// this traffic) and the pump that moves virtual time 1:1 with the wall
/// clock, from zero at start.
///
/// Dropping a server stops the door and joins the pump but takes no
/// checkpoint: it loses what the last pump tick did not commit, as a
/// killed process would. [`Server::stop`] loses nothing acknowledged.
pub struct Server {
    /// The served stack.
    pub stack: Arc<ServiceStack>,
    /// The served host.
    pub host: Arc<ServiceHost>,
    /// The reactor serving the host. Declared before the pump, so it
    /// stops first.
    pub door: ReactorRpcServer,
    pump: Pump,
}

impl Server {
    /// Builds [`demo`]`(store)`, binds the door on `addr` and starts
    /// the pump.
    pub fn start(addr: &str, store: Option<&Path>) -> GaeResult<Server> {
        let (stack, host) = demo(store)?;
        let door = ReactorRpcServer::bind_gated(host.clone(), WORKERS, addr, stack.gate.clone())?;
        let (halt, halted) = mpsc::channel();
        let (pumped, start) = (stack.clone(), Instant::now());
        let pump = std::thread::Builder::new().spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = halted.recv_timeout(PUMP_PERIOD) {
                pumped.run_until(SimTime::from_secs_f64(start.elapsed().as_secs_f64()));
            }
        })?;
        Ok(Server {
            door,
            pump: Pump(halt, Some(pump)),
            stack,
            host,
        })
    }

    /// Stops accepting, lets the door's workers finish what they
    /// admitted, joins the pump and returns the commit index of one
    /// final checkpoint (`Ok(0)` without a store).
    pub fn stop(mut self) -> GaeResult<u64> {
        self.door.stop();
        let pumped = self.pump.halt();
        pumped.map_err(|_| GaeError::Io("the pump thread panicked".into()))?;
        self.stack.checkpoint()
    }
}

/// The thread that runs the stack up to the wall clock's time every
/// [`PUMP_PERIOD`] until told to halt; each `run_until` horizon is a
/// durable commit.
struct Pump(mpsc::Sender<()>, Option<std::thread::JoinHandle<()>>);

impl Pump {
    /// Halts the pump and waits for it; a pump that panicked (today a
    /// failed checkpoint inside `run_until`) hands its panic back.
    fn halt(&mut self) -> std::thread::Result<()> {
        let _ = self.0.send(());
        self.1.take().map_or(Ok(()), |pump| pump.join())
    }
}

impl Drop for Pump {
    /// Joins without re-raising: a pump that panicked has already
    /// reported why through the panic hook, and [`Server::stop`] is the
    /// path that returns it as an error.
    fn drop(&mut self) {
        let _ = self.halt();
    }
}
