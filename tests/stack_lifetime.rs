//! Stack lifetime (DESIGN.md §17 "Who may hold whom"): once a
//! [`ServiceStack`] and everything built over it are dropped, nothing
//! of it stays alive — not the grid, the observability hub, the gate,
//! the durable store, nor any service.
//!
//! A process that drops a stack and builds another (crash recovery, a
//! promoted follower, a restarted server) must get the old one's memory
//! back. Every way a stack is assembled is covered: `over`, gated and
//! persisted, replicated to followers, recovered from disk, served
//! through the reactor door, and the scenario runner's crash tick. The
//! direct paths hold a `Weak` to every part and require that none
//! upgrades; the scenario runner keeps its stacks to itself, so that
//! path is held to the heap its thread still owns afterwards.

use gae::durable::fault::unique_temp_dir;
use gae::gate::{BreakerConfig, TokenBucketConfig};
use gae::prelude::*;
use gae::rpc::{Rpc, ServiceHost, TcpRpcClient};
use gae::server::{Server, PASSWORD, USER};
use gae::trace::ScenarioSpec;
use gae::wire::Value;
use gae_bench::scenario::{run_scenario, ScenarioOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::{Arc, Weak};

thread_local! {
    /// Heap bytes this thread allocated and has not freed itself.
    static HELD: Cell<isize> = const { Cell::new(0) };
}

/// Counts, per thread, what the thread allocates minus what it frees:
/// a single-threaded run that frees everything it built nets zero,
/// whatever the other tests of this binary do meanwhile.
struct PerThread;

impl PerThread {
    fn add(bytes: isize) {
        let _ = HELD.try_with(|held| held.set(held.get() + bytes));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain statistic that
// never influences what is returned, and a const-initialised `Cell`
// thread-local neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::add(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: PerThread = PerThread;

/// `Weak` handles to the parts of one or more stacks, by name.
#[derive(Default)]
struct Watch(Vec<(String, Box<dyn Fn() -> bool>)>);

impl Watch {
    fn add<T: ?Sized + 'static>(&mut self, name: impl Into<String>, part: &Arc<T>) {
        let weak: Weak<T> = Arc::downgrade(part);
        self.0
            .push((name.into(), Box::new(move || weak.upgrade().is_some())));
    }

    /// The stack itself, its grid, hub, gate, store and replication tee
    /// when present, and every service.
    fn stack(&mut self, tag: &str, stack: &Arc<ServiceStack>) {
        self.add(format!("{tag} stack"), stack);
        self.add(format!("{tag} grid"), &stack.grid);
        self.add(format!("{tag} monitor"), stack.grid.monitor());
        self.add(format!("{tag} obs hub"), &stack.obs());
        self.add(format!("{tag} gate"), &stack.gate);
        self.add(format!("{tag} quota"), &stack.quota);
        self.add(format!("{tag} estimators"), &stack.estimators);
        self.add(format!("{tag} jobmon"), &stack.jobmon);
        self.add(format!("{tag} scheduler"), &stack.scheduler);
        self.add(format!("{tag} steering"), &stack.steering);
        self.add(format!("{tag} hist"), &stack.hist);
        if let Some(p) = stack.persistence() {
            self.add(format!("{tag} persistence"), &p);
        }
        if let Some(sink) = stack.replication() {
            self.add(format!("{tag} replication sink"), &sink);
        }
    }

    #[track_caller]
    fn assert_all_freed(&self) {
        let alive: Vec<&str> = self
            .0
            .iter()
            .filter(|(_, alive)| alive())
            .map(|(name, _)| name.as_str())
            .collect();
        assert!(
            alive.is_empty(),
            "still alive after every owner was dropped: {alive:?}"
        );
    }
}

fn grid_builder() -> GridBuilder {
    GridBuilder::new()
        .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 2, 1), 2.0)
        .site(SiteDescription::new(SiteId::new(2), "free", 2, 2))
}

fn gated_persisted(dir: &Path) -> Arc<Grid> {
    grid_builder()
        .persist(PersistenceConfig::new(dir).fsync(false))
        .gate(GateConfig {
            bucket: TokenBucketConfig::new(2.0, 1e-3),
            breaker: BreakerConfig::new(2, SimDuration::from_secs(30)),
            ..GateConfig::default()
        })
        .build()
}

/// Staged-input tasks, so the transfer plane (and its observer into
/// the hub) carries traffic, run past their completion; plus a few
/// admissions through the gate.
fn exercise(stack: &ServiceStack, job: u64, until: SimTime) {
    let mut spec = JobSpec::new(JobId::new(job), "lifetime", UserId::new(1));
    for i in 1..=3u64 {
        spec.add_task(
            TaskSpec::new(TaskId::new(job * 10 + i), format!("t{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(30 * i))
                .with_inputs(vec![FileRef::new(
                    format!("raw-{job}-{i}.root"),
                    40_000_000,
                )
                .with_replicas(vec![SiteId::new(1)])]),
        );
    }
    stack.submit_job(spec).expect("schedulable");
    let alice = Principal::user(UserId::new(1), "gae");
    for _ in 0..3 {
        let _ = stack.gate.admit(&alice);
    }
    stack.run_until(until);
}

#[test]
fn an_unpersisted_stack_is_freed() {
    let stack = ServiceStack::over(grid_builder().build());
    exercise(&stack, 1, SimTime::from_secs(300));
    let mut watch = Watch::default();
    watch.stack("over", &stack);
    drop(stack);
    watch.assert_all_freed();
}

#[test]
fn a_gated_persisted_stack_is_freed() {
    let dir = unique_temp_dir("stack-lifetime-persisted");
    let stack = ServiceStack::over(gated_persisted(&dir));
    exercise(&stack, 1, SimTime::from_secs(300));
    assert!(stack.persistence().is_some(), "the store is watched too");
    let mut watch = Watch::default();
    watch.stack("persisted", &stack);
    drop(stack);
    watch.assert_all_freed();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_replicated_stack_and_its_followers_are_freed() {
    let dir = unique_temp_dir("stack-lifetime-replicated");
    let stack = ServiceStack::over(gated_persisted(&dir));
    let followers = ReplicatedLog::attached(
        &dir.join("repl"),
        ReplConfig {
            followers: 2,
            fsync: false,
        },
    )
    .expect("follower cluster");
    stack
        .attach_replication(followers.clone())
        .expect("replication attach");
    exercise(&stack, 1, SimTime::from_secs(300));
    assert!(followers.stats().leader_commit > 0, "followers saw commits");
    let mut watch = Watch::default();
    watch.stack("replicated", &stack);
    watch.add("follower cluster", &followers);
    drop((stack, followers));
    watch.assert_all_freed();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crashed_stack_and_its_recovered_successor_are_freed() {
    let dir = unique_temp_dir("stack-lifetime-recovered");
    let stack = ServiceStack::over(gated_persisted(&dir));
    exercise(&stack, 1, SimTime::from_secs(60));
    let mut crashed = Watch::default();
    crashed.stack("crashed", &stack);
    drop(stack);
    crashed.assert_all_freed();

    let (recovered, report) = ServiceStack::recover_from_disk(
        grid_builder().build(),
        SteeringPolicy::default(),
        SimDuration::from_secs(5),
        &PersistenceConfig::new(&dir).fsync(false),
    )
    .expect("recovery");
    assert!(report.replayed_records > 0, "the crashed stack journaled");
    exercise(&recovered, 2, SimTime::from_secs(300));
    let mut watch = Watch::default();
    watch.stack("recovered", &recovered);
    assert!(recovered.persistence().is_some());
    drop(recovered);
    watch.assert_all_freed();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_served_stack_is_freed_once_its_server_stops() {
    let server = Server::start("127.0.0.1:0", None).expect("start");
    let mut client = TcpRpcClient::connect(server.door.addr());
    // One call on each lane: pooled through the gate's queue, and
    // inline on the reactor thread.
    let status = client
        .call("jobmon.job_status", vec![Value::from(1u64)])
        .expect("pooled call");
    assert_ne!(status, Value::Nil);
    assert_eq!(
        client.call("system.ping", vec![]).expect("inline call"),
        Value::from("pong")
    );
    client.login(USER, PASSWORD).expect("login");
    client
        .call("steering.my_jobs", vec![])
        .expect("logged-in call");
    // Let the pump run the stack at least once.
    std::thread::sleep(std::time::Duration::from_millis(300));

    let mut watch = Watch::default();
    watch.stack("served", &server.stack);
    watch.add("host", &server.host);
    assert_eq!(server.stop().expect("stop"), 0, "no store, no commits");
    drop(client);
    watch.assert_all_freed();
}

#[test]
fn a_hub_that_outlives_its_stack_keeps_the_clock_not_the_grid() {
    let stack = ServiceStack::over(grid_builder().build());
    exercise(&stack, 1, SimTime::from_secs(120));
    let host = ServiceHost::open();
    host.attach_obs(stack.obs());
    let gate = stack.gate.clone();
    let grid = Arc::downgrade(&stack.grid);
    drop(stack);
    assert!(grid.upgrade().is_none(), "the hub or gate holds the grid");
    // Both still tell the time the grid stopped at.
    let hub = host.obs().expect("attached");
    assert_eq!(hub.now(), SimTime::from_secs(120));
    assert_eq!(gate.clock().now(), SimTime::from_secs(120));
}

#[test]
fn the_scenario_runner_frees_its_crashed_and_final_stacks() {
    let spec = ScenarioSpec::chaos_grid(2005).smoke();
    assert!(
        spec.crash_at_s.is_some(),
        "chaos grid declares a crash tick"
    );
    let run = |dir: &Path| {
        let report = run_scenario(
            &spec,
            &ScenarioOptions {
                crash: true,
                persist_dir: Some(dir.to_path_buf()),
                ..ScenarioOptions::default()
            },
        );
        assert!(
            report.invariant_failures.is_empty(),
            "{:?}",
            report.invariant_failures
        );
    };
    let (warm, measured) = (
        unique_temp_dir("stack-lifetime-scenario-warm"),
        unique_temp_dir("stack-lifetime-scenario"),
    );
    // The first run pays whatever the process allocates once.
    run(&warm);
    let before = HELD.with(Cell::get);
    run(&measured);
    let held = HELD.with(Cell::get) - before;
    println!("a crash-tick scenario run left {held} B on its thread's heap");
    assert!(
        held < 64 << 10,
        "a crash-tick scenario run left {held} B of its stacks on the heap"
    );
    for dir in [warm, measured] {
        std::fs::remove_dir_all(&dir).ok();
    }
}
