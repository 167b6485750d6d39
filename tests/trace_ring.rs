//! The trace ring's contract (DESIGN.md §10): a door that answers
//! requests for ever holds a bounded window of their traces — in
//! count and in heap — while the trace of a submitted job stays
//! retrievable by CondorId however many requests come after it.
//!
//! This binary installs a counting allocator (test-local: an
//! integration test is its own process) and is one test, so nothing
//! else allocates while it measures.

use gae::core::jobmon::JobMonitoringRpc;
use gae::core::TraceRpc;
use gae::obs::RING_CAPACITY;
use gae::prelude::*;
use gae::rpc::http::HttpRequest;
use gae::rpc::{process_request, CallContext, Service, ServiceHost};
use gae::wire::{write_call, MethodCall, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Live heap bytes.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain statistic and
// never influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM: u64 = 20_000;
const FLOOD: u64 = 200_000;
const MB: usize = 1 << 20;

#[test]
fn request_traces_are_bounded_and_job_traces_are_not_evicted() {
    // One job, run to completion: its tasks' traces are CondorId-bound.
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "farm", 4, 2))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "traced", UserId::new(1));
    job.add_task(
        TaskSpec::new(TaskId::new(1), "t1", "reco").with_cpu_demand(SimDuration::from_secs(40)),
    );
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(120));
    let condor = stack.jobmon.job_info(TaskId::new(1)).unwrap().condor.raw();
    let hub = stack.obs();
    let rendered = hub.render_condor(condor).expect("job trace");
    let published = |stack: &ServiceStack| {
        let key = gae::monitor::MetricKey::new(SiteId::new(0), "obs", "trace_evictions");
        stack.grid.monitor().latest(&key).map(|s| s.value)
    };
    assert_eq!(hub.traces().evicted(), 0);
    assert!(
        published(&stack).is_none(),
        "nothing evicted, nothing published"
    );

    // The door, in process: every request mints a trace.
    let host = ServiceHost::open();
    host.register(Arc::new(JobMonitoringRpc::new(stack.jobmon.clone())));
    host.attach_obs(hub.clone());
    let request = HttpRequest::xmlrpc(
        write_call(&MethodCall::new(
            "jobmon.job_status",
            vec![Value::from(1u64)],
        ))
        .into_bytes(),
        None,
    );
    let before = hub.traces().len();
    let serve = |calls: u64| {
        for _ in 0..calls {
            let body = process_request(&host, &request, "127.0.0.1:1");
            assert!(body.len() > 100);
        }
    };
    serve(WARM);
    let warm = LIVE.load(Ordering::Relaxed);
    serve(FLOOD - WARM);
    let flooded = LIVE.load(Ordering::Relaxed);

    // Bounded in count ...
    let jobs = before as u64; // every trace held before the door opened is a job's
    assert_eq!(hub.traces().len() as u64, jobs + RING_CAPACITY as u64);
    assert_eq!(hub.traces().evicted(), FLOOD - RING_CAPACITY as u64);
    // ... and in heap: ten times the requests, the same memory.
    println!("live heap: {warm} B after {WARM} requests, {flooded} B after {FLOOD}");
    assert!(
        flooded.abs_diff(warm) < MB,
        "live heap {warm} B after {WARM} requests, {flooded} B after {FLOOD}"
    );

    // The job's trace came through untouched, by every route.
    assert_eq!(hub.render_condor(condor).as_deref(), Some(&rendered[..]));
    let trace_rpc = TraceRpc::new(hub.clone());
    let tree = trace_rpc
        .call(
            &CallContext::anonymous("test"),
            "get",
            &[Value::from(condor)],
        )
        .expect("trace.get after the flood");
    let Value::Array(spans) = tree.member("spans").unwrap() else {
        panic!("spans should be an array: {tree:?}");
    };
    assert!(spans.len() >= 4, "root + submit + run + collect: {spans:?}");

    // And the next poll publishes the eviction count.
    stack.run_until(SimTime::from_secs(180));
    assert_eq!(
        published(&stack),
        Some((FLOOD - RING_CAPACITY as u64) as f64)
    );
}
