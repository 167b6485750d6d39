//! Figure-6-style overload experiment over real TCP (ISSUE 3): the
//! paper measures response time collapsing as parallel clients exceed
//! the Clarens server's capacity. With the admission gate in front,
//! overload must instead surface as *typed* `Overloaded` faults with
//! a machine-readable retry-after: queue depth stays bounded, every
//! admitted request completes, nothing hangs and nothing panics.
//!
//! Plus the determinism half of the satellite: a 256-case property
//! test that the token bucket's admit/deny sequence is a pure
//! function of (config, arrival sequence).

use gae::aio::ReactorRpcServer;
use gae::gate::{Gate, GateConfig, QueueConfig, TokenBucket, TokenBucketConfig, WallClock};
use gae::prelude::*;
use gae::rpc::{CallContext, MethodInfo, Rpc, Service, ServiceHost, TcpRpcClient};
use gae::wire::Value;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A deliberately slow method: each call holds a worker for ~20 ms,
/// so a handful of parallel clients outruns two workers immediately.
struct SlowRpc;

impl Service for SlowRpc {
    fn name(&self) -> &'static str {
        "slow"
    }

    fn call(&self, _ctx: &CallContext, method: &str, _params: &[Value]) -> GaeResult<Value> {
        match method {
            "work" => {
                std::thread::sleep(Duration::from_millis(20));
                Ok(Value::from(1u64))
            }
            other => Err(GaeError::NotFound(format!("slow.{other}"))),
        }
    }

    fn methods(&self) -> Vec<MethodInfo> {
        vec![MethodInfo {
            name: "work",
            help: "sleep 20 ms and return",
        }]
    }
}

const QUEUE_CAPACITY: usize = 4;
const CLIENTS: usize = 12;
const CALLS_PER_CLIENT: usize = 8;

/// N parallel clients against a workers=2 gated server, 4× past
/// capacity: the bounded queue sheds with typed faults instead of
/// buffering without limit, and everything it admits completes.
#[test]
fn overload_sheds_typed_faults_and_bounds_the_queue() {
    let host = ServiceHost::open();
    host.register(Arc::new(SlowRpc));

    // Roomy bucket (rate limiting is not under test here), tight
    // queue: 4 slots, half-second patience.
    let gate = Gate::new(
        GateConfig {
            bucket: TokenBucketConfig::new(1e6, 1e6),
            queue: QueueConfig::new(QUEUE_CAPACITY, SimDuration::from_millis(500)),
            ..GateConfig::default()
        },
        Arc::new(WallClock::new()),
    );
    let server = ReactorRpcServer::start_gated(host, 2, gate.clone()).unwrap();
    let addr = server.addr();

    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut client = TcpRpcClient::connect(addr);
            let (mut ok, mut overloaded, mut other) = (0u64, 0u64, 0u64);
            for _ in 0..CALLS_PER_CLIENT {
                match client.call("slow.work", vec![]) {
                    Ok(v) => {
                        assert_eq!(v.as_u64().unwrap(), 1);
                        ok += 1;
                    }
                    Err(GaeError::Overloaded { retry_after_us, .. }) => {
                        assert!(retry_after_us > 0, "retry-after must be machine-usable");
                        overloaded += 1;
                    }
                    Err(e) => {
                        eprintln!("unexpected error under overload: {e}");
                        other += 1;
                    }
                }
            }
            (ok, overloaded, other)
        }));
    }

    let (mut ok, mut overloaded, mut other) = (0u64, 0u64, 0u64);
    for h in handles {
        let (o, s, x) = h.join().expect("client thread must not panic");
        ok += o;
        overloaded += s;
        other += x;
    }

    let total = (CLIENTS * CALLS_PER_CLIENT) as u64;
    assert_eq!(
        ok + overloaded + other,
        total,
        "every request accounted for"
    );
    assert_eq!(other, 0, "only Ok or typed Overloaded under overload");
    assert!(ok > 0, "admitted requests must complete");
    assert!(
        overloaded > 0,
        "{CLIENTS} clients vs 2 workers + {QUEUE_CAPACITY} slots must shed"
    );

    let stats = gate.stats();
    assert!(
        stats.peak_queue_depth <= QUEUE_CAPACITY,
        "queue depth bounded: peak {} > capacity {QUEUE_CAPACITY}",
        stats.peak_queue_depth
    );
    assert_eq!(stats.total_admitted(), total, "bucket admitted everyone");
    assert!(
        stats.total_rejected() >= overloaded,
        "gate counters cover every shed fault"
    );

    // The server is still healthy after the storm.
    let mut client = TcpRpcClient::connect(addr);
    assert_eq!(
        client.call("system.ping", vec![]).unwrap(),
        Value::from("pong")
    );
    server.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The token bucket's decisions are a pure function of
    /// (config, arrival sequence): replaying the same arrivals
    /// through a fresh bucket yields the identical admit/deny/retry
    /// trace, byte for byte.
    #[test]
    fn bucket_decisions_are_pure_function_of_arrivals(
        burst in 1.0f64..8.0,
        rate in 0.1f64..50.0,
        deltas in proptest::collection::vec(0u64..500_000, 1..40usize),
    ) {
        let config = TokenBucketConfig::new(burst, rate);
        let mut now = 0u64;
        let arrivals: Vec<SimTime> = deltas
            .iter()
            .map(|d| {
                now += d;
                SimTime::from_micros(now)
            })
            .collect();
        let replay = || -> Vec<Result<(), SimDuration>> {
            let mut bucket = TokenBucket::new(config, SimTime::ZERO);
            arrivals.iter().map(|t| bucket.try_take(*t)).collect()
        };
        let first = replay();
        let second = replay();
        prop_assert_eq!(&first, &second);
        // The burst prefix is admitted; every denial names a finite,
        // positive back-off.
        let prefix = (config.capacity as usize).min(arrivals.len());
        prop_assert!(first[..prefix].iter().all(|d| d.is_ok()));
        for d in &first {
            if let Err(retry) = d {
                prop_assert!(*retry > SimDuration::ZERO);
            }
        }
    }
}
