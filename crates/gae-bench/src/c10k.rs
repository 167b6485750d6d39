//! C10k overload sweep: the ROADMAP's "10k+ concurrent clients"
//! target, measured — and, at the paper's client counts (`c10k_sweep
//! 1 2 3 5 25 50 100`), Figure 6 re-run behind the admission gate.
//!
//! The Figure 6 testbed (16 workers, fixed service time, gae-gate
//! admission) is kept intact behind the `gae-aio` reactor; what
//! changes is the client count, pushed to 10,000 keep-alive
//! connections. Where the original curve climbs without bound, the
//! bounded admission queue keeps the latency of *admitted* requests
//! flat and converts the excess into typed `Overloaded` faults carrying
//! a retry-after (DESIGN.md §9); each row measures both halves. The client side is honest about scale too: one
//! driver thread holds every client socket nonblocking on its own
//! [`gae_aio::Poller`], with `gae-rpc`'s incremental [`FrameParser`]
//! reading responses, so the harness itself never needs 10k threads.
//!
//! Process budget: this box caps each process at 20k fds, so the full
//! 10k sweep runs the client fleet in a child process (see the
//! `c10k_sweep` binary); in-process driving is for ≤ ~4k connections
//! (tests, CI smoke).

use gae_aio::{Event, Interest, Poller, ReactorRpcServer};
use gae_gate::{Gate, GateConfig, QueueConfig, TokenBucketConfig, WallClock};
use gae_rpc::http::{FrameLimits, FrameParser, HttpRequest};
use gae_rpc::{CallContext, MethodInfo, Service, ServiceHost};
use gae_types::{GaeError, GaeResult, SimDuration};
use gae_wire::{write_call, MethodCall, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct C10kConfig {
    /// Requests each client issues over its keep-alive connection.
    pub requests_per_client: usize,
    /// Server worker-pool size (service capacity).
    pub workers: usize,
    /// Emulated per-request service time, in milliseconds.
    pub service_delay_ms: u64,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Admission-queue deadline, in milliseconds.
    pub queue_deadline_ms: u64,
    /// Whole-fleet wall-clock budget; unfinished requests count as
    /// errors rather than hanging the harness.
    pub fleet_deadline: Duration,
}

impl Default for C10kConfig {
    /// 16 workers × 2 ms: enough service capacity that admitted
    /// latency has a visible plateau, small enough that 10k clients
    /// overload it thoroughly.
    fn default() -> Self {
        C10kConfig {
            requests_per_client: 5,
            workers: 16,
            service_delay_ms: 2,
            queue_capacity: 32,
            queue_deadline_ms: 2_000,
            fleet_deadline: Duration::from_secs(120),
        }
    }
}

/// Client-fleet totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientTotals {
    /// Requests answered with an XML-RPC success.
    pub admitted: u64,
    /// Summed latency of admitted requests.
    pub admitted_sum: Duration,
    /// Worst admitted-request latency.
    pub admitted_max: Duration,
    /// Requests refused with a typed `Overloaded`/`RateLimited` fault.
    pub shed: u64,
    /// Summed turnaround of shed requests.
    pub shed_sum: Duration,
    /// Anything else: transport errors, non-200 statuses, fleet
    /// deadline expiry. Zero in a healthy sweep — the acceptance
    /// rule "typed-fault-only rejections".
    pub errors: u64,
}

impl ClientTotals {
    /// Merges another fleet's totals into this one.
    pub fn merge(&mut self, other: &ClientTotals) {
        self.admitted += other.admitted;
        self.admitted_sum += other.admitted_sum;
        self.admitted_max = self.admitted_max.max(other.admitted_max);
        self.shed += other.shed;
        self.shed_sum += other.shed_sum;
        self.errors += other.errors;
    }

    /// Serialises as one whitespace-separated line (child→parent IPC).
    pub fn to_line(&self) -> String {
        format!(
            "C10K admitted={} admitted_sum_us={} admitted_max_us={} shed={} shed_sum_us={} errors={}",
            self.admitted,
            self.admitted_sum.as_micros(),
            self.admitted_max.as_micros(),
            self.shed,
            self.shed_sum.as_micros(),
            self.errors
        )
    }

    /// Parses [`Self::to_line`] output.
    pub fn from_line(line: &str) -> Option<ClientTotals> {
        let mut t = ClientTotals::default();
        if !line.starts_with("C10K ") {
            return None;
        }
        for field in line.split_whitespace().skip(1) {
            let (k, v) = field.split_once('=')?;
            let n: u64 = v.parse().ok()?;
            match k {
                "admitted" => t.admitted = n,
                "admitted_sum_us" => t.admitted_sum = Duration::from_micros(n),
                "admitted_max_us" => t.admitted_max = Duration::from_micros(n),
                "shed" => t.shed = n,
                "shed_sum_us" => t.shed_sum = Duration::from_micros(n),
                "errors" => t.errors = n,
                _ => return None,
            }
        }
        Some(t)
    }
}

/// One row of the C10k table.
#[derive(Clone, Copy, Debug)]
pub struct C10kRow {
    /// Concurrent keep-alive clients.
    pub clients: usize,
    /// Fleet totals.
    pub totals: ClientTotals,
    /// Mean admitted latency, milliseconds.
    pub admitted_mean_ms: f64,
    /// Worst admitted latency, milliseconds.
    pub admitted_max_ms: f64,
    /// Mean shed turnaround, milliseconds.
    pub shed_mean_ms: f64,
    /// Highest admission-queue depth the gate observed.
    pub peak_queue_depth: usize,
    /// Highest concurrently-open server-side connection count
    /// observed.
    pub peak_open_connections: u64,
    /// Wall-clock time the whole row took.
    pub wall: Duration,
}

impl C10kRow {
    fn build(
        clients: usize,
        totals: ClientTotals,
        peak_queue_depth: usize,
        peak_open_connections: u64,
        wall: Duration,
    ) -> C10kRow {
        let mean_ms = |sum: Duration, n: u64| {
            if n == 0 {
                0.0
            } else {
                sum.as_secs_f64() * 1000.0 / n as f64
            }
        };
        C10kRow {
            clients,
            admitted_mean_ms: mean_ms(totals.admitted_sum, totals.admitted),
            admitted_max_ms: totals.admitted_max.as_secs_f64() * 1000.0,
            shed_mean_ms: mean_ms(totals.shed_sum, totals.shed),
            totals,
            peak_queue_depth,
            peak_open_connections,
            wall,
        }
    }
}

/// A fixed-cost method standing in for the 2005 monitoring service.
struct DelayRpc {
    delay: Duration,
}

impl Service for DelayRpc {
    fn name(&self) -> &'static str {
        "bench"
    }
    fn call(&self, _ctx: &CallContext, method: &str, _params: &[Value]) -> GaeResult<Value> {
        match method {
            "work" => {
                if !self.delay.is_zero() {
                    std::thread::sleep(self.delay);
                }
                Ok(Value::from(1u64))
            }
            other => Err(GaeError::NotFound(format!("bench.{other}"))),
        }
    }
    fn methods(&self) -> Vec<MethodInfo> {
        vec![MethodInfo {
            name: "work",
            help: "fixed-cost request",
        }]
    }
}

/// A gate whose bounded queue is its only shedding mechanism: every
/// bench client is the anonymous principal, and per-principal rate
/// limiting is not what these harnesses measure.
pub fn queue_only_gate(capacity: usize, deadline: SimDuration) -> Arc<Gate> {
    Gate::new(
        GateConfig {
            bucket: TokenBucketConfig::new(1e9, 1e9),
            queue: QueueConfig::new(capacity, deadline),
            ..GateConfig::default()
        },
        Arc::new(WallClock::new()),
    )
}

/// Per-client state in the nonblocking fleet.
struct FleetConn {
    stream: TcpStream,
    parser: FrameParser,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    out_off: usize,
    remaining: usize,
    t0: Instant,
    interest: Interest,
}

/// Drives `clients` concurrent keep-alive connections against `addr`
/// from ONE thread: nonblocking sockets on a [`Poller`], each issuing
/// `requests_per_client` sequential `bench.work` calls. This is the
/// honest C10k client side — no thread-per-client anywhere.
pub fn drive_clients(
    addr: SocketAddr,
    clients: usize,
    requests_per_client: usize,
    fleet_deadline: Duration,
) -> GaeResult<ClientTotals> {
    let request_bytes = {
        let body = write_call(&MethodCall::new("bench.work", vec![])).into_bytes();
        let mut buf = Vec::new();
        HttpRequest::xmlrpc(body, None)
            .write_to(&mut buf)
            .expect("vec write");
        buf
    };
    let mut poller = Poller::new().map_err(|e| GaeError::Io(format!("poller: {e}")))?;
    let mut conns: Vec<Option<FleetConn>> = Vec::with_capacity(clients);
    let mut totals = ClientTotals::default();
    let started = Instant::now();

    // Ramp-up: blocking connects (loopback, instant), then switch
    // each socket nonblocking, register it, and fire its first
    // request. The server is already absorbing load mid-ramp.
    for i in 0..clients {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| GaeError::Io(format!("connect client {i}: {e}")))?;
        stream.set_nodelay(true).ok();
        stream
            .set_nonblocking(true)
            .map_err(|e| GaeError::Io(format!("nonblocking: {e}")))?;
        let mut conn = FleetConn {
            stream,
            parser: FrameParser::new(FrameLimits::DEFAULT),
            inbuf: Vec::new(),
            out: request_bytes.clone(),
            out_off: 0,
            remaining: requests_per_client,
            t0: Instant::now(),
            interest: Interest::READ,
        };
        let interest = pump_write(&mut conn);
        conn.interest = interest;
        poller
            .add(conn.stream.as_raw_fd(), i as u64, interest)
            .map_err(|e| GaeError::Io(format!("register: {e}")))?;
        conns.push(Some(conn));
    }

    let mut live = clients;
    let mut events: Vec<Event> = Vec::new();
    while live > 0 {
        if started.elapsed() > fleet_deadline {
            // Fleet budget blown: count every unfinished request as
            // an error and stop, rather than hanging the harness.
            for conn in conns.iter().flatten() {
                totals.errors += conn.remaining as u64;
            }
            break;
        }
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .map_err(|e| GaeError::Io(format!("wait: {e}")))?;
        for &ev in &events {
            let slot = ev.token as usize;
            let Some(conn) = conns[slot].as_mut() else {
                continue;
            };
            let mut dead = false;
            if ev.readable || ev.hangup {
                dead = pump_read(conn, &request_bytes, &mut totals);
            }
            if !dead && ev.writable {
                let want = pump_write(conn);
                if want != conn.interest {
                    conn.interest = want;
                    let fd = conn.stream.as_raw_fd();
                    let _ = poller.modify(fd, ev.token, want);
                }
            }
            let finished = conn.remaining == 0 && conn.out_off >= conn.out.len();
            if dead || finished {
                if dead {
                    totals.errors += conn.remaining as u64;
                }
                let fd = conn.stream.as_raw_fd();
                let _ = poller.remove(fd);
                conns[slot] = None;
                live -= 1;
            }
        }
    }
    Ok(totals)
}

/// Writes as much queued output as the socket allows; returns the
/// interest the connection now needs.
fn pump_write(conn: &mut FleetConn) -> Interest {
    while conn.out_off < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_off..]) {
            Ok(0) => break,
            Ok(n) => conn.out_off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    if conn.out_off < conn.out.len() {
        Interest::READ_WRITE
    } else {
        Interest::READ
    }
}

/// Reads and classifies whatever responses are available. Returns
/// `true` when the connection is dead.
fn pump_read(conn: &mut FleetConn, request_bytes: &[u8], totals: &mut ClientTotals) -> bool {
    let mut buf = [0u8; 8 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    while !conn.inbuf.is_empty() && conn.remaining > 0 {
        let consumed = match conn.parser.feed(&conn.inbuf) {
            Ok(n) => n,
            Err(_) => {
                totals.errors += 1;
                return true;
            }
        };
        conn.inbuf.drain(..consumed);
        if !conn.parser.is_complete() {
            break;
        }
        let response = match conn.parser.take_response() {
            Ok(r) => r,
            Err(_) => {
                totals.errors += 1;
                return true;
            }
        };
        let latency = conn.t0.elapsed();
        if response.status != 200 {
            totals.errors += 1;
            return true; // server said goodbye (408/413/503)
        }
        match gae_wire::parse_response(&response.body).map(|r| r.into_result()) {
            Ok(Ok(_)) => {
                totals.admitted += 1;
                totals.admitted_sum += latency;
                totals.admitted_max = totals.admitted_max.max(latency);
            }
            Ok(Err(GaeError::Overloaded { .. })) | Ok(Err(GaeError::RateLimited { .. })) => {
                totals.shed += 1;
                totals.shed_sum += latency;
            }
            _ => totals.errors += 1,
        }
        conn.remaining -= 1;
        if conn.remaining > 0 {
            conn.out = request_bytes.to_vec();
            conn.out_off = 0;
            conn.t0 = Instant::now();
            let _ = pump_write(conn);
        }
    }
    false
}

/// One full row with a caller-supplied client fleet: starts the
/// Figure-6 delay service behind the gate, samples peak open
/// connections while `fleet` runs, and folds gate stats into the row.
/// The `c10k_sweep` binary passes a fleet that runs in a child process
/// (own fd budget) for the full 10k; tests pass [`drive_clients`]
/// directly.
pub fn c10k_with_fleet(
    clients: usize,
    config: C10kConfig,
    fleet: impl FnOnce(SocketAddr) -> GaeResult<ClientTotals>,
) -> GaeResult<C10kRow> {
    let host = ServiceHost::open();
    host.register(Arc::new(DelayRpc {
        delay: Duration::from_millis(config.service_delay_ms),
    }));
    let gate = queue_only_gate(
        config.queue_capacity,
        SimDuration::from_millis(config.queue_deadline_ms),
    );
    let server = ReactorRpcServer::start_gated(host, config.workers, gate.clone())?;
    let t0 = Instant::now();
    let gauge = server.open_connections_handle();
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut peak = 0u64;
            while !stop.load(Ordering::Acquire) {
                peak = peak.max(gauge.load(Ordering::Relaxed));
                std::thread::sleep(Duration::from_millis(20));
            }
            peak.max(gauge.load(Ordering::Relaxed))
        })
    };
    let totals = fleet(server.addr());
    let wall = t0.elapsed();
    stop.store(true, Ordering::Release);
    let peak_open = sampler.join().unwrap_or(0);
    server.stop();
    Ok(C10kRow::build(
        clients,
        totals?,
        gate.stats().peak_queue_depth,
        peak_open,
        wall,
    ))
}

/// One full in-process row: server + client fleet in this process.
/// fd budget limits this to ≤ ~4k clients; the `c10k_sweep` binary
/// shells the fleet out to a child process for the full 10k.
pub fn c10k_in_process(clients: usize, config: C10kConfig) -> GaeResult<C10kRow> {
    assert!(
        clients <= 4_000,
        "in-process mode holds client+server fds in one 20k-fd process; \
         use the c10k_sweep binary's child-process driver beyond 4k"
    );
    c10k_with_fleet(clients, config, |addr| {
        drive_clients(
            addr,
            clients,
            config.requests_per_client,
            config.fleet_deadline,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_row_sheds_and_bounds_admitted_latency() {
        // 12 clients vs 2 workers × 5 ms with a 3-slot queue: heavy
        // shedding, but admitted latency stays near (queue+1) × 5 ms.
        let config = C10kConfig {
            requests_per_client: 6,
            workers: 2,
            service_delay_ms: 5,
            queue_capacity: 3,
            queue_deadline_ms: 1_000,
            ..C10kConfig::default()
        };
        let calm = c10k_in_process(1, config).expect("calm row");
        let storm = c10k_in_process(12, config).expect("storm row");
        assert_eq!(calm.totals.admitted, 6, "an unloaded client is never shed");
        assert_eq!(calm.totals.shed, 0);
        assert_eq!(
            storm.totals.admitted + storm.totals.shed,
            72,
            "every request accounted"
        );
        assert!(
            storm.totals.shed > 0,
            "12 clients on 2+3 capacity must shed"
        );
        assert!(storm.peak_queue_depth <= 3, "queue depth bounded");
        assert!(
            storm.admitted_max_ms < 500.0,
            "admitted latency stays bounded under overload, got {:.1} ms",
            storm.admitted_max_ms
        );
    }
}
