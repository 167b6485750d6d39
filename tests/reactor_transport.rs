//! The `gae-aio` reactor front door under hostile and awkward
//! clients: mid-request disconnects, partial writes through a tiny
//! kernel send buffer, pipelined requests — and the contract that
//! matters most, blocking-vs-reactor response equivalence: the
//! reactor is checked against [`BlockingOracle`], a thread-per-
//! connection loop over the same public `gae_rpc::door` dispatch and
//! `gae_rpc::http` framing, so the same bytes in must produce the
//! same bytes out.
//!
//! Calls a service marks `inline` run to completion on the reactor
//! thread (DESIGN.md §16); the second half of this file holds that
//! lane to its promises: neither lane holds up the other, replies keep
//! request order across lanes, the gate accounts an inline call
//! exactly once, and a half-written inline reply dies with its
//! connection.

mod door;

use door::open_gate;
use gae::aio::reactor::INLINE_BUDGET;
use gae::aio::{ReactorConfig, ReactorRpcServer};
use gae::gate::{Gate, GateConfig, QueueConfig, TokenBucketConfig, WallClock};
use gae::rpc::door::{Deliver, DoorBackend, Submitted};
use gae::rpc::http::{read_response, FrameLimits, FrameParser, HttpRequest, HttpResponse};
use gae::rpc::service::{CallContext, MethodInfo, Service};
use gae::rpc::{Rpc, ServiceHost, TcpRpcClient};
use gae::types::{GaeError, GaeResult, SimDuration};
use gae::wire::{write_call, MethodCall, Value};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reference the reactor is compared against: an acceptor thread
/// hands each connection to its own thread, which frames requests
/// with a blocking loop over the same `FrameParser` and waits on the
/// door for each answer.
/// Simple enough to be obviously right, and it collapses in the low
/// thousands of sockets — which is why it lives here and not in a
/// crate.
struct BlockingOracle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl BlockingOracle {
    fn start(
        host: Arc<ServiceHost>,
        workers: usize,
        gate: Arc<Gate>,
        request_deadline: Duration,
    ) -> BlockingOracle {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let shutdown = shutdown.clone();
            std::thread::spawn(move || {
                let door = Arc::new(DoorBackend::new(workers, gate));
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                while !shutdown.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, peer)) => {
                            let (host, door, shutdown) =
                                (host.clone(), door.clone(), shutdown.clone());
                            conns.push(std::thread::spawn(move || {
                                serve_blocking(host, door, stream, peer, shutdown, request_deadline)
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for t in conns {
                    let _ = t.join();
                }
            })
        };
        BlockingOracle {
            addr,
            shutdown,
            acceptor,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::Release);
        self.acceptor.join().unwrap();
    }
}

/// One connection of the oracle: frame, door, respond, keep-alive.
fn serve_blocking(
    host: Arc<ServiceHost>,
    door: Arc<DoorBackend>,
    stream: TcpStream,
    peer: SocketAddr,
    shutdown: Arc<AtomicBool>,
    request_deadline: Duration,
) {
    let _ = stream.set_nodelay(true);
    // The read timeout is the poll tick: it lets the thread notice
    // shutdown on an idle client and re-check the deadline on a slow
    // one.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let goodbye = |writer: &mut TcpStream, status, reason, why: &str| {
        let _ = HttpResponse::error(status, reason, why).write_to(writer);
    };
    while !shutdown.load(Ordering::Acquire) {
        let request = match next_request(&mut reader, request_deadline) {
            Ok(Some(r)) => r,
            Ok(None) => return,                    // clean close
            Err(GaeError::Timeout(_)) => continue, // idle poll tick
            Err(GaeError::RequestTimeout(why)) => {
                return goodbye(&mut writer, 408, "Request Timeout", &why)
            }
            Err(GaeError::PayloadTooLarge(why)) => {
                return goodbye(&mut writer, 413, "Payload Too Large", &why)
            }
            Err(_) => return goodbye(&mut writer, 400, "Bad Request", "malformed HTTP"),
        };
        let keep_alive = request.keep_alive();
        let response = if request.method == "GET" {
            match host.handle_get(&request.path) {
                Some((content_type, body)) => {
                    let mut r = HttpResponse::ok_xml(body);
                    r.headers[0] = ("Content-Type".to_string(), content_type);
                    r
                }
                None => HttpResponse::error(404, "Not Found", "no such page"),
            }
        } else if request.method != "POST" {
            return goodbye(
                &mut writer,
                405,
                "Method Not Allowed",
                "use POST /RPC2 or GET",
            );
        } else {
            // The door delivers exactly once (result, fault, or typed
            // overload), so this recv completes unless the backend
            // vanished mid-request.
            let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(1);
            let deliver: Deliver = Box::new(move |body| {
                let _ = tx.send(body);
            });
            // A thread per connection has no loop to keep fair: inline
            // whenever the method is marked.
            match door.submit(&host, request, &peer.to_string(), true, deliver) {
                Submitted::Inline(body) => HttpResponse::ok_xml(body),
                Submitted::Pooled => match rx.recv() {
                    Ok(body) => HttpResponse::ok_xml(body),
                    Err(_) => return,
                },
            }
        };
        if response.write_to(&mut writer).is_err() || !keep_alive {
            return;
        }
    }
}

/// Frames the next request off `reader` for the oracle, mirroring the
/// reactor's read path: a fresh `FrameParser` fed from the buffer
/// (pipelined bytes stay there), and the reactor's deadline sweep as a
/// budget that runs from the request's first byte, checked after every
/// read and on every poll tick. `Ok(None)` is a clean close, and
/// `Timeout` a poll tick on an idle connection.
fn next_request(
    reader: &mut BufReader<TcpStream>,
    budget: Duration,
) -> GaeResult<Option<HttpRequest>> {
    let mut parser = FrameParser::new(FrameLimits::DEFAULT);
    let mut started: Option<Instant> = None;
    while !parser.is_complete() {
        match reader.fill_buf() {
            Ok([]) if started.is_none() => return Ok(None),
            Ok([]) => return Err(GaeError::Io("closed mid-request".into())),
            Ok(chunk) => {
                let taken = parser.feed(chunk)?;
                reader.consume(taken);
                started.get_or_insert_with(Instant::now);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if started.is_none() {
                    return Err(GaeError::Timeout("idle connection".into()));
                }
            }
            Err(e) => return Err(e.into()),
        }
        if started.is_some_and(|t| t.elapsed() > budget) {
            return Err(GaeError::RequestTimeout(format!(
                "request not complete within {} ms",
                budget.as_millis()
            )));
        }
    }
    parser.take_request().map(Some)
}

/// The test service. Its `i*` methods are marked inline; the two
/// counters let a test see what the server is doing without sleeping
/// on a guess.
#[derive(Default)]
struct Echo {
    /// `test.sleep` calls currently holding a worker.
    sleeping: AtomicU64,
    /// `test.itick` calls run so far.
    ticks: AtomicU64,
}

impl Service for Echo {
    fn name(&self) -> &'static str {
        "test"
    }
    fn inline(&self, method: &str) -> bool {
        matches!(method, "isum" | "ifail" | "itick")
    }
    fn call(&self, _ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        match method {
            "sum" | "isum" => {
                let mut s = 0i64;
                for p in params {
                    s += p.as_i64()?;
                }
                Ok(Value::Int64(s))
            }
            // A response much larger than a minimal socket buffer:
            // forces the reactor through its partial-write path.
            "blob" => {
                let n = usize::try_from(params[0].as_i64()?).unwrap_or(0);
                Ok(Value::from("x".repeat(n)))
            }
            // Occupies a worker for a while: lets a test wedge the
            // admission queue deterministically.
            "sleep" => {
                let ms = u64::try_from(params[0].as_i64()?).unwrap_or(0);
                self.sleeping.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(ms));
                self.sleeping.fetch_sub(1, Ordering::SeqCst);
                Ok(Value::Int64(0))
            }
            // Stalls whichever thread runs it for a moment — the
            // reactor itself when inline — and counts; echoes its
            // argument so a reader can check reply order.
            "itick" => {
                std::thread::sleep(Duration::from_micros(200));
                self.ticks.fetch_add(1, Ordering::SeqCst);
                Ok(params[0].clone())
            }
            // How many `itick`s had run when a worker got to this.
            "ticks" => Ok(Value::Int64(self.ticks.load(Ordering::SeqCst) as i64)),
            "fail" | "ifail" => Err(GaeError::ExecutionFailure("deliberate".into())),
            other => Err(gae::rpc::service::unknown_method("test", other)),
        }
    }
    /// The host answers only the methods a service lists.
    fn methods(&self) -> Vec<MethodInfo> {
        let names = [
            "sum", "isum", "blob", "sleep", "itick", "ticks", "fail", "ifail",
        ];
        names.map(|name| MethodInfo { name, help: "" }).into()
    }
}

fn echo_host() -> Arc<ServiceHost> {
    echo_host_with(Arc::new(Echo::default()))
}

fn echo_host_with(echo: Arc<Echo>) -> Arc<ServiceHost> {
    let host = ServiceHost::open();
    host.register(echo);
    host
}

/// Serialises one XML-RPC call as raw keep-alive HTTP bytes.
fn raw_call(method: &str, params: Vec<Value>) -> Vec<u8> {
    raw_call_as(method, params, None)
}

/// [`raw_call`] carrying a session header.
fn raw_call_as(method: &str, params: Vec<Value>, session: Option<u64>) -> Vec<u8> {
    let body = write_call(&MethodCall::new(method, params)).into_bytes();
    let mut buf = Vec::new();
    HttpRequest::xmlrpc(body, session)
        .write_to(&mut buf)
        .unwrap();
    buf
}

/// The XML-RPC result (or typed fault) inside a 200 response.
fn result_of(response: &HttpResponse) -> GaeResult<Value> {
    assert_eq!(response.status, 200);
    gae::wire::parse_response(&response.body)
        .unwrap()
        .into_result()
}

/// Spins (bounded) until `done` holds.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Spins (bounded) until the server has served something and then
/// nothing more for 100 ms; returns how much it served.
fn wait_until_stalled(server: &ReactorRpcServer) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let before = server.requests_served();
        std::thread::sleep(Duration::from_millis(100));
        if before > 0 && server.requests_served() == before {
            return before;
        }
        assert!(Instant::now() < deadline, "the server never stalled");
    }
}

/// A buffered reader of `stream`'s responses, held across calls so
/// that bytes past one response (pipelined replies share reads) stay
/// for the next.
fn response_reader(stream: &TcpStream) -> BufReader<TcpStream> {
    BufReader::new(stream.try_clone().unwrap())
}

/// Reads exactly one HTTP response off a blocking socket.
fn read_one_response(stream: &TcpStream) -> HttpResponse {
    read_response(&mut response_reader(stream)).unwrap()
}

#[test]
fn mid_request_disconnect_leaves_the_reactor_healthy() {
    let server = ReactorRpcServer::start_gated(echo_host(), 2, open_gate(2)).unwrap();
    let addr = server.addr();
    // Half a request, then vanish.
    let mut half = TcpStream::connect(addr).unwrap();
    half.write_all(b"POST /RPC2 HTTP/1.1\r\nContent-Le")
        .unwrap();
    drop(half);
    // A full request, then vanish before reading the response: the
    // completion for the dead connection must be discarded, not
    // delivered to whoever lands in the slab slot next.
    let mut ghost = TcpStream::connect(addr).unwrap();
    ghost
        .write_all(&raw_call("test.sum", vec![Value::Int(1)]))
        .unwrap();
    drop(ghost);
    // The reactor keeps serving fresh clients afterwards.
    std::thread::sleep(Duration::from_millis(100));
    let mut client = TcpRpcClient::connect(addr);
    for i in 0..20 {
        let v = client
            .call("test.sum", vec![Value::Int(i), Value::Int(1)])
            .unwrap();
        assert_eq!(v, Value::Int64(i64::from(i) + 1));
    }
    server.stop();
}

#[test]
fn partial_writes_through_a_tiny_send_buffer_arrive_intact() {
    // Force the smallest send buffer the kernel allows: a ~1 MiB
    // response cannot leave in one write, so the reactor must park
    // the remainder, register write interest, and resume on EPOLLOUT.
    let config = ReactorConfig {
        so_sndbuf: Some(1),
        ..ReactorConfig::default()
    };
    let server =
        ReactorRpcServer::bind_tuned(echo_host(), 2, "127.0.0.1:0", open_gate(2), config).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = response_reader(&stream);
    let n = 1_000_000i64;
    stream
        .write_all(&raw_call("test.blob", vec![Value::Int64(n)]))
        .unwrap();
    // A slow reader widens the window where the socket is unwritable.
    std::thread::sleep(Duration::from_millis(150));
    let response = read_response(&mut reader).unwrap();
    assert_eq!(response.status, 200);
    let value = gae::wire::parse_response(&response.body)
        .unwrap()
        .into_result()
        .unwrap();
    assert_eq!(value, Value::from("x".repeat(n as usize)));
    // The connection survived the ordeal: a second call works.
    stream
        .write_all(&raw_call("test.sum", vec![Value::Int(20), Value::Int(22)]))
        .unwrap();
    assert_eq!(read_response(&mut reader).unwrap().status, 200);
    server.stop();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = ReactorRpcServer::start_gated(echo_host(), 2, open_gate(2)).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = response_reader(&stream);
    let mut stream = stream;
    // Two complete requests in one TCP segment: the reactor must
    // answer the first, then notice the second already buffered.
    let mut burst = raw_call("test.sum", vec![Value::Int(1), Value::Int(2)]);
    burst.extend_from_slice(&raw_call("test.sum", vec![Value::Int(30), Value::Int(12)]));
    stream.write_all(&burst).unwrap();
    let first = read_response(&mut reader).unwrap();
    let second = read_response(&mut reader).unwrap();
    for (response, expected) in [(first, 3i64), (second, 42i64)] {
        assert_eq!(response.status, 200);
        let value = gae::wire::parse_response(&response.body)
            .unwrap()
            .into_result()
            .unwrap();
        assert_eq!(value, Value::Int64(expected));
    }
    // Keep-alive still holds after the burst.
    stream
        .write_all(&raw_call("test.sum", vec![Value::Int(5)]))
        .unwrap();
    assert_eq!(read_response(&mut reader).unwrap().status, 200);
    server.stop();
}

/// The stock per-request read budget ([`ReactorConfig::default`]).
const DEADLINE: Duration = Duration::from_secs(2);

#[test]
fn dribbled_request_gets_the_same_408_frame() {
    // Both doors give a request 200 ms for its bytes; a client that
    // sends half a header and stalls must read the identical typed
    // 408 from each, and then EOF.
    let budget = Duration::from_millis(200);
    let blocking = BlockingOracle::start(echo_host(), 2, open_gate(2), budget);
    let config = ReactorConfig {
        request_deadline: budget,
        ..ReactorConfig::default()
    };
    let reactor =
        ReactorRpcServer::bind_tuned(echo_host(), 2, "127.0.0.1:0", open_gate(2), config).unwrap();
    let dribble = |addr: SocketAddr| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /RPC2 HTTP/1.1\r\nContent-Le").unwrap();
        let response = read_one_response(&s);
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "408 is terminal: EOF behind it");
        response
    };
    let a = dribble(blocking.addr());
    let b = dribble(reactor.addr());
    assert_eq!(a.status, 408);
    assert_eq!(a, b, "transports disagree on the 408 frame");
    blocking.stop();
    reactor.stop();
}

#[test]
fn gate_refusals_agree_across_transports() {
    // Wedge each server's gate the same way — one worker occupied by
    // a slow call, one request parked in a capacity-1 queue — then a
    // third arrival must be refused at the door with the same typed
    // Overloaded fault on both transports. (The fault's retry_after
    // is clock-derived, so the comparison is kind + class, while the
    // proptest below, behind a gate that never refuses, covers
    // byte-level identity.)
    let tiny_gate = || {
        Gate::new(
            GateConfig {
                bucket: TokenBucketConfig::new(1e9, 1e9),
                queue: QueueConfig::new(1, SimDuration::from_secs(5)),
                ..GateConfig::default()
            },
            Arc::new(WallClock::new()),
        )
    };
    let blocking = BlockingOracle::start(echo_host(), 1, tiny_gate(), DEADLINE);
    let reactor = ReactorRpcServer::start_gated(echo_host(), 1, tiny_gate()).unwrap();
    let refusal = |addr: SocketAddr| {
        // A: occupies the only worker for a second.
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.write_all(&raw_call("test.sleep", vec![Value::Int64(1_000)]))
            .unwrap();
        std::thread::sleep(Duration::from_millis(250));
        // B: sits in the queue (capacity 1).
        let mut parked = TcpStream::connect(addr).unwrap();
        parked
            .write_all(&raw_call("test.sum", vec![Value::Int(1)]))
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // C: queue full — refused at arrival.
        let mut refused = TcpStream::connect(addr).unwrap();
        refused
            .write_all(&raw_call("test.sum", vec![Value::Int(2)]))
            .unwrap();
        let response = read_one_response(&refused);
        drop((busy, parked));
        response
    };
    let classes: Vec<String> = [
        ("blocking", refusal(blocking.addr())),
        ("reactor", refusal(reactor.addr())),
    ]
    .into_iter()
    .map(|(name, response)| {
        assert_eq!(
            response.status, 200,
            "{name}: XML-RPC faults travel as 200 + fault body"
        );
        let err = gae::wire::parse_response(&response.body)
            .unwrap()
            .into_result()
            .unwrap_err();
        match err {
            GaeError::Overloaded { shed_class, .. } => shed_class,
            other => panic!("{name}: expected Overloaded, got {other:?}"),
        }
    })
    .collect();
    assert_eq!(classes[0], classes[1], "transports disagree on shed class");
    blocking.stop();
    reactor.stop();
}

/// One request's worth of raw bytes for the equivalence proptest.
#[derive(Clone, Debug)]
enum Probe {
    /// A well-formed call (service result or service fault), pooled
    /// or — the `i*` methods and `system.ping` — inline.
    Call { method: String, args: Vec<i64> },
    /// A marked method whose body exceeds the inline cap: it must take
    /// the pool and still answer the same.
    BigEcho,
    /// A marked method under a session the server never issued: the
    /// typed `Unauthorized`, not a downgrade to anonymous.
    StaleSession,
    /// A non-POST method: typed 405 from both transports.
    BadVerb,
    /// A declared body far past the cap: typed 413 from both.
    Oversized,
    /// A line of garbage: typed 400 from both.
    Garbage,
}

impl Probe {
    fn to_bytes(&self) -> Vec<u8> {
        match self {
            Probe::Call { method, args } => {
                raw_call(method, args.iter().map(|&a| Value::Int64(a)).collect())
            }
            Probe::BigEcho => raw_call("system.echo", vec![Value::from("e".repeat(5 * 1024))]),
            Probe::StaleSession => raw_call_as("system.ping", vec![], Some(0xdead_beef)),
            Probe::BadVerb => b"PUT /RPC2 HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
            Probe::Oversized => format!(
                "POST /RPC2 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                64 * 1024 * 1024
            )
            .into_bytes(),
            Probe::Garbage => b"NOT EVEN HTTP\r\n\r\n".to_vec(),
        }
    }
}

impl Probe {
    /// Whether the reactor answers this probe on its own thread.
    fn runs_inline(&self) -> bool {
        match self {
            Probe::Call { method, .. } => {
                matches!(method.as_str(), "test.isum" | "test.ifail" | "system.ping")
            }
            Probe::StaleSession => true,
            _ => false,
        }
    }
}

fn arb_probe() -> impl Strategy<Value = Probe> {
    (
        0u8..12,
        prop_oneof![
            Just("test.sum".to_string()),
            Just("test.fail".to_string()),
            Just("no.such".to_string()),
            Just("test.isum".to_string()),
            Just("test.ifail".to_string()),
            Just("system.ping".to_string()),
        ],
        proptest::collection::vec(-1000i64..1000, 0..4),
    )
        .prop_map(|(selector, method, args)| match selector {
            0 => Probe::BadVerb,
            1 => Probe::Oversized,
            2 => Probe::Garbage,
            3 => Probe::BigEcho,
            4 => Probe::StaleSession,
            _ => Probe::Call { method, args },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reactor is a scheduling change, not a semantic one: for
    /// any probe — valid calls, faults, bad verbs, oversized frames,
    /// garbage, on either lane — both front doors return the
    /// identical response frame (status, reason, headers, body), and
    /// the reactor ran on its own thread exactly the probes the
    /// marking says it should.
    #[test]
    fn blocking_and_reactor_answer_identically(probes in proptest::collection::vec(arb_probe(), 1..5)) {
        let host = echo_host();
        let blocking = BlockingOracle::start(host.clone(), 2, open_gate(2), DEADLINE);
        let reactor = ReactorRpcServer::start_gated(host, 2, open_gate(2)).unwrap();
        for probe in &probes {
            let bytes = probe.to_bytes();
            let fetch = |addr: SocketAddr| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&bytes).unwrap();
                read_one_response(&s)
            };
            let a = fetch(blocking.addr());
            let b = fetch(reactor.addr());
            prop_assert_eq!(&a, &b, "transports disagree on {:?}", probe);
            match probe {
                Probe::Call { .. } | Probe::BigEcho => prop_assert_eq!(a.status, 200),
                Probe::StaleSession => prop_assert!(
                    matches!(result_of(&a), Err(GaeError::Unauthorized(_))),
                    "stale session must fault, got {:?}", result_of(&a)
                ),
                Probe::BadVerb => prop_assert_eq!(a.status, 405),
                Probe::Oversized => prop_assert_eq!(a.status, 413),
                Probe::Garbage => prop_assert_eq!(a.status, 400),
            }
        }
        let inline = probes.iter().filter(|p| p.runs_inline()).count() as u64;
        prop_assert_eq!(reactor.inline_served(), inline);
        blocking.stop();
        reactor.stop();
    }
}

// ---- the inline lane ----

#[test]
fn parked_workers_do_not_delay_an_inline_call() {
    let echo = Arc::new(Echo::default());
    let server =
        ReactorRpcServer::start_gated(echo_host_with(echo.clone()), 2, open_gate(2)).unwrap();
    // Both workers sit in a one-second call.
    let mut parked: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(&raw_call("test.sleep", vec![Value::Int64(1_000)]))
                .unwrap();
            s
        })
        .collect();
    wait_until("both workers parked", || {
        echo.sleeping.load(Ordering::SeqCst) == 2
    });
    let mut client = TcpRpcClient::connect(server.addr());
    // A pooled call now queues behind the sleepers ...
    let queued = std::thread::spawn({
        let addr = server.addr();
        move || {
            let started = Instant::now();
            let mut pooled = TcpRpcClient::connect(addr);
            pooled.call("test.sum", vec![Value::Int(1)]).unwrap();
            started.elapsed()
        }
    });
    // ... while inline ones are answered at once, repeatedly.
    for i in 0..20 {
        let started = Instant::now();
        let v = client
            .call("test.isum", vec![Value::Int(i), Value::Int(1)])
            .unwrap();
        assert_eq!(v, Value::Int64(i64::from(i) + 1));
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "inline call {i} waited {:?} behind parked workers",
            started.elapsed()
        );
    }
    assert_eq!(echo.sleeping.load(Ordering::SeqCst), 2, "still parked");
    assert_eq!(server.inline_served(), 20);
    let waited = queued.join().unwrap();
    assert!(
        waited > Duration::from_millis(300),
        "the wedge was real: a pooled call waited only {waited:?}"
    );
    for s in &mut parked {
        assert_eq!(read_one_response(s).status, 200);
    }
    server.stop();
}

#[test]
fn an_inline_burst_does_not_starve_a_pooled_call() {
    const BURST: i64 = 1_000;
    let echo = Arc::new(Echo::default());
    let server =
        ReactorRpcServer::start_gated(echo_host_with(echo.clone()), 2, open_gate(2)).unwrap();
    let mut flood = TcpStream::connect(server.addr()).unwrap();
    let mut other = TcpStream::connect(server.addr()).unwrap();
    wait_until("both accepted", || server.open_connections() == 2);
    // 1,000 pipelined inline calls, each stalling the reactor 200 µs,
    // land in one write; a pooled call on another connection follows
    // within microseconds, i.e. while the first loop iteration is
    // still chewing on the burst.
    let burst: Vec<u8> = (0..BURST)
        .flat_map(|i| raw_call("test.itick", vec![Value::Int64(i)]))
        .collect();
    let mut replies = response_reader(&flood);
    flood.write_all(&burst).unwrap();
    other.write_all(&raw_call("test.ticks", vec![])).unwrap();
    // Unbudgeted, the loop would finish the whole burst before it
    // looked at the other socket and the worker would read 1,000.
    // Budgeted, the call is picked up on the next iteration: one
    // budget's worth ran before it, a second may run beside it.
    let seen = result_of(&read_one_response(&other))
        .unwrap()
        .as_i64()
        .unwrap();
    assert!(
        seen <= 3 * i64::from(INLINE_BUDGET),
        "pooled call saw {seen} of {BURST} burst calls run first"
    );
    // The burst itself is answered completely and in order; what the
    // budget turned away went through the pool.
    for i in 0..BURST {
        assert_eq!(
            result_of(&read_response(&mut replies).unwrap()).unwrap(),
            Value::Int64(i)
        );
    }
    let pooled = server.requests_served() - server.inline_served();
    assert!(
        pooled > 1,
        "every call past the budget ran inline ({} of {})",
        server.inline_served(),
        server.requests_served()
    );
    server.stop();
}

/// Replies keep request order across lanes, and the counters say which
/// lane served each call: both lanes driven, as `cost_floors` needs.
#[test]
fn replies_keep_request_order_across_lanes() {
    let server = ReactorRpcServer::start_gated(echo_host(), 2, open_gate(2)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = response_reader(&stream);
    // inline, pooled (slow enough that the third is long buffered),
    // inline — in one segment.
    let mut burst = raw_call("test.isum", vec![Value::Int(1)]);
    burst.extend_from_slice(&raw_call("test.sleep", vec![Value::Int64(50)]));
    burst.extend_from_slice(&raw_call("test.isum", vec![Value::Int(3)]));
    stream.write_all(&burst).unwrap();
    for expected in [1i64, 0, 3] {
        assert_eq!(
            result_of(&read_response(&mut reader).unwrap()).unwrap(),
            Value::Int64(expected),
            "replies out of request order"
        );
    }
    assert_eq!(server.requests_served(), 3);
    assert_eq!(server.inline_served(), 2);
    server.stop();
}

#[test]
fn the_gate_accounts_an_inline_call_exactly_once() {
    const CALLS: u64 = 25;
    // Buckets that never refill, one per principal: the anonymous
    // login draws on its own, alice's holds exactly CALLS.
    let gate = Gate::new(
        GateConfig {
            bucket: TokenBucketConfig::new(CALLS as f64, 1e-9),
            queue: QueueConfig::new(8, SimDuration::from_secs(5)),
            ..GateConfig::default()
        },
        Arc::new(WallClock::new()),
    );
    let dispositions = Arc::new(std::sync::Mutex::new(Vec::<(String, SimDuration)>::new()));
    gate.set_disposition_observer({
        let seen = dispositions.clone();
        move |name, waited| seen.lock().unwrap().push((name.to_string(), waited))
    });
    let count = |name: &str| {
        let seen = dispositions.lock().unwrap();
        seen.iter().filter(|(n, _)| n == name).count() as u64
    };
    let host = echo_host();
    host.sessions()
        .register(&gae::rpc::Credentials::new("alice", "pw"))
        .unwrap();
    let server = ReactorRpcServer::start_gated(host, 2, gate.clone()).unwrap();
    let mut client = TcpRpcClient::connect(server.addr());
    client.login("alice", "pw").unwrap(); // pooled: the one call that queues
    let after_login = gate.stats();
    assert_eq!(count("run"), 1);
    assert_eq!(after_login.peak_queue_depth, 1);

    for i in 0..CALLS {
        let v = client
            .call("test.isum", vec![Value::Int64(i as i64)])
            .unwrap();
        assert_eq!(v, Value::Int64(i as i64));
    }
    let stats = gate.stats();
    assert_eq!(server.inline_served(), CALLS);
    assert_eq!(count("run"), 1 + CALLS, "one `run` per inline call");
    assert_eq!(dispositions.lock().unwrap().len() as u64, 1 + CALLS);
    assert_eq!(stats.total_admitted(), 1 + CALLS, "each spent a token");
    assert_eq!(stats.peak_queue_depth, 1, "inline calls never queue");
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.total_rejected(), 0);

    // The bucket is dry: the same inline call is now refused by the
    // gate, typed, before it is ever parsed.
    let refused = client.call("test.isum", vec![Value::Int(1)]);
    assert!(
        matches!(refused, Err(GaeError::RateLimited { retry_after_us }) if retry_after_us > 0),
        "expected the typed rate-limit fault, got {refused:?}"
    );
    assert_eq!(count("rate_limited"), 1);
    assert_eq!(count("run"), 1 + CALLS);
    assert_eq!(server.inline_served(), CALLS);
    server.stop();
}

#[test]
fn a_half_written_inline_reply_dies_with_its_connection() {
    let config = ReactorConfig {
        so_sndbuf: Some(1),
        ..ReactorConfig::default()
    };
    let server =
        ReactorRpcServer::bind_tuned(echo_host(), 2, "127.0.0.1:0", open_gate(2), config).unwrap();
    // 400 pipelined inline echoes of 3 KiB and a client that never
    // reads: the replies fill the client's receive window and the
    // minimal send buffer, and the reactor is left holding a partly
    // written queue — short, because it stops parsing a connection
    // that does not read.
    let mut deaf = TcpStream::connect(server.addr()).unwrap();
    let payload = Value::from("p".repeat(3 * 1024));
    let burst: Vec<u8> = (0..400)
        .flat_map(|_| raw_call("system.echo", vec![payload.clone()]))
        .collect();
    deaf.write_all(&burst).unwrap();
    let served = wait_until_stalled(&server);
    assert!((3..400).contains(&served), "{served}");
    assert_eq!(server.open_connections(), 1, "blocked on writing, not gone");
    drop(deaf);
    wait_until("the hang-up to be noticed", || {
        server.open_connections() == 0
    });
    // The slot's next tenant gets its own answers and nothing else.
    let mut next = TcpStream::connect(server.addr()).unwrap();
    let mut reader = response_reader(&next);
    for i in 0..3 {
        next.write_all(&raw_call("test.isum", vec![Value::Int(i), Value::Int(40)]))
            .unwrap();
        assert_eq!(
            result_of(&read_response(&mut reader).unwrap()).unwrap(),
            Value::Int64(i64::from(i) + 40)
        );
    }
    next.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut stray = [0u8; 64];
    match next.read(&mut stray) {
        Ok(n) => panic!("{n} stray bytes from the previous tenant"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{e}"
        ),
    }
    server.stop();
}

#[test]
fn a_client_that_never_reads_cannot_grow_the_reply_queue() {
    let limits = FrameLimits {
        max_body_bytes: 64 * 1024,
        ..FrameLimits::DEFAULT
    };
    // What the reactor lets one connection's unparsed input reach.
    let input_cap = limits.max_header_bytes + limits.max_body_bytes + 4096;
    let config = ReactorConfig {
        limits,
        ..ReactorConfig::default()
    };
    let server =
        ReactorRpcServer::bind_tuned(echo_host(), 2, "127.0.0.1:0", open_gate(2), config).unwrap();
    // Small requests, 256 KiB replies, and a client that reads none:
    // three quarters of the input cap asks for some 70 MB.
    const REPLY: u64 = 256 * 1024;
    let one = raw_call("test.blob", vec![Value::Int64(REPLY as i64)]);
    let fits = input_cap * 3 / 4 / one.len();
    let mut deaf = TcpStream::connect(server.addr()).unwrap();
    deaf.write_all(&one.repeat(fits)).unwrap();
    // The server answers what the peer's kernel buffers absorb plus a
    // three-frame queue, then leaves the rest unparsed. A reply exists
    // only if its request was served, so this bounds the queued bytes.
    let served = wait_until_stalled(&server);
    assert!(
        served * REPLY < 16 << 20,
        "{served} of {fits} replies made for a client that reads none"
    );
    // Another connection is served as if nothing happened.
    let mut client = TcpRpcClient::connect(server.addr());
    for i in 0..50 {
        let v = client
            .call("test.sum", vec![Value::Int(i), Value::Int(1)])
            .unwrap();
        assert_eq!(v, Value::Int64(i64::from(i) + 1));
    }
    assert_eq!(server.requests_served(), served + 50);
    // More pipelined input overruns the cap. When the client does
    // read: its replies, the typed refusal of the backlog, EOF. (The
    // pause lets the flood's tail reach the server first: input that
    // lands on a socket closed behind its goodbye resets the
    // connection and takes the unread replies with it.)
    let _ = deaf.write_all(&one.repeat(fits));
    std::thread::sleep(Duration::from_millis(200));
    let mut reader = response_reader(&deaf);
    for _ in 0..served {
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
    }
    assert_eq!(read_response(&mut reader).unwrap().status, 413);
    server.stop();
}
