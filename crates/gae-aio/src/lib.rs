//! `gae-aio` — a dependency-free readiness reactor: the front door of
//! the GAE's XML-RPC services.
//!
//! The paper's interactive-analysis tension (§3) implies thousands of
//! mostly-idle clients holding keep-alive connections, so the one
//! server holds every connection as a readiness state machine on one
//! event loop instead of spending a thread on it:
//!
//! * [`sys`] — the `extern "C"` syscall bindings (std already links
//!   libc; no external crates);
//! * [`poller`] — level-triggered epoll multiplexing;
//! * [`wake`] — eventfd wakeup for worker→reactor completions;
//! * [`reactor`] — [`ReactorRpcServer`].
//!
//! Framing ([`gae_rpc::http::FrameParser`], shared limits, typed
//! 408/413) and dispatch ([`gae_rpc::door`]: gate admission, auth,
//! observability and fault bytes) both live in `gae-rpc`: the reactor
//! adds scheduling, not semantics.
//!
//! Linux is the one platform: epoll and eventfd are all the reactor is
//! written against, and it has never been built or run anywhere else.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("gae-aio drives sockets through epoll and eventfd: it builds on Linux only");

pub mod poller;
pub mod reactor;
pub mod sys;
pub mod wake;

pub use poller::{Event, Interest, Poller};
pub use reactor::{ReactorConfig, ReactorRpcServer};
pub use wake::Waker;

#[cfg(test)]
mod tests {
    use super::*;
    use gae_gate::{Gate, GateConfig, QueueConfig, TokenBucketConfig, WallClock};
    use gae_rpc::http::{read_response, FrameLimits, HttpRequest};
    use gae_rpc::service::{Method, Methods, Rpc};
    use gae_rpc::{Credentials, ServiceHost, TcpRpcClient};
    use gae_types::{GaeError, SimDuration};
    use gae_wire::{parse_response, write_call, MethodCall, Value};
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    struct Echo;
    impl Methods for Echo {
        const NAME: &'static str = "test";
        const METHODS: &'static [Method<Self>] = &[
            Method {
                name: "peer",
                help: "the caller's peer address",
                inline: false,
                handler: |_, ctx, _| Ok(Value::from(ctx.peer.clone())),
            },
            Method {
                name: "user",
                help: "the caller's user id, or nil",
                inline: false,
                handler: |_, ctx, _| Ok(ctx.user.map(|u| u.raw()).into()),
            },
            Method {
                name: "sum",
                help: "sum of integer parameters",
                inline: false,
                handler: |_, _, p| {
                    let mut s = 0i64;
                    for v in p.0 {
                        s += v.as_i64()?;
                    }
                    Ok(Value::Int64(s))
                },
            },
            Method {
                name: "fail",
                help: "always faults",
                inline: false,
                handler: |_, _, _| Err(GaeError::ExecutionFailure("deliberate".into())),
            },
        ];
    }

    fn echo_host() -> Arc<ServiceHost> {
        let host = ServiceHost::open();
        host.register(Arc::new(Echo));
        host
    }

    /// A gate for tests that only want transport: a bucket nobody can
    /// drain, a `4 × workers` backlog, nothing expires.
    fn open_gate(workers: usize) -> Arc<Gate> {
        Gate::new(
            GateConfig {
                bucket: TokenBucketConfig::new(1e9, 1e9),
                queue: QueueConfig::new(4 * workers, SimDuration::from_secs(60)),
                ..GateConfig::default()
            },
            Arc::new(WallClock::new()),
        )
    }

    fn server() -> ReactorRpcServer {
        ReactorRpcServer::start_gated(echo_host(), 4, open_gate(4)).unwrap()
    }

    fn tuned(config: ReactorConfig) -> ReactorRpcServer {
        ReactorRpcServer::bind_tuned(echo_host(), 2, "127.0.0.1:0", open_gate(2), config).unwrap()
    }

    #[test]
    fn reactor_roundtrip() {
        let server = server();
        let mut client = TcpRpcClient::connect(server.addr());
        let v = client
            .call("test.sum", vec![Value::Int(2), Value::Int(40)])
            .unwrap();
        assert_eq!(v, Value::Int64(42));
        assert_eq!(
            client.call("system.ping", vec![]).unwrap(),
            Value::from("pong")
        );
        assert!(server.requests_served() >= 2);
        server.stop();
    }

    #[test]
    fn every_ok_server_answers_ping() {
        // An `Ok` from any constructor means the loop is polling its
        // listener: start-up failures are `Err`, never a bound socket
        // nobody serves.
        let servers = [
            ReactorRpcServer::start_gated(echo_host(), 1, open_gate(1)).unwrap(),
            ReactorRpcServer::bind_gated(echo_host(), 1, "127.0.0.1:0", open_gate(1)).unwrap(),
            tuned(ReactorConfig::default()),
        ];
        for server in servers {
            let mut client =
                TcpRpcClient::connect(server.addr()).with_timeout(Duration::from_secs(5));
            assert_eq!(
                client.call("system.ping", vec![]).unwrap(),
                Value::from("pong")
            );
            server.stop();
        }
    }

    #[test]
    fn bind_failure_is_a_typed_error() {
        let first = server();
        let taken = first.addr().to_string();
        let second = ReactorRpcServer::bind_gated(echo_host(), 1, &taken, open_gate(1));
        assert!(matches!(second, Err(GaeError::Io(_))));
        first.stop();
    }

    #[test]
    fn reactor_faults_propagate() {
        let server = server();
        let mut client = TcpRpcClient::connect(server.addr());
        assert!(matches!(
            client.call("test.fail", vec![]),
            Err(GaeError::ExecutionFailure(_))
        ));
        assert!(matches!(
            client.call("test.nosuch", vec![]),
            Err(GaeError::Rpc { code: -32601, .. })
        ));
        server.stop();
    }

    #[test]
    fn reactor_keep_alive_many_requests_one_connection() {
        let server = server();
        let mut client = TcpRpcClient::connect(server.addr());
        for i in 0..100 {
            let v = client
                .call("test.sum", vec![Value::Int(i), Value::Int(1)])
                .unwrap();
            assert_eq!(v, Value::Int64(i64::from(i) + 1));
        }
        assert_eq!(client.reconnects(), 1);
        server.stop();
    }

    #[test]
    fn keep_alive_off_reconnects_per_call() {
        let server = server();
        for i in 0..5 {
            let call = MethodCall::new("test.sum", vec![Value::Int(i), Value::Int(1)]);
            let mut request = HttpRequest::xmlrpc(write_call(&call).into_bytes(), None);
            request
                .headers
                .push(("Connection".to_string(), "close".to_string()));
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(&request.to_bytes()).unwrap();
            let mut reader = BufReader::new(stream);
            let reply = read_response(&mut reader).unwrap();
            let v = parse_response(&reply.body).unwrap().into_result();
            assert_eq!(v.unwrap(), Value::Int64(i64::from(i) + 1));
            // The server closes the connection behind the reply.
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "EOF behind the reply, got {rest:?}");
        }
        server.stop();
    }

    #[test]
    fn sessions_over_tcp() {
        let host = echo_host();
        host.sessions()
            .register(&Credentials::new("alice", "pw"))
            .unwrap();
        let server = ReactorRpcServer::start_gated(host, 4, open_gate(4)).unwrap();
        let mut client = TcpRpcClient::connect(server.addr());
        // Anonymous first.
        assert!(client.call("test.user", vec![]).unwrap().is_nil());
        let sid = client.login("alice", "pw").unwrap();
        assert!(sid.raw() > 0);
        let user = client.call("test.user", vec![]).unwrap();
        assert!(user.as_u64().unwrap() > 0);
        client.logout().unwrap();
        assert!(client.call("test.user", vec![]).unwrap().is_nil());
        server.stop();
    }

    #[test]
    fn stale_session_is_fault() {
        let host = echo_host();
        host.sessions()
            .register(&Credentials::new("alice", "pw"))
            .unwrap();
        let server = ReactorRpcServer::start_gated(host.clone(), 4, open_gate(4)).unwrap();
        let mut client = TcpRpcClient::connect(server.addr());
        // The server forgets the session the client still carries: a
        // fault, not a silent downgrade to anonymous.
        let sid = client.login("alice", "pw").unwrap();
        host.sessions().logout(sid);
        assert!(matches!(
            client.call("system.ping", vec![]),
            Err(GaeError::Unauthorized(_))
        ));
        server.stop();
    }

    #[test]
    fn bad_login_over_tcp() {
        let server = server();
        let mut client = TcpRpcClient::connect(server.addr());
        assert!(matches!(
            client.login("ghost", "boo"),
            Err(GaeError::Unauthorized(_))
        ));
        server.stop();
    }

    #[test]
    fn peer_address_reported() {
        let server = server();
        let mut client = TcpRpcClient::connect(server.addr());
        let peer = client.call("test.peer", vec![]).unwrap();
        assert!(peer.as_str().unwrap().starts_with("127.0.0.1:"));
        server.stop();
    }

    #[test]
    fn reactor_concurrent_clients() {
        let server = server();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..8 {
            handles.push(std::thread::spawn(move || {
                let mut client = TcpRpcClient::connect(addr);
                for i in 0..20 {
                    let v = client
                        .call("test.sum", vec![Value::Int(t), Value::Int(i)])
                        .unwrap();
                    assert_eq!(v, Value::Int64(i64::from(t) + i64::from(i)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(server.requests_served() >= 160);
        server.stop();
    }

    #[test]
    fn reactor_holds_many_idle_connections() {
        let server = server();
        let addr = server.addr();
        // 300 idle keep-alive connections: far past what per-conn
        // threads would tolerate in a unit test, trivial for a slab.
        let idle: Vec<TcpStream> = (0..300)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        // Give the reactor a few ticks to accept them all.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.open_connections() < 300 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.open_connections(), 300);
        // And they do not starve a live client.
        let mut client = TcpRpcClient::connect(addr);
        assert_eq!(
            client.call("system.ping", vec![]).unwrap(),
            Value::from("pong")
        );
        drop(idle);
        server.stop();
    }

    #[test]
    fn server_stops_cleanly_with_idle_connection() {
        let server = server();
        let _idle = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        server.stop(); // must not hang
    }

    #[test]
    fn malformed_http_gets_400() {
        let server = server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let resp = read_response(&mut BufReader::new(stream)).unwrap();
        assert_eq!(resp.status, 400);
        server.stop();
    }

    #[test]
    fn oversized_request_gets_413() {
        let server = tuned(ReactorConfig {
            limits: FrameLimits {
                max_header_bytes: 16 * 1024,
                max_body_bytes: 1024,
            },
            ..ReactorConfig::default()
        });
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /RPC2 HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n")
            .unwrap();
        let resp = read_response(&mut BufReader::new(stream)).unwrap();
        assert_eq!(resp.status, 413);
        // And through the typed client: the status maps to the error.
        let mut client = TcpRpcClient::connect(server.addr());
        let huge = vec![Value::from("y".repeat(4096))];
        let got = client.call("test.sum", huge);
        assert!(
            matches!(got, Err(GaeError::PayloadTooLarge(_))),
            "typed 413 through the client, got {got:?}"
        );
        server.stop();
    }

    #[test]
    fn slowloris_client_gets_408_while_others_are_served() {
        let server = tuned(ReactorConfig {
            request_deadline: Duration::from_millis(200),
            ..ReactorConfig::default()
        });
        let mut slow = TcpStream::connect(server.addr()).unwrap();
        let mut live = TcpRpcClient::connect(server.addr());
        // Dribble a valid request one byte per 30 ms: far slower than
        // the 200 ms budget allows for its ~60 bytes. Between bytes a
        // second client keeps getting answers — the sweep costs the
        // loop nothing.
        let raw = b"POST /RPC2 HTTP/1.1\r\nContent-Length: 6\r\n\r\n<xml/>";
        let started = Instant::now();
        for b in raw.iter() {
            if slow.write_all(std::slice::from_ref(b)).is_err() {
                break; // server already hung up on us
            }
            assert_eq!(
                live.call("system.ping", vec![]).unwrap(),
                Value::from("pong")
            );
            std::thread::sleep(Duration::from_millis(30));
            if started.elapsed() > Duration::from_secs(5) {
                break;
            }
        }
        let mut reader = BufReader::new(slow);
        let resp =
            read_response(&mut reader).expect("server must answer 408 before dropping the line");
        assert_eq!(resp.status, 408, "typed request-timeout, got {resp:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline swept promptly"
        );
        // The goodbye is terminal: the connection is closed behind it.
        assert!(
            read_response(&mut reader).is_err(),
            "408 must be followed by EOF"
        );
        assert_eq!(live.reconnects(), 1, "the live client was never dropped");
        server.stop();
    }

    #[test]
    fn waker_wakes_and_drains() {
        let w = Waker::new().unwrap();
        let mut p = Poller::new().unwrap();
        p.add(w.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing yet: the wait times out empty.
        p.wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        w.wake();
        w.wake(); // coalesces
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        w.drain();
        events.clear();
        p.wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "drained waker is quiet: {events:?}");
    }
}
