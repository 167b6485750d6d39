//! Clarens-layer behaviours across crates: P2P lookup federation,
//! access-control over the live transport, and wire-level edge cases
//! seen through the public client API.

mod door;

use door::open_gate;
use gae::aio::ReactorRpcServer;
use gae::prelude::*;
use gae::rpc::discovery::Endpoint;
use gae::rpc::{
    AccessControl, Credentials, LookupService, Rpc, ServiceHost, SessionManager, TcpRpcClient,
};
use gae::wire::Value;
use std::sync::Arc;

#[test]
fn lookup_federates_service_registrations() {
    // Three Clarens hosts, a line topology: caltech — cern — nust.
    let caltech = LookupService::new("caltech");
    let cern = LookupService::new("cern");
    let nust = LookupService::new("nust");
    caltech.add_peer(&cern);
    cern.add_peer(&nust);

    caltech.register("jobmon", Endpoint::new("http://caltech/RPC2", "caltech-t2"));
    nust.register("steering", Endpoint::new("http://nust/RPC2", "nust"));
    nust.register("jobmon", Endpoint::new("http://nust/RPC2", "nust"));

    // One-hop federation, exactly like the original Clarens lookup.
    assert_eq!(cern.lookup("jobmon").len(), 2);
    assert_eq!(cern.lookup("steering").len(), 1);
    assert_eq!(caltech.lookup("steering").len(), 0, "two hops away");
    assert_eq!(
        cern.service_names(),
        vec!["jobmon".to_string(), "steering".to_string()]
    );

    // Failure handling: deregister after Backup & Recovery notices.
    assert!(nust.deregister("jobmon", "http://nust/RPC2"));
    assert_eq!(cern.lookup("jobmon").len(), 1);
}

#[test]
fn acl_denies_until_granted_over_tcp() {
    let sessions = Arc::new(SessionManager::with_default_ttl());
    sessions.register(&Credentials::new("alice", "pw")).unwrap();
    let acl = Arc::new(AccessControl::default_deny());
    // Everyone may log in, nothing else.
    acl.grant_service(None, "auth");
    let host = ServiceHost::new(sessions, acl.clone());
    let server = ReactorRpcServer::start_gated(host.clone(), 2, open_gate(2)).unwrap();
    let mut client = TcpRpcClient::connect(server.addr());

    // Even ping is denied under default-deny.
    assert!(matches!(
        client.call("system.ping", vec![]),
        Err(GaeError::Unauthorized(_))
    ));

    // Alice logs in; still no system access.
    client.login("alice", "pw").unwrap();
    assert!(client.call("system.ping", vec![]).is_err());

    // Grant her the system service and retry.
    let alice = host.sessions().user_id("alice").unwrap();
    acl.grant_service(Some(alice), "system");
    assert_eq!(
        client.call("system.ping", vec![]).unwrap(),
        Value::from("pong")
    );

    // Method-level deny overrides the service grant.
    acl.deny_method(Some(alice), "system", "echo");
    assert!(client.call("system.echo", vec![Value::Int(1)]).is_err());
    assert!(client.call("system.ping", vec![]).is_ok());
    server.stop();
}

#[test]
fn values_of_every_type_survive_the_live_wire() {
    let host = ServiceHost::open();
    let server = ReactorRpcServer::start_gated(host, 2, open_gate(2)).unwrap();
    let mut client = TcpRpcClient::connect(server.addr());
    let nasty = Value::struct_of([
        ("int", Value::Int(i32::MIN)),
        ("int64", Value::Int64(i64::MAX)),
        ("bool", Value::Bool(true)),
        (
            "string",
            Value::from("entit&es <xml> \"quotes\" and \u{1F680} unicode\ncontrol:\u{1}"),
        ),
        ("double", Value::Double(-2.5e-17)),
        ("bytes", Value::Base64((0u8..=255).collect())),
        ("nil", Value::Nil),
        (
            "nested",
            Value::Array(vec![
                Value::Array(vec![Value::Int(1)]),
                Value::empty_struct(),
                Value::from(""),
            ]),
        ),
        (
            "when",
            Value::DateTime(gae::wire::datetime::DateTime::parse("20050614T12:00:00").unwrap()),
        ),
    ]);
    let echoed = client.call("system.echo", vec![nasty.clone()]).unwrap();
    assert_eq!(echoed, Value::Array(vec![nasty]));
    server.stop();
}

#[test]
fn large_payloads_roundtrip() {
    let host = ServiceHost::open();
    let server = ReactorRpcServer::start_gated(host, 2, open_gate(2)).unwrap();
    let mut client = TcpRpcClient::connect(server.addr());
    // ~1 MB of base64 payload through HTTP framing.
    let blob = Value::Base64(vec![0xAB; 1_000_000]);
    let echoed = client.call("system.echo", vec![blob.clone()]).unwrap();
    assert_eq!(echoed.as_array().unwrap()[0], blob);
    server.stop();
}

#[test]
fn session_expiry_is_enforced_on_the_wire() {
    let sessions = Arc::new(SessionManager::new(std::time::Duration::from_millis(50)));
    sessions.register(&Credentials::new("brief", "pw")).unwrap();
    let host = ServiceHost::new(sessions, Arc::new(AccessControl::allow_all()));
    let server = ReactorRpcServer::start_gated(host, 2, open_gate(2)).unwrap();
    let mut client = TcpRpcClient::connect(server.addr());
    client.login("brief", "pw").unwrap();
    assert!(client.call("auth.whoami", vec![]).unwrap().as_u64().is_ok());
    std::thread::sleep(std::time::Duration::from_millis(120));
    assert!(matches!(
        client.call("auth.whoami", vec![]),
        Err(GaeError::Unauthorized(_))
    ));
    server.stop();
}

#[test]
fn web_interface_serves_index_and_execution_state() {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    // A grid with a completed task whose state was collected.
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "s", 1, 1))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "webbed", UserId::new(1));
    let task = job.add_task(
        TaskSpec::new(TaskId::new(1), "t", "x").with_cpu_demand(SimDuration::from_secs(10)),
    );
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(30));

    let host = ServiceHost::open();
    host.register(Arc::new(gae::core::jobmon::JobMonitoringRpc::new(
        stack.jobmon.clone(),
    )));
    host.register_web(stack.steering.web_handler());
    let server = ReactorRpcServer::start_gated(host, 2, open_gate(2)).unwrap();

    let get = |path: &str| -> (u16, String) {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = gae::rpc::http::read_response(&mut reader).unwrap();
        (resp.status, String::from_utf8_lossy(&resp.body).to_string())
    };

    // The index lists the registered services.
    let (status, body) = get("/");
    assert_eq!(status, 200);
    assert!(body.contains("jobmon.job_info"), "index lists methods");
    assert!(body.contains("Clarens host"));

    // The execution-state download (§4.2.4's web interface).
    let (status, body) = get(&format!("/state/{}", task.raw()));
    assert_eq!(status, 200);
    assert!(body.contains("status: completed"), "{body}");
    assert!(body.contains("cpu_time_s: 10.000"), "{body}");

    // Unknown pages and unknown tasks 404.
    assert_eq!(get("/nope").0, 404);
    assert_eq!(get("/state/999").0, 404);
    assert_eq!(get("/state/notanumber").0, 404);
    server.stop();
}

#[test]
fn non_post_non_get_is_rejected() {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    let host = ServiceHost::open();
    let server = ReactorRpcServer::start_gated(host, 2, open_gate(2)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(stream, "DELETE /RPC2 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let resp = gae::rpc::http::read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 405);
    server.stop();
}

#[test]
fn two_hosts_one_grid() {
    // The same service stack exposed through two Clarens hosts (two
    // "sites" of the web-service fabric): state is shared because the
    // services are.
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "s", 2, 1))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "shared", UserId::new(1));
    let task = job.add_task(
        TaskSpec::new(TaskId::new(1), "t", "x").with_cpu_demand(SimDuration::from_secs(500)),
    );
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(10));

    let host_a = ServiceHost::open();
    host_a.register(Arc::new(gae::core::jobmon::JobMonitoringRpc::new(
        stack.jobmon.clone(),
    )));
    let host_b = ServiceHost::open();
    host_b.register(Arc::new(gae::core::jobmon::JobMonitoringRpc::new(
        stack.jobmon.clone(),
    )));
    let server_a = ReactorRpcServer::start_gated(host_a, 2, open_gate(2)).unwrap();
    let server_b = ReactorRpcServer::start_gated(host_b, 2, open_gate(2)).unwrap();

    let mut ca = TcpRpcClient::connect(server_a.addr());
    let mut cb = TcpRpcClient::connect(server_b.addr());
    let sa = ca
        .call("jobmon.job_status", vec![Value::from(task.raw())])
        .unwrap();
    let sb = cb
        .call("jobmon.job_status", vec![Value::from(task.raw())])
        .unwrap();
    assert_eq!(sa, sb);
    assert_eq!(sa.as_str().unwrap(), "running");
    server_a.stop();
    server_b.stop();
}
