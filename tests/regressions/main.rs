//! One deterministic test per defect found in the running system, each
//! of which fails on the code before its fix. ROADMAP item 1 names the
//! defects; a test here carries its label.
//!
//! A defect whose code is crate-private is held in that crate's unit
//! tests instead: 1(viii), a record logged while a rotation encodes
//! its snapshot, is
//! `gae-core::persist::tests::a_record_logged_during_a_rotation_keeps_followers_in_lockstep`.

#[path = "../door/mod.rs"]
mod door;

use door::open_gate;
use gae::aio::{sys, ReactorRpcServer};
use gae::core::grid::{GridBuilder, ServiceStack};
use gae::hist::{HistConfig, HistStore};
use gae::rpc::http::{read_request, read_response, FrameLimits, HttpRequest, HttpResponse};
use gae::rpc::service::{Method, Methods, Rpc};
use gae::rpc::{ServiceHost, TcpRpcClient};
use gae::types::{
    AbstractPlan, GaeError, JobId, JobSpec, SimDuration, SimTime, SiteDescription, SiteId, TaskId,
    TaskSpec, UserId,
};
use gae::wire::{write_call, MethodCall, Value};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// One inline method with a reply as large as asked for.
struct Blob;

impl Methods for Blob {
    const NAME: &'static str = "test";
    const METHODS: &'static [Method<Self>] = &[Method {
        name: "blob",
        help: "a string of n bytes",
        inline: true,
        handler: |_, _, p| {
            let n = usize::try_from(p.get(0, "blob: missing n")?.as_i64()?).unwrap_or(0);
            Ok(Value::from("x".repeat(n)))
        },
    }];
}

/// Linux's `SO_RCVBUF`.
const SO_RCVBUF: i32 = 8;

/// Fixes `stream`'s kernel receive buffer at `bytes` (the kernel
/// doubles it) and so switches its autotuning off: the receive window
/// then stays that small however fast the reader is.
fn cap_receive_buffer(stream: &TcpStream, bytes: i32) {
    // SAFETY: optval points at a live i32 of the advertised length.
    let r = unsafe {
        sys::setsockopt(
            stream.as_raw_fd(),
            sys::SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(r, 0, "setsockopt(SO_RCVBUF)");
}

/// A client that reads more slowly than the server writes: at most
/// 64 KiB a read, each after a 200 µs pause (8 MiB in ~30 ms). Its
/// receive window stays full, so the server's kernel always holds reply
/// bytes it has not sent yet. Says so once the first byte arrives.
struct Sluggish<'a> {
    stream: &'a TcpStream,
    first_byte: Option<mpsc::Sender<()>>,
}

impl Read for Sluggish<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_micros(200));
        let n = buf.len().min(64 * 1024);
        let got = self.stream.read(&mut buf[..n])?;
        if got > 0 {
            if let Some(tx) = self.first_byte.take() {
                let _ = tx.send(());
            }
        }
        Ok(got)
    }
}

/// 1(v): a goodbye is lost to RST. A client with a small receive
/// window pipelines a call with a large reply, then an upload far past
/// the 16 MiB body cap, and keeps writing the upload while it reads.
/// The 413 is queued behind the reply; once it has been written the
/// server must not close a socket whose input is still arriving: that
/// sends RST, and RST discards whatever the server's kernel has not yet
/// sent — the reply's tail and the 413 with it.
#[test]
fn a_413_survives_the_upload_still_arriving_behind_it() {
    // Twice what the server's send buffer may grow to (4 MiB) beside
    // the client's 128 KiB window: the reply's last write leaves
    // bytes unsent.
    const BLOB: usize = 8 << 20;
    let body_len = 1 << 30;
    let host = ServiceHost::open();
    host.register(Arc::new(Blob));
    let server = ReactorRpcServer::start_gated(host, 1, open_gate(1)).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    cap_receive_buffer(&stream, 64 * 1024);
    let (replying, reply_seen) = mpsc::channel();
    let uploader = {
        let mut stream = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let call = MethodCall::new("test.blob", vec![Value::Int64(BLOB as i64)]);
            let mut head = HttpRequest::xmlrpc(write_call(&call).into_bytes(), None).to_bytes();
            head.extend(
                format!("POST /RPC2 HTTP/1.1\r\nContent-Length: {body_len}\r\n\r\n").bytes(),
            );
            stream.write_all(&head).unwrap();
            // The body follows once the reply has begun: by then the
            // server has framed both requests, so the 413 is the one
            // for the declared length, queued behind the reply.
            if reply_seen.recv().is_err() {
                return;
            }
            let chunk = vec![b'x'; 64 * 1024];
            let mut sent = 0;
            // Writing stops only when the server stops taking bytes.
            while sent < body_len && stream.write_all(&chunk).is_ok() {
                sent += chunk.len();
            }
        })
    };
    // A buffer as large as one read, so that each read asks for up to
    // 64 KiB.
    let sluggish = Sluggish {
        stream: &stream,
        first_byte: Some(replying),
    };
    let mut reader = BufReader::with_capacity(64 * 1024, sluggish);
    let blob = read_response(&mut reader).expect("the reply arrives whole, not reset");
    let goodbye = read_response(&mut reader).expect("the 413 arrives, not a reset");
    uploader.join().unwrap();
    let value = gae::wire::parse_response(&blob.body).unwrap().into_result();
    let text = value.unwrap();
    let text = text.as_str().unwrap();
    assert!(text.len() == BLOB && text.bytes().all(|b| b == b'x'));
    let why = format!(
        "body of {body_len} bytes exceeds the {}-byte cap",
        FrameLimits::DEFAULT.max_body_bytes
    );
    assert_eq!(goodbye, HttpResponse::error(413, "Payload Too Large", &why));
    server.stop();
}

/// 1(vi): a corrupt history blob aborts the process. A snapshot's `hist`
/// member of 52 bytes — magic, column counts, six empty dictionaries and
/// one sealed segment that claims `u32::MAX` rows — made the decoder
/// allocate nine `u64` columns of that length before reading a row: a
/// 34 GB request, and SIGABRT. It must be refused as a parse error.
#[test]
fn a_hist_segment_claiming_more_rows_than_its_bytes_is_refused() {
    let mut blob = b"GAEHIST1".to_vec();
    for word in [9, 6, 0, 0, 0, 0, 0, 0, 1, u32::MAX, 0] {
        blob.extend_from_slice(&u32::to_le_bytes(word));
    }
    assert_eq!(blob.len(), 52);
    let store = HistStore::new(HistConfig::default());
    let refused = store.restore(&blob);
    assert!(matches!(refused, Err(GaeError::Parse(_))), "{refused:?}");
    assert_eq!(store.rows(), 0, "a refused blob leaves the store as it was");
}

/// 1(vii): the client resends a call whose reply was cut off. A server
/// reads one `scheduler.submit_job`, writes 20 of the 200 body bytes it
/// promised and hangs up. It has begun to answer, so it may have run the
/// call: the client must report the torn reply, not send the call again.
/// The client used to retry on any `Io` error, so the server received
/// the call twice, once per connection.
#[test]
fn a_call_whose_reply_was_cut_off_is_not_sent_again() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut calls = 0;
        for stream in listener.incoming() {
            let mut stream = stream.unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            if read_request(&mut reader).unwrap().is_none() {
                return calls; // the test's own empty connection
            }
            calls += 1;
            let reply = HttpResponse::ok_xml(vec![b'x'; 200]).to_bytes();
            stream.write_all(&reply[..reply.len() - 180]).unwrap();
        }
        calls
    });
    let mut client = TcpRpcClient::connect(addr).with_timeout(Duration::from_secs(5));
    let got = client.call("scheduler.submit_job", vec![Value::from("job")]);
    assert!(matches!(got, Err(GaeError::Io(_))), "{got:?}");
    // Every connection the client opened was served before its call
    // returned; one that closes at once ends the server's loop.
    drop(TcpStream::connect(addr).unwrap());
    let calls = server.join().unwrap();
    assert_eq!(calls, 1, "the server received one call {calls} times");
    assert_eq!(client.reconnects(), 1);
}

/// 1(ix): a finite wire double overflows the scheduler. A task asking
/// for 1e300 CPU hours is legal — the parser refuses only non-finite
/// doubles — and at a site with no history its fallback runtime
/// saturates at `u64::MAX` µs. Where work is queued, adding the queue
/// time to that runtime overflowed `SiteEstimate::expected_completion`:
/// a debug build panicked, and a release build wrapped round, so the
/// queued site scored as the fastest. Both sites are now equally slow,
/// and the tie goes to the lower site id.
#[test]
fn a_huge_requested_cpu_time_scores_as_the_slowest_bid() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "idle", 1, 1))
        .site(SiteDescription::new(SiteId::new(2), "queued", 1, 1))
        .build();
    let stack = ServiceStack::over(grid);
    let mut queued = JobSpec::new(JobId::new(1), "queued", UserId::new(1));
    for t in 1..=2 {
        queued.add_task(
            TaskSpec::new(TaskId::new(t), format!("q{t}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(600)),
        );
    }
    stack
        .submit_plan(&AbstractPlan::new(queued).restricted_to(vec![SiteId::new(2)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(1));

    let mut huge = JobSpec::new(JobId::new(2), "huge", UserId::new(1));
    let mut task = TaskSpec::new(TaskId::new(3), "h", "reco");
    task.requested_cpu_hours = 1e300;
    huge.add_task(task);
    let plan = stack.submit_job(huge).unwrap();
    assert_eq!(plan.site_of(TaskId::new(3)), Some(SiteId::new(1)));
    stack.run_until(SimTime::from_secs(60));
}
