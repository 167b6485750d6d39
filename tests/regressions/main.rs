//! One deterministic test per defect found in the running system, each
//! of which fails on the code before its fix. ROADMAP item 1 names the
//! defects; a test here carries its label.

#[path = "../door/mod.rs"]
mod door;

use door::open_gate;
use gae::aio::{sys, ReactorRpcServer};
use gae::rpc::http::{read_response, FrameLimits, HttpRequest, HttpResponse};
use gae::rpc::service::{Method, Methods};
use gae::rpc::ServiceHost;
use gae::wire::{write_call, MethodCall, Value};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
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
    let mut reader = BufReader::new(Sluggish {
        stream: &stream,
        first_byte: Some(replying),
    });
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
