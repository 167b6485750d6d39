//! The XML-RPC client for the real-socket path Figure 6 measures.
//!
//! The server side of that path is `gae_aio::ReactorRpcServer`, the
//! one front door: it frames HTTP with [`crate::http::FrameParser`] and
//! submits the XML-RPC work to a fixed-size worker pool through the
//! shared [`crate::door`]. The pool is the server's service capacity —
//! once parallel clients exceed it, requests queue and the mean
//! response time climbs, exactly the behaviour the paper reports ("the
//! service can handle a large number of clients as long as they do not
//! exceed a certain limit", §7).

use crate::http::{try_read_response, HttpRequest, HttpResponse};
use crate::service::Rpc;
use gae_types::{GaeError, GaeResult, SessionId};
use gae_wire::{parse_response, write_call, MethodCall, Value};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A persistent-connection XML-RPC client.
///
/// The TCP connection (and its TLS-free handshake cost) is paid once
/// and reused across calls. A call is sent again, once, on a fresh
/// connection only when nothing of its reply arrived: the send failed,
/// or the connection closed before the reply's first byte — a reused
/// connection the server closed between calls. A reply cut off part-way
/// is an error, never a resend: the server may have run the call.
pub struct TcpRpcClient {
    addr: SocketAddr,
    /// The open connection: its buffered read half and its write half.
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
    session: Option<u64>,
    trace: Option<gae_obs::TraceContext>,
    timeout: Duration,
    reconnects: u64,
}

impl TcpRpcClient {
    /// Creates a client for `addr` (connects lazily).
    pub fn connect(addr: SocketAddr) -> TcpRpcClient {
        TcpRpcClient {
            addr,
            conn: None,
            session: None,
            trace: None,
            timeout: Duration::from_secs(10),
            reconnects: 0,
        }
    }

    /// Sets the per-call timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// How many times a call had to (re)connect — 1 for the first
    /// call, then 0 per call while the connection is reused.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Attaches a trace context: every subsequent call carries it in
    /// `X-GAE-Trace`, so server-side spans land in the caller's tree
    /// instead of a door-minted one. `None` clears it.
    pub fn set_trace(&mut self, trace: Option<gae_obs::TraceContext>) {
        self.trace = trace;
    }

    /// Logs in via `auth.login` and attaches the session to all
    /// subsequent calls.
    pub fn login(&mut self, username: &str, password: &str) -> GaeResult<SessionId> {
        let sid = self
            .call(
                "auth.login",
                vec![Value::from(username), Value::from(password)],
            )?
            .as_u64()?;
        self.session = Some(sid);
        Ok(SessionId::new(sid))
    }

    /// Detaches the session locally and logs out remotely.
    pub fn logout(&mut self) -> GaeResult<()> {
        if self.session.is_some() {
            let _ = self.call("auth.logout", vec![]);
            self.session = None;
        }
        Ok(())
    }

    /// The active session id, if logged in.
    pub fn session(&self) -> Option<u64> {
        self.session
    }

    /// A fresh connection; a failed connect is a typed `Io` error.
    fn open(&mut self) -> GaeResult<(BufReader<TcpStream>, TcpStream)> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
            .map_err(|e| GaeError::Io(format!("connect {}: {e}", self.addr)))?;
        stream.set_nodelay(true)?;
        // Both directions honour the per-call timeout: without the
        // write half, a client stalls forever when the server's socket
        // buffer fills under overload.
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        self.reconnects += 1;
        Ok((BufReader::new(stream.try_clone()?), stream))
    }

    /// Sends `request` on the open connection (opening one if there is
    /// none) and reads the reply. `Ok(None)`: nothing of the reply
    /// arrived. The connection is kept only after a whole reply, so an
    /// error never leaves half a reply for the next call to read.
    fn try_call_once(&mut self, request: &[u8]) -> GaeResult<Option<HttpResponse>> {
        let (mut reader, mut writer) = match self.conn.take() {
            Some(conn) => conn,
            None => self.open()?,
        };
        if writer.write_all(request).is_err() {
            return Ok(None);
        }
        let response = try_read_response(&mut reader)?;
        if response.is_some() {
            self.conn = Some((reader, writer));
        }
        Ok(response)
    }
}

impl Rpc for TcpRpcClient {
    fn call(&mut self, method: &str, params: Vec<Value>) -> GaeResult<Value> {
        let body = write_call(&MethodCall::new(method, params)).into_bytes();
        let mut request = HttpRequest::xmlrpc(body, self.session);
        if let Some(trace) = self.trace {
            request
                .headers
                .push(("X-GAE-Trace".to_string(), trace.encode()));
        }
        // One send per request: with TCP_NODELAY every small write
        // is its own segment, and whether the server then parses the
        // request in one read or in a dozen depends on how its wakeups
        // interleave with them — latency that swings from run to run.
        let request = request.to_bytes();
        let response = match self.try_call_once(&request)? {
            Some(response) => response,
            // Nothing of the reply arrived: resend once, on a fresh
            // connection (see the type's docs).
            None => self.try_call_once(&request)?.ok_or_else(|| {
                GaeError::Io(format!("{}: connection closed before a reply", self.addr))
            })?,
        };
        if response.status != 200 {
            // Non-200 is the transport refusing before XML-RPC ran:
            // map the status straight to the typed error (408 slow
            // request, 413 oversized frame, 400 bad framing, ...).
            return Err(GaeError::from_fault(
                i32::from(response.status),
                format!(
                    "HTTP {} {}: {}",
                    response.status,
                    response.reason,
                    String::from_utf8_lossy(&response.body)
                ),
            ));
        }
        parse_response(&response.body)?.into_result()
    }

    fn endpoint(&self) -> String {
        format!("http://{}/RPC2", self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::door::process_request;
    use crate::host::ServiceHost;
    use crate::http::read_request;
    use std::net::TcpListener;

    #[test]
    fn stale_keep_alive_connection_reconnects_transparently() {
        // A fake server that accepts one connection, serves exactly
        // one response, then closes the socket — the next call on
        // the reused connection hits EOF and must transparently
        // reconnect (served by the second accept).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let req = read_request(&mut reader).unwrap().unwrap();
                let body = process_request(&ServiceHost::open(), &req, "fake");
                let mut w = stream;
                HttpResponse::ok_xml(body).write_to(&mut w).unwrap();
                // Socket drops here: the keep-alive promise is broken.
            }
        });
        let mut client = TcpRpcClient::connect(addr).with_timeout(Duration::from_secs(5));
        assert_eq!(
            client.call("system.ping", vec![]).unwrap(),
            Value::from("pong")
        );
        // Give the fake server time to close the first socket so the
        // reuse attempt observes EOF rather than racing the close.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            client.call("system.ping", vec![]).unwrap(),
            Value::from("pong")
        );
        assert_eq!(client.reconnects(), 2, "stale EOF forced one reconnect");
        fake.join().unwrap();
    }

    #[test]
    fn connect_failure_is_io_error() {
        // Port 1 is essentially never listening.
        let mut client = TcpRpcClient::connect("127.0.0.1:1".parse().unwrap())
            .with_timeout(Duration::from_millis(200));
        let got = client.call("system.ping", vec![]);
        assert!(matches!(got, Err(GaeError::Io(_))), "{got:?}");
        assert_eq!(client.reconnects(), 0, "no connection was opened");
    }
}
