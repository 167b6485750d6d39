//! Minimal HTTP/1.1 framing — just enough to carry XML-RPC.
//!
//! Clarens served XML-RPC over HTTP POST; we implement the same
//! framing from scratch: request line + headers + `Content-Length`
//! body, persistent connections by default (HTTP/1.1 keep-alive),
//! `Connection: close` honoured. No chunked encoding, no TLS — the
//! reproduction measures service latency, not OpenSSL.
//!
//! Two front ends share this module's framing rules:
//!
//! * the **blocking** reader ([`read_request`]/[`read_response`]),
//!   used by the client and by the blocking reference loop the
//!   reactor is tested against — with an optional [`ReadDeadline`] so
//!   a byte-at-a-time slowloris client cannot pin a thread (typed 408);
//! * the **incremental** [`FrameParser`], fed whatever bytes a
//!   nonblocking socket has ready — the per-connection state machine
//!   the `gae-aio` reactor and the C10k bench client drive.
//!
//! Both enforce the same [`FrameLimits`]: an oversized header block
//! or body is a typed 413 ([`GaeError::PayloadTooLarge`]), never
//! unbounded buffering.

use gae_types::{GaeError, GaeResult};
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

/// Size caps on a single HTTP message, shared by the blocking reader
/// and the incremental parser (DoS guard: beyond a cap the request is a
/// typed 413, not an allocation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameLimits {
    /// Upper bound on the request/status line + header block.
    pub max_header_bytes: usize,
    /// Upper bound on a request/response body.
    pub max_body_bytes: usize,
}

impl FrameLimits {
    /// The stock caps: 16 KiB of headers, 16 MiB of body.
    pub const DEFAULT: FrameLimits = FrameLimits {
        max_header_bytes: 16 * 1024,
        max_body_bytes: 16 * 1024 * 1024,
    };
}

impl Default for FrameLimits {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// A wall-clock budget across one request's bytes: armed by the
/// first byte of a message, checked on every subsequent read. An
/// idle keep-alive connection (no bytes of the next request yet)
/// never trips it; a client dribbling one byte per poll tick does —
/// with a typed 408 ([`GaeError::RequestTimeout`]).
#[derive(Clone, Copy, Debug)]
pub struct ReadDeadline {
    budget: Option<Duration>,
    started: Option<Instant>,
}

impl ReadDeadline {
    /// No deadline: legacy behaviour (a mid-request read timeout is
    /// an I/O error).
    pub fn unbounded() -> ReadDeadline {
        ReadDeadline {
            budget: None,
            started: None,
        }
    }

    /// A deadline of `budget` from the first byte of each message.
    pub fn new(budget: Duration) -> ReadDeadline {
        ReadDeadline {
            budget: Some(budget),
            started: None,
        }
    }

    /// Re-arms for the next message on the connection.
    pub fn reset(&mut self) {
        self.started = None;
    }

    fn note_byte(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }

    /// Whether the budget is active for an in-progress message.
    fn armed(&self) -> bool {
        self.budget.is_some() && self.started.is_some()
    }

    fn check(&self) -> GaeResult<()> {
        if let (Some(budget), Some(started)) = (self.budget, self.started) {
            if started.elapsed() > budget {
                return Err(GaeError::RequestTimeout(format!(
                    "request not complete within {} ms",
                    budget.as_millis()
                )));
            }
        }
        Ok(())
    }
}

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`POST` for XML-RPC).
    pub method: String,
    /// Request path (`/RPC2` by convention).
    pub path: String,
    /// HTTP version string (`HTTP/1.1`).
    pub version: String,
    /// Raw header pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body.
    pub body: Vec<u8>,
}

/// A parsed HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Raw header pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

fn header_lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

impl HttpRequest {
    /// Builds the canonical XML-RPC POST request.
    pub fn xmlrpc(body: Vec<u8>, session: Option<u64>) -> Self {
        let mut headers = vec![
            ("Content-Type".to_string(), "text/xml".to_string()),
            ("Content-Length".to_string(), body.len().to_string()),
            ("User-Agent".to_string(), "gae-rpc/0.1".to_string()),
        ];
        if let Some(sid) = session {
            headers.push(("X-GAE-Session".to_string(), sid.to_string()));
        }
        HttpRequest {
            method: "POST".to_string(),
            path: "/RPC2".to_string(),
            version: "HTTP/1.1".to_string(),
            headers,
            body,
        }
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// The session id carried in `X-GAE-Session`, if any.
    pub fn session(&self) -> GaeResult<Option<u64>> {
        match self.header("X-GAE-Session") {
            None => Ok(None),
            Some(v) => v
                .trim()
                .parse::<u64>()
                .map(Some)
                .map_err(|_| GaeError::Parse(format!("bad X-GAE-Session {v:?}"))),
        }
    }

    /// The raw trace context carried in `X-GAE-Trace`, if any. The
    /// observability layer owns the encoding; transports just ferry
    /// the header so one logical request stays one causal tree
    /// across service hops.
    pub fn trace(&self) -> Option<&str> {
        self.header("X-GAE-Trace")
    }

    /// Whether the connection should stay open after this request.
    pub fn keep_alive(&self) -> bool {
        match self.header("Connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }

    /// Serializes onto a writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write!(w, "{} {} {}\r\n", self.method, self.path, self.version)?;
        for (k, v) in &self.headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }

    /// Serializes into a byte vector, so a socket gets the request in
    /// one `write` (`write_to` on a bare stream is one per fragment).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.body.len() + 256);
        self.write_to(&mut buf)
            .expect("invariant: a Vec accepts every write");
        buf
    }
}

impl HttpResponse {
    /// A `200 OK` with an XML body.
    pub fn ok_xml(body: Vec<u8>) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK".to_string(),
            headers: vec![
                ("Content-Type".to_string(), "text/xml".to_string()),
                ("Content-Length".to_string(), body.len().to_string()),
            ],
            body,
        }
    }

    /// An error response with a plain-text body.
    pub fn error(status: u16, reason: &str, body: &str) -> Self {
        HttpResponse {
            status,
            reason: reason.to_string(),
            headers: vec![
                ("Content-Type".to_string(), "text/plain".to_string()),
                ("Content-Length".to_string(), body.len().to_string()),
            ],
            body: body.as_bytes().to_vec(),
        }
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Serializes onto a writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, self.reason)?;
        for (k, v) in &self.headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }

    /// Serializes into a byte vector (the reactor's write queue).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.body.len() + 128);
        self.write_to(&mut buf)
            .expect("invariant: a Vec accepts every write");
        buf
    }
}

fn oversized_headers(limits: &FrameLimits) -> GaeError {
    GaeError::PayloadTooLarge(format!(
        "header block exceeds {} bytes",
        limits.max_header_bytes
    ))
}

fn oversized_body(len: usize, limits: &FrameLimits) -> GaeError {
    GaeError::PayloadTooLarge(format!(
        "body of {len} bytes exceeds the {}-byte cap",
        limits.max_body_bytes
    ))
}

fn split_header(line: &str) -> GaeResult<(String, String)> {
    let (k, v) = line
        .split_once(':')
        .ok_or_else(|| GaeError::Parse(format!("http: malformed header {line:?}")))?;
    Ok((k.trim().to_string(), v.trim().to_string()))
}

fn content_length(headers: &[(String, String)]) -> GaeResult<usize> {
    match header_lookup(headers, "Content-Length") {
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map_err(|_| GaeError::Parse(format!("http: bad Content-Length {v:?}"))),
        None => Ok(0),
    }
}

/// Reads one CRLF-terminated line without the terminator.
fn read_line<R: BufRead>(
    r: &mut R,
    budget: &mut usize,
    limits: &FrameLimits,
    deadline: &mut ReadDeadline,
) -> GaeResult<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(GaeError::Io("connection closed mid-line".into()));
            }
            Ok(_) => {
                deadline.note_byte();
                deadline.check()?;
                *budget = budget
                    .checked_sub(1)
                    .ok_or_else(|| oversized_headers(limits))?;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(Some(String::from_utf8(line).map_err(|_| {
                        GaeError::Parse("http: non-UTF-8 header line".into())
                    })?));
                }
                line.push(byte[0]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if deadline.armed() {
                    // Mid-message under a deadline: the per-read
                    // timeout is the poll tick; keep waiting until
                    // the request budget runs out (typed 408).
                    deadline.check()?;
                    continue;
                }
                if line.is_empty() {
                    // Idle connection under a read timeout: no bytes
                    // of the next request have arrived yet.
                    return Err(GaeError::Timeout("idle connection".into()));
                }
                return Err(e.into());
            }
            Err(e) => return Err(e.into()),
        }
    }
}

fn read_headers<R: BufRead>(
    r: &mut R,
    budget: &mut usize,
    limits: &FrameLimits,
    deadline: &mut ReadDeadline,
) -> GaeResult<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, budget, limits, deadline)?
            .ok_or_else(|| GaeError::Io("connection closed in headers".into()))?;
        if line.is_empty() {
            return Ok(headers);
        }
        headers.push(split_header(&line)?);
    }
}

fn read_body<R: BufRead>(
    r: &mut R,
    headers: &[(String, String)],
    limits: &FrameLimits,
    deadline: &mut ReadDeadline,
) -> GaeResult<Vec<u8>> {
    let len = content_length(headers)?;
    if len > limits.max_body_bytes {
        return Err(oversized_body(len, limits));
    }
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(GaeError::Io("http: short body: eof".into())),
            Ok(n) => {
                filled += n;
                deadline.note_byte();
                deadline.check()?;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && deadline.armed() =>
            {
                deadline.check()?;
            }
            Err(e) => return Err(GaeError::Io(format!("http: short body: {e}"))),
        }
    }
    Ok(body)
}

/// Reads one request; `Ok(None)` on a cleanly closed idle connection.
pub fn read_request<R: BufRead>(r: &mut R) -> GaeResult<Option<HttpRequest>> {
    read_request_limited(r, &FrameLimits::DEFAULT, &mut ReadDeadline::unbounded())
}

/// [`read_request`] with explicit size caps and a per-request read
/// deadline: the server-side door. The deadline re-arms per message.
pub fn read_request_limited<R: BufRead>(
    r: &mut R,
    limits: &FrameLimits,
    deadline: &mut ReadDeadline,
) -> GaeResult<Option<HttpRequest>> {
    deadline.reset();
    let mut budget = limits.max_header_bytes;
    let request_line = match read_line(r, &mut budget, limits, deadline)? {
        None => return Ok(None),
        Some(l) => l,
    };
    let (method, path, version) = parse_request_line(&request_line)?;
    let headers = read_headers(r, &mut budget, limits, deadline)?;
    let body = read_body(r, &headers, limits, deadline)?;
    Ok(Some(HttpRequest {
        method,
        path,
        version,
        headers,
        body,
    }))
}

fn parse_request_line(request_line: &str) -> GaeResult<(String, String, String)> {
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v.to_string()),
        _ => {
            return Err(GaeError::Parse(format!(
                "http: bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(GaeError::Parse(format!(
            "http: unsupported version {version:?}"
        )));
    }
    Ok((method, path, version))
}

fn parse_status_line(status_line: &str) -> GaeResult<(u16, String)> {
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(GaeError::Parse(format!(
            "http: bad status line {status_line:?}"
        )));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| GaeError::Parse(format!("http: bad status line {status_line:?}")))?;
    Ok((status, parts.next().unwrap_or("").to_string()))
}

/// Reads one response.
pub fn read_response<R: BufRead>(r: &mut R) -> GaeResult<HttpResponse> {
    let limits = FrameLimits::DEFAULT;
    let mut deadline = ReadDeadline::unbounded();
    let mut budget = limits.max_header_bytes;
    let status_line = read_line(r, &mut budget, &limits, &mut deadline)?
        .ok_or_else(|| GaeError::Io("connection closed before response".into()))?;
    let (status, reason) = parse_status_line(&status_line)?;
    let headers = read_headers(r, &mut budget, &limits, &mut deadline)?;
    let body = read_body(r, &headers, &limits, &mut deadline)?;
    Ok(HttpResponse {
        status,
        reason,
        headers,
        body,
    })
}

/// Incremental HTTP message parser: feed it whatever bytes a
/// nonblocking socket has ready; it consumes up to the end of one
/// message and stops (pipelined bytes stay with the caller). The
/// same [`FrameLimits`] as the blocking reader apply, with the same
/// typed 413 on overflow.
///
/// This is the per-connection readiness state machine of the
/// `gae-aio` reactor and of the C10k bench client:
///
/// ```text
/// StartLine --"\n"--> Headers --""--> Body --len bytes--> Complete
///      \__________________________(Content-Length: 0)_______/
/// ```
#[derive(Debug)]
pub struct FrameParser {
    limits: FrameLimits,
    phase: Phase,
    line: Vec<u8>,
    header_budget: usize,
    start_line: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    body_len: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    StartLine,
    Headers,
    Body,
    Complete,
}

impl FrameParser {
    /// A fresh parser under `limits`.
    pub fn new(limits: FrameLimits) -> FrameParser {
        FrameParser {
            limits,
            phase: Phase::StartLine,
            line: Vec::new(),
            header_budget: limits.max_header_bytes,
            start_line: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
            body_len: 0,
        }
    }

    /// Whether a full message is buffered and ready to take.
    pub fn is_complete(&self) -> bool {
        self.phase == Phase::Complete
    }

    /// Consumes bytes from `chunk` up to the end of one message.
    /// Returns how many bytes were consumed (always the whole chunk
    /// unless a message completed first). Errors are sticky: a
    /// connection that produced one is torn down by the caller.
    pub fn feed(&mut self, chunk: &[u8]) -> GaeResult<usize> {
        let mut consumed = 0;
        while consumed < chunk.len() && self.phase != Phase::Complete {
            match self.phase {
                Phase::StartLine | Phase::Headers => {
                    let b = chunk[consumed];
                    consumed += 1;
                    self.header_budget = self
                        .header_budget
                        .checked_sub(1)
                        .ok_or_else(|| oversized_headers(&self.limits))?;
                    if b == b'\n' {
                        if self.line.last() == Some(&b'\r') {
                            self.line.pop();
                        }
                        self.end_line()?;
                    } else {
                        self.line.push(b);
                    }
                }
                Phase::Body => {
                    let want = self.body_len - self.body.len();
                    let take = want.min(chunk.len() - consumed);
                    self.body
                        .extend_from_slice(&chunk[consumed..consumed + take]);
                    consumed += take;
                    if self.body.len() == self.body_len {
                        self.phase = Phase::Complete;
                    }
                }
                Phase::Complete => unreachable!("loop guard"),
            }
        }
        Ok(consumed)
    }

    fn end_line(&mut self) -> GaeResult<()> {
        let line = String::from_utf8(std::mem::take(&mut self.line))
            .map_err(|_| GaeError::Parse("http: non-UTF-8 header line".into()))?;
        match self.phase {
            Phase::StartLine => {
                self.start_line = line;
                self.phase = Phase::Headers;
            }
            Phase::Headers => {
                if line.is_empty() {
                    self.body_len = content_length(&self.headers)?;
                    if self.body_len > self.limits.max_body_bytes {
                        return Err(oversized_body(self.body_len, &self.limits));
                    }
                    self.body.reserve(self.body_len);
                    self.phase = if self.body_len == 0 {
                        Phase::Complete
                    } else {
                        Phase::Body
                    };
                } else {
                    self.headers.push(split_header(&line)?);
                }
            }
            Phase::Body | Phase::Complete => unreachable!("lines only precede the body"),
        }
        Ok(())
    }

    fn reset(&mut self) -> (String, Vec<(String, String)>, Vec<u8>) {
        let start_line = std::mem::take(&mut self.start_line);
        let headers = std::mem::take(&mut self.headers);
        let body = std::mem::take(&mut self.body);
        self.phase = Phase::StartLine;
        self.line.clear();
        self.header_budget = self.limits.max_header_bytes;
        self.body_len = 0;
        (start_line, headers, body)
    }

    /// Takes the completed message as a request and resets the
    /// parser for the next one on the connection.
    pub fn take_request(&mut self) -> GaeResult<HttpRequest> {
        assert!(self.is_complete(), "take_request before completion");
        let (start_line, headers, body) = self.reset();
        let (method, path, version) = parse_request_line(&start_line)?;
        Ok(HttpRequest {
            method,
            path,
            version,
            headers,
            body,
        })
    }

    /// Takes the completed message as a response and resets the
    /// parser for the next one on the connection.
    pub fn take_response(&mut self) -> GaeResult<HttpResponse> {
        assert!(self.is_complete(), "take_response before completion");
        let (start_line, headers, body) = self.reset();
        let (status, reason) = parse_status_line(&start_line)?;
        Ok(HttpResponse {
            status,
            reason,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip_request(req: &HttpRequest) -> HttpRequest {
        let buf = req.to_bytes();
        read_request(&mut BufReader::new(&buf[..]))
            .unwrap()
            .unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let req = HttpRequest::xmlrpc(b"<xml/>".to_vec(), Some(42));
        let back = roundtrip_request(&req);
        assert_eq!(back.method, "POST");
        assert_eq!(back.path, "/RPC2");
        assert_eq!(back.body, b"<xml/>");
        assert_eq!(back.session().unwrap(), Some(42));
        assert!(back.keep_alive());
    }

    #[test]
    fn response_roundtrip() {
        let resp = HttpResponse::ok_xml(b"<ok/>".to_vec());
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.reason, "OK");
        assert_eq!(back.body, b"<ok/>");
        assert_eq!(back.header("content-type"), Some("text/xml"));
    }

    #[test]
    fn error_response() {
        let resp = HttpResponse::error(400, "Bad Request", "nope");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.status, 400);
        assert_eq!(back.body, b"nope");
    }

    #[test]
    fn idle_close_returns_none() {
        let empty: &[u8] = b"";
        assert!(read_request(&mut BufReader::new(empty)).unwrap().is_none());
    }

    #[test]
    fn partial_request_is_error() {
        let partial: &[u8] = b"POST /RPC2 HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_request(&mut BufReader::new(partial)).is_err());
        let cut: &[u8] = b"POST /RPC2 HTT";
        assert!(read_request(&mut BufReader::new(cut)).is_err());
    }

    #[test]
    fn malformed_requests_rejected() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "POST /RPC2 SPDY/1\r\n\r\n",
            "POST /RPC2 HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "POST /RPC2 HTTP/1.1\r\nContent-Length: many\r\n\r\n",
        ] {
            let r = read_request(&mut BufReader::new(bad.as_bytes()));
            assert!(r.is_err(), "{bad:?} should fail: {r:?}");
        }
    }

    #[test]
    fn keep_alive_rules() {
        let mut req = HttpRequest::xmlrpc(vec![], None);
        assert!(req.keep_alive(), "1.1 default keep-alive");
        req.headers.push(("Connection".into(), "close".into()));
        assert!(!req.keep_alive());
        let mut req10 = HttpRequest::xmlrpc(vec![], None);
        req10.version = "HTTP/1.0".into();
        assert!(!req10.keep_alive(), "1.0 default close");
        req10
            .headers
            .push(("Connection".into(), "Keep-Alive".into()));
        assert!(req10.keep_alive());
    }

    #[test]
    fn bad_session_header() {
        let mut req = HttpRequest::xmlrpc(vec![], None);
        req.headers.push(("X-GAE-Session".into(), "abc".into()));
        assert!(req.session().is_err());
        let clean = HttpRequest::xmlrpc(vec![], None);
        assert_eq!(clean.session().unwrap(), None);
    }

    #[test]
    fn oversized_body_is_typed_413() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            FrameLimits::DEFAULT.max_body_bytes + 1
        );
        assert!(matches!(
            read_request(&mut BufReader::new(huge.as_bytes())),
            Err(GaeError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn oversized_headers_are_typed_413() {
        let mut big = String::from("POST / HTTP/1.1\r\n");
        for i in 0..2000 {
            big.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(20)));
        }
        big.push_str("\r\n");
        assert!(matches!(
            read_request(&mut BufReader::new(big.as_bytes())),
            Err(GaeError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn two_pipelined_requests() {
        let mut buf = Vec::new();
        HttpRequest::xmlrpc(b"one".to_vec(), None)
            .write_to(&mut buf)
            .unwrap();
        HttpRequest::xmlrpc(b"two".to_vec(), None)
            .write_to(&mut buf)
            .unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_request(&mut r).unwrap().unwrap().body, b"one");
        assert_eq!(read_request(&mut r).unwrap().unwrap().body, b"two");
        assert!(read_request(&mut r).unwrap().is_none());
    }

    /// A reader that yields each scripted chunk once, interleaving
    /// `WouldBlock` between them, with a sleep standing in for the
    /// slow client.
    struct DribbleReader {
        chunks: Vec<Vec<u8>>,
        next: usize,
        pause: Duration,
        blocked: bool,
    }

    impl std::io::Read for DribbleReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.blocked {
                self.blocked = true;
                std::thread::sleep(self.pause);
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.blocked = false;
            match self.chunks.get(self.next) {
                None => Ok(0),
                Some(c) => {
                    let n = c.len().min(buf.len());
                    buf[..n].copy_from_slice(&c[..n]);
                    if n == c.len() {
                        self.next += 1;
                    } else {
                        self.chunks[self.next] = c[n..].to_vec();
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn slow_header_bytes_trip_the_deadline() {
        // One byte per ~6 ms against a 20 ms budget: typed 408.
        let raw = b"POST /RPC2 HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        // `blocked: true` delivers the first byte immediately (a real
        // server only calls with a deadline once the connection has
        // begun a request; pre-first-byte WouldBlock is the idle path,
        // covered below).
        let r = DribbleReader {
            chunks: raw.iter().map(|b| vec![*b]).collect(),
            next: 0,
            pause: Duration::from_millis(6),
            blocked: true,
        };
        let got = read_request_limited(
            &mut BufReader::new(r),
            &FrameLimits::DEFAULT,
            &mut ReadDeadline::new(Duration::from_millis(20)),
        );
        assert!(
            matches!(got, Err(GaeError::RequestTimeout(_))),
            "expected 408, got {got:?}"
        );
    }

    #[test]
    fn fast_request_fits_the_deadline_and_idle_does_not_trip() {
        let mut buf = Vec::new();
        HttpRequest::xmlrpc(b"quick".to_vec(), None)
            .write_to(&mut buf)
            .unwrap();
        let mut deadline = ReadDeadline::new(Duration::from_secs(5));
        let got = read_request_limited(
            &mut BufReader::new(&buf[..]),
            &FrameLimits::DEFAULT,
            &mut deadline,
        )
        .unwrap()
        .unwrap();
        assert_eq!(got.body, b"quick");
        // An idle connection (WouldBlock before any byte) stays the
        // legacy idle-timeout signal, not a 408.
        let idle = DribbleReader {
            chunks: vec![],
            next: 0,
            pause: Duration::from_millis(1),
            blocked: false,
        };
        let got = read_request_limited(
            &mut BufReader::new(idle),
            &FrameLimits::DEFAULT,
            &mut deadline,
        );
        assert!(matches!(got, Err(GaeError::Timeout(_))), "{got:?}");
    }

    #[test]
    fn incremental_parser_matches_blocking_reader() {
        let mut buf = Vec::new();
        let req = HttpRequest::xmlrpc(b"<params/>".to_vec(), Some(7));
        req.write_to(&mut buf).unwrap();
        // Byte-at-a-time feed: the worst-case readiness schedule.
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        let mut fed = 0;
        for b in &buf {
            assert!(!parser.is_complete());
            fed += parser.feed(std::slice::from_ref(b)).unwrap();
        }
        assert_eq!(fed, buf.len());
        assert!(parser.is_complete());
        let incremental = parser.take_request().unwrap();
        let blocking = read_request(&mut BufReader::new(&buf[..]))
            .unwrap()
            .unwrap();
        assert_eq!(incremental, blocking);
        assert!(
            parser.phase == Phase::StartLine && parser.line.is_empty(),
            "parser reset after take"
        );
    }

    #[test]
    fn incremental_parser_stops_at_message_boundary() {
        let mut buf = Vec::new();
        HttpRequest::xmlrpc(b"one".to_vec(), None)
            .write_to(&mut buf)
            .unwrap();
        let first_len = buf.len();
        HttpRequest::xmlrpc(b"two".to_vec(), None)
            .write_to(&mut buf)
            .unwrap();
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        let consumed = parser.feed(&buf).unwrap();
        assert_eq!(consumed, first_len, "stops at the pipeline boundary");
        assert_eq!(parser.take_request().unwrap().body, b"one");
        let consumed2 = parser.feed(&buf[consumed..]).unwrap();
        assert_eq!(consumed + consumed2, buf.len());
        assert_eq!(parser.take_request().unwrap().body, b"two");
    }

    #[test]
    fn incremental_parser_enforces_limits() {
        let tiny = FrameLimits {
            max_header_bytes: 64,
            max_body_bytes: 8,
        };
        let mut parser = FrameParser::new(tiny);
        let long = format!("POST / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(128));
        assert!(matches!(
            parser.feed(long.as_bytes()),
            Err(GaeError::PayloadTooLarge(_))
        ));
        let mut parser = FrameParser::new(tiny);
        let fat = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(matches!(
            parser.feed(fat.as_bytes()),
            Err(GaeError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn incremental_parser_reads_responses() {
        let resp = HttpResponse::ok_xml(b"<ok/>".to_vec());
        let buf = resp.to_bytes();
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        assert_eq!(parser.feed(&buf).unwrap(), buf.len());
        let back = parser.take_response().unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.body, b"<ok/>");
    }

    #[test]
    fn incremental_parser_rejects_garbage_start_line() {
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        parser.feed(b"GARBAGE\r\n\r\n").unwrap();
        assert!(parser.is_complete());
        assert!(parser.take_request().is_err());
    }
}
