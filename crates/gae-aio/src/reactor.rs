//! The reactor server: every connection's readiness state machine on
//! one event loop.
//!
//! `ReactorRpcServer` is the GAE's one front door: framing comes from
//! [`gae_rpc::http`], dispatch (gate admission, auth, observability,
//! fault encoding) from [`gae_rpc::door`], and a connection costs a
//! slab slot, not a thread. One reactor thread owns the listener, a
//! [`Poller`] and all connection state; XML-RPC work crosses into the
//! door's worker pool and completions come back through a
//! mutex-guarded vector plus a [`Waker`] kick — except calls marked
//! [`gae_rpc::Service::inline`], which the door runs to completion on
//! this thread: their reply is queued and flushed in the loop
//! iteration that framed them, with no thread hop at all.
//!
//! Per-connection lifecycle:
//!
//! ```text
//!  Reading ──complete frame──▶ Dispatched ──completion──▶ Writing
//!     ▲ │ (FrameParser, 408    (one in-flight request;    (queue drain,
//!     │ │  deadline, 413 caps)  pipelined bytes buffered)  EPOLLOUT on
//!     │ └──inline (marked method, body ≤ INLINE_BODY_CAP, ──▲ partial
//!     │            budget left this iteration)                write)
//!     └────────── keep-alive ◀── queue empty ─────────────────┘
//! ```
//!
//! `Reading` parses only while at most `MAX_QUEUED_REPLIES` replies
//! wait for socket space: a peer that does not read its answers stops
//! being asked for more of them.

use crate::poller::{Event, Interest, Poller};
use crate::wake::Waker;
use gae_gate::Gate;
use gae_rpc::door::{Deliver, DoorBackend, Submitted};
use gae_rpc::host::ServiceHost;
use gae_rpc::http::{FrameLimits, FrameParser, HttpRequest, HttpResponse};
use gae_types::{GaeError, GaeResult};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the listening socket.
const LISTENER: u64 = 0;
/// Poller token of the waker fd.
const WAKER: u64 = 1;
/// Connection slab slot `i` registers under token `i + CONN_BASE`.
const CONN_BASE: u64 = 2;

/// Inline calls one loop iteration may run; the overflow takes the
/// pooled path, where the gate's bounded queue, deadline and shed
/// logic apply. A constant, not a knob: at ~15 µs a call it caps an
/// iteration's inline work near 1 ms — what one `accept` burst already
/// costs — so a read flood cannot starve `accept`, completions or the
/// 408 sweep, while two closed-loop clients never come near it.
pub const INLINE_BUDGET: u32 = 64;

/// The accept queue the listener asks the kernel for (which clamps it
/// to `net.core.somaxconn`). std binds with 128, which a connect ramp
/// of a thousand clients overruns: the overflow's SYNs are dropped and
/// retried a second later, and that luck — not the server — then sets
/// the sweep's latencies.
const LISTEN_BACKLOG: i32 = 4096;

/// Replies a connection may have waiting for socket space before the
/// reactor stops parsing its input: a client that pipelines and never
/// reads then backs up into `inbuf`, whose cap closes it with the
/// typed 413, instead of growing `outq` without bound. A reply being
/// written with one more behind it is a pipeliner that keeps up.
const MAX_QUEUED_REPLIES: usize = 2;

/// How late a 408 sweep or a shutdown check may run; also the period
/// of the sweep itself, and how long a connection whose goodbye is
/// written keeps draining its input. Readiness events arrive
/// immediately.
const TICK: Duration = Duration::from_millis(100);

/// Reactor knobs.
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Framing caps (typed 413 beyond them).
    pub limits: FrameLimits,
    /// Budget for one request's bytes once the first byte arrives
    /// (typed 408 beyond it). Idle keep-alive costs nothing.
    pub request_deadline: Duration,
    /// Kernel send-buffer size to force on accepted sockets — a test
    /// knob: tiny values make partial writes deterministic.
    pub so_sndbuf: Option<usize>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            limits: FrameLimits::DEFAULT,
            request_deadline: Duration::from_secs(2),
            so_sndbuf: None,
        }
    }
}

/// One completed dispatch, crossing back from a door worker.
struct Completion {
    slot: usize,
    generation: u64,
    body: Vec<u8>,
}

/// The shared worker→reactor mailbox.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Mailbox {
    fn deliver(&self, slot: usize, generation: u64, body: Vec<u8>) {
        self.completions.lock().push(Completion {
            slot,
            generation,
            body,
        });
        self.waker.wake();
    }
}

/// What a connection is doing between poll wakeups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnPhase {
    /// Accumulating request bytes in the parser.
    Reading,
    /// One request is out at the door; arriving bytes buffer in
    /// `inbuf` (pipelining) but are not parsed yet.
    Dispatched,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// The peer address as services see it, rendered once at accept.
    peer: String,
    parser: FrameParser,
    /// Bytes read but not yet fed to the parser (pipelined requests
    /// behind an in-flight one).
    inbuf: Vec<u8>,
    /// Responses waiting for socket space: (`bytes`, `offset`,
    /// `close_after`).
    outq: VecDeque<(Vec<u8>, usize, bool)>,
    phase: ConnPhase,
    /// When the current request's first byte arrived (None = between
    /// requests; idle connections never time out).
    msg_started: Option<Instant>,
    /// Whether the in-flight request asked for `Connection: close`.
    close_after_reply: bool,
    /// Matches completions to the slot's current tenant: a completion
    /// for a closed connection's generation is discarded, never sent
    /// to whoever reuses the slot.
    generation: u64,
    /// Current poller registration.
    interest: Interest,
    /// A terminal response is queued or written: stop parsing,
    /// discard further input.
    dying: bool,
    /// When the terminal response was written and the write side shut.
    /// The slot closes on EOF or one [`TICK`] later: closing while
    /// input is still arriving would send RST, and RST discards
    /// whatever of the response the kernel has not sent yet.
    shut: Option<Instant>,
}

impl Conn {
    /// Whether parsing waits for the peer to read what it was sent.
    fn backed_up(&self) -> bool {
        self.outq.len() > MAX_QUEUED_REPLIES
    }
}

/// The XML-RPC server: a readiness reactor sized for C10k-scale
/// keep-alive fleets.
pub struct ReactorRpcServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    mailbox: Arc<Mailbox>,
    thread: Option<JoinHandle<()>>,
    requests_served: Arc<AtomicU64>,
    inline_served: Arc<AtomicU64>,
    open_connections: Arc<AtomicU64>,
}

impl ReactorRpcServer {
    /// Binds `127.0.0.1:0` (ephemeral port) and starts serving `host`
    /// with `workers` request processors behind `gate`: every POST is
    /// classified and rate-limited per principal, then either run
    /// inline or queued through the gate's bounded priority admission
    /// queue.
    pub fn start_gated(
        host: Arc<ServiceHost>,
        workers: usize,
        gate: Arc<Gate>,
    ) -> GaeResult<ReactorRpcServer> {
        Self::bind_gated(host, workers, "127.0.0.1:0", gate)
    }

    /// Binds an explicit address.
    pub fn bind_gated(
        host: Arc<ServiceHost>,
        workers: usize,
        addr: &str,
        gate: Arc<Gate>,
    ) -> GaeResult<ReactorRpcServer> {
        Self::bind_tuned(host, workers, addr, gate, ReactorConfig::default())
    }

    /// Fully explicit constructor. Everything that can fail — bind,
    /// waker, poller, both registrations, thread spawn — fails here
    /// as a typed error: an `Ok` server is one whose loop is polling
    /// its listener.
    pub fn bind_tuned(
        host: Arc<ServiceHost>,
        workers: usize,
        addr: &str,
        gate: Arc<Gate>,
        config: ReactorConfig,
    ) -> GaeResult<ReactorRpcServer> {
        let io = |what: &'static str| move |e: std::io::Error| GaeError::Io(format!("{what}: {e}"));
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        crate::sys::set_listen_backlog(listener.as_raw_fd(), LISTEN_BACKLOG)
            .map_err(io("listen backlog"))?;
        let mailbox = Arc::new(Mailbox {
            completions: Mutex::new(Vec::new()),
            waker: Waker::new().map_err(io("waker"))?,
        });
        let mut poller = Poller::new().map_err(io("poller"))?;
        poller
            .add(listener.as_raw_fd(), LISTENER, Interest::READ)
            .map_err(io("register listener"))?;
        poller
            .add(mailbox.waker.as_raw_fd(), WAKER, Interest::READ)
            .map_err(io("register waker"))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let requests_served = Arc::new(AtomicU64::new(0));
        let inline_served = Arc::new(AtomicU64::new(0));
        let open_connections = Arc::new(AtomicU64::new(0));
        let thread = {
            let mailbox = mailbox.clone();
            let shutdown = shutdown.clone();
            let served = requests_served.clone();
            let inline_served = inline_served.clone();
            let open = open_connections.clone();
            std::thread::Builder::new()
                .name("gae-aio-reactor".to_string())
                .spawn(move || {
                    let mut r = Reactor {
                        host,
                        door: DoorBackend::new(workers, gate),
                        listener,
                        poller,
                        mailbox,
                        config,
                        slots: Vec::new(),
                        free: Vec::new(),
                        gen_watermarks: Vec::new(),
                        read_buf: vec![0u8; 16 * 1024],
                        inline_left: INLINE_BUDGET,
                        shutdown,
                        served,
                        inline_served,
                        open,
                    };
                    r.run();
                })
                .map_err(|e| GaeError::Io(format!("spawn reactor: {e}")))?
        };
        Ok(ReactorRpcServer {
            addr,
            shutdown,
            mailbox,
            thread: Some(thread),
            requests_served,
            inline_served,
            open_connections,
        })
    }

    /// The bound address, for clients.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's URL-ish endpoint string.
    pub fn endpoint(&self) -> String {
        format!("http://{}/RPC2", self.addr)
    }

    /// Total requests served (diagnostics/benchmarks).
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Of [`Self::requests_served`], the calls that ran to completion
    /// on the reactor thread (diagnostics/tests).
    pub fn inline_served(&self) -> u64 {
        self.inline_served.load(Ordering::Relaxed)
    }

    /// Currently-open connections.
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Shared handle to the open-connections gauge, for sampler
    /// threads that outlive a borrow of the server.
    pub fn open_connections_handle(&self) -> Arc<AtomicU64> {
        self.open_connections.clone()
    }

    /// Signals shutdown and joins the reactor thread.
    pub fn stop(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.mailbox.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorRpcServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// The event loop's owned state (lives on the reactor thread).
struct Reactor {
    host: Arc<ServiceHost>,
    door: DoorBackend,
    listener: TcpListener,
    poller: Poller,
    mailbox: Arc<Mailbox>,
    config: ReactorConfig,
    /// Connection slab; token = index + [`CONN_BASE`].
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Per-slot generation floor for the next tenant (see `close`).
    gen_watermarks: Vec<u64>,
    /// Where every socket read lands before it is copied to its
    /// connection's `inbuf`.
    read_buf: Vec<u8>,
    /// Inline calls this loop iteration may still run.
    inline_left: u32,
    shutdown: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    inline_served: Arc<AtomicU64>,
    open: Arc<AtomicU64>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now() + TICK;
        while !self.shutdown.load(Ordering::Acquire) {
            events.clear();
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                break;
            }
            self.inline_left = INLINE_BUDGET;
            for &ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKER => self.mailbox.waker.drain(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.drain_completions();
            // The 408 contract needs tick granularity, not a walk of
            // every slot per wake-up.
            let now = Instant::now();
            if now >= next_sweep {
                next_sweep = now + TICK;
                self.sweep_deadlines();
            }
        }
    }

    // ---- listener ----

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => self.install(stream, peer),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept failures (ECONNABORTED, EMFILE...):
                // drop that connection attempt, keep serving.
                Err(_) => break,
            }
        }
    }

    fn install(&mut self, stream: TcpStream, peer: SocketAddr) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = self.config.so_sndbuf {
            let _ = crate::sys::set_send_buffer(stream.as_raw_fd(), bytes);
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        let generation = self.gen_watermarks.get(slot).copied().unwrap_or(0);
        let fd = stream.as_raw_fd();
        let conn = Conn {
            stream,
            peer: peer.to_string(),
            parser: FrameParser::new(self.config.limits),
            inbuf: Vec::new(),
            outq: VecDeque::new(),
            phase: ConnPhase::Reading,
            msg_started: None,
            close_after_reply: false,
            generation,
            interest: Interest::READ,
            dying: false,
            shut: None,
        };
        if self
            .poller
            .add(fd, CONN_BASE + slot as u64, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.slots[slot] = Some(conn);
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    // ---- connection events ----

    fn conn_ready(&mut self, token: u64, ev: Event) {
        let slot = (token - CONN_BASE) as usize;
        let Some(Some(conn)) = self.slots.get(slot) else {
            return; // already closed this iteration
        };
        let dying = conn.dying;
        let mut fate = Ok(());
        if ev.readable || ev.hangup {
            fate = self.fill_inbuf(slot);
        }
        // Flush first: draining `outq` is what lets a backed-up
        // connection's buffered requests be parsed again.
        if fate.is_ok() && ev.writable {
            fate = self.flush(slot);
        }
        if fate.is_ok() && !dying {
            fate = self.advance(slot);
        }
        if fate.is_err() {
            self.close(slot);
        }
    }

    /// Reads everything the socket has. `Err` means the connection is
    /// gone (EOF or error).
    fn fill_inbuf(&mut self, slot: usize) -> Result<(), ()> {
        // Bounded buffering even while a request is in flight: a
        // pipelining flood cannot exceed one max-size frame of backlog.
        let cap = self.config.limits.max_header_bytes + self.config.limits.max_body_bytes + 4096;
        // A slot can close mid-event (a reject whose goodbye fit the
        // socket buffer): every per-slot step treats that as done.
        let Some(Some(conn)) = self.slots.get_mut(slot) else {
            return Ok(());
        };
        let buf = &mut self.read_buf[..];
        loop {
            match conn.stream.read(buf) {
                // EOF: a client that hangs up mid-request (or with a
                // request in flight) just goes away — the completion,
                // if any, is discarded by the generation check.
                Ok(0) => return Err(()),
                Ok(n) => {
                    if conn.dying {
                        // Discard: only the goodbye matters. One read a
                        // wakeup, so a peer that never stops sending
                        // cannot hold the loop.
                        return Ok(());
                    }
                    if conn.msg_started.is_none() {
                        conn.msg_started = Some(Instant::now());
                    }
                    conn.inbuf.extend_from_slice(&buf[..n]);
                    if conn.inbuf.len() > cap {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        self.reject(
            slot,
            413,
            "Payload Too Large",
            "pipelined backlog exceeds frame limits",
        );
        Ok(())
    }

    /// Feeds buffered bytes through the parser and dispatches any
    /// complete request (at most one in flight per connection).
    fn advance(&mut self, slot: usize) -> Result<(), ()> {
        loop {
            let Some(Some(conn)) = self.slots.get_mut(slot) else {
                return Ok(()); // closed while handling a prior frame
            };
            if conn.phase != ConnPhase::Reading
                || conn.dying
                || conn.backed_up()
                || conn.inbuf.is_empty()
            {
                return Ok(());
            }
            let consumed = match conn.parser.feed(&conn.inbuf) {
                Ok(n) => n,
                Err(GaeError::PayloadTooLarge(why)) => {
                    self.reject(slot, 413, "Payload Too Large", &why);
                    return Ok(());
                }
                Err(_) => {
                    self.reject(slot, 400, "Bad Request", "malformed HTTP");
                    return Ok(());
                }
            };
            conn.inbuf.drain(..consumed);
            if !conn.parser.is_complete() {
                // Parser wants more bytes than we have buffered.
                return Ok(());
            }
            let request = match conn.parser.take_request() {
                Ok(r) => r,
                Err(_) => {
                    self.reject(slot, 400, "Bad Request", "malformed HTTP");
                    return Ok(());
                }
            };
            conn.msg_started = None;
            self.handle_request(slot, request)?;
        }
    }

    /// Routes one framed request. `Err` closes the connection.
    fn handle_request(&mut self, slot: usize, request: HttpRequest) -> Result<(), ()> {
        let keep_alive = request.keep_alive();
        if request.method == "GET" {
            let response = match self.host.handle_get(&request.path) {
                Some((content_type, body)) => {
                    let mut r = HttpResponse::ok_xml(body);
                    r.headers[0] = ("Content-Type".to_string(), content_type);
                    r
                }
                None => HttpResponse::error(404, "Not Found", "no such page"),
            };
            self.served.fetch_add(1, Ordering::Relaxed);
            self.enqueue(slot, response.to_bytes(), !keep_alive);
            return self.flush(slot);
        }
        if request.method != "POST" {
            self.reject(slot, 405, "Method Not Allowed", "use POST /RPC2 or GET");
            return Ok(());
        }
        let Some(Some(conn)) = self.slots.get_mut(slot) else {
            return Ok(());
        };
        let generation = conn.generation;
        let mailbox = self.mailbox.clone();
        let deliver: Deliver = Box::new(move |body| {
            mailbox.deliver(slot, generation, body);
        });
        let may_inline = self.inline_left > 0;
        match self
            .door
            .submit(&self.host, request, &conn.peer, may_inline, deliver)
        {
            // Ran to completion right here: the connection never left
            // `Reading`, nothing crosses the mailbox.
            Submitted::Inline(body) => {
                self.inline_left -= 1;
                self.served.fetch_add(1, Ordering::Relaxed);
                self.inline_served.fetch_add(1, Ordering::Relaxed);
                self.enqueue(slot, HttpResponse::ok_xml(body).to_bytes(), !keep_alive);
                self.flush(slot)
            }
            // The completion (even one delivered synchronously, a gate
            // refusal) is drained by this thread later in the loop, so
            // marking the phase after the hand-off cannot miss it.
            Submitted::Pooled => {
                conn.phase = ConnPhase::Dispatched;
                conn.close_after_reply = !keep_alive;
                Ok(())
            }
        }
    }

    // ---- completions ----

    fn drain_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut guard = self.mailbox.completions.lock();
            std::mem::take(&mut *guard)
        };
        for c in done {
            let Some(Some(conn)) = self.slots.get_mut(c.slot) else {
                continue;
            };
            if conn.generation != c.generation || conn.phase != ConnPhase::Dispatched || conn.dying
            {
                continue; // tenant changed, or said goodbye, under the completion
            }
            conn.phase = ConnPhase::Reading;
            let close = conn.close_after_reply;
            self.served.fetch_add(1, Ordering::Relaxed);
            self.enqueue(c.slot, HttpResponse::ok_xml(c.body).to_bytes(), close);
            // A pipelined second request may be fully buffered already.
            let fate = self.flush(c.slot).and_then(|()| self.advance(c.slot));
            if fate.is_err() {
                self.close(c.slot);
            }
        }
    }

    // ---- writing ----

    /// Queues `bytes` and opportunistically writes (most responses
    /// fit the socket buffer and never need EPOLLOUT).
    fn enqueue(&mut self, slot: usize, bytes: Vec<u8>, close_after: bool) {
        if let Some(Some(conn)) = self.slots.get_mut(slot) {
            conn.outq.push_back((bytes, 0, close_after));
        }
    }

    /// Queues a terminal error response: written, then the connection
    /// drains and closes.
    fn reject(&mut self, slot: usize, status: u16, reason: &str, body: &str) {
        {
            let Some(Some(conn)) = self.slots.get_mut(slot) else {
                return;
            };
            if conn.dying {
                return; // one goodbye per connection
            }
            conn.dying = true;
            conn.msg_started = None;
            conn.inbuf.clear();
        }
        let bytes = HttpResponse::error(status, reason, body).to_bytes();
        self.enqueue(slot, bytes, true);
        if self.flush(slot).is_err() {
            self.close(slot);
        }
    }

    /// Drains the write queue as far as the socket allows. `Err`
    /// means the connection is gone.
    fn flush(&mut self, slot: usize) -> Result<(), ()> {
        let Some(Some(conn)) = self.slots.get_mut(slot) else {
            return Ok(());
        };
        'queue: while let Some((bytes, offset, close_after)) = conn.outq.front_mut() {
            while *offset < bytes.len() {
                match conn.stream.write(&bytes[*offset..]) {
                    Ok(0) => return Err(()),
                    Ok(n) => *offset += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break 'queue,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Err(()),
                }
            }
            if *close_after {
                // The last response is written: FIN behind it, then
                // drain until EOF or the sweep (see `Conn::shut`).
                conn.outq.clear();
                conn.dying = true;
                conn.shut = Some(Instant::now());
                conn.stream.shutdown(Shutdown::Write).map_err(|_| ())?;
            } else {
                conn.outq.pop_front();
            }
        }
        // Register/deregister write interest to match queue state.
        let want = if conn.outq.is_empty() {
            Interest::READ
        } else {
            Interest::READ_WRITE
        };
        if want != conn.interest {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            if self
                .poller
                .modify(fd, CONN_BASE + slot as u64, want)
                .is_err()
            {
                return Err(());
            }
        }
        Ok(())
    }

    // ---- housekeeping ----

    /// Typed 408 for connections whose current request outlived its
    /// deadline. Idle connections (`msg_started == None`) never trip,
    /// nor do backed-up ones: their bytes wait on us, not on the peer.
    /// Also closes the connections that have drained for a [`TICK`]
    /// behind their goodbye.
    fn sweep_deadlines(&mut self) {
        let deadline = self.config.request_deadline;
        for slot in 0..self.slots.len() {
            let Some(conn) = &self.slots[slot] else {
                continue;
            };
            if conn.shut.is_some_and(|t| t.elapsed() >= TICK) {
                self.close(slot);
                continue;
            }
            let expired = conn.phase == ConnPhase::Reading
                && !conn.dying
                && !conn.backed_up()
                && conn.msg_started.is_some_and(|t| t.elapsed() > deadline);
            if expired {
                let why = format!("request not complete within {} ms", deadline.as_millis());
                self.reject(slot, 408, "Request Timeout", &why);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.slots[slot].take() {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            // Watermark the slot one generation past the departing
            // tenant: any completion still addressed to it (client
            // hung up with a request in flight) is discarded rather
            // than delivered to the slot's next occupant.
            if self.gen_watermarks.len() <= slot {
                self.gen_watermarks.resize(slot + 1, 0);
            }
            self.gen_watermarks[slot] = conn.generation + 1;
            self.free.push(slot);
            self.open.fetch_sub(1, Ordering::Relaxed);
        }
    }
}
