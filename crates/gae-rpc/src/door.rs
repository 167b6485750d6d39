//! The RPC door: the one request-dispatch path behind the server.
//!
//! The `gae-aio` reactor frames an [`HttpRequest`] and then hands it
//! here. The door owns everything that is policy rather than
//! scheduling: principal attribution, gate admission (classify →
//! bucket → bounded priority queue), disposition observation, XML-RPC
//! parse/auth/dispatch, and fault encoding. The transport only
//! supplies a `deliver` callback that ships the response body back to
//! its connection; the reactor backs it with a per-connection
//! completion slot + waker kick.
//!
//! A call marked [`crate::Service::inline`] never reaches the pool:
//! once admitted it runs to completion on the submitting thread and
//! its body is the return value of [`DoorBackend::submit`]
//! ([`Submitted::Inline`]), so a cheap read costs no thread hop. The
//! door resolves a call's method name once, when it reads the body,
//! and both the inline decision and the dispatch use that resolution.
//!
//! Because the door is public, a second transport over it answers
//! with identical bytes by construction: `tests/reactor_transport.rs`
//! keeps a blocking thread-per-connection loop as exactly that
//! reference and proptests "blocking ≡ reactor" end to end.

use crate::gatedpool::{Disposition, GatedPool};
use crate::host::{Resolved, ServiceHost};
use crate::http::HttpRequest;
use gae_gate::{Gate, Principal};
use gae_types::{GaeError, SessionId};
use gae_wire::{parse_call, write_response, MethodCall};
use parking_lot::Mutex;
use std::sync::Arc;

/// Holds `deliver` where both the queued job and the submitting
/// thread can reach it: whichever side learns the request's fate
/// first takes it (exactly once — the other side finds the slot
/// empty only in paths where it never fires).
type DeliverSlot = Arc<Mutex<Option<Deliver>>>;

/// The virtual organisation requests are billed to when the session
/// layer does not carry one (single-VO deployments, the common case).
pub const DEFAULT_VO: &str = "gae";

/// Ships one response body back to the transport's connection.
/// Invoked exactly once for every accepted request (result, fault,
/// or typed overload) — a transport blocked on it never hangs.
pub type Deliver = Box<dyn FnOnce(Vec<u8>) + Send + 'static>;

/// Largest POST body the door parses on the submitting thread to learn
/// its method. A constant, not a knob: every marked method takes a
/// handful of scalars (a `job_info` call is ~200 B), so 4 KiB admits
/// all of them while capping what one request can make the event loop
/// parse at a few microseconds. Larger bodies (an 8.5 KB `submit_job`)
/// go to the pool unparsed.
pub const INLINE_BODY_CAP: usize = 4096;

/// What became of a submitted request.
#[derive(Debug)]
pub enum Submitted {
    /// Ran to completion on the submitting thread: this is the
    /// response body, and `deliver` was dropped unused.
    Inline(Vec<u8>),
    /// Handed to the pool (or faulted at the gate): `deliver` fires,
    /// exactly once.
    Pooled,
}

/// The request-processing backend behind a server's acceptor: the
/// gate's admission pipeline in front of a bounded worker pool.
pub struct DoorBackend {
    pool: GatedPool,
    gate: Arc<Gate>,
}

impl DoorBackend {
    /// A door with `workers` request processors behind `gate`.
    pub fn new(workers: usize, gate: Arc<Gate>) -> DoorBackend {
        DoorBackend {
            pool: GatedPool::new(&gate, workers),
            gate,
        }
    }

    /// Submits one POSTed request through the gate: principal
    /// attribution and the token bucket for both lanes, then either the
    /// call itself or the bounded priority queue. Either the request
    /// runs here and its body comes back as [`Submitted::Inline`] —
    /// only when `may_inline` allows it and the method is marked
    /// ([`ServiceHost::runs_inline`]) — or `deliver` is called exactly
    /// once with the response body, possibly synchronously (rate-limit
    /// and full-queue refusals are faulted on the submitting thread).
    ///
    /// `may_inline` is the transport's fairness budget: an event loop
    /// passes `false` once it has run its share of inline calls this
    /// iteration, and the overflow queues like any pooled call.
    pub fn submit(
        &self,
        host: &Arc<ServiceHost>,
        request: HttpRequest,
        peer: &str,
        may_inline: bool,
        deliver: Deliver,
    ) -> Submitted {
        let gate = &self.gate;
        let principal = principal_of(host, &request, peer);
        let arrived = gate.clock().now();
        let class = match gate.admit(&principal) {
            Ok(class) => class,
            Err(e) => {
                gate.observe_disposition("rate_limited", gae_types::SimDuration::ZERO);
                deliver(fault_body(&e));
                return Submitted::Pooled;
            }
        };
        let parsed = match parse_small(host, &request, may_inline) {
            Parsed::Inline(call) => {
                // Never queued, so it holds no queue slot and has one
                // disposition: `run`, after the admission alone.
                let waited = gate.clock().now().saturating_since(arrived);
                gate.observe_disposition("run", waited);
                return Submitted::Inline(respond(host, &request, peer, Some(Ok(call))));
            }
            Parsed::Pooled(parsed) => parsed,
        };
        let slot: DeliverSlot = Arc::new(Mutex::new(Some(deliver)));
        let host = host.clone();
        let peer = peer.to_string();
        let gate_in_job = gate.clone();
        let in_job = slot.clone();
        let submitted = self.pool.submit(
            class,
            Box::new(move |disposition| {
                // The admission latency: arrival to disposition decision,
                // on the gate's own clock.
                let waited = gate_in_job.clock().now().saturating_since(arrived);
                let body = match disposition {
                    Disposition::Run => {
                        gate_in_job.observe_disposition("run", waited);
                        respond(&host, &request, &peer, parsed)
                    }
                    Disposition::Expired { retry_after } | Disposition::Shed { retry_after } => {
                        gate_in_job.observe_disposition(
                            if matches!(disposition, Disposition::Expired { .. }) {
                                "expired"
                            } else {
                                "shed"
                            },
                            waited,
                        );
                        fault_body(&GaeError::Overloaded {
                            retry_after_us: retry_after.as_micros().max(1),
                            shed_class: class.name().to_string(),
                        })
                    }
                };
                if let Some(deliver) = in_job.lock().take() {
                    deliver(body);
                }
            }),
        );
        // Refused on arrival: queue full of equal-or-better work. The
        // dropped job never ran, so the slot still holds `deliver`.
        if let Err(retry_after) = submitted {
            gate.observe_disposition("refused", gae_types::SimDuration::ZERO);
            if let Some(deliver) = slot.lock().take() {
                deliver(fault_body(&GaeError::Overloaded {
                    retry_after_us: retry_after.as_micros().max(1),
                    shed_class: class.name().to_string(),
                }));
            }
        }
        Submitted::Pooled
    }
}

/// A parsed call and what its method name resolved to.
type Call = (MethodCall, gae_types::GaeResult<Arc<Resolved>>);

/// A small body's parse and resolution, made once at the door.
enum Parsed {
    /// A marked method within the transport's budget: run it here.
    Inline(Call),
    /// Everything else. `Some` carries the parse (or its error) to the
    /// worker so nothing is parsed or resolved twice; `None` is a body
    /// above [`INLINE_BODY_CAP`], which the worker parses as it always
    /// has.
    Pooled(Option<gae_types::GaeResult<Call>>),
}

fn parse(host: &ServiceHost, body: &[u8]) -> gae_types::GaeResult<Call> {
    let call = parse_call(body)?;
    let method = host.resolve(&call.name);
    Ok((call, method))
}

fn parse_small(host: &ServiceHost, request: &HttpRequest, may_inline: bool) -> Parsed {
    if request.body.len() > INLINE_BODY_CAP {
        return Parsed::Pooled(None);
    }
    match parse(host, &request.body) {
        Ok(call) if may_inline && call.1.as_ref().is_ok_and(|m| m.inline) => Parsed::Inline(call),
        parsed => Parsed::Pooled(Some(parsed)),
    }
}

/// Who the gate bills the request to: a resolvable session bills its
/// user, everything else shares the VO's anonymous principal. A
/// *stale* session is not faulted here — the request's own session
/// step produces the proper Unauthorized fault.
fn principal_of(host: &ServiceHost, request: &HttpRequest, peer: &str) -> Principal {
    request
        .session()
        .ok()
        .flatten()
        .and_then(|sid| host.resolve_session(Some(SessionId::new(sid)), peer).ok())
        .and_then(|ctx| ctx.user)
        .map(|u| Principal::user(u, DEFAULT_VO))
        .unwrap_or_else(|| Principal::anonymous(DEFAULT_VO))
}

/// An XML-RPC fault response body for `e` (HTTP 200; the typed error
/// round-trips through `GaeError::from_fault` on the client).
pub fn fault_body(e: &GaeError) -> Vec<u8> {
    write_response(&gae_wire::Response::Fault(gae_wire::Fault::from_error(e))).into_bytes()
}

/// Parses, authenticates, dispatches. Always yields a response body
/// (faults for every failure mode). This is the RPC door: a request
/// carrying `X-GAE-Trace` joins that trace; otherwise a fresh one is
/// minted here when observability is wired.
pub fn process_request(host: &ServiceHost, request: &HttpRequest, peer: &str) -> Vec<u8> {
    respond(host, request, peer, None)
}

/// [`process_request`] for a body the door may already have parsed
/// and resolved: `parsed` stands in for that step at the point where
/// it would run, so session faults keep their precedence over parse
/// faults on both lanes.
fn respond(
    host: &ServiceHost,
    request: &HttpRequest,
    peer: &str,
    parsed: Option<gae_types::GaeResult<Call>>,
) -> Vec<u8> {
    let response = (|| -> gae_types::GaeResult<gae_wire::Response> {
        let session = request.session()?.map(SessionId::new);
        let mut ctx = host.resolve_session(session, peer)?;
        let (call, method) = parsed.unwrap_or_else(|| parse(host, &request.body))?;
        if let Some(hub) = host.obs() {
            ctx.trace = request
                .trace()
                .and_then(gae_obs::TraceContext::parse)
                .or_else(|| Some(hub.mint_trace(&call.name)));
        }
        let result = host.call(&ctx, &call.name, method, &call.params);
        Ok(gae_wire::Response::from_result(result))
    })()
    .unwrap_or_else(|e| gae_wire::Response::Fault(gae_wire::Fault::from_error(&e)));
    write_response(&response).into_bytes()
}
