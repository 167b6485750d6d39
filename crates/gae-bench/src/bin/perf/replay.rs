//! The traced run's door replay: the same seeded requests the sockets
//! carried, pushed in-process through each door layer's public
//! function, one span per call. Single-threaded, no server running,
//! so the allocation counter deltas belong to the span they bracket.
//!
//! Span tree of one request:
//!
//! ```text
//! client.encode        write_call + HttpRequest::write_to
//! rpc.frame_parse      FrameParser::feed + take_request
//! gate.admit           Gate::admit
//! rpc.process_request  the door's own process_request, whole
//! rpc.steps            the same work step by step:
//!   rpc.session          HttpRequest::session + resolve_session
//!   wire.decode          parse_call
//!   rpc.handle           mint trace + ServiceHost::handle
//!     body                 the Service::call body (door::Traced)
//!   wire.encode          write_response
//! rpc.frame_write      HttpResponse::ok_xml(..).to_bytes()
//! client.decode        read_response + parse_response
//! ```
//!
//! An idempotent request runs both `rpc.process_request` and
//! `rpc.steps`; a submit runs one of them (a job id is accepted once).

use crate::alloc::AllocSnapshot;
use crate::door::{host_over, open_gate, PASSWORD, USER};
use crate::harness::Report;
use crate::span::{median_ns, Span, Tracer};
use crate::stats::median_or_zero;
use gae_core::grid::ServiceStack;
use gae_gate::{Gate, Principal};
use gae_rpc::door::DEFAULT_VO;
use gae_rpc::http::{read_response, FrameLimits, FrameParser, HttpRequest, HttpResponse};
use gae_rpc::{process_request, Credentials, ServiceHost};
use gae_types::{GaeResult, SessionId};
use gae_wire::{parse_call, parse_response, write_call, write_response, MethodCall, Value};
use std::sync::Arc;

const PEER: &str = "127.0.0.1:replay";

/// Which server-side path a replayed request takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `process_request` as one span.
    Whole,
    /// The steps `process_request` is made of, one span each.
    Steps,
    /// Both, whole first (idempotent requests only).
    Both,
}

/// Allocation counts bracketed around single spans, one entry per op.
#[derive(Default)]
struct AllocSeries {
    decode: Vec<f64>,
    encode: Vec<f64>,
    process_request: Vec<f64>,
}

/// An in-process door over a stack, every layer spanned.
pub struct DoorReplay {
    tracer: Arc<Tracer>,
    host: Arc<ServiceHost>,
    gate: Arc<Gate>,
    session: u64,
    user: gae_types::UserId,
    principal: Principal,
    parser: FrameParser,
    allocs: AllocSeries,
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
}

impl DoorReplay {
    pub fn new(stack: &Arc<ServiceStack>, tracer: &Arc<Tracer>) -> DoorReplay {
        let host = host_over(stack, Some(tracer));
        let session = host
            .sessions()
            .login(&Credentials::new(USER, PASSWORD))
            .expect("registered user");
        let user = host.sessions().user_id(USER).expect("registered user");
        DoorReplay {
            tracer: tracer.clone(),
            host,
            gate: open_gate(),
            session: session.raw(),
            user,
            principal: Principal::user(user, DEFAULT_VO),
            parser: FrameParser::new(FrameLimits::DEFAULT),
            allocs: AllocSeries::default(),
            req_bytes: Vec::new(),
            resp_bytes: Vec::new(),
        }
    }

    /// The user the replayed session belongs to.
    pub fn user(&self) -> gae_types::UserId {
        self.user
    }

    /// One request through every layer; the reply as the client sees
    /// it.
    pub fn request(&mut self, call: &MethodCall, path: Path) -> GaeResult<Value> {
        let tracer = self.tracer.clone();
        let wire = tracer.span("client.encode", || {
            let body = write_call(call).into_bytes();
            let mut wire = Vec::new();
            HttpRequest::xmlrpc(body, Some(self.session))
                .write_to(&mut wire)
                .expect("Vec write is infallible");
            wire
        });
        self.req_bytes.push(wire.len() as f64);
        let request = tracer.span("rpc.frame_parse", || {
            let consumed = self.parser.feed(&wire).expect("well-formed frame");
            assert_eq!(consumed, wire.len(), "one frame per request");
            self.parser.take_request().expect("complete frame")
        });
        tracer
            .span("gate.admit", || self.gate.admit(&self.principal))
            .expect("the bucket is wide open");

        let mut body = Vec::new();
        if path != Path::Steps {
            let before = AllocSnapshot::now();
            body = tracer.span("rpc.process_request", || {
                process_request(&self.host, &request, PEER)
            });
            let allocs = AllocSnapshot::now().since(before).calls;
            self.allocs.process_request.push(allocs as f64);
        }
        if path != Path::Whole {
            body = tracer.span("rpc.steps", || self.steps(&request));
        }

        let framed = tracer.span("rpc.frame_write", || HttpResponse::ok_xml(body).to_bytes());
        self.resp_bytes.push(framed.len() as f64);
        tracer.span("client.decode", || {
            let response = read_response(&mut &framed[..])?;
            parse_response(&response.body)?.into_result()
        })
    }

    /// `process_request`, statement by statement.
    fn steps(&mut self, request: &HttpRequest) -> Vec<u8> {
        let tracer = &self.tracer;
        let host = &self.host;
        let mut ctx = tracer
            .span("rpc.session", || {
                let session = request.session()?.map(SessionId::new);
                host.resolve_session(session, PEER)
            })
            .expect("live session");
        let before = AllocSnapshot::now();
        let call = tracer
            .span("wire.decode", || parse_call(&request.body))
            .expect("well-formed call");
        let decoded = AllocSnapshot::now();
        let response = tracer.span("rpc.handle", || {
            if let Some(hub) = host.obs() {
                ctx.trace = Some(hub.mint_trace(&call.name));
            }
            host.handle(&ctx, &call)
        });
        let handled = AllocSnapshot::now();
        let body = tracer.span("wire.encode", || write_response(&response).into_bytes());
        let encoded = AllocSnapshot::now();
        self.allocs.decode.push(decoded.since(before).calls as f64);
        self.allocs.encode.push(encoded.since(handled).calls as f64);
        body
    }

    /// The door-layer metrics, medians over the replayed requests.
    /// `untraced_p50_us` is the socket round trip measured without
    /// tracing at the same op count; what the replayed layers do not
    /// account for is the transport.
    pub fn report(&self, spans: &[Span], untraced_p50_us: f64, report: &mut Report) {
        let us = |name: &str, own: bool| median_ns(spans, name, own) / 1e3;
        let codec = us("client.encode", false) + us("client.decode", false);
        report.metric("client.codec_us", codec, "us");
        report.metric("client.req_bytes", median_or_zero(&self.req_bytes), "B");
        report.metric("client.resp_bytes", median_or_zero(&self.resp_bytes), "B");
        report.metric("rpc.frame_parse_us", us("rpc.frame_parse", false), "us");
        report.metric("rpc.session_us", us("rpc.session", false), "us");
        report.metric("rpc.dispatch_us", us("rpc.handle", true), "us");
        report.metric("rpc.frame_write_us", us("rpc.frame_write", false), "us");
        let whole = us("rpc.process_request", false);
        report.metric("rpc.process_request_us", whole, "us");
        report.metric(
            "rpc.allocs_per_op",
            median_or_zero(&self.allocs.process_request),
            "count",
        );
        report.metric("wire.decode_us", us("wire.decode", false), "us");
        report.metric("wire.encode_us", us("wire.encode", false), "us");
        report.metric(
            "wire.decode_allocs",
            median_or_zero(&self.allocs.decode),
            "count",
        );
        report.metric(
            "wire.encode_allocs",
            median_or_zero(&self.allocs.encode),
            "count",
        );
        report.metric("gate.admit_ns", median_ns(spans, "gate.admit", false), "ns");
        let transport = untraced_p50_us
            - whole
            - us("rpc.frame_parse", false)
            - us("rpc.frame_write", false)
            - codec;
        report.metric("aio.transport_us", transport, "us");
        let steps = us("rpc.session", false)
            + us("wire.decode", false)
            + us("rpc.handle", true)
            + us("body", false)
            + us("wire.encode", false);
        report.note(format!(
            "process_request {whole:.2} us whole vs {steps:.2} us as session + decode + dispatch + body + encode ({:+.1} %)",
            (steps / whole - 1.0) * 100.0
        ));
    }
}
