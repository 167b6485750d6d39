//! Clarens-style Grid-enabled web-service framework for the GAE.
//!
//! The paper's services "have been deployed using the Java version of
//! the Clarens web services framework" (§3), which provides "a common
//! set of services for authentication, access control, and for
//! service lookup and discovery" plus SOAP/XML-RPC transport. This
//! crate is the Rust substitute:
//!
//! * [`service`] — the [`Service`] trait every GAE
//!   web service implements, the [`Methods`] table a service declares
//!   it through (one entry per method: name, help, inline marking,
//!   handler), the [`Params`] reader, and the call context carrying
//!   the authenticated session;
//! * [`auth`] — session management and per-method access control
//!   (Clarens' authentication/ACL layer, and the backing store for
//!   the Steering Service's Session Manager, §4.2.5);
//! * [`host`] — the [`ServiceHost`]: a registry of
//!   services with full-method dispatch (`"jobmon.job_status"`), the
//!   built-in `system.*` introspection service, and fault mapping;
//! * [`gatedpool`] — the bounded worker pool the door dispatches onto,
//!   fed through the gate's admission queue (priority classes,
//!   deadlines, shedding);
//! * [`http`] — a minimal HTTP/1.1 subset (POST + Content-Length +
//!   keep-alive), the framing XML-RPC runs over: one incremental
//!   [`FrameParser`], which the blocking readers loop over;
//! * [`door`] — the transport-independent dispatch path (principal
//!   attribution, gate admission, fault encoding) the `gae-aio`
//!   reactor — the one server — submits every POST to; every call is
//!   admitted by a [`gae_gate::Gate`], calls marked
//!   [`Service::inline`] then run to completion there, the rest go to
//!   the pool;
//! * [`tcp`] — the real-socket client used by the Figure 6 experiment,
//!   which resends a call only when nothing of its reply arrived;
//! * [`inproc`] — a zero-copy in-process transport with the same
//!   client interface, used by the simulator and unit tests;
//! * [`discovery`] — the peer-to-peer service lookup (§3's "dynamic
//!   discovery of other services ... through a peer-to-peer based
//!   lookup service").

#![warn(missing_docs)]

pub mod auth;
pub mod discovery;
pub mod door;
pub mod gatedpool;
pub mod host;
pub mod http;
pub mod inproc;
pub mod service;
pub mod tcp;

pub use auth::{AccessControl, Credentials, SessionManager};
pub use discovery::{Endpoint, LookupService};
pub use door::{fault_body, process_request, Deliver, DoorBackend, Submitted};
pub use gatedpool::{Disposition, GatedJob, GatedPool};
pub use host::ServiceHost;
pub use http::{FrameLimits, FrameParser};
pub use inproc::InProcClient;
pub use service::{CallContext, Method, MethodInfo, Methods, Params, Rpc, Service};
pub use tcp::TcpRpcClient;
