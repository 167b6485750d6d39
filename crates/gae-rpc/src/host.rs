//! The service host: Clarens' dispatch core.
//!
//! A [`ServiceHost`] owns a set of named [`Service`]s, a
//! [`SessionManager`] and an [`AccessControl`] list. Every call goes
//! through one path — from the door the `gae-aio` reactor serves
//! ([`crate::door`]) or from an [`crate::InProcClient`] — which
//! resolves the session, enforces the ACL, routes `"service.method"`
//! and maps errors to XML-RPC faults.
//!
//! [`ServiceHost::register`] reads a service's methods once. A call's
//! name then resolves with one lookup into its method entry — the
//! service, the `&'static` method name, the inline marking, the
//! histogram key and the span name — and the inline decision, the
//! -32601 fault, the dispatch and the per-method histogram all come
//! from that entry (DESIGN.md §16, "How a service declares its
//! methods").
//!
//! Two services are built in, mirroring Clarens' common services:
//!
//! * `system` — `listMethods`, `methodHelp`, `ping`, `echo`,
//!   `multicall`;
//! * `auth` — `login`, `logout`, `whoami`.

use crate::auth::{AccessControl, Credentials, SessionManager};
use crate::service::{unknown_method, CallContext, Method, Methods, Params, Service};
use gae_types::{GaeError, GaeResult, SessionId};
use gae_wire::{MethodCall, Response, Value};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

/// A pluggable handler for HTTP GET requests: returns
/// `(content_type, body)` for paths it serves.
pub type WebHandler = Box<dyn Fn(&str) -> Option<(String, Vec<u8>)> + Send + Sync>;

/// One registered method: what a `"service.method"` name resolves to.
pub(crate) struct Resolved {
    service: Arc<dyn Service>,
    method: &'static str,
    help: &'static str,
    /// Runs on the submitting thread ([`Service::inline`]).
    pub(crate) inline: bool,
    /// `service.method`: the listed name and the histogram's key.
    full: String,
    /// `rpc.service.method`: the span's name.
    span: String,
}

/// A registry of services plus the security layer.
pub struct ServiceHost {
    /// Each service's methods in declaration order, by service name.
    services: RwLock<BTreeMap<&'static str, Vec<Arc<Resolved>>>>,
    sessions: Arc<SessionManager>,
    acl: Arc<AccessControl>,
    web_handlers: RwLock<Vec<WebHandler>>,
    obs: RwLock<Option<Arc<gae_obs::ObsHub>>>,
}

impl ServiceHost {
    /// Creates a host with the given security configuration.
    pub fn new(sessions: Arc<SessionManager>, acl: Arc<AccessControl>) -> Arc<Self> {
        let host = Arc::new(ServiceHost {
            services: RwLock::new(BTreeMap::new()),
            sessions,
            acl,
            web_handlers: RwLock::new(Vec::new()),
            obs: RwLock::new(None),
        });
        host.register(Arc::new(SystemService {
            host: Arc::downgrade(&host),
        }));
        host.register(Arc::new(AuthService {
            sessions: host.sessions.clone(),
        }));
        host
    }

    /// An open host: allow-all ACL, default session TTL. What the
    /// paper's testbed effectively ran.
    pub fn open() -> Arc<Self> {
        Self::new(
            Arc::new(SessionManager::with_default_ttl()),
            Arc::new(AccessControl::allow_all()),
        )
    }

    /// Registers a service, reading its methods and their inline
    /// markings once. Re-registering a name replaces the old instance
    /// (used when a service restarts after failure).
    pub fn register(&self, service: Arc<dyn Service>) {
        let name = service.name();
        let methods = service
            .methods()
            .into_iter()
            .map(|m| {
                Arc::new(Resolved {
                    service: service.clone(),
                    method: m.name,
                    help: m.help,
                    inline: service.inline(m.name),
                    full: format!("{name}.{}", m.name),
                    span: format!("rpc.{name}.{}", m.name),
                })
            })
            .collect();
        self.services.write().insert(name, methods);
    }

    /// The session manager, for transports that resolve sessions.
    pub fn sessions(&self) -> &Arc<SessionManager> {
        &self.sessions
    }

    /// The access-control list.
    pub fn acl(&self) -> &Arc<AccessControl> {
        &self.acl
    }

    /// Installs the observability hub: from here on every dispatch of a
    /// registered method is timed into the hub's per-method histograms,
    /// and calls carrying a trace context record an
    /// `rpc.<service.method>` span.
    pub fn attach_obs(&self, hub: Arc<gae_obs::ObsHub>) {
        *self.obs.write() = Some(hub);
    }

    /// The installed observability hub, if any (transports mint door
    /// traces through this).
    pub fn obs(&self) -> Option<Arc<gae_obs::ObsHub>> {
        self.obs.read().clone()
    }

    /// Names of all registered services.
    pub fn service_names(&self) -> Vec<&'static str> {
        self.services.read().keys().copied().collect()
    }

    /// Resolves a wire session id into a populated [`CallContext`].
    pub fn resolve_session(
        &self,
        session: Option<SessionId>,
        peer: &str,
    ) -> GaeResult<CallContext> {
        match session {
            Some(sid) => {
                let user = self.sessions.validate(sid)?;
                Ok(CallContext {
                    session: Some(sid),
                    user: Some(user),
                    peer: peer.into(),
                    trace: None,
                })
            }
            None => Ok(CallContext::anonymous(peer)),
        }
    }

    /// The method `full_method` (`"service.method"`) names: one split,
    /// one lookup. A malformed name, or one no registered service
    /// lists, is the -32601 fault.
    pub(crate) fn resolve(&self, full_method: &str) -> GaeResult<Arc<Resolved>> {
        let (service, method) = full_method.split_once('.').ok_or_else(|| GaeError::Rpc {
            code: -32601,
            message: format!("{full_method}: expected service.method"),
        })?;
        self.services
            .read()
            .get(service)
            .and_then(|methods| methods.iter().find(|m| m.method == method))
            .cloned()
            .ok_or_else(|| unknown_method(service, method))
    }

    /// Routes one call. `full_method` is `"service.method"`.
    pub fn dispatch(
        &self,
        ctx: &CallContext,
        full_method: &str,
        params: &[Value],
    ) -> GaeResult<Value> {
        self.call(ctx, full_method, self.resolve(full_method), params)
    }

    /// [`Self::dispatch`] with `full_method` already resolved (the door
    /// resolves it when it reads the request). The ACL answers first,
    /// for a name that resolved and one that did not. When an
    /// observability hub is attached a resolved call is timed on the
    /// hub's clock into its method's histogram, and spanned under the
    /// request's trace context when it carries one; a name that
    /// resolved to nothing records nothing, so names a client makes up
    /// cost nothing to keep.
    pub(crate) fn call(
        &self,
        ctx: &CallContext,
        full_method: &str,
        method: GaeResult<Arc<Resolved>>,
        params: &[Value],
    ) -> GaeResult<Value> {
        let method = match method {
            Ok(method) => method,
            Err(e) => {
                if let Some((service, name)) = full_method.split_once('.') {
                    self.acl.enforce(ctx.user, service, name)?;
                }
                return Err(e);
            }
        };
        let Some(hub) = self.obs() else {
            return self.invoke(ctx, &method, params);
        };
        let start = hub.now();
        let result = self.invoke(ctx, &method, params);
        let end = hub.now();
        hub.record_rpc(&method.full, end.saturating_since(start));
        if let Some(trace) = ctx.trace {
            hub.span(trace, &method.span, start, end);
        }
        result
    }

    fn invoke(&self, ctx: &CallContext, m: &Resolved, params: &[Value]) -> GaeResult<Value> {
        self.acl.enforce(ctx.user, m.service.name(), m.method)?;
        m.service.call(ctx, m.method, params)
    }

    /// Whether `full_method` (`"service.method"`) is marked to run on
    /// the submitting thread (see [`Service::inline`]). Unknown
    /// methods and malformed names are not: their fault comes from
    /// the pool like any other.
    pub fn runs_inline(&self, full_method: &str) -> bool {
        self.resolve(full_method).is_ok_and(|m| m.inline)
    }

    /// Full request→response handling for transports: never panics,
    /// always produces a `Response`.
    pub fn handle(&self, ctx: &CallContext, call: &MethodCall) -> Response {
        Response::from_result(self.dispatch(ctx, &call.name, &call.params))
    }

    // ---- the web interface (§4.2.4: state "made available for
    // download on the web interface") ----

    /// Registers a GET handler; handlers are tried in registration
    /// order after the built-in index page.
    pub fn register_web<F>(&self, handler: F)
    where
        F: Fn(&str) -> Option<(String, Vec<u8>)> + Send + Sync + 'static,
    {
        self.web_handlers.write().push(Box::new(handler));
    }

    /// Serves an HTTP GET path: `/` is the built-in service index,
    /// everything else goes to the registered handlers.
    pub fn handle_get(&self, path: &str) -> Option<(String, Vec<u8>)> {
        if path == "/" || path.is_empty() {
            return Some((
                "text/html; charset=utf-8".to_string(),
                self.index_html().into_bytes(),
            ));
        }
        let handlers = self.web_handlers.read();
        handlers.iter().find_map(|h| h(path))
    }

    /// A plain HTML index of every registered service and method.
    fn index_html(&self) -> String {
        let mut html = String::from(
            "<!DOCTYPE html>\n<html><head><title>GAE Clarens host</title></head><body>\n\
             <h1>Grid Analysis Environment &mdash; Clarens host</h1>\n\
             <p>XML-RPC endpoint: POST /RPC2</p>\n",
        );
        for (name, methods) in self.services.read().iter() {
            html.push_str(&format!("<h2>{name}</h2>\n<ul>\n"));
            for m in methods {
                html.push_str(&format!(
                    "<li><code>{}</code> &mdash; {}</li>\n",
                    m.full, m.help
                ));
            }
            html.push_str("</ul>\n");
        }
        html.push_str("</body></html>\n");
        html
    }
}

/// `system.*`: introspection, liveness, echo.
struct SystemService {
    host: Weak<ServiceHost>,
}

impl SystemService {
    fn host(&self) -> GaeResult<Arc<ServiceHost>> {
        self.host
            .upgrade()
            .ok_or_else(|| GaeError::ExecutionFailure("host shut down".into()))
    }

    /// The standard boxcarring extension: one array of {methodName,
    /// params} structs in, one array out where each element is either
    /// a 1-element array holding the result or a fault struct.
    /// Individual failures do not abort the batch.
    fn multicall(&self, ctx: &CallContext, p: Params<'_>) -> GaeResult<Value> {
        let host = self.host()?;
        let calls = p.get(0, "multicall needs an array of calls")?.as_array()?;
        let mut results = Vec::with_capacity(calls.len());
        for call in calls {
            let outcome = (|| -> GaeResult<Value> {
                let name = call.member("methodName")?.as_str()?;
                if name == "system.multicall" {
                    return Err(GaeError::Parse("recursive multicall is not allowed".into()));
                }
                let args = call.member("params")?.as_array()?;
                host.dispatch(ctx, name, args)
            })();
            results.push(match outcome {
                Ok(v) => Value::Array(vec![v]),
                Err(e) => Value::struct_of([
                    ("faultCode", Value::Int(e.fault_code())),
                    ("faultString", Value::from(e.to_string())),
                ]),
            });
        }
        Ok(Value::Array(results))
    }
}

impl Methods for SystemService {
    const NAME: &'static str = "system";
    const METHODS: &'static [Method<Self>] = &[
        // This and the next three read only the request and the
        // registry: inline.
        Method {
            name: "ping",
            help: "liveness probe; returns \"pong\"",
            inline: true,
            handler: |_, _, _| Ok(Value::from("pong")),
        },
        Method {
            name: "echo",
            help: "returns its parameters as an array",
            inline: true,
            handler: |_, _, p| Ok(Value::Array(p.0.to_vec())),
        },
        Method {
            name: "listMethods",
            help: "all service.method names on this host",
            inline: true,
            handler: |s, _, _| {
                let host = s.host()?;
                let services = host.services.read();
                let names = services.values().flatten();
                Ok(Value::Array(
                    names.map(|m| Value::from(m.full.as_str())).collect(),
                ))
            },
        },
        Method {
            name: "methodHelp",
            help: "help string for one service.method",
            inline: true,
            handler: |s, _, p| {
                let full = p.str(0, "methodHelp needs a method name")?;
                let (service, method) = full
                    .split_once('.')
                    .ok_or_else(|| GaeError::Parse("expected service.method".into()))?;
                let host = s.host()?;
                let services = host.services.read();
                services
                    .get(service)
                    .ok_or_else(|| GaeError::NotFound(format!("service {service}")))?
                    .iter()
                    .find(|m| m.method == method)
                    .map(|m| Value::from(m.help))
                    .ok_or_else(|| GaeError::NotFound(format!("method {full}")))
            },
        },
        // The one `system` method on the pool: its cost is its batch.
        Method {
            name: "multicall",
            help: "execute a batch of {methodName, params} calls in one request",
            inline: false,
            handler: SystemService::multicall,
        },
    ];
}

/// `auth.*`: session lifecycle.
struct AuthService {
    sessions: Arc<SessionManager>,
}

impl Methods for AuthService {
    const NAME: &'static str = "auth";
    const METHODS: &'static [Method<Self>] = &[
        // Hashes a password: pooled.
        Method {
            name: "login",
            help: "open a session; returns the session id",
            inline: false,
            handler: |s, _, p| {
                let [user, password] = p.exact("auth.login(username, password)")?;
                let creds = Credentials::new(user.as_str()?, password.as_str()?);
                Ok(Value::from(s.sessions.login(&creds)?.raw()))
            },
        },
        // Writes the session table: pooled.
        Method {
            name: "logout",
            help: "close the calling session",
            inline: false,
            handler: |s, ctx, _| {
                if let Some(sid) = ctx.session {
                    s.sessions.logout(sid);
                }
                Ok(Value::Bool(true))
            },
        },
        // Reads the context only.
        Method {
            name: "whoami",
            help: "user id of the calling session, or nil",
            inline: true,
            handler: |_, ctx, _| Ok(ctx.user.map_or(Value::Nil, |u| Value::from(u.raw()))),
        },
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::MethodInfo;
    use gae_types::UserId;

    struct Adder;
    impl Service for Adder {
        fn name(&self) -> &'static str {
            "math"
        }
        fn call(&self, _ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
            match method {
                "add" => {
                    let mut sum = 0i64;
                    for p in params {
                        sum += p.as_i64()?;
                    }
                    Ok(Value::Int64(sum))
                }
                "whoami_user" => {
                    let ctx_user = _ctx.require_user()?;
                    Ok(Value::from(ctx_user.raw()))
                }
                other => Err(unknown_method("math", other)),
            }
        }
        fn methods(&self) -> Vec<MethodInfo> {
            vec![
                MethodInfo {
                    name: "add",
                    help: "sum of integer parameters",
                },
                MethodInfo {
                    name: "whoami_user",
                    help: "the caller's user id",
                },
            ]
        }
    }

    fn anon() -> CallContext {
        CallContext::anonymous("test")
    }

    #[test]
    fn dispatch_routes_to_service() {
        let host = ServiceHost::open();
        host.register(Arc::new(Adder));
        let v = host
            .dispatch(&anon(), "math.add", &[Value::Int(2), Value::Int(3)])
            .unwrap();
        assert_eq!(v, Value::Int64(5));
    }

    #[test]
    fn unknown_service_and_method_fault() {
        let host = ServiceHost::open();
        host.register(Arc::new(Adder));
        assert!(matches!(
            host.dispatch(&anon(), "nosuch.m", &[]),
            Err(GaeError::Rpc { code: -32601, .. })
        ));
        assert!(matches!(
            host.dispatch(&anon(), "math.sub", &[]),
            Err(GaeError::Rpc { code: -32601, .. })
        ));
        assert!(host.dispatch(&anon(), "nodots", &[]).is_err());
    }

    #[test]
    fn system_ping_echo() {
        let host = ServiceHost::open();
        assert_eq!(
            host.dispatch(&anon(), "system.ping", &[]).unwrap(),
            Value::from("pong")
        );
        let echoed = host
            .dispatch(&anon(), "system.echo", &[Value::Int(1), Value::from("x")])
            .unwrap();
        assert_eq!(echoed, Value::Array(vec![Value::Int(1), Value::from("x")]));
    }

    #[test]
    fn system_list_methods_includes_registered() {
        let host = ServiceHost::open();
        host.register(Arc::new(Adder));
        let v = host.dispatch(&anon(), "system.listMethods", &[]).unwrap();
        let names: Vec<&str> = v
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_str().unwrap())
            .collect();
        assert!(names.contains(&"math.add"));
        assert!(names.contains(&"system.ping"));
        assert!(names.contains(&"auth.login"));
    }

    #[test]
    fn system_method_help() {
        let host = ServiceHost::open();
        host.register(Arc::new(Adder));
        let help = host
            .dispatch(&anon(), "system.methodHelp", &[Value::from("math.add")])
            .unwrap();
        assert_eq!(help, Value::from("sum of integer parameters"));
        assert!(host
            .dispatch(&anon(), "system.methodHelp", &[Value::from("math.nope")])
            .is_err());
    }

    #[test]
    fn multicall_batches_and_isolates_faults() {
        let host = ServiceHost::open();
        host.register(Arc::new(Adder));
        let calls = Value::Array(vec![
            Value::struct_of([
                ("methodName", Value::from("math.add")),
                ("params", Value::Array(vec![Value::Int(1), Value::Int(2)])),
            ]),
            Value::struct_of([
                ("methodName", Value::from("no.such")),
                ("params", Value::Array(vec![])),
            ]),
            Value::struct_of([
                ("methodName", Value::from("system.ping")),
                ("params", Value::Array(vec![])),
            ]),
        ]);
        let results = host
            .dispatch(&anon(), "system.multicall", &[calls])
            .unwrap();
        let results = results.as_array().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_array().unwrap()[0], Value::Int64(3));
        assert_eq!(
            results[1].member("faultCode").unwrap(),
            &Value::Int(-32601),
            "the failed call is a fault struct"
        );
        assert_eq!(results[2].as_array().unwrap()[0], Value::from("pong"));
    }

    #[test]
    fn multicall_rejects_recursion_and_garbage() {
        let host = ServiceHost::open();
        let recursive = Value::Array(vec![Value::struct_of([
            ("methodName", Value::from("system.multicall")),
            ("params", Value::Array(vec![])),
        ])]);
        let results = host
            .dispatch(&anon(), "system.multicall", &[recursive])
            .unwrap();
        assert!(results.as_array().unwrap()[0].member("faultCode").is_ok());
        // Missing the calls array entirely is a request-level fault.
        assert!(host.dispatch(&anon(), "system.multicall", &[]).is_err());
        // A malformed entry faults just that entry.
        let garbage = Value::Array(vec![Value::Int(42)]);
        let results = host
            .dispatch(&anon(), "system.multicall", &[garbage])
            .unwrap();
        assert!(results.as_array().unwrap()[0].member("faultCode").is_ok());
    }

    #[test]
    fn auth_flow_over_dispatch() {
        let host = ServiceHost::open();
        host.sessions()
            .register(&Credentials::new("alice", "pw"))
            .unwrap();
        let sid_val = host
            .dispatch(
                &anon(),
                "auth.login",
                &[Value::from("alice"), Value::from("pw")],
            )
            .unwrap();
        let sid = SessionId::new(sid_val.as_u64().unwrap());
        let ctx = host.resolve_session(Some(sid), "test").unwrap();
        assert!(ctx.user.is_some());
        let who = host.dispatch(&ctx, "auth.whoami", &[]).unwrap();
        assert_eq!(who.as_u64().unwrap(), ctx.user.unwrap().raw());
        host.dispatch(&ctx, "auth.logout", &[]).unwrap();
        assert!(host.resolve_session(Some(sid), "test").is_err());
    }

    #[test]
    fn bad_login_is_fault() {
        let host = ServiceHost::open();
        assert!(matches!(
            host.dispatch(&anon(), "auth.login", &[Value::from("x"), Value::from("y")]),
            Err(GaeError::Unauthorized(_))
        ));
        assert!(host
            .dispatch(&anon(), "auth.login", &[Value::from("x")])
            .is_err());
    }

    #[test]
    fn acl_enforced_on_dispatch() {
        let host = ServiceHost::new(
            Arc::new(SessionManager::with_default_ttl()),
            Arc::new(AccessControl::default_deny()),
        );
        host.register(Arc::new(Adder));
        host.acl().grant_service(None, "auth");
        assert!(matches!(
            host.dispatch(&anon(), "math.add", &[Value::Int(1)]),
            Err(GaeError::Unauthorized(_))
        ));
        // Grant a user and retry.
        host.sessions()
            .register(&Credentials::new("u", "p"))
            .unwrap();
        let uid = host.sessions().user_id("u").unwrap();
        host.acl().grant_service(Some(uid), "math");
        let sid = host.sessions().login(&Credentials::new("u", "p")).unwrap();
        let ctx = host.resolve_session(Some(sid), "t").unwrap();
        assert_eq!(
            host.dispatch(&ctx, "math.add", &[Value::Int(1)]).unwrap(),
            Value::Int64(1)
        );
    }

    #[test]
    fn inline_marking_is_per_method_and_opt_in() {
        let host = ServiceHost::open();
        host.register(Arc::new(Adder));
        for marked in [
            "system.ping",
            "system.echo",
            "system.listMethods",
            "system.methodHelp",
            "auth.whoami",
        ] {
            assert!(host.runs_inline(marked), "{marked}");
        }
        for pooled in [
            "system.multicall", // its cost is its batch
            "auth.login",
            "auth.logout",
            "math.add", // a service that says nothing stays on the pool
            "no.such",
            "nodots",
        ] {
            assert!(!host.runs_inline(pooled), "{pooled}");
        }
    }

    #[test]
    fn handle_wraps_errors_as_faults() {
        let host = ServiceHost::open();
        let resp = host.handle(&anon(), &MethodCall::new("nope.x", vec![]));
        assert!(matches!(resp, Response::Fault(_)));
        let resp = host.handle(&anon(), &MethodCall::new("system.ping", vec![]));
        assert!(matches!(resp, Response::Success(_)));
    }

    #[test]
    fn resolve_session_unknown_fails() {
        let host = ServiceHost::open();
        assert!(host
            .resolve_session(Some(SessionId::new(999)), "t")
            .is_err());
        let ctx = host.resolve_session(None, "t").unwrap();
        assert!(ctx.user.is_none());
    }

    #[test]
    fn context_user_visible_to_services() {
        let host = ServiceHost::open();
        host.register(Arc::new(Adder));
        let ctx = CallContext::authenticated(UserId::new(7), SessionId::new(1));
        let v = host.dispatch(&ctx, "math.whoami_user", &[]).unwrap();
        assert_eq!(v.as_u64().unwrap(), 7);
    }
}
