//! The service host: Clarens' dispatch core.
//!
//! A [`ServiceHost`] owns a set of named [`Service`]s, a
//! [`SessionManager`] and an [`AccessControl`] list. Every transport
//! (TCP, in-process) funnels calls through [`ServiceHost::dispatch`],
//! which resolves the session, enforces the ACL, routes
//! `"service.method"` and maps errors to XML-RPC faults.
//!
//! Two services are built in, mirroring Clarens' common services:
//!
//! * `system` — `listMethods`, `methodHelp`, `ping`, `echo`;
//! * `auth` — `login`, `logout`, `whoami`.

use crate::auth::{AccessControl, Credentials, SessionManager};
use crate::service::{unknown_method, CallContext, MethodInfo, Service};
use gae_types::{GaeError, GaeResult, SessionId};
use gae_wire::{MethodCall, Response, Value};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A pluggable handler for HTTP GET requests: returns
/// `(content_type, body)` for paths it serves.
pub type WebHandler = Box<dyn Fn(&str) -> Option<(String, Vec<u8>)> + Send + Sync>;

/// A registry of services plus the security layer.
pub struct ServiceHost {
    services: RwLock<BTreeMap<&'static str, Arc<dyn Service>>>,
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

    /// Registers a service. Re-registering a name replaces the old
    /// instance (used when a service restarts after failure).
    pub fn register(&self, service: Arc<dyn Service>) {
        self.services.write().insert(service.name(), service);
    }

    /// Removes a service (used by failure-injection tests).
    pub fn unregister(&self, name: &str) -> bool {
        self.services.write().remove(name).is_some()
    }

    /// The session manager, for transports that resolve sessions.
    pub fn sessions(&self) -> &Arc<SessionManager> {
        &self.sessions
    }

    /// The access-control list.
    pub fn acl(&self) -> &Arc<AccessControl> {
        &self.acl
    }

    /// Installs the observability hub: from here on every dispatch is
    /// timed into the hub's per-method histograms, and calls carrying
    /// a trace context record an `rpc.<service.method>` span.
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

    /// Routes one call. `full_method` is `"service.method"`. When an
    /// observability hub is attached the dispatch is timed on the
    /// hub's clock into the per-method histogram, and a span is
    /// recorded under the request's trace context when it carries
    /// one.
    pub fn dispatch(
        &self,
        ctx: &CallContext,
        full_method: &str,
        params: &[Value],
    ) -> GaeResult<Value> {
        let Some(hub) = self.obs() else {
            return self.dispatch_inner(ctx, full_method, params);
        };
        let start = hub.now();
        let result = self.dispatch_inner(ctx, full_method, params);
        let end = hub.now();
        hub.record_rpc(full_method, end.saturating_since(start));
        if let Some(trace) = ctx.trace {
            hub.span(trace, &format!("rpc.{full_method}"), start, end);
        }
        result
    }

    fn dispatch_inner(
        &self,
        ctx: &CallContext,
        full_method: &str,
        params: &[Value],
    ) -> GaeResult<Value> {
        let (service_name, method) = full_method.split_once('.').ok_or_else(|| GaeError::Rpc {
            code: -32601,
            message: format!("{full_method}: expected service.method"),
        })?;
        self.acl.enforce(ctx.user, service_name, method)?;
        let service = {
            let services = self.services.read();
            services.get(service_name).cloned()
        };
        match service {
            Some(s) => s.call(ctx, method, params),
            None => Err(unknown_method(service_name, method)),
        }
    }

    /// Whether `full_method` (`"service.method"`) is marked to run on
    /// the submitting thread (see [`Service::inline`]). Unknown
    /// services and malformed names are not: their fault comes from
    /// the pool like any other.
    pub fn runs_inline(&self, full_method: &str) -> bool {
        let Some((service_name, method)) = full_method.split_once('.') else {
            return false;
        };
        self.services
            .read()
            .get(service_name)
            .is_some_and(|s| s.inline(method))
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
        let services = self.services.read();
        for (name, svc) in services.iter() {
            html.push_str(&format!("<h2>{name}</h2>\n<ul>\n"));
            for m in svc.methods() {
                html.push_str(&format!(
                    "<li><code>{name}.{}</code> &mdash; {}</li>\n",
                    m.name, m.help
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
    host: std::sync::Weak<ServiceHost>,
}

impl Service for SystemService {
    fn name(&self) -> &'static str {
        "system"
    }

    fn call(&self, _ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        match method {
            "ping" => Ok(Value::from("pong")),
            "echo" => Ok(Value::Array(params.to_vec())),
            "multicall" => {
                // The standard boxcarring extension: one array of
                // {methodName, params} structs in, one array out where
                // each element is either a 1-element array holding the
                // result or a fault struct. Individual failures do not
                // abort the batch.
                let host = self
                    .host
                    .upgrade()
                    .ok_or_else(|| GaeError::ExecutionFailure("host shut down".into()))?;
                let calls = params
                    .first()
                    .ok_or_else(|| GaeError::Parse("multicall needs an array of calls".into()))?
                    .as_array()?;
                let mut results = Vec::with_capacity(calls.len());
                for call in calls {
                    let outcome = (|| -> GaeResult<Value> {
                        let name = call.member("methodName")?.as_str()?;
                        if name == "system.multicall" {
                            return Err(GaeError::Parse(
                                "recursive multicall is not allowed".into(),
                            ));
                        }
                        let args = call.member("params")?.as_array()?;
                        host.dispatch(_ctx, name, args)
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
            "listMethods" => {
                let host = self
                    .host
                    .upgrade()
                    .ok_or_else(|| GaeError::ExecutionFailure("host shut down".into()))?;
                let services = host.services.read();
                let mut names = Vec::new();
                for (svc_name, svc) in services.iter() {
                    for m in svc.methods() {
                        names.push(Value::from(format!("{svc_name}.{}", m.name)));
                    }
                }
                Ok(Value::Array(names))
            }
            "methodHelp" => {
                let full = params
                    .first()
                    .ok_or_else(|| GaeError::Parse("methodHelp needs a method name".into()))?
                    .as_str()?;
                let (svc_name, m_name) = full
                    .split_once('.')
                    .ok_or_else(|| GaeError::Parse("expected service.method".into()))?;
                let host = self
                    .host
                    .upgrade()
                    .ok_or_else(|| GaeError::ExecutionFailure("host shut down".into()))?;
                let services = host.services.read();
                let svc = services
                    .get(svc_name)
                    .ok_or_else(|| GaeError::NotFound(format!("service {svc_name}")))?;
                svc.methods()
                    .into_iter()
                    .find(|m| m.name == m_name)
                    .map(|m| Value::from(m.help))
                    .ok_or_else(|| GaeError::NotFound(format!("method {full}")))
            }
            other => Err(unknown_method("system", other)),
        }
    }

    fn methods(&self) -> Vec<MethodInfo> {
        vec![
            MethodInfo {
                name: "ping",
                help: "liveness probe; returns \"pong\"",
            },
            MethodInfo {
                name: "echo",
                help: "returns its parameters as an array",
            },
            MethodInfo {
                name: "listMethods",
                help: "all service.method names on this host",
            },
            MethodInfo {
                name: "methodHelp",
                help: "help string for one service.method",
            },
            MethodInfo {
                name: "multicall",
                help: "execute a batch of {methodName, params} calls in one request",
            },
        ]
    }

    /// Everything but `multicall`, whose cost is its batch.
    fn inline(&self, method: &str) -> bool {
        matches!(method, "ping" | "echo" | "listMethods" | "methodHelp")
    }
}

/// `auth.*`: session lifecycle.
struct AuthService {
    sessions: Arc<SessionManager>,
}

impl Service for AuthService {
    fn name(&self) -> &'static str {
        "auth"
    }

    fn call(&self, ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        match method {
            "login" => {
                if params.len() != 2 {
                    return Err(GaeError::Parse("auth.login(username, password)".into()));
                }
                let creds = Credentials::new(params[0].as_str()?, params[1].as_str()?);
                let sid = self.sessions.login(&creds)?;
                Ok(Value::from(sid.raw()))
            }
            "logout" => {
                if let Some(sid) = ctx.session {
                    self.sessions.logout(sid);
                }
                Ok(Value::Bool(true))
            }
            "whoami" => match ctx.user {
                Some(u) => Ok(Value::from(u.raw())),
                None => Ok(Value::Nil),
            },
            other => Err(unknown_method("auth", other)),
        }
    }

    fn methods(&self) -> Vec<MethodInfo> {
        vec![
            MethodInfo {
                name: "login",
                help: "open a session; returns the session id",
            },
            MethodInfo {
                name: "logout",
                help: "close the calling session",
            },
            MethodInfo {
                name: "whoami",
                help: "user id of the calling session, or nil",
            },
        ]
    }

    /// `whoami` reads the context; `login` hashes a password and
    /// `logout` writes the session table.
    fn inline(&self, method: &str) -> bool {
        method == "whoami"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            vec![MethodInfo {
                name: "add",
                help: "sum of integer parameters",
            }]
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
    fn unregister_makes_service_unknown() {
        let host = ServiceHost::open();
        host.register(Arc::new(Adder));
        assert!(host.unregister("math"));
        assert!(!host.unregister("math"));
        assert!(host.dispatch(&anon(), "math.add", &[]).is_err());
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
