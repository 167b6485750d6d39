//! The service abstraction every GAE web service implements.

use gae_types::{GaeResult, SessionId, UserId};
use gae_wire::Value;

/// Ambient information about one RPC invocation.
///
/// Carries the authenticated identity (if any) so services like the
/// Steering Service can enforce that "the authorized users steer the
/// jobs" (§4.2.5), plus the request's trace context: minted at the
/// RPC door when the wire carried none, propagated from the
/// `X-GAE-Trace` header otherwise, so one logical request stays a
/// single causal tree across service hops.
#[derive(Clone, Debug, Default)]
pub struct CallContext {
    /// The authenticated session, if the caller logged in.
    pub session: Option<SessionId>,
    /// The user bound to that session.
    pub user: Option<UserId>,
    /// Transport-level peer description ("10.0.0.7:4122", "inproc").
    pub peer: String,
    /// The trace this request belongs to, when observability is
    /// wired (see `ServiceHost::attach_obs`).
    pub trace: Option<gae_obs::TraceContext>,
}

impl CallContext {
    /// An unauthenticated context from the given peer.
    pub fn anonymous(peer: impl Into<String>) -> Self {
        CallContext {
            session: None,
            user: None,
            peer: peer.into(),
            trace: None,
        }
    }

    /// An authenticated context (used by in-process callers and
    /// tests; the TCP path populates this from the session header).
    pub fn authenticated(user: UserId, session: SessionId) -> Self {
        CallContext {
            session: Some(session),
            user: Some(user),
            peer: "inproc".into(),
            trace: None,
        }
    }

    /// The same context carrying `trace`.
    pub fn with_trace(mut self, trace: gae_obs::TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The authenticated user or an `Unauthorized` error.
    pub fn require_user(&self) -> GaeResult<UserId> {
        self.user.ok_or_else(|| {
            gae_types::GaeError::Unauthorized("this method requires a session".into())
        })
    }
}

/// Introspection record for one method, served by
/// `system.listMethods` / `system.methodHelp`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodInfo {
    /// Method name without the service prefix.
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

/// One entry of a service's method table: everything the host and the
/// introspection methods know about a method, declared once.
pub struct Method<S> {
    /// Method name without the service prefix.
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
    /// Runs to completion on the thread that framed the request (the
    /// rule is [`Service::inline`]'s).
    pub inline: bool,
    /// The body. A non-capturing closure coerces to this type, so a
    /// table can be a `const`.
    pub handler: fn(&S, &CallContext, Params<'_>) -> GaeResult<Value>,
}

/// A service declared as one static method table: the blanket
/// [`Service`] impl derives `name`, `call`, `methods` and `inline`
/// from it, in declaration order.
pub trait Methods: Send + Sync + Sized + 'static {
    /// The service's registration name.
    const NAME: &'static str;
    /// Every method the service exposes.
    const METHODS: &'static [Method<Self>];
}

impl<T: Methods> Service for T {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn call(&self, ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        match T::METHODS.iter().find(|m| m.name == method) {
            Some(m) => (m.handler)(self, ctx, Params(params)),
            None => Err(unknown_method(T::NAME, method)),
        }
    }

    fn methods(&self) -> Vec<MethodInfo> {
        T::METHODS
            .iter()
            .map(|m| MethodInfo {
                name: m.name,
                help: m.help,
            })
            .collect()
    }

    fn inline(&self, method: &str) -> bool {
        T::METHODS.iter().any(|m| m.inline && m.name == method)
    }
}

/// A call's positional parameters. Each reader takes the text a
/// missing parameter faults with (a `Parse` error, so the caller's
/// usage line reaches the client unchanged); a present parameter of the
/// wrong type faults with its own conversion error.
#[derive(Clone, Copy, Debug)]
pub struct Params<'a>(pub &'a [Value]);

impl<'a> Params<'a> {
    /// Parameter `i`.
    pub fn get(self, i: usize, missing: &str) -> GaeResult<&'a Value> {
        self.0
            .get(i)
            .ok_or_else(|| gae_types::GaeError::Parse(missing.into()))
    }

    /// Parameter `i` as an unsigned integer.
    pub fn u64(self, i: usize, missing: &str) -> GaeResult<u64> {
        self.get(i, missing)?.as_u64()
    }

    /// Parameter `i` as a 32-bit integer.
    pub fn i32(self, i: usize, missing: &str) -> GaeResult<i32> {
        self.get(i, missing)?.as_i32()
    }

    /// Parameter `i` as a string.
    pub fn str(self, i: usize, missing: &str) -> GaeResult<&'a str> {
        self.get(i, missing)?.as_str()
    }

    /// Parameter `i` unless it is absent or nil.
    pub fn opt(self, i: usize) -> Option<&'a Value> {
        self.0.get(i).filter(|v| !v.is_nil())
    }

    /// Exactly `N` parameters, or a `Parse` fault carrying `usage`.
    pub fn exact<const N: usize>(self, usage: &str) -> GaeResult<&'a [Value; N]> {
        self.0
            .try_into()
            .map_err(|_| gae_types::GaeError::Parse(usage.into()))
    }
}

/// A GAE web service: a named bundle of methods. Production services
/// declare a [`Methods`] table; wrappers and test doubles may implement
/// the trait by hand.
///
/// Implementations must be thread-safe; the door dispatches
/// concurrent requests from its worker pool.
pub trait Service: Send + Sync {
    /// The service's registration name (`"jobmon"`, `"steering"`...).
    fn name(&self) -> &'static str;

    /// Dispatches `method` (without the service prefix).
    fn call(&self, ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value>;

    /// The methods this service exposes, for discovery/introspection.
    fn methods(&self) -> Vec<MethodInfo>;

    /// Whether `method` may run to completion on the thread that
    /// framed the request (the reactor's event loop) instead of a
    /// pool worker. Mark only calls that are read-only, cost O(1) in
    /// the number of records held, and take no lock a pump tick holds
    /// for longer than one site's turn: whatever runs here delays
    /// every connection of the server (DESIGN.md §16). The host reads
    /// the marking once, at registration. A wrapper that does not
    /// forward it keeps its calls on the pool.
    fn inline(&self, _method: &str) -> bool {
        false
    }
}

/// Client-side view of an RPC endpoint. Implemented by the in-process
/// and TCP transports so services can talk to each other without
/// knowing where the peer lives — exactly how the steering service
/// consumes the job monitoring and estimator services.
pub trait Rpc: Send {
    /// Invokes `method` (full form, `"service.method"`).
    fn call(&mut self, method: &str, params: Vec<Value>) -> GaeResult<Value>;

    /// Human-readable endpoint description for diagnostics.
    fn endpoint(&self) -> String;

    /// Executes a batch of calls in one `system.multicall` round
    /// trip, returning one result per call. Per-call faults come back
    /// as `Err` entries without failing the batch; a transport-level
    /// failure fails the whole call.
    fn call_batch(&mut self, calls: Vec<(&str, Vec<Value>)>) -> GaeResult<Vec<GaeResult<Value>>> {
        let payload = Value::Array(
            calls
                .into_iter()
                .map(|(name, params)| {
                    Value::struct_of([
                        ("methodName", Value::from(name)),
                        ("params", Value::Array(params)),
                    ])
                })
                .collect(),
        );
        let raw = self.call("system.multicall", vec![payload])?;
        raw.as_array()?
            .iter()
            .map(|entry| {
                Ok(match entry {
                    Value::Array(one) => one.first().cloned().map(Ok).unwrap_or_else(|| {
                        Err(gae_types::GaeError::Parse(
                            "multicall entry missing result".into(),
                        ))
                    }),
                    fault => {
                        let code = fault.member("faultCode")?.as_i32()?;
                        let msg = fault.member("faultString")?.as_str()?.to_string();
                        Err(gae_types::GaeError::from_fault(code, msg))
                    }
                })
            })
            .collect::<GaeResult<Vec<_>>>()
    }
}

/// Helper: produce the canonical "unknown method" fault.
pub fn unknown_method(service: &str, method: &str) -> gae_types::GaeError {
    gae_types::GaeError::Rpc {
        code: -32601,
        message: format!("{service}.{method}: method not found"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::GaeError;

    #[test]
    fn anonymous_context_has_no_user() {
        let ctx = CallContext::anonymous("test");
        assert!(ctx.user.is_none());
        assert!(matches!(ctx.require_user(), Err(GaeError::Unauthorized(_))));
        assert_eq!(ctx.peer, "test");
    }

    #[test]
    fn authenticated_context_yields_user() {
        let ctx = CallContext::authenticated(UserId::new(7), SessionId::new(1));
        assert_eq!(ctx.require_user().unwrap(), UserId::new(7));
    }

    struct Table;
    impl Methods for Table {
        const NAME: &'static str = "table";
        const METHODS: &'static [Method<Self>] = &[
            Method {
                name: "pair",
                help: "its two parameters, swapped",
                inline: true,
                handler: |_, _, p| {
                    let [a, b] = p.exact("pair(a, b)")?;
                    Ok(Value::Array(vec![b.clone(), a.clone()]))
                },
            },
            Method {
                name: "who",
                help: "the caller",
                inline: false,
                handler: |_, ctx, _| Ok(Value::from(ctx.require_user()?.raw())),
            },
        ];
    }

    #[test]
    fn a_table_derives_the_service() {
        let t = Table;
        assert_eq!(t.name(), "table");
        let names: Vec<_> = t.methods().iter().map(|m| (m.name, m.help)).collect();
        assert_eq!(
            names,
            [
                ("pair", "its two parameters, swapped"),
                ("who", "the caller")
            ]
        );
        assert!(t.inline("pair") && !t.inline("who") && !t.inline("nope"));
        let anon = CallContext::anonymous("t");
        assert_eq!(
            t.call(&anon, "pair", &[Value::Int(1), Value::Int(2)])
                .unwrap(),
            Value::Array(vec![Value::Int(2), Value::Int(1)])
        );
        assert!(matches!(
            t.call(&anon, "who", &[]),
            Err(GaeError::Unauthorized(_))
        ));
        assert!(matches!(
            t.call(&anon, "nope", &[]),
            Err(GaeError::Rpc { code: -32601, .. })
        ));
    }

    #[test]
    fn params_fault_with_the_callers_text() {
        let values = [Value::Int(7), Value::from("x"), Value::Nil];
        let p = Params(&values);
        assert_eq!(p.u64(0, "m").unwrap(), 7);
        assert_eq!(p.i32(0, "m").unwrap(), 7);
        assert_eq!(p.str(1, "m").unwrap(), "x");
        // Missing: the given text, verbatim.
        assert!(matches!(p.u64(3, "f(a, b)"), Err(GaeError::Parse(m)) if m == "f(a, b)"));
        // Present but of the wrong type: the value's own error.
        assert!(matches!(p.str(0, "f(a, b)"), Err(GaeError::Parse(m)) if m != "f(a, b)"));
        assert!(p.opt(1).is_some() && p.opt(2).is_none() && p.opt(3).is_none());
        assert!(p.exact::<3>("g()").is_ok());
        assert!(matches!(p.exact::<2>("g()"), Err(GaeError::Parse(m)) if m == "g()"));
    }

    #[test]
    fn unknown_method_fault_code() {
        let e = unknown_method("svc", "nope");
        assert!(matches!(e, GaeError::Rpc { code: -32601, .. }));
        assert!(e.to_string().contains("svc.nope"));
    }
}
