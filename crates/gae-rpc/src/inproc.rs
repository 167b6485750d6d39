//! In-process transport: the same [`Rpc`] interface, zero sockets.
//!
//! Used by tests that want a served host without a door. Every call
//! goes through the full XML-RPC codec, both ways, so serialization
//! bugs cannot hide behind a fast path.

use crate::host::ServiceHost;
use crate::service::{CallContext, Rpc};
use gae_types::{GaeResult, SessionId, UserId};
use gae_wire::{parse_call, parse_response, write_call, write_response, MethodCall, Value};
use std::sync::Arc;

/// A client bound directly to a [`ServiceHost`].
pub struct InProcClient {
    host: Arc<ServiceHost>,
    session: Option<SessionId>,
    user: Option<UserId>,
    trace: Option<gae_obs::TraceContext>,
}

impl InProcClient {
    /// A client whose every call is written to XML and parsed back,
    /// both ways — byte-identical to the TCP path.
    pub fn new(host: Arc<ServiceHost>) -> Self {
        InProcClient {
            host,
            session: None,
            user: None,
            trace: None,
        }
    }

    /// Attaches a trace context: subsequent calls join that trace
    /// instead of minting door traces. `None` clears it.
    pub fn set_trace(&mut self, trace: Option<gae_obs::TraceContext>) {
        self.trace = trace;
    }

    /// Authenticates against the host's session manager.
    pub fn login(&mut self, username: &str, password: &str) -> GaeResult<SessionId> {
        let sid = self
            .call(
                "auth.login",
                vec![Value::from(username), Value::from(password)],
            )?
            .as_u64()?;
        let sid = SessionId::new(sid);
        self.session = Some(sid);
        self.user = Some(self.host.sessions().validate(sid)?);
        Ok(sid)
    }

    /// Drops the session.
    pub fn logout(&mut self) {
        if let Some(sid) = self.session.take() {
            self.host.sessions().logout(sid);
        }
        self.user = None;
    }

    /// This is the in-process RPC door: an attached trace is carried
    /// through, otherwise a fresh one is minted per call when
    /// observability is wired.
    fn context(&self, method: &str) -> GaeResult<CallContext> {
        let mut ctx = self.host.resolve_session(self.session, "inproc")?;
        if let Some(hub) = self.host.obs() {
            ctx.trace = self.trace.or_else(|| Some(hub.mint_trace(method)));
        }
        Ok(ctx)
    }
}

impl Rpc for InProcClient {
    fn call(&mut self, method: &str, params: Vec<Value>) -> GaeResult<Value> {
        let ctx = self.context(method)?;
        let wire = write_call(&MethodCall::new(method, params));
        let call = parse_call(wire.as_bytes())?;
        let response = self.host.handle(&ctx, &call);
        let wire_back = write_response(&response);
        parse_response(wire_back.as_bytes())?.into_result()
    }

    fn endpoint(&self) -> String {
        "inproc://local".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::Credentials;
    use crate::service::{Method, Methods};
    use gae_types::GaeError;

    struct Probe;
    impl Methods for Probe {
        const NAME: &'static str = "probe";
        const METHODS: &'static [Method<Self>] = &[
            Method {
                name: "whoami",
                help: "the caller's user id, or nil",
                inline: false,
                handler: |_, ctx, _| Ok(ctx.user.map(|u| u.raw()).into()),
            },
            Method {
                name: "double",
                help: "twice an integer",
                inline: false,
                handler: |_, _, p| Ok(Value::Int64(p.get(0, "double(n)")?.as_i64()? * 2)),
            },
        ];
    }

    #[test]
    fn roundtrip() {
        let host = ServiceHost::open();
        host.register(Arc::new(Probe));
        let mut c = InProcClient::new(host);
        assert_eq!(
            c.call("probe.double", vec![Value::Int(21)]).unwrap(),
            Value::Int64(42)
        );
        assert_eq!(c.endpoint(), "inproc://local");
    }

    #[test]
    fn codec_path_matches_fast_path() {
        let host = ServiceHost::open();
        host.register(Arc::new(Probe));
        let ctx = host.resolve_session(None, "inproc").unwrap();
        let mut client = InProcClient::new(host.clone());
        for i in [0i64, -5, 1 << 40] {
            let params = vec![Value::Int64(i)];
            assert_eq!(
                host.dispatch(&ctx, "probe.double", &params).unwrap(),
                client.call("probe.double", params).unwrap()
            );
        }
    }

    #[test]
    fn codec_path_propagates_faults() {
        let host = ServiceHost::open();
        let mut c = InProcClient::new(host);
        assert!(matches!(
            c.call("ghost.m", vec![]),
            Err(GaeError::Rpc { code: -32601, .. })
        ));
    }

    #[test]
    fn call_batch_over_multicall() {
        let host = ServiceHost::open();
        host.register(Arc::new(Probe));
        let mut c = InProcClient::new(host);
        let results = c
            .call_batch(vec![
                ("probe.double", vec![Value::Int64(21)]),
                ("no.such", vec![]),
                ("system.ping", vec![]),
            ])
            .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap(), &Value::Int64(42));
        assert!(matches!(
            results[1],
            Err(GaeError::Rpc { code: -32601, .. })
        ));
        assert_eq!(results[2].as_ref().unwrap(), &Value::from("pong"));
    }

    #[test]
    fn login_logout() {
        let host = ServiceHost::open();
        host.register(Arc::new(Probe));
        host.sessions()
            .register(&Credentials::new("eve", "pw"))
            .unwrap();
        let mut c = InProcClient::new(host);
        assert!(c.call("probe.whoami", vec![]).unwrap().is_nil());
        c.login("eve", "pw").unwrap();
        assert!(!c.call("probe.whoami", vec![]).unwrap().is_nil());
        c.logout();
        assert!(c.call("probe.whoami", vec![]).unwrap().is_nil());
    }

    #[test]
    fn stale_session_rejected() {
        let host = ServiceHost::open();
        host.sessions()
            .register(&Credentials::new("eve", "pw"))
            .unwrap();
        let mut c = InProcClient::new(host.clone());
        let sid = c.login("eve", "pw").unwrap();
        // Kill the session server-side.
        host.sessions().logout(sid);
        assert!(matches!(
            c.call("system.ping", vec![]),
            Err(GaeError::Unauthorized(_))
        ));
    }
}
