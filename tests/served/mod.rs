//! The host `gae-ctl serve` runs, unserved: `gae::server::demo`, with
//! no store and virtual time not advanced. Included with `mod served;`.

use gae::prelude::*;
use gae::rpc::{CallContext, Credentials, ServiceHost};
use gae::server::{PASSWORD, USER};
use std::sync::Arc;

/// The demo stack and its host, with demo job 1 submitted.
pub fn served_host() -> (Arc<ServiceStack>, Arc<ServiceHost>) {
    gae::server::demo(None).expect("demo deployment")
}

/// A fresh session of the demo user on `host`.
pub fn logged_in(host: &ServiceHost) -> CallContext {
    let sid = host.sessions().login(&Credentials::new(USER, PASSWORD));
    let sid = sid.expect("registered user");
    host.resolve_session(Some(sid), "served")
        .expect("live session")
}
