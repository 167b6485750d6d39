//! Authentication, sessions, and access control — Clarens' common
//! security layer, and the store behind the Steering Service's
//! Session Manager (§4.2.5).
//!
//! Credentials are username + password. Passwords are stored as
//! salted FNV-1a hashes: this mirrors the *shape* of Clarens'
//! credential checking without pulling in a cryptography dependency —
//! the GAE reproduction runs on synthetic users only, so a
//! non-cryptographic hash is an acceptable and documented
//! substitution.

use gae_types::{GaeError, GaeResult, SessionId, UserId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Username + password pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Credentials {
    /// Login name.
    pub username: String,
    /// Plaintext password (hashed at rest).
    pub password: String,
}

impl Credentials {
    /// Builds credentials.
    pub fn new(username: impl Into<String>, password: impl Into<String>) -> Self {
        Credentials {
            username: username.into(),
            password: password.into(),
        }
    }
}

/// Salted FNV-1a 64-bit. **Not cryptographic** — see module docs.
fn hash_password(salt: u64, password: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
    for b in password.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct UserRecord {
    id: UserId,
    salt: u64,
    password_hash: u64,
}

struct SessionRecord {
    user: UserId,
    last_touch: Instant,
}

/// Issues and validates sessions.
pub struct SessionManager {
    users: RwLock<HashMap<String, UserRecord>>,
    sessions: RwLock<HashMap<SessionId, SessionRecord>>,
    next_user: std::sync::atomic::AtomicU64,
    next_session: std::sync::atomic::AtomicU64,
    ttl: Duration,
}

impl SessionManager {
    /// Creates a manager with the given idle session TTL.
    pub fn new(ttl: Duration) -> Self {
        SessionManager {
            users: RwLock::new(HashMap::new()),
            sessions: RwLock::new(HashMap::new()),
            next_user: std::sync::atomic::AtomicU64::new(1),
            next_session: std::sync::atomic::AtomicU64::new(1),
            ttl,
        }
    }

    /// Default: one-hour idle TTL (Clarens' default session length).
    pub fn with_default_ttl() -> Self {
        Self::new(Duration::from_secs(3600))
    }

    /// Registers a user; fails if the name is taken.
    pub fn register(&self, creds: &Credentials) -> GaeResult<UserId> {
        let mut users = self.users.write();
        if users.contains_key(&creds.username) {
            return Err(GaeError::InvalidPlan(format!(
                "user {:?} already registered",
                creds.username
            )));
        }
        let id = UserId::new(
            self.next_user
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
        let salt = id.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        users.insert(
            creds.username.clone(),
            UserRecord {
                id,
                salt,
                password_hash: hash_password(salt, &creds.password),
            },
        );
        Ok(id)
    }

    /// Authenticates and opens a session.
    pub fn login(&self, creds: &Credentials) -> GaeResult<SessionId> {
        let users = self.users.read();
        let rec = users
            .get(&creds.username)
            .ok_or_else(|| GaeError::Unauthorized("unknown user or bad password".into()))?;
        if hash_password(rec.salt, &creds.password) != rec.password_hash {
            return Err(GaeError::Unauthorized(
                "unknown user or bad password".into(),
            ));
        }
        let sid = SessionId::new(
            self.next_session
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
        self.sessions.write().insert(
            sid,
            SessionRecord {
                user: rec.id,
                last_touch: Instant::now(),
            },
        );
        Ok(sid)
    }

    /// Validates a session, refreshing its idle timer. Expired
    /// sessions are dropped eagerly.
    pub fn validate(&self, session: SessionId) -> GaeResult<UserId> {
        let mut sessions = self.sessions.write();
        match sessions.get_mut(&session) {
            Some(rec) if rec.last_touch.elapsed() <= self.ttl => {
                rec.last_touch = Instant::now();
                Ok(rec.user)
            }
            Some(_) => {
                sessions.remove(&session);
                Err(GaeError::Unauthorized(format!("session {session} expired")))
            }
            None => Err(GaeError::Unauthorized(format!("unknown session {session}"))),
        }
    }

    /// Closes a session (idempotent).
    pub fn logout(&self, session: SessionId) {
        self.sessions.write().remove(&session);
    }

    /// Looks up the id of a registered user by name.
    pub fn user_id(&self, username: &str) -> Option<UserId> {
        self.users.read().get(username).map(|r| r.id)
    }
}

/// Effect of an access rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Effect {
    Allow,
    Deny,
}

/// Scope of an access rule: global < service < exact method.
#[derive(Clone, Debug)]
struct Rule {
    /// `None` = any user (including anonymous).
    user: Option<UserId>,
    /// `None` = any service.
    service: Option<String>,
    /// `None` = any method within the service.
    method: Option<String>,
    effect: Effect,
}

impl Rule {
    fn specificity(&self) -> u32 {
        u32::from(self.user.is_some()) * 4
            + u32::from(self.service.is_some()) * 2
            + u32::from(self.method.is_some())
    }

    fn matches(&self, user: Option<UserId>, service: &str, method: &str) -> bool {
        (self.user.is_none() || self.user == user)
            && self
                .service
                .as_deref()
                .map(|s| s == service)
                .unwrap_or(true)
            && self.method.as_deref().map(|m| m == method).unwrap_or(true)
    }
}

/// A small ACL engine: rules are evaluated by specificity (most
/// specific wins); among equally specific matches, `Deny` wins.
pub struct AccessControl {
    rules: RwLock<Vec<Rule>>,
    default_allow: bool,
}

impl AccessControl {
    /// Everything allowed unless denied — the configuration the
    /// paper's testbed effectively ran with.
    pub fn allow_all() -> Self {
        AccessControl {
            rules: RwLock::new(Vec::new()),
            default_allow: true,
        }
    }

    /// Everything denied unless allowed.
    pub fn default_deny() -> Self {
        AccessControl {
            rules: RwLock::new(Vec::new()),
            default_allow: false,
        }
    }

    fn push(&self, rule: Rule) {
        self.rules.write().push(rule);
    }

    /// Allows `user` (or everyone if `None`) to call every method of
    /// `service`.
    pub fn grant_service(&self, user: Option<UserId>, service: &str) {
        self.push(Rule {
            user,
            service: Some(service.to_string()),
            method: None,
            effect: Effect::Allow,
        });
    }

    /// Denies one specific method.
    pub fn deny_method(&self, user: Option<UserId>, service: &str, method: &str) {
        self.push(Rule {
            user,
            service: Some(service.to_string()),
            method: Some(method.to_string()),
            effect: Effect::Deny,
        });
    }

    /// Checks whether `user` may call `service.method`.
    pub fn check(&self, user: Option<UserId>, service: &str, method: &str) -> bool {
        let rules = self.rules.read();
        let mut best: Option<(u32, Effect)> = None;
        for r in rules.iter() {
            if !r.matches(user, service, method) {
                continue;
            }
            let spec = r.specificity();
            match best {
                Some((s, _)) if s > spec => {}
                Some((s, e)) if s == spec => {
                    if e == Effect::Allow && r.effect == Effect::Deny {
                        best = Some((spec, Effect::Deny));
                    }
                }
                _ => best = Some((spec, r.effect)),
            }
        }
        match best {
            Some((_, Effect::Allow)) => true,
            Some((_, Effect::Deny)) => false,
            None => self.default_allow,
        }
    }

    /// Enforces the check, producing the canonical error.
    pub fn enforce(&self, user: Option<UserId>, service: &str, method: &str) -> GaeResult<()> {
        if self.check(user, service, method) {
            Ok(())
        } else {
            Err(GaeError::Unauthorized(format!(
                "access denied to {service}.{method}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_login_validate_logout() {
        let sm = SessionManager::with_default_ttl();
        let creds = Credentials::new("alice", "s3cret");
        let uid = sm.register(&creds).unwrap();
        let sid = sm.login(&creds).unwrap();
        assert_eq!(sm.validate(sid).unwrap(), uid);
        assert_eq!(sm.sessions.read().len(), 1);
        sm.logout(sid);
        assert!(sm.validate(sid).is_err());
        assert_eq!(sm.sessions.read().len(), 0);
    }

    #[test]
    fn wrong_password_rejected() {
        let sm = SessionManager::with_default_ttl();
        sm.register(&Credentials::new("bob", "pw")).unwrap();
        assert!(sm.login(&Credentials::new("bob", "wrong")).is_err());
        assert!(sm.login(&Credentials::new("mallory", "pw")).is_err());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let sm = SessionManager::with_default_ttl();
        sm.register(&Credentials::new("bob", "pw")).unwrap();
        assert!(sm.register(&Credentials::new("bob", "other")).is_err());
    }

    #[test]
    fn sessions_expire() {
        let sm = SessionManager::new(Duration::from_millis(10));
        sm.register(&Credentials::new("carol", "pw")).unwrap();
        let sid = sm.login(&Credentials::new("carol", "pw")).unwrap();
        assert!(sm.validate(sid).is_ok());
        std::thread::sleep(Duration::from_millis(25));
        assert!(sm.validate(sid).is_err());
        // Expired session was reaped.
        assert_eq!(sm.sessions.read().len(), 0);
    }

    #[test]
    fn validation_refreshes_ttl() {
        let sm = SessionManager::new(Duration::from_millis(60));
        sm.register(&Credentials::new("dave", "pw")).unwrap();
        let sid = sm.login(&Credentials::new("dave", "pw")).unwrap();
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(25));
            assert!(
                sm.validate(sid).is_ok(),
                "touching should keep the session alive"
            );
        }
    }

    #[test]
    fn distinct_users_distinct_ids() {
        let sm = SessionManager::with_default_ttl();
        let a = sm.register(&Credentials::new("a", "x")).unwrap();
        let b = sm.register(&Credentials::new("b", "x")).unwrap();
        assert_ne!(a, b);
        assert_eq!(sm.user_id("a"), Some(a));
        assert_eq!(sm.user_id("zzz"), None);
    }

    #[test]
    fn same_password_different_hash_via_salt() {
        // Indirect check: two users with the same password can both
        // log in and cannot log in with each other's... (behavioural).
        let sm = SessionManager::with_default_ttl();
        sm.register(&Credentials::new("u1", "pw")).unwrap();
        sm.register(&Credentials::new("u2", "pw")).unwrap();
        assert!(sm.login(&Credentials::new("u1", "pw")).is_ok());
        assert!(sm.login(&Credentials::new("u2", "pw")).is_ok());
    }

    #[test]
    fn acl_default_policies() {
        let open = AccessControl::allow_all();
        assert!(open.check(None, "jobmon", "job_status"));
        let closed = AccessControl::default_deny();
        assert!(!closed.check(None, "jobmon", "job_status"));
        assert!(closed.enforce(None, "jobmon", "job_status").is_err());
    }

    #[test]
    fn acl_service_grant() {
        let acl = AccessControl::default_deny();
        let u = UserId::new(5);
        acl.grant_service(Some(u), "steering");
        assert!(acl.check(Some(u), "steering", "kill"));
        assert!(!acl.check(Some(u), "jobmon", "job_status"));
        assert!(!acl.check(Some(UserId::new(6)), "steering", "kill"));
        assert!(!acl.check(None, "steering", "kill"));
    }

    #[test]
    fn acl_specificity_wins() {
        let acl = AccessControl::default_deny();
        let u = UserId::new(5);
        acl.grant_service(Some(u), "steering");
        acl.deny_method(Some(u), "steering", "kill");
        assert!(acl.check(Some(u), "steering", "pause"));
        assert!(!acl.check(Some(u), "steering", "kill"));
    }

    #[test]
    fn acl_deny_beats_allow_at_same_specificity() {
        let acl = AccessControl::allow_all();
        let u = UserId::new(5);
        let rule = |effect| Rule {
            user: Some(u),
            service: Some("svc".into()),
            method: Some("m".into()),
            effect,
        };
        acl.push(rule(Effect::Allow));
        acl.push(rule(Effect::Deny));
        assert!(!acl.check(Some(u), "svc", "m"));
    }

    #[test]
    fn acl_anonymous_grant() {
        let acl = AccessControl::default_deny();
        acl.grant_service(None, "system");
        assert!(acl.check(None, "system", "listMethods"));
        assert!(acl.check(Some(UserId::new(1)), "system", "listMethods"));
        assert!(!acl.check(None, "jobmon", "job_status"));
    }

    #[test]
    fn acl_user_rule_beats_global_rule() {
        let acl = AccessControl::default_deny();
        let u = UserId::new(9);
        acl.grant_service(None, "jobmon"); // everyone may monitor
        acl.deny_method(Some(u), "jobmon", "job_status"); // ... except u
        assert!(acl.check(Some(UserId::new(1)), "jobmon", "job_status"));
        assert!(!acl.check(Some(u), "jobmon", "job_status"));
    }
}
