//! The Session Manager (§4.2.5): "makes sure that the authorized
//! users steer the jobs."
//!
//! Authorization model: a job may be steered by its owner or by a
//! registered operator. (Authentication itself — who holds which
//! session — is the Clarens layer's job, `gae_rpc::auth`.)

use gae_types::{GaeError, GaeResult, JobId, UserId};
use parking_lot::RwLock;
use std::collections::HashSet;

/// Decides who may steer which job.
pub struct JobAuthorizer {
    operators: RwLock<HashSet<UserId>>,
}

impl JobAuthorizer {
    /// No operators; only owners may steer.
    pub fn new() -> Self {
        JobAuthorizer {
            operators: RwLock::new(HashSet::new()),
        }
    }

    /// Grants a user operator rights (may steer any job).
    pub fn add_operator(&self, user: UserId) {
        self.operators.write().insert(user);
    }

    /// True if `user` is an operator.
    pub fn is_operator(&self, user: UserId) -> bool {
        self.operators.read().contains(&user)
    }

    /// Enforces that `user` may steer `job` (owned by `owner`).
    pub fn authorize(&self, user: UserId, job: JobId, owner: UserId) -> GaeResult<()> {
        if user == owner || self.is_operator(user) {
            Ok(())
        } else {
            Err(GaeError::Unauthorized(format!(
                "{user} may not steer {job} (owned by {owner})"
            )))
        }
    }
}

impl Default for JobAuthorizer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_may_steer() {
        let auth = JobAuthorizer::new();
        assert!(auth
            .authorize(UserId::new(1), JobId::new(1), UserId::new(1))
            .is_ok());
    }

    #[test]
    fn stranger_may_not() {
        let auth = JobAuthorizer::new();
        let err = auth
            .authorize(UserId::new(2), JobId::new(1), UserId::new(1))
            .unwrap_err();
        assert!(matches!(err, GaeError::Unauthorized(_)));
    }

    #[test]
    fn operators_may_steer_anything() {
        let auth = JobAuthorizer::new();
        auth.add_operator(UserId::new(7));
        assert!(auth.is_operator(UserId::new(7)));
        assert!(auth
            .authorize(UserId::new(7), JobId::new(1), UserId::new(1))
            .is_ok());
        assert!(auth
            .authorize(UserId::new(8), JobId::new(1), UserId::new(1))
            .is_err());
    }
}
