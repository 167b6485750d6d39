//! Analysis-session state (§3): the GAE web services cooperate to
//! "store the state of users' analysis sessions, and allow users to
//! make their own choices about job execution".
//!
//! An analysis session is a named, per-user workspace: the jobs it
//! spawned, free-form notes, and bookmarks (datasets, plots). A
//! physicist can close the laptop, reconnect from another Clarens
//! client, and pick up where they left off.

use crate::grid::Grid;
use gae_rpc::{Method, Methods};
use gae_types::{GaeError, GaeResult, JobId, SimTime, UserId};
use gae_wire::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One stored analysis session.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisSession {
    /// The owning user.
    pub owner: UserId,
    /// Session name, unique per user.
    pub name: String,
    /// Creation instant.
    pub created_at: SimTime,
    /// Last mutation instant.
    pub updated_at: SimTime,
    /// Jobs submitted from this session.
    pub jobs: Vec<JobId>,
    /// Timestamped free-form notes.
    pub notes: Vec<(SimTime, String)>,
    /// Named bookmarks (dataset LFNs, plot references, ...).
    pub bookmarks: Vec<(String, String)>,
}

/// Per-user named session storage.
pub struct AnalysisSessionStore {
    grid: Arc<Grid>,
    sessions: RwLock<HashMap<(UserId, String), AnalysisSession>>,
}

impl AnalysisSessionStore {
    /// An empty store timestamping against the grid clock.
    pub fn new(grid: Arc<Grid>) -> Arc<Self> {
        Arc::new(AnalysisSessionStore {
            grid,
            sessions: RwLock::new(HashMap::new()),
        })
    }

    /// Opens (or reopens) a session; reopening is idempotent.
    pub fn open(&self, owner: UserId, name: &str) -> AnalysisSession {
        let now = self.grid.now();
        self.sessions
            .write()
            .entry((owner, name.to_string()))
            .or_insert_with(|| AnalysisSession {
                owner,
                name: name.to_string(),
                created_at: now,
                updated_at: now,
                jobs: Vec::new(),
                notes: Vec::new(),
                bookmarks: Vec::new(),
            })
            .clone()
    }

    fn mutate<R>(
        &self,
        owner: UserId,
        name: &str,
        f: impl FnOnce(&mut AnalysisSession) -> R,
    ) -> GaeResult<R> {
        let now = self.grid.now();
        let mut sessions = self.sessions.write();
        let session = sessions
            .get_mut(&(owner, name.to_string()))
            .ok_or_else(|| GaeError::NotFound(format!("analysis session {name:?}")))?;
        session.updated_at = now;
        Ok(f(session))
    }

    /// Fetches a session.
    pub fn get(&self, owner: UserId, name: &str) -> GaeResult<AnalysisSession> {
        self.sessions
            .read()
            .get(&(owner, name.to_string()))
            .cloned()
            .ok_or_else(|| GaeError::NotFound(format!("analysis session {name:?}")))
    }

    /// Session names of one user, sorted.
    pub fn list(&self, owner: UserId) -> Vec<String> {
        let mut names: Vec<String> = self
            .sessions
            .read()
            .keys()
            .filter(|(u, _)| *u == owner)
            .map(|(_, n)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Records a job as belonging to the session.
    pub fn attach_job(&self, owner: UserId, name: &str, job: JobId) -> GaeResult<()> {
        self.mutate(owner, name, |s| {
            if !s.jobs.contains(&job) {
                s.jobs.push(job);
            }
        })
    }

    /// Appends a timestamped note.
    pub fn note(&self, owner: UserId, name: &str, text: &str) -> GaeResult<()> {
        let now = self.grid.now();
        self.mutate(owner, name, |s| s.notes.push((now, text.to_string())))
    }

    /// Sets (or replaces) a named bookmark.
    pub fn bookmark(&self, owner: UserId, name: &str, label: &str, payload: &str) -> GaeResult<()> {
        self.mutate(owner, name, |s| {
            if let Some(slot) = s.bookmarks.iter_mut().find(|(l, _)| l == label) {
                slot.1 = payload.to_string();
            } else {
                s.bookmarks.push((label.to_string(), payload.to_string()));
            }
        })
    }

    /// Deletes a session.
    pub fn delete(&self, owner: UserId, name: &str) -> bool {
        self.sessions
            .write()
            .remove(&(owner, name.to_string()))
            .is_some()
    }
}

fn session_to_value(s: &AnalysisSession) -> Value {
    let jobs = s.jobs.iter().map(|j| Value::from(j.raw()));
    let notes = s.notes.iter().map(|(at, text)| {
        Value::struct_of([
            ("at_us", Value::from(at.as_micros())),
            ("text", Value::from(text.as_str())),
        ])
    });
    let bookmarks = s.bookmarks.iter().map(|(label, payload)| {
        Value::struct_of([
            ("label", Value::from(label.as_str())),
            ("payload", Value::from(payload.as_str())),
        ])
    });
    Value::struct_of([
        ("name", Value::from(s.name.as_str())),
        ("owner", Value::from(s.owner.raw())),
        ("created_us", Value::from(s.created_at.as_micros())),
        ("updated_us", Value::from(s.updated_at.as_micros())),
        ("jobs", Value::Array(jobs.collect())),
        ("notes", Value::Array(notes.collect())),
        ("bookmarks", Value::Array(bookmarks.collect())),
    ])
}

/// XML-RPC facade, registered as the `sessionstore` service. All
/// methods act on the calling user's own sessions.
pub struct AnalysisSessionRpc {
    store: Arc<AnalysisSessionStore>,
}

impl AnalysisSessionRpc {
    /// Wraps the store for RPC registration.
    pub fn new(store: Arc<AnalysisSessionStore>) -> Self {
        AnalysisSessionRpc { store }
    }
}

/// Every method acts for the caller, who must be logged in; the
/// session's name is parameter 0 (read after the job id in
/// `attach_job`).
impl Methods for AnalysisSessionRpc {
    const NAME: &'static str = "sessionstore";
    const METHODS: &'static [Method<Self>] = &[
        Method {
            name: "open",
            help: "open (or reopen) a named analysis session",
            inline: false,
            handler: |s, ctx, p| {
                let (user, name) = (ctx.require_user()?, p.str(0, "missing parameter 0")?);
                Ok(session_to_value(&s.store.open(user, name)))
            },
        },
        Method {
            name: "get",
            help: "fetch one of the caller's sessions",
            inline: false,
            handler: |s, ctx, p| {
                let (user, name) = (ctx.require_user()?, p.str(0, "missing parameter 0")?);
                Ok(session_to_value(&s.store.get(user, name)?))
            },
        },
        Method {
            name: "list",
            help: "the caller's session names",
            inline: false,
            handler: |s, ctx, _| {
                let names = s.store.list(ctx.require_user()?);
                Ok(Value::Array(names.into_iter().map(Value::from).collect()))
            },
        },
        Method {
            name: "attach_job",
            help: "record a job as part of a session",
            inline: false,
            handler: |s, ctx, p| {
                let user = ctx.require_user()?;
                let job = JobId::new(p.u64(1, "attach_job(name, job)")?);
                let name = p.str(0, "missing parameter 0")?;
                s.store.attach_job(user, name, job)?;
                Ok(Value::Bool(true))
            },
        },
        Method {
            name: "note",
            help: "append a timestamped note",
            inline: false,
            handler: |s, ctx, p| {
                let (user, name) = (ctx.require_user()?, p.str(0, "missing parameter 0")?);
                let text = p.str(1, "missing parameter 1")?;
                s.store.note(user, name, text)?;
                Ok(Value::Bool(true))
            },
        },
        Method {
            name: "bookmark",
            help: "set a named bookmark (dataset, plot, ...)",
            inline: false,
            handler: |s, ctx, p| {
                let (user, name) = (ctx.require_user()?, p.str(0, "missing parameter 0")?);
                let label = p.str(1, "missing parameter 1")?;
                let payload = p.str(2, "missing parameter 2")?;
                s.store.bookmark(user, name, label, payload)?;
                Ok(Value::Bool(true))
            },
        },
        Method {
            name: "delete",
            help: "delete a session",
            inline: false,
            handler: |s, ctx, p| {
                let (user, name) = (ctx.require_user()?, p.str(0, "missing parameter 0")?);
                Ok(Value::Bool(s.store.delete(user, name)))
            },
        },
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridBuilder;
    use gae_rpc::{CallContext, Service};
    use gae_types::{SimTime, SiteDescription, SiteId};

    fn store() -> (Arc<Grid>, Arc<AnalysisSessionStore>) {
        let grid = GridBuilder::new()
            .site(SiteDescription::new(SiteId::new(1), "s", 1, 1))
            .build();
        let store = AnalysisSessionStore::new(grid.clone());
        (grid, store)
    }

    #[test]
    fn open_is_idempotent() {
        let (grid, store) = store();
        let u = UserId::new(1);
        let a = store.open(u, "higgs-search");
        grid.advance_to(SimTime::from_secs(100));
        let b = store.open(u, "higgs-search");
        assert_eq!(a, b, "reopening returns the stored session");
        assert_eq!(a.created_at, SimTime::ZERO);
    }

    #[test]
    fn state_accumulates_with_timestamps() {
        let (grid, store) = store();
        let u = UserId::new(1);
        store.open(u, "s1");
        store.attach_job(u, "s1", JobId::new(7)).unwrap();
        grid.advance_to(SimTime::from_secs(60));
        store
            .note(u, "s1", "peak looks wider than expected")
            .unwrap();
        store.bookmark(u, "s1", "dataset", "lfn:/cms/run7").unwrap();
        store.bookmark(u, "s1", "dataset", "lfn:/cms/run8").unwrap(); // replace
        let s = store.get(u, "s1").unwrap();
        assert_eq!(s.jobs, vec![JobId::new(7)]);
        assert_eq!(s.notes.len(), 1);
        assert_eq!(s.notes[0].0, SimTime::from_secs(60));
        assert_eq!(
            s.bookmarks,
            vec![("dataset".to_string(), "lfn:/cms/run8".to_string())]
        );
        assert_eq!(s.updated_at, SimTime::from_secs(60));
        // Duplicate job attach ignored.
        store.attach_job(u, "s1", JobId::new(7)).unwrap();
        assert_eq!(store.get(u, "s1").unwrap().jobs.len(), 1);
    }

    #[test]
    fn sessions_are_per_user() {
        let (_grid, store) = store();
        store.open(UserId::new(1), "shared-name");
        store.open(UserId::new(2), "shared-name");
        store.note(UserId::new(1), "shared-name", "mine").unwrap();
        assert!(store
            .get(UserId::new(2), "shared-name")
            .unwrap()
            .notes
            .is_empty());
        assert_eq!(store.list(UserId::new(1)), vec!["shared-name"]);
        assert!(store.list(UserId::new(3)).is_empty());
    }

    #[test]
    fn missing_sessions_error() {
        let (_grid, store) = store();
        let u = UserId::new(1);
        assert!(store.get(u, "nope").is_err());
        assert!(store.note(u, "nope", "x").is_err());
        assert!(store.attach_job(u, "nope", JobId::new(1)).is_err());
        assert!(!store.delete(u, "nope"));
    }

    #[test]
    fn delete_removes() {
        let (_grid, store) = store();
        let u = UserId::new(1);
        store.open(u, "temp");
        assert!(store.delete(u, "temp"));
        assert!(store.get(u, "temp").is_err());
    }

    #[test]
    fn rpc_requires_session_and_scopes_to_caller() {
        use gae_types::SessionId;
        let (_grid, store) = store();
        let svc = AnalysisSessionRpc::new(store.clone());
        let anon = CallContext::anonymous("t");
        assert!(matches!(
            svc.call(&anon, "open", &[Value::from("s")]),
            Err(GaeError::Unauthorized(_))
        ));
        let alice = CallContext::authenticated(UserId::new(1), SessionId::new(1));
        let bob = CallContext::authenticated(UserId::new(2), SessionId::new(2));
        svc.call(&alice, "open", &[Value::from("mywork")]).unwrap();
        svc.call(
            &alice,
            "note",
            &[Value::from("mywork"), Value::from("hello")],
        )
        .unwrap();
        svc.call(
            &alice,
            "bookmark",
            &[
                Value::from("mywork"),
                Value::from("plot"),
                Value::from("mass-peak.png"),
            ],
        )
        .unwrap();
        svc.call(
            &alice,
            "attach_job",
            &[Value::from("mywork"), Value::from(5u64)],
        )
        .unwrap();
        // Bob cannot see alice's session.
        assert!(svc.call(&bob, "get", &[Value::from("mywork")]).is_err());
        let mine = svc.call(&alice, "get", &[Value::from("mywork")]).unwrap();
        assert_eq!(mine.member("notes").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(mine.member("jobs").unwrap().as_array().unwrap().len(), 1);
        let names = svc.call(&alice, "list", &[]).unwrap();
        assert_eq!(names.as_array().unwrap().len(), 1);
        assert_eq!(
            svc.call(&alice, "delete", &[Value::from("mywork")])
                .unwrap(),
            Value::Bool(true)
        );
    }
}
