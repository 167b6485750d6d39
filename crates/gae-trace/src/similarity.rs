//! Similarity templates for history-based prediction.
//!
//! Following Smith, Taylor and Foster (the lineage the paper cites
//! for statistical runtime prediction), a *template* is an ordered
//! set of job attributes; two jobs are "similar" under a template if
//! they agree on every attribute in it. A [`TemplateHierarchy`] tries
//! templates from most to least specific, falling back until enough
//! similar jobs are found in the history.

use crate::record::ParagonRecord;
use gae_types::{JobType, TaskSpec};

/// One matchable job attribute.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Feature {
    /// Account (project) name.
    Account,
    /// Login (user) name.
    Login,
    /// Executable / application name.
    Executable,
    /// Queue name.
    Queue,
    /// Partition name.
    Partition,
    /// Node count.
    Nodes,
    /// Batch vs interactive.
    JobType,
}

/// The attribute tuple similarity is computed over, extractable from
/// both accounting records and live task specs.
///
/// `Eq`/`Hash` cover every field, so the tuple doubles as a lookup key
/// (the estimator memoises per-`(site, TaskMeta)` results).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TaskMeta {
    /// Account name (empty if unknown).
    pub account: String,
    /// Login name.
    pub login: String,
    /// Executable / application name.
    pub executable: String,
    /// Queue name.
    pub queue: String,
    /// Partition name.
    pub partition: String,
    /// Node count.
    pub nodes: u32,
    /// Batch vs interactive.
    pub job_type: JobType,
}

impl TaskMeta {
    /// Extracts metadata from an accounting record. Paragon logs have
    /// no executable name; the account name is the closest proxy for
    /// "which application", matching how Downey's data was used.
    pub fn from_record(r: &ParagonRecord) -> TaskMeta {
        TaskMeta {
            account: r.account.clone(),
            login: r.login.clone(),
            executable: r.account.clone(),
            queue: r.queue.clone(),
            partition: r.partition.clone(),
            nodes: r.nodes,
            job_type: r.job_type,
        }
    }

    /// Extracts metadata from a live task spec.
    pub fn from_spec(t: &TaskSpec) -> TaskMeta {
        TaskMeta {
            account: String::new(),
            login: t.owner.to_string(),
            executable: t.executable.clone(),
            queue: t.queue.clone(),
            partition: t.partition.clone(),
            nodes: t.requested_nodes,
            job_type: t.job_type,
        }
    }

    fn feature_eq(&self, other: &TaskMeta, f: Feature) -> bool {
        match f {
            Feature::Account => self.account == other.account,
            Feature::Login => self.login == other.login,
            Feature::Executable => self.executable == other.executable,
            Feature::Queue => self.queue == other.queue,
            Feature::Partition => self.partition == other.partition,
            Feature::Nodes => self.nodes == other.nodes,
            Feature::JobType => self.job_type == other.job_type,
        }
    }
}

/// A set of features that must all match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimilarityTemplate {
    features: Vec<Feature>,
}

impl SimilarityTemplate {
    /// Builds a template from features (order irrelevant for
    /// matching; kept for display).
    pub fn new(features: Vec<Feature>) -> Self {
        SimilarityTemplate { features }
    }

    /// The features in the template.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// The number of features (specificity proxy).
    pub fn specificity(&self) -> usize {
        self.features.len()
    }

    /// Whether `a` and `b` agree on every feature.
    pub fn matches(&self, a: &TaskMeta, b: &TaskMeta) -> bool {
        self.features.iter().all(|f| a.feature_eq(b, *f))
    }
}

/// An ordered fallback chain of templates, most specific first.
#[derive(Clone, Debug)]
pub struct TemplateHierarchy {
    templates: Vec<SimilarityTemplate>,
}

impl TemplateHierarchy {
    /// Builds a hierarchy. Templates are tried in the given order; by
    /// convention callers pass decreasing specificity.
    pub fn new(templates: Vec<SimilarityTemplate>) -> Self {
        assert!(
            !templates.is_empty(),
            "hierarchy needs at least one template"
        );
        TemplateHierarchy { templates }
    }

    /// The hierarchy used for the Figure 5 reproduction: the same
    /// fallback structure as the paper's companion study \[10\] —
    /// (login, queue, nodes, job type) → (login, queue, job type) →
    /// (login, queue) → (queue) → () (everything matches).
    pub fn paragon_default() -> Self {
        use Feature::*;
        Self::new(vec![
            SimilarityTemplate::new(vec![Login, Queue, Nodes, JobType]),
            SimilarityTemplate::new(vec![Login, Queue, JobType]),
            SimilarityTemplate::new(vec![Login, Queue]),
            SimilarityTemplate::new(vec![Queue]),
            SimilarityTemplate::new(vec![]),
        ])
    }

    /// The templates in trial order.
    pub fn templates(&self) -> &[SimilarityTemplate] {
        &self.templates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::{SimTime, TaskId};

    fn meta(login: &str, queue: &str, nodes: u32) -> TaskMeta {
        TaskMeta {
            account: format!("acct-{login}"),
            login: login.to_string(),
            executable: "reco".to_string(),
            queue: queue.to_string(),
            partition: "compute".to_string(),
            nodes,
            job_type: JobType::Batch,
        }
    }

    #[test]
    fn template_matching() {
        use Feature::*;
        let t = SimilarityTemplate::new(vec![Login, Queue]);
        assert!(t.matches(&meta("a", "q1", 4), &meta("a", "q1", 32)));
        assert!(!t.matches(&meta("a", "q1", 4), &meta("a", "q2", 4)));
        assert!(!t.matches(&meta("a", "q1", 4), &meta("b", "q1", 4)));
        assert_eq!(t.specificity(), 2);
    }

    #[test]
    fn empty_template_matches_everything() {
        let t = SimilarityTemplate::new(vec![]);
        assert!(t.matches(&meta("a", "q1", 4), &meta("z", "q9", 128)));
    }

    #[test]
    fn nodes_and_jobtype_features() {
        use Feature::*;
        let t = SimilarityTemplate::new(vec![Nodes, JobType]);
        assert!(t.matches(&meta("a", "q1", 8), &meta("b", "q2", 8)));
        assert!(!t.matches(&meta("a", "q1", 8), &meta("a", "q1", 16)));
        let mut interactive = meta("a", "q1", 8);
        interactive.job_type = gae_types::JobType::Interactive;
        assert!(!t.matches(&meta("a", "q1", 8), &interactive));
    }

    #[test]
    fn meta_from_spec_and_record() {
        let spec = TaskSpec::new(TaskId::new(1), "t", "reco")
            .with_queue("q_short")
            .with_nodes(8);
        let m = TaskMeta::from_spec(&spec);
        assert_eq!(m.executable, "reco");
        assert_eq!(m.queue, "q_short");
        assert_eq!(m.nodes, 8);

        let rec = ParagonRecord {
            account: "cms".into(),
            login: "alice".into(),
            partition: "compute".into(),
            nodes: 4,
            job_type: JobType::Batch,
            success: true,
            requested_cpu_hours: 1.0,
            queue: "q_long".into(),
            charge_cpu_rate: 1.0,
            charge_idle_rate: 0.1,
            submitted: SimTime::ZERO,
            started: SimTime::ZERO,
            completed: SimTime::from_secs(100),
        };
        let m = TaskMeta::from_record(&rec);
        assert_eq!(m.login, "alice");
        assert_eq!(m.executable, "cms", "account is the application proxy");
    }

    #[test]
    #[should_panic(expected = "at least one template")]
    fn empty_hierarchy_rejected() {
        TemplateHierarchy::new(vec![]);
    }
}
