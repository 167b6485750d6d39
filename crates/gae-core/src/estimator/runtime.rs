//! History-based runtime estimation (§6.1).
//!
//! "To estimate the runtime, we identify similar tasks in the history
//! and then compute a statistical estimate (the mean and linear
//! regression) of their runtimes. We use this as the predicted
//! runtime."
//!
//! Similar tasks come from a [`TemplateHierarchy`]; the statistical
//! estimate is either the sample mean, an ordinary-least-squares
//! trend over the insertion sequence extrapolated one step (captures
//! drift, e.g. a user's input files growing), or a hybrid that picks
//! the trend only when it explains the data markedly better than the
//! mean — the configuration used for Figure 5.

use crate::estimator::history::HistoryStore;
use gae_hist::{ColumnPredicate, HistStore, Moments};
use gae_trace::{Feature, SimilarityTemplate, TaskMeta, TemplateHierarchy};
use gae_types::{GaeError, GaeResult, SimDuration, SiteId};

/// Which statistical estimate to apply to the similar-task runtimes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EstimationMethod {
    /// Sample mean of similar runtimes.
    Mean,
    /// OLS trend over insertion sequence, extrapolated one step.
    Regression,
    /// Regression when R² ≥ 0.5 and ≥ 4 samples, else mean — the
    /// paper's "mean and linear regression" combination.
    #[default]
    Hybrid,
}

/// A produced estimate, with provenance for diagnostics and the
/// Figure 5 harness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuntimeEstimate {
    /// The predicted runtime on a free CPU.
    pub runtime: SimDuration,
    /// Which template tier matched (0 = most specific).
    pub template_tier: usize,
    /// How many similar tasks contributed.
    pub samples: usize,
    /// True if the regression path produced the number.
    pub used_regression: bool,
    /// Sample standard deviation of the similar runtimes, in seconds
    /// (0 for a single sample). Smith/Taylor/Foster report this as
    /// the prediction's confidence measure; advanced users read it
    /// before trusting a steering decision.
    pub std_dev_s: f64,
    /// Set when the estimate is weaker than its fields suggest.
    pub note: Option<EstimateNote>,
}

/// Why an estimate was degraded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EstimateNote {
    /// The similar tasks' second-order sums exceeded the `Moments`
    /// headroom (> 2³² samples or runtimes > 2⁴⁰ µs): the runtime is
    /// the exact mean, the trend was not consulted and `std_dev_s`
    /// reads 0.
    MomentsSaturated,
}

impl RuntimeEstimate {
    /// A ±1σ interval around the prediction, clamped at zero.
    pub fn interval(&self) -> (SimDuration, SimDuration) {
        let mid = self.runtime.as_secs_f64();
        (
            SimDuration::from_secs_f64((mid - self.std_dev_s).max(0.0)),
            SimDuration::from_secs_f64(mid + self.std_dev_s),
        )
    }

    /// Coefficient of variation of the similar runtimes (σ / mean of
    /// the prediction); a rough "how much should I trust this".
    pub fn relative_spread(&self) -> f64 {
        let mid = self.runtime.as_secs_f64();
        if mid > 0.0 {
            self.std_dev_s / mid
        } else {
            0.0
        }
    }
}

/// The per-site runtime estimator.
pub struct RuntimeEstimator {
    history: HistoryStore,
    hierarchy: TemplateHierarchy,
    method: EstimationMethod,
    /// Minimum similar tasks before a template tier is accepted.
    min_matches: usize,
}

impl RuntimeEstimator {
    /// Builds an estimator with the paper's defaults: Paragon
    /// template hierarchy, hybrid mean/regression, 2-sample minimum.
    pub fn new(history: HistoryStore) -> Self {
        RuntimeEstimator {
            history,
            hierarchy: TemplateHierarchy::paragon_default(),
            method: EstimationMethod::default(),
            min_matches: 2,
        }
    }

    /// Overrides the statistical method (ablation benches).
    pub fn with_method(mut self, method: EstimationMethod) -> Self {
        self.method = method;
        self
    }

    /// Overrides the template hierarchy (ablation benches).
    pub fn with_hierarchy(mut self, hierarchy: TemplateHierarchy) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// The backing history store (to record new observations).
    pub fn history(&self) -> &HistoryStore {
        &self.history
    }

    /// Predicts the runtime of a task described by `meta` from the
    /// legacy per-site ring.
    pub fn estimate(&self, meta: &TaskMeta) -> GaeResult<RuntimeEstimate> {
        let snapshot = self.history.snapshot();
        if snapshot.is_empty() {
            return Err(GaeError::Estimator("history is empty".into()));
        }
        self.estimate_by_tier(meta, |tpl| {
            Ok(Moments::from_points(
                snapshot
                    .iter()
                    .filter(|(m, _)| tpl.matches(meta, m))
                    .map(|(_, (rt, seq))| (*seq, rt.as_micros())),
            ))
        })
    }

    /// Predicts from the columnar history store by scanning it: each
    /// template tier is one predicate-pushdown scan (`site`, `success`,
    /// plus an equality per feature) folded into [`Moments`]. This is
    /// the analytics-side path and the differential oracle of
    /// [`RuntimeEstimator::estimate_from_views`]; the two differ only in
    /// where the moments come from.
    pub fn estimate_columnar(
        &self,
        store: &HistStore,
        site: SiteId,
        meta: &TaskMeta,
    ) -> GaeResult<RuntimeEstimate> {
        if store.site_successes(site.raw()) == 0 {
            return Err(GaeError::Estimator("history is empty".into()));
        }
        self.estimate_by_tier(meta, |tpl| {
            let mut preds = vec![
                ColumnPredicate::eq_num("site", site.raw()),
                ColumnPredicate::eq_num("success", 1),
            ];
            preds.extend(feature_predicates(tpl, meta));
            Ok(Moments::from_points(store.runtime_points(&preds)?))
        })
    }

    /// Predicts from the store's runtime views: each template tier is
    /// one [`HistStore::runtime_moments`] hash probe, so the cost is
    /// O(tiers) whatever the history size. Bit-identical to
    /// [`RuntimeEstimator::estimate_columnar`] by construction — the
    /// moments are exact integers either way.
    pub fn estimate_from_views(
        &self,
        store: &HistStore,
        site: SiteId,
        meta: &TaskMeta,
    ) -> GaeResult<RuntimeEstimate> {
        if store.site_successes(site.raw()) == 0 {
            return Err(GaeError::Estimator("history is empty".into()));
        }
        self.estimate_by_tier(meta, |tpl| {
            store.runtime_moments(site.raw(), &feature_predicates(tpl, meta))
        })
    }

    /// The one tier-selection loop: asks `moments_of` for each template
    /// in order and stops at the first with at least `min_matches`
    /// similar tasks, falling back to the last template's matches.
    fn estimate_by_tier(
        &self,
        meta: &TaskMeta,
        mut moments_of: impl FnMut(&SimilarityTemplate) -> GaeResult<Moments>,
    ) -> GaeResult<RuntimeEstimate> {
        let mut chosen = None;
        for (tier, tpl) in self.hierarchy.templates().iter().enumerate() {
            let moments = moments_of(tpl)?;
            let enough = moments.n >= self.min_matches.max(1) as u64;
            chosen = Some((tier, moments));
            if enough {
                break;
            }
        }
        // `TemplateHierarchy::new` refuses an empty template list, so
        // `chosen` is `None` only if that constructor is bypassed.
        let (tier, moments) =
            chosen.ok_or_else(|| GaeError::Estimator("template hierarchy is empty".into()))?;
        if moments.n == 0 {
            return Err(GaeError::Estimator(format!(
                "no similar task in history for login {:?}",
                meta.login
            )));
        }
        Ok(self.estimate_from_moments(tier, &moments))
    }

    /// The one statistical tail: mean / OLS / hybrid and the sample σ
    /// from exact integer moments (`t` = insertion sequence, `y` =
    /// runtime in µs). Numerators are exact; each statistic rounds once
    /// on its way to `f64`. `m.n` must be ≥ 1.
    fn estimate_from_moments(&self, tier: usize, m: &Moments) -> RuntimeEstimate {
        let n = m.n as f64;
        let mean_us = m.sum_y as f64 / n;
        // Past the `Moments` headroom only n and Σy are trustworthy.
        let (fit, variance_us2, note) = if m.saturated {
            (None, 0.0, Some(EstimateNote::MomentsSaturated))
        } else {
            let syy = m.scaled_syy();
            let variance = if m.n > 1 { syy / (n * (n - 1.0)) } else { 0.0 };
            (regression_quality(m, syy), variance, None)
        };
        let (prediction_us, used_regression) = match (self.method, fit) {
            (EstimationMethod::Regression, Some((forecast, _))) => (forecast, true),
            (EstimationMethod::Hybrid, Some((forecast, r2))) if m.n >= 4 && r2 >= 0.5 => {
                (forecast, true)
            }
            _ => (mean_us, false),
        };
        // Runtimes are positive; a wild negative extrapolation falls
        // back to the mean.
        let prediction_us = if prediction_us > 0.0 {
            prediction_us
        } else {
            mean_us.max(1.0)
        };
        RuntimeEstimate {
            runtime: SimDuration::from_micros(prediction_us.round() as u64),
            template_tier: tier,
            samples: m.n as usize,
            used_regression,
            std_dev_s: variance_us2.sqrt() / 1e6,
            note,
        }
    }
}

/// A template's features as columnar equality predicates.
fn feature_predicates(tpl: &SimilarityTemplate, meta: &TaskMeta) -> Vec<ColumnPredicate> {
    tpl.features()
        .iter()
        .map(|feature| match feature {
            Feature::Account => ColumnPredicate::eq_str("account", &meta.account),
            Feature::Login => ColumnPredicate::eq_str("login", &meta.login),
            Feature::Executable => ColumnPredicate::eq_str("executable", &meta.executable),
            Feature::Queue => ColumnPredicate::eq_str("queue", &meta.queue),
            Feature::Partition => ColumnPredicate::eq_str("partition", &meta.partition),
            Feature::Nodes => ColumnPredicate::eq_num("nodes", meta.nodes as u64),
            Feature::JobType => ColumnPredicate::eq_str("job_type", &meta.job_type.to_string()),
        })
        .collect()
}

/// OLS forecast at `t = max t + 1` (µs) plus R², given `m` and its
/// `scaled_syy`. `None` with fewer than 2 points or zero variance in
/// `t`.
fn regression_quality(m: &Moments, syy: f64) -> Option<(f64, f64)> {
    if m.n < 2 {
        return None;
    }
    let n = m.n as f64;
    let (sxx, sxy) = (m.scaled_sxx(), m.scaled_sxy());
    if sxx == 0.0 {
        return None;
    }
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    // mean_y + slope · (max t + 1 − mean_t), every factor's numerator
    // exact.
    let forecast = m.sum_y as f64 / n + (sxy / sxx) * (m.scaled_forecast_offset() / n);
    Some((forecast, r2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_trace::WorkloadModel;
    use gae_types::JobType;

    fn meta(login: &str, queue: &str, nodes: u32) -> TaskMeta {
        TaskMeta {
            account: "a".into(),
            login: login.into(),
            executable: "x".into(),
            queue: queue.into(),
            partition: "p".into(),
            nodes,
            job_type: JobType::Batch,
        }
    }

    fn estimator_with(entries: &[(&str, u64)]) -> RuntimeEstimator {
        let h = HistoryStore::new(1000);
        for (login, rt) in entries {
            h.observe(meta(login, "q", 1), SimDuration::from_secs(*rt));
        }
        RuntimeEstimator::new(h)
    }

    #[test]
    fn empty_history_is_error() {
        let est = RuntimeEstimator::new(HistoryStore::new(10));
        assert!(matches!(
            est.estimate(&meta("a", "q", 1)),
            Err(GaeError::Estimator(_))
        ));
    }

    #[test]
    fn mean_of_similar_tasks() {
        let est = estimator_with(&[("alice", 100), ("alice", 120), ("bob", 9000)])
            .with_method(EstimationMethod::Mean);
        let e = est.estimate(&meta("alice", "q", 1)).unwrap();
        assert_eq!(e.runtime, SimDuration::from_secs(110));
        assert_eq!(e.samples, 2);
        assert_eq!(e.template_tier, 0);
        assert!(!e.used_regression);
    }

    #[test]
    fn falls_back_to_coarser_template() {
        let est =
            estimator_with(&[("bob", 100), ("carol", 200)]).with_method(EstimationMethod::Mean);
        // No history for dave: queue-level template matches both.
        let e = est.estimate(&meta("dave", "q", 1)).unwrap();
        assert_eq!(e.runtime, SimDuration::from_secs(150));
        assert!(e.template_tier > 0);
    }

    #[test]
    fn regression_tracks_trend() {
        // Runtimes growing 100, 200, 300, 400 -> forecast 500.
        let est = estimator_with(&[("a", 100), ("a", 200), ("a", 300), ("a", 400)])
            .with_method(EstimationMethod::Regression);
        let e = est.estimate(&meta("a", "q", 1)).unwrap();
        assert!(e.used_regression);
        let secs = e.runtime.as_secs_f64();
        assert!((secs - 500.0).abs() < 1e-6, "forecast {secs}");
    }

    #[test]
    fn hybrid_uses_mean_for_noise() {
        // No trend: hybrid must not regress.
        let est = estimator_with(&[("a", 100), ("a", 140), ("a", 100), ("a", 140)]);
        let e = est.estimate(&meta("a", "q", 1)).unwrap();
        assert!(!e.used_regression);
        assert_eq!(e.runtime, SimDuration::from_secs(120));
    }

    #[test]
    fn hybrid_uses_regression_for_strong_trend() {
        let est = estimator_with(&[("a", 100), ("a", 200), ("a", 300), ("a", 400)]);
        let e = est.estimate(&meta("a", "q", 1)).unwrap();
        assert!(e.used_regression);
    }

    #[test]
    fn confidence_interval_reflects_spread() {
        let est = estimator_with(&[("a", 100), ("a", 140)]).with_method(EstimationMethod::Mean);
        let e = est.estimate(&meta("a", "q", 1)).unwrap();
        assert_eq!(e.runtime, SimDuration::from_secs(120));
        // Sample stddev of {100, 140} is ~28.28.
        assert!((e.std_dev_s - 28.28).abs() < 0.1, "σ {}", e.std_dev_s);
        let (lo, hi) = e.interval();
        assert!(lo < e.runtime && e.runtime < hi);
        assert!((e.relative_spread() - 28.28 / 120.0).abs() < 0.01);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let est = estimator_with(&[("solo", 300)]);
        let e = est.estimate(&meta("solo", "q", 1)).unwrap();
        assert_eq!(e.std_dev_s, 0.0);
        let (lo, hi) = e.interval();
        assert_eq!(lo, hi);
    }

    #[test]
    fn negative_extrapolation_falls_back() {
        // Sharply decreasing trend would forecast below zero.
        let est = estimator_with(&[("a", 400), ("a", 200), ("a", 50), ("a", 1)])
            .with_method(EstimationMethod::Regression);
        let e = est.estimate(&meta("a", "q", 1)).unwrap();
        assert!(e.runtime > SimDuration::ZERO);
    }

    #[test]
    fn single_sample_regression_degrades_to_mean() {
        let est = estimator_with(&[("solo", 300)]).with_method(EstimationMethod::Regression);
        // Template tier with one match is below min_matches, falls
        // through; ultimately the last template matches it alone.
        let e = est.estimate(&meta("solo", "q", 1)).unwrap();
        assert_eq!(e.runtime, SimDuration::from_secs(300));
    }

    /// The one-tail contract: the ring, the scan and the runtime views
    /// feed the same exact moments to the same statistics, so the three
    /// paths return bit-identical estimates — every field — and the
    /// same error messages, for all three methods.
    #[test]
    fn columnar_estimates_are_bit_identical_to_legacy() {
        use gae_hist::{HistConfig, HistOp, HistRecord, HistStore};

        let entries: &[(&str, u64)] = &[
            ("alice", 100),
            ("alice", 123),
            ("bob", 9000),
            ("alice", 140),
            ("carol", 77),
            ("alice", 161),
        ];
        let store = HistStore::new(HistConfig { segment_rows: 2 });
        for (i, (login, rt)) in entries.iter().enumerate() {
            store.apply(&HistOp::Append(HistRecord {
                task: i as u64,
                site: 1,
                nodes: 1,
                submit_us: 0,
                start_us: 0,
                finish_us: 0,
                runtime_us: rt * 1_000_000 + i as u64,
                success: true,
                account: "a".into(),
                login: (*login).into(),
                executable: "x".into(),
                queue: "q".into(),
                partition: "p".into(),
                job_type: "batch".into(),
            }));
        }
        let site = SiteId::new(1);
        for method in [
            EstimationMethod::Mean,
            EstimationMethod::Regression,
            EstimationMethod::Hybrid,
        ] {
            let legacy = HistoryStore::new(1000);
            for (i, (login, rt)) in entries.iter().enumerate() {
                legacy.observe(
                    meta(login, "q", 1),
                    SimDuration::from_micros(rt * 1_000_000 + i as u64),
                );
            }
            let est = RuntimeEstimator::new(legacy).with_method(method);
            for target in ["alice", "bob", "dave"] {
                let m = meta(target, "q", 1);
                let ring = est.estimate(&m).unwrap();
                let scan = est.estimate_columnar(&store, site, &m).unwrap();
                let view = est.estimate_from_views(&store, site, &m).unwrap();
                for other in [scan, view] {
                    assert_eq!(ring.runtime, other.runtime, "{target} {method:?}");
                    assert_eq!(ring.template_tier, other.template_tier, "{target}");
                    assert_eq!(ring.samples, other.samples, "{target}");
                    assert_eq!(ring.used_regression, other.used_regression, "{target}");
                    assert_eq!(
                        ring.std_dev_s.to_bits(),
                        other.std_dev_s.to_bits(),
                        "{target} {method:?}"
                    );
                    assert_eq!(ring.note, other.note, "{target}");
                }
            }
        }
        // Error parity: empty store and empty site both say what the
        // legacy path says, on the scan and on the view path.
        let est = RuntimeEstimator::new(HistoryStore::new(10));
        let ring_err = est.estimate(&meta("alice", "q", 1)).unwrap_err();
        let empty = HistStore::new(HistConfig::default());
        for (s, at) in [(&empty, site), (&store, SiteId::new(9))] {
            let m = meta("alice", "q", 1);
            let scan_err = est.estimate_columnar(s, at, &m).unwrap_err();
            let view_err = est.estimate_from_views(s, at, &m).unwrap_err();
            assert!(
                scan_err.to_string().contains("history is empty"),
                "{scan_err}"
            );
            assert_eq!(scan_err.to_string(), ring_err.to_string());
            assert_eq!(view_err.to_string(), ring_err.to_string());
        }
    }

    /// The `Moments` headroom (n ≤ 2³², y ≤ 2⁴⁰ µs) is a documented
    /// bound, not a cliff: at the bound every statistic is still
    /// computed; past it the estimate degrades to the exact mean with
    /// a typed note — no panic, no wrapped sum.
    #[test]
    fn moments_at_and_past_the_headroom_bound() {
        let est = RuntimeEstimator::new(HistoryStore::new(1)).with_method(EstimationMethod::Hybrid);
        // 2³² points at t = 0..n, half of them 2⁴⁰ µs and half 2⁴⁰ − 2
        // (alternating, so no trend): every sum in closed form.
        let n: u128 = 1 << 32;
        let (hi, lo): (u128, u128) = (1 << 40, (1 << 40) - 2);
        let sum_t = n * (n - 1) / 2;
        let at_bound = Moments {
            n: n as u64,
            sum_y: n / 2 * (hi + lo),
            sum_yy: n / 2 * (hi * hi + lo * lo),
            sum_t,
            sum_tt: (n - 1) * n * (2 * n - 1) / 6,
            // Even t carry `hi`, odd t carry `lo`; Σ even t = Σt − n/2 …
            sum_ty: hi * ((sum_t - n / 2) / 2) + lo * ((sum_t + n / 2) / 2),
            max_t: (n - 1) as u64,
            saturated: false,
        };
        let e = est.estimate_from_moments(0, &at_bound);
        assert_eq!(e.note, None);
        assert_eq!(e.samples, 1 << 32);
        assert_eq!(e.runtime, SimDuration::from_micros((1 << 40) - 1));
        assert!(!e.used_regression, "alternating runtimes have no trend");
        // Sample σ of ±1 µs around the mean: 1 µs · sqrt(n / (n − 1)).
        assert!((e.std_dev_s - 1e-6).abs() < 1e-12, "σ {}", e.std_dev_s);

        // One more sample than any u128 can square-sum: saturated.
        let mut past = Moments {
            sum_yy: u128::MAX - 1,
            ..at_bound
        };
        past.push(1 << 32, (1 << 40) - 1);
        assert!(past.saturated);
        let e = est.estimate_from_moments(0, &past);
        assert_eq!(e.note, Some(EstimateNote::MomentsSaturated));
        assert_eq!(e.runtime, SimDuration::from_micros((1 << 40) - 1));
        assert!(!e.used_regression);
        assert_eq!(e.std_dev_s, 0.0);
        // Regression-only degrades the same way.
        let reg = RuntimeEstimator::new(HistoryStore::new(1))
            .with_method(EstimationMethod::Regression)
            .estimate_from_moments(0, &past);
        assert_eq!((reg.runtime, reg.used_regression), (e.runtime, false));
    }

    /// The headline property behind Figure 5: on a Downey-style
    /// workload with a 100-job history, mean error over 20 probes is
    /// in the paper's ballpark (they report 13.53 %).
    #[test]
    fn figure5_mean_error_in_range() {
        let model = WorkloadModel::default();
        let (history_recs, probes) = model.figure5_split(2005);
        let h = HistoryStore::new(1000);
        h.load_trace(&history_recs);
        let est = RuntimeEstimator::new(h);
        let mut errors = Vec::new();
        for probe in probes.iter().filter(|p| p.success) {
            let actual = probe.runtime().as_secs_f64();
            let predicted = est
                .estimate(&TaskMeta::from_record(probe))
                .unwrap()
                .runtime
                .as_secs_f64();
            errors.push(((actual - predicted) / actual * 100.0).abs());
        }
        let mean_error = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(
            mean_error < 35.0,
            "mean error {mean_error:.2}% far outside the paper's regime"
        );
    }
}
