//! Batch evaluation: run a set of registered models over a set of
//! cascades and emit per-model Eq.-8 accuracy tables in one call.
//!
//! [`EvaluationCase`] packages one cascade's observed [`DensityMatrix`]
//! (behind a shared [`Arc`], so big batch runs never deep-copy matrices)
//! with the evaluation protocol: which hours predictors may observe,
//! which hours they must predict, and the optional graph context for
//! epidemic models. [`EvaluationPipeline::run`] fits every
//! [`ModelSpec`]-described predictor on every case through the
//! [`crate::predict::DiffusionPredictor`] interface and scores each
//! prediction with [`AccuracyTable`]; per-model failures (e.g. an
//! epidemic model on a case without graph context) are recorded in the
//! report instead of aborting the batch.
//!
//! # Parallelism and caching
//!
//! The models × cases grid is embarrassingly parallel, and the pipeline
//! exploits that in two layers:
//!
//! * **Pooled fan-out** — fit and score jobs run on the persistent
//!   executor in [`dlm_numerics::pool`], controlled by a
//!   [`Parallelism`] knob ([`Parallelism::Serial`],
//!   [`Parallelism::Auto`] — the default — or
//!   [`Parallelism::Fixed`]`(n)`). Every job is pure and results are
//!   reassembled in grid order, so the report is **byte-identical**
//!   across all settings; only wall-clock changes.
//! * **Fitted-model cache** — fits are deduplicated by
//!   `(spec, predictor.fit_key(observation))`: the canonical spec string
//!   plus the [`crate::predict::ObservationKey`] of what the predictor's
//!   fit reads ([`crate::predict::DiffusionPredictor::fit_key`] — the
//!   whole observation by default, φ's hour and profile alone for `dl`
//!   and `logistic`). Repeated specs over identical observation windows
//!   (e.g. a horizon sweep where several forecast cases share the same
//!   observed hours), and `dl`/`logistic` over any windows that share
//!   their first hour, fit once. The cache persists across
//!   [`EvaluationPipeline::run`] calls, so re-running a lineup is pure
//!   cache replay. The cache is a
//!   **bounded LRU** ([`FittedModelCache`], built on
//!   [`crate::cache::LruCache`]): long-lived services keep fitting new
//!   observations without growing memory without limit, and evictions
//!   are counted. Per-run hit/miss/eviction counters are reported on
//!   [`EvaluationReport::cache_stats`]. Hit/miss planning happens
//!   before any job runs, which keeps the counters — like the outcomes
//!   — independent of thread scheduling.
//!
//! The cache is also usable on its own: `dlm-serve`'s online forecaster
//! shares the same [`FittedModelCache`] type (and therefore the same
//! keying and bounding discipline) through
//! [`FittedModelCache::lookup`] and [`FittedModelCache::fit_miss`].

use crate::accuracy::AccuracyTable;
pub use crate::cache::CacheStats;
use crate::cache::LruCache;
use crate::error::{DlError, Result};
use crate::predict::{
    DiffusionPredictor, FittedPredictor, GraphContext, Observation, ObservationKey,
    PredictionRequest,
};
use crate::registry::{ModelRegistry, ModelSpec};
use dlm_cascade::DensityMatrix;
use dlm_numerics::pool::parallel_map;
pub use dlm_numerics::pool::Parallelism;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One cascade plus its evaluation protocol.
///
/// The density matrix is held behind an [`Arc`]: cloning a case, or
/// building several windows over the same cascade, shares one matrix
/// allocation. Constructors accept either a bare [`DensityMatrix`] (via
/// `Into<Arc<_>>`) or an already-shared handle.
#[derive(Debug, Clone)]
pub struct EvaluationCase {
    name: String,
    matrix: Arc<DensityMatrix>,
    initial_hour: u32,
    observe_through: u32,
    last_hour: u32,
    /// Hours scored on: `initial_hour + 1 ..= last_hour`, precomputed so
    /// per-worker protocol queries never allocate.
    target_hours: Vec<u32>,
    /// Distances scored on: `1 ..= matrix.max_distance()`, precomputed.
    distances: Vec<u32>,
    graph: Option<GraphContext>,
}

impl EvaluationCase {
    /// Creates a case where predictors may observe the full evaluation
    /// window `initial_hour..=last_hour` while being scored on
    /// `initial_hour+1..=last_hour` — the protocol methodologically
    /// equivalent to the paper's hand tuning, which also saw the full
    /// window.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for an empty window or hours
    /// beyond the matrix.
    pub fn new(
        name: impl Into<String>,
        matrix: impl Into<Arc<DensityMatrix>>,
        initial_hour: u32,
        last_hour: u32,
    ) -> Result<Self> {
        Self::forecast(name, matrix, initial_hour, last_hour, last_hour)
    }

    /// Creates a strict forecasting case: predictors observe only
    /// `initial_hour..=observe_through` and are scored on
    /// `initial_hour+1..=last_hour`.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for inconsistent hours.
    pub fn forecast(
        name: impl Into<String>,
        matrix: impl Into<Arc<DensityMatrix>>,
        initial_hour: u32,
        observe_through: u32,
        last_hour: u32,
    ) -> Result<Self> {
        let matrix = matrix.into();
        if initial_hour == 0
            || initial_hour >= last_hour
            || observe_through < initial_hour
            || observe_through > last_hour
            || last_hour > matrix.max_hour()
        {
            return Err(DlError::InvalidParameter {
                name: "hours",
                reason: format!(
                    "need 1 <= initial ({initial_hour}) < last ({last_hour}) <= max observed \
                     ({}) and initial <= observe_through ({observe_through}) <= last",
                    matrix.max_hour()
                ),
            });
        }
        let target_hours = (initial_hour + 1..=last_hour).collect();
        let distances = (1..=matrix.max_distance()).collect();
        Ok(Self {
            name: name.into(),
            matrix,
            initial_hour,
            observe_through,
            last_hour,
            target_hours,
            distances,
            graph: None,
        })
    }

    /// The paper's protocol: observe hour 1 onward, predict hours 2–6.
    ///
    /// # Errors
    ///
    /// Requires the matrix to span at least 6 hours.
    pub fn paper_protocol(
        name: impl Into<String>,
        matrix: impl Into<Arc<DensityMatrix>>,
    ) -> Result<Self> {
        Self::new(name, matrix, 1, 6)
    }

    /// Attaches the follower-graph context for epidemic predictors.
    #[must_use]
    pub fn with_graph(mut self, graph: GraphContext) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The case label used in reports.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First observed hour (φ's hour).
    #[must_use]
    pub fn initial_hour(&self) -> u32 {
        self.initial_hour
    }

    /// Last hour predictors may observe.
    #[must_use]
    pub fn observe_through(&self) -> u32 {
        self.observe_through
    }

    /// Last hour the case scores predictions on.
    #[must_use]
    pub fn last_hour(&self) -> u32 {
        self.last_hour
    }

    /// The observed density matrix.
    #[must_use]
    pub fn matrix(&self) -> &DensityMatrix {
        &self.matrix
    }

    /// A shared handle to the observed density matrix — hand this to
    /// further cases over the same cascade to avoid deep copies.
    #[must_use]
    pub fn matrix_arc(&self) -> Arc<DensityMatrix> {
        Arc::clone(&self.matrix)
    }

    /// Hours the case scores predictions on.
    #[must_use]
    pub fn target_hours(&self) -> &[u32] {
        &self.target_hours
    }

    /// Distances the case scores predictions on.
    #[must_use]
    pub fn distances(&self) -> &[u32] {
        &self.distances
    }

    /// The observation exposed to predictors.
    ///
    /// # Errors
    ///
    /// Propagates matrix access errors.
    pub fn observation(&self) -> Result<Observation> {
        let hours: Vec<u32> = (self.initial_hour..=self.observe_through).collect();
        let observation = Observation::from_matrix(&self.matrix, &hours)?;
        Ok(match &self.graph {
            Some(ctx) => observation.with_graph(ctx.clone()),
            None => observation,
        })
    }
}

/// The outcome of one model on one case.
///
/// Equality is **bit-level** on every floating-point value (parameters
/// and accuracy cells compare via `to_bits`), so two outcomes computed
/// by byte-identical runs compare equal even when a pathological fit
/// produces `NaN` — which derived `f64` equality would report as a
/// spurious difference. This is what lets the determinism gates compare
/// whole reports honestly.
#[derive(Debug, Clone)]
pub struct EvaluationOutcome {
    /// The model's spec string.
    pub spec: String,
    /// The case label.
    pub case: String,
    /// The Eq.-8 accuracy table, when the model ran.
    pub table: Option<AccuracyTable>,
    /// Fitted parameter names, parallel to `params`.
    pub param_names: Vec<String>,
    /// Fitted parameter values.
    pub params: Vec<f64>,
    /// The failure message, when the model could not fit or predict.
    pub error: Option<String>,
}

impl EvaluationOutcome {
    /// Overall mean accuracy across defined cells, if the model ran.
    #[must_use]
    pub fn overall(&self) -> Option<f64> {
        self.table.as_ref().and_then(AccuracyTable::overall_average)
    }
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn table_bits_eq(a: &AccuracyTable, b: &AccuracyTable) -> bool {
    a.distances() == b.distances()
        && a.hours() == b.hours()
        && a.distances().iter().all(|&d| {
            a.hours()
                .iter()
                .all(|&h| match (a.cell(d, h), b.cell(d, h)) {
                    (None, None) => true,
                    (Some(x), Some(y)) => bits_eq(x, y),
                    _ => false,
                })
        })
}

impl PartialEq for EvaluationOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.case == other.case
            && self.error == other.error
            && self.param_names == other.param_names
            && self.params.len() == other.params.len()
            && self
                .params
                .iter()
                .zip(&other.params)
                .all(|(&a, &b)| bits_eq(a, b))
            && match (&self.table, &other.table) {
                (None, None) => true,
                (Some(a), Some(b)) => table_bits_eq(a, b),
                _ => false,
            }
    }
}

/// The full per-model × per-case accuracy report.
///
/// Equality compares the evaluated grid — specs, cases, and every
/// outcome — but **not** [`EvaluationReport::cache_stats`], which
/// describe how the run executed rather than what it computed (a warm
/// re-run produces an equal report with different counters).
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    specs: Vec<String>,
    cases: Vec<String>,
    /// outcomes[model_idx * cases.len() + case_idx]
    outcomes: Vec<EvaluationOutcome>,
    cache: CacheStats,
}

impl PartialEq for EvaluationReport {
    fn eq(&self, other: &Self) -> bool {
        self.specs == other.specs && self.cases == other.cases && self.outcomes == other.outcomes
    }
}

impl EvaluationReport {
    /// Spec strings of the evaluated models, in run order.
    #[must_use]
    pub fn specs(&self) -> &[String] {
        &self.specs
    }

    /// Labels of the evaluated cases, in run order.
    #[must_use]
    pub fn cases(&self) -> &[String] {
        &self.cases
    }

    /// All outcomes, model-major.
    #[must_use]
    pub fn outcomes(&self) -> &[EvaluationOutcome] {
        &self.outcomes
    }

    /// Fitted-model cache counters for the run that produced this
    /// report.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }

    /// The outcome of one model on one case.
    #[must_use]
    pub fn outcome(&self, model_idx: usize, case_idx: usize) -> Option<&EvaluationOutcome> {
        if model_idx >= self.specs.len() || case_idx >= self.cases.len() {
            return None;
        }
        self.outcomes.get(model_idx * self.cases.len() + case_idx)
    }

    /// Mean overall accuracy of one model across the cases where it ran.
    #[must_use]
    pub fn mean_overall(&self, model_idx: usize) -> Option<f64> {
        let values: Vec<f64> = (0..self.cases.len())
            .filter_map(|c| {
                self.outcome(model_idx, c)
                    .and_then(EvaluationOutcome::overall)
            })
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Models ranked by mean overall accuracy, best first; models that
    /// never ran sort last.
    #[must_use]
    pub fn ranking(&self) -> Vec<(String, Option<f64>)> {
        let mut rows: Vec<(String, Option<f64>)> = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), self.mean_overall(i)))
            .collect();
        rows.sort_by(|a, b| {
            b.1.unwrap_or(f64::NEG_INFINITY)
                .total_cmp(&a.1.unwrap_or(f64::NEG_INFINITY))
        });
        rows
    }
}

impl fmt::Display for EvaluationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .specs
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(5)
            .max("model".len())
            + 2;
        write!(f, "{:<width$}", "model")?;
        for case in &self.cases {
            write!(f, "{case:>12}")?;
        }
        writeln!(f, "{:>12}", "mean")?;
        for (mi, spec) in self.specs.iter().enumerate() {
            write!(f, "{spec:<width$}")?;
            for ci in 0..self.cases.len() {
                match self.outcome(mi, ci) {
                    Some(o) if o.error.is_some() => write!(f, "{:>12}", "err")?,
                    Some(o) => match o.overall() {
                        Some(a) => write!(f, "{:>11.2}%", a * 100.0)?,
                        None => write!(f, "{:>12}", "-")?,
                    },
                    None => write!(f, "{:>12}", "-")?,
                }
            }
            match self.mean_overall(mi) {
                Some(a) => writeln!(f, "{:>11.2}%", a * 100.0)?,
                None => writeln!(f, "{:>12}", "-")?,
            }
        }
        Ok(())
    }
}

/// The fitted-model cache key: canonical spec string plus the
/// predictor's [`DiffusionPredictor::fit_key`] of the observation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FitKey {
    spec: String,
    observation: ObservationKey,
}

impl FitKey {
    /// The one keying rule of every fit cache lookup: `spec` must be the
    /// canonical spec string of `predictor`.
    fn new(spec: &str, predictor: &dyn DiffusionPredictor, observation: &Observation) -> Self {
        Self {
            spec: spec.to_owned(),
            observation: predictor.fit_key(observation),
        }
    }
}

/// A cached fit outcome: the fitted model, or the failure message the
/// fit produced. Failed fits are cached too, so a spec that rejects an
/// observation (e.g. an epidemic without graph context) fails once per
/// (spec, observation), not once per request.
pub type FitOutcome = std::result::Result<Arc<dyn FittedPredictor>, String>;

/// The capacity-bounded fitted-model cache: (canonical spec string,
/// `predictor.fit_key(observation)`) → [`FitOutcome`], with LRU
/// eviction.
///
/// The observation half of the key is
/// [`DiffusionPredictor::fit_key`]: the whole observation by default,
/// only φ's hour and profile for `dl` and `logistic`, whose fits read
/// nothing else — so a cascade's fits of those two through every later
/// hour are one cache entry.
///
/// [`EvaluationPipeline`] keeps one internally (size it with
/// [`EvaluationPipeline::cache_capacity`]); long-lived consumers like
/// the `dlm-serve` online forecaster hold their own and drive it through
/// [`FittedModelCache::lookup`] and [`FittedModelCache::fit_miss`].
/// Counters returned by [`FittedModelCache::stats`] accumulate over the
/// cache's lifetime — the per-run view lives on
/// [`EvaluationReport::cache_stats`].
#[derive(Debug)]
pub struct FittedModelCache {
    inner: LruCache<FitKey, FitOutcome>,
}

impl Default for FittedModelCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl FittedModelCache {
    /// The default bound: generous enough that batch evaluations never
    /// thrash, small enough to cap a long-lived service's memory.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a cache bounded to `capacity` fitted models (`0` is
    /// treated as `1`).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: LruCache::new(capacity),
        }
    }

    /// The maximum number of resident fits.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Number of resident fits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds no fits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Drops every resident fit (counters survive).
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// Lifetime hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Looks up the fit for (`spec`, `observation`), counting one hit or
    /// one miss. `spec` must be the canonical spec string of `predictor`
    /// (i.e. [`ModelSpec`]'s `Display`), or unrelated fits would alias.
    ///
    /// A miss is resolved by [`FittedModelCache::fit_miss`], on this
    /// thread or another: the online forecaster looks up a request's
    /// every fit on the calling thread, then runs only the expensive
    /// misses elsewhere.
    pub fn lookup(
        &self,
        predictor: &dyn DiffusionPredictor,
        spec: &str,
        observation: &Observation,
    ) -> FitLookup {
        let key = FitKey::new(spec, predictor, observation);
        match self.inner.get(&key) {
            Some(outcome) => FitLookup::Hit(outcome),
            None => FitLookup::Miss(FitMiss { key }),
        }
    }

    /// Fits a looked-up miss and caches the outcome. `predictor` and
    /// `observation` must be the ones `miss` was looked up with.
    pub fn fit_miss(
        &self,
        miss: &FitMiss,
        predictor: &dyn DiffusionPredictor,
        observation: &Observation,
    ) -> FitOutcome {
        let outcome: FitOutcome = predictor
            .fit(observation)
            .map(Arc::from)
            .map_err(|e| e.to_string());
        self.inner.insert(miss.key.clone(), outcome.clone());
        outcome
    }
}

/// What [`FittedModelCache::lookup`] found.
#[derive(Debug)]
pub enum FitLookup {
    /// The cached outcome.
    Hit(FitOutcome),
    /// No resident fit: resolve it with [`FittedModelCache::fit_miss`].
    Miss(FitMiss),
}

/// A fit [`FittedModelCache::lookup`] did not find, keyed for
/// [`FittedModelCache::fit_miss`] to cache.
#[derive(Debug)]
pub struct FitMiss {
    key: FitKey,
}

/// Runs a set of registered models over a set of cascades.
#[derive(Debug, Default)]
pub struct EvaluationPipeline {
    registry: ModelRegistry,
    specs: Vec<ModelSpec>,
    parallelism: Parallelism,
    cache: FittedModelCache,
}

impl EvaluationPipeline {
    /// A pipeline over the built-in registry with no models selected yet.
    #[must_use]
    pub fn new() -> Self {
        Self {
            registry: ModelRegistry::with_builtins(),
            specs: Vec::new(),
            parallelism: Parallelism::default(),
            cache: FittedModelCache::default(),
        }
    }

    /// A pipeline over a custom registry.
    #[must_use]
    pub fn with_registry(registry: ModelRegistry) -> Self {
        Self {
            registry,
            ..Self::new()
        }
    }

    /// A pipeline preloaded with [`ModelSpec::default_lineup`] — the full
    /// zoo of seven predictor kinds.
    #[must_use]
    pub fn full_lineup() -> Self {
        Self::new().models(ModelSpec::default_lineup())
    }

    /// Adds one model to the line-up.
    #[must_use]
    pub fn model(mut self, spec: ModelSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds several models to the line-up.
    #[must_use]
    pub fn models(mut self, specs: impl IntoIterator<Item = ModelSpec>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Sets how [`EvaluationPipeline::run`] schedules the grid. The
    /// default is [`Parallelism::Auto`]; every setting produces a
    /// byte-identical [`EvaluationReport`].
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Rebuilds the fitted-model cache with a new capacity bound (the
    /// default is [`FittedModelCache::DEFAULT_CAPACITY`]). Resident fits
    /// and counters are discarded.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = FittedModelCache::new(capacity);
        self
    }

    /// The selected model specs.
    #[must_use]
    pub fn specs(&self) -> &[ModelSpec] {
        &self.specs
    }

    /// The pipeline's fitted-model cache (lifetime counters, capacity).
    #[must_use]
    pub fn cache(&self) -> &FittedModelCache {
        &self.cache
    }

    /// Number of fitted models currently cached across runs.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drops every cached fitted model (e.g. to bound memory between
    /// unrelated batches).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Fits and scores every selected model on every case.
    ///
    /// Fits are deduplicated against the pipeline's fitted-model cache
    /// (see the module docs), then fit and score jobs run under the
    /// configured [`Parallelism`]. Per-model fit/predict failures become
    /// [`EvaluationOutcome::error`] entries; only structural problems
    /// (no models, no cases, a spec the registry cannot construct) abort
    /// the run.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for an empty line-up or case
    /// list; propagates registry construction and observation errors.
    pub fn run(&self, cases: &[EvaluationCase]) -> Result<EvaluationReport> {
        if self.specs.is_empty() || cases.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "pipeline",
                reason: "need at least one model spec and one case".into(),
            });
        }
        let predictors = self
            .specs
            .iter()
            .map(|spec| self.registry.build(spec))
            .collect::<Result<Vec<_>>>()?;
        let spec_strings: Vec<String> = self.specs.iter().map(ToString::to_string).collect();
        // Observations and requests depend only on the case; build them
        // once instead of once per model.
        let prepared: Vec<(Observation, PredictionRequest)> = cases
            .iter()
            .map(|case| {
                Ok((
                    case.observation()?,
                    PredictionRequest::new(
                        case.distances().to_vec(),
                        case.target_hours().to_vec(),
                    )?,
                ))
            })
            .collect::<Result<_>>()?;
        // Plan fits deterministically before anything runs: one fit job
        // per unique `FitKey` — (spec, what that spec's fit reads from
        // the case) — not already cached, and a per-cell index into the
        // run-local table of resolved fits. Planning up front (rather
        // than memoizing inside workers) keeps the hit/miss counters and
        // the fit set independent of thread scheduling; resolving cache
        // hits *now* means the rest of the run never reads the shared
        // cache again, so concurrent `clear_cache` calls or LRU
        // evictions can bound memory but never yank a fit out from
        // under an in-flight run.
        let grid = self.specs.len() * cases.len();
        // (mi, ci, key index, key) per fit to run; key index per grid cell.
        let mut fit_jobs: Vec<(usize, usize, usize, FitKey)> = Vec::new();
        let mut key_of_cell: Vec<usize> = Vec::with_capacity(grid);
        // Resolved fit per unique key: cache hits fill in immediately,
        // fit jobs fill in after the fit stage.
        let mut resolved: Vec<Option<FitOutcome>> = Vec::new();
        let mut hits = 0u64;
        let evictions_before = self.cache.stats().evictions;
        {
            let mut index_of: HashMap<FitKey, usize> = HashMap::new();
            for (mi, spec) in spec_strings.iter().enumerate() {
                for (ci, (observation, _)) in prepared.iter().enumerate() {
                    let key = FitKey::new(spec, predictors[mi].as_ref(), observation);
                    let idx = match index_of.get(&key) {
                        Some(&idx) => {
                            hits += 1;
                            idx
                        }
                        None => {
                            // First time this key shows up: probe the
                            // persistent cache (probing also promotes a
                            // resident fit, keeping the grid's working
                            // set away from the LRU eviction end).
                            let idx = resolved.len();
                            match self.cache.inner.get(&key) {
                                Some(fit) => {
                                    hits += 1;
                                    resolved.push(Some(fit));
                                }
                                None => {
                                    resolved.push(None);
                                    fit_jobs.push((mi, ci, idx, key.clone()));
                                }
                            }
                            index_of.insert(key, idx);
                            idx
                        }
                    };
                    key_of_cell.push(idx);
                }
            }
        }
        let misses = fit_jobs.len() as u64;

        // Fit each unique key once, stealing-balanced.
        let fits: Vec<FitOutcome> =
            parallel_map(self.parallelism, &fit_jobs, |_, (mi, ci, _, _)| {
                predictors[*mi]
                    .fit(&prepared[*ci].0)
                    .map(Arc::from)
                    .map_err(|e| e.to_string())
            });
        for ((_, _, idx, key), fit) in fit_jobs.into_iter().zip(fits) {
            self.cache.inner.insert(key, fit.clone());
            resolved[idx] = Some(fit);
        }
        let evictions = self.cache.stats().evictions - evictions_before;

        // Score the full grid; every cell indexes the run-local resolved
        // table — no locking, no key clones.
        let pairs: Vec<(usize, usize)> = (0..self.specs.len())
            .flat_map(|mi| (0..cases.len()).map(move |ci| (mi, ci)))
            .collect();
        let outcomes: Vec<EvaluationOutcome> =
            parallel_map(self.parallelism, &pairs, |cell, &(mi, ci)| {
                let fit = resolved[key_of_cell[cell]]
                    .as_ref()
                    .expect("every unique key was resolved above")
                    .clone();
                let (table, param_names, params, error) = match fit {
                    Ok(fitted) => match fitted.predict(&prepared[ci].1).and_then(|prediction| {
                        AccuracyTable::score(&prediction, cases[ci].matrix())
                    }) {
                        Ok(table) => (Some(table), fitted.param_names(), fitted.params(), None),
                        Err(e) => (None, Vec::new(), Vec::new(), Some(e.to_string())),
                    },
                    Err(message) => (None, Vec::new(), Vec::new(), Some(message)),
                };
                EvaluationOutcome {
                    spec: spec_strings[mi].clone(),
                    case: cases[ci].name.clone(),
                    table,
                    param_names,
                    params,
                    error,
                }
            });

        Ok(EvaluationReport {
            specs: spec_strings,
            cases: cases.iter().map(|c| c.name.clone()).collect(),
            outcomes,
            cache: CacheStats {
                hits,
                misses,
                evictions,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DlModel;

    /// A matrix generated from a known DL model, so the DL predictor has
    /// a recoverable signal and baselines are strictly worse.
    fn synthetic_matrix() -> DensityMatrix {
        let initial = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];
        let truth = DlModel::paper_hops(&initial).unwrap();
        let pred = truth
            .predict(&[1, 2, 3, 4, 5, 6], &[2, 3, 4, 5, 6])
            .unwrap();
        let pop = 1_000_000usize;
        let counts: Vec<Vec<usize>> = (1..=6u32)
            .map(|d| {
                let mut row =
                    vec![((initial[(d - 1) as usize] / 100.0) * pop as f64).round() as usize];
                for h in 2..=6 {
                    row.push(((pred.at(d, h).unwrap() / 100.0) * pop as f64).round() as usize);
                }
                row
            })
            .collect();
        DensityMatrix::from_counts(&counts, &[pop; 6]).unwrap()
    }

    #[test]
    fn pipeline_scores_multiple_models_on_multiple_cases() {
        let m = Arc::new(synthetic_matrix());
        let cases = vec![
            EvaluationCase::paper_protocol("s1", Arc::clone(&m)).unwrap(),
            EvaluationCase::new("s1-short", m, 1, 4).unwrap(),
        ];
        let report = EvaluationPipeline::new()
            .model(ModelSpec::paper_hops_dl())
            .model(ModelSpec::Naive)
            .model(ModelSpec::LinearTrend)
            .run(&cases)
            .unwrap();
        assert_eq!(report.specs().len(), 3);
        assert_eq!(report.cases(), &["s1".to_string(), "s1-short".into()]);
        // The generating model must dominate the naive baseline on its
        // own data, on every case.
        for ci in 0..2 {
            let dl = report.outcome(0, ci).unwrap().overall().unwrap();
            let naive = report.outcome(1, ci).unwrap().overall().unwrap();
            assert!(dl > naive, "case {ci}: dl {dl} !> naive {naive}");
            assert!(dl > 0.99, "case {ci}: dl accuracy {dl}");
        }
        assert_eq!(
            report.ranking()[0].0,
            ModelSpec::paper_hops_dl().to_string()
        );
        let text = report.to_string();
        assert!(text.contains("naive"));
        assert!(text.contains('%'));
    }

    #[test]
    fn epidemic_without_graph_is_recorded_not_fatal() {
        let cases = vec![EvaluationCase::paper_protocol("s1", synthetic_matrix()).unwrap()];
        let report = EvaluationPipeline::new()
            .model(ModelSpec::Naive)
            .model(ModelSpec::Si {
                beta: 0.01,
                runs: 2,
                seed: 1,
            })
            .run(&cases)
            .unwrap();
        assert!(report.outcome(0, 0).unwrap().error.is_none());
        let si = report.outcome(1, 0).unwrap();
        assert!(si.error.as_deref().unwrap().contains("graph"));
        assert!(si.overall().is_none());
        // The failed model sorts last.
        assert_eq!(report.ranking().last().unwrap().0, si.spec);
    }

    #[test]
    fn pipeline_rejects_empty_inputs() {
        let case = EvaluationCase::paper_protocol("s1", synthetic_matrix()).unwrap();
        assert!(EvaluationPipeline::new().run(&[case]).is_err());
        assert!(EvaluationPipeline::new()
            .model(ModelSpec::Naive)
            .run(&[])
            .is_err());
    }

    #[test]
    fn forecast_case_limits_observation() {
        let m = synthetic_matrix();
        let case = EvaluationCase::forecast("s1", m, 1, 2, 6).unwrap();
        let obs = case.observation().unwrap();
        assert_eq!(obs.hours(), &[1, 2]);
        assert_eq!(case.target_hours(), &[2, 3, 4, 5, 6]);
        assert_eq!(case.distances(), &[1, 2, 3, 4, 5, 6]);
        assert!(EvaluationCase::forecast("bad", case.matrix().clone(), 3, 2, 6).is_err());
        assert!(EvaluationCase::forecast("bad", case.matrix().clone(), 0, 1, 6).is_err());
        assert!(EvaluationCase::forecast("bad", case.matrix().clone(), 1, 2, 99).is_err());
    }

    #[test]
    fn cases_share_one_matrix_allocation() {
        let m = Arc::new(synthetic_matrix());
        let a = EvaluationCase::paper_protocol("a", Arc::clone(&m)).unwrap();
        let b = EvaluationCase::new("b", Arc::clone(&m), 1, 4).unwrap();
        assert!(Arc::ptr_eq(&a.matrix_arc(), &m));
        assert!(Arc::ptr_eq(&a.matrix_arc(), &b.matrix_arc()));
        // Cloning a case clones the Arc, not the matrix.
        let c = a.clone();
        assert!(Arc::ptr_eq(&c.matrix_arc(), &m));
    }

    #[test]
    fn outcomes_expose_fitted_parameters() {
        let cases = vec![EvaluationCase::paper_protocol("s1", synthetic_matrix()).unwrap()];
        let report = EvaluationPipeline::new()
            .model(ModelSpec::paper_hops_dl())
            .run(&cases)
            .unwrap();
        let o = report.outcome(0, 0).unwrap();
        assert_eq!(o.param_names[0], "d");
        assert_eq!(o.params[0], 0.01);
    }

    #[test]
    fn cache_replays_warm_runs_and_counts_hits() {
        let m = Arc::new(synthetic_matrix());
        let cases = vec![
            EvaluationCase::paper_protocol("s1", Arc::clone(&m)).unwrap(),
            EvaluationCase::new("s1-short", Arc::clone(&m), 1, 4).unwrap(),
        ];
        let pipeline = EvaluationPipeline::new()
            .model(ModelSpec::paper_hops_dl())
            .model(ModelSpec::Naive);
        let cold = pipeline.run(&cases).unwrap();
        // 2 models × 2 distinct observation windows, but the windows
        // share hour 1 and `dl` reads nothing else: it fits once, the
        // naive baseline (keyed by its whole window) twice.
        assert_eq!(
            cold.cache_stats(),
            CacheStats {
                hits: 1,
                misses: 3,
                evictions: 0
            }
        );
        assert_eq!(pipeline.cache_len(), 3);
        let warm = pipeline.run(&cases).unwrap();
        assert_eq!(
            warm.cache_stats(),
            CacheStats {
                hits: 4,
                misses: 0,
                evictions: 0
            }
        );
        // Execution metadata differs; the computed report does not.
        assert_eq!(cold, warm);
        assert_eq!(cold.to_string(), warm.to_string());
        pipeline.clear_cache();
        assert_eq!(pipeline.cache_len(), 0);
    }

    #[test]
    fn bounded_cache_evicts_lru_fits_and_counts() {
        let m = Arc::new(synthetic_matrix());
        let cases = vec![
            EvaluationCase::paper_protocol("s1", Arc::clone(&m)).unwrap(),
            EvaluationCase::new("s1-short", Arc::clone(&m), 1, 4).unwrap(),
        ];
        // 2 models x 2 distinct observation windows = 3 unique fits (`dl`
        // reads only the shared hour 1), but only 2 may stay resident.
        let pipeline = EvaluationPipeline::new()
            .model(ModelSpec::paper_hops_dl())
            .model(ModelSpec::Naive)
            .cache_capacity(2);
        assert_eq!(pipeline.cache().capacity(), 2);
        let cold = pipeline.run(&cases).unwrap();
        assert_eq!(
            cold.cache_stats(),
            CacheStats {
                hits: 1,
                misses: 3,
                evictions: 1
            }
        );
        assert_eq!(pipeline.cache_len(), 2);
        // Only the last two fits (grid order, both naive) survived; the
        // `dl` fit re-fits on the warm run and evicts the least recently
        // probed survivor.
        let warm = pipeline.run(&cases).unwrap();
        assert_eq!(
            warm.cache_stats(),
            CacheStats {
                hits: 3,
                misses: 1,
                evictions: 1
            }
        );
        // Eviction is an execution detail: the computed report is
        // byte-identical to the unbounded run.
        assert_eq!(cold, warm);
        let unbounded = EvaluationPipeline::new()
            .model(ModelSpec::paper_hops_dl())
            .model(ModelSpec::Naive);
        assert_eq!(unbounded.run(&cases).unwrap(), cold);
        // Lifetime counters accumulate across both bounded runs.
        let lifetime = pipeline.cache().stats();
        assert_eq!(lifetime.evictions, 2);
        assert_eq!(lifetime.misses, 4);
    }

    #[test]
    fn shared_observation_windows_fit_once_within_a_run() {
        let m = Arc::new(synthetic_matrix());
        // Same observed window (hours 1..=2), different forecast
        // horizons: one fit serves both cases.
        let cases = vec![
            EvaluationCase::forecast("h4", Arc::clone(&m), 1, 2, 4).unwrap(),
            EvaluationCase::forecast("h6", Arc::clone(&m), 1, 2, 6).unwrap(),
        ];
        let pipeline = EvaluationPipeline::new().model(ModelSpec::paper_hops_dl());
        let report = pipeline.run(&cases).unwrap();
        assert_eq!(
            report.cache_stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert!(report.outcome(0, 0).unwrap().error.is_none());
        assert!(report.outcome(0, 1).unwrap().error.is_none());
        // The shared fit predicts each case's own horizon.
        assert_eq!(
            report
                .outcome(0, 0)
                .unwrap()
                .table
                .as_ref()
                .unwrap()
                .hours(),
            &[2, 3, 4]
        );
        assert_eq!(
            report
                .outcome(0, 1)
                .unwrap()
                .table
                .as_ref()
                .unwrap()
                .hours(),
            &[2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn failed_fits_are_cached_once_per_key() {
        let cases = vec![
            EvaluationCase::paper_protocol("a", synthetic_matrix()).unwrap(),
            EvaluationCase::paper_protocol("b", synthetic_matrix()).unwrap(),
        ];
        let pipeline = EvaluationPipeline::new().model(ModelSpec::Si {
            beta: 0.01,
            runs: 2,
            seed: 1,
        });
        let cold = pipeline.run(&cases).unwrap();
        // Both cases carry identical (graph-free) observations, so the
        // failing fit runs once and the second cell is a hit.
        assert_eq!(
            cold.cache_stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        for ci in 0..2 {
            assert!(cold
                .outcome(0, ci)
                .unwrap()
                .error
                .as_deref()
                .unwrap()
                .contains("graph"));
        }
        let warm = pipeline.run(&cases).unwrap();
        assert_eq!(
            warm.cache_stats(),
            CacheStats {
                hits: 2,
                misses: 0,
                evictions: 0
            }
        );
        assert_eq!(cold, warm);
    }

    #[test]
    fn every_parallelism_mode_produces_identical_reports() {
        let m = Arc::new(synthetic_matrix());
        let cases: Vec<EvaluationCase> = (0..4)
            .map(|i| {
                EvaluationCase::new(format!("case{i}"), Arc::clone(&m), 1, 4 + (i % 3) as u32)
                    .unwrap()
            })
            .collect();
        let specs = [
            ModelSpec::paper_hops_dl(),
            ModelSpec::Naive,
            ModelSpec::LinearTrend,
            ModelSpec::LogisticOnly {
                capacity: 25.0,
                growth: crate::predict::GrowthFamily::PaperHops,
            },
        ];
        let run_with = |mode: Parallelism| {
            EvaluationPipeline::new()
                .models(specs.clone())
                .parallelism(mode)
                .run(&cases)
                .unwrap()
        };
        let serial = run_with(Parallelism::Serial);
        for mode in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(5),
            Parallelism::Auto,
        ] {
            let parallel = run_with(mode);
            assert_eq!(serial, parallel, "{mode:?} diverged from serial");
            assert_eq!(serial.cache_stats(), parallel.cache_stats());
            assert_eq!(serial.to_string(), parallel.to_string());
        }
    }
}
