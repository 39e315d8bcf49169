//! The model zoo: every predictor in the workspace implemented behind
//! [`DiffusionPredictor`] / [`FittedPredictor`].
//!
//! Seven predictors speak the unified interface:
//!
//! | predictor | wraps | needs |
//! |---|---|---|
//! | [`DlPredictor`] | [`crate::model::DlModel`] | 1 profile |
//! | [`CalibratedDlPredictor`] | [`crate::calibrate::calibrate_profiles`] + DL | ≥ 2 profiles |
//! | [`VariableDlPredictor`] | [`crate::variable::VariableDlModel`] | 1 profile (≥ 2 for per-distance r) |
//! | [`LogisticOnlyPredictor`] | [`crate::baselines::LogisticOnly`] | 1 profile |
//! | [`NaivePredictor`] | [`crate::baselines::NaiveLastValue`] | 1 profile |
//! | [`LinearTrendPredictor`] | [`crate::baselines::LinearTrend`] | ≥ 2 profiles |
//! | [`SiPredictor`] / [`SisPredictor`] | [`crate::baselines::si_epidemic`] | [`GraphContext`] |
//!
//! Construct them directly, or from serializable [`crate::registry::ModelSpec`]s
//! through the [`crate::registry::ModelRegistry`].

use crate::baselines::{
    epidemic_trajectory, EpidemicConfig, EpidemicTrajectory, LinearTrend, LogisticOnly,
    NaiveLastValue,
};
use crate::calibrate::{calibrate_profiles, Calibration, CalibrationOptions};
use crate::error::{DlError, Result};
use crate::model::{DlModel, DlModelBuilder, Prediction};
use crate::params::DlParameters;
use crate::predict::{
    DiffusionPredictor, FitConfig, FittedPredictor, GraphContext, GrowthFamily, Observation,
    ObservationKey, PredictionRequest,
};
use crate::variable::{
    calibrate_per_distance_growth_series_multi, ConstantField, PerDistanceGrowth, VariableDlModel,
    VariableDlModelBuilder,
};
use dlm_graph::DiGraph;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn growth_param_entries(growth: &crate::growth::ExpDecayGrowth) -> (Vec<String>, Vec<f64>) {
    (
        vec!["r.amplitude".into(), "r.decay".into(), "r.floor".into()],
        vec![growth.amplitude(), growth.decay(), growth.floor()],
    )
}

fn spatial_domain(observation: &Observation) -> Result<(f64, f64)> {
    if observation.max_distance() < 2 {
        return Err(DlError::InvalidParameter {
            name: "observation",
            reason: "spatial models need at least 2 distance groups".into(),
        });
    }
    Ok((1.0, f64::from(observation.max_distance())))
}

/// Serves a request that ends at the fitted initial time straight from
/// the initial profile (no forward solve exists for `t <= t0`). Rejects
/// hours before the initial time and distances outside the fitted
/// profile, so the readback path enforces the same domain as a solve.
fn phi_readback(
    request: &PredictionRequest,
    initial_time: f64,
    initial: &[f64],
) -> Result<Prediction> {
    for &h in request.hours() {
        if f64::from(h) < initial_time {
            return Err(DlError::OutOfDomain {
                axis: "time",
                value: f64::from(h),
                range: (initial_time, initial_time),
            });
        }
    }
    let values = request
        .distances()
        .iter()
        .map(|&d| {
            let idx = (d as usize)
                .checked_sub(1)
                .filter(|&i| i < initial.len())
                .ok_or(DlError::OutOfDomain {
                    axis: "distance",
                    value: f64::from(d),
                    range: (1.0, initial.len() as f64),
                })?;
            Ok(vec![initial[idx]; request.hours().len()])
        })
        .collect::<Result<Vec<_>>>()?;
    Prediction::from_values(
        request.distances().to_vec(),
        request.hours().to_vec(),
        values,
    )
}

// ---------------------------------------------------------------------------
// Per-horizon prediction tables
// ---------------------------------------------------------------------------

/// Every value a fitted model predicts at one horizon: distances
/// `1..=max_distance` × hours `initial_hour..=max_hour`, from one solve
/// that ends at `max_hour`.
#[derive(Debug)]
struct HorizonTable {
    max_hour: u32,
    /// `values[d - 1][h - initial_hour]`.
    values: Vec<Vec<f64>>,
}

/// A one-slot memo of a fitted model's predictions at its latest
/// horizon, for models whose forward solve depends on the request only
/// through its latest hour.
///
/// The DL solve takes the same steps for every request that ends at the
/// same hour, and [`crate::model::DlModel::predict`] reads each
/// `(distance, hour)` cell from the rows that bracket it alone; the
/// logistic baseline takes the same RK4 steps up to the same hour and
/// samples each distance and hour on its own. So a table filled by one
/// solve over the full grid answers every request at that horizon with
/// the bits a dedicated solve would produce. The slot holds one horizon:
/// a request that ends at another hour solves again and replaces it.
#[derive(Debug, Default)]
struct HorizonMemo {
    table: Mutex<Option<Arc<HorizonTable>>>,
    /// Forward solves actually run (instrumentation).
    solves: AtomicUsize,
}

impl Clone for HorizonMemo {
    fn clone(&self) -> Self {
        Self {
            table: Mutex::new(self.table.lock().expect(TABLE_POISONED).clone()),
            solves: AtomicUsize::new(self.solves.load(Ordering::Relaxed)),
        }
    }
}

const TABLE_POISONED: &str = "horizon table memo poisoned";

impl HorizonMemo {
    fn solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Answers `request`, whose latest hour must be after
    /// `initial_hour`, from the table at that hour, filling the table
    /// with one `solve` over the full grid when the slot holds another
    /// horizon. Requests the table cannot cover (a distance beyond
    /// `max_distance`, an hour before `initial_hour`) and failed table
    /// solves go to `solve` on the request itself, so their answers and
    /// errors are the unmemoized ones. The lock is not held across the
    /// solve: two racers on one horizon both solve and agree bit for
    /// bit.
    fn predict(
        &self,
        request: &PredictionRequest,
        initial_hour: u32,
        max_distance: u32,
        solve: impl Fn(&[u32], &[u32]) -> Result<Prediction>,
    ) -> Result<Prediction> {
        let solve = |distances: &[u32], hours: &[u32]| {
            self.solves.fetch_add(1, Ordering::Relaxed);
            solve(distances, hours)
        };
        let max_hour = request.max_hour();
        let covered = request.hours().iter().all(|&h| h >= initial_hour)
            && request.distances().iter().all(|&d| d <= max_distance);
        if !covered {
            return solve(request.distances(), request.hours());
        }
        let cached = self
            .table
            .lock()
            .expect(TABLE_POISONED)
            .as_ref()
            .filter(|table| table.max_hour == max_hour)
            .map(Arc::clone);
        let table = match cached {
            Some(table) => table,
            None => {
                let distances: Vec<u32> = (1..=max_distance).collect();
                let hours: Vec<u32> = (initial_hour..=max_hour).collect();
                let Ok(full) = solve(&distances, &hours) else {
                    return solve(request.distances(), request.hours());
                };
                let table = Arc::new(HorizonTable {
                    max_hour,
                    values: full.into_values(),
                });
                *self.table.lock().expect(TABLE_POISONED) = Some(Arc::clone(&table));
                table
            }
        };
        // Distances are 1-based (validated by the request).
        let values = request
            .distances()
            .iter()
            .map(|&d| {
                let row = &table.values[d as usize - 1];
                request
                    .hours()
                    .iter()
                    .map(|&h| row[(h - initial_hour) as usize])
                    .collect()
            })
            .collect();
        Prediction::from_values(
            request.distances().to_vec(),
            request.hours().to_vec(),
            values,
        )
    }
}

// ---------------------------------------------------------------------------
// DL (fixed parameters)
// ---------------------------------------------------------------------------

/// The paper's diffusive logistic model with fixed `d`, `K` and growth
/// family — the "paper constants" protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct DlPredictor {
    diffusion: f64,
    capacity: f64,
    config: FitConfig,
}

impl DlPredictor {
    /// Creates the predictor with explicit `d`, `K` and fit options.
    #[must_use]
    pub fn new(diffusion: f64, capacity: f64, config: FitConfig) -> Self {
        Self {
            diffusion,
            capacity,
            config,
        }
    }

    /// The paper's friendship-hop preset (d = 0.01, K = 25, Eq.-7 r(t)).
    #[must_use]
    pub fn paper_hops() -> Self {
        Self::new(
            0.01,
            25.0,
            FitConfig {
                growth: GrowthFamily::PaperHops,
                ..FitConfig::default()
            },
        )
    }

    /// The paper's shared-interest preset (d = 0.05, K = 60).
    #[must_use]
    pub fn paper_interest() -> Self {
        Self::new(
            0.05,
            60.0,
            FitConfig {
                growth: GrowthFamily::PaperInterest,
                ..FitConfig::default()
            },
        )
    }
}

/// A fitted [`DlPredictor`].
///
/// Predictions are served from a table of the latest requested horizon
/// (every distance × every hour from φ's), so repeat forecasts at one
/// horizon run one PDE solve between them, with the bits of a direct
/// [`DlModel::predict`].
#[derive(Debug, Clone)]
pub struct FittedDl {
    model: DlModel,
    growth: crate::growth::ExpDecayGrowth,
    initial_hour: u32,
    initial: Vec<f64>,
    memo: HorizonMemo,
}

impl FittedDl {
    /// The underlying solved model.
    #[must_use]
    pub fn model(&self) -> &DlModel {
        &self.model
    }

    /// Number of PDE solves this fitted model has run — stays at one
    /// across repeated `predict` calls that end at the same hour.
    #[must_use]
    pub fn solves(&self) -> usize {
        self.memo.solves()
    }
}

impl DiffusionPredictor for DlPredictor {
    fn name(&self) -> &'static str {
        "dl"
    }

    fn fit(&self, observation: &Observation) -> Result<Box<dyn FittedPredictor>> {
        let (lower, upper) = spatial_domain(observation)?;
        let params = DlParameters::new(self.diffusion, self.capacity, lower, upper)?;
        let mut config = self.config;
        config.initial_time = f64::from(observation.initial_hour());
        let model = DlModelBuilder::new(params)
            .fit_config(config)
            .build(observation.initial_profile())?;
        Ok(Box::new(FittedDl {
            model,
            growth: config.growth.exp_decay(),
            initial_hour: observation.initial_hour(),
            initial: observation.initial_profile().to_vec(),
            memo: HorizonMemo::default(),
        }))
    }

    /// The fit reads φ's hour and profile alone.
    fn fit_key(&self, observation: &Observation) -> ObservationKey {
        observation.initial_key()
    }
}

impl FittedPredictor for FittedDl {
    fn name(&self) -> &'static str {
        "dl"
    }

    fn predict(&self, request: &PredictionRequest) -> Result<Prediction> {
        if f64::from(request.max_hour()) <= self.model.initial_time() {
            return phi_readback(request, self.model.initial_time(), &self.initial);
        }
        self.memo.predict(
            request,
            self.initial_hour,
            self.initial.len() as u32,
            |distances, hours| self.model.predict(distances, hours),
        )
    }

    fn param_names(&self) -> Vec<String> {
        let (mut names, _) = growth_param_entries(&self.growth);
        let mut out = vec!["d".to_string(), "K".to_string()];
        out.append(&mut names);
        out
    }

    fn params(&self) -> Vec<f64> {
        let (_, growth) = growth_param_entries(&self.growth);
        let mut out = vec![
            self.model.params().diffusion(),
            self.model.params().capacity(),
        ];
        out.extend(growth);
        out
    }
}

// ---------------------------------------------------------------------------
// DL (calibrated)
// ---------------------------------------------------------------------------

/// The DL model with Nelder–Mead calibration of `(d, r(t)[, K])` against
/// every observed profile after the first — the automated analogue of the
/// paper's hand tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedDlPredictor {
    seed_diffusion: f64,
    seed_capacity: f64,
    fit_capacity: bool,
    max_evals: usize,
    config: FitConfig,
}

impl CalibratedDlPredictor {
    /// Creates the predictor; `seed_*` seed the search, `fit_capacity`
    /// additionally frees `K`, `max_evals` bounds the optimizer.
    #[must_use]
    pub fn new(
        seed_diffusion: f64,
        seed_capacity: f64,
        fit_capacity: bool,
        max_evals: usize,
        config: FitConfig,
    ) -> Self {
        Self {
            seed_diffusion,
            seed_capacity,
            fit_capacity,
            max_evals,
            config,
        }
    }

    /// The default calibration used across the evaluation: paper-hops
    /// seeds, free capacity, an 800-evaluation budget.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self::new(0.01, 25.0, true, 800, FitConfig::default())
    }
}

/// A fitted [`CalibratedDlPredictor`].
#[derive(Debug, Clone)]
pub struct FittedCalibratedDl {
    model: DlModel,
    calibration: Calibration,
    initial: Vec<f64>,
}

impl FittedCalibratedDl {
    /// The calibration outcome (fitted parameters, objective value).
    #[must_use]
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The underlying solved model.
    #[must_use]
    pub fn model(&self) -> &DlModel {
        &self.model
    }
}

impl DiffusionPredictor for CalibratedDlPredictor {
    fn name(&self) -> &'static str {
        "dl-cal"
    }

    /// Calibration is a Nelder–Mead search over PDE solves.
    fn fit_searches(&self) -> bool {
        true
    }

    fn fit(&self, observation: &Observation) -> Result<Box<dyn FittedPredictor>> {
        let (lower, upper) = spatial_domain(observation)?;
        if observation.hours().len() < 2 {
            return Err(DlError::InvalidParameter {
                name: "observation",
                reason: "calibration needs at least 2 observed profiles".into(),
            });
        }
        let targets: Vec<(u32, Vec<f64>)> = observation
            .hours()
            .iter()
            .zip(observation.profiles())
            .skip(1)
            .map(|(&h, p)| (h, p.clone()))
            .collect();
        let seed_params = DlParameters::new(self.seed_diffusion, self.seed_capacity, lower, upper)?;
        let options = CalibrationOptions {
            fit_capacity: self.fit_capacity,
            max_evals: self.max_evals,
            multi_start: self.config.multi_start,
            ..CalibrationOptions::default()
        };
        let calibration = calibrate_profiles(
            observation.initial_hour(),
            observation.initial_profile(),
            &targets,
            seed_params,
            self.config.growth.exp_decay(),
            &options,
        )?;
        let model = DlModelBuilder::new(calibration.params)
            .fit_config(FitConfig {
                growth: GrowthFamily::ExpDecay {
                    amplitude: calibration.growth.amplitude(),
                    decay: calibration.growth.decay(),
                    floor: calibration.growth.floor(),
                },
                initial_time: f64::from(observation.initial_hour()),
                ..self.config
            })
            .build(observation.initial_profile())?;
        Ok(Box::new(FittedCalibratedDl {
            model,
            calibration,
            initial: observation.initial_profile().to_vec(),
        }))
    }
}

impl FittedPredictor for FittedCalibratedDl {
    fn name(&self) -> &'static str {
        "dl-cal"
    }

    fn predict(&self, request: &PredictionRequest) -> Result<Prediction> {
        if f64::from(request.max_hour()) <= self.model.initial_time() {
            return phi_readback(request, self.model.initial_time(), &self.initial);
        }
        self.model.predict(request.distances(), request.hours())
    }

    fn param_names(&self) -> Vec<String> {
        let (mut names, _) = growth_param_entries(&self.calibration.growth);
        let mut out = vec!["d".to_string(), "K".to_string()];
        out.append(&mut names);
        out.push("objective".into());
        out
    }

    fn params(&self) -> Vec<f64> {
        let (_, growth) = growth_param_entries(&self.calibration.growth);
        let mut out = vec![
            self.calibration.params.diffusion(),
            self.calibration.params.capacity(),
        ];
        out.extend(growth);
        out.push(self.calibration.objective);
        out
    }
}

// ---------------------------------------------------------------------------
// Variable-coefficient DL
// ---------------------------------------------------------------------------

/// The paper's §V future-work refinement: the generalized DL equation,
/// optionally with a per-distance growth field `r(x, t)` calibrated from
/// the observed series.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableDlPredictor {
    diffusion: f64,
    capacity: f64,
    per_distance_growth: bool,
    config: FitConfig,
}

impl VariableDlPredictor {
    /// Creates the predictor. With `per_distance_growth`, fitting
    /// calibrates an independent growth curve per distance (needs ≥ 2
    /// observed profiles); otherwise the config's time-only family is
    /// used.
    #[must_use]
    pub fn new(
        diffusion: f64,
        capacity: f64,
        per_distance_growth: bool,
        config: FitConfig,
    ) -> Self {
        Self {
            diffusion,
            capacity,
            per_distance_growth,
            config,
        }
    }
}

/// A fitted [`VariableDlPredictor`].
#[derive(Debug, Clone)]
pub struct FittedVariableDl {
    model: VariableDlModel,
    diffusion: f64,
    capacity: f64,
    initial_time: f64,
    initial: Vec<f64>,
    time_growth: Option<crate::growth::ExpDecayGrowth>,
    per_distance: Option<PerDistanceGrowth>,
}

impl FittedVariableDl {
    /// The underlying generalized model.
    #[must_use]
    pub fn model(&self) -> &VariableDlModel {
        &self.model
    }
}

impl DiffusionPredictor for VariableDlPredictor {
    fn name(&self) -> &'static str {
        "variable-dl"
    }

    /// Per-distance growth calibration is a multi-start search; the
    /// time-only growth fit is closed-form.
    fn fit_searches(&self) -> bool {
        self.per_distance_growth
    }

    fn fit(&self, observation: &Observation) -> Result<Box<dyn FittedPredictor>> {
        let (lower, upper) = spatial_domain(observation)?;
        let mut config = self.config;
        config.initial_time = f64::from(observation.initial_hour());
        let builder = VariableDlModelBuilder::new(lower, upper)?
            .fit_config(config)
            .diffusion(ConstantField(self.diffusion))
            .capacity(ConstantField(self.capacity));
        let (model, time_growth, per_distance) = if self.per_distance_growth {
            let hours = observation.hours();
            let contiguous = hours.windows(2).all(|w| w[1] == w[0] + 1);
            if hours.len() < 2 || !contiguous {
                return Err(DlError::InvalidParameter {
                    name: "observation",
                    reason:
                        "per-distance growth calibration needs >= 2 consecutive hourly profiles"
                            .into(),
                });
            }
            // Transpose profiles into one hourly series per distance.
            let series: Vec<Vec<f64>> = (0..observation.distance_count())
                .map(|i| observation.profiles().iter().map(|p| p[i]).collect())
                .collect();
            let field = calibrate_per_distance_growth_series_multi(
                &series,
                self.capacity,
                observation.initial_hour(),
                hours.len() as u32,
                config.multi_start,
            )?;
            let model = builder
                .growth(field.clone())
                .build(observation.initial_profile())?;
            (model, None, Some(field))
        } else {
            let model = builder.build(observation.initial_profile())?;
            (model, Some(config.growth.exp_decay()), None)
        };
        Ok(Box::new(FittedVariableDl {
            model,
            diffusion: self.diffusion,
            capacity: self.capacity,
            initial_time: config.initial_time,
            initial: observation.initial_profile().to_vec(),
            time_growth,
            per_distance,
        }))
    }
}

impl FittedPredictor for FittedVariableDl {
    fn name(&self) -> &'static str {
        "variable-dl"
    }

    fn predict(&self, request: &PredictionRequest) -> Result<Prediction> {
        if f64::from(request.max_hour()) <= self.initial_time {
            return phi_readback(request, self.initial_time, &self.initial);
        }
        self.model.predict(request.distances(), request.hours())
    }

    fn param_names(&self) -> Vec<String> {
        let mut out = vec!["d".to_string(), "K".to_string()];
        if let Some(growth) = &self.time_growth {
            out.append(&mut growth_param_entries(growth).0);
        }
        if let Some(field) = &self.per_distance {
            for (i, _) in field.curves().iter().enumerate() {
                let d = i + 1;
                out.push(format!("r{d}.amplitude"));
                out.push(format!("r{d}.decay"));
                out.push(format!("r{d}.floor"));
            }
        }
        out
    }

    fn params(&self) -> Vec<f64> {
        let mut out = vec![self.diffusion, self.capacity];
        if let Some(growth) = &self.time_growth {
            out.extend(growth_param_entries(growth).1);
        }
        if let Some(field) = &self.per_distance {
            for curve in field.curves() {
                out.extend([curve.amplitude(), curve.decay(), curve.floor()]);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Logistic-only ablation
// ---------------------------------------------------------------------------

/// The `d = 0` ablation: independent logistic growth per distance.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticOnlyPredictor {
    capacity: f64,
    growth: GrowthFamily,
}

impl LogisticOnlyPredictor {
    /// Creates the ablation with the shared capacity and growth family.
    #[must_use]
    pub fn new(capacity: f64, growth: GrowthFamily) -> Self {
        Self { capacity, growth }
    }
}

/// A fitted [`LogisticOnlyPredictor`].
///
/// Like [`FittedDl`], predictions are served from a table of the latest
/// requested horizon, bit-identical to a direct [`LogisticOnly::predict`].
#[derive(Debug, Clone)]
pub struct FittedLogisticOnly {
    baseline: LogisticOnly,
    growth: crate::growth::ExpDecayGrowth,
    initial_hour: u32,
    initial: Vec<f64>,
    memo: HorizonMemo,
}

impl FittedLogisticOnly {
    /// Number of ODE solves (one per call of the baseline's `predict`)
    /// this fitted model has run — stays at one across repeated `predict`
    /// calls that end at the same hour.
    #[must_use]
    pub fn solves(&self) -> usize {
        self.memo.solves()
    }
}

impl DiffusionPredictor for LogisticOnlyPredictor {
    fn name(&self) -> &'static str {
        "logistic"
    }

    fn fit(&self, observation: &Observation) -> Result<Box<dyn FittedPredictor>> {
        let baseline = LogisticOnly::with_shared_growth(
            observation.initial_profile(),
            self.growth.build(),
            self.capacity,
            f64::from(observation.initial_hour()),
        )?;
        Ok(Box::new(FittedLogisticOnly {
            baseline,
            growth: self.growth.exp_decay(),
            initial_hour: observation.initial_hour(),
            initial: observation.initial_profile().to_vec(),
            memo: HorizonMemo::default(),
        }))
    }

    /// The fit reads φ's hour and profile alone.
    fn fit_key(&self, observation: &Observation) -> ObservationKey {
        observation.initial_key()
    }
}

impl FittedPredictor for FittedLogisticOnly {
    fn name(&self) -> &'static str {
        "logistic"
    }

    fn predict(&self, request: &PredictionRequest) -> Result<Prediction> {
        // The per-distance ODE trajectory starts at the fitted initial
        // time; earlier hours are outside the solved domain (the raw
        // baseline would silently clamp them to the initial state).
        let initial_time = f64::from(self.initial_hour);
        if let Some(&h) = request.hours().iter().find(|&&h| h < self.initial_hour) {
            return Err(DlError::OutOfDomain {
                axis: "time",
                value: f64::from(h),
                range: (initial_time, f64::INFINITY),
            });
        }
        if request.max_hour() <= self.initial_hour {
            return phi_readback(request, initial_time, &self.initial);
        }
        self.memo.predict(
            request,
            self.initial_hour,
            self.initial.len() as u32,
            |distances, hours| self.baseline.predict(distances, hours),
        )
    }

    fn param_names(&self) -> Vec<String> {
        let mut out = vec!["K".to_string()];
        out.append(&mut growth_param_entries(&self.growth).0);
        out
    }

    fn params(&self) -> Vec<f64> {
        let mut out = vec![self.baseline.capacity()];
        out.extend(growth_param_entries(&self.growth).1);
        out
    }
}

// ---------------------------------------------------------------------------
// Naive and linear-trend baselines
// ---------------------------------------------------------------------------

/// The no-change forecaster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NaivePredictor;

/// A fitted [`NaivePredictor`].
#[derive(Debug, Clone)]
pub struct FittedNaive {
    baseline: NaiveLastValue,
}

impl DiffusionPredictor for NaivePredictor {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn fit(&self, observation: &Observation) -> Result<Box<dyn FittedPredictor>> {
        Ok(Box::new(FittedNaive {
            baseline: NaiveLastValue::new(observation.initial_profile())?,
        }))
    }
}

impl FittedPredictor for FittedNaive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn predict(&self, request: &PredictionRequest) -> Result<Prediction> {
        self.baseline.predict(request.distances(), request.hours())
    }

    fn param_names(&self) -> Vec<String> {
        Vec::new()
    }

    fn params(&self) -> Vec<f64> {
        Vec::new()
    }
}

/// Per-distance linear extrapolation of the first two observed profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinearTrendPredictor;

/// A fitted [`LinearTrendPredictor`].
#[derive(Debug, Clone)]
pub struct FittedLinearTrend {
    baseline: LinearTrend,
    slopes: Vec<f64>,
}

impl DiffusionPredictor for LinearTrendPredictor {
    fn name(&self) -> &'static str {
        "linear-trend"
    }

    fn fit(&self, observation: &Observation) -> Result<Box<dyn FittedPredictor>> {
        if observation.hours().len() < 2 {
            return Err(DlError::InvalidParameter {
                name: "observation",
                reason: "linear trend needs at least 2 observed profiles".into(),
            });
        }
        let h0 = observation.hours()[0];
        let h1 = observation.hours()[1];
        let p0 = &observation.profiles()[0];
        let p1 = &observation.profiles()[1];
        let baseline = LinearTrend::with_step(p0, p1, f64::from(h0), f64::from(h1 - h0))?;
        let step = f64::from(h1 - h0);
        let slopes = p0.iter().zip(p1).map(|(a, b)| (b - a) / step).collect();
        Ok(Box::new(FittedLinearTrend { baseline, slopes }))
    }
}

impl FittedPredictor for FittedLinearTrend {
    fn name(&self) -> &'static str {
        "linear-trend"
    }

    fn predict(&self, request: &PredictionRequest) -> Result<Prediction> {
        self.baseline.predict(request.distances(), request.hours())
    }

    fn param_names(&self) -> Vec<String> {
        (1..=self.slopes.len())
            .map(|d| format!("slope{d}"))
            .collect()
    }

    fn params(&self) -> Vec<f64> {
        self.slopes.clone()
    }
}

// ---------------------------------------------------------------------------
// SI / SIS graph epidemics
// ---------------------------------------------------------------------------

/// Discrete-time SI epidemic on the actual follower graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiPredictor {
    config: EpidemicConfig,
}

impl SiPredictor {
    /// Creates the predictor from an epidemic configuration (`gamma` is
    /// ignored by SI).
    #[must_use]
    pub fn new(config: EpidemicConfig) -> Self {
        Self { config }
    }
}

/// Discrete-time SIS epidemic on the actual follower graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SisPredictor {
    config: EpidemicConfig,
}

impl SisPredictor {
    /// Creates the predictor from an epidemic configuration.
    #[must_use]
    pub fn new(config: EpidemicConfig) -> Self {
        Self { config }
    }
}

/// A fitted SI/SIS epidemic, bound to a cascade's graph context.
///
/// Monte-Carlo trajectories are memoized per fitted model — i.e. per
/// (graph, seeds, config) — keyed by the hop bound alone, so repeated
/// [`FittedPredictor::predict`] calls resample the cached ever-infected
/// counts instead of re-simulating. Each run draws from an independent
/// SplitMix64-derived stream seeded by `(seed, run index)`, so a
/// trajectory simulated over a long horizon reads out bit-identically
/// to a direct simulation at *any* shorter horizon (see
/// [`EpidemicTrajectory`]) — one long trajectory per hop bound serves
/// every forecast-horizon request at or below its span, and a longer
/// request replaces the cached trajectory with a longer simulation.
#[derive(Debug)]
pub struct FittedEpidemic {
    name: &'static str,
    graph: Arc<DiGraph>,
    initiator: usize,
    seeds: Vec<usize>,
    config: EpidemicConfig,
    with_recovery: bool,
    max_distance: u32,
    initial_hour: u32,
    /// Cached trajectories keyed by hop bound; the stored trajectory is
    /// the longest simulated so far for that bound.
    memo: Mutex<HashMap<u32, Arc<EpidemicTrajectory>>>,
    /// Monte-Carlo simulations actually run (instrumentation).
    simulations: AtomicUsize,
}

impl Clone for FittedEpidemic {
    fn clone(&self) -> Self {
        Self {
            name: self.name,
            graph: Arc::clone(&self.graph),
            initiator: self.initiator,
            seeds: self.seeds.clone(),
            config: self.config,
            with_recovery: self.with_recovery,
            max_distance: self.max_distance,
            initial_hour: self.initial_hour,
            memo: Mutex::new(self.memo.lock().expect(MEMO_POISONED).clone()),
            simulations: AtomicUsize::new(self.simulations.load(Ordering::Relaxed)),
        }
    }
}

const MEMO_POISONED: &str = "epidemic trajectory memo poisoned";

impl FittedEpidemic {
    /// Number of Monte-Carlo simulations this fitted model has actually
    /// run — stays at one across repeated `predict` calls that fit
    /// inside the memoized horizon.
    #[must_use]
    pub fn simulations(&self) -> usize {
        self.simulations.load(Ordering::Relaxed)
    }

    /// The memoized trajectory for `max_hops` covering at least
    /// `max_hour`, simulating only when no cached trajectory spans the
    /// requested horizon. Per-run RNG streams make readouts from a
    /// longer trajectory bit-identical to a direct shorter simulation,
    /// so serving hour 3 from an hour-9 trajectory is exact. The lock
    /// is *not* held across the simulation, so distinct hop bounds on a
    /// shared fitted model — a forecast sweep under the parallel
    /// pipeline — simulate concurrently; two racers on the same bound
    /// keep whichever trajectory spans further (readouts agree on the
    /// shared prefix either way).
    fn trajectory(&self, max_hops: u32, max_hour: u32) -> Result<Arc<EpidemicTrajectory>> {
        if let Some(trajectory) = self.memo.lock().expect(MEMO_POISONED).get(&max_hops) {
            if trajectory.max_hour() >= max_hour {
                return Ok(Arc::clone(trajectory));
            }
        }
        let trajectory = Arc::new(epidemic_trajectory(
            &self.graph,
            self.initiator,
            &self.seeds,
            max_hops,
            max_hour,
            &self.config,
            self.with_recovery,
        )?);
        self.simulations.fetch_add(1, Ordering::Relaxed);
        let mut memo = self.memo.lock().expect(MEMO_POISONED);
        let entry = memo
            .entry(max_hops)
            .or_insert_with(|| Arc::clone(&trajectory));
        if entry.max_hour() < trajectory.max_hour() {
            *entry = Arc::clone(&trajectory);
        }
        Ok(Arc::clone(entry))
    }
}

fn fit_epidemic(
    name: &'static str,
    with_recovery: bool,
    config: EpidemicConfig,
    observation: &Observation,
) -> Result<Box<dyn FittedPredictor>> {
    let ctx: &GraphContext = observation.graph().ok_or(DlError::InvalidParameter {
        name: "observation",
        reason: format!("the {name} epidemic needs a follower-graph context"),
    })?;
    Ok(Box::new(FittedEpidemic {
        name,
        graph: ctx.graph_arc(),
        initiator: ctx.initiator(),
        seeds: ctx.initially_infected().to_vec(),
        config,
        with_recovery,
        max_distance: observation.max_distance(),
        initial_hour: observation.initial_hour(),
        memo: Mutex::new(HashMap::new()),
        simulations: AtomicUsize::new(0),
    }))
}

impl DiffusionPredictor for SiPredictor {
    fn name(&self) -> &'static str {
        "si"
    }

    fn fit(&self, observation: &Observation) -> Result<Box<dyn FittedPredictor>> {
        fit_epidemic("si", false, self.config, observation)
    }
}

impl DiffusionPredictor for SisPredictor {
    fn name(&self) -> &'static str {
        "sis"
    }

    fn fit(&self, observation: &Observation) -> Result<Box<dyn FittedPredictor>> {
        fit_epidemic("sis", true, self.config, observation)
    }
}

impl FittedPredictor for FittedEpidemic {
    fn name(&self) -> &'static str {
        self.name
    }

    fn predict(&self, request: &PredictionRequest) -> Result<Prediction> {
        // The seeds describe the state at the observation's initial hour;
        // earlier hours are outside the fitted domain, and a request for
        // absolute hour h gets `h - initial_hour + 1` spread rounds (one
        // round within the initial hour itself, matching the hour-1
        // anchoring of the raw epidemic baselines).
        if let Some(&h) = request.hours().iter().find(|&&h| h < self.initial_hour) {
            return Err(DlError::OutOfDomain {
                axis: "time",
                value: f64::from(h),
                range: (f64::from(self.initial_hour), f64::INFINITY),
            });
        }
        let relative: Vec<u32> = request
            .hours()
            .iter()
            .map(|&h| h - self.initial_hour + 1)
            .collect();
        let max_hops = request
            .distances()
            .iter()
            .copied()
            .max()
            .expect("validated nonempty")
            .max(self.max_distance);
        let needed_hour = *relative.iter().max().expect("validated nonempty");
        let trajectory = self.trajectory(max_hops, needed_hour)?;
        // Re-grid onto the requested distances; hop groups beyond the
        // epidemic's reach report zero density.
        let values = request
            .distances()
            .iter()
            .map(|&d| {
                relative
                    .iter()
                    .map(|&h| trajectory.density(d, h).unwrap_or(0.0))
                    .collect()
            })
            .collect();
        Prediction::from_values(
            request.distances().to_vec(),
            request.hours().to_vec(),
            values,
        )
    }

    fn param_names(&self) -> Vec<String> {
        let mut out = vec!["beta".to_string()];
        if self.with_recovery {
            out.push("gamma".into());
        }
        out.push("runs".into());
        out
    }

    fn params(&self) -> Vec<f64> {
        let mut out = vec![self.config.beta];
        if self.with_recovery {
            out.push(self.config.gamma);
        }
        out.push(self.config.runs as f64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlm_graph::GraphBuilder;

    const OBS1: [f64; 6] = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];
    const OBS2: [f64; 6] = [3.5, 1.4, 1.8, 1.0, 0.6, 0.4];

    fn two_hour_observation() -> Observation {
        Observation::new(vec![1, 2], vec![OBS1.to_vec(), OBS2.to_vec()]).unwrap()
    }

    fn request() -> PredictionRequest {
        PredictionRequest::new(vec![1, 2, 3, 4, 5, 6], vec![2, 3, 4]).unwrap()
    }

    #[test]
    fn dl_predictor_matches_direct_model() {
        let fitted = DlPredictor::paper_hops()
            .fit(&Observation::from_profile(1, &OBS1).unwrap())
            .unwrap();
        let via_trait = fitted.predict(&request()).unwrap();
        let direct = DlModel::paper_hops(&OBS1)
            .unwrap()
            .predict(&[1, 2, 3, 4, 5, 6], &[2, 3, 4])
            .unwrap();
        for d in 1..=6 {
            for h in 2..=4 {
                assert_eq!(via_trait.at(d, h).unwrap(), direct.at(d, h).unwrap());
            }
        }
        assert_eq!(fitted.name(), "dl");
        assert_eq!(fitted.param_names().len(), fitted.params().len());
        assert_eq!(fitted.params()[0], 0.01);
        assert_eq!(fitted.params()[1], 25.0);
    }

    #[test]
    fn dl_predictor_reads_phi_at_initial_hour() {
        let fitted = DlPredictor::paper_hops()
            .fit(&Observation::from_profile(1, &OBS1).unwrap())
            .unwrap();
        let p = fitted
            .predict(&PredictionRequest::new(vec![1, 2, 3, 4, 5, 6], vec![1]).unwrap())
            .unwrap();
        for (i, &obs) in OBS1.iter().enumerate() {
            assert!((p.at(i as u32 + 1, 1).unwrap() - obs).abs() < 1e-9);
        }
    }

    #[test]
    fn logistic_predictor_tracks_baseline() {
        let obs = Observation::from_profile(1, &OBS1).unwrap();
        let fitted = LogisticOnlyPredictor::new(25.0, GrowthFamily::PaperHops)
            .fit(&obs)
            .unwrap();
        let p = fitted.predict(&request()).unwrap();
        let direct = LogisticOnly::new(
            &OBS1,
            crate::growth::ExpDecayGrowth::paper_hops(),
            25.0,
            1.0,
        )
        .unwrap()
        .predict(&[1, 2, 3, 4, 5, 6], &[2, 3, 4])
        .unwrap();
        assert_eq!(p, direct);
        assert_eq!(fitted.param_names()[0], "K");
    }

    /// The requests a cascade's forecasts make of one fit: every
    /// `through` k with hours k+1..=T, an unsorted subset ending at T, a
    /// request that includes φ's hour, then horizons 6, 8, 6.
    fn horizon_requests(last: u32) -> Vec<PredictionRequest> {
        let all: Vec<u32> = (1..=6).collect();
        let mut out: Vec<PredictionRequest> = (1..last)
            .map(|k| PredictionRequest::new(all.clone(), (k + 1..=last).collect()).unwrap())
            .collect();
        out.push(PredictionRequest::new(vec![5, 2, 3], vec![4, last, 2]).unwrap());
        out.push(PredictionRequest::new(all.clone(), vec![1, 3, last]).unwrap());
        for horizon in [6, 8, 6] {
            out.push(PredictionRequest::new(all.clone(), (2..=horizon).collect()).unwrap());
        }
        out
    }

    fn same_bits(a: &Prediction, b: &Prediction) -> bool {
        a.distances() == b.distances()
            && a.hours() == b.hours()
            && a.distances().iter().all(|&d| {
                a.hours()
                    .iter()
                    .all(|&h| a.at(d, h).unwrap().to_bits() == b.at(d, h).unwrap().to_bits())
            })
    }

    #[test]
    fn dl_horizon_table_serves_direct_solve_bits() {
        let last = 8;
        // The default step divides every hour; a 0.3 h step does not, so
        // each horizon steps on its own grid and only a table of the
        // request's own horizon reads out the direct solve's bits.
        for dt in [crate::pde::SolverConfig::default().dt, 0.3] {
            let model = crate::model::DlModelBuilder::new(DlParameters::paper_hops(6).unwrap())
                .growth(crate::growth::ExpDecayGrowth::paper_hops())
                .solver(crate::pde::SolverConfig {
                    dt,
                    ..crate::pde::SolverConfig::default()
                })
                .build(&OBS1)
                .unwrap();
            let fitted = FittedDl {
                model,
                growth: crate::growth::ExpDecayGrowth::paper_hops(),
                initial_hour: 1,
                initial: OBS1.to_vec(),
                memo: HorizonMemo::default(),
            };
            let requests = horizon_requests(last);
            for (i, request) in requests.iter().enumerate() {
                let served = fitted.predict(request).unwrap();
                let direct = fitted
                    .model()
                    .predict(request.distances(), request.hours())
                    .unwrap();
                assert!(
                    same_bits(&served, &direct),
                    "dt {dt}, request {i}: {request:?}"
                );
                if i + 2 == last as usize {
                    assert_eq!(fitted.solves(), 1, "T-1 same-horizon forecasts");
                }
            }
            // One table for hour 8, then one per horizon switch (6, 8, 6).
            assert_eq!(fitted.solves(), 4);
            // Clones carry the table.
            let cloned = fitted.clone();
            cloned.predict(requests.last().unwrap()).unwrap();
            assert_eq!(cloned.solves(), 4);
            // Uncovered requests take the direct path with its errors.
            for (distances, hours) in [(vec![1, 7], vec![2, 6]), (vec![2], vec![0, 6])] {
                let request = PredictionRequest::new(distances.clone(), hours.clone()).unwrap();
                let served = fitted.predict(&request).unwrap_err().to_string();
                let direct = fitted
                    .model()
                    .predict(&distances, &hours)
                    .unwrap_err()
                    .to_string();
                assert_eq!(served, direct);
            }
        }
    }

    #[test]
    fn logistic_horizon_table_serves_direct_solve_bits() {
        let last = 8;
        let direct_model = LogisticOnly::new(
            &OBS1,
            crate::growth::ExpDecayGrowth::paper_hops(),
            25.0,
            1.0,
        )
        .unwrap();
        let fitted = FittedLogisticOnly {
            baseline: direct_model.clone(),
            growth: crate::growth::ExpDecayGrowth::paper_hops(),
            initial_hour: 1,
            initial: OBS1.to_vec(),
            memo: HorizonMemo::default(),
        };
        for (i, request) in horizon_requests(last).iter().enumerate() {
            let served = fitted.predict(request).unwrap();
            let direct = direct_model
                .predict(request.distances(), request.hours())
                .unwrap();
            assert!(same_bits(&served, &direct), "request {i}: {request:?}");
            if i + 2 == last as usize {
                assert_eq!(fitted.solves(), 1, "T-1 same-horizon forecasts");
            }
        }
        assert_eq!(fitted.solves(), 4);
        let far = PredictionRequest::new(vec![1, 7], vec![2, 6]).unwrap();
        assert_eq!(
            fitted.predict(&far).unwrap_err().to_string(),
            direct_model
                .predict(&[1, 7], &[2, 6])
                .unwrap_err()
                .to_string()
        );
        let early = PredictionRequest::new(vec![2], vec![0, 6]).unwrap();
        assert_eq!(
            fitted.predict(&early).unwrap_err().to_string(),
            "time 0 outside solved domain [1, inf]"
        );
    }

    #[test]
    fn naive_and_trend_need_what_they_need() {
        let one_hour = Observation::from_profile(1, &OBS1).unwrap();
        assert!(NaivePredictor.fit(&one_hour).is_ok());
        assert!(LinearTrendPredictor.fit(&one_hour).is_err());
        let fitted = LinearTrendPredictor.fit(&two_hour_observation()).unwrap();
        let p = fitted.predict(&request()).unwrap();
        // Slope at distance 1 is 1.4/hour from 2.1: hour 4 = 2.1 + 3*1.4.
        assert!((p.at(1, 4).unwrap() - (2.1 + 3.0 * 1.4)).abs() < 1e-12);
        assert_eq!(fitted.params().len(), 6);
    }

    #[test]
    fn trend_normalizes_non_unit_steps() {
        let obs = Observation::new(vec![1, 3], vec![vec![1.0, 1.0], vec![3.0, 2.0]]).unwrap();
        let fitted = LinearTrendPredictor.fit(&obs).unwrap();
        let p = fitted
            .predict(&PredictionRequest::new(vec![1, 2], vec![5]).unwrap())
            .unwrap();
        // Slope 1 = (3-1)/2 = 1/hour -> value 5 at hour 5.
        assert!((p.at(1, 5).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn epidemics_require_graph_context() {
        let obs = two_hour_observation();
        assert!(SiPredictor::new(EpidemicConfig::default())
            .fit(&obs)
            .is_err());
        assert!(SisPredictor::new(EpidemicConfig::default())
            .fit(&obs)
            .is_err());
    }

    #[test]
    fn si_predictor_runs_on_chain_graph() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1).unwrap();
        }
        let graph = Arc::new(b.build());
        let obs = Observation::new(vec![1], vec![vec![100.0, 0.0, 0.0, 0.0]])
            .unwrap()
            .with_graph(GraphContext::new(graph, 0, vec![0]));
        let cfg = EpidemicConfig {
            beta: 1.0,
            runs: 2,
            ..EpidemicConfig::default()
        };
        let fitted = SiPredictor::new(cfg).fit(&obs).unwrap();
        let p = fitted
            .predict(&PredictionRequest::new(vec![1, 2, 3, 4], vec![1, 2, 3]).unwrap())
            .unwrap();
        assert_eq!(p.at(1, 1).unwrap(), 100.0);
        assert_eq!(p.at(2, 1).unwrap(), 0.0);
        assert_eq!(p.at(2, 2).unwrap(), 100.0);
        assert_eq!(
            fitted.param_names(),
            vec!["beta".to_string(), "runs".into()]
        );
    }

    #[test]
    fn epidemic_predict_memoizes_monte_carlo() {
        let mut b = GraphBuilder::new(6);
        for i in 0..5 {
            b.add_edge(i, i + 1).unwrap();
        }
        let graph = Arc::new(b.build());
        let obs = Observation::new(vec![1], vec![vec![100.0, 0.0, 0.0, 0.0, 0.0]])
            .unwrap()
            .with_graph(GraphContext::new(graph, 0, vec![0]));
        let cfg = EpidemicConfig {
            beta: 0.7,
            runs: 5,
            seed: 3,
            ..EpidemicConfig::default()
        };
        let boxed = SiPredictor::new(cfg).fit(&obs).unwrap();
        let fresh = SiPredictor::new(cfg).fit(&obs).unwrap();
        let request = PredictionRequest::new(vec![1, 2, 3, 4, 5], vec![2, 3]).unwrap();
        let first = boxed.predict(&request).unwrap();
        let second = boxed.predict(&request).unwrap();
        assert_eq!(first, second);
        // A subset readout over the same horizon replays the cached
        // trajectory bit-identically to a never-memoized model.
        let subset = PredictionRequest::new(vec![1, 2], vec![3]).unwrap();
        let replayed = boxed.predict(&subset).unwrap();
        assert_eq!(replayed.at(1, 3).unwrap(), first.at(1, 3).unwrap());
        assert_eq!(replayed.at(2, 3).unwrap(), first.at(2, 3).unwrap());
        assert_eq!(replayed, fresh.predict(&subset).unwrap());
        // Direct access to the concrete type shows the simulation count.
        let chain = {
            let mut b = GraphBuilder::new(4);
            for i in 0..3 {
                b.add_edge(i, i + 1).unwrap();
            }
            Arc::new(b.build())
        };
        let concrete = FittedEpidemic {
            name: "si",
            graph: chain,
            initiator: 0,
            seeds: vec![0],
            config: cfg,
            with_recovery: false,
            max_distance: 3,
            initial_hour: 1,
            memo: Mutex::new(HashMap::new()),
            simulations: AtomicUsize::new(0),
        };
        assert_eq!(concrete.simulations(), 0);
        let r23 = PredictionRequest::new(vec![1, 2, 3], vec![2, 3]).unwrap();
        let a = concrete.predict(&r23).unwrap();
        assert_eq!(concrete.simulations(), 1);
        let b = concrete.predict(&r23).unwrap();
        assert_eq!(concrete.simulations(), 1, "second predict re-simulated");
        assert_eq!(a, b);
        // A horizon beyond the cached span simulates a longer
        // trajectory (replacing the shorter one for this hop bound)...
        let r4 = PredictionRequest::new(vec![1, 2, 3], vec![4]).unwrap();
        concrete.predict(&r4).unwrap();
        assert_eq!(concrete.simulations(), 2);
        // ...and shorter readouts are served from it for free, with
        // answers bit-identical to the dedicated short simulation.
        let c = concrete.predict(&r23).unwrap();
        concrete.predict(&r4).unwrap();
        assert_eq!(concrete.simulations(), 2);
        assert_eq!(a, c);
        // Asking for the long horizon first means the short one reads
        // out of the same trajectory: one simulation total, and the
        // answers are bit-identical to the short-first order.
        let fresh_concrete = FittedEpidemic {
            memo: Mutex::new(HashMap::new()),
            simulations: AtomicUsize::new(0),
            ..concrete.clone()
        };
        let d = fresh_concrete.predict(&r4).unwrap();
        let e = fresh_concrete.predict(&r23).unwrap();
        assert_eq!(
            fresh_concrete.simulations(),
            1,
            "short horizon re-simulated"
        );
        assert_eq!(d, concrete.predict(&r4).unwrap());
        assert_eq!(e, a);
        // Clones carry the memo with them.
        let cloned = concrete.clone();
        cloned.predict(&r23).unwrap();
        assert_eq!(cloned.simulations(), 2);
    }

    #[test]
    fn calibrated_dl_recovers_on_synthetic_data() {
        // Generate from a known DL model, then check the calibrated
        // predictor fits it closely through the trait alone.
        let truth = DlModel::paper_hops(&OBS1).unwrap();
        let hours: Vec<u32> = (1..=5).collect();
        let profiles: Vec<Vec<f64>> = hours
            .iter()
            .map(|&h| {
                if h == 1 {
                    OBS1.to_vec()
                } else {
                    truth
                        .predict(&[1, 2, 3, 4, 5, 6], &[h])
                        .unwrap()
                        .profile_at(h)
                        .unwrap()
                }
            })
            .collect();
        let obs = Observation::new(hours, profiles.clone()).unwrap();
        let fitted = CalibratedDlPredictor::paper_defaults().fit(&obs).unwrap();
        let p = fitted
            .predict(&PredictionRequest::new(vec![1, 2, 3], vec![4, 5]).unwrap())
            .unwrap();
        for d in 1..=3u32 {
            for (hi, &h) in [4u32, 5].iter().enumerate() {
                let actual = profiles[2 + hi + 1][(d - 1) as usize];
                let got = p.at(d, h).unwrap();
                assert!(
                    (got - actual).abs() / actual.max(1e-9) < 0.10,
                    "d={d} h={h}: {got} vs {actual}"
                );
            }
        }
        // Introspection exposes the fitted parameter vector.
        assert!(fitted.param_names().contains(&"objective".to_string()));
        assert_eq!(fitted.param_names().len(), fitted.params().len());
    }

    #[test]
    fn variable_dl_predictor_fits_constant_and_per_distance() {
        let obs1 = Observation::from_profile(1, &OBS1).unwrap();
        let constant = VariableDlPredictor::new(0.01, 25.0, false, FitConfig::default())
            .fit(&obs1)
            .unwrap();
        let p = constant.predict(&request()).unwrap();
        assert!(p.at(1, 4).unwrap() > OBS1[0]);
        // Per-distance growth needs >= 2 hourly profiles.
        assert!(
            VariableDlPredictor::new(0.01, 25.0, true, FitConfig::default())
                .fit(&obs1)
                .is_err()
        );
        let per_distance = VariableDlPredictor::new(0.01, 25.0, true, FitConfig::default())
            .fit(&two_hour_observation())
            .unwrap();
        let q = per_distance.predict(&request()).unwrap();
        assert!(q.at(1, 4).unwrap() > 0.0);
        // 2 scalars + 3 growth params per distance group.
        assert_eq!(per_distance.params().len(), 2 + 3 * 6);
        assert_eq!(
            per_distance.param_names().len(),
            per_distance.params().len()
        );
    }
}
