//! The paper's stated future work (§V): a generalized DL equation whose
//! **diffusion rate, growth rate and carrying capacity are functions of
//! time and distance**:
//!
//! ```text
//! ∂I/∂t = ∂/∂x( d(x) ∂I/∂x ) + r(x, t)·I·(1 − I/K(x))
//! ```
//!
//! The paper motivates this concretely: in its Table II the interest-
//! distance group 5 "drops faster at time 2 to 5", which a single global
//! `r(t)` cannot track — "the model can be refined by choosing a function
//! of both distance and time for growth rate r, which we will explore as
//! future work". This module implements that refinement:
//!
//! * [`SpatialField`] — coefficient fields over `(x, t)`;
//! * [`VariableDlModel`] — the generalized model with a conservative
//!   finite-volume discretization of the heterogeneous diffusion term;
//! * [`calibrate_per_distance_growth`] — fits an independent growth curve
//!   per integer distance and assembles a piecewise-linear-in-x `r(x, t)`.

use crate::error::{DlError, Result};
use crate::growth::ExpDecayGrowth;
use crate::initial::InitialDensity;
use crate::model::Prediction;
use crate::params::DlParameters;
use crate::pde::{residual, PdeSolution, Recorder, NEWTON_ITERATIONS, NEWTON_TOLERANCE};
use crate::predict::FitConfig;
use dlm_cascade::DensityMatrix;
use dlm_numerics::interp::LinearInterp;
use dlm_numerics::optimize::{multi_start_nelder_mead, MultiStartConfig, NelderMeadConfig};
use dlm_numerics::tridiag::solve_thomas_into;
use std::fmt;
use std::sync::Arc;

/// A scalar coefficient field over space and time.
///
/// Implementations must be finite on the solved domain; the diffusion
/// field must be non-negative and the capacity field strictly positive.
pub trait SpatialField: fmt::Debug + Send + Sync {
    /// Evaluates the field at `(x, t)`.
    fn value(&self, x: f64, t: f64) -> f64;
}

/// A constant field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantField(pub f64);

impl SpatialField for ConstantField {
    fn value(&self, _x: f64, _t: f64) -> f64 {
        self.0
    }
}

/// A time-only field wrapping a classic growth curve: `r(x, t) = r(t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeOnlyField(pub ExpDecayGrowth);

impl SpatialField for TimeOnlyField {
    fn value(&self, _x: f64, t: f64) -> f64 {
        use crate::growth::GrowthRate;
        self.0.rate(t)
    }
}

/// A separable field `f(x, t) = s(x)·r(t)` with `s` piecewise linear
/// through per-distance knots — the concrete refinement the paper
/// sketches for Table II's distance-5 problem.
#[derive(Debug, Clone)]
pub struct SeparableField {
    spatial: LinearInterp,
    temporal: ExpDecayGrowth,
}

impl SeparableField {
    /// Creates the field from spatial knots `(x_i, s_i)` and a temporal
    /// growth curve.
    ///
    /// # Errors
    ///
    /// Propagates interpolation-construction errors.
    pub fn new(xs: &[f64], scales: &[f64], temporal: ExpDecayGrowth) -> Result<Self> {
        Ok(Self {
            spatial: LinearInterp::new(xs, scales)?,
            temporal,
        })
    }
}

impl SpatialField for SeparableField {
    fn value(&self, x: f64, t: f64) -> f64 {
        use crate::growth::GrowthRate;
        self.spatial.value(x) * self.temporal.rate(t)
    }
}

/// A fully tabulated field: independent exp-decay growth curves at each
/// integer distance, linearly blended in between. Produced by
/// [`calibrate_per_distance_growth`].
#[derive(Debug, Clone)]
pub struct PerDistanceGrowth {
    lower: f64,
    curves: Vec<ExpDecayGrowth>,
}

impl PerDistanceGrowth {
    /// Creates the field from one growth curve per integer distance
    /// starting at `lower`.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] if fewer than 2 curves.
    pub fn new(lower: f64, curves: Vec<ExpDecayGrowth>) -> Result<Self> {
        if curves.len() < 2 {
            return Err(DlError::InvalidParameter {
                name: "curves",
                reason: "need at least 2 per-distance growth curves".into(),
            });
        }
        Ok(Self { lower, curves })
    }

    /// The fitted per-distance curves.
    #[must_use]
    pub fn curves(&self) -> &[ExpDecayGrowth] {
        &self.curves
    }
}

impl SpatialField for PerDistanceGrowth {
    fn value(&self, x: f64, t: f64) -> f64 {
        use crate::growth::GrowthRate;
        let pos = (x - self.lower).max(0.0);
        let i = (pos.floor() as usize).min(self.curves.len() - 1);
        let j = (i + 1).min(self.curves.len() - 1);
        let w = (pos - i as f64).clamp(0.0, 1.0);
        self.curves[i].rate(t) * (1.0 - w) + self.curves[j].rate(t) * w
    }
}

/// The generalized DL model with variable coefficients.
#[derive(Debug, Clone)]
pub struct VariableDlModel {
    domain: (f64, f64),
    diffusion: Arc<dyn SpatialField>,
    growth: Arc<dyn SpatialField>,
    capacity: Arc<dyn SpatialField>,
    phi: InitialDensity,
    initial_time: f64,
    space_intervals: usize,
    dt: f64,
}

/// Builder for [`VariableDlModel`].
///
/// Scalar fitting options (φ construction, solver resolution, growth
/// family, initial time) come from the same [`FitConfig`] the classic
/// [`crate::model::DlModelBuilder`] uses; the spatial coefficient fields
/// are set individually. The config's growth family becomes a
/// time-only field `r(x, t) = r(t)` unless overridden by
/// [`VariableDlModelBuilder::growth`].
#[derive(Debug, Clone)]
pub struct VariableDlModelBuilder {
    domain: (f64, f64),
    config: FitConfig,
    diffusion: Arc<dyn SpatialField>,
    growth_override: Option<Arc<dyn SpatialField>>,
    capacity: Arc<dyn SpatialField>,
}

impl VariableDlModelBuilder {
    /// Starts a builder on the domain `[lower, upper]` with the paper's
    /// constant-coefficient defaults (d = 0.01, Eq.-7 r(t), K = 25).
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for an empty domain.
    pub fn new(lower: f64, upper: f64) -> Result<Self> {
        if !(upper > lower) || !lower.is_finite() || !upper.is_finite() {
            return Err(DlError::InvalidParameter {
                name: "domain",
                reason: format!("need finite lower < upper, got [{lower}, {upper}]"),
            });
        }
        Ok(Self {
            domain: (lower, upper),
            config: FitConfig::default(),
            diffusion: Arc::new(ConstantField(0.01)),
            growth_override: None,
            capacity: Arc::new(ConstantField(25.0)),
        })
    }

    /// Replaces the shared scalar fit configuration (solver resolution,
    /// φ construction, growth family, initial time). A growth field set
    /// with [`VariableDlModelBuilder::growth`] keeps overriding the
    /// config's family, whichever call comes first.
    #[must_use]
    pub fn fit_config(mut self, config: FitConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the diffusion field `d(x)` (time argument is ignored by
    /// convention — Fickian diffusion with time-varying d is not part of
    /// the paper's roadmap).
    #[must_use]
    pub fn diffusion(mut self, field: impl SpatialField + 'static) -> Self {
        self.diffusion = Arc::new(field);
        self
    }

    /// Sets the growth field `r(x, t)`, overriding the config's
    /// (time-only) growth family.
    #[must_use]
    pub fn growth(mut self, field: impl SpatialField + 'static) -> Self {
        self.growth_override = Some(Arc::new(field));
        self
    }

    /// Sets the capacity field `K(x)`.
    #[must_use]
    pub fn capacity(mut self, field: impl SpatialField + 'static) -> Self {
        self.capacity = Arc::new(field);
        self
    }

    /// Sets the initial observation time (default 1.0).
    #[must_use]
    pub fn initial_time(mut self, t: f64) -> Self {
        self.config.initial_time = t;
        self
    }

    /// Sets the solver resolution.
    #[must_use]
    pub fn resolution(mut self, space_intervals: usize, dt: f64) -> Self {
        self.config.solver.space_intervals = space_intervals;
        self.config.solver.dt = dt;
        self
    }

    /// Builds the model from the initial integer-distance observations.
    ///
    /// # Errors
    ///
    /// Propagates φ-construction errors and validates the coefficient
    /// fields on the grid.
    pub fn build(self, observed_initial: &[f64]) -> Result<VariableDlModel> {
        let params = DlParameters::new(0.0, 1.0, self.domain.0, self.domain.1)?;
        let phi = InitialDensity::from_observations(&params, observed_initial, self.config.phi)?;
        let growth = self
            .growth_override
            .unwrap_or_else(|| Arc::new(TimeOnlyField(self.config.growth.exp_decay())));
        let model = VariableDlModel {
            domain: self.domain,
            diffusion: self.diffusion,
            growth,
            capacity: self.capacity,
            phi,
            initial_time: self.config.initial_time,
            space_intervals: self.config.solver.space_intervals,
            dt: self.config.solver.dt,
        };
        model.validate_fields()?;
        Ok(model)
    }
}

impl VariableDlModel {
    fn validate_fields(&self) -> Result<()> {
        let (lo, hi) = self.domain;
        for i in 0..=20 {
            let x = lo + (hi - lo) * f64::from(i) / 20.0;
            let d = self.diffusion.value(x, self.initial_time);
            if !d.is_finite() || d < 0.0 {
                return Err(DlError::InvalidParameter {
                    name: "diffusion",
                    reason: format!("d({x}) = {d} must be finite and >= 0"),
                });
            }
            let k = self.capacity.value(x, self.initial_time);
            if !k.is_finite() || k <= 0.0 {
                return Err(DlError::InvalidParameter {
                    name: "capacity",
                    reason: format!("K({x}) = {k} must be finite and positive"),
                });
            }
            let r = self.growth.value(x, self.initial_time);
            if !r.is_finite() || r < 0.0 {
                return Err(DlError::InvalidParameter {
                    name: "growth",
                    reason: format!("r({x}, t0) = {r} must be finite and >= 0"),
                });
            }
        }
        Ok(())
    }

    /// Solves the generalized equation to `t_end` with a theta-scheme
    /// (Crank–Nicolson) and a conservative face-centred discretization of
    /// `∂/∂x(d(x) ∂I/∂x)` under Neumann boundaries, recording every time
    /// step.
    ///
    /// # Errors
    ///
    /// * [`DlError::InvalidParameter`] — `t_end` not after the initial
    ///   time.
    /// * Propagates Newton/tridiagonal failures.
    pub fn solve_until(&self, t_end: f64) -> Result<PdeSolution> {
        self.solve_recording(t_end, None)
    }

    /// The Crank–Nicolson stepper behind [`VariableDlModel::solve_until`]
    /// and [`VariableDlModel::predict`]. Work buffers and the Jacobian's
    /// off-diagonals are built once per solve, and the coefficient fields
    /// are evaluated once per cell per time level. `query_times` selects
    /// checkpoint-only recording, as in [`crate::pde::solve_at`].
    fn solve_recording(&self, t_end: f64, query_times: Option<&[f64]>) -> Result<PdeSolution> {
        if !(t_end > self.initial_time) {
            return Err(DlError::InvalidParameter {
                name: "t_end",
                reason: format!("must exceed initial time {}", self.initial_time),
            });
        }
        let n = self.space_intervals + 1;
        let (lo, hi) = self.domain;
        let dx = (hi - lo) / self.space_intervals as f64;
        let xs: Vec<f64> = (0..n).map(|j| lo + j as f64 * dx).collect();
        let mut u: Vec<f64> = xs.iter().map(|&x| self.phi.value(x)).collect();

        // Face-centred diffusivities d_{j+1/2}, constant in time.
        let faces: Vec<f64> = (0..n - 1)
            .map(|j| {
                self.diffusion
                    .value(0.5 * (xs[j] + xs[j + 1]), self.initial_time)
            })
            .collect();
        let inv_dx2 = 1.0 / (dx * dx);

        // Conservative Laplacian with ghost-node Neumann closure.
        let lap = |v: &[f64], out: &mut [f64]| {
            out[0] = 2.0 * faces[0] * (v[1] - v[0]) * inv_dx2;
            for j in 1..n - 1 {
                out[j] =
                    (faces[j] * (v[j + 1] - v[j]) - faces[j - 1] * (v[j] - v[j - 1])) * inv_dx2;
            }
            out[n - 1] = 2.0 * faces[n - 2] * (v[n - 2] - v[n - 1]) * inv_dx2;
        };
        // Reaction from per-cell growth and capacity at one time level.
        let reaction = |r: &[f64], k: &[f64], v: &[f64], out: &mut [f64]| {
            for (j, (o, &vj)) in out.iter_mut().zip(v).enumerate() {
                *o = r[j] * vj * (1.0 - vj / k[j]);
            }
        };
        let fields_at = |t: f64, r: &mut [f64], k: &mut [f64]| {
            for (j, &x) in xs.iter().enumerate() {
                r[j] = self.growth.value(x, t);
                k[j] = self.capacity.value(x, t);
            }
        };

        let steps = ((t_end - self.initial_time) / self.dt).ceil() as usize;
        let dt = (t_end - self.initial_time) / steps as f64;
        let theta = 0.5;
        let explicit_weight = dt * (1.0 - theta);
        let implicit_weight = dt * theta;

        // Tridiagonal Jacobian with per-face couplings, doubled at the
        // boundary rows by ghost-node reflection.
        let a = implicit_weight * inv_dx2;
        let mut sub: Vec<f64> = faces.iter().map(|&d| -a * d).collect();
        let mut sup = sub.clone();
        sup[0] *= 2.0;
        sub[n - 2] *= 2.0;
        let diag_base: Vec<f64> = (0..n)
            .map(|j| {
                let lap_diag = if j == 0 {
                    2.0 * faces[0]
                } else if j == n - 1 {
                    2.0 * faces[n - 2]
                } else {
                    faces[j] + faces[j - 1]
                };
                1.0 + a * lap_diag
            })
            .collect();

        let mut lap_buf = vec![0.0; n];
        let mut f_buf = vec![0.0; n];
        let mut r_buf = vec![0.0; n];
        let mut k_buf = vec![0.0; n];
        let mut rhs = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut g = vec![0.0; n];
        let mut diag = vec![0.0; n];
        let mut delta = vec![0.0; n];
        let mut scratch = vec![0.0; n];

        let mut recorder = Recorder::new(query_times, steps, self.initial_time, &u);
        for s in 0..steps {
            let t_now = self.initial_time + s as f64 * dt;
            let t_next = t_now + dt;
            lap(&u, &mut lap_buf);
            fields_at(t_now, &mut r_buf, &mut k_buf);
            reaction(&r_buf, &k_buf, &u, &mut f_buf);
            for j in 0..n {
                rhs[j] = u[j] + explicit_weight * (lap_buf[j] + f_buf[j]);
            }

            v.copy_from_slice(&u);
            fields_at(t_next, &mut r_buf, &mut k_buf);
            let mut converged = false;
            for _ in 0..NEWTON_ITERATIONS {
                lap(&v, &mut lap_buf);
                reaction(&r_buf, &k_buf, &v, &mut f_buf);
                let res = residual(&v, &lap_buf, &f_buf, &rhs, implicit_weight, &mut g);
                if res < NEWTON_TOLERANCE {
                    converged = true;
                    break;
                }
                for j in 0..n {
                    let fprime = r_buf[j] * (1.0 - 2.0 * v[j] / k_buf[j]);
                    diag[j] = diag_base[j] - implicit_weight * fprime;
                }
                solve_thomas_into(&sub, &diag, &sup, &g, &mut scratch, &mut delta)?;
                for (vj, dj) in v.iter_mut().zip(&delta) {
                    *vj -= dj;
                }
            }
            if !converged {
                return Err(DlError::Numerics(
                    dlm_numerics::NumericsError::NoConvergence {
                        algorithm: "variable-coefficient newton",
                        iterations: NEWTON_ITERATIONS,
                        residual: f64::NAN,
                    },
                ));
            }
            recorder.advance(&u, t_next);
            std::mem::swap(&mut u, &mut v);
        }
        Ok(recorder.finish(xs, &u))
    }

    /// Predicts densities at integer distances and hours, like
    /// [`crate::model::DlModel::predict`], keeping only the solved rows
    /// those hours read.
    ///
    /// # Errors
    ///
    /// Propagates solve/interpolation errors.
    pub fn predict(&self, distances: &[u32], hours: &[u32]) -> Result<Prediction> {
        if distances.is_empty() || hours.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "distances/hours",
                reason: "must be nonempty".into(),
            });
        }
        let t_max = f64::from(*hours.iter().max().expect("nonempty"));
        let query_times: Vec<f64> = hours.iter().map(|&h| f64::from(h)).collect();
        let sol = self.solve_recording(t_max, Some(&query_times))?;
        let mut values = Vec::with_capacity(distances.len());
        for &d in distances {
            let mut row = Vec::with_capacity(hours.len());
            for &h in hours {
                row.push(sol.value_at(f64::from(d), f64::from(h))?);
            }
            values.push(row);
        }
        Prediction::from_values(distances.to_vec(), hours.to_vec(), values)
    }
}

/// Fits an independent `r_d(t) = a·e^{−b(t−1)} + c` per integer distance
/// against the observed density series (with a shared capacity), then
/// assembles them into a [`PerDistanceGrowth`] field — the refinement the
/// paper proposes for its Table II distance-5 failure.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — fewer than 2 distances observed.
/// * Propagates optimizer errors.
pub fn calibrate_per_distance_growth(
    observed: &DensityMatrix,
    capacity: f64,
    last_hour: u32,
) -> Result<PerDistanceGrowth> {
    let series: Vec<Vec<f64>> = (1..=observed.max_distance())
        .map(|d| observed.series(d).map(<[f64]>::to_vec))
        .collect::<dlm_cascade::Result<_>>()?;
    // Matrix series always start at hour 1 and carry one entry per hour.
    calibrate_per_distance_growth_series(&series, capacity, 1, last_hour.min(observed.max_hour()))
}

/// [`calibrate_per_distance_growth`] over raw hourly series — the form the
/// [`crate::predict::DiffusionPredictor`] layer uses. `series[i]` is the
/// observed density of distance group `i + 1` at the consecutive absolute
/// hours `initial_hour, initial_hour + 1, …`; the objective integrates in
/// absolute time so the fitted curves evaluate correctly wherever the
/// observation window starts. `fit_hours` caps how many leading entries
/// of each series the fit uses.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — fewer than 2 distance series, or
///   fewer than 2 usable observed hours per distance.
/// * Propagates optimizer errors.
pub fn calibrate_per_distance_growth_series(
    series: &[Vec<f64>],
    capacity: f64,
    initial_hour: u32,
    fit_hours: u32,
) -> Result<PerDistanceGrowth> {
    calibrate_per_distance_growth_series_multi(
        series,
        capacity,
        initial_hour,
        fit_hours,
        MultiStartConfig::default(),
    )
}

/// [`calibrate_per_distance_growth_series`] with an explicit multi-start
/// strategy: each distance's growth-curve fit runs
/// `multi_start.starts` independent Nelder–Mead searches (the classic
/// `[1, 1, 0.2]` seed as start 0 plus stratified restarts over the
/// `(a, b, c)` seeding box, see `docs/CALIBRATION.md`), fanned onto the
/// [`dlm_numerics::pool`] executor, keeping the best objective per
/// distance under the bitwise total-order tie-break. The per-start
/// budget is fixed at 2 000 evaluations (the classic single-start
/// budget), so `multi_start.local` is ignored here and the single-start
/// default reproduces [`calibrate_per_distance_growth_series`] exactly.
///
/// # Errors
///
/// Same conditions as [`calibrate_per_distance_growth_series`].
pub fn calibrate_per_distance_growth_series_multi(
    series: &[Vec<f64>],
    capacity: f64,
    initial_hour: u32,
    fit_hours: u32,
    multi_start: MultiStartConfig,
) -> Result<PerDistanceGrowth> {
    if series.len() < 2 {
        return Err(DlError::InvalidParameter {
            name: "observed",
            reason: "need at least 2 distance groups".into(),
        });
    }
    let shortest = series.iter().map(Vec::len).min().unwrap_or(0);
    let fit_hours = fit_hours.min(shortest as u32);
    if fit_hours < 2 {
        return Err(DlError::InvalidParameter {
            name: "observed",
            reason: "need at least 2 observed hours per distance".into(),
        });
    }
    let mut curves = Vec::with_capacity(series.len());
    for series in series {
        let y0 = series[0].max(1e-6);
        // Objective: logistic ODE with r(t) candidate vs the observed series,
        // integrated with a cheap fixed-step scheme.
        let target: Vec<f64> = series[..fit_hours as usize].to_vec();
        let objective = move |p: &[f64]| -> f64 {
            let (a, b, c) = (p[0], p[1], p[2]);
            if !(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + c < 20.0) {
                return f64::INFINITY;
            }
            // Integrate dy/dt = r(t) y (1 - y/K) hourly with RK4 substeps.
            let mut y = y0;
            let mut err = 0.0;
            let mut count = 0usize;
            let sub = 20usize;
            for (hour_idx, &obs) in target.iter().enumerate().skip(1) {
                // Absolute time of the interval start: series entry k sits
                // at hour initial_hour + k.
                let t0 = f64::from(initial_hour) + (hour_idx - 1) as f64;
                let h = 1.0 / sub as f64;
                for s in 0..sub {
                    let t = t0 + s as f64 * h;
                    let r = |tt: f64| a * (-b * (tt - 1.0)).exp() + c;
                    let f = |tt: f64, yy: f64| r(tt) * yy * (1.0 - yy / capacity);
                    let k1 = f(t, y);
                    let k2 = f(t + 0.5 * h, y + 0.5 * h * k1);
                    let k3 = f(t + 0.5 * h, y + 0.5 * h * k2);
                    let k4 = f(t + h, y + h * k3);
                    y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
                }
                if obs > 0.0 {
                    let rel = (y - obs) / obs;
                    err += rel * rel;
                    count += 1;
                }
            }
            if count == 0 {
                f64::INFINITY
            } else {
                err / count as f64
            }
        };
        // Seeding box for the (a, b, c) restarts; the hard constraint
        // a + c < 20 in the objective stays authoritative.
        let bounds = [(0.0, 4.0), (0.0, 4.0), (0.0, 2.0)];
        let fit = multi_start_nelder_mead(
            objective,
            &[1.0, 1.0, 0.2],
            &bounds,
            MultiStartConfig {
                local: NelderMeadConfig {
                    max_evals: 2_000,
                    ..NelderMeadConfig::default()
                },
                ..multi_start
            },
        )?;
        curves.push(ExpDecayGrowth::new(
            fit.best.x[0].max(0.0),
            fit.best.x[1].max(0.0),
            fit.best.x[2].max(0.0),
        ));
    }
    PerDistanceGrowth::new(1.0, curves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::GrowthRate;
    use dlm_numerics::tridiag::solve_thomas;

    const OBS: [f64; 6] = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];

    /// The variable-coefficient stepper as it stood before the
    /// allocation-free rewrite, kept verbatim as a bit-identity oracle.
    impl VariableDlModel {
        fn reference_solve_until(&self, t_end: f64) -> Result<crate::pde::PdeSolution> {
            if !(t_end > self.initial_time) {
                return Err(DlError::InvalidParameter {
                    name: "t_end",
                    reason: format!("must exceed initial time {}", self.initial_time),
                });
            }
            let n = self.space_intervals + 1;
            let (lo, hi) = self.domain;
            let dx = (hi - lo) / self.space_intervals as f64;
            let xs: Vec<f64> = (0..n).map(|j| lo + j as f64 * dx).collect();
            let mut u: Vec<f64> = xs.iter().map(|&x| self.phi.value(x)).collect();

            // Face-centred diffusivities d_{j+1/2}, constant in time.
            let faces: Vec<f64> = (0..n - 1)
                .map(|j| {
                    self.diffusion
                        .value(0.5 * (xs[j] + xs[j + 1]), self.initial_time)
                })
                .collect();
            let inv_dx2 = 1.0 / (dx * dx);

            // Conservative Laplacian with ghost-node Neumann closure.
            let lap = |v: &[f64], out: &mut [f64]| {
                out[0] = 2.0 * faces[0] * (v[1] - v[0]) * inv_dx2;
                for j in 1..n - 1 {
                    out[j] =
                        (faces[j] * (v[j + 1] - v[j]) - faces[j - 1] * (v[j] - v[j - 1])) * inv_dx2;
                }
                out[n - 1] = 2.0 * faces[n - 2] * (v[n - 2] - v[n - 1]) * inv_dx2;
            };
            let reaction = |t: f64, v: &[f64], out: &mut [f64]| {
                for (j, (o, &vj)) in out.iter_mut().zip(v).enumerate() {
                    let r = self.growth.value(xs[j], t);
                    let k = self.capacity.value(xs[j], t);
                    *o = r * vj * (1.0 - vj / k);
                }
            };

            let steps = ((t_end - self.initial_time) / self.dt).ceil() as usize;
            let dt = (t_end - self.initial_time) / steps as f64;
            let theta = 0.5;

            let mut times = Vec::with_capacity(steps + 1);
            let mut values = Vec::with_capacity(steps + 1);
            times.push(self.initial_time);
            values.push(u.clone());
            let mut lap_buf = vec![0.0; n];
            let mut f_buf = vec![0.0; n];

            for s in 0..steps {
                let t_now = self.initial_time + s as f64 * dt;
                let t_next = t_now + dt;
                lap(&u, &mut lap_buf);
                reaction(t_now, &u, &mut f_buf);
                let rhs: Vec<f64> = (0..n)
                    .map(|j| u[j] + dt * (1.0 - theta) * (lap_buf[j] + f_buf[j]))
                    .collect();

                let mut v = u.clone();
                let mut converged = false;
                for _ in 0..30 {
                    lap(&v, &mut lap_buf);
                    reaction(t_next, &v, &mut f_buf);
                    let g: Vec<f64> = (0..n)
                        .map(|j| v[j] - dt * theta * (lap_buf[j] + f_buf[j]) - rhs[j])
                        .collect();
                    let res = g.iter().map(|x| x.abs()).fold(0.0, f64::max);
                    if res < 1e-11 {
                        converged = true;
                        break;
                    }
                    // Tridiagonal Jacobian with per-face couplings.
                    let a = dt * theta * inv_dx2;
                    let mut sub: Vec<f64> = (0..n - 1).map(|j| -a * faces[j]).collect();
                    let mut sup: Vec<f64> = (0..n - 1).map(|j| -a * faces[j]).collect();
                    sup[0] *= 2.0;
                    sub[n - 2] *= 2.0;
                    let diag: Vec<f64> = (0..n)
                        .map(|j| {
                            let r = self.growth.value(xs[j], t_next);
                            let k = self.capacity.value(xs[j], t_next);
                            let fprime = r * (1.0 - 2.0 * v[j] / k);
                            let lap_diag = if j == 0 {
                                2.0 * faces[0]
                            } else if j == n - 1 {
                                2.0 * faces[n - 2]
                            } else {
                                faces[j] + faces[j - 1]
                            };
                            1.0 + a * lap_diag - dt * theta * fprime
                        })
                        .collect();
                    let delta = solve_thomas(&sub, &diag, &sup, &g)?;
                    for j in 0..n {
                        v[j] -= delta[j];
                    }
                }
                if !converged {
                    return Err(DlError::Numerics(
                        dlm_numerics::NumericsError::NoConvergence {
                            algorithm: "variable-coefficient newton",
                            iterations: 30,
                            residual: f64::NAN,
                        },
                    ));
                }
                u = v;
                times.push(t_next);
                values.push(u.clone());
            }
            crate::pde::PdeSolution::from_parts(xs, times, values)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Models exercising every coefficient path: constant, separable and
    /// per-distance growth, variable diffusion and spatial capacity.
    fn oracle_models() -> Vec<(&'static str, VariableDlModelBuilder)> {
        let base = VariableDlModelBuilder::new(1.0, 6.0).unwrap();
        vec![
            ("constant", base.clone()),
            (
                "separable growth",
                base.clone().growth(
                    SeparableField::new(
                        &[1.0, 5.0, 6.0],
                        &[1.0, 1.0, 3.0],
                        ExpDecayGrowth::paper_hops(),
                    )
                    .unwrap(),
                ),
            ),
            (
                "per-distance growth",
                base.clone().growth(
                    PerDistanceGrowth::new(
                        1.0,
                        vec![
                            ExpDecayGrowth::new(0.5, 1.0, 0.1),
                            ExpDecayGrowth::new(2.0, 1.0, 0.4),
                            ExpDecayGrowth::paper_hops(),
                        ],
                    )
                    .unwrap(),
                ),
            ),
            (
                "variable diffusion and capacity",
                base.diffusion(
                    SeparableField::new(
                        &[1.0, 3.5, 6.0],
                        &[0.0, 0.4, 0.05],
                        ExpDecayGrowth::new(0.0, 0.0, 1.0),
                    )
                    .unwrap(),
                )
                .capacity(
                    SeparableField::new(
                        &[1.0, 3.0, 6.0],
                        &[25.0, 25.0, 5.0],
                        ExpDecayGrowth::new(0.0, 0.0, 1.0),
                    )
                    .unwrap(),
                ),
            ),
        ]
    }

    #[test]
    fn variable_stepper_matches_reference_bit_for_bit() {
        let profiles: [&[f64]; 3] = [
            &OBS,
            &[30.0, 26.0, 41.0, 27.0, 33.0, 28.0],
            &[0.0, 0.0, 9.0, 0.0, 0.0, 0.0],
        ];
        for (name, builder) in oracle_models() {
            for profile in profiles {
                for (intervals, dt) in [(25, 0.05), (40, 0.01), (100, 0.002), (100, 0.5)] {
                    let model = builder
                        .clone()
                        .resolution(intervals, dt)
                        .build(profile)
                        .unwrap();
                    let label = format!("{name} {profile:?} {intervals}/{dt}");
                    let got = model.solve_until(3.0);
                    let want = model.reference_solve_until(3.0);
                    match (&got, &want) {
                        (Ok(got), Ok(want)) => {
                            assert_eq!(bits(got.times()), bits(want.times()), "{label}");
                            assert_eq!(got.values().len(), want.values().len(), "{label}");
                            for (a, b) in got.values().iter().zip(want.values()) {
                                assert_eq!(bits(a), bits(b), "{label}");
                            }
                        }
                        (Err(got), Err(want)) => {
                            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}");
                        }
                        _ => panic!("{label}: {got:?} vs {want:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn variable_predict_reads_the_same_bits_as_the_reference() {
        let distances = [1u32, 2, 3, 4, 5, 6];
        let hour_sets: [&[u32]; 4] = [&[2, 3, 4], &[4, 2, 2], &[3], &[5, 2, 4, 3]];
        for (name, builder) in oracle_models() {
            for (intervals, dt) in [(25, 0.05), (100, 0.01)] {
                let model = builder
                    .clone()
                    .resolution(intervals, dt)
                    .build(&OBS)
                    .unwrap();
                for hours in hour_sets {
                    let label = format!("{name} {intervals}/{dt} {hours:?}");
                    let t_max = f64::from(*hours.iter().max().unwrap());
                    let full = model.reference_solve_until(t_max).unwrap();
                    let got = model.predict(&distances, hours).unwrap();
                    for &d in &distances {
                        for &h in hours {
                            let want = full.value_at(f64::from(d), f64::from(h)).unwrap();
                            let got = got.at(d, h).unwrap();
                            assert_eq!(got.to_bits(), want.to_bits(), "{label}: ({d}, {h})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn constant_fields_reduce_to_classic_model() {
        // With constant coefficients the generalized solver must agree
        // with the classic one.
        let classic = crate::model::DlModel::paper_hops(&OBS).unwrap();
        let general = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .diffusion(ConstantField(0.01))
            .growth(TimeOnlyField(ExpDecayGrowth::paper_hops()))
            .capacity(ConstantField(25.0))
            .build(&OBS)
            .unwrap();
        let dists = [1u32, 3, 6];
        let hours = [3u32, 6];
        let a = classic.predict(&dists, &hours).unwrap();
        let b = general.predict(&dists, &hours).unwrap();
        for &d in &dists {
            for &h in &hours {
                let va = a.at(d, h).unwrap();
                let vb = b.at(d, h).unwrap();
                assert!((va - vb).abs() < 1e-6, "d={d} h={h}: {va} vs {vb}");
            }
        }
    }

    #[test]
    fn spatially_varying_growth_changes_profile_shape() {
        // Boost growth only near x = 6: the far end must outgrow the near
        // end relative to the uniform model.
        let uniform = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .build(&[1.0; 6])
            .unwrap();
        let boosted = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .growth(
                SeparableField::new(
                    &[1.0, 5.0, 6.0],
                    &[1.0, 1.0, 3.0],
                    ExpDecayGrowth::paper_hops(),
                )
                .unwrap(),
            )
            .build(&[1.0; 6])
            .unwrap();
        let pu = uniform.predict(&[6], &[4]).unwrap().at(6, 4).unwrap();
        let pb = boosted.predict(&[6], &[4]).unwrap().at(6, 4).unwrap();
        assert!(pb > pu + 0.1, "boosted {pb} !> uniform {pu}");
    }

    #[test]
    fn spatially_varying_capacity_caps_locally() {
        // K(x) low at the far end: with no diffusion the dynamics are
        // pointwise logistic, so the far end must respect its local K
        // exactly. (With d > 0 diffusion legitimately pushes the low-K
        // region slightly above K at steady state — influx balances the
        // logistic sink.)
        let model = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .diffusion(ConstantField(0.0))
            .capacity(
                SeparableField::new(
                    &[1.0, 3.0, 6.0],
                    &[25.0, 25.0, 5.0],
                    ExpDecayGrowth::new(0.0, 0.0, 1.0), // s(x)*1.0: pure spatial K
                )
                .unwrap(),
            )
            .build(&[2.0; 6])
            .unwrap();
        let sol = model.solve_until(60.0).unwrap();
        let last = sol.values().last().unwrap();
        let x6 = sol.grid().len() - 1;
        assert!(
            last[x6] <= 5.0 + 1e-6,
            "far end exceeded its local K: {}",
            last[x6]
        );
        assert!(last[0] > 20.0, "near end should approach 25: {}", last[0]);
    }

    #[test]
    fn variable_diffusion_transports_where_d_is_large() {
        // d(x) = 0 on the left half, large on the right: the right half
        // must flatten while the left half keeps its shape.
        let model = VariableDlModelBuilder::new(1.0, 7.0)
            .unwrap()
            .diffusion(
                SeparableField::new(
                    &[1.0, 4.0, 4.001, 7.0],
                    &[0.0, 0.0, 0.8, 0.8],
                    ExpDecayGrowth::new(0.0, 0.0, 1.0),
                )
                .unwrap(),
            )
            .growth(TimeOnlyField(ExpDecayGrowth::new(0.0, 0.0, 0.0))) // no reaction
            .capacity(ConstantField(25.0))
            .build(&[4.0, 1.0, 4.0, 1.0, 4.0, 1.0, 4.0])
            .unwrap();
        let sol = model.solve_until(30.0).unwrap();
        let last = sol.values().last().unwrap();
        let xs = sol.grid();
        let spread = |lo: f64, hi: f64| {
            let vals: Vec<f64> = xs
                .iter()
                .zip(last)
                .filter(|(x, _)| **x >= lo && **x <= hi)
                .map(|(_, v)| *v)
                .collect();
            vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - vals.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        assert!(
            spread(5.0, 7.0) < 0.1,
            "right half not flattened: {}",
            spread(5.0, 7.0)
        );
        assert!(
            spread(1.0, 3.5) > 1.0,
            "left half should keep its bumps: {}",
            spread(1.0, 3.5)
        );
    }

    #[test]
    fn per_distance_growth_interpolates_between_curves() {
        let slow = ExpDecayGrowth::new(0.5, 1.0, 0.1);
        let fast = ExpDecayGrowth::new(2.0, 1.0, 0.4);
        let field = PerDistanceGrowth::new(1.0, vec![slow, fast]).unwrap();
        assert!((field.value(1.0, 1.0) - slow.rate(1.0)).abs() < 1e-12);
        assert!((field.value(2.0, 1.0) - fast.rate(1.0)).abs() < 1e-12);
        let mid = field.value(1.5, 1.0);
        assert!((mid - 0.5 * (slow.rate(1.0) + fast.rate(1.0))).abs() < 1e-12);
        // Clamped beyond the table.
        assert_eq!(field.value(99.0, 2.0), fast.rate(2.0));
        assert_eq!(field.value(0.0, 2.0), slow.rate(2.0));
    }

    #[test]
    fn per_distance_calibration_recovers_heterogeneous_rates() {
        // Build observations where distance 1 grows fast and distance 2
        // grows slowly; the fitted field must preserve that ordering.
        let capacity = 25.0;
        let logistic = |t: f64, y0: f64, r: f64| {
            capacity / (1.0 + (capacity / y0 - 1.0) * (-r * (t - 1.0)).exp())
        };
        let pop = 100_000usize;
        let counts: Vec<Vec<usize>> = [(2.0, 1.2f64), (2.0, 0.3f64)]
            .iter()
            .map(|&(y0, r)| {
                (1..=6)
                    .map(|h| ((logistic(f64::from(h), y0, r) / 100.0) * pop as f64) as usize)
                    .collect()
            })
            .collect();
        let observed = DensityMatrix::from_counts(&counts, &[pop; 2]).unwrap();
        let field = calibrate_per_distance_growth(&observed, capacity, 6).unwrap();
        // Effective early rate at distance 1 must exceed distance 2's.
        assert!(
            field.value(1.0, 1.5) > field.value(2.0, 1.5) + 0.2,
            "{} vs {}",
            field.value(1.0, 1.5),
            field.value(2.0, 1.5)
        );
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        assert!(VariableDlModelBuilder::new(6.0, 1.0).is_err());
        let b = VariableDlModelBuilder::new(1.0, 6.0).unwrap();
        assert!(b
            .clone()
            .diffusion(ConstantField(-1.0))
            .build(&OBS)
            .is_err());
        assert!(b.clone().capacity(ConstantField(0.0)).build(&OBS).is_err());
        let m = b.build(&OBS).unwrap();
        assert!(m.solve_until(0.5).is_err());
        assert!(m.predict(&[], &[2]).is_err());
    }

    #[test]
    fn calibration_rejects_single_distance() {
        let observed = DensityMatrix::from_counts(&[vec![1, 2, 3]], &[100]).unwrap();
        assert!(calibrate_per_distance_growth(&observed, 25.0, 3).is_err());
    }

    #[test]
    fn series_calibration_is_anchored_in_absolute_time() {
        // Generate series at absolute hours 4..=7 from a known decaying
        // growth curve; the fitted field must reproduce the trajectory
        // when integrated over the SAME absolute window. A fit that
        // silently re-anchors the series at hour 1 sees a much steeper
        // effective decay and fails this round trip.
        let capacity = 25.0;
        let truth = ExpDecayGrowth::new(2.0, 1.0, 0.2);
        let integrate = |r: &dyn Fn(f64) -> f64, mut y: f64, t0: f64, t1: f64| -> f64 {
            let steps = ((t1 - t0) / 0.005).ceil() as usize;
            let h = (t1 - t0) / steps as f64;
            for s in 0..steps {
                let t = t0 + s as f64 * h;
                let f = |tt: f64, yy: f64| r(tt) * yy * (1.0 - yy / capacity);
                let k1 = f(t, y);
                let k2 = f(t + 0.5 * h, y + 0.5 * h * k1);
                let k3 = f(t + 0.5 * h, y + 0.5 * h * k2);
                let k4 = f(t + h, y + h * k3);
                y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
            }
            y
        };
        let series_from = |y0: f64| -> Vec<f64> {
            let mut out = vec![y0];
            for hour in 4..7 {
                let prev = *out.last().unwrap();
                out.push(integrate(
                    &|t| truth.rate(t),
                    prev,
                    f64::from(hour),
                    f64::from(hour) + 1.0,
                ));
            }
            out
        };
        let series = [series_from(2.0), series_from(1.0)];
        let field = calibrate_per_distance_growth_series(&series, capacity, 4, 4).unwrap();
        for (i, s) in series.iter().enumerate() {
            let x = 1.0 + i as f64;
            let got = integrate(&|t| field.value(x, t), s[0], 4.0, 7.0);
            let want = s[3];
            assert!(
                (got - want).abs() / want < 0.05,
                "distance {}: fitted trajectory {got} vs observed {want}",
                i + 1
            );
        }
    }
}
