//! The [`DlModel`] facade: the paper's end-to-end prediction pipeline.
//!
//! Construct a model from hour-1 observations (building φ per §II.D),
//! solve the DL equation forward, and read off predicted densities at the
//! integer distances and hours the evaluation compares against ("in online
//! social networks, the density is only meaningful when distance is
//! integer").

use crate::error::{DlError, Result};
use crate::growth::{ExpDecayGrowth, GrowthRate};
use crate::initial::{InitialDensity, PhiConstruction};
use crate::params::DlParameters;
use crate::pde::{solve, solve_at, PdeSolution, SolverConfig};
use crate::predict::FitConfig;
use std::sync::Arc;

/// A configured diffusive logistic model, ready to solve and predict.
///
/// Build with [`DlModelBuilder`]; the two paper presets are available as
/// [`DlModel::paper_hops`] and [`DlModel::paper_interest`].
///
/// # Examples
///
/// ```
/// use dlm_core::model::DlModel;
///
/// # fn main() -> Result<(), dlm_core::DlError> {
/// // Hour-1 densities at distances 1..=6, as in Figure 7a's lowest line.
/// let observed = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];
/// let model = DlModel::paper_hops(&observed)?;
/// let prediction = model.predict(&[1, 2, 3, 4, 5, 6], &[2, 3, 4, 5, 6])?;
/// // Densities grow over time (strictly increasing property).
/// assert!(prediction.at(1, 6)? > prediction.at(1, 2)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DlModel {
    params: DlParameters,
    growth: Arc<dyn GrowthRate + Send + Sync>,
    phi: InitialDensity,
    solver: SolverConfig,
    initial_time: f64,
}

/// Builder for [`DlModel`].
///
/// All scalar fitting options live in a shared [`FitConfig`] (the same
/// struct [`crate::variable::VariableDlModelBuilder`] consumes); the
/// individual setters below are conveniences writing through to it. An
/// explicit [`DlModelBuilder::growth`] call overrides the config's
/// [`crate::predict::GrowthFamily`] with an arbitrary [`GrowthRate`]
/// implementation.
#[derive(Debug, Clone)]
pub struct DlModelBuilder {
    params: DlParameters,
    config: FitConfig,
    growth_override: Option<Arc<dyn GrowthRate + Send + Sync>>,
}

impl DlModelBuilder {
    /// Starts a builder with the given scalar parameters and the default
    /// [`FitConfig`] (paper growth, flat-ended spline φ, default solver,
    /// initial time 1).
    #[must_use]
    pub fn new(params: DlParameters) -> Self {
        Self {
            params,
            config: FitConfig::default(),
            growth_override: None,
        }
    }

    /// Replaces the fit configuration. A growth curve set with
    /// [`DlModelBuilder::growth`] keeps overriding the config's family,
    /// whichever call comes first.
    #[must_use]
    pub fn fit_config(mut self, config: FitConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the growth-rate function `r(t)`, overriding the config's
    /// growth family (accepts arbitrary implementations, e.g.
    /// [`crate::growth::FnGrowth`]).
    #[must_use]
    pub fn growth(mut self, growth: impl GrowthRate + Send + Sync + 'static) -> Self {
        self.growth_override = Some(Arc::new(growth));
        self
    }

    /// Sets the φ interpolation scheme.
    #[must_use]
    pub fn phi_construction(mut self, construction: PhiConstruction) -> Self {
        self.config.phi = construction;
        self
    }

    /// Sets the PDE solver configuration.
    #[must_use]
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.config.solver = solver;
        self
    }

    /// Sets the time of the initial observation (default 1.0 — the
    /// paper's first hour).
    #[must_use]
    pub fn initial_time(mut self, t: f64) -> Self {
        self.config.initial_time = t;
        self
    }

    /// Builds the model from the hour-`initial_time` density observations
    /// at integer distances `l, l+1, …`.
    ///
    /// # Errors
    ///
    /// Propagates φ-construction validation errors.
    pub fn build(self, observed_initial: &[f64]) -> Result<DlModel> {
        let phi =
            InitialDensity::from_observations(&self.params, observed_initial, self.config.phi)?;
        let growth = self
            .growth_override
            .unwrap_or_else(|| self.config.growth.build());
        Ok(DlModel {
            params: self.params,
            growth,
            phi,
            solver: self.config.solver,
            initial_time: self.config.initial_time,
        })
    }
}

/// Predicted densities at integer distances and hours.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    distances: Vec<u32>,
    hours: Vec<u32>,
    /// values[di][hi] — prediction for distances[di] at hours[hi].
    values: Vec<Vec<f64>>,
}

impl Prediction {
    /// Assembles a prediction from raw values: `values[di][hi]` is the
    /// density predicted for `distances[di]` at `hours[hi]`. Used by the
    /// baseline predictors in [`crate::baselines`].
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for empty or ragged inputs.
    pub fn from_values(
        distances: Vec<u32>,
        hours: Vec<u32>,
        values: Vec<Vec<f64>>,
    ) -> Result<Self> {
        if distances.is_empty() || hours.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "distances/hours",
                reason: "must be nonempty".into(),
            });
        }
        if values.len() != distances.len() || values.iter().any(|row| row.len() != hours.len()) {
            return Err(DlError::InvalidParameter {
                name: "values",
                reason: format!("need {} rows of {} values", distances.len(), hours.len()),
            });
        }
        Ok(Self {
            distances,
            hours,
            values,
        })
    }

    /// Distances covered by the prediction.
    #[must_use]
    pub fn distances(&self) -> &[u32] {
        &self.distances
    }

    /// Hours covered by the prediction.
    #[must_use]
    pub fn hours(&self) -> &[u32] {
        &self.hours
    }

    /// Predicted density at `(distance, hour)`.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::OutOfDomain`] if the pair was not requested.
    pub fn at(&self, distance: u32, hour: u32) -> Result<f64> {
        let di =
            self.distances
                .iter()
                .position(|&d| d == distance)
                .ok_or(DlError::OutOfDomain {
                    axis: "distance",
                    value: f64::from(distance),
                    range: (
                        f64::from(*self.distances.first().unwrap_or(&0)),
                        f64::from(*self.distances.last().unwrap_or(&0)),
                    ),
                })?;
        let hi = self
            .hours
            .iter()
            .position(|&h| h == hour)
            .ok_or(DlError::OutOfDomain {
                axis: "time",
                value: f64::from(hour),
                range: (
                    f64::from(*self.hours.first().unwrap_or(&0)),
                    f64::from(*self.hours.last().unwrap_or(&0)),
                ),
            })?;
        Ok(self.values[di][hi])
    }

    /// The raw values, `values[di][hi]` as in [`Prediction::from_values`].
    pub(crate) fn into_values(self) -> Vec<Vec<f64>> {
        self.values
    }

    /// Predicted spatial profile (one value per distance) at `hour`.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::OutOfDomain`] if `hour` was not requested.
    pub fn profile_at(&self, hour: u32) -> Result<Vec<f64>> {
        let hi = self
            .hours
            .iter()
            .position(|&h| h == hour)
            .ok_or(DlError::OutOfDomain {
                axis: "time",
                value: f64::from(hour),
                range: (0.0, 0.0),
            })?;
        Ok(self.values.iter().map(|row| row[hi]).collect())
    }
}

impl DlModel {
    /// The paper's friendship-hop configuration: `d = 0.01`, `K = 25`,
    /// Eq.-7 growth, domain `[1, observed.len()]`.
    ///
    /// # Errors
    ///
    /// Propagates parameter/φ validation errors.
    pub fn paper_hops(observed_initial: &[f64]) -> Result<Self> {
        let params = DlParameters::paper_hops(observed_initial.len() as u32)?;
        DlModelBuilder::new(params)
            .growth(ExpDecayGrowth::paper_hops())
            .build(observed_initial)
    }

    /// The paper's shared-interest configuration: `d = 0.05`, `K = 60`,
    /// `r(t) = 1.6·e^{−(t−1)} + 0.1`.
    ///
    /// # Errors
    ///
    /// Propagates parameter/φ validation errors.
    pub fn paper_interest(observed_initial: &[f64]) -> Result<Self> {
        let params = DlParameters::paper_interest(observed_initial.len() as u32)?;
        DlModelBuilder::new(params)
            .growth(ExpDecayGrowth::paper_interest())
            .build(observed_initial)
    }

    /// The scalar parameters.
    #[must_use]
    pub fn params(&self) -> &DlParameters {
        &self.params
    }

    /// The growth-rate function.
    #[must_use]
    pub fn growth(&self) -> &(dyn GrowthRate + Send + Sync) {
        self.growth.as_ref()
    }

    /// The initial density function φ.
    #[must_use]
    pub fn phi(&self) -> &InitialDensity {
        &self.phi
    }

    /// The time of the initial observation.
    #[must_use]
    pub fn initial_time(&self) -> f64 {
        self.initial_time
    }

    /// Solves the PDE from the initial time up to `t_end`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; `t_end` must exceed the initial time.
    pub fn solve_until(&self, t_end: f64) -> Result<PdeSolution> {
        solve(
            &self.params,
            self.growth.as_ref(),
            &self.phi,
            self.initial_time,
            t_end,
            &self.solver,
        )
    }

    /// Predicts densities at the given integer distances and hours.
    ///
    /// Solves through [`crate::pde::solve_at`], which keeps only the rows
    /// these hours read; the values equal reading [`DlModel::solve_until`]
    /// at the same points, bit for bit.
    ///
    /// # Errors
    ///
    /// * [`DlError::InvalidParameter`] — empty distance/hour lists, or
    ///   hours at/before the initial time.
    /// * [`DlError::OutOfDomain`] — a distance outside `[l, L]`.
    /// * Propagates solver errors.
    pub fn predict(&self, distances: &[u32], hours: &[u32]) -> Result<Prediction> {
        if distances.is_empty() || hours.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "distances/hours",
                reason: "must be nonempty".into(),
            });
        }
        let t_max = f64::from(*hours.iter().max().expect("nonempty"));
        if t_max <= self.initial_time {
            return Err(DlError::InvalidParameter {
                name: "hours",
                reason: format!(
                    "latest requested hour {t_max} must exceed the initial time {}",
                    self.initial_time
                ),
            });
        }
        let query_times: Vec<f64> = hours.iter().map(|&h| f64::from(h)).collect();
        let solution = solve_at(
            &self.params,
            self.growth.as_ref(),
            &self.phi,
            self.initial_time,
            &query_times,
            &self.solver,
        )?;
        let mut values = Vec::with_capacity(distances.len());
        for &d in distances {
            let mut row = Vec::with_capacity(hours.len());
            for &h in hours {
                row.push(solution.value_at(f64::from(d), f64::from(h))?);
            }
            values.push(row);
        }
        Ok(Prediction {
            distances: distances.to_vec(),
            hours: hours.to_vec(),
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::ConstantGrowth;
    use crate::pde::SolverMethod;

    const OBS: [f64; 6] = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];

    #[test]
    fn paper_hops_preset_predicts_growth() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        let p = model
            .predict(&[1, 2, 3, 4, 5, 6], &[2, 3, 4, 5, 6])
            .unwrap();
        for d in 1..=6 {
            let mut prev = 0.0;
            for h in 2..=6 {
                let v = p.at(d, h).unwrap();
                assert!(v > prev, "not increasing at d={d}, h={h}");
                assert!(v <= 25.0 + 1e-6, "exceeded K");
                prev = v;
            }
        }
    }

    #[test]
    fn paper_interest_preset_has_its_parameters() {
        let model = DlModel::paper_interest(&OBS[..5]).unwrap();
        assert_eq!(model.params().diffusion(), 0.05);
        assert_eq!(model.params().capacity(), 60.0);
        assert!(model.growth().describe().contains("1.6"));
    }

    #[test]
    fn prediction_interpolates_initial_condition_forward() {
        // At hour 2 with tiny growth and diffusion, the profile is close to φ.
        let params = DlParameters::new(1e-6, 25.0, 1.0, 6.0).unwrap();
        let model = DlModelBuilder::new(params)
            .growth(ConstantGrowth::new(1e-6))
            .build(&OBS)
            .unwrap();
        let p = model.predict(&[1, 2, 3, 4, 5, 6], &[2]).unwrap();
        for (i, &obs) in OBS.iter().enumerate() {
            assert!((p.at(i as u32 + 1, 2).unwrap() - obs).abs() < 1e-3);
        }
    }

    #[test]
    fn builder_options_apply() {
        let params = DlParameters::paper_hops(6).unwrap();
        let model = DlModelBuilder::new(params)
            .growth(ConstantGrowth::new(0.3))
            .phi_construction(crate::initial::PhiConstruction::Linear)
            .solver(SolverConfig {
                method: SolverMethod::Rk4,
                space_intervals: 50,
                dt: 0.002,
            })
            .initial_time(2.0)
            .build(&OBS)
            .unwrap();
        assert_eq!(model.initial_time(), 2.0);
        assert_eq!(
            model.phi().construction(),
            crate::initial::PhiConstruction::Linear
        );
        let p = model.predict(&[1, 3], &[3, 4]).unwrap();
        assert!(p.at(1, 4).unwrap() > 0.0);
    }

    #[test]
    fn predict_rejects_bad_requests() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        assert!(model.predict(&[], &[2]).is_err());
        assert!(model.predict(&[1], &[]).is_err());
        assert!(model.predict(&[1], &[1]).is_err()); // not beyond initial time
        assert!(model.predict(&[99], &[3]).is_err()); // outside [1, 6]
    }

    #[test]
    fn prediction_accessors() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        let p = model.predict(&[1, 2], &[2, 3]).unwrap();
        assert_eq!(p.distances(), &[1, 2]);
        assert_eq!(p.hours(), &[2, 3]);
        let profile = p.profile_at(3).unwrap();
        assert_eq!(profile.len(), 2);
        assert!(p.at(3, 2).is_err());
        assert!(p.at(1, 9).is_err());
        assert!(p.profile_at(9).is_err());
    }

    #[test]
    fn solve_until_exposes_full_field() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        let sol = model.solve_until(6.0).unwrap();
        assert!(sol.times().first().copied().unwrap() == 1.0);
        assert!((sol.times().last().copied().unwrap() - 6.0).abs() < 1e-9);
        assert!(sol.max_value() <= 25.0 + 1e-6);
    }

    #[test]
    fn predict_matches_the_full_solve_bit_for_bit() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        let distances = [1, 2, 3, 4, 5, 6];
        let hour_sets: [&[u32]; 4] = [&[2, 3, 4, 5, 6, 7, 8], &[8, 2, 5, 5], &[3], &[2, 4]];
        for hours in hour_sets {
            let p = model.predict(&distances, hours).unwrap();
            let t_max = f64::from(*hours.iter().max().unwrap());
            let full = model.solve_until(t_max).unwrap();
            for &d in &distances {
                for &h in hours {
                    let want = full.value_at(f64::from(d), f64::from(h)).unwrap();
                    let got = p.at(d, h).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "{hours:?}: ({d}, {h})");
                }
            }
        }
    }

    #[test]
    fn model_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<DlModel>();
    }
}
