//! Automated parameter calibration.
//!
//! The paper selects `d`, `K` and the growth-rate coefficients by hand
//! from inspection of the data, and names "developing new models that
//! consider diffusion rate, growth rate and carrying capacity as functions
//! of time and distance" as future work. This module automates the scalar
//! part: a Nelder–Mead search over `(d, a, b, c[, K])` — with
//! `r(t) = a·e^{−b(t−1)} + c` — minimizing the mean squared *relative*
//! error of the DL solution against observed density profiles on a short
//! calibration window.
//!
//! Nelder–Mead is a *local* search; with [`MultiStartConfig::starts`]
//! above 1 the search restarts from a deterministic stratified grid of
//! seed points inside the parameter bounds and the independent starts
//! run in parallel on the [`dlm_numerics::pool`] executor. The result is
//! byte-identical under every
//! [`Parallelism`](dlm_numerics::pool::Parallelism) setting and its
//! objective is never worse than the single-start fit from the same
//! seed (the caller's seed always runs as start 0). The objective,
//! seeding boxes, budgets and determinism contract are specified
//! normatively in `docs/CALIBRATION.md`.
//!
//! # Examples
//!
//! Multi-start calibration against profiles, through the shared
//! [`MultiStartConfig`]:
//!
//! ```
//! use dlm_core::calibrate::{calibrate_profiles, CalibrationOptions, MultiStartConfig};
//! use dlm_core::growth::ExpDecayGrowth;
//! use dlm_core::params::DlParameters;
//!
//! # fn main() -> Result<(), dlm_core::DlError> {
//! let initial = [2.0, 1.1, 0.6, 0.3];
//! let targets = vec![(2, vec![3.4, 1.9, 1.1, 0.6]), (3, vec![5.1, 3.0, 1.8, 1.0])];
//! let options = CalibrationOptions {
//!     max_evals: 60, // per-start budget
//!     multi_start: MultiStartConfig { starts: 3, seed: 7, ..MultiStartConfig::default() },
//!     ..CalibrationOptions::default()
//! };
//! let seed = DlParameters::new(0.01, 25.0, 1.0, 4.0)?;
//! let single = calibrate_profiles(1, &initial, &targets, seed,
//!     ExpDecayGrowth::paper_hops(), &CalibrationOptions { max_evals: 60,
//!         ..CalibrationOptions::default() })?;
//! let multi = calibrate_profiles(1, &initial, &targets, seed,
//!     ExpDecayGrowth::paper_hops(), &options)?;
//! // The caller's seed runs as start 0, so more starts never hurt.
//! assert!(multi.objective <= single.objective);
//! assert_eq!(multi.starts, 3);
//! # Ok(())
//! # }
//! ```

use crate::error::{DlError, Result};
use crate::growth::ExpDecayGrowth;
use crate::initial::{InitialDensity, PhiConstruction};
use crate::model::{DlModel, DlModelBuilder};
use crate::params::DlParameters;
use crate::pde::{solve_at, SolverConfig};
use dlm_cascade::DensityMatrix;
use dlm_numerics::optimize::{multi_start_nelder_mead, NelderMeadConfig};
pub use dlm_numerics::optimize::{MultiStartConfig, MultiStartOutcome};

/// What the calibration is allowed to vary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationOptions {
    /// Fit the diffusion rate `d` (else keep the seed's value).
    pub fit_diffusion: bool,
    /// Fit the carrying capacity `K` (else keep the seed's value).
    pub fit_capacity: bool,
    /// Upper bound for `d` during the search.
    pub max_diffusion: f64,
    /// Upper bound for `K` during the search.
    pub max_capacity: f64,
    /// Nelder–Mead budget **per start**.
    pub max_evals: usize,
    /// Solver resolution used inside the objective (coarser than the final
    /// solve for speed).
    pub solver: SolverConfig,
    /// Multi-start strategy: start count, deterministic seeding, and
    /// scheduling of the independent starts on the executor pool.
    /// (`multi_start.local.max_evals` is overridden by
    /// [`CalibrationOptions::max_evals`].) The single-start default
    /// reproduces the classic seeded Nelder–Mead exactly.
    pub multi_start: MultiStartConfig,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        Self {
            fit_diffusion: true,
            fit_capacity: false,
            max_diffusion: 1.0,
            max_capacity: 100.0,
            max_evals: 400,
            solver: SolverConfig {
                space_intervals: 40,
                dt: 0.05,
                ..SolverConfig::default()
            },
            multi_start: MultiStartConfig::default(),
        }
    }
}

/// The outcome of a calibration run.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Fitted scalar parameters.
    pub params: DlParameters,
    /// Fitted growth-rate curve.
    pub growth: ExpDecayGrowth,
    /// Final objective value (mean squared relative error).
    pub objective: f64,
    /// Objective evaluations consumed (across all starts).
    pub evaluations: usize,
    /// Number of Nelder–Mead starts searched.
    pub starts: usize,
    /// Index of the winning start (`0` is the caller's seed; `1..` are
    /// the stratified grid points, see `docs/CALIBRATION.md`).
    pub best_start: usize,
}

impl Calibration {
    /// Builds a ready-to-predict [`DlModel`] from the fitted parameters
    /// and the observed hour-`initial_hour` profile.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors.
    pub fn into_model(self, initial_profile: &[f64], initial_hour: u32) -> Result<DlModel> {
        DlModelBuilder::new(self.params)
            .growth(self.growth)
            .initial_time(f64::from(initial_hour))
            .build(initial_profile)
    }
}

/// Calibrates DL parameters against observed densities in a
/// [`DensityMatrix`].
///
/// Thin wrapper over [`calibrate_profiles`] that extracts the initial and
/// target profiles from the matrix.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — empty/invalid `fit_hours`.
/// * Propagates observation access and optimizer errors.
pub fn calibrate(
    observed: &DensityMatrix,
    initial_hour: u32,
    fit_hours: &[u32],
    seed_params: DlParameters,
    seed_growth: ExpDecayGrowth,
    options: &CalibrationOptions,
) -> Result<Calibration> {
    if fit_hours.is_empty() {
        return Err(DlError::InvalidParameter {
            name: "fit_hours",
            reason: "must be nonempty".into(),
        });
    }
    let initial_profile = observed.profile_at(initial_hour)?;
    let targets: Vec<(u32, Vec<f64>)> = fit_hours
        .iter()
        .map(|&h| observed.profile_at(h).map(|p| (h, p)))
        .collect::<dlm_cascade::Result<_>>()?;
    calibrate_profiles(
        initial_hour,
        &initial_profile,
        &targets,
        seed_params,
        seed_growth,
        options,
    )
}

/// Calibrates DL parameters against raw observed profiles — the form the
/// [`crate::predict::DiffusionPredictor`] layer uses, where observations
/// arrive as profiles rather than a full matrix.
///
/// φ is built from `initial_profile` (observed at `initial_hour`); the
/// objective compares the DL solution against each `(hour, profile)` in
/// `targets` (every hour must be after `initial_hour`). `seed_params` /
/// `seed_growth` seed the search (the paper presets are good seeds).
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — empty/invalid targets.
/// * Propagates optimizer errors.
pub fn calibrate_profiles(
    initial_hour: u32,
    initial_profile: &[f64],
    targets: &[(u32, Vec<f64>)],
    seed_params: DlParameters,
    seed_growth: ExpDecayGrowth,
    options: &CalibrationOptions,
) -> Result<Calibration> {
    if targets.is_empty() {
        return Err(DlError::InvalidParameter {
            name: "fit_hours",
            reason: "must be nonempty".into(),
        });
    }
    if targets.iter().any(|&(h, _)| h <= initial_hour) {
        return Err(DlError::InvalidParameter {
            name: "fit_hours",
            reason: format!("every fit hour must exceed the initial hour {initial_hour}"),
        });
    }
    let initial_profile = initial_profile.to_vec();
    let targets = targets.to_vec();
    let query_times: Vec<f64> = targets.iter().map(|&(h, _)| f64::from(h)).collect();

    // Parameter vector: [a, b, c, d?, K?] depending on options.
    let mut x0 = vec![
        seed_growth.amplitude(),
        seed_growth.decay(),
        seed_growth.floor(),
    ];
    if options.fit_diffusion {
        x0.push(seed_params.diffusion());
    }
    if options.fit_capacity {
        x0.push(seed_params.capacity());
    }

    // Seeding boxes for the stratified multi-start grid, sized from the
    // caller's seed and the hard bounds the objective enforces (see
    // docs/CALIBRATION.md §Multi-start seeding). Start 0 is always the
    // caller's seed itself, so these only shape the restarts. A
    // non-finite cap (a caller disabling the `d`/`K` constraint with
    // `f64::INFINITY`) falls back to a seed-derived box edge — the hard
    // constraints in the objective stay authoritative either way.
    let mut bounds = vec![
        (0.0, 2.0 * seed_growth.amplitude().max(1.0)),
        (0.0, 2.0 * seed_growth.decay().max(1.0)),
        (0.0, 2.0 * seed_growth.floor().max(0.5)),
    ];
    if options.fit_diffusion {
        let d_hi = if options.max_diffusion.is_finite() {
            options.max_diffusion
        } else {
            (2.0 * seed_params.diffusion()).max(1.0)
        };
        bounds.push((0.0, d_hi));
    }
    if options.fit_capacity {
        let max_obs = initial_profile.iter().cloned().fold(0.0, f64::max);
        let k_hi = if options.max_capacity.is_finite() {
            options.max_capacity
        } else {
            (2.0 * seed_params.capacity()).max(4.0 * max_obs).max(1.0)
        };
        let lo = (1.05 * max_obs).max(1e-3).min(k_hi);
        bounds.push((lo, k_hi));
    }

    let opts = *options;
    let objective = move |p: &[f64]| -> f64 {
        let (a, b, c) = (p[0], p[1], p[2]);
        let mut idx = 3;
        let d = if opts.fit_diffusion {
            idx += 1;
            p[idx - 1]
        } else {
            seed_params.diffusion()
        };
        let k = if opts.fit_capacity {
            p[idx]
        } else {
            seed_params.capacity()
        };
        // Hard constraints via +inf.
        if !(a >= 0.0 && b >= 0.0 && c >= 0.0 && (0.0..=opts.max_diffusion).contains(&d)) {
            return f64::INFINITY;
        }
        if !(k > 0.0 && k <= opts.max_capacity) {
            return f64::INFINITY;
        }
        let max_obs = initial_profile.iter().cloned().fold(0.0, f64::max);
        if k <= max_obs {
            return f64::INFINITY; // capacity below the data is inconsistent
        }
        let Ok(params) = DlParameters::new(d, k, seed_params.lower(), seed_params.upper()) else {
            return f64::INFINITY;
        };
        let growth = ExpDecayGrowth::new(a, b, c);
        let Ok(phi) = InitialDensity::from_observations(
            &params,
            &initial_profile,
            PhiConstruction::SplineFlat,
        ) else {
            return f64::INFINITY;
        };
        let Ok(sol) = solve_at(
            &params,
            &growth,
            &phi,
            f64::from(initial_hour),
            &query_times,
            &opts.solver,
        ) else {
            return f64::INFINITY;
        };
        let mut acc = 0.0;
        let mut count = 0usize;
        for (h, profile) in &targets {
            for (i, &actual) in profile.iter().enumerate() {
                if actual == 0.0 {
                    continue;
                }
                let x = params.lower() + i as f64;
                let Ok(pred) = sol.value_at(x, f64::from(*h)) else {
                    return f64::INFINITY;
                };
                let rel = (pred - actual) / actual;
                acc += rel * rel;
                count += 1;
            }
        }
        if count == 0 {
            f64::INFINITY
        } else {
            acc / count as f64
        }
    };

    let outcome = multi_start_nelder_mead(
        objective,
        &x0,
        &bounds,
        MultiStartConfig {
            local: NelderMeadConfig {
                max_evals: options.max_evals,
                ..options.multi_start.local
            },
            ..options.multi_start
        },
    )?;
    let minimum = &outcome.best;

    let (a, b, c) = (
        minimum.x[0].max(0.0),
        minimum.x[1].max(0.0),
        minimum.x[2].max(0.0),
    );
    let mut idx = 3;
    let d = if options.fit_diffusion {
        idx += 1;
        minimum.x[idx - 1].clamp(0.0, options.max_diffusion)
    } else {
        seed_params.diffusion()
    };
    let k = if options.fit_capacity {
        minimum.x[idx].clamp(1e-6, options.max_capacity)
    } else {
        seed_params.capacity()
    };
    Ok(Calibration {
        params: DlParameters::new(d, k, seed_params.lower(), seed_params.upper())?,
        growth: ExpDecayGrowth::new(a, b, c),
        objective: minimum.value,
        evaluations: outcome.evaluations,
        starts: outcome.start_values.len(),
        best_start: outcome.best_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::GrowthRate;

    /// Builds a synthetic observation matrix from a known DL solution so
    /// calibration has a recoverable ground truth (the shared fixture
    /// generator the determinism gates also use).
    fn synthetic_observations(d: f64, growth: &ExpDecayGrowth) -> DensityMatrix {
        crate::fixtures::dl_ground_truth_matrix(d, growth, 25.0)
    }

    #[test]
    fn recovers_growth_curve_from_dl_generated_data() {
        let truth = ExpDecayGrowth::new(1.2, 1.3, 0.3);
        let observed = synthetic_observations(0.01, &truth);
        let cal = calibrate(
            &observed,
            1,
            &[2, 3, 4, 5, 6],
            DlParameters::paper_hops(6).unwrap(),
            ExpDecayGrowth::paper_hops(), // seed away from the truth
            &CalibrationOptions::default(),
        )
        .unwrap();
        assert!(cal.objective < 1e-3, "objective {}", cal.objective);
        // The fitted curve should match the truth pointwise on the window.
        for h in [2.0, 3.0, 4.0, 5.0, 6.0] {
            let got = cal.growth.rate(h);
            let want = truth.rate(h);
            assert!((got - want).abs() < 0.08, "r({h}): {got} vs {want}");
        }
    }

    #[test]
    fn calibrated_model_predicts_well() {
        let truth = ExpDecayGrowth::new(1.0, 1.0, 0.2);
        let observed = synthetic_observations(0.02, &truth);
        let cal = calibrate(
            &observed,
            1,
            &[2, 3],
            DlParameters::paper_hops(6).unwrap(),
            ExpDecayGrowth::paper_hops(),
            &CalibrationOptions::default(),
        )
        .unwrap();
        let initial = observed.profile_at(1).unwrap();
        let model = cal.into_model(&initial, 1).unwrap();
        let pred = model.predict(&[1, 2, 3, 4, 5, 6], &[4, 5, 6]).unwrap();
        // Held-out hours 4-6 must be close (fit only saw 2-3).
        for d in 1..=6u32 {
            for h in [4u32, 5, 6] {
                let actual = observed.at(d, h).unwrap();
                let p = pred.at(d, h).unwrap();
                assert!(
                    (p - actual).abs() / actual < 0.15,
                    "d={d} h={h}: {p} vs {actual}"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_fit_hours() {
        let observed = synthetic_observations(0.01, &ExpDecayGrowth::paper_hops());
        let seed = DlParameters::paper_hops(6).unwrap();
        let g = ExpDecayGrowth::paper_hops();
        assert!(calibrate(&observed, 1, &[], seed, g, &CalibrationOptions::default()).is_err());
        assert!(calibrate(&observed, 2, &[2], seed, g, &CalibrationOptions::default()).is_err());
        assert!(calibrate(&observed, 1, &[99], seed, g, &CalibrationOptions::default()).is_err());
    }

    #[test]
    fn non_finite_caps_stay_calibratable() {
        // Callers may disable the d/K constraints with infinity; the
        // seeding boxes must fall back to finite seed-derived edges
        // instead of failing grid generation — single- and multi-start.
        let observed = synthetic_observations(0.01, &ExpDecayGrowth::new(1.2, 1.3, 0.3));
        for starts in [1, 3] {
            let cal = calibrate(
                &observed,
                1,
                &[2, 3],
                DlParameters::paper_hops(6).unwrap(),
                ExpDecayGrowth::paper_hops(),
                &CalibrationOptions {
                    fit_capacity: true,
                    max_diffusion: f64::INFINITY,
                    max_capacity: f64::INFINITY,
                    max_evals: 120,
                    multi_start: MultiStartConfig {
                        starts,
                        ..MultiStartConfig::default()
                    },
                    ..CalibrationOptions::default()
                },
            )
            .unwrap();
            assert!(cal.objective.is_finite(), "starts {starts}: {cal:?}");
            assert_eq!(cal.starts, starts);
        }
    }

    #[test]
    fn capacity_fitting_stays_above_data() {
        let truth = ExpDecayGrowth::new(1.0, 1.2, 0.25);
        let observed = synthetic_observations(0.01, &truth);
        let options = CalibrationOptions {
            fit_capacity: true,
            max_evals: 300,
            ..CalibrationOptions::default()
        };
        let cal = calibrate(
            &observed,
            1,
            &[2, 3, 4],
            DlParameters::paper_hops(6).unwrap(),
            ExpDecayGrowth::paper_hops(),
            &options,
        )
        .unwrap();
        let max_obs = observed
            .profile_at(1)
            .unwrap()
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!(cal.params.capacity() > max_obs);
    }
}
