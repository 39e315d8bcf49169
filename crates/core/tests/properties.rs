//! Property-based tests of the DL model's invariants.
//!
//! The §II.C theorems are universally quantified over valid inputs, so we
//! check them against randomized initial profiles and parameters, not
//! just the paper's example setting.

use dlm_core::growth::{ConstantGrowth, ExpDecayGrowth};
use dlm_core::initial::{InitialDensity, PhiConstruction};
use dlm_core::model::DlModelBuilder;
use dlm_core::params::DlParameters;
use dlm_core::pde::{solve, SolverConfig, SolverMethod};
use proptest::prelude::*;

/// Random positive density profiles bounded well below K = 25.
fn profiles() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..8.0, 4..8)
}

/// Random 8-hour vote counts for 2..6 distance groups of 1000 users
/// (densities up to 20%, below K = 25).
fn count_matrices() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..200, 8), 2..6)
}

/// Fits `predictor` on `observation` and predicts `request`: the
/// fitted parameters and predicted cells as bits, or the error text.
fn fit_bits(
    predictor: &dyn dlm_core::DiffusionPredictor,
    observation: &dlm_core::Observation,
    request: &dlm_core::PredictionRequest,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let fitted = predictor.fit(observation).map_err(|e| e.to_string())?;
    let prediction = fitted.predict(request).map_err(|e| e.to_string())?;
    let params = fitted.params().iter().map(|p| p.to_bits()).collect();
    let mut cells = Vec::new();
    for &d in request.distances() {
        for &h in request.hours() {
            cells.push(prediction.at(d, h).unwrap().to_bits());
        }
    }
    Ok((params, cells))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn solution_bounds_hold_for_random_profiles(obs in profiles(), d in 0.0f64..0.2) {
        // Unique Property: 0 ≤ I ≤ K for any admissible input.
        let params = DlParameters::new(d, 25.0, 1.0, obs.len() as f64).unwrap();
        let phi = InitialDensity::from_observations(&params, &obs, PhiConstruction::SplineFlat)
            .unwrap();
        let growth = ExpDecayGrowth::paper_hops();
        let sol = solve(&params, &growth, &phi, 1.0, 12.0, &SolverConfig::default()).unwrap();
        prop_assert!(sol.min_value() >= -1e-8, "min {}", sol.min_value());
        prop_assert!(sol.max_value() <= 25.0 + 1e-6, "max {}", sol.max_value());
    }

    #[test]
    fn monotone_when_phi_is_lower_solution(obs in profiles()) {
        // Strictly Increasing Property, conditional on the Eq.-6 premise.
        let params = DlParameters::new(0.01, 25.0, 1.0, obs.len() as f64).unwrap();
        let phi = InitialDensity::from_observations(&params, &obs, PhiConstruction::SplineFlat)
            .unwrap();
        let growth = ExpDecayGrowth::paper_hops();
        prop_assume!(phi.is_lower_solution(&params, &growth, 1e-9));
        let sol = solve(&params, &growth, &phi, 1.0, 8.0, &SolverConfig::default()).unwrap();
        for rows in sol.values().windows(2) {
            for (a, b) in rows[0].iter().zip(&rows[1]) {
                prop_assert!(b >= &(a - 1e-8));
            }
        }
    }

    #[test]
    fn all_solvers_agree_on_random_inputs(obs in profiles(), d in 0.0f64..0.1) {
        let params = DlParameters::new(d, 25.0, 1.0, obs.len() as f64).unwrap();
        let phi = InitialDensity::from_observations(&params, &obs, PhiConstruction::SplineFlat)
            .unwrap();
        let growth = ExpDecayGrowth::paper_hops();
        let probe_x = 1.0 + (obs.len() - 1) as f64 / 2.0;
        let mut answers = Vec::new();
        for method in [SolverMethod::CrankNicolson, SolverMethod::Rk4, SolverMethod::DormandPrince45] {
            let config = SolverConfig { method, space_intervals: 60, dt: 0.004 };
            let sol = solve(&params, &growth, &phi, 1.0, 6.0, &config).unwrap();
            answers.push(sol.value_at(probe_x, 6.0).unwrap());
        }
        for pair in answers.windows(2) {
            prop_assert!((pair[0] - pair[1]).abs() < 5e-3, "{answers:?}");
        }
    }

    #[test]
    fn zero_diffusion_model_matches_logistic_baseline(obs in profiles(), r in 0.1f64..1.5) {
        // With d = 0 the DL model must agree with the per-distance
        // logistic-only baseline at the knots.
        use dlm_core::baselines::LogisticOnly;
        let params = DlParameters::new(0.0, 25.0, 1.0, obs.len() as f64).unwrap();
        let growth = ConstantGrowth::new(r);
        let model = DlModelBuilder::new(params)
            .growth(growth)
            .solver(SolverConfig { space_intervals: 2 * (obs.len() - 1), dt: 0.005, ..SolverConfig::default() })
            .build(&obs)
            .unwrap();
        let growth2 = ConstantGrowth::new(r);
        let baseline = LogisticOnly::new(&obs, growth2, 25.0, 1.0).unwrap();
        let dists: Vec<u32> = (1..=obs.len() as u32).collect();
        let hours = [3u32, 6];
        let a = model.predict(&dists, &hours).unwrap();
        let b = baseline.predict(&dists, &hours).unwrap();
        for &d in &dists {
            for &h in &hours {
                let va = a.at(d, h).unwrap();
                let vb = b.at(d, h).unwrap();
                prop_assert!((va - vb).abs() < 0.02, "d={d} h={h}: {va} vs {vb}");
            }
        }
    }

    #[test]
    fn accuracy_cells_are_in_unit_interval(obs in profiles()) {
        use dlm_core::accuracy::AccuracyTable;
        use dlm_cascade::DensityMatrix;
        let model = dlm_core::model::DlModel::paper_hops(&obs).unwrap();
        let dists: Vec<u32> = (1..=obs.len() as u32).collect();
        let pred = model.predict(&dists, &[2, 3]).unwrap();
        // Arbitrary positive observation matrix of matching shape.
        let counts: Vec<Vec<usize>> = (0..obs.len())
            .map(|i| vec![i + 1, 2 * i + 3, 3 * i + 4])
            .collect();
        let m = DensityMatrix::from_counts(&counts, &vec![100; obs.len()]).unwrap();
        let table = AccuracyTable::score(&pred, &m).unwrap();
        for &d in &dists {
            for &h in &[2u32, 3] {
                if let Some(a) = table.cell(d, h) {
                    prop_assert!((0.0..=1.0).contains(&a));
                }
            }
            if let Some(avg) = table.row_average(d) {
                prop_assert!((0.0..=1.0).contains(&avg));
            }
        }
    }

    #[test]
    fn hour_one_keyed_fits_ignore_later_hours(counts in count_matrices(), k in 2u32..8) {
        // `dl` and `logistic` key their fits by hour 1 alone; fitting on
        // hours 1..=k must give exactly the hour-1-only fit.
        use dlm_cascade::DensityMatrix;
        use dlm_core::predict::GrowthFamily;
        use dlm_core::zoo::{DlPredictor, LogisticOnlyPredictor};
        use dlm_core::{DiffusionPredictor, Observation, PredictionRequest};
        let matrix = DensityMatrix::from_counts(&counts, &vec![1000; counts.len()]).unwrap();
        let through_k = Observation::from_matrix(&matrix, &(1..=k).collect::<Vec<_>>()).unwrap();
        let hour1 = Observation::from_matrix(&matrix, &[1]).unwrap();
        let request =
            PredictionRequest::new((1..=counts.len() as u32).collect(), (k + 1..=8).collect())
                .unwrap();
        let predictors: [Box<dyn DiffusionPredictor>; 2] = [
            Box::new(DlPredictor::paper_hops()),
            Box::new(LogisticOnlyPredictor::new(25.0, GrowthFamily::PaperHops)),
        ];
        for predictor in &predictors {
            prop_assert_eq!(predictor.fit_key(&through_k), predictor.fit_key(&hour1));
            let full = fit_bits(predictor.as_ref(), &through_k, &request);
            prop_assert!(full.is_ok(), "{}: {:?}", predictor.name(), full);
            prop_assert_eq!(
                full,
                fit_bits(predictor.as_ref(), &hour1, &request),
                "{}", predictor.name()
            );
        }
    }

    #[test]
    fn capacity_scaling_scales_saturation(obs in profiles()) {
        // Doubling K (far above the data) must not change early dynamics
        // much, but must raise the long-run ceiling.
        let params25 = DlParameters::new(0.01, 25.0, 1.0, obs.len() as f64).unwrap();
        let params50 = DlParameters::new(0.01, 50.0, 1.0, obs.len() as f64).unwrap();
        let growth = ExpDecayGrowth::paper_hops();
        let phi25 = InitialDensity::from_observations(&params25, &obs, PhiConstruction::SplineFlat).unwrap();
        let phi50 = InitialDensity::from_observations(&params50, &obs, PhiConstruction::SplineFlat).unwrap();
        let s25 = solve(&params25, &growth, &phi25, 1.0, 60.0, &SolverConfig { dt: 0.05, ..SolverConfig::default() }).unwrap();
        let s50 = solve(&params50, &growth, &phi50, 1.0, 60.0, &SolverConfig { dt: 0.05, ..SolverConfig::default() }).unwrap();
        prop_assert!(s50.max_value() > s25.max_value());
        prop_assert!(s25.max_value() <= 25.0 + 1e-6);
    }
}
