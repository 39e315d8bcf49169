//! Criterion benches for the numerical core: the PDE time-stepper
//! ablation (DESIGN.md: Crank–Nicolson vs explicit method-of-lines, plus
//! the served-forecast and calibration-objective solve shapes) and
//! the underlying kernels (tridiagonal solve, spline construction,
//! Nelder–Mead iteration cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlm_core::calibrate::CalibrationOptions;
use dlm_core::growth::ExpDecayGrowth;
use dlm_core::initial::{InitialDensity, PhiConstruction};
use dlm_core::model::DlModel;
use dlm_core::params::DlParameters;
use dlm_core::pde::{solve, solve_at, SolverConfig, SolverMethod};
use dlm_core::variable::{ConstantField, TimeOnlyField, VariableDlModelBuilder};
use dlm_numerics::spline::CubicSpline;
use dlm_numerics::tridiag::{solve_thomas, TridiagonalMatrix};
use std::hint::black_box;

fn bench_pde_solvers(c: &mut Criterion) {
    let params = DlParameters::paper_hops(6).expect("params");
    let phi = InitialDensity::from_observations(
        &params,
        &[2.1, 0.7, 0.9, 0.5, 0.3, 0.2],
        PhiConstruction::SplineFlat,
    )
    .expect("phi");
    let growth = ExpDecayGrowth::paper_hops();

    let mut group = c.benchmark_group("pde_solvers");
    for method in [
        SolverMethod::CrankNicolson,
        SolverMethod::BackwardEuler,
        SolverMethod::Rk4,
        SolverMethod::DormandPrince45,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{method:?}")),
            &method,
            |b, &method| {
                let config = SolverConfig {
                    method,
                    space_intervals: 100,
                    dt: 0.01,
                };
                b.iter(|| {
                    solve(
                        black_box(&params),
                        black_box(&growth),
                        black_box(&phi),
                        1.0,
                        6.0,
                        &config,
                    )
                    .expect("solve")
                });
            },
        );
    }
    // The two shapes the serving path solves, both checkpoint-only: a
    // served `dl` forecast of hours 2..=8, and one calibration-objective
    // solve at the objective's coarse resolution over the same window.
    let hours: Vec<u32> = (2..=8).collect();
    let query_times: Vec<f64> = hours.iter().map(|&h| f64::from(h)).collect();
    let model = DlModel::paper_hops(&[2.1, 0.7, 0.9, 0.5, 0.3, 0.2]).expect("model");
    group.bench_function("served_predict_hours_2_to_8", |b| {
        b.iter(|| {
            black_box(&model)
                .predict(&[1, 2, 3, 4, 5, 6], &hours)
                .expect("predict")
        });
    });
    let calibration = CalibrationOptions::default().solver;
    group.bench_function("calibration_solve_at_1_to_8", |b| {
        b.iter(|| {
            solve_at(
                black_box(&params),
                black_box(&growth),
                black_box(&phi),
                1.0,
                &query_times,
                &calibration,
            )
            .expect("solve")
        });
    });
    group.finish();
}

fn bench_grid_resolution(c: &mut Criterion) {
    let params = DlParameters::paper_hops(6).expect("params");
    let phi = InitialDensity::from_observations(
        &params,
        &[2.1, 0.7, 0.9, 0.5, 0.3, 0.2],
        PhiConstruction::SplineFlat,
    )
    .expect("phi");
    let growth = ExpDecayGrowth::paper_hops();
    let mut group = c.benchmark_group("pde_grid_resolution");
    for intervals in [25usize, 100, 400] {
        group.bench_with_input(
            BenchmarkId::from_parameter(intervals),
            &intervals,
            |b, &intervals| {
                let config = SolverConfig {
                    space_intervals: intervals,
                    ..SolverConfig::default()
                };
                b.iter(|| solve(&params, &growth, &phi, 1.0, 6.0, &config).expect("solve"));
            },
        );
    }
    group.finish();
}

fn bench_tridiagonal(c: &mut Criterion) {
    let mut group = c.benchmark_group("tridiagonal_solve");
    for n in [101usize, 1001] {
        let sub = vec![-1.0; n - 1];
        let sup = vec![-1.0; n - 1];
        let diag = vec![4.0; n];
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let matrix =
            TridiagonalMatrix::new(sub.clone(), diag.clone(), sup.clone()).expect("matrix");
        group.bench_with_input(BenchmarkId::new("thomas", n), &n, |b, _| {
            b.iter(|| solve_thomas(black_box(&sub), &diag, &sup, &rhs).expect("thomas"));
        });
        group.bench_with_input(BenchmarkId::new("pivoted_lu", n), &n, |b, _| {
            b.iter(|| matrix.solve(black_box(&rhs)).expect("lu"));
        });
    }
    group.finish();
}

fn bench_spline_construction(c: &mut Criterion) {
    let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| (x / 13.0).sin() + 2.0).collect();
    c.bench_function("spline_clamped_flat_200_knots", |b| {
        b.iter(|| CubicSpline::clamped_flat(black_box(&xs), black_box(&ys)).expect("spline"));
    });
}

fn bench_variable_coefficient_solver(c: &mut Criterion) {
    // The generalized (finite-volume) solver vs the classic one on the
    // same constant-coefficient problem: the price of generality.
    let model = VariableDlModelBuilder::new(1.0, 6.0)
        .expect("domain")
        .diffusion(ConstantField(0.01))
        .growth(TimeOnlyField(ExpDecayGrowth::paper_hops()))
        .capacity(ConstantField(25.0))
        .resolution(100, 0.01)
        .build(&[2.1, 0.7, 0.9, 0.5, 0.3, 0.2])
        .expect("model");
    c.bench_function("variable_coefficient_solver", |b| {
        b.iter(|| black_box(&model).solve_until(6.0).expect("solve"));
    });
}

criterion_group!(
    solvers,
    bench_pde_solvers,
    bench_grid_resolution,
    bench_tridiagonal,
    bench_spline_construction,
    bench_variable_coefficient_solver
);
criterion_main!(solvers);
