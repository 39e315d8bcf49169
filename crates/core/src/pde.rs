//! Numerical solution of the diffusive logistic equation (Eq. 4).
//!
//! ```text
//! ∂I/∂t = d ∂²I/∂x² + r(t)·I·(1 − I/K),   x ∈ [l, L], t ≥ 1
//! I(x, 1) = φ(x)
//! ∂I/∂x(l, t) = ∂I/∂x(L, t) = 0            (Neumann: no flux)
//! ```
//!
//! Space is discretized on a uniform grid with the standard second-order
//! Laplacian; the Neumann boundary uses ghost-node reflection, preserving
//! second-order accuracy. Four time steppers are available:
//!
//! * [`SolverMethod::CrankNicolson`] *(default)* — second order in time,
//!   A-stable; each step solves the nonlinear system with damped Newton
//!   and an O(n) tridiagonal factorization.
//! * [`SolverMethod::BackwardEuler`] — first order, L-stable; robustness
//!   fallback for stiff fine grids.
//! * [`SolverMethod::Rk4`] / [`SolverMethod::DormandPrince45`] — explicit
//!   method-of-lines via [`dlm_numerics::ode`]; used to cross-validate the
//!   implicit schemes (see the `pde_solvers` ablation bench).
//!
//! The implicit stepper allocates its work buffers once per solve and
//! solves each Newton system in place with
//! [`dlm_numerics::tridiag::solve_thomas_into`], so no allocation happens
//! inside the time-step or Newton loops.
//!
//! Two entry points differ only in which time steps they record:
//!
//! * [`solve`] records every step — for callers that read the whole field
//!   (profiles over time, mass, monotonicity checks);
//! * [`solve_at`] records only the first row, the last row and the rows
//!   bracketing a set of query times — for callers that read
//!   [`PdeSolution::value_at`] at those times, such as
//!   [`crate::model::DlModel::predict`] and the calibration objective.
//!   Both take the same steps, so `value_at` at a query time returns the
//!   same bits from either.

use crate::error::{DlError, Result};
use crate::growth::GrowthRate;
use crate::initial::InitialDensity;
use crate::params::DlParameters;
use dlm_numerics::ode::{rk4, AdaptiveConfig, DormandPrince45};
use dlm_numerics::tridiag::{solve_thomas_into, TridiagonalMatrix};

/// Time-stepping scheme for the method-of-lines system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMethod {
    /// Crank–Nicolson with damped Newton (the default).
    #[default]
    CrankNicolson,
    /// Backward Euler with damped Newton.
    BackwardEuler,
    /// Classic fixed-step RK4 on the semi-discrete system.
    Rk4,
    /// Adaptive Dormand–Prince 4(5) on the semi-discrete system.
    DormandPrince45,
}

/// Spatial/temporal resolution of the solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Time-stepping scheme.
    pub method: SolverMethod,
    /// Number of grid *intervals* (grid points = intervals + 1).
    pub space_intervals: usize,
    /// Time step (hours). Explicit methods subdivide further if needed for
    /// stability.
    pub dt: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            method: SolverMethod::CrankNicolson,
            space_intervals: 100,
            dt: 0.01,
        }
    }
}

/// A solved space–time field `I(x, t)` on the discretization grid.
#[derive(Debug, Clone, PartialEq)]
pub struct PdeSolution {
    xs: Vec<f64>,
    times: Vec<f64>,
    /// values[k][j] = I(xs[j], times[k]).
    values: Vec<Vec<f64>>,
}

impl PdeSolution {
    /// Assembles a solution from raw parts — used by the
    /// variable-coefficient solver in [`crate::variable`].
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for empty/ragged inputs or a
    /// time/grid mismatch.
    pub fn from_parts(xs: Vec<f64>, times: Vec<f64>, values: Vec<Vec<f64>>) -> Result<Self> {
        if xs.len() < 2 || times.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "solution parts",
                reason: "need at least 2 grid points and 1 time".into(),
            });
        }
        if values.len() != times.len() || values.iter().any(|row| row.len() != xs.len()) {
            return Err(DlError::InvalidParameter {
                name: "values",
                reason: format!("need {} rows of {} values", times.len(), xs.len()),
            });
        }
        Ok(Self { xs, times, values })
    }

    /// Grid abscissae.
    #[must_use]
    pub fn grid(&self) -> &[f64] {
        &self.xs
    }

    /// Recorded times (starting at the initial time): every step from
    /// [`solve`], only the checkpoint rows from [`solve_at`].
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Raw field values, one row per recorded time (see
    /// [`PdeSolution::times`]).
    #[must_use]
    pub fn values(&self) -> &[Vec<f64>] {
        &self.values
    }

    /// Bilinear interpolation of `I(x, t)` anywhere inside the solved
    /// rectangle.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::OutOfDomain`] for queries outside the grid.
    pub fn value_at(&self, x: f64, t: f64) -> Result<f64> {
        let (x0, x1) = (self.xs[0], *self.xs.last().expect("nonempty grid"));
        if x < x0 - 1e-9 || x > x1 + 1e-9 {
            return Err(DlError::OutOfDomain {
                axis: "distance",
                value: x,
                range: (x0, x1),
            });
        }
        let (t0, t1) = (self.times[0], *self.times.last().expect("nonempty times"));
        if t < t0 - 1e-9 || t > t1 + 1e-9 {
            return Err(DlError::OutOfDomain {
                axis: "time",
                value: t,
                range: (t0, t1),
            });
        }
        let x = x.clamp(x0, x1);
        let t = t.clamp(t0, t1);

        // Locate time bracket.
        let ti = match self.times.binary_search_by(|v| v.total_cmp(&t)) {
            Ok(i) => return Ok(self.space_interp(i, x)),
            Err(i) => i.clamp(1, self.times.len() - 1),
        };
        let (ta, tb) = (self.times[ti - 1], self.times[ti]);
        let w = if tb > ta { (t - ta) / (tb - ta) } else { 0.0 };
        let va = self.space_interp(ti - 1, x);
        let vb = self.space_interp(ti, x);
        Ok(va * (1.0 - w) + vb * w)
    }

    /// The spatial profile at the recorded time nearest to `t`. On a
    /// [`solve_at`] result only the checkpoint rows are candidates.
    #[must_use]
    pub fn profile_near(&self, t: f64) -> &[f64] {
        let idx = self
            .times
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - t).abs().total_cmp(&(b.1 - t).abs()))
            .map(|(i, _)| i)
            .expect("nonempty times");
        &self.values[idx]
    }

    fn space_interp(&self, time_idx: usize, x: f64) -> f64 {
        let row = &self.values[time_idx];
        let n = self.xs.len();
        if x <= self.xs[0] {
            return row[0];
        }
        if x >= self.xs[n - 1] {
            return row[n - 1];
        }
        let dx = self.xs[1] - self.xs[0];
        let j = (((x - self.xs[0]) / dx).floor() as usize).min(n - 2);
        let w = (x - self.xs[j]) / dx;
        row[j] * (1.0 - w) + row[j + 1] * w
    }

    /// Global maximum of the solved field.
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Global minimum of the solved field.
    #[must_use]
    pub fn min_value(&self) -> f64 {
        self.values
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// Applies the Neumann-closed Laplacian: `out = d·D₂·u`.
fn laplacian(u: &[f64], d_over_dx2: f64, out: &mut [f64]) {
    let n = u.len();
    out[0] = d_over_dx2 * 2.0 * (u[1] - u[0]);
    for j in 1..n - 1 {
        out[j] = d_over_dx2 * (u[j - 1] - 2.0 * u[j] + u[j + 1]);
    }
    out[n - 1] = d_over_dx2 * 2.0 * (u[n - 2] - u[n - 1]);
}

/// Solves the DL equation from `t_start` to `t_end`, recording the field at
/// every time step.
///
/// The implicit schemes record `t_start` and then every step's end time;
/// the explicit ones record their integrator's trajectory. Use
/// [`solve_at`] when only a few query times will be read.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — degenerate config (no intervals,
///   non-positive `dt`, `t_end ≤ t_start`).
/// * Propagates Newton/tridiagonal failures from the implicit schemes and
///   integrator failures from the explicit ones.
pub fn solve(
    params: &DlParameters,
    growth: &dyn GrowthRate,
    phi: &InitialDensity,
    t_start: f64,
    t_end: f64,
    config: &SolverConfig,
) -> Result<PdeSolution> {
    solve_recording(params, growth, phi, t_start, t_end, config, None)
}

/// Solves the DL equation from `t_start` to the latest of `query_times`,
/// keeping only the rows [`PdeSolution::value_at`] reads at those times.
///
/// The implicit schemes take exactly the steps [`solve`] takes to the same
/// end time but keep only the first row, the last row, and for each query
/// time either the row recorded at exactly that time or the two rows that
/// bracket it. `value_at` at any query time therefore returns the same
/// bits as it does on the full [`solve`] result, while
/// [`PdeSolution::values`] and [`PdeSolution::profile_near`] see only the
/// kept rows. The explicit schemes return their full trajectory.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — no query times, or the same
///   conditions as [`solve`] with `t_end` the latest query time.
/// * Propagates solver failures as [`solve`] does.
pub fn solve_at(
    params: &DlParameters,
    growth: &dyn GrowthRate,
    phi: &InitialDensity,
    t_start: f64,
    query_times: &[f64],
    config: &SolverConfig,
) -> Result<PdeSolution> {
    if query_times.is_empty() {
        return Err(DlError::InvalidParameter {
            name: "query_times",
            reason: "must be nonempty".into(),
        });
    }
    let t_end = query_times
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    solve_recording(
        params,
        growth,
        phi,
        t_start,
        t_end,
        config,
        Some(query_times),
    )
}

fn solve_recording(
    params: &DlParameters,
    growth: &dyn GrowthRate,
    phi: &InitialDensity,
    t_start: f64,
    t_end: f64,
    config: &SolverConfig,
    query_times: Option<&[f64]>,
) -> Result<PdeSolution> {
    if config.space_intervals < 2 {
        return Err(DlError::InvalidParameter {
            name: "space_intervals",
            reason: "need at least 2 intervals".into(),
        });
    }
    if !(config.dt > 0.0) {
        return Err(DlError::InvalidParameter {
            name: "dt",
            reason: format!("must be positive, got {}", config.dt),
        });
    }
    if !(t_end > t_start) {
        return Err(DlError::InvalidParameter {
            name: "t_end",
            reason: format!("need t_end > t_start, got [{t_start}, {t_end}]"),
        });
    }

    let m = config.space_intervals;
    let dx = params.width() / m as f64;
    let xs: Vec<f64> = (0..=m).map(|j| params.lower() + j as f64 * dx).collect();
    let u0: Vec<f64> = xs.iter().map(|&x| phi.value(x)).collect();
    let d_over_dx2 = params.diffusion() / (dx * dx);
    let k = params.capacity();

    match config.method {
        SolverMethod::CrankNicolson | SolverMethod::BackwardEuler => solve_implicit(
            growth,
            xs,
            u0,
            t_start,
            t_end,
            config,
            d_over_dx2,
            k,
            query_times,
        ),
        SolverMethod::Rk4 => {
            let steps = ((t_end - t_start) / config.dt).ceil() as usize;
            let sys = MolSystem {
                growth,
                d_over_dx2,
                k,
                dim: xs.len(),
            };
            let traj = rk4(&sys, t_start, t_end, &u0, steps.max(1))?;
            Ok(PdeSolution {
                xs,
                times: traj.times().to_vec(),
                values: traj.states().to_vec(),
            })
        }
        SolverMethod::DormandPrince45 => {
            let sys = MolSystem {
                growth,
                d_over_dx2,
                k,
                dim: xs.len(),
            };
            let solver = DormandPrince45::new(AdaptiveConfig {
                rel_tol: 1e-8,
                abs_tol: 1e-10,
                initial_step: config.dt,
                ..AdaptiveConfig::default()
            });
            let traj = solver.integrate(&sys, t_start, t_end, &u0)?;
            Ok(PdeSolution {
                xs,
                times: traj.times().to_vec(),
                values: traj.states().to_vec(),
            })
        }
    }
}

/// Method-of-lines right-hand side shared by the explicit steppers.
struct MolSystem<'a> {
    growth: &'a dyn GrowthRate,
    d_over_dx2: f64,
    k: f64,
    dim: usize,
}

impl dlm_numerics::ode::OdeSystem for MolSystem<'_> {
    fn eval(&self, t: f64, y: &[f64], dy: &mut [f64]) {
        laplacian(y, self.d_over_dx2, dy);
        let r = self.growth.rate(t);
        for (dyj, &yj) in dy.iter_mut().zip(y) {
            *dyj += r * yj * (1.0 - yj / self.k);
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

/// Collects the rows a time stepper keeps: every step, or only the
/// checkpoints around a set of query times (see [`solve_at`]).
///
/// The stepper offers each row once the time of the row after it is
/// known, since a row brackets a query time `q` exactly when
/// `previous time < q < next time`.
pub(crate) struct Recorder<'q> {
    /// `None` keeps every row.
    query_times: Option<&'q [f64]>,
    times: Vec<f64>,
    values: Vec<Vec<f64>>,
    /// Row buffers reserved for the most checkpoints `query_times` can
    /// keep, so the allocation count does not depend on where the grid
    /// times fall.
    spare: Vec<Vec<f64>>,
    /// Recorded time of the row before the current one; `None` while the
    /// current row is the initial one, which is always kept.
    previous: Option<f64>,
    /// Recorded time of the current row.
    current: f64,
}

impl<'q> Recorder<'q> {
    /// Starts recording a solve of `steps` steps at the initial row `u0`,
    /// which is always kept.
    pub(crate) fn new(query_times: Option<&'q [f64]>, steps: usize, t0: f64, u0: &[f64]) -> Self {
        let (rows, spare) = match query_times {
            None => (steps + 1, Vec::new()),
            Some(q) => {
                let rows = 2 + 2 * q.len();
                (
                    rows,
                    (0..rows).map(|_| Vec::with_capacity(u0.len())).collect(),
                )
            }
        };
        let mut recorder = Self {
            query_times,
            times: Vec::with_capacity(rows),
            values: Vec::with_capacity(rows),
            spare,
            previous: None,
            current: t0,
        };
        recorder.keep(t0, u0);
        recorder
    }

    /// Offers the current row `u`, given the time of the row after it.
    pub(crate) fn advance(&mut self, u: &[f64], next: f64) {
        if let Some(previous) = self.previous {
            if self.wants(previous, next) {
                self.keep(self.current, u);
            }
        }
        self.previous = Some(self.current);
        self.current = next;
    }

    /// Keeps the final row `u` and assembles the solution.
    pub(crate) fn finish(mut self, xs: Vec<f64>, u: &[f64]) -> PdeSolution {
        if self.previous.is_some() {
            self.keep(self.current, u);
        }
        PdeSolution {
            xs,
            times: self.times,
            values: self.values,
        }
    }

    fn wants(&self, previous: f64, next: f64) -> bool {
        self.query_times
            .is_none_or(|q| q.iter().any(|&t| previous < t && t < next))
    }

    fn keep(&mut self, t: f64, u: &[f64]) {
        let mut row = self.spare.pop().unwrap_or_default();
        row.extend_from_slice(u);
        self.times.push(t);
        self.values.push(row);
    }
}

/// `out = r·v·(1 − v/K)` at every node.
fn reaction(r: f64, k: f64, v: &[f64], out: &mut [f64]) {
    for (o, &vj) in out.iter_mut().zip(v) {
        *o = r * vj * (1.0 - vj / k);
    }
}

/// Writes the Newton residual `g = v − w·(lap + f) − rhs` and returns its
/// max-norm.
pub(crate) fn residual(
    v: &[f64],
    lap: &[f64],
    f: &[f64],
    rhs: &[f64],
    w: f64,
    g: &mut [f64],
) -> f64 {
    for (j, gj) in g.iter_mut().enumerate() {
        *gj = v[j] - w * (lap[j] + f[j]) - rhs[j];
    }
    g.iter().map(|x| x.abs()).fold(0.0, f64::max)
}

/// Newton iterations per implicit step before giving up.
pub(crate) const NEWTON_ITERATIONS: usize = 30;

/// Max-norm of the Newton residual that counts as converged.
pub(crate) const NEWTON_TOLERANCE: f64 = 1e-11;

/// The θ-scheme stepper (θ = ½ for Crank–Nicolson, 1 for backward Euler).
///
/// Every work buffer is allocated once per solve, the Jacobian's constant
/// off-diagonals once, and an accepted line-search trial hands its
/// residual to the next Newton iteration.
#[allow(clippy::too_many_arguments)]
fn solve_implicit(
    growth: &dyn GrowthRate,
    xs: Vec<f64>,
    mut u: Vec<f64>,
    t_start: f64,
    t_end: f64,
    config: &SolverConfig,
    d_over_dx2: f64,
    k: f64,
    query_times: Option<&[f64]>,
) -> Result<PdeSolution> {
    let crank_nicolson = config.method == SolverMethod::CrankNicolson;
    let n = xs.len();
    let steps = ((t_end - t_start) / config.dt).ceil() as usize;
    let dt = (t_end - t_start) / steps as f64;
    // Implicit weight: CN splits the operator evenly; BE is fully implicit.
    let theta = if crank_nicolson { 0.5 } else { 1.0 };
    let explicit_weight = dt * (1.0 - theta);
    let implicit_weight = dt * theta;

    // Tridiagonal Jacobian of G(v) = v − dt·θ·(Lap v + f(v)) − rhs. The
    // Laplacian diagonal is −2a at every node; ghost-node reflection
    // doubles the boundary rows' off-diagonal coupling.
    let a = implicit_weight * d_over_dx2;
    let mut sub = vec![-a; n - 1];
    let mut sup = vec![-a; n - 1];
    sup[0] = -2.0 * a;
    sub[n - 2] = -2.0 * a;
    let diag_base = 1.0 + 2.0 * a;

    let mut lap = vec![0.0; n];
    let mut f = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut g = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut trial_g = vec![0.0; n];
    let mut diag = vec![0.0; n];
    let mut delta = vec![0.0; n];
    let mut scratch = vec![0.0; n];

    let mut recorder = Recorder::new(query_times, steps, t_start, &u);
    for s in 0..steps {
        let t_now = t_start + s as f64 * dt;
        let t_next = t_now + dt;

        // Explicit part of the right-hand side.
        laplacian(&u, d_over_dx2, &mut lap);
        reaction(growth.rate(t_now), k, &u, &mut f);
        for j in 0..n {
            rhs[j] = u[j] + explicit_weight * (lap[j] + f[j]);
        }

        // Newton solve for: v − dt·θ·(Lap v + f(t_next, v)) = rhs.
        v.copy_from_slice(&u);
        let r_next = growth.rate(t_next);
        // Residual max-norm of `v`, already in `g`, after an accepted trial.
        let mut known_res = None;
        let mut converged = false;
        for _ in 0..NEWTON_ITERATIONS {
            let res = match known_res.take() {
                Some(res) => res,
                None => {
                    laplacian(&v, d_over_dx2, &mut lap);
                    reaction(r_next, k, &v, &mut f);
                    residual(&v, &lap, &f, &rhs, implicit_weight, &mut g)
                }
            };
            if res < NEWTON_TOLERANCE {
                converged = true;
                break;
            }
            for (dj, &vj) in diag.iter_mut().zip(&v) {
                let fprime = r_next * (1.0 - 2.0 * vj / k);
                *dj = diag_base - implicit_weight * fprime;
            }
            if solve_thomas_into(&sub, &diag, &sup, &g, &mut scratch, &mut delta).is_err() {
                // Fall back to the pivoted solver on breakdown.
                let pivoted =
                    TridiagonalMatrix::new(sub.clone(), diag.clone(), sup.clone())?.solve(&g)?;
                delta.copy_from_slice(&pivoted);
            }
            // Damped update.
            let mut lambda = 1.0;
            for _ in 0..6 {
                for j in 0..n {
                    trial[j] = v[j] - lambda * delta[j];
                }
                laplacian(&trial, d_over_dx2, &mut lap);
                reaction(r_next, k, &trial, &mut f);
                let trial_res = residual(&trial, &lap, &f, &rhs, implicit_weight, &mut trial_g);
                if trial_res.is_finite() && trial_res < res {
                    std::mem::swap(&mut v, &mut trial);
                    std::mem::swap(&mut g, &mut trial_g);
                    known_res = Some(trial_res);
                    break;
                }
                lambda *= 0.5;
            }
            if known_res.is_none() {
                for (vj, dj) in v.iter_mut().zip(&delta) {
                    *vj -= dj;
                }
            }
        }
        if !converged {
            return Err(DlError::Numerics(
                dlm_numerics::NumericsError::NoConvergence {
                    algorithm: "crank-nicolson newton",
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::{ConstantGrowth, ExpDecayGrowth};
    use crate::initial::PhiConstruction;
    use dlm_numerics::tridiag::solve_thomas;

    fn params() -> DlParameters {
        DlParameters::paper_hops(6).unwrap()
    }

    fn phi(p: &DlParameters) -> InitialDensity {
        InitialDensity::from_observations(
            p,
            &[2.1, 0.7, 0.9, 0.5, 0.3, 0.2],
            PhiConstruction::SplineFlat,
        )
        .unwrap()
    }

    fn logistic_exact(t: f64, y0: f64, r: f64, k: f64) -> f64 {
        k / (1.0 + (k / y0 - 1.0) * (-r * (t - 1.0)).exp())
    }

    /// The implicit stepper as it stood before the allocation-free
    /// rewrite, kept verbatim as a bit-identity oracle.
    #[allow(clippy::too_many_arguments)]
    fn reference_solve_implicit(
        _params: &DlParameters,
        growth: &dyn GrowthRate,
        xs: &[f64],
        u0: Vec<f64>,
        t_start: f64,
        t_end: f64,
        config: &SolverConfig,
        d_over_dx2: f64,
        k: f64,
    ) -> Result<PdeSolution> {
        let crank_nicolson = config.method == SolverMethod::CrankNicolson;
        let n = xs.len();
        let steps = ((t_end - t_start) / config.dt).ceil() as usize;
        let dt = (t_end - t_start) / steps as f64;
        // Implicit weight: CN splits the operator evenly; BE is fully implicit.
        let theta = if crank_nicolson { 0.5 } else { 1.0 };

        let mut u = u0;
        let mut times = Vec::with_capacity(steps + 1);
        let mut values = Vec::with_capacity(steps + 1);
        times.push(t_start);
        values.push(u.clone());

        let reaction = |t: f64, v: &[f64], out: &mut [f64]| {
            let r = growth.rate(t);
            for (o, &vj) in out.iter_mut().zip(v) {
                *o = r * vj * (1.0 - vj / k);
            }
        };

        let mut lap = vec![0.0; n];
        let mut f_now = vec![0.0; n];
        let mut f_next = vec![0.0; n];

        for s in 0..steps {
            let t_now = t_start + s as f64 * dt;
            let t_next = t_now + dt;

            // Explicit part of the right-hand side.
            laplacian(&u, d_over_dx2, &mut lap);
            reaction(t_now, &u, &mut f_now);
            let rhs: Vec<f64> = (0..n)
                .map(|j| u[j] + dt * (1.0 - theta) * (lap[j] + f_now[j]))
                .collect();

            // Newton solve for: v − dt·θ·(Lap v + f(t_next, v)) = rhs.
            let mut v = u.clone();
            let mut converged = false;
            let r_next = growth.rate(t_next);
            for _ in 0..30 {
                laplacian(&v, d_over_dx2, &mut lap);
                reaction(t_next, &v, &mut f_next);
                let g: Vec<f64> = (0..n)
                    .map(|j| v[j] - dt * theta * (lap[j] + f_next[j]) - rhs[j])
                    .collect();
                let res = g.iter().map(|x| x.abs()).fold(0.0, f64::max);
                if res < 1e-11 {
                    converged = true;
                    break;
                }
                // Tridiagonal Jacobian of G.
                let a = dt * theta * d_over_dx2;
                let mut sub = vec![-a; n - 1];
                let mut sup = vec![-a; n - 1];
                sup[0] = -2.0 * a; // ghost-node reflection doubles the boundary coupling
                sub[n - 2] = -2.0 * a;
                // Laplacian diagonal is −2a at every node (boundary rows differ
                // only in their off-diagonal, doubled by ghost reflection).
                let diag: Vec<f64> = (0..n)
                    .map(|j| {
                        let fprime = r_next * (1.0 - 2.0 * v[j] / k);
                        1.0 + 2.0 * a - dt * theta * fprime
                    })
                    .collect();
                let delta = match solve_thomas(&sub, &diag, &sup, &g) {
                    Ok(d) => d,
                    Err(_) => {
                        // Fall back to the pivoted solver on breakdown.
                        TridiagonalMatrix::new(sub.clone(), diag.clone(), sup.clone())?.solve(&g)?
                    }
                };
                // Damped update.
                let mut lambda = 1.0;
                let mut accepted = false;
                for _ in 0..6 {
                    let trial: Vec<f64> = (0..n).map(|j| v[j] - lambda * delta[j]).collect();
                    laplacian(&trial, d_over_dx2, &mut lap);
                    reaction(t_next, &trial, &mut f_next);
                    let trial_res = (0..n)
                        .map(|j| (trial[j] - dt * theta * (lap[j] + f_next[j]) - rhs[j]).abs())
                        .fold(0.0, f64::max);
                    if trial_res.is_finite() && trial_res < res {
                        v = trial;
                        accepted = true;
                        break;
                    }
                    lambda *= 0.5;
                }
                if !accepted {
                    for j in 0..n {
                        v[j] -= delta[j];
                    }
                }
            }
            if !converged {
                return Err(DlError::Numerics(
                    dlm_numerics::NumericsError::NoConvergence {
                        algorithm: "crank-nicolson newton",
                        iterations: 30,
                        residual: f64::NAN,
                    },
                ));
            }
            u = v;
            times.push(t_next);
            values.push(u.clone());
        }
        Ok(PdeSolution {
            xs: xs.to_vec(),
            times,
            values,
        })
    }

    /// [`solve`]'s setup in front of the reference implicit stepper.
    fn reference_solve(
        params: &DlParameters,
        growth: &dyn GrowthRate,
        phi: &InitialDensity,
        t_start: f64,
        t_end: f64,
        config: &SolverConfig,
    ) -> Result<PdeSolution> {
        let m = config.space_intervals;
        let dx = params.width() / m as f64;
        let xs: Vec<f64> = (0..=m).map(|j| params.lower() + j as f64 * dx).collect();
        let u0: Vec<f64> = xs.iter().map(|&x| phi.value(x)).collect();
        let d_over_dx2 = params.diffusion() / (dx * dx);
        reference_solve_implicit(
            params,
            growth,
            &xs,
            u0,
            t_start,
            t_end,
            config,
            d_over_dx2,
            params.capacity(),
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts two solve outcomes agree bit for bit on every recorded
    /// time and row, or fail with the same error.
    fn assert_same_outcome(got: &Result<PdeSolution>, want: &Result<PdeSolution>, label: &str) {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(bits(got.grid()), bits(want.grid()), "{label}: grid");
                assert_eq!(bits(got.times()), bits(want.times()), "{label}: times");
                assert_eq!(got.values().len(), want.values().len(), "{label}: rows");
                for (k, (a, b)) in got.values().iter().zip(want.values()).enumerate() {
                    assert_eq!(bits(a), bits(b), "{label}: row {k}");
                }
            }
            (Err(got), Err(want)) => {
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}: error");
            }
            _ => panic!("{label}: one solve failed: {got:?} vs {want:?}"),
        }
    }

    /// Observation profiles above K = 25, at K, and a single spike.
    const ORACLE_PROFILES: [[f64; 6]; 3] = [
        [40.0, 31.0, 52.0, 27.5, 38.0, 45.0],
        [25.0; 6],
        [0.0, 0.0, 9.0, 0.0, 0.0, 0.0],
    ];

    fn oracle_growths() -> [(&'static str, Box<dyn GrowthRate>); 2] {
        [
            ("paper", Box::new(ExpDecayGrowth::paper_hops())),
            ("constant", Box::new(ConstantGrowth::new(0.8))),
        ]
    }

    #[test]
    fn implicit_stepper_matches_reference_bit_for_bit() {
        let p = params();
        let mut errors = 0;
        for profile in ORACLE_PROFILES {
            let phi = InitialDensity::from_observations(&p, &profile, PhiConstruction::SplineFlat)
                .unwrap();
            for (name, growth) in oracle_growths() {
                for method in [SolverMethod::CrankNicolson, SolverMethod::BackwardEuler] {
                    for space_intervals in [25, 40, 100, 200] {
                        for dt in [0.002, 0.01, 0.05, 0.5] {
                            let config = SolverConfig {
                                method,
                                space_intervals,
                                dt,
                            };
                            let label = format!("{profile:?} {name} {config:?}");
                            let got = solve(&p, growth.as_ref(), &phi, 1.0, 3.0, &config);
                            let want =
                                reference_solve(&p, growth.as_ref(), &phi, 1.0, 3.0, &config);
                            errors += usize::from(want.is_err());
                            assert_same_outcome(&got, &want, &label);
                        }
                    }
                }
            }
        }
        assert_eq!(errors, 0, "every oracle configuration converges");
    }

    #[test]
    fn non_converging_solve_returns_the_reference_error() {
        // A single spike under a steep constant growth and a large step:
        // damped Newton cannot close the residual in 30 iterations.
        let p = params();
        let phi = InitialDensity::from_observations(
            &p,
            &[0.0, 0.0, 9.0, 0.0, 0.0, 0.0],
            PhiConstruction::SplineFlat,
        )
        .unwrap();
        let growth = ConstantGrowth::new(5.0);
        for method in [SolverMethod::CrankNicolson, SolverMethod::BackwardEuler] {
            let config = SolverConfig {
                method,
                space_intervals: 40,
                dt: 0.5,
            };
            let got = solve(&p, &growth, &phi, 1.0, 3.0, &config);
            let want = reference_solve(&p, &growth, &phi, 1.0, 3.0, &config);
            assert!(
                matches!(
                    got,
                    Err(DlError::Numerics(
                        dlm_numerics::NumericsError::NoConvergence { .. }
                    ))
                ),
                "{method:?}: {got:?}"
            );
            assert_same_outcome(&got, &want, &format!("{method:?}"));
        }
    }

    #[test]
    fn solve_at_reads_the_same_bits_as_solve() {
        let p = params();
        let xs = [1.0, 1.3, 2.0, 3.75, 5.5, 6.0];
        let query_sets: [&[f64]; 5] = [
            &[2.5],
            &[3.0, 2.0, 2.0, 1.5],
            &[2.0],
            &[1.0, 2.25, 3.0],
            &[1.7, 3.0, 2.9],
        ];
        for profile in ORACLE_PROFILES {
            let phi = InitialDensity::from_observations(&p, &profile, PhiConstruction::SplineFlat)
                .unwrap();
            for (name, growth) in oracle_growths() {
                for method in [SolverMethod::CrankNicolson, SolverMethod::BackwardEuler] {
                    for space_intervals in [25, 100] {
                        for dt in [0.002, 0.01, 0.05, 0.5] {
                            let config = SolverConfig {
                                method,
                                space_intervals,
                                dt,
                            };
                            for queries in query_sets {
                                let label = format!("{profile:?} {name} {config:?} {queries:?}");
                                let t_end = queries.iter().copied().fold(f64::MIN, f64::max);
                                let full =
                                    solve(&p, growth.as_ref(), &phi, 1.0, t_end, &config).unwrap();
                                let at = solve_at(&p, growth.as_ref(), &phi, 1.0, queries, &config)
                                    .unwrap();
                                for &t in queries {
                                    for &x in &xs {
                                        let a = at.value_at(x, t).unwrap();
                                        let b = full.value_at(x, t).unwrap();
                                        assert_eq!(a.to_bits(), b.to_bits(), "{label}: ({x}, {t})");
                                    }
                                }
                                // Kept rows are the full solution's rows,
                                // from the first to the last.
                                assert!(at.times().len() <= 2 + 2 * queries.len(), "{label}");
                                assert_eq!(at.times()[0], full.times()[0], "{label}");
                                assert_eq!(at.times().last(), full.times().last(), "{label}");
                                for (t, row) in at.times().iter().zip(at.values()) {
                                    let k = full.times().iter().position(|s| s == t).unwrap();
                                    assert_eq!(bits(row), bits(&full.values()[k]), "{label}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn solve_at_keeps_first_last_and_bracketing_rows() {
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let config = SolverConfig {
            dt: 0.5,
            ..SolverConfig::default()
        };
        // Grid times 1, 1.5, 2, 2.5, 3, 3.5, 4: 2 is on the grid, 2.75
        // falls between 2.5 and 3.
        let at = solve_at(&p, &growth, &phi, 1.0, &[2.75, 2.0, 4.0], &config).unwrap();
        assert_eq!(at.times(), &[1.0, 2.0, 2.5, 3.0, 4.0]);
        assert!(solve_at(&p, &growth, &phi, 1.0, &[], &config).is_err());
        assert!(solve_at(&p, &growth, &phi, 1.0, &[0.5], &config).is_err());
    }

    #[test]
    fn solve_at_returns_the_full_explicit_trajectory() {
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        for method in [SolverMethod::Rk4, SolverMethod::DormandPrince45] {
            let config = SolverConfig {
                method,
                space_intervals: 25,
                dt: 0.05,
            };
            let full = solve(&p, &growth, &phi, 1.0, 3.0, &config).unwrap();
            let at = solve_at(&p, &growth, &phi, 1.0, &[2.0, 3.0], &config).unwrap();
            assert_eq!(at, full, "{method:?}");
        }
    }

    #[test]
    fn zero_diffusion_flat_profile_matches_logistic_closed_form() {
        // With d = 0 and a spatially constant initial condition the PDE
        // reduces exactly to the logistic ODE at every grid point.
        let p = DlParameters::new(0.0, 25.0, 1.0, 6.0).unwrap();
        let flat =
            InitialDensity::from_observations(&p, &[2.0; 6], PhiConstruction::SplineFlat).unwrap();
        let growth = ConstantGrowth::new(0.8);
        for method in [
            SolverMethod::CrankNicolson,
            SolverMethod::BackwardEuler,
            SolverMethod::Rk4,
            SolverMethod::DormandPrince45,
        ] {
            let config = SolverConfig {
                method,
                space_intervals: 20,
                dt: 0.005,
            };
            let sol = solve(&p, &growth, &flat, 1.0, 6.0, &config).unwrap();
            let got = sol.value_at(3.0, 6.0).unwrap();
            let want = logistic_exact(6.0, 2.0, 0.8, 25.0);
            let tol = if method == SolverMethod::BackwardEuler {
                0.05
            } else {
                1e-3
            };
            assert!((got - want).abs() < tol, "{method:?}: {got} vs {want}");
        }
    }

    #[test]
    fn pure_diffusion_conserves_mass_and_flattens() {
        // With r = 0 the equation is the heat equation with no-flux walls:
        // total mass is conserved and the profile flattens to its mean.
        let p = DlParameters::new(0.5, 25.0, 1.0, 6.0).unwrap();
        let phi = phi(&p);
        let growth = ConstantGrowth::new(0.0);
        let config = SolverConfig::default();
        let sol = solve(&p, &growth, &phi, 1.0, 80.0, &config).unwrap();
        let first = &sol.values()[0];
        let last = sol.values().last().unwrap();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // Mass conservation (trapezoid weight differences at walls are
        // second-order; compare interior sums).
        assert!(
            (mean(first) - mean(last)).abs() < 0.02,
            "{} vs {}",
            mean(first),
            mean(last)
        );
        // Flattened: final spread tiny.
        let spread = last.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - last.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e-3, "spread {spread}");
    }

    #[test]
    fn crank_nicolson_matches_dp45_reference() {
        // Cross-validation of the implicit scheme against the adaptive
        // explicit integrator on the paper's actual setting.
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let cn = solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                method: SolverMethod::CrankNicolson,
                space_intervals: 100,
                dt: 0.002,
            },
        )
        .unwrap();
        let dp = solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                method: SolverMethod::DormandPrince45,
                space_intervals: 100,
                dt: 0.002,
            },
        )
        .unwrap();
        for x in [1.0, 2.0, 3.5, 5.0, 6.0] {
            let a = cn.value_at(x, 6.0).unwrap();
            let b = dp.value_at(x, 6.0).unwrap();
            assert!((a - b).abs() < 1e-3, "x = {x}: {a} vs {b}");
        }
    }

    #[test]
    fn solution_respects_unique_property_bounds() {
        // §II.C Unique Property: 0 ≤ I ≤ K.
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let sol = solve(&p, &growth, &phi, 1.0, 50.0, &SolverConfig::default()).unwrap();
        assert!(sol.min_value() >= -1e-9, "min {}", sol.min_value());
        assert!(
            sol.max_value() <= p.capacity() + 1e-6,
            "max {}",
            sol.max_value()
        );
    }

    #[test]
    fn solution_is_strictly_increasing_in_time() {
        // §II.C Strictly Increasing Property (φ is a lower solution here).
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        assert!(phi.is_lower_solution(&p, &growth, 1e-9));
        let sol = solve(&p, &growth, &phi, 1.0, 10.0, &SolverConfig::default()).unwrap();
        for rows in sol.values().windows(2) {
            for (a, b) in rows[0].iter().zip(&rows[1]) {
                assert!(b >= &(a - 1e-9), "decreasing: {a} -> {b}");
            }
        }
    }

    #[test]
    fn capacity_is_an_equilibrium() {
        let p = params();
        let at_k =
            InitialDensity::from_observations(&p, &[25.0; 6], PhiConstruction::SplineFlat).unwrap();
        let growth = ExpDecayGrowth::paper_hops();
        let sol = solve(&p, &growth, &at_k, 1.0, 5.0, &SolverConfig::default()).unwrap();
        let last = sol.values().last().unwrap();
        for v in last {
            assert!((v - 25.0).abs() < 1e-8, "drifted from K: {v}");
        }
    }

    #[test]
    fn finer_grid_converges() {
        // Self-convergence: halving dx/dt changes the answer by o(coarse).
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let coarse = solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                space_intervals: 25,
                dt: 0.04,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        let fine = solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                space_intervals: 200,
                dt: 0.005,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        let very_fine = solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                space_intervals: 400,
                dt: 0.0025,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        let probe = |s: &PdeSolution| s.value_at(3.0, 6.0).unwrap();
        let err_coarse = (probe(&coarse) - probe(&very_fine)).abs();
        let err_fine = (probe(&fine) - probe(&very_fine)).abs();
        assert!(err_fine < err_coarse, "{err_fine} !< {err_coarse}");
    }

    #[test]
    fn value_at_rejects_out_of_domain() {
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let sol = solve(&p, &growth, &phi, 1.0, 6.0, &SolverConfig::default()).unwrap();
        assert!(matches!(
            sol.value_at(0.0, 3.0).unwrap_err(),
            DlError::OutOfDomain {
                axis: "distance",
                ..
            }
        ));
        assert!(matches!(
            sol.value_at(3.0, 0.5).unwrap_err(),
            DlError::OutOfDomain { axis: "time", .. }
        ));
        assert!(sol.value_at(6.0, 6.0).is_ok());
    }

    #[test]
    fn profile_near_picks_nearest_time() {
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let sol = solve(
            &p,
            &growth,
            &phi,
            1.0,
            3.0,
            &SolverConfig {
                dt: 0.5,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        let prof = sol.profile_near(2.1);
        // Nearest recorded time to 2.1 is 2.0; its first grid value equals
        // value_at(l, 2.0).
        let expected = sol.value_at(p.lower(), 2.0).unwrap();
        assert!((prof[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate_config() {
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        assert!(solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                space_intervals: 1,
                ..SolverConfig::default()
            }
        )
        .is_err());
        assert!(solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                dt: 0.0,
                ..SolverConfig::default()
            }
        )
        .is_err());
        assert!(solve(&p, &growth, &phi, 6.0, 1.0, &SolverConfig::default()).is_err());
    }

    #[test]
    fn diffusion_smooths_profile_over_time() {
        // Relative spatial variation must shrink under diffusion.
        let p = DlParameters::new(0.3, 25.0, 1.0, 6.0).unwrap();
        let phi = phi(&p);
        let growth = ConstantGrowth::new(0.2);
        let sol = solve(&p, &growth, &phi, 1.0, 20.0, &SolverConfig::default()).unwrap();
        let rel_spread = |v: &[f64]| {
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            (hi - lo) / hi.max(1e-12)
        };
        let first = rel_spread(&sol.values()[0]);
        let last = rel_spread(sol.values().last().unwrap());
        assert!(last < first, "{last} !< {first}");
    }
}
