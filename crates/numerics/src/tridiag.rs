//! Tridiagonal linear systems.
//!
//! The Crank–Nicolson discretization of the diffusive logistic equation
//! produces a tridiagonal Jacobian at every Newton step, so a fast, robust
//! tridiagonal solver is the workhorse of the whole reproduction. Two
//! algorithms are provided:
//!
//! * [`solve_thomas`] — the classic O(n) Thomas algorithm (no pivoting;
//!   requires diagonal dominance or positive definiteness to be stable),
//!   with [`solve_thomas_into`] as its allocation-free form.
//! * [`TridiagonalMatrix::solve`] — LU with partial pivoting specialised to
//!   banded storage, stable for any nonsingular tridiagonal system at the
//!   cost of one extra superdiagonal of fill-in.

use crate::error::{NumericsError, Result};

/// A tridiagonal matrix stored as three diagonals.
///
/// For an `n × n` system the sub- and superdiagonal have length `n - 1` and
/// the main diagonal has length `n`.
///
/// # Examples
///
/// ```
/// use dlm_numerics::tridiag::TridiagonalMatrix;
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// // [ 2 1 0 ]   [x0]   [3]
/// // [ 1 2 1 ] · [x1] = [4]
/// // [ 0 1 2 ]   [x2]   [3]
/// let m = TridiagonalMatrix::new(vec![1.0, 1.0], vec![2.0, 2.0, 2.0], vec![1.0, 1.0])?;
/// let x = m.solve(&[3.0, 4.0, 3.0])?;
/// for (xi, expect) in x.iter().zip([1.0, 1.0, 1.0]) {
///     assert!((xi - expect).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TridiagonalMatrix {
    sub: Vec<f64>,
    diag: Vec<f64>,
    sup: Vec<f64>,
}

impl TridiagonalMatrix {
    /// Creates a tridiagonal matrix from its three diagonals.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `diag` is empty or the
    /// off-diagonals do not have length `diag.len() - 1`, and
    /// [`NumericsError::NonFiniteValue`] if any entry is NaN or infinite.
    pub fn new(sub: Vec<f64>, diag: Vec<f64>, sup: Vec<f64>) -> Result<Self> {
        if diag.is_empty() {
            return Err(NumericsError::DimensionMismatch {
                expected: "diag length >= 1".into(),
                actual: 0,
            });
        }
        let n = diag.len();
        if sub.len() + 1 != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("sub length {}", n - 1),
                actual: sub.len(),
            });
        }
        if sup.len() + 1 != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("sup length {}", n - 1),
                actual: sup.len(),
            });
        }
        for (name, v) in [("sub", &sub), ("diag", &diag), ("sup", &sup)] {
            if v.iter().any(|x| !x.is_finite()) {
                return Err(NumericsError::NonFiniteValue {
                    context: format!("tridiagonal {name}"),
                });
            }
        }
        Ok(Self { sub, diag, sup })
    }

    /// Dimension `n` of the matrix.
    #[must_use]
    pub fn len(&self) -> usize {
        self.diag.len()
    }

    /// Returns `true` when the matrix is 0×0 (never constructible via `new`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diag.is_empty()
    }

    /// The subdiagonal (length `n - 1`).
    #[must_use]
    pub fn sub(&self) -> &[f64] {
        &self.sub
    }

    /// The main diagonal (length `n`).
    #[must_use]
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// The superdiagonal (length `n - 1`).
    #[must_use]
    pub fn sup(&self) -> &[f64] {
        &self.sup
    }

    /// Computes `y = A · x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let n = self.len();
        if x.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("vector length {n}"),
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = self.diag[i] * x[i];
            if i > 0 {
                acc += self.sub[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                acc += self.sup[i] * x[i + 1];
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Solves `A · x = rhs` by banded LU with partial pivoting.
    ///
    /// Stable for any nonsingular tridiagonal matrix. Prefer
    /// [`solve_thomas`] when the matrix is known to be diagonally dominant
    /// (as Crank–Nicolson matrices are): it is ~2× faster.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] if `rhs.len() != n`.
    /// * [`NumericsError::SingularMatrix`] if a zero pivot is encountered.
    pub fn solve(&self, rhs: &[f64]) -> Result<Vec<f64>> {
        let n = self.len();
        if rhs.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("rhs length {n}"),
                actual: rhs.len(),
            });
        }
        // Banded storage with an extra superdiagonal for pivoting fill-in.
        let mut d = self.diag.clone(); // main
        let mut u1 = self.sup.clone(); // first super
        let mut u2 = vec![0.0; n.saturating_sub(2)]; // second super (fill-in)
        let mut l = self.sub.clone(); // multipliers overwrite sub
        let mut x = rhs.to_vec();

        for k in 0..n - 1 {
            // Partial pivoting between rows k and k+1.
            if l[k].abs() > d[k].abs() {
                // Swap rows k and k+1.
                std::mem::swap(&mut d[k], &mut l[k]);
                // After swap, row k's super entries come from row k+1's diag/super.
                std::mem::swap(&mut u1[k], &mut d[k + 1]);
                if k + 2 < n {
                    std::mem::swap(&mut u2[k], &mut u1[k + 1]);
                }
                x.swap(k, k + 1);
            }
            if d[k] == 0.0 {
                return Err(NumericsError::SingularMatrix { pivot: k });
            }
            let m = l[k] / d[k];
            d[k + 1] -= m * u1[k];
            if k + 2 < n {
                u1[k + 1] -= m * u2[k];
            }
            x[k + 1] -= m * x[k];
        }
        if d[n - 1] == 0.0 {
            return Err(NumericsError::SingularMatrix { pivot: n - 1 });
        }

        // Back substitution.
        x[n - 1] /= d[n - 1];
        if n >= 2 {
            for i in (0..n - 1).rev() {
                let mut acc = x[i] - u1[i] * x[i + 1];
                if i + 2 < n {
                    acc -= u2[i] * x[i + 2];
                }
                x[i] = acc / d[i];
            }
        }
        Ok(x)
    }

    /// Infinity norm of the matrix (maximum absolute row sum).
    #[must_use]
    pub fn norm_inf(&self) -> f64 {
        let n = self.len();
        let mut best: f64 = 0.0;
        for i in 0..n {
            let mut row = self.diag[i].abs();
            if i > 0 {
                row += self.sub[i - 1].abs();
            }
            if i + 1 < n {
                row += self.sup[i].abs();
            }
            best = best.max(row);
        }
        best
    }

    /// Returns `true` if the matrix is strictly diagonally dominant by rows.
    #[must_use]
    pub fn is_diagonally_dominant(&self) -> bool {
        let n = self.len();
        (0..n).all(|i| {
            let mut off = 0.0;
            if i > 0 {
                off += self.sub[i - 1].abs();
            }
            if i + 1 < n {
                off += self.sup[i].abs();
            }
            self.diag[i].abs() > off
        })
    }
}

/// Solves a tridiagonal system with the Thomas algorithm (no pivoting).
///
/// `sub`, `diag`, `sup` are the sub-, main and superdiagonal; `rhs` is the
/// right-hand side. O(n) time, O(n) scratch. The Thomas algorithm is stable
/// when the matrix is diagonally dominant or symmetric positive definite —
/// both hold for the Crank–Nicolson matrices produced by `dlm-core`.
///
/// Allocating wrapper over [`solve_thomas_into`]; both return the same
/// bits.
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] on inconsistent lengths.
/// * [`NumericsError::SingularMatrix`] if elimination hits a zero pivot
///   (consider [`TridiagonalMatrix::solve`] in that case).
///
/// # Examples
///
/// ```
/// use dlm_numerics::tridiag::solve_thomas;
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// let x = solve_thomas(&[1.0, 1.0], &[2.0, 2.0, 2.0], &[1.0, 1.0], &[3.0, 4.0, 3.0])?;
/// assert!(x.iter().all(|xi| (xi - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
pub fn solve_thomas(sub: &[f64], diag: &[f64], sup: &[f64], rhs: &[f64]) -> Result<Vec<f64>> {
    let n = diag.len();
    let mut scratch = vec![0.0; n];
    let mut x = vec![0.0; n];
    solve_thomas_into(sub, diag, sup, rhs, &mut scratch, &mut x)?;
    Ok(x)
}

/// The Thomas algorithm writing into caller-owned buffers: no allocation.
///
/// Same inputs as [`solve_thomas`], plus `scratch` (the eliminated
/// superdiagonal) and `out` (the solution), both of length `n`. Time
/// steppers that solve one system per Newton iteration allocate these
/// once per solve.
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] on inconsistent lengths,
///   including `scratch` or `out`.
/// * [`NumericsError::SingularMatrix`] if elimination hits a zero pivot;
///   `out` then holds partial results.
///
/// # Examples
///
/// ```
/// use dlm_numerics::tridiag::solve_thomas_into;
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// let (mut scratch, mut x) = ([0.0; 3], [0.0; 3]);
/// solve_thomas_into(
///     &[1.0, 1.0], &[2.0, 2.0, 2.0], &[1.0, 1.0], &[3.0, 4.0, 3.0],
///     &mut scratch, &mut x,
/// )?;
/// assert!(x.iter().all(|xi| (xi - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
pub fn solve_thomas_into(
    sub: &[f64],
    diag: &[f64],
    sup: &[f64],
    rhs: &[f64],
    scratch: &mut [f64],
    out: &mut [f64],
) -> Result<()> {
    let n = diag.len();
    if n == 0 {
        return Err(NumericsError::DimensionMismatch {
            expected: "n >= 1".into(),
            actual: 0,
        });
    }
    if sub.len() + 1 != n || sup.len() + 1 != n {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("off-diagonals of length {}", n - 1),
            actual: sub.len().max(sup.len()),
        });
    }
    for (name, len) in [
        ("rhs", rhs.len()),
        ("scratch", scratch.len()),
        ("out", out.len()),
    ] {
        if len != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("{name} length {n}"),
                actual: len,
            });
        }
    }

    let c_star = scratch;
    let d_star = out;

    if diag[0] == 0.0 {
        return Err(NumericsError::SingularMatrix { pivot: 0 });
    }
    c_star[0] = if n > 1 { sup[0] / diag[0] } else { 0.0 };
    d_star[0] = rhs[0] / diag[0];

    for i in 1..n {
        let denom = diag[i] - sub[i - 1] * c_star[i - 1];
        if denom == 0.0 {
            return Err(NumericsError::SingularMatrix { pivot: i });
        }
        if i + 1 < n {
            c_star[i] = sup[i] / denom;
        }
        d_star[i] = (rhs[i] - sub[i - 1] * d_star[i - 1]) / denom;
    }

    let x = d_star;
    for i in (0..n - 1).rev() {
        let next = x[i + 1];
        x[i] -= c_star[i] * next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_inf(m: &TridiagonalMatrix, x: &[f64], rhs: &[f64]) -> f64 {
        let ax = m.mul_vec(x).unwrap();
        ax.iter()
            .zip(rhs)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn thomas_solves_identity() {
        let x = solve_thomas(&[0.0; 3], &[1.0; 4], &[0.0; 3], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn thomas_solves_1x1() {
        let x = solve_thomas(&[], &[4.0], &[], &[8.0]).unwrap();
        assert_eq!(x, vec![2.0]);
    }

    #[test]
    fn thomas_solves_laplacian_like_system() {
        // -1, 2, -1 Poisson matrix with known solution.
        let n = 50;
        let sub = vec![-1.0; n - 1];
        let sup = vec![-1.0; n - 1];
        let diag = vec![2.0; n];
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let m = TridiagonalMatrix::new(sub.clone(), diag.clone(), sup.clone()).unwrap();
        let rhs = m.mul_vec(&x_true).unwrap();
        let x = solve_thomas(&sub, &diag, &sup, &rhs).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn thomas_detects_zero_first_pivot() {
        let err = solve_thomas(&[1.0], &[0.0, 1.0], &[1.0], &[1.0, 1.0]).unwrap_err();
        assert!(matches!(err, NumericsError::SingularMatrix { pivot: 0 }));
    }

    #[test]
    fn thomas_rejects_bad_lengths() {
        let err = solve_thomas(&[1.0, 2.0], &[1.0, 1.0], &[1.0], &[1.0, 1.0]).unwrap_err();
        assert!(matches!(err, NumericsError::DimensionMismatch { .. }));
        let err = solve_thomas(&[1.0], &[1.0, 1.0], &[1.0], &[1.0]).unwrap_err();
        assert!(matches!(err, NumericsError::DimensionMismatch { .. }));
    }

    #[test]
    fn thomas_into_rejects_short_buffers() {
        let (sub, diag, sup, rhs) = ([1.0], [4.0, 4.0], [1.0], [1.0, 1.0]);
        let mut short = [0.0; 1];
        let mut ok = [0.0; 2];
        let err = solve_thomas_into(&sub, &diag, &sup, &rhs, &mut short, &mut ok).unwrap_err();
        assert!(matches!(err, NumericsError::DimensionMismatch { .. }));
        let err = solve_thomas_into(&sub, &diag, &sup, &rhs, &mut ok, &mut short).unwrap_err();
        assert!(matches!(err, NumericsError::DimensionMismatch { .. }));
    }

    #[test]
    fn thomas_into_reports_zero_pivot() {
        let (mut scratch, mut out) = ([0.0; 2], [0.0; 2]);
        let err = solve_thomas_into(
            &[1.0],
            &[1.0, 1.0],
            &[1.0],
            &[1.0, 1.0],
            &mut scratch,
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, NumericsError::SingularMatrix { pivot: 1 }));
    }

    #[test]
    fn pivoted_solve_matches_thomas_on_dominant_system() {
        let sub = vec![-0.3, -0.4, -0.1, -0.25];
        let diag = vec![2.0, 2.1, 1.9, 2.2, 2.05];
        let sup = vec![-0.2, -0.15, -0.35, -0.3];
        let rhs = vec![1.0, -2.0, 0.5, 3.0, -1.0];
        let m = TridiagonalMatrix::new(sub.clone(), diag.clone(), sup.clone()).unwrap();
        let x1 = solve_thomas(&sub, &diag, &sup, &rhs).unwrap();
        let x2 = m.solve(&rhs).unwrap();
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!(residual_inf(&m, &x2, &rhs) < 1e-10);
    }

    #[test]
    fn pivoted_solve_handles_zero_leading_pivot() {
        // Thomas fails on this (diag[0] == 0) but pivoted LU succeeds.
        let m =
            TridiagonalMatrix::new(vec![1.0, 1.0], vec![0.0, 1.0, 2.0], vec![1.0, 1.0]).unwrap();
        let rhs = vec![1.0, 2.0, 3.0];
        assert!(solve_thomas(m.sub(), m.diag(), m.sup(), &rhs).is_err());
        let x = m.solve(&rhs).unwrap();
        assert!(residual_inf(&m, &x, &rhs) < 1e-12);
    }

    #[test]
    fn pivoted_solve_detects_singular() {
        let m = TridiagonalMatrix::new(vec![0.0], vec![0.0, 1.0], vec![0.0]).unwrap();
        assert!(matches!(
            m.solve(&[1.0, 1.0]).unwrap_err(),
            NumericsError::SingularMatrix { .. }
        ));
    }

    #[test]
    fn pivoted_solve_large_random_system_small_residual() {
        // Deterministic pseudo-random entries without pulling in rand.
        let n = 200;
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        let sub: Vec<f64> = (0..n - 1).map(|_| next()).collect();
        let sup: Vec<f64> = (0..n - 1).map(|_| next()).collect();
        let diag: Vec<f64> = (0..n).map(|_| next() * 4.0 + 5.0).collect();
        let rhs: Vec<f64> = (0..n).map(|_| next()).collect();
        let m = TridiagonalMatrix::new(sub, diag, sup).unwrap();
        let x = m.solve(&rhs).unwrap();
        assert!(residual_inf(&m, &x, &rhs) < 1e-10);
    }

    #[test]
    fn new_rejects_non_finite() {
        let err = TridiagonalMatrix::new(vec![f64::NAN], vec![1.0, 1.0], vec![0.0]).unwrap_err();
        assert!(matches!(err, NumericsError::NonFiniteValue { .. }));
    }

    #[test]
    fn new_rejects_empty_diag() {
        let err = TridiagonalMatrix::new(vec![], vec![], vec![]).unwrap_err();
        assert!(matches!(err, NumericsError::DimensionMismatch { .. }));
    }

    #[test]
    fn mul_vec_rejects_wrong_length() {
        let m = TridiagonalMatrix::new(vec![1.0], vec![1.0, 1.0], vec![1.0]).unwrap();
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn diagonal_dominance_detection() {
        let dominant =
            TridiagonalMatrix::new(vec![-1.0, -1.0], vec![3.0, 3.0, 3.0], vec![-1.0, -1.0])
                .unwrap();
        assert!(dominant.is_diagonally_dominant());
        let not = TridiagonalMatrix::new(vec![-2.0, -2.0], vec![3.0, 3.0, 3.0], vec![-2.0, -2.0])
            .unwrap();
        assert!(!not.is_diagonally_dominant());
    }

    #[test]
    fn norm_inf_is_max_row_sum() {
        let m =
            TridiagonalMatrix::new(vec![1.0, -4.0], vec![2.0, -3.0, 0.5], vec![0.5, 1.0]).unwrap();
        // rows: |2|+|0.5| = 2.5 ; |1|+|3|+|1| = 5 ; |4|+|0.5| = 4.5
        assert!((m.norm_inf() - 5.0).abs() < 1e-15);
    }
}
