//! Bivariate polynomials of bounded degree in each variable — the sharing
//! object of the SVSS layer.
//!
//! A dealer sharing secret `s` samples `F(x, y)` with degree ≤ t in each
//! variable and `F(0, 0) = s`, then hands party `i` its *row*
//! `f_i(y) = F(i, y)` and *column* `g_i(x) = F(x, i)`. Pairwise consistency
//! (`f_i(j) = g_j(i)`) is what the SVSS share phase cross-checks.

use crate::fp::Fp;
use crate::poly::Poly;
use rand::Rng;

/// A bivariate polynomial `F(x, y) = Σ coeffs[i][j] · x^i · y^j` with degree
/// at most `deg` in each variable.
///
/// # Examples
///
/// ```
/// use aft_field::{BivarPoly, Fp};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let f = BivarPoly::random_with_secret(Fp::new(42), 2, &mut rng);
/// assert_eq!(f.eval(Fp::ZERO, Fp::ZERO), Fp::new(42));
/// // Row/column cross-consistency: F(i, j) via either projection.
/// let (i, j) = (Fp::new(3), Fp::new(5));
/// assert_eq!(f.row(i).eval(j), f.col(j).eval(i));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BivarPoly {
    deg: usize,
    /// `coeffs[i][j]` multiplies `x^i y^j`; always `(deg+1) x (deg+1)`.
    coeffs: Vec<Vec<Fp>>,
}

impl BivarPoly {
    /// Samples a uniformly random bivariate polynomial of degree ≤ `deg` in
    /// each variable.
    pub fn random<R: Rng + ?Sized>(deg: usize, rng: &mut R) -> Self {
        let coeffs = (0..=deg)
            .map(|_| (0..=deg).map(|_| Fp::random(rng)).collect())
            .collect();
        BivarPoly { deg, coeffs }
    }

    /// Samples a random bivariate polynomial with `F(0,0) = secret` — the
    /// dealer's sharing polynomial.
    pub fn random_with_secret<R: Rng + ?Sized>(secret: Fp, deg: usize, rng: &mut R) -> Self {
        let mut f = Self::random(deg, rng);
        f.coeffs[0][0] = secret;
        f
    }

    /// The degree bound (in each variable).
    pub fn degree(&self) -> usize {
        self.deg
    }

    /// The shared secret `F(0, 0)`.
    pub fn secret(&self) -> Fp {
        self.coeffs[0][0]
    }

    /// Evaluates `F(x, y)`.
    pub fn eval(&self, x: Fp, y: Fp) -> Fp {
        // Horner in x over polynomials in y.
        let mut acc = Fp::ZERO;
        for row in self.coeffs.iter().rev() {
            let mut inner = Fp::ZERO;
            for &c in row.iter().rev() {
                inner = inner * y + c;
            }
            acc = acc * x + inner;
        }
        acc
    }

    /// The row polynomial `f_i(y) = F(i, y)` handed to party `i`.
    pub fn row(&self, i: Fp) -> Poly {
        // Collapse the x-dimension at x = i.
        let mut poly = Poly::zeroed(self.deg + 1);
        let out = poly.coeffs_mut();
        let mut xpow = Fp::ONE;
        for row in &self.coeffs {
            for (j, &c) in row.iter().enumerate() {
                out[j] += c * xpow;
            }
            xpow *= i;
        }
        poly.normalize();
        poly
    }

    /// The column polynomial `g_j(x) = F(x, j)` handed to party `j`.
    pub fn col(&self, j: Fp) -> Poly {
        let mut poly = Poly::zeroed(self.deg + 1);
        let out = poly.coeffs_mut();
        for (i, row) in self.coeffs.iter().enumerate() {
            let mut ypow = Fp::ONE;
            for &c in row {
                out[i] += c * ypow;
                ypow *= j;
            }
        }
        poly.normalize();
        poly
    }

    /// Reconstructs the unique degree-(t,t) bivariate polynomial from a
    /// `(t+1) x (t+1)` grid of values `grid[a][b] = F(xs[a], ys[b])`.
    ///
    /// Returns `None` when coordinates repeat. A consistent grid of honest
    /// rows determines the bound value in the SVSS binding argument; this
    /// function is the constructive version of that fact (used by tests and
    /// the reconstruction fallback).
    pub fn from_grid(xs: &[Fp], ys: &[Fp], grid: &[Vec<Fp>]) -> Option<Self> {
        let t1 = xs.len();
        if t1 == 0 || ys.len() != t1 || grid.len() != t1 {
            return None;
        }
        if grid.iter().any(|r| r.len() != t1) {
            return None;
        }
        // Interpolate each grid row (fixed x = xs[a]) into a poly in y,
        // then interpolate coefficient-wise across x.
        let mut row_polys = Vec::with_capacity(t1);
        for (a, _) in xs.iter().enumerate() {
            let pts: Vec<(Fp, Fp)> = ys.iter().copied().zip(grid[a].iter().copied()).collect();
            row_polys.push(crate::interp::interpolate(&pts).ok()?);
        }
        let deg = t1 - 1;
        let mut coeffs = vec![vec![Fp::ZERO; t1]; t1];
        for j in 0..t1 {
            // coefficient of y^j as a function of x, known at the xs points
            let pts: Vec<(Fp, Fp)> = xs
                .iter()
                .copied()
                .zip(row_polys.iter().map(|p| p.coeff(j)))
                .collect();
            let cpoly = crate::interp::interpolate(&pts).ok()?;
            for (i, c) in coeffs.iter_mut().enumerate() {
                c[j] = cpoly.coeff(i);
            }
        }
        Some(BivarPoly { deg, coeffs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(13)
    }

    #[test]
    fn secret_is_constant_term() {
        let mut r = rng();
        let s = Fp::new(777);
        let f = BivarPoly::random_with_secret(s, 3, &mut r);
        assert_eq!(f.secret(), s);
        assert_eq!(f.eval(Fp::ZERO, Fp::ZERO), s);
    }

    #[test]
    fn row_col_projections_match_eval() {
        let mut r = rng();
        let f = BivarPoly::random(4, &mut r);
        for i in 0..8u64 {
            for j in 0..8u64 {
                let (x, y) = (Fp::new(i), Fp::new(j));
                assert_eq!(f.row(x).eval(y), f.eval(x, y));
                assert_eq!(f.col(y).eval(x), f.eval(x, y));
            }
        }
    }

    #[test]
    fn cross_consistency_of_rows_and_cols() {
        let mut r = rng();
        let f = BivarPoly::random(3, &mut r);
        // f_i(j) == g_j(i): the SVSS pairwise check identity.
        for i in 1..6u64 {
            for j in 1..6u64 {
                assert_eq!(
                    f.row(Fp::new(i)).eval(Fp::new(j)),
                    f.col(Fp::new(j)).eval(Fp::new(i))
                );
            }
        }
    }

    #[test]
    fn row_degree_bounded() {
        let mut r = rng();
        let f = BivarPoly::random(3, &mut r);
        assert!(f.row(Fp::new(2)).degree().unwrap_or(0) <= 3);
        assert!(f.col(Fp::new(2)).degree().unwrap_or(0) <= 3);
    }

    #[test]
    fn grid_reconstruction_roundtrip() {
        let mut r = rng();
        let t = 3usize;
        let f = BivarPoly::random(t, &mut r);
        let xs: Vec<Fp> = (1..=t as u64 + 1).map(Fp::new).collect();
        let ys: Vec<Fp> = (4..=4 + t as u64).map(Fp::new).collect();
        let grid: Vec<Vec<Fp>> = xs
            .iter()
            .map(|&x| ys.iter().map(|&y| f.eval(x, y)).collect())
            .collect();
        let g = BivarPoly::from_grid(&xs, &ys, &grid).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn grid_reconstruction_rejects_bad_shapes() {
        assert!(BivarPoly::from_grid(&[], &[], &[]).is_none());
        let xs = [Fp::new(1), Fp::new(2)];
        let ys = [Fp::new(1)];
        let grid = vec![vec![Fp::ZERO], vec![Fp::ZERO]];
        assert!(BivarPoly::from_grid(&xs, &ys, &grid).is_none());
    }

    #[test]
    fn degree_zero_bivar_is_constant() {
        let mut r = rng();
        let f = BivarPoly::random_with_secret(Fp::new(5), 0, &mut r);
        assert_eq!(f.eval(Fp::new(100), Fp::new(200)), Fp::new(5));
    }
}
