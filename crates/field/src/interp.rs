//! Lagrange interpolation over [`Fp`].
//!
//! All interpolation paths compute their basis denominators up front and
//! invert them with one [`batch_invert`] (Montgomery's trick) — a single
//! field inversion per call instead of one per point, which matters in
//! the Reed–Solomon decode loops where interpolation runs per candidate
//! error budget.

use crate::fp::{batch_invert, Fp};
use crate::poly::Poly;

/// Errors produced by interpolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpolateError {
    /// Two points share the same x-coordinate.
    DuplicateX,
    /// No points were supplied.
    Empty,
}

impl std::fmt::Display for InterpolateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpolateError::DuplicateX => write!(f, "duplicate x-coordinate in interpolation"),
            InterpolateError::Empty => write!(f, "no points supplied for interpolation"),
        }
    }
}

impl std::error::Error for InterpolateError {}

/// Interpolates the unique polynomial of degree `< points.len()` through the
/// given `(x, y)` points.
///
/// # Errors
///
/// Returns [`InterpolateError::DuplicateX`] if two points share an
/// x-coordinate and [`InterpolateError::Empty`] for an empty slice.
///
/// # Examples
///
/// ```
/// use aft_field::{interpolate, Fp, Poly};
///
/// // Through (1, 1), (2, 4), (3, 9): y = x^2.
/// let pts = [(Fp::new(1), Fp::new(1)), (Fp::new(2), Fp::new(4)), (Fp::new(3), Fp::new(9))];
/// let p = interpolate(&pts)?;
/// assert_eq!(p.eval(Fp::new(7)), Fp::new(49));
/// # Ok::<(), aft_field::InterpolateError>(())
/// ```
pub fn interpolate(points: &[(Fp, Fp)]) -> Result<Poly, InterpolateError> {
    if points.is_empty() {
        return Err(InterpolateError::Empty);
    }
    for (i, (xi, _)) in points.iter().enumerate() {
        for (xj, _) in &points[..i] {
            if xi == xj {
                return Err(InterpolateError::DuplicateX);
            }
        }
    }
    // Denominators d_i = prod_{j != i} (x_i - x_j), inverted together:
    // one field inversion for the whole call (Montgomery's trick).
    let mut denoms: Vec<Fp> = points
        .iter()
        .enumerate()
        .map(|(i, &(xi, _))| {
            points
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &(xj, _))| xi - xj)
                .product()
        })
        .collect();
    batch_invert(&mut denoms);
    let mut acc = Poly::zero();
    for (i, &(_, yi)) in points.iter().enumerate() {
        // Basis polynomial l_i = prod_{j != i} (x - x_j) / d_i
        let mut basis = Poly::constant(Fp::ONE);
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            basis = basis.mul_linear(xj);
        }
        let scale = yi * denoms[i];
        for c in basis.coeffs_mut() {
            *c *= scale;
        }
        basis.normalize(); // `yi` may be zero
        acc = &acc + &basis;
    }
    Ok(acc)
}

/// Evaluates, at `x = 0`, the unique polynomial through the given points —
/// the classic "reconstruct the secret" operation — without materialising
/// the whole polynomial.
///
/// # Errors
///
/// Same conditions as [`interpolate`].
///
/// ```
/// use aft_field::{interpolate_at_zero, Fp};
/// let pts = [(Fp::new(1), Fp::new(3)), (Fp::new(2), Fp::new(5))]; // y = 2x + 1
/// assert_eq!(interpolate_at_zero(&pts)?, Fp::new(1));
/// # Ok::<(), aft_field::InterpolateError>(())
/// ```
pub fn interpolate_at_zero(points: &[(Fp, Fp)]) -> Result<Fp, InterpolateError> {
    interpolate_at(points, Fp::ZERO)
}

/// Evaluates, at an arbitrary `x`, the unique polynomial through the given
/// points, via the barycentric form of Lagrange interpolation.
///
/// # Errors
///
/// Same conditions as [`interpolate`].
pub fn interpolate_at(points: &[(Fp, Fp)], x: Fp) -> Result<Fp, InterpolateError> {
    if points.is_empty() {
        return Err(InterpolateError::Empty);
    }
    for (i, (xi, _)) in points.iter().enumerate() {
        for (xj, _) in &points[..i] {
            if xi == xj {
                return Err(InterpolateError::DuplicateX);
            }
        }
        // If x coincides with a node, return that node's value directly.
    }
    if let Some(&(_, y)) = points.iter().find(|(xi, _)| *xi == x) {
        return Ok(y);
    }
    // Denominators batch-inverted: one inversion per evaluation.
    let mut dens: Vec<Fp> = points
        .iter()
        .enumerate()
        .map(|(i, &(xi, _))| {
            points
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &(xj, _))| xi - xj)
                .product()
        })
        .collect();
    batch_invert(&mut dens);
    let mut total = Fp::ZERO;
    for (i, &(_, yi)) in points.iter().enumerate() {
        let mut num = Fp::ONE;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            num *= x - xj;
        }
        total += yi * num * dens[i];
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn interpolation_recovers_random_polys() {
        let mut r = rng();
        for deg in 0..8 {
            let p = Poly::random(deg, &mut r);
            let pts: Vec<(Fp, Fp)> = (1..=deg as u64 + 1)
                .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
                .collect();
            let q = interpolate(&pts).unwrap();
            assert_eq!(p, q, "degree {deg}");
        }
    }

    #[test]
    fn at_zero_matches_full_interpolation() {
        let mut r = rng();
        for _ in 0..30 {
            let p = Poly::random(5, &mut r);
            let pts: Vec<(Fp, Fp)> = (1..=6u64)
                .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
                .collect();
            assert_eq!(interpolate_at_zero(&pts).unwrap(), p.eval(Fp::ZERO));
        }
    }

    #[test]
    fn at_arbitrary_point_matches() {
        let mut r = rng();
        for _ in 0..30 {
            let p = Poly::random(4, &mut r);
            let pts: Vec<(Fp, Fp)> = (1..=5u64)
                .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
                .collect();
            let x = Fp::new(r.gen_range(0..1000));
            assert_eq!(interpolate_at(&pts, x).unwrap(), p.eval(x));
        }
    }

    #[test]
    fn at_node_point_returns_node_value() {
        let pts = [(Fp::new(3), Fp::new(42)), (Fp::new(5), Fp::new(7))];
        assert_eq!(interpolate_at(&pts, Fp::new(3)).unwrap(), Fp::new(42));
    }

    #[test]
    fn duplicate_x_rejected() {
        let pts = [(Fp::new(1), Fp::new(2)), (Fp::new(1), Fp::new(3))];
        assert_eq!(interpolate(&pts), Err(InterpolateError::DuplicateX));
        assert_eq!(interpolate_at_zero(&pts), Err(InterpolateError::DuplicateX));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(interpolate(&[]), Err(InterpolateError::Empty));
        assert_eq!(interpolate_at_zero(&[]), Err(InterpolateError::Empty));
    }

    #[test]
    fn single_point_is_constant() {
        let p = interpolate(&[(Fp::new(9), Fp::new(4))]).unwrap();
        assert_eq!(p, Poly::constant(Fp::new(4)));
    }

    #[test]
    fn oversampled_points_still_recover_low_degree() {
        // 10 points on a degree-2 polynomial must interpolate back to it.
        let p = Poly::from_coeffs(vec![Fp::new(1), Fp::new(2), Fp::new(3)]);
        let pts: Vec<(Fp, Fp)> = (1..=10u64)
            .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
            .collect();
        assert_eq!(interpolate(&pts).unwrap(), p);
    }
}
