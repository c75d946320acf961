//! Univariate polynomials over [`Fp`] in coefficient form.

use crate::fp::Fp;
use rand::Rng;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Mul, Sub};

/// How many coefficients a [`Poly`] stores inline: degree ≤ 3, which is
/// every row, column and reveal of a sharing with `t ≤ 3` (`n ≤ 12`).
const INLINE_COEFFS: usize = 4;

/// Coefficient storage. Constructors choose `Inline` whenever the
/// coefficients fit, but nothing relies on that: every reader goes
/// through the coefficient slice.
enum Repr {
    /// `buf[..len]` are the coefficients.
    Inline {
        len: u8,
        buf: [Fp; INLINE_COEFFS],
    },
    Heap(Vec<Fp>),
}

/// A univariate polynomial over `GF(2^61 - 1)`, stored as coefficients in
/// ascending degree order (`coeffs()[i]` multiplies `x^i`).
///
/// Up to four coefficients (degree ≤ 3) are stored inline, so the
/// polynomials of a sharing with `t ≤ 3` are built, cloned and decoded
/// without touching the allocator; longer ones fall back to a `Vec`.
/// `==` and `Hash` read the coefficient slice, so the representation is
/// never observable.
///
/// The zero polynomial has no coefficients; all constructors and
/// operations keep the representation normalised (no trailing zero
/// coefficients), so `==` is semantic equality.
///
/// # Examples
///
/// ```
/// use aft_field::{Fp, Poly};
///
/// // 3 + 2x
/// let p = Poly::from_coeffs(vec![Fp::new(3), Fp::new(2)]);
/// assert_eq!(p.eval(Fp::new(10)), Fp::new(23));
/// assert_eq!(p.degree(), Some(1));
/// ```
pub struct Poly(Repr);

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly::zeroed(0)
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Fp) -> Self {
        Poly::from_slice(&[c])
    }

    /// Builds a polynomial from coefficients in ascending degree order,
    /// trimming trailing zeros.
    pub fn from_coeffs(coeffs: Vec<Fp>) -> Self {
        let mut p = Poly(Repr::Heap(coeffs));
        p.normalize();
        p
    }

    /// `len` zero coefficients to be filled in through
    /// [`coeffs_mut`](Poly::coeffs_mut) — inline when they fit. Not
    /// normalised: the caller ends with [`normalize`](Poly::normalize).
    pub(crate) fn zeroed(len: usize) -> Self {
        Poly(if len <= INLINE_COEFFS {
            Repr::Inline {
                len: len as u8,
                buf: [Fp::ZERO; INLINE_COEFFS],
            }
        } else {
            Repr::Heap(vec![Fp::ZERO; len])
        })
    }

    /// A copy of `coeffs`, taken as they are.
    fn from_slice(coeffs: &[Fp]) -> Self {
        let mut p = Poly::zeroed(coeffs.len());
        p.coeffs_mut().copy_from_slice(coeffs);
        p
    }

    /// `deg + 1` uniformly random coefficients, drawn in ascending degree
    /// order; not normalised.
    fn random_coeffs<R: Rng + ?Sized>(deg: usize, rng: &mut R) -> Self {
        let mut p = Poly::zeroed(deg + 1);
        for c in p.coeffs_mut() {
            *c = Fp::random(rng);
        }
        p
    }

    /// Samples a uniformly random polynomial of degree at most `deg`.
    pub fn random<R: Rng + ?Sized>(deg: usize, rng: &mut R) -> Self {
        let mut p = Poly::random_coeffs(deg, rng);
        p.normalize();
        p
    }

    /// Samples a random polynomial of degree at most `deg` with fixed
    /// constant term `p(0) = secret` — the Shamir sharing polynomial.
    pub fn random_with_secret<R: Rng + ?Sized>(secret: Fp, deg: usize, rng: &mut R) -> Self {
        let mut p = Poly::random_coeffs(deg, rng);
        p.coeffs_mut()[0] = secret;
        p.normalize();
        p
    }

    /// Trims trailing zero coefficients, moving a heap value that now
    /// fits inline.
    pub(crate) fn normalize(&mut self) {
        let coeffs = self.coeffs();
        let trimmed = coeffs.len() - coeffs.iter().rev().take_while(|c| c.is_zero()).count();
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = trimmed as u8,
            Repr::Heap(coeffs) if trimmed > INLINE_COEFFS => coeffs.truncate(trimmed),
            Repr::Heap(coeffs) => *self = Poly::from_slice(&coeffs[..trimmed]),
        }
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs().len().checked_sub(1)
    }

    /// Returns `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs().is_empty()
    }

    /// Appends the canonical wire encoding: `u32` coefficient count, then
    /// each coefficient's canonical 8-byte form, ascending degree.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.coeffs().len() as u32).to_le_bytes());
        for c in self.coeffs() {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Decodes a prefix written by [`encode_to`](Poly::encode_to) from
    /// `bytes`, returning the polynomial and the bytes consumed.
    ///
    /// Rejects truncated input, non-canonical field elements and
    /// non-normalized encodings (a trailing zero coefficient), so
    /// `decode ∘ encode = id` and every polynomial has exactly one byte
    /// form.
    pub fn decode_from(bytes: &[u8]) -> Option<(Poly, usize)> {
        let count_bytes: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
        let count = u32::from_le_bytes(count_bytes) as usize;
        let total = 4 + count.checked_mul(8)?;
        // `count` coefficients are really there before storage is sized
        // by it.
        let body = bytes.get(4..total)?;
        let mut poly = Poly::zeroed(count);
        for (c, chunk) in poly.coeffs_mut().iter_mut().zip(body.chunks_exact(8)) {
            *c = Fp::from_le_bytes(chunk.try_into().ok()?)?;
        }
        if poly.coeffs().last().is_some_and(|c| c.is_zero()) {
            return None; // non-canonical: normalization would alias it
        }
        Some((poly, total))
    }

    /// The coefficients in ascending degree order (no trailing zeros).
    pub fn coeffs(&self) -> &[Fp] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(coeffs) => coeffs,
        }
    }

    /// The coefficients, for an operation building its result in place.
    pub(crate) fn coeffs_mut(&mut self) -> &mut [Fp] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(coeffs) => coeffs,
        }
    }

    /// The coefficient of `x^i` (zero beyond the degree).
    pub fn coeff(&self, i: usize) -> Fp {
        self.coeffs().get(i).copied().unwrap_or(Fp::ZERO)
    }

    /// Evaluates the polynomial at `x` by Horner's rule.
    pub fn eval(&self, x: Fp) -> Fp {
        let mut acc = Fp::ZERO;
        for &c in self.coeffs().iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Evaluates at the canonical party points `1..=n` (index `i` holds
    /// `p(i+1)`), the share vector used throughout the secret-sharing layer.
    pub fn eval_points(&self, n: usize) -> Vec<Fp> {
        (1..=n as u64).map(|i| self.eval(Fp::new(i))).collect()
    }

    /// Multiplies by the monomial `(x - root)`.
    pub fn mul_linear(&self, root: Fp) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        let mut product = Poly::zeroed(self.coeffs().len() + 1);
        let out = product.coeffs_mut();
        for (i, &c) in self.coeffs().iter().enumerate() {
            out[i + 1] += c;
            out[i] -= c * root;
        }
        product.normalize();
        product
    }

    /// Divides exactly by `divisor`, returning `None` when the division
    /// leaves a remainder or the divisor is zero.
    ///
    /// Used by Berlekamp–Welch decoding where `Q(x) / E(x)` must be exact.
    pub fn div_exact(&self, divisor: &Poly) -> Option<Poly> {
        let (q, r) = self.div_rem(divisor)?;
        if r.is_zero() {
            Some(q)
        } else {
            None
        }
    }

    /// Polynomial long division: returns `(quotient, remainder)`, or `None`
    /// if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Poly) -> Option<(Poly, Poly)> {
        let d_deg = divisor.degree()?;
        let divisor = divisor.coeffs();
        let d_lead_inv = divisor[d_deg].inv().expect("leading coeff nonzero");
        let mut remainder = self.clone();
        let rem = remainder.coeffs_mut();
        if rem.len() < divisor.len() {
            return Some((Poly::zero(), remainder));
        }
        let q_len = rem.len() - d_deg;
        let mut quotient = Poly::zeroed(q_len);
        let quot = quotient.coeffs_mut();
        for qi in (0..q_len).rev() {
            let lead = rem[qi + d_deg];
            if lead.is_zero() {
                continue;
            }
            let factor = lead * d_lead_inv;
            quot[qi] = factor;
            for (k, &dc) in divisor.iter().enumerate() {
                rem[qi + k] -= factor * dc;
            }
        }
        quotient.normalize();
        remainder.normalize();
        Some((quotient, remainder))
    }

    /// `self ∘ rhs` coefficient by coefficient, the shorter operand padded
    /// with zeros.
    fn zip_with(&self, rhs: &Poly, op: impl Fn(Fp, Fp) -> Fp) -> Poly {
        let mut out = Poly::zeroed(self.coeffs().len().max(rhs.coeffs().len()));
        for (i, c) in out.coeffs_mut().iter_mut().enumerate() {
            *c = op(self.coeff(i), rhs.coeff(i));
        }
        out.normalize();
        out
    }
}

impl Clone for Poly {
    fn clone(&self) -> Self {
        Poly::from_slice(self.coeffs())
    }
}

impl Default for Poly {
    fn default() -> Self {
        Poly::zero()
    }
}

impl PartialEq for Poly {
    fn eq(&self, other: &Self) -> bool {
        self.coeffs() == other.coeffs()
    }
}

impl Eq for Poly {}

impl Hash for Poly {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.coeffs().hash(state);
    }
}

impl Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut product = Poly::zeroed(self.coeffs().len() + rhs.coeffs().len() - 1);
        let out = product.coeffs_mut();
        for (i, &a) in self.coeffs().iter().enumerate() {
            for (j, &b) in rhs.coeffs().iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        product.normalize();
        product
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "Poly(0)");
        }
        write!(f, "Poly(")?;
        for (i, c) in self.coeffs().iter().enumerate() {
            if i > 0 {
                write!(f, " + {c}*x^{i}")?;
            } else {
                write!(f, "{c}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn zero_poly_invariants() {
        let z = Poly::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), None);
        assert_eq!(z.eval(Fp::new(99)), Fp::ZERO);
        assert_eq!(Poly::from_coeffs(vec![Fp::ZERO, Fp::ZERO]), z);
    }

    #[test]
    fn constant_and_coeff_access() {
        let p = Poly::constant(Fp::new(9));
        assert_eq!(p.degree(), Some(0));
        assert_eq!(p.coeff(0), Fp::new(9));
        assert_eq!(p.coeff(5), Fp::ZERO);
    }

    #[test]
    fn eval_horner_matches_naive() {
        let mut r = rng();
        for _ in 0..50 {
            let p = Poly::random(6, &mut r);
            let x = Fp::random(&mut r);
            let naive: Fp = p
                .coeffs()
                .iter()
                .enumerate()
                .map(|(i, &c)| c * x.pow(i as u64))
                .sum();
            assert_eq!(p.eval(x), naive);
        }
    }

    #[test]
    fn random_with_secret_fixes_constant_term() {
        let mut r = rng();
        for _ in 0..20 {
            let s = Fp::random(&mut r);
            let p = Poly::random_with_secret(s, 4, &mut r);
            assert_eq!(p.eval(Fp::ZERO), s);
        }
    }

    #[test]
    fn add_sub_mul_algebra() {
        let mut r = rng();
        for _ in 0..50 {
            let a = Poly::random(4, &mut r);
            let b = Poly::random(3, &mut r);
            let x = Fp::random(&mut r);
            assert_eq!((&a + &b).eval(x), a.eval(x) + b.eval(x));
            assert_eq!((&a - &b).eval(x), a.eval(x) - b.eval(x));
            assert_eq!((&a * &b).eval(x), a.eval(x) * b.eval(x));
        }
    }

    #[test]
    fn mul_linear_adds_root() {
        let mut r = rng();
        let p = Poly::random(3, &mut r);
        let root = Fp::new(5);
        let q = p.mul_linear(root);
        assert_eq!(q.eval(root), Fp::ZERO);
        assert_eq!(q.degree(), Some(4));
        let x = Fp::new(17);
        assert_eq!(q.eval(x), p.eval(x) * (x - root));
    }

    #[test]
    fn division_roundtrip() {
        let mut r = rng();
        for _ in 0..50 {
            let a = Poly::random(7, &mut r);
            let b = Poly::random(3, &mut r);
            if b.is_zero() {
                continue;
            }
            let (q, rem) = a.div_rem(&b).unwrap();
            let recombined = &(&q * &b) + &rem;
            assert_eq!(recombined, a);
            assert!(rem.degree().unwrap_or(0) < b.degree().unwrap() || rem.is_zero());
        }
    }

    #[test]
    fn div_exact_detects_remainder() {
        let mut r = rng();
        let b = Poly::random(2, &mut r);
        let q = Poly::random(3, &mut r);
        let product = &q * &b;
        assert_eq!(product.div_exact(&b), Some(q));
        let with_rem = &product + &Poly::constant(Fp::ONE);
        assert_eq!(with_rem.div_exact(&b), None);
    }

    #[test]
    fn div_by_zero_returns_none() {
        let p = Poly::constant(Fp::ONE);
        assert!(p.div_rem(&Poly::zero()).is_none());
    }

    #[test]
    fn eval_points_are_one_indexed() {
        // p(x) = x
        let p = Poly::from_coeffs(vec![Fp::ZERO, Fp::ONE]);
        assert_eq!(p.eval_points(3), vec![Fp::new(1), Fp::new(2), Fp::new(3)]);
    }

    /// The two representations: what crosses the inline bound, and that
    /// neither is observable.
    mod representation {
        use super::*;
        use proptest::prelude::*;
        use std::collections::hash_map::DefaultHasher;

        fn is_inline(p: &Poly) -> bool {
            matches!(p.0, Repr::Inline { .. })
        }

        /// `1 + 2x + … + len·x^(len-1)`.
        fn ramp(len: u64) -> Poly {
            Poly::from_coeffs((1..=len).map(Fp::new).collect())
        }

        fn hash_of(p: &Poly) -> u64 {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        }

        #[test]
        fn results_cross_the_inline_bound_in_both_directions() {
            let cubic = ramp(4);
            assert!(is_inline(&cubic) && is_inline(&cubic.clone()));
            // Degree 3 -> 4 spills, and dividing the factor out comes back.
            let quartic = cubic.mul_linear(Fp::new(5));
            assert_eq!(quartic.degree(), Some(4));
            assert!(!is_inline(&quartic) && !is_inline(&quartic.clone()));
            let linear = Poly::from_coeffs(vec![-Fp::new(5), Fp::ONE]);
            let (quot, rem) = quartic.div_rem(&linear).unwrap();
            assert_eq!((quot.clone(), rem.is_zero()), (cubic.clone(), true));
            assert!(is_inline(&quot) && is_inline(&rem));
            // Products: 2 + 2 coefficients stay inline, 3 + 3 do not.
            assert!(is_inline(&(&ramp(2) * &ramp(2))));
            let wide = &ramp(3) * &ramp(3);
            assert_eq!(wide.degree(), Some(4));
            assert!(!is_inline(&wide));
            // A heap value whose top coefficient cancels shrinks to inline,
            // and so does one that arrives padded with zeros.
            let top = Poly::from_coeffs([Fp::ZERO; 4].into_iter().chain([Fp::new(4)]).collect());
            let low = &quartic - &top;
            assert_eq!(low.degree(), Some(3));
            assert!(is_inline(&low));
            let mut padded = Poly(Repr::Heap(
                vec![Fp::ONE; 2].into_iter().chain([Fp::ZERO; 4]).collect(),
            ));
            padded.normalize();
            assert!(is_inline(&padded));
            assert_eq!(padded.coeffs(), [Fp::ONE; 2]);
        }

        #[test]
        fn an_inline_and_a_heap_value_of_the_same_coefficients_are_one_value() {
            let inline = ramp(3);
            let heap = Poly(Repr::Heap(inline.coeffs().to_vec()));
            assert!(is_inline(&inline) && !is_inline(&heap));
            assert_eq!(inline, heap);
            assert_eq!(hash_of(&inline), hash_of(&heap));
            assert_eq!(format!("{inline:?}"), format!("{heap:?}"));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            inline.encode_to(&mut a);
            heap.encode_to(&mut b);
            assert_eq!(a, b);
            let (decoded, used) = Poly::decode_from(&a).unwrap();
            assert_eq!((decoded.clone(), used), (heap.clone(), a.len()));
            assert!(is_inline(&decoded) && is_inline(&heap.clone()));
            assert_ne!(inline, ramp(4));
            assert_ne!(hash_of(&inline), hash_of(&ramp(4)));
        }

        /// `Poly`'s arithmetic as it was on a bare `Vec<Fp>`, kept as the
        /// model the in-place versions are compared with.
        mod model {
            use super::Fp;

            pub fn normalized(mut c: Vec<Fp>) -> Vec<Fp> {
                while c.last().is_some_and(|c| c.is_zero()) {
                    c.pop();
                }
                c
            }

            fn coeff(c: &[Fp], i: usize) -> Fp {
                c.get(i).copied().unwrap_or(Fp::ZERO)
            }

            pub fn add(a: &[Fp], b: &[Fp]) -> Vec<Fp> {
                normalized(
                    (0..a.len().max(b.len()))
                        .map(|i| coeff(a, i) + coeff(b, i))
                        .collect(),
                )
            }

            pub fn sub(a: &[Fp], b: &[Fp]) -> Vec<Fp> {
                normalized(
                    (0..a.len().max(b.len()))
                        .map(|i| coeff(a, i) - coeff(b, i))
                        .collect(),
                )
            }

            pub fn mul(a: &[Fp], b: &[Fp]) -> Vec<Fp> {
                if a.is_empty() || b.is_empty() {
                    return Vec::new();
                }
                let mut out = vec![Fp::ZERO; a.len() + b.len() - 1];
                for (i, &x) in a.iter().enumerate() {
                    for (j, &y) in b.iter().enumerate() {
                        out[i + j] += x * y;
                    }
                }
                normalized(out)
            }

            pub fn div_rem(a: &[Fp], d: &[Fp]) -> Option<(Vec<Fp>, Vec<Fp>)> {
                let d_deg = d.len().checked_sub(1)?;
                let d_lead_inv = d[d_deg].inv().expect("leading coeff nonzero");
                let mut rem = a.to_vec();
                if rem.len() < d.len() {
                    return Some((Vec::new(), rem));
                }
                let q_len = rem.len() - d_deg;
                let mut quot = vec![Fp::ZERO; q_len];
                for qi in (0..q_len).rev() {
                    let factor = rem[qi + d_deg] * d_lead_inv;
                    quot[qi] = factor;
                    for (k, &dc) in d.iter().enumerate() {
                        rem[qi + k] -= factor * dc;
                    }
                }
                Some((normalized(quot), normalized(rem)))
            }
        }

        /// Coefficient vectors on both sides of the bound, zeros included
        /// (so sums cancel and inputs need normalising).
        fn coeffs(max_len: usize) -> impl Strategy<Value = Vec<Fp>> {
            proptest::collection::vec((0u64..4).prop_map(Fp::new), 0..=max_len)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arithmetic_matches_the_vec_model(a in coeffs(9), b in coeffs(6), root in 0u64..5) {
                let (pa, pb) = (Poly::from_coeffs(a.clone()), Poly::from_coeffs(b.clone()));
                let (a, b) = (model::normalized(a), model::normalized(b));
                prop_assert_eq!(pa.coeffs(), &a[..]);
                let root = Fp::new(root);
                let linear = [-root, Fp::ONE];
                let mut results = vec![
                    (&pa + &pb, model::add(&a, &b)),
                    (&pa - &pb, model::sub(&a, &b)),
                    (&pa * &pb, model::mul(&a, &b)),
                    (pa.mul_linear(root), model::mul(&a, &linear)),
                    (pa.clone(), a.clone()),
                ];
                match (pa.div_rem(&pb), model::div_rem(&a, &b)) {
                    (Some((q, r)), Some((mq, mr))) => results.extend([(q, mq), (r, mr)]),
                    (None, None) => {}
                    (got, _) => prop_assert!(false, "div_rem: {:?} against the model", got),
                }
                for (got, want) in results {
                    prop_assert_eq!(got.coeffs(), &want[..]);
                    // What fits is inline, whichever operation made it.
                    prop_assert_eq!(is_inline(&got), want.len() <= INLINE_COEFFS);
                    let mut bytes = Vec::new();
                    got.encode_to(&mut bytes);
                    let (back, used) = Poly::decode_from(&bytes).expect("canonical bytes");
                    prop_assert_eq!((&back, used), (&got, bytes.len()));
                    prop_assert_eq!(is_inline(&back), is_inline(&got));
                }
            }
        }
    }
}
