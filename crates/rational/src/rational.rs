//! The exact rational number type.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number with an `i128` numerator and denominator.
///
/// Values are always kept in canonical form: the denominator is strictly
/// positive and the numerator and denominator are coprime. Canonical form
/// makes structural equality ([`PartialEq`]/[`Hash`]) coincide with numeric
/// equality, which the workspace relies on when deduplicating rate vectors.
///
/// # Overflow
///
/// Arithmetic is exact or it fails: the `checked_*` methods return `None`
/// when a result cannot be represented and the operators panic, in debug
/// and release builds alike; nothing wraps. Comparison never fails.
///
/// The operations are cheap on the small operands water-filling produces.
/// When every component of both operands is below 2^31 in magnitude,
/// `+`, `-`, `*`, `/` and [`Ord::cmp`] compute in `i64` — each
/// cross-product is then below 2^62 and the sum of two below 2^63, so
/// nothing can overflow — and reduce with a binary gcd in `u64`. Equal
/// denominators skip the cross-products: addition sums the numerators and
/// comparison compares them. Larger operands take the general path:
/// products in `i128` after cross-reduction by greatest common divisors,
/// which keeps magnitudes as small as the exact result allows, and a
/// binary gcd that drops to `u64` as soon as both operands fit. When even
/// the `i128` cross-products of a comparison overflow, it decides by sign
/// and then by continued fractions (integer parts, then the reciprocals
/// of the fractional parts), which only divides. The allocations of
/// unit-capacity Clos networks stay far below `i128::MAX`, so an
/// arithmetic overflow indicates a logic error upstream.
///
/// # Examples
///
/// ```
/// use clos_rational::Rational;
///
/// let r = Rational::new(6, -8);
/// assert_eq!(r, Rational::new(-3, 4));
/// assert_eq!(r.numerator(), -3);
/// assert_eq!(r.denominator(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Rational {
    num: i128,
    den: i128,
}

/// The error returned when parsing a [`Rational`] from a string fails.
///
/// Produced by the [`FromStr`] implementation of [`Rational`].
///
/// # Examples
///
/// ```
/// use clos_rational::Rational;
///
/// assert!("1/0".parse::<Rational>().is_err());
/// assert!("abc".parse::<Rational>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    InvalidInteger,
    ZeroDenominator,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::InvalidInteger => write!(f, "invalid integer in rational literal"),
            ParseErrorKind::ZeroDenominator => write!(f, "rational literal has zero denominator"),
        }
    }
}

impl Error for ParseRationalError {}

/// Components of magnitude below this bound take the `i64` fast paths:
/// with `|x| < 2^31` every cross-product is below `2^62` and the sum of two
/// is below `2^63`, so neither wraps.
const SMALL: u128 = 1 << 31;

/// Whether every component of `a` and `b` is below [`SMALL`].
fn small(a: Rational, b: Rational) -> bool {
    (a.num.unsigned_abs() | a.den as u128 | b.num.unsigned_abs() | b.den as u128) < SMALL
}

/// Binary (Stein) gcd; `gcd(0, 0) == 0`.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Binary gcd on `u128`, finishing in [`gcd_u64`] as soon as both operands
/// fit; `gcd(0, 0) == 0`.
fn gcd(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a | b <= u128::from(u64::MAX) {
            return u128::from(gcd_u64(a as u64, b as u64)) << shift;
        }
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `num/den` in lowest terms (`den > 0`).
fn reduce(num: u128, den: u128) -> (u128, u128) {
    if den == 1 {
        return (num, 1);
    }
    if num | den <= u128::from(u64::MAX) {
        let (n, d) = (num as u64, den as u64);
        let g = gcd_u64(n, d);
        return if g == 1 {
            (num, den)
        } else {
            (u128::from(n / g), u128::from(d / g))
        };
    }
    let g = gcd(num, den);
    (num / g, den / g)
}

/// Compares `n1/d1` with `n2/d2` (denominators positive) by continued
/// fractions: integer parts first, then the fractional remainders through
/// their reciprocals. Every step divides, so nothing can overflow.
fn cmp_magnitudes(mut n1: u128, mut d1: u128, mut n2: u128, mut d2: u128) -> Ordering {
    loop {
        let (q1, r1) = (n1 / d1, n1 % d1);
        let (q2, r2) = (n2 / d2, n2 % d2);
        if q1 != q2 {
            return q1.cmp(&q2);
        }
        match (r1 == 0, r2 == 0) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            // r1/d1 ? r2/d2  <=>  d2/r2 ? d1/r1.
            (false, false) => (n1, d1, n2, d2) = (d2, r2, d1, r1),
        }
    }
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };
    /// The rational number two.
    pub const TWO: Rational = Rational { num: 2, den: 1 };

    /// Creates a rational from a numerator and denominator, normalizing signs
    /// and reducing by the greatest common divisor.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, or if the canonical form does not fit `i128`:
    /// only `i128::MIN` can cause that, as `new(i128::MIN, -1)` or as an odd
    /// `num` over `den == i128::MIN`.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
    /// assert_eq!(Rational::new(1, -2), Rational::new(-1, 2));
    /// ```
    #[must_use]
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational denominator must be nonzero");
        let (n, d) = reduce(num.unsigned_abs(), den.unsigned_abs());
        Rational::from_parts((num < 0) != (den < 0), n, d).expect("rational normalization overflow")
    }

    /// The rational `±num/den` from coprime magnitudes (`den > 0`), or
    /// `None` when a component does not fit `i128`.
    fn from_parts(negative: bool, num: u128, den: u128) -> Option<Rational> {
        let num = if negative {
            0i128.checked_sub_unsigned(num)?
        } else {
            i128::try_from(num).ok()?
        };
        let den = i128::try_from(den).ok()?;
        Some(Rational { num, den })
    }

    /// The canonical form of `num/den` for `den > 0`. Reducing only shrinks
    /// magnitudes, so it always fits; the one magnitude `i128` cannot hold,
    /// 2^127 from `num == i128::MIN`, wraps back to `i128::MIN` on negation.
    fn reduced(num: i128, den: i128) -> Rational {
        let (n, d) = reduce(num.unsigned_abs(), den as u128);
        let n = n as i128;
        Rational {
            num: if num < 0 { n.wrapping_neg() } else { n },
            den: d as i128,
        }
    }

    /// Creates a rational representing the integer `value`.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::from_integer(3), Rational::new(3, 1));
    /// ```
    #[must_use]
    pub const fn from_integer(value: i128) -> Rational {
        Rational { num: value, den: 1 }
    }

    /// Returns the numerator in canonical (reduced, sign-normalized) form.
    #[must_use]
    pub const fn numerator(self) -> i128 {
        self.num
    }

    /// Returns the denominator in canonical form; always strictly positive.
    #[must_use]
    pub const fn denominator(self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is exactly zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert!(Rational::ZERO.is_zero());
    /// assert!(!Rational::new(1, 9).is_zero());
    /// ```
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Returns `true` if the value is an integer (denominator one).
    #[must_use]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns the absolute value.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::new(-1, 2).abs(), Rational::new(1, 2));
    /// ```
    #[must_use]
    pub fn abs(self) -> Rational {
        if self.num < 0 {
            -self
        } else {
            self
        }
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::new(2, 3).recip(), Rational::new(3, 2));
    /// ```
    #[must_use]
    pub fn recip(self) -> Rational {
        assert!(!self.is_zero(), "cannot invert zero");
        Rational::new(self.den, self.num)
    }

    /// Returns the smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Checked addition; returns `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: Rational) -> Option<Rational> {
        if self.den == rhs.den {
            return Some(Rational::reduced(self.num.checked_add(rhs.num)?, self.den));
        }
        if small(self, rhs) {
            let (a, b, c, d) = (
                self.num as i64,
                self.den as i64,
                rhs.num as i64,
                rhs.den as i64,
            );
            return Some(Rational::reduced((a * d + c * b).into(), (b * d).into()));
        }
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b/g*d) with g = gcd(b, d).
        let g = gcd(self.den as u128, rhs.den as u128) as i128;
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        Some(Rational::reduced(num, self.den.checked_mul(lhs_scale)?))
    }

    /// Checked subtraction; returns `None` on overflow.
    #[must_use]
    pub fn checked_sub(self, rhs: Rational) -> Option<Rational> {
        self.checked_add(Rational {
            num: rhs.num.checked_neg()?,
            den: rhs.den,
        })
    }

    /// Checked multiplication; returns `None` on overflow.
    #[must_use]
    pub fn checked_mul(self, rhs: Rational) -> Option<Rational> {
        if small(self, rhs) {
            let num = self.num as i64 * rhs.num as i64;
            return Some(Rational::reduced(
                num.into(),
                (self.den as i64 * rhs.den as i64).into(),
            ));
        }
        Rational::mul_parts(
            (self.num < 0) != (rhs.num < 0),
            [self.num.unsigned_abs(), self.den as u128],
            [rhs.num.unsigned_abs(), rhs.den as u128],
        )
    }

    /// Checked division; returns `None` on overflow or division by zero.
    #[must_use]
    pub fn checked_div(self, rhs: Rational) -> Option<Rational> {
        if rhs.is_zero() {
            return None;
        }
        if small(self, rhs) {
            let (num, den) = (
                self.num as i64 * rhs.den as i64,
                self.den as i64 * rhs.num as i64,
            );
            let num = if den < 0 { -num } else { num };
            return Some(Rational::reduced(num.into(), den.abs().into()));
        }
        Rational::mul_parts(
            (self.num < 0) != (rhs.num < 0),
            [self.num.unsigned_abs(), self.den as u128],
            [rhs.den as u128, rhs.num.unsigned_abs()],
        )
    }

    /// `±(n1/d1)·(n2/d2)` for coprime pairs. Reducing across the pairs
    /// first leaves the product canonical and its components as small as
    /// they can be, so `None` means the exact result does not fit.
    fn mul_parts(negative: bool, [n1, d1]: [u128; 2], [n2, d2]: [u128; 2]) -> Option<Rational> {
        let (g1, g2) = (gcd(n1, d2), gcd(n2, d1));
        let num = (n1 / g1).checked_mul(n2 / g2)?;
        let den = (d1 / g2).checked_mul(d2 / g1)?;
        Rational::from_parts(negative, num, den)
    }

    /// Converts to the nearest `f64`.
    ///
    /// The conversion is lossy for denominators that are not powers of two;
    /// it is intended for reporting and plotting only, never for comparisons
    /// that decide algorithmic outcomes.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert!((Rational::new(1, 3).to_f64() - 0.333_333).abs() < 1e-5);
    /// ```
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Rounds toward negative infinity to the nearest integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::new(7, 2).floor(), 3);
    /// assert_eq!(Rational::new(-7, 2).floor(), -4);
    /// ```
    #[must_use]
    pub fn floor(self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            // Round toward negative infinity for negative values.
            (self.num - (self.den - 1)) / self.den
        }
    }

    /// Rounds toward positive infinity to the nearest integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::new(7, 2).ceil(), 4);
    /// assert_eq!(Rational::new(-7, 2).ceil(), -3);
    /// ```
    #[must_use]
    pub fn ceil(self) -> i128 {
        -(-self).floor()
    }
}

impl Default for Rational {
    fn default() -> Rational {
        Rational::ZERO
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"a"` or `"a/b"` with optional leading sign.
    fn from_str(s: &str) -> Result<Rational, ParseRationalError> {
        let invalid = || ParseRationalError {
            kind: ParseErrorKind::InvalidInteger,
        };
        match s.split_once('/') {
            None => {
                let num: i128 = s.trim().parse().map_err(|_| invalid())?;
                Ok(Rational::from_integer(num))
            }
            Some((a, b)) => {
                let num: i128 = a.trim().parse().map_err(|_| invalid())?;
                let den: i128 = b.trim().parse().map_err(|_| invalid())?;
                if den == 0 {
                    return Err(ParseRationalError {
                        kind: ParseErrorKind::ZeroDenominator,
                    });
                }
                Ok(Rational::new(num, den))
            }
        }
    }
}

impl From<i128> for Rational {
    fn from(value: i128) -> Rational {
        Rational::from_integer(value)
    }
}

impl From<i64> for Rational {
    fn from(value: i64) -> Rational {
        Rational::from_integer(value as i128)
    }
}

impl From<u64> for Rational {
    fn from(value: u64) -> Rational {
        Rational::from_integer(value as i128)
    }
}

impl From<u32> for Rational {
    fn from(value: u32) -> Rational {
        Rational::from_integer(value as i128)
    }
}

impl From<i32> for Rational {
    fn from(value: i32) -> Rational {
        Rational::from_integer(value as i128)
    }
}

impl From<usize> for Rational {
    fn from(value: usize) -> Rational {
        Rational::from_integer(value as i128)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  (denominators positive).
        let (a, b, c, d) = (self.num, self.den, other.num, other.den);
        if b == d {
            return a.cmp(&c);
        }
        if small(*self, *other) {
            return (a as i64 * d as i64).cmp(&(c as i64 * b as i64));
        }
        if let (Some(l), Some(r)) = (a.checked_mul(d), c.checked_mul(b)) {
            return l.cmp(&r);
        }
        // Cross-products overflow: decide by sign, then compare magnitudes
        // by continued fractions, which never overflows.
        match (a < 0, c < 0) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => cmp_magnitudes(a as u128, b as u128, c as u128, d as u128),
            (true, true) => {
                cmp_magnitudes(c.unsigned_abs(), d as u128, a.unsigned_abs(), b as u128)
            }
        }
    }
}

impl Add for Rational {
    type Output = Rational;

    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(rhs).expect("rational addition overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;

    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(rhs)
            .expect("rational subtraction overflow")
    }
}

impl Mul for Rational {
    type Output = Rational;

    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;

    /// # Panics
    ///
    /// Panics on division by zero or overflow.
    fn div(self, rhs: Rational) -> Rational {
        assert!(!rhs.is_zero(), "rational division by zero");
        self.checked_div(rhs).expect("rational division overflow")
    }
}

impl Neg for Rational {
    type Output = Rational;

    fn neg(self) -> Rational {
        Rational {
            num: self.num.checked_neg().expect("rational negation overflow"),
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.copied().sum()
    }
}

impl Product for Rational {
    fn product<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ONE, Mul::mul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_reduces_and_normalizes_sign() {
        assert_eq!(Rational::new(4, 8), Rational::new(1, 2));
        assert_eq!(Rational::new(-4, 8), Rational::new(-1, 2));
        assert_eq!(Rational::new(4, -8), Rational::new(-1, 2));
        assert_eq!(Rational::new(-4, -8), Rational::new(1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert_eq!(Rational::new(0, 7).denominator(), 1);
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::TWO);
        assert_eq!(-a, Rational::new(-1, 3));
        assert_eq!(a + Rational::ZERO, a);
        assert_eq!(a * Rational::ONE, a);
    }

    #[test]
    fn assignment_operators() {
        let mut r = Rational::new(1, 2);
        r += Rational::new(1, 3);
        assert_eq!(r, Rational::new(5, 6));
        r -= Rational::new(1, 6);
        assert_eq!(r, Rational::new(2, 3));
        r *= Rational::new(3, 4);
        assert_eq!(r, Rational::new(1, 2));
        r /= Rational::new(1, 4);
        assert_eq!(r, Rational::TWO);
    }

    #[test]
    fn ordering_is_numeric() {
        let mut v = vec![
            Rational::new(1, 2),
            Rational::new(1, 3),
            Rational::new(2, 3),
            Rational::ZERO,
            Rational::ONE,
            Rational::new(-1, 4),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Rational::new(-1, 4),
                Rational::ZERO,
                Rational::new(1, 3),
                Rational::new(1, 2),
                Rational::new(2, 3),
                Rational::ONE,
            ]
        );
    }

    #[test]
    fn ordering_survives_large_denominators() {
        // Close fractions with large coprime denominators.
        let a = Rational::new(100_000_000_000_000_000, 100_000_000_000_000_001);
        let b = Rational::new(100_000_000_000_000_001, 100_000_000_000_000_002);
        assert!(a < b);
        assert!(b < Rational::ONE);
    }

    #[test]
    fn ordering_is_total_beyond_cross_product_range() {
        // Both cross-products overflow i128; the comparison must still
        // decide (by sign here, by continued fractions below).
        let max = Rational::from_integer(i128::MAX);
        let neg = Rational::new(-i128::MAX, 3);
        assert_eq!(max.cmp(&neg), Ordering::Greater);
        assert_eq!(neg.cmp(&max), Ordering::Less);
        let half = Rational::new(i128::MAX, 2);
        let third = Rational::new(i128::MAX - 2, 3);
        assert_eq!(half.cmp(&third), Ordering::Greater);
        assert_eq!(third.cmp(&half), Ordering::Less);
        assert_eq!((-half).cmp(&-third), Ordering::Less);
        assert_eq!(half.cmp(&half), Ordering::Equal);
    }

    #[test]
    fn min_numerator_reduces_identically_in_every_profile() {
        let r = Rational::new(i128::MIN, 2);
        assert_eq!((r.numerator(), r.denominator()), (-(1 << 126), 1));
        assert_eq!(Rational::new(2, i128::MIN), Rational::new(-1, 1 << 126));
        assert_eq!(gcd(i128::MIN.unsigned_abs(), 1 << 100), 1 << 100);
    }

    #[test]
    fn binary_gcd_matches_euclid() {
        fn euclid(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }
        let samples = [
            0,
            1,
            2,
            3,
            12,
            18,
            1 << 31,
            (1 << 32) + 6,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            3 << 70,
            u128::MAX - 1,
            u128::MAX,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(gcd(a, b), euclid(a, b), "gcd({a}, {b})");
            }
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        for s in ["1/2", "-3/7", "5", "0", "-12"] {
            let r: Rational = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Rational>().is_err());
        assert!("x/2".parse::<Rational>().is_err());
        assert!("1/0".parse::<Rational>().is_err());
        assert!("1//2".parse::<Rational>().is_err());
    }

    #[test]
    fn parse_accepts_whitespace() {
        assert_eq!(" 1 / 2 ".parse::<Rational>().unwrap(), Rational::new(1, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_integer(5).floor(), 5);
        assert_eq!(Rational::from_integer(5).ceil(), 5);
        assert_eq!(Rational::ZERO.floor(), 0);
    }

    #[test]
    fn recip_and_abs() {
        assert_eq!(Rational::new(-2, 3).abs(), Rational::new(2, 3));
        assert_eq!(Rational::new(2, 3).recip(), Rational::new(3, 2));
        assert_eq!(Rational::new(-2, 3).recip(), Rational::new(-3, 2));
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_of_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Rational::ONE / Rational::ZERO;
    }

    #[test]
    fn checked_ops_catch_overflow() {
        let big = Rational::from_integer(i128::MAX);
        assert!(big.checked_add(Rational::ONE).is_none());
        assert!(big.checked_mul(Rational::TWO).is_none());
        assert!(big.checked_sub(-Rational::ONE).is_none());
        assert!(Rational::ONE.checked_div(Rational::ZERO).is_none());
    }

    #[test]
    fn sum_and_product_fold_correctly() {
        let v = [
            Rational::new(1, 2),
            Rational::new(1, 3),
            Rational::new(1, 6),
        ];
        let total: Rational = v.iter().sum();
        assert_eq!(total, Rational::ONE);
        let prod: Rational = v.iter().copied().product();
        assert_eq!(prod, Rational::new(1, 36));
    }

    #[test]
    fn min_max() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn to_f64_is_close() {
        assert!((Rational::new(2, 3).to_f64() - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn conversion_constructors() {
        assert_eq!(Rational::from(3u32), Rational::from_integer(3));
        assert_eq!(Rational::from(-3i64), Rational::from_integer(-3));
        assert_eq!(Rational::from(7usize), Rational::from_integer(7));
    }
}
