//! Differential tests: `Rational`'s fast paths (binary gcd, `i64`
//! arithmetic below 2^31, shared-denominator shortcuts, continued-fraction
//! comparison) against a reference written here — the plain Euclidean,
//! cross-reduced `i128` algorithm — on operands drawn from three magnitude
//! bands: small, near the fast-path and machine-word boundaries, and wide.

use std::cmp::Ordering;
use std::panic;

use clos_rational::Rational;
use proptest::prelude::*;

/// A rational as a `(numerator, denominator)` pair.
type Pair = (i128, i128);

fn euclid_gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `±num/den`, or `None` when a component does not fit `i128`.
fn signed(negative: bool, num: u128, den: u128) -> Option<Pair> {
    let num = if negative {
        0i128.checked_sub_unsigned(num)?
    } else {
        i128::try_from(num).ok()?
    };
    Some((num, i128::try_from(den).ok()?))
}

/// Canonical form of `num/den`, or `None` when a reduced component does
/// not fit `i128`.
fn ref_new(num: i128, den: i128) -> Option<Pair> {
    assert!(den != 0);
    let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
    let g = euclid_gcd(n, d);
    signed((num < 0) != (den < 0), n / g, d / g)
}

/// a/b + c/d = (a*(d/g) + c*(b/g)) / (b/g*d) with g = gcd(b, d).
fn ref_add((a, b): Pair, (c, d): Pair) -> Option<Pair> {
    let g = euclid_gcd(b as u128, d as u128) as i128;
    let (lhs_scale, rhs_scale) = (d / g, b / g);
    let num = a
        .checked_mul(lhs_scale)?
        .checked_add(c.checked_mul(rhs_scale)?)?;
    ref_new(num, b.checked_mul(lhs_scale)?)
}

fn ref_sub(lhs: Pair, (c, d): Pair) -> Option<Pair> {
    ref_add(lhs, (c.checked_neg()?, d))
}

/// `±(n1/d1)·(n2/d2)` for coprime magnitude pairs, cross-reduced before
/// multiplying, so the product is canonical and `None` means it does not
/// fit. The sign is kept apart: a divisor's sign then cannot overflow a
/// positive intermediate whose negation fits.
fn ref_cross(negative: bool, (n1, d1): (u128, u128), (n2, d2): (u128, u128)) -> Option<Pair> {
    let (g1, g2) = (euclid_gcd(n1, d2), euclid_gcd(n2, d1));
    let num = (n1 / g1).checked_mul(n2 / g2)?;
    signed(negative, num, (d1 / g2).checked_mul(d2 / g1)?)
}

fn ref_mul((a, b): Pair, (c, d): Pair) -> Option<Pair> {
    let (b, d) = (b as u128, d as u128);
    ref_cross(
        (a < 0) != (c < 0),
        (a.unsigned_abs(), b),
        (c.unsigned_abs(), d),
    )
}

fn ref_div((a, b): Pair, (c, d): Pair) -> Option<Pair> {
    if c == 0 {
        return None;
    }
    let (b, d) = (b as u128, d as u128);
    ref_cross(
        (a < 0) != (c < 0),
        (a.unsigned_abs(), b),
        (d, c.unsigned_abs()),
    )
}

/// a/b ? c/d by cross-multiplication after dividing out gcd(b, d);
/// `None` when a cross-product overflows.
fn ref_cmp((a, b): Pair, (c, d): Pair) -> Option<Ordering> {
    let g = euclid_gcd(b as u128, d as u128) as i128;
    Some(a.checked_mul(d / g)?.cmp(&c.checked_mul(b / g)?))
}

/// The full 256-bit product `x·y` as `(high, low)` halves, which order
/// like the product itself.
fn wide_mul(x: u128, y: u128) -> (u128, u128) {
    const LOW: u128 = u64::MAX as u128;
    let (x1, x0, y1, y0) = (x >> 64, x & LOW, y >> 64, y & LOW);
    let (lo, mid1, mid2, hi) = (x0 * y0, x1 * y0, x0 * y1, x1 * y1);
    let carry = (lo >> 64) + (mid1 & LOW) + (mid2 & LOW);
    let high = hi + (mid1 >> 64) + (mid2 >> 64) + (carry >> 64);
    (high, (lo & LOW) | (carry << 64))
}

/// a/b ? c/d by sign, then by exact 256-bit cross-products: total on
/// every pair of canonical operands.
fn wide_cmp((a, b): Pair, (c, d): Pair) -> Ordering {
    let magnitudes = || {
        let lhs = wide_mul(a.unsigned_abs(), d as u128);
        lhs.cmp(&wide_mul(c.unsigned_abs(), b as u128))
    };
    match (a < 0, c < 0) {
        (false, true) => Ordering::Greater,
        (true, false) => Ordering::Less,
        (false, false) => magnitudes(),
        (true, true) => magnitudes().reverse(),
    }
}

fn pair(r: Rational) -> Pair {
    (r.numerator(), r.denominator())
}

/// Exponents `k` of the boundaries 2^k the `boundary` band straddles: the
/// fast-path bound, the `u32`/`i64`/`u64` widths and `i128::MIN`.
const BOUNDARIES: [u32; 5] = [31, 32, 63, 64, 127];

/// Magnitudes up to 2^127 in three bands: small (≤ 2^20), within ±2 of
/// a boundary 2^k, and wide (any bit width).
fn magnitude() -> impl Strategy<Value = u128> {
    prop_oneof![
        (0i128..=1 << 20).prop_map(|m| m as u128),
        (0..BOUNDARIES.len(), -2i128..=2).prop_map(|(i, off)| {
            let m = (1u128 << BOUNDARIES[i]).wrapping_add(off as u128);
            m.min(1 << 127)
        }),
        (any::<u128>(), 1u32..=127).prop_map(|(x, shift)| x >> shift),
    ]
}

fn numerator() -> impl Strategy<Value = i128> {
    (magnitude(), any::<bool>()).prop_map(|(m, negative)| {
        if negative {
            (m as i128).wrapping_neg()
        } else {
            m.min(i128::MAX as u128) as i128
        }
    })
}

/// Positive denominators; a third of them are 1, for the integer paths.
fn denominator() -> impl Strategy<Value = i128> {
    let positive = || magnitude().prop_map(|m| m.clamp(1, i128::MAX as u128) as i128);
    prop_oneof![Just(1i128), positive(), positive()]
}

/// A canonical operand, checked against the reference constructor.
fn operand() -> impl Strategy<Value = Rational> {
    (numerator(), denominator()).prop_map(|(n, d)| {
        let r = Rational::new(n, d);
        assert_eq!(Some(pair(r)), ref_new(n, d), "new({n}, {d})");
        r
    })
}

/// `Err(message())` unless `cond` holds.
fn ensure(cond: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(message())
    }
}

fn check_arithmetic(a: Rational, b: Rational) -> Result<(), String> {
    let (pa, pb) = (pair(a), pair(b));
    let ops = [
        ("+", a.checked_add(b), ref_add(pa, pb)),
        ("-", a.checked_sub(b), ref_sub(pa, pb)),
        ("*", a.checked_mul(b), ref_mul(pa, pb)),
        ("/", a.checked_div(b), ref_div(pa, pb)),
    ];
    for (op, got, want) in ops {
        let got = got.map(pair);
        ensure(got == want, || {
            format!("{a} {op} {b}: got {got:?}, reference {want:?}")
        })?;
    }
    Ok(())
}

fn check_ordering(a: Rational, b: Rational) -> Result<(), String> {
    let ord = a.cmp(&b);
    ensure(ord == b.cmp(&a).reverse(), || {
        format!("{a} ? {b}: not antisymmetric")
    })?;
    ensure((ord == Ordering::Equal) == (a == b), || {
        format!("{a} ? {b}: {ord:?}")
    })?;
    if let Some(want) = ref_cmp(pair(a), pair(b)) {
        ensure(ord == want, || {
            format!("{a} ? {b}: got {ord:?}, reference {want:?}")
        })?;
    }
    let want = wide_cmp(pair(a), pair(b));
    ensure(ord == want, || {
        format!("{a} ? {b}: got {ord:?}, 256-bit cross-products {want:?}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn new_matches_reference(n in numerator(), d in denominator(), flip in any::<bool>()) {
        let d = if flip { -d } else { d };
        match ref_new(n, d) {
            Some(expected) => prop_assert_eq!(pair(Rational::new(n, d)), expected),
            // Unrepresentable canonical form: the constructor panics.
            None => prop_assert!(panic::catch_unwind(|| Rational::new(n, d)).is_err()),
        }
    }

    #[test]
    fn arithmetic_matches_reference(a in operand(), b in operand()) {
        prop_assert_eq!(check_arithmetic(a, b), Ok(()));
        prop_assert_eq!(check_arithmetic(b, a), Ok(()));
    }

    #[test]
    fn shared_denominator_matches_reference(n1 in numerator(), n2 in numerator(), d in denominator()) {
        let (a, b) = (Rational::new(n1, d), Rational::new(n2, d));
        prop_assert_eq!(check_arithmetic(a, b), Ok(()));
        prop_assert_eq!(check_ordering(a, b), Ok(()));
    }

    #[test]
    fn ordering_matches_reference(a in operand(), b in operand()) {
        prop_assert_eq!(check_ordering(a, b), Ok(()));
    }
}
