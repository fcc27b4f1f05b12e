//! Differential tests: `TotalF64::add_times` — which jumps through each
//! binade with one integer multiply-add — against the plain loop of
//! `n` rounding additions it must reproduce bit for bit, on operands
//! built to hit binade crossings, round-half-even ties, additions that
//! round away entirely, and the edges of the fast path.

use clos_rational::{Scalar, TotalF64};
use proptest::prelude::*;

fn looped(a: f64, x: f64, n: usize) -> f64 {
    let mut acc = TotalF64::new(a);
    for _ in 0..n {
        acc += TotalF64::new(x);
    }
    acc.get()
}

fn fast(a: f64, x: f64, n: usize) -> f64 {
    let mut acc = TotalF64::new(a);
    acc.add_times(TotalF64::new(x), n);
    acc.get()
}

fn assert_same(a: f64, x: f64, n: usize) {
    let (want, got) = (looped(a, x, n), fast(a, x, n));
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "a = {a:e}, x = {x:e}, n = {n}: loop {want:e}, add_times {got:e}"
    );
}

/// `mantissa · 2^exp` for a 53-bit mantissa.
fn scaled(mantissa: u64, exp: i32) -> f64 {
    (mantissa & ((1 << 53) - 1)) as f64 * 2f64.powi(exp)
}

/// Edge cases pinned outright: ties at every crossing, sub-half-ulp
/// increments, zero and negative operands, subnormals, and sums that
/// land exactly on a power of two.
#[test]
fn pinned_edges_match_the_loop() {
    let ulp1 = f64::EPSILON;
    let cases = [
        (0.0, 0.1, 1000),
        (0.3, 0.1, 7),
        (1.0, ulp1 / 2.0, 50),
        (1.0, ulp1 / 4.0, 50),
        (1.0, ulp1 * 1.5, 50),
        (1.0, ulp1 * 2.5, 5000),
        (1.0 - ulp1 / 2.0, ulp1 / 2.0, 10),
        (0.5, 0.25, 100),
        (-0.0, 0.0, 3),
        (-1.0, 0.1, 30),
        (1.0, -0.1, 30),
        (5e-324, 5e-324, 100),
        (1e-310, 3e-310, 100),
        (f64::MAX / 2.0, f64::MAX / 4.0, 5),
        (1.0, 0.0, 9),
        (2f64.powi(52), 0.5, 10),
        (2f64.powi(52), 1.5, 10),
        (3.0, 1.0 / 3.0, 4096),
        (0.0, 1.0 / 49.0, 3400),
    ];
    for (a, x, n) in cases {
        for k in [0, 1, 2, 3, n / 2, n] {
            assert_same(a, x, k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary magnitudes: `x` from far below to far above `a`.
    #[test]
    fn random_operands_match_the_loop(
        am in any::<u64>(),
        ae in -80i32..40,
        xm in any::<u64>(),
        xe in -120i32..40,
        n in 0usize..3000,
    ) {
        assert_same(scaled(am, ae), scaled(xm, xe), n);
    }

    /// Short odd increments: as the sum grows, some binade's ulp is
    /// twice `x`'s last bit, so every step there is an exact tie.
    #[test]
    fn tie_heavy_increments_match_the_loop(
        am in 0u64..1 << 20,
        ae in -60i32..0,
        odd in 0u64..1 << 12,
        xe in -70i32..-10,
        n in 0usize..3000,
    ) {
        assert_same(scaled(am, ae), scaled(2 * odd + 1, xe), n);
    }

    /// The waterfill's use: a frozen load (sum of earlier levels)
    /// plus `n` copies of a level `cap / k`.
    #[test]
    fn frozen_load_updates_match_the_loop(
        start in 0usize..400,
        k in 1u64..5000,
        cap_num in 1u64..64,
        n in 1usize..4000,
    ) {
        let level = cap_num as f64 / k as f64;
        let base = looped(0.0, level / 3.0, start);
        assert_same(base, level, n);
    }
}
