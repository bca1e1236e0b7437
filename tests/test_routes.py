"""Radial multipliers through concentric balls against their oracle routes.

The operator, the resolvent and the semigroup are applied by
``RadialMultiplier``; the two Fourier transforms around ``multiply_radial``
and, for the operator, the pointwise convolution route check it.
"""

from fractions import Fraction

import pytest

from padic_bessel.padic import Ball, ContextMismatchError, PAdicVector, PrimeContext
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    RandomFunctionConfig,
    random_test_function,
)
from padic_bessel.bessel import (
    BesselOrder,
    apply_bessel,
    apply_bessel_convolution,
    resolvent,
    resolvent_multiplier,
    symbol_profile,
)
from padic_bessel.heat import multiplier_profile, solve_cauchy
from padic_bessel.spectral import RadialMultiplier, fourier, inverse_fourier, multiply_radial

LAM = Fraction(1, 2)
T = 0.7

# (p, n, alpha): the benchmark grid plus a non-integer order at p = 2
GRID = [(2, 1, 2.0), (3, 1, 3.0), (2, 2, 4.0), (5, 1, 2.0), (3, 2, 2.5), (2, 1, 2.5)]

# inputs whose transforms stay small enough for the two-transform oracle
CONFIGS = {
    (2, 1): RandomFunctionConfig(4, -2, 2, den_pow_max=2, complex_coeffs=True),
    (3, 1): RandomFunctionConfig(4, -2, 2, den_pow_max=1, complex_coeffs=True),
    (2, 2): RandomFunctionConfig(4, -2, 2, den_pow_max=1, complex_coeffs=True),
    (5, 1): RandomFunctionConfig(4, -1, 2, den_pow_max=1, complex_coeffs=True),
    (3, 2): RandomFunctionConfig(3, -1, 2, den_pow_max=0, complex_coeffs=True),
}


def two_transform_route(f, profile):
    return inverse_fourier(multiply_radial(fourier(f), profile))


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_three_route_agreement(p, n, alpha):
    order = BesselOrder(alpha, PrimeContext(p, n))
    for seed in range(6):
        f = random_test_function(1000 * p + 10 * n + seed, order.ctx, CONFIGS[p, n])
        tol = 1e-10 * max(1.0, f.sup_norm())
        routes = (
            (apply_bessel(order, f), symbol_profile(order)),
            (resolvent(order, LAM, f), resolvent_multiplier(order, LAM).profile()),
            (solve_cauchy(f, T, order), multiplier_profile(T, order)),
        )
        for got, profile in routes:
            assert (got - two_transform_route(f, profile)).sup_norm() <= tol
        u = routes[0][0]
        for c, ball in u.terms:
            assert abs(c - apply_bessel_convolution(order, f, ball.center)) <= tol


@pytest.mark.parametrize("n", [1, 2])
def test_exact_output_at_odd_p(n):
    """Integer alpha and rational lambda give exact output at p = 3, where
    the two-transform route turns to floats; it is also never finer."""
    order = BesselOrder(3.0, PrimeContext(3, n))
    config = RandomFunctionConfig(3, -2 if n == 1 else -1, 1, den_pow_max=1)
    for seed in range(8):
        f = random_test_function(seed, order.ctx, config)
        for got, profile in (
            (apply_bessel(order, f), symbol_profile(order)),
            (resolvent(order, LAM, f), resolvent_multiplier(order, LAM).profile()),
        ):
            oracle = two_transform_route(f, profile)
            assert got.is_exact
            assert len(got.terms) <= len(oracle.terms)
            assert (got - oracle).sup_norm() <= 1e-10 * max(1.0, f.sup_norm())


def test_concentric_balls_of_a_small_ball():
    # 1_{B(a, p^-2)} at p = 3, n = 1: weights (m(k) - m(k+1)) p^(k-2) on the
    # balls of radius p^-k around a, k = 0, 1, and m(2) on the ball itself
    ctx = PrimeContext(3, 1)
    values = {0: Fraction(1), 1: Fraction(1, 5), 2: Fraction(1, 7)}
    a = PAdicVector.of(ctx, Fraction(2, 3))
    got = RadialMultiplier(ctx, lambda k: values[k]).apply(
        BruhatSchwartzFunction.indicator(Ball(a, -2))
    )
    assert got == (
        BruhatSchwartzFunction.indicator(Ball(a, 0), Fraction(4, 45))
        + BruhatSchwartzFunction.indicator(Ball(a, -1), Fraction(2, 105))
        + BruhatSchwartzFunction.indicator(Ball(a, -2), Fraction(1, 7))
    )


def test_large_balls_scale_by_the_unit_ball_value():
    ctx = PrimeContext(2, 2)
    f = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(ctx, 4, Fraction(1, 2)), 1), 3)
    m = RadialMultiplier(ctx, lambda k: Fraction(1, 3 ** k))
    assert m.apply(f) == f
    assert m.apply(BruhatSchwartzFunction.zero(ctx)).terms == ()


def test_multiplier_rejects_foreign_context():
    m = RadialMultiplier(PrimeContext(2, 1), lambda k: 1)
    with pytest.raises(ContextMismatchError):
        m.apply(BruhatSchwartzFunction.unit_ball(PrimeContext(3, 1)))
