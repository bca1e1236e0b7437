"""Radial multipliers through concentric balls against their oracle routes.

The operator, the resolvent and the semigroup are applied by
``RadialMultiplier``; the two Fourier transforms around ``multiply_radial``
and, for the operator, the pointwise convolution route check it.  The
quadratic form and the heat pairing are read off the same route, and their
Fourier-side computations below are their oracles.  No production path
calls the transform at all; the guard test at the end checks that.
"""

import math
import sys
from fractions import Fraction

import pytest

from padic_bessel import cli, spectral
from padic_bessel.padic import (
    EC_ZERO,
    Ball,
    ContextMismatchError,
    PAdicVector,
    PrimeContext,
    ball_measure,
    shell_measure,
)
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    RandomFunctionConfig,
    random_test_function,
)
from padic_bessel.bessel import (
    BesselOrder,
    adjoint_defect,
    apply_bessel,
    apply_bessel_convolution,
    c0_dissipativity_margin,
    contraction_ratio,
    pmp_check,
    quadratic_form,
    resolvent,
    resolvent_multiplier,
    symbol_profile,
    symbol_value,
)
from padic_bessel.heat import (
    EvolutionProblem,
    duhamel,
    multiplier_profile,
    solve_cauchy,
    weak_pairing,
)
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


def quadratic_form_fourier(order, f):
    """<-(operator) f, f> on the Fourier side: minus the pairing of
    symbol * F f with F f."""
    fhat = fourier(f)
    weighted = multiply_radial(fhat, symbol_profile(order))
    return -float(weighted.inner_product(fhat).re)


def weak_pairing_fourier(t, phi, order):
    """The heat kernel's function part paired with phi on the frequency side.

    The inverse transform of phi has compact support, and the transform of
    the function part is expm1(-t * symbol), constant on each of its cells,
    so the pairing is a finite exact-measure sum.
    """
    psi = inverse_fourier(phi)
    ctx = order.ctx

    def w(m):
        return math.expm1(-t * float(symbol_value(m, order)))

    total = EC_ZERO
    for c, ball in psi.terms:
        r = ball.radius_exp
        a = ball.center
        if not a.is_zero:
            total = total + c * (w(a.norm_exp) * float(ball_measure(r, ctx)))
        elif r <= 0:
            total = total + c * (w(0) * float(ball_measure(r, ctx)))
        else:
            piece = w(0)
            for k in range(1, r + 1):
                piece += w(k) * float(shell_measure(k, ctx))
            total = total + c * piece
    return total


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


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_quadratic_form_matches_fourier_oracle(p, n, alpha):
    order = BesselOrder(alpha, PrimeContext(p, n))
    for seed in range(6):
        f = random_test_function(2000 * p + 10 * n + seed, order.ctx, CONFIGS[p, n])
        tol = 1e-10 * max(1.0, f.l2_norm() ** 2)
        assert abs(quadratic_form(order, f) - quadratic_form_fourier(order, f)) <= tol


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_weak_pairing_matches_fourier_oracle(p, n, alpha):
    order = BesselOrder(alpha, PrimeContext(p, n))
    for seed in range(6):
        phi = random_test_function(3000 * p + 10 * n + seed, order.ctx, CONFIGS[p, n])
        for t in (0.01, 0.7, 5.0):
            gap = weak_pairing(t, phi, order) - weak_pairing_fourier(t, phi, order)
            assert abs(gap) <= 1e-12


class TransformCalled(Exception):
    """Raised by the guard that stands in for ``spectral.fourier``."""


def test_production_paths_never_call_the_transform(monkeypatch):
    def guard(f):
        raise TransformCalled("a production path called the Fourier transform")

    original = spectral.fourier
    for name, module in list(sys.modules.items()):
        if name == "padic_bessel" or name.startswith("padic_bessel."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, guard)

    order = BesselOrder(2.5, PrimeContext(2, 1))
    f = random_test_function(7, order.ctx, CONFIGS[2, 1])
    g = random_test_function(8, order.ctx, CONFIGS[2, 1])
    real = random_test_function(9, order.ctx)
    with pytest.raises(TransformCalled):  # the guard is live
        spectral.inverse_fourier(f)
    apply_bessel(order, f)
    resolvent(order, LAM, f)
    solve_cauchy(f, T, order)
    duhamel(EvolutionProblem(f, 1.0, ((0.0, g), (0.5, real))), order, [0.3, 1.0])
    quadratic_form(order, f)
    weak_pairing(T, f, order)
    adjoint_defect(order, f, g)
    contraction_ratio(order, f)
    c0_dissipativity_margin(order, real, 2.0)
    pmp_check(order, real)
    for suite in ("pmp", "dissipative", "selfadjoint", "contraction", "resolvent"):
        assert cli.main(["verify", suite, "--alpha", "2.5", "--trials", "4"]) in (0, 1)
    for suite in ("heat", "negdef"):  # no random inputs, so no --trials
        assert cli.main(["verify", suite, "--alpha", "2.5"]) in (0, 1)
