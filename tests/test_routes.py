"""Radial multipliers on the digit trie against their oracle routes.

The operator, the resolvent and the semigroup are applied by
``RadialMultiplier``; the concentric-ball route it replaced, the two Fourier
transforms around ``multiply_radial`` and, for the operator, the pointwise
convolution route check it.  The quadratic form, the heat pairing and the
maximum-principle check are read off the same route, and their
Fourier-side or convolution computations are their oracles.  No production
path calls the transform or the convolution route; the guard test at the
end checks that.  ``verify routes`` runs the two-transform oracle on
modulated terms (``radial_terms``), so a deep input stays cheap there too.
"""

import math
import sys
import time
from fractions import Fraction

import pytest

from padic_bessel import bessel, cli, spectral
from padic_bessel.padic import (
    EC_ZERO,
    Ball,
    ContextMismatchError,
    PAdicVector,
    PrimeContext,
    shell_measure,
)
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    RandomFunctionConfig,
    random_test_function,
    serialize,
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
    symbol_multiplier,
    symbol_value,
)
from padic_bessel.heat import (
    EvolutionProblem,
    duhamel,
    semigroup_multiplier,
    solve_cauchy,
)
from padic_bessel.spectral import RadialMultiplier, fourier, inverse_fourier, multiply_radial
from conftest import weak_pairing

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


def concentric_terms(multiplier, f):
    """The terms of m(D) f on concentric balls, before canonical form: the
    route ``RadialMultiplier.apply`` took before the digit trie, kept as its
    oracle.

    The transform of B = B(a, p**r) with r < 0 is p**(rn) chi_p(xi . a) on
    the dual ball ||xi|| <= p**(-r), where m telescopes into dual-ball
    indicators, so

        m(D) 1_B = sum_k w_k p**((r+k)n) 1_{B(a, p**(-k))},

    0 <= k <= -r, w_k = m(k) - m(k+1) and w_{-r} = m(-r); and
    m(D) 1_B = m(0) 1_B for r >= 0.  A canonical center has a p-power
    denominator, so its class mod p**k is the residue x % p**k.
    """
    f = f.canonicalize()
    depth = max([0] + [-ball.radius_exp for _, ball in f.terms])
    values = [multiplier.value(k) for k in range(depth + 1)]
    if multiplier.drop is None:
        drops = [values[k] - values[k + 1] for k in range(depth)]
    else:
        drops = [multiplier.drop(k) for k in range(depth)]
    ctx = multiplier.ctx
    p, n = ctx.p, ctx.n
    out = []
    for c, ball in f.terms:
        r = ball.radius_exp
        if r >= 0:
            out.append((c * values[0], ball))
            continue
        coords = ball.center.coords
        for k in range(-r):
            if drops[k]:
                weight = drops[k] * ctx.p_power((r + k) * n)
                center = PAdicVector(tuple(x % p**k for x in coords), ctx)
                out.append((c * weight, Ball(center, -k)))
        out.append((c * values[-r], ball))
    return tuple(out)


def concentric_apply(multiplier, f):
    return BruhatSchwartzFunction(multiplier.ctx, concentric_terms(multiplier, f)).canonicalize()


def two_transform_route(f, profile):
    return inverse_fourier(multiply_radial(fourier(f), profile))


def quadratic_form_fourier(order, f):
    """<-(operator) f, f> on the Fourier side: minus the pairing of
    symbol * F f with F f."""
    fhat = fourier(f)
    weighted = multiply_radial(fhat, symbol_multiplier(order).profile())
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
            total = total + c * (w(a.norm_exp) * float(ball.measure))
        elif r <= 0:
            total = total + c * (w(0) * float(ball.measure))
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
            (apply_bessel(order, f), symbol_multiplier(order).profile()),
            (resolvent(order, LAM, f), resolvent_multiplier(order, LAM).profile()),
            (solve_cauchy(f, T, order), semigroup_multiplier(T, order).profile()),
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
            (apply_bessel(order, f), symbol_multiplier(order).profile()),
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


@pytest.mark.parametrize("complex_coeffs", [False, True])
@pytest.mark.parametrize("p,n,alpha", GRID)
def test_trie_route_matches_the_concentric_oracle(p, n, alpha, complex_coeffs):
    """Byte-identical output where the shell values are exact (the operator
    and the resolvent at integer alpha); within 1e-12 relative in sup norm
    for the float multipliers, which sum in another order."""
    order = BesselOrder(alpha, PrimeContext(p, n))
    c = CONFIGS[p, n]
    config = RandomFunctionConfig(c.max_terms, c.radius_min, c.radius_max, c.den_pow_max, complex_coeffs)
    exact = (symbol_multiplier(order), resolvent_multiplier(order, LAM))
    for seed in range(8):
        f = random_test_function(4000 * p + 10 * n + seed, order.ctx, config)
        for multiplier in exact + (semigroup_multiplier(T, order),):
            got, want = multiplier.apply(f), concentric_apply(multiplier, f)
            if multiplier in exact and order.alpha_is_integer:
                assert got.is_exact
                assert serialize(got) == serialize(want)
            else:
                assert (got - want).sup_norm() <= 1e-12 * max(1.0, want.sup_norm())


def test_trie_route_matches_the_concentric_oracle_on_nested_deep_cells():
    # 1_{B(0,1)} + 2 * 1_{B(1, 2^-40)}: 41 cells, each on its own level
    order = BesselOrder(2.0, PrimeContext(2, 1))
    one = PAdicVector.of(order.ctx, 1)
    f = BruhatSchwartzFunction.unit_ball(order.ctx) + BruhatSchwartzFunction.indicator(Ball(one, -40), 2)
    assert len(f.terms) == 41
    for multiplier in (symbol_multiplier(order), resolvent_multiplier(order, LAM)):
        assert serialize(multiplier.apply(f)) == serialize(concentric_apply(multiplier, f))


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
    """Raised by the guards that stand in for the transforms of ``spectral``."""


def test_production_paths_never_call_the_transform(monkeypatch):
    def guard(*args):
        raise TransformCalled("a production path called the Fourier transform or the convolution route")

    originals = [
        spectral.fourier,
        spectral.inverse_fourier,
        spectral.fourier_terms,
        bessel.apply_bessel_convolution,
    ]
    for name, module in list(sys.modules.items()):
        if name == "padic_bessel" or name.startswith("padic_bessel."):
            for key, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, key, guard)

    order = BesselOrder(2.5, PrimeContext(2, 1))
    f = random_test_function(7, order.ctx, CONFIGS[2, 1])
    g = random_test_function(8, order.ctx, CONFIGS[2, 1])
    real = random_test_function(9, order.ctx)
    with pytest.raises(TransformCalled):  # the guards are live
        spectral.inverse_fourier(f)
    with pytest.raises(TransformCalled):
        bessel.apply_bessel_convolution(order, f, PAdicVector.zero(order.ctx))
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


# -- deep inputs, at the default recursion limit ------------------------------------


def test_pairing_of_a_deep_operator_output_is_fast():
    # 401 cells down to 2^-400; the containing-cell lookups took 8.8 s on a
    # 2-vCPU VM
    order = BesselOrder(2.0, PrimeContext(2, 1))
    f = BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(order.ctx), -400))
    g = apply_bessel(order, f)
    assert len(g.terms) == 401
    start = time.perf_counter()
    value = g.inner_product(g)
    assert time.perf_counter() - start < 0.5
    assert value.im == 0 and value.re == sum(c.abs2() * ball.measure for c, ball in g.terms)


def test_pmp_check_of_a_deep_operator_output_is_fast():
    # 400 cells down to 2^-200; the convolution route at the probe took
    # 1.7 s on a 2-vCPU VM
    order = BesselOrder(2.0, PrimeContext(2, 1))
    one = PAdicVector.of(order.ctx, 1)
    f = apply_bessel(
        order,
        BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(order.ctx), -200))
        + BruhatSchwartzFunction.indicator(Ball(one, -200), -2),
    )
    assert len(f.terms) == 400
    start = time.perf_counter()
    report = pmp_check(order, f)
    assert time.perf_counter() - start < 0.5
    assert len(report.probes) == 1 and report.passed


def test_routes_of_a_deep_modulated_input_stay_on_terms():
    # 2 * 1_{B((1/9, 0), 3^-2)} + 1_{Z_3^2}: the cell route expanded F f into
    # 6561 cells and each product again, and ran out of memory
    order = BesselOrder(2.5, PrimeContext(3, 2))
    a = PAdicVector.of(order.ctx, Fraction(1, 9), 0)
    f = BruhatSchwartzFunction.indicator(Ball(a, -2), 2) + BruhatSchwartzFunction.unit_ball(order.ctx)
    start = time.perf_counter()
    defect = cli.operator_route_defect(order, f)
    assert time.perf_counter() - start < 0.5
    assert defect <= 1e-12
