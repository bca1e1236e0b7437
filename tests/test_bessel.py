"""Operator layer: kernel identities, dual routes, and the verification battery."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from padic_bessel.padic import Ball, ExactComplex, PAdicVector, PrimeContext, ZERO_NORM
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    RandomFunctionConfig,
    random_test_function,
)
from padic_bessel.bessel import (
    MAX_ORDER_BITS,
    BesselOrder,
    adjoint_defect,
    apply_bessel,
    apply_bessel_convolution,
    c0_dissipativity_margin,
    contraction_ratio,
    kernel_ball_mass,
    kernel_mass,
    kernel_shells,
    kernel_value,
    negdef_witness,
    padic_gamma,
    pmp_check,
    quadratic_form,
    resolvent,
    resolvent_residual,
    symbol_multiplier,
    symbol_value,
)
from padic_bessel.spectral import fourier, inverse_fourier, parseval_defect
from conftest import evaluate_by_scan, kernel_partial_mass, kernel_profile, khat_defect, zeros_function_probes

C21 = PrimeContext(2, 1)

SETTINGS = [
    (2, 1, 1.5),
    (2, 2, 4.0),
    (3, 1, 3.0),
    (3, 2, 2.5),
    (5, 1, 1.8),
    (5, 2, 3.5),
]


def orders():
    return [BesselOrder(a, PrimeContext(p, n)) for p, n, a in SETTINGS]


def omega(ctx=C21):
    return BruhatSchwartzFunction.unit_ball(ctx)


# -- gamma factor, kernel, symbol ------------------------------------------------


def test_gamma_factor_examples():
    assert padic_gamma(2, C21) == Fraction(-4, 3)
    assert padic_gamma(1, C21) == 0  # vanishes at alpha = n
    with pytest.raises(ValueError):
        padic_gamma(0, C21)


def test_gamma_factor_negative_above_dimension():
    for order in orders():
        assert float(padic_gamma(order.alpha, order.ctx)) < 0


def test_bessel_order_requires_alpha_above_n():
    with pytest.raises(ValueError):
        BesselOrder(1.0, C21)
    with pytest.raises(ValueError):
        BesselOrder(1.5, PrimeContext(3, 2))


@pytest.mark.parametrize("alpha", [math.inf, math.nan, -math.inf])
def test_bessel_order_requires_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        BesselOrder(alpha, C21)


def test_kernel_values():
    assert kernel_value(0, BesselOrder(3, C21)) == Fraction(7, 8)
    assert kernel_value(2, BesselOrder(2.0, C21)) == 0
    # the m = 0 value is 1 - p**-alpha for every admissible order
    for order in orders():
        p = order.ctx.p
        got = float(kernel_value(0, order))
        assert abs(got - (1 - p ** (-order.alpha))) <= 1e-15 * abs(got)


@pytest.mark.parametrize(
    "p,n,alpha",
    [(2, 1, 2.0), (3, 1, 3.0), (2, 2, 4.0), (5, 1, 2.0), (3, 2, 2.5), (2, 1, 2.5), (5, 2, 3.5)],
)
def test_kernel_shells_are_kernel_value(p, n, alpha):
    # the running sequence rounds the same rational (integer alpha) or
    # evaluates the same float expression (other alpha) as kernel_value
    order = BesselOrder(alpha, PrimeContext(p, n))
    got = list(itertools.islice(kernel_shells(order), 401))
    assert got == [float(kernel_value(-g, order)) for g in range(401)]


@pytest.mark.parametrize("p,n,alpha", [(2, 1, 2.0), (2, 1, 3.0), (3, 2, 4.0), (5, 1, 2.0), (101, 1, 40.0), (7, 1, 60.0)])
def test_kernel_shells_past_the_stop_row_are_kernel_value(p, n, alpha):
    # past the row that rounds to the limit the float of the limit is
    # yielded with no more big-integer arithmetic; the rows stay the
    # rounded rationals
    order = BesselOrder(alpha, PrimeContext(p, n))
    got = list(itertools.islice(kernel_shells(order), 5001))
    for g in (0, 1, 2, 60, 200, 1000, 5000):
        assert got[g] == float(kernel_value(-g, order))
    assert got[5000] == got[200]


def test_kernel_shells_run_on_when_the_limit_is_a_tie_that_rounds_up():
    # p = 2, n = 53, alpha = 54: B = 2 and the limit 2 - 2**-53 lies halfway
    # between 2 - 2**-52 and 2, and rounds to 2; no row rounds to 2
    order = BesselOrder(54, PrimeContext(2, 53))
    got = list(itertools.islice(kernel_shells(order), 120))
    assert got == [float(kernel_value(-g, order)) for g in range(120)]
    assert got[-1] == 2 - 2**-52


def test_bessel_order_bounds_alpha_log2_p():
    BesselOrder(MAX_ORDER_BITS, C21)
    BesselOrder(float(MAX_ORDER_BITS), C21)
    for alpha in (MAX_ORDER_BITS + 1, 1e8, 1e300):
        with pytest.raises(ValueError, match=f"alpha \\* log2\\(p\\) <= {MAX_ORDER_BITS}"):
            BesselOrder(alpha, C21)
    with pytest.raises(ValueError, match="log2"):
        BesselOrder(MAX_ORDER_BITS // 2 + 1, PrimeContext(5, 1))


def test_kernel_nonnegative_on_support():
    for order in orders():
        for g in range(0, 10):
            assert float(kernel_value(-g, order)) >= 0
        limit = float(kernel_value(ZERO_NORM, order))
        assert limit >= 0


def test_kernel_mass_is_one():
    for order in orders():
        assert abs(kernel_mass(order) - 1.0) <= 1e-12
    assert abs(kernel_mass(BesselOrder(2.0, C21)) - 1.0) <= 1e-12
    assert abs(kernel_mass(BesselOrder(3.5, PrimeContext(5, 2))) - 1.0) <= 1e-12


def test_kernel_ball_mass_matches_brute_shells():
    from padic_bessel.padic import shell_measure

    for order in orders():
        ctx = order.ctx
        for ell in (-3, -1, 0, 2):
            closed = kernel_ball_mass(ell, order)
            top = min(ell, 0)
            brute = sum(
                float(shell_measure(k, ctx)) * float(kernel_value(k, order))
                for k in range(top, top - 90, -1)
            )
            assert abs(closed - brute) <= 1e-13


def test_kernel_ball_mass_exact_at_integer_alpha():
    order = BesselOrder(2.0, C21)
    assert kernel_mass(order) == 1
    # kernel (3/4)(2 - 2^m) on the shell 2^m of measure 2^(m-1), summed over m <= -3
    assert kernel_ball_mass(-3, order) == Fraction(23, 128)
    # the convolution route is then exact: the kernel average at 0 of
    # 1_{2Z_2} + 1_{1/2+2Z_2} - 10 * 1_{3/2+2Z_2}
    f = (
        BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, 0), -1))
        + BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, Fraction(1, 2)), -1))
        + BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, Fraction(3, 2)), -1), -10)
    )
    value = apply_bessel_convolution(order, f, PAdicVector.zero(C21))
    assert (value.re, value.im) == (Fraction(5, 8), 0)
    assert value == apply_bessel(order, f).evaluate(PAdicVector.zero(C21))


def test_kernel_partial_mass_monotone_to_one():
    order = BesselOrder(2.0, C21)
    previous = -1.0
    for g in range(0, 25):
        current = kernel_partial_mass(g, order)
        assert current > previous
        previous = current
    assert abs(previous - 1.0) <= 1e-6
    assert kernel_ball_mass(3, order) == kernel_mass(order)


def test_symbol_values():
    order = BesselOrder(2.0, C21)
    assert symbol_value(ZERO_NORM, order) == 1
    assert symbol_value(0, order) == 1
    assert symbol_value(-3, order) == 1
    assert symbol_value(2, order) == Fraction(1, 16)
    frac_order = BesselOrder(1.5, C21)
    assert abs(symbol_value(2, frac_order) - 2 ** (-3.0)) <= 1e-16


@pytest.mark.parametrize("p,n,alpha", [(2, 1, 2.0), (3, 1, 3.0), (2, 2, 4.0), (5, 1, 2.0)])
def test_symbol_drops_in_closed_form_are_the_differences_of_values(p, n, alpha):
    multiplier = symbol_multiplier(BesselOrder(alpha, PrimeContext(p, n)))
    values = [multiplier.value(k) for k in range(301)]
    drops = [multiplier.drop(k) for k in range(300)]
    assert all(type(drop) is Fraction for drop in drops)
    assert drops == [values[k] - values[k + 1] for k in range(300)]
    # a float order keeps the difference of its values, so its bits stay
    assert symbol_multiplier(BesselOrder(alpha + 0.5, PrimeContext(p, n))).drop is None


def test_khat_matches_symbol():
    for order in orders():
        for m in range(-2, 4):
            assert khat_defect(order, m) <= 1e-10


def test_kernel_profile_deep_pieces_match_values():
    order = BesselOrder(2.5, PrimeContext(3, 1))
    prof = kernel_profile(order)
    for k in range(-6, 1):
        pieces = sum(a * 3 ** (k * d) for a, d in prof.deep_pieces)
        assert abs(pieces - float(prof.resid(k))) <= 1e-14


def test_symbol_transform_reproduces_kernel():
    # the reverse of the khat check: shell-transforming the multiplier
    # lands back on the kernel values inside the unit ball, 0 outside
    from padic_bessel.spectral import radial_transform
    for order in orders():
        prof = symbol_multiplier(order).profile()
        for g in range(0, 7):
            value = radial_transform(prof, -g)
            assert abs(value - float(kernel_value(-g, order))) <= 1e-12
        for m in (1, 2, 3):
            assert abs(radial_transform(prof, m)) <= 1e-15


# -- operator routes --------------------------------------------------------------


def test_apply_bessel_fixes_unit_ball():
    order = BesselOrder(2.0, C21)
    assert apply_bessel(order, omega()) == omega()


def test_apply_bessel_small_ball_value():
    for alpha in (2.0, 3.0):
        order = BesselOrder(alpha, C21)
        half = BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), -1))
        got = apply_bessel(order, half).evaluate(PAdicVector.zero(C21))
        assert abs(float(got.re) - (1 + 2**-alpha) / 2) <= 1e-15
        assert float(got.im) == 0


def test_convolution_route_examples():
    order = BesselOrder(2.0, C21)
    assert apply_bessel_convolution(order, omega(), PAdicVector.zero(C21)).re == pytest.approx(1.0, abs=1e-12)
    far = PAdicVector.of(C21, Fraction(1, 8))
    assert apply_bessel_convolution(order, omega(), far).re == 0


def test_dual_route_agreement():
    order = BesselOrder(2.5, C21)
    rng = random.Random(17)
    for seed in range(50):
        f = random_test_function(seed, C21)
        jf = apply_bessel(order, f)
        for _ in range(20):
            x = PAdicVector.of(C21, Fraction(rng.randint(-60, 60), 2 ** rng.randint(0, 3)))
            assert abs(jf.evaluate(x) - apply_bessel_convolution(order, f, x)) <= 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_composition_semigroup_in_order(seed):
    oa = BesselOrder(1.3, C21)
    ob = BesselOrder(1.4, C21)
    oab = BesselOrder(2.7, C21)
    f = random_test_function(seed, C21)
    d = (apply_bessel(oa, apply_bessel(ob, f)) - apply_bessel(oab, f)).sup_norm()
    assert d <= 1e-12


def test_operator_in_dimension_two():
    ctx = PrimeContext(3, 2)
    order = BesselOrder(3.0, ctx)
    assert apply_bessel(order, omega(ctx)) == omega(ctx)
    rng = random.Random(0)
    cfg = RandomFunctionConfig(den_pow_max=0)
    for seed in range(6):
        f = random_test_function(seed, ctx, cfg)
        jf = apply_bessel(order, f)
        for _ in range(4):
            x = PAdicVector.of(
                ctx,
                Fraction(rng.randint(-20, 20), 3 ** rng.randint(0, 1)),
                Fraction(rng.randint(-20, 20)),
            )
            assert abs(jf.evaluate(x) - apply_bessel_convolution(order, f, x)) <= 1e-12


def test_multiplier_consistency():
    # the transform of the operator output is the symbol times the transform
    from padic_bessel.spectral import multiply_radial

    order = BesselOrder(2.0, C21)
    for seed in range(10):
        f = random_test_function(seed, C21)
        lhs = fourier(apply_bessel(order, f))
        rhs = multiply_radial(fourier(f), symbol_multiplier(order).profile())
        assert (lhs - rhs).sup_norm() <= 1e-12


# -- L2 battery --------------------------------------------------------------------


def test_quadratic_form_examples():
    order = BesselOrder(2.0, C21)
    assert quadratic_form(order, omega()) == -1.0
    assert quadratic_form(order, BruhatSchwartzFunction.zero(C21)) == 0.0


def test_quadratic_form_closed_form_at_odd_p():
    # f = 1_{B(1/3, 3^-1)} at alpha = 3: J f = (26/81) 1_{Z_3} + (1/27) f, so
    # <J f, f> = (26/81 + 3/81) / 3 = 29/243, with no rounding at p = 3
    order = BesselOrder(3.0, PrimeContext(3, 1))
    f = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(order.ctx, Fraction(1, 3)), -1))
    assert quadratic_form(order, f) == -float(Fraction(29, 243))


@pytest.mark.parametrize("seed", range(60))
def test_quadratic_form_nonpositive(seed):
    order = BesselOrder(2.5, C21)
    f = random_test_function(seed, C21, RandomFunctionConfig(complex_coeffs=True))
    assert quadratic_form(order, f) <= 1e-12


@pytest.mark.parametrize("seed", range(40))
def test_adjoint_defect_vanishes(seed):
    order = BesselOrder(2.5, C21)
    cfg = RandomFunctionConfig(complex_coeffs=True)
    f = random_test_function(seed, C21, cfg)
    g = random_test_function(seed + 11_000, C21, cfg)
    assert abs(adjoint_defect(order, f, g)) <= 1e-12


def test_contraction_examples():
    order = BesselOrder(2.0, C21)
    assert contraction_ratio(order, omega()) == pytest.approx(1.0, abs=1e-15)
    # transform supported on the shell of radius p: single multiplier value p^-alpha
    shell_hat = BruhatSchwartzFunction.indicator(
        Ball(PAdicVector.zero(C21), 1)
    ) - BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), 0))
    f = inverse_fourier(shell_hat)
    assert contraction_ratio(order, f) == pytest.approx(2.0**-2, abs=1e-13)
    with pytest.raises(ValueError):
        contraction_ratio(order, BruhatSchwartzFunction.zero(C21))


@pytest.mark.parametrize("seed", range(60))
def test_contraction_bounded_by_one(seed):
    order = BesselOrder(2.5, C21)
    f = random_test_function(seed, C21, RandomFunctionConfig(complex_coeffs=True))
    if f.is_zero:
        return
    assert contraction_ratio(order, f) <= 1.0 + 1e-12


def test_c0_dissipativity_examples():
    order = BesselOrder(2.0, C21)
    assert c0_dissipativity_margin(order, omega(), 1.0) == pytest.approx(1.0, abs=1e-15)
    assert c0_dissipativity_margin(order, BruhatSchwartzFunction.zero(C21), 2.0) == 0.0
    with pytest.raises(ValueError):
        c0_dissipativity_margin(order, omega(), 0.0)
    with pytest.raises(ValueError, match=r"^sup-norm dissipativity is checked on real functions$"):
        c0_dissipativity_margin(order, omega().scale(ExactComplex(0, 1)), 1.0)


@pytest.mark.parametrize("seed", range(40))
def test_c0_dissipativity_on_random_pairs(seed):
    order = BesselOrder(2.5, C21)
    rng = random.Random(seed)
    f = random_test_function(seed, C21)
    lam = rng.uniform(0.1, 10.0)
    assert c0_dissipativity_margin(order, f, lam) >= -1e-12


def test_c0_dissipativity_is_not_universal():
    # The sup-norm inequality fails off the random path: concentrate the
    # positive part on a tiny cell, surround it with near-maximal negative
    # mass, and take lam large.  Kept as documentation that only the L2
    # dissipativity is a theorem here.
    zero = PAdicVector.zero(C21)
    order = BesselOrder(2.0, C21)
    tiny = BruhatSchwartzFunction.indicator(Ball(zero, -3), 1)
    rest = omega() - BruhatSchwartzFunction.indicator(Ball(zero, -3))
    f = tiny + rest.scale(Fraction(-9, 10))
    assert f.sup_norm() == 1.0
    assert c0_dissipativity_margin(order, f, 10.0) < -0.2


# -- maximum principle ---------------------------------------------------------------


def test_pmp_unit_ball_passes():
    order = BesselOrder(2.0, C21)
    report = pmp_check(order, omega())
    assert report.passed
    assert report.sup_value == 1
    assert report.worst == pytest.approx(-1.0, abs=1e-12)


def test_pmp_negative_function_probes_off_support():
    order = BesselOrder(2.0, C21)
    report = pmp_check(order, -omega())
    assert report.passed
    assert report.sup_value == 0 and report.witness_cell is None
    assert report.worst == pytest.approx(0.0, abs=1e-15)


def test_pmp_support_outside_unit_ball_probes_origin():
    # the support sits in 1/4 + Z_2, away from the origin; the zeros of f in
    # that unit ball are maximum points where the kernel still sees the
    # negative mass: -J f = 27/32 at 9/4 and 9/16 at 5/4 and 13/4
    order = BesselOrder(2.0, C21)
    f = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, Fraction(1, 4)), -2), -3)
    report = pmp_check(order, f)
    probe_points = {x.coords for x, _ in report.probes}
    assert (Fraction(0),) in probe_points  # origin regime probed
    assert not report.passed
    assert report.worst == Fraction(27, 32)
    expected = {Fraction(9, 4): Fraction(27, 32), Fraction(5, 4): Fraction(9, 16), Fraction(13, 4): Fraction(9, 16)}
    for x, value in expected.items():
        point = PAdicVector.of(C21, x)
        assert -apply_bessel_convolution(order, f, point).re == value
        assert -apply_bessel(order, f).evaluate(point).re == pytest.approx(float(value), abs=1e-14)


def test_pmp_probes_zeros_next_to_the_support():
    # sup f = 0 is reached at x = 1, within distance 1 of the support, where
    # the kernel average of f is -3/8 on both operator routes
    order = BesselOrder(2.0, C21)
    f = -BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), -1))
    one = PAdicVector.of(C21, 1)
    assert apply_bessel(order, f).evaluate(one).re == Fraction(-3, 8)
    assert apply_bessel_convolution(order, f, one).re == Fraction(-3, 8)
    report = pmp_check(order, f)
    assert report.sup_value == 0 and report.witness_cell is None
    assert not report.passed
    assert report.worst == 0.375


def test_pmp_probes_every_tied_maximum_cell():
    # sup f = 1 on the cells at 0 and at 1/2; the first is harmless (-5/8),
    # the second sits next to the heavy negative cell (+25/8)
    order = BesselOrder(2.0, C21)

    def cell(center, coeff):
        return BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, center), -1), coeff)

    f = cell(0, 1) + cell(Fraction(1, 2), 1) + cell(Fraction(3, 2), -10)
    g = apply_bessel(order, f)
    assert g.evaluate(PAdicVector.zero(C21)).re == Fraction(5, 8)
    assert g.evaluate(PAdicVector.of(C21, Fraction(1, 2))).re == Fraction(-25, 8)
    report = pmp_check(order, f)
    assert report.sup_value == 1
    assert {x.coords for x, _ in report.probes} == {(Fraction(0),), (Fraction(1, 2),)}
    assert not report.passed
    assert report.worst == 3.125


def test_pmp_counterexample_documented():
    # The maximum principle fails for sign-mixed inputs: the operator is an
    # average against a probability kernel, so heavy negative mass next to
    # the argmax drives the value at the max below zero.  Both routes agree
    # exactly on this instance; see the acceptance notes.
    zero = PAdicVector.zero(C21)
    order = BesselOrder(2.0, C21)
    f = BruhatSchwartzFunction.indicator(Ball(zero, -1), 1) + BruhatSchwartzFunction.indicator(
        Ball(PAdicVector.of(C21, 1), -1), -10
    )
    sup = f.sup_and_argmax()
    assert sup.value == 1 and sup.cell.contains(zero)
    conv = apply_bessel_convolution(order, f, zero)
    assert conv.re == Fraction(-25, 8)
    mult = apply_bessel(order, f).evaluate(zero)
    assert mult.re == Fraction(-25, 8)
    report = pmp_check(order, f)
    assert not report.passed
    assert report.worst == 3.125


def test_pmp_sign_definite_functions_pass():
    # Nonnegative functions always pass.  A nonpositive function has sup 0
    # on its zero set, and the kernel (positive on the unit ball) sees the
    # negative mass from every zero within distance 1 of the support, so it
    # passes exactly when each unit ball meeting the support lies inside it.
    from padic_bessel.padic import ExactComplex

    order = BesselOrder(2.5, C21)
    outcomes = set()
    for seed in range(80):
        f = random_test_function(seed, C21)
        sign = 1 if seed % 2 else -1
        definite = BruhatSchwartzFunction(
            C21,
            tuple((ExactComplex(abs(c.re) * sign, 0), b) for c, b in f.terms),
        ).canonicalize()
        report = pmp_check(order, definite, tol=1e-12)
        if sign > 0:
            assert report.passed, (seed, report.worst)
            continue
        support = BruhatSchwartzFunction(
            C21, tuple((ExactComplex(1, 0), b) for _, b in definite.terms)
        )
        units = [Ball(b.center, 0) for _, b in definite.terms]
        covered = all(support.ball_integral(u).re == u.measure for u in units)
        assert report.passed == covered, (seed, report.worst)
        outcomes.add(covered)
    assert outcomes == {True, False}


# -- resolvent -------------------------------------------------------------------------


def test_resolvent_unit_ball_closed_form():
    order = BesselOrder(2.0, C21)
    u = resolvent(order, 1, omega())
    assert len(u.terms) == 1
    coeff, ball = u.terms[0]
    assert coeff.re == Fraction(1, 2) and ball.radius_exp == 0
    assert resolvent_residual(order, 1, omega(), u) == 0.0


@pytest.mark.parametrize("lam", [0.1, 1, 10])
def test_resolvent_residual_small(lam):
    order = BesselOrder(2.5, C21)
    for seed in range(25):
        f = random_test_function(seed, C21)
        assert resolvent_residual(order, lam, f) <= 1e-12


@pytest.mark.parametrize("p,n,alpha", [(2, 1, 2.0), (3, 1, 3.0), (2, 2, 4.0)])
def test_resolvent_residual_sums_its_three_parts_exactly(p, n, alpha):
    # integer alpha and rational lambda keep every value exact, so the one
    # canonical pass equals the chain of scale, + and -, and the resolvent
    # itself leaves no residual
    order = BesselOrder(alpha, PrimeContext(p, n))
    lam = Fraction(1, 2)
    for seed in range(5):
        f = random_test_function(seed, order.ctx)
        u = random_test_function(seed + 100, order.ctx)
        chained = (u.scale(lam) + apply_bessel(order, u) - f).sup_norm()
        assert resolvent_residual(order, lam, f, u) == chained > 0
        assert resolvent_residual(order, lam, f) == 0.0
        margin = (f.scale(lam) + apply_bessel(order, f)).sup_norm() - lam * f.sup_norm()
        assert c0_dissipativity_margin(order, f, lam) == margin


def test_resolvent_decays_like_one_over_lambda():
    order = BesselOrder(2.0, C21)
    f = random_test_function(9, C21)
    bound = f.sup_norm()
    for lam in (1e2, 1e3, 1e4):
        u = resolvent(order, lam, f)
        assert u.sup_norm() <= bound / lam * 1.01


def test_resolvent_rejects_nonpositive_lambda():
    order = BesselOrder(2.0, C21)
    with pytest.raises(ValueError):
        resolvent(order, 0, omega())
    with pytest.raises(ValueError):
        resolvent(order, -1.0, omega())


# -- negative definiteness witness ---------------------------------------------------


def test_negdef_witness_examples():
    m, value = negdef_witness(BesselOrder(2.0, C21))
    assert m == 1 and value == Fraction(-1, 2)
    m, value = negdef_witness(BesselOrder(4.0, PrimeContext(3, 1)))
    assert m == 1 and value == 2 * Fraction(1, 81) - 1
    for order in orders():
        m, value = negdef_witness(order)
        assert m >= 1 and float(value) < 0
        expected = 2 * float(symbol_value(m, order)) - 1
        assert abs(float(value) - expected) <= 1e-15


# -- the battery's queries on the digit trie against the applied operator ------------

# the (p, n, alpha) points of the benchmark grid
GRID = [(2, 1, 2.0), (3, 1, 3.0), (2, 2, 4.0), (5, 1, 2.0), (3, 2, 2.5)]


def battery_inputs(p, n, complex_coeffs):
    """Seeded inputs at one grid point: random ones, a sum of off-center
    balls down to p**-40, its negation and the zero function."""
    ctx = PrimeContext(p, n)
    rng = random.Random(f"battery:{p}:{n}:{complex_coeffs}")
    cfg = RandomFunctionConfig(
        max_terms=4, radius_min=-3, radius_max=2, den_pow_max=1 if p**n <= 9 else 0, complex_coeffs=complex_coeffs
    )
    fs = [random_test_function(seed, ctx, cfg) for seed in range(12)]
    deep = BruhatSchwartzFunction.zero(ctx)
    for r in (-40, -17, -5, 1):
        center = PAdicVector.of(ctx, *[Fraction(rng.randint(-30, 30), p ** rng.randint(0, 2)) for _ in range(n)])
        coeff = ExactComplex(rng.choice([-3, -1, 2, 5]), rng.randint(-2, 2) if complex_coeffs else 0)
        deep = deep + BruhatSchwartzFunction.indicator(Ball(center, r), coeff)
    return ctx, fs + [deep, -deep, BruhatSchwartzFunction.zero(ctx)]


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_pmp_probes_are_the_zeros_function_cells(p, n, alpha):
    ctx, fs = battery_inputs(p, n, complex_coeffs=False)
    order = BesselOrder(alpha, ctx)
    positive = zero = 0
    for f in fs:
        for h in (f, -f):
            h = h.canonicalize()
            sup = h.sup_and_argmax()
            report = pmp_check(order, h)
            assert [x for x, _ in report.probes] == zeros_function_probes(h, sup)
            g = apply_bessel(order, h)
            for x, value in report.probes:
                assert value == -float(evaluate_by_scan(g, x).re) == -float(g.evaluate(x).re)
            positive += sup.cell is not None
            zero += sup.cell is None
    assert positive and zero


def test_pmp_probes_of_a_deep_ball_are_the_zeros_function_cells():
    # -1_{B((1, 1), 3**-200)}: 1601 zero balls, read in one walk
    ctx = PrimeContext(3, 2)
    order = BesselOrder(2.5, ctx)
    f = -BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(ctx, 1, 1), -200))
    report = pmp_check(order, f)
    assert len(report.probes) == 1601
    assert [x for x, _ in report.probes] == zeros_function_probes(f, f.sup_and_argmax())
    positive = pmp_check(order, -f)
    assert [x for x, _ in positive.probes] == [PAdicVector.of(ctx, 1, 1)] and positive.passed


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_haar_energies_match_the_applied_operator(p, n, alpha):
    ctx, fs = battery_inputs(p, n, complex_coeffs=True)
    order = BesselOrder(alpha, ctx)
    for f in fs + [f.scale(0.1) for f in fs[:4]]:
        jf = apply_bessel(order, f)
        quad, quad_oracle = quadratic_form(order, f), -float(jf.inner_product(f).re)
        if f.is_zero:
            assert quad == 0.0
            continue
        ratio, ratio_oracle = contraction_ratio(order, f), jf.l2_norm() / f.l2_norm()
        if order.alpha_is_integer and f.is_exact:
            assert quad == quad_oracle and ratio == ratio_oracle
        else:
            assert abs(quad - quad_oracle) <= 1e-12 * abs(quad_oracle)
            assert abs(ratio - ratio_oracle) <= 1e-12 * ratio_oracle


def test_haar_energy_of_a_single_cell_and_of_nothing():
    order = BesselOrder(2.0, C21)
    wide = BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), 3), 2)
    assert quadratic_form(order, wide) == -32.0
    assert contraction_ratio(order, wide) == 1.0
    assert quadratic_form(order, BruhatSchwartzFunction.zero(C21)) == 0.0


def test_battery_queries_never_scan_the_cells(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cell scan ran")

    monkeypatch.setattr(Ball, "contains", refuse)
    for p, n, alpha in GRID:
        ctx, fs = battery_inputs(p, n, complex_coeffs=False)
        order = BesselOrder(alpha, ctx)
        for f in fs[:3] + fs[-3:]:
            x = PAdicVector.of(ctx, *([Fraction(-1, 3)] * n))
            f.evaluate(x)
            f.ball_integral(Ball(x, -2))
            pmp_check(order, f)
            pmp_check(order, -f)
            quadratic_form(order, f)
            if not f.is_zero:
                contraction_ratio(order, f)
            parseval_defect(f, fs[1])
