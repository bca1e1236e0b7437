"""Acceptance criteria, one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 decides the maximum principle at the exact argmax of
1000 seeded random inputs.  The principle holds for nonnegative functions,
and the criterion requires it there; on sign-mixed inputs it is false for
this operator (it averages against a probability kernel), so the criterion
instead requires ``pmp_check`` to agree with a multiplier-route oracle over
the whole argmax set and with the independent convolution route at every
probe, and to certify at least one violation — see
test_bessel.py::test_pmp_counterexample_documented for the exact
counterexample.  Every criterion passes at the stated tolerances.
"""

import math
import random
from fractions import Fraction

from padic_bessel.padic import ExactComplex, PAdicVector, PrimeContext
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    RandomFunctionConfig,
    random_test_function,
)
from padic_bessel.spectral import fourier, parseval_defect
from padic_bessel.bessel import (
    BesselOrder,
    adjoint_defect,
    apply_bessel,
    apply_bessel_convolution,
    c0_dissipativity_margin,
    contraction_ratio,
    kernel_mass,
    negdef_witness,
    pmp_check,
    quadratic_form,
    resolvent,
    resolvent_residual,
)
from padic_bessel.heat import (
    EvolutionProblem,
    convolution_defect,
    duhamel,
    solve_cauchy,
    z_closed,
    z_mass,
    z_oracle,
)
from conftest import khat_defect, relation, weak_pairing

C21 = PrimeContext(2, 1)

HEAT_GRID = [
    (BesselOrder(n + da, PrimeContext(p, n)), t)
    for p in (2, 3, 5)
    for n in (1, 2)
    for da in (0.5, 2)
    for t in (0.1, 1.0, 10.0)
]

SETTINGS = [
    BesselOrder(a, PrimeContext(p, n))
    for p, n, a in [(2, 1, 1.5), (2, 2, 4.0), (3, 1, 3.0), (3, 2, 2.5), (5, 1, 1.8), (5, 2, 3.5)]
]


def report(num: int, description: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {status} {description} {detail}".rstrip())
    return passed


def omega(ctx=C21):
    return BruhatSchwartzFunction.unit_ball(ctx)


def seeded_functions(count, seed, ctx=C21, **kwargs):
    cfg = RandomFunctionConfig(**kwargs)
    return [random_test_function(seed ^ i, ctx, cfg) for i in range(count)]


def test_criterion_01_heat_dual_route():
    worst = 0.0
    for order, t in HEAT_GRID:
        for g in range(13):
            worst = max(worst, abs(z_closed(g, t, order) - z_oracle(g, t, order)))
    ok = worst <= 1e-12
    assert report(1, "heat-kernel dual-route equality", ok, f"worst={worst:.3e} tol=1e-12")


def test_criterion_02_sign_and_support():
    negative = all(
        z_closed(g, t, order) < 0 for order, t in HEAT_GRID for g in range(13)
    )
    vanishes = all(
        abs(z_oracle(-m, t, order)) <= 1e-15 for order, t in HEAT_GRID for m in (1, 2, 3)
    )
    ok = negative and vanishes
    assert report(2, "kernel negative inside, zero outside to rounding", ok)


def test_criterion_03_mass():
    worst = 0.0
    for order, t in HEAT_GRID:
        worst = max(worst, abs(z_mass(t, order) - math.expm1(-t)))
        worst = max(worst, abs(1.0 + z_mass(t, order) - math.exp(-t)))
    ok = worst <= 1e-10
    assert report(3, "function-part mass expm1(-t), total mass exp(-t)", ok, f"worst={worst:.3e} tol=1e-10")


def test_criterion_04_convolution_law():
    worst = 0.0
    for order in SETTINGS:
        for t1, t2 in ((0.5, 0.5), (1.0, 2.0)):
            for g in (0, 1, 3):
                defect, _ = convolution_defect(t1, t2, g, order)
                worst = max(worst, defect)
    ok = worst <= 1e-9
    assert report(4, "two-time convolution law", ok, f"worst={worst:.3e} tol=1e-9")


def test_criterion_05_delta_limit():
    order = BesselOrder(2.0, C21)
    gaps = []
    exact = True
    for k in range(1, 7):
        t = 10.0**-k
        pairing = 1.0 + float(weak_pairing(t, omega(), order).re)
        gap = abs(pairing - 1.0)
        exact = exact and abs(gap - (1 - math.exp(-t))) <= 1e-15 and gap <= t
        gaps.append(gap)
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = exact and decreasing
    assert report(5, "distribution pairs to the point evaluation as t -> 0+", ok, f"gaps={gaps[0]:.1e}..{gaps[-1]:.1e}")


def test_criterion_06_kernel_identities():
    worst_mass = max(abs(kernel_mass(order) - 1.0) for order in SETTINGS)
    worst_khat = max(
        khat_defect(order, m) for order in SETTINGS for m in range(-2, 4)
    )
    ok = worst_mass <= 1e-12 and worst_khat <= 1e-10
    assert report(
        6, "kernel mass 1 and transform equals multiplier", ok,
        f"mass={worst_mass:.3e} khat={worst_khat:.3e}",
    )


def test_criterion_07_composition():
    oa, ob, oab = BesselOrder(1.3, C21), BesselOrder(1.4, C21), BesselOrder(2.7, C21)
    worst = 0.0
    for f in seeded_functions(100, 1_000):
        d = (apply_bessel(oa, apply_bessel(ob, f)) - apply_bessel(oab, f)).sup_norm()
        worst = max(worst, d)
    ok = worst <= 1e-12
    assert report(7, "order composition J^a J^b = J^(a+b)", ok, f"worst={worst:.3e} tol=1e-12")


def support_indicator(f):
    """The indicator of the support of a canonical function."""
    return BruhatSchwartzFunction(f.ctx, tuple((ExactComplex(1, 0), b) for _, b in f.terms))


def argmax_oracle(order, f):
    """Maximum of -(operator) f over the set where f reaches sup f >= 0.

    Read off the canonical cells of f and of g = apply_bessel(f) (the
    multiplier route): a cell of g counts when f reaches its supremum inside
    it, and the zero region of g counts when the argmax set meets it.  A
    region meets the zero set of a function exactly when the support of that
    function covers less than the region's measure.
    """
    f = f.canonicalize()
    sup = f.sup_and_argmax()
    g = apply_bessel(order, f)
    top = [b for c, b in f.terms if c.re == sup.value]

    def reaches_sup(region):
        if sup.value > 0:
            return any(relation(b, region) != "disjoint" for b in top)
        return support_indicator(f).ball_integral(region).re < region.measure

    values = [-float(c.re) for c, cell in g.terms if reaches_sup(cell)]
    g_support = support_indicator(g)
    if sup.value == 0 or any(g_support.ball_integral(b).re < b.measure for b in top):
        values.append(0.0)
    return max(values)


def test_criterion_08_positive_maximum_principle():
    # The principle is false for sign-mixed functions (documented
    # counterexample: value +25/8 at the unique argmax), so on the 1000
    # seeded inputs it is decided, not assumed: (a) every nonnegative
    # counterpart passes, (b) pmp_check matches the multiplier-route oracle
    # over the whole argmax set, and every probe value the convolution route
    # at that probe, and (c) at least one input is a certified violation.
    order = BesselOrder(2.5, C21)
    worst = -math.inf
    violations = 0
    nonneg_failures = []
    disagreements = []
    worst_gap = 0.0
    worst_probe_gap = 0.0
    for i, f in enumerate(seeded_functions(1000, 42)):
        nonneg = BruhatSchwartzFunction(
            C21, tuple((ExactComplex(abs(c.re), 0), b) for c, b in f.terms)
        ).canonicalize()
        if not pmp_check(order, nonneg, tol=1e-12).passed:
            nonneg_failures.append(i)
        rep = pmp_check(order, f, tol=1e-12)
        expected = argmax_oracle(order, f)
        gap = abs(rep.worst - expected)
        worst_gap = max(worst_gap, gap)
        probe_gap = max(
            abs(value + float(apply_bessel_convolution(order, f, x).re)) for x, value in rep.probes
        )
        worst_probe_gap = max(worst_probe_gap, probe_gap)
        if gap > 1e-10 or probe_gap > 1e-12 or rep.passed != (expected <= 1e-12):
            disagreements.append(i)
        worst = max(worst, rep.worst)
        violations += 0 if rep.passed else 1
    ok = not nonneg_failures and not disagreements and violations > 0
    report(
        8, "maximum principle at the exact argmax", ok,
        f"nonnegative={1000 - len(nonneg_failures)}/1000 pass, oracle gap={worst_gap:.1e}, "
        f"convolution gap={worst_probe_gap:.1e}, "
        f"certified violations={violations}/1000 worst={worst:.3e}",
    )
    assert not nonneg_failures, (
        f"{len(nonneg_failures)} nonnegative inputs fail, first i = {nonneg_failures[:10]}"
    )
    assert not disagreements, (
        f"pmp_check disagrees with the oracle on {len(disagreements)} inputs, "
        f"first i = {disagreements[:10]}"
    )
    assert violations > 0, "no sign-mixed input violates the principle"


def test_criterion_09_l2_battery():
    order = BesselOrder(2.5, C21)
    worst_quad = -math.inf
    for f in seeded_functions(500, 2_024, complex_coeffs=True):
        worst_quad = max(worst_quad, quadratic_form(order, f))
    fs = seeded_functions(500, 3_100, complex_coeffs=True)
    gs = seeded_functions(500, 9_777, complex_coeffs=True)
    worst_adj = max(abs(adjoint_defect(order, f, g)) for f, g in zip(fs, gs))
    worst_ratio = 0.0
    for f in seeded_functions(500, 5_050, complex_coeffs=True):
        if not f.is_zero:
            worst_ratio = max(worst_ratio, contraction_ratio(order, f))
    rng = random.Random(808)
    worst_margin = math.inf
    for f in seeded_functions(200, 17):
        lam = rng.uniform(0.1, 10.0)
        worst_margin = min(worst_margin, c0_dissipativity_margin(order, f, lam))
    ok = (
        worst_quad <= 1e-12
        and worst_adj <= 1e-12
        and worst_ratio <= 1 + 1e-12
        and worst_margin >= -1e-12
    )
    assert report(
        9, "dissipative, self-adjoint, contractive; sup-norm battery", ok,
        f"quad={worst_quad:.2e} adj={worst_adj:.2e} ratio-1={worst_ratio-1:.2e} margin={worst_margin:.2e}",
    )


def test_criterion_10_resolvent():
    order = BesselOrder(2.5, C21)
    worst = 0.0
    for f in seeded_functions(100, 4_242):
        for lam in (0.1, 1, 10):
            worst = max(worst, resolvent_residual(order, lam, f))
    u = resolvent(BesselOrder(2.0, C21), 1, omega())
    closed_ok = (
        len(u.terms) == 1
        and u.terms[0][0].re == Fraction(1, 2)
        and u.terms[0][1].radius_exp == 0
    )
    ok = worst <= 1e-12 and closed_ok
    assert report(10, "resolvent residuals and closed unit-ball case", ok, f"worst={worst:.3e} tol=1e-12")


def test_criterion_11_negdef_witness():
    strictly_negative = True
    for order in SETTINGS:
        _, value = negdef_witness(order)
        strictly_negative = strictly_negative and float(value) < 0
    _, v22 = negdef_witness(BesselOrder(2.0, C21))
    pinned = abs(float(v22) - (-0.5)) <= 1e-15
    ok = strictly_negative and pinned
    assert report(11, "multiplier fails negative-definiteness at shell 1", ok, f"p2a2={float(v22)}")


def test_criterion_12_evolution():
    order = BesselOrder(2.0, C21)
    eigen_ok = True
    for t in (0.25, 1.0, 3.0):
        u = solve_cauchy(omega(), t, order)
        eigen_ok = eigen_ok and len(u.terms) == 1 and abs(u.terms[0][0].re - math.exp(-t)) <= 1e-15
    worst_semi = 0.0
    for u0 in seeded_functions(100, 6_006):
        lhs = solve_cauchy(u0, 1.5, order)
        rhs = solve_cauchy(solve_cauchy(u0, 1.0, order), 0.5, order)
        worst_semi = max(worst_semi, (lhs - rhs).sup_norm())
    # the forcing integral is closed-form, so the forced mild solution is
    # exact to rounding: 1_{Z_2} decays at rate 1, and at the origin u(1) is
    # 1 - e^-1 under constant forcing and e^-0.7 - e^-1 with the forcing
    # switched off at 0.3
    zero = BruhatSchwartzFunction.zero(C21)
    worst_duhamel = 0.0
    for forcing, expected in (
        (((0.0, omega()),), -math.expm1(-1)),
        (((0.0, omega()), (0.3, zero)), math.exp(-0.7) * -math.expm1(-0.3)),
    ):
        problem = EvolutionProblem(u0=zero, horizon=2.0, forcing=forcing)
        (u,) = duhamel(problem, order, [1.0])
        got = float(u.evaluate(PAdicVector.zero(C21)).re)
        worst_duhamel = max(worst_duhamel, abs(got - expected) / expected)
    ok = eigen_ok and worst_semi <= 1e-12 and worst_duhamel <= 1e-14
    assert report(
        12, "eigen-decay, semigroup law, exact forced mild solution", ok,
        f"semi={worst_semi:.2e} duhamel={worst_duhamel:.2e}",
    )


def test_criterion_13_fourier_layer():
    worst_pars = 0.0
    worst_cells = 0.0
    reflection_exact = True
    rng = random.Random(99)
    for i in range(200):
        f = random_test_function(7_777 ^ i, C21, RandomFunctionConfig(complex_coeffs=True))
        g = random_test_function(8_888 ^ i, C21, RandomFunctionConfig(complex_coeffs=True))
        worst_pars = max(worst_pars, abs(parseval_defect(f, g)))
        # the cell route, as an oracle of the closed-form pairing
        cells = f.inner_product(g) - fourier(f).inner_product(fourier(g))
        worst_cells = max(worst_cells, abs(cells))
        doubled = fourier(fourier(f))
        reflected = f.reflect()
        for _ in range(50):
            x = PAdicVector.of(C21, Fraction(rng.randint(-100, 100), 2 ** rng.randint(0, 3)))
            if doubled.evaluate(x) != reflected.evaluate(x):
                reflection_exact = False
    ok = worst_pars == 0 and worst_cells <= 1e-12 and reflection_exact
    assert report(
        13, "exact Parseval and exact double-transform reflection", ok,
        f"parseval={worst_pars:.3e} cells={worst_cells:.3e} reflection_exact={reflection_exact}",
    )
