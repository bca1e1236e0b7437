"""Heat kernel routes, mass, convolution law, pairing limit, and evolution."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

import pytest

from padic_bessel import schwartz
from padic_bessel.padic import Ball, PAdicVector, PrimeContext, shell_measure
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    RandomFunctionConfig,
    linear_combination,
    random_test_function,
)
from padic_bessel.spectral import (
    RadialMultiplier,
    RadialProfile,
    fourier,
    inverse_fourier,
    multiply_radial,
)
from padic_bessel.bessel import BesselOrder, symbol_value
from padic_bessel.heat import (
    MAX_DEPTH,
    EvolutionProblem,
    ScheduleError,
    convolution_defect,
    default_depth,
    distributional_mass,
    duhamel,
    forcing_multiplier,
    heat_kernel_multiplier,
    radial_convolution_at,
    semigroup_multiplier,
    solve_cauchy,
    tail_envelopes,
    z_closed,
    z_mass,
    z_oracle,
    z_origin_limit,
    z_shells,
)
from conftest import weak_pairing

C21 = PrimeContext(2, 1)
ORDER = BesselOrder(2.0, C21)

GRID = [
    (p, n, alpha)
    for p in (2, 3, 5)
    for n in (1, 2)
    for alpha in (n + 0.5, n + 2)
]


def omega(ctx=C21):
    return BruhatSchwartzFunction.unit_ball(ctx)


def test_z_closed_first_shells():
    t = 1.0
    assert z_closed(0, t, ORDER) == pytest.approx(math.exp(-1) - math.exp(-0.25), abs=1e-16)
    expected = (math.exp(-1) - math.exp(-0.25)) + 2 * (math.exp(-0.25) - math.exp(-1 / 16))
    assert z_closed(1, t, ORDER) == pytest.approx(expected, abs=1e-15)


def test_z_closed_rejects_bad_arguments():
    with pytest.raises(ValueError):
        z_closed(0, 0.0, ORDER)
    with pytest.raises(ValueError):
        z_closed(0, -1.0, ORDER)
    with pytest.raises(ValueError):
        z_closed(-1, 1.0, ORDER)


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_z_negative_on_every_shell(p, n, alpha):
    order = BesselOrder(alpha, PrimeContext(p, n))
    for t in (0.1, 1.0, 10.0):
        for g in range(13):
            assert z_closed(g, t, order) < 0


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_dual_route_agreement(p, n, alpha):
    order = BesselOrder(alpha, PrimeContext(p, n))
    for t in (0.1, 1.0, 10.0):
        for g in range(13):
            assert abs(z_closed(g, t, order) - z_oracle(g, t, order)) <= 1e-12


def test_oracle_matches_at_deep_shell_across_settings():
    for p, n, alpha in [(2, 1, 2.0), (3, 1, 3.0), (5, 2, 3.5)]:
        order = BesselOrder(alpha, PrimeContext(p, n))
        assert abs(z_closed(5, 2.0, order) - z_oracle(5, 2.0, order)) <= 1e-12


def test_oracle_route_vanishes_outside_unit_ball():
    # shell sum at an outside frequency: the lone surviving character
    # integral cancels the ball term
    from padic_bessel.spectral import radial_transform

    for p, n, alpha in [(2, 1, 2.0), (3, 1, 3.0), (5, 2, 3.5)]:
        order = BesselOrder(alpha, PrimeContext(p, n))
        for m in (1, 2, 3):
            assert abs(radial_transform(heat_kernel_multiplier(1.0, order).profile(), m)) <= 1e-15


def test_z_monotone_in_shell_with_envelope_rate():
    order = BesselOrder(2.0, C21)
    t = 1.0
    envelopes = list(islice(tail_envelopes(t, order), 14))
    previous = z_closed(0, t, order)
    for g in range(1, 14):
        current = z_closed(g, t, order)
        assert current < previous  # strictly more negative: summands are negative
        assert abs(current - previous) <= envelopes[g]
        previous = current
    limit = z_origin_limit(t, order)
    assert abs(limit - z_closed(13, t, order)) <= envelopes[13]


def test_z_mass_examples():
    assert z_mass(1.0, ORDER) == pytest.approx(math.e**-1 - 1, abs=1e-10)
    assert abs(z_mass(1e-8, ORDER)) <= 2e-8  # continuity at t -> 0+
    assert distributional_mass(1.0, ORDER) == pytest.approx(math.exp(-1.0), abs=1e-10)


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_z_mass_across_grid(p, n, alpha):
    order = BesselOrder(alpha, PrimeContext(p, n))
    for t in (0.1, 1.0, 10.0):
        assert abs(z_mass(t, order) - math.expm1(-t)) <= 1e-10


def z_mass_direct(t, order, depth):
    """Cross-check route for the mass: shell measures against shell values."""
    return sum(
        float(shell_measure(-g, order.ctx)) * z
        for g, z in zip(range(depth + 1), z_shells(t, order))
    )


def test_z_mass_direct_route_agrees():
    for t in (0.1, 1.0, 10.0):
        direct = z_mass_direct(t, ORDER, depth=45)
        assert abs(direct - math.expm1(-t)) <= 1e-10


@pytest.mark.parametrize("p,n,alpha", GRID)
@pytest.mark.parametrize("t", [1e-14, 1e-300])
def test_mass_and_origin_limit_keep_their_relative_accuracy_at_small_time(p, n, alpha, t):
    # the tail envelope is proportional to t: under an absolute tolerance of
    # 1e-13 both sums once stopped at shell 0, and the mass read 25% short
    # at (2, 1, 2)
    order = BesselOrder(alpha, PrimeContext(p, n))
    mass = math.expm1(-t)
    assert abs(z_mass(t, order) - mass) <= 1e-13 * abs(mass)
    limit = z_closed(200, t, order)
    assert abs(z_origin_limit(t, order) - limit) <= 1e-12 * abs(limit)


@pytest.mark.parametrize("p,n,alpha", GRID + [(2, 1, 1.01), (7, 3, 3.2)])
def test_default_depth_is_smallest_under_tol(p, n, alpha):
    order = BesselOrder(alpha, PrimeContext(p, n))
    for t in (1e-3, 0.1, 1.0, 10.0, 100.0):
        for tol in (1e-8, 1e-13, 1e-18):
            depth = default_depth(t, order, tol)
            envelopes = list(islice(tail_envelopes(t, order), depth + 1))
            assert envelopes[depth] <= tol
            assert depth == 0 or envelopes[depth - 1] > tol


def test_default_depth_refuses_alpha_next_to_n():
    order = BesselOrder(1.0000001, C21)
    with pytest.raises(ValueError, match="decays too slowly"):
        default_depth(1.0, order)
    with pytest.raises(ValueError):
        z_mass(1.0, order)
    # just inside the cap still resolves
    assert default_depth(1.0, BesselOrder(1.001, C21)) <= MAX_DEPTH


@pytest.mark.parametrize("p,n,alpha", [(2, 1, 2.0), (3, 2, 2.5), (2, 1, 1.01), (7, 1, 60.0)])
@pytest.mark.parametrize("t", [1e-300, 0.7, 1e200])
def test_tail_envelopes_are_tail_envelope_bit_for_bit(p, n, alpha, t):
    order = BesselOrder(alpha, PrimeContext(p, n))
    got = list(islice(tail_envelopes(t, order), 1200))
    assert got == [
        t * (1.0 - p ** (-alpha)) * p ** (depth * (n - alpha)) / (1.0 - p ** (n - alpha)) for depth in range(1200)
    ]


@pytest.mark.parametrize("p,n,alpha,gamma", [(2, 1, 2.0, 1100), (5, 2, 3.5, 240), (3, 1, 3.0, 700)])
def test_z_closed_finite_past_the_float_range(p, n, alpha, gamma):
    # p**(gamma n) alone leaves the float range at these depths
    order = BesselOrder(alpha, PrimeContext(p, n))
    for t in (0.3, 1.0):
        z = z_closed(gamma, t, order)
        assert math.isfinite(z) and z < 0
        assert abs(z - z_origin_limit(t, order)) <= 1e-12


@pytest.mark.parametrize("t1,t2", [(0.5, 0.5), (1.0, 2.0)])
@pytest.mark.parametrize("gamma", [0, 1, 3])
def test_convolution_law(t1, t2, gamma):
    defect, tail = convolution_defect(t1, t2, gamma, ORDER)
    assert defect <= 1e-9
    assert tail <= 1e-12


def test_convolution_defect_refuses_a_shell_outside_the_unit_ball():
    with pytest.raises(ValueError, match=r"^shell index gamma = -1 must be >= 0$"):
        convolution_defect(1.0, 1.0, -1, ORDER)


def test_radial_convolution_vanishes_outside_the_unit_ball():
    # both profiles live in the unit ball, so their convolution does too
    for norm_exp in (1, 2, 7):
        assert radial_convolution_at(lambda k: 1.0, lambda k: -2.0, norm_exp, C21, 5) == 0.0


def test_convolution_multiplier_identity_exact():
    # the transform-side identity behind the convolution law, at raw floats
    for t1, t2 in ((0.5, 0.5), (1.0, 2.0)):
        for j in range(20):
            s = 2.0 ** (-2 * j) if j else 1.0
            lhs = math.expm1(-t1 * s) * math.expm1(-t2 * s)
            rhs = math.expm1(-(t1 + t2) * s) - math.expm1(-t1 * s) - math.expm1(-t2 * s)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_weak_pairing_unit_ball():
    for t in (0.1, 1.0, 3.0):
        got = weak_pairing(t, omega(), ORDER)
        assert float(got.re) == pytest.approx(math.expm1(-t), abs=1e-14)
        assert float(got.im) == 0


def test_weak_pairing_keeps_significance_at_small_time():
    # the pairing with 1_{Z_p} is expm1(-t); read as the semigroup minus the
    # identity, exp(-t) - 1, it would keep only about 5 digits at t = 1e-12
    t = 1e-12
    got = float(weak_pairing(t, omega(), ORDER).re)
    assert abs(got - math.expm1(-t)) <= 1e-15 * abs(math.expm1(-t))


def test_weak_pairing_disjoint_support():
    phi = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, Fraction(1, 4)), -2))
    assert abs(weak_pairing(1.0, phi, ORDER)) <= 1e-12


def test_weak_pairing_matches_direct_shell_sums():
    zero = PAdicVector.zero(C21)
    # small ball: pair against the deep shells only
    phi = BruhatSchwartzFunction.indicator(Ball(zero, -2))
    direct = sum(
        float(shell_measure(-g, C21)) * z_closed(g, 1.0, ORDER) for g in range(2, 60)
    )
    assert abs(float(weak_pairing(1.0, phi, ORDER).re) - direct) <= 1e-12
    # ball larger than the kernel support: the pairing is the full mass
    big = BruhatSchwartzFunction.indicator(Ball(zero, 2))
    assert abs(float(weak_pairing(1.0, big, ORDER).re) - z_mass(1.0, ORDER)) <= 1e-12


def test_delta_limit_of_distribution():
    # the full kernel pairs against the unit indicator to exp(-t) -> 1
    previous = None
    for k in range(1, 7):
        t = 10.0**-k
        pair = 1.0 + float(weak_pairing(t, omega(), ORDER).re)
        gap = abs(pair - 1.0)
        assert gap == pytest.approx(1 - math.exp(-t), abs=1e-15)
        assert gap <= t
        if previous is not None:
            assert gap < previous
        previous = gap


def test_weak_pairing_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        weak_pairing(0.0, omega(), ORDER)


# -- evolution -----------------------------------------------------------------


def test_solve_cauchy_time_zero_is_identity():
    f = random_test_function(3, C21)
    assert solve_cauchy(f, 0.0, ORDER) == f.canonicalize()
    with pytest.raises(ValueError):
        solve_cauchy(f, -0.5, ORDER)


def test_solve_cauchy_unit_ball_eigenfunction():
    for t in (0.25, 1.0, 2.0):
        u = solve_cauchy(omega(), t, ORDER)
        assert len(u.terms) == 1
        coeff, ball = u.terms[0]
        assert ball.radius_exp == 0 and coeff.re == math.exp(-t)


@pytest.mark.parametrize("seed", range(20))
def test_semigroup_composition(seed):
    u0 = random_test_function(seed, C21)
    lhs = solve_cauchy(u0, 1.5, ORDER)
    rhs = solve_cauchy(solve_cauchy(u0, 1.0, ORDER), 0.5, ORDER)
    assert (lhs - rhs).sup_norm() <= 1e-12


def test_evolution_contracts_l2():
    for seed in range(100):
        u0 = random_test_function(seed, C21)
        t = 0.5 if seed % 2 else 2.0
        assert solve_cauchy(u0, t, ORDER).l2_norm() <= u0.l2_norm() + 1e-12


def test_evolution_preserves_nonnegative_eigenfunction():
    u = solve_cauchy(omega(), 1.0, ORDER)
    assert all(c.re > 0 for c, _ in u.terms)


def test_duhamel_homogeneous_matches_cauchy():
    u0 = random_test_function(7, C21)
    problem = EvolutionProblem(u0=u0, horizon=2.0)
    (u,) = duhamel(problem, ORDER, [1.25])
    assert (u - solve_cauchy(u0, 1.25, ORDER)).sup_norm() <= 1e-15


def test_duhamel_constant_forcing_scalar_reference():
    problem = EvolutionProblem(
        u0=BruhatSchwartzFunction.zero(C21),
        horizon=2.0,
        forcing=((0.0, omega()),),
        steps=64,
    )
    for t in (0.5, 1.0):
        (u,) = duhamel(problem, ORDER, [t])
        got = float(u.evaluate(PAdicVector.zero(C21)).re)
        assert abs(got - -math.expm1(-t)) <= 1e-15 * -math.expm1(-t)


def test_duhamel_fourth_order_convergence():
    # the forcing integral is closed-form, so there is no order to observe:
    # every step count gives the same value, 1 - exp(-1) to rounding
    values = []
    for steps in (8, 16, 32):
        problem = EvolutionProblem(
            u0=BruhatSchwartzFunction.zero(C21),
            horizon=2.0,
            forcing=((0.0, omega()),),
            steps=steps,
        )
        (u,) = duhamel(problem, ORDER, [1.0])
        values.append(float(u.evaluate(PAdicVector.zero(C21)).re))
    assert values[0] == values[1] == values[2]
    assert abs(values[0] - -math.expm1(-1)) <= 1e-15 * -math.expm1(-1)


def test_duhamel_validates_times():
    problem = EvolutionProblem(u0=omega(), horizon=1.0)
    with pytest.raises(ValueError):
        duhamel(problem, ORDER, [])
    with pytest.raises(ValueError):
        duhamel(problem, ORDER, [-0.1])
    with pytest.raises(ValueError):
        duhamel(problem, ORDER, [1.5])
    unbounded = EvolutionProblem(u0=omega(), horizon=math.inf, forcing=((0.0, omega()),))
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            duhamel(unbounded, ORDER, [t])


def test_evolution_problem_validation():
    with pytest.raises(ValueError):
        EvolutionProblem(u0=omega(), horizon=0.0)
    with pytest.raises(ValueError):
        EvolutionProblem(u0=omega(), horizon=1.0, steps=5)
    with pytest.raises(ScheduleError):
        EvolutionProblem(u0=omega(), horizon=1.0, forcing=((0.5, omega()),))
    with pytest.raises(ScheduleError):
        EvolutionProblem(
            u0=omega(), horizon=1.0, forcing=((0.0, omega()), (2.0, omega()))
        )
    with pytest.raises(ValueError):
        EvolutionProblem(
            u0=omega(),
            horizon=1.0,
            forcing=((0.0, BruhatSchwartzFunction.unit_ball(PrimeContext(3, 1))),),
        )


def test_forcing_schedule_is_left_continuous_step():
    # each function is in force from its tag to the next one: 1_{Z_2} on
    # [0, 0.5), 5 * 1_{Z_2} after.  1_{Z_2} decays at rate 1, so u(t) is
    # c(t) 1_{Z_2} with c(t) = exp(-t) + the integral of exp(-(t - s)) g(s) ds
    problem = EvolutionProblem(
        u0=omega(), horizon=2.0, forcing=((0.0, omega()), (0.5, omega().scale(5)))
    )
    expected = {
        0.49: math.exp(-0.49) - math.expm1(-0.49),
        0.5: math.exp(-0.5) - math.expm1(-0.5),
        1.9: math.exp(-1.9) + math.exp(-1.4) * -math.expm1(-0.5) - 5 * math.expm1(-1.4),
    }
    for t, u in zip(expected, duhamel(problem, ORDER, list(expected))):
        ((c, ball),) = u.terms
        assert ball == omega().terms[0][1] and c.im == 0
        assert abs(c.re - expected[t]) <= 1e-15 * expected[t]


# -- forcing integral: one closed-form multiplier per forcing piece -------------

#: the (p, n, alpha) grid of the benchmark
BENCH_GRID = ((2, 1, 2.0), (3, 1, 3.0), (2, 2, 4.0), (5, 1, 2.0), (3, 2, 2.5))


def step_problem(p, n, seed, tags=(0.0, 0.3, 0.55)):
    """Seeded initial datum and step forcing, one piece per tag."""
    ctx = PrimeContext(p, n)
    config = RandomFunctionConfig(2, -1, 1, den_pow_max=1 if p**n <= 4 else 0)
    u0 = random_test_function(seed, ctx, config)
    forcing = tuple(
        (tag, random_test_function(1000 * seed + k + 1, ctx, config)) for k, tag in enumerate(tags)
    )
    return EvolutionProblem(u0=u0, horizon=1.0, forcing=forcing)


def exact_forcing_integral(problem, order, t):
    """Mild solution on the two-transform route, independent of
    ``RadialMultiplier.apply``: on each frequency shell T(t) is exp(-t m), and a
    forcing piece in force on [a, b] contributes the integral of
    exp(-(t - s) m) ds over [a, b] = exp(-(t - b) m) (-expm1(-(b - a) m)) / m."""
    pairs = [(1, multiply_radial(fourier(problem.u0), semigroup_multiplier(t, order).profile()))]
    ends = [tag for tag, _ in problem.forcing[1:]] + [t]
    for (a, f), b in zip(problem.forcing, ends):
        b = min(b, t)
        if b <= a:
            continue

        def value(k, a=a, b=b):
            m = float(symbol_value(k, order))
            return math.exp(-(t - b) * m) * -math.expm1(-(b - a) * m) / m

        profile = RadialProfile(ctx=order.ctx, resid=value, constant_on_unit_ball=True)
        pairs.append((1, multiply_radial(fourier(f), profile)))
    return inverse_fourier(linear_combination(pairs))


def test_semigroup_multiplier_one_node_is_the_semigroup():
    f = random_test_function(5, C21, RandomFunctionConfig(4, -2, 2, complex_coeffs=True))
    for t in (0.1, 0.7, 3.0):
        assert semigroup_multiplier(t, ORDER).apply(f) == solve_cauchy(f, t, ORDER)
    with pytest.raises(ValueError):
        semigroup_multiplier(-0.1, ORDER)


def test_nan_time_is_refused():
    # t < 0 is false for nan, which then ran through to nan coefficients
    f = random_test_function(5, C21)
    with pytest.raises(ValueError, match="time t = nan"):
        solve_cauchy(f, math.nan, ORDER)
    with pytest.raises(ValueError, match="time t = nan"):
        semigroup_multiplier(math.nan, ORDER)


@pytest.mark.parametrize("p,n,alpha", BENCH_GRID)
def test_duhamel_matches_exact_shell_integral(p, n, alpha):
    order = BesselOrder(alpha, PrimeContext(p, n))
    for seed in (4, 5):
        problem = step_problem(p, n, seed)
        times = (0.42, 1.0)
        for t, u in zip(times, duhamel(problem, order, times)):
            exact = exact_forcing_integral(problem, order, t)
            assert (u - exact).sup_norm() <= 1e-12 * max(1.0, u.sup_norm())


#: forcing pieces (a, b, t): t = b, b - a = 1e-9, an inexact t - b at t = 50,
#: a piece 50 long, and t = 100, where rounding (t - b) * sigma alone costs
#: 3.2e-15 at (2, 1, 1.5) on shell 1
REFERENCE_PIECES = (
    (0.0, 0.3, 0.3),
    (0.3, 0.3 + 1e-9, 1.0),
    (0.0, 0.3, 50.0),
    (0.3, 0.55, 50.0),
    (0.55, 1.0, 1.0),
    (0.0, 50.0, 50.0),
    (0.55, 1.0, 100.0),
)


def reference_piece_values(a, b, t, order, shells):
    """(exp(-(t - b) s) - exp(-(t - a) s)) / s on each shell, in 220-digit
    decimals from the exact values of the floats a, b, t and of the shell's
    symbol value s.  The difference cancels about -log10(s (b - a)) digits
    and the division by s keeps them lost, which sinks a 60-digit reference
    at shell 39."""
    with localcontext() as ctx:
        ctx.prec = 220
        a, b, t = Decimal(a), Decimal(b), Decimal(t)
        out = []
        for k in range(shells):
            s = symbol_value(k, order)
            s = Decimal(s.numerator) / Decimal(s.denominator) if isinstance(s, Fraction) else Decimal(s)
            out.append(((-(t - b) * s).exp() - (-(t - a) * s).exp()) / s)
        return out


@pytest.mark.parametrize("p,n,alpha", BENCH_GRID + ((2, 1, 1.5),))
def test_forcing_multiplier_matches_decimal_reference(p, n, alpha):
    order = BesselOrder(alpha, PrimeContext(p, n))
    for a, b, t in REFERENCE_PIECES:
        piece = forcing_multiplier(a, b, t, order)
        ref = reference_piece_values(a, b, t, order, 41)
        for k in range(40):
            drop = ref[k] - ref[k + 1]
            assert abs(Decimal(piece.value(k)) - ref[k]) <= Decimal(2e-15) * abs(ref[k])
            assert abs(Decimal(piece.drop(k)) - drop) <= Decimal(2e-15) * abs(drop)


def test_forcing_multiplier_rejects_bad_pieces():
    for a, b, t in ((0.5, 0.5, 1.0), (0.6, 0.5, 1.0), (-0.1, 0.5, 1.0), (0.0, 1.0, 0.5),
                    (0.0, 1.0, math.inf), (0.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            forcing_multiplier(a, b, t, ORDER)


def test_duhamel_without_active_forcing_is_solve_cauchy(monkeypatch):
    # no second canonicalize pass over an already canonical result
    passes = []
    canonicalize = BruhatSchwartzFunction.canonicalize

    def counted(self):
        passes.append(self)
        return canonicalize(self)

    monkeypatch.setattr(BruhatSchwartzFunction, "canonicalize", counted)
    u0 = random_test_function(3, C21, RandomFunctionConfig(4, -3, 1))
    problem = EvolutionProblem(
        u0=u0, horizon=1.0,
        forcing=((0.0, BruhatSchwartzFunction.zero(C21)), (0.5, omega())),
    )
    for t in (0.0, 0.3, 0.5):
        passes.clear()
        expected = solve_cauchy(u0, t, ORDER)
        cauchy_passes = len(passes)
        passes.clear()
        (u,) = duhamel(problem, ORDER, [t])
        assert u == expected
        assert len(passes) == cauchy_passes


def test_duhamel_step_forcing_fourth_order():
    # forcing 1_{Z_2} on [0, 0.3), zero after: at the origin u(1) is the
    # scalar integral of exp(-(1 - s)) over [0, 0.3], exact to rounding
    problem = EvolutionProblem(
        u0=BruhatSchwartzFunction.zero(C21),
        horizon=1.0,
        forcing=((0.0, omega()), (0.3, BruhatSchwartzFunction.zero(C21))),
        steps=64,
    )
    (u,) = duhamel(problem, ORDER, [1.0])
    got = float(u.evaluate(PAdicVector.zero(C21)).re)
    expected = math.exp(-0.7) * -math.expm1(-0.3)
    assert abs(got - expected) <= 1e-14 * expected


def test_duhamel_applies_one_multiplier_per_forcing_piece(monkeypatch):
    # one shell table for u0 and one per active piece, all in one walk
    parts, walks = [], []
    shells, combine_tries = RadialMultiplier.shells, schwartz._combine_tries

    def counted_shells(self, depth):
        parts.append(depth)
        return shells(self, depth)

    def counted_walk(*args):
        walks.append(args)
        return combine_tries(*args)

    monkeypatch.setattr(RadialMultiplier, "shells", counted_shells)
    monkeypatch.setattr(schwartz, "_combine_tries", counted_walk)
    order = BesselOrder(2.0, C21)
    problem = step_problem(2, 1, 6)
    for t, active in ((0.2, 1), (0.42, 2), (1.0, 3)):
        parts.clear()
        walks.clear()
        duhamel(problem, order, [t])
        assert len(parts) == 1 + active
        assert len(walks) == 1


@pytest.mark.parametrize("p,n,alpha", BENCH_GRID)
def test_duhamel_is_the_sum_of_its_applied_multipliers(p, n, alpha):
    # the one combination against the route it replaced: each multiplier
    # applied and merged alone, then the merged outputs summed
    order = BesselOrder(alpha, PrimeContext(p, n))
    for seed in range(1, 7):
        problem = step_problem(p, n, seed)
        ends = [tag for tag, _ in problem.forcing[1:]]
        times = (0.2, 0.42, 0.7, 1.0)
        for t, u in zip(times, duhamel(problem, order, times)):
            pairs = [(1, solve_cauchy(problem.u0, t, order))] + [
                (1, forcing_multiplier(a, min(b, t), t, order).apply(f))
                for (a, f), b in zip(problem.forcing, ends + [t])
                if min(b, t) > a and f.terms
            ]
            composed = linear_combination(pairs)
            assert len(u.terms) == len(composed.terms)
            assert (u - composed).sup_norm() <= 1e-15 * composed.sup_norm()
