"""Fourier layer: transform rules, reflection, Parseval, radial transforms."""

import math
import random
from fractions import Fraction
from itertools import product as digit_product

import pytest

from padic_bessel import cli, spectral
from padic_bessel.bessel import BesselOrder, apply_bessel, resolvent_multiplier, symbol_multiplier, symbol_value
from padic_bessel.heat import heat_kernel_multiplier, semigroup_multiplier
from padic_bessel.padic import (
    EC_ZERO,
    Ball,
    ExactComplex,
    PAdicVector,
    PrimeContext,
    ZERO_NORM,
    character_from_phase,
    fractional_part,
)
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    RandomFunctionConfig,
    random_test_function,
    serialize,
)
from padic_bessel.spectral import (
    SHELLS_CACHED,
    DivergentTailError,
    ModulatedTerm,
    RadialMultiplier,
    RadialProfile,
    expand,
    fourier,
    fourier_terms,
    inverse_fourier,
    inverse_fourier_terms,
    modulated_terms,
    multiply_radial,
    pairing,
    parseval_defect,
    radial_terms,
    radial_transform,
)
from conftest import digit_children, pairing_by_pairs

C21 = PrimeContext(2, 1)
C31 = PrimeContext(3, 1)
C52 = PrimeContext(5, 2)


def probe_points(ctx, count, seed=0):
    rng = random.Random(seed)
    return [
        PAdicVector.of(
            ctx,
            *[
                Fraction(rng.randint(-80, 80), ctx.p ** rng.randint(0, 2))
                for _ in range(ctx.n)
            ],
        )
        for _ in range(count)
    ]


def test_fourier_unit_ball_self_dual():
    omega = BruhatSchwartzFunction.unit_ball(C21)
    assert fourier(omega) == omega


def test_fourier_small_ball_spreads():
    half = BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), -1))
    out = fourier(half)
    assert len(out.terms) == 1
    coeff, ball = out.terms[0]
    assert coeff.re == Fraction(1, 2)
    assert ball.radius_exp == 1 and ball.center.is_zero


def test_fourier_translated_ball_modulates():
    shifted = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, Fraction(1, 2)), 0))
    out = fourier(shifted)
    # chi(xi/2) is +1 on 2Z_2 and -1 on its odd coset
    vals = {tuple(b.center.coords): c.re for c, b in out.terms}
    assert vals == {(Fraction(0),): 1, (Fraction(1),): -1}
    assert all(b.radius_exp == -1 for _, b in out.terms)


# -- the flattening oracle ----------------------------------------------------


def modulated_cells_reference(dual, a, rho):
    """(phase, cell) pairs flattening chi_p(xi . a) on the dual ball: the
    Fraction descent that builds each cell center level by level as
    c + d * p**(-level) and sums each phase as Fractions."""
    ctx = dual.ctx
    p, n = ctx.p, ctx.n
    level_phases = {
        (i, level): fractional_part(Fraction(p) ** (-level) * a.coords[i], p)
        for i in range(n)
        for level in range(rho + 1, dual.radius_exp + 1)
    }

    def descend(center_coords, level, phase):
        if level == rho:
            yield phase, Ball(PAdicVector(center_coords, ctx), rho, known_canonical=True)
            return
        offset = Fraction(p) ** (-level)
        for digits in digit_product(range(p), repeat=n):
            coords = tuple(c + d * offset for c, d in zip(center_coords, digits))
            bump = sum(
                (d * level_phases[i, level] for i, d in enumerate(digits) if d),
                Fraction(0),
            )
            yield from descend(coords, level - 1, (phase + bump) % 1)

    yield from descend(dual.center.coords, dual.radius_exp, Fraction(0))


def reference_term_cells(c, ball):
    """(phase or None, coefficient, cell) for one canonical term's transform;
    None marks the single unmodulated dual ball."""
    ctx = ball.ctx
    r = ball.radius_exp
    scale = ball.measure
    dual = Ball(PAdicVector.zero(ctx), -r, known_canonical=True)
    a = ball.center
    rho = -r if a.is_zero else min(-r, int(a.min_valuation))
    if rho == -r:
        return [(None, c * scale, dual)]
    return [
        (phase, c * scale * character_from_phase(phase), cell)
        for phase, cell in modulated_cells_reference(dual, a, rho)
    ]


def fourier_reference(f):
    f = f.canonicalize()
    out = [(coeff, cell) for c, ball in f.terms for _, coeff, cell in reference_term_cells(c, ball)]
    return BruhatSchwartzFunction(f.ctx, tuple(out)).canonicalize()


ORACLE_GRID = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1)]


def oracle_inputs(p, n):
    """Seeded sums, plus terms with r > 0 and centers with denominators."""
    ctx = PrimeContext(p, n)
    den_pow_max = 2 if p**n <= 4 else 1
    cfg = RandomFunctionConfig(max_terms=4, radius_min=-2, radius_max=3, den_pow_max=den_pow_max, complex_coeffs=True)
    inputs = [random_test_function(seed, ctx, cfg) for seed in range(6)]
    rng = random.Random(100 * p + n)
    for _ in range(3):
        terms = []
        for r, den in ((2, p**3), (rng.randint(-1, 0), p ** rng.randint(1, 2)), (1, 3 if p != 3 else 2)):
            coords = tuple(Fraction(rng.randint(-40, 40), den) for _ in range(n))
            coeff = ExactComplex(Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 3))
            terms.append((coeff, Ball(PAdicVector(coords, ctx), r)))
        inputs.append(BruhatSchwartzFunction(ctx, tuple(terms)).canonicalize())
    return inputs


@pytest.mark.parametrize("p,n", ORACLE_GRID)
def test_fourier_matches_the_fraction_descent(p, n):
    inputs = oracle_inputs(p, n)
    # the inputs reach both edge cases: a modulated term with r > 0 (R < 0)
    # and one whose center has a denominator (v(a) < 0)
    terms = [(c, b) for f in inputs for c, b in f.terms if not b.center.is_zero]
    assert any(b.radius_exp > 0 and b.center.min_valuation < -b.radius_exp for _, b in terms)
    assert any(b.center.min_valuation < 0 for _, b in terms)
    for f in inputs:
        want = serialize(fourier_reference(f))
        assert serialize(fourier(f)) == want
        assert serialize(expand(f.ctx, fourier_terms(modulated_terms(f)))) == want


@pytest.mark.parametrize("p,n", ORACLE_GRID)
def test_fourier_computes_one_character_per_distinct_phase_per_term(p, n, monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return character_from_phase(q)

    monkeypatch.setattr(spectral, "character_from_phase", counting)
    saved = False
    for f in oracle_inputs(p, n):
        calls.clear()
        fourier(f)
        allowed = 0
        for c, ball in f.terms:
            phases = [phase for phase, _, _ in reference_term_cells(c, ball) if phase is not None]
            allowed += len(set(phases))
            saved = saved or len(set(phases)) < len(phases)
        assert len(calls) <= allowed
    # in one dimension each cell has its own phase; in more, cells share them
    assert saved == (n > 1)


@pytest.mark.parametrize(
    "ctx,n_funcs",
    [(C21, 12), (C31, 8), (C52, 4)],
)
def test_double_transform_is_reflection(ctx, n_funcs):
    # integer centers at p^n = 25 keep the modulation subdivision shallow
    cfg = RandomFunctionConfig(complex_coeffs=True, den_pow_max=0 if ctx.n > 1 else 1)
    for seed in range(n_funcs):
        f = random_test_function(seed, ctx, cfg)
        d = (fourier(fourier(f)) - f.reflect()).sup_norm()
        assert d <= 1e-12


@pytest.mark.parametrize("seed", range(15))
def test_inverse_fourier_roundtrip(seed):
    f = random_test_function(seed, C31)
    back = inverse_fourier(fourier(f))
    assert (back - f).sup_norm() <= 1e-12


def test_roundtrip_exact_when_phases_are_quarters():
    # p = 2 with shallow centers keeps every character phase in {0,1/2,1/4,3/4}
    for seed in range(15):
        f = random_test_function(seed, C21)
        back = inverse_fourier(fourier(f))
        assert back.is_exact
        assert (back - f).is_zero


def test_parseval_examples_and_random():
    omega = BruhatSchwartzFunction.unit_ball(C21)
    assert parseval_defect(omega, omega) == EC_ZERO
    cfg = RandomFunctionConfig(complex_coeffs=True)
    for seed in range(60):
        f = random_test_function(seed, C21, cfg)
        g = random_test_function(seed + 7_000, C21, cfg)
        assert parseval_defect(f, g) == EC_ZERO
        # the cell route, as an oracle
        cells = f.inner_product(g) - fourier(f).inner_product(fourier(g))
        assert abs(cells) <= 1e-12


# -- the term route -------------------------------------------------------------


def modulated_sum(seed, ctx):
    """Random terms with nonzero modulation and phase.  At p = 2 the balls
    lie in Z_2, the modulations in Z_2 / 4 and the phases are quarters, so
    every character either route evaluates is exact."""
    rng = random.Random(seed)
    p, n = ctx.p, ctx.n
    terms = []
    for _ in range(rng.randint(1, 4)):
        coeff = ExactComplex(Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 3))
        if p == 2:
            phase = Fraction(rng.randint(1, 3), 4)
            eta = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(n))
            center = tuple(Fraction(rng.randint(0, 3)) for _ in range(n))
            radius = rng.randint(-2, 0)
        else:
            phase = Fraction(rng.randint(1, p**2 - 1), p**2)
            eta = tuple(Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2)) for _ in range(n))
            center = tuple(Fraction(rng.randint(-20, 20), p ** rng.randint(0, 1)) for _ in range(n))
            radius = rng.randint(-2, 1)
        if not any(eta):
            eta = (Fraction(1, p),) + eta[1:]
        ball = Ball(PAdicVector(center, ctx), radius)
        terms.append(ModulatedTerm(coeff, phase, PAdicVector(eta, ctx), ball))
    return tuple(terms)


def reflected(terms):
    return tuple(
        ModulatedTerm(c, phase, -eta, Ball(-ball.center, ball.radius_exp))
        for c, phase, eta, ball in terms
    )


TERM_GRID = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]


@pytest.mark.parametrize("p,n", TERM_GRID)
def test_closed_form_pairing_matches_the_expanded_pairing(p, n):
    ctx = PrimeContext(p, n)
    for seed in range(12):
        left, right = modulated_sum(seed, ctx), modulated_sum(seed + 500, ctx)
        closed = pairing(left, right)
        cells = expand(ctx, left).inner_product(expand(ctx, right))
        # Parseval on modulated terms: the transformed lists pair the same
        transformed = pairing(fourier_terms(left), fourier_terms(right))
        if p == 2:
            assert closed == cells
            assert transformed == closed
        else:
            assert abs(closed - cells) <= 1e-12
            assert abs(transformed - closed) <= 1e-12


@pytest.mark.parametrize("p,n", TERM_GRID)
def test_fourier_terms_twice_is_the_reflection(p, n):
    ctx = PrimeContext(p, n)
    for seed in range(12):
        terms = modulated_sum(seed, ctx)
        assert fourier_terms(fourier_terms(terms)) == reflected(terms)
        assert inverse_fourier_terms(fourier_terms(terms)) == terms
        assert serialize(expand(ctx, fourier_terms(fourier_terms(terms)))) == serialize(
            expand(ctx, reflected(terms))
        )
    for f in oracle_inputs(p, n):
        doubled = expand(f.ctx, fourier_terms(fourier_terms(modulated_terms(f))))
        assert doubled == f.reflect() and doubled.is_exact


class FlatteningCalled(Exception):
    """Raised by the guard that stands in for ``spectral._modulated_cells``."""


def test_the_term_routes_never_flatten_cells(tmp_path, monkeypatch, capsys):
    calls = []
    flatten = spectral._modulated_cells

    def counting(*args):
        calls.append(args)
        return flatten(*args)

    def guard(*args):
        raise FlatteningCalled("a term route flattened a modulated term into cells")

    shifted = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C31, Fraction(1, 3)), -1))
    f = random_test_function(3, C31, RandomFunctionConfig(complex_coeffs=True)) + shifted
    g = random_test_function(4, C31, RandomFunctionConfig(complex_coeffs=True)) - shifted
    monkeypatch.setattr(spectral, "_modulated_cells", guard)
    with pytest.raises(FlatteningCalled):  # the guard is live
        fourier(f)
    parseval_defect(f, g)
    assert cli.main(["verify", "fourier", "--p", "3", "--trials", "10"]) == 0
    assert cli.main(["verify", "routes", "--p", "3", "--trials", "10"]) == 0
    # --roundtrip flattens the transform it prints, and not the double transform
    monkeypatch.setattr(spectral, "_modulated_cells", counting)
    src = tmp_path / "f.json"
    src.write_text(serialize(f))
    assert cli.main(["fourier", "--in", str(src)]) == 0
    once = len(calls)
    assert once > 0
    assert cli.main(["fourier", "--in", str(src), "--roundtrip"]) == 0
    assert len(calls) == 2 * once
    capsys.readouterr()


@pytest.mark.parametrize("seed", range(15))
def test_transform_is_unitary(seed):
    f = random_test_function(seed, C31, RandomFunctionConfig(complex_coeffs=True))
    assert abs(f.l2_norm() - fourier(f).l2_norm()) <= 1e-12


def unit_ball_profile(ctx):
    return RadialProfile(
        ctx=ctx,
        resid=lambda k: 1 if k <= 0 else 0,
        deep_pieces=((1, 0),),
        constant_on_unit_ball=True,
    )


@pytest.mark.parametrize("ctx", [C21, C52])
def test_radial_transform_of_unit_indicator(ctx):
    prof = unit_ball_profile(ctx)
    for m in range(-4, 1):
        assert abs(radial_transform(prof, m) - 1.0) <= 1e-15
    for m in range(1, 5):
        assert abs(radial_transform(prof, m)) <= 1e-15


def test_radial_transform_divergence_errors():
    # a deep piece A * p**(k d) with d + n <= 0 does not sum over k -> -inf
    for d in (-1, -1.5, -3):
        grows = RadialProfile(
            ctx=C21,
            resid=lambda k, d=d: 2.0 ** (k * d),
            deep_pieces=((1, d),),
            constant_on_unit_ball=True,
        )
        for m in (-2, 0, 3):
            with pytest.raises(DivergentTailError):
                radial_transform(grows, m)


def test_multiply_radial_requires_unit_ball_constant():
    prof = RadialProfile(ctx=C21, resid=lambda k: k, constant_on_unit_ball=False)
    with pytest.raises(ValueError):
        multiply_radial(BruhatSchwartzFunction.unit_ball(C21), prof)


def test_multiply_radial_matches_pointwise_values():
    prof = RadialProfile(
        ctx=C21,
        resid=lambda k: Fraction(1, 2 ** (3 * max(k, 0))),
        constant_on_unit_ball=True,
    )
    big = BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), 2), 3)
    shifted = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, Fraction(1, 4)), -1), -2)
    f = big + shifted
    out = multiply_radial(f, prof)
    for x in probe_points(C21, 60, seed=5):
        m = x.norm_exp
        expected = f.evaluate(x) * prof.resid(m if m != ZERO_NORM else 0)
        assert out.evaluate(x) == expected


def multiply_radial_by_cosets(f, profile):
    """The cell rule ``multiply_radial`` had before ``radial_terms``, kept as
    its oracle.

    Cells avoiding 0 see a single profile value.  A cell containing 0 with
    positive radius is cut into the unit ball plus its shells, each shell
    into the p**n - 1 cosets away from 0, all carrying constant values.
    """
    if not profile.constant_on_unit_ball:
        raise ValueError("multiplier must be constant on the unit ball")
    f = f.canonicalize()
    ctx = f.ctx
    zero = PAdicVector.zero(ctx)
    out = []
    for c, ball in f.terms:
        a = ball.center
        if not a.is_zero:
            out.append((c * profile.resid(a.norm_exp), ball))
        elif ball.radius_exp <= 0:
            out.append((c * profile.resid(0), ball))
        else:
            out.append((c * profile.resid(0), Ball(zero, 0, known_canonical=True)))
            for k in range(1, ball.radius_exp + 1):
                val = profile.resid(k)
                shell_ball = Ball(zero, k, known_canonical=True)
                for child in digit_children(shell_ball):
                    if child.center.norm_exp > child.radius_exp:  # misses 0
                        out.append((c * val, child))
    return BruhatSchwartzFunction(ctx, tuple(out)).canonicalize()


# the benchmark grid, with inputs whose transforms stay small
ORACLE_GRID = [
    (2, 1, 2.0, RandomFunctionConfig(4, -2, 2, den_pow_max=2, complex_coeffs=True)),
    (3, 1, 3.0, RandomFunctionConfig(4, -2, 2, den_pow_max=1, complex_coeffs=True)),
    (2, 2, 4.0, RandomFunctionConfig(4, -2, 2, den_pow_max=1, complex_coeffs=True)),
    (5, 1, 2.0, RandomFunctionConfig(4, -1, 2, den_pow_max=1, complex_coeffs=True)),
    (3, 2, 2.5, RandomFunctionConfig(3, -1, 2, den_pow_max=0, complex_coeffs=True)),
]


@pytest.mark.parametrize("p,n,alpha,config", ORACLE_GRID)
def test_radial_terms_match_the_coset_split(p, n, alpha, config):
    """Byte-identical where the coset split is exact.  With float shell
    values the telescoped terms sum in another order, so there the two agree
    to rounding."""
    order = BesselOrder(alpha, PrimeContext(p, n))
    profiles = (
        symbol_multiplier(order).profile(),
        resolvent_multiplier(order, Fraction(1, 2)).profile(),
        semigroup_multiplier(0.7, order).profile(),
    )
    for seed in range(15):
        fhat = fourier(random_test_function(seed, order.ctx, config))
        for profile in profiles:
            got, want = multiply_radial(fhat, profile), multiply_radial_by_cosets(fhat, profile)
            if want.is_exact:
                assert serialize(got) == serialize(want)
            else:
                assert (got - want).sup_norm() <= 1e-15 * max(1.0, want.sup_norm())


def test_radial_terms_keep_phase_and_modulation():
    # (1 + i) e^(2 pi i / 3) chi_3(x / 9) 1_{B(0, 3^2)}: m(2) on the ball and
    # the drops m(1) - m(2), m(0) - m(1) on B(0, 3) and Z_3, each term with
    # the phase 1/3 and the modulation 1/9
    values = {0: Fraction(1), 1: Fraction(1, 5), 2: Fraction(1, 7)}
    multiplier = RadialMultiplier(C31, lambda k: values[k])
    eta = PAdicVector.of(C31, Fraction(1, 9))
    zero = PAdicVector.zero(C31)
    c = ExactComplex(1, 1)
    term = ModulatedTerm(c, Fraction(1, 3), eta, Ball(zero, 2))
    got = radial_terms([term], multiplier)
    assert got == (
        ModulatedTerm(c * Fraction(1, 7), Fraction(1, 3), eta, Ball(zero, 2)),
        ModulatedTerm(c * Fraction(2, 35), Fraction(1, 3), eta, Ball(zero, 1)),
        ModulatedTerm(c * Fraction(4, 5), Fraction(1, 3), eta, Ball(zero, 0)),
    )
    # pointwise, the expansion is the multiplier times the term's value
    f, mf = expand(C31, [term]), expand(C31, got)
    for x in probe_points(C31, 60, seed=7):
        m = x.norm_exp
        want = f.evaluate(x) * multiplier.value(max(m, 0))
        assert abs(mf.evaluate(x) - want) <= 1e-15
    # a term off 0 scales by the value on its one shell, keeping the rest
    off = ModulatedTerm(c, Fraction(1, 3), eta, Ball(PAdicVector.of(C31, Fraction(1, 3)), 0))
    assert radial_terms([off], multiplier) == (off._replace(coeff=c * Fraction(1, 5)),)


@pytest.mark.parametrize("p,n,alpha", [(p, n, alpha) for p, n, alpha, _ in ORACLE_GRID])
def test_profile_transforms_to_the_running_drop_sum(p, n, alpha):
    """The transform of m's profile at ||x|| = p**(-j) is the function part
    of m(D)'s kernel there: sum over 0 <= k <= j of (m(k) - m(k+1)) p**(kn).
    The deep shells carry m(0); without them the resolvent at (2, 1, 2)
    reads -1.0 at ||x|| = 1, where m(0) - m(1) = -2/3.

    The shell sum weights m against character integrals of size up to
    p**((j+1) n), and a nonzero limit of m, as the resolvent's and the
    semigroup's, cancels there only to rounding: the tolerance is relative
    to p**(jn) sup |m|."""
    order = BesselOrder(alpha, PrimeContext(p, n))
    multipliers = (
        symbol_multiplier(order),
        resolvent_multiplier(order, Fraction(1, 2)),
        semigroup_multiplier(0.7, order),
        heat_kernel_multiplier(0.7, order),
    )
    for multiplier in multipliers:
        profile = multiplier.profile()
        sup = max(abs(float(multiplier.value(k))) for k in range(8))
        total = 0
        for j in range(7):
            total += (multiplier.value(j) - multiplier.value(j + 1)) * p ** (j * n)
            gap = abs(radial_transform(profile, -j) - float(total))
            assert gap <= 1e-14 * p ** (j * n) * max(1.0, sup)


# -- shell tables ---------------------------------------------------------------

TABLE_ORDER = BesselOrder(2.0, C21)
TABLE_INPUT = random_test_function(11, C21, RandomFunctionConfig(4, -2, 2, den_pow_max=2, complex_coeffs=True))


def hand_resolvent(order, lam):
    return RadialMultiplier(order.ctx, lambda k: 1 / (lam + symbol_value(k, order)))


def hand_semigroup(t, order):
    def value(k):
        return math.exp(-t * float(symbol_value(k, order)))

    def drop(k):
        upper, lower = symbol_value(k, order), symbol_value(k + 1, order)
        return math.exp(-t * float(lower)) * math.expm1(-t * float(upper - lower))

    return RadialMultiplier(order.ctx, value, drop)


@pytest.mark.parametrize(
    "cached,hand,args",
    [
        (resolvent_multiplier, hand_resolvent, ((TABLE_ORDER, Fraction(1, 2)), (TABLE_ORDER, 0.5))),
        (semigroup_multiplier, hand_semigroup, ((1, TABLE_ORDER), (1.0, TABLE_ORDER))),
    ],
)
@pytest.mark.parametrize("reverse", [False, True])
def test_equal_parameters_of_other_types_keep_their_own_tables(cached, hand, args, reverse):
    # 1/2 == 0.5 and 1 == 1.0 hash alike, yet the resolvent at 1/2 is exact
    # and at 0.5 in floats: each call reads the table of its own argument
    cached.cache_clear()
    for call_args in reversed(args) if reverse else args:
        for _ in range(2):
            got = cached(*call_args).apply(TABLE_INPUT)
            want = hand(*call_args).apply(TABLE_INPUT)
            assert serialize(got) == serialize(want)
            assert got.is_exact == want.is_exact
    assert cached.cache_info().currsize == 2


def test_an_input_past_the_cached_shells_reads_them_all():
    zero = PAdicVector.zero(C21)
    deep = BruhatSchwartzFunction.unit_ball(C21) + BruhatSchwartzFunction.indicator(Ball(zero, -200))
    pairs = (
        (symbol_multiplier(TABLE_ORDER), RadialMultiplier(C21, lambda k: symbol_value(k, TABLE_ORDER))),
        (resolvent_multiplier(TABLE_ORDER, Fraction(1, 2)), hand_resolvent(TABLE_ORDER, Fraction(1, 2))),
        (semigroup_multiplier(0.7, TABLE_ORDER), hand_semigroup(0.7, TABLE_ORDER)),
    )
    # the exact deep outputs have integers past the digits str() will write,
    # so they are compared as values
    for cached, hand in pairs:
        for f in (deep, TABLE_INPUT, deep):
            got, want = cached.apply(f), hand.apply(f)
            assert got == want and got.is_exact == want.is_exact
        _, values, drops = cached.part(deep)
        assert (len(values), len(drops)) == (201, 200)
        assert [len(shells) for shells in cached._table] == [SHELLS_CACHED + 1, SHELLS_CACHED]


def test_lists_a_part_returns_are_its_callers_own():
    # the first part of a new multiplier fills its table, a later one reads it
    want = serialize(apply_bessel(TABLE_ORDER, TABLE_INPUT))
    for multiplier in (RadialMultiplier(C21, lambda k: symbol_value(k, TABLE_ORDER)), symbol_multiplier(TABLE_ORDER)):
        for _ in range(2):
            _, values, drops = multiplier.part(TABLE_INPUT)
            values[:] = [0] * len(values)
            drops[:] = [7] * len(drops)
            assert serialize(multiplier.apply(TABLE_INPUT)) == want


def test_multiplier_equality_hash_and_repr_ignore_the_table():
    def value(k):
        return Fraction(1, k + 1)

    used, fresh = RadialMultiplier(C21, value), RadialMultiplier(C21, value)
    used.apply(TABLE_INPUT)
    assert used._table is not None and fresh._table is None
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


def test_one_multiplier_per_parameters():
    order = BesselOrder(2.0, PrimeContext(2, 1))
    assert symbol_multiplier(order) is symbol_multiplier(TABLE_ORDER)
    assert resolvent_multiplier(order, Fraction(1, 2)) is resolvent_multiplier(TABLE_ORDER, Fraction(1, 2))
    assert semigroup_multiplier(0.7, order) is semigroup_multiplier(0.7, TABLE_ORDER)
    assert resolvent_multiplier(order, Fraction(1, 2)) is not resolvent_multiplier(order, 0.5)


# the (p, n, alpha) points of the benchmark grid
GRID = [(2, 1, 2.0), (3, 1, 3.0), (2, 2, 4.0), (5, 1, 2.0), (3, 2, 2.5)]


def deep_modulated_terms(rng, ctx):
    """Terms on balls down to p**-40 and up to p**3, with off-center,
    negative and non-p-denominator centers and modulations."""
    p, n = ctx.p, ctx.n
    other = 3 if p != 3 else 2
    terms = []
    for radius in (-40, -17, -2, 0, 3):
        center = tuple(Fraction(rng.randint(-60, 60), rng.choice([1, p, p**2, other])) for _ in range(n))
        eta = tuple(Fraction(rng.randint(-9, 9), rng.choice([1, p ** rng.randint(0, 45)])) for _ in range(n))
        coeff = ExactComplex(Fraction(rng.randint(-9, 9), 4), rng.randint(-3, 3))
        phase = Fraction(rng.randint(0, 7), 8)
        terms.append(ModulatedTerm(coeff, phase, PAdicVector(eta, ctx), Ball(PAdicVector(center, ctx), radius)))
    return tuple(terms)


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_pairing_equals_the_pairwise_vector_loop(p, n, alpha):
    ctx = PrimeContext(p, n)
    order = BesselOrder(alpha, ctx)
    rng = random.Random(f"pairing:{p}:{n}")
    cfg = RandomFunctionConfig(max_terms=4, radius_min=-3, radius_max=2, den_pow_max=1, complex_coeffs=True)
    for seed in range(8):
        f = random_test_function(seed, ctx, cfg)
        g = random_test_function(seed + 100, ctx, cfg)
        lists = [
            modulated_terms(f),
            fourier_terms(modulated_terms(f)),
            fourier_terms(modulated_terms(g)),
            radial_terms(fourier_terms(modulated_terms(g)), symbol_multiplier(order)),
            modulated_sum(seed, ctx),
            deep_modulated_terms(rng, ctx),
            deep_modulated_terms(rng, ctx),
            (),
        ]
        for left in lists:
            for right in lists:
                got, want = pairing(left, right), pairing_by_pairs(left, right)
                assert got == want and repr(got) == repr(want)
