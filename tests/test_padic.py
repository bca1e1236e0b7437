"""Exact arithmetic layer: valuations, norms, characters, shells, balls."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_bessel.padic import (
    ORD_INF,
    ZERO_NORM,
    Ball,
    P_POWER_CACHED,
    ContextMismatchError,
    ExactComplex,
    PAdicVector,
    PrimeContext,
    character_from_phase,
    fractional_part,
    PRIME_BOUND,
    is_prime,
    norm_exp_of,
    reduce_mod_ball,
    shell_character_integral,
    shell_measure,
    valuation,
)
from padic_bessel import padic
from conftest import ExactComplex as Oracle
from conftest import digit_children, relation

C21 = PrimeContext(2, 1)
C31 = PrimeContext(3, 1)
C32 = PrimeContext(3, 2)

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=48)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def test_prime_context_validation():
    with pytest.raises(ValueError):
        PrimeContext(4, 1)
    with pytest.raises(ValueError):
        PrimeContext(1, 1)
    with pytest.raises(ValueError):
        PrimeContext(3, 0)
    assert PrimeContext(2, 3).p_power(-2) == Fraction(1, 4)


def test_is_prime_small_values():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_agrees_with_trial_division_below_10_to_the_4():
    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    assert all(is_prime(p) == trial_division(p) for p in range(-3, 10**4))


@pytest.mark.parametrize("p", [3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes_to_small_bases(p):
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 23
    assert not is_prime(p)
    with pytest.raises(ValueError):
        PrimeContext(p, 1)


def test_is_prime_decides_large_primes_below_its_bound():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * (2**19 - 1))
    assert PrimeContext(2**61 - 1, 1).p == 2**61 - 1
    assert 2**61 - 1 < PRIME_BOUND < 2**89 - 1
    for p in (PRIME_BOUND, 2**89 - 1):  # the bound itself is composite
        with pytest.raises(ValueError, match="primality"):
            is_prime(p)
        with pytest.raises(ValueError):
            PrimeContext(p, 1)


@pytest.mark.parametrize(
    "x,p,expected",
    [
        (Fraction(9, 2), 3, 2),
        (Fraction(3, 2), 2, -1),
        (Fraction(0), 7, ORD_INF),
        (12, 2, 2),
        (Fraction(1, 27), 3, -3),
    ],
)
def test_valuation(x, p, expected):
    assert valuation(x, p) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_valuation_of_deep_powers(p):
    # the exponent is found by squaring p, not one division per unit; the
    # powers of two and their neighbours walk both halves of that search
    for v in list(range(40)) + [255, 256, 257, 1000, 4999, 10_000]:
        for unit in (1, p - 1, 1234 * p + 1):
            assert valuation(Fraction(unit * p**v, 7 * p + 1), p) == v
            assert valuation(Fraction(p + 1, unit * p**v), p) == -v


@settings(max_examples=200, deadline=None)
@given(nonzero_rationals, nonzero_rationals)
def test_valuation_multiplicative(x, y):
    p = 3
    assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


@pytest.mark.parametrize(
    "x,p,expected",
    [
        (Fraction(3, 2), 2, Fraction(1, 2)),
        (7, 5, Fraction(0)),
        (Fraction(2, 9), 3, Fraction(2, 9)),
        (Fraction(0), 3, Fraction(0)),
        (Fraction(5, 6), 3, Fraction(1, 3)),
    ],
)
def test_fractional_part(x, p, expected):
    assert fractional_part(x, p) == expected


@settings(max_examples=200, deadline=None)
@given(rationals, st.sampled_from([2, 3, 5]))
def test_fractional_part_properties(x, p):
    q = fractional_part(x, p)
    assert 0 <= q < 1
    # the remainder x - {x}_p is a p-adic integer
    assert valuation(x - q, p) >= 0


@settings(max_examples=500, deadline=None)
@given(rationals, rationals, st.sampled_from([2, 3, 5]))
def test_character_additive_on_phases(a, b, p):
    # chi(a)chi(b) = chi(a+b): the phases agree modulo 1, exactly
    total = fractional_part(a, p) + fractional_part(b, p) - fractional_part(a + b, p)
    assert total.denominator == 1


@pytest.mark.parametrize(
    "y,p,re,im",
    [
        (Fraction(1, 2), 2, -1, 0),
        (Fraction(7), 5, 1, 0),
        (Fraction(1, 4), 2, 0, 1),
        (Fraction(3, 4), 2, 0, -1),
    ],
)
def test_character_exact_values(y, p, re, im):
    c = character_from_phase(fractional_part(y, p))
    assert (c.re, c.im) == (re, im)
    assert c.is_exact


def test_character_irrational_phase_is_float():
    import math

    c = character_from_phase(fractional_part(Fraction(1, 5), 5))
    assert not c.is_exact
    assert abs(c.re - math.cos(2 * math.pi / 5)) < 1e-15
    assert abs(c.im - math.sin(2 * math.pi / 5)) < 1e-15


def test_scalar_norms():
    assert valuation(Fraction(9, 2), 3) == 2
    assert valuation(-12, 2) == 2 and valuation(7, 2) == 0
    assert norm_exp_of(Fraction(9, 2), 3) == -2
    assert valuation(Fraction(0), 2) == ORD_INF
    assert norm_exp_of(Fraction(0), 2) == ZERO_NORM


def test_vector_norm_examples():
    v = PAdicVector.of(PrimeContext(2, 2), Fraction(1, 2), 4)
    assert v.norm_exp == 1
    assert PAdicVector.zero(C21).norm_exp == ZERO_NORM
    assert norm_exp_of(Fraction(9, 2), 3) == -2


def test_vector_of_refuses_a_coordinate_count_other_than_n():
    with pytest.raises(ValueError, match=r"^expected 1 coordinates, got 2$"):
        PAdicVector.of(PrimeContext(2, 1), 1, 2)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(rationals, min_size=2, max_size=2),
    st.lists(rationals, min_size=2, max_size=2),
)
def test_ultrametric_inequality(a, b):
    x = PAdicVector.of(C32, *a)
    y = PAdicVector.of(C32, *b)
    assert (x + y).norm_exp <= max(x.norm_exp, y.norm_exp)


def test_vector_context_mismatch():
    with pytest.raises(ContextMismatchError):
        PAdicVector.zero(C21) + PAdicVector.zero(C31)


@pytest.mark.parametrize(
    "k,ctx,expected",
    [
        (0, C21, Fraction(1, 2)),
        (1, C32, Fraction(8)),
        (-2, C21, Fraction(1, 8)),
    ],
)
def test_shell_measure(k, ctx, expected):
    assert shell_measure(k, ctx) == expected


def test_shell_measures_sum_to_ball():
    for ctx in (C21, C32):
        total = sum((shell_measure(k, ctx) for k in range(-40, 1)), Fraction(0))
        assert total == 1 - ctx.p_power(-41 * ctx.n)


def test_shell_character_integral_values():
    one_minus = 1 - C32.p_power(-2)
    assert shell_character_integral(0, 0, C32) == one_minus
    assert shell_character_integral(0, 1, C32) == -C32.p_power(-2)
    assert shell_character_integral(0, 3, C32) == 0
    assert shell_character_integral(2, ZERO_NORM, C21) == shell_measure(2, C21)


@pytest.mark.parametrize("ctx", [C21, C32])
def test_shell_character_integral_telescopes_to_ball(ctx):
    # summing the shells of the unit ball (k <= 0) reproduces the ball
    # integral of the character: 1 inside the dual ball, 0 outside
    for m in range(-5, 6):
        deep = ctx.p_power(-10 * ctx.n)
        total = deep + sum(
            (shell_character_integral(k, m, ctx) for k in range(-9, 1)),
            Fraction(0),
        )
        assert total == (1 if m <= 0 else 0)


def test_ball_membership_and_relations():
    ctx = C21
    zero = PAdicVector.zero(ctx)
    unit = Ball(zero, 0)
    small = Ball(PAdicVector.of(ctx, 1), -1)
    far = Ball(PAdicVector.of(ctx, Fraction(1, 4)), -2)
    assert unit.contains(PAdicVector.of(ctx, Fraction(5, 3)))
    assert not unit.contains(PAdicVector.of(ctx, Fraction(1, 2)))
    assert relation(unit, small) == "contains"
    assert relation(small, unit) == "inside"
    assert relation(unit, far) == "disjoint"
    assert relation(small, Ball(PAdicVector.of(ctx, 3), -1)) == "equal"


def test_ball_canonical_center():
    ctx = C21
    b = Ball(PAdicVector.of(ctx, Fraction(1, 3)), -2)
    assert b.canonical().center.coords == (Fraction(3),)
    assert reduce_mod_ball(Fraction(1, 3), -2, 2) == 3
    # same ball regardless of representative
    assert b.key() == Ball(PAdicVector.of(ctx, 3), -2).key()


@pytest.mark.parametrize("ctx", [C21, C32])
def test_ball_children_partition(ctx):
    import random

    ball = Ball(PAdicVector.of(ctx, *([Fraction(1, ctx.p)] * ctx.n)), 1)
    kids = list(digit_children(ball))
    assert len(kids) == ctx.p**ctx.n
    assert sum((k.measure for k in kids), Fraction(0)) == ball.measure
    rng = random.Random(0)
    for _ in range(40):
        x = PAdicVector.of(
            ctx,
            *[
                Fraction(rng.randint(-30, 30), ctx.p ** rng.randint(0, 2))
                for _ in range(ctx.n)
            ],
        )
        inside = [k for k in kids if k.contains(x)]
        assert len(inside) == (1 if ball.contains(x) else 0)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
    rationals,
    rationals,
)
def test_ball_dichotomy(r1, r2, c1, c2):
    b1 = Ball(PAdicVector.of(C31, c1), r1)
    b2 = Ball(PAdicVector.of(C31, c2), r2)
    rel = relation(b1, b2)
    probes = [Fraction(k, 3) for k in range(-12, 13)]
    both = [q for q in probes if b1.contains(PAdicVector.of(C31, q)) and b2.contains(PAdicVector.of(C31, q))]
    if rel == "disjoint":
        assert not both
    else:
        smaller = b1 if b1.radius_exp <= b2.radius_exp else b2
        # every probe of the smaller ball lies in the larger
        for q in probes:
            x = PAdicVector.of(C31, q)
            if smaller.contains(x):
                assert b1.contains(x) and b2.contains(x)


def test_p_power_is_exact_and_its_cache_stays_bounded():
    for ctx in (C21, C32, PrimeContext(2**61 - 1, 1)):
        for k in list(range(-P_POWER_CACHED - 2, P_POWER_CACHED + 3)) + [-5000, 5000]:
            assert ctx.p_power(k) == Fraction(ctx.p) ** k
    before = padic._p_power.cache_info().currsize
    assert C21.p_power(P_POWER_CACHED + 1) == 2 ** (P_POWER_CACHED + 1)
    assert C21.p_power(-10_000) == Fraction(1, 2**10_000)
    info = padic._p_power.cache_info()
    assert info.currsize == before <= info.maxsize


# -- ExactComplex against the two-part oracle ----------------------------------

parts = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6),
    st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
)


def same_part(got, want) -> bool:
    """Floats equal bit for bit, exact parts equal by value."""
    if isinstance(want, float):
        return isinstance(got, float) and got.hex() == want.hex()
    return not isinstance(got, float) and got == want


def assert_same(got: ExactComplex, want: Oracle) -> None:
    assert type(got) is ExactComplex
    assert same_part(got.re, want.re) and same_part(got.im, want.im), (got, want)
    assert got.is_exact == want.is_exact
    assert hash(got) == hash(want)
    if got.is_exact:
        a, b, d = got.gaussian
        assert d > 0 and math.gcd(a, b, d) == 1
        assert Fraction(a, d) == want.re and Fraction(b, d) == want.im
    else:
        assert got.gaussian is None


@settings(max_examples=400, deadline=None)
@given(parts, parts, parts, parts, parts)
def test_exact_complex_matches_the_two_part_oracle(re1, im1, re2, im2, s):
    x, y = ExactComplex(re1, im1), ExactComplex(re2, im2)
    ox, oy = Oracle(re1, im1), Oracle(re2, im2)
    assert_same(x, ox)
    assert_same(x + y, ox + oy)
    assert_same(x - y, ox - oy)
    assert_same(-x, -ox)
    assert_same(x * y, ox * oy)
    assert_same(x * s, ox * s)
    assert_same(s * x, s * ox)
    assert_same(x.conjugate(), ox.conjugate())
    assert same_part(x.abs2(), ox.abs2())
    assert abs(x).hex() == abs(ox).hex()
    assert x.is_zero() == ox.is_zero()
    got, want = x.as_complex(), ox.as_complex()
    assert got.real.hex() == want.real.hex() and got.imag.hex() == want.imag.hex()
    assert (x == y) == (ox == oy) and (x != y) == (ox != oy)
    assert x == x and not x != x
    assert (x == ExactComplex(re2, im1)) == (ox == Oracle(re2, im1))


@settings(max_examples=200, deadline=None)
@given(parts, parts)
def test_exact_complex_is_immutable(re, im):
    x = ExactComplex(re, im)
    for name in ("re", "im", "is_exact", "gaussian", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert not hasattr(x, "__dict__")
    assert_same(x, Oracle(re, im))


def test_exact_complex_keeps_the_parts_it_is_given():
    x = ExactComplex(0.5, 0)
    assert x.im == 0 and type(x.im) is int and not x.is_exact
    assert (x + ExactComplex(0, Fraction(1, 3))).im == Fraction(1, 3)
    assert ExactComplex(Fraction(1, 2), 0) == x and hash(ExactComplex(Fraction(1, 2), 0)) == hash(x)
    assert ExactComplex.from_gaussian(6, -4, -8).gaussian == (-3, 2, 4)
    assert ExactComplex.from_gaussian(0, 0, 7) == ExactComplex()
    assert repr(ExactComplex(Fraction(1, 3), Fraction(4, 2))) == "ExactComplex(re=Fraction(1, 3), im=2)"
    with pytest.raises(ZeroDivisionError):
        ExactComplex.from_gaussian(1, 0, 0)
    with pytest.raises(TypeError):
        ExactComplex("1", 0)


def test_exact_sums_over_one_denominator_match_fractions():
    # denominators that divide one another, as p-powers do, are added over
    # the larger one; the reduced triple is that of the Fraction parts
    rng = random.Random("exact-sums")
    dens = [1, 7, 16, 3**50, 2**400, 2**800, 2**400 * 3**50]
    for _ in range(400):
        x, y = (
            ExactComplex(*(Fraction(rng.randint(-(10**6), 10**6) * rng.choice((1, 2**399)), d) for _ in "ab"))
            for d in (rng.choice(dens), rng.choice(dens))
        )
        for got, re, im in ((x + y, x.re + y.re, x.im + y.im), (x - y, x.re - y.re, x.im - y.im)):
            d = math.lcm(Fraction(re).denominator, Fraction(im).denominator)
            assert got.gaussian == (re * d, im * d, d)
    x, y = ExactComplex(Fraction(1, 2**400), 0), ExactComplex(Fraction(3, 2**800), Fraction(-1, 2**800))
    assert (x + y).gaussian == (2**400 + 3, -1, 2**800)
    assert (y - x).gaussian == (3 - 2**400, -1, 2**800)


def test_modulus_past_the_float_range_of_its_square():
    for c in (ExactComplex(10**200, 0), ExactComplex(1e200, 0), ExactComplex(0, Fraction(-(10**400), 10**200))):
        assert abs(c) == 1e200
    assert abs(ExactComplex(3e200, 4 * 10**200)) == math.hypot(3e200, 4e200)
    assert abs(ExactComplex(Fraction(3, 7), 1e-300)) == abs(Oracle(Fraction(3, 7), 1e-300))
    with pytest.raises(OverflowError):
        abs(Oracle(10**200, 0))
    assert abs(Oracle(1e200, 0)) == math.inf
