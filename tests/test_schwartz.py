"""Test-function algebra: canonical form, integrals, suprema, serialization."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_bessel.padic import (
    Ball,
    ContextMismatchError,
    ExactComplex,
    PAdicVector,
    PrimeContext,
)
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    FunctionFormatError,
    RandomFunctionConfig,
    deserialize,
    linear_combination,
    random_test_function,
    serialize,
)

C21 = PrimeContext(2, 1)
C31 = PrimeContext(3, 1)
C32 = PrimeContext(3, 2)

OMEGA_JSON = '{"p":2,"n":1,"terms":[{"re":"1","im":"0","center":["0"],"radius_exp":0}]}'


def omega(ctx=C21):
    return BruhatSchwartzFunction.unit_ball(ctx)


def probe_points(ctx, count, seed=0, den_pow=3):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        coords = [
            Fraction(rng.randint(-80, 80), ctx.p ** rng.randint(0, den_pow))
            for _ in range(ctx.n)
        ]
        pts.append(PAdicVector.of(ctx, *coords))
    return pts


def test_evaluate_unit_ball():
    f = omega()
    assert f.evaluate(PAdicVector.of(C21, Fraction(1, 3))).re == 1  # norm 1
    assert f.evaluate(PAdicVector.of(C21, Fraction(1, 2))).re == 0  # norm 2
    assert f.evaluate(PAdicVector.zero(C21)).re == 1


def test_evaluate_overlap_resolution():
    inner = BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), -1), 2)
    f = omega() - inner
    assert f.evaluate(PAdicVector.zero(C21)).re == -1
    assert f.evaluate(PAdicVector.of(C21, 1)).re == 1


def test_evaluate_context_mismatch():
    with pytest.raises(ContextMismatchError):
        omega().evaluate(PAdicVector.zero(C31))


def test_canonicalize_merges_duplicates():
    f = omega() + omega()
    assert len(f.terms) == 1
    coeff, ball = f.terms[0]
    assert coeff.re == 2 and ball.radius_exp == 0


def test_canonicalize_coset_split():
    # unit ball minus a sub-ball leaves the complementary cosets
    f = omega() - BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), -1))
    assert len(f.terms) == 1
    coeff, ball = f.terms[0]
    assert coeff.re == 1
    assert ball.radius_exp == -1
    assert ball.center.coords == (Fraction(1),)


def test_canonicalize_collapses_constant_siblings():
    # all p^n children with one coefficient merge back to the parent
    zero = PAdicVector.zero(C21)
    f = BruhatSchwartzFunction(
        C21,
        tuple(
            (ExactComplex(Fraction(3), 0), child)
            for child in Ball(zero, 0).children()
        ),
    ).canonicalize()
    assert f.terms == omega().scale(3).terms


def test_canonicalize_merges_back_through_a_deep_tree():
    # a ball 2^-1500 deep, added and taken away again, makes a tree deeper
    # than the interpreter's recursion limit that merges back into one cell
    tiny = Ball(PAdicVector.zero(C21), -1500)
    pieces = ((ExactComplex(Fraction(1), 0), tiny), (ExactComplex(Fraction(-1), 0), tiny))
    f = BruhatSchwartzFunction(C21, omega().terms + pieces)
    assert f.canonicalize().terms == omega().terms


@pytest.mark.parametrize("seed", range(25))
def test_canonicalize_idempotent_and_disjoint(seed):
    f = random_test_function(seed, C21)
    assert f.canonicalize() == f
    for i, (_, b1) in enumerate(f.terms):
        for _, b2 in f.terms[i + 1 :]:
            assert b1.relation(b2) == "disjoint"


@pytest.mark.parametrize("seed", range(12))
def test_canonicalize_preserves_values(seed):
    cfg = RandomFunctionConfig(max_terms=5, radius_min=-2, radius_max=2, den_pow_max=2)
    raw = random_test_function(seed, C31, cfg)
    doubled = BruhatSchwartzFunction(C31, raw.terms + raw.terms)
    canon = doubled.canonicalize()
    for x in probe_points(C31, 40, seed):
        assert canon.evaluate(x) == (raw.evaluate(x) * 2)


def test_integral_examples():
    assert omega().integral().re == 1
    half = BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), -1))
    assert half.integral().re == Fraction(1, 2)
    assert BruhatSchwartzFunction.zero(C21).integral().re == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.fractions(min_value=-5, max_value=5, max_denominator=12))
def test_integral_linear(seed1, seed2, a):
    f = random_test_function(seed1, C21)
    g = random_test_function(seed2, C21)
    lhs = (f.scale(a) + g).integral()
    rhs = f.integral() * a + g.integral()
    assert lhs.re == rhs.re and lhs.im == rhs.im


def test_inner_product_examples():
    f = omega()
    assert f.inner_product(f).re == 1
    shell = f - BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), -1))
    assert f.inner_product(shell).re == Fraction(1, 2)


@pytest.mark.parametrize("seed", range(30))
def test_inner_product_hermitian(seed):
    cfg = RandomFunctionConfig(complex_coeffs=True)
    f = random_test_function(seed, C21, cfg)
    g = random_test_function(seed + 5_000, C21, cfg)
    lhs = f.inner_product(g)
    rhs = g.inner_product(f).conjugate()
    assert lhs.re == rhs.re and lhs.im == rhs.im


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
@pytest.mark.parametrize("seed", range(6))
def test_l2_norm_is_the_self_pairing(p, n, seed):
    # the cell sum adds the pairing's terms in its order: equal as floats,
    # for exact and for float coefficients
    f = random_test_function(seed, PrimeContext(p, n), RandomFunctionConfig(complex_coeffs=True))
    for g in (f, f.scale(ExactComplex(0.3, -1.7)), f + f.scale(1e-9)):
        assert g.l2_norm() == math.sqrt(max(0.0, float(g.inner_product(g).re)))


def test_cauchy_schwarz_exact():
    for seed in range(200):
        f = random_test_function(seed, C31)
        g = random_test_function(seed + 9_000, C31)
        fg = f.inner_product(g)
        assert fg.abs2() <= f.inner_product(f).re * g.inner_product(g).re


def test_sup_and_argmax_examples():
    s = omega().sup_and_argmax()
    assert s.value == 1 and s.cell.radius_exp == 0
    s = (-omega()).sup_and_argmax()
    assert s.value == 0 and s.cell is None
    zero = PAdicVector.zero(C21)
    f = BruhatSchwartzFunction.indicator(Ball(zero, 0), 2) + BruhatSchwartzFunction.indicator(
        Ball(zero, -1), -3
    )
    s = f.sup_and_argmax()
    assert s.value == 2
    assert s.cell.center.coords == (Fraction(1),)


def test_sup_and_argmax_rejects_complex():
    f = BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), 0), ExactComplex(1, 1))
    with pytest.raises(ValueError):
        f.sup_and_argmax()


@pytest.mark.parametrize("seed", range(25))
def test_sup_witness_dominates_probes(seed):
    f = random_test_function(seed, C21)
    s = f.sup_and_argmax()
    if s.cell is not None:
        assert f.evaluate(s.cell.center).re == s.value
    for x in probe_points(C21, 40, seed):
        assert f.evaluate(x).re <= s.value


def test_linear_combination_matches_pairwise_sum():
    f = random_test_function(3, C21)
    g = random_test_function(4, C21)
    combo = linear_combination([(Fraction(2), f), (Fraction(-1, 2), g)])
    direct = f.scale(2) + g.scale(Fraction(-1, 2))
    assert combo == direct


def test_random_function_deterministic_and_pinned():
    a = random_test_function(12345, C21)
    b = random_test_function(12345, C21)
    assert serialize(a) == serialize(b)
    assert serialize(a) == (
        '{"p":2,"n":1,"terms":[{"re":"-25/8","im":"0","center":["0"],"radius_exp":-1},'
        '{"re":"7/4","im":"0","center":["1"],"radius_exp":-1},'
        '{"re":"7/4","im":"0","center":["1/2"],"radius_exp":0}]}'
    )


def test_random_function_respects_bounds():
    cfg = RandomFunctionConfig(max_terms=8, radius_min=-3, radius_max=3, den_pow_max=4, num_bound=16)
    for seed in range(30):
        f = random_test_function(seed, C21, cfg)
        assert f.integral().is_exact
        for _, ball in f.terms:
            assert -3 <= ball.radius_exp <= 3


def test_random_function_config_validation():
    with pytest.raises(ValueError):
        random_test_function(0, C21, RandomFunctionConfig(max_terms=9))
    with pytest.raises(ValueError):
        random_test_function(0, C21, RandomFunctionConfig(radius_max=4))
    with pytest.raises(ValueError):
        random_test_function(0, C21, RandomFunctionConfig(num_bound=1000))


def test_serialize_unit_ball_bytes():
    assert serialize(omega()) == OMEGA_JSON
    assert deserialize(OMEGA_JSON) == omega()


def test_serialize_roundtrip_pointwise():
    for seed in range(200):
        ctx = C32 if seed % 5 == 0 else C21
        cfg = RandomFunctionConfig(complex_coeffs=bool(seed % 2))
        f = random_test_function(seed, ctx, cfg)
        back = deserialize(serialize(f))
        assert back.ctx == f.ctx
        for x in probe_points(ctx, 50, seed, den_pow=2):
            assert back.evaluate(x) == f.evaluate(x)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"p":4,"n":1,"terms":[]}',
        '{"p":2,"n":0,"terms":[]}',
        '{"p":2,"n":1,"terms":[{"re":"1/0","im":"0","center":["0"],"radius_exp":0}]}',
        '{"p":2,"n":1,"terms":[{"re":"x","im":"0","center":["0"],"radius_exp":0}]}',
        '{"p":2,"n":1,"terms":[{"re":"1","im":"0","center":["0","0"],"radius_exp":0}]}',
        '{"p":2,"n":1,"terms":[{"re":"1","im":"0","center":["0"],"radius_exp":"0"}]}',
        '{"p":2,"n":1,"terms":{}}',
    ],
)
def test_deserialize_rejects_malformed(text):
    with pytest.raises(FunctionFormatError):
        deserialize(text)


def test_serialize_independent_of_build_order():
    f = random_test_function(1, C21)
    g = random_test_function(2, C21)
    assert serialize(f + g) == serialize(g + f)


def test_float_coefficients_serialize_exactly():
    f = omega().scale(0.1)
    back = deserialize(serialize(f))
    assert back.evaluate(PAdicVector.zero(C21)).re == 0.1


def test_support_and_constancy_metadata():
    zero = PAdicVector.zero(C21)
    f = BruhatSchwartzFunction.indicator(Ball(zero, 1)) + BruhatSchwartzFunction.indicator(
        Ball(PAdicVector.of(C21, Fraction(1, 4)), -2), 5
    )
    assert f.support_norm_exp() == 2
    assert f.min_radius_exp() == -2
    assert BruhatSchwartzFunction.zero(C21).min_radius_exp() is None
