"""Fourier layer: transform rules, reflection, Parseval, radial transforms."""

import random
from fractions import Fraction

import pytest

from padic_bessel.padic import Ball, PAdicVector, PrimeContext, ZERO_NORM
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    RandomFunctionConfig,
    random_test_function,
)
from padic_bessel.spectral import (
    DivergentTailError,
    RadialProfile,
    fourier,
    inverse_fourier,
    multiply_radial,
    parseval_defect,
    radial_transform,
)

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
    assert abs(parseval_defect(omega, omega)) == 0
    cfg = RandomFunctionConfig(complex_coeffs=True)
    worst = 0.0
    for seed in range(60):
        f = random_test_function(seed, C21, cfg)
        g = random_test_function(seed + 7_000, C21, cfg)
        worst = max(worst, abs(parseval_defect(f, g)))
    assert worst <= 1e-12


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
        expected = f.evaluate(x) * prof.value_at(m if m != ZERO_NORM else 0)
        assert out.evaluate(x) == expected
