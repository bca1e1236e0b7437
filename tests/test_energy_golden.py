"""Pinned Haar energies: the bytes of ``quadratic_form``,
``contraction_ratio`` and ``haar_energy`` on float as well as exact
coefficients, so that a change to the order in which the trie walk sums
its cells and node means cannot move an energy by an ulp unseen.

Each hash is the sha256 of one line per input at a (p, n, alpha) point:
the reprs of the quadratic form, the contraction ratio and the Haar energy
under the symbol, the resolvent at lam = 0.5 and the semigroup at t = 0.3.
The inputs are seeded draws with complex coefficients, shallow ones and
deeper ones (radii -3..3, up to 8 terms), then the same draws scaled by
0.1, and their images under the operator and under T(0.7).  The points
are the five benchmark grid points, a non-integer alpha at p = 2 and
alpha = 1.5 at p = 7.  The hashes were recorded while ``haar_energy`` and ``_node_drops``
each walked the trie on their own.
"""
import hashlib

import pytest

from padic_bessel.bessel import (
    BesselOrder,
    apply_bessel,
    contraction_ratio,
    quadratic_form,
    resolvent_multiplier,
    symbol_multiplier,
)
from padic_bessel.heat import semigroup_multiplier, solve_cauchy
from padic_bessel.padic import PrimeContext
from padic_bessel.schwartz import RandomFunctionConfig, haar_energy, random_test_function

GOLDEN = {
    (2, 1, 2.0): "a8df374c6033d157596e182600b511f75447cb2705fff66243620606c2abf438",
    (3, 1, 3.0): "e8fa3880504f2615eab1adfa40041c16f2015a1f235f1bb97dedcf88516b00dc",
    (2, 2, 4.0): "2fe3baa90734572c08858cc39f8743fbbf3e3f46008869a3e3f5cfe0769c39ca",
    (5, 1, 2.0): "f01eca82b8ee7190904540c0921e617b0aed13ed27643639b53b3af6260c4cf0",
    (3, 2, 2.5): "0ee944d1ee75a29ef28798caa916c09b4c831ae652c3cad69fd2b5d99ad73511",
    (2, 1, 2.5): "dadcbbb799d3b4439f14e40427be6dcc24d3b37c2d5b992932b24881b67fa324",
    (7, 1, 1.5): "f6d00cd74b5ae2d2d1ec8c0b5f0e7e9dcff8285844b346607814e1d2fbf91edc",
}

DRAWS = RandomFunctionConfig(max_terms=4, den_pow_max=2, complex_coeffs=True)
DEEP = RandomFunctionConfig(max_terms=8, radius_min=-3, radius_max=3, den_pow_max=2, complex_coeffs=True)


def energy_inputs(order):
    ctx = order.ctx
    draws = [random_test_function(seed, ctx, DRAWS) for seed in range(24)]
    draws += [random_test_function(100 + seed, ctx, DEEP) for seed in range(16)]
    return (
        draws
        + [f.scale(0.1) for f in draws]
        + [apply_bessel(order, f) for f in draws]
        + [solve_cauchy(f, 0.7, order) for f in draws]
    )


def energy_lines(order):
    multipliers = [symbol_multiplier(order), resolvent_multiplier(order, 0.5), semigroup_multiplier(0.3, order)]
    lines = []
    for f in energy_inputs(order):
        ratio = "zero" if f.is_zero else repr(contraction_ratio(order, f))
        energies = [repr(haar_energy(*m.part(f))) for m in multipliers]
        lines.append(" ".join([repr(quadratic_form(order, f)), ratio] + energies))
    return lines


@pytest.mark.parametrize("key", list(GOLDEN), ids=[f"p{p}n{n}a{a}" for p, n, a in GOLDEN])
def test_energies_match_their_pinned_hash(key):
    p, n, alpha = key
    order = BesselOrder(alpha, PrimeContext(p, n))
    text = "\n".join(energy_lines(order)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[key]


def test_the_pinned_inputs_carry_float_coefficients():
    order = BesselOrder(2.0, PrimeContext(2, 1))
    fs = energy_inputs(order)
    assert any(f.is_exact for f in fs) and sum(not f.is_exact for f in fs) >= 80
