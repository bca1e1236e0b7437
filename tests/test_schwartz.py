"""Test-function algebra: canonical form, integrals, suprema, serialization."""

import json
import math
import random
import sys
import time
from fractions import Fraction
from itertools import product as digit_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_bessel.bessel import (
    BesselOrder,
    apply_bessel,
    c0_dissipativity_margin,
    resolvent,
    resolvent_multiplier,
    resolvent_residual,
    symbol_multiplier,
)
from padic_bessel.heat import EvolutionProblem, duhamel, forcing_multiplier, semigroup_multiplier, solve_cauchy
from padic_bessel.spectral import ModulatedTerm, RadialMultiplier, expand, fourier, inverse_fourier
from padic_bessel.padic import (
    EC_ZERO,
    ZERO_NORM,
    Ball,
    ContextMismatchError,
    ExactComplex,
    PAdicVector,
    PrimeContext,
    reduce_mod_ball,
)
from padic_bessel import schwartz
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    FunctionFormatError,
    RandomFunctionConfig,
    deserialize,
    linear_combination,
    random_test_function,
    read_object,
    serialize,
)
from conftest import (
    ball_integral_by_scan,
    digit_children,
    evaluate_by_scan,
    relation,
    support_norm_exp,
    tree_canonical_form,
    tree_combination,
)
from test_routes import concentric_terms

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
            for child in digit_children(Ball(zero, 0))
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
            assert relation(b1, b2) == "disjoint"


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


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_grafted_sums_match_the_digit_walk(p, n):
    # the summands' tries are walked in lockstep, the oracle inserts every
    # term into one tree; float and complex weights, and functions whose
    # roots differ
    ctx = PrimeContext(p, n)
    rng = random.Random(f"graft:{p}:{n}")
    orders = (BesselOrder(n + 1, ctx), BesselOrder(n + 1.5, ctx))  # exact and float outputs
    cfg = RandomFunctionConfig(max_terms=4, radius_min=-3, radius_max=2, den_pow_max=1, complex_coeffs=True)
    for seed in range(6):
        f = random_test_function(seed, ctx, cfg)
        h = random_test_function(seed + 50, ctx, cfg)
        raw = BruhatSchwartzFunction(ctx, random_terms(rng, ctx, 3, (1, p, p**2), True))
        for weight, order in zip((Fraction(7, 10), 0.7), orders):
            g = apply_bessel(order, h)
            # the raw summand enters as its canonical form, its cells summed
            # before the other parts join them: the same value when all is
            # exact, as at the integer order, but float sums round in that order
            cells = raw.terms if isinstance(weight, Fraction) else raw.canonicalize().terms
            pairs = [(weight, f), (1, raw), (ExactComplex(Fraction(1, 3), -2), g), (-1, f)]
            walked = BruhatSchwartzFunction(
                ctx, tuple((c * w, b) for w, k in pairs for c, b in (cells if k is raw else k.terms))
            )
            assert serialize(linear_combination(pairs)) == serialize(walked.canonicalize())


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_a_constant_multiplier_is_the_scaling(p, n):
    # the multiplier's per-level graft and the scalar weight's are one path
    ctx = PrimeContext(p, n)
    cfg = RandomFunctionConfig(max_terms=4, radius_min=-3, radius_max=2, den_pow_max=1, complex_coeffs=True)
    for seed in range(6):
        f = random_test_function(seed, ctx, cfg)
        for w in (Fraction(-3, 7), 0.7, ExactComplex(Fraction(1, 3), -2)):
            assert serialize(RadialMultiplier(ctx, lambda k: w).apply(f)) == serialize(f.scale(w))


def test_a_sum_of_deep_canonical_functions_is_fast():
    # 4801 cells down to 3^-300 beside a ball of radius 3^300: the digit walk
    # inserted every cell 600 levels deep
    ctx = PrimeContext(3, 2)
    f = BruhatSchwartzFunction(ctx, (
        (ExactComplex(1, 0), Ball(PAdicVector.zero(ctx), 300)),
        (ExactComplex(2, 0), Ball(PAdicVector.of(ctx, 1, 1), -300)),
    )).canonicalize()
    assert len(f.terms) == 4801
    start = time.perf_counter()
    total = f + f.scale(2)
    assert time.perf_counter() - start < 1.0
    assert [c for c, _ in total.terms] == [c * 3 for c, _ in f.terms]
    # the sum's cells are f's own balls, not rebuilt from digits
    assert all(mine is theirs for (_, mine), (_, theirs) in zip(total.terms, f.terms))


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
    cfg = RandomFunctionConfig(max_terms=8, radius_min=-3, radius_max=3, den_pow_max=4)
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


def test_deserialize_refuses_json_nested_past_the_decoder_depth():
    # the decoder raises RecursionError, not JSONDecodeError, on such text
    with pytest.raises(FunctionFormatError, match="^malformed JSON: "):
        deserialize("[" * 100_000 + "]" * 100_000)


def refuse_walk(ctx, parts):
    raise AssertionError("canonical cells built")


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_the_reader_counts_canonical_cells_before_it_builds_them(p, n, monkeypatch):
    # overlapping terms with zero sums, nested balls, non-p denominators
    for seed in range(40):
        rng = random.Random(seed)
        terms = [
            {
                "re": str(rng.choice([1, -1, 2, 0])),
                "center": [f"{rng.randint(-9, 9)}/{rng.choice([1, 3, p, p * p])}" for _ in range(n)],
                "radius_exp": rng.randint(-3, 3),
            }
            for _ in range(rng.randint(1, 5))
        ]
        text = json.dumps({"p": p, "n": n, "terms": terms})
        monkeypatch.undo()
        cells = len(deserialize(text).terms)
        monkeypatch.setattr(schwartz, "MAX_CELLS", cells)
        assert len(deserialize(text).terms) == cells
        if not cells:
            continue
        # the refusal comes before the walk that would build the cells
        monkeypatch.setattr(schwartz, "MAX_CELLS", cells - 1)
        monkeypatch.setattr(schwartz, "_combine_tries", refuse_walk)
        with pytest.raises(FunctionFormatError, match=f"has {cells} cells, over the {cells - 1} accepted"):
            deserialize(text)


def test_a_zero_term_too_deep_to_reduce_is_dropped_at_once():
    # its ball, 5^-1000000000 deep, is never reduced
    start = time.perf_counter()
    f = deserialize('{"p":5,"n":2,"terms":[{"re":"0/3125","center":["1/3125","7/25"],"radius_exp":-1000000000}]}')
    assert f.is_zero and time.perf_counter() - start < 1.0


def test_read_object_builds_what_deserialize_parses():
    for seed in range(20):
        text = serialize(random_test_function(seed, C32, RandomFunctionConfig(complex_coeffs=True)))
        ctx, build = read_object(json.loads(text))
        assert ctx == C32 and build() == deserialize(text)
    with pytest.raises(FunctionFormatError, match="top level must be an object"):
        read_object([])


def test_serialize_names_the_field_over_the_integer_text_limit():
    # f = 1_{Z_2} + 1_{B(0, 2**-200)}: the resolvent's exact values at
    # depth 200 have integers of thousands of digits
    ball = Ball(PAdicVector.zero(C21), -200)
    f = omega() + BruhatSchwartzFunction.indicator(ball)
    u = resolvent(BesselOrder(2.0, C21), Fraction(1, 2), f)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match=r"term \d+ field '(re|im)' has a \d+-digit integer") as info:
        serialize(u)
    assert f"over the limit of {limit} digits for integer text (sys.get_int_max_str_digits())" in str(info.value)
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("field,value", [("re", "1/"), ("center", "-")])
def test_the_reader_names_the_integer_text_limit(field, value):
    digits = sys.get_int_max_str_digits() + 1
    text = value + "7" * digits
    term = {"re": "1", "center": ["0"], "radius_exp": 0}
    term[field] = [text] if field == "center" else text
    with pytest.raises(FunctionFormatError) as info:
        deserialize(json.dumps({"p": 2, "n": 1, "terms": [term]}))
    limit = sys.get_int_max_str_digits()
    assert str(info.value).startswith(f"a rational has a {digits}-digit integer, over the limit of {limit} digits")


def test_serialize_independent_of_build_order():
    f = random_test_function(1, C21)
    g = random_test_function(2, C21)
    assert serialize(f + g) == serialize(g + f)


def test_float_coefficients_serialize_exactly():
    f = omega().scale(0.1)
    back = deserialize(serialize(f))
    assert back.evaluate(PAdicVector.zero(C21)).re == 0.1


@pytest.mark.parametrize(
    "text", ["0", "-0", "+7", "-3/6", "10/4", "0/5", "-123456789012345678901234567890/35"]
)
def test_rationals_read_as_fraction_reads_them(text):
    f = deserialize(json.dumps({"p": 2, "n": 1, "terms": [{"re": text, "im": text, "center": [text], "radius_exp": 0}]}))
    value = Fraction(text)
    if value:
        (c, ball), = f.terms
        assert (c.re, c.im) == (value, value) and ball.key() == Ball(PAdicVector.of(C21, value), 0).key()
    else:
        assert f.is_zero


@pytest.mark.parametrize("coeff", [10**200, 1e200], ids=["exact", "float"])
def test_sup_norm_past_the_float_range_of_the_square(coeff):
    assert BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(C21), 0), coeff).sup_norm() == 1e200


@pytest.mark.parametrize("seed", range(20))
def test_sup_and_argmax_on_exact_and_float_cells_together(seed):
    f = random_test_function(seed, C21, RandomFunctionConfig(max_terms=4, radius_min=-2))
    g = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, seed % 8), -2), (-1) ** seed * 4.5)
    h = f + g  # float cells on the ball of g, exact cells elsewhere
    assert {c.is_exact for c, _ in h.terms} == {True, False}
    s = h.sup_and_argmax()
    best = max([0] + [c.re for c, _ in h.terms])
    assert s.value == best
    assert s.cell == next((b for c, b in h.terms if c.re == best and best > 0), None)


def min_radius_exp(f):
    """Constancy index: f is constant on every ball of this radius exponent
    (None for the zero function, constant everywhere)."""
    return min((ball.radius_exp for _, ball in f.canonicalize().terms), default=None)


def test_support_and_constancy_metadata():
    zero = PAdicVector.zero(C21)
    f = BruhatSchwartzFunction.indicator(Ball(zero, 1)) + BruhatSchwartzFunction.indicator(
        Ball(PAdicVector.of(C21, Fraction(1, 4)), -2), 5
    )
    assert support_norm_exp(f) == 2
    assert min_radius_exp(f) == -2
    assert min_radius_exp(BruhatSchwartzFunction.zero(C21)) is None


# -- the integer digit walk against the Fraction walk ---------------------------

# the (p, n, alpha) points of the benchmark grid
GRID = ((2, 1, 2.0), (3, 1, 3.0), (2, 2, 4.0), (5, 1, 2.0), (3, 2, 2.5))


def canonicalize_reference(f: BruhatSchwartzFunction) -> tuple:
    """The cells of ``BruhatSchwartzFunction.canonicalize`` from a walk over
    Fraction centers, kept as the oracle of the integer digit walk.  It
    always walks f's terms, canonical or not, and returns the cells, since
    only canonical form builds a canonical function.

    The terms are inserted into a dict subdivision tree keyed by digit
    tuples, rooted at a ball around 0 covering every term; each point's
    value is the sum of the coefficients on its digit path, and sibling
    groups that agree are merged back into their parent, giving the
    coarsest partition into pairwise-disjoint constant balls.
    """
    terms = [(c, b.canonical()) for c, b in f.terms if not c.is_zero()]
    if not terms:
        return ()
    root_r = 0
    for _, ball in terms:
        root_r = max(root_r, ball.radius_exp)
        m = ball.center.norm_exp
        if m != ZERO_NORM:
            root_r = max(root_r, int(m))

    # tree node: [coefficient, {digit tuple: child node}]
    root = [EC_ZERO, {}]
    p = f.ctx.p
    root_scale = p**root_r
    for c, ball in terms:
        depth = root_r - ball.radius_exp
        per_coord = []
        for x in ball.center.coords:
            # canonical centers have p-power denominators dividing the
            # root scale, so the digit path is one integer expansion
            u = x.numerator * root_scale // x.denominator
            digits = []
            for _ in range(depth):
                digits.append(u % p)
                u //= p
            per_coord.append(digits)
        node = root
        for j in range(depth):
            step = tuple(digits[j] for digits in per_coord)
            node = node[1].setdefault(step, [EC_ZERO, {}])
        node[0] = node[0] + c

    ctx = f.ctx
    all_digits = list(digit_product(range(p), repeat=ctx.n))
    out: list = []

    # Post-order walk with an explicit stack, so the tree depth is not
    # bounded by the recursion limit.  A frame is [children, center
    # coords, radius, running value, digit scale, results]; results gets
    # one (value, coords) per child in digit order, value None when that
    # child's subtree is not constant and its cells are already in out.
    # A finished frame whose children all agree is constant; otherwise
    # its nonzero constant children become cells of radius - 1.
    zero_coords = (Fraction(0),) * ctx.n
    top = root[0]
    stack = []
    if root[1]:
        stack.append([root[1], zero_coords, root_r, top, Fraction(p) ** -root_r, []])
    while stack:
        children, coords, radius, running, scale, results = stack[-1]
        if len(results) < len(all_digits):
            digits = all_digits[len(results)]
            child_coords = tuple(x + d * scale for x, d in zip(coords, digits))
            child = children.get(digits)
            if child is None:
                results.append((running, child_coords))
            elif not child[1]:
                results.append((running + child[0], child_coords))
            else:
                stack.append(
                    [child[1], child_coords, radius - 1, running + child[0], scale * p, []]
                )
            continue
        stack.pop()
        top = results[0][0]
        if top is None or any(v is None or v != top for v, _ in results[1:]):
            for value, child_coords in results:
                if value is not None and not value.is_zero():
                    cell = Ball(PAdicVector(child_coords, ctx), radius - 1, known_canonical=True)
                    out.append((value, cell))
            top = None
        if stack:
            stack[-1][5].append((top, coords))
    if top is None:
        cells = out
    elif top.is_zero():
        cells = []
    else:
        cells = [(top, Ball(PAdicVector(zero_coords, ctx), root_r, known_canonical=True))]
    return tuple(cells)


def random_terms(rng, ctx, count, dens, complex_coeffs):
    """count raw terms, centers k/d with d drawn from dens, none reduced."""
    terms = []
    for _ in range(count):
        coords = tuple(Fraction(rng.randint(-40, 40), rng.choice(dens)) for _ in range(ctx.n))
        re = Fraction(rng.randint(-8, 8), 4)
        im = Fraction(rng.randint(-8, 8), 4) if complex_coeffs else 0
        terms.append((ExactComplex(re, im), Ball(PAdicVector(coords, ctx), rng.randint(-3, 2))))
    return tuple(terms)


def assert_matches_reference(f):
    # equal terms serialize to equal bytes: serialize writes every number exactly
    assert f.canonicalize().terms == canonicalize_reference(f)


@pytest.mark.parametrize("complex_coeffs", [False, True])
@pytest.mark.parametrize("p,n", [(p, n) for p, n, _ in GRID])
def test_canonicalize_matches_the_fraction_walk_on_random_sums(p, n, complex_coeffs):
    ctx = PrimeContext(p, n)
    rng = random.Random(f"{p}:{n}:{complex_coeffs}")
    cfg = RandomFunctionConfig(max_terms=6, radius_min=-3, radius_max=2, den_pow_max=2,
                               complex_coeffs=complex_coeffs)
    for seed in range(8):
        parts = [random_test_function(3 * seed + k, ctx, cfg) for k in range(3)]
        canonical_terms = sum((f.terms for f in parts), ())
        raw = random_terms(rng, ctx, 5, (1, p, p**2, p**3), complex_coeffs)
        assert_matches_reference(BruhatSchwartzFunction(ctx, canonical_terms + raw))
        # a sum that cancels back to the first part
        back = canonical_terms + tuple((-c, b) for c, b in parts[1].terms + parts[2].terms)
        assert_matches_reference(BruhatSchwartzFunction(ctx, back))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_canonicalize_matches_the_fraction_walk_off_p_power_denominators(p, n):
    # centers like 1/3 at p = 2 and 1/2 at p = 3 reduce to p-adic integers
    ctx = PrimeContext(p, n)
    rng = random.Random(f"coprime:{p}:{n}")
    dens = (3, 5 * p, 7 * p**2) if p != 3 else (2, 5 * p, 7 * p**2)
    for _ in range(10):
        assert_matches_reference(BruhatSchwartzFunction(ctx, random_terms(rng, ctx, 6, dens, True)))
    third = Ball(PAdicVector.of(C21, Fraction(1, 3)), -4)
    half = Ball(PAdicVector.of(C31, Fraction(1, 2)), -3)
    for ball in (third, half):
        f = BruhatSchwartzFunction(ball.ctx, ((ExactComplex(1, 0), ball),) + omega(ball.ctx).terms)
        assert_matches_reference(f)


@pytest.mark.parametrize("radius_exp", [-300, 300])
def test_canonicalize_matches_the_fraction_walk_on_a_deep_and_a_wide_ball(radius_exp):
    ball = Ball(PAdicVector.of(C21, Fraction(5, 8)), radius_exp)
    for extra in (omega().terms, ((ExactComplex(2, -1), Ball(PAdicVector.of(C21, 3), -2)),)):
        f = BruhatSchwartzFunction(C21, ((ExactComplex(Fraction(1, 3), 0), ball),) + extra)
        assert_matches_reference(f)


def operator_term_lists():
    """Every term list the concentric oracle of the radial multipliers hands
    to canonical form for the operator, the resolvent and the semigroup on
    the grid."""
    handed = []
    for p, n, alpha in GRID:
        order = BesselOrder(alpha, PrimeContext(p, n))
        cfg = RandomFunctionConfig(max_terms=4, radius_min=-3, radius_max=1,
                                   den_pow_max=1, complex_coeffs=True)
        multipliers = (
            symbol_multiplier(order),
            resolvent_multiplier(order, Fraction(1, 2)),
            semigroup_multiplier(0.7, order),
        )
        for seed in range(4):
            f = random_test_function(seed, order.ctx, cfg)
            handed.extend(BruhatSchwartzFunction(order.ctx, concentric_terms(m, f)) for m in multipliers)
    assert len(handed) == 3 * 4 * len(GRID)
    return handed


def test_canonicalize_matches_the_fraction_walk_on_operator_outputs():
    for f in operator_term_lists():
        assert_matches_reference(f)


def test_apply_marks_canonical_only_reduced_centers():
    # the oracle's concentric balls, and the cells of the trie route
    checked = 0
    for f in operator_term_lists():
        for g in (f, f.canonicalize()):
            p = g.ctx.p
            for _, ball in g.terms:
                if ball.known_canonical:
                    reduced = tuple(reduce_mod_ball(x, ball.radius_exp, p) for x in ball.center.coords)
                    assert ball.center.coords == reduced
                    checked += 1
    assert checked > 0
    order = BesselOrder(3.0, C31)
    f = random_test_function(5, C31, RandomFunctionConfig(4, -3, 1, den_pow_max=1))
    for _, ball in apply_bessel(order, f).terms:
        assert ball.known_canonical
        assert ball.center.coords == tuple(reduce_mod_ball(x, ball.radius_exp, 3) for x in ball.center.coords)


# -- the digit trie ---------------------------------------------------------------


def inner_product_lookup(f: BruhatSchwartzFunction, g: BruhatSchwartzFunction) -> ExactComplex:
    """The L2 pairing by containing-cell lookups, kept as the oracle of the
    trie walk of ``inner_product``.

    Cells within one canonical side are pairwise disjoint and each cell
    meets at most one equal-or-larger cell of the other side, found by
    reducing its center mod each radius of the other side.
    """
    f, g = f.canonicalize(), g.canonicalize()
    p = f.ctx.p

    def lookup(cells, radii, center, min_radius):
        for radius in radii:
            if radius < min_radius:
                return None
            key = (radius, tuple(reduce_mod_ball(x, radius, p) for x in center.coords))
            hit = cells.get(key)
            if hit is not None:
                return hit
        return None

    g_cells = {ball.key(): coeff for coeff, ball in g.terms}
    g_radii = sorted({ball.radius_exp for _, ball in g.terms}, reverse=True)
    f_cells = {ball.key(): coeff for coeff, ball in f.terms}
    f_radii = sorted({ball.radius_exp for _, ball in f.terms}, reverse=True)
    total = EC_ZERO
    for cf, bf in f.terms:
        cg = lookup(g_cells, g_radii, bf.center, bf.radius_exp)
        if cg is not None:
            total = total + cf * cg.conjugate() * bf.measure
    for cg, bg in g.terms:
        cf = lookup(f_cells, f_radii, bg.center, bg.radius_exp + 1)
        if cf is not None:
            total = total + cf * cg.conjugate() * bg.measure
    return total


@pytest.mark.parametrize("complex_coeffs", [False, True])
@pytest.mark.parametrize("p,n", [(p, n) for p, n, _ in GRID])
def test_trie_pairing_equals_the_lookup_oracle(p, n, complex_coeffs):
    ctx = PrimeContext(p, n)
    rng = random.Random(f"pair:{p}:{n}:{complex_coeffs}")
    cfg = RandomFunctionConfig(max_terms=5, radius_min=-3, radius_max=3, den_pow_max=2,
                               complex_coeffs=complex_coeffs)
    for seed in range(10):
        f = random_test_function(2 * seed, ctx, cfg)
        g = random_test_function(2 * seed + 1, ctx, cfg)
        # raw sums whose root balls differ from the canonical ones
        h = BruhatSchwartzFunction(ctx, random_terms(rng, ctx, 4, (1, p, p**3), complex_coeffs))
        for a, b in ((f, g), (g, f), (f, h), (h, g), (h, h), (f, f.scale(0)), (f, -g)):
            assert a.inner_product(b) == inner_product_lookup(a, b)


def test_trie_pairing_across_root_radii_and_depths():
    zero = PAdicVector.zero(C21)
    wide = BruhatSchwartzFunction.indicator(Ball(zero, 40), 3)
    deep = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, 5), -30), ExactComplex(1, 2))
    mixed = wide + deep + BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, Fraction(1, 8)), -2))
    for a in (wide, deep, mixed, omega()):
        for b in (wide, deep, mixed, omega()):
            assert a.inner_product(b) == inner_product_lookup(a, b)


def test_a_sum_that_cancels_its_widest_part_leaves_no_wide_trie():
    # later sums root their trees at each summand's trie radius
    zero = PAdicVector.zero(C21)
    wide = BruhatSchwartzFunction.indicator(Ball(zero, 40), 3)
    deep = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, Fraction(5, 4)), -30))
    rest = (wide + deep) - wide
    assert rest == deep and rest.trie.radius == deep.trie.radius == 2


def test_the_trie_is_invisible():
    """repr, == and serialize of a canonical function, which the benchmark
    fingerprints, do not see its trie; a function built from canonical
    cells by hand builds the same trie in its constructor."""
    order = BesselOrder(3.0, C32)
    f = random_test_function(3, C32, RandomFunctionConfig(4, -2, 2, den_pow_max=1, complex_coeffs=True))
    bare = BruhatSchwartzFunction(f.ctx, f.terms)
    assert f.trie is not None and bare.trie is not f.trie and bare.trie == f.trie
    before = (repr(f), hash(f), serialize(f))
    assert f == bare and (repr(bare), hash(bare), serialize(bare)) == before
    f.inner_product(bare)
    outputs = [apply_bessel(order, f) for _ in range(3)] + [apply_bessel(order, bare)]
    assert (repr(f), hash(f), serialize(f)) == before
    assert len({repr(u) for u in outputs}) == 1
    assert bare.trie == f.trie and bare.canonicalize() is bare
    u = outputs[0]
    assert u == u.canonicalize() and serialize(u) == serialize(BruhatSchwartzFunction(u.ctx, u.terms))


def indicator_terms(rng, ctx):
    """A seeded raw term list of 2-5 pieces: a ball and one inside it, in
    either order; zero coefficients, exact and float; two terms on one ball,
    written with two centers, whose imaginary parts cancel; and the p**n
    children of Z_p^n with one coefficient.  Every part is dyadic, so a sum
    with a float part does not depend on the order it is taken in."""
    p, n = ctx.p, ctx.n

    def ball(r):
        coords = tuple(Fraction(rng.randint(-9, 9), p ** rng.randint(0, 2)) for _ in range(n))
        return Ball(PAdicVector(coords, ctx), r)

    def inside(outer, r):
        """Another center of the ball outer, and a ball of radius p**r there."""
        step = tuple(Fraction(rng.randint(-5, 5)) * ctx.p_power(-outer.radius_exp) for _ in range(n))
        return Ball(outer.center + PAdicVector(step, ctx), r)

    def coeff(im=None):
        re = rng.choice([Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4])), rng.choice([0.5, -1.25, 2.0])])
        if im is None:
            im = rng.choice([0, Fraction(rng.randint(-2, 2), 4), 0.75])
        return ExactComplex(re, im)

    terms = []
    for _ in range(rng.randint(2, 5)):
        kind = rng.randrange(4)
        if kind == 0:
            outer = ball(rng.randint(-2, 2))
            pair = [(coeff(), outer), (coeff(), inside(outer, outer.radius_exp - rng.randint(1, 3)))]
            terms += pair if rng.random() < 0.5 else pair[::-1]
        elif kind == 1:
            terms.append((ExactComplex(rng.choice([0, 0.0, Fraction(0)]), 0), ball(rng.randint(-3, 2))))
        elif kind == 2:
            b = ball(rng.randint(-2, 2))
            im = rng.choice([Fraction(rng.randint(1, 6), 4), 0.5])
            terms += [(coeff(im), b), (coeff(-im), inside(b, b.radius_exp))]
        else:
            c = coeff()
            terms += [(c, child) for child in digit_children(Ball(PAdicVector.zero(ctx), 0))]
    rng.shuffle(terms)
    return tuple(terms)


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_a_raw_term_list_is_the_sum_of_its_indicators(p, n, alpha):
    # the constructor puts any term list in canonical form, so == and hash
    # compare functions, and is_real, is_exact and is_zero read the function
    ctx = PrimeContext(p, n)
    rng = random.Random(f"indicators:{p}:{n}")
    unit = Ball(PAdicVector.zero(ctx), 0)
    halves = tuple((ExactComplex(1, 0), child) for child in digit_children(unit))
    ball = Ball(PAdicVector.of(ctx, *[Fraction(1, p)] * n), -1)
    cases = [
        halves,
        ((ExactComplex(1, 1), ball), (ExactComplex(1, -1), ball)),
        ((ExactComplex(0, 0), unit), (ExactComplex(0.0, 0), ball)),
    ] + [indicator_terms(rng, ctx) for _ in range(60)]
    for terms in cases:
        f = BruhatSchwartzFunction(ctx, terms)
        total = BruhatSchwartzFunction.zero(ctx)
        for c, b in terms:
            total = total + BruhatSchwartzFunction.indicator(b, c)
        assert f == total and hash(f) == hash(total)
        assert (f.is_real, f.is_exact, f.is_zero) == (total.is_real, total.is_exact, total.is_zero)
        assert f.trie == total.trie
        other = total + BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(ctx), -5))
        assert f != other
    assert BruhatSchwartzFunction(ctx, halves) == BruhatSchwartzFunction.unit_ball(ctx)
    assert BruhatSchwartzFunction(ctx, cases[1]).is_real
    assert BruhatSchwartzFunction(ctx, cases[2]) == BruhatSchwartzFunction.zero(ctx)


def test_every_builder_returns_a_canonical_function_with_its_trie():
    order = BesselOrder(2.5, C32)
    cfg = RandomFunctionConfig(4, -2, 2, den_pow_max=1, complex_coeffs=True)
    f = random_test_function(5, C32, cfg)
    g = BruhatSchwartzFunction(C32, random_terms(random.Random(5), C32, 4, (1, 3, 9), True))
    problem = EvolutionProblem(u0=g, horizon=1.0, forcing=((0.0, f), (0.5, g)))
    builders = {
        "constructor": lambda: BruhatSchwartzFunction(C32, f.terms),
        "indicator": lambda: BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C32, Fraction(1, 3), 2), -2), 3),
        "unit_ball": lambda: BruhatSchwartzFunction.unit_ball(C32),
        "zero": lambda: BruhatSchwartzFunction.zero(C32),
        "random_test_function": lambda: random_test_function(6, C32, cfg),
        "deserialize": lambda: deserialize(serialize(g)),
        "fourier": lambda: fourier(g),
        "inverse_fourier": lambda: inverse_fourier(g),
        "reflect": g.reflect,
        "+": lambda: f + g,
        "-": lambda: f - g,
        "scale": lambda: g.scale(ExactComplex(0, 1)),
        "apply_bessel": lambda: apply_bessel(order, g),
        "resolvent": lambda: resolvent(order, Fraction(1, 2), g),
        "solve_cauchy": lambda: solve_cauchy(g, 0.7, order),
        "solve_cauchy at t = 0": lambda: solve_cauchy(g, 0.0, order),
    }
    for t, u in zip((0.0, 0.3, 1.0), duhamel(problem, order, [0.0, 0.3, 1.0])):
        builders[f"duhamel at t = {t}"] = lambda u=u: u
    for name, build in builders.items():
        u = build()
        assert u.trie is not None and u.canonicalize() is u, name
        assert u == BruhatSchwartzFunction(C32, u.terms), name


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_haar_combination_is_the_sum_of_its_applied_parts(p, n, alpha):
    # one linear_combination of multiplier and weight pairs, at exact shell
    # values (integer alpha, rational lambda): one graft per pair and one
    # merge give the bytes of each multiplier applied and merged alone, and
    # the merged outputs summed; a raw function takes the digit walk, so its
    # scaling is done by hand
    ctx = PrimeContext(p, n)
    order = BesselOrder(float(math.ceil(alpha)), ctx)
    lam = Fraction(1, 2)
    w = ExactComplex(Fraction(-2, 3), 1)
    cfg = RandomFunctionConfig(max_terms=4, radius_min=-3, radius_max=2, den_pow_max=1, complex_coeffs=True)
    rng = random.Random(f"combination:{p}:{n}")
    for seed in range(6):
        f, g, h = (random_test_function(seed + k, ctx, cfg) for k in (0, 100, 200))
        raw = BruhatSchwartzFunction(ctx, random_terms(rng, ctx, 3, (1, p, p**2), True))
        for summand in (h, raw):
            got = linear_combination(
                [(symbol_multiplier(order), f), (resolvent_multiplier(order, lam), g), (w, summand)]
            )
            scaled = BruhatSchwartzFunction(ctx, tuple((c * w, b) for c, b in summand.terms))
            want = linear_combination(
                [(1, symbol_multiplier(order).apply(f)), (1, resolvent_multiplier(order, lam).apply(g)),
                 (1, scaled.canonicalize())]
            )
            assert serialize(got) == serialize(want)


def test_haar_combination_puts_a_part_with_drops_in_canonical_form():
    # 1_{B(0, 2^-3)} built from a raw term list, which the constructor puts
    # in canonical form with its trie: the multiplier's drops apply, giving
    # the four cells of the operator applied to it
    order = BesselOrder(2.0, C21)
    zero = PAdicVector.zero(C21)
    f = BruhatSchwartzFunction(C21, ((ExactComplex(1, 0), Ball(zero, -3)),))
    assert f.trie is not None and f.canonicalize() is f
    got = linear_combination([(symbol_multiplier(order), f)])
    assert sorted(c.re for c, _ in got.terms) == [
        Fraction(3, 32), Fraction(9, 64), Fraction(21, 128), Fraction(23, 128)
    ]
    assert serialize(got) == serialize(apply_bessel(order, f))


def test_haar_combination_needs_parts_in_one_context():
    with pytest.raises(ValueError):
        linear_combination([])
    with pytest.raises(ContextMismatchError):
        linear_combination([(1, BruhatSchwartzFunction.unit_ball(C21)),
                            (1, BruhatSchwartzFunction.unit_ball(C31))])


# -- the lockstep walk against the subdivision-tree route ------------------------


def coefficient_key(c):
    """An exact value's Gaussian triple, or the repr of a value with a float
    part, in which -0.0 and the last bits of each part show."""
    return c.gaussian or repr(c)


def trie_shape(node):
    """A digit trie node with each cell as its coefficient key and ball."""
    if type(node) is list:
        return [trie_shape(kid) for kid in node]
    return None if node is None else (coefficient_key(node[0]), node[1])


@pytest.mark.parametrize("p,n,alpha", GRID + ((7, 1, 1.5),))
def test_one_pair_on_its_trie_is_the_tree_route_bit_for_bit(p, n, alpha):
    # every pair alone, then seeded sums of 1-4 pairs, against one graft per
    # pair and one merge; the deep inputs only alone
    ctx = PrimeContext(p, n)
    order = BesselOrder(alpha, ctx)
    multipliers = [
        symbol_multiplier(order),
        resolvent_multiplier(order, Fraction(1, 2)),
        resolvent_multiplier(order, 0.1),
        semigroup_multiplier(0.7, order),
        forcing_multiplier(0.1, 0.5, 0.7, order),
    ]
    weights = [0, 0.0, -1, ExactComplex(0, 1), 1, Fraction(-3, 7), 1e-320, ExactComplex(0.5, -0.0)]
    far = PAdicVector((Fraction(1),) + (Fraction(0),) * (n - 1), ctx)
    cfg = RandomFunctionConfig(4, -2, 2, den_pow_max=1, complex_coeffs=True)
    # no cell, one cell, and one cell with a -0.0 part on a larger ball,
    # under whose root a sum lifts the others
    wide = BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(ctx), 2), ExactComplex(1.5, -0.0))
    inputs = [BruhatSchwartzFunction.zero(ctx), omega(ctx), wide]
    for seed in range(6):
        f = random_test_function(seed, ctx, cfg)
        # float parts, some of them -0.0, which a sum with 0 would turn to 0.0
        signed = BruhatSchwartzFunction(ctx, tuple((ExactComplex(float(c.re), -0.0), b) for c, b in f.terms))
        inputs += [f, f.scale(0.1), signed.canonicalize()]
    # exact resolvent values 200 digits deep have tens of thousands of
    # decimal digits, past the limit on integer text: these are compared
    # by their Gaussian triples alone
    deep = [
        BruhatSchwartzFunction.indicator(Ball(PAdicVector.zero(ctx), -200)),
        BruhatSchwartzFunction.indicator(Ball(far, -200), -1),
    ]

    def part(m, f):
        return m.part(f) if hasattr(m, "part") else (f, (m,), None)

    sums = [[(m, f)] for f in inputs + deep for m in multipliers + weights]
    rng = random.Random(f"lockstep:{p}:{n}")
    for _ in range(150):
        sums.append([(rng.choice(multipliers + weights), rng.choice(inputs)) for _ in range(rng.randint(1, 4))])
    # a one-cell root that adds nothing, lifted under the -0.0 cell, still
    # holds its ball, whose value then adds the untouched 0
    sums += [[(1, wide), (w, omega(ctx))] for w in (0, 0.0)]
    for pairs in sums:
        assert all(f.trie is not None for _, f in pairs)
        got, want = linear_combination(pairs), tree_combination(ctx, [part(m, f) for m, f in pairs])
        if not any(f in deep for _, f in pairs):
            assert serialize(got) == serialize(want)
        assert [coefficient_key(c) for c, _ in got.terms] == [coefficient_key(c) for c, _ in want.terms]
        assert [ball for _, ball in got.terms] == [ball for _, ball in want.terms]
        assert got.trie.radius == want.trie.radius
        assert trie_shape(got.trie.root) == trie_shape(want.trie.root)


def test_one_pair_on_a_canonical_function_builds_no_tree(monkeypatch):
    # sums, scalings, negation, the residuals, Duhamel and the multipliers
    # of canonical functions walk their tries and insert no raw term; every
    # raw term list is inserted once and its canonical form is one walk
    order = BesselOrder(2.5, C32)
    cfg = RandomFunctionConfig(4, -2, 2, den_pow_max=1, complex_coeffs=True)
    f = random_test_function(5, C32, cfg)
    g = random_test_function(6, C32, cfg)
    real = random_test_function(7, C32, RandomFunctionConfig(4, -2, 2, den_pow_max=1))
    problem = EvolutionProblem(u0=f, horizon=1.0, forcing=((0.0, g), (0.3, real), (0.6, f)))
    text = serialize(f)
    combine_tries, raw_part = schwartz._combine_tries, schwartz._raw_part
    walks, inserted = [], []

    def counted_walk(ctx, parts):
        walks.append(len(parts))
        return combine_tries(ctx, parts)

    def counted_insert(terms, ctx):
        inserted.append(terms)
        return raw_part(terms, ctx)

    monkeypatch.setattr(schwartz, "_combine_tries", counted_walk)
    monkeypatch.setattr(schwartz, "_raw_part", counted_insert)
    for apply in (
        lambda: f + g,
        lambda: f - g,
        lambda: f.scale(ExactComplex(0, 1)),
        lambda: f.scale(0.1),
        lambda: -f,
        lambda: apply_bessel(order, f),
        lambda: resolvent(order, Fraction(1, 2), f),
        lambda: solve_cauchy(f, 0.7, order),
    ):
        walks.clear()
        assert apply().trie is not None
        assert len(walks) == 1
    assert math.isfinite(resolvent_residual(order, 0.1, f))
    assert math.isfinite(c0_dissipativity_margin(order, real, 0.5))
    assert all(u.trie is not None for u in duhamel(problem, order, [0.2, 0.5, 1.0]))
    assert inserted == []
    modulated = ModulatedTerm(ExactComplex(1, 0), Fraction(0), PAdicVector.of(C32, Fraction(1, 9), 0), Ball(PAdicVector.zero(C32), 0))
    for build in (
        lambda: BruhatSchwartzFunction(C32, f.terms),
        lambda: deserialize(text),
        lambda: random_test_function(5, C32, cfg),
        lambda: expand(C32, [modulated]),
        f.reflect,
        lambda: BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C32, Fraction(1, 3), 2), -2), 3),
    ):
        walks.clear()
        inserted.clear()
        assert build().trie is not None
        assert walks == [1] and len(inserted) == 1
    # a raw summand: its canonical form, then the scaling
    want = f.scale(2)
    walks.clear()
    inserted.clear()
    assert BruhatSchwartzFunction(C32, f.terms).scale(2) == want
    assert walks == [1, 1] and inserted == [f.terms]


def raw_term_list(rng, ctx):
    """A seeded raw term list of 1-5 pieces: single terms, cancelling pairs
    on one ball (the second center another point of the ball), nested pairs
    in either order, balls 40 digits deep, zero terms too deep to reduce and
    terms on B(0, p**3), which holds every other ball; exact, float and
    -0.0 parts."""
    p, n = ctx.p, ctx.n

    def center():
        return PAdicVector(tuple(Fraction(rng.randint(-30, 30), p ** rng.randint(0, 2)) for _ in range(n)), ctx)

    def coeff():
        if rng.random() < 0.6:
            return ExactComplex(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])), Fraction(rng.randint(-2, 2), 4))
        return ExactComplex(rng.choice([-0.0, 0.0, 0.1, -1.5, 2]), rng.choice([-0.0, 0.0, 0.5, Fraction(1, 3)]))

    def beside(ball, r):
        """A ball of radius p**r, r <= the radius of ball, inside it."""
        step = PAdicVector(tuple(Fraction(rng.randint(-9, 9)) * ctx.p_power(-ball.radius_exp) for _ in range(n)), ctx)
        return Ball(ball.center + step, r)

    terms = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(6)
        r = rng.choice([-40, -39]) if kind == 3 else rng.randint(-3, 2)
        ball = Ball(center(), r)
        c = coeff()
        if kind == 0:
            terms.append((c, ball))
        elif kind == 1:
            terms += [(c, ball), (-c, beside(ball, r))]
        elif kind in (2, 3):
            pair = [(c, ball), (coeff(), beside(ball, r - rng.randint(1, 3)))]
            terms += pair if rng.random() < 0.5 else pair[::-1]
        elif kind == 4:
            terms.append((ExactComplex(rng.choice([0, 0.0, -0.0]), 0), Ball(center(), -(10**9))))
        else:
            root = Ball(center(), 3)
            terms += [(c, root)] if rng.random() < 0.5 else [(c, root), (-c, beside(root, 3))]
    rng.shuffle(terms)
    return tuple(terms)


@pytest.mark.parametrize("p,n", [(p, n) for p, n, _ in GRID] + [(2, 3), (7, 1)])
def test_raw_canonical_form_is_the_tree_route_bit_for_bit(p, n):
    # raw terms inserted into the trie and closed by the walk, against one
    # subdivision tree and one merge; the reader's count against both
    ctx = PrimeContext(p, n)
    rng = random.Random(f"raw:{p}:{n}")
    for _ in range(150):
        terms = raw_term_list(rng, ctx)
        got, want = BruhatSchwartzFunction(ctx, terms), tree_canonical_form(ctx, terms)
        assert [coefficient_key(c) for c, _ in got.terms] == [coefficient_key(c) for c, _ in want.terms]
        assert [ball for _, ball in got.terms] == [ball for _, ball in want.terms]
        assert got.trie.radius == want.trie.radius
        assert trie_shape(got.trie.root) == trie_shape(want.trie.root)
        assert schwartz._cell_count(schwartz._raw_part(terms, ctx)) == len(want.terms) == len(got.terms)


# -- pointwise queries on the digit trie against the cell scans ----------------


def query_functions(p, n, alpha):
    """Seeded functions for the trie queries at one grid point: random ones
    with complex coefficients, a raw term list, a sum of off-center balls
    down to p**-40 and that sum's operator output."""
    ctx = PrimeContext(p, n)
    rng = random.Random(f"query:{p}:{n}")
    cfg = RandomFunctionConfig(max_terms=4, radius_min=-3, radius_max=3, den_pow_max=2, complex_coeffs=True)
    fs = [random_test_function(seed, ctx, cfg) for seed in range(4)]
    fs.append(BruhatSchwartzFunction(ctx, random_terms(rng, ctx, 4, (1, p, p**3), True)))
    deep = BruhatSchwartzFunction.zero(ctx)
    for r in (-40, -17, -5, 2):
        center = PAdicVector.of(ctx, *[Fraction(rng.randint(-50, 50), p ** rng.randint(0, 3)) for _ in range(n)])
        deep = deep + BruhatSchwartzFunction.indicator(Ball(center, r), ExactComplex(rng.randint(1, 9), rng.randint(-3, 3)))
    fs += [deep, apply_bessel(BesselOrder(alpha, ctx), deep)]
    return ctx, fs


def query_points(ctx, f, rng):
    """Points off every grid: p-power, non-p and mixed denominators,
    negative coordinates, the centers of f's cells and points beside them,
    and points outside f's root ball."""
    p, n = ctx.p, ctx.n
    others = [q for q in (2, 3, 5, 7) if q != p][:2]
    dens = [1, p, p**3, others[0], others[1] * p**2]
    points = [
        PAdicVector.of(ctx, *[Fraction(rng.randint(-300, 300), rng.choice(dens)) for _ in range(n)])
        for _ in range(40)
    ]
    for _, ball in f.canonicalize().terms[:12]:
        r = ball.radius_exp
        for shift in (Fraction(rng.randint(-5, 5)) * ctx.p_power(-r), ctx.p_power(-r - 1), ctx.p_power(-r + 1)):
            step = PAdicVector.of(ctx, *[shift * rng.randint(-1, 1) for _ in range(n - 1)], shift)
            points.append(ball.center + step)
        points.append(-ball.center)
    radius = f.trie.radius
    points.append(PAdicVector.of(ctx, *[Fraction(1, p ** (radius + 1))] * n))
    points.append(PAdicVector.of(ctx, *([0] * (n - 1)), Fraction(-7, p ** (radius + 3))))
    return points


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_evaluate_reads_the_trie_as_the_cell_scan_does(p, n, alpha):
    ctx, fs = query_functions(p, n, alpha)
    rng = random.Random(f"evaluate:{p}:{n}")
    for f in fs:
        for x in query_points(ctx, f, rng):
            assert f.evaluate(x) == evaluate_by_scan(f, x)


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_ball_integral_reads_the_trie_as_the_relation_scan_does(p, n, alpha):
    ctx, fs = query_functions(p, n, alpha)
    rng = random.Random(f"ball_integral:{p}:{n}")
    for f in fs:
        for x in query_points(ctx, f, rng):
            region = Ball(x, rng.randint(-45, 6))
            got, want = f.ball_integral(region), ball_integral_by_scan(f, region)
            if f.is_exact:
                assert got == want
            else:  # the node's cells are summed in another order
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_ball_integral_of_regions_around_the_root():
    f = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, Fraction(1, 4)), -3), 3) + omega()
    assert f.trie.radius == 2
    for x, r in ((0, 2), (0, 9), (Fraction(1, 8), 3), (Fraction(1, 8), 2), (Fraction(1, 16), 9), (5, -1)):
        region = Ball(PAdicVector.of(C21, x), r)
        assert f.ball_integral(region) == ball_integral_by_scan(f, region)
    assert BruhatSchwartzFunction.zero(C21).ball_integral(Ball(PAdicVector.zero(C21), 3)) == EC_ZERO


def test_evaluate_of_a_raw_sum_is_its_canonical_value():
    # a point outside the root of the canonical form but inside a cancelled term
    zero = PAdicVector.zero(C21)
    wide = Ball(zero, 40)
    f = BruhatSchwartzFunction(C21, ((ExactComplex(3, 0), wide), (ExactComplex(-3, 0), wide)) + omega().terms)
    assert f.evaluate(PAdicVector.of(C21, Fraction(1, 2**30))) == EC_ZERO
    assert f.evaluate(PAdicVector.of(C21, Fraction(-1, 3))) == ExactComplex(1, 0)


@pytest.mark.parametrize("coeff", [10**200, 1e200], ids=["exact", "float"])
def test_l2_norm_past_the_float_range_of_the_square(coeff):
    # 10**400 has no float; the norm 10**200 has
    zero = PAdicVector.zero(C21)
    assert BruhatSchwartzFunction.indicator(Ball(zero, 0), coeff).l2_norm() == 1e200
    deep = BruhatSchwartzFunction.indicator(Ball(zero, -6), coeff)
    assert deep.l2_norm() == pytest.approx(1.25e199, rel=1e-15)
    two = deep + BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(C21, 1), -6), 3 * coeff)
    assert two.l2_norm() == pytest.approx(math.sqrt(10) * 1.25e199, rel=1e-15)


def test_l2_norm_is_inf_only_past_the_float_range():
    zero = PAdicVector.zero(C21)
    assert BruhatSchwartzFunction.indicator(Ball(zero, 5000)).l2_norm() == math.inf  # 2**2500
    assert BruhatSchwartzFunction.indicator(Ball(zero, 100), 1e300).l2_norm() == math.inf  # 1e300 * 2**50
    assert BruhatSchwartzFunction.indicator(Ball(zero, 10), 1e300).l2_norm() == 1e300 * 2.0**5
    assert BruhatSchwartzFunction.indicator(Ball(zero, 2040)).l2_norm() == 2.0**1020


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_l2_norm_in_range_keeps_its_bits(p, n):
    ctx = PrimeContext(p, n)
    for seed in range(10):
        f = random_test_function(seed, ctx, RandomFunctionConfig(complex_coeffs=True))
        g = f.scale(0.1)
        for h in (f, g):
            total = sum((c.abs2() * ball.measure for c, ball in h.terms), 0)
            assert h.l2_norm() == math.sqrt(max(0.0, float(total)))


def test_root_of_square():
    assert schwartz.root_of_square(10**400) == 1e200
    assert schwartz.root_of_square(Fraction(10**401 + 1, 10)) == 1e200
    assert schwartz.root_of_square(2**2100) == math.inf
    assert schwartz.root_of_square(Fraction(9, 4)) == 1.5
    assert schwartz.root_of_square(-1e-300) == 0.0
    assert schwartz.root_of_square(math.inf) == math.inf


@pytest.mark.parametrize("p,n,alpha", GRID)
def test_read_leaves_reads_any_function_at_the_kept_centers(p, n, alpha):
    # g finer or coarser than f, with a wider or a narrower root: every leaf
    # of f is kept, and g is read at its center as ``evaluate`` and, on every
    # fifth leaf, the cell scan read it
    ctx, fs = query_functions(p, n, alpha)
    fs = [f.canonicalize() for f in fs]
    for f in fs:
        for g in fs:
            leaves = schwartz.read_leaves(f, g, lambda leaf, radius: True)
            assert {x for x, _ in leaves} >= {ball.center for _, ball in f.terms}
            for i, (x, value) in enumerate(leaves):
                assert value == g.evaluate(x)
                if i % 5 == 0:
                    assert value == evaluate_by_scan(g, x)
