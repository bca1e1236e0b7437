"""Test functions on Q_p^n: finite complex combinations of ball indicators.

A locally constant, compactly supported function is stored as a list of
(coefficient, ball) terms.  ``canonicalize`` rewrites any term list into the
unique coarsest partition of a covering ball into sub-balls on which the
function is constant, by inserting every term into an ultrametric
subdivision tree and merging constant siblings bottom-up.  All structural
operations (integrals, inner products, suprema) are exact on rational
coefficients.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as digit_product
from typing import Optional, Sequence, Union

from padic_bessel.padic import (
    EC_ZERO,
    ZERO_NORM,
    Ball,
    ContextMismatchError,
    ExactComplex,
    Number,
    PAdicVector,
    PrimeContext,
    is_prime,
    reduce_mod_ball,
    valuation,
)

Term = tuple  # (ExactComplex, Ball)


class FunctionFormatError(ValueError):
    """Serialized test-function text violates the schema."""


@dataclass(frozen=True)
class Supremum:
    """Result of a supremum query over all of Q_p^n.

    ``cell`` is a ball on which the maximum is attained, or None when the
    supremum is 0 and is attained off the support (every compactly supported
    function vanishes near infinity, so 0 always competes).
    """

    value: Number
    cell: Optional[Ball]


@dataclass(frozen=True)
class BruhatSchwartzFunction:
    ctx: PrimeContext
    terms: tuple
    canonical: bool = field(default=False, compare=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: PrimeContext) -> "BruhatSchwartzFunction":
        return cls(ctx, (), canonical=True)

    @classmethod
    def indicator(cls, ball: Ball, coeff: Union[Number, ExactComplex] = 1) -> "BruhatSchwartzFunction":
        c = coeff if isinstance(coeff, ExactComplex) else ExactComplex(coeff, 0)
        return cls(ball.ctx, ((c, ball.canonical()),)).canonicalize()

    @classmethod
    def unit_ball(cls, ctx: PrimeContext) -> "BruhatSchwartzFunction":
        """The indicator of Z_p^n (the reproducing test function)."""
        return cls.indicator(Ball(PAdicVector.zero(ctx), 0))

    # -- pointwise structure ----------------------------------------------

    def evaluate(self, x: PAdicVector) -> ExactComplex:
        """Value at x: the sum of coefficients of the balls containing x."""
        if x.ctx != self.ctx:
            raise ContextMismatchError(f"{x.ctx} != {self.ctx}")
        total = EC_ZERO
        for c, ball in self.terms:
            if ball.contains(x):
                total = total + c
        return total

    @property
    def is_zero(self) -> bool:
        return not self.canonicalize().terms

    @property
    def is_real(self) -> bool:
        return all(c.im == 0 for c, _ in self.terms)

    @property
    def is_exact(self) -> bool:
        return all(c.is_exact for c, _ in self.terms)

    def min_radius_exp(self) -> Optional[int]:
        """Constancy index: the function is constant on every ball of this
        radius exponent (None for the zero function, constant everywhere)."""
        f = self.canonicalize()
        if not f.terms:
            return None
        return min(ball.radius_exp for _, ball in f.terms)

    def support_norm_exp(self) -> Union[int, float]:
        """Exponent L with supp(f) inside the ball of radius p**L at 0."""
        f = self.canonicalize()
        if not f.terms:
            return ZERO_NORM
        return max(
            max(ball.radius_exp, ball.center.norm_exp) for _, ball in f.terms
        )

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "BruhatSchwartzFunction") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} != {other.ctx}")

    def __add__(self, other: "BruhatSchwartzFunction") -> "BruhatSchwartzFunction":
        self._check(other)
        return BruhatSchwartzFunction(self.ctx, self.terms + other.terms).canonicalize()

    def __sub__(self, other: "BruhatSchwartzFunction") -> "BruhatSchwartzFunction":
        return self + (-other)

    def __neg__(self) -> "BruhatSchwartzFunction":
        return BruhatSchwartzFunction(
            self.ctx, tuple((-c, b) for c, b in self.terms), canonical=self.canonical
        )

    def scale(self, factor: Union[Number, ExactComplex]) -> "BruhatSchwartzFunction":
        return BruhatSchwartzFunction(
            self.ctx, tuple((c * factor, b) for c, b in self.terms)
        ).canonicalize()

    def reflect(self) -> "BruhatSchwartzFunction":
        """The function x -> f(-x)."""
        return BruhatSchwartzFunction(
            self.ctx, tuple((c, Ball(-b.center, b.radius_exp)) for c, b in self.terms)
        ).canonicalize()

    # -- canonical form ----------------------------------------------------

    def canonicalize(self) -> "BruhatSchwartzFunction":
        """Equivalent function on pairwise-disjoint maximal constant balls.

        Terms are inserted into a subdivision tree rooted at a ball around 0
        covering every term; leaves carry the accumulated value of their
        digit path, and sibling groups that agree are merged back into their
        parent, so the result is the coarsest disjoint form and the map is
        idempotent.

        Canonical centers have p-power denominators, and root_r is at least
        each radius and each denominator exponent, so every center x is the
        integer x * p**root_r: the walk carries these integer digit
        coordinates and builds a Fraction only for the cells it emits.
        """
        if self.canonical:
            return self
        terms = [(c, b.canonical()) for c, b in self.terms if not c.is_zero()]
        if not terms:
            return BruhatSchwartzFunction(self.ctx, (), canonical=True)
        p = self.ctx.p
        root_r = max(0, max(ball.radius_exp for _, ball in terms))
        root_scale = p**root_r
        largest_den = max(x.denominator for _, ball in terms for x in ball.center.coords)
        while root_scale < largest_den:
            root_scale *= p
            root_r += 1

        # tree node: [coefficient, {digit tuple: child node}]
        root = [EC_ZERO, {}]
        for c, ball in terms:
            depth = root_r - ball.radius_exp
            per_coord = []
            for x in ball.center.coords:
                # the center lies in [0, p**-radius), so U = x * root_scale
                # has exactly depth digits, least significant first
                u = x.numerator * (root_scale // x.denominator)
                digits = []
                for _ in range(depth):
                    u, d = divmod(u, p)
                    digits.append(d)
                per_coord.append(digits)
            node = root
            for step in zip(*per_coord):
                node = node[1].setdefault(step, [EC_ZERO, {}])
            node[0] = node[0] + c

        ctx = self.ctx
        all_digits = list(digit_product(range(p), repeat=ctx.n))
        out: list = []

        # Post-order walk with an explicit stack, so the tree depth is not
        # bounded by the recursion limit.  A frame is [children, integer
        # center coords U, radius, running value, integer digit scale,
        # results]; results gets one value per child in digit order, None
        # when that child's subtree is not constant and its cells are
        # already in out.  A finished frame whose children all agree is
        # constant; otherwise its nonzero constant children become cells of
        # radius - 1, centered at (U + digits * scale) / root_scale.
        zero_units = (0,) * ctx.n
        top = root[0]
        stack = []
        if root[1]:
            stack.append([root[1], zero_units, root_r, top, 1, []])
        while stack:
            children, units, radius, running, scale, results = stack[-1]
            if len(results) < len(all_digits):
                digits = all_digits[len(results)]
                child = children.get(digits)
                if child is None:
                    results.append(running)
                elif not child[1]:
                    results.append(running + child[0])
                else:
                    child_units = tuple(u + d * scale for u, d in zip(units, digits))
                    stack.append(
                        [child[1], child_units, radius - 1, running + child[0], scale * p, []]
                    )
                continue
            stack.pop()
            top = results[0]
            if top is None or any(v is None or v != top for v in results):
                for value, digits in zip(results, all_digits):
                    if value is not None and not value.is_zero():
                        coords = tuple(
                            Fraction(u + d * scale, root_scale) for u, d in zip(units, digits)
                        )
                        cell = Ball(PAdicVector(coords, ctx), radius - 1, known_canonical=True)
                        out.append((value, cell))
                top = None
            if stack:
                stack[-1][5].append(top)
        if top is None:
            cells = out
        elif top.is_zero():
            cells = []
        else:
            cells = [(top, Ball(PAdicVector.zero(ctx), root_r, known_canonical=True))]
        return BruhatSchwartzFunction(self.ctx, tuple(cells), canonical=True)

    # -- integration -------------------------------------------------------

    def integral(self) -> ExactComplex:
        """Haar integral: sum of coefficient * ball measure over the terms."""
        total = EC_ZERO
        for c, ball in self.terms:
            total = total + c * ball.measure
        return total

    def ball_integral(self, region: Ball) -> ExactComplex:
        """Integral of f over an arbitrary ball (exact nested-or-disjoint cut)."""
        total = EC_ZERO
        for c, ball in self.terms:
            rel = ball.relation(region)
            if rel == "disjoint":
                continue
            smaller = ball if rel in ("inside", "equal") else region
            total = total + c * smaller.measure
        return total

    def inner_product(self, other: "BruhatSchwartzFunction") -> ExactComplex:
        """L2 pairing <f, g> = integral of f * conj(g).

        Both sides are brought to canonical form, so cells within one side
        are pairwise disjoint and each cell meets at most one equal-or-larger
        cell of the other side; the pairing reduces to containing-cell
        lookups keyed by (radius, reduced center) instead of an all-pairs
        scan.
        """
        self._check(other)
        f = self.canonicalize()
        g = other.canonicalize()
        p = self.ctx.p

        def lookup(cells, radii, center, min_radius):
            # the unique cell of radius >= min_radius containing the point
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

    def l2_norm(self) -> float:
        """sqrt(Re <f, f>): canonical cells are disjoint, so the square is
        the sum of |c|^2 * measure over them, linear in cells."""
        total = sum((c.abs2() * ball.measure for c, ball in self.canonicalize().terms), 0)
        return math.sqrt(max(0.0, float(total)))

    def sup_norm(self) -> float:
        return max((abs(c) for c, _ in self.canonicalize().terms), default=0.0)

    # -- suprema -----------------------------------------------------------

    def sup_and_argmax(self) -> Supremum:
        """Supremum over Q_p^n of a real-valued function, with a witness.

        The value 0 is always attained outside the (compact) support, so the
        supremum is max(0, cell values); when it is 0 the witness cell is
        None, marking the off-support region.
        """
        f = self.canonicalize()
        if not f.is_real:
            raise ValueError("sup_and_argmax requires a real-valued function")
        best_val: Number = 0
        best_cell: Optional[Ball] = None
        for c, ball in f.terms:
            if c.re > best_val:
                best_val = c.re
                best_cell = ball
        return Supremum(best_val, best_cell)


def linear_combination(
    pairs: Sequence[tuple], ctx: Optional[PrimeContext] = None
) -> BruhatSchwartzFunction:
    """Sum of weight * function pairs, canonicalized once at the end."""
    terms: list = []
    for weight, f in pairs:
        if ctx is None:
            ctx = f.ctx
        elif f.ctx != ctx:
            raise ContextMismatchError(f"{f.ctx} != {ctx}")
        terms.extend((c * weight, b) for c, b in f.terms)
    if ctx is None:
        raise ValueError("empty combination without a context")
    return BruhatSchwartzFunction(ctx, tuple(terms)).canonicalize()


# -- random instances -------------------------------------------------------


@dataclass(frozen=True)
class RandomFunctionConfig:
    """Bounds for the seeded test-function generator.

    Kept deliberately small by default: Fourier-side subdivision grows like
    p**(n * (radius span + denominator depth)), so wide centers at large p^n
    are expensive.  Hard caps: at most 8 terms, radius exponents within
    [-3, 3], center denominators at most p**4.
    """

    max_terms: int = 3
    radius_min: int = -1
    radius_max: int = 1
    num_bound: int = 8
    den_pow_max: int = 1
    coeff_bound: int = 10
    coeff_denominator: int = 16
    complex_coeffs: bool = False

    def validate(self, ctx: PrimeContext) -> None:
        if not (1 <= self.max_terms <= 8):
            raise ValueError("max_terms must be in [1, 8]")
        if not (-3 <= self.radius_min <= self.radius_max <= 3):
            raise ValueError("radius exponents must lie in [-3, 3]")
        if not (0 <= self.den_pow_max <= 4):
            raise ValueError("den_pow_max must be in [0, 4]")
        if self.num_bound > ctx.p**4:
            raise ValueError("center numerators must be bounded by p**4")


def random_test_function(
    seed: int, ctx: PrimeContext, config: RandomFunctionConfig = RandomFunctionConfig()
) -> BruhatSchwartzFunction:
    """Deterministic pseudo-random test function for property batteries."""
    config.validate(ctx)
    rng = random.Random(seed)
    p = ctx.p
    terms = []
    n_terms = rng.randint(1, config.max_terms)
    for _ in range(n_terms):
        r = rng.randint(config.radius_min, config.radius_max)
        coords = []
        for _ in range(ctx.n):
            num = rng.randint(-config.num_bound, config.num_bound)
            den = p ** rng.randint(0, config.den_pow_max)
            coords.append(Fraction(num, den))
        ball = Ball(PAdicVector(tuple(coords), ctx), r)
        d = config.coeff_denominator
        re = Fraction(rng.randint(-config.coeff_bound * d, config.coeff_bound * d), d)
        if config.complex_coeffs:
            im = Fraction(rng.randint(-config.coeff_bound * d, config.coeff_bound * d), d)
        else:
            im = Fraction(0)
        terms.append((ExactComplex(re, im), ball))
    return BruhatSchwartzFunction(ctx, tuple(terms)).canonicalize()


# -- serialization -----------------------------------------------------------


def _num_to_string(x: Number) -> str:
    if isinstance(x, float):
        x = Fraction(x)
    return str(Fraction(x))


def serialize(f: BruhatSchwartzFunction) -> str:
    """Canonical JSON text; identical inputs serialize to identical bytes."""
    f = f.canonicalize()
    obj = {
        "p": f.ctx.p,
        "n": f.ctx.n,
        "terms": [
            {
                "re": _num_to_string(c.re),
                "im": _num_to_string(c.im),
                "center": [_num_to_string(x) for x in ball.center.coords],
                "radius_exp": ball.radius_exp,
            }
            for c, ball in f.terms
        ],
    }
    return json.dumps(obj, separators=(",", ":"))


# "num/den" or "num": Fraction alone would also read "1e-99999999", whose
# denominator takes minutes to build
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

#: the deepest input ``deserialize`` reads: canonical form walks one tree
#: level per p-adic digit, from its root radius (at least 0, each radius and
#: each center denominator exponent) down to the smallest radius, or 0
MAX_INPUT_DEPTH = 10_000

#: the most digit tuples p**n a space may have: canonical form lists all of
#: them at every node of its tree, and one trial of ``verify all`` took 18 s
#: at p**n = 2**8
MAX_DIGIT_TUPLES = 2**8


def too_many_digit_tuples(p: int, n: int) -> bool:
    """Whether p**n is over MAX_DIGIT_TUPLES, decided without building p**n."""
    return p ** min(n, MAX_DIGIT_TUPLES.bit_length()) > MAX_DIGIT_TUPLES


def _parse_rational(s) -> Fraction:
    if not isinstance(s, str):
        raise FunctionFormatError(f"rational fields must be strings, got {s!r}")
    if _RATIONAL.fullmatch(s) is None:
        raise FunctionFormatError(f"malformed rational {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FunctionFormatError(f"malformed rational {s!r}") from exc


def _digit_depth(terms: list, p: int) -> int:
    """Digits canonical form walks for the nonzero terms (0 for none)."""
    balls = [ball for c, ball in terms if not c.is_zero()]
    if not balls:
        return 0
    root = max(
        [0]
        + [ball.radius_exp for ball in balls]
        + [-valuation(x, p) for ball in balls for x in ball.center.coords if x]
    )
    return root - min([0] + [ball.radius_exp for ball in balls])


def deserialize(text: str) -> BruhatSchwartzFunction:
    """Parse the JSON schema back into a canonical function."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FunctionFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FunctionFormatError("top level must be an object")
    # type(), not isinstance: JSON true is a bool, which isinstance takes for 1
    p, n = obj.get("p"), obj.get("n")
    if type(p) is not int or p < 2:
        raise FunctionFormatError(f"p = {p!r} is not a prime integer")
    if type(n) is not int or n < 1:
        raise FunctionFormatError(f"n = {n!r} is not a positive integer")
    if too_many_digit_tuples(p, n):  # before trial division, slow on a huge p
        raise FunctionFormatError(f"p**n = {p}**{n} is over the {MAX_DIGIT_TUPLES} digit tuples accepted")
    if not is_prime(p):
        raise FunctionFormatError(f"p = {p!r} is not a prime integer")
    ctx = PrimeContext(p, n)
    raw_terms = obj.get("terms")
    if not isinstance(raw_terms, list):
        raise FunctionFormatError("'terms' must be a list")
    terms = []
    for entry in raw_terms:
        if not isinstance(entry, dict):
            raise FunctionFormatError("each term must be an object")
        re = _parse_rational(entry.get("re", "0"))
        im = _parse_rational(entry.get("im", "0"))
        center = entry.get("center")
        if not isinstance(center, list) or len(center) != n:
            raise FunctionFormatError(f"center must list {n} rationals")
        radius = entry.get("radius_exp")
        if type(radius) is not int:
            raise FunctionFormatError("radius_exp must be an integer")
        coords = tuple(_parse_rational(x) for x in center)
        terms.append((ExactComplex(re, im), Ball(PAdicVector(coords, ctx), radius)))
    depth = _digit_depth(terms, p)
    if depth > MAX_INPUT_DEPTH:
        raise FunctionFormatError(
            f"the terms span {depth} p-adic digits, over the {MAX_INPUT_DEPTH} accepted"
        )
    return BruhatSchwartzFunction(ctx, tuple(terms)).canonicalize()
