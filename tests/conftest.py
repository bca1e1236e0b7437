import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as digit_product
from pathlib import Path
from typing import Union

src = Path(__file__).resolve().parents[1] / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))

from padic_bessel.padic import (
    EC_ONE,
    EC_ZERO,
    ZERO_NORM,
    Ball,
    Number,
    PAdicVector,
    character_from_phase,
    shell_measure,
)
from padic_bessel import heat, schwartz
from padic_bessel.bessel import kernel_shells, kernel_value, padic_gamma, symbol_value
from padic_bessel.schwartz import BruhatSchwartzFunction
from padic_bessel.spectral import RadialProfile, _shifted, radial_transform


def digit_children(ball):
    """The p**n sub-balls of radius exponent r - 1 of a ball, in digit order.

    A canonical parent yields canonical children: the new digit sits at
    exactly the power the finer modulus exposes.
    """
    ctx = ball.ctx
    offset_scale = Fraction(ctx.p) ** (-ball.radius_exp)
    for digits in digit_product(range(ctx.p), repeat=ctx.n):
        coords = tuple(c + d * offset_scale for c, d in zip(ball.center.coords, digits))
        yield Ball(PAdicVector(coords, ctx), ball.radius_exp - 1)


# The arithmetic of ExactComplex as two exact-or-float parts, kept verbatim
# as the oracle of its Gaussian-rational form (tests/test_padic.py).
@dataclass(frozen=True, slots=True)
class ExactComplex:
    """Complex scalar whose parts stay exact rationals until an irrational
    constant (a character value, an exponential) forces them to float."""

    re: Number = 0
    im: Number = 0

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other: Union["ExactComplex", Number]) -> "ExactComplex":
        if isinstance(other, ExactComplex):
            return ExactComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return ExactComplex(self.re * other, self.im * other)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def abs2(self) -> Number:
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.sqrt(float(self.abs2()))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.re, float) and not isinstance(self.im, float)

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


# Queries and oracles that no module of the library reads, kept for the tests.


def count_balls(monkeypatch):
    """A list that gets one entry per ``Ball`` built until monkeypatch is
    undone: the positional arguments of the construction."""
    built = []
    init = Ball.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Ball, "__init__", counted)
    return built


def support_norm_exp(f):
    """Exponent L with supp(f) inside the ball of radius p**L at 0."""
    if not f.terms:
        return ZERO_NORM
    return max(max(ball.radius_exp, ball.center.norm_exp) for _, ball in f.terms)


def relation(ball, other):
    """How ball lies to other: one of 'disjoint', 'equal', 'contains',
    'inside'."""
    d = (ball.center - other.center).norm_exp
    if d > max(ball.radius_exp, other.radius_exp):
        return "disjoint"
    if ball.radius_exp == other.radius_exp:
        return "equal"
    return "contains" if ball.radius_exp > other.radius_exp else "inside"


def kernel_profile(order):
    """Kernel as a radial profile with exact geometric deep-shell pieces."""
    ctx = order.ctx
    alpha = order.alpha
    gamma = float(padic_gamma(alpha, ctx))
    p, n = ctx.p, ctx.n
    return RadialProfile(
        ctx=ctx,
        resid=lambda k: kernel_value(k, order),
        deep_pieces=((1.0 / gamma, alpha - n), (-(p ** (alpha - n)) / gamma, 0)),
    )


def kernel_partial_mass(gamma_max, order):
    """Mass of the shells down to ||x|| = p**(-gamma_max); increases to 1."""
    ctx = order.ctx
    total = 0.0
    for g, k in zip(range(gamma_max + 1), kernel_shells(order)):
        total += float(shell_measure(-g, ctx)) * k
    return total


def khat_defect(order, xi_norm_exp):
    """|shell-sum transform of the kernel - multiplier| at one frequency."""
    value = radial_transform(kernel_profile(order), xi_norm_exp)
    return abs(value - float(symbol_value(xi_norm_exp, order)))


def weak_pairing(t, phi, order):
    """Distributional pairing of the heat kernel's function part with phi.

    The function part is the inverse transform of
    ``heat.heat_kernel_multiplier``, and it is radial, so the pairing is
    that multiplier applied to phi on its digit trie and read at the
    origin.  The full kernel pairs to phi(0) plus this value and tends to
    phi(0) as t drops to 0.
    """
    heat._require_positive_time(t)
    return heat.heat_kernel_multiplier(t, order).apply(phi).evaluate(PAdicVector.zero(order.ctx))


# The cell scans that ``evaluate``, ``ball_integral``, the maximum-principle
# probes and ``pairing`` made before they read the digit trie, kept verbatim
# as their oracles.


def evaluate_by_scan(f, x):
    """Value at x: the sum of coefficients of the balls containing x."""
    total = EC_ZERO
    for c, ball in f.terms:
        if ball.contains(x):
            total = total + c
    return total


def ball_integral_by_scan(f, region):
    """Integral of f over an arbitrary ball (exact nested-or-disjoint cut)."""
    total = EC_ZERO
    for c, ball in f.terms:
        rel = relation(ball, region)
        if rel == "disjoint":
            continue
        smaller = ball if rel in ("inside", "equal") else region
        total = total + c * smaller.measure
    return total


def zeros_function_probes(f, sup):
    """The probe points of the maximum-principle check, built from the cell
    list: the argmax cells' centers, or the far point, the origin when the
    support misses the unit ball, and the cells of the canonical form of
    sum_U 1_U - sum_D 1_D (U the unit balls around the cells D of f with
    radius below 1)."""
    ctx = f.ctx
    if sup.cell is not None:
        return [ball.center for c, ball in f.terms if c.re == sup.value]
    level = support_norm_exp(f)
    outside_exp = (0 if level == ZERO_NORM else max(int(level), 0)) + 1
    coords = [Fraction(1, ctx.p**outside_exp)] + [Fraction(0)] * (ctx.n - 1)
    probes = [PAdicVector(tuple(coords), ctx)]
    unit = Ball(PAdicVector.zero(ctx), 0)
    if all(relation(ball, unit) == "disjoint" for _, ball in f.terms):
        probes.append(PAdicVector.zero(ctx))
    small = [ball for _, ball in f.terms if ball.radius_exp < 0]
    units = {Ball(ball.center, 0).canonical() for ball in small}
    zeros = BruhatSchwartzFunction(ctx, tuple((EC_ONE, u) for u in units) + tuple((-EC_ONE, d) for d in small))
    probes.extend(ball.center for _, ball in zeros.terms)
    return probes


# The term loops of the queries that fold the digit trie's leaves, as they
# read ``terms`` before, kept as their oracles.


def queries_by_terms(f):
    """{query: call} of f's leaf queries, each folded over ``f.terms``:
    is_zero, is_real, is_exact, integral, sup_norm, l2_norm and
    sup_and_argmax."""
    cells = f.terms

    def integral():
        total = EC_ZERO
        for c, ball in cells:
            total = total + c * ball.measure
        return total

    def sup_and_argmax():
        if not all(c.im == 0 for c, _ in cells):
            raise ValueError("sup_and_argmax requires a real-valued function")
        best, best_cell = EC_ZERO, None
        for c, ball in cells:
            if schwartz._real_part_above(c, best):
                best, best_cell = c, ball
        return schwartz.Supremum(best.re, best_cell)

    return {
        "is_zero": lambda: not cells,
        "is_real": lambda: all(c.im == 0 for c, _ in cells),
        "is_exact": lambda: all(c.is_exact for c, _ in cells),
        "integral": integral,
        "sup_norm": lambda: max((abs(c) for c, _ in cells), default=0.0),
        "l2_norm": lambda: l2_norm_by_terms(cells),
        "sup_and_argmax": sup_and_argmax,
    }


def l2_norm_by_terms(cells):
    """``l2_norm`` over (coefficient, ball) cells: each float |c|**2 times its
    radius's float measure, taken once, each exact one times the Fraction
    measure, added by ``sum`` from the int 0; an overflowing float sum is
    summed again with each |c| divided by the largest."""
    floats = {}
    products = []
    try:
        for c, ball in cells:
            square = c.abs2()
            if type(square) is float:
                measure = floats.get(ball.radius_exp)
                if measure is None:
                    measure = floats[ball.radius_exp] = float(ball.measure)
                products.append(square * measure)
            else:
                products.append(square * ball.measure)
        total = sum(products, 0)
    except OverflowError:
        total = math.inf
    root = schwartz.root_of_square(total)
    if root == math.inf and isinstance(total, float):
        top = max(abs(c) for c, _ in cells)
        if math.isfinite(top):
            scaled = sum((Fraction((abs(c) / top) ** 2) * ball.measure for c, ball in cells), Fraction(0))
            root = top * schwartz.root_of_square(scaled)
    return root


def pairing_by_pairs(left, right):
    """The closed-form pairing of two term lists, each pair's nesting and
    character tests made on the PAdicVector differences."""
    total = EC_ZERO
    for c1, phase1, eta1, ball1 in left:
        for c2, phase2, eta2, ball2 in right:
            r1, r2 = ball1.radius_exp, ball2.radius_exp
            if (ball1.center - ball2.center).norm_exp > max(r1, r2):
                continue  # disjoint
            inner = ball1 if r1 <= r2 else ball2
            s = inner.radius_exp
            zeta = eta1 - eta2
            if zeta.norm_exp > -s:
                continue  # a nontrivial character integrates to 0
            phase = _shifted(phase1 - phase2, zeta, inner.center)
            value = c1 * c2.conjugate() * inner.measure
            if phase % 1:
                value = value * character_from_phase(phase)
            total = total + value
    return total


# The subdivision-tree route of canonical form and of a sum, kept as the
# oracle of ``schwartz._combine_tries``: raw terms inserted node by node, or
# every part's trie grafted, into one dict tree, which ``merge_tree`` merges
# once.
def subdivision_tree(terms, ctx):
    """The subdivision tree of a list of (coefficient, ball) terms, and its
    root radius exponent root_r; canonical form merges it (``merge_tree``).

    A tree node is [coefficient, {digit index: child node}], the index that
    of the child's digit tuple in ``schwartz._digit_tuples``.  Each nonzero
    term goes down one level per digit and adds its coefficient, in order,
    to the node of its ball.  Canonical centers have p-power denominators at
    most p**root_r, so each center x gives the integer x * p**root_r, whose
    digits are the path."""
    p = ctx.p
    # zero terms go first: a zero term's ball may be too deep to reduce
    cells = [(c, b.canonical()) for c, b in terms if not c.is_zero()]
    root_r = max([0] + [ball.radius_exp for _, ball in cells])
    root_scale = p**root_r
    largest_den = max([1] + [x.denominator for _, ball in cells for x in ball.center.coords])
    while root_scale < largest_den:
        root_scale *= p
        root_r += 1

    root = [EC_ZERO, {}]
    for c, ball in cells:
        depth = root_r - ball.radius_exp
        # per level, least significant first, the index of the digit
        # tuple, whose first coordinate is the most significant digit
        path = [0] * depth
        for x in ball.center.coords:
            # the center lies in [0, p**-radius), so U = x * root_scale
            # has exactly depth digits
            u = x.numerator * (root_scale // x.denominator)
            for j in range(depth):
                u, d = divmod(u, p)
                path[j] = path[j] * p + d
        node = root
        for i in path:
            node = node[1].setdefault(i, [EC_ZERO, {}])
        add(node, c)
    return root, root_r


def merge_tree(ctx, root, root_r):
    """The canonical function of a subdivision tree rooted at B(0, p**root_r),
    with its trie.  A point's value is the sum of the coefficients on its
    digit path (``subdivision_tree``).  Post-order walk with an explicit
    stack, so the tree depth is not bounded by the recursion limit; a frame
    is [children, running value, results], results getting one entry per
    child in digit order (``schwartz._close_node``)."""
    width = len(schwartz._digit_tuples(ctx.p, ctx.n))
    top = root[0]
    stack = [[root[1], root[0], []]] if root[1] else []
    while stack:
        children, running, results = stack[-1]
        for i in range(len(results), width):
            child = children.get(i)
            if child is None:
                results.append(running)
                continue
            value = child[0] if running is EC_ZERO else running + child[0]
            if not child[1]:
                results.append(value)
                continue
            stack.append([child[1], value, []])
            break
        else:
            stack.pop()
            top = schwartz._close_node(results)
            if stack:
                stack[-1][2].append(top)
    return BruhatSchwartzFunction(ctx, trie=schwartz._canonical_trie(top, root_r))


def tree_canonical_form(ctx, terms):
    """The canonical form of a term list, canonical or not, by one
    subdivision tree and one merge."""
    return merge_tree(ctx, *subdivision_tree(terms, ctx))


# The raw-term route of ``schwartz._raw_part`` before it read integer digit
# paths: every ball reduced by ``Ball.canonical()`` and kept on its cell,
# kept as the oracle of the integer route and of the reader.
def canonical_raw_part(terms, ctx):
    """A list of (coefficient, ball) terms as the part (trie, (1,), node
    shares) whose ``_combine_tries`` walk is its canonical form.

    The trie, rooted at B(0, p**root_r), has the ``DigitTrie`` shape but is
    not merged.  Each nonzero term goes down one level per digit and adds
    its coefficient, in order, to the leaf of its ball or to the share of
    the node there; a leaf met on the way down becomes a node whose share
    is the leaf's value.
    Canonical centers have p-power denominators at most p**root_r, so each
    center x gives the integer x * p**root_r, whose digits are the path."""
    p = ctx.p
    width = len(schwartz._digit_tuples(p, ctx.n))
    # zero terms go first: a zero term's ball may be too deep to reduce
    cells = [(c, b.canonical()) for c, b in terms if not c.is_zero()]
    root_r = max([0] + [ball.radius_exp for _, ball in cells])
    root_scale = p**root_r
    largest_den = max([1] + [x.denominator for _, ball in cells for x in ball.center.coords])
    while root_scale < largest_den:
        root_scale *= p
        root_r += 1

    top, shares = [None], {}  # the root, as the one child of a holder
    for c, ball in cells:
        depth = root_r - ball.radius_exp
        # per level, least significant first, the index of the digit
        # tuple, whose first coordinate is the most significant digit
        path = [0] * depth
        for x in ball.center.coords:
            u = x.numerator * (root_scale // x.denominator)
            for j in range(depth):
                u, d = divmod(u, p)
                path[j] = path[j] * p + d
        node, i = top, 0
        for j in path:
            kid = node[i]
            if type(kid) is not list:
                node[i] = new = [None] * width
                if kid is not None:  # a leaf met on the way down
                    shares[id(new)] = kid
                kid = new
            node, i = kid, j
        kid = node[i]
        if kid is None:
            node[i] = c
        elif type(kid) is list:
            share = shares.get(id(kid), EC_ZERO)
            shares[id(kid)] = c if share is EC_ZERO else share + c
        else:
            node[i] = kid + c
    return schwartz.DigitTrie(root_r, top[0]), (1,), shares


def canonical_form_by_reduction(ctx, terms):
    """The canonical form of a term list by ``canonical_raw_part`` and one
    walk."""
    return BruhatSchwartzFunction(ctx, trie=schwartz._combine_tries(ctx, [canonical_raw_part(terms, ctx)]))


def deserialize_by_fractions(text):
    """``schwartz.deserialize`` as it read centers before the integer route:
    every check of ``read_object``, then one ``Fraction`` per coordinate and
    a ``Ball`` per term, reduced by ``canonical_raw_part``."""
    obj = json.loads(text)
    ctx = schwartz.read_object(obj)[0]
    terms = []
    for entry in obj["terms"]:
        re_num, re_den = schwartz._parse_rational(entry.get("re", "0"))
        im_num, im_den = schwartz._parse_rational(entry.get("im", "0"))
        coords = tuple(Fraction(*schwartz._parse_rational(x)) for x in entry["center"])
        coeff = schwartz.ExactComplex.from_gaussian(re_num * im_den, im_num * re_den, re_den * im_den)
        terms.append((coeff, Ball(PAdicVector(coords, ctx), entry["radius_exp"])))
    return canonical_form_by_reduction(ctx, terms)


def tree_combination(ctx, parts):
    """The sum of m(D) f over (f, values, drops) parts with f canonical, as
    one subdivision tree rooted at B(0, p**R), R >= 0 the largest radius of
    a nonzero part: one graft per part, then one merge."""
    root_r = max([0] + [f.trie.radius for f, _, _ in parts if f.trie.root is not None])
    root = [EC_ZERO, {}]
    for f, values, drops in parts:
        graft(root, root_r, f.trie, values, drops)
    return merge_tree(ctx, root, root_r)


def graft(root, root_r, trie, values, drops):
    """Add m(D) g to the subdivision tree rooted at B(0, p**root_r), g the
    function of a digit trie with trie.radius <= root_r.

    A cell of g of radius p**(-j) with value c adds values[j] * c to its
    node, j clamped into [0, len(values) - 1].  With drops, each trie node
    of radius p**(-k), k >= 0, also adds drops[k] times the mean of g over
    it; the means are summed in the same post-order walk.  Without drops,
    a zero product adds nothing.
    """
    top = trie.root
    if top is None:
        return
    node = root
    for _ in range(root_r - trie.radius):
        node = node[1].setdefault(0, [EC_ZERO, {}])
    if type(top) is not list:  # one cell, on B(0, p**trie.radius)
        c = top * values[0]
        if not c.is_zero():
            add(node, c)
        return
    last = len(values) - 1
    inv = Fraction(1, len(top))
    # a frame is [tree node, trie node, radius, next child, sum of the
    # children's values and means]; the sum is kept at radius <= 0 with drops
    stack = [[node, top, trie.radius, 0, EC_ZERO]]
    while stack:
        frame = stack[-1]
        node, trie_node, radius, i, total = frame
        children = node[1]
        weight = values[min(max(1 - radius, 0), last)]
        summing = drops is not None and radius <= 0
        for i in range(i, len(trie_node)):
            kid = trie_node[i]
            if type(kid) is list:
                frame[3], frame[4] = i + 1, total
                stack.append([children.setdefault(i, [EC_ZERO, {}]), kid, radius - 1, 0, EC_ZERO])
                break
            if kid is None:
                continue
            if summing:
                total = total + kid
            c = kid * weight
            if drops is None and c.is_zero():
                continue  # so f + 0.0 * g stays exact; a multiplier adds all
            child = children.get(i)
            if child is None:
                children[i] = [c, {}]
            else:
                add(child, c)
        else:
            stack.pop()
            if summing:
                mean = total * inv
                add(node, mean * drops[-radius])
                if radius < 0:
                    stack[-1][4] = stack[-1][4] + mean


def add(node, c):
    """Add c to a subdivision tree node, never adding the untouched EC_ZERO."""
    node[0] = c if node[0] is EC_ZERO else node[0] + c
