"""Test functions on Q_p^n: finite complex combinations of ball indicators.

A locally constant, compactly supported function is stored in canonical
form: the unique coarsest partition of a covering ball into sub-balls on
which the function is constant, its cells.  The function is its
``DigitTrie``: one node per ball on which it is not constant, and at each
leaf the function's value on the leaf's ball.  A term list given to the
constructor is put in canonical form there.  Every trie is built by one
walk (``_combine_tries``) that follows one digit path in the tries of all
its parts at once and closes each node bottom-up, merging constant siblings
(``_close_node``), but for a reflection, which permutes each node's
children (``reflect``).  Sums, scalings and radial multipliers are one
``linear_combination`` of (m, f) pairs, m a weight or a multiplier, whose
parts are the tries of their functions; a raw term list is one part, its
terms inserted down their digit paths into a trie of the same shape
(``_raw_part``).  A path is read off the integers of its center, the
numerator and the p-free part of the denominator of each coordinate, with
no center reduced (``_digit_indices``), and the reader (``read_object``)
hands the integers of its text straight to ``_raw_part``.  No walk builds a
ball: the cells as (coefficient, ball) terms, ``terms``, are built on first
read by one post-order walk (``_cells``) that turns each leaf's digit path
into its ball's integer center U / p**R (``_cell_ball``).

Queries read the trie too, never the cells: ``evaluate`` walks one path,
down the digits of the point, and ``ball_integral`` the path of the
region's center; ``integral``, the norms and the tests of zero, reality and
exactness fold the leaves in cell order; the L2 pairing walks two tries in
lockstep; the pairing of a radial multiplier's output with its input is a
Haar energy (``haar_energy``) summed from the cells and node means of the
one post-order walk that also gives a multiplier its depth and node shares
(``_node_sums``); and the values of one function on chosen leaves of
another's trie are read in one lockstep walk (``read_leaves``).  All
structural operations (integrals, inner products, energies, suprema) are
exact on rational coefficients.
"""
from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, product as digit_product
from typing import Optional, Sequence, Union

from padic_bessel.padic import (
    EC_ZERO,
    Ball,
    ExactComplex,
    FrozenValue,
    Number,
    PAdicVector,
    PrimeContext,
    _int_valuation,
    check_context,
    is_prime,
)

Term = tuple  # (ExactComplex, Ball)


class FunctionFormatError(ValueError):
    """Serialized test-function text violates the schema."""


class Supremum(FrozenValue):
    """Result of a supremum query over all of Q_p^n.

    ``cell`` is a ball on which the maximum is attained, or None when the
    supremum is 0 and is attained off the support (every compactly supported
    function vanishes near infinity, so 0 always competes).  Immutable; ==
    and hash compare (value, cell).
    """

    _fields = ("value", "cell")

    def __init__(self, value: Number, cell: Optional[Ball]) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "cell", cell)


class DigitTrie(FrozenValue):
    """The canonical partition as a tree of p-adic digits.

    ``root`` stands for the ball B(0, p**radius).  A node is a list of its
    p**n children in the digit order of ``itertools.product(range(p),
    repeat=n)``; a child is a node, a leaf, or None where the function is
    0.  A leaf is the function's nonzero value (an ``ExactComplex``) on the
    child's ball, one cell of its canonical form.  The nodes are the balls
    on which the function is not constant.  The root itself is a node, the
    value on the one cell B(0, p**radius), or None for the zero function.
    A child with digits d of a node at radius s whose center is U /
    p**radius (U an integer vector) has the center (U + d * p**(radius -
    s)) / p**radius.  radius is the least R >= 0 with the support in
    B(0, p**R).  Immutable; == and hash compare (radius, root).
    """

    _fields = ("radius", "root")

    def __init__(self, radius: int, root: object) -> None:
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "root", root)

    def zero_descendant(self, radius: int):
        """The node at B(0, p**radius), radius <= self.radius, down the zero
        digits; or the leaf above it that covers it."""
        kid = self.root
        for _ in range(self.radius - radius):
            if type(kid) is not list:
                break
            kid = kid[0]
        return kid


class BruhatSchwartzFunction(FrozenValue):
    """A test function in canonical form: its digit trie, and its cells as
    (coefficient, ball) terms.

    ``BruhatSchwartzFunction(ctx, terms)`` takes any term list and puts it
    in canonical form: the terms are inserted down their digit paths into a
    trie rooted at a ball around 0 covering every term (``_raw_part``), and
    one walk of it carries the accumulated value of each path down and
    merges the sibling groups that agree back into their parent
    (``_combine_tries``).  The walks that build a canonical trie hand it
    over as ``trie``.  ``terms`` is built from the trie the first time it is
    read, in cell order, a node's cells after those of the nodes below it
    (``_cells``); no query builds it.  So == and hash compare functions,
    not the way their terms were written.  Immutable; == and hash compare
    (ctx, terms): the trie never enters ==, repr or hash.
    """

    _fields = ("ctx", "terms")

    def __init__(self, ctx: PrimeContext, terms: Sequence[tuple] = (), *, trie: Optional[DigitTrie] = None):
        """The function of ``terms``, or of ``trie``, a canonical trie."""
        if trie is None:
            trie = _combine_tries(ctx, [_raw_part(terms, ctx)])
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "trie", trie)

    @cached_property
    def terms(self) -> tuple:
        """The cells as (coefficient, ball) terms, in cell order."""
        root_scale = self.ctx.p**self.trie.radius
        return tuple((c, _cell_ball(self.ctx, root_scale, r, at)) for c, r, at in _cells(self.trie, self.ctx))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: PrimeContext) -> "BruhatSchwartzFunction":
        return cls(ctx, trie=DigitTrie(0, None))

    @classmethod
    def indicator(cls, ball: Ball, coeff: Union[Number, ExactComplex] = 1) -> "BruhatSchwartzFunction":
        c = coeff if isinstance(coeff, ExactComplex) else ExactComplex(coeff, 0)
        return cls(ball.ctx, ((c, ball),))

    @classmethod
    def unit_ball(cls, ctx: PrimeContext) -> "BruhatSchwartzFunction":
        """The indicator of Z_p^n (the reproducing test function)."""
        return cls.indicator(Ball(PAdicVector.zero(ctx), 0))

    # -- pointwise structure ----------------------------------------------

    def evaluate(self, x: PAdicVector) -> ExactComplex:
        """Value at x, read off one path of the digit trie: x * p**R has
        its digits from one modular inverse of the p-free part of each
        denominator (``_digit_indices``), and a point outside B(0, p**R)
        reads 0.  O(trie depth)."""
        check_context(x.ctx, self.ctx)
        trie = self.trie
        node = trie.root
        if node is None:
            return EC_ZERO
        indices = _digit_indices([(c.numerator, c.denominator) for c in x.coords], trie.radius, self.ctx.p)
        if indices is None:
            return EC_ZERO
        while type(node) is list:
            node = node[next(indices)]
        return EC_ZERO if node is None else node

    @property
    def is_zero(self) -> bool:
        return self.trie.root is None

    @property
    def is_real(self) -> bool:
        return all(c.im == 0 for c, _, _ in _cells(self.trie, self.ctx))

    @property
    def is_exact(self) -> bool:
        return all(c.is_exact for c, _, _ in _cells(self.trie, self.ctx))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "BruhatSchwartzFunction") -> "BruhatSchwartzFunction":
        return linear_combination([(1, self), (1, other)])

    def __sub__(self, other: "BruhatSchwartzFunction") -> "BruhatSchwartzFunction":
        return linear_combination([(1, self), (-1, other)])

    def __neg__(self) -> "BruhatSchwartzFunction":
        return self.scale(-1)

    def scale(self, factor: Union[Number, ExactComplex]) -> "BruhatSchwartzFunction":
        return linear_combination([(factor, self)])

    def reflect(self) -> "BruhatSchwartzFunction":
        """The function x -> f(-x), as one walk of the trie with no ball
        built.  A path down the trie reads the digits of x * p**R, least
        significant first, and each coordinate of -x keeps the zero digits
        of x up to its first nonzero digit d, which becomes p - d, while
        every later digit d becomes p - 1 - d.  So each node's children are
        permuted by its coordinates' borrows (``_negated_children``), and
        the leaf values and the root radius are kept."""
        top = self.trie.root
        if type(top) is not list:  # 0, or one cell on B(0, p**R)
            return self
        p, n = self.ctx.p, self.ctx.n
        out = [None] * len(top)
        stack = [(top, 0, out)]
        while stack:
            node, borrows, new = stack.pop()
            for kid, (i, kid_borrows) in zip(node, _negated_children(p, n, borrows)):
                if type(kid) is list:
                    new[i] = [None] * len(kid)
                    stack.append((kid, kid_borrows, new[i]))
                else:
                    new[i] = kid
        return BruhatSchwartzFunction(self.ctx, trie=DigitTrie(self.trie.radius, out))

    # -- canonical form ----------------------------------------------------

    def canonicalize(self) -> "BruhatSchwartzFunction":
        """The function itself: every function is built in canonical form,
        on pairwise-disjoint maximal constant balls."""
        return self

    # -- integration -------------------------------------------------------

    def integral(self) -> ExactComplex:
        """Haar integral: sum of coefficient * ball measure over the cells."""
        power, n = self.ctx.p_power, self.ctx.n
        total = EC_ZERO
        for c, r, _ in _cells(self.trie, self.ctx):
            total = total + c * power(r * n)
        return total

    def ball_integral(self, region: Ball) -> ExactComplex:
        """Integral of f over an arbitrary ball, read off the digit trie.

        A region that holds B(0, p**R) gets the whole integral and one that
        misses it 0; any other region is found by walking its center's
        digits down to its radius.  A cell met on the way covers the region,
        which then has c * measure, and a node reached at the region's
        radius is the region, whose integral is its cells' masses.
        """
        check_context(region.ctx, self.ctx)
        trie = self.trie
        node = trie.root
        s = region.radius_exp
        coords = [(c.numerator, c.denominator) for c in region.center.coords]
        indices = _digit_indices(coords, max(s, trie.radius), self.ctx.p)
        if node is None or indices is None:
            return EC_ZERO
        if s >= trie.radius:  # the region holds B(0, p**R)
            if type(node) is list:
                return _node_integral(node, trie.radius, self.ctx)
            return node * self.ctx.p_power(trie.radius * self.ctx.n)
        for _ in range(trie.radius - s):
            if type(node) is not list:
                break
            node = node[next(indices)]
        if node is None:
            return EC_ZERO
        return _node_integral(node, s, self.ctx) if type(node) is list else node * region.measure

    def inner_product(self, other: "BruhatSchwartzFunction") -> ExactComplex:
        """L2 pairing <f, g> = integral of f * conj(g).

        The two digit tries are walked in lockstep.  Both roots are balls
        around 0, so the smaller one is the zero-digit descendant of the
        larger, where the walk starts.  Two leaves over one ball pair as
        c * conj(d) * measure, and a leaf over a node pairs with the
        node's integral, so the cost is linear in trie nodes.  The walk is
        post-order, as canonical form lists its cells, so the self-pairing
        adds its terms in cell order.
        """
        check_context(self.ctx, other.ctx)
        f, g = self.trie, other.trie
        radius = min(f.radius, g.radius)
        n = self.ctx.n
        total = EC_ZERO
        # a frame is [child pairs, radius of the children, next pair]; pairs
        # of nodes are walked first, the other pairs when the frame ends
        stack = []
        frame = [[(f.zero_descendant(radius), g.zero_descendant(radius))], radius, 0]
        while True:
            kids, radius, i = frame
            if i < len(kids):
                frame[2] = i + 1
                a, b = kids[i]
                if type(a) is list and type(b) is list:
                    stack.append(frame)
                    frame = [list(zip(a, b)), radius - 1, 0]
                continue
            for a, b in kids:
                if a is None or b is None:
                    continue
                if type(a) is list:
                    if type(b) is not list:
                        total = total + _node_integral(a, radius, self.ctx) * b.conjugate()
                elif type(b) is list:
                    total = total + a * _node_integral(b, radius, self.ctx).conjugate()
                else:
                    total = total + a * b.conjugate() * self.ctx.p_power(radius * n)
            if not stack:
                return total
            frame = stack.pop()

    def l2_norm(self) -> float:
        """sqrt(Re <f, f>): canonical cells are disjoint, so the square is
        the sum of |c|^2 * measure over them, linear in cells.

        An exact square past the float range has its root taken exactly
        (``root_of_square``).  A float square that overflows is summed
        again with each |c| divided by the largest, and that largest |c|
        multiplies the root; the result is inf only where the norm itself
        is past the float range.

        A float |c|^2 times a measure is |c|^2 * float(measure), as
        ``Fraction`` computes it, so each radius has its float measure taken
        once; ``sum`` then adds the products from the int 0, as it always
        did.  The cells are read off the trie, in cell order.
        """
        power, n = self.ctx.p_power, self.ctx.n
        floats = {}  # radius exponent -> float measure of its balls
        products = []
        try:
            for c, r, _ in _cells(self.trie, self.ctx):
                square = c.abs2()
                if type(square) is float:
                    measure = floats.get(r)
                    if measure is None:
                        measure = floats[r] = float(power(r * n))
                    products.append(square * measure)
                else:
                    products.append(square * power(r * n))
            total = sum(products, 0)
        except OverflowError:  # a float square times a measure past the float range
            total = math.inf
        root = root_of_square(total)
        if root == math.inf and isinstance(total, float):
            cells = [(c, r) for c, r, _ in _cells(self.trie, self.ctx)]
            top = max(abs(c) for c, _ in cells)
            if math.isfinite(top):
                scaled = sum((Fraction((abs(c) / top) ** 2) * power(r * n) for c, r in cells), Fraction(0))
                root = top * root_of_square(scaled)
        return root

    def sup_norm(self) -> float:
        return max((abs(c) for c, _, _ in _cells(self.trie, self.ctx)), default=0.0)

    # -- suprema -----------------------------------------------------------

    def sup_and_argmax(self) -> Supremum:
        """Supremum over Q_p^n of a real-valued function, with a witness.

        The value 0 is always attained outside the (compact) support, so the
        supremum is max(0, cell values); when it is 0 the witness cell is
        None, marking the off-support region.  Only the witness's ball is
        built.
        """
        if not self.is_real:
            raise ValueError("sup_and_argmax requires a real-valued function")
        best, best_cell = EC_ZERO, None
        for c, r, at in _cells(self.trie, self.ctx):
            if _real_part_above(c, best):
                best, best_cell = c, (r, at)
        if best_cell is not None:
            best_cell = _cell_ball(self.ctx, self.ctx.p**self.trie.radius, *best_cell)
        return Supremum(best.re, best_cell)


def _real_part_above(x: ExactComplex, y: ExactComplex) -> bool:
    """Re x > Re y, exactly: two exact values compare a1 * d2 > a2 * d1."""
    gx, gy = x.gaussian, y.gaussian
    if gx is None or gy is None:
        return x.re > y.re
    return gx[0] * gy[2] > gy[0] * gx[2]


@lru_cache(maxsize=64)
def _digit_tuples(p: int, n: int) -> tuple:
    """The p**n digit tuples, in the order of a trie node's children."""
    return tuple(digit_product(range(p), repeat=n))


@lru_cache(maxsize=1024)
def _negated_children(p: int, n: int, borrows: int) -> tuple:
    """Per child of a trie node, in digit order: the index of the child
    that holds the negated points, and the borrows below it.  Bit j of
    ``borrows`` is set when coordinate j has a nonzero digit above the
    node; negation then takes its digit d to p - 1 - d, and otherwise to
    (p - d) mod p."""
    out = []
    for digits in _digit_tuples(p, n):
        index, below = 0, borrows
        for j, d in enumerate(digits):
            index = index * p + (-d - (borrows >> j & 1)) % p
            if d:
                below |= 1 << j
        out.append((index, below))
    return tuple(out)


def _raw_part(terms: Sequence[tuple], ctx: PrimeContext) -> tuple:
    """A list of terms as the part (trie, (1,), node shares) whose
    ``_combine_tries`` walk is its canonical form.

    A term is (coefficient, ball), the ball a ``Ball`` or, as the reader
    gives it (``read_object``), (coords, radius_exp) with coords the
    integer (num, den) pairs of its center in lowest terms, den > 0.  The
    trie, rooted at B(0, p**R), has the ``DigitTrie`` shape but is not
    merged, and its leaves may be 0.  Each nonzero term goes down one level
    per digit and adds its coefficient, in order, to the leaf of its ball
    or to the share of the node there; a leaf met on the way down becomes a
    node whose share is the leaf's value.  A point's value is then the sum
    of the shares and the leaf on its path.

    R is the least R >= 0 with every radius r <= R and -v(x) <= R for each
    coordinate x (which only binds where v(x) < -r), so the valuations of
    the denominators decide it and no center is reduced.  The ball's path
    is then the first R - r digits of its center times p**R
    (``_digit_indices``).  Terms in the reader's form that span more than
    MAX_INPUT_DEPTH digits, R less the smallest radius (or 0), are refused
    before any path is walked."""
    p = ctx.p
    width = len(_digit_tuples(p, ctx.n))
    cells = []  # per nonzero term: (coefficient, radius, center as (num, den) pairs)
    root_r = low = 0
    bounded = False
    for c, ball in terms:
        if c.is_zero():  # before any valuation: a zero term's ball may be too deep to reduce
            continue
        if type(ball) is Ball:
            r = ball.radius_exp
            coords = [(x.numerator, x.denominator) for x in ball.center.coords]
        else:
            coords, r = ball
            bounded = True
        for _, den in coords:
            w = 0 if den % p else _int_valuation(den, p)
            if w > root_r:
                root_r = w
        if r > root_r:
            root_r = r
        if r < low:
            low = r
        cells.append((c, r, coords))
    if bounded and root_r - low > MAX_INPUT_DEPTH:
        raise FunctionFormatError(f"the terms span {root_r - low} p-adic digits, over the {MAX_INPUT_DEPTH} accepted")

    top, shares = [None], {}  # the root, as the one child of a holder
    for c, r, coords in cells:
        node, i = top, 0
        for j in islice(_digit_indices(coords, root_r, p), root_r - r):
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
            shares[id(kid)] = c if share is EC_ZERO else share + c  # never adding the untouched EC_ZERO
        else:
            node[i] = kid + c
    return DigitTrie(root_r, top[0]), (1,), shares


def _canonical_trie(top, root_r: int) -> DigitTrie:
    """The canonical trie whose root B(0, p**root_r) closed as ``top``
    (``_close_node``)."""
    # a root that holds only its zero child stands for B(0, p**(root_r - 1)),
    # so a sum that cancels its widest part leaves no stale radius behind
    while root_r > 0 and type(top) is list and top[0] is not None and top.count(None) == len(top) - 1:
        top = top[0]
        root_r -= 1
    if type(top) is not list and top.is_zero():
        return DigitTrie(0, None)
    return DigitTrie(root_r, top)


def _close_node(results):
    """Close one node of ``_combine_tries``' walk.

    ``results`` has one entry per child, in digit order: the value of a
    child on which the function is constant, or the trie node of one on
    which it is not.  Children that all hold one value merge into that
    value; otherwise the node is returned, a zero value as None.
    """
    first = results[0]
    if type(first) is not list:
        for r in results:
            if type(r) is list or r != first:
                break
        else:
            return first
    return [None if type(r) is not list and r.is_zero() else r for r in results]


def _cells(trie: DigitTrie, ctx: PrimeContext):
    """(c, r, at) for each cell of the trie, in cell order: c its value, r
    the radius exponent of its ball, at where the ball lies (``_cell_ball``).

    One post-order walk: a node's cells come after those of the nodes below
    it, its child nodes in digit order and then its leaves in digit order.
    at is (U, scale, digits) for the leaf with digits of a node whose
    center is U / p**R and whose children lie scale = p**(R - s) apart, s
    the node's radius exponent; a root that is a leaf is at U = digits = 0.
    """
    top = trie.root
    if type(top) is not list:
        if top is not None:
            yield top, trie.radius, ((0,) * ctx.n, 1, (0,) * ctx.n)
        return
    p = ctx.p
    all_digits = _digit_tuples(p, ctx.n)
    # a frame is [trie node, integer center coords U, radius, integer digit
    # scale, next child]
    stack = [[top, (0,) * ctx.n, trie.radius, 1, 0]]
    while stack:
        frame = stack[-1]
        node, units, radius, scale, i = frame
        for i in range(i, len(node)):
            kid = node[i]
            if type(kid) is list:
                frame[4] = i + 1
                child_units = tuple(u + d * scale for u, d in zip(units, all_digits[i]))
                stack.append([kid, child_units, radius - 1, scale * p, 0])
                break
        else:
            stack.pop()
            for kid, digits in zip(node, all_digits):
                if kid is not None and type(kid) is not list:
                    yield kid, radius - 1, (units, scale, digits)


def _cell_ball(ctx: PrimeContext, root_scale: int, r: int, at) -> Ball:
    """The ball of radius p**r of a cell that ``_cells`` places at ``at``,
    in a trie whose root has radius p**R, root_scale = p**R: the one place
    a cell's ball is built."""
    units, scale, digits = at
    coords = tuple(Fraction(u + d * scale, root_scale) for u, d in zip(units, digits))
    return Ball(PAdicVector(coords, ctx), r)


def cell_count(f: BruhatSchwartzFunction) -> int:
    """The number of cells of f: the leaves of its trie, counted with no
    ball built."""
    top = f.trie.root
    if type(top) is not list:
        return 0 if top is None else 1
    count, stack = 0, [top]
    while stack:
        for kid in stack.pop():
            if type(kid) is list:
                stack.append(kid)
            elif kid is not None:
                count += 1
    return count


def smallest_cell_radius(f: BruhatSchwartzFunction) -> int:
    """The radius exponent of f's smallest cells, read off its trie with no
    ball built: one less than that of its deepest node, each of whose
    children is a cell or 0.  The root's radius when the root is a leaf or
    f is 0."""
    trie = f.trie
    low = trie.radius
    stack = [(trie.root, trie.radius)] if type(trie.root) is list else []
    while stack:
        node, radius = stack.pop()
        low = min(low, radius - 1)
        stack.extend((kid, radius - 1) for kid in node if type(kid) is list)
    return low


def support_radius(f: BruhatSchwartzFunction) -> int:
    """The least R >= 0 with f zero outside B(0, p**R)."""
    return f.trie.radius


def zero_on_unit_ball(f: BruhatSchwartzFunction) -> bool:
    """Whether f is 0 on all of Z_p^n."""
    return f.trie.zero_descendant(0) is None


def _node_integral(node: list, radius: int, ctx: PrimeContext) -> ExactComplex:
    """Haar integral over a trie node of radius p**radius: the sum of its
    cells' masses."""
    power, n = ctx.p_power, ctx.n
    total = EC_ZERO
    stack = [(node, radius)]
    while stack:
        node, radius = stack.pop()
        for kid in node:
            if type(kid) is list:
                stack.append((kid, radius - 1))
            elif kid is not None:
                total = total + kid * power((radius - 1) * n)
    return total


def _digit_indices(coords, radius: int, p: int):
    """The child indices of a point's path down the digit trie from B(0,
    p**radius), radius >= 0, one per level as an endless iterator; or None
    when the point lies outside that ball.  ``coords`` are the point's
    coordinates as integer (num, den) pairs in lowest terms, den > 0.

    Each coordinate times p**radius is a / b with b prime to p, an element
    of Z_p whose next digit is a * b**-1 mod p: the one modular inverse of
    the p-free part of its denominator.  Subtracting the digit times b and
    dividing by p leaves the rest.  An index packs the n digits, the first
    coordinate's most significant, in the order of ``_digit_tuples``.
    """
    parts = []
    for a, den in coords:
        w = 0 if den % p else _int_valuation(den, p)
        if w > radius:
            return None
        b = den // p**w
        parts.append([a * p ** (radius - w), b, pow(b, -1, p)])
    return _path_indices(parts, p)


def _path_indices(parts: list, p: int):
    """The endless index iterator of ``_digit_indices`` over its [a, b,
    b**-1 mod p] parts."""
    while True:
        index = 0
        for part in parts:
            a, b, inverse = part
            d = a * inverse % p
            part[0] = (a - d * b) // p
            index = index * p + d
        yield index


def root_of_square(total: Number) -> float:
    """sqrt(max(0, total)) as a float, for a sum of squares.

    ``float(total)`` comes first, so a total in the float range gives the
    bits it always gave.  An exact total past that range is over 2**1024,
    so the integer square root of its integer part carries over 500 exact
    bits; it reads inf only where that root is past the float range too.
    """
    try:
        return math.sqrt(max(0.0, float(total)))
    except OverflowError:
        pass
    q = Fraction(total)
    try:
        return float(math.isqrt(q.numerator // q.denominator))
    except OverflowError:
        return math.inf


def haar_energy(f: BruhatSchwartzFunction, shells) -> Number:
    """<m(D) f, f> for a radial multiplier m, read off f's digit trie with
    no output built: ``shells(depth)`` gives the shell values m(0..depth)
    and the drops m(k) - m(k+1), k < depth, for the depth of f's smallest
    cells, as ``RadialMultiplier.shells`` does.

    m is diagonal in the Haar basis of the trie (``RadialMultiplier``), so
    the pairing is the sum over the nodes of m(level) times the squared L2
    norm of the node's detail, plus m(0) |mean|**2 times the root's measure.
    Summed by parts, each cell of radius p**r adds m(max(-r, 0)) |c|**2
    p**(rn), each node of radius p**s, s <= 0, adds its drop m(-s) -
    m(1 - s) times |mean|**2 p**(sn), and the other nodes add nothing; no
    term cancels another.  The cells, the node sums and the depth come from
    one post-order walk, the one that also gives a multiplier its node
    shares (``_node_sums``), and the squares are summed exactly per radius
    in the order the walk passes them, each sum weighted once, so the
    result is exact for exact shell values and coefficients, and linear in
    trie nodes times p**n.
    """
    cells: list = []
    nodes = _node_sums(f.trie, cells)
    values, drops = shells(_shell_depth(nodes))
    power = f.ctx.p_power
    n = f.ctx.n
    squares: dict = {}  # radius -> sum of |c|**2 over the cells of that radius
    for r, c in cells:
        squares[r] = squares.get(r, 0) + c.abs2()
    means: dict = {}  # radius -> sum of |sum of child means|**2 over the nodes
    for _, s, total, _ in nodes:
        means[s] = means.get(s, 0) + total.abs2()
    energy = 0
    for r, square in squares.items():
        energy = energy + values[max(-r, 0)] * (square * power(r * n))
    for s, square in means.items():
        energy = energy + drops[-s] * (square * power((s - 2) * n))
    return energy


def read_leaves(f: BruhatSchwartzFunction, g: BruhatSchwartzFunction, keep) -> list:
    """(x, g(x)) for the center x of each leaf of f's digit trie that
    ``keep(leaf, r)`` accepts, r the radius exponent of the leaf's ball: one
    walk of f's trie in lockstep with g's, for f and g over one context.

    A leaf is the value of a cell of f, or None where f is 0; a trie that
    is one cell or None is its own leaf, centered at 0.  Leaves come in
    canonical cell order, a node's leaves after those of the nodes below
    it.  Where g is constant on the leaf, as m(D) f is on every cell and
    zero ball of f, g's value is the one reached in the same step, so the
    walk is linear in f's trie nodes; elsewhere g is read at the center, on
    down the zero digits.  Only the centers of kept leaves are built.
    """
    ctx = f.ctx
    trie = f.trie
    radius = trie.radius
    width = len(_digit_tuples(ctx.p, ctx.n))
    g_trie = g.trie
    if radius <= g_trie.radius:
        g_top = g_trie.zero_descendant(radius)
    else:  # lifted to f's root, the rest of which g leaves at 0
        g_top = g_trie.root
        for _ in range(radius - g_trie.radius):
            g_top = None if g_top is None else [g_top] + [None] * (width - 1)
    out: list = []
    top = trie.root
    if type(top) is not list:
        if keep(top, radius):
            out.append((PAdicVector.zero(ctx), _value_at_center(g_top)))
        return out
    all_digits = _digit_tuples(ctx.p, ctx.n)
    root_scale = ctx.p**radius
    # a frame is [f node, g node or leaf, integer center coords U, radius,
    # integer digit scale, next child], the center being U / root_scale
    stack = [[top, g_top, (0,) * ctx.n, radius, 1, 0]]
    while stack:
        frame = stack[-1]
        node, g_node, units, radius, scale, i = frame
        for i in range(i, width):
            kid = node[i]
            if type(kid) is list:
                frame[5] = i + 1
                g_kid = g_node[i] if type(g_node) is list else g_node
                child_units = tuple(u + d * scale for u, d in zip(units, all_digits[i]))
                stack.append([kid, g_kid, child_units, radius - 1, scale * ctx.p, 0])
                break
        else:
            stack.pop()
            for i, kid in enumerate(node):
                if type(kid) is list or not keep(kid, radius - 1):
                    continue
                coords = tuple(Fraction(u + d * scale, root_scale) for u, d in zip(units, all_digits[i]))
                out.append((PAdicVector(coords, ctx), _value_at_center(g_node[i] if type(g_node) is list else g_node)))
    return out


def _value_at_center(kid) -> ExactComplex:
    """The value of a trie child at the center of its ball, whose digits
    below the ball are 0."""
    while type(kid) is list:
        kid = kid[0]
    return EC_ZERO if kid is None else kid


def _node_sums(trie: DigitTrie, cells: Optional[list] = None) -> list:
    """(node, s, total, mean) for each node of the trie of radius p**s,
    s <= 0, in post-order: total sums the node's cell values and child
    means in digit order, and mean = total / p**n is the mean of the
    function over the node's ball.  One post-order walk; it appends each
    cell it passes, a one-cell root too, to ``cells`` as (r, value), r the
    radius exponent of the cell's ball, in the order it passes them.  It is
    the one walk of f that a multiplier part (``linear_combination``) and a
    Haar energy (``haar_energy``) run, each reading its depth off the nodes
    (``_shell_depth``)."""
    top = trie.root
    if type(top) is not list:
        if top is not None and cells is not None:
            cells.append((trie.radius, top))
        return []
    out = []
    add_cell = None if cells is None else cells.append
    inv = Fraction(1, len(top))
    # a frame is [trie node, radius, next child, sum of the children's
    # values and means]; the sum is kept at radius <= 0
    stack = [[top, trie.radius, 0, EC_ZERO]]
    while stack:
        frame = stack[-1]
        node, radius, i, total = frame
        summing = radius <= 0
        for i in range(i, len(node)):
            kid = node[i]
            if type(kid) is list:
                frame[2], frame[3] = i + 1, total
                stack.append([kid, radius - 1, 0, EC_ZERO])
                break
            if kid is None:
                continue
            if add_cell:
                add_cell((radius - 1, kid))
            if summing:
                total = total + kid
        else:
            stack.pop()
            if summing:
                mean = total * inv
                out.append((node, radius, total, mean))
                if radius < 0:
                    stack[-1][3] = stack[-1][3] + mean
    return out


def _shell_depth(nodes: list) -> int:
    """The deepest shell m(D) reads on a trie whose ``_node_sums`` are
    ``nodes``: 1 - the smallest node radius exponent, so the smallest
    cells' shell, or 0 when no node has radius p**s, s <= 0."""
    return 1 - min(s for _, s, _, _ in nodes) if nodes else 0


def _combine_tries(ctx: PrimeContext, parts: Sequence[tuple]) -> DigitTrie:
    """The canonical trie of the function of (trie, values, shares) parts,
    each m(D) f for the trie of f: one pre-order walk down one digit path
    in every part's trie at once, from B(0, p**R), R the largest radius of
    a nonzero part, to which smaller tries are lifted down the zero digits.
    Each part holding a ball adds its share in pair order, folded from the
    untouched EC_ZERO: values[j] * c for a leaf of radius p**(-j) and value
    c (j clamped into values), shares[id(node)] for a node, or EC_ZERO
    where shares has none.  A multiplier's shares are its drops times means
    (``linear_combination``), a raw term list's its node coefficients
    (``_raw_part``); shares None, for a weight, stands for none, and then,
    as for a one-cell root, a zero product adds nothing.  A held ball gets
    its path's running value plus its shares, and a node is entered with
    that value, one loop for every ball whether one part is live there or
    several.  Linear in the parts' trie nodes times p**n.
    """
    width = len(_digit_tuples(ctx.p, ctx.n))
    root_r = 0
    for trie, _, _ in parts:
        if trie.radius > root_r and trie.root is not None:
            root_r = trie.radius
    running = EC_ZERO  # the root's shares
    # per part live at the root: (trie node, weight of its leaves, whether a
    # zero product adds nothing, values, last index, node shares)
    live = []
    for trie, values, shares in parts:
        top, lift = trie.root, root_r - trie.radius
        if top is None:
            continue
        if type(values[0]) is int and values == (1,):
            values = (None,)  # the int 1: its products are skipped, since they change no bits
        if type(top) is not list:  # one cell, on B(0, p**trie.radius)
            c = top if values[0] is None else top * values[0]
            if c.is_zero():  # adds nothing, but a lifted cell still leads the walk down its path
                top = [None] * width
            elif not lift:
                running = c if running is EC_ZERO else running + c
            if not lift:
                continue
        for _ in range(lift):
            top = [top] + [None] * (width - 1)
        skip, shares = shares is None, shares or {}
        share = shares.get(id(top), EC_ZERO)  # the root's
        if share is not EC_ZERO:
            running = share if running is EC_ZERO else running + share
        last = len(values) - 1
        live.append((top, values[min(max(1 - root_r, 0), last)], skip, values, last, shares))
    if not live:
        return _canonical_trie(running, root_r)
    # a frame is [parts live at its ball, radius, running value, results]
    stack = [[live, root_r, running, []]]
    while True:
        live, radius, running, results = stack[-1]
        for i in range(len(results), width):
            share, kids = EC_ZERO, None
            for node, weight, skip, values, last, shares in live:
                kid = node[i]
                if kid is None:
                    continue
                if type(kid) is list:
                    add = shares.get(id(kid), EC_ZERO)
                    entry = (kid, values[min(max(2 - radius, 0), last)], skip, values, last, shares)
                    if kids is None:
                        kids = [entry]
                    else:
                        kids.append(entry)
                else:
                    add = kid if weight is None else kid * weight
                    if skip and add.is_zero():
                        continue
                if add is not EC_ZERO:
                    share = add if share is EC_ZERO else share + add
            if kids is None and share is EC_ZERO:  # no part holds the ball
                results.append(running)
                continue
            value = share if running is EC_ZERO else running + share
            if kids is None:
                results.append(value)
                continue
            stack.append([kids, radius - 1, value, []])
            break
        else:
            stack.pop()
            top = _close_node(results)
            if not stack:
                return _canonical_trie(top, root_r)
            stack[-1][3].append(top)


def linear_combination(pairs: Sequence[tuple]) -> BruhatSchwartzFunction:
    """The sum of m f over (m, f) pairs, canonical and with its trie: one
    lockstep walk of the parts' tries (``_combine_tries``).  A weight m (a
    number or an ExactComplex) is the constant multiplier (m,); any other m
    is a radial multiplier, whose part is one node walk of f's trie
    (``_node_sums``): its depth picks the shell values and drops
    ``m.shells(depth)`` hands over, and each node's drop times its mean is
    the node's share."""
    if not pairs:
        raise ValueError("empty combination")
    ctx = pairs[0][1].ctx
    parts = []
    for m, f in pairs:
        check_context(f.ctx, ctx)
        # no isinstance test on numeric types: Fraction's metaclass is ABCMeta
        if hasattr(m, "shells"):
            check_context(m.ctx, ctx)
            nodes = _node_sums(f.trie)
            values, drops = m.shells(_shell_depth(nodes))
            parts.append((f.trie, values, {id(node): mean * drops[-s] for node, s, _, mean in nodes}))
        else:
            parts.append((f.trie, (m,), None))
    return BruhatSchwartzFunction(ctx, trie=_combine_tries(ctx, parts))


# -- random instances -------------------------------------------------------


# center numerators of random test functions lie in [-8, 8]
_NUM_BOUND = 8
# random coefficients are multiples of 1/16 in [-10, 10]
_COEFF_BOUND = 10
_COEFF_DENOMINATOR = 16


class RandomFunctionConfig(FrozenValue):
    """Bounds for the seeded test-function generator.

    Kept deliberately small by default: Fourier-side subdivision grows like
    p**(n * (radius span + denominator depth)), so wide centers at large p^n
    are expensive.  Hard caps: at most 8 terms, radius exponents within
    [-3, 3], center denominators at most p**4: the constructor refuses a
    bound that is not an int (a bool or a float) or lies outside its range,
    and a ``complex_coeffs`` that is not a bool.  Immutable; == and hash
    compare the five fields.
    """

    _fields = ("max_terms", "radius_min", "radius_max", "den_pow_max", "complex_coeffs")

    def __init__(
        self,
        max_terms: int = 3,
        radius_min: int = -1,
        radius_max: int = 1,
        den_pow_max: int = 1,
        complex_coeffs: bool = False,
    ) -> None:
        object.__setattr__(self, "max_terms", max_terms)
        object.__setattr__(self, "radius_min", radius_min)
        object.__setattr__(self, "radius_max", radius_max)
        object.__setattr__(self, "den_pow_max", den_pow_max)
        object.__setattr__(self, "complex_coeffs", complex_coeffs)
        for name in ("max_terms", "radius_min", "radius_max", "den_pow_max"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} = {getattr(self, name)!r} must be an integer")
        if type(complex_coeffs) is not bool:
            raise ValueError(f"complex_coeffs = {complex_coeffs!r} must be a bool")
        if not (1 <= self.max_terms <= 8):
            raise ValueError("max_terms must be in [1, 8]")
        if not (-3 <= self.radius_min <= self.radius_max <= 3):
            raise ValueError("radius exponents must lie in [-3, 3]")
        if not (0 <= self.den_pow_max <= 4):
            raise ValueError("den_pow_max must be in [0, 4]")


def random_test_function(
    seed: int, ctx: PrimeContext, config: RandomFunctionConfig = RandomFunctionConfig()
) -> BruhatSchwartzFunction:
    """Deterministic pseudo-random test function for property batteries."""
    rng = random.Random(seed)
    p = ctx.p
    terms = []
    n_terms = rng.randint(1, config.max_terms)
    bound, d = _COEFF_BOUND * _COEFF_DENOMINATOR, _COEFF_DENOMINATOR
    for _ in range(n_terms):
        r = rng.randint(config.radius_min, config.radius_max)
        coords = []
        for _ in range(ctx.n):
            num = rng.randint(-_NUM_BOUND, _NUM_BOUND)
            den = p ** rng.randint(0, config.den_pow_max)
            coords.append(Fraction(num, den))
        ball = Ball(PAdicVector(tuple(coords), ctx), r)
        re = rng.randint(-bound, bound)
        im = rng.randint(-bound, bound) if config.complex_coeffs else 0
        terms.append((ExactComplex.from_gaussian(re, im, d), ball))
    return BruhatSchwartzFunction(ctx, tuple(terms))


# -- serialization -----------------------------------------------------------


def _num_to_string(x: Number) -> str:
    """The text "num/den" in lowest terms, or "num"; a float as its exact
    value, from ``float.as_integer_ratio``, as ``Fraction(x)`` reads it."""
    if isinstance(x, float):
        return _ratio_to_string(*x.as_integer_ratio())
    return str(x)


def _ratio_to_string(a: int, d: int) -> str:
    """a / d as ``_num_to_string`` writes it, for integers a and d > 0."""
    g = math.gcd(a, d)
    return str(a // g) if g == d else f"{a // g}/{d // g}"


def _coeff_to_strings(c: ExactComplex) -> tuple:
    """The texts of re and im, read off the Gaussian triple when c is exact."""
    triple = c.gaussian
    if triple is None:
        return _num_to_string(c.re), _num_to_string(c.im)
    a, b, d = triple
    return _ratio_to_string(a, d), _ratio_to_string(b, d)


def serialize(f: BruhatSchwartzFunction) -> str:
    """Canonical JSON text; identical inputs serialize to identical bytes.

    The text is written directly, one %-format per term, as the bytes of
    ``json.dumps`` with separators (",", ":") of {"p", "n", "terms": [{"re",
    "im", "center", "radius_exp"}]}: every field is digits, "-" and "/", so
    nothing needs escaping.  The cells are read off the trie (``_cells``),
    each center coordinate written from its integer numerator over p**R,
    with no ball built.  An integer past Python's limit on integer text
    (``sys.get_int_max_str_digits()``) raises ValueError naming its field;
    the limit itself is left as it is.
    """
    root_scale = f.ctx.p**f.trie.radius
    terms = []
    for i, (c, r, (units, scale, digits)) in enumerate(_cells(f.trie, f.ctx)):
        try:
            re, im = _coeff_to_strings(c)
            center = '","'.join([_ratio_to_string(u + d * scale, root_scale) for u, d in zip(units, digits)])
        except ValueError:
            error = _digit_limit_error(i, c, _cell_ball(f.ctx, root_scale, r, (units, scale, digits)))
            if error is None:
                raise
            raise error from None
        terms.append('{"re":"%s","im":"%s","center":["%s"],"radius_exp":%d}' % (re, im, center, r))
    return '{"p":%d,"n":%d,"terms":[%s]}' % (f.ctx.p, f.ctx.n, ",".join(terms))


def _decimal_digits(m: int) -> int:
    """Decimal digits of |m|, counted without converting it to text."""
    m = abs(m)
    k = max(1, int(m.bit_length() * math.log10(2)))  # then corrected
    while m >= 10**k:
        k += 1
    while k > 1 and m < 10 ** (k - 1):
        k -= 1
    return k


def _digit_limit_error(index: int, c: ExactComplex, ball: Ball) -> Optional[ValueError]:
    """A ValueError naming the first exact field of a term with an integer
    over the limit on integer text, or None when no field has one."""
    limit = sys.get_int_max_str_digits()
    fields = [("re", c.re), ("im", c.im)] + [(f"center[{j}]", x) for j, x in enumerate(ball.center.coords)]
    for name, x in fields:
        if isinstance(x, float):
            continue
        digits = max(_decimal_digits(x.numerator), _decimal_digits(x.denominator))
        if digits > limit:
            return ValueError(
                f"term {index} field {name!r} has a {digits}-digit integer, over the limit of "
                f"{limit} digits for integer text (sys.get_int_max_str_digits())"
            )
    return None


# "num/den" or "num": Fraction alone would also read "1e-99999999", whose
# denominator takes minutes to build
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

#: the deepest input ``deserialize`` reads: canonical form walks one trie
#: level per p-adic digit, from its root radius (at least 0, each radius and
#: each center denominator exponent) down to the smallest radius, or 0
MAX_INPUT_DEPTH = 10_000

#: the most canonical cells ``deserialize`` reads, and the most cells the
#: ``fourier`` command expands by default: about 3.5 s of ``fourier`` at
#: p = 2, n = 1
MAX_CELLS = 2**16

#: the most digit tuples p**n a space may have: canonical form lists all of
#: them at every node of its trie, and one trial of ``verify all`` took 18 s
#: at p**n = 2**8
MAX_DIGIT_TUPLES = 2**8


def too_many_digit_tuples(p: int, n: int) -> bool:
    """Whether p**n is over MAX_DIGIT_TUPLES, decided without building p**n."""
    return p ** min(n, MAX_DIGIT_TUPLES.bit_length()) > MAX_DIGIT_TUPLES


def _parse_rational(s) -> tuple:
    """(num, den) of a "num" or "num/den" field, den > 0, as the integers
    of its text."""
    if not isinstance(s, str):
        raise FunctionFormatError(f"rational fields must be strings, got {s!r}")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise FunctionFormatError(f"malformed rational {s!r}")
    num, den = match.groups()
    try:  # the text matched, so only the limit on integer text refuses it
        num, den = int(num), int(den or 1)
    except ValueError:
        digits = max(len(num.lstrip("+-")), len(den or ""))
        raise FunctionFormatError(
            f"a rational has a {digits}-digit integer, over the limit of "
            f"{sys.get_int_max_str_digits()} digits for integer text (sys.get_int_max_str_digits())"
        ) from None
    if den == 0:
        raise FunctionFormatError(f"malformed rational {s!r}")
    return num, den


def deserialize(text: str) -> BruhatSchwartzFunction:
    """Parse the JSON schema back into a canonical function."""
    return read_object(load_json(text))[1]()


def load_json(text: str) -> object:
    """JSON text as Python objects, for ``read_object``.  Text nested too
    deeply for the decoder is malformed too."""
    import json

    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FunctionFormatError(f"malformed JSON: {exc}") from exc


def read_object(obj: object) -> tuple:
    """Every check of ``deserialize`` on a parsed function: its
    PrimeContext and the call that gives the function.

    Each center goes to ``_raw_part`` as the integers of its text, reduced
    by one gcd, and one walk gives the canonical trie: no ``Fraction``,
    point or ball is built, so the cells over MAX_CELLS are counted on the
    trie's leaves (``cell_count``) before any is built."""
    if not isinstance(obj, dict):
        raise FunctionFormatError("top level must be an object")
    # type(), not isinstance: JSON true is a bool, which isinstance takes for 1
    p, n = obj.get("p"), obj.get("n")
    if type(p) is not int or p < 2:
        raise FunctionFormatError(f"p = {p!r} is not a prime integer")
    if type(n) is not int or n < 1:
        raise FunctionFormatError(f"n = {n!r} is not a positive integer")
    if too_many_digit_tuples(p, n):  # before is_prime, which refuses a huge p
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
        re_num, re_den = _parse_rational(entry.get("re", "0"))
        im_num, im_den = _parse_rational(entry.get("im", "0"))
        center = entry.get("center")
        if not isinstance(center, list) or len(center) != n:
            raise FunctionFormatError(f"center must list {n} rationals")
        radius = entry.get("radius_exp")
        if type(radius) is not int:
            raise FunctionFormatError("radius_exp must be an integer")
        coords = []
        for x in center:
            num, den = _parse_rational(x)
            g = math.gcd(num, den)
            coords.append((num // g, den // g))
        coeff = ExactComplex.from_gaussian(re_num * im_den, im_num * re_den, re_den * im_den)
        terms.append((coeff, (coords, radius)))
    f = BruhatSchwartzFunction(ctx, terms)  # refuses terms deeper than MAX_INPUT_DEPTH
    cells = cell_count(f)
    if cells > MAX_CELLS:
        raise FunctionFormatError(f"the canonical form has {cells} cells, over the {MAX_CELLS} accepted")
    return ctx, lambda: f
