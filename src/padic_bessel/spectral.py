"""Fourier analysis on test functions and radial shell transforms.

Radial Fourier multipliers act on test functions through the Haar basis of
their digit tries (``RadialMultiplier``), never through characters: this
module derives the per-level scales (``RadialMultiplier.shells``), and
``schwartz.linear_combination`` applies them to the trie, which only
``schwartz`` walks, in one sum of (m, f) pairs with any other multiplied
or weighted functions.
The transform itself remains, as the oracle of that route and for its own
identities.  It works on lists of modulated balls
c * exp(2 pi i phase) * chi_p(eta . x) * 1_B(x) (``ModulatedTerm``), which
it maps one term in, one term out, with exact rational phases
(``fourier_terms``), and the same ``RadialMultiplier`` multiplies them term
by term (``radial_terms``); the L2 pairing of two lists is a closed form per
pair of terms (``pairing``), so neither Parseval nor F^-1 (m F f) needs
cells.  Only output is expanded into cells (``expand``): the modulation is
flattened into cells on which the character is constant, read off integer
digit vectors whose phases are integer residues, one character per distinct
phase.
The radial transform evaluates the Fourier integral of a norm-dependent
profile (``RadialProfile``, which a multiplier's ``profile`` gives) at one
finite frequency as a shell sum against exact character integrals, with the
infinitely many deep shells summed in closed form.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product as digit_product
from typing import Callable, NamedTuple, Optional

from padic_bessel.padic import (
    EC_ZERO,
    Ball,
    ExactComplex,
    FrozenValue,
    Number,
    PAdicVector,
    PrimeContext,
    _int_valuation,
    character_from_phase,
    fractional_part,
    reduce_mod_ball,
    shell_character_integral,
)
from padic_bessel.schwartz import BruhatSchwartzFunction, linear_combination


class DivergentTailError(ValueError):
    """The requested shell sum has no convergent tail."""


class RadialProfile(FrozenValue):
    """A function of the norm exponent m (the value at ||x||_p = p**m), the
    input of ``radial_transform`` and of ``multiply_radial``.  An operator's
    shell values are a ``RadialMultiplier``, whose ``profile`` reads them
    as one of these.

    ``resid(m)`` is the value at m.  A constant integrates to 0 against
    the character integrals of a shell sum, so a profile's limit drops out,
    but in floats only to the rounding of the largest terms; the heat
    kernel's transform therefore reads the multiplier expm1(-t * symbol),
    which tends to 0.

    ``deep_pieces`` gives resid on the deep shells m <= 0 as a sum
    of exact geometric terms A * p**(m*d) (each needs d + n > 0), which the
    transform sums in closed form.  Immutable; == and hash compare the four
    fields.
    """

    _fields = ("ctx", "resid", "deep_pieces", "constant_on_unit_ball")

    def __init__(
        self,
        ctx: PrimeContext,
        resid: Callable[[int], Number],
        deep_pieces: tuple = (),
        constant_on_unit_ball: bool = False,
    ) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "resid", resid)
        object.__setattr__(self, "deep_pieces", deep_pieces)
        object.__setattr__(self, "constant_on_unit_ball", constant_on_unit_ball)


#: the deepest shell whose value ``RadialMultiplier`` keeps, so that deep
#: inputs, whose exact values run to thousands of digits, cannot grow its table
SHELLS_CACHED = 64


class RadialMultiplier(FrozenValue):
    """A radial Fourier multiplier, applied on the Haar basis of the digit trie.

    ``value(k)`` is the multiplier m on the frequency shell ||xi|| = p**k for
    k >= 0; m is constant on the unit ball, so value(0) also covers every
    k < 0.  ``drop(k)``, when given, is m(k) - m(k+1) in a form that does not
    cancel; otherwise the difference of values is used.

    Take a function on a ball of radius p**s that is constant on the ball's
    p**n children and has mean 0 on the ball.  Its transform lives on the
    single shell ||xi|| = p**(1-s): it vanishes below that shell (mean 0)
    and above it (constant on the children).  So m scales such a detail by
    the one number m(max(1 - s, 0)), and node means at radius >= 1 by m(0):
    m is diagonal in the Haar basis of the canonical trie.  These details
    span Kozyrev's p-adic wavelets (S. V. Kozyrev, "Wavelet theory as p-adic
    spectral analysis", Izv. Math. 66, 2002).  Summed back down, the value
    of m(D) f on a cell of radius p**(-j) of f, j >= 0, with value c is

        sum_{k < j} (m(k) - m(k+1)) mean(f over its ancestor of radius p**(-k))
        + m(j) c,

    and m(0) c on a cell of radius p**r, r >= 0.  No character is ever
    evaluated, and exact shell values give exact output at every p.  So
    the multiplier hands over only its shell table (``shells``), and never
    reads a function: ``schwartz`` walks the trie.

    The multiplier keeps the values m(0..SHELLS_CACHED) and the drops
    between them once computed, so one multiplier applied many times builds
    its shell table once.  Immutable but for that table; == and hash
    compare (ctx, value, drop), and repr ignores the table too.
    """

    _fields = ("ctx", "value", "drop")

    def __init__(
        self,
        ctx: PrimeContext,
        value: Callable[[int], Number],
        drop: Optional[Callable[[int], Number]] = None,
    ) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "drop", drop)
        # (values, drops) of the shells 0..min(depth, SHELLS_CACHED) of the
        # deepest ``shells`` call so far, replaced whole, so a racing call
        # leaves a valid one
        object.__setattr__(self, "_table", None)

    def shells(self, depth: int) -> tuple:
        """(values, drops) for an input whose smallest cells have radius
        p**(-depth), depth >= 0, as ``schwartz.linear_combination`` applies
        them and ``schwartz.haar_energy`` sums them: the shell values
        m(0..depth) and the drops m(k) - m(k+1), k < depth, as new lists:
        copies from the table when it reaches depth, else computed and the
        shells down to SHELLS_CACHED kept, so deep inputs cannot grow it."""
        table = self._table
        if table is not None and len(table[0]) > depth:
            return table[0][: depth + 1], table[1][:depth]
        values = [self.value(k) for k in range(depth + 1)]
        if self.drop is None:
            drops = [values[k] - values[k + 1] for k in range(depth)]
        else:
            drops = [self.drop(k) for k in range(depth)]
        if table is None or len(table[0]) <= SHELLS_CACHED:
            table = (values[: SHELLS_CACHED + 1], drops[:SHELLS_CACHED])
            object.__setattr__(self, "_table", table)
        return values, drops

    def apply(self, f: BruhatSchwartzFunction) -> BruhatSchwartzFunction:
        """The function m(D) f, canonical, with its trie: the one-part
        ``linear_combination``, one node walk of f's trie for its depth and
        node shares, then one walk with ``shells``' scales that builds the
        output trie, closing each node as canonical form does, with no ball
        built.  Linear in trie nodes times p**n."""
        return linear_combination([(self, f)])

    def profile(self) -> RadialProfile:
        """The same shell values as a profile for ``radial_transform``:
        m(0) on every deep shell, as the one deep piece (m(0), 0)."""
        return RadialProfile(
            ctx=self.ctx,
            resid=lambda k: self.value(max(k, 0)),
            deep_pieces=((self.value(0), 0),),
            constant_on_unit_ball=True,
        )


class ModulatedTerm(NamedTuple):
    """The function coeff * exp(2 pi i phase) * chi_p(eta . x) * 1_ball(x).

    ``phase`` is an exact rational in [0, 1), ``eta`` the modulation.  The
    term's value does not depend on which center represents its ball.
    """

    coeff: ExactComplex
    phase: Fraction
    eta: PAdicVector
    ball: Ball


def _shifted(phase: Fraction, eta: PAdicVector, a: PAdicVector) -> Fraction:
    """phase + {eta . a}_p, reduced mod 1: the phase of chi_p(eta . a)."""
    if eta.is_zero or a.is_zero:
        return phase
    dot = sum((x * y for x, y in zip(eta.coords, a.coords)), Fraction(0))
    return (phase + fractional_part(dot, a.ctx.p)) % 1


def modulated_terms(f: BruhatSchwartzFunction) -> tuple:
    """The canonical cells of f as unmodulated terms with phase 0."""
    zero = PAdicVector.zero(f.ctx)
    return tuple(ModulatedTerm(c, Fraction(0), zero, ball) for c, ball in f.terms)


def fourier_terms(terms) -> tuple:
    """The transform of a term list, one term in and one term out.

    F[chi_p(eta . x) 1_{B(a, p**r)}](xi) = p**(rn) chi_p(eta . a)
    chi_p(xi . a) 1_{B(-eta, p**(-r))}(xi) (Vladimirov, Volovich and
    Zelenov, p-adic Analysis and Mathematical Physics, 1994, ch. VII): the
    phase gains {eta . a}_p exactly and the ball's center becomes the
    modulation.
    """
    out = []
    for c, phase, eta, ball in terms:
        a = ball.center
        r = ball.radius_exp
        ctx = ball.ctx
        dual = Ball(-eta, -r)
        out.append(ModulatedTerm(c * ctx.p_power(r * ctx.n), _shifted(phase, eta, a), a, dual))
    return tuple(out)


def inverse_fourier_terms(terms) -> tuple:
    """The inverse transform of a term list: the transform, then x -> -x."""
    return tuple(
        ModulatedTerm(c, phase, -eta, Ball(-ball.center, ball.radius_exp))
        for c, phase, eta, ball in fourier_terms(terms)
    )


def pairing(left, right) -> ExactComplex:
    """L2 pairing <F, G> of two term lists, in closed form per pair of terms.

    Two balls are nested or disjoint, so B1 and B2 meet in the smaller one,
    B(b, p**s), or not at all.  On it the integral of chi_p(zeta . x),
    zeta = eta1 - eta2, is p**(sn) chi_p(zeta . b) when ||zeta|| <= p**(-s)
    and 0 otherwise.  Exact whenever the summed phases are quarters.  Both
    tests are integer cross products of the coordinates' numerators and
    denominators, read once per term (``_valuations_at_least``), so zeta
    and the phase are built only for the pairs that pass.
    """
    right = list(right)
    if not right:
        return EC_ZERO
    ctx = right[0].ball.ctx
    p, n, p_power = ctx.p, ctx.n, ctx.p_power
    right = [(term, _coordinate_parts(term.ball.center, p), _coordinate_parts(term.eta, p)) for term in right]
    total = EC_ZERO
    for c1, phase1, eta1, ball1 in left:
        x1, e1 = _coordinate_parts(ball1.center, p), _coordinate_parts(eta1, p)
        r1 = ball1.radius_exp
        for (c2, phase2, eta2, ball2), x2, e2 in right:
            r2 = ball2.radius_exp
            if not _valuations_at_least(x1, x2, -max(r1, r2), p):
                continue  # disjoint
            inner = ball1 if r1 <= r2 else ball2
            s = inner.radius_exp
            if not _valuations_at_least(e1, e2, s, p):
                continue  # a nontrivial character integrates to 0
            zeta = eta1 - eta2
            phase = _shifted(phase1 - phase2, zeta, inner.center)
            value = c1 * c2.conjugate() * p_power(s * n)
            if phase % 1:
                value = value * character_from_phase(phase)
            total = total + value
    return total


def _coordinate_parts(x: PAdicVector, p: int) -> tuple:
    """(numerator, denominator, valuation of the denominator) per
    coordinate of x, as ``_valuations_at_least`` reads them."""
    return tuple([(c.numerator, c.denominator, _int_valuation(c.denominator, p)) for c in x.coords])


def _valuations_at_least(x: tuple, y: tuple, e: int, p: int) -> bool:
    """Whether every coordinate of x - y has valuation at least e, from the
    ``_coordinate_parts`` of x and y: the difference a1/b1 - a2/b2 has
    valuation v(a1 b2 - a2 b1) - v(b1) - v(b2), so p**(e + v(b1) + v(b2))
    must divide the cross product."""
    for (a1, b1, v1), (a2, b2, v2) in zip(x, y):
        k = e + v1 + v2
        if k > 0 and (a1 * b2 - a2 * b1) % p**k:
            return False
    return True


def _cell_radius(eta: PAdicVector, s: int) -> int:
    """The radius exponent of the cells on which chi_p(eta . x) is constant
    inside a ball of radius p**s: min(s, v(eta))."""
    return s if eta.is_zero else min(s, int(eta.min_valuation))


def cell_exponents(terms) -> list:
    """Per term, the exponent e of the p**e cells it expands into."""
    return [
        term.ball.ctx.n * (term.ball.radius_exp - _cell_radius(term.eta, term.ball.radius_exp))
        for term in terms
    ]


def expand(ctx: PrimeContext, terms) -> BruhatSchwartzFunction:
    """The canonical function of a term list.  A term whose character is
    constant on its ball is one cell; the others are flattened into cells by
    ``_modulated_cells``, where the expansion's cost lies."""
    out = []
    for term in terms:
        c, phase, eta, ball = term
        s = ball.radius_exp
        rho = _cell_radius(eta, s)
        if rho < s:
            out.extend(_modulated_cells(term, rho))
            continue
        phase = _shifted(phase, eta, ball.center)
        out.append((c * character_from_phase(phase) if phase else c, ball))
    return BruhatSchwartzFunction(ctx, tuple(out))


def _modulated_cells(term: ModulatedTerm, rho: int) -> list:
    """Cells of radius p**rho < p**s flattening one term on its ball B(b, p**s).

    With b canonical, every cell center is x = b + Y / p**s for an integer
    digit vector Y in [0, p**(s - rho))**n.  Then chi_p(eta . x) is
    chi_p(eta . b) chi_p(eta' . Y / p**s), with eta' = eta reduced modulo
    p**s Z_p^n = A / p**K (A an integer vector), so the phase beyond the
    term's own and {eta . b}_p is the residue (Y . A) mod p**(s + K) over
    that modulus (s + K > 0, because the cells are finer than the ball).
    The character and its product with the coefficient are computed once
    per residue.
    """
    coeff, phase, eta, ball = term
    ball = ball.canonical()
    ctx = ball.ctx
    p, n = ctx.p, ctx.n
    s = ball.radius_exp
    b = ball.center
    count = p ** (s - rho)
    reduced = [reduce_mod_ball(x, -s, p) for x in eta.coords]
    den = max(x.denominator for x in reduced)  # p**K
    units = [x.numerator * (den // x.denominator) for x in reduced]
    modulus = int(den * ctx.p_power(s))  # p**(s + K)
    base = _shifted(phase, eta, b)
    step = ctx.p_power(-s)
    offsets = [Fraction(y * step.numerator, step.denominator) for y in range(count)]
    coords = [offsets if x == 0 else [x + o for o in offsets] for x in b.coords]
    phases = [[y * u % modulus for y in range(count)] for u in units]
    values: dict = {}
    out = []
    for ys in digit_product(range(count), repeat=n):
        residue = sum(ph[y] for ph, y in zip(phases, ys)) % modulus
        value = values.get(residue)
        if value is None:
            q = Fraction(residue, modulus)
            value = values[residue] = coeff * character_from_phase(q + base if base else q)
        center = PAdicVector(tuple(xs[y] for xs, y in zip(coords, ys)), ctx)
        out.append((value, Ball(center, rho)))
    return out


def fourier(f: BruhatSchwartzFunction) -> BruhatSchwartzFunction:
    """Fourier transform F f(xi) = integral of chi_p(xi . x) f(x) dx, as cells:
    the expansion of ``fourier_terms``."""
    return expand(f.ctx, fourier_terms(modulated_terms(f)))


def inverse_fourier(f: BruhatSchwartzFunction) -> BruhatSchwartzFunction:
    """Inverse transform, as cells: the expansion of ``inverse_fourier_terms``."""
    return expand(f.ctx, inverse_fourier_terms(modulated_terms(f)))


def parseval_defect(f: BruhatSchwartzFunction, g: BruhatSchwartzFunction) -> ExactComplex:
    """<f, g> - <F f, F g>, the second pairing in closed form on the two
    transformed term lists.  Unmodulated inputs transform with phase 0, so
    the defect is an exact zero on exact coefficients, at every p."""
    return f.inner_product(g) - pairing(
        fourier_terms(modulated_terms(f)), fourier_terms(modulated_terms(g))
    )


def radial_terms(terms, multiplier: RadialMultiplier) -> tuple:
    """A term list times a radial multiplier m, each term keeping its phase
    and modulation.  A ball missing 0 lies on one shell and scales by m
    there; B(0, p**s) scales by m(0) when s <= 0, and for s > 0 telescopes
    into m(s) on it plus (m(k) - m(k+1)) on B(0, p**k), 0 <= k < s."""
    zero = PAdicVector.zero(multiplier.ctx)
    out = []
    for c, phase, eta, ball in terms:
        s, norm = ball.radius_exp, ball.center.norm_exp
        if norm > s:
            out.append(ModulatedTerm(c * multiplier.value(max(norm, 0)), phase, eta, ball))
            continue
        values = [multiplier.value(k) for k in range(max(s, 0) + 1)]
        out.append(ModulatedTerm(c * values[-1], phase, eta, Ball(zero, s)))
        out.extend(
            ModulatedTerm(c * (values[k] - values[k + 1]), phase, eta, Ball(zero, k))
            for k in range(s - 1, -1, -1)
            if values[k] != values[k + 1]
        )
    return tuple(out)


def multiply_radial(
    f: BruhatSchwartzFunction, profile: RadialProfile
) -> BruhatSchwartzFunction:
    """Pointwise product of f with a radial profile constant on the unit
    ball: the expansion of ``radial_terms`` on f's cells, with the profile
    read as a multiplier."""
    if not profile.constant_on_unit_ball:
        raise ValueError("multiplier must be constant on the unit ball")
    multiplier = RadialMultiplier(profile.ctx, profile.resid)
    return expand(f.ctx, radial_terms(modulated_terms(f), multiplier))


def _deep_closed_sum(profile: RadialProfile, top: int) -> float:
    """Sum of resid(k) * shell_measure(k) over all shells k <= top, in
    closed geometric form (valid because top < 0, inside the deep shells)."""
    p, n = profile.ctx.p, profile.ctx.n
    total = 0.0
    for a, d in profile.deep_pieces:
        e = float(d) + n
        if e <= 0:
            raise DivergentTailError(f"deep geometric piece with d + n = {e} <= 0")
        total += float(a) * (1.0 - p ** float(-n)) * p ** (top * e) / (1.0 - p ** (-e))
    return total


def radial_transform(profile: RadialProfile, xi_norm_exp: int) -> float:
    """(F g)(xi) at ||xi|| = p**m for a radial profile g, as a shell sum.

    The character integrals vanish above the shell 1 - m and sum to 0 over
    all shells up to it, so a constant drops out and the sum is finite: the
    deep shells below min(0, -m) in closed form, then the shells from there
    up to 1 - m against their exact character integrals.
    """
    ctx = profile.ctx
    m = int(xi_norm_exp)
    k_lo = min(0, -m)
    total = _deep_closed_sum(profile, k_lo - 1)
    for k in range(k_lo, 2 - m):
        c = shell_character_integral(k, m, ctx)
        if c:
            total += float(c) * float(profile.resid(k))
    return total
