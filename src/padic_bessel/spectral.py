"""Fourier analysis on test functions and radial shell transforms.

Radial Fourier multipliers act on test functions through the Haar basis of
their digit tries (``RadialMultiplier``), never through characters.  The
transform itself remains, as the oracle of that route and for its own
identities: the transform of a single ball indicator is an explicitly
modulated indicator; the modulation is flattened into cells on which the
character is constant, so the image stays inside the indicator
representation, exactly.
The cells are read off integer digit vectors, whose phases are integer
residues, so each term evaluates one character per distinct phase.
The radial transform evaluates the Fourier integral of a norm-dependent
profile at one finite frequency as a shell sum against exact character
integrals, with the infinitely many deep shells summed in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as digit_product
from typing import Callable, Optional

from padic_bessel.padic import (
    EC_ZERO,
    Ball,
    ContextMismatchError,
    ExactComplex,
    Number,
    PAdicVector,
    PrimeContext,
    ball_measure,
    character_from_phase,
    shell_character_integral,
)
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    DigitTrie,
    close_node,
    from_trie_root,
)


class DivergentTailError(ValueError):
    """The requested shell sum has no convergent tail."""


@dataclass(frozen=True)
class RadialProfile:
    """A function of the norm exponent m (the value at ||x||_p = p**m).

    Stored as ``base + resid(m)`` where ``base`` is the limit at infinity and
    ``resid`` decays; shell sums weight huge exact character integrals
    against the small residual only, since the constant bulk integrates to
    0 against them, so no precision is lost to it.

    ``deep_pieces`` gives resid on the deep shells m <= 0 as a sum
    of exact geometric terms A * p**(m*d) (each needs d + n > 0), which the
    transform sums in closed form.
    """

    ctx: PrimeContext
    resid: Callable[[int], Number]
    base: Number = 0
    deep_pieces: tuple = ()
    constant_on_unit_ball: bool = False

    def value_at(self, m: int) -> Number:
        """Profile value at the norm exponent m of a nonzero point."""
        return self.base + self.resid(int(m))


@dataclass(frozen=True)
class RadialMultiplier:
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
    evaluated, and exact shell values give exact output at every p.
    """

    ctx: PrimeContext
    value: Callable[[int], Number]
    drop: Optional[Callable[[int], Number]] = None

    def apply(self, f: BruhatSchwartzFunction) -> BruhatSchwartzFunction:
        """The function m(D) f, canonical, with its trie.

        Node means go up f's digit trie, then each node's path sum of
        drop * mean comes down it, and each cell of f takes its value.  The
        walk down merges equal siblings and emits the cells in canonical
        form's post-order, reusing f's balls, so it is canonical form's own
        output.  Linear in trie nodes times p**n.
        """
        if f.ctx != self.ctx:
            raise ContextMismatchError(f"{f.ctx} != {self.ctx}")
        f = f.canonicalize()
        trie = f.digit_trie()
        depth = max([0] + [-ball.radius_exp for _, ball in f.terms])
        values = [self.value(k) for k in range(depth + 1)]
        if self.drop is None:
            drops = [values[k] - values[k + 1] for k in range(depth)]
        else:
            drops = [self.drop(k) for k in range(depth)]
        ctx = self.ctx
        root = trie.root
        if type(root) is not list:  # zero, or one cell of radius >= 0
            top = (root[0] * values[0], root[1]) if root else (EC_ZERO, None)
            return from_trie_root(ctx, trie.radius, top, [])
        means = _node_means(trie, ctx)
        p = ctx.p
        all_digits = list(digit_product(range(p), repeat=ctx.n))
        root_scale = p**trie.radius
        out: list = []
        # A frame is [node, integer center coords U, radius, path sum,
        # integer digit scale, results], the path sum adding drop(k) times
        # the mean of each ancestor of radius p**(-k) (None while there is
        # none); results as in ``close_node``.
        path = drops[0] * means[id(root)] if trie.radius == 0 else None
        stack = [[root, (0,) * ctx.n, trie.radius, path, 1, []]]
        while stack:
            node, units, radius, path, scale, results = stack[-1]
            if len(results) < len(node):
                kid = node[len(results)]
                j = max(0, 1 - radius)  # the children have radius p**(-j)
                if type(kid) is list:
                    if radius <= 1:
                        detail = drops[j] * means[id(kid)]
                        path = detail if path is None else path + detail
                    digits = all_digits[len(results)]
                    child_units = tuple(u + d * scale for u, d in zip(units, digits))
                    stack.append([kid, child_units, radius - 1, path, scale * p, []])
                elif kid is None:
                    results.append((EC_ZERO if path is None else path, None))
                else:
                    value = kid[0] * values[j]
                    results.append((value if path is None else path + value, kid[1]))
                continue
            stack.pop()
            top = close_node(results, units, radius, scale, root_scale, ctx, all_digits, out)
            if stack:
                stack[-1][5].append(top)
        return from_trie_root(ctx, trie.radius, top, out)

    def profile(self) -> RadialProfile:
        """The same shell values as a profile for ``multiply_radial``, which
        the two-transform oracle route of ``apply`` uses."""
        return RadialProfile(
            ctx=self.ctx,
            resid=lambda k: self.value(max(k, 0)),
            constant_on_unit_ball=True,
        )


def _node_means(trie: DigitTrie, ctx: PrimeContext) -> dict:
    """The mean of the function over each trie node of radius <= 0, keyed by
    the node's id, summed up the trie after its children."""
    inv = Fraction(1, ctx.p**ctx.n)
    means = {}
    # a frame is [node, radius, next child, sum of the children's means]
    stack = [[trie.root, trie.radius, 0, EC_ZERO]]
    while stack:
        frame = stack[-1]
        node, radius, i, total = frame
        if i < len(node):
            frame[2] = i + 1
            kid = node[i]
            if type(kid) is list:
                stack.append([kid, radius - 1, 0, EC_ZERO])
            elif kid is not None and radius <= 0:
                frame[3] = total + kid[0]
            continue
        stack.pop()
        if radius <= 0:
            means[id(node)] = mean = total * inv
            if radius < 0:  # the parent has radius <= 0 too
                stack[-1][3] = stack[-1][3] + mean
    return means


def _modulated_cells(coeff: ExactComplex, r: int, a: PAdicVector, rho: int) -> list:
    """Terms flattening coeff * chi_p(xi . a) on the dual ball B(0, p**R),
    R = -r, into cells of radius p**rho < p**R.

    Every cell center is xi = Y / p**R for an integer digit vector Y in
    [0, p**(R - rho))**n, and a = A / p**K with A an integer vector, so the
    phase {xi . a}_p is the residue (Y . A) mod p**(R + K) over that modulus
    (R + K > 0, because the cells are finer than the dual ball).  The
    character and its product with coeff are computed once per residue.
    """
    ctx = a.ctx
    p, n = ctx.p, ctx.n
    R = -r
    count = p ** (R - rho)
    den = max(x.denominator for x in a.coords)  # p**K: canonical centers
    units = [x.numerator * (den // x.denominator) for x in a.coords]
    modulus = int(den * ctx.p_power(R))  # p**(R + K)
    step = ctx.p_power(-R)
    coords = [Fraction(y * step.numerator, step.denominator) for y in range(count)]
    phases = [[y * u % modulus for y in range(count)] for u in units]
    values: dict = {}
    out = []
    for ys in digit_product(range(count), repeat=n):
        residue = sum(ph[y] for ph, y in zip(phases, ys)) % modulus
        value = values.get(residue)
        if value is None:
            value = values[residue] = coeff * character_from_phase(Fraction(residue, modulus))
        center = PAdicVector(tuple(coords[y] for y in ys), ctx)
        out.append((value, Ball(center, rho, known_canonical=True)))
    return out


def fourier(f: BruhatSchwartzFunction) -> BruhatSchwartzFunction:
    """Fourier transform F f(xi) = integral of chi_p(xi . x) f(x) dx.

    Each indicator of a ball at a maps to p**(rn) * chi_p(xi . a) times the
    indicator of the dual ball at 0; the character factor is constant on
    cells of radius p**v, v the smallest coordinate valuation of a, so the
    dual ball is subdivided to that depth and each cell picks up an exact
    phase, read off integer digit coordinates (``_modulated_cells``).
    """
    f = f.canonicalize()
    ctx = f.ctx
    out = []
    zero = PAdicVector.zero(ctx)
    for c, ball in f.terms:
        r = ball.radius_exp
        scale = ball_measure(r, ctx)
        a = ball.center
        rho = -r if a.is_zero else min(-r, int(a.min_valuation))
        if rho == -r:
            out.append((c * scale, Ball(zero, -r, known_canonical=True)))
        else:
            out.extend(_modulated_cells(c * scale, r, a, rho))
    return BruhatSchwartzFunction(ctx, tuple(out)).canonicalize()


def inverse_fourier(f: BruhatSchwartzFunction) -> BruhatSchwartzFunction:
    """Inverse transform, realized as the transform followed by reflection."""
    return fourier(f).reflect()


def parseval_defect(f: BruhatSchwartzFunction, g: BruhatSchwartzFunction) -> ExactComplex:
    """<f, g> - <F f, F g>; zero up to rounding of irrational phases."""
    return f.inner_product(g) - fourier(f).inner_product(fourier(g))


def multiply_radial(
    f: BruhatSchwartzFunction, profile: RadialProfile
) -> BruhatSchwartzFunction:
    """Pointwise product of f with a radial profile constant on the unit ball.

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
            out.append((c * profile.value_at(a.norm_exp), ball))
        elif ball.radius_exp <= 0:
            out.append((c * profile.value_at(0), ball))
        else:
            out.append((c * profile.value_at(0), Ball(zero, 0, known_canonical=True)))
            for k in range(1, ball.radius_exp + 1):
                val = profile.value_at(k)
                shell_ball = Ball(zero, k, known_canonical=True)
                for child in shell_ball.children():
                    if not child.contains_zero:
                        out.append((c * val, child))
    return BruhatSchwartzFunction(ctx, tuple(out)).canonicalize()


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
    all shells up to it, so the constant base drops out and the sum is
    finite: the deep shells below min(0, -m) in closed form, then the shells
    from there up to 1 - m against their exact character integrals.
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
