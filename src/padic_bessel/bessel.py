"""The Bessel multiplier, its convolution kernel, and the operator battery.

The operator and its resolvent act on test functions as radial multipliers
on the Haar basis of the digit trie (``RadialMultiplier``), exact for
rational symbol values.  The quadratic form and the contraction ratio of
the L2 battery are Haar energies of f's trie under the same shell values,
and the maximum-principle check reads the operator's output in one walk of
f's trie, so no function here calls the Fourier transform or scans cells,
and only the oracles call the convolution route.  Two independent routes
are its oracles, in the tests and ``verify routes``:
convolution against the explicit radial kernel at a point (space side,
``apply_bessel_convolution``) and the two Fourier transforms around
``radial_terms`` with ``symbol_multiplier`` itself (symbol side).  The
verification operations below check the dissipativity, self-adjointness,
contraction, maximum-principle and resolvent statements on concrete inputs.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Union

from padic_bessel.padic import (
    EC_ZERO,
    ZERO_NORM,
    Ball,
    ExactComplex,
    FrozenValue,
    Number,
    PAdicVector,
    PrimeContext,
    check_context,
)
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    Supremum,
    haar_energy,
    linear_combination,
    read_leaves,
    root_of_square,
    smallest_cell_radius,
    support_radius,
    zero_on_unit_ball,
)
from padic_bessel.spectral import RadialMultiplier


#: the largest alpha * log2(p) an order may have: at integer alpha the exact
#: symbol and kernel build powers of p**alpha, and a larger alpha (1e300 is
#: an integer) would spend minutes or more on one power
MAX_ORDER_BITS = 2**14


class BesselOrder(FrozenValue):
    """Order alpha of the operator, constrained to a finite alpha > n with
    alpha * log2(p) at most MAX_ORDER_BITS.

    The constraint alpha > n makes the kernel prefactor negative, which is
    what the sign analysis of the kernel and the heat profile rests on.
    Immutable; == and hash compare (alpha, ctx), the key of the multiplier
    caches.
    """

    _fields = ("alpha", "ctx")

    def __init__(self, alpha: float, ctx: PrimeContext) -> None:
        if not math.isfinite(alpha):
            raise ValueError(f"order alpha = {alpha} must be finite")
        if not alpha > ctx.n:
            raise ValueError(f"order alpha = {alpha} must exceed the dimension n = {ctx.n}")
        # decided on floats, without building p**alpha
        if alpha * math.log2(ctx.p) > MAX_ORDER_BITS:
            raise ValueError(
                f"order alpha = {alpha} is over the bound alpha * log2(p) <= {MAX_ORDER_BITS} at p = {ctx.p}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "ctx", ctx)

    @property
    def alpha_is_integer(self) -> bool:
        return float(self.alpha).is_integer()


def padic_gamma(alpha: float, ctx: PrimeContext) -> Number:
    """The n-dimensional p-adic gamma factor (1 - p**(alpha-n)) / (1 - p**-alpha).

    Exact rational when alpha is an integer; negative for every alpha > n.
    """
    if alpha == 0:
        raise ValueError("gamma factor undefined at alpha = 0")
    p, n = ctx.p, ctx.n
    if float(alpha).is_integer():
        a = int(alpha)
        return (1 - Fraction(p) ** (a - n)) / (1 - Fraction(p) ** (-a))
    return (1.0 - p ** (alpha - n)) / (1.0 - p ** (-alpha))


def symbol_value(m: Union[int, float], order: BesselOrder) -> Number:
    """Multiplier value at frequency norm exponent m: max(1, p**m)**(-alpha)."""
    if m == ZERO_NORM or m <= 0:
        return 1
    p = order.ctx.p
    if order.alpha_is_integer:
        return Fraction(1, p ** (int(m) * int(order.alpha)))
    return p ** (-int(m) * order.alpha)


def kernel_value(m: Union[int, float], order: BesselOrder) -> Number:
    """Radial convolution kernel at norm exponent m; zero outside the unit ball.

    (p**(m d) - p**d) / gamma_p with d = alpha - n > 0, exact rational at
    integer alpha; at the origin (ZERO_NORM) p**(m d) is 0, its limit.
    """
    if m != ZERO_NORM and m >= 1:
        return 0
    ctx = order.ctx
    gamma = padic_gamma(order.alpha, ctx)
    if order.alpha_is_integer:
        d = int(order.alpha) - ctx.n
        deep = 0 if m == ZERO_NORM else ctx.p_power(int(m) * d)
        return (deep - ctx.p_power(d)) / gamma
    return _float_kernel(m, order.alpha - ctx.n, ctx.p, gamma)


def _float_kernel(m: Union[int, float], d: float, p: int, gamma: float) -> float:
    """Kernel at norm exponent m <= 0 for non-integer alpha, d = alpha - n;
    m = ZERO_NORM gives p**(m d) = 0.0 and so the value at the origin."""
    return (p ** (m * d) - p ** d) / gamma


def kernel_shells(order: BesselOrder) -> Iterator[float]:
    """Kernel on the shells ||x|| = p**(-gamma), for gamma = 0, 1, 2, ... in
    turn, as floats equal to ``float(kernel_value(-gamma, order))``.

    At integer alpha the value is the rational (B**-gamma - B) / gamma_p with
    B = p**(alpha - n), that is gd (1 - B**(gamma+1)) / (gn B**gamma) for
    gamma_p = gn / gd; B**gamma is carried from shell to shell, and the
    int / int division rounds correctly, as ``float`` of the Fraction does.
    These rationals are (gd / -gn) (B - B**-gamma), gn < 0 < gd and B >= 2,
    so they increase strictly toward the limit L = gd B / -gn.  Rounding to
    nearest is monotone, so a row that rounds to the float of L (the
    correctly rounded ``gd * base / -gn``) is followed only by rows that
    round to it too: from that row on the float of L is yielded with no
    more big-integer arithmetic.  The rows reach it after about
    54 / log2(B) shells, unless L lies exactly halfway between two floats
    and rounds up, which the rows below it never do; they then run on
    exactly.
    At other alpha each shell is ``kernel_value``'s float expression, with the
    gamma factor computed once.
    """
    ctx = order.ctx
    p, n, alpha = ctx.p, ctx.n, order.alpha
    gamma = padic_gamma(alpha, ctx)
    if isinstance(gamma, Fraction):
        gn, gd = gamma.numerator, gamma.denominator
        base = p ** (int(alpha) - n)
        limit = gd * base / -gn
        power = 1
        while True:
            nxt = power * base
            row = gd * (1 - nxt) / (gn * power)
            yield row
            if row == limit:
                yield from itertools.repeat(limit)
            power = nxt
    for g in itertools.count():
        yield _float_kernel(-g, alpha - n, p, gamma)


def kernel_ball_mass(radius_exp: int, order: BesselOrder) -> Number:
    """Integral of the kernel over the ball of radius p**radius_exp at 0.

    Closed geometric form, exact rational when alpha is an integer; equals
    the total mass (which is 1) for any nonnegative radius.
    """
    ctx = order.ctx
    p, n = ctx.p, ctx.n
    top = min(radius_exp, 0)
    gamma = padic_gamma(order.alpha, ctx)
    if order.alpha_is_integer:
        a, power = int(order.alpha), ctx.p_power
    else:
        a, power = order.alpha, lambda e: p**e
    return (
        (1 - power(-n)) * power(top * a) / (1 - power(-a)) - power(a - n + top * n)
    ) / gamma


def kernel_mass(order: BesselOrder) -> Number:
    """Total integral of the kernel (analytically 1)."""
    return kernel_ball_mass(0, order)


# -- the operator ------------------------------------------------------------


#: distinct multipliers each cached constructor below keeps, with their
#: shell tables; ``typed`` keys, so that 1/2 and 0.5 (equal, and equal in
#: hash) keep their exact and float tables apart
MULTIPLIERS_CACHED = 128


@lru_cache(maxsize=MULTIPLIERS_CACHED, typed=True)
def symbol_multiplier(order: BesselOrder) -> RadialMultiplier:
    """The operator as a radial multiplier, one per order, so its shell
    table is built once.  At integer alpha, with A = p**alpha, the drop
    A**-k - A**-(k+1) is the one fraction (A - 1) / A**(k+1), so deep
    inputs take no difference of big fractions; a float order keeps the
    difference of its values."""
    value = lambda k: symbol_value(k, order)
    if not order.alpha_is_integer:
        return RadialMultiplier(order.ctx, value)
    base = order.ctx.p ** int(order.alpha)
    return RadialMultiplier(order.ctx, value, lambda k: Fraction(base - 1, base ** (k + 1)))


def apply_bessel(order: BesselOrder, f: BruhatSchwartzFunction) -> BruhatSchwartzFunction:
    """The operator applied on the digit trie (``RadialMultiplier``)."""
    return symbol_multiplier(order).apply(f)


def apply_bessel_convolution(
    order: BesselOrder, f: BruhatSchwartzFunction, x: PAdicVector
) -> ExactComplex:
    """Convolution route, evaluated at a point: an oracle of ``apply_bessel``.

    The shell sum over the kernel support terminates exactly: below the
    constancy radius of f the translate f(x - y) is constant in y, and the
    remaining kernel mass is added in closed form, so no truncation error
    enters.
    """
    if f.is_zero:
        return EC_ZERO
    ell = smallest_cell_radius(f)
    total = f.evaluate(x) * kernel_ball_mass(ell, order)
    for k in range(min(ell, 0) + 1, 1):
        ring = f.ball_integral(Ball(x, k)) - f.ball_integral(Ball(x, k - 1))
        if not ring.is_zero():
            total = total + ring * kernel_value(k, order)
    return total


@lru_cache(maxsize=MULTIPLIERS_CACHED, typed=True)
def resolvent_multiplier(order: BesselOrder, lam: Number) -> RadialMultiplier:
    """1 / (lam + symbol) as a radial multiplier, one per (order, lam);
    exact for rational lam and integer alpha, and safe because the divisor
    is at least lam > 0."""
    if not lam > 0:
        raise ValueError(f"resolvent parameter lam = {lam} must be positive")

    def value(k: int) -> Number:
        denom = lam + symbol_value(k, order)
        if isinstance(denom, float):
            return 1.0 / denom
        return Fraction(1) / Fraction(denom)

    return RadialMultiplier(order.ctx, value)


def resolvent(
    order: BesselOrder, lam: Number, f: BruhatSchwartzFunction
) -> BruhatSchwartzFunction:
    """Solve (lam + operator) u = f by the multiplier 1 / (lam + symbol)."""
    return resolvent_multiplier(order, lam).apply(f)


def resolvent_residual(
    order: BesselOrder,
    lam: Number,
    f: BruhatSchwartzFunction,
    u: Optional[BruhatSchwartzFunction] = None,
) -> float:
    """Sup norm of (lam + operator) u - f, as one combination of the three
    parts."""
    if u is None:
        u = resolvent(order, lam, f)
    return linear_combination([(lam, u), (symbol_multiplier(order), u), (-1, f)]).sup_norm()


# -- verification battery ----------------------------------------------------


def quadratic_form(order: BesselOrder, f: BruhatSchwartzFunction) -> float:
    """<-(operator) f, f>, read off f's digit trie as minus its Haar energy
    under the symbol's shell values (``schwartz.haar_energy``), in one walk
    of f with no output built: by Parseval it is minus the integral of
    symbol * |F f|**2, real because the symbol is, so dissipativity means
    this never exceeds rounding.  Exact at integer alpha on exact
    coefficients."""
    check_context(f.ctx, order.ctx)
    return -float(haar_energy(f, symbol_multiplier(order).shells))


def adjoint_defect(
    order: BesselOrder, f: BruhatSchwartzFunction, g: BruhatSchwartzFunction
) -> ExactComplex:
    """<-(operator) f, g> - <f, -(operator) g>; zero for a self-adjoint operator."""
    jf = apply_bessel(order, f)
    jg = apply_bessel(order, g)
    return f.inner_product(jg) - jf.inner_product(g)


def contraction_ratio(order: BesselOrder, f: BruhatSchwartzFunction) -> float:
    """||operator f||_2 / ||f||_2; at most 1 because the symbol is.

    ||operator f||_2**2 is f's Haar energy under the squared shell values,
    whose drops m(k)**2 - m(k+1)**2 are drop(k) (m(k) + m(k+1)), so one
    walk of f gives it with no output built, and its root is taken as
    ``l2_norm`` takes one."""
    denom = f.l2_norm()
    if denom == 0.0:
        raise ValueError("contraction ratio undefined for the zero function")
    check_context(f.ctx, order.ctx)

    def squared_shells(depth: int) -> tuple:
        values, drops = symbol_multiplier(order).shells(depth)
        return [m * m for m in values], [drop * (values[k] + values[k + 1]) for k, drop in enumerate(drops)]

    return root_of_square(haar_energy(f, squared_shells)) / denom


def c0_dissipativity_margin(
    order: BesselOrder, f: BruhatSchwartzFunction, lam: float
) -> float:
    """||lam f + operator f||_sup - lam ||f||_sup, which must be >= 0.

    Exact cell maxima on both sides; the margin is returned so callers can
    allow float slack.  The operator is applied first: at a float lam, one
    combination of (lam, f) and (operator, f) would round in another order.
    """
    if not lam > 0:
        raise ValueError(f"lam = {lam} must be positive")
    if not f.is_real:
        raise ValueError("sup-norm dissipativity is checked on real functions")
    shifted = linear_combination([(lam, f), (1, apply_bessel(order, f))])
    return shifted.sup_norm() - lam * f.sup_norm()


class PmpReport(FrozenValue):
    """Positive-maximum-principle check over the whole exact argmax set.

    ``probes`` holds one point of every region on which the operator is
    constant and f reaches its supremum (see ``_argmax_probes``), each paired
    with the value of -(operator) f there, in the order the walk of f's trie
    meets them; ``worst`` is the largest of these, and ``passed`` says it
    does not exceed the tolerance.  The principle holds for nonnegative
    functions and fails on many sign-mixed ones, so ``passed`` is a verdict
    on the input, not on the code.  Immutable; == and hash compare the five
    fields.
    """

    _fields = ("sup_value", "witness_cell", "probes", "worst", "passed")

    def __init__(
        self, sup_value: Number, witness_cell: Optional[Ball], probes: tuple, worst: float, passed: bool
    ) -> None:
        object.__setattr__(self, "sup_value", sup_value)
        object.__setattr__(self, "witness_cell", witness_cell)
        object.__setattr__(self, "probes", probes)
        object.__setattr__(self, "worst", worst)
        object.__setattr__(self, "passed", passed)


def _argmax_probes(f: BruhatSchwartzFunction, sup: Supremum, g: BruhatSchwartzFunction) -> list:
    """(x, g(x)) for points x that together see every value g = operator f
    takes on the argmax set of a canonical real f.

    The operator is convolution with a radial kernel supported on the unit
    ball, so by the ultrametric inequality it is constant on each cell of f,
    on each ball that misses the support, and zero beyond distance 1 from
    the support.  A positive supremum is probed at the center of every cell
    that reaches it.  A supremum of 0 is probed at the center of every
    maximal zero-valued ball inside a unit ball that meets the support
    (these tile the zeros of f within distance 1 of it), plus one point far
    outside the support and, when f is 0 on the unit ball, the origin.
    Those maximal balls are the None children of the trie nodes of radius
    p**s, s <= 0, the cells of the canonical form of sum_U 1_U - sum_D 1_D
    with U those unit balls and D the cells of f inside them, which is
    never built.  Both kinds are read in one walk of f's trie in lockstep
    with g's (``schwartz.read_leaves``): g is constant on them, so only
    the origin's value is read down a path of its own, and the cost is
    linear in trie nodes.
    """
    if sup.cell is not None:
        top = sup.value
        return read_leaves(f, g, lambda leaf, radius: leaf is not None and leaf.re == top)
    ctx = f.ctx
    coords = [Fraction(1, ctx.p ** (support_radius(f) + 1))] + [Fraction(0)] * (ctx.n - 1)
    points = [PAdicVector(tuple(coords), ctx)]
    if zero_on_unit_ball(f):
        points.append(PAdicVector.zero(ctx))
    probes = [(x, g.evaluate(x)) for x in points]
    probes.extend(read_leaves(f, g, lambda leaf, radius: leaf is None and radius < 0))
    return probes


def pmp_check(order: BesselOrder, f: BruhatSchwartzFunction, tol: float = 1e-12) -> PmpReport:
    """Evaluate -(operator) f on the whole set where f reaches its supremum
    sup f >= 0, through the probes of ``_argmax_probes``.

    The operator is applied once, on the digit trie (``apply_bessel``), and
    every probe and its value come from one walk of f's trie in lockstep
    with the output's, so the check is linear in trie nodes.
    """
    sup: Supremum = f.sup_and_argmax()
    g = apply_bessel(order, f)
    evaluated = tuple((x, -float(value.re)) for x, value in _argmax_probes(f, sup, g))
    worst = max(v for _, v in evaluated)
    return PmpReport(
        sup_value=sup.value,
        witness_cell=sup.cell,
        probes=evaluated,
        worst=worst,
        passed=worst <= tol,
    )


def negdef_witness(order: BesselOrder) -> tuple:
    """Smallest shell exponent m >= 1 where the one-point quadratic form
    2 * symbol(p**m) - symbol(0) goes negative, with that value.

    A negative-definite symbol would keep this nonnegative; the Bessel
    multiplier fails it already at m = 1 for every admissible order.
    """
    for m in range(1, 64):
        value = 2 * symbol_value(m, order) - symbol_value(0, order)
        if value < 0:
            return m, value
    raise AssertionError("no witness found; symbol should decay below 1/2")
