"""Heat kernel in closed form, its shell-sum oracle, and Cauchy evolution.

The evolution semigroup scales frequencies by exp(-t * multiplier), which
decays, so the flow is a contraction.  Its kernel splits as a unit point
mass at 0 plus an integrable function part supported on the unit ball; the
function part is negative everywhere on its support, carries mass
exp(-t) - 1, and is computed by two independent routes that the tests pin
against each other:

* the closed telescoping sum over shells (``z_closed``), evaluated in a
  product form built from expm1 so no significance is lost, and
* the regularized inverse transform of ``heat_kernel_multiplier``, the
  semigroup minus the identity (``z_oracle``), a shell sum of its
  ``profile`` against exact character integrals.  It takes any shell, and
  outside the unit ball it sums to 0 up to rounding, which checks the
  support.

Evolution applies exp(-t * multiplier) on the Haar basis of the digit trie
(``RadialMultiplier``).  For step forcing the Duhamel integral over each
forcing piece [a, b] is itself a radial multiplier, the integral of
exp(-(t - s) * multiplier) over [a, b], in closed form
(``forcing_multiplier``), so mild solutions carry no quadrature error; the
pair (semigroup, initial datum) and one (multiplier, forcing) pair per piece
make one ``linear_combination``, so no function here calls the Fourier
transform.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import count, islice
from typing import Callable, Iterator, Sequence

from padic_bessel.padic import (
    FrozenValue,
    PrimeContext,
    shell_measure,
)
from padic_bessel.schwartz import BruhatSchwartzFunction, linear_combination
from padic_bessel.spectral import RadialMultiplier, radial_transform
from padic_bessel.bessel import MULTIPLIERS_CACHED, BesselOrder, symbol_value


class ScheduleError(ValueError):
    """A forcing schedule does not cover the requested times."""


def _require_positive_time(t: float) -> None:
    if not t > 0:
        raise ValueError(f"time t = {t} must be positive")


# -- the kernel's function part ----------------------------------------------


def z_shells(t: float, order: BesselOrder) -> Iterator[float]:
    """Function part of the heat kernel on the shells ||x|| = p**(-gamma),
    for gamma = 0, 1, 2, ... in turn, as one running telescoped sum.

    The running sum of p**(i*n) * (E_i - E_{i+1}) with E_i = exp(-t p**(-i*alpha)).
    Every difference is computed as exp * expm1, which keeps full relative
    accuracy even when both exponentials are close to 1, and every summand
    is strictly negative, so the sum suffers no cancellation.  The growing
    p**(i*n) meets the shrinking exponent y_i = x_i (1 - p**-alpha) as one
    float power, p**(i*n) y_i = t (1 - p**-alpha) p**(i*(n - alpha)), times
    expm1(-y_i) / y_i, so no shell depth overflows.
    """
    _require_positive_time(t)
    p, n = order.ctx.p, order.ctx.n
    alpha = order.alpha
    shrink = p ** (-alpha)
    keep = 1.0 - shrink
    head, slope = t * keep, n - alpha
    total = 0.0
    for i in count():
        x_i = t * p ** (-i * alpha)
        y_i = x_i * keep
        ratio = math.expm1(-y_i) / y_i if y_i else -1.0
        total += head * p ** (i * slope) * math.exp(-x_i * shrink) * ratio
        yield total


def z_closed(gamma: int, t: float, order: BesselOrder) -> float:
    """Function part of the heat kernel on the shell ||x|| = p**(-gamma);
    the gamma-th value of ``z_shells``."""
    if gamma < 0:
        raise ValueError(f"shell index gamma = {gamma} must be >= 0")
    return next(islice(z_shells(t, order), gamma, None))


def tail_envelopes(t: float, order: BesselOrder) -> Iterator[float]:
    """Geometric bounds on the shell-sum remainder beyond depth 0, 1, 2,
    ... in turn: t (1 - p**-alpha) p**(depth (n - alpha)) / (1 - p**(n -
    alpha)), evaluated from left to right, with the factors that do not
    depend on the depth computed once."""
    p, n = order.ctx.p, order.ctx.n
    alpha = order.alpha
    head, slope, denom = t * (1.0 - p ** (-alpha)), n - alpha, 1.0 - p ** (n - alpha)
    for depth in count():
        yield head * p ** (depth * slope) / denom


MAX_DEPTH = 100_000


def default_depth(t: float, order: BesselOrder, tol: float = 1e-13) -> int:
    """Smallest depth whose tail envelope is at most tol: the first one of
    ``tail_envelopes``.  Every caller sums the shells down to that depth, so
    the walk costs no more than its use.  Raises ValueError past MAX_DEPTH,
    which alpha close to n reaches.
    """
    for depth, envelope in zip(range(MAX_DEPTH + 1), tail_envelopes(t, order)):
        if envelope <= tol:
            return depth
    raise ValueError(
        f"heat kernel tail decays too slowly at alpha = {order.alpha}: "
        f"depth over {MAX_DEPTH} needed for tolerance {tol}"
    )


def z_origin_limit(t: float, order: BesselOrder) -> float:
    """Limit of the shell values toward the origin (converged sum).  The
    tail envelope is proportional to t, as the limit is for small t, so the
    tolerance scales with min(1, t)."""
    return z_closed(default_depth(t, order, tol=1e-18 * min(1.0, t)), t, order)


def heat_kernel_multiplier(t: float, order: BesselOrder) -> RadialMultiplier:
    """The transform of the heat kernel's function part, expm1(-t *
    multiplier), at a time t >= 0 as a radial multiplier: the semigroup
    minus the identity.  Its values come from expm1 rather than from the
    semigroup's, so a small t loses no significance; its drops are those of
    ``semigroup_multiplier``."""

    def value(k: int) -> float:
        return math.expm1(-t * float(symbol_value(k, order)))

    return RadialMultiplier(order.ctx, value, semigroup_multiplier(t, order).drop)


def z_oracle(gamma: int, t: float, order: BesselOrder) -> float:
    """Kernel function part by the independent route: the regularized
    inverse transform of ``heat_kernel_multiplier``, summed shell by shell
    against exact character integrals.  Terminates by itself one shell past
    gamma.  Takes any integer gamma: outside the unit ball (gamma < 0) the
    shell sum cancels to 0 up to rounding."""
    _require_positive_time(t)
    return radial_transform(heat_kernel_multiplier(t, order).profile(), -gamma)


def z_mass(t: float, order: BesselOrder) -> float:
    """Integral of the kernel's function part, which is exp(-t) - 1.

    Swapping the shell and telescoping indices turns the double sum into
    the plain series sum_i (E_i - E_{i+1}), summed here term by term to the
    certified depth, whose tolerance scales with min(1, t), as the mass
    does for small t.
    """
    _require_positive_time(t)
    depth = default_depth(t, order, tol=1e-13 * min(1.0, t))
    p = order.ctx.p
    alpha = order.alpha
    shrink = p ** (-alpha)
    total = 0.0
    for i in range(depth + 1):
        x_i = t * p ** (-i * alpha)
        total += math.exp(-x_i * shrink) * math.expm1(-x_i * (1.0 - shrink))
    return total


def distributional_mass(t: float, order: BesselOrder) -> float:
    """Mass of the full kernel (point mass plus function part): exp(-t)."""
    return 1.0 + z_mass(t, order)


# -- convolution of kernel parts ----------------------------------------------


def radial_convolution_at(
    f_profile: Callable[[int], float],
    g_profile: Callable[[int], float],
    norm_exp: int,
    ctx: PrimeContext,
    depth: int,
) -> float:
    """(f * g)(x) for radial profiles supported in the unit ball, at
    ||x|| = p**norm_exp <= 1, truncating the deep shells at the given depth.

    Splits the integration into shells strictly inside the argument's shell
    (translate constant there), shells strictly outside (norms agree), and
    the argument's own shell, whose translate integral reduces to ball
    integrals by the nested-or-disjoint geometry.
    """
    if norm_exp > 0:
        return 0.0
    p, n = ctx.p, ctx.n
    m = norm_exp
    mu = lambda k: float(shell_measure(k, ctx))
    inner_f = sum(f_profile(k) * mu(k) for k in range(-depth, m))
    outer = sum(f_profile(k) * g_profile(k) * mu(k) for k in range(m + 1, 1))
    inner_g = sum(g_profile(k) * mu(k) for k in range(-depth, m + 1))
    own = f_profile(m) * (inner_g - g_profile(m) * p ** ((m - 1) * n))
    return g_profile(m) * inner_f + outer + own


def convolution_defect(
    t1: float, t2: float, gamma: int, order: BesselOrder, tol: float = 1e-13
) -> tuple:
    """Convolving the kernel parts at two times against the closed-form
    combination at the summed time; returns (defect, truncation bound)."""
    _require_positive_time(t1)
    _require_positive_time(t2)
    if gamma < 0:
        raise ValueError(f"shell index gamma = {gamma} must be >= 0")
    ctx = order.ctx
    p, n = ctx.p, ctx.n
    z1 = z_closed(gamma, t1, order)
    z2 = z_closed(gamma, t2, order)
    bound_1 = abs(z_origin_limit(t1, order)) + next(tail_envelopes(t1, order))
    bound_2 = abs(z_origin_limit(t2, order)) + next(tail_envelopes(t2, order))
    depth = gamma + 2
    while True:
        deep_volume = p ** ((-depth) * n)
        tail = (abs(z2) * bound_1 + abs(z1) * bound_2) * deep_volume
        if tail <= tol or depth > 10_000:
            break
        depth += max(1, int(math.ceil(math.log(tail / tol, p) / n)))
    # the convolution reads the shells k = -depth, ..., 0
    shells_1 = list(islice(z_shells(t1, order), depth + 1))
    shells_2 = list(islice(z_shells(t2, order), depth + 1))
    lhs = radial_convolution_at(lambda k: shells_1[-k], lambda k: shells_2[-k], -gamma, ctx, depth)
    rhs = z_closed(gamma, t1 + t2, order) - z1 - z2
    return abs(lhs - rhs), tail


# -- evolution ------------------------------------------------------------------


@lru_cache(maxsize=MULTIPLIERS_CACHED, typed=True)
def semigroup_multiplier(t: float, order: BesselOrder) -> RadialMultiplier:
    """The semigroup exp(-t * multiplier) at a time t >= 0 as a radial
    multiplier, one per (t, order), so its shell table is built once.

    Shell differences are exp * expm1 products, as in ``z_shells``, so none
    loses significance when both exponentials are close to 1.
    """
    if not t >= 0:
        raise ValueError(f"time t = {t} must be nonnegative")

    def value(k: int) -> float:
        return math.exp(-t * float(symbol_value(k, order)))

    def drop(k: int) -> float:
        upper, lower = symbol_value(k, order), symbol_value(k + 1, order)
        return math.exp(-t * float(lower)) * math.expm1(-t * float(upper - lower))

    return RadialMultiplier(order.ctx, value, drop)


def _phi(x: float) -> float:
    """-expm1(-x) / x, the mean of exp(-s) over s in [0, x]; 1 at x = 0."""
    return -math.expm1(-x) / x if x else 1.0


def _phi_gap(x1: float, x2: float, gap: float) -> float:
    """phi(x1) - phi(x2) for x1 >= x2 >= 0, given gap = x1 - x2.

    For x1 <= 0.5 the two values agree to about gap / 2 and their difference
    would cancel, so the gap is summed as the alternating series
    sum over j >= 1 of (-1)**j (x1**j - x2**j) / (j + 1)!, each of whose terms
    is at most x1 times the one before.  Each x1**j - x2**j is built as
    x1 (x1**(j-1) - x2**(j-1)) + x2**(j-1) gap, a sum of positive parts.
    """
    if x1 > 0.5:
        return _phi(x1) - _phi(x2)
    total = 0.0
    power_gap, x2_power, factorial, j = gap, 1.0, 2.0, 1
    while True:
        term = power_gap / factorial
        total += -term if j % 2 else term
        if term <= 1e-17 * abs(total):
            return total
        x2_power *= x2
        power_gap = x1 * power_gap + x2_power * gap
        j += 1
        factorial *= j + 1


def _split(x: float) -> tuple:
    """x as hi + lo with hi holding the upper 26 significant bits (Veltkamp)."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _decay(tau: float, tau_err: float, sigma: float) -> float:
    """exp(-(tau + tau_err) * sigma), where tau_err is the rounding error of
    the float time difference tau.

    exp(-x) has relative condition number x, which reaches t, so rounding
    tau or the product tau * sigma would each cost up to half an ulp of x,
    3.6e-15 relative once x >= 32.  The product is split into its float value
    and its exact rounding error (Dekker), and both small parts go into a
    second factor.
    """
    product = tau * sigma
    tau_hi, tau_lo = _split(tau)
    sigma_hi, sigma_lo = _split(sigma)
    err = ((tau_hi * sigma_hi - product) + tau_hi * sigma_lo + tau_lo * sigma_hi) + tau_lo * sigma_lo
    return math.exp(-product) * math.exp(-(err + tau_err * sigma))


def forcing_multiplier(a: float, b: float, t: float, order: BesselOrder) -> RadialMultiplier:
    """The Duhamel integral of the semigroup over one forcing piece: the
    integral of exp(-(t - s) * multiplier) over s in [a, b], for
    0 <= a < b <= t, as one radial multiplier.

    On a shell with multiplier value sigma it is
    exp(-(t - b) sigma) (b - a) phi((b - a) sigma), phi(x) = -expm1(-x) / x,
    in closed form.  With sigma_1 > sigma_2 the values of shells k and k + 1,
    the drop is

        exp(-(t - b) sigma_2) (b - a) [expm1(-(t - b)(sigma_1 - sigma_2)) phi((b - a) sigma_1)
                                       + phi((b - a) sigma_1) - phi((b - a) sigma_2)],

    two negative terms, the second from ``_phi_gap``, so nothing cancels.
    """
    if not 0 <= a < b <= t < math.inf:
        raise ValueError(f"forcing piece [{a}, {b}] must satisfy 0 <= a < b <= t = {t} < inf")
    length, tau = b - a, t - b
    tau_err = (t - tau) - b  # t - b = tau + tau_err exactly, as t >= b >= 0

    def value(k: int) -> float:
        sigma = float(symbol_value(k, order))
        return _decay(tau, tau_err, sigma) * length * _phi(length * sigma)

    def drop(k: int) -> float:
        upper, lower = symbol_value(k, order), symbol_value(k + 1, order)
        sigma_1, sigma_2, gap = float(upper), float(lower), float(upper - lower)
        phi_1 = _phi(length * sigma_1)
        inner = math.expm1(-tau * gap) * phi_1 + _phi_gap(
            length * sigma_1, length * sigma_2, length * gap
        )
        return _decay(tau, tau_err, sigma_2) * length * inner

    return RadialMultiplier(order.ctx, value, drop)


def solve_cauchy(
    u0: BruhatSchwartzFunction, t: float, order: BesselOrder
) -> BruhatSchwartzFunction:
    """Propagate an initial datum by the semigroup exp(-t * multiplier);
    t = 0 is the identity."""
    if not t >= 0:
        raise ValueError(f"time t = {t} must be nonnegative")
    if t == 0:
        return u0
    return semigroup_multiplier(t, order).apply(u0)


class EvolutionProblem(FrozenValue):
    """Inhomogeneous Cauchy data: initial datum, stepwise forcing, horizon.

    The forcing schedule is a sorted tuple of (time, function) pairs read as
    a step function of time, each function in force from its tag to the
    next; an empty schedule means the homogeneous problem.  The horizon and
    the tags are numbers, not bools.  ``steps`` (an even int, at least 2)
    is validated but not read: the forcing integral is taken in closed
    form.  Immutable; == and hash compare the four fields.
    """

    _fields = ("u0", "horizon", "forcing", "steps")

    def __init__(
        self, u0: BruhatSchwartzFunction, horizon: float, forcing: tuple = (), steps: int = 64
    ) -> None:
        if isinstance(horizon, bool):
            raise ValueError(f"horizon = {horizon} must be a number, not a bool")
        if not horizon > 0:
            raise ValueError(f"horizon = {horizon} must be positive")
        if type(steps) is not int or steps < 2 or steps % 2:
            raise ValueError(f"steps = {steps} must be a positive even count")
        times = [s for s, _ in forcing]
        if times != sorted(times):
            raise ScheduleError("forcing schedule must be sorted by time")
        if times and times[0] > 0:
            raise ScheduleError(f"forcing schedule starts at {times[0]} > 0, leaving a gap at the origin")
        for s, f in forcing:
            if isinstance(s, bool):
                raise ValueError(f"forcing tag {s} must be a number, not a bool")
            if f.ctx != u0.ctx:
                raise ValueError("forcing functions must share the initial datum's context")
            if not 0 <= s < horizon:
                raise ScheduleError(f"forcing tag {s} outside [0, horizon)")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "forcing", forcing)
        object.__setattr__(self, "steps", steps)


def duhamel(
    problem: EvolutionProblem, order: BesselOrder, times: Sequence[float]
) -> list:
    """Mild solutions u(t) = T(t) u0 + integral of T(t-s) f(s) ds.

    The forcing is a step function, so the integral is a sum over the
    schedule's pieces f_k in force on [a, b], b cut at t: each is
    ``forcing_multiplier(a, b, t)`` applied to f_k, with no quadrature error.
    Each time with an active piece is one ``linear_combination`` of the pair
    (semigroup, u0) and one (multiplier, f_k) pair per active piece, so one
    lockstep walk of their tries; with no active piece the result is
    ``solve_cauchy``'s, as is.
    """
    if not times:
        raise ValueError("at least one evaluation time is required")
    for t in times:
        if not 0 <= t < math.inf:
            raise ValueError(f"evaluation time {t} must be finite and nonnegative")
        if t > problem.horizon:
            raise ValueError(f"evaluation time {t} exceeds the horizon {problem.horizon}")
    ends = [tag for tag, _ in problem.forcing[1:]]
    results = []
    for t in times:
        pieces = [
            (forcing_multiplier(a, min(b, t), t, order), f)
            for (a, f), b in zip(problem.forcing, ends + [t])
            if min(b, t) > a and f.terms
        ]
        if pieces:
            results.append(linear_combination([(semigroup_multiplier(t, order), problem.u0)] + pieces))
        else:
            results.append(solve_cauchy(problem.u0, t, order))
    return results
