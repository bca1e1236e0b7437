"""Heat kernel in closed form, its shell-sum oracle, and Cauchy evolution.

The evolution semigroup scales frequencies by exp(-t * multiplier), which
decays, so the flow is a contraction.  Its kernel splits as a unit point
mass at 0 plus an integrable function part supported on the unit ball; the
function part is negative everywhere on its support, carries mass
exp(-t) - 1, and is computed by two independent routes that the tests pin
against each other:

* the closed telescoping sum over shells (``z_closed``), evaluated in a
  product form built from expm1 so no significance is lost, and
* the regularized inverse transform of the multiplier (``z_oracle``),
  a shell sum against exact character integrals.

Evolution applies exp(-t * multiplier) through concentric balls
(``RadialMultiplier``); inhomogeneous problems are integrated by composite
Simpson quadrature of the propagated forcing, split at the forcing's jumps,
with the nodes of each forcing piece summed into one multiplier.  The
pairing of the function part with a test function is the multiplier
expm1(-t * multiplier) on the same route, read at the origin, so no
function here calls the Fourier transform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence, Union

from padic_bessel.padic import (
    ZERO_NORM,
    ExactComplex,
    PAdicVector,
    PrimeContext,
    shell_measure,
)
from padic_bessel.schwartz import BruhatSchwartzFunction, linear_combination
from padic_bessel.spectral import RadialMultiplier, RadialProfile, radial_transform
from padic_bessel.bessel import BesselOrder, symbol_value


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
    total = 0.0
    i = 0
    while True:
        x_i = t * p ** (-i * alpha)
        y_i = x_i * (1.0 - shrink)
        ratio = math.expm1(-y_i) / y_i if y_i else -1.0
        total += t * (1.0 - shrink) * p ** (i * (n - alpha)) * math.exp(-x_i * shrink) * ratio
        yield total
        i += 1


def z_closed(gamma: int, t: float, order: BesselOrder) -> float:
    """Function part of the heat kernel on the shell ||x|| = p**(-gamma);
    the gamma-th value of ``z_shells``."""
    if gamma < 0:
        raise ValueError(f"shell index gamma = {gamma} must be >= 0")
    return next(islice(z_shells(t, order), gamma, None))


def z_value(norm_exp: Union[int, float], t: float, order: BesselOrder) -> float:
    """Kernel function part by norm exponent: exactly 0 outside the unit ball."""
    _require_positive_time(t)
    if norm_exp == ZERO_NORM:
        return z_origin_limit(t, order)
    if norm_exp >= 1:
        return 0.0
    return z_closed(-int(norm_exp), t, order)


def tail_envelope(depth: int, t: float, order: BesselOrder) -> float:
    """Geometric bound on the shell-sum remainder beyond the given depth:
    t (1 - p**-alpha) p**(depth (n - alpha)) / (1 - p**(n - alpha))."""
    p, n = order.ctx.p, order.ctx.n
    alpha = order.alpha
    return (
        t * (1.0 - p ** (-alpha)) * p ** (depth * (n - alpha)) / (1.0 - p ** (n - alpha))
    )


MAX_DEPTH = 100_000


def default_depth(t: float, order: BesselOrder, tol: float = 1e-13) -> int:
    """Smallest depth whose tail envelope drops below tol.

    The envelope is C q**depth with q = p**(n - alpha) < 1, so the depth is
    log(C / tol) / log(1 / q) rounded up; the comparisons after it absorb the
    rounding of the logarithms.  Raises ValueError past MAX_DEPTH, which
    alpha close to n reaches.
    """
    p, n = order.ctx.p, order.ctx.n
    decay = (order.alpha - n) * math.log(p)
    needed = math.log(tail_envelope(0, t, order) / tol) / decay
    if needed > MAX_DEPTH:
        raise ValueError(
            f"heat kernel tail decays too slowly at alpha = {order.alpha}: "
            f"depth {needed:.3g} needed for tolerance {tol}, at most {MAX_DEPTH} allowed"
        )
    depth = max(0, math.ceil(needed))
    if depth > 0 and tail_envelope(depth - 1, t, order) <= tol:
        depth -= 1
    elif tail_envelope(depth, t, order) > tol:
        depth += 1
    return depth


def z_origin_limit(t: float, order: BesselOrder) -> float:
    """Limit of the shell values toward the origin (converged sum)."""
    return z_closed(default_depth(t, order, tol=1e-18), t, order)


def multiplier_profile(t: float, order: BesselOrder) -> RadialProfile:
    """exp(-t * multiplier) as a radial profile with base 1.

    The residual expm1(-t * symbol) is what the transform weights against
    huge character integrals, so the cancelling constant bulk stays exact.
    """
    if t < 0:
        raise ValueError(f"time t = {t} must be nonnegative")

    def resid(k: int) -> float:
        return math.expm1(-t * float(symbol_value(k, order)))

    return RadialProfile(
        ctx=order.ctx,
        resid=resid,
        base=1,
        deep_pieces=((math.expm1(-t), 0),),
        support_max=None,
        envelope=(t, -order.alpha),
        constant_on_unit_ball=True,
    )


def z_oracle(gamma: int, t: float, order: BesselOrder) -> float:
    """Kernel function part by the independent route: the regularized
    inverse transform of the multiplier, summed shell by shell against
    exact character integrals.  Terminates by itself one shell past gamma."""
    if gamma < 0:
        raise ValueError(f"shell index gamma = {gamma} must be >= 0")
    _require_positive_time(t)
    value, _tail = radial_transform(multiplier_profile(t, order), -gamma)
    return value


def z_mass(t: float, order: BesselOrder, depth: Optional[int] = None) -> float:
    """Integral of the kernel's function part, which is exp(-t) - 1.

    Swapping the shell and telescoping indices turns the double sum into
    the plain series sum_i (E_i - E_{i+1}), summed here term by term to the
    certified depth.
    """
    _require_positive_time(t)
    if depth is None:
        depth = default_depth(t, order)
    p = order.ctx.p
    alpha = order.alpha
    shrink = p ** (-alpha)
    total = 0.0
    for i in range(depth + 1):
        x_i = t * p ** (-i * alpha)
        total += math.exp(-x_i * shrink) * math.expm1(-x_i * (1.0 - shrink))
    return total


def z_mass_direct(t: float, order: BesselOrder, depth: int) -> float:
    """Cross-check route for the mass: shell measures against shell values."""
    _require_positive_time(t)
    ctx = order.ctx
    return sum(
        float(shell_measure(-g, ctx)) * z
        for g, z in zip(range(depth + 1), z_shells(t, order))
    )


def distributional_mass(t: float, order: BesselOrder) -> float:
    """Mass of the full kernel (point mass plus function part): exp(-t)."""
    return 1.0 + z_mass(t, order)


# -- convolution of kernel parts ----------------------------------------------


def heat_shell_values(t: float, order: BesselOrder) -> Callable[[int], float]:
    """Shell-profile accessor for the kernel's function part (0 above k = 0).

    Values come from one ``z_shells`` running sum, kept in a list that grows
    only as deep as the deepest shell asked for, so each equals ``z_closed``
    and a sweep over the shells costs linear time.
    """
    _require_positive_time(t)
    shells = z_shells(t, order)
    values: list = []

    def value(k: int) -> float:
        if k >= 1:
            return 0.0
        while len(values) <= -k:
            values.append(next(shells))
        return values[-k]

    return value


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
    f_prof = heat_shell_values(t1, order)
    g_prof = heat_shell_values(t2, order)
    bound_f = abs(z_origin_limit(t1, order)) + tail_envelope(0, t1, order)
    bound_g = abs(z_origin_limit(t2, order)) + tail_envelope(0, t2, order)
    m = -gamma
    depth = gamma + 2
    while True:
        deep_volume = p ** ((-depth) * n)
        tail = (abs(g_prof(m)) * bound_f + abs(f_prof(m)) * bound_g) * deep_volume
        if tail <= tol or depth > 10_000:
            break
        depth += max(1, int(math.ceil(math.log(tail / tol, p) / n)))
    lhs = radial_convolution_at(f_prof, g_prof, m, ctx, depth)
    rhs = (
        z_closed(gamma, t1 + t2, order)
        - z_closed(gamma, t1, order)
        - z_closed(gamma, t2, order)
    )
    return abs(lhs - rhs), tail


# -- distributional pairing ----------------------------------------------------


def weak_pairing(t: float, phi: BruhatSchwartzFunction, order: BesselOrder) -> ExactComplex:
    """Distributional pairing of the kernel's function part with phi.

    The function part is the inverse transform of expm1(-t * symbol), and
    it is radial, so the pairing is that multiplier applied to phi through
    concentric balls and read at the origin.  The shell values come from
    expm1 rather than from the semigroup minus the identity, so a small t
    loses no significance; the shell differences are the semigroup's.  The
    full kernel pairs to phi(0) plus this value and tends to phi(0) as t
    drops to 0.
    """
    _require_positive_time(t)
    semigroup = semigroup_multiplier(((1, t),), order)
    kernel = RadialMultiplier(
        order.ctx,
        lambda k: math.expm1(-t * float(symbol_value(k, order))),
        semigroup.drop,
    )
    return kernel.apply(phi).evaluate(PAdicVector.zero(order.ctx))


# -- evolution ------------------------------------------------------------------


def semigroup_multiplier(nodes: Sequence[tuple], order: BesselOrder) -> RadialMultiplier:
    """The weighted sum of semigroups sum_i w_i exp(-t_i * multiplier), for
    (weight, time) nodes, as one radial multiplier.

    Shell differences are sums of exp * expm1 products, as in ``z_shells``,
    so none loses significance when both exponentials are close to 1; with
    nonnegative weights every product has the same sign, so the sum does not
    cancel either.  One node of weight 1 is the semigroup at that time.
    """
    for _, tau in nodes:
        if tau < 0:
            raise ValueError(f"time t = {tau} must be nonnegative")

    def value(k: int) -> float:
        sigma = float(symbol_value(k, order))
        return math.fsum(w * math.exp(-tau * sigma) for w, tau in nodes)

    def drop(k: int) -> float:
        upper, lower = symbol_value(k, order), symbol_value(k + 1, order)
        low, gap = float(lower), float(upper - lower)
        return math.fsum(w * (math.exp(-tau * low) * math.expm1(-tau * gap)) for w, tau in nodes)

    return RadialMultiplier(order.ctx, value, drop)


def solve_cauchy(
    u0: BruhatSchwartzFunction, t: float, order: BesselOrder
) -> BruhatSchwartzFunction:
    """Propagate an initial datum by the semigroup exp(-t * multiplier);
    t = 0 is the identity."""
    if t < 0:
        raise ValueError(f"time t = {t} must be nonnegative")
    if t == 0:
        return u0.canonicalize()
    return semigroup_multiplier(((1, t),), order).apply(u0)


@dataclass(frozen=True)
class EvolutionProblem:
    """Inhomogeneous Cauchy data: initial datum, stepwise forcing, horizon.

    The forcing schedule is a sorted tuple of (time, function) pairs read as
    a step function of time, each function in force from its tag to the
    next; an empty schedule means the homogeneous problem.  Quadrature is
    composite Simpson with about ``steps`` panels per evaluation.
    """

    u0: BruhatSchwartzFunction
    horizon: float
    forcing: tuple = ()
    steps: int = 64

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ValueError(f"horizon = {self.horizon} must be positive")
        if self.steps < 2 or self.steps % 2:
            raise ValueError(f"steps = {self.steps} must be a positive even count")
        times = [s for s, _ in self.forcing]
        if times != sorted(times):
            raise ScheduleError("forcing schedule must be sorted by time")
        if times and times[0] > 0:
            raise ScheduleError(
                f"forcing schedule starts at {times[0]} > 0, leaving a gap at the origin"
            )
        for s, f in self.forcing:
            if f.ctx != self.u0.ctx:
                raise ValueError("forcing functions must share the initial datum's context")
            if not 0 <= s < self.horizon:
                raise ScheduleError(f"forcing tag {s} outside [0, horizon)")


def duhamel_nodes(problem: EvolutionProblem, t: float) -> list:
    """Quadrature of the forcing integral over [0, t], as (forcing piece,
    [(weight, t - s), ...]) for each piece of the schedule active there.

    [0, t] is split at the schedule's tags, so the integrand is smooth on
    every sub-interval and composite Simpson keeps fourth order on step
    forcing.  A sub-interval of length L gets an even panel count near
    steps * L / t, at least 2; without a tag inside (0, t) the nodes are
    s_i = i t / steps.  Each sub-interval's last node is exactly its end.
    """
    if not problem.forcing or t <= 0:
        return []
    tags = [tag for tag, _ in problem.forcing] + [t]
    out = []
    for (a, f), b in zip(problem.forcing, tags[1:]):
        b = min(b, t)
        if b <= a or not f.terms:
            continue
        panels = 2 * max(1, round(problem.steps * (b - a) / (2 * t)))
        h = (b - a) / panels
        nodes = []
        for i in range(panels + 1):
            s = b if i == panels else a + i * h
            weight = (h / 3.0) * (1 if i in (0, panels) else 4 if i % 2 else 2)
            nodes.append((weight, t - s))
        out.append((f, nodes))
    return out


def duhamel(
    problem: EvolutionProblem, order: BesselOrder, times: Sequence[float]
) -> list:
    """Mild solutions u(t) = T(t) u0 + integral of T(t-s) f(s) ds.

    The integral is composite Simpson on the nodes of ``duhamel_nodes``.
    All nodes of one forcing piece f_k add up to one radial multiplier,
    sum_i w_i T(t - s_i), so each time costs one multiplier application for
    u0 and one per active piece.  Fourth-order accurate for step forcing.
    """
    if not times:
        raise ValueError("at least one evaluation time is required")
    for t in times:
        if t < 0:
            raise ValueError(f"evaluation time {t} is negative")
        if t > problem.horizon:
            raise ValueError(f"evaluation time {t} exceeds the horizon {problem.horizon}")
    results = []
    for t in times:
        pieces = [(1, solve_cauchy(problem.u0, t, order))]
        for f, nodes in duhamel_nodes(problem, t):
            pieces.append((1, semigroup_multiplier(nodes, order).apply(f)))
        results.append(linear_combination(pieces, ctx=problem.u0.ctx))
    return results
