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
Simpson quadrature of the propagated forcing.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence, Union

from padic_bessel.padic import (
    EC_ZERO,
    ZERO_NORM,
    ExactComplex,
    PrimeContext,
    ball_measure,
    shell_measure,
)
from padic_bessel.schwartz import BruhatSchwartzFunction, linear_combination
from padic_bessel.spectral import (
    RadialMultiplier,
    RadialProfile,
    inverse_fourier,
    radial_transform,
)
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
    is strictly negative, so the sum suffers no cancellation.
    """
    _require_positive_time(t)
    p, n = order.ctx.p, order.ctx.n
    alpha = order.alpha
    shrink = p ** (-alpha)
    total = 0.0
    i = 0
    while True:
        x_i = t * p ** (-i * alpha)
        total += p ** (i * n) * math.exp(-x_i * shrink) * math.expm1(-x_i * (1.0 - shrink))
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


def default_depth(t: float, order: BesselOrder, tol: float = 1e-13) -> int:
    """Smallest depth whose tail envelope drops below tol."""
    depth = 0
    while tail_envelope(depth, t, order) > tol:
        depth += 1
        if depth > 100_000:
            raise AssertionError("tail envelope failed to decay")
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
        deep_cutoff=0,
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
        float(shell_measure(-g, ctx)) * z_closed(g, t, order) for g in range(depth + 1)
    )


def distributional_mass(t: float, order: BesselOrder) -> float:
    """Mass of the full kernel (point mass plus function part): exp(-t)."""
    return 1.0 + z_mass(t, order)


# -- convolution of kernel parts ----------------------------------------------


def heat_shell_values(t: float, order: BesselOrder) -> Callable[[int], float]:
    """Shell-profile accessor for the kernel's function part (0 above k = 0)."""
    _require_positive_time(t)

    def value(k: int) -> float:
        return 0.0 if k >= 1 else z_closed(-k, t, order)

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

    Computed on the frequency side: the inverse transform of phi has compact
    support, and the transform of the function part is expm1(-t * symbol),
    constant on each cell, so the pairing is a finite exact-measure sum.
    The full kernel pairs to phi(0) plus this value and tends to phi(0) as
    t drops to 0.
    """
    _require_positive_time(t)
    psi = inverse_fourier(phi)
    ctx = order.ctx

    def w(m: Union[int, float]) -> float:
        return math.expm1(-t * float(symbol_value(m, order)))

    total = EC_ZERO
    for c, ball in psi.terms:
        r = ball.radius_exp
        a = ball.center
        if not a.is_zero:
            total = total + c * (w(a.norm_exp) * float(ball_measure(r, ctx)))
        elif r <= 0:
            total = total + c * (w(0) * float(ball_measure(r, ctx)))
        else:
            piece = w(0)
            for k in range(1, r + 1):
                piece += w(k) * float(shell_measure(k, ctx))
            total = total + c * piece
    return total


# -- evolution ------------------------------------------------------------------


def semigroup_multiplier(t: float, order: BesselOrder) -> RadialMultiplier:
    """exp(-t * multiplier) as a radial multiplier.

    Shell differences are exp * expm1 products, as in ``z_shells``, so none
    loses significance when both exponentials are close to 1.
    """
    if t < 0:
        raise ValueError(f"time t = {t} must be nonnegative")

    def value(k: int) -> float:
        return math.exp(-t * float(symbol_value(k, order)))

    def drop(k: int) -> float:
        upper, lower = symbol_value(k, order), symbol_value(k + 1, order)
        return math.exp(-t * float(lower)) * math.expm1(-t * float(upper - lower))

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
    return semigroup_multiplier(t, order).apply(u0)


@dataclass(frozen=True)
class EvolutionProblem:
    """Inhomogeneous Cauchy data: initial datum, stepwise forcing, horizon.

    The forcing schedule is a sorted tuple of (time, function) pairs read as
    a left-continuous step function of time; an empty schedule means the
    homogeneous problem.  Quadrature is composite Simpson with ``steps``
    panels per evaluation.
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

    def forcing_at(self, s: float) -> Optional[BruhatSchwartzFunction]:
        if not self.forcing:
            return None
        idx = bisect_right([tag for tag, _ in self.forcing], s) - 1
        if idx < 0:
            raise ScheduleError(f"no forcing defined at time {s}")
        return self.forcing[idx][1]


def duhamel(
    problem: EvolutionProblem, order: BesselOrder, times: Sequence[float]
) -> list:
    """Mild solutions u(t) = T(t) u0 + integral of T(t-s) f(s) ds.

    The integral is composite Simpson over the requested time; the forcing
    is sampled at the nodes and each sample is propagated by the semigroup.
    Fourth-order accurate for forcing smooth in time.
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
        if problem.forcing and t > 0:
            n_steps = problem.steps
            h = t / n_steps
            for i in range(n_steps + 1):
                # i * h can land one rounding step past t at the last node
                s = t if i == n_steps else i * h
                weight = (h / 3.0) * (1 if i in (0, n_steps) else 4 if i % 2 else 2)
                f_s = problem.forcing_at(s)
                if f_s is not None and f_s.terms:
                    pieces.append((weight, solve_cauchy(f_s, t - s, order)))
        results.append(linear_combination(pieces, ctx=problem.u0.ctx))
    return results
