"""Exact arithmetic on Q_p and Q_p^n over rational coordinates.

Points are rational vectors. Valuations, norm exponents and Haar measures
are carried as integers and ``Fraction`` values, so every metric statement
(membership, nesting, shell measure, character phase) is decided exactly;
floating point enters only through transcendental constants downstream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]
Rational = Union[int, Fraction]

#: valuation of 0 (larger than every integer)
ORD_INF = math.inf
#: norm exponent of the zero vector ("the norm is 0")
ZERO_NORM = -math.inf


class ContextMismatchError(ValueError):
    """Operands were built over different (p, n) contexts."""


#: the first 13 primes, the Miller-Rabin bases of ``is_prime``
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: the least odd composite that is a strong probable prime to all of them
#: (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime
#: bases", Math. Comp. 86, 2017), so ``is_prime`` is exact below it
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test for p < PRIME_BOUND, on the first 13
    primes as bases; larger p raise ValueError, undecided."""
    if p < 2:
        return False
    if p >= PRIME_BOUND:
        raise ValueError(f"p = {p} is not below {PRIME_BOUND}, where primality is decided")
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class PrimeContext:
    """The ambient space Q_p^n: a prime p and a dimension n >= 1."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"p = {self.p!r} is not a prime integer")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"dimension n = {self.n!r} must be a positive integer")

    def p_power(self, k: int) -> Fraction:
        """p**k as an exact rational (k may be negative)."""
        return Fraction(self.p) ** k


def _int_valuation(m: int, p: int) -> int:
    """Exponent of p in the nonzero integer m by O(log v) big-integer
    divisions: by p, p**2, p**4, ... while they divide, then by the same
    powers downwards.  One division per unit would divide a v-digit integer
    v times.  An exact power of p, the denominator of every canonical
    center, is found with one power instead."""
    m = abs(m)
    if m % p:
        return 0
    k = round(math.log(m, p))
    if p**k == m:
        return k
    v = 0
    powers = []
    q = p
    while m % q == 0:
        m //= q
        v += 1 << len(powers)
        powers.append(q)
        q = q * q
    for k in range(len(powers) - 1, -1, -1):
        if m % powers[k] == 0:
            m //= powers[k]
            v += 1 << k
    return v


def valuation(x: Rational, p: int) -> Union[int, float]:
    """p-adic order of a rational: x = p**v * (a/b) with p coprime to a, b.

    Returns ORD_INF for x = 0.
    """
    x = Fraction(x)
    if x == 0:
        return ORD_INF
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def norm_exp_of(x: Rational, p: int) -> Union[int, float]:
    """Exponent m with |x|_p = p**m, or ZERO_NORM for x = 0."""
    v = valuation(x, p)
    return ZERO_NORM if v == ORD_INF else -v


def reduce_mod_ball(x: Rational, radius_exp: int, p: int) -> Fraction:
    """Canonical representative of x modulo the ball of radius p**radius_exp at 0.

    The class of x in Q_p / p**(-radius_exp) Z_p is represented by the digits
    of x strictly below the modulus, extracted with a modular inverse of the
    denominator.  The result lies in [0, p**(-radius_exp)) and differs from
    x by an element of the ball.
    """
    x = Fraction(x)
    mu = -radius_exp
    v = valuation(x, p)
    if v >= mu:
        return Fraction(0)
    g = int(v)
    k = mu - g
    a, b = x.numerator, x.denominator
    a //= p ** _int_valuation(a, p)
    b //= p ** _int_valuation(b, p)
    u = a * pow(b, -1, p**k) % p**k
    return u * Fraction(p) ** g


def fractional_part(x: Rational, p: int) -> Fraction:
    """The p-adic fractional part {x}_p: the digits at negative powers of p.

    Zero when x = 0 or the valuation is nonnegative; otherwise a rational
    in [0, 1) with denominator a power of p.
    """
    return reduce_mod_ball(x, 0, p)


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


EC_ZERO = ExactComplex(0, 0)
EC_ONE = ExactComplex(1, 0)


def character_from_phase(q: Fraction) -> ExactComplex:
    """exp(2*pi*i*q) for a rational q, exact whenever q is a quarter."""
    q = q % 1
    if q == 0:
        return EC_ONE
    if 2 * q == 1:
        return ExactComplex(-1, 0)
    if 4 * q == 1:
        return ExactComplex(0, 1)
    if 4 * q == 3:
        return ExactComplex(0, -1)
    angle = 2.0 * math.pi * float(q)
    return ExactComplex(math.cos(angle), math.sin(angle))


@dataclass(frozen=True, slots=True)
class PAdicVector:
    """A point of Q_p^n with exact rational coordinates."""

    coords: tuple
    ctx: PrimeContext

    @classmethod
    def of(cls, ctx: PrimeContext, *coords: Rational) -> "PAdicVector":
        if len(coords) != ctx.n:
            raise ValueError(f"expected {ctx.n} coordinates, got {len(coords)}")
        return cls(tuple(Fraction(c) for c in coords), ctx)

    @classmethod
    def zero(cls, ctx: PrimeContext) -> "PAdicVector":
        return cls((Fraction(0),) * ctx.n, ctx)

    def _check(self, other: "PAdicVector") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} != {other.ctx}")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def norm_exp(self) -> Union[int, float]:
        """m with ||x||_p = p**m (max over coordinates), or ZERO_NORM."""
        return max(norm_exp_of(c, self.ctx.p) for c in self.coords)

    @property
    def min_valuation(self) -> Union[int, float]:
        return min(valuation(c, self.ctx.p) for c in self.coords)

    def __add__(self, other: "PAdicVector") -> "PAdicVector":
        self._check(other)
        return PAdicVector(tuple(a + b for a, b in zip(self.coords, other.coords)), self.ctx)

    def __sub__(self, other: "PAdicVector") -> "PAdicVector":
        self._check(other)
        return PAdicVector(tuple(a - b for a, b in zip(self.coords, other.coords)), self.ctx)

    def __neg__(self) -> "PAdicVector":
        return PAdicVector(tuple(-a for a in self.coords), self.ctx)


@dataclass(frozen=True, slots=True)
class Ball:
    """The ball {x : ||x - center||_p <= p**radius_exp}.

    Two balls over one context are disjoint, equal, or nested; membership
    and all relations are exact.  ``known_canonical`` records that the
    center is already the reduced representative (digit constructions
    preserve this), sparing the reduction on hot paths; it never affects
    equality.
    """

    center: PAdicVector
    radius_exp: int
    known_canonical: bool = field(default=False, compare=False, repr=False)

    @property
    def ctx(self) -> PrimeContext:
        return self.center.ctx

    @property
    def measure(self) -> Fraction:
        return self.ctx.p_power(self.radius_exp * self.ctx.n)

    def canonical(self) -> "Ball":
        """Same ball with the center reduced to its canonical representative."""
        if self.known_canonical:
            return self
        p = self.ctx.p
        coords = tuple(reduce_mod_ball(c, self.radius_exp, p) for c in self.center.coords)
        center = self.center if coords == self.center.coords else PAdicVector(coords, self.ctx)
        return Ball(center, self.radius_exp, known_canonical=True)

    def key(self):
        c = self.canonical()
        return (c.radius_exp, c.center.coords)

    def contains(self, x: PAdicVector) -> bool:
        return (x - self.center).norm_exp <= self.radius_exp

    def relation(self, other: "Ball") -> str:
        """One of 'disjoint', 'equal', 'contains', 'inside'."""
        d = (self.center - other.center).norm_exp
        if d > max(self.radius_exp, other.radius_exp):
            return "disjoint"
        if self.radius_exp == other.radius_exp:
            return "equal"
        return "contains" if self.radius_exp > other.radius_exp else "inside"


def ball_measure(radius_exp: int, ctx: PrimeContext) -> Fraction:
    """Haar measure of a ball of radius p**radius_exp (unit ball has mass 1)."""
    return ctx.p_power(radius_exp * ctx.n)


def shell_measure(k: int, ctx: PrimeContext) -> Fraction:
    """Measure of the shell {||x||_p = p**k}: p**(kn) - p**((k-1)n)."""
    return ctx.p_power(k * ctx.n) - ctx.p_power((k - 1) * ctx.n)


def shell_character_integral(
    k: int, xi_norm_exp: Union[int, float], ctx: PrimeContext
) -> Fraction:
    """Integral of chi_p(xi . w) over the shell {||w||_p = p**k}.

    Depends on xi only through its norm exponent m: the full shell measure
    for m <= -k, the single cancelling value -p**((k-1)n) at m = -k + 1,
    and 0 beyond.  The zero vector (m = ZERO_NORM) falls in the first case.
    """
    if xi_norm_exp <= -k:
        return shell_measure(k, ctx)
    if xi_norm_exp == -k + 1:
        return -ctx.p_power((k - 1) * ctx.n)
    return Fraction(0)
