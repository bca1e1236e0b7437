"""Exact arithmetic on Q_p and Q_p^n over rational coordinates.

Points are rational vectors. Valuations, norm exponents and Haar measures
are carried as integers and ``Fraction`` values, so every metric statement
(membership, nesting, shell measure, character phase) is decided exactly;
floating point enters only through transcendental constants downstream.
Complex coefficients are ``ExactComplex`` values, an exact one being a
single Gaussian rational (a + b i) / d in lowest terms, so that each sum or
product takes its integer products and one gcd.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Optional, Union

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


class FrozenValue:
    """Base of the immutable value classes.

    A subclass names in ``_fields`` the fields that ==, hash and repr read,
    in order, and its constructor sets each field once through
    ``object.__setattr__``.  == is NotImplemented unless both operands have
    the same class, and compares the field tuples; hash is that of the
    field tuple; repr prints ``Class(field=value, ...)``.  Assigning or
    deleting an attribute raises AttributeError.  A class with
    ``__slots__`` is copied and pickled through its constructor, called
    with its slots in order; the others keep the default, which copies
    their dict.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce_ex__(self, protocol: int) -> tuple:
        if not self.__slots__:
            return super().__reduce_ex__(protocol)
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class PrimeContext(FrozenValue):
    """The ambient space Q_p^n: a prime p and a dimension n >= 1.

    Immutable; == and hash compare (p, n).
    """

    __slots__ = ("p", "n")
    _fields = ("p", "n")

    def __init__(self, p: int, n: int) -> None:
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"p = {p!r} is not a prime integer")
        if type(n) is not int or n < 1:
            raise ValueError(f"dimension n = {n!r} must be a positive integer")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)

    def p_power(self, k: int) -> Fraction:
        """p**k as an exact rational (k may be negative), from a bounded
        cache for |k| <= P_POWER_CACHED."""
        if -P_POWER_CACHED <= k <= P_POWER_CACHED:
            return _p_power(self.p, k)
        return Fraction(self.p) ** k


def check_context(ctx: PrimeContext, other: PrimeContext) -> None:
    """Raise ContextMismatchError unless the two contexts are equal, testing
    identity first: ``!=`` compares the (p, n) field tuples of
    ``FrozenValue``."""
    if ctx is not other and ctx != other:
        raise ContextMismatchError(f"{ctx} != {other}")


#: the largest |k| whose p**k ``PrimeContext.p_power`` caches, so that deep
#: inputs, whose powers run to thousands of digits, cannot grow the cache
P_POWER_CACHED = 64


@lru_cache(maxsize=512)
def _p_power(p: int, k: int) -> Fraction:
    return Fraction(p) ** k


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
    if not isinstance(x, (int, Fraction)):
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
    if x == 0:
        return Fraction(0)
    a, b = x.numerator, x.denominator
    va, vb = _int_valuation(a, p), _int_valuation(b, p)
    g = va - vb  # the valuation of x
    k = -radius_exp - g
    if k <= 0:
        return Fraction(0)
    a //= p**va
    b //= p**vb
    u = a * pow(b, -1, p**k) % p**k
    return u * Fraction(p) ** g


def fractional_part(x: Rational, p: int) -> Fraction:
    """The p-adic fractional part {x}_p: the digits at negative powers of p.

    Zero when x = 0 or the valuation is nonnegative; otherwise a rational
    in [0, 1) with denominator a power of p.
    """
    return reduce_mod_ball(x, 0, p)


class ExactComplex:
    """Complex scalar, exact until an irrational constant (a character value,
    an exponential) brings in floating point.

    An exact value is one Gaussian rational (a + b i) / d: integers a, b and
    d with d > 0 and gcd(a, b, d) = 1, so each value has one triple.  Sums,
    differences and products with an exact value, an int or a ``Fraction``
    take their integer products and one gcd; a sum or difference is taken
    over the larger denominator when it is a multiple of the other.  A value
    with a float part keeps its two parts as given (float, int or
    ``Fraction``) and combines them part by part as Python numbers do, the
    part of an exact operand being a / d; an exact value times a float uses
    a / d and b / d, the correctly rounded floats of its parts.  Instances
    are immutable: ``re`` and ``im`` are read-only, and there is no instance
    dict.
    """

    # (a, b, d) of an exact value; (re, im, 0) of one with a float part
    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Number = 0, im: Number = 0) -> None:
        if isinstance(re, float) or isinstance(im, float):
            self._a, self._b, self._d = re, im, 0
            return
        if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError(f"parts must be int, Fraction or float, got {re!r} and {im!r}")
        # reduced parts over the lcm of their denominators have gcd 1
        d1, d2 = re.denominator, im.denominator
        g = math.gcd(d1, d2)
        self._a, self._b, self._d = re.numerator * (d2 // g), im.numerator * (d1 // g), d1 // g * d2

    @classmethod
    def from_gaussian(cls, a: int, b: int, d: int) -> "ExactComplex":
        """The exact value (a + b i) / d of integers a, b and d != 0."""
        if d == 0:
            raise ZeroDivisionError("ExactComplex denominator is 0")
        return _reduced(a, b, d) if d > 0 else _reduced(-a, -b, -d)

    @property
    def gaussian(self) -> Optional[tuple]:
        """(a, b, d) with the value (a + b i) / d, or None for a value with
        a float part."""
        return (self._a, self._b, self._d) if self._d else None

    @property
    def re(self) -> Number:
        """The real part: an exact whole part reads as an int."""
        return _part(self._a, self._d)

    @property
    def im(self) -> Number:
        """The imaginary part: an exact whole part reads as an int."""
        return _part(self._b, self._d)

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        d, e = self._d, other._d
        if d and e:
            if d == e:
                return _reduced(self._a + other._a, self._b + other._b, d)
            if e % d == 0:  # over the larger denominator, as p-powers often are
                k = e // d
                return _reduced(self._a * k + other._a, self._b * k + other._b, e)
            if d % e == 0:
                k = d // e
                return _reduced(self._a + other._a * k, self._b + other._b * k, d)
            return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)
        if d or e:  # the parts of the exact operand as numbers
            return _make(self.re + other.re, self.im + other.im, 0)
        return _make(self._a + other._a, self._b + other._b, 0)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        if self._d and other._d:  # x + (-y) reduces to the triple of x - y
            return self + -other
        # in floats -0.0 - 0 is -0.0, but -0.0 + -(0) is 0.0: -0 is the int 0
        return _make(self.re - other.re, self.im - other.im, 0)

    def __neg__(self) -> "ExactComplex":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other: Union["ExactComplex", Number]) -> "ExactComplex":
        d = self._d
        if type(other) is ExactComplex:
            e = other._d
            if d and e:
                a, b, c, f = self._a, self._b, other._a, other._b
                return _reduced(a * c - b * f, a * f + b * c, d * e)
            if d or e:
                a, b, c, f = self.re, self.im, other.re, other.im
            else:
                a, b, c, f = self._a, self._b, other._a, other._b
            return _make(a * c - b * f, a * f + b * c, 0)
        if isinstance(other, float):
            if d:
                return _make(self._a / d * other, self._b / d * other, 0)
        elif isinstance(other, (int, Fraction)):
            if d:
                k = other.numerator
                return _reduced(self._a * k, self._b * k, d * other.denominator)
        else:
            return NotImplemented
        # a value with a float part, part by part
        return _make(self._a * other, self._b * other, 0)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        return _make(self._a, -self._b, self._d)

    def abs2(self) -> Number:
        a, b, d = self._a, self._b, self._d
        square = a * a + b * b
        return square if d <= 1 else Fraction(square, d * d)

    def __abs__(self) -> float:
        """sqrt(abs2()), or the hypotenuse of the parts where the square
        leaves the float range."""
        a, b, d = self._a, self._b, self._d
        try:  # int / int rounds as float() of the Fraction abs2 does
            r = math.sqrt((a * a + b * b) / (d * d) if d else float(a * a + b * b))
        except OverflowError:
            r = math.inf
        if r == math.inf:
            return math.hypot(float(self.re), float(self.im))
        return r

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    @property
    def is_exact(self) -> bool:
        return self._d != 0

    def as_complex(self) -> complex:
        d = self._d
        if d:
            return complex(self._a / d, self._b / d)
        return complex(float(self._a), float(self._b))

    def __eq__(self, other: object) -> bool:
        if type(other) is not ExactComplex:
            return NotImplemented
        if self._d and other._d:
            return self._a == other._a and self._b == other._b and self._d == other._d
        return (self.re, self.im) == (other.re, other.im)

    def __ne__(self, other: object) -> bool:
        if type(other) is not ExactComplex:
            return NotImplemented
        if self._d and other._d:
            return self._a != other._a or self._b != other._b or self._d != other._d
        return (self.re, self.im) != (other.re, other.im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"ExactComplex(re={self.re!r}, im={self.im!r})"


_new = object.__new__


def _part(a: Number, d: int) -> Number:
    """a / d, an int when d divides a; d = 0 gives a as it is."""
    if d <= 1:
        return a
    return a // d if a % d == 0 else Fraction(a, d)


def _make(a: Number, b: Number, d: int) -> ExactComplex:
    """The value of slots (a, b, d) as they are: an exact value in lowest
    terms, or d = 0 with parts a and b of which one is a float."""
    z = _new(ExactComplex)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> ExactComplex:
    """The exact value (a + b i) / d, d > 0, by the one gcd of a, b and d."""
    g = math.gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(ExactComplex)  # _make, inlined on the hottest path
    z._a = a
    z._b = b
    z._d = d
    return z


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


class PAdicVector(FrozenValue):
    """A point of Q_p^n with exact rational coordinates.

    Immutable; == and hash compare (coords, ctx).
    """

    __slots__ = ("coords", "ctx")
    _fields = ("coords", "ctx")

    def __init__(self, coords: tuple, ctx: PrimeContext) -> None:
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "ctx", ctx)

    @classmethod
    def of(cls, ctx: PrimeContext, *coords: Rational) -> "PAdicVector":
        if len(coords) != ctx.n:
            raise ValueError(f"expected {ctx.n} coordinates, got {len(coords)}")
        return cls(tuple(Fraction(c) for c in coords), ctx)

    @classmethod
    def zero(cls, ctx: PrimeContext) -> "PAdicVector":
        return cls((Fraction(0),) * ctx.n, ctx)

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
        check_context(self.ctx, other.ctx)
        return PAdicVector(tuple(a + b for a, b in zip(self.coords, other.coords)), self.ctx)

    def __sub__(self, other: "PAdicVector") -> "PAdicVector":
        check_context(self.ctx, other.ctx)
        return PAdicVector(tuple(a - b for a, b in zip(self.coords, other.coords)), self.ctx)

    def __neg__(self) -> "PAdicVector":
        return PAdicVector(tuple(-a for a in self.coords), self.ctx)


class Ball(FrozenValue):
    """The ball {x : ||x - center||_p <= p**radius_exp}.

    Two balls over one context are disjoint, equal, or nested; membership
    is exact.  ``known_canonical`` records that the center is already the
    reduced representative (digit constructions preserve this), sparing the
    reduction on hot paths; it never affects equality or repr.  Immutable;
    == and hash compare (center, radius_exp).
    """

    __slots__ = ("center", "radius_exp", "known_canonical")
    _fields = ("center", "radius_exp")

    def __init__(self, center: PAdicVector, radius_exp: int, known_canonical: bool = False) -> None:
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius_exp", radius_exp)
        object.__setattr__(self, "known_canonical", known_canonical)

    @property
    def ctx(self) -> PrimeContext:
        return self.center.ctx

    @property
    def measure(self) -> Fraction:
        """Haar measure of the ball, p**(radius_exp * n): the unit ball has mass 1."""
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
