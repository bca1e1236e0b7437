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

from padic_bessel.padic import Ball, Number, PAdicVector


def digit_children(ball):
    """The p**n sub-balls of radius exponent r - 1 of a ball, in digit order.

    A canonical parent yields canonical children: the new digit sits at
    exactly the power the finer modulus exposes.
    """
    ctx = ball.ctx
    offset_scale = Fraction(ctx.p) ** (-ball.radius_exp)
    for digits in digit_product(range(ctx.p), repeat=ctx.n):
        coords = tuple(c + d * offset_scale for c, d in zip(ball.center.coords, digits))
        yield Ball(PAdicVector(coords, ctx), ball.radius_exp - 1, known_canonical=ball.known_canonical)


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
