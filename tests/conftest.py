import sys
from fractions import Fraction
from itertools import product as digit_product
from pathlib import Path

src = Path(__file__).resolve().parents[1] / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))

from padic_bessel.padic import Ball, PAdicVector


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
