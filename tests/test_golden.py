"""Pinned outputs of the three operators, so that a change of the exact or
float arithmetic cannot move a serialized result unseen.

Each hash is the sha256 of the ``serialize`` texts, joined by newlines, of
one operator on ``random_test_function`` seeds 0-9 (complex coefficients)
at one (p, n, alpha) grid point.  They were recorded with ``ExactComplex``
held as two ``Fraction`` parts, before it became one Gaussian rational.
"""
import hashlib
from fractions import Fraction

import pytest

from padic_bessel.bessel import BesselOrder, apply_bessel, resolvent
from padic_bessel.heat import solve_cauchy
from padic_bessel.padic import PrimeContext
from padic_bessel.schwartz import RandomFunctionConfig, random_test_function, serialize

OPERATORS = {
    "apply_bessel": lambda order, f: apply_bessel(order, f),
    "resolvent": lambda order, f: resolvent(order, Fraction(1, 2), f),
    "solve_cauchy": lambda order, f: solve_cauchy(f, 0.7, order),
}

GOLDEN = {
    ("apply_bessel", 2, 1, 2.0): "ceaa71b3c08e664c2ed8226384e707ecbf7988128986fdefe0a7c9726932d600",
    ("apply_bessel", 3, 1, 3.0): "3b35500d6606e80bf2d2d3457595d7e4a2037198d7f642398929751e49566f11",
    ("apply_bessel", 2, 2, 4.0): "5d311193bc7d22eb73acd7a69806ec279b93079fd9fcad0aa99ffc101fbf83e5",
    ("apply_bessel", 5, 1, 2.0): "5aa3e83d16b3f05a811af9b8f5e3f57635f924a1ae31e8ce7cfe3ce3ce5dbd10",
    ("apply_bessel", 3, 2, 2.5): "4f9994744f5ca8ea1fee9a97acf69e9b7c6f6d7638326a0a06ba1c5569a071a5",
    ("resolvent", 2, 1, 2.0): "3280eb6c2cff858952165d369403ff67ab3a65eefdd30ace102c28b301c1eccd",
    ("resolvent", 3, 1, 3.0): "467945b8de683144a04ab24a851ea78cf8fd8f6f8f9c71ef6118e52c91d27b59",
    ("resolvent", 2, 2, 4.0): "956afc34f08ffb0bfa6a9d7a5c04b0e07266abcb2da0a11c10d128093dcb12df",
    ("resolvent", 5, 1, 2.0): "3eee7d77af107ba2f716a96b1d805dd1efbf80a75c4d9aaaffd9d82f0cd82bad",
    ("resolvent", 3, 2, 2.5): "0c00ae6482d717751cb28871e835b3b66816e7511094aaecf41ab2aaeed4f5c2",
    ("solve_cauchy", 2, 1, 2.0): "7a13d59f18a68a2403d2313fc8ea6f186d86950f61503550d9a0b64b6bb7e966",
    ("solve_cauchy", 3, 1, 3.0): "39e65523ac88626bbdddcd592274f5a26664d006dd283ccaf47d124380fcdbd7",
    ("solve_cauchy", 2, 2, 4.0): "f43b743bde3ef5737b88913c238cd30ac275e1800cd579065f586676719e5d3a",
    ("solve_cauchy", 5, 1, 2.0): "8be5fc2f4bf5dbfbffe20f8d11c4b395c671b32cf84ee7a6df322c64565f5559",
    ("solve_cauchy", 3, 2, 2.5): "d443e84385fcf26099856cab37cc1e5cdc2c74912c874670d6732a1ae175e6c5",
}


@pytest.mark.parametrize("name,p,n,alpha", sorted(GOLDEN))
def test_operator_outputs_match_their_pinned_hashes(name, p, n, alpha):
    order = BesselOrder(alpha, PrimeContext(p, n))
    config = RandomFunctionConfig(complex_coeffs=True)
    texts = [serialize(OPERATORS[name](order, random_test_function(s, order.ctx, config))) for s in range(10)]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == GOLDEN[name, p, n, alpha]
