"""Exact Bessel-potential operator calculus and heat-semigroup evolution on Q_p^n."""

from padic_bessel.padic import (
    Ball,
    ExactComplex,
    PAdicVector,
    PrimeContext,
)
from padic_bessel.schwartz import (
    BruhatSchwartzFunction,
    RandomFunctionConfig,
    deserialize,
    random_test_function,
    serialize,
)
from padic_bessel.spectral import RadialMultiplier, RadialProfile, fourier, inverse_fourier
from padic_bessel.bessel import BesselOrder, apply_bessel, resolvent
from padic_bessel.heat import EvolutionProblem, duhamel, solve_cauchy

__all__ = [
    "Ball",
    "BesselOrder",
    "BruhatSchwartzFunction",
    "EvolutionProblem",
    "ExactComplex",
    "PAdicVector",
    "PrimeContext",
    "RadialMultiplier",
    "RadialProfile",
    "RandomFunctionConfig",
    "apply_bessel",
    "deserialize",
    "duhamel",
    "fourier",
    "inverse_fourier",
    "random_test_function",
    "resolvent",
    "serialize",
    "solve_cauchy",
]
