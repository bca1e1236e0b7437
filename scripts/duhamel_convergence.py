"""Step-halving study for the forced-evolution quadrature.

With unit-ball forcing the solution value at the origin solves a scalar
problem u' = -u + g(s), so the defect against its closed form isolates the
quadrature error.  Two cases: constant forcing g = 1, reference
1 - exp(-t); and step forcing g = 1 on [0, t/4), 0 after, reference
exp(-3t/4) - exp(-t).  The quadrature splits at the step, so both ratio
columns should sit near 16 (fourth order).

Usage: python scripts/duhamel_convergence.py [t]
"""
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from padic_bessel.padic import PAdicVector, PrimeContext  # noqa: E402
from padic_bessel.schwartz import BruhatSchwartzFunction  # noqa: E402
from padic_bessel.bessel import BesselOrder  # noqa: E402
from padic_bessel.heat import EvolutionProblem, duhamel  # noqa: E402

t = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
ctx = PrimeContext(2, 1)
order = BesselOrder(2.0, ctx)
omega = BruhatSchwartzFunction.unit_ball(ctx)
zero = BruhatSchwartzFunction.zero(ctx)
origin = PAdicVector.zero(ctx)
cases = (
    ("constant", ((0.0, omega),), 1 - math.exp(-t)),
    ("step", ((0.0, omega), (t / 4, zero)), math.exp(-0.75 * t) - math.exp(-t)),
)

print("forcing,steps,defect,ratio")
for name, forcing, reference in cases:
    previous = None
    for steps in (8, 16, 32, 64, 128, 256):
        problem = EvolutionProblem(
            u0=zero, horizon=max(t, 1.0) * 2, forcing=forcing, steps=steps
        )
        (u,) = duhamel(problem, order, [t])
        defect = abs(float(u.evaluate(origin).re) - reference)
        ratio = "" if previous is None else f"{previous / defect:.2f}"
        print(f"{name},{steps},{defect:.6e},{ratio}")
        previous = defect
