"""The 12 value classes take ==, hash, repr and immutability from one base,
``padic.FrozenValue``, and no module writes its own ``__eq__`` beside the
base's and ``ExactComplex``'s, so a new value class cannot bring a copy back."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from padic_bessel.padic import EC_ONE, Ball, FrozenValue, PAdicVector, PrimeContext
from padic_bessel.schwartz import BruhatSchwartzFunction, DigitTrie, RandomFunctionConfig, Supremum
from padic_bessel.spectral import RadialMultiplier, RadialProfile
from padic_bessel.bessel import BesselOrder, PmpReport
from padic_bessel.heat import EvolutionProblem

SRC = Path(__file__).resolve().parents[1] / "src" / "padic_bessel"

CTX = PrimeContext(3, 1)
CENTER = PAdicVector((Fraction(1, 3),), CTX)
BALL = Ball(CENTER, -1)
F = BruhatSchwartzFunction(CTX, ((EC_ONE, BALL),))

# one instance of each class with its compared fields, in order
INSTANCES = [
    (CTX, (3, 1)),
    (CENTER, ((Fraction(1, 3),), CTX)),
    (BALL, (CENTER, -1)),
    (Supremum(Fraction(1, 2), BALL), (Fraction(1, 2), BALL)),
    (DigitTrie(1, (EC_ONE, BALL)), (1, (EC_ONE, BALL))),
    (F, (CTX, F.terms)),
    (RandomFunctionConfig(), (3, -1, 1, 1, False)),
    (RadialProfile(CTX, abs), (CTX, abs, (), False)),
    (RadialMultiplier(CTX, abs), (CTX, abs, None)),
    (BesselOrder(2.5, CTX), (2.5, CTX)),
    (PmpReport(1, BALL, ((CENTER, 0.25),), 0.25, False), (1, BALL, ((CENTER, 0.25),), 0.25, False)),
    (EvolutionProblem(F, 1.0), (F, 1.0, (), 64)),
]
IDS = [type(value).__name__ for value, _ in INSTANCES]


@pytest.mark.parametrize("value, fields", INSTANCES, ids=IDS)
def test_hash_is_that_of_the_field_tuple(value, fields):
    # set and dict iteration order follows these hashes
    assert hash(value) == hash(fields)


@pytest.mark.parametrize("value, fields", INSTANCES, ids=IDS)
def test_value_class_takes_its_methods_from_the_base(value, fields):
    cls = type(value)
    assert cls.__mro__[1:] == (FrozenValue, object)
    for name in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__", "__reduce_ex__"):
        assert name not in cls.__dict__ and getattr(cls, name) is getattr(FrozenValue, name)
    assert tuple(getattr(value, name) for name in cls._fields) == fields


def _binds_eq(node: ast.AST) -> bool:
    """A def of ``__eq__``, or an assignment to that name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name == "__eq__"
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == "__eq__" for target in targets)


def test_only_the_base_and_exact_complex_define_eq():
    binds, owners = 0, []
    for path in sorted(SRC.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        binds += sum(_binds_eq(node) for node in nodes)
        owners += [
            node.name for node in nodes if isinstance(node, ast.ClassDef) for item in node.body if _binds_eq(item)
        ]
    assert sorted(owners) == ["ExactComplex", "FrozenValue"] and binds == 2
