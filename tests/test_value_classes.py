"""The 12 value classes: constructor, defaults, ==, hash, repr, immutability,
copying and validation.  These pin what ``dataclasses`` generated for them,
so the plain classes that replaced it keep the same value semantics."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from padic_bessel.padic import EC_ONE, Ball, PAdicVector, PrimeContext
from padic_bessel.schwartz import BruhatSchwartzFunction, DigitTrie, RandomFunctionConfig, Supremum
from padic_bessel.spectral import RadialMultiplier, RadialProfile
from padic_bessel.bessel import BesselOrder, PmpReport
from padic_bessel.heat import EvolutionProblem, ScheduleError

CTX = PrimeContext(3, 1)
CENTER = PAdicVector(coords=(Fraction(1, 3),), ctx=CTX)
BALL = Ball(center=CENTER, radius_exp=-1)
F = BruhatSchwartzFunction(ctx=CTX, terms=((EC_ONE, BALL),))

CTX_TEXT = "PrimeContext(p=3, n=1)"
CENTER_TEXT = f"PAdicVector(coords=(Fraction(1, 3),), ctx={CTX_TEXT})"
BALL_TEXT = f"Ball(center={CENTER_TEXT}, radius_exp=-1)"
F_TEXT = f"BruhatSchwartzFunction(ctx={CTX_TEXT}, terms=((ExactComplex(re=1, im=0), {BALL_TEXT}),))"


def _tabled_multiplier():
    m = RadialMultiplier(ctx=CTX, value=abs)
    object.__setattr__(m, "_table", ((1, 1), (0,)))
    return m


# (built by keyword with its defaults, its compared fields and their values,
#  the same but for one compared field, the field that == and hash ignore
#  with a value differing only there, repr)
CASES = [
    (
        lambda: PrimeContext(p=3, n=1),
        {"p": 3, "n": 1},
        lambda: PrimeContext(p=3, n=2),
        None,
        CTX_TEXT,
    ),
    (
        lambda: PAdicVector(coords=(Fraction(1, 3),), ctx=CTX),
        {"coords": (Fraction(1, 3),), "ctx": CTX},
        lambda: PAdicVector(coords=(Fraction(2, 3),), ctx=CTX),
        None,
        CENTER_TEXT,
    ),
    (
        lambda: Ball(center=CENTER, radius_exp=-1),
        {"center": CENTER, "radius_exp": -1},
        lambda: Ball(center=CENTER, radius_exp=-2),
        None,
        BALL_TEXT,
    ),
    (
        lambda: Supremum(value=Fraction(1, 2), cell=BALL),
        {"value": Fraction(1, 2), "cell": BALL},
        lambda: Supremum(value=Fraction(1, 2), cell=None),
        None,
        f"Supremum(value=Fraction(1, 2), cell={BALL_TEXT})",
    ),
    (
        lambda: DigitTrie(radius=1, root=(EC_ONE, BALL)),
        {"radius": 1, "root": (EC_ONE, BALL)},
        lambda: DigitTrie(radius=2, root=(EC_ONE, BALL)),
        None,
        f"DigitTrie(radius=1, root=(ExactComplex(re=1, im=0), {BALL_TEXT}))",
    ),
    (
        lambda: BruhatSchwartzFunction(ctx=CTX, terms=((EC_ONE, BALL),)),
        {"ctx": CTX, "terms": ((EC_ONE, BALL),)},
        lambda: BruhatSchwartzFunction(ctx=CTX, terms=((EC_ONE + EC_ONE, BALL),)),
        # the same function on a trie rooted one level too high, which the
        # walks never build: == reads the cells, not the trie
        ("trie", lambda: BruhatSchwartzFunction(ctx=CTX, trie=DigitTrie(F.trie.radius + 1, [F.trie.root, None, None]))),
        F_TEXT,
    ),
    (
        lambda: RandomFunctionConfig(),
        {"max_terms": 3, "radius_min": -1, "radius_max": 1, "den_pow_max": 1, "complex_coeffs": False},
        lambda: RandomFunctionConfig(complex_coeffs=True),
        None,
        "RandomFunctionConfig(max_terms=3, radius_min=-1, radius_max=1, den_pow_max=1, complex_coeffs=False)",
    ),
    (
        lambda: RadialProfile(ctx=CTX, resid=abs),
        {"ctx": CTX, "resid": abs, "deep_pieces": (), "constant_on_unit_ball": False},
        lambda: RadialProfile(ctx=CTX, resid=abs, constant_on_unit_ball=True),
        None,
        f"RadialProfile(ctx={CTX_TEXT}, resid=<built-in function abs>, deep_pieces=(), constant_on_unit_ball=False)",
    ),
    (
        lambda: RadialMultiplier(ctx=CTX, value=abs),
        {"ctx": CTX, "value": abs, "drop": None},
        lambda: RadialMultiplier(ctx=CTX, value=abs, drop=abs),
        ("_table", _tabled_multiplier),
        f"RadialMultiplier(ctx={CTX_TEXT}, value=<built-in function abs>, drop=None)",
    ),
    (
        lambda: BesselOrder(alpha=2.5, ctx=CTX),
        {"alpha": 2.5, "ctx": CTX},
        lambda: BesselOrder(alpha=3, ctx=CTX),
        None,
        f"BesselOrder(alpha=2.5, ctx={CTX_TEXT})",
    ),
    (
        lambda: PmpReport(sup_value=1, witness_cell=BALL, probes=((CENTER, 0.25),), worst=0.25, passed=False),
        {"sup_value": 1, "witness_cell": BALL, "probes": ((CENTER, 0.25),), "worst": 0.25, "passed": False},
        lambda: PmpReport(sup_value=1, witness_cell=BALL, probes=((CENTER, 0.25),), worst=0.25, passed=True),
        None,
        f"PmpReport(sup_value=1, witness_cell={BALL_TEXT}, probes=(({CENTER_TEXT}, 0.25),), worst=0.25, passed=False)",
    ),
    (
        lambda: EvolutionProblem(u0=F, horizon=1.0),
        {"u0": F, "horizon": 1.0, "forcing": (), "steps": 64},
        lambda: EvolutionProblem(u0=F, horizon=1.0, steps=2),
        None,
        f"EvolutionProblem(u0={F_TEXT}, horizon=1.0, forcing=(), steps=64)",
    ),
]


@pytest.mark.parametrize(
    "build, fields, other, ignored, text", CASES, ids=[case[-1].partition("(")[0] for case in CASES]
)
def test_value_semantics(build, fields, other, ignored, text):
    a, b = build(), build()
    assert {name: getattr(a, name) for name in fields} == fields
    assert repr(a) == text
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other() and not a == other()
    values = tuple(fields.values())
    assert type(a)(*values) == a
    assert a != values and values != a
    names = list(fields)
    if ignored is not None:
        name, twin = ignored
        c = twin()
        assert getattr(c, name) != getattr(a, name)
        assert c == a and hash(c) == hash(a) and repr(c) == text
        names.append(name)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a) and clone == a and repr(clone) == text


OTHER_CTX = PrimeContext(2, 1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PrimeContext(4, 1), ValueError, "p = 4 is not a prime integer"),
        (lambda: PrimeContext(3.0, 1), ValueError, "p = 3.0 is not a prime integer"),
        (lambda: PrimeContext(3, 0), ValueError, "dimension n = 0 must be a positive integer"),
        (lambda: PrimeContext(3, 1.0), ValueError, "dimension n = 1.0 must be a positive integer"),
        (lambda: BesselOrder(math.nan, CTX), ValueError, "order alpha = nan must be finite"),
        (lambda: BesselOrder(1, CTX), ValueError, "order alpha = 1 must exceed the dimension n = 1"),
        (
            lambda: BesselOrder(1e5, CTX),
            ValueError,
            "order alpha = 100000.0 is over the bound alpha * log2(p) <= 16384 at p = 3",
        ),
        (lambda: RandomFunctionConfig(max_terms=True), ValueError, "max_terms = True must be an integer"),
        (lambda: RandomFunctionConfig(radius_min=-1.0), ValueError, "radius_min = -1.0 must be an integer"),
        (lambda: RandomFunctionConfig(radius_max=False), ValueError, "radius_max = False must be an integer"),
        (lambda: RandomFunctionConfig(den_pow_max=2.0), ValueError, "den_pow_max = 2.0 must be an integer"),
        (lambda: RandomFunctionConfig(complex_coeffs="no"), ValueError, "complex_coeffs = 'no' must be a bool"),
        (lambda: RandomFunctionConfig(complex_coeffs=0), ValueError, "complex_coeffs = 0 must be a bool"),
        (lambda: RandomFunctionConfig(den_pow_max=5), ValueError, "den_pow_max must be in [0, 4]"),
        (lambda: EvolutionProblem(F, 0.0), ValueError, "horizon = 0.0 must be positive"),
        (lambda: EvolutionProblem(F, True), ValueError, "horizon = True must be a number, not a bool"),
        (lambda: EvolutionProblem(F, 1.0, steps=3), ValueError, "steps = 3 must be a positive even count"),
        (lambda: EvolutionProblem(F, 1.0, steps=2.0), ValueError, "steps = 2.0 must be a positive even count"),
        (lambda: EvolutionProblem(F, 1.0, steps=True), ValueError, "steps = True must be a positive even count"),
        (
            lambda: EvolutionProblem(F, 1.0, ((False, F),)),
            ValueError,
            "forcing tag False must be a number, not a bool",
        ),
        (
            lambda: EvolutionProblem(F, 1.0, ((0.5, F), (0.0, F))),
            ScheduleError,
            "forcing schedule must be sorted by time",
        ),
        (
            lambda: EvolutionProblem(F, 1.0, ((0.5, F),)),
            ScheduleError,
            "forcing schedule starts at 0.5 > 0, leaving a gap at the origin",
        ),
        (
            lambda: EvolutionProblem(F, 1.0, ((0.0, BruhatSchwartzFunction.unit_ball(OTHER_CTX)),)),
            ValueError,
            "forcing functions must share the initial datum's context",
        ),
        (
            lambda: EvolutionProblem(F, 1.0, ((0.0, F), (1.0, F))),
            ScheduleError,
            "forcing tag 1.0 outside [0, horizon)",
        ),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_a_bool_dimension_is_refused():
    with pytest.raises(ValueError, match=r"^dimension n = True must be a positive integer$"):
        PrimeContext(2, True)
