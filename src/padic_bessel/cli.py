"""Command-line front end: kernel and heat tables, transforms, evolution
runs, and the seeded verification batteries.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage or
input errors, among them results beyond the float range.  All outputs are
deterministic for fixed flags and seed; floats are printed with 17
significant digits so CSV values round-trip.  ``main`` may be called again
and again in one process; it builds its parser once, on the first call.
Output files (--out, --snapshots) are rewritten in place and cut to the
length of the new output, not truncated first (``_emit``).
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import re
import stat
import sys
from fractions import Fraction
from typing import Optional, Sequence

from padic_bessel.padic import PrimeContext
from padic_bessel.schwartz import (
    MAX_CELLS,
    MAX_DIGIT_TUPLES,
    BruhatSchwartzFunction,
    RandomFunctionConfig,
    cell_count,
    load_json,
    random_test_function,
    read_object,
    serialize,
    too_many_digit_tuples,
)
from padic_bessel.spectral import (
    cell_exponents,
    expand,
    fourier_terms,
    inverse_fourier_terms,
    modulated_terms,
    parseval_defect,
    radial_terms,
)
from padic_bessel.bessel import (
    BesselOrder,
    adjoint_defect,
    apply_bessel,
    apply_bessel_convolution,
    c0_dissipativity_margin,
    contraction_ratio,
    kernel_mass,
    kernel_shells,
    negdef_witness,
    pmp_check,
    quadratic_form,
    resolvent_multiplier,
    resolvent_residual,
    symbol_multiplier,
)
from padic_bessel.heat import (
    MAX_DEPTH,
    EvolutionProblem,
    convolution_defect,
    distributional_mass,
    duhamel,
    semigroup_multiplier,
    tail_envelopes,
    z_closed,
    z_mass,
    z_oracle,
    z_shells,
)


def _order(ns: argparse.Namespace) -> BesselOrder:
    """The order of the --p/--n/--alpha flags; p and n default to 2 and 1."""
    p = 2 if ns.p is None else ns.p
    n = 1 if ns.n is None else ns.n
    return BesselOrder(ns.alpha, PrimeContext(p, n))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out: Optional[str]) -> None:
    """Print text, or write it to the file out: the one writer of every
    --out and --snapshots file.

    The file is rewritten in place: the bytes go over what it holds, and a
    regular file is then cut to their length, since truncating an existing
    file on open, as ``open(out, "w")`` does, costs several times the write
    (README, "Command line").  Devices and pipes are not cut, so /dev/null
    and a FIFO take the output.  A new file gets the mode ``open(out, "w")``
    gives it.  The rewrite is not atomic: a run stopped between the write
    and the cut leaves the new bytes followed by the old tail.
    """
    if out is None:
        sys.stdout.write(text)
        return
    data = text.encode()
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# -- tables -------------------------------------------------------------------


def run_kernel(ns: argparse.Namespace) -> int:
    if ns.gamma_max > MAX_DEPTH:
        raise ValueError(f"--gamma-max {ns.gamma_max} is over the limit of {MAX_DEPTH} shells")
    order = _order(ns)
    lines = ["gamma,norm,k_alpha"]
    if ns.gamma_max >= 0:
        p = order.ctx.p
        # one %-format per row: '%.17g' % x prints what _fmt(x) does
        rows = zip(range(ns.gamma_max + 1), kernel_shells(order))
        lines += ["%d,%.17g,%.17g" % (g, p ** (-g), k) for g, k in rows]
        mass = kernel_mass(order)
        lines.append(f"mass,{_fmt(mass)},{_fmt(abs(mass - 1.0))}")
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


def run_heat(ns: argparse.Namespace) -> int:
    if ns.gamma_max > MAX_DEPTH:
        raise ValueError(f"--gamma-max {ns.gamma_max} is over the limit of {MAX_DEPTH} shells")
    if not 0 < ns.t < math.inf:
        raise ValueError(f"--t {ns.t} must be positive and finite")
    order, t = _order(ns), ns.t
    lines = ["gamma,norm,z_value,tail_bound"]
    if ns.gamma_max >= 0:
        p = order.ctx.p
        rows = zip(range(ns.gamma_max + 1), z_shells(t, order), tail_envelopes(t, order))
        lines += ["%d,%.17g,%.17g,%.17g" % (g, p ** (-g), z, bound) for g, z, bound in rows]
        zm = z_mass(t, order)  # 1 + zm is distributional_mass, without a second sum
        lines.append(f"mass,{_fmt(zm)},{_fmt(1.0 + zm)},{_fmt(abs(zm - math.expm1(-t)))}")
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


# -- file-driven commands -------------------------------------------------------


def _read_input(ns: argparse.Namespace) -> tuple:
    """The --in function as ``read_object`` gives it, its space checked
    against any --p/--n flags: (space, call that builds it)."""
    with open(ns.infile) as fh:
        ctx, build = read_object(load_json(fh.read()))
    for flag, given, actual in (("p", ns.p, ctx.p), ("n", ns.n, ctx.n)):
        if given is not None and given != actual:
            raise ValueError(f"--{flag} {given} does not match the input file's {flag} = {actual}")
    return ctx, build


def _transform_terms(f: BruhatSchwartzFunction, max_cells: int) -> tuple:
    """F f as a term list, refused when its expansion would build more than
    max_cells cells.

    A term expands into p**e cells (``cell_exponents``), at least one, so a
    function of more cells than max_cells is refused before any term or
    ball is built.  An exponent e > log2(max_cells) alone is over budget,
    so no power beyond that is built.
    """
    cells = cell_count(f)
    if cells > max_cells:
        raise ValueError(f"the transform would build at least {cells} cells, over --max-cells {max_cells}")
    terms = fourier_terms(modulated_terms(f))
    exps = cell_exponents(terms)
    top = max(exps, default=0)
    if top > max_cells.bit_length():
        estimate = f"at least {f.ctx.p}^{top}"
    else:
        cells = sum(f.ctx.p**e for e in exps)
        if cells <= max_cells:
            return terms
        estimate = str(cells)
    raise ValueError(f"the transform would build {estimate} cells, over --max-cells {max_cells}")


def run_fourier(ns: argparse.Namespace) -> int:
    import json

    if ns.max_cells < 1:
        raise ValueError(f"--max-cells {ns.max_cells} must be at least 1")
    f = _read_input(ns)[1]()
    terms = _transform_terms(f, ns.max_cells)
    transformed = expand(f.ctx, terms)
    if ns.roundtrip:
        # one unmodulated term per cell of f: F F f is exact and no larger
        doubled = expand(f.ctx, fourier_terms(terms))
        defect = (doubled - f.reflect()).sup_norm()
        payload = {
            "transform": json.loads(serialize(transformed)),
            "double_transform": json.loads(serialize(doubled)),
            "roundtrip_defect": float(defect),
        }
        _emit(json.dumps(payload, separators=(",", ":")) + "\n", ns.out)
    else:
        _emit(serialize(transformed) + "\n", ns.out)
    return 0


def _load_forcing(path: str, ctx: PrimeContext) -> tuple:
    """The --forcing schedule as (time, function) pairs, each function
    refused when it is not on ctx before a later entry is read."""
    import json

    with open(path) as fh:
        obj = load_json(fh.read())
    if isinstance(obj, dict):
        obj = obj.get("schedule")
    if not isinstance(obj, list):
        raise ValueError("forcing file must hold a list (or {'schedule': [...]})")
    schedule = []
    for entry in obj:
        if not isinstance(entry, dict) or "time" not in entry or "function" not in entry:
            raise ValueError("each forcing entry needs 'time' and 'function'")
        time = entry["time"]
        if isinstance(time, bool) or not isinstance(time, (int, float)):
            raise ValueError(f"forcing time {json.dumps(time)} is not a number")
        space, build = read_object(entry["function"])
        if space != ctx:
            raise ValueError(f"forcing p, n = {space.p}, {space.n} do not match the input file's {ctx.p}, {ctx.n}")
        schedule.append((float(time), build()))
    return tuple(schedule)


def run_evolve(ns: argparse.Namespace) -> int:
    ctx, build = _read_input(ns)
    order = BesselOrder(ns.alpha, ctx)
    u0 = build()
    times = [float(s) for s in ns.t.split(",") if s.strip() != ""]
    if not times:
        raise ValueError("--t must list at least one evaluation time")
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"--t {t} must be a finite time")
        if t < 0:
            raise ValueError(f"--t {t} must be nonnegative")
    if ns.horizon is None and max(times) == 0:
        raise ValueError("--t must list a positive time when --horizon is not given")
    horizon = ns.horizon if ns.horizon is not None else max(times)
    forcing = _load_forcing(ns.forcing, ctx) if ns.forcing else ()
    problem = EvolutionProblem(u0=u0, horizon=horizon, forcing=forcing, steps=ns.steps)
    solutions = duhamel(problem, order, times)
    lines = ["time,l2_norm,sup_norm"]
    for t, u in zip(times, solutions):
        l2, sup = u.l2_norm(), u.sup_norm()
        if not (math.isfinite(l2) and math.isfinite(sup)):
            raise ValueError(f"the solution's norms at t = {_fmt(t)} are beyond the float range")
        lines.append(f"{_fmt(t)},{_fmt(l2)},{_fmt(sup)}")
    _emit("\n".join(lines) + "\n", ns.out)
    if ns.snapshots:
        for idx, u in enumerate(solutions):
            _emit(serialize(u) + "\n", f"{ns.snapshots}{idx}.json")
    return 0


# -- verification suites ---------------------------------------------------------


def _draws(seed: int, ctx: PrimeContext, count: int, offset: int = 0, complex_coeffs: bool = False):
    """The random inputs of ``count`` trials, trial i drawn at seed ^ (offset + i)."""
    # integer centers once p**n is large: every seed then draws the inputs
    # the printed rows were recorded with (tests/test_verify_golden.py)
    cfg = RandomFunctionConfig(complex_coeffs=complex_coeffs, den_pow_max=1 if ctx.p**ctx.n <= 9 else 0)
    return (random_test_function(seed ^ (offset + i), ctx, cfg) for i in range(count))


def _row(
    check: str, count: int, values: list, tol: Optional[float], default: float = 1e-12, floor: float = 0.0
) -> tuple:
    """The printed row of one check, (check, count, worst, tol, passed):
    worst is the largest of floor and the values, tol is --tol when given
    and default otherwise (None on a row that does not read --tol), and the
    row passes when worst <= tol."""
    tol = default if tol is None else tol
    worst = max([floor, *values])
    return (check, count, worst, tol, worst <= tol)


def suite_pmp(order: BesselOrder, trials: int, seed: int, tol: Optional[float]) -> list:
    worsts = [pmp_check(order, f).worst for f in _draws(seed, order.ctx, trials)]
    return [_row("pmp", trials, worsts, tol, floor=-math.inf)]


def suite_dissipative(order: BesselOrder, trials: int, seed: int, tol: Optional[float]) -> list:
    energies = [quadratic_form(order, f) for f in _draws(seed, order.ctx, trials, complex_coeffs=True)]
    pairs = max(1, trials // 2)
    drops = [
        -c0_dissipativity_margin(order, f, 0.1 + (i % 20) * 0.5)
        for i, f in enumerate(_draws(seed, order.ctx, pairs, offset=10_000))
    ]
    return [
        _row("dissipative_l2", trials, energies, tol, floor=-math.inf),
        _row("dissipative_sup", pairs, drops, tol, floor=-math.inf),
    ]


def _pairs(seed: int, ctx: PrimeContext, trials: int):
    """Trial i's complex inputs f and g, drawn at seed ^ i and seed ^ (50_000 + i)."""
    return zip(_draws(seed, ctx, trials, complex_coeffs=True), _draws(seed, ctx, trials, 50_000, True))


def suite_selfadjoint(order: BesselOrder, trials: int, seed: int, tol: Optional[float]) -> list:
    defects = [abs(adjoint_defect(order, f, g)) for f, g in _pairs(seed, order.ctx, trials)]
    return [_row("selfadjoint", trials, defects, tol)]


def suite_contraction(order: BesselOrder, trials: int, seed: int, tol: Optional[float]) -> list:
    fs = _draws(seed, order.ctx, trials, complex_coeffs=True)
    excesses = [contraction_ratio(order, f) - 1.0 for f in fs if not f.is_zero]
    return [_row("contraction", trials, excesses, tol)]


def suite_resolvent(order: BesselOrder, trials: int, seed: int, tol: Optional[float]) -> list:
    draws = max(1, trials // 3)
    fs = _draws(seed, order.ctx, draws)
    residuals = [resolvent_residual(order, lam, f) for f in fs for lam in (0.1, 1, 10)]
    return [_row("resolvent", draws * 3, residuals, tol)]


def suite_fourier(order: BesselOrder, trials: int, seed: int, tol: Optional[float]) -> list:
    parseval, reflection = [], []
    for f, g in _pairs(seed, order.ctx, trials):
        parseval.append(abs(parseval_defect(f, g)))
        doubled = expand(f.ctx, fourier_terms(fourier_terms(modulated_terms(f))))
        reflection.append((doubled - f.reflect()).sup_norm())
    return [_row("fourier_parseval", trials, parseval, tol), _row("fourier_reflection", trials, reflection, tol)]


def suite_heat(order: BesselOrder, trials: int, seed: int, tol: Optional[float]) -> list:
    times = (0.1, 1.0, 10.0)
    pair, mass = [], []
    for t in times:
        pair += [abs(z_closed(g, t, order) - z_oracle(g, t, order)) for g in range(13)]
        mass += [abs(z_mass(t, order) - math.expm1(-t)), abs(distributional_mass(t, order) - math.exp(-t))]
    # negative on the unit ball's shells; outside it the oracle's shell sum cancels to rounding
    checks = [z_closed(g, t, order) < 0 for t in times for g in range(13)]
    checks += [abs(z_oracle(-m, 1.0, order)) <= 1e-15 for m in range(1, 4)]
    conv = [convolution_defect(t1, t2, g, order)[0] for t1, t2 in ((0.5, 0.5), (1.0, 2.0)) for g in (0, 1, 3)]
    return [
        _row("heat_dual_route", len(pair), pair, tol),
        _row("heat_sign_support", len(checks), [0.0 if all(checks) else 1.0], None, default=0.0),
        _row("heat_mass", len(mass), mass, tol, default=1e-10),
        _row("heat_convolution", len(conv), conv, tol, default=1e-9),
    ]


ROUTE_LAMBDA = Fraction(1, 2)
ROUTE_TIME = 0.7


def operator_route_defect(order: BesselOrder, f: BruhatSchwartzFunction) -> float:
    """Largest gap, relative to max(1, ||f||_sup), between the digit-trie
    route of the operator, the resolvent and the semigroup and their
    two-transform oracle route (in sup norm), and between the operator and
    its convolution route (at every output cell center).  The oracle stays
    on terms and off the digit trie until its unmodulated output."""
    fhat = fourier_terms(modulated_terms(f))
    multipliers = (
        symbol_multiplier(order),
        resolvent_multiplier(order, ROUTE_LAMBDA),
        semigroup_multiplier(ROUTE_TIME, order),
    )
    worst = 0.0
    for multiplier in multipliers:
        oracle = expand(f.ctx, inverse_fourier_terms(radial_terms(fhat, multiplier)))
        worst = max(worst, (multiplier.apply(f) - oracle).sup_norm())
    u = apply_bessel(order, f)
    for c, ball in u.terms:
        worst = max(worst, abs(c - apply_bessel_convolution(order, f, ball.center)))
    return worst / max(1.0, f.sup_norm())


def suite_routes(order: BesselOrder, trials: int, seed: int, tol: Optional[float]) -> list:
    draws = max(1, trials // 4)
    defects = [operator_route_defect(order, f) for f in _draws(seed, order.ctx, draws, complex_coeffs=True)]
    return [_row("operator_routes", draws, defects, tol, default=1e-10)]


def suite_negdef(order: BesselOrder, trials: int, seed: int, tol: Optional[float]) -> list:
    # value is never 0 (that needs alpha * shell = 1 at p = 2, and alpha > n
    # >= 1), so the row rule's worst <= 0 is the test value < 0
    shell, value = negdef_witness(order)
    return [_row(f"negdef_shell_{shell}", 1, [float(value)], None, default=0.0, floor=-math.inf)]


SUITES = {
    "pmp": suite_pmp,
    "dissipative": suite_dissipative,
    "selfadjoint": suite_selfadjoint,
    "contraction": suite_contraction,
    "resolvent": suite_resolvent,
    "fourier": suite_fourier,
    "heat": suite_heat,
    "negdef": suite_negdef,
    "routes": suite_routes,
}


# the batteries without random inputs, and the flags they do not read
FIXED_SUITES = {"heat": ("trials", "seed"), "negdef": ("trials", "seed", "tol")}


def run_verify(ns: argparse.Namespace) -> int:
    for flag in FIXED_SUITES.get(ns.suite, ()):
        if getattr(ns, flag) is not None:
            raise ValueError(f"verify {ns.suite} does not read --{flag}")
    if ns.tol is not None and not math.isfinite(ns.tol):
        raise ValueError(f"--tol {ns.tol} must be a finite tolerance")
    trials = 200 if ns.trials is None else ns.trials
    seed = 0 if ns.seed is None else ns.seed
    if trials < 1:
        raise ValueError(f"--trials {trials} must be at least 1")
    order = _order(ns)
    if too_many_digit_tuples(order.ctx.p, order.ctx.n):
        raise ValueError(f"p**n = {order.ctx.p}**{order.ctx.n} is over the {MAX_DIGIT_TUPLES} digit tuples accepted")
    names = list(SUITES) if ns.suite == "all" else [ns.suite]
    lines = []
    all_ok = True
    for name in names:
        for check, trials_run, worst, tol, ok in SUITES[name](order, trials, seed, ns.tol):
            all_ok = all_ok and ok
            lines.append(
                f"check={check} trials={trials_run} worst={_fmt(worst)} "
                f"tol={_fmt(tol)} {'PASS' if ok else 'FAIL'}"
            )
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    _emit("\n".join(lines) + "\n", ns.out)
    return 0 if all_ok else 1


# -- argument parsing -------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-bessel",
        description="Bessel-potential operator tables, transforms, evolution and verification on Q_p^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every command works on a space; all but fourier also on an operator order
    space = argparse.ArgumentParser(add_help=False)
    space.add_argument("--p", type=int, default=None, help="prime p (default 2)")
    space.add_argument("--n", type=int, default=None, help="dimension n (default 1)")
    space.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    operator = argparse.ArgumentParser(add_help=False, parents=[space])
    operator.add_argument("--alpha", type=float, default=2.0, help="operator order (default 2.0)")

    sp = sub.add_parser("kernel", parents=[operator], help="CSV table of the convolution kernel")
    sp.add_argument("--gamma-max", type=int, default=10)
    sp.set_defaults(run=run_kernel)

    sp = sub.add_parser("heat", parents=[operator], help="CSV table of the heat kernel's function part")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--gamma-max", type=int, default=10)
    sp.set_defaults(run=run_heat)

    sp = sub.add_parser("fourier", parents=[space], help="Fourier transform of a serialized function")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--roundtrip", action="store_true", help="also emit the double transform and its reflection defect")
    sp.add_argument(
        "--max-cells", type=int, default=MAX_CELLS, help=f"refuse a transform of more cells (default {MAX_CELLS})"
    )
    sp.set_defaults(run=run_fourier)

    sp = sub.add_parser("evolve", parents=[operator], help="evolve an initial datum, optionally with forcing")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--forcing", type=str, default=None)
    sp.add_argument("--t", type=str, required=True, help="comma-separated evaluation times")
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--steps", type=int, default=64)
    sp.add_argument("--snapshots", type=str, default=None, help="prefix for per-time JSON snapshots")
    sp.set_defaults(run=run_evolve)

    sp = sub.add_parser("verify", parents=[operator], help="run a named verification battery")
    sp.add_argument("suite", choices=(*SUITES, "all"))
    sp.add_argument("--trials", type=int, default=None, help="random trials (default 200, at least 1)")
    sp.add_argument("--seed", type=int, default=None, help="base seed for random batteries (default 0)")
    sp.add_argument("--tol", type=float, default=None, help="override check tolerances")
    sp.set_defaults(run=run_verify)

    # a token that starts with one '-' and is no option of the command is
    # the value of the flag before it, as in '--t -inf'; argparse would take
    # only a plain negative number so, and stop at the parser on the rest
    for sp in sub.choices.values():
        sp._negative_number_matcher = re.compile("-[^-]")
    return parser


@functools.cache
def _commands() -> dict:
    """The parser of each command by its name: the choices of the top-level
    parser's subparsers action."""
    actions = _build_parser()._actions
    return next(action.choices for action in actions if isinstance(action, argparse._SubParsersAction))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.

    An argv that starts with a command is parsed by that command's own
    parser, as the top-level parse hands it on, but without first scanning
    every argument a second time; any other argv, and one with arguments
    the command does not take, goes to the top-level parser, so its help
    and error text are the top-level parse's.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    command = _commands().get(args[0]) if args else None
    if command is not None:
        ns, extras = command.parse_known_args(args[1:])
        ns.command = args[0]
    if command is None or extras:  # the top-level parse prints its help or error
        ns = _build_parser().parse_args(args)
    try:
        return ns.run(ns)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
