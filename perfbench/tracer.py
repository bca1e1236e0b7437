"""Per-layer tracing of padic_bessel from outside the package.

The tracer wraps public functions of each module and rebinds every module
namespace (and class) that holds them by name, so calls made between
modules, such as ``fourier`` called from ``bessel``, ``heat`` and ``cli``, go
through the wrapper.  Nothing inside ``src/`` changes; ``uninstall`` puts the
original objects back.

Two kinds of wrapper exist:

* timed: records a span (name, start, end, parent span, op id) and runs a
  counting hook after the call.  The hook is itself recorded as a
  ``trace.hook`` span under the caller's span, so its time counts as tracing
  overhead and not as the caller's self time;
* counted: only bumps counters.  Used for the hottest ``padic`` helpers,
  whose calls are too short to time without distorting them.

With ``memory=True`` timed wrappers instead track the tracemalloc peak
reached inside each span above the allocation level at entry, per layer.
"""
from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction

LAYERS = ("padic", "schwartz", "spectral", "bessel", "heat", "cli")

# per layer, module-level function names or "Class.method"; COUNTED entries
# get no span.
TIMED = {
    "schwartz": (
        "BruhatSchwartzFunction.canonicalize",
        "BruhatSchwartzFunction.inner_product",
        "BruhatSchwartzFunction.evaluate",
        "BruhatSchwartzFunction.ball_integral",
        "linear_combination",
        "serialize",
        "deserialize",
    ),
    "spectral": (
        "fourier",
        "inverse_fourier",
        "multiply_radial",
        "radial_transform",
        "parseval_defect",
    ),
    "bessel": (
        "apply_bessel",
        "apply_bessel_convolution",
        "resolvent",
        "resolvent_residual",
        "quadratic_form",
        "adjoint_defect",
        "contraction_ratio",
        "pmp_check",
        "kernel_mass",
    ),
    "heat": ("z_closed", "z_oracle", "z_mass", "solve_cauchy", "duhamel"),
    "cli": ("main",),
}
COUNTED = {
    "padic": ("valuation", "reduce_mod_ball", "character_from_phase"),
    "bessel": ("kernel_value",),
}
# span of the tracer's own counting after a call; no layer's self time
HOOK = "trace.hook"
# functions whose results are output functions for ``bench.exact_frac``
OUTPUT_FUNCTIONS = ("apply_bessel", "resolvent", "solve_cauchy")


def _valuation(x: Fraction, p: int) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def term_cells(f) -> list:
    """Cells the Fourier layer emits per term of f: p**(n(-r-rho)), with
    rho = min(-r, v) and v the smallest coordinate valuation of the center."""
    p, n = f.ctx.p, f.ctx.n
    cells = []
    for _, ball in f.terms:
        r = ball.radius_exp
        coords = [c for c in ball.center.coords if c != 0]
        rho = min([-r] + [_valuation(c, p) for c in coords])
        cells.append(p ** (n * (-r - rho)))
    return cells


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list = []  # [name, start, end, parent, op_id]
        self.stack: list = []
        self.counts = defaultdict(int)
        self.layer_peak = defaultdict(int)
        self.solve_inputs: set = set()
        self.op_id = -1
        self.active = False
        self._saved: list = []

    # -- installation -------------------------------------------------------

    def install(self, *callers) -> None:
        """Wrap every listed function; ``callers`` are further modules (the
        benchmark's own) whose by-name imports are rebound too."""
        mods = {layer: importlib.import_module(f"padic_bessel.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("padic_bessel"), *mods.values(), *callers]
        for timed, table in ((True, TIMED), (False, COUNTED)):
            for layer, names in table.items():
                for qualname in names:
                    owner_name, _, attr = qualname.rpartition(".")
                    owner = getattr(mods[layer], owner_name) if owner_name else mods[layer]
                    original = getattr(owner, attr)
                    name = f"{layer}.{attr}"
                    wrapper = (self._timed if timed else self._counted)(name, original)
                    if owner_name:
                        self._rebind(owner, attr, wrapper)
                    else:
                        for ns in namespaces:
                            for key, value in list(vars(ns).items()):
                                if value is original:
                                    self._rebind(ns, key, wrapper)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- wrappers -------------------------------------------------------------

    def _counted(self, name, fn):
        counts = self.counts
        inexact = name == "padic.character_from_phase"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                counts[name + ".calls"] += 1
                if inexact and not result.is_exact:
                    counts[name + ".inexact"] += 1
            return result

        return wrapper

    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = self._hook
        memory = self.memory

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if memory:
                return self._memory_call(name, fn, args, kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[1] = start
                span[2] = end
            # the hook's own time is a child span of the open parent, so that
            # it is taken out of the parent's self time
            self.active = False
            hook_start = clock()
            try:
                hook(name, args, kwargs, result)
            finally:
                spans.append([HOOK, hook_start, clock(), stack[-1] if stack else -1, self.op_id])
                self.active = True
            return result

        return wrapper

    def _memory_call(self, name, fn, args, kwargs):
        current, peak = tracemalloc.get_traced_memory()
        if self.stack:
            parent = self.stack[-1]
            parent[1] = max(parent[1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            self.stack.pop()
            frame[1] = max(frame[1], peak)
            layer = name.split(".", 1)[0]
            self.layer_peak[layer] = max(self.layer_peak[layer], frame[1] - frame[0])
            if self.stack:
                self.stack[-1][1] = max(self.stack[-1][1], frame[1])
            tracemalloc.reset_peak()

    def _hook(self, name, args, kwargs, result) -> None:
        """Counters measured where the work happens (tracing paused)."""
        counts = self.counts
        counts[name + ".calls"] += 1
        short = name.split(".", 1)[1]
        if short == "fourier":
            f = args[0].canonicalize()
            counts[name + ".terms_in"] += len(f.terms)
            counts[name + ".terms_out"] += len(result.terms)
            counts[name + ".cells_est"] += sum(term_cells(f))
        elif short == "canonicalize":
            counts[name + ".terms_in"] += len(args[0].terms)
            counts[name + ".terms_out"] += len(result.terms)
        elif short == "z_closed":
            gamma = args[0] if args else kwargs["gamma"]
            counts[name + ".inner_steps"] += gamma + 1
        elif short == "solve_cauchy":
            u0 = args[0] if args else kwargs["u0"]
            self.solve_inputs.add((u0.ctx, u0.terms))
        elif short == "duhamel":
            problem, times = args[0], args[2]
            if problem.forcing:
                counts[name + ".nodes"] += sum(problem.steps + 1 for t in times if t > 0)
            counts["bench.outputs"] += len(result)
            counts["bench.exact_outputs"] += sum(u.is_exact for u in result)
        if short in OUTPUT_FUNCTIONS:
            counts["bench.outputs"] += 1
            counts["bench.exact_outputs"] += result.is_exact

    # -- results --------------------------------------------------------------

    def self_ms(self) -> dict:
        """Self time (span minus child spans) summed per function, in ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name != HOOK:
                totals[name] += (end - start - child[i]) * 1000.0
        return dict(totals)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op_id\n")
            for name, start, end, parent, op_id in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op_id}\n")
