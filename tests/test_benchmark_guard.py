"""What the benchmark in perfbench/ reads of the library keeps working.

perfbench imports library names in ``workloads``, its tracer rebinds
library functions by name, its ops call the library and the CLI with fixed
arguments (``evolve --steps`` among them), and the evolve check builds a
bare ``RadialProfile`` for ``multiply_radial``.  A change that breaks any of
these breaks the benchmark without failing a library test, so they are
pinned here.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

from padic_bessel import spectral
from padic_bessel.bessel import BesselOrder, symbol_value
from padic_bessel.padic import PrimeContext
from padic_bessel.schwartz import random_test_function
from padic_bessel.spectral import (
    RadialMultiplier,
    RadialProfile,
    fourier,
    inverse_fourier,
    multiply_radial,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench():
    """perfbench/ on the import path for one test, its modules then dropped."""
    saved_path = list(sys.path)
    saved_modules = {name: sys.modules.get(name) for name in ("workloads", "tracer")}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield
    finally:
        sys.path[:] = saved_path
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_perfbench_imports_and_its_tracer_installs(perfbench):
    original = spectral.radial_transform
    importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        assert spectral.radial_transform is not original
    finally:
        tracer.uninstall()
    assert spectral.radial_transform is original


def test_first_op_of_every_kind_passes_its_check(perfbench, tmp_path):
    # the kind up to its parameters: every operator, evolve, table and battery
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workloads.make(name, 1, workdir, workloads.search(name, 1, workdir))
        workload.write_inputs()
        first = {}
        for op in workload.ops:
            first.setdefault(op.kind.split()[0], op)
        for op in first.values():
            assert op.check(op.call()) == [], op.label()


def test_evolve_check_profile_goes_through_multiply_radial():
    # the evolve check's profile: ctx, resid and constant_on_unit_ball only,
    # resid the forcing weight of one piece on each frequency shell
    order = BesselOrder(2.0, PrimeContext(2, 1))

    def weight(shell):
        m = float(symbol_value(shell, order))
        return math.exp(-0.5 * m) * -math.expm1(-m) / m

    profile = RadialProfile(ctx=order.ctx, resid=weight, constant_on_unit_ball=True)
    f = random_test_function(3, order.ctx)
    got = inverse_fourier(multiply_radial(fourier(f), profile))
    want = RadialMultiplier(order.ctx, lambda k: weight(k)).apply(f)
    assert (got - want).sup_norm() <= 1e-12 * max(1.0, want.sup_norm())
