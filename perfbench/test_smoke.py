"""Smoke test of the benchmark.

Run from the repository root (about a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def test_spec_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert 0 < max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric(trace, section):
    done = run("tables", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_library():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run("operator", 0, bare)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_tracer_rebinds_by_name_imports_and_restores_them():
    import tracer
    import workloads
    from padic_bessel import bessel, spectral
    from padic_bessel.bessel import BesselOrder
    from padic_bessel.padic import Ball, PAdicVector, PrimeContext
    from padic_bessel.schwartz import BruhatSchwartzFunction

    ctx = PrimeContext(2, 1)
    f = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(ctx, Fraction(1, 2)), -1))
    originals = (bessel.fourier, spectral.fourier, workloads.apply_bessel)
    t = tracer.Tracer()
    t.install(workloads)
    try:
        assert bessel.fourier is not originals[0] and workloads.apply_bessel is not originals[2]
        t.active = True
        bessel.apply_bessel(BesselOrder(2.0, ctx), f)
        t.active = False
    finally:
        t.uninstall()
    assert (bessel.fourier, spectral.fourier, workloads.apply_bessel) == originals
    names = [span[0] for span in t.spans]
    assert names.count("spectral.fourier") == 2
    parents = {names[span[3]] for span in t.spans if span[0] == "spectral.fourier"}
    assert parents == {"bessel.apply_bessel", "spectral.inverse_fourier"}
    assert t.counts["spectral.fourier.cells_est"] > 0
    # the counting hook after the inner fourier is timed under its caller,
    # inverse_fourier, and is nobody's self time
    hooks = [span for span in t.spans if span[0] == tracer.HOOK]
    assert len(hooks) == len(t.spans) // 2
    assert "spectral.inverse_fourier" in {names[span[3]] for span in hooks if span[3] >= 0}
    self_ms = t.self_ms()
    assert tracer.HOOK not in self_ms and sum(self_ms.values()) > 0
