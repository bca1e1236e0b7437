"""Check that the traced run's exact counts repeat, and that a second seed runs clean.

For each workload this runs ``run.py --trace 1`` twice with seed 1 and once
with seed 2.  Every count metric (calls, terms, cells, shell steps,
quadrature nodes, inexact characters, maximum-principle violations), the
exactness and failure shares and the solve_cauchy reuse ratio must be equal
in the two same-seed runs; the other seed must exit 0 with ``correct`` true
and no failed op.

Usage, from the repository root:

    python3 perfbench/check_repeat.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

EXACT_SUFFIXES = (
    ".calls", ".terms_in", ".terms_out", ".cells_est", ".inner_steps", ".nodes",
    ".inexact", ".violations", ".failed", "exact_frac", "fail_frac", ".reuse",
)


def traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    seed, other = 1, 2  # the repeated seed, then the other one
    ok = True
    for workload in WORKLOADS:
        first, second = traced(workload, seed), traced(workload, seed)
        exact = sorted(k for k in first["metrics"] if k.endswith(EXACT_SUFFIXES))
        differ = [
            f"{k}: {first['metrics'][k]['value']} != {second['metrics'][k]['value']}"
            for k in exact
            if first["metrics"][k]["value"] != second["metrics"][k]["value"]
        ]
        clean = traced(workload, other)
        dirty = not clean["correct"] or clean["failed"] != 0
        print(f"{workload}: {len(exact)} exact counts, {len(differ)} differ; "
              f"seed {other}: correct={clean['correct']} failed={clean['failed']}")
        for line in differ:
            print(f"  {line}")
        ok = ok and not differ and not dirty
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
