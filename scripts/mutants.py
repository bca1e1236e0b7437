"""Run the committed mutants: deliberate faults that a check must catch.

Each entry of ``MUTANTS`` names a file of the repo, an exact snippet of it
(which must occur there exactly once), its replacement, and the checks that
must fail on the result:

- ``tier1``: the tier-1 pytest suite (stopping at its first failure);
- ``verify``: ``padic-bessel verify all`` at the five grid points of the
  benchmark, at its default trials.  ``verify all`` prints FAIL on the
  unchanged code too (the positive maximum principle is false on
  sign-mixed inputs), so a point counts as catching the mutant when some
  row's verdict differs from the unchanged code's, or the command exits 2
  or crashes.

The script copies the repo into a temporary directory per mutant, applies
the replacement there (the repo itself is never written), runs each check
and prints one line per check: the mutant, the check, "killed" (with the
first failing test, or the number of grid points that catch it) or
"survived", and for a known survivor the reason it is listed.  It exits 1
when a check that should kill a mutant lets it survive, or a known survivor
is killed (the list then needs updating), and 0 otherwise.

Usage: python scripts/mutants.py
A tier-1 run that passes takes about a minute; one that fails stops at the
first failing test.
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the (p, n, alpha) grid of ``perfbench``
GRID = ((2, 1, 2), (3, 1, 3), (2, 2, 4), (5, 1, 2), (3, 2, 2.5))

#: the test that checks this list; in a mutated copy it fails by design
SNIPPET_TEST = "tests/test_mutants.py"

# name, file, snippet, replacement, checks that must kill it, and
# {check: reason} for the checks it is known to survive
MUTANTS = [
    (
        "eq_first_field",
        "src/padic_bessel/padic.py",
        "        return key(self) == key(other)\n",
        "        return key(self)[0] == key(other)[0]\n",
        ("tier1",),
        {},
    ),
    (
        "hash_drops_a_field",
        "src/padic_bessel/padic.py",
        "        return hash(self._key(self))\n",
        "        return hash(self._key(self)[1:])\n",
        ("tier1",),
        {},
    ),
    (
        "setattr_assigns",
        "src/padic_bessel/padic.py",
        '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        ("tier1",),
        {},
    ),
    (
        "node_drops_zero_after_drop_0",
        "src/padic_bessel/schwartz.py",
        "    return {id(node): mean * drops[-s] for node, s, _, mean in _node_sums(trie)}\n",
        "    return {id(node): mean * (drops[-s] if s == 0 else 0) for node, s, _, mean in _node_sums(trie)}\n",
        ("tier1", "verify"),
        {
            "verify": "random verify draws have no ball smaller than p**-1, so no row "
            "meets a drop past drop 0 (ROADMAP item 11)"
        },
    ),
    (
        "node_drops_shell_2_scaled",
        "src/padic_bessel/schwartz.py",
        "    return {id(node): mean * drops[-s] for node, s, _, mean in _node_sums(trie)}\n",
        "    return {id(node): mean * drops[-s] * (1 + 1e-6 if s == -1 else 1)\n"
        "            for node, s, _, mean in _node_sums(trie)}\n",
        ("tier1", "verify"),
        {
            "verify": "random verify draws have no ball smaller than p**-1, so no row "
            "meets the shell-2 share (ROADMAP item 11)"
        },
    ),
    (
        "forcing_drop_as_value_difference",
        "src/padic_bessel/heat.py",
        "        return _decay(tau, tau_err, sigma_2) * length * inner\n\n"
        "    return RadialMultiplier(order.ctx, value, drop)\n",
        "        return _decay(tau, tau_err, sigma_2) * length * inner\n\n"
        "    return RadialMultiplier(order.ctx, value)\n",
        ("tier1",),
        {},
    ),
    (
        "decay_uncompensated",
        "src/padic_bessel/heat.py",
        "    return math.exp(-product) * math.exp(-(err + tau_err * sigma))\n",
        "    return math.exp(-product)\n",
        ("tier1",),
        {},
    ),
    (
        "pmp_first_tied_cell_only",
        "src/padic_bessel/bessel.py",
        "        return read_leaves(f, g, lambda leaf, radius: leaf is not None and leaf[0].re == top)\n",
        "        return read_leaves(f, g, lambda leaf, radius: leaf is not None and leaf[0].re == top)[:1]\n",
        ("tier1", "verify"),
        {
            "verify": "the pmp row prints FAIL on the unchanged code at every grid point, as sign-mixed "
            "draws violate the principle, and still does with the violations the fewer probes find"
        },
    ),
    (
        "kernel_row_divided_in_floats",
        "src/padic_bessel/bessel.py",
        "            row = gd * (1 - nxt) / (gn * power)\n",
        "            row = (gd / gn) * ((1 - nxt) / power)\n",
        ("tier1",),
        {},
    ),
    (
        "convolution_one_shell_short",
        "src/padic_bessel/heat.py",
        "    shells_1 = list(islice(z_shells(t1, order), depth + 1))\n",
        "    shells_1 = list(islice(z_shells(t1, order), depth))\n",
        ("tier1",),
        {},
    ),
    (
        "config_max_terms_bound_9",
        "src/padic_bessel/schwartz.py",
        "        if not (1 <= self.max_terms <= 8):\n",
        "        if not (1 <= self.max_terms <= 9):\n",
        ("tier1",),
        {},
    ),
    (
        "radial_transform_deep_shell_twice",
        "src/padic_bessel/spectral.py",
        "    total = _deep_closed_sum(profile, k_lo - 1)\n",
        "    total = _deep_closed_sum(profile, k_lo)\n",
        ("tier1", "verify"),
        {},
    ),
    (
        "emit_without_ftruncate",
        "src/padic_bessel/cli.py",
        "            os.ftruncate(fd, len(data))\n",
        "            pass\n",
        ("tier1",),
        {},
    ),
    (
        "emit_with_default_mode",
        "src/padic_bessel/cli.py",
        "    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)\n",
        "    fd = os.open(out, os.O_WRONLY | os.O_CREAT)\n",
        ("tier1",),
        {},
    ),
    (
        "emit_cuts_every_file",
        "src/padic_bessel/cli.py",
        "        if stat.S_ISREG(os.fstat(fd).st_mode):\n",
        "        if True:\n",
        ("tier1",),
        {},
    ),
    (
        "load_json_without_recursion_clause",
        "src/padic_bessel/schwartz.py",
        "    except (json.JSONDecodeError, RecursionError) as exc:\n",
        "    except json.JSONDecodeError as exc:\n",
        ("tier1",),
        {},
    ),
]

_ROW = re.compile(r"^check=(\S+) .* (PASS|FAIL)$", re.M)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _verify_rows(tree: Path) -> list:
    """Per grid point: the {row: verdict} of ``verify all``, or None when it
    exits 2 or crashes."""
    points = []
    for p, n, alpha in GRID:
        argv = ["verify", "all", "--p", str(p), "--n", str(n), "--alpha", str(alpha)]
        done = subprocess.run(
            [sys.executable, "-m", "padic_bessel.cli", *argv], cwd=tree, env=_env(), capture_output=True, text=True
        )
        points.append(dict(_ROW.findall(done.stdout)) if done.returncode in (0, 1) else None)
    return points


def _tier1_failure(tree: Path) -> str:
    """The first test that fails (or "error" when pytest stops otherwise),
    or "" when the suite passes."""
    argv = ["-q", "-x", "-p", "no:cacheprovider", "--ignore", SNIPPET_TEST, "tests"]
    done = subprocess.run([sys.executable, "-m", "pytest", *argv], cwd=tree, env=_env(), capture_output=True, text=True)
    if done.returncode == 0:
        return ""
    failed = re.search(r"^FAILED (\S+)", done.stdout, re.M)
    return failed.group(1) if failed else "error"


def _verify_catches(clean: list, mutated: list) -> int:
    """The number of grid points at which some row's verdict differs from
    the clean tree's, or the command no longer runs."""
    return sum(after is None or after != before for before, after in zip(clean, mutated))


def _apply(tree: Path, path: str, snippet: str, replacement: str) -> None:
    """Replace the one occurrence of ``snippet`` in ``tree / path``."""
    target = tree / path
    text = target.read_text(encoding="utf-8")
    if text.count(snippet) != 1:
        raise ValueError(f"{path}: the snippet occurs {text.count(snippet)} times, not once")
    target.write_text(text.replace(snippet, replacement), encoding="utf-8")


def main() -> int:
    clean = _verify_rows(ROOT)
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench")
    unexpected = 0
    for name, path, snippet, replacement, checks, survives in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "repo"
            shutil.copytree(ROOT, tree, ignore=ignore)
            _apply(tree, path, snippet, replacement)
            for check in checks:
                if check == "tier1":
                    failure = _tier1_failure(tree)
                    killed, detail = bool(failure), f" ({failure})" if failure else ""
                else:
                    caught = _verify_catches(clean, _verify_rows(tree))
                    killed, detail = caught > 0, f" ({caught}/{len(GRID)} points)"
                if killed == (check in survives):
                    unexpected += 1
                verdict = "killed" if killed else "survived"
                note = f"  known survivor: {survives[check]}" if check in survives else ""
                print(f"{name:32s} {check:7s} {verdict}{detail}{note}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
