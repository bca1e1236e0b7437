"""``scripts/mutants.py`` lists its mutants by exact snippets; each must
still occur exactly once in its file, so a refactor cannot orphan a mutant
unseen.  The mutant runs themselves stay out of the test suite."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("entry", mutants.MUTANTS, ids=[entry[0] for entry in mutants.MUTANTS])
def test_every_snippet_occurs_once_in_its_file(entry):
    name, path, snippet, replacement, checks, survives = entry
    assert (ROOT / path).read_text(encoding="utf-8").count(snippet) == 1
    assert replacement != snippet
    assert checks and set(checks) <= {"tier1", "verify"} and set(survives) <= set(checks)


def test_mutant_names_are_unique():
    names = [entry[0] for entry in mutants.MUTANTS]
    assert len(set(names)) == len(names)
