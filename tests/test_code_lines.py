"""``scripts/code_lines.py`` counts what the changelog quotes as code lines:
non-blank lines outside comments and docstrings."""
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

# nine code lines: the import, both headers, the two lines of the
# parenthesized sum, the two of the string that is not a docstring, the
# return and the class attribute
FIXTURE = '''"""Module docstring
over two lines."""
import os  # a comment

# a whole-line comment


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    s = """a string
that is not a docstring"""
    return y


class C:
    """Class docstring,

    with a blank line inside."""

    z = 1
'''


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    one = tmp_path / "one.py"
    one.write_text(FIXTURE)
    two = tmp_path / "two.py"
    two.write_text('"""Only a docstring."""\n\nx = 1\n')
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(one), str(two)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.split("\n") == [f"     9 {one}", f"     1 {two}", "    10 total", ""]
