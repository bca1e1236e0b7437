"""Count the code lines of Python modules: the non-blank lines that hold
something other than a comment or a docstring.

A docstring is the string that opens a module, class or function body
(found with ``ast``); the lines it spans do not count, even one that also
holds code after it.  A line counts when a token other than a comment or a
line break lies on it (found with ``tokenize``), so each line of a
multi-line expression or of a string that is not a docstring counts once.

Usage: python scripts/code_lines.py FILE...
It prints one line per file, then the total when there is more than one.
"""
import ast
import io
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr):
                value = body[0].value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    lines.update(range(value.lineno, value.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    text = source.splitlines()
    covered = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            covered.update(range(token.start[0], token.end[0] + 1))
    covered -= docstring_lines(ast.parse(source))
    return sum(1 for line in covered if text[line - 1].strip())


def main(paths) -> int:
    if not paths:
        print("usage: python scripts/code_lines.py FILE...", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {path}")
    if len(paths) > 1:
        print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
