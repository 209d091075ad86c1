"""Count the logical lines of ``src/pimlite``, module by module.

A logical line is one ``NEWLINE`` token of the stdlib ``tokenize`` module:
one per simple statement line or compound statement header, however many
physical lines it spans.  Comments and blank lines give no ``NEWLINE``
token, so they count zero, and the logical line that a module, class or
function docstring starts is not counted either::

    python3 experiments/loc.py               # src/pimlite
    python3 experiments/loc.py path/to/pkg   # any directory of .py files

Prints one ``<count> <module>`` line per module, then ``<count> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pimlite"

_SKIPPED = {tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def logical_lines(source: str) -> int:
    """The logical lines of ``source``, docstrings excluded."""
    docstrings = _docstring_starts(ast.parse(source))
    count, start = 0, None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED:
            continue
        if start is None:  # the first token of a logical line
            start = tok.start
        if tok.type == tokenize.NEWLINE:
            count += start not in docstrings
            start = None
    return count


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        n = logical_lines(path.read_text())
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
