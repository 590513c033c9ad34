"""Print the code lines of each Python module in a directory, and their total.

Usage:

    python tools/code_lines.py DIR [DIR ...]

A code line is a line that holds at least one token other than a comment,
outside every docstring.  Docstrings are the leading string statements of
modules, classes and functions, found with ``ast``; comments and blank
lines are found with ``tokenize``.  Modules are found recursively and
listed by their path relative to DIR.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of a parsed module cover."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source hold code, docstrings, comments and blanks aside."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py DIR [DIR ...]", file=sys.stderr)
        return 2
    for top in map(Path, argv):
        total = 0
        for path in sorted(top.rglob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path.relative_to(top)}")
        print(f"{total:6d}  total in {top}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
