#!/usr/bin/env python3
"""Line counts of the ``timedchoice`` package, module by module.

Run from the repository root:

    python3 tools/loc.py [DIR]

``DIR`` defaults to this checkout's ``src/timedchoice``.  For each module,
and in total, prints its physical lines and its code lines: lines that hold
a token other than a comment or a line break, outside module, class and
function docstrings.  A token that spans lines (a triple-quoted string that
is not a docstring) counts every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module's, its classes' and its functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(physical lines, code lines)`` of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else ROOT / "src" / "timedchoice"
    total_lines = total_code = 0
    print(f"{'module':<20}{'lines':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:<20}{lines:>8,}{code:>8,}")
    print(f"{'total':<20}{total_lines:>8,}{total_code:>8,}")


if __name__ == "__main__":
    main()
