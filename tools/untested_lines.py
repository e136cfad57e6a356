#!/usr/bin/env python3
"""Lines of the ``timedchoice`` package that a test run never executes.

Run from the repository root:

    python3 tools/untested_lines.py [PYTEST_ARGS...]

Runs pytest in this process (``PYTEST_ARGS`` default to ``-q
--continue-on-collection-errors``, the tier-1 run) under ``sys.settrace``,
tracing only code in ``src/timedchoice``, and prints, module by module, the
executable lines that never ran.  A module's executable lines are those that
the line tables (``co_lines()``) of its code objects, nested ones included,
name.  Uses the standard library only.  Traced, a run takes about twice as
long as untraced.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(source: str, filename: str = "<source>") -> set[int]:
    """Line numbers that the line tables of ``source``'s code objects name."""
    lines = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def untested(package: Path, run) -> dict[str, list[int]]:
    """Per module of ``package``, the executable lines that ``run()`` leaves unrun.

    Only frames whose code lives in ``package`` are traced line by line; a
    function's ``call`` event counts its first line as run.
    """
    package = Path(package).resolve()
    prefix = f"{package}{os.sep}"
    seen: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen.add((filename, frame.f_lineno))
        return trace

    outer = sys.gettrace(), threading.gettrace()  # a traced run may call this too
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    report = {}
    for path in sorted(package.glob("*.py")):
        ran = {line for name, line in seen if name == str(path)}
        report[path.name] = sorted(executable_lines(path.read_text(), str(path)) - ran)
    return report


def _ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str] | None = None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))
    status = []
    report = untested(
        ROOT / "src" / "timedchoice",
        lambda: status.append(pytest.main(args or ["-q", "--continue-on-collection-errors"])),
    )
    total = 0
    for name, lines in report.items():
        total += len(lines)
        if lines:
            print(f"{name}: {_ranges(lines)}")
    print(f"{total} lines never ran")
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main())
