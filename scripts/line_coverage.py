#!/usr/bin/env python3
"""Print every statement of the `ssdr` package that a pytest run never
executes:

    python3 scripts/line_coverage.py [pytest arguments ...]

Without arguments it runs the tier-1 suite (`-q --continue-on-collection-errors`
over pyproject's testpaths).  It traces with `sys.settrace` and
`threading.settrace`, so it needs nothing beyond pytest; a traced tier-1 pass
takes about half as long again as a plain one.  Only this process is traced,
not the subprocesses some tests start.

A statement counts as run when any line of its header executed: the whole
statement for a simple one, its decorators and the lines before its body for
a compound one.  Docstrings are not statements here.  The report prints one
`path:line: source` line per statement never run, then a total.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "ssdr"


def statement_lines(tree: ast.Module) -> dict[int, range]:
    """First line -> the lines that count for each statement of `tree`."""
    lines = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue    # a docstring
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        lines[node.lineno] = range(first, max(first, last) + 1)
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the (file, line) pairs of `ssdr` it executed."""
    executed = set()
    ours = {}   # co_filename -> whether it is a file of the package

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        keep = ours.get(name)
        if keep is None:
            keep = ours[name] = Path(os.path.realpath(name)).parent == PKG
        return local if keep else None

    import pytest
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {(os.path.realpath(f), line) for f, line in executed}


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    code, executed = run_traced(argv[1:] or ["-q", "--continue-on-collection-errors"])
    missed = total = 0
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text().splitlines()
        for first, span in sorted(statement_lines(ast.parse("\n".join(source))).items()):
            total += 1
            if not any((str(path), line) in executed for line in span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} of {total} statements in {PKG.relative_to(ROOT)} never ran "
          f"(pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
