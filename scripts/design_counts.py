#!/usr/bin/env python3
"""Print three size figures of the `ssdr` package, and the public names
that only tests use:

  lines            the line count of every .py file under src/ssdr
  public names     the length of `ssdr.__all__`
  settable values  every parameter with a default, in every function and
                   method (nested ones included), plus every field of a
                   class whose name ends in `Config`
  test-only names  the `ssdr.__all__` names that no program file references:
                   no .py file of src/ssdr (but `__init__.py`), scripts/ or
                   perfbench/ (but its test_*.py) names it, as a name, an
                   attribute or a string, outside the name's own top-level
                   definition

All are read from the source text (the AST), so nothing is imported:

    python3 scripts/design_counts.py [path/to/src/ssdr]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _config_fields(cls: ast.ClassDef) -> int:
    return sum(isinstance(node, ast.AnnAssign) for node in cls.body)


def _defaults(fn) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _referenced(tree: ast.Module) -> set:
    """Every name, attribute and string constant in `tree`, except those
    inside the top-level definition of that same name."""
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                found.add(name)
    return found


def unused_outside_tests(pkg: Path, public: list) -> list:
    root = pkg.parent.parent
    files = [f for f in pkg.glob("*.py") if f.name != "__init__.py"]
    files += sorted((root / "scripts").glob("*.py"))
    files += [f for f in sorted((root / "perfbench").glob("*.py"))
              if not f.name.startswith("test_")]
    used = set().union(*(_referenced(ast.parse(f.read_text())) for f in files))
    return sorted(set(public) - used)


def counts(pkg: Path) -> dict:
    lines = settable = 0
    public = None
    for path in sorted(pkg.glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                settable += _defaults(node)
            elif isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                settable += _config_fields(node)
        if path.name == "__init__.py":
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                    public = ast.literal_eval(node.value)
    return {"lines": lines, "public names": len(public), "settable values": settable,
            "test-only names": " ".join(unused_outside_tests(pkg, public)) or "none"}


def main(argv) -> int:
    pkg = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "ssdr"
    for name, value in counts(pkg).items():
        print(f"{name}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
