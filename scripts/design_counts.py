#!/usr/bin/env python3
"""Print three size figures of the `ssdr` package, and the public names
and the other definitions that only tests use:

  lines            the line count of every .py file under src/ssdr
  public names     the length of `ssdr.__all__`
  settable values  every parameter with a default, in every function and
                   method (nested ones included), plus every field of a
                   class whose name ends in `Config`
  test-only names  the `ssdr.__all__` names that the program does not use
  test-only definitions
                   the top-level functions and classes of the package's
                   modules, outside `__all__`, that the program does not
                   use, as module.name, and the classmethods and
                   staticmethods of their top-level classes that the
                   program does not call, as module.Class.method

A name defined in module M of the package (an `__all__` name is defined
where `__init__.py` imports it from) counts as used in these ways only:

  - another module of the package, but `__init__.py`, names it as an
    attribute or imports it;
  - M names it as a bare name, outside the name's own top-level
    definition;
  - a .py file of scripts/, or of perfbench/ but its test_*.py, names it
    as a name, an attribute or a string (the bench's probes bind by
    string).

A classmethod or staticmethod m of class C counts as called only where
a program file (a module of the package, or one of the files above) names
`C.m`, C a bare name or an attribute, or names `cls.m` inside C.

A name inside an annotation never counts, and neither does a string in
the package.

All are read from the source text (the AST), so nothing is imported:

    python3 scripts/design_counts.py [path/to/src/ssdr]

A path that holds no package whose `__init__.py` sets `__all__` is one
line of error and exit 2.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _config_fields(cls: ast.ClassDef) -> int:
    return sum(isinstance(node, ast.AnnAssign) for node in cls.body)


def _defaults(fn) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _outside_annotations(node):
    """`node` and every node below it, but those of an annotation."""
    yield node
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _outside_annotations(child)


def _referenced(tree: ast.Module, kinds) -> set:
    """The names `tree` references in the `kinds` of ways ("name" a bare
    name, "attribute", "import", "string" a string constant), outside
    annotations and outside the top-level definition of that same name."""
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in _outside_annotations(top):
            if isinstance(node, ast.Name) and "name" in kinds:
                name = node.id
            elif isinstance(node, ast.Attribute) and "attribute" in kinds:
                name = node.attr
            elif isinstance(node, ast.alias) and "import" in kinds:
                name = node.name.rpartition(".")[2]
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "string" in kinds):
                name = node.value
            else:
                continue
            if name != own:
                found.add(name)
    return found


def _program_trees(pkg: Path) -> list:
    """The ASTs of the program's other files: every .py file of scripts/
    and of perfbench/ but its test_*.py."""
    root = pkg.parent.parent
    files = sorted((root / "scripts").glob("*.py"))
    files += [f for f in sorted((root / "perfbench").glob("*.py"))
              if not f.name.startswith("test_")]
    return [ast.parse(f.read_text()) for f in files]


def _method_calls(tree: ast.Module) -> set:
    """The (class, method) pairs `tree` names as `C.m`, C a bare name or an
    attribute, or as `cls.m` inside the top-level class C; outside
    annotations."""
    found = set()
    for top in tree.body:
        for node in _outside_annotations(top):
            if isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if owner == "cls" and isinstance(top, ast.ClassDef):
                    owner = top.name
                found.add((owner, node.attr))
    return found


def _class_level(node) -> bool:
    """A method declared @classmethod or @staticmethod."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
        for d in node.decorator_list)


def _user(trees: dict, program: set):
    """The rule above, as used(module, name), for the package modules'
    `trees` (`__init__.py` left out) and the `program` references."""
    bare = {module: _referenced(tree, ("name",)) for module, tree in trees.items()}
    cross = {module: _referenced(tree, ("attribute", "import"))
             for module, tree in trees.items()}

    def used(module, name) -> bool:
        return (name in bare.get(module, ()) or name in program
                or any(name in refs for other, refs in cross.items() if other != module))
    return used


def counts(pkg: Path) -> dict:
    lines = settable = 0
    public = None
    trees, home = {}, {}
    for path in sorted(pkg.glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        tree = trees[path.stem] = ast.parse(text)
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
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    home.update({a.asname or a.name: node.module for a in node.names})
    if public is None:
        raise ValueError("not a package whose __init__.py sets __all__")
    trees.pop("__init__", None)
    program = _program_trees(pkg)
    used = _user(trees, set().union(*(_referenced(tree, ("name", "attribute", "string"))
                                      for tree in program)))
    called = set().union(*map(_method_calls, [*trees.values(), *program]))
    unused = [f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in public and not used(module, node.name)]
    unused += [f"{module}.{cls.name}.{fn.name}" for module, tree in trees.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if _class_level(fn) and (cls.name, fn.name) not in called]
    return {"lines": lines, "public names": len(public), "settable values": settable,
            "test-only names":
                " ".join(sorted(n for n in public if not used(home.get(n), n))) or "none",
            "test-only definitions": " ".join(sorted(unused)) or "none"}


def main(argv) -> int:
    pkg = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "ssdr"
    try:
        figures = counts(pkg)
    except (OSError, SyntaxError, ValueError) as exc:
        print(f"design_counts: {pkg}: {exc}", file=sys.stderr)
        return 2
    for name, value in figures.items():
        print(f"{name}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
