import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ssdr

_ROOT = Path(__file__).resolve().parents[1]


def _design_counts(*args):
    """scripts/design_counts.py run from the repository root."""
    return subprocess.run([sys.executable, "scripts/design_counts.py", *args], cwd=_ROOT,
                          capture_output=True, text=True, timeout=60)


def _script(name, *args, timeout=120):
    """scripts/<name> run from the repository root, with src on its path."""
    paths = [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, str(_ROOT / "scripts" / name), *args], cwd=_ROOT,
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_design_counts_reads_the_package():
    out = _design_counts(str(Path(ssdr.__file__).parent))
    assert out.returncode == 0, out.stderr
    names = [line.split(":")[0] for line in out.stdout.splitlines()]
    assert names == ["lines", "public names", "settable values", "test-only names",
                     "test-only definitions"]


def test_design_counts_lists_test_only_definitions(tmp_path):
    """A name defined in a module of the package counts as used in three
    ways, one case each: another package module takes it as an attribute
    or imports it; its own module names it bare outside its definition; a
    script names it, or a bench file other than a test names it as a
    string.  A test, an annotation, a string in the package and the
    name's own definition do not count: a top-level function or class so
    used is listed as module.name, and an `__all__` name as itself.  A
    classmethod or staticmethod counts as called where a program file
    names it as `C.m` (C bare or an attribute) or as `cls.m` inside C, one
    case each; one called only through an instance or only by a test is
    listed as module.Class.method."""
    files = {
        "src/pkg/__init__.py": ('from .a import PublicAnnotated, shown\n'
                                '__all__ = ["PublicAnnotated", "shown"]\n'),
        "src/pkg/a.py": ("def shown(x: OnlyAnnotated) -> PublicAnnotated:\n"
                         "    return _helper(), NAMES\n\n"
                         "def _helper():\n    return 1\n\n"
                         "def only_tested():\n    return only_tested\n\n"
                         "def by_attribute():\n    pass\n\n"
                         "def by_import():\n    pass\n\n"
                         "def by_string():\n    pass\n\n"
                         "def only_in_a_string():\n    pass\n\n"
                         "NAMES = ('only_in_a_string',)\n\n"
                         "class Used:\n"
                         "    @classmethod\n    def by_program(cls):\n        return cls.by_cls()\n\n"
                         "    @classmethod\n    def by_cls(cls):\n        pass\n\n"
                         "    @classmethod\n    def by_module_attribute(cls):\n        pass\n\n"
                         "    @classmethod\n    def by_instance(cls):\n        pass\n\n"
                         "    @staticmethod\n    def only_tested_static():\n        pass\n\n"
                         "class OnlyTested:\n    pass\n\n"
                         "class OnlyAnnotated:\n    pass\n\n"
                         "class PublicAnnotated:\n    pass\n"),
        "src/pkg/b.py": ("from . import a\nfrom .a import by_import\n"
                         "VALUE = a.by_attribute(), by_import(), a.Used.by_module_attribute()\n"),
        "scripts/run.py": ("from pkg import shown\nfrom pkg.a import Used\n"
                           "shown(None), Used.by_program(), Used().by_instance()\n"),
        "perfbench/probes.py": 'BINDINGS = [("pkg.a", "by_string")]\n',
        "perfbench/test_a.py": ("from pkg.a import OnlyTested, Used, only_tested\n"
                                "OnlyTested, only_tested, Used.only_tested_static()\n"),
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    out = _design_counts(str(tmp_path / "src" / "pkg"))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[3:] == ["test-only names: PublicAnnotated",
                         "test-only definitions: a.OnlyAnnotated a.OnlyTested "
                         "a.Used.by_instance a.Used.only_tested_static "
                         "a.only_in_a_string a.only_tested"]


def _digest_environment() -> dict:
    """`environment()` of scripts/bitwise_digest.py, run in this process."""
    spec = importlib.util.spec_from_file_location("bitwise_digest",
                                                  _ROOT / "scripts" / "bitwise_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.environment()


def test_bitwise_digest_prints_its_documented_lines():
    """scripts/bitwise_digest.py exits 0 and prints as many lines as its
    docstring says, each `<name> <64 hex digits>` or `<name> none`, every
    name once, and each threads-1 line equal to its threads-2 twin.  The
    lines are those of tests/bitwise_digest.txt, byte for byte; where this
    environment differs from the file's header, that comparison is
    skipped, naming the field."""
    script = _ROOT / "scripts" / "bitwise_digest.py"
    documented = re.search(r"It prints (\d+) lines", ast.get_docstring(ast.parse(
        script.read_text())))
    out = _script(script.name, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == int(documented.group(1))
    for line in lines:
        assert re.fullmatch(r"\S+ ([0-9a-f]{64}|none)", line), line
    digests = dict(line.split(" ") for line in lines)
    assert len(digests) == len(lines)
    twins = [name for name in digests if "/t1/" in name]
    assert twins
    for name in twins:
        assert digests[name] == digests[name.replace("/t1/", "/t2/")], name

    text = (_ROOT / "tests" / "bitwise_digest.txt").read_text().splitlines()
    header = dict(line[2:].split(": ", 1) for line in text if line.startswith("# "))
    here = _digest_environment()
    assert header.keys() == here.keys()
    for field, value in header.items():
        if here[field] != value:
            pytest.skip(f"bitwise_digest.txt holds the bytes of {field} {value}, "
                        f"not of this {field} {here[field]}")
    checked = dict(line.split(" ") for line in text if not line.startswith("# "))
    moved = [name for name in checked if name in digests and digests[name] != checked[name]]
    appeared = [name for name in digests if name not in checked]
    went = [name for name in checked if name not in digests]
    assert not (moved or appeared or went), (
        f"moved: {moved}; appeared: {appeared}; went: {went} "
        f"(scripts/bitwise_digest.py --write rewrites the file)")


@pytest.mark.parametrize("path", ["--help", "no/such/dir", "src", "tests"])
def test_design_counts_bad_path_exit_2(path):
    """A path that is no package setting `__all__` is one line naming the
    path and exit 2, not a traceback."""
    out = _design_counts(path)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1 and path in out.stderr, out.stderr


def test_thread_scaling_prints_its_figures():
    """A small render at threads 1 and 2, and at threads 1 in two
    processes at once: one line per case with seconds and context
    switches per render, then both efficiencies and the peak RSS."""
    out = _script("thread_scaling.py", "--res", "16", "--spp", "4", "--repeats", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 5, out.stdout
    for case, line in zip(("threads 1", "threads 2", "threads 1, two processes"), lines):
        assert re.fullmatch(rf"{case}: \d+\.\d{{4}} s per render, \d+ voluntary "
                            r"context switches per render", line), line
    assert re.fullmatch(r"efficiency t1 / \(2 t2\): \d+\.\d{3}, "
                        r"two processes t1 / tp: \d+\.\d{3}", lines[3]), lines[3]
    assert re.fullmatch(r"peak RSS: \d+\.\d MB", lines[4]), lines[4]


@pytest.mark.parametrize("lighting", ["learned", "bundle"])
def test_fit_memory_prints_its_figures(lighting):
    """One 8x8 fit iteration in a forked child: its seconds, then its
    peak RSS."""
    out = _script("fit_memory.py", "--res", "8", "--spp", "2", "--lighting", lighting)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2, out.stdout
    assert re.fullmatch(r"seconds: \d+\.\d{3}", lines[0]), lines[0]
    assert re.fullmatch(r"peak RSS: \d+\.\d MB", lines[1]), lines[1]


def test_demo_inverse_runs(tmp_path):
    """A 4x4 run of one iteration per case exits 0, prints the albedo and
    the roughness summary lines, and writes its four previews and two
    loss traces."""
    out = _script("demo_inverse.py", "--out", str(tmp_path), "--res", "4", "--iters", "1",
                  "--spp", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 3, out.stdout
    for case, line in zip(("albedo:    ", "roughness: "), lines):
        assert re.fullmatch(rf"{case}loss \S+ -> \S+, mean \|err\| \d+\.\d{{4}}", line), line
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "albedo_init.png", "albedo_loss.csv", "albedo_recovered.png", "roughness_loss.csv",
        "roughness_recovered.png", "target.png"]
