import ast
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


def test_design_counts_reads_the_package():
    out = _design_counts(str(Path(ssdr.__file__).parent))
    assert out.returncode == 0, out.stderr
    names = [line.split(":")[0] for line in out.stdout.splitlines()]
    assert names == ["lines", "public names", "settable values", "test-only names",
                     "test-only definitions"]


def test_design_counts_lists_test_only_definitions(tmp_path):
    """A top-level function or class outside `__all__` that no program file
    references, but only its own definition or a test, is listed as
    module.name; one referenced from another definition or a script is
    not."""
    files = {
        "src/pkg/__init__.py": 'from .a import shown\n__all__ = ["shown"]\n',
        "src/pkg/a.py": ("def shown():\n    return _helper()\n\n"
                         "def _helper():\n    return 1\n\n"
                         "def only_tested():\n    return only_tested\n\n"
                         "class Used:\n    pass\n\n"
                         "class OnlyTested:\n    pass\n"),
        "scripts/run.py": "from pkg import shown\nfrom pkg.a import Used\nshown(), Used\n",
        "perfbench/test_a.py": "from pkg.a import OnlyTested, only_tested\nOnlyTested, only_tested\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    out = _design_counts(str(tmp_path / "src" / "pkg"))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[3:] == ["test-only names: none",
                         "test-only definitions: a.OnlyTested a.only_tested"]


def test_bitwise_digest_prints_its_documented_lines():
    """scripts/bitwise_digest.py exits 0 and prints as many lines as its
    docstring says, each `<name> <64 hex digits>` or `<name> none`, every
    name once, and each threads-1 line equal to its threads-2 twin."""
    script = _ROOT / "scripts" / "bitwise_digest.py"
    documented = re.search(r"It prints (\d+) lines", ast.get_docstring(ast.parse(
        script.read_text())))
    paths = [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, str(script)], cwd=_ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
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
    paths = [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "scripts/thread_scaling.py", "--res", "16",
                          "--spp", "4", "--repeats", "2"], cwd=_ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
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
    paths = [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "scripts/fit_memory.py", "--res", "8", "--spp", "2",
                          "--lighting", lighting], cwd=_ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2, out.stdout
    assert re.fullmatch(r"seconds: \d+\.\d{3}", lines[0]), lines[0]
    assert re.fullmatch(r"peak RSS: \d+\.\d MB", lines[1]), lines[1]
