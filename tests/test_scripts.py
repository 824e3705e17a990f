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
    assert names == ["lines", "public names", "settable values", "test-only names"]


@pytest.mark.parametrize("path", ["--help", "no/such/dir", "src", "tests"])
def test_design_counts_bad_path_exit_2(path):
    """A path that is no package setting `__all__` is one line naming the
    path and exit 2, not a traceback."""
    out = _design_counts(path)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1 and path in out.stderr, out.stderr
