"""One test per acceptance criterion, each at its stated time limit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gorsim
from gorsim.acceptance import CRITERIA, run_criterion


def _run(num):
    result = run_criterion(num)
    status = "PASS" if result.ok else "FAIL"
    print(f"criterion {result.num} {result.name}: {status} "
          f"({result.detail}) in {result.elapsed:.2f}s")
    assert result.ok, result.detail
    assert result.elapsed <= result.limit


@pytest.mark.parametrize(
    "num,name", [(num, name) for num, name, _, _ in CRITERIA])
def test_criterion(num, name):
    _run(num)


def test_criterion_fails_under_optimize_flag():
    # python -O strips assert statements; the criteria must still fail
    script = (
        "import gorsim.acceptance as a\n"
        "a.search = lambda v, k: []\n"
        "r = a.run_criterion(1)\n"
        "print(r.ok, r.detail)\n"
    )
    src = str(Path(gorsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.split()[0] == "False", out.stdout
    assert "0 classes" in out.stdout
