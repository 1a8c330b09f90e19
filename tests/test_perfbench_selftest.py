"""The benchmark's own self-test, run against the current sources.

The benchmark traces the package from outside, by wrapping public entry
points (``solver.run_extra_pass``, ``ptsets.build_type_mask``, each kind's
``add_all`` ...); a change that removes or renames one of them breaks the
benchmark, and this test reports it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
