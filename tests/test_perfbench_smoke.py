"""The benchmark's traced runs still drive the package without failed ops.

The perfbench tracer wraps package functions from outside and reads some of
their positional arguments, so a changed call contract shows up only when a
traced run executes.  Each case runs one short traced round of a workload
in a subprocess, from a copy of perfbench/, scripts/ and src/, so the run's
span files land in the test's temporary directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload",
                         ["harness", "replication", "scripts", "oracle"])
def test_traced_workload_has_no_failed_ops(workload, tmp_path):
    skip = shutil.ignore_patterns("out", "results", "__pycache__")
    for part in ("perfbench", "scripts", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", "1", "--trace", "1"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] > 0
