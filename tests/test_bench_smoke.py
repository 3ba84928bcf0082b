"""The benchmark's smoke run: every command path once on the fixtures, with
each output checked against the facts pinned in bench/expected.json."""

import subprocess
import sys

from conftest import ROOT


def test_bench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
