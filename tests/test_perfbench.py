"""The benchmark harness runs every workload at its smoke size, so a change
that breaks a workload's output check or the tracer's bindings fails here
and not only in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_ok():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "smoke ok", proc.stdout[-4000:]
