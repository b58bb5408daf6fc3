"""The README's demo scripts run end to end at one seed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, lines",
    [
        (
            "toy_clusters.py",
            ["--seeds", "0"],
            [
                r"seed=0 cells=\d+ purity=[01]\.\d{3} silhouette=-?[01]\.\d{3}",
                r"summary: worst purity=[01]\.\d{3} worst silhouette=-?[01]\.\d{3} over 1 seeds",
            ],
        ),
        (
            "cohort_stratification.py",
            ["--n", "40", "--seeds", "0"],
            [
                r"seed=0 score=cps  logrank_p=\S+ c_index=[01]\.\d{3}",
                r"seed=0 score=mcps logrank_p=\S+ c_index=[01]\.\d{3}",
                r"summary: mcps p <= cps p in [01]/1 seeds",
            ],
        ),
    ],
)
def test_demo_script_runs(tmp_path, script, args, lines):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    for pattern in lines:
        assert any(re.fullmatch(pattern, line) for line in out), (pattern, proc.stdout)
    assert list(tmp_path.iterdir()) == []
