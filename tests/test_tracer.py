"""What the benchmark's tracer (``perfbench/tracer.py``) needs of the package.

The tracer rebinds public functions by name in their consumer modules and
passes ``trace=`` to ``hsp_forward``. A renamed binding or a changed
signature would otherwise surface only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from cellcloud.clinical import read_cohort_csv
from cellcloud.core import write_cloud

from conftest import random_cloud

ROOT = Path(__file__).resolve().parent.parent

# Runs each argv list through cellcloud.cli.main as one traced command and
# writes the exit codes, the spans and the per-layer metrics as JSON.
SCRIPT = """
import json, sys
from perfbench.tracer import Tracer, per_layer
import cellcloud.cli as cli

tracer = Tracer()
tracer.install()
codes = []
for argv in json.loads(sys.argv[1]):
    span = tracer.open_command()
    codes.append(cli.main(argv))
    tracer.close(span)
metrics, _ = per_layer(tracer.spans, 1)
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "spans": tracer.spans, "metrics": metrics}, fh)
"""


def traced(tmp_path, commands):
    """Exit codes, spans and per-layer metrics of ``commands`` run under the tracer."""
    result = tmp_path / "trace.json"
    path = [str(ROOT), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands), str(result)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_tracer_records_nie_and_forward(tmp_path):
    cloud_path = tmp_path / "cloud.cc5b"
    write_cloud(cloud_path, random_cloud(np.random.Generator(np.random.Philox(0)), 120))
    commands = [
        ["nie", str(cloud_path), "-o", str(tmp_path / "e.ccem")],
        ["forward", str(cloud_path), "--seed", "0", "--levels", "2", "--anchors", "16",
         "--n-basic", "4", "--encode-dim", "16", "-o", str(tmp_path / "f.ccem")],
    ]
    got = traced(tmp_path, commands)
    assert got["codes"] == [0, 0]
    spans = got["spans"]
    assert sum(s["name"] == "nie.embed" for s in spans) == 2
    (forward,) = [i for i, s in enumerate(spans) if s["name"] == "hsp.forward"]
    assert len(spans[forward]["n"]["levels"]) == 2
    fps = [s for s in spans if s["name"] == "spatial.fps"]
    assert len(fps) == 2 and all(s["parent"] == forward for s in fps)
    metrics = got["metrics"]
    assert (metrics["hsp.L1.anchors"], metrics["hsp.L2.anchors"]) == (16, 4)
    assert metrics["cli.commands"] == 2


def test_tracer_records_the_cohort_commands(tmp_path):
    # The tracer's clinical spans rebind cli.cps, cli.mcps and the survival
    # functions (read_cohort_csv, median_split, km_curve, logrank,
    # write_km_csv, c_index); the cohort benchmark reads their spans.
    n = 4
    clouds = [str(tmp_path / f"patient_{i:04d}.cc5b") for i in range(n)]
    cohort = str(tmp_path / "cohort.csv")
    commands = [
        ["synth", "--kind", "cohort", "--n", str(n), "--seed", "0", "-o", str(tmp_path)],
        ["cps", *clouds, "-o", str(tmp_path / "cps.csv")],
        ["mcps", *clouds, "-o", str(tmp_path / "mcps.csv")],
        ["km", cohort, "-o", str(tmp_path / "km")],
        ["cindex", cohort],
    ]
    got = traced(tmp_path, commands)
    assert got["codes"] == [0] * 5
    names = [s["name"] for s in got["spans"]]
    assert names.count("clinical.cps") == names.count("clinical.mcps") == n
    # km: read, split, two curves, log-rank, two curve files; cindex: read, c_index
    assert names.count("clinical.survival") == 9
    metrics = got["metrics"]
    assert metrics["clinical.patients"] == n
    assert metrics["clinical.events"] == read_cohort_csv(cohort).n_events > 0
    assert metrics["clinical.survival_s"] > 0 and metrics["cli.commands"] == 5
