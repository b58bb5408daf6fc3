"""One benchmark run in a fresh process: import cellcloud, then call
``cellcloud.cli.main(argv)`` for each command of the workload's plan, over
and over until the run's time is spent.

Usage: worker.py SPEC RESULT. SPEC is a JSON file written by run.py; the
result (per-command exit codes, wall times and output digests, set-up time,
peak RSS, and the spans of a traced phase) is written as JSON to RESULT.
The parent sets PERFBENCH_SPAWN_T to its CLOCK_MONOTONIC reading just before
it started this process; set-up time runs from there until cellcloud is
imported.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _digest(stdout: str, outputs: list) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in outputs:
        try:
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def _run_command(cli, step: dict, clock, tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    span = tracer.open_command() if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(step["argv"]))
    except Exception:  # the run goes on; the command counts as failed
        rc, err = -1, io.StringIO(traceback.format_exc())
    finally:
        if tracer:
            tracer.close(span)
    wall = clock() - t0
    return {"rc": rc, "wall_s": wall, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "digest": _digest(out.getvalue(), step["outputs"])}


def _phase(cli, spec: dict, budget: float, clock, tracer) -> list:
    """Whole iterations of the plan while another one still fits the budget
    (at least one)."""
    iterations = []
    start = time.perf_counter()
    while True:
        steps = [_run_command(cli, step, clock, tracer) for step in spec["steps"]]
        iterations.append({"wall_s": sum(s["wall_s"] for s in steps), "steps": steps})
        elapsed = time.perf_counter() - start
        if elapsed * (len(iterations) + 1) / len(iterations) > budget:
            return iterations


def main() -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN_T"])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import cellcloud.cli as cli

    result = {"setup_s": time.monotonic() - spawn}
    if not spec.get("probe"):
        seconds = spec["seconds"]
        if spec["trace"]:
            sys.path.insert(0, spec["root"])
            from perfbench.tracer import Tracer

            # A first, untimed pass fills the allocator and the page cache, so
            # the plain and traced phases that are compared both run warm.
            result["warmup"] = _phase(cli, spec, 0.0, time.perf_counter, None)
            result["plain"] = _phase(cli, spec, seconds / 2, time.perf_counter, None)
            tracer = Tracer()
            tracer.install()
            result["traced"] = _phase(cli, spec, seconds / 2, tracer.clock, tracer)
            result["spans"] = tracer.spans
        else:
            result["plain"] = _phase(cli, spec, seconds, time.perf_counter, None)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
