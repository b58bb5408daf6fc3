"""cellcloud benchmark: one seeded workload per run, measured in a fresh worker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The run generates (or reuses) the workload's
inputs for the seed under .bench_cache/, then starts one worker that calls
``cellcloud.cli.main`` for the workload's commands until S seconds are
spent. Bare start-ups of the worker before and after it give more samples
of set-up time. Every command's output is checked against an independent reference.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). --smoke runs every workload at a tiny size in both modes and
checks that each metric in BENCHMARK.json is emitted with its unit.
"""

import os

# BLAS stays single-threaded so cellcloud's --threads (one per core) is the
# only parallelism; the workers inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
PROBES = 3  # bare worker start-ups before, and again after, the measuring worker
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, broken worker)."""


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "cpu": cpu,
        "cores": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _spawn(spec: dict, workdir: Path) -> dict:
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PERFBENCH_SPAWN_T=repr(time.monotonic()))
    proc = subprocess.Popen([sys.executable, str(WORKER), str(spec_path), str(result_path)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker exited with {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _verify(workload: str, inputs: Path, steps: list, iterations: list, props: dict) -> tuple[int, list]:
    """Failed command count and reasons. A command fails if it exits non-zero
    or its output differs from the reference. The last iteration's files are
    checked in full; every earlier run of the same command must have produced
    the same bytes and stdout."""
    from perfbench import oracle

    failed, reasons = 0, []
    final = iterations[-1]["steps"]
    for i, step in enumerate(steps):
        runs = [it["steps"][i] for it in iterations]
        try:
            if final[i]["rc"] != 0:
                raise ValueError(f"exit code {final[i]['rc']}: {final[i]['stderr'].strip()[-500:]}")
            oracle.check_step(workload, inputs, dict(step, stdout=final[i]["stdout"]), props)
        except (ValueError, OSError, KeyError, IndexError) as exc:
            failed += len(runs)
            reasons.append(f"{step['name']}: {exc}")
            continue
        bad = sum(1 for r in runs if r["rc"] != 0 or r["digest"] != final[i]["digest"])
        if bad:
            failed += bad
            reasons.append(f"{step['name']}: {bad} run(s) gave other output than the checked one")
    return failed, reasons


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full", probes: int = PROBES) -> dict:
    from perfbench import oracle, tracer, workloads

    env = _environment()
    inputs, props = workloads.prepare(ROOT, workload, seed, size)
    with tempfile.TemporaryDirectory(prefix="run-", dir=inputs.parent.parent) as tmp:
        work = Path(tmp)
        out = work / "out"
        out.mkdir()
        threads = env["cores"]
        steps = workloads.plan(workload, inputs.relative_to(ROOT), out.relative_to(ROOT), threads)
        base = {"src": str(SRC), "root": str(ROOT)}
        probe = dict(base, probe=True)
        setups = [_spawn(probe, work)["setup_s"] for _ in range(probes)]
        res = _spawn(dict(base, steps=steps, seconds=seconds, trace=trace), work)
        setups += [res["setup_s"]] + [_spawn(probe, work)["setup_s"] for _ in range(probes)]
        iterations = res.get("warmup", []) + res["plain"] + res.get("traced", [])
        failed, reasons = _verify(workload, inputs, steps, iterations, props)
    attempted = sum(len(it["steps"]) for it in iterations)
    summary = {"workload": workload, "seed": seed, "size": size, "trace": int(trace), "threads": threads,
               "iteration_walls_s": {k: [it["wall_s"] for it in res[k]] for k in ("warmup", "plain", "traced") if k in res}}
    cells = props["cells"]
    if trace:
        spans = res["spans"]
        metrics, accounted = tracer.per_layer(spans, len(res["traced"]))
        missing = [n for n in workloads.EXPECTED_SPANS[workload] if not any(s["name"] == n for s in spans)]
        if missing:
            raise BenchError(f"traced run recorded no call for: {', '.join(missing)}")
        if abs(accounted - 1.0) > 0.01:
            raise BenchError(f"layer self times account for {accounted:.4f} of the commands' wall time")
        plain = statistics.median(it["wall_s"] for it in res["plain"])
        traced = statistics.median(it["wall_s"] for it in res["traced"])
        metrics["trace.overhead_frac"] = traced / plain - 1.0
        if metrics["hsp.delta_sum_err"] > oracle.DELTA_SUM_GATE:
            failed += 1
            reasons.append(f"attention-sum error {metrics['hsp.delta_sum_err']:.3g} above the gate")
        unequal = sum(1 for s in spans if s["n"].get("same_as_1t") is False)
        if unequal:
            failed += unequal
            reasons.append(f"{unequal} neighbour count(s) differ from the single-thread repeat")
        summary["self_time_accounted"] = accounted
    else:
        metrics = {
            "cells_per_s": statistics.median(cells / it["wall_s"] for it in res["plain"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        summary["setup_samples_s"] = setups
    summary.update(attempted=attempted, failed=failed, fail_rate=failed / attempted)
    return {"env": env, "inputs": props, "summary": summary, "reasons": reasons,
            "metrics": metrics, "attempted": attempted, "failed": failed}


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _result_line(report: dict, units: dict) -> str:
    metrics = report["metrics"]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    })


def _smoke() -> int:
    from perfbench import workloads

    units = _declared()
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            t0 = time.monotonic()
            report = run(workload, seed=0, seconds=0.2, trace=trace, size="smoke", probes=1)
            line = json.loads(_result_line(report, units[trace]))
            if not line["correct"]:
                print(f"smoke {workload} trace={int(trace)}: {report['reasons']}", file=sys.stderr)
                return 1
            print(f"smoke {workload} trace={int(trace)}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} commands, {time.monotonic() - t0:.1f} s")
            print(json.dumps(line["metrics"]))
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    args = parser.parse_args(argv)
    if not (SRC / "cellcloud" / "cli.py").is_file() or not (ROOT / "tests" / "hsp_reference.py").is_file():
        print(f"error: no cellcloud checkout at {ROOT} (need src/cellcloud and tests/hsp_reference.py)",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import workloads

    try:
        if args.smoke:
            return _smoke()
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
        units = _declared()[bool(args.trace)]
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for reason in report["reasons"]:
        print(f"check failed: {reason}", file=sys.stderr)
    print("env " + json.dumps(report["env"]))
    print("inputs " + json.dumps(report["inputs"]))
    print("summary " + json.dumps(report["summary"]))
    print(_result_line(report, units))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
