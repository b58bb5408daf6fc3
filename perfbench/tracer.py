"""Spans around the calls each cellcloud module makes into the next one down.

The tracer replaces public functions as they are bound in their consumer
module (``cellcloud.cli.embed``, ``cellcloud.nie.count_in_radii``,
``cellcloud.hsp.fps``, ...) with wrappers that record a span: name, start,
end, parent span and counters. Spans stay in memory and are returned at the
end of the run. Counters are computed after the wrapped call returns, on a
paused clock, so they add nothing to any span. The same holds for the
single-thread repeat of every neighbour count.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# (consumer module, attribute, span name). The layer is the span name's prefix.
TARGETS = [
    ("cli", "read_cloud", "core.read"),
    ("cli", "read_features", "core.read"),
    ("cli", "write_cloud", "core.write"),
    ("cli", "write_features", "core.write"),
    ("cli", "validate_cloud", "core.validate"),
    ("cli", "load_patch_dir", "ingest.load"),
    ("cli", "merge_boundary_cells", "ingest.merge"),
    ("cli", "embed", "nie.embed"),
    ("nie", "mean_nn_distance", "spatial.mean_nn"),
    ("nie", "build_index", "spatial.index"),
    ("nie", "count_in_radii", "spatial.count"),
    ("cli", "init_weights", "hsp.init"),
    ("cli", "hsp_forward", "hsp.forward"),
    ("hsp", "_nn_mean_xy", "spatial.mean_nn"),
    ("hsp", "fps", "spatial.fps"),
    ("hsp", "knn_group", "spatial.knn"),
    ("cli", "cps", "clinical.cps"),
    ("cli", "mcps", "clinical.mcps"),
    ("cli", "read_cohort_csv", "clinical.survival"),
    ("cli", "median_split", "clinical.survival"),
    ("cli", "km_curve", "clinical.survival"),
    ("cli", "logrank", "clinical.survival"),
    ("cli", "write_km_csv", "clinical.survival"),
    ("cli", "c_index", "clinical.survival"),
]

COMMAND = "cli.command"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._paused = 0.0

    def clock(self) -> float:
        """Seconds on a clock that stands still while the tracer does its own work."""
        return time.perf_counter() - self._paused

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "parent": parent, "start": self.clock(), "end": None, "n": {}})
        self._stack.append(idx)
        return idx

    def open_command(self) -> int:
        return self.open(COMMAND)

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = self.clock()
        self._stack.pop()

    def _record(self, idx: int, fn, *args) -> None:
        t0 = time.perf_counter()
        try:
            self.spans[idx]["n"].update(fn(*args))
        finally:
            self._paused += time.perf_counter() - t0

    def install(self) -> None:
        for mod_name, attr, name in TARGETS:
            module = importlib.import_module(f"cellcloud.{mod_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, _COUNTERS.get((mod_name, attr))))

    def _wrap(self, original, name, counters):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name == "hsp.forward" and kwargs.get("trace") is None and len(args) < 6:
                kwargs["trace"] = []  # the forward pass's public per-level record
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if counters is not None:
                self._record(idx, counters, original, args, kwargs, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# counters, computed after each call on the paused clock
# ---------------------------------------------------------------------------


def _file_bytes(original, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _load_counters(original, args, kwargs, result):
    return {"patches": len(result), "cells_in": sum(p.n_cells for p in result)}


def _merge_counters(original, args, kwargs, result):
    import numpy as np

    d_boundary = kwargs.get("d_boundary", 24.0)
    band = 0
    for p in args[0]:
        lx, ly = p.xy[:, 0], p.xy[:, 1]
        edge = np.minimum(np.minimum(lx, p.patch_size - lx), np.minimum(ly, p.patch_size - ly))
        band += int(np.count_nonzero(edge < d_boundary))
    return {"cells_out": result.n_total, "seam_cells": band}


def _count_counters(original, args, kwargs, result):
    import numpy as np

    t0 = time.perf_counter()
    single = original(args[0], args[1], threads=1)
    elapsed = time.perf_counter() - t0
    return {
        "count_1t_s": elapsed,
        "same_as_1t": bool(np.array_equal(single.counts, result.counts)),
        "pairs": int(result.counts[:, -1, :].sum(dtype=np.int64)),
    }


def _fps_counters(original, args, kwargs, result):
    return {"picks": int(len(result))}


def _knn_counters(original, args, kwargs, result):
    rows = int(result.shape[0])
    return {"rows": rows, "dist_evals": rows * int(len(args[1]))}


def _forward_counters(original, args, kwargs, result):
    return {"levels": [[t.n_anchors, t.group_size, t.delta_sum_err] for t in kwargs["trace"]]}


def _cohort_counters(original, args, kwargs, result):
    return {"patients": len(result), "events": result.n_events}


_COUNTERS = {
    ("cli", "read_cloud"): _file_bytes,
    ("cli", "read_features"): _file_bytes,
    ("cli", "write_cloud"): _file_bytes,
    ("cli", "write_features"): _file_bytes,
    ("cli", "load_patch_dir"): _load_counters,
    ("cli", "merge_boundary_cells"): _merge_counters,
    ("nie", "count_in_radii"): _count_counters,
    ("hsp", "fps"): _fps_counters,
    ("hsp", "knn_group"): _knn_counters,
    ("cli", "hsp_forward"): _forward_counters,
    ("cli", "read_cohort_csv"): _cohort_counters,
}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced run
# ---------------------------------------------------------------------------


def _self_times(spans: list[dict]) -> tuple[list[float], list[float]]:
    dur = [s["end"] - s["start"] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]] += dur[i]
    return dur, [d - c for d, c in zip(dur, children)]


def _levels(spans: list[dict], dur: list[float]) -> list[list[dict]]:
    """Per forward call, per level: wall, self time, anchors and k. Level l
    runs from the start of the l-th fps call (the first level from the start
    of the forward pass) to the start of the next level; its self time is
    its wall minus the spatial calls that start inside it."""
    out = []
    for f, span in enumerate(spans):
        if span["name"] != "hsp.forward":
            continue
        kids = [i for i, s in enumerate(spans) if s["parent"] == f]
        fps_starts = sorted(spans[i]["start"] for i in kids if spans[i]["name"] == "spatial.fps")
        levels = span["n"]["levels"]
        if len(fps_starts) != len(levels):
            raise ValueError(f"{len(fps_starts)} fps calls for {len(levels)} levels")
        bounds = [span["start"]] + fps_starts[1:] + [span["end"]]
        calls = []
        for lvl, (anchors, k, err) in enumerate(levels):
            lo, hi = bounds[lvl], bounds[lvl + 1]
            inner = sum(dur[i] for i in kids if lo <= spans[i]["start"] < hi)
            calls.append({"wall": hi - lo, "self": hi - lo - inner, "anchors": anchors, "k": k, "err": err})
        out.append(calls)
    return out


def per_layer(spans: list[dict], iterations: int) -> tuple[dict, float]:
    """Per-layer metrics, each a per-iteration value, and the share of the
    commands' wall time that the layers' self times account for."""
    if any(s["end"] is None for s in spans):
        raise ValueError("a span was never closed")
    if any(s["parent"] is None and s["name"] != COMMAND for s in spans):
        raise ValueError("a library call ran outside any command")
    dur, self_t = _self_times(spans)
    idx: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        idx.setdefault(s["name"], []).append(i)

    def total(name):
        return sum(dur[i] for i in idx.get(name, ())) / iterations

    def own(name):
        return sum(self_t[i] for i in idx.get(name, ())) / iterations

    def count(name, key):
        return sum(spans[i]["n"].get(key, 0) for i in idx.get(name, ())) / iterations

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.self_s": own(COMMAND),
        "cli.commands": len(idx.get(COMMAND, ())) / iterations,
        "core.read_s": total("core.read"),
        "core.write_s": total("core.write"),
        "core.validate_s": total("core.validate"),
        "core.bytes_read": count("core.read", "bytes"),
        "core.bytes_written": count("core.write", "bytes"),
        "ingest.load_s": total("ingest.load"),
        "ingest.merge_s": total("ingest.merge"),
        "ingest.patches": count("ingest.load", "patches"),
        "ingest.cells_in": count("ingest.load", "cells_in"),
        "ingest.cells_out": count("ingest.merge", "cells_out"),
        "ingest.seam_cells": count("ingest.merge", "seam_cells"),
        "nie.embed_s": total("nie.embed"),
        "nie.self_s": own("nie.embed"),
        "spatial.mean_nn_s": total("spatial.mean_nn"),
        "spatial.index_s": total("spatial.index"),
        "spatial.count_s": total("spatial.count"),
        "spatial.count_s_1t": count("spatial.count", "count_1t_s"),
        "spatial.neighbor_pairs": count("spatial.count", "pairs"),
        "spatial.fps_s": total("spatial.fps"),
        "spatial.knn_s": total("spatial.knn"),
        "spatial.fps_picks": count("spatial.fps", "picks"),
        "spatial.knn_rows": count("spatial.knn", "rows"),
        "spatial.knn_dist_evals": count("spatial.knn", "dist_evals"),
        "hsp.forward_s": total("hsp.forward"),
        "hsp.self_s": own("hsp.forward"),
        "hsp.init_s": total("hsp.init"),
        "clinical.cps_s": total("clinical.cps"),
        "clinical.mcps_s": total("clinical.mcps"),
        "clinical.survival_s": total("clinical.survival"),
        "clinical.patients": max((spans[i]["n"].get("patients", 0) for i in idx.get("clinical.survival", ())), default=0),
        "clinical.events": max((spans[i]["n"].get("events", 0) for i in idx.get("clinical.survival", ())), default=0),
    }
    m["ingest.parse_us_per_cell"] = ratio(m["ingest.load_s"], m["ingest.cells_in"]) * 1e6
    m["ingest.merge_yield"] = ratio(m["ingest.cells_in"] - m["ingest.cells_out"], m["ingest.seam_cells"])
    m["spatial.count_speedup"] = ratio(m["spatial.count_s_1t"], m["spatial.count_s"])
    calls = _levels(spans, dur)
    m["hsp.delta_sum_err"] = max((lv["err"] for c in calls for lv in c), default=0.0)
    for lvl in range(3):
        here = [c[lvl] for c in calls if len(c) > lvl]
        key = f"hsp.L{lvl + 1}."
        m[key + "wall_s"] = sum(lv["wall"] for lv in here) / iterations
        m[key + "self_s"] = sum(lv["self"] for lv in here) / iterations
        m[key + "anchors"] = sum(lv["anchors"] for lv in here) / iterations
        m[key + "k"] = ratio(sum(lv["k"] for lv in here), len(here))
        m[key + "pairs"] = sum(lv["anchors"] * lv["k"] ** 2 for lv in here) / iterations
    commands = sum(dur[i] for i in idx.get(COMMAND, ()))
    return m, ratio(sum(self_t), commands)
