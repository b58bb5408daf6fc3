"""Seeded input generators and command plans for the benchmark workloads.

Every workload is a function of (seed, size) only: the same seed writes the
same files. The program under test sees nothing but those files. Beside the
inputs each generator stores the oracle data the checks need (planted merge
pairs, sampled neighbour counts, reference descriptors, scores), so the
expensive references are paid once per seed and cached with the inputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from . import oracle

#: Input sizes per mode. "full" is what a benchmark run measures; "smoke" runs
#: every workload end to end in seconds.
SIZES = {
    "full": {
        "ingest-patches": {"grid": 60},
        "embed-1m": {"cells": 1_000_000, "samples": 2000},
        "forward-20k": {"cells": 20_000},
        "cohort-small": {"patients": 8, "min_cells": 400, "max_cells": 2000},
    },
    "smoke": {
        "ingest-patches": {"grid": 4},
        "embed-1m": {"cells": 20_000, "samples": 200},
        "forward-20k": {"cells": 600},
        "cohort-small": {"patients": 3, "min_cells": 200, "max_cells": 400},
    },
}

WORKLOADS = tuple(SIZES["full"])

PATCH = 512.0
LATTICE = 7  # lattice cells per patch side: 49 per patch, plus seam detections
TYPE_TOKENS = ("neoplastic", "inflammatory", "other")
FORWARD_SEED = 7  # weight seed passed to `cellcloud forward`
MCPS_SEED = 11  # box seed passed to `cellcloud mcps`
ALPHA = (0.33, 0.33, 0.33)  # the CLI's "equal" preset, used by cps and mcps
CACHE_KEEP = 12  # generated seeds kept per workload and size

# Spans each workload must record in a traced run (see tracer.TARGETS).
_CLOUD_IN = ["core.read", "core.validate"]
_EMBED = ["nie.embed", "spatial.mean_nn", "spatial.index", "spatial.count"]
_FORWARD = _CLOUD_IN + _EMBED + [
    "hsp.init", "hsp.forward", "spatial.fps", "spatial.knn", "core.write",
]
EXPECTED_SPANS = {
    "ingest-patches": ["ingest.load", "ingest.merge", "core.write"],
    "embed-1m": _CLOUD_IN + _EMBED + ["core.write"],
    "forward-20k": _FORWARD,
    "cohort-small": _FORWARD + ["clinical.cps", "clinical.mcps", "clinical.survival"],
}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag])))


def write_cc5b(path: Path, xy: np.ndarray, types: np.ndarray) -> None:
    rec = np.empty(len(types), dtype=oracle.CC5B_RECORD)
    rec["x"], rec["y"], rec["t"] = xy[:, 0], xy[:, 1], types
    with open(path, "wb") as fh:
        fh.write(b"CC5B" + np.array([1], "<u4").tobytes() + np.array([len(types)], "<u8").tobytes())
        fh.write(rec.tobytes())


def _require_unique(xy: np.ndarray, types: np.ndarray) -> None:
    order = np.lexsort((types, xy[:, 1], xy[:, 0]))
    a, t = xy[order], types[order]
    same = (a[1:, 0] == a[:-1, 0]) & (a[1:, 1] == a[:-1, 1]) & (t[1:] == t[:-1])
    if same.any():
        raise RuntimeError("generator produced a duplicate cell")


def _clark_evans(d_mean: float, n: int, area: float) -> float:
    """Mean nearest-neighbour distance over its value under complete spatial
    randomness; below 1 means clustered."""
    return d_mean / (0.5 / math.sqrt(n / area))


# ---------------------------------------------------------------------------
# ingest-patches
# ---------------------------------------------------------------------------


def _gen_ingest(d: Path, seed: int, grid: int) -> dict:
    """A grid x grid slide of 512 px patch CSVs.

    Each patch holds a jittered 7 x 7 lattice of cells at least 18 px from its
    border and at least 37 px apart. Every seam carries one planted cell
    detected in both patches: two same-type detections under 6 px apart and
    under 3 px from the seam, at least 40 px from any corner. So the merge
    links exactly the planted pairs: every other pair of seam-band cells is
    more than 12 px apart.
    """
    rng = _rng(seed, 1)
    step = PATCH / LATTICE
    per_patch = [[] for _ in range(grid * grid)]  # rows of (lx, ly, type)
    kept_xy, kept_t = [], []
    centers = (np.arange(LATTICE) + 0.5) * step
    lx, ly = np.meshgrid(centers, centers)
    for p in range(grid * grid):
        gx, gy = p % grid, p // grid
        loc = np.column_stack([lx.ravel(), ly.ravel()]) + rng.uniform(-18.0, 18.0, (LATTICE**2, 2))
        loc = np.round(loc, 2)
        t = rng.choice(3, size=LATTICE**2, p=[0.4, 0.25, 0.35]).astype(np.uint8)
        per_patch[p].append((loc, t))
        kept_xy.append(loc + np.array([gx * PATCH, gy * PATCH]))
        kept_t.append(t)
    merged_xy, merged_t, planted = [], [], 0
    for vertical in (True, False):
        for gy in range(grid if vertical else grid - 1):
            for gx in range(grid - 1 if vertical else grid):
                a = gy * grid + gx
                b = a + 1 if vertical else a + grid
                s = round(float(rng.uniform(40.0, PATCH - 40.0)), 2)
                off = np.round(rng.uniform(0.5, 2.5, 2), 2)
                wob = np.round(rng.uniform(-1.0, 1.0, 2), 2)
                t = np.uint8(rng.integers(0, 3))
                if vertical:
                    la = np.array([[PATCH - off[0], s + wob[0]]])
                    lb = np.array([[off[1], s + wob[1]]])
                else:
                    la = np.array([[s + wob[0], PATCH - off[0]]])
                    lb = np.array([[s + wob[1], off[1]]])
                per_patch[a].append((la, np.array([t])))
                per_patch[b].append((lb, np.array([t])))
                oa = np.array([(a % grid) * PATCH, (a // grid) * PATCH])
                ob = np.array([(b % grid) * PATCH, (b // grid) * PATCH])
                merged_xy.append(np.mean(np.vstack([la + oa, lb + ob]), axis=0)[None])
                merged_t.append(np.array([t]))
                planted += 1
    patch_dir = d / "patches"
    patch_dir.mkdir()
    cells_in = band = 0
    for p, parts in enumerate(per_patch):
        loc = np.vstack([x for x, _ in parts])
        t = np.concatenate([y for _, y in parts])
        order = rng.permutation(len(t))
        loc, t = loc[order], t[order]
        edge = np.minimum(np.minimum(loc[:, 0], PATCH - loc[:, 0]), np.minimum(loc[:, 1], PATCH - loc[:, 1]))
        band += int(np.count_nonzero(edge < 24.0))
        cells_in += len(t)
        rows = "".join(f"{x!r},{y!r},{TYPE_TOKENS[k]}\n" for (x, y), k in zip(loc.tolist(), t.tolist()))
        name = f"patch_{int((p % grid) * PATCH)}_{int((p // grid) * PATCH)}.csv"
        (patch_dir / name).write_text("x,y,type\n" + rows, encoding="utf-8")
    exp_xy = np.vstack(kept_xy + merged_xy)
    exp_t = np.concatenate(kept_t + merged_t)
    np.savez(d / "expected.npz", xy=exp_xy, types=exp_t)
    in_bytes = sum(f.stat().st_size for f in patch_dir.iterdir())
    return {
        "cells": cells_in,
        "patches": grid * grid,
        "planted_pairs": planted,
        "seam_band_cells": band,
        "cells_out": cells_in - planted,
        "clustering": "jittered lattice, 49 cells per patch plus one planted seam pair per seam",
        "input_bytes": in_bytes,
        # parsed rows as Python floats, the concatenated slide arrays, the output
        "working_set_bytes_computed": in_bytes + cells_in * (3 * 24 + 2 * 17) + (cells_in - planted) * 17,
    }


# ---------------------------------------------------------------------------
# embed-1m and forward-20k
# ---------------------------------------------------------------------------


def _tissue(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Nests of tumour cells with an inflammatory rim over a diffuse stroma,
    wrapped onto a square of side sqrt(n) * 10 px (10 px mean spacing)."""
    extent = math.sqrt(n) * 10.0
    n_nests = max(4, n // 2500)
    n_nest, n_rim = int(0.35 * n), int(0.10 * n)
    n_bg = n - n_nest - n_rim
    centers = rng.uniform(0.0, extent, (n_nests, 2))
    sigma = rng.uniform(40.0, 90.0, n_nests)
    host = rng.integers(0, n_nests, n_nest)
    nest = centers[host] + sigma[host, None] * rng.standard_normal((n_nest, 2))
    host = rng.integers(0, n_nests, n_rim)
    rim = centers[host] + 2.0 * sigma[host, None] * rng.standard_normal((n_rim, 2))
    bg = rng.uniform(0.0, extent, (n_bg, 2))
    xy = np.mod(np.vstack([nest, rim, bg]), extent)
    types = np.concatenate([
        rng.choice(3, n_nest, p=[0.85, 0.10, 0.05]),
        np.full(n_rim, 1),
        rng.choice(3, n_bg, p=[0.10, 0.20, 0.70]),
    ]).astype(np.uint8)
    order = rng.permutation(n)
    return xy[order], types[order], extent


def _gen_embed(d: Path, seed: int, cells: int, samples: int) -> dict:
    rng = _rng(seed, 2)
    xy, types, extent = _tissue(rng, cells)
    _require_unique(xy, types)
    write_cc5b(d / "cloud.cc5b", xy, types)
    radii = oracle.nie_radii(xy)  # radii[-1] is 4 x the mean nearest-neighbour distance
    sample = np.sort(rng.choice(cells, size=min(samples, cells), replace=False))
    counts = oracle.exact_counts(xy, types, sample, radii)
    np.savez(d / "expected.npz", radii=radii, sample=sample, counts=counts)
    return {
        "cells": cells,
        "clustering": f"{max(4, cells // 2500)} nests (35% of cells) with rims (10%) over uniform stroma",
        "clark_evans_r": round(_clark_evans(radii[-1] / 4.0, cells, extent * extent), 4),
        "input_bytes": (d / "cloud.cc5b").stat().st_size,
        # cloud 17, grid index 32, counts 36, float64 density blocks 144,
        # float32 embedding 84 bytes per cell
        "working_set_bytes_computed": cells * (17 + 32 + 36 + 144 + 84),
    }


def _gen_forward(d: Path, seed: int, cells: int) -> dict:
    rng = _rng(seed, 3)
    extent = math.sqrt(cells) * 10.0
    xy = rng.uniform(0.0, extent, (cells, 2))
    types = rng.integers(0, 3, cells).astype(np.uint8)
    _require_unique(xy, types)
    write_cc5b(d / "cloud.cc5b", xy, types)
    ref = oracle.reference_descriptor(xy, types, FORWARD_SEED)
    np.save(d / "descriptor.npy", ref)
    anchors = min(2048, cells)
    k = max(1, 2 * cells // anchors)
    knn_rows = max(1, int(2e7) // cells)
    return {
        "cells": cells,
        "clustering": "uniform",
        "clark_evans_r": round(_clark_evans(oracle.mean_nn(xy), cells, extent * extent), 4),
        "level1_anchors": anchors,
        "level1_k": k,
        "input_bytes": (d / "cloud.cc5b").stat().st_size,
        # dense kNN distance block plus about four attention scratch tensors
        # of the library's 4M-element budget, float64
        "working_set_bytes_computed": min(anchors, knn_rows) * cells * 8 + 4 * 4_000_000 * 8,
    }


# ---------------------------------------------------------------------------
# cohort-small
# ---------------------------------------------------------------------------


def _patient(rng: np.random.Generator, n: int, extent: float = 4096.0):
    """One patient in the style of ``synth_cohort``: tumour nests, infiltrating
    and marginal inflammatory cells, diffuse other cells; n cells exactly."""
    n_neo = int(n * rng.uniform(0.15, 0.35))
    n_inf = int(n * rng.uniform(0.08, 0.15))
    n_other = n - n_neo - n_inf
    margin, band = 600.0, 120.0
    n_nests = int(rng.integers(2, 6))
    centers = rng.uniform(margin, extent - margin, (n_nests, 2))
    host = rng.integers(0, n_nests, n_neo)
    neo = centers[host] + rng.uniform(50.0, 110.0) * rng.standard_normal((n_neo, 2))
    n_infil = max(1, int(round(rng.uniform(0.1, 0.9) * n_inf)))
    host = rng.integers(0, n_nests, n_infil)
    infil = centers[host] + rng.uniform(100.0, 180.0) * rng.standard_normal((n_infil, 2))
    m = n_inf - n_infil
    side = rng.integers(0, 4, m)
    along, across = rng.uniform(0.0, extent, m), rng.uniform(0.0, band, m)
    mx = np.select([side == 0, side == 1, side == 2], [along, along, across], extent - across)
    my = np.select([side == 0, side == 1, side == 2], [across, extent - across, along], along)
    other = rng.uniform(margin, extent - margin, (n_other, 2))
    xy = np.mod(np.vstack([neo, infil, np.column_stack([mx, my]), other]), extent)
    types = np.concatenate([np.zeros(n_neo), np.ones(n_inf), np.full(n_other, 2)]).astype(np.uint8)
    return xy, types, n_neo / n_infil


def _gen_cohort(d: Path, seed: int, patients: int, min_cells: int, max_cells: int) -> dict:
    rng = _rng(seed, 4)
    sizes = np.linspace(min_cells, max_cells, patients).round().astype(int)
    ratios, rows = [], []
    for i, n in enumerate(sizes):
        xy, types, ratio = _patient(rng, int(n))
        _require_unique(xy, types)
        path = d / f"patient_{i:03d}.cc5b"
        write_cc5b(path, xy, types)
        np.save(d / f"descriptor_{i:03d}.npy", oracle.reference_descriptor(xy, types, FORWARD_SEED))
        ratios.append(ratio)
        rows.append({
            "cps": oracle.cps(types, ALPHA),
            "mcps": oracle.mcps(xy, types, ALPHA, seed=MCPS_SEED),
        })
    # Exponential event times with hazard 0.1 * (1 + ratio) and 20% censoring,
    # redrawn from the same stream until log-rank and the c-index are defined.
    scores = [r["mcps"] for r in rows]
    while True:
        times = [float(rng.exponential(1.0 / (0.1 * (1.0 + r)))) for r in ratios]
        events = [bool(rng.uniform() >= 0.2) for _ in ratios]
        times = [max(t * (1.0 - rng.uniform()) if not e else t, 1e-6) for t, e in zip(times, events)]
        if oracle.survival_defined(scores, times, events):
            break
    with open(d / "cohort.csv", "w", encoding="utf-8") as fh:
        fh.write("patient_id,score,time,event\n")
        for i, (s, t, e) in enumerate(zip(scores, times, events)):
            fh.write(f"p{i:03d},{s!r},{t!r},{int(e)}\n")
    (d / "expected.json").write_text(json.dumps({"patients": rows}), encoding="utf-8")
    cells = int(sizes.sum())
    return {
        "cells": cells,
        "patients": patients,
        "events": int(sum(events)),
        "patient_cells": [int(s) for s in sizes],
        "clustering": "2-5 tumour nests per patient, infiltrating and marginal inflammatory cells",
        "input_bytes": sum(p.stat().st_size for p in d.glob("patient_*.cc5b")),
        # largest patient's level-2 attention: 128 groups of k^2 pairs at
        # width 128, chunked to the library's 4M-element budget, about four
        # live float64 tensors
        "working_set_bytes_computed": 4 * min(128 * (2 * int(sizes.max()) // 128) ** 2 * 128, 4_000_000) * 8,
    }


_GENERATORS = {
    "ingest-patches": _gen_ingest,
    "embed-1m": _gen_embed,
    "forward-20k": _gen_forward,
    "cohort-small": _gen_cohort,
}


def prepare(root: Path, workload: str, seed: int, size: str) -> tuple[Path, dict]:
    """Return the cached input directory for (workload, size, seed), making it
    on first use, and the recorded input properties."""
    base = root / ".bench_cache" / workload
    d = base / f"{size}-{seed}"
    props_path = d / "inputs.json"
    if not props_path.is_file():
        base.mkdir(parents=True, exist_ok=True)
        tmp = base / f".tmp-{size}-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        try:
            props = _GENERATORS[workload](tmp, seed, **SIZES[size][workload])
            props["l3_bytes"] = _l3_bytes()
            (tmp / "inputs.json").write_text(json.dumps(props, indent=1), encoding="utf-8")
            shutil.rmtree(d, ignore_errors=True)
            tmp.rename(d)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        _evict(base)
    os.utime(d)
    return d, json.loads(props_path.read_text(encoding="utf-8"))


def _evict(base: Path) -> None:
    dirs = sorted((p for p in base.iterdir() if not p.name.startswith(".")), key=lambda p: p.stat().st_mtime)
    for p in dirs[:-CACHE_KEEP]:
        shutil.rmtree(p, ignore_errors=True)


def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def plan(workload: str, inputs: Path, out: Path, threads: int) -> list[dict]:
    """One iteration of the workload: the cellcloud command lines, in order,
    with the output files each one writes."""
    def step(argv, outputs=(), name=None):
        name = name or argv[0]
        return {"argv": argv + ["--manifest", str(out / f"{name}.manifest.json")],
                "outputs": [str(o) for o in outputs], "name": name}

    th = ["--threads", str(threads)]
    if workload == "ingest-patches":
        slide = out / "slide.cc5b"
        return [step(["ingest", str(inputs / "patches"), "-o", str(slide)], [slide])]
    if workload == "embed-1m":
        emb = out / "embedding.ccem"
        return [step(["nie", str(inputs / "cloud.cc5b"), "-o", str(emb)] + th, [emb])]
    if workload == "forward-20k":
        desc = out / "descriptor.ccem"
        return [step(["forward", str(inputs / "cloud.cc5b"), "-o", str(desc),
                      "--seed", str(FORWARD_SEED)] + th, [desc])]
    clouds = sorted(str(p) for p in inputs.glob("patient_*.cc5b"))
    steps = []
    for i, c in enumerate(clouds):
        desc = out / f"descriptor_{i:03d}.ccem"
        steps.append(step(["forward", c, "-o", str(desc), "--seed", str(FORWARD_SEED)] + th,
                          [desc], name=f"forward_{i:03d}"))
    cohort = str(inputs / "cohort.csv")
    steps.append(step(["cps"] + clouds + ["-o", str(out / "cps.csv")], [out / "cps.csv"]))
    steps.append(step(["mcps"] + clouds + ["--seed", str(MCPS_SEED), "-o", str(out / "mcps.csv")],
                      [out / "mcps.csv"]))
    steps.append(step(["km", cohort, "-o", str(out / "km")], [out / "km_high.csv", out / "km_low.csv"]))
    steps.append(step(["cindex", cohort]))
    return steps
