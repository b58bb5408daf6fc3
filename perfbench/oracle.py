"""Independent references and the output checks built on them.

Nothing here calls the code paths it checks. Neighbour counts come from
``scipy.spatial.cKDTree`` candidates filtered by the exact squared distance
``dx*dx + dy*dy <= r*r``; descriptors come from ``tests/hsp_reference.py``;
scores and survival statistics are recounted with plain loops. The only
library code used is ``init_weights``, which defines the weights that
``cellcloud forward --seed`` draws.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

ROOT = Path(__file__).resolve().parents[1]
CC5B_RECORD = np.dtype([("x", "<f8"), ("y", "<f8"), ("t", "u1")])
N_TYPES = 3
DESCRIPTOR_GATE = 1e-5  # the repository's descriptor-vs-reference gate
DELTA_SUM_GATE = 1e-5  # the repository's attention-sum gate
EMBED_TOL = 1e-6  # float32 embedding entries; one neighbour moves them by >= 1e-3


# ---------------------------------------------------------------------------
# file readers (independent of cellcloud.core)
# ---------------------------------------------------------------------------


def read_cc5b(path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != b"CC5B":
        raise ValueError(f"{path}: not CC5B")
    n = int(np.frombuffer(raw, "<u8", 1, 8)[0])
    if len(raw) != 16 + n * CC5B_RECORD.itemsize:
        raise ValueError(f"{path}: CC5B length does not match its header")
    rec = np.frombuffer(raw, CC5B_RECORD, n, 16)
    return np.column_stack([rec["x"], rec["y"]]), rec["t"].copy()


def read_ccem(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != b"CCEM":
        raise ValueError(f"{path}: not CCEM")
    rows = int(np.frombuffer(raw, "<u8", 1, 8)[0])
    dim = int(np.frombuffer(raw, "<u4", 1, 16)[0])
    if len(raw) != 20 + rows * dim * 4:
        raise ValueError(f"{path}: CCEM length does not match its header")
    return np.frombuffer(raw, "<f4", rows * dim, 20).reshape(rows, dim)


# ---------------------------------------------------------------------------
# neighbour counts, embedding and descriptor references
# ---------------------------------------------------------------------------


def mean_nn(xy: np.ndarray) -> float:
    """Mean distance to the nearest other point, distances as sqrt(dx*dx+dy*dy)."""
    j = cKDTree(xy).query(xy, k=2)[1][:, 1]
    dx = xy[:, 0] - xy[j, 0]
    dy = xy[:, 1] - xy[j, 1]
    return float(np.mean(np.sqrt(dx * dx + dy * dy)))


def nie_radii(xy: np.ndarray, lambda_r: float = 4.0, n_d: int = 3) -> np.ndarray:
    """The embedding's radius schedule: n_d even steps up to lambda_r * d_mean."""
    d_mean = float(np.mean(cKDTree(xy).query(xy, k=2)[0][:, 1]))
    return np.arange(1, n_d + 1, dtype=np.float64) * (lambda_r * d_mean) / n_d


def exact_counts(xy: np.ndarray, types: np.ndarray, q_idx: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Cumulative per-type neighbour counts (d <= r, self excluded) for the
    query cells ``q_idx``; shape (len(q_idx), len(radii), 3)."""
    r2 = radii * radii
    m, n_d = len(q_idx), len(radii)
    q = xy[q_idx]
    out = np.zeros((m, n_d, N_TYPES), dtype=np.int64)
    for t in range(N_TYPES):
        members = np.flatnonzero(types == t)
        if members.size == 0:
            continue
        hits = cKDTree(xy[members]).query_ball_point(q, radii[-1] * (1.0 + 1e-9))
        lengths = np.fromiter((len(h) for h in hits), dtype=np.int64, count=m)
        if lengths.sum() == 0:
            continue
        cand = members[np.concatenate([np.asarray(h, dtype=np.int64) for h in hits])]
        owner = np.repeat(np.arange(m), lengths)
        dx = q[owner, 0] - xy[cand, 0]
        dy = q[owner, 1] - xy[cand, 1]
        shell = np.searchsorted(r2, dx * dx + dy * dy, side="left")
        keep = shell < n_d
        out[:, :, t] = np.bincount(owner[keep] * n_d + shell[keep], minlength=m * n_d).reshape(m, n_d)
    out = np.cumsum(out, axis=1)
    out[np.arange(m), :, types[q_idx]] -= 1
    return out


def _density_blocks(counts: np.ndarray, outer_max: np.ndarray) -> np.ndarray:
    """[local || global] float32 blocks from cumulative counts, type-major."""
    c = counts.astype(np.float64)
    shells = np.concatenate([c[:, :1], np.diff(c, axis=1)], axis=1)
    outer = c[:, -1:, :]
    local = np.divide(shells, outer, out=np.zeros_like(shells), where=outer > 0)
    gmax = outer_max.astype(np.float64)[None, None, :]
    glob = np.divide(shells, gmax, out=np.zeros_like(shells), where=gmax > 0)
    flat = lambda a: np.swapaxes(a, 1, 2).reshape(a.shape[0], -1)  # noqa: E731
    return np.hstack([flat(local), flat(glob)]).astype(np.float32)


def embedding(xy: np.ndarray, types: np.ndarray) -> np.ndarray:
    """The full neighbourhood embedding of a cloud, from exact counts."""
    counts = exact_counts(xy, types, np.arange(len(types)), nie_radii(xy))
    onehot = np.eye(N_TYPES, dtype=np.float32)[types]
    return np.hstack([_density_blocks(counts, counts[:, -1, :].max(axis=0)), onehot])


def _load_hsp_reference():
    spec = importlib.util.spec_from_file_location("hsp_reference", ROOT / "tests" / "hsp_reference.py")
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    # The reference's geometric helpers are O(N^2) Python loops. They are
    # swapped for exact equivalents with the same tie rules; its filter,
    # attention and aggregation loops run unchanged.
    ref.nn_mean_reference = mean_nn
    ref.fps_reference = _fps
    ref.knn_reference = _knn
    return ref


def _fps(xy, labels, n, gamma):
    lab = None if labels is None else np.asarray(labels)
    keys = (xy[:, 1], xy[:, 0]) if lab is None else (lab, xy[:, 1], xy[:, 0])
    start = int(np.lexsort(keys)[0])
    penalty = 2.0 * gamma * gamma

    def d2(j):
        dx = xy[:, 0] - xy[j, 0]
        dy = xy[:, 1] - xy[j, 1]
        v = dx * dx + dy * dy
        return v if lab is None or penalty == 0.0 else v + penalty * (lab != lab[j])

    picked = [start]
    min_d2 = d2(start)
    min_d2[start] = -np.inf
    while len(picked) < n:
        nxt = int(np.argmax(min_d2))
        picked.append(nxt)
        np.minimum(min_d2, d2(nxt), out=min_d2)
        min_d2[nxt] = -np.inf
    return picked


def _knn(anchor_xy, xy, k):
    """k nearest points per anchor ordered by (squared distance, index); the
    tree only proposes candidates, widened until the k-th is strictly inside."""
    tree = cKDTree(xy)
    n = xy.shape[0]
    rows = []
    for a in anchor_xy:
        want = min(n, k + 8)
        while True:
            idx = np.atleast_1d(tree.query(a, k=want)[1])
            dx = a[0] - xy[idx, 0]
            dy = a[1] - xy[idx, 1]
            d2 = dx * dx + dy * dy
            order = np.lexsort((idx, d2))
            if want == n or d2[order[k - 1]] < d2.max() * (1.0 - 1e-9):
                break
            want = min(n, 2 * want)
        rows.append([int(i) for i in idx[order[:k]]])
    return rows


def reference_descriptor(xy: np.ndarray, types: np.ndarray, seed: int) -> np.ndarray:
    """Descriptor of `cellcloud forward --seed <seed>` with default settings."""
    from cellcloud.hsp import HspConfig, init_weights

    feats = embedding(xy, types)
    config = HspConfig(levels=3, initial_anchors=2048, n_basic=16, lambda_sim=0.5,
                       updates_per_level=2, encode_dim=64, dim_multiplier=2)
    weights = init_weights(config, input_dim=feats.shape[1], seed=seed)
    return _load_hsp_reference().hsp_forward_reference(xy, feats, types, config, weights)


# ---------------------------------------------------------------------------
# scores and survival statistics, by direct counting
# ---------------------------------------------------------------------------


def _score(n_neo: int, n_inf: int, n: int, alpha) -> float:
    s = alpha[0] * (n_neo / n) + alpha[1] * (n_inf / n)
    return s + alpha[2] * (n_neo / n_inf) if alpha[2] != 0.0 else s


def cps(types: np.ndarray, alpha) -> float:
    return _score(int(np.sum(types == 0)), int(np.sum(types == 1)), len(types), alpha)


def mcps(xy, types, alpha, seed, n_box=20, lo=0.6, hi=1.0) -> float:
    """Mean CPS over boxes drawn as (wr, hr, ux, uy) from the per-box stream
    Philox(SeedSequence(seed, spawn_key=(i,))), degenerate boxes redrawn."""
    x, y = xy[:, 0], xy[:, 1]
    xmin, xmax, ymin, ymax = x.min(), x.max(), y.min(), y.max()
    sx, sy = xmax - xmin, ymax - ymin
    scores = []
    for i in range(n_box):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        for _ in range(100 * n_box + 1):
            wr, hr = rng.uniform(lo, hi), rng.uniform(lo, hi)
            ux, uy = rng.uniform(), rng.uniform()
            slack_x, slack_y = sx - wr * sx, sy - hr * sy
            inside = ((x >= xmin + ux * slack_x) & (x <= xmax - (1.0 - ux) * slack_x)
                      & (y >= ymin + uy * slack_y) & (y <= ymax - (1.0 - uy) * slack_y))
            n = int(inside.sum())
            n_inf = int((inside & (types == 1)).sum())
            if n and not (alpha[2] > 0 and n_inf == 0):
                scores.append(_score(int((inside & (types == 0)).sum()), n_inf, n, alpha))
                break
        else:
            raise ValueError("no valid MCPS box")
    return math.fsum(scores) / len(scores)


def median_split(scores):
    s = sorted(scores)
    mid = len(s) // 2
    med = s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0
    return [v > med for v in scores]


def km(times, events):
    pts, surv, at_risk = [(0.0, 1.0, len(times))], 1.0, len(times)
    for t in sorted(set(times)):
        deaths = sum(1 for ti, e in zip(times, events) if ti == t and e)
        if deaths:
            surv *= 1.0 - deaths / at_risk
            pts.append((t, surv, at_risk))
        at_risk -= sum(1 for ti in times if ti == t)
    return pts


def logrank_parts(times, events, group):
    ome = var = 0.0
    for t in sorted({ti for ti, e in zip(times, events) if e}):
        n1 = sum(1 for ti, g in zip(times, group) if ti >= t and not g)
        n2 = sum(1 for ti, g in zip(times, group) if ti >= t and g)
        d = sum(1 for ti, e in zip(times, events) if ti == t and e)
        d1 = sum(1 for ti, e, g in zip(times, events, group) if ti == t and e and not g)
        n = n1 + n2
        ome += d1 - d * n1 / n
        if n > 1:
            var += d * (n1 / n) * (n2 / n) * (n - d) / (n - 1)
    return ome, var


def c_index(scores, times, events):
    comparable = concordant = 0.0
    for i in range(len(times)):
        for j in range(len(times)):
            if events[i] and times[i] < times[j]:
                comparable += 1
                concordant += 1.0 if scores[i] > scores[j] else 0.5 if scores[i] == scores[j] else 0.0
    return concordant / comparable if comparable else float("nan")


def survival_defined(scores, times, events) -> bool:
    high = median_split(scores)
    if all(high) or not any(high) or not any(events):
        return False
    # cellcloud km passes (high, low): the first group is the high one
    _, var = logrank_parts(times, events, [not h for h in high])
    return var > 0 and not math.isnan(c_index(scores, times, events))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _stdout_value(text: str, key: str) -> str:
    """The value printed as key=value; a numpy scalar repr such as
    np.float64(0.5) reads as its number."""
    m = re.search(rf"(?:^|\s){key}=(?:np\.\w+\()?([^\s)]+)", text)
    if not m:
        raise ValueError(f"no {key}= on stdout")
    return m.group(1)


def _check_ingest(inputs: Path, step: dict, props: dict) -> None:
    xy, t = read_cc5b(step["outputs"][0])
    exp = np.load(inputs / "expected.npz")
    merged = props["cells"] - len(t)
    if merged != props["planted_pairs"]:
        raise ValueError(f"merged {merged} cells, planted {props['planted_pairs']} pairs")
    got = np.lexsort((t, xy[:, 1], xy[:, 0]))
    want = np.lexsort((exp["types"], exp["xy"][:, 1], exp["xy"][:, 0]))
    if not (np.array_equal(t[got], exp["types"][want])
            and np.allclose(xy[got], exp["xy"][want], rtol=0.0, atol=1e-9)):
        raise ValueError("merged cloud differs from the planted slide")


def _check_embed(inputs: Path, step: dict, props: dict) -> None:
    feats = read_ccem(step["outputs"][0])
    exp = np.load(inputs / "expected.npz")
    xy, types = read_cc5b(inputs / "cloud.cc5b")
    if feats.shape != (len(types), 7 * N_TYPES):
        raise ValueError(f"embedding shape {feats.shape}")
    r2 = exp["radii"] * exp["radii"]
    # The global block divides by each type's largest outermost count over
    # the whole cloud. Recount the cells the output ranks highest, by brute
    # force over every cell, and take the largest true count.
    outer_max = np.zeros(N_TYPES, dtype=np.int64)
    for t in range(N_TYPES):
        top = np.argsort(feats[:, 9 + 3 * t: 12 + 3 * t].sum(axis=1))[-3:]
        for i in top:
            dx = xy[types == t, 0] - xy[i, 0]
            dy = xy[types == t, 1] - xy[i, 1]
            outer_max[t] = max(outer_max[t], int(np.sum(dx * dx + dy * dy <= r2[-1])) - int(types[i] == t))
    sample = exp["sample"]
    want = np.hstack([_density_blocks(exp["counts"], outer_max), np.eye(N_TYPES, dtype=np.float32)[types[sample]]])
    err = float(np.abs(feats[sample] - want).max())
    if err > EMBED_TOL:
        raise ValueError(f"sampled embedding rows differ from the cKDTree recount by {err:.3g}")


def _check_descriptor(path, ref_path) -> None:
    got = read_ccem(path).ravel().astype(np.float64)
    ref = np.load(ref_path).astype(np.float64)
    if got.shape != ref.shape:
        raise ValueError(f"descriptor shape {got.shape}, reference {ref.shape}")
    err = float(np.abs(got - ref).max())
    if not err <= DESCRIPTOR_GATE:
        raise ValueError(f"descriptor differs from tests/hsp_reference.py by {err:.3g}")


def _score_rows(path) -> list[float]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[0] != "input,score":
        raise ValueError(f"{path}: bad header")
    return [float(line.rsplit(",", 1)[1]) for line in lines[1:]]


def _cohort(inputs: Path):
    rows = [r.split(",") for r in (inputs / "cohort.csv").read_text(encoding="utf-8").splitlines()[1:]]
    return [float(r[1]) for r in rows], [float(r[2]) for r in rows], [r[3] == "1" for r in rows]


def _check_km(inputs: Path, step: dict) -> None:
    scores, times, events = _cohort(inputs)
    high = median_split(scores)
    out = step["stdout"]
    n_high = sum(high)
    if (int(_stdout_value(out, "n_high")), int(_stdout_value(out, "n_low"))) != (n_high, len(high) - n_high):
        raise ValueError("median split sizes differ")
    ome, var = logrank_parts(times, events, [not h for h in high])
    p = math.erfc(math.sqrt(ome * ome / var / 2.0))
    if not _close(float(_stdout_value(out, "logrank_p")), p, 1e-9):
        raise ValueError("log-rank p differs from the direct count")
    for path, keep in zip(step["outputs"], (True, False)):
        sel = [h == keep for h in high]
        want = km([t for t, s in zip(times, sel) if s], [e for e, s in zip(events, sel) if s])
        got = [r.split(",") for r in Path(path).read_text(encoding="utf-8").splitlines()[1:]]
        if len(got) != len(want) or any(
            not (_close(float(g[0]), w[0], 1e-12) and _close(float(g[1]), w[1], 1e-12) and int(g[2]) == w[2])
            for g, w in zip(got, want)
        ):
            raise ValueError(f"{Path(path).name} differs from the direct product-limit curve")


def _check_cohort_step(inputs: Path, step: dict) -> None:
    name = step["name"]
    expected = json.loads((inputs / "expected.json").read_text(encoding="utf-8"))["patients"]
    if name.startswith("forward_"):
        _check_descriptor(step["outputs"][0], inputs / f"descriptor_{name[8:]}.npy")
    elif name in ("cps", "mcps"):
        got = _score_rows(step["outputs"][0])
        want = [p[name] for p in expected]
        if len(got) != len(want) or not all(_close(g, w, 1e-12) for g, w in zip(got, want)):
            raise ValueError(f"{name} differs from the direct count")
    elif name == "km":
        _check_km(inputs, step)
    elif name == "cindex":
        if not _close(float(_stdout_value(step["stdout"], "c_index")), c_index(*_cohort(inputs)), 1e-12):
            raise ValueError("c-index differs from the direct pair count")
    else:
        raise ValueError(f"no check for step {name}")


def check_step(workload: str, inputs: Path, step: dict, props: dict) -> None:
    """Raise ValueError if the step's final outputs are wrong."""
    if workload == "ingest-patches":
        _check_ingest(inputs, step, props)
    elif workload == "embed-1m":
        _check_embed(inputs, step, props)
    elif workload == "forward-20k":
        _check_descriptor(step["outputs"][0], inputs / "descriptor.npy")
    else:
        _check_cohort_step(inputs, step)
