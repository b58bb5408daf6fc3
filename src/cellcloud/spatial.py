"""Exact geometric queries over 2-D typed point sets.

Everything here is exact: all comparisons happen on squared distances
computed as ``dx*dx + dy*dy`` in float64, and the optimized paths evaluate
that same expression per candidate pair, so they agree bit-for-bit with
O(N^2) pair scans. Those oracles live in the test suite
(``tests/hsp_reference.py``); the one kept here is
:func:`count_in_radii_brute`, which ``cellcloud bench --brute-cells`` times.

The workhorse is a uniform grid index. With ``bin_size`` equal to the
largest query radius, a radius query only ever touches the 3x3 ring of
bins around the query cell, giving O(N) expected cost for the million-cell
neighbor-count pass that dominates the pipeline.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .core import CellCloud, CellCloudError, N_TYPES, TooFewCells

__all__ = [
    "GridOverflow",
    "SpatialIndex",
    "NeighborCounts",
    "build_index",
    "count_in_radii",
    "count_in_radii_brute",
    "mean_nn_distance",
    "fps",
    "knn_group",
]

# Queries are chunked: keeps peak memory bounded and gives the thread pool
# units of work whose results land in disjoint output slices.
_QUERY_CHUNK = 65536

# knn_group ranks at most this many (anchor, candidate) pairs at once, or
# one anchor's candidates when they alone are more.
_KNN_CANDIDATES = 1 << 22

# Bin rows, columns and packed bin ids must stay below this; 2**62 leaves
# int64 headroom for the float64 rounding of the span check.
_GRID_LIMIT = 2.0**62


class GridOverflow(CellCloudError):
    """The cloud spans more grid bins than int64 bin ids can address."""

    error_code = "grid_overflow"


@dataclass(frozen=True)
class NeighborCounts:
    """Cumulative per-type neighbor counts at each radius.

    ``counts[i, j, t]`` is the number of type-``t`` cells within distance
    ``radii[j]`` (inclusive) of cell ``i``, never counting ``i`` itself.
    """

    radii: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        radii = np.ascontiguousarray(self.radii, dtype=np.float64)
        counts = np.ascontiguousarray(self.counts, dtype=np.uint32)
        if radii.ndim != 1 or radii.size == 0:
            raise ValueError("radii must be a non-empty 1-D array")
        if np.any(~(np.diff(radii) > 0)) or radii[0] <= 0:
            raise ValueError("radii must be strictly ascending and positive")
        if counts.ndim != 3 or counts.shape[1] != radii.size or counts.shape[2] != N_TYPES:
            raise ValueError(f"counts must have shape (n, {radii.size}, {N_TYPES})")
        radii.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "counts", counts)

    @property
    def n_cells(self) -> int:
        return self.counts.shape[0]

    @property
    def n_radii(self) -> int:
        return self.radii.size


@dataclass(frozen=True)
class SpatialIndex:
    """Uniform grid over a cloud; bin of cell i is (floor(y/b), floor(x/b)).

    Internally the cells are held in CSR-style arrays (``order`` grouped by
    bin with ``starts`` offsets over the sorted, de-duplicated ``bin_ids``),
    which is what the vectorised queries consume. The ``bins`` mapping view
    is materialised on demand.
    """

    source: CellCloud
    bin_size: float
    bin_rows: np.ndarray = field(repr=False)
    bin_cols: np.ndarray = field(repr=False)
    bin_ids: np.ndarray = field(repr=False)  # sorted unique packed ids
    starts: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)  # cell indices grouped by bin
    _row_span: tuple[int, int] = field(repr=False)
    _col_span: tuple[int, int] = field(repr=False)

    @property
    def bins(self) -> dict[tuple[int, int], list[int]]:
        """Mapping (bin row, bin col) -> cell index list (for inspection)."""
        out: dict[tuple[int, int], list[int]] = {}
        n_cols = self._col_span[1] - self._col_span[0] + 1
        for b in range(self.bin_ids.size):
            packed = int(self.bin_ids[b])
            r = packed // n_cols + self._row_span[0]
            c = packed % n_cols + self._col_span[0]
            out[(r, c)] = self.order[self.starts[b] : self.starts[b + 1]].tolist()
        return out


def build_index(cloud: CellCloud, bin_size: float) -> SpatialIndex:
    """Assign every cell to its grid bin and group cell indices by bin."""
    if bin_size <= 0:
        raise ValueError("bin_size must be positive")
    n = cloud.n_total
    rows = np.floor(cloud.xy[:, 1] / bin_size)
    cols = np.floor(cloud.xy[:, 0] / bin_size)
    if n:
        r0, r1 = float(rows.min()), float(rows.max())
        c0, c1 = float(cols.min()), float(cols.max())
        span = (r1 - r0 + 1.0) * (c1 - c0 + 1.0)
        if not (span < _GRID_LIMIT and max(-r0, r1, -c0, c1) < _GRID_LIMIT):
            raise GridOverflow(
                f"cloud spans too many bins of size {bin_size!r} for int64 bin ids"
            )
        r0, r1, c0, c1 = int(r0), int(r1), int(c0), int(c1)
    else:
        r0 = r1 = c0 = c1 = 0
    rows = rows.astype(np.int64)
    cols = cols.astype(np.int64)
    n_cols = c1 - c0 + 1
    packed = (rows - r0) * n_cols + (cols - c0)
    order = np.argsort(packed, kind="stable")
    sorted_ids = packed[order]
    if n:
        uniq_mask = np.empty(n, dtype=bool)
        uniq_mask[0] = True
        uniq_mask[1:] = sorted_ids[1:] != sorted_ids[:-1]
        bin_ids = sorted_ids[uniq_mask]
        starts = np.flatnonzero(uniq_mask)
        starts = np.append(starts, n).astype(np.int64)
    else:
        bin_ids = np.empty(0, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
    return SpatialIndex(
        source=cloud,
        bin_size=float(bin_size),
        bin_rows=rows,
        bin_cols=cols,
        bin_ids=bin_ids,
        starts=starts,
        order=order.astype(np.int64),
        _row_span=(r0, r1),
        _col_span=(c0, c1),
    )


def _count_chunk(
    index: SpatialIndex,
    q_idx: np.ndarray,
    r2: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fill ``out`` (len(q_idx), Nd, T) with cumulative counts for a query chunk."""
    cloud = index.source
    xy = cloud.xy
    types = cloud.types
    n_d = r2.size
    r0, _ = index._row_span
    c0, c1 = index._col_span
    n_cols = c1 - c0 + 1
    ring = int(np.ceil(np.sqrt(r2[-1]) / index.bin_size))
    qx = xy[q_idx, 0]
    qy = xy[q_idx, 1]
    qrow = index.bin_rows[q_idx]
    qcol = index.bin_cols[q_idx]
    m = q_idx.size
    shell_counts = np.zeros(m * n_d * N_TYPES, dtype=np.int64)

    for dr in range(-ring, ring + 1):
        for dc in range(-ring, ring + 1):
            packed = (qrow + dr - r0) * n_cols + (qcol + dc - c0)
            # map each query's neighbor bin onto the CSR table
            pos = np.searchsorted(index.bin_ids, packed)
            pos_c = np.minimum(pos, index.bin_ids.size - 1)
            hit = (index.bin_ids.size > 0) & (index.bin_ids[pos_c] == packed)
            # out-of-span bins pack to ids that simply miss the table
            valid_col = (qcol + dc >= c0) & (qcol + dc <= c1)
            hit &= valid_col
            if not hit.any():
                continue
            qh = np.flatnonzero(hit)
            b = pos_c[qh]
            seg_start = index.starts[b]
            seg_len = index.starts[b + 1] - seg_start
            total = int(seg_len.sum())
            if total == 0:
                continue
            # ragged expansion: for each hit query, the run of candidate slots
            ends = np.cumsum(seg_len)
            begins = ends - seg_len
            slot = np.arange(total, dtype=np.int64)
            owner = np.searchsorted(ends, slot, side="right")
            cand = index.order[slot - begins[owner] + seg_start[owner]]
            qg = qh[owner]
            dx = qx[qg] - xy[cand, 0]
            dy = qy[qg] - xy[cand, 1]
            d2 = dx * dx + dy * dy
            shell = np.searchsorted(r2, d2, side="left")
            inside = shell < n_d
            if not inside.any():
                continue
            key = (qg[inside] * n_d + shell[inside]) * N_TYPES + types[cand[inside]]
            shell_counts += np.bincount(key, minlength=shell_counts.size)

    cum = np.cumsum(shell_counts.reshape(m, n_d, N_TYPES), axis=1)
    # remove the self pair: d2 = 0 lands in the first shell of own type
    cum[np.arange(m)[:, None], :, types[q_idx][:, None]] -= 1
    out[:] = cum.astype(np.uint32)


def count_in_radii(
    index: SpatialIndex, radii: Sequence[float], threads: int = 1
) -> NeighborCounts:
    """Exact cumulative neighbor counts per (cell, radius, type).

    Boundary rule is inclusive (d <= r) and the cell itself is excluded.
    ``threads`` only partitions the query set; each worker writes a disjoint
    output slice, so results are identical for any thread count.
    """
    radii_arr = np.ascontiguousarray(radii, dtype=np.float64)
    if radii_arr.ndim != 1 or radii_arr.size == 0:
        raise ValueError("radii must be a non-empty 1-D sequence")
    if radii_arr[0] <= 0 or np.any(np.diff(radii_arr) <= 0):
        raise ValueError("radii must be strictly ascending and positive")
    n = index.source.n_total
    r2 = radii_arr * radii_arr
    counts = np.zeros((n, radii_arr.size, N_TYPES), dtype=np.uint32)
    chunks = [
        np.arange(s, min(s + _QUERY_CHUNK, n), dtype=np.int64)
        for s in range(0, n, _QUERY_CHUNK)
    ]
    if threads <= 1 or len(chunks) <= 1:
        for q in chunks:
            _count_chunk(index, q, r2, counts[q[0] : q[-1] + 1])
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_count_chunk, index, q, r2, counts[q[0] : q[-1] + 1])
                for q in chunks
            ]
            for f in futures:
                f.result()
    return NeighborCounts(radii=radii_arr, counts=counts)


def count_in_radii_brute(cloud: CellCloud, radii: Sequence[float]) -> NeighborCounts:
    """Reference O(N^2) twin of :func:`count_in_radii` (same boundary rule).

    Every pair is scanned, in cache-sized tiles of 128 query rows by 1024
    columns. Columns are sorted by type, so each tile holds one type and
    its hits per radius are counted directly.
    """
    radii_arr = np.ascontiguousarray(radii, dtype=np.float64)
    n = cloud.n_total
    r2 = radii_arr * radii_arr
    by_type = np.argsort(cloud.types, kind="stable")
    col_x = cloud.xy[by_type, 0]
    col_y = cloud.xy[by_type, 1]
    bounds = np.searchsorted(cloud.types[by_type], np.arange(N_TYPES + 1))
    counts = np.zeros((n, radii_arr.size, N_TYPES), dtype=np.int64)
    # The tiles are reused: a fresh 1 MB temporary costs a page fault per page.
    dx_tile = np.empty((128, 1024))
    dy_tile = np.empty((128, 1024))
    hit_tile = np.empty((128, 1024), dtype=bool)
    for s in range(0, n, 128):
        e = min(s + 128, n)
        qx = cloud.xy[s:e, 0][:, None]
        qy = cloud.xy[s:e, 1][:, None]
        for t in range(N_TYPES):
            for c in range(bounds[t], bounds[t + 1], 1024):
                ce = min(c + 1024, bounds[t + 1])
                dx = dx_tile[: e - s, : ce - c]
                dy = dy_tile[: e - s, : ce - c]
                hit = hit_tile[: e - s, : ce - c]
                np.subtract(qx, col_x[c:ce], out=dx)
                np.subtract(qy, col_y[c:ce], out=dy)
                np.multiply(dx, dx, out=dx)
                np.multiply(dy, dy, out=dy)
                d2 = np.add(dx, dy, out=dx)  # dx*dx + dy*dy
                for j, rj2 in enumerate(r2):
                    np.less_equal(d2, rj2, out=hit)
                    counts[s:e, j, t] += hit.view(np.uint8).sum(axis=1, dtype=np.uint16)
    counts[np.arange(n), :, cloud.types] -= 1  # self always falls inside every radius
    return NeighborCounts(radii=radii_arr, counts=counts)


def _nn_mean_xy(xy: np.ndarray) -> float:
    """Mean nearest-neighbor distance of a raw coordinate array (n >= 2)."""
    tree = cKDTree(xy)
    dist, _ = tree.query(xy, k=2)
    return float(np.mean(dist[:, 1]))


def mean_nn_distance(cloud: CellCloud) -> float:
    """Mean over cells of the distance to the nearest other cell."""
    if cloud.n_total < 2:
        raise TooFewCells("mean nearest-neighbor distance needs at least 2 cells")
    return _nn_mean_xy(cloud.xy)


def _augmented_d2(
    xy: np.ndarray, labels: np.ndarray, p: np.ndarray, p_label, penalty: float
) -> np.ndarray:
    """Squared distance from every point to the point ``p`` in the augmented space.

    Differing labels add ``penalty = 2*gamma**2`` (the squared distance
    between two scaled one-hot corners). Written with the same scalar
    expression the test oracle uses so both routes round identically.
    """
    dx = xy[:, 0] - p[0]
    dy = xy[:, 1] - p[1]
    d2 = dx * dx + dy * dy
    if penalty != 0.0:
        d2 = d2 + penalty * (labels != p_label)
    return d2


def fps(
    points: np.ndarray,
    labels: Optional[np.ndarray],
    n: int,
    gamma: float = 0.0,
) -> np.ndarray:
    """Greedy farthest-point sampling, optionally label-augmented.

    Sampling runs in the space [x, y, gamma*onehot(label)]; two points with
    different labels gain an extra squared distance of 2*gamma^2. The start
    point is the lexicographically smallest (x, y, tag) and every later pick
    maximises the minimum distance to the selected set, ties falling to the
    smallest index. Returns the selected indices in pick order.

    Each pick updates only a strip of points around it along x. A pick made
    at value M = max(min_d2) can lower a point's min_d2 only if their
    augmented d2 is below that point's min_d2, which is at most M; the label
    penalty is non-negative, so such a point lies within sqrt(M) of the pick
    in x. The strip is cut from the x-sorted points at a half-width of
    sqrt(M)*(1 + 1e-9) + 4e-16*|x_pick| + 1e-300: the relative term covers
    the rounding of sqrt and of the squares, the |x_pick| term the rounding
    of x_pick -/+ r at slide-scale offsets. Points outside it have a
    computed d2 of at least M, which ``np.minimum`` would leave unchanged,
    and points inside it run :func:`_augmented_d2`'s exact expression, so
    ``min_d2`` is bitwise the all-points update at every step.
    """
    xy = np.ascontiguousarray(points, dtype=np.float64)
    m = xy.shape[0]
    if not 0 <= n <= m:
        raise ValueError(f"cannot sample {n} anchors from {m} points")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if not np.isfinite(xy).all():
        raise ValueError("points must be finite")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Unlabelled points share one label and pay no penalty.
    lab = np.zeros(m, np.uint8) if labels is None else np.ascontiguousarray(labels)
    start = int(np.lexsort((lab, xy[:, 1], xy[:, 0]))[0])
    penalty = 0.0 if labels is None else 2.0 * gamma * gamma
    perm = np.argsort(xy[:, 0], kind="stable")
    sxy = xy[perm]
    slab = lab[perm]
    xs = sxy[:, 0]
    out = np.empty(n, dtype=np.int64)
    min_d2 = np.full(m, np.inf)
    nxt = start
    for step in range(n):
        out[step] = nxt
        # M is +inf at the start pick, so its strip is the whole cloud.
        xj = xy[nxt, 0]
        r = math.sqrt(min_d2[nxt]) * (1.0 + 1e-9) + 4e-16 * abs(xj) + 1e-300
        lo, hi = xs.searchsorted((xj - r, xj + r))
        idx = perm[lo:hi]
        d2 = _augmented_d2(sxy[lo:hi], slab[lo:hi], xy[nxt], lab[nxt], penalty)
        min_d2[idx] = np.minimum(min_d2[idx], d2)
        min_d2[nxt] = -np.inf  # never re-pick a selected point
        nxt = int(min_d2.argmax())  # first occurrence = smallest index
    return out


def knn_group(
    anchor_coords: np.ndarray, point_coords: np.ndarray, k: int
) -> np.ndarray:
    """For each anchor, indices of its k nearest points, ties by smaller index.

    Rows come back sorted ascending by (distance, index). Points can belong
    to any number of groups.

    A k-d tree finds each anchor's k-th distance and then every point within
    a hair more than it: a candidate superset that holds all ties at the
    k-th distance whatever the tree's own rounding. Candidates are ranked on
    ``dx*dx + dy*dy`` like everywhere else here, then by index, so the rows
    match the O(N^2) scan bit-for-bit without ever forming the anchor-by-
    point distance matrix.
    """
    anchors = np.ascontiguousarray(anchor_coords, dtype=np.float64).reshape(-1, 2)
    pts = np.ascontiguousarray(point_coords, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    a = anchors.shape[0]
    out = np.empty((a, k), dtype=np.int64)
    if a == 0:
        return out
    tree = cKDTree(pts)
    kth, _ = tree.query(anchors, k=[k])
    radius = kth[:, 0] * (1.0 + 1e-9) + 1e-300
    # Ball sizes come first so that a degenerate cloud, with many points tied
    # at the k-th distance, builds its candidate lists a bounded batch at a time.
    lens = tree.query_ball_point(anchors, radius, return_length=True)
    ends = np.cumsum(lens)
    s = 0
    while s < a:
        start = ends[s] - lens[s]
        e = max(s + 1, int(np.searchsorted(ends, start + _KNN_CANDIDATES, side="right")))
        balls = tree.query_ball_point(anchors[s:e], radius[s:e])
        cand = np.concatenate(balls).astype(np.int64, copy=False)
        owner = np.repeat(np.arange(e - s), lens[s:e])
        dx = anchors[s + owner, 0] - pts[cand, 0]
        dy = anchors[s + owner, 1] - pts[cand, 1]
        d2 = dx * dx + dy * dy
        order = np.lexsort((cand, d2, owner))
        first = ends[s:e] - lens[s:e] - start
        out[s:e] = cand[order[first[:, None] + np.arange(k)]]
        s = e
    return out
