"""Exact geometric queries over 2-D typed point sets.

Everything here is exact: all comparisons happen on squared distances
computed as ``dx*dx + dy*dy`` in float64, and the optimized paths evaluate
that same expression per candidate pair, so they agree bit-for-bit with
O(N^2) pair scans. Those oracles live only in the test suite
(``tests/hsp_reference.py``).

The workhorse is a uniform grid index. With ``bin_size`` equal to the
largest query radius, a radius query only ever touches the 3x3 ring of
bins around the query cell, giving O(N) expected cost for the million-cell
neighbor-count pass that dominates the pipeline.

Slide detections arrive in no spatial order, so the neighbour queries do
not walk the cells in input order: the count walks them in bin order and
the mean-NN query in the k-d tree's leaf order, and each result is written
back to its cell's input row. Nearby queries then read nearby memory, and
no result depends on the walk.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .core import CellCloud, CellCloudError, N_TYPES, TooFewCells

__all__ = [
    "GridOverflow",
    "SpatialIndex",
    "NeighborCounts",
    "build_index",
    "count_in_radii",
    "mean_nn_distance",
    "fps",
    "knn_group",
]

# Queries are chunked: gives the thread pool units of work whose results
# land in disjoint output rows, and bounds the mean-NN query's workers.
_QUERY_CHUNK = 65536

# Every query expands its candidates at most this many (query, candidate)
# pairs at a time, or one query's candidates when they alone are more, so
# a cloud that packs many cells close together costs time, not memory.
_PAIR_BATCH = 1 << 16

# Bin rows, columns and packed bin ids must stay below this in magnitude;
# 2**62 leaves int64 room for the differences between bins.
_GRID_LIMIT = 2.0**62

# The largest radius whose square is a finite float64; counting compares
# squared distances against squared radii.
_MAX_RADIUS = math.sqrt(np.finfo(np.float64).max)


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
    which is what the vectorised queries consume. ``binned_xy`` and
    ``binned_types`` hold the cells' coordinates and types in that same bin
    order, so a query reads a bin's cells from one contiguous run and
    writes its result back to input row ``order[p]``.
    """

    source: CellCloud
    bin_size: float
    bin_ids: np.ndarray = field(repr=False)  # sorted unique packed ids
    starts: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)  # cell indices grouped by bin
    binned_xy: np.ndarray = field(repr=False)  # xy[order]
    binned_types: np.ndarray = field(repr=False)  # types[order]
    _n_cols: int = field(repr=False)  # bin id = row offset * _n_cols + col offset


def _grid_bins(xy: np.ndarray, size: float) -> tuple[np.ndarray, np.ndarray]:
    """int64 bins (floor(y / size), floor(x / size)); GridOverflow beyond int64."""
    rows = np.floor(xy[:, 1] / size)
    cols = np.floor(xy[:, 0] / size)
    for b in (rows, cols):
        if b.size and not (-_GRID_LIMIT < b.min() and b.max() < _GRID_LIMIT):
            raise GridOverflow(f"grid bins of size {size!r} lie beyond int64 bin ids")
    return rows.astype(np.int64), cols.astype(np.int64)


def build_index(cloud: CellCloud, bin_size: float) -> SpatialIndex:
    """Assign every cell to its grid bin and group cell indices by bin."""
    if bin_size <= 0:
        raise ValueError("bin_size must be positive")
    n = cloud.n_total
    rows, cols = _grid_bins(cloud.xy, bin_size)
    if n:
        r0, r1 = int(rows.min()), int(rows.max())
        c0, c1 = int(cols.min()), int(cols.max())
        if (r1 - r0 + 1) * (c1 - c0 + 1) >= _GRID_LIMIT:
            raise GridOverflow(
                f"cloud spans too many bins of size {bin_size!r} for int64 bin ids"
            )
    else:
        r0 = r1 = c0 = c1 = 0
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
    order = order.astype(np.int64, copy=False)
    return SpatialIndex(
        source=cloud,
        bin_size=float(bin_size),
        bin_ids=bin_ids,
        starts=starts,
        order=order,
        binned_xy=cloud.xy[order],
        binned_types=cloud.types[order],
        _n_cols=n_cols,
    )


def _ragged(lens: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Expand rows of ``lens[i]`` items into flat (row, position in row) arrays.

    Consecutive rows are taken together while their items number at most
    ``_PAIR_BATCH``; a longer row comes alone. A batch that would hold no
    items is skipped.
    """
    lens = np.asarray(lens, dtype=np.int64)
    ends = np.cumsum(lens)
    s = 0
    while s < lens.size:
        e = max(s + 1, int(np.searchsorted(ends, ends[s] - lens[s] + _PAIR_BATCH, side="right")))
        begin = ends[s:e] - lens[s:e]
        row = np.repeat(np.arange(s, e), lens[s:e])
        if row.size:
            yield row, np.arange(row.size) - np.repeat(begin - begin[0], lens[s:e])
        s = e


def _count_chunk(
    index: SpatialIndex, s: int, e: int, r2: np.ndarray, counts: np.ndarray
) -> None:
    """Fill the ``counts`` rows of the cells at bin-order positions [s, e).

    The chunk's cells fill the consecutive bins [b0, b1), so each of a
    bin's neighbour bins is looked up once for all the cells in it, and a
    neighbour's cells are the contiguous positions ``seg_start + slot``.
    """
    xy = index.binned_xy
    types = index.binned_types
    starts = index.starts
    n_d = r2.size
    n_cols = index._n_cols
    ring = int(np.ceil(np.sqrt(r2[-1]) / index.bin_size))
    b0 = int(np.searchsorted(starts, s, side="right")) - 1
    b1 = int(np.searchsorted(starts, e, side="left"))
    bins = index.bin_ids[b0:b1]
    bin_col = bins % n_cols
    q_bin = np.repeat(
        np.arange(b1 - b0), np.minimum(starts[b0 + 1 : b1 + 1], e) - np.maximum(starts[b0:b1], s)
    )
    qx = xy[s:e, 0]
    qy = xy[s:e, 1]
    m = e - s
    shell_counts = np.zeros(m * n_d * N_TYPES, dtype=np.int64)

    for dr in range(-ring, ring + 1):
        for dc in range(-ring, ring + 1):
            # map each bin's neighbour onto the CSR table; a neighbour off the
            # grid's rows packs to an id that misses it, one off its columns
            # is masked out
            packed = bins + (dr * n_cols + dc)
            pos = np.minimum(np.searchsorted(index.bin_ids, packed), index.bin_ids.size - 1)
            hit = (index.bin_ids[pos] == packed) & (bin_col + dc >= 0) & (bin_col + dc < n_cols)
            seg_start = starts[pos][q_bin]
            seg_len = np.where(hit, starts[pos + 1] - starts[pos], 0)[q_bin]
            for row, slot in _ragged(seg_len):
                cand = seg_start[row] + slot
                dx = qx[row] - xy[cand, 0]
                dy = qy[row] - xy[cand, 1]
                d2 = dx * dx + dy * dy
                inside = np.flatnonzero(d2 <= r2[-1])
                shell = np.searchsorted(r2, d2[inside], side="left")
                # a batch's rows ascend, so its counts fill one slice
                lo, hi = row[0] * n_d * N_TYPES, (row[-1] + 1) * n_d * N_TYPES
                key = ((row[inside] - row[0]) * n_d + shell) * N_TYPES + types[cand[inside]]
                shell_counts[lo:hi] += np.bincount(key, minlength=hi - lo)

    cum = np.cumsum(shell_counts.reshape(m, n_d, N_TYPES), axis=1)
    # remove the self pair: d2 = 0 lands in the first shell of own type
    cum[np.arange(m)[:, None], :, types[s:e][:, None]] -= 1
    counts[index.order[s:e]] = cum.astype(np.uint32)


def count_in_radii(
    index: SpatialIndex, radii: Sequence[float], threads: int = 1
) -> NeighborCounts:
    """Exact cumulative neighbor counts per (cell, radius, type).

    Boundary rule is inclusive (d <= r) and the cell itself is excluded.
    Queries run in chunks of ``_QUERY_CHUNK`` cells taken in the index's bin
    order, and each chunk writes its counts back to its cells' input rows.
    ``threads`` only spreads the chunks over workers; each writes disjoint
    rows, so results are identical for any thread count.
    """
    radii_arr = np.ascontiguousarray(radii, dtype=np.float64)
    if radii_arr.ndim != 1 or radii_arr.size == 0:
        raise ValueError("radii must be a non-empty 1-D sequence")
    if not (0 < radii_arr[0] and radii_arr[-1] <= _MAX_RADIUS and np.all(np.diff(radii_arr) > 0)):
        raise ValueError(f"radii must be positive, strictly ascending and at most {_MAX_RADIUS!r}")
    n = index.source.n_total
    r2 = radii_arr * radii_arr
    counts = np.zeros((n, radii_arr.size, N_TYPES), dtype=np.uint32)

    def run(s: int) -> None:
        _count_chunk(index, s, min(s + _QUERY_CHUNK, n), r2, counts)

    starts = range(0, n, _QUERY_CHUNK)
    if threads <= 1 or len(starts) <= 1:
        # A lone pool thread would gain nothing, and the scratch it frees
        # stays in a malloc arena of its own, raising peak RSS.
        list(map(run, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, starts))
    return NeighborCounts(radii=radii_arr, counts=counts)


def _nn_mean_xy(xy: np.ndarray, threads: int = 1) -> float:
    """Mean nearest-neighbor distance of a raw coordinate array (n >= 2).

    The points are queried in the tree's own leaf order (``tree.indices``)
    and their distances written back to input order before the mean, so
    the float sum runs in input order whatever the walk. The query runs on
    at most one worker per ``_QUERY_CHUNK`` points, so ``threads`` never
    starts more workers than there are chunks, and a cloud of one chunk
    stays on one.
    """
    n = xy.shape[0]
    workers = min(threads, -(-n // _QUERY_CHUNK))
    tree = cKDTree(xy)
    dist, _ = tree.query(xy[tree.indices], k=2, workers=workers)
    nn = np.empty(n)
    nn[tree.indices] = dist[:, 1]
    return float(np.mean(nn))


def mean_nn_distance(cloud: CellCloud, threads: int = 1) -> float:
    """Mean over cells of the distance to the nearest other cell.

    ``threads`` bounds the query's workers; the value does not depend on it.
    """
    if cloud.n_total < 2:
        raise TooFewCells("mean nearest-neighbor distance needs at least 2 cells")
    return _nn_mean_xy(cloud.xy, threads)


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
    and points inside it run the test oracle's scalar expression
    ``dx*dx + dy*dy``, plus the penalty ``penalty * (label != label_pick)``
    when there is one, so ``min_d2`` is bitwise the all-points update at
    every step.

    A pick writes its strip's d2, and its label mismatches, into buffers
    sized once, so memory stays O(m) for any labelling.
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
    xs = xy[perm, 0]
    ys = xy[perm, 1]
    slab = lab[perm]
    d2_buf = np.empty(m)
    buf = np.empty(m)
    mismatch = np.empty(m, dtype=bool) if penalty != 0.0 else None
    out = np.empty(n, dtype=np.int64)
    min_d2 = np.full(m, np.inf)
    nxt = start
    for step in range(n):
        out[step] = nxt
        # M is +inf at the start pick, so its strip is the whole cloud.
        xj = xy.item(nxt, 0)
        r = math.sqrt(min_d2[nxt]) * (1.0 + 1e-9) + 4e-16 * abs(xj) + 1e-300
        lo, hi = xs.searchsorted((xj - r, xj + r)).tolist()
        idx = perm[lo:hi]
        d2 = np.subtract(xs[lo:hi], xj, out=d2_buf[: hi - lo])
        np.multiply(d2, d2, out=d2)
        dy = np.subtract(ys[lo:hi], xy.item(nxt, 1), out=buf[: hi - lo])
        np.add(d2, np.multiply(dy, dy, out=dy), out=d2)
        if mismatch is not None:
            ne = np.not_equal(slab[lo:hi], lab[nxt], out=mismatch[: hi - lo])
            np.add(d2, np.multiply(ne, penalty, out=buf[: hi - lo]), out=d2)
        cur = min_d2.take(idx, out=buf[: hi - lo])
        min_d2[idx] = np.minimum(cur, d2, out=cur)
        min_d2[nxt] = -np.inf  # never re-pick a selected point
        nxt = int(min_d2.argmax())  # first occurrence = smallest index
    return out


def knn_group(
    anchor_coords: np.ndarray, point_coords: np.ndarray, k: int
) -> np.ndarray:
    """For each anchor, indices of its k nearest points, ties by smaller index.

    Rows come back sorted ascending by (distance, index). Points can belong
    to any number of groups.

    A k-d tree returns each anchor's k + 4 nearest points, a padded
    candidate set ranked on ``dx*dx + dy*dy`` like everywhere else here,
    then by index. The set holds every point within a hair more than the
    tree's k-th distance, and so every tie at the k-th distance whatever the
    tree's own rounding, once the tree's last candidate lies beyond that
    hair: such a row is certified. A row that is not, on a lattice or
    coincident points, is queried again with twice as many candidates, up
    to all n. Rows are taken at most ``_PAIR_BATCH`` candidates at a time,
    and match the O(N^2) scan bit-for-bit without ever forming the anchor-
    by-point distance matrix.
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
    rows = np.arange(a)
    width = min(k + 4, n)
    while rows.size:
        uncertified = []
        step = max(1, _PAIR_BATCH // width)
        for s in range(0, rows.size, step):
            sel = rows[s : s + step]
            dist, cand = tree.query(anchors[sel], k=width)
            cand = cand.reshape(-1, width)
            if width < n:
                dist = dist.reshape(-1, width)
                ok = dist[:, -1] > dist[:, k - 1] * (1.0 + 1e-9) + 1e-300
                uncertified.append(sel[~ok])
                sel, cand = sel[ok], cand[ok]
            del dist  # freed before the d2 scratch
            dx = anchors[sel, 0, None] - pts[cand, 0]
            dy = anchors[sel, 1, None] - pts[cand, 1]
            dx *= dx
            dy *= dy
            dx += dy  # d2, rounded as dx*dx + dy*dy
            order = np.lexsort((cand, dx), axis=-1)[:, :k]
            out[sel] = np.take_along_axis(cand, order, axis=-1)
        rows = np.concatenate(uncertified) if uncertified else rows[:0]
        width = min(2 * width, n)
    return out
