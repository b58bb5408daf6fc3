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

_FLOAT_MAX = float(np.finfo(np.float64).max)

# fps replays the greedy loop among at most _ROUND points a round, finds
# them among about _HOT times as many hot points, and bins the cloud into
# about _CELLS_PER_PICK grid cells per pick. It expands (pick, point) pairs
# _FPS_BATCH at a time: a batch's float64 temporaries (64 KiB) then stay in
# cache and below the allocator's mmap threshold, which took about half the
# time per pair at _PAIR_BATCH.
_ROUND = 64
_HOT = 8
_CELLS_PER_PICK = 4
_FPS_BATCH = 1 << 13


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


def _ragged(
    lens: np.ndarray, limit: Optional[int] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Expand rows of ``lens[i]`` items into flat (row, position in row) arrays.

    Consecutive rows are taken together while their items number at most
    ``limit`` (default ``_PAIR_BATCH``); a longer row comes alone. A batch
    that would hold no items is skipped.
    """
    limit = _PAIR_BATCH if limit is None else limit
    lens = np.asarray(lens, dtype=np.int64)
    ends = np.cumsum(lens)
    s = 0
    while s < lens.size:
        e = max(s + 1, int(np.searchsorted(ends, ends[s] - lens[s] + limit, side="right")))
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


def _grid_bin(v, v0, size: float, n_bins) -> np.ndarray:
    """Bin floor((v - v0) / size) of each value, clipped to [0, n_bins).

    Every step rounds monotonically, so a value between two others never
    lands in a bin outside theirs.
    """
    b = np.floor((v - v0) / size)
    return np.minimum(np.maximum(b, 0, out=b), n_bins - 1, out=b).astype(np.int64)


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

    Picks are made in exact rounds. A round takes the t = ``_ROUND`` points
    that come first by (min_d2 descending, index ascending): with v the
    t-th largest min_d2, every point above v and, of the points tied at v,
    only the smallest-index ones that fill the round. It replays the greedy
    loop among them on their exact pairwise augmented d2 and accepts picks
    while the next one still beats every point left out: its current
    min_d2 is above v, or equal to v with an index below every tied point
    left out. A point left out sits at or below v and can only fall, so each
    accepted pick is the one the all-points loop makes. The round's points
    are found among the hot points, those whose min_d2 was at least a floor
    when they were last gathered; the floor is reset, from all m points,
    only when fewer than t hot points remain above it.

    Each accepted pick, made at M = max(min_d2), then lowers min_d2 only
    inside its square of half-width sqrt(M)*(1 + 1e-9) + 4e-16*|coordinate|
    + 1e-300 on each axis: a point's min_d2 is at most M, the label penalty
    is non-negative, and the margins cover the rounding of sqrt, of the
    squares and of the square's edges at slide-scale offsets, so a point
    outside the square has a computed d2 of at least M. The start pick is
    made at M = +inf. The squares are cut from a uniform 2-D grid of about
    ``_CELLS_PER_PICK`` cells per pick that holds the points in cell order
    (a CSR index). Points and square edges are binned by the one monotone
    ``floor((v - v0) / size)``, so every point of a square lies in the
    square's cells, and each row of cells is one contiguous run of points.
    A round's (pick, point) pairs are expanded through ``_ragged``, at most
    ``_FPS_BATCH`` at a time, and applied with ``np.minimum.at``: a minimum
    does not depend on the order of its updates. Every d2 is the test
    oracle's ``dx*dx + dy*dy``, plus the penalty only where the labels
    differ, so ``min_d2`` is bitwise the all-points update after every
    round, and memory stays O(m).
    """
    xy = np.ascontiguousarray(points, dtype=np.float64)
    m = xy.shape[0]
    if not 0 <= n <= m:
        raise ValueError(f"cannot sample {n} anchors from {m} points")
    if not gamma >= 0:
        raise ValueError(f"gamma must be non-negative, got {gamma!r}")
    if not np.isfinite(xy).all():
        raise ValueError("points must be finite")
    if labels is not None and np.shape(labels) != (m,):
        raise ValueError(f"labels have shape {np.shape(labels)}, points need ({m},)")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Unlabelled points share one label and pay no penalty.
    lab = np.zeros(m, np.uint8) if labels is None else np.ascontiguousarray(labels)
    x, y = xy[:, 0], xy[:, 1]
    origin = np.array([x.min(), y.min()])
    tie = np.flatnonzero(x == origin[0])
    tie = tie[y[tie] == y[tie].min()]
    start = int(tie[lab[tie].argmin()])  # first occurrence = smallest index
    penalty = 0.0 if labels is None else 2.0 * gamma * gamma

    # A grid of about _CELLS_PER_PICK square cells per pick, at most 3x that.
    wx, wy = float(x.max() - origin[0]), float(y.max() - origin[1])  # inf on overflow
    cells = _CELLS_PER_PICK * n
    size = max(wx, wy) / cells
    if wx and wy:
        size = max(size, math.sqrt(wx / cells) * math.sqrt(wy))
    size = min(size, _FLOAT_MAX) or 1.0
    nx, ny = int(min(wx / size, cells)) + 1, int(min(wy / size, cells)) + 1
    dims = np.array([nx, ny])
    cell = _grid_bin(y, origin[1], size, ny) * nx + _grid_bin(x, origin[0], size, nx)
    order = np.argsort(cell)  # any order within a cell
    starts = np.zeros(nx * ny + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=nx * ny), out=starts[1:])
    gx, gy, glab = xy[order, 0], xy[order, 1], lab[order]

    pen = np.array([0.0, penalty])

    def lower(pos, pick):
        """min_d2[pos] = min(min_d2[pos], augmented d2 to the points ``pick``)."""
        dx = gx[pos]
        dx -= gx[pick]
        d2 = np.multiply(dx, dx, out=dx)
        dy = gy[pos]
        dy -= gy[pick]
        d2 += np.multiply(dy, dy, out=dy)
        if penalty != 0.0:
            # + 0.0 is exact, and unlike 0 * penalty it stays finite
            d2 += pen.take(np.not_equal(glab[pos], glab[pick]).view(np.uint8))
        np.minimum.at(min_d2, pos, d2)

    out = np.empty(n, dtype=np.int64)
    out[0] = start
    # min_d2 in grid order; -inf marks a picked point, which is never re-picked.
    # The start pick is made at M = +inf, so its square is the whole grid.
    min_d2 = np.full(m, np.inf)
    pos, at = np.flatnonzero(order == start), [np.inf]
    done = 1
    # Every unpicked point with min_d2 >= floor is hot; min_d2 only falls, so
    # a round whose t-th largest min_d2 is at least floor finds it, and
    # every point tied with it, among the hot points alone.
    hot, floor = pos[:0], np.inf
    while True:
        min_d2[pos] = -np.inf
        pxy = xy[order[pos]]
        half = np.sqrt(at)[:, None] * (1.0 + 1e-9) + 4e-16 * np.abs(pxy) + 1e-300
        box = _grid_bin(np.concatenate((pxy - half, pxy + half)), origin, size, dims)
        (c0, r0), (c1, r1) = box[: pos.size].T, box[pos.size :].T
        for pick, dr in _ragged(r1 - r0 + 1):
            row = (r0[pick] + dr) * nx
            lo = starts[row + c0[pick]]
            for seg, slot in _ragged(starts[row + c1[pick] + 1] - lo, _FPS_BATCH):
                lower(lo[seg] + slot, pos[pick[seg]])
        if done == n:
            return out

        t = min(_ROUND, n - done)
        hot = hot[min_d2[hot] >= floor]
        if hot.size < t:
            h = m - min(m, _HOT * t)
            floor = np.partition(min_d2, h)[h]
            hot = np.flatnonzero(min_d2 >= floor)
        val = min_d2[hot]
        v = np.partition(val, val.size - t)[val.size - t]
        cand = hot[val >= v]
        cut = m  # the smallest index of a tied point left out
        if cand.size > t:  # more points tie at v than fit: the smallest indices
            tied = cand[min_d2[cand] == v]
            tied_ids = order[tied]
            need = t - (cand.size - tied.size)
            cut = int(np.partition(tied_ids, need)[need])
            cand = np.concatenate((cand[min_d2[cand] > v], tied[tied_ids < cut]))
        cand = cand[np.argsort(order[cand])]
        ids = order[cand]
        cx, cy, cl = gx[cand], gy[cand], glab[cand]
        dx = np.subtract.outer(cx, cx)
        pair = np.multiply(dx, dx, out=dx)
        dy = np.subtract.outer(cy, cy)
        pair += np.multiply(dy, dy, out=dy)
        if penalty != 0.0:
            np.add(pair, penalty, out=pair, where=np.not_equal.outer(cl, cl))
        pair.flat[:: cand.size + 1] = -np.inf  # a pick's own min_d2 drops to -inf
        # Replay the greedy loop; stop at the first pick a point left out
        # could beat.
        cur = min_d2[cand]
        picks, at = [], []
        while len(picks) < t:
            j = int(cur.argmax())  # first occurrence = smallest index
            cj = cur.item(j)
            if not (cj > v or (cj == v and ids.item(j) < cut)):
                break
            picks.append(j)
            at.append(cj)
            np.minimum(cur, pair[j], out=cur)
        out[done : done + len(picks)] = ids[picks]
        done += len(picks)
        pos = cand[picks]


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
