"""Exact geometric queries over 2-D typed point sets.

Everything here is exact: all comparisons happen on squared distances
from one kernel (:func:`_d2`), the ``dx*dx + dy*dy`` in float64 that the
O(N^2) pair scans evaluate, so the optimized paths agree with them
bit-for-bit. Those oracles live only in the test suite
(``tests/hsp_reference.py``).

The one spatial structure is a uniform grid index (:func:`build_index`)
that keeps the cells in row-major bin order, so a range of columns in one
grid row is one run of cells (:func:`_runs`). Counting and the mean-NN
query read the 2r+1 runs around each bin (r = 1 when ``bin_size`` is the
largest query radius: O(N) expected cost for the million-cell count that
dominates the pipeline); fps, kNN and ingest's pair searches read the
rows of a square around each point, certified by one margin and one
argument (:func:`_boxes`). Every grid sized by a point count is a
:func:`_grid`, which states its one bin rule. The mean-NN, fps and kNN
take raw points or a grid over them, so queries over the same points can
share one grid.

Slide detections arrive in no spatial order, so the neighbour queries do
not walk the cells in input order: they walk them in bin order, and each
result is written back to its cell's input row. Nearby queries then read
nearby memory, and no result depends on the walk.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

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

# fps replays the greedy loop among at most _ROUND points a round and
# finds them among about _HOT times as many hot points.
_ROUND = 64
_HOT = 8

# fps expands its (pick, point) pairs _CACHE_BATCH at a time, and the mean-NN
# walk at least that many: a batch's float64 temporaries (64 KiB) then stay
# in cache and below the allocator's mmap threshold, which took about half
# the time per pair at _PAIR_BATCH.
_CACHE_BATCH = 1 << 13

# Grids sized by a point count (:func:`_grid`) measure the occupied area
# between these quantiles of x and of y, over at most _SIZE_SAMPLE points.
_SIZE_QUANTILE = 0.01
_SIZE_SAMPLE = 1 << 16

# Points per bin of a :func:`_grid`; each kNN anchor's first square reaches
# _KNN_REACH times the expected distance of its k-th neighbour.
_PER_BIN = 2.0
_KNN_REACH = 1.3


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
    """Uniform grid over points; bin of point i is (floor(y/b), floor(x/b)),
    of its coordinates or, in a :func:`_grid`, of ``xy*0.5 - lo*0.5``.

    Internally the points are held in CSR-style arrays (``order`` grouped by
    bin with ``starts`` offsets over the sorted, de-duplicated ``bin_ids``),
    which is what the vectorised queries consume. ``binned_xy`` holds the
    points' coordinates in that same bin order, and ``binned_types`` their
    types in a counting index (:func:`build_index`), so a query reads a
    bin's points from one contiguous run and writes its result back to
    input row ``order[p]``. ``len(index)`` is the number of points.
    """

    xy: np.ndarray = field(repr=False)  # the points, in input order
    bin_size: float
    bin_ids: np.ndarray = field(repr=False)  # sorted unique packed ids
    starts: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)  # point indices grouped by bin
    binned_xy: np.ndarray = field(repr=False)  # xy[order]
    binned_types: Optional[np.ndarray] = field(repr=False)  # types[order]; None in a _grid
    rows: np.ndarray = field(repr=False)  # grid rows that hold points, ascending
    _n_cols: int = field(repr=False)  # bin id = row offset * _n_cols + col offset
    lo: Optional[np.ndarray] = field(repr=False)  # a _grid's map origin; None when counting

    def __len__(self) -> int:
        return self.xy.shape[0]


# Raw points (m x 2), or their grid (:func:`_grid`).
Points = Union[np.ndarray, SpatialIndex]


def _d2(ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """The oracles' ``dx*dx + dy*dy``, dx = ax - bx and dy = ay - by, inf where
    it overflows, computed in place in ``ax`` and ``ay``: the caller gives
    them up. Every exact query compares this one squared distance."""
    with np.errstate(over="ignore"):
        ax -= bx
        d2 = np.multiply(ax, ax, out=ax)
        ay -= by
        d2 += np.multiply(ay, ay, out=ay)
    return d2


def _half(r: np.ndarray) -> np.ndarray:
    """Half-widths (s x 1) of squares certified to hold all points within ``r`` (:func:`_boxes`)."""
    with np.errstate(over="ignore"):
        return r[:, None] * (1.0 + 1e-9) + 1e-150


def _grid_bins(xy: np.ndarray, size: float) -> tuple[np.ndarray, np.ndarray]:
    """int64 bins (floor(y / size), floor(x / size)); GridOverflow beyond int64."""
    with np.errstate(over="ignore"):  # a bin past float64 is inf, rejected below
        rows = np.floor(xy[:, 1] / size)
        cols = np.floor(xy[:, 0] / size)
    for b in (rows, cols):
        if b.size and not (-_GRID_LIMIT < b.min() and b.max() < _GRID_LIMIT):
            raise GridOverflow(f"grid bins of size {size!r} lie beyond int64 bin ids")
    return rows.astype(np.int64), cols.astype(np.int64)


def build_index(cloud: CellCloud, bin_size: float) -> SpatialIndex:
    """Assign every cell to its grid bin and group cell indices by bin."""
    return _index(cloud.xy, bin_size, cloud.xy, cloud.types)


def _index(
    xy: np.ndarray,
    bin_size: float,
    at: np.ndarray,
    types: Optional[np.ndarray] = None,
    lo: Optional[np.ndarray] = None,
) -> SpatialIndex:
    """An index over the points ``xy`` (and their ``types``, if given),
    binning each by its row of ``at``."""
    if bin_size <= 0:
        raise ValueError("bin_size must be positive")
    n = xy.shape[0]
    rows, cols = _grid_bins(at, bin_size)
    r0, r1 = (int(rows.min()), int(rows.max())) if n else (0, 0)
    c0, c1 = (int(cols.min()), int(cols.max())) if n else (0, 0)
    n_bins, n_cols = (r1 - r0 + 1) * (c1 - c0 + 1), c1 - c0 + 1
    if n_bins >= _GRID_LIMIT:
        raise GridOverflow(f"cloud spans too many bins of size {bin_size!r} for int64 bin ids")
    packed = (rows - r0) * n_cols + (cols - c0)
    # numpy radix-sorts 16-bit keys, in the same stable order
    order = np.argsort(packed.astype(np.uint16) if n_bins <= 1 << 16 else packed, kind="stable")
    sorted_ids = packed[order]
    first = np.flatnonzero(np.diff(sorted_ids, prepend=-1))  # ids are >= 0
    bin_ids = sorted_ids[first]
    starts = np.append(first, n).astype(np.int64)
    rows = bin_ids // n_cols  # ascending, as the ids are
    rows = rows[np.flatnonzero(np.diff(rows, prepend=-1))]
    return SpatialIndex(
        xy=xy,
        bin_size=float(bin_size),
        bin_ids=bin_ids,
        starts=starts,
        order=order,
        binned_xy=np.take(xy, order, axis=0),  # xy[order], 10x faster
        binned_types=None if types is None else types[order],
        rows=rows,
        _n_cols=n_cols,
        lo=lo,
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


def _runs(index: SpatialIndex, row, c_lo, c_hi) -> tuple[np.ndarray, np.ndarray]:
    """Bin-order positions [a, b) of the cells in columns c_lo..c_hi of grid
    rows ``row``. Columns are clipped to the grid (each range must meet it),
    and a row off the grid gives an empty run. Packed bin ids are row-major,
    so each is one run of ids, found by a binary search for each end."""
    n_cols, ids, row_id = index._n_cols, index.bin_ids, row * index._n_cols
    a = ids.searchsorted(row_id + np.maximum(c_lo, 0))
    b = ids.searchsorted(row_id + np.minimum(c_hi, n_cols - 1) + 1)
    return index.starts[a], index.starts[b]


def _chunk_bins(index: SpatialIndex, s: int, e: int) -> tuple[np.ndarray, ...]:
    """(bin_row, bin_col, q_bin) of the cells at bin-order positions [s, e):
    the grid row and column of the consecutive bins they fill, and each
    cell's bin among those."""
    starts = index.starts
    b0 = int(np.searchsorted(starts, s, side="right")) - 1
    b1 = int(np.searchsorted(starts, e, side="left"))
    bin_row, bin_col = np.divmod(index.bin_ids[b0:b1], index._n_cols)
    q_bin = np.repeat(
        np.arange(b1 - b0), np.minimum(starts[b0 + 1 : b1 + 1], e) - np.maximum(starts[b0:b1], s)
    )
    return bin_row, bin_col, q_bin


def _ring_pairs(
    index: SpatialIndex, s: int, e: int, ring: int, limit: Optional[int] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batches (row, cand) of the bin-order positions s + row and cand of
    each cell in [s, e) and every cell, itself included, of the bins up to
    ``ring`` away on each axis, at most ``limit`` pairs at a time (one
    row's alone when longer); a batch's rows ascend.

    The cells [s, e) fill the consecutive bins [b0, b1); each bin reads the
    2 * ring + 1 grid rows around it as one run each (:func:`_runs`), once
    for all its cells, and the runs are expanded through ``_ragged``.
    """
    bin_row, bin_col, q_bin = _chunk_bins(index, s, e)
    for dr in range(-ring, ring + 1):
        a, b = _runs(index, bin_row + dr, bin_col - ring, bin_col + ring)
        a, lens = a[q_bin], (b - a)[q_bin]
        for row, slot in _ragged(lens, limit):
            yield row, a[row] + slot


def _grid(points: Points) -> SpatialIndex:
    """A grid over the points ``points`` (m x 2, m >= 1) of about
    ``_PER_BIN`` points per square bin, or ``points`` itself when it is
    such a grid already. ValueError if a point is not finite.

    Points are binned by ``xy*0.5 - lo*0.5`` with ``lo`` their minimum
    (monotone, never overflowing; :func:`_boxes` maps square edges the same
    way). The bin side comes from the area the points occupy: the box
    between the ``_SIZE_QUANTILE`` quantiles of x and of y, taken from a
    strided sample, so a few far points do not coarsen the bins. Where the
    points then fill under a quarter of the bins they could, as two
    sections far apart do, the side shrinks once by the square root of the
    occupied share. Points more than 2**30 bins out are binned as if at
    2**30 bins, so the grid is at most 2**30 + 1 bins wide and bin ids stay
    in int64; clipping is monotone too.
    """
    if isinstance(points, SpatialIndex):
        return points
    xy = np.ascontiguousarray(points, dtype=np.float64)
    if not np.isfinite(xy).all():
        raise ValueError("points must be finite")
    lo = np.array([xy[:, 0].min(), xy[:, 1].min()])  # min(axis=0) is slow on (n, 2)
    rel = xy * 0.5
    rel -= lo * 0.5
    m = rel.shape[0]
    bins = max(m / _PER_BIN, 1.0)
    sample = rel[:: -(-m // _SIZE_SAMPLE)]
    q = [int(f * (sample.shape[0] - 1)) for f in (_SIZE_QUANTILE, 1.0 - _SIZE_QUANTILE)]
    wx, wy = (float(np.diff(np.partition(sample[:, c], q)[q])[0]) for c in (0, 1))
    size = max(wx, wy) / bins
    if wx and wy:
        size = max(size, math.sqrt(wx / bins) * math.sqrt(wy))
    index = _index(xy, size or 1.0, np.minimum(rel, 2.0**30 * (size or 1.0), out=rel), lo=lo)
    occupied = index.bin_ids.size
    if 4 * occupied < min(bins, m) and size:
        size *= math.sqrt(occupied / bins)
        index = _index(xy, size, np.minimum(rel, 2.0**30 * size, out=rel), lo=lo)
    return index


def _boxes(index: SpatialIndex, centre: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Grid boxes (c0, r0, c1, r1), clipped to the grid, of the squares
    around ``centre`` (s raw points) of half-widths ``half`` (s x 1, or s x 2
    per axis) in a :func:`_grid`.

    Every exact square search rests on this: the edges c -+ h are rounded,
    mapped, binned and clipped by the same monotone operations as the grid's
    points, so a point q outside a box has |q - c| > h exactly on some axis,
    hence a computed |dx| >= h and d2 >= fl(h*h), however few float spacings
    from c it lies. For h = :func:`_half` of r = sqrt(D), fl(h*h) > D: the
    factor 1 + 1e-9 outweighs how sqrt and the squares round, and the 1e-150
    keeps h*h out of underflow, where D may be 0. So a box holds every point
    at a computed d2 of D or less, a wider box only adds candidates, and
    r = inf gives the whole grid.
    """
    with np.errstate(over="ignore"):  # an overflowing edge is +-inf, clipped below
        edge = np.concatenate((centre - half, centre + half), axis=1)
        edge *= 0.5
        edge -= (index.lo * 0.5)[[0, 1, 0, 1]]
        edge /= index.bin_size
    top = [index._n_cols - 1, index.bin_ids[-1] // index._n_cols] * 2
    np.maximum(np.floor(edge, out=edge), 0, out=edge)
    return np.minimum(edge, top, out=edge).astype(np.int64)


def _square_runs(
    index: SpatialIndex, box: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Batches (sq, a, b) of the bin-order runs [a, b) of the cells in each
    box ``box[sq] = (c0, r0, c1, r1)``, one run per grid row; ``sq`` ascends.
    Only grid rows that hold cells are read (:func:`_runs`), so a box costs
    no more than the cloud's occupied rows however tall the grid."""
    c0, r0, c1, r1 = box.T
    i0 = index.rows.searchsorted(r0)
    i1 = index.rows.searchsorted(r1, side="right")
    for sq, k in _ragged(i1 - i0):
        a, b = _runs(index, index.rows[i0[sq] + k], c0[sq], c1[sq])
        yield sq, a, b


def _square_pairs(
    index: SpatialIndex, box: np.ndarray, limit: Optional[int] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batches (sq, pos) of each box ``box[sq]`` and the bin-order position
    of every cell in it (:func:`_square_runs`), at most ``limit`` pairs at a
    time (one run alone when longer); a box's cells come row by row."""
    for sq, a, b in _square_runs(index, box):
        for seg, slot in _ragged(b - a, limit):
            yield sq[seg], a[seg] + slot


def _close_pairs(xy: np.ndarray, half: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batches of index pairs (i, j), i < j, of the finite points ``xy``:
    every pair closer than max(half[i], half[j]) on both axes comes exactly
    once, and no pair comes twice. ``half`` holds non-negative half-widths.

    The points go into a :func:`_grid`, and each reads its square of
    half-width ``half`` (:func:`_boxes`, :func:`_square_pairs`), which holds
    every point that close. A pair is taken from the wider of its two
    squares, ties going to the smaller index.
    """
    index = _grid(xy)
    order, h = index.order, half[index.order]
    for sq, pos in _square_pairs(index, _boxes(index, index.binned_xy, h[:, None])):
        i, j = order[sq], order[pos]
        own = (h[sq] > h[pos]) | ((h[sq] == h[pos]) & (i < j))
        yield np.minimum(i, j)[own], np.maximum(i, j)[own]


def _each_chunk(run, n: int, threads: int) -> None:
    """``run(s)`` for the chunk starts s of ``_QUERY_CHUNK`` cells, on at
    most ``threads`` workers and never more workers than chunks."""
    starts = range(0, n, _QUERY_CHUNK)
    workers = min(threads, len(starts))
    if workers <= 1:
        # A lone pool thread would gain nothing, and the scratch it frees
        # stays in a malloc arena of its own, raising peak RSS.
        list(map(run, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))


def _count_chunk(
    index: SpatialIndex, s: int, e: int, r2: np.ndarray, counts: np.ndarray
) -> None:
    """Fill the ``counts`` rows of the cells at bin-order positions [s, e)."""
    xy, types = index.binned_xy, index.binned_types
    n_d = r2.size
    ring = int(np.ceil(np.sqrt(r2[-1]) / index.bin_size))
    qx, qy = xy[s:e, 0], xy[s:e, 1]
    m = e - s
    shell_counts = np.zeros(m * n_d * N_TYPES, dtype=np.int64)

    for row, cand in _ring_pairs(index, s, e, ring):
        d2 = _d2(qx[row], qy[row], xy[cand, 0], xy[cand, 1])
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
    n = len(index)
    r2 = radii_arr * radii_arr
    counts = np.zeros((n, radii_arr.size, N_TYPES), dtype=np.uint32)

    _each_chunk(lambda s: _count_chunk(index, s, min(s + _QUERY_CHUNK, n), r2, counts), n, threads)
    return NeighborCounts(radii=radii_arr, counts=counts)


def _nn_mean_xy(points: Points, threads: int = 1) -> float:
    """Mean nearest-neighbor distance of raw points (n >= 2).

    The points go into a :func:`_grid`, unless they come as one. Each point
    starts from the squared distance to its successor in bin order (its
    predecessor, for the last) and takes the minimum over the ring of bins
    one away (:func:`_ring_pairs`, the self pair left out), on the raw
    coordinates. Its nearest neighbour is certified when the box of its
    square of half-width :func:`_half` of sqrt(min d2) lies inside that
    ring, as no point outside the box is nearer (:func:`_boxes`). Only the
    points that are not read their whole square, row by row
    (:func:`_square_pairs`). The walk runs in ``_QUERY_CHUNK`` chunks of bin
    order on at most ``threads`` workers, each writing disjoint rows and
    expanding ``_CACHE_BATCH`` pairs, or half its cells, at a time, and
    distances are written back to input order before the mean, so the float
    sum runs in input order whatever the walk or the thread count.
    """
    index = _grid(points)
    n = len(index)
    order = index.order
    gx, gy = index.binned_xy[:, 0], index.binned_xy[:, 1]
    nn = np.empty(n)

    def d2_to(p: np.ndarray, cand: np.ndarray) -> np.ndarray:
        d2 = _d2(gx[p], gy[p], gx[cand], gy[cand])
        d2[cand == p] = np.inf  # not the self pair
        return d2

    def run(s: int) -> None:
        e = min(s + _QUERY_CHUNK, n)
        batch = max(_CACHE_BATCH, (e - s) // 2)  # pairs; fewer, longer calls on big chunks
        pos = np.arange(s, e)
        best = d2_to(pos, np.where(pos < n - 1, pos + 1, pos - 1))
        for row, cand in _ring_pairs(index, s, e, 1, batch):
            np.minimum.at(best, row, d2_to(s + row, cand))
        box = _boxes(index, index.binned_xy[s:e], _half(np.sqrt(best)))
        bin_row, bin_col, q_bin = _chunk_bins(index, s, e)
        ring = np.stack((bin_col, bin_row), axis=1)[q_bin]
        wide = np.flatnonzero(((box[:, :2] < ring - 1) | (box[:, 2:] > ring + 1)).any(axis=1))
        for sq, cand in _square_pairs(index, box[wide], batch):
            np.minimum.at(best, wide[sq], d2_to(s + wide[sq], cand))
        nn[order[s:e]] = np.sqrt(best)

    _each_chunk(run, n, threads)
    return float(np.mean(nn))


def mean_nn_distance(cloud: CellCloud, threads: int = 1) -> float:
    """Mean over cells of the distance to the nearest other cell.

    ``threads`` bounds the query's workers; the value does not depend on it.
    """
    if cloud.n_total < 2:
        raise TooFewCells("mean nearest-neighbor distance needs at least 2 cells")
    return _nn_mean_xy(cloud.xy, threads)


def fps(
    points: Points,
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

    Each accepted pick p, made at M = max(min_d2), then lowers min_d2 only
    inside its square of half-width :func:`_half` of sqrt(M): a point's
    min_d2 is at most M and the label penalty is non-negative, so only a d2
    below M changes anything, and every point outside the square's box in
    the points' :func:`_grid` (built here unless they come as one) is
    farther (:func:`_boxes`). The start pick is made at M = +inf. A square's
    points are read one run per occupied grid row (:func:`_square_pairs`),
    at most ``_CACHE_BATCH`` (pick, point) pairs at a time, and applied with
    ``np.minimum.at``: a minimum does not depend on the order of its
    updates. Every d2 is the test oracle's ``dx*dx + dy*dy`` (:func:`_d2`),
    plus the penalty only where the labels differ, so ``min_d2`` is bitwise
    the all-points update after every round, and memory stays O(m).
    """
    m = len(points)
    if not 0 <= n <= m:
        raise ValueError(f"cannot sample {n} anchors from {m} points")
    if not gamma >= 0:
        raise ValueError(f"gamma must be non-negative, got {gamma!r}")
    if labels is not None and np.shape(labels) != (m,):
        raise ValueError(f"labels have shape {np.shape(labels)}, points need ({m},)")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    index = _grid(points)
    xy, lo = index.xy, index.lo
    # Unlabelled points share one label and pay no penalty.
    lab = np.zeros(m, np.uint8) if labels is None else np.ascontiguousarray(labels)
    tie = np.flatnonzero(xy[:, 0] == lo[0])
    tie = tie[xy[tie, 1] == xy[tie, 1].min()]
    start = int(tie[lab[tie].argmin()])  # first occurrence = smallest index
    penalty = 0.0 if labels is None else 2.0 * gamma * gamma
    order = index.order
    gx, gy, glab = index.binned_xy[:, 0], index.binned_xy[:, 1], lab[order]

    pen = np.array([0.0, penalty])

    def lower(pos, pick):
        """min_d2[pos] = min(min_d2[pos], augmented d2 to the points ``pick``)."""
        d2 = _d2(gx[pos], gy[pos], gx[pick], gy[pick])
        if penalty != 0.0:
            # + 0.0 is exact, and unlike 0 * penalty it stays finite
            with np.errstate(over="ignore"):  # a sum past float64 is inf, as in the oracle
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
        box = _boxes(index, index.binned_xy[pos], _half(np.sqrt(at)))
        for pick, p in _square_pairs(index, box, _CACHE_BATCH):
            lower(p, pos[pick])
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
        pair = _d2(np.repeat(cx[:, None], t, 1), np.repeat(cy[:, None], t, 1), cx, cy)
        if penalty != 0.0:
            with np.errstate(over="ignore"):
                np.add(pair, penalty, out=pair, where=np.not_equal.outer(cl, cl))
        pair.flat[:: t + 1] = -np.inf  # a pick's own min_d2 drops to -inf
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


def knn_group(anchor_coords: np.ndarray, points: Points, k: int) -> np.ndarray:
    """For each anchor, indices of its k nearest points, ties by smaller index.

    Rows come back sorted ascending by (distance, index). Points can belong
    to any number of groups.

    The points go into a :func:`_grid`, unless they come as one. Each anchor
    reads the cells of its square of half-width :func:`_half` of its reach
    (:func:`_square_runs`) and ranks them by ``dx*dx + dy*dy`` on the raw
    coordinates, then by index: as the complex keys d2 + 1j*index, which
    numpy orders by real part, then imaginary part, partitioned at k with
    the k smallest sorted. A row is certified when its square covers the
    whole grid, or when it holds k candidates and the k-th distance is at
    most its reach: every point outside the square's box then has a computed
    d2 above the k-th (:func:`_boxes`). A row that is not is read again with
    its reach set to its k-th distance, which certifies it, or, while it
    holds fewer than k points, doubled and raised to at least its distance
    to the points' bounding box. The first reach is ``_KNN_REACH`` times the
    k-th neighbour distance expected at the density of the grid's occupied
    bins. Rows are ranked in batches of at most ``_PAIR_BATCH`` float64 key
    slots (one row alone when it has more candidates), those with most
    candidates first so that little is padding, and match the O(N^2) scan
    bit-for-bit without ever forming the anchor-by-point distance matrix.
    """
    anchors = np.ascontiguousarray(anchor_coords, dtype=np.float64).reshape(-1, 2)
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    a = anchors.shape[0]
    out = np.empty((a, k), dtype=np.int64)
    if a == 0:
        return out
    if not np.isfinite(anchors).all():
        raise ValueError("anchor coordinates must be finite")
    index = _grid(points)
    xy, lo = index.xy, index.lo
    gx, gy, ids = index.binned_xy[:, 0], index.binned_xy[:, 1], index.order.astype(np.float64)
    whole = np.array([0, 0, index._n_cols - 1, index.bin_ids[-1] // index._n_cols])
    side = 2 * index.bin_size  # of a bin, in raw units
    expected = side * math.sqrt(index.bin_ids.size * k / (math.pi * n))
    reach = np.full(a, _KNN_REACH * expected)
    hi = np.array([xy[:, 0].max(), xy[:, 1].max()])  # max(axis=0) is slow on (n, 2)
    rows = np.arange(a)
    while rows.size:
        ax, ay = anchors[rows, 0], anchors[rows, 1]
        with np.errstate(over="ignore"):  # a reach past float64 is inf: the whole grid
            # for a row holding fewer than k points: at least its distance to the points' box
            gap = np.maximum(lo - anchors[rows], anchors[rows] - hi).max(axis=1)
            nxt = np.maximum(np.maximum(2.0 * reach[rows], side), gap)
        box = _boxes(index, anchors[rows], _half(reach[rows]))
        done = (box == whole).all(axis=1)
        for sq, a0, b0 in _square_runs(index, box):
            n_runs = np.bincount(sq, minlength=rows.size)
            held = np.bincount(sq, weights=b0 - a0, minlength=rows.size)
            first = np.cumsum(n_runs) - n_runs  # each square's first run in the batch
            by = np.flatnonzero(held)
            by = by[np.argsort(-held[by], kind="stable")]
            s = 0
            while s < by.size:
                width = max(int(held[by[s]]), k)
                sel = by[s : s + max(1, _PAIR_BATCH // (2 * width))]  # a complex key is two slots
                s += sel.size
                # the runs of the squares sel, square by square, and the key
                # row and column at which each run's cells start
                nr = n_runs[sel]
                lead = np.cumsum(nr) - nr
                run = np.repeat(first[sel] - lead, nr) + np.arange(lead[-1] + nr[-1])
                lens = b0[run] - a0[run]
                col = np.cumsum(lens) - lens
                col -= np.repeat(col[lead], nr)
                col += np.repeat(np.arange(sel.size) * width, nr)  # flat, in key
                sx, sy = np.repeat(ax[sel], nr), np.repeat(ay[sel], nr)
                key = np.full((sel.size, width), complex(np.inf, np.inf))
                real, imag = key.real.reshape(-1), key.imag.reshape(-1)
                for r, slot in _ragged(lens, _PAIR_BATCH // 4):
                    p, c = a0[run[r]] + slot, col[r] + slot
                    real[c] = _d2(sx[r], sy[r], gx[p], gy[p])
                    imag[c] = ids[p]
                if k < width:
                    key.partition(k - 1, axis=1)
                best = np.sort(key[:, :k], axis=1)
                kth = best[:, -1]
                full = kth.imag < n  # k real candidates, not padding
                ok = done[sel] | (full & (np.sqrt(kth.real) <= reach[rows[sel]]))
                done[sel] = ok
                out[rows[sel[ok]]] = best[ok].imag
                nxt[sel] = np.where(full, np.sqrt(kth.real), nxt[sel])
        reach[rows] = nxt
        rows = rows[~done]
    return out
