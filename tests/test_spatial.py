import math
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cellcloud import spatial
from cellcloud.core import CellCloud, TooFewCells
from cellcloud.spatial import (
    GridOverflow,
    NeighborCounts,
    build_index,
    count_in_radii,
    fps,
    knn_group,
    mean_nn_distance,
)

from conftest import make_cloud, random_cloud
from hsp_reference import count_reference, fps_reference, knn_reference, nn_mean_reference

seeds = st.integers(0, 2**32 - 1)


def lattice_cloud(rng, n, pitch=4):
    """Integer-lattice cloud: many exactly tied distances."""
    xy = rng.integers(0, pitch, size=(n, 2)).astype(np.float64) * 3.0
    types = rng.integers(0, 3, size=n).astype(np.uint8)
    return CellCloud(xy=xy, types=types)


# ---------------------------------------------------------------------------
# NeighborCounts
# ---------------------------------------------------------------------------


def test_counts_radii_must_ascend():
    with pytest.raises(ValueError):
        NeighborCounts(radii=np.array([2.0, 1.0]), counts=np.zeros((1, 2, 3), np.uint32))
    with pytest.raises(ValueError):
        NeighborCounts(radii=np.array([0.0, 1.0]), counts=np.zeros((1, 2, 3), np.uint32))
    with pytest.raises(ValueError):
        NeighborCounts(radii=np.array([1.0]), counts=np.zeros((1, 2, 3), np.uint32))


# ---------------------------------------------------------------------------
# build_index
# ---------------------------------------------------------------------------


def bin_members(idx, cloud, bin_size):
    """(bin row, bin col) -> cell indices, read off the index's CSR arrays.

    Each bin's row and column come from its members' own coordinates by the
    one map, floor((xy*0.5 - lo*0.5) / (bin_size*0.5)) with lo the cloud's
    minimum, and the bin-ordered copies must hold those members'
    coordinates and types.
    """
    lo = np.array([cloud.xy[:, 0].min(), cloud.xy[:, 1].min()])
    assert len(idx) == cloud.n_total and np.array_equal(idx.xy, cloud.xy)
    assert np.array_equal(idx.lo, lo) and idx.bin_size == bin_size * 0.5
    assert idx.starts[0] == 0 and idx.starts[-1] == idx.order.size
    assert np.all(np.diff(idx.bin_ids) > 0)  # sorted, de-duplicated
    assert np.all(np.diff(idx.starts) > 0)  # no empty bin is stored
    out = {}
    for b in range(idx.bin_ids.size):
        members = idx.order[idx.starts[b] : idx.starts[b + 1]].tolist()
        xy = cloud.xy[members]
        assert np.array_equal(idx.binned_xy[idx.starts[b] : idx.starts[b + 1]], xy)
        assert np.array_equal(
            idx.binned_types[idx.starts[b] : idx.starts[b + 1]], cloud.types[members]
        )
        mapped = (xy * 0.5 - lo * 0.5) / (bin_size * 0.5)
        (key,) = {(int(r), int(c)) for r, c in np.floor(mapped[:, ::-1])}
        out[key] = members
    assert len(out) == idx.bin_ids.size  # one stored bin per grid bin
    return out


def test_index_bins_match_direct_binning():
    # Bins count from the cloud's lowest coordinates, so a shifted cloud
    # keeps its bins.
    cloud = make_cloud(
        [(0.0, 0.0, 0), (9.9, 9.9, 1), (10.0, 0.0, 2), (25.0, 14.0, 0), (0.0, 10.0, 1)]
    )
    for shift in ((0.0, 0.0), (3.0, -7.0)):
        moved = CellCloud(xy=cloud.xy + shift, types=cloud.types)
        assert bin_members(build_index(moved, bin_size=10.0), moved, 10.0) == {
            (0, 0): [0, 1],
            (0, 1): [2],
            (1, 0): [4],
            (1, 2): [3],
        }


@given(seeds, st.integers(1, 80))
@settings(max_examples=30, deadline=None)
def test_index_partitions_all_cells(seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    cloud = random_cloud(rng, n, extent=100.0)
    idx = build_index(cloud, bin_size=7.0)
    bins = bin_members(idx, cloud, 7.0)
    seen = sorted(i for members in bins.values() for i in members)
    assert seen == list(range(n))
    lo = cloud.xy.min(axis=0)
    for (r, c), members in bins.items():
        for i in members:
            assert int(np.floor((cloud.xy[i, 1] * 0.5 - lo[1] * 0.5) / 3.5)) == r
            assert int(np.floor((cloud.xy[i, 0] * 0.5 - lo[0] * 0.5) / 3.5)) == c


def test_index_rejects_nonpositive_bin():
    with pytest.raises(ValueError):
        build_index(make_cloud([(0, 0, 0)]), 0.0)


def test_index_rejects_bins_beyond_int64():
    # 1e10 / 1e-300 overflows float64: that bin is inf, rejected without a
    # warning. The error names the caller's bin size, not half of it.
    for far, size in ((1e300, 1.0), (4e12, 1.0), (1e10, 1e-300)):
        cloud = make_cloud([(0.0, 0.0, 0), (far, far, 1)])
        with pytest.raises(GridOverflow, match="int64") as err:
            build_index(cloud, size)
        assert f"of size {size!r} " in str(err.value)
    cloud = make_cloud([(0.0, 0.0, 0), (1e9, 1e9, 1)])
    assert bin_members(build_index(cloud, 1.0), cloud, 1.0)[(10**9, 10**9)] == [1]


def test_index_and_counts_of_an_empty_cloud():
    cloud = CellCloud(xy=np.empty((0, 2)), types=np.empty(0, np.uint8))
    index = build_index(cloud, 1.0)
    assert len(index) == 0 and index.bin_ids.size == 0
    assert count_in_radii(index, [1.0, 2.0]).counts.shape == (0, 2, 3)


@pytest.mark.parametrize("side", [1 << 6, 1 << 10, 1 << 20, 1 << 30])
def test_index_order_is_the_stable_sort_of_bin_ids(side):
    # side x side bins of raw size 1 from the corner (0, 0): ids of 12, 20,
    # 40 and 60 bits, so the radix sort makes 1, 2, 3 and 4 passes
    rng = np.random.Generator(np.random.Philox(side))
    cells = rng.integers(0, side, size=(300, 2))
    cells[:2] = [[0, 0], [side - 1, side - 1]]  # the grid's corners
    cells[2:60, 0] = cells[2, 0]  # one column: ids equal in their low 16 bits
    pick = rng.integers(0, 300, size=5000)  # every id many times over
    pick[:2] = [0, 1]
    rng.shuffle(pick)
    xy = cells[pick].astype(np.float64)
    packed = cells[pick, 1] * side + cells[pick, 0]
    idx = build_index(CellCloud(xy=xy, types=np.zeros(xy.shape[0], np.uint8)), 1.0)
    assert idx._n_cols == side
    assert np.array_equal(idx.order, np.argsort(packed, kind="stable"))
    assert np.array_equal(idx.bin_ids, np.unique(packed))


# ---------------------------------------------------------------------------
# count_in_radii
# ---------------------------------------------------------------------------


def test_counts_tiny_hand_case():
    # cell 1 is 3px right of cell 0; cell 2 is 4px above cell 1 (5px from 0)
    cloud = make_cloud([(0, 0, 0), (3, 0, 1), (3, 4, 1)])
    idx = build_index(cloud, bin_size=5.0)
    nc = count_in_radii(idx, [3.0, 5.0])
    # cell 0: r=3 sees cell 1 (type 1); r=5 adds cell 2 (boundary inclusive)
    assert nc.counts[0].tolist() == [[0, 1, 0], [0, 2, 0]]
    # cell 1: r=3 sees cell 0 (t0); r=5 adds cell 2 (distance 4)
    assert nc.counts[1].tolist() == [[1, 0, 0], [1, 1, 0]]
    # cell 2: r=3 nothing, r=5 both others? distance to 0 is 5 -> inclusive
    assert nc.counts[2].tolist() == [[0, 0, 0], [1, 1, 0]]


def test_counts_boundary_inclusive_and_self_excluded():
    cloud = make_cloud([(0, 0, 2), (5, 0, 2)])
    idx = build_index(cloud, bin_size=2.0)
    nc = count_in_radii(idx, [5.0])
    assert nc.counts[0, 0].tolist() == [0, 0, 1]
    assert nc.counts[1, 0].tolist() == [0, 0, 1]
    below = count_in_radii(idx, [4.999999])
    assert below.counts.sum() == 0


def test_counts_duplicate_positions():
    # three coincident cells: each sees the other two, not itself
    cloud = make_cloud([(1, 1, 0), (1, 1, 0), (1, 1, 1)])
    idx = build_index(cloud, bin_size=1.0)
    nc = count_in_radii(idx, [0.5])
    assert nc.counts[0, 0].tolist() == [1, 1, 0]
    assert nc.counts[1, 0].tolist() == [1, 1, 0]
    assert nc.counts[2, 0].tolist() == [2, 0, 0]


def test_counts_pair_at_a_computed_distance_of_exactly_r():
    # 2 - 0.99999999999999989 is 1 + 2**-53, which rounds to 1 = r: the
    # oracle counts the pair, though the cells sit two bins of side r apart.
    cloud = make_cloud([(0.99999999999999989, 0.0, 0), (2.0, 0.0, 0)])
    nc = count_in_radii(build_index(cloud, 1.0), [1.0])
    assert np.array_equal(nc.counts, count_reference(cloud.xy, cloud.types, [1.0]))
    assert nc.counts[:, 0, 0].tolist() == [1, 1]


def near(x, n=3):
    """The floats within n spacings of x."""
    below = above = x
    out = [x]
    for _ in range(n):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


@pytest.mark.parametrize("offset", [0.0, 1e6, 2.0**40])
@pytest.mark.parametrize("per_r", [1, 3])
def test_counts_exact_at_bin_edges(offset, per_r):
    # Every pair of floats a few spacings either side of a bin edge and r
    # further on whose computed distance is exactly r, on a row and a column
    # through the lowest cell at ``offset``. Edges lie at multiples of the
    # bin size (r or r/3) from 0 and from ``offset``. r is the power of two
    # above the offset, so a cell just below r and its partner lie in
    # different binades and their distance can round down to r.
    r = 2.0 ** (math.floor(math.log2(max(offset, 1.0))) + 1)
    size = r / per_r
    xs = [offset]
    for edge in {k * size for k in range(1, 7)} | {offset + k * size for k in range(1, 4)}:
        for p in near(edge):
            partners = [q for q in near(p + r) if abs(q - p) == r]
            xs += partners + [p] * bool(partners)
    line = np.column_stack([xs, np.full(len(xs), offset)])
    xy = np.vstack([line, line[:, ::-1]])
    cloud = CellCloud(xy=xy, types=(np.arange(len(xy)) % 3).astype(np.uint8))
    radii = [r / 2, r]
    nc = count_in_radii(build_index(cloud, size), radii)
    assert np.array_equal(nc.counts, count_reference(cloud.xy, cloud.types, radii))


@given(seeds, st.integers(2, 150), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_counts_match_brute_random(seed, n, n_d):
    rng = np.random.Generator(np.random.Philox(seed))
    cloud = random_cloud(rng, n, extent=60.0)
    radii = np.cumsum(rng.uniform(1.0, 8.0, size=n_d))
    idx = build_index(cloud, bin_size=float(radii[-1]))
    fast = count_in_radii(idx, radii)
    assert np.array_equal(fast.counts, count_reference(cloud.xy, cloud.types, radii))


@given(seeds, st.integers(2, 120))
@settings(max_examples=40, deadline=None)
def test_counts_match_brute_lattice_ties(seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    cloud = lattice_cloud(rng, n)
    radii = [3.0, 4.2426406871192855, 6.0]  # hits exact lattice distances
    idx = build_index(cloud, bin_size=2.5)
    fast = count_in_radii(idx, radii)
    assert np.array_equal(fast.counts, count_reference(cloud.xy, cloud.types, radii))


def test_counts_with_overflowing_d2_warn_nothing():
    # 1.5e154 squares past float64: that d2 is inf, beyond every radius,
    # and the count raises no overflow warning (warnings fail the suite).
    cloud = make_cloud([(0.0, 0.0, 0), (1.5e154, 0.0, 1), (5.0, 5.0, 2)])
    radii = [4e153, 8e153, 1.2e154]
    fast = count_in_radii(build_index(cloud, bin_size=radii[-1]), radii)
    with np.errstate(over="ignore"):  # the oracle's d2 overflows too
        want = count_reference(cloud.xy, cloud.types, radii)
    assert np.array_equal(fast.counts, want)


def test_counts_small_bins_vs_large_bins():
    rng = np.random.Generator(np.random.Philox(17))
    cloud = random_cloud(rng, 200, extent=100.0)
    radii = [4.0, 9.0]
    a = count_in_radii(build_index(cloud, bin_size=1.3), radii)
    b = count_in_radii(build_index(cloud, bin_size=40.0), radii)
    assert np.array_equal(a.counts, b.counts)


def test_counts_threads_bitwise_equal():
    rng = np.random.Generator(np.random.Philox(23))
    cloud = random_cloud(rng, 5000, extent=500.0)
    idx = build_index(cloud, bin_size=10.0)
    one = count_in_radii(idx, [5.0, 10.0], threads=1)
    four = count_in_radii(idx, [5.0, 10.0], threads=4)
    assert np.array_equal(one.counts, four.counts)


def test_counts_cumulative_monotone():
    rng = np.random.Generator(np.random.Philox(29))
    cloud = random_cloud(rng, 300, extent=80.0)
    idx = build_index(cloud, bin_size=6.0)
    nc = count_in_radii(idx, [2.0, 4.0, 6.0])
    assert np.all(np.diff(nc.counts.astype(np.int64), axis=1) >= 0)


def test_counts_radii_validation():
    idx = build_index(make_cloud([(0, 0, 0), (1, 1, 1)]), 1.0)
    bad_radii = (
        [], [3.0, 2.0], [-1.0, 2.0], [0.0, 1.0], [1.0, 1.0],
        [1.0, np.inf], [np.inf, np.inf], [np.nan, 1.0], [1.0, 1e155],
    )
    for radii in bad_radii:
        with pytest.raises(ValueError, match="radii must"):
            count_in_radii(idx, radii)


def test_counts_permutation_equivariant():
    rng = np.random.Generator(np.random.Philox(31))
    cloud = random_cloud(rng, 120, extent=50.0)
    perm = rng.permutation(120)
    permuted = cloud.subset(perm)
    radii = [3.0, 7.0]
    a = count_in_radii(build_index(cloud, 7.0), radii)
    b = count_in_radii(build_index(permuted, 7.0), radii)
    assert np.array_equal(a.counts[perm], b.counts)


@pytest.mark.parametrize("threads", [1, 2])
def test_counts_in_small_pair_batches_match_oracle(monkeypatch, threads):
    # Batches of a few pairs, and chunks of a few queries to spread over threads.
    monkeypatch.setattr(spatial, "_PAIR_BATCH", 5)
    monkeypatch.setattr(spatial, "_QUERY_CHUNK", 32)
    rng = np.random.Generator(np.random.Philox(41))
    for _ in range(3):
        cloud = random_cloud(rng, 150, extent=60.0)
        radii = np.cumsum(rng.uniform(1.0, 8.0, size=3))
        nc = count_in_radii(build_index(cloud, float(radii[-1])), radii, threads=threads)
        assert np.array_equal(nc.counts, count_reference(cloud.xy, cloud.types, radii))
        lattice = lattice_cloud(rng, 120)
        radii = [3.0, 4.2426406871192855, 6.0]
        nc = count_in_radii(build_index(lattice, 2.5), radii, threads=threads)
        assert np.array_equal(nc.counts, count_reference(lattice.xy, lattice.types, radii))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_counts_walk_bin_order_into_input_rows(monkeypatch, threads):
    # Chunks of a few cells cut through bins and spread over the threads,
    # which switch often; a random permutation of the cells must permute the
    # counts and nothing else.
    monkeypatch.setattr(spatial, "_QUERY_CHUNK", 16)
    rng = np.random.Generator(np.random.Philox(47))
    radii = [3.0, 4.2426406871192855, 6.0]  # exact lattice distances
    clouds = [
        lattice_cloud(rng, 150),  # 16 sites: coincident cells of every type
        lattice_cloud(rng, 200, pitch=12),
        random_cloud(rng, 200, extent=40.0),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cloud in clouds:
            want = count_reference(cloud.xy, cloud.types, radii)
            perm = rng.permutation(cloud.n_total)
            for bin_size in (2.5, 6.0):
                base = count_in_radii(build_index(cloud, bin_size), radii, threads=threads)
                index = build_index(cloud.subset(perm), bin_size)
                moved = count_in_radii(index, radii, threads=threads)
                assert np.array_equal(base.counts, want)
                assert np.array_equal(moved.counts, base.counts[perm])
    finally:
        sys.setswitchinterval(interval)


def test_count_memory_bounded_when_cells_share_a_bin(monkeypatch):
    # 1,000 cells in one bin are a million (query, candidate) pairs; expanded
    # all at once they take tens of MB, in batches of 4,096 well under one.
    monkeypatch.setattr(spatial, "_PAIR_BATCH", 4096)
    rng = np.random.Generator(np.random.Philox(43))
    cloud = random_cloud(rng, 1000, extent=1.0)
    index = build_index(cloud, bin_size=2.0)
    tracemalloc.start()
    try:
        nc = count_in_radii(index, [0.5, 2.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (nc.counts[:, -1].sum(axis=1) == 999).all()
    assert peak < 4 << 20, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# bounded candidate expansion
# ---------------------------------------------------------------------------


@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(-40, 40)), max_size=40),
    st.integers(1, 30),
)
@example([], 4)
@example([(0, 5), (0, -1), (0, 0)], 4)
@example([(0, 3), (2, 7), (0, 0), (1, -2)], 4)
@settings(max_examples=200, deadline=None)
def test_ragged_batches_bounded_and_complete(rows_in, limit):
    lens = np.array([n for n, _ in rows_in], dtype=np.int64)
    base = np.array([b for _, b in rows_in], dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spatial, "_PAIR_BATCH", limit)
        batches = list(spatial._ragged(lens, base))
    for row, pos in batches:
        assert row.size > 0 and pos.shape == row.shape
        assert row.size <= limit or (row == row[0]).all()
    rows = [int(r) for row, _ in batches for r in row]
    positions = [int(p) for _, pos in batches for p in pos]
    assert rows == [i for i, (n, _) in enumerate(rows_in) for _ in range(n)]
    assert positions == [b + p for n, b in rows_in for p in range(n)]


# ---------------------------------------------------------------------------
# the grid walk
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.one_of(st.none(), st.tuples(*[st.integers(0, 2)] * 4)),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([None, 1, 4, 16]),
    st.data(),
)
@example(n_rows=1, n_cols=5, reach=(1, 1, 1, 1), clip=False, offset=0, batch=None, data=None)
@example(n_rows=5, n_cols=1, reach=(2, 2, 2, 2), clip=False, offset=-3, batch=None, data=None)
@example(n_rows=3, n_cols=4, reach=(0, 1, 1, 0), clip=True, offset=2, batch=1, data=None)
@settings(max_examples=200, deadline=None)
def test_ring_pairs_yield_each_ring_pair_once(n_rows, n_cols, reach, clip, offset, batch, data):
    # Cells on a small grid of bins of raw side 2, the first and last of its
    # rows and columns always occupied. Each bin of the chunk [s, e) reads
    # a box reaching 0 to 2 bins out on each side, ``reach`` = (left, down,
    # right, up) for all bins or drawn per bin, so 1 to 5 bins wide, clipped
    # to the grid or not. Each bin-order cell in [s, e) must meet every cell
    # in its bin's box exactly once. A row run that is not clipped to the
    # grid's columns wraps into the next row.
    if data is None:  # an explicit example: every bin of the grid holds a cell
        bins = [(r, c) for r in range(n_rows) for c in range(n_cols)] * 2
        s, e = 0, len(bins)
    else:
        bins = [(0, 0), (n_rows - 1, n_cols - 1)] + data.draw(
            st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)), max_size=30)
        )
        s = data.draw(st.integers(0, len(bins) - 1))
        e = data.draw(st.integers(s + 1, len(bins)))
    rc = np.array(bins)
    frac = np.linspace(0.0, 0.999, len(bins))
    xy = np.column_stack((rc[:, 1] + offset + frac, rc[:, 0] + offset + frac)) * 2.0
    index = build_index(CellCloud(xy=xy, types=np.zeros(len(bins), np.uint8)), 2.0)
    bin_row, bin_col, q_bin, first = spatial._chunk_bins(index, s, e)
    # ``first``: where each bin's cells begin, as offsets from s
    assert np.array_equal(first, np.flatnonzero(np.diff(q_bin, prepend=-1)))
    if reach is None:
        sides = st.tuples(*[st.integers(0, 2)] * 4)
        out = np.array(data.draw(st.lists(sides, min_size=bin_row.size, max_size=bin_row.size)))
    else:
        out = np.tile(reach, (bin_row.size, 1))
    box = np.column_stack((bin_col, bin_row, bin_col, bin_row)) + out * [-1, -1, 1, 1]
    if clip:
        box = np.clip(box, 0, [n_cols - 1, n_rows - 1] * 2)
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr(spatial, "_PAIR_BATCH", batch)
        got = Counter()
        for row, cand in spatial._ring_pairs(index, bin_row, q_bin, box):
            assert (np.diff(row) >= 0).all()
            got.update(zip(index.order[s + row].tolist(), index.order[cand].tolist()))
    want = Counter()
    for p in range(s, e):
        c0, r0, c1, r1 = box[q_bin[p - s]]
        i = index.order[p]
        inside = (c0 <= rc[:, 1]) & (rc[:, 1] <= c1) & (r0 <= rc[:, 0]) & (rc[:, 0] <= r1)
        want.update((int(i), int(j)) for j in np.flatnonzero(inside))
    assert got == want


@given(seeds, st.integers(1, 60), st.booleans(), st.sampled_from([None, 1, 16]))
@settings(max_examples=100, deadline=None)
def test_close_pairs_yield_each_close_pair_once(seed, n, far, batch):
    # Lattice points, coincident ones among them, with half-widths that tie,
    # differ and are 0, and perhaps one point beyond 2**30 bins: every pair
    # within the larger of its two half-widths on both axes comes once, as
    # (i, j) with i < j, and no pair comes twice.
    rng = np.random.Generator(np.random.Philox(seed))
    xy = rng.integers(0, 8, size=(n, 2)).astype(np.float64)
    if far:
        xy[0] = 1e12
    half = rng.choice([0.0, 1.0, 1.5, 4.0], size=n)
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr(spatial, "_PAIR_BATCH", batch)
        got = Counter()
        for i, j in spatial._close_pairs(xy, half):
            got.update(zip(i.tolist(), j.tolist()))
    assert max(got.values(), default=1) == 1 and all(i < j for i, j in got)
    apart = np.abs(xy[:, None] - xy[None, :]).max(axis=2)
    near = np.triu(apart <= np.maximum(half[:, None], half[None, :]), 1)
    assert set(zip(*(a.tolist() for a in np.nonzero(near)))) <= set(got)


# ---------------------------------------------------------------------------
# mean nearest neighbor distance
# ---------------------------------------------------------------------------


def test_mean_nn_needs_two_cells():
    with pytest.raises(TooFewCells):
        mean_nn_distance(make_cloud([(0, 0, 0)]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mean_nn_rejects_non_finite_points(bad):
    cloud = make_cloud([(0.0, 0.0, 0), (1.0, bad, 1), (2.0, 2.0, 2)])
    with pytest.raises(ValueError, match="finite"):
        mean_nn_distance(cloud)


def test_mean_nn_hand_value():
    # nearest distances: 1 (0->1), 1 (1->0), 3 (2->1) -> mean 5/3
    cloud = make_cloud([(0, 0, 0), (1, 0, 0), (4, 0, 0)])
    assert mean_nn_distance(cloud) == pytest.approx(5.0 / 3.0, rel=1e-15)


@given(seeds, st.integers(2, 200))
@settings(max_examples=40, deadline=None)
def test_mean_nn_matches_brute(seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    cloud = random_cloud(rng, n, extent=100.0)
    assert mean_nn_distance(cloud) == nn_mean_reference(cloud.xy)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_mean_nn_on_threads_matches_brute(monkeypatch, threads):
    # Chunks of 32 points, so that up to three workers really run.
    monkeypatch.setattr(spatial, "_QUERY_CHUNK", 32)
    rng = np.random.Generator(np.random.Philox(53))
    for cloud in (lattice_cloud(rng, 150), lattice_cloud(rng, 200, pitch=12),
                  random_cloud(rng, 200, extent=40.0)):
        assert mean_nn_distance(cloud, threads=threads) == nn_mean_reference(cloud.xy)


@pytest.mark.parametrize("chunk, workers", [(65536, 1), (100, 3)])
def test_mean_nn_workers_bounded_by_chunks(monkeypatch, chunk, workers):
    # The pool records the workers asked for and refuses more than one per
    # chunk before any thread starts, so a huge thread count starts no more
    # threads than there are chunks, and a cloud of one chunk starts none.
    seen = []

    class Recording(spatial.ThreadPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            assert max_workers <= -(-cloud.n_total // spatial._QUERY_CHUNK)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(spatial, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(spatial, "_QUERY_CHUNK", chunk)
    cloud = random_cloud(np.random.Generator(np.random.Philox(59)), 300, extent=100.0)
    assert mean_nn_distance(cloud, threads=10**6) == nn_mean_reference(cloud.xy)
    assert seen == ([workers] if workers > 1 else [])


# ---------------------------------------------------------------------------
# farthest point sampling
# ---------------------------------------------------------------------------


# fps's round size, hot-set factor, grid density and batch sizes, shrunk so
# that clouds of at most 60 points reach every branch of the rounds: one
# candidate a round, ties left out of a round, hot sets rebuilt, and pair
# batches cut inside one row of a square.
FPS_LIMITS = ("_ROUND", "_HOT", "_PER_BIN", "_CACHE_BATCH", "_PAIR_BATCH")
fps_limits = st.none() | st.fixed_dictionaries({name: st.integers(1, 3) for name in FPS_LIMITS})


def fps_with(limits, *args):
    """``fps(*args)`` with the module constants in ``limits`` swapped in."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (limits or {}).items():
            mp.setattr(spatial, name, value)
        return fps(*args)


@given(seeds, st.integers(1, 60), st.booleans(), fps_limits)
@settings(max_examples=50, deadline=None)
def test_fps_matches_brute(seed, m, with_labels, limits):
    rng = np.random.Generator(np.random.Philox(seed))
    xy = rng.uniform(0.0, 50.0, size=(m, 2))
    labels = rng.integers(0, 3, size=m).astype(np.uint8) if with_labels else None
    gamma = float(rng.uniform(0.0, 10.0)) if with_labels else 0.0
    n = int(rng.integers(1, m + 1))
    want = fps_reference(xy, labels, n, gamma)
    assert np.array_equal(fps_with(limits, xy, labels, n, gamma), want)


@given(seeds, st.integers(1, 40), fps_limits)
@settings(max_examples=40, deadline=None)
def test_fps_lattice_ties_match_brute(seed, m, limits):
    rng = np.random.Generator(np.random.Philox(seed))
    xy = rng.integers(0, 4, size=(m, 2)).astype(np.float64)
    labels = rng.integers(0, 3, size=m).astype(np.uint8)
    n = int(rng.integers(1, m + 1))
    assert np.array_equal(fps_with(limits, xy, labels, n, 2.0), fps_reference(xy, labels, n, 2.0))


@given(
    seeds,
    st.floats(1e5, 3e7),
    st.floats(1e-3, 10.0),
    st.integers(1, 60),
    st.sampled_from([0.0, 1e-12, 1.0, 50.0]),
    st.sampled_from(["none", "all", "part"]),
    st.booleans(),
    fps_limits,
)
@settings(max_examples=80, deadline=None)
def test_fps_slide_scale_ties_match_brute(seed, offset, spacing, m, gamma, labelled, full, limits):
    # Slide-sized coordinates on a small integer lattice: repeated sites are
    # exact duplicates and many min distances tie, so square edges land on
    # points. Gamma is in units of the spacing; "part" gives one label to a
    # band of the cloud and another to the rest.
    rng = np.random.Generator(np.random.Philox(seed))
    site = rng.integers(0, 6, size=(m, 2))
    xy = offset + site * spacing
    labels = None
    if labelled == "all":
        labels = rng.integers(0, 3, size=m).astype(np.uint8)
    elif labelled == "part":
        labels = np.where(site[:, 0] < 2, 2, 0).astype(np.uint8)
    g = gamma * spacing if labels is not None else 0.0
    n = m if full else int(rng.integers(1, m + 1))
    assert np.array_equal(fps_with(limits, xy, labels, n, g), fps_reference(xy, labels, n, g))


@given(seeds, st.integers(1, 50), st.integers(4, 60), fps_limits)
@settings(max_examples=40, deadline=None)
def test_fps_more_labels_than_types_match_brute(seed, m, n_labels, limits):
    # int64 labels with more distinct values than there are cell types
    rng = np.random.Generator(np.random.Philox(seed))
    xy = rng.integers(0, 5, size=(m, 2)).astype(np.float64)
    labels = rng.integers(0, n_labels, size=m).astype(np.int64)
    n = int(rng.integers(1, m + 1))
    assert np.array_equal(fps_with(limits, xy, labels, n, 1.5), fps_reference(xy, labels, n, 1.5))


def test_fps_all_points_coincident_slide_scale():
    xy = np.full((9, 2), [3e7, 1e5])
    labels = np.array([2, 0, 1, 0, 2, 1, 0, 0, 1], dtype=np.uint8)
    # A tiny gamma makes the largest min distance far smaller than the
    # spacing of floats at x = 3e7, so a square must still hold the pick.
    for limits in (None, *(dict.fromkeys(FPS_LIMITS, v) for v in (1, 2, 3))):
        for lab, gamma in ((None, 0.0), (labels, 0.0), (labels, 1e-12), (labels, 3.0)):
            for n in (1, 4, 9):
                got = fps_with(limits, xy, lab, n, gamma)
                assert np.array_equal(got, fps_reference(xy, lab, n, gamma))


@pytest.mark.parametrize("labelled", [False, True])
def test_fps_lattice_30x30_matches_brute(labelled):
    # Every point of a 30 x 30 lattice ties with many others at every step,
    # so rounds leave ties out at the default constants.
    gx, gy = np.meshgrid(np.arange(30.0), np.arange(30.0))
    xy = np.column_stack([gx.ravel(), gy.ravel()]) * 7.0
    labels = None
    if labelled:
        labels = np.random.Generator(np.random.Philox(3)).integers(0, 3, 900).astype(np.uint8)
    gamma = 7.0 if labelled else 0.0
    assert np.array_equal(fps(xy, labels, 300, gamma), fps_reference(xy, labels, 300, gamma))


def test_fps_integer_pixels_match_brute():
    # Detections at integer pixels: repeated x and y values, coincident cells
    # of different types, and many tied min distances.
    rng = np.random.Generator(np.random.Philox(17))
    xy = np.round(rng.uniform(0.0, 120.0, size=(700, 2)))
    types = rng.integers(0, 3, 700).astype(np.uint8)
    assert np.array_equal(fps(xy, types, 250, 4.0), fps_reference(xy, types, 250, 4.0))


@pytest.mark.filterwarnings("error")
def test_fps_overflowing_span_matches_brute():
    # The bounding box's width, and some d2, overflow to inf: the grid must
    # still bin every point, and a collinear cloud has one row of cells.
    # The library must not warn; only the oracles' overflows are silenced.
    rng = np.random.Generator(np.random.Philox(29))
    sites = np.array([-1.7e308, -1e300, -5.0, 0.0, 3.0, 1e-300, 1e300, 1.7e308])
    for case in range(40):
        xy = rng.choice(sites, size=(20, 2))
        if case % 2:
            xy[:, 1] = 2.0
        labels = rng.integers(0, 3, 20).astype(np.uint8)
        with np.errstate(over="ignore"):
            want = fps_reference(xy, labels, 20, 1.0)
            groups = {k: knn_reference(xy, xy, k) for k in (1, 5, 20)}
        assert np.array_equal(fps(xy, labels, 20, 1.0), want)
        for k, want in groups.items():
            assert np.array_equal(knn_group(xy, xy, k), want)


def test_fps_overflowing_penalty_warns_nothing():
    # A d2 near 1e308 plus the label penalty 2 * gamma**2 = 1.6e308 is past
    # float64: the sum is inf, as in the oracle, and the library warns nothing.
    rng = np.random.Generator(np.random.Philox(31))
    xy = rng.uniform(0.0, 100.0, size=(40, 2))
    xy[:20] *= 1e152
    labels = rng.integers(0, 3, 40).astype(np.uint8)
    with np.errstate(over="ignore"):
        want = fps_reference(xy, labels, 40, 9e153)
    assert np.array_equal(fps(xy, labels, 40, 9e153), want)


def test_fps_huge_gamma_matches_brute():
    # 2 * gamma**2 overflows to inf; same-label pairs must pay no penalty.
    rng = np.random.Generator(np.random.Philox(23))
    xy = rng.uniform(0.0, 50.0, size=(30, 2))
    labels = rng.integers(0, 3, 30).astype(np.uint8)
    for gamma in (1e200, np.inf):
        assert np.array_equal(fps(xy, labels, 30, gamma), fps_reference(xy, labels, 30, gamma))


def test_fps_rejects_nan_gamma():
    xy = np.arange(10.0).reshape(5, 2)
    with pytest.raises(ValueError, match="gamma"):
        fps(xy, np.zeros(5, np.uint8), 3, float("nan"))


@pytest.mark.parametrize("shape", [(49,), (60,), (50, 1)])
def test_fps_rejects_wrong_shaped_labels(shape):
    xy = np.random.Generator(np.random.Philox(5)).uniform(0.0, 10.0, size=(50, 2))
    with pytest.raises(ValueError, match=r"\(50,\)") as err:
        fps(xy, np.zeros(shape, np.uint8), 5, 1.0)
    assert str(shape) in str(err.value)


def test_fps_strip_edge_rounding():
    # Picks 0 and 1 leave points 2 and 4 tied at min d2 = 3.0 and point 3 at
    # fl(sqrt(3)**2) = 3 - 4.4e-16. Picking 2 at x = 0 must lower point 4 at
    # x = fl(sqrt(3)), exactly on the square's edge sqrt(3.0), to 3 - 4.4e-16 as
    # well, so that point 3 wins the tie by index.
    h = math.sqrt(3.0) / 2
    xy = np.array([[-100.0, -1000.0], [h, 1.5], [0.0, 0.0], [-h, 1.5], [2 * h, 0.0]])
    assert fps(xy, None, 5).tolist() == [0, 1, 2, 3, 4]
    assert np.array_equal(fps(xy, None, 5), fps_reference(xy, None, 5, 0.0))


@pytest.mark.parametrize("base", [3e7, 2.0**25, 1.0 - 2.0**25, 1e5])
@pytest.mark.parametrize("step", [1, 2, 3])
def test_fps_edges_at_float_spacing(base, step):
    # A 7 x 7 lattice of slide-scale points one to three float spacings
    # apart, with duplicate sites: the grid's bins are about a spacing wide,
    # and a pick's square edge falls within a few spacings of a point that
    # its pick must lower. A square whose edges moved inward by two
    # spacings would miss such points.
    u = np.spacing(abs(base))
    for seed in range(6):
        rng = np.random.Generator(np.random.Philox(seed))
        xy = base + rng.integers(0, 7, size=(40, 2)) * (step * u)
        labels = rng.integers(0, 3, 40).astype(np.uint8) if seed % 2 else None
        gamma = step * u if labels is not None else 0.0
        assert np.array_equal(fps(xy, labels, 40, gamma), fps_reference(xy, labels, 40, gamma))
        anchors = xy[:8] + np.repeat([[0.0, 0.0], [u, 0.0]], 4, axis=0)
        for k in (1, 5, 17):
            assert np.array_equal(knn_group(anchors, xy, k), knn_reference(anchors, xy, k))
        sites = np.unique(xy, axis=0)
        if sites.shape[0] > 1:
            cloud = CellCloud(xy=sites, types=np.zeros(sites.shape[0], np.uint8))
            assert mean_nn_distance(cloud) == nn_mean_reference(sites)


def test_fps_rejects_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        xy = np.array([[0.0, 0.0], [1.0, bad], [2.0, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            fps(xy, None, 2)


def test_fps_starts_at_lexicographic_min():
    xy = np.array([[5.0, 5.0], [1.0, 9.0], [1.0, 2.0], [3.0, 0.0]])
    assert fps(xy, None, 1)[0] == 2


def test_fps_label_breaks_start_tie():
    xy = np.array([[1.0, 2.0], [1.0, 2.0]])
    labels = np.array([1, 0], dtype=np.uint8)
    assert fps(xy, labels, 1, gamma=1.0)[0] == 1


def test_fps_full_sample_is_permutation():
    rng = np.random.Generator(np.random.Philox(41))
    xy = rng.uniform(0.0, 10.0, size=(30, 2))
    picks = fps(xy, None, 30)
    assert sorted(picks.tolist()) == list(range(30))


def test_fps_handles_coincident_points():
    xy = np.zeros((5, 2))
    picks = fps(xy, None, 5)
    assert sorted(picks.tolist()) == list(range(5))


def test_fps_spreads_first_picks():
    # a 10x10 square: after the corner start, the farthest point is the
    # opposite corner
    xy = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0], [5.0, 5.0]])
    picks = fps(xy, None, 2)
    assert picks.tolist() == [0, 3]


def test_fps_validates_args():
    xy = np.zeros((3, 2))
    with pytest.raises(ValueError):
        fps(xy, None, 4)
    with pytest.raises(ValueError):
        fps(xy, None, 2, gamma=-1.0)


def test_fps_semantic_gamma_prefers_other_labels():
    # clustered pair of label 0 and a mid-distance label-1 point: with a
    # large gamma the label-1 point wins the second pick
    xy = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 0.1]])
    labels = np.array([0, 0, 1], dtype=np.uint8)
    assert fps(xy, labels, 2, gamma=0.0).tolist() == [0, 1]
    assert fps(xy, labels, 2, gamma=20.0).tolist() == [0, 2]


# ---------------------------------------------------------------------------
# knn grouping
# ---------------------------------------------------------------------------


@given(seeds, st.integers(1, 60), st.integers(1, 20))
@settings(max_examples=50, deadline=None)
def test_knn_matches_brute(seed, n, a):
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.uniform(0.0, 30.0, size=(n, 2))
    anchors = rng.uniform(0.0, 30.0, size=(a, 2))
    k = int(rng.integers(1, n + 1))
    assert np.array_equal(knn_group(anchors, pts, k), knn_reference(anchors, pts, k))


@given(seeds, st.integers(1, 50))
@settings(max_examples=50, deadline=None)
def test_knn_lattice_ties_match_brute(seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.integers(0, 5, size=(n, 2)).astype(np.float64)
    anchors = rng.integers(0, 5, size=(4, 2)).astype(np.float64)
    k = int(rng.integers(1, n + 1))
    assert np.array_equal(knn_group(anchors, pts, k), knn_reference(anchors, pts, k))


@given(
    seeds,
    st.floats(1e5, 3e7),
    st.floats(1e-3, 10.0),
    st.integers(1, 60),
    st.integers(1, 8),
    st.sampled_from(["lattice", "outside", "far"]),
)
@settings(max_examples=80, deadline=None)
def test_knn_slide_scale_ties_match_brute(seed, offset, spacing, n, a, anchor_kind):
    # Slide-sized coordinates on a small integer lattice: repeated lattice
    # sites are exact duplicates, so the k-th distance often lands inside a
    # run of ties. Anchors sit on the lattice, off it past the hull, or far
    # outside the cloud.
    rng = np.random.Generator(np.random.Philox(seed))
    pts = offset + rng.integers(0, 6, size=(n, 2)) * spacing
    if anchor_kind == "lattice":
        anchors = offset + rng.integers(0, 6, size=(a, 2)) * spacing
    elif anchor_kind == "outside":
        anchors = offset + rng.uniform(-10.0, 16.0, size=(a, 2)) * spacing
    else:
        anchors = offset + rng.uniform(-1e4, 1e4, size=(a, 2)) * spacing
    k = int(rng.integers(1, n + 1))
    assert np.array_equal(knn_group(anchors, pts, k), knn_reference(anchors, pts, k))


def test_knn_kth_distance_inside_tie_run():
    pts = 3e7 + np.array([[0, 0], [1, 0], [0, 1], [1, 0], [0, 1], [2, 2], [1, 0]]) * 1e-3
    anchors = pts[[0, 1]]
    d2 = np.sort(((pts - anchors[0]) ** 2).sum(axis=1))
    for k in (2, 3, 4, 5):
        assert d2[k - 1] == d2[k]  # the cut falls inside a tie run
        assert np.array_equal(knn_group(anchors, pts, k), knn_reference(anchors, pts, k))


def test_knn_k_equals_n():
    rng = np.random.Generator(np.random.Philox(5))
    pts = 1e6 + rng.integers(0, 4, size=(30, 2)) * 0.5
    anchors = np.vstack([pts[:3], [[1e6 - 7.0, 1e6 + 3.0]]])
    got = knn_group(anchors, pts, 30)
    assert np.array_equal(got, knn_reference(anchors, pts, 30))
    assert (np.sort(got, axis=1) == np.arange(30)).all()


def test_knn_all_points_coincident():
    pts = np.full((9, 2), [3e7, 1e5])
    anchors = np.array([[3e7, 1e5], [3e7 + 2.0, 1e5 - 1.0]])
    for k in (1, 4, 9):
        got = knn_group(anchors, pts, k)  # the first anchor's k-th distance is 0
        assert np.array_equal(got, knn_reference(anchors, pts, k))
        assert (got == np.arange(k)).all()


def test_knn_candidate_batches(monkeypatch):
    # A lattice with many tied candidates, ranked in batches of a few anchors,
    # one anchor per batch when its candidates alone exceed the bound.
    monkeypatch.setattr(spatial, "_PAIR_BATCH", 40)
    rng = np.random.Generator(np.random.Philox(8))
    pts = 2e5 + rng.integers(0, 4, size=(60, 2)) * 0.25
    anchors = 2e5 + rng.integers(-1, 5, size=(25, 2)) * 0.25
    for k in (1, 7, 33, 60):
        assert np.array_equal(knn_group(anchors, pts, k), knn_reference(anchors, pts, k))


def widened_cloud():
    # 20 copies of one point beside a lattice of 0.5 pitch: at every anchor
    # the k nearest end inside a run of ties, on the copies or on a ring.
    # The last anchor lies far outside the cloud.
    site = 1e5 + np.indices((6, 6)).reshape(2, -1).T * 0.5
    pts = np.vstack([np.full((20, 2), site[14]), site])
    anchors = np.vstack([site[[14, 0, 35, 8]], site[14] + [0.25, 0.25], site[0] - 1e4])
    return anchors, pts


@pytest.mark.parametrize("k", [1, 2, 5, 16, 20, 21, 40, 56])
def test_knn_widens_uncertified_rows(monkeypatch, k):
    # A first reach of 100 expected k-th distances takes in the whole
    # lattice, so every anchor near it is certified at once; the far anchor
    # holds no point in its first square and is read again, alone, until
    # it is certified.
    monkeypatch.setattr(spatial, "_KNN_REACH", 100.0)
    passes = []
    boxes = spatial._boxes

    def recording(index, centre, half):
        passes.append(centre.shape[0])
        return boxes(index, centre, half)

    monkeypatch.setattr(spatial, "_boxes", recording)
    anchors, pts = widened_cloud()
    assert np.array_equal(knn_group(anchors, pts, k), knn_reference(anchors, pts, k))
    assert passes[0] == anchors.shape[0]
    assert len(passes) > 1 and set(passes[1:]) == {1}


@given(seeds, st.integers(1, 40), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_knn_coincident_copies_match_brute(seed, copies, n_other):
    rng = np.random.Generator(np.random.Philox(seed))
    other = rng.integers(0, 3, size=(n_other, 2)) * 0.75
    pts = rng.permutation(np.vstack([np.full((copies, 2), 0.75), other]))
    anchors = np.vstack([[0.75, 0.75], other[:3], [[0.5, 1.0]]])
    for k in {1, 2, copies, min(copies + 4, len(pts)), len(pts)}:
        assert np.array_equal(knn_group(anchors, pts, k), knn_reference(anchors, pts, k))


def test_knn_widening_memory_bounded_on_coincident_points():
    # 300 anchors over 3,000 coincident points certify only once each row
    # holds all 3,000 candidates; expanded all at once they take tens of MB.
    pts = np.full((3000, 2), 5.0)
    anchors = np.full((300, 2), 5.0)
    tracemalloc.start()
    try:
        got = knn_group(anchors, pts, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (got == np.arange(30)).all()
    candidate_bytes = 8 * spatial._PAIR_BATCH  # one int64 or float64 per candidate
    assert peak < 8 * candidate_bytes, f"peak {peak / 2**20:.1f} MB"


def test_knn_underflowing_distances_tie_at_zero():
    # 40 points 1e-165 px apart on a line: every d2 underflows to 0, so each
    # anchor's k nearest are the k smallest indices wherever it sits, and a
    # square must take in every point whose distance squares to 0.
    order = np.random.Generator(np.random.Philox(4)).permutation(40)
    xy = np.column_stack([order * 1e-165, np.zeros(40)])
    anchors = np.array([[0.0, 0.0], [20e-165, 0.0], [39e-165, 0.0]])
    for k in (1, 5, 40):
        assert np.array_equal(knn_group(anchors, xy, k), knn_reference(anchors, xy, k))


def test_knn_rows_sorted_by_distance_then_index():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    groups = knn_group(np.array([[0.0, 0.0]]), pts, 4)
    assert groups[0].tolist() == [0, 3, 1, 2]


def test_knn_k_bounds():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        knn_group(np.zeros((1, 2)), pts, 0)
    with pytest.raises(ValueError):
        knn_group(np.zeros((1, 2)), pts, 4)


# ---------------------------------------------------------------------------
# grids sized by occupancy, on awkward clouds
# ---------------------------------------------------------------------------


def awkward_clouds():
    """(name, xy, types) of clouds that a bounding-box-sized grid serves
    badly: one point far from 20,000 uniform ones, two sections 60,000 px
    apart, a 60 x 60 lattice, three coincident cells, one per type, at
    every site of a 30 x 30 lattice, and one point beyond 2**30 bins of
    the 20,000 uniform ones, which the grids clip while d2 stays finite."""
    rng = np.random.Generator(np.random.Philox(71))
    uniform = rng.uniform(0.0, 1414.0, size=(20_000, 2))
    section = rng.uniform(0.0, 700.0, size=(10_000, 2))
    section[5000:, 0] += 60_000.0
    sites = np.indices((30, 30)).reshape(2, -1).T * 7.0
    clouds = [
        ("far", np.vstack([uniform, [[1e6, 1e6]]])),
        ("sections", section),
        ("lattice", np.indices((60, 60)).reshape(2, -1).T * 7.0),
    ]
    out = [(name, xy, rng.integers(0, 3, xy.shape[0]).astype(np.uint8)) for name, xy in clouds]
    out.append(("triples", np.repeat(sites, 3, axis=0), np.tile(np.arange(3, dtype=np.uint8), 900)))
    clipped = np.vstack([uniform, [[1e12, 1e12]]])
    out.append(("clipped", clipped, rng.integers(0, 3, clipped.shape[0]).astype(np.uint8)))
    return out


@pytest.mark.parametrize("case", range(5))
def test_grids_match_brute_on_awkward_clouds(case):
    # Each query runs on the raw points and on one prebuilt grid over them,
    # which the forward pass shares between a level's queries.
    name, xy, types = awkward_clouds()[case]
    grid = spatial._grid(xy)
    want = nn_mean_reference(xy)
    assert mean_nn_distance(CellCloud(xy=xy, types=types)) == want, name
    assert spatial._nn_mean_xy(grid) == want, name
    n = 16 if xy.shape[0] > 5000 else 64
    for labels, gamma in ((types, 7.0), (None, 0.0)):
        want = fps_reference(xy, labels, n, gamma)
        for points in (xy, grid):
            got = fps(points, labels, n, gamma)
            assert np.array_equal(got, want), name
    rng = np.random.Generator(np.random.Philox(case))
    anchors = np.vstack([xy[got], rng.uniform(xy.min(), xy.max(), size=(4, 2))])
    for k in (1, 19, 40):
        want = knn_reference(anchors, xy, k)
        for points in (xy, grid):
            assert np.array_equal(knn_group(anchors, points, k), want), name


@pytest.mark.parametrize(
    "query",
    [
        lambda points, cloud: fps(points, cloud.types, 40, 3.0),
        lambda points, cloud: fps(points, None, 40),
        lambda points, cloud: knn_group(cloud.xy[::25] + 0.5, points, 7),
        lambda points, cloud: spatial._nn_mean_xy(points),
    ],
    ids=["fps_labelled", "fps", "knn", "nn_mean"],
)
def test_queries_on_a_counting_index_match_raw_points(query):
    # A counting index bins by the one map that every grid does, so the
    # mean-NN, fps and kNN answer the same on it, at any bin size, as on
    # the raw points.
    rng = np.random.Generator(np.random.Philox(79))
    for cloud in (random_cloud(rng, 500, extent=100.0), lattice_cloud(rng, 300, pitch=12)):
        want = query(cloud.xy, cloud)
        for bin_size in (0.5, 6.0, 1e3):
            assert np.array_equal(query(build_index(cloud, bin_size), cloud), want)


def test_far_outlier_costs_little():
    # One point 1e6 px out leaves the grids' bins sized by the 20,000 others,
    # and one 1e12 px out, beyond 2**30 bins, is clipped to the grid's far
    # bins: fps, kNN and mean-NN each run within 3x of their time without it.
    # One kNN anchor at (1e300, 1e300) reaches the points' box in one step,
    # not by doubling its reach, and costs no more.
    rng = np.random.Generator(np.random.Philox(71))
    plain = rng.uniform(0.0, 1414.0, size=(20_000, 2))
    types = rng.integers(0, 3, 20_001).astype(np.uint8)

    def best_of_3(f):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            f()
            times.append(time.perf_counter() - t0)
        return min(times)

    def runs(xy):
        anchors = xy[fps(xy, types[: xy.shape[0]], 2048, 5.0)]
        return (
            best_of_3(lambda: fps(xy, types[: xy.shape[0]], 2048, 5.0)),
            best_of_3(lambda: knn_group(anchors, xy, 19)),
            best_of_3(lambda: mean_nn_distance(CellCloud(xy=xy, types=types[: xy.shape[0]]))),
        )

    times = runs(plain)
    far_anchor = np.array([[1e300, 1e300]])
    anchors = np.vstack([plain[fps(plain, types[:20_000], 2048, 5.0)], far_anchor])
    t_anchor = best_of_3(lambda: knn_group(anchors, plain, 19))
    assert t_anchor < 3 * times[1], f"knn: {t_anchor:.4f} s with the far anchor, {times[1]:.4f} s without"
    with np.errstate(over="ignore"):  # the oracle's d2 to it are all inf
        want = knn_reference(far_anchor, plain, 19)
    assert np.array_equal(knn_group(far_anchor, plain, 19), want)
    for far in ([[1e6, 1e6]], [[1e12, 1e12]]):
        far_times = runs(np.vstack([plain, far]))
        for name, t_plain, t_far in zip(("fps", "knn", "mean-NN"), times, far_times):
            assert t_far < 3 * t_plain, f"{name}: {t_far:.4f} s with {far}, {t_plain:.4f} s without"
