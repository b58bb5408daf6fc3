import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellcloud import nie, spatial
from cellcloud.core import N_TYPES, CellCloud, TooFewCells
from cellcloud.nie import (
    DegenerateScale,
    NieParams,
    _embedding,
    embed,
    radii_schedule,
)
from cellcloud.spatial import NeighborCounts, build_index, count_in_radii, mean_nn_distance

from conftest import make_cloud, random_cloud

seeds = st.integers(0, 2**32 - 1)


def cumulative_counts(rng, n, n_d=3, hi=6):
    """Random well-formed cumulative counts: non-decreasing along shells."""
    shells = rng.integers(0, hi, size=(n, n_d, N_TYPES))
    return NeighborCounts(
        radii=np.arange(1.0, n_d + 1.0),
        counts=np.cumsum(shells, axis=1).astype(np.uint32),
    )


def local_density(nc):
    """The embedding's local block: shells over the cell's own outermost count."""
    w = N_TYPES * nc.n_radii
    return _embedding(nc, np.zeros(nc.n_cells, np.uint8))[:, :w]


def global_density(nc):
    """The embedding's global block: shells over the cloud-wide outermost maximum."""
    w = N_TYPES * nc.n_radii
    return _embedding(nc, np.zeros(nc.n_cells, np.uint8))[:, w : 2 * w]


def density_oracle(nc):
    """Straight-line per-element evaluation of both normalizations.

    Returns (f_ld, f_gd) laid out type-major: for each cell the n_d shell
    values of type 0, then type 1, then type 2.
    """
    n, n_d, _ = nc.counts.shape
    c = np.asarray(nc.counts, dtype=np.float64)
    ld = np.zeros((n, N_TYPES * n_d))
    gd = np.zeros((n, N_TYPES * n_d))
    for i in range(n):
        for t in range(N_TYPES):
            outer = c[i, n_d - 1, t]
            global_max = max(c[q, n_d - 1, t] for q in range(n))
            for j in range(n_d):
                shell = c[i, j, t] - (c[i, j - 1, t] if j > 0 else 0.0)
                col = t * n_d + j
                if outer > 0:
                    ld[i, col] = shell / outer
                if global_max > 0:
                    gd[i, col] = shell / global_max
    return ld.astype(np.float32), gd.astype(np.float32)


# ---------------------------------------------------------------------------
# Parameters and radius schedule
# ---------------------------------------------------------------------------


def test_params_defaults():
    p = NieParams()
    assert p.lambda_r == 4.0
    assert p.n_d == 3


def test_params_validation():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            NieParams(lambda_r=bad)
    with pytest.raises(ValueError):
        NieParams(n_d=0)


def test_schedule_hand_values():
    assert np.array_equal(radii_schedule(3.0), [4.0, 8.0, 12.0])
    assert radii_schedule(3.0).dtype == np.float64
    assert np.array_equal(radii_schedule(1.0, NieParams(lambda_r=1, n_d=1)), [1.0])
    assert np.allclose(radii_schedule(2.5), [10 / 3, 20 / 3, 10.0], rtol=1e-15)


def test_schedule_rejects_bad_d_mean():
    # finite scales whose outer radius, or its square, overflows float64
    for bad in (0.0, -2.0, np.nan, np.inf, 1e308, 1e154):
        with pytest.raises(DegenerateScale):
            radii_schedule(bad)
    radii = radii_schedule(1e153)
    assert np.isfinite(radii * radii).all()


def test_degenerate_cloud_scale_is_coded():
    for rows in [[(1, 1, 0), (1, 1, 1), (1, 1, 2)], [(0, 0, 0), (5, 5, 2), (1e300, 1e300, 0)]]:
        with pytest.raises(DegenerateScale) as exc:
            embed(make_cloud(rows))
        assert exc.value.error_code == "degenerate_scale"


@settings(deadline=None)
@given(
    st.floats(1e-3, 1e3),
    st.floats(1e-2, 64.0),
    st.integers(1, 8),
)
def test_schedule_uniform_spacing(d_mean, lambda_r, n_d):
    radii = radii_schedule(d_mean, NieParams(lambda_r=lambda_r, n_d=n_d))
    assert radii.shape == (n_d,)
    assert np.isclose(radii[-1], lambda_r * d_mean, rtol=1e-12)
    expected = np.arange(1, n_d + 1) * (lambda_r * d_mean) / n_d
    assert np.array_equal(radii, expected)


# ---------------------------------------------------------------------------
# Local density
# ---------------------------------------------------------------------------


def test_local_density_all_mass_in_first_shell():
    counts = np.zeros((1, 3, N_TYPES), np.uint32)
    counts[0, :, 1] = [5, 5, 5]
    f = local_density(NeighborCounts(radii=np.array([1.0, 2.0, 3.0]), counts=counts))
    assert np.array_equal(f[0, 3:6], [1.0, 0.0, 0.0])
    assert np.array_equal(f[0, 0:3], [0.0, 0.0, 0.0])
    assert np.array_equal(f[0, 6:9], [0.0, 0.0, 0.0])


def test_local_density_zero_denominator_is_zero_block():
    counts = np.zeros((2, 3, N_TYPES), np.uint32)
    counts[1, :, 0] = [1, 1, 2]
    f = local_density(NeighborCounts(radii=np.array([1.0, 2.0, 3.0]), counts=counts))
    assert np.array_equal(f[0], np.zeros(9))
    assert np.isfinite(f).all()


def test_local_density_telescoping_shells():
    counts = np.zeros((1, 3, N_TYPES), np.uint32)
    counts[0, :, 2] = [2, 3, 6]
    f = local_density(NeighborCounts(radii=np.array([1.0, 2.0, 3.0]), counts=counts))
    assert np.allclose(f[0, 6:9], [2 / 6, 1 / 6, 3 / 6], atol=1e-7)


@settings(deadline=None)
@given(seeds, st.integers(1, 30), st.integers(1, 5))
def test_local_density_blocks_sum_to_one_or_zero(seed, n, n_d):
    rng = np.random.Generator(np.random.Philox(seed))
    nc = cumulative_counts(rng, n, n_d=n_d)
    f = local_density(nc)
    assert f.dtype == np.float32
    for t in range(N_TYPES):
        block_sum = f[:, t * n_d : (t + 1) * n_d].sum(axis=1)
        has_neighbors = nc.counts[:, -1, t] > 0
        assert np.allclose(block_sum[has_neighbors], 1.0, atol=1e-6)
        assert np.array_equal(block_sum[~has_neighbors], np.zeros((~has_neighbors).sum()))


# ---------------------------------------------------------------------------
# Global density
# ---------------------------------------------------------------------------


def test_global_density_max_cell_sums_to_one():
    counts = np.zeros((3, 3, N_TYPES), np.uint32)
    counts[0, :, 0] = [2, 2, 4]
    counts[0, :, 1] = [0, 1, 1]
    counts[1, :, 0] = [1, 3, 5]
    counts[1, :, 1] = [1, 1, 1]
    counts[2, :, 1] = [0, 0, 2]
    f = global_density(NeighborCounts(radii=np.array([1.0, 2.0, 3.0]), counts=counts))
    # type 0: global max outermost is 5 (cell 1); type 1: 2 (cell 2); type 2: absent
    assert np.array_equal(f[0, 0:3], np.array([2 / 5, 0, 2 / 5], np.float32))
    assert np.array_equal(f[1, 0:3], np.array([1 / 5, 2 / 5, 2 / 5], np.float32))
    assert np.isclose(f[1, 0:3].sum(), 1.0, atol=1e-6)
    assert np.array_equal(f[0, 3:6], [0.0, 0.5, 0.0])
    assert np.array_equal(f[2, 3:6], [0.0, 0.0, 1.0])
    assert np.array_equal(f[:, 6:9], np.zeros((3, 3)))


def test_global_density_isolated_cell_row_is_zero():
    counts = np.zeros((2, 2, N_TYPES), np.uint32)
    counts[1, :, 0] = [3, 3]
    f = global_density(NeighborCounts(radii=np.array([1.0, 2.0]), counts=counts))
    assert np.array_equal(f[0], np.zeros(6))


@settings(deadline=None)
@given(seeds, st.integers(1, 30), st.integers(1, 5))
def test_global_density_bounds_and_peak(seed, n, n_d):
    rng = np.random.Generator(np.random.Philox(seed))
    nc = cumulative_counts(rng, n, n_d=n_d)
    f = global_density(nc)
    assert f.dtype == np.float32
    assert (f >= 0.0).all() and (f <= 1.0).all()
    for t in range(N_TYPES):
        block_sum = f[:, t * n_d : (t + 1) * n_d].sum(axis=1)
        if (nc.counts[:, -1, t] > 0).any():
            assert np.isclose(block_sum.max(), 1.0, atol=1e-6)
        else:
            assert np.array_equal(block_sum, np.zeros(n))


@settings(deadline=None)
@given(seeds, st.integers(1, 25), st.integers(1, 4))
def test_densities_match_straight_line_oracle(seed, n, n_d):
    rng = np.random.Generator(np.random.Philox(seed))
    nc = cumulative_counts(rng, n, n_d=n_d)
    ld, gd = density_oracle(nc)
    assert np.array_equal(local_density(nc), ld)
    assert np.array_equal(global_density(nc), gd)


# ---------------------------------------------------------------------------
# Full embedding
# ---------------------------------------------------------------------------


def test_embed_needs_two_cells():
    with pytest.raises(TooFewCells):
        embed(make_cloud([]))
    with pytest.raises(TooFewCells):
        embed(make_cloud([(1.0, 2.0, 0)]))


def test_embed_two_cell_symmetry():
    cloud = make_cloud([(0.0, 0.0, 1), (7.0, 0.0, 1)])
    f = embed(cloud)
    assert f.shape == (2, 21)
    assert f.dtype == np.float32
    assert np.array_equal(f[0], f[1])
    # d_mean = 7, so the single neighbor falls in the innermost shell and
    # both normalizations put all mass there.
    expected = np.zeros(21, np.float32)
    expected[3] = 1.0  # local, type 1, first shell
    expected[12] = 1.0  # global, type 1, first shell
    expected[19] = 1.0  # one-hot type 1
    assert np.array_equal(f[0], expected)
    # width 2 * n_d * T + T
    assert embed(cloud, NieParams(n_d=1)).shape == (2, 9)
    assert embed(cloud, NieParams(n_d=5)).shape == (2, 33)


def test_embed_matches_hand_layout():
    # d_mean pinned to 1 gives shell boundaries 4/3, 8/3, 4; every
    # pairwise distance below is an integer, so shell membership is exact.
    cloud = make_cloud([(0, 0, 0), (1, 0, 1), (3, 0, 0), (10, 0, 2)])
    f = embed(cloud, d_mean=1.0)
    expected = np.array(
        [
            [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0.5, 1, 0, 0, 0, 0, 0, 1, 0, 0],
            [0.5, 0.5, 0, 0, 0, 0, 0, 0, 0, 0.5, 0.5, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0.5, 0, 1, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        ],
        dtype=np.float32,
    )
    assert np.array_equal(f, expected)


def test_embed_default_scale_is_mean_nn_distance():
    rng = np.random.Generator(np.random.Philox(11))
    cloud = random_cloud(rng, 120)
    assert np.array_equal(embed(cloud), embed(cloud, d_mean=mean_nn_distance(cloud)))


def test_embed_threads_equal(monkeypatch):
    # Chunks of 37 cells cut this 2,000-cell cloud into 55, so the mean-NN,
    # the count and the embedding's blocks all spread over several workers.
    monkeypatch.setattr(spatial, "_QUERY_CHUNK", 37)
    rng = np.random.Generator(np.random.Philox(12))
    nests = rng.uniform(150.0, 850.0, size=(8, 2))
    xy = np.vstack(
        [
            nests[rng.integers(0, 8, size=1600)] + rng.normal(0.0, 15.0, size=(1600, 2)),
            rng.uniform(0.0, 1000.0, size=(400, 2)),
        ]
    )
    cloud = CellCloud(xy=xy, types=rng.integers(0, N_TYPES, size=2000).astype(np.uint8))
    radii = radii_schedule(mean_nn_distance(cloud))
    index = build_index(cloud, float(radii[-1]))
    single = (embed(cloud), count_in_radii(index, radii).counts, mean_nn_distance(cloud))
    for threads in (2, 3):
        assert embed(cloud, threads=threads).tobytes() == single[0].tobytes()
        assert np.array_equal(count_in_radii(index, radii, threads=threads).counts, single[1])
        assert mean_nn_distance(cloud, threads=threads) == single[2]


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(2, 40))
def test_embed_rigid_motion_invariance(seed, n):
    # Integer coordinates keep the rigid motion exact in floating point,
    # so no pairwise distance can drift across a shell boundary.
    rng = np.random.Generator(np.random.Philox(seed))
    xy = rng.integers(0, 500, size=(n, 2)).astype(np.float64)
    types = rng.integers(0, N_TYPES, size=n).astype(np.uint8)
    cloud = make_cloud(np.column_stack([xy, types]))

    shift = xy + rng.integers(1, 10_000, size=2).astype(np.float64)
    quarter_turn = np.column_stack([500.0 - xy[:, 1], xy[:, 0]])
    mirrored = xy[:, ::-1]

    base = embed(cloud)
    for moved in (shift, quarter_turn, mirrored):
        other = make_cloud(np.column_stack([moved, types]))
        assert np.array_equal(embed(other), base)


def test_embed_general_rotation_invariance():
    rng = np.random.Generator(np.random.Philox(13))
    cloud = random_cloud(rng, 200)
    theta = 0.7331
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    moved = cloud.xy @ rot.T
    moved -= moved.min(axis=0)
    other = make_cloud(np.column_stack([moved, cloud.types]))
    assert np.array_equal(embed(other), embed(cloud))


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(2, 40))
def test_embed_permutation_equivariance(seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    cloud = random_cloud(rng, n)
    perm = rng.permutation(n)
    # Pin the scale so only the row order differs between the two calls.
    f = embed(cloud, d_mean=5.0)
    g = embed(cloud.subset(perm), d_mean=5.0)
    assert np.array_equal(g, f[perm])


def test_embed_permutation_equivariance_default_scale():
    rng = np.random.Generator(np.random.Philox(14))
    cloud = random_cloud(rng, 150)
    perm = rng.permutation(150)
    assert np.array_equal(embed(cloud.subset(perm)), embed(cloud)[perm])


@settings(deadline=None, max_examples=30)
@given(seeds, st.integers(2, 35), st.integers(1, 4))
def test_embed_against_first_principles(seed, n, n_d):
    """Whole pipeline vs. a from-scratch evaluation on a pinned scale."""
    rng = np.random.Generator(np.random.Philox(seed))
    cloud = random_cloud(rng, n, extent=50.0)
    params = NieParams(lambda_r=3.0, n_d=n_d)
    d_mean = 2.0
    radii = [(j + 1) * (params.lambda_r * d_mean) / n_d for j in range(n_d)]

    counts = np.zeros((n, n_d, N_TYPES), np.uint32)
    for i in range(n):
        for q in range(n):
            if q == i:
                continue
            dx = cloud.xy[i, 0] - cloud.xy[q, 0]
            dy = cloud.xy[i, 1] - cloud.xy[q, 1]
            d2 = dx * dx + dy * dy
            for j, r in enumerate(radii):
                if d2 <= r * r:
                    counts[i, j, cloud.types[q]] += 1
    nc = NeighborCounts(radii=np.array(radii), counts=counts)
    ld, gd = density_oracle(nc)
    onehot = np.zeros((n, N_TYPES), np.float32)
    onehot[np.arange(n), cloud.types] = 1.0
    expected = np.hstack([ld, gd, onehot])

    assert np.array_equal(embed(cloud, params, d_mean=d_mean), expected)


def _embed_peak_per_cell(monkeypatch, n):
    """Traced peak of ``embed`` per cell, with the counts computed beforehand."""
    rng = np.random.Generator(np.random.Philox(15))
    cloud = random_cloud(rng, n, extent=1400.0)
    radii = radii_schedule(mean_nn_distance(cloud))
    nc = count_in_radii(build_index(cloud, radii[-1]), radii)
    monkeypatch.setattr(nie, "count_in_radii", lambda *args, **kwargs: nc)
    tracemalloc.start()
    try:
        f = embed(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.shape == (n, 21)
    return peak / n


def test_embed_peak_memory_per_cell(monkeypatch):
    # Counts are computed beforehand, so the traced peak is what embed adds
    # around them: mean-NN, grid index and the embedding itself. 20,000
    # cells are one block, whose float64 shells (72 bytes per cell) and the
    # float32 output (84) make most of the 168 bytes per cell measured.
    peak = _embed_peak_per_cell(monkeypatch, 20_000)
    assert peak < 250, f"embed peaked at {peak:.0f} bytes per cell"


def test_embed_peak_memory_per_cell_in_small_blocks(monkeypatch):
    # In blocks of 2,048 rows the shells are under 8 bytes per cell, so the
    # float32 output (84) is most of the peak: 101 bytes per cell measured.
    monkeypatch.setattr(spatial, "_QUERY_CHUNK", 2048)
    peak = _embed_peak_per_cell(monkeypatch, 20_000)
    assert peak < 110, f"embed peaked at {peak:.0f} bytes per cell"


def test_blocked_embedding_matches_one_shot_formula(monkeypatch):
    # Unit lattice with radii exactly 1, 2 and 3, so many neighbours tie on a
    # radius; type 1 is absent (global max 0) and one far cell counts no
    # neighbours at all (outer count 0). 43 cells in blocks of 7 rows leave a
    # last block of one row.
    gx, gy = np.meshgrid(np.arange(7.0), np.arange(6.0))
    xy = np.vstack([np.column_stack([gx.ravel(), gy.ravel()]), [[500.0, 500.0]]])
    types = (np.arange(43) % 2 * 2).astype(np.uint8)
    cloud = CellCloud(xy=xy, types=types)
    params = NieParams(lambda_r=3.0, n_d=3)
    radii = radii_schedule(1.0, params)
    assert np.array_equal(radii, [1.0, 2.0, 3.0])
    nc = count_in_radii(build_index(cloud, 3.0), radii)
    assert nc.counts[:, -1, 1].max() == 0 and not nc.counts[-1].any()

    c = np.swapaxes(nc.counts, 1, 2).astype(np.float64)
    shells = np.diff(c, axis=2, prepend=0.0)
    outer = c[:, :, -1:]
    top = outer.max(axis=0)
    local = np.divide(shells, outer, out=np.zeros_like(shells), where=outer > 0)
    glob = np.divide(shells, top, out=np.zeros_like(shells), where=top > 0)
    expected = np.hstack(
        [local.reshape(43, -1), glob.reshape(43, -1), np.eye(N_TYPES)[types]]
    ).astype(np.float32)

    monkeypatch.setattr(spatial, "_QUERY_CHUNK", 7)
    got = embed(cloud, params, d_mean=1.0)
    assert got.tobytes() == expected.tobytes()
