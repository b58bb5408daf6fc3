import itertools
import math
import struct
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cellcloud import hsp, spatial
from cellcloud.core import DimMismatch, EmptyGroup, TooFewPoints
from cellcloud.hsp import (
    _MAX_WEIGHTS,
    HspConfig,
    _tensor_shapes,
    _weight_count,
    combine_appearance,
    filter_mask,
    hsp_forward,
    init_weights,
    load_weights,
    save_weights,
    similarity_scores,
    vector_attention,
)
from cellcloud.nie import embed
from cellcloud.spatial import _nn_mean_xy, fps, knn_group, mean_nn_distance

from conftest import random_cloud
from hsp_reference import (
    fps_reference,
    hsp_forward_reference,
    knn_reference,
    nn_mean_reference,
)

SMALL = HspConfig(levels=2, initial_anchors=16, n_basic=4, encode_dim=16, dim_multiplier=2)


def small_weights(seed=0, input_dim=21):
    return init_weights(SMALL, input_dim, seed)


def small_block(i=0):
    """A level-1 attention block in float64, as the forward pass runs it."""
    return small_weights().astype(np.float64).levels[0].blocks[i]


def make_group(rng, k=6, dim=8):
    """One random group as a batch of one: feats (1, k, dim), coords (1, k, 2)
    and anchors (1, 2)."""
    feats = rng.normal(size=(1, k, dim))
    coords = rng.uniform(0.0, 10.0, size=(1, k, 2))
    anchors = rng.uniform(0.0, 10.0, size=(1, 2))
    return feats, coords, anchors


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_defaults_and_dims():
    cfg = HspConfig()
    assert cfg.output_dim == 512
    assert cfg.level_dim(0) == 64
    assert cfg.level_dim(1) == 128
    assert cfg.level_dim(2) == 256
    assert SMALL.output_dim == 64


def test_config_validation():
    with pytest.raises(ValueError):
        HspConfig(levels=0)
    with pytest.raises(ValueError):
        HspConfig(initial_anchors=0)
    with pytest.raises(ValueError):
        HspConfig(n_basic=0)
    with pytest.raises(ValueError):
        HspConfig(levels=3, initial_anchors=100, n_basic=16)
    with pytest.raises(ValueError):
        HspConfig(updates_per_level=0)
    with pytest.raises(ValueError):
        HspConfig(encode_dim=0)
    with pytest.raises(ValueError):
        HspConfig(dim_multiplier=0)
    with pytest.raises(ValueError):
        HspConfig(lambda_sim=np.nan)


def test_config_weight_count_is_exact():
    for levels, updates, width, mult in itertools.product([1, 2, 4], [1, 3], [1, 5, 64], [1, 2, 3]):
        cfg = HspConfig(levels=levels, initial_anchors=64, n_basic=1, updates_per_level=updates,
                        encode_dim=width, dim_multiplier=mult)
        expect = sum(math.prod(shape) for shape in _tensor_shapes(cfg, 0))
        assert _weight_count(cfg, 2**62) == expect


def test_config_weight_cap():
    HspConfig(encode_dim=1024, levels=2, initial_anchors=32)  # 22M weights: allowed
    for kwargs in [
        {"encode_dim": 100_000_000},
        {"encode_dim": 2048, "levels": 2, "initial_anchors": 32},
        # a billion levels fails in a few steps, whatever the width growth
        {"levels": 10**9, "n_basic": 1},
        {"levels": 10**9, "n_basic": 1, "dim_multiplier": 1, "encode_dim": 1},
        {"levels": 10**9, "n_basic": 2},
    ]:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {_MAX_WEIGHTS} weights"):
            HspConfig(**kwargs)
        assert time.perf_counter() - t0 < 0.5


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def test_weight_shapes():
    w = small_weights()
    assert w.encoder_w.shape == (16, 21)
    assert w.encoder_b.shape == (16,)
    assert len(w.levels) == 2
    for lvl, d in zip(w.levels, (16, 32)):
        assert len(lvl.blocks) == 2
        for blk in lvl.blocks:
            assert blk.w_q.shape == blk.w_k.shape == blk.w_v.shape == (d, d)
            assert blk.b_q.shape == blk.b_k.shape == blk.b_v.shape == (d,)
            assert blk.w_pos.shape == (d, 2)
            assert blk.b_pos.shape == (d,)
            assert blk.w_att1.shape == blk.w_att2.shape == (d, d)
            assert blk.b_att1.shape == blk.b_att2.shape == (d,)
        assert lvl.w_agg.shape == (2 * d, d)
        assert lvl.b_agg.shape == (2 * d,)
    assert all(t.dtype == np.float32 for t in w.tensors())


def test_weight_determinism_and_seed_sensitivity():
    a = small_weights(seed=7)
    b = small_weights(seed=7)
    c = small_weights(seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a.tensors(), b.tensors()))
    assert any(not np.array_equal(x, y) for x, y in zip(a.tensors(), c.tensors()))


def test_weight_bounds_follow_fan_in():
    w = init_weights(HspConfig(), input_dim=64, seed=3)
    assert np.abs(w.encoder_w).max() <= 1 / 8 and np.abs(w.encoder_b).max() <= 1 / 8
    fan_in = 64
    for t in w.tensors():
        if t.ndim == 2:
            fan_in = t.shape[1]
        assert np.abs(t).max() <= 1 / np.sqrt(fan_in) + 1e-7


def test_init_weights_rejects_bad_dim():
    with pytest.raises(ValueError):
        init_weights(SMALL, 0, 1)


def test_weight_file_round_trip(tmp_path):
    w = small_weights(seed=5)
    path = tmp_path / "w.ccwt"
    save_weights(path, w)
    back = load_weights(path)
    assert back.config == w.config
    assert back.input_dim == w.input_dim
    for x, y in zip(w.tensors(), back.tensors()):
        assert x.dtype == y.dtype == np.float32
        assert np.array_equal(x, y)


def test_weight_file_errors(tmp_path):
    w = small_weights()
    path = tmp_path / "w.ccwt"
    save_weights(path, w)
    raw = path.read_bytes()

    bad = tmp_path / "bad.ccwt"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_weights(bad)
    bad.write_bytes(raw[:4] + b"\x09\x00\x00\x00" + raw[8:])
    with pytest.raises(ValueError):
        load_weights(bad)
    bad.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        load_weights(bad)
    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_weights(bad)
    bad.write_bytes(raw[:20])  # cut inside the config header
    with pytest.raises(ValueError, match="truncated"):
        load_weights(bad)


@pytest.mark.parametrize("n_tensors", [5, 2 + 3_000_000 * 14])
def test_weight_file_absurd_header_rejected_fast(tmp_path, n_tensors):
    # 56 bytes claiming 3M levels: the tensor count and the bytes left bound
    # the header before any per-level shape list is built.
    path = tmp_path / "huge.ccwt"
    path.write_bytes(
        b"CCWT"
        + struct.pack("<I", 1)
        + struct.pack("<IIIIII", 3_000_000, 1, 1, 1, 1, 1)
        + struct.pack("<d", 0.5)
        + struct.pack("<II", 1, n_tensors)
        + bytes(8)
    )
    assert path.stat().st_size == 56
    t0 = time.monotonic()
    with pytest.raises(ValueError):
        load_weights(path)
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# Group stage: similarity, filter, attention (single groups at b = 1)
# ---------------------------------------------------------------------------


def test_group_view_validation():
    with pytest.raises(ValueError):
        similarity_scores(np.zeros((1, 3, 4)), np.zeros((1, 2, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        similarity_scores(np.zeros((1, 3, 4)), np.zeros((1, 1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        similarity_scores(np.zeros((2, 3, 4)), np.zeros((2, 3, 2)), np.zeros((1, 2)))
    with pytest.raises(EmptyGroup):
        similarity_scores(np.zeros((1, 0, 4)), np.zeros((1, 0, 2)), np.zeros((1, 2)))


def test_anchor_distances_hand_case():
    _, dist = similarity_scores(
        np.ones((1, 2, 3)), np.array([[[3.0, 4.0], [0.0, 5.0]]]), np.zeros((1, 2))
    )
    assert np.array_equal(dist, [[5.0, 5.0]])


def test_similarity_member_at_anchor_with_mean_feature():
    f = np.array([1.0, 2.0, -1.0, 0.5])
    feats = np.tile(f, (1, 3, 1))
    coords = np.array([[[5.0, 5.0], [6.0, 5.0], [5.0, 7.0]]])
    s, _ = similarity_scores(feats, coords, np.array([[5.0, 5.0]]))
    assert np.isclose(s[0, 0], np.dot(f, f) / 4, rtol=1e-12)


def test_similarity_orthogonal_feature_scores_zero():
    feats = np.array([[[2.0, 0.0], [0.0, 1.0], [0.0, -1.0]]])
    coords = np.array([[[0.0, 0.0], [9.0, 0.0], [0.1, 0.2]]])
    s, _ = similarity_scores(feats, coords, np.array([[1.0, 1.0]]))
    # f_ref = [2/3, 0]; the second and third features are orthogonal to it
    assert s[0, 1] == 0.0 and s[0, 2] == 0.0


def test_similarity_collapsed_group_uses_zero_distance():
    feats = np.array([[[1.0, 1.0], [3.0, 1.0]]])
    coords = np.array([[[2.0, 2.0], [2.0, 2.0]]])
    s, _ = similarity_scores(feats, coords, np.array([[2.0, 2.0]]))
    f_ref = np.array([2.0, 1.0])
    assert np.allclose(s[0], [feats[0, 0] @ f_ref / 2, feats[0, 1] @ f_ref / 2], rtol=1e-12)


def test_similarity_hand_oracle():
    rng = np.random.Generator(np.random.Philox(21))
    feats, coords, anchors = make_group(rng, k=5, dim=8)
    s, _ = similarity_scores(feats, coords, anchors)
    # f_ref is the mean of all members, before any filtering
    f_ref = feats[0].mean(axis=0)
    d = [float(np.hypot(*(c - anchors[0]))) for c in coords[0]]
    scale = sum(d) / 5
    expected = [
        np.exp(-di / scale) * float(fi @ f_ref) / 8
        for fi, di in zip(feats[0], d)
    ]
    assert np.allclose(s[0], expected, rtol=1e-10)


def test_similarity_far_spread_group_warns_nothing():
    # Members 1e160 px out: their squared distances, the distances' mean and
    # the feature dot products overflow float64, and inf / inf is NaN. The
    # scores keep the bytes of the plain formula, and nothing warns.
    rng = np.random.Generator(np.random.Philox(22))
    feats, coords, anchors = make_group(rng, k=6, dim=8)
    coords[0, 3:] *= 1e160
    feats[0, 3:] *= 1e160
    with np.errstate(all="ignore"):
        dx, dy = (coords[:, :, c] - anchors[:, c][:, None] for c in (0, 1))
        dist = np.sqrt(dx * dx + dy * dy)
        scale = dist.mean(axis=1)
        d_norm = np.divide(dist, scale[:, None], out=np.zeros_like(dist), where=scale[:, None] > 0)
        dots = (feats * feats.mean(axis=1)[:, None, :]).sum(axis=2)
        want = np.exp(-d_norm) * dots / 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, got_dist = similarity_scores(feats, coords, anchors)
    assert np.isinf(dist).any() and np.isnan(want).any()
    assert got.tobytes() == want.tobytes() and got_dist.tobytes() == dist.tobytes()


def test_filter_mask_threshold():
    mask = filter_mask(np.array([[0.9, 0.2]]), np.array([[1.0, 1.0]]), 0.5)
    assert np.array_equal(mask, [[True, False]])


def test_filter_mask_rescues_nearest():
    mask = filter_mask(
        np.array([[0.1, 0.1, 0.1], [0.1, 0.9, 0.1]]),
        np.array([[3.0, 1.0, 2.0], [0.5, 3.0, 2.0]]),
        0.5,
    )
    # only the first group needs the rescue; the second keeps its scorer
    assert np.array_equal(mask, [[False, True, False], [False, True, False]])


def test_filter_mask_low_threshold_keeps_all():
    assert filter_mask(np.array([[0.4, 0.6, 0.5]]), np.ones((1, 3)), -1.0).all()


def test_attention_requires_retained_member():
    rng = np.random.Generator(np.random.Philox(1))
    feats, coords, _ = make_group(rng, k=3, dim=16)
    blk = small_block()
    with pytest.raises(EmptyGroup):
        vector_attention(feats, coords, np.zeros((1, 3), dtype=bool), blk)
    # one fully masked group inside a batch is rejected too
    mask = np.array([[True, False, True], [False, False, False]])
    with pytest.raises(EmptyGroup):
        vector_attention(np.concatenate([feats, feats]), np.concatenate([coords, coords]), mask, blk)


def test_attention_singleton_group():
    blk = small_block()
    f = np.linspace(-1.0, 1.0, 16)
    out, _ = vector_attention(f[None, None], np.array([[[7.0, 1.0]]]), np.array([[True]]), blk)
    expected = blk.w_v @ f + blk.b_v + blk.b_pos
    assert np.allclose(out[0, 0], expected, rtol=1e-12, atol=1e-12)


def test_attention_masked_members_pass_through():
    rng = np.random.Generator(np.random.Philox(2))
    feats, coords, _ = make_group(rng, k=5, dim=16)
    mask = np.array([[True, False, True, False, True]])
    out, _ = vector_attention(feats, coords, mask, small_block())
    assert np.array_equal(out[0, 1], feats[0, 1])
    assert np.array_equal(out[0, 3], feats[0, 3])
    assert not np.allclose(out[0, 0], feats[0, 0])


def test_attention_masked_members_never_influence_retained():
    rng = np.random.Generator(np.random.Philox(3))
    blk = small_block(1)
    feats = rng.normal(size=(1, 6, 16))
    coords = rng.uniform(0.0, 5.0, size=(1, 6, 2))
    mask = np.array([[True, True, False, True, False, True]])
    out_a, _ = vector_attention(feats, coords, mask, blk)

    zeroed = feats.copy()
    zeroed[~mask] = 0.0
    out_b, _ = vector_attention(zeroed, coords, mask, blk)
    assert np.array_equal(out_a[mask], out_b[mask])


def test_attention_permutation_equivariance():
    rng = np.random.Generator(np.random.Philox(4))
    blk = small_block()
    feats = rng.normal(size=(1, 5, 16))
    coords = rng.uniform(0.0, 5.0, size=(1, 5, 2))
    mask = np.array([[True, True, True, False, True]])
    out, _ = vector_attention(feats, coords, mask, blk)

    perm = np.array([2, 0, 4, 1, 3])
    out_p, _ = vector_attention(feats[:, perm], coords[:, perm], mask[:, perm], blk)
    assert np.allclose(out_p, out[:, perm], atol=1e-10)


def test_attention_weight_sums_are_normalized():
    rng = np.random.Generator(np.random.Philox(5))
    blk = small_block()
    feats = rng.normal(size=(1, 4, 16))
    coords = rng.uniform(0.0, 3.0, size=(1, 4, 2))
    mask = np.ones((1, 4), dtype=bool)
    _, err = vector_attention(feats, coords, mask, blk)
    assert err < 1e-5


# Level shapes (k, D) of forward-20k, a 50k-cell forward and cohort-small.
@pytest.mark.parametrize("k,dim", [(2, 64), (19, 64), (48, 64), (32, 128), (32, 256)])
def test_group_stage_independent_of_batch_size(k, dim):
    # hsp_forward runs the group stage on chunks whose size follows from
    # (k, D); the b = 1 tests above stand for it only if a group's result
    # does not depend on the batch it is computed in.
    rng = np.random.Generator(np.random.Philox(k * 1000 + dim))
    b = 40
    feats = rng.normal(size=(b, k, dim))
    feats[:4] *= 0.1  # these groups score a hundredth of the rest
    coords = rng.uniform(0.0, 50.0, size=(b, k, 2))
    anchors = coords[:, 0] + rng.normal(0.0, 1.0, size=(b, 2))
    weights = init_weights(HspConfig(), 8, seed=dim).astype(np.float64)
    blocks = weights.levels[int(np.log2(dim // 64))].blocks

    # a threshold that masks members and leaves the damped groups to the rescue
    lam = float(np.quantile(similarity_scores(feats, coords, anchors)[0], 0.75))

    def stage(groups):
        f, c = feats[groups], coords[groups]
        scores, dist = similarity_scores(f, c, anchors[groups])
        mask = filter_mask(scores, dist, lam)
        arrays, errs = [scores, dist, mask], []
        for blk in blocks:
            f, err = vector_attention(f, c, mask, blk)
            arrays.append(f)
            errs.append(err)
        return arrays, errs

    arrays, errs = stage(slice(None))
    assert not arrays[2].all() and not (arrays[0][:4] > lam).any()
    singles = [stage(slice(i, i + 1)) for i in range(b)]
    for j, whole in enumerate(arrays):
        assert np.array_equal(whole, np.concatenate([one[j] for one, _ in singles]))
    for j, err in enumerate(errs):
        assert err == max(one[j] for _, one in singles)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def forward_inputs(seed, n, input_seed=None):
    rng = np.random.Generator(np.random.Philox(seed if input_seed is None else input_seed))
    cloud = random_cloud(rng, n)
    return cloud, embed(cloud)


def test_forward_validation():
    w = small_weights()
    _, feats = forward_inputs(0, 10)
    with pytest.raises(TooFewPoints):
        hsp_forward(np.zeros((1, 2)), feats[:1], None, w)
    with pytest.raises(DimMismatch):
        hsp_forward(np.zeros((10, 2)), feats[0], None, w)
    with pytest.raises(DimMismatch):
        hsp_forward(np.zeros((10, 2)), feats[:9], None, w)
    with pytest.raises(DimMismatch):
        hsp_forward(np.zeros((10, 2)), feats[:, :5], None, w)


@pytest.mark.parametrize("shape", [(9,), (11,), (10, 1)])
def test_forward_rejects_wrong_shaped_types(shape):
    cloud, feats = forward_inputs(0, 10)
    with pytest.raises(DimMismatch, match=r"\(10,\)"):
        hsp_forward(cloud.xy, feats, np.zeros(shape, np.uint8), small_weights())


def test_forward_structure_and_trace():
    cloud, feats = forward_inputs(10, 100)
    w = small_weights(seed=1)
    trace = []
    out = hsp_forward(cloud.xy, feats, cloud.types, w, trace=trace)
    assert out.shape == (64,) and out.dtype == np.float32
    assert np.isfinite(out).all()
    assert [t.level for t in trace] == [1, 2]
    assert [t.n_points for t in trace] == [100, 16]
    assert [t.n_anchors for t in trace] == [16, 4]
    assert [t.group_size for t in trace] == [12, 8]
    assert all(t.delta_sum_err < 1e-5 for t in trace)
    # default lambda_sim: no member clears it, every group keeps its nearest
    assert [t.retained for t in trace] == [16, 4]
    assert [t.rescued for t in trace] == [16, 4]

    # Recount level 1 at a threshold that splits groups, from the public
    # group-stage functions on the encoded features.
    lam = 0.06
    w64 = w.astype(np.float64)
    enc = feats @ w64.encoder_w.T + w64.encoder_b
    anchors = cloud.xy[fps(cloud.xy, cloud.types, 16, _nn_mean_xy(cloud.xy))]
    groups = knn_group(anchors, cloud.xy, 12)
    scores, dist = similarity_scores(enc[groups], cloud.xy[groups], anchors)
    mask = filter_mask(scores, dist, lam)
    kept = mask.sum(axis=1)
    assert 1 < kept.max() and kept.min() < 12 and (scores.max(axis=1) <= lam).any()
    trace = []
    w_lam = replace(w, config=replace(SMALL, lambda_sim=lam))
    hsp_forward(cloud.xy, feats, cloud.types, w_lam, trace=trace)
    assert trace[0].retained == kept.sum()
    assert trace[0].rescued == (scores.max(axis=1) <= lam).sum()

    # The default config on fewer cells than its 2,048 anchors: 300, 128 and
    # 8 groups of k = 2, 4 and 32. No member clears lambda_sim = 0.5, so each
    # group keeps one member.
    cloud, feats = forward_inputs(10, 300)
    config = HspConfig()
    trace = []
    out = hsp_forward(cloud.xy, feats, cloud.types, init_weights(config, feats.shape[1], 0), trace=trace)
    assert out.shape == (512,) and np.isfinite(out).all()
    assert [t.level for t in trace] == [1, 2, 3]
    assert [t.n_points for t in trace] == [300, 300, 128]
    assert [(t.n_anchors, t.group_size) for t in trace] == [(300, 2), (128, 4), (8, 32)]
    assert [t.retained for t in trace] == [300, 128, 8]
    assert [t.rescued for t in trace] == [300, 128, 8]


def test_forward_builds_one_grid_per_level(monkeypatch):
    # A level's mean-NN, fps and kNN share one grid over the level's points.
    built = []
    grid = spatial._grid

    def counting(points, *args):
        if not isinstance(points, spatial.SpatialIndex):
            built.append(len(points))
        return grid(points, *args)

    monkeypatch.setattr(spatial, "_grid", counting)
    monkeypatch.setattr(hsp, "_grid", counting)
    cloud, feats = forward_inputs(10, 100)
    for gamma in (None, 3.0):
        built.clear()
        hsp_forward(cloud.xy, feats, cloud.types, small_weights(seed=1), gamma=gamma)
        assert built == [100, 16]


def test_forward_deterministic():
    cloud, feats = forward_inputs(11, 80)
    w = small_weights(seed=2)
    a = hsp_forward(cloud.xy, feats, cloud.types, w)
    b = hsp_forward(cloud.xy, feats, cloud.types, w)
    assert np.array_equal(a, b)


def test_forward_given_gamma_matches_default():
    # `cellcloud forward` passes the mean-NN it computed once for the run.
    cloud, feats = forward_inputs(11, 80)
    w = small_weights(seed=2)
    base = hsp_forward(cloud.xy, feats, cloud.types, w)
    given = hsp_forward(cloud.xy, feats, cloud.types, w, gamma=mean_nn_distance(cloud))
    assert given.tobytes() == base.tobytes()
    other = hsp_forward(cloud.xy, feats, cloud.types, w, gamma=500.0)
    assert not np.array_equal(other, base)


def test_forward_permutation_invariance():
    cloud, feats = forward_inputs(12, 90)
    w = small_weights(seed=3)
    base = hsp_forward(cloud.xy, feats, cloud.types, w)
    rng = np.random.Generator(np.random.Philox(99))
    perm = rng.permutation(90)
    moved = hsp_forward(cloud.xy[perm], feats[perm], cloud.types[perm], w)
    assert np.abs(moved.astype(np.float64) - base).max() < 1e-4


def test_forward_translation_invariance():
    cloud, feats = forward_inputs(13, 70)
    w = small_weights(seed=4)
    base = hsp_forward(cloud.xy, feats, cloud.types, w)
    moved = hsp_forward(cloud.xy + [1000.0, 2000.0], feats, cloud.types, w)
    assert np.abs(moved.astype(np.float64) - base).max() < 1e-4


def test_forward_without_types():
    cloud, feats = forward_inputs(14, 60)
    w = small_weights(seed=5)
    out = hsp_forward(cloud.xy, feats, None, w)
    assert out.shape == (64,) and np.isfinite(out).all()


# ---------------------------------------------------------------------------
# Straight-line reference agreement
# ---------------------------------------------------------------------------


def test_reference_helpers_agree():
    rng = np.random.Generator(np.random.Philox(30))
    cloud = random_cloud(rng, 64)
    xy, types = cloud.xy, cloud.types

    gamma = _nn_mean_xy(xy)
    assert gamma == nn_mean_reference(xy)

    assert np.array_equal(fps(xy, types, 16, gamma), fps_reference(xy, types, 16, gamma))
    assert np.array_equal(fps(xy, None, 16, 0.0), fps_reference(xy, None, 16, 0.0))

    anchors = xy[fps(xy, None, 16, 0.0)]
    assert np.array_equal(knn_group(anchors, xy, 8), knn_reference(anchors, xy, 8))


def _some_group_partly_kept(t):
    # If every group kept 1 or all k members, retained - n_anchors would be a
    # multiple of k - 1.
    return t.group_size > 2 and (t.retained - t.n_anchors) % (t.group_size - 1) != 0


@pytest.mark.parametrize(
    "lambda_sim,regime",
    [(-1e9, "keep-all"), (0.02, "partial"), (0.5, "rescue")],
    ids=["keep-all", "partial", "rescue"],
)
def test_forward_matches_reference(lambda_sim, regime):
    config = replace(SMALL, lambda_sim=lambda_sim)
    worst = 0.0
    levels = []
    for seed in range(10):
        rng = np.random.Generator(np.random.Philox(1000 + seed))
        n = int(rng.integers(2, 257))
        cloud = random_cloud(rng, n)
        feats = embed(cloud)
        w = init_weights(config, feats.shape[1], seed)
        got = hsp_forward(cloud.xy, feats, cloud.types, w, trace=levels)
        want = hsp_forward_reference(cloud.xy, feats, cloud.types, config, w)
        worst = max(worst, float(np.abs(got.astype(np.float64) - want).max()))
    assert worst <= 1e-5
    if regime == "keep-all":
        assert all(t.retained == t.n_anchors * t.group_size for t in levels)
        assert all(t.rescued == 0 for t in levels)
    elif regime == "partial":
        assert any(_some_group_partly_kept(t) for t in levels)
    else:
        assert all(t.retained == t.rescued == t.n_anchors for t in levels)


# ---------------------------------------------------------------------------
# Appearance blending
# ---------------------------------------------------------------------------


def test_combine_appearance_identity_and_doubling():
    f = np.array([1.5, -2.0, 0.25], dtype=np.float32)
    assert np.array_equal(combine_appearance(f, np.ones(3), 0.0), f)
    assert np.array_equal(combine_appearance(f, f, 1.0), 2 * f)


def test_combine_appearance_oracle():
    rng = np.random.Generator(np.random.Philox(6))
    a = rng.normal(size=17)
    b = rng.normal(size=17)
    got = combine_appearance(a, b, 0.5)
    want = np.array([x + 0.5 * y for x, y in zip(a, b)], dtype=np.float32)
    assert np.array_equal(got, want)


def test_combine_appearance_dim_mismatch():
    with pytest.raises(DimMismatch):
        combine_appearance(np.ones(3), np.ones(4), 1.0)
