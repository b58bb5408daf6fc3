import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellcloud.core import (
    N_TYPES,
    CellCloud,
    CellType,
    EmptyCloud,
    read_cloud,
    read_features,
    validate_cloud,
    write_cloud,
    write_features,
)
from cellcloud.hsp import HspConfig, init_weights, load_weights, save_weights

from conftest import make_cloud, random_cloud, write_cells_csv

coord = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False, width=64)
cell_rows = st.lists(st.tuples(coord, coord, st.integers(0, N_TYPES - 1)), max_size=50)


# ---------------------------------------------------------------------------
# CellType
# ---------------------------------------------------------------------------


def test_type_tokens_round_trip():
    for t in CellType:
        assert CellType.from_token(t.token) is t
        assert CellType.from_token(t.token.upper()) is t
        assert CellType.from_token(f"  {t.token} ") is t


def test_type_token_values():
    assert CellType.NEOPLASTIC == 0
    assert CellType.INFLAMMATORY == 1
    assert CellType.OTHER == 2
    assert CellType.NEOPLASTIC.token == "neoplastic"


def test_unknown_token_raises():
    with pytest.raises(ValueError, match="unknown cell type token"):
        CellType.from_token("stromal")


def test_cloud_arrays_round_trip():
    cloud = make_cloud([(1.5, 2.5, CellType.NEOPLASTIC), (3.0, 4.0, CellType.OTHER)])
    assert cloud.xy.dtype == np.float64 and cloud.types.dtype == np.uint8
    assert cloud.xy.tolist() == [[1.5, 2.5], [3.0, 4.0]]
    assert [CellType(int(t)) for t in cloud.types] == [CellType.NEOPLASTIC, CellType.OTHER]


# ---------------------------------------------------------------------------
# CellCloud construction and invariants
# ---------------------------------------------------------------------------


def test_empty_cloud_is_fine():
    cloud = make_cloud([])
    assert cloud.xy.shape == (0, 2) and cloud.types.shape == (0,)
    assert cloud.n_total == 0
    assert len(cloud) == 0
    assert cloud.counts_by_type.tolist() == [0, 0, 0]
    with pytest.raises(EmptyCloud):
        cloud.bounding_box()


def test_arrays_are_read_only():
    cloud = make_cloud([(0, 0, 0), (1, 1, 1)])
    with pytest.raises(ValueError):
        cloud.xy[0, 0] = 9.0
    with pytest.raises(ValueError):
        cloud.types[0] = 2


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        CellCloud(xy=np.zeros((3, 3)), types=np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        CellCloud(xy=np.zeros((3, 2)), types=np.zeros(2, dtype=np.uint8))
    with pytest.raises(ValueError, match="type tags"):
        CellCloud(xy=np.zeros((1, 2)), types=np.array([3], dtype=np.uint8))


def test_bounding_box():
    cloud = make_cloud([(5, 1, 0), (2, 8, 1), (7, 3, 2)])
    assert cloud.bounding_box() == (2.0, 1.0, 7.0, 8.0)


def test_subset_by_mask_and_indices():
    cloud = make_cloud([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
    sub = cloud.subset(np.array([True, False, True]))
    assert sub.n_total == 2
    assert sub.types.tolist() == [0, 2]
    sub2 = cloud.subset(np.array([2, 0]))
    assert sub2.xy[:, 0].tolist() == [2.0, 0.0]
    assert cloud.subset([-1]).xy.tolist() == [[2.0, 2.0]]
    assert cloud.subset([]).n_total == 0
    for bad in (np.array([True, False]), np.array([3]), [1.5]):
        with pytest.raises(IndexError):
            cloud.subset(bad)


@given(cell_rows)
def test_counts_by_type_matches_tally(rows):
    cloud = make_cloud(rows)
    expect = [sum(1 for r in rows if r[2] == t) for t in range(N_TYPES)]
    assert cloud.counts_by_type.tolist() == expect
    assert int(cloud.counts_by_type.sum()) == cloud.n_total


# ---------------------------------------------------------------------------
# validate_cloud
# ---------------------------------------------------------------------------


def test_validate_minimal_cloud():
    assert validate_cloud(make_cloud([(0, 0, CellType.NEOPLASTIC)])) == []


def test_validate_nan_coordinate():
    cloud = CellCloud(xy=np.array([[np.nan, 1.0]]), types=np.array([0], dtype=np.uint8))
    assert validate_cloud(cloud) == ["non-finite coordinate at index 0"]


def test_validate_negative_coordinate():
    cloud = make_cloud([(1.0, -0.5, 0)])
    assert validate_cloud(cloud) == ["negative coordinate at index 0"]


def test_validate_duplicate_pair():
    cloud = make_cloud([(5, 5, CellType.OTHER), (5, 5, CellType.OTHER)])
    assert validate_cloud(cloud) == ["duplicate cell at index 1"]


def test_validate_reports_every_repeat():
    cloud = make_cloud([(5, 5, 2), (1, 1, 0), (5, 5, 2), (5, 5, 2)])
    assert validate_cloud(cloud) == [
        "duplicate cell at index 2",
        "duplicate cell at index 3",
    ]


@pytest.mark.parametrize("seed", range(5))
def test_validate_identical_triple_in_shuffled_rows(seed):
    rows = [(float(i), 2.0 * i, i % N_TYPES) for i in range(10)] + [(7.5, 7.5, 1)] * 3
    perm = np.random.default_rng(seed).permutation(len(rows))
    cloud = make_cloud([rows[i] for i in perm])
    second, third = np.sort(np.flatnonzero(perm >= 10))[1:]
    assert validate_cloud(cloud) == [
        f"duplicate cell at index {second}",
        f"duplicate cell at index {third}",
    ]


def test_same_position_different_type_is_not_duplicate():
    cloud = make_cloud([(5, 5, 0), (5, 5, 1)])
    assert validate_cloud(cloud) == []


def test_validate_mixed_violations_grouped():
    cloud = CellCloud(
        xy=np.array([[-1.0, 2.0], [np.inf, 1.0], [3.0, 4.0], [3.0, 4.0]]),
        types=np.array([0, 1, 2, 2], dtype=np.uint8),
    )
    assert validate_cloud(cloud) == [
        "non-finite coordinate at index 1",
        "negative coordinate at index 0",
        "duplicate cell at index 3",
    ]


@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
@settings(max_examples=30)
def test_validate_random_unique_clouds_clean(seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    assert validate_cloud(random_cloud(rng, n)) == []


def validate_oracle(cloud):
    """The full duplicate scan: one stable (t, y, x) sort over every finite row."""
    problems = []
    finite = np.isfinite(cloud.xy).all(axis=1)
    problems += [f"non-finite coordinate at index {i}" for i in np.flatnonzero(~finite)]
    negative = finite & (cloud.xy < 0).any(axis=1)
    problems += [f"negative coordinate at index {i}" for i in np.flatnonzero(negative)]
    idx = np.flatnonzero(finite)
    if idx.size > 1:
        x, y, t = cloud.xy[idx, 0], cloud.xy[idx, 1], cloud.types[idx]
        order = np.lexsort((t, y, x))
        sx, sy, st_, si = x[order], y[order], t[order], idx[order]
        same = (sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1]) & (st_[1:] == st_[:-1])
        problems += [f"duplicate cell at index {i}" for i in np.sort(si[1:][same])]
    return problems


# A small alphabet, so rows share x, share (x, y) across types, repeat whole
# triples, and put -0.0 beside 0.0, among non-finite and negative rows.
alphabet_x = st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e300, -3.0, np.nan, np.inf])
alphabet_y = st.sampled_from([0.0, -0.0, 1.0, 7.25, -np.inf, -1.0, np.nan])
alphabet_rows = st.lists(st.tuples(alphabet_x, alphabet_y, st.integers(0, N_TYPES - 1)), max_size=40)


@given(st.data(), alphabet_rows)
@settings(max_examples=200, deadline=None)
def test_validate_matches_full_scan(data, rows):
    repeats = data.draw(st.lists(st.sampled_from(rows), max_size=10)) if rows else []
    rows = data.draw(st.permutations(rows + repeats))  # exact triples in shuffled rows
    cloud = make_cloud(rows)
    assert validate_cloud(cloud) == validate_oracle(cloud)


def test_validate_many_cells_sharing_x():
    rng = np.random.Generator(np.random.Philox(3))
    xy = np.column_stack([rng.integers(0, 3, 500) * 1.5, rng.integers(0, 40, 500) * 0.25])
    xy[rng.integers(0, 500, 50), 0] *= -0.0  # -0.0 beside 0.0
    cloud = CellCloud(xy=xy, types=rng.integers(0, N_TYPES, 500).astype(np.uint8))
    problems = validate_cloud(cloud)
    assert problems == validate_oracle(cloud)
    assert len(problems) > 100


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_csv_writer_format(tmp_path):
    cloud = make_cloud([(1.5, 2.25, 0), (0.1, 4.0, 2)])
    path = tmp_path / "cells.csv"
    write_cells_csv(path, cloud)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,type"
    assert lines[1] == "1.5,2.25,neoplastic"
    assert lines[2] == "0.1,4.0,other"


@given(cell_rows)
@settings(max_examples=25)
def test_cc5b_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("cc5b") / "cloud.cc5b"
    cloud = make_cloud(rows)
    write_cloud(path, cloud)
    back = read_cloud(path)
    assert np.array_equal(back.xy, cloud.xy)
    assert np.array_equal(back.types, cloud.types)


def test_cc5b_rewrite_is_byte_identical(tmp_path):
    cloud = make_cloud([(1.0, 2.0, 0), (3.5, 4.5, 1), (np.pi, np.e, 2)])
    p1 = tmp_path / "a.cc5b"
    p2 = tmp_path / "b.cc5b"
    write_cloud(p1, cloud)
    write_cloud(p2, read_cloud(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_cc5b_bad_magic(tmp_path):
    path = tmp_path / "junk.cc5b"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError, match="not a CC5B"):
        read_cloud(path)


def test_cc5b_truncated(tmp_path):
    path = tmp_path / "t.cc5b"
    cloud = make_cloud([(1, 2, 0), (3, 4, 1)])
    write_cloud(path, cloud)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match="truncated"):
        read_cloud(path)


def test_cc5b_version_check(tmp_path):
    path = tmp_path / "v.cc5b"
    write_cloud(path, make_cloud([(1, 2, 0)]))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_cloud(path)


def test_features_round_trip(tmp_path):
    path = tmp_path / "f.ccem"
    mat = np.arange(12, dtype=np.float32).reshape(3, 4) / 7
    write_features(path, mat)
    assert np.array_equal(read_features(path), mat)


def test_features_vector_becomes_row(tmp_path):
    path = tmp_path / "v.ccem"
    write_features(path, np.array([1.0, 2.0, 3.0]))
    assert read_features(path).shape == (1, 3)


def test_features_rejects_3d(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_features(tmp_path / "x.ccem", np.zeros((2, 2, 2)))


def test_features_bad_magic(tmp_path):
    path = tmp_path / "bad.ccem"
    path.write_bytes(b"XXXX" + bytes(30))
    with pytest.raises(ValueError, match="not a CCEM"):
        read_features(path)


def test_features_truncated(tmp_path):
    path = tmp_path / "tr.ccem"
    write_features(path, np.ones((2, 3), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match="truncated"):
        read_features(path)


def test_features_writer_makes_no_copy(tmp_path):
    mat = np.random.default_rng(0).random((100_000, 21), dtype=np.float32)  # 8.4 MB
    tracemalloc.start()
    try:
        write_features(tmp_path / "big.ccem", mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"write_features allocated {peak / 2**20:.1f} MB"
    assert np.array_equal(read_features(tmp_path / "big.ccem"), mat)


def test_writers_match_packed_reference(tmp_path):
    # float64 input in Fortran order: the writer converts and lays out rows
    mat = np.asfortranarray(np.arange(15, dtype=np.float64).reshape(5, 3) / 7)
    write_features(tmp_path / "f.ccem", mat)
    want = b"CCEM" + struct.pack("<IQI", 1, 5, 3)
    want += b"".join(struct.pack("<f", v) for v in mat.ravel())
    assert (tmp_path / "f.ccem").read_bytes() == want
    assert np.array_equal(read_features(tmp_path / "f.ccem"), mat.astype(np.float32))

    cloud = make_cloud([(np.pi, np.e, 0), (1.5, 0.0, 2), (1e6, 3.25, 1)])
    write_cloud(tmp_path / "c.cc5b", cloud)
    want = b"CC5B" + struct.pack("<IQ", 1, 3)
    want += b"".join(struct.pack("<ddB", x, y, t) for (x, y), t in zip(cloud.xy, cloud.types))
    assert (tmp_path / "c.cc5b").read_bytes() == want
    back = read_cloud(tmp_path / "c.cc5b")
    assert np.array_equal(back.xy, cloud.xy) and np.array_equal(back.types, cloud.types)

    weights = _tiny_weights()
    cfg = weights.config
    tensors = list(weights.tensors())
    save_weights(tmp_path / "w.ccwt", weights)
    want = b"CCWT" + struct.pack("<I", 1)
    want += struct.pack(
        "<IIIIII", cfg.levels, cfg.initial_anchors, cfg.n_basic,
        cfg.updates_per_level, cfg.encode_dim, cfg.dim_multiplier,
    )
    want += struct.pack("<dII", cfg.lambda_sim, weights.input_dim, len(tensors))
    for t in tensors:
        want += struct.pack(f"<I{t.ndim}I", t.ndim, *t.shape)
        want += struct.pack(f"<{t.size}f", *np.ravel(t))
    assert (tmp_path / "w.ccwt").read_bytes() == want
    back = list(load_weights(tmp_path / "w.ccwt").tensors())
    assert all(np.array_equal(a, b) for a, b in zip(back, tensors))


# ---------------------------------------------------------------------------
# corrupted binary containers (CC5B, CCEM, CCWT)
# ---------------------------------------------------------------------------


def _tiny_weights():
    cfg = HspConfig(levels=1, initial_anchors=2, n_basic=2, updates_per_level=1,
                    encode_dim=2, dim_multiplier=1)
    return init_weights(cfg, 2, seed=0)


# format -> (writer of a small valid file, reader, header count fields as
# (offset, width in bytes))
_FORMATS = {
    "cc5b": (
        lambda p: write_cloud(p, make_cloud([(1.5, 2.0, 0), (3.0, 4.0, 2)])),
        read_cloud,
        [(8, 8)],
    ),
    "ccem": (
        lambda p: write_features(p, np.arange(6, dtype=np.float32).reshape(2, 3)),
        read_features,
        [(8, 8), (16, 4)],
    ),
    "ccwt": (
        lambda p: save_weights(p, _tiny_weights()),
        load_weights,
        # levels, anchors, n_basic, updates, encode dim, multiplier, input
        # dim, tensor count, first tensor's rank
        [(off, 4) for off in (8, 12, 16, 20, 24, 28, 40, 44, 48)],
    ),
}


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_binary_readers_reject_corruption(tmp_path_factory, fmt, data):
    write, read, fields = _FORMATS[fmt]
    path = tmp_path_factory.getbasetemp() / f"fuzz.{fmt}"
    write(path)
    raw = path.read_bytes()
    kind = data.draw(st.sampled_from(["truncate", "extend", "flip", "field"]))
    if kind == "truncate":
        bad = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "extend":
        bad = raw + data.draw(st.binary(min_size=1, max_size=64))
    elif kind == "flip":
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        bad = bytearray(raw)
        bad[bit // 8] ^= 1 << (bit % 8)
    else:
        off, width = data.draw(st.sampled_from(fields))
        value = data.draw(st.sampled_from([0, 1, 2 ** (8 * width) - 1]))
        bad = raw[:off] + value.to_bytes(width, "little") + raw[off + width :]
    path.write_bytes(bytes(bad))
    t0 = time.monotonic()
    try:
        read(path)
    except ValueError as exc:
        if kind == "extend":
            assert "trailing bytes" in str(exc)
    else:
        # a strict prefix or an extension of a valid file is never valid
        assert kind in ("flip", "field"), f"{kind} accepted"
    assert time.monotonic() - t0 < 1.0
