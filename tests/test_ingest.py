import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellcloud import ingest, spatial
from cellcloud.core import CellCloud, CellType
from cellcloud.ingest import (
    DuplicateCell,
    ImpreciseOrigin,
    MalformedRow,
    OutOfPatch,
    OverlappingPatches,
    PatchDetections,
    UnknownType,
    _parse_bulk,
    _parse_lines,
    _parse_rows,
    grid_sample,
    load_patch_dir,
    merge_boundary_cells,
    parse_cells_csv,
)

from conftest import make_cloud


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# parse_cells_csv
# ---------------------------------------------------------------------------


def test_parse_single_row(tmp_path):
    p = write_csv(tmp_path / "a.csv", "x,y,type\n1,2,neoplastic\n")
    cloud = parse_cells_csv(p)
    assert cloud.n_total == 1
    assert cloud.xy.tolist() == [[1.0, 2.0]]
    assert cloud.types.tolist() == [int(CellType.NEOPLASTIC)]


def test_parse_unknown_type_line_number(tmp_path):
    p = write_csv(tmp_path / "b.csv", "x,y,type\n1,2,tumour\n")
    with pytest.raises(UnknownType) as exc:
        parse_cells_csv(p)
    assert exc.value.line_no == 2
    assert exc.value.token == "tumour"
    # a quoted field may span lines: the bad row below is the file's line 4
    p = write_csv(tmp_path / "k.csv", 'x,y,type\n"1\n",2,other\n3,4,tumour\n')
    with pytest.raises(UnknownType, match=r"k.csv: line 4: unknown cell type 'tumour'") as exc:
        parse_cells_csv(p)
    assert exc.value.line_no == 4


def test_parse_preserves_file_order(tmp_path):
    p = write_csv(
        tmp_path / "c.csv",
        "x,y,type\n5,5,other\n1,1,neoplastic\n3,3,inflammatory\n",
    )
    cloud = parse_cells_csv(p)
    assert cloud.xy[:, 0].tolist() == [5.0, 1.0, 3.0]
    assert cloud.types.tolist() == [2, 0, 1]


def test_parse_skips_blank_lines(tmp_path):
    p = write_csv(tmp_path / "d.csv", "x,y,type\n1,2,other\n\n3,4,other\n\n")
    assert parse_cells_csv(p).n_total == 2


def test_parse_header_required(tmp_path):
    p = write_csv(tmp_path / "e.csv", "a,b,c\n1,2,other\n")
    with pytest.raises(MalformedRow) as exc:
        parse_cells_csv(p)
    assert exc.value.line_no == 1


def test_parse_empty_file(tmp_path):
    p = write_csv(tmp_path / "f.csv", "")
    with pytest.raises(MalformedRow):
        parse_cells_csv(p)


def test_parse_non_numeric(tmp_path):
    p = write_csv(tmp_path / "g.csv", "x,y,type\nfoo,2,other\n")
    with pytest.raises(MalformedRow) as exc:
        parse_cells_csv(p)
    assert exc.value.line_no == 2


def test_parse_non_finite(tmp_path):
    p = write_csv(tmp_path / "h.csv", "x,y,type\nnan,2,other\n")
    with pytest.raises(MalformedRow):
        parse_cells_csv(p)


def test_parse_wrong_field_count(tmp_path):
    p = write_csv(tmp_path / "i.csv", "x,y,type\n1,2\n")
    with pytest.raises(MalformedRow) as exc:
        parse_cells_csv(p)
    assert exc.value.line_no == 2


def test_parse_duplicate_row_rejected(tmp_path):
    p = write_csv(tmp_path / "j.csv", "x,y,type\n1,2,other\n1,2,other\n")
    with pytest.raises(DuplicateCell) as exc:
        parse_cells_csv(p)
    assert exc.value.line_no == 3


def test_parse_generated_tallies(tmp_path):
    rng = np.random.Generator(np.random.Philox(11))
    xy = rng.integers(0, 10_000, size=(1000, 2))
    # de-duplicate triples the cheap way: unique integer coordinates
    xy = np.unique(xy, axis=0)
    kinds = rng.integers(0, 3, size=xy.shape[0])
    lines = ["x,y,type"]
    for (x, y), t in zip(xy, kinds):
        lines.append(f"{x},{y},{CellType(int(t)).token}")
    p = write_csv(tmp_path / "big.csv", "\n".join(lines) + "\n")
    cloud = parse_cells_csv(p)
    assert cloud.n_total == xy.shape[0]
    assert cloud.counts_by_type.tolist() == np.bincount(kinds, minlength=3).tolist()


# Bulk parse vs the row-by-row parser. Clean rows come from small pools, so
# exact duplicates (-0.0 against 0.0 included) turn up; one edit at most
# then adds a bad header, an odd line or CRLF line ends.
_NUMBERS = ["0", "1", "2.5", "-0.0", "0.0", "1_0", " 3 ", "1e2", "100.0", "7"]
_TYPES = ["other", "neoplastic", "inflammatory", " Other", "INFLAMMATORY ", "Neoplastic\t"]
_HEADERS = [" X ,y,TYPE", "x,y", '"x",y,type', "x,y,type,extra", "", "x,y,type "]
_row = st.tuples(
    st.sampled_from(_NUMBERS), st.sampled_from(_NUMBERS), st.sampled_from(_TYPES)
).map(",".join)
_odd_line = st.one_of(
    st.tuples(
        st.sampled_from(_NUMBERS + ["nan", "-inf", "x", ""]),
        st.sampled_from(_NUMBERS + ["inf"]),
        st.sampled_from(_TYPES + ["tumour", "", '"other"']),
    ).map(",".join),
    st.lists(st.sampled_from(_NUMBERS + ["other"]), min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "  ", "\t", '"1",2,other', '1,2,"oth""er"', "1,2,other,", '"1,2",other',
                     "1\r,2,other", "1,2,other\r3,4,other"]),
)


@st.composite
def _csv_text(draw):
    lines = ["x,y,type"] + draw(st.lists(_row, max_size=12))
    edit = draw(st.sampled_from(["none", "none", "none", "header", "line", "line", "crlf"]))
    if edit == "header":
        lines[0] = draw(st.sampled_from(_HEADERS))
    elif edit == "line":
        lines.insert(draw(st.integers(1, len(lines))), draw(_odd_line))
    end = "\r\n" if edit == "crlf" else "\n"
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(parse, path):
    try:
        xy, types = parse(path)
    except Exception as exc:  # compared by class, line and message below
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return xy.tobytes(), xy.shape, xy.dtype, types.tobytes(), types.dtype


@given(_csv_text())
@settings(max_examples=400, deadline=None)
def test_bulk_parse_matches_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "cells.csv"
    path.write_bytes(text.encode("utf-8"))
    expect = _outcome(_parse_lines, path)
    assert _outcome(_parse_rows, path) == expect
    bulk = _parse_bulk(text)
    if bulk is not None:  # accepted: bitwise the arrays the line parser returns
        assert isinstance(expect[0], bytes)
        assert (bulk[0].tobytes(), bulk[0].shape, bulk[0].dtype, bulk[1].tobytes(), bulk[1].dtype) == expect


def test_bulk_parse_takes_plain_files(tmp_path):
    text = "x,y,type\n1.5,2,other\n-0.0,1_0,Neoplastic\n3,4,inflammatory"
    xy, types = _parse_bulk(text)
    assert xy.tolist() == [[1.5, 2.0], [-0.0, 10.0], [3.0, 4.0]]
    assert types.tolist() == [2, 0, 1]
    # CRLF line ends and the blank lines csv.reader skips are taken too
    for plain in ["x,y,type\r\n1,2,other\r\n", "x,y,type\n\n1,2,other\n",
                  "x,y,type\r\n1,2,other\r\n \t\r\n\r\n3,4,other\r\n\r\n", "x,y,type\n1,2,other\n  "]:
        path = tmp_path / "plain.csv"
        path.write_bytes(plain.encode("utf-8"))
        bulk = _parse_bulk(plain)
        assert bulk is not None, plain
        expect = _parse_lines(path)
        assert (bulk[0].tobytes(), bulk[1].tobytes()) == (expect[0].tobytes(), expect[1].tobytes())
    # anything else is left to the line parser
    for other in ['x,y,type\n"1",2,other\n', "x,y,type\r1,2,other\r", "x,y,type\r\n1,2,other\r\r\n",
                  "X,y,type\n1,2,other\n", "x,y,type\n1,2\nother,3,4,other\n", "x,y,type\n0.0,1,other\n-0.0,1,other\n",
                  "x,y,type\n\n", "x,y,type\n1,2,other\nnope\n"]:
        assert _parse_bulk(other) is None


def test_bulk_parse_leaves_long_fields_to_csv(tmp_path):
    # csv.reader refuses fields over its size limit; the bulk pass must not
    # accept them, and the line parser reports them as a malformed row
    p = write_csv(tmp_path / "long.csv", "x,y,type\n" + "0" * 200_000 + "1,2,other\n")
    assert _parse_bulk(p.read_text()) is None
    kind, line_no, message = _outcome(_parse_rows, p)
    assert (kind, line_no) == (MalformedRow, 2)
    assert message.startswith(f"{p}: line 2: malformed row (field larger than field limit")


# ---------------------------------------------------------------------------
# PatchDetections / load_patch_dir
# ---------------------------------------------------------------------------


def test_patch_local_coordinates_validated():
    with pytest.raises(ValueError, match="patch-local"):
        PatchDetections(
            patch_origin=(0.0, 0.0),
            xy=np.array([[512.0, 0.0]]),
            types=np.array([0], dtype=np.uint8),
        )
    with pytest.raises(ValueError, match="patch-local"):
        PatchDetections(
            patch_origin=(0.0, 0.0),
            xy=np.array([[-0.1, 0.0]]),
            types=np.array([0], dtype=np.uint8),
        )


def test_out_of_patch_is_a_coded_error():
    with pytest.raises(OutOfPatch) as exc:
        PatchDetections(patch_origin=(0.0, 0.0), xy=np.array([[1.0, 600.0]]), types=[0])
    assert exc.value.error_code == "out_of_patch"


def test_load_patch_dir_names_out_of_patch_line(tmp_path):
    write_csv(tmp_path / "patch_0_0.csv", "x,y,type\n1,1,other\n")
    # line numbers count the blank line
    write_csv(tmp_path / "patch_512_0.csv", "x,y,type\n1,1,other\n\n2,512,other\n-1,3,other\n")
    with pytest.raises(OutOfPatch, match="patch-local") as exc:
        load_patch_dir(tmp_path)
    msg = str(exc.value)
    assert "patch_512_0.csv: line 4:" in msg
    write_csv(tmp_path / "patch_512_0.csv", "x,y,type\n1,1,other\n2,-0.5,other\n")
    with pytest.raises(OutOfPatch, match=r"patch_512_0.csv: line 3: patch-local"):
        load_patch_dir(tmp_path)
    # a smaller patch size moves the bound
    write_csv(tmp_path / "patch_512_0.csv", "x,y,type\n1,1,other\n300,2,other\n")
    with pytest.raises(OutOfPatch, match=r"line 3: .*\[0, 256.0\)"):
        load_patch_dir(tmp_path, patch_size=256.0)


@pytest.mark.parametrize(
    "row, error, message",
    [
        ("2,2,oth\x00er", UnknownType, "unknown cell type 'oth\\x00er'"),
        ("2,2", MalformedRow, "malformed row (expected 3 fields, got 2)"),
        ("1,1,other", DuplicateCell, "duplicate cell"),
    ],
    ids=["unknown_type", "malformed_row", "duplicate_cell"],
)
def test_load_patch_dir_names_file_of_bad_row(tmp_path, row, error, message):
    write_csv(tmp_path / "patch_0_0.csv", "x,y,type\n1,1,other\n")
    write_csv(tmp_path / "patch_512_0.csv", f"x,y,type\n1,1,other\n{row}\n")
    with pytest.raises(error) as exc:
        load_patch_dir(tmp_path)
    assert exc.value.line_no == 3
    assert str(exc.value) == f"{tmp_path / 'patch_512_0.csv'}: line 3: {message}"


def test_load_patch_dir_names_and_order(tmp_path):
    write_csv(tmp_path / "patch_512_0.csv", "x,y,type\n1,1,other\n")
    write_csv(tmp_path / "patch_0_0.csv", "x,y,type\n2,2,other\n")
    write_csv(tmp_path / "patch_0_512.csv", "x,y,type\n3,3,other\n")
    write_csv(tmp_path / "notes.txt", "not a patch")
    write_csv(tmp_path / "patch_bad.csv", "x,y,type\n")
    patches = load_patch_dir(tmp_path)
    assert [p.patch_origin for p in patches] == [(0.0, 0.0), (512.0, 0.0), (0.0, 512.0)]
    assert patches[0].xy.tolist() == [[2.0, 2.0]]


def test_load_patch_dir_refuses_origins_float64_rounds(tmp_path):
    # Two 512 px patches 1 px apart whose origins both round to 1e20: taken
    # as disjoint, their cells merged into one at x = 1e20, not 1e20 + 5.
    write_csv(tmp_path / "patch_100000000000000000000_0.csv", "x,y,type\n5,5,other\n")
    write_csv(tmp_path / "patch_100000000000000000001_0.csv", "x,y,type\n5,5,other\n")
    with pytest.raises(ImpreciseOrigin, match=r"2\*\*53") as exc:
        load_patch_dir(tmp_path)
    assert exc.value.error_code == "imprecise_origin"
    assert str(exc.value).startswith(str(tmp_path / "patch_100000000000000000000_0.csv"))


@pytest.mark.parametrize(
    "x0, y0, exact",
    [(2**53, 0, True), (0, -(2**53), True), (2**53 + 1, 0, False), (0, -(2**53) - 2, False)],
)
def test_load_patch_dir_origin_limit_is_2_to_53(tmp_path, x0, y0, exact):
    write_csv(tmp_path / f"patch_{x0}_{y0}.csv", "x,y,type\n1,1,other\n")
    if exact:
        assert load_patch_dir(tmp_path)[0].patch_origin == (x0, y0)
    else:
        with pytest.raises(ImpreciseOrigin):
            load_patch_dir(tmp_path)


# ---------------------------------------------------------------------------
# merge_boundary_cells
# ---------------------------------------------------------------------------


def patch(origin, rows, size=512.0):
    xy = np.array([(r[0], r[1]) for r in rows], dtype=np.float64).reshape(-1, 2)
    types = np.array([int(r[2]) for r in rows], dtype=np.uint8)
    return PatchDetections(patch_origin=origin, xy=xy, types=types, patch_size=size)


def test_merge_interior_cells_pass_through():
    p = patch((1024.0, 512.0), [(100, 200, 0), (300, 300, 1)])
    out = merge_boundary_cells([p])
    assert out.xy.tolist() == [[1124.0, 712.0], [1324.0, 812.0]]
    assert out.types.tolist() == [0, 1]


def test_merge_seam_pair_to_midpoint():
    # the same physical cell seen from both sides of the x=512 seam:
    # 5 px from the shared edge in each patch, 10 px apart in slide coords
    left = patch((0.0, 0.0), [(507.0, 100.0, 0)])
    right = patch((512.0, 0.0), [(5.0, 100.0, 0)])
    out = merge_boundary_cells([left, right])
    assert out.n_total == 1
    assert out.xy.tolist() == [[512.0, 100.0]]
    assert out.types.tolist() == [0]


def test_merge_requires_same_type():
    left = patch((0.0, 0.0), [(507.0, 100.0, 0)])
    right = patch((512.0, 0.0), [(5.0, 100.0, 1)])
    out = merge_boundary_cells([left, right])
    assert out.n_total == 2


def test_merge_distance_is_strict():
    # exactly 12 px apart -> no merge
    left = patch((0.0, 0.0), [(506.0, 100.0, 0)])
    right = patch((512.0, 0.0), [(6.0, 100.0, 0)])
    assert merge_boundary_cells([left, right]).n_total == 2
    # nudge inside the threshold -> merge
    left = patch((0.0, 0.0), [(506.5, 100.0, 0)])
    assert merge_boundary_cells([left, right]).n_total == 1


def test_merge_far_patch_overflowing_d2_keeps_both():
    # In one 1e300 px patch, cells 1e200 px apart square past float64; the
    # seam test sees an inf d2, keeps both cells and warns nothing.
    p = patch((0.0, 0.0), [(0.0, 0.0, 0), (1e200, 0.0, 0)], size=1e300)
    out = merge_boundary_cells([p], d_merge=1e160)
    assert out.xy.tolist() == [[0.0, 0.0], [1e200, 0.0]]


def test_merge_boundary_band_is_strict():
    # both cells exactly 24 px from their own edge: not candidates
    left = patch((0.0, 0.0), [(488.0, 100.0, 0)])
    right = patch((512.0, 0.0), [(498.0, 100.0, 0)])
    out = merge_boundary_cells([left, right], d_merge=32.0)
    assert out.n_total == 2
    # strictly inside the band -> candidates, 10 px apart -> merged
    left = patch((0.0, 0.0), [(503.0, 100.0, 0)])
    right = patch((512.0, 0.0), [(1.0, 100.0, 0)])
    assert merge_boundary_cells([left, right], d_merge=32.0).n_total == 1


def test_merge_transitive_chain():
    # A links to B and to C, but B-C are sqrt(146) > 12 px apart: the
    # component still collapses to one cell at the 3-way centroid
    left = patch((0.0, 0.0), [(503.0, 100.0, 2), (503.0, 109.0, 2)])
    right = patch((512.0, 0.0), [(2.0, 104.0, 2)])
    out = merge_boundary_cells([left, right])
    assert out.n_total == 1
    assert out.xy.tolist() == [[1520.0 / 3.0, 313.0 / 3.0]]


def test_merge_folds_a_10k_cell_chain():
    # 137 patches in a column, 73 cells each 7 px apart just inside their
    # right border, 8 px across each seam: 10,001 band cells that only the
    # next one links to, one component that the union-find must join
    # through a path of 10,000 links, whatever order it hooks them in.
    local = np.column_stack([np.full(73, 510.0), np.arange(73) * 7.0])
    patches = [
        PatchDetections(patch_origin=(0.0, 512.0 * j), xy=local, types=np.full(73, 1, np.uint8))
        for j in range(137)
    ]
    for order in (patches, patches[::-1]):
        slide = np.vstack([p.xy + p.patch_origin for p in order])
        assert slide.shape[0] == 10_001
        out = merge_boundary_cells(order)
        assert out.n_total == 1 and out.types.tolist() == [1]
        assert out.xy.tolist() == [slide.mean(axis=0).tolist()]


def test_merge_keeps_input_order():
    left = patch((0.0, 0.0), [(100.0, 100.0, 0), (507.0, 50.0, 1)])
    right = patch((512.0, 0.0), [(5.0, 50.0, 1), (400.0, 400.0, 2)])
    out = merge_boundary_cells([left, right])
    # merged pair appears at its first member's slot
    assert out.types.tolist() == [0, 1, 2]
    assert out.xy[1].tolist() == [512.0, 50.0]


def test_overlapping_patches_rejected():
    a = patch((0.0, 0.0), [])
    b = patch((500.0, 0.0), [])
    with pytest.raises(OverlappingPatches):
        merge_boundary_cells([a, b])


def test_touching_patches_allowed():
    a = patch((0.0, 0.0), [])
    b = patch((512.0, 0.0), [])
    c = patch((0.0, 512.0), [])
    assert merge_boundary_cells([a, b, c]).n_total == 0


def _overlap_oracle(patches):
    """The all-pairs check: message of the first intersecting (i, j), i < j."""
    for i in range(len(patches)):
        xi, yi = patches[i].patch_origin
        si = patches[i].patch_size
        for j in range(i + 1, len(patches)):
            xj, yj = patches[j].patch_origin
            sj = patches[j].patch_size
            if xi < xj + sj and xj < xi + si and yi < yj + sj and yj < yi + si:
                return (
                    f"patches at {patches[i].patch_origin} and "
                    f"{patches[j].patch_origin} intersect"
                )
    return None


def _overlap_outcome(patches):
    try:
        merge_boundary_cells(patches)
    except OverlappingPatches as exc:
        return str(exc)
    return None


_ODD = [np.inf, -np.inf, np.nan, 1e300, -1e300, 1e308, -1e308, 2.0**60, -0.0, 0.1]


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.sampled_from(["tiled", "mixed", "jitter", "odd"]))
@settings(max_examples=200, deadline=None)
def test_overlap_check_matches_all_pairs_oracle(seed, side, layout):
    rng = np.random.Generator(np.random.Philox(seed))
    size = 512.0
    gx, gy = np.meshgrid(np.arange(side), np.arange(side))
    origins = np.column_stack([gx.ravel(), gy.ravel()]).astype(float) * size
    sizes = np.full(origins.shape[0], size)
    if layout == "mixed":
        sizes = rng.choice([128.0, 256.0, 512.0, 1024.0, 0.0, -64.0], size=sizes.size)
    if layout in ("jitter", "mixed"):
        # touching, nearly touching and overlapping shifts
        shift = rng.choice([0.0, 1.0, -1.0, 511.5, 512.0, 0.25], size=origins.shape)
        origins = origins + shift * (rng.uniform(size=origins.shape) < 0.2)
    if layout == "odd":
        hit = rng.uniform(size=origins.shape) < 0.15
        origins[hit] = rng.choice(_ODD, size=int(hit.sum()))
        sizes = np.where(rng.uniform(size=sizes.size) < 0.15, rng.choice(_ODD, size=sizes.size), sizes)
    extra = int(rng.integers(0, 3))  # a few patches anywhere
    origins = np.vstack([origins, rng.uniform(-512.0, size * side, size=(extra, 2))])
    sizes = np.concatenate([sizes, rng.choice([256.0, 512.0, 700.0], size=extra)])
    order = rng.permutation(sizes.size) if rng.uniform() < 0.5 else np.arange(sizes.size)
    patches = [
        patch((float(origins[k, 0]), float(origins[k, 1])), [], size=float(sizes[k]))
        for k in order
    ]
    assert _overlap_outcome(patches) == _overlap_oracle(patches)


def test_overlap_check_in_small_pair_batches(monkeypatch):
    # Candidate pairs tested a few at a time name the same first pair.
    monkeypatch.setattr(spatial, "_PAIR_BATCH", 3)
    grid = [patch((512.0 * gx, 512.0 * gy), []) for gy in range(6) for gx in range(6)]
    assert _overlap_outcome(grid) is None
    for planted in ((700.0, 900.0), (0.0, 2000.0), (2559.0, 2559.0)):
        patches = grid + [patch(planted, [], size=600.0)]
        assert _overlap_outcome(patches) == _overlap_oracle(patches) is not None


def test_overlap_check_without_positive_sizes():
    # No finite size is positive: only the infinite patch can meet another.
    patches = [patch((0.0, 0.0), [], size=0.0), patch((1.0, 1.0), [], size=-5.0),
               patch((0.5, 0.5), [], size=np.nan)]
    assert _overlap_outcome(patches) is None is _overlap_oracle(patches)
    patches.append(patch((-3.0, -3.0), [], size=np.inf))
    assert _overlap_outcome(patches) == _overlap_oracle(patches) is not None


@pytest.fixture(scope="module")
def slide_grid():
    """A 200 x 200 grid of empty 512 px patches: 40k, the count of a
    100k x 100k px slide."""
    return [patch((512.0 * gx, 512.0 * gy), []) for gy in range(200) for gx in range(200)]


def test_overlap_check_at_slide_scale(slide_grid):
    # The grid alone, with one patch 1e300 px out, and with one 8192 px
    # patch touching its right edge: neither may coarsen the check's bins.
    for extra in ([], [patch((1e300, 0.0), [])], [patch((512.0 * 200, 0.0), [], size=8192.0)]):
        t0 = time.perf_counter()
        assert merge_boundary_cells(slide_grid + extra).n_total == 0
        assert time.perf_counter() - t0 < 2.0

    rng = np.random.Generator(np.random.Philox(17))
    gx, gy = (int(v) for v in rng.integers(0, 199, size=2))
    planted = (512.0 * gx + float(rng.integers(1, 511)), 512.0 * gy + float(rng.integers(1, 511)))
    t0 = time.perf_counter()
    with pytest.raises(OverlappingPatches) as exc:
        merge_boundary_cells(slide_grid + [patch(planted, [])])
    assert time.perf_counter() - t0 < 2.0
    # the planted patch overlaps four grid patches; the first in order is (gx, gy)
    assert str(exc.value) == f"patches at {(512.0 * gx, 512.0 * gy)} and {planted} intersect"


@pytest.mark.parametrize("kwargs", [{"d_merge": np.nan}, {"d_merge": -1.0},
                                    {"d_merge": np.inf}, {"d_boundary": np.nan}])
def test_merge_rejects_bad_distances(kwargs):
    with pytest.raises(ValueError):
        merge_boundary_cells([patch((0.0, 0.0), [])], **kwargs)


def test_merge_empty_patch_list():
    out = merge_boundary_cells([])
    assert out.n_total == 0


def test_seam_fixture_grid():
    """2x2 patch grid with constructed duplicates across every seam."""
    nw = patch(
        (0.0, 0.0),
        [
            (256.0, 256.0, 0),  # interior, untouched
            (509.0, 128.0, 1),  # pairs with NE across x seam
            (128.0, 509.0, 0),  # pairs with SW across y seam
            (508.0, 508.0, 2),  # corner: pairs with all three neighbors
        ],
    )
    ne = patch(
        (512.0, 0.0),
        [
            (3.0, 128.0, 1),
            (4.0, 508.0, 2),
            (100.0, 100.0, 1),  # interior, untouched
        ],
    )
    sw = patch((0.0, 512.0), [(128.0, 3.0, 0), (508.0, 4.0, 2)])
    se = patch((512.0, 512.0), [(4.0, 4.0, 2), (300.0, 300.0, 0)])
    out = merge_boundary_cells([nw, ne, sw, se])
    # corner component: (508,508), (516,508), (508,516), (516,516) -> (512,512)
    expect = [
        ([256.0, 256.0], 0),
        ([512.0, 128.0], 1),  # (509,128)+(515,128) midpoint
        ([128.0, 512.0], 0),  # (128,509)+(128,515) midpoint
        ([512.0, 512.0], 2),
        ([612.0, 100.0], 1),
        ([812.0, 812.0], 0),
    ]
    assert out.n_total == len(expect)
    assert [(p, int(t)) for p, t in zip(out.xy.tolist(), out.types)] == expect


def _merge_oracle(patches, d_boundary=24.0, d_merge=12.0):
    """Straight-line reimplementation: translate, flag, all-pairs link, group."""
    pts = []
    for p in patches:
        ox, oy = p.patch_origin
        for (lx, ly), t in zip(p.xy, p.types):
            edge = min(lx, p.patch_size - lx, ly, p.patch_size - ly)
            pts.append([ox + lx, oy + ly, int(t), edge < d_boundary])
    groups = [{i} for i in range(len(pts))]

    def find(i):
        for g in groups:
            if i in g:
                return g
        raise AssertionError

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            if not (a[3] and b[3]) or a[2] != b[2]:
                continue
            if (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 < d_merge * d_merge:
                ga, gb = find(i), find(j)
                if ga is not gb:
                    ga |= gb
                    groups.remove(gb)
    out = []
    emitted = set()
    for i in range(len(pts)):
        g = sorted(find(i))
        if g[0] in emitted:
            continue
        emitted.add(g[0])
        member_xy = np.array([[pts[m][0], pts[m][1]] for m in g])
        cx, cy = member_xy.mean(axis=0)
        out.append((cx, cy, pts[g[0]][2]))
    return out


def _seam_patches(rng, n_per_patch, offset=(0.0, 0.0), far=None):
    """A 2 x 2 patch grid at ``offset``, plus two abutting patches at
    ``far`` if given, with detections clustered near the patch edges."""
    origins = [(offset[0] + dx, offset[1] + dy) for dx, dy in [(0, 0), (512, 0), (0, 512), (512, 512)]]
    if far is not None:
        origins += [far, (far[0] + 512.0, far[1])]
    patches = []
    for origin in origins:
        # cluster detections near edges so merges actually happen
        m = int(rng.integers(0, n_per_patch + 1))
        xy = np.where(
            rng.uniform(size=(m, 2)) < 0.5,
            rng.uniform(0.0, 30.0, size=(m, 2)),
            rng.uniform(482.0, 512.0, size=(m, 2)),
        )
        types = rng.integers(0, 3, size=m).astype(np.uint8)
        patches.append(PatchDetections(patch_origin=origin, xy=xy, types=types))
    return patches


def _assert_merge_matches_oracle(patches, d_merge):
    out = merge_boundary_cells(patches, d_merge=d_merge)
    with np.errstate(over="ignore"):  # distances and centroids at 1e308 overflow
        expect = _merge_oracle(patches, d_merge=d_merge)
    assert out.n_total == len(expect)
    got = [(x, y, int(t)) for (x, y), t in zip(out.xy, out.types)]
    for (gx, gy, gt), (ex, ey, et) in zip(got, expect):
        assert gt == et
        assert gx == pytest.approx(ex, abs=1e-9)
        assert gy == pytest.approx(ey, abs=1e-9)


# Origins near 0, at slide scale, and where sums absorb a patch's 512 px or
# a pair's difference overflows float64.
_OFFSETS = [0.0, -3e7 - 0.5, 1e300, -1e300, 1e308, -1e308]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 40),
    st.sampled_from([0.0, 1e-300, 12.0, 40.0, 1e9]),
    st.sampled_from(_OFFSETS),
    st.sampled_from(_OFFSETS),
    st.none() | st.tuples(st.sampled_from(_OFFSETS[2:]), st.sampled_from(_OFFSETS[2:])),
)
@settings(max_examples=80, deadline=None)
def test_merge_matches_oracle(seed, n_per_patch, d_merge, ox, oy, far):
    rng = np.random.Generator(np.random.Philox(seed))
    _assert_merge_matches_oracle(_seam_patches(rng, n_per_patch, (ox, oy), far), d_merge)


@pytest.mark.parametrize("d_merge, folds", [(12.0, 1), (40.0, 2), (1e9, 2)])
def test_merge_in_small_pair_batches(monkeypatch, d_merge, folds):
    # Candidate pairs tested a few at a time: components span batches, and
    # at the larger distances the links are folded into labels many times.
    monkeypatch.setattr(spatial, "_PAIR_BATCH", 5)
    calls = []
    fold = ingest._fold
    monkeypatch.setattr(ingest, "_fold", lambda label, links: calls.append(1) or fold(label, links))
    patches = _seam_patches(np.random.Generator(np.random.Philox(5)), 40, far=(1e300, -1e300))
    _assert_merge_matches_oracle(patches, d_merge)
    assert len(calls) >= folds


def test_merge_link_memory_is_bounded():
    # Every band cell is within d_merge of every other: 1,120 band cells,
    # 626,640 pairs, which one unbatched pair query held at once.
    rng = np.random.Generator(np.random.Philox(11))
    patches = [
        PatchDetections(
            patch_origin=(512.0 * gx, 512.0 * gy),
            xy=rng.uniform(0.0, 512.0, size=(400, 2)),
            types=rng.integers(0, 3, size=400).astype(np.uint8),
        )
        for gy in range(4)
        for gx in range(4)
    ]
    tracemalloc.start()
    try:
        out = merge_boundary_cells(patches, d_merge=1e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.n_total == 16 * 400 - 1120 + 3  # each type's band cells become one
    assert peak < 16e6  # 8.8 MB measured; 32 MB with one unbatched pair query


@given(st.integers(0, 2**32 - 1), st.integers(8, 60), st.sampled_from([8.0, 12.0, 24.0]))
@settings(max_examples=40, deadline=None)
def test_merge_centroids_are_bitwise_the_member_mean(seed, n_per_patch, reach):
    # Cells within `reach` of the corner the four patches share form 2-, 3-
    # and 4-cell chains and larger components; each merged cell must be
    # xy[members].mean(axis=0) to the bit.
    rng = np.random.Generator(np.random.Philox(seed))
    patches = []
    for origin in [(0.0, 0.0), (512.0, 0.0), (0.0, 512.0), (512.0, 512.0)]:
        off = rng.uniform(0.0, reach, size=(n_per_patch, 2))
        xy = np.where(np.array(origin) == 0.0, 512.0 - reach + off, off)
        types = rng.integers(0, 2, size=n_per_patch).astype(np.uint8)
        patches.append(PatchDetections(patch_origin=origin, xy=xy, types=types))
    out = merge_boundary_cells(patches)
    expect = _merge_oracle(patches)
    assert out.xy.tolist() == [[x, y] for x, y, _ in expect]
    assert out.types.tolist() == [t for _, _, t in expect]
    if reach == 8.0:  # 8 x 8 px quarters of the corner box hold mergeable pairs
        assert out.n_total < 4 * n_per_patch


def test_merge_never_increases_count_or_changes_types():
    rng = np.random.Generator(np.random.Philox(3))
    patches = []
    total = 0
    type_tally = np.zeros(3, dtype=int)
    for origin in [(0.0, 0.0), (512.0, 0.0)]:
        xy = rng.uniform(0.0, 512.0, size=(50, 2))
        types = rng.integers(0, 3, size=50).astype(np.uint8)
        total += 50
        type_tally += np.bincount(types, minlength=3)
        patches.append(PatchDetections(patch_origin=origin, xy=xy, types=types))
    out = merge_boundary_cells(patches)
    assert out.n_total <= total
    # merging only collapses same-type groups, so each type can only shrink
    assert all(out.counts_by_type[t] <= type_tally[t] for t in range(3))


def test_nan_patch_size_rejects_every_cell(tmp_path):
    with pytest.raises(OutOfPatch):
        PatchDetections(patch_origin=(0.0, 0.0), xy=np.array([[1.0, 2.0]]), types=[0], patch_size=np.nan)
    write_csv(tmp_path / "patch_0_0.csv", "x,y,type\n700,5,other\n")
    with pytest.raises(OutOfPatch, match=r"patch_0_0.csv: line 2: .*\[0, nan\)"):
        load_patch_dir(tmp_path, patch_size=np.nan)
    # an empty patch has no coordinate to check, whatever its size
    for size in (np.nan, np.inf, -1.0):
        empty = PatchDetections(patch_origin=(0.0, 0.0), xy=np.empty((0, 2)), types=[], patch_size=size)
        assert empty.n_cells == 0


# ---------------------------------------------------------------------------
# grid_sample
# ---------------------------------------------------------------------------


def test_grid_sample_collinear_centroid():
    cloud = make_cloud([(0, 0, 0), (10, 0, 0), (20, 0, 0)])
    out = grid_sample(cloud, 256.0)
    assert out.n_total == 1
    assert out.xy.tolist() == [[10.0, 0.0]]


def test_grid_sample_keeps_types_apart():
    cloud = make_cloud([(5, 5, 0), (6, 6, 1)])
    out = grid_sample(cloud, 256.0)
    assert out.n_total == 2
    assert sorted(out.types.tolist()) == [0, 1]


def test_grid_sample_empty():
    cloud = make_cloud([])
    assert grid_sample(cloud, 256.0).n_total == 0


def test_grid_sample_rejects_nonpositive():
    for size in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            grid_sample(make_cloud([(1, 1, 0)]), size)


def test_grid_sample_rejects_bins_beyond_int64():
    # floor(1 / 1e-300) is 1e300: the int64 cast would put every cell in one bin
    cloud = make_cloud([(1, 1, 0), (5000, 7000, 0), (9000, 20, 0)])
    with pytest.raises(spatial.GridOverflow, match="int64") as exc:
        grid_sample(cloud, 1e-300)
    assert exc.value.error_code == "grid_overflow"


def test_grid_sample_ordering():
    cloud = make_cloud(
        [(300, 300, 1), (300, 300, 0), (10, 10, 2), (300, 10, 0)]
    )
    out = grid_sample(cloud, 256.0)
    # (row, col, type): (0,0,2), (0,1,0), (1,1,0), (1,1,1)
    rows = np.floor(out.xy[:, 1] / 256.0).astype(int)
    cols = np.floor(out.xy[:, 0] / 256.0).astype(int)
    key = list(zip(rows.tolist(), cols.tolist(), out.types.tolist()))
    assert key == sorted(key)
    assert key == [(0, 0, 2), (0, 1, 0), (1, 1, 0), (1, 1, 1)]


def _grid_oracle(cloud, grid_size):
    cells = {}
    order = []
    for (x, y), t in zip(cloud.xy, cloud.types):
        key = (int(np.floor(y / grid_size)), int(np.floor(x / grid_size)), int(t))
        if key not in cells:
            cells[key] = []
            order.append(key)
        cells[key].append((x, y))
    out = []
    for key in sorted(cells):
        xs = [p[0] for p in cells[key]]
        ys = [p[1] for p in cells[key]]
        out.append((sum(xs) / len(xs), sum(ys) / len(ys), key[2]))
    return out


@given(st.integers(0, 2**32 - 1), st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_grid_sample_matches_oracle(seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    xy = rng.uniform(0.0, 1024.0, size=(n, 2))
    types = rng.integers(0, 3, size=n).astype(np.uint8)
    cloud = CellCloud(xy=xy, types=types)
    out = grid_sample(cloud, 256.0)
    expect = _grid_oracle(cloud, 256.0)
    assert out.n_total == len(expect)
    for (gx, gy), gt, (ex, ey, et) in zip(out.xy, out.types, expect):
        assert int(gt) == et
        assert gx == pytest.approx(ex, abs=1e-9)
        assert gy == pytest.approx(ey, abs=1e-9)


def test_grid_sample_idempotent_when_thin():
    rng = np.random.Generator(np.random.Philox(5))
    xy = rng.uniform(0.0, 2048.0, size=(300, 2))
    types = rng.integers(0, 3, size=300).astype(np.uint8)
    once = grid_sample(CellCloud(xy=xy, types=types), 256.0)
    twice = grid_sample(once, 256.0)
    assert np.array_equal(once.xy, twice.xy)
    assert np.array_equal(once.types, twice.types)


def test_grid_sample_preserves_type_proportions():
    # slide-scale extent keeps per-(bin, type) occupancy low, so the
    # quantization effect on type proportions stays within +-10% relative
    rng = np.random.Generator(np.random.Philox(9))
    n = 20_000
    xy = rng.uniform(0.0, 65_536.0, size=(n, 2))
    types = rng.choice(3, size=n, p=[0.5, 0.3, 0.2]).astype(np.uint8)
    cloud = CellCloud(xy=xy, types=types)
    out = grid_sample(cloud, 256.0)
    before = cloud.counts_by_type / n
    after = out.counts_by_type / out.n_total
    assert np.all(np.abs(after - before) / before < 0.10)
