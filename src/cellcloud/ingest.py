"""Raw detection ingestion.

Cell detectors run on 512 px patches, so a slide arrives as many per-patch
CSVs in patch-local coordinates. This module parses those files, translates
them into slide coordinates, merges double detections near patch seams
(same type, < 12 px apart, both cells < 24 px from their own patch border),
and optionally thins the cloud with per-type 256 px grid sampling.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .core import CellCloud, CellCloudError, CellType, _csv_rows
from .spatial import _GRID_LIMIT, GridOverflow, _close_pairs, _d2

__all__ = [
    "PatchDetections",
    "MalformedRow",
    "UnknownType",
    "DuplicateCell",
    "OverlappingPatches",
    "OutOfPatch",
    "ImpreciseOrigin",
    "parse_cells_csv",
    "load_patch_dir",
    "merge_boundary_cells",
    "grid_sample",
]

_PATCH_NAME = re.compile(r"^patch_(-?\d+)_(-?\d+)\.csv$")


class _LineError(CellCloudError):
    """An error at one line of a cells CSV; the message names the file when given."""

    def __init__(self, line_no: int, message: str, path: Union[str, Path, None] = None):
        self.line_no = line_no
        super().__init__(("" if path is None else f"{path}: ") + f"line {line_no}: {message}")


class MalformedRow(_LineError):
    error_code = "malformed_row"

    def __init__(self, line_no: int, detail: str = "", path: Union[str, Path, None] = None):
        super().__init__(line_no, "malformed row" + (f" ({detail})" if detail else ""), path)


class UnknownType(_LineError):
    error_code = "unknown_type"

    def __init__(self, line_no: int, token: str = "", path: Union[str, Path, None] = None):
        self.token = token
        super().__init__(line_no, f"unknown cell type {token!r}", path)


class DuplicateCell(_LineError):
    """Exact (x, y, type) duplicate inside one input file.

    Duplicates are rejected up front so that the only de-duplication
    behaviour in the pipeline is the explicit boundary merge.
    """

    error_code = "duplicate_cell"

    def __init__(self, line_no: int, path: Union[str, Path, None] = None):
        super().__init__(line_no, "duplicate cell", path)


class OverlappingPatches(CellCloudError):
    error_code = "overlapping_patches"


class OutOfPatch(CellCloudError, ValueError):
    """A patch-local coordinate outside ``[0, patch_size)``."""

    error_code = "out_of_patch"


class ImpreciseOrigin(CellCloudError):
    """A patch origin beyond 2**53 px, which float64 cannot hold to the pixel."""

    error_code = "imprecise_origin"


@dataclass(frozen=True)
class PatchDetections:
    """Detections of one patch, in patch-local pixel coordinates."""

    patch_origin: tuple[float, float]
    xy: np.ndarray
    types: np.ndarray
    patch_size: float = 512.0

    def __post_init__(self) -> None:
        xy = np.ascontiguousarray(self.xy, dtype=np.float64).reshape(-1, 2)
        types = np.ascontiguousarray(self.types, dtype=np.uint8)
        if types.shape != (xy.shape[0],):
            raise ValueError("types length must match coordinate count")
        if xy.size and not (xy.min() >= 0 and xy.max() < self.patch_size):
            raise OutOfPatch("patch-local coordinates must lie in [0, patch_size)")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "types", types)

    @property
    def n_cells(self) -> int:
        return self.xy.shape[0]


def _body_rows(path: Union[str, Path]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of the rows below a cells CSV's header."""
    return _csv_rows(path, ["x", "y", "type"], lambda n, msg: MalformedRow(n, msg, path))


def _parse_lines(path: Union[str, Path]) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row parser: the only one that reports ingest errors."""
    xs: list[float] = []
    ys: list[float] = []
    ts: list[int] = []
    seen: set[tuple[float, float, int]] = set()
    for line_no, row in _body_rows(path):
        if len(row) != 3:
            raise MalformedRow(line_no, f"expected 3 fields, got {len(row)}", path)
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            raise MalformedRow(line_no, "non-numeric coordinate", path) from None
        if not (np.isfinite(x) and np.isfinite(y)):
            raise MalformedRow(line_no, "non-finite coordinate", path)
        try:
            kind = CellType.from_token(row[2])
        except ValueError:
            raise UnknownType(line_no, row[2].strip(), path) from None
        key = (x, y, int(kind))
        if key in seen:
            raise DuplicateCell(line_no, path)
        seen.add(key)
        xs.append(x)
        ys.append(y)
        ts.append(int(kind))
    xy = np.column_stack([xs, ys]) if xs else np.empty((0, 2), dtype=np.float64)
    return xy.astype(np.float64), np.asarray(ts, dtype=np.uint8)


def _parse_bulk(text: str) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Whole-file parse of the plain form, or None where it does not apply.

    Accepts only text without quotes or lone carriage returns, with the
    header exactly ``x,y,type`` and at least one line below it, each of
    three comma-separated fields or blank; there ``csv.reader`` yields
    exactly these fields and skips the blank lines. Coordinates go through
    the same ``float``, type tokens through the same ``CellType.from_token``
    and duplicates through the same set of ``(x, y, type)`` keys as
    :func:`_parse_lines`, so an accepted file gives the same arrays.
    Anything it does not accept returns None, including every file
    :func:`_parse_lines` would reject.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text:
        return None
    lines = text.split("\n")
    if lines[0] != "x,y,type":
        return None
    body = lines[1:]
    if body and not body[-1]:
        body.pop()  # the newline that ends the last row
    if {line.count(",") for line in body} != {2}:
        body = [line for line in body if line.strip()]  # csv.reader skips blank lines
        if {line.count(",") for line in body} != {2}:
            return None
    toks = ",".join(body).split(",")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, toks)) > limit:
        return None  # csv.reader refuses a field this long
    kinds = toks[2::3]
    del toks[2::3]  # leaves x0, y0, x1, y1, ...
    try:
        coords = list(map(float, toks))
        codes = {tok: int(CellType.from_token(tok)) for tok in set(kinds)}
    except ValueError:
        return None
    ts = list(map(codes.__getitem__, kinds))
    if len(set(zip(coords[0::2], coords[1::2], ts))) != len(ts):
        return None
    xy = np.array(coords, dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(xy).all():
        return None
    return xy, np.array(ts, dtype=np.uint8)


def _parse_rows(path: Union[str, Path]) -> tuple[np.ndarray, np.ndarray]:
    """Shared CSV body parser returning (xy, types); raises ingest errors.

    The whole file is parsed in bulk; a file the bulk pass does not accept
    is read again by the row-by-row parser, which reports any error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        parsed = _parse_bulk(raw.decode("utf-8"))
    except UnicodeDecodeError:
        parsed = None
    return parsed if parsed is not None else _parse_lines(path)


def parse_cells_csv(path: Union[str, Path]) -> CellCloud:
    """Parse a canonical ``x,y,type`` CSV into a cloud, preserving file order."""
    xy, types = _parse_rows(path)
    return CellCloud(xy=xy, types=types)


def _out_of_patch(path: Path, xy: np.ndarray, patch_size: float) -> OutOfPatch:
    """The error naming the file and line of its first out-of-patch row."""
    row = int(np.flatnonzero(~((xy >= 0) & (xy < patch_size)).all(axis=1))[0])
    line_no = [n for n, _ in _body_rows(path)][row]
    return OutOfPatch(
        f"{path}: line {line_no}: patch-local coordinates must lie in [0, {patch_size!r})"
    )


def load_patch_dir(
    dirpath: Union[str, Path], patch_size: float = 512.0
) -> list[PatchDetections]:
    """Load every ``patch_{x0}_{y0}.csv`` under ``dirpath`` (sorted by origin)."""
    dirpath = Path(dirpath)
    patches: list[PatchDetections] = []
    for name in sorted(p.name for p in dirpath.iterdir() if p.is_file()):
        m = _PATCH_NAME.match(name)
        if not m:
            continue
        if max(abs(int(m.group(1))), abs(int(m.group(2)))) > 2**53:
            raise ImpreciseOrigin(f"{dirpath / name}: origin beyond 2**53 px, not exact in float64")
        origin = (float(m.group(1)), float(m.group(2)))
        xy, types = _parse_rows(dirpath / name)
        try:
            patches.append(
                PatchDetections(patch_origin=origin, xy=xy, types=types, patch_size=patch_size)
            )
        except OutOfPatch:
            raise _out_of_patch(dirpath / name, xy, patch_size) from None
    patches.sort(key=lambda p: (p.patch_origin[1], p.patch_origin[0]))
    return patches


def _overlap_candidates(
    origin: np.ndarray, size: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batches of index pairs (i, j), i < j, that include every intersecting pair.

    A pair intersects only if both |dx| and |dy| are below the larger of
    its two sizes, so each patch of finite origin and size reads the square
    of its own size, or 0, around its origin (:func:`_close_pairs`): O(P)
    pairs on a tiled grid, however large or far one patch is. Every other
    patch is paired with every patch.
    """
    placed = np.isfinite(origin).all(axis=1) & np.isfinite(size)
    idx = np.flatnonzero(placed)
    if idx.size:
        for i, j in _close_pairs(origin[idx], np.maximum(size[idx], 0.0)):
            yield idx[i], idx[j]
    for f in np.flatnonzero(~placed):
        other = np.delete(np.arange(size.size), f)
        yield np.minimum(other, f), np.maximum(other, f)


def _check_disjoint(
    patches: Sequence[PatchDetections], origin: np.ndarray, size: np.ndarray
) -> None:
    """Raise on the first intersecting pair (i, j), i < j, in patch order."""
    # Rectangles are half-open [x0, x0+size) so grid-adjacent patches touch
    # without intersecting.
    ox, oy = origin[:, 0], origin[:, 1]
    first: Optional[tuple[int, int]] = None
    for i, j in _overlap_candidates(origin, size):
        # a sum overflows to inf and inf + -inf is nan, which compares False, as in Python
        with np.errstate(over="ignore", invalid="ignore"):
            hit = (
                (ox[i] < ox[j] + size[j])
                & (ox[j] < ox[i] + size[i])
                & (oy[i] < oy[j] + size[j])
                & (oy[j] < oy[i] + size[i])
            )
        if hit.any():
            k = np.lexsort((j[hit], i[hit]))[0]
            pair = (int(i[hit][k]), int(j[hit][k]))
            first = pair if first is None else min(first, pair)
    if first is not None:
        a, b = first
        raise OverlappingPatches(
            f"patches at {patches[a].patch_origin} and "
            f"{patches[b].patch_origin} intersect"
        )


def _fold(label: np.ndarray, links: list[np.ndarray]) -> np.ndarray:
    """Component labels once the (2, k) ``links`` join ``label``'s components.

    A union-find over the labels, in numpy rounds: each link between two
    roots hooks the larger root onto the smaller (a root given several
    takes the smallest, so no cycle forms), then pointer jumping takes
    every label to its root. A root that hooks nowhere in a round while
    all its neighbours hook onto smaller roots hooks in the next, so every
    component still linked to another joins one within two rounds, and
    the rounds are O(log n). A component is labelled by its smallest label.
    """
    a, b = label[np.concatenate(links, axis=1)]
    parent = np.arange(label.size)
    while True:
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        apart = hi != lo
        if not apart.any():
            return parent[label]
        hi, lo = hi[apart], lo[apart]
        np.minimum.at(parent, hi, lo)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        a, b = parent[hi], parent[lo]


def merge_boundary_cells(
    patches: Sequence[PatchDetections],
    d_boundary: float = 24.0,
    d_merge: float = 12.0,
) -> CellCloud:
    """Translate patches to slide coordinates and merge seam duplicates.

    Only cells strictly closer than ``d_boundary`` to their own patch border
    participate. Among those, same-type pairs strictly closer than
    ``d_merge`` (Euclidean) are linked; each connected component is replaced
    by one cell at the component centroid. Everything else passes through.
    Output keeps input order, a component appearing at its earliest member's
    position in that order.
    """
    if not (0 <= d_boundary < np.inf and 0 <= d_merge < np.inf):
        raise ValueError("d_boundary and d_merge must be finite and >= 0")
    if not patches:
        return CellCloud(xy=np.empty((0, 2), dtype=np.float64), types=np.empty(0, dtype=np.uint8))
    origin = np.array([p.patch_origin for p in patches], dtype=np.float64).reshape(-1, 2)
    size = np.array([p.patch_size for p in patches], dtype=np.float64)
    _check_disjoint(patches, origin, size)

    counts = [p.n_cells for p in patches]
    local = np.concatenate([p.xy for p in patches], axis=0)
    types = np.concatenate([p.types for p in patches], axis=0)
    xy = np.repeat(origin, counts, axis=0)
    xy += local
    # the band: cells closer than d_boundary to their own patch border
    lx, ly, s = local[:, 0], local[:, 1], np.repeat(size, counts)
    cand = np.flatnonzero(np.minimum(np.minimum(lx, s - lx), np.minimum(ly, s - ly)) < d_boundary)
    del local, lx, ly, s
    out_xy = xy.copy()
    keep = np.ones(xy.shape[0], dtype=bool)
    if cand.size > 1:
        # Links are folded into component labels whenever they outnumber
        # the band cells, so memory stays O(band + one pair batch).
        label, links, held = np.arange(cand.size), [], 0
        half = np.full(cand.size, d_merge * (1.0 + 1e-12))  # superset; exact filter below
        x, y = xy[:, 0], xy[:, 1]
        for a, b in _close_pairs(xy[cand], half):
            ia, ib = cand[a], cand[b]
            d2 = _d2(x[ia], y[ia], x[ib], y[ib])
            link = (types[ia] == types[ib]) & (d2 < d_merge * d_merge)
            links.append(np.stack((a[link], b[link])))
            held += links[-1].shape[1]
            if held > cand.size:
                label, links, held = _fold(label, links), [], 0
        if links:
            label = _fold(label, links)
        # Components of two or more cells collapse onto their earliest
        # member; singletons pass through. bincount sums each component's
        # members in ascending order from 0.0, as xy[members].mean(axis=0)
        # does, so the centroid is the same to the bit.
        n_members = np.bincount(label)
        multi = np.flatnonzero(n_members[label] > 1)
        if multi.size:
            comp, members = label[multi], cand[multi]
            sums = np.column_stack([np.bincount(comp, weights=v[members]) for v in (x, y)])
            heads, first = np.unique(comp, return_index=True)
            keep[members] = False
            keep[members[first]] = True
            out_xy[members[first]] = sums[heads] / n_members[heads, None]

    return CellCloud(xy=out_xy[keep], types=types[keep])


def grid_sample(cloud: CellCloud, grid_size: float = 256.0) -> CellCloud:
    """Per-(bin, type) centroid downsampling on a square grid.

    The plane is divided into ``grid_size`` squares; each (bin, type) with
    at least one member is replaced by a single cell at the member centroid.
    Output is ordered by (bin row, bin col, type). A grid so fine that a bin
    index leaves int64 raises :class:`~cellcloud.spatial.GridOverflow`.
    """
    if not 0 < grid_size < np.inf:
        raise ValueError("grid_size must be positive and finite")
    if cloud.n_total == 0:
        return cloud
    with np.errstate(over="ignore"):  # a bin past float64 is inf, rejected below
        bins = np.floor(cloud.xy / grid_size)
    if not (-_GRID_LIMIT < bins.min() and bins.max() < _GRID_LIMIT):
        raise GridOverflow(f"grid bins of size {grid_size!r} lie beyond int64 bin ids")
    cols, rows = bins.astype(np.int64).T
    order = np.lexsort((cloud.types, cols, rows))
    r, c, t = rows[order], cols[order], cloud.types[order]
    xy = np.take(cloud.xy, order, axis=0)  # cloud.xy[order], 5x faster
    boundary = np.empty(r.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1]) | (t[1:] != t[:-1])
    group = np.cumsum(boundary) - 1
    n_groups = int(group[-1]) + 1
    sums_x = np.bincount(group, weights=xy[:, 0], minlength=n_groups)
    sums_y = np.bincount(group, weights=xy[:, 1], minlength=n_groups)
    sizes = np.bincount(group, minlength=n_groups)
    out_xy = np.column_stack([sums_x / sizes, sums_y / sizes])
    out_types = t[boundary]
    return CellCloud(xy=out_xy, types=out_types)
