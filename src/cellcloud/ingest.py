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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from .core import Cell, CellCloud, CellCloudError, CellType, N_TYPES

__all__ = [
    "PatchDetections",
    "MalformedRow",
    "UnknownType",
    "DuplicateCell",
    "OverlappingPatches",
    "parse_cells_csv",
    "load_patch_dir",
    "merge_boundary_cells",
    "grid_sample",
]

_PATCH_NAME = re.compile(r"^patch_(-?\d+)_(-?\d+)\.csv$")


class MalformedRow(CellCloudError):
    error_code = "malformed_row"

    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        msg = f"line {line_no}: malformed row"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class UnknownType(CellCloudError):
    error_code = "unknown_type"

    def __init__(self, line_no: int, token: str = ""):
        self.line_no = line_no
        self.token = token
        super().__init__(f"line {line_no}: unknown cell type {token!r}")


class DuplicateCell(CellCloudError):
    """Exact (x, y, type) duplicate inside one input file.

    Duplicates are rejected up front so that the only de-duplication
    behaviour in the pipeline is the explicit boundary merge.
    """

    error_code = "duplicate_cell"

    def __init__(self, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: duplicate cell")


class OverlappingPatches(CellCloudError):
    error_code = "overlapping_patches"


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
        if xy.size and (xy.min() < 0 or xy.max() >= self.patch_size):
            raise ValueError("patch-local coordinates must lie in [0, patch_size)")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "types", types)

    @property
    def n_cells(self) -> int:
        return self.xy.shape[0]


def _parse_rows(path: Union[str, Path]) -> tuple[np.ndarray, np.ndarray]:
    """Shared CSV body parser returning (xy, types); raises ingest errors."""
    xs: list[float] = []
    ys: list[float] = []
    ts: list[int] = []
    seen: set[tuple[float, float, int]] = set()
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(1, "missing header") from None
        if [h.strip().lower() for h in header] != ["x", "y", "type"]:
            raise MalformedRow(1, "header must be x,y,type")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # ignore blank lines
            if len(row) != 3:
                raise MalformedRow(line_no, f"expected 3 fields, got {len(row)}")
            try:
                x = float(row[0])
                y = float(row[1])
            except ValueError:
                raise MalformedRow(line_no, "non-numeric coordinate") from None
            if not (np.isfinite(x) and np.isfinite(y)):
                raise MalformedRow(line_no, "non-finite coordinate")
            try:
                kind = CellType.from_token(row[2])
            except ValueError:
                raise UnknownType(line_no, row[2].strip()) from None
            key = (x, y, int(kind))
            if key in seen:
                raise DuplicateCell(line_no)
            seen.add(key)
            xs.append(x)
            ys.append(y)
            ts.append(int(kind))
    xy = np.column_stack([xs, ys]) if xs else np.empty((0, 2), dtype=np.float64)
    return xy.astype(np.float64), np.asarray(ts, dtype=np.uint8)


def parse_cells_csv(path: Union[str, Path], slide_id: str = "") -> CellCloud:
    """Parse a canonical ``x,y,type`` CSV into a cloud, preserving file order."""
    xy, types = _parse_rows(path)
    return CellCloud(xy=xy, types=types, slide_id=slide_id or Path(path).stem)


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
        origin = (float(m.group(1)), float(m.group(2)))
        xy, types = _parse_rows(dirpath / name)
        patches.append(
            PatchDetections(patch_origin=origin, xy=xy, types=types, patch_size=patch_size)
        )
    patches.sort(key=lambda p: (p.patch_origin[1], p.patch_origin[0]))
    return patches


def _check_disjoint(patches: Sequence[PatchDetections]) -> None:
    # Rectangles are half-open [x0, x0+size) so grid-adjacent patches touch
    # without intersecting.
    for i in range(len(patches)):
        xi, yi = patches[i].patch_origin
        si = patches[i].patch_size
        for j in range(i + 1, len(patches)):
            xj, yj = patches[j].patch_origin
            sj = patches[j].patch_size
            if xi < xj + sj and xj < xi + si and yi < yj + sj and yj < yi + si:
                raise OverlappingPatches(
                    f"patches at {patches[i].patch_origin} and "
                    f"{patches[j].patch_origin} intersect"
                )


def merge_boundary_cells(
    patches: Sequence[PatchDetections],
    d_boundary: float = 24.0,
    d_merge: float = 12.0,
    slide_id: str = "",
) -> CellCloud:
    """Translate patches to slide coordinates and merge seam duplicates.

    Only cells strictly closer than ``d_boundary`` to their own patch border
    participate. Among those, same-type pairs strictly closer than
    ``d_merge`` (Euclidean) are linked; each connected component is replaced
    by one cell at the component centroid. Everything else passes through.
    Output keeps input order, a component appearing at its earliest member's
    position in that order.
    """
    # Imported here: csgraph adds about 25 ms to the start-up of every
    # command, and only ingest needs it.
    from scipy.sparse.csgraph import connected_components

    _check_disjoint(patches)
    if not patches:
        return CellCloud(
            xy=np.empty((0, 2), dtype=np.float64),
            types=np.empty(0, dtype=np.uint8),
            slide_id=slide_id,
        )

    xy_parts, type_parts, near_parts = [], [], []
    for p in patches:
        ox, oy = p.patch_origin
        xy_parts.append(p.xy + np.array([ox, oy], dtype=np.float64))
        type_parts.append(p.types)
        if p.n_cells:
            lx, ly = p.xy[:, 0], p.xy[:, 1]
            edge = np.minimum(
                np.minimum(lx, p.patch_size - lx), np.minimum(ly, p.patch_size - ly)
            )
            near_parts.append(edge < d_boundary)
        else:
            near_parts.append(np.empty(0, dtype=bool))
    xy = np.concatenate(xy_parts, axis=0)
    types = np.concatenate(type_parts, axis=0)
    near = np.concatenate(near_parts, axis=0)

    cand = np.flatnonzero(near)
    out_xy = xy.copy()
    keep = np.ones(xy.shape[0], dtype=bool)
    if cand.size > 1:
        tree = cKDTree(xy[cand])
        limit = float(d_merge) * (1.0 + 1e-12)  # superset; exact filter below
        a, b = tree.query_pairs(r=limit, output_type="ndarray").T
        ia, ib = cand[a], cand[b]
        dx = xy[ia, 0] - xy[ib, 0]
        dy = xy[ia, 1] - xy[ib, 1]
        link = (types[ia] == types[ib]) & (dx * dx + dy * dy < d_merge * d_merge)
        graph = coo_matrix(
            (np.ones(link.sum()), (a[link], b[link])), shape=(cand.size, cand.size)
        )
        _, label = connected_components(graph, directed=False)
        # Components of two or more cells collapse onto their earliest
        # member; singletons pass through.
        size = np.bincount(label)
        multi = np.flatnonzero(size[label] > 1)
        if multi.size:
            multi = multi[np.argsort(label[multi], kind="stable")]
            for members in np.split(cand[multi], np.cumsum(size[size > 1])[:-1]):
                out_xy[members[0]] = xy[members].mean(axis=0)
                keep[members[1:]] = False

    return CellCloud(xy=out_xy[keep], types=types[keep], slide_id=slide_id)


def grid_sample(cloud: CellCloud, grid_size: float = 256.0) -> CellCloud:
    """Per-(bin, type) centroid downsampling on a square grid.

    The plane is divided into ``grid_size`` squares; each (bin, type) with
    at least one member is replaced by a single cell at the member centroid.
    Output is ordered by (bin row, bin col, type).
    """
    if grid_size <= 0:
        raise ValueError("grid_size must be positive")
    if cloud.n_total == 0:
        return cloud
    rows = np.floor(cloud.xy[:, 1] / grid_size).astype(np.int64)
    cols = np.floor(cloud.xy[:, 0] / grid_size).astype(np.int64)
    order = np.lexsort((cloud.types, cols, rows))
    r, c, t = rows[order], cols[order], cloud.types[order]
    xy = cloud.xy[order]
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
    return CellCloud(xy=out_xy, types=out_types, slide_id=cloud.slide_id)
