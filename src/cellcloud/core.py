"""Core domain types for typed 2-D cell point clouds.

A slide is represented as a flat collection of cell centroids in pixel
coordinates (40x magnification) where every cell carries one of three type
tags: neoplastic, inflammatory, or other. Clouds are stored as parallel
numpy arrays so the geometric and statistical stages can stay vectorised.

Two canonical on-disk forms are used:

* a UTF-8 CSV with header ``x,y,type`` (type as lowercase token), read by
  :mod:`cellcloud.ingest`, and
* a little-endian binary cache, defined here, magic ``CC5B``, holding
  packed ``(float64 x, float64 y, uint8 type)`` records.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Callable, Iterator, Union

import numpy as np

__all__ = [
    "N_TYPES",
    "CellType",
    "CellCloud",
    "CellCloudError",
    "EmptyCloud",
    "TooFewCells",
    "TooFewPoints",
    "DimMismatch",
    "EmptyGroup",
    "validate_cloud",
    "read_cloud",
    "write_cloud",
    "read_features",
    "write_features",
]

#: Number of distinct cell type tags. Fixed for the whole pipeline.
N_TYPES = 3

_CC5B_MAGIC = b"CC5B"
_CC5B_VERSION = 1
_CC5B_RECORD = np.dtype([("x", "<f8"), ("y", "<f8"), ("t", "u1")])

_CCEM_MAGIC = b"CCEM"
_CCEM_VERSION = 1


class CellCloudError(Exception):
    """Base class for all pipeline errors.

    ``error_code`` is a stable machine-readable token; the command line
    front end prints it as ``error_code=<token>`` on stderr.
    """

    error_code = "error"


class EmptyCloud(CellCloudError):
    error_code = "empty_cloud"


class TooFewCells(CellCloudError):
    error_code = "too_few_cells"


class TooFewPoints(CellCloudError):
    error_code = "too_few_points"


class DimMismatch(CellCloudError):
    error_code = "dim_mismatch"


class EmptyGroup(CellCloudError):
    error_code = "empty_group"


class CellType(IntEnum):
    """Cell type tag. Integer values are the on-disk encoding."""

    NEOPLASTIC = 0
    INFLAMMATORY = 1
    OTHER = 2

    @property
    def token(self) -> str:
        return self.name.lower()

    @classmethod
    def from_token(cls, token: str) -> "CellType":
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown cell type token: {token!r}") from None


def _as_xy(xy: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(xy, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"coordinates must have shape (n, 2), got {arr.shape}")
    return arr


def _as_types(types: np.ndarray, n: int) -> np.ndarray:
    arr = np.ascontiguousarray(types, dtype=np.uint8)
    if arr.shape != (n,):
        raise ValueError(f"types must have shape ({n},), got {arr.shape}")
    if arr.size and arr.max(initial=0) >= N_TYPES:
        raise ValueError("type tags must be in 0..2")
    return arr


@dataclass(frozen=True)
class CellCloud:
    """Immutable typed point set in slide pixel coordinates.

    ``xy`` is ``(n, 2)`` float64, ``types`` is ``(n,)`` uint8. Both arrays
    are made read-only on construction so views handed out by queries
    cannot mutate the cloud. ``counts_by_type`` tallies cells per tag.
    """

    xy: np.ndarray
    types: np.ndarray
    counts_by_type: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        xy = _as_xy(self.xy)
        types = _as_types(self.types, xy.shape[0])
        xy.setflags(write=False)
        types.setflags(write=False)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "types", types)
        counts = np.bincount(types, minlength=N_TYPES).astype(np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts_by_type", counts)

    @property
    def n_total(self) -> int:
        return self.xy.shape[0]

    def __len__(self) -> int:
        return self.xy.shape[0]

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Inclusive (xmin, ymin, xmax, ymax) of the cloud."""
        if self.n_total == 0:
            raise EmptyCloud("bounding box of an empty cloud is undefined")
        x, y = self.xy[:, 0], self.xy[:, 1]  # a column at a time: min(axis=0) is slow on (n, 2)
        return float(x.min()), float(y.min()), float(x.max()), float(y.max())

    def subset(self, mask_or_idx: np.ndarray) -> "CellCloud":
        rows = np.asarray(mask_or_idx)
        rows = np.flatnonzero(rows) if rows.dtype == bool else rows.astype(np.intp, copy=False)
        # np.take gathers (n, 2) rows 2-5x faster; indexing types rejects a bad mask or index
        return CellCloud(xy=np.take(self.xy, rows, axis=0), types=self.types[mask_or_idx])


def validate_cloud(cloud: CellCloud) -> list[str]:
    """Return human-readable invariant violations, one string each.

    Checks, reported grouped in this order: every coordinate finite, every
    coordinate non-negative, and no two cells sharing an exact (x, y, type)
    triple. For duplicates every occurrence after the first is reported.
    An empty list means the cloud is well formed.

    Two duplicates share x, so the scan argsorts the x column alone and
    sorts full triples only over the rows in a run of equal x, in ascending
    index order. A cloud whose x values are all distinct pays one argsort;
    one whose every x repeats (integer-pixel detections) pays that argsort
    on top of the full 3-key sort.
    """
    problems: list[str] = []
    finite = np.isfinite(cloud.xy).all(axis=1)
    for i in np.flatnonzero(~finite):
        problems.append(f"non-finite coordinate at index {int(i)}")
    negative = finite & (cloud.xy < 0).any(axis=1)
    for i in np.flatnonzero(negative):
        problems.append(f"negative coordinate at index {int(i)}")
    # Duplicate scan over the finite rows only; NaN never compares equal
    # so non-finite rows cannot form duplicates anyway.
    idx = np.flatnonzero(finite)
    cx, cy = cloud.xy[:, 0], cloud.xy[:, 1]  # column gathers: xy[idx, 0] is 3x slower
    x = cx[idx]
    ox = np.argsort(x)  # any sort: only the runs of equal x are read
    sx = x[ox]
    run = np.zeros(idx.size, dtype=bool)  # in x order: x equals a neighbour's
    np.equal(sx[1:], sx[:-1], out=run[1:])
    run[:-1] |= run[1:]
    if run.any():
        shared = np.empty_like(run)
        shared[ox] = run
        idx = idx[shared]  # still ascending
        x, y, t = cx[idx], cy[idx], cloud.types[idx]
        order = np.lexsort((t, y, x))  # stable: equal cells keep ascending idx
        sx, sy, st, si = x[order], y[order], t[order], idx[order]
        same = (sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1]) & (st[1:] == st[:-1])
        for i in np.sort(si[1:][same]):
            problems.append(f"duplicate cell at index {int(i)}")
    return problems


def _csv_rows(
    path: Union[str, Path], header: list[str], error: Callable[[int, str], Exception]
) -> Iterator[tuple[int, list[str]]]:
    """(number of its last line, fields) of each non-blank row of a UTF-8
    CSV below its header, which must be ``header`` once stripped and
    lower-cased. A wrong header, or a row ``csv`` cannot read (e.g. a field
    over ``csv.field_size_limit()``), raises ``error(line number, message)``."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            head = next(reader, None)
            if head is None or [h.strip().lower() for h in head] != header:
                raise error(1, "header must be " + ",".join(header))
            for row in reader:
                if row and (len(row) > 1 or row[0].strip()):  # blank lines are skipped
                    yield reader.line_num, row
        except csv.Error as exc:
            raise error(reader.line_num, str(exc)) from None


# ---------------------------------------------------------------------------
# binary container reader and writer
# ---------------------------------------------------------------------------


class _Container:
    """Bounds-checked cursor over one little-endian binary container file.

    Every binary reader (``CC5B``, ``CCEM``, ``CCWT``) goes through this
    class and nothing else unpacks their bytes. Opening checks the 4-byte
    magic and the u32 version; each later fixed-size read raises
    ``ValueError`` (``truncated``) before it would run past the end, so a
    hostile count never reaches an allocation. Used as a context manager,
    a clean exit rejects any bytes left unread (``trailing bytes``).
    """

    def __init__(self, path: Union[str, Path], magic: bytes, version: int, kind: str) -> None:
        self.path = path
        self.kind = kind
        self.tag = magic.decode()
        self.raw = Path(path).read_bytes()
        self.off = 4
        if self.raw[:4] != magic:
            raise ValueError(f"{path}: not a {kind}")
        (found,) = self.unpack("<I")
        if found != version:
            raise ValueError(f"{path}: unsupported {self.tag} version {found}")

    def __enter__(self) -> "_Container":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.off != len(self.raw):
            raise ValueError(f"{self.path}: trailing bytes in {self.kind}")

    @property
    def remaining(self) -> int:
        return len(self.raw) - self.off

    def _take(self, nbytes: int) -> int:
        """Advance past ``nbytes`` and return where they start."""
        if nbytes > self.remaining:
            raise ValueError(f"{self.path}: truncated {self.tag} payload")
        start = self.off
        self.off += nbytes
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.raw, self._take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        """Read-only view of the next ``count`` items of ``dtype``."""
        dtype = np.dtype(dtype)
        start = self._take(count * dtype.itemsize)
        return np.frombuffer(self.raw, dtype=dtype, count=count, offset=start)


def _write_container(path: Union[str, Path], magic: bytes, version: int, *parts) -> None:
    """Write one container: the 4-byte magic, the u32 version, then each of
    ``parts`` (bytes or a buffer such as a contiguous array) in order.

    Every binary writer goes through this function, the mirror of
    :class:`_Container`.
    """
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", version))
        for part in parts:
            fh.write(part)


# ---------------------------------------------------------------------------
# canonical cell file formats
# ---------------------------------------------------------------------------


def write_cloud(path: Union[str, Path], cloud: CellCloud) -> None:
    """Write the binary ``CC5B`` cache for ``cloud``."""
    rec = np.empty(cloud.n_total, dtype=_CC5B_RECORD)
    rec["x"] = cloud.xy[:, 0]
    rec["y"] = cloud.xy[:, 1]
    rec["t"] = cloud.types
    _write_container(path, _CC5B_MAGIC, _CC5B_VERSION, struct.pack("<Q", cloud.n_total), memoryview(rec))


def read_cloud(path: Union[str, Path]) -> CellCloud:
    """Read a ``CC5B`` cache back into a :class:`CellCloud`."""
    with _Container(path, _CC5B_MAGIC, _CC5B_VERSION, "CC5B cell cache") as box:
        (count,) = box.unpack("<Q")
        rec = box.array(_CC5B_RECORD, count)
    xy = np.empty((count, 2), dtype=np.float64)
    xy[:, 0] = rec["x"]
    xy[:, 1] = rec["y"]
    return CellCloud(xy=xy, types=rec["t"].copy())


# ---------------------------------------------------------------------------
# feature matrix cache (shared by embeddings and slide descriptors)
# ---------------------------------------------------------------------------


def write_features(path: Union[str, Path], features: np.ndarray) -> None:
    """Write a row-major float32 feature matrix, magic ``CCEM``."""
    arr = np.ascontiguousarray(features, dtype="<f4")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {arr.shape}")
    _write_container(path, _CCEM_MAGIC, _CCEM_VERSION, struct.pack("<QI", *arr.shape), memoryview(arr))


def read_features(path: Union[str, Path]) -> np.ndarray:
    with _Container(path, _CCEM_MAGIC, _CCEM_VERSION, "CCEM feature cache") as box:
        rows, dim = box.unpack("<QI")
        return box.array("<f4", rows * dim).reshape(rows, dim).copy()
