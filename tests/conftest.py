"""Shared helpers for the test suite."""

import csv

import numpy as np

from cellcloud.core import CellCloud, CellType


def make_cloud(rows):
    """Build a CellCloud from (x, y, type) triples."""
    rows = list(rows)
    xy = np.array([(r[0], r[1]) for r in rows], dtype=np.float64).reshape(-1, 2)
    types = np.array([int(r[2]) for r in rows], dtype=np.uint8)
    return CellCloud(xy=xy, types=types)


def random_cloud(rng, n, extent=1000.0, n_types=3):
    """Uniform random cloud; duplicate triples are astronomically unlikely."""
    xy = rng.uniform(0.0, extent, size=(n, 2))
    types = rng.integers(0, n_types, size=n).astype(np.uint8)
    return CellCloud(xy=xy, types=types)


def write_cells_csv(path, cloud):
    """Write ``cloud`` as the canonical ``x,y,type`` CSV (floats via repr round-trip)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "type"])
        for (x, y), t in zip(cloud.xy, cloud.types):
            w.writerow([repr(float(x)), repr(float(y)), CellType(int(t)).token])
