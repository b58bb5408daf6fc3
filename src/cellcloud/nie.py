"""Neighboring information embedding.

Each cell is described by how its neighborhood is populated, type by type,
in concentric radius shells. Two normalizations of the same shell counts
are stacked: a local one (shells divided by the cell's own outermost count,
so each type block sums to 1) and a global one (shells divided by the
largest outermost count of that type anywhere in the cloud). The one-hot
type tag is appended, giving dimension 2*n_d*T + T (21 with defaults).

Radii grow linearly to r_max = lambda_r * d_mean, where d_mean is the
cloud's mean nearest-neighbor distance, so the embedding adapts to the
cloud's own density scale and is invariant to rigid motion by construction
(only distances enter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spatial
from .core import CellCloud, CellCloudError, N_TYPES, TooFewCells
from .spatial import NeighborCounts, build_index, count_in_radii, mean_nn_distance

__all__ = [
    "DegenerateScale",
    "NieParams",
    "radii_schedule",
    "embed",
]


class DegenerateScale(CellCloudError, ValueError):
    """A radius scale d_mean that is not positive, or so large that the
    squared outer radius overflows float64.

    A cloud's own mean nearest-neighbor distance is 0 when all its cells
    coincide, and inf when the distance to a far cell overflows float64.
    """

    error_code = "degenerate_scale"


# At most this many radii, checked before anything is sized by them: a count
# chunk's int64 shell scratch (65,536 cells x n_d x 3 types) is <= 403 MB.
_MAX_RADII = 256


@dataclass(frozen=True)
class NieParams:
    """Radius schedule knobs: r_max = lambda_r * d_mean over n_d shells."""

    lambda_r: float = 4.0
    n_d: int = 3

    def __post_init__(self) -> None:
        if not (self.lambda_r > 0 and np.isfinite(self.lambda_r)):
            raise ValueError("lambda_r must be positive and finite")
        if not 1 <= self.n_d <= _MAX_RADII:
            raise ValueError(f"n_d must be between 1 and {_MAX_RADII}")


def radii_schedule(d_mean: float, params: NieParams = NieParams()) -> np.ndarray:
    """Uniform float64 radii [r_max/n_d, 2*r_max/n_d, ..., r_max]."""
    r_max = params.lambda_r * d_mean
    if not (d_mean > 0 and r_max < spatial._MAX_RADIUS):
        raise DegenerateScale(
            "radius scale d_mean (by default the cloud's mean nearest-neighbor "
            "distance) must be positive, and lambda_r * d_mean below "
            f"{spatial._MAX_RADIUS!r}, got {d_mean!r}"
        )
    j = np.arange(1, params.n_d + 1, dtype=np.float64)
    return j * r_max / params.n_d


def _embedding(nc: NeighborCounts, types: np.ndarray, threads: int = 1) -> np.ndarray:
    """[local shells || global shells || one-hot type], f32 (n, 2*T*n_d + T).

    Shell (annulus) counts are built in float64, type-major, and divided by
    the cell's own outermost count (local) and by the cloud's largest one
    (global), per type. The counts are cumulative, so a denominator is zero
    only when every shell it divides is; it is raised to 1, and the block
    stays +0.0, not NaN.
    Each quotient is rounded to float32 as it is written into the output.
    The shells are built ``spatial._QUERY_CHUNK`` rows at a time, so the
    float64 scratch stays one block per worker whatever the cloud's size;
    ``threads`` spreads the blocks, which write disjoint rows, so the output
    is the same for any thread count.
    """
    n, n_d = nc.n_cells, nc.n_radii
    counts = np.swapaxes(nc.counts, 1, 2)  # (n, T, n_d)
    # one type column at a time: max(axis=0) over (n, T, 1) is slow
    global_max = np.array([[nc.counts[:, -1, t].max(initial=0)] for t in range(N_TYPES)])
    w = N_TYPES * n_d
    out = np.zeros((n, 2 * w + N_TYPES), dtype=np.float32)

    def run(s: int) -> None:
        e = min(s + spatial._QUERY_CHUNK, n)
        part = counts[s:e]
        shells = part.astype(np.float64, order="C")
        np.subtract(shells[:, :, 1:], part[:, :, :-1], out=shells[:, :, 1:])
        for k, denom in enumerate((part[:, :, -1:], global_max)):
            block = out[s:e, k * w : (k + 1) * w].reshape(e - s, N_TYPES, n_d)
            np.divide(shells, np.maximum(denom, 1), out=block, casting="same_kind")
        out[s:e, 2 * w :][np.arange(e - s), types[s:e]] = 1.0

    spatial._each_chunk(run, n, threads)
    return out


def embed(
    cloud: CellCloud,
    params: NieParams = NieParams(),
    d_mean: Optional[float] = None,
    threads: int = 1,
) -> np.ndarray:
    """Per-cell embedding [local shells || global shells || onehot], f32.

    ``d_mean`` defaults to the cloud's own mean nearest-neighbor distance;
    pass a value to pin the radius schedule externally (e.g. a dataset-wide
    scale shared across slides).
    """
    if cloud.n_total < 2:
        raise TooFewCells("embedding needs at least 2 cells")
    if d_mean is None:
        d_mean = mean_nn_distance(cloud, threads=threads)
    radii = radii_schedule(d_mean, params)
    index = build_index(cloud, bin_size=float(radii[-1]))
    nc = count_in_radii(index, radii, threads=threads)
    del index
    return _embedding(nc, cloud.types, threads)
