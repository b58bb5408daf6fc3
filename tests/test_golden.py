"""Golden digests: the per-cell passes' exact output bytes on one fixed cloud.

The cloud is clustered, snapped to a lattice so that many distances tie,
and holds cells that share a position but not a type. The level-1 sampling
and grouping, the embedding and the validation report are each hashed, and
so is the seam merge of a fixed patch grid; no step calls BLAS, so the
digests depend only on the code, never on a library's kernel choice. A
digest changes exactly when an output byte does.
"""

import hashlib

import numpy as np

from cellcloud.core import CellCloud, validate_cloud
from cellcloud.hsp import HspConfig, _nn_mean_xy
from cellcloud.ingest import PatchDetections, merge_boundary_cells
from cellcloud.nie import embed
from cellcloud.spatial import fps, knn_group

GOLDEN = {
    "fps": "8b432cdef66252c6c68b0d10a483d51c31b3385de6aeae1b2348f896781e7af3",
    "knn": "93a3c04ea9c04b5463d8456acae68e7341d7d09eed159bbb9cac601cd85c4245",
    "embed": "3c25a192699967584fc69d2d840f333ea8a7775c5af25c26d52df75d92752637",
    "validate": "046ebaf5df314d864f7c1a78d9322fb9a26f0a7fbbc4c13123f5dafc2e835e39",
}


# The FPS paths the digests above leave unpinned: level 2's unlabelled
# sampling over the level-1 anchors, and labelled sampling on a 1-D cloud.
GOLDEN_FPS = {
    "level2": "57c18f2291e0f74acc157f05e4ec405448a93cee4a0b12822e5e3885f199f425",
    "line": "508c093e71b134ea73cccd8307b9a8604d926e124096f1a897ab3b1e04c0cd27",
}


# The seam merge of golden_patches() at d_merge 12 and 13.
GOLDEN_INGEST = {"merge": "09745c881b0ab6aa9467bb38e9ad9e1b8c9222227a21cdb3e5cb928c77c3c9a9"}


def golden_cloud() -> CellCloud:
    rng = np.random.Generator(np.random.Philox(20240))
    centres = rng.uniform(50.0, 950.0, size=(12, 2))
    member = rng.integers(0, centres.shape[0], size=5000)
    xy = centres[member] + rng.normal(0.0, 25.0, size=(5000, 2))
    xy = np.round(xy / 2.5) * 2.5  # lattice: tied distances and shared positions
    xy = np.abs(xy)
    types = rng.integers(0, 3, size=5000).astype(np.uint8)
    # planted pairs at one position with differing types
    xy[4900:] = xy[:100]
    types[4900:] = (types[:100] + 1) % 3
    return CellCloud(xy=xy, types=types)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def test_golden_digests():
    cloud = golden_cloud()
    xy, types = cloud.xy, cloud.types
    nk = HspConfig().initial_anchors
    k = (2 * xy.shape[0]) // nk
    anchors = fps(xy, types, nk, _nn_mean_xy(xy))
    groups = [knn_group(xy[anchors], xy, kk) for kk in (k, 19)]  # level 1, and forward-20k's k
    emb = embed(cloud)
    # exact triples planted in shuffled rows, plus a non-finite and a negative row
    planted_xy, planted_t = xy.copy(), types.copy()
    src, dst = [4000, 12, 12, 4950], [7, 300, 3100, 10]
    planted_xy[dst], planted_t[dst] = xy[src], types[src]
    planted_xy[-1, 0] = np.nan
    planted_xy[-2, 1] = -2.5
    copy = CellCloud(xy=planted_xy, types=planted_t)
    problems = validate_cloud(copy)
    assert {
        "fps": digest(anchors.astype(np.int64)),
        "knn": digest(*(g.astype(np.int64) for g in groups)),
        "embed": digest(emb.astype(np.float32)),
        "validate": digest("\n".join(problems)),
    } == GOLDEN


def test_golden_fps_paths():
    cloud = golden_cloud()
    xy, types = cloud.xy, cloud.types
    config = HspConfig()
    nk = config.initial_anchors
    anchors = fps(xy, types, nk, _nn_mean_xy(xy))
    level2 = fps(xy[anchors], None, nk // config.n_basic, 0.0)
    line = np.column_stack([xy[:, 0], np.full(xy.shape[0], 500.0)])  # every y equal
    assert {
        "level2": digest(level2.astype(np.int64)),
        "line": digest(fps(line, types, nk, 2.5).astype(np.int64)),
    } == GOLDEN_FPS


def golden_patches() -> list[PatchDetections]:
    """A 3 x 3 grid of 512 px patches, away from the origin, whose cells
    crowd the seams and corners on an integer lattice: many same-type
    pairs lie exactly 12 or 13 px apart, many cells exactly 24 px from
    their own border, and some cells share a position."""
    rng = np.random.Generator(np.random.Philox(20241))
    patches = []
    for gy in range(3):
        for gx in range(3):
            near = rng.integers(0, 30, size=(200, 2)).astype(float)  # up to 29 px from an edge
            local = np.where(rng.uniform(size=(200, 2)) < 0.5, near, 511.0 - near)
            # one axis of most cells anywhere on a 4 px lattice: seams, not only corners
            free = rng.integers(0, 2, size=200)
            free[:20] = 2  # corners
            for axis in (0, 1):
                spread = free == axis
                local[spread, axis] = 4.0 * rng.integers(0, 128, size=int(spread.sum()))
            origin = (512.0 * gx - 1024.0, 512.0 * gy + 2.0**20)
            types = rng.integers(0, 3, size=200).astype(np.uint8)
            patches.append(PatchDetections(patch_origin=origin, xy=local, types=types))
    return patches


def test_golden_merge():
    patches = golden_patches()
    outs = [merge_boundary_cells(patches, d_merge=d) for d in (12.0, 13.0)]
    assert outs[1].n_total < outs[0].n_total < 9 * 200  # both merge, and differ
    assert {"merge": digest(*(a for out in outs for a in (out.xy, out.types)))} == GOLDEN_INGEST
