"""Hierarchical spatial perception forward pass.

A cell cloud is reduced to one fixed-size descriptor by L rounds of
group-attend-aggregate:

1. pick group anchors by farthest point sampling (level 1 augments the
   coordinates with scaled type one-hots so anchors cover both space and
   composition, at a scale of the cloud's mean nearest-neighbor distance);
   picks are made in rounds, each replaying the greedy loop among the
   points of largest min-distance and keeping the picks that beat every
   point outside them; each pick lowers only the points in its square of
   half-width sqrt(max min-distance) plus a rounding margin, read by rows
   of the level's grid, so the picks equal the all-points loop exactly,
2. group the 2*N/N_k nearest points around each anchor (an exact kNN
   that reads a square around each anchor from the same grid, ties broken
   by the smaller point index),
3. score members against the group mean feature and anchor position, and
   mask out low-scoring ones (a semantic-spatial filter),
4. update the retained members' features with a few rounds of per-channel
   vector attention among themselves; a group of one member takes its
   value plus position lift, v + pos, as the softmax weight 1.0 of its
   one logit gives it, bit for bit,
5. project each retained member to twice the width and average them into
   the group feature (a lone member's projection is that feature).

Steps 3 and 4 are the group stage: the public functions
:func:`similarity_scores`, :func:`filter_mask` and :func:`vector_attention`,
each batched over b groups of k members. Dropped members feed nothing after
the filter, so the forward pass hands steps 4 and 5 only the retained ones,
in their kNN order.

Each level builds one grid over its points (spatial's ``_grid``), which its
mean-NN, fps and kNN share. Anchors become the next level's points. After
the last level the features are max-pooled element-wise into the cloud
descriptor (512-dim with the default config). Weights are inference
artifacts: either loaded from a ``CCWT`` file or drawn from a seeded
counter-based generator, so a (config, seed) pair pins the descriptor
bit-for-bit across platforms.

All internal arithmetic runs in float64; weights are stored float32 and
widened exactly in each product that reads them, with no float64 copy
held, and the final descriptor is returned as float32, or refused
(:class:`DescriptorOverflow`) where a value lies beyond float32's range.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .core import CellCloudError, DimMismatch, EmptyGroup, TooFewPoints, _Container, _write_container
from .spatial import _d2, _grid, _nn_mean_xy, fps, knn_group

__all__ = [
    "DescriptorOverflow",
    "HspConfig",
    "BlockWeights",
    "LevelWeights",
    "HspWeights",
    "LevelTrace",
    "init_weights",
    "similarity_scores",
    "filter_mask",
    "vector_attention",
    "hsp_forward",
    "combine_appearance",
    "save_weights",
    "load_weights",
]

_CCWT_MAGIC = b"CCWT"
_CCWT_VERSION = 1
# The header holds these HspConfig fields in this order, then the input
# dim and the tensor count: each a u32 but lambda_sim, a float64.
_CCWT_FIELDS = (
    "levels", "initial_anchors", "n_basic", "updates_per_level", "encode_dim",
    "dim_multiplier", "lambda_sim",
)
_CCWT_HEADER = "<IIIIIIdII"

# Group batches are sized so one (batch, k, k, D) scratch tensor stays near
# this many float64 elements; attention allocates a handful of them, over
# the retained members only, so its tensors are this size at most.
_ATT_BUDGET = 4_000_000

# A config may size at most this many weights (256 MiB as float32), not
# counting the encoder columns, which grow with the input width.
_MAX_WEIGHTS = 1 << 26


class DescriptorOverflow(CellCloudError):
    """A descriptor value past float32, as the features of a far-spread
    cloud grow with its coordinates."""

    error_code = "descriptor_overflow"


@dataclass(frozen=True)
class HspConfig:
    levels: int = 3
    initial_anchors: int = 2048
    n_basic: int = 16
    lambda_sim: float = 0.5
    updates_per_level: int = 2
    encode_dim: int = 64
    dim_multiplier: int = 2

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.initial_anchors < 1 or self.n_basic < 1:
            raise ValueError("initial_anchors and n_basic must be >= 1")
        if self.updates_per_level < 1:
            raise ValueError("updates_per_level must be >= 1")
        if self.encode_dim < 1 or self.dim_multiplier < 1:
            raise ValueError("encode_dim and dim_multiplier must be >= 1")
        # The weight count is bounded before anything is sized by it, as
        # load_weights bounds a CCWT header, and before the divisibility
        # test, whose power grows with the level count.
        if _weight_count(self, _MAX_WEIGHTS) > _MAX_WEIGHTS:
            raise ValueError(f"config sizes more than {_MAX_WEIGHTS} weights")
        if self.initial_anchors % (self.n_basic ** (self.levels - 1)) != 0:
            raise ValueError(
                "initial_anchors must be divisible by n_basic**(levels-1)"
            )
        if not np.isfinite(self.lambda_sim):
            raise ValueError("lambda_sim must be finite")

    @property
    def output_dim(self) -> int:
        return self.encode_dim * self.dim_multiplier**self.levels

    def level_dim(self, level: int) -> int:
        """Feature width entering level ``level`` (0-based)."""
        return self.encode_dim * self.dim_multiplier**level


@dataclass(frozen=True)
class BlockWeights:
    """One vector-attention block: Q/K/V affines, the 2->D position lift,
    and the two-layer ReLU perceptron producing per-channel logits."""

    w_q: np.ndarray
    b_q: np.ndarray
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_pos: np.ndarray
    b_pos: np.ndarray
    w_att1: np.ndarray
    b_att1: np.ndarray
    w_att2: np.ndarray
    b_att2: np.ndarray


def _block_shapes(d: int) -> list[tuple[int, ...]]:
    """Shapes of one :class:`BlockWeights` at width ``d``, in field order:
    the Q/K/V affines, the 2->D position lift, the two-layer perceptron."""
    return [(d, d), (d,)] * 3 + [(d, 2), (d,)] + [(d, d), (d,)] * 2


_BLOCK_TENSORS = len(_block_shapes(1))


@dataclass(frozen=True)
class LevelWeights:
    blocks: tuple[BlockWeights, ...]
    w_agg: np.ndarray
    b_agg: np.ndarray


@dataclass(frozen=True)
class HspWeights:
    """The whole model: its config and every tensor that config sizes."""

    config: HspConfig
    encoder_w: np.ndarray
    encoder_b: np.ndarray
    levels: tuple[LevelWeights, ...]

    @property
    def input_dim(self) -> int:
        return self.encoder_w.shape[1]

    def tensors(self) -> Iterator[np.ndarray]:
        """All tensors in the canonical (file) order."""
        yield self.encoder_w
        yield self.encoder_b
        for lw in self.levels:
            for blk in lw.blocks:
                yield from (getattr(blk, f.name) for f in fields(blk))
            yield lw.w_agg
            yield lw.b_agg


def _weight_count(config: HspConfig, limit: int) -> int:
    """Weights in ``config``'s tensors for a zero-width input, exact up to
    ``limit``. Past ``limit`` it returns some larger count, after a number
    of steps that stays small for any config.

    Per level of width d: ``updates_per_level`` blocks of
    :func:`_block_shapes` and the aggregation m(d^2 + d).
    """
    m = config.dim_multiplier
    total = config.encode_dim  # the encoder bias
    # With m == 1 every level has the same width, so one step counts them all.
    for level in range(config.levels if m > 1 else 1):
        d = config.level_dim(level)
        block = sum(math.prod(shape) for shape in _block_shapes(d))
        per_level = config.updates_per_level * block + m * (d * d + d)
        total += per_level if m > 1 else per_level * config.levels
        if total > limit:
            break
    return total


def _tensor_shapes(config: HspConfig, input_dim: int) -> Iterator[tuple[int, ...]]:
    """Shapes in canonical order; fan_in of each tensor is its last axis
    (biases inherit their matrix's fan_in, encoded by pairing below).
    Yielded lazily, so a loader stops computing at the first mismatch."""
    yield from [(config.encode_dim, input_dim), (config.encode_dim,)]
    for lvl in range(config.levels):
        d = config.level_dim(lvl)
        for _ in range(config.updates_per_level):
            yield from _block_shapes(d)
        yield from [(d * config.dim_multiplier, d), (d * config.dim_multiplier,)]


def init_weights(config: HspConfig, input_dim: int, seed: int) -> HspWeights:
    """Draw every tensor from U[-1/sqrt(fan_in), +1/sqrt(fan_in)].

    A single counter-based (Philox) stream walks the canonical tensor
    order, so the same (config, input_dim, seed) reproduces identical bytes
    on any platform. Biases use their matrix's fan_in bound.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    shapes = _tensor_shapes(config, input_dim)
    flat: list[np.ndarray] = []
    fan_in = input_dim
    for shape in shapes:
        if len(shape) == 2:
            fan_in = shape[1]
        bound = 1.0 / np.sqrt(fan_in)
        flat.append(rng.uniform(-bound, bound, size=shape).astype(np.float32))
    return _assemble(config, flat)


def _assemble(config: HspConfig, flat: Sequence[np.ndarray]) -> HspWeights:
    it = iter(flat)
    enc_w, enc_b = next(it), next(it)
    levels = []
    for _ in range(config.levels):
        blocks = tuple(
            BlockWeights(*(next(it) for _ in range(_BLOCK_TENSORS)))
            for _ in range(config.updates_per_level)
        )
        levels.append(LevelWeights(blocks, w_agg=next(it), b_agg=next(it)))
    if next(it, None) is not None:
        raise ValueError("too many tensors for config")
    return HspWeights(config, enc_w, enc_b, tuple(levels))


# ---------------------------------------------------------------------------
# groups, similarity filter, attention
# ---------------------------------------------------------------------------


def similarity_scores(
    feats: np.ndarray, coords: np.ndarray, anchors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Semantic-spatial score exp(-d_norm) * <f, f_ref>/D per member.

    ``feats`` is (b, k, D), ``coords`` (b, k, 2), ``anchors`` (b, 2);
    ``f_ref`` is a group's mean member feature before any filtering. The
    member-to-anchor distance is normalized by the group's mean
    member-to-anchor distance, which keeps the spatial term scale-free (and
    the score translation invariant); a group collapsed onto its anchor uses
    d_norm = 0. Returns the (b, k) scores and member-to-anchor distances.
    """
    b, k = feats.shape[:2]
    if feats.ndim != 3 or coords.shape != (b, k, 2) or anchors.shape != (b, 2):
        raise ValueError("expected feats (b, k, D), coords (b, k, 2) and anchors (b, 2)")
    if k == 0:
        raise EmptyGroup("group has no members")
    cx, cy = coords[:, :, 0].copy(), coords[:, :, 1].copy()  # _d2 overwrites them
    dist = np.sqrt(_d2(cx, cy, anchors[:, :1], anchors[:, 1:]))
    # On a far-spread cloud the sums below overflow to inf, and inf / inf
    # is NaN: a NaN score clears no threshold (:func:`filter_mask`).
    with np.errstate(over="ignore", invalid="ignore"):
        f_ref = feats.mean(axis=1)
        scale = dist.mean(axis=1)
        d_norm = np.divide(
            dist, scale[:, None], out=np.zeros_like(dist), where=scale[:, None] > 0
        )
        dots = (feats * f_ref[:, None, :]).sum(axis=2)
        return np.exp(-d_norm) * dots / feats.shape[2], dist


def filter_mask(scores: np.ndarray, dist: np.ndarray, lambda_sim: float) -> np.ndarray:
    """Boolean (b, k) retention mask ``scores > lambda_sim`` with a rescue rule.

    A group where nothing clears the threshold keeps its member nearest the
    anchor (smallest ``dist``).
    """
    mask = scores > lambda_sim
    rescued = np.flatnonzero(~mask.any(axis=1))
    if rescued.size:
        mask[rescued, np.argmin(dist[rescued], axis=1)] = True
    return mask


def vector_attention(
    feats: np.ndarray,
    coords: np.ndarray,
    mask: np.ndarray,
    blk: BlockWeights,
) -> tuple[np.ndarray, float]:
    """One vector-attention update over a batch of groups.

    ``feats`` is (b, k, D), ``coords`` (b, k, 2), ``mask`` (b, k); every
    group needs at least one retained member. Masked members are excluded
    from every softmax support and value sum and pass through unchanged.
    Returns the updated features and the largest per-channel deviation of
    the attention-weight sums from 1 (over retained members), which the
    structural checks consume.

    With one member per group (k = 1) the update is ``v + pos`` and the
    deviation 0.0, computed by the same products as the general case and
    bit-equal to it wherever its logit is finite: a softmax over one finite
    logit is exactly 1.0, ``1.0 * x`` is ``x`` and a sum of one term is
    that term. The query, key and perceptron weights are then not read, so
    a logit that would overflow does not turn the update into NaN.
    """
    if not mask.any(axis=1).all():
        raise EmptyGroup("vector attention requires at least one retained member per group")
    v = feats @ blk.w_v.T + blk.b_v
    rel = coords[:, :, None, :] - coords[:, None, :, :]
    pos = rel @ blk.w_pos.T + blk.b_pos
    del rel
    if feats.shape[1] == 1:  # the softmax of one logit is 1.0 and its sum one term
        return v + pos[:, :, 0], 0.0
    q = feats @ blk.w_q.T + blk.b_q
    kk = feats @ blk.w_k.T + blk.b_k
    x = q[:, :, None, :] - kk[:, None, :, :] + pos
    del q, kk
    x = np.maximum(x @ blk.w_att1.T + blk.b_att1, 0.0)
    logits = x @ blk.w_att2.T + blk.b_att2
    del x
    logits = np.where(mask[:, None, :, None], logits, -np.inf)
    logits -= logits.max(axis=2, keepdims=True)
    np.exp(logits, out=logits)
    delta = logits / logits.sum(axis=2, keepdims=True)
    del logits
    out = (delta * (v[:, None, :, :] + pos)).sum(axis=2)
    sums = delta.sum(axis=2)[mask]
    err = float(np.abs(sums - 1.0).max()) if sums.size else 0.0
    return np.where(mask[:, :, None], out, feats), err


@dataclass
class LevelTrace:
    """Sizes and checks of one forward level.

    ``retained`` counts the group members the filter kept over all
    ``n_anchors * group_size`` members, and ``rescued`` the groups in which
    no member cleared ``lambda_sim``, so only the one nearest the anchor was
    kept.
    """

    level: int
    n_points: int
    n_anchors: int
    group_size: int
    delta_sum_err: float
    retained: int
    rescued: int


def hsp_forward(
    coords: np.ndarray,
    features: np.ndarray,
    types: Optional[np.ndarray],
    weights: HspWeights,
    *,
    trace: Optional[list] = None,
    gamma: Optional[float] = None,
) -> np.ndarray:
    """Run the full multi-level forward pass, returning the cloud descriptor.

    ``weights`` is the whole model, its config included. ``types`` feeds the
    level-1 semantic FPS augmentation; pass None to sample anchors on
    coordinates alone. Its scale ``gamma`` is the mean nearest-neighbor
    distance of the input points, computed here unless the caller, which may
    already hold it, passes it in. ``trace``, if given, collects a
    :class:`LevelTrace` per level for structural inspection.
    """
    xy = np.ascontiguousarray(coords, dtype=np.float64).reshape(-1, 2)
    n = xy.shape[0]
    if n < 2:
        raise TooFewPoints("forward pass needs at least 2 points")
    feats_in = np.ascontiguousarray(features, dtype=np.float64)
    if feats_in.ndim != 2 or feats_in.shape[0] != n:
        raise DimMismatch("features must be (n_points, input_dim)")
    if feats_in.shape[1] != weights.input_dim:
        raise DimMismatch(
            f"features have dim {feats_in.shape[1]}, weights expect {weights.input_dim}"
        )
    labels = None if types is None else np.ascontiguousarray(types)
    if labels is not None and labels.shape != (n,):
        raise DimMismatch(f"types have shape {labels.shape}, the points need ({n},)")
    config = weights.config
    feats = feats_in @ weights.encoder_w.T
    feats += weights.encoder_b
    n_k = config.initial_anchors
    for lvl, lw in enumerate(weights.levels):
        pts = xy.shape[0]
        nk_eff = min(n_k, pts)
        k = min(max(1, (2 * pts) // nk_eff), pts)
        grid = _grid(xy)  # the level's one grid, for its mean-NN, fps and kNN
        if lvl == 0 and labels is not None:
            if gamma is None:
                gamma = _nn_mean_xy(grid)
            anchors = fps(grid, labels, nk_eff, gamma)
        else:
            anchors = fps(grid, None, nk_eff, 0.0)
        anchor_xy = xy[anchors]
        groups = knn_group(anchor_xy, grid, k)
        d = feats.shape[1]
        new_feats = np.empty((nk_eff, d * config.dim_multiplier), dtype=np.float64)
        err = 0.0
        retained = rescued = 0
        chunk = max(1, _ATT_BUDGET // (k * k * d))
        for s in range(0, nk_eff, chunk):
            e = min(s + chunk, nk_eff)
            g = groups[s:e]
            scores, dist = similarity_scores(feats[g], xy[g], anchor_xy[s:e])
            mask = filter_mask(scores, dist, config.lambda_sim)
            kept = mask.sum(axis=1)
            retained += int(kept.sum())
            # a rescued group's one member is the only kept one below lambda_sim
            rescued += int(np.count_nonzero(mask & ~(scores > config.lambda_sim)))
            # Attention and aggregation read dropped members nowhere, so they
            # run on the retained ones alone: a stable sort moves each group's
            # retained members to the front in their original order, and the
            # group is cut to the largest retained count in the chunk.
            front = np.argsort(~mask, axis=1, kind="stable")[:, : kept.max()]
            g = np.take_along_axis(g, front, axis=1)
            mask = np.take_along_axis(mask, front, axis=1)
            mc = xy[g]
            cur = feats[g]
            for blk in lw.blocks:
                cur, blk_err = vector_attention(cur, mc, mask, blk)
                err = max(err, blk_err)
            proj = cur @ lw.w_agg.T + lw.b_agg
            if mask.shape[1] == 1:  # the masked mean of one member is that member
                new_feats[s:e] = proj[:, 0]
            else:
                wgt = mask[:, :, None].astype(np.float64)
                new_feats[s:e] = (proj * wgt).sum(axis=1) / kept[:, None]
        if trace is not None:
            trace.append(
                LevelTrace(
                    level=lvl + 1,
                    n_points=pts,
                    n_anchors=nk_eff,
                    group_size=k,
                    delta_sum_err=err,
                    retained=retained,
                    rescued=rescued,
                )
            )
        xy = anchor_xy
        feats = new_feats
        labels = None
        n_k = max(1, n_k // config.n_basic)
    with np.errstate(over="ignore"):  # a value past float32 is inf, rejected below
        descriptor = feats.max(axis=0).astype(np.float32)
    if not np.isfinite(descriptor).all():
        raise DescriptorOverflow("the descriptor is not finite in float32")
    return descriptor


def combine_appearance(
    f_cell_wsi: np.ndarray, f_app: np.ndarray, beta: float
) -> np.ndarray:
    """Blend the cloud descriptor with an external appearance vector."""
    a = np.asarray(f_cell_wsi, dtype=np.float64).ravel()
    b = np.asarray(f_app, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimMismatch(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return (a + beta * b).astype(np.float32)


# ---------------------------------------------------------------------------
# weight file io
# ---------------------------------------------------------------------------


def save_weights(path: Union[str, Path], weights: HspWeights) -> None:
    """Write a ``CCWT`` weight file (config header + canonical tensor list)."""
    tensors = [np.ascontiguousarray(t, dtype="<f4") for t in weights.tensors()]
    held = (getattr(weights.config, name) for name in _CCWT_FIELDS)
    header = struct.pack(_CCWT_HEADER, *held, weights.input_dim, len(tensors))
    records = []
    for arr in tensors:
        records += [struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), memoryview(arr)]
    _write_container(path, _CCWT_MAGIC, _CCWT_VERSION, header, *records)


def load_weights(path: Union[str, Path]) -> HspWeights:
    with _Container(path, _CCWT_MAGIC, _CCWT_VERSION, "CCWT weight file") as box:
        *values, input_dim, n_tensors = box.unpack(_CCWT_HEADER)
        held = dict(zip(_CCWT_FIELDS, values))
        # Bound the header before anything is sized by it: the config fixes
        # the tensor count, and every tensor record (rank, dims, float32
        # data) takes at least 12 bytes.
        expect = 2 + held["levels"] * (_BLOCK_TENSORS * held["updates_per_level"] + 2)
        if n_tensors != expect:
            raise ValueError(f"{path}: expected {expect} tensors, file has {n_tensors}")
        if 12 * n_tensors > box.remaining:
            raise ValueError(f"{path}: truncated CCWT payload ({n_tensors} tensors)")
        cfg = HspConfig(**held)
        flat: list[np.ndarray] = []
        for i, shape in enumerate(_tensor_shapes(cfg, input_dim)):
            (rank,) = box.unpack("<I")
            dims = box.unpack(f"<{rank}I")
            if dims != shape:
                raise ValueError(f"{path}: tensor shape {dims} does not match {shape}")
            flat.append(box.array("<f4", math.prod(shape)).reshape(shape).copy())
            if not np.isfinite(flat[-1]).all():
                raise ValueError(f"{path}: tensor {i} of {n_tensors} is not finite")
    return _assemble(cfg, flat)
