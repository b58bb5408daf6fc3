"""Straight-line reference for the hierarchical forward pass, and the
O(N^2) oracles of the spatial primitives.

Everything here is deliberately unoptimized: python loops over points,
groups and members, one matrix-vector product at a time, no batching, no
chunking, and no code shared with the library beyond the scalar squared
distance ``dx*dx + dy*dy``. The test suite compares the library's
vectorized forward pass against this module element by element, and the
helper routines (nearest-neighbor scale, farthest-point sampling, group
assignment) are exposed so a mismatch can be localized to the stage that
caused it. Those helpers are also the O(N^2) oracles that the spatial
primitives (``mean_nn_distance``, ``fps``, ``knn_group``) must match
bit-for-bit. ``count_reference``, the oracle of ``count_in_radii``, and
``nn_mean_reference`` scan every pair too, but in numpy tiles (the
count's on two threads): the tests run them at 100k and 20k cells.

The module imports numpy and the standard library only, never
``cellcloud``, so that it can be loaded by file path next to any checkout.
"""

import contextvars
from concurrent.futures import ThreadPoolExecutor

import numpy as np

N_TYPES = 3  # cell types: neoplastic, inflammatory, other


def nn_mean_reference(xy):
    """Mean distance to the nearest other point, by exhaustive pair scan.

    Every pair's ``dx*dx + dy*dy`` is formed, in numpy tiles of 256 rows by
    all columns, so that the tests can run it on tens of thousands of
    points; each point's own pair is left out by index.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    n = xy.shape[0]
    nn = np.empty(n, dtype=np.float64)
    for s in range(0, n, 256):
        e = min(s + 256, n)
        dx = xy[s:e, 0][:, None] - xy[:, 0]
        dy = xy[s:e, 1][:, None] - xy[:, 1]
        d2 = dx * dx + dy * dy
        d2[np.arange(e - s), np.arange(s, e)] = np.inf
        nn[s:e] = np.sqrt(d2.min(axis=1))
    return float(np.mean(nn))


def count_reference(xy, types, radii):
    """Per-(cell, radius, type) neighbour counts by scanning every pair.

    Returns the ``(n, len(radii), N_TYPES)`` int64 array whose ``[i, j, t]``
    is the number of type-``t`` cells ``c != i`` with
    ``dx*dx + dy*dy <= radii[j]**2``. Pairs are scanned in cache-sized
    tiles of 128 query rows by 1024 columns. Columns are sorted by type, so
    each tile holds one type and its hits per radius are counted directly.
    Two threads take alternate 128-row blocks, each with its own tiles; they
    write disjoint rows, and numpy releases the GIL inside each tile.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    types = np.asarray(types)
    r2 = np.asarray(radii, dtype=np.float64) ** 2
    n = xy.shape[0]
    by_type = np.argsort(types, kind="stable")
    col_x = xy[by_type, 0]
    col_y = xy[by_type, 1]
    bounds = np.searchsorted(types[by_type], np.arange(N_TYPES + 1))
    counts = np.zeros((n, r2.size, N_TYPES), dtype=np.int64)

    def scan(first):
        # The tiles are reused: a fresh 1 MB temporary costs a page fault per page.
        dx_tile = np.empty((128, 1024))
        dy_tile = np.empty((128, 1024))
        hit_tile = np.empty((128, 1024), dtype=bool)
        for s in range(first, n, 256):
            e = min(s + 128, n)
            qx = xy[s:e, 0][:, None]
            qy = xy[s:e, 1][:, None]
            for t in range(N_TYPES):
                for c in range(bounds[t], bounds[t + 1], 1024):
                    ce = min(c + 1024, bounds[t + 1])
                    dx = dx_tile[: e - s, : ce - c]
                    dy = dy_tile[: e - s, : ce - c]
                    hit = hit_tile[: e - s, : ce - c]
                    np.subtract(qx, col_x[c:ce], out=dx)
                    np.subtract(qy, col_y[c:ce], out=dy)
                    np.multiply(dx, dx, out=dx)
                    np.multiply(dy, dy, out=dy)
                    d2 = np.add(dx, dy, out=dx)  # dx*dx + dy*dy
                    for j, rj2 in enumerate(r2):
                        np.less_equal(d2, rj2, out=hit)
                        counts[s:e, j, t] += hit.view(np.uint8).sum(axis=1, dtype=np.uint16)

    # A pool thread starts in an empty context, so each thread runs in its
    # own copy of the caller's, which holds numpy's errstate.
    contexts = [contextvars.copy_context() for _ in range(2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(lambda ctx, first: ctx.run(scan, first), contexts, (0, 128)))
    counts[np.arange(n), :, types] -= 1  # self always falls inside every radius
    return counts


def fps_reference(xy, labels, n, gamma):
    """Greedy farthest-point sampling in the label-augmented space.

    Start at the lexicographically smallest (x, y[, label]); afterwards
    repeatedly take the point maximizing the minimum augmented squared
    distance to the selected set, first occurrence winning ties. Points
    with differing labels are 2*gamma**2 further apart (squared).
    """
    m = xy.shape[0]
    if n == 0:
        return []
    keyed = []
    for i in range(m):
        if labels is None:
            keyed.append(((xy[i, 0], xy[i, 1]), i))
        else:
            keyed.append(((xy[i, 0], xy[i, 1], labels[i]), i))
    start = min(keyed)[1]
    penalty = 2.0 * gamma * gamma

    def aug_d2(i, j):
        dx = xy[i, 0] - xy[j, 0]
        dy = xy[i, 1] - xy[j, 1]
        d2 = dx * dx + dy * dy
        if labels is not None and penalty != 0.0 and labels[i] != labels[j]:
            d2 = d2 + penalty
        return d2

    picked = [start]
    min_d2 = [aug_d2(i, start) for i in range(m)]
    min_d2[start] = -np.inf
    while len(picked) < n:
        nxt, best = 0, -np.inf
        for i in range(m):
            if min_d2[i] > best:
                best, nxt = min_d2[i], i
        picked.append(nxt)
        for i in range(m):
            d2 = aug_d2(i, nxt)
            if d2 < min_d2[i]:
                min_d2[i] = d2
        min_d2[nxt] = -np.inf
    return picked


def knn_reference(anchor_xy, xy, k):
    """k nearest points per anchor, rows ordered by (distance, index)."""
    rows = []
    for a in range(anchor_xy.shape[0]):
        scored = []
        for i in range(xy.shape[0]):
            dx = anchor_xy[a, 0] - xy[i, 0]
            dy = anchor_xy[a, 1] - xy[i, 1]
            scored.append((dx * dx + dy * dy, i))
        scored.sort()
        rows.append([i for _, i in scored[:k]])
    return rows


def _block_update(cur, mc, mask, blk):
    """One vector-attention round over a single group, member by member."""
    w_q = blk.w_q.astype(np.float64)
    b_q = blk.b_q.astype(np.float64)
    w_k = blk.w_k.astype(np.float64)
    b_k = blk.b_k.astype(np.float64)
    w_v = blk.w_v.astype(np.float64)
    b_v = blk.b_v.astype(np.float64)
    w_pos = blk.w_pos.astype(np.float64)
    b_pos = blk.b_pos.astype(np.float64)
    w_att1 = blk.w_att1.astype(np.float64)
    b_att1 = blk.b_att1.astype(np.float64)
    w_att2 = blk.w_att2.astype(np.float64)
    b_att2 = blk.b_att2.astype(np.float64)

    retained = [j for j in range(len(cur)) if mask[j]]
    q = [w_q @ f + b_q for f in cur]
    kk = [w_k @ f + b_k for f in cur]
    v = [w_v @ f + b_v for f in cur]
    out = [f.copy() for f in cur]
    for i in retained:
        pos = []
        logits = []
        for j in retained:
            rel = mc[i] - mc[j]
            p = w_pos @ rel + b_pos
            x = q[i] - kk[j] + p
            h = np.maximum(w_att1 @ x + b_att1, 0.0)
            logits.append(w_att2 @ h + b_att2)
            pos.append(p)
        logits = np.array(logits)
        logits = logits - logits.max(axis=0)
        expd = np.exp(logits)
        delta = expd / expd.sum(axis=0)
        acc = np.zeros_like(cur[i])
        for idx, j in enumerate(retained):
            acc = acc + delta[idx] * (v[j] + pos[idx])
        out[i] = acc
    return out


def hsp_forward_reference(coords, features, types, config, weights):
    """Step-by-step evaluation of the full multi-level forward pass."""
    xy = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
    raw = np.asarray(features, dtype=np.float64)
    enc_w = weights.encoder_w.astype(np.float64)
    enc_b = weights.encoder_b.astype(np.float64)
    feats = [enc_w @ raw[i] + enc_b for i in range(xy.shape[0])]
    labels = None if types is None else [int(t) for t in types]

    n_k = config.initial_anchors
    for lvl in range(config.levels):
        lw = weights.levels[lvl]
        w_agg = lw.w_agg.astype(np.float64)
        b_agg = lw.b_agg.astype(np.float64)
        pts = xy.shape[0]
        nk_eff = min(n_k, pts)
        k = (2 * pts) // nk_eff
        if k < 1:
            k = 1
        if k > pts:
            k = pts
        if lvl == 0 and labels is not None:
            gamma = nn_mean_reference(xy)
            anchors = fps_reference(xy, labels, nk_eff, gamma)
        else:
            anchors = fps_reference(xy, None, nk_eff, 0.0)
        anchor_xy = xy[np.asarray(anchors, dtype=np.int64)]
        groups = knn_reference(anchor_xy, xy, k)

        dim = feats[0].shape[0]
        new_feats = []
        for g, members in enumerate(groups):
            mf = [feats[i] for i in members]
            mc = [xy[i] for i in members]
            f_ref = np.mean(np.array(mf), axis=0)
            dist = []
            for c in mc:
                dx = c[0] - anchor_xy[g, 0]
                dy = c[1] - anchor_xy[g, 1]
                dist.append(np.sqrt(dx * dx + dy * dy))
            scale = float(np.mean(np.array(dist)))
            mask = []
            for f, di in zip(mf, dist):
                d_norm = di / scale if scale > 0 else 0.0
                s_sim = np.exp(-d_norm) * (f @ f_ref) / dim
                mask.append(bool(s_sim > config.lambda_sim))
            if not any(mask):
                nearest, best = 0, np.inf
                for j, di in enumerate(dist):
                    if di < best:
                        best, nearest = di, j
                mask[nearest] = True

            cur = [f.copy() for f in mf]
            for blk in lw.blocks:
                cur = _block_update(cur, mc, mask, blk)
            agg = np.zeros(dim * config.dim_multiplier)
            count = 0
            for j in range(len(members)):
                if mask[j]:
                    agg = agg + (w_agg @ cur[j] + b_agg)
                    count += 1
            new_feats.append(agg / count)

        xy = anchor_xy
        feats = new_feats
        labels = None
        n_k = n_k // config.n_basic
        if n_k < 1:
            n_k = 1

    out = feats[0].copy()
    for f in feats[1:]:
        out = np.maximum(out, f)
    return out.astype(np.float32)
