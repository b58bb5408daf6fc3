"""End-to-end acceptance checks for the shipped guarantees.

One test per guarantee; each prints a single ``[criterion NN] PASS/FAIL``
line, so ``pytest tests/test_acceptance.py -s`` doubles as a release
checklist. The slow entries are the brute-force speed comparison at 100k
cells and the 50k-point forward pass; the whole file takes a few minutes.
"""

import math
import time

import numpy as np

from cellcloud.clinical import (
    ALPHA_PRESETS,
    AlphaWeights,
    BoxSpec,
    SurvivalCohort,
    c_index,
    cps,
    km_curve,
    kmeans,
    logrank,
    mcps,
    median_split,
    silhouette,
    synth_cohort,
    synth_toy_set,
)
from cellcloud.core import N_TYPES, CellCloud
from cellcloud.hsp import (
    HspConfig,
    LevelTrace,
    filter_mask,
    hsp_forward,
    init_weights,
    similarity_scores,
)
from cellcloud.ingest import PatchDetections, grid_sample, merge_boundary_cells
from cellcloud.nie import NieParams, embed, radii_schedule
from cellcloud.spatial import (
    build_index,
    count_in_radii,
    fps,
    knn_group,
    mean_nn_distance,
)

from conftest import random_cloud
from hsp_reference import count_reference, fps_reference, hsp_forward_reference, knn_reference


def _report(num: int, name: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    detail = f" ({'; '.join(problems[:4])})" if problems else ""
    print(f"[criterion {num:02d}] {status} {name}{detail}")
    assert not problems, f"criterion {num:02d}: " + "; ".join(problems)


# ---------------------------------------------------------------------------
# 1. spatial primitives match brute-force oracles on 200 randomized clouds
# ---------------------------------------------------------------------------


def test_c01_spatial_primitives_match_brute_oracles():
    problems: list[str] = []
    rng = np.random.Generator(np.random.Philox(101))
    radii = [25.0, 50.0, 75.0]
    t0 = time.monotonic()
    for case in range(200):
        n = int(rng.integers(20, 2001))
        cloud = random_cloud(rng, n)
        nc = count_in_radii(build_index(cloud, radii[-1]), radii)
        if not np.array_equal(nc.counts, count_reference(cloud.xy, cloud.types, radii)):
            problems.append(f"case {case}: counts diverge from brute force")

        m = int(rng.integers(2, 17))
        if m <= n:
            got = fps(cloud.xy, None, m, gamma=0.0)
            want = fps_reference(cloud.xy, None, m, gamma=0.0)
            if not np.array_equal(got, want):
                problems.append(f"case {case}: fps gamma=0 diverges")
            gamma = float(rng.uniform(5.0, 60.0))
            got = fps(cloud.xy, cloud.types, m, gamma=gamma)
            want = fps_reference(cloud.xy, cloud.types, m, gamma=gamma)
            if not np.array_equal(got, want):
                problems.append(f"case {case}: fps gamma={gamma:.1f} diverges")
            anchors = cloud.xy[got[: min(4, m)]]
            k = min(int(rng.integers(1, 33)), n)
            if not np.array_equal(
                knn_group(anchors, cloud.xy, k), knn_reference(anchors, cloud.xy, k)
            ):
                problems.append(f"case {case}: knn_group diverges")
        if problems:
            break
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _report(1, "spatial primitives match brute-force oracles", problems)


# ---------------------------------------------------------------------------
# 2. density normalization bounds over 10k randomized cells
# ---------------------------------------------------------------------------


def test_c02_density_normalization_bounds():
    problems: list[str] = []
    rng = np.random.Generator(np.random.Philox(202))
    cloud = random_cloud(rng, 10_000, extent=4000.0)
    d_mean = mean_nn_distance(cloud)
    n_d = NieParams().n_d

    emb = embed(cloud, d_mean=d_mean)
    if emb.shape != (10_000, 21):
        problems.append(f"embedding shape {emb.shape}, expected (10000, 21)")
    f_ld = emb[:, : N_TYPES * n_d].astype(np.float64)
    block_sums = f_ld.reshape(-1, N_TYPES, n_d).sum(axis=2)
    off = (block_sums != 0.0) & (np.abs(block_sums - 1.0) > 1e-6)
    if off.any():
        problems.append(f"{int(off.sum())} local blocks sum outside {{0, 1±1e-6}}")
    f_gd = emb[:, 9:18].astype(np.float64)
    if f_gd.min() < 0.0 or f_gd.max() > 1.0:
        problems.append(f"global densities outside [0, 1]: [{f_gd.min()}, {f_gd.max()}]")
    _report(2, "density normalization bounds on 10k cells", problems)


# ---------------------------------------------------------------------------
# 3. rigid motion leaves the embedding unchanged (5k cells)
# ---------------------------------------------------------------------------


def test_c03_embedding_rigid_motion_invariance():
    problems: list[str] = []
    rng = np.random.Generator(np.random.Philox(303))
    n = 5000
    xy = rng.uniform(0.0, 4000.0, size=(n, 2))
    types = rng.integers(0, 3, size=n).astype(np.uint8)
    cloud = CellCloud(xy=xy, types=types)

    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rot = xy @ np.array([[c, -s], [s, c]]).T
    moved = CellCloud(xy=rot - rot.min(axis=0) + 1000.0, types=types)

    diff = np.abs(embed(cloud).astype(np.float64) - embed(moved).astype(np.float64))
    if diff.max() > 1e-6:
        problems.append(f"max embedding drift {diff.max():.3e} > 1e-6")
    _report(3, "embedding invariant under rigid motion of 5k cells", problems)


# ---------------------------------------------------------------------------
# 4. toy-set clustering recovers the dense cores (seeds 0-4)
# ---------------------------------------------------------------------------


def test_c04_toy_set_clustering_recovers_cores():
    problems: list[str] = []
    for seed in range(5):
        cloud, truth = synth_toy_set(seed=seed)
        emb = embed(cloud)
        result = kmeans(emb, 4, seed=seed)
        sil = silhouette(emb, result.labels)
        core_clusters = [
            c
            for c in range(4)
            if (result.labels == c).any()
            and np.bincount(truth[result.labels == c], minlength=3).argmax() == 0
        ]
        member = np.isin(result.labels, core_clusters)
        purity = float((truth[member] == 0).mean()) if core_clusters else 0.0
        if purity <= 0.8:
            problems.append(f"seed {seed}: core purity {purity:.3f} <= 0.8")
        if sil <= 0.0:
            problems.append(f"seed {seed}: silhouette {sil:.3f} <= 0")
    _report(4, "toy-set clustering recovers dense cores", problems)


# ---------------------------------------------------------------------------
# 5. forward-pass structure at 50k points with defaults
# ---------------------------------------------------------------------------


def test_c05_forward_pass_structure_at_scale():
    problems: list[str] = []
    rng = np.random.Generator(np.random.Philox(505))
    n = 50_000
    xy = rng.uniform(0.0, 20_000.0, size=(n, 2))
    types = rng.integers(0, 3, size=n).astype(np.uint8)
    cloud = CellCloud(xy=xy, types=types)
    feats = embed(cloud)

    config = HspConfig()
    weights = init_weights(config, feats.shape[1], seed=5)
    trace: list[LevelTrace] = []
    desc = hsp_forward(cloud.xy, feats, cloud.types, weights, trace=trace)

    anchors = [lv.n_anchors for lv in trace]
    if anchors != [2048, 128, 8]:
        problems.append(f"anchor counts {anchors}, expected [2048, 128, 8]")
    if desc.shape != (512,):
        problems.append(f"descriptor shape {desc.shape}, expected (512,)")
    worst_err = max(lv.delta_sum_err for lv in trace)
    if worst_err > 1e-5:
        problems.append(f"attention weight sums off by {worst_err:.2e} > 1e-5")

    perm = rng.permutation(n)
    desc_p = hsp_forward(cloud.xy[perm], feats[perm], cloud.types[perm], weights)
    drift = np.abs(desc.astype(np.float64) - desc_p.astype(np.float64)).max()
    if drift >= 1e-4:
        problems.append(f"permutation drift {drift:.3e} >= 1e-4")
    _report(5, "forward pass structure at 50k points", problems)


# ---------------------------------------------------------------------------
# 6. forward pass matches the straight-line reference (50 weight draws)
# ---------------------------------------------------------------------------


def test_c06_forward_pass_matches_reference():
    problems: list[str] = []
    config = HspConfig(
        levels=2, initial_anchors=16, n_basic=4, encode_dim=16, dim_multiplier=2
    )
    worst = 0.0
    for draw in range(50):
        rng = np.random.Generator(np.random.Philox(6000 + draw))
        n = int(rng.integers(2, 257))
        cloud = random_cloud(rng, n, extent=500.0)
        feats = embed(cloud)
        weights = init_weights(config, feats.shape[1], seed=draw)
        got = hsp_forward(cloud.xy, feats, cloud.types, weights)
        want = hsp_forward_reference(cloud.xy, feats, cloud.types, config, weights)
        worst = max(worst, float(np.abs(got.astype(np.float64) - want).max()))
    if worst > 1e-5:
        problems.append(f"max per-element deviation {worst:.3e} > 1e-5")
    _report(6, "forward pass matches straight-line reference", problems)


# ---------------------------------------------------------------------------
# 7. the semantic-spatial filter keeps clusters and drops far noise
# ---------------------------------------------------------------------------


def test_c07_filter_retains_clusters_rejects_noise():
    problems: list[str] = []
    rng = np.random.Generator(np.random.Philox(42))
    n_cluster, n_noise = 40, 10
    xy_a = rng.normal((0.0, 0.0), 1.5, size=(20, 2))
    xy_b = rng.normal((40.0, 0.0), 1.5, size=(20, 2))
    xy_n = rng.uniform(150.0, 400.0, size=(n_noise, 2)) * rng.choice(
        [-1.0, 1.0], size=(n_noise, 2)
    )
    f_cluster = np.zeros(8)
    f_cluster[0] = 1.0
    feats = np.vstack(
        [
            np.tile(f_cluster, (n_cluster, 1))
            + rng.normal(0.0, 0.02, size=(n_cluster, 8)),
            rng.normal(0.0, 0.3, size=(n_noise, 8)),
        ]
    )
    coords = np.vstack([xy_a, xy_b, xy_n])
    anchor = coords[:n_cluster].mean(axis=0)
    scores, dist = similarity_scores(feats[None], coords[None], anchor[None])
    mask = filter_mask(scores / scores.max(), dist, 0.5)[0]

    cluster_kept = float(mask[:n_cluster].mean())
    noise_kept = float(mask[n_cluster:].mean())
    if cluster_kept < 0.9:
        problems.append(f"cluster retention {cluster_kept:.2f} < 0.9")
    if noise_kept > 0.2:
        problems.append(f"noise retention {noise_kept:.2f} > 0.2")
    _report(7, "filter keeps clusters and rejects far noise", problems)


# ---------------------------------------------------------------------------
# 8. proportion scores: exact arithmetic, box degeneracy, determinism
# ---------------------------------------------------------------------------


def _exact_count_cloud(rng, n_neo: int, n_inf: int, n_oth: int) -> CellCloud:
    n = n_neo + n_inf + n_oth
    slots = rng.choice(40_000, size=n, replace=False)
    xy = np.column_stack([(slots % 200) * 7.0, (slots // 200) * 7.0]).astype(np.float64)
    types = np.repeat(np.arange(3, dtype=np.uint8), [n_neo, n_inf, n_oth])
    return CellCloud(xy=xy, types=types)


def test_c08_proportion_scores_exact():
    problems: list[str] = []
    rng = np.random.Generator(np.random.Philox(808))
    alphas = list(ALPHA_PRESETS.values())
    for case in range(20):
        n_neo = int(rng.integers(1, 60))
        n_inf = int(rng.integers(1, 60))
        n_oth = int(rng.integers(0, 60))
        cloud = _exact_count_cloud(rng, n_neo, n_inf, n_oth)
        if case < len(alphas):
            alpha = alphas[case]
        else:
            alpha = AlphaWeights(
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.0, 2.0)),
            )
        n_total = cloud.n_total
        want = alpha.a1 * (n_neo / n_total) + alpha.a2 * (n_inf / n_total)
        want = want + alpha.a3 * (n_neo / n_inf)
        got = cps(cloud, alpha)
        if got != want:
            problems.append(f"case {case}: cps {got!r} != hand value {want!r}")
        full_box = mcps(cloud, alpha, BoxSpec(ratio_low=1.0, ratio_high=1.0, seed=case))
        if full_box != got:
            problems.append(f"case {case}: full-extent mcps {full_box!r} != cps {got!r}")
        spec = BoxSpec(seed=case)
        if mcps(cloud, alpha, spec) != mcps(cloud, alpha, spec):
            problems.append(f"case {case}: mcps not deterministic under fixed seed")
    _report(8, "proportion scores exact and deterministic", problems)


# ---------------------------------------------------------------------------
# 9. survival statistics: product-limit, concordance, log-rank
# ---------------------------------------------------------------------------

HAND_COHORTS = [
    # (times, events, expected survival values at event times)
    ([1, 2, 3], [1, 1, 1], [2 / 3, 1 / 3, 0.0]),
    ([1, 2, 3], [1, 0, 1], [2 / 3, 0.0]),
    ([2, 2, 4], [1, 0, 1], [2 / 3, 0.0]),
    (
        [1, 2, 2, 4, 5, 6, 7, 9, 10, 12],
        [1, 1, 1, 0, 1, 0, 1, 0, 1, 1],
        [9 / 10, 7 / 10, 7 / 12, 7 / 16, 7 / 32, 0.0],
    ),
    ([1, 1, 2, 3], [1, 1, 1, 0], [1 / 2, 1 / 4]),
]


def _cohort(times, events, scores=None) -> SurvivalCohort:
    times = np.asarray(times, dtype=np.float64)
    if scores is None:
        scores = np.arange(times.size, dtype=np.float64)
    return SurvivalCohort(
        scores=np.asarray(scores, dtype=np.float64),
        times=times,
        events=np.asarray(events, dtype=bool),
    )


def _c_index_oracle(cohort: SurvivalCohort) -> float:
    conc = tied = comp = 0
    n = len(cohort)
    for i in range(n):
        for j in range(i + 1, n):
            ti, tj = cohort.times[i], cohort.times[j]
            if ti == tj:
                continue
            first, other = (i, j) if ti < tj else (j, i)
            if not cohort.events[first]:
                continue
            comp += 1
            if cohort.scores[first] == cohort.scores[other]:
                tied += 1
            elif cohort.scores[first] > cohort.scores[other]:
                conc += 1
    return (conc + 0.5 * tied) / comp


def test_c09_survival_statistics():
    problems: list[str] = []
    for idx, (times, events, want) in enumerate(HAND_COHORTS):
        curve = km_curve(_cohort(times, events))
        got = [pt.survival for pt in curve]
        want = [1.0, *want]  # curves start at the (t=0, S=1) anchor point
        if len(got) != len(want) or any(
            abs(g - w) > 1e-12 for g, w in zip(got, want)
        ):
            problems.append(f"cohort {idx}: survival {got} != hand values {want}")

    rng = np.random.Generator(np.random.Philox(909))
    for case in range(100):
        n = 50
        cohort = SurvivalCohort(
            scores=rng.normal(size=n),
            times=rng.exponential(5.0, size=n) + 0.01,
            events=rng.uniform(size=n) < 0.7,
        )
        if c_index(cohort) != _c_index_oracle(cohort):
            problems.append(f"case {case}: c_index diverges from enumeration")
            break

    early = _cohort([1.0] * 50, [1] * 50)
    late = _cohort([100.0] * 50, [1] * 50)
    p = logrank(early, late)
    if not (0.0 < p < 1e-6):
        problems.append(f"extreme separation p = {p!r}, expected < 1e-6")
    if abs(logrank(early, late) - logrank(late, early)) > 1e-12:
        problems.append("logrank is not symmetric")
    _report(9, "survival statistics match hand values", problems)


# ---------------------------------------------------------------------------
# 10. multi-box scoring stratifies the synthetic cohort better
# ---------------------------------------------------------------------------


def test_c10_cohort_stratification_power():
    problems: list[str] = []
    alpha = ALPHA_PRESETS["ratio"]
    wins = 0
    for seed in range(10):
        clouds, cohort = synth_cohort(200, seed=seed)
        m_scores = np.array([mcps(c, alpha, BoxSpec(seed=seed)) for c in clouds])
        c_scores = np.array([cps(c, alpha) for c in clouds])
        p_m = logrank(*median_split(cohort.with_scores(m_scores)))
        p_c = logrank(*median_split(cohort.with_scores(c_scores)))
        if p_m >= 0.01:
            problems.append(f"seed {seed}: multi-box split p = {p_m:.3e} >= 0.01")
        if p_m <= p_c:
            wins += 1
    if wins < 8:
        problems.append(f"multi-box p <= plain p in only {wins}/10 seeds")
    _report(10, "multi-box score stratifies the synthetic cohort", problems)


# ---------------------------------------------------------------------------
# 11. counting performance: 1M cells, brute-force speedup, thread parity
# ---------------------------------------------------------------------------


def test_c11_counting_performance():
    problems: list[str] = []
    rng = np.random.Generator(np.random.Philox(1111))
    n = 1_000_000
    xy = rng.uniform(0.0, 20_000.0, size=(n, 2))
    types = rng.integers(0, 3, size=n).astype(np.uint8)
    cloud = CellCloud(xy=xy, types=types)
    radii = radii_schedule(10.0, NieParams())

    t0 = time.monotonic()
    index = build_index(cloud, radii[-1])
    single = count_in_radii(index, radii, threads=1)
    t_single = time.monotonic() - t0
    if t_single >= 30.0:
        problems.append(f"1M-cell count took {t_single:.1f}s >= 30s")

    threaded = count_in_radii(index, radii, threads=8)
    if not np.array_equal(single.counts, threaded.counts):
        problems.append("threads=8 output differs from threads=1")

    sub = cloud.subset(np.arange(100_000))
    t1 = time.monotonic()
    fast = count_in_radii(build_index(sub, radii[-1]), radii)
    t_fast = time.monotonic() - t1
    t2 = time.monotonic()
    brute = count_reference(sub.xy, sub.types, radii)
    t_brute = time.monotonic() - t2
    if not np.array_equal(fast.counts, brute):
        problems.append("fast and brute counts diverge at 100k cells")
    speedup = t_brute / max(t_fast, 1e-9)
    if speedup < 5.0:
        problems.append(f"speedup {speedup:.1f}x < 5x at 100k cells")
    _report(
        11,
        f"counting performance (1M in {t_single:.1f}s, speedup {speedup:.0f}x)",
        problems,
    )


# ---------------------------------------------------------------------------
# 12. ingestion rules: seam merging and grid downsampling
# ---------------------------------------------------------------------------


def test_c12_ingestion_rules():
    problems: list[str] = []
    # Patch A holds a seam duplicate partner, a near-miss pair (13 px), a
    # cross-type pair, an interior close pair that must NOT merge, and one
    # member of a three-cell chain across the patch corner.
    patch_a = PatchDetections(
        patch_origin=(0.0, 0.0),
        xy=[
            (507.0, 100.0),
            (500.0, 300.0),
            (505.0, 400.0),
            (250.0, 250.0),
            (255.0, 250.0),
            (510.0, 508.0),
        ],
        types=[0, 0, 0, 0, 0, 2],
    )
    patch_b = PatchDetections(
        patch_origin=(512.0, 0.0),
        xy=[(5.0, 100.0), (1.0, 300.0), (3.0, 400.0), (6.0, 509.0)],
        types=[0, 0, 1, 2],
    )
    patch_c = PatchDetections(
        patch_origin=(512.0, 512.0), xy=[(2.0, 5.0)], types=[2]
    )
    merged = merge_boundary_cells([patch_a, patch_b, patch_c])
    want_xy = np.array(
        [
            ((507.0 + 517.0) / 2.0, (100.0 + 100.0) / 2.0),
            (500.0, 300.0),
            (505.0, 400.0),
            (250.0, 250.0),
            (255.0, 250.0),
            (((510.0 + 518.0) + 514.0) / 3.0, ((508.0 + 509.0) + 517.0) / 3.0),
            (513.0, 300.0),
            (515.0, 400.0),
        ]
    )
    want_types = np.array([0, 0, 0, 0, 0, 2, 0, 1], dtype=np.uint8)
    if not (
        np.array_equal(merged.xy, want_xy)
        and np.array_equal(merged.types, want_types)
    ):
        problems.append(
            f"merged cloud has {merged.n_total} cells; expected the 8-cell fixture"
        )

    rng = np.random.Generator(np.random.Philox(1212))
    cloud = random_cloud(rng, 800, extent=2000.0)
    sampled = grid_sample(cloud, 256.0)
    bins: dict[tuple[int, int, int], list[int]] = {}
    for i in range(cloud.n_total):
        key = (
            math.floor(cloud.xy[i, 1] / 256.0),
            math.floor(cloud.xy[i, 0] / 256.0),
            int(cloud.types[i]),
        )
        bins.setdefault(key, []).append(i)
    want_rows = []
    for key in sorted(bins):
        sx = sy = 0.0
        for i in bins[key]:
            sx += cloud.xy[i, 0]
            sy += cloud.xy[i, 1]
        size = len(bins[key])
        want_rows.append((sx / size, sy / size, key[2]))
    if sampled.n_total != len(want_rows):
        problems.append(
            f"grid_sample kept {sampled.n_total} cells, oracle {len(want_rows)}"
        )
    else:
        got_rows = [
            (sampled.xy[i, 0], sampled.xy[i, 1], int(sampled.types[i]))
            for i in range(sampled.n_total)
        ]
        if got_rows != want_rows:
            problems.append("grid_sample centroids differ from per-bin oracle")
    _report(12, "seam merging and grid downsampling rules", problems)
