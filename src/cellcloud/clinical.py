"""Proportion-based risk scores and survival statistics.

The score side is deliberately simple: CPS is a weighted sum of three
cell-count statistics of a cloud (neoplastic fraction, inflammatory
fraction, neoplastic-to-inflammatory ratio), and MCPS averages CPS over
randomly sized and placed sub-boxes of the bounding box so that spatial
heterogeneity contributes to the score. The statistics side provides the
standard survival toolkit used to evaluate such scores: Kaplan-Meier
curves, the two-group log-rank test, and Harrell's concordance index,
plus seeded k-means and synthetic data generators for desk-scale
experiments.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence, Union

import numpy as np

from .core import CellCloud, CellCloudError, CellType, EmptyCloud, _csv_rows, _LineError

__all__ = [
    "AlphaWeights",
    "ALPHA_PRESETS",
    "BoxSpec",
    "SurvivalCohort",
    "KmPoint",
    "KMeansResult",
    "DegenerateRatio",
    "ExhaustedResampling",
    "EmptyCohort",
    "NoEvents",
    "NoComparablePairs",
    "MalformedCohort",
    "cps",
    "mcps",
    "km_curve",
    "logrank",
    "c_index",
    "kmeans",
    "silhouette",
    "median_split",
    "synth_toy_set",
    "synth_cohort",
    "read_cohort_csv",
    "write_cohort_csv",
    "write_km_csv",
]


class DegenerateRatio(CellCloudError):
    error_code = "degenerate_ratio"


class ExhaustedResampling(CellCloudError):
    error_code = "exhausted_resampling"


class EmptyCohort(CellCloudError):
    error_code = "empty_cohort"


class NoEvents(CellCloudError):
    error_code = "no_events"


class NoComparablePairs(CellCloudError):
    error_code = "no_comparable_pairs"


class MalformedCohort(_LineError, ValueError):
    """A cohort CSV that does not parse; the message names the file and line."""

    error_code = "malformed_cohort"


@dataclass(frozen=True)
class AlphaWeights:
    """Weights on [N_neo/N_total, N_inf/N_total, N_neo/N_inf]."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self) -> None:
        for v in (self.a1, self.a2, self.a3):
            if not (np.isfinite(v) and v >= 0):
                raise ValueError("alpha components must be finite and >= 0")


_EQUAL = AlphaWeights(0.33, 0.33, 0.33)
_INFLAMMATORY = AlphaWeights(0.25, 0.50, 0.25)
_RATIO = AlphaWeights(0.0, 0.0, 1.0)

#: Named presets. The disease-name aliases ship in both published orderings
#: (the tabulated assignment and the prose assignment disagree for HNSC and
#: KIRC); neither ordering is privileged.
ALPHA_PRESETS: dict[str, AlphaWeights] = {
    "equal": _EQUAL,
    "inflammatory": _INFLAMMATORY,
    "ratio": _RATIO,
    "hnsc-listed": _EQUAL,
    "kirc-listed": _INFLAMMATORY,
    "paad-listed": _RATIO,
    "hnsc-prose": _INFLAMMATORY,
    "kirc-prose": _EQUAL,
    "paad-prose": _RATIO,
}


def _cps_value(n_neo: int, n_inf: int, n_total: int, alpha: AlphaWeights) -> float:
    # Shared by cps and mcps so a box equal to the whole cloud reproduces
    # the cloud score bit-for-bit.
    s = alpha.a1 * (n_neo / n_total) + alpha.a2 * (n_inf / n_total)
    if alpha.a3 != 0.0:
        s = s + alpha.a3 * (n_neo / n_inf)
    return s


def cps(cloud: CellCloud, alpha: AlphaWeights) -> float:
    """Cell proportion score of the whole cloud."""
    n_total = cloud.n_total
    if n_total == 0:
        raise EmptyCloud("cps of an empty cloud is undefined")
    n_neo = int(cloud.counts_by_type[CellType.NEOPLASTIC])
    n_inf = int(cloud.counts_by_type[CellType.INFLAMMATORY])
    if alpha.a3 > 0 and n_inf == 0:
        raise DegenerateRatio("ratio term requires at least one inflammatory cell")
    return _cps_value(n_neo, n_inf, n_total, alpha)


@dataclass(frozen=True)
class BoxSpec:
    """Sub-box sampling parameters for MCPS."""

    n_box: int = 20
    ratio_low: float = 0.6
    ratio_high: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_box < 1:
            raise ValueError("n_box must be >= 1")
        if not (0 < self.ratio_low <= self.ratio_high <= 1):
            raise ValueError("need 0 < ratio_low <= ratio_high <= 1")


def _box_rng(seed: int, box_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(box_index,))
    return np.random.Generator(np.random.Philox(ss))


def mcps(cloud: CellCloud, alpha: AlphaWeights, boxes: BoxSpec = BoxSpec()) -> float:
    """Mean CPS over seeded random sub-boxes of the cloud's bounding box.

    Per-axis side ratios are drawn independently from
    U[ratio_low, ratio_high]; the remaining slack is split between the low
    and high margins by another uniform draw, so every box lies inside the
    bounding box (boundaries inclusive). Boxes whose contents violate the
    CPS preconditions are redrawn from the same per-box stream; more than
    100*n_box consecutive degenerate draws abort.

    Box i draws from an independent substream spawned as (seed, i), so the
    set of boxes does not depend on resampling history elsewhere.
    """
    if cloud.n_total == 0:
        raise EmptyCloud("mcps of an empty cloud is undefined")
    xmin, ymin, xmax, ymax = cloud.bounding_box()
    span_x = xmax - xmin
    span_y = ymax - ymin
    x = cloud.xy[:, 0]
    y = cloud.xy[:, 1]
    neo = cloud.types == CellType.NEOPLASTIC
    inf_ = cloud.types == CellType.INFLAMMATORY
    limit = 100 * boxes.n_box
    failures = 0
    scores: list[float] = []
    for i in range(boxes.n_box):
        rng = _box_rng(boxes.seed, i)
        while True:
            wr = rng.uniform(boxes.ratio_low, boxes.ratio_high)
            hr = rng.uniform(boxes.ratio_low, boxes.ratio_high)
            ux = rng.uniform()
            uy = rng.uniform()
            slack_x = span_x - wr * span_x
            slack_y = span_y - hr * span_y
            # interpolate the slack between both margins: exact edges when
            # the ratio is 1, so a full-ratio box is the full bounding box
            x0 = xmin + ux * slack_x
            x1 = xmax - (1.0 - ux) * slack_x
            y0 = ymin + uy * slack_y
            y1 = ymax - (1.0 - uy) * slack_y
            inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
            n_total = int(np.count_nonzero(inside))
            n_inf = int(np.count_nonzero(inside & inf_))
            if n_total == 0 or (alpha.a3 > 0 and n_inf == 0):
                failures += 1
                if failures > limit:
                    raise ExhaustedResampling(
                        f"{failures} consecutive degenerate boxes (limit {limit})"
                    )
                continue
            failures = 0
            n_neo = int(np.count_nonzero(inside & neo))
            scores.append(_cps_value(n_neo, n_inf, n_total, alpha))
            break
    # shifted compensated mean: exact when all box scores coincide (e.g.
    # ratio range [1, 1]), accurate in general
    base = scores[0]
    return base + math.fsum(s - base for s in scores) / len(scores)


# ---------------------------------------------------------------------------
# survival statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurvivalCohort:
    """Per-patient risk score, follow-up time, and event flag."""

    scores: np.ndarray
    times: np.ndarray
    events: np.ndarray
    patient_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        events = np.ascontiguousarray(self.events, dtype=bool)
        n = scores.size
        if times.shape != (n,) or events.shape != (n,):
            raise ValueError("scores, times, events must have equal length")
        if n and (not np.isfinite(times).all() or (times <= 0).any()):
            raise ValueError("times must be finite and positive")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        ids = self.patient_ids or tuple(f"p{i:04d}" for i in range(n))
        if len(ids) != n:
            raise ValueError("patient_ids length mismatch")
        for arr in (scores, times, events):
            arr.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "patient_ids", tuple(ids))

    def __len__(self) -> int:
        return self.scores.size

    @property
    def n_events(self) -> int:
        return int(self.events.sum())

    def with_scores(self, scores: Sequence[float]) -> "SurvivalCohort":
        return SurvivalCohort(
            scores=np.asarray(scores, dtype=np.float64),
            times=self.times,
            events=self.events,
            patient_ids=self.patient_ids,
        )

    def subset(self, mask: np.ndarray) -> "SurvivalCohort":
        ids = tuple(pid for pid, m in zip(self.patient_ids, mask) if m)
        return SurvivalCohort(
            scores=self.scores[mask],
            times=self.times[mask],
            events=self.events[mask],
            patient_ids=ids,
        )


class KmPoint(NamedTuple):
    time: float
    survival: float
    at_risk: int


def _risk_tables(*cohorts: SurvivalCohort) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The pooled distinct event times of ``cohorts``, ascending, and each
    cohort's (at_risk, deaths) counts at those times.

    A subject is at risk at t while its time is >= t, so one who dies or is
    censored at t still counts there: at a tied time, deaths come before
    censorings.
    """
    at = np.unique(np.concatenate([c.times[c.events] for c in cohorts]))
    tables = []
    for c in cohorts:
        times = np.sort(c.times)
        died = np.sort(c.times[c.events])
        deaths = np.searchsorted(died, at, "right") - np.searchsorted(died, at)
        tables.append((times.size - np.searchsorted(times, at), deaths))
    return at, tables


def _sum_in_order(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., left to right (``np.sum`` adds pairwise)."""
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def km_curve(cohort: SurvivalCohort) -> list[KmPoint]:
    """Kaplan-Meier product-limit curve, one point per distinct event time.

    The curve starts at (0, 1, n); the risk set and the tie rule are
    :func:`_risk_tables`'.
    """
    n = len(cohort)
    if n == 0:
        raise EmptyCohort("cannot estimate a survival curve from zero patients")
    at, [(at_risk, deaths)] = _risk_tables(cohort)
    # counts below 2**53 divide as Python's int / int does; cumprod multiplies in sequence
    surv = np.cumprod(1.0 - deaths / at_risk)
    return [KmPoint(0.0, 1.0, n), *map(KmPoint, at.tolist(), surv.tolist(), at_risk.tolist())]


def logrank(a: SurvivalCohort, b: SurvivalCohort) -> float:
    """Two-group log-rank test p-value (chi-square with 1 dof).

    Observed-minus-expected events are accumulated for the first group
    over the pooled distinct event times with the usual hypergeometric
    variance; the risk set and the tie rule are :func:`_risk_tables`'.
    The p-value is the chi-square(1) tail probability, computed through
    the exact identity sf(x) = erfc(sqrt(x/2)).
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptyCohort("log-rank requires two non-empty cohorts")
    at, [(n1, d1), (n2, d2)] = _risk_tables(a, b)
    if at.size == 0:
        raise NoEvents("log-rank requires at least one event")
    n = n1 + n2
    d = d1 + d2
    o_minus_e = _sum_in_order(d1 - d * n1 / n)
    many = n > 1  # one subject at risk adds no variance, and n - 1 would divide by 0
    variance = _sum_in_order((d * (n1 / n) * (n2 / n) * (n - d))[many] / (n - 1)[many])
    if variance == 0.0:
        raise NoEvents("log-rank statistic has zero variance")
    chi2 = o_minus_e * o_minus_e / variance
    return math.erfc(math.sqrt(chi2 / 2.0))


# c_index compares this many patients at a time against the whole cohort, so
# its boolean pair matrices hold at most _C_INDEX_ROWS * n entries.
_C_INDEX_ROWS = 256


def c_index(cohort: SurvivalCohort) -> float:
    """Harrell's concordance index of scores against survival.

    A pair is comparable when the earlier time is an event (tied times are
    not comparable). Concordance means the earlier-failing patient has the
    higher score; tied scores count half.
    """
    t = cohort.times
    e = cohort.events
    s = cohort.scores
    n_comp = conc = tied = 0
    for a in range(0, len(t), _C_INDEX_ROWS):
        b = a + _C_INDEX_ROWS
        earlier = (t[a:b, None] < t[None, :]) & e[a:b, None]  # i fails first, observed
        n_comp += int(np.count_nonzero(earlier))
        conc += int(np.count_nonzero(earlier & (s[a:b, None] > s[None, :])))
        tied += int(np.count_nonzero(earlier & (s[a:b, None] == s[None, :])))
    if n_comp == 0:
        raise NoComparablePairs("no comparable pairs in cohort")
    return (conc + 0.5 * tied) / n_comp


def median_split(cohort: SurvivalCohort) -> tuple[SurvivalCohort, SurvivalCohort]:
    """Split into (above-median, at-or-below-median) score groups."""
    n = len(cohort)
    if n == 0:
        raise EmptyCohort("cannot split an empty cohort")
    ordered = np.sort(cohort.scores)
    lo, hi = float(ordered[(n - 1) // 2]), float(ordered[n // 2])
    # np.median's (lo + hi) / 2, halved before adding where the sum overflows
    med = (lo + hi) / 2 if math.isfinite(lo + hi) else lo / 2 + hi / 2
    high = cohort.scores > med
    return cohort.subset(high), cohort.subset(~high)


# ---------------------------------------------------------------------------
# clustering helpers (toy-set analyses)
# ---------------------------------------------------------------------------


# Lloyd iterations kmeans runs at most before it stops unconverged.
_KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class KMeansResult:
    labels: np.ndarray
    centroids: np.ndarray
    n_iter: int


def kmeans(features: np.ndarray, k: int, seed: int = 0) -> KMeansResult:
    """Lloyd's algorithm with seeded farthest-point-style initialization.

    The first centroid is a seeded random row; each further centroid is the
    row farthest from the chosen set (ties to the smallest index), which
    makes runs reproducible for a fixed seed. Empty clusters keep their
    previous centroid.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be 2-D")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} rows")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    first = int(rng.integers(n))
    chosen = [first]
    min_d2 = ((x - x[first]) ** 2).sum(axis=1)
    min_d2[first] = -np.inf
    for _ in range(1, k):
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        np.minimum(min_d2, ((x - x[nxt]) ** 2).sum(axis=1), out=min_d2)
        min_d2[nxt] = -np.inf
    centroids = x[chosen].copy()
    labels = np.full(n, -1, dtype=np.int64)
    for it in range(1, _KMEANS_MAX_ITER + 1):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        if np.array_equal(new_labels, labels):
            return KMeansResult(labels=labels, centroids=centroids, n_iter=it)
        labels = new_labels
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = x[members].mean(axis=0)
    return KMeansResult(labels=labels, centroids=centroids, n_iter=_KMEANS_MAX_ITER)


def silhouette(features: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient under Euclidean distance.

    Points in singleton clusters contribute 0, the usual convention.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    lab = np.asarray(labels)
    n = x.shape[0]
    uniq = np.unique(lab)
    if uniq.size < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    vals = np.empty(n, dtype=np.float64)
    for i in range(n):
        same = lab == lab[i]
        n_same = int(np.count_nonzero(same))
        if n_same <= 1:
            vals[i] = 0.0
            continue
        d = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
        a = d[same].sum() / (n_same - 1)
        b = min(d[lab == c].mean() for c in uniq if c != lab[i])
        vals[i] = (b - a) / max(a, b)
    return float(vals.mean())


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def synth_toy_set(seed: int = 0) -> tuple[CellCloud, np.ndarray]:
    """Three-blob toy cloud with per-point location labels.

    Each of the three blobs is a superposition of a dense core Gaussian and
    a much wider, sparse fringe Gaussian at the same center, all of one
    shared cell type; a handful of isolated cells of a second type is
    scattered over the remaining canvas. Because the blob points share a
    type, their embeddings differ only through neighborhood structure,
    which is what the toy is meant to expose: clustering the embeddings
    recovers where a point sits, not what it is.

    Labels come from the generating component, so they are exact rather
    than a radius cut: 0 = core, 1 = boundary (fringe), 2 = outlier. The
    outliers are kept away from the blobs and from each other so each one
    reads as lone background clutter instead of a micro-cluster.

    Returns (cloud, labels).
    """
    n_core, s_core = 300, 30.0
    n_fringe, s_fringe = 110, 220.0
    n_out, exclusion, separation = 24, 800.0, 300.0
    centers = [(1000.0, 1000.0), (3200.0, 1200.0), (2000.0, 3200.0)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    blobs = [
        np.asarray(c) + stdev * rng.standard_normal((count, 2))
        for c in centers
        for stdev, count in ((s_core, n_core), (s_fringe, n_fringe))
    ]
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    )
    out_pts: list[np.ndarray] = []
    while len(out_pts) < n_out:
        p = rng.uniform(200.0, 4000.0, size=2)
        if any((p[0] - cx) ** 2 + (p[1] - cy) ** 2 <= exclusion**2 for cx, cy in centers):
            continue
        if any((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= separation**2 for q in out_pts):
            continue
        out_pts.append(p)
    xy = np.clip(np.concatenate([*blobs, out_pts]), 0.0, None)
    sizes = [n_core, n_fringe] * len(centers) + [n_out]
    labels = np.repeat(np.array([0, 1] * len(centers) + [2], dtype=np.int64), sizes)
    types = np.where(labels == 2, CellType.INFLAMMATORY, CellType.NEOPLASTIC).astype(np.uint8)
    cloud = CellCloud(xy=xy, types=types)
    return cloud, labels


def _patient_cloud(rng: np.random.Generator) -> tuple[CellCloud, float]:
    """One synthetic patient; returns (cloud, risk ratio).

    Neoplastic nests sit in the slide interior. A patient-specific fraction
    of the inflammatory cells infiltrates the nests; the rest collects in a
    thin band along the slide margin, the way lymphoid aggregates pool at a
    resection edge. Diffuse "other" cells fill the interior. The returned
    risk ratio is N_neo over the infiltrating inflammatory count only:
    marginal aggregates do not protect the tumor bed, so two patients with
    identical global counts can carry very different risk depending on
    where their inflammation sits.
    """
    n_neo = int(rng.integers(80, 400))
    n_inf = int(rng.integers(40, 160))
    n_other = int(rng.integers(100, 1500))
    extent = 4096.0  # side of the square slide, px
    margin = 600.0
    band = 120.0
    parts_xy = []
    parts_t = []
    n_nests = int(rng.integers(2, 6))
    nest_centers = rng.uniform(margin, extent - margin, size=(n_nests, 2))
    sizes = np.full(n_nests, n_neo // n_nests)
    sizes[: n_neo % n_nests] += 1
    for c, m in zip(nest_centers, sizes):
        pts = c + rng.uniform(50.0, 110.0) * rng.standard_normal((int(m), 2))
        parts_xy.append(pts)
        parts_t.append(np.full(int(m), int(CellType.NEOPLASTIC), dtype=np.uint8))
    infiltration = rng.uniform(0.1, 0.9)
    n_infil = max(1, int(round(infiltration * n_inf)))
    n_marginal = n_inf - n_infil
    host = rng.integers(0, n_nests, size=n_infil)
    spread = rng.uniform(100.0, 180.0)
    pts = nest_centers[host] + spread * rng.standard_normal((n_infil, 2))
    parts_xy.append(pts)
    parts_t.append(np.full(n_infil, int(CellType.INFLAMMATORY), dtype=np.uint8))
    if n_marginal > 0:
        # uniform over the frame [0, extent]^2 minus the interior square
        side = rng.integers(0, 4, size=n_marginal)
        along = rng.uniform(0.0, extent, size=n_marginal)
        across = rng.uniform(0.0, band, size=n_marginal)
        bx = np.where(side == 0, along, np.where(side == 1, along, np.where(side == 2, across, extent - across)))
        by = np.where(side == 0, across, np.where(side == 1, extent - across, np.where(side == 2, along, along)))
        parts_xy.append(np.column_stack([bx, by]))
        parts_t.append(np.full(n_marginal, int(CellType.INFLAMMATORY), dtype=np.uint8))
    parts_xy.append(rng.uniform(margin, extent - margin, size=(n_other, 2)))
    parts_t.append(np.full(n_other, int(CellType.OTHER), dtype=np.uint8))
    xy = np.clip(np.concatenate(parts_xy), 0.0, extent)
    cloud = CellCloud(xy=xy, types=np.concatenate(parts_t))
    return cloud, n_neo / n_infil


def synth_cohort(n: int, seed: int = 0) -> tuple[list[CellCloud], SurvivalCohort]:
    """Synthetic patients whose spatial composition drives their survival.

    Each patient's hazard is rate = 0.1 * (1 + ratio) where ratio is the
    patient's risk ratio from the generator (neoplastic over infiltrating
    inflammatory cells), with exponential event times and 20% independent
    uniform censoring. The returned cohort carries that true ratio as its
    score column; typical analyses replace it with a computed score via
    ``with_scores``.
    """
    clouds: list[CellCloud] = []
    ratios = np.empty(n, dtype=np.float64)
    times = np.empty(n, dtype=np.float64)
    events = np.empty(n, dtype=bool)
    for i in range(n):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        )
        cloud, ratio = _patient_cloud(rng)
        clouds.append(cloud)
        rate = 0.1 * (1.0 + ratio)
        t_event = rng.exponential(1.0 / rate)
        censored = rng.uniform() < 0.2
        if censored:
            t_obs = t_event * (1.0 - rng.uniform())  # in (0, t_event]
        else:
            t_obs = t_event
        ratios[i] = ratio
        times[i] = t_obs
        events[i] = not censored
    cohort = SurvivalCohort(scores=ratios, times=times, events=events)
    return clouds, cohort


# ---------------------------------------------------------------------------
# cohort / curve file formats
# ---------------------------------------------------------------------------

_COHORT_HEADER = ["patient_id", "score", "time", "event"]


def write_cohort_csv(path: Union[str, Path], cohort: SurvivalCohort) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(_COHORT_HEADER)
        for pid, s, t, e in zip(
            cohort.patient_ids, cohort.scores, cohort.times, cohort.events
        ):
            w.writerow([pid, repr(float(s)), repr(float(t)), int(e)])


def read_cohort_csv(path: Union[str, Path]) -> SurvivalCohort:
    ids: list[str] = []
    scores: list[float] = []
    times: list[float] = []
    events: list[bool] = []
    for line_no, row in _csv_rows(path, _COHORT_HEADER, MalformedCohort):
        if len(row) != 4 or row[3].strip() not in ("0", "1"):
            raise MalformedCohort(line_no, f"malformed cohort row {row!r}", path)
        try:
            score, time = float(row[1]), float(row[2])
        except ValueError as exc:
            raise MalformedCohort(line_no, str(exc), path) from None
        if not math.isfinite(score):
            raise MalformedCohort(line_no, f"score must be finite, got {row[1]!r}", path)
        if not 0 < time < math.inf:
            raise MalformedCohort(line_no, f"time must be finite and positive, got {row[2]!r}", path)
        ids.append(row[0])
        scores.append(score)
        times.append(time)
        events.append(row[3].strip() == "1")
    return SurvivalCohort(
        scores=np.asarray(scores, dtype=np.float64),
        times=np.asarray(times, dtype=np.float64),
        events=np.asarray(events, dtype=bool),
        patient_ids=tuple(ids),
    )


def write_km_csv(path: Union[str, Path], points: Sequence[KmPoint]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "survival", "at_risk"])
        for p in points:
            w.writerow([repr(float(p.time)), repr(float(p.survival)), int(p.at_risk)])
