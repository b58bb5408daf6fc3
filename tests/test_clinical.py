import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from cellcloud.clinical import (
    ALPHA_PRESETS,
    AlphaWeights,
    BoxSpec,
    DegenerateRatio,
    EmptyCohort,
    ExhaustedResampling,
    KmPoint,
    MalformedCohort,
    NoComparablePairs,
    NoEvents,
    SurvivalCohort,
    c_index,
    cps,
    kmeans,
    km_curve,
    logrank,
    mcps,
    median_split,
    read_cohort_csv,
    silhouette,
    synth_cohort,
    synth_toy_set,
    write_cohort_csv,
    write_km_csv,
)
from cellcloud import clinical
from cellcloud.core import CellType, EmptyCloud

from conftest import make_cloud, random_cloud

seeds = st.integers(0, 2**32 - 1)


def count_cloud(n_neo, n_inf, n_other, extent=100.0, seed=0):
    """Cloud with exact per-type counts at arbitrary distinct positions."""
    rng = np.random.Generator(np.random.Philox(seed))
    rows = []
    for kind, count in ((0, n_neo), (1, n_inf), (2, n_other)):
        for _ in range(count):
            rows.append((rng.uniform(0, extent), rng.uniform(0, extent), kind))
    return make_cloud(rows)


def make_cohort(times, events, scores=None):
    times = np.asarray(times, dtype=np.float64)
    if scores is None:
        scores = np.zeros_like(times)
    return SurvivalCohort(
        scores=np.asarray(scores, dtype=np.float64),
        times=times,
        events=np.asarray(events, dtype=bool),
    )


def km_oracle(cohort):
    """Product-limit estimator written as a direct loop over distinct times."""
    times = np.asarray(cohort.times)
    events = np.asarray(cohort.events)
    out = [KmPoint(0.0, 1.0, len(cohort))]
    surv = 1.0
    for t in sorted(set(times.tolist())):
        at_risk = int(np.count_nonzero(times >= t))
        d = int(np.count_nonzero((times == t) & events))
        if d:
            surv *= 1.0 - d / at_risk
            out.append(KmPoint(t, surv, at_risk))
    return out


def logrank_oracle(a, b):
    """Direct two-group log-rank computation; p-value via the chi-square
    survival function from an independent library implementation."""
    times = list(a.times) + list(b.times)
    events = list(a.events) + list(b.events)
    is_b = [False] * len(a) + [True] * len(b)
    o_minus_e = 0.0
    var = 0.0
    for t in sorted({t for t, e in zip(times, events) if e}):
        n1 = sum(1 for q, g in zip(times, is_b) if q >= t and not g)
        n2 = sum(1 for q, g in zip(times, is_b) if q >= t and g)
        n = n1 + n2
        d = sum(1 for q, e in zip(times, events) if q == t and e)
        d1 = sum(
            1 for q, e, g in zip(times, events, is_b) if q == t and e and not g
        )
        o_minus_e += d1 - d * n1 / n
        if n > 1:
            var += d * (n1 / n) * (n2 / n) * (n - d) / (n - 1)
    chi2 = o_minus_e * o_minus_e / var
    return float(stats.chi2.sf(chi2, df=1))


def km_loop(cohort):
    """``km_curve`` as it was written before the risk table: a loop over tie
    groups that decrements a running risk count. Its output bits are the
    ones ``km_curve`` keeps."""
    n = len(cohort)
    if n == 0:
        raise EmptyCohort("cannot estimate a survival curve from zero patients")
    order = np.argsort(cohort.times, kind="stable")
    times = cohort.times[order]
    events = cohort.events[order]
    out = [KmPoint(0.0, 1.0, n)]
    surv = 1.0
    at_risk = n
    i = 0
    while i < n:
        t = times[i]
        j = i
        deaths = 0
        while j < n and times[j] == t:
            deaths += int(events[j])
            j += 1
        if deaths:
            surv *= 1.0 - deaths / at_risk
            out.append(KmPoint(float(t), surv, at_risk))
        at_risk -= j - i
        i = j
    return out


def logrank_loop(a, b):
    """``logrank`` as it was written before the risk table: full-array masks
    per event time and Python ``+=`` sums. Its p-value bits are the ones
    ``logrank`` keeps."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyCohort("log-rank requires two non-empty cohorts")
    times = np.concatenate([a.times, b.times])
    events = np.concatenate([a.events, b.events])
    group = np.concatenate([np.zeros(len(a), bool), np.ones(len(b), bool)])
    if not events.any():
        raise NoEvents("log-rank requires at least one event")
    o_minus_e = 0.0
    variance = 0.0
    for t in np.unique(times[events]):
        at_risk = times >= t
        n1 = int(np.count_nonzero(at_risk & ~group))
        n2 = int(np.count_nonzero(at_risk & group))
        n = n1 + n2
        died = events & (times == t)
        d = int(np.count_nonzero(died))
        d1 = int(np.count_nonzero(died & ~group))
        o_minus_e += d1 - d * n1 / n
        if n > 1:
            variance += d * (n1 / n) * (n2 / n) * (n - d) / (n - 1)
    if variance == 0.0:
        raise NoEvents("log-rank statistic has zero variance")
    chi2 = o_minus_e * o_minus_e / variance
    return math.erfc(math.sqrt(chi2 / 2.0))


def c_index_oracle(cohort):
    conc = tied = comp = 0
    n = len(cohort)
    for i in range(n):
        for j in range(n):
            if cohort.times[i] < cohort.times[j] and cohort.events[i]:
                comp += 1
                if cohort.scores[i] > cohort.scores[j]:
                    conc += 1
                elif cohort.scores[i] == cohort.scores[j]:
                    tied += 1
    return (conc + 0.5 * tied) / comp


# ---------------------------------------------------------------------------
# CPS
# ---------------------------------------------------------------------------


def test_alpha_validation():
    with pytest.raises(ValueError):
        AlphaWeights(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        AlphaWeights(np.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        AlphaWeights(0.0, np.inf, 0.0)


def test_alpha_presets():
    assert set(ALPHA_PRESETS) == {
        "equal",
        "inflammatory",
        "ratio",
        "hnsc-listed",
        "kirc-listed",
        "paad-listed",
        "hnsc-prose",
        "kirc-prose",
        "paad-prose",
    }
    assert ALPHA_PRESETS["equal"] == AlphaWeights(0.33, 0.33, 0.33)
    assert ALPHA_PRESETS["ratio"] == AlphaWeights(0.0, 0.0, 1.0)
    assert ALPHA_PRESETS["paad-listed"] == ALPHA_PRESETS["paad-prose"]


def test_cps_all_neoplastic():
    cloud = count_cloud(5, 0, 0)
    assert cps(cloud, AlphaWeights(1.0, 0.0, 0.0)) == 1.0


def test_cps_equal_weights_hand_value():
    cloud = count_cloud(4, 2, 4)
    got = cps(cloud, AlphaWeights(0.33, 0.33, 0.33))
    assert got == 0.33 * (4 / 10) + 0.33 * (2 / 10) + 0.33 * (4 / 2)
    assert math.isclose(got, 0.858, rel_tol=1e-12)


def test_cps_pure_ratio():
    cloud = count_cloud(6, 3, 1)
    assert cps(cloud, AlphaWeights(0.0, 0.0, 1.0)) == 2.0


def test_cps_degenerate_ratio():
    with pytest.raises(DegenerateRatio):
        cps(count_cloud(3, 0, 2), AlphaWeights(0.0, 0.0, 1.0))
    # a3 = 0 skips the ratio entirely, so no inflammatory cells are fine
    assert cps(count_cloud(3, 0, 2), AlphaWeights(1.0, 1.0, 0.0)) == 3 / 5


def test_cps_empty_cloud():
    with pytest.raises(EmptyCloud):
        cps(make_cloud([]), AlphaWeights(1.0, 0.0, 0.0))


@settings(deadline=None)
@given(seeds, st.integers(0, 30), st.integers(1, 30), st.integers(0, 30))
def test_cps_matches_direct_arithmetic(seed, n_neo, n_inf, n_other):
    cloud = count_cloud(n_neo, n_inf, n_other, seed=seed)
    a1, a2, a3 = 0.2, 0.35, 0.45
    got = cps(cloud, AlphaWeights(a1, a2, a3))
    n_total = n_neo + n_inf + n_other
    want = a1 * (n_neo / n_total) + a2 * (n_inf / n_total)
    want = want + a3 * (n_neo / n_inf)
    assert got == want


@settings(deadline=None)
@given(seeds, st.integers(1, 20), st.integers(1, 20), st.integers(0, 20))
def test_cps_unit_axes_bounded_and_linear(seed, n_neo, n_inf, n_other):
    cloud = count_cloud(n_neo, n_inf, n_other, seed=seed)
    e1 = cps(cloud, AlphaWeights(1.0, 0.0, 0.0))
    e2 = cps(cloud, AlphaWeights(0.0, 1.0, 0.0))
    assert 0.0 <= e1 <= 1.0 and 0.0 <= e2 <= 1.0
    a = cps(cloud, AlphaWeights(0.4, 0.0, 0.0))
    b = cps(cloud, AlphaWeights(0.0, 0.7, 0.0))
    c = cps(cloud, AlphaWeights(0.0, 0.0, 0.9))
    assert cps(cloud, AlphaWeights(0.4, 0.7, 0.9)) == (a + b) + c


# ---------------------------------------------------------------------------
# MCPS
# ---------------------------------------------------------------------------


def test_box_spec_validation():
    with pytest.raises(ValueError):
        BoxSpec(n_box=0)
    with pytest.raises(ValueError):
        BoxSpec(ratio_low=0.0)
    with pytest.raises(ValueError):
        BoxSpec(ratio_high=1.2)
    with pytest.raises(ValueError):
        BoxSpec(ratio_low=0.9, ratio_high=0.8)


def test_mcps_full_ratio_equals_cps():
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(seed))
        cloud = random_cloud(rng, 200)
        for name in ("equal", "ratio", "inflammatory"):
            alpha = ALPHA_PRESETS[name]
            spec = BoxSpec(ratio_low=1.0, ratio_high=1.0, seed=seed)
            assert mcps(cloud, alpha, spec) == cps(cloud, alpha)


def test_mcps_deterministic():
    rng = np.random.Generator(np.random.Philox(3))
    cloud = random_cloud(rng, 500)
    alpha = ALPHA_PRESETS["equal"]
    a = mcps(cloud, alpha, BoxSpec(seed=11))
    b = mcps(cloud, alpha, BoxSpec(seed=11))
    c = mcps(cloud, alpha, BoxSpec(seed=12))
    assert a == b
    assert a != c


def test_mcps_concentrates_on_uniform_cloud():
    rng = np.random.Generator(np.random.Philox(4))
    cloud = random_cloud(rng, 10_000)
    alpha = ALPHA_PRESETS["equal"]
    assert abs(mcps(cloud, alpha, BoxSpec(seed=0)) - cps(cloud, alpha)) < 0.05


def test_mcps_exhausted_resampling():
    cloud = count_cloud(3, 0, 1)
    with pytest.raises(ExhaustedResampling):
        mcps(cloud, ALPHA_PRESETS["ratio"], BoxSpec(n_box=1, seed=0))


def test_mcps_resamples_empty_boxes():
    # cells concentrated in one corner; small boxes regularly catch nothing
    # and must be redrawn without derailing the run
    rows = [(float(i % 10), float(i // 10), i % 3) for i in range(60)]
    rows.append((40.0, 40.0, 1))
    cloud = make_cloud(rows)
    spec = BoxSpec(n_box=5, ratio_low=0.3, ratio_high=0.5, seed=2)
    got = mcps(cloud, ALPHA_PRESETS["equal"], spec)
    assert np.isfinite(got)


def test_mcps_empty_cloud():
    with pytest.raises(EmptyCloud):
        mcps(make_cloud([]), ALPHA_PRESETS["equal"], BoxSpec())


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------


def test_km_single_event():
    curve = km_curve(make_cohort([5.0], [True]))
    assert curve == [KmPoint(0.0, 1.0, 1), KmPoint(5.0, 0.0, 1)]


def test_km_all_censored():
    curve = km_curve(make_cohort([2.0, 4.0, 6.0], [False, False, False]))
    assert curve == [KmPoint(0.0, 1.0, 3)]


def test_km_hand_case_with_censoring():
    curve = km_curve(make_cohort([1.0, 2.0, 3.0], [True, False, True]))
    assert len(curve) == 3
    assert curve[1] == KmPoint(1.0, 1.0 - 1 / 3, 3)
    assert curve[2] == KmPoint(3.0, 0.0, 1)


def test_km_tied_deaths_and_censorings():
    # at t=2 the death is counted against the full risk set of 3
    curve = km_curve(make_cohort([2.0, 2.0, 3.0], [True, False, True]))
    assert curve[1] == KmPoint(2.0, 1.0 - 1 / 3, 3)
    assert curve[2] == KmPoint(3.0, 0.0, 1)


def test_km_empty_cohort():
    with pytest.raises(EmptyCohort):
        km_curve(make_cohort([], []))


@settings(deadline=None)
@given(
    seeds,
    st.lists(
        st.tuples(st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0]), st.booleans()),
        min_size=1,
        max_size=25,
    ),
)
def test_km_matches_oracle_and_invariants(seed, rows):
    times = [t for t, _ in rows]
    events = [e for _, e in rows]
    cohort = make_cohort(times, events)
    curve = km_curve(cohort)
    assert curve == km_oracle(cohort)
    assert curve[0] == KmPoint(0.0, 1.0, len(rows))
    surv = [p.survival for p in curve]
    assert all(a >= b for a, b in zip(surv, surv[1:]))
    assert all(0.0 <= s <= 1.0 for s in surv)
    assert len(curve) == 1 + len({t for t, e in rows if e})


# ---------------------------------------------------------------------------
# log-rank
# ---------------------------------------------------------------------------


def test_logrank_extreme_separation():
    a = make_cohort([1.0] * 50, [True] * 50)
    b = make_cohort([100.0] * 50, [True] * 50)
    assert logrank(a, b) < 1e-6


def test_logrank_smallest_valid_input():
    p = logrank(make_cohort([1.0], [True]), make_cohort([2.0], [True]))
    assert 0.0 < p < 1.0


def test_logrank_symmetry():
    rng = np.random.Generator(np.random.Philox(8))
    a = make_cohort(rng.exponential(5.0, 30) + 0.01, rng.uniform(size=30) < 0.8)
    b = make_cohort(rng.exponential(9.0, 25) + 0.01, rng.uniform(size=25) < 0.8)
    assert abs(logrank(a, b) - logrank(b, a)) < 1e-12


def test_logrank_null_distribution():
    # random splits of one population: p should look uniform, not small
    calm = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(900 + seed))
        times = rng.exponential(5.0, 80) + 0.01
        events = rng.uniform(size=80) < 0.8
        half = rng.permutation(80) < 40
        cohort = make_cohort(times, events)
        p = logrank(cohort.subset(half), cohort.subset(~half))
        calm += p > 0.05
    assert calm >= 90


def test_logrank_matches_oracle():
    for seed in range(20):
        rng = np.random.Generator(np.random.Philox(300 + seed))
        a = make_cohort(
            rng.integers(1, 10, 20).astype(float), rng.uniform(size=20) < 0.7
        )
        b = make_cohort(
            rng.integers(1, 10, 15).astype(float), rng.uniform(size=15) < 0.7
        )
        if not (a.events.any() or b.events.any()):
            continue
        assert math.isclose(logrank(a, b), logrank_oracle(a, b), rel_tol=1e-10, abs_tol=1e-12)


def test_logrank_requires_events():
    a = make_cohort([1.0, 2.0], [False, False])
    b = make_cohort([3.0], [False])
    with pytest.raises(NoEvents):
        logrank(a, b)


def test_logrank_zero_variance_rejected():
    # both groups fail at the single shared time: nothing to compare
    a = make_cohort([2.0], [True])
    b = make_cohort([2.0], [True])
    with pytest.raises(NoEvents):
        logrank(a, b)


def test_logrank_empty_group():
    with pytest.raises(EmptyCohort):
        logrank(make_cohort([], []), make_cohort([1.0], [True]))


@st.composite
def survival_groups(draw):
    """Two groups of 1-300 patients in all, with continuous or integer times
    (integer times tie deaths with censorings). Either group may have one
    patient and the second may be empty. Each group's events are none, one,
    all, or a random share; ``shared`` puts everyone at one time, all dying,
    which gives zero variance."""
    rng = np.random.Generator(np.random.Philox(draw(seeds)))
    n_a = draw(st.integers(1, 150))
    n_b = 0 if draw(st.integers(0, 9)) == 0 else draw(st.integers(1, 150))
    integer = draw(st.booleans())
    shared = draw(st.integers(0, 9)) == 0
    groups = []
    for n in (n_a, n_b):
        if shared:
            times, events = np.full(n, 2.0), np.ones(n, bool)
        else:
            times = rng.integers(1, 8, n).astype(float) if integer else rng.exponential(5.0, n) + 0.01
            kind = draw(st.sampled_from(["none", "one", "all", "share"]))
            if kind == "share":
                events = rng.uniform(size=n) < draw(st.floats(0.0, 1.0))
            else:
                events = np.zeros(n, bool)
                events[: {"none": 0, "one": 1, "all": n}[kind]] = True
                rng.shuffle(events)
        groups.append(make_cohort(times, events))
    return groups


def outcome(fn, *args):
    try:
        return fn(*args)
    except (EmptyCohort, NoEvents) as exc:
        return type(exc)


@settings(deadline=None, max_examples=300)
@given(survival_groups())
def test_km_and_logrank_keep_the_loop_bits(groups):
    a, b = groups
    for g in groups:
        assert outcome(km_curve, g) == outcome(km_loop, g)
    assert outcome(logrank, a, b) == outcome(logrank_loop, a, b)
    assert outcome(logrank, b, a) == outcome(logrank_loop, b, a)


# ---------------------------------------------------------------------------
# concordance index
# ---------------------------------------------------------------------------


def test_c_index_perfect_and_reversed():
    times = [1.0, 2.0, 3.0, 4.0]
    events = [True] * 4
    assert c_index(make_cohort(times, events, scores=[4.0, 3.0, 2.0, 1.0])) == 1.0
    assert c_index(make_cohort(times, events, scores=[1.0, 2.0, 3.0, 4.0])) == 0.0


def test_c_index_tied_scores_count_half():
    cohort = make_cohort([1.0, 2.0, 3.0], [True] * 3, scores=[5.0, 5.0, 1.0])
    assert c_index(cohort) == 2.5 / 3


def test_c_index_tied_times_not_comparable():
    with pytest.raises(NoComparablePairs):
        c_index(make_cohort([1.0, 1.0], [True, True], scores=[2.0, 1.0]))


def test_c_index_censored_earlier_not_comparable():
    with pytest.raises(NoComparablePairs):
        c_index(make_cohort([1.0, 2.0], [False, True], scores=[2.0, 1.0]))


@settings(deadline=None)
@given(seeds, st.integers(2, 25))
def test_c_index_matches_exhaustive_enumeration(seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    cohort = make_cohort(
        rng.integers(1, 12, n).astype(float),
        rng.uniform(size=n) < 0.7,
        scores=rng.integers(0, 6, n).astype(float),
    )
    comparable = sum(
        1
        for i in range(n)
        for j in range(n)
        if cohort.times[i] < cohort.times[j] and cohort.events[i]
    )
    if comparable == 0:
        with pytest.raises(NoComparablePairs):
            c_index(cohort)
        return
    assert c_index(cohort) == c_index_oracle(cohort)


def test_c_index_in_row_blocks_matches_enumeration(monkeypatch):
    monkeypatch.setattr(clinical, "_C_INDEX_ROWS", 3)
    rng = np.random.Generator(np.random.Philox(23))
    n = 20
    cohort = make_cohort(
        rng.integers(1, 8, n).astype(float),
        rng.uniform(size=n) < 0.6,
        scores=rng.integers(0, 4, n).astype(float),
    )
    assert c_index(cohort) == c_index_oracle(cohort)


def test_c_index_complement_without_ties():
    rng = np.random.Generator(np.random.Philox(17))
    n = 40
    cohort = make_cohort(
        rng.uniform(1.0, 50.0, n), rng.uniform(size=n) < 0.7, scores=rng.permutation(n)
    )
    flipped = cohort.with_scores(-cohort.scores)
    assert abs(c_index(cohort) + c_index(flipped) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# median split
# ---------------------------------------------------------------------------


def test_median_split_hand_case():
    cohort = make_cohort([1.0, 2.0, 3.0, 4.0], [True] * 4, scores=[1.0, 2.0, 3.0, 4.0])
    high, low = median_split(cohort)
    assert list(high.scores) == [3.0, 4.0]
    assert list(low.scores) == [1.0, 2.0]
    assert high.patient_ids == ("p0002", "p0003")


def test_median_split_all_equal_scores():
    cohort = make_cohort([1.0, 2.0], [True, True], scores=[7.0, 7.0])
    high, low = median_split(cohort)
    assert len(high) == 0 and len(low) == 2


@settings(deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
@example([1.0, 8.988465674311579e307, 8.98846567431158e307, 1.7e308])  # the sum overflows
@example([-1.7e308, -1.6e308])
@example([5e-324, 5e-324, 1e-323])  # subnormals: halving first would round
def test_median_split_at_the_rounded_median_without_overflow(scores):
    # The split point is the two middle scores' midpoint, rounded once: what
    # np.median gives wherever their sum stays finite, and beyond that too.
    ordered = sorted(scores)
    n = len(scores)
    med = float((Fraction(ordered[(n - 1) // 2]) + Fraction(ordered[n // 2])) / 2)
    high, low = median_split(make_cohort(np.ones(n), np.ones(n, bool), scores=scores))
    assert high.scores.tolist() == [s for s in scores if s > med]
    assert low.scores.tolist() == [s for s in scores if not s > med]
    with np.errstate(over="ignore"):
        numpy_med = np.median(scores)
    assert numpy_med == med or not np.isfinite(numpy_med)


def test_median_split_empty():
    with pytest.raises(EmptyCohort):
        median_split(make_cohort([], []))


# ---------------------------------------------------------------------------
# k-means and silhouette
# ---------------------------------------------------------------------------


def test_kmeans_each_point_own_cluster():
    rng = np.random.Generator(np.random.Philox(0))
    x = rng.normal(size=(6, 3))
    res = kmeans(x, k=6, seed=0)
    assert sorted(res.labels.tolist()) == list(range(6))
    assert np.allclose(res.centroids[res.labels], x)


def test_kmeans_separated_blobs():
    rng = np.random.Generator(np.random.Philox(1))
    a = rng.normal(size=(30, 2)) + [0.0, 0.0]
    b = rng.normal(size=(25, 2)) + [100.0, 0.0]
    x = np.vstack([a, b])
    res = kmeans(x, k=2, seed=0)
    assert len(set(res.labels[:30].tolist())) == 1
    assert len(set(res.labels[30:].tolist())) == 1
    assert res.labels[0] != res.labels[-1]


def test_kmeans_deterministic():
    rng = np.random.Generator(np.random.Philox(2))
    x = rng.normal(size=(50, 4))
    a = kmeans(x, k=5, seed=9)
    b = kmeans(x, k=5, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.n_iter == b.n_iter


def test_kmeans_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans(x, k=0)
    with pytest.raises(ValueError):
        kmeans(x, k=5)
    with pytest.raises(ValueError):
        kmeans(np.zeros(4), k=2)


def test_kmeans_labels_well_formed():
    rng = np.random.Generator(np.random.Philox(3))
    x = rng.normal(size=(40, 3))
    res = kmeans(x, k=4, seed=1)
    assert res.labels.shape == (40,)
    assert set(res.labels.tolist()) <= set(range(4))
    assert 1 <= res.n_iter <= 100


def test_silhouette_hand_case():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    got = silhouette(x, labels)
    vals = []
    for i in range(4):
        a = np.linalg.norm(x[i] - x[labels == labels[i]], axis=1).sum() / 1
        b = np.linalg.norm(x[i] - x[labels != labels[i]], axis=1).mean()
        vals.append((b - a) / max(a, b))
    assert math.isclose(got, np.mean(vals), rel_tol=1e-12)
    assert got > 0.8


def test_silhouette_matches_full_distance_matrix():
    rng = np.random.Generator(np.random.Philox(21))
    x = rng.normal(size=(60, 5))
    labels = rng.integers(0, 3, size=60)
    labels[0] = 3  # a singleton cluster
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    vals = []
    for i in range(60):
        same = labels == labels[i]
        if same.sum() == 1:
            vals.append(0.0)
            continue
        a = d[i, same].sum() / (same.sum() - 1)
        b = min(d[i, labels == c].mean() for c in np.unique(labels) if c != labels[i])
        vals.append((b - a) / max(a, b))
    assert silhouette(x, labels) == float(np.mean(vals))


def test_silhouette_singletons_contribute_zero():
    x = np.array([[0.0, 0.0], [5.0, 5.0]])
    assert silhouette(x, np.array([0, 1])) == 0.0


def test_silhouette_needs_two_clusters():
    with pytest.raises(ValueError):
        silhouette(np.zeros((3, 2)), np.zeros(3))


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def test_synth_toy_set_structure():
    cloud, labels = synth_toy_set(seed=0)
    cloud2, labels2 = synth_toy_set(seed=0)
    assert np.array_equal(cloud.xy, cloud2.xy)
    assert np.array_equal(labels, labels2)
    assert cloud.n_total == 3 * 410 + 24
    assert np.count_nonzero(labels == 0) == 900
    assert np.count_nonzero(labels == 1) == 330
    assert np.count_nonzero(labels == 2) == 24
    assert (cloud.xy >= 0).all()
    # outliers: one per spot, far from the blob centers and from each other
    out = cloud.xy[labels == 2]
    assert np.all(cloud.types[labels == 2] == int(CellType.INFLAMMATORY))
    assert np.all(cloud.types[labels != 2] == int(CellType.NEOPLASTIC))
    centers = np.array([[1000.0, 1000.0], [3200.0, 1200.0], [2000.0, 3200.0]])
    d_centers = np.sqrt(((out[:, None, :] - centers[None]) ** 2).sum(axis=2))
    assert d_centers.min() > 800.0
    pair = np.sqrt(((out[:, None, :] - out[None]) ** 2).sum(axis=2))
    np.fill_diagonal(pair, np.inf)
    assert pair.min() > 300.0


def test_synth_cohort_reproducible():
    clouds_a, cohort_a = synth_cohort(8, seed=5)
    clouds_b, cohort_b = synth_cohort(8, seed=5)
    assert len(clouds_a) == 8 and len(cohort_a) == 8
    assert np.array_equal(cohort_a.times, cohort_b.times)
    assert np.array_equal(cohort_a.events, cohort_b.events)
    assert np.array_equal(cohort_a.scores, cohort_b.scores)
    for a, b in zip(clouds_a, clouds_b):
        assert np.array_equal(a.xy, b.xy)
        assert np.array_equal(a.types, b.types)


def test_synth_cohort_statistics():
    _, cohort = synth_cohort(500, seed=0)
    censored = 1.0 - cohort.events.mean()
    assert 0.1 <= censored <= 0.3
    rho = stats.spearmanr(cohort.scores, cohort.times).statistic
    assert rho < 0
    assert (cohort.times > 0).all()
    assert (cohort.scores > 0).all()


# ---------------------------------------------------------------------------
# cohort and curve files
# ---------------------------------------------------------------------------


def test_cohort_validation():
    with pytest.raises(ValueError):
        make_cohort([0.0], [True])
    with pytest.raises(ValueError):
        make_cohort([-1.0], [True])
    with pytest.raises(ValueError):
        make_cohort([np.inf], [True])
    with pytest.raises(ValueError):
        make_cohort([1.0, 2.0], [True])
    with pytest.raises(ValueError):
        SurvivalCohort(
            scores=np.array([np.nan]), times=np.array([1.0]), events=np.array([True])
        )
    with pytest.raises(ValueError):
        SurvivalCohort(
            scores=np.zeros(2),
            times=np.ones(2),
            events=np.zeros(2, bool),
            patient_ids=("a",),
        )


def test_cohort_helpers():
    cohort = make_cohort([1.0, 2.0, 3.0], [True, False, True], scores=[5.0, 6.0, 7.0])
    assert len(cohort) == 3
    assert cohort.n_events == 2
    assert cohort.patient_ids == ("p0000", "p0001", "p0002")
    swapped = cohort.with_scores([1.0, 2.0, 3.0])
    assert list(swapped.scores) == [1.0, 2.0, 3.0]
    assert np.array_equal(swapped.times, cohort.times)
    sub = cohort.subset(np.array([True, False, True]))
    assert sub.patient_ids == ("p0000", "p0002")
    assert list(sub.times) == [1.0, 3.0]


def test_cohort_csv_round_trip(tmp_path):
    rng = np.random.Generator(np.random.Philox(7))
    cohort = SurvivalCohort(
        scores=rng.normal(size=9),
        times=rng.uniform(0.5, 40.0, size=9),
        events=rng.uniform(size=9) < 0.5,
        patient_ids=tuple(f"case-{i}" for i in range(9)),
    )
    path = tmp_path / "cohort.csv"
    write_cohort_csv(path, cohort)
    back = read_cohort_csv(path)
    assert back.patient_ids == cohort.patient_ids
    assert np.array_equal(back.scores, cohort.scores)
    assert np.array_equal(back.times, cohort.times)
    assert np.array_equal(back.events, cohort.events)


def test_cohort_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,score,time,event\n")
    with pytest.raises(ValueError):
        read_cohort_csv(path)
    path.write_text("patient_id,score,time,event\np0,1.0,2.0,yes\n")
    with pytest.raises(ValueError):
        read_cohort_csv(path)
    path.write_text("patient_id,score,time,event\np0,1.0,2.0\n")
    with pytest.raises(ValueError):
        read_cohort_csv(path)


def test_cohort_csv_header_error_is_malformed_cohort(tmp_path):
    # The row errors, each naming its line, are checked through the CLI.
    assert issubclass(MalformedCohort, ValueError)
    path = tmp_path / "bad.csv"
    path.write_text("id,score,time,event\n")
    with pytest.raises(MalformedCohort, match="bad.csv: line 1: header"):
        read_cohort_csv(path)


def test_km_csv_output(tmp_path):
    curve = km_curve(make_cohort([1.0, 2.0], [True, True]))
    path = tmp_path / "km.csv"
    write_km_csv(path, curve)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,survival,at_risk"
    assert lines[1] == "0.0,1.0,2"
    assert lines[2] == "1.0,0.5,2"
    assert lines[3] == "2.0,0.0,1"
