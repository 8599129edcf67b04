"""Center selection: plain farthest-first, the value-aware variant, radii."""

import itertools
import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from helpers import (
    configs_from,
    const_oracle,
    curve_oracle,
    line,
    ref_e_k_center,
    ref_k_center,
)
from uvp import (
    BudgetExhausted,
    BudgetLedger,
    Cover,
    EmptyCenters,
    EnhancedMetric,
    History,
    InsufficientCandidates,
    InvalidParams,
    Run,
    e_k_center,
    greedy_radius,
    k_center,
)
from uvp.clustering import DEFAULT_ETA_CAP
from uvp.instances import gen_isolated_optimum


def test_k_center_line_example():
    X = line([0.0, 1.0, 2.0, 9.0])
    assert k_center(2, Cover(X)) == [0, 3]  # x=0 by the empty-seed rule, then x=9


def test_k_center_zero_picks():
    assert k_center(0, Cover(line([0.0, 1.0]))) == []


def test_k_center_respects_seed():
    # seed at x=5: the point at x=0 sits 5 away, both 1 and 9 only 4 away
    X = line([0.0, 1.0, 9.0, 5.0])
    assert k_center(1, Cover(X, [3])) == [0]


def test_k_center_insufficient_candidates():
    with pytest.raises(InsufficientCandidates):
        k_center(3, Cover(line([0.0, 1.0]), [0]))


def test_k_center_rejects_bad_seeds():
    X = line([0.0, 1.0, 2.0])
    with pytest.raises(InvalidParams):
        k_center(1, Cover(X, [5]))
    with pytest.raises(InvalidParams):
        k_center(1, Cover(X, [0, 0]))
    with pytest.raises(InvalidParams):
        k_center(-1, Cover(X))


def test_greedy_radius_examples():
    X = line([0.0, 1.0, 2.0, 9.0])
    assert greedy_radius([0, 3], X) == 2.0
    assert greedy_radius([0, 1, 2, 3], X) == 0.0
    assert greedy_radius([1, 3], X) == 1.0


def test_greedy_radius_requires_centers():
    with pytest.raises(EmptyCenters):
        greedy_radius([], line([0.0]))


def test_enhanced_distance_eta_one_is_identity():
    # the best center (and any center of equal value) keeps the plain distance
    metric = EnhancedMetric(0.5, {0: 0.8, 1: 0.8})
    dist = np.array([0.0, 2.0, 7.5])
    assert metric.distances(dist, 0).tolist() == dist.tolist()
    assert metric.distances(dist, 1).tolist() == dist.tolist()


def test_enhanced_distance_formula():
    metric = EnhancedMetric(0.25, {0: 1.0, 1: 0.5})  # eta = 2 for center 1
    assert metric.distances(np.array([2.0, 0.5]), 1).tolist() == [0.0, -3.0]  # min(d, 2d - 4)


def test_enhanced_distance_ring_geometry():
    # center at distance d from a ring point, center value ratio 1/(1 - eps*d)
    d, r, eps = 1.0, 0.5, 0.5
    dist = math.hypot(d, r)
    metric = EnhancedMetric(eps, {0: 1.0, 1: 1.0 - eps * d})
    assert metric.eta(1) == 1.0 / (1.0 - eps * d)
    expected = (dist - d) / (1.0 - eps * d)
    assert metric.distances(np.array([dist]), 1)[0] == pytest.approx(expected, abs=1e-15)


def test_enhanced_distance_validation():
    with pytest.raises(InvalidParams):
        EnhancedMetric(0.0, {0: 0.5})
    with pytest.raises(InvalidParams):
        EnhancedMetric(-0.5, {0: 0.5})
    with pytest.raises(InvalidParams):
        EnhancedMetric(math.nan, {0: 0.5})
    with pytest.raises(EmptyCenters):
        EnhancedMetric(0.5, {}).v_max


def test_enhanced_distance_never_exceeds_plain():
    rng = np.random.default_rng(0)
    for _ in range(200):
        dist = rng.uniform(0.0, 10.0, size=5)
        metric = EnhancedMetric(rng.uniform(0.01, 2.0), {0: 1.0, 1: rng.uniform(0.2, 1.0)})
        assert np.all(metric.distances(dist, 1) <= dist)


def test_enhanced_metric_eta_rules():
    metric = EnhancedMetric(0.5, {0: 0.8, 1: 0.4, 2: 0.0})
    assert metric.v_max == 0.8
    assert metric.eta(0) == 1.0
    assert metric.eta(1) == 2.0
    assert metric.eta(2) == DEFAULT_ETA_CAP  # zero-valued center hits the cap
    all_zero = EnhancedMetric(0.5, {0: 0.0, 1: 0.0})
    assert all_zero.eta(0) == 1.0  # v_max 0 collapses to plain distance


def test_enhanced_metric_distance_non_increasing_in_v_max():
    # growing v_max means growing eta for a fixed weak center
    dist = np.array([0.0, 1.0, 3.0])
    prev = None
    for v_max in (0.4, 0.6, 0.8, 1.0):
        metric = EnhancedMetric(0.5, {0: v_max, 1: 0.4})
        cur = metric.distances(dist, 1)
        if prev is not None:
            assert np.all(cur <= prev + 1e-15)
        prev = cur


def test_e_k_center_collapses_on_equal_values():
    X = line([0.0, 1.0, 2.0, 9.0])
    run = Run(const_oracle(0.6, horizon=1), BudgetLedger(10))
    new = e_k_center(2, Cover(X), 1, 0.5, run)
    assert new == k_center(2, Cover(X))
    assert sorted(run.histories) == sorted(new)
    assert all(len(run.histories[c]) == 1 for c in new)


def test_e_k_center_single_seed_uses_plain_distance():
    # one seeded center: v_max is its own value, so eta = 1 and the pick is
    # the plain farthest point
    X = line([0.0, 1.0, 9.0])
    run = Run(const_oracle(0.5, horizon=1), BudgetLedger(10))
    run.extend_to(X[0], 1)
    assert e_k_center(1, Cover(X, [0]), 1, 0.5, run) == [2]


def test_e_k_center_charges_k_times_t():
    X = line([0.0, 1.0, 2.0, 3.0, 4.0])
    run = Run(const_oracle(0.4, horizon=2), BudgetLedger(100))
    new = e_k_center(3, Cover(X), 2, 0.5, run)
    assert run.ledger.spent == 6
    assert all(len(run.histories[c]) == 2 for c in new)
    assert [s for s, _ in run.trace] == [1, 2, 3, 4, 5, 6]  # a trace point per unit


def test_e_k_center_requires_seed_histories():
    X = line([0.0, 1.0])
    with pytest.raises(InvalidParams):
        e_k_center(1, Cover(X, [0]), 1, 0.5, Run(const_oracle(0.5, horizon=1), BudgetLedger(5)))


def test_e_k_center_partial_fill_stops_quietly():
    X = line([0.0, 1.0, 2.0, 3.0])
    run = Run(const_oracle(0.4, horizon=2), BudgetLedger(3))
    new = e_k_center(3, Cover(X), 2, 0.5, run, allow_partial=True)
    assert run.ledger.spent == 3
    assert len(new) == 2  # third pick never happened
    assert [len(run.histories[c]) for c in new] == [2, 1]  # second probe truncated


def test_e_k_center_downweights_weak_center():
    # after the value-blind first two picks (x=0 strong, x=10 weak, eta=2)
    # the point plainly farthest (x=8.1, 1.9 from the weak center) is pulled
    # in to 2*1.9 - (2-1)/0.5 = 1.8 by the weak center, so the value-aware
    # third pick jumps to x=1.85 instead
    X = line([0.0, 10.0, 8.1, 1.85])
    oracle = curve_oracle([[1.0], [0.5], [0.2], [0.2]])
    assert k_center(3, Cover(X)) == [0, 1, 2]
    assert e_k_center(3, Cover(X), 1, 0.5, Run(oracle, BudgetLedger(10))) == [0, 1, 3]


def test_greedy_radius_validates_every_id_first():
    with pytest.raises(InvalidParams):
        greedy_radius([0, 7], line([0.0, 1.0]))
    with pytest.raises(InvalidParams):
        greedy_radius([-1], line([0.0, 1.0]))


def test_cover_accumulates_centers():
    X = line([0.0, 1.0, 2.0, 9.0])
    cover = Cover(X)
    cover.add(3)
    cover.add(1)
    assert cover.centers == [3, 1]
    assert cover.chosen.tolist() == [False, True, False, True]
    assert cover.nearest.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert cover.farthest(cover.nearest) == 0  # ties between x=0 and x=2: lowest id


def test_cover_distances_match_numpy_norm():
    # the engine computes distance rows in its own buffer; they must equal
    # np.linalg.norm bit for bit, or ties and outcomes could shift
    points = np.random.default_rng(3).uniform(-5.0, 5.0, size=(200, 3))
    X = configs_from(points)
    for center in (0, 57, 199):
        expected = np.linalg.norm(points - points[center], axis=1)
        assert Cover(X, [center]).nearest.tobytes() == expected.tobytes()


def test_greedy_radius_counts_a_repeated_center_once():
    assert greedy_radius([1, 1], line([0.0, 1.0, 3.0])) == 2.0


def test_cover_rejects_bad_center_ids():
    cover = Cover(line([0.0, 1.0, 2.0]))
    cover.add(1)
    for bad in (-1, 3, 1):  # out of range on both sides, and already a center
        with pytest.raises(InvalidParams):
            cover.add(bad)
    assert cover.centers == [1]
    assert cover.nearest.tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(InvalidParams):
        Cover(line([0.0, 1.0]), [0, 2])


def test_cover_built_on_valued_centers():
    X = line([0.0, 1.0, 2.0, 9.0])
    cover = Cover(X, [0, 3])
    cover.revalue(EnhancedMetric(0.5, {0: 0.25, 3: 1.0}))
    assert cover.nearest.tolist() == Cover(X, [0, 3]).nearest.tolist() == [0.0, 1.0, 2.0, 0.0]
    # center 0 has eta = 4: delta = min(d, 4d - 6) near it, plain d near center 3
    assert cover.delta.tolist() == [-6.0, -2.0, 2.0, 0.0]


def test_cover_valued_add_needs_revalue():
    cover = Cover(line([0.0, 1.0]))
    with pytest.raises(InvalidParams):
        cover.add(0, 0.5)


def test_k_center_extends_a_shared_cover():
    X = line([0.0, 1.0, 2.0, 5.0, 9.0])
    cover = Cover(X)
    first = k_center(2, cover)
    second = k_center(2, cover)
    assert first + second == k_center(4, Cover(X))
    assert cover.centers == first + second


# ---------------------------------------------------------------------------
# the incremental engine against the recompute-every-pick references

# a few exact values so zero values, v_max = 0 and equal values come up often
_VALUES = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def selection_cases(draw):
    """Small instance with integer-grid coordinates (many tied distances)."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    coords = draw(
        st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d), min_size=n, max_size=n)
    )
    horizon = draw(st.integers(1, 3))
    curves = draw(
        st.lists(st.lists(_VALUES, min_size=horizon, max_size=horizon), min_size=n, max_size=n)
    )
    seeds = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 6)))
    histories = {s: History(s, curves[s][: draw(st.integers(1, horizon))]) for s in seeds}
    return {
        "X": configs_from(coords),
        "curves": np.asarray(curves, dtype=float),
        "horizon": horizon,
        "seeds": seeds,
        "histories": histories,
        "k": draw(st.integers(0, n - len(seeds))),
        "t": draw(st.integers(1, horizon)),
        "epsilon": draw(st.sampled_from([0.1, 0.5, 2.0])),
        "allow_partial": draw(st.booleans()),
    }


def _copy(histories):
    return {c: History(c, h.values) for c, h in histories.items()}


def _value_aware(select, case, cap, histories):
    """(ids, {id: values}, spent, trace) of ``select(run)``, or the error it raised.

    The run starts from copies of ``histories``, observed before its ledger
    opened, so only the selection's own probes are charged.
    """
    run = Run(curve_oracle(case["curves"], dimension=1), BudgetLedger(cap))
    run.histories.update(_copy(histories))
    try:
        new = select(run)
    except BudgetExhausted:
        return "exhausted", run.ledger.spent
    return new, {c: h.values for c, h in run.histories.items()}, run.ledger.spent, run.trace


def _selectors(case, cover):
    """The engine extending ``cover`` and the reference seeded with its centers."""
    k, seeds, X = case["k"], list(cover.centers), case["X"]
    args, partial = (case["t"], case["epsilon"]), case["allow_partial"]
    return (
        lambda run: e_k_center(k, cover, *args, run, allow_partial=partial),
        lambda run: ref_e_k_center(k, seeds, X, *args, run, allow_partial=partial),
    )


@given(selection_cases())
@settings(deadline=None, max_examples=150)
def test_k_center_matches_reference(case):
    assert k_center(case["k"], Cover(case["X"], case["seeds"])) == ref_k_center(
        case["k"], case["seeds"], case["X"]
    )


@given(selection_cases(), st.data())
@settings(deadline=None, max_examples=150)
def test_e_k_center_matches_reference(case, data):
    # caps below k*t run the ledger dry mid-probe
    cap = data.draw(st.integers(0, case["k"] * case["t"] + 1))
    engine, reference = _selectors(case, Cover(case["X"], case["seeds"]))
    histories = case["histories"]
    assert _value_aware(engine, case, cap, histories) == _value_aware(
        reference, case, cap, histories
    )


@given(selection_cases(), st.lists(st.integers(1, 5), min_size=1, max_size=4))
@settings(deadline=None, max_examples=100)
def test_shared_cover_rounds_match_reference(case, rounds):
    """Rounds on one cover pick what from-scratch runs on all earlier centers pick.

    Between rounds every center trains one unit further, so seed values (and
    v_max) change from one call to the next, as in the adaptive solvers.
    """
    X, oracle = case["X"], curve_oracle(case["curves"], dimension=1)
    plain, valued = Cover(X, case["seeds"]), Cover(X, case["seeds"])
    histories = _copy(case["histories"])
    for k in rounds:
        seeds = list(plain.centers)
        k_plain = min(k, len(X) - len(seeds))
        assert k_center(k_plain, plain) == ref_k_center(k_plain, seeds, X)

        seeds = list(valued.centers)
        round_case = {**case, "k": min(k, len(X) - len(seeds)), "allow_partial": True}
        engine, reference = _selectors(round_case, valued)
        got = _value_aware(engine, round_case, 10, histories)
        assert got == _value_aware(reference, round_case, 10, histories)
        new, merged, _, _ = got
        assert valued.centers == seeds + new
        histories = {c: History(c, v) for c, v in merged.items()}
        for c, h in histories.items():
            if len(h) < case["horizon"]:
                h.append(oracle.query(X[c], len(h) + 1))


# ---------------------------------------------------------------------------
# isolated-optimum geometry, checked exhaustively


def _plain_radius(pts, pair):
    d = np.linalg.norm(pts[:, None, :] - pts[None, list(pair), :], axis=2)
    return d.min(axis=1).max()


def _enhanced_radius(pts, vals, pair, eps):
    v_max = max(vals[c] for c in pair)
    best = np.full(len(pts), np.inf)
    for c in pair:
        v = vals[c]
        if v_max <= 0:
            eta = 1.0
        elif v <= 0:
            eta = DEFAULT_ETA_CAP
        else:
            eta = min(v_max / v, DEFAULT_ETA_CAP)
        d = np.linalg.norm(pts - pts[c], axis=1)
        best = np.minimum(best, np.minimum(d, eta * d - (eta - 1.0) / eps))
    return best.max()


def test_isolated_optimum_enhanced_clustering_prefers_the_optimum():
    """Among all 2-center covers, only value-aware radii favour the optimum.

    The instance has two valued rings and one isolated best point. Every
    optimal pair under the value-aware radius contains the isolated point;
    no optimal pair under the plain radius does.
    """
    eps = 0.5
    configs, oracle = gen_isolated_optimum(spacing=1.0, ring_radius=0.5, epsilon=eps)
    assert math.sqrt(1.0 + 0.5**2) + eps * 1.0 < 2.0  # feasibility condition
    pts = np.asarray([c.coords for c in configs])
    vals = np.asarray([oracle.query(c, 1) for c in configs])
    blue = len(configs) - 1
    assert vals[blue] == 1.0

    pairs = list(itertools.combinations(range(len(configs)), 2))
    plain = {p: _plain_radius(pts, p) for p in pairs}
    enhanced = {p: _enhanced_radius(pts, vals, p, eps) for p in pairs}
    plain_best = min(plain.values())
    enhanced_best = min(enhanced.values())
    plain_opt = [p for p in pairs if plain[p] <= plain_best + 1e-12]
    enhanced_opt = [p for p in pairs if enhanced[p] <= enhanced_best + 1e-12]
    assert all(blue in p for p in enhanced_opt)
    assert all(blue not in p for p in plain_opt)
    assert enhanced_best == 0.0  # the strong optimum rules out everything


def test_isolated_optimum_greedy_selection_from_empty_seeds():
    # greedy selection starting from no centers is value-blind on its first
    # two picks (lowest id, then eta = 1), so both selectors agree here; the
    # value-aware advantage shows up in the exhaustive comparison above and
    # in acceptance criterion 7, which picks after probes in both rings
    eps = 0.5
    configs, oracle = gen_isolated_optimum(spacing=1.0, ring_radius=0.5, epsilon=eps)
    plain = k_center(2, Cover(configs))
    enhanced = e_k_center(2, Cover(configs), 1, eps, Run(oracle, BudgetLedger(10)))
    assert enhanced == plain
