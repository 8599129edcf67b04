"""Center selection: plain farthest-first, the value-aware variant, radii."""

import itertools
import math

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from helpers import (
    CallableOracle,
    SUMMATION_DIMS,
    configs_from,
    const_oracle,
    curve_oracle,
    gen_isolated_optimum,
    line,
    multiscale_points,
    ref_e_k_center,
    ref_k_center,
)
from uvp import (
    BudgetLedger,
    Cover,
    History,
    InvalidParams,
    Run,
    e_k_center,
    greedy_radius,
    k_center,
)
from uvp.clustering import DEFAULT_ETA_CAP, _enhanced


def test_k_center_line_example():
    X = line([0.0, 1.0, 2.0, 9.0])
    assert k_center(2, Cover(X)) == [0, 3]  # x=0 by the empty-seed rule, then x=9


def test_k_center_zero_picks():
    X = line([0.0, 1.0])
    assert k_center(0, Cover(X)) == []
    # a full cover, as an adaptive round meets once the pool is exhausted
    run = Run(const_oracle(0.5, horizon=1), BudgetLedger(5))
    run.extend_all(X, 1)
    assert k_center(0, Cover(X, [0, 1])) == []
    assert e_k_center(0, Cover(X, [0, 1]), 1, 0.5, run) == []
    assert run.ledger.spent == 2


def test_k_center_respects_seed():
    # seed at x=5: the point at x=0 sits 5 away, both 1 and 9 only 4 away
    X = line([0.0, 1.0, 9.0, 5.0])
    assert k_center(1, Cover(X, [3])) == [0]


def test_k_center_insufficient_candidates():
    with pytest.raises(InvalidParams, match="only 2 candidates"):
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
    with pytest.raises(InvalidParams, match="needs at least one center"):
        greedy_radius([], line([0.0]))


def test_enhanced_distance_eta_one_is_identity():
    # a center worth v_max keeps the plain distance
    dist = np.array([0.0, 2.0, 7.5])
    assert _enhanced(dist, 0.8, 0.8, 0.5).tolist() == dist.tolist()


def test_enhanced_distance_formula():
    # eta = 2 for a center worth half the best
    assert _enhanced(np.array([2.0, 0.5]), 0.5, 1.0, 0.25).tolist() == [0.0, -3.0]  # min(d, 2d - 4)


def _etas(values, epsilon=0.5):
    """The eta of centers worth ``values``, with v_max their best.

    At distance 0 a center's enhanced distance is -(eta - 1) / epsilon,
    which gives its eta back.
    """
    zero = np.zeros(1)
    return [1.0 - epsilon * _enhanced(zero, v, max(values), epsilon)[0] for v in values]


def test_enhanced_distance_ring_geometry():
    # center at distance d from a ring point, center value ratio 1/(1 - eps*d)
    d, r, eps = 1.0, 0.5, 0.5
    dist = math.hypot(d, r)
    etas = _etas([1.0, 1.0 - eps * d], eps)
    assert etas[1] == 1.0 / (1.0 - eps * d)
    expected = (dist - d) / (1.0 - eps * d)
    got = _enhanced(np.array([dist]), 1.0 - eps * d, 1.0, eps)[0]
    assert got == pytest.approx(expected, abs=1e-15)


def test_enhanced_distance_never_exceeds_plain():
    rng = np.random.default_rng(0)
    for _ in range(200):
        dist = rng.uniform(0.0, 10.0, size=5)
        enhanced = _enhanced(dist, rng.uniform(0.2, 1.0), 1.0, rng.uniform(0.01, 2.0))
        assert np.all(enhanced <= dist)


def test_enhanced_metric_eta_rules():
    etas = _etas([0.8, 0.4, 0.0])
    assert etas[0] == 1.0
    assert etas[1] == 2.0
    assert etas[2] == DEFAULT_ETA_CAP  # zero-valued center hits the cap
    all_zero = _etas([0.0, 0.0])
    assert all_zero[0] == 1.0  # v_max 0 collapses to plain distance


def test_enhanced_metric_distance_non_increasing_in_v_max():
    # growing v_max means growing eta for a fixed weak center
    dist = np.array([0.0, 1.0, 3.0])
    prev = None
    for v_max in (0.4, 0.6, 0.8, 1.0):
        cur = _enhanced(dist, 0.4, v_max, 0.5)
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
    run.extend_all((X[0],), 1)
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


@pytest.mark.parametrize("k", [0, 1])
def test_e_k_center_refuses_bad_input_before_any_query(k):
    X = line([0.0, 1.0, 2.0])
    queries = []
    oracle = CallableOracle(lambda config, b: queries.append(config.id) or 0.5, 1, 1)
    run = Run(oracle, BudgetLedger(5))
    run.extend_all((X[0],), 1)
    cover = Cover(X, [0])
    for bad in (0.0, -0.5, math.nan):
        with pytest.raises(InvalidParams, match="epsilon must be positive"):
            e_k_center(k, cover, 1, bad, run)
    # the checks run in order: selection size, seed histories, epsilon
    with pytest.raises(InvalidParams, match="seed center 1 has no observations"):
        e_k_center(k, Cover(X, [0, 1]), 1, 0.0, run)
    with pytest.raises(InvalidParams, match="only 3 candidates"):
        e_k_center(k + 3, Cover(X, [0, 1]), 1, 0.0, run)
    assert queries == [0]  # the seed's own probe only
    assert cover.centers == [0]
    assert run.ledger.spent == 1


def test_e_k_center_partial_fill_stops_quietly():
    X = line([0.0, 1.0, 2.0, 3.0])
    run = Run(const_oracle(0.4, horizon=2), BudgetLedger(3))
    new = e_k_center(3, Cover(X), 2, 0.5, run)
    assert run.ledger.spent == 3
    assert len(new) == 2  # third pick never happened
    assert [len(run.histories[c]) for c in new] == [2, 1]  # second probe truncated
    assert e_k_center(1, Cover(X, new), 2, 0.5, run) == []  # a dry ledger picks nothing
    assert sorted(run.histories) == sorted(new)


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


def test_cover_farthest_never_returns_a_center():
    # an enhanced distance whose (eta - 1) / epsilon overflows scores every
    # open candidate -inf, tied with the masked centers: the lowest open id wins
    cover = Cover(line([0.0, 1.0, 2.0]))
    cover.add(0)
    assert cover.farthest(np.full(3, -np.inf)) == 1


# ties, zeros and both infinities, so the plain argmax often lands on a center
_SCORES = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf])


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.lists(_SCORES, min_size=n, max_size=n),
                        st.lists(st.booleans(), min_size=n, max_size=n))
))
@settings(deadline=None, max_examples=300)
def test_cover_farthest_is_the_masked_argmax(case):
    scores, chosen = case
    if all(chosen):
        return  # no open candidate to pick
    cover = Cover(line(range(len(scores))), [c for c, taken in enumerate(chosen) if taken])
    score = np.asarray(scores)
    open_ids = np.flatnonzero(~np.asarray(chosen))
    # the first open maximum; with every open score -inf, the lowest open id
    assert cover.farthest(score) == int(open_ids[np.argmax(score[open_ids])])


def test_cover_distances_match_numpy_norm():
    # the engine computes distance rows in its own buffer; they must equal
    # np.linalg.norm bit for bit, or ties and outcomes could shift
    rng = np.random.default_rng(3)
    for d in SUMMATION_DIMS:
        points = multiscale_points(rng, 200, d)
        X = configs_from(points)
        for center in (0, 57, 199):
            expected = np.linalg.norm(points - points[center], axis=1)
            assert Cover(X, [center]).nearest.tobytes() == expected.tobytes(), (d, center)


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


def test_cover_add_returns_the_distance_row():
    X = line([0.0, 1.0, 2.0, 9.0])
    cover = Cover(X)
    rows = {c: cover.add(c) for c in (0, 3)}
    assert rows[0].tolist() == [0.0, 1.0, 2.0, 9.0]
    assert cover.nearest.tolist() == Cover(X, [0, 3]).nearest.tolist() == [0.0, 1.0, 2.0, 0.0]
    # center 0 worth 0.25 has eta = 4: min(d, 4d - 6) near it, plain d near center 3
    delta = np.minimum(_enhanced(rows[0], 0.25, 1.0, 0.5), _enhanced(rows[3], 1.0, 1.0, 0.5))
    assert delta.tolist() == [-6.0, -2.0, 2.0, 0.0]


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
    }


def _copy(histories):
    return {c: History(c, h.values) for c, h in histories.items()}


def _value_aware(select, case, cap, histories):
    """(ids, {id: values}, spent, trace) of ``select(run)``.

    The run starts from copies of ``histories``, observed before its ledger
    opened, so only the selection's own probes are charged.
    """
    run = Run(curve_oracle(case["curves"], dimension=1), BudgetLedger(cap))
    run.histories.update(_copy(histories))
    new = select(run)
    return new, {c: h.values for c, h in run.histories.items()}, run.ledger.spent, run.trace


def _selectors(case, cover):
    """The engine extending ``cover`` and the reference seeded with its centers."""
    k, seeds, X = case["k"], list(cover.centers), case["X"]
    args = (case["t"], case["epsilon"])
    return (
        lambda run: e_k_center(k, cover, *args, run),
        lambda run: ref_e_k_center(k, seeds, X, *args, run),
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
@example(
    # center 0 at a quarter of v_max: at epsilon = 1e-308 its (eta - 1) / epsilon
    # overflows and every open candidate's enhanced distance is -inf
    {"X": line([0.0, 1.0, 2.0, 3.0]), "curves": np.asarray([[0.25], [1.0], [0.5], [0.5]]),
     "horizon": 1, "seeds": [0, 1], "histories": {0: History(0, [0.25]), 1: History(1, [1.0])},
     "k": 2, "t": 1, "epsilon": 1e-308},
    [2],
)
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
        round_case = {**case, "k": min(k, len(X) - len(seeds))}
        engine, reference = _selectors(round_case, valued)
        got = _value_aware(engine, round_case, 10, histories)
        assert got == _value_aware(reference, round_case, 10, histories)
        new, merged, _, _ = got
        assert valued.centers == seeds + new
        histories = {c: History(c, v) for c, v in merged.items()}
        for c, h in histories.items():
            if len(h) < case["horizon"]:
                h.append(oracle.query(X[c], len(h) + 1))


@given(selection_cases(), st.data())
@settings(deadline=None, max_examples=100)
def test_e_k_center_leaves_a_plain_cover(case, data):
    """After valued picks the cover is the one its centers build, and plain picks go on from it."""
    cover = Cover(case["X"], case["seeds"])
    engine, _ = _selectors(case, cover)
    cap = data.draw(st.integers(0, case["k"] * case["t"] + 1))
    _value_aware(engine, case, cap, case["histories"])
    fresh = Cover(case["X"], cover.centers)
    assert cover.nearest.tobytes() == fresh.nearest.tobytes()
    k = data.draw(st.integers(0, len(case["X"]) - len(cover.centers)))
    assert k_center(k, cover) == k_center(k, fresh)


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


@pytest.mark.parametrize("epsilon", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("seeds", [[], [1], [0, 5]])
def test_e_k_center_on_duplicate_points_and_quarter_values(epsilon, seeds):
    # every point twice on a line, values on a 1/4 grid: a center's twin ties
    # with it at enhanced distance -(eta - 1) / epsilon, v_max rises over the
    # picks, and the selection must still follow the rebuild-every-pick reference
    coords = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 5.0, 5.0]
    curves = np.asarray(
        [[0.25, 0.5], [0.0, 0.25], [0.5, 0.5], [0.25, 0.75], [0.75, 1.0],
         [0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [0.25, 0.25], [0.75, 0.75]]
    )
    histories = {s: History(s, curves[s][:1]) for s in seeds}
    case = {"X": line(coords), "curves": curves, "seeds": seeds,
            "k": len(coords) - len(seeds), "t": 1, "epsilon": epsilon}
    engine, reference = _selectors(case, Cover(case["X"], seeds))
    got = _value_aware(engine, case, 20, histories)
    assert got == _value_aware(reference, case, 20, histories)
    assert sorted(got[0] + seeds) == list(range(len(coords)))
