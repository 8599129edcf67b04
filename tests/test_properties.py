"""Property-based checks over randomized instances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import configs_from, curve_oracle, line
from uvp import BudgetLedger, EnhancedMetric, InvalidBudget, Run, cli
from uvp.analysis import brute_force_k_center, mean_rank
from uvp.baselines import hyperband, random_search, successive_halving
from uvp.cli import ALGORITHMS, run_algorithm
from uvp.clustering import Cover, e_k_center, k_center
from uvp.solvers import (
    SolverParams,
    _keeps,
    ada_cent,
    e_ada_cent,
    e_full_cent,
    full_cent,
    pred,
    tail_fit_pred,
)

COMMON = settings(deadline=None, max_examples=60)


@st.composite
def tabular_instances(draw, max_n=6, max_horizon=4):
    """A small benchmark: distinct integer-grid points plus monotone curves."""
    n = draw(st.integers(2, max_n))
    horizon = draw(st.integers(1, max_horizon))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=n, max_size=n, unique=True,
        )
    )
    raw = draw(
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=horizon, max_size=horizon),
            min_size=n, max_size=n,
        )
    )
    curves = np.maximum.accumulate(np.asarray(raw), axis=1)
    X = configs_from([[float(a), float(b)] for a, b in cells])
    return X, curves, horizon


@st.composite
def concave_curves(draw, max_horizon=8):
    """Monotone curve with non-increasing increments, values in [0, 1]."""
    horizon = draw(st.integers(2, max_horizon))
    start = draw(st.floats(0.0, 0.3))
    incs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=horizon - 1,
                                max_size=horizon - 1)), reverse=True)
    total = sum(incs)
    scale = (1.0 - start) / total if total > 0 else 0.0
    curve = [start]
    for inc in incs:
        curve.append(min(1.0, curve[-1] + inc * scale))
    return curve, horizon


@given(concave_curves(), st.integers(2, 8))
@COMMON
def test_two_point_predictor_is_optimistic_on_concave_curves(curve_horizon, prefix_len):
    curve, horizon = curve_horizon
    prefix = curve[: min(prefix_len, horizon)]
    forecast = pred(prefix, horizon)
    assert forecast >= curve[-1] - 1e-12


@given(concave_curves(), st.integers(2, 8), st.floats(0.0, 1.0, exclude_min=True))
@COMMON
def test_tail_fit_predictor_is_optimistic_on_concave_curves(curve_horizon, prefix_len, theta):
    curve, horizon = curve_horizon
    prefix = curve[: min(prefix_len, horizon)]
    forecast = tail_fit_pred(prefix, horizon, theta)
    assert forecast >= curve[-1] - 1e-12


WINDOWS = ("drawn", "uniform", "flat", "nearly-flat", "palindrome", "line", "zero-one")


@st.composite
def pruning_cases(draw):
    """A history, its tail-fit settings and an incumbent that stress the prune test.

    Only the last m = max(2, ceil(theta*t)) values enter the fit; the rest
    of the history is zeros. Palindromic windows have slope 0 up to
    roundoff, so np.polyfit's sign noise picks between the last value and
    the line, and an incumbent between the two tells which was picked.
    """
    theta = draw(st.floats(0.0, 1.0, exclude_min=True))
    horizon = draw(st.integers(2, 10_000))
    t = draw(st.sampled_from([2, 3]) | st.integers(2, 40) | st.integers(2, horizon))
    m = max(2, math.ceil(theta * t))
    kind = draw(st.sampled_from(WINDOWS))
    level = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "drawn" and m <= 30:
        window = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    elif kind in ("drawn", "uniform"):
        window = rng.uniform(0.0, 1.0, m)
    elif kind == "flat":
        window = np.full(m, level)
    elif kind == "nearly-flat":
        window = level + draw(st.sampled_from([1e-15, 1e-12, 1e-9])) * rng.uniform(-1, 1, m)
    elif kind == "palindrome":
        half = rng.uniform(0.0, 1.0, (m + 1) // 2)
        window = np.concatenate([half, half[: m // 2][::-1]])
    elif kind == "line":
        slope = draw(st.floats(-1.0, 1.0)) / draw(st.sampled_from([1, m, horizon]))
        window = level + slope * np.arange(m)
    else:
        window = rng.integers(0, 2, m).astype(float)
    values = [0.0] * (t - m) + np.clip(window, 0.0, 1.0).tolist()

    forecast = tail_fit_pred(values, horizon, theta)
    last, mean = values[-1], sum(values[-m:]) / m
    pick = draw(st.sampled_from(["forecast", "near", "last", "between", "any", "zero", "one"]))
    if pick == "forecast":
        best_last = forecast
    elif pick == "near":
        nudge = draw(st.sampled_from([-1e-8, -1e-11, -1e-14, 1e-14, 1e-11, 1e-8]))
        best_last = min(max(forecast + nudge, 0.0), 1.0)
    elif pick == "last":
        best_last = last
    elif pick == "between":
        best_last = (last + mean) / 2
    elif pick == "any":
        best_last = draw(st.floats(0.0, 1.0))
    else:
        best_last = 0.0 if pick == "zero" else 1.0
    return values, horizon, theta, best_last


@given(pruning_cases())
@settings(deadline=None, max_examples=400)
def test_tail_fit_prune_decision_equals_polyfit(case):
    values, horizon, theta, best_last = case
    params = SolverParams(theta=theta, predictor="tail-fit")
    expected = tail_fit_pred(values, horizon, theta) >= best_last
    assert _keeps(values, params, horizon, best_last) == expected


@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=15),
    st.booleans(),
    st.integers(0, 10_000),
)
@settings(deadline=None, max_examples=200)
def test_tail_fit_prune_decision_on_symmetric_windows(half, odd, ahead):
    # the fitted slope is 0 up to roundoff, so np.polyfit's sign noise picks
    # the forecast: the last value or the line through the mean; an
    # incumbent halfway between them tells which one was picked
    values = half + half[::-1][int(odd):]
    horizon = len(values) + ahead
    best_last = (values[-1] + sum(values) / len(values)) / 2
    params = SolverParams(theta=1.0, predictor="tail-fit")
    expected = tail_fit_pred(values, horizon, 1.0) >= best_last
    assert _keeps(values, params, horizon, best_last) == expected


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                min_size=2, max_size=8, unique=True),
       st.integers(1, 3))
@COMMON
def test_greedy_k_center_within_twice_optimal(cells, k):
    X = configs_from([[float(a), float(b)] for a, b in cells])
    if k > len(X):
        return
    report = brute_force_k_center(X, k)
    assert report.greedy_radius <= 2.0 * report.optimal_radius + 1e-12


@given(st.floats(0.0, 50.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 5.0))
@COMMON
def test_enhanced_distance_never_exceeds_plain(dist, v_best, v_weak, epsilon):
    metric = EnhancedMetric(epsilon, {0: max(v_best, v_weak), 1: min(v_best, v_weak)})
    dists = np.array([dist])
    assert metric.distances(dists, 1)[0] <= dist + 1e-12
    assert metric.distances(dists, 0)[0] == pytest.approx(dist)  # eta = 1 at v_max


@given(tabular_instances(), st.integers(1, 3))
@COMMON
def test_value_aware_selection_collapses_on_equal_values(instance, k):
    X, curves, horizon = instance
    if k > len(X):
        return
    const = np.full_like(curves, 0.5)
    oracle = curve_oracle(const, dimension=2)
    picked = e_k_center(k, Cover(X), 1, 0.5, Run(oracle, BudgetLedger(k)), allow_partial=False)
    assert picked == k_center(k, Cover(X))


def _run_all(X, curves, horizon, budget, seed):
    outs = {}
    params = SolverParams(p=2, epsilon=0.5, delta=0.5, eta=2, iterations=2, seed=seed)
    algorithms = {
        "fc": full_cent, "efc": e_full_cent, "ac": ada_cent, "eac": e_ada_cent,
        "rs": random_search, "sha": successive_halving, "hb": hyperband,
    }
    if int(params.delta * horizon) < 1:
        del algorithms["eac"]  # no exploration budget
    for name, fn in algorithms.items():
        ledger = BudgetLedger(budget)
        outs[name] = (fn(params, X, curve_oracle(curves, dimension=2), ledger), ledger)
    return outs


@given(tabular_instances(), st.integers(1, 4), st.integers(0, 10))
@settings(deadline=None, max_examples=40)
def test_every_algorithm_conserves_budget(instance, mult, seed):
    X, curves, horizon = instance
    budget = min(mult, len(X)) * horizon
    if mult % 2 and horizon >= 2:
        budget += 1  # sometimes a ragged cap
    if budget < horizon:
        return
    for name, (out, ledger) in _run_all(X, curves, horizon, budget, seed).items():
        assert ledger.spent <= budget, name
        charged = sum(len(h) for h in out.histories.values())
        assert charged == ledger.spent, name
        assert out.best in out.histories, name


@given(tabular_instances(), st.integers(1, 4), st.integers(0, 10))
@settings(deadline=None, max_examples=40)
def test_every_trace_is_anytime_monotone(instance, mult, seed):
    X, curves, horizon = instance
    budget = min(mult, len(X)) * horizon
    if budget < horizon:
        return
    for name, (out, ledger) in _run_all(X, curves, horizon, budget, seed).items():
        spends = [s for s, _ in out.trace]
        incs = [v for _, v in out.trace]
        assert spends == list(range(1, ledger.spent + 1)), name  # one point per unit
        assert incs == sorted(incs) or all(
            a <= b + 1e-15 for a, b in zip(incs, incs[1:])
        ), name
        assert out.best_value == pytest.approx(incs[-1]), name


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_horizon_past_the_oracle_is_rejected_before_any_spend(algo, monkeypatch):
    X = line(range(9))
    oracle = curve_oracle(np.tile([0.2, 0.4], (9, 1)))  # curves end at budget 2
    ledgers = []

    def recorded_ledger(cap):
        ledgers.append(BudgetLedger(cap))
        return ledgers[-1]

    monkeypatch.setattr(cli, "BudgetLedger", recorded_ledger)
    params = SolverParams(p=2, epsilon=0.5, delta=0.5, eta=3, iterations=2, seed=0)
    with pytest.raises(InvalidBudget):
        run_algorithm(algo, X, oracle, 12, 3, params)
    assert [ledger.spent for ledger in ledgers] == [0]


@given(st.integers(2, 5), st.integers(1, 4), st.data())
@settings(deadline=None, max_examples=30)
def test_mean_rank_rows_sum_to_rank_total(m, n_datasets, data):
    algorithms = [f"alg{i}" for i in range(m)]
    results = {}
    caps = {}
    for d in range(n_datasets):
        name = f"ds{d}"
        caps[name] = 4
        for seed in range(2):
            for alg in algorithms:
                vals = data.draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
                inc = np.maximum.accumulate(vals)
                results[(name, seed, alg)] = tuple((i + 1, float(v)) for i, v in enumerate(inc))
    table = mean_rank(results, caps, fractions=(0.25, 1.0))
    total = m * (m + 1) / 2
    for row in table.means:
        assert float(np.sum(row)) == pytest.approx(total)
