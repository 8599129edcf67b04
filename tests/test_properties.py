"""Property-based checks over randomized instances."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    REFERENCES,
    brute_force_k_center,
    configs_from,
    curve_oracle,
    line,
    ref_incumbent_at,
    ref_mean_rank,
)
from uvp import BudgetLedger, InvalidParams, Run, UvpError, cli
from uvp.analysis import DEFAULT_FRACTIONS, incumbent_at, mean_rank
from uvp.baselines import hyperband, random_search, successive_halving
from uvp.cli import ALGORITHMS, run_algorithm
from uvp.clustering import Cover, _enhanced, e_k_center, k_center
from uvp.solvers import (
    PREDICTORS,
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
    best, weak = max(v_best, v_weak), min(v_best, v_weak)
    assert _enhanced(np.array([dist]), weak, best, epsilon)[0] <= dist + 1e-12
    # eta = 1 at v_max
    assert _enhanced(np.array([dist]), best, best, epsilon)[0] == pytest.approx(dist)


@given(tabular_instances(), st.integers(1, 3))
@COMMON
def test_value_aware_selection_collapses_on_equal_values(instance, k):
    X, curves, horizon = instance
    if k > len(X):
        return
    const = np.full_like(curves, 0.5)
    oracle = curve_oracle(const, dimension=2)
    picked = e_k_center(k, Cover(X), 1, 0.5, Run(oracle, BudgetLedger(k)))
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
    if mult % 2 and horizon >= 2:
        budget += 1  # sometimes a ragged cap
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


def _outcome_text(name, X, oracle, budget, params):
    """A run's best, best value and trace by repr, or the message of the UvpError it raised."""
    try:
        out = run_algorithm(name, X, oracle, budget, oracle.horizon, params)
    except UvpError as exc:
        return ("raises", type(exc), str(exc))
    return ("runs", out.best, repr(out.best_value), repr(out.trace))


@given(
    tabular_instances(),
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([0.05, 0.5, 2.0]),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.sampled_from([0.3, 1.0]),
)
@settings(deadline=None, max_examples=40)
def test_cluster_solvers_read_no_seed(instance, mult, p, epsilon, delta, theta):
    # bench runs each cluster solver once per dataset and shares that
    # outcome across its seeds, which holds only while no seed is read
    X, curves, horizon = instance
    oracle = curve_oracle(curves, dimension=2)
    budget = max(min(mult, len(X)) * horizon + mult % 2, horizon)
    for name in cli._CLUSTER_SOLVERS:
        for predictor in PREDICTORS:
            params = SolverParams(p=p, epsilon=epsilon, delta=delta, theta=theta,
                                  predictor=predictor)
            first, other = (
                _outcome_text(name, X, oracle, budget, replace(params, seed=seed))
                for seed in (0, 7)
            )
            assert first == other, (name, predictor)


@st.composite
def solver_cases(draw):
    """A small instance, a budget from T to n*T and every knob.

    Coordinates lie on a coarse integer grid and values on a grid of 1/q,
    so distances, values and forecasts tie; curves are sometimes not
    monotone.
    """
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = configs_from(rng.integers(0, draw(st.sampled_from([3, 6, 20])), size=(n, d)).astype(float))
    q = draw(st.sampled_from([1, 2, 4, 10]))
    curves = rng.integers(0, q + 1, size=(n, horizon)) / q
    if draw(st.booleans()):
        curves = np.maximum.accumulate(curves, axis=1)
    budget = draw(st.integers(horizon, n * horizon))
    params = SolverParams(
        p=draw(st.integers(1, 6)),
        epsilon=draw(st.sampled_from([0.1, 0.5, 1.0, 3.0])),
        # mostly a delta that leaves e-ada-cent a probe of 1..T-1 units
        delta=draw(
            st.sampled_from([0.1, 0.5])
            | st.integers(1, max(1, horizon - 1)).map(lambda k: min(k + 0.5, horizon - 0.5) / horizon)
        ),
        theta=draw(st.sampled_from([0.1, 0.3, 0.5, 1.0])),
        predictor=draw(st.sampled_from(PREDICTORS)),
        eta=draw(st.integers(2, 4)),
        iterations=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 5)),
    )
    return X, curves, budget, params


@given(solver_cases())
@settings(deadline=None, max_examples=300)
def test_every_algorithm_matches_its_reference(case):
    X, curves, budget, params = case
    oracle = curve_oracle(curves, dimension=len(X[0].coords))
    for name, ref in REFERENCES.items():
        try:
            out = run_algorithm(name, X, oracle, budget, oracle.horizon, params)
        except UvpError as exc:
            with pytest.raises(type(exc)):
                ref(params, X, oracle, budget)
            continue
        best, best_value, trace, histories = ref(params, X, oracle, budget)
        assert out.best == best, name
        assert repr(out.best_value) == repr(best_value), name
        assert repr(out.trace) == repr(trace), name
        assert repr({c: h.values for c, h in out.histories.items()}) == repr(histories), name


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
    with pytest.raises(InvalidParams, match="horizon 3 is not the oracle's 2"):
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


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the message of the ``InvalidParams`` it raises."""
    try:
        return "value", fn(*args)
    except InvalidParams as exc:
        return "error", str(exc)


@st.composite
def cumulative_traces(draw, values=st.floats(0.0, 1.0), first=st.integers(0, 3), min_len=0):
    """(spent, incumbent) points whose spends never decrease.

    Steps of 0 repeat a spend, 1 makes the trace dense and larger steps
    sparse; the first spend may be 0 or lie past 1, and the trace may be empty.
    """
    spent = draw(first)
    trace = []
    for _ in range(draw(st.integers(min_len, 12))):
        trace.append((spent, draw(values)))
        spent += draw(st.sampled_from((0, 1, 1, 2, 5)))
    return tuple(trace)


# offsets around an integer spend s: a cap 5e-10 below s reaches it only
# through the 1e-9 tolerance, 2e-9 below does not, and (s - 1e-9) + 1e-9
# can round to exactly s, where bisect_left and bisect_right part
_CAP_OFFSETS = (-1.0, -2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9, 0.5)


@given(cumulative_traces(), st.data())
@settings(deadline=None, max_examples=400)
def test_incumbent_at_matches_the_scan(trace, data):
    spends = [s for s, _ in trace] or [0, 1]
    top = spends[-1] + 2
    cap = data.draw(
        st.one_of(
            st.builds(lambda s, o: s + o, st.sampled_from(spends), st.sampled_from(_CAP_OFFSETS)),
            st.builds(lambda f, b: f * b, st.sampled_from(DEFAULT_FRACTIONS), st.integers(1, top)),
            st.floats(-2.0, top),
            st.just(math.nan),
        )
    )
    got, want = _outcome(incumbent_at, trace, cap), _outcome(ref_incumbent_at, trace, cap)
    assert repr(got) == repr(want)


@given(tabular_instances(), st.integers(1, 4), st.integers(0, 10), st.data())
@settings(deadline=None, max_examples=40)
def test_incumbent_at_matches_the_scan_on_run_traces(instance, mult, seed, data):
    X, curves, horizon = instance
    budget = min(mult, len(X)) * horizon
    if mult % 2 and horizon >= 2:
        budget += 1  # sometimes a ragged cap
    for name, (out, _) in _run_all(X, curves, horizon, budget, seed).items():
        top = len(out.trace) + 2
        cap = data.draw(
            st.one_of(
                st.builds(lambda s, o: s + o, st.integers(0, top), st.sampled_from(_CAP_OFFSETS)),
                st.builds(lambda f, b: f * b, st.sampled_from(DEFAULT_FRACTIONS), st.integers(1, top)),
                st.floats(-2.0, top),
            )
        )
        got = _outcome(incumbent_at, out.trace, cap)
        want = _outcome(ref_incumbent_at, list(out.trace), cap)
        assert repr(got) == repr(want), name


@st.composite
def rank_results(draw):
    """Results and caps for ``mean_rank``: tied values, several datasets, some faults.

    Incumbents include NaN, -0.0 (which ties 0.0) and inf, and a case holds
    up to 42 (dataset, seed) cells, so the means sum many ranks.
    """
    algorithms = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True))
    values = st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0, math.inf, math.nan))
    first = st.sampled_from((1, 1, 1, 1, 0, 2))  # mostly one point per unit from the first
    caps, results = {}, {}
    for d in range(draw(st.integers(1, 3))):
        name = f"ds{d}"
        caps[name] = draw(st.integers(1, 12))
        for seed in draw(st.lists(st.integers(0, 20), min_size=1, max_size=14, unique=True)):
            for alg in algorithms:
                results[(name, seed, alg)] = draw(cumulative_traces(values, first, min_len=1))
    fault = draw(st.sampled_from((None,) * 7 + ("no results", "short cell", "no cap", "bad cap")))
    name = draw(st.sampled_from(sorted(caps)))
    if fault == "no results":
        results = {}
    elif fault == "short cell":
        del results[draw(st.sampled_from(sorted(results)))]
    elif fault == "no cap":
        del caps[name]
    elif fault == "bad cap":
        caps[name] = draw(st.sampled_from((0, 0.0, -1, -0.5, math.nan, math.inf, -math.inf)))
    fractions = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(DEFAULT_FRACTIONS + (0.25, 0.0, 1.5)), max_size=4),
        )
    )
    return results, caps, fractions


def _rank_columns(fn, *args):
    table = fn(*args)
    return table.fractions, table.algorithms, table.means.tobytes()


@given(rank_results())
@settings(deadline=None, max_examples=300)
def test_mean_rank_matches_the_plain_loop(case):
    got = _outcome(_rank_columns, mean_rank, *case)
    assert got == _outcome(_rank_columns, ref_mean_rank, *case)
