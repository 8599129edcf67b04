"""Solver behavior: predictors, the two full-training variants, adaptive pruning."""

import math
import re

import numpy as np
import pytest

from helpers import (
    CallableOracle,
    const_oracle,
    curve_oracle,
    gen_isolated_optimum,
    line,
    prune_keeps,
)
from uvp import (
    BudgetLedger,
    InvalidParams,
    SolverParams,
    TabularOracle,
    UvpError,
    ada_cent,
    e_ada_cent,
    e_full_cent,
    full_cent,
    pred,
    tail_fit_pred,
)

ALL_SOLVERS = (full_cent, e_full_cent, ada_cent, e_ada_cent)


# ---------------------------------------------------------------------------
# predictors


def test_pred_single_point_is_optimistic_sentinel():
    assert pred([0.9], 10) == math.inf


def test_pred_extends_last_slope():
    assert pred([0.5, 0.6], 5) == pytest.approx(0.9)


def test_pred_zero_slope():
    assert pred([0.3, 0.3], 10) == 0.3


def test_pred_empty_history():
    with pytest.raises(InvalidParams, match="cannot forecast from an empty history"):
        pred([], 5)


def test_tail_fit_exact_line_clamps_to_one():
    # the fitted line 0.1*b evaluated at 10 reaches 1.0 up to roundoff, and
    # anything above is clamped to the value ceiling
    assert tail_fit_pred([0.1, 0.2, 0.3, 0.4], 10, theta=0.5) == pytest.approx(1.0, abs=1e-12)
    assert tail_fit_pred([0.2, 0.4, 0.6, 0.8], 10, theta=0.5) == 1.0  # clamp engaged


def test_tail_fit_zero_slope():
    assert tail_fit_pred([0.4, 0.4, 0.4], 8) == pytest.approx(0.4)


def test_tail_fit_single_point_sentinel():
    assert tail_fit_pred([0.2], 7) == math.inf


def test_tail_fit_negative_slope_returns_last():
    assert tail_fit_pred([0.5, 0.48, 0.46], 10) == 0.46


def test_tail_fit_theta_validation():
    with pytest.raises(InvalidParams):
        tail_fit_pred([0.1, 0.2], 5, theta=0.0)
    with pytest.raises(InvalidParams, match="cannot forecast from an empty history"):
        tail_fit_pred([], 5)


def _tail_fit(theta=0.3):
    return SolverParams(theta=theta, predictor="tail-fit")


def test_keeps_single_point_is_kept_without_a_fit(monkeypatch):
    monkeypatch.setattr("uvp.solvers.tail_fit_pred", None)  # any call would fail
    assert prune_keeps([0.0], _tail_fit(), 10, 1.0)


def test_keeps_decides_clear_cases_without_polyfit(monkeypatch):
    monkeypatch.setattr("uvp.solvers.tail_fit_pred", None)
    rising = [0.1, 0.2, 0.3, 0.4]  # line at 10 is 1.0 (clamped today)
    assert prune_keeps(rising, _tail_fit(theta=0.5), 10, 0.9)
    assert not prune_keeps([0.1, 0.2, 0.25, 0.26], _tail_fit(theta=0.5), 10, 0.5)
    falling = [0.5, 0.48, 0.46]  # keeps iff the last value reaches
    assert prune_keeps(falling, _tail_fit(theta=1.0), 10, 0.46)
    assert not prune_keeps(falling, _tail_fit(theta=1.0), 10, 0.47)


def test_keeps_defers_to_polyfit_on_a_flat_fit():
    # the fitted slope of a symmetric window is 0 up to roundoff, and
    # np.polyfit's -5e-17 makes today's forecast the last value 0.2, not the
    # line's 1/3
    values = [0.2, 0.6, 0.2]
    assert tail_fit_pred(values, 10, theta=1.0) == 0.2
    assert not prune_keeps(values, _tail_fit(theta=1.0), 10, 0.3)
    assert prune_keeps(values, _tail_fit(theta=1.0), 10, 0.2)


def test_keeps_defers_to_polyfit_when_the_line_ties():
    # the line through 0.1, 0.3 reaches 0.5 at budget 3, and np.polyfit's
    # rounding lands 3e-16 below it: an incumbent of 0.5 prunes today
    values = [0.1, 0.3]
    forecast = tail_fit_pred(values, 3, theta=1.0)
    assert forecast < 0.5
    assert not prune_keeps(values, _tail_fit(theta=1.0), 3, 0.5)
    assert prune_keeps(values, _tail_fit(theta=1.0), 3, forecast)


# ---------------------------------------------------------------------------
# parameter validation


def test_solver_params_validation():
    # the budget is what the ledger holds and the horizon is the oracle's
    with pytest.raises(InvalidParams, match="budget must be positive, 0 units remain"):
        full_cent(SolverParams(), line([0.0]), const_oracle(0.5), BudgetLedger(0))
    with pytest.raises(InvalidParams, match="oracle horizon must be >= 1"):
        const_oracle(0.5, horizon=0)
    with pytest.raises(InvalidParams):
        SolverParams(p=0)
    with pytest.raises(InvalidParams):
        SolverParams(epsilon=0.0)
    with pytest.raises(InvalidParams, match="epsilon"):
        SolverParams(epsilon=math.nan)
    with pytest.raises(InvalidParams):
        SolverParams(delta=1.0)
    with pytest.raises(InvalidParams):
        SolverParams(theta=0.0)
    with pytest.raises(InvalidParams):
        SolverParams(predictor="cubic")
    with pytest.raises(InvalidParams, match="eta"):
        SolverParams(eta=1)
    with pytest.raises(InvalidParams, match="iterations"):
        SolverParams(iterations=0)
    with pytest.raises(InvalidParams, match="seed"):
        SolverParams(seed=-1)


@pytest.mark.parametrize(
    "knob, value",
    [("p", 2.5), ("eta", 2.5), ("iterations", 1.5), ("seed", 1.5), ("seed", math.nan),
     ("p", 3.0), ("seed", "1")],
)
def test_solver_params_integer_knobs_refuse_other_values(knob, value):
    # a float knob used to pass the range checks and fail mid-run with a bare TypeError
    with pytest.raises(InvalidParams, match=re.escape(f"{knob} must be an integer, got {value!r}")):
        SolverParams(**{knob: value})


def test_solver_params_integer_knobs_take_numpy_integers():
    params = SolverParams(p=np.int64(2), eta=np.int32(2), iterations=np.int64(1), seed=np.int64(5))
    assert (params.p, params.eta, params.iterations, params.seed) == (2, 2, 1, 5)


def test_full_cent_requires_budget_for_one_evaluation():
    params = SolverParams()
    with pytest.raises(InvalidParams, match="budget 2 cannot cover one full evaluation of 3"):
        full_cent(params, line([0.0]), const_oracle(0.5), BudgetLedger(2))


def test_solvers_reject_empty_pool():
    params = SolverParams()
    for solver in ALL_SOLVERS:
        with pytest.raises(InvalidParams, match="candidate set is empty"):
            solver(params, [], const_oracle(0.5), BudgetLedger(3))


# ---------------------------------------------------------------------------
# full-training solvers


def test_full_cent_two_point_example():
    X = line([0.0, 9.0])
    oracle = CallableOracle(lambda c, b: 1.0 - 0.1 * abs(c.coords[0] - 9.0), 1, 1)
    ledger = BudgetLedger(2)
    out = full_cent(SolverParams(), X, oracle, ledger)
    assert out.best == 1
    assert out.best_value == 1.0
    assert ledger.spent == 2


def test_full_cent_single_candidate():
    out = full_cent(
        SolverParams(),
        line([0.0]),
        curve_oracle([[0.2, 0.3, 0.8]]),
        BudgetLedger(3),
    )
    assert out.best == 0
    assert out.best_value == 0.8
    assert len(out.histories[0]) == 3


def test_full_cent_budget_equal_horizon_takes_lowest_id():
    X = line([0.0, 5.0])
    oracle = curve_oracle([[0.3], [0.9]])
    out = full_cent(SolverParams(), X, oracle, BudgetLedger(1))
    assert out.best == 0  # k = 1, empty-seed tie-break, 5.0 never probed
    assert out.best_value == 0.3


def test_full_cent_spends_floor_b_over_t_times_t():
    X = line([0.0, 1.0, 2.0, 3.0])
    ledger = BudgetLedger(7)
    out = full_cent(
        SolverParams(), X, const_oracle(0.5, horizon=2), ledger
    )
    assert ledger.spent == 6  # 3 centers * 2 units; the leftover unit stays unspent
    assert len(out.histories) == 3


def test_e_full_cent_equals_full_cent_on_equal_values():
    X = line([0.0, 1.0, 2.0, 9.0])
    params = SolverParams(epsilon=0.5)
    oracle = const_oracle(0.6, horizon=2)
    plain = full_cent(params, X, oracle, BudgetLedger(4))
    aware = e_full_cent(params, X, oracle, BudgetLedger(4))
    assert sorted(plain.histories) == sorted(aware.histories)
    assert plain.best == aware.best
    assert plain.best_value == aware.best_value


def test_e_full_cent_single_candidate():
    out = e_full_cent(
        SolverParams(epsilon=0.5),
        line([0.0]),
        curve_oracle([[0.2, 0.7]]),
        BudgetLedger(2),
    )
    assert out.best == 0
    assert out.best_value == 0.7


def test_isolated_optimum_greedy_solvers_match():
    # both full-training solvers pick centers greedily from empty seeds, and
    # the first two greedy picks are value-independent (lowest id, then the
    # plain farthest point), so with two centers they land on the same value;
    # acceptance criterion 7 checks the value-aware pick after two probes and
    # test_clustering checks the optimal 2-covers exhaustively
    configs, oracle = gen_isolated_optimum(spacing=1.0, ring_radius=0.5, epsilon=0.5)
    params = SolverParams(epsilon=0.5)
    plain = full_cent(params, configs, oracle, BudgetLedger(2))
    aware = e_full_cent(params, configs, oracle, BudgetLedger(2))
    assert plain.best_value == 0.5  # a first-ring value, 1 - eps*spacing
    assert aware.best_value == plain.best_value
    assert sorted(plain.histories) == sorted(aware.histories)


# ---------------------------------------------------------------------------
# adaptive solvers


def test_ada_cent_single_candidate_trains_to_horizon():
    curves = [[0.1, 0.2, 0.3, 0.35, 0.38]]
    out = ada_cent(
        SolverParams(p=1),
        line([0.0]),
        curve_oracle(curves),
        BudgetLedger(5),
    )
    assert out.best == 0
    assert out.best_value == 0.38
    assert len(out.histories[0]) == 5


def test_ada_cent_prunes_weaker_same_slope_arm():
    # two linear arms with equal slope 0.05: pred of the weak arm is a
    # constant 0.5, the strong arm's last value passes it at t = 3
    T = 10
    weak = [0.05 + 0.05 * t for t in range(T)]
    strong = [0.45 + 0.05 * t for t in range(T)]
    X = line([0.0, 1.0])
    ledger = BudgetLedger(100)
    out = ada_cent(
        SolverParams(p=2),
        X,
        curve_oracle([weak, strong]),
        ledger,
    )
    assert out.best == 1
    assert out.best_value == pytest.approx(0.9)
    assert len(out.histories[0]) == 3  # pruned right after t=3
    assert len(out.histories[1]) == T  # the winner was never pruned
    assert ledger.spent == 3 + T


def test_ada_cent_identical_curves_never_prune():
    T = 5
    curve = [0.1 * (t + 1) for t in range(T)]
    X = line([0.0, 1.0, 2.0])
    ledger = BudgetLedger(15)
    out = ada_cent(
        SolverParams(p=3), X, curve_oracle([curve] * 3), ledger
    )
    assert all(len(out.histories[i]) == T for i in range(3))
    assert ledger.spent == 15
    assert out.best == 0  # tie broken to the lowest id


def test_ada_cent_halts_when_pool_exhausted():
    # two arms, generous budget: arm 0 is pruned after t=2 (pred 0.3 < 0.4),
    # arm 1 reaches the horizon, and the run ends with 45 units unspent
    X = line([0.0, 1.0])
    ledger = BudgetLedger(50)
    out = ada_cent(
        SolverParams(p=5),
        X,
        curve_oracle([[0.1, 0.2, 0.3], [0.2, 0.4, 0.6]]),
        ledger,
    )
    assert ledger.spent == 5
    assert len(out.histories[0]) == 2
    assert len(out.histories[1]) == 3
    assert out.best == 1
    assert out.best_value == 0.6


def test_ada_cent_respects_budget_cap_mid_round():
    X = line([0.0, 1.0, 2.0])
    ledger = BudgetLedger(4)
    out = ada_cent(
        SolverParams(p=3),
        X,
        curve_oracle([[0.1] * 5, [0.2] * 5, [0.3] * 5]),
        ledger,
    )
    assert ledger.spent == 4
    assert sum(len(h) for h in out.histories.values()) == 4


def test_e_ada_cent_requires_exploration_budget():
    params = SolverParams(delta=0.1)  # floor(0.5) = 0
    with pytest.raises(InvalidParams):
        e_ada_cent(params, line([0.0]), const_oracle(0.5, horizon=5), BudgetLedger(10))


def test_e_ada_cent_near_full_exploration_degenerates_to_full_training():
    # floor(delta*T) = 19 leaves a single unit step per arm, so one round
    # behaves like full training of both candidates
    T = 20
    X = line([0.0, 1.0])
    curves = [[min(0.04 * (t + 1), 1.0) for t in range(T)] for _ in range(2)]
    ledger = BudgetLedger(40)
    out = e_ada_cent(
        SolverParams(p=2, delta=0.95, epsilon=0.5),
        X,
        curve_oracle(curves),
        ledger,
    )
    assert ledger.spent == 40
    assert all(len(out.histories[i]) == T for i in range(2))


def test_e_ada_cent_one_round_shape():
    # identical linear curves are never pruned, so one round of p probes plus
    # unit steps runs the ledger dry at exactly B
    T = 10
    n, p, B = 60, 25, 200
    X = line([float(i) for i in range(n)])
    curve = [0.05 * (t + 1) for t in range(T)]
    ledger = BudgetLedger(B)
    out = e_ada_cent(
        SolverParams(p=p, delta=0.1, epsilon=0.5),
        X,
        curve_oracle([curve] * n),
        ledger,
    )
    assert ledger.spent == B
    assert len(out.histories) == p  # a second round never started


def test_e_ada_cent_first_prune_is_one_level_past_the_probes():
    # delta * T = 2: both candidates are probed to budget 2 during selection.
    # At level 2 the forecast of curve 0 (0.2 + 0.1 * 2 = 0.4) is below the
    # best last value 0.6, at level 3 it (0.9 + 0.7 = 1.6) is not; the first
    # prune is at level 3, so curve 0 survives and wins
    curves = [[0.1, 0.2, 0.9, 0.95], [0.5, 0.6, 0.6, 0.6]]
    ledger = BudgetLedger(8)
    params = SolverParams(p=2, delta=0.5, epsilon=0.5)
    out = e_ada_cent(params, line([0.0, 1.0]), curve_oracle(curves), ledger)
    assert (out.best, out.best_value) == (0, 0.95)
    assert [out.histories[c].values for c in (0, 1)] == [curves[0], curves[1][:3]]
    # the 8th unit is left: a second round selects nothing from the full cover
    assert ledger.spent == 7


def test_e_ada_cent_equals_ada_cent_centers_on_equal_values():
    T = 10
    X = line([0.0, 1.0, 2.0, 9.0])
    curve = [0.09 * (t + 1) for t in range(T)]
    params = dict(p=2, delta=0.1, epsilon=0.5)
    plain = ada_cent(SolverParams(**params), X, curve_oracle([curve] * 4), BudgetLedger(25))
    aware = e_ada_cent(SolverParams(**params), X, curve_oracle([curve] * 4), BudgetLedger(25))
    assert plain.best == aware.best
    # both runs settle on the same center set under equal values; only the
    # history creation order differs (probe-at-selection vs step loop)
    assert sorted(plain.histories) == sorted(aware.histories)


# ---------------------------------------------------------------------------
# shared contracts


def _random_instance(rng, n, horizon):
    pts = rng.uniform(0.0, 1.0, size=n)
    curves = np.sort(rng.uniform(0.0, 1.0, size=(n, horizon)), axis=1)
    return line(pts), curve_oracle(curves)


@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda s: s.__name__)
def test_trace_is_anytime_monotone(solver):
    rng = np.random.default_rng(7)
    for trial in range(10):
        X, oracle = _random_instance(rng, n=8, horizon=4)
        params = SolverParams(p=3, delta=0.3, epsilon=0.5)
        out = solver(params, X, oracle, BudgetLedger(12))
        incumbents = [v for _, v in out.trace]
        spends = [s for s, _ in out.trace]
        assert incumbents == sorted(incumbents)
        assert spends == sorted(spends) and len(set(spends)) == len(spends)
        assert out.best_value == incumbents[-1]


@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda s: s.__name__)
def test_ledger_equals_total_history_length(solver):
    rng = np.random.default_rng(11)
    for trial in range(10):
        X, oracle = _random_instance(rng, n=7, horizon=3)
        ledger = BudgetLedger(9)
        params = SolverParams(p=2, delta=0.4, epsilon=0.5)
        out = solver(params, X, oracle, ledger)
        assert ledger.spent == sum(len(h) for h in out.histories.values())
        assert ledger.spent <= 9


@pytest.mark.parametrize("solver", (full_cent, e_full_cent, ada_cent), ids=lambda s: s.__name__)
def test_out_of_range_oracle_value_is_a_uvp_error(solver):
    # the CLI maps UvpError to exit code 2 and bench catches it per cell
    oracle = TabularOracle(np.array([[1.5]]), 1)
    with pytest.raises(UvpError):
        solver(SolverParams(), line([0.0]), oracle, BudgetLedger(1))
