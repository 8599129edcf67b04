"""Baselines: random search, successive halving, Hyperband."""

import numpy as np
import pytest

from helpers import curve_oracle, line
from uvp import (
    BudgetLedger,
    InsufficientCandidates,
    InvalidBudget,
    InvalidParams,
    hyperband,
    random_search,
    SolverParams,
    successive_halving,
)
from uvp.analysis import brute_force_opt
from uvp.instances import gen_smooth


def test_random_search_full_coverage_is_exhaustive():
    X = line([0.0, 1.0, 2.0, 3.0])
    curves = [[0.2, 0.4], [0.1, 0.9], [0.3, 0.5], [0.2, 0.6]]
    oracle = curve_oracle(curves)
    out = random_search(SolverParams(seed=0), X, oracle, BudgetLedger(8))
    best_id, best_val = brute_force_opt(X, oracle)
    assert out.best == best_id
    assert out.best_value == best_val


def test_random_search_deterministic_under_seed():
    X = line([float(i) for i in range(20)])
    curves = np.sort(np.random.default_rng(3).uniform(size=(20, 2)), axis=1)
    oracle = curve_oracle(curves)
    a = random_search(SolverParams(seed=42), X, oracle, BudgetLedger(6))
    b = random_search(SolverParams(seed=42), X, oracle, BudgetLedger(6))
    assert a.best == b.best
    assert a.trace == b.trace
    assert sorted(a.histories) == sorted(b.histories)


def test_random_search_single_draw():
    X = line([0.0, 1.0, 2.0])
    oracle = curve_oracle([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    ledger = BudgetLedger(2)
    out = random_search(SolverParams(seed=5), X, oracle, ledger)
    assert ledger.spent == 2
    assert len(out.histories) == 1


def test_random_search_needs_enough_candidates():
    X = line([0.0, 1.0])
    oracle = curve_oracle([[0.1], [0.2]])
    with pytest.raises(InsufficientCandidates):
        random_search(SolverParams(seed=0), X, oracle, BudgetLedger(3))


def test_random_search_requires_full_evaluation_budget():
    X = line([0.0])
    with pytest.raises(InvalidBudget):
        random_search(SolverParams(seed=0), X, curve_oracle([[0.1, 0.2]]), BudgetLedger(1))


def test_successive_halving_hand_schedule():
    # eta=2, 4 constant arms: rungs at budgets 1, 2, 4; cost 4+2+2 = 8
    X = line([0.0, 1.0, 2.0, 3.0])
    curves = [[v] * 4 for v in (0.1, 0.2, 0.3, 0.4)]
    ledger = BudgetLedger(8)
    out = successive_halving(SolverParams(eta=2, seed=0), X, curve_oracle(curves), ledger)
    assert out.best == 3
    assert out.best_value == 0.4
    assert ledger.spent == 8
    assert len(out.histories[3]) == 4  # survivor reaches the horizon
    lens = sorted(len(h) for h in out.histories.values())
    assert lens == [1, 1, 2, 4]


def test_successive_halving_single_arm():
    X = line([0.0])
    out = successive_halving(
        SolverParams(eta=2, seed=9), X, curve_oracle([[0.1, 0.2, 0.3]]), BudgetLedger(3)
    )
    assert out.best == 0
    assert len(out.histories[0]) == 3


def test_successive_halving_all_equal_takes_lowest_id():
    X = line([0.0, 1.0, 2.0, 3.0])
    curves = [[0.5] * 2] * 4
    out = successive_halving(
        SolverParams(eta=2, seed=1), X, curve_oracle(curves), BudgetLedger(8)
    )
    assert out.best == min(out.histories)


def test_successive_halving_validation():
    X = line([0.0, 1.0])
    oracle = curve_oracle([[0.1], [0.2]])
    with pytest.raises(InvalidParams):
        successive_halving(SolverParams(eta=1, seed=0), X, oracle, BudgetLedger(2))
    with pytest.raises(InvalidBudget):
        successive_halving(SolverParams(eta=2, seed=0), X, oracle, BudgetLedger(0))


def test_hyperband_one_iteration_equals_one_bracket():
    X = line([float(i) for i in range(9)])
    rng = np.random.default_rng(2)
    curves = np.sort(rng.uniform(size=(9, 3)), axis=1)
    oracle = curve_oracle(curves)
    hb = hyperband(SolverParams(eta=3, iterations=1, seed=7), X, oracle, BudgetLedger(27))
    sha = successive_halving(SolverParams(eta=3, seed=7), X, oracle, BudgetLedger(27))
    assert hb.best == sha.best
    assert hb.best_value == sha.best_value


def test_hyperband_cap_truncates_mid_bracket():
    X = line([float(i) for i in range(10)])
    rng = np.random.default_rng(4)
    curves = np.sort(rng.uniform(size=(10, 4)), axis=1)
    ledger = BudgetLedger(7)  # far below a full bracket schedule
    out = hyperband(
        SolverParams(eta=2, iterations=3, seed=1), X, curve_oracle(curves), ledger
    )
    assert ledger.spent <= 7
    assert out.best in out.histories
    assert len(out.histories[out.best]) >= 1


def test_hyperband_constant_arms_returns_max_probed():
    X = line([float(i) for i in range(8)])
    values = [0.3, 0.8, 0.1, 0.6, 0.2, 0.9, 0.5, 0.4]
    curves = [[v] * 2 for v in values]
    out = hyperband(
        SolverParams(eta=2, iterations=2, seed=3), X, curve_oracle(curves), BudgetLedger(32)
    )
    probed_max = max(values[i] for i in out.histories)
    assert out.best_value == probed_max


def test_hyperband_lists_only_evaluated_arms():
    # the cap runs out while a bracket still has an arm to extend; that arm
    # was never charged, so the outcome must not list it
    X, oracle = gen_smooth(300, 3, 20, 0.3, 0)
    ledger = BudgetLedger(69)
    out = hyperband(SolverParams(seed=0), X, oracle, ledger)
    assert all(len(h) > 0 for h in out.histories.values())
    assert len(out.histories) == 30
    assert sum(len(h) for h in out.histories.values()) == ledger.spent == 69


@pytest.mark.parametrize("budget", [3, 6, 10, 17])
def test_baselines_never_overspend(budget):
    X = line([float(i) for i in range(12)])
    rng = np.random.default_rng(budget)
    curves = np.sort(rng.uniform(size=(12, 3)), axis=1)
    oracle = curve_oracle(curves)
    for runner in (
        lambda led: random_search(SolverParams(seed=0), X, oracle, led),
        lambda led: successive_halving(SolverParams(eta=2, seed=0), X, oracle, led),
        lambda led: hyperband(SolverParams(eta=2, iterations=2, seed=0), X, oracle, led),
    ):
        ledger = BudgetLedger(budget)
        out = runner(ledger)
        assert ledger.spent <= budget
        assert ledger.spent == sum(len(h) for h in out.histories.values())
