"""Core plumbing: histories, ledger accounting, run bookkeeping and spending."""

import numpy as np
import pytest

from helpers import const_oracle, curve_oracle, line
from uvp import (
    BudgetExhausted,
    BudgetLedger,
    CallableOracle,
    Configuration,
    EmptyHistory,
    History,
    InvalidBudget,
    InvalidParams,
    Run,
    config_matrix,
)


# learning a configuration's curve with Run.extend_to, one charged unit per budget step


def _extend(oracle, cap, t):
    """(run, history of config 0) after one extend_to call on a fresh run."""
    run = Run(oracle, BudgetLedger(cap))
    run.extend_to(Configuration((0.0,), 0), t)
    return run, run.histories[0]


def test_learn_constant_curve():
    run, h = _extend(const_oracle(0.7), 10, 3)
    assert h.values == [0.7, 0.7, 0.7]
    assert run.ledger.spent == 3
    assert run.trace == [(1, 0.7), (2, 0.7), (3, 0.7)]


def test_learn_single_step():
    _, h = _extend(curve_oracle([[0.3, 0.6, 0.9]]), 5, 1)
    assert h.values == [0.3]


def test_learn_ramp_curve():
    _, h = _extend(CallableOracle(lambda c, b: b / 4, 1, 4), 4, 4)
    assert h.values == [0.25, 0.5, 0.75, 1.0]


def test_learn_needs_remaining_budget():
    run = Run(const_oracle(0.5), BudgetLedger(2))
    with pytest.raises(BudgetExhausted):
        run.extend_to(Configuration((0.0,), 0), 3)
    assert run.ledger.spent == 0  # feasibility checked before any charge
    assert run.trace == []


def test_learn_partial_fill_truncates():
    run = Run(const_oracle(0.5), BudgetLedger(2))
    assert run.extend_to(Configuration((0.0,), 0), 3, allow_partial=True) is False
    assert len(run.histories[0]) == 2
    assert run.ledger.spent == 2


def test_extend_without_a_charge_leaves_no_history():
    # a partial fill on an empty ledger, a fill that does not fit and a step
    # past the cap charge nothing, so none may leave an empty history behind
    cfg = Configuration((0.0,), 0)
    run = Run(const_oracle(0.5), BudgetLedger(0))
    assert run.extend_to(cfg, 2, allow_partial=True) is False
    assert run.histories == {}
    with pytest.raises(BudgetExhausted):
        run.step(cfg)
    assert run.histories == {}
    run = Run(const_oracle(0.5), BudgetLedger(1))
    with pytest.raises(BudgetExhausted):
        run.extend_to(cfg, 2)
    assert run.histories == {}


def test_learn_rejects_bad_target():
    oracle = const_oracle(0.5, horizon=3)
    for t in (0, 4):
        run = Run(oracle, BudgetLedger(10))
        for partial in (False, True):
            with pytest.raises(InvalidBudget):
                run.extend_to(Configuration((0.0,), 0), t, allow_partial=partial)
        assert run.ledger.spent == 0  # rejected before any charge
        assert run.trace == []


def test_extend_resumes_existing_history():
    oracle = curve_oracle([[0.1, 0.2, 0.3]])
    run = Run(oracle, BudgetLedger(10))
    cfg = Configuration((0.0,), 0)
    run.extend_to(cfg, 1)
    assert run.extend_to(cfg, 3) is True
    assert run.histories[0].values == [0.1, 0.2, 0.3]
    assert run.ledger.spent == 3  # the second call charged only the two missing steps
    assert run.extend_to(cfg, 2) is True  # already past the target: nothing to charge
    assert run.ledger.spent == 3


def test_history_tolerance_clamp():
    h = History(0)
    h.append(1.0 + 1e-13)
    h.append(-1e-13)
    assert h.values == [1.0, 0.0]
    with pytest.raises(ValueError):
        h.append(1.1)
    with pytest.raises(ValueError):
        h.append(float("nan"))


def test_history_last_requires_observation():
    with pytest.raises(EmptyHistory):
        History(0).last


def test_configuration_validation():
    with pytest.raises(InvalidParams):
        Configuration((), 0)
    with pytest.raises(InvalidParams):
        Configuration((float("inf"),), 0)
    with pytest.raises(InvalidParams):
        Configuration((0.0,), -1)


def test_config_matrix_checks_id_order():
    X = [Configuration((0.0,), 0), Configuration((1.0,), 2)]
    with pytest.raises(InvalidParams):
        config_matrix(X)
    good = line([0.0, 1.0])
    assert np.array_equal(config_matrix(good), [[0.0], [1.0]])


def test_ledger_validation_and_charging():
    with pytest.raises(InvalidBudget):
        BudgetLedger(-1)
    ledger = BudgetLedger(2)
    ledger.charge(2)
    assert ledger.remaining == 0
    with pytest.raises(BudgetExhausted):
        ledger.charge(1)
    assert ledger.spent == 2  # failed charge leaves the ledger untouched
    with pytest.raises(InvalidBudget):
        ledger.charge(-1)


def test_oracle_rejects_out_of_range_budget():
    oracle = const_oracle(0.5, horizon=3)
    cfg = Configuration((0.0,), 0)
    for b in (0, 4):
        with pytest.raises(InvalidBudget):
            oracle.query(cfg, b)


def test_run_outcome_breaks_ties_to_lowest_id():
    X = line([0.0, 1.0, 2.0])
    oracle = curve_oracle([[0.5], [0.9], [0.9]])
    run = Run(oracle, BudgetLedger(3))
    for cfg in X:
        run.step(cfg)
    out = run.outcome()
    assert out.best == 1
    assert out.best_value == 0.9


def test_run_outcome_requires_an_evaluation():
    run = Run(const_oracle(0.5), BudgetLedger(3))
    with pytest.raises(EmptyHistory):
        run.outcome()


def test_run_trace_shape():
    X = line([0.0, 1.0])
    oracle = curve_oracle([[0.4, 0.6], [0.5, 0.55]])
    run = Run(oracle, BudgetLedger(4))
    run.step(X[0])
    run.step(X[1])
    run.step(X[0])
    run.step(X[1])
    out = run.outcome()
    spends = [s for s, _ in out.trace]
    incumbents = [v for _, v in out.trace]
    assert spends == [1, 2, 3, 4]
    assert incumbents == [0.4, 0.5, 0.6, 0.6]
    assert out.best_value == incumbents[-1]
    assert all(a <= b for a, b in zip(incumbents, incumbents[1:]))
