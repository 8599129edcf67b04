"""Core plumbing: histories, ledger accounting, run bookkeeping and spending."""

import numpy as np
import pytest

import uvp
from helpers import SUMMATION_DIMS, const_oracle, curve_oracle, line, multiscale_points
from uvp import (
    BudgetExhausted,
    BudgetLedger,
    CallableOracle,
    Configuration,
    History,
    InvalidParams,
    InvalidValue,
    Run,
    UvpError,
)
from uvp.core import config_columns, distance_row


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
    # a fill that does not fit in what an earlier fill left spends the rest
    run = Run(const_oracle(0.5), BudgetLedger(4))
    first, second = Configuration((0.0,), 0), Configuration((1.0,), 1)
    assert run.extend_to(first, 3) is True
    assert run.extend_to(second, 3) is False
    assert [len(run.histories[c]) for c in (0, 1)] == [3, 1]
    assert run.extend_to(second, 3) is False  # the dry ledger charges nothing more
    assert [s for s, _ in run.trace] == [1, 2, 3, 4]
    assert run.ledger.spent == 4


def test_learn_partial_fill_truncates():
    run = Run(const_oracle(0.5), BudgetLedger(2))
    assert run.extend_to(Configuration((0.0,), 0), 3) is False
    assert len(run.histories[0]) == 2
    assert run.ledger.spent == 2


def test_extend_without_a_charge_leaves_no_history():
    # a fill on a dry ledger and a step past the cap charge nothing, so
    # neither may leave an empty history behind
    cfg, other = Configuration((0.0,), 0), Configuration((1.0,), 1)
    run = Run(const_oracle(0.5), BudgetLedger(0))
    assert run.extend_to(cfg, 2) is False
    assert run.histories == {}
    with pytest.raises(BudgetExhausted):
        run.step(cfg)
    assert run.histories == {}
    run = Run(const_oracle(0.5), BudgetLedger(1))
    assert run.extend_to(cfg, 2) is False
    assert run.extend_to(other, 2) is False
    assert list(run.histories) == [0]
    assert len(run.histories[0]) == 1


def test_learn_rejects_bad_target():
    oracle = const_oracle(0.5, horizon=3)
    for t in (0, 4):
        run = Run(oracle, BudgetLedger(10))
        with pytest.raises(InvalidParams, match=f"target budget {t} outside 1..3"):
            run.extend_to(Configuration((0.0,), 0), t)
        assert run.ledger.spent == 0  # rejected before any charge
        assert run.trace == []
    run = Run(oracle, BudgetLedger(0))
    with pytest.raises(InvalidParams, match="target budget 4 outside 1..3"):
        run.extend_to(Configuration((0.0,), 0), 4)  # even on a dry ledger


def _assert_spend_recorded(run):
    assert run.ledger.spent == len(run.trace) == sum(len(h) for h in run.histories.values())


def test_step_charges_only_recorded_units():
    cfg = Configuration((0.0,), 0)
    # past the horizon: the oracle rejects the budget index
    run = Run(const_oracle(0.5, horizon=1), BudgetLedger(5))
    run.step(cfg)
    with pytest.raises(InvalidParams, match="budget index 2 outside 1..1"):
        run.step(cfg)
    _assert_spend_recorded(run)
    assert run.ledger.spent == 1
    # a value outside [0, 1], on a fresh and on a started history
    values = {1: 0.5, 2: 1.5}
    run = Run(CallableOracle(lambda c, b: values[b] if c.id == 0 else 1.5, 1, 2), BudgetLedger(5))
    with pytest.raises(InvalidValue):
        run.step(Configuration((1.0,), 1))
    _assert_spend_recorded(run)
    assert run.histories == {}
    run.step(cfg)
    with pytest.raises(InvalidValue):
        run.step(cfg)
    _assert_spend_recorded(run)
    assert run.ledger.spent == 1


def test_dry_ledger_raises_before_querying():
    calls = []

    def record(config, b):
        calls.append((config.id, b))
        return 0.5

    cfg = Configuration((0.0,), 0)
    run = Run(CallableOracle(record, 1, 3), BudgetLedger(1))
    run.step(cfg)
    with pytest.raises(BudgetExhausted, match="charge of 1 exceeds remaining 0"):
        run.step(cfg)
    assert calls == [(0, 1)]
    assert run.extend_to(cfg, 3) is False
    assert calls == [(0, 1)]
    _assert_spend_recorded(run)


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
    with pytest.raises(InvalidParams, match="configuration 0 has no observations"):
        History(0).last


def test_configuration_validation():
    with pytest.raises(InvalidParams):
        Configuration((), 0)
    with pytest.raises(InvalidParams):
        Configuration((float("inf"),), 0)
    with pytest.raises(InvalidParams):
        Configuration((0.0,), -1)


def test_config_columns_checks_id_order():
    X = [Configuration((0.0,), 0), Configuration((1.0,), 2)]
    with pytest.raises(InvalidParams):
        config_columns(X)
    good = line([0.0, 1.0])
    assert np.array_equal(config_columns(good), [[0.0, 1.0]])


def test_distance_row_matches_numpy_norm_bit_for_bit():
    # whole coordinate rows summed in numpy's pairwise order must give the
    # bytes of np.linalg.norm, on full columns and on the tail slices that
    # the pairwise estimators pass
    rng = np.random.default_rng(11)
    for d in SUMMATION_DIMS:
        points = multiscale_points(rng, 60, d)
        columns = np.ascontiguousarray(points.T)
        work = np.empty_like(columns)
        for i in (0, 1, 30, 58):
            full = distance_row(columns, columns[:, i], work)
            expected = np.linalg.norm(points - points[i], axis=1)
            assert full.tobytes() == expected.tobytes(), (d, i)
            tail = distance_row(columns[:, i + 1 :], columns[:, i], work[:, i + 1 :])
            expected = np.linalg.norm(points[i + 1 :] - points[i], axis=1)
            assert tail.tobytes() == expected.tobytes(), (d, i)
            assert not np.shares_memory(tail, work)


def test_ledger_validation_and_charging():
    for cap in (-1, 2.0, "2"):
        with pytest.raises(InvalidParams, match="budget cap must be a non-negative integer"):
            BudgetLedger(cap)
    with pytest.raises(TypeError):
        BudgetLedger(2, 1)  # spend is not an argument: every ledger opens at 0
    ledger = BudgetLedger(2)
    assert (ledger.cap, ledger.spent, ledger.remaining) == (2, 0, 2)
    run = Run(const_oracle(0.5), ledger)  # Run.step is the only way to charge
    run.step(Configuration((0.0,), 0))
    run.step(Configuration((0.0,), 0))
    assert ledger.remaining == 0
    with pytest.raises(BudgetExhausted):
        run.step(Configuration((1.0,), 1))
    assert ledger.spent == 2  # a failed charge leaves the ledger untouched


def test_oracle_rejects_out_of_range_budget():
    oracle = const_oracle(0.5, horizon=3)
    cfg = Configuration((0.0,), 0)
    for b in (0, 4):
        with pytest.raises(InvalidParams, match=f"budget index {b} outside 1..3"):
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
    with pytest.raises(InvalidParams, match="no candidate was ever evaluated"):
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


def test_one_error_class_per_kind_of_fault():
    errors = {
        name for name in uvp.__all__
        if isinstance(getattr(uvp, name), type) and issubclass(getattr(uvp, name), BaseException)
    }
    kept = {"UvpError", "InvalidParams", "BudgetExhausted", "InvalidValue", "ParseError", "SchemaError"}
    assert errors == kept
    assert all(issubclass(getattr(uvp, name), UvpError) for name in errors)
    folded = (
        "InvalidBudget", "InsufficientCandidates", "EmptyCenters", "EmptyHistory",
        "OutOfDomain", "TooLarge", "MissingTrace", "DegenerateEmbedding",
    )
    for name in folded:  # folded into InvalidParams or SchemaError, with no alias left
        assert not hasattr(uvp, name) and not hasattr(uvp.core, name)
