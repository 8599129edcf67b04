"""Core plumbing: histories, ledger accounting, run bookkeeping and spending."""

import gc
import pickle
import tracemalloc

import numpy as np
import pytest

import uvp
from helpers import (
    CallableOracle,
    REFERENCES,
    SUMMATION_DIMS,
    const_oracle,
    curve_oracle,
    line,
    multiscale_points,
)
from uvp import (
    BudgetExhausted,
    BudgetLedger,
    Configuration,
    History,
    InvalidParams,
    InvalidValue,
    Run,
    UvpError,
)
from uvp import cli
from uvp.cli import run_algorithm
from uvp.core import Trace, config_columns, distance_row
from uvp.instances import gen_smooth
from uvp.solvers import PREDICTORS, SolverParams, ada_cent


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
    for t in (0, 4, 2.0, 2.5, np.float64(2.0), "2", None):
        for extend in (
            lambda run: run.extend_to(Configuration((0.0,), 0), t),
            lambda run: run.extend_all(line([0.0, 1.0]), t),
        ):
            run = Run(oracle, BudgetLedger(10))
            with pytest.raises(InvalidParams, match=f"target budget {t} outside 1..3"):
                extend(run)
            assert run.ledger.spent == 0  # rejected before any charge
            assert run.trace == [] and run.histories == {}
    run = Run(oracle, BudgetLedger(10))
    assert run.extend_to(Configuration((0.0,), 0), np.int64(2)) is True
    assert run.ledger.spent == 2
    run = Run(oracle, BudgetLedger(0))
    with pytest.raises(InvalidParams, match="target budget 4 outside 1..3"):
        run.extend_to(Configuration((0.0,), 0), 4)  # even on a dry ledger


def test_extend_all_charges_config_by_config():
    X = line([0.0, 1.0, 2.0])
    oracle = curve_oracle([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
    run = Run(oracle, BudgetLedger(20))
    run.extend_to(X[1], 1)
    assert run.extend_all([X[2], X[1], X[0]], 2) is True
    # id 2 first, then the one missing unit of id 1, then id 0
    assert run.trace == [(1, 0.4), (2, 0.7), (3, 0.8), (4, 0.8), (5, 0.8), (6, 0.8)]
    assert {c: h.values for c, h in run.histories.items()} == {
        1: [0.4, 0.5], 2: [0.7, 0.8], 0: [0.1, 0.2]
    }
    assert run.extend_all([X[0], X[0], X[1]], 3) is True  # a repeated config is trained once
    assert [len(run.histories[c]) for c in (0, 1, 2)] == [3, 3, 2]
    assert run.ledger.spent == 8
    # a numpy id and target reach the same history as the int ones
    assert run.extend_all([Configuration((2.0,), np.int64(2))], np.int64(3)) is True
    assert run.histories[2].values == [0.7, 0.8, 0.9]
    assert list(run.histories) == [1, 2, 0]
    assert run.ledger.spent == len(run.trace) == 9
    assert run.extend_all([], 3) is True


def test_extend_all_stops_at_the_first_curve_the_ledger_cannot_fill():
    X = line([0.0, 1.0, 2.0])
    run = Run(const_oracle(0.5), BudgetLedger(5))
    assert run.extend_all(X, 3) is False
    assert {c: len(h) for c, h in run.histories.items()} == {0: 3, 1: 2}  # id 2 gets nothing
    assert run.ledger.spent == 5
    assert run.extend_all([X[0]], 3) is True  # already full: a dry ledger is not needed
    assert run.extend_all(X, 3) is False
    assert run.ledger.spent == 5


def _stepped(oracle, configs, t, cap):
    """Train ``configs`` to t one ``Run.step`` at a time: the per-unit path."""
    run = Run(oracle, BudgetLedger(cap))
    try:
        for cfg in configs:
            while len(run.histories.get(cfg.id, ())) < t:
                if run.ledger.remaining == 0:
                    return run, None
                run.step(cfg)
    except Exception as exc:  # noqa: BLE001 - the per-unit path's own error
        return run, exc
    return run, None


def _faulty_batches():
    """(name, oracle, configs, units before the fault): each faults in a batch's middle."""
    X = line([0.0, 1.0, 2.0, 3.0])
    good = np.tile([0.2, 0.4, 0.6], (4, 1))
    nan, high = good.copy(), good.copy()
    nan[2, 1], high[2, 1] = np.nan, 1.5
    short = curve_oracle(good[:, :2])
    short.horizon = 3  # its curves end at budget 2, its horizon says 3
    table = curve_oracle(good)

    def raising(config, b):
        if (config.id, b) == (2, 2):
            raise RuntimeError("oracle failed at (2, 2)")
        return table.query(config, b)

    return [
        ("id", table, [X[0], X[1], Configuration((9.0,), 7), X[3]], 6),
        ("budget past T, tabular", short, X, 2),
        ("budget past T, callable", CallableOracle(curve_oracle(good[:, :2]).query, 1, 3), X, 2),
        ("nan", curve_oracle(nan), X, 7),
        ("1.5", curve_oracle(high), X, 7),
        ("raising callable", CallableOracle(raising, 1, 3), X, 7),
    ]


@pytest.mark.parametrize("case", _faulty_batches(), ids=lambda case: case[0])
def test_a_fault_mid_batch_charges_only_the_units_before_it(case):
    _, oracle, configs, before = case
    stepped, expected = _stepped(oracle, configs, 3, 100)
    assert expected is not None and stepped.ledger.spent == before
    run = Run(oracle, BudgetLedger(100))
    with pytest.raises(type(expected)) as caught:
        run.extend_all(configs, 3)
    assert str(caught.value) == str(expected)
    assert run.ledger.spent == before
    _assert_spend_recorded(run)
    assert all(len(h) > 0 for h in run.histories.values())  # no empty history
    assert repr(run.trace) == repr(stepped.trace)
    assert {c: h.values for c, h in run.histories.items()} == {
        c: h.values for c, h in stepped.histories.items()
    }


def test_values_in_range_are_stored_as_read_and_others_clamped():
    curves = [[-0.0, 0.0, 1.0, 1.0 + 1e-13, -1e-13]]
    run = Run(curve_oracle(curves), BudgetLedger(10))
    run.extend_to(Configuration((0.0,), 0), 5)
    assert repr(run.histories[0].values) == "[-0.0, 0.0, 1.0, 1.0, 0.0]"
    assert repr([v for _, v in run.trace]) == "[-0.0, -0.0, 1.0, 1.0, 1.0]"
    run = Run(CallableOracle(lambda c, b: np.float64(0.25), 1, 2), BudgetLedger(10))
    run.extend_to(Configuration((0.0,), 0), 2)
    assert [type(v) for v in run.histories[0].values] == [float, float]
    assert [type(v) for _, v in run.trace] == [float, float]


@pytest.mark.parametrize("algo", REFERENCES)
def test_each_algorithm_queries_in_the_reference_order(algo, monkeypatch):
    # every (id, b) the oracle is asked for, in order, and the units charged
    # when it was asked: query k runs only once the k units before it are
    # charged. Budgets 47 and 131 are off every multiple of T = 6.
    X, table = gen_smooth(30, 2, 6, 0.3, 1)
    ledgers = []

    def recorded_ledger(cap):
        ledgers.append(BudgetLedger(cap))
        return ledgers[-1]

    monkeypatch.setattr(cli, "BudgetLedger", recorded_ledger)
    for budget in (6, 47, 131):
        for predictor in PREDICTORS:
            params = SolverParams(p=4, delta=0.4, predictor=predictor, seed=3)
            calls, ref_calls = [], []

            def engine_query(config, b):
                calls.append((config.id, b, ledgers[-1].spent))
                return table.query(config, b)

            def ref_query(config, b):
                ref_calls.append((config.id, b, len(ref_calls)))
                return table.query(config, b)

            run_algorithm(algo, X, CallableOracle(engine_query, 2, 6), budget, 6, params)
            REFERENCES[algo](params, X, CallableOracle(ref_query, 2, 6), budget)
            assert calls == ref_calls, (budget, predictor)
            assert len(calls) == ledgers[-1].spent


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
    cfg = Configuration((0.0,), 0)
    for oracle in (const_oracle(0.5, horizon=3), curve_oracle([[0.5, 0.5, 0.5]])):
        for b in (0, 4, 2.0, "2"):
            with pytest.raises(InvalidParams, match=f"budget index {b} outside 1..3"):
                oracle.query(cfg, b)
        assert oracle.query(cfg, np.int64(3)) == 0.5


_INDEX_TYPES = [int, np.int64, np.int32, np.uint8]


@pytest.mark.parametrize("index", _INDEX_TYPES, ids=lambda t: t.__name__)
def test_tabular_query_reads_the_stored_float(index):
    # every (id, b) reads curves[id, b - 1] as a Python float, -0.0 included,
    # whichever integer type carries the id and the budget
    curves = np.random.default_rng(3).uniform(0.0, 1.0, size=(6, 5))
    curves[2, 3] = -0.0
    oracle = curve_oracle(curves)
    for i in range(6):
        config = Configuration((float(i),), index(i))
        for b in range(1, 6):
            got = oracle.query(config, index(b))
            assert type(got) is float
            assert repr(got) == repr(float(curves[i, b - 1]))
    assert repr(oracle.query(Configuration((2.0,), index(2)), index(4))) == "-0.0"


@pytest.mark.parametrize("index", _INDEX_TYPES, ids=lambda t: t.__name__)
def test_tabular_query_rejects_an_id_past_the_benchmark(index):
    oracle = curve_oracle(np.full((6, 3), 0.5))
    for i in (6, 7):
        with pytest.raises(InvalidParams, match=f"configuration id {i} outside benchmark"):
            oracle.query(Configuration((0.0,), index(i)), index(1))
    assert oracle.query(Configuration((0.0,), index(5)), index(3)) == 0.5


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


# the trace: one incumbent float per charged unit, read as (spent, incumbent) points


_TRACE_CASES = [[], [0.5], [0.25, 0.25, 0.75], [-0.0, 0.0, 5e-324, 1.0]]


@pytest.mark.parametrize("incumbents", _TRACE_CASES)
def test_trace_equals_and_prints_as_its_list_of_points(incumbents):
    trace = Trace(incumbents)
    points = [(i + 1, v) for i, v in enumerate(incumbents)]
    assert trace == points and points == trace
    assert not (trace != points) and not (points != trace)
    assert repr(trace) == repr(points)
    assert trace == Trace(incumbents)
    assert trace != points + [(len(points) + 1, 1.0)] and points + [(0, 1.0)] != trace
    assert trace != tuple(points)  # a list of tuples equals no tuple either


def test_trace_indexing():
    trace = Trace([0.25, 0.5, 0.5])
    assert trace[0] == (1, 0.25) and trace[2] == (3, 0.5)
    assert trace[-1] == (3, 0.5) and trace[-3] == (1, 0.25)
    for i in (3, -4):
        with pytest.raises(IndexError):
            trace[i]
    with pytest.raises(IndexError):
        Trace()[0]
    assert trace[1:] == [(2, 0.5), (3, 0.5)] and type(trace[1:]) is list
    assert trace[::-2] == [(3, 0.5), (1, 0.25)]
    assert trace[5:] == []


def test_trace_reads_give_the_stored_floats():
    stored = [-0.0, 0.5, 1.0]
    trace = Trace(stored)
    assert all(v is w for (_, v), w in zip(trace, stored))
    assert all(trace[i][1] is stored[i] for i in range(3))
    assert [s for s, _ in trace] == [1, 2, 3]
    assert repr(trace[0][1]) == "-0.0"


def test_trace_pickles():
    trace = Trace([-0.0, 0.25, 1.0])
    back = pickle.loads(pickle.dumps(trace))
    assert type(back) is Trace and back == trace and repr(back) == repr(trace)


def test_outcome_trace_is_a_copy():
    run = Run(const_oracle(0.5), BudgetLedger(3))
    run.step(Configuration((0.0,), 0))
    out = run.outcome()
    run.step(Configuration((1.0,), 1))
    assert out.trace == [(1, 0.5)] and run.trace == [(1, 0.5), (2, 0.5)]


def test_an_outcome_holds_few_bytes_per_charged_unit():
    # the trace keeps one float per unit, shared with the history that
    # recorded it, instead of a (spent, incumbent) tuple per unit
    X, oracle = gen_smooth(1000, 4, 100, 0.3, 0)
    params = SolverParams(predictor="tail-fit")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ada_cent(params, X, oracle, BudgetLedger(10000))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(out.trace) == 10000
    assert held / len(out.trace) <= 64


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


def test_no_test_only_reference_in_the_package():
    moved = (
        "lipschitz_check", "ClusteringReport", "brute_force_k_center", "brute_force_opt",
        "BRUTE_FORCE_CAP", "gen_isolated_optimum", "CallableOracle",
    )
    for name in moved:  # moved to tests/helpers.py, with no alias left
        for module in (uvp, uvp.analysis, uvp.instances, uvp.core):
            assert not hasattr(module, name), (module.__name__, name)
