"""Validation paths that no other test reaches: each error's class and message.

Every case is a call that fails before any work starts (or, for the one
``repr`` and the one accepted value, returns at once), so the whole table
runs in well under a second.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from helpers import CallableOracle, brute_force_opt, const_oracle, curve_oracle, line
from uvp import BudgetLedger, Configuration, History, InvalidParams, InvalidValue, Run, UvpError
from uvp import ValueOracle
from uvp.analysis import check_percentile_args, epsilon_pairwise, epsilon_percentiles, mean_rank
from uvp.cli import build_parser, run_algorithm
from uvp.core import Trace
from uvp.clustering import Cover, e_k_center, greedy_radius, k_center
from uvp.instances import (
    LandscapeOracle,
    TabularBenchmark,
    TabularOracle,
    gen_hard,
    gen_smooth,
    landscape,
    landscape_eval,
    mesh_grid,
    sample_uniform,
    save_tabular,
)
from uvp.solvers import SolverParams, pred, tail_fit_pred


def _cli(*argv):
    """Run a command's handler as ``entry`` does, but let its error through."""
    args = build_parser().parse_args(list(argv))
    return args.fn(args)


def _hard(**changes):
    spec = dict(variant="fc", epsilon=0.5, beta=2.0, k=2, n_per_cluster=5, r=1.0, horizon=3)
    return gen_hard(**{**spec, **changes})


class _RawOracle(ValueOracle):
    """Answers every query with ``value`` as given, not read through ``float``."""

    def __init__(self, value) -> None:
        super().__init__(1, 1)
        self.value = value

    def query(self, config, b):
        return self.value


def _e_k_center(epsilon):
    """One value-aware pick over three points, at smoothness level ``epsilon``."""
    run = Run(curve_oracle([[0.1], [0.2], [0.3]]), BudgetLedger(3))
    return e_k_center(1, Cover(line([0.0, 1.0, 2.0])), 1, epsilon, run)


_RADIAL = landscape("radial-decay", 0)

CASES = {
    # cli
    "bench without a source": (
        lambda: _cli("bench"),
        InvalidParams,
        "bench needs at least one --data file or --landscape kind",
    ),
    "bench with two sources of one name": (
        lambda: _cli("bench", "--landscape", "radial-decay", "--landscape", "radial-decay",
                     "--n", "12", "--algos", "random"),
        InvalidParams,
        "dataset names collide: ['radial-decay', 'radial-decay']",
    ),
    "estimate-eps with no percentile": (
        lambda: _cli("estimate-eps", "--data", "unread.csv", "--alphas", ","),
        InvalidParams,
        "need at least one percentile",
    ),
    "run_algorithm with an unknown name": (
        lambda: run_algorithm("greedy", line([0.0]), const_oracle(0.5), 3, 3, SolverParams()),
        InvalidParams,
        "unknown algorithm 'greedy'",
    ),
    # analysis and core; each real argument once raised a TypeError, or a
    # bool was read as 1
    "percentile given as a str": (
        lambda: check_percentile_args(1, ["90"]),
        InvalidParams,
        "percentile must be a real number, got '90'",
    ),
    "percentile of None": (
        lambda: check_percentile_args(1, [None]),
        InvalidParams,
        "percentile must be a real number, got None",
    ),
    "percentile given as a bool": (
        lambda: check_percentile_args(1, [True]),
        InvalidParams,
        "percentile must be a real number, got True",
    ),
    "mean_rank with a str budget cap": (
        lambda: mean_rank({("d", 0, "a"): Trace([0.5])}, {"d": "5"}),
        InvalidParams,
        "budget cap for dataset 'd' must be a real number, got '5'",
    ),
    "mean_rank with a bool budget cap": (
        lambda: mean_rank({("d", 0, "a"): Trace([0.5])}, {"d": True}),
        InvalidParams,
        "budget cap for dataset 'd' must be a real number, got True",
    ),
    # a list of (spent, incumbent) tuples once reached the rank pass; an
    # empty trace once raised only at the first fraction
    "mean_rank of a tuple-list result": (
        lambda: mean_rank({("d", 0, "a"): [(1, 0.5)]}, {"d": 5}),
        InvalidParams,
        "(d, seed 0, a) must be a non-empty Trace, got list",
    ),
    "mean_rank of an empty trace": (
        lambda: mean_rank({("d", 0, "a"): Trace([0.5]), ("d", 0, "b"): Trace()}, {"d": 5}),
        InvalidParams,
        "(d, seed 0, b) must be a non-empty Trace, got an empty Trace",
    ),
    "brute_force_opt over nothing": (
        lambda: brute_force_opt([], const_oracle(0.5)),
        InvalidParams,
        "no configurations to scan",
    ),
    "oracle of dimension 0": (
        lambda: CallableOracle(lambda config, b: 0.5, dimension=0, horizon=1),
        InvalidParams,
        "oracle dimension must be >= 1",
    ),
    "configuration with a bool id": (
        lambda: Configuration((0.0,), True),
        InvalidParams,
        "configuration id must be an integer, got True",
    ),
    "configuration with a float id": (
        lambda: Configuration((0.0,), 1.0),
        InvalidParams,
        "configuration id must be an integer, got 1.0",
    ),
    "configuration with a str id": (
        lambda: Configuration((0.0,), "a"),
        InvalidParams,
        "configuration id must be an integer, got 'a'",
    ),
    "configuration with str coordinates": (
        lambda: Configuration(("0", "1"), 0),
        InvalidParams,
        "configuration 0 has non-numeric coordinates",
    ),
    # these two once raised a raw TypeError from len()
    "configuration of an int for coordinates": (
        lambda: Configuration(5, 0),
        InvalidParams,
        "configuration 0 coordinates must be a sequence",
    ),
    "configuration of None for coordinates": (
        lambda: Configuration(None, 0),
        InvalidParams,
        "configuration 0 coordinates must be a sequence",
    ),
    # these once went through: a set has no coordinate order
    "configuration of a set for coordinates": (
        lambda: Configuration({1.0, 2.0}, 0),
        InvalidParams,
        "configuration 0 coordinates must be a sequence",
    ),
    "configuration of a dict for coordinates": (
        lambda: Configuration({0: 1.0}, 0),
        InvalidParams,
        "configuration 0 coordinates must be a sequence",
    ),
    # once a raw ValueError from numpy ("inhomogeneous shape")
    "cover over candidates of mixed dimension": (
        lambda: Cover([Configuration((0.0,), 0), Configuration((1.0, 2.0), 1)]),
        InvalidParams,
        "configuration 1 has dimension 2, configuration 0 has 1",
    ),
    # once read as 0.0 with a ComplexWarning
    "landscape point with a complex coordinate": (
        lambda: landscape_eval(_RADIAL, np.array([1j, 0])),
        InvalidParams,
        "point array([0.+1.j, 0.+0.j]) is not a vector of real numbers",
    ),
    # these two once raised a raw TypeError from len()
    "sample over bounds of None": (
        lambda: sample_uniform(None, 3, 0),
        InvalidParams,
        "bounds None are not a sequence of (lo, hi) pairs",
    ),
    "mesh over bounds of None": (
        lambda: mesh_grid(None, 3),
        InvalidParams,
        "bounds None are not a sequence of (lo, hi) pairs",
    ),
    "history value of None": (
        lambda: History(0).append(None),
        InvalidValue,
        "observed value None is not a number",
    ),
    "history value given as a str float() reads": (
        lambda: History(0, ["0.5"]).values,
        list,
        [0.5],
    ),
    "oracle value float() cannot read": (
        lambda: Run(_RawOracle("abc"), BudgetLedger(1)).extend_all(line([0.0]), 1),
        InvalidValue,
        "observed value 'abc' is not a number",
    ),
    "query at a bool budget": (
        lambda: curve_oracle([[0.1, 0.2]]).query(line([0.0])[0], True),
        InvalidParams,
        "budget index True outside 1..2",
    ),
    "extend_all to a bool target": (
        lambda: Run(curve_oracle([[0.1, 0.2], [0.3, 0.4]]), BudgetLedger(10)).extend_all(
            line([0.0, 1.0]), True
        ),
        InvalidParams,
        "target budget True outside 1..2",
    ),
    "ledger with a bool cap": (
        lambda: BudgetLedger(True),
        InvalidParams,
        "budget cap must be a non-negative integer, got True",
    ),
    "oracle of a float horizon": (
        lambda: LandscapeOracle(_RADIAL, 2.5),
        InvalidParams,
        "oracle horizon must be an integer, got 2.5",
    ),
    "oracle of a bool horizon": (
        lambda: LandscapeOracle(_RADIAL, True),
        InvalidParams,
        "oracle horizon must be an integer, got True",
    ),
    "oracle of a float dimension": (
        lambda: TabularOracle(np.ones((2, 3)), 2.0),
        InvalidParams,
        "oracle dimension must be an integer, got 2.0",
    ),
    "a history's repr": (
        lambda: repr(History(3, [0.5])),
        str,
        "History(owner=3, values=[0.5])",
    ),
    # clustering and solvers
    "cover seeded with a float center id": (
        lambda: Cover(line([0.0, 1.0, 2.0]), [1.5]),
        InvalidParams,
        "center id must be an integer, got 1.5",
    ),
    "covering radius of a float center id": (
        lambda: greedy_radius([2.0], line([0.0, 1.0, 2.0])),
        InvalidParams,
        "center id must be an integer, got 2.0",
    ),
    "k_center with a float k": (
        lambda: k_center(2.5, Cover(line([0.0, 1.0, 2.0]))),
        InvalidParams,
        "k must be an integer, got 2.5",
    ),
    "k_center with a bool k": (
        lambda: k_center(True, Cover(line([0.0, 1.0, 2.0]))),
        InvalidParams,
        "k must be an integer, got True",
    ),
    "epsilon percentiles with a float k": (
        lambda: epsilon_percentiles(TabularBenchmark(line([0.0, 1.0, 2.0]), np.full((3, 2), 0.5)), 1.5),
        InvalidParams,
        "cover size k must be an integer, got 1.5",
    ),
    "epsilon percentiles with no percentile": (
        lambda: epsilon_percentiles(TabularBenchmark(line([0.0, 1.0, 2.0]), np.full((3, 2), 0.5)), 1, ()),
        InvalidParams,
        "need at least one percentile",
    ),
    "epsilon levels of curves with a row too many": (
        lambda: epsilon_pairwise(TabularBenchmark(line([0.0, 1.0, 2.0]), np.ones((4, 2)))),
        InvalidParams,
        "curves of shape (4, 2) need one row per configuration (3)",
    ),
    "tabular benchmark of one curve": (
        lambda: TabularBenchmark(line([0.0]), np.ones(2)),
        InvalidParams,
        "curves of shape (2,) need one row per configuration (1)",
    ),
    "solver params with a bool p": (
        lambda: SolverParams(p=True),
        InvalidParams,
        "p must be an integer, got True",
    ),
    "solver params with bool iterations": (
        lambda: SolverParams(iterations=True),
        InvalidParams,
        "iterations must be an integer, got True",
    ),
    "solver params with a True seed": (
        lambda: SolverParams(seed=True),
        InvalidParams,
        "seed must be an integer, got True",
    ),
    "solver params with a False seed": (
        lambda: SolverParams(seed=False),
        InvalidParams,
        "seed must be an integer, got False",
    ),
    "value-aware pick at a str epsilon": (
        lambda: _e_k_center("0.2"),
        InvalidParams,
        "epsilon must be a real number, got '0.2'",
    ),
    "value-aware pick at a bool epsilon": (
        lambda: _e_k_center(True),
        InvalidParams,
        "epsilon must be a real number, got True",
    ),
    "tail-fit forecast at a str theta": (
        lambda: tail_fit_pred([0.1, 0.2, 0.3], 5, theta="0.5"),
        InvalidParams,
        "theta must be a real number, got '0.5'",
    ),
    # instances
    "landscape point of the wrong shape": (
        lambda: landscape_eval(_RADIAL, [0.0, 0.0, 0.0]),
        InvalidParams,
        "point has shape (3,), domain is 2-dimensional",
    ),
    # these two once raised numpy's raw ValueError or TypeError
    "landscape point of str coordinates": (
        lambda: landscape_eval(_RADIAL, ("a", "b")),
        InvalidParams,
        "point ('a', 'b') is not a vector of real numbers",
    ),
    "landscape point of a complex coordinate": (
        lambda: landscape_eval(_RADIAL, (1j, 0)),
        InvalidParams,
        "point (1j, 0) is not a vector of real numbers",
    ),
    "landscape of an unknown kind": (
        lambda: landscape_eval(replace(_RADIAL, kind="flat"), [0.0, 0.0]),
        InvalidParams,
        "unknown landscape kind 'flat'",
    ),
    "landscape with a float seed": (
        lambda: landscape("multimodal-bumps", 1.5),
        InvalidParams,
        "seed must be an integer, got 1.5",
    ),
    "mesh of a float size": (
        lambda: mesh_grid([(0.0, 1.0)], 3.0),
        InvalidParams,
        "mesh size m must be an integer, got 3.0",
    ),
    "mesh without bounds": (
        lambda: mesh_grid([], 3),
        InvalidParams,
        "mesh needs at least one dimension",
    ),
    "sample of no points": (
        lambda: sample_uniform([(0.0, 1.0)], 0, 0),
        InvalidParams,
        "need at least one sample",
    ),
    "sample of a float size": (
        lambda: sample_uniform([(0.0, 1.0)], 10.0, 0),
        InvalidParams,
        "sample size n must be an integer, got 10.0",
    ),
    "sample with a float seed": (
        lambda: sample_uniform([(0.0, 1.0)], 5, 1.5),
        InvalidParams,
        "seed must be an integer, got 1.5",
    ),
    "sample without bounds": (
        lambda: sample_uniform([], 5, 0),
        InvalidParams,
        "need at least one dimension",
    ),
    "sample over an inverted bound": (
        lambda: sample_uniform([(0.0, 1.0), (2.0, 1.0)], 5, 0),
        InvalidParams,
        "bound (2.0, 1.0) is inverted",
    ),
    "tabular oracle over a 1-D array": (
        lambda: TabularOracle(np.array([0.1, 0.2]), dimension=1),
        InvalidParams,
        "curves must be a non-empty (n, T) array",
    ),
    "save_tabular without configurations": (
        lambda: save_tabular("unwritten.csv", [], np.zeros((0, 3))),
        InvalidParams,
        "need at least one configuration",
    ),
    "hard instance with no clusters": (
        lambda: _hard(k=0),
        InvalidParams,
        "k and n_per_cluster must be >= 1",
    ),
    "hard instance of a float k": (
        lambda: _hard(k=2.0),
        InvalidParams,
        "k must be an integer, got 2.0",
    ),
    "hard instance of a fractional cluster size": (
        lambda: _hard(n_per_cluster=2.5),
        InvalidParams,
        "n_per_cluster must be an integer, got 2.5",
    ),
    "hard instance of a fractional horizon": (
        lambda: _hard(horizon=3.5),
        InvalidParams,
        "horizon must be an integer, got 3.5",
    ),
    "hard instance with a float seed": (
        lambda: _hard(seed=1.5),
        InvalidParams,
        "seed must be an integer, got 1.5",
    ),
    "hard instance of horizon 0": (
        lambda: _hard(horizon=0),
        InvalidParams,
        "horizon must be >= 1",
    ),
    "ac hard instance whose decoys never plateau": (
        lambda: _hard(variant="ac", theta_frac=1.0),
        InvalidParams,
        "theta_frac must lie in (0, 1)",
    ),
    "smooth instance of one configuration": (
        lambda: gen_smooth(1, 2, 3, 0.3, 0),
        InvalidParams,
        "need n >= 2 configurations and d >= 1 dimensions",
    ),
    "smooth instance of a fractional size": (
        lambda: gen_smooth(5.5, 2, 3, 0.3, 0),
        InvalidParams,
        "n must be an integer, got 5.5",
    ),
    "smooth instance of a float dimension": (
        lambda: gen_smooth(5, 2.0, 3, 0.3, 0),
        InvalidParams,
        "d must be an integer, got 2.0",
    ),
    "smooth instance of a float horizon": (
        lambda: gen_smooth(5, 2, 4.0, 0.3, 0),
        InvalidParams,
        "horizon must be an integer, got 4.0",
    ),
    "smooth instance with a float seed": (
        lambda: gen_smooth(5, 2, 3, 0.3, 1.5),
        InvalidParams,
        "seed must be an integer, got 1.5",
    ),
    "smooth instance of an infinite epsilon": (
        lambda: gen_smooth(5, 2, 3, np.inf, 0),
        InvalidParams,
        "epsilon must be finite, got inf",
    ),
    "smooth instance at a str epsilon": (
        lambda: gen_smooth(5, 2, 4, "0.3", 0),
        InvalidParams,
        "epsilon must be a real number, got '0.3'",
    ),
    "smooth instance at a bool epsilon": (
        lambda: gen_smooth(5, 2, 4, True, 0),
        InvalidParams,
        "epsilon must be a real number, got True",
    ),
    "smooth instance of horizon 0": (
        lambda: gen_smooth(5, 2, 0, 0.3, 0),
        InvalidParams,
        "horizon must be >= 1",
    ),
}


# each once raised numpy's OverflowError, or for the mesh a RuntimeWarning first
for select, bound, *rest in (
    (sample_uniform, (0.0, np.inf), 3, 0),
    (sample_uniform, (np.nan, 1.0), 3, 0),
    (sample_uniform, (-1e308, 1e308), 3, 0),
    (mesh_grid, (0.0, np.inf), 3),
):
    CASES[f"{select.__name__} over the bound {bound}"] = (
        partial(select, [bound], *rest), InvalidParams, f"bound {bound} has no finite width"
    )

# each real argument once raised a TypeError, or (a bool) was read as 1
for what, build, knob, value in (
    ("solver params", SolverParams, "epsilon", "0.2"),
    ("solver params", SolverParams, "delta", "0.1"),
    ("solver params", SolverParams, "theta", "0.5"),
    ("solver params", SolverParams, "epsilon", True),
    ("hard instance", _hard, "epsilon", "0.5"),
    ("hard instance", _hard, "beta", "2"),
    ("hard instance", _hard, "r", "1"),
    ("hard instance", _hard, "epsilon", True),
    ("ac hard instance", partial(_hard, variant="ac"), "theta_frac", "0.5"),
):
    CASES[f"{what} with {knob}={value!r}"] = (
        partial(build, **{knob: value}), InvalidParams,
        f"{knob} must be a real number, got {value!r}",
    )
for select, rest in ((sample_uniform, (3, 0)), (mesh_grid, (3,))):
    CASES[f"{select.__name__} over a bound of str ends"] = (
        partial(select, [("0", "1")], *rest), InvalidParams,
        "bound end must be a real number, got '0'",
    )

# each once raised a raw ValueError or TypeError when the bound was unpacked
for select, bound, *rest in (
    (sample_uniform, (0.0,), 3, 0),
    (mesh_grid, (0.0,), 3),
    (mesh_grid, (0.0, 1.0, 2.0), 3),
    (sample_uniform, 5, 3, 0),
):
    CASES[f"{select.__name__} over the bound {bound!r}"] = (
        partial(select, [bound], *rest), InvalidParams, f"bound {bound!r} is not a (lo, hi) pair"
    )

# each once forecast at the horizon it was given, or raised a TypeError
for forecast in (pred, tail_fit_pred):
    for horizon, message in (
        (2.5, "horizon must be an integer, got 2.5"),
        (True, "horizon must be an integer, got True"),
        ("5", "horizon must be an integer, got '5'"),
        (0, "horizon must be >= 1, got 0"),
    ):
        CASES[f"{forecast.__name__} at the horizon {horizon!r}"] = (
            partial(forecast, [0.1, 0.2], horizon), InvalidParams, message
        )


def _result(call):
    """The class and text of what ``call()`` returns, or of the UvpError it raises."""
    try:
        value = call()
    except UvpError as exc:
        return type(exc), str(exc)
    return type(value), value


@pytest.mark.parametrize("case", CASES)
def test_validation_message(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # nothing may be written; if it were, it lands here
    call, cls, message = CASES[case]
    assert _result(call) == (cls, message)
    assert list(tmp_path.iterdir()) == []
