"""Validation paths that no other test reaches: each error's class and message.

Every case is a call that fails before any work starts (or, for the one
``repr``, returns at once), so the whole table runs in well under a second.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import CallableOracle, brute_force_opt, const_oracle, curve_oracle, line
from uvp import BudgetLedger, Configuration, History, InvalidParams, Run, UvpError
from uvp.cli import build_parser, run_algorithm
from uvp.clustering import Cover, greedy_radius
from uvp.instances import (
    HardInstanceSpec,
    TabularOracle,
    gen_smooth,
    landscape,
    landscape_eval,
    mesh_grid,
    sample_uniform,
    save_tabular,
)
from uvp.solvers import SolverParams


def _cli(*argv):
    """Run a command's handler as ``entry`` does, but let its error through."""
    args = build_parser().parse_args(list(argv))
    return args.fn(args)


def _hard(**changes):
    fields = dict(variant="fc", epsilon=0.5, beta=2.0, k=2, n_per_cluster=5, r=1.0, horizon=3)
    return HardInstanceSpec(**{**fields, **changes})


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
    # analysis and core
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
    # instances
    "landscape point of the wrong shape": (
        lambda: landscape_eval(_RADIAL, [0.0, 0.0, 0.0]),
        InvalidParams,
        "point has shape (3,), domain is 2-dimensional",
    ),
    "landscape of an unknown kind": (
        lambda: landscape_eval(replace(_RADIAL, kind="flat"), [0.0, 0.0]),
        InvalidParams,
        "unknown landscape kind 'flat'",
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
    "smooth instance of horizon 0": (
        lambda: gen_smooth(5, 2, 0, 0.3, 0),
        InvalidParams,
        "horizon must be >= 1",
    ),
}


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
