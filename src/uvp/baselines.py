"""Non-adaptive and bandit-style baselines sharing the solver contract.

Like the solvers, each is called as ``fn(params, X, oracle, ledger)``, spends
what the ledger has left at entry and trains up to ``oracle.horizon``; of the
``SolverParams`` knobs they read ``seed``, ``eta`` and ``iterations``.
All three draw arms without replacement from the candidate set using a
seeded generator, reuse partial evaluations (extending a curve only charges
the new units), and never exceed the ledger cap.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .core import (
    BudgetLedger,
    Configuration,
    InvalidParams,
    Run,
    SearchOutcome,
    ValueOracle,
)
from .solvers import SolverParams, _check_pool, _num_centers


def random_search(
    params: SolverParams,
    X: Sequence[Configuration],
    oracle: ValueOracle,
    ledger: BudgetLedger,
) -> SearchOutcome:
    """Draw floor(B/T) distinct configurations uniformly and train each fully."""
    _check_pool(X, ledger)
    k = _num_centers(ledger, oracle)
    if k > len(X):
        raise InvalidParams(f"cannot draw {k} distinct arms from {len(X)}")
    rng = np.random.default_rng(params.seed)
    run = Run(oracle, ledger)
    run.extend_all([X[a] for a in rng.choice(len(X), size=k, replace=False)], oracle.horizon)
    return run.outcome()


def _rung_budgets(s: int, eta: int, horizon: int) -> list[int]:
    # Geometric rungs ending exactly at the horizon; early rungs floor to >= 1.
    return [max(1, horizon // eta ** (s - i)) for i in range(s + 1)]


def _bracket_cost(s: int, eta: int, horizon: int) -> int:
    cost, prev = 0, 0
    for i, r in enumerate(_rung_budgets(s, eta, horizon)):
        cost += eta ** (s - i) * (r - prev)
        prev = r
    return cost


def _depth(eta: int, n: int, budget: int, horizon: int) -> int:
    """Deepest bracket s: eta**s arms fit a pool of ``n``, its schedule fits the budget.

    Successive halving runs this bracket alone; Hyperband starts from it.
    """
    s = 0
    while eta ** (s + 1) <= n and _bracket_cost(s + 1, eta, horizon) <= budget:
        s += 1
    return s


def _run_bracket(run: Run, X: Sequence[Configuration], arms: Sequence[int], s: int, eta: int) -> None:
    """One halving bracket: extend arms rung by rung, keep the top 1/eta each time."""
    alive = list(arms)
    for i, r in enumerate(_rung_budgets(s, eta, run.oracle.horizon)):
        if not run.extend_all([X[a] for a in alive], r):
            return  # ledger cap intervened mid-rung
        if i < s:
            keep = max(1, len(alive) // eta)
            # rank by the value observed at this rung's budget, ties to low id
            alive = sorted(alive, key=lambda a: (-run.histories[a].values[r - 1], a))[:keep]


def successive_halving(
    params: SolverParams,
    X: Sequence[Configuration],
    oracle: ValueOracle,
    ledger: BudgetLedger,
) -> SearchOutcome:
    """Standard halving: Hyperband's top bracket alone (``iterations=1``).

    Runs the bracket of :func:`_depth`, the largest eta-power cohort whose
    schedule fits the budget, through geometric rungs keeping the top 1/eta
    per rung, and trains the final survivor to the horizon. Leftover budget
    is left unspent.
    """
    return hyperband(replace(params, iterations=1), X, oracle, ledger)


def hyperband(
    params: SolverParams,
    X: Sequence[Configuration],
    oracle: ValueOracle,
    ledger: BudgetLedger,
) -> SearchOutcome:
    """Bracket loop from aggressive to conservative, truncated by the ledger cap.

    The top bracket s_max is the deepest that fits (:func:`_depth`); one
    iteration is :func:`successive_halving`, and further iterations step s
    downward. Bracket s runs ceil((s_max+1)/(s+1) * eta**s) arms (capped at
    the pool size) through an s-deep halving schedule. Histories are shared across brackets, so
    re-drawing an arm only pays for budget it has not reached yet.
    """
    _check_pool(X, ledger)
    _num_centers(ledger, oracle)  # raises unless one full evaluation fits the budget
    s_max = _depth(params.eta, len(X), ledger.remaining, oracle.horizon)
    s_stop = max(0, s_max - params.iterations + 1)
    rng = np.random.default_rng(params.seed)
    run = Run(oracle, ledger)
    for s in range(s_max, s_stop - 1, -1):
        if ledger.remaining == 0:
            break
        n = math.ceil((s_max + 1) / (s + 1) * params.eta**s)
        n = min(n, len(X))
        arms = [int(a) for a in rng.choice(len(X), size=n, replace=False)]
        _run_bracket(run, X, arms, s, params.eta)
    return run.outcome()
