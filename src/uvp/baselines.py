"""Non-adaptive and bandit-style baselines sharing the solver contract.

All three draw arms without replacement from the candidate set using a
seeded generator, reuse partial evaluations (extending a curve only charges
the new units), and never exceed the ledger cap.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    BudgetLedger,
    Configuration,
    InsufficientCandidates,
    InvalidBudget,
    InvalidParams,
    Run,
    SearchOutcome,
    ValueOracle,
)


def _check_inputs(
    budget: int, horizon: int, X: Sequence[Configuration], oracle: ValueOracle
) -> None:
    if horizon < 1:
        raise InvalidBudget("horizon must be >= 1")
    if horizon > oracle.horizon:
        raise InvalidBudget(f"horizon {horizon} exceeds the oracle's {oracle.horizon}")
    if budget < horizon:
        raise InvalidBudget(f"budget {budget} cannot cover one full evaluation of {horizon}")
    if len(X) == 0:
        raise InsufficientCandidates("candidate set is empty")


def random_search(
    budget: int,
    horizon: int,
    X: Sequence[Configuration],
    seed: int,
    oracle: ValueOracle,
    ledger: BudgetLedger,
) -> SearchOutcome:
    """Draw floor(B/T) distinct configurations uniformly and train each fully."""
    _check_inputs(budget, horizon, X, oracle)
    k = budget // horizon
    if k > len(X):
        raise InsufficientCandidates(f"cannot draw {k} distinct arms from {len(X)}")
    rng = np.random.default_rng(seed)
    arms = [int(a) for a in rng.choice(len(X), size=k, replace=False)]
    run = Run(oracle, ledger)
    for a in arms:
        run.extend_to(X[a], horizon)
    return run.outcome(arms)


def _rung_budgets(s: int, horizon: int, eta: int) -> list[int]:
    # Geometric rungs ending exactly at the horizon; early rungs floor to >= 1.
    return [max(1, horizon // eta ** (s - i)) for i in range(s + 1)]


def _bracket_cost(s: int, horizon: int, eta: int) -> int:
    rungs = _rung_budgets(s, horizon, eta)
    cost, prev = 0, 0
    for i, r in enumerate(rungs):
        cost += eta ** (s - i) * (r - prev)
        prev = r
    return cost


def _run_bracket(
    run: Run,
    X: Sequence[Configuration],
    arms: Sequence[int],
    s: int,
    horizon: int,
    eta: int,
    *,
    allow_partial: bool,
) -> None:
    """One halving bracket: extend arms rung by rung, keep the top 1/eta each time."""
    alive = list(arms)
    for i, r in enumerate(_rung_budgets(s, horizon, eta)):
        for a in alive:
            if not run.extend_to(X[a], r, allow_partial=allow_partial):
                return  # ledger cap intervened mid-rung
        if i < s:
            keep = max(1, len(alive) // eta)
            # rank by the value observed at this rung's budget, ties to low id
            alive = sorted(alive, key=lambda a: (-run.histories[a].values[r - 1], a))[:keep]


def successive_halving(
    budget: int,
    horizon: int,
    X: Sequence[Configuration],
    eta: int,
    seed: int,
    oracle: ValueOracle,
    ledger: BudgetLedger,
) -> SearchOutcome:
    """Standard halving: the largest eta-power cohort whose schedule fits the budget.

    Solves for the deepest s with eta**s arms affordable within ``budget``
    (and available in the pool), runs geometric rungs keeping the top 1/eta
    per rung, and trains the final survivor to the horizon. Leftover budget
    is left unspent.
    """
    _check_inputs(budget, horizon, X, oracle)
    if eta < 2:
        raise InvalidParams("eta must be >= 2")
    s = 0
    while (
        eta ** (s + 1) <= len(X)
        and _bracket_cost(s + 1, horizon, eta) <= budget
    ):
        s += 1
    n0 = eta**s
    rng = np.random.default_rng(seed)
    arms = [int(a) for a in rng.choice(len(X), size=n0, replace=False)]
    run = Run(oracle, ledger)
    _run_bracket(run, X, arms, s, horizon, eta, allow_partial=False)
    return run.outcome(arms)


def hyperband(
    budget: int,
    horizon: int,
    X: Sequence[Configuration],
    eta: int,
    iterations: int,
    seed: int,
    oracle: ValueOracle,
    ledger: BudgetLedger,
) -> SearchOutcome:
    """Bracket loop from aggressive to conservative, truncated by the ledger cap.

    The top bracket uses the same depth rule as successive_halving (the
    deepest s whose cohort and schedule fit the pool and budget), so a single
    iteration reproduces one halving bracket exactly; further iterations step
    s downward. Bracket s runs ceil((s_max+1)/(s+1) * eta**s) arms (capped at
    the pool size) through an s-deep halving schedule. Histories are shared
    across brackets, so re-drawing an arm only pays for budget it has not
    reached yet.
    """
    _check_inputs(budget, horizon, X, oracle)
    if eta < 2:
        raise InvalidParams("eta must be >= 2")
    if iterations < 1:
        raise InvalidParams("iterations must be >= 1")
    s_max = 0
    while eta ** (s_max + 1) <= len(X) and _bracket_cost(s_max + 1, horizon, eta) <= budget:
        s_max += 1
    s_stop = max(0, s_max - iterations + 1)
    rng = np.random.default_rng(seed)
    run = Run(oracle, ledger)
    probed: list[int] = []
    seen: set[int] = set()
    for s in range(s_max, s_stop - 1, -1):
        if ledger.remaining == 0:
            break
        n = math.ceil((s_max + 1) / (s + 1) * eta**s)
        n = min(n, len(X))
        arms = [int(a) for a in rng.choice(len(X), size=n, replace=False)]
        probed.extend(a for a in arms if a not in seen)
        seen.update(arms)
        _run_bracket(run, X, arms, s, horizon, eta, allow_partial=True)
    return run.outcome(probed)
