"""Budget-allocation solvers built on center selection and curve extrapolation.

Four strategies share the contract of every algorithm in this package,
(params, candidates, oracle, ledger) -> SearchOutcome:

* ``full_cent``:   pick floor(B/T) spread-out centers, train each to T.
* ``e_full_cent``: same, but selection uses the value-aware distance and
                   interleaves full evaluations with the picks.
* ``ada_cent``:    rounds of p fresh centers trained one unit at a time;
                   after each level, every active configuration whose
                   optimistic forecast falls below the best last value
                   among the active ones is pruned. This threshold drops
                   below the incumbent once the best curve is pruned;
                   whether the paper means it or the incumbent is open.
* ``e_ada_cent``:  ada_cent with value-aware selection and short probes of
                   floor(delta*T) units during selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import clustering
from .core import (
    BudgetLedger,
    Configuration,
    InvalidParams,
    Run,
    SearchOutcome,
    ValueOracle,
    _is_int,
)

PREDICTORS = ("two-point", "tail-fit")

# The pruning test defers to np.polyfit when a closed-form tail-fit line is
# this close to a decision boundary. On lines within 1 of [0, 1] the two fits
# differed by at most 3.3e-11 over 70k random windows at horizons up to 10^4
# (the gap grows with how far the line is extrapolated), so every decision
# outside the band is the same.
TIE_TOL = 1e-9


@dataclass(kw_only=True)
class SolverParams:
    """Knobs shared by every algorithm.

    The budget B and the horizon T are not knobs: an algorithm spends what
    its ledger has left at entry and trains up to ``oracle.horizon``.
    ``eta``, ``iterations`` and ``seed`` are read by the baselines only.
    """

    p: int = 25
    epsilon: float = 0.2
    delta: float = 0.1
    theta: float = 0.3
    predictor: str = "two-point"
    eta: int = 3
    iterations: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        for knob in ("p", "eta", "iterations", "seed"):
            value = getattr(self, knob)
            if not _is_int(value):
                raise InvalidParams(f"{knob} must be an integer, got {value!r}")
        if self.p < 1:
            raise InvalidParams("p (centers per round) must be >= 1")
        if not self.epsilon > 0:
            raise InvalidParams("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise InvalidParams("delta must lie in (0, 1)")
        if not 0 < self.theta <= 1:
            raise InvalidParams("theta must lie in (0, 1]")
        if self.predictor not in PREDICTORS:
            raise InvalidParams(f"predictor must be one of {PREDICTORS}")
        if self.eta < 2:
            raise InvalidParams("eta must be >= 2")
        if self.iterations < 1:
            raise InvalidParams("iterations must be >= 1")
        if self.seed < 0:
            raise InvalidParams(f"seed must be non-negative, got {self.seed}")


def pred(values: Sequence[float], horizon: int) -> float:
    """Optimistic two-point forecast of the value at the horizon.

    A single observation predicts +inf (nothing rules anything out yet);
    otherwise the last increment is extended linearly to the horizon. For
    curves with non-increasing increments this never undershoots the truth.
    """
    if len(values) == 0:
        raise InvalidParams("cannot forecast from an empty history")
    if len(values) == 1:
        return math.inf
    t = len(values)
    return values[-1] + (values[-1] - values[-2]) * (horizon - t)


def tail_fit_pred(values: Sequence[float], horizon: int, theta: float = 0.3) -> float:
    """Least-squares forecast from the final ``theta`` fraction of the history.

    Fits a line through the last max(2, ceil(theta*t)) observations and
    evaluates it at the horizon, clamped to at most 1.0. A negative fitted
    slope falls back to the last observed value.
    """
    if not 0 < theta <= 1:
        raise InvalidParams("theta must lie in (0, 1]")
    if len(values) == 0:
        raise InvalidParams("cannot forecast from an empty history")
    if len(values) == 1:
        return math.inf
    t = len(values)
    m = max(2, math.ceil(theta * t))
    xs = np.arange(t - m + 1, t + 1, dtype=float)
    ys = np.asarray(values[-m:], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    if slope < 0:
        return values[-1]
    return min(float(slope * horizon + intercept), 1.0)


def _keeps(values: Sequence[float], params: SolverParams, horizon: int, best_last: float) -> bool:
    """Whether the forecast of ``values`` at ``horizon`` reaches ``best_last``, the pruning test.

    Decides exactly as ``forecast >= best_last`` with the predictor of
    ``params``. Tail-fit fits the centred least-squares line over the same
    window as :func:`tail_fit_pred` in O(m), with no ``lstsq``; the 1.0
    clamp cannot change the answer, since observed values, and so
    ``best_last``, never exceed 1. Near-ties
    defer to :func:`tail_fit_pred` itself: a window whose slope is within
    ``TIE_TOL`` of zero (on a flat window ``np.polyfit``'s slope sign is
    rounding noise, and it picks between the last value and the line) or a
    line within ``TIE_TOL`` of ``best_last``.
    """
    if params.predictor != "tail-fit":
        return pred(values, horizon) >= best_last
    t = len(values)
    if t == 1:
        return True  # tail_fit_pred forecasts +inf
    m = max(2, math.ceil(params.theta * t))
    tail = values[-m:]
    c = (m - 1) / 2  # x_i - xbar = i - c for the window's i-th value
    sxy = 0.0
    for i, y in enumerate(tail):
        sxy += (i - c) * y
    slope = sxy / (m * (m * m - 1) / 12)
    line = sum(tail) / m + slope * (horizon - (t - c))
    if abs(slope) <= TIE_TOL or abs(line - best_last) <= TIE_TOL:
        return tail_fit_pred(values, horizon, params.theta) >= best_last
    return (values[-1] if slope < 0 else line) >= best_last


def _check_pool(X: Sequence[Configuration], ledger: BudgetLedger) -> None:
    if ledger.remaining < 1:
        raise InvalidParams(f"budget must be positive, {ledger.remaining} units remain")
    if len(X) == 0:
        raise InvalidParams("candidate set is empty")


def _num_centers(ledger: BudgetLedger, oracle: ValueOracle) -> int:
    """floor(B/T) for the budget B left in ``ledger`` and the oracle's horizon T."""
    if ledger.remaining < oracle.horizon:
        raise InvalidParams(
            f"budget {ledger.remaining} cannot cover one full evaluation of {oracle.horizon}"
        )
    return ledger.remaining // oracle.horizon


def full_cent(
    params: SolverParams,
    X: Sequence[Configuration],
    oracle: ValueOracle,
    ledger: BudgetLedger,
) -> SearchOutcome:
    """Select floor(B/T) centers farthest-first, train each fully, keep the best."""
    _check_pool(X, ledger)
    k = _num_centers(ledger, oracle)
    run = Run(oracle, ledger)
    run.extend_all([X[c] for c in clustering.k_center(k, clustering.Cover(X))], oracle.horizon)
    return run.outcome()


def e_full_cent(
    params: SolverParams,
    X: Sequence[Configuration],
    oracle: ValueOracle,
    ledger: BudgetLedger,
) -> SearchOutcome:
    """Value-aware full training: selection and full evaluations interleave."""
    _check_pool(X, ledger)
    k = _num_centers(ledger, oracle)
    run = Run(oracle, ledger)
    clustering.e_k_center(k, clustering.Cover(X), oracle.horizon, params.epsilon, run)
    return run.outcome()


def ada_cent(
    params: SolverParams,
    X: Sequence[Configuration],
    oracle: ValueOracle,
    ledger: BudgetLedger,
) -> SearchOutcome:
    """Adaptive rounds of fresh centers with forecast-based pruning."""
    return _adaptive(params, X, oracle, ledger, enhanced=False)


def e_ada_cent(
    params: SolverParams,
    X: Sequence[Configuration],
    oracle: ValueOracle,
    ledger: BudgetLedger,
) -> SearchOutcome:
    """Adaptive rounds with value-aware selection and short exploration probes."""
    return _adaptive(params, X, oracle, ledger, enhanced=True)


def _adaptive(
    params: SolverParams,
    X: Sequence[Configuration],
    oracle: ValueOracle,
    ledger: BudgetLedger,
    *,
    enhanced: bool,
) -> SearchOutcome:
    _check_pool(X, ledger)
    horizon = oracle.horizon
    t_explore = int(params.delta * horizon) if enhanced else 0
    if enhanced and t_explore < 1:
        raise InvalidParams(
            "e-ada-cent needs floor(delta * horizon) >= 1 for its exploration probes, "
            f"but delta = {params.delta} and horizon = {horizon} give {t_explore}; "
            "raise --delta or --horizon"
        )

    run = Run(oracle, ledger)
    histories = run.histories
    cover = clustering.Cover(X)  # one selection engine for every round
    active: list[int] = []
    while ledger.remaining > 0:
        n_new = min(params.p, len(X) - len(cover.centers))
        if enhanced:
            new = clustering.e_k_center(n_new, cover, t_explore, params.epsilon, run)
        else:
            new = clustering.k_center(n_new, cover)
        active = sorted(set(active).union(new))

        for t in range(t_explore + 1, horizon + 1):
            # a curve trained this far in an earlier round is charged nothing
            if not run.extend_all([X[x] for x in active], t):
                return run.outcome()  # ledger dry mid-level
            if not active:
                break
            best_last = max(histories[x].values[-1] for x in active)
            active = [x for x in active if _keeps(histories[x].values, params, horizon, best_last)]
        if not new:
            break  # candidate pool exhausted after a last extension
    return run.outcome()
