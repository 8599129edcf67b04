"""The seven budget-allocation algorithms, their knobs and their preconditions.

Every algorithm is called as ``fn(params, X, oracle, ledger) -> SearchOutcome``.
It spends what the ledger has left at entry, trains up to ``oracle.horizon``
and never exceeds the ledger cap. Four solvers build on center selection and
curve extrapolation:

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

Three baselines, ``random_search``, ``successive_halving`` and ``hyperband``,
read only the ``seed``, ``eta`` and ``iterations`` knobs. They draw arms without
replacement with a seeded generator; extending a curve charges only new units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from . import clustering
from .core import (
    BudgetLedger,
    Configuration,
    InvalidParams,
    Run,
    SearchOutcome,
    ValueOracle,
    _check_int,
    _check_real,
    _check_seed,
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
            _check_int(knob, getattr(self, knob))
        if self.p < 1:
            raise InvalidParams("p (centers per round) must be >= 1")
        _check_real("epsilon", self.epsilon)
        if not self.epsilon > 0:
            raise InvalidParams("epsilon must be positive")
        _check_real("delta", self.delta)
        if not 0 < self.delta < 1:
            raise InvalidParams("delta must lie in (0, 1)")
        _check_real("theta", self.theta)
        if not 0 < self.theta <= 1:
            raise InvalidParams("theta must lie in (0, 1]")
        if self.predictor not in PREDICTORS:
            raise InvalidParams(f"predictor must be one of {PREDICTORS}")
        if self.eta < 2:
            raise InvalidParams("eta must be >= 2")
        if self.iterations < 1:
            raise InvalidParams("iterations must be >= 1")
        _check_seed(self.seed)


def _check_horizon(horizon: int) -> None:
    _check_int("horizon", horizon)
    if horizon < 1:
        raise InvalidParams(f"horizon must be >= 1, got {horizon}")


def pred(values: Sequence[float], horizon: int) -> float:
    """Optimistic two-point forecast of the value at the horizon.

    A single observation predicts +inf (nothing rules anything out yet);
    otherwise the last increment is extended linearly to the horizon. For
    curves with non-increasing increments this never undershoots the truth.
    """
    _check_horizon(horizon)
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
    _check_horizon(horizon)
    _check_real("theta", theta)
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


def _prune_test(params: SolverParams, horizon: int) -> Callable[[list[float], float], bool]:
    """The pruning test of one solve: ``keeps(values, best_last)``.

    ``keeps`` tells whether the forecast of the non-empty ``values`` at
    ``horizon`` reaches ``best_last``, and decides exactly as
    ``forecast >= best_last`` with the predictor of ``params``. Two-point
    evaluates :func:`pred`'s formula in place. Tail-fit fits the centred
    least-squares line over the same window as :func:`tail_fit_pred` in
    O(m), with no ``lstsq``; the window's weights, its denominator and its
    distance to the horizon are kept for the last few history lengths. The 1.0
    clamp cannot change the answer, since observed values, and so
    ``best_last``, never exceed 1. Near-ties defer to :func:`tail_fit_pred`
    itself: a window whose slope is within ``TIE_TOL`` of zero (on a flat
    window ``np.polyfit``'s slope sign is rounding noise, and it picks
    between the last value and the line) or a line within ``TIE_TOL`` of
    ``best_last``.
    """
    if params.predictor != "tail-fit":

        def keeps(values: list[float], best_last: float) -> bool:
            t = len(values)
            if t == 1:
                return True  # pred forecasts +inf
            last = values[-1]
            return last + (last - values[-2]) * (horizon - t) >= best_last

        return keeps

    theta = params.theta
    windows: dict[int, tuple] = {}  # t: (m, weights i - c, denominator, horizon - (t - c))

    def keeps(values: list[float], best_last: float) -> bool:
        t = len(values)
        if t == 1:
            return True  # tail_fit_pred forecasts +inf
        window = windows.get(t)
        if window is None:
            # a level of _adaptive tests two lengths, its own and the horizon's;
            # a few windows at a time keep the memory O(theta * horizon)
            if len(windows) == 4:
                windows.clear()
            m = max(2, math.ceil(theta * t))
            c = (m - 1) / 2  # x_i - xbar = i - c for the window's i-th value
            weights = [i - c for i in range(m)]
            window = windows[t] = (m, weights, m * (m * m - 1) / 12, horizon - (t - c))
        m, weights, denominator, reach = window
        total = sxy = 0.0  # summed in order, as sum() does before Python 3.12
        for w, y in zip(weights, values[-m:]):
            total += y
            sxy += w * y
        slope = sxy / denominator
        line = total / m + slope * reach
        if abs(slope) <= TIE_TOL or abs(line - best_last) <= TIE_TOL:
            return tail_fit_pred(values, horizon, theta) >= best_last
        return (values[-1] if slope < 0 else line) >= best_last

    return keeps


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

    keeps = _prune_test(params, horizon)
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
        # the configs and value lists of ``active``, rebuilt only when a prune shrinks it
        configs = [X[x] for x in active]
        curves = None

        for t in range(t_explore + 1, horizon + 1):
            # a curve trained this far in an earlier round is charged nothing
            if not run.extend_all(configs, t):
                return run.outcome()  # ledger dry mid-level
            if not active:
                break
            if curves is None:  # every history exists once the first level is charged
                curves = [histories[x].values for x in active]
            best_last = max([values[-1] for values in curves])
            kept = [keeps(values, best_last) for values in curves]
            if not all(kept):
                active = list(compress(active, kept))
                configs = list(compress(configs, kept))
                curves = list(compress(curves, kept))
        if not new:
            break  # candidate pool exhausted after a last extension
    return run.outcome()


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
