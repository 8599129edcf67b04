"""Greedy farthest-first center selection, plain and value-aware.

The plain selector spreads centers by Euclidean distance alone. The
value-aware variant probes each center as it is selected and then shrinks
the effective distance around weak centers, so later picks avoid regions a
low-value center already rules out.

Both run on one incremental engine, :class:`Cover`, built once per solve
(Gonzalez's O(k*n) farthest-first traversal). Each pick folds the new
center's distance row into the nearest-center distances in O(n*d). The
value-aware selector reads each center's value from the run's histories
and keeps its own state for the length of one :func:`e_k_center` call:
the best center value v_max and ``delta``, every candidate's minimum
enhanced distance to a center. It folds each probed center's enhanced row
into ``delta`` in O(n*d) as long as v_max stays put; when v_max rises the
value ratios of all centers change, and ``delta`` is rebuilt from the
coordinates in O(|centers|*n*d) before the next pick. The first pick of
each call rebuilds it as well, because seed values change between calls.
Selecting k centers therefore costs O(k*n*d) plus one rebuild per rise of
v_max, and no k-by-n matrix of distance rows is ever kept.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    Configuration,
    InvalidParams,
    Run,
    _is_int,
    config_columns,
    distance_row,
)

# Centers whose observed value is zero rule out their whole 1/epsilon
# neighbourhood; a finite ratio cap keeps the arithmetic well defined.
DEFAULT_ETA_CAP = 1e6


def _check_selection(k: int, cover: Cover) -> None:
    if k < 0:
        raise InvalidParams(f"cannot select {k} centers")
    n, seeds = len(cover.chosen), len(cover.centers)
    if k + seeds > n:
        raise InvalidParams(
            f"need {k} new centers on top of {seeds} seeds, only {n} candidates"
        )


def _enhanced(dist: np.ndarray, value: float, v_max: float, epsilon: float) -> np.ndarray:
    """Enhanced distance from every point, ``dist`` away, to a center worth ``value``.

    The center's neighbourhood shrinks by its value ratio eta = v_max / value,
    clamped to the cap: eta is 1 when no center has a positive value, and
    the cap when this one has none.
    """
    if v_max <= 0.0:
        eta = 1.0
    elif value <= 0.0:
        eta = DEFAULT_ETA_CAP
    else:
        eta = min(v_max / value, DEFAULT_ETA_CAP)
    return np.minimum(dist, eta * dist - (eta - 1.0) / epsilon)


class Cover:
    """Incremental farthest-first selection state over one candidate set.

    Keeps the candidates as ``configs`` and their embeddings as ``columns``,
    a coordinate-major (d, n) matrix with one row per coordinate. It also
    keeps the chosen mask, the centers in selection order and every
    candidate's plain distance to its nearest center.
    Distance rows are recomputed when needed, never stored. Build one per
    solve, on the initial ``centers``, and pass it to every :func:`k_center`
    / :func:`e_k_center` call of that solve; its centers are their seeds.
    """

    def __init__(self, X: Sequence[Configuration], centers: Sequence[int] = ()) -> None:
        self.configs = X
        self.columns = config_columns(X)
        self._work = np.empty_like(self.columns)
        n = len(X)
        self.centers: list[int] = []
        self.chosen = np.zeros(n, dtype=bool)
        self.nearest = np.full(n, np.inf)
        for c in centers:
            self.add(c)

    def _row(self, center: int) -> np.ndarray:
        return distance_row(self.columns, self.columns[:, center], self._work)

    def farthest(self, score: np.ndarray) -> int:
        """Open candidate with the highest ``score``; ties go to the lowest id."""
        return int(np.argmax(np.where(self.chosen, -np.inf, score)))

    def add(self, center: int) -> np.ndarray:
        """Make ``center`` a center and return its distance row; a bad id changes nothing."""
        n = len(self.chosen)
        if not _is_int(center):
            raise InvalidParams(f"center id must be an integer, got {center!r}")
        if not 0 <= center < n:
            raise InvalidParams(f"center id {center} outside candidate set of size {n}")
        if self.chosen[center]:
            raise InvalidParams(f"center id {center} is already a center")
        self.centers.append(center)
        self.chosen[center] = True
        row = self._row(center)
        np.minimum(self.nearest, row, out=self.nearest)
        return row


def k_center(k: int, cover: Cover) -> list[int]:
    """Select ``k`` new centers by greedy farthest-first traversal.

    Each pick maximises the minimum Euclidean distance to the centers chosen
    so far (the cover's centers included). With no centers at all every
    candidate is at infinite distance and the tie-break picks the lowest id.
    Extends ``cover`` with the picks and returns them in selection order.
    """
    _check_selection(k, cover)
    new: list[int] = []
    for _ in range(k):
        pick = cover.farthest(cover.nearest)
        cover.add(pick)
        new.append(pick)
    return new


def greedy_radius(centers: Sequence[int], X: Sequence[Configuration]) -> float:
    """Covering radius of ``centers``: max over candidates of nearest-center distance."""
    if len(centers) == 0:
        raise InvalidParams("covering radius needs at least one center")
    return float(Cover(X, list(dict.fromkeys(centers))).nearest.max())


def e_k_center(k: int, cover: Cover, t: int, epsilon: float, run: Run) -> list[int]:
    """Select ``k`` centers farthest-first under the value-aware distance.

    Every center of ``cover`` must have a non-empty history in ``run``. Each
    iteration uses the value ratios of the current center values, picks the
    candidate maximising the minimum enhanced distance, and probes it to
    budget ``t`` through ``run`` before the next pick. Extends ``cover`` with
    the picks and returns them in selection order; their histories are in
    ``run.histories``.

    Selection stops once the ledger is dry, so the last probe may be
    truncated and fewer than ``k`` centers returned.
    """
    _check_selection(k, cover)
    histories = run.histories
    for s in cover.centers:
        if len(histories.get(s, ())) == 0:
            raise InvalidParams(f"seed center {s} has no observations")
    if not epsilon > 0:
        raise InvalidParams("epsilon must be positive")
    v_max = max((histories[c].last for c in cover.centers), default=-np.inf)
    delta = np.empty(len(cover.chosen))  # each candidate's minimum enhanced distance to a center
    stale = True  # seed values are new on entry
    new: list[int] = []
    for _ in range(k):
        if run.ledger.remaining == 0:
            break
        if stale:
            delta.fill(np.inf)
            for c in cover.centers:
                value = histories[c].last
                np.minimum(delta, _enhanced(cover._row(c), value, v_max, epsilon), out=delta)
            stale = False
        pick = cover.farthest(delta)
        run.extend_to(cover.configs[pick], t)
        value = histories[pick].last
        row = cover.add(pick)
        if value <= v_max:
            np.minimum(delta, _enhanced(row, value, v_max, epsilon), out=delta)
        else:
            v_max, stale = value, True  # every ratio changed
        new.append(pick)
    return new
