"""Greedy farthest-first center selection, plain and value-aware.

The plain selector spreads centers by Euclidean distance alone. The
value-aware variant probes each center as it is selected and then shrinks
the effective distance around weak centers, so later picks avoid regions a
low-value center already rules out.

Both run on one incremental engine, :class:`Cover`, built once per solve
(Gonzalez's O(k*n) farthest-first traversal). A plain pick folds the new
center's distance row into the nearest-center distances in O(n*d). A
value-aware pick folds the row's enhanced distance into ``delta`` in O(n*d)
as long as the best center value v_max stays put; only when v_max rises do
the value ratios of all centers change, and ``delta`` is rebuilt from the
coordinates in O(|centers|*n*d). Each :func:`e_k_center` call rebuilds it
once on entry as well, because seed values change between calls. Selecting
k centers therefore costs O(k*n*d) plus one rebuild per rise of v_max, and
no k-by-n matrix of distance rows is ever kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Configuration,
    EmptyCenters,
    InsufficientCandidates,
    InvalidParams,
    Run,
    config_matrix,
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
        raise InsufficientCandidates(
            f"need {k} new centers on top of {seeds} seeds, only {n} candidates"
        )


@dataclass
class EnhancedMetric:
    """Per-iteration view of center values used by the value-aware selector."""

    epsilon: float
    value_of: dict[int, float]

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise InvalidParams("epsilon must be positive")

    @property
    def v_max(self) -> float:
        if not self.value_of:
            raise EmptyCenters("no center values recorded")
        return max(self.value_of.values())

    def eta(self, center: int) -> float:
        """Best-to-own value ratio for ``center``, clamped to the cap."""
        v = self.value_of[center]
        v_max = self.v_max
        if v_max <= 0.0:
            return 1.0
        if v <= 0.0:
            return DEFAULT_ETA_CAP
        return min(v_max / v, DEFAULT_ETA_CAP)

    def distances(self, dist: np.ndarray, center: int) -> np.ndarray:
        """Vectorised enhanced distance from every point to ``center``."""
        eta = self.eta(center)
        return np.minimum(dist, eta * dist - (eta - 1.0) / self.epsilon)


class Cover:
    """Incremental farthest-first selection state over one candidate set.

    Keeps the candidates as ``configs`` and their (n, d) embedding matrix,
    the chosen mask, the centers in selection order and every candidate's
    plain distance to its nearest center. While a value-aware selection runs
    (from :meth:`revalue` on) it also holds the center values and ``delta``,
    every candidate's minimum enhanced distance to a center. Distance rows
    are recomputed when needed, never stored. Build one per solve, on the
    initial ``centers``, and pass it to every :func:`k_center` /
    :func:`e_k_center` call of that solve; its centers are their seeds.
    """

    def __init__(self, X: Sequence[Configuration], centers: Sequence[int] = ()) -> None:
        self.configs = X
        self.points = config_matrix(X)
        self._work = np.empty_like(self.points)
        n = len(self.points)
        self.centers: list[int] = []
        self.chosen = np.zeros(n, dtype=bool)
        self.nearest = np.full(n, np.inf)
        self.delta = np.full(n, np.inf)
        self._metric: EnhancedMetric | None = None
        self._v_max: float | None = None
        for c in centers:  # every id is checked before any distance work
            self._place(c)
        for c in self.centers:
            np.minimum(self.nearest, self._row(c), out=self.nearest)

    def _row(self, center: int) -> np.ndarray:
        return distance_row(self.points, self.points[center], self._work)

    def _place(self, center: int) -> None:
        n = len(self.chosen)
        if not 0 <= center < n:
            raise InvalidParams(f"center id {center} outside candidate set of size {n}")
        if self.chosen[center]:
            raise InvalidParams(f"center id {center} is already a center")
        self.centers.append(center)
        self.chosen[center] = True

    def farthest(self, score: np.ndarray) -> int:
        """Open candidate with the highest ``score``; ties go to the lowest id."""
        return int(np.argmax(np.where(self.chosen, -np.inf, score)))

    def add(self, center: int, value: float | None = None) -> None:
        """Make ``center`` a center; ``value`` is its probed value, if any.

        A value also folds the center into ``delta``, which needs an earlier
        :meth:`revalue` call; a plain add leaves ``delta`` stale until the
        next one.
        """
        if value is not None and self._metric is None:
            raise InvalidParams("a valued center needs revalue() first")
        self._place(center)
        row = self._row(center)
        np.minimum(self.nearest, row, out=self.nearest)
        if value is None:
            self._metric = None
            return
        self._metric.value_of[center] = value
        if self._v_max is not None and value <= self._v_max:
            np.minimum(self.delta, self._metric.distances(row, center), out=self.delta)
        else:
            self.revalue(self._metric)  # first value, or v_max rose: every ratio changed

    def revalue(self, metric: EnhancedMetric) -> None:
        """Rebuild ``delta`` from coordinates under ``metric``'s center values.

        ``metric.value_of`` must hold a value for every center; the cover
        keeps it and records the values of later valued adds in it.
        """
        self._metric = metric
        self._v_max = metric.v_max if metric.value_of else None
        self.delta.fill(np.inf)
        for c in self.centers:
            np.minimum(self.delta, metric.distances(self._row(c), c), out=self.delta)


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
        raise EmptyCenters("covering radius needs at least one center")
    return float(Cover(X, list(dict.fromkeys(centers))).nearest.max())


def e_k_center(
    k: int,
    cover: Cover,
    t: int,
    epsilon: float,
    run: Run,
    *,
    allow_partial: bool = False,
) -> list[int]:
    """Select ``k`` centers farthest-first under the value-aware distance.

    Every center of ``cover`` must have a non-empty history in ``run``. Each
    iteration uses the value ratios of the current center values, picks the
    candidate maximising the minimum enhanced distance, and probes it to
    budget ``t`` through ``run`` before the next pick. Extends ``cover`` with
    the picks and returns them in selection order; their histories are in
    ``run.histories``.

    With ``allow_partial`` the selection stops quietly once the ledger cap
    intervenes, so a probe may be truncated and trailing picks skipped.
    """
    _check_selection(k, cover)
    for s in cover.centers:
        if len(run.histories.get(s, ())) == 0:
            raise InvalidParams(f"seed center {s} has no observations")
    cover.revalue(EnhancedMetric(epsilon, {s: run.histories[s].last for s in cover.centers}))
    new: list[int] = []
    for _ in range(k):
        if allow_partial and run.ledger.remaining == 0:
            break
        pick = cover.farthest(cover.delta)
        run.extend_to(cover.configs[pick], t, allow_partial=allow_partial)
        cover.add(pick, run.histories[pick].last)
        new.append(pick)
    return new
