"""Shared domain types: configurations, value oracles, histories, budget accounting.

Every solver in this package is built from the same primitives: an immutable
candidate ``Configuration``, a ``ValueOracle`` answering "what value does
configuration x reach after b units of training", an append-only ``History``
of observed values, and a ``BudgetLedger`` that meters every unit spent.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# Observed values live in [0, 1]; ingestion tolerates float noise up to this
# slack and clamps, anything further out is rejected.
VALUE_TOL = 1e-12


class UvpError(Exception):
    """Base class for every error raised by this package."""


class BudgetExhausted(UvpError):
    """Requested work does not fit in the remaining budget."""


class InvalidBudget(UvpError):
    """A budget or budget index violates its contract (e.g. B < T, t < 1)."""


class InvalidParams(UvpError):
    """Solver or generator parameters outside their documented domain."""


class InsufficientCandidates(UvpError):
    """The candidate pool is too small for the requested selection."""


class EmptyCenters(UvpError):
    """An operation that needs at least one center received none."""


class EmptyHistory(UvpError):
    """An operation that needs at least one observation received none."""


class OutOfDomain(UvpError):
    """A query point lies outside the landscape's domain."""


class SizeOverflow(UvpError):
    """A requested grid would exceed the configured size cap."""


class ParseError(UvpError):
    """A benchmark file contains an unparseable or out-of-range cell."""


class SchemaError(UvpError):
    """A benchmark file is structurally inconsistent (ragged or misnumbered)."""


class TooLarge(UvpError):
    """An exact (exponential) computation was asked for too large an input."""


class MissingTrace(UvpError):
    """A rank aggregation is missing the trace for one of its cells."""


class DegenerateEmbedding(UvpError):
    """Two distinct configurations share an embedding (zero distance)."""


class InvalidValue(UvpError, ValueError):
    """An observed value is not finite or lies outside [0, 1]."""


@dataclass(frozen=True)
class Configuration:
    """One candidate: an embedding vector plus its index in the candidate set."""

    coords: tuple[float, ...]
    id: int

    def __post_init__(self) -> None:
        if len(self.coords) < 1:
            raise InvalidParams("configuration needs at least one coordinate")
        if not all(math.isfinite(c) for c in self.coords):
            raise InvalidParams(f"configuration {self.id} has non-finite coordinates")
        if self.id < 0:
            raise InvalidParams("configuration id must be non-negative")

    @property
    def dimension(self) -> int:
        return len(self.coords)


def config_matrix(X: Sequence[Configuration]) -> np.ndarray:
    """Stack candidate embeddings into an (n, d) array; ids must equal positions."""
    for pos, cfg in enumerate(X):
        if cfg.id != pos:
            raise InvalidParams(f"configuration at position {pos} has id {cfg.id}")
    return np.asarray([c.coords for c in X], dtype=float)


def distance_row(points: np.ndarray, origin: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Euclidean distance from every row of ``points`` to ``origin``.

    Same arithmetic, bit for bit, as ``np.linalg.norm(points - origin,
    axis=1)``, but computed in ``work``, a caller-kept buffer of the shape
    of ``points``: a fresh (n, d) temporary per row is handed back to the
    OS by the allocator and page-faulted in again on the next row.
    """
    np.subtract(points, origin, out=work)
    np.multiply(work, work, out=work)
    return np.sqrt(np.add.reduce(work, axis=1))


class History:
    """Observed values for one configuration at budgets 1..t. Append-only."""

    __slots__ = ("owner", "values")

    def __init__(self, owner: int, values: Sequence[float] = ()) -> None:
        self.owner = owner
        self.values: list[float] = []
        for v in values:
            self.append(v)

    def append(self, value: float) -> None:
        v = float(value)
        if not math.isfinite(v) or v < -VALUE_TOL or v > 1.0 + VALUE_TOL:
            raise InvalidValue(f"observed value {value!r} outside [0, 1]")
        self.values.append(min(max(v, 0.0), 1.0))

    @property
    def last(self) -> float:
        if not self.values:
            raise EmptyHistory(f"configuration {self.owner} has no observations")
        return self.values[-1]

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"History(owner={self.owner}, values={self.values!r})"


class ValueOracle(ABC):
    """Answers value queries A(x, b) for budgets 1..horizon. Stateless reads."""

    def __init__(self, dimension: int, horizon: int) -> None:
        if dimension < 1:
            raise InvalidParams("oracle dimension must be >= 1")
        if horizon < 1:
            raise InvalidBudget("oracle horizon must be >= 1")
        self.dimension = dimension
        self.horizon = horizon

    def _check_budget(self, b: int) -> None:
        if not isinstance(b, (int, np.integer)) or b < 1 or b > self.horizon:
            raise InvalidBudget(f"budget index {b} outside 1..{self.horizon}")

    @abstractmethod
    def query(self, config: Configuration, b: int) -> float:
        """Value reached by ``config`` after ``b`` training units."""


class CallableOracle(ValueOracle):
    """Wrap an arbitrary (config, b) -> value callable."""

    def __init__(self, fn: Callable[[Configuration, int], float], dimension: int, horizon: int) -> None:
        super().__init__(dimension, horizon)
        self._fn = fn

    def query(self, config: Configuration, b: int) -> float:
        self._check_budget(b)
        return float(self._fn(config, b))


@dataclass
class BudgetLedger:
    """Meters evaluation spend against a hard cap. One unit = one budget step."""

    cap: int
    spent: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.cap, (int, np.integer)) or self.cap < 0:
            raise InvalidBudget(f"budget cap must be a non-negative integer, got {self.cap!r}")
        if self.spent < 0 or self.spent > self.cap:
            raise InvalidBudget("initial spend outside [0, cap]")

    @property
    def remaining(self) -> int:
        return self.cap - self.spent

    def charge(self, units: int = 1) -> None:
        if units < 0:
            raise InvalidBudget("cannot charge a negative number of units")
        if self.spent + units > self.cap:
            raise BudgetExhausted(f"charge of {units} exceeds remaining {self.remaining}")
        self.spent += units


@dataclass
class SearchOutcome:
    """Result of one solver run: the incumbent plus its anytime trace."""

    best: int
    best_value: float
    trace: list[tuple[int, float]] = field(default_factory=list)
    histories: dict[int, History] = field(default_factory=dict)


class Run:
    """Bookkeeping for one solver execution: histories, spend trace, incumbent.

    Every unit a solver or baseline spends goes through :meth:`step`, the
    only caller of :meth:`BudgetLedger.charge`. The trace records one (units
    spent, incumbent value) point per charged unit, as it is charged, so it
    doubles as the anytime curve.
    """

    def __init__(self, oracle: ValueOracle, ledger: BudgetLedger) -> None:
        self.oracle = oracle
        self.ledger = ledger
        self.histories: dict[int, History] = {}
        self.trace: list[tuple[int, float]] = []
        self._incumbent = -math.inf

    def step(self, config: Configuration) -> None:
        """Charge one unit and evaluate ``config`` at its next budget index.

        The only place a history is created, and only once it holds a value.
        """
        h = self.histories.get(config.id)
        if h is None:
            h = History(config.id)
        self.ledger.charge(1)
        h.append(self.oracle.query(config, len(h) + 1))
        self.histories[config.id] = h
        self._incumbent = max(self._incumbent, h.last)
        self.trace.append((self.ledger.spent, self._incumbent))

    def extend_to(self, config: Configuration, t: int, *, allow_partial: bool = False) -> bool:
        """Train ``config`` up to budget t, charging only the missing units.

        Returns False on a partial fill. Without ``allow_partial`` a fill
        that does not fit raises before any charge, as does a target outside
        1..horizon.
        """
        if t < 1 or t > self.oracle.horizon:
            raise InvalidBudget(f"target budget {t} outside 1..{self.oracle.horizon}")
        missing = t - len(self.histories.get(config.id, ()))
        if not allow_partial and missing > self.ledger.remaining:
            raise BudgetExhausted(f"need {missing} units, only {self.ledger.remaining} remain")
        for _ in range(missing):
            if self.ledger.remaining == 0:
                return False
            self.step(config)
        return True

    def outcome(self) -> SearchOutcome:
        """Best evaluated candidate (ties to the lowest id) plus the trace."""
        if not self.histories:
            raise EmptyHistory("no candidate was ever evaluated")
        best = min(self.histories, key=lambda c: (-self.histories[c].last, c))
        return SearchOutcome(
            best=best,
            best_value=self.histories[best].last,
            trace=list(self.trace),
            histories=dict(self.histories),
        )
