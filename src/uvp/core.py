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


class ParseError(UvpError):
    """A benchmark file contains an unparseable or out-of-range cell."""


class SchemaError(UvpError):
    """A benchmark file is structurally inconsistent (ragged or misnumbered)."""


class TooLarge(UvpError):
    """An input exceeds a size cap: a mesh grid or an exhaustive search."""


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


def config_columns(X: Sequence[Configuration]) -> np.ndarray:
    """Coordinate-major (d, n) embeddings, the layout :func:`distance_row` takes."""
    return np.ascontiguousarray(config_matrix(X).T)


def distance_row(columns: np.ndarray, origin: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Euclidean distance from every column of the (d, n) ``columns`` to ``origin``.

    Bit for bit the result of ``np.linalg.norm(points - origin, axis=1)``
    on the (n, d) ``points = columns.T``. Each coordinate row is subtracted
    and squared in ``work``, a caller-kept (d, n) buffer, so no n*d
    temporary is allocated per row. The d squared rows are then added in the
    order numpy's pairwise summation adds the d terms of one point. Whole
    rows of n values per operation make this many times faster than numpy's
    reduce, which runs one length-d loop per point. The returned row is
    fresh; it never aliases ``work``.
    """
    np.subtract(columns, origin[:, None], out=work)
    np.multiply(work, work, out=work)
    _pairwise_rows(work)
    return np.sqrt(work[0])


def _pairwise_rows(rows: np.ndarray) -> None:
    """Add the rows of ``rows`` into ``rows[0]`` in numpy's pairwise order.

    numpy sums m terms sequentially below 8; up to 128 it keeps eight
    running sums, adds them as a tree and then the remainder in order; above
    128 it splits at a multiple of 8 near the middle and recurses.
    """
    m = len(rows)
    if m < 8:
        for i in range(1, m):
            rows[0] += rows[i]
    elif m <= 128:
        end = m - m % 8
        for i in range(8, end, 8):
            rows[:8] += rows[i : i + 8]
        rows[0:8:2] += rows[1:8:2]
        rows[0:8:4] += rows[2:8:4]
        rows[0] += rows[4]
        for i in range(end, m):
            rows[0] += rows[i]
    else:
        half = m // 2
        half -= half % 8
        _pairwise_rows(rows[:half])
        _pairwise_rows(rows[half:])
        rows[0] += rows[half]


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
