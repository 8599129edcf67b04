"""Shared domain types: configurations, value oracles, histories, budget accounting.

Every solver in this package is built from the same primitives: an immutable
candidate ``Configuration``, a ``ValueOracle`` answering "what value does
configuration x reach after b units of training", an append-only ``History``
of observed values, and a ``BudgetLedger`` that meters every unit spent.
A ``Run`` is the one way to spend: ``Run.extend_all`` trains a batch of
curves to one budget as far as the ledger allows, reading each unit it
charges with one ``ValueOracle.query`` call.
"""

from __future__ import annotations

import itertools
import math
import numbers
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Mapping, Sequence, Set
from dataclasses import dataclass, field

import numpy as np

# Observed values live in [0, 1]; ingestion tolerates float noise up to this
# slack and clamps, anything further out is rejected.
VALUE_TOL = 1e-12


def _is_int(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; a ``bool`` is not."""
    return type(x) is int or isinstance(x, np.integer)


def _check_int(what: str, x) -> None:
    """Raise ``InvalidParams`` unless ``x`` is a Python or numpy integer."""
    if not _is_int(x):
        raise InvalidParams(f"{what} must be an integer, got {x!r}")


def _check_real(what: str, x) -> None:
    """Raise ``InvalidParams`` unless ``x`` is a real number; a ``bool`` is not."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InvalidParams(f"{what} must be a real number, got {x!r}")


def _check_seed(seed: int) -> None:
    _check_int("seed", seed)
    if seed < 0:
        raise InvalidParams(f"seed must be non-negative, got {seed}")


class UvpError(Exception):
    """Base class for every error raised by this package."""


class InvalidParams(UvpError):
    """An argument outside its documented domain.

    This covers solver and generator parameters; budgets, budget indices
    and horizons (a ledger cap, ``B < T``, a target past the horizon); a
    candidate pool too small for the selection asked of it; an empty set
    of centers or an empty history; a query point outside the landscape's
    domain; an input past a size cap (a mesh grid, a hard instance, the
    seeds of a bench); and a rank aggregation missing a cell's trace.
    """


class ParseError(UvpError):
    """A benchmark file contains an unparseable or out-of-range cell."""


class SchemaError(UvpError):
    """Benchmark data that is structurally inconsistent.

    This covers a ragged or misnumbered file and, under ``strict``, two
    distinct configurations that share an embedding (zero distance).
    """


class InvalidValue(UvpError, ValueError):
    """An observed value is unreadable as a float, not finite or outside [0, 1]."""


@dataclass(frozen=True)
class Configuration:
    """One candidate: an embedding vector plus its index in the candidate set."""

    coords: tuple[float, ...]
    id: int

    def __post_init__(self) -> None:
        coords = self.coords
        try:
            size = len(coords)
        except TypeError:
            size = None
        # a set or a mapping has no coordinate order
        if size is None or (type(coords) is not tuple and isinstance(coords, (Set, Mapping))):
            raise InvalidParams(f"configuration {self.id} coordinates must be a sequence")
        if size < 1:
            raise InvalidParams("configuration needs at least one coordinate")
        try:
            finite = all(math.isfinite(c) for c in self.coords)
        except TypeError:
            raise InvalidParams(f"configuration {self.id} has non-numeric coordinates") from None
        if not finite:
            raise InvalidParams(f"configuration {self.id} has non-finite coordinates")
        _check_int("configuration id", self.id)
        if self.id < 0:
            raise InvalidParams("configuration id must be non-negative")

    @property
    def dimension(self) -> int:
        return len(self.coords)


def config_columns(X: Sequence[Configuration]) -> np.ndarray:
    """Coordinate-major (d, n) embeddings, the layout :func:`distance_row` takes.

    Ids must equal positions, and every candidate must have the dimension of
    the first.
    """
    n = len(X)
    d = X[0].dimension if n else 0
    for pos, cfg in enumerate(X):
        if cfg.id != pos:
            raise InvalidParams(f"configuration at position {pos} has id {cfg.id}")
        if len(cfg.coords) != d:
            raise InvalidParams(
                f"configuration {pos} has dimension {len(cfg.coords)}, configuration 0 has {d}"
            )
    flat = np.fromiter(itertools.chain.from_iterable(c.coords for c in X), dtype=float, count=n * d)
    return np.ascontiguousarray(flat.reshape(n, d).T)


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
        try:
            v = float(value)
        except (TypeError, ValueError, OverflowError):
            raise InvalidValue(f"observed value {value!r} is not a number") from None
        if not math.isfinite(v) or v < -VALUE_TOL or v > 1.0 + VALUE_TOL:
            raise InvalidValue(f"observed value {value!r} outside [0, 1]")
        self.values.append(min(max(v, 0.0), 1.0))

    @property
    def last(self) -> float:
        if not self.values:
            raise InvalidParams(f"configuration {self.owner} has no observations")
        return self.values[-1]

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"History(owner={self.owner}, values={self.values!r})"


class ValueOracle(ABC):
    """Answers value queries A(x, b) for budgets 1..horizon. Stateless reads."""

    def __init__(self, dimension: int, horizon: int) -> None:
        _check_int("oracle dimension", dimension)
        _check_int("oracle horizon", horizon)
        if dimension < 1:
            raise InvalidParams("oracle dimension must be >= 1")
        if horizon < 1:
            raise InvalidParams("oracle horizon must be >= 1")
        self.dimension = dimension
        self.horizon = horizon

    def _check_budget(self, b: int) -> None:
        if type(b) is not int and not _is_int(b) or b < 1 or b > self.horizon:
            raise InvalidParams(f"budget index {b} outside 1..{self.horizon}")

    @abstractmethod
    def query(self, config: Configuration, b: int) -> float:
        """Value reached by ``config`` after ``b`` training units."""


@dataclass
class BudgetLedger:
    """Meters evaluation spend against a hard cap. One unit = one budget step.

    ``spent`` starts at 0, and only :class:`Run`'s charging loop advances it.
    """

    cap: int
    spent: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not _is_int(self.cap) or self.cap < 0:
            raise InvalidParams(f"budget cap must be a non-negative integer, got {self.cap!r}")

    @property
    def remaining(self) -> int:
        return self.cap - self.spent


class Trace(Sequence):
    """An anytime trace: point i is (i + 1 units spent, incumbent after them).

    The spend of point i is always i + 1, so only the incumbents are kept,
    one float per charged unit. Reads give the stored float objects. A trace
    equals, and has the ``repr`` of, the list of (spent, incumbent) tuples it
    stands for; a slice is such a list. That tuple view is kept for the trace
    checks of ``perfbench/checks.py`` and for the tests; ``mean_rank`` and
    the trace writer read ``incumbents`` by index.
    """

    __slots__ = ("incumbents",)

    def __init__(self, incumbents: Iterable[float] = ()) -> None:
        self.incumbents: list[float] = list(incumbents)

    def __len__(self) -> int:
        return len(self.incumbents)

    def __getitem__(self, i):
        incumbents = self.incumbents
        if isinstance(i, slice):
            return [(j + 1, incumbents[j]) for j in range(*i.indices(len(incumbents)))]
        value = incumbents[i]  # an index out of range raises here, before the modulo
        return (i % len(incumbents) + 1, value)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return enumerate(self.incumbents, 1)

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self.incumbents == other.incumbents
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class SearchOutcome:
    """Result of one solver run: the incumbent plus its anytime trace.

    The trace keeps one incumbent float per charged unit; point i is
    (i + 1, incumbent).
    """

    best: int
    best_value: float
    trace: Trace = field(default_factory=Trace)
    histories: dict[int, History] = field(default_factory=dict)


class Run:
    """Bookkeeping for one solver execution: histories, spend trace, incumbent.

    Every unit a solver or baseline spends is charged by :meth:`_extend`,
    the only code that advances ``ledger.spent``; it reads each unit with one
    ``oracle.query`` call. :meth:`extend_all` is the one way to spend; on a
    dry ledger it returns False without a query. The trace keeps one
    incumbent float per charged unit, in charge order; point i is
    (i + 1, incumbent), so it doubles as the anytime curve.
    """

    def __init__(self, oracle: ValueOracle, ledger: BudgetLedger) -> None:
        self.oracle = oracle
        self.ledger = ledger
        self.histories: dict[int, History] = {}
        self.trace = Trace()

    # kept only because perfbench/tracing.py wraps it by name
    def step(self, config: Configuration) -> bool:
        """``extend_all`` of ``config``'s next unit."""
        return self.extend_all((config,), len(self.histories.get(config.id, ())) + 1)

    def extend_all(self, configs: Sequence[Configuration], t: int) -> bool:
        """Train each of ``configs`` up to budget t, charging only the missing units.

        Units are charged config by config, each curve budget by budget, as
        far as the ledger allows; the first curve the ledger cannot fill is
        filled as far as it goes and the configs after it get nothing. A
        config listed twice is charged once. Returns False if the ledger ran
        dry before every curve reached t. A target that is not an integer in
        1..horizon raises before any charge.
        """
        horizon = self.oracle.horizon
        if not _is_int(t) or t < 1 or t > horizon:
            raise InvalidParams(f"target budget {t} outside 1..{horizon}")
        return self._extend(configs, t)

    def _extend(self, configs: Iterable[Configuration], t: int) -> bool:
        """Query, record and charge every missing unit of ``configs`` up to budget t.

        A unit is charged only once its value is recorded, so a query or
        value that raises charges nothing and leaves every earlier unit
        charged. A history enters ``histories`` only with its first value,
        once the curve's units are charged or one of them raises.
        A value in [0, 1] is stored as read; any other goes through
        :meth:`History.append`.
        """
        ledger, histories, incumbents = self.ledger, self.histories, self.trace.incumbents
        query = self.oracle.query
        incumbent = incumbents[-1] if incumbents else -math.inf
        for config in configs:
            cid = config.id
            h = histories.get(cid)
            if h is None:
                h = History(cid)
            recorded = h.values
            have = len(recorded)
            room = ledger.cap - ledger.spent
            stop = t if t - have <= room else have + room
            try:
                for b in range(have + 1, stop + 1):
                    v = query(config, b)
                    if type(v) is float and 0.0 <= v <= 1.0:
                        recorded.append(v)
                    else:
                        h.append(v)  # the tolerance-and-clamp rule
                        v = recorded[-1]
                    ledger.spent += 1
                    if v > incumbent:
                        incumbent = v
                    incumbents.append(incumbent)
            finally:
                if not have and recorded:
                    histories[cid] = h
            if stop < t:
                return False
        return True

    def outcome(self) -> SearchOutcome:
        """Best evaluated candidate (ties to the lowest id) plus the trace."""
        if not self.histories:
            raise InvalidParams("no candidate was ever evaluated")
        best = min(self.histories, key=lambda c: (-self.histories[c].last, c))
        return SearchOutcome(
            best=best,
            best_value=self.histories[best].last,
            trace=Trace(self.trace.incumbents),
            histories=dict(self.histories),
        )
