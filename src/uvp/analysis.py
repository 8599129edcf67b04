"""Measurement tools: smoothness estimation and rank tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clustering import Cover, greedy_radius, k_center
from .core import (
    Configuration,
    InvalidParams,
    SchemaError,
    Trace,
    _check_int,
    _check_real,
    config_columns,
    distance_row,
)
from .instances import TabularBenchmark

DEFAULT_ALPHAS = (90.0, 95.0, 98.0, 99.0)
DEFAULT_FRACTIONS = tuple(i / 10 for i in range(1, 11))  # the budget fractions ranks are taken at


# ---------------------------------------------------------------------------
# smoothness estimation


def _level_rows(bench: TabularBenchmark, skipped: list[tuple[int, int]], strict: bool):
    """Yield the levels of the pairs (i, j), j > i, both ways, in row-major pair order.

    Row i gives a (2, m) view of one reused buffer for its m pairs: row 0
    holds P[i, j], from curve_i / curve_j, and row 1 holds P[j, i], from
    curve_j / curve_i. A ratio 0/0 counts as 1 and positive/0 as +inf, with
    -0.0 read as 0: plain division gives both once -0.0 is made 0.0, as
    ``fmin`` skips the NaN of 0/0 and a floor over a common zero is capped
    at 1. One distance row over the j > i slice serves both; it equals what
    row j would give, since a - b is -(b - a) bit for bit. Coincident pairs
    (i, j) read NaN both ways and are appended to ``skipped`` as their rows
    are made. With ``strict`` set, ``SchemaError`` is raised after the last
    row if any pair was skipped.
    """
    n = bench.n
    if n < 2:
        raise InvalidParams("need at least two configurations to compare")
    columns = config_columns(bench.configs)
    # one column per curve, so a floor is a min over T contiguous rows; a
    # copy even where the transpose is contiguous, since -0.0 becomes 0.0
    by_budget = np.asarray(bench.curves, dtype=float).T.copy()
    by_budget += 0.0
    has_zero = (by_budget == 0.0).any(axis=0)
    d, horizon = len(columns), len(by_budget)
    # flat buffers: row i works in contiguous prefixes shaped to its m pairs,
    # first with its coordinates and then with its ratios
    work = np.empty(max(horizon, d) * (n - 1))
    levels = np.empty(2 * (n - 1))
    for i in range(n - 1):
        m = n - 1 - i
        coords = work[: d * m].reshape(d, m)
        np.copyto(coords, columns[:, i + 1 :])
        # outside the error state below: a distance that overflows still warns
        dist = distance_row(coords, columns[:, i], coords)
        quotients = work[: horizon * m].reshape(horizon, m)
        row = levels[: 2 * m].reshape(2, m)
        ci, rest = by_budget[:, i : i + 1], by_budget[:, i + 1 :]
        # entered per row, so the error state never spans a yield
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # dividing a contiguous copy of the strided columns is as fast as
            # dividing them in place, and numpy then buffers only ci
            np.copyto(quotients, rest)
            np.divide(ci, quotients, out=quotients)
            np.fmin.reduce(quotients, axis=0, out=row[0], initial=np.inf)
            np.copyto(quotients, rest)
            np.divide(quotients, ci, out=quotients)
            np.fmin.reduce(quotients, axis=0, out=row[1], initial=np.inf)
            if has_zero[i]:
                # a floor of 1 or more gives level 0 at any finite distance;
                # at an infinite one, 0/0 = 1 gives 0 where inf would give NaN
                np.minimum(row, 1.0, out=row, where=((ci == 0.0) & (rest == 0.0)).any(axis=0))
            np.subtract(1.0, row, out=row)
            np.divide(row, dist, out=row)
            np.maximum(0.0, row, out=row)
            zero = dist == 0.0
            if zero.any():
                row[:, zero] = np.nan
                skipped.extend((i, i + 1 + int(j)) for j in np.flatnonzero(zero))
        yield row
    if strict and skipped:
        raise SchemaError(f"coincident configuration pairs: {skipped}")


def epsilon_pairwise(
    bench: TabularBenchmark, *, strict: bool = False
) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """The per-pair smoothness levels of full curves, as ``(pairwise, skipped)``.

    ``pairwise[i, j]`` is the smallest level at which the ordered pair (i, j)
    satisfies the ratio bound: max(0, (1 - min_b curve_i(b)/curve_j(b)) / dist).
    In the ratio, 0/0 counts as 1 and positive/0 as +inf, with -0.0 read as
    0. The matrix is not symmetric. Coincident configurations cannot be scored
    and appear as NaN, with the unordered pairs listed in ``skipped``; with
    ``strict`` set they raise ``SchemaError`` instead. The rows are those
    that :func:`epsilon_percentiles` streams, row i giving P[i, j] and
    P[j, i] for j > i, so memory is O(n*n + n*T) and no (n, n, d) array is
    built. A pair about 1e154 or more apart, whose distance overflows to
    inf, reads NaN if its ratio floor is +inf; it is not in ``skipped``,
    and the percentiles drop it.
    ``load_tabular`` scales coordinates to [0, 1], so the CLI never meets one.
    """
    n = bench.n
    skipped: list[tuple[int, int]] = []
    pairwise = np.empty((n, n))
    np.fill_diagonal(pairwise, 0.0)
    for i, (upper, lower) in enumerate(_level_rows(bench, skipped, strict)):
        pairwise[i, i + 1 :] = upper
        pairwise[i + 1 :, i] = lower
    return pairwise, tuple(skipped)


def check_percentile_args(k: int, alphas: Sequence[float]) -> None:
    """Raise ``InvalidParams`` unless ``k`` is an integer >= 1 and alphas are given, all in (0, 100]."""
    if len(alphas) == 0:
        raise InvalidParams("need at least one percentile")
    _check_int("cover size k", k)
    if k < 1:
        raise InvalidParams(f"cover size k must be at least 1, got {k}")
    for alpha in alphas:
        _check_real("percentile", alpha)
        if not 0.0 < alpha <= 100.0:
            raise InvalidParams(f"percentile {alpha} outside (0, 100]")


def _rank(alpha: float, count: int) -> int:
    """Index of the nearest-rank ``alpha`` percentile among ``count`` sorted values."""
    return max(math.ceil(alpha / 100.0 * count) - 1, 0)


def _top(vals: np.ndarray, keep: int) -> float:
    """Move the last ``keep`` of ``vals`` in stable sorted order to its front.

    They keep their given order. Returns t, the smallest of them. Every
    value above t is kept, and of the values equal to t the last ones,
    since a stable sort puts a later equal value higher.
    """
    t = np.partition(vals, vals.size - keep)[vals.size - keep]
    kept = vals > t
    ties = np.flatnonzero(vals == t)
    kept[ties[ties.size - keep + np.count_nonzero(kept) :]] = True
    vals[:keep] = vals[kept]
    return float(t)


def _scaled_percentiles(
    rows: Iterable[tuple[np.ndarray, np.ndarray]],
    configs: Sequence[Configuration],
    k: int,
    alphas: Sequence[float],
) -> tuple[float, dict[float, float]]:
    """Cover radius and nearest-rank percentiles of the pair levels times it.

    ``rows`` gives, row by row in row-major pair order, the levels
    (P[i, j], P[j, i]) of the pairs (i, j), j > i. A pair's value is
    Python's max of the two, and a pair with a NaN either way is not scored.
    The values are read in one pass, and only those that can still reach a
    rank are held: a window that keeps the largest values in pair order.
    """
    n = len(configs)
    pairs = n * (n - 1) // 2
    # the cover does not depend on the levels, so rows are scaled as they come
    radius = greedy_radius(k_center(min(k, n), Cover(configs)), configs) if pairs else 0.0
    # rank r of N values needs the N - r largest, a count that never falls as
    # N grows, so the count at N = pairs serves any number of scored pairs
    keep = max(pairs - _rank(a, pairs) for a in alphas)
    # a compaction frees a quarter of the window and room for a whole row;
    # it copies the window once, so a window over half the pairs would save
    # nothing and every value is held instead (it is then never compacted)
    cap = keep + keep // 4 + n
    if 2 * cap >= pairs:
        cap = pairs
    window = np.empty(cap)
    size = scored = nans = 0
    floor = -math.inf  # no later value below it can reach a rank
    for upper, lower in rows:
        # Python's max(upper, lower): lower only when strictly larger, so ties
        # (and a zero against a negative zero) keep upper; a NaN either way stays
        vals = np.where((lower > upper) | np.isnan(lower), lower, upper)
        unscored = vals.size - int(np.count_nonzero(vals == vals))
        scored += vals.size - unscored
        vals *= radius
        if not 0.0 < radius < math.inf:
            # 0 * inf is NaN, which a sort puts after every number
            nans += int(np.count_nonzero(np.isnan(vals))) - unscored
        vals = vals[vals >= floor]  # NaN too
        if size + vals.size > cap:
            floor = _top(window[:size], keep)
            size = keep
            vals = vals[vals >= floor]
        window[size : size + vals.size] = vals
        size += vals.size
    if not scored:
        raise InvalidParams("no scorable pairs: all embeddings coincide")
    # the window holds the largest `size` of the `finite` numbers in pair
    # order, and _top keeps pair order among equal values, so its stable sort
    # is the top of a stable sort of them all, zeros of either sign included
    finite = scored - nans
    held = window[:size]
    held.sort(kind="stable")
    ranks = {float(a): _rank(a, scored) for a in alphas}
    return radius, {
        a: float(held[r - (finite - size)]) if r < finite else math.nan for a, r in ranks.items()
    }


def epsilon_percentiles(
    bench: TabularBenchmark,
    k: int,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    *,
    strict: bool = False,
) -> tuple[float, dict[float, float], tuple[tuple[int, int], ...]]:
    """Percentiles of the radius-scaled pair levels, as ``(radius, percentiles, skipped)``.

    For every scorable unordered pair the larger of its two ordered levels
    (see :func:`epsilon_pairwise`) enters the multiset once, multiplied by
    the radius of a greedy k-cover of the embeddings; percentiles use the
    nearest-rank rule and are keyed by ``float(alpha)``. The levels are
    streamed row by row in one pass, and only the values that can still
    reach a rank are held: no n x n matrix and no n(n-1)/2 pair array.
    ``skipped`` and ``strict`` are as for :func:`epsilon_pairwise`. ``k``
    and ``alphas`` are checked before any pair is read.
    """
    alphas = tuple(alphas)
    check_percentile_args(k, alphas)
    skipped: list[tuple[int, int]] = []
    rows = _level_rows(bench, skipped, strict)
    radius, percentiles = _scaled_percentiles(rows, bench.configs, k, alphas)
    return radius, percentiles, tuple(skipped)


# ---------------------------------------------------------------------------
# rank aggregation


@dataclass
class RankTable:
    """Mean ranks per algorithm at a grid of budget fractions."""

    fractions: tuple[float, ...]
    algorithms: tuple[str, ...]
    means: np.ndarray

    def rows(self):
        for fi, f in enumerate(self.fractions):
            for ai, a in enumerate(self.algorithms):
                yield f, a, float(self.means[fi, ai])


def mean_rank(
    results: Mapping[tuple[str, int, str], Trace], caps: Mapping[str, float]
) -> RankTable:
    """Average ranks across (dataset, seed) cells at each budget fraction.

    ``results`` maps (dataset, seed, algorithm) to the non-empty ``Trace`` of
    a ``Run``, whose point i is the incumbent after i + 1 units. ``caps``
    gives each dataset's total budget, a finite number > 0. Every cell must
    cover the same algorithms. Ranks are taken at each of
    ``DEFAULT_FRACTIONS`` where every dataset has spent at least one unit,
    and at fraction f a cell reads its incumbent after
    min(len, floor(f * cap + 1e-9)) units. One pass over ``results`` groups
    the cells; each fraction then ranks a (cells x algorithms) table of
    incumbents, best rank 1 and ties averaged (0.0 ties -0.0, a NaN ranks
    0.5), and averages over the cells. Ranks are halves, so the means are
    exact in any summation order.
    """
    if not results:
        raise InvalidParams("no results to rank")
    by_cell: dict[tuple[str, int], set[str]] = {}
    for (ds, seed, alg), trace in results.items():
        if not (isinstance(trace, Trace) and trace):
            got = "an empty Trace" if isinstance(trace, Trace) else type(trace).__name__
            raise InvalidParams(f"({ds}, seed {seed}, {alg}) must be a non-empty Trace, got {got}")
        by_cell.setdefault((ds, seed), set()).add(alg)
    cells = sorted(by_cell)
    algorithms = tuple(sorted(set().union(*by_cell.values())))
    if len(results) != len(cells) * len(algorithms):
        ds, seed = next(c for c in cells if len(by_cell[c]) < len(algorithms))
        raise InvalidParams(
            f"cell ({ds}, {seed}) covers {sorted(by_cell[ds, seed])}, expected {list(algorithms)}"
        )
    for ds, _ in cells:
        if ds not in caps:
            raise InvalidParams(f"no budget cap for dataset {ds!r}")
        _check_real(f"budget cap for dataset {ds!r}", caps[ds])
        if not 0 < caps[ds] < math.inf:
            raise InvalidParams(f"budget cap {caps[ds]} for dataset {ds!r} must be finite and > 0")
    low = min(caps[ds] for ds, _ in cells)
    fractions = tuple(f for f in DEFAULT_FRACTIONS if f * low >= 1)
    if not fractions:
        raise InvalidParams(f"no default fraction of budget {low} reaches one unit")

    means = np.zeros((len(fractions), len(algorithms)))
    values = np.empty((len(cells), len(algorithms)))
    for fi, f in enumerate(fractions):
        for ci, (ds, seed) in enumerate(cells):
            for ai, alg in enumerate(algorithms):
                trace = results[(ds, seed, alg)]  # f * cap >= 1, so the index is >= 0
                values[ci, ai] = trace.incumbents[int(min(len(trace), f * caps[ds] + 1e-9)) - 1]
        better = (values[:, None, :] > values[:, :, None]).sum(axis=2)
        equal = (values[:, None, :] == values[:, :, None]).sum(axis=2)
        means[fi] = (better + (equal + 1) / 2).sum(axis=0) / len(cells)
    return RankTable(fractions=fractions, algorithms=algorithms, means=means)
