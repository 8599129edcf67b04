"""Measurement tools: smoothness estimation, exhaustive baselines, rank tables."""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clustering import Cover, greedy_radius, k_center
from .core import (
    Configuration,
    InvalidParams,
    SchemaError,
    ValueOracle,
    config_columns,
    distance_row,
)
from .instances import TabularBenchmark

DEFAULT_ALPHAS = (90.0, 95.0, 98.0, 99.0)
DEFAULT_FRACTIONS = tuple(i / 10 for i in range(1, 11))  # the budget fractions ranks are taken at
BRUTE_FORCE_CAP = 15  # brute_force_k_center tries every size-k subset of at most this many


# ---------------------------------------------------------------------------
# smoothness estimation


@dataclass
class EpsilonReport:
    """Pairwise smoothness estimates, optionally completed with percentiles.

    ``pairwise[i, j]`` is the smallest level at which the ordered pair (i, j)
    satisfies the ratio bound: max(0, (1 - min_b curve_i(b)/curve_j(b)) / dist).
    The matrix is not symmetric. Coincident configurations cannot be scored
    and appear as NaN, with the unordered pairs listed in ``skipped``.
    ``r`` and ``percentiles`` are filled in by :func:`epsilon_percentiles`.
    """

    pairwise: np.ndarray
    skipped: tuple[tuple[int, int], ...]
    configs: list[Configuration]
    r: float | None = None
    percentiles: dict[float, float] | None = None


def _level_rows(bench: TabularBenchmark, skipped: list[tuple[int, int]], strict: bool):
    """Yield the levels of the pairs (i, j), j > i, both ways, in row-major pair order.

    Row i gives a (2, m) view of one reused buffer for its m pairs: row 0
    holds P[i, j], from curve_i / curve_j, and row 1 holds P[j, i], from
    curve_j / curve_i, with the same divisions and zero conventions as the
    full matrix. One distance row over the j > i slice serves both; it
    equals what row j would give, since a - b is -(b - a) bit for bit.
    Coincident pairs (i, j) read NaN both ways and are appended to
    ``skipped`` as their rows are made. With ``strict`` set,
    ``SchemaError`` is raised after the last row if any pair was skipped.
    """
    n = bench.n
    if n < 2:
        raise InvalidParams("need at least two configurations to compare")
    columns = config_columns(bench.configs)
    curves = np.asarray(bench.curves, dtype=float)
    # one column per curve, so a floor is a min over T contiguous rows
    by_budget = np.ascontiguousarray(curves.T)
    d, horizon = len(columns), len(by_budget)
    # flat buffers: row i works in contiguous prefixes shaped to its m pairs,
    # and its coordinates take the place of its ratios once they are reduced
    work = np.empty(max(horizon, d) * (n - 1))
    levels = np.empty(2 * (n - 1))
    # ratio conventions 0/0 = 1 and positive/0 = +inf, needed only at the
    # zero cells of the curves; curve j is zero at budgets zero_b[at[j]:at[j + 1]]
    zero_j, zero_b = np.nonzero(curves == 0.0)
    at = np.searchsorted(zero_j, np.arange(n + 1))
    for i in range(n - 1):
        m = n - 1 - i
        quotients = work[: horizon * m].reshape(horizon, m)
        row = levels[: 2 * m].reshape(2, m)
        ci, rest = curves[i][:, None], by_budget[:, i + 1 :]
        # entered per row, so the error state never spans a yield
        with np.errstate(divide="ignore", invalid="ignore"):
            # dividing a contiguous copy of the strided columns is as fast as
            # dividing them in place, and numpy then buffers only ci
            np.copyto(quotients, rest)
            np.divide(ci, quotients, out=quotients)
            if at[i + 1] < at[n]:  # zero cells of the curves j > i
                b, j = zero_b[at[i + 1] :], zero_j[at[i + 1] :] - (i + 1)
                quotients[b, j] = _by_zero(ci[b, 0], quotients[b, j])
            np.minimum.reduce(quotients, axis=0, out=row[0])
            np.copyto(quotients, rest)
            np.divide(quotients, ci, out=quotients)
            if at[i] < at[i + 1]:  # zero cells of curve i
                b = zero_b[at[i] : at[i + 1]]
                quotients[b] = _by_zero(rest[b], quotients[b])
            np.minimum.reduce(quotients, axis=0, out=row[1])
            coords = work[: d * m].reshape(d, m)
            np.copyto(coords, columns[:, i + 1 :])
            dist = distance_row(coords, columns[:, i], coords)
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


def _by_zero(num: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """``ratio`` at cells whose denominator is zero: 0/0 = 1 and positive/0 = +inf."""
    return np.where(num == 0.0, 1.0, np.where(num > 0.0, np.inf, ratio))


def epsilon_pairwise(bench: TabularBenchmark, *, strict: bool = False) -> EpsilonReport:
    """Estimate the per-pair smoothness level from full curves.

    Row i costs O((n - i)*T) for the ratio floors of its pairs j > i, both
    ways, and O((n - i)*d) for their distances, in buffers kept across rows;
    each row fills P[i, j] and P[j, i]. Memory is O(n*n + n*T) and no
    (n, n, d) array is built. With ``strict`` set, coincident embeddings
    raise ``SchemaError`` instead of being skipped.
    """
    n = bench.n
    skipped: list[tuple[int, int]] = []
    pairwise = np.empty((n, n))
    np.fill_diagonal(pairwise, 0.0)
    for i, (upper, lower) in enumerate(_level_rows(bench, skipped, strict)):
        pairwise[i, i + 1 :] = upper
        pairwise[i + 1 :, i] = lower
    return EpsilonReport(pairwise=pairwise, skipped=tuple(skipped), configs=list(bench.configs))


def check_percentile_args(k: int, alphas: Sequence[float]) -> None:
    """Raise ``InvalidParams`` unless ``k >= 1`` and every alpha lies in (0, 100]."""
    if k < 1:
        raise InvalidParams(f"cover size k must be at least 1, got {k}")
    for alpha in alphas:
        if not 0.0 < alpha <= 100.0:
            raise InvalidParams(f"percentile {alpha} outside (0, 100]")


def _rank(alpha: float, count: int) -> int:
    """Index of the nearest-rank ``alpha`` percentile among ``count`` sorted values."""
    return max(math.ceil(alpha / 100.0 * count) - 1, 0)


# _nearest_rank scans its values in slices of this many, so no mask or
# index array grows with the number of pairs
_SCAN = 1 << 14


def _nearest_rank(vals: np.ndarray, ranks: Mapping[float, int]) -> dict[float, float]:
    """The values at ``ranks`` of ``vals`` as a stable sort would order them.

    ``vals`` is partitioned in place. Zeros of either sign compare equal, so
    a stable sort keeps them in their given order between the negatives and
    the positives: a rank that falls on a zero takes the sign of the zero at
    that place in ``vals``, which is read before the partition.
    """
    negatives = sum(
        int(np.count_nonzero(vals[lo : lo + _SCAN] < 0.0)) for lo in range(0, vals.size, _SCAN)
    )
    on_zero = {a: r - negatives for a, r in ranks.items() if r >= negatives}
    out: dict[float, float] = {}
    seen = 0
    for lo in range(0, vals.size, _SCAN):
        if len(out) == len(on_zero):
            break
        chunk = vals[lo : lo + _SCAN]
        zeros = np.flatnonzero(chunk == 0.0)
        for a, z in on_zero.items():
            if seen <= z < seen + zeros.size:
                out[a] = float(chunk[zeros[z - seen]])
        seen += zeros.size
    rest = sorted({r for a, r in ranks.items() if a not in out})
    if rest:
        vals.partition(rest)
    return {a: out[a] if a in out else float(vals[r]) for a, r in ranks.items()}


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
    # the window holds the largest `size` of the `finite` numbers
    finite = scored - nans
    ranks = {float(a): _rank(a, scored) for a in alphas}
    picked = _nearest_rank(
        window[:size], {a: r - (finite - size) for a, r in ranks.items() if r < finite}
    )
    return radius, {a: picked.get(a, math.nan) for a in ranks}


def epsilon_percentiles(
    report: EpsilonReport,
    k: int,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> EpsilonReport:
    """Complete a report with percentiles of the levels scaled by the cover radius.

    For every scorable unordered pair the larger of its two ordered estimates
    enters the multiset once, multiplied by the radius of a greedy k-cover of
    the embeddings; percentiles use the nearest-rank rule. Matrix row i is
    folded against column i in one pass, and beyond the matrix only the
    values that can still reach a rank are held. ``k`` and ``alphas`` are
    checked before any pair is read.
    """
    alphas = tuple(alphas)
    check_percentile_args(k, alphas)
    levels = report.pairwise
    rows = ((levels[i, i + 1 :], levels[i + 1 :, i]) for i in range(len(report.configs) - 1))
    radius, percentiles = _scaled_percentiles(rows, report.configs, k, alphas)
    return replace(report, r=radius, percentiles=percentiles)


def lipschitz_check(bench: TabularBenchmark, epsilon: float) -> float:
    """Worst slack of |curve_i(b) - curve_j(b)| <= epsilon * distance.

    Returns max over unordered pairs and budgets of the left side minus the
    right side; a non-positive result means the bound holds everywhere.
    """
    if epsilon < 0:
        raise InvalidParams("epsilon must be non-negative")
    n = bench.n
    if n < 2:
        raise InvalidParams("need at least two configurations to compare")
    columns = config_columns(bench.configs)
    work = np.empty_like(columns)
    worst = -math.inf
    for i in range(n - 1):
        gaps = np.abs(bench.curves[i + 1 :] - bench.curves[i]).max(axis=1)
        dists = distance_row(columns[:, i + 1 :], columns[:, i], work[:, i + 1 :])
        worst = max(worst, float((gaps - epsilon * dists).max()))
    return worst


# ---------------------------------------------------------------------------
# exhaustive baselines


@dataclass
class ClusteringReport:
    """Greedy cover radius next to the exhaustively optimal one."""

    k: int
    greedy_radius: float
    optimal_radius: float
    greedy_centers: tuple[int, ...]
    optimal_centers: tuple[int, ...]


def brute_force_k_center(X: Sequence[Configuration], k: int) -> ClusteringReport:
    """Exact k-cover by trying every size-k subset of at most ``BRUTE_FORCE_CAP`` points.

    Every subset's radius is read off one table of the n distance rows; ties
    keep the first subset in ``combinations`` order. Also runs the greedy
    selection on the same input so callers can compare the two radii directly.
    """
    n = len(X)
    if n > BRUTE_FORCE_CAP:
        raise InvalidParams(
            f"{n} configurations exceed the exhaustive-search cap {BRUTE_FORCE_CAP}"
        )
    if not 1 <= k <= n:
        raise InvalidParams(f"k must be in 1..{n}")
    columns = config_columns(X)
    work = np.empty_like(columns)
    rows = np.stack([distance_row(columns, columns[:, i], work) for i in range(n)])
    best: tuple[int, ...] | None = None
    best_radius = math.inf
    for subset in itertools.combinations(range(n), k):
        radius = float(rows[list(subset)].min(axis=0).max())
        if radius < best_radius:
            best_radius, best = radius, subset
    assert best is not None
    cover = Cover(X)
    greedy = k_center(k, cover)
    return ClusteringReport(
        k=k,
        greedy_radius=float(cover.nearest.max()),
        optimal_radius=float(best_radius),
        greedy_centers=tuple(greedy),
        optimal_centers=best,
    )


def brute_force_opt(
    X: Sequence[Configuration],
    oracle: ValueOracle,
) -> tuple[int, float]:
    """Best configuration id and value at full budget, scanning everything."""
    if not X:
        raise InvalidParams("no configurations to scan")
    best_id, best_val = -1, -math.inf
    for cfg in X:
        v = oracle.query(cfg, oracle.horizon)
        if v > best_val:
            best_id, best_val = cfg.id, v
    return best_id, float(best_val)


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


def incumbent_at(trace: Sequence[tuple[int, float]], spent_cap: float) -> float:
    """Best value seen by the time ``spent_cap`` units were charged.

    ``trace`` is any sequence of (spent, incumbent) pairs whose spends never
    decrease, such as a ``Run`` trace or a list of tuples; the last point at
    or before the cap is found by bisection. No point is at or before a NaN
    cap.
    """
    i = bisect.bisect_right(trace, spent_cap + 1e-9, key=operator.itemgetter(0))
    if i == 0 or math.isnan(spent_cap):
        raise InvalidParams(f"no trace point at or before spend {spent_cap}")
    return trace[i - 1][1]


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """Rank 1 for the highest value; tied values share the mean of their ranks."""
    v = np.asarray(values, dtype=float)
    better = (v[None, :] > v[:, None]).sum(axis=1)
    equal = (v[None, :] == v[:, None]).sum(axis=1)
    return better + (equal + 1) / 2


def mean_rank(
    results: Mapping[tuple[str, int, str], Sequence[tuple[int, float]]],
    caps: Mapping[str, int],
    fractions: Sequence[float] | None = None,
) -> RankTable:
    """Average ranks across (dataset, seed) cells at each budget fraction.

    ``results`` maps (dataset, seed, algorithm) to a trace: any sequence of
    (spent, incumbent) pairs whose spends never decrease, such as a ``Run``
    trace. ``caps`` gives each dataset's total budget, a finite number > 0.
    Within a cell algorithms are ranked by incumbent value, best rank 1 and
    ties averaged, then ranks are averaged over cells. Every cell must cover
    the same algorithms. By default ranks are taken at each of
    ``DEFAULT_FRACTIONS`` where every dataset has spent at least one unit.
    """
    if not results:
        raise InvalidParams("no results to rank")
    cells = sorted({(ds, seed) for ds, seed, _ in results})
    algorithms = tuple(sorted({alg for _, _, alg in results}))
    for ds, seed in cells:
        have = {alg for d, s, alg in results if (d, s) == (ds, seed)}
        if have != set(algorithms):
            raise InvalidParams(
                f"cell ({ds}, {seed}) covers {sorted(have)}, expected {list(algorithms)}"
            )
    for ds, _ in cells:
        if ds not in caps:
            raise InvalidParams(f"no budget cap for dataset {ds!r}")
        if not 0 < caps[ds] < math.inf:
            raise InvalidParams(f"budget cap {caps[ds]} for dataset {ds!r} must be finite and > 0")
    if fractions is None:
        low = min(caps[ds] for ds, _ in cells)
        fractions = [f for f in DEFAULT_FRACTIONS if f * low >= 1]
        if not fractions:
            raise InvalidParams(f"no default fraction of budget {low} reaches one unit")

    means = np.zeros((len(fractions), len(algorithms)))
    for fi, f in enumerate(fractions):
        if not 0.0 < f <= 1.0:
            raise InvalidParams(f"fraction {f} outside (0, 1]")
        acc = np.zeros(len(algorithms))
        for ds, seed in cells:
            vals = []
            for alg in algorithms:
                trace = results[(ds, seed, alg)]
                try:
                    vals.append(incumbent_at(trace, f * caps[ds]))
                except InvalidParams:
                    raise InvalidParams(
                        f"({ds}, seed {seed}, {alg}) has no spend at fraction {f}"
                    ) from None
            acc += _average_ranks(vals)
        means[fi] = acc / len(cells)
    return RankTable(fractions=tuple(float(f) for f in fractions), algorithms=algorithms, means=means)
