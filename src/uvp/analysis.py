"""Measurement tools: smoothness estimation, exhaustive baselines, rank tables."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clustering import Cover, k_center
# brute_force_k_center no longer calls it; perfbench/tracing.py wraps it by name here
from .clustering import greedy_radius  # noqa: F401
from .core import (
    Configuration,
    DegenerateEmbedding,
    InvalidParams,
    MissingTrace,
    TooLarge,
    ValueOracle,
    config_columns,
    distance_row,
)
from .instances import TabularBenchmark

DEFAULT_ALPHAS = (90.0, 95.0, 98.0, 99.0)
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
    """Yield row i of the pairwise level matrix, for i = 0..n-1, in one reused buffer.

    Coincident pairs (i, j), i < j, are appended to ``skipped`` as their
    rows are made. With ``strict`` set, ``DegenerateEmbedding`` is raised
    after the last row if any pair was skipped.
    """
    n = bench.n
    if n < 2:
        raise InvalidParams("need at least two configurations to compare")
    columns = config_columns(bench.configs)
    work = np.empty_like(columns)
    curves = np.asarray(bench.curves, dtype=float)
    # one column per curve, so the floor of row i is a min over T rows
    by_budget = np.ascontiguousarray(curves.T)
    ratios = np.empty_like(by_budget)
    # ratio conventions 0/0 = 1 and positive/0 = +inf, needed only at the
    # zero cells of the curves
    zero_b, zero_j = np.nonzero(by_budget == 0.0)
    row = np.empty(n)
    for i in range(n):
        # entered per row, so the error state never spans a yield
        with np.errstate(divide="ignore", invalid="ignore"):
            ci = curves[i]
            np.divide(ci[:, None], by_budget, out=ratios)
            if zero_b.size:
                num = ci[zero_b]
                ratios[zero_b, zero_j] = np.where(
                    num == 0.0, 1.0, np.where(num > 0.0, np.inf, ratios[zero_b, zero_j])
                )
            dist = distance_row(columns, columns[:, i], work)
            np.subtract(1.0, np.minimum.reduce(ratios, axis=0), out=row)
            np.divide(row, dist, out=row)
            np.maximum(0.0, row, out=row)
            row[i] = 0.0
            zero = dist == 0.0
            zero[i] = False
            if zero.any():
                row[zero] = np.nan
                skipped.extend((i, int(j)) for j in np.flatnonzero(zero) if i < j)
        yield row
    if strict and skipped:
        raise DegenerateEmbedding(f"coincident configuration pairs: {skipped}")


def epsilon_pairwise(bench: TabularBenchmark, *, strict: bool = False) -> EpsilonReport:
    """Estimate the per-pair smoothness level from full curves.

    Row i costs O(n*T) for the ratio floors and O(n*d) for the distances,
    in buffers kept across rows; memory is O(n*n + n*T) and no (n, n, d)
    array is built. With ``strict`` set, coincident embeddings raise
    ``DegenerateEmbedding`` instead of being skipped.
    """
    skipped: list[tuple[int, int]] = []
    pairwise = np.empty((bench.n, bench.n))
    for i, row in enumerate(_level_rows(bench, skipped, strict)):
        pairwise[i] = row
    return EpsilonReport(pairwise=pairwise, skipped=tuple(skipped), configs=list(bench.configs))


def check_percentile_args(k: int, alphas: Sequence[float]) -> None:
    """Raise ``InvalidParams`` unless ``k >= 1`` and every alpha lies in (0, 100]."""
    if k < 1:
        raise InvalidParams(f"cover size k must be at least 1, got {k}")
    for alpha in alphas:
        if not 0.0 < alpha <= 100.0:
            raise InvalidParams(f"percentile {alpha} outside (0, 100]")


# pair values are scanned in slices of this many, so no scan holds a
# temporary the size of all of them
_SCAN = 1 << 14


def _pair_levels(rows: Iterable[np.ndarray], n: int) -> np.ndarray:
    """The larger level of every scorable unordered pair, folded from matrix rows.

    Pairs (i, j), i < j, come in row-major order. Row i writes its upper
    part P[i, j], j > i, and folds its lower part P[i, j], j < i, into pair
    (j, i). Pairs with a NaN on either side are dropped in place, and the
    result is a view of the n(n-1)/2 buffer.
    """
    vals = np.empty(n * (n - 1) // 2)
    # pair (j, i), j < i, sits at lower[j] + i
    starts = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
    lower = starts - np.arange(n) - 1
    for i, row in enumerate(rows):
        pos = lower[:i] + i
        a, b = vals[pos], row[:i]
        # Python's max(a, b): b only when strictly larger, so ties (and a
        # zero against a negative zero) keep a; a NaN on either side stays
        vals[pos] = np.where((b > a) | np.isnan(b), b, a)
        vals[starts[i] : starts[i] + n - 1 - i] = row[i + 1 :]
    kept = 0
    for lo in range(0, vals.size, _SCAN):
        chunk = vals[lo : lo + _SCAN]
        chunk = chunk[~np.isnan(chunk)]
        vals[kept : kept + chunk.size] = chunk
        kept += chunk.size
    return vals[:kept]


def _nearest_rank(vals: np.ndarray, alphas: Sequence[float]) -> dict[float, float]:
    """Nearest-rank percentiles of ``vals`` as a stable sort would order them.

    ``vals`` is partitioned in place. Zeros of either sign compare equal, so
    a stable sort keeps them in their given order between the negatives and
    the positives: a rank that falls on a zero takes the sign of the zero at
    that place in ``vals``, which is read before the partition.
    """
    ranks = {float(a): max(math.ceil(a / 100.0 * vals.size) - 1, 0) for a in alphas}
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


def _scaled_percentiles(
    rows: Iterable[np.ndarray],
    configs: Sequence[Configuration],
    k: int,
    alphas: Sequence[float],
) -> tuple[float, dict[float, float]]:
    """Cover radius and nearest-rank percentiles of the pair levels times it."""
    n = len(configs)
    vals = _pair_levels(rows, n)
    if not vals.size:
        raise InvalidParams("no scorable pairs: all embeddings coincide")
    cover = Cover(configs)
    k_center(min(k, n), cover)
    radius = float(cover.nearest.max())
    vals *= radius
    return radius, _nearest_rank(vals, alphas)


def epsilon_percentiles(
    report: EpsilonReport,
    k: int,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> EpsilonReport:
    """Complete a report with percentiles of the levels scaled by the cover radius.

    For every scorable unordered pair the larger of its two ordered estimates
    enters the multiset once, multiplied by the radius of a greedy k-cover of
    the embeddings; percentiles use the nearest-rank rule. ``k`` and
    ``alphas`` are checked before any pair is read.
    """
    alphas = tuple(alphas)
    check_percentile_args(k, alphas)
    radius, percentiles = _scaled_percentiles(report.pairwise, report.configs, k, alphas)
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
        raise TooLarge(f"{n} configurations exceed the exhaustive-search cap {BRUTE_FORCE_CAP}")
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
    """Best value seen by the time ``spent_cap`` units were charged."""
    best = None
    for spent, inc in trace:
        if spent <= spent_cap + 1e-9:
            best = inc
        else:
            break
    if best is None:
        raise MissingTrace(f"no trace point at or before spend {spent_cap}")
    return best


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

    ``results`` maps (dataset, seed, algorithm) to a trace of cumulative
    (spent, incumbent) points; ``caps`` gives each dataset's total budget.
    Within a cell algorithms are ranked by incumbent value, best rank 1 and
    ties averaged, then ranks are averaged over cells. Every cell must cover
    the same algorithms.
    """
    if fractions is None:
        fractions = [i / 10 for i in range(1, 11)]
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
                except MissingTrace:
                    raise MissingTrace(
                        f"({ds}, seed {seed}, {alg}) has no spend at fraction {f}"
                    ) from None
            acc += _average_ranks(vals)
        means[fi] = acc / len(cells)
    return RankTable(fractions=tuple(float(f) for f in fractions), algorithms=algorithms, means=means)
