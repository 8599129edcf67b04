"""Measurement tools: smoothness estimation, exhaustive baselines, rank tables."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .clustering import Cover, greedy_radius, k_center
from .core import (
    Configuration,
    DegenerateEmbedding,
    InvalidParams,
    MissingTrace,
    TooLarge,
    ValueOracle,
    config_matrix,
    distance_row,
)
from .instances import TabularBenchmark

DEFAULT_ALPHAS = (90.0, 95.0, 98.0, 99.0)


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


def epsilon_pairwise(bench: TabularBenchmark, *, strict: bool = False) -> EpsilonReport:
    """Estimate the per-pair smoothness level from full curves.

    Row i costs O(n*T) for the ratio floors and O(n*d) for the distances,
    in buffers kept across rows; memory is O(n*n + n*T) and no (n, n, d)
    array is built. With ``strict`` set, coincident embeddings raise
    ``DegenerateEmbedding`` instead of being skipped.
    """
    n = bench.n
    if n < 2:
        raise InvalidParams("need at least two configurations to compare")
    X = config_matrix(bench.configs)
    work = np.empty_like(X)
    curves = np.asarray(bench.curves, dtype=float)
    # one column per curve, so the floor of row i is a min over T rows
    by_budget = np.ascontiguousarray(curves.T)
    ratios = np.empty_like(by_budget)
    # ratio conventions 0/0 = 1 and positive/0 = +inf, needed only at the
    # zero cells of the curves
    zero_b, zero_j = np.nonzero(by_budget == 0.0)
    pairwise = np.empty((n, n))
    skipped: list[tuple[int, int]] = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            ci = curves[i]
            np.divide(ci[:, None], by_budget, out=ratios)
            if zero_b.size:
                num = ci[zero_b]
                ratios[zero_b, zero_j] = np.where(
                    num == 0.0, 1.0, np.where(num > 0.0, np.inf, ratios[zero_b, zero_j])
                )
            dist = distance_row(X, X[i], work)
            row = pairwise[i]
            np.subtract(1.0, np.minimum.reduce(ratios, axis=0), out=row)
            np.divide(row, dist, out=row)
            np.maximum(0.0, row, out=row)
            row[i] = 0.0
            zero = dist == 0.0
            zero[i] = False
            if zero.any():
                row[zero] = np.nan
                skipped.extend((i, int(j)) for j in np.flatnonzero(zero) if i < j)
    if strict and skipped:
        raise DegenerateEmbedding(f"coincident configuration pairs: {skipped}")
    return EpsilonReport(pairwise=pairwise, skipped=tuple(skipped), configs=list(bench.configs))


def check_percentile_args(k: int, alphas: Sequence[float]) -> None:
    """Raise ``InvalidParams`` unless ``k >= 1`` and every alpha lies in (0, 100]."""
    if k < 1:
        raise InvalidParams(f"cover size k must be at least 1, got {k}")
    for alpha in alphas:
        if not 0.0 < alpha <= 100.0:
            raise InvalidParams(f"percentile {alpha} outside (0, 100]")


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
    n = len(report.configs)
    pairwise = report.pairwise
    # pairs (i, j) with i < j in row-major order, filled one row at a time
    vals = np.empty(n * (n - 1) // 2)
    scorable = np.empty(vals.size, dtype=bool)
    pos = 0
    for i in range(n - 1):
        a, b = pairwise[i, i + 1 :], pairwise[i + 1 :, i]
        end = pos + a.size
        row = vals[pos:end]
        row[:] = a
        # Python's max(a, b): b only when strictly larger, so ties (and a
        # zero against a negative zero) keep a
        np.copyto(row, b, where=b > a)
        scorable[pos:end] = ~(np.isnan(a) | np.isnan(b))
        pos = end
    if not scorable.all():
        vals = vals[scorable]
    if not vals.size:
        raise InvalidParams("no scorable pairs: all embeddings coincide")
    centers = k_center(min(k, n), Cover(report.configs))
    radius = greedy_radius(centers, report.configs)
    vals *= radius
    vals.sort(kind="stable")  # stable: equal zeros of either sign keep their order
    percentiles: dict[float, float] = {}
    for alpha in alphas:
        idx = max(math.ceil(alpha / 100.0 * len(vals)) - 1, 0)
        percentiles[float(alpha)] = float(vals[idx])
    return replace(report, r=float(radius), percentiles=percentiles)


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
    X = config_matrix(bench.configs)
    work = np.empty_like(X)
    worst = -math.inf
    for i in range(n - 1):
        gaps = np.abs(bench.curves[i + 1 :] - bench.curves[i]).max(axis=1)
        dists = distance_row(X[i + 1 :], X[i], work[i + 1 :])
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


def brute_force_k_center(X: Sequence[Configuration], k: int, cap: int = 15) -> ClusteringReport:
    """Exact k-cover by trying every size-k subset; guarded by ``cap``.

    Also runs the greedy selection on the same input so callers can compare
    the two radii directly.
    """
    n = len(X)
    if n > cap:
        raise TooLarge(f"{n} configurations exceed the exhaustive-search cap {cap}")
    if not 1 <= k <= n:
        raise InvalidParams(f"k must be in 1..{n}")
    best: tuple[int, ...] | None = None
    best_radius = math.inf
    for subset in itertools.combinations(range(n), k):
        radius = greedy_radius(list(subset), X)
        if radius < best_radius:
            best_radius, best = radius, subset
    assert best is not None
    greedy = k_center(k, Cover(X))
    return ClusteringReport(
        k=k,
        greedy_radius=float(greedy_radius(greedy, X)),
        optimal_radius=float(best_radius),
        greedy_centers=tuple(greedy),
        optimal_centers=best,
    )


def brute_force_opt(
    X: Sequence[Configuration],
    oracle: ValueOracle,
    horizon: int | None = None,
) -> tuple[int, float]:
    """Best configuration id and value at full budget, scanning everything."""
    if not X:
        raise InvalidParams("no configurations to scan")
    t = oracle.horizon if horizon is None else horizon
    best_id, best_val = -1, -math.inf
    for cfg in X:
        v = oracle.query(cfg, t)
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
