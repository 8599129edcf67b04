"""Shared test fixtures: tiny configuration sets, hand-controlled oracles and
the references that the library is checked against."""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from uvp import (
    Configuration,
    InvalidParams,
    InvalidValue,
    ParseError,
    SchemaError,
    TabularOracle,
    ValueOracle,
)
from uvp.analysis import EpsilonReport, RankTable
from uvp.clustering import DEFAULT_ETA_CAP, Cover, greedy_radius, k_center
from uvp.core import VALUE_TOL, config_columns, distance_row
from uvp.instances import TabularBenchmark
from uvp.solvers import pred, tail_fit_pred


def line(xs):
    """1-d configurations at the given abscissae, ids in listing order."""
    return [Configuration((float(x),), i) for i, x in enumerate(xs)]


def planar(pts):
    """2-d configurations, ids in listing order."""
    return [Configuration((float(a), float(b)), i) for i, (a, b) in enumerate(pts)]


class CallableOracle(ValueOracle):
    """Wrap an arbitrary (config, b) -> value callable."""

    def __init__(self, fn: Callable[[Configuration, int], float], dimension: int, horizon: int) -> None:
        super().__init__(dimension, horizon)
        self._fn = fn

    def query(self, config: Configuration, b: int) -> float:
        self._check_budget(b)
        return float(self._fn(config, b))


def const_oracle(value, dimension=1, horizon=3):
    return CallableOracle(lambda config, b: value, dimension, horizon)


def curve_oracle(curves, dimension=1):
    """Tabular oracle over explicit per-configuration curves (rows = ids)."""
    return TabularOracle(np.asarray(curves, dtype=float), dimension)


def random_concave_curve(rng, horizon, start_max=0.3):
    """Monotone concave curve: non-increasing increments, values in [0, 1]."""
    start = rng.uniform(0.0, start_max)
    inc = np.sort(rng.uniform(0.0, 1.0, size=horizon - 1))[::-1]
    total = inc.sum()
    if total > 0:
        inc = inc * rng.uniform(0.0, 1.0 - start) / total
    return np.concatenate([[start], start + np.cumsum(inc)])


def random_monotone_curves(rng, n, horizon):
    """n monotone curves drawn as sorted uniforms, shape (n, horizon)."""
    return np.sort(rng.uniform(0.0, 1.0, size=(n, horizon)), axis=1)


def distinct_points(rng, n, d, low=0.0, high=1.0):
    """n random points with all pairwise distances bounded away from zero."""
    while True:
        pts = rng.uniform(low, high, size=(n, d))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        if n == 1 or dist[np.triu_indices(n, k=1)].min() > 1e-6:
            return pts


# dimensions that run every branch of numpy's pairwise summation over the d
# squared coordinate differences: sequential below 8, eight running sums up
# to 128, and split in halves above
SUMMATION_DIMS = (1, 2, 4, 7, 8, 9, 16, 17, 127, 128, 129, 200)


def multiscale_points(rng, n, d):
    """n points whose coordinates span magnitudes 1e-3..1e4, far from overflow."""
    return rng.uniform(-1.0, 1.0, size=(n, d)) * 10.0 ** rng.integers(-3, 5, size=(n, d))


def configs_from(points):
    return [Configuration(tuple(float(v) for v in p), i) for i, p in enumerate(points)]


def gen_isolated_optimum(
    spacing: float = 1.0,
    ring_radius: float = 0.5,
    epsilon: float = 0.5,
) -> tuple[list[Configuration], TabularOracle]:
    """Three regions on a line: two valued rings and one isolated optimum.

    Ring centers sit at ``spacing`` and ``2 * spacing`` on the x-axis with
    six satellites of radius ``ring_radius`` each; every point of the first
    ring is worth 1 - epsilon*spacing and of the second
    (1 - epsilon*spacing)**2. A single point at the origin is worth 1 and is
    listed last. Horizon is 1.

    The geometry separates plain from value-aware selection for optimal
    2-covers, and for a greedy pick made after probes in both rings, but
    not for greedy selection from no observations.
    """
    if not (spacing > 0 and ring_radius > 0 and epsilon > 0):
        raise InvalidParams("spacing, ring_radius and epsilon must be positive")
    if epsilon * spacing >= 1:
        raise InvalidParams("epsilon * spacing must stay below 1")
    if ring_radius > spacing / 2:
        raise InvalidParams("ring_radius must not exceed spacing / 2 so rings cannot overlap")
    cond = math.sqrt(spacing**2 + ring_radius**2) + epsilon * spacing * spacing
    if cond >= 2 * spacing:
        raise InvalidParams(
            "geometry too tight: sqrt(spacing^2 + r^2) + eps*spacing^2 must stay below 2*spacing"
        )
    v1 = 1.0 - epsilon * spacing
    v2 = v1 * v1
    # satellites sit symmetrically about the vertical axis of each ring,
    # top and bottom included and none on the x-axis
    angles = [
        math.pi / 3,
        math.pi / 2,
        2.0 * math.pi / 3,
        4.0 * math.pi / 3,
        3.0 * math.pi / 2,
        5.0 * math.pi / 3,
    ]

    pts: list[tuple[float, float]] = []
    vals: list[float] = []
    for center, v in ((spacing, v1), (2.0 * spacing, v2)):
        pts.append((center, 0.0))
        pts.extend((center + ring_radius * math.cos(a), ring_radius * math.sin(a)) for a in angles)
        vals += [v] * (1 + len(angles))
    pts.append((0.0, 0.0))
    vals.append(1.0)
    curves = np.asarray(vals, dtype=float)[:, None]
    return configs_from(pts), TabularOracle(curves, 2)


# ---------------------------------------------------------------------------
# reference selectors: recompute every distance before every pick, O(k^2*n*d)


def ref_k_center(k, seeds, X):
    """Plain farthest-first selection from scratch; the engine must match it."""
    points = np.asarray([c.coords for c in X], dtype=float)
    n = len(X)
    nearest = np.full(n, np.inf)
    chosen = np.zeros(n, dtype=bool)
    for s in seeds:
        chosen[s] = True
        np.minimum(nearest, np.linalg.norm(points - points[s], axis=1), out=nearest)
    new = []
    for _ in range(k):
        open_ids = np.flatnonzero(~chosen)
        pick = int(open_ids[np.argmax(nearest[open_ids])])  # first max = lowest id
        new.append(pick)
        chosen[pick] = True
        np.minimum(nearest, np.linalg.norm(points - points[pick], axis=1), out=nearest)
    return new


def ref_e_k_center(k, seeds, X, t, epsilon, run):
    """Value-aware selection rebuilding the enhanced distance before each pick."""
    points = np.asarray([c.coords for c in X], dtype=float)
    n = len(X)
    centers = list(seeds)
    chosen = np.zeros(n, dtype=bool)
    for s in seeds:
        chosen[s] = True
    new = []
    for _ in range(k):
        if run.ledger.remaining == 0:
            break
        open_ids = np.flatnonzero(~chosen)
        if not centers:
            pick = int(open_ids[0])  # no distances defined yet: lowest id
        else:
            values = {c: run.histories[c].last for c in centers}
            v_max = max(values.values())
            delta = np.full(n, np.inf)
            for c in centers:
                # eta = v_max / v shrinks a weak center's 1/epsilon neighbourhood
                if v_max <= 0.0:
                    eta = 1.0
                elif values[c] <= 0.0:
                    eta = DEFAULT_ETA_CAP
                else:
                    eta = min(v_max / values[c], DEFAULT_ETA_CAP)
                dist = np.linalg.norm(points - points[c], axis=1)
                np.minimum(delta, np.minimum(dist, eta * dist - (eta - 1.0) / epsilon), out=delta)
            pick = int(open_ids[np.argmax(delta[open_ids])])
        run.extend_to(X[pick], t)
        centers.append(pick)
        chosen[pick] = True
        new.append(pick)
    return new


# ---------------------------------------------------------------------------
# exhaustive references: the optimal k-cover radius r* and the true optimum
# that the paper's guarantees are checked against, and the plain Lipschitz
# slack of a benchmark

BRUTE_FORCE_CAP = 15  # brute_force_k_center tries every size-k subset of at most this many


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
# reference smoothness estimators: the (n, n, d) broadcast and the per-pair
# Python loop that the vectorised ones in uvp.analysis must match bit for bit


def _ref_ratio_floor(ci, others):
    """min over budgets of ci(b)/others(b); 0/0 counts as 1, positive/0 as +inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = ci[None, :] / others
    both_zero = (ci[None, :] == 0.0) & (others == 0.0)
    over_zero = (ci[None, :] > 0.0) & (others == 0.0)
    ratios = np.where(both_zero, 1.0, ratios)
    ratios = np.where(over_zero, np.inf, ratios)
    return ratios.min(axis=1)


def ref_epsilon_pairwise(bench):
    """Pairwise levels from a full (n, n) distance matrix, one row at a time."""
    n = bench.n
    X = np.asarray([c.coords for c in bench.configs], dtype=float)
    dist = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    pairwise = np.zeros((n, n))
    skipped = []
    for i in range(n):
        floors = _ref_ratio_floor(bench.curves[i], bench.curves)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            row = np.maximum(0.0, (1.0 - floors) / dist[i])
        row[i] = 0.0
        zero = (dist[i] == 0.0) & (np.arange(n) != i)
        row[zero] = np.nan
        pairwise[i] = row
        for j in np.nonzero(zero)[0]:
            if i < j:
                skipped.append((i, int(j)))
    return EpsilonReport(pairwise=pairwise, skipped=tuple(skipped), configs=list(bench.configs))


def ref_epsilon_percentiles(report, k, alphas):
    """Percentiles of the radius-scaled pair levels, gathered pair by pair."""
    n = len(report.configs)
    vals = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = report.pairwise[i, j], report.pairwise[j, i]
            if math.isnan(a) or math.isnan(b):
                continue
            vals.append(max(a, b))
    if not vals:
        raise InvalidParams("no scorable pairs: all embeddings coincide")
    centers = k_center(min(k, n), Cover(report.configs))
    radius = greedy_radius(centers, report.configs)
    # a NaN (0 * inf) goes after every number, as in the library; the key
    # keeps sorted() stable for zeros of either sign
    scaled = sorted((v * radius for v in vals), key=lambda v: (math.isnan(v), v))
    percentiles = {}
    for alpha in alphas:
        if not 0.0 < alpha <= 100.0:
            raise InvalidParams(f"percentile {alpha} outside (0, 100]")
        idx = max(math.ceil(alpha / 100.0 * len(scaled)) - 1, 0)
        percentiles[float(alpha)] = float(scaled[idx])
    return replace(report, r=float(radius), percentiles=percentiles)


# ---------------------------------------------------------------------------
# reference tabular IO: the row-by-row loader and the csv.writer saver that
# uvp.instances.load_tabular and save_tabular must match, results bit for bit
# and errors by type and message


def _ref_parse_cell(raw, row, col, kind):
    try:
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        raise ParseError(f"row {row}, column {col}: cannot parse {raw!r} as {kind}") from None


def ref_load_tabular(path):
    """Read a curve benchmark one row at a time, raising at the first fault."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                lines = raw.read().split(b"\n")
            for num, line in enumerate(lines, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"{path}: line {num} is not UTF-8 text: {exc}") from None
            raise
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise SchemaError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 3 or header[0] != "id" or header[-2] != "b" or header[-1] != "value":
        raise SchemaError(f"{path}: header must be id,x0,...,b,value, got {header}")
    d = len(header) - 3
    for j in range(d):
        if header[1 + j] != f"x{j}":
            raise SchemaError(f"{path}: embedding column {1 + j} must be named x{j}")
    if d < 1:
        raise SchemaError(f"{path}: need at least one embedding column")

    start = 1
    scales = tuple("lin" for _ in range(d))
    if len(rows) > 1 and rows[1] and rows[1][0].strip() == "scale":
        flags = [c.strip() for c in rows[1][1:]]
        if len(flags) != d or any(f not in ("lin", "log") for f in flags):
            raise SchemaError(f"{path}: scale line must give lin|log for each of {d} columns")
        scales = tuple(flags)
        start = 2

    coords = {}
    values = {}
    for offset, row in enumerate(rows[start:]):
        rownum = start + offset + 1
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}")
        cid = _ref_parse_cell(row[0], rownum, 1, "int")
        xs = tuple(_ref_parse_cell(row[1 + j], rownum, 2 + j, "float") for j in range(d))
        b = _ref_parse_cell(row[-2], rownum, len(header) - 1, "int")
        val = _ref_parse_cell(row[-1], rownum, len(header), "float")
        if cid < 0:
            raise SchemaError(f"{path}: row {rownum}: negative id {cid}")
        if b < 1:
            raise SchemaError(f"{path}: row {rownum}: budget index {b} must be >= 1")
        if not -1e-9 <= val <= 1.0 + 1e-9:  # NaN fails too
            raise ParseError(f"row {rownum}, column {len(header)}: value {val} outside [0, 1]")
        for j, x in enumerate(xs):
            if not math.isfinite(x):
                raise ParseError(f"row {rownum}, column {2 + j}: coordinate {x} is not finite")
        val = min(max(val, 0.0), 1.0)
        if cid in coords and coords[cid] != xs:
            raise SchemaError(f"{path}: row {rownum}: id {cid} re-appears with different coordinates")
        coords.setdefault(cid, xs)
        per = values.setdefault(cid, {})
        if b in per:
            raise SchemaError(f"{path}: row {rownum}: duplicate budget {b} for id {cid}")
        per[b] = val

    if not values:
        raise SchemaError(f"{path}: no data rows")
    n = len(values)
    if sorted(values) != list(range(n)):
        raise SchemaError(f"{path}: ids must be exactly 0..{n - 1}")
    horizon = max(max(per) for per in values.values())
    for cid, per in values.items():
        if len(per) != horizon:  # the budgets are distinct and lie in 1..horizon
            raise SchemaError(f"{path}: id {cid} does not cover budgets 1..{horizon}")

    raw = np.asarray([coords[i] for i in range(n)], dtype=float)
    for j, flag in enumerate(scales):
        if flag == "log":
            if np.any(raw[:, j] <= 0):
                bad = int(np.argmax(raw[:, j] <= 0))
                raise ParseError(f"row for id {bad}, column {2 + j}: log scaling needs positive values")
            raw[:, j] = np.log(raw[:, j])
    with np.errstate(all="ignore"):
        lo, hi = raw.min(axis=0), raw.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        norm = (raw - lo) / span
    for j in range(d):
        if not np.isfinite(norm[:, j]).all():
            raise ParseError(f"column {2 + j}: coordinates span more than the float range")

    curves = np.asarray(
        [[values[i][b] for b in range(1, horizon + 1)] for i in range(n)], dtype=float
    )
    curves = np.maximum.accumulate(curves, axis=1)
    configs = [Configuration(tuple(float(v) for v in norm[i]), i) for i in range(n)]
    return TabularBenchmark(configs=configs, curves=curves)


def ref_save_tabular(path, configs, curves, scales=None):
    """Write a benchmark cell by cell through csv.writer."""
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2 or curves.shape[0] != len(configs):
        raise InvalidParams("curves must be an (n, T) array matching the configurations")
    d = configs[0].dimension if configs else 0
    if d < 1:
        raise InvalidParams("need at least one configuration")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"x{j}" for j in range(d)] + ["b", "value"])
        if scales is not None:
            flags = list(scales)
            if len(flags) != d or any(f not in ("lin", "log") for f in flags):
                raise InvalidParams("scales must give lin|log per embedding column")
            writer.writerow(["scale"] + flags)
        for cfg in configs:
            for b in range(1, curves.shape[1] + 1):
                writer.writerow(
                    [cfg.id]
                    + [repr(float(v)) for v in cfg.coords]
                    + [b, repr(float(curves[cfg.id, b - 1]))]
                )


# ---------------------------------------------------------------------------
# reference solvers: every algorithm as README describes it, written with
# plain lists, one oracle query per unit, and its own spend counter and
# trace. Picks go through ref_k_center and ref_e_k_center, and the prune test
# calls pred and tail_fit_pred itself. uvp's engine must give the same best,
# best value, trace and histories, by repr.


class RefCurve(list):
    """One candidate's observed values at budgets 1, 2, ...; ``last`` as History has."""

    @property
    def last(self):
        return self[-1]


class RefRun:
    """Per-unit spending: query, check the value, then count the unit and trace it.

    It is its own ``ledger`` (``remaining``), so ``ref_e_k_center`` can probe
    through it.
    """

    def __init__(self, oracle, cap):
        self.oracle = oracle
        self.cap = cap
        self.spent = 0
        self.best = -math.inf
        self.histories = {}
        self.trace = []
        self.ledger = self

    @property
    def remaining(self):
        return self.cap - self.spent

    def extend_to(self, config, t):
        """Query ``config`` at each missing budget up to t while units remain."""
        curve = self.histories.get(config.id, RefCurve())
        while len(curve) < t:
            if self.spent == self.cap:
                return False
            v = float(self.oracle.query(config, len(curve) + 1))
            if not -VALUE_TOL <= v <= 1.0 + VALUE_TOL:  # NaN fails too
                raise InvalidValue(f"observed value {v!r} outside [0, 1]")
            curve.append(min(max(v, 0.0), 1.0))
            self.histories[config.id] = curve
            self.spent += 1
            self.best = max(self.best, curve[-1])
            self.trace.append((self.spent, self.best))
        return True

    def outcome(self):
        """(best id, its value, trace, {id: values}); ties to the lowest id."""
        best = min(self.histories, key=lambda c: (-self.histories[c][-1], c))
        histories = {c: list(v) for c, v in self.histories.items()}
        return best, self.histories[best][-1], self.trace, histories


def ref_full_cent(params, X, oracle, cap):
    """floor(B/T) greedy k-center picks, each trained to the horizon in pick order."""
    run = RefRun(oracle, cap)
    for c in ref_k_center(cap // oracle.horizon, [], X):
        run.extend_to(X[c], oracle.horizon)
    return run.outcome()


def ref_e_full_cent(params, X, oracle, cap):
    """floor(B/T) value-aware picks, each trained to the horizon before the next pick."""
    run = RefRun(oracle, cap)
    ref_e_k_center(cap // oracle.horizon, [], X, oracle.horizon, params.epsilon, run)
    return run.outcome()


def _ref_keeps(curve, params, horizon, incumbent):
    if params.predictor == "tail-fit":
        return tail_fit_pred(curve, horizon, params.theta) >= incumbent
    return pred(curve, horizon) >= incumbent


def _ref_adaptive(params, X, oracle, cap, enhanced):
    """Rounds of p fresh centers, trained one budget level at a time.

    Each level trains every active candidate one unit further, candidate by
    candidate in id order, then prunes those whose forecast at the horizon
    falls below the best last value among the active candidates, as README
    states. That threshold is lower than the incumbent once the best curve
    is pruned; whether the paper means it or the incumbent is still open.
    e-ada-cent picks its centers value-aware, probing each to floor(delta*T)
    units first. A round ends at the horizon; the next adds p new centers to
    the survivors, until the candidates or the budget run out.
    """
    horizon = oracle.horizon
    t_explore = math.floor(params.delta * horizon) if enhanced else 0
    if enhanced and t_explore < 1:
        raise InvalidParams("no exploration probe fits")
    run = RefRun(oracle, cap)
    centers, active = [], []
    while run.remaining > 0:
        n_new = min(params.p, len(X) - len(centers))
        if enhanced:
            new = ref_e_k_center(n_new, centers, X, t_explore, params.epsilon, run)
        else:
            new = ref_k_center(n_new, centers, X)
        centers += new
        active = sorted(set(active) | set(new))
        for t in range(t_explore + 1, horizon + 1):
            for x in active:
                if not run.extend_to(X[x], t):
                    return run.outcome()
            if active:
                best = max(run.histories[x][-1] for x in active)
                active = [x for x in active if _ref_keeps(run.histories[x], params, horizon, best)]
        if not new:
            break
    return run.outcome()


def ref_ada_cent(params, X, oracle, cap):
    return _ref_adaptive(params, X, oracle, cap, enhanced=False)


def ref_e_ada_cent(params, X, oracle, cap):
    return _ref_adaptive(params, X, oracle, cap, enhanced=True)


def ref_hyperband(params, X, oracle, cap):
    """Brackets s = s_max, s_max - 1, ... for ``params.iterations`` brackets.

    s_max is the largest s with eta^s <= n whose schedule fits the budget:
    eta^(s-i) arms trained from rung i-1 to rung i, rung i at budget
    max(1, T // eta^(s-i)). Bracket s draws ceil((s_max+1)/(s+1) * eta^s)
    arms (at most n) without replacement, trains them rung by rung in draw
    order, and keeps the best 1/eta (at least one) at each rung but the last,
    ranked by the value at that rung's budget, ties to the lowest id. A
    bracket cut short by the budget ends the run.
    """
    eta, horizon, n = params.eta, oracle.horizon, len(X)

    def rungs(s):
        return [max(1, horizon // eta ** (s - i)) for i in range(s + 1)]

    def cost(s):
        budgets = [0] + rungs(s)
        return sum(eta ** (s - i) * (budgets[i + 1] - budgets[i]) for i in range(s + 1))

    s_max = 0
    while eta ** (s_max + 1) <= n and cost(s_max + 1) <= cap:
        s_max += 1
    rng = np.random.default_rng(params.seed)
    run = RefRun(oracle, cap)
    for s in range(s_max, max(-1, s_max - params.iterations), -1):
        if run.remaining == 0:
            break
        count = min(-(-(s_max + 1) * eta**s // (s + 1)), n)
        alive = [int(a) for a in rng.choice(n, size=count, replace=False)]
        for i, r in enumerate(rungs(s)):
            if not all(run.extend_to(X[a], r) for a in alive):
                break
            if i < s:
                alive.sort(key=lambda a: (-run.histories[a][r - 1], a))
                alive = alive[: max(1, len(alive) // eta)]
    return run.outcome()


def ref_random_search(params, X, oracle, cap):
    """floor(B/T) distinct arms drawn uniformly with the seed, each trained to the horizon."""
    rng = np.random.default_rng(params.seed)
    run = RefRun(oracle, cap)
    for a in rng.choice(len(X), size=cap // oracle.horizon, replace=False):
        run.extend_to(X[int(a)], oracle.horizon)
    return run.outcome()


def ref_successive_halving(params, X, oracle, cap):
    """Hyperband's top bracket alone."""
    return ref_hyperband(replace(params, iterations=1), X, oracle, cap)


# every algorithm by its CLI name, with the reference it must match
REFERENCES = {
    "full-cent": ref_full_cent,
    "e-full-cent": ref_e_full_cent,
    "ada-cent": ref_ada_cent,
    "e-ada-cent": ref_e_ada_cent,
    "random": ref_random_search,
    "sha": ref_successive_halving,
    "hyperband": ref_hyperband,
}


def ref_incumbent_at(trace, spent_cap):
    """The last incumbent at or before ``spent_cap`` (within 1e-9), by a scan from the start."""
    best = None
    for spent, inc in trace:
        if spent <= spent_cap + 1e-9:
            best = inc
        else:
            break
    if best is None:
        raise InvalidParams(f"no trace point at or before spend {spent_cap}")
    return best


def ref_mean_rank(results, caps, fractions=None):
    """``mean_rank`` with plain loops and lists.

    Raises what ``mean_rank`` raises, in the same order: empty results, a
    cell missing an algorithm, a dataset without a cap or with a cap that
    is not finite and > 0, no default fraction, then per fraction in turn a
    fraction outside (0, 1] or a trace with no point by that fraction of
    its cap.
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
        if not (caps[ds] > 0 and caps[ds] != float("inf")):
            raise InvalidParams(f"budget cap {caps[ds]} for dataset {ds!r} must be finite and > 0")
    if fractions is None:
        low = min(caps[ds] for ds, _ in cells)
        fractions = [i / 10 for i in range(1, 11) if i / 10 * low >= 1]
        if not fractions:
            raise InvalidParams(f"no default fraction of budget {low} reaches one unit")
    means = []
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise InvalidParams(f"fraction {f} outside (0, 1]")
        acc = [0.0] * len(algorithms)
        for ds, seed in cells:
            vals = []
            for alg in algorithms:
                try:
                    vals.append(float(ref_incumbent_at(results[(ds, seed, alg)], f * caps[ds])))
                except InvalidParams:
                    raise InvalidParams(
                        f"({ds}, seed {seed}, {alg}) has no spend at fraction {f}"
                    ) from None
            for a, v in enumerate(vals):
                better = sum(1 for w in vals if w > v)
                equal = sum(1 for w in vals if w == v)
                acc[a] += better + (equal + 1) / 2
        means.append([x / len(cells) for x in acc])
    means = np.array(means, dtype=float).reshape(len(fractions), len(algorithms))
    return RankTable(tuple(float(f) for f in fractions), algorithms, means)
