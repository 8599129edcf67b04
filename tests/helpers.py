"""Shared test fixtures: tiny configuration sets and hand-controlled oracles."""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np

from uvp import (
    CallableOracle,
    Configuration,
    InvalidParams,
    ParseError,
    SchemaError,
    TabularOracle,
)
from uvp.analysis import EpsilonReport
from uvp.clustering import DEFAULT_ETA_CAP, Cover, greedy_radius, k_center
from uvp.instances import TabularBenchmark


def line(xs):
    """1-d configurations at the given abscissae, ids in listing order."""
    return [Configuration((float(x),), i) for i, x in enumerate(xs)]


def planar(pts):
    """2-d configurations, ids in listing order."""
    return [Configuration((float(a), float(b)), i) for i, (a, b) in enumerate(pts)]


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


def enhanced_on_line(dist, value, other, epsilon):
    """Enhanced distances from a center worth ``value`` to points ``dist`` away.

    Read off ``Cover.delta`` on a line: the center sits at 0 and the points
    at ``dist``. A second center, worth ``other``, lies more than 1/epsilon
    beyond every point, where its enhanced distance is its plain one and so
    never the minimum.
    """
    dist = [float(x) for x in dist]
    X = line([0.0, -1.0 - 1.0 / epsilon - max(dist), *dist])
    cover = Cover(X, [0, 1])
    cover.revalue(epsilon, {0: value, 1: other})
    return cover.delta[2:]


# ---------------------------------------------------------------------------
# reference smoothness estimators: the (n, n, d) broadcast and the per-pair
# Python loop that the vectorised ones in uvp.analysis must match bit for bit


def _ref_ratio_floor(ci, others):
    """min over budgets of ci(b)/others(b); 0/0 counts as 1, positive/0 as +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
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
        with np.errstate(divide="ignore", invalid="ignore"):
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
    scaled = sorted(v * radius for v in vals)
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
