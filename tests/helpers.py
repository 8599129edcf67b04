"""Shared test fixtures: tiny configuration sets and hand-controlled oracles."""

from __future__ import annotations

import numpy as np

from uvp import CallableOracle, Configuration, EnhancedMetric, TabularOracle, config_matrix
from uvp.clustering import DEFAULT_ETA_CAP


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


def configs_from(points):
    return [Configuration(tuple(float(v) for v in p), i) for i, p in enumerate(points)]


# ---------------------------------------------------------------------------
# reference selectors: recompute every distance before every pick, O(k^2*n*d)


def ref_k_center(k, seeds, X):
    """Plain farthest-first selection from scratch; the engine must match it."""
    points = config_matrix(X)
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


def ref_e_k_center(
    k, seeds, X, t, epsilon, run, *, allow_partial=False, eta_cap=DEFAULT_ETA_CAP
):
    """Value-aware selection rebuilding the enhanced distance before each pick."""
    points = config_matrix(X)
    n = len(X)
    centers = list(seeds)
    chosen = np.zeros(n, dtype=bool)
    for s in seeds:
        chosen[s] = True
    new = []
    for _ in range(k):
        if allow_partial and run.ledger.remaining == 0:
            break
        open_ids = np.flatnonzero(~chosen)
        if not centers:
            pick = int(open_ids[0])  # no distances defined yet: lowest id
        else:
            metric = EnhancedMetric(
                epsilon, {c: run.histories[c].last for c in centers}, eta_cap=eta_cap
            )
            delta = np.full(n, np.inf)
            for c in centers:
                dist = np.linalg.norm(points - points[c], axis=1)
                np.minimum(delta, metric.distances(dist, c), out=delta)
            pick = int(open_ids[np.argmax(delta[open_ids])])
        run.extend_to(X[pick], t, allow_partial=allow_partial)
        centers.append(pick)
        chosen[pick] = True
        new.append(pick)
    return new
