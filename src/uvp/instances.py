"""Value-function sources: analytic landscapes, adversarial constructions, CSV benchmarks.

Everything here produces a candidate list plus an oracle (or a
``TabularBenchmark`` bundling both), so solvers never care where values
come from.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Configuration,
    InvalidBudget,
    InvalidParams,
    OutOfDomain,
    ParseError,
    SchemaError,
    TooLarge,
    ValueOracle,
    distance_row,
)

LANDSCAPE_KINDS = (
    "radial-decay",
    "off-centre-peak",
    "cosine-ring",
    "radial-ripples",
    "double-rings",
    "multimodal-bumps",
)

MESH_CAP = 10**6


# ---------------------------------------------------------------------------
# analytic landscapes


@dataclass
class LandscapeSpec:
    """A named 2-D value surface with its domain and (possibly sampled) parameters."""

    kind: str
    params: dict = field(default_factory=dict)
    domain: tuple[tuple[float, float], ...] = ((-8.0, 8.0), (-8.0, 8.0))


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InvalidParams(f"seed must be non-negative, got {seed}")


def landscape(kind: str, seed: int = 0) -> LandscapeSpec:
    """Build a landscape spec with its standard parameters.

    The bump-based kinds draw their bump heights, centres and widths once
    from ``seed`` and freeze them in the returned LandscapeSpec.
    """
    if kind not in LANDSCAPE_KINDS:
        raise InvalidParams(f"unknown landscape kind {kind!r}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    if kind == "radial-decay":
        return LandscapeSpec(kind, {"rate": 0.18}, ((-8.0, 8.0), (-8.0, 8.0)))
    if kind == "off-centre-peak":
        return LandscapeSpec(
            kind,
            {"base": 0.6, "base_width": 200.0, "peak_width": 50.0, "peak": (0.2, -0.1)},
            ((-8.0, 8.0), (-8.0, 8.0)),
        )
    if kind == "cosine-ring":
        return LandscapeSpec(
            kind,
            {"radius": 3.0, "width": 3.0, "height": 0.06, "floor": 0.2},
            ((-8.0, 8.0), (-8.0, 8.0)),
        )
    if kind == "double-rings":
        return LandscapeSpec(kind, {}, ((-10.0, 10.0), (-10.0, 10.0)))
    count = 150 if kind == "radial-ripples" else 30
    return LandscapeSpec(
        kind,
        {
            "heights": rng.uniform(0.03, 1.0, count),
            "centres": rng.uniform(-8.0, 8.0, (count, 2)),
            "widths": rng.uniform(0.15, 0.8, count),
        },
        ((-10.0, 10.0), (-10.0, 10.0)),
    )


def _bump_sum(x: np.ndarray, p: Mapping) -> float:
    d2 = np.sum((p["centres"] - x) ** 2, axis=1)
    return float(np.sum(p["heights"] * np.exp(-d2 / (2.0 * p["widths"] ** 2))))


def landscape_eval(spec: LandscapeSpec, x: Sequence[float]) -> float:
    """Evaluate the surface at ``x``; values are clamped into [0, 1]."""
    pt = np.asarray(x, dtype=float)
    if pt.shape != (len(spec.domain),):
        raise OutOfDomain(f"point has shape {pt.shape}, domain is {len(spec.domain)}-dimensional")
    for v, (lo, hi) in zip(pt, spec.domain):
        if not lo <= v <= hi:
            raise OutOfDomain(f"coordinate {v} outside [{lo}, {hi}]")
    p = spec.params
    r = float(np.linalg.norm(pt))
    if spec.kind == "radial-decay":
        val = math.exp(-p["rate"] * r)
    elif spec.kind == "off-centre-peak":
        val = p["base"] * math.exp(-r * r / p["base_width"]) + math.exp(
            -float(np.sum((pt - np.asarray(p["peak"])) ** 2)) / p["peak_width"]
        )
    elif spec.kind == "cosine-ring":
        band = abs(r - p["radius"]) <= p["width"]
        val = p["floor"]
        if band:
            h = p["height"]
            val += (h + h * math.cos(math.pi * (r - p["radius"]) / p["width"])) / 2.0
    elif spec.kind == "radial-ripples":
        val = 0.5 * (math.sin(3.0 * r) + 1.0) * math.exp(-r * r / 50.0) + _bump_sum(pt, p)
    elif spec.kind == "double-rings":
        theta = math.atan2(pt[1], pt[0])
        val = (
            0.5 * math.exp(-((r - 3.0) ** 2) / (2.0 * 0.18**2))
            + 0.4 * math.exp(-((r - 6.0) ** 2) / (2.0 * 0.25**2))
            + 0.3 * (math.sin(4.0 * theta) + 1.0) * math.exp(-r * r / 90.0)
        )
    elif spec.kind == "multimodal-bumps":
        val = 0.4 * math.exp(-r * r / (2.0 * 4.5**2)) + _bump_sum(pt, p)
    else:
        raise InvalidParams(f"unknown landscape kind {spec.kind!r}")
    return min(max(val, 0.0), 1.0)


class LandscapeOracle(ValueOracle):
    """Budget-independent oracle over a landscape: every budget sees the surface value."""

    def __init__(self, spec: LandscapeSpec, horizon: int = 1) -> None:
        super().__init__(len(spec.domain), horizon)
        self.spec = spec

    def query(self, config: Configuration, b: int) -> float:
        self._check_budget(b)
        return landscape_eval(self.spec, config.coords)


# ---------------------------------------------------------------------------
# candidate sets


def _configs(points: np.ndarray) -> list[Configuration]:
    """One configuration per row of the (n, d) array ``points``, ids in row order.

    The coordinates become Python floats column by column, and ``zip`` hands
    out each row as a tuple, so no per-row list is built on the way.
    """
    return [Configuration(row, i) for i, row in enumerate(zip(*points.T.tolist()))]


def mesh_grid(bounds: Sequence[tuple[float, float]], m: int, cap: int = MESH_CAP) -> list[Configuration]:
    """Regular m-per-dimension grid over ``bounds``, ids in row-major order."""
    if m < 2:
        raise InvalidParams("mesh needs at least 2 points per dimension")
    if len(bounds) < 1:
        raise InvalidParams("mesh needs at least one dimension")
    total = m ** len(bounds)
    if total > cap:
        raise TooLarge(f"mesh of {total} points exceeds cap {cap}")
    axes = [np.linspace(lo, hi, m) for lo, hi in bounds]
    grids = np.meshgrid(*axes, indexing="ij")
    return _configs(np.stack([g.reshape(-1) for g in grids], axis=1))


def sample_uniform(bounds: Sequence[tuple[float, float]], n: int, seed: int) -> list[Configuration]:
    """n points uniform over the box, seeded; degenerate bounds collapse to a point."""
    if n < 1:
        raise InvalidParams("need at least one sample")
    if len(bounds) < 1:
        raise InvalidParams("need at least one dimension")
    for lo, hi in bounds:
        if hi < lo:
            raise InvalidParams(f"bound ({lo}, {hi}) is inverted")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    lows = np.asarray([lo for lo, _ in bounds])
    highs = np.asarray([hi for _, hi in bounds])
    return _configs(rng.uniform(lows, highs, size=(n, len(bounds))))


# ---------------------------------------------------------------------------
# tabular benchmarks


class TabularOracle(ValueOracle):
    """Curve lookup: query(x, b) = curves[x.id, b-1]."""

    def __init__(self, curves: np.ndarray, dimension: int) -> None:
        curves = np.asarray(curves, dtype=float)
        if curves.ndim != 2 or curves.shape[0] < 1 or curves.shape[1] < 1:
            raise InvalidParams("curves must be a non-empty (n, T) array")
        super().__init__(dimension, curves.shape[1])
        self.curves = curves

    def query(self, config: Configuration, b: int) -> float:
        self._check_budget(b)
        if not 0 <= config.id < self.curves.shape[0]:
            raise InvalidParams(f"configuration id {config.id} outside benchmark")
        return float(self.curves[config.id, b - 1])


@dataclass
class TabularBenchmark:
    """A finite benchmark: embedded configurations plus full value curves."""

    configs: list[Configuration]
    curves: np.ndarray

    @property
    def n(self) -> int:
        return len(self.configs)

    @property
    def dimension(self) -> int:
        return self.configs[0].dimension

    @property
    def horizon(self) -> int:
        return int(self.curves.shape[1])

    def oracle(self) -> TabularOracle:
        return TabularOracle(self.curves, self.dimension)


# Rows parsed per step by the fast loader. Only one chunk of row lists is
# alive at a time; keeping every row list alive makes the cyclic garbage
# collector walk them again and again.
LOAD_CHUNK_ROWS = 4096


def _is_blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _normalise(raw: np.ndarray, scales: Sequence[str]) -> np.ndarray:
    """Log-scale the flagged columns of ``raw`` in place, then min-max normalise each column."""
    for j, flag in enumerate(scales):
        if flag == "log":
            raw[:, j] = np.log(raw[:, j])
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return (raw - lo) / span


def _benchmark(norm: np.ndarray, curves: np.ndarray) -> TabularBenchmark:
    """Pair the normalised embeddings with the curves wrapped to be non-decreasing."""
    curves = np.maximum.accumulate(curves, axis=1)
    return TabularBenchmark(configs=_configs(norm), curves=curves)


def _parse_cell(raw: str, row: int, col: int, kind: str):
    try:
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        raise ParseError(f"row {row}, column {col}: cannot parse {raw!r} as {kind}") from None


def load_tabular(path: str) -> TabularBenchmark:
    """Read a curve benchmark from CSV.

    Expected layout: header ``id,x0,...,x{d-1},b,value``, one row per
    (configuration, budget) with budgets dense from 1, and an optional second
    line ``scale,lin|log,...`` flagging per-column embedding scaling. Every
    cell must be finite. Values are clamped into [0, 1] (ingest tolerance
    1e-9 for writer round-off), curves are wrapped to be non-decreasing, and
    embeddings are min-max normalised per column after any log scaling.

    A valid file is parsed column-wise in chunks and checked with array
    operations. A file that fails any of those checks is read again row by
    row, and that reader raises the error for the first faulty row.
    """
    bench = _load_tabular_fast(path)
    return bench if bench is not None else _load_tabular_checked(path)


def _parse_chunk(chunk: list[list[str]], width: int) -> list[np.ndarray] | None:
    """Columns of the non-blank rows: ids, (m, d) coordinates, budgets, values."""
    if set(map(len, chunk)) != {width}:
        chunk = [row for row in chunk if not _is_blank(row)]
        if any(len(row) != width for row in chunk):
            return None
    m = len(chunk)
    cols = list(zip(*chunk)) or [()] * width  # a chunk of blank rows only
    xs = np.empty((m, width - 3))
    for j, col in enumerate(cols[1:-2]):
        xs[:, j] = np.fromiter(map(float, col), float, m)
    return [
        np.fromiter(map(int, cols[0]), np.int64, m),
        xs,
        np.fromiter(map(int, cols[-2]), np.int64, m),
        np.fromiter(map(float, cols[-1]), float, m),
    ]


def _load_tabular_fast(path: str) -> TabularBenchmark | None:
    """``load_tabular`` for valid files; None whenever a check fails."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            head = list(itertools.islice(reader, 2))
            if not head:
                return None
            header = [c.strip() for c in head[0]]
            d = len(header) - 3
            if d < 1 or header != ["id", *(f"x{j}" for j in range(d)), "b", "value"]:
                return None
            scales = ("lin",) * d
            chunk = head[1:]
            if chunk and chunk[0] and chunk[0][0].strip() == "scale":
                scales = tuple(c.strip() for c in chunk[0][1:])
                if len(scales) != d or any(f not in ("lin", "log") for f in scales):
                    return None
                chunk = []
            chunk += itertools.islice(reader, LOAD_CHUNK_ROWS)
            parts = []
            while chunk:
                cols = _parse_chunk(chunk, d + 3)
                if cols is None:
                    return None
                parts.append(cols)
                chunk = list(itertools.islice(reader, LOAD_CHUNK_ROWS))
        except (ValueError, OverflowError, csv.Error):
            # unparseable cells, ids past int64, undecodable text, bad quoting
            return None
    if not parts:
        return None
    ids, xs, budgets, vals = (np.concatenate(col) for col in zip(*parts))
    rows = len(ids)
    if not rows or not ((vals >= -1e-9) & (vals <= 1.0 + 1e-9)).all():  # NaN fails too
        return None
    n, horizon = int(ids.max()) + 1, int(budgets.max())
    # compared before anything is allocated from the largest id; n >= 1 keeps
    # the counts given to np.repeat and np.tile below positive
    if n < 1 or n * horizon != rows:
        return None
    # every (id, budget) pair exactly once
    order = np.lexsort((budgets, ids))
    if not (
        np.array_equal(ids[order], np.repeat(np.arange(n), horizon))
        and np.array_equal(budgets[order], np.tile(np.arange(1, horizon + 1), n))
    ):
        return None
    # each id keeps the coordinates of its first row in file order, and
    # every other row of the id must equal them (a NaN never does)
    first = order.reshape(n, horizon).min(axis=1)
    raw = xs[first]
    if not np.array_equal(xs, raw[ids]):
        return None
    # an infinite coordinate, the log of a non-positive one and a span past
    # the float range all leave a non-finite normalised coordinate
    with np.errstate(all="ignore"):
        norm = _normalise(raw, scales)
    if not np.isfinite(norm).all():
        return None
    curves = np.empty((n, horizon))
    # Python's min(max(v, 0.0), 1.0): a negative zero stays negative
    curves[ids, budgets - 1] = np.where(vals < 0, 0.0, np.where(vals > 1, 1.0, vals))
    return _benchmark(norm, curves)


def _load_tabular_checked(path: str) -> TabularBenchmark:
    """``load_tabular`` one row at a time, raising for the first fault in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError:
            raise ParseError(_undecodable(path)) from None
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

    coords: dict[int, tuple[float, ...]] = {}
    values: dict[int, dict[int, float]] = {}
    for offset, row in enumerate(rows[start:]):
        rownum = start + offset + 1
        if _is_blank(row):
            continue
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}")
        cid = _parse_cell(row[0], rownum, 1, "int")
        xs = tuple(_parse_cell(row[1 + j], rownum, 2 + j, "float") for j in range(d))
        b = _parse_cell(row[-2], rownum, len(header) - 1, "int")
        val = _parse_cell(row[-1], rownum, len(header), "float")
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
        if sorted(per) != list(range(1, horizon + 1)):
            raise SchemaError(f"{path}: id {cid} does not cover budgets 1..{horizon}")

    raw = np.asarray([coords[i] for i in range(n)], dtype=float)
    for j, flag in enumerate(scales):
        if flag == "log" and np.any(raw[:, j] <= 0):
            bad = int(np.argmax(raw[:, j] <= 0))
            raise ParseError(f"row for id {bad}, column {2 + j}: log scaling needs positive values")
    with np.errstate(all="ignore"):
        norm = _normalise(raw, scales)
    finite = np.isfinite(norm).all(axis=0)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ParseError(f"column {2 + j}: coordinates span more than the float range")
    curves = np.asarray(
        [[values[i][b] for b in range(1, horizon + 1)] for i in range(n)], dtype=float
    )
    return _benchmark(norm, curves)


def _undecodable(path: str) -> str:
    """Name the first line of ``path`` that is not UTF-8 text, with its decode error.

    A newline byte never occurs inside a multi-byte UTF-8 sequence, so
    decoding one physical line at a time finds the line holding the bad byte.
    """
    with open(path, "rb") as fh:
        for num, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"{path}: line {num} is not UTF-8 text: {exc}"
    return f"{path}: not UTF-8 text"  # the file changed while it was read


def save_tabular(
    path: str,
    configs: Sequence[Configuration],
    curves: np.ndarray,
    scales: Sequence[str] | None = None,
) -> None:
    """Write a benchmark in the CSV layout ``load_tabular`` reads back.

    Numbers are written with ``repr``, so every value reads back exactly;
    no numeric cell ever needs CSV quoting. The file is written one
    configuration's T lines at a time. Every check runs before it is
    opened, so a failing call creates no file.
    """
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2 or curves.shape[0] != len(configs):
        raise InvalidParams("curves must be an (n, T) array matching the configurations")
    d = configs[0].dimension if configs else 0
    if d < 1:
        raise InvalidParams("need at least one configuration")
    head = ",".join(["id", *(f"x{j}" for j in range(d)), "b", "value"]) + "\n"
    if scales is not None:
        flags = list(scales)
        if len(flags) != d or any(f not in ("lin", "log") for f in flags):
            raise InvalidParams("scales must give lin|log per embedding column")
        head += ",".join(["scale", *flags]) + "\n"
    rows = [curves[cfg.id] for cfg in configs]  # an id outside the curves raises here
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(head)
        for cfg, row in zip(configs, rows):
            prefix = "".join([f"{cfg.id},", *(f"{float(v)!r}," for v in cfg.coords)])
            fh.write("".join([f"{prefix}{b},{v!r}\n" for b, v in enumerate(row.tolist(), 1)]))


# ---------------------------------------------------------------------------
# adversarial constructions


@dataclass
class HardInstanceSpec:
    """Clustered worst-case instance: one hidden good cluster among decoys.

    ``variant`` "fc" makes every curve flat at zero until the horizon (so
    nothing is learnable early); "ac" ramps the decoys linearly until they
    plateau at floor(theta_frac * T), while the hidden cluster keeps climbing.
    """

    variant: str
    epsilon: float
    beta: float
    k: int
    n_per_cluster: int
    r: float
    horizon: int
    theta_frac: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in ("fc", "ac"):
            raise InvalidParams("variant must be 'fc' or 'ac'")
        if not self.epsilon > 0:
            raise InvalidParams("epsilon must be positive")
        if not self.beta > 1:
            raise InvalidParams("beta must exceed 1")
        if self.k < 1 or self.n_per_cluster < 1:
            raise InvalidParams("k and n_per_cluster must be >= 1")
        if not self.r > 0:
            raise InvalidParams("cluster radius r must be positive")
        if self.epsilon * self.r > 1:
            raise InvalidParams("epsilon * r must not exceed 1 (values would leave [0, 1])")
        if self.horizon < 1:
            raise InvalidBudget("horizon must be >= 1")
        if self.variant == "ac" and not 0 < self.theta_frac < 1:
            raise InvalidParams("theta_frac must lie in (0, 1)")
        _check_seed(self.seed)


def gen_hard(spec: HardInstanceSpec) -> tuple[list[Configuration], TabularOracle]:
    """Materialise the clustered hard instance as configurations plus curves.

    Geometry: ceil(beta*k) cluster anchors sit at mutual distance
    ceil(1/epsilon); the members of every cluster share one set of
    orthogonal offsets of norm r/sqrt(2), which makes all intra-cluster
    distances exactly r and keeps cross-cluster distances at least the
    anchor separation. One uniformly drawn cluster hides the single optimal
    configuration; its siblings top out at 1 - epsilon*r.
    """
    m = math.ceil(spec.beta * spec.k)
    n, T = spec.n_per_cluster, spec.horizon
    sep = math.ceil(1.0 / spec.epsilon)
    anchor_scale = sep / math.sqrt(2.0)
    offset_scale = spec.r / math.sqrt(2.0)
    dim = m + n
    rng = np.random.default_rng(spec.seed)
    opt_cluster = int(rng.integers(m))
    opt_member = int(rng.integers(n))

    gap = 1.0 - spec.epsilon * spec.r
    curves = np.zeros((m * n, T))
    points = np.zeros((m * n, dim))
    for j in range(m):
        for i in range(n):
            idx = j * n + i
            points[idx, j] = anchor_scale
            points[idx, m + i] = offset_scale
            if spec.variant == "fc":
                if j == opt_cluster:
                    curves[idx, T - 1] = 1.0 if i == opt_member else gap
            else:
                ts = np.arange(1, T + 1)
                if j == opt_cluster:
                    top = 1.0 if i == opt_member else gap
                    curves[idx] = top * ts / T
                else:
                    plateau = math.floor(spec.theta_frac * T)
                    ramp = gap * np.minimum(ts, plateau) / T
                    curves[idx] = ramp
    return _configs(points), TabularOracle(curves, dim)


def gen_smooth(
    n: int,
    d: int,
    horizon: int,
    epsilon: float,
    seed: int,
) -> tuple[list[Configuration], TabularOracle]:
    """Random instance with a certified smoothness level.

    Values factor into a spatial part exp(-lam * distance to the nearest of
    a few peaks) and a per-configuration concave shape (b/T)**alpha. The
    spatial part changes by at most a factor 1 - lam*dist between any two
    configurations, and the shape exponents are spread so narrowly that
    their ratio stays within 1 - mu*dist of one, so together the curves
    satisfy the ratio bound at level ``epsilon`` with margin. All curves are
    non-decreasing and have non-increasing increments.
    """
    if n < 2 or d < 1:
        raise InvalidParams("need n >= 2 configurations and d >= 1 dimensions")
    if not epsilon > 0:
        raise InvalidParams("epsilon must be positive")
    if horizon < 1:
        raise InvalidBudget("horizon must be >= 1")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, (n, d))
    work = np.empty((d, n))
    # resolve accidental duplicates so pairwise distances are positive; the
    # smallest distance is taken over pairs i < j, one row at a time
    while True:
        columns = np.ascontiguousarray(pts.T)
        dmin = min(
            distance_row(columns[:, i + 1 :], columns[:, i], work[:, i + 1 :]).min()
            for i in range(n - 1)
        )
        if dmin > 1e-9:
            break
        pts = rng.uniform(0.0, 1.0, (n, d))

    lam = 0.45 * epsilon
    mu = 0.45 * epsilon  # remaining 10% of epsilon is float headroom
    n_peaks = int(rng.integers(1, 4))
    peaks = pts[rng.choice(n, size=min(n_peaks, n), replace=False)]
    to_peak = np.min([distance_row(columns, peak, work) for peak in peaks], axis=0)
    v = np.exp(-lam * to_peak)

    if horizon == 1:
        curves = v[:, None].copy()
    else:
        spread = min(mu * dmin / math.log(horizon), 0.5)
        alphas = 0.5 + rng.uniform(0.0, 1.0, n) * spread
        ts = np.arange(1, horizon + 1, dtype=float)
        curves = v[:, None] * (ts[None, :] / horizon) ** alphas[:, None]
    return _configs(pts), TabularOracle(curves, d)


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

    pts: list[tuple[float, float]] = [(spacing, 0.0)]
    vals: list[float] = [v1]
    for a in angles:
        pts.append((spacing + ring_radius * math.cos(a), ring_radius * math.sin(a)))
        vals.append(v1)
    pts.append((2.0 * spacing, 0.0))
    vals.append(v2)
    for a in angles:
        pts.append((2.0 * spacing + ring_radius * math.cos(a), ring_radius * math.sin(a)))
        vals.append(v2)
    pts.append((0.0, 0.0))
    vals.append(1.0)
    curves = np.asarray(vals, dtype=float)[:, None]
    return _configs(np.asarray(pts)), TabularOracle(curves, 2)
