"""Value-function sources: analytic landscapes, adversarial constructions, CSV benchmarks.

Everything here produces a candidate list plus an oracle (or a
``TabularBenchmark`` bundling both), so solvers never care where values
come from.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Configuration,
    InvalidParams,
    ParseError,
    SchemaError,
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
# gen_hard's arrays hold m*n*(m + n + T) cells: points (m*n, m + n), curves (m*n, T)
HARD_CELL_CAP = 10**7


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
        raise InvalidParams(f"point has shape {pt.shape}, domain is {len(spec.domain)}-dimensional")
    for v, (lo, hi) in zip(pt, spec.domain):
        if not lo <= v <= hi:
            raise InvalidParams(f"coordinate {v} outside [{lo}, {hi}]")
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


def mesh_grid(bounds: Sequence[tuple[float, float]], m: int) -> list[Configuration]:
    """Regular m-per-dimension grid over ``bounds`` (at most MESH_CAP points), row-major ids."""
    if m < 2:
        raise InvalidParams("mesh needs at least 2 points per dimension")
    if len(bounds) < 1:
        raise InvalidParams("mesh needs at least one dimension")
    total = m ** len(bounds)
    if total > MESH_CAP:
        raise InvalidParams(f"mesh of {total} points exceeds cap {MESH_CAP}")
    axes = [np.linspace(lo, hi, m) for lo, hi in bounds]
    grids = np.meshgrid(*axes, indexing="ij")
    return _configs(np.stack([g.reshape(-1) for g in grids], axis=1))


def sample_uniform(bounds: Sequence[tuple[float, float]], n: int, seed: int) -> list[Configuration]:
    """n points (at most MESH_CAP) uniform over the box, seeded; degenerate bounds collapse."""
    if n < 1:
        raise InvalidParams("need at least one sample")
    if n > MESH_CAP:  # checked before any draw
        raise InvalidParams(f"sample of {n} points exceeds cap {MESH_CAP}")
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
        if not 0 <= config.id < len(self.curves):
            raise InvalidParams(f"configuration id {config.id} outside benchmark")
        return self.curves.item(config.id, b - 1)


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


def _in_unit(values):
    """Which values ``load_tabular`` accepts: within 1e-9 of [0, 1], not NaN."""
    return (values >= -1e-9) & (values <= 1.0 + 1e-9)


def load_tabular(path: str) -> TabularBenchmark:
    """Read a curve benchmark from CSV.

    Expected layout: header ``id,x0,...,x{d-1},b,value``, one row per
    (configuration, budget) with budgets dense from 1, and an optional second
    line ``scale,lin|log,...`` flagging per-column embedding scaling. Every
    cell must be finite. Values are clamped into [0, 1] (ingest tolerance
    1e-9 for writer round-off), curves are wrapped to be non-decreasing, and
    embeddings are min-max normalised per column after any log scaling.

    Two parsers feed one set of checks, ``_checked``. If the lines after the
    header hold only digits, ``eE.+-``, commas, spaces and CR or LF endings,
    with no field past the csv field limit, numpy reads them in one pass
    straight from the file. Any other file (quoted cells, digit separators,
    whitespace-only lines, tab padding, non-ASCII text) or one that breaks
    any rule is read row by row with csv.reader and Python's int and float,
    so an error names the first faulty row in file order. An id or budget
    of any size is checked without building anything from it.
    """
    try:
        return _checked(path, *_numpy_columns(path))
    except (SchemaError, ParseError, ValueError, OverflowError, csv.Error):
        pass  # a bad header or cell, undecodable text or a broken rule
    return _checked(path, *_csv_columns(path))


def _layout(path: str, rows: list[list[str]]) -> tuple[int, tuple[str, ...], int]:
    """Embedding width, scale flags and index of the first data row, from the leading rows."""
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
    return d, scales, start


# The bytes of a plain data line: numpy reads or refuses its fields as Python's int and float do.
_PLAIN_BYTES = b"0123456789eE.+-, \r\n"
_CHUNK = 1 << 16  # bytes ``_plain`` scans at a time


def _plain(fh) -> bool:
    """Whether numpy may read the rest of the binary file ``fh`` as csv.reader would.

    It must hold only ``_PLAIN_BYTES`` and no field longer than the csv
    field limit, counting a CR toward the field it ends. The file is scanned
    in chunks of ``_CHUNK`` bytes; a field's length is carried over from one
    chunk to the next.
    """
    limit = csv.field_size_limit()
    run = 0  # length of the field the previous chunk ended in
    while chunk := fh.read(_CHUNK):
        if chunk.translate(None, _PLAIN_BYTES):
            return False
        raw = np.frombuffer(chunk, np.uint8)
        ends = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
        if not len(ends):
            run += len(chunk)
        elif run + ends[0] > limit or np.any(np.diff(ends) > limit + 1):
            return False
        else:
            run = len(chunk) - 1 - int(ends[-1])
        if run > limit:
            return False
    return True


def _numpy_columns(path: str) -> tuple:
    """Scale flags, ids, coordinates, budgets and values, from one ``np.loadtxt`` call.

    Numpy reads the open file's lines straight; a file ``_plain`` refuses
    raises ValueError and is left to ``_csv_columns``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        head = [fh.readline(), fh.readline()]
        d, scales, start = _layout(path, list(csv.reader(head)))
        dtype = [("id", np.int64), ("x", float, (d,)), ("b", np.int64), ("value", float)]
        lines = itertools.chain(head[start:], fh)
        with open(path, "rb") as raw:
            raw.seek(len("".join(head[:start]).encode("utf-8")))
            if not _plain(raw):
                raise ValueError("not a plain file")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # older numpy reads an int cell "1.0" via float, only warning
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines, dtype, comments=None, delimiter=",", ndmin=1)
    return scales, table["id"], table["x"], table["b"], table["value"]


def _csv_columns(path: str) -> tuple:
    """The columns of ``_numpy_columns`` read row by row, then row numbers and a parse error.

    Cells are parsed by Python's int and float; ids and budgets past int64
    make object arrays. The parse stops at the first row of the wrong width
    or with a cell it cannot parse, and returns that row's error with the
    columns of the rows before it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError:
            raise ParseError(_undecodable(path)) from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    d, scales, start = _layout(path, rows)
    width = d + 3
    kinds = (int, *(float,) * d, int, float)
    cells, nums, error = [], [], None  # cells: every parsed cell, row after row
    try:
        for num in range(start + 1, len(rows) + 1):
            row, rows[num - 1] = rows[num - 1], None  # each row is freed once parsed
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # a blank line
            if len(row) != width:
                raise SchemaError(f"{path}: row {num} has {len(row)} cells, expected {width}")
            for col, (kind, raw) in enumerate(zip(kinds, row), 1):
                cells.append(kind(raw))
            nums.append(num)
    except SchemaError as exc:
        error = exc
    except ValueError:  # int or float refused the cell the loop variables name
        error = ParseError(f"row {num}, column {col}: cannot parse {raw!r} as {kind.__name__}")
    del rows, cells[len(nums) * width :]  # and the cells of the row that failed
    ids, budgets = (_int_column(cells[j::width]) for j in (0, width - 2))
    xs = np.array([cells[j::width] for j in range(1, width - 2)], dtype=float).T
    vals = np.array(cells[width - 1 :: width], dtype=float)
    return scales, ids, xs, budgets, vals, nums, error


def _int_column(values: list[int]) -> np.ndarray:
    """``values`` as int64, or as Python ints in an object array if one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _checked(path, scales, ids, xs, budgets, vals, rows=None, error=None) -> TabularBenchmark:
    """Check the parsed columns against every rule of the layout and build the benchmark.

    ``rows`` numbers the data rows in the file, and ``error``, the parse error
    of the row that stopped the row-by-row parse, is raised only if no row
    before it breaks a rule. Without ``rows`` a faulty row raises a bare
    ValueError, and ``load_tabular`` reads the file again row by row.
    """
    if not len(ids):
        raise error or SchemaError(f"{path}: no data rows")
    # by id, then budget; the sort is stable, so equal (id, budget) rows keep their file order
    order = np.lexsort((budgets, ids))
    # a difference is 0 exactly where two neighbours are equal, even if it wraps
    new_id = np.diff(ids[order]) != 0
    starts = np.flatnonzero(np.concatenate(([True], new_id)))
    counts = np.diff(starts, append=len(order))
    # each id's first row in file order, whose coordinates it keeps
    first = np.minimum.reduceat(order, starts)
    raw = xs[first]

    finite = np.isfinite(xs)
    moved = np.zeros(len(order), dtype=bool)
    for j, column in enumerate(raw.T):
        moved[order] |= xs[order, j] != np.repeat(column, counts)
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:]] = ~new_id & (np.diff(budgets[order]) == 0)
    negative, below, outside = ids < 0, budgets < 1, ~_in_unit(vals)  # NaN is outside
    bad = negative | below | outside | ~finite.all(axis=1) | moved | repeated
    if bad.any():
        if rows is None:
            raise ValueError("a data row breaks a rule")
        r = int(np.argmax(bad))
        at = f"row {rows[r]}"
        if negative[r]:
            raise SchemaError(f"{path}: {at}: negative id {ids[r]}")
        if below[r]:
            raise SchemaError(f"{path}: {at}: budget index {budgets[r]} must be >= 1")
        if outside[r]:
            raise ParseError(f"{at}, column {xs.shape[1] + 3}: value {vals[r]} outside [0, 1]")
        if not finite[r].all():
            j = int(np.argmin(finite[r]))
            raise ParseError(f"{at}, column {2 + j}: coordinate {xs[r, j]} is not finite")
        if moved[r]:
            raise SchemaError(f"{path}: {at}: id {ids[r]} re-appears with different coordinates")
        raise SchemaError(f"{path}: {at}: duplicate budget {budgets[r]} for id {ids[r]}")
    if error is not None:
        raise error

    # the ids are distinct and non-negative, each id's budgets distinct and positive
    n, horizon = len(starts), budgets.max()
    if ids[first[-1]] != n - 1:
        raise SchemaError(f"{path}: ids must be exactly 0..{n - 1}")
    short = counts != horizon
    if short.any():
        cid = ids[first[short].min()]  # the first one in the file
        raise SchemaError(f"{path}: id {cid} does not cover budgets 1..{horizon}")
    for j in [j for j, flag in enumerate(scales) if flag == "log"]:
        if np.any(raw[:, j] <= 0):
            cid = int(np.argmax(raw[:, j] <= 0))
            raise ParseError(f"row for id {cid}, column {2 + j}: log scaling needs positive values")
        raw[:, j] = np.log(raw[:, j])
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    with np.errstate(all="ignore"):  # a span past the float range overflows
        norm = (raw - lo) / np.where(hi > lo, hi - lo, 1.0)
    spans = np.isfinite(norm).all(axis=0)
    if not spans.all():
        j = int(np.argmin(spans))
        raise ParseError(f"column {2 + j}: coordinates span more than the float range")

    # row i is id i; clamped as Python's min(max(v, 0.0), 1.0), so a -0.0 stays negative
    curves = vals[order].reshape(n, horizon)
    curves[curves < 0] = 0.0
    curves[curves > 1] = 1.0
    np.maximum.accumulate(curves, axis=1, out=curves)
    return TabularBenchmark(configs=_configs(norm), curves=curves)


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


def save_tabular(path: str, configs: Sequence[Configuration], curves: np.ndarray) -> None:
    """Write a benchmark in the CSV layout ``load_tabular`` reads back.

    Numbers are written with ``repr``, so every value reads back exactly;
    no numeric cell ever needs CSV quoting. The file is written one
    configuration's T lines at a time. Every check runs before it is
    opened, so a failing call creates no file.
    """
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2 or curves.shape[0] != len(configs):
        raise InvalidParams("curves must be an (n, T) array matching the configurations")
    if curves.shape[1] < 1:
        raise InvalidParams("curves need at least one budget column")
    bad = np.argwhere(~_in_unit(curves))
    if bad.size:
        i, b = bad[0]
        raise InvalidParams(f"curve {i}, budget {b + 1}: value {curves[i, b]} outside [0, 1]")
    d = configs[0].dimension if configs else 0
    if d < 1:
        raise InvalidParams("need at least one configuration")
    head = ",".join(["id", *(f"x{j}" for j in range(d)), "b", "value"]) + "\n"
    seen: set[int] = set()
    for cfg in configs:  # load_tabular wants each id of 0..n-1 once, all of one width
        if cfg.dimension != d:
            raise InvalidParams(f"configuration {cfg.id} has {cfg.dimension} coordinates, not {d}")
        if cfg.id >= len(configs):
            raise InvalidParams(f"configuration id {cfg.id} outside 0..{len(configs) - 1}")
        if cfg.id in seen:
            raise InvalidParams(f"configuration id {cfg.id} appears more than once")
        seen.add(cfg.id)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(head)
        for cfg in configs:
            prefix = "".join([f"{cfg.id},", *(f"{float(v)!r}," for v in cfg.coords)])
            row = curves[cfg.id].tolist()
            fh.write("".join([f"{prefix}{b},{v!r}\n" for b, v in enumerate(row, 1)]))


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
            raise InvalidParams("horizon must be >= 1")
        if self.variant == "ac" and not 0 < self.theta_frac < 1:
            raise InvalidParams("theta_frac must lie in (0, 1)")
        _check_seed(self.seed)
        if not math.isfinite(self.beta * self.k):
            raise InvalidParams(f"beta * k = {self.beta * self.k} is not finite")
        if not math.isfinite(1.0 / self.epsilon):
            raise InvalidParams(f"1 / epsilon = {1.0 / self.epsilon} is not finite")
        m, n = math.ceil(self.beta * self.k), self.n_per_cluster
        if m * n * (m + n + self.horizon) > HARD_CELL_CAP:
            raise InvalidParams(
                f"hard instance exceeds cap {HARD_CELL_CAP} on m*n*(m + n + horizon) cells, "
                "m = ceil(beta * k)"
            )


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
    rows = np.arange(m * n)
    cluster, member = np.divmod(rows, n)
    points = np.zeros((m * n, dim))
    points[rows, cluster] = anchor_scale
    points[rows, m + member] = offset_scale
    hidden = (cluster == opt_cluster)[:, None]
    top = np.where(member == opt_member, 1.0, gap)[:, None]
    if spec.variant == "fc":
        curves = np.zeros((m * n, T))
        curves[:, T - 1 :] = np.where(hidden, top, 0.0)
    else:
        ts = np.arange(1, T + 1)
        plateau = math.floor(spec.theta_frac * T)
        curves = np.where(hidden, top * ts / T, gap * np.minimum(ts, plateau) / T)
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
        raise InvalidParams("horizon must be >= 1")
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

