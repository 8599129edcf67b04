"""Diagnostics: smoothness estimation, brute-force references, rank summaries."""

import contextlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    brute_force_k_center,
    brute_force_opt,
    configs_from,
    curve_oracle,
    line,
    lipschitz_check,
    matrix_rows,
    planar,
    ref_epsilon_pairwise,
    ref_epsilon_percentiles,
)
from uvp import InvalidParams, SchemaError, analysis
from uvp.analysis import (
    DEFAULT_ALPHAS,
    DEFAULT_FRACTIONS,
    _rank,
    _scaled_percentiles,
    epsilon_pairwise,
    epsilon_percentiles,
    mean_rank,
)
from uvp.clustering import Cover, greedy_radius, k_center
from uvp.core import Trace
from uvp.instances import (
    TabularBenchmark,
    gen_hard,
    gen_smooth,
    landscape,
    landscape_eval,
    load_tabular,
    mesh_grid,
    save_tabular,
)
from uvp.cli import entry


def _bench(points, curves):
    return TabularBenchmark(
        configs=configs_from(points),
        curves=np.asarray(curves, dtype=float),
    )


# ---------------------------------------------------------------------------
# epsilon_pairwise


def test_epsilon_pairwise_identical_curves():
    bench = _bench([[0.0], [1.0]], [[0.4, 0.6], [0.4, 0.6]])
    pairwise, skipped = epsilon_pairwise(bench)
    assert pairwise[0, 1] == 0.0
    assert pairwise[1, 0] == 0.0
    assert skipped == ()


def test_epsilon_pairwise_hand_value():
    # min_b A_1/A_0 = 0.5 at distance 1 -> eps = (1 - 0.5) / 1
    bench = _bench([[0.0], [1.0]], [[1.0], [0.5]])
    pairwise, _ = epsilon_pairwise(bench)
    assert pairwise[1, 0] == pytest.approx(0.5)
    # the other orientation has ratio 2.0, clamped at 0
    assert pairwise[0, 1] == 0.0


def test_epsilon_pairwise_zero_conventions():
    # 0/0 counts as ratio 1, positive/0 as +inf; both leave eps at 0
    bench = _bench([[0.0], [1.0]], [[0.0], [0.0]])
    assert epsilon_pairwise(bench)[0][0, 1] == 0.0
    bench = _bench([[0.0], [1.0]], [[0.5], [0.0]])
    pairwise, _ = epsilon_pairwise(bench)
    assert pairwise[0, 1] == 0.0  # ratio +inf never binds
    assert pairwise[1, 0] == pytest.approx(1.0)  # 0/0.5 = 0 -> (1-0)/1
    # a distance that overflows to inf: the floor min(0/0, 0.5/0) = 1 gives
    # (1 - 1) / inf = 0, where a floor of +inf would give NaN
    bench = _bench([[0.0], [1e200]], [[0.0, 0.5], [0.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
        assert epsilon_pairwise(bench)[0].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    # -0.0 reads as 0: 0.5/-0.0 = +inf and -0.0/-0.0 = 1. With one budget the
    # transposed curves are contiguous, and the benchmark's own -0.0 stays
    bench = _bench([[0.0], [1.0], [2.0]], [[-0.0], [0.5], [-0.0]])
    pairwise, _ = epsilon_pairwise(bench)
    assert pairwise[1, 0] == pairwise[0, 2] == 0.0
    assert pairwise[0, 1] == 1.0  # -0.0/0.5 = 0 -> (1-0)/1
    assert np.signbit(bench.curves[[0, 2], 0]).all()


def test_epsilon_pairwise_matches_brute_force():
    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(6, 2))
    curves = np.sort(rng.uniform(0.05, 1.0, size=(6, 3)), axis=1)
    pairwise, _ = epsilon_pairwise(_bench(pts, curves))
    n = len(pts)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dist = float(np.linalg.norm(pts[i] - pts[j]))
            worst = min(curves[i][b] / curves[j][b] for b in range(3))
            expected = max(0.0, (1.0 - worst) / dist)
            assert pairwise[i, j] == pytest.approx(expected, abs=1e-12)


def test_epsilon_pairwise_skips_duplicate_embeddings():
    bench = _bench([[0.5], [0.5], [1.0]], [[0.2], [0.9], [0.4]])
    pairwise, skipped = epsilon_pairwise(bench)
    assert np.isnan(pairwise[0, 1]) and np.isnan(pairwise[1, 0])
    assert (0, 1) in skipped
    assert np.isfinite(pairwise[0, 2])


def test_epsilon_pairwise_strict_mode():
    bench = _bench([[0.5], [0.5]], [[0.2], [0.9]])
    with pytest.raises(SchemaError, match="coincident configuration pairs"):
        epsilon_pairwise(bench, strict=True)


def test_epsilon_pairwise_needs_two_configs():
    bench = _bench([[0.5]], [[0.2]])
    with pytest.raises(InvalidParams):
        epsilon_pairwise(bench)


# ---------------------------------------------------------------------------
# epsilon_percentiles


def test_epsilon_percentiles_constant_multiset():
    # every pair at the same level: all percentiles collapse to c * r
    pts = [[0.0], [1.0], [3.0]]
    c = 0.3
    levels = np.full((3, 3), c) - c * np.eye(3)
    radius, percentiles = _scaled_percentiles(matrix_rows(levels), configs_from(pts), 1, DEFAULT_ALPHAS)
    # single greedy center is the lowest id at x = 0, covering radius 3
    assert radius == pytest.approx(3.0)
    assert all(v == pytest.approx(c * 3.0) for v in percentiles.values())


def test_epsilon_percentiles_from_estimated_matrix():
    pts = [[0.0], [4.0], [9.0]]
    bench = _bench(pts, [[1.0], [0.5], [0.5]])
    pairwise, _ = epsilon_pairwise(bench)
    r, percentiles, skipped = epsilon_percentiles(bench, k=1, alphas=(50, 100))
    radius = greedy_radius(k_center(1, Cover(bench.configs)), bench.configs)
    assert r == pytest.approx(radius)
    assert skipped == ()
    per_pair = []
    for i, j in itertools.combinations(range(3), 2):
        per_pair.append(max(pairwise[i, j], pairwise[j, i]))
    per_pair.sort()
    # nearest-rank: alpha = 50 over 3 scores picks index ceil(1.5) - 1 = 1
    assert percentiles[50.0] == pytest.approx(per_pair[1] * radius)
    assert percentiles[100.0] == pytest.approx(per_pair[2] * radius)


def test_epsilon_percentiles_nearest_rank_two_values():
    # pair scores {0, 1} with radius 1: alpha = 90 lands on the larger value
    levels = np.asarray([
        [0.0, 1.0, np.nan],
        [0.3, 0.0, 0.0],
        [np.nan, 0.0, 0.0],
    ])
    radius, percentiles = _scaled_percentiles(
        matrix_rows(levels), configs_from([[0.0], [1.0], [2.0]]), 2, (90,)
    )
    # greedy picks ids 0 then 2; the middle point sits at distance 1
    assert radius == pytest.approx(1.0)
    assert percentiles[90.0] == pytest.approx(1.0)


def test_epsilon_percentiles_alpha_validation():
    bench = _bench([[0.0], [1.0]], [[1.0], [0.5]])
    with pytest.raises(InvalidParams):
        epsilon_percentiles(bench, k=1, alphas=(0,))
    with pytest.raises(InvalidParams):
        epsilon_percentiles(bench, k=1, alphas=(101,))


def test_epsilon_percentiles_all_pairs_skipped():
    levels = np.asarray([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(InvalidParams, match="no scorable pairs"):
        _scaled_percentiles(matrix_rows(levels), configs_from([[0.5], [0.5]]), 1, DEFAULT_ALPHAS)
    # the same pair from a benchmark: its embeddings coincide
    bench = _bench([[0.5], [0.5]], [[0.2], [0.9]])
    with pytest.raises(InvalidParams, match="no scorable pairs"):
        epsilon_percentiles(bench, k=1)


def test_epsilon_percentiles_checks_args_before_any_pair():
    # no benchmark at all: the arguments must be rejected before it is read
    with pytest.raises(InvalidParams, match="k must be at least 1"):
        epsilon_percentiles(None, k=0)
    with pytest.raises(InvalidParams, match="percentile 150"):
        epsilon_percentiles(None, k=1, alphas=(90, 150))
    with pytest.raises(InvalidParams, match="percentile nan"):
        epsilon_percentiles(None, k=1, alphas=(float("nan"),))


# ---------------------------------------------------------------------------
# the estimators against their reference bodies, bit for bit

# Curve cells: zeros of both signs, tied values and free floats.
_CELLS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
# Hand-built level matrices: signed zeros, NaNs, ties, negatives. No infinity:
# with a zero radius, inf * 0 is NaN with a RuntimeWarning, which fails a test.
_LEVELS = st.sampled_from([0.0, -0.0, np.nan, 0.5, 1.0]) | st.floats(-1.0, 10.0)


@st.composite
def _smoothness_benches(draw):
    """Small benchmarks with coincident embeddings, zero curves and d up to 12.

    One draw in four scales the embeddings by 1e200, so distances overflow
    to inf: the only inputs where a floor of 0/0 = 1 gives another level
    than a floor above 1.
    """
    n = draw(st.integers(2, 9))
    d = draw(st.sampled_from([1, 2, 3, 8, 9, 12]))
    horizon = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e200]))
    # configurations share rows of a small pool, so embeddings coincide
    pool = draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=d, max_size=d),
        min_size=1, max_size=n,
    ))
    pool = [[x * scale for x in p] for p in pool]
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    curve = (
        st.just([0.0] * horizon)
        | st.lists(_CELLS, min_size=horizon, max_size=horizon)
    )
    curves = draw(st.lists(curve, min_size=n, max_size=n))
    return _bench([pool[r] for r in rows], curves)


def _same_percentiles(got, want):
    """``got`` and ``want`` start with the same radius and percentiles, bit for bit."""
    (got_r, got_p), (want_r, want_p) = got[:2], want[:2]
    assert repr(got_r) == repr(want_r)
    assert list(got_p) == list(want_p)
    assert [repr(v) for v in got_p.values()] == [repr(v) for v in want_p.values()]


_ALPHAS = st.lists(st.sampled_from([1.0, 33.3, 50.0, 90.0, 99.0, 100.0]), min_size=1, max_size=4)


@settings(deadline=None, max_examples=200)
@given(bench=_smoothness_benches(), k=st.integers(1, 10), alphas=_ALPHAS)
# the cover radius overflows to inf, so the zero levels scale to NaN, which
# both must put after the inf levels
@example(
    bench=_bench(
        [[0.0], [0.0], [0.0], [0.0], [1e200], [3.350359308137631e153]],
        [[0.0, 0.0]] * 5 + [[0.0, 0.25]],
    ),
    k=1,
    alphas=[1.0],
)
def test_estimators_match_reference_bodies(bench, k, alphas):
    # embeddings 1e200 apart: squared distances overflow to inf in both (numpy
    # warns), and so does the cover radius, which a level 0 turns into NaN
    far = max(abs(x) for c in bench.configs for x in c.coords) > 1.0
    with np.errstate(over="ignore", invalid="ignore") if far else contextlib.nullcontext():
        (got, skipped), (want, want_skipped) = epsilon_pairwise(bench), ref_epsilon_pairwise(bench)
        assert got.tobytes() == want.tobytes()  # NaNs in place
        assert skipped == want_skipped
        try:
            want = ref_epsilon_percentiles(want, bench.configs, k, alphas)
        except InvalidParams:
            with pytest.raises(InvalidParams):
                epsilon_percentiles(bench, k, alphas)
            return
        got = epsilon_percentiles(bench, k, alphas)
        _same_percentiles(got, want)
        assert got[2] == skipped


def _estimate_eps_csv(data, alphas):
    """The epsilon.csv of ``estimate-eps --k 20`` on ``data``; the default alphas pass no flag."""
    out = tempfile.mkdtemp(dir=os.path.dirname(data))
    flags = [] if alphas == DEFAULT_ALPHAS else ["--alphas", ",".join(f"{a:g}" for a in alphas)]
    assert entry(["estimate-eps", "--data", data, "--k", "20", "--out", out, *flags]) == 0
    return Path(out, "epsilon.csv").read_text(encoding="utf-8")


def _epsilon_csv(percentiles):
    """epsilon.csv's text for ``(alpha, value)`` pairs, as the command formats it."""
    return "alpha,value\n" + "".join(f"{a!r},{v!r}\n" for a, v in percentiles)


def test_estimators_match_reference_on_a_flat_at_zero_hard_instance(tmp_path):
    for horizon in (6, 20):
        _flat_at_zero_matches_reference(tmp_path, horizon)


def _flat_at_zero_matches_reference(tmp_path, horizon):
    # fc curves are zero until the horizon: 0/0 at almost every cell, and
    # x/0 between the hidden cluster and the rest at the last budget
    configs, oracle = gen_hard("fc", epsilon=0.05, beta=2.0, k=10, n_per_cluster=10, r=1.0,
                               horizon=horizon)
    bench = TabularBenchmark(configs=configs, curves=oracle.curves)
    assert bench.n == 200 and (bench.curves == 0.0).mean() > 0.9
    (got, skipped), (want, want_skipped) = epsilon_pairwise(bench), ref_epsilon_pairwise(bench)
    assert got.tobytes() == want.tobytes()
    assert skipped == want_skipped == ()
    assert (got > 0.0).any()  # some pair binds
    alphas = (1.0, 50.0, *DEFAULT_ALPHAS, 100.0)
    _same_percentiles(
        epsilon_percentiles(bench, 20, alphas),
        ref_epsilon_percentiles(want, bench.configs, 20, alphas),
    )
    # the command's digits, against the reference on the file it reads
    data = str(tmp_path / f"fc{horizon}.csv")
    save_tabular(data, configs, oracle.curves)
    loaded = load_tabular(data)
    pairwise, _ = ref_epsilon_pairwise(loaded)
    for alphas in (DEFAULT_ALPHAS, (1.0, 33.3, 50.0, 100.0)):
        _, percentiles = ref_epsilon_percentiles(pairwise, loaded.configs, 20, alphas)
        assert _estimate_eps_csv(data, alphas) == _epsilon_csv(percentiles.items())


@settings(deadline=None, max_examples=200)
@given(data=st.data(), k=st.integers(1, 8), alphas=_ALPHAS)
def test_percentiles_match_reference_on_hand_built_reports(data, k, alphas):
    n = data.draw(st.integers(2, 7))
    levels = data.draw(st.lists(_LEVELS, min_size=n * n, max_size=n * n))
    points = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n))
    levels, configs = np.asarray(levels).reshape(n, n), configs_from([[x] for x in points])
    try:
        want = ref_epsilon_percentiles(levels, configs, k, alphas)
    except InvalidParams:
        with pytest.raises(InvalidParams):
            _scaled_percentiles(matrix_rows(levels), configs, k, alphas)
        return
    _same_percentiles(_scaled_percentiles(matrix_rows(levels), configs, k, alphas), want)


def test_percentiles_keep_the_first_of_tied_signed_zeros():
    # max(a, b) keeps a on a tie; np.maximum would keep b
    levels = np.asarray([[0.0, -0.0], [0.0, 0.0]])
    _, percentiles = _scaled_percentiles(matrix_rows(levels), configs_from([[0.0], [1.0]]), 1, (100,))
    assert repr(percentiles[100.0]) == "-0.0"


def test_estimators_stay_within_three_pair_matrices():
    # the former (n, n, d) distance broadcast alone was d = 16 matrices
    n, d = 600, 16
    matrix_bytes = n * n * 8
    configs, oracle = gen_smooth(n=n, d=d, horizon=10, epsilon=0.3, seed=0)
    bench = TabularBenchmark(configs=configs, curves=oracle.curves)
    for call in (
        lambda: epsilon_pairwise(bench),
        lambda: gen_smooth(n=n, d=d, horizon=10, epsilon=0.3, seed=0),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * matrix_bytes


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_percentiles_need_no_more_than_a_window_and_the_row_buffers():
    # the default alphas keep the largest tenth of the pairs, held in a window
    # of an eighth of them plus a row and copied once while it is compacted:
    # about a quarter of the pair bytes (0.21 here) on top of what an alpha
    # of 100 holds, a window of one value beside row buffers and copies of
    # the coordinates and curves (0.21 here, 2.4 floats per coordinate or
    # curve cell)
    n, d, horizon = 600, 16, 10
    pair_bytes = n * (n - 1) // 2 * 8
    configs, oracle = gen_smooth(n=n, d=d, horizon=horizon, epsilon=0.3, seed=0)
    points = [c.coords for c in configs]
    points[1] = points[0]  # an unscorable pair
    bench = TabularBenchmark(configs=configs_from(points), curves=oracle.curves)
    rows = _traced_peak(lambda: epsilon_percentiles(bench, k=20, alphas=(100.0,)))
    with mock.patch.object(analysis, "_top", wraps=analysis._top) as top:
        peak = _traced_peak(lambda: epsilon_percentiles(bench, k=20))
    assert top.called
    assert rows < 4 * (d + horizon) * n * 8
    assert peak - rows < 0.35 * pair_bytes


def test_streamed_estimate_holds_a_window_not_the_pair_values(tmp_path):
    # estimate-eps builds no n x n matrix and, at the default alphas, no
    # n(n-1)/2 pair array either: the window and the row buffers; an alpha of
    # 50 needs half the pairs, so every value is held, within the bound that
    # held when the pair array was always built
    n, d = 1200, 16
    pair_bytes = n * (n - 1) // 2 * 8
    configs, oracle = gen_smooth(n=n, d=d, horizon=10, epsilon=0.3, seed=0)
    path = str(tmp_path / "s.csv")
    save_tabular(path, configs, oracle.curves)
    bench = load_tabular(path)
    levels, _ = epsilon_pairwise(bench)
    _, want = _scaled_percentiles(matrix_rows(levels), bench.configs, 20, (50.0, *DEFAULT_ALPHAS))
    del levels
    for alphas, bound in ((DEFAULT_ALPHAS, 0.6 * pair_bytes), ((50.0,), 0.75 * n * n * 8)):
        got = {}
        peak = _traced_peak(lambda: got.update(epsilon_percentiles(bench, 20, alphas)[1]))
        assert peak < bound
        assert got == {a: want[a] for a in alphas}


def test_estimate_eps_at_tabular_size_matches_a_stable_sort_of_every_pair(tmp_path):
    # the tabular benchmark's size, where the command keeps a window of the
    # largest values (default alphas) or every value (an alpha of 1); its
    # digits against a stable sort of every pair maximum of the full matrix,
    # which shares no selection code with the command
    configs, oracle = gen_smooth(1500, 4, 50, 0.3, 0)
    data = str(tmp_path / "tab.csv")
    save_tabular(data, configs, oracle.curves)
    bench = load_tabular(data)
    levels, _ = epsilon_pairwise(bench)
    upper = np.triu_indices_from(levels, 1)
    a, b = levels[upper], levels.T[upper]
    pairs = np.where((b > a) | np.isnan(b), b, a)
    pairs = pairs[~np.isnan(pairs)]
    cover = Cover(bench.configs)
    k_center(20, cover)
    ranked = np.sort(pairs * float(cover.nearest.max()), kind="stable")
    for alphas in (DEFAULT_ALPHAS, (1.0, 33.3, 50.0, 90.0, 99.9, 100.0)):
        want = [(a, float(ranked[max(math.ceil(a / 100.0 * ranked.size) - 1, 0)])) for a in alphas]
        assert _estimate_eps_csv(data, alphas) == _epsilon_csv(want)


def test_window_size_covers_every_count_of_scored_pairs():
    # the window is sized for all M pairs before any is scored: rank r of N
    # values needs the N - r largest, which must never exceed the count at M
    for pairs in (1, 2, 3, 10, 45, 780, 4950, 20100):
        for alpha in (1e-300, 33.3, 99.99999999999999, 100.0):
            keep = pairs - _rank(alpha, pairs)
            assert all(count - _rank(alpha, count) <= keep for count in range(1, pairs + 1))


# The alphas always include 99 and 100. With none below 90 the window holds
# at most a tenth of the pairs, so on up to 40 configurations (780 pairs) it
# is compacted many times per call; an alpha below 60 holds every value.
_WINDOW_ALPHAS = st.lists(st.sampled_from([1.0, 33.3, 50.0, 90.0, 99.9]), max_size=2).flatmap(
    lambda alphas: st.permutations(alphas + [99.0, 100.0])
)


@st.composite
def _wide_benches(draw):
    """Up to 40 configurations on a coarse grid: coincident embeddings, tied levels."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 4))
    points = draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=d, max_size=d),
        min_size=n, max_size=n,
    ))
    cells = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    curves = draw(st.lists(
        st.just([0.0] * horizon) | st.lists(cells, min_size=horizon, max_size=horizon),
        min_size=n, max_size=n,
    ))
    return _bench(points, curves)


@settings(deadline=None, max_examples=300)
@given(bench=_wide_benches(), k=st.integers(1, 10), alphas=_WINDOW_ALPHAS, strict=st.booleans())
def test_streamed_estimate_matches_the_reference_pair_list(bench, k, alphas, strict):
    # the command's own call against the pair-by-pair reference, which sorts
    # the whole list: no selection is shared between the two
    pairwise, skipped = ref_epsilon_pairwise(bench)
    if strict and skipped:
        with pytest.raises(SchemaError, match="coincident configuration pairs"):
            epsilon_percentiles(bench, k, alphas, strict=strict)
        return
    try:
        want = ref_epsilon_percentiles(pairwise, bench.configs, k, alphas)
    except InvalidParams as exc:
        with pytest.raises(InvalidParams, match=re.escape(str(exc))):
            epsilon_percentiles(bench, k, alphas, strict=strict)
        return
    got = epsilon_percentiles(bench, k, alphas, strict=strict)
    _same_percentiles(got, want)
    assert got[2] == skipped


# mostly zeros of both signs: the window's smallest kept value is often a
# zero, and which zeros it keeps decides the sign at the rank
_ZERO_LEVELS = st.sampled_from([0.0, -0.0, 0.0, -0.0, -1.0, np.nan, 0.5])


@settings(deadline=None, max_examples=300)
@given(data=st.data(), k=st.integers(1, 8), alphas=_WINDOW_ALPHAS)
def test_window_keeps_the_last_tied_values_of_hand_built_reports(data, k, alphas):
    n = data.draw(st.integers(2, 40))
    # up to 1600 levels: drawn from a small drawn pool by a drawn seed
    pool = data.draw(st.lists(_ZERO_LEVELS | _LEVELS, min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n))
    levels, configs = rng.choice(np.asarray(pool), size=(n, n)), configs_from([[x] for x in points])
    try:
        want = ref_epsilon_percentiles(levels, configs, k, alphas)
    except InvalidParams:
        with pytest.raises(InvalidParams):
            _scaled_percentiles(matrix_rows(levels), configs, k, alphas)
        return
    _same_percentiles(_scaled_percentiles(matrix_rows(levels), configs, k, alphas), want)


def test_window_compacts_and_keeps_the_last_signed_zeros():
    # 40 configurations, 780 pairs; at alphas 99 and 100 the window keeps 8
    # values. The pair values are zeros of both signs except for a few
    # negatives, so every compaction cuts through tied zeros
    n = 40
    rng = np.random.default_rng(3)
    signs = rng.integers(0, 2, size=(n, n))
    pairwise = np.where(signs == 1, -0.0, 0.0)
    pairwise[rng.random((n, n)) < 0.05] = -1.0
    configs = configs_from([[float(x)] for x in range(n)])
    for alphas in ((99.0, 100.0), (90.0,), (99.9,)):
        with mock.patch.object(analysis, "_top", wraps=analysis._top) as top:
            got = _scaled_percentiles(matrix_rows(pairwise), configs, 1, alphas)
        assert top.call_count > 1
        _same_percentiles(got, ref_epsilon_percentiles(pairwise, configs, 1, alphas))


def test_percentiles_take_the_sign_of_the_zero_at_the_rank():
    # pair values 0.0, -1.0, 0.5, 2.0, -0.0, 0.0 in pair order: a stable sort
    # puts the zeros +0.0, -0.0, +0.0 after the one negative, so the median
    # rank falls on the -0.0; a plain partition returns a +0.0 there
    upper = np.zeros((4, 4))
    upper[np.triu_indices(4, 1)] = [0.0, -1.0, 0.5, 2.0, -0.0, 0.0]
    # the same level both ways (a sum would turn -0.0 into 0.0)
    levels = np.where(np.tri(4, dtype=bool), upper.T, upper)
    configs = configs_from([[0.0], [1.0], [2.0], [3.0]])
    radius, percentiles = _scaled_percentiles(matrix_rows(levels), configs, 1, (50,))
    assert radius == 3.0
    assert repr(percentiles[50.0]) == "-0.0"
    _, percentiles = _scaled_percentiles(matrix_rows(levels), configs, 1, (30, 60, 100))
    assert [repr(v) for v in percentiles.values()] == ["0.0", "0.0", "6.0"]


def test_a_benchmark_reaches_the_signed_zero_tie_rule():
    # 1e200 apart, (1 - 2) / inf is -0.0 and np.maximum(0.0, -0.0) keeps it, so
    # the pairs across the gap read 0.0 one way and -0.0 the other; the first
    # of them in pair order is the one at the median rank
    bench = _bench([[0.0, 0.0], [0.0, 1.0], [1e200, 0.0], [1e200, 1.0]], [[0.5], [0.5], [0.25], [0.25]])
    with np.errstate(over="ignore"):
        pairwise, _ = epsilon_pairwise(bench)
        radius, percentiles, _ = epsilon_percentiles(bench, 2, (50,))
    assert [repr(float(pairwise[i, j])) for i, j in ((0, 2), (2, 0))] == ["-0.0", "0.0"]
    assert radius == 1.0
    assert repr(percentiles[50.0]) == "-0.0"


@settings(deadline=None, max_examples=100)
@given(bench=_smoothness_benches(), k=st.integers(1, 10), alphas=_ALPHAS, strict=st.booleans())
def test_cli_estimate_matches_the_library_call(bench, k, alphas, strict):
    with tempfile.TemporaryDirectory() as tmp:
        data, out_dir = os.path.join(tmp, "s.csv"), os.path.join(tmp, "eps")
        save_tabular(data, bench.configs, bench.curves)
        argv = ["estimate-eps", "--data", data, "--k", str(k), "--out", out_dir]
        argv += ["--alphas", ",".join(map(str, alphas))] + (["--strict"] if strict else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entry(argv)
        stdout, stderr = out.getvalue(), err.getvalue()
        got_csv = None
        if os.path.exists(out_dir):
            with open(os.path.join(out_dir, "epsilon.csv"), encoding="utf-8") as fh:
                got_csv = fh.read()
        # the same file through the library, formatted as the command formats it
        loaded = load_tabular(data)
        try:
            radius, percentiles, skipped = epsilon_percentiles(loaded, k, alphas, strict=strict)
        except (SchemaError, InvalidParams) as exc:
            assert (code, stdout, stderr) == (2, "", f"error: {exc}\n")
            assert got_csv is None
            return
        if radius == 0:
            assert code == 2 and stdout == "" and "radius 0" in stderr
            assert got_csv is None
            return
        values = [(repr(float(a)), repr(percentiles[float(a)])) for a in alphas]
        assert code == 0
        assert stdout == "".join(f"alpha={a} value={v}\n" for a, v in values)
        assert stderr == (f"skipped {len(skipped)} coincident pairs\n" if skipped else "")
        assert got_csv == "alpha,value\n" + "".join(f"{a},{v}\n" for a, v in values)


# ---------------------------------------------------------------------------
# lipschitz_check


def test_lipschitz_check_identical_curves():
    bench = _bench([[0.0], [2.0]], [[0.3, 0.8], [0.3, 0.8]])
    assert lipschitz_check(bench, 0.2) == pytest.approx(-0.4)


def test_lipschitz_check_detects_violation():
    bench = _bench([[0.0], [1.0]], [[0.9], [0.4]])
    assert lipschitz_check(bench, 0.2) == pytest.approx(0.3)


def test_lipschitz_check_on_smooth_instance():
    configs, oracle = gen_smooth(n=15, d=2, horizon=3, epsilon=0.25, seed=7)
    bench = TabularBenchmark(configs=configs, curves=oracle.curves)
    assert lipschitz_check(bench, 0.25) <= 1e-12


def test_lipschitz_check_validation():
    bench = _bench([[0.0], [1.0]], [[0.5], [0.5]])
    with pytest.raises(InvalidParams):
        lipschitz_check(bench, -0.1)
    with pytest.raises(InvalidParams):
        lipschitz_check(_bench([[0.0]], [[0.5]]), 0.2)


# ---------------------------------------------------------------------------
# brute-force references


def test_brute_force_k_center_line():
    configs = line([0.0, 1.0, 2.0, 9.0])
    report = brute_force_k_center(configs, 2)
    assert report.optimal_radius == pytest.approx(1.0)
    assert report.optimal_centers == (1, 3)
    assert report.greedy_radius <= 2.0 * report.optimal_radius + 1e-12


def test_brute_force_k_center_exact_cover():
    configs = planar([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    report = brute_force_k_center(configs, 3)
    assert report.optimal_radius == 0.0
    assert report.greedy_radius == 0.0


def test_brute_force_k_center_single_center():
    configs = line([0.0, 10.0])
    report = brute_force_k_center(configs, 1)
    assert report.optimal_radius == pytest.approx(10.0)


def test_brute_force_k_center_guard_rails():
    configs = line(list(range(16)))
    with pytest.raises(InvalidParams, match="exceed the exhaustive-search cap 15"):
        brute_force_k_center(configs, 2)
    small = line([0.0, 1.0])
    with pytest.raises(InvalidParams):
        brute_force_k_center(small, 0)
    with pytest.raises(InvalidParams):
        brute_force_k_center(small, 3)


def test_brute_force_k_center_dominates_greedy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        configs = configs_from(rng.uniform(size=(8, 2)))
        k = int(rng.integers(1, 4))
        report = brute_force_k_center(configs, k)
        assert report.optimal_radius <= report.greedy_radius + 1e-12
        assert report.greedy_radius <= 2.0 * report.optimal_radius + 1e-12


def test_brute_force_k_center_matches_per_subset_greedy_radius():
    # the radius table must give each subset's cover radius bit for bit, and
    # ties (frequent on a small grid) keep the first subset in combinations order
    rng = np.random.default_rng(5)
    for trial in range(30):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        pts = rng.integers(0, 3, size=(n, d)) if trial % 2 else rng.uniform(-5, 5, size=(n, d))
        configs = configs_from(pts)
        k = int(rng.integers(1, n + 1))
        radii = [
            (greedy_radius(list(s), configs), s) for s in itertools.combinations(range(n), k)
        ]
        radius, centers = min(radii, key=lambda r: r[0])
        report = brute_force_k_center(configs, k)
        assert repr(report.optimal_radius) == repr(radius)
        assert report.optimal_centers == centers


def test_brute_force_opt_constant_ties_to_lowest_id():
    configs = line([0.0, 1.0, 2.0])
    oracle = curve_oracle([[0.5, 0.5]] * 3)
    best_id, best_val = brute_force_opt(configs, oracle)
    assert (best_id, best_val) == (0, 0.5)


def test_brute_force_opt_finds_planted_optimum():
    configs, oracle = gen_hard(variant="fc", epsilon=0.5, beta=2.0, k=2,
                               n_per_cluster=5, r=0.5, horizon=3, seed=0)
    best_id, best_val = brute_force_opt(configs, oracle)
    assert best_val == 1.0
    assert oracle.curves[best_id, -1] == 1.0


def test_brute_force_opt_on_landscape_mesh():
    spec = landscape("radial-decay")
    configs = mesh_grid(spec.domain, 3)
    values = [landscape_eval(spec, c.coords) for c in configs]
    oracle = curve_oracle([[v] for v in values], dimension=2)
    best_id, best_val = brute_force_opt(configs, oracle)
    assert best_id == 4  # the origin sits at the grid centre
    assert best_val == 1.0


# ---------------------------------------------------------------------------
# rank aggregation


def test_mean_rank_tie_handling():
    # values (0.9, 0.8, 0.8) rank as (1, 2.5, 2.5)
    results = {
        ("d", 0, "a"): Trace([0.9]),
        ("d", 0, "b"): Trace([0.8]),
        ("d", 0, "c"): Trace([0.8]),
    }
    table = mean_rank(results, caps={"d": 1})
    ranks = dict(zip(table.algorithms, table.means[0]))
    assert ranks == {"a": 1.0, "b": 2.5, "c": 2.5}


def test_mean_rank_averages_ties_across_cells():
    # seed 0: a three-way tie for the top, a two-way tie, then two singles,
    # ranks (2, 2, 2, 4.5, 4.5, 6, 7); seed 1: all seven tie at rank 4
    top = {"a": 0.9, "b": 0.9, "c": 0.9, "d": 0.5, "e": 0.5, "f": 0.1, "g": 0.0}
    results = {}
    for alg, v in top.items():
        results[("d", 0, alg)] = Trace([v])
        results[("d", 1, alg)] = Trace([0.3])
    table = mean_rank(results, caps={"d": 1})
    ranks = dict(zip(table.algorithms, table.means[0].tolist()))
    assert ranks == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 4.25, "e": 4.25, "f": 5.0, "g": 5.5}


def test_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, uvp; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_mean_rank_dominant_algorithm():
    results = {}
    for seed in range(3):
        results[("d", seed, "good")] = Trace([0.5, 0.9])
        results[("d", seed, "bad")] = Trace([0.1, 0.2])
    table = mean_rank(results, caps={"d": 2})
    assert table.fractions == DEFAULT_FRACTIONS[4:]  # 0.5 * 2 is exactly one unit
    good = table.algorithms.index("good")
    assert all(row[good] == 1.0 for row in table.means)


def test_mean_rank_two_datasets():
    # algorithm a wins on d1, b wins on d2, c always last
    results = {
        ("d1", 0, "a"): Trace([0.9]),
        ("d1", 0, "b"): Trace([0.5]),
        ("d1", 0, "c"): Trace([0.1]),
        ("d2", 0, "a"): Trace([0.5]),
        ("d2", 0, "b"): Trace([0.9]),
        ("d2", 0, "c"): Trace([0.1]),
    }
    table = mean_rank(results, caps={"d1": 1, "d2": 1})
    ranks = dict(zip(table.algorithms, table.means[0]))
    assert ranks == {"a": 1.5, "b": 1.5, "c": 3.0}
    # each cell's ranks sum to m(m+1)/2 per dataset, so means average to (m+1)/2
    assert sum(ranks.values()) == pytest.approx(6.0)


def test_mean_rank_requires_uniform_coverage():
    results = {
        ("d", 0, "a"): Trace([0.9]),
        ("d", 1, "a"): Trace([0.9]),
        ("d", 0, "b"): Trace([0.8]),
    }
    with pytest.raises(InvalidParams):
        mean_rank(results, caps={"d": 1})


def test_mean_rank_validation():
    results = {("d", 0, "a"): Trace([0.9]), ("d", 0, "b"): Trace([0.8])}
    with pytest.raises(InvalidParams):
        mean_rank(results, caps={})
    with pytest.raises(InvalidParams):
        mean_rank({}, caps={"d": 1})


def test_mean_rank_default_fractions_start_where_every_dataset_spent_a_unit():
    # at cap 9 the 0.1 point is 0.9 units, before any trace point, so it is left out
    results = {}
    for alg, v in (("a", 0.9), ("b", 0.5)):
        results[("d", 0, alg)] = Trace([v] * 9)
        results[("e", 0, alg)] = Trace([v] * 20)
    table = mean_rank(results, caps={"d": 9, "e": 20})
    assert table.fractions == DEFAULT_FRACTIONS[1:]
    assert table.means.tolist() == [[1.0, 2.0]] * 9
    wide = {key: trace for key, trace in results.items() if key[0] == "e"}
    assert mean_rank(wide, caps={"e": 20}).fractions == DEFAULT_FRACTIONS
    with pytest.raises(InvalidParams, match="no default fraction of budget 0.5 reaches one unit"):
        mean_rank(results, caps={"d": 0.5, "e": 20})
    with pytest.raises(InvalidParams, match="budget cap 0 for dataset 'd' must be finite and > 0"):
        mean_rank(results, caps={"d": 0, "e": 20})


class _CountedResults(Mapping):
    """A read-only results mapping that counts how often it is iterated."""

    def __init__(self, results):
        self._results = results
        self.iterations = 0

    def __getitem__(self, key):
        return self._results[key]

    def __len__(self):
        return len(self._results)

    def __iter__(self):
        self.iterations += 1
        return iter(self._results)


def test_mean_rank_reads_the_cells_without_a_rescan_per_cell():
    # 3 datasets x 20 seeds: a scan of results per cell would iterate 60 times
    results = {
        (ds, seed, alg): Trace([(seed * 7 + len(alg) + ord(ds)) % 5 / 4])
        for ds in "xyz"
        for seed in range(20)
        for alg in ("a", "bb", "ccc")
    }
    caps = {"x": 1, "y": 1, "z": 1}
    counted = _CountedResults(results)
    table = mean_rank(counted, caps)
    assert counted.iterations <= 3
    assert table.means.tobytes() == mean_rank(results, caps).means.tobytes()
