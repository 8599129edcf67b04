"""Diagnostics: smoothness estimation, brute-force references, rank summaries."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import configs_from, curve_oracle, line, planar
from uvp import (
    DegenerateEmbedding,
    InvalidParams,
    MissingTrace,
    TooLarge,
)
from uvp.analysis import (
    EpsilonReport,
    brute_force_k_center,
    brute_force_opt,
    epsilon_pairwise,
    epsilon_percentiles,
    incumbent_at,
    lipschitz_check,
    mean_rank,
)
from uvp.clustering import greedy_radius, k_center
from uvp.instances import (
    HardInstanceSpec,
    TabularBenchmark,
    gen_hard,
    gen_smooth,
    landscape,
    landscape_eval,
    mesh_grid,
)


def _bench(points, curves):
    return TabularBenchmark(
        configs=configs_from(points),
        curves=np.asarray(curves, dtype=float),
    )


# ---------------------------------------------------------------------------
# epsilon_pairwise


def test_epsilon_pairwise_identical_curves():
    bench = _bench([[0.0], [1.0]], [[0.4, 0.6], [0.4, 0.6]])
    report = epsilon_pairwise(bench)
    assert report.pairwise[0, 1] == 0.0
    assert report.pairwise[1, 0] == 0.0
    assert report.skipped == ()


def test_epsilon_pairwise_hand_value():
    # min_b A_1/A_0 = 0.5 at distance 1 -> eps = (1 - 0.5) / 1
    bench = _bench([[0.0], [1.0]], [[1.0], [0.5]])
    report = epsilon_pairwise(bench)
    assert report.pairwise[1, 0] == pytest.approx(0.5)
    # the other orientation has ratio 2.0, clamped at 0
    assert report.pairwise[0, 1] == 0.0


def test_epsilon_pairwise_zero_conventions():
    # 0/0 counts as ratio 1, positive/0 as +inf; both leave eps at 0
    bench = _bench([[0.0], [1.0]], [[0.0], [0.0]])
    assert epsilon_pairwise(bench).pairwise[0, 1] == 0.0
    bench = _bench([[0.0], [1.0]], [[0.5], [0.0]])
    report = epsilon_pairwise(bench)
    assert report.pairwise[0, 1] == 0.0  # ratio +inf never binds
    assert report.pairwise[1, 0] == pytest.approx(1.0)  # 0/0.5 = 0 -> (1-0)/1


def test_epsilon_pairwise_matches_brute_force():
    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(6, 2))
    curves = np.sort(rng.uniform(0.05, 1.0, size=(6, 3)), axis=1)
    report = epsilon_pairwise(_bench(pts, curves))
    n = len(pts)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dist = float(np.linalg.norm(pts[i] - pts[j]))
            worst = min(curves[i][b] / curves[j][b] for b in range(3))
            expected = max(0.0, (1.0 - worst) / dist)
            assert report.pairwise[i, j] == pytest.approx(expected, abs=1e-12)


def test_epsilon_pairwise_skips_duplicate_embeddings():
    bench = _bench([[0.5], [0.5], [1.0]], [[0.2], [0.9], [0.4]])
    report = epsilon_pairwise(bench)
    assert np.isnan(report.pairwise[0, 1]) and np.isnan(report.pairwise[1, 0])
    assert (0, 1) in report.skipped
    assert np.isfinite(report.pairwise[0, 2])


def test_epsilon_pairwise_strict_mode():
    bench = _bench([[0.5], [0.5]], [[0.2], [0.9]])
    with pytest.raises(DegenerateEmbedding):
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
    report = EpsilonReport(
        pairwise=np.full((3, 3), c) - c * np.eye(3),
        skipped=(),
        configs=configs_from(pts),
    )
    out = epsilon_percentiles(report, k=1)
    # single greedy center is the lowest id at x = 0, covering radius 3
    assert out.r == pytest.approx(3.0)
    assert all(v == pytest.approx(c * 3.0) for v in out.percentiles.values())


def test_epsilon_percentiles_from_estimated_matrix():
    pts = [[0.0], [4.0], [9.0]]
    bench = _bench(pts, [[1.0], [0.5], [0.5]])
    report = epsilon_pairwise(bench)
    out = epsilon_percentiles(report, k=1, alphas=(50, 100))
    radius = greedy_radius(k_center(1, [], bench.configs), bench.configs)
    assert out.r == pytest.approx(radius)
    per_pair = []
    for i, j in itertools.combinations(range(3), 2):
        per_pair.append(max(report.pairwise[i, j], report.pairwise[j, i]))
    per_pair.sort()
    # nearest-rank: alpha = 50 over 3 scores picks index ceil(1.5) - 1 = 1
    assert out.percentiles[50.0] == pytest.approx(per_pair[1] * radius)
    assert out.percentiles[100.0] == pytest.approx(per_pair[2] * radius)


def test_epsilon_percentiles_nearest_rank_two_values():
    # pair scores {0, 1} with radius 1: alpha = 90 lands on the larger value
    pts = np.asarray([[0.0], [1.0], [2.0]])
    report = EpsilonReport(
        pairwise=np.asarray([
            [0.0, 1.0, np.nan],
            [0.3, 0.0, 0.0],
            [np.nan, 0.0, 0.0],
        ]),
        skipped=((0, 2),),
        configs=configs_from(pts),
    )
    out = epsilon_percentiles(report, k=2, alphas=(90,))
    # greedy picks ids 0 then 2; the middle point sits at distance 1
    assert out.r == pytest.approx(1.0)
    assert out.percentiles[90.0] == pytest.approx(1.0)


def test_epsilon_percentiles_alpha_validation():
    bench = _bench([[0.0], [1.0]], [[1.0], [0.5]])
    report = epsilon_pairwise(bench)
    with pytest.raises(InvalidParams):
        epsilon_percentiles(report, k=1, alphas=(0,))
    with pytest.raises(InvalidParams):
        epsilon_percentiles(report, k=1, alphas=(101,))


def test_epsilon_percentiles_all_pairs_skipped():
    report = EpsilonReport(
        pairwise=np.asarray([[0.0, np.nan], [np.nan, 0.0]]),
        skipped=((0, 1),),
        configs=configs_from([[0.5], [0.5]]),
    )
    with pytest.raises(InvalidParams):
        epsilon_percentiles(report, k=1)


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
    with pytest.raises(TooLarge):
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


def test_brute_force_opt_constant_ties_to_lowest_id():
    configs = line([0.0, 1.0, 2.0])
    oracle = curve_oracle([[0.5, 0.5]] * 3)
    best_id, best_val = brute_force_opt(configs, oracle)
    assert (best_id, best_val) == (0, 0.5)


def test_brute_force_opt_finds_planted_optimum():
    spec = HardInstanceSpec(variant="fc", epsilon=0.5, beta=2.0, k=2,
                            n_per_cluster=5, r=0.5, horizon=3, seed=0)
    configs, oracle = gen_hard(spec)
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
# trace utilities and rank aggregation


def test_incumbent_at_carries_forward():
    trace = ((1, 0.2), (3, 0.5), (6, 0.9))
    assert incumbent_at(trace, 1) == 0.2
    assert incumbent_at(trace, 2) == 0.2
    assert incumbent_at(trace, 5) == 0.5
    assert incumbent_at(trace, 6) == 0.9
    assert incumbent_at(trace, 100) == 0.9


def test_incumbent_at_before_first_spend():
    with pytest.raises(MissingTrace):
        incumbent_at(((2, 0.4),), 1)
    with pytest.raises(MissingTrace):
        incumbent_at((), 5)


def test_mean_rank_tie_handling():
    # values (0.9, 0.8, 0.8) rank as (1, 2.5, 2.5)
    results = {
        ("d", 0, "a"): ((1, 0.9),),
        ("d", 0, "b"): ((1, 0.8),),
        ("d", 0, "c"): ((1, 0.8),),
    }
    table = mean_rank(results, caps={"d": 1}, fractions=(1.0,))
    ranks = dict(zip(table.algorithms, table.means[0]))
    assert ranks == {"a": 1.0, "b": 2.5, "c": 2.5}


def test_mean_rank_averages_ties_across_cells():
    # seed 0: a three-way tie for the top, a two-way tie, then two singles,
    # ranks (2, 2, 2, 4.5, 4.5, 6, 7); seed 1: all seven tie at rank 4
    top = {"a": 0.9, "b": 0.9, "c": 0.9, "d": 0.5, "e": 0.5, "f": 0.1, "g": 0.0}
    results = {}
    for alg, v in top.items():
        results[("d", 0, alg)] = ((1, v),)
        results[("d", 1, alg)] = ((1, 0.3),)
    table = mean_rank(results, caps={"d": 1}, fractions=(1.0,))
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
        results[("d", seed, "good")] = ((1, 0.5), (2, 0.9))
        results[("d", seed, "bad")] = ((1, 0.1), (2, 0.2))
    table = mean_rank(results, caps={"d": 2}, fractions=(0.5, 1.0))
    good = table.algorithms.index("good")
    assert all(row[good] == 1.0 for row in table.means)


def test_mean_rank_two_datasets():
    # algorithm a wins on d1, b wins on d2, c always last
    results = {
        ("d1", 0, "a"): ((1, 0.9),),
        ("d1", 0, "b"): ((1, 0.5),),
        ("d1", 0, "c"): ((1, 0.1),),
        ("d2", 0, "a"): ((1, 0.5),),
        ("d2", 0, "b"): ((1, 0.9),),
        ("d2", 0, "c"): ((1, 0.1),),
    }
    table = mean_rank(results, caps={"d1": 1, "d2": 1}, fractions=(1.0,))
    ranks = dict(zip(table.algorithms, table.means[0]))
    assert ranks == {"a": 1.5, "b": 1.5, "c": 3.0}
    # each cell's ranks sum to m(m+1)/2 per dataset, so means average to (m+1)/2
    assert sum(ranks.values()) == pytest.approx(6.0)


def test_mean_rank_requires_uniform_coverage():
    results = {
        ("d", 0, "a"): ((1, 0.9),),
        ("d", 1, "a"): ((1, 0.9),),
        ("d", 0, "b"): ((1, 0.8),),
    }
    with pytest.raises(InvalidParams):
        mean_rank(results, caps={"d": 1})


def test_mean_rank_validation():
    results = {("d", 0, "a"): ((1, 0.9),), ("d", 0, "b"): ((1, 0.8),)}
    with pytest.raises(InvalidParams):
        mean_rank(results, caps={})
    with pytest.raises(InvalidParams):
        mean_rank(results, caps={"d": 1}, fractions=(0.0,))
    with pytest.raises(InvalidParams):
        mean_rank(results, caps={"d": 1}, fractions=(1.2,))
    with pytest.raises(InvalidParams):
        mean_rank({}, caps={"d": 1})


def test_mean_rank_missing_trace_point():
    # a trace that starts after the first fraction cap cannot be ranked
    results = {
        ("d", 0, "a"): ((10, 0.9),),
        ("d", 0, "b"): ((1, 0.8),),
    }
    with pytest.raises(MissingTrace):
        mean_rank(results, caps={"d": 10}, fractions=(0.1, 1.0))
