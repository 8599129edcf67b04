"""Release gate: twelve executable checks behind the shipped guarantees.

Each check prints one PASS/FAIL line before asserting, so a full run reads
as a checklist. Tolerances are pinned in place; limits on this process's CPU
time (``time.process_time``, so host load cannot fail a correct run) are
asserted where the check is bulk numerical work.
"""

import csv
import math
import os
import time
from functools import lru_cache

import numpy as np
import pytest

from helpers import (
    brute_force_k_center,
    brute_force_opt,
    configs_from,
    gen_isolated_optimum,
    lipschitz_check,
    random_concave_curve,
)
from uvp import BudgetLedger, Run
from uvp.analysis import epsilon_pairwise, mean_rank
from uvp.cli import entry
from uvp.clustering import Cover, e_k_center, k_center
from uvp.core import Trace
from uvp.instances import (
    LandscapeOracle,
    TabularBenchmark,
    gen_hard,
    gen_smooth,
    landscape,
    sample_uniform,
    save_tabular,
)
from uvp.solvers import (
    SolverParams,
    ada_cent,
    e_ada_cent,
    e_full_cent,
    full_cent,
    hyperband,
    pred,
    random_search,
    successive_halving,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")


@lru_cache(maxsize=1)
def _ratio_suite():
    """100 smooth instances shared by the three approximation-ratio checks."""
    rng = np.random.default_rng(35)
    suite = []
    for i in range(100):
        n = int(rng.integers(5, 13))
        horizon = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.1, 0.45))
        configs, oracle = gen_smooth(n=n, d=2, horizon=horizon, epsilon=eps, seed=1000 + i)
        bench = TabularBenchmark(configs=configs, curves=oracle.curves)
        eps_hat = max(float(np.nanmax(epsilon_pairwise(bench)[0])), 1e-9)
        r_star = brute_force_k_center(configs, k).optimal_radius
        _, opt = brute_force_opt(configs, oracle)
        bound = (1.0 - 2.0 * eps_hat * r_star) * opt - 1e-12
        suite.append((configs, oracle, k, horizon, eps_hat, bound))
    return suite


def _check_ratio(num, name, solver, limit_s, tie_p_to_k=False, **extra):
    start = time.process_time()
    worst = math.inf
    for configs, oracle, k, horizon, eps_hat, bound in _ratio_suite():
        budget = k * horizon
        if tie_p_to_k:
            extra["p"] = k  # one selection round of k centers fits the budget
        params = SolverParams(epsilon=eps_hat, **extra)
        out = solver(params, configs, oracle, BudgetLedger(budget))
        worst = min(worst, out.best_value - bound)
    elapsed = time.process_time() - start
    ok = worst >= 0.0 and elapsed < limit_s
    _report(num, name, ok, f"min slack {worst:.3e}, {elapsed:.2f}s over 100 instances")
    assert worst >= 0.0
    assert elapsed < limit_s


def test_criterion_01_predictor_optimism():
    rng = np.random.default_rng(41)
    start = time.process_time()
    worst = math.inf
    checked = 0
    for _ in range(1000):
        horizon = int(rng.integers(2, 13))
        curve = random_concave_curve(rng, horizon)
        final = curve[-1]
        for cut in range(2, horizon + 1):
            worst = min(worst, pred(curve[:cut], horizon) - final)
            checked += 1
    elapsed = time.process_time() - start
    ok = worst >= -1e-12 and elapsed < 5.0
    _report(1, "predictor optimism", ok,
            f"{checked} prefixes, min slack {worst:.3e}, {elapsed:.2f}s")
    assert worst >= -1e-12
    assert elapsed < 5.0


def test_criterion_02_greedy_two_approximation():
    rng = np.random.default_rng(42)
    start = time.process_time()
    worst = -math.inf
    for _ in range(200):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        configs = configs_from(rng.uniform(size=(n, 2)))
        report = brute_force_k_center(configs, min(k, n))
        worst = max(worst, report.greedy_radius - 2.0 * report.optimal_radius)
    elapsed = time.process_time() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(2, "greedy selection within twice optimal", ok,
            f"max excess {worst:.3e}, {elapsed:.2f}s over 200 instances")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_03_coverage_solver_ratio_floor():
    _check_ratio(3, "coverage solver ratio floor", full_cent, 30.0)


def test_criterion_04_value_aware_solver_ratio_floor():
    _check_ratio(4, "value-aware solver ratio floor", e_full_cent, 30.0)


def test_criterion_05_adaptive_solver_ratio_floor():
    _check_ratio(5, "adaptive solver ratio floor", ada_cent, 30.0,
                 tie_p_to_k=True, predictor="two-point")


def test_adaptive_ratio_floor_at_every_affordable_p():
    # the floor assumes p <= floor(B / T); at B = k * T that is every p up to k
    start = time.process_time()
    worst = math.inf
    delta = 0.5
    cases = 0
    for configs, oracle, k, horizon, eps_hat, bound in _ratio_suite():
        assert math.floor(delta * horizon) >= 1  # e-ada-cent explores at least one level
        for solver in (ada_cent, e_ada_cent):
            for predictor in ("two-point", "tail-fit"):
                for p in range(1, k + 1):
                    params = SolverParams(p=p, epsilon=eps_hat, delta=delta, predictor=predictor)
                    out = solver(params, configs, oracle, BudgetLedger(k * horizon))
                    worst = min(worst, out.best_value - bound)
                    cases += 1
    elapsed = time.process_time() - start
    ok = worst >= 0.0 and elapsed < 30.0
    _report(5, "adaptive ratio floor at every p <= B/T", ok,
            f"min slack {worst:.3e}, {elapsed:.2f}s over {cases} solves")
    assert worst >= 0.0
    assert elapsed < 30.0


def test_criterion_06_budget_conservation():
    rng = np.random.default_rng(6)
    algorithms = ("fc", "efc", "ac", "eac", "random", "sha", "hyperband")
    exact_misses = []
    overspends = []
    for trial in range(500):
        alg = algorithms[int(rng.integers(len(algorithms)))]
        horizon = int(rng.integers(2, 5)) if alg == "eac" else int(rng.integers(1, 5))
        n = int(rng.integers(3, 9))
        eps = float(rng.uniform(0.2, 0.5))
        configs, oracle = gen_smooth(n=n, d=2, horizon=horizon, epsilon=eps, seed=trial)
        if alg in ("fc", "efc", "random"):
            budget = int(rng.integers(1, n + 1)) * horizon + int(rng.integers(horizon))
        else:
            budget = int(rng.integers(horizon, 4 * horizon + 1))
        ledger = BudgetLedger(budget)
        if alg in ("fc", "efc", "ac", "eac"):
            p = int(rng.integers(1, 4))
            delta = float(rng.uniform(1.0 / horizon, 0.95)) if alg == "eac" else 0.5
            params = SolverParams(p=p, epsilon=eps, delta=delta)
        else:
            params = SolverParams(eta=2, iterations=2, seed=trial)
        fn = {"fc": full_cent, "efc": e_full_cent, "ac": ada_cent, "eac": e_ada_cent,
              "random": random_search, "sha": successive_halving, "hyperband": hyperband}[alg]
        out = fn(params, configs, oracle, ledger)
        if ledger.spent > budget:
            overspends.append((trial, alg))
        if alg in ("fc", "efc") and ledger.spent != (budget // horizon) * horizon:
            exact_misses.append((trial, alg))
        assert sum(len(h) for h in out.histories.values()) == ledger.spent
    ok = not overspends and not exact_misses
    _report(6, "budget conservation", ok,
            f"500 tuples, overspends {overspends[:3]}, exact misses {exact_misses[:3]}")
    assert not overspends
    assert not exact_misses


def test_criterion_07_isolated_optimum_selection():
    # The value-aware distance can only use values already observed. From no
    # observations greedy selection is value-blind on its first two picks
    # (lowest id, then eta = 1 for the single probed center), so both solvers
    # reach 0.5 there, as test_isolated_optimum_greedy_solvers_match pins.
    # The pick is checked instead where the method makes it: after probes in
    # both rings, id 3 (first-ring satellite facing the origin, worth 0.5) and
    # id 7 (second-ring center, worth 0.25).
    configs, oracle = gen_isolated_optimum(spacing=1.0, ring_radius=0.5, epsilon=0.5)
    assert math.sqrt(1.25) + 0.5 < 2.0  # the geometry premise for the pick
    seeds = [3, 7]
    run = Run(oracle, BudgetLedger(3))
    ledger = run.ledger
    run.extend_all([configs[s] for s in seeds], 1)
    # seed 7 is worth half the best probed value: eta = 2 rules out every point
    # within 1 of it, which leaves the origin (0.866 from id 3) farthest
    values = {s: run.histories[s].last for s in seeds}
    assert max(values.values()) / values[7] == 2.0
    # the plain pick is id 5 on the first ring, 0.966 from id 3
    [plain_pick] = k_center(1, Cover(configs, seeds))
    [aware_pick] = e_k_center(1, Cover(configs, seeds), 1, 0.5, run)
    plain = oracle.query(configs[plain_pick], 1)
    aware = run.histories[aware_pick].last
    ok = plain == 0.5 and aware == 1.0 and ledger.spent == 3
    _report(7, "isolated optimum selection", ok,
            f"plain {plain}, value-aware {aware} (want 0.5 / 1.0) after probes {seeds}")
    assert plain == 0.5
    assert aware == 1.0
    assert ledger.spent == 3


def test_criterion_08_landscape_comparison():
    start = time.process_time()
    rows = []
    ok = True
    for kind in ("radial-decay", "off-centre-peak", "cosine-ring"):
        spec = landscape(kind)  # surfaces are fixed for these kinds
        X = sample_uniform(spec.domain, 10000, seed=0)  # documented seed 0
        oracle = LandscapeOracle(spec, horizon=1)
        params = SolverParams(epsilon=0.2)
        fc = full_cent(params, X, oracle, BudgetLedger(10)).best_value
        efc = e_full_cent(params, X, oracle, BudgetLedger(10)).best_value
        rows.append(f"{kind} {efc:.4f}>={fc:.4f}")
        ok = ok and efc >= fc
    elapsed = time.process_time() - start
    ok = ok and elapsed < 10.0
    _report(8, "value-aware at least matches coverage on landscapes", ok,
            f"{'; '.join(rows)}, {elapsed:.2f}s")
    assert ok


def test_criterion_09_random_search_ceiling():
    start = time.process_time()
    n, beta, eps_r = 50, 2.0, 0.5
    values = []
    for trial in range(2000):
        # decorrelate instance placement from the algorithm's draws
        configs, oracle = gen_hard(variant="fc", epsilon=0.5, beta=beta, k=2,
                                   n_per_cluster=n, r=1.0, horizon=3,
                                   seed=100000 + trial)
        out = random_search(SolverParams(seed=trial), configs, oracle, BudgetLedger(6))
        values.append(out.best_value)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    ceiling = (1.0 - eps_r) / (beta - 1.0) + 1.0 / (n * (beta - 1.0)) + 3.0 * se
    elapsed = time.process_time() - start
    ok = mean <= ceiling and elapsed < 20.0
    _report(9, "random search hardness ceiling", ok,
            f"mean {mean:.4f} <= {ceiling:.4f} (se {se:.4f}), {elapsed:.2f}s")
    assert mean <= ceiling
    assert elapsed < 20.0


def _reference_pairwise(points, curves):
    """Independent double-loop recomputation of the pairwise estimate."""
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dist = math.dist(points[i], points[j])
            if dist == 0.0:
                out[i, j] = math.nan
                continue
            floor = math.inf
            for b in range(curves.shape[1]):
                ai, aj = curves[i][b], curves[j][b]
                if aj == 0.0:
                    ratio = 1.0 if ai == 0.0 else math.inf
                else:
                    ratio = ai / aj
                floor = min(floor, ratio)
            out[i, j] = max(0.0, (1.0 - floor) / dist)
    return out


def test_criterion_10_estimator_matches_reference():
    rng = np.random.default_rng(10)
    max_err = 0.0
    max_tightness_gap = 0.0
    for _ in range(20):
        points = rng.uniform(size=(50, 3))
        curves = np.sort(rng.uniform(0.05, 1.0, size=(50, 3)), axis=1)
        bench = TabularBenchmark(configs=configs_from(points), curves=curves)
        got, _ = epsilon_pairwise(bench)
        want = _reference_pairwise(points, curves)
        np.fill_diagonal(got, 0.0)
        np.fill_diagonal(want, 0.0)
        max_err = max(max_err, float(np.nanmax(np.abs(got - want))))
        # where the estimate is not clamped at zero the bound must be tight
        for i in range(50):
            for j in range(50):
                if i == j or not got[i, j] > 0.0:
                    continue
                dist = math.dist(points[i], points[j])
                floor = min(curves[i][b] / curves[j][b] for b in range(3))
                gap = abs(floor - (1.0 - got[i, j] * dist))
                max_tightness_gap = max(max_tightness_gap, gap)
    ok = max_err <= 1e-12 and max_tightness_gap <= 1e-12
    _report(10, "estimator equals reference and is tight", ok,
            f"max entry error {max_err:.3e}, max tightness gap {max_tightness_gap:.3e}")
    assert max_err <= 1e-12
    assert max_tightness_gap <= 1e-12


def test_criterion_11_gap_consequence():
    rng = np.random.default_rng(11)
    worst = -math.inf
    for _ in range(20):
        points = rng.uniform(size=(30, 2))
        curves = np.sort(rng.uniform(0.05, 1.0, size=(30, 4)), axis=1)
        bench = TabularBenchmark(configs=configs_from(points), curves=curves)
        eps = float(np.nanmax(epsilon_pairwise(bench)[0]))
        worst = max(worst, lipschitz_check(bench, eps))
    ok = worst <= 1e-12
    _report(11, "pairwise gap consequence", ok, f"max violation {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_12_harness_determinism(tmp_path):
    rng = np.random.default_rng(12)
    pts = rng.uniform(size=(12, 2))
    curves = np.sort(rng.uniform(0.1, 1.0, size=(12, 2)), axis=1)
    data = str(tmp_path / "toy.csv")
    save_tabular(data, configs_from(pts), curves)

    args = ["bench", "--data", data, "--algos", "random,sha", "--seeds", "3",
            "--budget", "20"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert entry(args + ["--out", str(out)]) == 0
        blob = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                blob[name] = fh.read()
        outs.append(blob)
    identical = outs[0] == outs[1]

    with open(tmp_path / "a" / "mean_rank.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    sums = {}
    for frac, _, mean in rows:
        sums[frac] = sums.get(frac, 0.0) + float(mean)
    rank_sums_ok = all(abs(s - 3.0) < 1e-12 for s in sums.values())  # m = 2

    results = {
        ("d1", 0, "a"): Trace([0.9]), ("d1", 0, "b"): Trace([0.5]), ("d1", 0, "c"): Trace([0.1]),
        ("d2", 0, "a"): Trace([0.5]), ("d2", 0, "b"): Trace([0.9]), ("d2", 0, "c"): Trace([0.1]),
    }
    table = mean_rank(results, caps={"d1": 1, "d2": 1})
    hand = dict(zip(table.algorithms, table.means[0]))
    hand_ok = hand == {"a": 1.5, "b": 1.5, "c": 3.0}

    ok = identical and rank_sums_ok and hand_ok
    _report(12, "harness determinism and rank arithmetic", ok,
            f"byte-identical {identical}, rank sums {rank_sums_ok}, hand fixture {hand_ok}")
    assert identical
    assert rank_sums_ok
    assert hand_ok
