"""Instance sources: analytic landscapes, hardness generators, tabular IO."""

import math

import numpy as np
import pytest

from helpers import configs_from, gen_isolated_optimum
from uvp import (
    Configuration,
    InvalidParams,
    ParseError,
    SchemaError,
)
from uvp.analysis import epsilon_pairwise
from uvp.instances import (
    LANDSCAPE_KINDS,
    MESH_CAP,
    HardInstanceSpec,
    LandscapeOracle,
    TabularBenchmark,
    gen_hard,
    gen_smooth,
    landscape,
    landscape_eval,
    load_tabular,
    mesh_grid,
    sample_uniform,
    save_tabular,
)


# ---------------------------------------------------------------------------
# landscapes


def test_radial_decay_peaks_at_origin():
    spec = landscape("radial-decay")
    assert landscape_eval(spec, (0.0, 0.0)) == 1.0


def test_cosine_ring_values():
    spec = landscape("cosine-ring")
    # on the ring: base + (h + h*cos(0))/2 = 0.2 + 0.06
    assert landscape_eval(spec, (3.0, 0.0)) == pytest.approx(0.26)
    # outside the band the base value is flat
    assert landscape_eval(spec, (8.0, 0.0)) == pytest.approx(0.2)
    # the origin sits on the band edge where the cosine term cancels
    assert landscape_eval(spec, (0.0, 0.0)) == pytest.approx(0.2)


def test_landscape_eval_rejects_out_of_domain():
    spec = landscape("radial-decay")
    with pytest.raises(InvalidParams, match=r"coordinate 9.0 outside \["):
        landscape_eval(spec, (9.0, 0.0))
    with pytest.raises(InvalidParams, match=r"coordinate -8.1 outside \["):
        landscape_eval(spec, (0.0, -8.1))


def test_all_landscapes_stay_in_unit_interval():
    rng = np.random.default_rng(0)
    for kind in LANDSCAPE_KINDS:
        spec = landscape(kind, seed=1)
        lo = [b[0] for b in spec.domain]
        hi = [b[1] for b in spec.domain]
        pts = rng.uniform(lo, hi, size=(500, len(spec.domain)))
        vals = [landscape_eval(spec, p) for p in pts]
        assert all(0.0 <= v <= 1.0 for v in vals), kind


def test_unknown_landscape_kind():
    with pytest.raises(InvalidParams):
        landscape("volcano")


def test_cosine_ring_gradient_bound():
    # finite-difference gradient norm stays below h*pi/(2w) everywhere
    spec = landscape("cosine-ring")
    h, w = spec.params["height"], spec.params["width"]
    bound = h * math.pi / (2.0 * w)
    rng = np.random.default_rng(5)
    step = 1e-6
    for _ in range(300):
        p = rng.uniform(-7.9, 7.9, size=2)
        gx = (landscape_eval(spec, (p[0] + step, p[1])) - landscape_eval(spec, (p[0] - step, p[1]))) / (2 * step)
        gy = (landscape_eval(spec, (p[0], p[1] + step)) - landscape_eval(spec, (p[0], p[1] - step))) / (2 * step)
        assert math.hypot(gx, gy) <= bound + 1e-6


def test_radial_decay_satisfies_ratio_bound():
    # value ratios obey 1 - eps*dist with eps = 0.2 >= the decay rate 0.18
    spec = landscape("radial-decay")
    rng = np.random.default_rng(11)
    pts = rng.uniform(-8.0, 8.0, size=(10000, 2))
    vals = np.exp(-spec.params["rate"] * np.linalg.norm(pts, axis=1))
    idx = rng.integers(0, len(pts), size=(10000, 2))
    for i, j in idx:
        if i == j:
            continue
        dist = float(np.linalg.norm(pts[i] - pts[j]))
        ratio = vals[i] / vals[j]
        assert min(ratio, 1.0 / ratio) >= 1.0 - 0.2 * dist - 1e-12


def test_landscape_oracle_replicates_across_budgets():
    spec = landscape("radial-decay")
    oracle = LandscapeOracle(spec, horizon=3)
    cfg = Configuration((1.0, 1.0), 0)
    assert oracle.query(cfg, 1) == oracle.query(cfg, 2) == oracle.query(cfg, 3)
    with pytest.raises(InvalidParams, match="budget index 4 outside 1..3"):
        oracle.query(cfg, 4)


# ---------------------------------------------------------------------------
# hardness generators


def _materialize(configs, oracle):
    return TabularBenchmark(configs=configs, curves=oracle.curves)


def test_gen_hard_fc_values():
    spec = HardInstanceSpec(variant="fc", epsilon=0.5, beta=2.0, k=2,
                            n_per_cluster=5, r=0.5, horizon=3, seed=0)
    configs, oracle = gen_hard(spec)
    assert len(configs) == 20  # ceil(beta*k) = 4 clusters of 5
    curves = oracle.curves
    assert curves.shape == (20, 3)
    # below the horizon everything reads zero
    assert np.all(curves[:, :2] == 0.0)
    finals = curves[:, 2]
    assert np.count_nonzero(finals == 1.0) == 1
    assert np.count_nonzero(finals == 0.75) == 4  # 1 - eps*r = 0.75
    assert np.count_nonzero(finals == 0.0) == 15


def test_gen_hard_fc_geometry():
    spec = HardInstanceSpec(variant="fc", epsilon=0.5, beta=2.0, k=2,
                            n_per_cluster=4, r=1.0, horizon=2, seed=3)
    configs, oracle = gen_hard(spec)
    pts = np.asarray([c.coords for c in configs])
    finals = oracle.curves[:, -1]
    clusters = [list(range(c * 4, (c + 1) * 4)) for c in range(4)]
    for members in clusters:
        for a in members:
            for b in members:
                if a < b:
                    assert np.linalg.norm(pts[a] - pts[b]) == pytest.approx(1.0)
    for ca in range(4):
        for cb in range(ca + 1, 4):
            for a in clusters[ca]:
                for b in clusters[cb]:
                    assert np.linalg.norm(pts[a] - pts[b]) >= 1.0 / spec.epsilon - 1e-9
    # the single optimum and its cluster mates carry the only mass
    opt = int(np.argmax(finals))
    mates = clusters[opt // 4]
    assert finals[opt] == 1.0
    assert all(finals[m] == 0.5 for m in mates if m != opt)


def test_gen_hard_fc_satisfies_smoothness():
    spec = HardInstanceSpec(variant="fc", epsilon=0.4, beta=1.5, k=2,
                            n_per_cluster=3, r=1.0, horizon=2, seed=1)
    configs, oracle = gen_hard(spec)
    report = epsilon_pairwise(_materialize(configs, oracle))
    assert np.nanmax(report.pairwise) <= spec.epsilon + 1e-12


def test_gen_hard_ac_curves():
    T = 6
    spec = HardInstanceSpec(variant="ac", epsilon=0.5, beta=2.0, k=1,
                            n_per_cluster=3, r=1.0, horizon=T, theta_frac=0.5, seed=2)
    configs, oracle = gen_hard(spec)
    curves = oracle.curves
    finals = curves[:, -1]
    opt = int(np.argmax(finals))
    assert finals[opt] == 1.0
    # the optimal curve ramps linearly
    assert np.allclose(curves[opt], [(t + 1) / T for t in range(T)])
    # suboptimal cluster-mates ramp to 1 - eps*r
    mates = [i for i in range(len(configs))
             if i != opt and i // 3 == opt // 3]
    for m in mates:
        assert curves[m][-1] == pytest.approx(0.5)
    # non-optimal clusters plateau at floor(theta*T) = 3
    plateau = int(spec.theta_frac * T)
    others = [i for i in range(len(configs)) if i // 3 != opt // 3]
    for i in others:
        assert curves[i][plateau - 1] == curves[i][-1]  # flat after the knee
    # all curves are monotone with non-increasing increments
    inc = np.diff(curves, axis=1)
    assert np.all(inc >= -1e-15)
    assert np.all(np.diff(inc, axis=1) <= 1e-12)


def test_gen_hard_validation():
    with pytest.raises(InvalidParams):
        HardInstanceSpec(variant="xx", epsilon=0.5, beta=2.0, k=1,
                         n_per_cluster=2, r=1.0, horizon=2)
    with pytest.raises(InvalidParams):
        HardInstanceSpec(variant="fc", epsilon=0.0, beta=2.0, k=1,
                         n_per_cluster=2, r=1.0, horizon=2)
    with pytest.raises(InvalidParams):
        HardInstanceSpec(variant="fc", epsilon=0.5, beta=1.0, k=1,
                         n_per_cluster=2, r=1.0, horizon=2)
    with pytest.raises(InvalidParams):
        # eps*r above 1 would push values negative
        HardInstanceSpec(variant="fc", epsilon=0.5, beta=2.0, k=1,
                         n_per_cluster=2, r=3.0, horizon=2)


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"beta": float("inf")}, "beta \\* k = inf is not finite"),
        ({"epsilon": 1e-320}, "1 / epsilon = inf is not finite"),
        ({"beta": 1e300}, "exceeds cap"),  # m = ceil(beta * k) is finite but huge
        ({"k": 10**4}, "exceeds cap"),
        ({"n_per_cluster": 10**4, "horizon": 10**3}, "exceeds cap"),
    ],
)
def test_gen_hard_refuses_what_it_cannot_build(knobs, message):
    # checked in the spec, so no draw and no allocation happens
    spec = {"variant": "fc", "epsilon": 0.5, "beta": 2.0, "k": 2, "n_per_cluster": 5,
            "r": 1.0, "horizon": 3, **knobs}
    with pytest.raises(InvalidParams, match=message):
        HardInstanceSpec(**spec)


def test_gen_hard_deterministic():
    spec = HardInstanceSpec(variant="fc", epsilon=0.5, beta=2.0, k=2,
                            n_per_cluster=4, r=0.5, horizon=3, seed=9)
    a_cfg, a_orc = gen_hard(spec)
    b_cfg, b_orc = gen_hard(spec)
    assert [c.coords for c in a_cfg] == [c.coords for c in b_cfg]
    assert np.array_equal(a_orc.curves, b_orc.curves)


def test_gen_smooth_contract():
    for seed in range(3):
        configs, oracle = gen_smooth(n=12, d=2, horizon=4, epsilon=0.3, seed=seed)
        curves = oracle.curves
        assert curves.shape == (12, 4)
        assert np.all((curves >= 0.0) & (curves <= 1.0))
        inc = np.diff(curves, axis=1)
        assert np.all(inc >= -1e-15)  # monotone
        assert np.all(np.diff(inc, axis=1) <= 1e-12)  # concave
        report = epsilon_pairwise(TabularBenchmark(configs=configs, curves=curves))
        assert np.nanmax(report.pairwise) <= 0.3 + 1e-12


def test_gen_smooth_redraws_coincident_points(monkeypatch):
    # the first draw of the points repeats point 0 as point 1, so gen_smooth
    # must throw it away and keep the generator's second draw
    real = np.random.default_rng
    draws = []

    class Repeating:
        def __init__(self, seed):
            self._rng = real(seed)

        def uniform(self, low, high, size=None):
            out = self._rng.uniform(low, high, size)
            if size == (12, 2):
                draws.append(out.copy())
                if len(draws) == 1:
                    out[1] = out[0]
            return out

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Repeating)
    configs, oracle = gen_smooth(n=12, d=2, horizon=4, epsilon=0.3, seed=0)
    monkeypatch.undo()
    assert len(draws) == 2
    assert [c.coords for c in configs] == [tuple(p) for p in draws[1].tolist()]
    report = epsilon_pairwise(TabularBenchmark(configs=configs, curves=oracle.curves))
    assert report.skipped == ()
    assert np.nanmax(report.pairwise) <= 0.3 + 1e-12


def test_gen_isolated_optimum_layout():
    configs, oracle = gen_isolated_optimum(spacing=1.0, ring_radius=0.5, epsilon=0.5)
    assert len(configs) == 15
    vals = [oracle.query(c, 1) for c in configs]
    assert vals[14] == 1.0 and configs[14].coords == (0.0, 0.0)
    assert configs[0].coords == (1.0, 0.0) and vals[0] == 0.5
    assert configs[7].coords == (2.0, 0.0) and vals[7] == 0.25
    assert all(v == 0.5 for v in vals[:7])
    assert all(v == 0.25 for v in vals[7:14])
    pts = np.asarray([c.coords for c in configs])
    assert np.allclose(np.linalg.norm(pts[1:7] - pts[0], axis=1), 0.5)
    assert np.allclose(np.linalg.norm(pts[8:14] - pts[7], axis=1), 0.5)


def test_gen_isolated_optimum_validation():
    with pytest.raises(InvalidParams):
        gen_isolated_optimum(spacing=1.0, ring_radius=0.6, epsilon=0.5)
    with pytest.raises(InvalidParams):
        gen_isolated_optimum(spacing=1.0, ring_radius=0.5, epsilon=1.0)
    with pytest.raises(InvalidParams):
        gen_isolated_optimum(spacing=1.0, ring_radius=0.5, epsilon=0.9)


def test_generators_reject_nan_knobs_and_negative_seeds():
    # a NaN must fail every range check, and a seed must be valid for numpy's rng
    nan = math.nan
    hard = dict(variant="fc", epsilon=0.5, beta=2.0, k=1, n_per_cluster=2, r=1.0, horizon=2)
    for bad in ({"epsilon": nan}, {"beta": nan}, {"r": nan}, {"seed": -1}):
        with pytest.raises(InvalidParams):
            HardInstanceSpec(**{**hard, **bad})
    for call in (
        lambda: gen_smooth(n=4, d=2, horizon=2, epsilon=nan, seed=0),
        lambda: gen_smooth(n=4, d=2, horizon=2, epsilon=0.3, seed=-1),
        lambda: gen_isolated_optimum(spacing=nan),
        lambda: gen_isolated_optimum(ring_radius=nan),
        lambda: gen_isolated_optimum(epsilon=nan),
        lambda: landscape("radial-decay", seed=-1),
        lambda: sample_uniform([(0.0, 1.0)], 3, seed=-1),
    ):
        with pytest.raises(InvalidParams):
            call()


# ---------------------------------------------------------------------------
# tabular IO


def _write(tmp_path, text):
    path = tmp_path / "bench.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_tabular_round_trip(tmp_path):
    configs = configs_from([[0.1, 0.2], [0.9, 0.4], [0.5, 1.0]])
    curves = np.asarray([[0.2, 0.5], [0.1, 0.9], [0.3, 0.35]])
    path = str(tmp_path / "rt.csv")
    save_tabular(path, configs, curves)
    bench = load_tabular(path)
    assert bench.n == 3 and bench.horizon == 2
    assert np.allclose(bench.curves, curves, atol=1e-12)
    # embeddings are min-max normalized per column
    pts = np.asarray([c.coords for c in bench.configs])
    assert pts.min(axis=0) == pytest.approx([0.0, 0.0])
    assert pts.max(axis=0) == pytest.approx([1.0, 1.0])


def test_load_tabular_clamps_tolerant_value(tmp_path):
    path = _write(tmp_path, "id,x0,b,value\n0,0.0,1,1.0000000001\n1,1.0,1,0.5\n")
    bench = load_tabular(path)
    assert bench.curves[0, 0] == 1.0


def test_load_tabular_rejects_far_value(tmp_path):
    path = _write(tmp_path, "id,x0,b,value\n0,0.0,1,1.1\n")
    with pytest.raises(ParseError):
        load_tabular(path)


def test_load_tabular_rejects_nan_value(tmp_path):
    path = _write(tmp_path, "id,x0,b,value\n0,0.0,1,0.5\n1,1.0,1,nan\n")
    with pytest.raises(ParseError, match=r"row 3, column 4: value nan outside \[0, 1\]"):
        load_tabular(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_tabular_rejects_non_finite_coordinate(tmp_path, bad):
    # the bad cell belongs to id 2 and is the only row of that id
    text = f"id,x0,x1,b,value\n0,0.0,0.0,1,0.5\n1,1.0,0.0,1,0.6\n2,0.5,{bad},1,0.7\n"
    with pytest.raises(ParseError, match=f"row 4, column 3: coordinate {bad} is not finite"):
        load_tabular(_write(tmp_path, text))


def test_load_tabular_rejects_missing_budget(tmp_path):
    path = _write(tmp_path, "id,x0,b,value\n0,0.0,1,0.5\n0,0.0,3,0.6\n")
    with pytest.raises(SchemaError):
        load_tabular(path)


def test_load_tabular_rejects_duplicate_budget(tmp_path):
    path = _write(tmp_path, "id,x0,b,value\n0,0.0,1,0.5\n0,0.0,1,0.6\n")
    with pytest.raises(SchemaError):
        load_tabular(path)


def test_load_tabular_rejects_gapped_ids(tmp_path):
    path = _write(tmp_path, "id,x0,b,value\n0,0.0,1,0.5\n2,1.0,1,0.6\n")
    with pytest.raises(SchemaError):
        load_tabular(path)


def test_load_tabular_reports_cell_position(tmp_path):
    path = _write(tmp_path, "id,x0,b,value\n0,0.0,1,0.5\n1,zap,1,0.6\n")
    with pytest.raises(ParseError, match="row 3"):
        load_tabular(path)


def test_load_tabular_log_scaling(tmp_path):
    text = (
        "id,x0,b,value\n"
        "scale,log\n"
        "0,1.0,1,0.1\n"
        "1,10.0,1,0.2\n"
        "2,100.0,1,0.3\n"
    )
    bench = load_tabular(_write(tmp_path, text))
    xs = [c.coords[0] for c in bench.configs]
    assert xs == pytest.approx([0.0, 0.5, 1.0])


def test_load_tabular_log_scale_rejects_nonpositive(tmp_path):
    text = "id,x0,b,value\nscale,log\n0,0.0,1,0.1\n1,10.0,1,0.2\n"
    with pytest.raises(ParseError):
        load_tabular(_write(tmp_path, text))


def test_load_tabular_wraps_to_monotone(tmp_path):
    path = _write(tmp_path, "id,x0,b,value\n0,0.0,1,0.5\n0,0.0,2,0.3\n1,1.0,1,0.1\n1,1.0,2,0.2\n")
    bench = load_tabular(path)
    assert bench.curves[0].tolist() == [0.5, 0.5]
    assert bench.curves[1].tolist() == [0.1, 0.2]


def test_save_tabular_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(8)
    configs = configs_from(rng.uniform(size=(5, 3)))
    curves = np.sort(rng.uniform(size=(5, 4)), axis=1)
    path = str(tmp_path / "exact.csv")
    save_tabular(path, configs, curves)
    bench = load_tabular(path)
    oracle = bench.oracle()
    for cfg in bench.configs:
        for b in range(1, 5):
            assert oracle.query(cfg, b) == pytest.approx(curves[cfg.id, b - 1], abs=1e-12)


# ---------------------------------------------------------------------------
# discretization and sampling


def test_mesh_grid_line():
    pts = [c.coords for c in mesh_grid([(0.0, 1.0)], 3)]
    assert pts == [(0.0,), (0.5,), (1.0,)]


def test_mesh_grid_corners():
    pts = [c.coords for c in mesh_grid([(0.0, 1.0), (0.0, 1.0)], 2)]
    assert pts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]  # row-major


def test_mesh_grid_validation():
    with pytest.raises(InvalidParams):
        mesh_grid([(0.0, 1.0)], 1)
    with pytest.raises(InvalidParams, match="mesh of 1030301 points exceeds cap"):
        mesh_grid([(0.0, 1.0)] * 3, 101)  # 1,030,301 points, refused before allocating


def test_sample_uniform_refuses_more_points_than_the_mesh_cap():
    with pytest.raises(InvalidParams, match="sample of 1000001 points exceeds cap 1000000"):
        sample_uniform([(0.0, 1.0)], MESH_CAP + 1, seed=0)


def test_sample_uniform_degenerate_bounds():
    pts = sample_uniform([(2.0, 2.0), (3.0, 3.0)], 4, seed=0)
    assert all(c.coords == (2.0, 3.0) for c in pts)


def test_sample_uniform_deterministic():
    a = sample_uniform([(-8.0, 8.0)] * 2, 100, seed=13)
    b = sample_uniform([(-8.0, 8.0)] * 2, 100, seed=13)
    assert [c.coords for c in a] == [c.coords for c in b]


def test_sample_uniform_mean_within_three_sigma():
    pts = np.asarray([c.coords for c in sample_uniform([(-8.0, 8.0)] * 2, 10000, seed=1)])
    sigma = 16.0 / math.sqrt(12.0) / 100.0  # std of the mean of 10^4 uniforms
    assert np.all(np.abs(pts.mean(axis=0)) <= 3.0 * sigma)
    assert pts.min() >= -8.0 and pts.max() <= 8.0
