"""End-to-end command line checks driven through entry()."""

import csv
import os

import numpy as np
import pytest

from helpers import configs_from
from uvp.cli import entry
from uvp.instances import HardInstanceSpec, gen_hard, load_tabular, save_tabular


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_toy(path, points, curves):
    save_tabular(str(path), configs_from(points), np.asarray(curves, dtype=float))
    return str(path)


def _dir_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ---------------------------------------------------------------------------
# solve


def test_solve_landscape_trace_length(tmp_path, capsys):
    out = tmp_path / "run"
    code = entry([
        "solve", "--landscape", "radial-decay", "--algo", "full-cent",
        "--budget", "10", "--horizon", "1", "--n", "10000", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    assert "best_id=" in capsys.readouterr().out
    trace = _read_rows(out / "trace.csv")
    assert trace[0] == ["spent", "incumbent"]
    assert len(trace) == 11  # header + one row per spent unit
    assert [int(r[0]) for r in trace[1:]] == list(range(1, 11))
    outcome = _read_rows(out / "outcome.csv")
    assert outcome[0] == ["best_id", "best_value", "spent"]
    assert outcome[1][2] == "10"


def test_solve_unknown_algorithm_exits_2():
    with pytest.raises(SystemExit) as exc:
        entry(["solve", "--landscape", "radial-decay", "--algo", "gradient"])
    assert exc.value.code == 2


def test_solve_zero_budget_exits_2(capsys):
    code = entry([
        "solve", "--landscape", "radial-decay", "--algo", "full-cent",
        "--budget", "0", "--n", "50",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_solve_requires_exactly_one_source(tmp_path):
    data = _write_toy(tmp_path / "toy.csv", [[0.0], [1.0]], [[0.5], [0.6]])
    assert entry(["solve", "--algo", "random"]) == 2
    assert entry([
        "solve", "--algo", "random", "--data", data,
        "--landscape", "radial-decay",
    ]) == 2


def test_solve_on_tabular_data(tmp_path, capsys):
    data = _write_toy(
        tmp_path / "toy.csv",
        [[0.0], [1.0], [2.0], [5.0]],
        [[0.2, 0.4], [0.5, 0.55], [0.1, 0.3], [0.5, 0.9]],
    )
    # k = 2 picks id 0 (lowest id from empty seeds) and id 3 (farthest)
    code = entry(["solve", "--algo", "full-cent", "--data", data, "--budget", "4"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("best_id=3 best_value=0.9")


# ---------------------------------------------------------------------------
# bench


def _bench_dataset(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(12, 2))
    curves = np.sort(rng.uniform(0.1, 1.0, size=(12, 2)), axis=1)
    return _write_toy(tmp_path / "toy.csv", pts, curves)


def test_bench_cross_product_outputs(tmp_path, capsys):
    data = _bench_dataset(tmp_path)
    out = tmp_path / "bench"
    code = entry([
        "bench", "--data", data, "--algos", "random,sha", "--seeds", "3",
        "--budget", "20", "--out", str(out),
    ])
    assert code == 0
    traces = sorted(p for p in os.listdir(out) if p.startswith("trace_"))
    assert len(traces) == 6
    for alg in ("random", "sha"):
        for seed in (0, 1, 2):
            assert f"trace_toy_{alg}_{seed}.csv" in traces

    rank_rows = _read_rows(out / "mean_rank.csv")
    assert rank_rows[0] == ["fraction", "algorithm", "mean_rank"]
    by_fraction = {}
    for frac, _, mean in rank_rows[1:]:
        by_fraction.setdefault(frac, []).append(float(mean))
    for frac, means in by_fraction.items():
        assert sum(means) == pytest.approx(3.0), frac  # m(m+1)/2 with m = 2

    summary = _read_rows(out / "summary.csv")
    assert summary[0] == ["dataset", "algorithm", "mean_best", "std_best"]
    assert len(summary) == 3
    assert "mean rank at full budget" in capsys.readouterr().out


def test_bench_byte_identical_reruns(tmp_path):
    data = _bench_dataset(tmp_path)
    args = ["bench", "--data", data, "--algos", "random,sha", "--seeds", "2",
            "--budget", "20"]
    assert entry(args + ["--out", str(tmp_path / "a")]) == 0
    assert entry(args + ["--out", str(tmp_path / "b")]) == 0
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_bench_empty_algorithm_list_exits_2(tmp_path):
    data = _bench_dataset(tmp_path)
    assert entry(["bench", "--data", data, "--algos", ""]) == 2


def test_bench_unknown_algorithm_exits_2(tmp_path):
    data = _bench_dataset(tmp_path)
    assert entry(["bench", "--data", data, "--algos", "random,zen"]) == 2


# ---------------------------------------------------------------------------
# estimate-eps


def test_estimate_eps_hand_values(tmp_path, capsys):
    # pairwise orientation maxima: {0.5, 0.25, 0.25}; k = 2 radius is 1
    data = _write_toy(tmp_path / "toy.csv", [[0.0], [1.0], [3.0]],
                      [[1.0], [0.5], [0.25]])
    out = tmp_path / "eps"
    code = entry(["estimate-eps", "--data", data, "--k", "2", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out / "epsilon.csv")
    assert rows[0] == ["alpha", "value"]
    got = {float(a): float(v) for a, v in rows[1:]}
    assert got == {90.0: 0.5, 95.0: 0.5, 98.0: 0.5, 99.0: 0.5}
    assert "alpha=90" in capsys.readouterr().out


def test_estimate_eps_warns_on_duplicates(tmp_path, capsys):
    data = _write_toy(tmp_path / "dup.csv", [[0.5], [0.5], [1.0]],
                      [[0.2], [0.9], [0.4]])
    code = entry(["estimate-eps", "--data", data, "--k", "1"])
    assert code == 0
    assert "skipped" in capsys.readouterr().err


def test_estimate_eps_missing_file_exits_1(tmp_path, capsys):
    code = entry(["estimate-eps", "--data", str(tmp_path / "absent.csv")])
    assert code == 1
    assert "io error" in capsys.readouterr().err


def test_estimate_eps_bad_alphas_exit_2_before_reading(tmp_path, capsys):
    # the file does not exist: a check made after loading would exit 1
    absent = str(tmp_path / "absent.csv")
    assert entry(["estimate-eps", "--data", absent, "--alphas", "90,150"]) == 2
    assert "percentile 150" in capsys.readouterr().err
    assert entry(["estimate-eps", "--data", absent, "--alphas", "90,x"]) == 2
    assert "cannot parse --alphas" in capsys.readouterr().err


def test_estimate_eps_k_zero_exits_2(tmp_path, capsys):
    data = _write_toy(tmp_path / "toy.csv", [[0.0], [1.0]], [[1.0], [0.5]])
    assert entry(["estimate-eps", "--data", data, "--k", "0"]) == 2
    assert "k must be at least 1" in capsys.readouterr().err
    assert entry(["estimate-eps", "--data", str(tmp_path / "absent.csv"), "--k", "0"]) == 2


def test_estimate_eps_zero_radius_exits_2(tmp_path, capsys):
    # 20 configurations: a cover of 20 centers has radius 0, so every scaled
    # level would read 0.0
    configs, oracle = gen_hard(HardInstanceSpec("fc", 0.5, 2.0, 2, 5, 1.0, 3))
    data = str(tmp_path / "h.csv")
    save_tabular(data, configs, oracle.curves)
    out = tmp_path / "eps"
    assert entry(["estimate-eps", "--data", data, "--k", "20", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--k 20" in captured.err and "value=" not in captured.out
    assert not out.exists()
    assert entry(["estimate-eps", "--data", data, "--k", "19"]) == 0


# ---------------------------------------------------------------------------
# gen


def test_gen_hard_row_count_and_round_trip(tmp_path):
    out = tmp_path / "hard.csv"
    code = entry([
        "gen", "--hard", "fc", "--epsilon", "0.5", "--beta", "2", "--k", "2",
        "--n", "5", "--r", "0.5", "--horizon", "3", "--out", str(out),
    ])
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 61  # header + ceil(beta*k)=4 clusters x 5 configs x 3 budgets
    bench = load_tabular(str(out))
    spec = HardInstanceSpec(variant="fc", epsilon=0.5, beta=2.0, k=2,
                            n_per_cluster=5, r=0.5, horizon=3, seed=0)
    _, oracle = gen_hard(spec)
    assert np.allclose(bench.curves, oracle.curves, atol=1e-12)


def test_gen_landscape_mesh(tmp_path):
    out = tmp_path / "ring.csv"
    code = entry(["gen", "--landscape", "cosine-ring", "--mesh", "3", "--out", str(out)])
    assert code == 0
    bench = load_tabular(str(out))
    assert bench.n == 9 and bench.horizon == 1
    # row-major mesh over [-8, 8]^2 puts the origin at id 4, outside the bump
    assert bench.curves[4, 0] == pytest.approx(0.2)


def test_gen_same_seed_identical_bytes(tmp_path):
    args = ["gen", "--hard", "ac", "--epsilon", "0.4", "--k", "2", "--n", "3",
            "--horizon", "4", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert entry(args + ["--out", str(a)]) == 0
    assert entry(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_exactly_one_source(tmp_path):
    out = str(tmp_path / "x.csv")
    assert entry(["gen", "--out", out]) == 2
    assert entry(["gen", "--hard", "fc", "--landscape", "cosine-ring",
                  "--out", out]) == 2
