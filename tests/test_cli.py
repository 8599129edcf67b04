"""End-to-end command line checks driven through entry()."""

import concurrent.futures
import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from helpers import configs_from, const_oracle, line, ref_mean_rank
from uvp import cli
from uvp.cli import ALGORITHMS, entry, run_algorithm
from uvp.core import BudgetLedger, InvalidParams, Trace
from uvp.instances import (
    gen_hard,
    gen_smooth,
    landscape,
    landscape_eval,
    load_tabular,
    mesh_grid,
    save_tabular,
)
from uvp.solvers import SolverParams


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_toy(path, points, curves):
    save_tabular(str(path), configs_from(points), np.asarray(curves, dtype=float))
    return str(path)


def _gen_hard_fc(path):
    """README's T = 3 hard instance of 20 configurations, on which every algorithm runs."""
    assert entry(["gen", "--hard", "fc", "--epsilon", "0.5", "--beta", "2", "--k", "2",
                  "--n", "5", "--horizon", "3", "--out", str(path)]) == 0
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

    # the printed spend is the trace's length: its row count and its last
    # spend. On this instance 36 of ada-cent's 60 tail-fit prune tests are
    # near-ties that defer to np.polyfit, so both paths run
    data = _gen_hard_fc(tmp_path / "h.csv")
    argv = ["solve", "--algo", "ada-cent", "--data", data, "--predictor", "tail-fit"]
    assert entry([*argv, "--out", str(out)]) == 0
    spent = int(capsys.readouterr().out.rsplit(" spent=", 1)[1])
    trace = _read_rows(out / "trace.csv")
    assert 0 < spent == len(trace) - 1 == int(trace[-1][0])


def test_solve_past_the_sample_cap_exits_2(capsys):
    # 10^11 points would need terabytes; the count is refused before any draw
    argv = ["solve", "--landscape", "radial-decay", "--algo", "random", "--n", "100000000000"]
    assert entry(argv) == 2
    assert "sample of 100000000000 points exceeds cap 1000000" in capsys.readouterr().err


_HORIZON_CAP = "exceeds cap 10000000 on n*horizon cells"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--algos", "random", "--budget", "2", "--seeds", "9223372036854775808"],
         "need between 1 and 10000 seeds, got 9223372036854775808"),
        (["bench", "--algos", "random", "--budget", "2", "--seeds", "100000000"],
         "need between 1 and 10000 seeds, got 100000000"),
        (["solve", "--algo", "full-cent", "--horizon", "9223372036854775808"],
         f"landscape of 40 points at horizon 9223372036854775808 {_HORIZON_CAP}"),
        (["solve", "--algo", "full-cent", "--horizon", "100000000000"],
         f"landscape of 40 points at horizon 100000000000 {_HORIZON_CAP}"),
    ],
    ids=["seeds-past-int64", "seeds-1e8", "horizon-past-int64", "horizon-1e11"],
)
def test_oversized_seeds_or_horizon_exit_2_before_sampling(
    tmp_path, capsys, monkeypatch, argv, message
):
    # each once ended in an OverflowError or a MemoryError
    def no_sampling(*args):
        raise AssertionError("sampled candidates")

    monkeypatch.setattr(cli, "sample_uniform", no_sampling)
    out = tmp_path / "out"
    argv = [*argv, "--landscape", "radial-decay", "--n", "40", "--out", str(out)]
    assert entry(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"  # one line, no traceback
    assert not out.exists()


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


def test_solve_rejects_a_knob_the_algorithm_does_not_read(capsys):
    # random search never reads eta, but every algorithm validates every knob
    code = entry([
        "solve", "--landscape", "radial-decay", "--algo", "random",
        "--eta", "1", "--n", "50",
    ])
    assert code == 2
    assert "eta must be >= 2" in capsys.readouterr().err


def test_e_ada_cent_at_the_landscape_default_horizon_names_the_fix(capsys):
    # the default --delta 0.1 at the default --horizon 1 gives floor(0.1) = 0
    code = entry(["solve", "--landscape", "radial-decay", "--algo", "e-ada-cent", "--n", "200"])
    assert code == 2
    err = capsys.readouterr().err
    assert "delta = 0.1 and horizon = 1 give 0" in err
    assert "raise --delta or --horizon" in err


_SOLVE_LANDSCAPE = ["solve", "--landscape", "radial-decay", "--n", "100"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_SOLVE_LANDSCAPE, "--algo", "e-full-cent", "--epsilon", "nan"],
        ["gen", "--hard", "fc", "--epsilon", "nan"],
        ["gen", "--hard", "fc", "--beta", "nan"],
    ],
    ids=["solve-epsilon", "gen-epsilon", "gen-beta"],
)
def test_nan_knob_exits_2(tmp_path, capsys, argv):
    # every range check must fail on NaN, not let it through to the arithmetic
    out = tmp_path / "out.csv"
    if argv[0] == "gen":
        argv = [*argv, "--out", str(out)]
    assert entry(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "knob, message",
    [
        (["--beta", "1e300"], "exceeds cap"),
        (["--epsilon", "1e-320"], "1 / epsilon = inf is not finite"),
    ],
    ids=["beta", "epsilon"],
)
def test_gen_hard_past_what_it_can_build_exits_2(tmp_path, capsys, knob, message):
    # both values pass the range checks; they once crashed inside gen_hard
    out = tmp_path / "out.csv"
    assert entry(["gen", "--hard", "fc", *knob, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        [*_SOLVE_LANDSCAPE, "--algo", "random", "--seed", "-1"],
        [*_SOLVE_LANDSCAPE, "--algo", "random", "--landscape-seed", "-1"],
        ["solve", "--algo", "random", "--budget", "2", "--seed", "-1"],  # --data added below
        ["gen", "--hard", "fc", "--seed", "-1"],
        ["gen", "--landscape", "cosine-ring", "--seed", "-1"],
    ],
    ids=["solve-seed", "solve-landscape-seed", "solve-data-seed", "gen-hard", "gen-landscape"],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    if argv[0] == "gen":
        argv = [*argv, "--out", str(out)]
    elif "--landscape" not in argv:
        argv = [*argv, "--data", _write_toy(tmp_path / "toy.csv", [[0.0], [1.0]], [[0.2], [0.5]])]
    assert entry(argv) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


_BASELINE_ATTRS = {"random": "random_search", "sha": "successive_halving", "hyperband": "hyperband"}


@pytest.mark.parametrize("name", ALGORITHMS)
def test_run_algorithm_calls_the_function_bound_at_call_time(monkeypatch, name):
    # a tracer swaps in wrappers at these two places and reads (oracle, ledger)
    # as the last two positional arguments
    calls = []

    def stand_in(label):
        def fn(*args, **kwargs):
            calls.append((label, args, kwargs))
            return label

        return fn

    for key in list(cli._CLUSTER_SOLVERS):
        monkeypatch.setitem(cli._CLUSTER_SOLVERS, key, stand_in(key))
    for key, attr in _BASELINE_ATTRS.items():
        monkeypatch.setattr(cli, attr, stand_in(key))
    X, oracle = line([0.0, 1.0, 2.0]), const_oracle(0.5)
    knobs = SolverParams(
        p=3, epsilon=0.5, delta=0.25, theta=0.5, predictor="tail-fit", eta=4, iterations=2, seed=9
    )
    assert run_algorithm(name, X, oracle, 12, 3, knobs) == name
    [(_, args, kwargs)] = calls
    assert not kwargs
    params, got_X, got_oracle, ledger = args
    assert type(params) is SolverParams
    assert params is knobs
    assert got_X is X and got_oracle is oracle
    assert type(ledger) is BudgetLedger and (ledger.cap, ledger.spent) == (12, 0)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_run_algorithm_rejects_a_horizon_other_than_the_oracles(monkeypatch, name):
    ledgers = []

    def recorded_ledger(cap):
        ledgers.append(BudgetLedger(cap))
        return ledgers[-1]

    monkeypatch.setattr(cli, "BudgetLedger", recorded_ledger)
    X, oracle = line([0.0, 1.0, 2.0, 3.0]), const_oracle(0.5, horizon=4)
    knobs = SolverParams(p=2, epsilon=0.5, delta=0.5, eta=2, iterations=2)
    with pytest.raises(InvalidParams, match="horizon 2"):
        run_algorithm(name, X, oracle, 8, 2, knobs)
    assert [ledger.spent for ledger in ledgers] == [0]


def test_knobs_are_solver_params_without_budget_and_horizon():
    # the budget is the ledger's and the horizon the oracle's, so the per-run
    # settings are SolverParams itself; the old name is an alias
    assert cli.Knobs is SolverParams


@pytest.mark.parametrize("argv", [["solve", "--algo", "random"], ["bench"]])
def test_knob_defaults_are_solver_params(argv):
    # --predictor is the one CLI default that differs from the library's
    args = cli.build_parser().parse_args(argv)
    assert cli._from_args(SolverParams, args) == SolverParams(predictor="tail-fit")


def test_solve_requires_exactly_one_source(tmp_path, capsys):
    # a second --data or --landscape is an error, not silently ignored
    data = _write_toy(tmp_path / "toy.csv", [[0.0], [1.0]], [[0.5], [0.6]])
    out = tmp_path / "run"
    for sources in (
        [],
        ["--data", data, "--landscape", "radial-decay"],
        ["--data", data, "--data", data],
        ["--landscape", "radial-decay", "--landscape", "cosine-ring"],
    ):
        assert entry(["solve", "--algo", "random", "--n", "50", *sources, "--out", str(out)]) == 2
        assert "give exactly one of --data or --landscape" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--landscape", "radial-decay", "--n", "50", "--horizon", "0"],
         "oracle horizon must be >= 1"),
        (["--data", "t4.csv", "--budget", "3"], "budget 3 is below one full evaluation of t4"),
    ],
    ids=["horizon-0", "budget-below-T"],
)
def test_solve_and_bench_word_a_source_fault_alike(tmp_path, capsys, argv, message):
    _write_toy(tmp_path / "t4.csv", [[0.0], [1.0]], [[0.1, 0.2, 0.3, 0.4]] * 2)
    argv = [str(tmp_path / a) if a == "t4.csv" else a for a in argv]
    for command, algo_flag in (("solve", "--algo"), ("bench", "--algos")):
        out = tmp_path / command
        assert entry([command, algo_flag, "random", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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


@pytest.mark.parametrize("algo", ["ada-cent", "sha"])
def test_bench_landscape_trace_equals_solve(tmp_path, algo):
    # bench samples the landscape with its first seed, as solve does with --seed
    common = ["--landscape", "multimodal-bumps", "--n", "300", "--horizon", "3",
              "--budget", "30", "--seed", "4"]
    assert entry(["solve", "--algo", algo, *common, "--out", str(tmp_path / "solve")]) == 0
    assert entry([
        "bench", "--algos", algo, "--seeds", "2", *common, "--out", str(tmp_path / "bench"),
    ]) == 0
    solved = (tmp_path / "solve" / "trace.csv").read_bytes()
    assert (tmp_path / "bench" / f"trace_multimodal-bumps_{algo}_4.csv").read_bytes() == solved
    if algo in cli._CLUSTER_SOLVERS:  # its second seed's cell shares the first seed's run
        assert (tmp_path / "bench" / f"trace_multimodal-bumps_{algo}_5.csv").read_bytes() == solved


def _csv_writer_trace(trace):
    """The bytes csv.writer writes for a trace, as every output of the CLI once was."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["spent", "incumbent"])
    writer.writerows([s, repr(float(v))] for s, v in trace)
    return buf.getvalue().encode("utf-8")


_SAME = 0.25


@pytest.mark.parametrize(
    "trace",
    [
        [],
        [(1, 0.5)],
        [(1, _SAME), (2, _SAME), (3, _SAME), (4, 1.0), (5, 1.0)],
        [(1, -0.0), (2, 0.0), (3, 0.0), (4, 5e-324), (5, 0.1), (6, 0.1), (7, 1.0)],
        [(1, np.float64(0.1)), (2, np.float64(0.1)), (3, 0.1), (4, np.float64(1.0))],
    ],
)
def test_write_trace_matches_csv_writer(tmp_path, trace):
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    cli._write_trace(paths, Trace(v for _, v in trace))  # each case spends 1, 2, ...
    want = _csv_writer_trace(trace)
    for path in paths:
        assert Path(path).read_bytes() == want


def test_bench_empty_algorithm_list_exits_2(tmp_path):
    data = _bench_dataset(tmp_path)
    assert entry(["bench", "--data", data, "--algos", ""]) == 2


def test_bench_unknown_algorithm_exits_2(tmp_path):
    data = _bench_dataset(tmp_path)
    assert entry(["bench", "--data", data, "--algos", "random,zen"]) == 2


def test_bench_bad_knob_exits_2_before_any_cell(tmp_path, monkeypatch, capsys):
    data = _bench_dataset(tmp_path)
    cells = []
    monkeypatch.setattr(cli, "_bench_cell", lambda payload: cells.append(payload))
    out = tmp_path / "bench"
    assert entry(["bench", "--data", data, "--eta", "1", "--seeds", "2", "--out", str(out)]) == 2
    assert "eta must be >= 2" in capsys.readouterr().err
    assert cells == []
    assert not out.exists()


def test_bench_two_workers_write_what_one_writes(tmp_path, capsys):
    toy, hard = _bench_dataset(tmp_path), _gen_hard_fc(tmp_path / "h.csv")
    capsys.readouterr()
    for name, argv in (
        ("toy", ["--data", toy, "--algos", "random,sha", "--seeds", "2", "--budget", "20"]),
        # all seven algorithms at a budget off every multiple of T = 3, so fills
        # are cut by the cap; --delta 0.5 gives e-ada-cent a 1-unit probe
        ("hard", ["--data", hard, "--seeds", "3", "--budget", "13", "--delta", "0.5"]),
    ):
        printed = []
        for workers in ("1", "2"):
            out = str(tmp_path / f"{name}{workers}")
            assert entry(["bench", *argv, "--workers", workers, "--out", out]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert _dir_bytes(tmp_path / f"{name}1") == _dir_bytes(tmp_path / f"{name}2")


def test_bench_failed_cells_are_listed_and_keep_their_algorithm_unranked(tmp_path, capsys):
    # random cannot draw 20 arms from 12 landscape points, but runs on toy (T = 2)
    data = _bench_dataset(tmp_path)
    argv = ["bench", "--data", data, "--landscape", "radial-decay", "--n", "12",
            "--budget", "20", "--algos", "random,sha,ada-cent", "--seeds", "2"]
    printed = []
    for workers in ("1", "2"):
        assert entry([*argv, "--workers", workers, "--out", str(tmp_path / workers)]) == 2
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert _dir_bytes(tmp_path / "1") == _dir_bytes(tmp_path / "2")
    out, err = printed[0]
    assert "2 of 12 cells failed; see failures.csv" in err

    out_dir = tmp_path / "1"
    assert _read_rows(out_dir / "failures.csv") == [
        ["dataset", "seed", "algorithm", "error"],
        ["radial-decay", "0", "random", "cannot draw 20 distinct arms from 12"],
        ["radial-decay", "1", "random", "cannot draw 20 distinct arms from 12"],
    ]
    summary = {tuple(row[:2]) for row in _read_rows(out_dir / "summary.csv")[1:]}
    assert ("toy", "random") in summary
    assert ("radial-decay", "random") not in summary
    ranked = {row[1] for row in _read_rows(out_dir / "mean_rank.csv")[1:]}
    assert ranked == {"ada-cent", "sha"}
    ranking = out.split("mean rank at full budget: ")[1]
    assert "random" not in ranking
    assert "ada-cent=" in ranking and "sha=" in ranking


def test_bench_ranks_only_where_every_dataset_has_spent_a_unit(tmp_path, capsys):
    # at B = 9 the 0.1 fraction is 0.9 units, before any cell has spent one
    data = _gen_hard_fc(tmp_path / "h.csv")
    for budget, first in (("9", 2), ("10", 1)):
        out = tmp_path / budget
        assert entry(["bench", "--data", data, "--seeds", "2", "--budget", budget,
                      "--algos", "random,sha", "--out", str(out)]) == 0
        fractions = [float(row[0]) for row in _read_rows(out / "mean_rank.csv")[1:]]
        assert sorted(set(fractions)) == [i / 10 for i in range(first, 11)]
        captured = capsys.readouterr()
        assert "mean rank at full budget: " in captured.out
        assert captured.err == ""


def test_bench_rank_table_of_1000_seeds_matches_the_plain_loop_reference(tmp_path, capsys):
    # 4000 traces read back from bench's files and ranked by ref_mean_rank,
    # which shares no ranking code with the library; mean_rank.csv must
    # match its digits byte for byte
    out = tmp_path / "many"
    assert entry(["bench", "--landscape", "radial-decay", "--n", "200", "--budget", "20",
                  "--seeds", "1000", "--algos", "full-cent,random,sha,hyperband",
                  "--out", str(out)]) == 0
    results = {}
    for path in out.glob("trace_*.csv"):
        alg, seed = path.stem[len("trace_radial-decay_"):].rsplit("_", 1)
        rows = _read_rows(path)[1:]
        assert [int(s) for s, _ in rows] == list(range(1, len(rows) + 1))
        results["radial-decay", int(seed), alg] = Trace([float(v) for _, v in rows])
    assert len(results) == 4000
    table = ref_mean_rank(results, {"radial-decay": 20})
    rows = "".join(f"{float(f)!r},{a},{float(table.means[fi, ai])!r}\n"
                   for fi, f in enumerate(table.fractions) for ai, a in enumerate(table.algorithms))
    assert (out / "mean_rank.csv").read_text() == "fraction,algorithm,mean_rank\n" + rows


def test_bench_rank_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # the rank tests compare mean_rank with ref_mean_rank, which shares its
    # fraction rule; at budget 29 the fraction products round (0.7 * 29 is
    # 20.299999999999997), and all seven algorithms run
    monkeypatch.chdir(tmp_path)
    configs, oracle = gen_smooth(200, 3, 7, 0.3, 1)
    save_tabular("small.csv", configs, oracle.curves)
    assert entry(["bench", "--data", "small.csv", "--seeds", "3", "--budget", "29",
                  "--delta", "0.3", "--out", "out"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "43c18df71f81218315d702e2e8f595ef4dc5a7c26a76ccb4a0f90d1636b930ca"
    )
    assert hashlib.sha256((tmp_path / "out" / "mean_rank.csv").read_bytes()).hexdigest() == (
        "828b16f78048957dd35a7d37cee9cf3c3a3ea71620cfab24827a37c2644a637c"
    )


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_bench_needs_at_least_one_worker(tmp_path, capsys, workers):
    data = _bench_dataset(tmp_path)
    out = tmp_path / "bench"
    argv = ["bench", "--data", data, "--seeds", "1", "--workers", workers, "--out", str(out)]
    assert entry(argv) == 2
    assert f"need at least one worker, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_bench_asks_for_no_more_workers_than_cells(tmp_path, monkeypatch):
    # the pool forks every worker it is asked for, so the count is capped at the cells
    asked = []

    class SequentialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SequentialPool)
    data = _bench_dataset(tmp_path)
    argv = ["bench", "--data", data, "--algos", "random,sha", "--seeds", "1", "--budget", "20"]
    assert entry([*argv, "--workers", "64", "--out", str(tmp_path / "pool")]) == 0
    assert asked == [2]
    assert entry([*argv, "--workers", "1", "--out", str(tmp_path / "one")]) == 0
    assert asked == [2]
    assert _dir_bytes(tmp_path / "pool") == _dir_bytes(tmp_path / "one")
    # six cells, but the two cluster solvers make one run each
    argv = ["bench", "--data", data, "--algos", "full-cent,ada-cent", "--seeds", "3",
            "--budget", "20", "--workers", "8", "--out", str(tmp_path / "cluster")]
    assert entry(argv) == 0
    assert asked == [2, 2]
    assert len([p for p in os.listdir(tmp_path / "cluster") if p.startswith("trace_")]) == 6


def test_bench_runs_each_cluster_solver_once_per_dataset(tmp_path, monkeypatch):
    # a cluster solver reads no seed, so bench runs it with the first seed only
    # and every seed's cell shares that run; a baseline runs once per seed
    runs = []

    def counted(label, fn):
        def wrapper(params, X, oracle, ledger):
            runs.append((len(X), params.seed, label))
            return fn(params, X, oracle, ledger)

        return wrapper

    for key, fn in list(cli._CLUSTER_SOLVERS.items()):
        monkeypatch.setitem(cli._CLUSTER_SOLVERS, key, counted(key, fn))
    for key, attr in _BASELINE_ATTRS.items():
        monkeypatch.setattr(cli, attr, counted(key, getattr(cli, attr)))
    toy = _bench_dataset(tmp_path)  # 12 configurations, T = 2
    rng = np.random.default_rng(5)
    small = _write_toy(
        tmp_path / "small.csv", rng.uniform(size=(9, 2)), np.sort(rng.uniform(size=(9, 3)), axis=1)
    )
    out = tmp_path / "bench"
    assert entry([
        "bench", "--data", toy, "--data", small, "--seeds", "3", "--seed", "4", "--budget", "18",
        "--delta", "0.5", "--out", str(out),
    ]) == 0
    assert sorted(runs) == sorted(
        (n, seed, alg)
        for n in (12, 9)
        for alg in ALGORITHMS
        for seed in ((4,) if alg in cli._CLUSTER_SOLVERS else (4, 5, 6))
    )
    files = _dir_bytes(out)
    assert len([name for name in files if name.startswith("trace_")]) == 2 * 7 * 3
    for name in ("small", "toy"):
        for alg in cli._CLUSTER_SOLVERS:
            shared = {files[f"trace_{name}_{alg}_{seed}.csv"] for seed in (4, 5, 6)}
            assert len(shared) == 1, (name, alg)


def test_import_leaves_the_process_pool_unloaded():
    # only bench --workers > 1 forks a pool, so no other command pays for its imports
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, uvp.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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


def test_estimate_eps_on_a_subnormal_value_prints_no_warning(tmp_path, capsys):
    # 0.5 / 1e-310 overflows to +inf, a ratio that never binds; a numpy
    # RuntimeWarning fails this test
    data = _write_toy(tmp_path / "tiny.csv", [[0.0], [1.0], [2.0]],
                      [[1e-310], [0.5], [0.25]])
    code = entry(["estimate-eps", "--data", data, "--k", "2", "--alphas", "50,100"])
    # pair levels max(1 - 2e-310, 0) = 1.0, (1 - 4e-310) / 2 = 0.5 and 0.5; radius 1
    assert (code, *capsys.readouterr()) == (0, "alpha=50.0 value=0.5\nalpha=100.0 value=1.0\n", "")


def test_estimate_eps_missing_file_exits_1(tmp_path, capsys):
    code = entry(["estimate-eps", "--data", str(tmp_path / "absent.csv")])
    assert code == 1
    assert "io error" in capsys.readouterr().err


def test_estimate_eps_unreadable_csv_exits_2(tmp_path, capsys):
    undecodable = tmp_path / "latin.csv"
    undecodable.write_bytes(b"id,x0,b,value\n0,\xff,1,0.5\n")
    assert entry(["estimate-eps", "--data", str(undecodable), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert str(undecodable) in err and "line 2 is not UTF-8 text" in err
    oversized = tmp_path / "wide.csv"
    field = "1" * (csv.field_size_limit() + 1)
    oversized.write_text(f"id,x0,b,value\n0,0.0,1,0.5\n1,{field},1,0.5\n", encoding="utf-8")
    assert entry(["estimate-eps", "--data", str(oversized), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{oversized}: line 3: field larger than field limit" in err


def test_crlf_and_space_separated_csv_gives_the_lf_outputs(tmp_path, capsys, monkeypatch):
    # csv.writer's default \r\n line end and ", " separators keep every byte
    # on numpy's lane, so the row-by-row parse is never called
    lf, respelled = tmp_path / "lf" / "toy.csv", tmp_path / "crlf" / "toy.csv"
    lf.parent.mkdir()
    respelled.parent.mkdir()
    configs, oracle = gen_smooth(30, 2, 6, 0.3, 1)
    save_tabular(str(lf), configs, oracle.curves)
    with open(respelled, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in _read_rows(lf):
            writer.writerow([row[0], *(" " + cell for cell in row[1:])])
    assert b"\r\n" in respelled.read_bytes() and b", " in respelled.read_bytes()

    def outputs(data):
        out = str(Path(data).parent / "bench")
        argv = ["bench", "--data", data, "--algos", "random,sha", "--seeds", "2", "--out", out]
        assert entry(argv) == 0
        assert entry(["estimate-eps", "--data", data, "--k", "5"]) == 0
        return _dir_bytes(out), capsys.readouterr().out

    want = outputs(str(lf))
    fail = AssertionError("a lane file reached the row-by-row parse")
    monkeypatch.setattr("uvp.instances._csv_columns", mock.Mock(side_effect=fail))
    assert outputs(str(respelled)) == want


@pytest.mark.parametrize("budget", ["100000000000", "99999999999999999999"])
def test_estimate_eps_on_a_budget_cell_of_any_size_exits_2(tmp_path, capsys, budget):
    # the coverage check counts budgets; it builds nothing from the largest one
    data = tmp_path / "far.csv"
    data.write_text(f"id,x0,b,value\n0,0.5,{budget},0.5\n", encoding="utf-8")
    assert entry(["estimate-eps", "--data", str(data), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {data}: id 0 does not cover budgets 1..{budget}\n"


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
    configs, oracle = gen_hard("fc", 0.5, 2.0, 2, 5, 1.0, 3)
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
    _, oracle = gen_hard(variant="fc", epsilon=0.5, beta=2.0, k=2,
                         n_per_cluster=5, r=0.5, horizon=3, seed=0)
    assert np.allclose(bench.curves, oracle.curves, atol=1e-12)


def test_gen_landscape_mesh(tmp_path):
    out = tmp_path / "ring.csv"
    code = entry(["gen", "--landscape", "cosine-ring", "--mesh", "3", "--out", str(out)])
    assert code == 0
    bench = load_tabular(str(out))
    assert bench.n == 9 and bench.horizon == 1
    # row-major mesh over [-8, 8]^2 puts the origin at id 4, outside the bump
    assert bench.curves[4, 0] == pytest.approx(0.2)


def test_gen_writes_what_the_library_writes(tmp_path):
    # every gen option reaches gen_hard: --theta-frac moves the ac decoys' plateau
    hard, lib = tmp_path / "hard.csv", tmp_path / "lib.csv"
    assert entry(["gen", "--hard", "ac", "--epsilon", "0.2", "--beta", "3", "--k", "2",
                  "--n", "4", "--r", "0.5", "--horizon", "10", "--theta-frac", "0.3",
                  "--seed", "5", "--out", str(hard)]) == 0
    configs, oracle = gen_hard(variant="ac", epsilon=0.2, beta=3.0, k=2, n_per_cluster=4,
                               r=0.5, horizon=10, theta_frac=0.3, seed=5)
    save_tabular(str(lib), configs, oracle.curves)
    assert hard.read_bytes() == lib.read_bytes()

    mesh = tmp_path / "mesh.csv"
    assert entry(["gen", "--landscape", "multimodal-bumps", "--mesh", "7", "--seed", "2",
                  "--out", str(mesh)]) == 0
    spec = landscape("multimodal-bumps", 2)
    configs = mesh_grid(spec.domain, 7)
    save_tabular(str(lib), configs, np.asarray([[landscape_eval(spec, c.coords)] for c in configs]))
    assert mesh.read_bytes() == lib.read_bytes()


def test_gen_same_seed_identical_bytes(tmp_path):
    args = ["gen", "--hard", "ac", "--epsilon", "0.4", "--k", "2", "--n", "3",
            "--horizon", "4", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert entry(args + ["--out", str(a)]) == 0
    assert entry(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv, stdout_sha, csv_sha",
    [
        (["--hard", "fc"],
         "bd3df5718e06d633ad05660e26c08a21a158be8411ebc96abf91765e1d7ae21f",
         "9d7c34dc42351f697e323932a3f515af9edd8ebb226be3ab4281d4fd40f9b504"),
        (["--hard", "ac", "--epsilon", "0.2", "--beta", "3", "--k", "2", "--n", "4",
          "--horizon", "10", "--theta-frac", "0.3", "--seed", "5"],
         "a167de90a1bce5d5d87fde0e62b97e6dee0be4a3c4149423e2994b0b851ac37c",
         "458e897a4edcd11d3e45ad22d002ded55bbe74c0072d2a1aac72cbb3f8a27761"),
        (["--landscape", "double-rings", "--mesh", "5"],
         "139047a74912a39d259ad6ec30d3a5b55f02a18a379f31997d938e4373339107",
         "dd89b74c0c7a9207dcea21ce977fd78cf3513aec79c134fcb6f9e41d1f8a2c17"),
    ],
    ids=["fc-defaults", "ac", "landscape"],
)
def test_gen_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, stdout_sha, csv_sha):
    # the other gen tests compare the CLI with the library or one run with
    # another, so a change of arithmetic both share would pass them
    monkeypatch.chdir(tmp_path)
    assert entry(["gen", *argv, "--out", "g.csv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256((tmp_path / "g.csv").read_bytes()).hexdigest() == csv_sha


def test_gen_requires_exactly_one_source(tmp_path):
    out = str(tmp_path / "x.csv")
    assert entry(["gen", "--out", out]) == 2
    assert entry(["gen", "--hard", "fc", "--landscape", "cosine-ring",
                  "--out", out]) == 2
