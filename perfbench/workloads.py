"""The benchmark's three workloads, with every knob pinned.

Nothing here falls back on a default of the program: the CLI defaults to
the ``tail-fit`` predictor while ``SolverParams`` defaults to ``two-point``,
so a workload that relied on either would silently change when a default
changes. Every value the program receives is written out below, and a
change of behaviour shows up as a digest mismatch instead.

Only the standard library is imported, so the parent process (run.py) can
use these definitions without importing numpy or uvp.
"""

from __future__ import annotations

import copy

# Solver knobs of ``uvp.cli.Knobs`` other than the predictor and the seed,
# spelled out with the values the CLI uses today.
KNOBS = {"p": 25, "epsilon": 0.2, "delta": 0.1, "theta": 0.3, "eta": 3, "iterations": 6}

ALGORITHMS = ("full-cent", "e-full-cent", "ada-cent", "e-ada-cent", "random", "sha", "hyperband")

# Why each workload exists (mirrored in BENCHMARK.json):
# - landscape-10k: value-aware center selection over 10k points dominates
#   (e_k_center alone is most of run_s); T=1 means no forecasting and only
#   a few hundred oracle queries.
# - smooth-curves: long curves (T=100) drive tens of thousands of oracle
#   queries, Run.step calls and forecasts; clustering runs as seeded
#   adaptive rounds instead of one pass from scratch.
# - tabular-cli: the only workload whose run_s includes process start and
#   `import uvp` (paid twice), CSV parsing, many small output files and the
#   analysis estimators; clustering is a small share.
WORKLOADS = {
    "landscape-10k": {
        "mode": "solve",
        "instance": {
            "source": "landscape",
            "landscape": "multimodal-bumps",
            "landscape_seed": 0,
            "n": 10_000,
            "horizon": 1,
        },
        "budget": 200,
        # (algorithm, predictor) cells, run the way `uvp solve` runs them;
        # `uvp solve` passes its default predictor, tail-fit.
        "cells": [["full-cent", "tail-fit"], ["ada-cent", "tail-fit"], ["e-full-cent", "tail-fit"]],
    },
    "smooth-curves": {
        "mode": "solve",
        "instance": {"source": "smooth", "n": 1000, "d": 4, "horizon": 100, "epsilon": 0.3},
        "budget": 10_000,
        "cells": [
            ["ada-cent", "two-point"],
            ["ada-cent", "tail-fit"],
            ["e-ada-cent", "two-point"],
            ["e-ada-cent", "tail-fit"],
            ["random", "tail-fit"],
            ["sha", "tail-fit"],
            ["hyperband", "tail-fit"],
        ],
    },
    "tabular-cli": {
        "mode": "cli",
        "instance": {"source": "smooth", "n": 1500, "d": 4, "horizon": 50, "epsilon": 0.3},
        "budget": 1000,
        "bench_seeds": 10,
        "bench_first_seed": 0,
        "predictor": "tail-fit",
        "eps_k": 20,
        "eps_alphas": "90,95,98,99",
    },
}

# Small sizes for the smoke test: same code paths, a few seconds per run.
SMOKE = {
    "landscape-10k": {"instance": {"n": 500}, "budget": 40},
    "smooth-curves": {"instance": {"n": 100, "horizon": 20}, "budget": 600},
    "tabular-cli": {"instance": {"n": 60, "horizon": 10}, "budget": 200, "bench_seeds": 2},
}

# Name of the CSV the tabular workload writes; `uvp bench` names its dataset
# (and so its trace files) after it.
CSV_NAME = "curves.csv"


def definition(name: str, smoke: bool) -> dict:
    """The pinned definition of workload ``name``, at smoke size if asked."""
    defn = copy.deepcopy(WORKLOADS[name])
    if smoke:
        for key, value in SMOKE[name].items():
            if isinstance(value, dict):
                defn[key].update(value)
            else:
                defn[key] = value
    return defn


def knobs(predictor: str, seed: int) -> dict:
    """Keyword arguments for ``uvp.cli.Knobs``, all of them given."""
    return {**KNOBS, "predictor": predictor, "seed": seed}


def cli_argv(defn: dict, csv_path: str, out_dir: str) -> dict[str, list[str]]:
    """Arguments of the two `uvp` invocations of the tabular workload, in order."""
    knob_args = []
    for key in ("p", "epsilon", "delta", "theta", "eta", "iterations"):
        knob_args += [f"--{key}", str(KNOBS[key])]
    bench = [
        "bench",
        "--data", csv_path,
        "--algos", ",".join(ALGORITHMS),
        "--seeds", str(defn["bench_seeds"]),
        "--seed", str(defn["bench_first_seed"]),
        "--budget", str(defn["budget"]),
        "--predictor", defn["predictor"],
        *knob_args,
        "--workers", "1",
        "--out", f"{out_dir}/bench",
    ]
    estimate = [
        "estimate-eps",
        "--data", csv_path,
        "--k", str(defn["eps_k"]),
        "--alphas", defn["eps_alphas"],
        "--out", f"{out_dir}/estimate-eps",
    ]
    return {"bench": bench, "estimate-eps": estimate}


def bench_files(defn: dict) -> list[str]:
    """Files `uvp bench` must write for the tabular workload, and no others."""
    dataset = CSV_NAME.rsplit(".", 1)[0]
    seeds = range(defn["bench_first_seed"], defn["bench_first_seed"] + defn["bench_seeds"])
    traces = [f"trace_{dataset}_{alg}_{seed}.csv" for alg in ALGORITHMS for seed in seeds]
    return sorted(traces + ["mean_rank.csv", "summary.csv"])
