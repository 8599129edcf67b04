"""Command line front end: solve, bench, estimate-eps, gen.

Exit codes: 0 on success, 2 on validation problems (bad arguments, bad
input data), 1 on I/O failures. All output files are written with LF line
endings and repr() floats so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .analysis import DEFAULT_ALPHAS, check_percentile_args, mean_rank
from .analysis import _level_rows, _scaled_percentiles
# estimate-eps no longer calls these two; perfbench/tracing.py wraps them by name here
from .analysis import epsilon_pairwise, epsilon_percentiles  # noqa: F401
from .baselines import hyperband, random_search, successive_halving
from .core import BudgetLedger, InvalidParams, SearchOutcome, Trace, UvpError, ValueOracle
from .instances import (
    HARD_CELL_CAP,
    LANDSCAPE_KINDS,
    MESH_CAP,
    HardInstanceSpec,
    LandscapeOracle,
    gen_hard,
    landscape,
    load_tabular,
    mesh_grid,
    sample_uniform,
    save_tabular,
)
from .solvers import PREDICTORS, SolverParams, ada_cent, e_ada_cent, e_full_cent, full_cent

_CLUSTER_SOLVERS = {
    "full-cent": full_cent,
    "e-full-cent": e_full_cent,
    "ada-cent": ada_cent,
    "e-ada-cent": e_ada_cent,
}

ALGORITHMS = (*_CLUSTER_SOLVERS, "random", "sha", "hyperband")


# Most seeds one `bench` runs; every seed adds a run per (dataset, baseline).
SEEDS_CAP = 10**4

# The old name of the per-run settings, kept because perfbench/worker.py imports it.
Knobs = SolverParams


def run_algorithm(
    name: str,
    X,
    oracle: ValueOracle,
    budget: int,
    horizon: int,
    knobs: SolverParams,
) -> SearchOutcome:
    """Run one algorithm against a fresh ledger of ``budget`` units and return its outcome.

    ``horizon`` must equal ``oracle.horizon``; any other value raises before
    any spend. Every algorithm is looked up by its module-level name when
    called, so a wrapper put in its place (in ``_CLUSTER_SOLVERS`` or as this
    module's ``random_search``, ``successive_halving`` or ``hyperband``) is
    the one run.
    """
    ledger = BudgetLedger(budget)
    algorithms = {
        **_CLUSTER_SOLVERS,
        "random": random_search,
        "sha": successive_halving,
        "hyperband": hyperband,
    }
    if name not in algorithms:
        raise InvalidParams(f"unknown algorithm {name!r}")
    if horizon != oracle.horizon:
        raise InvalidParams(f"horizon {horizon} is not the oracle's {oracle.horizon}")
    return algorithms[name](knobs, X, oracle, ledger)


# ---------------------------------------------------------------------------
# shared helpers


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(v: float) -> str:
    return repr(float(v))


def _knobs_from(args: argparse.Namespace) -> SolverParams:
    return SolverParams(**{f.name: getattr(args, f.name) for f in fields(SolverParams)})


def _add_knob_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, help="fresh centers per adaptive round")
    sub.add_argument("--epsilon", type=float, help="smoothness level for value-aware selection")
    sub.add_argument("--delta", type=float, help="exploration fraction of the horizon")
    sub.add_argument("--theta", type=float, help="tail fraction for the tail-fit forecast")
    sub.add_argument("--predictor", choices=PREDICTORS)
    sub.add_argument("--eta", type=int, help="halving factor for sha and hyperband")
    sub.add_argument("--iterations", type=int, help="bracket count for hyperband")
    sub.add_argument("--seed", type=int, help="seed for sampling and the baselines")
    # every default is SolverParams', but the CLI forecasts with tail-fit, not two-point
    sub.set_defaults(**asdict(SolverParams(predictor="tail-fit")))


def _add_source_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", action="append", help="benchmark CSV (id,x0..,b,value)")
    sub.add_argument("--landscape", action="append", choices=LANDSCAPE_KINDS, help="surface kind")
    sub.add_argument("--n", type=int, default=10000, help="candidates sampled per landscape")
    sub.add_argument("--horizon", type=int, default=1, help="horizon for landscape sources")
    sub.add_argument("--landscape-seed", type=int, default=0, help="seed for surface parameters")
    sub.add_argument("--budget", type=int, help="units per dataset (default 20 * its horizon)")


def _datasets(args: argparse.Namespace) -> list[tuple[str, list, ValueOracle, int]]:
    """(name, candidates, oracle, budget) per --data file and --landscape kind, sorted by name.

    A file is named by its base name without extension, a landscape by its
    kind. Landscapes are read lazily through their oracle, which is built
    (and checks the horizon) before any candidate is sampled.
    """
    sources = []
    for path in args.data or []:
        bench = load_tabular(path)
        sources.append((os.path.splitext(os.path.basename(path))[0], bench.configs, bench.oracle()))
    for kind in args.landscape or []:
        spec = landscape(kind, args.landscape_seed)
        oracle = LandscapeOracle(spec, args.horizon)
        # n*horizon cells bound what a run can spend; sample_uniform refuses n past MESH_CAP
        if args.n <= MESH_CAP and args.n * args.horizon > HARD_CELL_CAP:
            raise InvalidParams(
                f"landscape of {args.n} points at horizon {args.horizon} exceeds cap "
                f"{HARD_CELL_CAP} on n*horizon cells"
            )
        sources.append((kind, sample_uniform(spec.domain, args.n, args.seed), oracle))
    names = [name for name, _, _ in sources]
    if len(set(names)) != len(names):
        raise InvalidParams(f"dataset names collide: {names}")
    datasets = []
    for name, X, oracle in sorted(sources, key=lambda s: s[0]):
        budget = args.budget if args.budget is not None else 20 * oracle.horizon
        if budget < oracle.horizon:
            raise InvalidParams(f"budget {budget} is below one full evaluation of {name}")
        datasets.append((name, X, oracle, budget))
    return datasets


def _write_trace(paths: list[str], trace: Trace) -> None:
    """Write ``trace`` as a spent,incumbent CSV to each of ``paths``, one ``write`` per file.

    The text, the bytes ``_write_csv`` would write, is built once. The
    incumbent is the same float object until it improves, so its ``repr``
    is taken once per run of that object.
    """
    lines, last, text = ["spent,incumbent\n"], None, ""
    for spent, value in enumerate(trace.incumbents, 1):
        if value is not last:
            last, text = value, _fmt(value)
        lines.append(f"{spent},{text}\n")
    body = "".join(lines)
    for path in paths:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(body)


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args: argparse.Namespace) -> int:
    if len(args.data or []) + len(args.landscape or []) != 1:
        raise InvalidParams("give exactly one of --data or --landscape")
    [(_, X, oracle, budget)] = _datasets(args)
    out = run_algorithm(args.algo, X, oracle, budget, oracle.horizon, _knobs_from(args))
    spent = len(out.trace)
    print(f"best_id={out.best} best_value={_fmt(out.best_value)} spent={spent}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_csv(
            os.path.join(args.out, "outcome.csv"),
            ["best_id", "best_value", "spent"],
            [[out.best, _fmt(out.best_value), spent]],
        )
        _write_trace([os.path.join(args.out, "trace.csv")], out.trace)
    return 0


# ---------------------------------------------------------------------------
# bench


def _bench_cell(task):
    """Worker: one run's (trace, best value), or the message of the error it raised."""
    X, oracle, cap, seed, alg, knobs = task
    try:
        out = run_algorithm(alg, X, oracle, cap, oracle.horizon, replace(knobs, seed=seed))
    except UvpError as exc:
        return str(exc)
    return out.trace, out.best_value


def _cmd_bench(args: argparse.Namespace) -> int:
    if not (args.data or args.landscape):
        raise InvalidParams("bench needs at least one --data file or --landscape kind")
    if not 1 <= args.seeds <= SEEDS_CAP:
        raise InvalidParams(f"need between 1 and {SEEDS_CAP} seeds, got {args.seeds}")
    datasets = _datasets(args)
    caps = {name: cap for name, _, _, cap in datasets}

    raw_algos = ",".join(ALGORITHMS) if args.algos is None else args.algos
    algorithms = sorted({a for a in raw_algos.split(",") if a})
    if not algorithms:
        raise InvalidParams("empty algorithm list")
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise InvalidParams(f"unknown algorithm {alg!r}")
    if args.workers < 1:
        raise InvalidParams(f"need at least one worker, got {args.workers}")
    knobs = _knobs_from(args)
    seeds = list(range(args.seed, args.seed + args.seeds))

    # each (dataset, seed, algorithm) cell's run; a cluster solver reads no
    # seed, so its cells on a dataset share one run, made with the first seed
    runs = {
        (name, seed, alg): (name, seeds[0] if alg in _CLUSTER_SOLVERS else seed, alg)
        for name, _, _, _ in datasets
        for seed in seeds
        for alg in algorithms
    }
    sources = {name: (X, oracle, cap) for name, X, oracle, cap in datasets}
    tasks = {run: (*sources[run[0]], run[1], run[2], knobs) for run in runs.values()}
    # the pool forks all its workers on first use, so never ask for more than there are runs
    workers = min(args.workers, len(tasks))
    if workers > 1:
        import concurrent.futures  # only a forking bench pays for the pool's imports

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = dict(zip(tasks, pool.map(_bench_cell, tasks.values())))
    else:
        outcomes = {run: _bench_cell(task) for run, task in tasks.items()}
    cells = {key: outcomes[run] for key, run in runs.items()}
    failures = sorted((*key, cell) for key, cell in cells.items() if isinstance(cell, str))
    done = {key: cell for key, cell in cells.items() if not isinstance(cell, str)}

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        finals: dict[tuple[str, str], list[float]] = {}
        files: dict[tuple[str, int, str], list[str]] = {}  # the trace files of each run
        for (name, seed, alg), (_, best) in done.items():
            path = os.path.join(args.out, f"trace_{name}_{alg}_{seed}.csv")
            files.setdefault(runs[name, seed, alg], []).append(path)
            finals.setdefault((name, alg), []).append(best)
        for run, paths in files.items():
            _write_trace(paths, outcomes[run][0])
        _write_csv(
            os.path.join(args.out, "summary.csv"),
            ["dataset", "algorithm", "mean_best", "std_best"],
            [[*key, _fmt(np.mean(v)), _fmt(np.std(v))] for key, v in sorted(finals.items())],
        )
        if failures:
            _write_csv(
                os.path.join(args.out, "failures.csv"),
                ["dataset", "seed", "algorithm", "error"],
                failures,
            )

    # an algorithm with a failed cell is left out of the ranking
    failed = {alg for _, _, alg, _ in failures}
    ranked = {key: trace for key, (trace, _) in done.items() if key[2] not in failed}
    if ranked:
        table = mean_rank(ranked, caps)
        if args.out:
            _write_csv(
                os.path.join(args.out, "mean_rank.csv"),
                ["fraction", "algorithm", "mean_rank"],
                [[_fmt(f), a, _fmt(m)] for f, a, m in table.rows()],
            )
        order = np.argsort(table.means[-1], kind="stable")
        ranking = ", ".join(f"{table.algorithms[i]}={table.means[-1][i]:.2f}" for i in order)
        print(f"mean rank at full budget: {ranking}")
    if failures:
        print(f"{len(failures)} of {len(cells)} cells failed; see failures.csv", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# estimate-eps


def _cmd_estimate_eps(args: argparse.Namespace) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError:
        raise InvalidParams(f"cannot parse --alphas {args.alphas!r}") from None
    if not alphas:
        raise InvalidParams("need at least one percentile")
    check_percentile_args(args.k, alphas)  # before the file is read
    bench = load_tabular(args.data)
    # one pass over the level rows, holding only the pair values that can
    # reach a percentile: no n x n matrix and no n(n-1)/2 pair array
    skipped: list[tuple[int, int]] = []
    rows = _level_rows(bench, skipped, args.strict)
    radius, percentiles = _scaled_percentiles(rows, bench.configs, args.k, alphas)
    if radius == 0:
        # every level is scaled by the radius, so each estimate would read 0
        raise InvalidParams(
            f"--k {args.k} centers cover every distinct configuration (radius 0); "
            "use a smaller --k"
        )
    for alpha in alphas:
        print(f"alpha={_fmt(alpha)} value={_fmt(percentiles[alpha])}")
    if skipped:
        print(f"skipped {len(skipped)} coincident pairs", file=sys.stderr)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_csv(
            os.path.join(args.out, "epsilon.csv"),
            ["alpha", "value"],
            [[_fmt(a), _fmt(percentiles[a])] for a in alphas],
        )
    return 0


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args: argparse.Namespace) -> int:
    if (args.hard is None) == (args.landscape is None):
        raise InvalidParams("give exactly one of --hard or --landscape")
    if args.hard is not None:
        spec = HardInstanceSpec(
            variant=args.hard,
            epsilon=args.epsilon,
            beta=args.beta,
            k=args.k,
            n_per_cluster=args.n,
            r=args.r,
            horizon=args.horizon,
            theta_frac=args.theta_frac,
            seed=args.seed,
        )
        configs, oracle = gen_hard(spec)
        curves = oracle.curves
    else:
        lspec = landscape(args.landscape, args.seed)
        configs = mesh_grid(lspec.domain, args.mesh)
        oracle = LandscapeOracle(lspec)
        curves = np.asarray([[oracle.query(c, 1)] for c in configs])
    save_tabular(args.out, configs, curves)
    print(f"wrote {args.out}: n={len(configs)} d={configs[0].dimension} T={curves.shape[1]}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvp", description="budget-allocation solvers and benchmarks"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run one algorithm on one instance")
    solve.add_argument("--algo", choices=ALGORITHMS, required=True)
    _add_source_args(solve)
    _add_knob_args(solve)
    solve.add_argument("--out", help="directory for outcome.csv and trace.csv")
    solve.set_defaults(fn=_cmd_solve)

    bench = subs.add_parser("bench", help="compare algorithms over datasets and seeds")
    _add_source_args(bench)
    bench.add_argument("--algos", help="comma list of algorithms (default: all)")
    bench.add_argument("--seeds", type=int, default=30, help="seeds per (dataset, algorithm)")
    _add_knob_args(bench)
    bench.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    bench.add_argument("--out", help="directory for traces, mean_rank.csv and summary.csv")
    bench.set_defaults(fn=_cmd_bench)

    est = subs.add_parser("estimate-eps", help="estimate the smoothness level of a benchmark")
    est.add_argument("--data", required=True)
    est.add_argument("--k", type=int, default=20, help="cover size for the radius scaling")
    alphas = ",".join(f"{a:g}" for a in DEFAULT_ALPHAS)
    est.add_argument("--alphas", default=alphas, help="comma list of percentiles")
    est.add_argument("--strict", action="store_true", help="fail on coincident embeddings")
    est.add_argument("--out", help="directory for epsilon.csv")
    est.set_defaults(fn=_cmd_estimate_eps)

    gen = subs.add_parser("gen", help="write a synthetic benchmark CSV")
    gen.add_argument("--hard", choices=("fc", "ac"), help="clustered worst-case instance variant")
    gen.add_argument(
        "--landscape", choices=LANDSCAPE_KINDS, help="tabulate an analytic surface on a mesh"
    )
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--epsilon", type=float, default=0.2)
    gen.add_argument("--beta", type=float, default=2.0)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--n", type=int, default=5, help="configurations per cluster")
    gen.add_argument("--r", type=float, default=1.0, help="intra-cluster distance")
    gen.add_argument("--horizon", type=int, default=3)
    gen.add_argument("--theta-frac", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mesh", type=int, default=3, help="mesh points per dimension for --landscape")
    gen.set_defaults(fn=_cmd_gen)
    return parser


def entry(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UvpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(entry())
