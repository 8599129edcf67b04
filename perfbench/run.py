#!/usr/bin/env python3
"""Seeded benchmark of uvp: end-to-end time, memory and correctness.

Run from the repository root:

    python3 perfbench/run.py --workload landscape-10k --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1           # every workload, one after another
    python3 perfbench/run.py --workload smooth-curves --trace 1   # per-layer numbers

The workloads are defined, with every knob pinned, in ``workloads.py``.
Each repetition runs in fresh child processes: a worker (``worker.py``) that
imports uvp from ``src/`` and builds the instance from ``--seed``, and for
tabular-cli two `python -m uvp.cli` processes. Repetitions run one after
another, so at most two processes (this one and one child) are alive.
Repetitions repeat until ``--seconds`` have passed and at least three were
made (with ``--trace 1``, at least one of each kind); each metric is the
median over them.

End-to-end metrics (``--trace 0``):
  setup_s      child start until the instance is ready: interpreter start,
               `import uvp`, building candidates and oracle, and for
               tabular-cli writing the CSV
  run_s        wall time of the workload's fixed operations, untraced
  peak_rss_mb  highest peak resident set of any process of a repetition
The failed fraction is the ``failed`` count over ``attempted`` in the
result line. An operation is a solver cell or a CLI invocation; it fails if
it raises or exits non-zero, breaks an outcome invariant, differs from the
reference digest in ``refs.json`` for this seed (when there is one) or
differs from the first repetition of the run.

``--trace 1`` alternates untraced and traced repetitions; the traced ones
wrap uvp's public functions (``tracing.py``) and give the per-layer metrics,
and ``trace.overhead_s`` is the traced run_s minus the untraced one. Per-layer
times are per repetition. The result line carries the per-layer metrics that
every workload exercises; the functions only some workloads reach
(``DETAIL``) are printed above it, with zero meaning not called. Each run
writes its samples, metrics and provenance to
``.perfbench_out/<workload>/result.json`` and, if traced, its spans to
``.perfbench_out/<workload>/spans.csv``.

``--update-refs`` records the digests of this run as the references for its
workload and seed. ``--smoke`` runs tiny instances and compares no digests.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The benchmark exits non-zero, printing no
result, if uvp cannot be found or a repetition cannot be completed.
Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFS = HERE / "refs.json"
MIN_REPS = 3
# Children still running this long after a workload started are killed, so
# that a run of one workload ends within 180 s even if the program hangs.
HARD_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.uvp_s": "s",
    "instances.build_s": "s",
    "instances.build_peak_mb": "MB",
    "instances.oracle_query_calls": "count",
    "instances.oracle_query_s": "s",
    "core.run_step_calls": "count",
    "core.run_step_s": "s",
    "core.units_charged": "units",
    "core.candidates_probed": "count",
    "clustering.k_center_calls": "count",
    "clustering.k_center_s": "s",
    "clustering.e_k_center_calls": "count",
    "clustering.e_k_center_s": "s",
    "clustering.greedy_radius_calls": "count",
    "solvers.forecast_calls": "count",
    "solvers.forecast_s": "s",
    "solvers.self_s": "s",
    "solvers.pruned_unit_frac": "ratio",
    "baselines.units_charged": "units",
    "analysis.epsilon_pairwise_peak_mb": "MB",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
# Times of functions that only some workloads call. A time that reads 0 on
# every run of a workload cannot be told from a missing measurement, so
# these are printed but kept out of the result line.
DETAIL = {
    "instances.sample_uniform_s": "s",
    "instances.gen_smooth_s": "s",
    "instances.save_tabular_s": "s",
    "instances.load_tabular_s": "s",
    "clustering.greedy_radius_s": "s",
    "baselines.s": "s",
    "analysis.epsilon_pairwise_s": "s",
    "analysis.epsilon_percentiles_s": "s",
    "analysis.mean_rank_s": "s",
    "cli.bench_s": "s",
    "cli.estimate_eps_s": "s",
    "cli.self_s": "s",
}
FORECASTS = ("solvers.pred", "solvers.tail_fit_pred")


class BenchError(Exception):
    """A repetition could not be completed; the run reports no result."""


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a worker can measure
    # its set-up time from a start instant taken here.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Exit:
    code: int
    wall_s: float
    maxrss_mb: float


def spawn(argv: list[str], stdout: Path, stderr: Path, deadline: float) -> Exit:
    """Run one child to completion; wall time and peak RSS come from wait4."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    t0 = clock()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
    timer = threading.Timer(max(deadline - clock(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_maxrss / 1024)


@dataclass
class Rep:
    """One repetition: its timings, its operations and, if traced, its layers."""

    setup_s: float
    run_s: float
    peak_rss_mb: float
    ops: list[dict]
    layers: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    files_written: int = 0
    bytes_written: int = 0

    def absorb(self, result: dict) -> None:
        """Add the span summary and counters of one traced process."""
        for name, entry in result.get("layers", {}).items():
            mine = self.layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                mine[key] += value
        for name, value in result.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value


class Workload:
    def __init__(self, name: str, seed: int, smoke: bool, deadline: float) -> None:
        self.name, self.seed, self.smoke, self.deadline = name, seed, smoke, deadline
        self.defn = workloads.definition(name, smoke)
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.spans = self.work / "spans.csv"
        self.spans.write_text("process,index,name,start,end,parent\n")
        self.versions: dict = {}
        self.sizes: dict = {}
        self.count = 0

    def worker(self, spec: dict, tag: str, stderr: Path | None = None) -> tuple[dict, Exit]:
        self.count += 1
        tag = f"rep{self.count}-{tag}"
        result_path = self.work / f"{tag}.json"
        stderr = stderr or self.work / f"{tag}.err"
        spec = {
            **spec,
            "workload": self.name,
            "seed": self.seed,
            "smoke": self.smoke,
            "tag": tag,
            "result": str(result_path),
            "spans": str(self.spans),
        }
        spec["spawn"] = clock()
        argv = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
        ex = spawn(argv, self.work / f"{tag}.out", stderr, self.deadline)
        if ex.code != 0 or not result_path.exists():
            raise BenchError(f"{self.name}: worker {tag} exited with {ex.code}: {_tail(stderr)}")
        result = json.loads(result_path.read_text())
        self.versions = result["versions"]
        return result, ex

    def rep(self, traced: bool) -> Rep:
        if self.defn["mode"] == "solve":
            result, ex = self.worker({"mode": "solve", "trace": traced}, "solve")
            inst = self.defn["instance"]
            self.sizes = {
                "n": inst["n"],
                "d": result["d"],
                "T": inst["horizon"],
                "B": self.defn["budget"],
            }
            rep = Rep(result["setup_s"], result["run_s"], ex.maxrss_mb, result["ops"])
            rep.absorb(result)
            return rep
        return self._cli_rep(traced)

    def _cli_rep(self, traced: bool) -> Rep:
        csv_path = self.work / workloads.CSV_NAME
        spec = {"mode": "setup", "trace": traced, "csv": str(csv_path)}
        setup, setup_exit = self.worker(spec, "setup")
        inst = self.defn["instance"]
        self.sizes = {
            "n": inst["n"],
            "d": setup["d"],
            "T": inst["horizon"],
            "B": self.defn["budget"],
            "csv_rows": inst["n"] * inst["horizon"],
            "csv_bytes": csv_path.stat().st_size,
        }
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        rep = Rep(setup["setup_s"], 0.0, setup_exit.maxrss_mb, [])
        rep.absorb(setup)
        for sub, argv in workloads.cli_argv(self.defn, str(csv_path), str(out_dir)).items():
            stdout, stderr = self.work / f"{sub}.stdout", self.work / f"{sub}.err"
            if traced:
                spec = {"mode": "cli", "trace": True, "argv": argv, "stdout": str(stdout)}
                result, ex = self.worker(spec, sub, stderr)
                code = result["exit_code"]
                rep.absorb(result)
            else:
                ex = spawn([sys.executable, "-m", "uvp.cli", *argv], stdout, stderr, self.deadline)
                code = ex.code
            if ex.code < 0:
                raise BenchError(f"{self.name}: `uvp {sub}` was killed by signal {-ex.code}")
            rep.run_s += ex.wall_s
            rep.peak_rss_mb = max(rep.peak_rss_mb, ex.maxrss_mb)
            rep.ops.append(self._check_cli(sub, code, stdout, stderr, out_dir / sub))
        for path in out_dir.rglob("*"):
            if path.is_file():
                rep.files_written += 1
                rep.bytes_written += path.stat().st_size
        return rep

    def _check_cli(self, sub: str, code: int, stdout: Path, stderr: Path, out_dir: Path) -> dict:
        problems = [] if code == 0 else [f"exit code {code}: {_tail(stderr)}"]
        try:
            if sub == "bench":
                expected = workloads.bench_files(self.defn)
                problems += checks.check_bench(str(out_dir), expected, self.defn["budget"])
            else:
                problems += checks.check_estimate(str(stdout), self.defn["eps_alphas"])
            digest = checks.cli_digest(str(stdout), str(out_dir))
        except (OSError, ValueError) as exc:
            return {"name": sub, "problems": problems + [f"unreadable output: {exc}"], "digest": None}
        return {"name": sub, "problems": problems, "digest": digest}


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return "(no stderr)"


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer values of one traced repetition (trace.overhead_s aside)."""
    layers, counters = rep.layers, rep.counters

    def total(*names: str) -> float:
        return sum(layers[n]["total_s"] for n in names if n in layers)

    def calls(*names: str) -> int:
        return sum(layers[n]["calls"] for n in names if n in layers)

    def self_time(prefix: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(v["self_s"] for n, v in layers.items() if n.startswith(prefix) and n not in exclude)

    build = ("instances.sample_uniform", "instances.gen_smooth", "instances.save_tabular")
    solver_units = counters.get("solvers.units", 0)
    return {
        "import.uvp_s": total("import.uvp"),
        "instances.build_s": total(*build),
        "instances.build_peak_mb": counters.get("instances.build_peak_mb", 0.0),
        "instances.oracle_query_calls": calls("instances.oracle_query"),
        "instances.oracle_query_s": total("instances.oracle_query"),
        "core.run_step_calls": calls("core.run_step"),
        "core.run_step_s": total("core.run_step"),
        "core.units_charged": solver_units + counters.get("baselines.units", 0),
        "core.candidates_probed": (
            counters.get("solvers.probed", 0) + counters.get("baselines.probed", 0)
        ),
        "clustering.k_center_calls": calls("clustering.k_center"),
        "clustering.k_center_s": total("clustering.k_center"),
        "clustering.e_k_center_calls": calls("clustering.e_k_center"),
        "clustering.e_k_center_s": total("clustering.e_k_center"),
        "clustering.greedy_radius_calls": calls("clustering.greedy_radius"),
        "solvers.forecast_calls": calls(*FORECASTS),
        "solvers.forecast_s": total(*FORECASTS),
        "solvers.self_s": self_time("solvers.", exclude=FORECASTS),
        "solvers.pruned_unit_frac": (
            counters.get("solvers.pruned_units", 0) / solver_units if solver_units else 0.0
        ),
        "baselines.units_charged": counters.get("baselines.units", 0),
        "analysis.epsilon_pairwise_peak_mb": counters.get("analysis.epsilon_pairwise_peak_mb", 0.0),
        "cli.files_written": rep.files_written,
        "cli.bytes_written": rep.bytes_written,
        "instances.sample_uniform_s": total("instances.sample_uniform"),
        "instances.gen_smooth_s": total("instances.gen_smooth"),
        "instances.save_tabular_s": total("instances.save_tabular"),
        "instances.load_tabular_s": total("instances.load_tabular"),
        "clustering.greedy_radius_s": total("clustering.greedy_radius"),
        "baselines.s": total(
            "baselines.random_search", "baselines.successive_halving", "baselines.hyperband"
        ),
        "analysis.epsilon_pairwise_s": total("analysis.epsilon_pairwise"),
        "analysis.epsilon_percentiles_s": total("analysis.epsilon_percentiles"),
        "analysis.mean_rank_s": total("analysis.mean_rank"),
        "cli.bench_s": total("cli.bench"),
        "cli.estimate_eps_s": total("cli.estimate_eps"),
        "cli.self_s": self_time("cli."),
    }


def load_refs() -> dict:
    return json.loads(REFS.read_text()) if REFS.exists() else {}


def judge(w: Workload, reps: list[Rep], refs: dict | None) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all repetitions, with reasons."""
    expected = (refs or {}).get(w.name, {}).get(str(w.seed))
    first = {op["name"]: op["digest"] for op in reps[0].ops}
    attempted, failed, reasons = 0, 0, []
    for i, rep in enumerate(reps):
        for op in rep.ops:
            attempted += 1
            why = list(op["problems"])
            if expected is not None and op["digest"] != expected.get(op["name"]):
                why.append("digest differs from refs.json")
            if op["digest"] != first.get(op["name"]):
                why.append("digest differs from the first repetition")
            if why:
                failed += 1
                reasons.append(f"rep {i + 1} {op['name']}: {'; '.join(why)}")
    return attempted, failed, reasons


def run_workload(name: str, args: argparse.Namespace, refs: dict | None) -> dict:
    w = Workload(name, args.seed, args.smoke, clock() + HARD_LIMIT_S)
    plain: list[Rep] = []
    traced: list[Rep] = []
    start = clock()
    while True:
        plain.append(w.rep(traced=False))
        if args.trace:
            traced.append(w.rep(traced=True))
        if clock() - start >= args.seconds and (args.trace or len(plain) >= MIN_REPS):
            break
    attempted, failed, reasons = judge(w, plain + traced, refs)
    median = statistics.median
    if args.trace:
        per_rep = [layer_metrics(r) for r in traced]
        # the lower median keeps counts whole when there is an even number of reps
        values = {key: statistics.median_low([m[key] for m in per_rep]) for key in per_rep[0]}
        values["trace.overhead_s"] = median([r.run_s for r in traced]) - median([r.run_s for r in plain])
        units = {**PER_LAYER, **DETAIL}
    else:
        values = {
            "setup_s": median([r.setup_s for r in plain]),
            "run_s": median([r.run_s for r in plain]),
            "peak_rss_mb": median([r.peak_rss_mb for r in plain]),
        }
        units = END_TO_END
    return {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "reps": len(plain) + len(traced),
        "samples": {
            "setup_s": [r.setup_s for r in plain],
            "run_s": [r.run_s for r in plain],
            "traced_run_s": [r.run_s for r in traced],
        },
        "values": values,
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "provenance": {
            "nproc": os.cpu_count(),
            **w.versions,
            "commit": git_commit(),
            "sizes": w.sizes,
            "smoke": args.smoke,
        },
        "digests": {op["name"]: op["digest"] for op in plain[0].ops},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(res: dict) -> None:
    n = len(res["samples"]["run_s"])
    print(f"== {res['workload']}  seed={res['seed']}  trace={res['trace']}  repetitions={res['reps']}")
    for key, value in res["values"].items():
        note = ""
        if key in ("setup_s", "run_s"):
            xs = res["samples"][key]
            note = f"  median of {n}, range {min(xs):.4f}..{max(xs):.4f}"
        print(f"  {key:34s} {value:>14.6g} {res['units'][key]}{note}")
    frac = res["failed"] / res["attempted"]
    counts = f"({res['failed']} of {res['attempted']} operations)"
    print(f"  {'failed_frac':34s} {frac:>14.6g} ratio  {counts}")
    for reason in res["reasons"][:20]:
        print(f"  FAILED {reason}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=0, help="seed the workload's inputs are made from")
    parser.add_argument("--seconds", type=float, default=25.0, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--smoke", action="store_true", help="tiny instances, no reference digests")
    parser.add_argument(
        "--update-refs", action="store_true", help="store this run's digests in refs.json"
    )
    args = parser.parse_args(argv)
    if args.smoke and args.update_refs:
        parser.error("references are recorded at full size only")

    if not (SRC / "uvp" / "__init__.py").is_file():
        print(f"error: no uvp package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    # Compile once up front, so the first repetition does not pay for it.
    compileall.compile_dir(str(SRC / "uvp"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    refs = None if (args.smoke or args.update_refs) else load_refs()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args, refs))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
        (WORK / res["workload"] / "result.json").write_text(json.dumps(res, indent=1) + "\n")

    if args.update_refs:
        all_refs = load_refs()
        for res in results:
            if res["failed"]:
                print(f"error: not recording {res['workload']}: operations failed", file=sys.stderr)
                return 1
            all_refs.setdefault(res["workload"], {})[str(args.seed)] = res["digests"]
        REFS.write_text(json.dumps(all_refs, indent=1, sort_keys=True) + "\n")

    wanted = PER_LAYER if args.trace else END_TO_END
    if len(results) == 1:
        metrics = {k: {"value": results[0]["values"][k], "unit": u} for k, u in wanted.items()}
    else:
        metrics = {
            f"{res['workload']}.{k}": {"value": res["values"][k], "unit": u}
            for res in results
            for k, u in wanted.items()
        }
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
