"""Child process of the benchmark: one repetition of one workload's work.

run.py starts it with a single JSON argument and reads the JSON result it
writes to ``spec["result"]``. Modes:

  solve  build the instance, then run the workload's solver cells
  setup  build the instance and write it as CSV (tabular-cli)
  cli    call ``uvp.cli.entry`` on one argv inside this process, so the
         traced run can wrap the functions the CLI calls
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import checks
import workloads


def main(spec: dict) -> None:
    start_import = time.perf_counter()
    import numpy
    import scipy
    import uvp.cli

    end_import = time.perf_counter()
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.add("import.uvp", start_import, end_import)
        tracing.install(tracer)

    defn = workloads.definition(spec["workload"], spec["smoke"])
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    result: dict = {"versions": versions}
    if spec["mode"] in ("solve", "setup"):
        call = _call if tracer is None else lambda name, fn, *args: tracer.wrap(name, fn)(*args)
        X, oracle = _generate(defn, spec["seed"], call)
        if spec["mode"] == "setup":
            call("instances.save_tabular", uvp.instances.save_tabular, spec["csv"], X, oracle.curves)
        result["setup_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawn"]
        result["d"] = len(X[0].coords)
        if tracer is not None:
            # tracemalloc slows allocation-heavy code, so the peak comes from a
            # second, untimed build rather than from the timed one
            tracer.peak_memory("instances.build_peak_mb", _generate)(defn, spec["seed"], _call)
        if spec["mode"] == "solve":
            if tracer is not None:
                oracle = tracing.TracedOracle(tracer, oracle)
            result.update(_solve(defn, spec["seed"], X, oracle))
    else:
        entry = uvp.cli.entry
        if tracer is not None:
            entry = tracer.wrap("cli." + spec["argv"][0].replace("-", "_"), entry)
        with open(spec["stdout"], "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            result["exit_code"] = entry(spec["argv"])

    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        tracer.write(spec["spans"], spec["tag"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _call(name, fn, *args):
    return fn(*args)


def _generate(defn: dict, seed: int, call):
    """The workload's candidates and oracle, made through ``call(span name, fn, *args)``."""
    from uvp import instances

    inst = defn["instance"]
    if inst["source"] == "landscape":
        spec = instances.landscape(inst["landscape"], inst["landscape_seed"])
        X = call("instances.sample_uniform", instances.sample_uniform, spec.domain, inst["n"], seed)
        return X, instances.LandscapeOracle(spec, inst["horizon"])
    return call(
        "instances.gen_smooth",
        instances.gen_smooth,
        inst["n"],
        inst["d"],
        inst["horizon"],
        inst["epsilon"],
        seed,
    )


def _solve(defn: dict, seed: int, X, oracle) -> dict:
    """Run every cell, timing the runs as a whole; check outcomes afterwards."""
    from uvp.cli import Knobs, run_algorithm

    budget, horizon = defn["budget"], defn["instance"]["horizon"]
    outcomes = []
    t0 = time.perf_counter()
    for alg, predictor in defn["cells"]:
        try:
            knobs = Knobs(**workloads.knobs(predictor, seed))
            out = run_algorithm(alg, X, oracle, budget, horizon, knobs)
        except Exception as exc:  # a failed cell is reported, the others still run
            out = exc
        outcomes.append(out)
    run_s = time.perf_counter() - t0

    ops = []
    for (alg, predictor), out in zip(defn["cells"], outcomes):
        op = {"name": f"{alg}/{predictor}"}
        if isinstance(out, Exception):
            op.update(problems=[f"raised {type(out).__name__}: {out}"], digest=None)
        else:
            op.update(problems=checks.check_outcome(out, budget), digest=checks.outcome_digest(out))
        ops.append(op)
    return {"run_s": run_s, "ops": ops}


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
