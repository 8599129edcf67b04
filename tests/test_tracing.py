"""perfbench's tracer still finds the names it wraps, and tracing changes no outcome.

``perfbench/tracing.py`` replaces names in ``uvp`` with traced wrappers, so a
change under ``src/`` that drops or renames one would otherwise fail only
the benchmark's own smoke job. The probe runs in a child process,
so the tracer's patches never reach the rest of the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json
import tracing
from uvp.cli import run_algorithm
from uvp.instances import gen_smooth
from uvp.solvers import SolverParams

X, oracle = gen_smooth(60, 3, 10, 0.3, 0)

def solve(oracle):
    out = run_algorithm("ada-cent", X, oracle, 200, 10, SolverParams())
    return [out.best, repr(out.best_value), repr(out.trace)]

plain = solve(oracle)
tracer = tracing.Tracer()
tracing.install(tracer)
traced = solve(tracing.TracedOracle(tracer, oracle))
print(json.dumps({
    "plain": plain,
    "traced": traced,
    "queries": tracer.summary()["instances.oracle_query"]["calls"],
    "units": tracer.counters["solvers.units"],
}))
"""


def test_traced_run_queries_once_per_unit_and_matches_the_plain_run():
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout)
    assert res["units"] == 200
    assert res["queries"] == res["units"]
    assert res["traced"] == res["plain"]
