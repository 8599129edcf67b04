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

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import contextlib
import io
import json
import os
import sys
import tracing
from uvp.cli import entry, run_algorithm
from uvp.instances import gen_smooth, save_tabular
from uvp.solvers import SolverParams

X, oracle = gen_smooth(60, 3, 10, 0.3, 0)
data = os.path.join(sys.argv[1], "curves.csv")
save_tabular(data, X, oracle.curves)

def solve(oracle):
    out = run_algorithm("ada-cent", X, oracle, 200, 10, SolverParams())
    return [out.best, repr(out.best_value), repr(out.trace)]

def estimate():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entry(["estimate-eps", "--data", data, "--k", "5"])
    return [code, out.getvalue()]

plain, plain_eps = solve(oracle), estimate()
tracer = tracing.Tracer()
tracing.install(tracer)
traced, traced_eps = solve(tracing.TracedOracle(tracer, oracle)), estimate()
summary = tracer.summary()
print(json.dumps({
    "plain": plain,
    "traced": traced,
    "queries": summary["instances.oracle_query"]["calls"],
    "units": tracer.counters["solvers.units"],
    "plain_eps": plain_eps,
    "traced_eps": traced_eps,
    "eps_spans": summary.get("analysis.epsilon_percentiles", {}).get("calls", 0),
}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path_factory.mktemp("probe"))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_traced_run_queries_once_per_unit_and_matches_the_plain_run(probe):
    assert probe["units"] == 200
    assert probe["queries"] == probe["units"]
    assert probe["traced"] == probe["plain"]


def test_traced_estimate_is_one_epsilon_percentiles_call(probe):
    # estimate-eps makes one library call, which the tracer wraps where the
    # command looks it up, and its output does not change under the tracer
    assert probe["plain_eps"][0] == 0 and probe["plain_eps"][1].startswith("alpha=90.0 value=")
    assert probe["traced_eps"] == probe["plain_eps"]
    assert probe["eps_spans"] == 1
