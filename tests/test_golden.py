"""Golden outcomes: every algorithm reproduces its committed digest.

Each case runs one algorithm through ``uvp.cli.run_algorithm`` on a small
seeded instance and hashes (best, repr(best_value), trace); a case that
raises a ``UvpError`` hashes the exception's class name instead. The digests
live in ``golden_outcomes.json`` next to this file. Regenerate them with
``python tests/test_golden.py`` only in a change that means to alter
outcomes and says which in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import gen_isolated_optimum
from uvp.cli import ALGORITHMS, run_algorithm
from uvp.core import UvpError
from uvp.instances import (
    HardInstanceSpec,
    LandscapeOracle,
    gen_hard,
    gen_smooth,
    landscape,
    sample_uniform,
)
from uvp.solvers import SolverParams
from uvp.solvers import PREDICTORS

GOLDEN = Path(__file__).with_name("golden_outcomes.json")
SEEDS = (0, 1, 2)


def _smooth(seed):
    X, oracle = gen_smooth(60, 3, 20, 0.3, seed)
    return X, oracle, 200


def _smooth_ragged(seed):
    # B = 207 is off every multiple of T = 20, so fills are cut by the cap
    X, oracle = gen_smooth(60, 3, 20, 0.3, seed)
    return X, oracle, 207


def _landscape(seed):
    spec = landscape("multimodal-bumps", seed)
    return sample_uniform(spec.domain, 200, seed), LandscapeOracle(spec, 1), 20


def _hard(variant):
    def build(seed):
        spec = HardInstanceSpec(variant, 0.5, 2.0, 2, 5, 1.0, 10, seed=seed)
        X, oracle = gen_hard(spec)
        return X, oracle, 60

    return build


def _isolated(seed):
    X, oracle = gen_isolated_optimum()
    return X, oracle, 4


# instance name -> seed -> (candidates, oracle, budget); the horizon is the oracle's
INSTANCES = {
    "smooth": _smooth,
    "smooth-ragged": _smooth_ragged,
    "landscape": _landscape,
    "hard-fc": _hard("fc"),
    "hard-ac": _hard("ac"),
    "isolated": _isolated,
}


def case_names() -> list[str]:
    return [
        f"{algo}/{predictor}/{instance}/{seed}"
        for instance in INSTANCES
        for seed in SEEDS
        for algo in ALGORITHMS
        for predictor in PREDICTORS
    ]


def _digest(algo, predictor, seed, X, oracle, budget) -> str:
    knobs = SolverParams(p=5, predictor=predictor, seed=seed)
    try:
        out = run_algorithm(algo, X, oracle, budget, oracle.horizon, knobs)
    except UvpError as exc:
        record = ["error", type(exc).__name__]
    else:
        trace = [[s, repr(float(v))] for s, v in out.trace]
        record = [out.best, repr(float(out.best_value)), trace]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def case_digest(name: str) -> str:
    """sha256 of one case's outcome, or of the error class it raises."""
    algo, predictor, instance, seed = name.split("/")
    return _digest(algo, predictor, int(seed), *INSTANCES[instance](int(seed)))


def test_outcomes_match_committed_digests():
    """Every case, twice over, on one (candidates, oracle) pair per instance and seed.

    ``uvp bench`` reuses its instances across cells in the same way, so a
    solve that leaves state behind in them shows as a changed second digest.
    """
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(case_names())
    changed = []
    for instance, build in INSTANCES.items():
        for seed in SEEDS:
            X, oracle, budget = build(seed)
            for rerun in (False, True):
                for algo in ALGORITHMS:
                    for predictor in PREDICTORS:
                        name = f"{algo}/{predictor}/{instance}/{seed}"
                        if _digest(algo, predictor, seed, X, oracle, budget) != golden[name]:
                            changed.append(f"{name} (rerun)" if rerun else name)
    assert not changed, f"{len(changed)} outcomes changed, first {changed[:5]}"


def test_digest_is_independent_of_hash_seed():
    name = "e-ada-cent/tail-fit/hard-ac/1"
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=path)
    code = f"import test_golden; print(test_golden.case_digest({name!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: case_digest(name) for name in case_names()}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
