"""Outcome invariants and digests, shared by the parent and the worker.

A digest pins an outcome byte for byte, so a change that claims to be a pure
speed-up can be checked against the references in ``refs.json``. The
invariants hold for any seed: they are the paper's guarantees on a run
(spend within the cap, one trace point per unit, an anytime-monotone
incumbent, an incumbent that was actually probed).

Standard library only.
"""

from __future__ import annotations

import csv
import hashlib
import os


def trace_sha256(trace) -> str:
    """sha256 of a trace in the body layout of `uvp` trace CSVs."""
    text = "".join(f"{spent},{float(inc)!r}\n" for spent, inc in trace)
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_trace(trace, budget: int) -> list[str]:
    """Problems with an anytime trace of (units spent, incumbent) points."""
    if not trace:
        return ["empty trace"]
    problems = []
    for i, (spent, _) in enumerate(trace):
        if spent != i + 1:
            problems.append(f"trace point {i} has spend {spent}, expected {i + 1}")
            break
    if trace[-1][0] > budget:
        problems.append(f"spend {trace[-1][0]} exceeds budget {budget}")
    for i in range(1, len(trace)):
        if trace[i][1] < trace[i - 1][1]:
            problems.append(f"incumbent falls at trace point {i}")
            break
    return problems


def check_outcome(out, budget: int) -> list[str]:
    """Problems with a ``SearchOutcome``; its trace holds one point per unit spent."""
    problems = check_trace(out.trace, budget)
    if out.best not in out.histories:
        problems.append(f"best id {out.best} was never probed")
    elif out.best_value != out.histories[out.best].values[-1]:
        problems.append("best_value differs from the last value of its history")
    return problems


def outcome_digest(out) -> dict:
    return {
        "best": out.best,
        "best_value": repr(out.best_value),
        "trace_sha256": trace_sha256(out.trace),
    }


def read_trace_csv(path: str) -> list[tuple[int, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["spent", "incumbent"]]:
        raise ValueError(f"{path}: unexpected header {rows[:1]}")
    return [(int(s), float(v)) for s, v in rows[1:]]


def cli_digest(stdout_path: str, out_dir: str) -> dict:
    """sha256 of an invocation's stdout and of every file it wrote."""
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            files[name] = file_sha256(os.path.join(out_dir, name))
    return {"stdout_sha256": file_sha256(stdout_path), "files": files}


def check_bench(out_dir: str, expected: list[str], budget: int) -> list[str]:
    """Problems with the output directory of `uvp bench`."""
    have = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if have != expected:
        missing = sorted(set(expected) - set(have))
        extra = sorted(set(have) - set(expected))
        return [f"bench wrote unexpected files: missing {missing[:3]}, extra {extra[:3]}"]
    problems = []
    for name in have:
        if name.startswith("trace_"):
            trace = read_trace_csv(os.path.join(out_dir, name))
            problems += [f"{name}: {p}" for p in check_trace(trace, budget)]
    return problems


def check_estimate(stdout_path: str, alphas: str) -> list[str]:
    """Problems with the printed percentiles of `uvp estimate-eps`."""
    with open(stdout_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    wanted = [float(a) for a in alphas.split(",")]
    if len(lines) != len(wanted):
        return [f"estimate-eps printed {len(lines)} lines for {len(wanted)} percentiles"]
    values = []
    for line, alpha in zip(lines, wanted):
        fields = dict(part.split("=", 1) for part in line.split())
        if float(fields.get("alpha", "nan")) != alpha:
            return [f"unexpected estimate-eps line {line!r}"]
        values.append(float(fields["value"]))
    if any(v < 0 for v in values) or values != sorted(values):
        return [f"percentiles are negative or not non-decreasing: {values}"]
    return []
