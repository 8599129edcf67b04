"""In-memory spans around the calls into each uvp layer, from outside uvp.

Each public function is wrapped at the name its caller looks it up by, so
nothing under ``src/`` changes: ``uvp.clustering.k_center`` for the
solvers, ``uvp.analysis.k_center`` for the analysis tools, the forecasts in
``uvp.solvers``, and the names imported into ``uvp.cli``. Oracle queries are
counted through a delegating ``ValueOracle``. A span records its name, start,
end and parent; spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import collections
import functools
import time
import tracemalloc

from uvp import analysis, cli, clustering, core, instances, solvers
from uvp.core import ValueOracle

MB = 1024 * 1024


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: collections.Counter = collections.Counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller, as a root span."""
        self.spans.append([name, start, end, -1])

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs outside it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def peak_memory(self, counter: str, fn):
        """``fn`` with its peak traced allocation added to ``counter`` in MB."""

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counters[counter] += tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()

        return measured

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total time and self time.

        Self time is a span's duration minus the durations of its children;
        spans of one thread nest, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def write(self, path: str, process: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{process},{i},{name},{start!r},{end!r},{parent}\n")


def _outcome_counts(tracer: Tracer, layer: str):
    """Units, probed candidates and pruned units of one solver or baseline call."""

    def count(args, out) -> None:
        oracle, ledger = args[-2], args[-1]  # every entry point ends (..., oracle, ledger)
        tracer.counters[f"{layer}.units"] += ledger.spent
        tracer.counters[f"{layer}.probed"] += len(out.histories)
        tracer.counters[f"{layer}.pruned_units"] += sum(
            len(h) for h in out.histories.values() if len(h) < oracle.horizon
        )

    return count


class TracedOracle(ValueOracle):
    """Delegates to ``inner`` and records each query as a span."""

    def __init__(self, tracer: Tracer, inner: ValueOracle) -> None:
        super().__init__(inner.dimension, inner.horizon)
        self._query = tracer.wrap("instances.oracle_query", inner.query)

    def query(self, config, b):
        return self._query(config, b)


def install(tracer: Tracer) -> None:
    """Wrap uvp's public functions where their callers look them up."""
    for owner, attr, name in (
        (clustering, "k_center", "clustering.k_center"),
        (clustering, "e_k_center", "clustering.e_k_center"),
        (analysis, "k_center", "clustering.k_center"),
        (analysis, "greedy_radius", "clustering.greedy_radius"),
        (solvers, "pred", "solvers.pred"),
        (solvers, "tail_fit_pred", "solvers.tail_fit_pred"),
        (core.Run, "step", "core.run_step"),
        (cli, "load_tabular", "instances.load_tabular"),
        (cli, "epsilon_percentiles", "analysis.epsilon_percentiles"),
        (cli, "mean_rank", "analysis.mean_rank"),
    ):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    cli.epsilon_pairwise = tracer.wrap(
        "analysis.epsilon_pairwise",
        tracer.peak_memory("analysis.epsilon_pairwise_peak_mb", cli.epsilon_pairwise),
    )
    for key, fn in cli._CLUSTER_SOLVERS.items():
        cli._CLUSTER_SOLVERS[key] = tracer.wrap(
            f"solvers.{fn.__name__}", fn, after=_outcome_counts(tracer, "solvers")
        )
    baseline_counts = _outcome_counts(tracer, "baselines")
    for attr in ("random_search", "successive_halving", "hyperband"):
        baseline = getattr(cli, attr)
        setattr(cli, attr, tracer.wrap(f"baselines.{attr}", baseline, after=baseline_counts))
    make_oracle = instances.TabularBenchmark.oracle
    instances.TabularBenchmark.oracle = lambda bench: TracedOracle(tracer, make_oracle(bench))
