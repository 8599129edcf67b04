"""Compare budget allocators on the analytic landscapes.

Samples n points per landscape, runs every algorithm at a grid of budgets,
and writes one CSV of best values plus a mean-rank table. All draws are
seeded, so reruns reproduce the same numbers.

Usage:
    python3 scripts/compare_on_landscapes.py --out results/ --n 10000 --seeds 10
"""

import argparse
import csv
import os

import numpy as np

from uvp import UvpError
from uvp.analysis import mean_rank
from uvp.cli import ALGORITHMS, run_algorithm
from uvp.instances import LANDSCAPE_KINDS, LandscapeOracle, landscape, sample_uniform
from uvp.solvers import SolverParams


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="landscape_results")
    ap.add_argument("--kinds", default=",".join(LANDSCAPE_KINDS))
    ap.add_argument("--n", type=int, default=10000)
    ap.add_argument("--horizon", type=int, default=1)
    ap.add_argument("--budget", type=int, default=10)
    ap.add_argument("--epsilon", type=float, default=0.2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def main():
    args = parse_args()
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    os.makedirs(args.out, exist_ok=True)

    results = {}
    rows = []
    skipped = set()
    for kind in kinds:
        spec = landscape(kind, seed=args.seed)
        oracle = LandscapeOracle(spec, horizon=args.horizon)
        for seed in range(args.seed, args.seed + args.seeds):
            # resample the candidate pool per seed; the surface stays fixed
            X = sample_uniform(spec.domain, args.n, seed)
            for alg in ALGORITHMS:
                params = SolverParams(epsilon=args.epsilon, seed=seed)
                try:
                    out = run_algorithm(alg, X, oracle, args.budget, args.horizon, params)
                except UvpError as exc:
                    if alg not in skipped:
                        print(f"skipping {alg}: {exc}")
                    skipped.add(alg)
                    continue
                results[(kind, seed, alg)] = out.trace
                rows.append([kind, seed, alg, repr(out.best_value)])
                print(f"{kind:18s} seed={seed:3d} {alg:12s} best={out.best_value:.4f}")

    with open(os.path.join(args.out, "best_values.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["landscape", "seed", "algorithm", "best_value"])
        w.writerows(rows)

    caps = {kind: args.budget for kind in kinds}
    ranked = {k: v for k, v in results.items() if k[2] not in skipped}
    table = mean_rank(ranked, caps)
    with open(os.path.join(args.out, "mean_rank.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["fraction", "algorithm", "mean_rank"])
        for frac, alg, mean in table.rows():
            w.writerow([repr(frac), alg, repr(mean)])

    final = table.means[-1]
    order = np.argsort(final, kind="stable")
    print("\nmean rank at full budget:")
    for i in order:
        print(f"  {table.algorithms[i]:12s} {final[i]:.2f}")


if __name__ == "__main__":
    main()
