"""Measure random search against the planted-cluster hardness ceiling.

On the adversarial family where only one cluster carries value, any
non-adaptive sampler's expected best value is capped near
(1 - eps*r) / (beta - 1). This script estimates the empirical mean over many
seeded trials and prints it next to that cap. Instance placement and the
sampler's draws use decorrelated seed streams.

Usage:
    python3 scripts/hardness_ceiling.py --trials 2000
"""

import argparse
import math

import numpy as np

from uvp import BudgetLedger, SolverParams
from uvp.instances import gen_hard
from uvp.solvers import random_search


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--epsilon", type=float, default=0.5)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--n-per-cluster", type=int, default=50)
    ap.add_argument("--r", type=float, default=1.0)
    ap.add_argument("--horizon", type=int, default=3)
    ap.add_argument("--budget", type=int, default=6)
    ap.add_argument("--seed-offset", type=int, default=100000)
    return ap.parse_args()


def main():
    args = parse_args()
    values = []
    for trial in range(args.trials):
        configs, oracle = gen_hard(
            variant="fc",
            epsilon=args.epsilon,
            beta=args.beta,
            k=args.k,
            n_per_cluster=args.n_per_cluster,
            r=args.r,
            horizon=args.horizon,
            seed=args.seed_offset + trial,
        )
        params = SolverParams(seed=trial)
        out = random_search(params, configs, oracle, BudgetLedger(args.budget))
        values.append(out.best_value)

    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    cap = (1.0 - args.epsilon * args.r) / (args.beta - 1.0)
    slack = 1.0 / (args.n_per_cluster * (args.beta - 1.0))
    print(f"trials            {args.trials}")
    print(f"empirical mean    {mean:.4f} +- {se:.4f} (se)")
    print(f"analytic cap      {cap:.4f}")
    print(f"cap + finite-n    {cap + slack:.4f}")
    print(f"cap + n + 3se     {cap + slack + 3 * se:.4f}")
    verdict = "below" if mean <= cap + slack + 3 * se else "ABOVE"
    print(f"mean sits {verdict} the ceiling")


if __name__ == "__main__":
    main()
