#!/usr/bin/env python3
"""Calibrate the induced-P4 count of the overlay construction.

For each (eps, seed) the script reads the ``overlay-audit`` row (the exact
induced-P4 counts of the construction and whether every copy stays inside
one part) and prints the ratio embeddings / (eps^6 n^4).  The maximum
observed ratio is what pins the regression constant used by the acceptance
suite.
"""

import argparse
from fractions import Fraction

from homlab.experiments import ExperimentConfig, run_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=150)
    ap.add_argument("--eps", nargs="+", default=["1/20", "1/10"])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = ap.parse_args()

    worst = Fraction(0)
    for eps_text in args.eps:
        config = ExperimentConfig(
            kind="overlay-audit", grid={"n": args.n, "eps": [eps_text]}, seeds=tuple(args.seeds)
        )
        for seed, row in zip(args.seeds, run_experiment(config)):  # one row per seed
            d = row.as_dict()
            if row.verdict == "error:capability":
                raise SystemExit(f"error: {d['error']}")
            eps, n = d["eps"], d["n"]
            ratio = Fraction(d["p4_embeddings"]) / (eps**6 * n**4)
            worst = max(worst, ratio)
            print(
                f"eps={eps} seed={seed} s={d['s']} "
                f"subsets={d['p4_subsets']} embeddings={d['p4_embeddings']} "
                f"ratio={float(ratio):.1f} within_part={d['all_within_part']}"
            )
    print(f"max ratio: {float(worst):.1f}  (regression constant must be >= this)")


if __name__ == "__main__":
    main()
