#!/usr/bin/env python3
"""Null distribution study.

Simulates Monte Carlo nulls of T * S~_B for several reference distributions
on one proximity matrix, reports their pairwise KS distances, and compares
the standard normal null against the eigenvalue-based asymptotic law.
Writes one CSV of samples per distribution plus a JSON summary.
"""

import argparse
import json
import os

from scipy.stats import ks_2samp

from sbergsma import (
    ReferenceDistribution,
    asymptotic_null_sample,
    linear_chain,
    monte_carlo_null,
    nystrom_eigenvalues,
    row_standardize,
)
from sbergsma.cli import _non_negative_int, _positive_int
from sbergsma.io import save_samples


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--R", type=int, default=14)
    ap.add_argument("--T", type=int, default=50)
    ap.add_argument("--reps", type=int, default=10_000)
    ap.add_argument("--families", default="normal,uniform,exponential,laplace,logistic,chi-square")
    ap.add_argument("--K", type=int, default=100)
    ap.add_argument("--grid", type=int, default=2000)
    ap.add_argument("--seed", type=_non_negative_int, default=1)
    ap.add_argument("--threads", type=_positive_int, default=4)
    ap.add_argument("--outdir", default="null_study")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    W = row_standardize(linear_chain(args.R))

    nulls = {}
    for fam in args.families.split(","):
        dist = ReferenceDistribution(fam, df=1.0)
        null = monte_carlo_null(
            dist, args.T, W, reps=args.reps, seed=args.seed, n_jobs=args.threads,
        )
        nulls[fam] = null
        save_samples(os.path.join(args.outdir, f"null_{fam}.csv"),
                     null.samples, meta={"config": vars(args)})
        print(f"{fam:12s} mean {null.samples.mean():+.4f} sd {null.samples.std():.4f}")

    fams = list(nulls)
    ks_table = {}
    for i, a in enumerate(fams):
        for b in fams[i + 1:]:
            ks_table[f"{a}|{b}"] = ks_2samp(nulls[a].samples, nulls[b].samples).statistic
    print("max pairwise KS across F:", max(ks_table.values()))

    spectrum = nystrom_eigenvalues(ReferenceDistribution("normal"), K=args.K, m=args.grid)
    asym = asymptotic_null_sample([spectrum] * args.R, W,
                                  n_draws=args.reps, seed=args.seed)
    save_samples(os.path.join(args.outdir, "null_asymptotic.csv"),
                 asym.samples, meta={"config": vars(args), **asym.meta})
    ks_asym = ks_2samp(asym.samples, nulls[fams[0]].samples).statistic
    print("KS asymptotic vs Monte Carlo:", ks_asym)

    with open(os.path.join(args.outdir, "summary.json"), "w") as fh:
        json.dump(
            {"config": vars(args), "pairwise_ks": ks_table,
             "ks_asym_vs_mc": ks_asym},
            fh, indent=2, sort_keys=True,
        )


if __name__ == "__main__":
    main()
