#!/usr/bin/env python3
"""Null distribution study.

Simulates Monte Carlo nulls of T * S~_B for several reference distributions
on one proximity matrix, reports their pairwise KS distances, and compares
the null of the first family in --families against the eigenvalue-based
asymptotic law built from that same family's spectrum.
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
from sbergsma.io import atomic_write_text, save_samples
from sbergsma.reference import FAMILIES


def _families(text):
    """argparse type: a comma-separated list of reference families."""
    unknown = [f for f in text.split(",") if f not in FAMILIES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown family {unknown[0]!r}; supported: {', '.join(FAMILIES)}")
    return text  # kept as given, so the recorded config reads as typed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--R", type=_positive_int, default=14)
    ap.add_argument("--T", type=_positive_int, default=50)
    ap.add_argument("--reps", type=_positive_int, default=10_000)
    ap.add_argument("--families", type=_families,
                    default="normal,uniform,exponential,laplace,logistic,chi-square")
    ap.add_argument("--K", type=_positive_int, default=100)
    ap.add_argument("--grid", type=_positive_int, default=2000)
    ap.add_argument("--seed", type=_non_negative_int, default=1)
    ap.add_argument("--threads", type=_positive_int, default=4)
    ap.add_argument("--outdir", default="null_study")
    args = ap.parse_args()
    # the thread count and the directory change no value the files hold
    config = {k: v for k, v in vars(args).items() if k not in ("threads", "outdir")}

    # every result exists before --outdir is made, so a size the library
    # rejects leaves no directory behind
    W = row_standardize(linear_chain(args.R))
    laws = {fam: ReferenceDistribution(fam, df=1.0) for fam in args.families.split(",")}
    nulls = {
        fam: monte_carlo_null(law, args.T, W, reps=args.reps, seed=args.seed,
                              n_jobs=args.threads)
        for fam, law in laws.items()
    }
    fams = list(nulls)
    ks_table = {}
    for i, a in enumerate(fams):
        for b in fams[i + 1:]:
            ks_table[f"{a}|{b}"] = ks_2samp(nulls[a].samples, nulls[b].samples).statistic
    # the asymptotic law of the same family as the Monte Carlo null it is compared with
    spectrum = nystrom_eigenvalues(laws[fams[0]], K=args.K, m=args.grid)
    asym = asymptotic_null_sample([spectrum] * args.R, W,
                                  n_draws=args.reps, seed=args.seed)
    ks_asym = ks_2samp(asym.samples, nulls[fams[0]].samples).statistic

    os.makedirs(args.outdir, exist_ok=True)
    for fam, null in nulls.items():
        save_samples(os.path.join(args.outdir, f"null_{fam}.csv"),
                     null.samples, meta={"config": config})
        print(f"{fam:12s} mean {null.samples.mean():+.4f} sd {null.samples.std():.4f}")
    if ks_table:  # none with one family
        print("max pairwise KS across F:", max(ks_table.values()))
    save_samples(os.path.join(args.outdir, "null_asymptotic.csv"),
                 asym.samples, meta={"config": config, **asym.meta})
    print("KS asymptotic vs Monte Carlo:", ks_asym)

    summary = {"config": config, "pairwise_ks": ks_table, "ks_asym_vs_mc": ks_asym}
    atomic_write_text(os.path.join(args.outdir, "summary.json"),
                      json.dumps(summary, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
