#!/usr/bin/env python3
"""Dependence strength study.

Sweeps theta for SAR and SMA panels over one proximity matrix and prints
mean, sd, skewness and kurtosis of S~_B per theta, writing one summary CSV
per model. The mean should rise monotonically with theta and the sampling
distribution should look increasingly normal.
"""

import argparse
import os

from sbergsma import linear_chain, row_standardize, theta_sweep
from sbergsma.cli import _float_list, _non_negative_int
from sbergsma.io import save_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--R", type=int, default=14)
    ap.add_argument("--T", type=int, default=50)
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--thetas", type=_float_list, default="0,0.1,0.25,0.5,0.75,0.9")
    ap.add_argument("--seed", type=_non_negative_int, default=42)
    ap.add_argument("--outdir", default="theta_sweep")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    W = row_standardize(linear_chain(args.R))

    for model in ("SAR", "SMA"):
        sweep = theta_sweep(model, W, args.thetas, args.T, reps=args.reps, seed=args.seed)
        print(f"{model}  theta    mean      sd      skew    kurt")
        for theta in sweep.thetas:
            mean, sd, skew, kurt = sweep.summaries[theta]
            print(f"     {theta:6.3f}  {mean:7.4f}  {sd:6.4f}  {skew:+6.3f}  {kurt:5.3f}")
        save_sweep(os.path.join(args.outdir, f"sweep_{model.lower()}.csv"),
                   sweep, meta={"config": vars(args)})


if __name__ == "__main__":
    main()
