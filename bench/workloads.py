"""The benchmark's four workloads: inputs, CLI arguments and correctness checks.

Inputs are generated with plain numpy from the workload seed, never with
``sbergsma.simulate_panel``, so a change to the library cannot change the
data it is measured on.  Every file the CLI sees is named relative to the
work directory, so output files are byte-identical between runs of one seed.

Checks run after the timed calls, in the benchmark's own process.  They use
tolerances, not digests: an exact-arithmetic rewrite of the kernel (a
different summation order, say) still passes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: relative tolerance of every S~_B comparison; "relative" is to the sum of
#: |(w_ij + w_ji) rho_ij| / S0, the size of the terms S~_B sums, so a null
#: replicate whose S~_B is near zero is not held to a tighter absolute error
REL_TOL = 1e-12

# 14-district adjacency of the paper's design (tests/conftest.py): mostly a
# north-south chain with a few cross edges
DISTRICT_EDGES = [
    (1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7),
    (6, 7), (7, 8), (8, 9), (8, 10), (9, 10), (10, 11), (10, 12),
    (11, 12), (11, 13), (12, 13), (13, 14), (12, 14),
]

PAPER_R, PAPER_T, PAPER_THETA = 14, 50, 0.5
MC_REPS, MC_BOOTSTRAP, MC_CUTOFF_SIMS = 2000, 200, 2000
ASYM_REPS, ASYM_K, ASYM_GRID, ASYM_CUTOFF = 50, 100, 2000, 0.2
SWEEP_THETAS, SWEEP_REPS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9), 300
LARGE_R, LARGE_T, LARGE_REPS = 50, 200, 20


def row_standardized(adjacency: np.ndarray) -> np.ndarray:
    return adjacency / adjacency.sum(axis=1, keepdims=True)


def district_w() -> np.ndarray:
    A = np.zeros((PAPER_R, PAPER_R))
    for i, j in DISTRICT_EDGES:
        A[i - 1, j - 1] = A[j - 1, i - 1] = 1.0
    return row_standardized(A)


def chain_w(R: int) -> np.ndarray:
    A = np.zeros((R, R))
    idx = np.arange(R - 1)
    A[idx, idx + 1] = A[idx + 1, idx] = 1.0
    return row_standardized(A)


def oracle_sb(X: np.ndarray, W: np.ndarray):
    """S~_B of each panel in a (B, T, R) stack, by direct transcription.

    One centred kernel per region, then a loop over the weighted region
    pairs, each kappa~ a plain sum over the strict upper triangle.  Shares no
    code with the package.  Returns ``(values, scales)``, where a scale is
    sum |(w_ij + w_ji) rho_ij| / S0.
    """
    B, T, R = X.shape
    upper = np.triu(np.ones((T, T), dtype=bool), k=1)
    n_pairs = T * (T - 1) / 2
    H = []
    for i in range(R):
        z = X[:, :, i]
        D = np.abs(z[:, :, None] - z[:, None, :])
        row = D.mean(axis=2)
        grand = row.mean(axis=1)
        centred = row[:, :, None] + row[:, None, :] - grand[:, None, None]
        H.append((-0.5 * (D - T / (T - 1) * centred))[:, upper])

    def kappa(i, j):
        return (H[i] * H[j]).sum(axis=1) / n_pairs

    self_kappa = [kappa(i, i) for i in range(R)]
    total, scale = np.zeros(B), np.zeros(B)
    for i in range(R):
        for j in range(i + 1, R):
            w = W[i, j] + W[j, i]
            if w:
                term = w * kappa(i, j) / np.sqrt(self_kappa[i] * self_kappa[j])
                total += term
                scale += np.abs(term)
    s0 = W.sum()
    return total / s0, scale / s0


def _mismatch(label, got, want, scale):
    err = abs(got - want)
    if not err <= REL_TOL * scale:
        return [f"{label}: {got!r} vs oracle {want!r} (|diff| {err:.3g}, "
                f"tolerance {REL_TOL * scale:.3g})"]
    return []


def _null_panel(seed: int, r: int, T: int, R: int) -> np.ndarray:
    # replicate r of a standard-normal null is drawn from stream (seed, r)
    from sbergsma.rng import stream

    return stream(seed, r).standard_normal((T, R))


def _p_value_checks(p, null, observed, n) -> list:
    """p in [1/(N+1), 1] and equal to the add-one tail share of ``null``."""
    fails = []
    if not 1.0 / (n + 1) <= p <= 1.0:
        fails.append(f"p-value {p!r} outside [1/(N+1), 1] for N={n}")
    slack = REL_TOL * max(1.0, abs(observed))
    lo = (1 + np.count_nonzero(null >= observed + slack)) / (n + 1)
    hi = (1 + np.count_nonzero(null >= observed - slack)) / (n + 1)
    if not lo <= p <= hi:
        fails.append(f"p-value {p!r} is not the null tail share [{lo!r}, {hi!r}]")
    return fails


# -- inputs -------------------------------------------------------------------

def _write_paper_inputs(work: str, seed: int) -> None:
    """SAR(theta = 0.5) panel on the district adjacency, plus its edge list."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((PAPER_T, PAPER_R))
    A = np.eye(PAPER_R) - PAPER_THETA * district_w()
    Y = np.linalg.solve(A, eps.T).T
    with open(os.path.join(work, "panel.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"D{i + 1}" for i in range(PAPER_R)])
        w.writerows([["%.17g" % v for v in row] for row in Y])
    with open(os.path.join(work, "edges.csv"), "w") as fh:
        fh.writelines(f"{i},{j}\n" for i, j in DISTRICT_EDGES)


def _no_inputs(work: str, seed: int) -> None:
    """The CLI builds W itself and its only input is the seed."""


def _paper_args(seed):
    return ["test", "panel.csv", "--weights", "edges.csv", "--weights-kind", "edges",
            "--regions", str(PAPER_R), "--seed", str(seed), "-o", "out.json"]


def _load_panel(work: str) -> np.ndarray:
    return np.loadtxt(os.path.join(work, "panel.csv"), delimiter=",", skiprows=1)


def _load_csv_rows(path: str) -> list:
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


# -- checks -------------------------------------------------------------------

def _check_test_output(work: str, output: str):
    """Shared part of both `test` workloads: S~_B against the oracle."""
    with open(output) as fh:
        out = json.load(fh)
    W, X = district_w(), _load_panel(work)
    value, scale = oracle_sb(X[None], W)
    return out, W, X, _mismatch("S~_B", out["sb"], value[0], scale[0])


def _check_paper_mc(work: str, output: str, seed: int) -> list:
    from sbergsma.statistic import SpatialPanel, sb_statistic
    from sbergsma.weights import ProximityMatrix

    out, W, X, fails = _check_test_output(work, output)
    PW = ProximityMatrix(W, standardized=True)
    null = np.empty(MC_REPS)
    for r in range(MC_REPS):
        Z = _null_panel(seed, r, PAPER_T, PAPER_R)
        null[r] = sb_statistic(SpatialPanel(Z), PW).scaled_value
        if r < 3:
            value, scale = oracle_sb(Z[None], W)
            fails += _mismatch(f"null replicate {r}", null[r] / PAPER_T,
                               value[0], scale[0])
    fails += _p_value_checks(out["p_value"], null, out["scaled_sb"], MC_REPS)
    return fails + _check_ci(out, seed, W, X) + _check_cutoff(out, seed)


def _check_ci(out, seed, W, X) -> list:
    """Percentile CI over the resamples regenerated from stream (seed, b)."""
    from sbergsma.rng import stream

    resamples = []
    for b in range(MC_BOOTSTRAP):
        rng = stream(seed, b)
        while True:  # a resample with a constant column is redrawn
            sub = X[rng.integers(0, PAPER_T, size=PAPER_T)]
            if np.all(sub.max(axis=0) > sub.min(axis=0)):
                break
        resamples.append(sub)
    values, scales = oracle_sb(np.stack(resamples), W)
    want = np.quantile(values, [0.025, 0.975])
    return (_mismatch("CI lower end", out["ci"][0], want[0], scales.mean())
            + _mismatch("CI upper end", out["ci"][1], want[1], scales.mean()))


def _check_cutoff(out, seed) -> list:
    """Pair cutoff: 95th percentile of rho~ over independent normal pairs."""
    from sbergsma.rng import stream

    # the package draws its cutoff pairs in chunks of 2000 from stream (seed, lo)
    X = stream(seed, 0).standard_normal((MC_CUTOFF_SIMS, PAPER_T, 2))
    rho, scales = oracle_sb(X, np.array([[0.0, 1.0], [1.0, 0.0]]))
    return _mismatch("pair cutoff", out["pairwise_cutoff"], np.quantile(rho, 0.95),
                     scales.mean())


def _check_paper_asym(work: str, output: str, seed: int) -> list:
    from sbergsma.nulldist import asymptotic_null_sample, nystrom_eigenvalues
    from sbergsma.reference import ReferenceDistribution
    from sbergsma.weights import ProximityMatrix

    out, W, X, fails = _check_test_output(work, output)
    spectrum = nystrom_eigenvalues(ReferenceDistribution("normal"), K=ASYM_K, m=ASYM_GRID)
    null = asymptotic_null_sample([spectrum] * PAPER_R, ProximityMatrix(W, standardized=True),
                                  n_draws=ASYM_REPS, seed=seed).samples
    if not np.all(np.isfinite(null)):
        return fails + ["asymptotic null has non-finite samples"]
    # the weighted chi-square limit has mean exactly 0; allow 5 standard errors
    if abs(null.mean()) > 5 * null.std(ddof=1) / np.sqrt(null.size):
        fails.append(f"asymptotic null mean {null.mean()!r} is not 0 within MC error")
    return fails + _p_value_checks(out["p_value"], null, out["scaled_sb"], ASYM_REPS)


def _check_sweep_sar(work: str, output: str, seed: int) -> list:
    rows = _load_csv_rows(output)
    got = {float(r["theta"]): (float(r["mean"]), float(r["sd"])) for r in rows}
    if sorted(got) != list(SWEEP_THETAS):
        return [f"sweep thetas {sorted(got)} differ from {SWEEP_THETAS}"]
    R, T = PAPER_R, PAPER_T
    W = chain_w(R)
    eps = np.stack([_null_panel(seed, r, T, R) for r in range(SWEEP_REPS)])
    fails, means = [], []
    for theta in SWEEP_THETAS:
        panels = eps
        if theta:
            A = np.eye(R) - theta * W
            panels = np.linalg.solve(A, eps.transpose(0, 2, 1)).transpose(0, 2, 1)
        values, scales = oracle_sb(panels, W)
        mean, sd = got[theta]
        fails += _mismatch(f"mean S~_B at theta={theta}", mean, values.mean(), scales.mean())
        fails += _mismatch(f"sd of S~_B at theta={theta}", sd, values.std(), scales.mean())
        means.append(mean)
    if not all(a < b for a, b in zip(means, means[1:])):
        fails.append(f"mean S~_B does not rise with theta: {means}")
    return fails


def _check_large_null(work: str, output: str, seed: int) -> list:
    from sbergsma.statistic import SpatialPanel, sb_statistic
    from sbergsma.weights import ProximityMatrix

    rows = _load_csv_rows(output)
    samples = np.array([float(r["sample"]) for r in rows])
    if samples.size != LARGE_REPS or not np.all(np.isfinite(samples)):
        return [f"expected {LARGE_REPS} finite null samples, got {samples.size}"]
    W = chain_w(LARGE_R)
    PW = ProximityMatrix(W, standardized=True)
    fails = []
    for r in range(3):
        X = _null_panel(seed, r, LARGE_T, LARGE_R)
        value, scale = oracle_sb(X[None], W)
        single = sb_statistic(SpatialPanel(X), PW).value
        fails += _mismatch(f"null sample {r}", samples[r] / LARGE_T, value[0], scale[0])
        fails += _mismatch(f"single-panel replicate {r}", single, value[0], scale[0])
    return fails


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    write_inputs: Callable[[str, int], None]
    cli_args: Callable[[int, int], list]  # (seed, nproc) -> argv
    check: Callable[[str, str, int], list]  # (work dir, output, seed) -> failures
    output: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "paper_mc",
        "paper design (R=14, T=50, district W) with the Monte Carlo null, "
        "bootstrap CI and simulated pair cutoff; the batched kernel does most of the work",
        _write_paper_inputs,
        lambda seed, nproc: _paper_args(seed) + [
            "--null", "mc", "--reps", str(MC_REPS), "--bootstrap", str(MC_BOOTSTRAP),
            "--cutoff-sims", str(MC_CUTOFF_SIMS)],
        _check_paper_mc,
        "out.json",
    ),
    Workload(
        "paper_asym",
        "same panel with the asymptotic null and a fixed cutoff: Nystrom eigensolve "
        "and per-pair normal draws, almost no kernel work",
        _write_paper_inputs,
        lambda seed, nproc: _paper_args(seed) + [
            "--null", "asym", "--K", str(ASYM_K), "--grid", str(ASYM_GRID),
            "--reps", str(ASYM_REPS), "--cutoff", str(ASYM_CUTOFF)],
        _check_paper_asym,
        "out.json",
    ),
    Workload(
        "sweep_sar",
        "SAR theta sweep on a 14-region chain: the only workload that runs depmodels "
        "and redraws the same noise for every theta",
        _no_inputs,
        lambda seed, nproc: [
            "sweep", "--model", "sar", "--thetas", ",".join(map(str, SWEEP_THETAS)),
            "--reps", str(SWEEP_REPS), "--linear-chain", str(PAPER_R),
            "--T", str(PAPER_T), "--seed", str(seed), "-o", "out.csv"],
        _check_sweep_sar,
        "out.csv",
    ),
    Workload(
        "large_null",
        "Monte Carlo null at R=50, T=200: a 16 MB kernel stack per replicate, so it "
        "measures working set and peak memory; asks for 2 threads",
        _no_inputs,
        lambda seed, nproc: [
            "null", "--R", str(LARGE_R), "--T", str(LARGE_T),
            "--linear-chain", str(LARGE_R), "--reps", str(LARGE_REPS),
            "--threads", str(min(2, nproc)), "--seed", str(seed), "-o", "out.csv"],
        _check_large_null,
        "out.csv",
    ),
)}
