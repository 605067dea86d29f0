"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Heavy inputs (10k-replicate Monte Carlo nulls, theta sweeps, the eigenvalue
limit draws) are computed once in module-scoped fixtures and shared across
criteria.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines; the full module takes about 34 s on a 2-vCPU Xeon.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import ks_2samp

from sbergsma import (
    DependenceSpec,
    ReferenceDistribution,
    SpatialPanel,
    independence_rho_quantile,
    monte_carlo_null,
    asymptotic_null_sample,
    nystrom_eigenvalues,
    p_value,
    rho_tilde,
    sb_statistic,
    sb_values_batch,
    theta_sweep,
)
from sbergsma.bergsma import _centring, pairwise_kappa
from sbergsma.rng import stream

from conftest import naive_rho, naive_sb

NORMAL = ReferenceDistribution("normal")
SIX_DISTS = [
    ReferenceDistribution("normal"),
    ReferenceDistribution("uniform"),
    ReferenceDistribution("exponential"),
    ReferenceDistribution("laplace"),
    ReferenceDistribution("logistic"),
    ReferenceDistribution("chi-square", df=1.0),
]
THETAS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)
T50, R14, REPS = 50, 14, 10_000
JOBS = min(4, os.cpu_count() or 1)  # no value depends on the thread count


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def null_by_dist(w_adjacency):
    """10k-replicate Monte Carlo nulls for the six reference distributions."""
    return {
        d.family: monte_carlo_null(d, T50, w_adjacency, reps=REPS, seed=1, n_jobs=JOBS)
        for d in SIX_DISTS
    }


@pytest.fixture(scope="module")
def null_by_w(null_by_dist, w_invdist, w_chain):
    """Standard normal Monte Carlo nulls for all three proximity matrices."""
    return {
        "adjacency": null_by_dist["normal"],
        "inverse_distance": monte_carlo_null(NORMAL, T50, w_invdist, reps=REPS, seed=1,
                                             n_jobs=JOBS),
        "chain": monte_carlo_null(NORMAL, T50, w_chain, reps=REPS, seed=1, n_jobs=JOBS),
    }


@pytest.fixture(scope="module")
def sweeps(three_ws):
    """theta sweeps for SAR and SMA across the three proximity matrices."""
    out = {}
    for model in ("SAR", "SMA"):
        for name, W in three_ws.items():
            out[model, name] = theta_sweep(model, W, THETAS, T=T50, reps=2000, seed=42, n_jobs=JOBS)
    return out


def test_criterion_01_oracle_equivalence():
    rng = stream(2026)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(3, 41))
        R = int(rng.integers(2, 9))
        data = rng.standard_normal((T, R))
        w = rng.random((R, R))
        np.fill_diagonal(w, 0.0)
        from sbergsma import ProximityMatrix

        got = sb_statistic(SpatialPanel(data), ProximityMatrix(w)).value
        want = naive_sb(data, w)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
        r_got = rho_tilde(data[:, 0], data[:, 1])
        r_want = naive_rho(data[:, 0], data[:, 1])
        worst = max(worst, abs(r_got - r_want) / max(abs(r_want), 1e-30))
    _line(1, worst < 1e-12, f"max relative deviation from naive oracle {worst:.2e}")


def test_criterion_02_hand_kernel():
    z = np.array([0.0, 1.0, 2.0])
    a = _centring(z)
    H = -0.5 * (np.abs(z[:, None] - z) - a[:, None] - a)
    expected = np.array(
        [[5 / 6, 1 / 12, -1 / 6], [1 / 12, 1 / 3, 1 / 12], [-1 / 6, 1 / 12, 5 / 6]]
    )
    err = float(np.max(np.abs(H - expected)))
    kerr = abs(pairwise_kappa(z[:, None])[0, 0] - 1 / 72)
    _line(2, err < 1e-15 and kerr < 1e-15, f"kernel error {err:.1e}, kappa error {kerr:.1e}")


def test_criterion_03_null_invariance_to_f(null_by_dist):
    worst = 0.0
    fams = list(null_by_dist)
    for i in range(len(fams)):
        for j in range(i + 1, len(fams)):
            ks = ks_2samp(
                null_by_dist[fams[i]].samples, null_by_dist[fams[j]].samples
            ).statistic
            worst = max(worst, ks)
    _line(3, worst < 0.05, f"max pairwise KS across six F {worst:.4f} (< 0.05)")


def test_criterion_04_asymptotic_matches_empirical(null_by_w, three_ws):
    spectrum = nystrom_eigenvalues(NORMAL, K=100, m=2000)
    worst = 0.0
    for name, W in three_ws.items():
        asym = asymptotic_null_sample([spectrum] * R14, W, n_draws=REPS, seed=7)
        ks = ks_2samp(asym.samples, null_by_w[name].samples).statistic
        worst = max(worst, ks)
    _line(4, worst < 0.05, f"max KS asymptotic vs Monte Carlo over three W {worst:.4f}")


def test_criterion_05_trace_identities():
    worst_tr, worst_sq = 0.0, 0.0
    for idx, d in enumerate(SIX_DISTS):
        spec = nystrom_eigenvalues(d, K=100, m=2000)  # raises if checks fail
        target = d.mean_abs_gap() / 2
        worst_tr = max(worst_tr, abs(spec.eigenvalues.sum() - target) / target)
        rng = stream(5, idx)
        z1, z2 = d.sample(1_000_000, rng), d.sample(1_000_000, rng)
        sq = float(np.mean(d.kernel(z1, z2) ** 2))
        worst_sq = max(worst_sq, abs(np.sum(spec.eigenvalues**2) - sq) / sq)
    _line(5, worst_tr < 0.02 and worst_sq < 0.02,
          f"trace rel err {worst_tr:.4f}, squared-trace rel err {worst_sq:.4f} (< 0.02)")


def test_criterion_06_monotone_in_theta(sweeps):
    min_ratio = np.inf
    for (model, name), sw in sweeps.items():
        means = np.array([sw.summaries[t][0] for t in THETAS])
        ses = np.array([sw.summaries[t][1] for t in THETAS]) / np.sqrt(2000)
        gaps = np.diff(means)
        comb = np.sqrt(ses[:-1] ** 2 + ses[1:] ** 2)
        min_ratio = min(min_ratio, float((gaps / comb).min()))
    _line(6, min_ratio > 2.0, f"min adjacent gap / combined SE {min_ratio:.2f} (> 2)")


def test_criterion_07_moment_trends(sweeps):
    ok = True
    details = []
    for model in ("SAR", "SMA"):
        for name in ("adjacency", "chain"):
            sw = sweeps[model, name]
            s01, s09 = sw.summaries[0.1][2], sw.summaries[0.9][2]
            k09 = sw.summaries[0.9][3]
            ok &= abs(s09) < abs(s01) and 2.5 <= k09 <= 3.5
            details.append(f"{model}/{name} |skew| {abs(s01):.2f}->{abs(s09):.2f} kurt {k09:.2f}")
    _line(7, ok, "; ".join(details))


def test_criterion_08_size_and_power(null_by_dist, w_adjacency):
    null = null_by_dist["normal"]
    trials = 500
    chunk = 100

    rejections = 0
    for lo in range(0, trials, chunk):
        rng = stream(88, lo)
        panels = rng.standard_normal((chunk, T50, R14))
        stats = T50 * sb_values_batch(panels, w_adjacency)
        for s in stats:
            rejections += p_value(s, null) <= 0.05
    size = rejections / trials

    spec = DependenceSpec("SAR", 0.75, w_adjacency)
    from sbergsma.depmodels import _apply_dependence

    power_hits = 0
    for lo in range(0, trials, chunk):
        rng = stream(89, lo)
        panels = _apply_dependence(spec, rng.standard_normal((chunk, T50, R14)))
        stats = T50 * sb_values_batch(panels, w_adjacency)
        for s in stats:
            power_hits += p_value(s, null) <= 0.05
    power = power_hits / trials
    _line(8, 0.03 <= size <= 0.07 and power >= 0.95,
          f"size {size:.3f} in [0.03, 0.07], power {power:.3f} >= 0.95")


def test_criterion_09_pairwise_cutoff():
    cut = independence_rho_quantile(19, n_sim=10_000, seed=0)
    _line(9, abs(cut - 0.17) <= 0.02, f"95th percentile of rho~ at T=19 is {cut:.4f} (0.17 +/- 0.02)")


def test_criterion_10_cli_determinism(tmp_path):
    panel = SpatialPanel(stream(10).standard_normal((20, 5)))
    from sbergsma.io import save_panel

    panel_path = str(tmp_path / "panel.csv")
    save_panel(panel_path, panel)
    out = tmp_path / "report.json"
    argv = [
        sys.executable, "-m", "sbergsma.cli", "test", panel_path,
        "--linear-chain", "5", "--reps", "500", "--cutoff-sims", "500",
        "--seed", "13", "--output", str(out),
    ]
    blobs = []
    for threads in ("1", "4"):
        subprocess.run(argv + ["--threads", threads], check=True, capture_output=True)
        blobs.append(out.read_bytes())
    # the whole file: the configuration records no thread count
    same = blobs[0] == blobs[1]
    # and a strict byte-level rerun at fixed thread count
    subprocess.run(argv + ["--threads", "1"], check=True, capture_output=True)
    same &= out.read_bytes() == blobs[0]
    _line(10, same, "identical results across reruns and thread counts")


def test_criterion_11_workflow_targets_documented():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    needed = ["0.85", "0.78", "0.09", "0.14"]
    ok = all(v in readme for v in needed) and "workflow" in readme.lower()
    _line(11, ok, "external-data workflow targets documented in README")
