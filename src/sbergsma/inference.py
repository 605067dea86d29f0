"""End-to-end testing workflow: statistic, p-value, bootstrap CI, pair screen."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bergsma import check_time_points, pairwise_kappa, rho_from_kappa
from .exceptions import (
    EmptyNullError,
    InvalidParameterError,
    TooManyDegenerateResamplesError,
)
from .nulldist import (
    asymptotic_null_sample,
    monte_carlo_null,
    nystrom_eigenvalues,
    p_value,
)
from .reference import STANDARD_NORMAL, ReferenceDistribution
from .rng import stream
from .statistic import SBResult, SpatialPanel, replicate_values, sb_statistic, sb_values_batch
from .weights import ProximityMatrix

#: independent normal pairs drawn from one stream for the pair-screen cutoff
_CUTOFF_BLOCK = 2000


@dataclass(frozen=True)
class TestReport:
    """Everything Table-1-style reporting needs for one panel/W test, and none
    of its inputs, such as the CI level or the null method: the caller has them."""

    sb: SBResult
    p_value: float
    ci: tuple[float, float] | None  # percentile bootstrap (lower, upper)
    null_meta: dict  # the null's own meta: {} for the Monte Carlo null
    notes: tuple[str, ...] = field(default=())


def test_spatial_independence(
    panel: SpatialPanel,
    W: ProximityMatrix,
    null_method: str = "mc",
    null_dist: ReferenceDistribution = STANDARD_NORMAL,
    reps: int = 10_000,
    seed: int = 0,
    K: int = 100,
    m: int = 2000,
    ci_resamples: int | None = None,
    ci_level: float = 0.95,
    n_jobs: int = 1,
) -> TestReport:
    """Test the null of spatial pairwise independence via T * S~_B.

    The test is upper-tailed: Bergsma's rho >= 0, with equality exactly under
    independence, so spatial dependence only moves T * S~_B up and the p-value
    is the add-one share of null samples at or above it (:func:`p_value`).
    ``null_method`` is ``"mc"``, Monte Carlo simulation, or ``"asym"``, the
    eigenvalue-based asymptotic law, as with ``--null``; either is built from
    ``reps`` replicates.  To reuse one null over many panels, build it once
    and call ``p_value(sb_statistic(panel, W).scaled_value, null)``.  The reference
    distribution defaults to standard normal: the null law is insensitive to
    F, and residual inputs are continuous.  ``n_jobs`` threads the Monte Carlo
    null and the bootstrap; results are identical for any value.
    """
    if null_method not in ("mc", "asym"):
        raise InvalidParameterError(f"unknown null method {null_method!r}")
    if reps < 1:
        raise EmptyNullError("reps must be >= 1")
    if n_jobs < 1:
        raise InvalidParameterError(f"need n_jobs >= 1 threads, got {n_jobs}")
    if ci_resamples is not None:
        _check_bootstrap(ci_resamples, ci_level)
    sb = sb_statistic(panel, W)
    # the spectrum checks K and m before the null is simulated; each draw
    # builds its own generators, so the order changes no value (the bootstrap
    # and the Monte Carlo null read the same stream(seed, r), so they are not
    # independent; the asymptotic null reads stream(seed): see rng)
    if null_method == "asym":
        spectrum = nystrom_eigenvalues(null_dist, K=K, m=m)
    ci = None
    notes = []
    if ci_resamples is not None:
        lo, hi = bootstrap_ci(panel, W, B=ci_resamples, level=ci_level, seed=seed,
                              n_jobs=n_jobs)
        ci = (lo, hi)
        if not (lo <= sb.value <= hi):
            notes.append("percentile CI excludes the point estimate")
    if null_method == "mc":
        null = monte_carlo_null(null_dist, panel.n_time, W, reps=reps, seed=seed,
                                n_jobs=n_jobs)
    else:
        null = asymptotic_null_sample(
            [spectrum] * panel.n_regions, W, n_draws=reps, seed=seed
        )
    if not W.standardized:
        notes.append("W not row-standardized; S0 taken as the raw weight sum")
    return TestReport(
        sb=sb,
        p_value=p_value(sb.scaled_value, null),
        ci=ci,
        null_meta=null.meta,
        notes=tuple(notes),
    )


def bootstrap_ci(
    panel: SpatialPanel,
    W: ProximityMatrix,
    B: int = 1000,
    level: float = 0.95,
    seed: int = 0,
    n_jobs: int = 1,
) -> tuple[float, float]:
    """Percentile bootstrap CI for S~_B, resampling time rows jointly.

    Rows are resampled with replacement across all regions at once, which
    preserves the cross-sectional dependence being measured.  A resample that
    leaves some region constant is redrawn, up to 10 attempts per resample of
    its range of :func:`sbergsma.statistic.replicate_values`, so memory does
    not grow with B and nothing depends on ``n_jobs``.  The ends are the raw
    percentiles by numpy's default, linear, rule, with no clamping at 0.
    """
    _check_bootstrap(B, level)
    T = panel.n_time
    data = panel.data

    def values(lo, hi):
        n = hi - lo
        resamples = np.empty((n, T, panel.n_regions))
        attempts = 0
        for i in range(n):
            rng = stream(seed, lo + i)
            while True:
                attempts += 1
                if attempts > 10 * n:
                    raise TooManyDegenerateResamplesError(
                        f"more than {10 * n} attempts at resamples {lo}..{hi - 1} were degenerate")
                sub = data[rng.integers(0, T, size=T)]
                # constant column <=> degenerate kernel; cheap max-min check
                if np.all(sub.max(axis=0) - sub.min(axis=0) > 0):
                    break
            resamples[i] = sub
        return sb_values_batch(resamples, W)

    alpha = (1.0 - level) / 2.0
    lo, hi = _quantile(replicate_values(values, B, n_jobs), [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def _check_bootstrap(B: int, level: float) -> None:
    if B < 200:
        raise InvalidParameterError(f"need B >= 200 bootstrap resamples, got {B}")
    if not (0.0 < level < 1.0):
        raise InvalidParameterError(f"level must be in (0,1), got {level}")


def independence_rho_quantile(T: int, n_sim: int = 10_000, seed: int = 0,
                              n_jobs: int = 1) -> float:
    """Monte Carlo 95th percentile of rho~ for independent standard normal pairs.

    This is the empirical cutoff used to flag individually significant
    region pairs (about 0.17 at T = 19); it does not depend on ``n_jobs``.
    """
    check_time_points(T)
    if n_sim < 1:
        raise InvalidParameterError(f"need n_sim >= 1 cutoff simulations, got {n_sim}")

    def values(lo, hi):
        pairs = stream(seed, lo).standard_normal((hi - lo, T, 2))
        # a copy, so the join holds one value per pair, not the range's 2 x 2 matrices
        return rho_from_kappa(pairwise_kappa(pairs))[:, 0, 1].copy()

    return float(_quantile(replicate_values(values, n_sim, n_jobs, _CUTOFF_BLOCK), 0.95))


def _quantile(values: np.ndarray, q):
    """np.quantile's default (linear) rule, without the numpy.ma import its first call makes."""
    return np.interp(np.multiply(q, values.size - 1), np.arange(values.size), np.sort(values))


def pairwise_screen(rho: np.ndarray, cutoff: float) -> np.ndarray:
    """Flag pairs of an R x R rho~ matrix (such as :attr:`SBResult.pair_rho`) above
    ``cutoff``, never the diagonal; :func:`independence_rho_quantile` simulates one."""
    if not np.isfinite(cutoff):
        raise InvalidParameterError(f"cutoff must be finite, got {cutoff}")
    flags = rho > cutoff
    np.fill_diagonal(flags, False)
    return flags
