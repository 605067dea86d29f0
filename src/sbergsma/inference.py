"""End-to-end testing workflow: statistic, p-value, bootstrap CI, pair screen."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bergsma import batch_rows, check_time_points, pairwise_kappa, rho_from_kappa
from .exceptions import DegenerateRegionError, EmptyNullError, InvalidParameterError
from .nulldist import asymptotic_null, monte_carlo_null, p_value
from .reference import STANDARD_NORMAL, ReferenceDistribution
from .rng import stream
from .statistic import SBResult, SpatialPanel, replicate_values, sb_statistic, sb_values_batch
from .weights import ProximityMatrix

#: independent normal pairs drawn from one stream for the pair-screen cutoff
_CUTOFF_BLOCK = 2000
#: draws of one bootstrap resample, each with a constant column, before it fails
_REDRAWS = 100


@dataclass(frozen=True, eq=False)
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
    eigenvalue-based asymptotic law from min(``K``, 16) eigenvalues on an
    ``m``-point grid (:func:`asymptotic_null`), as with ``--null``; either is
    built from ``reps`` replicates.  To reuse one null over many panels, build it once
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
    if null_method == "asym":
        null = asymptotic_null(null_dist, W, K=K, m=m, n_draws=reps, seed=seed)
    else:
        null = monte_carlo_null(null_dist, panel.n_time, W, reps=reps, seed=seed, n_jobs=n_jobs)
    ci = None
    notes = []
    if ci_resamples is not None:
        lo, hi = bootstrap_ci(panel, W, B=ci_resamples, level=ci_level, seed=seed,
                              n_jobs=n_jobs)
        ci = (lo, hi)
        if not (lo <= sb.value <= hi):
            notes.append("percentile CI excludes the point estimate")
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
    preserves the cross-sectional dependence being measured.  Resample b is
    drawn from ``stream(seed, b)`` until no region is constant in it, at most
    ``_REDRAWS`` times, else :class:`DegenerateRegionError` names b and the
    regions constant in its last draw, so no value or error depends on
    ``n_jobs`` or on the byte budget that sizes ranges.  The ends are the raw
    percentiles by numpy's default, linear, rule, with no clamping at 0.
    """
    _check_bootstrap(B, level)
    T = panel.n_time
    data = panel.data

    def values(lo, hi):
        resamples = np.empty((hi - lo, T, panel.n_regions))
        for b in range(lo, hi):
            rng = stream(seed, b)
            for _ in range(_REDRAWS):
                sub = data[rng.integers(0, T, size=T)]
                # constant column <=> degenerate kernel; cheap max-min check
                flat = sub.max(axis=0) == sub.min(axis=0)
                if not flat.any():
                    break
            else:
                names = ", ".join(r for r, f in zip(panel.region_labels, flat) if f)
                raise DegenerateRegionError(
                    f"bootstrap resample {b}: all {_REDRAWS} draws have a constant"
                    f" series; the last at {names}")
            resamples[b - lo] = sub
        return sb_values_batch(resamples, W)

    alpha = (1.0 - level) / 2.0
    lo, hi = _quantile(replicate_values(values, B, data.nbytes, n_jobs), [alpha, 1.0 - alpha])
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
    region pairs (about 0.17 at T = 19).  Block i of 2000 pairs is one stream
    (seed, 2000 i), drawn in budget-sized slices; no value depends on ``n_jobs``.
    """
    check_time_points(T)
    if n_sim < 1:
        raise InvalidParameterError(f"need n_sim >= 1 cutoff simulations, got {n_sim}")
    # pairs drawn at once: slices of one stream draw the normals one draw would
    step = batch_rows(T * 2 * 8)

    def values(lo, hi):
        rho = []
        for start in range(lo * _CUTOFF_BLOCK, min(hi * _CUTOFF_BLOCK, n_sim), _CUTOFF_BLOCK):
            rng, n = stream(seed, start), min(_CUTOFF_BLOCK, n_sim - start)
            for k in range(0, n, step):
                pairs = rng.standard_normal((min(step, n - k), T, 2))
                # a copy, so the range holds one value per pair, not its 2 x 2 matrices
                rho.append(rho_from_kappa(pairwise_kappa(pairs))[:, 0, 1].copy())
        return np.concatenate(rho)

    # a range holds each block's values; only one slice of draws at a time
    blocks = -(-n_sim // _CUTOFF_BLOCK)
    return float(_quantile(replicate_values(values, blocks, 8 * _CUTOFF_BLOCK, n_jobs), 0.95))


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
