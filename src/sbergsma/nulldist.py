"""Null distribution of T * S~_B under spatial pairwise independence.

Two generation routes:

* ``monte_carlo_null``  -- simulate i.i.d. panels and recompute the statistic;
* ``asymptotic_null_sample`` -- draw from the weighted-chi-square limit

      T S~_B  ->D  (1/S0) sum_{i<j} (w_ij + w_ji)
                   * sum_{k,l} lam_k^(i) lam_l^(j) (Z_{ik,jl}^2 - 1)
                     / sqrt( sum_k (lam_k^(i))^2 * sum_l (lam_l^(j))^2 ),

  with all Z i.i.d. standard normal, using eigenvalues of the population
  kernel obtained by a Nystrom discretization on an equal-probability-mass
  grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .depmodels import DependenceSpec, sb_replicates
from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    EmptyNullError,
    NonFiniteError,
    SpectraMismatchError,
    UnsupportedDistributionError,
)
from .reference import ReferenceDistribution
from .rng import stream
from .weights import ProximityMatrix

#: relative tolerance for the Nystrom trace / squared-trace consistency checks
TRACE_TOL = 0.02
#: seed of the 10^6-pair Monte Carlo estimate behind the squared-trace check
_CHECK_SEED = 20_210_906

_ASYM_CHUNK = 500


@dataclass(frozen=True)
class EigenSpectrum:
    """Leading eigenvalues of the population kernel operator for one F."""

    eigenvalues: np.ndarray  # K values, decreasing by magnitude

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)

    @property
    def sum_squares(self) -> float:
        return float(np.sum(self.eigenvalues**2))


@dataclass(frozen=True)
class NullDistribution:
    """Sampled law of T * S~_B under the independence null."""

    samples: np.ndarray
    method: str  # "monte_carlo" | "asymptotic_eigen"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples.setflags(write=False)


@lru_cache(maxsize=16)
def nystrom_eigenvalues(
    dist: ReferenceDistribution,
    K: int = 100,
    m: int = 2000,
) -> EigenSpectrum:
    """Approximate the K leading kernel-operator eigenvalues on an m-point grid.

    The grid places equal probability mass 1/m at inverse-CDF midpoints, so
    the discretized operator is the symmetric matrix h_F(x_a, x_b) / m whose
    eigenvalues estimate the operator spectrum directly.  Two consistency
    checks guard against a too-coarse grid: the eigenvalue sum must match the
    analytic trace g(F)/2 and the squared sum must match a Monte Carlo
    estimate of E[h_F(Z1, Z2)^2], both within 2%.  Results are memoised per
    (dist, K, m); the shared spectrum is read-only.
    """
    if K < 1 or K > m:
        raise UnsupportedDistributionError(f"need 1 <= K <= m, got K={K}, m={m}")
    grid = dist.ppf((np.arange(m) + 0.5) / m)
    H = dist.kernel(grid[:, None], grid[None, :])
    eig = np.linalg.eigvalsh(H / m)
    order = np.argsort(np.abs(eig))[::-1]
    lam = eig[order[:K]]

    trace_target = dist.mean_abs_gap() / 2.0
    if abs(lam.sum() - trace_target) > TRACE_TOL * abs(trace_target):
        raise ConvergenceError(
            f"eigenvalue sum {lam.sum():.6g} misses trace target {trace_target:.6g}; "
            "grid too coarse or K too small"
        )
    rng = stream(_CHECK_SEED, 0)
    z1 = dist.sample(1_000_000, rng)
    z2 = dist.sample(1_000_000, rng)
    sq_target = float(np.mean(dist.kernel(z1, z2) ** 2))
    if abs(np.sum(lam**2) - sq_target) > TRACE_TOL * sq_target:
        raise ConvergenceError(
            f"eigenvalue square sum {np.sum(lam**2):.6g} misses Monte Carlo "
            f"target {sq_target:.6g}"
        )
    return EigenSpectrum(lam)


# -- asymptotic draws --------------------------------------------------------

def _pair_summands(lam_i, lam_j, n_draws, rng):
    """Draws of sum_{k,l} lam_i[k] lam_j[l] (Z_kl^2 - 1) for one region pair."""
    out = np.empty(n_draws)
    shift = lam_i.sum() * lam_j.sum()
    for lo in range(0, n_draws, _ASYM_CHUNK):
        hi = min(lo + _ASYM_CHUNK, n_draws)
        G = rng.standard_normal((hi - lo, lam_i.size, lam_j.size))
        np.square(G, out=G)
        out[lo:hi] = (G @ lam_j) @ lam_i
    return out - shift


_draw_cache: dict = {}
_DRAW_CACHE_MAX = 4


def _normalized_pair_draws(spectra, n_draws, seed):
    """(n_pairs, n_draws) matrix of normalized per-pair limit draws.

    Draws depend only on (spectra, n_draws, seed), never on W, so results
    are memoized: evaluating the same design against several proximity
    matrices pays for the normal generation once.
    """
    key = (tuple(s.eigenvalues.tobytes() for s in spectra), n_draws, seed)
    if key in _draw_cache:
        return _draw_cache[key]
    R = len(spectra)
    pairs = [(i, j) for i in range(R) for j in range(i + 1, R)]
    A = np.empty((len(pairs), n_draws))
    for p, (i, j) in enumerate(pairs):
        rng = stream(seed, p)
        lam_i = spectra[i].eigenvalues
        lam_j = spectra[j].eigenvalues
        norm = np.sqrt(spectra[i].sum_squares * spectra[j].sum_squares)
        A[p] = _pair_summands(lam_i, lam_j, n_draws, rng) / norm
    if len(_draw_cache) >= _DRAW_CACHE_MAX:
        _draw_cache.pop(next(iter(_draw_cache)))
    _draw_cache[key] = A
    return A


def asymptotic_null_sample(
    spectra,
    W: ProximityMatrix,
    n_draws: int = 10_000,
    seed: int = 0,
) -> NullDistribution:
    """Sample the weighted-chi-square limit law of T * S~_B.

    ``spectra`` is one :class:`EigenSpectrum` per region; when all spectra
    coincide the simplified common-F normalization is used (same draws,
    shared normalizer), which agrees in distribution with the general form.
    """
    if n_draws < 1:
        raise EmptyNullError("n_draws must be >= 1")
    spectra = list(spectra)
    R = W.n_regions
    if len(spectra) != R:
        raise SpectraMismatchError(f"{len(spectra)} spectra for {R} regions")
    A = _normalized_pair_draws(spectra, n_draws, seed)
    iu = np.triu_indices(R, k=1)
    w_pair = (W.weights + W.weights.T)[iu]
    samples = (w_pair @ A) / W.s0
    return NullDistribution(
        samples,
        "asymptotic_eigen",
        meta={
            "R": R,
            "K": int(spectra[0].eigenvalues.size),
            "n_draws": n_draws,
            "seed": seed,
            "common_spectrum": all(
                np.array_equal(s.eigenvalues, spectra[0].eigenvalues) for s in spectra
            ),
        },
    )


# -- Monte Carlo route -------------------------------------------------------

def monte_carlo_null(
    dist: ReferenceDistribution,
    R: int,
    T: int,
    W: ProximityMatrix,
    reps: int = 10_000,
    seed: int = 0,
    n_jobs: int = 1,
) -> NullDistribution:
    """Simulate reps independent T x R i.i.d. panels and collect T * S~_B.

    These are the theta = 0 replicates of :func:`sbergsma.depmodels.sb_replicates`:
    replicate r's panel depends only on (seed, r), and results are identical
    for any ``n_jobs``.
    """
    if reps < 1:
        raise EmptyNullError("reps must be >= 1")
    if W.n_regions != R:
        raise DimensionMismatchError(f"W has {W.n_regions} regions, R = {R}")
    null_spec = DependenceSpec("SMA", 0.0, W, dist)
    samples = T * sb_replicates([null_spec], T, reps, seed, n_jobs)[0]
    return NullDistribution(
        samples,
        "monte_carlo",
        meta={
            "R": R,
            "T": T,
            "reps": reps,
            "seed": seed,
            "distribution": dist.family,
        },
    )


def p_value(observed_scaled: float, null: NullDistribution) -> float:
    """Upper-tail Monte Carlo p-value with the add-one correction.

    p = (1 + #{samples >= observed}) / (N + 1); never exactly zero.  A NaN
    or infinite observed value raises instead of yielding the smallest p.
    """
    s = null.samples
    if s.size == 0:
        raise EmptyNullError("null distribution has no samples")
    if not np.isfinite(observed_scaled):
        raise NonFiniteError(f"observed statistic is not finite: {observed_scaled!r}")
    return (1 + int(np.count_nonzero(s >= observed_scaled))) / (s.size + 1)
