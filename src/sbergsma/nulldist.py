"""Null distribution of T * S~_B under spatial pairwise independence.

Two generation routes:

* ``monte_carlo_null``  -- simulate i.i.d. panels and recompute the statistic;
* ``asymptotic_null_sample`` -- draw from the weighted-chi-square limit

      T S~_B  ->D  (1/S0) sum_{i<j} (w_ij + w_ji)
                   * sum_{k,l} lam_k^(i) lam_l^(j) (Z_{ik,jl}^2 - 1)
                     / sqrt( sum_k (lam_k^(i))^2 * sum_l (lam_l^(j))^2 ),

  with all Z i.i.d. standard normal, using eigenvalues of the population
  kernel from a deterministic Nystrom discretization on an equal-probability-
  mass grid, checked against the kernel's trace and square sum.  Each pair term
  is drawn by inverse CDF from its law's CDF, inverted from the characteristic
  function with the small weights made one normal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .depmodels import sb_replicates
from .exceptions import (
    ConvergenceError,
    EmptyNullError,
    InvalidParameterError,
    NonFiniteError,
    SpectraMismatchError,
)
from .reference import SYMMETRIC, ReferenceDistribution
from .rng import stream
from .weights import ProximityMatrix

#: relative tolerance for the Nystrom trace / squared-trace consistency checks
TRACE_TOL = 0.02
#: midpoint grid size of the mean behind the squared-trace target; twice as
#: many points move it by under 1e-7 relative, far inside TRACE_TOL
_CHECK_GRID = 2**15

#: weights of a pair term kept exactly; the rest become one normal
_KEEP = 100
#: probability mass the CDF table may leave beyond each end of its grid
_TAIL_MASS = 1e-12
#: grid sizes a CDF table may take, and its target truncation error
_GRIDS = 2 ** np.arange(14, 21)
_TRUNC_TOL = 1e-7
#: (t, c) entries of log phi computed at once
_PHI_BLOCK = 2**18


@dataclass(frozen=True)
class EigenSpectrum:
    """Leading eigenvalues of the population kernel operator for one F."""

    eigenvalues: np.ndarray  # K values, decreasing by magnitude

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)


@dataclass(frozen=True)
class NullDistribution:
    """Sampled law of T * S~_B under the independence null.  ``meta`` holds only
    diagnostics the draw computed, not the arguments it was drawn from."""

    samples: np.ndarray
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
    eigenvalues estimate the operator spectrum directly.  For the symmetric
    laws it splits under the grid's reflection into two halves in closed form,
    min and max of the half-widths y_a = c - x_a, c = F^-1(1/2), and no kernel
    matrix is built (see :func:`_grid_eigenvalues`).
    Two checks guard against a too-coarse grid or too small a K, each within
    2%: the eigenvalue sum must match the trace g(F)/2 and the square sum
    E h_F(Z1, Z2)^2.  A failed or NaN comparison raises ConvergenceError.  No
    random numbers are drawn.  Results are memoised per (dist, K, m); the
    spectrum is read-only.
    """
    if K < 1 or K > m:
        raise InvalidParameterError(f"need 1 <= K <= m, got K={K}, m={m}")
    eig = _grid_eigenvalues(dist, m)
    order = np.argsort(np.abs(eig))[::-1]
    lam = eig[order[:K]]

    checks = [("sum", lam.sum(), dist.mean_abs_gap() / 2),
              ("square sum", np.sum(lam**2), _kernel_square_mean(dist))]
    for name, got, want in checks:
        if not abs(got - want) <= TRACE_TOL * abs(want):
            raise ConvergenceError(
                f"eigenvalue {name} {got:.6g} misses its target {want:.6g}; "
                "grid too coarse or K too small"
            )
    return EigenSpectrum(lam)


def _grid_eigenvalues(dist: ReferenceDistribution, m: int) -> np.ndarray:
    """All m eigenvalues of H = h_F(x_a, x_b) / m on the midpoint grid, unordered.

    For a symmetric law the grid is its own reflection, x_{m-1-a} = 2c - x_a,
    so H commutes with the grid's reversal and splits into an even and an odd
    half.  On the lower points a < m - h, h = m // 2, with half-widths
    y_a = c - x_a and g = g_F there, -|x - y|/2 folds into Brownian
    covariances: the odd half is min(y_a, y_b) / m and the even half
    (g_a + g_b - g(F) - max(y_a, y_b)) / m, its middle row and column (y = 0,
    odd m) times sqrt(1/2).  No kernel matrix is built and one half is held
    at a time; two solves of about m/2 cost a quarter of one of size m.  y is
    read from the lower points and c = F^-1(1/2), not as (x_{m-1-a} - x_a)/2,
    since near q = 1 the upper points' quantiles lose digits.  The other laws
    build all of H and keep the one full solve.
    """
    if dist.family not in SYMMETRIC:
        grid = dist.ppf((np.arange(m) + 0.5) / m)
        H = dist.kernel(grid[:, None], grid[None, :])
        H /= m
        return np.linalg.eigvalsh(H)
    h = m // 2
    lower = dist.ppf((np.arange(m - h) + 0.5) / m)
    y = dist.ppf(0.5) - lower
    g = dist.mean_abs_from(lower)
    even = np.maximum.outer(y, y)
    np.subtract((g - dist.mean_abs_gap())[:, None], even, out=even)
    even += g
    even /= m
    if m % 2:
        even[-1] *= np.sqrt(0.5)
        even[:, -1] *= np.sqrt(0.5)
    eig = np.linalg.eigvalsh(even)
    del even
    # rounding is monotone, so min(y_a / m, y_b / m) is min(y_a, y_b) / m exactly
    y = y[:h] / m
    return np.concatenate([eig, np.linalg.eigvalsh(np.minimum.outer(y, y))])


def _kernel_square_mean(dist: ReferenceDistribution) -> float:
    """E h_F(Z1, Z2)^2 = g(F)^2/4 + E[(Z - EZ)^2 - g_F(Z)^2]/2, the mean taken on
    the same _CHECK_GRID inverse-CDF midpoints for every law."""
    z = dist.ppf((np.arange(_CHECK_GRID) + 0.5) / _CHECK_GRID)
    spread = np.mean((z - z.mean()) ** 2 - dist.mean_abs_from(z) ** 2)
    return dist.mean_abs_gap() ** 2 / 4 + spread / 2


# -- asymptotic draws --------------------------------------------------------

def _chi2_edge(a, d, log_eps):
    """x with P(sum_j a_j chi2_{d_j} > x) <= exp(-log_eps), all a_j >= 0 (Chernoff)."""
    # the mgf is finite for s < 1 / (2 max a); with all a_j = 0 the bound is x ~ 0
    s = (1.0 - 0.5 ** np.arange(1, 20)) / (2.0 * a.max(initial=np.finfo(float).tiny))
    log_mgf = -0.5 * (np.log1p(-2.0 * np.multiply.outer(s, a)) @ d)
    return float(np.min((log_eps + log_mgf) / s))


def _pair_law(lam_i, lam_j, keep=_KEEP):
    """CDF table (y, F, weights kept, remainder variance) of one pair term.

    Y = sum_{k,l} c_kl (Z_kl^2 - 1), c_kl = lam_i[k] lam_j[l] / sqrt(sum lam_i^2
    sum lam_j^2); equal c_kl merge into one chi-square with their count d as
    degrees of freedom.  The ``keep`` largest |c| stay exact, the rest become
    N(0, 2 sum d c^2) (Lindsay, Pilla & Basak 2000).  F(y) = 1/2 - int_0^inf
    Im(exp(-ity) phi(t)) / (pi t) dt (Gil-Pelaez; Imhof 1961) is summed by the
    midpoint rule with one FFT on a grid between Chernoff bounds that leave mass
    _TAIL_MASS beyond each end, of the fewest _GRIDS points with truncation
    error |phi(t_max)| / (pi t_max) below _TRUNC_TOL.  log phi is summed over
    blocks of weights of at most _PHI_BLOCK (t, c) entries, or of one weight
    on a larger grid: at R = 14, K = 100 a null of all pairs then peaks at about
    10 MiB in tracemalloc, where blocks of 2^21 entries took 63 MiB.
    """
    norm = np.sqrt(np.sum(lam_i**2) * np.sum(lam_j**2))
    c, d = np.unique(np.multiply.outer(lam_i, lam_j) / norm, return_counts=True)
    order = np.argsort(-np.abs(c), kind="stable")
    var_rest = 2.0 * float(d[order[keep:]] @ c[order[keep:]] ** 2)
    c, d = c[order[:keep]], d[order[:keep]]
    log_eps, mu = -np.log(_TAIL_MASS), float(d @ c)
    z = np.sqrt(2.0 * log_eps * var_rest)
    lo = -mu - _chi2_edge(np.maximum(-c, 0.0), d, log_eps) - z
    span = -mu + _chi2_edge(np.maximum(c, 0.0), d, log_eps) + z - lo
    # |phi(t)| / (pi t) falls with t, so count the grid sizes that miss the bound
    t_max = 2 * np.pi * _GRIDS / span
    log_err = (-0.25 * (np.log1p(np.multiply.outer(2 * t_max, c) ** 2) @ d)
               - 0.5 * var_rest * t_max**2 - np.log(np.pi * t_max))
    n = int(_GRIDS[min(np.sum(log_err > np.log(_TRUNC_TOL)), _GRIDS.size - 1)])
    t = (np.arange(n) + 0.5) * (2 * np.pi / span)
    # log phi(t) - i t lo, summed over blocks of weights
    log_phi = -1j * t * (mu + lo) - 0.5 * var_rest * t * t
    step = max(1, _PHI_BLOCK // n)
    for j in range(0, c.size, step):
        x = np.multiply.outer(2.0 * t, c[j:j + step])
        log_phi += (0.5j * np.arctan(x) - 0.25 * np.log1p(x * x)) @ d[j:j + step]
    S = np.fft.fft(np.exp(log_phi) / t) * np.exp(-1j * np.pi * np.arange(n) / n)
    F = np.maximum.accumulate(np.clip(0.5 - 2.0 * S.imag / span, 0.0, 1.0))
    return lo + span / n * np.arange(n), F, c.size, var_rest


def asymptotic_null_sample(
    spectra, W: ProximityMatrix, n_draws: int = 10_000, seed: int = 0
) -> NullDistribution:
    """Sample the weighted-chi-square limit law of T * S~_B.

    ``spectra`` is one :class:`EigenSpectrum` per region.  The pairs of weight
    w_p = w_ij + w_ji > 0 are grouped by their unordered pair of spectra; each
    group builds one CDF table, draws its pairs and drops the table before the
    next group, so the null holds one table at a time and memory does not grow
    with R.  The samples are sum_p w_p Y_p / S0, with Y_p drawn by inverse CDF
    from ``stream(seed, p)``.  ``meta`` holds only what the draw computed: the
    worst table's weights kept, remainder variance and tail mass beyond its
    grid.
    """
    if n_draws < 1:
        raise EmptyNullError("n_draws must be >= 1")
    spectra = [s.eigenvalues for s in spectra]
    R = W.n_regions
    if len(spectra) != R:
        raise SpectraMismatchError(f"{len(spectra)} spectra for {R} regions")
    iu = np.triu_indices(R, k=1)
    w_pair = (W.weights + W.weights.T)[iu]
    groups = {}
    for p in np.flatnonzero(w_pair):
        key = frozenset((spectra[iu[0][p]].tobytes(), spectra[iu[1][p]].tobytes()))
        groups.setdefault(key, []).append(int(p))
    summaries, samples = [], np.zeros(n_draws)
    for ps in groups.values():
        y, F, kept, var_rest = _pair_law(spectra[iu[0][ps[0]]], spectra[iu[1][ps[0]]])
        summaries.append((kept, var_rest, float(1.0 - F[-1])))
        for p in ps:
            samples += w_pair[p] * np.interp(stream(seed, p).random(n_draws), F, y)
        del y, F
    samples /= W.s0
    kept, var_rest, tail = zip(*summaries)
    return NullDistribution(
        samples,
        meta={
            "weights_kept": min(kept),
            "remainder_variance": max(var_rest),
            "table_tail_mass": max(tail),
        },
    )


# -- Monte Carlo route -------------------------------------------------------

def monte_carlo_null(
    dist: ReferenceDistribution,
    T: int,
    W: ProximityMatrix,
    reps: int = 10_000,
    seed: int = 0,
    n_jobs: int = 1,
) -> NullDistribution:
    """Simulate reps independent T x R i.i.d. panels, R = ``W.n_regions``, and
    collect T * S~_B.

    These are the theta = 0 replicates of :func:`sbergsma.depmodels.sb_replicates`:
    replicate r's panel depends only on (seed, r), and results are identical
    for any ``n_jobs``.  ``meta`` is empty: every input is an argument.
    """
    if reps < 1:
        raise EmptyNullError("reps must be >= 1")
    if T < 3:
        raise InvalidParameterError(f"need T >= 3, got {T}")
    samples = T * sb_replicates("SMA", [0.0], W, dist, T, reps, seed, n_jobs)[0]
    return NullDistribution(samples)


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
